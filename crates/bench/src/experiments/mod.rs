//! One module per paper artifact family; `run` dispatches by artifact id.

mod floorplans;
mod ill_sweep;
mod media;
mod mesh_cmp;
mod phases;
mod runtime;
mod table1;
#[cfg(test)]
mod tests;
mod yield_curve;

use crate::{Artifact, Effort};

pub use floorplans::{fig19_fig20, standard_floorplan};
pub use ill_sweep::fig21_fig22;
pub use media::{fig10_to_16, fig18};
pub use mesh_cmp::fig23;
pub use phases::fig17;
pub use runtime::runtime_study;
pub use table1::tab1;
pub use yield_curve::fig1;

use sunfloor_benchmarks::Benchmark;
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{
    Parallelism, SynthesisConfig, SynthesisEngine, SynthesisMode, SynthesisOutcome,
};

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "fig1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tab1", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "runtime",
];

/// Runs the experiment(s) behind one artifact id (`"all"` runs everything).
/// Unknown ids return an empty vector.
#[must_use]
pub fn run(id: &str, effort: Effort) -> Vec<Artifact> {
    match id {
        "fig1" => vec![fig1()],
        // Figs. 10–16 share the D_26_media sweeps; `media` regenerates the
        // whole family in one pass.
        "media" => fig10_to_16(effort),
        "fig10" | "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" => {
            let wanted = id;
            fig10_to_16(effort).into_iter().filter(|a| a.id() == wanted).collect()
        }
        "tab1" => vec![tab1(effort)],
        "fig17" => vec![fig17(effort)],
        "fig18" => vec![fig18(effort)],
        "floorplans" => fig19_fig20(effort),
        "fig19" | "fig20" => {
            let wanted = id;
            fig19_fig20(effort).into_iter().filter(|a| a.id() == wanted).collect()
        }
        "ill" => fig21_fig22(effort),
        "fig21" | "fig22" => {
            let wanted = id;
            fig21_fig22(effort).into_iter().filter(|a| a.id() == wanted).collect()
        }
        "fig23" => vec![fig23(effort)],
        "runtime" => vec![runtime_study(effort)],
        "all" => {
            let mut out = vec![fig1()];
            out.extend(fig10_to_16(effort));
            out.push(tab1(effort));
            out.push(fig17(effort));
            out.push(fig18(effort));
            out.extend(fig19_fig20(effort));
            out.extend(fig21_fig22(effort));
            out.push(fig23(effort));
            out.push(runtime_study(effort));
            out
        }
        _ => Vec::new(),
    }
}

/// Shared synthesis configuration for 3-D runs: 400 MHz, 32-bit links,
/// `max_ill = 25` (§VIII-A), with sweep effort scaled per benchmark size.
/// Candidate evaluation fans out over the machine's cores — outcomes are
/// identical to a serial run, only faster.
pub(crate) fn cfg_3d(bench: &Benchmark, mode: SynthesisMode, effort: Effort) -> SynthesisConfig {
    let n = bench.soc.core_count();
    let (hi, step) = match effort {
        Effort::Quick => (n.min(10), 2),
        Effort::Full => {
            if n > 40 {
                (n.min(32), 2)
            } else {
                (n, 1)
            }
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Struct-update construction over the validated defaults: every field
    // set here is valid by inspection, so there is no fallible `build()`
    // step to fail.
    SynthesisConfig {
        mode,
        max_ill: 25,
        switch_count_range: Some((1, hi)),
        switch_count_step: step,
        parallelism: if jobs <= 1 { Parallelism::Serial } else { Parallelism::Jobs(jobs) },
        ..SynthesisConfig::default()
    }
}

/// Shared configuration for the 2-D comparison flow (same sweep effort).
pub(crate) fn cfg_2d(bench2d: &Benchmark, effort: Effort) -> SynthesisConfig {
    cfg_3d(bench2d, SynthesisMode::Phase1Only, effort)
}

/// Runs one synthesis sweep through the engine, panicking on invalid
/// benchmark specs (ours are valid by construction).
pub(crate) fn run_engine(
    soc: &SocSpec,
    comm: &CommSpec,
    cfg: SynthesisConfig,
) -> SynthesisOutcome {
    // sf-allow(panic-in-lib): in-tree benchmark specs and cfg_3d configs are valid by construction; a failure here is a generator bug, not a recoverable state
    SynthesisEngine::new(soc, comm, cfg).expect("valid benchmark").run()
}

/// Formats a milliwatt value with one decimal.
pub(crate) fn mw(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a cycle count with two decimals.
pub(crate) fn cyc(v: f64) -> String {
    format!("{v:.2}")
}
