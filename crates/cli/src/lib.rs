//! Argument parsing and run logic for the `sunfloor3d` command-line tool.
//!
//! ```text
//! sunfloor3d --cores design.cores --comm design.comm [options]
//!
//!   --cores <file>        core specification file (required)
//!   --comm <file>         communication specification file (required)
//!   --max-ill <n>         vertical-link budget per boundary   [25]
//!   --frequency <mhz>     operating frequency(s), comma list  [400]
//!   --alpha <0..1>        bandwidth/latency weight            [1.0]
//!   --mode <auto|phase1|phase2>                               [auto]
//!   --switches <lo..hi>   restrict the switch-count sweep
//!   --step <n>            stride of the switch-count sweep    [1]
//!   --jobs <n>            parallel candidate evaluation       [1]
//!   --anneal-replicas <n> tempered-annealing layout replicas  [0 = off]
//!   --seed <u64>          partitioner RNG seed (reproducible runs)
//!   --no-layout           skip floorplan insertion
//!   --out <dir>           write best-point artifacts (DOT, SVG, report)
//! ```
//!
//! `--jobs` fans the design-space sweep out over scoped worker threads;
//! results are committed in deterministic candidate order, so any `--jobs`
//! value produces the same report. `--seed` pins the partitioner RNG so a
//! run can be reproduced exactly. `--anneal-replicas <n>` routes the layout
//! step through the parallel-tempering floorplanner with `n` replicas; the
//! result depends only on `n` and the seed, never on thread scheduling, and
//! replica threading automatically collapses to one thread per candidate
//! when `--jobs` already saturates the machine. More than 64 replicas is a
//! usage error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::collections::BTreeMap;
use sunfloor_core::export::{layout_to_svg, topology_to_dot};
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{
    Candidate, RejectReason, SweepEvent, SynthesisConfig, SynthesisEngine, SynthesisMode,
};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Core spec path.
    pub cores: PathBuf,
    /// Comm spec path.
    pub comm: PathBuf,
    /// Vertical-link budget.
    pub max_ill: u32,
    /// Frequencies to sweep, MHz.
    pub frequencies: Vec<f64>,
    /// Definition-3 α.
    pub alpha: f64,
    /// Phase selection.
    pub mode: SynthesisMode,
    /// Optional switch-count range.
    pub switches: Option<(usize, usize)>,
    /// Stride of the switch-count sweep.
    pub step: usize,
    /// Worker threads for candidate evaluation.
    pub jobs: usize,
    /// Tempered-annealing layout replicas (`0` = classic shove insertion).
    pub anneal_replicas: usize,
    /// Optional partitioner RNG seed.
    pub seed: Option<u64>,
    /// Run floorplan insertion.
    pub layout: bool,
    /// Output directory for artifacts.
    pub out: Option<PathBuf>,
}

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Bad or missing arguments; the message explains which.
    Usage(String),
    /// Any downstream failure (I/O, parsing, synthesis).
    Run(Box<dyn Error>),
}

impl CliError {
    /// Process exit code for this error: `2` for usage mistakes (the
    /// invocation itself was wrong — scripts can tell "fix the command
    /// line" apart from "the run failed") and `1` for runtime failures.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            Self::Usage(_) => 2,
            Self::Run(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(m) => write!(f, "{m}"),
            Self::Run(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CliError {}

impl Options {
    /// Parses the argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on unknown flags, missing values or
    /// missing required paths.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut cores = None;
        let mut comm = None;
        let mut max_ill = 25u32;
        let mut frequencies = vec![400.0];
        let mut alpha = 1.0f64;
        let mut mode = SynthesisMode::Auto;
        let mut switches = None;
        let mut step = 1usize;
        let mut jobs = 1usize;
        let mut anneal_replicas = 0usize;
        let mut seed = None;
        let mut layout = true;
        let mut out = None;

        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> Result<&String, CliError> {
                it.next().ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--cores" => cores = Some(PathBuf::from(value("--cores")?)),
                "--comm" => comm = Some(PathBuf::from(value("--comm")?)),
                "--max-ill" => {
                    max_ill = value("--max-ill")?
                        .parse()
                        .map_err(|_| CliError::Usage("--max-ill expects an integer".into()))?;
                }
                "--frequency" => {
                    frequencies = value("--frequency")?
                        .split(',')
                        .map(|t| {
                            t.trim().parse().map_err(|_| {
                                CliError::Usage(format!("bad frequency `{t}`"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--alpha" => {
                    alpha = value("--alpha")?
                        .parse()
                        .map_err(|_| CliError::Usage("--alpha expects a number".into()))?;
                }
                "--mode" => {
                    mode = match value("--mode")?.as_str() {
                        "auto" => SynthesisMode::Auto,
                        "phase1" => SynthesisMode::Phase1Only,
                        "phase2" => SynthesisMode::Phase2Only,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown mode `{other}` (auto|phase1|phase2)"
                            )))
                        }
                    };
                }
                "--switches" => {
                    let spec = value("--switches")?;
                    let (lo, hi) = spec.split_once("..").ok_or_else(|| {
                        CliError::Usage("--switches expects `lo..hi`".into())
                    })?;
                    let lo = lo.parse().map_err(|_| {
                        CliError::Usage(format!("bad switch count `{lo}`"))
                    })?;
                    let hi = hi.parse().map_err(|_| {
                        CliError::Usage(format!("bad switch count `{hi}`"))
                    })?;
                    switches = Some((lo, hi));
                }
                "--step" => {
                    step = value("--step")?.parse().map_err(|_| {
                        CliError::Usage("--step expects a positive integer".into())
                    })?;
                    if step == 0 {
                        return Err(CliError::Usage(
                            "--step expects a positive integer".into(),
                        ));
                    }
                }
                "--jobs" => {
                    jobs = value("--jobs")?.parse().map_err(|_| {
                        CliError::Usage("--jobs expects a positive integer".into())
                    })?;
                    if jobs == 0 {
                        return Err(CliError::Usage(
                            "--jobs expects a positive integer".into(),
                        ));
                    }
                }
                "--anneal-replicas" => {
                    anneal_replicas = value("--anneal-replicas")?.parse().map_err(|_| {
                        CliError::Usage(
                            "--anneal-replicas expects a non-negative integer".into(),
                        )
                    })?;
                }
                "--seed" => {
                    seed = Some(value("--seed")?.parse().map_err(|_| {
                        CliError::Usage("--seed expects an unsigned 64-bit integer".into())
                    })?);
                }
                "--no-layout" => layout = false,
                "--out" => out = Some(PathBuf::from(value("--out")?)),
                other => {
                    return Err(CliError::Usage(format!("unknown argument `{other}`")));
                }
            }
        }

        Ok(Self {
            cores: cores.ok_or_else(|| CliError::Usage("--cores <file> is required".into()))?,
            comm: comm.ok_or_else(|| CliError::Usage("--comm <file> is required".into()))?,
            max_ill,
            frequencies,
            alpha,
            mode,
            switches,
            step,
            jobs,
            anneal_replicas,
            seed,
            layout,
            out,
        })
    }
}

/// Runs the tool: parse specs, synthesize, print the trade-off table,
/// optionally export the best point's artifacts. Returns the rendered
/// report.
///
/// # Errors
///
/// Propagates spec-parse, synthesis and I/O failures as [`CliError::Run`].
pub fn run(opts: &Options) -> Result<String, CliError> {
    let boxed = |e: Box<dyn Error>| CliError::Run(e);
    let soc = SocSpec::parse(
        &fs::read_to_string(&opts.cores).map_err(|e| boxed(Box::new(e)))?,
    )
    .map_err(|e| boxed(Box::new(e)))?;
    let comm = CommSpec::parse(
        &fs::read_to_string(&opts.comm).map_err(|e| boxed(Box::new(e)))?,
        &soc,
    )
    .map_err(|e| boxed(Box::new(e)))?;

    let mut builder = SynthesisConfig::builder()
        .frequencies_mhz(opts.frequencies.iter().copied())
        .max_ill(opts.max_ill)
        .alpha(opts.alpha)
        .mode(opts.mode)
        .switch_count_step(opts.step)
        .jobs(opts.jobs)
        .anneal_replicas(opts.anneal_replicas)
        .run_layout(opts.layout);
    if let Some((lo, hi)) = opts.switches {
        builder = builder.switch_count_range(lo, hi);
    }
    if let Some(seed) = opts.seed {
        builder = builder.rng_seed(seed);
    }
    let cfg = builder.build().map_err(|e| CliError::Usage(e.to_string()))?;
    let engine = SynthesisEngine::new(&soc, &comm, cfg).map_err(|e| boxed(Box::new(e)))?;
    // Collect the terminal rejection per candidate (a θ-escalating
    // candidate burns several attempts but dies exactly once) so the
    // infeasibility summary counts candidates, not attempts.
    let mut terminal_rejects: Vec<(Candidate, RejectReason)> = Vec::new();
    let outcome = engine.run_with_observer(&mut |e: &SweepEvent| {
        if let SweepEvent::CandidateRejected { candidate, reason } = e {
            terminal_rejects.push((*candidate, reason.clone()));
        }
    });

    let mut report = format!(
        "{} cores, {} layers, {} flows — {} feasible points, {} rejected\n",
        soc.core_count(),
        soc.layers,
        comm.flow_count(),
        outcome.points.len(),
        outcome.rejected.len()
    );
    let pstats = outcome.partition_stats;
    if pstats.cache_hits() > 0 || pstats.cold_partitions > 0 {
        // The last count is the SPGs built for θ steps; `perfbench/run.py`
        // parses this line, so its wording stays as it is.
        report.push_str(&format!(
            "partition cache: {} hits ({} base lookups, {} warm-started), {} cold, {} in-place SPG derivations\n",
            pstats.cache_hits(),
            pstats.base_cache_hits,
            pstats.warm_partitions,
            pstats.cold_partitions,
            pstats.spg_derivations
        ));
    }
    let anneal = outcome.anneal_stats;
    if anneal.runs > 0 {
        report.push_str(&format!(
            "tempered layout: {} anneals, {} replica swaps attempted ({:.0}% accepted), {} reused\n",
            anneal.runs,
            anneal.swap_attempts,
            anneal.swap_acceptance() * 100.0,
            anneal.reused
        ));
    }
    if outcome.repeated_attempts > 0 {
        report.push_str(&format!(
            "theta steps: {} repeated the previous partition and reused its rejection\n",
            outcome.repeated_attempts
        ));
    }
    if outcome.shared_theta_steps > 0 {
        report.push_str(&format!(
            "theta steps: {} shared with the same switch count at another frequency\n",
            outcome.shared_theta_steps
        ));
    }
    report.push_str("switches  total_mW  latency_cyc  max_ill\n");
    let mut points: Vec<_> = outcome.points.iter().collect();
    points.sort_by_key(|p| p.requested_switches);
    for p in &points {
        report.push_str(&format!(
            "{:>8}  {:>8.1}  {:>11.2}  {:>7}\n",
            p.requested_switches,
            p.metrics.power.total_mw(),
            p.metrics.avg_latency_cycles,
            p.metrics.max_inter_layer_links()
        ));
    }

    if let Some(best) = outcome.best_power() {
        let names: Vec<String> = soc.cores.iter().map(|c| c.name.clone()).collect();
        report.push_str("\nbest-power topology:\n");
        report.push_str(&best.topology.describe(&names));
        if let Some(dir) = &opts.out {
            fs::create_dir_all(dir).map_err(|e| boxed(Box::new(e)))?;
            fs::write(dir.join("topology.dot"), topology_to_dot(&best.topology, &soc))
                .map_err(|e| boxed(Box::new(e)))?;
            if let Some(layout) = &best.layout {
                fs::write(dir.join("floorplan.svg"), layout_to_svg(layout))
                    .map_err(|e| boxed(Box::new(e)))?;
            }
            fs::write(dir.join("report.txt"), &report).map_err(|e| boxed(Box::new(e)))?;
            report.push_str(&format!("\nartifacts written to {}\n", dir.display()));
        }
    } else {
        report.push_str("\nno feasible topology under the given constraints\n");
        // Group the candidates by their terminal typed reason so the
        // dominant constraint is obvious at a glance.
        let mut by_kind: BTreeMap<&'static str, (usize, &Candidate, &RejectReason)> =
            BTreeMap::new();
        for (candidate, reason) in &terminal_rejects {
            by_kind
                .entry(reason.kind())
                .and_modify(|(count, _, _)| *count += 1)
                .or_insert((1, candidate, reason));
        }
        report.push_str("rejections by reason:\n");
        for (kind, (count, example, reason)) in &by_kind {
            report.push_str(&format!("  {kind:<22} {count:>4}  e.g. {example}: {reason}\n"));
        }
    }
    Ok(report)
}

/// Parsed `sunfloor3d fuzz` subcommand line.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Number of adversarial cases to run.
    pub cases: u64,
    /// Master fuzz seed.
    pub seed: u64,
    /// Where the minimized repro file is written on failure.
    pub repro_file: PathBuf,
}

impl FuzzOptions {
    /// Parses the arguments *after* the `fuzz` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut cases = 1000u64;
        let mut seed = 0u64;
        let mut repro_file = PathBuf::from("fuzz-repro.txt");
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> Result<&String, CliError> {
                it.next().ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--cases" => {
                    cases = value("--cases")?.parse().map_err(|_| {
                        CliError::Usage("--cases expects an unsigned integer".into())
                    })?;
                }
                "--seed" => {
                    seed = value("--seed")?.parse().map_err(|_| {
                        CliError::Usage("--seed expects an unsigned 64-bit integer".into())
                    })?;
                }
                "--repro-file" => repro_file = PathBuf::from(value("--repro-file")?),
                other => {
                    return Err(CliError::Usage(format!("unknown fuzz argument `{other}`")));
                }
            }
        }
        Ok(Self { cases, seed, repro_file })
    }
}

/// Runs the adversarial fuzz campaign: every case must map to a typed
/// error or a feasible outcome, bit-identically across schedules. Returns
/// the rendered report; a broken contract is a [`CliError::Run`] (exit 1)
/// after the minimized repro file is written.
///
/// # Errors
///
/// Returns [`CliError::Run`] when any case violates the robustness
/// contract.
pub fn run_fuzz(opts: &FuzzOptions) -> Result<String, CliError> {
    let cfg = sunfloor_fuzz::FuzzConfig {
        cases: opts.cases,
        seed: opts.seed,
        repro_path: opts.repro_file.clone(),
        max_failures: 1,
    };
    let report = sunfloor_fuzz::run_fuzz(&cfg);
    if report.passed() {
        Ok(report.to_string())
    } else {
        Err(CliError::Run(report.to_string().into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn fuzz_options_defaults_and_full_flag_set() {
        let o = FuzzOptions::parse(&args(&[])).unwrap();
        assert_eq!(o.cases, 1000);
        assert_eq!(o.seed, 0);
        assert_eq!(o.repro_file, PathBuf::from("fuzz-repro.txt"));
        let o = FuzzOptions::parse(&args(&[
            "--cases", "64", "--seed", "9", "--repro-file", "min.txt",
        ]))
        .unwrap();
        assert_eq!(o.cases, 64);
        assert_eq!(o.seed, 9);
        assert_eq!(o.repro_file, PathBuf::from("min.txt"));
    }

    #[test]
    fn fuzz_options_reject_unknown_flags_and_bad_values() {
        let err = FuzzOptions::parse(&args(&["--bogus"])).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
        assert_eq!(err.exit_code(), 2);
        let err = FuzzOptions::parse(&args(&["--cases", "lots"])).unwrap_err();
        assert!(err.to_string().contains("--cases"));
    }

    #[test]
    fn a_tiny_fuzz_run_passes_end_to_end() {
        let opts = FuzzOptions {
            cases: 40,
            seed: 9,
            repro_file: std::env::temp_dir().join("sunfloor-cli-fuzz-test-repro.txt"),
        };
        let report = run_fuzz(&opts).expect("40-case campaign must pass");
        assert!(report.contains("contract: OK"));
    }

    #[test]
    fn parses_full_flag_set() {
        let o = Options::parse(&args(&[
            "--cores", "a.cores", "--comm", "a.comm", "--max-ill", "12", "--frequency",
            "400,500", "--alpha", "0.7", "--mode", "phase2", "--switches", "2..8",
            "--step", "2", "--jobs", "4", "--anneal-replicas", "3", "--seed", "99",
            "--no-layout", "--out", "outdir",
        ]))
        .unwrap();
        assert_eq!(o.max_ill, 12);
        assert_eq!(o.frequencies, vec![400.0, 500.0]);
        assert_eq!(o.alpha, 0.7);
        assert_eq!(o.mode, SynthesisMode::Phase2Only);
        assert_eq!(o.switches, Some((2, 8)));
        assert_eq!(o.step, 2);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.anneal_replicas, 3);
        assert_eq!(o.seed, Some(99));
        assert!(!o.layout);
        assert_eq!(o.out, Some(PathBuf::from("outdir")));
    }

    #[test]
    fn missing_required_flags_error() {
        let err = Options::parse(&args(&["--comm", "a.comm"])).unwrap_err();
        assert!(err.to_string().contains("--cores"));
    }

    #[test]
    fn unknown_flag_errors() {
        let err =
            Options::parse(&args(&["--cores", "a", "--comm", "b", "--bogus"])).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn defaults_apply_when_only_required_flags_given() {
        let o = Options::parse(&args(&["--cores", "a.cores", "--comm", "a.comm"])).unwrap();
        assert_eq!(o.max_ill, 25);
        assert_eq!(o.frequencies, vec![400.0]);
        assert_eq!(o.alpha, 1.0);
        assert_eq!(o.mode, SynthesisMode::Auto);
        assert_eq!(o.switches, None);
        assert_eq!(o.step, 1);
        assert_eq!(o.jobs, 1);
        assert_eq!(o.anneal_replicas, 0);
        assert_eq!(o.seed, None);
        assert!(o.layout);
        assert_eq!(o.out, None);
    }

    #[test]
    fn malformed_max_ill_errors() {
        let err = Options::parse(&args(&["--cores", "a", "--comm", "b", "--max-ill", "lots"]))
            .unwrap_err();
        assert!(err.to_string().contains("--max-ill"), "{err}");
        let err = Options::parse(&args(&["--cores", "a", "--comm", "b", "--max-ill", "-3"]))
            .unwrap_err();
        assert!(err.to_string().contains("--max-ill"), "{err}");
    }

    #[test]
    fn malformed_frequency_list_errors() {
        let err = Options::parse(&args(&[
            "--cores", "a", "--comm", "b", "--frequency", "400,fast,600",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("fast"), "{err}");
        let err =
            Options::parse(&args(&["--cores", "a", "--comm", "b", "--frequency", "400,,600"]))
                .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn frequency_list_tolerates_spaces() {
        let o = Options::parse(&args(&[
            "--cores", "a", "--comm", "b", "--frequency", "400, 500 ,600",
        ]))
        .unwrap();
        assert_eq!(o.frequencies, vec![400.0, 500.0, 600.0]);
    }

    #[test]
    fn malformed_switches_range_errors() {
        for bad in ["4", "4-8", "lo..hi", "2..", "..8"] {
            let err =
                Options::parse(&args(&["--cores", "a", "--comm", "b", "--switches", bad]))
                    .unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "`{bad}` should be rejected, got: {err}"
            );
        }
    }

    #[test]
    fn malformed_jobs_errors() {
        for bad in ["many", "-2", "1.5", "0"] {
            let err = Options::parse(&args(&["--cores", "a", "--comm", "b", "--jobs", bad]))
                .unwrap_err();
            assert!(err.to_string().contains("--jobs"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn malformed_anneal_replicas_errors() {
        for bad in ["lots", "-1", "2.5"] {
            let err = Options::parse(&args(&[
                "--cores", "a", "--comm", "b", "--anneal-replicas", bad,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains("--anneal-replicas"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn malformed_seed_errors() {
        for bad in ["random", "-1", "0x10", "1.0"] {
            let err = Options::parse(&args(&["--cores", "a", "--comm", "b", "--seed", bad]))
                .unwrap_err();
            assert!(err.to_string().contains("--seed"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn malformed_step_errors() {
        for bad in ["wide", "-3", "2.5", "0"] {
            let err = Options::parse(&args(&["--cores", "a", "--comm", "b", "--step", bad]))
                .unwrap_err();
            assert!(err.to_string().contains("--step"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn flags_missing_their_value_error() {
        for flag in [
            "--cores", "--comm", "--max-ill", "--frequency", "--mode", "--switches", "--step",
            "--jobs", "--anneal-replicas", "--seed",
        ] {
            let err = Options::parse(&args(&["--cores", "a", "--comm", "b", flag])).unwrap_err();
            assert!(err.to_string().contains("needs a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn bad_mode_errors() {
        let err = Options::parse(&args(&["--cores", "a", "--comm", "b", "--mode", "x"]))
            .unwrap_err();
        assert!(err.to_string().contains("unknown mode"));
    }

    #[test]
    fn end_to_end_run_from_files() {
        let dir = std::env::temp_dir().join("sunfloor_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cores = dir.join("t.cores");
        let comm = dir.join("t.comm");
        std::fs::write(
            &cores,
            "layers 2\ncore cpu 2 2 0 0 0\ncore mem 2 2 0 0 1\ncore io 1 1 3 0 0\n",
        )
        .unwrap();
        std::fs::write(&comm, "flow cpu mem 300 8 request\nflow mem cpu 300 8 response\nflow cpu io 40 10 request\n")
            .unwrap();
        let out = dir.join("artifacts");
        let opts = Options::parse(&args(&[
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("best-power topology"), "{report}");
        assert!(out.join("topology.dot").exists());
        assert!(out.join("report.txt").exists());
    }

    fn write_specs(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sunfloor_cli_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let cores = dir.join("t.cores");
        let comm = dir.join("t.comm");
        std::fs::write(
            &cores,
            "layers 2\ncore cpu 2 2 0 0 0\ncore mem 2 2 0 0 1\ncore io 1 1 3 0 0\n",
        )
        .unwrap();
        std::fs::write(
            &comm,
            "flow cpu mem 300 8 request\nflow mem cpu 300 8 response\nflow cpu io 40 10 request\n",
        )
        .unwrap();
        (cores, comm)
    }

    #[test]
    fn parallel_run_report_matches_serial() {
        let (cores, comm) = write_specs("jobs");
        let base = [
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--seed",
            "7",
            "--no-layout",
        ];
        let serial = run(&Options::parse(&args(&base)).unwrap()).unwrap();
        let mut with_jobs: Vec<&str> = base.to_vec();
        with_jobs.extend(["--jobs", "3"]);
        let parallel = run(&Options::parse(&args(&with_jobs)).unwrap()).unwrap();
        assert_eq!(serial, parallel, "--jobs must not change the report");
    }

    #[test]
    fn tempered_layout_report_is_jobs_invariant_and_prints_stats() {
        let (cores, comm) = write_specs("temper");
        let base = [
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--seed",
            "7",
            "--anneal-replicas",
            "2",
        ];
        let serial = run(&Options::parse(&args(&base)).unwrap()).unwrap();
        let line = serial.lines().find(|l| l.starts_with("tempered layout: ")).unwrap_or_default();
        assert!(line.ends_with(" reused"), "{serial}");
        let mut with_jobs: Vec<&str> = base.to_vec();
        with_jobs.extend(["--jobs", "3"]);
        let parallel = run(&Options::parse(&args(&with_jobs)).unwrap()).unwrap();
        assert_eq!(serial, parallel, "--jobs must not change the tempered report");
    }

    #[test]
    fn too_many_anneal_replicas_is_a_usage_error() {
        // Rejected while building the configuration, before any engine or
        // anneal (which would spawn a thread per replica) exists.
        let (cores, comm) = write_specs("replicas");
        let opts = Options::parse(&args(&[
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--anneal-replicas",
            "100000",
        ]))
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let limit = "100000 annealer replicas exceed the limit of 64";
        assert!(err.to_string().contains(limit), "{err}");
    }

    #[test]
    fn infeasible_run_groups_rejections_by_reason() {
        let (cores, comm) = write_specs("reject");
        // max_ill 0 forbids every vertical link; the 2-layer design cannot
        // route at all.
        let opts = Options::parse(&args(&[
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--max-ill",
            "0",
            "--no-layout",
        ]))
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("no feasible topology"), "{report}");
        assert!(report.contains("rejections by reason:"), "{report}");
        // Every θ step re-partitions to the same split, which then fails
        // the same way: the report says how many steps reused a rejection.
        assert!(
            report.contains("theta steps: 15 repeated the previous partition"),
            "{report}"
        );
    }

    #[test]
    fn multi_frequency_run_reports_shared_theta_steps() {
        let (cores, comm) = write_specs("shared");
        let run_at = |freqs: &str| {
            let opts = Options::parse(&args(&[
                "--cores",
                cores.to_str().unwrap(),
                "--comm",
                comm.to_str().unwrap(),
                "--max-ill",
                "0",
                "--no-layout",
                "--frequency",
                freqs,
            ]))
            .unwrap();
            run(&opts).unwrap()
        };
        // Each frequency tries every switch count through all five θ
        // steps; the second frequency takes all 15 from the first.
        let report = run_at("400,500");
        let line = "theta steps: 15 shared with the same switch count at another frequency";
        assert!(report.contains(line), "{report}");
        assert!(!run_at("400").contains("shared with"), "one frequency shares nothing");
    }

    #[test]
    fn invalid_builder_config_surfaces_as_usage_error() {
        let (cores, comm) = write_specs("alpha");
        let opts = Options::parse(&args(&[
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--alpha",
            "3.0",
        ]))
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("alpha"), "{err}");
    }

    /// `--switches 5..9` on a 3-core spec leaves nothing to sweep: a run
    /// error (exit 1), not a report of zero feasible points.
    #[test]
    fn switch_range_without_candidates_is_a_run_error() {
        let (cores, comm) = write_specs("empty_sweep");
        let opts = Options::parse(&args(&[
            "--cores",
            cores.to_str().unwrap(),
            "--comm",
            comm.to_str().unwrap(),
            "--switches",
            "5..9",
        ]))
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("no candidate"), "{err}");
    }

    #[test]
    fn usage_errors_exit_2_run_errors_exit_1() {
        let usage = Options::parse(&args(&["--bogus"])).unwrap_err();
        assert_eq!(usage.exit_code(), 2);

        // A well-formed invocation against a missing spec file is a
        // runtime failure, not a usage mistake.
        let opts = Options::parse(&args(&[
            "--cores",
            "/nonexistent/cores.txt",
            "--comm",
            "/nonexistent/comm.txt",
        ]))
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
    }
}
