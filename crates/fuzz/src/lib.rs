//! `sunfloor-fuzz` — seeded adversarial-spec fuzzing for the SunFloor 3D
//! pipeline.
//!
//! The crate packages three pieces:
//!
//! * [`generator`] — a deterministic generator of valid specs over the
//!   degenerate traffic shapes of the scheduling/mapping literature
//!   (hotspot, transpose, bit-complement, disconnected), with
//!   [`mutate`]'s corruption passes layered on top;
//! * [`harness`] — the differential contract checker: no panics anywhere,
//!   bit-identical outcomes across serial/parallel/tempered schedules,
//!   typed classification of every non-feasible outcome, prompt,
//!   well-formed partial outcomes under injected faults, and a certifier
//!   check of every accepted point;
//! * [`mod@shrink`] — a greedy minimizer plus the repro-file writer.
//!
//! [`run_fuzz`] drives the whole thing; the `sunfloor3d fuzz` CLI
//! subcommand and the CI `fuzz-smoke` job are thin wrappers around it.

pub mod generator;
pub mod harness;
pub mod mutate;
pub mod shrink;

pub use generator::{generate_case, ConfigRecipe, FuzzCase, TrafficPattern};
pub use harness::{certify, run_case, CaseClass, Failure, FailureKind};
pub use shrink::{shrink, write_repro};

use std::fmt;
use std::path::PathBuf;

/// Parameters of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of cases to generate and run.
    pub cases: u64,
    /// Master seed; every case is a pure function of `(seed, index)`.
    pub seed: u64,
    /// Where to write the minimized repro file on failure.
    pub repro_path: PathBuf,
    /// Stop after this many failures (each is shrunk and the first is
    /// written to `repro_path`).
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            cases: 500,
            seed: 0,
            repro_path: PathBuf::from("fuzz-repro.txt"),
            max_failures: 1,
        }
    }
}

/// Tallies of one fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases actually run.
    pub cases_run: u64,
    /// Typed `SpecError` rejections.
    pub spec_rejected: u64,
    /// Typed `ConfigError` rejections.
    pub config_rejected: u64,
    /// Typed `SynthesisError` rejections at engine construction.
    pub engine_rejected: u64,
    /// Sweeps that ran and rejected every candidate with a typed reason.
    pub no_feasible_point: u64,
    /// Sweeps that produced feasible points.
    pub feasible: u64,
    /// Broken-contract cases, already shrunk.
    pub failures: Vec<Failure>,
    /// Repro file location, when a failure was written.
    pub repro_written: Option<PathBuf>,
}

impl FuzzReport {
    /// `true` when every case satisfied the robustness contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn tally(&mut self, class: CaseClass) {
        match class {
            CaseClass::SpecRejected => self.spec_rejected += 1,
            CaseClass::ConfigRejected => self.config_rejected += 1,
            CaseClass::EngineRejected => self.engine_rejected += 1,
            CaseClass::NoFeasiblePoint => self.no_feasible_point += 1,
            CaseClass::Feasible => self.feasible += 1,
        }
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fuzz: {} cases", self.cases_run)?;
        writeln!(f, "  spec rejected    {:>8}", self.spec_rejected)?;
        writeln!(f, "  config rejected  {:>8}", self.config_rejected)?;
        writeln!(f, "  engine rejected  {:>8}", self.engine_rejected)?;
        writeln!(f, "  no feasible pt   {:>8}", self.no_feasible_point)?;
        writeln!(f, "  feasible         {:>8}", self.feasible)?;
        if self.passed() {
            writeln!(
                f,
                "  contract: OK (no panics, no divergences, all outcomes typed, points certified)"
            )?;
        } else {
            for fail in &self.failures {
                writeln!(
                    f,
                    "  FAILURE case {} [{}]: {}",
                    fail.index,
                    fail.kind.label(),
                    fail.detail
                )?;
            }
            if let Some(path) = &self.repro_written {
                writeln!(f, "  minimized repro written to {}", path.display())?;
            }
        }
        Ok(())
    }
}

/// Runs the full fuzz campaign described by `cfg`.
///
/// Panics inside the pipeline are caught (that is the point), shrunk and
/// reported; the default panic hook is silenced for the duration so a
/// 10k-case run does not spray backtraces.
#[must_use]
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for index in 0..cfg.cases {
        let case = generate_case(cfg.seed, index);
        match run_case(&case) {
            Ok(class) => report.tally(class),
            Err(failure) => {
                let shrunk = shrink(&failure);
                if report.failures.is_empty()
                    && shrink::write_repro(&cfg.repro_path, cfg.seed, &shrunk).is_ok()
                {
                    report.repro_written = Some(cfg.repro_path.clone());
                }
                report.failures.push(shrunk);
                if report.failures.len() >= cfg.max_failures {
                    report.cases_run = index + 1;
                    std::panic::set_hook(prev_hook);
                    return report;
                }
            }
        }
    }
    report.cases_run = cfg.cases;
    std::panic::set_hook(prev_hook);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_passes_and_covers_every_class() {
        let cfg = FuzzConfig {
            cases: 250,
            seed: 9,
            repro_path: std::env::temp_dir().join("sunfloor-fuzz-lib-test-repro.txt"),
            max_failures: 1,
        };
        let report = run_fuzz(&cfg);
        assert!(report.passed(), "contract failures: {report}");
        assert_eq!(report.cases_run, 250);
        assert!(report.spec_rejected > 0, "no hostile spec was generated:\n{report}");
        assert!(report.config_rejected > 0, "no degenerate config was generated:\n{report}");
        assert!(report.feasible > 0, "no case survived to a feasible point:\n{report}");
    }

    #[test]
    fn report_display_mentions_the_contract() {
        let report = FuzzReport { cases_run: 1, feasible: 1, ..FuzzReport::default() };
        let text = report.to_string();
        assert!(text.contains("contract: OK"));
    }
}
