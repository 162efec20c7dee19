//! Synthesis configuration: the knob set of the Fig. 3 driver, with a
//! builder that validates eagerly so a bad sweep is rejected before any
//! exploration starts.

use std::error::Error;
use std::fmt;
use sunfloor_models::NocLibrary;

/// Which connectivity phases the driver may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthesisMode {
    /// Phase 1 first; fall back to Phase 2 when Phase 1 yields no feasible
    /// point (the two-phase method of §IV).
    #[default]
    Auto,
    /// Phase 1 only (cores may attach to switches in any layer).
    Phase1Only,
    /// Phase 2 only (layer-by-layer; also for technologies restricted to
    /// adjacent-layer TSVs).
    Phase2Only,
}

/// How candidate evaluation is spread over threads.
///
/// Candidates of the design-space sweep are independent (the θ-escalation
/// loop stays inside each candidate), so the engine can fan them out over
/// scoped threads. One driver serves every setting: the calling thread
/// evaluates candidates and commits them, and any further threads only
/// evaluate. Results are committed in candidate order regardless of
/// completion order, so serial and parallel runs produce identical
/// [`super::SynthesisOutcome`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Evaluate candidates one at a time on the calling thread.
    #[default]
    Serial,
    /// Evaluate up to `n` candidates concurrently: on the calling thread
    /// and `n - 1` scoped worker threads (`0` and `1` behave like
    /// [`Parallelism::Serial`], which spawns none).
    Jobs(usize),
}

impl Parallelism {
    /// The number of threads this setting evaluates on, the calling thread
    /// included (at least 1).
    #[must_use]
    pub fn effective_jobs(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Jobs(n) => n.max(1),
        }
    }
}

/// Synthesis configuration.
///
/// Build one with [`SynthesisConfig::builder`], which validates every field
/// eagerly and returns a typed [`ConfigError`] for inconsistent values. The
/// fields stay public for inspection and for struct-update construction in
/// legacy code; [`super::SynthesisEngine::new`] re-validates, so an invalid
/// hand-rolled config is still caught before exploration starts.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Candidate operating frequencies, MHz (the sweep of Fig. 3's outer
    /// loop).
    pub frequencies_mhz: Vec<f64>,
    /// Maximum directed vertical links per adjacent-layer boundary.
    pub max_ill: u32,
    /// Definition-3 α weighting bandwidth vs latency tightness.
    pub alpha: f64,
    /// θ escalation schedule for the SPG (the paper found 1..15 step 3
    /// works well).
    pub theta_min: f64,
    /// Largest θ tried.
    pub theta_max: f64,
    /// θ increment.
    pub theta_step: f64,
    /// Phase selection.
    pub mode: SynthesisMode,
    /// Component library (power/area/timing models).
    pub library: NocLibrary,
    /// RNG seed for the partitioner — identical seeds reproduce runs.
    pub rng_seed: u64,
    /// Insert components into the floorplan and re-evaluate with final
    /// positions (disable for fast topology-only exploration).
    pub run_layout: bool,
    /// Free-space search radius of the insertion routine, mm.
    pub layout_search_radius_mm: f64,
    /// Optional restriction of the switch-count sweep (inclusive); `None`
    /// sweeps 1..=cores for Phase 1 and the full increment range for
    /// Phase 2.
    pub switch_count_range: Option<(usize, usize)>,
    /// Stride of the switch-count sweep (1 = every count; larger values
    /// thin the exploration for big designs).
    pub switch_count_step: usize,
    /// Soft margin below `max_ill` (Algorithm 3).
    pub soft_ill_margin: u32,
    /// Soft margin below the switch-size limit (Algorithm 3).
    pub soft_switch_margin: u32,
    /// Extra indirect-switch rounds attempted when routing fails (§VI).
    pub indirect_switch_rounds: u32,
    /// Worker threads for candidate evaluation (serial and parallel runs
    /// produce identical outcomes).
    pub parallelism: Parallelism,
    /// Replicas of the parallel-tempering layout annealer. `0` (the
    /// default) keeps the custom shove-insertion routine of §VII; `1` and
    /// up replace it with the deterministic tempered constrained annealer
    /// at that many exchange-coupled chains. Replica worker threads are
    /// budgeted against [`SynthesisConfig::parallelism`]: a parallel sweep
    /// runs each candidate's anneal single-threaded so the two fan-outs
    /// never oversubscribe. At most [`MAX_ANNEAL_REPLICAS`].
    pub anneal_replicas: usize,
}

/// The most tempered-annealer replicas a configuration may ask for. A
/// serial sweep runs each layer anneal on one OS thread per replica, so
/// an unbounded count is an unbounded thread fan-out; 64 is far beyond
/// where more replicas still improve a layer (the benchmarks use 2–4).
pub const MAX_ANNEAL_REPLICAS: usize = 64;

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            frequencies_mhz: vec![400.0],
            max_ill: 25,
            alpha: 1.0,
            theta_min: 1.0,
            theta_max: 15.0,
            theta_step: 3.0,
            mode: SynthesisMode::Auto,
            library: NocLibrary::lp65(),
            rng_seed: 0x51B0_A7E5,
            run_layout: true,
            layout_search_radius_mm: 3.0,
            switch_count_range: None,
            switch_count_step: 1,
            soft_ill_margin: 2,
            soft_switch_margin: 1,
            indirect_switch_rounds: 2,
            parallelism: Parallelism::Serial,
            anneal_replicas: 0,
        }
    }
}

impl SynthesisConfig {
    /// Starts a validated configuration from the defaults.
    #[must_use]
    pub fn builder() -> SynthesisConfigBuilder {
        SynthesisConfigBuilder { cfg: Self::default() }
    }

    /// Checks every field for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: empty or non-positive
    /// frequency sweep, `alpha` outside `[0, 1]`, an inverted or
    /// non-positive θ schedule, an inverted switch-count range, a zero
    /// sweep stride, a non-positive layout search radius, or more than
    /// [`MAX_ANNEAL_REPLICAS`] annealer replicas.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.frequencies_mhz.is_empty() {
            return Err(ConfigError::NoFrequencies);
        }
        for &f in &self.frequencies_mhz {
            if !f.is_finite() || f <= 0.0 {
                return Err(ConfigError::NonPositiveFrequency(f));
            }
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ConfigError::AlphaOutOfRange(self.alpha));
        }
        if !self.theta_min.is_finite()
            || !self.theta_max.is_finite()
            || self.theta_min > self.theta_max
        {
            return Err(ConfigError::InvalidThetaRange {
                min: self.theta_min,
                max: self.theta_max,
            });
        }
        if self.theta_min <= 0.0 {
            return Err(ConfigError::NonPositiveTheta(self.theta_min));
        }
        if !self.theta_step.is_finite() || self.theta_step <= 0.0 {
            return Err(ConfigError::NonPositiveThetaStep(self.theta_step));
        }
        if let Some((lo, hi)) = self.switch_count_range {
            if lo > hi {
                return Err(ConfigError::InvertedSwitchRange { lo, hi });
            }
        }
        if self.switch_count_step == 0 {
            return Err(ConfigError::ZeroSwitchStep);
        }
        if !self.layout_search_radius_mm.is_finite() || self.layout_search_radius_mm <= 0.0 {
            return Err(ConfigError::NonPositiveSearchRadius(self.layout_search_radius_mm));
        }
        if self.anneal_replicas > MAX_ANNEAL_REPLICAS {
            return Err(ConfigError::TooManyReplicas {
                replicas: self.anneal_replicas,
                max: MAX_ANNEAL_REPLICAS,
            });
        }
        Ok(())
    }
}

/// A configuration field rejected by [`SynthesisConfig::validate`] /
/// [`SynthesisConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The frequency sweep is empty.
    NoFrequencies,
    /// A frequency in the sweep is zero, negative, NaN or infinite.
    NonPositiveFrequency(f64),
    /// `alpha` falls outside `[0, 1]`.
    AlphaOutOfRange(f64),
    /// `theta_min > theta_max` (or either is NaN or infinite).
    InvalidThetaRange {
        /// Configured `theta_min`.
        min: f64,
        /// Configured `theta_max`.
        max: f64,
    },
    /// `theta_min` is zero or negative: the SPG divides inter-layer weights
    /// by θ, so the schedule must start above zero.
    NonPositiveTheta(f64),
    /// `theta_step` is zero, negative or non-finite.
    NonPositiveThetaStep(f64),
    /// `switch_count_range` has `lo > hi`.
    InvertedSwitchRange {
        /// Configured lower bound.
        lo: usize,
        /// Configured upper bound.
        hi: usize,
    },
    /// `switch_count_step` is zero.
    ZeroSwitchStep,
    /// `layout_search_radius_mm` is zero, negative or non-finite.
    NonPositiveSearchRadius(f64),
    /// `anneal_replicas` exceeds [`MAX_ANNEAL_REPLICAS`].
    TooManyReplicas {
        /// Configured replica count.
        replicas: usize,
        /// The limit, [`MAX_ANNEAL_REPLICAS`].
        max: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoFrequencies => write!(f, "the frequency sweep is empty"),
            Self::NonPositiveFrequency(v) => {
                write!(f, "frequency {v} MHz is not positive and finite")
            }
            Self::AlphaOutOfRange(a) => write!(f, "alpha {a} is outside [0, 1]"),
            Self::InvalidThetaRange { min, max } => {
                write!(f, "theta schedule is inverted: theta_min {min} > theta_max {max}")
            }
            Self::NonPositiveTheta(t) => write!(f, "theta_min {t} is not positive"),
            Self::NonPositiveThetaStep(s) => write!(f, "theta_step {s} is not positive"),
            Self::InvertedSwitchRange { lo, hi } => {
                write!(f, "switch-count range is inverted: {lo} > {hi}")
            }
            Self::ZeroSwitchStep => write!(f, "switch_count_step must be at least 1"),
            Self::NonPositiveSearchRadius(r) => {
                write!(f, "layout search radius {r} mm is not positive")
            }
            Self::TooManyReplicas { replicas, max } => {
                write!(f, "{replicas} annealer replicas exceed the limit of {max}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Builder returned by [`SynthesisConfig::builder`]; every setter is
/// chainable and [`SynthesisConfigBuilder::build`] validates the result.
#[derive(Debug, Clone)]
pub struct SynthesisConfigBuilder {
    cfg: SynthesisConfig,
}

impl SynthesisConfigBuilder {
    /// Replaces the frequency sweep (MHz).
    #[must_use]
    pub fn frequencies_mhz(mut self, freqs: impl IntoIterator<Item = f64>) -> Self {
        self.cfg.frequencies_mhz = freqs.into_iter().collect();
        self
    }

    /// Sweeps a single frequency (MHz).
    #[must_use]
    pub fn frequency_mhz(self, freq: f64) -> Self {
        self.frequencies_mhz([freq])
    }

    /// Sets the vertical-link budget per adjacent-layer boundary.
    #[must_use]
    pub fn max_ill(mut self, max_ill: u32) -> Self {
        self.cfg.max_ill = max_ill;
        self
    }

    /// Sets the Definition-3 α weight (validated to `[0, 1]`).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.cfg.alpha = alpha;
        self
    }

    /// Sets the θ escalation schedule `min..=max` by `step` (validated:
    /// `0 < min ≤ max`, both finite, and a positive finite `step`).
    #[must_use]
    pub fn theta_schedule(mut self, min: f64, max: f64, step: f64) -> Self {
        self.cfg.theta_min = min;
        self.cfg.theta_max = max;
        self.cfg.theta_step = step;
        self
    }

    /// Selects which connectivity phases the driver may use.
    #[must_use]
    pub fn mode(mut self, mode: SynthesisMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Swaps in a different component library.
    #[must_use]
    pub fn library(mut self, library: NocLibrary) -> Self {
        self.cfg.library = library;
        self
    }

    /// Seeds the partitioner RNG — identical seeds reproduce runs.
    #[must_use]
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.cfg.rng_seed = seed;
        self
    }

    /// Enables or disables floorplan insertion and post-layout evaluation.
    #[must_use]
    pub fn run_layout(mut self, run: bool) -> Self {
        self.cfg.run_layout = run;
        self
    }

    /// Sets the free-space search radius of the insertion routine, mm.
    #[must_use]
    pub fn layout_search_radius_mm(mut self, radius: f64) -> Self {
        self.cfg.layout_search_radius_mm = radius;
        self
    }

    /// Restricts the switch-count sweep to `lo..=hi` (inclusive).
    #[must_use]
    pub fn switch_count_range(mut self, lo: usize, hi: usize) -> Self {
        self.cfg.switch_count_range = Some((lo, hi));
        self
    }

    /// Sets the stride of the switch-count sweep (validated to be ≥ 1).
    #[must_use]
    pub fn switch_count_step(mut self, step: usize) -> Self {
        self.cfg.switch_count_step = step;
        self
    }

    /// Sets the Algorithm 3 soft margins below `max_ill` and below the
    /// switch-size limit.
    #[must_use]
    pub fn soft_margins(mut self, ill: u32, switch: u32) -> Self {
        self.cfg.soft_ill_margin = ill;
        self.cfg.soft_switch_margin = switch;
        self
    }

    /// Sets how many indirect-switch rounds routing failures may trigger.
    #[must_use]
    pub fn indirect_switch_rounds(mut self, rounds: u32) -> Self {
        self.cfg.indirect_switch_rounds = rounds;
        self
    }

    /// Sets the candidate-evaluation parallelism.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Shorthand for [`Self::parallelism`]: `jobs <= 1` is serial,
    /// anything larger evaluates on the calling thread and `jobs - 1`
    /// scoped worker threads.
    #[must_use]
    pub fn jobs(self, jobs: usize) -> Self {
        self.parallelism(if jobs <= 1 { Parallelism::Serial } else { Parallelism::Jobs(jobs) })
    }

    /// Routes the layout step through the parallel-tempering constrained
    /// annealer with `replicas` chains (`0` keeps the shove-insertion
    /// routine). The result is deterministic for a given configuration
    /// regardless of sweep parallelism or thread scheduling.
    #[must_use]
    pub fn anneal_replicas(mut self, replicas: usize) -> Self {
        self.cfg.anneal_replicas = replicas;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by
    /// [`SynthesisConfig::validate`].
    pub fn build(self) -> Result<SynthesisConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SynthesisConfig::default().validate(), Ok(()));
        assert!(SynthesisConfig::builder().build().is_ok());
    }

    #[test]
    fn builder_rejects_empty_frequency_sweep() {
        let err = SynthesisConfig::builder().frequencies_mhz([]).build().unwrap_err();
        assert_eq!(err, ConfigError::NoFrequencies);
    }

    #[test]
    fn builder_rejects_non_positive_frequencies() {
        for bad in [0.0, -400.0, f64::NAN, f64::INFINITY] {
            let err = SynthesisConfig::builder()
                .frequencies_mhz([400.0, bad])
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::NonPositiveFrequency(_)),
                "{bad} accepted: {err}"
            );
        }
    }

    #[test]
    fn builder_rejects_alpha_outside_unit_interval() {
        for bad in [-0.1, 1.1, f64::NAN] {
            let err = SynthesisConfig::builder().alpha(bad).build().unwrap_err();
            assert!(matches!(err, ConfigError::AlphaOutOfRange(_)), "{bad} accepted");
        }
        assert!(SynthesisConfig::builder().alpha(0.0).build().is_ok());
        assert!(SynthesisConfig::builder().alpha(1.0).build().is_ok());
    }

    #[test]
    fn builder_rejects_inverted_theta_schedule() {
        let err = SynthesisConfig::builder().theta_schedule(10.0, 5.0, 1.0).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidThetaRange { min: 10.0, max: 5.0 });
    }

    #[test]
    fn builder_rejects_non_positive_theta_min() {
        for bad in [0.0, -3.0] {
            let err = SynthesisConfig::builder()
                .theta_schedule(bad, 15.0, 3.0)
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::NonPositiveTheta(bad));
        }
    }

    #[test]
    fn builder_rejects_unbounded_theta_window() {
        // An infinite theta_max would make the escalation loop unbounded.
        let err = SynthesisConfig::builder()
            .theta_schedule(1.0, f64::INFINITY, 3.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidThetaRange { .. }));
    }

    #[test]
    fn builder_rejects_non_positive_theta_step() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let err =
                SynthesisConfig::builder().theta_schedule(1.0, 15.0, bad).build().unwrap_err();
            assert!(matches!(err, ConfigError::NonPositiveThetaStep(_)), "{bad} accepted");
        }
    }

    #[test]
    fn builder_rejects_inverted_switch_range() {
        let err = SynthesisConfig::builder().switch_count_range(8, 4).build().unwrap_err();
        assert_eq!(err, ConfigError::InvertedSwitchRange { lo: 8, hi: 4 });
        assert!(SynthesisConfig::builder().switch_count_range(4, 4).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_sweep_stride() {
        let err = SynthesisConfig::builder().switch_count_step(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroSwitchStep);
    }

    #[test]
    fn builder_rejects_non_positive_search_radius() {
        let err =
            SynthesisConfig::builder().layout_search_radius_mm(-1.0).build().unwrap_err();
        assert!(matches!(err, ConfigError::NonPositiveSearchRadius(_)));
    }

    #[test]
    fn builder_rejects_more_replicas_than_the_limit() {
        for replicas in [MAX_ANNEAL_REPLICAS + 1, 100_000, usize::MAX] {
            let err = SynthesisConfig::builder().anneal_replicas(replicas).build().unwrap_err();
            assert_eq!(err, ConfigError::TooManyReplicas { replicas, max: MAX_ANNEAL_REPLICAS });
        }
        let at_limit = SynthesisConfig::builder().anneal_replicas(MAX_ANNEAL_REPLICAS).build();
        assert_eq!(at_limit.unwrap().anneal_replicas, MAX_ANNEAL_REPLICAS);
    }

    #[test]
    fn builder_round_trips_every_field() {
        let cfg = SynthesisConfig::builder()
            .frequencies_mhz([300.0, 500.0])
            .max_ill(12)
            .alpha(0.5)
            .theta_schedule(2.0, 10.0, 2.0)
            .mode(SynthesisMode::Phase2Only)
            .rng_seed(42)
            .run_layout(false)
            .layout_search_radius_mm(5.0)
            .switch_count_range(2, 9)
            .switch_count_step(3)
            .soft_margins(1, 2)
            .indirect_switch_rounds(4)
            .jobs(8)
            .anneal_replicas(3)
            .build()
            .unwrap();
        assert_eq!(cfg.frequencies_mhz, vec![300.0, 500.0]);
        assert_eq!(cfg.max_ill, 12);
        assert_eq!(cfg.alpha, 0.5);
        assert_eq!((cfg.theta_min, cfg.theta_max, cfg.theta_step), (2.0, 10.0, 2.0));
        assert_eq!(cfg.mode, SynthesisMode::Phase2Only);
        assert_eq!(cfg.rng_seed, 42);
        assert!(!cfg.run_layout);
        assert_eq!(cfg.layout_search_radius_mm, 5.0);
        assert_eq!(cfg.switch_count_range, Some((2, 9)));
        assert_eq!(cfg.switch_count_step, 3);
        assert_eq!((cfg.soft_ill_margin, cfg.soft_switch_margin), (1, 2));
        assert_eq!(cfg.indirect_switch_rounds, 4);
        assert_eq!(cfg.parallelism, Parallelism::Jobs(8));
        assert_eq!(cfg.anneal_replicas, 3);
    }

    #[test]
    fn jobs_of_one_or_zero_collapse_to_serial() {
        assert_eq!(SynthesisConfig::builder().jobs(0).build().unwrap().parallelism, Parallelism::Serial);
        assert_eq!(SynthesisConfig::builder().jobs(1).build().unwrap().parallelism, Parallelism::Serial);
        assert_eq!(Parallelism::Jobs(0).effective_jobs(), 1);
        assert_eq!(Parallelism::Serial.effective_jobs(), 1);
        assert_eq!(Parallelism::Jobs(6).effective_jobs(), 6);
    }
}
