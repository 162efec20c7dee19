//! Seeded generation of valid adversarial specifications.
//!
//! Every case is a pure function of `(fuzz seed, case index)`: the
//! generator first builds a *valid* spec pair over one of the degenerate
//! traffic shapes catalogued by the NoC scheduling/mapping literature
//! (hotspot, transpose, bit-complement, disconnected), then the mutation
//! pass (see [`crate::mutate`]) may corrupt it into hostile input.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunfloor_core::synthesis::{ConfigError, SynthesisConfig, SynthesisMode};

/// One generated fuzz case: both spec files as text (mutations operate on
/// the text, exactly like a hostile input file would) plus the engine
/// configuration recipe it runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Case index within the fuzz run.
    pub index: u64,
    /// Core-specification text (`SocSpec::parse` input).
    pub soc_text: String,
    /// Communication-specification text (`CommSpec::parse` input).
    pub comm_text: String,
    /// Engine configuration recipe for this case.
    pub recipe: ConfigRecipe,
    /// Names of the mutations applied, in order (empty = valid case).
    pub mutations: Vec<&'static str>,
}

/// The traffic shape of a generated comm spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniformly random endpoint pairs.
    Random,
    /// Every core sends to core 0.
    Hotspot,
    /// Grid transpose: `(r, c)` talks to `(c, r)`.
    Transpose,
    /// Index mirror (the bit-complement analogue for arbitrary sizes).
    BitComplement,
    /// Only the first half of the cores communicate; the rest are isolated.
    Disconnected,
    /// A linear pipeline with request/response pairs.
    Pipeline,
    /// A ring in both classes: requests to the next core and responses to
    /// the previous one, plus far lighter flows half-way round it. Reusing
    /// the ring's links is cheaper than opening new ones, so the light
    /// flows chain turns around the ring and only the router's deadlock
    /// check keeps each class's channel-dependency graph acyclic. Latency
    /// bounds are four times looser than the other shapes', so that the
    /// multi-hop routes are accepted rather than rejected for latency.
    Ring,
}

const PATTERNS: [TrafficPattern; 7] = [
    TrafficPattern::Random,
    TrafficPattern::Hotspot,
    TrafficPattern::Transpose,
    TrafficPattern::BitComplement,
    TrafficPattern::Disconnected,
    TrafficPattern::Pipeline,
    TrafficPattern::Ring,
];

/// The engine configuration a case runs under. Most recipes are valid
/// (they exercise the pipeline); the degenerate ones must be rejected with
/// a typed [`ConfigError`] before any exploration starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigRecipe {
    /// Small valid sweep, layout off — the fast differential workhorse.
    Standard,
    /// One-candidate window with a tight ILL budget.
    TinyWindow,
    /// Valid sweep routed through the tempered layout annealer.
    Tempered,
    /// Inverted θ window — must be a typed [`ConfigError`].
    DegenerateTheta,
    /// Unbounded θ window (`theta_max = ∞`) — must be rejected, an
    /// accepted infinite window would make θ escalation loop forever.
    UnboundedTheta,
    /// NaN α — must be a typed [`ConfigError`].
    NanAlpha,
    /// Empty frequency sweep — must be a typed [`ConfigError`].
    EmptyFrequencies,
    /// Inverted switch-count range — must be a typed [`ConfigError`].
    ReversedSwitches,
}

impl ConfigRecipe {
    /// Builds the configuration at a given worker count.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ConfigError`] for the degenerate recipes.
    pub fn build(self, jobs: usize) -> Result<SynthesisConfig, ConfigError> {
        let base = SynthesisConfig::builder().jobs(jobs).run_layout(false);
        match self {
            Self::Standard => base.switch_count_range(2, 4).build(),
            Self::TinyWindow => base.switch_count_range(1, 1).max_ill(1).build(),
            Self::Tempered => base
                .switch_count_range(2, 3)
                .mode(SynthesisMode::Phase1Only)
                .run_layout(true)
                .anneal_replicas(2)
                .build(),
            Self::DegenerateTheta => {
                base.switch_count_range(2, 4).theta_schedule(9.0, 1.0, 3.0).build()
            }
            Self::UnboundedTheta => {
                base.switch_count_range(2, 4).theta_schedule(1.0, f64::INFINITY, 3.0).build()
            }
            Self::NanAlpha => base.switch_count_range(2, 4).alpha(f64::NAN).build(),
            Self::EmptyFrequencies => base.switch_count_range(2, 4).frequencies_mhz([]).build(),
            Self::ReversedSwitches => base.switch_count_range(5, 2).build(),
        }
    }

    /// Whether this recipe is expected to build (`Ok`) at all.
    #[must_use]
    pub fn is_valid(self) -> bool {
        matches!(self, Self::Standard | Self::TinyWindow | Self::Tempered)
    }
}

/// Derives the per-case RNG. Mixing the index through splitmix-style
/// constants keeps neighbouring cases decorrelated.
#[must_use]
pub fn case_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
}

/// Generates case `index` of a fuzz run: a valid spec pair over a sampled
/// traffic pattern, possibly corrupted by the mutation pass.
#[must_use]
pub fn generate_case(seed: u64, index: u64) -> FuzzCase {
    let mut rng = case_rng(seed, index);
    let n = rng.gen_range(2..=10usize);
    let layers = rng.gen_range(1..=n.min(3)) as u32;
    let soc_text = soc_text(&mut rng, n, layers);
    let pattern = PATTERNS[rng.gen_range(0..PATTERNS.len())];
    let comm_text = comm_text(&mut rng, n, pattern);
    let recipe = sample_recipe(&mut rng);
    let mut case = FuzzCase { index, soc_text, comm_text, recipe, mutations: Vec::new() };
    if rng.gen_bool(0.55) {
        crate::mutate::apply_random_mutations(&mut case, &mut rng);
    }
    case
}

fn sample_recipe(rng: &mut StdRng) -> ConfigRecipe {
    // Weighted so most cases drive the full pipeline, a steady trickle
    // exercises the tempered path and each degenerate window still shows
    // up thousands of times over a 10k-case run.
    let roll = rng.gen_range(0..100u32);
    match roll {
        0..=64 => ConfigRecipe::Standard,
        65..=79 => ConfigRecipe::TinyWindow,
        80..=84 => ConfigRecipe::Tempered,
        85..=87 => ConfigRecipe::DegenerateTheta,
        88..=90 => ConfigRecipe::UnboundedTheta,
        91..=93 => ConfigRecipe::NanAlpha,
        94..=96 => ConfigRecipe::EmptyFrequencies,
        _ => ConfigRecipe::ReversedSwitches,
    }
}

fn soc_text(rng: &mut StdRng, n: usize, layers: u32) -> String {
    let mut out = String::from("# fuzz-generated core specification\n");
    out.push_str(&format!("layers {layers}\n"));
    for i in 0..n {
        let w = rng.gen_range(0.5..4.0);
        let h = rng.gen_range(0.5..4.0);
        let x = (i % 4) as f64 * 5.0 + rng.gen_range(0.0..1.0);
        let y = (i / 4) as f64 * 5.0 + rng.gen_range(0.0..1.0);
        // Layer 0 always has core 0 so even 1-layer stacks are populated;
        // other layers land wherever the dice say (possibly empty layers —
        // valid, and exactly the kind of shape §VIII never exercises).
        let layer = if i == 0 { 0 } else { rng.gen_range(0..layers) };
        out.push_str(&format!("core c{i} {w} {h} {x} {y} {layer}\n"));
    }
    out
}

fn comm_text(rng: &mut StdRng, n: usize, pattern: TrafficPattern) -> String {
    let mut out = String::from("# fuzz-generated communication specification\n");
    // A flow's drawn bandwidth and latency bound, each times its scale.
    let mut push_scaled = |rng: &mut StdRng, src, dst, response, bw_scale: f64, lat_scale: f64| {
        if src == dst || src >= n || dst >= n {
            return;
        }
        let bw = rng.gen_range(10.0..800.0) * bw_scale;
        let lat = rng.gen_range(4.0..30.0) * lat_scale;
        let kind = if response { "response" } else { "request" };
        out.push_str(&format!("flow c{src} c{dst} {bw} {lat} {kind}\n"));
    };
    let mut push = |rng: &mut StdRng, src: usize, dst: usize, response: bool| {
        push_scaled(rng, src, dst, response, 1.0, 1.0);
    };
    match pattern {
        TrafficPattern::Random => {
            for _ in 0..rng.gen_range(1..=2 * n) {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                let response = rng.gen_bool(0.3);
                push(rng, src, dst, response);
            }
        }
        TrafficPattern::Hotspot => {
            for src in 1..n {
                push(rng, src, 0, false);
                if rng.gen_bool(0.5) {
                    push(rng, 0, src, true);
                }
            }
        }
        TrafficPattern::Transpose => {
            let side = (1..).find(|s| s * s >= n).unwrap_or(1);
            for i in 0..n {
                let (r, c) = (i / side, i % side);
                push(rng, i, c * side + r, false);
            }
        }
        TrafficPattern::BitComplement => {
            for i in 0..n {
                push(rng, i, n - 1 - i, false);
            }
        }
        TrafficPattern::Disconnected => {
            let half = (n / 2).max(1);
            for src in 0..half {
                let dst = rng.gen_range(0..half);
                push(rng, src, dst, false);
            }
        }
        TrafficPattern::Pipeline => {
            for i in 0..n - 1 {
                push(rng, i, i + 1, false);
                if rng.gen_bool(0.4) {
                    push(rng, i + 1, i, true);
                }
            }
        }
        TrafficPattern::Ring => {
            for i in 0..n {
                let far = (i + n / 2) % n;
                push_scaled(rng, i, (i + 1) % n, false, 1.0, 4.0);
                push_scaled(rng, i, far, false, 0.02, 4.0);
                push_scaled(rng, (i + 1) % n, i, true, 1.0, 4.0);
                push_scaled(rng, far, i, true, 0.02, 4.0);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunfloor_core::spec::{CommSpec, SocSpec};
    use sunfloor_core::synthesis::SynthesisEngine;

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        for index in [0u64, 1, 57, 4096] {
            let a = generate_case(9, index);
            let b = generate_case(9, index);
            assert_eq!(a.soc_text, b.soc_text);
            assert_eq!(a.comm_text, b.comm_text);
            assert_eq!(a.recipe, b.recipe);
            assert_eq!(a.mutations, b.mutations);
        }
    }

    #[test]
    fn unmutated_cases_parse_and_validate() {
        let mut valid = 0;
        for index in 0..200u64 {
            let case = generate_case(3, index);
            if !case.mutations.is_empty() {
                continue;
            }
            let soc = SocSpec::parse(&case.soc_text).expect("generated soc is valid");
            CommSpec::parse(&case.comm_text, &soc).expect("generated comm is valid");
            valid += 1;
        }
        assert!(valid > 30, "only {valid} unmutated cases in 200");
    }

    /// The ring shape reaches the router's deadlock check: over a few dozen
    /// ring specs under the workhorse recipe, some routings roll a path
    /// back because it closed a channel-dependency cycle. Without such
    /// cases, a router that skipped the check would still pass every fuzz
    /// contract.
    #[test]
    fn ring_traffic_makes_the_router_break_dependency_cycles() {
        let mut rollbacks = 0;
        for index in 0..40u64 {
            let mut rng = case_rng(9, index);
            let n = rng.gen_range(3..=10usize);
            let layers = rng.gen_range(1..=2u32);
            let soc_text = soc_text(&mut rng, n, layers);
            let comm_text = comm_text(&mut rng, n, TrafficPattern::Ring);
            let soc = SocSpec::parse(&soc_text).expect("generated soc is valid");
            let comm = CommSpec::parse(&comm_text, &soc).expect("generated comm is valid");
            let cfg = ConfigRecipe::Standard.build(1).expect("the standard recipe builds");
            if let Ok(engine) = SynthesisEngine::new(&soc, &comm, cfg) {
                rollbacks += engine.run().routing_stats.deadlock_rollbacks;
            }
        }
        assert!(rollbacks > 0, "no ring case made the router roll a path back");
    }

    #[test]
    fn recipes_build_or_fail_as_declared() {
        let all = [
            ConfigRecipe::Standard,
            ConfigRecipe::TinyWindow,
            ConfigRecipe::Tempered,
            ConfigRecipe::DegenerateTheta,
            ConfigRecipe::UnboundedTheta,
            ConfigRecipe::NanAlpha,
            ConfigRecipe::EmptyFrequencies,
            ConfigRecipe::ReversedSwitches,
        ];
        for recipe in all {
            assert_eq!(recipe.build(1).is_ok(), recipe.is_valid(), "{recipe:?}");
        }
    }
}
