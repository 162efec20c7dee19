//! The 2-D synthesis flow (paper reference \[16\]) used for the 2-D vs 3-D
//! comparison of §VIII-C / Table I.

use sunfloor_benchmarks::Benchmark;
use sunfloor_core::synthesis::{
    SynthesisConfig, SynthesisEngine, SynthesisError, SynthesisMode, SynthesisOutcome,
};

/// Runs the 2-D topology synthesis flow on a single-die benchmark (use
/// [`sunfloor_benchmarks::flatten_to_2d`] to produce one from a 3-D
/// benchmark).
///
/// On one layer, Phase 1 degenerates to exactly the 2-D SunFloor flow:
/// min-cut core-to-switch partitioning, deadlock-free path computation and
/// LP placement, with no vertical-link constraints in play.
///
/// # Errors
///
/// Returns [`SynthesisError`] for invalid specifications.
///
/// # Panics
///
/// Panics when the benchmark is not single-layer (`bench.soc.layers != 1`).
pub fn synthesize_2d(
    bench: &Benchmark,
    cfg: &SynthesisConfig,
) -> Result<SynthesisOutcome, SynthesisError> {
    assert_eq!(
        bench.soc.layers, 1,
        "synthesize_2d expects a flattened single-layer benchmark"
    );
    let cfg2d = SynthesisConfig {
        mode: SynthesisMode::Phase1Only,
        // A single layer has no inter-layer links; the constraint is moot.
        max_ill: u32::MAX,
        ..cfg.clone()
    };
    Ok(SynthesisEngine::new(&bench.soc, &bench.comm, cfg2d)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunfloor_benchmarks::{distributed, flatten_to_2d};

    #[test]
    fn flow_produces_points_on_flattened_benchmark() {
        let b2 = flatten_to_2d(&distributed(4));
        let cfg = SynthesisConfig::builder()
            .switch_count_range(3, 8)
            .run_layout(false)
            .build()
            .unwrap();
        let outcome = synthesize_2d(&b2, &cfg).unwrap();
        assert!(!outcome.points.is_empty(), "rejected: {:?}", outcome.rejected);
        for p in &outcome.points {
            // A 2-D design has no vertical links at all.
            assert_eq!(p.metrics.max_inter_layer_links(), 0);
            assert!(p.topology.switch_layer.iter().all(|&l| l == 0));
        }
    }

    #[test]
    #[should_panic(expected = "single-layer")]
    fn rejects_multi_layer_input() {
        let b3 = distributed(4);
        let _ = synthesize_2d(&b3, &SynthesisConfig::default());
    }
}
