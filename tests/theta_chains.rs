//! θ-step partitions are shared between the candidates of one switch count
//! across frequencies. Sharing must not show in the outcome: a
//! multi-frequency sweep equals its single-frequency sweeps laid end to
//! end, and the thread count changes nothing, counters included, whatever
//! the stop policy.

use sunfloor_benchmarks::{distributed, Benchmark};
use sunfloor_core::synthesis::{StopPolicy, SynthesisConfig, SynthesisEngine, SynthesisOutcome};

const FREQUENCIES: [f64; 3] = [300.0, 400.0, 500.0];

/// `D_36_8` over switch counts 4..12 with layout on: at 400 and 500 MHz
/// most counts escalate through every θ step, and several of them already
/// did at a lower frequency.
fn cfg(freqs: &[f64], jobs: usize) -> SynthesisConfig {
    counts_cfg(freqs, (4, 12), 1, jobs)
}

fn counts_cfg(freqs: &[f64], range: (usize, usize), step: usize, jobs: usize) -> SynthesisConfig {
    SynthesisConfig::builder()
        .frequencies_mhz(freqs.iter().copied())
        .switch_count_range(range.0, range.1)
        .switch_count_step(step)
        .run_layout(true)
        .jobs(jobs)
        .build()
        .unwrap()
}

fn run(bench: &Benchmark, cfg: SynthesisConfig, policy: StopPolicy) -> SynthesisOutcome {
    SynthesisEngine::new(&bench.soc, &bench.comm, cfg)
        .unwrap()
        .run_with_policy(policy)
}

#[test]
fn multi_frequency_sweep_concatenates_its_single_frequency_sweeps() {
    let bench = distributed(8);
    // Counts 4..12, and 0..100 by 3: clamped to 1..=36, so the counts
    // start at the clamped bound 1.
    for (range, step) in [((4, 12), 1), ((0, 100), 3)] {
        let all = run(&bench, counts_cfg(&FREQUENCIES, range, step, 1), StopPolicy::Exhaustive);
        let mut points = Vec::new();
        let mut rejected = Vec::new();
        for f in FREQUENCIES {
            let single = run(&bench, counts_cfg(&[f], range, step, 1), StopPolicy::Exhaustive);
            assert_eq!(
                single.shared_theta_steps, 0,
                "one frequency has nothing to share"
            );
            points.extend(single.points);
            rejected.extend(single.rejected);
        }
        assert!(all.shared_theta_steps > 0, "{range:?} by {step} must share θ steps");
        assert_eq!(all.points, points, "{range:?} by {step}");
        assert_eq!(all.rejected, rejected, "{range:?} by {step}");
    }
}

#[test]
fn shared_theta_chains_are_thread_count_free_under_every_stop_policy() {
    let bench = distributed(8);
    // Five points stop inside the 300 MHz sweep; thirteen stop at 400 MHz
    // right after a count that takes every θ step from 300 MHz, while
    // parallel workers may already have extended later counts' chains.
    for policy in [
        StopPolicy::Exhaustive,
        StopPolicy::FirstFeasible,
        StopPolicy::PointBudget(5),
        StopPolicy::PointBudget(13),
    ] {
        let serial = run(&bench, cfg(&FREQUENCIES, 1), policy);
        if policy == StopPolicy::PointBudget(13) {
            assert_eq!(serial.points.len(), 13);
            assert!(
                serial.shared_theta_steps > 0,
                "the stop must follow a shared count"
            );
        }
        for jobs in [2, 3] {
            let parallel = run(&bench, cfg(&FREQUENCIES, jobs), policy);
            assert_eq!(serial, parallel, "{policy:?} with {jobs} jobs");
        }
    }
}

/// The perfbench dense36 sweep (every switch count at 300, 400 and
/// 500 MHz, member seed 1000) stopped by a point budget: the θ steps of
/// every count partition one SPG per θ, whose memo the workers fill in
/// whatever order they reach it. Serial and parallel runs must still
/// agree, `fm_moves` included.
#[test]
fn dense36_point_budget_run_is_thread_count_free() {
    let bench = distributed(8);
    let cfg = |jobs| {
        SynthesisConfig::builder()
            .rng_seed(1000)
            .frequencies_mhz(FREQUENCIES)
            .jobs(jobs)
            .build()
            .unwrap()
    };
    let policy = StopPolicy::PointBudget(40);
    let serial = run(&bench, cfg(1), policy);
    assert_eq!(serial.points.len(), 40);
    assert!(serial.partition_stats.spg_derivations > 0, "the run must take θ steps");
    assert_eq!(serial, run(&bench, cfg(2), policy), "--jobs 2 changed the outcome");
}
