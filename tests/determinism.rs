//! Reproducibility of the full flow: every random choice in the tool is
//! seeded from configuration, so identical inputs must produce identical
//! outputs — bit-for-bit, run after run, whatever the thread count.

use sunfloor_benchmarks::{distributed, media26, pipeline_seeded, tvopd_seeded};
use sunfloor_core::graph::PartitionStats;
use sunfloor_core::place::LpStats;
use sunfloor_core::spec::MessageType;
use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine, SynthesisOutcome};
use sunfloor_core::RoutingStats;
use sunfloor_floorplan::{
    anneal, anneal_tempered, anneal_tempered_with_stats, AnnealConfig, Block, Floorplan, Net,
    TemperConfig,
};

fn run(cfg: SynthesisConfig) -> SynthesisOutcome {
    let bench = media26();
    SynthesisEngine::new(&bench.soc, &bench.comm, cfg).expect("valid benchmark").run()
}

// ---------------------------------------------------------------------------
// Golden fingerprints.
//
// The engine fingerprints below were consciously re-baselined four times:
//
// * for the warm-started partitioning pass (PR 4): the Phase-1 base
//   partitions come from a warm-chained seed set and every θ-escalation
//   step warm-starts from the previous assignment, so the partitioner's
//   search trajectory — and therefore the exact topologies — legitimately
//   changed;
// * for the warm-started placement-LP subsystem (PR 5): each placement's
//   y-axis LP now re-enters the simplex from the x-axis optimal basis
//   (and θ-retry placements from the previous attempt's basis), so on
//   degenerate placement optima the solver can return a different —
//   equally optimal — vertex than the cold two-phase path. The LP
//   objective is unchanged (then pinned to the cold objective in
//   `tests/lp_warm.rs`); only the vertex choice, and hence the exact
//   switch coordinates, moved. The media26 fingerprint changed for this;
//   the seeded-pipeline and annealer fingerprints were unaffected;
// * for the cross-candidate placement seeds (PR 10): every candidate's
//   *first* placement now re-enters the simplex from a basis captured by
//   the engine's serial warm-up (one routed-and-placed pass per switch
//   count at the first swept frequency) instead of solving cold. Where a
//   candidate's placement LP is identical to the warm-up's, the replay is
//   bit-identical to the cold solve; where it differs but shares the LP
//   shape (a later frequency whose routing diverged), the warm re-entry
//   can again end at a different equally-optimal vertex. Same drift class
//   as PR 5, same guards: the quality anchors below and the cold-pinned
//   objective in `tests/lp_warm.rs`. Only the media26 fingerprint moved;
//   the seeded-pipeline and both annealer fingerprints were unaffected;
// * for the min-cut placement solver, which replaced the simplex,
//   its warm starts and the warm-up seed bank. The objective of every
//   placement is still the optimum (the brute-force oracle in
//   `crates/lp/src/manhattan.rs` pins it and the chosen positions), but
//   degenerate optima are now resolved by a fixed rule instead of by
//   the simplex's pivot trajectory: the optimal placement L1-nearest to
//   the positions routing priced the links at, then the larger
//   coordinate. The vertex moved wherever the simplex had stopped
//   elsewhere on an optimal face. The seeded-pipeline (`0xef64…024f`),
//   128-core (`0xa292…1231`) and D_36_8 (`0xb62a…babd`) fingerprints
//   changed; media26 and both annealer fingerprints did not. The
//   placement counters now count axis solves only, and the routing
//   counters lost the warm-up's routing pass. The quality anchors below
//   and every point count held unchanged.
//
// The quality tests right below pin those changes down: best power and
// best hop count on media26, the seeded pipeline and (since PR 5) the
// tvopd 2–10 wide sweep must stay no worse than the cold-start values
// captured before each change. The annealer fingerprint is *unchanged*:
// the O(n log n) LCS packer and the incremental dimension/rank
// maintenance are bit-identical to the longest-path implementation.
//
// Hashing every coordinate and bandwidth through `f64::to_bits` makes any
// further drift — a reordered float accumulation, a different placement
// tie, a changed RNG consumption pattern — fail loudly here.
//
// The pipeline feeds `f64::powf`/`f64::exp` (the SA temperature schedule
// and accept probability) into seeded RNG decisions, and Rust documents
// those std functions as platform-specific in their last ulp. The
// hard-coded hashes are therefore only asserted on the platform they were
// captured on (x86_64 Linux — also what CI runs); elsewhere the suite
// still enforces run-to-run determinism via the tests above.
// ---------------------------------------------------------------------------

/// PR-3 cold-start quality anchors: best power (mW) and best per-flow
/// average hop count over the trade-off set, captured from the
/// pre-warm-start implementation on this configuration. The re-baselined
/// sweeps must not be worse on either axis.
const MEDIA26_COLD_BEST_POWER_MW: f64 = 270.726581;
const MEDIA26_COLD_BEST_AVG_HOPS: f64 = 1.184211;
const PIPELINE_COLD_BEST_POWER_MW: f64 = 77.403868;
const PIPELINE_COLD_BEST_AVG_HOPS: f64 = 1.142857;

/// PR-4 quality anchors for the tvopd 2–10 wide sweep (`tvopd_seeded(9)`,
/// no layout), captured at the PR-4 head *before* the warm-started
/// placement LP landed — the ROADMAP watch item: the warm-chained
/// partition seeds had left this sweep's best power ~1.7% above its
/// cold-start value, so it is pinned here to keep later changes (the LP
/// vertex choice included) from compounding that gap.
const TVOPD_PR4_BEST_POWER_MW: f64 = 248.567558;
const TVOPD_PR4_BEST_AVG_HOPS: f64 = 1.179487;
const TVOPD_PR4_POINTS: usize = 7;

fn avg_hops(p: &sunfloor_core::synthesis::DesignPoint) -> f64 {
    let total: usize = p.topology.flow_paths.iter().map(|fp| fp.switches.len()).sum();
    total as f64 / p.topology.flow_paths.len() as f64
}

fn assert_no_worse_than_cold(out: &SynthesisOutcome, power_mw: f64, hops: f64, name: &str) {
    let best_power = out
        .best_power()
        .map(|p| p.metrics.power.total_mw())
        .expect("feasible point");
    assert!(
        best_power <= power_mw + 1e-6,
        "{name}: warm-started best power {best_power} worse than cold-start {power_mw}"
    );
    let best_hops =
        out.points.iter().map(avg_hops).fold(f64::INFINITY, f64::min);
    assert!(
        best_hops <= hops + 1e-6,
        "{name}: warm-started best avg hops {best_hops} worse than cold-start {hops}"
    );
}

/// Pins the work counters a sweep reports (the benchmark's per-op counter
/// lines read the same values), so a change that keeps the outcome but
/// changes how many partitions, LP solves or routed flows produced it
/// fails here.
fn assert_counters(
    out: &SynthesisOutcome,
    partition: PartitionStats,
    lp: LpStats,
    routing: RoutingStats,
    name: &str,
) {
    assert_eq!(
        out.partition_stats, partition,
        "{name}: partition counters drifted"
    );
    assert_eq!(out.lp_stats, lp, "{name}: placement-LP counters drifted");
    assert_eq!(
        out.routing_stats, routing,
        "{name}: routing counters drifted"
    );
}

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

fn mix_f(h: &mut u64, v: f64) {
    mix(h, v.to_bits());
}

fn fingerprint_floorplan(h: &mut u64, plan: &Floorplan) {
    mix(h, plan.blocks.len() as u64);
    for b in &plan.blocks {
        mix_f(h, b.x);
        mix_f(h, b.y);
        mix(h, u64::from(b.rotated));
        mix_f(h, b.block.width);
        mix_f(h, b.block.height);
    }
}

fn fingerprint_outcome(out: &SynthesisOutcome) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    mix(&mut h, out.points.len() as u64);
    mix(&mut h, out.rejected.len() as u64);
    for p in &out.points {
        let t = &p.topology;
        mix(&mut h, t.switch_count() as u64);
        for &l in &t.switch_layer {
            mix(&mut h, u64::from(l));
        }
        for &(x, y) in &t.switch_pos {
            mix_f(&mut h, x);
            mix_f(&mut h, y);
        }
        for &a in &t.core_attach {
            mix(&mut h, a as u64);
        }
        mix(&mut h, t.links.len() as u64);
        for l in &t.links {
            mix(&mut h, l.from as u64);
            mix(&mut h, l.to as u64);
            mix_f(&mut h, l.bandwidth_gbps);
            mix(&mut h, u64::from(l.class == MessageType::Response));
            for &f in &l.flows {
                mix(&mut h, f as u64);
            }
        }
        for fp in &t.flow_paths {
            mix(&mut h, fp.switches.len() as u64);
            for &s in &fp.switches {
                mix(&mut h, s as u64);
            }
        }
        for &s in &t.indirect_switches {
            mix(&mut h, s as u64);
        }
        mix_f(&mut h, p.metrics.power.total_mw());
        mix_f(&mut h, p.metrics.avg_latency_cycles);
        if let Some(layout) = &p.layout {
            for plan in &layout.layers {
                fingerprint_floorplan(&mut h, plan);
            }
            mix_f(&mut h, layout.core_displacement_mm);
            mix_f(&mut h, layout.switch_deviation_mm);
        }
    }
    h
}

/// Golden regression: the warm-started partitioning pass must reproduce
/// *this* media26 outcome exactly (topology link sets, flow paths, LP
/// switch positions, per-layer floorplans, metrics — every f64
/// bit-for-bit), and the outcome must be no worse than the PR-3
/// cold-start implementation on both quality axes.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_media26_full_flow_is_reproducible_and_no_worse_than_cold_start() {
    let cfg = SynthesisConfig::builder()
        .switch_count_range(2, 4)
        .run_layout(true)
        .build()
        .unwrap();
    let bench = media26();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg).unwrap().run();
    assert_eq!(out.points.len(), 2, "media26 2..4 sweep must keep its two feasible points");
    assert_no_worse_than_cold(
        &out,
        MEDIA26_COLD_BEST_POWER_MW,
        MEDIA26_COLD_BEST_AVG_HOPS,
        "media26",
    );
    assert_eq!(
        fingerprint_outcome(&out),
        0xc5a1_3b14_caf6_fc39,
        "media26 outcome drifted from the warm-start re-baseline"
    );
    assert_counters(
        &out,
        PartitionStats {
            base_cache_hits: 3,
            warm_partitions: 7,
            cold_partitions: 1,
            spg_derivations: 5,
        },
        LpStats { cold_solves: 4, ..LpStats::default() },
        RoutingStats {
            flows_routed: 76,
            links_created: 10,
            deadlock_rollbacks: 0,
            class_merges: 0,
            merge_fallbacks: 0,
        },
        "media26",
    );
}

/// The tvopd 2–10 wide sweep, promoted into the pinned quality set (the
/// ROADMAP watch item): the sweep must keep its feasible-point count and
/// stay no worse than the PR-4 values on both quality axes, and repeated
/// runs must reproduce it exactly.
#[test]
fn tvopd_wide_sweep_quality_is_pinned_no_worse_than_pr4() {
    let bench = tvopd_seeded(9);
    let cfg = || {
        SynthesisConfig::builder()
            .switch_count_range(2, 10)
            .run_layout(false)
            .build()
            .unwrap()
    };
    let run = || {
        SynthesisEngine::new(&bench.soc, &bench.comm, cfg())
            .expect("valid benchmark")
            .run()
    };
    let out = run();
    assert_eq!(
        out.points.len(),
        TVOPD_PR4_POINTS,
        "tvopd 2..10 sweep must keep its {TVOPD_PR4_POINTS} feasible points"
    );
    assert_no_worse_than_cold(
        &out,
        TVOPD_PR4_BEST_POWER_MW,
        TVOPD_PR4_BEST_AVG_HOPS,
        "tvopd_seeded(9)",
    );
    assert_eq!(out, run(), "tvopd wide sweep must reproduce itself");
}

/// Golden regression on a seeded synthetic pipeline benchmark (no layout:
/// exercises the router + LP without the insertion pass), with the same
/// no-worse-than-cold-start quality gate.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_seeded_pipeline_is_reproducible_and_no_worse_than_cold_start() {
    let bench = pipeline_seeded(12, 7);
    let cfg = SynthesisConfig::builder()
        .switch_count_range(2, 4)
        .run_layout(false)
        .build()
        .unwrap();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg).unwrap().run();
    assert_eq!(out.points.len(), 3, "pipeline(12, seed 7) sweep must keep its three points");
    assert_no_worse_than_cold(
        &out,
        PIPELINE_COLD_BEST_POWER_MW,
        PIPELINE_COLD_BEST_AVG_HOPS,
        "pipeline(12, 7)",
    );
    assert_eq!(
        fingerprint_outcome(&out),
        0xb7a6_34a2_e5c5_d3f7,
        "seeded pipeline outcome drifted from the warm-start re-baseline"
    );
}

/// Golden regression at 128 cores: a seeded 128-core pipeline at 200 MHz
/// over a few switch counts (no layout). Pins the outcome bit-for-bit and
/// the exact placement counters, so a change to the placement's tie rule
/// on large problems fails here even where the small goldens do not
/// reach.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_128_core_pipeline_is_reproducible() {
    let bench = pipeline_seeded(128, 401);
    let cfg = SynthesisConfig::builder()
        .frequency_mhz(200.0)
        .switch_count_range(6, 24)
        .switch_count_step(6)
        .rng_seed(401)
        .run_layout(false)
        .build()
        .unwrap();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg).unwrap().run();
    let lp = out.lp_stats;
    assert_eq!(out.points.len(), 4, "128-core 6..24 sweep must keep its four points");
    assert_eq!(
        lp,
        LpStats { cold_solves: 8, ..LpStats::default() },
        "128-core placement counters drifted"
    );
    assert_eq!(
        fingerprint_outcome(&out),
        0x34e6_c865_1ec7_5860,
        "128-core pipeline outcome drifted"
    );
}

/// Golden regression for the shove-insertion layout on a two-layer design:
/// `D_36_8` at 400 MHz over switch counts 4..8 with layout on. Every
/// feasible point's layout displaces cores, so on each of them the
/// free-space search ran out of rings and shoved at least once; the hash
/// pins each floorplan bit-for-bit. (The media26 golden has three layers
/// and few shoves; the other engine goldens run without layout.)
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_dense36_shove_layout_is_reproducible() {
    let bench = distributed(8);
    let cfg = SynthesisConfig::builder()
        .frequency_mhz(400.0)
        .switch_count_range(4, 8)
        .run_layout(true)
        .build()
        .unwrap();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg).unwrap().run();
    assert_eq!(out.points.len(), 5, "D_36_8 4..8 sweep must keep its five points");
    for p in &out.points {
        let layout = p.layout.as_ref().expect("layout requested");
        assert_eq!(layout.layers.len(), 2);
        assert!(layout.core_displacement_mm > 0.0, "every point's layout must shove cores");
    }
    assert_eq!(
        fingerprint_outcome(&out),
        0x3508_fcfa_9a77_fb8c,
        "D_36_8 shove-layout outcome drifted"
    );
    assert_counters(
        &out,
        PartitionStats {
            base_cache_hits: 5,
            warm_partitions: 19,
            cold_partitions: 1,
            spg_derivations: 15,
        },
        LpStats { cold_solves: 40, ..LpStats::default() },
        RoutingStats {
            flows_routed: 2880,
            links_created: 302,
            deadlock_rollbacks: 1,
            class_merges: 0,
            merge_fallbacks: 0,
        },
        "D_36_8",
    );
}

/// Golden regression for the annealer alone: the mutate-and-undo loop with
/// cached net bounding boxes must produce the same floorplan as the
/// clone-per-iteration implementation for the same seed.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_annealer_is_bit_identical_to_pre_optimization() {
    let (blocks, nets) = golden_blocks_and_nets();
    let cfg = AnnealConfig::default().with_iterations(5000).with_seed(42);
    let plan = anneal(&blocks, &nets, &cfg);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fingerprint_floorplan(&mut h, &plan);
    assert_eq!(
        h,
        0xd863_862b_0991_c7f2,
        "annealed floorplan drifted from the pre-optimization implementation"
    );
}

/// The 10-block roster and nets shared by the annealer golden tests.
fn golden_blocks_and_nets() -> (Vec<Block>, Vec<Net>) {
    let blocks: Vec<Block> = (0..10)
        .map(|i| {
            let b = Block::new(
                format!("b{i}"),
                1.0 + f64::from(i % 4) * 0.7,
                1.0 + f64::from(i % 3) * 0.9,
            );
            if i % 2 == 0 {
                b.rotatable()
            } else {
                b
            }
        })
        .collect();
    let nets = vec![
        Net::two_pin(0, 7, 3.0),
        Net::two_pin(2, 5, 1.5),
        Net { pins: vec![1, 4, 8], weight: 2.0 },
        Net { pins: vec![3, 6, 9, 0], weight: 0.8 },
    ];
    (blocks, nets)
}

/// Golden regression for the parallel-tempering annealer: the 4-replica
/// exchange run is a pure function of `(TemperConfig, replica count)` —
/// this pins its floorplan bit-for-bit so any drift in the swap-round
/// reduction, the replica RNG streams or the ladder arithmetic fails
/// loudly. The thread count must not appear anywhere in the result, so the
/// same fingerprint is asserted across thread counts.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_tempered_annealer_is_pinned_and_thread_count_free() {
    let (blocks, nets) = golden_blocks_and_nets();
    for threads in [0usize, 1, 3] {
        let cfg = TemperConfig {
            base: AnnealConfig::default().with_iterations(5000).with_seed(42),
            replicas: 4,
            threads,
            ..TemperConfig::default()
        };
        let plan = anneal_tempered(&blocks, &nets, &cfg);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        fingerprint_floorplan(&mut h, &plan);
        assert_eq!(
            h,
            0x756f_44ce_4c13_9147,
            "tempered floorplan drifted from the pinned result (threads={threads})"
        );
    }
}

/// Quality anchor on the 65-block pipeline-style design: at an equal
/// per-replica iteration budget, the 4-replica tempered run must end no
/// worse than the serial chain (replicas=1 is bit-identical to [`anneal`]),
/// since the exchange moves only ever adopt the coldest rung's best state.
#[test]
fn tempered_cost_no_worse_than_serial_on_65_block_design() {
    let blocks: Vec<Block> = (0..65)
        .map(|i| {
            Block::new(
                format!("stage{i}"),
                1.2 + f64::from(i % 5) * 0.3,
                1.1 + f64::from(i % 7) * 0.2,
            )
            .rotatable()
        })
        .collect();
    let mut nets = Vec::new();
    for i in 0..64usize {
        nets.push(Net::two_pin(i, i + 1, 1.0 + f64::from(i as u32 % 3) * 0.5));
        if i % 4 == 0 && i + 2 < 65 {
            nets.push(Net::two_pin(i, i + 2, 0.5));
        }
    }
    let cfg = |replicas: usize| TemperConfig {
        base: AnnealConfig::default().with_iterations(20_000).with_seed(0xF1A7),
        replicas,
        ..TemperConfig::default()
    };
    let (_, serial) = anneal_tempered_with_stats(&blocks, &nets, &cfg(1));
    let (_, tempered) = anneal_tempered_with_stats(&blocks, &nets, &cfg(4));
    assert!(
        tempered.best_cost <= serial.best_cost + 1e-9,
        "tempered best cost {} must not lose to the serial chain {} at equal per-replica budget",
        tempered.best_cost,
        serial.best_cost
    );
    assert!(tempered.swap_attempts > 0, "the exchange schedule must actually run");
}

/// Two identical engine runs on `media26` produce identical outcomes: the
/// same feasible points (metrics, topologies, layouts) and the same
/// rejections, in the same order.
#[test]
fn synthesize_media26_is_deterministic() {
    let cfg = || {
        SynthesisConfig::builder()
            .switch_count_range(2, 4)
            .run_layout(true)
            .build()
            .unwrap()
    };
    let first = run(cfg());
    let second = run(cfg());
    assert_eq!(first, second, "identical configs must reproduce identical outcomes");
    assert!(!first.points.is_empty(), "media26 must yield feasible points");
}

/// A parallel sweep commits results in candidate order, so it must be
/// bit-for-bit identical to the serial sweep — points, rejections and their
/// ordering — for any worker count.
#[test]
fn parallel_sweep_on_media26_matches_serial_bit_for_bit() {
    let cfg = |jobs: usize| {
        SynthesisConfig::builder()
            .switch_count_range(2, 6)
            .run_layout(false)
            .jobs(jobs)
            .build()
            .unwrap()
    };
    let serial = run(cfg(1));
    assert!(!serial.points.is_empty(), "media26 must yield feasible points");
    for jobs in [2usize, 4, 8] {
        let parallel = run(cfg(jobs));
        assert_eq!(
            serial, parallel,
            "jobs={jobs} must not change points, rejections or their order"
        );
    }
}

/// Changing only the config seed is allowed to change the outcome, but each
/// seed remains self-consistent.
#[test]
fn synthesize_media26_seeds_are_self_consistent() {
    for seed in [1u64, 0xDEAD_BEEF] {
        let cfg = || {
            SynthesisConfig::builder()
                .switch_count_range(3, 3)
                .run_layout(false)
                .rng_seed(seed)
                .build()
                .unwrap()
        };
        let a = run(cfg());
        let b = run(cfg());
        assert_eq!(a, b, "seed {seed:#x} must reproduce itself");
    }
}

/// The seeded synthetic-benchmark generators are pure functions of their
/// seed: same seed, same benchmark; different seed, different roster.
#[test]
fn seeded_generators_are_pure_functions_of_their_seed() {
    assert_eq!(pipeline_seeded(12, 7), pipeline_seeded(12, 7));
    assert_eq!(tvopd_seeded(9), tvopd_seeded(9));
    assert_ne!(
        pipeline_seeded(12, 7).soc, pipeline_seeded(12, 8).soc,
        "distinct seeds should vary the generated core dimensions"
    );
}
