//! Reproducibility of the full flow: every random choice in the tool is
//! seeded from configuration, so identical inputs must produce identical
//! outputs — bit-for-bit, run after run, whatever the thread count.

use sunfloor_benchmarks::{distributed, media26, pipeline_seeded, tvopd_seeded, Benchmark};
use sunfloor_core::graph::PartitionStats;
use sunfloor_core::layout::AnnealStats;
use sunfloor_core::place::LpStats;
use sunfloor_core::spec::MessageType;
use sunfloor_core::synthesis::{
    Parallelism, PhaseKind, SynthesisConfig, SynthesisConfigBuilder, SynthesisEngine,
    SynthesisMode, SynthesisOutcome,
};
use sunfloor_core::spec::CommSpec;
use sunfloor_core::RoutingStats;
use sunfloor_floorplan::{
    anneal, anneal_tempered, AnnealConfig, AnnealInput, Block, Floorplan, Net, TemperConfig,
};

fn run(cfg: SynthesisConfig) -> SynthesisOutcome {
    let bench = media26();
    SynthesisEngine::new(&bench.soc, &bench.comm, cfg).expect("valid benchmark").run()
}

// ---------------------------------------------------------------------------
// Golden fingerprints.
//
// The engine fingerprints below were consciously re-baselined five times:
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
//   and every point count held unchanged;
// * for the router's tie rule: Dijkstra dropped its heap, whose pop order
//   of equal-cost entries std leaves unspecified, and settles the
//   cheapest switch by a scan, the lower index on ties. Paths moved
//   wherever two routes cost the same bits: the outcomes of the D_36_8
//   1..31 and three-frequency goldens and of the dense36 panel and
//   Phase-2 rows, with their link and shove counters. The panel's dense36
//   row gained a point (61 -> 62) and the Phase-2 dense36 row lost one
//   (27 -> 26); every other count and the quality anchors held. The
//   routing counter became `switches_settled`, which does not count the
//   heap's stale entries, so it moved in every D_36_8 and media26 golden
//   but the media26 2..4 one.
//
// Reusing the rejection of a θ step whose partition repeats the previous
// attempt re-pinned *counters*, not fingerprints. Every outcome and
// rejection fingerprint held as recorded before that change (the
// rejection fingerprints were added and captured first, so a skipped step
// that reports the wrong θ or reason fails them). Only the two D_36_8
// goldens' `LpStats` and `RoutingStats` moved, each by exactly the work of
// the skipped attempts, tallied on the code before the change (300 MHz: 69
// repeats, 120 axis solves, 8,640 flows, 2,892 links and 16 rollbacks;
// 400 MHz: 12 repeats, 24 axis solves, 1,728 flows, 200 links). media26's
// two repeats failed before routing, so its counters did not move.
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

/// Pins every work counter a sweep reports: all of the outcome but its
/// points and rejections. Each is exact and a pure function of the
/// configuration, so a change that keeps the outcome but does more or less
/// work in some layer (partitioning, routing, placement, shove or tempered
/// layout) or reuses fewer θ steps fails here. `expected` holds no points
/// or rejections.
fn assert_counters(out: &SynthesisOutcome, expected: SynthesisOutcome, name: &str) {
    let counters = SynthesisOutcome { points: Vec::new(), rejected: Vec::new(), ..out.clone() };
    assert_eq!(counters, expected, "{name}: work counters drifted");
}

/// Runs the fuzz harness's certifier on every accepted point: ports,
/// transit switches, paths over links that list their flow, acyclic
/// per-class channel-dependency graphs and link capacity, each checked
/// without the router's code.
fn assert_certified(out: &SynthesisOutcome, comm: &CommSpec, cfg: &SynthesisConfig, name: &str) {
    for (i, point) in out.points.iter().enumerate() {
        if let Err(detail) = sunfloor_fuzz::certify(point, comm, cfg) {
            panic!("{name}: point {i} is not certified: {detail}");
        }
    }
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

/// Hashes every rejected attempt: its switch count, frequency, phase, θ
/// (or its absence) and the `Debug` form of its typed reason.
/// [`fingerprint_outcome`] hashes only how many attempts were rejected, so
/// a change that keeps that count but reports a different reason, or the
/// wrong θ, for some attempt fails only here.
fn fingerprint_rejections(out: &SynthesisOutcome) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    mix(&mut h, out.rejected.len() as u64);
    for r in &out.rejected {
        mix(&mut h, r.requested_switches as u64);
        mix_f(&mut h, r.frequency_mhz);
        mix(&mut h, u64::from(r.phase == PhaseKind::Phase2));
        match r.theta {
            Some(theta) => {
                mix(&mut h, 1);
                mix_f(&mut h, theta);
            }
            None => mix(&mut h, 0),
        }
        for b in format!("{:?}", r.reason).bytes() {
            mix(&mut h, u64::from(b));
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
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone()).unwrap().run();
    assert_eq!(out.points.len(), 2, "media26 2..4 sweep must keep its two feasible points");
    assert_certified(&out, &bench.comm, &cfg, "media26 2..4");
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
    assert_eq!(
        fingerprint_rejections(&out),
        0x673d_a246_bd01_0800,
        "media26 rejections drifted"
    );
    assert_counters(
        &out,
        SynthesisOutcome {
            partition_stats: PartitionStats {
                base_cache_hits: 3,
                warm_partitions: 7,
                cold_partitions: 1,
                spg_derivations: 5,
                layer_partitions: 0,
                fm_moves: 1802,
            },
            lp_stats: LpStats { cold_solves: 4, ..LpStats::default() },
            routing_stats: RoutingStats {
                flows_routed: 76,
                links_created: 10,
                deadlock_rollbacks: 0,
                class_merges: 0,
                merge_fallbacks: 0,
                switches_settled: 41,
            },
            shove_probes: 844,
            repeated_attempts: 2,
            ..SynthesisOutcome::default()
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
    assert_certified(&out, &bench.comm, &cfg(), "tvopd_seeded(9) 2..10");
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
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone()).unwrap().run();
    assert_eq!(out.points.len(), 3, "pipeline(12, seed 7) sweep must keep its three points");
    assert_certified(&out, &bench.comm, &cfg, "pipeline(12, 7) 2..4");
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
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone()).unwrap().run();
    let lp = out.lp_stats;
    assert_eq!(out.points.len(), 4, "128-core 6..24 sweep must keep its four points");
    assert_certified(&out, &bench.comm, &cfg, "pipeline(128, 401) 6..24");
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
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone()).unwrap().run();
    assert_certified(&out, &bench.comm, &cfg, "D_36_8 4..8");
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
    assert_eq!(
        fingerprint_rejections(&out),
        0xc937_9348_0dae_a5a4,
        "D_36_8 rejections drifted"
    );
    assert_counters(
        &out,
        SynthesisOutcome {
            partition_stats: PartitionStats {
                base_cache_hits: 5,
                warm_partitions: 19,
                cold_partitions: 1,
                spg_derivations: 15,
                layer_partitions: 0,
                fm_moves: 7487,
            },
            lp_stats: LpStats { cold_solves: 16, ..LpStats::default() },
            routing_stats: RoutingStats {
                flows_routed: 1152,
                links_created: 102,
                deadlock_rollbacks: 1,
                class_merges: 0,
                merge_fallbacks: 0,
                switches_settled: 2944,
            },
            shove_probes: 16602,
            repeated_attempts: 12,
            ..SynthesisOutcome::default()
        },
        "D_36_8",
    );
}

/// Golden regression for the router's tie rule: `D_36_8` at 300 MHz over
/// switch counts 1..31 with layout on. Of two switches at equal cost,
/// Dijkstra settles the lower index first, so a change to that rule (say,
/// settling the higher index) moves paths here. Breaking ties by the
/// higher index fails the outcome fingerprint below, and the unit test
/// `equal_cost_routes_take_the_lower_index_switch` in `paths.rs` checks
/// the rule on two mirror-image routes.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_dense36_router_tie_order_is_pinned() {
    let bench = distributed(8);
    let cfg = SynthesisConfig::builder()
        .frequency_mhz(300.0)
        .switch_count_range(1, 31)
        .rng_seed(3001)
        .run_layout(true)
        .build()
        .unwrap();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone()).unwrap().run();
    assert_certified(&out, &bench.comm, &cfg, "D_36_8 1..31");
    assert_eq!(out.points.len(), 27, "D_36_8 1..31 sweep must keep its 27 points");
    assert_eq!(out.rejected.len(), 89);
    assert_eq!(
        fingerprint_outcome(&out),
        0x510f_f5f0_521d_7bd7,
        "D_36_8 300 MHz outcome drifted"
    );
    assert_eq!(
        fingerprint_rejections(&out),
        0x1f20_044c_35ea_6dd9,
        "D_36_8 300 MHz rejections drifted"
    );
    assert_counters(
        &out,
        SynthesisOutcome {
            partition_stats: PartitionStats {
                base_cache_hits: 31,
                warm_partitions: 115,
                cold_partitions: 1,
                spg_derivations: 85,
                layer_partitions: 0,
                fm_moves: 50549,
            },
            lp_stats: LpStats { cold_solves: 88, ..LpStats::default() },
            routing_stats: RoutingStats {
                flows_routed: 6336,
                links_created: 1822,
                deadlock_rollbacks: 5,
                class_merges: 0,
                merge_fallbacks: 0,
                switches_settled: 43106,
            },
            shove_probes: 368936,
            repeated_attempts: 69,
            ..SynthesisOutcome::default()
        },
        "D_36_8 300 MHz",
    );
}

/// Golden regression for θ chains shared across frequencies: `D_36_8` at
/// 300, 400 and 500 MHz over switch counts 4..12 with layout on. Candidates
/// of the same switch count take their θ-step partitions from one chain,
/// computed once per run. Both fingerprints were recorded before the
/// chains were shared, and so were the placement and routing counters and
/// the repeats. The two partition counters are the earlier ones (88 warm,
/// 80 SPGs) less the 35 θ steps a candidate now takes from an earlier
/// frequency, tallied from the earlier code's `ThetaEscalated` events.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_dense36_theta_chains_are_shared_across_frequencies() {
    let bench = distributed(8);
    let cfg = SynthesisConfig::builder()
        .frequencies_mhz([300.0, 400.0, 500.0])
        .switch_count_range(4, 12)
        .run_layout(true)
        .build()
        .unwrap();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone()).unwrap().run();
    assert_certified(&out, &bench.comm, &cfg, "D_36_8 three frequencies");
    assert_eq!(out.points.len(), 19, "D_36_8 three-frequency sweep must keep its 19 points");
    assert_eq!(out.rejected.len(), 88);
    assert_eq!(
        fingerprint_outcome(&out),
        0xd58d_602d_a9a3_9990,
        "D_36_8 three-frequency outcome drifted"
    );
    assert_eq!(
        fingerprint_rejections(&out),
        0x11ca_350b_f224_48fd,
        "D_36_8 three-frequency rejections drifted"
    );
    assert_counters(
        &out,
        SynthesisOutcome {
            partition_stats: PartitionStats {
                base_cache_hits: 27,
                warm_partitions: 53,
                cold_partitions: 1,
                spg_derivations: 45,
                layer_partitions: 0,
                fm_moves: 19043,
            },
            lp_stats: LpStats { cold_solves: 76, ..LpStats::default() },
            routing_stats: RoutingStats {
                flows_routed: 5472,
                links_created: 719,
                deadlock_rollbacks: 62,
                class_merges: 0,
                merge_fallbacks: 0,
                switches_settled: 19897,
            },
            shove_probes: 125758,
            repeated_attempts: 64,
            shared_theta_steps: 35,
            ..SynthesisOutcome::default()
        },
        "D_36_8 three frequencies",
    );
}

/// One row of [`golden_perfbench_panels_pin_outcomes_and_work_counters`].
struct PanelRow {
    name: &'static str,
    bench: Benchmark,
    cfg: SynthesisConfigBuilder,
    points: usize,
    rejected: usize,
    outcome: u64,
    rejections: u64,
    counters: SynthesisOutcome,
}

/// Golden regression on the four perfbench workloads at member seed 1000.
/// Each row runs the workload's design with the flags
/// `perfbench/src/workload.rs` passes to `sunfloor3d`, built through the
/// builder as the CLI builds them, and pins both fingerprints and every
/// work counter. A change that does more work in one layer — Phase-1 seed
/// chain or θ steps (FM moves), routing (switches settled), placement (axis
/// solves), shove layout (probes) or tempered layout (anneals, replica
/// swaps) — fails here even when the outcome holds, on any host. Time is
/// perfbench's job. A parallel row is also run serially, which must change
/// neither the outcome nor a counter.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_perfbench_panels_pin_outcomes_and_work_counters() {
    const SEED: u64 = 1000;
    let flags = || SynthesisConfig::builder().rng_seed(SEED).jobs(1);
    let rows = [
        PanelRow {
            name: "media26",
            bench: media26(),
            cfg: flags(),
            points: 24,
            rejected: 12,
            outcome: 0xe348_674c_6c24_87a4,
            rejections: 0x4198_e064_529d_0583,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    base_cache_hits: 26,
                    warm_partitions: 35,
                    cold_partitions: 1,
                    spg_derivations: 10,
                    layer_partitions: 0,
                    fm_moves: 15_320,
                },
                lp_stats: LpStats { cold_solves: 48, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 912,
                    links_created: 478,
                    deadlock_rollbacks: 0,
                    switches_settled: 3384,
                    ..RoutingStats::default()
                },
                shove_probes: 51_607,
                repeated_attempts: 8,
                ..SynthesisOutcome::default()
            },
        },
        PanelRow {
            name: "dense36",
            bench: distributed(8),
            cfg: flags().frequencies_mhz([300.0, 400.0, 500.0]),
            points: 62,
            rejected: 406,
            outcome: 0xd67c_e466_1196_ab69,
            rejections: 0x3f4b_d663_e480_9349,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    base_cache_hits: 108,
                    warm_partitions: 205,
                    cold_partitions: 1,
                    spg_derivations: 170,
                    layer_partitions: 0,
                    fm_moves: 84_039,
                },
                lp_stats: LpStats { cold_solves: 314, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 22_608,
                    links_created: 6656,
                    deadlock_rollbacks: 97,
                    switches_settled: 178_082,
                    ..RoutingStats::default()
                },
                shove_probes: 1_672_310,
                repeated_attempts: 294,
                shared_theta_steps: 190,
                ..SynthesisOutcome::default()
            },
        },
        PanelRow {
            name: "pipe128",
            bench: pipeline_seeded(128, SEED),
            cfg: flags().frequency_mhz(200.0).switch_count_range(1, 32).switch_count_step(2),
            points: 12,
            rejected: 25,
            outcome: 0x7f51_6d4d_3be8_6164,
            rejections: 0xf38d_52bb_e35e_80dd,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    base_cache_hits: 16,
                    warm_partitions: 36,
                    cold_partitions: 1,
                    spg_derivations: 21,
                    layer_partitions: 0,
                    fm_moves: 66_133,
                },
                lp_stats: LpStats { cold_solves: 30, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 2385,
                    links_created: 285,
                    deadlock_rollbacks: 0,
                    switches_settled: 3707,
                    ..RoutingStats::default()
                },
                shove_probes: 55_430,
                repeated_attempts: 16,
                ..SynthesisOutcome::default()
            },
        },
        PanelRow {
            name: "tempered",
            bench: media26(),
            cfg: flags().anneal_replicas(2).jobs(2),
            points: 24,
            rejected: 12,
            outcome: 0x5281_0574_a50f_8a6b,
            rejections: 0x4198_e064_529d_0583,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    base_cache_hits: 26,
                    warm_partitions: 35,
                    cold_partitions: 1,
                    spg_derivations: 10,
                    layer_partitions: 0,
                    fm_moves: 15_320,
                },
                lp_stats: LpStats { cold_solves: 48, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 912,
                    links_created: 478,
                    deadlock_rollbacks: 0,
                    switches_settled: 3384,
                    ..RoutingStats::default()
                },
                // 72 layer layouts (24 candidate attempts × 3 layers), of
                // which 18 repeat an earlier layout's anneal input and
                // reuse its anneal; swaps count the 54 anneals run.
                anneal_stats: AnnealStats {
                    runs: 54,
                    swap_attempts: 432,
                    swap_accepts: 257,
                    reused: 18,
                },
                shove_probes: 0,
                repeated_attempts: 8,
                ..SynthesisOutcome::default()
            },
        },
    ];
    check_rows(rows);
}

/// Runs every row, certifies its points and checks its point and rejection
/// counts, both fingerprints and every counter; a parallel row is re-run
/// serially.
/// Returns the outcomes in row order.
fn check_rows(rows: impl IntoIterator<Item = PanelRow>) -> Vec<SynthesisOutcome> {
    let mut outcomes = Vec::new();
    for row in rows {
        let name = row.name;
        let cfg = row.cfg.build().unwrap();
        let run = |cfg: SynthesisConfig| {
            SynthesisEngine::new(&row.bench.soc, &row.bench.comm, cfg).unwrap().run()
        };
        let out = run(cfg.clone());
        assert_certified(&out, &row.bench.comm, &cfg, name);
        assert_eq!(
            (out.points.len(), out.rejected.len()),
            (row.points, row.rejected),
            "{name}: feasible and rejected counts drifted"
        );
        assert_eq!(fingerprint_outcome(&out), row.outcome, "{name}: outcome drifted");
        assert_eq!(fingerprint_rejections(&out), row.rejections, "{name}: rejections drifted");
        assert_counters(&out, row.counters, name);
        if cfg.parallelism.effective_jobs() > 1 {
            let serial = SynthesisConfig { parallelism: Parallelism::Serial, ..cfg };
            assert_eq!(run(serial), out, "{name}: --jobs 1 changed the outcome or a counter");
        }
        outcomes.push(out);
    }
    outcomes
}

/// Golden regression for Algorithm 2 (§V-B), which partitions each layer
/// cold and routes adjacent-layer links only, at member seed 1000:
/// `--mode phase2` on media26 at 400 MHz and on `D_36_8` at 300, 400 and
/// 500 MHz, and an `Auto` run on media26 at 900 MHz, where Phase 1 finds
/// nothing and the fallback's Phase-2 attempts are rejected too. Pins
/// both fingerprints and every counter, as the panel golden above does.
/// Phase 2's per-layer partitions count in `layer_partitions` and
/// `fm_moves`: one per populated layer of each committed attempt (media26
/// has 3 layers and `D_36_8` 2; the fallback row's 21 are its 7 Phase-2
/// attempts). Those counters were re-pinned when they started counting;
/// the fingerprints were not.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_phase2_pins_outcomes_and_work_counters() {
    const SEED: u64 = 1000;
    let flags = || SynthesisConfig::builder().rng_seed(SEED).jobs(1);
    let phase2 = || flags().mode(SynthesisMode::Phase2Only);
    let rows = [
        PanelRow {
            name: "media26 phase2",
            bench: media26(),
            cfg: phase2(),
            points: 9,
            rejected: 0,
            outcome: 0xa965_0bd8_7ea8_5d89,
            rejections: 0xaf63_bd4c_8601_b7df,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    layer_partitions: 27,
                    fm_moves: 3955,
                    ..PartitionStats::default()
                },
                lp_stats: LpStats { cold_solves: 18, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 342,
                    links_created: 205,
                    deadlock_rollbacks: 0,
                    switches_settled: 1293,
                    ..RoutingStats::default()
                },
                shove_probes: 24_597,
                ..SynthesisOutcome::default()
            },
        },
        PanelRow {
            name: "dense36 phase2",
            bench: distributed(8),
            cfg: phase2().frequencies_mhz([300.0, 400.0, 500.0]),
            points: 26,
            rejected: 24,
            outcome: 0x8746_12a6_ea36_51db,
            rejections: 0x006f_85c8_0984_9b8a,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    layer_partitions: 100,
                    fm_moves: 40_416,
                    ..PartitionStats::default()
                },
                lp_stats: LpStats { cold_solves: 98, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 7056,
                    links_created: 1712,
                    deadlock_rollbacks: 2,
                    switches_settled: 59_664,
                    ..RoutingStats::default()
                },
                shove_probes: 527_288,
                ..SynthesisOutcome::default()
            },
        },
        PanelRow {
            name: "media26 auto fallback",
            bench: media26(),
            cfg: flags().frequency_mhz(900.0),
            points: 0,
            rejected: 163,
            outcome: 0x0832_2507_b4ea_c7b4,
            rejections: 0xeec1_9803_f9d6_7ef8,
            counters: SynthesisOutcome {
                partition_stats: PartitionStats {
                    base_cache_hits: 26,
                    warm_partitions: 155,
                    cold_partitions: 1,
                    spg_derivations: 130,
                    layer_partitions: 21,
                    fm_moves: 56_324,
                },
                lp_stats: LpStats { cold_solves: 22, ..LpStats::default() },
                routing_stats: RoutingStats {
                    flows_routed: 418,
                    links_created: 353,
                    deadlock_rollbacks: 0,
                    switches_settled: 15_482,
                    ..RoutingStats::default()
                },
                shove_probes: 63_287,
                repeated_attempts: 71,
                ..SynthesisOutcome::default()
            },
        },
    ];
    let outcomes = check_rows(rows);
    let phase = |out: &SynthesisOutcome| {
        (out.points.iter().map(|p| p.phase).chain(out.rejected.iter().map(|r| r.phase)))
            .filter(|&p| p == PhaseKind::Phase2)
            .count()
    };
    assert_eq!(phase(&outcomes[0]), 9, "media26 phase2: every point is a Phase-2 point");
    assert_eq!(phase(&outcomes[1]), 50, "dense36 phase2: every attempt is a Phase-2 attempt");
    assert_eq!(phase(&outcomes[2]), 7, "media26 auto fallback: Phase-2 rejections drifted");
}

/// Golden regression for reused θ-step rejections: `tvopd_seeded(9)` at
/// 400 MHz over switch counts 2..10, without layout. At three switch
/// counts a θ step changes the partition, that partition fails for
/// another reason than the base attempt did, and the next step repeats
/// it. The rejection fingerprint, recorded before repeats were skipped,
/// then fails if a skipped step reports the base attempt's reason instead
/// of the previous attempt's. In the other goldens every repeat fails for
/// the base attempt's reason, so they cannot tell the two apart.
#[test]
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), ignore = "golden hashes captured on x86_64-linux; libm last-ulp differences flip SA decisions elsewhere")]
fn golden_tvopd_repeated_theta_steps_keep_the_previous_reason() {
    let bench = tvopd_seeded(9);
    let cfg = SynthesisConfig::builder()
        .switch_count_range(2, 10)
        .run_layout(false)
        .build()
        .unwrap();
    let out = SynthesisEngine::new(&bench.soc, &bench.comm, cfg).unwrap().run();
    assert_eq!(out.rejected.len(), 12);
    assert_eq!(out.repeated_attempts, 7, "tvopd θ-step repeats drifted");
    assert_eq!(
        fingerprint_outcome(&out),
        0x38fa_893b_47e1_7b15,
        "tvopd 2..10 outcome drifted"
    );
    assert_eq!(
        fingerprint_rejections(&out),
        0xf16e_c62c_a202_bdb7,
        "tvopd 2..10 rejections drifted"
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
    let input = AnnealInput::new(blocks);
    for threads in [0usize, 1, 3] {
        let cfg = TemperConfig {
            base: AnnealConfig::default().with_iterations(5000).with_seed(42),
            replicas: 4,
            threads,
            ..TemperConfig::default()
        };
        let (plan, _) = anneal_tempered(&input, &nets, &cfg);
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
    let input = AnnealInput::new(
        (0..65)
            .map(|i| {
                Block::new(
                    format!("stage{i}"),
                    1.2 + f64::from(i % 5) * 0.3,
                    1.1 + f64::from(i % 7) * 0.2,
                )
                .rotatable()
            })
            .collect(),
    );
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
    let (_, serial) = anneal_tempered(&input, &nets, &cfg(1));
    let (_, tempered) = anneal_tempered(&input, &nets, &cfg(4));
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
