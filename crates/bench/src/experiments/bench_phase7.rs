//! The `bench` experiment: wall-clock measurements of the synthesis hot
//! paths, written as a `BENCH_phase7.json` artifact so the repository's
//! performance trajectory is tracked in-tree. The committed
//! `BENCH_phase6.json` is the previous phase's baseline; the `--gate`
//! flag of the `experiments` binary diffs a fresh artifact against it
//! (see [`crate::gate`]).
//!
//! Measured on the `D_26_media` case study:
//!
//! * the full design-space sweep (`sweep_parallel` shape: switch counts
//!   2–10, serial and fanned out over every core). The engine is built
//!   once and `run()` timed, so the numbers are steady-state sweeps: the
//!   warm-chained Phase-1 seed partitions are computed on the warm-up run
//!   and served from the engine's cache afterwards — exactly how repeated
//!   sweeps and multi-frequency runs pay for them. A cold
//!   construction-plus-first-run sweep is reported as `sweep.first_run_s`.
//! * the per-call Phase-1 partitioning cost at 8 switches, in the form
//!   the sweep now pays it (`partition_phase1_k8_s`): the
//!   adjacent-switch-count chain step through
//!   `phase1::connectivity_cached` — partitioner warm-started from the
//!   k=7 assignment.
//!   The from-scratch cold path phase 3 measured is kept as
//!   `partition_phase1_k8_cold_s`, and the θ-escalation step — now the
//!   sparse group-attraction fold instead of a materialized dense SPG —
//!   as `partition_phase1_k8_theta_sparse_s` (renamed from
//!   `partition_phase1_k8_theta_spg_s` with the phase-7 sparsification;
//!   the gate skips renamed metrics rather than failing on them).
//! * one flow-routing pass through the indexed [`PathAllocator`] core
//!   (reported as flows routed per second),
//! * the switch placement at k = 8 (`placement_lp_k8_s`) and over the
//!   whole k ∈ {2..8} candidate chain (`placement_lp_chain`), plus the
//!   `lp_*` counters of a full serial sweep. Placement is a stateless
//!   min-cut solve now, so the "cold" and "warm" keys the gate tracks
//!   (`placement_lp_warm_k8_s`, `placement_lp_chain.cold_s` /
//!   `warm_s`) time the same [`PlacementSolver`] call, and the warm-start
//!   counters (`lp_warm_solves`, `lp_iters_saved`,
//!   `lp_cross_candidate_warm_solves`) are 0,
//! * a 20-block simulated-annealing floorplanning run (reported as SA
//!   iterations per second; the annealer's inner loop is now the
//!   Tang/Wong O(n log n) LCS packer),
//! * the LCS packer against the retained O(n²) longest-path reference on
//!   a 65-block set (`pack_lcs`, the pipeline-benchmark scale where the
//!   asymptotics dominate),
//! * the partition-cache counters of a full serial sweep
//!   (`partition_cache_hits`),
//! * the parallel-tempering annealer at the 65-block pipeline scale
//!   (`tempering`): the serial chain (one replica is bit-identical to
//!   [`anneal`]) against 2 and 4 exchange-coupled replicas at the same
//!   per-replica budget — aggregate SA iterations per second, the
//!   replica-exchange acceptance rate and the best-cost trajectory over
//!   escalating iteration budgets.

use crate::{Artifact, Effort};
use std::fmt::Write as _;
use std::time::Instant;
use sunfloor_benchmarks::media26;
use sunfloor_core::graph::{CommGraph, PartitionCache};
use sunfloor_core::paths::{PathAllocator, PathConfig};
use sunfloor_core::phase1;
use sunfloor_core::place::PlacementSolver;
use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine};
use sunfloor_core::topology::Topology;
use sunfloor_floorplan::{
    anneal, anneal_tempered_with_stats, AnnealConfig, Block, Net, PackScratch, SequencePair,
    TemperConfig,
};
use sunfloor_models::NocLibrary;

/// File the measurements are persisted to (repo root when run via
/// `cargo run -p sunfloor-bench --bin experiments -- bench`).
pub const BENCH_ARTIFACT_PATH: &str = "BENCH_phase7.json";

/// The committed previous-phase baseline the gate diffs against.
pub const BENCH_BASELINE_PATH: &str = "BENCH_phase6.json";

/// Times `f` over `reps` repetitions (after one warm-up call) and returns
/// seconds per repetition.
fn time_per_rep<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// Runs the hot-path measurements and writes [`BENCH_ARTIFACT_PATH`].
///
/// Measurement setup failures (a config the builder rejects, an
/// unroutable benchmark) surface as an error artifact rather than a
/// panic, so a bench run can never take the experiments binary down.
#[must_use]
pub fn bench_phase7(effort: Effort) -> Artifact {
    match try_bench_phase7(effort) {
        Ok(artifact) => artifact,
        Err(e) => Artifact::Text {
            id: "bench_phase7".to_string(),
            title: "Hot-path wall-clock baseline (media26)".to_string(),
            body: format!("{{\n  \"error\": \"{e}\"\n}}\n"),
        },
    }
}

#[allow(clippy::too_many_lines)]
fn try_bench_phase7(effort: Effort) -> Result<Artifact, String> {
    let (sweep_reps, route_reps, sa_iters, sa_reps) = match effort {
        Effort::Quick => (1u32, 20u32, 5_000u32, 3u32),
        Effort::Full => (3, 200, 30_000, 5),
    };
    let bench = media26();
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let lib = NocLibrary::lp65();
    let core_layers: Vec<u32> = bench.soc.cores.iter().map(|c| c.layer).collect();
    let jobs = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);

    // Full sweep, serial and parallel (the `sweep_parallel` criterion
    // shape: switch counts 2–10 at 400 MHz, no layout).
    let sweep_cfg = |jobs: usize| {
        SynthesisConfig::builder()
            .switch_count_range(2, 10)
            .run_layout(false)
            .jobs(jobs)
            .build()
            .map_err(|e| format!("sweep config rejected: {e}"))
    };
    // A cold first run: engine construction, which partitions the
    // warm-chained Phase-1 seeds once, plus the sweep. Every further run
    // of the engine (and every extra frequency) reuses those seeds, which
    // is what the steady-state `serial_s` below measures. The config and engine
    // are validated by the `?`s below, so the timed closure can drop
    // failures silently — they cannot occur once setup has succeeded.
    let first_run_s = time_per_rep(sweep_reps, || {
        sweep_cfg(1)
            .ok()
            .and_then(|cfg| SynthesisEngine::new(&bench.soc, &bench.comm, cfg).ok())
            .map(|engine| engine.run())
    });
    let serial_engine = SynthesisEngine::new(&bench.soc, &bench.comm, sweep_cfg(1)?)
        .map_err(|e| format!("media26 rejected by the engine: {e}"))?;
    let candidates = serial_engine.candidates().len();
    let sweep_serial_s = time_per_rep(sweep_reps, || serial_engine.run());
    let parallel_engine = SynthesisEngine::new(&bench.soc, &bench.comm, sweep_cfg(jobs)?)
        .map_err(|e| format!("media26 rejected by the engine: {e}"))?;
    let sweep_parallel_s = time_per_rep(sweep_reps, || parallel_engine.run());

    // Partition-cache and placement-LP counters of one full serial sweep.
    let outcome = serial_engine.run();
    let stats = outcome.partition_stats;
    let lp_stats = outcome.lp_stats;

    // Phase-1 partitioning at 8 switches. `partition_phase1_k8_s` is the
    // per-call cost the sweep pays today: the adjacent-switch-count chain
    // step (PG built per call, partitioner warm-started from the k=7
    // assignment and FM-polished against a reduced cold
    // restart budget). The from-scratch cold form phase 3 tracked stays
    // alongside, plus the θ-escalation step, whose attraction terms are
    // now folded per group instead of materialized as a dense SPG.
    let seed = 0xC0FFEE_u64;
    // Validated once by the `?` on `conn` below; the timed closures only
    // repeat calls that have already succeeded.
    let partition_cold_s = time_per_rep(route_reps, || {
        phase1::connectivity(&graph, &bench.soc, 8, 0.6, None, 15.0, seed).ok()
    });
    let mut cache = PartitionCache::new();
    let prev = phase1::connectivity_cached(
        &graph, &bench.soc, 7, 0.6, None, 15.0, seed, None, &mut cache,
    )
    .map_err(|e| format!("phase-1 partition at k=7 failed on media26: {e}"))?;
    let warm: Vec<u32> = prev.core_attach.iter().map(|&a| a as u32).collect();
    let partition_warm_s = time_per_rep(route_reps, || {
        phase1::connectivity_cached(
            &graph,
            &bench.soc,
            8,
            0.6,
            None,
            15.0,
            seed,
            Some(&warm),
            &mut cache,
        )
        .ok()
    });
    let partition_theta_s = time_per_rep(route_reps, || {
        phase1::connectivity_cached(
            &graph,
            &bench.soc,
            8,
            0.6,
            Some(7.0),
            15.0,
            seed,
            Some(&warm),
            &mut cache,
        )
        .ok()
    });

    // One routing pass at 8 switches.
    let conn = phase1::connectivity(&graph, &bench.soc, 8, 0.6, None, 15.0, seed)
        .map_err(|e| format!("phase-1 partition at k=8 failed on media26: {e}"))?;
    let path_cfg = PathConfig::new(25, lib.switch.max_size_for_frequency(400.0), 400.0);
    let mut alloc = PathAllocator::new();
    alloc
        .compute_paths(
            &graph,
            &conn.core_attach,
            &conn.switch_layer,
            &conn.est_positions,
            &core_layers,
            bench.soc.layers,
            &lib,
            &path_cfg,
            0.6,
        )
        .map_err(|e| format!("k=8 routing pass failed on media26: {e}"))?;
    let route_s = time_per_rep(route_reps, || {
        alloc
            .compute_paths(
                &graph,
                &conn.core_attach,
                &conn.switch_layer,
                &conn.est_positions,
                &core_layers,
                bench.soc.layers,
                &lib,
                &path_cfg,
                0.6,
            )
            .ok()
    });
    let flows = graph.edge_list().len();
    let flows_per_s = flows as f64 / route_s;

    // Switch placement on routed topologies for the k ∈ {2..8} chain the
    // acceptance gate tracks.
    let routed_for = |k: usize, alloc: &mut PathAllocator| -> Option<Topology> {
        let conn = phase1::connectivity(&graph, &bench.soc, k, 0.6, None, 15.0, seed).ok()?;
        alloc
            .compute_paths(
                &graph,
                &conn.core_attach,
                &conn.switch_layer,
                &conn.est_positions,
                &core_layers,
                bench.soc.layers,
                &lib,
                &path_cfg,
                0.6,
            )
            .ok()
    };
    // Small counts can be unroutable at 400 MHz (the sweep rejects those
    // candidates before ever reaching the LP); the chain measures the
    // placements the engine actually performs.
    let chain: Vec<(usize, Topology)> =
        (2..=8).filter_map(|k| routed_for(k, &mut alloc).map(|t| (k, t))).collect();
    let routed_k8 = &chain
        .iter()
        .find(|(k, _)| *k == 8)
        .ok_or("k=8 must route on media26: the placement_lp_k8 metrics are keyed to it")?
        .1;
    let routed_chain: Vec<&Topology> = chain.iter().map(|(_, t)| t).collect();

    let mut solver = PlacementSolver::new();
    let place_s = time_per_rep(route_reps, || {
        let mut topo = routed_k8.clone();
        let obj = solver.place(&mut topo, &bench.soc, &graph);
        (topo, obj)
    });
    let chain_s = time_per_rep(route_reps, || {
        let mut objs = 0.0;
        for routed in &routed_chain {
            let mut topo = (*routed).clone();
            objs += solver.place(&mut topo, &bench.soc, &graph).unwrap_or(0.0);
        }
        objs
    });

    // Sequence-pair simulated annealing (the floorplanner role).
    let blocks: Vec<Block> = (0..20)
        .map(|i| {
            Block::new(
                format!("b{i}"),
                1.0 + f64::from(i % 4) * 0.7,
                1.0 + f64::from(i % 3) * 0.9,
            )
        })
        .collect();
    let nets: Vec<Net> = (0..10).map(|i| Net::two_pin(i, (i + 7) % 20, 1.0 + i as f64)).collect();
    let sa_cfg = AnnealConfig::default().with_iterations(sa_iters).with_seed(42);
    let sa_s = time_per_rep(sa_reps, || anneal(&blocks, &nets, &sa_cfg));
    let sa_iters_per_s = f64::from(sa_iters) / sa_s;

    // LCS vs longest-path packing at the 65-block pipeline scale.
    let pack_blocks: Vec<Block> = (0..65)
        .map(|i| {
            Block::new(
                format!("p{i}"),
                1.0 + f64::from(i % 5) * 0.6,
                1.0 + f64::from(i % 4) * 0.8,
            )
        })
        .collect();
    let sp = SequencePair::identity(65);
    let rotated = vec![false; 65];
    let mut scratch = PackScratch::default();
    let pack_reps = route_reps * 50;
    let pack_lcs_s =
        time_per_rep(pack_reps, || sp.pack_into(&pack_blocks, &rotated, &mut scratch));
    let pack_ref_s = time_per_rep(pack_reps, || {
        sp.pack_into_longest_path(&pack_blocks, &rotated, &mut scratch)
    });

    // Parallel tempering at the 65-block pipeline scale (the phase-6
    // tentpole): serial chain (one replica is bit-identical to `anneal`)
    // vs 2 and 4 exchange-coupled replicas at the same per-replica
    // budget. Aggregate throughput is `iterations · replicas / wall`; the
    // replicas run on scoped threads, so on a ≥4-core machine the
    // 4-replica aggregate should approach 4× the serial chain. On fewer
    // cores the replicas time-share — the gap between the aggregate and
    // `cores × serial` throughput is then the exchange-barrier overhead,
    // not a property of the algorithm (the result is bit-identical either
    // way), which is why the artifact records `cores` alongside.
    let temper_blocks: Vec<Block> = (0..65)
        .map(|i| {
            Block::new(
                format!("stage{i}"),
                1.2 + f64::from(i % 5) * 0.3,
                1.1 + f64::from(i % 7) * 0.2,
            )
            .rotatable()
        })
        .collect();
    let mut temper_nets = Vec::new();
    for i in 0..64usize {
        temper_nets.push(Net::two_pin(i, i + 1, 1.0 + f64::from(i as u32 % 3) * 0.5));
        if i % 4 == 0 && i + 2 < 65 {
            temper_nets.push(Net::two_pin(i, i + 2, 0.5));
        }
    }
    let temper_iters = match effort {
        Effort::Quick => 4_000u32,
        Effort::Full => 20_000,
    };
    let temper_cfg = |replicas: usize, iterations: u32| TemperConfig {
        base: AnnealConfig::default().with_iterations(iterations).with_seed(0xF1A7),
        replicas,
        ..TemperConfig::default()
    };
    let temper_time = |replicas: usize| {
        let cfg = temper_cfg(replicas, temper_iters);
        time_per_rep(sa_reps, || anneal_tempered_with_stats(&temper_blocks, &temper_nets, &cfg))
    };
    let temper_serial_s = temper_time(1);
    let temper_r2_s = temper_time(2);
    let temper_r4_s = temper_time(4);
    let aggregate = |replicas: usize, s: f64| f64::from(temper_iters) * replicas as f64 / s;
    let temper_serial_iters_per_s = aggregate(1, temper_serial_s);
    let temper_r2_iters_per_s = aggregate(2, temper_r2_s);
    let temper_r4_iters_per_s = aggregate(4, temper_r4_s);
    let (_, temper_r1_stats) =
        anneal_tempered_with_stats(&temper_blocks, &temper_nets, &temper_cfg(1, temper_iters));
    let (_, temper_r4_stats) =
        anneal_tempered_with_stats(&temper_blocks, &temper_nets, &temper_cfg(4, temper_iters));
    // Best-cost trajectory of the 4-replica run over escalating budgets
    // (chunked stepping is bit-identical to one long run, so each budget
    // is a true prefix of the full run's trajectory).
    let trajectory: Vec<(u32, f64)> = [1u32, 2, 3, 4]
        .iter()
        .map(|&q| {
            let budget = temper_iters / 4 * q;
            let (_, s) = anneal_tempered_with_stats(
                &temper_blocks,
                &temper_nets,
                &temper_cfg(4, budget),
            );
            (budget, s.best_cost)
        })
        .collect();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"phase\": 7,");
    let _ = writeln!(json, "  \"benchmark\": \"media26\",");
    let _ = writeln!(
        json,
        "  \"effort\": \"{}\",",
        if effort == Effort::Quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(json, "    \"candidates\": {candidates},");
    let _ = writeln!(json, "    \"serial_s\": {sweep_serial_s:.6},");
    let _ = writeln!(json, "    \"parallel_s\": {sweep_parallel_s:.6},");
    let _ = writeln!(json, "    \"first_run_s\": {first_run_s:.6},");
    let _ = writeln!(json, "    \"jobs\": {jobs}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"partition_phase1_k8_s\": {partition_warm_s:.9},");
    let _ = writeln!(json, "  \"partition_phase1_k8_cold_s\": {partition_cold_s:.9},");
    let _ = writeln!(json, "  \"partition_phase1_k8_theta_sparse_s\": {partition_theta_s:.9},");
    let _ = writeln!(json, "  \"partition_cache_hits\": {{");
    let _ = writeln!(json, "    \"base_cache_hits\": {},", stats.base_cache_hits);
    let _ = writeln!(json, "    \"warm_partitions\": {},", stats.warm_partitions);
    let _ = writeln!(json, "    \"cold_partitions\": {},", stats.cold_partitions);
    let _ = writeln!(json, "    \"spg_derivations\": {},", stats.spg_derivations);
    let _ = writeln!(json, "    \"total_hits\": {}", stats.cache_hits());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"routing\": {{");
    let _ = writeln!(json, "    \"flows\": {flows},");
    let _ = writeln!(json, "    \"per_pass_s\": {route_s:.9},");
    let _ = writeln!(json, "    \"flows_per_s\": {flows_per_s:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"placement_lp_k8_s\": {place_s:.9},");
    let _ = writeln!(json, "  \"placement_lp_warm_k8_s\": {place_s:.9},");
    let _ = writeln!(json, "  \"placement_lp_chain\": {{");
    let _ = writeln!(json, "    \"switch_counts\": {},", chain.len());
    let _ = writeln!(json, "    \"cold_s\": {chain_s:.9},");
    let _ = writeln!(json, "    \"warm_s\": {chain_s:.9},");
    let _ = writeln!(json, "    \"speedup\": 1.00");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"lp_cold_solves\": {},", lp_stats.cold_solves);
    let _ = writeln!(json, "  \"lp_warm_solves\": {},", lp_stats.warm_solves);
    let _ = writeln!(json, "  \"lp_iters_saved\": {},", lp_stats.iterations_saved);
    let _ = writeln!(
        json,
        "  \"lp_cross_candidate_warm_solves\": {},",
        lp_stats.cross_candidate_warm_solves
    );
    let _ = writeln!(json, "  \"annealer\": {{");
    let _ = writeln!(json, "    \"iterations\": {sa_iters},");
    let _ = writeln!(json, "    \"per_run_s\": {sa_s:.6},");
    let _ = writeln!(json, "    \"iterations_per_s\": {sa_iters_per_s:.0}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"pack_lcs\": {{");
    let _ = writeln!(json, "    \"blocks\": 65,");
    let _ = writeln!(json, "    \"per_pack_s\": {pack_lcs_s:.9},");
    let _ = writeln!(json, "    \"packs_per_s\": {:.0},", 1.0 / pack_lcs_s);
    let _ = writeln!(json, "    \"longest_path_per_pack_s\": {pack_ref_s:.9},");
    let _ = writeln!(json, "    \"speedup\": {:.2}", pack_ref_s / pack_lcs_s);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"tempering\": {{");
    let _ = writeln!(json, "    \"cores\": {jobs},");
    let _ = writeln!(json, "    \"blocks\": 65,");
    let _ = writeln!(json, "    \"iterations_per_replica\": {temper_iters},");
    let _ = writeln!(json, "    \"serial_s\": {temper_serial_s:.6},");
    let _ = writeln!(json, "    \"r2_s\": {temper_r2_s:.6},");
    let _ = writeln!(json, "    \"r4_s\": {temper_r4_s:.6},");
    let _ = writeln!(json, "    \"serial_iters_per_s\": {temper_serial_iters_per_s:.0},");
    let _ = writeln!(json, "    \"aggregate_iters_per_s_r2\": {temper_r2_iters_per_s:.0},");
    let _ = writeln!(json, "    \"aggregate_iters_per_s_r4\": {temper_r4_iters_per_s:.0},");
    let _ = writeln!(
        json,
        "    \"aggregate_speedup_r4\": {:.2},",
        temper_r4_iters_per_s / temper_serial_iters_per_s
    );
    let _ = writeln!(json, "    \"swap_attempts\": {},", temper_r4_stats.swap_attempts);
    let _ = writeln!(
        json,
        "    \"swap_acceptance\": {:.4},",
        temper_r4_stats.swap_acceptance()
    );
    let _ = writeln!(json, "    \"best_cost_serial\": {:.6},", temper_r1_stats.best_cost);
    let _ = writeln!(json, "    \"best_cost_r4\": {:.6},", temper_r4_stats.best_cost);
    let _ = writeln!(json, "    \"best_cost_trajectory_r4\": [");
    for (i, (budget, cost)) in trajectory.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"iterations\": {budget}, \"best_cost\": {cost:.6}}}{}",
            if i + 1 < trajectory.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    if let Err(e) = std::fs::write(BENCH_ARTIFACT_PATH, &json) {
        eprintln!("warning: could not write {BENCH_ARTIFACT_PATH}: {e}");
    }

    Ok(Artifact::Text {
        id: "bench_phase7".to_string(),
        title: "Hot-path wall-clock baseline (media26)".to_string(),
        body: json,
    })
}
