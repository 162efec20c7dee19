//! Warm-start coverage for the Phase-1 partitioning pass (PR 4): the
//! adjacent-switch-count seed chain and the θ-escalation chain must be
//! deterministic for a fixed seed, and their cut costs must never exceed
//! the cold-start cuts — on `media26` and both seeded synthetic
//! generators.

use sunfloor_benchmarks::{
    distributed, media26, pipeline_roster, pipeline_seeded, tvopd_seeded, Benchmark,
};
use sunfloor_core::graph::{CommGraph, PartitionCache};
use sunfloor_core::phase1;
use sunfloor_core::synthesis::{SweepEvent, SynthesisConfig, SynthesisEngine};
use sunfloor_partition::{PartitionConfig, Partitioning, WeightedGraph};

const SEED: u64 = 0x51B0_A7E5;
const ALPHA: f64 = 1.0;
const THETA_MAX: f64 = 15.0;

fn benches() -> Vec<(&'static str, Benchmark)> {
    vec![
        ("media26", media26()),
        ("pipeline_seeded(12,7)", pipeline_seeded(12, 7)),
        ("tvopd_seeded(9)", tvopd_seeded(9)),
    ]
}

/// Runs the adjacent-switch-count warm chain `k = 2..=10` the way the
/// engine's seed set does, returning each step's assignment.
fn warm_chain(graph: &CommGraph, bench: &Benchmark) -> Vec<(usize, Vec<u32>)> {
    let mut cache = PartitionCache::new();
    let mut prev: Option<Vec<u32>> = None;
    let mut chain = Vec::new();
    for k in 2..=10usize.min(bench.soc.core_count()) {
        let conn = phase1::connectivity_cached(
            graph,
            &bench.soc,
            k,
            ALPHA,
            None,
            THETA_MAX,
            SEED,
            prev.as_deref(),
            &mut cache,
        )
        .unwrap();
        let assignment: Vec<u32> = conn.core_attach.iter().map(|&a| a as u32).collect();
        prev = Some(assignment.clone());
        chain.push((k, assignment));
    }
    chain
}

/// Adjacent-switch-count warm starts: deterministic for a fixed seed, and
/// the warm-chained cut never exceeds the cold-start cut at the same
/// switch count.
#[test]
fn adjacent_count_warm_chain_is_deterministic_and_no_worse_than_cold() {
    for (name, bench) in benches() {
        let graph = CommGraph::new(&bench.soc, &bench.comm);
        let pg = graph.partitioning_graph(ALPHA);
        let first = warm_chain(&graph, &bench);
        let second = warm_chain(&graph, &bench);
        assert_eq!(first, second, "{name}: warm chain not deterministic for seed {SEED:#x}");
        for (k, assignment) in &first {
            let cold = pg.partition(&PartitionConfig::k_way(*k).with_seed(SEED)).unwrap();
            let warm_cut = pg.cut_weight(assignment);
            assert!(
                warm_cut <= cold.cut_weight + 1e-9,
                "{name} k={k}: warm cut {warm_cut} exceeds cold cut {}",
                cold.cut_weight
            );
        }
    }
}

/// Two FNV-1a hashes over a sequence of partitions: `output` folds each
/// one's assignment and cut bits, `work` those and its `fm_moves`. A change
/// that does less refinement work with the same results moves `work` only.
struct Fingerprint {
    output: u64,
    work: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Self { output: 0xcbf2_9ce4_8422_2325, work: 0xcbf2_9ce4_8422_2325 }
    }
}

fn fnv(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Folds a partition into both hashes of `h`.
fn fold_partition(h: &mut Fingerprint, p: &Partitioning) {
    let words = p.assignment().iter().map(|&a| u64::from(a));
    for word in words.chain([p.cut_weight.to_bits()]) {
        fnv(&mut h.output, word);
        fnv(&mut h.work, word);
    }
    fnv(&mut h.work, p.fm_moves());
}

/// Folds one warm-only partition of `g` into `h` (see [`fold_partition`]).
/// Returns the assignment.
fn fold_warm_partition(
    h: &mut Fingerprint,
    g: &WeightedGraph,
    k: usize,
    initial: &[u32],
) -> Vec<u32> {
    let mut cfg = PartitionConfig::k_way(k).with_seed(SEED).with_initial(initial.to_vec());
    cfg.restarts = 0;
    let p = g.partition(&cfg).unwrap();
    fold_partition(h, &p);
    p.assignment().to_vec()
}

/// The 128-core pipeline (generator seed 1000, as in the perfbench
/// pipe128 panel) through a warm chain at k = 3..=31, each step followed
/// by a θ step on the sparse SPG with its same-layer group attraction.
/// Blocks of 4–40 cores send the warm k-way refinement through the
/// block-pair action search, the group attraction through its group
/// updates. The pinned output hash was taken from the vertex-pair scan the
/// search replaced, so the partitions and cuts must be the scan's, bit for
/// bit. The work hash was re-pinned when a converged warm refinement
/// stopped getting a final polish, which returned it unchanged: fewer
/// `fm_moves`, the same output hash.
#[test]
fn pipe128_warm_partitions_match_the_vertex_pair_scan() {
    let bench = pipeline_roster(128, 1000);
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let pg = graph.partitioning_graph(ALPHA);
    let spg = graph.scaled_partitioning_graph(ALPHA, 7.0, THETA_MAX);
    assert!(spg.attraction().is_some(), "the θ-step SPG must carry a group attraction");
    let mut h = Fingerprint::new();
    let mut prev: Vec<u32> = (0..128u32).map(|v| v % 2).collect();
    for k in 3..=31 {
        prev = fold_warm_partition(&mut h, &pg, k, &prev);
        fold_warm_partition(&mut h, &spg, k, &prev);
    }
    let (output, work) = (h.output, h.work);
    assert_eq!(output, 0x7649_550e_d76b_12f8, "pipe128 warm partitions moved: {output:#018x}");
    assert_eq!(work, 0xd2ec_5539_1c4f_d583, "pipe128 warm refinement work moved: {work:#018x}");
}

/// A 256-core pipeline (generator seed 5000) through cold k-way partitions
/// at k = 15 and 31 with the default restarts, on the PG and on the θ = 7
/// SPG with its same-layer group attraction: recursive bisection's greedy
/// growth and FM passes, then the swap polish, on blocks of 8–18 cores.
/// The pinned fingerprints (assignments and cut bits; those and
/// `fm_moves`) were taken from the full-rescan growth and the all-pairs
/// swap scan, so the tournament growth and the bounded swap search must
/// pick the same vertices and swaps, bit for bit.
#[test]
fn pipe256_cold_partitions_match_the_full_scans() {
    let bench = pipeline_roster(256, 5000);
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let pg = graph.partitioning_graph(ALPHA);
    let spg = graph.scaled_partitioning_graph(ALPHA, 7.0, THETA_MAX);
    assert!(spg.attraction().is_some(), "the θ-step SPG must carry a group attraction");
    let mut h = Fingerprint::new();
    for g in [&pg, &spg] {
        for k in [15, 31] {
            let p = g.partition(&PartitionConfig::k_way(k).with_seed(SEED)).unwrap();
            fold_partition(&mut h, &p);
        }
    }
    let (output, work) = (h.output, h.work);
    assert_eq!(output, 0xabbf_0c36_0e28_4330, "pipe256 cold partitions moved: {output:#018x}");
    assert_eq!(work, 0xe825_de04_91b8_f400, "pipe256 cold partition work moved: {work:#018x}");
}

/// Cold partitions with the default restarts on the graphs the engine
/// builds: at every block count, the θ = 7 SPG (with its same-layer group
/// attraction) of media26 and of `D_36_8`, and each populated layer's LPG
/// of both. With no warm start, the swap polish after each restart's
/// recursive bisection is the only k-way refinement, so this pins its
/// arithmetic on engine-built attraction graphs. The fingerprints were
/// taken before the polish became a mode of the warm refinement's picker.
#[test]
fn engine_graph_cold_partitions_are_pinned() {
    let mut h = Fingerprint::new();
    for bench in [media26(), distributed(8)] {
        let graph = CommGraph::new(&bench.soc, &bench.comm);
        let spg = graph.scaled_partitioning_graph(ALPHA, 7.0, THETA_MAX);
        assert!(spg.attraction().is_some(), "the θ-step SPG must carry a group attraction");
        let mut graphs = vec![spg];
        for layer in 0..bench.soc.layers {
            let (lpg, members) = graph.layer_partitioning_graph(layer, ALPHA);
            if !members.is_empty() {
                graphs.push(lpg);
            }
        }
        for g in &graphs {
            for k in 1..=g.node_count() {
                let p = g.partition(&PartitionConfig::k_way(k).with_seed(SEED)).unwrap();
                fold_partition(&mut h, &p);
            }
        }
    }
    let (output, work) = (h.output, h.work);
    assert_eq!(output, 0xf944_9937_b31c_bd10, "engine-graph cold partitions moved: {output:#018x}");
    assert_eq!(work, 0x1e4e_f3dd_d559_e82e, "engine-graph cold partition work moved: {work:#018x}");
}

/// θ-escalation warm starts, along the escalation trajectories the engine
/// actually takes on each benchmark: deterministic for a fixed seed, and
/// each warm-started SPG partition's cut never exceeds the cold-start cut
/// on the same SPG.
#[test]
fn theta_escalation_warm_starts_are_deterministic_and_no_worse_than_cold() {
    for (name, bench) in benches() {
        // Which (switch count, θ) steps does the real sweep escalate
        // through?
        let cfg = SynthesisConfig::builder()
            .switch_count_range(2, 10)
            .run_layout(false)
            .build()
            .unwrap();
        let engine = SynthesisEngine::new(&bench.soc, &bench.comm, cfg).unwrap();
        let mut trajectory: Vec<(usize, f64)> = Vec::new();
        let out = engine.run_with_observer(&mut |e: &SweepEvent| {
            if let SweepEvent::ThetaEscalated { candidate, theta } = e {
                trajectory.push((candidate.sweep.value(), *theta));
            }
        });
        assert!(!out.points.is_empty(), "{name}: sweep must stay feasible");

        let graph = CommGraph::new(&bench.soc, &bench.comm);
        let engine_cfg = SynthesisConfig::default();
        let replay = |_tag: &str| -> Vec<(usize, f64, Vec<u32>, f64)> {
            let mut cache = PartitionCache::new();
            let mut steps = Vec::new();
            let mut prev: Option<(usize, Vec<u32>)> = None;
            for &(k, theta) in &trajectory {
                // A new candidate's chain restarts from its base seed,
                // exactly like the engine.
                let base_needed = prev.as_ref().is_none_or(|(pk, _)| *pk != k);
                if base_needed {
                    let base = phase1::connectivity_cached(
                        &graph,
                        &bench.soc,
                        k,
                        engine_cfg.alpha,
                        None,
                        engine_cfg.theta_max,
                        engine_cfg.rng_seed,
                        None,
                        &mut cache,
                    )
                    .unwrap();
                    prev =
                        Some((k, base.core_attach.iter().map(|&a| a as u32).collect()));
                }
                let warm = &prev.as_ref().unwrap().1;
                let conn = phase1::connectivity_cached(
                    &graph,
                    &bench.soc,
                    k,
                    engine_cfg.alpha,
                    Some(theta),
                    engine_cfg.theta_max,
                    engine_cfg.rng_seed,
                    Some(warm),
                    &mut cache,
                )
                .unwrap();
                let assignment: Vec<u32> =
                    conn.core_attach.iter().map(|&a| a as u32).collect();
                let spg =
                    graph.scaled_partitioning_graph(engine_cfg.alpha, theta, engine_cfg.theta_max);
                let cut = spg.cut_weight(&assignment);
                prev = Some((k, assignment.clone()));
                steps.push((k, theta, assignment, cut));
            }
            steps
        };
        let first = replay("first");
        let second = replay("second");
        assert_eq!(
            first, second,
            "{name}: θ-escalation warm starts not deterministic for a fixed seed"
        );
        for (k, theta, _, warm_cut) in &first {
            let spg =
                graph.scaled_partitioning_graph(engine_cfg.alpha, *theta, engine_cfg.theta_max);
            let cold =
                spg.partition(&PartitionConfig::k_way(*k).with_seed(engine_cfg.rng_seed)).unwrap();
            assert!(
                *warm_cut <= cold.cut_weight + 1e-9,
                "{name} k={k} θ={theta}: warm cut {warm_cut} exceeds cold cut {}",
                cold.cut_weight
            );
        }
    }
}

/// The dense Definition-4 SPG exactly as the paper states it (α = `ALPHA`,
/// θ_max = `THETA_MAX`): inter-layer flow weights scaled down by
/// `θ·|Δlayer|`, and a weak edge of weight `θ·max_wt/(10·θ_max)` between
/// **every** non-communicating same-layer pair — the `O(n²)` edges the
/// production SPG folds into a group attraction.
fn dense_spg(graph: &CommGraph, bench: &Benchmark, theta: f64) -> WeightedGraph {
    let n = graph.core_count();
    let layer = |c: usize| bench.soc.cores[c].layer;
    let mut dense = WeightedGraph::new(n);
    let intra_extra = theta * graph.max_weight(ALPHA) / (10.0 * THETA_MAX);
    let mut has_edge = vec![false; n * n];
    for e in graph.edge_list() {
        let h = graph.edge_weight(e.bandwidth_mbs, e.latency_cycles, ALPHA);
        let (ls, ld) = (layer(e.src), layer(e.dst));
        let w = if ls == ld { h } else { h / (theta * f64::from(ls.abs_diff(ld))) };
        dense.add_edge(e.src, e.dst, w);
        has_edge[e.src * n + e.dst] = true;
        has_edge[e.dst * n + e.src] = true;
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if !has_edge[a * n + b] && layer(a) == layer(b) {
                dense.add_edge(a, b, intra_extra);
            }
        }
    }
    dense
}

/// Sparse-θ quality anchor (PR 10): the production θ-step — a warm-started
/// partition of the sparse SPG, whose same-layer weak clique is folded into
/// a uniform group attraction instead of materialized as `O(n²)` edges,
/// seeded from the unchanged PG base
/// assignment exactly as the engine escalates — must produce cuts no worse
/// than the same warm-started step on the paper's literal dense SPG, judged
/// on the **dense** graph (the true Definition-4 objective), on media26 and
/// both seeded generators across the θ schedule.
#[test]
fn sparse_theta_partition_cut_is_no_worse_than_dense_on_the_dense_objective() {
    for (name, bench) in benches() {
        let graph = CommGraph::new(&bench.soc, &bench.comm);
        for (k, base_assignment) in warm_chain(&graph, &bench) {
            // Escalate θ exactly like the engine: each step warm-starts
            // from the previous assignment, the first from the PG base
            // (identical in both paths — sparsification only touches the
            // SPG's weak edges).
            let mut sparse_prev = base_assignment.clone();
            let mut dense_prev = base_assignment;
            for theta in [1.0, 4.0, 7.0, 10.0, 13.0] {
                let warm = |initial: &[u32]| {
                    PartitionConfig::k_way(k)
                        .with_seed(SEED)
                        .with_initial(initial.to_vec())
                };
                let sparse = graph.scaled_partitioning_graph(ALPHA, theta, THETA_MAX);
                let dense = dense_spg(&graph, &bench, theta);
                let sparse_parts = sparse.partition(&warm(&sparse_prev)).unwrap();
                let dense_parts = dense.partition(&warm(&dense_prev)).unwrap();
                let sparse_cut_on_dense = dense.cut_weight(sparse_parts.assignment());
                assert!(
                    sparse_cut_on_dense <= dense_parts.cut_weight + 1e-9,
                    "{name} k={k} θ={theta}: sparse-θ cut {sparse_cut_on_dense} worse than \
                     dense-θ cut {} on the dense objective",
                    dense_parts.cut_weight
                );
                sparse_prev = sparse_parts.assignment().to_vec();
                dense_prev = dense_parts.assignment().to_vec();
            }
        }
    }
}

/// The engine's partition-cache diagnostics are deterministic and identical
/// between serial and parallel sweeps, and the cache actually serves the
/// sweep: every Phase-1 candidate's base partition is a cache hit.
#[test]
fn partition_cache_stats_are_deterministic_and_meaningful() {
    let bench = media26();
    let cfg = |jobs: usize| {
        SynthesisConfig::builder()
            .switch_count_range(2, 10)
            .run_layout(false)
            .jobs(jobs)
            .build()
            .unwrap()
    };
    let serial =
        SynthesisEngine::new(&bench.soc, &bench.comm, cfg(1)).unwrap().run();
    let stats = serial.partition_stats;
    assert_eq!(stats.base_cache_hits, 9, "one base hit per Phase-1 candidate (k = 2..=10)");
    assert_eq!(stats.cold_partitions, 1, "only the chain's first count partitions cold");
    assert_eq!(
        stats.warm_partitions,
        8 + stats.spg_derivations,
        "chain warm starts (8) plus one per θ derivation"
    );
    assert!(stats.cache_hits() >= 9);
    for jobs in [2usize, 4] {
        let parallel =
            SynthesisEngine::new(&bench.soc, &bench.comm, cfg(jobs)).unwrap().run();
        assert_eq!(
            parallel.partition_stats, stats,
            "jobs={jobs}: cache counters must not depend on worker scheduling"
        );
    }
}
