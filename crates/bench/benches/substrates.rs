//! Criterion benchmarks for the substrate algorithms: min-cut partitioning,
//! switch placement, floorplan insertion and the mesh-mapping baseline.
//! These are the inner loops whose cost the paper's runtime claim ("a few
//! seconds per topology") rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sunfloor_baselines::{optimized_mesh, MeshConfig};
use sunfloor_benchmarks::{distributed, media26, pipeline_roster, Benchmark};
use sunfloor_core::graph::{CommGraph, PartitionCache};
use sunfloor_core::paths::{PathAllocator, PathConfig};
use sunfloor_core::phase1;
use sunfloor_floorplan::{
    anneal, anneal_tempered, insert_components, AnnealConfig, AnnealInput, Block, InsertRequest,
    Net, PackScratch, PlacedBlock, SequencePair, TemperConfig,
};
use sunfloor_lp::{PlacementProblem, PlacementWorkspace};
use sunfloor_models::NocLibrary;
use sunfloor_partition::{MemoGraph, PartitionConfig};

fn bench_partition(c: &mut Criterion) {
    let bench = media26();
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let pg = graph.partitioning_graph(1.0);
    let mut group = c.benchmark_group("partition_media26");
    for parts in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &parts| {
            b.iter(|| pg.partition(black_box(&PartitionConfig::k_way(parts))).unwrap());
        });
    }
    group.finish();
}

/// A placement problem at the scale of the 65-core design: 12 switches,
/// 65 core pins, a ring plus chords of switch-switch attractions, and the
/// switches' estimated positions on a diagonal.
fn placement_65core_scale() -> (PlacementProblem, Vec<(f64, f64)>) {
    let mut p = PlacementProblem::new(12);
    for k in 0..65usize {
        p.attract_to_fixed(
            k % 12,
            ((k % 8) as f64 * 2.0, (k / 8) as f64 * 2.0),
            1.0 + (k % 5) as f64,
        );
    }
    for s in 0..12usize {
        p.attract_pair(s, (s + 1) % 12, 2.0);
        if s % 3 == 0 {
            p.attract_pair(s, (s + 5) % 12, 1.0);
        }
    }
    let near = (0..12).map(|s| (s as f64 * 1.3, s as f64 * 1.3)).collect();
    (p, near)
}

/// The min-cut placement at the 65-core scale, through one reused
/// [`PlacementWorkspace`] as the engine's placement solver runs it.
fn bench_placement(c: &mut Criterion) {
    let (p, near) = placement_65core_scale();
    let mut group = c.benchmark_group("placement");
    group.bench_function("65core", |b| {
        let mut ws = PlacementWorkspace::new();
        let mut pos = near.clone();
        b.iter(|| {
            pos.copy_from_slice(&near);
            black_box(&p).solve_in(&mut pos, &mut ws);
        });
    });
    group.finish();
}

fn bench_insertion(c: &mut Criterion) {
    // Tightly packed 5x5 core grid plus 8 switches to shove in.
    let cores: Vec<PlacedBlock> = (0..25)
        .map(|i| {
            PlacedBlock::new(
                Block::new(format!("c{i}"), 2.0, 2.0),
                f64::from(i % 5) * 2.0,
                f64::from(i / 5) * 2.0,
            )
        })
        .collect();
    let requests: Vec<InsertRequest> = (0..8)
        .map(|i| {
            InsertRequest::new(
                Block::new(format!("sw{i}"), 0.6, 0.6),
                (f64::from(i) * 1.2 + 0.5, 9.0 - f64::from(i)),
            )
        })
        .collect();
    c.bench_function("floorplan_insertion_25cores_8switches", |b| {
        b.iter(|| insert_components(black_box(&cores), black_box(&requests), 3.0));
    });

    // Zero-gap 14x14 grid of 0.5 mm cores with a 0.1 mm TSV macro aimed at
    // its middle: the 0.05 mm step floor gives 60 rings within the 3 mm
    // radius and none holds free space, so the request tests all 7320
    // candidates before it shoves (the 25-core case above mostly finds
    // space on an early ring).
    let grid: Vec<PlacedBlock> = (0..14 * 14)
        .map(|i| {
            PlacedBlock::new(
                Block::new(format!("c{i}"), 0.5, 0.5),
                f64::from(i % 14) * 0.5,
                f64::from(i / 14) * 0.5,
            )
        })
        .collect();
    let macros = [InsertRequest::new(Block::new("tsv", 0.1, 0.1), (3.55, 3.55))];
    c.bench_function("floorplan_insertion_shove_heavy", |b| {
        b.iter(|| insert_components(black_box(&grid), black_box(&macros), 3.0));
    });

    // The same grid with eight macros in one call, aimed along its
    // diagonal: later requests reuse the rings earlier ones computed.
    let macros: Vec<InsertRequest> = (0..8)
        .map(|i| {
            let at = 0.55 + 0.8 * f64::from(i);
            InsertRequest::new(Block::new(format!("tsv{i}"), 0.1, 0.1), (at, at))
        })
        .collect();
    c.bench_function("floorplan_insertion_shove_heavy_8req", |b| {
        b.iter(|| insert_components(black_box(&grid), black_box(&macros), 3.0));
    });
}

fn bench_phase1_connectivity(c: &mut Criterion) {
    let bench = distributed(6);
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    c.bench_function("phase1_connectivity_d36_6", |b| {
        b.iter(|| {
            phase1::connectivity(black_box(&graph), &bench.soc, 6, 1.0, None, 15.0, 1).unwrap()
        });
    });
}

/// The indexed routing core: one full flow-routing pass per iteration with
/// a reused [`PathAllocator`], the per-candidate hot path of the sweep. On
/// media26 (4 and 8 switches) and on `D_36_8` with 24 and 36 switches (the
/// most its sweep tries), where each Dijkstra settle prices a row of up to
/// 36 switch pairs.
fn bench_router(c: &mut Criterion) {
    route_flows(c, "route_flows_media26", &media26(), &[4, 8]);
    route_flows(c, "route_flows_d36_8", &distributed(8), &[24, 36]);
}

fn route_flows(c: &mut Criterion, name: &str, bench: &Benchmark, switches: &[usize]) {
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let lib = NocLibrary::lp65();
    let mut group = c.benchmark_group(name);
    for &k in switches {
        let conn =
            phase1::connectivity(&graph, &bench.soc, k, 0.6, None, 15.0, 0xC0FFEE).unwrap();
        let cfg = PathConfig::new(25, lib.switch.max_size_for_frequency(400.0), 400.0);
        let mut alloc = PathAllocator::new();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| alloc.compute_paths(black_box(&graph), &conn, &lib, &cfg, 0.6).unwrap());
        });
    }
    group.finish();
}

/// The unconstrained annealer with nets (20 blocks, 10 nets, one chain):
/// mutate-and-undo moves, cached per-net bounding boxes and a reused
/// packing scratch. `anneal_tempered_layer` times the constrained layer
/// the engine anneals.
fn bench_annealer(c: &mut Criterion) {
    let blocks: Vec<Block> = (0..20)
        .map(|i| {
            Block::new(
                format!("b{i}"),
                1.0 + f64::from(i % 4) * 0.7,
                1.0 + f64::from(i % 3) * 0.9,
            )
        })
        .collect();
    let nets: Vec<Net> =
        (0..10).map(|i| Net::two_pin(i, (i + 7) % 20, 1.0 + i as f64)).collect();
    let mut group = c.benchmark_group("anneal_20blocks");
    group.sample_size(10);
    for iters in [5_000u32, 30_000] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &iters| {
            let cfg = AnnealConfig::default().with_iterations(iters).with_seed(42);
            b.iter(|| anneal(black_box(&blocks), &nets, &cfg));
        });
    }
    group.finish();
}

/// Warm-started Phase-1 partitioning: the
/// adjacent-switch-count chain step every sweep candidate pays, next to
/// the from-scratch cold call it replaced.
fn bench_partition_warm(c: &mut Criterion) {
    let bench = media26();
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let mut cache = PartitionCache::new();
    let prev = phase1::connectivity_cached(
        &graph, &bench.soc, 7, 0.6, None, 15.0, 0xC0FFEE, None, &mut cache,
    )
    .unwrap();
    let warm: Vec<u32> = prev.core_attach.iter().map(|&a| a as u32).collect();
    let mut group = c.benchmark_group("partition_phase1_media26_k8");
    group.bench_function("warm_chain_step", |b| {
        b.iter(|| {
            phase1::connectivity_cached(
                black_box(&graph),
                &bench.soc,
                8,
                0.6,
                None,
                15.0,
                0xC0FFEE,
                Some(&warm),
                &mut cache,
            )
            .unwrap()
        });
    });
    group.bench_function("cold_from_scratch", |b| {
        b.iter(|| {
            phase1::connectivity(black_box(&graph), &bench.soc, 8, 0.6, None, 15.0, 0xC0FFEE)
                .unwrap()
        });
    });
    group.finish();
}

/// The warm chain step on a 128-core pipeline at k = 15, seeded by the
/// k = 14 partition: blocks of about 8 cores, so the warm k-way
/// refinement selects its actions by block-pair search (the media26 k = 8
/// step's blocks of about 3 take the vertex-pair scan).
fn bench_partition_warm_pipe128(c: &mut Criterion) {
    let bench = pipeline_roster(128, 1000);
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let mut cache = PartitionCache::new();
    let prev = phase1::connectivity_cached(
        &graph, &bench.soc, 14, 0.6, None, 15.0, 0xC0FFEE, None, &mut cache,
    )
    .unwrap();
    let warm: Vec<u32> = prev.core_attach.iter().map(|&a| a as u32).collect();
    let mut group = c.benchmark_group("partition_warm_pipe128");
    group.bench_function("warm_chain_step_k15", |b| {
        b.iter(|| {
            phase1::connectivity_cached(
                black_box(&graph),
                &bench.soc,
                15,
                0.6,
                None,
                15.0,
                0xC0FFEE,
                Some(&warm),
                &mut cache,
            )
            .unwrap()
        });
    });
    group.finish();
}

/// One θ step at every switch count of `D_36_8` (θ = 7, each count
/// warm-started from its seed-chain partition), all on one SPG as a run's
/// steps at one θ are: the counts' cold restarts share their bisections
/// through the SPG's memo. Each iteration builds the SPG, so it pays what
/// a run pays per θ.
fn bench_partition_theta_d36(c: &mut Criterion) {
    const SEED: u64 = 1000;
    let bench = distributed(8);
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let pg = MemoGraph::new(graph.partitioning_graph(1.0));
    let mut cache = PartitionCache::new();
    let mut seeds: Vec<(usize, Vec<u32>)> = Vec::new();
    for k in 1..=bench.soc.core_count() {
        let prev = seeds.last().map(|(_, a)| a.as_slice());
        let conn = phase1::connectivity_on(&pg, &bench.soc, k, None, SEED, prev, &mut cache)
            .unwrap();
        seeds.push((k, conn.core_attach.iter().map(|&a| a as u32).collect()));
    }
    let mut group = c.benchmark_group("partition_theta_d36");
    group.bench_function("every_count_theta7", |b| {
        b.iter(|| {
            let spg = MemoGraph::new(black_box(&graph).scaled_partitioning_graph(1.0, 7.0, 15.0));
            for (k, seed) in &seeds {
                phase1::connectivity_on(&spg, &bench.soc, *k, Some(7.0), SEED, Some(seed), &mut cache)
                    .unwrap();
            }
        });
    });
    group.finish();
}

/// Cold k-way partitions of a 256-core pipeline's PG with the default
/// restarts: recursive bisection (greedy growth, FM passes) and the swap
/// polish, on blocks of about 16 and 8 cores — both counts run the
/// polish's block-pair swap search.
fn bench_partition_cold_pipe256(c: &mut Criterion) {
    let bench = pipeline_roster(256, 5000);
    let pg = CommGraph::new(&bench.soc, &bench.comm).partitioning_graph(0.6);
    let mut group = c.benchmark_group("partition_cold_pipe256");
    for parts in [16usize, 31] {
        group.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &parts| {
            b.iter(|| pg.partition(black_box(&PartitionConfig::k_way(parts))).unwrap());
        });
    }
    group.finish();
}

/// The θ-escalation SPG at the media26 escalation point (k=8, θ=7): the
/// sparse production path, which folds the same-layer weak clique into a
/// group attraction and keeps the `O(|flows|)` edge set. Each iteration
/// builds the graph and runs the k-way partition — the whole cost a
/// θ-retry pays.
fn bench_theta_sparse(c: &mut Criterion) {
    let bench = media26();
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let mut group = c.benchmark_group("theta_sparse");
    group.bench_function("sparse_fold", |b| {
        b.iter(|| {
            let spg =
                black_box(&graph).scaled_partitioning_graph(0.6, 7.0, 15.0);
            spg.partition(&PartitionConfig::k_way(8)).unwrap()
        });
    });
    group.finish();
}

/// The Tang/Wong O(n log n) LCS packer at the annealer's bench scale (20)
/// and the 65-core pipeline scale where the asymptotics dominate.
fn bench_pack_lcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack_lcs_vs_longest_path");
    for n in [20usize, 65] {
        let blocks: Vec<Block> = (0..n)
            .map(|i| {
                Block::new(
                    format!("b{i}"),
                    1.0 + (i % 5) as f64 * 0.6,
                    1.0 + (i % 4) as f64 * 0.8,
                )
            })
            .collect();
        let sp = SequencePair::identity(n);
        let rotated = vec![false; n];
        let mut scratch = PackScratch::default();
        group.bench_with_input(BenchmarkId::new("lcs", n), &n, |b, _| {
            b.iter(|| sp.pack_into(black_box(&blocks), &rotated, &mut scratch));
        });
    }
    group.finish();
}

/// The parallel-tempering annealer at the 65-block pipeline scale: the
/// serial chain (one replica is what `anneal` runs) against 2 and 4
/// exchange-coupled replicas at the same per-replica budget. Wall-clock
/// stays near the serial chain while the aggregate move budget scales with
/// the replica count.
fn bench_anneal_tempering(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("anneal_tempering_65blocks");
    group.sample_size(10);
    for replicas in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(replicas),
            &replicas,
            |b, &replicas| {
                let cfg = TemperConfig {
                    base: AnnealConfig::default().with_iterations(10_000).with_seed(0xF1A7),
                    replicas,
                    ..TemperConfig::default()
                };
                b.iter(|| anneal_tempered(black_box(&input), &nets, &cfg));
            },
        );
    }
    group.finish();
}

/// One layer of the tempered layout at the engine's configuration: 10
/// order-frozen cores on a grid and 5 square NoC components (switches and
/// TSV macros, not rotatable, like the engine's) pulled toward ideal
/// centers at weight 2.0, no nets, 2 replicas × 8,000 moves multiplexed
/// onto one thread (what a parallel sweep's worker runs per layer).
fn bench_anneal_tempered_layer(c: &mut Criterion) {
    let mut placed: Vec<PlacedBlock> = (0..10)
        .map(|i| {
            let (col, row) = (f64::from(i % 4), f64::from(i / 4));
            let block = Block::new(format!("core{i}"), 1.5 + col * 0.2, 1.2 + row * 0.3);
            PlacedBlock::new(block, col * 2.2, row * 2.0)
        })
        .collect();
    let mut ideal = vec![None; placed.len()];
    for k in 0..5 {
        let side = 0.4 + f64::from(k % 3) * 0.1;
        let (x, y) = (1.0 + f64::from(k) * 1.6, 0.9 + f64::from(k % 2) * 2.1);
        let block = Block::new(format!("sw{k}"), side, side);
        placed.push(PlacedBlock::new(block, x - side / 2.0, y - side / 2.0));
        ideal.push(Some((x, y, 2.0)));
    }
    let input = AnnealInput {
        seed: SequencePair::from_placement(&placed),
        blocks: placed.iter().map(|p| p.block.clone()).collect(),
        ideal,
        fixed_order_count: 10,
    };
    let cfg = TemperConfig {
        base: AnnealConfig::default().with_iterations(8_000).with_seed(1000),
        replicas: 2,
        threads: 1,
        ..TemperConfig::default()
    };
    let mut group = c.benchmark_group("anneal_tempered_layer");
    group.sample_size(10);
    group.bench_function("15blocks_5movable", |b| {
        b.iter(|| anneal_tempered(black_box(&input), &[], &cfg));
    });
    group.finish();
}

fn bench_mesh_mapping(c: &mut Criterion) {
    let bench = distributed(4);
    let lib = NocLibrary::lp65();
    let cfg = MeshConfig { sa_iterations: 5_000, ..MeshConfig::default() };
    c.bench_function("mesh_mapping_d36_4", |b| {
        b.iter(|| optimized_mesh(black_box(&bench), &lib, &cfg));
    });
}

criterion_group!(
    benches,
    bench_partition,
    bench_partition_warm,
    bench_partition_warm_pipe128,
    bench_partition_cold_pipe256,
    bench_partition_theta_d36,
    bench_placement,
    bench_insertion,
    bench_phase1_connectivity,
    bench_router,
    bench_theta_sparse,
    bench_annealer,
    bench_anneal_tempering,
    bench_anneal_tempered_layer,
    bench_pack_lcs,
    bench_mesh_mapping
);
criterion_main!(benches);
