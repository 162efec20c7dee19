//! Cold restarts share their bisections through a graph's memo
//! ([`MemoGraph`]): every switch count of a θ step partitions one SPG, and
//! every count of the seed chain one PG. Sharing must not show: each
//! partition equals the one a fresh graph returns, `fm_moves` included,
//! whatever order the counts run in and however many threads share the
//! memo.

use std::thread;
use sunfloor_benchmarks::{distributed, pipeline_roster};
use sunfloor_core::graph::CommGraph;
use sunfloor_partition::{MemoGraph, PartitionConfig, Partitioning, WeightedGraph};

const SEED: u64 = 1000;
const ALPHA: f64 = 1.0;
const THETA_MAX: f64 = 15.0;

/// A partition's assignment, cut bits and work count.
type Result = (Vec<u32>, u64, u64);

fn result(p: &Partitioning) -> Result {
    (p.assignment().to_vec(), p.cut_weight.to_bits(), p.fm_moves())
}

/// The requests of one graph, at every switch count in `counts`: a cold
/// partition with the default restarts (eight seeds, stride 1, as the seed
/// chain's first count) and a θ step's two restarts at stride 2,
/// warm-started from a round-robin assignment.
fn requests(n: usize, counts: impl Iterator<Item = usize>) -> Vec<PartitionConfig> {
    counts
        .flat_map(|k| {
            let cold = PartitionConfig::k_way(k).with_seed(SEED);
            let mut step = cold.clone().with_initial((0..n as u32).map(|v| v % 3).collect());
            step.restarts = 2;
            step.seed_stride = 2;
            [cold, step]
        })
        .collect()
}

/// Runs `requests` on fresh graphs, then on one shared memo in ascending,
/// descending and shuffled order, then from two threads sharing one memo,
/// one in each direction. Every run must return the fresh results.
fn check_sharing(name: &str, g: &WeightedGraph, requests: &[PartitionConfig]) {
    let fresh: Vec<Result> = requests.iter().map(|cfg| result(&g.partition(cfg).unwrap())).collect();
    let run_in = |memo: &MemoGraph, order: &[usize]| {
        for &i in order {
            let got = result(&memo.partition(&requests[i]).unwrap());
            assert!(got == fresh[i], "{name}: request {i} ({} blocks) moved", requests[i].parts);
        }
    };
    let ascending: Vec<usize> = (0..requests.len()).collect();
    let descending: Vec<usize> = ascending.iter().rev().copied().collect();
    // A fixed scramble: indices ordered by a multiplicative hash.
    let mut shuffled = ascending.clone();
    shuffled.sort_by_key(|&i| (i as u64 ^ SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29));
    for order in [&ascending, &descending, &shuffled] {
        run_in(&MemoGraph::new(g.clone()), order);
    }
    let shared = MemoGraph::new(g.clone());
    thread::scope(|s| {
        s.spawn(|| run_in(&shared, &ascending));
        s.spawn(|| run_in(&shared, &descending));
    });
}

#[test]
fn d36_theta_step_spg_partitions_are_the_same_shared_or_fresh() {
    let bench = distributed(8);
    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let spg = graph.scaled_partitioning_graph(ALPHA, 7.0, THETA_MAX);
    assert!(spg.attraction().is_some(), "the θ-step SPG must carry a group attraction");
    check_sharing("D_36_8 θ = 7 SPG", &spg, &requests(36, 1..=36));
}

#[test]
fn pipe128_pg_partitions_are_the_same_shared_or_fresh() {
    let bench = pipeline_roster(128, 1000);
    let pg = CommGraph::new(&bench.soc, &bench.comm).partitioning_graph(ALPHA);
    check_sharing("pipe128 PG", &pg, &requests(128, 1..=32));
}
