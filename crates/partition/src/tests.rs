use super::*;
use proptest::prelude::*;
use rand::Rng;

/// Enumerates every balanced 2-way split of an `n`-vertex graph and returns
/// the optimal cut (used as ground truth on tiny instances).
fn brute_force_bisection(g: &WeightedGraph) -> f64 {
    let n = g.node_count();
    let n1 = n.div_ceil(2);
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        if mask.count_ones() as usize != n1 {
            continue;
        }
        let assignment: Vec<u32> =
            (0..n).map(|v| u32::from(mask & (1 << v) != 0)).collect();
        best = best.min(g.cut_weight(&assignment));
    }
    best
}

fn random_graph(n: usize, density: f64, seed: u64) -> WeightedGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = WeightedGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(density) {
                g.add_edge(a, b, rng.gen_range(0.5..20.0));
            }
        }
    }
    g
}

#[test]
fn one_part_is_trivial() {
    let g = random_graph(10, 0.5, 1);
    let p = g.partition(&PartitionConfig::k_way(1)).unwrap();
    assert_eq!(p.cut_weight, 0.0);
    assert!(p.assignment().iter().all(|&x| x == 0));
}

#[test]
fn n_parts_puts_each_vertex_alone() {
    let g = random_graph(6, 0.8, 2);
    let p = g.partition(&PartitionConfig::k_way(6)).unwrap();
    assert_eq!(p.part_sizes(), vec![1; 6]);
    assert!((p.cut_weight - g.total_weight()).abs() < 1e-9);
}

#[test]
fn zero_parts_rejected() {
    let g = WeightedGraph::new(3);
    assert_eq!(g.partition(&PartitionConfig::k_way(0)), Err(PartitionError::ZeroParts));
}

#[test]
fn too_many_parts_rejected() {
    let g = WeightedGraph::new(3);
    let err = g.partition(&PartitionConfig::k_way(4)).unwrap_err();
    assert_eq!(err, PartitionError::TooManyParts { parts: 4, vertices: 3 });
    assert!(err.to_string().contains("4 blocks"));
}

#[test]
fn finds_optimal_bisection_on_small_graphs() {
    for seed in 0..12u64 {
        for n in [6usize, 8, 10] {
            let g = random_graph(n, 0.55, seed * 31 + n as u64);
            let cfg = PartitionConfig::k_way(2).with_restarts(24);
            let p = g.partition(&cfg).unwrap();
            let opt = brute_force_bisection(&g);
            assert!(
                p.cut_weight <= opt + 1e-9,
                "seed {seed} n {n}: got {} vs optimal {opt}",
                p.cut_weight
            );
        }
    }
}

#[test]
fn clustered_graph_separates_clusters() {
    // Three heavy 4-cliques, lightly interconnected.
    let mut g = WeightedGraph::new(12);
    for c in 0..3usize {
        for a in 0..4usize {
            for b in (a + 1)..4 {
                g.add_edge(4 * c + a, 4 * c + b, 50.0);
            }
        }
    }
    g.add_edge(0, 4, 1.0);
    g.add_edge(4, 8, 1.0);
    g.add_edge(8, 0, 1.0);
    let p = g.partition(&PartitionConfig::k_way(3)).unwrap();
    assert_eq!(p.cut_weight, 3.0, "only the three light edges should be cut");
    for c in 0..3 {
        let label = p.part_of(4 * c);
        for v in 1..4 {
            assert_eq!(p.part_of(4 * c + v), label, "clique {c} split");
        }
    }
}

#[test]
fn deterministic_for_same_seed() {
    let g = random_graph(20, 0.3, 7);
    let cfg = PartitionConfig::k_way(4).with_seed(99);
    let a = g.partition(&cfg).unwrap();
    let b = g.partition(&cfg).unwrap();
    assert_eq!(a, b);
}

#[test]
fn disconnected_graph_is_handled() {
    let g = WeightedGraph::new(9); // no edges at all
    let p = g.partition(&PartitionConfig::k_way(3)).unwrap();
    assert_eq!(p.cut_weight, 0.0);
    let mut sizes = p.part_sizes();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![3, 3, 3]);
}

#[test]
fn members_into_and_iter_match_members() {
    let g = random_graph(14, 0.4, 11);
    let p = g.partition(&PartitionConfig::k_way(4).with_seed(3)).unwrap();
    let mut buf = Vec::new();
    for block in 0..4u32 {
        let owned = p.members(block);
        p.members_into(block, &mut buf);
        assert_eq!(buf, owned, "members_into disagrees for block {block}");
        let collected: Vec<usize> = p.members_iter(block).collect();
        assert_eq!(collected, owned, "members_iter disagrees for block {block}");
    }
    // The buffer is cleared between calls, so reuse never accumulates.
    p.members_into(0, &mut buf);
    let first = buf.clone();
    p.members_into(0, &mut buf);
    assert_eq!(buf, first);
}

#[test]
fn warm_start_is_deterministic_and_never_worse_than_its_cold_run() {
    for seed in [0u64, 7, 99] {
        let g = random_graph(18, 0.35, seed.wrapping_mul(13).wrapping_add(5));
        for parts in [2usize, 3, 5] {
            let cold = g.partition(&PartitionConfig::k_way(parts).with_seed(seed)).unwrap();
            let warm_cfg = PartitionConfig::k_way(parts)
                .with_seed(seed)
                .with_initial(cold.assignment().to_vec());
            let warm = g.partition(&warm_cfg).unwrap();
            assert_eq!(warm, g.partition(&warm_cfg).unwrap(), "warm run not deterministic");
            assert!(
                warm.cut_weight <= cold.cut_weight + 1e-9,
                "warm start degraded the cut: {} vs {}",
                warm.cut_weight,
                cold.cut_weight
            );
            let sizes = warm.part_sizes();
            let (min, max) =
                (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(min >= 1 && max - min <= 1, "imbalanced warm result: {sizes:?}");
        }
    }
}

#[test]
fn warm_start_adapts_initials_with_wrong_block_counts() {
    // Growing: a k=3 assignment seeds a k=5 request; shrinking: a k=5
    // assignment seeds a k=3 request. Both must normalize, stay balanced
    // and stay deterministic.
    let g = random_graph(20, 0.4, 77);
    let three = g.partition(&PartitionConfig::k_way(3).with_seed(1)).unwrap();
    let five_cfg = PartitionConfig::k_way(5)
        .with_seed(1)
        .with_initial(three.assignment().to_vec());
    let five = g.partition(&five_cfg).unwrap();
    assert_eq!(five.part_count(), 5);
    let sizes = five.part_sizes();
    assert!(sizes.iter().all(|&s| s == 4), "5-way split of 20: {sizes:?}");

    let back_cfg = PartitionConfig::k_way(3)
        .with_seed(1)
        .with_initial(five.assignment().to_vec());
    let back = g.partition(&back_cfg).unwrap();
    assert_eq!(back.part_count(), 3);
    let sizes = back.part_sizes();
    assert!(
        sizes.iter().all(|&s| (6..=7).contains(&s)),
        "3-way split of 20: {sizes:?}"
    );
    assert_eq!(back, g.partition(&back_cfg).unwrap());
}

#[test]
fn warm_only_run_is_allowed_with_zero_restarts() {
    let g = random_graph(16, 0.4, 5);
    let cold = g.partition(&PartitionConfig::k_way(4).with_seed(9)).unwrap();
    let mut cfg =
        PartitionConfig::k_way(4).with_seed(9).with_initial(cold.assignment().to_vec());
    cfg.restarts = 0;
    let warm = g.partition(&cfg).unwrap();
    assert_eq!(warm.part_count(), 4);
    assert!(warm.cut_weight <= cold.cut_weight + 1e-9);
    let sizes = warm.part_sizes();
    assert!(sizes.iter().all(|&s| s == 4), "balanced warm-only result: {sizes:?}");
}

#[test]
fn wrong_length_initial_is_ignored_not_fatal() {
    let g = random_graph(12, 0.4, 3);
    let cfg = PartitionConfig::k_way(3).with_seed(2).with_initial(vec![0, 1, 2]);
    let with_bad_initial = g.partition(&cfg).unwrap();
    let cold = g.partition(&PartitionConfig::k_way(3).with_seed(2)).unwrap();
    assert_eq!(with_bad_initial, cold, "a wrong-length initial must fall back to cold");
}

proptest! {
    #[test]
    fn warm_start_from_arbitrary_labels_stays_balanced(
        n in 6usize..24,
        parts in 2usize..5,
        seed in 0u64..60,
    ) {
        prop_assume!(parts <= n);
        let g = random_graph(n, 0.35, seed.wrapping_mul(41));
        // An arbitrary (often unbalanced, wrongly-sized) initial labeling.
        let initial: Vec<u32> = (0..n).map(|v| (v as u32).wrapping_mul(7) % 9).collect();
        let cfg = PartitionConfig::k_way(parts).with_seed(seed).with_initial(initial);
        let p = g.partition(&cfg).unwrap();
        let sizes = p.part_sizes();
        prop_assert_eq!(sizes.len(), parts);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(min >= 1 && max - min <= 1, "imbalanced: {:?}", sizes);
        prop_assert!((p.cut_weight - g.cut_weight(p.assignment())).abs() < 1e-9);
    }

    #[test]
    fn sizes_are_balanced(n in 4usize..40, parts in 2usize..6, seed in 0u64..500) {
        prop_assume!(parts <= n);
        let g = random_graph(n, 0.35, seed);
        let p = g.partition(&PartitionConfig::k_way(parts).with_seed(seed)).unwrap();
        let sizes = p.part_sizes();
        prop_assert_eq!(sizes.len(), parts);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(min >= 1, "empty block");
        prop_assert!(max - min <= 1, "imbalanced blocks: {:?}", sizes);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn reported_cut_matches_recomputation(n in 4usize..30, parts in 2usize..5, seed in 0u64..200) {
        prop_assume!(parts <= n);
        let g = random_graph(n, 0.4, seed.wrapping_mul(17));
        let p = g.partition(&PartitionConfig::k_way(parts).with_seed(seed)).unwrap();
        let recomputed = g.cut_weight(p.assignment());
        prop_assert!((p.cut_weight - recomputed).abs() < 1e-9);
    }

    #[test]
    fn cut_never_exceeds_total_weight(n in 4usize..30, parts in 2usize..6, seed in 0u64..200) {
        prop_assume!(parts <= n);
        let g = random_graph(n, 0.5, seed.wrapping_mul(29));
        let p = g.partition(&PartitionConfig::k_way(parts).with_seed(seed)).unwrap();
        prop_assert!(p.cut_weight <= g.total_weight() + 1e-9);
    }

    #[test]
    fn members_and_assignment_agree(n in 4usize..25, parts in 2usize..5, seed in 0u64..100) {
        prop_assume!(parts <= n);
        let g = random_graph(n, 0.4, seed);
        let p = g.partition(&PartitionConfig::k_way(parts).with_seed(seed)).unwrap();
        for block in 0..parts as u32 {
            for v in p.members(block) {
                prop_assert_eq!(p.part_of(v), block);
            }
        }
    }
}
