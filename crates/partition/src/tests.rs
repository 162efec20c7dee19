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

/// Every action one warm k-way refinement applied, with its gain's bits,
/// then the final assignment and the applied-action count.
type RefineTrace = (Vec<(fm::Action, u64)>, Vec<u32>, u64);

/// Runs the warm k-way refinement from `initial` with `select` choosing
/// each action.
fn refine_trace(
    g: &WeightedGraph,
    initial: &[u32],
    parts: usize,
    mut select: impl FnMut(&fm::PassState<'_>, &mut fm::BlockSearch) -> Option<(fm::Action, f64)>,
) -> RefineTrace {
    let mut assignment = initial.to_vec();
    let mut ws = fm::Workspace::new(g.node_count());
    let mut log = Vec::new();
    fm::kway_fm_refine_with(g, &mut assignment, parts, 10, &mut ws, |s, search| {
        let choice = select(s, search);
        if let Some((action, gain)) = choice {
            log.push((action, gain.to_bits()));
        }
        choice
    });
    (log, assignment, ws.applied)
}

/// A seeded random graph for the action-search oracle. Integer weights
/// make equal gains common, so the tie order is exercised; an attraction
/// of weight 3 over integer edges of weight 1..=4 leaves some compensated
/// stored edges negative.
fn oracle_graph(n: usize, seed: u64, integer: bool, attraction: bool) -> WeightedGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let density = rng.gen_range(0.03..0.4);
    let mut g = WeightedGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(density) {
                let w = if integer {
                    f64::from(rng.gen_range(1u32..5))
                } else {
                    rng.gen_range(0.5..20.0)
                };
                g.add_edge(a, b, w);
            }
        }
    }
    if attraction {
        let groups = rng.gen_range(1u32..5);
        let group_of = (0..n).map(|_| rng.gen_range(0..groups)).collect();
        let weight = if integer { 3.0 } else { rng.gen_range(0.1..5.0) };
        g.set_group_attraction(group_of, weight);
    }
    g
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

    /// The block-pair action search against the vertex-pair scan it
    /// replaces: the same actions with the same gain bits, the same final
    /// assignment and the same work count — forced onto every state, and
    /// through the production path choice.
    #[test]
    fn block_search_matches_the_vertex_pair_scan(
        n in 8usize..160,
        k_pick in 0usize..10_000,
        seed in 0u64..1_000_000,
        integer in proptest::bool::ANY,
        attraction in proptest::bool::ANY,
    ) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let parts = 2 + k_pick % (n - 2);
        let g = oracle_graph(n, seed, integer, attraction);
        // A random assignment inside the near-equal size envelope.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
        let mut initial = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            initial[v] = (i % parts) as u32;
        }

        let scan = refine_trace(&g, &initial, parts, |s, _| fm::scan_best_action(s));
        let block = refine_trace(&g, &initial, parts, |s, search| search.best_action(s));
        let production = refine_trace(&g, &initial, parts, fm::select_action);
        prop_assert!(block == scan, "block search diverged from the scan (n {}, k {})", n, parts);
        prop_assert!(production == scan, "production path diverged (n {}, k {})", n, parts);
    }
}

/// The greedy growth the tournaments replaced: for every absorbed vertex, a scan
/// of the whole shuffled `order` for the first vertex with the strictly
/// largest pull. Returns the side-0 mask and how many steps a lower edge
/// pull won a rounding tie (its pull plus the group offset equal to a
/// larger edge pull's, but earlier in `order`).
fn scan_grow(
    g: &WeightedGraph,
    vertices: &[usize],
    n1: usize,
    rng: &mut rand::rngs::StdRng,
) -> (Vec<bool>, usize) {
    use rand::seq::SliceRandom;
    let m = vertices.len();
    let mut local = vec![usize::MAX; g.node_count()];
    for (i, &v) in vertices.iter().enumerate() {
        local[v] = i;
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.shuffle(rng);
    let at = g.attraction();
    let mut cnt0 = vec![0u32; at.map_or(1, |a| a.group_count().max(1))];
    let mut side0 = vec![false; m];
    let mut attraction = vec![0.0f64; m];
    let absorb = |i: usize, side0: &mut [bool], attraction: &mut [f64], cnt0: &mut [u32]| {
        side0[i] = true;
        if let Some(a) = at {
            cnt0[a.group_of()[vertices[i]] as usize] += 1;
        }
        for &(u, w) in g.neighbors(vertices[i]) {
            let lu = local[u as usize];
            if lu != usize::MAX {
                attraction[lu] += w;
            }
        }
    };
    absorb(rng.gen_range(0..m), &mut side0, &mut attraction, &mut cnt0);
    let mut rounding_ties = 0;
    for _ in 1..n1 {
        let pull = |i: usize| match at {
            Some(a) => {
                let c = cnt0[a.group_of()[vertices[i]] as usize];
                attraction[i] + a.weight() * f64::from(c)
            }
            None => attraction[i],
        };
        let mut best = usize::MAX;
        let mut best_w = f64::NEG_INFINITY;
        for &i in &order {
            if !side0[i] && pull(i) > best_w {
                best_w = pull(i);
                best = i;
            }
        }
        let group = |i: usize| at.map(|a| a.group_of()[vertices[i]]);
        let same_group = |i: usize| at.is_some() && group(i) == group(best);
        if order.iter().any(|&i| {
            !side0[i] && same_group(i) && pull(i) == best_w && attraction[i] > attraction[best]
        }) {
            rounding_ties += 1;
        }
        absorb(best, &mut side0, &mut attraction, &mut cnt0);
    }
    (side0, rounding_ties)
}

/// A seeded graph for the growth oracle. With `near_ties`, edge weights
/// come in adjacent-float pairs (`x` and the next float above it), whose
/// sums differ by an ulp that a group offset of 1 or more rounds away, so
/// lower edge pulls tie on the sum; a group attraction of 1 or 3 leaves
/// compensated same-group edges negative, so pulls also fall.
fn growth_graph(n: usize, seed: u64, near_ties: bool, attraction: bool) -> WeightedGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let density = rng.gen_range(0.05..0.5);
    let mut g = WeightedGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(density) {
                let w = if near_ties {
                    let x = [0.25, 0.5, 0.75, 1.25][rng.gen_range(0..4usize)];
                    if rng.gen_bool(0.5) { x } else { f64::next_up(x) }
                } else {
                    rng.gen_range(0.5..20.0)
                };
                g.add_edge(a, b, w);
            }
        }
    }
    if attraction {
        let groups = rng.gen_range(1u32..4);
        let group_of = (0..n).map(|_| rng.gen_range(0..groups)).collect();
        let weight =
            if near_ties { [1.0, 3.0][rng.gen_range(0..2usize)] } else { rng.gen_range(0.1..5.0) };
        g.set_group_attraction(group_of, weight);
    }
    g
}

/// One growth case: a random vertex subset of `g` in random order, grown
/// to a random `n1` from one RNG state by the rescan oracle and by the
/// production growth through tournaments, through rescans and through its
/// own choice between them. Returns the paths whose side-0 mask or final
/// RNG state differ from the oracle's, and the oracle's rounding-tie count.
fn growth_case(g: &WeightedGraph, seed: u64) -> (Vec<&'static str>, usize) {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vertices: Vec<usize> = (0..g.node_count()).collect();
    vertices.shuffle(&mut rng);
    let m = rng.gen_range(2..=vertices.len());
    vertices.truncate(m);
    let n1 = rng.gen_range(1..m);
    let start = StdRng::seed_from_u64(seed ^ 0x9e0);
    let mut oracle_rng = start.clone();
    let (oracle, ties) = scan_grow(g, &vertices, n1, &mut oracle_rng);
    let after = oracle_rng.next_u64();
    let mut diverged = Vec::new();
    let paths = [("tournaments", Some(true)), ("rescans", Some(false)), ("production", None)];
    for (path, tournaments) in paths {
        let mut rng = start.clone();
        let mask = fm::grow_side0(g, &vertices, n1, &mut rng, tournaments);
        if mask != oracle || rng.next_u64() != after {
            diverged.push(path);
        }
    }
    (diverged, ties)
}

/// The near-tie graphs do reach the rounding ties the tournaments must
/// break like the scan — so the proptest below is not vacuous — and every
/// growth path breaks them the same way.
#[test]
fn growth_oracle_graphs_reach_rounding_ties() {
    let mut ties = 0;
    for seed in 0..40u64 {
        let g = growth_graph(60, seed, true, true);
        let (diverged, t) = growth_case(&g, seed);
        assert!(diverged.is_empty(), "seed {seed}: {diverged:?} diverged from the scan");
        ties += t;
    }
    assert!(ties > 0, "no rounding tie reached");
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

    /// Tournament growth against the full-rescan growth it replaces: the
    /// same side-0 mask and the same RNG state after, with and without a
    /// group attraction, on weights that make pulls tie exactly, tie after
    /// rounding, and fall — through tournaments, through rescans and
    /// through the production choice.
    #[test]
    fn tournament_growth_matches_the_rescan(
        n in 2usize..120,
        seed in 0u64..1_000_000,
        near_ties in proptest::bool::ANY,
        attraction in proptest::bool::ANY,
    ) {
        let g = growth_graph(n, seed, near_ties, attraction);
        let (diverged, _) = growth_case(&g, seed);
        prop_assert!(diverged.is_empty(), "{:?} diverged from the scan (n {})", diverged, n);
    }
}

/// Every swap one swap polish applied, with its delta's bits, then the
/// final assignment and the applied-swap count.
type PolishTrace = (Vec<(usize, usize, u64)>, Vec<u32>, u64);

/// Runs the swap polish from `initial` with `select` choosing each swap.
fn polish_trace(
    g: &WeightedGraph,
    initial: &[u32],
    mut select: impl FnMut(
        &fm::PolishState<'_>,
        &mut fm::BlockSearch,
    ) -> Option<(usize, usize, f64)>,
) -> PolishTrace {
    let mut assignment = initial.to_vec();
    let mut ws = fm::Workspace::new(g.node_count());
    let mut log = Vec::new();
    fm::kway_swap_refine_with(g, &mut assignment, &mut ws, |s, search| {
        let choice = select(s, search);
        if let Some((u, v, delta)) = choice {
            log.push((u, v, delta.to_bits()));
        }
        choice
    });
    (log, assignment, ws.applied)
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

    /// The polish's block-pair swap search against the pair scan it
    /// replaces: the same swaps with the same delta bits, the same final
    /// assignment and the same applied count — forced onto every polish,
    /// and through the production path choice. The polish starts from a
    /// random balanced assignment (many improving swaps) or from a cold
    /// partition's recursive bisection (few, as in production).
    #[test]
    fn swap_search_matches_the_pair_scan(
        n in 6usize..160,
        k_pick in 0usize..10_000,
        seed in 0u64..1_000_000,
        integer in proptest::bool::ANY,
        attraction in proptest::bool::ANY,
        bisected in proptest::bool::ANY,
    ) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let parts = 2 + k_pick % (n - 2);
        let g = oracle_graph(n, seed, integer, attraction);
        let initial = if bisected {
            let mut out = vec![0u32; n];
            let mut vertices: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ws = fm::Workspace::new(n);
            fm::recursive_bisect(&g, &mut vertices, parts, 0, 10, &mut rng, &mut out, &mut ws);
            out
        } else {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
            let mut initial = vec![0u32; n];
            for (i, &v) in order.iter().enumerate() {
                initial[v] = (i % parts) as u32;
            }
            initial
        };

        let scan = polish_trace(&g, &initial, |s, _| fm::scan_best_swap(s));
        let block = polish_trace(&g, &initial, |s, search| search.best_swap(s));
        let production = polish_trace(&g, &initial, fm::select_swap);
        prop_assert!(block == scan, "swap search diverged from the scan (n {}, k {})", n, parts);
        prop_assert!(production == scan, "production path diverged (n {}, k {})", n, parts);
    }
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
