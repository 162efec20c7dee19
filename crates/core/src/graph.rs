//! Communication graph and the derived partitioning graphs.
//!
//! Definition 2 (communication graph), Definition 3 (partitioning graph PG),
//! Definition 4 (scaled partitioning graph SPG, eq. 1) and Definition 5
//! (layer partitioning graph LPG) of the paper.

use crate::spec::{CommSpec, MessageType, SocSpec};
use sunfloor_partition::WeightedGraph;

/// One edge of the communication graph: a traffic flow between two cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEdge {
    /// Source core index.
    pub src: usize,
    /// Destination core index.
    pub dst: usize,
    /// Bandwidth in megabytes per second.
    pub bandwidth_mbs: f64,
    /// Latency budget in cycles.
    pub latency_cycles: f64,
    /// Index of the flow in the communication specification.
    pub flow: usize,
    /// Message class (request/response).
    pub class: MessageType,
}

/// The directed communication graph `G(V, E)`: one vertex per core, one edge
/// per traffic flow, annotated with bandwidth and latency constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct CommGraph {
    n: usize,
    edges: Vec<CommEdge>,
    max_bw: f64,
    min_lat: f64,
    /// Each core's layer, in core order.
    core_layers: Vec<u32>,
    /// The stack height.
    layers: u32,
}

impl CommGraph {
    /// Builds the communication graph from the two specifications.
    #[must_use]
    pub fn new(soc: &SocSpec, comm: &CommSpec) -> Self {
        let edges: Vec<CommEdge> = comm
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| CommEdge {
                src: f.src,
                dst: f.dst,
                bandwidth_mbs: f.bandwidth_mbs,
                latency_cycles: f.max_latency_cycles,
                flow: i,
                class: f.message_type,
            })
            .collect();
        let max_bw = edges.iter().map(|e| e.bandwidth_mbs).fold(0.0, f64::max);
        let min_lat = edges.iter().map(|e| e.latency_cycles).fold(f64::INFINITY, f64::min);
        Self {
            n: soc.core_count(),
            edges,
            max_bw,
            min_lat,
            core_layers: soc.cores.iter().map(|c| c.layer).collect(),
            layers: soc.layers,
        }
    }

    /// Number of cores (vertices).
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.n
    }

    /// Largest bandwidth over all flows (`max_bw` in Definition 3).
    #[must_use]
    pub fn max_bandwidth_mbs(&self) -> f64 {
        self.max_bw
    }

    /// Each core's layer, in core order.
    #[must_use]
    pub fn core_layers(&self) -> &[u32] {
        &self.core_layers
    }

    /// Number of layers in the stack.
    #[must_use]
    pub fn layers(&self) -> u32 {
        self.layers
    }

    /// Definition 3 edge weight: `h = α·bw/max_bw + (1−α)·min_lat/lat`.
    #[must_use]
    pub fn edge_weight(&self, bandwidth_mbs: f64, latency_cycles: f64, alpha: f64) -> f64 {
        let bw_term = if self.max_bw > 0.0 { bandwidth_mbs / self.max_bw } else { 0.0 };
        let lat_term = if self.min_lat.is_finite() && latency_cycles > 0.0 {
            self.min_lat / latency_cycles
        } else {
            0.0
        };
        alpha * bw_term + (1.0 - alpha) * lat_term
    }

    /// Maximum Definition-3 weight over all edges (`max_wt` in eq. 1).
    #[must_use]
    pub fn max_weight(&self, alpha: f64) -> f64 {
        self.edges
            .iter()
            .map(|e| self.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha))
            .fold(0.0, f64::max)
    }

    /// The **PG** (Definition 3): same vertices/edges as the communication
    /// graph, with α-combined weights, folded to the undirected form the
    /// min-cut partitioner consumes.
    #[must_use]
    pub fn partitioning_graph(&self, alpha: f64) -> WeightedGraph {
        let mut g = WeightedGraph::new(self.n);
        for e in &self.edges {
            g.add_edge(e.src, e.dst, self.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha));
        }
        g
    }

    /// The **SPG** (Definition 4, eq. 1): inter-layer edge weights are scaled
    /// down by `θ·|Δlayer|` and weak edges of weight `θ·max_wt/(10·θ_max)`
    /// are added between core pairs sharing a layer, so the partitioner is
    /// pulled towards same-layer clusters and the number of inter-layer
    /// links shrinks.
    ///
    /// The weak same-layer clique of eq. (1) is **not materialized**: it is
    /// folded into the graph as a [`sunfloor_partition`] group attraction —
    /// one implicit complete graph per layer with the uniform weak weight,
    /// accounted for analytically (from per-(layer, block) member counts)
    /// inside every cut evaluation and FM gain. The objective is exactly the
    /// dense Definition-4 one (same-layer flow edges are compensated by the
    /// weak weight, so pair totals match the dense graph's edge weights),
    /// but the partitioner only ever touches the `O(|flows|)` edge set
    /// instead of the paper's literal `O(n²)` one. The only divergence is a
    /// zero-weight flow on a same-layer pair: the literal dense builder
    /// suppresses that pair's weak edge, the fold still attracts it — a
    /// weightless flow carries no Definition-3 signal either way.
    /// `tests/partition_warm.rs` pins the folded cut against a dense
    /// reference that materializes every weak edge, on every in-tree
    /// benchmark.
    #[must_use]
    pub fn scaled_partitioning_graph(
        &self,
        alpha: f64,
        theta: f64,
        theta_max: f64,
    ) -> WeightedGraph {
        let mut g = WeightedGraph::new(self.n);
        let max_wt = self.max_weight(alpha);
        // eq. (1), case 3: weight of the added same-layer edges.
        let intra_extra = theta * max_wt / (10.0 * theta_max);
        for e in &self.edges {
            let h = self.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha);
            let (ls, ld) = (self.core_layers[e.src], self.core_layers[e.dst]);
            let w = if ls == ld {
                h
            } else {
                let dist = f64::from(ls.abs_diff(ld));
                h / (theta * dist)
            };
            g.add_edge(e.src, e.dst, w);
        }
        if intra_extra > 0.0 && self.n > 0 {
            g.set_group_attraction(self.core_layers.clone(), intra_extra);
        }
        g
    }

    /// The **LPG** for `layer` (Definition 5): vertices are only that layer's
    /// cores (returned as the mapping `local -> global core index`), edges
    /// are the intra-layer flows with Definition-3 weights, and isolated
    /// vertices get near-zero edges to every other vertex so the partitioner
    /// still has freedom to place them.
    #[must_use]
    pub fn layer_partitioning_graph(&self, layer: u32, alpha: f64) -> (WeightedGraph, Vec<usize>) {
        let members: Vec<usize> = (0..self.n).filter(|&c| self.core_layers[c] == layer).collect();
        let mut local_of = vec![usize::MAX; self.n];
        for (l, &g) in members.iter().enumerate() {
            local_of[g] = l;
        }
        let m = members.len();
        let mut g = WeightedGraph::new(m);
        let mut connected = vec![false; m];
        for e in &self.edges {
            let (ls, ld) = (local_of[e.src], local_of[e.dst]);
            if ls != usize::MAX && ld != usize::MAX {
                g.add_edge(ls, ld, self.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha));
                connected[ls] = true;
                connected[ld] = true;
            }
        }
        // Near-zero edges from isolated vertices to everyone in the layer.
        let tiny = (self.max_weight(alpha) * 1e-4).max(1e-9);
        for (v, &is_connected) in connected.iter().enumerate() {
            if !is_connected {
                for u in 0..m {
                    if u != v {
                        g.add_edge(v, u, tiny);
                    }
                }
            }
        }
        (g, members)
    }

    /// All edges (one per flow, in flow order).
    #[must_use]
    pub fn edge_list(&self) -> &[CommEdge] {
        &self.edges
    }

    /// Flow indices in decreasing Definition-3 criticality (ties broken by
    /// flow index, so the order is deterministic) — the routing order of
    /// §VI.
    #[must_use]
    pub fn flows_by_criticality(&self, alpha: f64) -> Vec<usize> {
        let mut order = Vec::new();
        let mut weights = Vec::new();
        self.flows_by_criticality_into(alpha, &mut order, &mut weights);
        order
    }

    /// [`Self::flows_by_criticality`] into caller-provided buffers (`order`
    /// receives the result; `weights` is pure scratch), so hot loops — the
    /// per-candidate router — reuse both allocations.
    pub fn flows_by_criticality_into(
        &self,
        alpha: f64,
        order: &mut Vec<usize>,
        weights: &mut Vec<f64>,
    ) {
        order.clear();
        order.extend(0..self.edges.len());
        // Weights are precomputed once: the comparator runs O(n log n)
        // times and `edge_weight` is not free.
        weights.clear();
        weights.extend(
            self.edges.iter().map(|e| self.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha)),
        );
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    }
}

/// Deterministic counters of how the Phase-1 partitioning work was served.
///
/// In a synthesis outcome every field counts partitions actually computed
/// (or seed lookups), attributed in candidate order, so serial and
/// parallel sweeps report identical totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionStats {
    /// Phase-1 base attempts served from their switch count's seed, which
    /// [`SynthesisEngine::new`](crate::synthesis::SynthesisEngine::new)
    /// partitioned once: one per committed Phase-1 candidate whose count
    /// has a seed partition.
    pub base_cache_hits: u64,
    /// Partitions refined from a warm initial assignment: the seed chain's
    /// and one per θ step computed. A θ step that candidates of the same
    /// switch count share across frequencies is computed, and counted,
    /// once.
    pub warm_partitions: u64,
    /// Partitions recursive-bisected from scratch.
    pub cold_partitions: u64,
    /// SPGs built for θ steps: one per θ step computed, so a shared step
    /// counts once, like in [`PartitionStats::warm_partitions`].
    pub spg_derivations: u64,
    /// Moves and swaps the partitioner's FM, k-way and swap passes applied
    /// in the partitions counted above, rolled-back ones included
    /// ([`sunfloor_partition::Partitioning::fm_moves`]).
    pub fm_moves: u64,
}

impl PartitionStats {
    /// Total partitioning requests answered without a from-scratch
    /// recursive bisection — the headline `partition_cache_hits` number.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.base_cache_hits + self.warm_partitions
    }
}

impl std::ops::AddAssign for PartitionStats {
    fn add_assign(&mut self, rhs: Self) {
        self.base_cache_hits += rhs.base_cache_hits;
        self.warm_partitions += rhs.warm_partitions;
        self.cold_partitions += rhs.cold_partitions;
        self.spg_derivations += rhs.spg_derivations;
        self.fm_moves += rhs.fm_moves;
    }
}

/// The counters of [`crate::phase1::connectivity_cached`] calls.
///
/// Every call builds its PG or SPG from scratch, so the only state kept
/// between calls is the [`PartitionStats`] tally.
#[derive(Debug, Clone, Default)]
pub struct PartitionCache {
    /// Deterministic counters of the partitioning work done through this
    /// value; see [`PartitionStats`].
    pub stats: PartitionStats,
}

impl PartitionCache {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Core, Flow, MessageType};

    /// The dense Definition-4 SPG exactly as the paper states it: weak
    /// edges between **all** non-communicating same-layer pairs. The
    /// reference the folded [`CommGraph::scaled_partitioning_graph`] is
    /// checked against.
    fn scaled_partitioning_graph_dense(
        g: &CommGraph,
        alpha: f64,
        theta: f64,
        theta_max: f64,
    ) -> WeightedGraph {
        let mut dense = WeightedGraph::new(g.n);
        let intra_extra = theta * g.max_weight(alpha) / (10.0 * theta_max);
        // Track which PG edges exist so added edges do not double up.
        let mut has_edge = vec![false; g.n * g.n];
        for e in &g.edges {
            let h = g.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha);
            let (ls, ld) = (g.core_layers[e.src], g.core_layers[e.dst]);
            let w = if ls == ld { h } else { h / (theta * f64::from(ls.abs_diff(ld))) };
            dense.add_edge(e.src, e.dst, w);
            has_edge[e.src * g.n + e.dst] = true;
            has_edge[e.dst * g.n + e.src] = true;
        }
        for a in 0..g.n {
            for b in (a + 1)..g.n {
                if !has_edge[a * g.n + b] && g.core_layers[a] == g.core_layers[b] {
                    dense.add_edge(a, b, intra_extra);
                }
            }
        }
        dense
    }

    fn soc_2x2() -> SocSpec {
        // Four cores, two layers: 0,1 on layer 0; 2,3 on layer 1.
        SocSpec::new(
            (0..4)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 1.0,
                    height: 1.0,
                    x: f64::from(i % 2) * 2.0,
                    y: 0.0,
                    layer: u32::from(i >= 2),
                })
                .collect(),
            2,
        )
        .unwrap()
    }

    fn flows() -> Vec<Flow> {
        // Matches the shape of the paper's Fig. 4 example: inter-layer flows
        // heavier than intra-layer ones.
        let f = |src, dst, bw: f64, lat: f64| Flow {
            src,
            dst,
            bandwidth_mbs: bw,
            max_latency_cycles: lat,
            message_type: MessageType::Request,
        };
        vec![f(0, 2, 400.0, 4.0), f(1, 3, 400.0, 4.0), f(0, 1, 100.0, 8.0), f(2, 3, 100.0, 8.0)]
    }

    fn graph() -> (SocSpec, CommGraph) {
        let soc = soc_2x2();
        let comm = CommSpec::new(flows(), &soc).unwrap();
        let g = CommGraph::new(&soc, &comm);
        (soc, g)
    }

    #[test]
    fn definition3_weight_alpha_extremes() {
        let (_, g) = graph();
        // alpha = 1: pure bandwidth ratio.
        assert!((g.edge_weight(400.0, 4.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((g.edge_weight(100.0, 8.0, 1.0) - 0.25).abs() < 1e-12);
        // alpha = 0: pure latency tightness (min_lat = 4).
        assert!((g.edge_weight(400.0, 4.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((g.edge_weight(100.0, 8.0, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pg_prefers_clustering_heavy_interlayer_pairs() {
        let (_, g) = graph();
        let pg = g.partitioning_graph(1.0);
        // inter-layer edges (0-2, 1-3) are heavier than intra-layer ones.
        assert!(pg.edge_weight(0, 2) > pg.edge_weight(0, 1));
    }

    #[test]
    fn spg_scales_down_interlayer_and_adds_intralayer_edges() {
        let (soc, g) = graph();
        let theta = 10.0;
        let spg = g.scaled_partitioning_graph(1.0, theta, 15.0);
        // Inter-layer edge scaled by 1/theta.
        let pg = g.partitioning_graph(1.0);
        assert!(
            (spg.edge_weight(0, 2) - pg.edge_weight(0, 2) / theta).abs() < 1e-12,
            "scaled weight wrong"
        );
        // Same-layer pairs 1-0 and 2-3 communicate already; 0-3 spans
        // layers -> no stored edge and no attraction between them.
        assert_eq!(spg.edge_weight(0, 3), 0.0);
        // The weak same-layer weight theta*max_wt/(10*theta_max) lives in
        // the group attraction, not in materialized edges — craft a spec
        // with a non-communicating same-layer pair and check the split
        // cost:
        let soc2 = soc;
        let comm2 = CommSpec::new(
            vec![Flow {
                src: 0,
                dst: 2,
                bandwidth_mbs: 100.0,
                max_latency_cycles: 5.0,
                message_type: MessageType::Request,
            }],
            &soc2,
        )
        .unwrap();
        let g2 = CommGraph::new(&soc2, &comm2);
        let spg2 = g2.scaled_partitioning_graph(1.0, theta, 15.0);
        let expected = theta * g2.max_weight(1.0) / (10.0 * 15.0);
        let at = spg2.attraction().expect("SPG carries the layer attraction");
        assert!((at.weight() - expected).abs() < 1e-12);
        assert_eq!(spg2.edge_weight(0, 1), 0.0, "no weak edge is materialized");
        // Splitting the non-communicating same-layer pair 0-1 costs exactly
        // one weak weight (the 0-2 flow stays uncut).
        assert!((spg2.cut_weight(&[0, 1, 0, 0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn added_edges_are_weaker_than_any_pg_edge() {
        // eq. (1): extra edges have at most one tenth the max PG weight even
        // at theta = theta_max.
        let (_, g) = graph();
        let spg = g.scaled_partitioning_graph(1.0, 15.0, 15.0);
        let max_wt = g.max_weight(1.0);
        // 0 and 1 share a layer; their PG edge is 0.25*max; extra edges are
        // only for non-PG pairs, so check on a non-communicating same-layer
        // pair is covered above. Here, verify no extra edge exceeds max/10.
        let _ = spg;
        assert!(15.0 * max_wt / (10.0 * 15.0) <= max_wt / 10.0 + 1e-12);
    }

    #[test]
    fn lpg_is_per_layer_and_reindexes() {
        let (_, g) = graph();
        let (lpg0, members0) = g.layer_partitioning_graph(0, 1.0);
        assert_eq!(members0, vec![0, 1]);
        assert!(lpg0.edge_weight(0, 1) > 0.0, "intra-layer flow kept");
        let (lpg1, members1) = g.layer_partitioning_graph(1, 1.0);
        assert_eq!(members1, vec![2, 3]);
        assert!(lpg1.edge_weight(0, 1) > 0.0);
    }

    #[test]
    fn lpg_gives_isolated_cores_weak_edges() {
        let soc = soc_2x2();
        // Only one intra-layer flow on layer 0; cores 2,3 (layer 1) have no
        // intra-layer traffic at all.
        let comm = CommSpec::new(
            vec![Flow {
                src: 0,
                dst: 1,
                bandwidth_mbs: 100.0,
                max_latency_cycles: 5.0,
                message_type: MessageType::Request,
            }],
            &soc,
        )
        .unwrap();
        let g = CommGraph::new(&soc, &comm);
        let (lpg1, _) = g.layer_partitioning_graph(1, 1.0);
        let w = lpg1.edge_weight(0, 1);
        assert!(w > 0.0 && w < 1e-3, "isolated cores should get tiny edges, got {w}");
    }

    /// The folded SPG carries the dense Definition-4 objective exactly:
    /// every pair's total weight (stored edge plus implicit same-layer
    /// attraction) matches the dense reference's edge weight, and cut
    /// weights agree on every assignment.
    #[test]
    fn folded_spg_matches_dense_objective() {
        let (soc, g) = graph();
        for theta in [1.0, 7.0, 15.0] {
            let folded = g.scaled_partitioning_graph(1.0, theta, 15.0);
            let dense = scaled_partitioning_graph_dense(&g, 1.0, theta, 15.0);
            let at = folded.attraction().expect("SPG carries the layer attraction");
            assert_eq!(at.group_of(), &[0, 0, 1, 1]);
            for a in 0..4usize {
                for b in (a + 1)..4 {
                    let same_layer = soc.cores[a].layer == soc.cores[b].layer;
                    let total = folded.edge_weight(a, b)
                        + if same_layer { at.weight() } else { 0.0 };
                    assert!(
                        (total - dense.edge_weight(a, b)).abs() < 1e-12,
                        "θ={theta} pair {a}-{b}: folded total {total} != dense {}",
                        dense.edge_weight(a, b)
                    );
                }
            }
            // Cut weights agree on every 2-block assignment of 4 vertices.
            for bits in 0u32..16 {
                let assignment: Vec<u32> = (0..4).map(|v| (bits >> v) & 1).collect();
                let (s, d) = (folded.cut_weight(&assignment), dense.cut_weight(&assignment));
                assert!(
                    (s - d).abs() < 1e-9,
                    "θ={theta} {assignment:?}: folded cut {s} != dense cut {d}"
                );
            }
        }
    }

    /// On a wide layer the folded SPG materializes only the flow edges —
    /// the weak clique stays implicit — yet still evaluates to the dense
    /// Definition-4 cut.
    #[test]
    fn folded_spg_keeps_only_flow_edges_on_wide_layers() {
        // 12 cores on one layer, in a row; a single flow between cores 0,1.
        let soc = SocSpec::new(
            (0..12)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 1.0,
                    height: 1.0,
                    x: f64::from(i) * 2.0,
                    y: 0.0,
                    layer: 0,
                })
                .collect(),
            1,
        )
        .unwrap();
        let comm = CommSpec::new(
            vec![Flow {
                src: 0,
                dst: 1,
                bandwidth_mbs: 100.0,
                max_latency_cycles: 5.0,
                message_type: MessageType::Request,
            }],
            &soc,
        )
        .unwrap();
        let g = CommGraph::new(&soc, &comm);
        let folded = g.scaled_partitioning_graph(1.0, 7.0, 15.0);
        let dense = scaled_partitioning_graph_dense(&g, 1.0, 7.0, 15.0);
        let edge_count = |wg: &WeightedGraph| {
            (0..12).map(|v| wg.neighbors(v).len()).sum::<usize>() / 2
        };
        assert_eq!(edge_count(&folded), 1, "only the flow edge is materialized");
        assert_eq!(edge_count(&dense), 12 * 11 / 2, "dense carries the full weak clique");
        // Deterministic pseudo-random assignments into 2 and 3 blocks.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        for blocks in [2u32, 3] {
            for round in 0..16 {
                let assignment: Vec<u32> = (0..12).map(|_| next() % blocks).collect();
                let (s, d) = (folded.cut_weight(&assignment), dense.cut_weight(&assignment));
                assert!(
                    (s - d).abs() < 1e-9,
                    "blocks={blocks} round={round} {assignment:?}: folded cut {s} != dense {d}"
                );
            }
        }
    }
}
