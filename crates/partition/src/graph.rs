//! Undirected weighted graph used as partitioner input.

/// A uniform same-group attraction folded into the partitioning objective:
/// every pair of distinct vertices sharing a group behaves as if joined by
/// an implicit edge of weight [`Self::weight`], without those `O(n²)` edges
/// ever being materialized. The refinement passes account for the term
/// analytically from per-(group, block) member counts.
///
/// SunFloor's θ-scaled partitioning graph (Definition 4, eq. 1) is the
/// motivating use: the paper adds a weak edge between every
/// non-communicating same-layer core pair, which swamps the sparse flow
/// edge set with `O(n²)` near-identical entries. Folding the weak term into
/// the objective keeps the graph at its flow-edge size. Pairs that *do*
/// communicate get their stored edge weight compensated by `-weight` at
/// [`WeightedGraph::set_group_attraction`] time, so every pair's total
/// weight — stored edge plus implicit attraction — is exactly what the
/// dense construction would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAttraction {
    group_of: Vec<u32>,
    weight: f64,
    groups: usize,
}

impl GroupAttraction {
    /// Group label of every vertex, in vertex order.
    #[must_use]
    pub fn group_of(&self) -> &[u32] {
        &self.group_of
    }

    /// Weight of the implicit edge between every distinct same-group pair.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of groups (`max label + 1`).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// The attraction weight crossing the split: `weight ×` the number of
    /// same-group pairs whose endpoints carry different labels in
    /// `assignment`.
    #[must_use]
    pub fn split_weight(&self, assignment: &[u32]) -> f64 {
        let blocks = assignment.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
        if blocks == 0 || self.groups == 0 {
            return 0.0;
        }
        let mut cnt = vec![0u64; self.groups * blocks];
        for (v, &b) in assignment.iter().enumerate() {
            cnt[self.group_of[v] as usize * blocks + b as usize] += 1;
        }
        let pairs = |c: u64| c.saturating_sub(1) * c / 2;
        let mut split = 0u64;
        for row in cnt.chunks(blocks) {
            let total: u64 = row.iter().sum();
            split += pairs(total) - row.iter().map(|&c| pairs(c)).sum::<u64>();
        }
        // Counts are vertex counts (< 2^32), so the u64 pair arithmetic is
        // exact and the conversion below is too for any realistic graph.
        self.weight * split as f64
    }
}

/// An undirected graph with weighted edges, stored as adjacency lists.
/// Parallel edges accumulate their weights; self-loops are ignored (they
/// can never contribute to a cut).
///
/// SunFloor folds its *directed* communication / partitioning graphs into
/// this undirected form before partitioning, summing the weights of the two
/// directions — only the total weight crossing a block boundary matters to
/// the min-cut objective.
///
/// A graph may additionally carry a [`GroupAttraction`]: an implicit
/// complete graph per vertex group whose uniform edge weight joins the cut
/// objective analytically (see [`Self::set_group_attraction`]). Stored edge
/// weights are non-negative as added, but same-group edges are compensated
/// by the attraction weight and may go negative — the *pair total* (stored
/// edge + implicit attraction) is the meaningful quantity.
///
/// # Example
///
/// ```
/// use sunfloor_partition::WeightedGraph;
///
/// let mut g = WeightedGraph::new(3);
/// g.add_edge(0, 1, 2.0);
/// g.add_edge(1, 0, 3.0); // accumulates onto the same undirected edge
/// assert_eq!(g.edge_weight(0, 1), 5.0);
/// assert_eq!(g.node_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightedGraph {
    /// `adjacency[v]` = list of (neighbor, accumulated weight)
    adj: Vec<Vec<(u32, f64)>>,
    attraction: Option<GroupAttraction>,
}

impl WeightedGraph {
    /// Creates a graph with `n` vertices and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], attraction: None }
    }

    /// Number of vertices.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds (or accumulates onto) the undirected edge `a — b`.
    /// Self-loops and non-positive weights are silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: f64) {
        assert!(a < self.adj.len() && b < self.adj.len(), "vertex out of range");
        if a == b || weight <= 0.0 {
            return;
        }
        Self::accumulate(&mut self.adj[a], b as u32, weight);
        Self::accumulate(&mut self.adj[b], a as u32, weight);
    }

    fn accumulate(list: &mut Vec<(u32, f64)>, to: u32, weight: f64) {
        if let Some(entry) = list.iter_mut().find(|(t, _)| *t == to) {
            entry.1 += weight;
        } else {
            list.push((to, weight));
        }
    }

    /// Installs a uniform same-group attraction: every pair of distinct
    /// vertices with the same label in `group_of` gains an *implicit* edge
    /// of weight `weight`, accounted for analytically by
    /// [`Self::cut_weight`] and every refinement pass — no `O(n²)` edges
    /// are materialized.
    ///
    /// Pairs that already have a stored edge get that edge's weight reduced
    /// by `weight` (it may go negative), so each pair's total — stored plus
    /// implicit — equals the stored weight from before the call. This makes
    /// the folded graph's objective match a dense construction that adds
    /// explicit weak edges only between *non-adjacent* same-group pairs.
    ///
    /// Call once, after all edges are added.
    ///
    /// # Panics
    ///
    /// Panics if `group_of` has the wrong length, `weight` is not a finite
    /// positive number, or an attraction was already set.
    pub fn set_group_attraction(&mut self, group_of: Vec<u32>, weight: f64) {
        assert_eq!(group_of.len(), self.adj.len(), "group_of length mismatch");
        assert!(weight > 0.0 && weight.is_finite(), "attraction weight must be finite positive");
        assert!(self.attraction.is_none(), "group attraction can only be set once");
        let groups = group_of.iter().map(|&g| g as usize + 1).max().unwrap_or(0);
        for (v, list) in self.adj.iter_mut().enumerate() {
            for entry in list.iter_mut() {
                if group_of[entry.0 as usize] == group_of[v] {
                    entry.1 -= weight;
                }
            }
        }
        self.attraction = Some(GroupAttraction { group_of, weight, groups });
    }

    /// The graph's group attraction, if one was installed.
    #[must_use]
    pub fn attraction(&self) -> Option<&GroupAttraction> {
        self.attraction.as_ref()
    }

    /// Accumulated weight of the undirected edge `a — b` (0.0 if absent).
    ///
    /// On a graph with a [`GroupAttraction`] this is the *stored* (possibly
    /// compensated) weight; the implicit same-group attraction is not
    /// included.
    #[must_use]
    pub fn edge_weight(&self, a: usize, b: usize) -> f64 {
        self.adj
            .get(a)
            .and_then(|l| l.iter().find(|(t, _)| *t as usize == b))
            .map_or(0.0, |(_, w)| *w)
    }

    /// Neighbors of `v` with accumulated weights.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[(u32, f64)] {
        &self.adj[v]
    }

    /// Sum of all stored edge weights (each undirected edge counted once;
    /// implicit attraction weight not included).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        let double: f64 = self.adj.iter().flatten().map(|(_, w)| w).sum();
        double / 2.0
    }

    /// Total weight crossing the block boundaries of `assignment`: every
    /// stored edge whose endpoints have different labels (counted once),
    /// plus the implicit [`GroupAttraction`] weight of every split
    /// same-group pair when an attraction is installed.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.node_count()`.
    #[must_use]
    pub fn cut_weight(&self, assignment: &[u32]) -> f64 {
        assert_eq!(assignment.len(), self.node_count(), "assignment length mismatch");
        let mut cut = 0.0;
        for (v, list) in self.adj.iter().enumerate() {
            for &(u, w) in list {
                let u = u as usize;
                if v < u && assignment[v] != assignment[u] {
                    cut += w;
                }
            }
        }
        if let Some(at) = &self.attraction {
            cut += at.split_weight(assignment);
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 1.5);
        g.add_edge(0, 1, 2.5);
        assert_eq!(g.edge_weight(0, 1), 4.0);
        assert_eq!(g.edge_weight(1, 0), 4.0);
    }

    #[test]
    fn self_loops_and_nonpositive_weights_dropped() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 0, 5.0);
        g.add_edge(0, 1, 0.0);
        g.add_edge(0, 1, -1.0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn cut_weight_counts_each_edge_once() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        let cut = g.cut_weight(&[0, 0, 1, 1]);
        assert_eq!(cut, 2.0);
        let all_cut = g.cut_weight(&[0, 1, 2, 3]);
        assert_eq!(all_cut, 7.0);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn add_edge_checks_bounds() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 2, 1.0);
    }

    #[test]
    fn attraction_counts_split_same_group_pairs() {
        // Groups 0 = {0,1,2}, 1 = {3}; no stored edges.
        let mut g = WeightedGraph::new(4);
        g.set_group_attraction(vec![0, 0, 0, 1], 0.5);
        // All together: nothing split.
        assert_eq!(g.cut_weight(&[0, 0, 0, 0]), 0.0);
        // 0|1,2: two same-group pairs split (0-1, 0-2).
        assert_eq!(g.cut_weight(&[0, 1, 1, 1]), 1.0);
        // Everything apart: all three group-0 pairs split.
        assert_eq!(g.cut_weight(&[0, 1, 2, 3]), 1.5);
    }

    #[test]
    fn attraction_compensates_same_group_edges() {
        // 0-1 share a group and an edge: the pair total must stay 5.0.
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 5.0);
        g.add_edge(0, 2, 2.0);
        g.set_group_attraction(vec![0, 0, 1], 1.0);
        assert_eq!(g.edge_weight(0, 1), 4.0, "same-group edge is compensated");
        assert_eq!(g.edge_weight(0, 2), 2.0, "cross-group edge untouched");
        // Splitting 0|1 cuts the stored 4.0 plus the implicit 1.0.
        assert_eq!(g.cut_weight(&[0, 1, 0]), 5.0 + 2.0 * 0.0);
        assert_eq!(g.cut_weight(&[0, 0, 1]), 2.0);
        assert_eq!(g.cut_weight(&[0, 1, 2]), 5.0 + 2.0);
    }

    #[test]
    #[should_panic(expected = "only be set once")]
    fn attraction_is_set_once() {
        let mut g = WeightedGraph::new(2);
        g.set_group_attraction(vec![0, 0], 1.0);
        g.set_group_attraction(vec![0, 0], 2.0);
    }
}
