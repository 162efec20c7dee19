//! Balanced k-way min-cut graph partitioning.
//!
//! Both phases of SunFloor 3D's core-to-switch connectivity step repeatedly
//! ask for "`i` min-cut partitions of PG … such that each block has about
//! equal number of cores" (paper §V-A, Algorithm 1 step 5, and Algorithm 2
//! step 13). The original tool used an external hypergraph partitioner; this
//! crate rebuilds the capability from scratch:
//!
//! * **Recursive bisection**: a k-way partition is obtained by recursively
//!   splitting the vertex set with per-side target counts, so the final block
//!   sizes differ by at most one vertex.
//! * **Fiduccia–Mattheyses (FM) refinement**: each bisection grows a
//!   balanced seed greedily and improves it with locked-move FM passes (at
//!   most ten), keeping the best prefix of every pass. Cold restarts grow
//!   from a random vertex; a warm start that must split a block grows it
//!   from the block's most weakly attached vertex, through the same
//!   routine.
//! * **Pairwise-swap k-way polish**: after recursion, up to 64 greedy
//!   swaps, each the best improving swap over all vertex pairs, remove cut
//!   weight that straddles sibling blocks without disturbing the block
//!   sizes. The polish is a mode of the warm k-way refinement's picker
//!   (below): swaps only, no vertex locked, and only gains above `1e-12`.
//! * **Multi-start determinism**: several seeded restarts are taken and the
//!   best is returned; the RNG seed is part of the configuration, so results
//!   are reproducible run to run.
//! * **Warm starts**: a caller's assignment is refined by k-way FM passes
//!   and competes with the cold restarts. The winner gets a final polish
//!   (the warm refinement again), unless it is the warm candidate and its
//!   refinement converged: refining a fixed point returns it unchanged.
//! * **Shared bisections**: a cold restart's splits depend only on the
//!   graph, the restart seed and the splits before them, so partitions of
//!   one [`MemoGraph`] replay the splits an earlier partition computed —
//!   every even block count halves the whole graph first, for one. A
//!   replayed split restores the side mask, the RNG state and the move
//!   count, so results and `fm_moves` are those of computing it.
//!
//! Vertex counts in this domain are small (tens to a few hundred cores).
//! Every step below picks exactly what a full rescan would, ties and float
//! bits included, and rescans only where that is the cheaper way:
//!
//! * One pick structure, per-group max tournaments, serves both steps of a
//!   bisection. Greedy growth absorbs `n₁` of `m` vertices. While `m` is at
//!   least `2 · (1 + average degree) · log₂ m`, each is taken from
//!   tournaments over the tie-break order (shuffled for a cold restart,
//!   the subset order for a warm split): `O(m)` to lay them out, then
//!   `O(deg · log m)` per absorbed vertex. Smaller or denser subsets keep
//!   the `O(m)` rescan per vertex, which is cheaper there. Every FM pass
//!   lays out one tournament of edge gains per (side, group) over the
//!   subset in index order and takes each move from them: the largest
//!   gain with its group's attraction added, the lowest index on ties,
//!   then `O(deg · log m)` per move.
//! * One picker takes every k-way refinement step: a warm pass's up to `n`
//!   actions, each the exact best move or swap over the `m` unlocked
//!   vertices, and a polish round's best swap over all `n` vertices (none
//!   locked). While the `k` blocks hold at least three vertices each on
//!   average, it finds the pick by a block-pair search: a per-(vertex,
//!   block) gain table and per-block vertex lists, updated on the rows and
//!   entries each pick touches, bound every block pair, and only the pairs
//!   whose bound reaches the best gain are scanned — `O(m·k)` to sweep the
//!   table once, then `O(k²)` plus the scanned pairs per pick. Below that
//!   (`k > m/3`) it rescans every vertex pair, `O(m²)` per pick. Every
//!   step reads and updates one per-(vertex, block) connectivity table.
//!
//! On 128-core pipelines (k ≤ 31, 2-vCPU Xeon) the warm block search made a
//! whole `sunfloor3d` run about 65% faster, and the growth tournaments,
//! the polish's swap search and the kept block lists about a further 15%.
//! On `D_36_8` at three frequencies, skipping the converged polish and
//! sharing the θ steps' bisections made a whole run about 14% faster.
//!
//! # Example
//!
//! ```
//! use sunfloor_partition::{PartitionConfig, WeightedGraph};
//!
//! // Two 3-cliques joined by one light edge: the min balanced bisection
//! // cuts only the light edge.
//! let mut g = WeightedGraph::new(6);
//! for &(a, b) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
//!     g.add_edge(a, b, 10.0);
//! }
//! g.add_edge(2, 3, 1.0);
//! let part = g.partition(&PartitionConfig::k_way(2))?;
//! assert_eq!(part.cut_weight, 1.0);
//! assert_eq!(part.part_of(0), part.part_of(1));
//! assert_ne!(part.part_of(0), part.part_of(5));
//! # Ok::<(), sunfloor_partition::PartitionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fm;
mod graph;
mod memo;

pub use graph::{GroupAttraction, WeightedGraph};
pub use memo::MemoGraph;

use memo::Bisections;
use std::error::Error;
use std::fmt;

/// Configuration of a k-way partitioning run: the block count, the
/// restart budget and seeds, and an optional warm start. The refinement
/// depth is fixed: every bisection and every warm k-way refinement stops
/// after ten FM passes, or at the first pass that does not improve its
/// cut.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of blocks to produce.
    pub parts: usize,
    /// Independent randomized restarts; the best result wins. When
    /// [`Self::initial`] is set this counts the *additional* cold restarts
    /// run alongside the warm-started candidate, and may be zero.
    pub restarts: u32,
    /// RNG seed — the same seed always yields the same partition.
    pub rng_seed: u64,
    /// Optional warm-start assignment (one block label per vertex).
    ///
    /// When present, a deterministic refinement of this assignment —
    /// normalized to `parts` blocks, rebalanced to near-equal sizes, then
    /// improved with move/swap local search — competes with the cold
    /// restarts and the best cut wins (ties prefer the warm result). This
    /// is how SunFloor's θ-escalation steps and adjacent-switch-count
    /// candidates reuse the previous partition instead of
    /// recursive-bisecting from scratch. An assignment of the wrong length
    /// is ignored.
    pub initial: Option<Vec<u32>>,
    /// Spacing of the cold restart seed sequence: restart `r` seeds its RNG
    /// with `rng_seed + r * seed_stride`. The default of 1 walks
    /// consecutive seeds; a warm-started caller that trims `restarts` can
    /// raise the stride so the reduced budget still samples the same seed
    /// span the full budget draws from (restart diversity comes from the
    /// seed spread, not the restart count).
    pub seed_stride: u32,
}

impl PartitionConfig {
    /// A configuration producing `parts` blocks with default effort.
    #[must_use]
    pub fn k_way(parts: usize) -> Self {
        Self {
            parts,
            restarts: 8,
            rng_seed: 0xC0FF_EE00,
            initial: None,
            seed_stride: 1,
        }
    }

    /// Overrides the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Seeds the run with a warm-start assignment (builder style); see
    /// [`Self::initial`]. Usually combined with a low [`Self::restarts`]
    /// (even zero, set directly on the field) so the warm refinement does
    /// the heavy lifting.
    #[must_use]
    pub fn with_initial(mut self, assignment: Vec<u32>) -> Self {
        self.initial = Some(assignment);
        self
    }
}

/// Result of a partitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    assignment: Vec<u32>,
    parts: usize,
    /// Total weight of edges whose endpoints land in different blocks.
    pub cut_weight: f64,
    fm_moves: u64,
}

impl Partitioning {
    /// Block index of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn part_of(&self, v: usize) -> u32 {
        self.assignment[v]
    }

    /// The block index of every vertex, in vertex order.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of blocks.
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.parts
    }

    /// Moves and swaps the run's FM, k-way and swap passes applied,
    /// rolled-back ones included: an exact measure of its refinement work,
    /// the same on every run of the same configuration. A split replayed
    /// from a [`MemoGraph`] counts the moves it applied when computed, so
    /// the count does not depend on what the memo held. A skipped final
    /// polish counts nothing.
    #[must_use]
    pub fn fm_moves(&self) -> u64 {
        self.fm_moves
    }

    /// Vertices belonging to block `p`.
    ///
    /// Allocates a fresh `Vec` per call; hot loops should use
    /// [`Self::members_iter`] or [`Self::members_into`] instead.
    #[must_use]
    pub fn members(&self, p: u32) -> Vec<usize> {
        self.members_iter(p).collect()
    }

    /// Iterates over the vertices of block `p` in ascending vertex order
    /// without allocating.
    pub fn members_iter(&self, p: u32) -> impl Iterator<Item = usize> + '_ {
        self.assignment.iter().enumerate().filter(move |&(_, &a)| a == p).map(|(v, _)| v)
    }

    /// Collects the vertices of block `p` into `out` (cleared first), so a
    /// caller-owned buffer can be reused across blocks — the allocation-free
    /// form of [`Self::members`] for the Phase-1 hot loop.
    pub fn members_into(&self, p: u32, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.members_iter(p));
    }

    /// Sizes of all blocks, indexed by block.
    #[must_use]
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }
}

/// Error produced when a partition request cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `parts` was zero.
    ZeroParts,
    /// More blocks requested than vertices available.
    TooManyParts {
        /// Requested block count.
        parts: usize,
        /// Vertices in the graph.
        vertices: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroParts => write!(f, "cannot split a graph into zero blocks"),
            Self::TooManyParts { parts, vertices } => {
                write!(f, "requested {parts} blocks but the graph has only {vertices} vertices")
            }
        }
    }
}

impl Error for PartitionError {}

impl WeightedGraph {
    /// Splits the graph into `cfg.parts` blocks of near-equal size (sizes
    /// differ by at most one) while minimizing the total cut weight.
    ///
    /// Partitions that share their cold restarts' splits run faster on a
    /// [`MemoGraph`], with the same results.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::ZeroParts`] or
    /// [`PartitionError::TooManyParts`] on malformed requests.
    pub fn partition(&self, cfg: &PartitionConfig) -> Result<Partitioning, PartitionError> {
        partition(self, cfg, &Bisections::default())
    }
}

/// [`WeightedGraph::partition`] of `g`, replaying the cold restarts' splits
/// that `memo` holds and storing the rest there.
fn partition(
    g: &WeightedGraph,
    cfg: &PartitionConfig,
    memo: &Bisections,
) -> Result<Partitioning, PartitionError> {
    let n = g.node_count();
    if cfg.parts == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if cfg.parts > n {
        return Err(PartitionError::TooManyParts { parts: cfg.parts, vertices: n });
    }

    if cfg.parts == 1 {
        return Ok(Partitioning { assignment: vec![0; n], parts: 1, cut_weight: 0.0, fm_moves: 0 });
    }
    if cfg.parts == n {
        let assignment: Vec<u32> = (0..n as u32).collect();
        let cut = g.cut_weight(&assignment);
        return Ok(Partitioning { assignment, parts: n, cut_weight: cut, fm_moves: 0 });
    }

    let mut best: Option<Partitioning> = None;
    let mut ws = fm::Workspace::new(n);

    // Warm start: refine the caller's assignment deterministically and
    // let it compete with the cold restarts. It is evaluated first, so
    // on a tie the warm result wins — warm-started sweeps stay stable
    // when the cold search merely matches them.
    let warm = cfg.initial.as_deref().filter(|initial| initial.len() == n);
    // Whether `best` is a converged warm refinement, which the final
    // polish would return unchanged.
    let mut settled = false;
    if let Some(initial) = warm {
        let mut assignment = vec![0u32; n];
        settled = fm::warm_refine(g, initial, cfg.parts, &mut assignment, &mut ws);
        let cut = g.cut_weight(&assignment);
        best = Some(Partitioning { assignment, parts: cfg.parts, cut_weight: cut, fm_moves: 0 });
    }

    // With a warm candidate in hand `restarts` may be zero (warm-only);
    // a pure cold run always takes at least one restart.
    let cold_restarts = if best.is_some() { cfg.restarts } else { cfg.restarts.max(1) };
    let mut vertices: Vec<usize> = Vec::with_capacity(n);
    for restart in 0..cold_restarts {
        let seed = cfg.rng_seed.wrapping_add(u64::from(restart) * u64::from(cfg.seed_stride));
        let mut assignment = vec![0u32; n];
        vertices.clear();
        vertices.extend(0..n);
        let mut restart = fm::Restart::new(memo, seed);
        fm::recursive_bisect(g, &mut vertices, cfg.parts, 0, &mut restart, &mut assignment, &mut ws);
        fm::kway_swap_refine(g, &mut assignment, &mut ws);
        let cut = g.cut_weight(&assignment);
        if best.as_ref().is_none_or(|b| cut < b.cut_weight) {
            best = Some(Partitioning { assignment, parts: cfg.parts, cut_weight: cut, fm_moves: 0 });
            settled = false;
        }
    }

    // Warm-started runs trade restart count for refinement depth
    // (hMetis-style V-cycling): the winning assignment gets one final
    // FM polish, which can only lower its cut. A converged warm winner
    // skips it: refining a fixed point returns it unchanged.
    if warm.is_some() && !settled {
        if let Some(b) = best.as_mut() {
            let mut polished = Vec::new();
            fm::warm_refine(g, &b.assignment, cfg.parts, &mut polished, &mut ws);
            let cut = g.cut_weight(&polished);
            if cut < b.cut_weight {
                b.assignment = polished;
                b.cut_weight = cut;
            }
        }
    }
    // sf-allow(panic-in-lib): invariant — `cold_restarts` is forced to at
    // least 1 whenever no warm candidate seeded `best`, so one of the two
    // branches above always stores a partitioning before we get here
    let mut best = best.expect("a warm candidate or at least one cold restart ran");
    best.fm_moves = ws.applied;
    Ok(best)
}

#[cfg(test)]
mod tests;
