//! Cold-restart bisections shared between the partitions of one graph.
//!
//! A cold restart is a pure function of the graph, its restart seed and the
//! block count: recursive bisection splits the vertex set top-down, each
//! split growing from the restart's RNG. Two block counts often ask for the
//! same splits — every even count halves the whole graph first, and counts
//! that agree on a half's block parity agree on how it splits — so a
//! [`MemoGraph`] keeps the splits its cold restarts compute and replays them
//! for the next partition that reaches the same split.
//!
//! A split is a pure function of its subset (in order), its side-0 size
//! `n1` and the RNG state before it. Its subset is one side of the split
//! above it, so the memo is a tree per restart seed, and a node is keyed by
//! the node above it, the number of RNG draws the restart took before it
//! (from one seed, the count fixes the state) and `n1`. The draws also tell
//! the two sides apart: the second side's split comes after the first
//! side's draws. A node stores the split's side-0 mask as a bitset and the
//! FM moves it applied; a replay takes the split's draws again (a shuffle of
//! the subset and one index), so it leaves the restart exactly where
//! computing the split would have, work count included.
//!
//! Splits of at most [`SMALL_SPLIT`] vertices are computed and not kept,
//! nor any split below them: on `D_36_8` they are about two thirds of the
//! splits a run's θ steps take, and keeping them would let replays skip
//! only about a tenth more vertices. A node takes 32 bytes and its mask a
//! word per 64 vertices; on `D_36_8` a θ's memo keeps about 300 splits.

use crate::graph::WeightedGraph;
use crate::{PartitionConfig, PartitionError, Partitioning};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Splits of at most this many vertices are not memoized.
pub(crate) const SMALL_SPLIT: usize = 6;

/// A graph with a memo of the bisections its cold restarts computed:
/// partitions of it share the splits they have in common.
///
/// [`Self::partition`] returns what [`WeightedGraph::partition`] returns
/// for the same configuration, [`Partitioning::fm_moves`] included (a
/// replayed split counts the moves it applied when it was computed); only
/// the time differs. The memo is thread-safe, so concurrent partitions
/// may share it, and it lives as long as the value.
///
/// ```
/// use sunfloor_partition::{MemoGraph, PartitionConfig, WeightedGraph};
///
/// let mut g = WeightedGraph::new(24);
/// for v in 0..23 {
///     g.add_edge(v, v + 1, 1.0 + (v % 5) as f64);
/// }
/// let memo = MemoGraph::new(g.clone());
/// for k in [2, 4, 8] {
///     // k = 4 and k = 8 replay the halving that k = 2 computed.
///     let cfg = PartitionConfig::k_way(k);
///     assert_eq!(memo.partition(&cfg)?, g.partition(&cfg)?);
/// }
/// # Ok::<(), sunfloor_partition::PartitionError>(())
/// ```
#[derive(Debug)]
pub struct MemoGraph {
    graph: WeightedGraph,
    bisections: Bisections,
}

impl MemoGraph {
    /// Wraps `graph` with an empty memo.
    #[must_use]
    pub fn new(graph: WeightedGraph) -> Self {
        Self { graph, bisections: Bisections::default() }
    }

    /// [`WeightedGraph::partition`], replaying the memoized splits.
    ///
    /// # Errors
    ///
    /// As [`WeightedGraph::partition`].
    pub fn partition(&self, cfg: &PartitionConfig) -> Result<Partitioning, PartitionError> {
        crate::partition(&self.graph, cfg, &self.bisections)
    }
}

/// A split, below a given node: the restart's RNG draws before it and its
/// side-0 size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub(crate) draws: u64,
    pub(crate) n1: u32,
}

/// No node: the end of a child or sibling list.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    draws: u64,
    /// FM moves the split applied.
    moves: u64,
    n1: u32,
    /// First child and next sibling, or [`NONE`].
    child: u32,
    sibling: u32,
    /// Offset of the side-0 mask in [`Trie::masks`]: a word per 64 subset
    /// vertices, subset index `i` at bit `i % 64` of word `i / 64`.
    mask: u32,
}

#[derive(Debug, Default)]
struct Trie {
    /// Every kept split, and one root per restart seed (its key unused).
    nodes: Vec<Node>,
    masks: Vec<u64>,
    /// `(restart seed, root node)`.
    roots: Vec<(u64, u32)>,
}

impl Trie {
    fn child(&self, at: u32, key: Key) -> Option<u32> {
        let mut c = self.nodes[at as usize].child;
        while c != NONE {
            let node = &self.nodes[c as usize];
            if node.draws == key.draws && node.n1 == key.n1 {
                return Some(c);
            }
            c = node.sibling;
        }
        None
    }

    fn push(&mut self, key: Key, sibling: u32, mask: u32, moves: u64) -> u32 {
        let node = self.nodes.len() as u32;
        let Key { draws, n1 } = key;
        self.nodes.push(Node { draws, moves, n1, child: NONE, sibling, mask });
        node
    }
}

/// The split memo of one graph: a tree of kept splits per restart seed.
#[derive(Debug, Default)]
pub(crate) struct Bisections {
    trie: Mutex<Trie>,
}

impl Bisections {
    fn lock(&self) -> MutexGuard<'_, Trie> {
        // Poison recovery: a node is linked only once complete, so the tree
        // is valid even if a thread panicked while holding the lock.
        self.trie.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The root node of the restart seeded with `seed`.
    pub(crate) fn root(&self, seed: u64) -> u32 {
        let mut trie = self.lock();
        if let Some(&(_, root)) = trie.roots.iter().find(|&&(s, _)| s == seed) {
            return root;
        }
        let root = trie.push(Key { draws: 0, n1: 0 }, NONE, 0, 0);
        trie.roots.push((seed, root));
        root
    }

    /// Replays the split `key` of `m` vertices below node `at`, if kept:
    /// writes its side-0 flags into `side0` and returns its node and the
    /// moves it applied.
    pub(crate) fn replay(
        &self,
        at: u32,
        key: Key,
        m: usize,
        side0: &mut Vec<bool>,
    ) -> Option<(u32, u64)> {
        let trie = self.lock();
        let found = trie.child(at, key)?;
        let node = &trie.nodes[found as usize];
        let words = &trie.masks[node.mask as usize..];
        side0.clear();
        side0.extend((0..m).map(|i| words[i / 64] >> (i % 64) & 1 == 1));
        Some((found, node.moves))
    }

    /// Keeps the split `key` below node `at`: its side-0 mask and the moves
    /// it applied. Returns its node (an equal one, if another thread kept
    /// it first).
    pub(crate) fn insert(&self, at: u32, key: Key, side0: &[bool], moves: u64) -> u32 {
        let mut trie = self.lock();
        if let Some(existing) = trie.child(at, key) {
            return existing;
        }
        let mask = trie.masks.len() as u32;
        trie.masks.extend(side0.chunks(64).map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |w, (b, &s)| w | u64::from(s) << b)
        }));
        let sibling = trie.nodes[at as usize].child;
        let node = trie.push(key, sibling, mask, moves);
        trie.nodes[at as usize].child = node;
        node
    }
}
