//! Recursive bisection with Fiduccia–Mattheyses refinement and a k-way
//! swap polish.
//!
//! The cold path is written allocation-light: one [`Workspace`] per
//! [`crate::WeightedGraph::partition`] call carries every scratch buffer
//! through all restarts and recursion levels, vertex subsets are split in
//! place, and the FM inner loop scans a cached gain array gated by a
//! per-step balance rule instead of recomputing gains per vertex. All of
//! it is arithmetic-order-preserving: the moves taken, the RNG consumption
//! and every float operation match the original allocating implementation
//! bit for bit.
//!
//! Large vertex sets are not rescanned to pick one vertex, swap or action.
//! Greedy growth takes each vertex from per-group max tournaments
//! ([`Tournament`], `O(log m)` per changed pull) once the subset is large
//! and sparse enough for them to pay ([`tournaments_pay`]), and rescans
//! its `O(m)` order otherwise. The swap polish and the warm k-way
//! refinement pick each swap or action by a block-pair search
//! ([`BlockSearch`]) over block lists and a per-(vertex, block) gain table
//! kept between picks, with block pairs skipped by bounds; each falls back
//! to the `O(m²)` vertex-pair scan while blocks average fewer than three
//! vertices. Every path picks what the full rescan picked, ties included,
//! with the same float bits.
//!
//! Graphs may carry a [`GroupAttraction`] — an implicit complete graph per
//! vertex group with one uniform weight. Every pass accounts for it
//! analytically from per-(group, side/block) member counts: a move's
//! attraction gain is `weight · (cnt_to − (cnt_from − 1))`, an `O(1)`
//! lookup, so the term never costs the `O(n²)` edge scans a materialized
//! dense graph would. On graphs without an attraction every code path below
//! is bit-identical to the attraction-free implementation.

use crate::graph::{GroupAttraction, WeightedGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// One FM candidate in the gain heaps: max-gain first, lowest subset
/// index on ties — exactly the vertex the original ascending linear scan
/// (with its strict `>` comparison) selected. Gains here are conn-value
/// differences of finite weights (negative values are possible on
/// attraction-compensated graphs, but −0.0 is never produced by
/// adding/subtracting finite sums), so `total_cmp` agrees with the numeric
/// comparison the scan performed.
#[derive(Clone, Copy, PartialEq)]
struct GainEntry {
    gain: f64,
    idx: usize,
}

impl Eq for GainEntry {}

impl Ord for GainEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain.total_cmp(&other.gain).then(other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for GainEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable scratch for one `partition` call: shared by every restart and
/// every recursion level (a bisection finishes with its buffers — and
/// resets `local` — before its children run).
pub(crate) struct Workspace {
    /// Local index of each global vertex (`usize::MAX` = not in the
    /// current subset); reset after every bisection.
    local: Vec<usize>,
    /// Side-0 mask of the current bisection, indexed like its subset.
    side0: Vec<bool>,
    /// Greedy-growth attraction per subset vertex.
    attraction: Vec<f64>,
    /// Shuffled tie-break order of the greedy growth.
    order: Vec<usize>,
    /// The greedy growth's per-group tournaments.
    tour: Tournament,
    /// `conn[i][s]` = weight from subset vertex `i` to side `s`.
    conn: Vec<[f64; 2]>,
    /// Cached FM gains (`conn[i][other] - conn[i][own]`), edge part only.
    gain: Vec<f64>,
    /// FM lock flags.
    locked: Vec<bool>,
    /// Lazy-invalidation gain heaps, one per (side, group) — `2 × 1` when
    /// the graph has no attraction: stale entries (locked vertex,
    /// superseded gain) are discarded at pop time. Entries hold *edge*
    /// gains; the attraction part of a gain is uniform within one heap, so
    /// it is added at selection time and never invalidates entries.
    heaps: Vec<std::collections::BinaryHeap<GainEntry>>,
    /// Subset member counts per (group, side): `gcnt[g * 2 + s]`, with the
    /// `conn` side indexing (`side0 == true` → index 0). The greedy growth
    /// uses it for its side-0 counts per group, `gcnt[g]`.
    gcnt: Vec<u32>,
    /// FM move log (subset indices, in order).
    moves: Vec<usize>,
    /// Spill buffer for the in-place subset split.
    spill: Vec<usize>,
    /// Dense pair weights for the k-way swap polish (attraction included).
    wmat: Vec<f64>,
    /// Whether `wmat` has been filled for this graph yet.
    wmat_filled: bool,
    /// Scratch of the block-pair search of the warm k-way refinement and
    /// of the swap polish.
    search: BlockSearch,
    /// Moves and swaps the FM, k-way and swap passes applied so far,
    /// rolled-back ones included.
    pub(crate) applied: u64,
}

impl Workspace {
    pub(crate) fn new(node_count: usize) -> Self {
        Self {
            local: vec![usize::MAX; node_count],
            side0: Vec::new(),
            attraction: Vec::new(),
            order: Vec::new(),
            tour: Tournament::default(),
            conn: Vec::new(),
            gain: Vec::new(),
            locked: Vec::new(),
            heaps: Vec::new(),
            gcnt: Vec::new(),
            moves: Vec::new(),
            spill: Vec::new(),
            wmat: vec![0.0; node_count * node_count],
            wmat_filled: false,
            search: BlockSearch::default(),
            applied: 0,
        }
    }

    /// Sizes the per-subset buffers for `m` vertices (contents are
    /// (re)initialized by the passes themselves).
    fn size_subset(&mut self, m: usize) {
        self.side0.clear();
        self.side0.resize(m, false);
        self.attraction.clear();
        self.attraction.resize(m, 0.0);
        self.conn.clear();
        self.conn.resize(m, [0.0; 2]);
        self.gain.clear();
        self.gain.resize(m, 0.0);
        self.locked.clear();
        self.locked.resize(m, false);
    }
}

/// Fills the dense pair-weight matrix once per `partition` call: stored
/// edge weights plus, when the graph carries a [`GroupAttraction`], the
/// implicit same-group weight — the swap-gain correction term needs the
/// *total* pair weight.
///
/// No total is negative, which the block search's swap bounds rely on:
/// edges are stored positive, and a same-group edge compensated to
/// `x − w` gets `w` back here (rounding is monotone, so `(x − w) + w ≥ 0`
/// for `x > 0`).
fn fill_wmat(g: &WeightedGraph, ws: &mut Workspace) {
    if ws.wmat_filled {
        return;
    }
    let n = g.node_count();
    for v in 0..n {
        for &(u, w) in g.neighbors(v) {
            ws.wmat[v * n + u as usize] = w;
        }
    }
    if let Some(at) = g.attraction() {
        for v in 0..n {
            let gv = at.group_of()[v];
            for u in 0..n {
                if u != v && at.group_of()[u] == gv {
                    ws.wmat[v * n + u] += at.weight();
                }
            }
        }
    }
    debug_assert!(ws.wmat.iter().all(|&w| w >= 0.0), "a pair weight is negative");
    ws.wmat_filled = true;
}

/// Attraction weight currently split by a subset's side assignment
/// (0.0 without an attraction).
fn subset_split_attraction(g: &WeightedGraph, vertices: &[usize], side0: &[bool]) -> f64 {
    let Some(at) = g.attraction() else { return 0.0 };
    let ng = at.group_count().max(1);
    let mut cnt = vec![0u64; ng * 2];
    for (i, &v) in vertices.iter().enumerate() {
        cnt[at.group_of()[v] as usize * 2 + usize::from(!side0[i])] += 1;
    }
    let split: u64 = cnt.chunks(2).map(|c| c[0] * c[1]).sum();
    at.weight() * split as f64
}

/// Recursively splits `vertices` into `parts` blocks, writing block labels
/// `first_label..first_label + parts` into `assignment`. The slice is
/// reordered in place (stable within each side) as subsets split.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recursive_bisect(
    g: &WeightedGraph,
    vertices: &mut [usize],
    parts: usize,
    first_label: u32,
    max_passes: u32,
    rng: &mut StdRng,
    assignment: &mut [u32],
    ws: &mut Workspace,
) {
    debug_assert!(parts >= 1 && vertices.len() >= parts);
    if parts == 1 {
        for &v in vertices.iter() {
            assignment[v] = first_label;
        }
        return;
    }
    let k1 = parts.div_ceil(2);
    let k2 = parts - k1;
    // Target size proportional to the number of blocks on each side, clamped
    // so both sides keep at least one vertex per block.
    let ideal = (vertices.len() * k1 + parts / 2) / parts;
    let n1 = ideal.clamp(k1, vertices.len() - k2);

    bisect(g, vertices, n1, max_passes, rng, ws);

    // Stable in-place split: side-0 vertices compact forward (the write
    // cursor never passes the read cursor), side-1 vertices spill and come
    // back as the suffix — the same left/right orders the allocating
    // implementation produced.
    ws.spill.clear();
    let mut write = 0usize;
    for read in 0..vertices.len() {
        let v = vertices[read];
        if ws.side0[read] {
            vertices[write] = v;
            write += 1;
        } else {
            ws.spill.push(v);
        }
    }
    debug_assert_eq!(write, n1);
    vertices[n1..].copy_from_slice(&ws.spill);

    let (left, right) = vertices.split_at_mut(n1);
    recursive_bisect(g, left, k1, first_label, max_passes, rng, assignment, ws);
    recursive_bisect(g, right, k2, first_label + k1 as u32, max_passes, rng, assignment, ws);
}

/// Bisects `vertices` into sides of exactly (`n1`, `len - n1`) vertices,
/// leaving the side-0 mask in `ws.side0` (indexed like `vertices`).
fn bisect(
    g: &WeightedGraph,
    vertices: &[usize],
    n1: usize,
    max_passes: u32,
    rng: &mut StdRng,
    ws: &mut Workspace,
) {
    let m = vertices.len();
    debug_assert!(n1 >= 1 && n1 < m);
    ws.size_subset(m);
    for (i, &v) in vertices.iter().enumerate() {
        ws.local[v] = i;
    }

    // --- initial solution: greedy growth from a random seed -------------
    greedy_grow(g, vertices, n1, rng, ws);

    // conn[i][s] = weight from local vertex i to side s (within the subset)
    let mut cut = 0.0;
    for (i, &v) in vertices.iter().enumerate() {
        for &(u, w) in g.neighbors(v) {
            let lu = ws.local[u as usize];
            if lu == usize::MAX {
                continue;
            }
            let s = usize::from(!ws.side0[lu]);
            ws.conn[i][s] += w;
            if ws.side0[i] != ws.side0[lu] && i < lu {
                cut += w;
            }
        }
    }
    cut += subset_split_attraction(g, vertices, &ws.side0[..m]);
    // --- FM passes -------------------------------------------------------
    for _ in 0..max_passes {
        let improved = fm_pass(vertices, &mut cut, n1, g, ws);
        if !improved {
            break;
        }
    }

    // Release the global index slots this subset occupied so sibling and
    // child bisections start from a clean table.
    for &v in vertices {
        ws.local[v] = usize::MAX;
    }
}

/// Grows side 0 greedily: start from a random seed, repeatedly absorb the
/// unassigned vertex with the strongest pull to side 0 (edge pull plus,
/// with a [`GroupAttraction`], the implicit pull `weight · cnt0[group]` of
/// its group's side-0 members), ties going to the vertex earliest in the
/// shuffled `order`. Each next vertex comes from tournaments or a rescan of
/// `order`, whichever [`tournaments_pay`]; both pick the same vertices.
fn greedy_grow(
    g: &WeightedGraph,
    vertices: &[usize],
    n1: usize,
    rng: &mut StdRng,
    ws: &mut Workspace,
) {
    grow_by(g, vertices, n1, rng, ws, tournaments_pay(g, vertices));
}

/// Whether greedy growth over `vertices` keeps its candidates in
/// tournaments rather than rescanning `order`: when the `m` vertices number
/// at least twice `(1 + average degree) · levels`, `levels` being the bit
/// length of `m`.
///
/// A rescan costs `O(m)` per absorbed vertex; the tournaments cost an
/// `O(m)` layout, then `O(log m)` per changed pull — the absorbed vertex
/// and each of its neighbors. Measured on 2 vCPUs over the cold and warm
/// partitions of a Phase-1-like sweep, against the same partitioner with
/// rescans only (alternating call by call in one process): with the
/// factor 2, partitioning takes 0.93× the time on a 128-core pipeline
/// (average degree about 2.5) and the same time, within 1%, on media26 and
/// `D_36_8` (average degree 4–8); with the factor 1, media26 takes 1.02×,
/// its 13- to 18-vertex subsets being too small for the layout to pay.
fn tournaments_pay(g: &WeightedGraph, vertices: &[usize]) -> bool {
    let m = vertices.len();
    let links: usize = vertices.iter().map(|&v| g.neighbors(v).len()).sum();
    let levels = (usize::BITS - m.leading_zeros()) as usize;
    m * m >= 2 * (m + links) * levels
}

/// [`greedy_grow`] with the candidate structure as a parameter: one
/// [`Tournament`] per group (one without an attraction) over the group's
/// vertices in `order`, or a rescan of `order` per absorbed vertex.
fn grow_by(
    g: &WeightedGraph,
    vertices: &[usize],
    n1: usize,
    rng: &mut StdRng,
    ws: &mut Workspace,
    tournaments: bool,
) {
    let m = vertices.len();
    ws.order.clear();
    ws.order.extend(0..m);
    ws.order.shuffle(rng);

    let at = g.attraction();
    let grp = |i: usize| at.map_or(0, |a| a.group_of()[vertices[i]] as usize);
    // Side-0 members per group.
    ws.gcnt.clear();
    ws.gcnt.resize(at.map_or(1, |a| a.group_count().max(1)), 0);

    let seed = rng.gen_range(0..m);
    ws.side0[seed] = true;
    ws.gcnt[grp(seed)] += 1;
    for &(u, w) in g.neighbors(vertices[seed]) {
        let lu = ws.local[u as usize];
        if lu != usize::MAX {
            ws.attraction[lu] += w;
        }
    }
    if tournaments {
        grow_from_tournaments(g, vertices, n1, ws);
    } else {
        grow_from_rescans(g, vertices, n1, ws);
    }
}

/// Greedy growth from a seed on, each next vertex the first in `order`
/// with the strictly largest pull.
fn grow_from_rescans(g: &WeightedGraph, vertices: &[usize], n1: usize, ws: &mut Workspace) {
    let at = g.attraction();
    for _ in 1..n1 {
        let mut best = usize::MAX;
        let mut best_pull = f64::NEG_INFINITY;
        for &i in &ws.order {
            if ws.side0[i] {
                continue;
            }
            let pull = match at {
                Some(a) => {
                    ws.attraction[i]
                        + a.weight() * f64::from(ws.gcnt[a.group_of()[vertices[i]] as usize])
                }
                None => ws.attraction[i],
            };
            if pull > best_pull {
                best_pull = pull;
                best = i;
            }
        }
        ws.side0[best] = true;
        if let Some(a) = at {
            ws.gcnt[a.group_of()[vertices[best]] as usize] += 1;
        }
        for &(u, w) in g.neighbors(vertices[best]) {
            let lu = ws.local[u as usize];
            if lu != usize::MAX {
                ws.attraction[lu] += w;
            }
        }
    }
}

/// Greedy growth from a seed on, each next vertex the best of the group
/// tournaments' (see [`Tournament::best`]).
fn grow_from_tournaments(g: &WeightedGraph, vertices: &[usize], n1: usize, ws: &mut Workspace) {
    let at = g.attraction();
    let ng = ws.gcnt.len();
    let grp = |i: usize| at.map_or(0, |a| a.group_of()[vertices[i]] as usize);
    let (side0, attraction) = (&ws.side0, &ws.attraction);
    ws.tour.lay_out(&ws.order, ng, grp, |i| {
        if side0[i] {
            f64::NEG_INFINITY
        } else {
            attraction[i]
        }
    });
    for _ in 1..n1 {
        // The best pull with its position in `order`.
        let mut best: Option<(f64, usize)> = None;
        for gi in 0..ng {
            let offset = at.map(|a| a.weight() * f64::from(ws.gcnt[gi]));
            if let Some(top) = ws.tour.best(gi, offset) {
                if best.is_none_or(|(pull, p)| top.0 > pull || (top.0 == pull && top.1 < p)) {
                    best = Some(top);
                }
            }
        }
        let Some((_, p)) = best else { break }; // n1 < m: never empty
        let i = ws.order[p];
        ws.side0[i] = true;
        let gi = grp(i);
        ws.gcnt[gi] += 1;
        ws.tour.set(i, gi, f64::NEG_INFINITY);
        for &(u, w) in g.neighbors(vertices[i]) {
            let lu = ws.local[u as usize];
            if lu != usize::MAX {
                ws.attraction[lu] += w;
                if !ws.side0[lu] {
                    ws.tour.set(lu, grp(lu), ws.attraction[lu]);
                }
            }
        }
    }
}

/// The side-0 mask one greedy growth of `vertices` (a subset of `g`'s)
/// leaves, with `n1` vertices grown: by tournaments or by rescans when
/// `tournaments` says so, by the production choice otherwise.
#[cfg(test)]
pub(crate) fn grow_side0(
    g: &WeightedGraph,
    vertices: &[usize],
    n1: usize,
    rng: &mut StdRng,
    tournaments: Option<bool>,
) -> Vec<bool> {
    let mut ws = Workspace::new(g.node_count());
    ws.size_subset(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        ws.local[v] = i;
    }
    let tournaments = tournaments.unwrap_or_else(|| tournaments_pay(g, vertices));
    grow_by(g, vertices, n1, rng, &mut ws, tournaments);
    ws.side0
}

/// The greedy growth's candidates: per group, a max tournament over the
/// group's subset vertices in `order`. Leaves hold pulls (−∞ once a
/// vertex is absorbed, and on padding) and every inner node the larger of
/// its two children, the left one on a tie, with that leaf's `order`
/// position — so the root holds the group's largest edge pull and the
/// earliest vertex with it.
///
/// A group's pulls add one offset to its edge pulls, and rounding is
/// monotone, so the root plus the offset is the group's best pull. A lower
/// edge pull can round to the same sum and tie with it, but only if the
/// float just below the root's does; then descending to the left child
/// whenever its maximum plus the offset still reaches the sum finds the
/// earliest vertex that ties, in `O(log m)`.
#[derive(Default)]
struct Tournament {
    /// Per group, the start of its nodes in `node` and its leaf count (a
    /// power of two): node `j` of group `g` is `node[start[g] + j]`, the
    /// root is `j = 1` and the leaves are `width[g]..2·width[g]`.
    start: Vec<usize>,
    width: Vec<usize>,
    /// Each node's pull and the `order` position it came from.
    node: Vec<(f64, usize)>,
    /// Per subset vertex, its leaf `j` within its group.
    leaf: Vec<usize>,
    /// Per group, the next leaf to place while the tournaments are built.
    cursor: Vec<usize>,
}

impl Tournament {
    /// Lays out the tournaments of `ng` groups over `order`, with `grp`
    /// giving a subset vertex's group and `pull` its leaf value.
    fn lay_out(
        &mut self,
        order: &[usize],
        ng: usize,
        grp: impl Fn(usize) -> usize,
        pull: impl Fn(usize) -> f64,
    ) {
        self.width.clear();
        self.width.resize(ng, 0);
        for &i in order {
            self.width[grp(i)] += 1;
        }
        self.start.clear();
        let mut total = 0;
        for w in &mut self.width {
            *w = w.next_power_of_two();
            self.start.push(total);
            total += 2 * *w;
        }
        self.node.clear();
        self.node.resize(total, (f64::NEG_INFINITY, usize::MAX));
        self.leaf.resize(order.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.width);
        for (p, &i) in order.iter().enumerate() {
            let g = grp(i);
            let j = self.cursor[g];
            self.cursor[g] += 1;
            self.leaf[i] = j;
            self.node[self.start[g] + j] = (pull(i), p);
        }
        for (&s, &w) in self.start.iter().zip(&self.width) {
            for j in (1..w).rev() {
                self.node[s + j] = Self::winner(self.node[s + 2 * j], self.node[s + 2 * j + 1]);
            }
        }
    }

    fn winner(l: (f64, usize), r: (f64, usize)) -> (f64, usize) {
        if r.0 > l.0 {
            r
        } else {
            l
        }
    }

    /// Sets subset vertex `i`'s leaf (in group `g`) to `pull`.
    fn set(&mut self, i: usize, g: usize, pull: f64) {
        let tree = &mut self.node[self.start[g]..self.start[g] + 2 * self.width[g]];
        let mut j = self.leaf[i];
        tree[j].0 = pull;
        while j > 1 {
            j /= 2;
            let w = Self::winner(tree[2 * j], tree[2 * j + 1]);
            if w.0.to_bits() == tree[j].0.to_bits() && w.1 == tree[j].1 {
                break; // the ancestors hold already
            }
            tree[j] = w;
        }
    }

    /// Group `g`'s best pull — its largest edge pull plus `offset`, the
    /// group's attraction part — and the earliest `order` position that
    /// reaches it; `None` once every vertex of the group is absorbed.
    fn best(&self, g: usize, offset: Option<f64>) -> Option<(f64, usize)> {
        let s = self.start[g];
        let (root, first) = self.node[s + 1];
        if root == f64::NEG_INFINITY {
            return None;
        }
        let Some(offset) = offset else { return Some((root, first)) };
        let pull = root + offset;
        if root.next_down() + offset != pull {
            return Some((pull, first));
        }
        let mut j = 1;
        while j < self.width[g] {
            j = 2 * j + usize::from(self.node[s + 2 * j].0 + offset != pull);
        }
        Some((pull, self.node[s + j].1))
    }
}

/// One FM pass with exact balance targets: moves may leave the split one
/// vertex out of balance mid-pass, and the best *balanced* prefix of the
/// move sequence is kept. Returns whether the cut improved.
///
/// The inner scan reads a cached gain array (`gain[i] = conn[i][other] −
/// conn[i][own]`, recomputed only for vertices whose connectivity the last
/// move touched) and a per-step balance gate: with `size0 ∈ [n1−1, n1+1]`,
/// a side-0 vertex may move iff `size0 ≥ n1` and a side-1 vertex iff
/// `size0 ≤ n1` — exactly the `|new_size0 − n1| ≤ 1` test the original
/// per-vertex check performed.
///
/// With a [`GroupAttraction`], a move's full gain is its edge gain plus
/// `weight · (cnt[g][other] − (cnt[g][own] − 1))`. The attraction part is
/// uniform across one (side, group), so the heaps are split per
/// (side, group), hold edge gains only, and the attraction offset joins at
/// selection time — a move shifts the offsets of its own group through the
/// count table instead of invalidating heap entries.
// sf: hot-path
fn fm_pass(
    vertices: &[usize],
    cut: &mut f64,
    n1: usize,
    g: &WeightedGraph,
    ws: &mut Workspace,
) -> bool {
    let m = vertices.len();
    let at = g.attraction();
    let ng = at.map_or(1, |a| a.group_count().max(1));
    let grp = |i: usize| at.map_or(0, |a| a.group_of()[vertices[i]] as usize);
    let start_cut = *cut;
    ws.locked[..m].fill(false);
    let mut size0 = ws.side0[..m].iter().filter(|&&s| s).count();
    for i in 0..m {
        let own = usize::from(!ws.side0[i]);
        let other = usize::from(ws.side0[i]);
        ws.gain[i] = ws.conn[i][other] - ws.conn[i][own];
    }
    ws.gcnt.clear();
    ws.gcnt.resize(ng * 2, 0);
    for i in 0..m {
        ws.gcnt[grp(i) * 2 + usize::from(!ws.side0[i])] += 1;
    }

    ws.moves.clear();
    let mut running = *cut;
    let mut best_cut = *cut;
    let mut best_prefix = 0usize;

    // Seed the per-(side, group) gain heaps; every edge-gain update pushes
    // a fresh entry, and pops discard entries whose vertex is locked or
    // whose recorded gain is no longer current.
    if ws.heaps.len() < 2 * ng {
        ws.heaps.resize_with(2 * ng, std::collections::BinaryHeap::new);
    }
    for h in &mut ws.heaps {
        h.clear();
    }
    for i in 0..m {
        ws.heaps[usize::from(ws.side0[i]) * ng + grp(i)]
            .push(GainEntry { gain: ws.gain[i], idx: i });
    }

    for _step in 0..m {
        // Pick the best-gain unlocked vertex whose move keeps |size0-n1|<=1:
        // the balance gate reduces to which *side* may donate, so the
        // selection is the best of the allowed sides' heap tops (plus the
        // per-group attraction offset).
        let allow_from0 = size0 >= n1;
        let allow_from1 = size0 <= n1;
        let mut best = usize::MAX;
        let mut best_gain = f64::NEG_INFINITY;
        for (side, allowed) in [(1usize, allow_from0), (0, allow_from1)] {
            if !allowed {
                continue;
            }
            // side index: heaps `1*ng..2*ng` hold side-0 vertices
            // (side0 == true).
            for gi in 0..ng {
                let h = side * ng + gi;
                while let Some(&top) = ws.heaps[h].peek() {
                    if ws.locked[top.idx] || ws.gain[top.idx] != top.gain {
                        ws.heaps[h].pop();
                        continue;
                    }
                    break;
                }
                if let Some(&top) = ws.heaps[h].peek() {
                    let gain = match at {
                        // A side-0 vertex (heap side 1) has conn side index
                        // `own = 0`, i.e. `own = 1 - side`.
                        Some(a) => {
                            let own = ws.gcnt[gi * 2 + (1 - side)];
                            let other = ws.gcnt[gi * 2 + side];
                            top.gain + a.weight() * (f64::from(other) - f64::from(own - 1))
                        }
                        None => top.gain,
                    };
                    if gain > best_gain || (gain == best_gain && top.idx < best) {
                        best_gain = gain;
                        best = top.idx;
                    }
                }
            }
        }
        if best == usize::MAX {
            break;
        }

        // Apply the move.
        let from0 = ws.side0[best];
        ws.side0[best] = !from0;
        size0 = if from0 { size0 - 1 } else { size0 + 1 };
        running -= best_gain;
        ws.locked[best] = true;
        ws.moves.push(best);
        if at.is_some() {
            let gb = grp(best);
            ws.gcnt[gb * 2 + usize::from(!from0)] -= 1;
            ws.gcnt[gb * 2 + usize::from(from0)] += 1;
        }

        // Update neighbor connectivity and cached edge gains.
        for &(u, w) in g.neighbors(vertices[best]) {
            let lu = ws.local[u as usize];
            if lu == usize::MAX {
                continue;
            }
            // `best` moved from side `from0` to the opposite side.
            let old_s = usize::from(!from0);
            let new_s = usize::from(from0);
            ws.conn[lu][old_s] -= w;
            ws.conn[lu][new_s] += w;
            let own = usize::from(!ws.side0[lu]);
            let other = usize::from(ws.side0[lu]);
            ws.gain[lu] = ws.conn[lu][other] - ws.conn[lu][own];
            if !ws.locked[lu] {
                ws.heaps[usize::from(ws.side0[lu]) * ng + grp(lu)]
                    .push(GainEntry { gain: ws.gain[lu], idx: lu });
            }
        }

        if size0 == n1 && running < best_cut - 1e-12 {
            best_cut = running;
            best_prefix = ws.moves.len();
        }
    }

    ws.applied += ws.moves.len() as u64;
    // Roll back everything after the best balanced prefix. (`gcnt` is
    // rebuilt at the top of every pass, so only `side0`/`conn` need
    // restoring.)
    for step in (best_prefix..ws.moves.len()).rev() {
        let i = ws.moves[step];
        let from0 = ws.side0[i];
        ws.side0[i] = !from0;
        for &(u, w) in g.neighbors(vertices[i]) {
            let lu = ws.local[u as usize];
            if lu == usize::MAX {
                continue;
            }
            let old_s = usize::from(!from0);
            let new_s = usize::from(from0);
            ws.conn[lu][old_s] -= w;
            ws.conn[lu][new_s] += w;
        }
    }
    *cut = best_cut.min(start_cut);
    best_cut < start_cut - 1e-12
}

/// Deterministic warm-start refinement: normalizes `initial` to exactly
/// `parts` non-empty blocks (merging the weakest-attached smallest blocks
/// or splitting the largest ones as needed), rebalances block sizes to the
/// near-equal `{⌊n/k⌋, ⌈n/k⌉}` envelope, then runs move/swap local search.
/// No randomness is consumed: a warm-started partition is a pure function
/// of the graph and the initial assignment.
pub(crate) fn warm_refine(
    g: &WeightedGraph,
    initial: &[u32],
    parts: usize,
    max_passes: u32,
    out: &mut Vec<u32>,
    ws: &mut Workspace,
) {
    out.clear();
    out.extend_from_slice(initial);
    let mut used = compact_labels(out);
    while used > parts {
        merge_smallest_block(g, out, used);
        used -= 1;
    }
    while used < parts {
        split_best_block(g, out, used, max_passes, ws);
        used += 1;
    }
    rebalance(g, out, parts);
    kway_fm_refine(g, out, parts, max_passes, ws);
}


/// Relabels blocks densely as `0..used` (ascending original label order)
/// and returns `used`.
fn compact_labels(assignment: &mut [u32]) -> usize {
    let max = assignment.iter().copied().max().unwrap_or(0) as usize;
    let mut present = vec![false; max + 1];
    for &a in assignment.iter() {
        present[a as usize] = true;
    }
    let mut remap = vec![u32::MAX; max + 1];
    let mut used = 0u32;
    for (old, &p) in present.iter().enumerate() {
        if p {
            remap[old] = used;
            used += 1;
        }
    }
    for a in assignment.iter_mut() {
        *a = remap[*a as usize];
    }
    used as usize
}

fn block_sizes(assignment: &[u32], used: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; used];
    for &a in assignment {
        sizes[a as usize] += 1;
    }
    sizes
}

/// Dissolves the smallest block into the block it is most strongly
/// connected to (stored edges plus implicit attraction), then relabels
/// `used - 1` into the freed label so the labels stay dense. Ties break
/// towards the lowest label.
fn merge_smallest_block(g: &WeightedGraph, assignment: &mut [u32], used: usize) {
    let sizes = block_sizes(assignment, used);
    let Some(victim) = sizes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(p, _)| p as u32)
    else {
        return; // no blocks: nothing to merge
    };
    let mut conn_to = vec![0.0f64; used];
    for (v, &a) in assignment.iter().enumerate() {
        if a != victim {
            continue;
        }
        for &(u, w) in g.neighbors(v) {
            let t = assignment[u as usize];
            if t != victim {
                conn_to[t as usize] += w;
            }
        }
    }
    if let Some(at) = g.attraction() {
        let ng = at.group_count().max(1);
        let mut cnt = vec![0u64; ng * used];
        for (v, &a) in assignment.iter().enumerate() {
            cnt[at.group_of()[v] as usize * used + a as usize] += 1;
        }
        for (v, &a) in assignment.iter().enumerate() {
            if a != victim {
                continue;
            }
            let row = at.group_of()[v] as usize * used;
            for (t, c) in conn_to.iter_mut().enumerate() {
                if t as u32 != victim {
                    *c += at.weight() * cnt[row + t] as f64;
                }
            }
        }
    }
    let Some(target) = (0..used as u32)
        .filter(|&p| p != victim)
        .max_by(|&a, &b| {
            conn_to[a as usize].total_cmp(&conn_to[b as usize]).then(b.cmp(&a))
        })
    else {
        return; // a single block cannot be merged into anything
    };
    let last = used as u32 - 1;
    for a in assignment.iter_mut() {
        if *a == victim {
            *a = target;
        }
        if *a == last {
            *a = victim;
        }
    }
}

/// Deterministically bisects the subgraph induced by `members` into halves
/// of `⌊m/2⌋` and `⌈m/2⌉` vertices — the cold path's bisection machinery
/// (greedy growth + FM passes) minus the randomized restarts: growth is
/// seeded from the block's most weakly attached member, ties break towards
/// the lowest index. Returns the side-0 mask and the weight crossing the
/// split.
fn bisect_members(
    g: &WeightedGraph,
    members: &[usize],
    max_passes: u32,
    ws: &mut Workspace,
) -> (Vec<bool>, f64) {
    let m = members.len();
    debug_assert!(m >= 2);
    let n1 = m / 2;
    ws.size_subset(m);
    for (i, &v) in members.iter().enumerate() {
        ws.local[v] = i;
    }

    let at = g.attraction();
    // Same-group member count within the block, for the attraction part of
    // internal connectivity.
    let cntg: Vec<u32> = match at {
        Some(a) => {
            let mut cntg = vec![0u32; a.group_count().max(1)];
            for &v in members {
                cntg[a.group_of()[v] as usize] += 1;
            }
            cntg
        }
        None => Vec::new(),
    };

    // Periphery seed: weakest internal connectivity, lowest index on ties.
    let internal = |i: usize, local: &[usize]| -> f64 {
        let edge: f64 = g
            .neighbors(members[i])
            .iter()
            .filter(|&&(u, _)| local[u as usize] != usize::MAX)
            .map(|&(_, w)| w)
            .sum();
        match at {
            Some(a) => {
                edge + a.weight() * f64::from(cntg[a.group_of()[members[i]] as usize] - 1)
            }
            None => edge,
        }
    };
    let Some(seed) = (0..m).min_by(|&a, &b| {
        internal(a, &ws.local).total_cmp(&internal(b, &ws.local)).then(a.cmp(&b))
    }) else {
        return (Vec::new(), 0.0); // empty block: nothing to bisect
    };

    let absorb = |i: usize, local: &[usize], side0: &mut [bool], attraction: &mut [f64]| {
        side0[i] = true;
        for &(u, w) in g.neighbors(members[i]) {
            let lu = local[u as usize];
            if lu != usize::MAX {
                attraction[lu] += w;
            }
        }
    };
    let mut cnt0: Vec<u32> = match at {
        Some(a) => vec![0; a.group_count().max(1)],
        None => Vec::new(),
    };
    absorb(seed, &ws.local, &mut ws.side0, &mut ws.attraction);
    if let Some(a) = at {
        cnt0[a.group_of()[members[seed]] as usize] += 1;
    }
    for _ in 1..n1 {
        let eff = |i: usize| match at {
            Some(a) => {
                ws.attraction[i] + a.weight() * f64::from(cnt0[a.group_of()[members[i]] as usize])
            }
            None => ws.attraction[i],
        };
        let Some(next) = (0..m).filter(|&i| !ws.side0[i]).max_by(|&a, &b| {
            eff(a).total_cmp(&eff(b)).then(b.cmp(&a))
        }) else {
            break; // every member already absorbed: growth is complete
        };
        absorb(next, &ws.local, &mut ws.side0, &mut ws.attraction);
        if let Some(a) = at {
            cnt0[a.group_of()[members[next]] as usize] += 1;
        }
    }

    // Polish with the exact-balance FM passes of the cold path.
    let mut cut = 0.0;
    for (i, &v) in members.iter().enumerate() {
        for &(u, w) in g.neighbors(v) {
            let lu = ws.local[u as usize];
            if lu == usize::MAX {
                continue;
            }
            let s = usize::from(!ws.side0[lu]);
            ws.conn[i][s] += w;
            if ws.side0[i] != ws.side0[lu] && i < lu {
                cut += w;
            }
        }
    }
    cut += subset_split_attraction(g, members, &ws.side0[..m]);
    if n1 >= 1 && n1 < m {
        for _ in 0..max_passes {
            if !fm_pass(members, &mut cut, n1, g, ws) {
                break;
            }
        }
    }
    let mask = ws.side0[..m].to_vec();
    for &v in members {
        ws.local[v] = usize::MAX;
    }
    (mask, cut)
}

/// The winning split candidate: `(cross weight, size, label, members,
/// side-0 mask)`.
type SplitChoice = (f64, usize, u32, Vec<usize>, Vec<bool>);

/// Splits one block in two under the next free label. Every block is a
/// candidate: each is FM-bisected and the block whose halves are most
/// weakly coupled wins (ties prefer the larger block — better balance —
/// then the lower label).
fn split_best_block(
    g: &WeightedGraph,
    assignment: &mut [u32],
    used: usize,
    max_passes: u32,
    ws: &mut Workspace,
) {
    let sizes = block_sizes(assignment, used);
    let mut best: Option<SplitChoice> = None;
    for block in 0..used as u32 {
        let size = sizes[block as usize];
        if size < 2 {
            continue;
        }
        let members: Vec<usize> =
            (0..assignment.len()).filter(|&v| assignment[v] == block).collect();
        let (mask, cross) = bisect_members(g, &members, max_passes, ws);
        let better = match &best {
            None => true,
            Some((bc, bs, bl, _, _)) => {
                cross < *bc - 1e-12
                    || (cross <= *bc + 1e-12 && (size > *bs || (size == *bs && block < *bl)))
            }
        };
        if better {
            best = Some((cross, size, block, members, mask));
        }
    }
    let Some((_, _, _, members, mask)) = best else {
        return; // every block is a singleton: nothing can be split
    };
    for (i, &v) in members.iter().enumerate() {
        if mask[i] {
            assignment[v] = used as u32;
        }
    }
}

/// Moves vertices from oversized to undersized blocks (best connectivity
/// gain first) until every block size lies in `{⌊n/k⌋, ⌈n/k⌉}`.
fn rebalance(g: &WeightedGraph, assignment: &mut [u32], parts: usize) {
    let n = assignment.len();
    let base = n / parts;
    let mut sizes = block_sizes(assignment, parts);
    let mut conn = Connectivity::new(g, assignment, parts);
    while sizes.iter().any(|&s| s > base + 1 || s < base) {
        let (Some(donor), Some(recv)) = (
            (0..parts).max_by(|&a, &b| sizes[a].cmp(&sizes[b]).then(b.cmp(&a))),
            (0..parts).min_by(|&a, &b| sizes[a].cmp(&sizes[b]).then(a.cmp(&b))),
        ) else {
            break; // zero blocks: nothing to rebalance
        };
        let (donor, recv) = (donor as u32, recv as u32);
        debug_assert!(sizes[donor as usize] > sizes[recv as usize]);
        let Some(v) = (0..n).filter(|&v| assignment[v] == donor).max_by(|&a, &b| {
            conn.gain(a, donor, recv).total_cmp(&conn.gain(b, donor, recv)).then(b.cmp(&a))
        }) else {
            break; // donor emptied out: sizes are as balanced as they get
        };
        conn.apply_move(g, assignment, &mut sizes, v, recv);
    }
}

/// Per-vertex block connectivity, maintained incrementally across moves
/// and swaps. `conn[v * parts + p]` is the weight from `v` into block `p`
/// — stored edges plus, with a [`GroupAttraction`], the implicit
/// `weight · (members of v's group in p)` term, folded in so the hot gain
/// evaluation stays a plain subtraction (a move's attraction gain is then
/// the conn difference plus the constant `weight`, correcting for `v`
/// counting itself in its source block).
struct Connectivity<'a> {
    conn: Vec<f64>,
    parts: usize,
    at: Option<&'a GroupAttraction>,
    /// Vertices of each group (only with an attraction): a move shifts the
    /// whole group's folded conn at the two touched columns.
    members: Vec<Vec<u32>>,
}

impl<'a> Connectivity<'a> {
    fn new(g: &'a WeightedGraph, assignment: &[u32], parts: usize) -> Self {
        let mut conn = vec![0.0f64; assignment.len() * parts];
        for (v, row) in conn.chunks_mut(parts).enumerate() {
            for &(u, w) in g.neighbors(v) {
                row[assignment[u as usize] as usize] += w;
            }
        }
        let at = g.attraction();
        let mut members: Vec<Vec<u32>> = Vec::new();
        if let Some(a) = at {
            let ng = a.group_count().max(1);
            members = vec![Vec::new(); ng];
            for (v, &gv) in a.group_of().iter().enumerate() {
                members[gv as usize].push(v as u32);
            }
            let mut cnt = vec![0u32; ng * parts];
            for (v, &b) in assignment.iter().enumerate() {
                cnt[a.group_of()[v] as usize * parts + b as usize] += 1;
            }
            for (v, row) in conn.chunks_mut(parts).enumerate() {
                let base = a.group_of()[v] as usize * parts;
                for (p, c) in row.iter_mut().enumerate() {
                    *c += a.weight() * f64::from(cnt[base + p]);
                }
            }
        }
        Self { conn, parts, at, members }
    }

    fn gain(&self, v: usize, from: u32, to: u32) -> f64 {
        let d =
            self.conn[v * self.parts + to as usize] - self.conn[v * self.parts + from as usize];
        match self.at {
            Some(a) => d + a.weight(),
            None => d,
        }
    }

    /// Writes `gain(v, from, p)` for every block `p` into `out` (the entry
    /// at `from` itself is meaningless) and raises `maxes[p]` to it — the
    /// same bits as [`Self::gain`], in one loop the compiler can vectorize.
    fn gains_from(&self, v: usize, from: usize, out: &mut [f64], maxes: &mut [f64]) {
        let row = &self.conn[v * self.parts..(v + 1) * self.parts];
        let own = row[from];
        let entries = out.iter_mut().zip(row).zip(maxes.iter_mut());
        match self.at {
            Some(a) => {
                let w = a.weight();
                for ((g, &c), max) in entries {
                    *g = c - own + w;
                    *max = if *g > *max { *g } else { *max };
                }
            }
            None => {
                for ((g, &c), max) in entries {
                    *g = c - own;
                    *max = if *g > *max { *g } else { *max };
                }
            }
        }
    }

    fn apply_move(
        &mut self,
        g: &WeightedGraph,
        assignment: &mut [u32],
        sizes: &mut [usize],
        v: usize,
        to: u32,
    ) {
        let from = assignment[v];
        assignment[v] = to;
        sizes[from as usize] -= 1;
        sizes[to as usize] += 1;
        for &(u, w) in g.neighbors(v) {
            let row = u as usize * self.parts;
            self.conn[row + from as usize] -= w;
            self.conn[row + to as usize] += w;
        }
        if let Some(a) = self.at {
            let w = a.weight();
            for &x in &self.members[a.group_of()[v] as usize] {
                let row = x as usize * self.parts;
                self.conn[row + from as usize] -= w;
                self.conn[row + to as usize] += w;
            }
        }
    }
}

/// One warm-refinement action, logged so the tail of an FM pass can be
/// rolled back to the best prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Action {
    /// `(vertex, from-block, to-block)`.
    Move(usize, u32, u32),
    /// `(v, v's old block, u, u's old block)` with `v < u` — the two
    /// swapped blocks.
    Swap(usize, u32, usize, u32),
}

/// Per action, the block-pair search runs when the unlocked vertices
/// number at least this many times the blocks holding one; below that its
/// `O(m·k)` gain table and `O(k²)` pair bounds cost more than the `O(m²)`
/// vertex-pair scan. Measured on the perfbench panels (engine runs on a
/// 2-vCPU Xeon): pipe128 took the same time at 2 and 3 and 20% more at 4,
/// and dense36's partitioning time did not move between 2, 3, 4 and the
/// scan alone. pipe128 (128 cores, k ≤ 31) runs the block search; the
/// k > n/2 calls of dense36 and media26 run the scan.
const BLOCK_SEARCH_RATIO: usize = 3;

/// The pass state one action selection of [`kway_fm_refine`] reads.
pub(crate) struct PassState<'s> {
    graph: &'s WeightedGraph,
    assignment: &'s [u32],
    sizes: &'s [usize],
    conn: &'s Connectivity<'s>,
    /// Unlocked vertices, ascending.
    unlocked: &'s [u32],
    /// How many blocks hold an unlocked vertex.
    filled_blocks: usize,
    /// Dense pair weights, attraction included; none is negative.
    wmat: &'s [f64],
    /// The small block size `⌊n/k⌋`.
    base: usize,
}

/// The best action offered so far under the vertex-pair scan's order: the
/// largest gain, ties going to the smallest scan key — `(v, 0, p)` for a
/// move of `v` into `p`, `(v, 1, u)` for a swap of `v < u`.
struct Best {
    gain: f64,
    key: (usize, usize, usize),
    action: Option<Action>,
}

impl Best {
    fn new() -> Self {
        Self { gain: f64::NEG_INFINITY, key: (usize::MAX, 0, 0), action: None }
    }

    /// Ties compare with `==`, so `0.0` and `-0.0` tie exactly as the
    /// scan's strict `>` lets them.
    fn offer(&mut self, gain: f64, key: (usize, usize, usize), action: Action) {
        if gain > self.gain || (gain == self.gain && self.action.is_some() && key < self.key) {
            *self = Self { gain, key, action: Some(action) };
        }
    }

    fn into_choice(self) -> Option<(Action, f64)> {
        self.action.map(|a| (a, self.gain))
    }
}

/// Vertices of each block, ascending: the unlocked ones for the warm
/// refinement's block search, every vertex for the swap polish.
#[derive(Default)]
struct BlockLists {
    /// `members[start[p]..end[p]]` lists block `p`'s vertices. A block's
    /// slots are laid out when the lists are built; a removal shortens
    /// the list from the end, a replacement keeps its length.
    start: Vec<usize>,
    end: Vec<usize>,
    members: Vec<u32>,
    /// The blocks holding a listed vertex, ascending.
    filled: Vec<usize>,
    /// A move goes from a `⌈n/k⌉` block (a donor holding a listed vertex)
    /// into a `⌊n/k⌋` one (a receiver).
    donors: Vec<usize>,
    receivers: Vec<usize>,
}

impl BlockLists {
    fn of(&self, p: usize) -> &[u32] {
        &self.members[self.start[p]..self.end[p]]
    }

    /// Lists `vertices` (ascending) under their blocks in `assignment`.
    fn list(&mut self, vertices: &[u32], assignment: &[u32], parts: usize) {
        self.start.clear();
        self.start.resize(parts + 1, 0);
        for &v in vertices {
            self.start[assignment[v as usize] as usize + 1] += 1;
        }
        for p in 0..parts {
            self.start[p + 1] += self.start[p];
        }
        // `end` is the write cursor until every vertex is placed.
        self.end.clear();
        self.end.extend_from_slice(&self.start[..parts]);
        self.members.clear();
        self.members.resize(vertices.len(), 0);
        for &v in vertices {
            let c = &mut self.end[assignment[v as usize] as usize];
            self.members[*c] = v;
            *c += 1;
        }
    }

    /// Takes `v` off block `p`'s list.
    fn remove(&mut self, p: usize, v: usize) {
        let list = &mut self.members[self.start[p]..self.end[p]];
        if let Ok(i) = list.binary_search(&(v as u32)) {
            list.copy_within(i + 1.., i);
            self.end[p] -= 1;
        }
    }

    /// Puts `new` in `old`'s place on block `p`'s list, moved to keep the
    /// list ascending.
    fn replace(&mut self, p: usize, old: usize, new: usize) {
        let list = &mut self.members[self.start[p]..self.end[p]];
        let new = new as u32;
        let Ok(mut i) = list.binary_search(&(old as u32)) else { return };
        while i + 1 < list.len() && list[i + 1] < new {
            list[i] = list[i + 1];
            i += 1;
        }
        while i > 0 && list[i - 1] > new {
            list[i] = list[i - 1];
            i -= 1;
        }
        list[i] = new;
    }

    /// Recomputes the filled, donor and receiver blocks for block sizes
    /// `sizes` around the small size `base`.
    fn classify(&mut self, sizes: &[usize], base: usize) {
        self.filled.clear();
        self.donors.clear();
        self.receivers.clear();
        for (p, &size) in sizes.iter().enumerate() {
            if self.end[p] > self.start[p] {
                self.filled.push(p);
                if size == base + 1 {
                    self.donors.push(p);
                }
            }
            if size == base {
                self.receivers.push(p);
            }
        }
    }
}

/// Gains of the listed vertices into every block, with per-(block,
/// target) upper bounds.
#[derive(Default)]
struct GainTable {
    /// The block count `k`.
    parts: usize,
    /// Whether [`Self::refresh`] keeps each vertex's row (the warm pass's
    /// unlocked vertices).
    live: Vec<bool>,
    /// `gain[v * k + p]`: the gain of moving `v` into block `p`.
    gain: Vec<f64>,
    /// `gmax[a * k + b]`: an upper bound on the `gain` of every listed
    /// block-`a` member into `b`. A row refresh only raises it and a lock
    /// or a departure leaves it, so it can run high; a scan of `a`'s
    /// members against `b` sets it to the exact maximum again.
    gmax: Vec<f64>,
}

impl GainTable {
    /// Sizes the table for `n` vertices in `parts` blocks, every row dead
    /// and every bound at −∞.
    fn reset(&mut self, n: usize, parts: usize) {
        self.parts = parts;
        self.live.clear();
        self.live.resize(n, false);
        self.gain.resize(n * parts, 0.0);
        self.gmax.clear();
        self.gmax.resize(parts * parts, f64::NEG_INFINITY);
    }

    /// Recomputes every unlocked vertex's gains and the exact maxima.
    fn sweep_all(&mut self, s: &PassState<'_>, lists: &BlockLists) {
        let parts = s.sizes.len();
        self.reset(s.assignment.len(), parts);
        for &v in s.unlocked {
            self.live[v as usize] = true;
        }
        for a in 0..parts {
            let maxes = &mut self.gmax[a * parts..(a + 1) * parts];
            for &x in lists.of(a) {
                let x = x as usize;
                s.conn.gains_from(x, a, &mut self.gain[x * parts..(x + 1) * parts], maxes);
            }
        }
    }

    /// Locks the vertices `action` moved and recomputes the gain rows
    /// whose connectivity it changed: the moved vertices' neighbors and,
    /// with a [`GroupAttraction`], their groups.
    fn refresh(&mut self, s: &PassState<'_>, action: Action) {
        let (v, u) = match action {
            Action::Move(v, _, _) => (v, None),
            Action::Swap(v, _, u, _) => (v, Some(u)),
        };
        for moved in [Some(v), u].into_iter().flatten() {
            self.live[moved] = false;
        }
        for moved in [Some(v), u].into_iter().flatten() {
            for &(t, _) in s.graph.neighbors(moved) {
                self.refresh_row(s, t as usize);
            }
        }
        if let Some(at) = s.conn.at {
            let gv = at.group_of()[v];
            let gu = u.map(|u| at.group_of()[u]).filter(|&gu| gu != gv);
            for grp in [Some(gv), gu].into_iter().flatten() {
                for &x in &s.conn.members[grp as usize] {
                    self.refresh_row(s, x as usize);
                }
            }
        }
    }

    fn refresh_row(&mut self, s: &PassState<'_>, x: usize) {
        if !self.live[x] {
            return;
        }
        let parts = self.parts;
        let a = s.assignment[x] as usize;
        s.conn.gains_from(
            x,
            a,
            &mut self.gain[x * parts..(x + 1) * parts],
            &mut self.gmax[a * parts..(a + 1) * parts],
        );
    }

    /// Sets vertex `x`'s row to the swap polish's one-sided gains,
    /// `conn[x][p] − conn[x][own]` (`conn` laid out as in
    /// [`Connectivity`]), and raises `gmax[own][·]` to it.
    fn polish_row(&mut self, conn: &[f64], x: usize, own: usize) {
        let parts = self.parts;
        let row = &conn[x * parts..(x + 1) * parts];
        let from = row[own];
        let gains = self.gain[x * parts..(x + 1) * parts].iter_mut();
        let maxes = self.gmax[own * parts..(own + 1) * parts].iter_mut();
        for ((g, &c), max) in gains.zip(row).zip(maxes) {
            *g = c - from;
            *max = if *g > *max { *g } else { *max };
        }
    }

    /// Offers every move of a block-`a` member into block `b`, and sets
    /// `gmax[a][b]` to the exact maximum.
    fn scan_moves(&mut self, lists: &BlockLists, a: usize, b: usize, best: &mut Best) {
        let parts = self.parts;
        let mut max = f64::NEG_INFINITY;
        for &x in lists.of(a) {
            let x = x as usize;
            let gx = self.gain[x * parts + b];
            max = if gx > max { gx } else { max };
            best.offer(gx, (x, 0, b), Action::Move(x, a as u32, b as u32));
        }
        self.gmax[a * parts + b] = max;
    }

    /// Offers every swap between blocks `a` and `b` that can reach the
    /// best gain, and sets `gmax[a][b]` and `gmax[b][a]` to the exact
    /// maxima. A swap's gain is `g(x) + g(y) − 2·w(x, y)`, plus `bonus`
    /// when there is one (the swap polish's), and `w` is not negative, so
    /// a member `x` of `a` is skipped when `g(x) + max g(·, b→a)` (plus
    /// the bonus) is below the best, and a partner `y` when `g(x) + g(y)`
    /// (plus the bonus) is.
    fn scan_swaps(
        &mut self,
        lists: &BlockLists,
        wmat: &[f64],
        bonus: Option<f64>,
        a: usize,
        b: usize,
        best: &mut Best,
    ) {
        let parts = self.parts;
        let n = self.live.len();
        let lift = |x: f64| bonus.map_or(x, |bonus| x + bonus);
        let mut top_b = f64::NEG_INFINITY;
        for &y in lists.of(b) {
            let gy = self.gain[y as usize * parts + a];
            top_b = if gy > top_b { gy } else { top_b };
        }
        let mut top_a = f64::NEG_INFINITY;
        for &x in lists.of(a) {
            let x = x as usize;
            let gx = self.gain[x * parts + b];
            top_a = if gx > top_a { gx } else { top_a };
            if lift(gx + top_b) < best.gain {
                continue;
            }
            for &y in lists.of(b) {
                let y = y as usize;
                let gy = self.gain[y * parts + a];
                if lift(gx + gy) < best.gain {
                    continue;
                }
                let (lo, hi) = (x.min(y), x.max(y));
                let (plo, phi) = if lo == x { (a, b) } else { (b, a) };
                let gain = lift(gx + gy - 2.0 * wmat[lo * n + hi]);
                best.offer(gain, (lo, 1, hi), Action::Swap(lo, plo as u32, hi, phi as u32));
            }
        }
        self.gmax[a * parts + b] = top_a;
        self.gmax[b * parts + a] = top_b;
    }
}

/// Scratch and incremental state of the block-pair search, kept in
/// [`Workspace`] so that no pick allocates. It serves two runs of picks,
/// never interleaved, each of which starts by invalidating it: a pass of
/// the warm k-way refinement ([`Self::best_action`]) and a swap polish
/// ([`Self::best_swap`]).
///
/// Between two searches of one pass, the pass applies the returned action.
/// That locks the moved vertices, so the next search takes them off their
/// block lists, and it changes the connectivity of their neighbors (and,
/// with a [`GroupAttraction`], of their groups) only, so the next search
/// recomputes just those gain rows. A scan-selected action in between
/// invalidates both, and the next search rebuilds the lists from the
/// unlocked roster and sweeps the table whole.
#[derive(Default)]
pub(crate) struct BlockSearch {
    lists: BlockLists,
    table: GainTable,
    /// Every vertex, ascending: what the polish lists.
    everyone: Vec<u32>,
    /// The pick the previous search returned, while `lists` and `table`
    /// hold once it is taken into account; `None` makes the next search
    /// rebuild them.
    last: Option<Action>,
}

impl BlockSearch {
    /// Forgets the lists and the gain table: the next search rebuilds them.
    fn invalidate(&mut self) {
        self.last = None;
    }

    /// The exact best action; the pass must apply it before the next
    /// search. The gain table bounds each block pair: the moves of `a`
    /// into `b` by `gmax[a][b]`, the a–b swaps by `gmax[a][b] +
    /// gmax[b][a]` (pair weights are not negative). The pair with the top
    /// bound, of either kind, is scanned first; every other pair is
    /// skipped only if its bound (re-read, as scans tighten `gmax`) is
    /// below the best gain — strict `<`, so ties are still visited.
    /// Rounding is monotone, so no gain exceeds its pair's bound.
    pub(crate) fn best_action(&mut self, s: &PassState<'_>) -> Option<(Action, f64)> {
        let (lists, table) = (&mut self.lists, &mut self.table);
        match self.last {
            Some(last) => {
                match last {
                    Action::Move(v, from, _) => lists.remove(from as usize, v),
                    Action::Swap(v, pv, u, pu) => {
                        lists.remove(pv as usize, v);
                        lists.remove(pu as usize, u);
                    }
                }
                table.refresh(s, last);
            }
            None => {
                lists.list(s.unlocked, s.assignment, s.sizes.len());
                table.sweep_all(s, lists);
            }
        }
        lists.classify(s.sizes, s.base);
        let lists = &*lists;
        let parts = s.sizes.len();
        let swap_bound =
            |t: &GainTable, a: usize, b: usize| t.gmax[a * parts + b] + t.gmax[b * parts + a];
        // The pair with the top bound: `(bound, swap?, a, b)`.
        let mut top: Option<(f64, bool, usize, usize)> = None;
        let mut consider = |bound: f64, swap: bool, a: usize, b: usize| {
            if top.is_none_or(|(t, ..)| bound > t) {
                top = Some((bound, swap, a, b));
            }
        };
        for &a in &lists.donors {
            for &b in &lists.receivers {
                consider(table.gmax[a * parts + b], false, a, b);
            }
        }
        for (i, &a) in lists.filled.iter().enumerate() {
            for &b in &lists.filled[i + 1..] {
                consider(swap_bound(table, a, b), true, a, b);
            }
        }

        let mut best = Best::new();
        if let Some((_, top_swap, ta, tb)) = top {
            if top_swap {
                table.scan_swaps(lists, s.wmat, None, ta, tb, &mut best);
            } else {
                table.scan_moves(lists, ta, tb, &mut best);
            }
            for &a in &lists.donors {
                for &b in &lists.receivers {
                    if (top_swap, a, b) != (false, ta, tb) && table.gmax[a * parts + b] >= best.gain
                    {
                        table.scan_moves(lists, a, b, &mut best);
                    }
                }
            }
            for (i, &a) in lists.filled.iter().enumerate() {
                for &b in &lists.filled[i + 1..] {
                    if (top_swap, a, b) != (true, ta, tb) && swap_bound(table, a, b) >= best.gain {
                        table.scan_swaps(lists, s.wmat, None, a, b, &mut best);
                    }
                }
            }
        }
        let choice = best.into_choice();
        self.last = choice.map(|(action, _)| action);
        choice
    }
}

/// The vertex-pair scan: for each unlocked vertex in ascending order, its
/// moves (ascending target block), then its swaps with every later
/// unlocked vertex, keeping only strictly larger gains — so ties go to the
/// first action in that order. `O(m²)` for `m` unlocked vertices.
pub(crate) fn scan_best_action(s: &PassState<'_>) -> Option<(Action, f64)> {
    let n = s.assignment.len();
    let mut best_gain = f64::NEG_INFINITY;
    let mut best_action: Option<Action> = None;
    for (i, &v32) in s.unlocked.iter().enumerate() {
        let v = v32 as usize;
        let pv = s.assignment[v];
        if s.sizes[pv as usize] == s.base + 1 {
            for p in 0..s.sizes.len() as u32 {
                if p != pv && s.sizes[p as usize] == s.base {
                    let gain = s.conn.gain(v, pv, p);
                    if gain > best_gain {
                        best_gain = gain;
                        best_action = Some(Action::Move(v, pv, p));
                    }
                }
            }
        }
        for &u32v in &s.unlocked[i + 1..] {
            let u = u32v as usize;
            let pu = s.assignment[u];
            if pu == pv {
                continue;
            }
            let gain = s.conn.gain(v, pv, pu) + s.conn.gain(u, pu, pv) - 2.0 * s.wmat[v * n + u];
            if gain > best_gain {
                best_gain = gain;
                best_action = Some(Action::Swap(v, pv, u, pu));
            }
        }
    }
    best_action.map(|a| (a, best_gain))
}

/// Selects a pass's next action: the block-pair search when the blocks
/// holding an unlocked vertex hold [`BLOCK_SEARCH_RATIO`] each on average,
/// the vertex-pair scan otherwise. Both return the same action with the
/// same gain bits.
// sf: hot-path
pub(crate) fn select_action(s: &PassState<'_>, search: &mut BlockSearch) -> Option<(Action, f64)> {
    if s.unlocked.len() >= BLOCK_SEARCH_RATIO * s.filled_blocks {
        search.best_action(s)
    } else {
        search.invalidate();
        scan_best_action(s)
    }
}

/// Fiduccia–Mattheyses-style k-way refinement under the exact near-equal
/// size envelope. Each pass applies a sequence of locked best-gain actions
/// — single moves from a `⌈n/k⌉`-sized block to a `⌊n/k⌋`-sized one (the
/// only moves preserving the envelope) and pairwise swaps — *accepting
/// negative gains* to climb out of local optima, then keeps the best
/// prefix of the sequence. Passes repeat until one fails to improve.
///
/// Each action is the best over all unlocked vertices, ties going to the
/// first in the vertex-pair scan's order ([`scan_best_action`]). With `m`
/// unlocked vertices in `k` blocks, [`select_action`] finds it by the
/// `O(m²)` scan when `m < 3k` and otherwise by the exact block-pair search
/// ([`BlockSearch::best_action`]): a gain table swept in `O(m·k)` at the
/// start of a run of searches and then updated on the rows each action
/// touches, `O(k²)` pair bounds, and the members of the pairs whose bound
/// reaches the best gain. The action sequence, every gain's bits and the
/// kept prefix are the scan's.
fn kway_fm_refine(
    g: &WeightedGraph,
    assignment: &mut [u32],
    parts: usize,
    max_passes: u32,
    ws: &mut Workspace,
) {
    kway_fm_refine_with(g, assignment, parts, max_passes, ws, select_action);
}

/// [`kway_fm_refine`] with the action selector as a parameter.
pub(crate) fn kway_fm_refine_with(
    g: &WeightedGraph,
    assignment: &mut [u32],
    parts: usize,
    max_passes: u32,
    ws: &mut Workspace,
    mut select: impl FnMut(&PassState<'_>, &mut BlockSearch) -> Option<(Action, f64)>,
) {
    let n = assignment.len();
    if parts < 2 || n < 2 {
        return;
    }
    let base = n / parts;
    let mut sizes = block_sizes(assignment, parts);
    let mut conn = Connectivity::new(g, assignment, parts);

    // Dense pair weights: the swap-gain correction term is looked up O(1)
    // instead of scanning adjacency lists in the inner loop.
    fill_wmat(g, ws);
    let (wmat, search) = (&ws.wmat, &mut ws.search);
    let mut unlocked_in = vec![0usize; parts];

    const EPS: f64 = 1e-12;
    for _ in 0..max_passes {
        search.invalidate();
        // Shrinking ascending roster of unlocked vertices, with their
        // count per block and the number of blocks holding one.
        let mut unlocked: Vec<u32> = (0..n as u32).collect();
        unlocked_in.copy_from_slice(&sizes);
        let mut filled_blocks = sizes.iter().filter(|&&size| size > 0).count();
        let mut log: Vec<Action> = Vec::with_capacity(n);
        let mut running = 0.0f64;
        let mut best_total = 0.0f64;
        let mut best_prefix = 0usize;

        loop {
            // Best action over unlocked vertices: gains may be negative —
            // the pass commits to exploration and the prefix cut decides.
            let state = PassState {
                graph: g,
                assignment,
                sizes: &sizes,
                conn: &conn,
                unlocked: &unlocked,
                filled_blocks,
                wmat,
                base,
            };
            let Some((action, gain)) = select(&state, search) else { break };
            let mut lock = |v: usize, from: u32| {
                if let Ok(pos) = unlocked.binary_search(&(v as u32)) {
                    unlocked.remove(pos);
                }
                unlocked_in[from as usize] -= 1;
                filled_blocks -= usize::from(unlocked_in[from as usize] == 0);
            };
            match action {
                Action::Move(v, from, to) => {
                    conn.apply_move(g, assignment, &mut sizes, v, to);
                    lock(v, from);
                    log.push(action);
                }
                Action::Swap(v, pv, u, pu) => {
                    conn.apply_move(g, assignment, &mut sizes, v, pu);
                    conn.apply_move(g, assignment, &mut sizes, u, pv);
                    lock(v, pv);
                    lock(u, pu);
                    log.push(action);
                }
            }
            running += gain;
            if running > best_total + EPS {
                best_total = running;
                best_prefix = log.len();
            }
        }

        ws.applied += log.len() as u64;
        // Roll the exploration tail back to the best prefix.
        for &action in log[best_prefix..].iter().rev() {
            match action {
                Action::Move(v, from, _) => {
                    conn.apply_move(g, assignment, &mut sizes, v, from);
                }
                Action::Swap(v, pv, u, pu) => {
                    conn.apply_move(g, assignment, &mut sizes, u, pu);
                    conn.apply_move(g, assignment, &mut sizes, v, pv);
                }
            }
        }
        if best_total <= EPS {
            break;
        }
    }
}

/// The polish state one swap selection of [`kway_swap_refine`] reads.
pub(crate) struct PolishState<'s> {
    graph: &'s WeightedGraph,
    assignment: &'s [u32],
    parts: usize,
    /// One-sided folded connectivity, laid out as in [`Connectivity`].
    conn: &'s [f64],
    /// Vertices of each group (only with an attraction).
    members: &'s [Vec<u32>],
    /// Dense pair weights, attraction included; none is negative.
    wmat: &'s [f64],
    /// The flat swap-delta bonus: `2 · weight` with an attraction.
    bonus: f64,
}

/// The polish's pair scan: every vertex pair `u < v` in different blocks,
/// ascending, keeping only deltas strictly above the best so far and
/// `1e-12` — so ties go to the first pair. Returns `(u, v, delta)`.
/// `O(n²)` per round.
pub(crate) fn scan_best_swap(s: &PolishState<'_>) -> Option<(usize, usize, f64)> {
    let (n, parts, conn) = (s.assignment.len(), s.parts, s.conn);
    let mut best_delta = 1e-12;
    let mut best_pair = None;
    for u in 0..n {
        let pu = s.assignment[u] as usize;
        for v in (u + 1)..n {
            let pv = s.assignment[v] as usize;
            if pu == pv {
                continue;
            }
            let du = conn[u * parts + pv] - conn[u * parts + pu];
            let dv = conn[v * parts + pu] - conn[v * parts + pv];
            let delta = du + dv - 2.0 * s.wmat[u * n + v] + s.bonus;
            if delta > best_delta {
                best_delta = delta;
                best_pair = Some((u, v));
            }
        }
    }
    best_pair.map(|(u, v)| (u, v, best_delta))
}

impl BlockSearch {
    /// The exact best swap, as [`scan_best_swap`] picks it; the polish
    /// must apply it before the next search. For the polish the lists hold
    /// every vertex and the table the one-sided gains `conn[x][p] −
    /// conn[x][own]`. An applied swap trades one list entry in each of its
    /// two blocks and changes the gain rows of its two vertices, their
    /// neighbors and, with a [`GroupAttraction`] across two groups, those
    /// groups only, so the next search recomputes just those rows.
    ///
    /// The a–b swaps are bounded by `(gmax[a][b] + gmax[b][a]) + bonus`: a
    /// delta is `((g(u) + g(v)) − 2·w) + bonus` with `w ≥ 0`, and rounding
    /// is monotone. The pair with the top bound is scanned first; every
    /// other pair is skipped only if its bound (re-read, as scans tighten
    /// `gmax`) is below the best delta so far, which starts at the `1e-12`
    /// threshold.
    pub(crate) fn best_swap(&mut self, s: &PolishState<'_>) -> Option<(usize, usize, f64)> {
        let (lists, table) = (&mut self.lists, &mut self.table);
        let parts = s.parts;
        match self.last {
            // The previous swap of this polish: `u` and `v` traded blocks.
            Some(Action::Swap(u, _, v, _)) => {
                let (pu, pv) = (s.assignment[u] as usize, s.assignment[v] as usize);
                lists.replace(pv, u, v);
                lists.replace(pu, v, u);
                let mut refresh = |x: usize| table.polish_row(s.conn, x, s.assignment[x] as usize);
                for moved in [u, v] {
                    refresh(moved);
                    for &(t, _) in s.graph.neighbors(moved) {
                        refresh(t as usize);
                    }
                }
                if let Some(at) = s.graph.attraction() {
                    let (gu, gv) = (at.group_of()[u], at.group_of()[v]);
                    if gu != gv {
                        for &x in s.members[gu as usize].iter().chain(&s.members[gv as usize]) {
                            refresh(x as usize);
                        }
                    }
                }
            }
            // A polish start (which invalidates): list every vertex.
            _ => {
                let n = s.assignment.len();
                self.everyone.clear();
                self.everyone.extend(0..n as u32);
                lists.list(&self.everyone, s.assignment, parts);
                table.reset(n, parts);
                for x in 0..n {
                    table.polish_row(s.conn, x, s.assignment[x] as usize);
                }
            }
        }
        let lists = &*lists;
        let bound = |t: &GainTable, a: usize, b: usize| {
            (t.gmax[a * parts + b] + t.gmax[b * parts + a]) + s.bonus
        };
        let mut top: Option<(f64, usize, usize)> = None;
        for a in 0..parts {
            for b in a + 1..parts {
                let bound = bound(table, a, b);
                if top.is_none_or(|(t, ..)| bound > t) {
                    top = Some((bound, a, b));
                }
            }
        }
        // Only deltas above the scan's threshold are offered.
        let mut best = Best { gain: 1e-12, ..Best::new() };
        if let Some((_, ta, tb)) = top {
            table.scan_swaps(lists, s.wmat, Some(s.bonus), ta, tb, &mut best);
            for a in 0..parts {
                for b in a + 1..parts {
                    if (a, b) != (ta, tb) && bound(table, a, b) >= best.gain {
                        table.scan_swaps(lists, s.wmat, Some(s.bonus), a, b, &mut best);
                    }
                }
            }
        }
        let choice = best.into_choice();
        self.last = choice.map(|(action, _)| action);
        match choice {
            Some((Action::Swap(u, _, v, _), delta)) => Some((u, v, delta)),
            _ => None,
        }
    }
}

/// Selects the polish's next swap: the block-pair search when the vertices
/// number [`BLOCK_SEARCH_RATIO`] per block, the pair scan otherwise. Both
/// return the same swap with the same delta bits.
// sf: hot-path
pub(crate) fn select_swap(
    s: &PolishState<'_>,
    search: &mut BlockSearch,
) -> Option<(usize, usize, f64)> {
    if s.assignment.len() >= BLOCK_SEARCH_RATIO * s.parts {
        search.best_swap(s)
    } else {
        scan_best_swap(s)
    }
}

/// Greedy pairwise-swap refinement across all block pairs: each round
/// applies the swap with the largest delta above `1e-12` (ties to the
/// first pair `u < v`), up to 64 rounds. Swapping keeps every block size
/// unchanged, so balance is preserved exactly. The dense pair-weight
/// matrix (filled once per `partition` call, attraction included) gives
/// each pair's weight in `O(1)`; the attraction part of each one-sided
/// gain is folded into the [`Connectivity`] table.
///
/// With `n` vertices in `k` blocks, [`select_swap`] finds a round's swap by
/// the `O(n²)` pair scan when `n < 3k` and otherwise by the exact
/// block-pair search ([`BlockSearch::best_swap`]): a gain table swept in
/// `O(n·k)` once per polish and then updated on the rows each swap
/// touches, `O(k²)` pair bounds, and the members of the pairs whose bound
/// reaches the best delta. The swap sequence and every delta's bits are
/// the scan's.
pub(crate) fn kway_swap_refine(g: &WeightedGraph, assignment: &mut [u32], ws: &mut Workspace) {
    kway_swap_refine_with(g, assignment, ws, select_swap);
}

/// [`kway_swap_refine`] with the swap selector as a parameter.
pub(crate) fn kway_swap_refine_with(
    g: &WeightedGraph,
    assignment: &mut [u32],
    ws: &mut Workspace,
    mut select: impl FnMut(&PolishState<'_>, &mut BlockSearch) -> Option<(usize, usize, f64)>,
) {
    let parts = assignment.iter().copied().max().map_or(0, |p| p as usize + 1);
    if parts < 2 {
        return;
    }
    fill_wmat(g, ws);
    let Connectivity { mut conn, at, members, .. } = Connectivity::new(g, assignment, parts);
    // Both one-sided folded gains undercount by `weight` (each endpoint
    // counts itself in its source block), and `wmat` carries the pair's
    // attraction, so the swap delta gains a flat `2·weight` bonus. Adding
    // 0.0 on attraction-free graphs changes no comparison.
    let swap_bonus = at.map_or(0.0, |a| 2.0 * a.weight());
    ws.search.invalidate();

    const MAX_ROUNDS: usize = 64;
    for _ in 0..MAX_ROUNDS {
        let state = PolishState {
            graph: g,
            assignment,
            parts,
            conn: &conn,
            members: &members,
            wmat: &ws.wmat,
            bonus: swap_bonus,
        };
        let Some((u, v, _)) = select(&state, &mut ws.search) else { break };
        ws.applied += 1;
        let pu = assignment[u] as usize;
        let pv = assignment[v] as usize;
        assignment[u] = pv as u32;
        assignment[v] = pu as u32;
        // Not two `Connectivity::apply_move`s: this update order (both
        // edge passes, then both groups, none for a same-group swap) is
        // what the swap polish's sums have always been rounded in.
        for &(t, w) in g.neighbors(u) {
            let t = t as usize;
            conn[t * parts + pu] -= w;
            conn[t * parts + pv] += w;
        }
        for &(t, w) in g.neighbors(v) {
            let t = t as usize;
            conn[t * parts + pv] -= w;
            conn[t * parts + pu] += w;
        }
        if let Some(a) = at {
            let gu = a.group_of()[u] as usize;
            let gv = a.group_of()[v] as usize;
            if gu != gv {
                let w = a.weight();
                for &x in &members[gu] {
                    let row = x as usize * parts;
                    conn[row + pu] -= w;
                    conn[row + pv] += w;
                }
                for &x in &members[gv] {
                    let row = x as usize * parts;
                    conn[row + pv] -= w;
                    conn[row + pu] += w;
                }
            }
        }
    }
}
