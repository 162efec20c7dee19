//! Exact switch placement by nested minimum cuts.
//!
//! Each axis of the placement is the rectilinear multi-facility location
//! problem: minimize `Σ w·|xᵢ − c|` over the pins plus `Σ w·|xₐ − x_b|`
//! over the point pairs. Some optimum lies on the candidate coordinates
//! (the pins' and the estimates'). For a threshold between two consecutive
//! candidates, which points lie above it is a minimum s–t cut: a point
//! below pays its pins above the threshold, a point above pays its pins
//! below, and a pair the threshold splits pays its weight. The cuts are
//! nested as the threshold rises (Picard & Ratliff, *Oper. Res.* 26(3),
//! 1978), so divide and conquer over the sorted thresholds places every
//! point in O(log m) rounds of max flow (Hochbaum, *JACM* 48(4), 2001),
//! each round over disjoint groups of points. The max flow is Dinic's.
//!
//! Ties are broken by a fixed rule. Every capacity is a pair compared
//! lexicographically: the bandwidth first, then how many points the cut
//! sends away from their estimated positions. So among the optimal
//! placements the cuts pick one that is L1-nearest to the estimates, and
//! of those the greatest: each cut keeps its maximal source set, which
//! puts every point at the larger coordinate.

/// "No node" / "no edge" marker.
const NONE: usize = usize::MAX;

/// Bandwidths within this fraction of the axis's total weight of each
/// other count as equal: a cut then falls through to the estimate
/// distance instead of to rounding noise.
const RELATIVE_TIE: f64 = 1e-12;

/// A capacity, ordered lexicographically: bandwidth, then the number of
/// points moved away from their estimates.
#[derive(Debug, Clone, Copy)]
struct Lex {
    w: f64,
    d: i64,
}

impl Lex {
    const ZERO: Self = Self { w: 0.0, d: 0 };
    const INF: Self = Self { w: f64::INFINITY, d: 0 };

    fn add(self, o: Self) -> Self {
        Self { w: self.w + o.w, d: self.d + o.d }
    }

    fn sub(self, o: Self) -> Self {
        Self { w: self.w - o.w, d: self.d - o.d }
    }

    /// Whether `self > 0`, with bandwidths within `eps` of zero counted
    /// as zero.
    fn positive(self, eps: f64) -> bool {
        if self.w > eps {
            true
        } else if self.w < -eps {
            false
        } else {
            self.d > 0
        }
    }

    /// The smaller of `self` and `o` (`self` on a tie).
    fn min(self, o: Self, eps: f64) -> Self {
        if self.sub(o).positive(eps) {
            o
        } else {
            self
        }
    }
}

/// Reusable scratch for [`crate::PlacementProblem::solve_in`]: once the
/// buffers have grown to a problem's size, solving it allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PlacementWorkspace {
    /// The axis's sorted distinct candidate coordinates.
    coords: Vec<f64>,
    /// Each point's estimate, as an index into `coords`.
    est: Vec<usize>,
    /// `pins[pin_start[i]..pin_start[i + 1]]`: point `i`'s pins as
    /// `(index into coords, weight)`.
    pin_start: Vec<usize>,
    pins: Vec<(usize, f64)>,
    /// `pairs[pair_start[i]..pair_start[i + 1]]`: point `i`'s partners as
    /// `(other point, weight)`.
    pair_start: Vec<usize>,
    pairs: Vec<(usize, f64)>,
    /// Each point's lowest possible coordinate index so far; its final
    /// index once the divide and conquer is done.
    lo: Vec<usize>,
    /// The points, grouped into the divide and conquer's open segments.
    order: Vec<usize>,
    /// Open segments `(start, end, lowest index, highest index)`.
    stack: Vec<(usize, usize, usize, usize)>,
    /// Each point's node in the current cut network, or `NONE`.
    local: Vec<usize>,
    net: Network,
}

impl PlacementWorkspace {
    /// A workspace with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Places `pos.len()` points: `fixed` pins `(point, x, y, weight)`
    /// and `pairs` `(a, b, weight)`. `pos` holds the estimates on entry
    /// and the placement on return.
    pub(crate) fn place(
        &mut self,
        fixed: &[(usize, f64, f64, f64)],
        pairs: &[(usize, usize, f64)],
        pos: &mut [(f64, f64)],
    ) {
        let n = pos.len();
        layout(&mut self.pair_start, &mut self.local, n, pairs.iter().flat_map(|p| [p.0, p.1]));
        self.pairs.clear();
        self.pairs.resize(self.pair_start[n], (0, 0.0));
        for &(a, b, w) in pairs {
            self.pairs[self.local[a]] = (b, w);
            self.local[a] += 1;
            self.pairs[self.local[b]] = (a, w);
            self.local[b] += 1;
        }
        let total: f64 = fixed.iter().map(|f| f.3).chain(pairs.iter().map(|p| p.2)).sum();
        self.net.eps = total * RELATIVE_TIE;
        for axis in 0..2 {
            let of = |p: (f64, f64)| if axis == 0 { p.0 } else { p.1 };
            self.coords.clear();
            self.coords.extend(fixed.iter().map(|f| if axis == 0 { f.1 } else { f.2 }));
            self.coords.extend(pos.iter().map(|&p| of(p)));
            self.coords.sort_unstable_by(f64::total_cmp);
            self.coords.dedup();
            let coords = &self.coords;
            let index = |c: f64| coords.partition_point(|&k| k < c);
            self.est.clear();
            self.est.extend(pos.iter().map(|&p| index(of(p))));
            layout(&mut self.pin_start, &mut self.local, n, fixed.iter().map(|f| f.0));
            self.pins.clear();
            self.pins.resize(fixed.len(), (0, 0.0));
            for &(i, x, y, w) in fixed {
                self.pins[self.local[i]] = (index(if axis == 0 { x } else { y }), w);
                self.local[i] += 1;
            }
            self.solve_axis(n);
            for (p, &k) in pos.iter_mut().zip(&self.lo) {
                *if axis == 0 { &mut p.0 } else { &mut p.1 } = self.coords[k];
            }
        }
    }

    /// Divide and conquer over the thresholds: fills `lo` with every
    /// point's coordinate index.
    fn solve_axis(&mut self, n: usize) {
        self.lo.clear();
        self.lo.resize(n, 0);
        self.local.clear();
        self.local.resize(n, NONE);
        self.order.clear();
        self.order.extend(0..n);
        self.stack.clear();
        if n > 0 {
            self.stack.push((0, n, 0, self.coords.len() - 1));
        }
        // Every point of a segment has `lo` = the segment's lowest index.
        while let Some((start, end, klo, khi)) = self.stack.pop() {
            if klo == khi {
                continue;
            }
            let mid = (klo + khi) / 2;
            let split = self.cut(start, end, mid, khi);
            for &v in &self.order[split..end] {
                self.lo[v] = mid + 1;
            }
            if start < split {
                self.stack.push((start, split, klo, mid));
            }
            if split < end {
                self.stack.push((split, end, mid + 1, khi));
            }
        }
    }

    /// Solves the cut between coordinates `mid` and `mid + 1` for the
    /// segment `order[start..end]`, whose coordinate indices are at most
    /// `khi`, and reorders it below-first. Returns where the points above
    /// begin.
    // sf: hot-path
    fn cut(&mut self, start: usize, end: usize, mid: usize, khi: usize) -> usize {
        let k = end - start;
        for (l, &v) in self.order[start..end].iter().enumerate() {
            self.local[v] = l;
        }
        let (s, t) = (k, k + 1);
        let eps = self.net.eps;
        self.net.reset(k + 2);
        for l in 0..k {
            let v = self.order[start + l];
            // What placing `v` below the threshold costs, minus what
            // placing it above costs.
            let mut d = Lex { w: 0.0, d: if self.est[v] > mid { 1 } else { -1 } };
            for &(c, w) in &self.pins[self.pin_start[v]..self.pin_start[v + 1]] {
                d.w += if c > mid { w } else { -w };
            }
            for &(j, w) in &self.pairs[self.pair_start[v]..self.pair_start[v + 1]] {
                match self.local[j] {
                    // A point outside the segment lies wholly above or
                    // wholly below its range.
                    NONE => d.w += if self.lo[j] > khi { w } else { -w },
                    lj if lj > l => {
                        let c = Lex { w, d: 0 };
                        self.net.add_edge(l, lj, c, c);
                    }
                    _ => {}
                }
            }
            if d.positive(eps) {
                self.net.add_edge(s, l, d, Lex::ZERO);
            } else if Lex::ZERO.sub(d).positive(eps) {
                self.net.add_edge(l, t, Lex::ZERO.sub(d), Lex::ZERO);
            }
        }
        self.net.max_flow(s, t);
        self.net.mark_sink_side(t);
        let mut split = start;
        for p in start..end {
            let v = self.order[p];
            if self.net.level[self.local[v]] != NONE {
                self.order.swap(split, p);
                split += 1;
            }
        }
        for &v in &self.order[start..end] {
            self.local[v] = NONE;
        }
        split
    }
}

/// Counting-sort layout of entries owned by points `0..n`:
/// `start[i]..start[i + 1]` will hold point `i`'s entries, and `cursor`
/// is left at each point's start for filling them in.
fn layout(
    start: &mut Vec<usize>,
    cursor: &mut Vec<usize>,
    n: usize,
    owners: impl Iterator<Item = usize>,
) {
    start.clear();
    start.resize(n + 1, 0);
    for i in owners {
        start[i + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    cursor.clear();
    cursor.extend_from_slice(&start[..n]);
}

/// A flow network with lexicographic capacities, as linked adjacency
/// lists; edge `e ^ 1` is the reverse of edge `e`.
#[derive(Debug, Clone, Default)]
struct Network {
    head: Vec<usize>,
    next: Vec<usize>,
    to: Vec<usize>,
    /// Residual capacities.
    cap: Vec<Lex>,
    /// BFS levels, then (after [`Network::mark_sink_side`]) `NONE` for
    /// the nodes that cannot reach the sink.
    level: Vec<usize>,
    /// Each node's next untried edge in the current blocking flow.
    iter: Vec<usize>,
    queue: Vec<usize>,
    /// Bandwidth tolerance of [`Lex::positive`].
    eps: f64,
}

impl Network {
    fn reset(&mut self, nodes: usize) {
        self.head.clear();
        self.head.resize(nodes, NONE);
        self.next.clear();
        self.to.clear();
        self.cap.clear();
    }

    /// Adds `u → v` with capacity `uv` and its reverse with `vu`.
    fn add_edge(&mut self, u: usize, v: usize, uv: Lex, vu: Lex) {
        for (from, to, cap) in [(u, v, uv), (v, u, vu)] {
            self.next.push(self.head[from]);
            self.head[from] = self.to.len();
            self.to.push(to);
            self.cap.push(cap);
        }
    }

    /// Dinic's algorithm: blocking flows along BFS level graphs.
    // sf: hot-path
    fn max_flow(&mut self, s: usize, t: usize) {
        while self.bfs(s, t) {
            self.iter.clear();
            self.iter.extend_from_slice(&self.head);
            while self.augment(s, t, Lex::INF).positive(self.eps) {}
        }
    }

    /// Levels every node reachable from `s`; whether `t` is among them.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.clear();
        self.level.resize(self.head.len(), NONE);
        self.level[s] = 0;
        self.queue.clear();
        self.queue.push(s);
        let mut q = 0;
        while q < self.queue.len() {
            let u = self.queue[q];
            q += 1;
            let mut e = self.head[u];
            while e != NONE {
                let v = self.to[e];
                if self.level[v] == NONE && self.cap[e].positive(self.eps) {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v);
                }
                e = self.next[e];
            }
        }
        self.level[t] != NONE
    }

    /// Pushes at most `f` from `u` to `t` along one level-graph path.
    fn augment(&mut self, u: usize, t: usize, f: Lex) -> Lex {
        if u == t {
            return f;
        }
        while self.iter[u] != NONE {
            let e = self.iter[u];
            let v = self.to[e];
            if self.level[v] == self.level[u] + 1 && self.cap[e].positive(self.eps) {
                let pushed = self.augment(v, t, f.min(self.cap[e], self.eps));
                if pushed.positive(self.eps) {
                    self.cap[e] = self.cap[e].sub(pushed);
                    self.cap[e ^ 1] = self.cap[e ^ 1].add(pushed);
                    return pushed;
                }
            }
            self.iter[u] = self.next[e];
        }
        Lex::ZERO
    }

    /// After a max flow: sets `level` to `NONE` exactly for the nodes that
    /// cannot reach `t` in the residual network (the maximal source set).
    fn mark_sink_side(&mut self, t: usize) {
        self.level.clear();
        self.level.resize(self.head.len(), NONE);
        self.level[t] = 0;
        self.queue.clear();
        self.queue.push(t);
        let mut q = 0;
        while q < self.queue.len() {
            let x = self.queue[q];
            q += 1;
            let mut e = self.head[x];
            while e != NONE {
                let u = self.to[e];
                if self.level[u] == NONE && self.cap[e ^ 1].positive(self.eps) {
                    self.level[u] = 0;
                    self.queue.push(u);
                }
                e = self.next[e];
            }
        }
    }
}
