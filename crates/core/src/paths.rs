//! Path computation for inter-switch traffic flows (paper §VI).
//!
//! Flows are routed one at a time, in decreasing order of their Definition-3
//! criticality, with Dijkstra over the switch graph. The cost of traversing a
//! candidate link is the *marginal power* of carrying the flow over it
//! (reusing an existing link is cheaper than opening a new one), plus the
//! hard/soft constraint penalties of Algorithm 3 (`CHECK_CONSTRAINTS`):
//!
//! * `INF` (the edge is simply forbidden) for links across non-adjacent
//!   layers when the technology only allows adjacent-layer TSVs, for layer
//!   boundaries already at the `max_ill` vertical-link budget, and for
//!   switches already at `max_switch_size` ports;
//! * `SOFT_INF` (ten times the maximum flow cost, §VI) when a boundary is
//!   within `soft_max_ill` of its budget or a switch within the soft size
//!   margin — steering the router away *before* the hard limits bite.
//!
//! Request and response flows share the vertical-link and port budgets, and
//! both classes are routed in one interleaved pass in the global criticality
//! order, so the soft steering of every flow sees what *both* classes have
//! already used (§VI).
//!
//! Deadlock freedom follows the approach of Hansson et al. that the paper
//! adopts: a channel-dependency graph (CDG) is maintained *per message
//! class* (request and response flows never share links, which removes
//! message-dependent deadlock), and a computed path is accepted only if its
//! link-to-link dependencies keep the class CDG acyclic. When a path would
//! close a cycle, the offending turn is banned for the flow and routing is
//! retried.
//!
//! # Performance
//!
//! Routing sits on the per-candidate hot path of the design-space sweep, so
//! the router is written to be allocation-free across candidate
//! evaluations: a reusable [`PathAllocator`] owns every scratch structure —
//! generation-stamped Dijkstra state, the dense per-class link index, the
//! per-pair cost table, the banned-turn matrix and the incremental
//! cycle-detection state — and only grows them monotonically. Cycle checks
//! use Pearce–Kelly incremental topological-order maintenance, so inserting
//! one dependency edge costs near-constant amortized time instead of a
//! from-scratch DFS over the whole CDG.
//!
//! Dijkstra prices every switch pair for every flow, so the edge cost does
//! no work that the flow does not change. A switch pair's estimated length
//! and the clock frequency are fixed for the whole routing call, so the
//! router fills a per-pair table once per call with the bandwidth-independent
//! terms: the clamped length, the wire leakage, the pipeline-register power
//! (which needs a square root, a division and a `ceil`) and the TSV hops. It
//! computes the flow's bandwidth products (wire, TSV and switch energy)
//! once per flow. An edge cost is then a few multiplies and adds, the same
//! float operations in the same order as
//! [`sunfloor_models::LinkModel::power_mw`], so costs are bit-identical.
//!
//! Ties between equal-cost paths are broken by the heap's pop order, which
//! depends on the exact sequence of pushes. The search therefore pushes
//! every improved node, even one whose cost already reaches the
//! destination's tentative cost: pruning those pushes changes which of two
//! equal paths wins, and with it the design points of a `D_36_8` sweep
//! (`golden_dense36_router_tie_order_is_pinned` in `tests/determinism.rs`
//! pins that sweep). Nor does it skip edges into nodes already settled:
//! that saves about a quarter of the edge evaluations but no measurable
//! time.

use crate::graph::CommGraph;
use crate::phase1::Connectivity;
use crate::spec::MessageType;
use crate::topology::{FlowPath, Link, Topology};
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use sunfloor_models::{LinkFixedPower, NocLibrary};

/// Constraint set handed to the router.
#[derive(Debug, Clone, PartialEq)]
pub struct PathConfig {
    /// Maximum directed links crossing any adjacent-layer boundary.
    pub max_ill: u32,
    /// Soft threshold margin: `soft_max_ill = max_ill − margin` (§VI
    /// recommends 2–3 links).
    pub soft_ill_margin: u32,
    /// Maximum switch size (ports on the larger side) at the target
    /// frequency.
    pub max_switch_size: u32,
    /// Soft margin below `max_switch_size`.
    pub soft_switch_margin: u32,
    /// Restrict switch-to-switch links to adjacent layers (Phase 2, or
    /// technologies that cannot drill multi-layer TSVs).
    pub adjacent_layers_only: bool,
    /// NoC clock frequency, MHz (sets link capacity and power).
    pub frequency_mhz: f64,
    /// Retries when a path closes a CDG cycle before giving up.
    pub deadlock_retries: u32,
}

impl PathConfig {
    /// Defaults matching the paper's experimental setup (soft margins of 2
    /// links / 1 port, multi-layer links allowed).
    #[must_use]
    pub fn new(max_ill: u32, max_switch_size: u32, frequency_mhz: f64) -> Self {
        Self {
            max_ill,
            soft_ill_margin: 2,
            max_switch_size,
            soft_switch_margin: 1,
            adjacent_layers_only: false,
            frequency_mhz,
            deadlock_retries: 24,
        }
    }

    fn soft_max_ill(&self) -> u32 {
        self.max_ill.saturating_sub(self.soft_ill_margin)
    }

    fn soft_max_switch_size(&self) -> u32 {
        self.max_switch_size.saturating_sub(self.soft_switch_margin)
    }
}

/// Why routing failed for a design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// A flow could not be routed within the hard constraints.
    NoRoute {
        /// Flow index that failed.
        flow: usize,
    },
    /// The inter-layer link budget is exhausted before routing started:
    /// the core attachments alone exceed it (pruning rule 3 of §V-C).
    IllBudgetExhausted {
        /// Boundary index (between layers `b` and `b+1`).
        boundary: usize,
        /// Crossings already required by core attachments.
        used: u32,
        /// The budget.
        max_ill: u32,
    },
    /// No deadlock-free path could be found for a flow.
    DeadlockUnavoidable {
        /// Flow index that failed.
        flow: usize,
    },
    /// A switch cannot host its attached cores within `max_switch_size`.
    SwitchTooSmall {
        /// Switch index.
        switch: usize,
        /// Ports needed just for core attachments.
        needed: u32,
        /// The limit.
        max_switch_size: u32,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoRoute { flow } => write!(f, "no feasible route for flow {flow}"),
            Self::IllBudgetExhausted { boundary, used, max_ill } => write!(
                f,
                "core attachments already need {used} vertical links at boundary {boundary} (budget {max_ill})"
            ),
            Self::DeadlockUnavoidable { flow } => {
                write!(f, "no deadlock-free route for flow {flow}")
            }
            Self::SwitchTooSmall { switch, needed, max_switch_size } => write!(
                f,
                "switch {switch} needs {needed} ports for its cores alone (limit {max_switch_size})"
            ),
        }
    }
}

impl Error for PathError {}

/// Dijkstra heap entry.
///
/// The ordering is *total* — costs compare with [`f64::total_cmp`], never a
/// `partial_cmp(..).unwrap()` — so a degenerate edge cost (NaN from a
/// pathological power model input) re-orders the heap instead of panicking
/// the sweep.
#[derive(Debug, PartialEq)]
struct HeapEntry(f64, usize);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.total_cmp(&self.0) // reverse: min-heap
    }
}

/// Per-message-class channel-dependency graph with incremental cycle
/// detection (Pearce–Kelly topological-order maintenance).
///
/// Nodes are *stable link indices* (tombstoned links keep their slot).
/// Inserting the edge `a → b` either confirms the graph stays acyclic —
/// restoring the topological-order invariant by re-ranking only the
/// affected region — or reports the cycle without modifying the graph.
#[derive(Debug, Default)]
struct ClassCdg {
    /// Out-edges per node.
    adj: Vec<Vec<usize>>,
    /// In-edges per node (needed for the backward half of the re-rank).
    radj: Vec<Vec<usize>>,
    /// Topological rank of each node: `ord[u] < ord[v]` for every edge
    /// `u → v`.
    ord: Vec<usize>,
    /// Live node count this routing run (`adj`/`radj`/`ord` beyond it are
    /// stale capacity from earlier runs).
    nodes: usize,
    /// DFS visit stamps (generation-tagged so clearing is O(1)).
    mark: Vec<u32>,
    mark_gen: u32,
    /// Scratch: forward/backward affected sets and the DFS stack.
    fwd: Vec<usize>,
    back: Vec<usize>,
    stack: Vec<usize>,
    pool: Vec<usize>,
}

impl ClassCdg {
    /// Resets to an empty graph, keeping every allocation.
    fn clear(&mut self) {
        for list in &mut self.adj[..self.nodes] {
            list.clear();
        }
        for list in &mut self.radj[..self.nodes] {
            list.clear();
        }
        self.nodes = 0;
    }

    /// Makes sure node `v` exists; new nodes are appended at the end of the
    /// topological order (they have no edges yet, so any rank is valid).
    fn ensure_node(&mut self, v: usize) {
        while self.nodes <= v {
            if self.adj.len() <= self.nodes {
                self.adj.push(Vec::new());
                self.radj.push(Vec::new());
                self.ord.push(0);
                self.mark.push(0);
            }
            self.adj[self.nodes].clear();
            self.radj[self.nodes].clear();
            self.ord[self.nodes] = self.nodes;
            self.nodes += 1;
        }
    }

    /// Inserts `a → b`. Returns `Ok(true)` when the edge was added,
    /// `Ok(false)` when it was already present, and `Err(())` (leaving the
    /// graph untouched) when the insertion would close a cycle.
    fn insert(&mut self, a: usize, b: usize) -> Result<bool, ()> {
        self.ensure_node(a.max(b));
        if a == b {
            return Err(());
        }
        if self.adj[a].contains(&b) {
            return Ok(false);
        }
        if self.ord[a] < self.ord[b] {
            self.adj[a].push(b);
            self.radj[b].push(a);
            return Ok(true);
        }

        // ord[b] < ord[a]: the affected region is every node ranked in
        // [ord[b], ord[a]]. Forward-reachable nodes from `b` inside it must
        // move after backward-reaching nodes of `a`.
        let lb = self.ord[b];
        let ub = self.ord[a];

        // Forward DFS from b, restricted to ord <= ub. Reaching `a` means
        // b →* a exists, so a → b closes a cycle.
        self.mark_gen += 1;
        let fwd_gen = self.mark_gen;
        self.fwd.clear();
        self.stack.clear();
        self.stack.push(b);
        self.mark[b] = fwd_gen;
        while let Some(u) = self.stack.pop() {
            if u == a {
                return Err(());
            }
            self.fwd.push(u);
            for i in 0..self.adj[u].len() {
                let w = self.adj[u][i];
                if self.mark[w] != fwd_gen && self.ord[w] <= ub {
                    self.mark[w] = fwd_gen;
                    self.stack.push(w);
                }
            }
        }

        // Backward DFS from a, restricted to ord >= lb.
        self.mark_gen += 1;
        let back_gen = self.mark_gen;
        self.back.clear();
        self.stack.clear();
        self.stack.push(a);
        self.mark[a] = back_gen;
        while let Some(u) = self.stack.pop() {
            self.back.push(u);
            for i in 0..self.radj[u].len() {
                let w = self.radj[u][i];
                if self.mark[w] != back_gen && self.ord[w] >= lb {
                    self.mark[w] = back_gen;
                    self.stack.push(w);
                }
            }
        }

        // Re-rank: the union of ranks held by both sets, redistributed so
        // every backward node precedes every forward node, preserving the
        // relative order inside each set.
        self.back.sort_unstable_by_key(|&v| self.ord[v]);
        self.fwd.sort_unstable_by_key(|&v| self.ord[v]);
        self.pool.clear();
        self.pool.extend(self.back.iter().map(|&v| self.ord[v]));
        self.pool.extend(self.fwd.iter().map(|&v| self.ord[v]));
        self.pool.sort_unstable();
        for (slot, &v) in self.back.iter().chain(self.fwd.iter()).enumerate() {
            self.ord[v] = self.pool[slot];
        }

        self.adj[a].push(b);
        self.radj[b].push(a);
        Ok(true)
    }

    /// Removes the edge `a → b` (used to roll back a rejected path's
    /// dependencies). The topological order stays valid: deleting edges
    /// never invalidates it.
    fn remove(&mut self, a: usize, b: usize) {
        if let Some(p) = self.adj[a].iter().rposition(|&w| w == b) {
            self.adj[a].swap_remove(p);
        }
        if let Some(p) = self.radj[b].iter().rposition(|&w| w == a) {
            self.radj[b].swap_remove(p);
        }
    }
}

/// Deterministic counters of how the routing work was served.
///
/// Mirrors `PartitionStats` / `LpStats`: every field counts per-candidate
/// events that are a pure function of the candidate (never of thread
/// scheduling), so the engine can accumulate a delta per candidate
/// evaluation and sum the deltas in commit order, making serial and
/// parallel sweeps report identical totals. Only successful routing calls
/// are counted, except in [`Self::dijkstra_pops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingStats {
    /// Flows successfully routed (single-hop same-switch flows included).
    pub flows_routed: u64,
    /// Links alive in finished topologies (tombstones excluded).
    pub links_created: u64,
    /// Paths rejected because their dependencies closed a CDG cycle (each
    /// rejection rolls the path back and retries with a banned turn).
    pub deadlock_rollbacks: u64,
    /// Always 0: routing is one interleaved pass. Kept only because the
    /// `perfbench/` harness still reads it.
    pub class_merges: u64,
    /// Always 0, for the same reason as [`Self::class_merges`].
    pub merge_fallbacks: u64,
    /// Entries popped from Dijkstra's heap, over every routing call,
    /// failed ones included.
    pub dijkstra_pops: u64,
}

impl std::ops::AddAssign for RoutingStats {
    fn add_assign(&mut self, rhs: Self) {
        self.flows_routed += rhs.flows_routed;
        self.links_created += rhs.links_created;
        self.deadlock_rollbacks += rhs.deadlock_rollbacks;
        self.dijkstra_pops += rhs.dijkstra_pops;
    }
}

impl std::ops::Sub for RoutingStats {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self {
            flows_routed: self.flows_routed - rhs.flows_routed,
            links_created: self.links_created - rhs.links_created,
            deadlock_rollbacks: self.deadlock_rollbacks - rhs.deadlock_rollbacks,
            dijkstra_pops: self.dijkstra_pops - rhs.dijkstra_pops,
            ..Self::default()
        }
    }
}

/// Reusable routing workspace: every scratch structure the router needs,
/// kept alive across candidate evaluations so the per-candidate hot path
/// performs no allocation beyond the returned [`Topology`] itself.
///
/// One allocator per thread; the synthesis engine hands each sweep worker
/// its own. A one-off call routes on a fresh [`PathAllocator::new`].
#[derive(Debug, Default)]
pub struct PathAllocator {
    // Dijkstra scratch (generation-stamped: resetting is O(1)).
    dist: Vec<f64>,
    prev: Vec<usize>,
    dij_stamp: Vec<u32>,
    dij_gen: u32,
    heap: BinaryHeap<HeapEntry>,
    // Dense per-class live-link index: `link_of[(class·n + u)·n + v]` is the
    // link slot or `usize::MAX`.
    link_of: Vec<usize>,
    // Bandwidth-independent link costs per switch pair, `pair[u·n + v]`.
    pair: Vec<PairCost>,
    // Banned turns for the current flow attempt (generation-stamped).
    banned: Vec<u32>,
    banned_gen: u32,
    // Per-class CDGs with incremental cycle detection.
    cdg: [ClassCdg; 2],
    // Per-run budgets.
    ill: Vec<u32>,
    in_ports: Vec<u32>,
    out_ports: Vec<u32>,
    // Flow routing order (plus its weight scratch) and link-id scratch.
    order: Vec<usize>,
    weights: Vec<f64>,
    link_ids: Vec<usize>,
    cdg_added: Vec<(usize, usize)>,
    // Cumulative deterministic routing counters.
    stats: RoutingStats,
}

impl PathAllocator {
    /// A fresh allocator with empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the switch-indexed scratch to `nsw` switches and resets the
    /// per-run state.
    fn reset(&mut self, nsw: usize, boundaries: usize) {
        if self.dist.len() < nsw {
            self.dist.resize(nsw, f64::INFINITY);
            self.prev.resize(nsw, usize::MAX);
            self.dij_stamp.resize(nsw, 0);
        }
        self.link_of.clear();
        self.link_of.resize(2 * nsw * nsw, usize::MAX);
        self.pair.clear();
        self.pair.resize(nsw * nsw, PairCost::default());
        if self.banned.len() < nsw * nsw {
            self.banned.resize(nsw * nsw, 0);
        }
        for cdg in &mut self.cdg {
            cdg.clear();
        }
        self.ill.clear();
        self.ill.resize(boundaries, 0);
        self.in_ports.clear();
        self.in_ports.resize(nsw, 0);
        self.out_ports.clear();
        self.out_ports.resize(nsw, 0);
    }

    /// Cumulative counters of every routing call this allocator served.
    #[must_use]
    pub fn stats(&self) -> RoutingStats {
        self.stats
    }

    /// Routes every flow of `graph` over the switches of `conn`, producing
    /// a complete [`Topology`].
    ///
    /// `conn` comes from Phase 1 / Phase 2 partitioning: its switch
    /// positions are centroid estimates, used for link-power costs before
    /// the placement LP runs. Each core's layer and the stack height come
    /// from `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PathError`] when any flow cannot be routed within the hard
    /// constraints or without deadlock.
    pub fn compute_paths(
        &mut self,
        graph: &CommGraph,
        conn: &Connectivity,
        lib: &NocLibrary,
        cfg: &PathConfig,
        alpha: f64,
    ) -> Result<Topology, PathError> {
        let mut router = Router::new(self, graph, conn, lib, cfg)?;
        router.route_all(alpha)?;
        Ok(router.finish())
    }

    /// Forwards to [`Self::compute_paths`]. `core_layers` and `layers` must
    /// match `graph`, and `threaded` is ignored. Kept only because the
    /// `perfbench/` harness still calls it.
    ///
    /// # Errors
    ///
    /// As [`Self::compute_paths`].
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn compute_paths_classed(
        &mut self,
        graph: &CommGraph,
        core_attach: &[usize],
        switch_layer: &[u32],
        est_switch_pos: &[(f64, f64)],
        core_layers: &[u32],
        layers: u32,
        lib: &NocLibrary,
        cfg: &PathConfig,
        alpha: f64,
        _threaded: bool,
    ) -> Result<Topology, PathError> {
        debug_assert_eq!(core_layers, graph.core_layers(), "core layers differ from the graph's");
        debug_assert_eq!(layers, graph.layers(), "stack height differs from the graph's");
        let conn = Connectivity {
            core_attach: core_attach.to_vec(),
            switch_layer: switch_layer.to_vec(),
            est_positions: est_switch_pos.to_vec(),
            theta: None,
        };
        self.compute_paths(graph, &conn, lib, cfg, alpha)
    }
}

/// The bandwidth-independent terms of a switch-to-switch edge's wire cost,
/// fixed for one routing call: the planar link over the pair's estimated
/// Manhattan distance (clamped to 0.05 mm) and the TSV hops between their
/// layers.
#[derive(Debug, Clone, Copy, Default)]
struct PairCost {
    link: LinkFixedPower,
    tsv_hops: f64,
}

/// The bandwidth products of the flow being routed, computed once per flow.
#[derive(Debug, Clone, Copy)]
struct FlowEnergy {
    bw_gbps: f64,
    /// Planar wire power per mm of link, mW/mm.
    wire: f64,
    /// TSV power per hop, mW.
    tsv: f64,
    /// Switch traversal power, mW.
    switch: f64,
}

impl FlowEnergy {
    fn new(lib: &NocLibrary, bw_gbps: f64) -> Self {
        Self {
            bw_gbps,
            wire: lib.link.technology.wire_energy_pj_per_bit_mm() * bw_gbps,
            tsv: lib.tsv.energy_pj_per_bit_hop * bw_gbps,
            switch: lib.switch.energy_pj_per_bit * bw_gbps,
        }
    }
}

fn class_index(class: MessageType) -> usize {
    match class {
        MessageType::Request => 0,
        MessageType::Response => 1,
    }
}

struct Router<'a> {
    alloc: &'a mut PathAllocator,
    graph: &'a CommGraph,
    lib: &'a NocLibrary,
    cfg: &'a PathConfig,
    topo: Topology,
    nsw: usize,
    capacity_gbps: f64,
    soft_inf: f64,
    /// Marginal port power of opening a new link (frequency-dependent,
    /// identical for every edge).
    new_port_cost: f64,
    /// Counters this call accrued, committed by [`Self::finish`].
    stats: RoutingStats,
}

impl<'a> Router<'a> {
    fn new(
        alloc: &'a mut PathAllocator,
        graph: &'a CommGraph,
        conn: &Connectivity,
        lib: &'a NocLibrary,
        cfg: &'a PathConfig,
    ) -> Result<Self, PathError> {
        let Connectivity { core_attach, switch_layer, est_positions: est_switch_pos, .. } = conn;
        let nsw = switch_layer.len();
        let boundaries = graph.layers().saturating_sub(1) as usize;
        alloc.reset(nsw, boundaries);
        let topo = Topology {
            switch_layer: switch_layer.to_vec(),
            switch_pos: est_switch_pos.to_vec(),
            core_attach: core_attach.to_vec(),
            links: Vec::new(),
            flow_paths: vec![FlowPath::default(); graph.edge_list().len()],
            indirect_switches: Vec::new(),
        };

        // Vertical budget consumed by core attachments, counted up front
        // (pruning rule 3 of §V-C).
        for (core, &sw) in core_attach.iter().enumerate() {
            let (cl, sl) = (graph.core_layers()[core], switch_layer[sw]);
            let (lo, hi) = if cl <= sl { (cl, sl) } else { (sl, cl) };
            for b in lo..hi {
                // One TSV macro per boundary: the NI bundles both
                // directions of the attachment through it (§III).
                alloc.ill[b as usize] += 1;
            }
        }
        for (b, &used) in alloc.ill.iter().enumerate() {
            if used > cfg.max_ill {
                return Err(PathError::IllBudgetExhausted {
                    boundary: b,
                    used,
                    max_ill: cfg.max_ill,
                });
            }
        }

        for &sw in core_attach {
            alloc.in_ports[sw] += 1;
            alloc.out_ports[sw] += 1;
        }
        for (s, (&ip, &op)) in alloc.in_ports.iter().zip(&alloc.out_ports).enumerate() {
            let needed = ip.max(op);
            if needed > cfg.max_switch_size {
                return Err(PathError::SwitchTooSmall {
                    switch: s,
                    needed,
                    max_switch_size: cfg.max_switch_size,
                });
            }
        }

        let capacity_gbps = lib.link.capacity_gbps(cfg.frequency_mhz);

        // The bandwidth-independent cost of every switch pair, and the
        // placement diameter for the SOFT_INF bound below.
        let mut max_d = 1.0f64;
        for (u, a) in est_switch_pos.iter().enumerate() {
            for (v, b) in est_switch_pos.iter().enumerate() {
                let d = (a.0 - b.0).abs() + (a.1 - b.1).abs();
                alloc.pair[u * nsw + v] = PairCost {
                    link: lib.link.fixed_power(d.max(0.05), cfg.frequency_mhz),
                    tsv_hops: f64::from(switch_layer[u].abs_diff(switch_layer[v])),
                };
                max_d = max_d.max(d);
            }
        }

        // SOFT_INF = ten times the maximum cost of any flow (§VI): bound the
        // flow cost by routing the heaviest flow over the placement diameter.
        let max_bw = graph.max_bandwidth_mbs() * 8.0 / 1000.0;
        let max_flow_cost = lib.link.power_mw(max_d, max_bw, cfg.frequency_mhz)
            + lib.switch.power_mw(4, 4, max_bw, cfg.frequency_mhz);
        let soft_inf = 10.0 * max_flow_cost;

        let new_port_cost = 2.0
            * (lib.switch.dyn_mw_per_port_mhz * cfg.frequency_mhz + lib.switch.leak_mw_per_port);

        Ok(Self {
            alloc,
            graph,
            lib,
            cfg,
            topo,
            nsw,
            capacity_gbps,
            soft_inf,
            new_port_cost,
            stats: RoutingStats::default(),
        })
    }

    // sf: hot-path
    fn live_link(&self, u: usize, v: usize, class: MessageType) -> Option<usize> {
        let li = self.alloc.link_of[(class_index(class) * self.nsw + u) * self.nsw + v];
        (li != usize::MAX).then_some(li)
    }

    // sf: hot-path
    fn route_all(&mut self, alpha: f64) -> Result<(), PathError> {
        let mut order = std::mem::take(&mut self.alloc.order);
        let mut weights = std::mem::take(&mut self.alloc.weights);
        self.graph.flows_by_criticality_into(alpha, &mut order, &mut weights);
        self.alloc.weights = weights;
        for i in 0..order.len() {
            if let Err(e) = self.route_flow(order[i]) {
                self.alloc.order = order;
                return Err(e);
            }
        }
        self.alloc.order = order;
        Ok(())
    }

    // sf: hot-path
    fn route_flow(&mut self, flow_idx: usize) -> Result<(), PathError> {
        let e = self.graph.edge_list()[flow_idx];
        let bw_gbps = e.bandwidth_mbs * 8.0 / 1000.0;
        let energy = FlowEnergy::new(self.lib, bw_gbps);
        let s_sw = self.topo.core_attach[e.src];
        let d_sw = self.topo.core_attach[e.dst];

        if s_sw == d_sw {
            self.topo.flow_paths[flow_idx] = FlowPath { switches: vec![s_sw] }; // sf-allow(hot-path-alloc): per-flow result path, built once per routed flow
            self.stats.flows_routed += 1;
            return Ok(());
        }

        // Fresh banned-turn set for this flow: bump the generation.
        self.alloc.banned_gen += 1;
        for attempt in 0..=self.cfg.deadlock_retries {
            let Some(path) = self.dijkstra(s_sw, d_sw, &energy, e.class) else {
                return if attempt == 0 {
                    Err(PathError::NoRoute { flow: flow_idx })
                } else {
                    Err(PathError::DeadlockUnavoidable { flow: flow_idx })
                };
            };

            self.realize_links(&path, e.class, bw_gbps, flow_idx);
            if let Some(bad_link) = self.try_insert_deps(e.class) {
                self.stats.deadlock_rollbacks += 1;
                let link_ids = std::mem::take(&mut self.alloc.link_ids);
                self.unrealize_flow(flow_idx, &link_ids, bw_gbps);
                self.alloc.link_ids = link_ids;
                // Ban the second leg of the offending turn.
                let link = &self.topo.links[bad_link];
                self.alloc.banned[link.from * self.nsw + link.to] = self.alloc.banned_gen;
                continue;
            }
            self.topo.flow_paths[flow_idx] = FlowPath { switches: path };
            self.stats.flows_routed += 1;
            return Ok(());
        }
        Err(PathError::DeadlockUnavoidable { flow: flow_idx })
    }

    /// Inserts the current path's link-to-link dependencies (held in
    /// `alloc.link_ids`) into the class CDG one at a time. On the first
    /// dependency that would close a cycle, rolls the batch back and returns
    /// the *second* link of the offending turn.
    // sf: hot-path
    fn try_insert_deps(&mut self, class: MessageType) -> Option<usize> {
        let ci = class_index(class);
        let mut added = std::mem::take(&mut self.alloc.cdg_added);
        added.clear();
        let mut bad = None;
        for i in 1..self.alloc.link_ids.len() {
            let (a, b) = (self.alloc.link_ids[i - 1], self.alloc.link_ids[i]);
            match self.alloc.cdg[ci].insert(a, b) {
                Ok(true) => added.push((a, b)),
                Ok(false) => {}
                Err(()) => {
                    bad = Some(b);
                    break;
                }
            }
        }
        if bad.is_some() {
            for &(a, b) in added.iter().rev() {
                self.alloc.cdg[ci].remove(a, b);
            }
        }
        self.alloc.cdg_added = added;
        bad
    }

    // sf: hot-path
    fn dijkstra(
        &mut self,
        src: usize,
        dst: usize,
        energy: &FlowEnergy,
        class: MessageType,
    ) -> Option<Vec<usize>> {
        let nsw = self.nsw;
        // Generation-stamped reset: untouched entries read as INFINITY.
        self.alloc.dij_gen += 1;
        let gen = self.alloc.dij_gen;
        self.alloc.dist[src] = 0.0;
        self.alloc.prev[src] = usize::MAX;
        self.alloc.dij_stamp[src] = gen;
        self.alloc.heap.clear();
        self.alloc.heap.push(HeapEntry(0.0, src));

        while let Some(HeapEntry(d, u)) = self.alloc.heap.pop() {
            self.alloc.stats.dijkstra_pops += 1;
            if d > self.alloc.dist[u] {
                continue;
            }
            if u == dst {
                break;
            }
            for v in 0..nsw {
                if v == u || self.alloc.banned[u * nsw + v] == self.alloc.banned_gen {
                    continue;
                }
                let Some(cost) = self.edge_cost(u, v, energy, class) else { continue };
                let nd = d + cost;
                let dv = if self.alloc.dij_stamp[v] == gen {
                    self.alloc.dist[v]
                } else {
                    f64::INFINITY
                };
                if nd + 1e-15 < dv {
                    self.alloc.dist[v] = nd;
                    self.alloc.prev[v] = u;
                    self.alloc.dij_stamp[v] = gen;
                    self.alloc.heap.push(HeapEntry(nd, v));
                }
            }
        }

        if self.alloc.dij_stamp[dst] != gen || !self.alloc.dist[dst].is_finite() {
            return None;
        }
        let mut path = vec![dst]; // sf-allow(hot-path-alloc): the returned path is the per-flow result value
        let mut cur = dst;
        while cur != src {
            cur = self.alloc.prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Marginal cost of sending the flow over `u → v`, or `None` when the
    /// edge is forbidden (Algorithm 3's `INF`).
    ///
    /// The wire part is the link power, plus the TSV power, plus the switch
    /// traversal energy, summed in that order. The link power is
    /// [`LinkFixedPower::power_mw`] over the pair's table entry, the same
    /// float operations [`sunfloor_models::LinkModel::power_mw`] performs.
    // sf: hot-path
    fn edge_cost(
        &self,
        u: usize,
        v: usize,
        energy: &FlowEnergy,
        class: MessageType,
    ) -> Option<f64> {
        let (lu, lv) = (self.topo.switch_layer[u], self.topo.switch_layer[v]);

        if self.cfg.adjacent_layers_only && lu.abs_diff(lv) >= 2 {
            return None; // Algorithm 3 step 3
        }

        let pair = &self.alloc.pair[u * self.nsw + v];
        let wire =
            pair.link.power_mw(energy.wire) + energy.tsv * pair.tsv_hops + energy.switch;

        // Reuse an existing same-class link with spare capacity?
        if let Some(li) = self.live_link(u, v, class) {
            if self.topo.links[li].bandwidth_gbps + energy.bw_gbps <= self.capacity_gbps {
                return Some(wire);
            }
            // Saturated: fall through to the new-link cost below (a second
            // parallel link would be created).
        }

        // New link: vertical budget checks (Algorithm 3 steps 3–6)…
        let mut penalty = 0.0;
        let (lo, hi) = if lu <= lv { (lu, lv) } else { (lv, lu) };
        for b in lo..hi {
            let used = self.alloc.ill[b as usize];
            if used >= self.cfg.max_ill {
                return None;
            }
            if used >= self.cfg.soft_max_ill() {
                penalty += self.soft_inf;
            }
        }
        // …and port-growth checks (steps 7–10).
        if self.alloc.out_ports[u] + 1 > self.cfg.max_switch_size
            || self.alloc.in_ports[v] + 1 > self.cfg.max_switch_size
        {
            return None;
        }
        if self.alloc.out_ports[u] + 1 > self.cfg.soft_max_switch_size()
            || self.alloc.in_ports[v] + 1 > self.cfg.soft_max_switch_size()
        {
            penalty += self.soft_inf;
        }

        Some(wire + self.new_port_cost + penalty)
    }

    /// Ensures all links along `path` exist (creating them as needed), adds
    /// the flow's bandwidth, and leaves the link indices used, in order, in
    /// `alloc.link_ids`.
    // sf: hot-path
    fn realize_links(&mut self, path: &[usize], class: MessageType, bw_gbps: f64, flow_idx: usize) {
        let mut ids = std::mem::take(&mut self.alloc.link_ids);
        ids.clear();
        for w in path.windows(2) {
            let (u, v) = (w[0], w[1]);
            let existing = self
                .live_link(u, v, class)
                .filter(|&li| self.topo.links[li].bandwidth_gbps + bw_gbps <= self.capacity_gbps);
            let li = match existing {
                Some(li) => li,
                None => {
                    let li = self.topo.links.len();
                    self.topo.links.push(Link {
                        from: u,
                        to: v,
                        bandwidth_gbps: 0.0,
                        flows: Vec::new(), // sf-allow(hot-path-alloc): one empty Vec per newly created link, not per candidate
                        class,
                    });
                    self.alloc.link_of[(class_index(class) * self.nsw + u) * self.nsw + v] = li;
                    self.alloc.out_ports[u] += 1;
                    self.alloc.in_ports[v] += 1;
                    let (lu, lv) = (self.topo.switch_layer[u], self.topo.switch_layer[v]);
                    let (lo, hi) = if lu <= lv { (lu, lv) } else { (lv, lu) };
                    for b in lo..hi {
                        self.alloc.ill[b as usize] += 1;
                    }
                    li
                }
            };
            self.topo.links[li].bandwidth_gbps += bw_gbps;
            self.topo.links[li].flows.push(flow_idx);
            ids.push(li);
        }
        self.alloc.link_ids = ids;
    }

    /// Rolls a flow back out of the given links. Links that become empty are
    /// released from the port/ill budgets and the live index, but keep their
    /// slot in `topo.links` as tombstones so CDG indices stay stable.
    // sf: hot-path
    fn unrealize_flow(&mut self, flow_idx: usize, link_ids: &[usize], bw_gbps: f64) {
        for &li in link_ids {
            let link = &mut self.topo.links[li];
            link.bandwidth_gbps = (link.bandwidth_gbps - bw_gbps).max(0.0);
            if let Some(p) = link.flows.iter().rposition(|&f| f == flow_idx) {
                link.flows.remove(p);
            }
            if link.flows.is_empty() {
                let (u, v, class) = (link.from, link.to, link.class);
                link.bandwidth_gbps = 0.0;
                let slot = (class_index(class) * self.nsw + u) * self.nsw + v;
                if self.alloc.link_of[slot] == li {
                    self.alloc.link_of[slot] = usize::MAX;
                    self.alloc.out_ports[u] -= 1;
                    self.alloc.in_ports[v] -= 1;
                    let (lu, lv) = (self.topo.switch_layer[u], self.topo.switch_layer[v]);
                    let (lo, hi) = if lu <= lv { (lu, lv) } else { (lv, lu) };
                    for b in lo..hi {
                        self.alloc.ill[b as usize] -= 1;
                    }
                }
            }
        }
    }

    /// Compacts tombstoned links, commits this call's counters to the
    /// allocator and returns the finished topology.
    fn finish(mut self) -> Topology {
        let mut topo = self.topo;
        topo.links.retain(|l| !l.flows.is_empty());
        self.stats.links_created += topo.links.len() as u64;
        self.alloc.stats += self.stats;
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommSpec, Core, Flow, SocSpec};
    use std::collections::{BTreeMap, BTreeSet};

    /// 4 cores on 2 layers, 2 switches (one per layer), star traffic.
    fn setup() -> (SocSpec, CommSpec, CommGraph) {
        let soc = SocSpec::new(
            (0..4)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 1.0,
                    height: 1.0,
                    x: f64::from(i % 2) * 3.0,
                    y: 0.0,
                    layer: u32::from(i >= 2),
                })
                .collect(),
            2,
        )
        .unwrap();
        let f = |src, dst, bw: f64, class| Flow {
            src,
            dst,
            bandwidth_mbs: bw,
            max_latency_cycles: 10.0,
            message_type: class,
        };
        let comm = CommSpec::new(
            vec![
                f(0, 2, 400.0, MessageType::Request),
                f(2, 0, 200.0, MessageType::Response),
                f(1, 3, 300.0, MessageType::Request),
                f(0, 1, 100.0, MessageType::Request),
            ],
            &soc,
        )
        .unwrap();
        let g = CommGraph::new(&soc, &comm);
        (soc, comm, g)
    }

    fn lib() -> NocLibrary {
        NocLibrary::lp65()
    }

    fn conn(core_attach: &[usize], switch_layer: &[u32], est: &[(f64, f64)]) -> Connectivity {
        Connectivity {
            core_attach: core_attach.to_vec(),
            switch_layer: switch_layer.to_vec(),
            est_positions: est.to_vec(),
            theta: None,
        }
    }

    /// [`setup`]'s cores on one switch per layer.
    fn two_switches() -> Connectivity {
        conn(&[0, 0, 1, 1], &[0, 1], &[(1.0, 1.0), (2.0, 1.0)])
    }

    /// Routes `conn` on a fresh allocator at α = 1.
    fn route(g: &CommGraph, conn: &Connectivity, cfg: &PathConfig) -> Result<Topology, PathError> {
        PathAllocator::new().compute_paths(g, conn, &lib(), cfg, 1.0)
    }

    #[test]
    fn routes_all_flows_and_respects_structure() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(25, 11, 400.0);
        let topo = route(&g, &two_switches(), &cfg).unwrap();
        // All flows have a path; same-switch flow 3 is single-hop.
        assert_eq!(topo.flow_paths.len(), 4);
        assert_eq!(topo.flow_paths[3].switches, vec![0]);
        assert_eq!(topo.flow_paths[0].switches, vec![0, 1]);
        // Request and response use separate links.
        assert!(topo.links.iter().any(|l| l.class == MessageType::Request));
        assert!(topo.links.iter().any(|l| l.class == MessageType::Response));
        for l in &topo.links {
            for &fi in &l.flows {
                assert_eq!(g.edge_list()[fi].class, l.class, "class mixing on a link");
            }
        }
    }

    #[test]
    fn reused_allocator_matches_fresh_allocator() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(25, 11, 400.0);
        let fresh = route(&g, &two_switches(), &cfg).unwrap();
        let mut alloc = PathAllocator::new();
        for _ in 0..3 {
            let again = alloc.compute_paths(&g, &two_switches(), &lib(), &cfg, 1.0).unwrap();
            assert_eq!(fresh, again, "allocator reuse must not change the topology");
        }
    }

    /// Routing A, then B with another switch count, then A again on one
    /// allocator gives the same topology and the same counter delta for the
    /// second A as a fresh allocator gives for A: no scratch left by B
    /// (a larger switch table, its CDGs, its budgets) leaks into A. The
    /// engine relies on this when it reuses the rejection of a repeated
    /// θ-step partition within one candidate.
    #[test]
    fn routing_does_not_depend_on_the_allocators_history() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(25, 11, 400.0);
        let a = two_switches();
        let b = conn(&[0, 1, 2, 2], &[0, 0, 1], &[(0.5, 0.5), (3.5, 0.5), (2.0, 0.5)]);
        let route = |alloc: &mut PathAllocator, conn: &Connectivity| {
            let before = alloc.stats();
            let topo = alloc.compute_paths(&g, conn, &lib(), &cfg, 1.0).unwrap();
            (topo, alloc.stats() - before)
        };
        let fresh = route(&mut PathAllocator::new(), &a);
        let mut alloc = PathAllocator::new();
        assert_eq!(route(&mut alloc, &a), fresh);
        let other = route(&mut alloc, &b);
        assert_eq!(other.0.switch_count(), 3);
        assert_ne!(other.0, fresh.0, "B must route differently from A");
        assert_eq!(route(&mut alloc, &a), fresh, "routing B must not change A's result");
    }

    /// perfbench's hidden forwarder routes exactly as the entry point it
    /// forwards to: the same topology and the same counters.
    #[test]
    fn classed_forwarder_matches_compute_paths() {
        let (soc, _, g) = setup();
        let cfg = PathConfig::new(25, 11, 400.0);
        let core_layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
        let partition = two_switches();
        let mut direct = PathAllocator::new();
        let expected = direct.compute_paths(&g, &partition, &lib(), &cfg, 1.0).unwrap();
        assert_eq!(direct.stats().flows_routed, 4);
        for threaded in [false, true] {
            let mut forwarded = PathAllocator::new();
            let topo = forwarded
                .compute_paths_classed(
                    &g,
                    &partition.core_attach,
                    &partition.switch_layer,
                    &partition.est_positions,
                    &core_layers,
                    soc.layers,
                    &lib(),
                    &cfg,
                    1.0,
                    threaded,
                )
                .unwrap();
            assert_eq!(topo, expected);
            assert_eq!(forwarded.stats(), direct.stats());
        }
    }

    /// Both classes draw on one vertical budget, and the soft/hard checks
    /// of every flow see the usage of both: here the request flows claim
    /// the one vertical link, and the response flow then finds every edge
    /// hard-walled.
    #[test]
    fn shared_vertical_budget_blocks_response_flow() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(1, 11, 400.0);
        let err = route(&g, &two_switches(), &cfg).unwrap_err();
        assert!(matches!(err, PathError::NoRoute { flow: 1 }), "{err:?}");
    }

    /// A single-class spec routes its one flow over one new link, and the
    /// allocator counts both.
    #[test]
    fn single_class_spec_routes_without_merge() {
        let (soc, _, _) = setup();
        let comm = CommSpec::new(
            vec![Flow {
                src: 0,
                dst: 2,
                bandwidth_mbs: 400.0,
                max_latency_cycles: 10.0,
                message_type: MessageType::Request,
            }],
            &soc,
        )
        .unwrap();
        let g = CommGraph::new(&soc, &comm);
        let cfg = PathConfig::new(25, 11, 400.0);
        let mut alloc = PathAllocator::new();
        alloc.compute_paths(&g, &two_switches(), &lib(), &cfg, 1.0).unwrap();
        assert_eq!(alloc.stats().flows_routed, 1);
        assert_eq!(alloc.stats().links_created, 1);
    }

    #[test]
    fn link_bandwidth_accumulates() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(25, 11, 400.0);
        let topo = route(&g, &two_switches(), &cfg).unwrap();
        // Flows 0 (400 MB/s) and 2 (300 MB/s) both go 0 -> 1 on the request
        // link: 700 MB/s = 5.6 Gbps.
        let req01 = topo
            .links
            .iter()
            .find(|l| l.from == 0 && l.to == 1 && l.class == MessageType::Request)
            .expect("request link 0->1");
        assert!((req01.bandwidth_gbps - 5.6).abs() < 1e-9, "{}", req01.bandwidth_gbps);
        assert_eq!(req01.flows.len(), 2);
    }

    #[test]
    fn ill_budget_exhausted_by_attachments_detected() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(1, 11, 400.0);
        // Attach all cores to a single switch on layer 0: cores 2,3 (layer 1)
        // need one vertical attachment each = 2 > 1.
        let err = route(&g, &conn(&[0, 0, 0, 0], &[0], &[(1.5, 1.0)]), &cfg).unwrap_err();
        assert!(matches!(err, PathError::IllBudgetExhausted { used: 2, .. }), "{err:?}");
    }

    #[test]
    fn adjacent_layers_only_forces_multi_hop() {
        // 3 layers, one switch per layer, flow from layer 0 to layer 2.
        let soc = SocSpec::new(
            (0..3)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 1.0,
                    height: 1.0,
                    x: 0.0,
                    y: 0.0,
                    layer: i,
                })
                .collect(),
            3,
        )
        .unwrap();
        let comm = CommSpec::new(
            vec![Flow {
                src: 0,
                dst: 2,
                bandwidth_mbs: 100.0,
                max_latency_cycles: 10.0,
                message_type: MessageType::Request,
            }],
            &soc,
        )
        .unwrap();
        let g = CommGraph::new(&soc, &comm);
        let mut cfg = PathConfig::new(25, 11, 400.0);
        cfg.adjacent_layers_only = true;
        let stack = conn(&[0, 1, 2], &[0, 1, 2], &[(0.0, 0.0); 3]);
        let topo = route(&g, &stack, &cfg).unwrap();
        assert_eq!(topo.flow_paths[0].switches, vec![0, 1, 2], "must hop through layer 1");

        // Without the restriction, the direct 0 -> 2 link wins (it is one
        // switch cheaper).
        cfg.adjacent_layers_only = false;
        let topo2 = route(&g, &stack, &cfg).unwrap();
        assert_eq!(topo2.flow_paths[0].switches, vec![0, 2]);
    }

    #[test]
    fn switch_size_limit_rejects_oversubscribed_attachment() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(25, 3, 400.0);
        // One switch with 4 cores: needs 4 ports for cores alone > 3.
        let err = route(&g, &conn(&[0, 0, 0, 0], &[0], &[(1.5, 1.0)]), &cfg).unwrap_err();
        assert!(matches!(err, PathError::SwitchTooSmall { needed: 4, .. }), "{err:?}");
    }

    #[test]
    fn capacity_saturation_opens_parallel_link() {
        // Tiny capacity: force two links for two heavy flows.
        let (soc, _, _) = setup();
        let comm = CommSpec::new(
            vec![
                Flow {
                    src: 0,
                    dst: 2,
                    bandwidth_mbs: 900.0, // 7.2 Gbps
                    max_latency_cycles: 10.0,
                    message_type: MessageType::Request,
                },
                Flow {
                    src: 1,
                    dst: 3,
                    bandwidth_mbs: 900.0,
                    max_latency_cycles: 10.0,
                    message_type: MessageType::Request,
                },
            ],
            &soc,
        )
        .unwrap();
        let g = CommGraph::new(&soc, &comm);
        let cfg = PathConfig::new(25, 11, 400.0); // capacity 12.8 Gbps
        let topo = route(&g, &two_switches(), &cfg).unwrap();
        let req_links: Vec<_> = topo
            .links
            .iter()
            .filter(|l| l.from == 0 && l.to == 1 && l.class == MessageType::Request)
            .collect();
        assert_eq!(req_links.len(), 2, "14.4 Gbps cannot fit one 12.8 Gbps link");
        for l in req_links {
            assert!(l.bandwidth_gbps <= 12.8 + 1e-9);
        }
    }

    #[test]
    fn cdg_stays_acyclic_per_class() {
        let (_, _, g) = setup();
        let cfg = PathConfig::new(25, 11, 400.0);
        let topo = route(&g, &two_switches(), &cfg).unwrap();
        // Rebuild the CDG from the final paths and assert acyclicity.
        for class in [MessageType::Request, MessageType::Response] {
            let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let link_idx = |u: usize, v: usize| {
                topo.links
                    .iter()
                    .position(|l| l.from == u && l.to == v && l.class == class)
            };
            for (fi, path) in topo.flow_paths.iter().enumerate() {
                if g.edge_list()[fi].class != class {
                    continue;
                }
                let hops: Vec<usize> = path
                    .switches
                    .windows(2)
                    .filter_map(|w| link_idx(w[0], w[1]))
                    .collect();
                for w in hops.windows(2) {
                    adj.entry(w[0]).or_default().push(w[1]);
                }
            }
            // Kahn's algorithm: if all nodes drain, the graph is acyclic.
            let nodes: BTreeSet<usize> =
                adj.keys().copied().chain(adj.values().flatten().copied()).collect();
            let mut indeg: BTreeMap<usize, usize> = nodes.iter().map(|&n| (n, 0)).collect();
            for vs in adj.values() {
                for &v in vs {
                    *indeg.get_mut(&v).unwrap() += 1;
                }
            }
            let mut queue: Vec<usize> =
                indeg.iter().filter(|(_, &d)| d == 0).map(|(&n, _)| n).collect();
            let mut drained = 0;
            while let Some(u) = queue.pop() {
                drained += 1;
                if let Some(vs) = adj.get(&u) {
                    for &v in vs {
                        let d = indeg.get_mut(&v).unwrap();
                        *d -= 1;
                        if *d == 0 {
                            queue.push(v);
                        }
                    }
                }
            }
            assert_eq!(drained, nodes.len(), "CDG for {class:?} has a cycle");
        }
    }

    /// The wire cost of the edge between switches at `a` and `b` on layers
    /// `la` and `lb`, as `edge_cost` computed it before the pair table: the
    /// link power inline as `LinkModel::power_mw` was first written, plus
    /// the TSV power, plus the switch energy.
    #[allow(clippy::too_many_arguments)]
    fn reference_wire(
        lib: &NocLibrary,
        a: (f64, f64),
        b: (f64, f64),
        la: u32,
        lb: u32,
        bw_gbps: f64,
        frequency_mhz: f64,
    ) -> f64 {
        let length_mm = ((a.0 - b.0).abs() + (a.1 - b.1).abs()).max(0.05);
        let link = if length_mm <= 0.0 {
            0.0
        } else {
            let tech = &lib.link.technology;
            let dynamic = tech.wire_energy_pj_per_bit_mm() * bw_gbps * length_mm;
            let wires = f64::from(sunfloor_models::link_wire_count(lib.link.flit_width_bits));
            let leakage = tech.wire_leakage_mw_per_mm * wires * length_mm;
            let stages = f64::from(lib.link.pipeline_stages(length_mm, frequency_mhz));
            let registers = lib.link.stage_mw_per_mhz * stages * frequency_mhz;
            dynamic + leakage + registers
        };
        link + lib.tsv.power_mw(la.abs_diff(lb), bw_gbps) + lib.switch.energy_pj_per_bit * bw_gbps
    }

    /// The table-driven `edge_cost` equals, bit for bit, the new-link cost
    /// built on the reference wire expression: over random switch positions
    /// (coincident pairs included, so the 0.05 mm clamp binds), layers,
    /// frequencies and bandwidths (huge ones included, so costs reach inf
    /// and NaN).
    #[test]
    fn edge_cost_table_matches_inline_power_bit_for_bit() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let lib = lib();
        let bandwidths =
            |u: f64| [0.0, 1e-3 * u, 12.8 * u, 1e3 * u, 1e306 * u, f64::MAX, f64::INFINITY];
        let mut alloc = PathAllocator::new();
        let mut non_finite = 0;
        for case in 0..200 {
            let layers = 1 + (case % 4) as u32;
            let nsw = 2 + case % 7;
            let mut pos: Vec<(f64, f64)> = Vec::new();
            let mut switch_layer = Vec::new();
            for s in 0..nsw {
                pos.push(if s > 0 && unit() < 0.3 {
                    pos[s - 1] // coincident with the previous switch
                } else {
                    (40.0 * unit(), 40.0 * unit())
                });
                switch_layer.push((unit() * f64::from(layers)) as u32 % layers);
            }
            // Core `i` attaches to switch `i`, on its layer. The graph only
            // sets SOFT_INF, which no edge here reaches. A literal spec: a
            // case may have more layers than cores, which `SocSpec::new`
            // rejects.
            let soc = SocSpec {
                cores: (0..nsw)
                    .map(|i| Core {
                        name: format!("c{i}"),
                        width: 1.0,
                        height: 1.0,
                        x: 0.0,
                        y: 0.0,
                        layer: switch_layer[i],
                    })
                    .collect(),
                layers,
            };
            let flow = Flow {
                src: 0,
                dst: 1,
                bandwidth_mbs: 400.0,
                max_latency_cycles: 10.0,
                message_type: MessageType::Request,
            };
            let g = CommGraph::new(&soc, &CommSpec { flows: vec![flow] });
            let frequency_mhz = 100.0 + 1400.0 * unit();
            let cfg = PathConfig::new(1000, 1000, frequency_mhz);
            let attach: Vec<usize> = (0..nsw).collect();
            let partition = conn(&attach, &switch_layer, &pos);
            let router = Router::new(&mut alloc, &g, &partition, &lib, &cfg).unwrap();
            for bw_gbps in bandwidths(unit()) {
                let energy = FlowEnergy::new(&lib, bw_gbps);
                for u in 0..nsw {
                    for v in (0..nsw).filter(|&v| v != u) {
                        let wire = reference_wire(
                            &lib,
                            pos[u],
                            pos[v],
                            switch_layer[u],
                            switch_layer[v],
                            bw_gbps,
                            frequency_mhz,
                        );
                        non_finite += usize::from(!wire.is_finite());
                        // A fresh router has no link to reuse and no budget
                        // near its soft limit: every edge is a new link with
                        // no penalty.
                        let expected = wire + router.new_port_cost + 0.0;
                        let got = router.edge_cost(u, v, &energy, MessageType::Request);
                        assert_eq!(
                            got.map(f64::to_bits),
                            Some(expected.to_bits()),
                            "case {case}, {u} -> {v}, bw {bw_gbps}: {got:?} vs {expected}"
                        );
                    }
                }
            }
        }
        assert!(non_finite > 0, "the sample must reach inf/NaN costs");
    }

    /// The incremental Pearce–Kelly CDG agrees with a from-scratch
    /// reachability check on randomized edge streams.
    #[test]
    fn incremental_cdg_matches_dfs_oracle() {
        fn reaches(adj: &[Vec<usize>], from: usize, to: usize) -> bool {
            let mut seen = vec![false; adj.len()];
            let mut stack = vec![from];
            seen[from] = true;
            while let Some(u) = stack.pop() {
                if u == to {
                    return true;
                }
                for &w in &adj[u] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            false
        }

        // Deterministic pseudo-random edge stream (xorshift).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const N: usize = 24;
        let mut cdg = ClassCdg::default();
        cdg.ensure_node(N - 1);
        let mut oracle: Vec<Vec<usize>> = vec![Vec::new(); N];
        let mut accepted = 0;
        for _ in 0..600 {
            let a = (next() % N as u64) as usize;
            let b = (next() % N as u64) as usize;
            if a == b {
                continue;
            }
            let closes_cycle = reaches(&oracle, b, a);
            match cdg.insert(a, b) {
                Ok(_) => {
                    assert!(!closes_cycle, "accepted {a}->{b} but oracle sees a cycle");
                    if !oracle[a].contains(&b) {
                        oracle[a].push(b);
                    }
                    accepted += 1;
                    // Topological-order invariant holds for every edge.
                    for (u, outs) in oracle.iter().enumerate() {
                        for &v in outs {
                            assert!(cdg.ord[u] < cdg.ord[v], "order violated on {u}->{v}");
                        }
                    }
                }
                Err(()) => {
                    assert!(closes_cycle, "rejected {a}->{b} but oracle sees no cycle");
                }
            }
        }
        assert!(accepted > 50, "stream should accept a healthy number of edges");
    }

    /// Rolling an edge batch back restores the graph exactly.
    #[test]
    fn cdg_rollback_restores_previous_edges() {
        let mut cdg = ClassCdg::default();
        cdg.ensure_node(3);
        assert_eq!(cdg.insert(0, 1), Ok(true));
        assert_eq!(cdg.insert(1, 2), Ok(true));
        // 2 -> 0 closes the cycle through 0 -> 1 -> 2.
        assert_eq!(cdg.insert(2, 0), Err(()));
        // Batch: add 2 -> 3 then fail on 3 -> 0; roll back 2 -> 3.
        assert_eq!(cdg.insert(2, 3), Ok(true));
        assert_eq!(cdg.insert(3, 0), Err(()));
        cdg.remove(2, 3);
        assert!(!cdg.adj[2].contains(&3));
        // 3 is free again: 0 -> 3 must now be insertable.
        assert_eq!(cdg.insert(0, 3), Ok(true));
    }
}
