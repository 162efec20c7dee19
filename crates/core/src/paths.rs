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
//! A flow wider than a link's capacity fits on no link: it routes only
//! between cores of one switch.
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
//! per-pair cost table, the banned-turn matrix and the CDGs with their
//! search scratch — and only grows them monotonically. A new dependency
//! edge `a → b` is checked by a depth-first search from `b` over the class
//! CDG, with generation-stamped marks: it closes a cycle exactly when the
//! search reaches `a`.
//!
//! Dijkstra prices every switch pair for every flow, so the edge cost does
//! no work that the flow or the settled switch does not change:
//!
//! * a switch pair's estimated length and the clock frequency are fixed for
//!   the whole routing call, so the router fills a per-pair table once per
//!   call with the bandwidth-independent terms: the clamped length, the
//!   wire leakage, the pipeline-register power (which needs a square root,
//!   a division and a `ceil`) and the TSV hops. Both are symmetric, so each
//!   unordered pair is priced once;
//! * the flow's bandwidth products (wire, TSV and switch energy) are
//!   computed once per flow;
//! * the vertical budget changes only between flows, so each Dijkstra call
//!   tabulates, per pair of layers, whether a link may join them at all,
//!   whether a new one would pass `max_ill` and how many of the boundaries
//!   it crosses are at the soft limit;
//! * each settle reads its switch's rows of the per-pair tables, its
//!   layer's row of that table and whether one more output port passes the
//!   hard or the soft size limit.
//!
//! An edge cost is then a few multiplies and adds, the same float
//! operations in the same order as [`sunfloor_models::LinkModel::power_mw`],
//! so costs are bit-identical, and its SOFT_INF penalties come from a table
//! of `k` penalties added one at a time, the order in which Algorithm 3
//! adds them (boundaries first, then the port).
//!
//! Each Dijkstra step settles the reached, unsettled switch of lowest cost,
//! and one pass over the switches both relaxes the edges out of the switch
//! just settled and picks the next one: a switch's cost is final for the
//! step once its own edge is relaxed, so the pick is the one a scan after
//! all relaxations would make, at no cost beyond the relaxations. The pick
//! also fixes the tie rule: of two switches at equal cost
//! ([`f64::total_cmp`]), the lower index is settled first. Which of two
//! equal-cost paths wins is therefore a function of the switch numbering
//! alone, never of a container's internal order
//! (`golden_dense36_router_tie_order_is_pinned` in `tests/determinism.rs`
//! pins it on a `D_36_8` sweep). A property test routes random small
//! designs through this kernel and through the two-pass kernel it
//! replaced, kept under `#[cfg(test)]`, and requires bit-equal topologies,
//! errors and counters.

use crate::graph::CommGraph;
use crate::phase1::Connectivity;
use crate::spec::MessageType;
use crate::topology::{FlowPath, Link, Topology};
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

/// Per-message-class channel-dependency graph with an exact cycle check.
///
/// Nodes are *stable link indices* (tombstoned links keep their slot).
/// Inserting the edge `a → b` either keeps the graph acyclic or reports
/// the cycle without modifying the graph: the edge closes a cycle exactly
/// when `b` already reaches `a`, which one depth-first search from `b`
/// decides.
#[derive(Debug, Default)]
struct ClassCdg {
    /// Out-edges per node.
    adj: Vec<Vec<usize>>,
    /// Live node count this routing run (`adj` beyond it is stale capacity
    /// from earlier runs).
    nodes: usize,
    /// DFS visit stamps (generation-tagged so clearing is O(1)).
    mark: Vec<u32>,
    mark_gen: u32,
    /// The DFS stack.
    stack: Vec<usize>,
}

impl ClassCdg {
    /// Resets to an empty graph, keeping every allocation.
    fn clear(&mut self) {
        for list in &mut self.adj[..self.nodes] {
            list.clear();
        }
        self.nodes = 0;
    }

    /// Makes sure node `v` exists; new nodes have no edges.
    fn ensure_node(&mut self, v: usize) {
        while self.nodes <= v {
            if self.adj.len() <= self.nodes {
                self.adj.push(Vec::new()); // sf-allow(hot-path-alloc): grows once per new link slot; later routing runs reuse it
                self.mark.push(0);
            }
            self.adj[self.nodes].clear();
            self.nodes += 1;
        }
    }

    /// Inserts `a → b`. Returns `Ok(true)` when the edge was added,
    /// `Ok(false)` when it was already present, and `Err(())` (leaving the
    /// graph untouched) when the insertion would close a cycle.
    // sf: hot-path
    fn insert(&mut self, a: usize, b: usize) -> Result<bool, ()> {
        self.ensure_node(a.max(b));
        if a == b {
            return Err(());
        }
        if self.adj[a].contains(&b) {
            return Ok(false);
        }
        self.mark_gen += 1;
        let gen = self.mark_gen;
        self.stack.clear();
        self.stack.push(b);
        self.mark[b] = gen;
        while let Some(u) = self.stack.pop() {
            if u == a {
                return Err(());
            }
            for i in 0..self.adj[u].len() {
                let w = self.adj[u][i];
                if self.mark[w] != gen {
                    self.mark[w] = gen;
                    self.stack.push(w);
                }
            }
        }
        self.adj[a].push(b);
        Ok(true)
    }

    /// Removes the edge `a → b` (used to roll back a rejected path's
    /// dependencies).
    fn remove(&mut self, a: usize, b: usize) {
        if let Some(p) = self.adj[a].iter().rposition(|&w| w == b) {
            self.adj[a].swap_remove(p);
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
/// are counted, except in [`Self::switches_settled`].
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
    /// Switches settled by Dijkstra, over every routing call, failed ones
    /// included.
    pub switches_settled: u64,
}

impl std::ops::AddAssign for RoutingStats {
    fn add_assign(&mut self, rhs: Self) {
        self.flows_routed += rhs.flows_routed;
        self.links_created += rhs.links_created;
        self.deadlock_rollbacks += rhs.deadlock_rollbacks;
        self.switches_settled += rhs.switches_settled;
    }
}

impl std::ops::Sub for RoutingStats {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self {
            flows_routed: self.flows_routed - rhs.flows_routed,
            links_created: self.links_created - rhs.links_created,
            deadlock_rollbacks: self.deadlock_rollbacks - rhs.deadlock_rollbacks,
            switches_settled: self.switches_settled - rhs.switches_settled,
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
    dijkstra: DijkstraState,
    // Dense per-class live-link index: `link_of[(class·n + u)·n + v]` is the
    // link slot or `usize::MAX`.
    link_of: Vec<usize>,
    // Bandwidth-independent link costs per switch pair, `pair[u·n + v]`.
    pair: Vec<PairCost>,
    // What a layer pair allows, `gates[lu·layers + lv]`, refilled per
    // Dijkstra call, and `soft_sums[k]`: `k` SOFT_INF penalties summed.
    gates: Vec<LayerGate>,
    soft_sums: Vec<f64>,
    // Banned turns for the current flow attempt (generation-stamped).
    banned: Vec<u32>,
    banned_gen: u32,
    // Per-class CDGs with their cycle-check scratch.
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
    fn reset(&mut self, nsw: usize, layers: usize) {
        let state = &mut self.dijkstra;
        if state.dist.len() < nsw {
            state.dist.resize(nsw, f64::INFINITY);
            state.prev.resize(nsw, usize::MAX);
            state.stamp.resize(nsw, 0);
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
        self.gates.clear();
        self.gates.resize(layers * layers, LayerGate::default());
        self.ill.clear();
        self.ill.resize(layers.saturating_sub(1), 0);
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
        router.route_all(alpha, Router::dijkstra)?;
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

/// Dijkstra's per-switch state. It is generation-stamped, so a search
/// starts in O(1): a switch stamped `gen` holds a tentative cost, one
/// stamped `gen + 1` its final cost, and any other stamp reads as unreached.
#[derive(Debug, Default)]
struct DijkstraState {
    dist: Vec<f64>,
    prev: Vec<usize>,
    stamp: Vec<u32>,
    gen: u32,
}

impl DijkstraState {
    /// The settled route from `src` to `dst`, read back through `prev`.
    // sf: hot-path
    fn path(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut path = vec![dst]; // sf-allow(hot-path-alloc): the returned path is the per-flow result value
        let mut cur = dst;
        while cur != src {
            cur = self.prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// What Algorithm 3 allows a link between two layers, for one Dijkstra
/// call: the vertical budget changes only between flows.
#[derive(Debug, Clone, Copy, Default)]
struct LayerGate {
    /// The layers may be linked at all (step 3: not when they are two or
    /// more apart and only adjacent-layer links are allowed).
    edge: bool,
    /// For a new link, how many of the boundaries it crosses are at the
    /// soft limit; `None` when one is at `max_ill` (steps 3–6).
    new_link: Option<usize>,
}

/// Fills `gates[lu·layers + lv]` from the vertical links `ill` in use at
/// each boundary.
// sf: hot-path
fn fill_layer_gates(gates: &mut [LayerGate], ill: &[u32], cfg: &PathConfig, layers: usize) {
    let soft_max_ill = cfg.soft_max_ill();
    for lu in 0..layers {
        for lv in 0..layers {
            let crossed = &ill[lu.min(lv)..lu.max(lv)];
            let new_link = if crossed.iter().any(|&used| used >= cfg.max_ill) {
                None
            } else {
                Some(crossed.iter().filter(|&&used| used >= soft_max_ill).count())
            };
            let edge = !(cfg.adjacent_layers_only && crossed.len() >= 2);
            gates[lu * layers + lv] = LayerGate { edge, new_link };
        }
    }
}

/// What [`FlowCosts::edge_cost`] reads that holds for a whole Dijkstra
/// call: the flow's energy, the links and port counts the flows routed so
/// far left, and the router's constants.
struct FlowCosts<'r> {
    energy: &'r FlowEnergy,
    links: &'r [Link],
    in_ports: &'r [u32],
    switch_layer: &'r [u32],
    /// `soft_sums[k]`: `k` SOFT_INF penalties added one at a time to zero.
    soft_sums: &'r [f64],
    capacity_gbps: f64,
    new_port_cost: f64,
    max_switch_size: u32,
    soft_max_switch_size: u32,
}

/// What [`FlowCosts::edge_cost`] reads that holds for the edges out of one
/// switch: its rows of the pair-cost table, of its class's live links and
/// of its layer's gates, and whether one more output port passes the hard
/// or the soft size limit.
struct OutEdges<'r> {
    pair: &'r [PairCost],
    link_of: &'r [usize],
    gates: &'r [LayerGate],
    out_full: bool,
    out_soft: bool,
}

impl FlowCosts<'_> {
    /// Marginal cost of sending the flow over the edge from `from` to
    /// switch `v`, or `None` when the edge is forbidden (Algorithm 3's
    /// `INF`).
    ///
    /// The wire part is the link power, plus the TSV power, plus the switch
    /// traversal energy, summed in that order. The link power is
    /// [`LinkFixedPower::power_mw`] over the pair's table entry, the same
    /// float operations [`sunfloor_models::LinkModel::power_mw`] performs.
    /// A new link adds the port cost, then its SOFT_INF penalties: one per
    /// boundary at the soft limit, then one for a port near the size limit.
    // sf: hot-path
    fn edge_cost(&self, from: &OutEdges<'_>, v: usize) -> Option<f64> {
        let gate = from.gates[self.switch_layer[v] as usize];
        if !gate.edge {
            return None; // Algorithm 3 step 3
        }
        let pair = &from.pair[v];
        let energy = self.energy;
        let wire = pair.link.power_mw(energy.wire) + energy.tsv * pair.tsv_hops + energy.switch;

        // Reuse an existing same-class link with spare capacity? A saturated
        // one falls through: a second, parallel link would be created.
        let li = from.link_of[v];
        if li != usize::MAX && self.links[li].bandwidth_gbps + energy.bw_gbps <= self.capacity_gbps
        {
            return Some(wire);
        }

        // New link: the vertical budget (steps 3–6)…
        let soft_boundaries = gate.new_link?;
        // …and port growth (steps 7–10).
        let in_ports = self.in_ports[v] + 1;
        if from.out_full || in_ports > self.max_switch_size {
            return None;
        }
        let soft_port = from.out_soft || in_ports > self.soft_max_switch_size;
        Some(wire + self.new_port_cost + self.soft_sums[soft_boundaries + usize::from(soft_port)])
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
    /// Layers in the stack.
    layers: usize,
    capacity_gbps: f64,
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
        let layers = graph.layers() as usize;
        alloc.reset(nsw, layers);
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
        // placement diameter for the SOFT_INF bound below. Both terms give
        // the same bits either way round, so each pair is priced once and
        // mirrored; the diagonal stays unset, as Dijkstra never reads it.
        let mut max_d = 1.0f64;
        for (u, a) in est_switch_pos.iter().enumerate() {
            for (v, b) in est_switch_pos.iter().enumerate().skip(u + 1) {
                let d = (a.0 - b.0).abs() + (a.1 - b.1).abs();
                let cost = PairCost {
                    link: lib.link.fixed_power(d.max(0.05), cfg.frequency_mhz),
                    tsv_hops: f64::from(switch_layer[u].abs_diff(switch_layer[v])),
                };
                alloc.pair[u * nsw + v] = cost;
                alloc.pair[v * nsw + u] = cost;
                max_d = max_d.max(d);
            }
        }

        // SOFT_INF = ten times the maximum cost of any flow (§VI): bound the
        // flow cost by routing the heaviest flow over the placement diameter.
        let max_bw = graph.max_bandwidth_mbs() * 8.0 / 1000.0;
        let max_flow_cost = lib.link.power_mw(max_d, max_bw, cfg.frequency_mhz)
            + lib.switch.power_mw(4, 4, max_bw, cfg.frequency_mhz);
        let soft_inf = 10.0 * max_flow_cost;
        // An edge collects one SOFT_INF per boundary at the soft limit and
        // one for a port, added one at a time from zero.
        alloc.soft_sums.clear();
        alloc.soft_sums.push(0.0);
        for k in 0..layers {
            let sum = alloc.soft_sums[k] + soft_inf;
            alloc.soft_sums.push(sum);
        }

        let new_port_cost = 2.0
            * (lib.switch.dyn_mw_per_port_mhz * cfg.frequency_mhz + lib.switch.leak_mw_per_port);

        Ok(Self {
            alloc,
            graph,
            lib,
            cfg,
            topo,
            nsw,
            layers,
            capacity_gbps,
            new_port_cost,
            stats: RoutingStats::default(),
        })
    }

    // sf: hot-path
    fn live_link(&self, u: usize, v: usize, class: MessageType) -> Option<usize> {
        let li = self.alloc.link_of[(class_index(class) * self.nsw + u) * self.nsw + v];
        (li != usize::MAX).then_some(li)
    }

    /// Routes every flow in criticality order, finding each path with
    /// `search`, which is [`Self::dijkstra`] (the tests also pass the
    /// two-pass kernel it replaced).
    // sf: hot-path
    fn route_all<S>(&mut self, alpha: f64, mut search: S) -> Result<(), PathError>
    where
        S: FnMut(&mut Self, usize, usize, &FlowEnergy, MessageType) -> Option<Vec<usize>>,
    {
        let mut order = std::mem::take(&mut self.alloc.order);
        let mut weights = std::mem::take(&mut self.alloc.weights);
        self.graph.flows_by_criticality_into(alpha, &mut order, &mut weights);
        self.alloc.weights = weights;
        for i in 0..order.len() {
            if let Err(e) = self.route_flow(order[i], &mut search) {
                self.alloc.order = order;
                return Err(e);
            }
        }
        self.alloc.order = order;
        Ok(())
    }

    // sf: hot-path
    fn route_flow<S>(&mut self, flow_idx: usize, search: &mut S) -> Result<(), PathError>
    where
        S: FnMut(&mut Self, usize, usize, &FlowEnergy, MessageType) -> Option<Vec<usize>>,
    {
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
        // A flow wider than a link's capacity fits on no link.
        if bw_gbps > self.capacity_gbps {
            return Err(PathError::NoRoute { flow: flow_idx });
        }

        // Fresh banned-turn set for this flow: bump the generation.
        self.alloc.banned_gen += 1;
        for attempt in 0..=self.cfg.deadlock_retries {
            let Some(path) = search(self, s_sw, d_sw, &energy, e.class) else {
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

    /// The cheapest path from `src` to `dst`, or `None` when `dst` is
    /// unreachable. Each step settles the reached, unsettled switch of lowest
    /// cost, the lower index on ties. One pass over the switches relaxes the
    /// settled switch's edges into unsettled switches and, in the same pass,
    /// picks the next switch to settle: switch `v`'s cost is final for this
    /// step once its own edge is relaxed, so the pick equals a scan after
    /// all relaxations.
    // sf: hot-path
    fn dijkstra(
        &mut self,
        src: usize,
        dst: usize,
        energy: &FlowEnergy,
        class: MessageType,
    ) -> Option<Vec<usize>> {
        fill_layer_gates(&mut self.alloc.gates, &self.alloc.ill, self.cfg, self.layers);
        // The search reads the router and writes only its own state.
        let mut state = std::mem::take(&mut self.alloc.dijkstra);
        let nsw = self.nsw;
        state.gen += 2;
        let reached = state.gen;
        let settled = reached + 1;
        let dist = &mut state.dist[..nsw];
        let prev = &mut state.prev[..nsw];
        let stamp = &mut state.stamp[..nsw];
        dist[src] = 0.0;
        prev[src] = usize::MAX;
        stamp[src] = reached;

        let costs = self.flow_costs(energy);
        let banned_gen = self.alloc.banned_gen;
        let (mut u, mut d) = (src, 0.0);
        let mut settles = 0;
        let found = loop {
            stamp[u] = settled;
            settles += 1;
            if u == dst {
                break true;
            }
            let from = self.out_edges(u, class);
            let banned = &self.alloc.banned[u * nsw..][..nsw];
            // A relaxation never stores +inf or NaN (`nd + 1e-15 < dv` is
            // false for both), so an unreached switch, at +inf, is never
            // picked, and `next` stays unset only when no reached switch is
            // left.
            let (mut next, mut best) = (usize::MAX, f64::INFINITY);
            for v in 0..nsw {
                let sv = stamp[v];
                if sv == settled {
                    continue;
                }
                let mut dv = if sv == reached { dist[v] } else { f64::INFINITY };
                if banned[v] != banned_gen {
                    if let Some(cost) = costs.edge_cost(&from, v) {
                        let nd = d + cost;
                        if nd + 1e-15 < dv {
                            dist[v] = nd;
                            prev[v] = u;
                            stamp[v] = reached;
                            dv = nd;
                        }
                    }
                }
                if dv.total_cmp(&best).is_lt() {
                    (next, best) = (v, dv);
                }
            }
            if next == usize::MAX {
                break false;
            }
            (u, d) = (next, best);
        };
        self.alloc.stats.switches_settled += settles;
        let path = found.then(|| state.path(src, dst));
        self.alloc.dijkstra = state;
        path
    }

    /// What [`FlowCosts::edge_cost`] reads that holds for one Dijkstra call.
    // sf: hot-path
    fn flow_costs<'r>(&'r self, energy: &'r FlowEnergy) -> FlowCosts<'r> {
        FlowCosts {
            energy,
            links: &self.topo.links,
            in_ports: &self.alloc.in_ports[..self.nsw],
            switch_layer: &self.topo.switch_layer[..self.nsw],
            soft_sums: &self.alloc.soft_sums,
            capacity_gbps: self.capacity_gbps,
            new_port_cost: self.new_port_cost,
            max_switch_size: self.cfg.max_switch_size,
            soft_max_switch_size: self.cfg.soft_max_switch_size(),
        }
    }

    /// What [`FlowCosts::edge_cost`] reads that holds for the edges out of
    /// switch `u` in `class`.
    // sf: hot-path
    fn out_edges(&self, u: usize, class: MessageType) -> OutEdges<'_> {
        let (nsw, layers) = (self.nsw, self.layers);
        let lu = self.topo.switch_layer[u] as usize;
        let out_ports = self.alloc.out_ports[u] + 1;
        OutEdges {
            pair: &self.alloc.pair[u * nsw..][..nsw],
            link_of: &self.alloc.link_of[(class_index(class) * nsw + u) * nsw..][..nsw],
            gates: &self.alloc.gates[lu * layers..][..layers],
            out_full: out_ports > self.cfg.max_switch_size,
            out_soft: out_ports > self.cfg.soft_max_switch_size(),
        }
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

    /// Two equal-cost routes: a flow from layer 0 to layer 2 must pass a
    /// layer-1 switch, and the two coreless layer-1 switches sit at mirror
    /// images about the ends, so both routes cost the same bits. Dijkstra
    /// settles the lower index first, so the route takes switch 1 whichever
    /// side of the ends it stands on.
    #[test]
    fn equal_cost_routes_take_the_lower_index_switch() {
        let core = |layer| Core {
            name: format!("c{layer}"),
            width: 1.0,
            height: 1.0,
            x: 0.0,
            y: 0.0,
            layer,
        };
        // A literal spec: `SocSpec::new` rejects more layers than cores.
        let soc = SocSpec { cores: vec![core(0), core(2)], layers: 3 };
        let flow = Flow {
            src: 0,
            dst: 1,
            bandwidth_mbs: 100.0,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        };
        let g = CommGraph::new(&soc, &CommSpec { flows: vec![flow] });
        let mut cfg = PathConfig::new(25, 11, 400.0);
        cfg.adjacent_layers_only = true;
        for (one, two) in [((1.0, 0.0), (3.0, 0.0)), ((3.0, 0.0), (1.0, 0.0))] {
            let stack = conn(&[0, 3], &[0, 1, 1, 2], &[(2.0, 0.0), one, two, (2.0, 0.0)]);
            let topo = route(&g, &stack, &cfg).unwrap();
            assert_eq!(topo.flow_paths[0].switches, vec![0, 1, 3], "switch 1 at {one:?}");
        }
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

    /// A flow wider than a link has no route between two switches, even
    /// over a new link, but still routes within one switch.
    #[test]
    fn flow_wider_than_a_link_has_no_route() {
        let (soc, _, _) = setup();
        let flow = |dst| Flow {
            src: 0,
            dst,
            bandwidth_mbs: 1700.0, // 13.6 Gbps
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        };
        let cfg = PathConfig::new(25, 11, 400.0); // capacity 12.8 Gbps
        let g = CommGraph::new(&soc, &CommSpec::new(vec![flow(2)], &soc).unwrap());
        let err = route(&g, &two_switches(), &cfg).unwrap_err();
        assert!(matches!(err, PathError::NoRoute { flow: 0 }), "{err:?}");
        let g = CommGraph::new(&soc, &CommSpec::new(vec![flow(1)], &soc).unwrap());
        assert_eq!(route(&g, &two_switches(), &cfg).unwrap().flow_paths[0].switches, vec![0]);
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
            let mut router = Router::new(&mut alloc, &g, &partition, &lib, &cfg).unwrap();
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
                        let got = price(&mut router, u, v, &energy, MessageType::Request);
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

    /// [`FlowCosts::edge_cost`] of `u → v` under the router's current
    /// budgets, set up as [`Router::dijkstra`] sets it up.
    fn price(
        router: &mut Router<'_>,
        u: usize,
        v: usize,
        energy: &FlowEnergy,
        class: MessageType,
    ) -> Option<f64> {
        fill_layer_gates(&mut router.alloc.gates, &router.alloc.ill, router.cfg, router.layers);
        router.flow_costs(energy).edge_cost(&router.out_edges(u, class), v)
    }

    /// How often the reference kernel took each branch of an edge's price.
    #[derive(Debug, Default)]
    struct Branches {
        not_adjacent: usize,
        reused: usize,
        saturated: usize,
        ill_full: usize,
        ill_soft: usize,
        ill_soft_twice: usize,
        port_full: usize,
        port_soft: usize,
        banned: usize,
        infinite: usize,
        nan: usize,
    }

    /// The two-pass Dijkstra that [`Router::dijkstra`] replaced: each step
    /// scans for the reached, unsettled switch of lowest cost (the lower
    /// index on ties), settles it, then relaxes its edges into unsettled
    /// switches, pricing each edge with [`reference_edge_cost`].
    fn reference_dijkstra(
        r: &mut Router<'_>,
        src: usize,
        dst: usize,
        energy: &FlowEnergy,
        class: MessageType,
        seen: &mut Branches,
    ) -> Option<Vec<usize>> {
        let nsw = r.nsw;
        r.alloc.dijkstra.gen += 2;
        let reached = r.alloc.dijkstra.gen;
        let settled = reached + 1;
        r.alloc.dijkstra.dist[src] = 0.0;
        r.alloc.dijkstra.prev[src] = usize::MAX;
        r.alloc.dijkstra.stamp[src] = reached;

        loop {
            let (mut u, mut d) = (usize::MAX, f64::INFINITY);
            for v in 0..nsw {
                let state = &r.alloc.dijkstra;
                if state.stamp[v] == reached && state.dist[v].total_cmp(&d).is_lt() {
                    (u, d) = (v, state.dist[v]);
                }
            }
            if u == usize::MAX {
                return None;
            }
            r.alloc.dijkstra.stamp[u] = settled;
            r.alloc.stats.switches_settled += 1;
            if u == dst {
                break;
            }
            for v in 0..nsw {
                if r.alloc.dijkstra.stamp[v] == settled {
                    continue;
                }
                if r.alloc.banned[u * nsw + v] == r.alloc.banned_gen {
                    seen.banned += 1;
                    continue;
                }
                let Some(cost) = reference_edge_cost(r, u, v, energy, class, seen) else {
                    continue;
                };
                seen.infinite += usize::from(cost.is_infinite());
                seen.nan += usize::from(cost.is_nan());
                let nd = d + cost;
                let state = &mut r.alloc.dijkstra;
                let dv = if state.stamp[v] == reached { state.dist[v] } else { f64::INFINITY };
                if nd + 1e-15 < dv {
                    state.dist[v] = nd;
                    state.prev[v] = u;
                    state.stamp[v] = reached;
                }
            }
        }
        Some(r.alloc.dijkstra.path(src, dst))
    }

    /// The per-edge price that [`FlowCosts::edge_cost`] replaced: every
    /// check from the router's live state, the penalties summed as found.
    fn reference_edge_cost(
        r: &Router<'_>,
        u: usize,
        v: usize,
        energy: &FlowEnergy,
        class: MessageType,
        seen: &mut Branches,
    ) -> Option<f64> {
        let (lu, lv) = (r.topo.switch_layer[u], r.topo.switch_layer[v]);
        if r.cfg.adjacent_layers_only && lu.abs_diff(lv) >= 2 {
            seen.not_adjacent += 1;
            return None;
        }
        let pair = &r.alloc.pair[u * r.nsw + v];
        let wire =
            pair.link.power_mw(energy.wire) + energy.tsv * pair.tsv_hops + energy.switch;
        if let Some(li) = r.live_link(u, v, class) {
            if r.topo.links[li].bandwidth_gbps + energy.bw_gbps <= r.capacity_gbps {
                seen.reused += 1;
                return Some(wire);
            }
            seen.saturated += 1;
        }
        let soft_inf = r.alloc.soft_sums[1];
        let mut penalty = 0.0;
        let (lo, hi) = if lu <= lv { (lu, lv) } else { (lv, lu) };
        for b in lo..hi {
            let used = r.alloc.ill[b as usize];
            if used >= r.cfg.max_ill {
                seen.ill_full += 1;
                return None;
            }
            if used >= r.cfg.soft_max_ill() {
                seen.ill_soft_twice += usize::from(penalty != 0.0);
                seen.ill_soft += 1;
                penalty += soft_inf;
            }
        }
        if r.alloc.out_ports[u] + 1 > r.cfg.max_switch_size
            || r.alloc.in_ports[v] + 1 > r.cfg.max_switch_size
        {
            seen.port_full += 1;
            return None;
        }
        if r.alloc.out_ports[u] + 1 > r.cfg.soft_max_switch_size()
            || r.alloc.in_ports[v] + 1 > r.cfg.soft_max_switch_size()
        {
            seen.port_soft += 1;
            penalty += soft_inf;
        }
        Some(wire + r.new_port_cost + penalty)
    }

    /// Routes `conn` with the reference kernel, as
    /// [`PathAllocator::compute_paths`] routes it with [`Router::dijkstra`].
    fn route_with_reference(
        alloc: &mut PathAllocator,
        g: &CommGraph,
        conn: &Connectivity,
        cfg: &PathConfig,
        alpha: f64,
        seen: &mut Branches,
    ) -> Result<Topology, PathError> {
        let lib = lib();
        let mut router = Router::new(alloc, g, conn, &lib, cfg)?;
        router.route_all(alpha, |r, src, dst, energy, class| {
            reference_dijkstra(r, src, dst, energy, class, seen)
        })?;
        Ok(router.finish())
    }

    /// The one-pass kernel routes random small designs exactly as the
    /// two-pass reference does: the same topology or error (compared by
    /// their `Debug` text, which tells every float bit apart) and the same
    /// counters, on one reused allocator per kernel. The designs have 1–4
    /// layers with adjacent-only links on and off, vertical budgets and
    /// soft margins that put multi-boundary links at the soft and hard
    /// limits, tight switch sizes, flows that saturate a link or exceed its
    /// capacity, both message classes, deadlock retries, and switches so
    /// far apart that costs reach inf, and NaN for a flow of no bandwidth.
    #[test]
    fn one_pass_dijkstra_routes_as_the_two_pass_reference() {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut below = move |n: usize| (next() % n as u64) as usize;
        let (mut fast, mut slow) = (PathAllocator::new(), PathAllocator::new());
        let mut seen = Branches::default();
        let (mut routed, mut no_route, mut deadlocked, mut rolled_back) = (0, 0, 0, 0);
        for case in 0..3000usize {
            let layers = 1 + case % 4;
            // A ring: one core per switch, each sending to the next two
            // switches in one class, with room for one or two links out of
            // each switch, so the two-hop flows close a dependency cycle
            // that a retry may or may not route around.
            let ring = case.is_multiple_of(5);
            let nsw = if ring { 3 + below(4) } else { 1 + below(8) };
            let far = below(8) == 0;
            let mut switch_layer = Vec::new();
            let mut pos: Vec<(f64, f64)> = Vec::new();
            for s in 0..nsw {
                switch_layer.push(below(layers) as u32);
                pos.push(match below(10) {
                    0 if s > 0 => pos[s - 1],
                    1..=3 if far => (1e308 * if s.is_multiple_of(2) { 1.0 } else { -1.0 }, 0.0),
                    _ => (below(80) as f64 / 10.0, below(80) as f64 / 10.0),
                });
            }
            let cores = if ring { nsw } else { 2 + below(10) };
            let mut attach = Vec::new();
            let soc = SocSpec {
                cores: (0..cores)
                    .map(|i| {
                        let sw = if ring { i } else { below(nsw) };
                        attach.push(sw);
                        let layer =
                            if below(5) == 0 { below(layers) as u32 } else { switch_layer[sw] };
                        Core {
                            name: format!("c{i}"),
                            width: 1.0,
                            height: 1.0,
                            x: 0.0,
                            y: 0.0,
                            layer,
                        }
                    })
                    .collect(),
                layers: layers as u32,
            };
            let class = |response| {
                if response {
                    MessageType::Response
                } else {
                    MessageType::Request
                }
            };
            let ring_flow = |i: usize| Flow {
                src: i / 2,
                dst: (i / 2 + 1 + i % 2) % nsw,
                bandwidth_mbs: if i.is_multiple_of(2) { 800.0 } else { 100.0 },
                max_latency_cycles: 10.0,
                message_type: class(case.is_multiple_of(2)),
            };
            let random_flow = |below: &mut dyn FnMut(usize) -> usize| Flow {
                src: below(cores),
                dst: below(cores),
                bandwidth_mbs: match below(10) {
                    0 => 0.0,
                    1 => 1600.0 + below(800) as f64,
                    _ => 10.0 + below(1200) as f64,
                },
                max_latency_cycles: 2.0 + below(20) as f64,
                message_type: class(below(3) == 0),
            };
            let flows = if ring {
                (0..2 * nsw).map(ring_flow).collect()
            } else {
                (0..1 + below(3 * cores)).map(|_| random_flow(&mut below)).collect()
            };
            let g = CommGraph::new(&soc, &CommSpec { flows });
            let mut attached = vec![0u32; nsw];
            for &sw in &attach {
                attached[sw] += 1;
            }
            let mut cfg = PathConfig::new(
                if ring { 25 } else { below(7) as u32 },
                attached.iter().max().copied().unwrap_or(0) + if ring { 1 + below(2) } else { below(4) } as u32,
                200.0 + below(400) as f64,
            );
            cfg.soft_ill_margin = below(4) as u32;
            cfg.soft_switch_margin = below(3) as u32;
            cfg.adjacent_layers_only = below(2) == 0;
            cfg.deadlock_retries = below(5) as u32;
            let alpha = below(11) as f64 / 10.0;
            let partition = conn(&attach, &switch_layer, &pos);

            let (fast_before, slow_before) = (fast.stats(), slow.stats());
            let got = fast.compute_paths(&g, &partition, &lib(), &cfg, alpha);
            let want = route_with_reference(&mut slow, &g, &partition, &cfg, alpha, &mut seen);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
            let delta = slow.stats() - slow_before;
            assert_eq!(fast.stats() - fast_before, delta, "case {case}");
            rolled_back += delta.deadlock_rollbacks;
            match want {
                Ok(_) => routed += 1,
                Err(PathError::NoRoute { .. }) => no_route += 1,
                Err(PathError::DeadlockUnavoidable { .. }) => deadlocked += 1,
                Err(_) => {}
            }
        }
        let Branches {
            not_adjacent,
            reused,
            saturated,
            ill_full,
            ill_soft,
            ill_soft_twice,
            port_full,
            port_soft,
            banned,
            infinite,
            nan,
        } = seen;
        let counts = [
            ("not adjacent", not_adjacent),
            ("reused", reused),
            ("saturated", saturated),
            ("ill at the hard limit", ill_full),
            ("ill at the soft limit", ill_soft),
            ("two boundaries at the soft limit", ill_soft_twice),
            ("ports at the hard limit", port_full),
            ("ports at the soft limit", port_soft),
            ("banned turns", banned),
            ("infinite costs", infinite),
            ("NaN costs", nan),
            ("routed designs", routed),
            ("designs without a route", no_route),
            ("designs without a deadlock-free route", deadlocked),
            ("rollbacks in routed designs", rolled_back as usize),
        ];
        for (what, count) in counts {
            assert!(count > 0, "no {what} in the sample: {counts:?}");
        }
    }

    /// The CDG's cycle check agrees with a from-scratch reachability check
    /// on randomized edge streams, also after accepted batches are rolled
    /// back through `remove`, as a rejected path's dependencies are.
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
        let (mut accepted, mut rejected, mut rolled_back) = (0, 0, 0);
        for _ in 0..300 {
            // A batch of up to four dependencies, as one path's turns.
            let mut batch = Vec::new();
            for _ in 0..1 + next() % 4 {
                let a = (next() % N as u64) as usize;
                let b = (next() % N as u64) as usize;
                if a == b {
                    continue;
                }
                let closes_cycle = reaches(&oracle, b, a);
                match cdg.insert(a, b) {
                    Ok(added) => {
                        assert!(!closes_cycle, "accepted {a}->{b} but oracle sees a cycle");
                        assert_eq!(added, !oracle[a].contains(&b), "{a}->{b}: wrong `added`");
                        if added {
                            oracle[a].push(b);
                            batch.push((a, b));
                        }
                        accepted += 1;
                    }
                    Err(()) => {
                        assert!(closes_cycle, "rejected {a}->{b} but oracle sees no cycle");
                        rejected += 1;
                    }
                }
            }
            if next() % 3 == 0 {
                for &(a, b) in batch.iter().rev() {
                    cdg.remove(a, b);
                    oracle[a].retain(|&w| w != b);
                    rolled_back += 1;
                }
            }
            for (v, outs) in oracle.iter().enumerate() {
                let mut edges = cdg.adj[v].clone();
                let mut expected = outs.clone();
                edges.sort_unstable();
                expected.sort_unstable();
                assert_eq!(edges, expected, "out-edges of {v} differ from the oracle's");
            }
        }
        assert!(accepted > 50, "stream should accept a healthy number of edges");
        assert!(rejected > 50, "stream should reject a healthy number of edges");
        assert!(rolled_back > 20, "stream should roll back a healthy number of edges");
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
