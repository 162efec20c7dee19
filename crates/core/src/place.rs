//! Switch position computation (paper §VII).
//!
//! Builds the linear program of equations (2)–(5): switch coordinates are
//! free variables, every core↔switch and switch↔switch connection pulls with
//! its total bandwidth, and the bandwidth-weighted Manhattan wirelength is
//! minimized. Coordinates are planar only — "The TSV macros do not need to
//! be included in the LP as TSVs split the wires in two segments, both
//! carrying the same bandwidth" (§VII), so vertical hops do not move the
//! optimum.
//!
//! # Warm-started placement
//!
//! Placement is served by a [`PlacementSolver`] — one per synthesis-engine
//! worker, the same ownership pattern as the routing `PathAllocator`. All
//! of a solver's LP solves run in its one [`LpWorkspace`], so a state holds
//! only its axis LPs, saved bases and reports. The solver keeps one
//! warm-startable LP state per switch count, so the repeated placements a
//! candidate evaluation performs (the base attempt, every θ-escalation
//! retry at the same switch count, and the indirect-switch rounds at a
//! grown switch count) re-enter the simplex
//! from the previous optimal basis instead of running two-phase from
//! scratch; the y-axis LP additionally seeds from the x-axis basis on
//! every solve. [`PlacementSolver::begin_candidate`] cuts the warm chain
//! at candidate boundaries: which worker evaluates which candidate is a
//! scheduling accident, so letting a basis leak across candidates would
//! break the engine's serial == parallel bit-for-bit guarantee. Within a
//! candidate the chain is deterministic, and the [`LpStats`] counters are
//! accumulated per candidate so serial and parallel sweeps report
//! identical totals.
//!
//! # Cross-candidate seeds
//!
//! Cutting every chain at candidate boundaries leaves the *first*
//! placement of every candidate cold, even though candidates at the same
//! switch count solve near-identical LPs. A shared, read-only
//! [`PlacementSeeds`] bank closes that gap without giving up the
//! determinism contract: the synthesis engine runs a serial warm-up once
//! per run (one placement per swept switch count, mirroring its Phase-1
//! seed chain), exports each optimal basis pair, and installs the bank
//! into every worker's solver with [`PlacementSolver::install_seeds`].
//! [`PlacementSolver::begin_candidate`] then *re-seeds* each state from
//! the bank instead of merely clearing it — every candidate still starts
//! from the same fixed basis regardless of which worker evaluates it, so
//! serial and parallel sweeps stay bit-for-bit identical, but the base
//! attempt re-enters the simplex warm. Seed-served re-entries are counted
//! in [`LpStats::cross_candidate_warm_solves`].

use crate::graph::CommGraph;
use crate::spec::SocSpec;
use crate::topology::Topology;
use std::sync::Arc;
use sunfloor_lp::{
    LpWorkspace, PlacementProblem, PlacementSeed, PlacementState, SolveError, SolveReport,
};

/// Accumulated traffic between every core and its switch, and between switch
/// pairs — the `bw_sw2core` / `bw_sw2sw` weights of equation (4).
#[derive(Debug, Clone, Default)]
pub struct PlacementWeights {
    /// `(core, switch, Gbps)` attractions.
    pub core_switch: Vec<(usize, usize, f64)>,
    /// `(switch a, switch b, Gbps)` attractions (undirected accumulation).
    pub switch_switch: Vec<(usize, usize, f64)>,
    /// Scratch: per-core accumulated bandwidth, reused across rebuilds.
    core_bw: Vec<f64>,
}

impl PartialEq for PlacementWeights {
    fn eq(&self, other: &Self) -> bool {
        self.core_switch == other.core_switch && self.switch_switch == other.switch_switch
    }
}

impl PlacementWeights {
    /// Extracts the placement weights from a routed topology.
    #[must_use]
    pub fn from_topology(topo: &Topology, graph: &CommGraph) -> Self {
        let mut weights = Self::default();
        weights.rebuild(topo, graph);
        weights
    }

    /// Refills the weights from a routed topology, reusing the buffers —
    /// no allocation once the vectors have grown to the design's size.
    pub fn rebuild(&mut self, topo: &Topology, graph: &CommGraph) {
        self.core_bw.clear();
        self.core_bw.resize(topo.core_attach.len(), 0.0);
        for e in graph.edge_list() {
            self.core_bw[e.src] += e.bandwidth_mbs * 8.0 / 1000.0;
            self.core_bw[e.dst] += e.bandwidth_mbs * 8.0 / 1000.0;
        }
        self.core_switch.clear();
        self.core_switch.extend(
            self.core_bw
                .iter()
                .enumerate()
                .filter(|(_, &bw)| bw > 0.0)
                .map(|(c, &bw)| (c, topo.core_attach[c], bw)),
        );

        // Per-pair accumulation by stable sort + in-place merge: within a
        // key, links keep their topology order, so the bandwidth sum runs
        // left to right exactly like the hash-map accumulation it replaces
        // (bit-identical totals).
        self.switch_switch.clear();
        self.switch_switch.extend(topo.links.iter().map(|l| {
            let (a, b) = if l.from <= l.to { (l.from, l.to) } else { (l.to, l.from) };
            (a, b, l.bandwidth_gbps)
        }));
        self.switch_switch.sort_by_key(|x| (x.0, x.1));
        self.switch_switch.dedup_by(|cur, kept| {
            if kept.0 == cur.0 && kept.1 == cur.1 {
                kept.2 += cur.2;
                true
            } else {
                false
            }
        });
    }
}

/// Deterministic counters of how the switch-placement LP work was served.
///
/// Mirrors `PartitionStats`: every field counts per-candidate events (the
/// engine accumulates a delta per candidate evaluation and sums the deltas
/// in commit order), so serial and parallel sweeps report identical
/// totals. Each placement solves two axis LPs, so one `place` call
/// contributes two solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LpStats {
    /// Axis LPs solved cold (two-phase simplex from scratch).
    pub cold_solves: u64,
    /// Axis LPs re-entered from a warm basis (phase 2 resumed directly, or
    /// the dual simplex after a right-hand-side change).
    pub warm_solves: u64,
    /// Total simplex pivots performed across all solves.
    pub simplex_iterations: u64,
    /// Estimated pivots avoided by the warm re-entries, measured against
    /// each solver state's most recent cold solve.
    pub iterations_saved: u64,
    /// Warm re-entries served by a cross-candidate [`PlacementSeeds`]
    /// basis (the engine's serial warm-up bank) rather than by a
    /// within-candidate chain. A subset of [`LpStats::warm_solves`].
    pub cross_candidate_warm_solves: u64,
    /// Basis-replay pivots the warm re-entries performed before pricing
    /// resumed (the sum of `SolveReport::replayed_pivots`). Not part of
    /// [`LpStats::simplex_iterations`].
    pub replay_pivots: u64,
}

impl LpStats {
    /// Total axis-LP solves answered (cold + warm).
    #[must_use]
    pub fn total_solves(&self) -> u64 {
        self.cold_solves + self.warm_solves
    }

    fn record(&mut self, report: SolveReport) {
        if report.warm {
            self.warm_solves += 1;
            self.iterations_saved += u64::from(report.iterations_saved);
            self.replay_pivots += u64::from(report.replayed_pivots);
        } else {
            self.cold_solves += 1;
        }
        self.simplex_iterations += u64::from(report.iterations);
    }
}

impl std::ops::AddAssign for LpStats {
    fn add_assign(&mut self, rhs: Self) {
        self.cold_solves += rhs.cold_solves;
        self.warm_solves += rhs.warm_solves;
        self.simplex_iterations += rhs.simplex_iterations;
        self.iterations_saved += rhs.iterations_saved;
        self.cross_candidate_warm_solves += rhs.cross_candidate_warm_solves;
        self.replay_pivots += rhs.replay_pivots;
    }
}

impl std::ops::Sub for LpStats {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self {
            cold_solves: self.cold_solves - rhs.cold_solves,
            warm_solves: self.warm_solves - rhs.warm_solves,
            simplex_iterations: self.simplex_iterations - rhs.simplex_iterations,
            iterations_saved: self.iterations_saved - rhs.iterations_saved,
            cross_candidate_warm_solves: self.cross_candidate_warm_solves
                - rhs.cross_candidate_warm_solves,
            replay_pivots: self.replay_pivots - rhs.replay_pivots,
        }
    }
}

/// A read-only bank of cross-candidate placement seeds, keyed by switch
/// count: one exported [`PlacementSeed`] per swept count, captured by the
/// synthesis engine's serial warm-up and shared (behind an [`Arc`]) by
/// every sweep worker's [`PlacementSolver`]. Because the bank is fixed
/// before the sweep starts and identical for all workers, seeding from it
/// is scheduling-invariant — the determinism contract of
/// [`PlacementSolver::begin_candidate`] is preserved.
#[derive(Debug, Default)]
pub struct PlacementSeeds {
    seeds: Vec<(usize, PlacementSeed)>,
}

impl PlacementSeeds {
    /// An empty bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the seed for `switches` switches.
    pub fn insert(&mut self, switches: usize, seed: PlacementSeed) {
        match self.seeds.iter_mut().find(|(k, _)| *k == switches) {
            Some((_, existing)) => *existing = seed,
            None => self.seeds.push((switches, seed)),
        }
    }

    /// The seed for `switches` switches, if one was captured.
    #[must_use]
    pub fn get(&self, switches: usize) -> Option<&PlacementSeed> {
        self.seeds.iter().find(|(k, _)| *k == switches).map(|(_, s)| s)
    }

    /// Number of switch counts with a captured seed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the bank holds no seeds at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

/// The warm-startable switch-placement solver: builds the §VII LP from a
/// routed topology and solves it through per-switch-count
/// [`PlacementState`]s, chaining warm starts across the placements of one
/// candidate evaluation (see the [module docs](self) for the determinism
/// contract). The synthesis engine owns one per sweep worker.
#[derive(Debug, Default)]
pub struct PlacementSolver {
    problem: PlacementProblem,
    weights: PlacementWeights,
    /// The tableau and scratch every solve of this solver works in.
    workspace: LpWorkspace,
    /// Warm-start states keyed by switch count (indirect-switch rounds
    /// grow the count mid-candidate, so one candidate can touch several).
    states: Vec<StateSlot>,
    /// The shared cross-candidate seed bank, when the engine installed
    /// one (see the [module docs](self)).
    seeds: Option<Arc<PlacementSeeds>>,
    stats: LpStats,
}

/// One warm-start state plus its seeding bookkeeping.
#[derive(Debug)]
struct StateSlot {
    switches: usize,
    state: PlacementState,
    /// Whether the next placement through this slot starts from a freshly
    /// installed cross-candidate seed (set when the seed is installed,
    /// cleared by the first placement — which is the only one whose warm
    /// re-entries count as seed-served).
    seeded: bool,
}

impl PlacementSolver {
    /// A fresh solver; every state starts cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the shared cross-candidate seed bank: from the next
    /// [`PlacementSolver::begin_candidate`] on (and for states created
    /// mid-candidate), states whose switch count has a banked seed start
    /// from that basis instead of cold.
    pub fn install_seeds(&mut self, seeds: Arc<PlacementSeeds>) {
        self.seeds = Some(seeds);
    }

    /// Cuts the warm chain at a candidate boundary: every state forgets
    /// its basis — and re-seeds from the shared cross-candidate bank when
    /// one is installed and covers its switch count — so the next
    /// placement at any switch count starts from a fixed, candidate-
    /// independent basis (the banked seed, or cold).
    ///
    /// The engine calls this at the start of each candidate evaluation.
    /// Warm chains *within* a candidate are deterministic; chains *across*
    /// candidates would depend on which worker happened to evaluate which
    /// candidate previously, breaking the serial == parallel bit-for-bit
    /// guarantee. The banked seeds are fixed before the sweep starts, so
    /// re-seeding keeps that guarantee while skipping the cold re-entry.
    pub fn begin_candidate(&mut self) {
        let seeds = self.seeds.as_deref();
        for slot in &mut self.states {
            match seeds.and_then(|s| s.get(slot.switches)) {
                Some(seed) => {
                    slot.state.seed_from(seed);
                    slot.seeded = true;
                }
                None => {
                    slot.state.clear_warm();
                    slot.seeded = false;
                }
            }
        }
    }

    /// Exports the optimal basis pair of the state at `switches`, if that
    /// state has completed a placement. The engine's warm-up uses this to
    /// build the shared [`PlacementSeeds`] bank.
    #[must_use]
    pub fn export_seed(&self, switches: usize) -> Option<PlacementSeed> {
        self.states.iter().find(|s| s.switches == switches)?.state.export_seed()
    }

    /// Cumulative counters of every solve this solver served.
    #[must_use]
    pub fn stats(&self) -> LpStats {
        self.stats
    }

    /// Solves the switch-placement LP and writes the optimal coordinates
    /// into `topo.switch_pos`. Returns the optimal objective (Gbps·mm).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] on numerical breakdown of the simplex
    /// (the model itself is always feasible and bounded).
    pub fn place(
        &mut self,
        topo: &mut Topology,
        soc: &SocSpec,
        graph: &CommGraph,
    ) -> Result<f64, SolveError> {
        self.weights.rebuild(topo, graph);
        self.problem.reset(topo.switch_count());
        for &(core, sw, bw) in &self.weights.core_switch {
            self.problem.attract_to_fixed(sw, soc.cores[core].center(), bw);
        }
        for &(a, b, bw) in &self.weights.switch_switch {
            self.problem.attract_pair(a, b, bw);
        }

        let key = topo.switch_count();
        let slot = match self.states.iter().position(|s| s.switches == key) {
            Some(i) => i,
            None => {
                // A switch count this solver has never placed: start its
                // state from the banked seed when one exists, exactly as
                // `begin_candidate` would have.
                let mut state = PlacementState::new();
                let seeded = match self.seeds.as_deref().and_then(|s| s.get(key)) {
                    Some(seed) => {
                        state.seed_from(seed);
                        true
                    }
                    None => false,
                };
                self.states.push(StateSlot { switches: key, state, seeded });
                self.states.len() - 1
            }
        };
        let slot = &mut self.states[slot];
        let positions = self.problem.solve_in(&mut slot.state, &mut self.workspace)?;
        let (rx, ry) = slot.state.reports();
        self.stats.record(rx);
        self.stats.record(ry);
        if slot.seeded {
            slot.seeded = false;
            // The x axis never adopts a basis mid-solve, so a warm x on a
            // freshly seeded slot means the banked seed replayed; the y
            // axis then warmed from the seed too (not from an x adoption).
            if rx.warm {
                self.stats.cross_candidate_warm_solves += 1 + u64::from(ry.warm);
            }
        }

        let objective = self.problem.objective(&positions);
        topo.switch_pos = positions;
        Ok(objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{compute_paths, PathConfig};
    use crate::spec::{CommSpec, Core, Flow, MessageType};
    use sunfloor_models::NocLibrary;

    fn setup() -> (SocSpec, CommGraph, Topology) {
        let soc = SocSpec::new(
            vec![
                Core { name: "a".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 0 },
                Core { name: "b".into(), width: 2.0, height: 2.0, x: 6.0, y: 0.0, layer: 0 },
                Core { name: "c".into(), width: 2.0, height: 2.0, x: 0.0, y: 6.0, layer: 0 },
                Core { name: "d".into(), width: 2.0, height: 2.0, x: 6.0, y: 6.0, layer: 0 },
            ],
            1,
        )
        .unwrap();
        let f = |src, dst, bw: f64| Flow {
            src,
            dst,
            bandwidth_mbs: bw,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        };
        let comm =
            CommSpec::new(vec![f(0, 1, 100.0), f(2, 3, 100.0), f(0, 3, 50.0)], &soc).unwrap();
        let graph = CommGraph::new(&soc, &comm);
        let cfg = PathConfig::new(25, 11, 400.0);
        let topo = compute_paths(
            &graph,
            &[0, 0, 1, 1],
            &[0, 0],
            &[(3.0, 1.0), (3.0, 7.0)],
            &[0, 0, 0, 0],
            1,
            &NocLibrary::lp65(),
            &cfg,
            1.0,
        )
        .unwrap();
        (soc, graph, topo)
    }

    #[test]
    fn weights_capture_all_traffic() {
        let (_, graph, topo) = setup();
        let w = PlacementWeights::from_topology(&topo, &graph);
        // Every core sends or receives, so all 4 appear.
        assert_eq!(w.core_switch.len(), 4);
        // One switch pair with the 50 MB/s inter-cluster flow (0.4 Gbps).
        assert_eq!(w.switch_switch.len(), 1);
        assert!((w.switch_switch[0].2 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn placement_lands_switches_between_their_cores() {
        let (soc, graph, mut topo) = setup();
        let obj = PlacementSolver::new().place(&mut topo, &soc, &graph).unwrap();
        assert!(obj >= 0.0);
        // Switch 0 serves cores a(1,1) and b(7,1): optimal y = 1.
        let (x0, y0) = topo.switch_pos[0];
        assert!((y0 - 1.0).abs() < 1e-6, "switch 0 y = {y0}");
        assert!((1.0..=7.0).contains(&x0), "switch 0 x = {x0}");
        // Switch 1 serves cores c(1,7) and d(7,7): optimal y = 7.
        let (_, y1) = topo.switch_pos[1];
        assert!((y1 - 7.0).abs() < 1e-6, "switch 1 y = {y1}");
    }

    #[test]
    fn lp_objective_beats_centroid_heuristic() {
        let (soc, graph, mut topo) = setup();
        let weights = PlacementWeights::from_topology(&topo, &graph);
        let mut problem = PlacementProblem::new(topo.switch_count());
        for &(core, sw, bw) in &weights.core_switch {
            problem.attract_to_fixed(sw, soc.cores[core].center(), bw);
        }
        for &(a, b, bw) in &weights.switch_switch {
            problem.attract_pair(a, b, bw);
        }
        let obj = PlacementSolver::new().place(&mut topo, &soc, &graph).unwrap();
        let centroid = vec![(3.0, 1.0), (3.0, 7.0)];
        assert!(obj <= problem.objective(&centroid) + 1e-6);
    }

    #[test]
    fn repeated_placement_warm_starts_and_reproduces_the_vertex() {
        let (soc, graph, topo) = setup();
        let mut solver = PlacementSolver::new();
        let mut first = topo.clone();
        let obj1 = solver.place(&mut first, &soc, &graph).unwrap();
        let after_first = solver.stats();
        assert_eq!(after_first.total_solves(), 2, "one placement = two axis LPs");
        // The y axis seeds from the x basis, so even the first placement
        // may warm; the second placement of the same topology must be
        // fully warm and bit-identical.
        let mut second = topo.clone();
        let obj2 = solver.place(&mut second, &soc, &graph).unwrap();
        let delta = solver.stats() - after_first;
        assert_eq!(delta.warm_solves, 2, "identical re-placement must warm both axes");
        assert_eq!(obj1.to_bits(), obj2.to_bits());
        assert_eq!(first.switch_pos, second.switch_pos);
    }

    #[test]
    fn begin_candidate_cuts_the_warm_chain() {
        let (soc, graph, topo) = setup();
        let mut solver = PlacementSolver::new();
        let mut a = topo.clone();
        solver.place(&mut a, &soc, &graph).unwrap();
        solver.begin_candidate();
        let before = solver.stats();
        let mut b = topo.clone();
        solver.place(&mut b, &soc, &graph).unwrap();
        let delta = solver.stats() - before;
        assert_eq!(
            delta.cold_solves, 1,
            "after begin_candidate the x axis must solve cold again"
        );
        // A fresh solver produces the same positions: the chain cut makes
        // the per-candidate results history-independent.
        let mut fresh = topo.clone();
        PlacementSolver::new().place(&mut fresh, &soc, &graph).unwrap();
        assert_eq!(b.switch_pos, fresh.switch_pos);
    }

    /// Builds a seed bank from one warm-up placement of `topo`.
    fn bank_from(topo: &Topology, soc: &SocSpec, graph: &CommGraph) -> Arc<PlacementSeeds> {
        let mut warmup = PlacementSolver::new();
        let mut t = topo.clone();
        warmup.place(&mut t, soc, graph).unwrap();
        let mut bank = PlacementSeeds::new();
        bank.insert(topo.switch_count(), warmup.export_seed(topo.switch_count()).unwrap());
        Arc::new(bank)
    }

    #[test]
    fn banked_seed_warms_the_first_placement_of_a_candidate() {
        let (soc, graph, topo) = setup();
        let bank = bank_from(&topo, &soc, &graph);
        assert_eq!(bank.len(), 1);

        let mut solver = PlacementSolver::new();
        solver.install_seeds(Arc::clone(&bank));
        let mut seeded = topo.clone();
        solver.place(&mut seeded, &soc, &graph).unwrap();
        let first = solver.stats();
        assert_eq!(first.cold_solves, 0, "the banked basis must replace the cold solve");
        assert_eq!(first.warm_solves, 2);
        assert_eq!(first.cross_candidate_warm_solves, 2);

        // And crucially: the seeded placement reproduces the unseeded
        // vertex bit-for-bit (the seed is the same problem's optimal
        // basis, so the warm re-entry replays it with zero pivots).
        let mut cold = topo.clone();
        PlacementSolver::new().place(&mut cold, &soc, &graph).unwrap();
        assert_eq!(seeded.switch_pos, cold.switch_pos);

        // The next candidate re-seeds from the bank: warm again, and the
        // same vertex again.
        solver.begin_candidate();
        let before = solver.stats();
        let mut again = topo.clone();
        solver.place(&mut again, &soc, &graph).unwrap();
        let delta = solver.stats() - before;
        assert_eq!(delta.cold_solves, 0);
        assert_eq!(delta.cross_candidate_warm_solves, 2);
        assert_eq!(again.switch_pos, cold.switch_pos);
    }

    #[test]
    fn seed_bank_misses_fall_back_to_cold() {
        let (soc, graph, topo) = setup();
        // A bank that covers some other switch count only.
        let mut bank = PlacementSeeds::new();
        let mut warmup = PlacementSolver::new();
        let mut t = topo.clone();
        warmup.place(&mut t, &soc, &graph).unwrap();
        bank.insert(topo.switch_count() + 7, warmup.export_seed(topo.switch_count()).unwrap());

        let mut solver = PlacementSolver::new();
        solver.install_seeds(Arc::new(bank));
        let mut b = topo.clone();
        solver.place(&mut b, &soc, &graph).unwrap();
        assert_eq!(solver.stats().cold_solves, 1, "bank miss must behave exactly unseeded");
        assert_eq!(solver.stats().cross_candidate_warm_solves, 0);
        let mut fresh = topo.clone();
        PlacementSolver::new().place(&mut fresh, &soc, &graph).unwrap();
        assert_eq!(b.switch_pos, fresh.switch_pos);
    }
}
