//! Switch position computation (paper §VII).
//!
//! Builds the placement problem of equations (2)–(5): switch coordinates
//! are free, every core↔switch and switch↔switch connection pulls with its
//! total bandwidth, and the bandwidth-weighted Manhattan wirelength is
//! minimized. Coordinates are planar only — "The TSV macros do not need to
//! be included in the LP as TSVs split the wires in two segments, both
//! carrying the same bandwidth" (§VII), so vertical hops do not move the
//! optimum.
//!
//! The problem is solved exactly by nested minimum cuts
//! ([`sunfloor_lp::PlacementProblem`]). Among the optimal placements the
//! solver takes the one L1-nearest to the positions routing priced the
//! links at (`topo.switch_pos` on entry: the partitioner's core-centroid
//! estimates), then the larger coordinate. A placement is therefore a pure
//! function of the routed topology, the SoC and the traffic: nothing
//! carries over from one placement to the next, so serial and parallel
//! sweeps agree bit for bit without any per-candidate bookkeeping.
//!
//! A [`PlacementSolver`] — one per synthesis-engine worker, like the
//! routing `PathAllocator` — only keeps the buffers warm.

use crate::graph::CommGraph;
use crate::spec::SocSpec;
use crate::topology::Topology;
use std::sync::Arc;
use sunfloor_lp::{PlacementProblem, PlacementWorkspace, SolveError};

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

/// Deterministic counters of the switch-placement work.
///
/// Mirrors `PartitionStats`: the engine accumulates a delta per candidate
/// evaluation and sums the deltas in commit order, so serial and parallel
/// sweeps report identical totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LpStats {
    /// Axes solved: two per placement.
    pub cold_solves: u64,
    /// Always 0. Kept for the benchmark's `check.rs`; delete with the
    /// benchmark change that removes `perfbench/src/replay.rs`.
    #[doc(hidden)]
    pub warm_solves: u64,
    /// Always 0 (see `warm_solves`).
    #[doc(hidden)]
    pub simplex_iterations: u64,
    /// Always 0 (see `warm_solves`).
    #[doc(hidden)]
    pub iterations_saved: u64,
    /// Always 0 (see `warm_solves`).
    #[doc(hidden)]
    pub cross_candidate_warm_solves: u64,
}

impl std::ops::AddAssign for LpStats {
    fn add_assign(&mut self, rhs: Self) {
        self.cold_solves += rhs.cold_solves;
    }
}

impl std::ops::Sub for LpStats {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self { cold_solves: self.cold_solves - rhs.cold_solves, ..Self::default() }
    }
}

/// A placement seed. Nothing produces one any more: the type only keeps
/// the benchmark's replay compiling. Delete it, `PlacementSeeds` and the
/// hidden [`PlacementSolver`] seed methods with the benchmark change that
/// removes `perfbench/src/replay.rs`.
#[doc(hidden)]
#[derive(Debug)]
pub enum PlacementSeed {}

/// An always-empty seed bank (see `PlacementSeed`).
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct PlacementSeeds;

impl PlacementSeeds {
    /// An empty bank.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Unreachable: no [`PlacementSeed`] exists.
    pub fn insert(&mut self, _switches: usize, seed: PlacementSeed) {
        match seed {}
    }
}

/// The switch-placement solver: builds the §VII problem from a routed
/// topology and solves it exactly, reusing its buffers across calls. The
/// synthesis engine owns one per sweep worker.
#[derive(Debug, Default)]
pub struct PlacementSolver {
    problem: PlacementProblem,
    weights: PlacementWeights,
    workspace: PlacementWorkspace,
    stats: LpStats,
}

impl PlacementSolver {
    /// A fresh solver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing: placements are stateless. Kept for the benchmark's
    /// replay (see `PlacementSeed`).
    #[doc(hidden)]
    pub fn install_seeds(&mut self, _seeds: Arc<PlacementSeeds>) {}

    /// Does nothing: placements are stateless (see `PlacementSeed`).
    #[doc(hidden)]
    pub fn begin_candidate(&mut self) {}

    /// Always `None` (see `PlacementSeed`).
    #[doc(hidden)]
    #[must_use]
    pub fn export_seed(&self, _switches: usize) -> Option<PlacementSeed> {
        None
    }

    /// Cumulative counters of every placement this solver made.
    #[must_use]
    pub fn stats(&self) -> LpStats {
        self.stats
    }

    /// Places the switches optimally, starting from the estimates in
    /// `topo.switch_pos` (see the [module docs](self) for the tie rule),
    /// and writes the positions back there. Returns the optimal objective
    /// (Gbps·mm).
    ///
    /// # Errors
    ///
    /// Never fails. The `Result` is kept for the benchmark's replay (see
    /// `PlacementSeed`).
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
        self.problem.solve_in(&mut topo.switch_pos, &mut self.workspace);
        self.stats.cold_solves += 2;
        Ok(self.problem.objective(&topo.switch_pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{PathAllocator, PathConfig};
    use crate::phase1::Connectivity;
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
        let conn = Connectivity {
            core_attach: vec![0, 0, 1, 1],
            switch_layer: vec![0, 0],
            est_positions: vec![(3.0, 1.0), (3.0, 7.0)],
            theta: None,
        };
        let lib = NocLibrary::lp65();
        let topo = PathAllocator::new().compute_paths(&graph, &conn, &lib, &cfg, 1.0).unwrap();
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
    fn placement_is_a_pure_function_of_its_inputs() {
        let (soc, graph, topo) = setup();
        let mut fresh = topo.clone();
        let obj = PlacementSolver::new().place(&mut fresh, &soc, &graph).unwrap();
        // A solver that has already placed other problems — a different
        // topology, different estimates, across candidate boundaries —
        // returns exactly what a fresh solver does.
        let mut solver = PlacementSolver::new();
        let mut other = topo.clone();
        other.switch_pos = vec![(40.0, -3.0), (-7.0, 12.5)];
        other.links.clear();
        solver.place(&mut other, &soc, &graph).unwrap();
        for round in 0..3 {
            if round > 0 {
                solver.begin_candidate();
            }
            let mut again = topo.clone();
            let obj_again = solver.place(&mut again, &soc, &graph).unwrap();
            assert_eq!(obj_again.to_bits(), obj.to_bits(), "round {round}");
            assert_eq!(again.switch_pos, fresh.switch_pos, "round {round}");
        }
        assert_eq!(solver.stats().cold_solves, 8, "one placement = two axis solves");
    }
}
