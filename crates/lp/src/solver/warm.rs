//! The persistent solver state behind [`Problem::solve_from`] and
//! [`Problem::solve_in`]: the previous solve's optimal basis, and the
//! decision logic that re-enters the simplex from that basis. The scratch
//! a solve works in — tableau, pricing vectors, replay flags — lives in an
//! [`LpWorkspace`] that one worker shares across all its states.
//!
//! A warm re-entry goes through three gates, falling back to the cold
//! two-phase path whenever one fails:
//!
//! 1. **Shape** — the saved basis only replays into a problem with the same
//!    variable count and per-row constraint operators (the tableau column
//!    layout). Coefficients, right-hand sides and the objective may differ.
//! 2. **Replay** — the saved basis is pivoted into the freshly built
//!    tableau (deterministic Gauss–Jordan, cheap when the basis columns are
//!    already near identity). A numerically singular basis aborts.
//! 3. **Re-entry** — if the replayed basis is primal feasible, phase 2
//!    resumes directly (phase 1 is skipped entirely); if it is primal
//!    infeasible but dual feasible under the new objective — the classic
//!    changed-rhs sensitivity case — the dual simplex restores feasibility
//!    and terminates at the optimum. Neither feasible ⇒ cold.
//!
//! Warm and cold paths both end at an *optimal* vertex, so the objective
//! value agrees to floating-point rounding; on degenerate optima the two
//! paths may return different optimal vertices, which is why the synthesis
//! engine confines warm chains to deterministic scopes (see
//! `sunfloor_core::place::PlacementSolver`).

use super::basis::SavedBasis;
use super::pricing::{self, Pricing};
use super::tableau::Tableau;
use super::{Problem, Solution, SolveError, EPS};

/// What the most recent [`Problem::solve_from`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveReport {
    /// Whether the solve re-entered from the saved basis (`false`: cold
    /// two-phase).
    pub warm: bool,
    /// Simplex pivots performed (phase 1 + phase 2, or dual re-entry).
    pub iterations: u32,
    /// Basis-replay pivots performed before re-entry (warm only). These
    /// cost a fraction of a priced simplex iteration each.
    pub replayed_pivots: u32,
    /// Estimated pivots avoided versus a cold solve: the state's most
    /// recent cold solve took `iterations + iterations_saved` pivots.
    pub iterations_saved: u32,
}

/// An exported optimal-basis snapshot, detached from the [`SolverState`]
/// that produced it.
///
/// A snapshot is an opaque value: the only things to do with it are
/// [`SolverState::import_basis`] (install it into another state, so that
/// state's next shape-compatible solve warm-starts from it) and cloning.
/// It carries the donor state's cold-pivot baseline along, so
/// [`SolveReport::iterations_saved`] stays a meaningful estimate in the
/// importing state.
///
/// Snapshots let warm starts cross ownership boundaries that
/// [`SolverState::adopt_basis_from`] cannot: the donor state can be
/// dropped, and one snapshot can seed many states (the synthesis engine
/// captures one per switch count during a serial warm-up and seeds every
/// sweep worker's placement solver from the shared set).
#[derive(Debug, Clone, Default)]
pub struct BasisSnapshot {
    saved: SavedBasis,
    cold_iterations: u32,
}

/// Scratch for LP solves: the sparse tableau, the pricing vectors and the
/// basis-replay flags.
///
/// Nothing in a workspace carries over from one solve to the next except
/// the capacity of its buffers — every solve rebuilds the tableau — so one
/// workspace can serve any number of [`SolverState`]s, one solve at a
/// time. The synthesis engine keeps one per sweep worker, which keeps a
/// worker's repeated solves allocation-free and its memory footprint
/// independent of how many warm states it holds. Pass it to
/// [`Problem::solve_in`].
#[derive(Debug, Clone, Default)]
pub struct LpWorkspace {
    tab: Tableau,
    pricing: Pricing,
    /// Replay scratch: which rows the basis replay has claimed.
    claimed: Vec<bool>,
}

impl LpWorkspace {
    /// An empty workspace; its buffers grow to the largest LP solved in it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Persistent solver state for [`Problem::solve_from`] and
/// [`Problem::solve_in`]: the previous solve's optimal basis (so a
/// structurally matching next problem skips phase 1 and most of phase 2),
/// the report of the last solve and the cold-pivot baseline the reports
/// estimate savings against. The tableau itself lives in an
/// [`LpWorkspace`].
///
/// A warm re-entry goes through three gates, falling back to the cold
/// two-phase path whenever one fails: the saved basis must fit the new
/// problem's *shape* (variable count and per-row constraint operators),
/// its replay into the rebuilt tableau must be nonsingular, and the
/// replayed basis must be primal feasible (phase 2 resumes) or dual
/// feasible under the new objective (the dual simplex finishes the solve —
/// the classic changed-rhs sensitivity re-entry). See the
/// [`Problem::solve_from`] example for typical use.
#[derive(Debug, Clone, Default)]
pub struct SolverState {
    saved: SavedBasis,
    report: SolveReport,
    /// Pivot count of the most recent cold solve — the baseline
    /// [`SolveReport::iterations_saved`] is estimated against.
    last_cold_iterations: u32,
}

impl SolverState {
    /// A fresh state with no saved basis; the first solve through it is
    /// cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// What the most recent solve through this state did.
    #[must_use]
    pub fn last_report(&self) -> SolveReport {
        self.report
    }

    /// Whether the state holds a basis that could warm-start `p`.
    #[must_use]
    pub fn has_basis_for(&self, p: &Problem) -> bool {
        self.saved.matches(p)
    }

    /// Forgets the saved basis: the next solve is cold. Used to cut warm
    /// chains at determinism boundaries.
    pub fn clear_warm(&mut self) {
        self.saved.clear();
    }

    /// Copies `other`'s saved basis into this state, so the next
    /// compatible solve warm-starts from it. Useful when two states solve
    /// structurally identical problems (e.g. the x/y axes of a Manhattan
    /// placement, which share matrix and objective). The donor's
    /// cold-iteration baseline comes along, so
    /// [`SolveReport::iterations_saved`] stays a meaningful estimate for a
    /// state that never solved cold itself.
    pub fn adopt_basis_from(&mut self, other: &SolverState) {
        self.saved.clone_from_other(&other.saved);
        self.last_cold_iterations = other.last_cold_iterations;
    }

    /// Exports the saved optimal basis as a detached [`BasisSnapshot`], or
    /// `None` when the state holds no replayable basis (it never solved,
    /// its last solve failed, or the basis was cleared).
    #[must_use]
    pub fn export_basis(&self) -> Option<BasisSnapshot> {
        if !self.saved.is_valid() {
            return None;
        }
        Some(BasisSnapshot {
            saved: self.saved.clone(),
            cold_iterations: self.last_cold_iterations,
        })
    }

    /// Installs an exported snapshot: the next solve of a shape-compatible
    /// problem warm-starts from it exactly as if this state had produced
    /// the basis itself (a shape mismatch falls back to cold as usual).
    pub fn import_basis(&mut self, snapshot: &BasisSnapshot) {
        self.saved.clone_from_other(&snapshot.saved);
        self.last_cold_iterations = snapshot.cold_iterations;
    }

    pub(crate) fn solve(
        &mut self,
        p: &Problem,
        ws: &mut LpWorkspace,
    ) -> Result<Solution, SolveError> {
        if self.saved.matches(p) {
            if let Some(sol) = self.try_warm(p, ws) {
                return Ok(sol);
            }
        }
        self.solve_cold(p, ws)
    }

    /// Attempts the warm re-entry; `None` means "fall back to cold" (the
    /// basis replay went singular, neither re-entry applies, or the warm
    /// run hit a numerical guard — cold re-derives the authoritative
    /// answer, including genuine infeasibility/unboundedness errors).
    fn try_warm(&mut self, p: &Problem, ws: &mut LpWorkspace) -> Option<Solution> {
        let LpWorkspace { tab, pricing: prices, claimed } = ws;
        tab.rebuild(p);
        let replayed = self.saved.replay(tab, claimed)?;
        prices.reset(tab.n_total);
        let num_vars = p.num_vars();
        prices.cost[..num_vars].copy_from_slice(p.objective_coefficients());
        let cost = &prices.cost;
        let art_start = tab.art_start;

        let mut iterations = 0u32;
        let feasible = (0..tab.rows()).all(|i| tab.rhs(i) >= 0.0);
        let objective = if feasible {
            // Primal feasible: resume phase 2 directly.
            pricing::primal(tab, cost, art_start, &mut prices.z, &mut iterations).ok()?
        } else {
            // Primal infeasibility from a rhs change: legal re-entry only
            // if the basis is still dual feasible under the new objective.
            pricing::price(tab, cost, art_start, &mut prices.z);
            let dual_feasible =
                (0..art_start).all(|j| tab.basis.member[j] || cost[j] - prices.z[j] >= -EPS);
            if !dual_feasible {
                return None;
            }
            pricing::dual(tab, cost, art_start, &mut prices.z, &mut iterations).ok()?
        };

        // Phase 2 and the dual loop only ever enter structural or slack
        // columns, so a replayed (artificial-free) basis stays
        // artificial-free and is always worth saving.
        self.saved.capture(p, &tab.basis.rows);
        self.report = SolveReport {
            warm: true,
            iterations,
            replayed_pivots: replayed,
            iterations_saved: self.last_cold_iterations.saturating_sub(iterations),
        };
        let mut values = Vec::new();
        tab.extract_values(num_vars, &mut values);
        Some(Solution { objective, values })
    }

    /// The cold two-phase primal simplex, bit-identical to
    /// [`Problem::solve`] (which delegates here through a fresh state).
    pub(crate) fn solve_cold(
        &mut self,
        p: &Problem,
        ws: &mut LpWorkspace,
    ) -> Result<Solution, SolveError> {
        let LpWorkspace { tab, pricing: prices, .. } = ws;
        tab.rebuild(p);
        prices.reset(tab.n_total);
        let m = tab.rows();
        let n_total = tab.n_total;
        let art_start = tab.art_start;
        let mut iterations = 0u32;

        if tab.basis.contains_artificial(art_start) {
            // Phase 1 objective: minimize sum of artificials.
            for c in prices.cost.iter_mut().skip(art_start) {
                *c = 1.0;
            }
            let phase1 =
                pricing::primal(tab, &prices.cost, n_total, &mut prices.z, &mut iterations);
            let obj = match phase1 {
                Ok(obj) => obj,
                Err(e) => return Err(self.record_failure(iterations, e)),
            };
            if obj > 1e-7 {
                return Err(self.record_failure(iterations, SolveError::Infeasible));
            }
            // Pivot remaining artificials out of the basis if possible.
            for i in 0..m {
                if tab.basis.rows[i] >= art_start {
                    let entering = tab
                        .row_entries(i)
                        .iter()
                        .take_while(|e| e.0 < art_start)
                        .find(|e| e.1.abs() > 1e-7)
                        .map(|e| e.0);
                    if let Some(j) = entering {
                        tab.pivot(i, j);
                    }
                    // Else the row is all-zero in structural columns: a
                    // redundant constraint; leave the (zero-valued)
                    // artificial in the basis — it can never re-enter
                    // because phase 2 restricts columns below art_start.
                }
            }
        }

        // Phase 2: original objective over structural + slack columns only.
        let num_vars = p.num_vars();
        for c in &mut prices.cost {
            *c = 0.0;
        }
        prices.cost[..num_vars].copy_from_slice(p.objective_coefficients());
        let phase2 = pricing::primal(tab, &prices.cost, art_start, &mut prices.z, &mut iterations);
        let objective = match phase2 {
            Ok(obj) => obj,
            Err(e) => return Err(self.record_failure(iterations, e)),
        };

        self.last_cold_iterations = iterations;
        self.report =
            SolveReport { warm: false, iterations, replayed_pivots: 0, iterations_saved: 0 };
        // A basis holding a (zero-valued) artificial from a redundant
        // constraint cannot be replayed; forget it rather than warm-start
        // the next solve from an invalid snapshot.
        if tab.basis.contains_artificial(art_start) {
            self.saved.clear();
        } else {
            self.saved.capture(p, &tab.basis.rows);
        }
        let mut values = Vec::new();
        tab.extract_values(num_vars, &mut values);
        Ok(Solution { objective, values })
    }

    /// Records a failed cold solve — the report reflects *this* attempt
    /// (not the previous solve's), and the saved basis is dropped since it
    /// no longer corresponds to a solved problem.
    fn record_failure(&mut self, iterations: u32, e: SolveError) -> SolveError {
        self.saved.clear();
        self.report = SolveReport { iterations, ..SolveReport::default() };
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp;

    fn sweep_problem(b: f64, w: f64) -> Problem {
        // min 2x + wy s.t. x + y >= b, y <= 3.
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 2.0), (1, w)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, b);
        p.add_constraint(&[(1, 1.0)], ConstraintOp::Le, 3.0);
        p
    }

    #[test]
    fn first_solve_is_cold_then_warm() {
        let mut state = SolverState::new();
        let p = sweep_problem(4.0, 1.0);
        let cold = p.solve_from(&mut state).unwrap();
        assert!(!state.last_report().warm);
        let warm = p.solve_from(&mut state).unwrap();
        assert!(state.last_report().warm);
        assert!((cold.objective() - warm.objective()).abs() < 1e-9);
        assert_eq!(cold.values(), warm.values(), "same basis replayed, same vertex");
    }

    #[test]
    fn rhs_change_re_enters_via_dual_simplex() {
        let mut state = SolverState::new();
        sweep_problem(4.0, 1.0).solve_from(&mut state).unwrap();
        // Growing b breaks primal feasibility of the old basis but keeps
        // dual feasibility (objective unchanged).
        for b in [5.0, 7.5, 11.0] {
            let p = sweep_problem(b, 1.0);
            let warm = p.solve_from(&mut state).unwrap();
            assert!(state.last_report().warm, "b={b} should warm-start");
            let cold = p.solve().unwrap();
            assert!(
                (warm.objective() - cold.objective()).abs() < 1e-9,
                "b={b}: warm {} vs cold {}",
                warm.objective(),
                cold.objective()
            );
        }
    }

    #[test]
    fn objective_change_re_enters_via_primal() {
        let mut state = SolverState::new();
        sweep_problem(4.0, 1.0).solve_from(&mut state).unwrap();
        let p = sweep_problem(4.0, 0.5);
        let warm = p.solve_from(&mut state).unwrap();
        assert!(state.last_report().warm);
        let cold = p.solve().unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
    }

    #[test]
    fn shape_mismatch_falls_back_to_cold() {
        let mut state = SolverState::new();
        sweep_problem(4.0, 1.0).solve_from(&mut state).unwrap();
        let mut p = Problem::minimize(3);
        p.set_objective(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Ge, 6.0);
        let s = p.solve_from(&mut state).unwrap();
        assert!(!state.last_report().warm, "different shape must solve cold");
        assert!((s.objective() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_after_warm_history_is_still_detected() {
        let mut state = SolverState::new();
        let mut feasible = Problem::minimize(1);
        feasible.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 1.0);
        feasible.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 0.5);
        feasible.solve_from(&mut state).unwrap();
        let mut infeasible = Problem::minimize(1);
        infeasible.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 1.0);
        infeasible.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(infeasible.solve_from(&mut state), Err(SolveError::Infeasible));
    }

    #[test]
    fn unbounded_after_warm_history_is_still_detected() {
        let mut state = SolverState::new();
        let mut bounded = Problem::minimize(1);
        bounded.set_objective(&[(0, 1.0)]);
        bounded.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 1.0);
        bounded.solve_from(&mut state).unwrap();
        bounded.solve_from(&mut state).unwrap();
        let mut unbounded = Problem::minimize(1);
        unbounded.set_objective(&[(0, -1.0)]);
        unbounded.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 1.0);
        assert!(state.last_report().warm, "precondition: previous solve was warm");
        assert_eq!(unbounded.solve_from(&mut state), Err(SolveError::Unbounded));
        // The report describes the failed attempt, not the previous solve.
        assert!(!state.last_report().warm);
        assert_eq!(state.last_report().iterations_saved, 0);
    }

    #[test]
    fn clear_warm_forces_a_cold_solve() {
        let mut state = SolverState::new();
        let p = sweep_problem(4.0, 1.0);
        p.solve_from(&mut state).unwrap();
        assert!(state.has_basis_for(&p));
        state.clear_warm();
        assert!(!state.has_basis_for(&p));
        p.solve_from(&mut state).unwrap();
        assert!(!state.last_report().warm);
    }

    #[test]
    fn exported_snapshot_seeds_a_detached_state() {
        let mut donor = SolverState::new();
        let p = sweep_problem(4.0, 1.0);
        p.solve_from(&mut donor).unwrap();
        let snapshot = donor.export_basis().expect("solved state exports a basis");
        drop(donor);
        let mut fresh = SolverState::new();
        assert!(!fresh.has_basis_for(&p));
        fresh.import_basis(&snapshot);
        assert!(fresh.has_basis_for(&p));
        let warm = p.solve_from(&mut fresh).unwrap();
        assert!(fresh.last_report().warm);
        // Re-solving the donor's exact problem replays its optimal basis:
        // zero pivots, and the saved-iterations estimate carries over.
        assert_eq!(fresh.last_report().iterations, 0);
        assert!(fresh.last_report().iterations_saved > 0);
        assert_eq!(warm.values(), p.solve().unwrap().values());
    }

    #[test]
    fn unsolved_state_exports_nothing() {
        let state = SolverState::new();
        assert!(state.export_basis().is_none());
        let mut cleared = SolverState::new();
        sweep_problem(4.0, 1.0).solve_from(&mut cleared).unwrap();
        cleared.clear_warm();
        assert!(cleared.export_basis().is_none());
    }

    #[test]
    fn adopted_basis_warm_starts_a_sibling_state() {
        let mut a = SolverState::new();
        let p = sweep_problem(4.0, 1.0);
        p.solve_from(&mut a).unwrap();
        let mut b = SolverState::new();
        assert!(!b.has_basis_for(&p));
        b.adopt_basis_from(&a);
        assert!(b.has_basis_for(&p));
        let q = sweep_problem(6.0, 1.0);
        let warm = q.solve_from(&mut b).unwrap();
        assert!(b.last_report().warm);
        assert!((warm.objective() - q.solve().unwrap().objective()).abs() < 1e-9);
    }

    #[test]
    fn warm_solves_report_replay_and_saved_iterations() {
        let mut state = SolverState::new();
        let p = sweep_problem(4.0, 1.0);
        p.solve_from(&mut state).unwrap();
        let cold_iters = state.last_report().iterations;
        assert!(cold_iters > 0);
        p.solve_from(&mut state).unwrap();
        let r = state.last_report();
        assert!(r.warm);
        assert!(r.replayed_pivots > 0);
        assert_eq!(r.iterations, 0, "re-solving the identical problem needs no pivots");
        assert_eq!(r.iterations_saved, cold_iters);
    }

    #[test]
    fn redundant_constraint_basis_is_not_saved() {
        // A redundant equality leaves a zero artificial basic; the state
        // must not try to replay that basis.
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (1, 1.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        p.add_constraint(&[(0, 2.0), (1, 2.0)], ConstraintOp::Eq, 4.0); // redundant
        let mut state = SolverState::new();
        let first = p.solve_from(&mut state).unwrap();
        assert!(!state.has_basis_for(&p));
        let second = p.solve_from(&mut state).unwrap();
        assert!(!state.last_report().warm);
        assert_eq!(first, second);
    }
}
