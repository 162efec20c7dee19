//! Bandwidth-weighted Manhattan-distance placement objective.

use crate::solver::{
    BasisSnapshot, ConstraintOp, LpWorkspace, Problem, SolveError, SolveReport, SolverState,
};

/// Builder and solver for the switch-placement problem of paper §VII:
/// place `n` free points (switches) so that the sum of *weighted Manhattan
/// distances* to fixed points (core pins, eq. 2) and between connected free
/// points (switch-to-switch links, eq. 3) is minimal (eq. 4–5).
///
/// The x and y coordinates decouple, so two independent LPs are solved, each
/// linearizing `|a − b|` with one distance variable `d ≥ a − b, d ≥ b − a`.
///
/// One-shot callers use [`PlacementProblem::solve`]; callers that place
/// repeatedly (the synthesis engine solves one placement per routed
/// candidate attempt) keep a [`PlacementState`] and call
/// [`PlacementProblem::solve_with`], which reuses the axis LP buffers and
/// warm-starts the simplex from the previous optimal basis, or
/// [`PlacementProblem::solve_in`], which also reuses one [`LpWorkspace`]
/// across all of a worker's states.
///
/// # Example
///
/// ```
/// use sunfloor_lp::PlacementProblem;
///
/// // One switch attracted to two cores; the heavier core wins.
/// let mut p = PlacementProblem::new(1);
/// p.attract_to_fixed(0, (0.0, 0.0), 1.0);
/// p.attract_to_fixed(0, (10.0, 4.0), 3.0);
/// let pos = p.solve()?;
/// assert_eq!(pos[0], (10.0, 4.0)); // weighted median sits on the heavy pin
/// # Ok::<(), sunfloor_lp::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementProblem {
    free_points: usize,
    fixed: Vec<(usize, f64, f64, f64)>, // (free, x, y, weight)
    pairs: Vec<(usize, usize, f64)>,    // (free a, free b, weight)
}

/// Reusable warm-start state for [`PlacementProblem::solve_with`]: the two
/// per-axis LPs plus a [`SolverState`] for each axis. The tableau a solve
/// works in is not part of the state: it lives in an [`LpWorkspace`].
///
/// Across solves the state retains
///
/// * the axis [`Problem`]s' buffers — [`PlacementProblem::rebuild_into`]
///   rebuilds both LPs from scratch on every solve, reusing them;
/// * the previous optimal bases — each axis re-enters the simplex from its
///   last basis when the shape still fits, and the y axis seeds from the
///   *x* basis when it has none of its own (the two axes share constraint
///   matrix and objective, so the x optimum is a dual-feasible start
///   for y).
///
/// [`PlacementState::clear_warm`] forgets the bases (the next solve is
/// cold) while keeping the axis LP buffers; the synthesis engine calls it at
/// candidate boundaries so warm chains never depend on worker scheduling.
#[derive(Debug, Clone, Default)]
pub struct PlacementState {
    x_lp: Problem,
    y_lp: Problem,
    x: SolverState,
    y: SolverState,
    reports: (SolveReport, SolveReport),
}

/// A detached pair of per-axis [`BasisSnapshot`]s exported from a solved
/// [`PlacementState`]: the portable form of "how this placement's simplex
/// ended", installable into any number of other states with
/// [`PlacementState::seed_from`] so their next shape-compatible placement
/// re-enters warm instead of solving two-phase from scratch.
#[derive(Debug, Clone)]
pub struct PlacementSeed {
    x: BasisSnapshot,
    y: BasisSnapshot,
}

impl PlacementState {
    /// A fresh state; the first placement through it solves cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Exports both axes' optimal bases as a detached [`PlacementSeed`],
    /// or `None` unless *both* axes hold a replayable basis (i.e. the
    /// state has completed at least one successful placement).
    #[must_use]
    pub fn export_seed(&self) -> Option<PlacementSeed> {
        Some(PlacementSeed { x: self.x.export_basis()?, y: self.y.export_basis()? })
    }

    /// Installs an exported seed into both axes: the next placement of a
    /// shape-compatible problem warm-starts from it (a shape mismatch
    /// falls back to the cold path as usual).
    pub fn seed_from(&mut self, seed: &PlacementSeed) {
        self.x.import_basis(&seed.x);
        self.y.import_basis(&seed.y);
    }

    /// What the most recent [`PlacementProblem::solve_with`] did, per axis:
    /// `(x report, y report)`.
    #[must_use]
    pub fn reports(&self) -> (SolveReport, SolveReport) {
        self.reports
    }

    /// Forgets both axes' saved bases: the next solve is cold.
    pub fn clear_warm(&mut self) {
        self.x.clear_warm();
        self.y.clear_warm();
    }
}

impl PlacementProblem {
    /// A placement problem over `free_points` movable points.
    #[must_use]
    pub fn new(free_points: usize) -> Self {
        Self { free_points, fixed: Vec::new(), pairs: Vec::new() }
    }

    /// Clears the problem back to `free_points` movable points with no
    /// attractions, keeping the allocations (for callers that rebuild one
    /// placement per candidate).
    pub fn reset(&mut self, free_points: usize) {
        self.free_points = free_points;
        self.fixed.clear();
        self.pairs.clear();
    }

    /// Number of movable points.
    #[must_use]
    pub fn free_point_count(&self) -> usize {
        self.free_points
    }

    /// Attracts free point `free` towards the fixed location `(x, y)` with
    /// the given weight (e.g. the core↔switch bandwidth, eq. 2/4).
    /// Non-positive weights are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `free` is out of range or the location is not finite.
    pub fn attract_to_fixed(&mut self, free: usize, location: (f64, f64), weight: f64) {
        assert!(free < self.free_points, "free point {free} out of range");
        assert!(location.0.is_finite() && location.1.is_finite(), "location must be finite");
        if weight > 0.0 {
            self.fixed.push((free, location.0, location.1, weight));
        }
    }

    /// Attracts free points `a` and `b` towards each other with the given
    /// weight (the switch↔switch bandwidth, eq. 3/4). Self-attractions and
    /// non-positive weights are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn attract_pair(&mut self, a: usize, b: usize, weight: f64) {
        assert!(a < self.free_points && b < self.free_points, "free point out of range");
        if a != b && weight > 0.0 {
            self.pairs.push((a, b, weight));
        }
    }

    /// Total weighted Manhattan objective of a candidate placement.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.free_point_count()`.
    #[must_use]
    pub fn objective(&self, positions: &[(f64, f64)]) -> f64 {
        assert_eq!(positions.len(), self.free_points, "position count mismatch");
        let mut obj = 0.0;
        for &(i, x, y, w) in &self.fixed {
            obj += w * ((positions[i].0 - x).abs() + (positions[i].1 - y).abs());
        }
        for &(a, b, w) in &self.pairs {
            obj += w
                * ((positions[a].0 - positions[b].0).abs()
                    + (positions[a].1 - positions[b].1).abs());
        }
        obj
    }

    /// Solves the placement to global optimality with the simplex LP,
    /// from scratch (equivalent to [`PlacementProblem::solve_with`] on a
    /// fresh [`PlacementState`]).
    ///
    /// Free points with no attractions at all are placed at the centroid of
    /// the fixed pins (or the origin when there are none).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the solver; with the convex objective
    /// built here that indicates numerical breakdown, not model error.
    pub fn solve(&self) -> Result<Vec<(f64, f64)>, SolveError> {
        self.solve_with(&mut PlacementState::new())
    }

    /// Solves the placement through a persistent [`PlacementState`],
    /// warm-starting each axis LP from the state's previous optimal basis
    /// where possible (see [`PlacementState`]). The returned positions are
    /// a global optimum either way; [`PlacementState::reports`] says which
    /// solves re-entered warm.
    ///
    /// # Errors
    ///
    /// Same as [`PlacementProblem::solve`].
    pub fn solve_with(
        &self,
        state: &mut PlacementState,
    ) -> Result<Vec<(f64, f64)>, SolveError> {
        self.solve_in(state, &mut LpWorkspace::new())
    }

    /// [`PlacementProblem::solve_with`] in a caller-owned [`LpWorkspace`]:
    /// the same positions and reports, with the tableau buffers reused
    /// across calls and across states.
    ///
    /// # Errors
    ///
    /// Same as [`PlacementProblem::solve`].
    pub fn solve_in(
        &self,
        state: &mut PlacementState,
        workspace: &mut LpWorkspace,
    ) -> Result<Vec<(f64, f64)>, SolveError> {
        self.rebuild_into(state);
        let xs = state.x_lp.solve_in(&mut state.x, workspace)?;
        state.reports.0 = state.x.last_report();
        // The axes share matrix and objective, so the x optimum is a
        // dual-feasible basis for y; adopt it when y has nothing better.
        if !state.y.has_basis_for(&state.y_lp) {
            state.y.adopt_basis_from(&state.x);
        }
        let ys = state.y_lp.solve_in(&mut state.y, workspace)?;
        state.reports.1 = state.y.last_report();
        let mut out: Vec<(f64, f64)> =
            (0..self.free_points).map(|i| (xs.value(i), ys.value(i))).collect();
        self.settle_unattracted(&mut out);
        Ok(out)
    }

    /// Builds the two per-axis LPs inside `state` from scratch, reusing
    /// the state's buffers.
    pub fn rebuild_into(&self, state: &mut PlacementState) {
        let n = self.free_points;
        let n_dist = self.fixed.len() + self.pairs.len();
        for axis in 0..2 {
            let lp = if axis == 0 { &mut state.x_lp } else { &mut state.y_lp };
            // Variables: [0..n) = coordinates, [n..n+n_dist) = distances.
            lp.reset(n + n_dist);
            let mut d = n;
            for &(i, x, y, w) in &self.fixed {
                let c = if axis == 0 { x } else { y };
                // d >= s_i - c   =>  s_i - d <= c
                lp.add_constraint(&[(i, 1.0), (d, -1.0)], ConstraintOp::Le, c);
                // d >= c - s_i   =>  -s_i - d <= -c
                lp.add_constraint(&[(i, -1.0), (d, -1.0)], ConstraintOp::Le, -c);
                lp.set_objective_coefficient(d, w);
                d += 1;
            }
            for &(a, b, w) in &self.pairs {
                lp.add_constraint(&[(a, 1.0), (b, -1.0), (d, -1.0)], ConstraintOp::Le, 0.0);
                lp.add_constraint(&[(b, 1.0), (a, -1.0), (d, -1.0)], ConstraintOp::Le, 0.0);
                lp.set_objective_coefficient(d, w);
                d += 1;
            }
        }
    }

    /// Places points with no attractions at the centroid of the fixed pins.
    fn settle_unattracted(&self, pos: &mut [(f64, f64)]) {
        let mut attracted = vec![false; self.free_points];
        for &(i, ..) in &self.fixed {
            attracted[i] = true;
        }
        for &(a, b, _) in &self.pairs {
            attracted[a] = true;
            attracted[b] = true;
        }
        if attracted.iter().all(|&a| a) {
            return;
        }
        let (mut cx, mut cy, mut k) = (0.0, 0.0, 0.0);
        for &(_, x, y, _) in &self.fixed {
            cx += x;
            cy += y;
            k += 1.0;
        }
        let centroid = if k > 0.0 { (cx / k, cy / k) } else { (0.0, 0.0) };
        for (i, p) in pos.iter_mut().enumerate() {
            if !attracted[i] {
                *p = centroid;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_point_lands_on_weighted_median() {
        let mut p = PlacementProblem::new(1);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_to_fixed(0, (4.0, 0.0), 1.0);
        p.attract_to_fixed(0, (10.0, 8.0), 2.1);
        let pos = p.solve().unwrap();
        // Total weight 4.1, half = 2.05; cumulative reaches 2.05 at the
        // heavy pin => median at (10, 8).
        assert!((pos[0].0 - 10.0).abs() < 1e-6);
        assert!((pos[0].1 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn chain_of_two_switches() {
        // core A -- s0 -- s1 -- core B, all weight 1: any placement with
        // x0 <= x1 on the segment is optimal; objective = distance A..B.
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_pair(0, 1, 1.0);
        p.attract_to_fixed(1, (6.0, 0.0), 1.0);
        let pos = p.solve().unwrap();
        assert!((p.objective(&pos) - 6.0).abs() < 1e-6, "objective {}", p.objective(&pos));
    }

    #[test]
    fn heavier_pair_weight_pulls_switches_together() {
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_to_fixed(1, (10.0, 0.0), 1.0);
        p.attract_pair(0, 1, 5.0);
        let pos = p.solve().unwrap();
        let gap = (pos[0].0 - pos[1].0).abs() + (pos[0].1 - pos[1].1).abs();
        assert!(gap < 1e-6, "heavy link should be shrunk to zero, gap={gap}");
    }

    #[test]
    fn unattracted_point_sits_at_centroid() {
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (2.0, 2.0), 1.0);
        p.attract_to_fixed(0, (4.0, 6.0), 1.0);
        let pos = p.solve().unwrap();
        assert_eq!(pos[1], (3.0, 4.0));
    }

    #[test]
    fn empty_problem_solves() {
        let p = PlacementProblem::new(3);
        let pos = p.solve().unwrap();
        assert_eq!(pos, vec![(0.0, 0.0); 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_free_index() {
        let mut p = PlacementProblem::new(1);
        p.attract_to_fixed(1, (0.0, 0.0), 1.0);
    }

    #[test]
    fn warm_resolve_matches_cold_objective() {
        let mut p = PlacementProblem::new(3);
        p.attract_to_fixed(0, (0.0, 1.0), 2.0);
        p.attract_to_fixed(1, (8.0, 3.0), 1.0);
        p.attract_to_fixed(2, (4.0, 9.0), 1.5);
        p.attract_pair(0, 1, 0.5);
        p.attract_pair(1, 2, 0.25);
        let mut state = PlacementState::new();
        let first = p.solve_with(&mut state).unwrap();
        // Second solve of the identical problem: both axes warm, and the
        // returned vertex is pinned to the first solve's.
        let second = p.solve_with(&mut state).unwrap();
        let (rx, ry) = state.reports();
        assert!(rx.warm && ry.warm);
        assert_eq!(first, second);
        assert!((p.objective(&first) - p.objective(&p.solve().unwrap())).abs() < 1e-9);
    }

    #[test]
    fn exported_seed_warms_a_fresh_state_to_the_same_vertex() {
        let mut p = PlacementProblem::new(3);
        p.attract_to_fixed(0, (0.0, 1.0), 2.0);
        p.attract_to_fixed(1, (8.0, 3.0), 1.0);
        p.attract_to_fixed(2, (4.0, 9.0), 1.5);
        p.attract_pair(0, 1, 0.5);
        p.attract_pair(1, 2, 0.25);
        let mut donor = PlacementState::new();
        assert!(donor.export_seed().is_none(), "unsolved state has no seed");
        let cold = p.solve_with(&mut donor).unwrap();
        let seed = donor.export_seed().expect("solved state exports a seed");
        // A freshly seeded state re-solves the same problem warm on both
        // axes and lands on the exact same vertex.
        let mut seeded = PlacementState::new();
        seeded.seed_from(&seed);
        let warm = p.solve_with(&mut seeded).unwrap();
        let (rx, ry) = seeded.reports();
        assert!(rx.warm && ry.warm, "both axes must re-enter warm from the seed");
        assert_eq!(cold, warm);
    }

    #[test]
    fn rebuild_in_place_tracks_weight_and_pin_changes() {
        let build = |w: f64, px: f64| {
            let mut p = PlacementProblem::new(2);
            p.attract_to_fixed(0, (px, 2.0), w);
            p.attract_to_fixed(1, (10.0, 6.0), 1.0);
            p.attract_pair(0, 1, 0.75);
            p
        };
        let mut state = PlacementState::new();
        build(1.0, 0.0).solve_with(&mut state).unwrap();
        // Same structure, new weight + pin location: rebuilt, solved warm,
        // optimum matches a cold solve.
        for (w, px) in [(3.0, 1.0), (0.5, 5.0), (2.0, 0.5)] {
            let p = build(w, px);
            let warm = p.solve_with(&mut state).unwrap();
            let cold = p.solve().unwrap();
            assert!(
                (p.objective(&warm) - p.objective(&cold)).abs() < 1e-9,
                "w={w} px={px}: warm {} vs cold {}",
                p.objective(&warm),
                p.objective(&cold)
            );
        }
    }

    #[test]
    fn structural_change_rebuilds_and_still_solves() {
        let mut state = PlacementState::new();
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_to_fixed(1, (4.0, 4.0), 1.0);
        p.solve_with(&mut state).unwrap();
        // Different attachment pattern and an extra pair: full rebuild.
        let mut q = PlacementProblem::new(2);
        q.attract_to_fixed(1, (0.0, 0.0), 1.0);
        q.attract_to_fixed(0, (4.0, 4.0), 1.0);
        q.attract_pair(0, 1, 2.0);
        let warm = q.solve_with(&mut state).unwrap();
        let cold = q.solve().unwrap();
        assert!((q.objective(&warm) - q.objective(&cold)).abs() < 1e-9);
    }

    proptest! {
        /// The LP optimum is global: it matches the best placement whose
        /// coordinates all sit on pin coordinates, where this separable L1
        /// objective always attains its minimum (searched per axis).
        #[test]
        fn lp_matches_brute_force_over_pin_coordinates(
            pins in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0, 0.1f64..5.0), 2..8),
            pairs in proptest::collection::vec((0usize..3, 0usize..3, 0.1f64..5.0), 0..4),
        ) {
            let mut p = PlacementProblem::new(3);
            for (k, &(x, y, w)) in pins.iter().enumerate() {
                p.attract_to_fixed(k % 3, (x, y), w);
            }
            for &(a, b, w) in &pairs {
                p.attract_pair(a, b, w);
            }
            let lp = p.solve().unwrap();
            let mut brute = 0.0;
            for axis in 0..2 {
                let coord = |pt: (f64, f64)| if axis == 0 { pt.0 } else { pt.1 };
                let cands: Vec<f64> = pins.iter().map(|&(x, y, _)| coord((x, y))).collect();
                let m = cands.len();
                let mut best = f64::INFINITY;
                for code in 0..m * m * m {
                    let s = [cands[code % m], cands[code / m % m], cands[code / (m * m)]];
                    let mut cost = 0.0;
                    for &(i, x, y, w) in &p.fixed {
                        cost += w * (s[i] - coord((x, y))).abs();
                    }
                    for &(a, b, w) in &p.pairs {
                        cost += w * (s[a] - s[b]).abs();
                    }
                    best = f64::min(best, cost);
                }
                brute += best;
            }
            prop_assert!((p.objective(&lp) - brute).abs() < 1e-6,
                "LP {} vs brute force {}", p.objective(&lp), brute);
        }

        /// LP optimum is no worse than pins' centroid or any individual pin.
        #[test]
        fn lp_beats_naive_candidates(
            pins in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0, 0.1f64..5.0), 1..7),
        ) {
            let mut p = PlacementProblem::new(1);
            for &(x, y, w) in &pins {
                p.attract_to_fixed(0, (x, y), w);
            }
            let lp = p.solve().unwrap();
            let best_obj = p.objective(&lp);
            for &(x, y, _) in &pins {
                prop_assert!(best_obj <= p.objective(&[(x, y)]) + 1e-6);
            }
        }
    }
}
