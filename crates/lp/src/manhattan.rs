//! Bandwidth-weighted Manhattan-distance placement objective.

use crate::cut::PlacementWorkspace;

/// Builder and solver for the switch-placement problem of paper §VII:
/// place `n` free points (switches) so that the sum of *weighted Manhattan
/// distances* to fixed points (core pins, eq. 2) and between connected free
/// points (switch-to-switch links, eq. 3) is minimal (eq. 4–5).
///
/// The x and y coordinates decouple, and each axis is solved exactly by
/// nested minimum cuts (see [`PlacementWorkspace`] for the method). The
/// optimum is rarely unique, so every solve takes each point's *estimated*
/// position and returns, among the optimal placements, the one L1-nearest
/// to the estimates; remaining ties go to the larger coordinate. A point
/// with no attraction at all therefore stays at its estimate.
///
/// One-shot callers use [`PlacementProblem::solve`]; callers that place
/// repeatedly (the synthesis engine places once per routed candidate
/// attempt) keep a [`PlacementWorkspace`] and call
/// [`PlacementProblem::solve_in`], which allocates nothing once the
/// workspace has grown to the problem's size.
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
/// let pos = p.solve(&[(5.0, 5.0)]);
/// assert_eq!(pos[0], (10.0, 4.0)); // weighted median sits on the heavy pin
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementProblem {
    free_points: usize,
    fixed: Vec<(usize, f64, f64, f64)>, // (free, x, y, weight)
    pairs: Vec<(usize, usize, f64)>,    // (free a, free b, weight)
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

    /// Solves the placement to global optimality, breaking ties towards
    /// the estimated positions `near` (see the [type docs](Self)).
    ///
    /// # Panics
    ///
    /// Panics if `near.len() != self.free_point_count()` or an estimate is
    /// not finite.
    #[must_use]
    pub fn solve(&self, near: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut positions = near.to_vec();
        self.solve_in(&mut positions, &mut PlacementWorkspace::new());
        positions
    }

    /// [`PlacementProblem::solve`] in place and in a caller-owned
    /// workspace: `positions` holds the estimates on entry and the optimal
    /// placement on return.
    ///
    /// # Panics
    ///
    /// Same as [`PlacementProblem::solve`].
    pub fn solve_in(&self, positions: &mut [(f64, f64)], workspace: &mut PlacementWorkspace) {
        assert_eq!(positions.len(), self.free_points, "estimate count mismatch");
        assert!(
            positions.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
            "estimates must be finite"
        );
        workspace.place(&self.fixed, &self.pairs, positions);
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
        let pos = p.solve(&[(0.0, 0.0)]);
        // Total weight 4.1, half = 2.05; cumulative reaches 2.05 at the
        // heavy pin => median at (10, 8).
        assert_eq!(pos[0], (10.0, 8.0));
    }

    #[test]
    fn chain_of_two_switches() {
        // core A -- s0 -- s1 -- core B, all weight 1: any placement with
        // x0 <= x1 on the segment is optimal; objective = distance A..B.
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_pair(0, 1, 1.0);
        p.attract_to_fixed(1, (6.0, 0.0), 1.0);
        let pos = p.solve(&[(2.0, 0.0), (5.0, 0.0)]);
        assert_eq!(p.objective(&pos), 6.0);
        // The estimates are optimal themselves, so nothing moves.
        assert_eq!(pos, vec![(2.0, 0.0), (5.0, 0.0)]);
        // Crossed estimates are not: the nearest optimum meets in the
        // middle, at the larger end of the tied interval [2, 5].
        let pos = p.solve(&[(5.0, 0.0), (2.0, 0.0)]);
        assert_eq!(pos, vec![(5.0, 0.0), (5.0, 0.0)]);
    }

    #[test]
    fn heavier_pair_weight_pulls_switches_together() {
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_to_fixed(1, (10.0, 0.0), 1.0);
        p.attract_pair(0, 1, 5.0);
        let pos = p.solve(&[(0.0, 0.0), (10.0, 0.0)]);
        let gap = (pos[0].0 - pos[1].0).abs() + (pos[0].1 - pos[1].1).abs();
        assert!(gap < 1e-6, "heavy link should be shrunk to zero, gap={gap}");
    }

    #[test]
    fn unattracted_point_stays_at_its_estimate() {
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (2.0, 2.0), 1.0);
        p.attract_to_fixed(0, (4.0, 6.0), 1.0);
        let pos = p.solve(&[(0.0, 0.0), (3.0, 4.0)]);
        assert_eq!(pos[1], (3.0, 4.0));
    }

    #[test]
    fn empty_problem_solves() {
        let p = PlacementProblem::new(3);
        let near = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)];
        assert_eq!(p.solve(&near), near);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_free_index() {
        let mut p = PlacementProblem::new(1);
        p.attract_to_fixed(1, (0.0, 0.0), 1.0);
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
        let near = [(1.0, 1.0), (9.0, 5.0)];
        let mut ws = PlacementWorkspace::new();
        // One workspace rebuilt for new weights and pin locations answers
        // exactly as a fresh one.
        for (w, px) in [(1.0, 0.0), (3.0, 1.0), (0.5, 5.0), (2.0, 0.5)] {
            let p = build(w, px);
            let mut reused = near;
            p.solve_in(&mut reused, &mut ws);
            assert_eq!(reused.to_vec(), p.solve(&near), "w={w} px={px}");
        }
    }

    #[test]
    fn structural_change_rebuilds_and_still_solves() {
        let mut ws = PlacementWorkspace::new();
        let mut p = PlacementProblem::new(2);
        p.attract_to_fixed(0, (0.0, 0.0), 1.0);
        p.attract_to_fixed(1, (4.0, 4.0), 1.0);
        let mut first = [(0.0, 0.0); 2];
        p.solve_in(&mut first, &mut ws);
        // A different point count, attachment pattern and an extra pair.
        let mut q = PlacementProblem::new(3);
        q.attract_to_fixed(1, (0.0, 0.0), 1.0);
        q.attract_to_fixed(0, (4.0, 4.0), 1.0);
        q.attract_pair(0, 1, 2.0);
        q.attract_pair(1, 2, 1.0);
        let near = [(1.0, 1.0), (2.0, 3.0), (4.0, 0.0)];
        let mut reused = near;
        q.solve_in(&mut reused, &mut ws);
        assert_eq!(reused.to_vec(), q.solve(&near));
    }

    /// The positions the tie rule picks on one axis, by exhaustive search
    /// over `cands`: the least objective, then the least L1 distance to
    /// `near`, then the greatest coordinates. Returns them with their
    /// objective.
    fn brute_axis(
        p: &PlacementProblem,
        near: &[f64],
        cands: &[f64],
        axis: impl Fn((f64, f64)) -> f64,
    ) -> (Vec<f64>, f64) {
        let (n, m) = (p.free_points, cands.len());
        let assign = |code: usize| -> Vec<f64> {
            (0..n).map(|i| cands[code / m.pow(i as u32) % m]).collect()
        };
        let cost = |s: &[f64]| {
            let mut c = 0.0;
            for &(i, x, y, w) in &p.fixed {
                c += w * (s[i] - axis((x, y))).abs();
            }
            for &(a, b, w) in &p.pairs {
                c += w * (s[a] - s[b]).abs();
            }
            let d: f64 = s.iter().zip(near).map(|(a, b)| (a - b).abs()).sum();
            (c, d)
        };
        let all: Vec<(Vec<f64>, (f64, f64))> =
            (0..m.pow(n as u32)).map(|code| {
                let s = assign(code);
                let c = cost(&s);
                (s, c)
            }).collect();
        let best = all.iter().map(|a| a.1 .0).fold(f64::INFINITY, f64::min);
        let tied = |c: f64| c <= best + 1e-9 * best.max(1.0);
        let nearest = all
            .iter()
            .filter(|a| tied(a.1 .0))
            .map(|a| a.1 .1)
            .fold(f64::INFINITY, f64::min);
        let optimal: Vec<&Vec<f64>> =
            all.iter().filter(|a| tied(a.1 .0) && a.1 .1 == nearest).map(|a| &a.0).collect();
        let greatest: Vec<f64> = (0..n)
            .map(|i| optimal.iter().map(|s| s[i]).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        assert!(optimal.contains(&&greatest), "the optimal set is a lattice");
        let objective = cost(&greatest).0;
        (greatest, objective)
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// The cut placement is exactly the one the tie rule picks: an
        /// exhaustive search over the pin and estimate coordinates (where
        /// this separable L1 objective and the estimate distance both
        /// attain their minima) for up to four points, with switch–switch
        /// chains, points with pairs but no pins and points with no
        /// attraction at all. Coordinates lie on a coarse grid and weights
        /// are multiples of 0.1, so ties are common and rounded sums of
        /// tied weights differ in the last bits.
        #[test]
        fn lp_matches_brute_force_over_pin_coordinates(
            free in 1usize..5,
            pinned in 0usize..5,
            pins in proptest::collection::vec((0u32..6, 0u32..6, 1u32..30, 0usize..4), 1..8),
            pairs in proptest::collection::vec((0usize..4, 0usize..4, 1u32..30), 0..6),
            near in proptest::collection::vec((0u32..8, 0u32..8), 4..5),
        ) {
            let mut p = PlacementProblem::new(free);
            // Points at or past `pinned` get no pins: with pairs they form
            // pin-less components, without them they are unattracted.
            for &(x, y, w, i) in &pins {
                if i < pinned.min(free) {
                    p.attract_to_fixed(i, (f64::from(x) * 1.5, f64::from(y) * 1.5), f64::from(w) * 0.1);
                }
            }
            for &(a, b, w) in &pairs {
                p.attract_pair(a % free, b % free, f64::from(w) * 0.1);
            }
            let near: Vec<(f64, f64)> =
                near[..free].iter().map(|&(x, y)| (f64::from(x) * 1.5, f64::from(y) * 1.5)).collect();
            let placed = p.solve(&near);
            let mut brute_objective = 0.0;
            for axis in 0..2 {
                let of = |pt: (f64, f64)| if axis == 0 { pt.0 } else { pt.1 };
                let mut cands: Vec<f64> = p.fixed.iter().map(|&(_, x, y, _)| of((x, y)))
                    .chain(near.iter().map(|&pt| of(pt))).collect();
                cands.sort_by(f64::total_cmp);
                cands.dedup();
                let axis_near: Vec<f64> = near.iter().map(|&pt| of(pt)).collect();
                let (expected, objective) = brute_axis(&p, &axis_near, &cands, of);
                let got: Vec<f64> = placed.iter().map(|&pt| of(pt)).collect();
                prop_assert_eq!(got, expected, "axis {}", axis);
                brute_objective += objective;
            }
            let objective = p.objective(&placed);
            prop_assert!((objective - brute_objective).abs() <= 1e-9 * brute_objective.max(1.0),
                "cut {} vs brute force {}", objective, brute_objective);
        }

        /// The optimum is no worse than any individual pin.
        #[test]
        fn lp_beats_naive_candidates(
            pins in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0, 0.1f64..5.0), 1..7),
            near in (0.0f64..20.0, 0.0f64..20.0),
        ) {
            let mut p = PlacementProblem::new(1);
            for &(x, y, w) in &pins {
                p.attract_to_fixed(0, (x, y), w);
            }
            let best_obj = p.objective(&p.solve(&[near]));
            for &(x, y, _) in &pins {
                prop_assert!(best_obj <= p.objective(&[(x, y)]) + 1e-6);
            }
        }
    }
}
