//! The simplex solver subsystem: the [`Problem`] model, the sparse tableau
//! ([`tableau`]), basis bookkeeping and warm-start snapshots ([`basis`]),
//! the primal/dual pivot loops ([`pricing`]) and the persistent
//! [`SolverState`] warm-start machinery with its shared [`LpWorkspace`]
//! ([`warm`]).
//!
//! One-shot callers use [`Problem::solve`] — a cold two-phase primal
//! simplex. Callers that solve *sequences* of related problems keep a
//! [`SolverState`] and call [`Problem::solve_from`] (or
//! [`Problem::solve_in`], which also reuses an [`LpWorkspace`]): the state
//! retains the previous optimal basis, and re-enters phase 2 (or runs the
//! dual simplex) from that basis whenever it fits the new problem, falling
//! back to the cold two-phase path when it does not.

pub(crate) mod basis;
pub(crate) mod pricing;
pub(crate) mod tableau;
pub(crate) mod warm;

pub use warm::{BasisSnapshot, LpWorkspace, SolveReport, SolverState};

use std::error::Error;
use std::fmt;

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

/// Why an LP could not be solved to optimality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint set admits no point with all variables ≥ 0.
    Infeasible,
    /// The objective can be driven to −∞ within the feasible region.
    Unbounded,
    /// The pivot-iteration safety cap was exceeded (numerical trouble).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible => write!(f, "linear program is infeasible"),
            Self::Unbounded => write!(f, "linear program is unbounded"),
            Self::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl Error for SolveError {}

/// A linear program `minimize c·x subject to A x {≤,≥,=} b, x ≥ 0`.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Problem {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) rhs: f64,
}

/// Optimal solution of a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
}

impl Solution {
    /// Optimal objective value.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of variable `var` at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    #[must_use]
    pub fn value(&self, var: usize) -> f64 {
        self.values[var]
    }

    /// All variable values, indexed by variable.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

pub(crate) const EPS: f64 = 1e-9;

impl Problem {
    /// Creates an empty minimization problem over `num_vars` non-negative
    /// variables with a zero objective.
    #[must_use]
    pub fn minimize(num_vars: usize) -> Self {
        Self { num_vars, objective: vec![0.0; num_vars], rows: Vec::new() }
    }

    /// Clears the problem back to `num_vars` fresh variables with a zero
    /// objective and no constraints, keeping the outer allocations so
    /// rebuild-heavy callers (the placement layer) do not churn memory.
    pub fn reset(&mut self, num_vars: usize) {
        self.num_vars = num_vars;
        self.objective.clear();
        self.objective.resize(num_vars, 0.0);
        self.rows.clear();
    }

    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets (overwrites) objective coefficients for the listed variables.
    ///
    /// # Panics
    ///
    /// Panics if any variable index is out of range.
    pub fn set_objective(&mut self, terms: &[(usize, f64)]) {
        for &(v, c) in terms {
            assert!(v < self.num_vars, "objective variable {v} out of range");
            self.objective[v] = c;
        }
    }

    /// Sets (overwrites) the objective coefficient of one variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coefficient(&mut self, var: usize, c: f64) {
        assert!(var < self.num_vars, "objective variable {var} out of range");
        self.objective[var] = c;
    }

    /// Adds the constraint `Σ terms {op} rhs`. Duplicate variable entries in
    /// `terms` accumulate.
    ///
    /// # Panics
    ///
    /// Panics if any variable index is out of range or any coefficient is
    /// non-finite.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], op: ConstraintOp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v < self.num_vars, "constraint variable {v} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
            if let Some(e) = dense.iter_mut().find(|(dv, _)| *dv == v) {
                e.1 += c;
            } else {
                dense.push((v, c));
            }
        }
        self.rows.push(Row { terms: dense, op, rhs });
    }

    pub(crate) fn constraint_rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn objective_coefficients(&self) -> &[f64] {
        &self.objective
    }

    /// Solves the LP with two-phase primal simplex from scratch.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`] or (on numerical
    /// breakdown) [`SolveError::IterationLimit`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        SolverState::new().solve_cold(self, &mut LpWorkspace::new())
    }

    /// Solves the LP through a persistent [`SolverState`], warm-starting
    /// from the basis of the state's previous solve when it fits this
    /// problem (see [`SolverState`] for the exact re-entry conditions) and
    /// falling back to the cold two-phase path of [`Problem::solve`]
    /// otherwise. [`SolverState::last_report`] tells which path ran.
    ///
    /// ```
    /// use sunfloor_lp::{ConstraintOp, Problem, SolverState};
    ///
    /// // minimize 2x + y  s.t.  x + y >= b  — solved for a sweep of b.
    /// let lp = |b: f64| {
    ///     let mut p = Problem::minimize(2);
    ///     p.set_objective(&[(0, 2.0), (1, 1.0)]);
    ///     p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, b);
    ///     p
    /// };
    /// let mut state = SolverState::new();
    /// let cold = lp(4.0).solve_from(&mut state)?;
    /// assert!(!state.last_report().warm);
    /// // The next solve re-enters from the previous optimal basis.
    /// let warm = lp(5.0).solve_from(&mut state)?;
    /// assert!(state.last_report().warm);
    /// assert!((cold.objective() - 4.0).abs() < 1e-9);
    /// assert!((warm.objective() - 5.0).abs() < 1e-9);
    /// # Ok::<(), sunfloor_lp::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`]; warm-start failures are not errors (the
    /// state falls back to a cold solve internally).
    pub fn solve_from(&self, state: &mut SolverState) -> Result<Solution, SolveError> {
        self.solve_in(state, &mut LpWorkspace::new())
    }

    /// [`Problem::solve_from`] in a caller-owned [`LpWorkspace`]: the same
    /// result, but repeated solves reuse the workspace's buffers instead of
    /// allocating a tableau each time. One workspace can serve many states.
    ///
    /// ```
    /// use sunfloor_lp::{ConstraintOp, LpWorkspace, Problem, SolverState};
    ///
    /// let mut p = Problem::minimize(1);
    /// p.set_objective(&[(0, 1.0)]);
    /// p.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 2.0);
    /// let mut ws = LpWorkspace::new();
    /// let (mut a, mut b) = (SolverState::new(), SolverState::new());
    /// assert_eq!(p.solve_in(&mut a, &mut ws)?, p.solve_in(&mut b, &mut ws)?);
    /// # Ok::<(), sunfloor_lp::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve_from`].
    pub fn solve_in(
        &self,
        state: &mut SolverState,
        workspace: &mut LpWorkspace,
    ) -> Result<Solution, SolveError> {
        state.solve(self, workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &Problem) -> Solution {
        p.solve().expect("LP should solve")
    }

    #[test]
    fn textbook_maximization_as_minimization() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 => opt at (2,6), obj 36.
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, -3.0), (1, -5.0)]);
        p.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], ConstraintOp::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let s = solve(&p);
        assert!((s.objective() + 36.0).abs() < 1e-7);
        assert!((s.value(0) - 2.0).abs() < 1e-7);
        assert!((s.value(1) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min 2x + 3y s.t. x + y = 10, x >= 3 => (7,3)? obj 2*7+3*3=23;
        // but (x=10,y=0) violates nothing? x+y=10, x>=3: (10,0) obj 20 < 23.
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 2.0), (1, 3.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        p.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 3.0);
        let s = solve(&p);
        assert!((s.objective() - 20.0).abs() < 1e-7);
        assert!((s.value(0) - 10.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // min x s.t. -x <= -5  (i.e. x >= 5)
        let mut p = Problem::minimize(1);
        p.set_objective(&[(0, 1.0)]);
        p.add_constraint(&[(0, -1.0)], ConstraintOp::Le, -5.0);
        let s = solve(&p);
        assert!((s.value(0) - 5.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize(1);
        p.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(p.solve(), Err(SolveError::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::minimize(1);
        p.set_objective(&[(0, -1.0)]);
        p.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 1.0);
        assert_eq!(p.solve(), Err(SolveError::Unbounded));
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut p = Problem::minimize(2);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 4.0);
        let s = solve(&p);
        assert!((s.value(0) + s.value(1) - 4.0).abs() < 1e-7);
        assert_eq!(s.objective(), 0.0);
    }

    #[test]
    fn redundant_constraints_are_harmless() {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (1, 1.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 2.0);
        p.add_constraint(&[(0, 2.0), (1, 2.0)], ConstraintOp::Ge, 4.0); // same halfspace
        p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        let s = solve(&p);
        assert!((s.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut p = Problem::minimize(1);
        p.set_objective(&[(0, 1.0)]);
        // 0.5x + 0.5x >= 3  =>  x >= 3
        p.add_constraint(&[(0, 0.5), (0, 0.5)], ConstraintOp::Ge, 3.0);
        let s = solve(&p);
        assert!((s.value(0) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex: multiple constraints through origin.
        let mut p = Problem::minimize(3);
        p.set_objective(&[(0, -0.75), (1, 150.0), (2, -0.02)]);
        p.add_constraint(&[(0, 0.25), (1, -60.0), (2, -0.04)], ConstraintOp::Le, 0.0);
        p.add_constraint(&[(0, 0.5), (1, -90.0), (2, -0.02)], ConstraintOp::Le, 0.0);
        p.add_constraint(&[(2, 1.0)], ConstraintOp::Le, 1.0);
        let s = solve(&p);
        // Known optimum of this Beale-style instance: objective -0.05.
        assert!(s.objective() <= -0.049, "got {}", s.objective());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_variable() {
        let mut p = Problem::minimize(1);
        p.add_constraint(&[(1, 1.0)], ConstraintOp::Le, 1.0);
    }

    #[test]
    fn reset_clears_objective_and_constraints() {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 5.0)]);
        p.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 3.0);
        p.reset(3);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_constraints(), 0);
        assert!(p.objective_coefficients().iter().all(|&c| c == 0.0));
    }
}
