//! A small, dependency-free linear-programming toolkit with warm-startable
//! solver state.
//!
//! SunFloor 3D computes the positions of the NoC switches by solving a linear
//! program that minimizes bandwidth-weighted Manhattan wire length (paper
//! §VII, equations (2)–(5)). The original tool delegated to the `lp_solve`
//! package; this crate rebuilds the needed capability:
//!
//! * [`Problem`] — a general minimization LP over non-negative variables with
//!   `≤` / `≥` / `=` constraints, solved by a **two-phase primal simplex**
//!   on a sparse tableau, with Bland's anti-cycling rule
//!   ([`Problem::solve`]).
//! * [`SolverState`] — a persistent solver state for *sequences* of related
//!   LPs: [`Problem::solve_from`] keeps the previous optimal basis across
//!   solves, re-entering phase 2 directly (or running the **dual simplex**
//!   after a right-hand-side change) whenever the saved basis fits the new
//!   problem, and falling back to the cold two-phase path when it does
//!   not. [`SolveReport`] says which path ran and how many pivots it took.
//! * [`LpWorkspace`] — the tableau and scratch buffers a solve works in.
//!   Nothing in it outlives a solve, so one workspace serves every state
//!   of a worker ([`Problem::solve_in`]).
//! * [`PlacementProblem`] — the Manhattan-distance objective builder: it
//!   linearizes every `|xi − xk|` with a distance variable pair and solves
//!   per-axis LPs (the x and y problems are separable). Repeated placements
//!   solve through a [`PlacementState`] ([`PlacementProblem::solve_with`],
//!   or [`PlacementProblem::solve_in`] with a shared workspace), which
//!   rebuilds the axis LPs from scratch and chains warm starts — the y
//!   axis seeds from the x basis (same matrix and objective), and
//!   successive placements reuse the last optimal basis.
//!
//! The LPs arising in topology synthesis have a few hundred rows and
//! columns — about 300 × 750 per axis at 128 cores — but a pivot row holds
//! only about five nonzeros, so the tableau stores only the entries that
//! can be nonzero, while keeping the pivot sequence of a dense tableau bit
//! for bit. The per-candidate cost is dominated by simplex pivots, which is
//! exactly what the warm starts cut.
//!
//! # Example
//!
//! ```
//! use sunfloor_lp::{ConstraintOp, Problem};
//!
//! // minimize x + 2y  s.t.  x + y >= 4, y <= 3, x,y >= 0
//! let mut p = Problem::minimize(2);
//! p.set_objective(&[(0, 1.0), (1, 2.0)]);
//! p.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
//! p.add_constraint(&[(1, 1.0)], ConstraintOp::Le, 3.0);
//! let s = p.solve()?;
//! assert!((s.objective() - 4.0).abs() < 1e-9); // x=4, y=0
//! # Ok::<(), sunfloor_lp::SolveError>(())
//! ```
//!
//! For the warm-started form, see the example on [`Problem::solve_from`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manhattan;
mod solver;

pub use manhattan::{PlacementProblem, PlacementSeed, PlacementState};
pub use solver::{
    BasisSnapshot, ConstraintOp, LpWorkspace, Problem, Solution, SolveError, SolveReport,
    SolverState,
};
