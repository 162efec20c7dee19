//! Exact switch placement for SunFloor 3D.
//!
//! SunFloor 3D computes the positions of the NoC switches by minimizing
//! bandwidth-weighted Manhattan wire length (paper §VII, equations
//! (2)–(5)). The original tool stated this as a linear program and handed
//! it to `lp_solve`. The LP has no constraint except the linearization of
//! `|a − b|`, so per axis it is the rectilinear multi-facility location
//! problem, and this crate solves it exactly and directly:
//!
//! * [`PlacementProblem`] collects the attractions — each switch to its
//!   cores' pins, and switch to switch — and solves the x and y axes
//!   separately.
//! * Each axis is solved by nested minimum s–t cuts, one per threshold
//!   between consecutive candidate coordinates, with divide and conquer
//!   over the thresholds and Dinic's max flow ([`PlacementWorkspace`]).
//!   The workspace holds every buffer a solve needs, so one workspace
//!   serves all of a worker's placements without allocating.
//! * Optima are rarely unique. The solve takes each switch's estimated
//!   position and returns the optimal placement L1-nearest to the
//!   estimates, with remaining ties going to the larger coordinate.
//!
//! # Example
//!
//! ```
//! use sunfloor_lp::PlacementProblem;
//!
//! // Two switches between two cores, linked to each other.
//! let mut p = PlacementProblem::new(2);
//! p.attract_to_fixed(0, (0.0, 0.0), 2.0);
//! p.attract_to_fixed(1, (8.0, 2.0), 2.0);
//! p.attract_pair(0, 1, 1.0);
//! let pos = p.solve(&[(1.0, 0.0), (7.0, 2.0)]);
//! // Each switch sits on its heavier core; the link pays the distance.
//! assert_eq!(pos, vec![(0.0, 0.0), (8.0, 2.0)]);
//! assert_eq!(p.objective(&pos), 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cut;
mod manhattan;

use std::error::Error;
use std::fmt;

pub use cut::PlacementWorkspace;
pub use manhattan::PlacementProblem;

/// Why a linear program could not be solved.
///
/// No placement fails any more: the cut solver is exact and total. The type
/// survives only because `sunfloor_core`'s `PlacementSolver::place` still
/// returns it to the benchmark's replay; delete it with the benchmark
/// change that removes `perfbench/src/replay.rs`.
#[doc(hidden)]
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
