//! The pivot-selection loops: primal simplex (Dantzig pricing with a Bland
//! anti-cycling fallback, exactly the historical pivot sequence) and the
//! dual simplex used to re-enter from a dual-feasible warm basis whose
//! primal feasibility was lost to a right-hand-side change — the classic
//! sensitivity-analysis re-entry.

use super::tableau::Tableau;
use super::{SolveError, EPS};

/// Reusable pricing scratch: the objective vector of the current phase and
/// the `z_j` accumulators.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pricing {
    pub(crate) cost: Vec<f64>,
    pub(crate) z: Vec<f64>,
}

impl Pricing {
    pub(crate) fn reset(&mut self, n_total: usize) {
        self.cost.clear();
        self.cost.resize(n_total, 0.0);
        self.z.clear();
        self.z.resize(n_total, 0.0);
    }
}

fn max_iterations(tab: &Tableau) -> u32 {
    u32::try_from(200 + 50 * (tab.rows() + tab.n_total)).unwrap_or(u32::MAX)
}

/// Accumulates `z_j = Σ_i cost[basis[i]] · a[i][j]` for `j < col_limit`,
/// row by row over the stored entries, so each `z_j` sums in ascending
/// row order exactly as a per-column dot product would (bit-identical: an
/// unstored zero adds nothing). Rows whose basic cost is exactly zero
/// contribute exactly nothing and are skipped.
// sf: hot-path
pub(crate) fn price(tab: &Tableau, cost: &[f64], col_limit: usize, z: &mut [f64]) {
    let m = tab.rows();
    for v in z[..col_limit].iter_mut() {
        *v = 0.0;
    }
    for i in 0..m {
        let yi = cost[tab.basis.rows[i]];
        if yi == 0.0 {
            continue;
        }
        for &(j, aij) in tab.row_entries(i) {
            if j >= col_limit {
                break;
            }
            z[j] += yi * aij;
        }
    }
}

// sf: hot-path
fn objective_value(tab: &Tableau, cost: &[f64]) -> f64 {
    let mut obj = 0.0;
    for i in 0..tab.rows() {
        obj += cost[tab.basis.rows[i]] * tab.rhs(i);
    }
    obj
}

/// Runs primal simplex minimizing `cost` over columns `0..col_limit`,
/// counting pivots into `iterations`. Returns the optimal objective value.
///
/// The pivot sequence is bit-identical to the pre-split single-file
/// implementation: Dantzig pricing (most negative reduced cost) with
/// Bland's smallest-index rule after half the iteration budget, and a
/// Bland smallest-basis-index tie-break in the ratio test.
// sf: hot-path
pub(crate) fn primal(
    tab: &mut Tableau,
    cost: &[f64],
    col_limit: usize,
    z: &mut [f64],
    iterations: &mut u32,
) -> Result<f64, SolveError> {
    let max_iter = max_iterations(tab);
    for iter in 0..max_iter {
        price(tab, cost, col_limit, z);

        let mut entering = None;
        let mut best = -EPS;
        let use_bland = iter > max_iter / 2;
        #[allow(clippy::needless_range_loop)] // j indexes three arrays
        for j in 0..col_limit {
            if tab.basis.member[j] {
                continue;
            }
            let reduced = cost[j] - z[j];
            if use_bland {
                if reduced < -EPS {
                    entering = Some(j);
                    break;
                }
            } else if reduced < best {
                best = reduced;
                entering = Some(j);
            }
        }
        let Some(j) = entering else {
            // Optimal.
            return Ok(objective_value(tab, cost));
        };

        // Ratio test, over the entering column's rows in ascending order.
        let mut leaving = None;
        let mut best_ratio = f64::INFINITY;
        tab.gather_column(j);
        for &(i, aij) in tab.gathered() {
            if aij > EPS {
                let ratio = tab.rhs(i) / aij;
                // Bland tie-break: smallest basis index.
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving
                            .is_some_and(|l: usize| tab.basis.rows[i] < tab.basis.rows[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(i) = leaving else {
            return Err(SolveError::Unbounded);
        };
        tab.pivot(i, j);
        *iterations += 1;
    }
    Err(SolveError::IterationLimit)
}

/// Runs dual simplex minimizing `cost` over columns `0..col_limit` from a
/// basis that is dual feasible (all reduced costs ≥ −ε) but primal
/// infeasible (some rhs < 0), counting pivots into `iterations`. Returns
/// the optimal objective value once every rhs is non-negative.
///
/// Leaving row: most negative rhs (Bland smallest-basis-index rule after
/// half the iteration budget). Entering column: the dual ratio test
/// `min (cost_j − z_j) / (−a_rj)` over `a_rj < −ε`, ties broken towards
/// the smallest column index. A row with no negative entry proves primal
/// infeasibility.
// sf: hot-path
pub(crate) fn dual(
    tab: &mut Tableau,
    cost: &[f64],
    col_limit: usize,
    z: &mut [f64],
    iterations: &mut u32,
) -> Result<f64, SolveError> {
    let m = tab.rows();
    let max_iter = max_iterations(tab);
    for iter in 0..max_iter {
        // Leaving row: most negative rhs.
        let mut leaving = None;
        let use_bland = iter > max_iter / 2;
        let mut most_negative = -EPS;
        for i in 0..m {
            let rhs = tab.rhs(i);
            if rhs < most_negative {
                leaving = Some(i);
                if use_bland {
                    break;
                }
                most_negative = rhs;
            }
        }
        let Some(r) = leaving else {
            // Primal feasible and (by invariant) dual feasible: optimal.
            return Ok(objective_value(tab, cost));
        };

        // Dual ratio test over the leaving row's negative entries.
        price(tab, cost, col_limit, z);
        let mut entering = None;
        let mut best_ratio = f64::INFINITY;
        for &(j, arj) in tab.row_entries(r) {
            if j >= col_limit {
                break;
            }
            if tab.basis.member[j] {
                continue;
            }
            if arj < -EPS {
                let ratio = (cost[j] - z[j]) / -arj;
                if ratio < best_ratio - EPS {
                    best_ratio = ratio;
                    entering = Some(j);
                }
            }
        }
        let Some(j) = entering else {
            // The row demands a negative basic value no column can fix.
            return Err(SolveError::Infeasible);
        };
        tab.pivot(r, j);
        *iterations += 1;
    }
    Err(SolveError::IterationLimit)
}
