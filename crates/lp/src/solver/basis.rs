//! Basis bookkeeping: the per-row basic variable, the O(1) membership
//! bitmap the pricing loops skip on, and the [`SavedBasis`] snapshot a
//! [`super::SolverState`] replays to warm-start the next solve.

use super::tableau::Tableau;
use super::{ConstraintOp, Problem};

/// Pivot elements smaller than this abort a basis replay: the saved basis
/// is (numerically) singular for the new constraint matrix, so the solve
/// falls back to the cold two-phase path instead of dividing by noise.
const REPLAY_PIVOT_TOL: f64 = 1e-7;

/// The current basis of a tableau: `rows[i]` is the variable basic in row
/// `i`, `member[v]` mirrors membership so pricing skips basic columns in
/// O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct Basis {
    pub(crate) rows: Vec<usize>,
    pub(crate) member: Vec<bool>,
}

impl Basis {
    /// Clears to an empty basis over `rows` rows and `cols` columns.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows.clear();
        self.rows.resize(rows, 0);
        self.member.clear();
        self.member.resize(cols, false);
    }

    /// Installs the initial basic variable of a row during tableau build.
    pub(crate) fn install(&mut self, row: usize, var: usize) {
        self.rows[row] = var;
        self.member[var] = true;
    }

    /// Swaps the basic variable of `row` to `var` (pivot bookkeeping).
    pub(crate) fn replace(&mut self, row: usize, var: usize) {
        self.member[self.rows[row]] = false;
        self.member[var] = true;
        self.rows[row] = var;
    }

    /// Whether any artificial variable (column ≥ `art_start`) is basic.
    pub(crate) fn contains_artificial(&self, art_start: usize) -> bool {
        self.rows.iter().any(|&b| b >= art_start)
    }
}

/// A basis snapshot from a solved problem together with the shape it
/// belongs to: variable count and the per-row constraint operators (which
/// fix the tableau's column layout). A snapshot only replays into problems
/// of the same shape; the constraint *coefficients* are allowed to differ —
/// replay re-derives the tableau and checks feasibility, falling back to a
/// cold solve when the old basis no longer fits.
#[derive(Debug, Clone, Default)]
pub(crate) struct SavedBasis {
    num_vars: usize,
    ops: Vec<ConstraintOp>,
    rows: Vec<usize>,
    valid: bool,
}

impl SavedBasis {
    /// Forgets the snapshot (keeps the buffers).
    pub(crate) fn clear(&mut self) {
        self.valid = false;
    }

    /// Whether the snapshot currently holds a replayable basis.
    pub(crate) fn is_valid(&self) -> bool {
        self.valid
    }

    /// Whether the snapshot's shape matches `p`, i.e. replay is
    /// structurally possible.
    pub(crate) fn matches(&self, p: &Problem) -> bool {
        self.valid
            && self.num_vars == p.num_vars()
            && self.ops.len() == p.constraint_rows().len()
            && p.constraint_rows().iter().zip(&self.ops).all(|(r, &op)| r.op == op)
    }

    /// Snapshots the basis of a finished solve of `p`.
    pub(crate) fn capture(&mut self, p: &Problem, basis_rows: &[usize]) {
        self.num_vars = p.num_vars();
        self.ops.clear();
        self.ops.extend(p.constraint_rows().iter().map(|r| r.op));
        self.rows.clear();
        self.rows.extend_from_slice(basis_rows);
        self.valid = true;
    }

    /// Copies another snapshot into this one (allocation-reusing).
    pub(crate) fn clone_from_other(&mut self, other: &SavedBasis) {
        self.num_vars = other.num_vars;
        self.ops.clear();
        self.ops.extend_from_slice(&other.ops);
        self.rows.clear();
        self.rows.extend_from_slice(&other.rows);
        self.valid = other.valid;
    }

    /// Replays the snapshot into a freshly rebuilt tableau: each saved
    /// basic column is pivoted in (columns processed in saved row order),
    /// choosing the pivot row by partial pivoting over the rows not yet
    /// claimed — largest magnitude, ties towards the smallest row index
    /// (the column's rows are scanned in ascending order), so
    /// the elimination is deterministic and succeeds whenever the basis
    /// matrix is (numerically) nonsingular. Replay pivots skip the pricing
    /// and ratio-test scans, so they cost a fraction of a simplex iteration
    /// each.
    ///
    /// Returns the number of replay pivots, or `None` when the basis is
    /// singular for the new matrix (caller falls back to a cold solve).
    pub(crate) fn replay(&self, tab: &mut Tableau, claimed: &mut Vec<bool>) -> Option<u32> {
        let m = tab.rows();
        debug_assert_eq!(self.rows.len(), m);
        claimed.clear();
        claimed.resize(m, false);
        let mut pivots = 0;
        for &col in &self.rows {
            let mut best_row = None;
            let mut best_mag = REPLAY_PIVOT_TOL;
            tab.gather_column(col);
            for &(i, a) in tab.gathered() {
                if claimed[i] {
                    continue;
                }
                let mag = a.abs();
                if mag > best_mag {
                    best_mag = mag;
                    best_row = Some(i);
                }
            }
            let i = best_row?;
            claimed[i] = true;
            tab.pivot(i, col);
            pivots += 1;
        }
        Some(pivots)
    }
}
