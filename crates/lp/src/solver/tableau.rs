//! Sparse simplex tableau in standard form.
//!
//! The switch-placement LPs are very sparse: a pivot row holds about five
//! nonzeros out of several hundred columns, and a pivot touches about a
//! dozen rows. The tableau therefore stores only entries that can be
//! nonzero:
//!
//! * each row is a list of `(column, value)` entries sorted by column,
//!   holding no exact zeros;
//! * each column keeps the rows that hold an entry in it, sorted by row.
//!   The list may hold *stale* rows whose entry has since cancelled to
//!   zero; scans prune them;
//! * the right-hand side is a dense vector.
//!
//! The column indexing is the standard-form one — structural columns, then
//! one slack or surplus per inequality, then one artificial per row from
//! [`Tableau::art_start`] on — even where a column stores nothing, so the
//! iteration cap, the point where Bland's rule takes over and every
//! tie-break see the same column numbers as a dense tableau would.
//!
//! # Same pivots as a dense tableau
//!
//! Every float operation on a stored entry is the one a dense row-major
//! tableau performs on that cell, in the same order:
//!
//! * a built entry is `s * c`, for the row's sign `s` and the term's
//!   coefficient `c`, which `Problem::add_constraint` has already summed
//!   over duplicate terms; the dense build's `0.0 + s * c` is that value;
//! * the pivot row is scaled with `x *= inv`;
//! * an eliminated row updates `x -= f * pv`, and a cell that was zero
//!   becomes `0.0 - f * pv`; rows whose factor has `|f| ≤ 1e-12` are
//!   skipped;
//! * pricing sums each `z_j` in ascending row order;
//! * the ratio test and the basis replay scan a column in ascending row
//!   order; the dual entering scan and the phase-1 drive-out scan a row in
//!   ascending column order.
//!
//! An entry the dense tableau holds as `±0.0` is left unstored, which can
//! only change the *sign of a zero*, never a value or a comparison:
//!
//! * a zero scaled by `inv` stays zero, and `x - f * (±0.0)` is `x` for
//!   every nonzero `x`, so an unstored pivot-row entry leaves every target
//!   row as the dense update leaves it;
//! * `(±0.0) - f * pv` equals `0.0 - f * pv` whenever the product is
//!   nonzero, and is zero (unstored) otherwise;
//! * an update that cancels to exactly zero, or a scale that underflows
//!   to zero, removes the entry, where the dense cell holds `±0.0`;
//! * every comparison the solver makes on a cell — `|f| ≤ 1e-12`,
//!   `a > ε`, `a < −ε`, `|a| > 1e-7`, the replay's magnitude test — is
//!   false for both `+0.0` and `−0.0`, so a skipped zero is never chosen;
//! * pricing starts each `z_j` at `+0.0`, and adding a `±0.0` product to
//!   it leaves it unchanged bit for bit;
//! * the right-hand side is dense, and its updates read only the pivot
//!   column's factors, which are nonzero and therefore identical.
//!
//! So the nonzero entries, the right-hand side, the pivot sequence and
//! every extracted value are bit-for-bit those of the dense tableau. The
//! tests below replay random pivot sequences against a dense reference.
//!
//! A [`Tableau`] is a reusable buffer owned by an
//! [`LpWorkspace`](super::LpWorkspace): [`Tableau::rebuild`] refills it
//! for each solve, reusing every row, column and scratch allocation.

use super::basis::Basis;
use super::{ConstraintOp, Problem};
use std::cmp::Ordering;
use std::mem;

/// Rows whose pivot-column factor is at most this large are not
/// eliminated.
const ELIMINATION_TOL: f64 = 1e-12;

#[derive(Debug, Clone, Default)]
pub(crate) struct Tableau {
    /// Row `i`'s stored entries, sorted by column; only the first
    /// [`Tableau::rows`] lists are in use (the rest keep their capacity).
    entries: Vec<Vec<(usize, f64)>>,
    /// Column `j`'s rows, sorted, possibly with stale rows; only the first
    /// `n_total` lists are in use.
    cols: Vec<Vec<usize>>,
    /// Dense right-hand side.
    rhs: Vec<f64>,
    /// Current basis (per-row basic variable + membership bitmap).
    pub(crate) basis: Basis,
    /// Total column count excluding rhs: structural + slack + artificial.
    pub(crate) n_total: usize,
    /// First artificial column index.
    pub(crate) art_start: usize,
    /// Pivot scratch: a copy of the scaled pivot row.
    prow: Vec<(usize, f64)>,
    /// Pivot scratch: a row being merged with the pivot row.
    merged: Vec<(usize, f64)>,
    /// Pivot scratch: `fill[k]` lists, in ascending order, the rows that
    /// gained an entry in the column of the pivot row's `k`-th entry.
    fill: Vec<Vec<usize>>,
    /// Pivot scratch: a column list being merged with its fill-in rows.
    col_merge: Vec<usize>,
    /// Column-scan output: `(row, value)` of one column's entries.
    gathered: Vec<(usize, f64)>,
}

/// The value stored at column `j` of a sorted row, if any.
fn find(row: &[(usize, f64)], j: usize) -> Option<f64> {
    row.binary_search_by_key(&j, |e| e.0).ok().map(|k| row[k].1)
}

impl Tableau {
    /// Rebuilds the tableau for `p`, reusing every buffer. Rows are
    /// normalized to a non-negative rhs; `≤` rows whose slack can serve as
    /// the initial basis start basic, all other rows start on their
    /// artificial.
    pub(crate) fn rebuild(&mut self, p: &Problem) {
        let rows = p.constraint_rows();
        let m = rows.len();
        let n = p.num_vars();

        let n_slack =
            rows.iter().filter(|r| matches!(r.op, ConstraintOp::Le | ConstraintOp::Ge)).count();
        // One artificial per row keeps the construction simple; phase 1
        // drives them all out.
        let art_start = n + n_slack;
        let n_total = art_start + m;
        self.n_total = n_total;
        self.art_start = art_start;

        if self.entries.len() < m {
            self.entries.resize_with(m, Vec::new);
        }
        if self.cols.len() < n_total {
            self.cols.resize_with(n_total, Vec::new);
        }
        // A pivot row holds at most one entry per column.
        if self.fill.len() < n_total {
            self.fill.resize_with(n_total, Vec::new);
        }
        for col in &mut self.cols[..n_total] {
            col.clear();
        }
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
        self.basis.reset(m, n_total);

        let mut slack_idx = n;
        for (i, r) in rows.iter().enumerate() {
            let row = &mut self.entries[i];
            row.clear();
            let mut rhs = r.rhs;
            let mut sign = 1.0;
            // Normalize to rhs >= 0.
            if rhs < 0.0 {
                rhs = -rhs;
                sign = -1.0;
            }
            // `add_constraint` has merged duplicate terms, so each column
            // appears once.
            row.extend(r.terms.iter().map(|&(v, c)| (v, sign * c)).filter(|e| e.1 != 0.0));
            row.sort_unstable_by_key(|e| e.0);

            let op = match (r.op, sign < 0.0) {
                (ConstraintOp::Le, true) => ConstraintOp::Ge,
                (ConstraintOp::Ge, true) => ConstraintOp::Le,
                (op, _) => op,
            };
            match op {
                ConstraintOp::Le => {
                    row.push((slack_idx, 1.0));
                    // Slack can serve as the initial basis directly.
                    self.basis.install(i, slack_idx);
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    row.push((slack_idx, -1.0)); // surplus
                    slack_idx += 1;
                    self.basis.install(i, art_start + i);
                    row.push((art_start + i, 1.0));
                }
                ConstraintOp::Eq => {
                    self.basis.install(i, art_start + i);
                    row.push((art_start + i, 1.0));
                }
            }
            self.rhs[i] = rhs;
            // For Le rows the artificial column stays zero and unused.
        }

        for (i, row) in self.entries[..m].iter().enumerate() {
            for &(j, _) in row {
                self.cols[j].push(i);
            }
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.basis.rows.len()
    }

    /// Row `i`'s stored entries as `(column, value)`, sorted by column.
    pub(crate) fn row_entries(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[i]
    }

    pub(crate) fn rhs(&self, i: usize) -> f64 {
        self.rhs[i]
    }

    /// Collects column `j`'s stored entries as `(row, value)` in ascending
    /// row order — read them back with [`Tableau::gathered`] — and prunes
    /// the stale rows from the column's list on the way.
    pub(crate) fn gather_column(&mut self, j: usize) {
        let Self { entries, cols, gathered, .. } = self;
        gathered.clear();
        cols[j].retain(|&i| match find(&entries[i], j) {
            Some(v) => {
                gathered.push((i, v));
                true
            }
            None => false,
        });
    }

    /// The output of the last [`Tableau::gather_column`].
    pub(crate) fn gathered(&self) -> &[(usize, f64)] {
        &self.gathered
    }

    /// Pivots on `(row, col)`: scales the pivot row so the pivot element
    /// becomes 1 and eliminates `col` from every other row, then updates
    /// the basis bookkeeping. Each cell sees exactly the dense update (see
    /// the [module docs](self)).
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let piv = find(&self.entries[row], col).unwrap_or(0.0);
        debug_assert!(piv.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        let prow_src = &mut self.entries[row];
        let mut underflow = false;
        for e in prow_src.iter_mut() {
            e.1 *= inv;
            underflow |= e.1 == 0.0;
        }
        if underflow {
            prow_src.retain(|e| e.1 != 0.0);
        }
        self.rhs[row] *= inv;
        // Copy the scaled pivot row so the elimination below can borrow it
        // and the target rows disjointly.
        self.prow.clear();
        self.prow.extend_from_slice(prow_src);
        let prhs = self.rhs[row];
        let width = self.prow.len();
        for pending in &mut self.fill[..width] {
            pending.clear();
        }

        // Eliminate along the pivot column's rows, pruning the rows that
        // no longer hold an entry in it.
        let mut targets = mem::take(&mut self.cols[col]);
        let mut kept = 0;
        for t in 0..targets.len() {
            let i = targets[t];
            let Some(factor) = find(&self.entries[i], col) else { continue };
            let holds_col = if i == row || factor.abs() <= ELIMINATION_TOL {
                true
            } else {
                self.rhs[i] -= factor * prhs;
                self.eliminate(i, factor, col)
            };
            if holds_col {
                targets[kept] = i;
                kept += 1;
            }
        }
        targets.truncate(kept);
        self.cols[col] = targets;

        // Register the fill-ins; each pending list is already ascending.
        for k in 0..width {
            if !self.fill[k].is_empty() {
                let j = self.prow[k].0;
                merge_rows(&mut self.cols[j], &self.fill[k], &mut self.col_merge);
            }
        }
        self.basis.replace(row, col);
        #[cfg(test)]
        self.check_invariants();
    }

    /// `row[i] -= factor · prow`, as a merge of the two sorted rows.
    /// Records fill-ins in `self.fill` and returns whether row `i` still
    /// holds an entry in the pivot column `col`.
    fn eliminate(&mut self, i: usize, factor: f64, col: usize) -> bool {
        let Self { entries, prow, merged, fill, .. } = self;
        let target = &mut entries[i];
        merged.clear();
        let mut holds_col = false;
        let mut a = 0;
        for (k, &(j, pv)) in prow.iter().enumerate() {
            while a < target.len() && target[a].0 < j {
                merged.push(target[a]);
                a += 1;
            }
            let x = if a < target.len() && target[a].0 == j {
                a += 1;
                target[a - 1].1 - factor * pv
            } else {
                let x = 0.0 - factor * pv;
                if x != 0.0 {
                    fill[k].push(i);
                }
                x
            };
            if x != 0.0 {
                merged.push((j, x));
                holds_col |= j == col;
            }
        }
        merged.extend_from_slice(&target[a..]);
        mem::swap(target, merged);
        holds_col
    }

    /// Extracts the solution values of the structural variables.
    pub(crate) fn extract_values(&self, num_vars: usize, values: &mut Vec<f64>) {
        values.clear();
        values.resize(num_vars, 0.0);
        for (i, &b) in self.basis.rows.iter().enumerate() {
            if b < num_vars {
                values[b] = self.rhs(i);
            }
        }
    }

    /// Asserts the storage invariants: rows sorted by column with no exact
    /// zeros, column lists sorted without duplicates, and every stored
    /// `(i, j)` listed in column `j`.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let m = self.rows();
        assert_eq!(self.rhs.len(), m);
        for (i, row) in self.entries[..m].iter().enumerate() {
            for pair in row.windows(2) {
                assert!(pair[0].0 < pair[1].0, "row {i} not sorted by column");
            }
            for &(j, v) in row {
                assert!(j < self.n_total, "row {i} stores column {j} out of range");
                assert!(v != 0.0, "row {i} stores an exact zero at column {j}");
                let listed = self.cols[j].binary_search(&i).is_ok();
                assert!(listed, "({i}, {j}) missing from column {j}");
            }
        }
        for (j, col) in self.cols[..self.n_total].iter().enumerate() {
            for pair in col.windows(2) {
                assert!(pair[0] < pair[1], "column {j} not sorted or holds a duplicate");
            }
            assert!(col.iter().all(|&i| i < m), "column {j} lists a row out of range");
        }
    }
}

/// Merges the ascending rows `add` into the ascending column list `list`,
/// dropping duplicates (a stale row that gained a fresh entry).
fn merge_rows(list: &mut Vec<usize>, add: &[usize], scratch: &mut Vec<usize>) {
    if list.last().is_none_or(|&last| last < add[0]) {
        list.extend_from_slice(add);
        return;
    }
    scratch.clear();
    let (mut a, mut b) = (0, 0);
    while a < list.len() && b < add.len() {
        match list[a].cmp(&add[b]) {
            Ordering::Less => {
                scratch.push(list[a]);
                a += 1;
            }
            Ordering::Greater => {
                scratch.push(add[b]);
                b += 1;
            }
            Ordering::Equal => {
                scratch.push(list[a]);
                a += 1;
                b += 1;
            }
        }
    }
    scratch.extend_from_slice(&list[a..]);
    scratch.extend_from_slice(&add[b..]);
    mem::swap(list, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpWorkspace, SolverState};
    use proptest::prelude::*;

    /// A dense row-major tableau doing the historical per-cell arithmetic:
    /// the reference the sparse pivots must reproduce value for value.
    struct Dense {
        a: Vec<Vec<f64>>,
        rhs: Vec<f64>,
    }

    impl Dense {
        fn build(p: &Problem) -> Self {
            let rows = p.constraint_rows();
            let n = p.num_vars();
            let n_slack = rows.iter().filter(|r| r.op != ConstraintOp::Eq).count();
            let art_start = n + n_slack;
            let n_total = art_start + rows.len();
            let mut dense = Self { a: Vec::new(), rhs: Vec::new() };
            let mut slack = n;
            for (i, r) in rows.iter().enumerate() {
                let mut row = vec![0.0; n_total];
                let sign = if r.rhs < 0.0 { -1.0 } else { 1.0 };
                for &(v, c) in &r.terms {
                    row[v] += sign * c;
                }
                let op = match (r.op, sign < 0.0) {
                    (ConstraintOp::Le, true) => ConstraintOp::Ge,
                    (ConstraintOp::Ge, true) => ConstraintOp::Le,
                    (op, _) => op,
                };
                match op {
                    ConstraintOp::Le => row[slack] = 1.0,
                    ConstraintOp::Ge => {
                        row[slack] = -1.0;
                        row[art_start + i] = 1.0;
                    }
                    ConstraintOp::Eq => row[art_start + i] = 1.0,
                }
                if op != ConstraintOp::Eq {
                    slack += 1;
                }
                dense.a.push(row);
                dense.rhs.push(sign * r.rhs);
            }
            dense
        }

        fn pivot(&mut self, row: usize, col: usize) {
            let inv = 1.0 / self.a[row][col];
            for x in &mut self.a[row] {
                *x *= inv;
            }
            self.rhs[row] *= inv;
            let prow = self.a[row].clone();
            let prhs = self.rhs[row];
            for i in 0..self.a.len() {
                let factor = self.a[i][col];
                if i == row || factor.abs() <= 1e-12 {
                    continue;
                }
                for (x, &pv) in self.a[i].iter_mut().zip(&prow) {
                    *x -= factor * pv;
                }
                self.rhs[i] -= factor * prhs;
            }
        }

        /// Asserts every cell equals the sparse tableau's (a zero of
        /// either sign matching an unstored entry) and the rhs bit for bit.
        fn assert_matches(&self, tab: &Tableau) {
            for (i, row) in self.a.iter().enumerate() {
                assert_eq!(self.rhs[i].to_bits(), tab.rhs(i).to_bits(), "rhs of row {i}");
                for (j, &x) in row.iter().enumerate() {
                    let stored = find(tab.row_entries(i), j);
                    match stored {
                        Some(v) => assert_eq!(v.to_bits(), x.to_bits(), "cell ({i}, {j})"),
                        None => assert_eq!(x, 0.0, "cell ({i}, {j}) unstored but nonzero"),
                    }
                }
            }
        }
    }

    /// A grid coefficient in `[-2, 2]` (zero included, so exact zeros and
    /// cancelling duplicates occur), or for `k == 9` one small enough that
    /// pivot-column factors near the elimination tolerance arise.
    fn grid(k: usize) -> f64 {
        if k == 9 {
            3e-11
        } else {
            (k as f64 - 4.0) * 0.5
        }
    }

    /// A generated row: `(variable, grid index)` terms, an operator index
    /// and a grid index for the rhs.
    type RowSpec = (Vec<(usize, usize)>, usize, usize);

    fn random_lp(vars: usize, rows: &[RowSpec], objective: &[usize]) -> Problem {
        let mut p = Problem::minimize(vars);
        for (v, &k) in objective.iter().enumerate().take(vars) {
            p.set_objective_coefficient(v, grid(k));
        }
        for (terms, op, rhs) in rows {
            let terms: Vec<(usize, f64)> =
                terms.iter().map(|&(v, k)| (v % vars, grid(k))).collect();
            let op = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq][op % 3];
            p.add_constraint(&terms, op, grid(*rhs) * 2.0);
        }
        p
    }

    fn lp_strategy() -> impl Strategy<Value = Problem> {
        (
            1usize..6,
            proptest::collection::vec(
                (proptest::collection::vec((0usize..6, 0usize..10), 1..5), 0usize..3, 0usize..9),
                1..8,
            ),
            proptest::collection::vec(0usize..9, 6..7),
        )
            .prop_map(|(vars, rows, objective)| random_lp(vars, &rows, &objective))
    }

    proptest! {
        /// Random pivot sequences on random LPs (`≥`/`=` rows, negative
        /// rhs, duplicate and zero terms): after every pivot the storage
        /// invariants hold and every cell matches the dense reference.
        #[test]
        fn sparse_pivots_match_the_dense_reference(
            p in lp_strategy(),
            picks in proptest::collection::vec((0usize..64, 0usize..64), 1..24),
        ) {
            let mut tab = Tableau::default();
            tab.rebuild(&p);
            tab.check_invariants();
            let mut dense = Dense::build(&p);
            dense.assert_matches(&tab);
            for &(r, c) in &picks {
                let row = r % tab.rows();
                let Some(&(col, _)) = tab
                    .row_entries(row)
                    .iter()
                    .cycle()
                    .skip(c)
                    .take(tab.row_entries(row).len())
                    .find(|e| e.1.abs() > 1e-7)
                else {
                    continue;
                };
                tab.pivot(row, col);
                dense.pivot(row, col);
                tab.check_invariants();
                dense.assert_matches(&tab);
            }
        }

        /// Full cold and warm solves of random LPs, degenerate vertices
        /// included, through one shared workspace: every pivot checks the
        /// invariants (`pivot` calls `check_invariants` under test), a
        /// solve in a used workspace equals one in a fresh workspace, and a
        /// warm re-solve of the same problem reaches the cold optimum.
        #[test]
        fn solves_keep_the_invariants(p in lp_strategy(), q in lp_strategy()) {
            let mut ws = LpWorkspace::new();
            let mut state = SolverState::new();
            let cold = p.solve_in(&mut state, &mut ws);
            prop_assert_eq!(q.solve_in(&mut SolverState::new(), &mut ws), q.solve());
            if let Ok(cold) = cold {
                if state.has_basis_for(&p) {
                    let warm = p.solve_in(&mut state, &mut ws).unwrap();
                    prop_assert!(state.last_report().warm);
                    let tol = 1e-9 * (1.0 + cold.objective().abs());
                    prop_assert!((warm.objective() - cold.objective()).abs() <= tol);
                }
            }
        }
    }
}
