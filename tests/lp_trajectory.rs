//! Pins the exact simplex trajectory of the LP solver.
//!
//! Seeded placement problems in three size bands (about 8, 26 and 128
//! pins, with 1–32 free points joined by chain and ring pairs) run
//! through every solve path the synthesis engine uses:
//!
//! * a cold solve of a fresh [`PlacementState`] (the y axis adopts the x
//!   basis);
//! * a warm chain where only the pin coordinates move (right-hand sides
//!   only: the dual re-entry);
//! * a warm chain where only the weights move (objective only: the primal
//!   re-entry);
//! * a fresh state seeded from an exported [`PlacementSeed`].
//!
//! A fourth band runs general LPs with `≤`/`≥`/`=` rows, negative
//! right-hand sides and duplicate terms through [`SolverState`] directly:
//! cold, warm re-solves, basis adoption and snapshot import.
//!
//! Every solution value (through `f64::to_bits`) and every
//! [`SolveReport`]'s `warm`, `iterations` and `replayed_pivots` is folded
//! into one `u64` per band. Any change to a pivot choice, a tie-break or
//! the order of a float accumulation moves the fingerprint. The bands run
//! once with a fresh tableau per solve and once through a single
//! [`LpWorkspace`] shared by every state, as a sweep worker shares it.
//!
//! [`PlacementSeed`]: sunfloor_lp::PlacementSeed

use sunfloor_lp::{
    ConstraintOp, LpWorkspace, PlacementProblem, PlacementState, Problem, Solution, SolveError,
    SolveReport, SolverState,
};

/// splitmix64: a tiny self-contained generator, so the fingerprints do not
/// depend on any other crate's RNG stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A multiple of `step` in `[0, steps · step)`: quantized values make
    /// ties and degenerate vertices common, as on real core grids.
    fn grid(&mut self, steps: usize, step: f64) -> f64 {
        self.below(steps) as f64 * step
    }
}

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

fn fold_report(h: &mut u64, r: SolveReport) {
    mix(h, u64::from(r.warm));
    mix(h, u64::from(r.iterations));
    mix(h, u64::from(r.replayed_pivots));
}

fn fold_placement(h: &mut u64, pos: &[(f64, f64)], state: &PlacementState) {
    mix(h, pos.len() as u64);
    for &(x, y) in pos {
        mix(h, x.to_bits());
        mix(h, y.to_bits());
    }
    let (rx, ry) = state.reports();
    fold_report(h, rx);
    fold_report(h, ry);
}

fn fold_solve(h: &mut u64, result: Result<Solution, SolveError>, state: &SolverState) {
    match result {
        Ok(s) => {
            mix(h, s.objective().to_bits());
            for v in s.values() {
                mix(h, v.to_bits());
            }
        }
        Err(e) => mix(h, 1 + e as u64),
    }
    fold_report(h, state.last_report());
}

/// Solves through the shared workspace when there is one, else with a
/// fresh tableau.
fn place(
    p: &PlacementProblem,
    state: &mut PlacementState,
    ws: &mut Option<LpWorkspace>,
) -> Vec<(f64, f64)> {
    match ws {
        Some(ws) => p.solve_in(state, ws),
        None => p.solve_with(state),
    }
    .unwrap()
}

fn solve(
    p: &Problem,
    state: &mut SolverState,
    ws: &mut Option<LpWorkspace>,
) -> Result<Solution, SolveError> {
    match ws {
        Some(ws) => p.solve_in(state, ws),
        None => p.solve_from(state),
    }
}

/// One seeded placement instance: pins attached to free points, plus the
/// chain `s → s+1` and the ring edge closing it.
struct Placement {
    free: usize,
    attach: Vec<usize>,
    pins: Vec<(f64, f64)>,
    pin_weights: Vec<f64>,
    pair_weights: Vec<f64>,
}

impl Placement {
    fn random(rng: &mut Rng, pins: usize, free: usize) -> Self {
        let attach = (0..pins).map(|k| if k < free { k } else { rng.below(free) }).collect();
        let mut p = Self {
            free,
            attach,
            pins: Vec::new(),
            pin_weights: Vec::new(),
            pair_weights: Vec::new(),
        };
        p.move_pins(rng);
        p.reweight(rng);
        p
    }

    fn move_pins(&mut self, rng: &mut Rng) {
        let n = self.attach.len();
        self.pins = (0..n).map(|_| (rng.grid(40, 0.5), rng.grid(40, 0.5))).collect();
    }

    fn reweight(&mut self, rng: &mut Rng) {
        self.pin_weights = (0..self.attach.len()).map(|_| 0.25 + rng.grid(16, 0.25)).collect();
        let pairs = if self.free > 2 { self.free } else { self.free.saturating_sub(1) };
        self.pair_weights = (0..pairs).map(|_| 0.125 + rng.grid(12, 0.125)).collect();
    }

    fn problem(&self) -> PlacementProblem {
        let mut p = PlacementProblem::new(self.free);
        for (k, &s) in self.attach.iter().enumerate() {
            p.attract_to_fixed(s, self.pins[k], self.pin_weights[k]);
        }
        for (s, &w) in self.pair_weights.iter().enumerate() {
            p.attract_pair(s, (s + 1) % self.free, w);
        }
        p
    }
}

/// Runs `count` seeded placement instances of `pins` pins over free-point
/// counts drawn from `free` through every warm path and folds the whole
/// trajectory.
fn placement_band(
    seed: u64,
    count: usize,
    pins: usize,
    free: (usize, usize),
    ws: &mut Option<LpWorkspace>,
) -> u64 {
    let mut rng = Rng(seed);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..count {
        let n_free = free.0 + rng.below(free.1 - free.0 + 1);
        let mut inst = Placement::random(&mut rng, pins, n_free);

        // Cold x, y adopting the x basis.
        let mut state = PlacementState::new();
        let pos = place(&inst.problem(), &mut state, ws);
        fold_placement(&mut h, &pos, &state);

        // Right-hand sides only: the pins move, the weights stay.
        for _ in 0..2 {
            inst.move_pins(&mut rng);
            let pos = place(&inst.problem(), &mut state, ws);
            fold_placement(&mut h, &pos, &state);
        }
        // Objective only: the weights move, the pins stay.
        for _ in 0..2 {
            inst.reweight(&mut rng);
            let pos = place(&inst.problem(), &mut state, ws);
            fold_placement(&mut h, &pos, &state);
        }

        // A fresh state seeded from the exported bases solves a perturbed
        // instance of the same shape.
        let seed = state.export_seed().expect("solved state exports a seed");
        let mut seeded = PlacementState::new();
        seeded.seed_from(&seed);
        inst.move_pins(&mut rng);
        inst.reweight(&mut rng);
        let pos = place(&inst.problem(), &mut seeded, ws);
        fold_placement(&mut h, &pos, &seeded);
    }
    h
}

/// A seeded general LP with `≤`/`≥`/`=` rows, negative right-hand sides,
/// duplicate terms and grid coefficients. The rows are tight or slack
/// around a grid point moved by `shift`, so most instances are feasible
/// and degenerate vertices and redundant rows are common; one row in
/// sixteen is pushed off that point, which makes some instances
/// infeasible.
fn general_lp(rng: &mut Rng, vars: usize, rows: usize, shift: f64) -> Problem {
    let mut p = Problem::minimize(vars);
    for v in 0..vars {
        p.set_objective_coefficient(v, rng.grid(7, 1.0) - 2.0);
    }
    let point: Vec<f64> = (0..vars).map(|v| rng.grid(4, 1.0) + shift * (v % 2) as f64).collect();
    for _ in 0..rows {
        let k = 1 + rng.below(3);
        let terms: Vec<(usize, f64)> =
            (0..=k).map(|_| (rng.below(vars), rng.grid(9, 0.5) - 2.0)).collect();
        let at: f64 = terms.iter().map(|&(v, c)| c * point[v]).sum();
        let slack = rng.grid(3, 1.0);
        let off = if rng.below(16) == 0 { -1.0 } else { 0.0 };
        let (op, rhs) = match rng.below(5) {
            0 => (ConstraintOp::Eq, at),
            1 | 2 => (ConstraintOp::Ge, at - slack - off),
            _ => (ConstraintOp::Le, at + slack + off),
        };
        p.add_constraint(&terms, op, rhs);
    }
    // Keep every instance bounded in the objective direction.
    let all: Vec<(usize, f64)> = (0..vars).map(|v| (v, 1.0)).collect();
    p.add_constraint(&all, ConstraintOp::Le, point.iter().sum::<f64>() + 2.0);
    p
}

fn general_band(seed: u64, count: usize, ws: &mut Option<LpWorkspace>) -> u64 {
    let mut rng = Rng(seed);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..count {
        let vars = 2 + rng.below(6);
        let rows = 1 + rng.below(7);
        let shape_seed = rng.next();

        let mut state = SolverState::new();
        let mut donor = SolverState::new();
        for step in 0..3 {
            let p = general_lp(&mut Rng(shape_seed), vars, rows, f64::from(step) * 0.5);
            let r = solve(&p, &mut state, ws);
            fold_solve(&mut h, r, &state);
            if step == 0 {
                let r = solve(&p, &mut donor, ws);
                fold_solve(&mut h, r, &donor);
            }
        }
        let q = general_lp(&mut Rng(shape_seed), vars, rows, 1.25);
        let mut adopted = SolverState::new();
        adopted.adopt_basis_from(&donor);
        let r = solve(&q, &mut adopted, ws);
        fold_solve(&mut h, r, &adopted);
        if let Some(snapshot) = state.export_basis() {
            let mut imported = SolverState::new();
            imported.import_basis(&snapshot);
            let r = solve(&q, &mut imported, ws);
            fold_solve(&mut h, r, &imported);
        }
    }
    h
}

const SMALL: u64 = 0xa0b8_d02b_0b00_ef4d;
const MEDIA: u64 = 0x7148_f158_2022_3757;
const LARGE: u64 = 0x3a71_4020_5ad1_e146;
const GENERAL: u64 = 0xad7a_6525_1c87_7c52;

fn small(ws: &mut Option<LpWorkspace>) -> u64 {
    placement_band(0x5EED_0008, 24, 8, (1, 4), ws)
}

fn media(ws: &mut Option<LpWorkspace>) -> u64 {
    placement_band(0x5EED_0026, 8, 26, (3, 12), ws)
}

fn large(ws: &mut Option<LpWorkspace>) -> u64 {
    placement_band(0x5EED_0128, 2, 128, (16, 32), ws)
}

fn general(ws: &mut Option<LpWorkspace>) -> u64 {
    general_band(0x5EED_6E4E, 200, ws)
}

#[test]
fn small_band_trajectory_is_pinned() {
    assert_eq!(small(&mut None), SMALL, "~8-pin band drifted");
}

#[test]
fn media_band_trajectory_is_pinned() {
    assert_eq!(media(&mut None), MEDIA, "~26-pin band drifted");
}

#[test]
fn large_band_trajectory_is_pinned() {
    assert_eq!(large(&mut None), LARGE, "~128-pin band drifted");
}

#[test]
fn general_lp_trajectory_is_pinned() {
    assert_eq!(general(&mut None), GENERAL, "general-LP band drifted");
}

/// Largest LPs first, so every later solve runs in buffers grown by a
/// bigger one.
#[test]
fn shared_workspace_reproduces_every_band() {
    let mut ws = Some(LpWorkspace::new());
    assert_eq!(large(&mut ws), LARGE, "~128-pin band drifted in a shared workspace");
    assert_eq!(media(&mut ws), MEDIA, "~26-pin band drifted in a shared workspace");
    assert_eq!(small(&mut ws), SMALL, "~8-pin band drifted in a shared workspace");
    assert_eq!(general(&mut ws), GENERAL, "general-LP band drifted in a shared workspace");
}
