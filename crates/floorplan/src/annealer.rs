//! Simulated-annealing floorplanner over sequence pairs.
//!
//! # Performance
//!
//! One move of `ReplicaState::step` mutates the sequence pair in place,
//! packs it, prices the packing and undoes the move if it is rejected;
//! nothing is cloned or allocated. Every shortcut below keeps each
//! floorplan, cost bit, RNG draw and counter of the plain loop (a
//! proptest anneals random inputs through this loop and through the
//! reference loop it replaced):
//!
//! * the packer computes both axes in one walk over the two sequences,
//!   each on its own Fenwick tree, from ranks and rotation-effective
//!   dimensions that moves keep current (see
//!   [`SequencePair::pack_coords_ranked`]), and hands back the bounding
//!   box;
//! * the cost sums the deviations of a `(block, x, y, weight)` list built
//!   once per chain, so untargeted blocks cost nothing;
//! * with nets, only the nets of blocks that moved are re-measured;
//!   without nets (the constrained layout) nothing is scanned;
//! * a move that changes nothing (a reinsert drawn back into its own slot,
//!   or a rotation of a square block) is not packed: it would be accepted
//!   at delta 0 without a draw, so it only decays the temperature. At the
//!   engine's layer size (about 13 blocks, none rotatable) that is about
//!   one move in seventeen.

use crate::geometry::{Block, Floorplan, Net};
use crate::seqpair::{PackScratch, SequencePair};
use crate::tempering::{anneal_tempered, TemperConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-block attraction target: `(x, y, weight)` — the block's ideal center
/// and the cost per mm of Manhattan deviation from it — or `None` for
/// blocks that are free to land anywhere.
pub type IdealTarget = Option<(f64, f64, f64)>;

/// Configuration of a simulated-annealing floorplanning run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealConfig {
    /// Total accepted/rejected move attempts.
    pub iterations: u32,
    /// Weight of wirelength relative to area in the cost function.
    pub lambda_wirelength: f64,
    /// Weight of the aspect-ratio penalty `area·(max(w,h)/min(w,h) − 1)`.
    /// Many block sets pack into minimal area as a degenerate strip; dies
    /// must stay near-square, so this defaults on.
    pub lambda_aspect: f64,
    /// RNG seed — identical seeds give identical floorplans.
    pub rng_seed: u64,
    /// Optional fixed outline `(width, height)`; exceeding it is penalized
    /// heavily (fixed-outline mode of Parquet-class tools).
    pub outline: Option<(f64, f64)>,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            iterations: 30_000,
            lambda_wirelength: 0.35,
            lambda_aspect: 0.3,
            rng_seed: 0x5EED,
            outline: None,
        }
    }
}

impl AnnealConfig {
    /// Overrides the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Overrides the iteration budget (builder style).
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations.max(1);
        self
    }
}

/// Floorplans `blocks` minimizing `area + λ·HPWL(nets)` with one annealing
/// chain: [`anneal_tempered`] with a single replica, from the identity
/// sequence pair, every block movable and no targets.
///
/// This is the "standard floorplanner" role of the flow: generating the
/// initial core placement per layer (paper §VIII-A obtains them "using
/// existing tools", i.e. Parquet, with "the same objectives of minimizing
/// area and wire-length").
///
/// # Panics
///
/// Panics if any net references a block index out of range.
#[must_use]
pub fn anneal(blocks: &[Block], nets: &[Net], cfg: &AnnealConfig) -> Floorplan {
    let temper = TemperConfig { base: cfg.clone(), ..TemperConfig::default() }.with_replicas(1);
    anneal_tempered(&AnnealInput::new(blocks.to_vec()), nets, &temper).0
}

/// What an anneal starts from: the blocks, the seed sequence pair, each
/// block's attraction target and how many leading blocks keep their
/// relative order.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealInput {
    /// All blocks; indices `0..fixed_order_count` are cores whose relative
    /// order must be preserved, the rest are free to move.
    pub blocks: Vec<Block>,
    /// Seed sequence pair (for a constrained layout, typically
    /// [`SequencePair::from_placement`] of the input floorplan with the
    /// components appended).
    pub seed: SequencePair,
    /// One slot per block: `Some((x, y, weight))` charges `weight` per
    /// millimetre of Manhattan deviation of the block's center from
    /// `(x, y)` (an LP-computed ideal spot, or the centroid of partners in
    /// layers already placed); `None` leaves the block free to land
    /// anywhere.
    pub ideal: Vec<IdealTarget>,
    /// Number of leading blocks that are order-frozen cores.
    pub fixed_order_count: usize,
}

impl AnnealInput {
    /// The unconstrained input: the identity sequence pair, no targets and
    /// every block movable.
    #[must_use]
    pub fn new(blocks: Vec<Block>) -> Self {
        Self {
            seed: SequencePair::identity(blocks.len()),
            ideal: vec![None; blocks.len()],
            blocks,
            fixed_order_count: 0,
        }
    }
}

/// Cached per-net weighted-HPWL contributions with delta updates.
///
/// The packed placement changes for many blocks on some moves and for few
/// on others; only nets incident to a block whose position or effective
/// size changed are re-measured. The *total* is always re-summed over the
/// cached per-net values in net order, so it is bit-identical to a
/// from-scratch [`Floorplan::hpwl`] evaluation — the accept/reject
/// decisions (and thus the final floorplan for a given seed) cannot drift.
struct NetCache {
    /// `weight · HPWL` per net at the currently accepted placement.
    cost: Vec<f64>,
    /// Nets incident to each block.
    nets_of: Vec<Vec<usize>>,
    /// Per-net dirty stamp for the current candidate (generation-tagged).
    stamp: Vec<u32>,
    gen: u32,
    /// Undo log of `(net, previous value)` for the current candidate.
    undo: Vec<(usize, f64)>,
}

impl NetCache {
    fn new(n_blocks: usize, nets: &[Net]) -> Self {
        let mut nets_of = vec![Vec::new(); n_blocks];
        for (k, net) in nets.iter().enumerate() {
            for &p in &net.pins {
                if !nets_of[p].contains(&k) {
                    nets_of[p].push(k);
                }
            }
        }
        Self { cost: vec![0.0; nets.len()], nets_of, stamp: vec![0; nets.len()], gen: 0, undo: Vec::new() }
    }

    /// Net `k`'s weighted HPWL over block centers — the exact per-net term
    /// of [`Floorplan::hpwl`].
    // sf: hot-path
    fn measure(net: &Net, x: &[f64], y: &[f64], w: &[f64], h: &[f64]) -> f64 {
        if net.pins.len() < 2 {
            return 0.0;
        }
        // Compare-select instead of `f64::min`/`max`, with the same bits:
        // centers are sums of non-negative packed coordinates and halves of
        // positive dimensions, so no operand is NaN or −0.0 (see the
        // packer's `fen_prefix_max`).
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &p in &net.pins {
            let cx = x[p] + w[p] / 2.0;
            let cy = y[p] + h[p] / 2.0;
            min_x = if cx < min_x { cx } else { min_x };
            max_x = if cx > max_x { cx } else { max_x };
            min_y = if cy < min_y { cy } else { min_y };
            max_y = if cy > max_y { cy } else { max_y };
        }
        net.weight * ((max_x - min_x) + (max_y - min_y))
    }

    fn rebuild_all(&mut self, nets: &[Net], x: &[f64], y: &[f64], w: &[f64], h: &[f64]) {
        for (k, net) in nets.iter().enumerate() {
            self.cost[k] = Self::measure(net, x, y, w, h);
        }
    }

    /// Re-measures every net incident to a moved block against the
    /// candidate placement, logging old values for [`Self::revert`].
    // sf: hot-path
    #[allow(clippy::too_many_arguments)]
    fn update_for_move(
        &mut self,
        moved: impl Iterator<Item = usize>,
        nets: &[Net],
        x: &[f64],
        y: &[f64],
        w: &[f64],
        h: &[f64],
    ) {
        self.gen += 1;
        self.undo.clear();
        for b in moved {
            for i in 0..self.nets_of[b].len() {
                let k = self.nets_of[b][i];
                if self.stamp[k] == self.gen {
                    continue;
                }
                self.stamp[k] = self.gen;
                self.undo.push((k, self.cost[k]));
                self.cost[k] = Self::measure(&nets[k], x, y, w, h);
            }
        }
    }

    /// Sum of the cached per-net values, in net order — bit-identical to a
    /// fresh `hpwl` accumulation.
    // sf: hot-path
    fn total(&self) -> f64 {
        let mut total = 0.0;
        for &c in &self.cost {
            total += c;
        }
        total
    }

    /// Rolls the last [`Self::update_for_move`] back (candidate rejected).
    // sf: hot-path
    fn revert(&mut self) {
        for &(k, old) in self.undo.iter().rev() {
            self.cost[k] = old;
        }
        self.undo.clear();
    }
}

/// One annealing move, recorded so a rejected candidate can be undone
/// in place instead of cloning the whole state up front.
enum Move {
    /// Reinsert in one permutation: `(pos-perm?, from, to)`.
    Perm(bool, usize, usize),
    /// Reinserts in both permutations, in application order.
    Both((usize, usize), (usize, usize)),
    /// Rotation flip of a block.
    Rot(usize),
}

impl Move {
    /// Whether the move left the sequence pair and every footprint as they
    /// were: a reinsert drawn back into its own slot (both of them for
    /// [`Move::Both`]), or a rotation of a square block, which flips only
    /// the block's rotation flag. Packing such a move reproduces the
    /// accepted coordinates and cost bit for bit.
    // sf: hot-path
    fn changes_nothing(&self, w: &[f64], h: &[f64]) -> bool {
        match *self {
            Move::Perm(_, from, to) => from == to,
            Move::Both((pf, pt), (nf, nt)) => pf == pt && nf == nt,
            Move::Rot(b) => w[b] == h[b],
        }
    }
}

/// One complete annealing chain: the sequence pair, its incremental
/// rank/pack/net-cache machinery, the accepted and best states, the RNG
/// and the temperature schedule.
///
/// [`crate::tempering`] builds one per replica, with a per-replica RNG
/// seed and a ladder temperature multiplier. Every replica, a single one
/// too, is stepped in barrier-synchronized swap-interval chunks. Chunked
/// stepping is bit-identical to one big `step` call — the state carries
/// everything across calls.
pub(crate) struct ReplicaState<'a> {
    input: &'a AnnealInput,
    nets: &'a [Net],
    /// `(block, x, y, weight)` of every targeted block, in block order:
    /// the deviation terms of the cost, without a scan of the untargeted
    /// blocks' empty slots.
    targets: Vec<(usize, f64, f64, f64)>,
    cfg: &'a AnnealConfig,
    /// Indices of blocks the moves may touch.
    movable_idx: Vec<usize>,
    sp: SequencePair,
    rotated: Vec<bool>,
    /// Sequence ranks (inverse permutations), maintained incrementally by
    /// `reinsert`/`undo_reinsert` instead of rebuilt per pack; they also
    /// replace the O(n) position scan when removing a block.
    pp: Vec<usize>,
    nn: Vec<usize>,
    /// Reusable packing scratch (candidate coordinates), the accepted
    /// state's coordinate arrays, and the rotation-effective dimensions —
    /// maintained incrementally (a rotation move swaps one block's pair,
    /// and a rejected move swaps it back) instead of being rebuilt from
    /// the block list on every pack. `step` never clones a `Floorplan`
    /// and never allocates after `new`.
    scratch: PackScratch,
    cache: NetCache,
    w: Vec<f64>,
    h: Vec<f64>,
    cur_x: Vec<f64>,
    cur_y: Vec<f64>,
    cur_cost: f64,
    best_cost: f64,
    best_sp: SequencePair,
    best_rot: Vec<bool>,
    rng: StdRng,
    /// Base temperature, decayed once per iteration. Identical across all
    /// replicas of a tempered run because every replica starts from the
    /// same seed placement and steps the same number of iterations.
    temp: f64,
    alpha: f64,
    /// Temperature-ladder multiplier: moves are accepted against
    /// `temp * ladder`. Rung 0, the only one of a single replica, is `1.0`
    /// (multiplying by `1.0` is exact in IEEE arithmetic, so a single
    /// chain anneals at the base schedule); swap rounds exchange these
    /// values between replicas.
    ladder: f64,
}

impl<'a> ReplicaState<'a> {
    /// Sets up a chain at `input.seed` with its own RNG stream and ladder
    /// slot. The temperature schedule starts where ~an average move is
    /// accepted with p≈0.8 and decays geometrically to near-greedy over
    /// `cfg.iterations` steps.
    pub(crate) fn new(
        input: &'a AnnealInput,
        nets: &'a [Net],
        cfg: &'a AnnealConfig,
        rng_seed: u64,
        ladder: f64,
    ) -> Self {
        let blocks = &input.blocks[..];
        let targets: Vec<(usize, f64, f64, f64)> = (input.ideal.iter().enumerate())
            .filter_map(|(b, t)| t.map(|(x, y, weight)| (b, x, y, weight)))
            .collect();
        let n = blocks.len();
        let rng = StdRng::seed_from_u64(rng_seed);
        let sp = input.seed.clone();
        let rotated = vec![false; n];
        let mut pp = vec![0usize; n];
        let mut nn = vec![0usize; n];
        for (i, &b) in sp.pos.iter().enumerate() {
            pp[b] = i;
        }
        for (i, &b) in sp.neg.iter().enumerate() {
            nn[b] = i;
        }

        let mut scratch = PackScratch::default();
        let mut cache = NetCache::new(n, nets);
        let mut w = vec![0.0f64; n];
        let mut h = vec![0.0f64; n];
        for b in 0..n {
            w[b] = blocks[b].width;
            h[b] = blocks[b].height;
        }
        let bb = sp.pack_coords_ranked(&pp, &nn, &w, &h, &mut scratch);
        cache.rebuild_all(nets, &scratch.x, &scratch.y, &w, &h);
        let cur_cost = cost_of(&scratch.x, &scratch.y, &w, &h, bb, cache.total(), &targets, cfg);
        let cur_x = scratch.x.clone();
        let cur_y = scratch.y.clone();

        let movable_idx: Vec<usize> = (input.fixed_order_count..n).collect();
        let temp = (cur_cost * 0.1).max(1e-6);
        let t_final = temp * 1e-4;
        let alpha = (t_final / temp).powf(1.0 / f64::from(cfg.iterations.max(2)));

        Self {
            input,
            nets,
            targets,
            cfg,
            movable_idx,
            best_cost: cur_cost,
            best_sp: sp.clone(),
            best_rot: rotated.clone(),
            sp,
            rotated,
            pp,
            nn,
            scratch,
            cache,
            w,
            h,
            cur_x,
            cur_y,
            cur_cost,
            rng,
            temp,
            alpha,
            ladder,
        }
    }

    /// Whether moves exist at all: degenerate inputs (fewer than two
    /// blocks, or nothing movable) stay at the seed placement.
    fn steppable(&self) -> bool {
        self.input.blocks.len() >= 2 && !self.movable_idx.is_empty()
    }

    /// Runs `iters` annealing iterations, advancing the RNG, the accepted
    /// state and the base temperature. Acceptance tests use the effective
    /// temperature `temp * ladder`.
    ///
    /// A move that changes nothing ([`Move::changes_nothing`]) is not
    /// packed: its candidate would cost `cur_cost` bit for bit, and a
    /// candidate at delta `cur_cost - cur_cost <= 0.0` is accepted without
    /// an acceptance draw, so the move only decays the temperature and
    /// keeps a square block's flipped rotation flag. The skip asks the
    /// accept test's own question: for a NaN or infinite `cur_cost` the
    /// delta is NaN, the move is packed, and the acceptance number is drawn.
    // sf: hot-path
    pub(crate) fn step(&mut self, iters: u32) {
        if !self.steppable() {
            return;
        }
        let n = self.input.blocks.len();
        for _ in 0..iters {
            let m = self.movable_idx[self.rng.gen_range(0..self.movable_idx.len())];
            // Mutate in place, remembering how to undo.
            let mv = match self.rng.gen_range(0..4u8) {
                0 => {
                    let (f, t) = reinsert(&mut self.sp.pos, &mut self.pp, m, &mut self.rng);
                    Move::Perm(true, f, t)
                }
                1 => {
                    let (f, t) = reinsert(&mut self.sp.neg, &mut self.nn, m, &mut self.rng);
                    Move::Perm(false, f, t)
                }
                2 => {
                    let p = reinsert(&mut self.sp.pos, &mut self.pp, m, &mut self.rng);
                    let q = reinsert(&mut self.sp.neg, &mut self.nn, m, &mut self.rng);
                    Move::Both(p, q)
                }
                _ => {
                    if self.input.blocks[m].rotatable {
                        self.rotated[m] = !self.rotated[m];
                        std::mem::swap(&mut self.w[m], &mut self.h[m]);
                        Move::Rot(m)
                    } else {
                        let (f, t) = reinsert(&mut self.sp.pos, &mut self.pp, m, &mut self.rng);
                        Move::Perm(true, f, t)
                    }
                }
            };
            #[allow(clippy::eq_op)] // false exactly when `cur_cost` is NaN or ±inf
            if mv.changes_nothing(&self.w, &self.h) && self.cur_cost - self.cur_cost <= 0.0 {
                self.temp *= self.alpha;
                continue;
            }
            // The only block whose footprint can differ from the accepted
            // state is the one a rotation move just flipped.
            let rotated_block = match mv {
                Move::Rot(b) if self.w[b] != self.h[b] => Some(b),
                _ => None,
            };

            let bb =
                self.sp.pack_coords_ranked(&self.pp, &self.nn, &self.w, &self.h, &mut self.scratch);
            // Only nets touching a block whose position or footprint
            // changed need re-measuring. Without nets (the constrained
            // layout) the wirelength total is 0.0 and nothing is scanned.
            if !self.nets.is_empty() {
                let (scratch, cur_x, cur_y) = (&self.scratch, &self.cur_x, &self.cur_y);
                let moved = (0..n).filter(|&b| {
                    scratch.x[b] != cur_x[b] || scratch.y[b] != cur_y[b] || rotated_block == Some(b)
                });
                let (w, h) = (&self.w, &self.h);
                self.cache.update_for_move(moved, self.nets, &scratch.x, &scratch.y, w, h);
            }
            let cand_cost = cost_of(
                &self.scratch.x,
                &self.scratch.y,
                &self.w,
                &self.h,
                bb,
                self.cache.total(),
                &self.targets,
                self.cfg,
            );

            let delta = cand_cost - self.cur_cost;
            let t_eff = self.temp * self.ladder;
            if delta <= 0.0 || self.rng.gen_bool((-delta / t_eff).exp().clamp(0.0, 1.0)) {
                // Accept: the candidate arrays become the current state.
                std::mem::swap(&mut self.cur_x, &mut self.scratch.x);
                std::mem::swap(&mut self.cur_y, &mut self.scratch.y);
                self.cur_cost = cand_cost;
                self.cache.undo.clear();
                if self.cur_cost < self.best_cost {
                    self.best_cost = self.cur_cost;
                    self.best_sp.pos.clone_from(&self.sp.pos);
                    self.best_sp.neg.clone_from(&self.sp.neg);
                    self.best_rot.clone_from(&self.rotated);
                }
            } else {
                // Reject: undo the move and the net-cache deltas.
                self.cache.revert();
                match mv {
                    Move::Perm(true, f, t) => undo_reinsert(&mut self.sp.pos, &mut self.pp, f, t),
                    Move::Perm(false, f, t) => undo_reinsert(&mut self.sp.neg, &mut self.nn, f, t),
                    Move::Both((pf, pt), (nf, nt)) => {
                        undo_reinsert(&mut self.sp.neg, &mut self.nn, nf, nt);
                        undo_reinsert(&mut self.sp.pos, &mut self.pp, pf, pt);
                    }
                    Move::Rot(b) => {
                        self.rotated[b] = !self.rotated[b];
                        std::mem::swap(&mut self.w[b], &mut self.h[b]);
                    }
                }
            }
            self.temp *= self.alpha;
        }
    }

    /// Cost of the currently *accepted* state (the replica's energy).
    pub(crate) fn cur_cost(&self) -> f64 {
        self.cur_cost
    }

    /// Cost of the best state seen so far.
    pub(crate) fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// The shared base temperature (before the ladder multiplier).
    pub(crate) fn base_temp(&self) -> f64 {
        self.temp
    }

    /// This replica's ladder multiplier.
    pub(crate) fn ladder(&self) -> f64 {
        self.ladder
    }

    /// Reassigns the ladder multiplier (a tempering swap).
    pub(crate) fn set_ladder(&mut self, ladder: f64) {
        self.ladder = ladder;
    }

    /// Packs the best state seen into a finished floorplan.
    pub(crate) fn build_best(&self) -> Floorplan {
        self.best_sp.pack(&self.input.blocks, &self.best_rot)
    }
}

/// The annealing cost of a packed placement — the same terms as the
/// original clone-per-iteration implementation: bounding-box area,
/// weighted wirelength, aspect penalty, fixed-outline penalty and
/// ideal-position deviation. The bounding box comes straight from the
/// packer (a packed placement is flush against both axes, so the box
/// equals the extent maxima the original min/max fold produced). The
/// deviations of `targets`, `(block, x, y, weight)` in block order, are
/// added in that order.
// sf: hot-path
#[allow(clippy::too_many_arguments)]
fn cost_of(
    x: &[f64],
    y: &[f64],
    w: &[f64],
    h: &[f64],
    (bw, bh): (f64, f64),
    hpwl_total: f64,
    targets: &[(usize, f64, f64, f64)],
    cfg: &AnnealConfig,
) -> f64 {
    let area = bw * bh;

    let mut c = area + cfg.lambda_wirelength * hpwl_total;
    if bw > 0.0 && bh > 0.0 {
        let aspect = if bw > bh { bw / bh } else { bh / bw };
        c += cfg.lambda_aspect * area * (aspect - 1.0);
    }
    if let Some((ow, oh)) = cfg.outline {
        let over = (bw - ow).max(0.0) + (bh - oh).max(0.0);
        c += 50.0 * over * over + 100.0 * over;
    }
    for &(b, tx, ty, weight) in targets {
        let cx = x[b] + w[b] / 2.0;
        let cy = y[b] + h[b] / 2.0;
        c += weight * ((cx - tx).abs() + (cy - ty).abs());
    }
    c
}

/// Removes block `b` from the permutation and reinserts it at a random
/// position — a move that preserves the relative order of all other blocks,
/// which is what keeps the cores' arrangement intact in constrained mode.
/// Returns `(from, to)` so the move can be undone without cloning. `ranks`
/// is the permutation's inverse: it locates `b` without a scan and is
/// rewritten for the shifted range by the same pass.
///
/// The target is drawn as `0..=n-1`, the insertion slots left once `b` is
/// removed, so the random stream is the one of `Vec::remove` + `insert`.
// sf: hot-path
fn reinsert(perm: &mut [usize], ranks: &mut [usize], b: usize, rng: &mut StdRng) -> (usize, usize) {
    let from = ranks[b];
    debug_assert_eq!(perm[from], b, "stale rank for block {b}");
    let to = rng.gen_range(0..=perm.len() - 1);
    shift(perm, ranks, from, to);
    (from, to)
}

/// Inverse of [`reinsert`]: the block sits at `to`; put it back at `from`.
// sf: hot-path
fn undo_reinsert(perm: &mut [usize], ranks: &mut [usize], from: usize, to: usize) {
    shift(perm, ranks, to, from);
}

/// Moves the entry at `from` to `to`, shifting the entries between them by
/// one slot towards `from`, and writes the new rank of every entry it
/// touches: one in-place pass equal to `remove(from)` then
/// `insert(to, _)` followed by a rank fix-up over the range.
// sf: hot-path
fn shift(perm: &mut [usize], ranks: &mut [usize], from: usize, to: usize) {
    let b = perm[from];
    if from < to {
        for i in from..to {
            let v = perm[i + 1];
            perm[i] = v;
            ranks[v] = i;
        }
    } else {
        for i in (to + 1..=from).rev() {
            let v = perm[i - 1];
            perm[i] = v;
            ranks[v] = i;
        }
    }
    perm[to] = b;
    ranks[b] = to;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PlacedBlock;
    use crate::seqpair::tests::pack_coords_two_walks;
    use crate::tempering::temper;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::RngCore;

    /// The move loop [`ReplicaState::step`] replaced: every move is packed
    /// by two walks ([`pack_coords_two_walks`]) and priced by
    /// [`cost_of_reference`], no-op moves included.
    fn step_reference(st: &mut ReplicaState<'_>, iters: u32) {
        if !st.steppable() {
            return;
        }
        let ideal = st.input.ideal.iter().any(Option::is_some).then_some(&st.input.ideal[..]);
        let n = st.input.blocks.len();
        for _ in 0..iters {
            let m = st.movable_idx[st.rng.gen_range(0..st.movable_idx.len())];
            let mv = match st.rng.gen_range(0..4u8) {
                0 => {
                    let (f, t) = reinsert(&mut st.sp.pos, &mut st.pp, m, &mut st.rng);
                    Move::Perm(true, f, t)
                }
                1 => {
                    let (f, t) = reinsert(&mut st.sp.neg, &mut st.nn, m, &mut st.rng);
                    Move::Perm(false, f, t)
                }
                2 => {
                    let p = reinsert(&mut st.sp.pos, &mut st.pp, m, &mut st.rng);
                    let q = reinsert(&mut st.sp.neg, &mut st.nn, m, &mut st.rng);
                    Move::Both(p, q)
                }
                _ => {
                    if st.input.blocks[m].rotatable {
                        st.rotated[m] = !st.rotated[m];
                        std::mem::swap(&mut st.w[m], &mut st.h[m]);
                        Move::Rot(m)
                    } else {
                        let (f, t) = reinsert(&mut st.sp.pos, &mut st.pp, m, &mut st.rng);
                        Move::Perm(true, f, t)
                    }
                }
            };
            let rotated_block = match mv {
                Move::Rot(b) if st.w[b] != st.h[b] => Some(b),
                _ => None,
            };
            let bb = pack_coords_two_walks(&st.sp, &st.pp, &st.nn, &st.w, &st.h, &mut st.scratch);
            if !st.nets.is_empty() {
                let (scratch, cur_x, cur_y) = (&st.scratch, &st.cur_x, &st.cur_y);
                let moved = (0..n).filter(|&b| {
                    scratch.x[b] != cur_x[b] || scratch.y[b] != cur_y[b] || rotated_block == Some(b)
                });
                st.cache.update_for_move(moved, st.nets, &scratch.x, &scratch.y, &st.w, &st.h);
            }
            let (x, y) = (&st.scratch.x, &st.scratch.y);
            let cand_cost =
                cost_of_reference(x, y, &st.w, &st.h, bb, st.cache.total(), ideal, st.cfg);
            let delta = cand_cost - st.cur_cost;
            let t_eff = st.temp * st.ladder;
            if delta <= 0.0 || st.rng.gen_bool((-delta / t_eff).exp().clamp(0.0, 1.0)) {
                std::mem::swap(&mut st.cur_x, &mut st.scratch.x);
                std::mem::swap(&mut st.cur_y, &mut st.scratch.y);
                st.cur_cost = cand_cost;
                st.cache.undo.clear();
                if st.cur_cost < st.best_cost {
                    st.best_cost = st.cur_cost;
                    st.best_sp.pos.clone_from(&st.sp.pos);
                    st.best_sp.neg.clone_from(&st.sp.neg);
                    st.best_rot.clone_from(&st.rotated);
                }
            } else {
                st.cache.revert();
                match mv {
                    Move::Perm(true, f, t) => undo_reinsert(&mut st.sp.pos, &mut st.pp, f, t),
                    Move::Perm(false, f, t) => undo_reinsert(&mut st.sp.neg, &mut st.nn, f, t),
                    Move::Both((pf, pt), (nf, nt)) => {
                        undo_reinsert(&mut st.sp.neg, &mut st.nn, nf, nt);
                        undo_reinsert(&mut st.sp.pos, &mut st.pp, pf, pt);
                    }
                    Move::Rot(b) => {
                        st.rotated[b] = !st.rotated[b];
                        std::mem::swap(&mut st.w[b], &mut st.h[b]);
                    }
                }
            }
            st.temp *= st.alpha;
        }
    }

    /// The cost [`cost_of`] replaced: the deviation terms come from a scan
    /// of every block's target slot.
    #[allow(clippy::too_many_arguments)]
    fn cost_of_reference(
        x: &[f64],
        y: &[f64],
        w: &[f64],
        h: &[f64],
        (bw, bh): (f64, f64),
        hpwl_total: f64,
        ideal: Option<&[IdealTarget]>,
        cfg: &AnnealConfig,
    ) -> f64 {
        let area = bw * bh;
        let mut c = area + cfg.lambda_wirelength * hpwl_total;
        if bw > 0.0 && bh > 0.0 {
            let aspect = if bw > bh { bw / bh } else { bh / bw };
            c += cfg.lambda_aspect * area * (aspect - 1.0);
        }
        if let Some((ow, oh)) = cfg.outline {
            let over = (bw - ow).max(0.0) + (bh - oh).max(0.0);
            c += 50.0 * over * over + 100.0 * over;
        }
        if let Some(targets) = ideal {
            for (b, t) in targets.iter().enumerate() {
                if let Some((tx, ty, weight)) = t {
                    let cx = x[b] + w[b] / 2.0;
                    let cy = y[b] + h[b] / 2.0;
                    c += weight * ((cx - tx).abs() + (cy - ty).abs());
                }
            }
        }
        c
    }

    /// An anneal drawn from `seed`: 1–40 blocks (a quarter square, half
    /// rotatable) with 0–12 order-frozen leading ones; targets on none,
    /// some or all blocks; nets and an outline each on or off; 1–4
    /// replicas on 0–4 threads; a budget of up to 240 moves in swap rounds
    /// of 1–60, so most budgets end mid-round. One case in eight gives a
    /// block an infinite width and one in eight a target a NaN coordinate:
    /// there every cost is +inf or NaN, so a move that changes nothing is
    /// still packed and still draws its acceptance number.
    fn random_anneal(seed: u64) -> (AnnealInput, Vec<Net>, TemperConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=40usize);
        let mut blocks: Vec<Block> = (0..n)
            .map(|i| {
                let w = rng.gen_range(0.5..4.0);
                let h = if rng.gen_range(0..4u8) == 0 { w } else { rng.gen_range(0.5..4.0) };
                let block = Block::new(format!("b{i}"), w, h);
                if rng.gen_bool(0.5) {
                    block.rotatable()
                } else {
                    block
                }
            })
            .collect();
        let targeted = match rng.gen_range(0..3u8) {
            0 => 0.0,
            1 => 0.5,
            _ => 1.0,
        };
        let mut ideal: Vec<IdealTarget> = (0..n)
            .map(|_| {
                rng.gen_bool(targeted).then(|| {
                    (rng.gen_range(0.0..12.0), rng.gen_range(0.0..12.0), rng.gen_range(0.5..3.0))
                })
            })
            .collect();
        match rng.gen_range(0..8u8) {
            0 => blocks[rng.gen_range(0..n)].width = f64::INFINITY,
            1 => ideal[rng.gen_range(0..n)] = Some((f64::NAN, 1.0, 2.0)),
            _ => {}
        }
        let mut nets = Vec::new();
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1..=2 * n) {
                let pins = (0..rng.gen_range(1..=4usize)).map(|_| rng.gen_range(0..n)).collect();
                nets.push(Net { pins, weight: rng.gen_range(0.5..2.0) });
            }
        }
        let mut seed_sp = SequencePair::identity(n);
        seed_sp.pos.shuffle(&mut rng);
        seed_sp.neg.shuffle(&mut rng);
        let input = AnnealInput {
            seed: seed_sp,
            blocks,
            ideal,
            fixed_order_count: rng.gen_range(0..=12usize).min(n),
        };
        let outline = rng.gen_bool(0.5).then(|| {
            let side = (n as f64).sqrt() * 2.0;
            (rng.gen_range(0.5..1.5) * side, rng.gen_range(0.5..1.5) * side)
        });
        let cfg = TemperConfig {
            base: AnnealConfig {
                iterations: rng.gen_range(1..=240u32),
                rng_seed: rng.next_u64(),
                outline,
                ..AnnealConfig::default()
            },
            replicas: rng.gen_range(1..=4usize),
            swap_interval: rng.gen_range(1..=60u32),
            threads: rng.gen_range(0..=4usize),
            ..TemperConfig::default()
        };
        (input, nets, cfg)
    }

    fn blocks_mixed() -> Vec<Block> {
        vec![
            Block::new("a", 2.0, 3.0),
            Block::new("b", 3.0, 2.0),
            Block::new("c", 1.0, 1.0),
            Block::new("d", 2.0, 2.0),
            Block::new("e", 1.0, 2.0),
            Block::new("f", 2.0, 1.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A reinsert's in-place shift and its undo equal `Vec::remove` +
        /// `insert`, and leave `ranks` the inverse permutation.
        #[test]
        fn shift_and_undo_match_remove_and_insert(
            perm in Just((0..12usize).collect::<Vec<usize>>()).prop_shuffle(),
            len in 1..13usize,
            picks in proptest::collection::vec((0..12usize, 0..12usize), 1..8),
        ) {
            // A random permutation of 0..len, with its inverse.
            let mut perm: Vec<usize> = perm.into_iter().filter(|&b| b < len).collect();
            let mut ranks = vec![0; len];
            for (i, &b) in perm.iter().enumerate() {
                ranks[b] = i;
            }
            for (from, to) in picks {
                let (from, to) = (from % len, to % len);
                let before = perm.clone();
                let mut expected = perm.clone();
                let b = expected.remove(from);
                expected.insert(to, b);
                shift(&mut perm, &mut ranks, from, to);
                prop_assert_eq!(&perm, &expected);
                for (i, &b) in perm.iter().enumerate() {
                    prop_assert_eq!(ranks[b], i, "rank of block {}", b);
                }
                undo_reinsert(&mut perm, &mut ranks, from, to);
                prop_assert_eq!(&perm, &before);
                for (i, &b) in perm.iter().enumerate() {
                    prop_assert_eq!(ranks[b], i, "rank of block {} after undo", b);
                }
                shift(&mut perm, &mut ranks, from, to);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The move loop and the one-walk packer equal the loop and
        /// packer they replaced, bit for bit: the same floorplan, best cost
        /// and stats through the tempering driver (the reference on one
        /// thread per replica, the change on the drawn thread count, so a
        /// lone lane runs inline), and after every swap-round chunk the
        /// same chain state and RNG, which is where a skipped no-op move
        /// that should have drawn would show.
        #[test]
        fn move_loop_matches_the_two_walk_reference(seed in 0..u64::MAX) {
            let (input, nets, cfg) = random_anneal(seed);
            let (plan, stats) = temper(&input, &nets, &cfg, ReplicaState::step);
            let reference_cfg = cfg.clone().with_threads(0);
            let (ref_plan, ref_stats) = temper(&input, &nets, &reference_cfg, step_reference);
            prop_assert_eq!(&plan, &ref_plan);
            prop_assert_eq!(stats.best_cost.to_bits(), ref_stats.best_cost.to_bits());
            prop_assert_eq!(
                (stats.replicas, stats.swap_attempts, stats.swap_accepts),
                (ref_stats.replicas, ref_stats.swap_attempts, ref_stats.swap_accepts)
            );
            prop_assert_eq!(
                (stats.best_replica, stats.iterations_total),
                (ref_stats.best_replica, ref_stats.iterations_total)
            );

            let base = &cfg.base;
            let mut chain = ReplicaState::new(&input, &nets, base, base.rng_seed, 1.0);
            let mut reference = ReplicaState::new(&input, &nets, base, base.rng_seed, 1.0);
            let chunks = if input.blocks.len() < 2 { Vec::new() } else {
                let mut left = base.iterations;
                std::iter::from_fn(|| {
                    let chunk = left.min(cfg.swap_interval);
                    left -= chunk;
                    (chunk > 0).then_some(chunk)
                })
                .collect()
            };
            for chunk in chunks {
                chain.step(chunk);
                step_reference(&mut reference, chunk);
                prop_assert_eq!(&chain.rng, &reference.rng);
                prop_assert_eq!((&chain.sp, &chain.rotated), (&reference.sp, &reference.rotated));
                prop_assert_eq!((&chain.best_sp, &chain.best_rot), (&reference.best_sp, &reference.best_rot));
                prop_assert_eq!(chain.cur_cost.to_bits(), reference.cur_cost.to_bits());
                prop_assert_eq!(chain.best_cost.to_bits(), reference.best_cost.to_bits());
                prop_assert_eq!(chain.temp.to_bits(), reference.temp.to_bits());
            }
        }
    }

    #[test]
    fn result_is_legal_and_reasonably_tight() {
        let blocks = blocks_mixed();
        let plan = anneal(&blocks, &[], &AnnealConfig::default().with_iterations(8000));
        assert!(plan.overlapping_pair().is_none());
        let cell: f64 = plan.cell_area();
        assert!(plan.area() <= 2.0 * cell, "area {} vs cells {}", plan.area(), cell);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let blocks = blocks_mixed();
        let cfg = AnnealConfig::default().with_iterations(2000).with_seed(42);
        let a = anneal(&blocks, &[], &cfg);
        let b = anneal(&blocks, &[], &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn wirelength_objective_pulls_connected_blocks_together() {
        // Many blocks, one heavily connected pair: with a strong lambda the
        // pair should end close.
        let blocks: Vec<Block> =
            (0..8).map(|i| Block::new(format!("b{i}"), 2.0, 2.0)).collect();
        let nets = vec![Net::two_pin(0, 7, 50.0)];
        let cfg = AnnealConfig {
            iterations: 15_000,
            lambda_wirelength: 2.0,
            ..AnnealConfig::default()
        };
        let plan = anneal(&blocks, &nets, &cfg);
        let (ax, ay) = plan.blocks[0].center();
        let (bx, by) = plan.blocks[7].center();
        let dist = (ax - bx).abs() + (ay - by).abs();
        assert!(dist <= 6.0, "connected blocks ended {dist} apart");
    }

    #[test]
    fn rotatable_blocks_can_rotate() {
        let blocks = vec![
            Block::new("tall", 1.0, 6.0).rotatable(),
            Block::new("flat", 6.0, 1.0),
        ];
        let plan = anneal(&blocks, &[], &AnnealConfig::default().with_iterations(4000));
        assert!(plan.overlapping_pair().is_none());
        // Best packing rotates the tall block to stack two 6x1 rows.
        assert!(plan.area() <= 14.0, "area {}", plan.area());
    }

    #[test]
    fn empty_and_single_block_inputs() {
        assert_eq!(anneal(&[], &[], &AnnealConfig::default()).blocks.len(), 0);
        let one = anneal(&[Block::new("solo", 2.0, 2.0)], &[], &AnnealConfig::default());
        assert_eq!(one.blocks.len(), 1);
        assert_eq!(one.area(), 4.0);
    }

    #[test]
    fn constrained_mode_preserves_core_relative_order() {
        // Cores in a fixed row; two components to insert.
        let cores = vec![
            PlacedBlock::new(Block::new("c0", 2.0, 2.0), 0.0, 0.0),
            PlacedBlock::new(Block::new("c1", 2.0, 2.0), 2.5, 0.0),
            PlacedBlock::new(Block::new("c2", 2.0, 2.0), 5.0, 0.0),
        ];
        let mut blocks: Vec<Block> = cores.iter().map(|p| p.block.clone()).collect();
        blocks.push(Block::new("sw0", 0.5, 0.5));
        blocks.push(Block::new("sw1", 0.5, 0.5));
        let mut placed = cores.clone();
        placed.push(PlacedBlock::new(blocks[3].clone(), 1.0, 2.5));
        placed.push(PlacedBlock::new(blocks[4].clone(), 4.0, 2.5));
        let input = AnnealInput {
            seed: SequencePair::from_placement(&placed),
            blocks,
            ideal: vec![None, None, None, Some((1.2, 2.2, 2.0)), Some((4.2, 2.2, 2.0))],
            fixed_order_count: 3,
        };
        let cfg = TemperConfig::default().with_iterations(5000).with_replicas(1);
        let (plan, _) = anneal_tempered(&input, &[], &cfg);
        assert!(plan.overlapping_pair().is_none());
        // Core x-order must be preserved: c0 left of c1 left of c2.
        let x0 = plan.blocks[0].center().0;
        let x1 = plan.blocks[1].center().0;
        let x2 = plan.blocks[2].center().0;
        assert!(x0 < x1 && x1 < x2, "core order broken: {x0} {x1} {x2}");
    }

    #[test]
    fn fixed_outline_is_respected_when_feasible() {
        let blocks: Vec<Block> =
            (0..6).map(|i| Block::new(format!("b{i}"), 2.0, 2.0)).collect();
        let cfg = AnnealConfig {
            iterations: 20_000,
            lambda_wirelength: 0.0,
            rng_seed: 3,
            outline: Some((6.5, 6.5)),
            ..AnnealConfig::default()
        };
        let plan = anneal(&blocks, &[], &cfg);
        let (w, h) = plan.bounding_box();
        assert!(w <= 6.5 + 1e-9 && h <= 6.5 + 1e-9, "outline exceeded: {w}x{h}");
    }
}
