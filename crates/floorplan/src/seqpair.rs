//! Sequence-pair floorplan representation and packing.

use crate::geometry::{Block, Floorplan, PlacedBlock};

/// The sequence-pair representation of a block arrangement.
///
/// Two permutations `(P, N)` of the block indices encode pairwise geometric
/// relations: block `a` is *left of* `b` when `a` precedes `b` in both
/// sequences, and *below* `b` when `a` follows `b` in `P` but precedes it in
/// `N`. Packing resolves these relations to the tightest legal lower-left
/// placement via longest-path computations — the same representation used by
/// Parquet-class annealers.
///
/// # Example
///
/// ```
/// use sunfloor_floorplan::{Block, SequencePair};
///
/// let blocks = vec![Block::new("a", 1.0, 1.0), Block::new("b", 2.0, 1.0)];
/// let sp = SequencePair::identity(2);
/// let plan = sp.pack(&blocks, &[false, false]);
/// // Identity sequences put every block left-of the next: a row.
/// assert_eq!(plan.bounding_box(), (3.0, 1.0));
/// assert!(plan.overlapping_pair().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    /// The positive sequence `P`.
    pub pos: Vec<usize>,
    /// The negative sequence `N`.
    pub neg: Vec<usize>,
}

impl SequencePair {
    /// The identity sequence pair over `n` blocks (all blocks in one row).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self { pos: (0..n).collect(), neg: (0..n).collect() }
    }

    /// Approximates a sequence pair from existing block placements using the
    /// classic diagonal keys: `P` ordered by `x − y`, `N` ordered by `x + y`
    /// of the block centers. Exact for grid-like placements; used to seed
    /// the constrained annealer with the input floorplan.
    #[must_use]
    pub fn from_placement(placed: &[PlacedBlock]) -> Self {
        let mut pos: Vec<usize> = (0..placed.len()).collect();
        let mut neg = pos.clone();
        pos.sort_by(|&a, &b| {
            let (ax, ay) = placed[a].center();
            let (bx, by) = placed[b].center();
            (ax - ay).total_cmp(&(bx - by))
        });
        neg.sort_by(|&a, &b| {
            let (ax, ay) = placed[a].center();
            let (bx, by) = placed[b].center();
            (ax + ay).total_cmp(&(bx + by))
        });
        Self { pos, neg }
    }

    /// Number of blocks represented.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the sequence pair is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Packs `blocks` (with per-block rotation flags) to the tightest
    /// lower-left placement consistent with the encoded relations.
    ///
    /// Allocates a fresh [`Floorplan`] (including block-name clones); hot
    /// loops that only need coordinates — the simulated-annealing inner
    /// loop — use [`Self::pack_into`] with a reusable [`PackScratch`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` or `rotated.len()` disagree with the
    /// sequence length.
    #[must_use]
    pub fn pack(&self, blocks: &[Block], rotated: &[bool]) -> Floorplan {
        let mut scratch = PackScratch::default();
        self.pack_into(blocks, rotated, &mut scratch);
        Floorplan {
            blocks: (0..self.pos.len())
                .map(|b| PlacedBlock {
                    block: blocks[b].clone(),
                    x: scratch.x[b],
                    y: scratch.y[b],
                    rotated: rotated[b],
                })
                .collect(),
        }
    }

    /// Packs into `scratch` without building a [`Floorplan`]: coordinates
    /// land in [`PackScratch::x`]/[`PackScratch::y`] and the
    /// rotation-effective dimensions in [`PackScratch::w`]/[`PackScratch::h`].
    ///
    /// This is the Tang/Wong longest-common-subsequence formulation: each
    /// coordinate pass walks one sequence and answers "longest packed
    /// extent among my feasible prefix" with a Fenwick prefix-max tree
    /// over the other sequence's ranks, dropping the per-block work from
    /// O(n) to O(log n) — O(n log n) per pack instead of the longest-path
    /// O(n²). The feasible-prefix scan of the longest-path form survives
    /// as the tree's exclusive prefix query, and because `max` is
    /// order-insensitive the coordinates are bit-identical to the
    /// longest-path packing (the reference oracle in this module's tests).
    ///
    /// All scratch vectors are resized in place, so a reused scratch makes
    /// the call allocation-free — this is what keeps the annealer's
    /// per-iteration cost down.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` or `rotated.len()` disagree with the
    /// sequence length.
    pub fn pack_into(&self, blocks: &[Block], rotated: &[bool], scratch: &mut PackScratch) {
        let n = self.pos.len();
        assert_eq!(blocks.len(), n, "block count mismatch");
        assert_eq!(rotated.len(), n, "rotation flag count mismatch");
        scratch.resize(n);
        let PackScratch { pp, nn, x, y, w, h, fen } = scratch;
        for (i, &b) in self.pos.iter().enumerate() {
            pp[b] = i;
        }
        for (i, &b) in self.neg.iter().enumerate() {
            nn[b] = i;
        }
        for b in 0..n {
            if rotated[b] {
                w[b] = blocks[b].height;
                h[b] = blocks[b].width;
            } else {
                w[b] = blocks[b].width;
                h[b] = blocks[b].height;
            }
        }
        let _ = pack_xy(&self.pos, &self.neg, pp, nn, x, y, fen, w, h);
    }

    /// The LCS packing of [`Self::pack_into`] with caller-provided
    /// rotation-effective dimensions: only the `x`/`y` coordinates land in
    /// `scratch`. The annealer maintains `w`/`h` incrementally (a rotation
    /// move swaps one block's pair) instead of rebuilding them from the
    /// block list on every pack.
    ///
    /// Returns the packed bounding box `(width, height)` — read off the
    /// Fenwick roots for free, and bit-identical to a max-fold over the
    /// packed extents (a packed placement always has a block at x = 0 and
    /// one at y = 0, so the box is just the two maxima).
    ///
    /// # Panics
    ///
    /// Panics if `w.len()` or `h.len()` disagree with the sequence length.
    pub fn pack_coords_into(&self, w: &[f64], h: &[f64], scratch: &mut PackScratch) -> (f64, f64) {
        let n = self.pos.len();
        assert_eq!(w.len(), n, "width count mismatch");
        assert_eq!(h.len(), n, "height count mismatch");
        scratch.resize(n);
        let PackScratch { pp, nn, x, y, fen, .. } = scratch;
        for (i, &b) in self.pos.iter().enumerate() {
            pp[b] = i;
        }
        for (i, &b) in self.neg.iter().enumerate() {
            nn[b] = i;
        }
        pack_xy(&self.pos, &self.neg, pp, nn, x, y, fen, w, h)
    }

    /// [`Self::pack_coords_into`] with caller-maintained sequence ranks:
    /// `pp`/`nn` must be the inverse permutations of `pos`/`neg`. The
    /// annealer keeps them current across reinsertion moves (an O(|from −
    /// to|) range touch-up) instead of rebuilding both arrays per pack.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with the sequence length.
    // sf: hot-path
    pub fn pack_coords_ranked(
        &self,
        pp: &[usize],
        nn: &[usize],
        w: &[f64],
        h: &[f64],
        scratch: &mut PackScratch,
    ) -> (f64, f64) {
        let n = self.pos.len();
        assert_eq!(pp.len(), n, "pos rank count mismatch");
        assert_eq!(nn.len(), n, "neg rank count mismatch");
        assert_eq!(w.len(), n, "width count mismatch");
        assert_eq!(h.len(), n, "height count mismatch");
        debug_assert!(self.pos.iter().enumerate().all(|(i, &b)| pp[b] == i), "stale pos ranks");
        debug_assert!(self.neg.iter().enumerate().all(|(i, &b)| nn[b] == i), "stale neg ranks");
        scratch.resize(n);
        let PackScratch { x, y, fen, .. } = scratch;
        pack_xy(&self.pos, &self.neg, pp, nn, x, y, fen, w, h)
    }

}

/// The two LCS coordinate passes shared by [`SequencePair::pack_into`] and
/// [`SequencePair::pack_coords_into`].
///
/// x: blocks left of `b` are exactly those earlier in *both* sequences;
/// walking P, the tree holds `x + w` of every placed block keyed by
/// N-rank, so the exclusive prefix max below b's N-rank is its packed x.
/// y: blocks below `b` are later in P but earlier in N; walking N with the
/// tree keyed by *reversed* P-rank turns "later in P" into the same
/// exclusive prefix query.
#[allow(clippy::too_many_arguments)]
fn pack_xy(
    pos: &[usize],
    neg: &[usize],
    pp: &[usize],
    nn: &[usize],
    x: &mut [f64],
    y: &mut [f64],
    fen: &mut [f64],
    w: &[f64],
    h: &[f64],
) -> (f64, f64) {
    let n = pos.len();
    fen_clear(fen, n);
    for &b in pos {
        let r = nn[b];
        x[b] = fen_prefix_max(fen, r);
        fen_update(fen, n, r, x[b] + w[b]);
    }
    let bw = fen_prefix_max(fen, n);
    fen_clear(fen, n);
    for &b in neg {
        let r = n - 1 - pp[b];
        y[b] = fen_prefix_max(fen, r);
        fen_update(fen, n, r, y[b] + h[b]);
    }
    let bh = fen_prefix_max(fen, n);
    (bw, bh)
}

/// Resets the 1-based Fenwick prefix-max tree for `n` ranks.
fn fen_clear(fen: &mut [f64], n: usize) {
    fen[..=n].fill(0.0);
}

/// Max over ranks `< r` (exclusive prefix); 0.0 when the prefix is empty —
/// the same neutral element the longest-path scan starts from.
fn fen_prefix_max(fen: &[f64], r: usize) -> f64 {
    let mut i = r; // 1-based index of the last included rank (r-1).
    let mut best = 0.0f64;
    while i > 0 {
        best = best.max(fen[i]);
        i &= i - 1;
    }
    best
}

/// Raises the tree's value at rank `r` (each rank is written once per
/// pack, so stored maxima only grow).
fn fen_update(fen: &mut [f64], n: usize, r: usize, v: f64) {
    let mut i = r + 1; // 1-based.
    while i <= n {
        fen[i] = fen[i].max(v);
        i += i & i.wrapping_neg();
    }
}

/// Reusable packing workspace for [`SequencePair::pack_into`].
///
/// Holds the sequence ranks, the packed lower-left coordinates and the
/// rotation-effective block dimensions. Reusing one scratch across many
/// packs (the annealer does tens of thousands) avoids all per-pack heap
/// traffic.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// Rank of each block in the positive sequence.
    pub pp: Vec<usize>,
    /// Rank of each block in the negative sequence.
    pub nn: Vec<usize>,
    /// Packed lower-left x per block.
    pub x: Vec<f64>,
    /// Packed lower-left y per block.
    pub y: Vec<f64>,
    /// Effective width per block (rotation applied).
    pub w: Vec<f64>,
    /// Effective height per block (rotation applied).
    pub h: Vec<f64>,
    /// Fenwick prefix-max tree of the LCS packing (1-based, `n + 1` slots).
    fen: Vec<f64>,
}

impl PackScratch {
    fn resize(&mut self, n: usize) {
        self.pp.resize(n, 0);
        self.nn.resize(n, 0);
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.w.resize(n, 0.0);
        self.h.resize(n, 0.0);
        self.fen.resize(n + 1, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The O(n²) longest-path packing the LCS [`SequencePair::pack_into`]
    /// must reproduce bit for bit.
    fn pack_into_longest_path(
        sp: &SequencePair,
        blocks: &[Block],
        rotated: &[bool],
        scratch: &mut PackScratch,
    ) {
        let n = sp.pos.len();
        assert_eq!(blocks.len(), n, "block count mismatch");
        assert_eq!(rotated.len(), n, "rotation flag count mismatch");
        scratch.resize(n);
        let PackScratch { pp, nn, x, y, w, h, .. } = scratch;

        for (i, &b) in sp.pos.iter().enumerate() {
            pp[b] = i;
        }
        for (i, &b) in sp.neg.iter().enumerate() {
            nn[b] = i;
        }
        for b in 0..n {
            if rotated[b] {
                w[b] = blocks[b].height;
                h[b] = blocks[b].width;
            } else {
                w[b] = blocks[b].width;
                h[b] = blocks[b].height;
            }
        }

        // x: longest path over the left-of relation; process in P order so
        // predecessors (earlier in both sequences) are final. The blocks
        // with `pp[a] < pp[b]` are exactly the prefix of P before `b`, so
        // only that prefix is scanned (`max` is order-insensitive, so the
        // result is unchanged).
        for (i, &b) in sp.pos.iter().enumerate() {
            let nn_b = nn[b];
            let mut best = 0.0f64;
            for &a in &sp.pos[..i] {
                if nn[a] < nn_b {
                    best = best.max(x[a] + w[a]);
                }
            }
            x[b] = best;
        }

        // y: longest path over the below relation (after in P, before in N);
        // process in N order so predecessors are final. `nn[a] < nn[b]` is
        // exactly the prefix of N before `b`.
        for (i, &b) in sp.neg.iter().enumerate() {
            let pp_b = pp[b];
            let mut best = 0.0f64;
            for &a in &sp.neg[..i] {
                if pp[a] > pp_b {
                    best = best.max(y[a] + h[a]);
                }
            }
            y[b] = best;
        }
    }


    /// 2–9 blocks together with two random permutations of their indices.
    fn arb_packing_input() -> impl Strategy<Value = (Vec<Block>, Vec<usize>, Vec<usize>)> {
        proptest::collection::vec((0.5f64..4.0, 0.5f64..4.0), 2..10).prop_flat_map(|dims| {
            let n = dims.len();
            let blocks: Vec<Block> =
                dims.iter().enumerate().map(|(i, &(w, h))| Block::new(format!("b{i}"), w, h)).collect();
            let perm = || Just((0..n).collect::<Vec<usize>>()).prop_shuffle();
            (Just(blocks), perm(), perm())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The O(n log n) LCS packing must produce the *bit-identical*
        /// `(x, y, width, height)` results of the O(n²) longest-path
        /// reference oracle, on arbitrary sequence pairs, block sets and
        /// per-block rotation flags.
        #[test]
        fn lcs_packing_matches_longest_path_oracle(
            (blocks, pos, neg) in arb_packing_input(),
            rot_bits in proptest::collection::vec(proptest::bool::ANY, 10..11),
        ) {
            let n = blocks.len();
            let rotated: Vec<bool> = (0..n).map(|i| rot_bits[i % rot_bits.len()]).collect();
            let sp = SequencePair { pos, neg };
            let mut lcs = PackScratch::default();
            let mut reference = PackScratch::default();
            sp.pack_into(&blocks, &rotated, &mut lcs);
            pack_into_longest_path(&sp, &blocks, &rotated, &mut reference);
            for b in 0..n {
                prop_assert_eq!(lcs.x[b].to_bits(), reference.x[b].to_bits(), "x of block {}", b);
                prop_assert_eq!(lcs.y[b].to_bits(), reference.y[b].to_bits(), "y of block {}", b);
                prop_assert_eq!(lcs.w[b].to_bits(), reference.w[b].to_bits(), "w of block {}", b);
                prop_assert_eq!(lcs.h[b].to_bits(), reference.h[b].to_bits(), "h of block {}", b);
            }
        }
    }

    fn squares(n: usize) -> Vec<Block> {
        (0..n).map(|i| Block::new(format!("b{i}"), 1.0, 1.0)).collect()
    }

    #[test]
    fn identity_packs_into_a_row() {
        let blocks = squares(4);
        let plan = SequencePair::identity(4).pack(&blocks, &[false; 4]);
        assert_eq!(plan.bounding_box(), (4.0, 1.0));
    }

    #[test]
    fn reversed_pos_packs_into_a_column() {
        let blocks = squares(3);
        let sp = SequencePair { pos: vec![2, 1, 0], neg: vec![0, 1, 2] };
        let plan = sp.pack(&blocks, &[false; 3]);
        assert_eq!(plan.bounding_box(), (1.0, 3.0));
    }

    #[test]
    fn packing_never_overlaps() {
        // A mixed sequence pair over blocks of varying sizes.
        let blocks = vec![
            Block::new("a", 2.0, 1.0),
            Block::new("b", 1.0, 3.0),
            Block::new("c", 2.0, 2.0),
            Block::new("d", 1.0, 1.0),
            Block::new("e", 3.0, 1.0),
        ];
        let sp = SequencePair { pos: vec![3, 0, 2, 4, 1], neg: vec![0, 1, 3, 4, 2] };
        let plan = sp.pack(&blocks, &[false; 5]);
        assert!(plan.overlapping_pair().is_none(), "{plan:?}");
    }

    #[test]
    fn rotation_affects_packing() {
        let blocks = vec![Block::new("a", 4.0, 1.0), Block::new("b", 4.0, 1.0)];
        let sp = SequencePair::identity(2);
        let flat = sp.pack(&blocks, &[false, false]);
        assert_eq!(flat.bounding_box(), (8.0, 1.0));
        let mixed = sp.pack(&blocks, &[true, true]);
        assert_eq!(mixed.bounding_box(), (2.0, 4.0));
    }

    #[test]
    fn from_placement_roundtrip_on_grid() {
        // 2x2 grid of unit blocks.
        let blocks = squares(4);
        let placed = vec![
            PlacedBlock::new(blocks[0].clone(), 0.0, 0.0),
            PlacedBlock::new(blocks[1].clone(), 1.0, 0.0),
            PlacedBlock::new(blocks[2].clone(), 0.0, 1.0),
            PlacedBlock::new(blocks[3].clone(), 1.0, 1.0),
        ];
        let sp = SequencePair::from_placement(&placed);
        let plan = sp.pack(&blocks, &[false; 4]);
        assert!(plan.overlapping_pair().is_none());
        assert_eq!(plan.bounding_box(), (2.0, 2.0));
    }
}
