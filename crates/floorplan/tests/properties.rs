//! Property tests for the floorplanning substrate: sequence-pair packing is
//! always legal, insertion never leaves overlap, the annealer is
//! deterministic and never produces an illegal plan.

use proptest::prelude::*;
use sunfloor_floorplan::{
    anneal, insert_components, AnnealConfig, Block, InsertRequest, PlacedBlock,
    SequencePair,
};

fn arb_blocks(max: usize) -> impl Strategy<Value = Vec<Block>> {
    proptest::collection::vec((0.5f64..4.0, 0.5f64..4.0), 2..max).prop_map(|dims| {
        dims.into_iter()
            .enumerate()
            .map(|(i, (w, h))| Block::new(format!("b{i}"), w, h))
            .collect()
    })
}

/// Blocks together with two random permutations of their indices.
fn arb_packing_input() -> impl Strategy<Value = (Vec<Block>, Vec<usize>, Vec<usize>)> {
    arb_blocks(10).prop_flat_map(|blocks| {
        let n = blocks.len();
        let perm = || Just((0..n).collect::<Vec<usize>>()).prop_shuffle();
        (Just(blocks), perm(), perm())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence pair packs to an overlap-free placement whose bounding
    /// box can hold every block.
    #[test]
    fn packing_is_always_legal((blocks, pos, neg) in arb_packing_input()) {
        let n = blocks.len();
        let sp = SequencePair { pos, neg };
        let plan = sp.pack(&blocks, &vec![false; n]);
        prop_assert!(plan.overlapping_pair().is_none());
        let (w, h) = plan.bounding_box();
        for b in &blocks {
            prop_assert!(w + 1e-9 >= b.width && h + 1e-9 >= b.height);
        }
        // Area is at least the sum of cells.
        prop_assert!(plan.area() + 1e-9 >= plan.cell_area());
    }

    /// The annealer always returns a legal plan at least as large as its
    /// cells, and is deterministic in its seed.
    #[test]
    fn annealer_legal_and_deterministic(blocks in arb_blocks(8), seed in 0u64..50) {
        let cfg = AnnealConfig::default().with_iterations(1_500).with_seed(seed);
        let a = anneal(&blocks, &[], &cfg);
        let b = anneal(&blocks, &[], &cfg);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.overlapping_pair().is_none());
        prop_assert!(a.area() + 1e-9 >= a.cell_area());
    }

    /// Component insertion never leaves overlap, regardless of how crowded
    /// the die is, and never loses a block.
    #[test]
    fn insertion_always_legal(
        grid in 2usize..5,
        gap in 0.0f64..1.0,
        requests in proptest::collection::vec(
            ((0.2f64..1.5), (0.2f64..1.5), (0.0f64..8.0), (0.0f64..8.0)), 1..6),
    ) {
        let cores: Vec<PlacedBlock> = (0..grid * grid)
            .map(|i| {
                PlacedBlock::new(
                    Block::new(format!("c{i}"), 2.0, 2.0),
                    (i % grid) as f64 * (2.0 + gap),
                    (i / grid) as f64 * (2.0 + gap),
                )
            })
            .collect();
        let reqs: Vec<InsertRequest> = requests
            .iter()
            .enumerate()
            .map(|(k, &(w, h, x, y))| {
                InsertRequest::new(Block::new(format!("sw{k}"), w, h), (x, y))
            })
            .collect();
        let res = insert_components(&cores, &reqs, 2.5);
        prop_assert!(res.plan.overlapping_pair().is_none());
        prop_assert_eq!(res.plan.blocks.len(), cores.len() + reqs.len());
        prop_assert_eq!(res.component_centers.len(), reqs.len());
        // All coordinates stay in the first quadrant.
        for b in &res.plan.blocks {
            prop_assert!(b.x >= -1e-9 && b.y >= -1e-9);
        }
    }

    /// With ample free space the cores never move and the components land
    /// exactly at their ideal positions.
    #[test]
    fn insertion_in_empty_space_is_exact(
        x in 10.0f64..30.0,
        y in 10.0f64..30.0,
        w in 0.3f64..2.0,
    ) {
        let cores = vec![PlacedBlock::new(Block::new("c", 2.0, 2.0), 0.0, 0.0)];
        let reqs = vec![InsertRequest::new(Block::new("s", w, w), (x, y))];
        let res = insert_components(&cores, &reqs, 2.0);
        prop_assert_eq!(res.core_displacement, 0.0);
        prop_assert!(res.component_deviation < 1e-9);
        let (cx, cy) = res.component_centers[0];
        prop_assert!((cx - x).abs() < 1e-9 && (cy - y).abs() < 1e-9);
    }
}
