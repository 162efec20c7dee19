//! SunFloor's custom NoC-component insertion routine.
//!
//! Paper §VII: "we consider one switch or TSV macro at a time. We try to find
//! a free space near its ideal location to place it. … If no space is
//! available, we displace the already placed blocks from their positions in
//! the x or y direction by the size of the component, creating space. …
//! We iteratively move the necessary blocks in the same direction as the
//! first block, until we remove all overlaps. As more components are placed,
//! they can re-use the gap created by the earlier components."
//!
//! Each component first looks for free space on expanding rings of
//! candidate spots around its ideal spot; `find_free_spot` documents the
//! exact rule. Only when no ring within the search radius has room does
//! `shove_open` displace blocks. The search tests candidates only against
//! the placed blocks that can reach them, skips candidates that cannot
//! beat the best free one already found on the ring, and allocates nothing
//! per request. Its answer is the one a search that sorts each ring by
//! distance and tests every block would give; a proptest in this module
//! checks the two bit for bit.

use crate::geometry::{Block, Floorplan, PlacedBlock, Rect};

/// One NoC component (switch or TSV macro) to insert, with the ideal
/// *center* position computed by the switch-placement LP.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertRequest {
    /// The component block.
    pub block: Block,
    /// Desired center coordinates.
    pub ideal: (f64, f64),
}

impl InsertRequest {
    /// Creates an insertion request for `block` centered at `ideal`.
    #[must_use]
    pub fn new(block: Block, ideal: (f64, f64)) -> Self {
        Self { block, ideal }
    }
}

/// Outcome of inserting components into an existing core placement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionResult {
    /// The final legal floorplan: first the (possibly displaced) cores in
    /// their input order, then the components in request order.
    pub plan: Floorplan,
    /// Final center of each inserted component, in request order.
    pub component_centers: Vec<(f64, f64)>,
    /// Total Manhattan displacement the cores suffered.
    pub core_displacement: f64,
    /// Total Manhattan deviation of components from their ideal centers.
    pub component_deviation: f64,
    /// Candidate spots the free-space search tested plus `shove_open`
    /// calls: an exact measure of the insertion's work.
    pub probes: u64,
}

/// Inserts `requests` one at a time into the placement `cores`, returning a
/// legal (overlap-free) floorplan that disturbs the cores as little as
/// possible.
///
/// `search_radius` bounds the free-space search around each ideal location —
/// "the area in which we look for free space is the same for all of the
/// switches, as it is given as a constant" (§VII). Each component lands on
/// the free spot the ring search picks, or, when the search finds none, at
/// its ideal spot after the blocks in the way are shoved aside.
#[must_use]
pub fn insert_components(
    cores: &[PlacedBlock],
    requests: &[InsertRequest],
    search_radius: f64,
) -> InsertionResult {
    let mut placed: Vec<PlacedBlock> = cores.to_vec();
    let n_cores = cores.len();
    let mut centers = Vec::with_capacity(requests.len());
    let mut deviation = 0.0;
    let mut scratch = SearchScratch::default();

    for req in requests {
        let w = req.block.width;
        let h = req.block.height;
        let ideal_ll = (req.ideal.0 - w / 2.0, req.ideal.1 - h / 2.0);

        let spot = find_free_spot(&placed, w, h, ideal_ll, search_radius, &mut scratch)
            .unwrap_or_else(|| {
                scratch.probes += 1;
                shove_open(&mut placed, w, h, ideal_ll);
                ideal_ll
            });

        let pb = PlacedBlock::new(req.block.clone(), spot.0.max(0.0), spot.1.max(0.0));
        let c = pb.center();
        deviation += (c.0 - req.ideal.0).abs() + (c.1 - req.ideal.1).abs();
        centers.push(c);
        placed.push(pb);
    }

    let core_displacement = cores
        .iter()
        .zip(&placed[..n_cores])
        .map(|(a, b)| (a.x - b.x).abs() + (a.y - b.y).abs())
        .sum();

    InsertionResult {
        plan: Floorplan { blocks: placed },
        component_centers: centers,
        core_displacement,
        component_deviation: deviation,
        probes: scratch.probes,
    }
}

/// Buffers of [`find_free_spot`], reused across the requests of one
/// [`insert_components`] call.
#[derive(Default)]
struct SearchScratch {
    /// The placed rectangles that can overlap some candidate of the
    /// current request.
    window: Vec<Rect>,
    /// The sample angles of every ring a request of the call has reached.
    units: RingTable,
    /// [`InsertionResult::probes`] so far.
    probes: u64,
}

/// `(cos t_i, sin t_i)`, `t_i = i / 4j · 2π`, of the `4j` sample angles of
/// each ring `j ≥ 1` the search has reached, ring `j` at offset `2j(j − 1)`.
/// The angles depend on the ring index alone, so each ring is computed once
/// per [`insert_components`] call, when a request first reaches it.
#[derive(Default)]
struct RingTable {
    units: Vec<(f64, f64)>,
    /// Rings held in `units`: `units.len() = 2·rings·(rings + 1)`.
    rings: i32,
}

impl RingTable {
    /// The unit vectors of ring `ring ≥ 1`, computing first every ring up
    /// to it that no earlier request reached.
    fn ring(&mut self, ring: i32) -> &[(f64, f64)] {
        while self.rings < ring {
            self.rings += 1;
            let k = 4 * self.rings; // denser sampling on larger rings
            self.units.extend((0..k).map(|i| {
                let t = f64::from(i) / f64::from(k) * std::f64::consts::TAU;
                (t.cos(), t.sin())
            }));
        }
        let j = ring as usize;
        let start = 2 * j * (j - 1);
        &self.units[start..start + 4 * j]
    }
}

/// Searches expanding rings around `ideal_ll` for a lower-left corner where a
/// `w`×`h` rectangle overlaps no placed block.
///
/// Ring 0 is the ideal corner itself. Ring `j ≥ 1` has radius `j·step`, with
/// `step = max(min(w, h) / 2, 0.05)`, and samples `4j` angles
/// `t_i = i / 4j · 2π`; every coordinate is clamped to the first quadrant
/// (`max(0, ·)`). The first ring holding a free candidate wins, and on it the
/// free candidate nearest `ideal_ll` in Manhattan distance (compared with
/// `total_cmp`), ties going to the lower angle index `i` — the first free
/// element of the ring stably sorted by distance. `None` means no ring up to
/// `search_radius` has a free candidate.
///
/// The unit vectors `(cos t_i, sin t_i)` of a ring do not depend on the
/// request, so they come from the call's [`RingTable`] in `scratch`,
/// computed when a request first reaches the ring and reused by every later
/// request of the same call.
///
/// One pass over each ring finds that candidate without sorting: it keeps
/// the first free candidate whose distance is strictly smaller than the
/// best so far, and a candidate no nearer than that best is never tested.
///
/// Only the placed blocks inside a window are tested. On each axis, every
/// candidate corner lies within `[max(0, ideal − r), max(0, ideal + r)]`
/// for its ring radius `r`, because `|r·cos t| ≤ r` and both rounding and
/// the clamp are monotone. A block that cannot reach that range, widened
/// by the component's `w`×`h`, overlaps no candidate, so dropping it
/// changes no answer. The window takes the last ring's radius plus one
/// more step as a margin. The overlap test tries the rectangle that
/// blocked the previous candidate first; it is a pure predicate, so the
/// order of its tests does not change its answer.
// sf: hot-path
fn find_free_spot(
    placed: &[PlacedBlock],
    w: f64,
    h: f64,
    ideal_ll: (f64, f64),
    search_radius: f64,
    scratch: &mut SearchScratch,
) -> Option<(f64, f64)> {
    let step = (w.min(h) / 2.0).max(0.05);
    let rings = (search_radius / step).ceil() as i32;
    let clamp = |v: f64| v.max(0.0);

    let reach = f64::from(rings.max(0)) * step + step;
    let (x0, x1) = (clamp(ideal_ll.0 - reach), clamp(ideal_ll.0 + reach) + w);
    let (y0, y1) = (clamp(ideal_ll.1 - reach), clamp(ideal_ll.1 + reach) + h);
    let window = &mut scratch.window;
    window.clear();
    window.extend(
        placed
            .iter()
            .map(PlacedBlock::rect)
            .filter(|p| p.x + p.w > x0 && p.x < x1 && p.y + p.h > y0 && p.y < y1),
    );

    let mut blocker = 0;
    let probes = &mut scratch.probes;
    let mut free = |x: f64, y: f64| -> bool {
        *probes += 1;
        let r = Rect::new(x, y, w, h);
        if window.get(blocker).is_some_and(|p| p.overlaps(&r)) {
            return false;
        }
        match window.iter().position(|p| p.overlaps(&r)) {
            Some(i) => {
                blocker = i;
                false
            }
            None => true,
        }
    };

    // Ring 0: the ideal spot itself.
    let (ix, iy) = (clamp(ideal_ll.0), clamp(ideal_ll.1));
    if free(ix, iy) {
        return Some((ix, iy));
    }
    for ring in 1..=rings {
        let r = f64::from(ring) * step;
        let mut best: Option<(f64, (f64, f64))> = None;
        for &(cos, sin) in scratch.units.ring(ring) {
            let (x, y) = (clamp(ideal_ll.0 + r * cos), clamp(ideal_ll.1 + r * sin));
            let d = (x - ideal_ll.0).abs() + (y - ideal_ll.1).abs();
            if best.is_some_and(|(bd, _)| d.total_cmp(&bd).is_ge()) {
                continue;
            }
            if free(x, y) {
                best = Some((d, (x, y)));
            }
        }
        if let Some((_, spot)) = best {
            return Some(spot);
        }
    }
    None
}

/// Clears a `w`×`h` hole at `ll` by displacing every overlapping block along
/// one axis (the one minimizing total displaced area), then iteratively
/// pushing followers in the same direction until no overlap remains — the
/// paper's shove strategy.
///
/// Blocks are only ever pushed in the +x or +y direction: movement is then
/// strictly monotone, so the cascade always terminates (pushing towards the
/// axes could pin a block at 0 and loop forever).
fn shove_open(placed: &mut [PlacedBlock], w: f64, h: f64, ll: (f64, f64)) {
    let hole = Rect::new(ll.0.max(0.0), ll.1.max(0.0), w, h);

    // Pick the axis requiring the smaller total displacement.
    let spread_x: f64 = placed
        .iter()
        .filter(|p| p.rect().overlaps(&hole))
        .map(|p| (hole.x + hole.w - p.x).max(0.0))
        .sum();
    let spread_y: f64 = placed
        .iter()
        .filter(|p| p.rect().overlaps(&hole))
        .map(|p| (hole.y + hole.h - p.y).max(0.0))
        .sum();
    let push_x = spread_x <= spread_y;

    // Plow sweep: process blocks in ascending order along the push axis and
    // clear each against the hole plus every already-processed block. Each
    // clearing step moves a block strictly forward past a finite obstacle
    // set, so the sweep terminates and leaves no overlap.
    const GAP: f64 = 1e-6;
    let mut order: Vec<usize> = (0..placed.len()).collect();
    order.sort_by(|&a, &b| {
        if push_x {
            placed[a].x.total_cmp(&placed[b].x)
        } else {
            placed[a].y.total_cmp(&placed[b].y)
        }
    });
    let mut settled: Vec<Rect> = vec![hole];
    for &i in &order {
        loop {
            let rect = placed[i].rect();
            let Some(ob) = settled.iter().find(|o| o.overlaps(&rect)).copied() else {
                break;
            };
            if push_x {
                placed[i].x = ob.x + ob.w + GAP;
            } else {
                placed[i].y = ob.y + ob.h + GAP;
            }
        }
        settled.push(placed[i].rect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_cores(nx: usize, ny: usize, size: f64, gap: f64) -> Vec<PlacedBlock> {
        let mut v = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                v.push(PlacedBlock::new(
                    Block::new(format!("c{i}_{j}"), size, size),
                    i as f64 * (size + gap),
                    j as f64 * (size + gap),
                ));
            }
        }
        v
    }

    #[test]
    fn component_lands_in_existing_gap() {
        // 2x2 cores with a 1.0 gap: a 0.5 switch fits between them.
        let cores = grid_cores(2, 2, 2.0, 1.0);
        let req = vec![InsertRequest::new(Block::new("sw", 0.5, 0.5), (2.5, 2.5))];
        let res = insert_components(&cores, &req, 5.0);
        assert!(res.plan.overlapping_pair().is_none());
        assert_eq!(res.core_displacement, 0.0, "cores should not move");
        let (cx, cy) = res.component_centers[0];
        assert!((cx - 2.5).abs() < 1e-9 && (cy - 2.5).abs() < 1e-9, "got ({cx},{cy})");
    }

    #[test]
    fn tight_pack_forces_a_shove() {
        // Zero-gap 3x3 grid: no free space anywhere near the middle.
        let cores = grid_cores(3, 3, 2.0, 0.0);
        let req = vec![InsertRequest::new(Block::new("sw", 1.0, 1.0), (3.0, 3.0))];
        let res = insert_components(&cores, &req, 1.4);
        assert!(res.plan.overlapping_pair().is_none(), "overlap left behind");
        assert!(res.core_displacement > 0.0, "a shove must move cores");
    }

    #[test]
    fn later_components_reuse_created_gaps() {
        let cores = grid_cores(3, 3, 2.0, 0.0);
        let reqs = vec![
            InsertRequest::new(Block::new("sw0", 1.0, 1.0), (3.0, 3.0)),
            InsertRequest::new(Block::new("sw1", 0.8, 0.8), (3.2, 3.1)),
        ];
        let res = insert_components(&cores, &reqs, 2.0);
        assert!(res.plan.overlapping_pair().is_none());
        // The second component should sit close to the first (same region),
        // benefiting from the shoved-open space.
        let (ax, ay) = res.component_centers[0];
        let (bx, by) = res.component_centers[1];
        assert!((ax - bx).abs() + (ay - by).abs() < 6.0);
    }

    #[test]
    fn insertion_into_empty_die() {
        let res = insert_components(
            &[],
            &[InsertRequest::new(Block::new("sw", 1.0, 1.0), (4.0, 4.0))],
            2.0,
        );
        assert_eq!(res.component_centers[0], (4.0, 4.0));
        assert_eq!(res.component_deviation, 0.0);
    }

    #[test]
    fn ideal_position_near_origin_is_clamped() {
        let res = insert_components(
            &[],
            &[InsertRequest::new(Block::new("sw", 2.0, 2.0), (0.0, 0.0))],
            2.0,
        );
        let b = &res.plan.blocks[0];
        assert!(b.x >= 0.0 && b.y >= 0.0);
        assert!(res.plan.overlapping_pair().is_none());
    }

    #[test]
    fn many_insertions_stay_legal() {
        let cores = grid_cores(4, 4, 1.5, 0.2);
        let reqs: Vec<InsertRequest> = (0..8)
            .map(|i| {
                InsertRequest::new(
                    Block::new(format!("sw{i}"), 0.4, 0.4),
                    (0.9 * i as f64, 6.0 - 0.7 * i as f64),
                )
            })
            .collect();
        let res = insert_components(&cores, &reqs, 3.0);
        assert!(res.plan.overlapping_pair().is_none());
        assert_eq!(res.plan.blocks.len(), 16 + 8);
    }

    /// The free-space search as first written: one `cos`/`sin` pair per
    /// candidate, each ring stably sorted by Manhattan distance, and every
    /// candidate tested against every placed block.
    fn reference_find_free_spot(
        placed: &[PlacedBlock],
        w: f64,
        h: f64,
        ideal_ll: (f64, f64),
        search_radius: f64,
    ) -> Option<(f64, f64)> {
        let step = (w.min(h) / 2.0).max(0.05);
        let rings = (search_radius / step).ceil() as i32;
        let free = |x: f64, y: f64| -> bool {
            let r = Rect::new(x, y, w, h);
            placed.iter().all(|p| !p.rect().overlaps(&r))
        };
        let clamp = |v: f64| v.max(0.0);
        let (ix, iy) = (clamp(ideal_ll.0), clamp(ideal_ll.1));
        if free(ix, iy) {
            return Some((ix, iy));
        }
        for ring in 1..=rings {
            let r = f64::from(ring) * step;
            let mut candidates: Vec<(f64, f64)> = Vec::new();
            let k = 4 * ring;
            for i in 0..k {
                let t = f64::from(i) / f64::from(k) * std::f64::consts::TAU;
                candidates.push((clamp(ideal_ll.0 + r * t.cos()), clamp(ideal_ll.1 + r * t.sin())));
            }
            candidates.sort_by(|a, b| {
                let da = (a.0 - ideal_ll.0).abs() + (a.1 - ideal_ll.1).abs();
                let db = (b.0 - ideal_ll.0).abs() + (b.1 - ideal_ll.1).abs();
                da.total_cmp(&db)
            });
            for (x, y) in candidates {
                if free(x, y) {
                    return Some((x, y));
                }
            }
        }
        None
    }

    /// [`insert_components`] driven by [`reference_find_free_spot`].
    fn reference_insert_components(
        cores: &[PlacedBlock],
        requests: &[InsertRequest],
        search_radius: f64,
    ) -> InsertionResult {
        let mut placed: Vec<PlacedBlock> = cores.to_vec();
        let mut centers = Vec::new();
        let mut deviation = 0.0;
        for req in requests {
            let w = req.block.width;
            let h = req.block.height;
            let ideal_ll = (req.ideal.0 - w / 2.0, req.ideal.1 - h / 2.0);
            let spot = reference_find_free_spot(&placed, w, h, ideal_ll, search_radius)
                .unwrap_or_else(|| {
                    shove_open(&mut placed, w, h, ideal_ll);
                    ideal_ll
                });
            let pb = PlacedBlock::new(req.block.clone(), spot.0.max(0.0), spot.1.max(0.0));
            let c = pb.center();
            deviation += (c.0 - req.ideal.0).abs() + (c.1 - req.ideal.1).abs();
            centers.push(c);
            placed.push(pb);
        }
        let core_displacement = cores
            .iter()
            .zip(&placed[..cores.len()])
            .map(|(a, b)| (a.x - b.x).abs() + (a.y - b.y).abs())
            .sum();
        InsertionResult {
            plan: Floorplan { blocks: placed },
            component_centers: centers,
            core_displacement,
            component_deviation: deviation,
            probes: 0,
        }
    }

    /// Every float of an insertion result as raw bits, so `-0.0` against
    /// `0.0` or a last-ulp difference counts as a mismatch.
    fn result_bits(res: &InsertionResult) -> Vec<u64> {
        let mut v = Vec::new();
        for b in &res.plan.blocks {
            v.extend([b.x, b.y, b.block.width, b.block.height].map(f64::to_bits));
            v.push(u64::from(b.rotated));
        }
        for &(x, y) in &res.component_centers {
            v.extend([x.to_bits(), y.to_bits()]);
        }
        v.extend([res.core_displacement.to_bits(), res.component_deviation.to_bits()]);
        v
    }

    /// One call whose requests reach a small ring, then a large one, then
    /// a middle one: the ring table grows past the middle ring on the
    /// second request, so the third reads a ring computed for an earlier
    /// request. Each 0.1 mm component (0.05 mm step) sits in the concave
    /// corner of its own L of two cores, the only free space near it lies
    /// diagonally beyond the corner, and the spot found is off the axes, so
    /// a ring read from the wrong offset finds a different spot.
    #[test]
    fn ring_table_reused_out_of_order_matches_reference_bit_for_bit() {
        let mut cores = Vec::new();
        for (k, ox) in [0.0, 30.0, 60.0].into_iter().enumerate() {
            cores.push(PlacedBlock::new(Block::new(format!("a{k}"), 10.0, 20.0), ox, 0.0));
            cores.push(PlacedBlock::new(Block::new(format!("b{k}"), 10.0, 10.0), ox + 10.0, 0.0));
        }
        // Corner depths 0.05, 1.95 and 0.95 mm.
        let requests: Vec<InsertRequest> = [(9.95, 9.95), (38.05, 8.05), (69.05, 9.05)]
            .iter()
            .enumerate()
            .map(|(n, &ideal)| InsertRequest::new(Block::new(format!("sw{n}"), 0.1, 0.1), ideal))
            .collect();
        let fast = insert_components(&cores, &requests, 10.0);
        let reference = reference_insert_components(&cores, &requests, 10.0);
        assert_eq!(result_bits(&fast), result_bits(&reference));
        assert_eq!(fast.core_displacement, 0.0, "every request must find free space");
        // The ring each request stopped on, from its component's distance
        // to the ideal spot, and whether that spot is off the axes.
        let reached: Vec<(i64, bool)> = fast
            .component_centers
            .iter()
            .zip(&requests)
            .map(|(c, r)| {
                let (dx, dy) = (c.0 - r.ideal.0, c.1 - r.ideal.1);
                ((dx.hypot(dy) / 0.05).round() as i64, dx.abs() > 1e-9 && dy.abs() > 1e-9)
            })
            .collect();
        assert_eq!(reached, vec![(4, true), (58, true), (30, true)]);
    }

    /// A core grid `(nx, ny, size, gap)`, zero-gap half the time; blocks
    /// scattered over and around it as `(x, y, w, h, rotated)`; requests;
    /// and a search radius. A request is `(kind, tsv, a, b, u, v)`: `tsv`
    /// picks a TSV-macro size (0.05–0.3 mm, on the 0.05 mm step floor)
    /// over a switch size (0.3–1.5 mm); `kind` puts the ideal centre within
    /// 1 mm of the origin, negative coordinates included (0), anywhere over
    /// the grid (1), or on a grid corner (2).
    #[allow(clippy::type_complexity)]
    fn arb_insertion_case() -> impl Strategy<
        Value = (
            (usize, usize, f64, f64),
            Vec<(f64, f64, f64, f64, bool)>,
            Vec<(u8, bool, f64, f64, f64, f64)>,
            f64,
        ),
    > {
        let grid = (1usize..6, 1usize..6, 0.4f64..3.0, 0.0f64..0.6, prop::bool::ANY)
            .prop_map(|(nx, ny, size, gap, zero)| (nx, ny, size, if zero { 0.0 } else { gap }));
        let scatter = (0.0f64..16.0, 0.0f64..16.0, 0.1f64..2.0, 0.1f64..2.0, prop::bool::ANY);
        let request = (0u8..3, prop::bool::ANY, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0);
        (
            grid,
            prop::collection::vec(scatter, 0..12),
            prop::collection::vec(request, 1..8),
            0.5f64..5.0,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The windowed, sort-free search returns the reference search's
        /// spot on every request, so the whole insertion is bit-identical:
        /// plan, centres, core displacement and component deviation.
        #[test]
        fn windowed_search_matches_reference_bit_for_bit(
            ((nx, ny, size, gap), scatter, raw, radius) in arb_insertion_case()
        ) {
            let mut cores = grid_cores(nx, ny, size, gap);
            cores.extend(scatter.iter().enumerate().map(|(n, &(x, y, w, h, rotated))| {
                PlacedBlock { rotated, ..PlacedBlock::new(Block::new(format!("s{n}"), w, h), x, y) }
            }));
            let pitch = size + gap;
            let requests: Vec<InsertRequest> = raw
                .iter()
                .enumerate()
                .map(|(n, &(kind, tsv, a, b, u, v))| {
                    let (w, h) = if tsv {
                        (0.05 + 0.25 * a, 0.05 + 0.25 * b)
                    } else {
                        (0.3 + 1.2 * a, 0.3 + 1.2 * b)
                    };
                    let ideal = match kind {
                        0 => (2.0 * u - 1.0, 2.0 * v - 1.0),
                        1 => (u * nx as f64 * pitch, v * ny as f64 * pitch),
                        _ => (
                            (u * nx as f64).floor() * pitch + w / 2.0,
                            (v * ny as f64).floor() * pitch + h / 2.0,
                        ),
                    };
                    InsertRequest::new(Block::new(format!("n{n}"), w, h), ideal)
                })
                .collect();
            let fast = insert_components(&cores, &requests, radius);
            let reference = reference_insert_components(&cores, &requests, radius);
            prop_assert_eq!(result_bits(&fast), result_bits(&reference));
        }
    }
}
