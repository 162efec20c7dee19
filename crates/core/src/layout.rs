//! Physical layout of the synthesized NoC: switch/TSV-macro insertion into
//! the per-layer floorplans (paper §III and §VII).
//!
//! Switches are inserted near their LP-optimal positions with the custom
//! shove-based routine; explicit TSV macros are added on every intermediate
//! layer a vertical link drills through (Fig. 2 — the macro at the two end
//! layers is embedded in the switch/NI itself and needs no separate block).

use crate::spec::SocSpec;
use crate::topology::Topology;
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use sunfloor_floorplan::{
    anneal_tempered, insert_components, AnnealInput, Block, Floorplan, IdealTarget, InsertRequest,
    PlacedBlock, SequencePair, TemperConfig,
};
use sunfloor_models::NocLibrary;

/// Result of laying out one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// One legal floorplan per layer (cores, switches, TSV macros).
    pub layers: Vec<Floorplan>,
    /// Die area required per layer, mm².
    pub layer_area_mm2: Vec<f64>,
    /// Total Manhattan displacement cores suffered during insertion.
    pub core_displacement_mm: f64,
    /// Total deviation of switches from their LP-ideal centers.
    pub switch_deviation_mm: f64,
    /// [`sunfloor_floorplan::InsertionResult::probes`] summed over the
    /// layers; 0 for [`layout_design_tempered`].
    pub shove_probes: u64,
}

impl Layout {
    /// The stack's die area: wafer-to-wafer stacking uses equal dies, so the
    /// largest layer dictates the area (mm²).
    #[must_use]
    pub fn die_area_mm2(&self) -> f64 {
        self.layer_area_mm2.iter().copied().fold(0.0, f64::max)
    }
}

/// Counters from the tempered-annealing layout path. A sweep counts them
/// at commit, in candidate order, so serial and parallel sweeps report
/// identical totals: what a serial sweep performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnealStats {
    /// Tempered layer anneals performed: layer layouts whose anneal input
    /// no earlier layout of the run had.
    pub runs: u64,
    /// Replica-exchange attempts across those runs.
    pub swap_attempts: u64,
    /// Replica-exchange acceptances across those runs.
    pub swap_accepts: u64,
    /// Layer layouts that reused the anneal of an earlier layout of the
    /// run with the same input.
    pub reused: u64,
}

impl AnnealStats {
    /// Fraction of attempted replica exchanges that were accepted.
    #[must_use]
    pub fn swap_acceptance(&self) -> f64 {
        if self.swap_attempts == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.swap_accepts as f64 / self.swap_attempts as f64
            }
        }
    }
}

impl AddAssign for AnnealStats {
    fn add_assign(&mut self, rhs: Self) {
        self.runs += rhs.runs;
        self.swap_attempts += rhs.swap_attempts;
        self.swap_accepts += rhs.swap_accepts;
        self.reused += rhs.reused;
    }
}

/// The exact bits of one layer anneal's varying input: the layer index and
/// each NoC component's width, height and ideal center, in request order.
/// Everything else the anneal reads is constant within a run: the layer's
/// cores, the per-layer seed and the `TemperConfig`. Block names are not
/// part of it, so `sw3` and `sw5` of the same geometry share an anneal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LayerKey {
    layer: u32,
    components: Vec<[u64; 4]>,
}

impl LayerKey {
    fn new(layer: u32, requests: &[InsertRequest]) -> Self {
        let components = requests
            .iter()
            .map(|r| {
                let b = &r.block;
                [b.width.to_bits(), b.height.to_bits(), r.ideal.0.to_bits(), r.ideal.1.to_bits()]
            })
            .collect();
        Self { layer, components }
    }
}

/// What one layer anneal produced: every block's `(x, y, rotated)` in
/// input order (cores, then components), and its replica-exchange counts.
#[derive(Debug)]
struct Annealed {
    positions: Vec<(f64, f64, bool)>,
    swap_attempts: u64,
    swap_accepts: u64,
}

/// One layer anneal of a run, shared by every layout with its key.
#[derive(Debug, Default)]
pub(crate) struct LayerAnneal {
    /// Set by the first layout to ask; the others wait for it.
    result: OnceLock<Annealed>,
    /// Whether a committed layout has counted this anneal as a run. Only
    /// the committing thread touches it, so `Relaxed` suffices; `result`
    /// publishes the anneal itself.
    counted: AtomicBool,
}

/// A run's tempered layer anneals, one per distinct [`LayerKey`]. Each key
/// is annealed exactly once, by whichever worker asks first, even when
/// several ask at the same time.
#[derive(Debug, Default)]
pub(crate) struct LayoutMemo {
    layers: Mutex<BTreeMap<LayerKey, Arc<LayerAnneal>>>,
}

impl LayoutMemo {
    /// The anneal of `key`, created empty on first request.
    fn entry(&self, key: LayerKey) -> Arc<LayerAnneal> {
        // Poison recovery: the map only ever holds whole entries.
        let mut layers = self.layers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(layers.entry(key).or_default())
    }
}

/// Counts `layouts`, in order: an anneal no earlier counted layout used is
/// a run, with its swap counts; the others are reused. Called once per
/// committed candidate, in candidate order.
pub(crate) fn count_layouts(layouts: &[Arc<LayerAnneal>]) -> AnnealStats {
    let mut stats = AnnealStats::default();
    for layer in layouts {
        if layer.counted.swap(true, Ordering::Relaxed) {
            stats.reused += 1;
        } else if let Some(a) = layer.result.get() {
            stats.runs += 1;
            stats.swap_attempts += a.swap_attempts;
            stats.swap_accepts += a.swap_accepts;
        }
    }
    stats
}

/// The cores of one layer as placed blocks, in `cores_in_layer` order.
fn layer_cores(soc: &SocSpec, layer: u32) -> Vec<PlacedBlock> {
    soc.cores_in_layer(layer)
        .into_iter()
        .map(|c| {
            let core = &soc.cores[c];
            PlacedBlock::new(Block::new(core.name.clone(), core.width, core.height), core.x, core.y)
        })
        .collect()
}

/// The NoC components destined for one layer: this layer's switches (with
/// the switch ids they map back to), then the explicit TSV macros of every
/// vertical link or core attachment whose interior crosses the layer
/// (Fig. 2 — end-layer macros are embedded in the switch/NI itself).
fn layer_requests(
    topo: &Topology,
    soc: &SocSpec,
    lib: &NocLibrary,
    layer: u32,
) -> (Vec<InsertRequest>, Vec<usize>) {
    let mut requests = Vec::new();
    let mut switch_ids = Vec::new();
    for s in 0..topo.switch_count() {
        if topo.switch_layer[s] != layer {
            continue;
        }
        let area = lib.switch.area_mm2(topo.input_ports(s), topo.output_ports(s));
        let side = area.sqrt();
        requests.push(InsertRequest::new(
            Block::new(format!("sw{s}"), side, side),
            topo.switch_pos[s],
        ));
        switch_ids.push(s);
    }

    let macro_side = lib.tsv.macro_area_mm2(lib.link.flit_width_bits).sqrt();
    let add_macro = |a_layer: u32, b_layer: u32, a_pos: (f64, f64), b_pos: (f64, f64),
                         tag: String,
                         requests: &mut Vec<InsertRequest>| {
        let (lo, hi) = if a_layer <= b_layer { (a_layer, b_layer) } else { (b_layer, a_layer) };
        if lo < layer && layer < hi {
            let mid = ((a_pos.0 + b_pos.0) / 2.0, (a_pos.1 + b_pos.1) / 2.0);
            requests.push(InsertRequest::new(Block::new(tag, macro_side, macro_side), mid));
        }
    };
    for (li, l) in topo.links.iter().enumerate() {
        add_macro(
            topo.switch_layer[l.from],
            topo.switch_layer[l.to],
            topo.switch_pos[l.from],
            topo.switch_pos[l.to],
            format!("tsv_l{li}"),
            &mut requests,
        );
    }
    for (c, &sw) in topo.core_attach.iter().enumerate() {
        add_macro(
            soc.cores[c].layer,
            topo.switch_layer[sw],
            soc.cores[c].center(),
            topo.switch_pos[sw],
            format!("tsv_c{c}"),
            &mut requests,
        );
    }
    (requests, switch_ids)
}

/// Inserts the NoC components of `topo` into the input core placement and
/// rewrites `topo.switch_pos` with the final post-insertion switch centers.
///
/// `search_radius_mm` bounds the free-space search of the custom insertion
/// routine (§VII: a constant, identical for all switches).
#[must_use]
pub fn layout_design(
    topo: &mut Topology,
    soc: &SocSpec,
    lib: &NocLibrary,
    search_radius_mm: f64,
) -> Layout {
    let mut plans = Vec::with_capacity(soc.layers as usize);
    let mut areas = Vec::with_capacity(soc.layers as usize);
    let mut core_disp = 0.0;
    let mut sw_dev = 0.0;
    let mut probes = 0;

    for layer in 0..soc.layers {
        let cores = layer_cores(soc, layer);
        let (requests, switch_ids) = layer_requests(topo, soc, lib, layer);

        let result = insert_components(&cores, &requests, search_radius_mm);
        core_disp += result.core_displacement;
        sw_dev += result.component_deviation;
        probes += result.probes;
        for (k, &s) in switch_ids.iter().enumerate() {
            topo.switch_pos[s] = result.component_centers[k];
        }
        areas.push(result.plan.area());
        plans.push(result.plan);
    }

    Layout {
        layers: plans,
        layer_area_mm2: areas,
        core_displacement_mm: core_disp,
        switch_deviation_mm: sw_dev,
        shove_probes: probes,
    }
}

/// Weight charged per mm of a component's Manhattan deviation from its
/// LP-ideal center in the tempered layout path (the same weight the
/// §VIII-D constrained-floorplanner baseline uses).
const IDEAL_WEIGHT: f64 = 2.0;

/// Alternative to [`layout_design`]: places each layer's NoC components
/// with the deterministic parallel-tempering constrained annealer instead
/// of the shove-insertion routine. Cores keep their relative order (the
/// constrained-mode guarantee) but may shift; components are pulled toward
/// their LP-ideal centers. Rewrites `topo.switch_pos` like
/// [`layout_design`] and additionally returns the accumulated
/// [`AnnealStats`]: one run per layer.
///
/// The per-layer seed is derived from `temper.base.rng_seed` and the layer
/// index, so the result is a pure function of `(topo, soc, lib, temper)` —
/// scheduling-independent like everything else in the sweep.
#[must_use]
pub fn layout_design_tempered(
    topo: &mut Topology,
    soc: &SocSpec,
    lib: &NocLibrary,
    temper: &TemperConfig,
) -> (Layout, AnnealStats) {
    let mut layouts = Vec::new();
    let layout =
        layout_design_tempered_memo(topo, soc, lib, temper, &LayoutMemo::default(), &mut layouts);
    (layout, count_layouts(&layouts))
}

/// [`layout_design_tempered`] through a run's `memo`: a layer whose
/// [`LayerKey`] an earlier layout of the run had takes that anneal's
/// positions instead of annealing again. The floorplan is rebuilt from the
/// current blocks either way, so names like `sw{s}` and `tsv_l{li}` stay
/// those of `topo`. Each layer's anneal is appended to `layouts`, for
/// [`count_layouts`].
///
/// `memo` must only ever see one `(soc, lib, temper)`: the key leaves out
/// what a run holds constant.
pub(crate) fn layout_design_tempered_memo(
    topo: &mut Topology,
    soc: &SocSpec,
    lib: &NocLibrary,
    temper: &TemperConfig,
    memo: &LayoutMemo,
    layouts: &mut Vec<Arc<LayerAnneal>>,
) -> Layout {
    let mut plans = Vec::with_capacity(soc.layers as usize);
    let mut areas = Vec::with_capacity(soc.layers as usize);
    let mut core_disp = 0.0;
    let mut sw_dev = 0.0;

    for layer in 0..soc.layers {
        let cores = layer_cores(soc, layer);
        let (requests, switch_ids) = layer_requests(topo, soc, lib, layer);

        // Seed placement: cores as given, components centered on their
        // ideal spots (overlaps are fine — the sequence pair only encodes
        // relative order, and packing legalizes).
        let mut blocks: Vec<Block> = cores.iter().map(|p| p.block.clone()).collect();
        let mut placed = cores.clone();
        let mut ideal: Vec<IdealTarget> = vec![None; cores.len()];
        for req in &requests {
            blocks.push(req.block.clone());
            placed.push(PlacedBlock::new(
                req.block.clone(),
                req.ideal.0 - req.block.width / 2.0,
                req.ideal.1 - req.block.height / 2.0,
            ));
            ideal.push(Some((req.ideal.0, req.ideal.1, IDEAL_WEIGHT)));
        }
        let input = AnnealInput {
            seed: SequencePair::from_placement(&placed),
            blocks,
            ideal,
            fixed_order_count: cores.len(),
        };
        let anneal = memo.entry(LayerKey::new(layer, &requests));
        let annealed = anneal.result.get_or_init(|| {
            // Decorrelate layers without losing determinism: the layer
            // index perturbs the seed through a fixed odd constant.
            let cfg_layer = temper.clone().with_seed(
                temper.base.rng_seed ^ u64::from(layer).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let (plan, tstats) = anneal_tempered(&input, &[], &cfg_layer);
            Annealed {
                positions: plan.blocks.iter().map(|b| (b.x, b.y, b.rotated)).collect(),
                swap_attempts: tstats.swap_attempts,
                swap_accepts: tstats.swap_accepts,
            }
        });
        let plan = Floorplan {
            blocks: input
                .blocks
                .into_iter()
                .zip(&annealed.positions)
                .map(|(block, &(x, y, rotated))| PlacedBlock { block, x, y, rotated })
                .collect(),
        };
        layouts.push(anneal);

        for (i, core) in cores.iter().enumerate() {
            let moved = &plan.blocks[i];
            core_disp += (moved.x - core.x).abs() + (moved.y - core.y).abs();
        }
        for (k, req) in requests.iter().enumerate() {
            let c = plan.blocks[cores.len() + k].center();
            sw_dev += (c.0 - req.ideal.0).abs() + (c.1 - req.ideal.1).abs();
        }
        for (k, &s) in switch_ids.iter().enumerate() {
            topo.switch_pos[s] = plan.blocks[cores.len() + k].center();
        }
        areas.push(plan.area());
        plans.push(plan);
    }

    Layout {
        layers: plans,
        layer_area_mm2: areas,
        core_displacement_mm: core_disp,
        switch_deviation_mm: sw_dev,
        shove_probes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CommGraph;
    use crate::paths::{PathAllocator, PathConfig};
    use crate::phase1::Connectivity;
    use crate::spec::{CommSpec, Core, Flow, MessageType};

    fn three_layer_design() -> (SocSpec, CommGraph, Topology) {
        let soc = SocSpec::new(
            (0..6)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 2.0,
                    height: 2.0,
                    x: f64::from(i % 2) * 2.5,
                    y: 0.0,
                    layer: i / 2,
                })
                .collect(),
            3,
        )
        .unwrap();
        let f = |src, dst| Flow {
            src,
            dst,
            bandwidth_mbs: 200.0,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        };
        let comm = CommSpec::new(vec![f(0, 4), f(1, 3), f(2, 5)], &soc).unwrap();
        let graph = CommGraph::new(&soc, &comm);
        let cfg = PathConfig::new(25, 11, 400.0);
        let conn = Connectivity {
            core_attach: vec![0, 0, 1, 1, 2, 2],
            switch_layer: vec![0, 1, 2],
            est_positions: vec![(1.0, 1.0), (2.0, 1.0), (1.5, 1.0)],
            theta: None,
        };
        let lib = NocLibrary::lp65();
        let topo = PathAllocator::new().compute_paths(&graph, &conn, &lib, &cfg, 1.0).unwrap();
        (soc, graph, topo)
    }

    #[test]
    fn layouts_are_legal_per_layer() {
        let (soc, _, mut topo) = three_layer_design();
        let layout = layout_design(&mut topo, &soc, &NocLibrary::lp65(), 3.0);
        assert_eq!(layout.layers.len(), 3);
        for (l, plan) in layout.layers.iter().enumerate() {
            assert!(plan.overlapping_pair().is_none(), "overlap on layer {l}");
        }
        assert!(layout.die_area_mm2() >= layout.layer_area_mm2[0]);
    }

    #[test]
    fn switch_positions_updated_to_final_centers() {
        let (soc, _, mut topo) = three_layer_design();
        let before = topo.switch_pos.clone();
        let layout = layout_design(&mut topo, &soc, &NocLibrary::lp65(), 3.0);
        let _ = layout;
        // Positions are now block centers inside the floorplans; each switch
        // block must exist on its layer's plan at that center.
        for s in 0..topo.switch_count() {
            let plan = &layout.layers[topo.switch_layer[s] as usize];
            let found = plan
                .blocks
                .iter()
                .any(|b| b.block.name == format!("sw{s}") && {
                    let (cx, cy) = b.center();
                    (cx - topo.switch_pos[s].0).abs() < 1e-9
                        && (cy - topo.switch_pos[s].1).abs() < 1e-9
                });
            assert!(found, "switch {s} center not found in its layer plan");
        }
        let _ = before;
    }

    #[test]
    fn tempered_layout_is_legal_and_writes_switch_centers_back() {
        let (soc, _, mut topo) = three_layer_design();
        let temper = TemperConfig {
            base: sunfloor_floorplan::AnnealConfig::default().with_iterations(2_000),
            replicas: 2,
            ..TemperConfig::default()
        };
        let (layout, stats) = layout_design_tempered(&mut topo, &soc, &NocLibrary::lp65(), &temper);
        assert_eq!(layout.layers.len(), 3);
        for (l, plan) in layout.layers.iter().enumerate() {
            assert!(plan.overlapping_pair().is_none(), "overlap on layer {l}");
            // The cores stay first and keep their identity on each layer.
            let cores: Vec<&str> = soc
                .cores
                .iter()
                .filter(|c| c.layer == l as u32)
                .map(|c| c.name.as_str())
                .collect();
            for (i, name) in cores.iter().enumerate() {
                assert_eq!(plan.blocks[i].block.name, *name, "core order broken on layer {l}");
            }
        }
        for s in 0..topo.switch_count() {
            let plan = &layout.layers[topo.switch_layer[s] as usize];
            let found = plan.blocks.iter().any(|b| {
                b.block.name == format!("sw{s}") && {
                    let (cx, cy) = b.center();
                    (cx - topo.switch_pos[s].0).abs() < 1e-9
                        && (cy - topo.switch_pos[s].1).abs() < 1e-9
                }
            });
            assert!(found, "switch {s} center not written back");
        }
        assert_eq!(stats.runs, 3, "one tempered anneal per layer");
    }

    #[test]
    fn tempered_layout_is_deterministic_across_runs() {
        let temper = TemperConfig {
            base: sunfloor_floorplan::AnnealConfig::default().with_iterations(2_000),
            replicas: 3,
            ..TemperConfig::default()
        };
        let (soc, _, mut topo_a) = three_layer_design();
        let mut topo_b = topo_a.clone();
        let (la, sa) = layout_design_tempered(&mut topo_a, &soc, &NocLibrary::lp65(), &temper);
        let (lb, sb) = layout_design_tempered(&mut topo_b, &soc, &NocLibrary::lp65(), &temper);
        assert_eq!(la, lb, "tempered layout must be a pure function of its inputs");
        assert_eq!(sa, sb);
        assert_eq!(topo_a.switch_pos, topo_b.switch_pos);
    }

    /// `topo` with its switch ids reversed: the same network, each switch
    /// under another name.
    fn reversed_switch_ids(topo: &Topology) -> Topology {
        let n = topo.switch_count();
        let id = |s: usize| n - 1 - s;
        let mut t = topo.clone();
        for s in 0..n {
            t.switch_layer[id(s)] = topo.switch_layer[s];
            t.switch_pos[id(s)] = topo.switch_pos[s];
        }
        for l in &mut t.links {
            (l.from, l.to) = (id(l.from), id(l.to));
        }
        for a in &mut t.core_attach {
            *a = id(*a);
        }
        t
    }

    #[test]
    fn memo_reuses_same_input_anneals_and_keeps_the_current_names() {
        let (soc, _, topo) = three_layer_design();
        let lib = NocLibrary::lp65();
        let temper = TemperConfig {
            base: sunfloor_floorplan::AnnealConfig::default().with_iterations(2_000),
            replicas: 2,
            ..TemperConfig::default()
        };
        let fresh = |t: &Topology| {
            let mut t = t.clone();
            let (layout, stats) = layout_design_tempered(&mut t, &soc, &lib, &temper);
            (layout, t.switch_pos, stats)
        };
        let memo = LayoutMemo::default();
        let through_memo = |t: &Topology| {
            let mut t = t.clone();
            let mut used = Vec::new();
            let layout = layout_design_tempered_memo(&mut t, &soc, &lib, &temper, &memo, &mut used);
            (layout, t.switch_pos, used)
        };

        let (layout, pos, first) = through_memo(&topo);
        let (fresh_layout, fresh_pos, fresh_stats) = fresh(&topo);
        assert_eq!((&layout, &pos), (&fresh_layout, &fresh_pos));
        assert_eq!(count_layouts(&first), fresh_stats, "a first layout anneals every layer");
        assert_eq!(fresh_stats.runs, 3);

        // Same geometry under other switch ids: every layer is reused, and
        // the plans carry the relabeled names, as fresh anneals would.
        let relabeled = reversed_switch_ids(&topo);
        let (layout, pos, second) = through_memo(&relabeled);
        let (fresh_layout, fresh_pos, _) = fresh(&relabeled);
        assert_eq!((&layout, &pos), (&fresh_layout, &fresh_pos));
        assert!(first.iter().zip(&second).all(|(a, b)| Arc::ptr_eq(a, b)));
        let last = topo.switch_count() - 1;
        assert!(layout.layers[0].blocks.iter().any(|b| b.block.name == format!("sw{last}")));
        assert_eq!(count_layouts(&second), AnnealStats { reused: 3, ..AnnealStats::default() });

        // A moved ideal center is another input: annealed afresh.
        let mut moved = topo.clone();
        moved.switch_pos[0].0 += 0.5;
        let (layout, pos, third) = through_memo(&moved);
        let (fresh_layout, fresh_pos, _) = fresh(&moved);
        assert_eq!((&layout, &pos), (&fresh_layout, &fresh_pos));
        assert!(!Arc::ptr_eq(&first[0], &third[0]), "layer 0's input changed");
    }

    #[test]
    fn intermediate_tsv_macro_placed_for_multi_layer_link() {
        let (soc, _, mut topo) = three_layer_design();
        // Force a direct layer-0 to layer-2 link by construction if routing
        // produced one; otherwise synthesize the situation manually.
        let spans: Vec<_> = topo
            .links
            .iter()
            .filter(|l| topo.switch_layer[l.from].abs_diff(topo.switch_layer[l.to]) >= 2)
            .collect();
        let has_span = !spans.is_empty();
        let layout = layout_design(&mut topo, &soc, &NocLibrary::lp65(), 3.0);
        let macros_on_middle =
            layout.layers[1].blocks.iter().filter(|b| b.block.name.starts_with("tsv_")).count();
        if has_span {
            assert!(macros_on_middle > 0, "multi-layer link needs a TSV macro on layer 1");
        }
    }
}
