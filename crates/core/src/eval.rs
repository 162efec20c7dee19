//! Design-point evaluation: power breakdown, zero-load latency, vertical
//! link census and wire-length statistics.
//!
//! The power split follows the paper's Figs. 10–11 (switch power,
//! switch-to-switch link power, core-to-switch link power) and Table I
//! (link / switch / total power plus average latency). Zero-load latency is
//! counted the way §VIII-A discusses it: one cycle per switch traversed plus
//! one cycle per extra pipeline stage on long wires, so a flow through a
//! single switch over short links has "a zero load latency of just one
//! cycle".

use crate::graph::CommGraph;
use crate::spec::SocSpec;
use crate::topology::Topology;
use sunfloor_models::NocLibrary;

/// NoC power split in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// All switches.
    pub switch_mw: f64,
    /// Switch-to-switch links (wires, TSVs, pipeline registers).
    pub switch_link_mw: f64,
    /// Core-to-switch links (both directions, incl. vertical hops).
    pub core_link_mw: f64,
    /// Network interfaces.
    pub ni_mw: f64,
}

impl PowerBreakdown {
    /// Total NoC power in milliwatts.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.switch_mw + self.switch_link_mw + self.core_link_mw + self.ni_mw
    }

    /// Link power only (the "Link Power" column of Table I).
    #[must_use]
    pub fn link_mw(&self) -> f64 {
        self.switch_link_mw + self.core_link_mw
    }
}

/// Everything the trade-off exploration needs to know about one design
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Power split.
    pub power: PowerBreakdown,
    /// Mean zero-load latency over all flows, cycles.
    pub avg_latency_cycles: f64,
    /// Worst slack violation over all flows, cycles (0 when all latency
    /// constraints hold).
    pub worst_latency_violation: f64,
    /// Directed vertical links crossing each adjacent-layer boundary.
    pub inter_layer_links: Vec<u32>,
    /// Per-link planar wire lengths (switch-to-switch then core-to-switch),
    /// mm — the Fig. 12 histogram data.
    pub wire_lengths_mm: Vec<f64>,
    /// Number of switches.
    pub switch_count: usize,
    /// Operating frequency, MHz.
    pub frequency_mhz: f64,
}

impl DesignMetrics {
    /// Whether every flow meets its latency constraint.
    #[must_use]
    pub fn meets_latency(&self) -> bool {
        self.worst_latency_violation <= 0.0
    }

    /// Largest vertical-link count over the boundaries.
    #[must_use]
    pub fn max_inter_layer_links(&self) -> u32 {
        self.inter_layer_links.iter().copied().max().unwrap_or(0)
    }

    /// Whether every floating-point figure is finite. Extreme spec numbers
    /// (e.g. a bandwidth near `f64::MAX`) can overflow the power model to
    /// `inf`/`NaN`; such a design must not be reported as feasible, not
    /// least because a NaN anywhere breaks `PartialEq` self-equality of
    /// the outcome.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.power.switch_mw.is_finite()
            && self.power.switch_link_mw.is_finite()
            && self.power.core_link_mw.is_finite()
            && self.power.ni_mw.is_finite()
            && self.avg_latency_cycles.is_finite()
            && self.worst_latency_violation.is_finite()
            && self.wire_lengths_mm.iter().all(|w| w.is_finite())
    }
}

/// Planar Manhattan length (mm) of the link between two planar positions.
fn manhattan(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// Evaluates a routed and placed topology.
///
/// `topo.switch_pos` must already hold meaningful positions (from the LP or
/// from final floorplan insertion); lengths and power follow those
/// positions.
#[must_use]
pub fn evaluate(
    topo: &Topology,
    soc: &SocSpec,
    graph: &CommGraph,
    lib: &NocLibrary,
    frequency_mhz: f64,
) -> DesignMetrics {
    let nsw = topo.switch_count();

    // --- per-core traffic (for NI + core link power) ----------------------
    let mut core_out_gbps = vec![0.0f64; soc.core_count()];
    let mut core_in_gbps = vec![0.0f64; soc.core_count()];
    for e in graph.edge_list() {
        let g = e.bandwidth_mbs * 8.0 / 1000.0;
        core_out_gbps[e.src] += g;
        core_in_gbps[e.dst] += g;
    }

    // --- traffic through each switch --------------------------------------
    let mut through_gbps = vec![0.0f64; nsw];
    for (fi, path) in topo.flow_paths.iter().enumerate() {
        let g = graph.edge_list()[fi].bandwidth_mbs * 8.0 / 1000.0;
        for &s in &path.switches {
            through_gbps[s] += g;
        }
    }

    // --- switch power ------------------------------------------------------
    let mut switch_mw = 0.0;
    for (s, &gbps) in through_gbps.iter().enumerate().take(nsw) {
        switch_mw += lib.switch.power_mw(
            topo.input_ports(s),
            topo.output_ports(s),
            gbps,
            frequency_mhz,
        );
    }

    // --- switch-to-switch link power and lengths ---------------------------
    let mut switch_link_mw = 0.0;
    let mut wire_lengths = Vec::new();
    for l in &topo.links {
        let len = manhattan(topo.switch_pos[l.from], topo.switch_pos[l.to]);
        let hops = topo.switch_layer[l.from].abs_diff(topo.switch_layer[l.to]);
        switch_link_mw += lib.link.power_mw(len, l.bandwidth_gbps, frequency_mhz)
            + lib.tsv.power_mw(hops, l.bandwidth_gbps);
        wire_lengths.push(len);
    }

    // --- core-to-switch link power and lengths ------------------------------
    let mut core_link_mw = 0.0;
    let mut ni_mw = 0.0;
    for (c, &sw) in topo.core_attach.iter().enumerate() {
        let len = manhattan(soc.cores[c].center(), topo.switch_pos[sw]);
        let hops = graph.core_layers()[c].abs_diff(topo.switch_layer[sw]);
        // Two directed links: core->switch carries the core's egress, and
        // switch->core its ingress.
        core_link_mw += lib.link.power_mw(len, core_out_gbps[c], frequency_mhz)
            + lib.link.power_mw(len, core_in_gbps[c], frequency_mhz)
            + lib.tsv.power_mw(hops, core_out_gbps[c] + core_in_gbps[c]);
        ni_mw += lib.ni.power_mw(core_out_gbps[c] + core_in_gbps[c], frequency_mhz);
        wire_lengths.push(len);
    }

    // --- zero-load latency ---------------------------------------------------
    let mut lat_sum = 0.0;
    let mut worst_violation = 0.0f64;
    for (fi, path) in topo.flow_paths.iter().enumerate() {
        let e = &graph.edge_list()[fi];
        let mut cycles =
            path.switches.len() as f64 * f64::from(lib.switch.traversal_cycles);
        // Extra pipeline stages: core->first switch, inter-switch hops,
        // last switch->core.
        let first = path.switches[0];
        let last = path.switches[path.switches.len() - 1];
        cycles += f64::from(lib.link.pipeline_stages(
            manhattan(soc.cores[e.src].center(), topo.switch_pos[first]),
            frequency_mhz,
        ));
        cycles += f64::from(lib.link.pipeline_stages(
            manhattan(topo.switch_pos[last], soc.cores[e.dst].center()),
            frequency_mhz,
        ));
        for w in path.switches.windows(2) {
            cycles += f64::from(lib.link.pipeline_stages(
                manhattan(topo.switch_pos[w[0]], topo.switch_pos[w[1]]),
                frequency_mhz,
            ));
        }
        lat_sum += cycles;
        worst_violation = worst_violation.max(cycles - e.latency_cycles);
    }
    let flows = topo.flow_paths.len().max(1) as f64;

    DesignMetrics {
        power: PowerBreakdown { switch_mw, switch_link_mw, core_link_mw, ni_mw },
        avg_latency_cycles: lat_sum / flows,
        worst_latency_violation: worst_violation,
        inter_layer_links: topo.inter_layer_link_census(graph.core_layers(), graph.layers()),
        wire_lengths_mm: wire_lengths,
        switch_count: nsw,
        frequency_mhz,
    }
}

/// Buckets wire lengths into a histogram with `bucket_mm`-wide bins — the
/// data series of Fig. 12.
#[must_use]
pub fn wire_length_histogram(lengths_mm: &[f64], bucket_mm: f64) -> Vec<(f64, usize)> {
    assert!(bucket_mm > 0.0, "bucket width must be positive");
    let max = lengths_mm.iter().copied().fold(0.0f64, f64::max);
    let buckets = (max / bucket_mm).floor() as usize + 1;
    let mut hist = vec![0usize; buckets];
    for &l in lengths_mm {
        hist[(l / bucket_mm).floor() as usize] += 1;
    }
    hist.into_iter().enumerate().map(|(i, n)| (i as f64 * bucket_mm, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{PathAllocator, PathConfig};
    use crate::phase1::Connectivity;
    use crate::spec::{CommSpec, Core, Flow, MessageType};

    fn setup(flow_lat: f64) -> (SocSpec, CommGraph, Topology) {
        let soc = SocSpec::new(
            vec![
                Core { name: "a".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 0 },
                Core { name: "b".into(), width: 2.0, height: 2.0, x: 3.0, y: 0.0, layer: 0 },
                Core { name: "c".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 1 },
            ],
            2,
        )
        .unwrap();
        let f = |src, dst, bw: f64| Flow {
            src,
            dst,
            bandwidth_mbs: bw,
            max_latency_cycles: flow_lat,
            message_type: MessageType::Request,
        };
        let comm = CommSpec::new(vec![f(0, 1, 200.0), f(0, 2, 400.0)], &soc).unwrap();
        let graph = CommGraph::new(&soc, &comm);
        let cfg = PathConfig::new(25, 11, 400.0);
        let conn = Connectivity {
            core_attach: vec![0, 1, 1],
            switch_layer: vec![0, 1],
            est_positions: vec![(1.0, 1.0), (3.0, 1.0)],
            theta: None,
        };
        let lib = NocLibrary::lp65();
        let topo = PathAllocator::new().compute_paths(&graph, &conn, &lib, &cfg, 1.0).unwrap();
        (soc, graph, topo)
    }

    #[test]
    fn power_components_all_positive_and_sum() {
        let (soc, graph, topo) = setup(10.0);
        let m = evaluate(&topo, &soc, &graph, &NocLibrary::lp65(), 400.0);
        assert!(m.power.switch_mw > 0.0);
        assert!(m.power.switch_link_mw > 0.0);
        assert!(m.power.core_link_mw > 0.0);
        assert!(m.power.ni_mw > 0.0);
        let sum = m.power.switch_mw + m.power.switch_link_mw + m.power.core_link_mw
            + m.power.ni_mw;
        assert!((m.power.total_mw() - sum).abs() < 1e-12);
    }

    #[test]
    fn latency_counts_switches_and_stages() {
        let (soc, graph, topo) = setup(10.0);
        let m = evaluate(&topo, &soc, &graph, &NocLibrary::lp65(), 400.0);
        // Flow 0 goes a(sw0) -> b(sw1): 2 switches; flow 1 a(sw0) -> c(sw1):
        // 2 switches. Links are short at these positions (< budget), so
        // latency = 2 cycles each.
        assert!((m.avg_latency_cycles - 2.0).abs() < 1e-9, "{}", m.avg_latency_cycles);
        assert!(m.meets_latency());
    }

    #[test]
    fn violated_latency_is_reported() {
        let (soc, graph, topo) = setup(1.0); // impossible: 2 switches needed
        let m = evaluate(&topo, &soc, &graph, &NocLibrary::lp65(), 400.0);
        assert!(!m.meets_latency());
        assert!((m.worst_latency_violation - 1.0).abs() < 1e-9);
    }

    #[test]
    fn longer_wires_cost_more_power() {
        let (soc, graph, mut topo) = setup(10.0);
        let near = evaluate(&topo, &soc, &graph, &NocLibrary::lp65(), 400.0);
        // Pull switch 1 far away: switch-link and core-link power must grow.
        topo.switch_pos[1] = (40.0, 1.0);
        let far = evaluate(&topo, &soc, &graph, &NocLibrary::lp65(), 400.0);
        assert!(far.power.switch_link_mw > near.power.switch_link_mw);
        assert!(far.power.core_link_mw > near.power.core_link_mw);
        // And the long wire now needs pipeline stages: latency grows.
        assert!(far.avg_latency_cycles > near.avg_latency_cycles);
    }

    #[test]
    fn ill_census_matches_topology_helper() {
        let (soc, graph, topo) = setup(10.0);
        let m = evaluate(&topo, &soc, &graph, &NocLibrary::lp65(), 400.0);
        let layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
        assert_eq!(m.inter_layer_links, topo.inter_layer_link_census(&layers, 2));
    }

    #[test]
    fn histogram_buckets_correctly() {
        let hist = wire_length_histogram(&[0.2, 0.4, 1.2, 2.6, 2.9], 1.0);
        assert_eq!(hist, vec![(0.0, 2), (1.0, 1), (2.0, 2)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn histogram_rejects_zero_bucket() {
        let _ = wire_length_histogram(&[1.0], 0.0);
    }
}
