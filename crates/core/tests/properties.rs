//! Property tests on the synthesis core: randomized SoCs and flow sets must
//! always produce structurally consistent graphs, routes and metrics.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sunfloor_core::graph::CommGraph;
use sunfloor_core::paths::{PathAllocator, PathConfig};
use sunfloor_core::phase1::Connectivity;
use sunfloor_core::spec::{CommSpec, Core, Flow, MessageType, SocSpec};
use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine};
use sunfloor_core::topology::Topology;
use sunfloor_models::NocLibrary;

/// A random small SoC: `n` cores spread over `layers` layers on a loose
/// grid, plus a random set of flows.
fn arb_design() -> impl Strategy<Value = (SocSpec, CommSpec)> {
    (4usize..10, 1u32..4).prop_flat_map(|(n, layers)| {
        let flows = proptest::collection::vec(
            (0..n, 0..n, 20.0f64..400.0, prop::bool::ANY),
            1..(2 * n),
        );
        flows.prop_filter_map("self flows removed", move |raw| {
            let cores: Vec<Core> = (0..n)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 1.0 + (i % 3) as f64 * 0.5,
                    height: 1.0 + (i % 2) as f64 * 0.5,
                    x: (i % 4) as f64 * 2.0,
                    y: (i / 4) as f64 * 2.0,
                    layer: (i as u32) % layers,
                })
                .collect();
            let soc = SocSpec::new(cores, layers).ok()?;
            let flows: Vec<Flow> = raw
                .into_iter()
                .filter(|&(s, d, _, _)| s != d)
                .map(|(src, dst, bw, resp)| Flow {
                    src,
                    dst,
                    bandwidth_mbs: bw,
                    max_latency_cycles: 20.0,
                    message_type: if resp { MessageType::Response } else { MessageType::Request },
                })
                .collect();
            if flows.is_empty() {
                return None;
            }
            let comm = CommSpec::new(flows, &soc).ok()?;
            Some((soc, comm))
        })
    })
}

/// Every flow follows a simple path between its cores' switches, and every
/// link carries exactly its flows' bandwidth, all of one message class.
fn check_routed(
    g: &CommGraph,
    core_attach: &[usize],
    topo: &Topology,
) -> Result<(), TestCaseError> {
    for (fi, e) in g.edge_list().iter().enumerate() {
        let path = &topo.flow_paths[fi].switches;
        prop_assert!(!path.is_empty());
        prop_assert_eq!(path[0], core_attach[e.src]);
        prop_assert_eq!(*path.last().unwrap(), core_attach[e.dst]);
        // Paths are simple (no switch repeated).
        let mut seen = std::collections::BTreeSet::new();
        for &s in path {
            prop_assert!(seen.insert(s), "cycle in path {path:?}");
        }
    }
    for l in &topo.links {
        let sum: f64 =
            l.flows.iter().map(|&fi| g.edge_list()[fi].bandwidth_mbs * 8.0 / 1000.0).sum();
        prop_assert!((l.bandwidth_gbps - sum).abs() < 1e-9);
        for &fi in &l.flows {
            prop_assert_eq!(g.edge_list()[fi].class, l.class);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition-3 weights are within [0, 1] for any α in [0, 1], and the
    /// heaviest edge gets weight 1 at α = 1.
    #[test]
    fn pg_weights_are_normalized((soc, comm) in arb_design(), alpha in 0.0f64..1.0) {
        let g = CommGraph::new(&soc, &comm);
        for e in g.edge_list() {
            let w = g.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&w));
        }
        prop_assert!((g.max_weight(1.0) - 1.0).abs() < 1e-9);
    }

    /// SPG extra edges never exceed one tenth of the maximum PG weight
    /// (eq. 1's stated bound).
    #[test]
    fn spg_extra_edges_bounded((soc, comm) in arb_design(), theta in 1.0f64..15.0) {
        let g = CommGraph::new(&soc, &comm);
        let max_wt = g.max_weight(1.0);
        let spg = g.scaled_partitioning_graph(1.0, theta, 15.0);
        let pg = g.partitioning_graph(1.0);
        let n = soc.core_count();
        for a in 0..n {
            for b in (a + 1)..n {
                if pg.edge_weight(a, b) == 0.0 && spg.edge_weight(a, b) > 0.0 {
                    prop_assert!(soc.cores[a].layer == soc.cores[b].layer);
                    prop_assert!(spg.edge_weight(a, b) <= max_wt / 10.0 + 1e-12);
                }
            }
        }
    }

    /// Routing a trivially-valid connectivity (one switch per layer) always
    /// yields structurally consistent topologies: under loose budgets it
    /// always succeeds, and under tight ones — where the soft `max_ill` and
    /// switch-size thresholds steer the router — every topology it does
    /// return stays within both hard limits.
    #[test]
    fn routing_invariants_hold(
        (soc, comm) in arb_design(),
        tight in (1u32..5, 0u32..4),
    ) {
        let g = CommGraph::new(&soc, &comm);
        let layers = soc.layers;
        // One switch per populated layer, each core to its layer's switch.
        let mut switch_of_layer = vec![usize::MAX; layers as usize];
        let mut switch_layer = Vec::new();
        for l in 0..layers {
            if !soc.cores_in_layer(l).is_empty() {
                switch_of_layer[l as usize] = switch_layer.len();
                switch_layer.push(l);
            }
        }
        let core_attach: Vec<usize> =
            soc.cores.iter().map(|c| switch_of_layer[c.layer as usize]).collect();
        let conn = Connectivity {
            est_positions: vec![(2.0, 2.0); switch_layer.len()],
            core_attach,
            switch_layer,
            theta: None,
        };
        let route = |cfg: &PathConfig| {
            PathAllocator::new().compute_paths(&g, &conn, &NocLibrary::lp65(), cfg, 1.0)
        };

        let topo = route(&PathConfig::new(200, 64, 400.0)).unwrap();
        check_routed(&g, &conn.core_attach, &topo)?;

        // A port limit just above the busiest switch's core count, so the
        // links routing adds run into it.
        let most_cores = (0..conn.switch_count())
            .map(|s| conn.core_attach.iter().filter(|&&a| a == s).count() as u32)
            .max()
            .unwrap_or(0);
        let cfg = PathConfig::new(tight.0, most_cores + tight.1, 400.0);
        if let Ok(topo) = route(&cfg) {
            check_routed(&g, &conn.core_attach, &topo)?;
            prop_assert!(topo.max_inter_layer_links(g.core_layers(), layers) <= cfg.max_ill);
            for s in 0..topo.switch_count() {
                prop_assert!(topo.switch_size(s) <= cfg.max_switch_size, "switch {s}");
            }
        }
    }

    /// Full synthesis (thin sweep) on random designs: every reported point
    /// satisfies its own metrics invariants.
    #[test]
    fn synthesis_points_are_self_consistent((soc, comm) in arb_design()) {
        let cfg = SynthesisConfig::builder()
            .run_layout(false)
            .switch_count_range(1, soc.core_count().min(4))
            .build()
            .unwrap();
        let max_ill = cfg.max_ill;
        let outcome = SynthesisEngine::new(&soc, &comm, cfg).unwrap().run();
        for p in &outcome.points {
            prop_assert!(p.metrics.power.total_mw() > 0.0);
            prop_assert!(p.metrics.avg_latency_cycles >= 1.0);
            prop_assert!(p.metrics.meets_latency());
            prop_assert!(p.metrics.max_inter_layer_links() <= max_ill);
            let layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
            prop_assert_eq!(
                &p.metrics.inter_layer_links,
                &p.topology.inter_layer_link_census(&layers, soc.layers)
            );
        }
    }
}
