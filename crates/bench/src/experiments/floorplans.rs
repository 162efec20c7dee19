//! Figs. 19–20: custom insertion routine vs constrained standard
//! floorplanner across benchmarks (paper §VIII-D), plus the shared
//! standard-floorplanner helper.

use crate::experiments::{cfg_3d, mw, run_engine};
use crate::{Artifact, Effort};
use sunfloor_benchmarks::{all_table1_benchmarks, media26, Benchmark};
use sunfloor_core::eval::evaluate;
use sunfloor_core::graph::CommGraph;
use sunfloor_core::synthesis::{DesignPoint, SynthesisMode};
use sunfloor_floorplan::{
    anneal_tempered, AnnealInput, Block, PlacedBlock, SequencePair, TemperConfig,
};
use sunfloor_models::NocLibrary;

/// Runs the §VIII-D baseline on one design point: a standard sequence-pair
/// annealer constrained to preserve the cores' relative order while moving
/// the switches, minimizing area plus displacement from the LP-ideal switch
/// positions. Returns `(die area mm², total NoC power mW)` with power
/// re-evaluated at the baseline's switch positions.
#[must_use]
pub fn standard_floorplan(point: &DesignPoint, bench: &Benchmark, effort: Effort) -> (f64, f64) {
    let lib = NocLibrary::lp65();
    let iterations = match effort {
        Effort::Quick => 4_000,
        Effort::Full => 20_000,
    };
    let mut topo = point.topology.clone();
    let mut area: f64 = 0.0;

    for layer in 0..bench.soc.layers {
        let core_ids = bench.soc.cores_in_layer(layer);
        let mut blocks: Vec<Block> = Vec::new();
        let mut placed: Vec<PlacedBlock> = Vec::new();
        for &c in &core_ids {
            let core = &bench.soc.cores[c];
            let b = Block::new(core.name.clone(), core.width, core.height);
            placed.push(PlacedBlock::new(b.clone(), core.x, core.y));
            blocks.push(b);
        }
        let mut switch_ids = Vec::new();
        for s in 0..topo.switch_count() {
            if topo.switch_layer[s] != layer {
                continue;
            }
            let side = lib.switch.area_mm2(topo.input_ports(s), topo.output_ports(s)).sqrt();
            let b = Block::new(format!("sw{s}"), side, side);
            placed.push(PlacedBlock::new(
                b.clone(),
                topo.switch_pos[s].0 - side / 2.0,
                topo.switch_pos[s].1 - side / 2.0,
            ));
            blocks.push(b);
            switch_ids.push(s);
        }
        if blocks.is_empty() {
            continue;
        }

        let mut ideal: Vec<Option<(f64, f64, f64)>> = vec![None; core_ids.len()];
        ideal.extend(
            switch_ids.iter().map(|&s| Some((topo.switch_pos[s].0, topo.switch_pos[s].1, 2.0))),
        );
        let input = AnnealInput {
            seed: SequencePair::from_placement(&placed),
            blocks,
            ideal,
            fixed_order_count: core_ids.len(),
        };
        let cfg =
            TemperConfig::default().with_iterations(iterations).with_seed(0xF1A7).with_replicas(1);
        let (plan, _) = anneal_tempered(&input, &[], &cfg);
        area = area.max(plan.area());
        for (k, &s) in switch_ids.iter().enumerate() {
            topo.switch_pos[s] = plan.blocks[core_ids.len() + k].center();
        }
    }

    let graph = CommGraph::new(&bench.soc, &bench.comm);
    let metrics = evaluate(&topo, &bench.soc, &graph, &lib, point.metrics.frequency_mhz);
    (area, metrics.power.total_mw())
}

/// Figs. 19 and 20: per-benchmark area and power comparison at the best
/// power point.
#[must_use]
pub fn fig19_fig20(effort: Effort) -> Vec<Artifact> {
    let mut benches = vec![media26()];
    benches.extend(all_table1_benchmarks());
    if effort == Effort::Quick {
        benches.truncate(2);
    }

    let mut area_rows = Vec::new();
    let mut power_rows = Vec::new();
    for bench in &benches {
        let out =
            run_engine(&bench.soc, &bench.comm, cfg_3d(bench, SynthesisMode::Auto, effort));
        let Some(best) = out.best_power() else { continue };
        let Some(layout) = &best.layout else { continue };
        let (std_area, std_power) = standard_floorplan(best, bench, effort);
        area_rows.push(vec![
            bench.name.clone(),
            format!("{:.2}", layout.die_area_mm2()),
            format!("{std_area:.2}"),
        ]);
        power_rows.push(vec![
            bench.name.clone(),
            mw(best.metrics.power.total_mw()),
            mw(std_power),
        ]);
    }
    vec![
        Artifact::table(
            "fig19",
            "Die area at best power point: custom insertion vs constrained standard floorplanner",
            &["benchmark", "custom_mm2", "standard_mm2"],
            area_rows,
        ),
        Artifact::table(
            "fig20",
            "NoC power at best power point under the two floorplanners",
            &["benchmark", "custom_mw", "standard_mw"],
            power_rows,
        ),
    ]
}
