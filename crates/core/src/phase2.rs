//! Phase 2 core-to-switch connectivity (paper §V-B, Algorithm 2).
//!
//! The layer-by-layer variant: cores connect only to switches in their own
//! layer, and switches link only to switches in the same or adjacent layers.
//! The minimum number of switches per layer follows from the frequency-
//! dependent maximum switch size (`nij = ⌈cores_in_layer / max_sw_size⌉`,
//! Algorithm 2 steps 2–4); each iteration then increments every layer's
//! switch count by one (pruning rule 2 of §V-C) until the layer's core count
//! is reached.

use crate::graph::{CommGraph, PartitionCache};
use crate::phase1::Connectivity;
use crate::spec::SocSpec;
use sunfloor_partition::{PartitionConfig, PartitionError};

/// Minimum switches required in each layer at the given maximum switch size
/// (Algorithm 2, steps 2–4). Layers without cores get zero.
#[must_use]
pub fn min_switches_per_layer(soc: &SocSpec, max_switch_size: u32) -> Vec<usize> {
    (0..soc.layers)
        .map(|l| {
            let cores = soc.cores_in_layer(l).len();
            if cores == 0 {
                0
            } else {
                cores.div_ceil(max_switch_size.max(1) as usize)
            }
        })
        .collect()
}

/// Largest useful value of the per-layer increment `i` in Algorithm 2's
/// outer loop: beyond it every layer already has one switch per core.
#[must_use]
pub fn max_increment(soc: &SocSpec, max_switch_size: u32) -> usize {
    let minima = min_switches_per_layer(soc, max_switch_size);
    (0..soc.layers as usize)
        .map(|l| {
            let cores = soc.cores_in_layer(l as u32).len();
            cores.saturating_sub(minima[l])
        })
        .max()
        .unwrap_or(0)
}

/// Builds the Phase-2 candidate for increment `i`: each layer `j` is min-cut
/// partitioned into `min(nij + i, cores_in_layer)` blocks and every block
/// gets a same-layer switch.
///
/// # Errors
///
/// Propagates [`PartitionError`] from the per-layer partitioner (cannot
/// happen for valid `i`, as the block count is clamped to the layer's core
/// count).
pub fn connectivity(
    graph: &CommGraph,
    soc: &SocSpec,
    increment: usize,
    max_switch_size: u32,
    alpha: f64,
    seed: u64,
) -> Result<Connectivity, PartitionError> {
    let mut cache = PartitionCache::new();
    connectivity_cached(graph, soc, increment, max_switch_size, alpha, seed, &mut cache)
}

/// [`connectivity`], tallying its per-layer partitions in `cache`: one
/// [`PartitionStats::layer_partitions`](crate::graph::PartitionStats::layer_partitions)
/// per populated layer, and their FM moves.
///
/// # Errors
///
/// As [`connectivity`].
pub fn connectivity_cached(
    graph: &CommGraph,
    soc: &SocSpec,
    increment: usize,
    max_switch_size: u32,
    alpha: f64,
    seed: u64,
    cache: &mut PartitionCache,
) -> Result<Connectivity, PartitionError> {
    let minima = min_switches_per_layer(soc, max_switch_size);
    let mut core_attach = vec![0usize; soc.core_count()];
    let mut switch_layer = Vec::new();
    let mut est_positions = Vec::new();
    // One member buffer reused across every block of every layer.
    let mut block_local: Vec<usize> = Vec::new();

    for layer in 0..soc.layers {
        let (lpg, members) = graph.layer_partitioning_graph(layer, alpha);
        if members.is_empty() {
            continue;
        }
        let np = (minima[layer as usize] + increment).clamp(1, members.len());
        cache.stats.layer_partitions += 1;
        let parts = lpg.partition(&PartitionConfig::k_way(np).with_seed(seed))?;
        cache.stats.fm_moves += parts.fm_moves();

        let base = switch_layer.len();
        for block in 0..np as u32 {
            parts.members_into(block, &mut block_local);
            debug_assert!(!block_local.is_empty());
            let (mut cx, mut cy) = (0.0, 0.0);
            for &l in &block_local {
                let (x, y) = soc.cores[members[l]].center();
                cx += x;
                cy += y;
            }
            est_positions.push((cx / block_local.len() as f64, cy / block_local.len() as f64));
            switch_layer.push(layer);
            for &l in &block_local {
                core_attach[members[l]] = base + block as usize;
            }
        }
    }

    Ok(Connectivity { core_attach, switch_layer, est_positions, theta: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommSpec, Core, Flow, MessageType};

    fn soc_3layers() -> (SocSpec, CommGraph) {
        // Layer 0: 5 cores, layer 1: 3 cores, layer 2: 4 cores.
        let counts = [5usize, 3, 4];
        let mut cores = Vec::new();
        for (l, &n) in counts.iter().enumerate() {
            for i in 0..n {
                cores.push(Core {
                    name: format!("l{l}c{i}"),
                    width: 1.0,
                    height: 1.0,
                    x: i as f64 * 2.0,
                    y: l as f64,
                    layer: l as u32,
                });
            }
        }
        let soc = SocSpec::new(cores, 3).unwrap();
        // A pipeline through all cores (inter- and intra-layer flows).
        let n = soc.core_count();
        let flows = (0..n - 1)
            .map(|i| Flow {
                src: i,
                dst: i + 1,
                bandwidth_mbs: 100.0,
                max_latency_cycles: 12.0,
                message_type: MessageType::Request,
            })
            .collect();
        let comm = CommSpec::new(flows, &soc).unwrap();
        let graph = CommGraph::new(&soc, &comm);
        (soc, graph)
    }

    #[test]
    fn minimum_switch_counts_follow_ceiling_division() {
        let (soc, _) = soc_3layers();
        assert_eq!(min_switches_per_layer(&soc, 4), vec![2, 1, 1]);
        assert_eq!(min_switches_per_layer(&soc, 11), vec![1, 1, 1]);
        assert_eq!(min_switches_per_layer(&soc, 2), vec![3, 2, 2]);
    }

    #[test]
    fn max_increment_reaches_one_switch_per_core() {
        let (soc, _) = soc_3layers();
        // max over layers of (cores - minimum) with max_sw_size = 4:
        // layer 0: 5-2=3, layer 1: 3-1=2, layer 2: 4-1=3.
        assert_eq!(max_increment(&soc, 4), 3);
    }

    #[test]
    fn all_switches_serve_their_own_layer() {
        let (soc, graph) = soc_3layers();
        for inc in 0..=max_increment(&soc, 4) {
            let c = connectivity(&graph, &soc, inc, 4, 1.0, 7).unwrap();
            for (core, &sw) in c.core_attach.iter().enumerate() {
                assert_eq!(
                    soc.cores[core].layer, c.switch_layer[sw],
                    "core {core} attached across layers at increment {inc}"
                );
            }
        }
    }

    #[test]
    fn increment_grows_switch_count_per_layer() {
        let (soc, graph) = soc_3layers();
        let c0 = connectivity(&graph, &soc, 0, 4, 1.0, 7).unwrap();
        let c1 = connectivity(&graph, &soc, 1, 4, 1.0, 7).unwrap();
        assert_eq!(c0.switch_count(), 2 + 1 + 1);
        assert_eq!(c1.switch_count(), 3 + 2 + 2);
    }

    #[test]
    fn increment_clamps_at_layer_core_count() {
        let (soc, graph) = soc_3layers();
        let c = connectivity(&graph, &soc, 99, 4, 1.0, 7).unwrap();
        // Every core alone on its switch.
        assert_eq!(c.switch_count(), soc.core_count());
        for (core, &sw) in c.core_attach.iter().enumerate() {
            assert_eq!(c.switch_layer[sw], soc.cores[core].layer);
            assert_eq!(
                (0..soc.core_count()).filter(|&o| c.core_attach[o] == sw).count(),
                1
            );
        }
    }

    #[test]
    fn no_switch_exceeds_core_capacity_at_minimum() {
        let (soc, graph) = soc_3layers();
        let max_sw = 4u32;
        let c = connectivity(&graph, &soc, 0, max_sw, 1.0, 7).unwrap();
        for s in 0..c.switch_count() {
            let attached = c.core_attach.iter().filter(|&&a| a == s).count();
            assert!(attached as u32 <= max_sw, "switch {s} hosts {attached} cores");
        }
    }
}
