//! Phase 1 core-to-switch connectivity (paper §V-A, Algorithm 1).
//!
//! Cores may connect to a switch in *any* layer: the partitioning graph is
//! min-cut split into as many blocks as there are switches, each block's
//! cores share a switch, and the switch's layer is the rounded average of
//! its cores' layers (Algorithm 1, step 7). When the resulting design misses
//! the `max_ill` constraint, the caller re-runs with the scaled partitioning
//! graph (SPG) at increasing θ, which pulls same-layer cores together and
//! trades inter-layer links for intra-layer power. Every call builds its PG
//! or SPG from scratch: since the SPG folds its same-layer clique into a
//! group attraction, a build costs `O(|flows|)`, a small fraction of the
//! partition it feeds.

use crate::graph::{CommGraph, PartitionCache};
use crate::spec::SocSpec;
use sunfloor_partition::{PartitionConfig, PartitionError, Partitioning};

/// A core-to-switch connectivity candidate produced by Phase 1 or Phase 2,
/// ready for path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Connectivity {
    /// Switch index each core attaches to.
    pub core_attach: Vec<usize>,
    /// Layer of each switch.
    pub switch_layer: Vec<u32>,
    /// Estimated planar switch positions (bandwidth-weighted centroid of the
    /// attached cores) used for routing cost estimates before the LP runs.
    pub est_positions: Vec<(f64, f64)>,
    /// θ used to build the SPG, when one was used.
    pub theta: Option<f64>,
}

impl Connectivity {
    /// Number of switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switch_layer.len()
    }
}

/// Builds the Phase-1 candidate with `switches` switches from the PG
/// (`theta = None`) or the SPG at the given θ, partitioning from scratch.
///
/// # Errors
///
/// Propagates [`PartitionError`] when `switches` exceeds the core count.
pub fn connectivity(
    graph: &CommGraph,
    soc: &SocSpec,
    switches: usize,
    alpha: f64,
    theta: Option<f64>,
    theta_max: f64,
    seed: u64,
) -> Result<Connectivity, PartitionError> {
    let mut cache = PartitionCache::new();
    connectivity_cached(
        graph, soc, switches, alpha, theta, theta_max, seed, None, &mut cache,
    )
}

/// Cold restarts run alongside a warm-started partition, keeping the
/// multi-start search honest without paying the full
/// [`PartitionConfig::k_way`] restart budget at every warm-started step
/// (the warm refinement + final FM polish make up the quality; the
/// engine-level tests pin power/hop-count against the cold-start
/// implementation).
const WARM_RESTARTS: u32 = 4;

/// Cold restart budget of a warm-started **θ-escalation** step. A θ-step
/// re-partitions an assignment that was already good at the previous θ on
/// a mildly rescaled objective, so the warm refinement wins essentially
/// always and the cold restarts are mostly insurance in the hottest
/// Phase-1 loop. Two restarts at seed stride [`THETA_SEED_STRIDE`]
/// (seeds +0 and +2) sample the same seed span four consecutive restarts
/// would, and on every in-tree benchmark trajectory they select the exact
/// partition the four-restart budget selects — consecutive seeds cluster
/// in the same greedy-growth basin, so spreading the draw is worth more
/// than adding draws. The θ-replay and sparse-θ anchor tests
/// (`tests/partition_warm.rs`) gate this budget against the full
/// cold-start partitioner.
const THETA_WARM_RESTARTS: u32 = 2;

/// Seed spacing of a θ-step's cold restarts (see [`THETA_WARM_RESTARTS`]).
const THETA_SEED_STRIDE: u32 = 2;

/// [`connectivity`] with an optional `initial` assignment and a
/// [`PartitionCache`] that tallies the work. The PG or SPG is built from
/// scratch on every call; `initial` warm-starts the partitioner (FM-style
/// refinement of the previous assignment) instead of recursive-bisecting
/// from scratch.
///
/// Warm-started calls (the seed chain
/// [`SynthesisEngine::new`](crate::synthesis::SynthesisEngine::new)
/// builds, one partition per swept switch count, and the θ steps a run
/// computes once per switch count) run the warm refinement against a reduced
/// cold restart budget and give the winner a final FM polish
/// — roughly half the cold effort per call, with the warm seed making up
/// the quality (hMetis-style refinement converges far faster than cold
/// k-way partitioning). With `initial = None` the result is the cold-start
/// result.
///
/// # Errors
///
/// Propagates [`PartitionError`] when `switches` exceeds the core count.
#[allow(clippy::too_many_arguments)]
pub fn connectivity_cached(
    graph: &CommGraph,
    soc: &SocSpec,
    switches: usize,
    alpha: f64,
    theta: Option<f64>,
    theta_max: f64,
    seed: u64,
    initial: Option<&[u32]>,
    cache: &mut PartitionCache,
) -> Result<Connectivity, PartitionError> {
    let mut cfg = PartitionConfig::k_way(switches).with_seed(seed);
    if let Some(init) = initial {
        cfg = cfg.with_initial(init.to_vec());
        if theta.is_some() {
            cfg.restarts = THETA_WARM_RESTARTS;
            cfg.seed_stride = THETA_SEED_STRIDE;
        } else {
            cfg.restarts = WARM_RESTARTS;
        }
        cache.stats.warm_partitions += 1;
    } else {
        cache.stats.cold_partitions += 1;
    }
    let pg = match theta {
        None => graph.partitioning_graph(alpha),
        Some(t) => {
            cache.stats.spg_derivations += 1;
            graph.scaled_partitioning_graph(alpha, t, theta_max)
        }
    };
    let parts = pg.partition(&cfg)?;
    cache.stats.fm_moves += parts.fm_moves();
    Ok(build_connectivity(&parts, soc, theta))
}

/// Derives the [`Connectivity`] a partitioning induces (Algorithm 1 steps
/// 6–9): attachments, rounded-average switch layers and centroid position
/// estimates. Iterates blocks through [`Partitioning::members_iter`], so no
/// per-block member vectors are allocated in the sweep's hot loop.
fn build_connectivity(parts: &Partitioning, soc: &SocSpec, theta: Option<f64>) -> Connectivity {
    let switches = parts.part_count();
    let mut core_attach = vec![0usize; soc.core_count()];
    for (c, attach) in core_attach.iter_mut().enumerate() {
        *attach = parts.part_of(c) as usize;
    }

    let mut switch_layer = Vec::with_capacity(switches);
    let mut est_positions = Vec::with_capacity(switches);
    for block in 0..switches as u32 {
        let members = parts.members_iter(block).count();
        debug_assert!(members > 0, "partitioner returned an empty block");
        // Step 7: layer = rounded average of the member cores' layers.
        let avg_layer: f64 = parts
            .members_iter(block)
            .map(|c| f64::from(soc.cores[c].layer))
            .sum::<f64>()
            / members as f64;
        let layer = (avg_layer.round() as u32).min(soc.layers - 1);
        switch_layer.push(layer);

        let (mut cx, mut cy) = (0.0, 0.0);
        for c in parts.members_iter(block) {
            let (x, y) = soc.cores[c].center();
            cx += x;
            cy += y;
        }
        est_positions.push((cx / members as f64, cy / members as f64));
    }

    Connectivity { core_attach, switch_layer, est_positions, theta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommSpec, Core, Flow, MessageType};

    /// Mirrors the paper's Fig. 4/5 example: two layers, heavy vertical
    /// flows between stacked pairs, light horizontal flows.
    fn fig4_like() -> (SocSpec, CommGraph) {
        let mut cores = Vec::new();
        for i in 0..6 {
            cores.push(Core {
                name: format!("c{i}"),
                width: 1.0,
                height: 1.0,
                x: f64::from(i % 3) * 2.0,
                y: 0.0,
                layer: u32::from(i >= 3),
            });
        }
        let soc = SocSpec::new(cores, 2).unwrap();
        let f = |src, dst, bw: f64| Flow {
            src,
            dst,
            bandwidth_mbs: bw,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        };
        // Vertical pairs (i, i+3) heavy; ring around each layer light.
        let comm = CommSpec::new(
            vec![
                f(0, 3, 400.0),
                f(1, 4, 400.0),
                f(2, 5, 400.0),
                f(0, 1, 50.0),
                f(1, 2, 50.0),
                f(3, 4, 50.0),
                f(4, 5, 50.0),
            ],
            &soc,
        )
        .unwrap();
        let graph = CommGraph::new(&soc, &comm);
        (soc, graph)
    }

    #[test]
    fn pg_partition_clusters_across_layers() {
        let (soc, graph) = fig4_like();
        // Three switches: min-cut keeps the heavy vertical pairs together,
        // exactly like the paper's Fig. 5.
        let c = connectivity(&graph, &soc, 3, 1.0, None, 15.0, 1).unwrap();
        assert_eq!(c.switch_count(), 3);
        for pair in [(0usize, 3usize), (1, 4), (2, 5)] {
            assert_eq!(
                c.core_attach[pair.0], c.core_attach[pair.1],
                "vertical pair {pair:?} should share a switch"
            );
        }
    }

    #[test]
    fn spg_partition_clusters_within_layers() {
        let (soc, graph) = fig4_like();
        // With a strong theta the same 3-way split clusters by layer
        // instead (Fig. 6): at least one switch is purely intra-layer.
        let c = connectivity(&graph, &soc, 2, 1.0, Some(12.0), 15.0, 1).unwrap();
        // Expect the two blocks to be the two layers.
        assert_eq!(c.core_attach[0], c.core_attach[1]);
        assert_eq!(c.core_attach[1], c.core_attach[2]);
        assert_eq!(c.core_attach[3], c.core_attach[4]);
        assert_eq!(c.core_attach[4], c.core_attach[5]);
        assert_ne!(c.core_attach[0], c.core_attach[3]);
    }

    #[test]
    fn switch_layer_is_rounded_average() {
        let (soc, graph) = fig4_like();
        let c = connectivity(&graph, &soc, 3, 1.0, None, 15.0, 1).unwrap();
        // Each block has one layer-0 and one layer-1 core: average 0.5
        // rounds to 1 (f64::round rounds half away from zero).
        for &l in &c.switch_layer {
            assert_eq!(l, 1);
        }
    }

    #[test]
    fn estimated_positions_are_centroids() {
        let (soc, graph) = fig4_like();
        let c = connectivity(&graph, &soc, 3, 1.0, None, 15.0, 1).unwrap();
        for (s, &(x, y)) in c.est_positions.iter().enumerate() {
            let members: Vec<usize> =
                (0..6).filter(|&cidx| c.core_attach[cidx] == s).collect();
            let ex: f64 =
                members.iter().map(|&m| soc.cores[m].center().0).sum::<f64>() / 2.0;
            let ey: f64 =
                members.iter().map(|&m| soc.cores[m].center().1).sum::<f64>() / 2.0;
            assert!((x - ex).abs() < 1e-9 && (y - ey).abs() < 1e-9);
        }
    }

    #[test]
    fn too_many_switches_is_an_error() {
        let (soc, graph) = fig4_like();
        assert!(connectivity(&graph, &soc, 7, 1.0, None, 15.0, 1).is_err());
    }

    #[test]
    fn single_switch_hosts_everyone() {
        let (soc, graph) = fig4_like();
        let c = connectivity(&graph, &soc, 1, 1.0, None, 15.0, 1).unwrap();
        assert!(c.core_attach.iter().all(|&s| s == 0));
        assert_eq!(c.switch_layer.len(), 1);
    }
}
