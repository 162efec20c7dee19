//! Checks of a synthesis outcome made from outside the engine: every
//! accepted point is re-evaluated with `evaluate` and held against the
//! paper's limits through the `Topology` accessors, and the outcome is
//! reduced to the figures the op reports are compared with.

use crate::json::Json;
use sunfloor_core::eval::evaluate;
use sunfloor_core::graph::CommGraph;
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{DesignPoint, SynthesisConfig, SynthesisOutcome};

/// Every violation found among `points`, as messages (empty when all hold).
#[must_use]
pub fn point_violations(
    points: &[DesignPoint],
    soc: &SocSpec,
    comm: &CommSpec,
    cfg: &SynthesisConfig,
) -> Vec<String> {
    let graph = CommGraph::new(soc, comm);
    let core_layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
    let mut out = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let topo = &p.topology;
        let freq = p.metrics.frequency_mhz;
        let mut fail = |what: String| {
            out.push(format!(
                "point {i} ({} switches @ {freq} MHz): {what}",
                p.requested_switches
            ))
        };
        if !cfg.frequencies_mhz.contains(&freq) {
            fail("frequency was not swept".into());
        }
        if topo.flow_paths.len() != comm.flow_count()
            || topo.flow_paths.iter().any(|f| f.switches.is_empty())
        {
            fail("a flow has no path".into());
        }
        let metrics = evaluate(topo, soc, &graph, &cfg.library, freq);
        if metrics != p.metrics {
            fail("re-evaluated metrics differ from the reported ones".into());
        }
        if !metrics.is_finite() {
            fail("metrics are not finite".into());
        }
        let ill = topo.max_inter_layer_links(&core_layers, soc.layers);
        if ill > cfg.max_ill {
            fail(format!(
                "{ill} vertical links exceed max_ill {}",
                cfg.max_ill
            ));
        }
        let limit = cfg.library.switch.max_size_for_frequency(freq);
        for s in 0..topo.switch_count() {
            if topo.switch_size(s) > limit {
                fail(format!(
                    "switch {s} has {} ports, limit {limit}",
                    topo.switch_size(s)
                ));
            }
        }
        if !metrics.meets_latency() {
            fail(format!(
                "latency limit missed by {} cycles",
                metrics.worst_latency_violation
            ));
        }
    }
    out
}

/// The outcome figures an op's report is checked against, plus the exact
/// counters. `candidates` is the number of candidates the sweep started.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Feasible points in the trade-off set.
    pub feasible: u64,
    /// Rejected attempts.
    pub rejected: u64,
    /// Power of the best-power point, mW.
    pub best_power_mw: f64,
    /// Average latency of the best-latency point, cycles.
    pub best_latency_cyc: f64,
    /// The engine's outcome counters by name.
    pub counters: Vec<(&'static str, u64)>,
}

impl Summary {
    /// Reduces an engine outcome.
    #[must_use]
    pub fn of(outcome: &SynthesisOutcome, candidates: u64) -> Self {
        let p = outcome.partition_stats;
        let lp = outcome.lp_stats;
        let r = outcome.routing_stats;
        let a = outcome.anneal_stats;
        let points = outcome.points.len() as u64;
        let rejected = outcome.rejected.len() as u64;
        Self {
            feasible: points,
            rejected,
            best_power_mw: outcome
                .best_power()
                .map_or(f64::NAN, |b| b.metrics.power.total_mw()),
            best_latency_cyc: outcome
                .best_latency()
                .map_or(f64::NAN, |b| b.metrics.avg_latency_cycles),
            counters: vec![
                ("partition.warm", p.warm_partitions),
                ("partition.cold", p.cold_partitions),
                ("partition.spg_derivations", p.spg_derivations),
                ("lp.cold_solves", lp.cold_solves),
                ("lp.warm_solves", lp.warm_solves),
                ("lp.pivots", lp.simplex_iterations),
                ("lp.pivots_saved", lp.iterations_saved),
                ("lp.seed_bank_warm_solves", lp.cross_candidate_warm_solves),
                ("route.flows_routed", r.flows_routed),
                ("route.deadlock_rollbacks", r.deadlock_rollbacks),
                ("route.class_merges", r.class_merges),
                ("route.merge_fallbacks", r.merge_fallbacks),
                ("anneal.runs", a.runs),
                ("anneal.swap_attempts", a.swap_attempts),
                ("anneal.swap_accepts", a.swap_accepts),
                ("sweep.candidates", candidates),
                ("sweep.attempts", points + rejected),
            ],
        }
    }

    /// The summary as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("feasible", Json::Int(self.feasible)),
            ("rejected", Json::Int(self.rejected)),
            ("best_power_mw", Json::Num(self.best_power_mw)),
            ("best_latency_cyc", Json::Num(self.best_latency_cyc)),
            (
                "counters",
                Json::obj(self.counters.iter().map(|&(k, v)| (k, Json::Int(v)))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunfloor_core::synthesis::SynthesisEngine;

    #[test]
    fn accepted_points_pass_and_a_tampered_point_is_caught() {
        let bench = sunfloor_benchmarks::pipeline_seeded(12, 3);
        let cfg = SynthesisConfig::builder()
            .switch_count_range(2, 6)
            .build()
            .unwrap();
        let outcome = SynthesisEngine::new(&bench.soc, &bench.comm, cfg.clone())
            .unwrap()
            .run();
        assert!(!outcome.points.is_empty());
        assert!(point_violations(&outcome.points, &bench.soc, &bench.comm, &cfg).is_empty());

        let mut tampered = outcome.points[0].clone();
        tampered.metrics.avg_latency_cycles += 1.0;
        let tight = SynthesisConfig {
            max_ill: 0,
            ..cfg.clone()
        };
        let found = point_violations(&[tampered], &bench.soc, &bench.comm, &tight);
        assert!(
            found.iter().any(|m| m.contains("re-evaluated")),
            "{found:?}"
        );
        assert!(found.iter().any(|m| m.contains("max_ill")), "{found:?}");

        let summary = Summary::of(&outcome, 5);
        assert_eq!(summary.feasible, outcome.points.len() as u64);
        assert!(summary.best_power_mw.is_finite());
    }
}
