//! Results of a synthesis run: the feasible trade-off set, the rejected
//! candidates with their typed reasons, and the selection helpers a
//! designer (or a script) picks the final topology with.

use super::diagnostics::RejectReason;
use crate::eval::DesignMetrics;
use crate::graph::PartitionStats;
use crate::layout::{AnnealStats, Layout};
use crate::paths::RoutingStats;
use crate::place::LpStats;
use crate::topology::Topology;
use std::fmt;

/// Which phase produced a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Algorithm 1.
    Phase1,
    /// Algorithm 2.
    Phase2,
}

/// One feasible design point of the trade-off set.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The synthesized topology (routes, links, positions).
    pub topology: Topology,
    /// Evaluated metrics (with final post-layout positions when layout ran).
    pub metrics: DesignMetrics,
    /// Per-layer floorplans, when layout ran.
    pub layout: Option<Layout>,
    /// Which phase produced the point.
    pub phase: PhaseKind,
    /// θ used (Phase 1 SPG retries only).
    pub theta: Option<f64>,
    /// The sweep parameter: requested switch count (Phase 1) or the
    /// resulting switch count (Phase 2).
    pub requested_switches: usize,
}

/// A candidate attempt that was explored and discarded, with the typed
/// reason. A single candidate can contribute several rejected attempts —
/// one per θ-escalation step it failed at — before it is terminally
/// accepted or rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedPoint {
    /// Sweep parameter (requested switch count / increment result).
    pub requested_switches: usize,
    /// Frequency at which it was tried.
    pub frequency_mhz: f64,
    /// Phase that produced the candidate.
    pub phase: PhaseKind,
    /// θ of the escalation step that failed (`None` for the base attempt).
    pub theta: Option<f64>,
    /// Why the attempt was discarded.
    pub reason: RejectReason,
}

impl fmt::Display for RejectedPoint {
    /// Renders the attempt exactly as the legacy string-typed driver did:
    /// `theta {θ}: {reason}` for escalation steps, the bare reason
    /// otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.theta {
            Some(theta) => write!(f, "theta {theta}: {}", self.reason),
            None => write!(f, "{}", self.reason),
        }
    }
}

/// The full outcome of a synthesis run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SynthesisOutcome {
    /// All feasible design points, in deterministic candidate order.
    pub points: Vec<DesignPoint>,
    /// All rejected attempts with reasons (diagnostics), in deterministic
    /// candidate order.
    pub rejected: Vec<RejectedPoint>,
    /// How the Phase-1 partitioning work was served (cache hits, warm vs
    /// cold partitions, SPGs built for θ steps). Counted per candidate,
    /// so serial and parallel sweeps report identical totals.
    pub partition_stats: PartitionStats,
    /// How many placement axes were solved. Counted per candidate like
    /// [`SynthesisOutcome::partition_stats`], so the totals are
    /// scheduling-independent.
    pub lp_stats: LpStats,
    /// How the tempered-annealing layout path behaved (runs, replica
    /// exchanges), when [`super::SynthesisConfig::anneal_replicas`] routed
    /// layout through it. Counted per candidate like the other stats, so
    /// the totals are scheduling-independent.
    pub anneal_stats: AnnealStats,
    /// How the flow routing work was served (flows routed, links created,
    /// deadlock rollbacks). Counted per candidate like the other stats, so
    /// serial and parallel sweeps report identical totals.
    pub routing_stats: RoutingStats,
    /// Phase-1 θ steps whose partition repeated the candidate's previous
    /// attempt and were rejected with its reason instead of being routed,
    /// placed and laid out again. Counted per candidate like the other
    /// stats, so the totals are scheduling-independent.
    pub repeated_attempts: u64,
    /// Phase-1 θ steps a candidate took from a partition an earlier
    /// committed candidate of the same switch count (at another frequency)
    /// had already computed. Counted at commit, so the totals are
    /// scheduling-independent; these steps are not in
    /// [`SynthesisOutcome::partition_stats`].
    pub shared_theta_steps: u64,
    /// [`Layout::shove_probes`] of every shove-insertion layout run,
    /// rejected attempts included. Counted per candidate like the other
    /// stats, so the totals are scheduling-independent.
    pub shove_probes: u64,
}

impl SynthesisOutcome {
    /// The most power-efficient feasible point.
    #[must_use]
    pub fn best_power(&self) -> Option<&DesignPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.metrics.power.total_mw().total_cmp(&b.metrics.power.total_mw()))
    }

    /// The lowest-latency feasible point.
    #[must_use]
    pub fn best_latency(&self) -> Option<&DesignPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.metrics.avg_latency_cycles.total_cmp(&b.metrics.avg_latency_cycles))
    }

    /// Power/latency Pareto front (ascending power).
    #[must_use]
    pub fn pareto_front(&self) -> Vec<&DesignPoint> {
        let mut sorted: Vec<&DesignPoint> = self.points.iter().collect();
        sorted.sort_by(|a, b| a.metrics.power.total_mw().total_cmp(&b.metrics.power.total_mw()));
        let mut front: Vec<&DesignPoint> = Vec::new();
        let mut best_lat = f64::INFINITY;
        for p in sorted {
            if p.metrics.avg_latency_cycles < best_lat - 1e-12 {
                best_lat = p.metrics.avg_latency_cycles;
                front.push(p);
            }
        }
        front
    }
}
