//! Typed diagnostics for the synthesis sweep: why a candidate was rejected,
//! the event stream an observer can subscribe to, and the errors that abort
//! a run before exploration starts.

use super::candidates::Candidate;
use super::config::ConfigError;
use crate::paths::PathError;
use crate::spec::SpecError;
use std::error::Error;
use std::fmt;
use sunfloor_lp::SolveError;
use sunfloor_partition::PartitionError;

/// Why a candidate design point was discarded.
///
/// Every variant's [`Display`](fmt::Display) output preserves the exact
/// message text the driver historically reported as a plain `String`, so
/// log-scraping callers keep working while typed callers can match on the
/// variant (and its fields) instead.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// A flow could not be routed within the hard constraints.
    NoRoute {
        /// Flow index that failed.
        flow: usize,
    },
    /// No deadlock-free path could be found for a flow.
    Deadlock {
        /// Flow index that failed.
        flow: usize,
    },
    /// The inter-layer link budget is exhausted before routing started:
    /// the core attachments alone exceed it (pruning rule 3 of §V-C).
    IllBudgetExhausted {
        /// Boundary index (between layers `b` and `b+1`).
        boundary: usize,
        /// Crossings already required by core attachments.
        used: u32,
        /// The budget.
        max_ill: u32,
    },
    /// A switch cannot host its attached cores within the size limit.
    SwitchTooSmall {
        /// Switch index.
        switch: usize,
        /// Ports needed just for core attachments.
        needed: u32,
        /// The limit.
        limit: u32,
    },
    /// The finished design crosses a layer boundary with more vertical
    /// links than `max_ill` (Fig. 3's final screening).
    IllExceeded {
        /// Vertical links the design needs on its worst boundary.
        got: u32,
        /// The configured budget.
        limit: u32,
    },
    /// A switch in the finished design exceeds the frequency-dependent
    /// port limit.
    SwitchTooLarge {
        /// Switch index.
        switch: usize,
        /// Ports the switch ended up with.
        ports: u32,
        /// The limit at `frequency_mhz`.
        limit: u32,
        /// Frequency the limit was evaluated at, MHz.
        frequency_mhz: f64,
    },
    /// The design misses at least one flow's latency budget.
    LatencyViolated {
        /// Worst violation, cycles.
        excess_cycles: f64,
    },
    /// Evaluating the finished design overflowed the analytical models:
    /// at least one metric came back `inf` or `NaN` (possible with
    /// extreme but parseable spec numbers, e.g. bandwidths near
    /// `f64::MAX`). Such a design cannot be meaningfully compared, so it
    /// is screened out instead of reported as feasible.
    NonFiniteMetrics,
    /// The min-cut partitioner could not produce the requested split.
    Partition(PartitionError),
    /// The switch-placement LP broke down. Never produced: placement is
    /// exact and total. Kept, with [`SolveError`], for the benchmark's
    /// replay; delete both with the benchmark change that removes
    /// `perfbench/src/replay.rs`.
    Placement(SolveError),
    /// Routing failed with no more specific cause recorded.
    RoutingFailed,
}

impl RejectReason {
    /// A short stable label for the variant, for grouping diagnostics
    /// (e.g. the CLI's rejection summary).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::NoRoute { .. } => "no-route",
            Self::Deadlock { .. } => "deadlock",
            Self::IllBudgetExhausted { .. } => "ill-budget-exhausted",
            Self::SwitchTooSmall { .. } => "switch-too-small",
            Self::IllExceeded { .. } => "ill-exceeded",
            Self::SwitchTooLarge { .. } => "switch-too-large",
            Self::LatencyViolated { .. } => "latency-violated",
            Self::NonFiniteMetrics => "non-finite-metrics",
            Self::Partition(_) => "partition",
            Self::Placement(_) => "placement",
            Self::RoutingFailed => "routing-failed",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoRoute { flow } => write!(f, "no feasible route for flow {flow}"),
            Self::Deadlock { flow } => write!(f, "no deadlock-free route for flow {flow}"),
            Self::IllBudgetExhausted { boundary, used, max_ill } => write!(
                f,
                "core attachments already need {used} vertical links at boundary {boundary} (budget {max_ill})"
            ),
            Self::SwitchTooSmall { switch, needed, limit } => write!(
                f,
                "switch {switch} needs {needed} ports for its cores alone (limit {limit})"
            ),
            Self::IllExceeded { got, limit } => {
                write!(f, "inter-layer links {got} exceed max_ill {limit}")
            }
            Self::SwitchTooLarge { switch, ports, limit, frequency_mhz } => write!(
                f,
                "switch {switch} has {ports} ports (limit {limit} at {frequency_mhz} MHz)"
            ),
            Self::LatencyViolated { excess_cycles } => {
                write!(f, "latency constraint violated by {excess_cycles:.2} cycles")
            }
            Self::NonFiniteMetrics => {
                write!(f, "design metrics overflowed to a non-finite value")
            }
            Self::Partition(e) => write!(f, "{e}"),
            Self::Placement(e) => write!(f, "placement LP: {e}"),
            Self::RoutingFailed => write!(f, "routing failed"),
        }
    }
}

impl From<PathError> for RejectReason {
    fn from(e: PathError) -> Self {
        match e {
            PathError::NoRoute { flow } => Self::NoRoute { flow },
            PathError::DeadlockUnavoidable { flow } => Self::Deadlock { flow },
            PathError::IllBudgetExhausted { boundary, used, max_ill } => {
                Self::IllBudgetExhausted { boundary, used, max_ill }
            }
            PathError::SwitchTooSmall { switch, needed, max_switch_size } => {
                Self::SwitchTooSmall { switch, needed, limit: max_switch_size }
            }
        }
    }
}

impl From<PartitionError> for RejectReason {
    fn from(e: PartitionError) -> Self {
        Self::Partition(e)
    }
}

impl From<SolveError> for RejectReason {
    fn from(e: SolveError) -> Self {
        Self::Placement(e)
    }
}

/// One step of the design-space sweep, streamed to a
/// [`SweepObserver`] as the engine commits results.
///
/// Events are delivered in deterministic candidate order — in parallel runs
/// each candidate's events are replayed when its slot in the ordered result
/// stream is reached, so an observer sees the same sequence regardless of
/// [`super::Parallelism`].
#[derive(Debug, Clone, PartialEq)]
pub enum SweepEvent {
    /// The engine began evaluating a candidate.
    CandidateStarted {
        /// The candidate being evaluated.
        candidate: Candidate,
    },
    /// Phase 1 escalated the SPG θ for a candidate whose earlier attempts
    /// missed the constraints (Algorithm 1, steps 11–20).
    ThetaEscalated {
        /// The candidate being escalated.
        candidate: Candidate,
        /// The θ value now being tried.
        theta: f64,
    },
    /// Terminal: the candidate produced a feasible design point.
    CandidateAccepted {
        /// The accepted candidate.
        candidate: Candidate,
        /// Index of the point in [`super::SynthesisOutcome::points`].
        point_index: usize,
    },
    /// Terminal: the candidate was discarded after exhausting its attempts.
    CandidateRejected {
        /// The rejected candidate.
        candidate: Candidate,
        /// The final attempt's rejection reason.
        reason: RejectReason,
    },
}

/// Receives [`SweepEvent`]s as the engine commits candidate results.
///
/// Every candidate produces exactly one terminal event
/// ([`SweepEvent::CandidateAccepted`] or [`SweepEvent::CandidateRejected`])
/// after its `CandidateStarted` and any `ThetaEscalated` events.
///
/// Any `FnMut(&SweepEvent)` closure is an observer.
pub trait SweepObserver {
    /// Called once per event, in deterministic sweep order.
    fn on_event(&mut self, event: &SweepEvent);
}

impl<F: FnMut(&SweepEvent)> SweepObserver for F {
    fn on_event(&mut self, event: &SweepEvent) {
        self(event);
    }
}

/// Errors aborting a synthesis run before exploration starts.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The configuration is inconsistent.
    Config(ConfigError),
    /// Input specifications are inconsistent.
    Spec(SpecError),
    /// No frequency in the sweep admits any switch (size limit below 2).
    NoUsableFrequency,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Spec(e) => write!(f, "invalid specification: {e}"),
            Self::NoUsableFrequency => {
                write!(f, "no frequency in the sweep supports any switch size")
            }
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Spec(e) => Some(e),
            Self::NoUsableFrequency => None,
        }
    }
}

impl From<SpecError> for SynthesisError {
    fn from(e: SpecError) -> Self {
        Self::Spec(e)
    }
}

impl From<ConfigError> for SynthesisError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed reasons must round-trip the exact legacy message text that
    /// the pre-redesign driver produced as plain `String`s.
    #[test]
    fn display_round_trips_legacy_messages() {
        let cases: Vec<(RejectReason, &str)> = vec![
            (RejectReason::NoRoute { flow: 7 }, "no feasible route for flow 7"),
            (RejectReason::Deadlock { flow: 3 }, "no deadlock-free route for flow 3"),
            (
                RejectReason::IllBudgetExhausted { boundary: 1, used: 30, max_ill: 25 },
                "core attachments already need 30 vertical links at boundary 1 (budget 25)",
            ),
            (
                RejectReason::SwitchTooSmall { switch: 2, needed: 13, limit: 11 },
                "switch 2 needs 13 ports for its cores alone (limit 11)",
            ),
            (
                RejectReason::IllExceeded { got: 28, limit: 25 },
                "inter-layer links 28 exceed max_ill 25",
            ),
            (
                RejectReason::SwitchTooLarge {
                    switch: 4,
                    ports: 13,
                    limit: 11,
                    frequency_mhz: 400.0,
                },
                "switch 4 has 13 ports (limit 11 at 400 MHz)",
            ),
            (
                RejectReason::LatencyViolated { excess_cycles: 2.345 },
                "latency constraint violated by 2.35 cycles",
            ),
            (
                RejectReason::NonFiniteMetrics,
                "design metrics overflowed to a non-finite value",
            ),
            (
                RejectReason::Partition(PartitionError::TooManyParts {
                    parts: 9,
                    vertices: 4,
                }),
                "requested 9 blocks but the graph has only 4 vertices",
            ),
            (
                RejectReason::Placement(SolveError::Infeasible),
                "placement LP: linear program is infeasible",
            ),
            (RejectReason::RoutingFailed, "routing failed"),
        ];
        for (reason, legacy) in cases {
            assert_eq!(reason.to_string(), legacy, "{}", reason.kind());
        }
    }

    /// Path errors keep their payload when converted to reject reasons, and
    /// the two Display paths agree.
    #[test]
    fn path_errors_convert_losslessly() {
        let cases = [
            PathError::NoRoute { flow: 5 },
            PathError::DeadlockUnavoidable { flow: 2 },
            PathError::IllBudgetExhausted { boundary: 0, used: 9, max_ill: 6 },
            PathError::SwitchTooSmall { switch: 1, needed: 8, max_switch_size: 6 },
        ];
        for e in cases {
            let legacy = e.to_string();
            assert_eq!(RejectReason::from(e).to_string(), legacy);
        }
    }

    #[test]
    fn kinds_are_distinct_per_variant() {
        let reasons = [
            RejectReason::NoRoute { flow: 0 },
            RejectReason::Deadlock { flow: 0 },
            RejectReason::IllBudgetExhausted { boundary: 0, used: 0, max_ill: 0 },
            RejectReason::SwitchTooSmall { switch: 0, needed: 0, limit: 0 },
            RejectReason::IllExceeded { got: 0, limit: 0 },
            RejectReason::SwitchTooLarge { switch: 0, ports: 0, limit: 0, frequency_mhz: 0.0 },
            RejectReason::LatencyViolated { excess_cycles: 0.0 },
            RejectReason::NonFiniteMetrics,
            RejectReason::Partition(PartitionError::ZeroParts),
            RejectReason::Placement(SolveError::Unbounded),
            RejectReason::RoutingFailed,
        ];
        let kinds: std::collections::BTreeSet<&str> =
            reasons.iter().map(RejectReason::kind).collect();
        assert_eq!(kinds.len(), reasons.len());
    }
}
