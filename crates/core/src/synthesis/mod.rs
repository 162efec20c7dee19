//! The SunFloor 3D synthesis driver (paper Fig. 3), redesigned as a module
//! family around a streaming engine.
//!
//! For every operating frequency and every switch count, the driver builds
//! a core-to-switch connectivity (Phase 1 with the θ escalation loop of
//! Algorithm 1; Phase 2's layer-by-layer Algorithm 2 as fallback or on
//! request), routes the flows under the TSV and switch-size constraints,
//! solves the switch-placement LP, inserts the components into the
//! floorplan, and keeps every design point that meets all constraints. The
//! output is the power/latency/area trade-off set from which a designer (or
//! [`SynthesisOutcome::best_power`]) picks the final topology.
//!
//! The API splits into five pieces:
//!
//! * [`config`] — [`SynthesisConfig`] with an eagerly validating
//!   [`SynthesisConfig::builder`], typed [`ConfigError`]s and the
//!   [`Parallelism`] knob;
//! * [`candidates`] — the explicit [`Candidate`] enumeration of the
//!   design-space sweep;
//! * [`engine`] — the [`SynthesisEngine`] whose
//!   [`run`](SynthesisEngine::run) /
//!   [`run_with_observer`](SynthesisEngine::run_with_observer) methods
//!   evaluate candidates (optionally fanned out over scoped threads) under
//!   an early-[`StopPolicy`];
//! * [`diagnostics`] — typed [`RejectReason`]s (whose `Display` preserves
//!   the legacy message text) and the [`SweepEvent`] stream;
//! * [`outcome`] — [`DesignPoint`], [`RejectedPoint`] and the
//!   [`SynthesisOutcome`] trade-off set.
//!
//! Candidates are independent — the θ-escalation loop runs *inside* a
//! candidate — so `Parallelism::Jobs(n)` evaluates them concurrently while
//! committing results in candidate order: serial and parallel runs produce
//! bit-for-bit identical outcomes.

pub mod candidates;
pub mod config;
pub mod diagnostics;
pub mod engine;
pub mod outcome;

pub use candidates::{Candidate, SweepParam};
pub use config::{
    ConfigError, Parallelism, SynthesisConfig, SynthesisConfigBuilder, SynthesisMode,
    MAX_ANNEAL_REPLICAS,
};
pub use diagnostics::{RejectReason, SweepEvent, SweepObserver, SynthesisError};
pub use engine::{StopPolicy, SynthesisEngine};
pub use outcome::{DesignPoint, PhaseKind, RejectedPoint, SynthesisOutcome};

pub use crate::graph::PartitionStats;
pub use crate::place::LpStats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommSpec, Core, Flow, MessageType, SocSpec};

    /// A small 8-core, 2-layer SoC with mixed traffic.
    fn small_soc() -> (SocSpec, CommSpec) {
        let mut cores = Vec::new();
        for i in 0..8 {
            cores.push(Core {
                name: format!("c{i}"),
                width: 1.5,
                height: 1.5,
                x: f64::from(i % 2) * 2.0,
                y: f64::from((i / 2) % 2) * 2.0,
                layer: u32::from(i >= 4),
            });
        }
        let soc = SocSpec::new(cores, 2).unwrap();
        let f = |src, dst, bw: f64, class| Flow {
            src,
            dst,
            bandwidth_mbs: bw,
            max_latency_cycles: 12.0,
            message_type: class,
        };
        let comm = CommSpec::new(
            vec![
                f(0, 4, 400.0, MessageType::Request),
                f(4, 0, 200.0, MessageType::Response),
                f(1, 5, 300.0, MessageType::Request),
                f(2, 6, 250.0, MessageType::Request),
                f(3, 7, 150.0, MessageType::Request),
                f(0, 1, 80.0, MessageType::Request),
                f(2, 3, 60.0, MessageType::Request),
                f(5, 6, 50.0, MessageType::Request),
            ],
            &soc,
        )
        .unwrap();
        (soc, comm)
    }

    fn quick_cfg() -> SynthesisConfig {
        SynthesisConfig::builder()
            .switch_count_range(1, 6)
            .run_layout(false)
            .build()
            .unwrap()
    }

    fn run(soc: &SocSpec, comm: &CommSpec, cfg: SynthesisConfig) -> SynthesisOutcome {
        SynthesisEngine::new(soc, comm, cfg).unwrap().run()
    }

    #[test]
    fn produces_feasible_points() {
        let (soc, comm) = small_soc();
        let outcome = run(&soc, &comm, quick_cfg());
        assert!(!outcome.points.is_empty(), "rejected: {:?}", outcome.rejected);
        for p in &outcome.points {
            assert!(p.metrics.meets_latency());
            assert!(p.metrics.max_inter_layer_links() <= 25);
            // Every flow is routed.
            for path in &p.topology.flow_paths {
                assert!(!path.switches.is_empty());
            }
        }
    }

    #[test]
    fn best_power_is_minimal() {
        let (soc, comm) = small_soc();
        let outcome = run(&soc, &comm, quick_cfg());
        let best = outcome.best_power().unwrap();
        for p in &outcome.points {
            assert!(p.metrics.power.total_mw() >= best.metrics.power.total_mw() - 1e-12);
        }
    }

    #[test]
    fn pareto_front_is_monotone() {
        let (soc, comm) = small_soc();
        let outcome = run(&soc, &comm, quick_cfg());
        let front = outcome.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].metrics.power.total_mw() <= w[1].metrics.power.total_mw());
            assert!(w[0].metrics.avg_latency_cycles > w[1].metrics.avg_latency_cycles);
        }
    }

    #[test]
    fn phase2_only_keeps_cores_in_layer() {
        let (soc, comm) = small_soc();
        let cfg = SynthesisConfig::builder()
            .mode(SynthesisMode::Phase2Only)
            .run_layout(false)
            .build()
            .unwrap();
        let outcome = run(&soc, &comm, cfg);
        assert!(!outcome.points.is_empty(), "rejected: {:?}", outcome.rejected);
        for p in &outcome.points {
            assert_eq!(p.phase, PhaseKind::Phase2);
            for (c, &sw) in p.topology.core_attach.iter().enumerate() {
                assert_eq!(soc.cores[c].layer, p.topology.switch_layer[sw]);
            }
            // Adjacent layers only.
            for l in &p.topology.links {
                assert!(
                    p.topology.switch_layer[l.from].abs_diff(p.topology.switch_layer[l.to]) <= 1
                );
            }
        }
    }

    #[test]
    fn phase2_survives_budgets_and_stays_adjacent() {
        // The role of Phase 2 (§V-B): deliver topologies under inter-layer
        // restrictions, never using non-adjacent links, with cores attached
        // strictly in-layer. (Whether it beats Phase 1's vertical-link
        // count depends on the benchmark; the cross-benchmark comparison
        // lives in the integration suite.)
        let (soc, comm) = small_soc();
        let cfg = SynthesisConfig::builder()
            .mode(SynthesisMode::Phase2Only)
            .max_ill(6)
            .run_layout(false)
            .build()
            .unwrap();
        let p2 = run(&soc, &comm, cfg);
        let b2 = p2.best_power().expect("phase 2 feasible under a tight budget");
        assert!(b2.metrics.max_inter_layer_links() <= 6);
        for l in &b2.topology.links {
            assert!(b2.topology.switch_layer[l.from].abs_diff(b2.topology.switch_layer[l.to]) <= 1);
        }
    }

    #[test]
    fn tight_ill_constraint_rejects_or_escalates() {
        let (soc, comm) = small_soc();
        let cfg = SynthesisConfig::builder()
            .switch_count_range(1, 6)
            .run_layout(false)
            .max_ill(2)
            .build()
            .unwrap();
        let outcome = run(&soc, &comm, cfg);
        // Either no point at all, or every surviving point obeys the bound.
        for p in &outcome.points {
            assert!(p.metrics.max_inter_layer_links() <= 2);
        }
    }

    #[test]
    fn layout_fills_positions_and_area() {
        let (soc, comm) = small_soc();
        let cfg = SynthesisConfig::builder().switch_count_range(2, 3).build().unwrap();
        let outcome = run(&soc, &comm, cfg);
        let p = outcome.best_power().expect("a feasible point");
        let layout = p.layout.as_ref().expect("layout ran");
        assert_eq!(layout.layers.len(), 2);
        assert!(layout.die_area_mm2() > 0.0);
        for plan in &layout.layers {
            assert!(plan.overlapping_pair().is_none());
        }
    }

    #[test]
    fn unusable_frequency_errors() {
        let (soc, comm) = small_soc();
        let cfg = SynthesisConfig::builder().frequency_mhz(50_000.0).build().unwrap();
        assert!(matches!(
            SynthesisEngine::new(&soc, &comm, cfg),
            Err(SynthesisError::NoUsableFrequency)
        ));
    }

    /// A switch-count range that leaves no candidate in any phase the
    /// mode allows is an error, not an empty sweep that tests nothing.
    #[test]
    fn switch_range_without_candidates_errors() {
        let (soc, comm) = small_soc();
        let cfg = |lo, hi, mode| {
            SynthesisConfig::builder().switch_count_range(lo, hi).mode(mode).build().unwrap()
        };
        for mode in [SynthesisMode::Auto, SynthesisMode::Phase1Only, SynthesisMode::Phase2Only] {
            assert!(matches!(
                SynthesisEngine::new(&soc, &comm, cfg(9, 12, mode)),
                Err(SynthesisError::NoCandidates)
            ));
        }
        // Eight cores admit four switches in Phase 1, but no layer of four
        // cores takes an increment of four in Phase 2.
        assert!(matches!(
            SynthesisEngine::new(&soc, &comm, cfg(4, 8, SynthesisMode::Phase2Only)),
            Err(SynthesisError::NoCandidates)
        ));
        assert!(SynthesisEngine::new(&soc, &comm, cfg(4, 8, SynthesisMode::Auto)).is_ok());
    }

    #[test]
    fn invalid_config_is_rejected_before_exploration() {
        let (soc, comm) = small_soc();
        // A hand-rolled (non-builder) config is still validated by the
        // engine.
        let cfg = SynthesisConfig { alpha: 7.5, ..SynthesisConfig::default() };
        assert!(matches!(
            SynthesisEngine::new(&soc, &comm, cfg),
            Err(SynthesisError::Config(ConfigError::AlphaOutOfRange(_)))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let (soc, comm) = small_soc();
        let a = run(&soc, &comm, quick_cfg());
        let b = run(&soc, &comm, quick_cfg());
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.topology, y.topology);
        }
        // The seeds are built once per engine and every run reports them:
        // a second run of one engine repeats the first, counters included.
        let engine = SynthesisEngine::new(&soc, &comm, quick_cfg()).unwrap();
        let first = engine.run();
        assert!(first.partition_stats.cold_partitions > 0, "the seed chain is reported");
        assert_eq!(first, engine.run());
        assert_eq!(first, a);
        // Phase 2 builds no seeds: its only partitions are Algorithm 2's
        // per-layer ones.
        let cfg = SynthesisConfig::builder()
            .mode(SynthesisMode::Phase2Only)
            .switch_count_range(1, 6)
            .run_layout(false)
            .build()
            .unwrap();
        let engine = SynthesisEngine::new(&soc, &comm, cfg).unwrap();
        let first = engine.run();
        assert!(!first.points.is_empty(), "rejected: {:?}", first.rejected);
        let stats = first.partition_stats;
        assert!(stats.layer_partitions > 0 && stats.fm_moves > 0, "{stats:?}");
        let phase1 = PartitionStats { layer_partitions: 0, fm_moves: 0, ..stats };
        assert_eq!(phase1, PartitionStats::default());
        assert_eq!(first, engine.run());
    }

    #[test]
    fn parallel_run_is_identical_to_serial() {
        let (soc, comm) = small_soc();
        let serial = run(&soc, &comm, quick_cfg());
        for jobs in [2usize, 4, 8] {
            let cfg = SynthesisConfig::builder()
                .switch_count_range(1, 6)
                .run_layout(false)
                .jobs(jobs)
                .build()
                .unwrap();
            let parallel = run(&soc, &comm, cfg);
            assert_eq!(serial, parallel, "jobs={jobs} diverged from the serial sweep");
        }
    }

    #[test]
    fn tempered_layout_sweep_is_identical_serial_and_parallel() {
        let (soc, comm) = small_soc();
        let tempered = |jobs: usize| {
            SynthesisConfig::builder()
                .switch_count_range(2, 3)
                .anneal_replicas(2)
                .jobs(jobs)
                .build()
                .unwrap()
        };
        let serial = run(&soc, &comm, tempered(1));
        assert!(!serial.points.is_empty(), "rejected: {:?}", serial.rejected);
        assert!(serial.anneal_stats.runs > 0, "tempered layout path did not run");
        for jobs in [2usize, 4] {
            let parallel = run(&soc, &comm, tempered(jobs));
            assert_eq!(serial, parallel, "jobs={jobs} diverged with anneal_replicas=2");
        }
    }

    #[test]
    fn candidate_list_is_explicit_and_ordered() {
        let (soc, comm) = small_soc();
        let engine = SynthesisEngine::new(&soc, &comm, quick_cfg()).unwrap();
        let cands = engine.candidates();
        let counts: Vec<usize> = cands.iter().map(|c| c.sweep.value()).collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 5, 6]);
        assert!(cands.iter().all(|c| c.frequency_mhz == 400.0));
        assert!(cands.iter().all(|c| matches!(c.sweep, SweepParam::SwitchCount(_))));
    }

    #[test]
    fn observer_receives_one_terminal_event_per_candidate() {
        use std::collections::BTreeMap;
        let (soc, comm) = small_soc();
        let engine = SynthesisEngine::new(&soc, &comm, quick_cfg()).unwrap();
        let mut events: Vec<SweepEvent> = Vec::new();
        let outcome = engine.run_with_observer(&mut |e: &SweepEvent| events.push(e.clone()));

        let mut started: BTreeMap<String, usize> = BTreeMap::new();
        let mut terminal: BTreeMap<String, usize> = BTreeMap::new();
        for e in &events {
            match e {
                SweepEvent::CandidateStarted { candidate } => {
                    *started.entry(candidate.to_string()).or_default() += 1;
                }
                SweepEvent::CandidateAccepted { candidate, .. }
                | SweepEvent::CandidateRejected { candidate, .. } => {
                    *terminal.entry(candidate.to_string()).or_default() += 1;
                }
                SweepEvent::ThetaEscalated { .. } => {}
            }
        }
        assert!(!started.is_empty());
        assert_eq!(started, terminal, "each started candidate needs exactly one terminal event");
        assert!(terminal.values().all(|&n| n == 1), "{terminal:?}");

        // Accepted events line up with the outcome's points.
        let accepted: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                SweepEvent::CandidateAccepted { point_index, .. } => Some(*point_index),
                _ => None,
            })
            .collect();
        assert_eq!(accepted, (0..outcome.points.len()).collect::<Vec<_>>());
    }

    #[test]
    fn observer_stream_is_identical_serial_and_parallel() {
        let (soc, comm) = small_soc();
        let mut serial_events: Vec<SweepEvent> = Vec::new();
        let serial = SynthesisEngine::new(&soc, &comm, quick_cfg())
            .unwrap()
            .run_with_observer(&mut |e: &SweepEvent| serial_events.push(e.clone()));
        let cfg = SynthesisConfig::builder()
            .switch_count_range(1, 6)
            .run_layout(false)
            .jobs(4)
            .build()
            .unwrap();
        let mut parallel_events: Vec<SweepEvent> = Vec::new();
        let parallel = SynthesisEngine::new(&soc, &comm, cfg)
            .unwrap()
            .run_with_observer(&mut |e: &SweepEvent| parallel_events.push(e.clone()));
        assert_eq!(serial, parallel);
        assert_eq!(serial_events, parallel_events);
    }

    #[test]
    fn first_feasible_stops_after_the_first_accepted_candidate() {
        let (soc, comm) = small_soc();
        let engine = SynthesisEngine::new(&soc, &comm, quick_cfg()).unwrap();
        let full = engine.run();
        let first = engine.run_with_policy(StopPolicy::FirstFeasible);
        assert_eq!(first.points.len(), 1);
        assert_eq!(first.points[0], full.points[0]);
        // Identical under parallel evaluation too.
        let cfg = SynthesisConfig::builder()
            .switch_count_range(1, 6)
            .run_layout(false)
            .jobs(4)
            .build()
            .unwrap();
        let par = SynthesisEngine::new(&soc, &comm, cfg)
            .unwrap()
            .run_with_policy(StopPolicy::FirstFeasible);
        assert_eq!(first, par);
    }

    #[test]
    fn point_budget_caps_the_collected_points() {
        let (soc, comm) = small_soc();
        let engine = SynthesisEngine::new(&soc, &comm, quick_cfg()).unwrap();
        let full = engine.run();
        assert!(full.points.len() >= 2, "need at least two points for this test");
        let budgeted = engine.run_with_policy(StopPolicy::PointBudget(2));
        assert_eq!(budgeted.points.len(), 2);
        assert_eq!(budgeted.points[..], full.points[..2]);
    }

    #[test]
    fn zero_deadline_stops_immediately() {
        let (soc, comm) = small_soc();
        let engine = SynthesisEngine::new(&soc, &comm, quick_cfg()).unwrap();
        let outcome =
            engine.run_with_policy(StopPolicy::Deadline(std::time::Duration::ZERO));
        assert!(outcome.points.is_empty());
        assert!(outcome.rejected.is_empty());
    }

}
