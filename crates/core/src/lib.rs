//! SunFloor 3D: application-specific NoC topology synthesis for 3-D stacked
//! SoCs.
//!
//! A from-scratch reproduction of Seiculescu, Murali, Benini & De Micheli,
//! *"SunFloor 3D: A Tool for Networks on Chip Topology Synthesis for 3-D
//! Systems on Chips"* (IEEE TCAD 29(12), 2010; DATE 2009). Given the cores
//! of a 3-D SoC (sizes, per-layer positions, layer assignment) and the
//! application's traffic flows (bandwidth, latency budget, message class),
//! the tool:
//!
//! 1. explores switch counts and operating frequencies (Fig. 3),
//! 2. assigns cores to switches by balanced min-cut partitioning — Phase 1
//!    across layers (Algorithm 1, with the θ-scaled SPG escalation) or
//!    Phase 2 layer-by-layer (Algorithm 2),
//! 3. routes every flow deadlock-free under the through-silicon-via budget
//!    (`max_ill`) and frequency-dependent switch-size constraints
//!    (Algorithm 3's hard/soft thresholds),
//! 4. places the switches at the optimum of bandwidth-weighted Manhattan
//!    wirelength (§VII) — solved exactly by nested minimum cuts in a
//!    per-worker [`place::PlacementSolver`] — and inserts them, plus the
//!    TSV macros, into the floorplan with a minimal-disturbance shove
//!    routine,
//! 5. reports power / latency / area / vertical-link metrics for every
//!    feasible design point, forming the trade-off set the designer picks
//!    from.
//!
//! # Quickstart
//!
//! Build a validated [`SynthesisConfig`] with the builder, hand it to a
//! [`SynthesisEngine`] and run the sweep:
//!
//! ```
//! use sunfloor_core::spec::{CommSpec, Core, Flow, MessageType, SocSpec};
//! use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two cores stacked on two layers, one flow between them.
//! let soc = SocSpec::new(
//!     vec![
//!         Core { name: "cpu".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 0 },
//!         Core { name: "mem".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 1 },
//!     ],
//!     2,
//! )?;
//! let comm = CommSpec::new(
//!     vec![Flow {
//!         src: 0,
//!         dst: 1,
//!         bandwidth_mbs: 400.0,
//!         max_latency_cycles: 6.0,
//!         message_type: MessageType::Request,
//!     }],
//!     &soc,
//! )?;
//! // The builder validates eagerly: a bad sweep is a typed `ConfigError`
//! // here, not a surprise mid-run.
//! let cfg = SynthesisConfig::builder()
//!     .frequency_mhz(400.0)
//!     .max_ill(25)
//!     .build()?;
//! let outcome = SynthesisEngine::new(&soc, &comm, cfg)?.run();
//! let best = outcome.best_power().expect("a feasible topology");
//! assert!(best.metrics.meets_latency());
//! # Ok(())
//! # }
//! ```
//!
//! Design-space sweeps parallelize with
//! [`.jobs(n)`](synthesis::SynthesisConfigBuilder::jobs) (candidates are
//! independent; results are committed in deterministic order, so serial and
//! parallel runs agree bit-for-bit), stream progress through
//! [`run_with_observer`](synthesis::SynthesisEngine::run_with_observer),
//! and stop early with a [`StopPolicy`] (first-feasible, point budget, or
//! wall-clock deadline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod export;
pub mod graph;
pub mod layout;
pub mod paths;
pub mod phase1;
pub mod phase2;
pub mod place;
pub mod spec;
pub mod synthesis;
pub mod topology;

pub use eval::{evaluate, DesignMetrics, PowerBreakdown};
pub use graph::{CommEdge, CommGraph};
pub use layout::{layout_design, Layout};
pub use paths::{PathAllocator, PathConfig, PathError, RoutingStats};
pub use spec::{CommSpec, Core, Flow, MessageType, SocSpec, SpecError};
pub use synthesis::{
    Candidate, ConfigError, DesignPoint, Parallelism, PhaseKind, RejectReason, RejectedPoint,
    StopPolicy, SweepEvent, SweepObserver, SweepParam, SynthesisConfig, SynthesisConfigBuilder,
    SynthesisEngine, SynthesisError, SynthesisMode, SynthesisOutcome,
};
pub use topology::{FlowPath, Link, Topology};
