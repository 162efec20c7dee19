//! The differential harness: runs one case through the full pipeline and
//! checks the robustness contract.
//!
//! Contract, per case:
//!
//! 1. **No panic** — parsing, configuration, engine construction and the
//!    sweep itself must map every hostile input to a typed
//!    [`sunfloor_core::spec::SpecError`] /
//!    [`sunfloor_core::synthesis::ConfigError`] /
//!    [`sunfloor_core::synthesis::RejectReason`].
//! 2. **Schedule independence** — the serial sweep and a
//!    `Parallelism::Jobs(3)` sweep (and, on tempered recipes, 1- vs
//!    2-worker tempered runs) must produce bit-identical outcomes.
//! 3. **Classified outcomes** — a run that yields no feasible point must
//!    leave a typed rejection trail (or have no candidates at all).
//! 4. **Fault tolerance** — `StopPolicy::Deadline(ZERO)` and
//!    `StopPolicy::PointBudget(1)` stop promptly with well-formed partial
//!    outcomes, and the observer event stream stays well-formed even when
//!    a policy cancels the sweep mid-stream.
//! 5. **Certified points** — every accepted point passes [`certify`],
//!    which reads only the point, the flows and the link capacity: every
//!    switch has a port, no switch the indirect-switch fallback inserted
//!    has a core attached, every flow runs over links of its class that
//!    list it, each class's channel-dependency graph is acyclic, and no
//!    link carries more than its capacity.

use crate::generator::FuzzCase;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use sunfloor_core::spec::{CommSpec, MessageType, SocSpec};
use sunfloor_core::synthesis::{
    DesignPoint, StopPolicy, SweepEvent, SynthesisConfig, SynthesisEngine, SynthesisOutcome,
};

/// How far through the pipeline a case travelled — every terminal state is
/// a *typed* rejection or a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseClass {
    /// `SocSpec::parse` / `CommSpec::parse` returned a typed `SpecError`.
    SpecRejected,
    /// The configuration recipe returned a typed `ConfigError`.
    ConfigRejected,
    /// `SynthesisEngine::new` returned a typed `SynthesisError`.
    EngineRejected,
    /// The sweep ran; every candidate was rejected with a typed reason.
    NoFeasiblePoint,
    /// The sweep ran and produced feasible points.
    Feasible,
}

/// Which part of the contract a failing case broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Something panicked.
    Panic,
    /// Serial and parallel (or tempered 1- vs 2-worker) outcomes differ.
    Divergence,
    /// A no-point outcome carries no typed rejection trail.
    Unclassified,
    /// The observer event stream violated its grouping contract.
    ObserverContract,
    /// A fault-injected run returned a malformed partial outcome.
    FaultInjection,
    /// An accepted point fails [`certify`].
    Uncertified,
}

impl FailureKind {
    /// Stable label for reports and repro files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Divergence => "divergence",
            Self::Unclassified => "unclassified",
            Self::ObserverContract => "observer-contract",
            Self::FaultInjection => "fault-injection",
            Self::Uncertified => "uncertified",
        }
    }
}

/// A broken contract, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Case index within the run.
    pub index: u64,
    /// Which contract clause broke.
    pub kind: FailureKind,
    /// Human-readable description (panic payload, divergence site, …).
    pub detail: String,
    /// The case that broke it (possibly shrunk).
    pub case: FuzzCase,
}

/// Runs `case` through the whole contract.
///
/// # Errors
///
/// Returns the [`Failure`] describing the first broken contract clause.
#[allow(clippy::result_large_err)] // Err is the rare path and carries the whole repro case by design
pub fn run_case(case: &FuzzCase) -> Result<CaseClass, Failure> {
    let fail = |kind: FailureKind, detail: String| Failure {
        index: case.index,
        kind,
        detail,
        case: case.clone(),
    };

    // 1. Parse. A typed SpecError is a *pass* (the input was classified).
    let soc = match guard(|| SocSpec::parse(&case.soc_text)) {
        Err(payload) => return Err(fail(FailureKind::Panic, format!("SocSpec::parse: {payload}"))),
        Ok(Err(_)) => return Ok(CaseClass::SpecRejected),
        Ok(Ok(soc)) => soc,
    };
    let comm = match guard(|| CommSpec::parse(&case.comm_text, &soc)) {
        Err(payload) => {
            return Err(fail(FailureKind::Panic, format!("CommSpec::parse: {payload}")))
        }
        Ok(Err(_)) => return Ok(CaseClass::SpecRejected),
        Ok(Ok(comm)) => comm,
    };

    // 2. Configuration. Degenerate recipes must yield a typed ConfigError.
    let cfg = match guard(|| case.recipe.build(1)) {
        Err(payload) => return Err(fail(FailureKind::Panic, format!("config build: {payload}"))),
        Ok(Err(_)) => return Ok(CaseClass::ConfigRejected),
        Ok(Ok(cfg)) => cfg,
    };

    // 3. Engine construction (re-validates spec/config coupling).
    let serial = match guard(|| SynthesisEngine::new(&soc, &comm, cfg)) {
        Err(payload) => {
            return Err(fail(FailureKind::Panic, format!("SynthesisEngine::new: {payload}")))
        }
        Ok(Err(_)) => return Ok(CaseClass::EngineRejected),
        Ok(Ok(engine)) => engine,
    };
    let n_candidates = serial.candidates().len();

    // 4. Serial sweep with an observing event recorder.
    let mut events: Vec<SweepEvent> = Vec::new();
    let outcome = match guard(AssertUnwindSafe(|| {
        let mut obs = |e: &SweepEvent| events.push(e.clone());
        serial.run_with_observer(&mut obs)
    })) {
        Err(payload) => return Err(fail(FailureKind::Panic, format!("serial run: {payload}"))),
        Ok(outcome) => outcome,
    };
    if let Err(detail) = check_event_stream(&events, &outcome) {
        return Err(fail(FailureKind::ObserverContract, detail));
    }
    for (i, point) in outcome.points.iter().enumerate() {
        if let Err(detail) = certify(point, &comm, serial.config()) {
            return Err(fail(FailureKind::Uncertified, format!("point {i}: {detail}")));
        }
    }
    if outcome.points.is_empty() && outcome.rejected.is_empty() && n_candidates > 0 {
        return Err(fail(
            FailureKind::Unclassified,
            format!("{n_candidates} candidates produced neither points nor typed rejections"),
        ));
    }

    // 5. Parallel differential: Jobs(3) must be bit-identical.
    let jobs = if case.recipe.is_valid() { 3 } else { 1 };
    if let Ok(cfg_par) = case.recipe.build(jobs) {
        let parallel = match guard(AssertUnwindSafe(|| {
            SynthesisEngine::new(&soc, &comm, cfg_par).map(|e| e.run())
        })) {
            Err(payload) => {
                return Err(fail(FailureKind::Panic, format!("parallel run: {payload}")))
            }
            Ok(Err(_)) => return Ok(CaseClass::EngineRejected),
            Ok(Ok(out)) => out,
        };
        if parallel != outcome {
            return Err(fail(FailureKind::Divergence, divergence_detail(&outcome, &parallel)));
        }
    }

    // 6. Fault injection, subsampled (cases where it is cheap enough to
    //    run everywhere would bias coverage toward trivial inputs).
    if case.index.is_multiple_of(4) {
        check_fault_injection(case, &serial, &outcome)?;
    }

    if outcome.points.is_empty() {
        Ok(CaseClass::NoFeasiblePoint)
    } else {
        Ok(CaseClass::Feasible)
    }
}

/// Checks an accepted point against constraints read from its topology,
/// the flows of `comm` and the link capacity of `cfg`'s library at the
/// point's frequency, with no code shared with the router that built it:
///
/// * every switch has at least one port, and no switch in
///   `indirect_switches` has a core attached;
/// * each flow's path is a walk from its source core's switch to its
///   destination core's switch over links of the flow's class that list
///   the flow, and no other link lists it;
/// * each class's channel-dependency graph, rebuilt from the paths (an
///   edge joins consecutive links of a path), is acyclic;
/// * each link's summed flow bandwidth is within the link capacity.
///
/// # Errors
///
/// Returns a description of the first check the point fails.
pub fn certify(point: &DesignPoint, comm: &CommSpec, cfg: &SynthesisConfig) -> Result<(), String> {
    let topo = &point.topology;
    if let Some(s) = (0..topo.switch_count()).find(|&s| topo.switch_size(s) == 0) {
        return Err(format!("switch {s} has no port"));
    }
    if let Some(s) = topo.indirect_switches.iter().find(|&s| topo.core_attach.contains(s)) {
        return Err(format!("indirect switch {s} has a core attached"));
    }
    let flows = &comm.flows;
    if topo.flow_paths.len() != flows.len() {
        return Err(format!("{} paths for {} flows", topo.flow_paths.len(), flows.len()));
    }

    // How many links list each flow.
    let mut listed = vec![0usize; flows.len()];
    for (li, link) in topo.links.iter().enumerate() {
        for &f in &link.flows {
            let Some(n) = listed.get_mut(f) else {
                return Err(format!("link {li} lists flow {f}, which does not exist"));
            };
            *n += 1;
        }
    }

    // The links each flow's path crosses, in order.
    let mut hops: Vec<Vec<usize>> = Vec::with_capacity(flows.len());
    for (f, (flow, path)) in flows.iter().zip(&topo.flow_paths).enumerate() {
        let (src, dst) = (topo.core_attach[flow.src], topo.core_attach[flow.dst]);
        if path.switches.first() != Some(&src) || path.switches.last() != Some(&dst) {
            return Err(format!("flow {f} does not run from switch {src} to switch {dst}"));
        }
        let mut links = Vec::with_capacity(path.switches.len() - 1);
        for w in path.switches.windows(2) {
            let Some(li) = topo.links.iter().position(|l| {
                (l.from, l.to, l.class) == (w[0], w[1], flow.message_type) && l.flows.contains(&f)
            }) else {
                return Err(format!(
                    "flow {f} hops {} -> {} on no {:?} link that lists it",
                    w[0], w[1], flow.message_type
                ));
            };
            links.push(li);
        }
        if listed[f] != links.len() {
            return Err(format!("flow {f} is listed on {} links but crosses {}", listed[f], links.len()));
        }
        hops.push(links);
    }

    // Kahn's algorithm drains every link of a class's dependency graph
    // exactly when the graph is acyclic.
    for class in [MessageType::Request, MessageType::Response] {
        let mut next: Vec<Vec<usize>> = vec![Vec::new(); topo.links.len()];
        let mut indegree = vec![0usize; topo.links.len()];
        for (flow, links) in flows.iter().zip(&hops) {
            if flow.message_type == class {
                for w in links.windows(2) {
                    next[w[0]].push(w[1]);
                    indegree[w[1]] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..topo.links.len()).filter(|&l| indegree[l] == 0).collect();
        let mut drained = 0;
        while let Some(l) = ready.pop() {
            drained += 1;
            for &m in &next[l] {
                indegree[m] -= 1;
                if indegree[m] == 0 {
                    ready.push(m);
                }
            }
        }
        if drained < topo.links.len() {
            return Err(format!("the {class:?} channel-dependency graph has a cycle"));
        }
    }

    let capacity_gbps = cfg.library.link.capacity_gbps(point.metrics.frequency_mhz);
    for (li, link) in topo.links.iter().enumerate() {
        let load_gbps: f64 = link.flows.iter().map(|&f| flows[f].bandwidth_mbs * 8.0 / 1000.0).sum();
        if load_gbps > capacity_gbps + 1e-9 {
            return Err(format!(
                "link {li} carries {load_gbps} Gbps, over its {capacity_gbps} Gbps capacity"
            ));
        }
    }
    Ok(())
}

/// Catches panics, rendering the payload.
fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())),
    }
}

/// The observer contract: events arrive in per-candidate groups —
/// `CandidateStarted`, any `ThetaEscalated`, then exactly one terminal
/// event — and accepted point indices walk `0..points.len()`.
fn check_event_stream(events: &[SweepEvent], outcome: &SynthesisOutcome) -> Result<(), String> {
    let mut open: Option<String> = None;
    let mut accepted = 0usize;
    for e in events {
        match e {
            SweepEvent::CandidateStarted { candidate } => {
                if let Some(prev) = &open {
                    return Err(format!("candidate `{prev}` never got a terminal event"));
                }
                open = Some(candidate.to_string());
            }
            SweepEvent::ThetaEscalated { candidate, .. } => {
                if open.as_deref() != Some(candidate.to_string().as_str()) {
                    return Err(format!("theta escalation outside `{candidate}`'s group"));
                }
            }
            SweepEvent::CandidateAccepted { candidate, point_index } => {
                if open.as_deref() != Some(candidate.to_string().as_str()) {
                    return Err(format!("acceptance outside `{candidate}`'s group"));
                }
                if *point_index != accepted {
                    return Err(format!(
                        "point index {point_index} out of order (expected {accepted})"
                    ));
                }
                accepted += 1;
                open = None;
            }
            SweepEvent::CandidateRejected { candidate, .. } => {
                if open.as_deref() != Some(candidate.to_string().as_str()) {
                    return Err(format!("rejection outside `{candidate}`'s group"));
                }
                open = None;
            }
        }
    }
    if let Some(prev) = open {
        return Err(format!("candidate `{prev}` never got a terminal event"));
    }
    if accepted != outcome.points.len() {
        return Err(format!(
            "{accepted} accepted events vs {} committed points",
            outcome.points.len()
        ));
    }
    Ok(())
}

/// Injected faults: the zero deadline stops before any candidate, the
/// 1-point budget truncates deterministically (so serial == parallel), and
/// an observer attached to the cancelled sweep still sees a well-formed
/// stream.
#[allow(clippy::result_large_err)] // Err is the rare path and carries the whole repro case by design
fn check_fault_injection(
    case: &FuzzCase,
    engine: &SynthesisEngine<'_>,
    full: &SynthesisOutcome,
) -> Result<(), Failure> {
    let fail = |kind: FailureKind, detail: String| Failure {
        index: case.index,
        kind,
        detail,
        case: case.clone(),
    };

    // Zero deadline: met before the first candidate, so nothing runs.
    let zero = match guard(AssertUnwindSafe(|| {
        engine.run_with_policy(StopPolicy::Deadline(Duration::ZERO))
    })) {
        Err(payload) => {
            return Err(fail(FailureKind::Panic, format!("zero-deadline run: {payload}")))
        }
        Ok(out) => out,
    };
    if !zero.points.is_empty() || !zero.rejected.is_empty() {
        return Err(fail(
            FailureKind::FaultInjection,
            format!(
                "zero deadline still evaluated candidates ({} points, {} rejections)",
                zero.points.len(),
                zero.rejected.len()
            ),
        ));
    }

    // 1-point budget under a cancelled observer stream: prompt, truncated,
    // well-formed, and a prefix of the exhaustive outcome.
    let mut events: Vec<SweepEvent> = Vec::new();
    let budget = match guard(AssertUnwindSafe(|| {
        let mut obs = |e: &SweepEvent| events.push(e.clone());
        engine.run_with(StopPolicy::PointBudget(1), &mut obs)
    })) {
        Err(payload) => {
            return Err(fail(FailureKind::Panic, format!("point-budget run: {payload}")))
        }
        Ok(out) => out,
    };
    if budget.points.len() > 1 {
        return Err(fail(
            FailureKind::FaultInjection,
            format!("PointBudget(1) collected {} points", budget.points.len()),
        ));
    }
    if let Err(detail) = check_event_stream(&events, &budget) {
        return Err(fail(FailureKind::ObserverContract, format!("cancelled sweep: {detail}")));
    }
    if !budget.points.is_empty() && full.points.first() != budget.points.first() {
        return Err(fail(
            FailureKind::FaultInjection,
            "PointBudget(1) found a different first point than the exhaustive run".to_string(),
        ));
    }
    Ok(())
}

fn divergence_detail(serial: &SynthesisOutcome, parallel: &SynthesisOutcome) -> String {
    if serial.points.len() != parallel.points.len() {
        return format!(
            "serial found {} points, parallel {}",
            serial.points.len(),
            parallel.points.len()
        );
    }
    if serial.rejected.len() != parallel.rejected.len() {
        return format!(
            "serial rejected {} attempts, parallel {}",
            serial.rejected.len(),
            parallel.rejected.len()
        );
    }
    "outcomes differ bit-for-bit (same counts, different contents)".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_case, ConfigRecipe};
    use sunfloor_core::spec::Flow;
    use sunfloor_core::topology::{FlowPath, Link, Topology};

    #[test]
    fn a_valid_case_classifies_and_matches_across_schedules() {
        // Find an unmutated Standard-recipe case and push it through.
        let case = (0..400u64)
            .map(|i| generate_case(1, i))
            .find(|c| c.mutations.is_empty() && c.recipe == ConfigRecipe::Standard)
            .expect("an unmutated standard case exists in 400 draws");
        let class = run_case(&case).expect("valid case must satisfy the contract");
        assert!(matches!(class, CaseClass::Feasible | CaseClass::NoFeasiblePoint));
    }

    /// The first unmutated standard case's spec, its configuration and the
    /// first accepted point with a switch-to-switch link.
    fn certified_point() -> (CommSpec, SynthesisConfig, DesignPoint) {
        let case = (0..400u64)
            .map(|i| generate_case(1, i))
            .find(|c| c.mutations.is_empty() && c.recipe == ConfigRecipe::Standard)
            .expect("an unmutated standard case exists in 400 draws");
        let soc = SocSpec::parse(&case.soc_text).unwrap();
        let comm = CommSpec::parse(&case.comm_text, &soc).unwrap();
        let cfg = case.recipe.build(1).unwrap();
        let outcome = SynthesisEngine::new(&soc, &comm, cfg.clone()).unwrap().run();
        let point = (outcome.points.into_iter().find(|p| !p.topology.links.is_empty()))
            .expect("the standard case has a point with a switch-to-switch link");
        assert_eq!(certify(&point, &comm, &cfg), Ok(()));
        (comm, cfg, point)
    }

    #[test]
    fn certify_rejects_portless_switches_and_attached_indirect_switches() {
        let (comm, cfg, point) = certified_point();
        let mut idle = point.clone();
        idle.topology.switch_layer.push(0);
        idle.topology.switch_pos.push((0.0, 0.0));
        let last = idle.topology.switch_count() - 1;
        assert_eq!(certify(&idle, &comm, &cfg), Err(format!("switch {last} has no port")));

        let mut attached = point.clone();
        let s = attached.topology.core_attach[0];
        attached.topology.indirect_switches.push(s);
        assert_eq!(
            certify(&attached, &comm, &cfg),
            Err(format!("indirect switch {s} has a core attached"))
        );
    }

    #[test]
    fn certify_rejects_unlisted_hops_overloaded_links_and_dependency_cycles() {
        let (comm, cfg, point) = certified_point();
        // Link 0 is the first link that lists its first flow.
        let f = point.topology.links[0].flows[0];
        let mut unlisted = point.clone();
        unlisted.topology.links[0].flows.retain(|&g| g != f);
        let err = certify(&unlisted, &comm, &cfg).unwrap_err();
        assert!(err.starts_with(&format!("flow {f} hops ")), "{err}");

        let mut heavy = comm.clone();
        heavy.flows[f].bandwidth_mbs = 1e9;
        let err = certify(&point, &heavy, &cfg).unwrap_err();
        assert!(err.starts_with("link 0 carries "), "{err}");

        // Three request flows around a ring of three switches: each turn
        // is a dependency, and the three close a cycle. Without the third
        // flow the same links are certified.
        let flow = |src, dst| Flow {
            src,
            dst,
            bandwidth_mbs: 1.0,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        };
        let link = |from, to, flows: &[usize]| Link {
            from,
            to,
            bandwidth_gbps: 0.0,
            flows: flows.to_vec(),
            class: MessageType::Request,
        };
        let mut ring = point.clone();
        ring.topology = Topology {
            switch_layer: vec![0; 3],
            switch_pos: vec![(0.0, 0.0); 3],
            core_attach: vec![0, 1, 2],
            links: vec![link(0, 1, &[0, 2]), link(1, 2, &[0, 1]), link(2, 0, &[1, 2])],
            flow_paths: [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
                .map(|p| FlowPath { switches: p.to_vec() })
                .to_vec(),
            indirect_switches: Vec::new(),
        };
        let ring_comm = CommSpec { flows: vec![flow(0, 2), flow(1, 0), flow(2, 1)] };
        assert_eq!(
            certify(&ring, &ring_comm, &cfg),
            Err("the Request channel-dependency graph has a cycle".to_string())
        );
        ring.topology.flow_paths.pop();
        for l in &mut ring.topology.links {
            l.flows.retain(|&g| g != 2);
        }
        let two_flows = CommSpec { flows: ring_comm.flows[..2].to_vec() };
        assert_eq!(certify(&ring, &two_flows, &cfg), Ok(()));
    }

    #[test]
    fn hostile_texts_map_to_spec_rejection() {
        let mut case = generate_case(2, 0);
        case.soc_text = "core a nan 1 0 0 0\n".to_string();
        assert_eq!(run_case(&case), Ok(CaseClass::SpecRejected));
    }

    #[test]
    fn degenerate_config_maps_to_config_rejection() {
        let case = (0..400u64)
            .map(|i| generate_case(3, i))
            .find(|c| c.mutations.is_empty() && !c.recipe.is_valid())
            .expect("a degenerate-config case exists in 400 draws");
        assert_eq!(run_case(&case), Ok(CaseClass::ConfigRejected));
    }
}
