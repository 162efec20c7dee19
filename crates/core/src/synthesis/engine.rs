//! The streaming synthesis engine: explicit candidate enumeration, optional
//! scoped-thread fan-out, early-stop policies and an observable event
//! stream — the redesigned driver behind the Fig. 3 flow.

use super::candidates::{phase1_candidates, phase2_candidates, Candidate, SweepParam};
use super::config::{SynthesisConfig, SynthesisMode};
use super::diagnostics::{RejectReason, SweepEvent, SweepObserver, SynthesisError};
use super::outcome::{DesignPoint, PhaseKind, RejectedPoint, SynthesisOutcome};
use crate::eval::evaluate;
use crate::graph::{CommGraph, PartitionCache, PartitionStats};
use crate::layout::{layout_design, layout_design_tempered, AnnealStats};
use crate::paths::{PathAllocator, PathConfig, PathError, RoutingStats};
use crate::phase1::{self, Connectivity};
use crate::phase2;
use crate::place::{LpStats, PlacementSolver};
use crate::spec::{CommSpec, SocSpec};
use crate::topology::Topology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};
use sunfloor_partition::PartitionError;

/// Per-replica iteration budget of the tempered layout annealer. Modest on
/// purpose: the sweep runs one anneal per layer per candidate attempt, and
/// tempering recovers quality through the aggregate replica budget rather
/// than a long single chain.
const TEMPERED_LAYOUT_ITERATIONS: u32 = 8_000;

/// When the engine stops the sweep before exhausting every candidate.
///
/// The policy is applied to the ordered result stream, so for the
/// deterministic policies ([`StopPolicy::FirstFeasible`] and
/// [`StopPolicy::PointBudget`]) serial and parallel runs stop at the same
/// candidate and produce identical outcomes. [`StopPolicy::Deadline`] is
/// wall-clock based and therefore inherently run-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopPolicy {
    /// Evaluate every candidate (the paper's full trade-off sweep).
    #[default]
    Exhaustive,
    /// Stop as soon as the first candidate (in sweep order) is feasible.
    FirstFeasible,
    /// Stop once this many feasible points have been collected.
    PointBudget(usize),
    /// Stop once this much wall-clock time has elapsed since `run` began
    /// (checked between candidates; an in-flight candidate finishes).
    Deadline(Duration),
}

impl StopPolicy {
    fn met(self, outcome: &SynthesisOutcome, started: Instant) -> bool {
        match self {
            Self::Exhaustive => false,
            Self::FirstFeasible => !outcome.points.is_empty(),
            Self::PointBudget(n) => outcome.points.len() >= n,
            Self::Deadline(limit) => started.elapsed() >= limit,
        }
    }
}

/// Everything one candidate produced: the attempts it burned through
/// (base + θ escalations), the θ values it escalated to, and the feasible
/// point, if any. Computed on a worker thread, committed in order by the
/// driver.
struct CandidateEvaluation {
    candidate: Candidate,
    /// Rejected attempts in the order tried (terminal one last, unless the
    /// candidate was accepted).
    attempts: Vec<RejectedPoint>,
    /// θ values the escalation loop tried, in order.
    thetas: Vec<f64>,
    point: Option<DesignPoint>,
    /// Partition-cache counters this candidate accrued (deterministic per
    /// candidate, so the committed totals match serial and parallel).
    stats: PartitionStats,
    /// Placement-LP counters this candidate accrued (same per-candidate
    /// determinism contract as `stats`).
    lp_stats: LpStats,
    /// Tempered-layout counters this candidate accrued (same per-candidate
    /// determinism contract as `stats`).
    anneal_stats: AnnealStats,
    /// Routing counters this candidate accrued (same per-candidate
    /// determinism contract as `stats`).
    routing_stats: RoutingStats,
}

impl CandidateEvaluation {
    fn new(candidate: Candidate) -> Self {
        Self {
            candidate,
            attempts: Vec::new(),
            thetas: Vec::new(),
            point: None,
            stats: PartitionStats::default(),
            lp_stats: LpStats::default(),
            anneal_stats: AnnealStats::default(),
            routing_stats: RoutingStats::default(),
        }
    }
}

/// The precomputed Phase-1 base partitions: one per swept switch count, the
/// chain warm-starting each count from the previous one's assignment.
///
/// Base partitions are frequency-independent (the PG depends only on α), so
/// they are computed once per engine — serially, in ascending switch-count
/// order — and shared read-only by every sweep worker. This keeps
/// warm-start chains deterministic: a worker never seeds from whatever it
/// happened to evaluate last.
struct Phase1Seeds {
    /// `(requested switch count, seed)` in sweep order.
    seeds: Vec<(usize, Result<Phase1Seed, PartitionError>)>,
    /// Counters accrued while building the chain.
    stats: PartitionStats,
}

struct Phase1Seed {
    conn: Connectivity,
    /// The partition assignment behind `conn`, kept as the warm-start seed
    /// for the candidate's θ-escalation chain.
    assignment: Vec<u32>,
}

impl Phase1Seeds {
    fn get(&self, count: usize) -> Option<&Result<Phase1Seed, PartitionError>> {
        self.seeds.iter().find(|(k, _)| *k == count).map(|(_, seed)| seed)
    }
}

/// The redesigned synthesis driver (paper Fig. 3).
///
/// Construction validates the configuration and the specifications eagerly;
/// [`SynthesisEngine::run`] then evaluates the explicit candidate list —
/// serially or fanned out over scoped worker threads per
/// [`super::Parallelism`] — committing results in deterministic candidate
/// order, so serial and parallel runs produce identical
/// [`SynthesisOutcome`]s.
///
/// ```
/// use sunfloor_core::spec::{CommSpec, Core, Flow, MessageType, SocSpec};
/// use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let soc = SocSpec::new(
///     vec![
///         Core { name: "cpu".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 0 },
///         Core { name: "mem".into(), width: 2.0, height: 2.0, x: 0.0, y: 0.0, layer: 1 },
///     ],
///     2,
/// )?;
/// let comm = CommSpec::new(
///     vec![Flow { src: 0, dst: 1, bandwidth_mbs: 400.0, max_latency_cycles: 6.0,
///                 message_type: MessageType::Request }],
///     &soc,
/// )?;
/// let cfg = SynthesisConfig::builder().jobs(2).build()?;
/// let outcome = SynthesisEngine::new(&soc, &comm, cfg)?.run();
/// assert!(outcome.best_power().is_some());
/// # Ok(())
/// # }
/// ```
pub struct SynthesisEngine<'a> {
    soc: &'a SocSpec,
    graph: CommGraph,
    cfg: SynthesisConfig,
    /// Frequencies of the sweep that admit at least a 2-port switch.
    frequencies: Vec<f64>,
    /// Lazily computed warm-chained Phase-1 base partitions (shared by all
    /// sweep workers; stable across repeated `run` calls).
    phase1_seeds: OnceLock<Phase1Seeds>,
}

impl<'a> SynthesisEngine<'a> {
    /// Validates the specifications and the configuration and prepares the
    /// sweep.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Spec`] for inconsistent specifications,
    /// [`SynthesisError::Config`] for an invalid configuration and
    /// [`SynthesisError::NoUsableFrequency`] when no swept frequency admits
    /// any switch.
    pub fn new(
        soc: &'a SocSpec,
        comm: &CommSpec,
        cfg: SynthesisConfig,
    ) -> Result<Self, SynthesisError> {
        soc.validate()?;
        comm.validate(soc)?;
        cfg.validate()?;
        let frequencies: Vec<f64> = cfg
            .frequencies_mhz
            .iter()
            .copied()
            .filter(|&f| cfg.library.switch.max_size_for_frequency(f) >= 2)
            .collect();
        if frequencies.is_empty() {
            return Err(SynthesisError::NoUsableFrequency);
        }
        let graph = CommGraph::new(soc, comm);
        Ok(Self {
            soc,
            graph,
            cfg,
            frequencies,
            phase1_seeds: OnceLock::new(),
        })
    }

    /// The warm-chained Phase-1 base partitions, computed once per engine.
    fn phase1_seeds(&self) -> &Phase1Seeds {
        self.phase1_seeds.get_or_init(|| {
            let cfg = &self.cfg;
            let mut cache = PartitionCache::new();
            let mut seeds = Vec::new();
            let mut prev: Option<Vec<u32>> = None;
            // Switch counts are frequency-independent; enumerate them from
            // the first usable frequency's candidate list.
            let counts = self
                .frequencies
                .first()
                .map(|&f| phase1_candidates(cfg, self.soc, f))
                .unwrap_or_default();
            for candidate in counts {
                let SweepParam::SwitchCount(count) = candidate.sweep else { continue };
                let result = phase1::connectivity_cached(
                    &self.graph,
                    self.soc,
                    count,
                    cfg.alpha,
                    None,
                    cfg.theta_max,
                    cfg.rng_seed,
                    prev.as_deref(),
                    &mut cache,
                );
                match result {
                    Ok(conn) => {
                        let assignment: Vec<u32> =
                            conn.core_attach.iter().map(|&a| a as u32).collect();
                        prev = Some(assignment.clone());
                        seeds.push((count, Ok(Phase1Seed { conn, assignment })));
                    }
                    Err(e) => seeds.push((count, Err(e))),
                }
            }
            Phase1Seeds { seeds, stats: cache.stats }
        })
    }

    /// The configuration the engine runs with.
    #[must_use]
    pub fn config(&self) -> &SynthesisConfig {
        &self.cfg
    }

    /// The explicit candidate list of the primary sweep, in evaluation
    /// order: for every usable frequency, the Phase 1 switch counts
    /// ([`SynthesisMode::Auto`] / [`SynthesisMode::Phase1Only`]) or the
    /// Phase 2 increments ([`SynthesisMode::Phase2Only`]). In `Auto` mode
    /// the engine additionally enumerates the Phase 2 increments for a
    /// frequency whose Phase 1 sweep yielded no feasible point.
    #[must_use]
    pub fn candidates(&self) -> Vec<Candidate> {
        self.frequencies.iter().flat_map(|&f| self.primary_candidates(f)).collect()
    }

    /// The primary candidate list at one frequency — the single source both
    /// [`Self::candidates`] and the run loop enumerate from.
    fn primary_candidates(&self, freq: f64) -> Vec<Candidate> {
        match self.cfg.mode {
            SynthesisMode::Auto | SynthesisMode::Phase1Only => {
                phase1_candidates(&self.cfg, self.soc, freq)
            }
            SynthesisMode::Phase2Only => phase2_candidates(&self.cfg, self.soc, freq),
        }
    }

    /// Runs the full sweep (no early stop, no observer).
    #[must_use]
    pub fn run(&self) -> SynthesisOutcome {
        self.run_inner(StopPolicy::Exhaustive, None)
    }

    /// Runs the sweep until `policy` says stop.
    #[must_use]
    pub fn run_with_policy(&self, policy: StopPolicy) -> SynthesisOutcome {
        self.run_inner(policy, None)
    }

    /// Runs the full sweep, streaming [`SweepEvent`]s to `observer`.
    #[must_use]
    pub fn run_with_observer(&self, observer: &mut dyn SweepObserver) -> SynthesisOutcome {
        self.run_inner(StopPolicy::Exhaustive, Some(observer))
    }

    /// Runs the sweep with both an early-stop policy and an observer.
    #[must_use]
    pub fn run_with(
        &self,
        policy: StopPolicy,
        observer: &mut dyn SweepObserver,
    ) -> SynthesisOutcome {
        self.run_inner(policy, Some(observer))
    }

    fn run_inner(
        &self,
        policy: StopPolicy,
        mut observer: Option<&mut dyn SweepObserver>,
    ) -> SynthesisOutcome {
        let started = Instant::now(); // sf-allow(nondet-source): the Deadline StopPolicy is wall-clock by design; results stay deterministic, only the cut-off point varies
        let mut outcome = SynthesisOutcome::default();
        if self.cfg.mode != SynthesisMode::Phase2Only {
            // The shared warm-chained base partitions (computed on first
            // run) count towards this run's diagnostics.
            outcome.partition_stats += self.phase1_seeds().stats;
        }
        for &freq in &self.frequencies {
            let primary = self.primary_candidates(freq);
            let before = outcome.points.len();
            if self.sweep(&primary, policy, &mut observer, &mut outcome, started) {
                return outcome;
            }
            // The two-phase method of §IV: when Phase 1 delivers nothing at
            // this frequency, retry layer-by-layer.
            if self.cfg.mode == SynthesisMode::Auto && outcome.points.len() == before {
                let fallback = phase2_candidates(&self.cfg, self.soc, freq);
                if self.sweep(&fallback, policy, &mut observer, &mut outcome, started) {
                    return outcome;
                }
            }
        }
        outcome
    }

    /// Evaluates one candidate batch, committing results (and streaming
    /// events) in candidate order as evaluations complete. Returns `true`
    /// when `policy` stopped the run.
    ///
    /// Serially, each candidate is committed the moment it finishes. In
    /// parallel, `jobs` scoped workers pull candidates from a shared queue
    /// (a slow candidate never idles the others) and deposit results into
    /// per-candidate slots; the driver thread commits slot `i` as soon as
    /// it fills, so the observer still sees a live, in-order stream. An
    /// early stop raises a flag that keeps workers from claiming further
    /// candidates, bounding wasted work to the in-flight ones.
    fn sweep(
        &self,
        candidates: &[Candidate],
        policy: StopPolicy,
        observer: &mut Option<&mut dyn SweepObserver>,
        outcome: &mut SynthesisOutcome,
        started: Instant,
    ) -> bool {
        let jobs = self.cfg.parallelism.effective_jobs().min(candidates.len());
        if jobs <= 1 {
            // One reusable routing workspace, partition cache and placement
            // solver for the whole serial sweep.
            let mut alloc = PathAllocator::new();
            let mut cache = PartitionCache::new();
            let mut placement = PlacementSolver::new();
            for &candidate in candidates {
                if policy.met(outcome, started) {
                    return true;
                }
                let ev =
                    self.evaluate_candidate(candidate, &mut alloc, &mut cache, &mut placement);
                self.commit(ev, observer, outcome);
            }
            return false;
        }

        let stop = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let slots: Vec<(Mutex<Option<CandidateEvaluation>>, Condvar)> =
            candidates.iter().map(|_| (Mutex::new(None), Condvar::new())).collect();
        let mut stopped = false;
        thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| {
                    // Per-worker routing workspace, partition cache and
                    // placement solver, reused across every candidate this
                    // worker claims.
                    let mut alloc = PathAllocator::new();
                    let mut cache = PartitionCache::new();
                    let mut placement = PlacementSolver::new();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&candidate) = candidates.get(i) else { break };
                        let ev = self.evaluate_candidate(
                            candidate,
                            &mut alloc,
                            &mut cache,
                            &mut placement,
                        );
                        let (lock, cvar) = &slots[i];
                        // Poison recovery: a slot holds a plain Option, so
                        // the value is valid even if another worker
                        // panicked mid-sweep (the panic still propagates at
                        // scope join).
                        *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                            Some(ev);
                        cvar.notify_all();
                    }
                });
            }
            // Commit in candidate order, each slot as soon as it fills. A
            // claimed index is always filled before its worker exits, and
            // indices are claimed in order, so waiting on slot `i` cannot
            // deadlock.
            for (i, (lock, cvar)) in slots.iter().enumerate() {
                if policy.met(outcome, started) {
                    stop.store(true, Ordering::Relaxed);
                    stopped = true;
                    break;
                }
                let mut guard =
                    lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let ev = loop {
                    if let Some(ev) = guard.take() {
                        break ev;
                    }
                    guard = cvar
                        .wait(guard)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                };
                drop(guard);
                debug_assert_eq!(ev.candidate, candidates[i]);
                self.commit(ev, observer, outcome);
            }
        });
        stopped
    }

    /// Appends one candidate's results to the outcome and replays its event
    /// stream: `CandidateStarted`, any `ThetaEscalated`, then exactly one
    /// terminal `CandidateAccepted` / `CandidateRejected`.
    fn commit(
        &self,
        ev: CandidateEvaluation,
        observer: &mut Option<&mut dyn SweepObserver>,
        outcome: &mut SynthesisOutcome,
    ) {
        let emit = |observer: &mut Option<&mut dyn SweepObserver>, event: SweepEvent| {
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_event(&event);
            }
        };
        emit(observer, SweepEvent::CandidateStarted { candidate: ev.candidate });
        for &theta in &ev.thetas {
            emit(observer, SweepEvent::ThetaEscalated { candidate: ev.candidate, theta });
        }
        let terminal_reason =
            if ev.point.is_none() { ev.attempts.last().map(|a| a.reason.clone()) } else { None };
        outcome.partition_stats += ev.stats;
        outcome.lp_stats += ev.lp_stats;
        outcome.anneal_stats += ev.anneal_stats;
        outcome.routing_stats += ev.routing_stats;
        outcome.rejected.extend(ev.attempts);
        match ev.point {
            Some(point) => {
                outcome.points.push(point);
                emit(
                    observer,
                    SweepEvent::CandidateAccepted {
                        candidate: ev.candidate,
                        point_index: outcome.points.len() - 1,
                    },
                );
            }
            None => {
                emit(
                    observer,
                    SweepEvent::CandidateRejected {
                        candidate: ev.candidate,
                        reason: terminal_reason.unwrap_or(RejectReason::RoutingFailed),
                    },
                );
            }
        }
    }

    fn evaluate_candidate(
        &self,
        candidate: Candidate,
        alloc: &mut PathAllocator,
        cache: &mut PartitionCache,
        placement: &mut PlacementSolver,
    ) -> CandidateEvaluation {
        let before = cache.stats;
        let lp_before = placement.stats();
        let routing_before = alloc.stats();
        let mut ev = match candidate.sweep {
            SweepParam::SwitchCount(k) => {
                self.evaluate_phase1(candidate, k, alloc, cache, placement)
            }
            SweepParam::Increment(inc) => self.evaluate_phase2(candidate, inc, alloc, placement),
        };
        ev.stats += cache.stats - before;
        ev.lp_stats += placement.stats() - lp_before;
        ev.routing_stats += alloc.stats() - routing_before;
        ev
    }

    /// Algorithm 1 for one candidate: the base attempt from the
    /// precomputed seed partition, then the θ escalation loop — each step
    /// warm-started from the previous assignment on a freshly built SPG —
    /// until the constraints are met or θ runs out.
    fn evaluate_phase1(
        &self,
        candidate: Candidate,
        count: usize,
        alloc: &mut PathAllocator,
        cache: &mut PartitionCache,
        placement: &mut PlacementSolver,
    ) -> CandidateEvaluation {
        let cfg = &self.cfg;
        let freq = candidate.frequency_mhz;
        let mut ev = CandidateEvaluation::new(candidate);
        let reject = |theta: Option<f64>, reason: RejectReason| RejectedPoint {
            requested_switches: count,
            frequency_mhz: freq,
            phase: PhaseKind::Phase1,
            theta,
            reason,
        };

        // Resolve the base seed: from the precomputed warm-chained set, or
        // (defensively — cannot happen for counts the engine itself
        // enumerates) computed here.
        let mut computed: Option<Phase1Seed> = None;
        let seed: &Phase1Seed = match self.phase1_seeds().get(count) {
            Some(Ok(seed)) => {
                cache.stats.base_cache_hits += 1;
                seed
            }
            Some(Err(e)) => {
                // The partitioner cannot produce this split at any θ:
                // terminal, no escalation.
                ev.attempts.push(reject(None, e.clone().into()));
                return ev;
            }
            None => match phase1::connectivity_cached(
                &self.graph,
                self.soc,
                count,
                cfg.alpha,
                None,
                cfg.theta_max,
                cfg.rng_seed,
                None,
                cache,
            ) {
                Ok(conn) => {
                    let assignment = conn.core_attach.iter().map(|&a| a as u32).collect();
                    &*computed.insert(Phase1Seed { conn, assignment })
                }
                Err(e) => {
                    ev.attempts.push(reject(None, e.into()));
                    return ev;
                }
            },
        };
        match self.try_candidate(
            freq,
            &seed.conn,
            PhaseKind::Phase1,
            false,
            alloc,
            placement,
            &mut ev.anneal_stats,
        ) {
            Ok(point) => {
                ev.point = Some(point);
                return ev;
            }
            Err(reason) => ev.attempts.push(reject(None, reason)),
        }
        let mut warm = seed.assignment.clone();

        // θ loop (Algorithm 1, steps 11–20), each step seeding the
        // partitioner from the previous assignment.
        let mut theta = cfg.theta_min;
        while theta <= cfg.theta_max + 1e-9 {
            ev.thetas.push(theta);
            if let Ok(conn) = phase1::connectivity_cached(
                &self.graph,
                self.soc,
                count,
                cfg.alpha,
                Some(theta),
                cfg.theta_max,
                cfg.rng_seed,
                Some(&warm),
                cache,
            ) {
                warm.clear();
                warm.extend(conn.core_attach.iter().map(|&a| a as u32));
                match self.try_candidate(
                    freq,
                    &conn,
                    PhaseKind::Phase1,
                    false,
                    alloc,
                    placement,
                    &mut ev.anneal_stats,
                ) {
                    Ok(point) => {
                        ev.point = Some(point);
                        return ev;
                    }
                    Err(reason) => ev.attempts.push(reject(Some(theta), reason)),
                }
            }
            theta += cfg.theta_step;
        }
        ev
    }

    /// Algorithm 2 for one candidate: a single layer-by-layer attempt at
    /// the given per-layer increment.
    fn evaluate_phase2(
        &self,
        candidate: Candidate,
        increment: usize,
        alloc: &mut PathAllocator,
        placement: &mut PlacementSolver,
    ) -> CandidateEvaluation {
        let cfg = &self.cfg;
        let freq = candidate.frequency_mhz;
        let max_sw = cfg.library.switch.max_size_for_frequency(freq);
        let mut ev = CandidateEvaluation::new(candidate);
        match phase2::connectivity(&self.graph, self.soc, increment, max_sw, cfg.alpha, cfg.rng_seed)
        {
            Ok(conn) => match self.try_candidate(
                freq,
                &conn,
                PhaseKind::Phase2,
                true,
                alloc,
                placement,
                &mut ev.anneal_stats,
            ) {
                Ok(point) => ev.point = Some(point),
                Err(reason) => ev.attempts.push(RejectedPoint {
                    requested_switches: conn.switch_count(),
                    frequency_mhz: freq,
                    phase: PhaseKind::Phase2,
                    theta: None,
                    reason,
                }),
            },
            Err(e) => ev.attempts.push(RejectedPoint {
                requested_switches: increment,
                frequency_mhz: freq,
                phase: PhaseKind::Phase2,
                theta: None,
                reason: e.into(),
            }),
        }
        ev
    }

    /// The router's constraint set at `freq`: the configured vertical-link
    /// budget and soft margins, and the library's switch-size limit.
    fn path_config(&self, freq: f64, adjacent_only: bool) -> PathConfig {
        let cfg = &self.cfg;
        PathConfig {
            max_ill: cfg.max_ill,
            soft_ill_margin: cfg.soft_ill_margin,
            max_switch_size: cfg.library.switch.max_size_for_frequency(freq),
            soft_switch_margin: cfg.soft_switch_margin,
            adjacent_layers_only: adjacent_only,
            frequency_mhz: freq,
            deadlock_retries: 24,
        }
    }

    /// Routes, places, lays out and evaluates one connectivity candidate,
    /// applying the indirect-switch fallback on routing failure. Counters
    /// from the tempered layout path (if configured) accrue into `anneal`.
    #[allow(clippy::too_many_arguments)]
    fn try_candidate(
        &self,
        freq: f64,
        conn: &Connectivity,
        phase: PhaseKind,
        adjacent_only: bool,
        alloc: &mut PathAllocator,
        placement: &mut PlacementSolver,
        anneal: &mut AnnealStats,
    ) -> Result<DesignPoint, RejectReason> {
        let cfg = &self.cfg;
        let soc = self.soc;
        let core_layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
        let path_cfg = self.path_config(freq, adjacent_only);

        // Routing with the indirect-switch fallback (§VI): when no route
        // exists, add one unattached switch per layer (a pure transit
        // switch) and retry.
        let mut switch_layer = conn.switch_layer.clone();
        let mut est_pos = conn.est_positions.clone();
        let mut indirect: Vec<usize> = Vec::new();
        let mut topo: Option<Topology> = None;
        let mut last_err: Option<PathError> = None;

        for round in 0..=cfg.indirect_switch_rounds {
            match alloc.compute_paths(
                &self.graph,
                &conn.core_attach,
                &switch_layer,
                &est_pos,
                &core_layers,
                soc.layers,
                &cfg.library,
                &path_cfg,
                cfg.alpha,
            ) {
                Ok(mut t) => {
                    t.indirect_switches = indirect.clone();
                    topo = Some(t);
                    break;
                }
                Err(e @ (PathError::NoRoute { .. } | PathError::DeadlockUnavoidable { .. }))
                    if round < cfg.indirect_switch_rounds =>
                {
                    last_err = Some(e);
                    // Add one transit switch per populated layer at the
                    // layer centroid.
                    for layer in 0..soc.layers {
                        let members = soc.cores_in_layer(layer);
                        if members.is_empty() {
                            continue;
                        }
                        let (mut cx, mut cy) = (0.0, 0.0);
                        for &c in &members {
                            let (x, y) = soc.cores[c].center();
                            cx += x;
                            cy += y;
                        }
                        indirect.push(switch_layer.len());
                        switch_layer.push(layer);
                        est_pos
                            .push((cx / members.len() as f64, cy / members.len() as f64));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        let mut topo = topo.ok_or_else(|| {
            last_err.map_or(RejectReason::RoutingFailed, RejectReason::from)
        })?;

        // Switch placement (§VII).
        placement.place(&mut topo, soc, &self.graph).map_err(RejectReason::from)?;

        // Physical insertion + final evaluation: the shove-insertion
        // routine by default, or the tempered constrained annealer when
        // `anneal_replicas` is set. The replica pool is worker-aware: a
        // parallel sweep already saturates the machine with candidate
        // workers, so each anneal then multiplexes its replicas onto one
        // thread (the *result* is identical either way — threads only
        // schedule).
        let layout = if cfg.run_layout {
            if cfg.anneal_replicas >= 1 {
                let temper = sunfloor_floorplan::TemperConfig {
                    base: sunfloor_floorplan::AnnealConfig::default()
                        .with_iterations(TEMPERED_LAYOUT_ITERATIONS)
                        .with_seed(cfg.rng_seed),
                    replicas: cfg.anneal_replicas,
                    threads: if cfg.parallelism.effective_jobs() > 1 { 1 } else { 0 },
                    ..sunfloor_floorplan::TemperConfig::default()
                };
                let (l, stats) = layout_design_tempered(&mut topo, soc, &cfg.library, &temper);
                *anneal += stats;
                Some(l)
            } else {
                Some(layout_design(&mut topo, soc, &cfg.library, cfg.layout_search_radius_mm))
            }
        } else {
            None
        };
        let metrics = evaluate(&topo, soc, &self.graph, &cfg.library, freq);

        // Final constraint screening (Fig. 3's last step). The finiteness
        // check comes first: with overflowed metrics the remaining
        // comparisons (notably the NaN-poisoned latency slack) are
        // meaningless.
        if !metrics.is_finite() {
            return Err(RejectReason::NonFiniteMetrics);
        }
        if metrics.max_inter_layer_links() > cfg.max_ill {
            return Err(RejectReason::IllExceeded {
                got: metrics.max_inter_layer_links(),
                limit: cfg.max_ill,
            });
        }
        for s in 0..topo.switch_count() {
            if topo.switch_size(s) > path_cfg.max_switch_size {
                return Err(RejectReason::SwitchTooLarge {
                    switch: s,
                    ports: topo.switch_size(s),
                    limit: path_cfg.max_switch_size,
                    frequency_mhz: freq,
                });
            }
        }
        if !metrics.meets_latency() {
            return Err(RejectReason::LatencyViolated {
                excess_cycles: metrics.worst_latency_violation,
            });
        }

        Ok(DesignPoint {
            requested_switches: conn.switch_count(),
            topology: topo,
            metrics,
            layout,
            phase,
            theta: conn.theta,
        })
    }
}
