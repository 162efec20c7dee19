//! The streaming synthesis engine: explicit candidate enumeration, optional
//! scoped-thread fan-out, early-stop policies and an observable event
//! stream — the redesigned driver behind the Fig. 3 flow.

use super::candidates::{phase1_candidates, phase2_candidates, Candidate, SweepParam};
use super::config::{SynthesisConfig, SynthesisMode};
use super::diagnostics::{RejectReason, SweepEvent, SweepObserver, SynthesisError};
use super::outcome::{DesignPoint, PhaseKind, RejectedPoint, SynthesisOutcome};
use crate::eval::evaluate;
use crate::graph::{CommGraph, PartitionCache, PartitionStats};
use crate::layout::{
    count_layouts, layout_design, layout_design_tempered_memo, LayerAnneal, LayoutMemo,
};
use crate::paths::{PathAllocator, PathConfig, PathError, RoutingStats};
use crate::phase1::{self, Connectivity};
use crate::phase2;
use crate::place::{LpStats, PlacementSolver};
use crate::spec::{CommSpec, SocSpec};
use crate::topology::Topology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use sunfloor_partition::PartitionError;

/// Per-replica iteration budget of the tempered layout annealer. Modest on
/// purpose: a run anneals each distinct layer input once (a later attempt
/// laying out the same layer reuses it), still about 55 anneals on a
/// 26-core sweep, and tempering recovers quality through the aggregate
/// replica budget rather than a long single chain.
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
    /// Placement-LP counters this candidate accrued (deterministic per
    /// candidate, so the committed totals match serial and parallel).
    lp_stats: LpStats,
    /// The tempered layer anneals this candidate's layouts used, in order.
    /// They are counted at commit ([`count_layouts`]): only what no
    /// earlier committed candidate used is a run.
    layouts: Vec<Arc<LayerAnneal>>,
    /// Routing counters this candidate accrued (same per-candidate
    /// determinism contract as `lp_stats`).
    routing_stats: RoutingStats,
    /// θ steps whose partition repeated the previous attempt, so the
    /// previous rejection was reused instead of evaluating it again.
    repeated_attempts: u64,
    /// Shove-layout probes this candidate accrued (same per-candidate
    /// determinism contract as `lp_stats`).
    shove_probes: u64,
}

impl CandidateEvaluation {
    fn new(candidate: Candidate) -> Self {
        Self {
            candidate,
            attempts: Vec::new(),
            thetas: Vec::new(),
            point: None,
            lp_stats: LpStats::default(),
            layouts: Vec::new(),
            routing_stats: RoutingStats::default(),
            repeated_attempts: 0,
            shove_probes: 0,
        }
    }
}

/// One call of [`SynthesisEngine::try_candidate`]: the partition to try at
/// `freq`, the candidate's routing workspace and placement solver, the
/// run's layer anneals and the layout counters it works in.
struct Attempt<'a> {
    freq: f64,
    conn: &'a Connectivity,
    phase: PhaseKind,
    /// Restrict vertical links to adjacent layers (Phase 2).
    adjacent_only: bool,
    alloc: &'a mut PathAllocator,
    placement: &'a mut PlacementSolver,
    memo: &'a LayoutMemo,
    layouts: &'a mut Vec<Arc<LayerAnneal>>,
    shove_probes: &'a mut u64,
}

/// Whether two partitions make the same attempt: the same core
/// attachments, the same switch layers and bit-equal estimated positions
/// (so `0.0` and `-0.0` differ). θ is not compared; see
/// [`SynthesisEngine::evaluate_phase1`].
fn same_attempt(a: &Connectivity, b: &Connectivity) -> bool {
    fn bits(c: &Connectivity) -> impl Iterator<Item = (u64, u64)> + '_ {
        c.est_positions.iter().map(|&(x, y)| (x.to_bits(), y.to_bits()))
    }
    a.core_attach == b.core_attach && a.switch_layer == b.switch_layer && bits(a).eq(bits(b))
}

/// The partitioner's warm start that refines `conn`.
fn assignment(conn: &Connectivity) -> Vec<u32> {
    conn.core_attach.iter().map(|&a| a as u32).collect()
}

/// A Phase-1 partition, or why the partitioner could not produce one.
type Partition = Result<Connectivity, PartitionError>;

/// One θ step of a switch count's [`Chain`].
#[derive(Clone)]
struct ThetaStep {
    partition: Partition,
    /// The partition makes the same attempt ([`same_attempt`]) as the last
    /// `Ok` step before it or, when there is none, the seed. Every
    /// candidate of the count attempted that one just before, so this
    /// does not depend on the candidate.
    repeats: bool,
    /// The counters of computing `partition`.
    stats: PartitionStats,
}

/// One Phase-1 switch count of a run: its seed partition on the PG and the
/// θ steps computed so far.
///
/// Step `i` is the partition at the `i`-th θ of the escalation loop,
/// warm-started from the last `Ok` step before it or, for the first, from
/// the seed. None of that depends on the frequency, so every candidate of
/// the count walks the same steps: the first to reach a step computes it
/// under the lock, and the others clone it.
struct Chain<'s> {
    count: usize,
    seed: &'s Partition,
    steps: Mutex<Vec<ThetaStep>>,
    /// The longest θ list a committed candidate of this count had: the
    /// steps the run has counted so far.
    committed: AtomicUsize,
}

/// What one run shares between its candidates: a [`Chain`] per Phase-1
/// switch count and the tempered layer anneals.
struct Run<'s> {
    chains: Vec<Chain<'s>>,
    layouts: LayoutMemo,
}

/// The chain of switch count `count`.
fn chain<'c, 's>(chains: &'c [Chain<'s>], count: usize) -> &'c Chain<'s> {
    // sf-allow(panic-in-lib): invariant — the seeds, hence the chains, are
    // built from the Phase-1 candidate list, whose switch counts do not
    // depend on the frequency, so every Phase-1 candidate's count has one
    chains.iter().find(|c| c.count == count).expect("every Phase-1 switch count has a chain")
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
    /// The indirect-switch fallback's transit switches (§VI): one per
    /// populated layer, `(layer, position)` at its cores' centroid.
    transit_switches: Vec<(u32, (f64, f64))>,
    /// The warm-chained Phase-1 seeds, `(switch count, partition on the
    /// PG)` in sweep order; empty in [`SynthesisMode::Phase2Only`].
    seeds: Vec<(usize, Partition)>,
    /// The counters of building `seeds`, re-reported by every run.
    seed_stats: PartitionStats,
}

impl<'a> SynthesisEngine<'a> {
    /// Validates the specifications and the configuration and prepares the
    /// sweep, partitioning every swept Phase-1 switch count on the PG.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Spec`] for inconsistent specifications,
    /// [`SynthesisError::Config`] for an invalid configuration,
    /// [`SynthesisError::NoUsableFrequency`] when no swept frequency admits
    /// any switch and [`SynthesisError::NoCandidates`] when the switch-count
    /// range leaves no candidate at any of them.
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
        let Some(&first) = frequencies.first() else {
            return Err(SynthesisError::NoUsableFrequency);
        };
        let phase1 = match cfg.mode {
            SynthesisMode::Phase2Only => Vec::new(),
            _ => phase1_candidates(&cfg, soc, first),
        };
        let phase2 = cfg.mode != SynthesisMode::Phase1Only
            && frequencies.iter().any(|&f| !phase2_candidates(&cfg, soc, f).is_empty());
        if phase1.is_empty() && !phase2 {
            return Err(SynthesisError::NoCandidates);
        }
        let graph = CommGraph::new(soc, comm);
        let transit_switches = (0..soc.layers)
            .filter_map(|layer| {
                let members = soc.cores_in_layer(layer);
                if members.is_empty() {
                    return None;
                }
                let (mut cx, mut cy) = (0.0, 0.0);
                for &c in &members {
                    let (x, y) = soc.cores[c].center();
                    cx += x;
                    cy += y;
                }
                Some((layer, (cx / members.len() as f64, cy / members.len() as f64)))
            })
            .collect();
        // The seed chain: each switch count warm-started from the previous
        // count's assignment, built serially so every sweep worker reads the
        // same seeds. Switch counts do not depend on the frequency.
        let mut cache = PartitionCache::new();
        let mut seeds = Vec::new();
        let mut prev: Option<Vec<u32>> = None;
        for candidate in phase1 {
            let count = candidate.sweep.value();
            let seed = phase1::connectivity_cached(
                &graph,
                soc,
                count,
                cfg.alpha,
                None,
                cfg.theta_max,
                cfg.rng_seed,
                prev.as_deref(),
                &mut cache,
            );
            if let Ok(conn) = &seed {
                prev = Some(assignment(conn));
            }
            seeds.push((count, seed));
        }
        Ok(Self { soc, graph, cfg, frequencies, transit_switches, seeds, seed_stats: cache.stats })
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
        // The seeds are built once per engine and count towards every run.
        outcome.partition_stats += self.seed_stats;
        let run = Run { chains: self.chains(), layouts: LayoutMemo::default() };
        for &freq in &self.frequencies {
            let primary = self.primary_candidates(freq);
            let before = outcome.points.len();
            if self.sweep(&primary, policy, &mut observer, &mut outcome, started, &run) {
                return outcome;
            }
            // The two-phase method of §IV: when Phase 1 delivers nothing at
            // this frequency, retry layer-by-layer.
            if self.cfg.mode == SynthesisMode::Auto && outcome.points.len() == before {
                let fallback = phase2_candidates(&self.cfg, self.soc, freq);
                if self.sweep(&fallback, policy, &mut observer, &mut outcome, started, &run) {
                    return outcome;
                }
            }
        }
        outcome
    }

    /// A run's chains: one per seed, with no θ step computed yet.
    fn chains(&self) -> Vec<Chain<'_>> {
        self.seeds
            .iter()
            .map(|(count, seed)| Chain {
                count: *count,
                seed,
                steps: Mutex::default(),
                committed: AtomicUsize::new(0),
            })
            .collect()
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
        run: &Run<'_>,
    ) -> bool {
        let jobs = self.cfg.parallelism.effective_jobs().min(candidates.len());
        if jobs <= 1 {
            // One reusable routing workspace and placement solver for the
            // whole serial sweep.
            let mut alloc = PathAllocator::new();
            let mut placement = PlacementSolver::new();
            for &candidate in candidates {
                if policy.met(outcome, started) {
                    return true;
                }
                let ev = self.evaluate_candidate(candidate, &mut alloc, &mut placement, run);
                self.commit(ev, observer, outcome, run);
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
                    // Per-worker routing workspace and placement solver,
                    // reused across every candidate this worker claims.
                    let mut alloc = PathAllocator::new();
                    let mut placement = PlacementSolver::new();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&candidate) = candidates.get(i) else { break };
                        let ev =
                            self.evaluate_candidate(candidate, &mut alloc, &mut placement, run);
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
                self.commit(ev, observer, outcome, run);
            }
        });
        stopped
    }

    /// Appends one candidate's results to the outcome and replays its event
    /// stream: `CandidateStarted`, any `ThetaEscalated`, then exactly one
    /// terminal `CandidateAccepted` / `CandidateRejected`.
    ///
    /// A Phase-1 candidate's partitions are counted here, in commit order:
    /// one seed lookup when its count has a seed, and its θ steps. The
    /// steps beyond the longest θ list an earlier committed candidate of the
    /// same switch count had are new partitions (warm-started, each on its
    /// own SPG), and the rest were shared with it. That is exactly what a
    /// serial sweep computes, whichever worker reached a step first, and a
    /// candidate an early stop leaves uncommitted is never counted. Its
    /// tempered layer anneals are counted the same way ([`count_layouts`]).
    fn commit(
        &self,
        ev: CandidateEvaluation,
        observer: &mut Option<&mut dyn SweepObserver>,
        outcome: &mut SynthesisOutcome,
        run: &Run<'_>,
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
        if let SweepParam::SwitchCount(count) = ev.candidate.sweep {
            let chain = chain(&run.chains, count);
            outcome.partition_stats.base_cache_hits += u64::from(chain.seed.is_ok());
            let steps = ev.thetas.len();
            let counted = chain.committed.fetch_max(steps, Ordering::Relaxed);
            // Poison recovery: see `theta_step`.
            let computed = chain.steps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for step in computed.get(counted..steps).unwrap_or_default() {
                outcome.partition_stats += step.stats;
            }
            outcome.shared_theta_steps += steps.min(counted) as u64;
        }
        outcome.lp_stats += ev.lp_stats;
        outcome.anneal_stats += count_layouts(&ev.layouts);
        outcome.routing_stats += ev.routing_stats;
        outcome.repeated_attempts += ev.repeated_attempts;
        outcome.shove_probes += ev.shove_probes;
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
        placement: &mut PlacementSolver,
        run: &Run<'_>,
    ) -> CandidateEvaluation {
        let lp_before = placement.stats();
        let routing_before = alloc.stats();
        let memo = &run.layouts;
        let mut ev = match candidate.sweep {
            SweepParam::SwitchCount(k) => {
                self.evaluate_phase1(candidate, chain(&run.chains, k), memo, alloc, placement)
            }
            SweepParam::Increment(inc) => {
                self.evaluate_phase2(candidate, inc, memo, alloc, placement)
            }
        };
        ev.lp_stats += placement.stats() - lp_before;
        ev.routing_stats += alloc.stats() - routing_before;
        ev
    }

    /// Algorithm 1 for one candidate: the base attempt from the switch
    /// count's seed partition, then the θ escalation loop — each step
    /// warm-started from the previous assignment on a freshly built SPG —
    /// until the constraints are met or θ runs out.
    ///
    /// Every θ step's partition comes from `chain`, computed by whichever
    /// candidate of the count reached it first. This is exact: the
    /// partitioner reads neither the frequency nor anything else that
    /// differs between those candidates, and its warm start is the chain's
    /// previous step.
    ///
    /// A θ step whose partition repeats the last attempted one — the same
    /// core attachments, the same switch layers and bit-equal estimated
    /// positions — is not evaluated again: it is rejected with the last
    /// attempt's reason. This is exact, because an attempt is a pure
    /// function of the frequency and those three fields. Routing keeps no
    /// state between calls that changes a result, placement keeps none at
    /// all, and insertion, annealing and evaluation are pure. θ itself is
    /// not compared: an attempt reads `conn.theta` only when it accepts, and
    /// a repeat only ever follows a rejection. The θ list, the events and
    /// the rejections are therefore those of partitioning and evaluating
    /// every step; only the work counters shrink.
    fn evaluate_phase1(
        &self,
        candidate: Candidate,
        chain: &Chain<'_>,
        memo: &LayoutMemo,
        alloc: &mut PathAllocator,
        placement: &mut PlacementSolver,
    ) -> CandidateEvaluation {
        let cfg = &self.cfg;
        let freq = candidate.frequency_mhz;
        let mut ev = CandidateEvaluation::new(candidate);
        let reject = |theta: Option<f64>, reason: RejectReason| RejectedPoint {
            requested_switches: chain.count,
            frequency_mhz: freq,
            phase: PhaseKind::Phase1,
            theta,
            reason,
        };
        let seed = match chain.seed {
            Ok(seed) => seed,
            Err(e) => {
                // The partitioner cannot produce this split at any θ:
                // terminal, no escalation.
                ev.attempts.push(reject(None, e.clone().into()));
                return ev;
            }
        };
        let mut last_reason = match self.try_candidate(Attempt {
            freq,
            conn: seed,
            phase: PhaseKind::Phase1,
            adjacent_only: false,
            alloc,
            placement,
            memo,
            layouts: &mut ev.layouts,
            shove_probes: &mut ev.shove_probes,
        }) {
            Ok(point) => {
                ev.point = Some(point);
                return ev;
            }
            Err(reason) => reason,
        };
        ev.attempts.push(reject(None, last_reason.clone()));

        // θ loop (Algorithm 1, steps 11–20).
        let mut theta = cfg.theta_min;
        while theta <= cfg.theta_max + 1e-9 {
            let step = ev.thetas.len();
            ev.thetas.push(theta);
            if let ThetaStep { partition: Ok(conn), repeats, .. } =
                self.theta_step(chain, step, theta, seed)
            {
                let reason = if repeats {
                    ev.repeated_attempts += 1;
                    last_reason
                } else {
                    match self.try_candidate(Attempt {
                        freq,
                        conn: &conn,
                        phase: PhaseKind::Phase1,
                        adjacent_only: false,
                        alloc,
                        placement,
                        memo,
                        layouts: &mut ev.layouts,
                        shove_probes: &mut ev.shove_probes,
                    }) {
                        Ok(point) => {
                            ev.point = Some(point);
                            return ev;
                        }
                        Err(reason) => reason,
                    }
                };
                ev.attempts.push(reject(Some(theta), reason.clone()));
                last_reason = reason;
            }
            theta += cfg.theta_step;
        }
        ev
    }

    /// Step `step` of `chain`, whose seed is `seed`: the partition at
    /// `theta`, warm-started from the last `Ok` step before it or from the
    /// seed. Computed under the chain's lock on first request and cloned
    /// after that. A candidate requests its steps in order, so every step
    /// before `step` is already in the chain.
    fn theta_step(
        &self,
        chain: &Chain<'_>,
        step: usize,
        theta: f64,
        seed: &Connectivity,
    ) -> ThetaStep {
        // Poison recovery: the chain only ever holds whole steps, so it is
        // valid even if a worker panicked while holding the lock.
        let mut steps = chain.steps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(done) = steps.get(step) {
            return done.clone();
        }
        debug_assert_eq!(steps.len(), step, "θ steps are requested in order");
        let prev = steps.iter().rev().find_map(|s| s.partition.as_ref().ok()).unwrap_or(seed);
        let cfg = &self.cfg;
        // The chain's steps are counted at commit, from `stats`.
        let mut cache = PartitionCache::new();
        let partition = phase1::connectivity_cached(
            &self.graph,
            self.soc,
            chain.count,
            cfg.alpha,
            Some(theta),
            cfg.theta_max,
            cfg.rng_seed,
            Some(&assignment(prev)),
            &mut cache,
        );
        let repeats = partition.as_ref().is_ok_and(|conn| same_attempt(conn, prev));
        let done = ThetaStep { partition, repeats, stats: cache.stats };
        steps.push(done.clone());
        done
    }

    /// Algorithm 2 for one candidate: a single layer-by-layer attempt at
    /// the given per-layer increment.
    fn evaluate_phase2(
        &self,
        candidate: Candidate,
        increment: usize,
        memo: &LayoutMemo,
        alloc: &mut PathAllocator,
        placement: &mut PlacementSolver,
    ) -> CandidateEvaluation {
        let cfg = &self.cfg;
        let freq = candidate.frequency_mhz;
        let max_sw = cfg.library.switch.max_size_for_frequency(freq);
        let mut ev = CandidateEvaluation::new(candidate);
        match phase2::connectivity(&self.graph, self.soc, increment, max_sw, cfg.alpha, cfg.rng_seed)
        {
            Ok(conn) => match self.try_candidate(Attempt {
                freq,
                conn: &conn,
                phase: PhaseKind::Phase2,
                adjacent_only: true,
                alloc,
                placement,
                memo,
                layouts: &mut ev.layouts,
                shove_probes: &mut ev.shove_probes,
            }) {
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
            soft_ill_margin: cfg.soft_ill_margin,
            soft_switch_margin: cfg.soft_switch_margin,
            adjacent_layers_only: adjacent_only,
            ..PathConfig::new(cfg.max_ill, cfg.library.switch.max_size_for_frequency(freq), freq)
        }
    }

    /// Routes, places, lays out and evaluates one connectivity candidate,
    /// applying the indirect-switch fallback on routing failure. The
    /// tempered layout's layer anneals come from `attempt.memo` and are
    /// appended to `attempt.layouts`; shove probes accrue into
    /// `attempt.shove_probes`.
    fn try_candidate(&self, attempt: Attempt<'_>) -> Result<DesignPoint, RejectReason> {
        let Attempt {
            freq,
            conn,
            phase,
            adjacent_only,
            alloc,
            placement,
            memo,
            layouts,
            shove_probes,
        } = attempt;
        let cfg = &self.cfg;
        let soc = self.soc;
        let path_cfg = self.path_config(freq, adjacent_only);

        // Routing with the indirect-switch fallback (§VI): when no route
        // exists, add the transit switches (one unattached switch per
        // populated layer) to a copy of the partition and retry.
        let mut extended: Option<Connectivity> = None;
        let mut topo: Option<Topology> = None;
        let mut last_err: Option<PathError> = None;
        for round in 0..=cfg.indirect_switch_rounds {
            match alloc.compute_paths(
                &self.graph,
                extended.as_ref().unwrap_or(conn),
                &cfg.library,
                &path_cfg,
                cfg.alpha,
            ) {
                Ok(mut t) => {
                    t.indirect_switches = (conn.switch_count()..t.switch_count()).collect();
                    topo = Some(t);
                    break;
                }
                Err(e @ (PathError::NoRoute { .. } | PathError::DeadlockUnavoidable { .. }))
                    if round < cfg.indirect_switch_rounds =>
                {
                    last_err = Some(e);
                    let ext = extended.get_or_insert_with(|| conn.clone());
                    for &(layer, pos) in &self.transit_switches {
                        ext.switch_layer.push(layer);
                        ext.est_positions.push(pos);
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
                Some(layout_design_tempered_memo(
                    &mut topo,
                    soc,
                    &cfg.library,
                    &temper,
                    memo,
                    layouts,
                ))
            } else {
                let l = layout_design(&mut topo, soc, &cfg.library, cfg.layout_search_radius_mm);
                *shove_probes += l.shove_probes;
                Some(l)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Core, Flow, MessageType};

    /// Eight cores on two layers with twelve flows of uneven bandwidth,
    /// drawn from a fixed LCG. On such an irregular design the θ steps'
    /// partitions depend on the warm start they refine.
    fn irregular_design() -> (SocSpec, CommSpec) {
        let mut x = 2u64;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize
        };
        let cores = (0..8u32)
            .map(|i| Core {
                name: format!("c{i}"),
                width: 1.0,
                height: 1.0,
                x: (next() % 8) as f64,
                y: (next() % 8) as f64,
                layer: i % 2,
            })
            .collect();
        let soc = SocSpec::new(cores, 2).unwrap();
        let flows = (0..12)
            .map(|_| {
                let src = next() % 8;
                let dst = (src + 1 + next() % 7) % 8;
                Flow {
                    src,
                    dst,
                    bandwidth_mbs: 50.0 + (next() % 400) as f64,
                    max_latency_cycles: 10.0,
                    message_type: MessageType::Request,
                }
            })
            .collect();
        let comm = CommSpec::new(flows, &soc).unwrap();
        (soc, comm)
    }

    #[test]
    fn each_chain_step_is_warm_started_from_the_previous_one() {
        let (soc, comm) = irregular_design();
        let engine = SynthesisEngine::new(&soc, &comm, SynthesisConfig::default()).unwrap();
        let cfg = engine.config();
        let direct = |count: usize, theta: f64, warm: &Connectivity| {
            phase1::connectivity_cached(
                &engine.graph,
                &soc,
                count,
                cfg.alpha,
                Some(theta),
                cfg.theta_max,
                cfg.rng_seed,
                Some(&assignment(warm)),
                &mut PartitionCache::new(),
            )
        };
        // Steps whose partition differs when warm-started from the seed
        // instead: without them this test could not tell the two apart.
        let mut warm_start_matters = 0;
        for chain in engine.chains() {
            let (count, seed) = (chain.count, chain.seed.as_ref().unwrap());
            let mut warm = seed.clone();
            let mut theta = cfg.theta_min;
            let mut step = 0;
            while theta <= cfg.theta_max + 1e-9 {
                let expected = direct(count, theta, &warm);
                let repeats = expected.as_ref().is_ok_and(|conn| same_attempt(conn, &warm));
                for _ in 0..2 {
                    let shared = engine.theta_step(&chain, step, theta, seed);
                    assert_eq!(shared.partition, expected, "{count} switches, step {step}");
                    assert_eq!(shared.repeats, repeats, "{count} switches, step {step}");
                }
                if direct(count, theta, seed) != expected {
                    warm_start_matters += 1;
                }
                if let Ok(conn) = expected {
                    warm = conn;
                }
                theta += cfg.theta_step;
                step += 1;
            }
            assert_eq!(chain.steps.lock().unwrap().len(), step, "each step is computed once");
        }
        assert!(warm_start_matters > 0, "the design must tell warm starts apart");
    }

    fn conn() -> Connectivity {
        Connectivity {
            core_attach: vec![0, 1, 1, 0],
            switch_layer: vec![0, 1],
            est_positions: vec![(0.0, 1.5), (2.25, 3.0)],
            theta: None,
        }
    }

    #[test]
    fn partitions_that_differ_only_in_theta_are_the_same_attempt() {
        let stepped = Connectivity { theta: Some(4.0), ..conn() };
        assert!(same_attempt(&conn(), &stepped));
        assert!(same_attempt(&stepped, &Connectivity { theta: Some(5.0), ..conn() }));
    }

    #[test]
    fn positions_compare_bit_for_bit() {
        let mut signed = conn();
        signed.est_positions[0].0 = -0.0;
        assert!(!same_attempt(&conn(), &signed), "0.0 and -0.0 are different attempts");
        let mut ulp = conn();
        ulp.est_positions[1].1 = f64::from_bits(3.0f64.to_bits() + 1);
        assert!(!same_attempt(&conn(), &ulp), "a one-ulp move is a different attempt");
    }

    /// §VI's indirect-switch fallback: with vertical links restricted to
    /// adjacent layers, a switch on layer 0 cannot reach one on layer 2
    /// until the transit switches (one per populated layer, no cores)
    /// supply a hop on layer 1.
    #[test]
    fn transit_switches_rescue_an_unroutable_attempt() {
        let core = |name: &str, layer| Core {
            name: name.into(),
            width: 1.0,
            height: 1.0,
            x: 0.0,
            y: 0.0,
            layer,
        };
        let soc = SocSpec::new(vec![core("a", 0), core("b", 1), core("c", 2)], 3).unwrap();
        let flow = |src, dst, message_type| Flow {
            src,
            dst,
            bandwidth_mbs: 200.0,
            max_latency_cycles: 50.0,
            message_type,
        };
        let comm = CommSpec::new(
            vec![flow(0, 2, MessageType::Request), flow(2, 0, MessageType::Response)],
            &soc,
        )
        .unwrap();
        let engine = SynthesisEngine::new(&soc, &comm, SynthesisConfig::default()).unwrap();
        let (cfg, freq) = (engine.config(), engine.frequencies[0]);
        let path_cfg = engine.path_config(freq, true);
        let conn = Connectivity {
            core_attach: vec![0, 0, 1],
            switch_layer: vec![0, 2],
            est_positions: vec![(0.5, 0.5), (0.5, 0.5)],
            theta: None,
        };
        let route = |c: &Connectivity| {
            PathAllocator::new().compute_paths(&engine.graph, c, &cfg.library, &path_cfg, cfg.alpha)
        };
        assert!(matches!(route(&conn), Err(PathError::NoRoute { .. })));

        let mut layouts = Vec::new();
        let point = engine
            .try_candidate(Attempt {
                freq,
                conn: &conn,
                phase: PhaseKind::Phase2,
                adjacent_only: true,
                alloc: &mut PathAllocator::new(),
                placement: &mut PlacementSolver::new(),
                memo: &LayoutMemo::default(),
                layouts: &mut layouts,
                shove_probes: &mut 0,
            })
            .expect("the transit switches make the attempt routable");
        let topo = &point.topology;
        assert_eq!(topo.indirect_switches, vec![2, 3, 4]);
        assert!(topo.indirect_switches.iter().all(|s| !topo.core_attach.contains(s)));

        let mut extended = conn.clone();
        for &(layer, pos) in &engine.transit_switches {
            extended.switch_layer.push(layer);
            extended.est_positions.push(pos);
        }
        let direct = route(&extended).expect("the extended connectivity routes");
        assert_eq!(topo.switch_layer, direct.switch_layer);
        assert_eq!(topo.core_attach, direct.core_attach);
        assert_eq!(topo.links, direct.links);
        assert_eq!(topo.flow_paths, direct.flow_paths);
        assert!(topo.flow_paths[0].switches.contains(&3), "the layer-1 transit switch relays");
    }

    #[test]
    fn layers_attachments_and_switch_counts_are_compared() {
        let mut layer = conn();
        layer.switch_layer[1] = 0;
        assert!(!same_attempt(&conn(), &layer));
        let mut attach = conn();
        attach.core_attach[2] = 0;
        assert!(!same_attempt(&conn(), &attach));
        let mut more = conn();
        more.switch_layer.push(1);
        more.est_positions.push((4.0, 4.0));
        assert!(!same_attempt(&conn(), &more));
        assert!(!same_attempt(&more, &conn()));
    }
}
