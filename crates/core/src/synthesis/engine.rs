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
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};
use sunfloor_partition::{MemoGraph, PartitionError};

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
/// point, if any. Computed by the thread that claimed the candidate,
/// committed in order by the calling thread.
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
    /// Partitioning counters this candidate accrued itself: Phase 2's
    /// per-layer partitions. A Phase-1 candidate's partitions are its
    /// switch count's and are counted at commit.
    partition_stats: PartitionStats,
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
            partition_stats: PartitionStats::default(),
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

/// Keeps the transit switches (indices `first..`) that a route uses and
/// drops the rest, which have no port: no core attaches to a transit
/// switch, so one that no link touches is idle. The switches kept move
/// down to close the gaps, in order, and `switch_layer`, `switch_pos`,
/// `links`, `flow_paths` and `indirect_switches` follow.
fn drop_idle_transit_switches(t: &mut Topology, first: usize) {
    let mut used = vec![false; t.switch_count()];
    for link in &t.links {
        used[link.from] = true;
        used[link.to] = true;
    }
    debug_assert!(t.core_attach.iter().all(|&s| s < first), "a core attaches to a transit switch");
    // The new index of every switch; a dropped one has none.
    let mut index: Vec<usize> = (0..first).collect();
    let mut next = first;
    for (s, &used) in used.iter().enumerate().skip(first) {
        if used {
            t.switch_layer[next] = t.switch_layer[s];
            t.switch_pos[next] = t.switch_pos[s];
            index.push(next);
            next += 1;
        } else {
            index.push(usize::MAX);
        }
    }
    t.switch_layer.truncate(next);
    t.switch_pos.truncate(next);
    for link in &mut t.links {
        link.from = index[link.from];
        link.to = index[link.to];
    }
    for path in &mut t.flow_paths {
        for sw in &mut path.switches {
            *sw = index[*sw];
        }
    }
    t.indirect_switches = (first..next).collect();
}

/// Drops the spare capacity of an accepted point's vectors, which routing,
/// evaluation and layout grow piecewise: the outcome keeps every point
/// until the run ends.
fn shrink(point: &mut DesignPoint) {
    let t = &mut point.topology;
    t.switch_layer.shrink_to_fit();
    t.switch_pos.shrink_to_fit();
    t.core_attach.shrink_to_fit();
    t.links.shrink_to_fit();
    for link in &mut t.links {
        link.flows.shrink_to_fit();
    }
    t.flow_paths.shrink_to_fit();
    for path in &mut t.flow_paths {
        path.switches.shrink_to_fit();
    }
    t.indirect_switches.shrink_to_fit();
    point.metrics.inter_layer_links.shrink_to_fit();
    point.metrics.wire_lengths_mm.shrink_to_fit();
    if let Some(layout) = &mut point.layout {
        layout.layers.shrink_to_fit();
        for plan in &mut layout.layers {
            plan.blocks.shrink_to_fit();
        }
        layout.layer_area_mm2.shrink_to_fit();
    }
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
/// switch count, the SPG of each θ and the tempered layer anneals.
struct Run<'s> {
    chains: Vec<Chain<'s>>,
    /// The SPG at each θ of the escalation loop, built by the first θ step
    /// that needs it. Every switch count's step at that θ partitions it,
    /// so they share their cold restarts' bisections.
    spgs: Vec<OnceLock<MemoGraph>>,
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
/// [`SynthesisEngine::run`] then evaluates the explicit candidate list on
/// the calling thread and, per [`super::Parallelism`], scoped worker
/// threads, committing results in deterministic candidate order, so
/// serial and parallel runs produce identical [`SynthesisOutcome`]s.
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
    /// The θ values of the escalation loop (Algorithm 1, steps 11–20):
    /// `theta_min`, then each plus `theta_step`, up to `theta_max`.
    thetas: Vec<f64>,
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
        // count's assignment, built serially so every sweep thread reads the
        // same seeds. Switch counts do not depend on the frequency. All of
        // them partition one PG, sharing its cold restarts' bisections.
        let mut cache = PartitionCache::new();
        let mut seeds = Vec::new();
        let mut prev: Option<Vec<u32>> = None;
        let pg = MemoGraph::new(graph.partitioning_graph(cfg.alpha));
        for candidate in phase1 {
            let count = candidate.sweep.value();
            let seed = phase1::connectivity_on(
                &pg,
                soc,
                count,
                None,
                cfg.rng_seed,
                prev.as_deref(),
                &mut cache,
            );
            if let Ok(conn) = &seed {
                prev = Some(assignment(conn));
            }
            seeds.push((count, seed));
        }
        let mut thetas = Vec::new();
        let mut theta = cfg.theta_min;
        while theta <= cfg.theta_max + 1e-9 {
            thetas.push(theta);
            theta += cfg.theta_step;
        }
        Ok(Self {
            soc,
            graph,
            cfg,
            frequencies,
            transit_switches,
            seeds,
            thetas,
            seed_stats: cache.stats,
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
        // The seeds are built once per engine and count towards every run.
        outcome.partition_stats += self.seed_stats;
        let run = Run {
            chains: self.chains(),
            spgs: self.thetas.iter().map(|_| OnceLock::new()).collect(),
            layouts: LayoutMemo::default(),
        };
        let eval = Self::evaluate_candidate;
        for &freq in &self.frequencies {
            let primary = self.primary_candidates(freq);
            let before = outcome.points.len();
            if self.sweep(&primary, policy, &mut observer, &mut outcome, started, &run, eval) {
                return outcome;
            }
            // The two-phase method of §IV: when Phase 1 delivers nothing at
            // this frequency, retry layer-by-layer.
            if self.cfg.mode == SynthesisMode::Auto && outcome.points.len() == before {
                let fallback = phase2_candidates(&self.cfg, self.soc, freq);
                if self.sweep(&fallback, policy, &mut observer, &mut outcome, started, &run, eval) {
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

    /// Evaluates one candidate batch with `evaluate`, committing results
    /// (and streaming events) in candidate order. Returns `true` when
    /// `policy` stopped the run.
    ///
    /// One driver serves every thread count. The calling thread and
    /// `jobs - 1` scoped workers claim candidates from a shared counter (a
    /// slow candidate never idles the others), each with its own routing
    /// workspace and placement solver, and fill per-candidate slots. The
    /// calling thread also commits: it checks `policy` before slot `i`,
    /// commits the slot once it is filled, claims and evaluates candidates
    /// itself while it is empty, and waits only when every candidate is
    /// claimed. With one job nothing is spawned, and each candidate is
    /// checked, evaluated and committed in turn. An early stop raises a
    /// flag that keeps workers from claiming further candidates, bounding
    /// wasted work to the in-flight ones. An evaluation that panics fills
    /// its slot with the panic, which its commit raises on the calling
    /// thread, so the panic propagates at every thread count.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        candidates: &[Candidate],
        policy: StopPolicy,
        observer: &mut Option<&mut dyn SweepObserver>,
        outcome: &mut SynthesisOutcome,
        started: Instant,
        run: &Run<'_>,
        evaluate: impl Fn(
                &Self,
                Candidate,
                &mut PathAllocator,
                &mut PlacementSolver,
                &Run<'_>,
            ) -> CandidateEvaluation
            + Sync,
    ) -> bool {
        let jobs = self.cfg.parallelism.effective_jobs().min(candidates.len());
        let stop = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let slots: Vec<(Mutex<Option<thread::Result<CandidateEvaluation>>>, Condvar)> =
            candidates.iter().map(|_| (Mutex::new(None), Condvar::new())).collect();
        // Poison recovery: a slot holds a plain Option, so its value is
        // valid even if a thread panicked while holding the lock.
        let lock = |i: usize| slots[i].0.lock().unwrap_or_else(PoisonError::into_inner);
        // Claims the next candidate, evaluates it and fills its slot;
        // `false` once there is none left to claim.
        let claim = |alloc: &mut PathAllocator, placement: &mut PlacementSolver| {
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&candidate) = candidates.get(i) else { return false };
            let ev = panic::catch_unwind(AssertUnwindSafe(|| {
                evaluate(self, candidate, alloc, placement, run)
            }));
            *lock(i) = Some(ev);
            slots[i].1.notify_all();
            true
        };
        thread::scope(|s| {
            for _ in 1..jobs {
                s.spawn(|| {
                    let (mut alloc, mut placement) = (PathAllocator::new(), PlacementSolver::new());
                    while claim(&mut alloc, &mut placement) {}
                });
            }
            let (mut alloc, mut placement) = (PathAllocator::new(), PlacementSolver::new());
            let mut claiming = true;
            for (i, &candidate) in candidates.iter().enumerate() {
                if policy.met(outcome, started) {
                    stop.store(true, Ordering::Relaxed);
                    return true;
                }
                let mut slot = lock(i);
                let ev = loop {
                    if let Some(ev) = slot.take() {
                        break ev;
                    }
                    if claiming {
                        drop(slot);
                        claiming = claim(&mut alloc, &mut placement);
                        slot = lock(i);
                    } else {
                        // Every candidate is claimed, this one too, and a
                        // claimed candidate's slot is always filled.
                        slot = slots[i].1.wait(slot).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                drop(slot);
                let ev = ev.unwrap_or_else(|payload| {
                    stop.store(true, Ordering::Relaxed);
                    panic::resume_unwind(payload)
                });
                debug_assert_eq!(ev.candidate, candidate);
                self.commit(ev, observer, outcome, run);
            }
            false
        })
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
    /// serial sweep computes, whichever thread reached a step first, and a
    /// candidate an early stop leaves uncommitted is never counted. Its
    /// tempered layer anneals are counted the same way ([`count_layouts`]).
    /// A Phase-2 candidate brings the counters of its per-layer partitions.
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
            let computed = chain.steps.lock().unwrap_or_else(PoisonError::into_inner);
            for step in computed.get(counted..steps).unwrap_or_default() {
                outcome.partition_stats += step.stats;
            }
            outcome.shared_theta_steps += steps.min(counted) as u64;
        }
        outcome.partition_stats += ev.partition_stats;
        outcome.lp_stats += ev.lp_stats;
        outcome.anneal_stats += count_layouts(&ev.layouts);
        outcome.routing_stats += ev.routing_stats;
        outcome.repeated_attempts += ev.repeated_attempts;
        outcome.shove_probes += ev.shove_probes;
        outcome.rejected.extend(ev.attempts);
        match ev.point {
            Some(mut point) => {
                shrink(&mut point);
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
        let mut ev = match candidate.sweep {
            SweepParam::SwitchCount(k) => {
                self.evaluate_phase1(candidate, chain(&run.chains, k), run, alloc, placement)
            }
            SweepParam::Increment(inc) => {
                self.evaluate_phase2(candidate, inc, &run.layouts, alloc, placement)
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
        run: &Run<'_>,
        alloc: &mut PathAllocator,
        placement: &mut PlacementSolver,
    ) -> CandidateEvaluation {
        let memo = &run.layouts;
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
        for (step, &theta) in self.thetas.iter().enumerate() {
            ev.thetas.push(theta);
            if let ThetaStep { partition: Ok(conn), repeats, .. } =
                self.theta_step(chain, step, &run.spgs[step], seed)
            {
                let reason = if repeats {
                    ev.repeated_attempts += 1;
                    last_reason
                } else {
                    match self.try_candidate(Attempt {
                        freq,
                        conn: &conn,
                        phase: PhaseKind::Phase1,
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
        }
        ev
    }

    /// Step `step` of `chain`, whose seed is `seed`: the partition of the
    /// step's SPG, `spg` (built here if no step at its θ has built it yet),
    /// warm-started from the last `Ok` step before it or from the seed.
    /// Computed under the chain's lock on first request and cloned after
    /// that. A candidate requests its steps in order, so every step before
    /// `step` is already in the chain.
    fn theta_step(
        &self,
        chain: &Chain<'_>,
        step: usize,
        spg: &OnceLock<MemoGraph>,
        seed: &Connectivity,
    ) -> ThetaStep {
        // Poison recovery: the chain only ever holds whole steps, so it is
        // valid even if a thread panicked while holding the lock.
        let mut steps = chain.steps.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(done) = steps.get(step) {
            return done.clone();
        }
        debug_assert_eq!(steps.len(), step, "θ steps are requested in order");
        let prev = steps.iter().rev().find_map(|s| s.partition.as_ref().ok()).unwrap_or(seed);
        let cfg = &self.cfg;
        let theta = self.thetas[step];
        let spg = spg.get_or_init(|| {
            MemoGraph::new(self.graph.scaled_partitioning_graph(cfg.alpha, theta, cfg.theta_max))
        });
        // The chain's steps are counted at commit, from `stats`.
        let mut cache = PartitionCache::new();
        let partition = phase1::connectivity_on(
            spg,
            self.soc,
            chain.count,
            Some(theta),
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
        let mut cache = PartitionCache::new();
        let conn = phase2::connectivity_cached(
            &self.graph,
            self.soc,
            increment,
            max_sw,
            cfg.alpha,
            cfg.rng_seed,
            &mut cache,
        );
        ev.partition_stats = cache.stats;
        match conn {
            Ok(conn) => match self.try_candidate(Attempt {
                freq,
                conn: &conn,
                phase: PhaseKind::Phase2,
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
        let Attempt { freq, conn, phase, alloc, placement, memo, layouts, shove_probes } = attempt;
        let cfg = &self.cfg;
        let soc = self.soc;
        // Phase 2 restricts vertical links to adjacent layers.
        let path_cfg = self.path_config(freq, phase == PhaseKind::Phase2);

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
                    if extended.is_some() {
                        drop_idle_transit_switches(&mut t, conn.switch_count());
                    }
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
    use crate::topology::Link;
    use std::sync::mpsc;

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
        // One SPG per θ, shared by every count as in a run; `direct`
        // builds a fresh one per call.
        let spgs: Vec<OnceLock<MemoGraph>> = engine.thetas.iter().map(|_| OnceLock::new()).collect();
        for chain in engine.chains() {
            let (count, seed) = (chain.count, chain.seed.as_ref().unwrap());
            let mut warm = seed.clone();
            let mut theta = cfg.theta_min;
            let mut step = 0;
            while theta <= cfg.theta_max + 1e-9 {
                let expected = direct(count, theta, &warm);
                let repeats = expected.as_ref().is_ok_and(|conn| same_attempt(conn, &warm));
                assert_eq!(engine.thetas[step].to_bits(), theta.to_bits(), "θ of step {step}");
                for _ in 0..2 {
                    let shared = engine.theta_step(&chain, step, &spgs[step], seed);
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
            assert_eq!(step, engine.thetas.len(), "one step per θ");
            assert_eq!(chain.steps.lock().unwrap().len(), step, "each step is computed once");
        }
        assert!(warm_start_matters > 0, "the design must tell warm starts apart");
    }

    /// Sweeps every candidate of `engine` under `policy` with `evaluate`,
    /// as one batch of a run. Returns the outcome and whether the policy
    /// stopped the sweep.
    fn sweep_with<'a>(
        engine: &SynthesisEngine<'a>,
        policy: StopPolicy,
        evaluate: impl Fn(
                &SynthesisEngine<'a>,
                Candidate,
                &mut PathAllocator,
                &mut PlacementSolver,
                &Run<'_>,
            ) -> CandidateEvaluation
            + Sync,
    ) -> (SynthesisOutcome, bool) {
        let run = Run {
            chains: engine.chains(),
            spgs: engine.thetas.iter().map(|_| OnceLock::new()).collect(),
            layouts: LayoutMemo::default(),
        };
        let mut outcome = SynthesisOutcome::default();
        let candidates = engine.candidates();
        let started = Instant::now(); // sf-allow(nondet-source): a run's Deadline clock; only the spent Deadline(0) reads it, and it stops at any time
        let stopped =
            engine.sweep(&candidates, policy, &mut None, &mut outcome, started, &run, evaluate);
        (outcome, stopped)
    }

    /// The irregular design's configuration at `jobs`: at 800 MHz its
    /// first candidates are rejected and the later ones accepted.
    fn config(jobs: usize) -> SynthesisConfig {
        SynthesisConfig::builder().frequency_mhz(800.0).jobs(jobs).build().unwrap()
    }

    /// Sweeps `design`'s candidates at `jobs` under `policy` and returns
    /// every evaluation's candidate, thread and acceptance, in the order
    /// they finished, and whether the policy stopped the sweep.
    fn traced_sweep(
        (soc, comm): &(SocSpec, CommSpec),
        jobs: usize,
        policy: StopPolicy,
    ) -> (Vec<(Candidate, thread::ThreadId, bool)>, bool) {
        let engine = SynthesisEngine::new(soc, comm, config(jobs)).unwrap();
        let seen = Mutex::new(Vec::new());
        let (_, stopped) = sweep_with(&engine, policy, |e, c, alloc, placement, run| {
            let ev = e.evaluate_candidate(c, alloc, placement, run);
            seen.lock().unwrap().push((c, thread::current().id(), ev.point.is_some()));
            ev
        });
        (seen.into_inner().unwrap(), stopped)
    }

    /// At one job the sweep is a serial loop: every evaluation runs on the
    /// calling thread, in candidate order, each after a policy check.
    #[test]
    fn one_job_evaluates_each_candidate_in_turn_on_the_calling_thread() {
        let design = irregular_design();
        let (all, stopped) = traced_sweep(&design, 1, StopPolicy::Exhaustive);
        assert!(!stopped);
        let caller = thread::current().id();
        assert!(all.iter().all(|&(_, t, _)| t == caller), "an evaluation left the calling thread");
        let engine = SynthesisEngine::new(&design.0, &design.1, config(1)).unwrap();
        assert_eq!(all.iter().map(|&(c, ..)| c).collect::<Vec<_>>(), engine.candidates());
        let first = all.iter().position(|&(.., accepted)| accepted).unwrap();
        assert!(first > 0, "a rejected first candidate shows where the budget stops");
        let (budget, stopped) = traced_sweep(&design, 1, StopPolicy::PointBudget(1));
        assert_eq!(budget, all[..=first], "the evaluations up to the first accepted one");
        assert_eq!(stopped, first + 1 < all.len());
        let (none, stopped) = traced_sweep(&design, 1, StopPolicy::Deadline(Duration::ZERO));
        assert!(none.is_empty() && stopped, "a spent deadline evaluates nothing");
    }

    #[test]
    fn three_jobs_evaluate_each_candidate_once_on_at_most_three_threads() {
        let design = irregular_design();
        let (all, _) = traced_sweep(&design, 3, StopPolicy::Exhaustive);
        let mut threads = Vec::new();
        for &(_, t, _) in &all {
            if !threads.contains(&t) {
                threads.push(t);
            }
        }
        assert!(threads.len() <= 3, "{} threads evaluated", threads.len());
        // One frequency, so the switch count names a candidate.
        let mut counts: Vec<usize> = all.iter().map(|&(c, ..)| c.sweep.value()).collect();
        counts.sort_unstable();
        let engine = SynthesisEngine::new(&design.0, &design.1, config(3)).unwrap();
        let expected: Vec<usize> = engine.candidates().iter().map(|c| c.sweep.value()).collect();
        assert_eq!(counts, expected);
    }

    /// An evaluation that panics stops the sweep, and the panic reaches the
    /// caller at one job and at three. At three, the calling thread
    /// evaluates nothing until a worker has started, so the panic is a
    /// worker's: without the panic in its slot, the calling thread would
    /// wait on that slot forever. A watchdog fails a hung sweep.
    #[test]
    fn a_panicking_evaluation_reaches_the_caller_at_every_job_count() {
        for jobs in [1, 3] {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let (soc, comm) = irregular_design();
                let engine = SynthesisEngine::new(&soc, &comm, config(jobs)).unwrap();
                let caller = thread::current().id();
                let started = AtomicBool::new(false);
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    sweep_with(&engine, StopPolicy::Exhaustive, |e, c, alloc, placement, run| {
                        while jobs > 1
                            && thread::current().id() == caller
                            && !started.load(Ordering::SeqCst)
                        {
                            thread::yield_now();
                        }
                        // The first evaluation to start panics.
                        if !started.swap(true, Ordering::SeqCst) {
                            panic!("injected evaluation panic");
                        }
                        e.evaluate_candidate(c, alloc, placement, run)
                    })
                }));
                let payload = result.err().and_then(|p| p.downcast_ref::<&str>().copied());
                let _ = tx.send(payload);
            });
            let payload = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("jobs {jobs}: the sweep did not return: {e}"));
            assert_eq!(payload, Some("injected evaluation panic"), "jobs {jobs}");
        }
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
                alloc: &mut PathAllocator::new(),
                placement: &mut PlacementSolver::new(),
                memo: &LayoutMemo::default(),
                layouts: &mut layouts,
                shove_probes: &mut 0,
            })
            .expect("the transit switches make the attempt routable");
        // Of the three transit switches (2, 3 and 4, on layers 0, 1 and 2)
        // only the layer-1 one relays; the other two are dropped and it
        // becomes switch 2.
        let topo = &point.topology;
        assert_eq!(topo.indirect_switches, vec![2]);
        assert_eq!(topo.switch_layer, vec![0, 2, 1]);
        assert_eq!(topo.switch_pos.len(), 3);
        assert!((0..topo.switch_count()).all(|s| topo.switch_size(s) > 0), "a switch has no port");
        assert!(topo.indirect_switches.iter().all(|s| !topo.core_attach.contains(s)));

        let mut extended = conn.clone();
        for &(layer, pos) in &engine.transit_switches {
            extended.switch_layer.push(layer);
            extended.est_positions.push(pos);
        }
        let direct = route(&extended).expect("the extended connectivity routes");
        assert_eq!((direct.switch_size(2), direct.switch_size(4)), (0, 0));
        let compact = |s: usize| if s == 3 { 2 } else { s };
        assert_eq!(topo.core_attach, direct.core_attach);
        let links: Vec<_> = direct
            .links
            .iter()
            .map(|l| Link { from: compact(l.from), to: compact(l.to), ..l.clone() })
            .collect();
        assert_eq!(topo.links, links);
        for (path, direct) in topo.flow_paths.iter().zip(&direct.flow_paths) {
            let switches: Vec<usize> = direct.switches.iter().map(|&s| compact(s)).collect();
            assert_eq!(path.switches, switches);
        }
        assert!(topo.flow_paths[0].switches.contains(&2), "the layer-1 transit switch relays");
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
