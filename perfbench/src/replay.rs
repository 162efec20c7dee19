//! A replay of the synthesis engine's sweep (Algorithm 1 with the θ loop,
//! the indirect-switch rounds and the Phase-2 fallback) through the core
//! crate's public functions only, so each call into a layer can be timed
//! from outside the program.
//!
//! The replay mirrors `SynthesisEngine::run` step for step: the warm-chained
//! Phase-1 seed partitions, the placement seed-bank warm-up, one routing
//! workspace, partition cache and placement solver per candidate batch, and
//! the same constraint screening. It evaluates candidates serially; the
//! engine's outcome does not depend on its worker count, which the
//! benchmark checks separately. Whether the replay still matches the engine
//! is checked on every traced run: per-layer numbers are valid only for the
//! same work.

use crate::spans::Tracer;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use sunfloor_core::eval::evaluate;
use sunfloor_core::export::{layout_to_svg, topology_to_dot};
use sunfloor_core::graph::{CommGraph, PartitionCache};
use sunfloor_core::layout::{layout_design, layout_design_tempered, AnnealStats};
use sunfloor_core::paths::{PathAllocator, PathConfig, PathError};
use sunfloor_core::phase1::{self, Connectivity};
use sunfloor_core::phase2;
use sunfloor_core::place::{PlacementSeeds, PlacementSolver};
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{
    DesignPoint, PhaseKind, RejectReason, RejectedPoint, SynthesisConfig, SynthesisMode,
    SynthesisOutcome,
};
use sunfloor_core::topology::Topology;
use sunfloor_floorplan::{AnnealConfig, TemperConfig};
use sunfloor_partition::PartitionError;

/// The engine's per-replica iteration budget for tempered layout (a private
/// constant of the engine, restated here; a change there shows up as a
/// replay mismatch).
const TEMPERED_LAYOUT_ITERATIONS: u32 = 8_000;

/// Routing retries the engine allows per flow before declaring deadlock.
const DEADLOCK_RETRIES: u32 = 24;

/// One traced op: parse the spec files, replay the sweep, and export the
/// best point's DOT and SVG artifacts into `out`, as one `sunfloor3d` run
/// does. Every step runs inside a span under one `op` root span. The
/// returned outcome holds the points and rejected attempts; the replay
/// keeps no counters.
///
/// # Errors
///
/// Returns a message when the specs fail to load or validate or an
/// artifact cannot be written.
pub fn traced_op(
    cores: &Path,
    comm: &Path,
    cfg: &SynthesisConfig,
    out: &Path,
    t: &mut Tracer,
) -> Result<SynthesisOutcome, String> {
    let root = t.enter("op");
    let result = op_body(cores, comm, cfg, out, t);
    t.exit(root, result.is_err());
    result
}

fn op_body(
    cores: &Path,
    comm: &Path,
    cfg: &SynthesisConfig,
    out: &Path,
    t: &mut Tracer,
) -> Result<SynthesisOutcome, String> {
    let (soc, comm) = t.call("spec.parse", || -> Result<(SocSpec, CommSpec), String> {
        let soc = SocSpec::parse(&fs::read_to_string(cores).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let comm = CommSpec::parse(&fs::read_to_string(comm).map_err(|e| e.to_string())?, &soc)
            .map_err(|e| e.to_string())?;
        Ok((soc, comm))
    })?;
    let sweep = Sweep::new(&soc, &comm, cfg)?;
    let replayed = sweep.run(t);
    if let Some(best) = replayed.best_power() {
        t.call("export", || -> std::io::Result<()> {
            fs::create_dir_all(out)?;
            fs::write(
                out.join("topology.dot"),
                topology_to_dot(&best.topology, &soc),
            )?;
            if let Some(layout) = &best.layout {
                fs::write(out.join("floorplan.svg"), layout_to_svg(layout))?;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(replayed)
}

/// The warm-chained Phase-1 base partition of one switch count.
struct Seed {
    conn: Connectivity,
    assignment: Vec<u32>,
}

/// The replay's view of one validated sweep.
struct Sweep<'a> {
    soc: &'a SocSpec,
    graph: CommGraph,
    cfg: &'a SynthesisConfig,
    frequencies: Vec<f64>,
    core_layers: Vec<u32>,
}

impl<'a> Sweep<'a> {
    /// Validates the inputs as the engine's constructor does.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid specs or configuration, or when no
    /// swept frequency admits a switch.
    fn new(soc: &'a SocSpec, comm: &CommSpec, cfg: &'a SynthesisConfig) -> Result<Self, String> {
        soc.validate().map_err(|e| e.to_string())?;
        comm.validate(soc).map_err(|e| e.to_string())?;
        cfg.validate().map_err(|e| e.to_string())?;
        let frequencies: Vec<f64> = cfg
            .frequencies_mhz
            .iter()
            .copied()
            .filter(|&f| cfg.library.switch.max_size_for_frequency(f) >= 2)
            .collect();
        if frequencies.is_empty() {
            return Err("no swept frequency admits a switch".to_string());
        }
        Ok(Self {
            soc,
            graph: CommGraph::new(soc, comm),
            cfg,
            frequencies,
            core_layers: soc.cores.iter().map(|c| c.layer).collect(),
        })
    }

    /// Runs the whole sweep in the engine's order.
    fn run(&self, t: &mut Tracer) -> SynthesisOutcome {
        let mut out = SynthesisOutcome::default();
        let phase1 = self.cfg.mode != SynthesisMode::Phase2Only;
        let (seeds, bank) = if phase1 {
            let seeds = self.seed_chain(t);
            let bank = self.warmup(&seeds, t);
            (seeds, Some(Arc::new(bank)))
        } else {
            (Vec::new(), None)
        };
        for &freq in &self.frequencies {
            let before = out.points.len();
            let primary = match self.cfg.mode {
                SynthesisMode::Phase2Only => self.phase2_params(freq),
                _ => self.phase1_counts().into_iter().map(Param::Count).collect(),
            };
            self.batch(freq, &primary, &seeds, bank.as_ref(), &mut out, t);
            if self.cfg.mode == SynthesisMode::Auto && out.points.len() == before {
                let fallback = self.phase2_params(freq);
                self.batch(freq, &fallback, &seeds, bank.as_ref(), &mut out, t);
            }
        }
        out
    }

    /// Phase-1 switch counts, clamped to `1..=cores`, by the sweep stride.
    fn phase1_counts(&self) -> Vec<usize> {
        let n = self.soc.core_count();
        let (lo, hi) = match self.cfg.switch_count_range {
            Some((lo, hi)) => (lo.max(1), hi.min(n)),
            None => (1, n),
        };
        (lo..=hi)
            .step_by(self.cfg.switch_count_step.max(1))
            .collect()
    }

    /// Phase-2 increments at one frequency.
    fn phase2_params(&self, freq: f64) -> Vec<Param> {
        let max_sw = self.cfg.library.switch.max_size_for_frequency(freq);
        let max_inc = phase2::max_increment(self.soc, max_sw);
        let (lo, hi) = match self.cfg.switch_count_range {
            Some((lo, hi)) => (lo, max_inc.min(hi)),
            None => (0, max_inc),
        };
        if lo > hi {
            return Vec::new();
        }
        (lo..=hi)
            .step_by(self.cfg.switch_count_step.max(1))
            .map(Param::Increment)
            .collect()
    }

    fn path_config(&self, freq: f64, adjacent_only: bool) -> PathConfig {
        PathConfig {
            max_ill: self.cfg.max_ill,
            soft_ill_margin: self.cfg.soft_ill_margin,
            max_switch_size: self.cfg.library.switch.max_size_for_frequency(freq),
            soft_switch_margin: self.cfg.soft_switch_margin,
            adjacent_layers_only: adjacent_only,
            frequency_mhz: freq,
            deadlock_retries: DEADLOCK_RETRIES,
        }
    }

    /// Class-threaded routing is on only for a serial sweep.
    fn class_threads(&self) -> bool {
        self.cfg.parallelism.effective_jobs() <= 1
    }

    fn route(
        &self,
        alloc: &mut PathAllocator,
        attach: &[usize],
        switch_layer: &[u32],
        est_pos: &[(f64, f64)],
        path_cfg: &PathConfig,
        t: &mut Tracer,
    ) -> Result<Topology, PathError> {
        t.call("paths.route", || {
            alloc.compute_paths_classed(
                &self.graph,
                attach,
                switch_layer,
                est_pos,
                &self.core_layers,
                self.soc.layers,
                &self.cfg.library,
                path_cfg,
                self.cfg.alpha,
                self.class_threads(),
            )
        })
    }

    fn connectivity(
        &self,
        name: &'static str,
        count: usize,
        theta: Option<f64>,
        initial: Option<&[u32]>,
        cache: &mut PartitionCache,
        t: &mut Tracer,
    ) -> Result<Connectivity, PartitionError> {
        let cfg = self.cfg;
        t.call(name, || {
            phase1::connectivity_cached(
                &self.graph,
                self.soc,
                count,
                cfg.alpha,
                theta,
                cfg.theta_max,
                cfg.rng_seed,
                initial,
                cache,
            )
        })
    }

    /// The Phase-1 seed chain: one cold-then-warm partition per swept
    /// count, each warm-started from the previous count's assignment.
    fn seed_chain(&self, t: &mut Tracer) -> Vec<(usize, Result<Seed, PartitionError>)> {
        let mut cache = PartitionCache::new();
        let mut seeds = Vec::new();
        let mut prev: Option<Vec<u32>> = None;
        for count in self.phase1_counts() {
            match self.connectivity(
                "phase1.seed_chain",
                count,
                None,
                prev.as_deref(),
                &mut cache,
                t,
            ) {
                Ok(conn) => {
                    let assignment: Vec<u32> = conn.core_attach.iter().map(|&a| a as u32).collect();
                    prev = Some(assignment.clone());
                    seeds.push((count, Ok(Seed { conn, assignment })));
                }
                Err(e) => seeds.push((count, Err(e))),
            }
        }
        seeds
    }

    /// The placement seed bank: route and place each seed once at the
    /// first usable frequency and keep the optimal bases.
    fn warmup(
        &self,
        seeds: &[(usize, Result<Seed, PartitionError>)],
        t: &mut Tracer,
    ) -> PlacementSeeds {
        let span = t.enter("warmup");
        let mut bank = PlacementSeeds::new();
        let mut alloc = PathAllocator::new();
        let mut placement = PlacementSolver::new();
        let path_cfg = self.path_config(self.frequencies[0], false);
        for (count, seed) in seeds {
            let Ok(seed) = seed else { continue };
            let c = &seed.conn;
            let Ok(mut topo) = self.route(
                &mut alloc,
                &c.core_attach,
                &c.switch_layer,
                &c.est_positions,
                &path_cfg,
                t,
            ) else {
                continue;
            };
            let placed = t.call("place.lp", || {
                placement.place(&mut topo, self.soc, &self.graph)
            });
            if placed.is_ok() {
                if let Some(s) = placement.export_seed(topo.switch_count()) {
                    bank.insert(*count, s);
                }
            }
        }
        t.exit(span, false);
        bank
    }

    /// Evaluates one candidate batch serially with fresh workspaces, as the
    /// engine's serial sweep does.
    fn batch(
        &self,
        freq: f64,
        params: &[Param],
        seeds: &[(usize, Result<Seed, PartitionError>)],
        bank: Option<&Arc<PlacementSeeds>>,
        out: &mut SynthesisOutcome,
        t: &mut Tracer,
    ) {
        let mut alloc = PathAllocator::new();
        let mut cache = PartitionCache::new();
        let mut placement = PlacementSolver::new();
        if let Some(bank) = bank {
            placement.install_seeds(Arc::clone(bank));
        }
        for &param in params {
            let span = t.enter("candidate");
            placement.begin_candidate();
            let mut ws = Workspace {
                alloc: &mut alloc,
                placement: &mut placement,
            };
            let accepted = match param {
                Param::Count(k) => {
                    self.phase1_candidate(freq, k, seeds, &mut cache, &mut ws, out, t)
                }
                Param::Increment(i) => self.phase2_candidate(freq, i, &mut ws, out, t),
            };
            t.exit(span, !accepted);
        }
    }

    /// Algorithm 1 for one switch count: the base attempt from the seed
    /// partition, then the θ escalation loop. Returns whether a point was
    /// accepted.
    #[allow(clippy::too_many_arguments)]
    fn phase1_candidate(
        &self,
        freq: f64,
        count: usize,
        seeds: &[(usize, Result<Seed, PartitionError>)],
        cache: &mut PartitionCache,
        ws: &mut Workspace<'_>,
        out: &mut SynthesisOutcome,
        t: &mut Tracer,
    ) -> bool {
        let cfg = self.cfg;
        let reject = |theta: Option<f64>, reason: RejectReason| RejectedPoint {
            requested_switches: count,
            frequency_mhz: freq,
            phase: PhaseKind::Phase1,
            theta,
            reason,
        };
        let computed;
        let seed = match seeds.iter().find(|(k, _)| *k == count).map(|(_, s)| s) {
            Some(Ok(seed)) => seed,
            Some(Err(e)) => {
                out.rejected.push(reject(None, e.clone().into()));
                return false;
            }
            None => match self.connectivity("phase1.seed_chain", count, None, None, cache, t) {
                Ok(conn) => {
                    let assignment = conn.core_attach.iter().map(|&a| a as u32).collect();
                    computed = Seed { conn, assignment };
                    &computed
                }
                Err(e) => {
                    out.rejected.push(reject(None, e.into()));
                    return false;
                }
            },
        };
        match self.attempt(freq, &seed.conn, PhaseKind::Phase1, false, ws, t) {
            Ok(point) => {
                out.points.push(point);
                return true;
            }
            Err(reason) => out.rejected.push(reject(None, reason)),
        }
        let mut warm = seed.assignment.clone();
        let mut theta = cfg.theta_min;
        while theta <= cfg.theta_max + 1e-9 {
            if let Ok(conn) =
                self.connectivity("phase1.theta", count, Some(theta), Some(&warm), cache, t)
            {
                warm.clear();
                warm.extend(conn.core_attach.iter().map(|&a| a as u32));
                match self.attempt(freq, &conn, PhaseKind::Phase1, false, ws, t) {
                    Ok(point) => {
                        out.points.push(point);
                        return true;
                    }
                    Err(reason) => out.rejected.push(reject(Some(theta), reason)),
                }
            }
            theta += cfg.theta_step;
        }
        false
    }

    /// Algorithm 2 for one per-layer increment. Returns whether a point was
    /// accepted.
    fn phase2_candidate(
        &self,
        freq: f64,
        increment: usize,
        ws: &mut Workspace<'_>,
        out: &mut SynthesisOutcome,
        t: &mut Tracer,
    ) -> bool {
        let cfg = self.cfg;
        let max_sw = cfg.library.switch.max_size_for_frequency(freq);
        let conn = t.call("phase2", || {
            phase2::connectivity(
                &self.graph,
                self.soc,
                increment,
                max_sw,
                cfg.alpha,
                cfg.rng_seed,
            )
        });
        let (requested_switches, reason) = match conn {
            Ok(conn) => match self.attempt(freq, &conn, PhaseKind::Phase2, true, ws, t) {
                Ok(point) => {
                    out.points.push(point);
                    return true;
                }
                Err(reason) => (conn.switch_count(), reason),
            },
            Err(e) => (increment, e.into()),
        };
        out.rejected.push(RejectedPoint {
            requested_switches,
            frequency_mhz: freq,
            phase: PhaseKind::Phase2,
            theta: None,
            reason,
        });
        false
    }

    /// Routes (with the indirect-switch rounds), places, lays out,
    /// evaluates and screens one connectivity.
    fn attempt(
        &self,
        freq: f64,
        conn: &Connectivity,
        phase: PhaseKind,
        adjacent_only: bool,
        ws: &mut Workspace<'_>,
        t: &mut Tracer,
    ) -> Result<DesignPoint, RejectReason> {
        let cfg = self.cfg;
        let soc = self.soc;
        let max_sw = cfg.library.switch.max_size_for_frequency(freq);
        let path_cfg = self.path_config(freq, adjacent_only);
        let mut switch_layer = conn.switch_layer.clone();
        let mut est_pos = conn.est_positions.clone();
        let mut indirect: Vec<usize> = Vec::new();
        let mut topo: Option<Topology> = None;
        let mut last_err: Option<PathError> = None;
        for round in 0..=cfg.indirect_switch_rounds {
            match self.route(
                ws.alloc,
                &conn.core_attach,
                &switch_layer,
                &est_pos,
                &path_cfg,
                t,
            ) {
                Ok(mut routed) => {
                    routed.indirect_switches = indirect.clone();
                    topo = Some(routed);
                    break;
                }
                Err(e @ (PathError::NoRoute { .. } | PathError::DeadlockUnavoidable { .. }))
                    if round < cfg.indirect_switch_rounds =>
                {
                    last_err = Some(e);
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
                        est_pos.push((cx / members.len() as f64, cy / members.len() as f64));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        let mut topo =
            topo.ok_or_else(|| last_err.map_or(RejectReason::RoutingFailed, RejectReason::from))?;

        let placement = &mut *ws.placement;
        t.call("place.lp", || placement.place(&mut topo, soc, &self.graph))
            .map_err(RejectReason::from)?;

        let layout = if !cfg.run_layout {
            None
        } else if cfg.anneal_replicas >= 1 {
            let temper = TemperConfig {
                base: AnnealConfig::default()
                    .with_iterations(TEMPERED_LAYOUT_ITERATIONS)
                    .with_seed(cfg.rng_seed),
                replicas: cfg.anneal_replicas,
                threads: if cfg.parallelism.effective_jobs() > 1 {
                    1
                } else {
                    0
                },
                ..TemperConfig::default()
            };
            let (layout, _stats): (_, AnnealStats) = t.call_ok("layout.tempered", || {
                layout_design_tempered(&mut topo, soc, &cfg.library, &temper)
            });
            Some(layout)
        } else {
            Some(t.call_ok("layout.shove", || {
                layout_design(&mut topo, soc, &cfg.library, cfg.layout_search_radius_mm)
            }))
        };

        let span = t.enter("eval");
        let metrics = evaluate(&topo, soc, &self.graph, &cfg.library, freq);
        let screened = screen(&metrics, &topo, cfg.max_ill, max_sw, freq);
        t.exit(span, screened.is_err());
        screened?;
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

/// The engine's final constraint screening, in the engine's order.
fn screen(
    metrics: &sunfloor_core::eval::DesignMetrics,
    topo: &Topology,
    max_ill: u32,
    max_sw: u32,
    freq: f64,
) -> Result<(), RejectReason> {
    if !metrics.is_finite() {
        return Err(RejectReason::NonFiniteMetrics);
    }
    if metrics.max_inter_layer_links() > max_ill {
        return Err(RejectReason::IllExceeded {
            got: metrics.max_inter_layer_links(),
            limit: max_ill,
        });
    }
    for s in 0..topo.switch_count() {
        if topo.switch_size(s) > max_sw {
            return Err(RejectReason::SwitchTooLarge {
                switch: s,
                ports: topo.switch_size(s),
                limit: max_sw,
                frequency_mhz: freq,
            });
        }
    }
    if !metrics.meets_latency() {
        return Err(RejectReason::LatencyViolated {
            excess_cycles: metrics.worst_latency_violation,
        });
    }
    Ok(())
}

/// One candidate's sweep parameter.
#[derive(Debug, Clone, Copy)]
enum Param {
    /// Phase 1 switch count.
    Count(usize),
    /// Phase 2 per-layer increment.
    Increment(usize),
}

/// The per-batch routing workspace and placement solver.
struct Workspace<'w> {
    alloc: &'w mut PathAllocator,
    placement: &'w mut PlacementSolver,
}
