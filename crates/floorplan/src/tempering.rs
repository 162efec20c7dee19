//! Deterministic parallel tempering (replica exchange) over the
//! sequence-pair annealer.
//!
//! N replicas run the same annealing schedule at staggered temperatures:
//! replica `i` starts on ladder rung `i`, an effective temperature of
//! `base_temp · stagger^i`. Every `swap_interval` iterations all replicas
//! meet at a barrier and adjacent rungs attempt to exchange temperatures
//! with the standard replica-exchange acceptance probability
//! `min(1, exp((E_cold − E_hot)·(1/T_cold − 1/T_hot)))` — hot replicas
//! explore, cold replicas refine, and good configurations migrate down
//! the ladder.
//!
//! # Determinism contract
//!
//! The final floorplan is a *pure function of the configuration*
//! (`TemperConfig`, which includes the replica count) — bit-for-bit
//! independent of the thread count and OS scheduling:
//!
//! * Replica `i` owns its own `StdRng`, seeded `rng_seed + i`, and its own
//!   incremental pack/net-cache state. No replica ever reads another
//!   replica's RNG or placement.
//! * Swap rounds are barrier-synchronized reductions: every replica
//!   publishes its energy, *one* designated worker evaluates all pairs in
//!   ladder order with a dedicated swap RNG (seeded from `rng_seed`
//!   alone), and only then do replicas resume. The swap decisions depend
//!   on energies and the swap RNG — never on which thread stepped which
//!   replica or in what order they reached the barrier.
//! * The winner is the lowest best-seen cost, ties broken by the lowest
//!   replica index — a strict-less scan in index order.
//!
//! `threads` therefore only chooses how replicas are multiplexed onto
//! workers; `TemperConfig::with_replicas(1)` degenerates to one serial
//! chain, which is what [`anneal`](crate::anneal) runs.

use crate::annealer::{AnnealConfig, AnnealInput, ReplicaState};
use crate::geometry::{Floorplan, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Configuration of a parallel-tempering run.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperConfig {
    /// The per-replica annealing configuration (iterations are *per
    /// replica*; the aggregate move budget is `iterations · replicas`).
    pub base: AnnealConfig,
    /// Number of replicas (ladder rungs). `1` degenerates to one serial
    /// chain; values are clamped to at least 1.
    pub replicas: usize,
    /// Iterations each replica runs between swap rounds (clamped to at
    /// least 1).
    pub swap_interval: u32,
    /// Temperature ratio between adjacent ladder rungs (> 1); rung `i`
    /// anneals at `stagger^i` times the base schedule.
    pub stagger: f64,
    /// Worker threads to multiplex replicas onto: `0` means one thread
    /// per replica. Scheduling only — never affects the result.
    pub threads: usize,
}

impl Default for TemperConfig {
    fn default() -> Self {
        Self {
            base: AnnealConfig::default(),
            replicas: 4,
            swap_interval: 500,
            stagger: 1.6,
            threads: 0,
        }
    }
}

impl TemperConfig {
    /// Overrides the replica count (builder style).
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Overrides the worker-thread budget (builder style). `0` restores
    /// one thread per replica.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the RNG seed of the base schedule (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.rng_seed = seed;
        self
    }

    /// Overrides the per-replica iteration budget (builder style).
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.base = self.base.with_iterations(iterations);
        self
    }
}

/// Counters from a tempered run — scheduling-independent, like the result.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TemperStats {
    /// Replicas that ran.
    pub replicas: usize,
    /// Adjacent-rung exchanges attempted across all swap rounds.
    pub swap_attempts: u64,
    /// Exchanges accepted.
    pub swap_accepts: u64,
    /// Index of the replica that produced the returned floorplan.
    pub best_replica: usize,
    /// Its best (internal annealing) cost.
    pub best_cost: f64,
    /// Aggregate move budget spent: `iterations · replicas`.
    pub iterations_total: u64,
}

impl TemperStats {
    /// Fraction of attempted exchanges that were accepted.
    #[must_use]
    pub fn swap_acceptance(&self) -> f64 {
        if self.swap_attempts == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.swap_accepts as f64 / self.swap_attempts as f64
            }
        }
    }
}

/// Ladder multiplier of rung `k`.
fn rung(stagger: f64, k: usize) -> f64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    stagger.powi(k as i32)
}

/// Splits the per-replica budget into swap-round chunks: full
/// `swap_interval` chunks plus a final remainder.
fn round_schedule(iterations: u32, swap_interval: u32) -> Vec<u32> {
    let mut schedule = Vec::new();
    let mut left = iterations;
    while left > swap_interval {
        schedule.push(swap_interval);
        left -= swap_interval;
    }
    schedule.push(left);
    schedule
}

/// Anneals `input` with `cfg.replicas` exchange-coupled chains,
/// minimizing `area + λ·HPWL(nets)` plus each target's weighted
/// deviation, and moving only the blocks from `input.fixed_order_count`
/// on. Returns the floorplan and the run's [`TemperStats`]. The
/// crate-level docs spell out the determinism contract.
///
/// # Panics
///
/// Panics if the seed sequence pair or the target list does not have one
/// entry per block, or if a net references a block out of range.
#[must_use]
pub fn anneal_tempered(
    input: &AnnealInput,
    nets: &[Net],
    cfg: &TemperConfig,
) -> (Floorplan, TemperStats) {
    let n = input.blocks.len();
    assert_eq!(input.seed.len(), n, "seed/blocks length mismatch");
    assert_eq!(input.ideal.len(), n, "one target slot per block");
    if n == 0 {
        return (Floorplan::default(), TemperStats::default());
    }
    for net in nets {
        for &p in &net.pins {
            assert!(p < n, "net references block {p} out of range");
        }
    }
    let r = cfg.replicas.max(1);
    let stagger = if cfg.stagger > 1.0 { cfg.stagger } else { TemperConfig::default().stagger };
    let mut replicas: Vec<ReplicaState<'_>> = (0..r)
        .map(|i| {
            ReplicaState::new(
                input,
                nets,
                &cfg.base,
                cfg.base.rng_seed.wrapping_add(i as u64),
                rung(stagger, i),
            )
        })
        .collect();

    let mut stats = TemperStats {
        replicas: r,
        iterations_total: u64::from(cfg.base.iterations) * r as u64,
        ..TemperStats::default()
    };

    if r == 1 {
        // Degenerate ladder: one serial chain (ladder 1.0, no swap rounds).
        replicas[0].step(cfg.base.iterations);
    } else {
        let threads = if cfg.threads == 0 { r } else { cfg.threads.clamp(1, r) };
        let schedule = round_schedule(cfg.base.iterations, cfg.swap_interval.max(1));
        // Published per-replica energies and ladder assignments (f64 bits).
        // The barriers around each swap round order every access, so the
        // atomics only provide race-free storage, not synchronization.
        let energies: Vec<AtomicU64> = (0..r).map(|_| AtomicU64::new(0)).collect();
        let ladders: Vec<AtomicU64> =
            replicas.iter().map(|rep| AtomicU64::new(rep.ladder().to_bits())).collect();
        let swap_attempts = AtomicU64::new(0);
        let swap_accepts = AtomicU64::new(0);
        let barrier = Barrier::new(threads);
        // Decorrelate the coordinator's swap stream from the replicas'
        // move streams (splitmix of the base seed with an odd constant).
        let swap_seed = cfg.base.rng_seed ^ 0x9E37_79B9_7F4A_7C15;

        // Static assignment of replicas to worker lanes (round-robin).
        // Any static assignment would do: results never depend on which
        // lane steps which replica, only the wall-clock does.
        let mut lanes: Vec<Vec<(usize, &mut ReplicaState<'_>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, rep) in replicas.iter_mut().enumerate() {
            lanes[i % threads].push((i, rep));
        }

        std::thread::scope(|s| {
            let (schedule, energies, ladders) = (&schedule, &energies, &ladders);
            let (barrier, swap_attempts, swap_accepts) = (&barrier, &swap_attempts, &swap_accepts);
            for (tid, mut lane) in lanes.into_iter().enumerate() {
                s.spawn(move || {
                    // Lane 0 (which owns replica 0) doubles as the swap
                    // coordinator between the two barriers of each round.
                    let mut coordinator = (tid == 0).then(|| {
                        (StdRng::seed_from_u64(swap_seed), (0..r).collect::<Vec<usize>>(), 0u64, 0u64)
                    });
                    for (round, &chunk) in schedule.iter().enumerate() {
                        for (i, rep) in &mut lane {
                            rep.step(chunk);
                            energies[*i].store(rep.cur_cost().to_bits(), Ordering::Relaxed);
                        }
                        barrier.wait();
                        if let Some((rng, holders, attempts, accepts)) = coordinator.as_mut() {
                            let base_temp = lane[0].1.base_temp();
                            swap_round(
                                round, rng, holders, energies, ladders, base_temp, stagger,
                                attempts, accepts,
                            );
                        }
                        barrier.wait();
                        for (i, rep) in &mut lane {
                            rep.set_ladder(f64::from_bits(ladders[*i].load(Ordering::Relaxed)));
                        }
                    }
                    if let Some((_, _, attempts, accepts)) = coordinator {
                        swap_attempts.store(attempts, Ordering::Relaxed);
                        swap_accepts.store(accepts, Ordering::Relaxed);
                    }
                });
            }
        });

        stats.swap_attempts = swap_attempts.load(Ordering::Relaxed);
        stats.swap_accepts = swap_accepts.load(Ordering::Relaxed);
    }

    // Deterministic reduction: lowest best cost wins, ties to the lowest
    // replica index (strict-less scan in index order).
    let mut best = 0usize;
    for i in 1..r {
        if replicas[i].best_cost() < replicas[best].best_cost() {
            best = i;
        }
    }
    stats.best_replica = best;
    stats.best_cost = replicas[best].best_cost();
    (replicas[best].build_best(), stats)
}

/// One replica-exchange round, run by the coordinator alone between the
/// two barriers. Rung pairs `(k, k+1)` are visited in ladder order —
/// even-based pairs on even rounds, odd-based on odd rounds — and each
/// exchange is accepted with `min(1, exp((E_cold − E_hot)·(1/T_cold −
/// 1/T_hot)))`. `holders[k]` tracks which replica currently anneals on
/// rung `k`, so pairing stays adjacent-in-temperature as assignments
/// migrate.
// sf: hot-path
#[allow(clippy::too_many_arguments)]
fn swap_round(
    round: usize,
    rng: &mut StdRng,
    holders: &mut [usize],
    energies: &[AtomicU64],
    ladders: &[AtomicU64],
    base_temp: f64,
    stagger: f64,
    attempts: &mut u64,
    accepts: &mut u64,
) {
    let r = holders.len();
    let mut k = round % 2;
    while k + 1 < r {
        let a = holders[k]; // colder rung
        let b = holders[k + 1]; // hotter rung
        let e_a = f64::from_bits(energies[a].load(Ordering::Relaxed));
        let e_b = f64::from_bits(energies[b].load(Ordering::Relaxed));
        let t_a = base_temp * rung(stagger, k);
        let t_b = base_temp * rung(stagger, k + 1);
        let d = (e_a - e_b) * (1.0 / t_a - 1.0 / t_b);
        *attempts += 1;
        if d >= 0.0 || rng.gen_bool(d.exp().clamp(0.0, 1.0)) {
            ladders[a].store(rung(stagger, k + 1).to_bits(), Ordering::Relaxed);
            ladders[b].store(rung(stagger, k).to_bits(), Ordering::Relaxed);
            holders.swap(k, k + 1);
            *accepts += 1;
        }
        k += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal;
    use crate::geometry::{Block, PlacedBlock};
    use crate::seqpair::SequencePair;

    fn blocks(n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| {
                let w = 1.0 + f64::from(u32::try_from(i % 5).unwrap()) * 0.5;
                let h = 1.0 + f64::from(u32::try_from(i % 3).unwrap()) * 0.7;
                Block::new(format!("b{i}"), w, h)
            })
            .collect()
    }

    fn ring_nets(n: usize) -> Vec<Net> {
        (0..n).map(|i| Net::two_pin(i, (i + 7) % n, 1.0)).collect()
    }

    /// One replica is one serial chain: the driver's result equals a chain
    /// stepped by hand in swap-interval chunks (what every replica of a
    /// larger ladder does), and [`anneal`]'s.
    #[test]
    fn single_replica_matches_serial_annealer_bit_for_bit() {
        let input = AnnealInput::new(blocks(12));
        let nets = ring_nets(12);
        let base = AnnealConfig::default().with_iterations(4000).with_seed(42);
        let cfg = TemperConfig { base: base.clone(), ..TemperConfig::default() }.with_replicas(1);
        let (tempered, stats) = anneal_tempered(&input, &nets, &cfg);
        let mut chain = ReplicaState::new(&input, &nets, &base, base.rng_seed, 1.0);
        for chunk in round_schedule(base.iterations, cfg.swap_interval) {
            chain.step(chunk);
        }
        assert_eq!(chain.build_best(), tempered);
        assert_eq!(chain.best_cost().to_bits(), stats.best_cost.to_bits());
        assert_eq!(anneal(&input.blocks, &nets, &base), tempered);
    }

    #[test]
    fn result_is_invariant_under_thread_count() {
        let input = AnnealInput::new(blocks(14));
        let nets = ring_nets(14);
        let cfg = TemperConfig::default().with_iterations(3000).with_seed(7).with_replicas(4);
        let reference = anneal_tempered(&input, &nets, &cfg).0;
        for threads in [1, 2, 3, 4] {
            let plan = anneal_tempered(&input, &nets, &cfg.clone().with_threads(threads)).0;
            assert_eq!(reference, plan, "thread count {threads} changed the floorplan");
        }
    }

    #[test]
    fn stats_are_deterministic_and_swaps_happen() {
        let input = AnnealInput::new(blocks(14));
        let nets = ring_nets(14);
        let cfg = TemperConfig::default().with_iterations(4000).with_seed(11).with_replicas(4);
        let (_, a) = anneal_tempered(&input, &nets, &cfg);
        let (_, b) = anneal_tempered(&input, &nets, &cfg.clone().with_threads(2));
        assert_eq!(a, b, "stats must be scheduling-independent");
        assert!(a.swap_attempts > 0, "no exchanges attempted");
        assert!(a.swap_accepts <= a.swap_attempts);
        assert_eq!(a.iterations_total, 4 * 4000);
        assert!((0.0..=1.0).contains(&a.swap_acceptance()));
    }

    #[test]
    fn tempered_result_is_legal() {
        let nets = ring_nets(10);
        let cfg = TemperConfig::default().with_iterations(3000).with_replicas(3);
        let (plan, _) = anneal_tempered(&AnnealInput::new(blocks(10)), &nets, &cfg);
        assert!(plan.overlapping_pair().is_none());
        assert_eq!(plan.blocks.len(), 10);
    }

    #[test]
    fn empty_input_and_degenerate_configs() {
        let cfg = TemperConfig::default();
        let (empty, stats) = anneal_tempered(&AnnealInput::new(vec![]), &[], &cfg);
        assert_eq!(empty.blocks.len(), 0);
        assert_eq!(stats, TemperStats::default());
        // replicas = 0 clamps to 1.
        let (one, stats) = anneal_tempered(
            &AnnealInput::new(vec![Block::new("solo", 2.0, 2.0)]),
            &[],
            &TemperConfig { replicas: 0, ..TemperConfig::default() },
        );
        assert_eq!(one.blocks.len(), 1);
        assert_eq!(stats.replicas, 1);
    }

    #[test]
    #[should_panic(expected = "seed/blocks length mismatch")]
    fn rejects_a_seed_of_the_wrong_length() {
        let input = AnnealInput { seed: SequencePair::identity(3), ..AnnealInput::new(blocks(4)) };
        let _ = anneal_tempered(&input, &[], &TemperConfig::default().with_iterations(10));
    }

    #[test]
    #[should_panic(expected = "one target slot per block")]
    fn rejects_a_target_list_of_the_wrong_length() {
        let input = AnnealInput { ideal: vec![None; 5], ..AnnealInput::new(blocks(4)) };
        let _ = anneal_tempered(&input, &[], &TemperConfig::default().with_iterations(10));
    }

    /// Order-frozen cores and targets do not skip the pin check.
    #[test]
    #[should_panic(expected = "net references block 4 out of range")]
    fn rejects_an_out_of_range_net_pin() {
        let mut input = AnnealInput { fixed_order_count: 2, ..AnnealInput::new(blocks(4)) };
        input.ideal[3] = Some((1.0, 1.0, 2.0));
        let nets = [Net::two_pin(0, 4, 1.0)];
        let _ = anneal_tempered(&input, &nets, &TemperConfig::default().with_iterations(10));
    }

    #[test]
    fn constrained_tempering_preserves_core_relative_order() {
        let cores = vec![
            PlacedBlock::new(Block::new("c0", 2.0, 2.0), 0.0, 0.0),
            PlacedBlock::new(Block::new("c1", 2.0, 2.0), 2.5, 0.0),
            PlacedBlock::new(Block::new("c2", 2.0, 2.0), 5.0, 0.0),
        ];
        let mut all: Vec<Block> = cores.iter().map(|p| p.block.clone()).collect();
        all.push(Block::new("sw0", 0.5, 0.5));
        all.push(Block::new("sw1", 0.5, 0.5));
        let mut placed = cores.clone();
        placed.push(PlacedBlock::new(all[3].clone(), 1.0, 2.5));
        placed.push(PlacedBlock::new(all[4].clone(), 4.0, 2.5));
        let input = AnnealInput {
            seed: SequencePair::from_placement(&placed),
            blocks: all,
            ideal: vec![None, None, None, Some((1.2, 2.2, 2.0)), Some((4.2, 2.2, 2.0))],
            fixed_order_count: 3,
        };
        let cfg = TemperConfig::default().with_iterations(3000).with_replicas(3);
        let (plan, stats) = anneal_tempered(&input, &[], &cfg);
        assert!(plan.overlapping_pair().is_none());
        let x0 = plan.blocks[0].center().0;
        let x1 = plan.blocks[1].center().0;
        let x2 = plan.blocks[2].center().0;
        assert!(x0 < x1 && x1 < x2, "core order broken: {x0} {x1} {x2}");
        assert_eq!(stats.replicas, 3);
        // Thread-count invariance holds for the constrained variant too.
        let (serial_sched, _) = anneal_tempered(&input, &[], &cfg.clone().with_threads(1));
        assert_eq!(plan, serial_sched);
    }

    #[test]
    fn round_schedule_covers_the_budget_exactly() {
        for (iters, interval) in [(3000u32, 500u32), (999, 1000), (1, 1), (1000, 333)] {
            let s = round_schedule(iters, interval);
            assert_eq!(s.iter().sum::<u32>(), iters, "{iters}/{interval}");
            assert!(s.iter().all(|&c| c >= 1 && c <= interval), "{s:?}");
        }
    }
}
