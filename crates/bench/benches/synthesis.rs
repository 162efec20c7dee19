//! Criterion benchmarks of the full synthesis flow — the paper's runtime
//! claims (§VIII-E): seconds for few-switch topologies, growing with the
//! switch count, once per design — plus the serial-vs-parallel engine
//! comparison that tracks the design-space sweep speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sunfloor_benchmarks::{bottleneck, distributed, media26};
use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine, SynthesisMode};

fn single_point_cfg(k: usize) -> SynthesisConfig {
    SynthesisConfig::builder().switch_count_range(k, k).build().unwrap()
}

fn run(soc: &sunfloor_core::spec::SocSpec, comm: &sunfloor_core::spec::CommSpec, cfg: &SynthesisConfig) {
    let outcome = SynthesisEngine::new(soc, comm, cfg.clone()).unwrap().run();
    black_box(outcome);
}

fn bench_single_design_point(c: &mut Criterion) {
    let bench = media26();
    let mut group = c.benchmark_group("synthesis_single_point_media26");
    group.sample_size(10);
    for k in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = single_point_cfg(k);
            b.iter(|| run(black_box(&bench.soc), &bench.comm, &cfg));
        });
    }
    group.finish();
}

fn bench_benchmark_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis_point_per_benchmark");
    group.sample_size(10);
    for bench in [distributed(4), bottleneck()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name.clone()),
            &bench,
            |b, bench| {
                let cfg = single_point_cfg(6);
                b.iter(|| run(black_box(&bench.soc), &bench.comm, &cfg));
            },
        );
    }
    group.finish();
}

fn bench_phase2_flow(c: &mut Criterion) {
    let bench = distributed(4);
    let cfg = SynthesisConfig::builder()
        .mode(SynthesisMode::Phase2Only)
        .run_layout(false)
        .switch_count_range(1, 4)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("synthesis_phase2_d36_4");
    group.sample_size(10);
    group.bench_function("increments_1_to_4", |b| {
        b.iter(|| run(black_box(&bench.soc), &bench.comm, &cfg));
    });
    group.finish();
}

/// The θ loop on a design where it escalates a lot: `D_36_8` at 400 MHz
/// over switch counts 4..8 with layout on. Most θ steps there repeat the
/// partition just tried, and reuse its rejection instead of routing,
/// placing and laying it out again.
fn bench_theta_loop(c: &mut Criterion) {
    let bench = distributed(8);
    let cfg = SynthesisConfig::builder()
        .frequency_mhz(400.0)
        .switch_count_range(4, 8)
        .run_layout(true)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("synthesis_theta_loop_d36_8");
    group.sample_size(10);
    group.bench_function("switches_4_to_8_at_400mhz", |b| {
        b.iter(|| run(black_box(&bench.soc), &bench.comm, &cfg));
    });
    group.finish();
}

/// θ chains shared across frequencies: `D_36_8` at 300, 400 and 500 MHz
/// over switch counts 4..8 with layout on. A count that escalates at more
/// than one frequency takes its θ-step partitions from the chain the first
/// frequency computed.
fn bench_theta_chain(c: &mut Criterion) {
    let bench = distributed(8);
    let cfg = SynthesisConfig::builder()
        .frequencies_mhz([300.0, 400.0, 500.0])
        .switch_count_range(4, 8)
        .run_layout(true)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("synthesis_theta_chain_d36_8");
    group.sample_size(10);
    group.bench_function("switches_4_to_8_at_300_400_500mhz", |b| {
        b.iter(|| run(black_box(&bench.soc), &bench.comm, &cfg));
    });
    group.finish();
}

/// Serial vs parallel design-space sweep on media26: identical outcomes by
/// construction, so the group isolates the engine's thread fan-out speedup.
fn bench_parallel_sweep(c: &mut Criterion) {
    let bench = media26();
    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut group = c.benchmark_group("sweep_parallel_media26");
    group.sample_size(10);
    for jobs in [1usize, workers] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            let cfg = SynthesisConfig::builder()
                .switch_count_range(2, 10)
                .run_layout(false)
                .jobs(jobs)
                .build()
                .unwrap();
            b.iter(|| run(black_box(&bench.soc), &bench.comm, &cfg));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_design_point,
    bench_benchmark_suite,
    bench_phase2_flow,
    bench_theta_loop,
    bench_theta_chain,
    bench_parallel_sweep
);
criterion_main!(benches);
