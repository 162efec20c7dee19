//! Synthetic benchmark families of §VIII-B: distributed (`D_36_x`),
//! bottleneck (`D_35_bot`) and pipelined (`D_65_pipe`, `D_38_tvopd`).

use crate::catalog::Benchmark;
use crate::layout2d::floorplan_layers;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunfloor_core::spec::{CommSpec, Core, Flow, MessageType, SocSpec};

/// Total application bandwidth of the distributed benchmarks, MB/s. "The
/// total bandwidth is the same in the three benchmarks" (§VIII-B), so each
/// of the 18 processors spreads `TOTAL/18` over its 4/6/8 flows.
const DISTRIBUTED_TOTAL_MBS: f64 = 3600.0;

/// Default RNG seed base for [`pipeline`] (the generator adds `n` so each
/// family member gets a distinct but reproducible roster).
pub const PIPELINE_SEED_BASE: u64 = 0x65;

/// Default RNG seed for [`tvopd`].
pub const TVOPD_SEED: u64 = 0x38;

/// Builds the validated `(SocSpec, CommSpec)` pair, runs the per-layer 2-D
/// floorplanner and wraps the result. Every generator in this module
/// funnels through here.
fn assemble(
    name: String,
    cores: Vec<Core>,
    layers: u32,
    flows: Vec<Flow>,
    seed: u64,
) -> Benchmark {
    let mut bench = roster(name, cores, layers, flows);
    floorplan_layers(&mut bench.soc, &bench.comm, seed);
    bench
}

/// Validates a generated roster and wraps it, every core still where the
/// generator put it. The rosters are valid by construction (distinct
/// names, layers in range, flow endpoints in bounds), so the spec
/// constructors cannot fail on generator output.
fn roster(name: String, cores: Vec<Core>, layers: u32, flows: Vec<Flow>) -> Benchmark {
    // sf-allow(panic-in-lib): generator rosters are valid by construction
    let soc = SocSpec::new(cores, layers).expect("generator roster is valid");
    // sf-allow(panic-in-lib): generator flows reference in-bounds cores only
    let comm = CommSpec::new(flows, &soc).expect("generator flows are valid");
    Benchmark::new(name, soc, comm)
}

/// `D_36_<flows_per_proc>`: 18 processors and 18 memories; each processor
/// sends `flows_per_proc` request flows to distinct memories (chosen
/// deterministically), with total bandwidth constant across the family.
/// Processors sit on layer 0, memories on layer 1 — each processor under
/// the memories it uses, per the paper's stacking policy.
///
/// # Panics
///
/// Panics if `flows_per_proc` is 0 or exceeds the 18 memories.
#[must_use]
pub fn distributed(flows_per_proc: usize) -> Benchmark {
    assert!(
        (1..=18).contains(&flows_per_proc),
        "flows per processor must be in 1..=18, got {flows_per_proc}"
    );
    let mut cores = Vec::with_capacity(36);
    for i in 0..18 {
        cores.push(Core {
            name: format!("proc{i}"),
            width: 2.0,
            height: 2.0,
            x: 0.0,
            y: 0.0,
            layer: 0,
        });
    }
    for i in 0..18 {
        cores.push(Core {
            name: format!("mem{i}"),
            width: 1.8,
            height: 1.6,
            x: 0.0,
            y: 0.0,
            layer: 1,
        });
    }
    let bw_per_flow = DISTRIBUTED_TOTAL_MBS / (18.0 * flows_per_proc as f64);
    let mut flows = Vec::new();
    for p in 0..18usize {
        for k in 0..flows_per_proc {
            // Each processor works on a contiguous neighborhood of the
            // memory bank starting at its own memory — the locality that
            // lets the 3-D stack put memories directly above their
            // processors.
            let m = (p + k) % 18;
            flows.push(Flow {
                src: p,
                dst: 18 + m,
                bandwidth_mbs: bw_per_flow,
                max_latency_cycles: 12.0,
                message_type: MessageType::Request,
            });
        }
    }
    assemble(
        format!("D_36_{flows_per_proc}"),
        cores,
        2,
        flows,
        0x36_u64 + flows_per_proc as u64,
    )
}

/// `D_35_bot`: bottleneck communication — 16 processors each with a private
/// memory (high-bandwidth request/response pair) and 3 shared memories that
/// *all* processors hit at lower bandwidth (§VIII-B). Processors on layer 0
/// with their private memories stacked above on layer 1; the shared
/// memories also sit on layer 1.
#[must_use]
pub fn bottleneck() -> Benchmark {
    let mut cores = Vec::with_capacity(35);
    for i in 0..16 {
        cores.push(Core {
            name: format!("proc{i}"),
            width: 2.0,
            height: 2.0,
            x: 0.0,
            y: 0.0,
            layer: 0,
        });
    }
    for i in 0..16 {
        cores.push(Core {
            name: format!("pmem{i}"),
            width: 1.6,
            height: 1.5,
            x: 0.0,
            y: 0.0,
            layer: 1,
        });
    }
    for i in 0..3 {
        cores.push(Core {
            name: format!("smem{i}"),
            width: 2.2,
            height: 2.0,
            x: 0.0,
            y: 0.0,
            layer: 1,
        });
    }
    let mut flows = Vec::new();
    for p in 0..16usize {
        // Private memory: heavy, tight latency.
        flows.push(Flow {
            src: p,
            dst: 16 + p,
            bandwidth_mbs: 180.0,
            max_latency_cycles: 8.0,
            message_type: MessageType::Request,
        });
        flows.push(Flow {
            src: 16 + p,
            dst: p,
            bandwidth_mbs: 180.0,
            max_latency_cycles: 8.0,
            message_type: MessageType::Response,
        });
        // Shared memories: everyone talks to all three, lightly.
        for s in 0..3usize {
            flows.push(Flow {
                src: p,
                dst: 32 + s,
                bandwidth_mbs: 25.0,
                max_latency_cycles: 12.0,
                message_type: MessageType::Request,
            });
        }
    }
    assemble("D_35_bot".to_string(), cores, 2, flows, 0x35_u64)
}

/// `D_65_pipe`-style benchmark: `n` cores communicating in a pipeline, "each
/// core communicates only to one or few other cores" (§VIII-B). Cores are
/// blocked onto layers in pipeline order so most traffic stays intra-layer
/// (the reason the paper sees the smallest 3-D gains here). Bandwidths vary
/// mildly and deterministically along the pipeline.
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn pipeline(n: usize) -> Benchmark {
    pipeline_seeded(n, PIPELINE_SEED_BASE)
}

/// [`pipeline`] with an explicit RNG seed base, for callers that need to
/// control the generator's randomness from their own configuration. The
/// same `(n, seed_base)` pair always yields the same benchmark.
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn pipeline_seeded(n: usize, seed_base: u64) -> Benchmark {
    let mut bench = pipeline_roster(n, seed_base);
    floorplan_layers(&mut bench.soc, &bench.comm, seed_base.wrapping_add(n as u64));
    bench
}

/// The roster of [`pipeline_seeded`] — the same name, cores, layers and
/// flows — with every core at the origin: the per-layer floorplan, by far
/// the generator's largest cost, is not run. For callers that read only
/// the flows and the layers, such as partitioning graphs.
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn pipeline_roster(n: usize, seed_base: u64) -> Benchmark {
    assert!(n >= 4, "pipeline benchmark needs at least 4 cores");
    let layers: u32 = if n > 40 { 3 } else { 2 };
    let per_layer = n.div_ceil(layers as usize);
    let mut rng = StdRng::seed_from_u64(seed_base.wrapping_add(n as u64));

    let cores: Vec<Core> = (0..n)
        .map(|i| Core {
            name: format!("stage{i}"),
            width: rng.gen_range(1.2..2.4),
            height: rng.gen_range(1.2..2.4),
            x: 0.0,
            y: 0.0,
            layer: (i / per_layer) as u32,
        })
        .collect();

    let mut flows = Vec::new();
    for i in 0..n - 1 {
        flows.push(Flow {
            src: i,
            dst: i + 1,
            bandwidth_mbs: 120.0 + 60.0 * f64::from(i as u32 % 3),
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        });
        // "one or few": every fourth stage also feeds the stage after next.
        if i % 4 == 0 && i + 2 < n {
            flows.push(Flow {
                src: i,
                dst: i + 2,
                bandwidth_mbs: 60.0,
                max_latency_cycles: 12.0,
                message_type: MessageType::Request,
            });
        }
    }
    let name = if seed_base == PIPELINE_SEED_BASE {
        format!("D_{n}_pipe")
    } else {
        format!("D_{n}_pipe_s{seed_base}")
    };
    roster(name, cores, layers, flows)
}

/// `D_38_tvopd`: a TV object-plane-decoder-style design — three parallel
/// VOPD-like decode pipelines (12 stages each) plus a shared front end and
/// display mixer, 38 cores total on 2 layers.
#[must_use]
pub fn tvopd() -> Benchmark {
    tvopd_seeded(TVOPD_SEED)
}

/// [`tvopd`] with an explicit RNG seed, for callers that need to control
/// the generator's randomness from their own configuration. The same seed
/// always yields the same benchmark.
#[must_use]
pub fn tvopd_seeded(seed: u64) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cores = Vec::with_capacity(38);
    // Shared front end and back end.
    cores.push(Core {
        name: "stream_in".into(),
        width: 1.4,
        height: 1.2,
        x: 0.0,
        y: 0.0,
        layer: 0,
    });
    cores.push(Core { name: "mixer".into(), width: 2.0, height: 1.8, x: 0.0, y: 0.0, layer: 1 });
    // Three 12-stage decode pipelines, blocked onto the two layers so the
    // core counts balance 19/19: pipeline 0 on layer 0, pipeline 2 on layer
    // 1, pipeline 1 split halfway.
    for p in 0..3u32 {
        for s in 0..12u32 {
            let layer = match p {
                0 => 0,
                1 => u32::from(s >= 6),
                _ => 1,
            };
            cores.push(Core {
                name: format!("p{p}s{s}"),
                width: rng.gen_range(1.0..2.0),
                height: rng.gen_range(1.0..2.0),
                x: 0.0,
                y: 0.0,
                layer,
            });
        }
    }
    // Core indices follow push order above: `stream_in` is 0, `mixer` is 1
    // and stage `s` of pipeline `p` lands at `2 + 12·p + s`.
    const STREAM_IN: usize = 0;
    const MIXER: usize = 1;
    let stage = |p: usize, s: usize| 2 + 12 * p + s;
    let mut flows = Vec::new();
    for p in 0..3usize {
        // Demux from the shared stream input into each pipeline head.
        flows.push(Flow {
            src: STREAM_IN,
            dst: stage(p, 0),
            bandwidth_mbs: 140.0,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        });
        for s in 0..11usize {
            flows.push(Flow {
                src: stage(p, s),
                dst: stage(p, s + 1),
                bandwidth_mbs: 100.0 + 40.0 * f64::from(s as u32 % 2),
                max_latency_cycles: 10.0,
                message_type: MessageType::Request,
            });
        }
        // Pipeline tail into the mixer.
        flows.push(Flow {
            src: stage(p, 11),
            dst: MIXER,
            bandwidth_mbs: 130.0,
            max_latency_cycles: 10.0,
            message_type: MessageType::Request,
        });
    }
    let name = if seed == TVOPD_SEED {
        "D_38_tvopd".to_string()
    } else {
        format!("D_38_tvopd_s{seed}")
    };
    assemble(name, cores, 2, flows, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_total_bandwidth_constant_across_family() {
        let totals: Vec<f64> = [4, 6, 8]
            .iter()
            .map(|&k| distributed(k).comm.total_bandwidth_mbs())
            .collect();
        assert!((totals[0] - totals[1]).abs() < 1e-6, "{totals:?}");
        assert!((totals[1] - totals[2]).abs() < 1e-6, "{totals:?}");
    }

    #[test]
    fn distributed_flow_counts_match_name() {
        for k in [4usize, 6, 8] {
            let b = distributed(k);
            assert_eq!(b.comm.flow_count(), 18 * k);
            // Every processor has exactly k flows, all to memories.
            for p in 0..18usize {
                let flows: Vec<_> =
                    b.comm.flows.iter().filter(|f| f.src == p).collect();
                assert_eq!(flows.len(), k);
                let mut dsts: Vec<usize> = flows.iter().map(|f| f.dst).collect();
                dsts.sort_unstable();
                dsts.dedup();
                assert_eq!(dsts.len(), k, "proc {p} flows must hit distinct memories");
                assert!(dsts.iter().all(|&d| d >= 18));
            }
        }
    }

    #[test]
    fn distributed_stacks_processors_under_memories() {
        let b = distributed(4);
        for c in &b.soc.cores {
            let expect = if c.name.starts_with("proc") { 0 } else { 1 };
            assert_eq!(c.layer, expect, "{}", c.name);
        }
    }

    #[test]
    fn bottleneck_structure() {
        let b = bottleneck();
        assert_eq!(b.soc.core_count(), 35);
        // 16 private pairs (2 flows each) + 16*3 shared = 80 flows.
        assert_eq!(b.comm.flow_count(), 16 * 2 + 16 * 3);
        // Shared memories receive from every processor.
        for s in 0..3usize {
            let inbound =
                b.comm.flows.iter().filter(|f| f.dst == 32 + s).count();
            assert_eq!(inbound, 16, "shared memory {s}");
        }
        // Private traffic outweighs shared traffic per processor.
        let private: f64 = b
            .comm
            .flows
            .iter()
            .filter(|f| f.src == 0 && f.dst == 16)
            .map(|f| f.bandwidth_mbs)
            .sum();
        let shared: f64 = b
            .comm
            .flows
            .iter()
            .filter(|f| f.src == 0 && f.dst >= 32)
            .map(|f| f.bandwidth_mbs)
            .sum();
        assert!(private > shared, "bottleneck: private {private} vs shared {shared}");
    }

    #[test]
    fn pipeline_degree_is_low() {
        let b = pipeline(65);
        assert_eq!(b.soc.core_count(), 65);
        assert_eq!(b.soc.layers, 3);
        for c in 0..65usize {
            let degree = b.comm.flows.iter().filter(|f| f.src == c || f.dst == c).count();
            assert!(degree <= 5, "core {c} has degree {degree}, not a pipeline");
        }
    }

    #[test]
    fn pipeline_traffic_mostly_intra_layer() {
        let b = pipeline(65);
        let inter = b
            .comm
            .flows
            .iter()
            .filter(|f| b.soc.cores[f.src].layer != b.soc.cores[f.dst].layer)
            .count();
        assert!(
            inter * 5 < b.comm.flow_count(),
            "pipeline should be mostly intra-layer: {inter}/{}",
            b.comm.flow_count()
        );
    }

    #[test]
    fn tvopd_has_three_pipelines_through_mixer() {
        let b = tvopd();
        assert_eq!(b.soc.core_count(), 38);
        let mixer = b.soc.core_index("mixer").unwrap();
        assert_eq!(b.comm.flows.iter().filter(|f| f.dst == mixer).count(), 3);
        let src = b.soc.core_index("stream_in").unwrap();
        assert_eq!(b.comm.flows.iter().filter(|f| f.src == src).count(), 3);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(distributed(6), distributed(6));
        assert_eq!(bottleneck(), bottleneck());
        assert_eq!(pipeline(65), pipeline(65));
        assert_eq!(tvopd(), tvopd());
    }

    #[test]
    fn pipeline_roster_is_the_pipeline_before_its_floorplan() {
        let roster = pipeline_roster(50, 9);
        let placed = pipeline_seeded(50, 9);
        assert_eq!((&roster.name, &roster.comm), (&placed.name, &placed.comm));
        assert_eq!(roster.soc.layers, placed.soc.layers);
        for (r, p) in roster.soc.cores.iter().zip(&placed.soc.cores) {
            assert_eq!((&r.name, r.width, r.height, r.layer), (&p.name, p.width, p.height, p.layer));
            assert_eq!((r.x, r.y), (0.0, 0.0), "{}: the roster places no core", r.name);
        }
    }

    #[test]
    #[should_panic(expected = "flows per processor")]
    fn distributed_rejects_zero_flows() {
        let _ = distributed(0);
    }
}
