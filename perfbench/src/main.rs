//! `perfbench`: the compiled half of the `sunfloor3d` benchmark, driven by
//! `run.py`. It writes the workload's spec files and computes the reference
//! outcome every op is checked against (`prepare`), runs the timed closed
//! loop of `sunfloor3d` processes (`ops`), and runs the traced replay
//! (`trace`).
//!
//! ```text
//! perfbench prepare --workload <name> --seed <n> --dir <dir>
//! perfbench ops     --workload <name> --seed <n> --dir <dir> --seconds <s> --cli <sunfloor3d>
//! perfbench trace   --workload <name> --seed <n> --dir <dir> --seconds <s>
//! ```
//!
//! Each prints one JSON object on standard output.

mod calib;
mod check;
mod json;
mod ops;
mod replay;
mod spans;
mod spawn;
mod workload;

use check::{point_violations, Summary};
use json::Json;
use spans::{layer_totals, to_jsonl, Tracer};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sunfloor_core::spec::{CommSpec, SocSpec};
use sunfloor_core::synthesis::{SweepEvent, SynthesisConfig, SynthesisEngine, SynthesisOutcome};
use workload::{cli_config, panel, write_panel, Member, Workload};

/// Every layer the traced replay records, in reporting order. `op` is the
/// op-level glue (validation, graph construction) and `candidate` the
/// per-candidate glue; together with the layers they account for all of a
/// traced op's wall time.
const LAYERS: [&str; 13] = [
    "spec.parse",
    "phase1.seed_chain",
    "phase1.theta",
    "phase2",
    "warmup",
    "paths.route",
    "place.lp",
    "layout.shove",
    "layout.tempered",
    "eval",
    "export",
    "candidate",
    "op",
];

/// Set-up repeats at least this often, and until this much time is spent.
/// A set-up of 50 ms then takes about 30 samples across two seconds of the
/// host's drift; with half a second, its median spread 29% across runs.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    cli: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name} is required"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed expects an unsigned integer")?,
        dir: PathBuf::from(get("--dir")?),
        seconds: flags
            .get("--seconds")
            .map_or(Ok(1.0), |s| s.parse())
            .map_err(|_| "--seconds expects a number")?,
        cli: flags.get("--cli").map(PathBuf::from),
    })
}

/// Reads and parses one member's spec files, as `sunfloor3d` does.
fn load(member: &Member) -> Result<(SocSpec, CommSpec), String> {
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let soc = SocSpec::parse(&read(&member.files.cores)?).map_err(|e| e.to_string())?;
    let comm = CommSpec::parse(&read(&member.files.comm)?, &soc).map_err(|e| e.to_string())?;
    Ok((soc, comm))
}

/// Runs the engine in process and counts the candidates it started.
fn run_engine(
    soc: &SocSpec,
    comm: &CommSpec,
    cfg: SynthesisConfig,
) -> Result<(SynthesisOutcome, u64), String> {
    let engine = SynthesisEngine::new(soc, comm, cfg).map_err(|e| e.to_string())?;
    let mut started = 0u64;
    let outcome = engine.run_with_observer(&mut |e: &SweepEvent| {
        if matches!(e, SweepEvent::CandidateStarted { .. }) {
            started += 1;
        }
    });
    Ok((outcome, started))
}

/// One member's reference: the engine outcome on the parsed spec files.
struct Reference {
    soc: SocSpec,
    comm: CommSpec,
    cfg: SynthesisConfig,
    outcome: SynthesisOutcome,
    summary: Summary,
}

fn reference(member: &Member) -> Result<Reference, String> {
    let (soc, comm) = load(member)?;
    let cfg = cli_config(&member.args, None)?;
    let (outcome, started) = run_engine(&soc, &comm, cfg.clone())?;
    let summary = Summary::of(&outcome, started);
    Ok(Reference {
        soc,
        comm,
        cfg,
        outcome,
        summary,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Writes the panel's spec files repeatedly, running the reference op
/// after each repetition. Returns the repetitions' times and the reference
/// op's.
fn setup(args: &Args, members: &[Member]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut times, mut calib_times) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        write_panel(args.workload, members).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        calib_times.push(calib::measure(1).map_err(|e| e.to_string())?.0);
    }
    Ok((times, calib_times))
}

/// `prepare`: set up the panel, compute each member's reference outcome,
/// check its accepted points from outside, and check once that the other
/// worker count gives the identical outcome.
fn prepare(args: &Args) -> Result<Json, String> {
    let members = panel(args.workload, args.seed, &args.dir);
    let (mut times, mut calib_times) = setup(args, &members)?;
    let setup_raw_s = median(&mut times);
    let setup_s = setup_raw_s * calib::REFERENCE_S / median(&mut calib_times);
    let mut member_json = Vec::new();
    let mut first: Option<Reference> = None;
    for m in &members {
        let r = reference(m)?;
        let violations = point_violations(&r.outcome.points, &r.soc, &r.comm, &r.cfg);
        member_json.push(Json::obj([
            ("seed", Json::Int(m.seed)),
            ("args", Json::Arr(m.args.iter().map(Json::str).collect())),
            ("max_ill", Json::Int(u64::from(r.cfg.max_ill))),
            ("summary", r.summary.to_json()),
            (
                "violations",
                Json::Arr(violations.into_iter().map(Json::Str).collect()),
            ),
        ]));
        first.get_or_insert(r);
    }
    let r = first.ok_or("empty panel")?;
    let other_jobs = if r.cfg.parallelism.effective_jobs() > 1 {
        1
    } else {
        2
    };
    let cfg = cli_config(&members[0].args, Some(other_jobs))?;
    let (other, _) = run_engine(&r.soc, &r.comm, cfg)?;
    Ok(Json::obj([
        ("setup_s", Json::Num(setup_s)),
        ("setup_raw_s", Json::Num(setup_raw_s)),
        ("setup_reps", Json::Int(times.len() as u64)),
        ("members", Json::Arr(member_json)),
        (
            "jobs_check",
            Json::obj([
                (
                    "jobs",
                    Json::Arr(vec![
                        Json::Int(r.cfg.parallelism.effective_jobs() as u64),
                        Json::Int(other_jobs as u64),
                    ]),
                ),
                ("identical", Json::Bool(other == r.outcome)),
            ]),
        ),
    ]))
}

/// `ops`: the timed closed loop over the panel `prepare` wrote. Each op's
/// record goes to `ops.jsonl` in the work directory.
fn ops(args: &Args) -> Result<Json, String> {
    let cli = args.cli.as_deref().ok_or("--cli is required")?;
    let members = panel(args.workload, args.seed, &args.dir);
    let records = args.dir.join("ops.jsonl");
    let threads = args.workload.threads();
    let n = ops::closed_loop(cli, &members, threads, &args.dir, args.seconds, &records)
        .map_err(|e| e.to_string())?;
    Ok(Json::obj([
        ("ops", Json::Int(n)),
        ("records", Json::str(records.display().to_string())),
        ("calib_reference_s", Json::Num(calib::REFERENCE_S)),
        ("calib_threads", Json::Int(threads as u64)),
    ]))
}

/// What differs between a replay and the engine's outcome, if anything.
fn replay_mismatch(replayed: &SynthesisOutcome, outcome: &SynthesisOutcome) -> Option<String> {
    if replayed.points.len() != outcome.points.len() {
        return Some(format!(
            "{} points replayed, engine accepted {}",
            replayed.points.len(),
            outcome.points.len()
        ));
    }
    if let Some(i) = (0..replayed.points.len()).find(|&i| replayed.points[i] != outcome.points[i]) {
        let (a, b) = (&replayed.points[i], &outcome.points[i]);
        return Some(format!(
            "point {i}: replay {} switches {} mW, engine {} switches {} mW",
            a.requested_switches,
            a.metrics.power.total_mw(),
            b.requested_switches,
            b.metrics.power.total_mw()
        ));
    }
    (replayed.rejected != outcome.rejected).then(|| {
        format!(
            "{} attempts rejected in the replay, {} by the engine",
            replayed.rejected.len(),
            outcome.rejected.len()
        )
    })
}

/// Per-member accumulation of the traced loop.
#[derive(Default)]
struct MemberTrace {
    traced_ops: u64,
    /// Wall time of the traced ops, measured around the call.
    traced_s: f64,
    /// Wall time of the traced ops' root spans.
    root_s: f64,
    /// Wall time of the warm-up spans, children included.
    warmup_s: f64,
    untraced_s: f64,
    totals: BTreeMap<&'static str, spans::LayerTotals>,
}

/// `trace`: replay ops with spans for `--seconds`, alternating each traced
/// op with an untraced one on the same design, and reduce the spans per
/// layer. Fails the run when the replay's points differ from the engine's.
fn trace(args: &Args) -> Result<Json, String> {
    let members = panel(args.workload, args.seed, &args.dir);
    write_panel(args.workload, &members).map_err(|e| e.to_string())?;
    let refs: Vec<Reference> = members.iter().map(reference).collect::<Result<_, _>>()?;
    let out_dir = args.dir.join("trace-out");

    let mut mismatches: Vec<String> = Vec::new();
    let mut per_member: Vec<MemberTrace> = members.iter().map(|_| MemberTrace::default()).collect();
    let mut tracer = Tracer::recording();
    let mut untraced = Tracer::disabled();
    let mut op_id = 0u32;
    let started = Instant::now();
    // At least one full pass over the panel, then until the time is up.
    while op_id < members.len() as u32 || started.elapsed().as_secs_f64() < args.seconds {
        let i = op_id as usize % members.len();
        let (m, r) = (&members[i], &refs[i]);
        tracer.set_op(op_id);
        let t = Instant::now();
        let replayed =
            replay::traced_op(&m.files.cores, &m.files.comm, &r.cfg, &out_dir, &mut tracer)?;
        let traced_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let plain = replay::traced_op(
            &m.files.cores,
            &m.files.comm,
            &r.cfg,
            &out_dir,
            &mut untraced,
        )?;
        let untraced_s = t.elapsed().as_secs_f64();
        for (what, got) in [("traced", &replayed), ("untraced", &plain)] {
            if let Some(why) = replay_mismatch(got, &r.outcome) {
                mismatches.push(format!("member {} ({what} op {op_id}): {why}", m.seed));
            }
        }
        let acc = &mut per_member[i];
        acc.traced_ops += 1;
        acc.traced_s += traced_s;
        acc.untraced_s += untraced_s;
        op_id += 1;
    }
    for span in tracer.spans() {
        let acc = &mut per_member[span.op as usize % members.len()];
        let duration = (span.end_ns - span.start_ns) as f64 * 1e-9;
        if span.parent.is_none() {
            acc.root_s += duration;
        } else if span.name == "warmup" {
            acc.warmup_s += duration;
        }
    }
    for ((op, name), t) in layer_totals(tracer.spans()) {
        let sum = per_member[op as usize % members.len()]
            .totals
            .entry(name)
            .or_default();
        sum.self_s += t.self_s;
        sum.calls += t.calls;
        sum.failed += t.failed;
    }
    let spans_path = args.dir.join("spans.jsonl");
    fs::write(&spans_path, to_jsonl(tracer.spans())).map_err(|e| e.to_string())?;

    // Per-op means per member, then averaged over the panel.
    let k = members.len() as f64;
    let mean = |f: &dyn Fn(&MemberTrace) -> f64| per_member.iter().map(f).sum::<f64>() / k;
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut metric = |name: String, value: f64, unit: &str| {
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    };
    let mut layer_sum = 0.0;
    for layer in LAYERS {
        let get = |m: &MemberTrace| m.totals.get(layer).copied().unwrap_or_default();
        let self_s = mean(&|m| get(m).self_s / m.traced_ops as f64);
        layer_sum += self_s;
        metric(format!("{layer}.self_s"), self_s, "s");
        metric(
            format!("{layer}.calls"),
            mean(&|m| get(m).calls as f64 / m.traced_ops as f64),
            "count",
        );
        metric(
            format!("{layer}.failed"),
            mean(&|m| get(m).failed as f64 / m.traced_ops as f64),
            "count",
        );
    }
    let op_s = mean(&|m| m.root_s / m.traced_ops as f64);
    let route = |m: &MemberTrace| m.totals.get("paths.route").copied().unwrap_or_default();
    let (route_failed, route_calls) = per_member.iter().fold((0, 0), |(f, c), m| {
        (f + route(m).failed, c + route(m).calls)
    });
    let points: u64 = refs.iter().map(|r| r.summary.feasible).sum();
    let attempts: u64 = refs
        .iter()
        .map(|r| r.summary.feasible + r.summary.rejected)
        .sum();
    metric("trace.op_s".into(), op_s, "s");
    metric(
        "warmup.total_s".into(),
        mean(&|m| m.warmup_s / m.traced_ops as f64),
        "s",
    );
    metric(
        "trace.overhead_ratio".into(),
        per_member.iter().map(|m| m.traced_s).sum::<f64>()
            / per_member.iter().map(|m| m.untraced_s).sum::<f64>(),
        "ratio",
    );
    metric(
        "sweep.accept_ratio".into(),
        points as f64 / attempts.max(1) as f64,
        "ratio",
    );
    metric(
        "paths.route.fail_ratio".into(),
        route_failed as f64 / route_calls.max(1) as f64,
        "ratio",
    );
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in &refs {
        for &(name, v) in &r.summary.counters {
            *counters.entry(name).or_default() += v;
        }
    }
    for (name, v) in &counters {
        metric((*name).to_string(), *v as f64, "count");
    }

    // The layers' self times must account for the whole traced op.
    if (layer_sum - op_s).abs() > 1e-9 * op_s.max(1.0) {
        mismatches.push(format!(
            "layer self times sum to {layer_sum} s, traced ops take {op_s} s"
        ));
    }
    let ops: u64 = per_member.iter().map(|m| m.traced_ops).sum();
    Ok(Json::obj([
        ("ops", Json::Int(ops)),
        ("replay_matches", Json::Bool(mismatches.is_empty())),
        (
            "mismatches",
            Json::Arr(mismatches.into_iter().map(Json::Str).collect()),
        ),
        ("spans_file", Json::str(spans_path.display().to_string())),
        (
            "counters",
            Json::obj(counters.iter().map(|(k, v)| (*k, Json::Int(*v)))),
        ),
        ("quality", quality_json(&refs)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// The deterministic quality figures of a panel, for the repeat check.
fn quality_json(refs: &[Reference]) -> Json {
    Json::Arr(
        refs.iter()
            .map(|r| {
                Json::obj([
                    ("feasible", Json::Int(r.summary.feasible)),
                    ("best_power_mw", Json::Num(r.summary.best_power_mw)),
                    ("best_latency_cyc", Json::Num(r.summary.best_latency_cyc)),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("reference-op") {
        calib::reference_op(argv.get(1).and_then(|t| t.parse().ok()).unwrap_or(1));
        return ExitCode::SUCCESS;
    }
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench <prepare|ops|trace> --workload <name> --seed <n> --dir <dir> [--seconds <s>] [--cli <path>]");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|args| {
        fs::create_dir_all(&args.dir).map_err(|e| e.to_string())?;
        match cmd.as_str() {
            "prepare" => prepare(&args),
            "ops" => ops(&args),
            "trace" => trace(&args),
            other => Err(format!("unknown subcommand `{other}`")),
        }
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_engine_on_a_small_design() {
        let bench = sunfloor_benchmarks::pipeline_seeded(12, 5);
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let files = workload::SpecFiles::in_dir(&dir);
        files.write(&bench).unwrap();
        // A tight vertical-link budget forces θ escalations and rejections
        // besides the accepted points; the second config runs the tempered
        // layout path on a parallel sweep.
        for (flags, rejects) in [
            (
                &["--max-ill", "3", "--switches", "1..8", "--seed", "4"][..],
                true,
            ),
            (
                &[
                    "--anneal-replicas",
                    "2",
                    "--jobs",
                    "2",
                    "--switches",
                    "2..5",
                ][..],
                false,
            ),
        ] {
            let flags: Vec<String> = flags.iter().map(ToString::to_string).collect();
            let cfg = cli_config(&files.cli_args(&flags), None).unwrap();
            let (outcome, _) = run_engine(&bench.soc, &bench.comm, cfg.clone()).unwrap();
            assert!(!outcome.points.is_empty(), "{flags:?}");
            assert_eq!(!outcome.rejected.is_empty(), rejects, "{flags:?}");
            let mut tracer = Tracer::recording();
            let replayed = replay::traced_op(
                &files.cores,
                &files.comm,
                &cfg,
                &dir.join("out"),
                &mut tracer,
            )
            .unwrap();
            assert_eq!(replay_mismatch(&replayed, &outcome), None, "{flags:?}");
            assert!(dir.join("out/topology.dot").exists());
            let totals = layer_totals(tracer.spans());
            assert_eq!(totals[&(0, "op")].calls, 1);
            assert!(
                totals.keys().all(|(_, k)| LAYERS.contains(k)),
                "{:?}",
                totals.keys()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replay_that_drops_a_point_is_reported() {
        let bench = sunfloor_benchmarks::pipeline_seeded(10, 2);
        let cfg = SynthesisConfig::builder()
            .switch_count_range(2, 4)
            .run_layout(false)
            .build()
            .unwrap();
        let (outcome, _) = run_engine(&bench.soc, &bench.comm, cfg).unwrap();
        let mut replayed = SynthesisOutcome {
            points: outcome.points.clone(),
            rejected: outcome.rejected.clone(),
            ..SynthesisOutcome::default()
        };
        assert_eq!(replay_mismatch(&replayed, &outcome), None);
        replayed.points.pop();
        assert!(replay_mismatch(&replayed, &outcome).is_some());
    }
}
