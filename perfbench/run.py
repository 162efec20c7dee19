#!/usr/bin/env python3
"""Cold end-to-end benchmark of the `sunfloor3d` tool.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds `sunfloor3d` and the
`perfbench` harness from source (into $CARGO_TARGET_DIR, default
`.bench_build`), writes the workload's spec files, and then either

* `--trace 0`: runs cold `sunfloor3d` processes as a closed loop (one client;
  the next op starts when the previous one exits) for `--seconds`, checks
  every op's output against an in-process engine run, and prints the
  end-to-end metrics (the loop itself runs in the small `perfbench ops`
  process, so each op's peak memory is its own); or
* `--trace 1`: runs the harness's traced replay for `--seconds` and prints
  the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it stamps
the environment. See README.md in this directory for the metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("media26", "dense36", "pipe128", "tempered")
# A timing percentile is reported as credible only with this many samples
# beyond it.
SAMPLES_BEYOND = 10
# The tail is taken relative to the ops around each op, this many on each
# side. The host's speed drifts over seconds, and op times follow it (their
# lag-1 autocorrelation is 0.6-0.8 on 2 vCPUs); a slow phase of a second
# then passes for tail latency and moves p90 by 15-30% between runs.
NEIGHBOURS = 8
BUILD_TIMEOUT_S = 850.0
HARNESS_TIMEOUT_S = 150.0


class BenchError(Exception):
    """A failure that stops the run without a result."""


# --- statistics ---------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q < 1) of `values`, and how many
    samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_quantile(n):
    """The tail percentile reported for `n` samples: p90 when it has
    SAMPLES_BEYOND samples beyond it, otherwise the highest percentile that
    does, and never less than the median."""
    return min(0.9, max(0.5, 1.0 - SAMPLES_BEYOND / n))


def detrended(values, width=NEIGHBOURS):
    """Each value of a time series divided by the median of the up to
    `width` values on either side of it, itself excluded: what is left is
    op-to-op variation, with slow drift divided out."""
    out = []
    for i, x in enumerate(values):
        around = values[max(0, i - width):i] + values[i + 1:i + 1 + width]
        out.append(x / statistics.median(around) if around else 1.0)
    return out


# --- report parsing and op checks ---------------------------------------

HEADER = re.compile(
    r"^(\d+) cores, (\d+) layers, (\d+) flows \S+ (\d+) feasible points, (\d+) rejected$"
)
PARTITION = re.compile(
    r"^partition cache: \d+ hits \(\d+ base lookups, (\d+) warm-started\), (\d+) cold, "
    r"(\d+) in-place SPG derivations$"
)
LP = re.compile(
    r"^placement LP: \d+ axis solves \((\d+) warm-started, (\d+) cold\), (\d+) simplex pivots, "
    r"~(\d+) pivots saved$"
)
TEMPERED = re.compile(r"^tempered layout: (\d+) anneals, (\d+) replica swaps attempted")
TABLE_HEAD = "switches  total_mW  latency_cyc  max_ill"


def parse_report(text):
    """Parses a `sunfloor3d` report into its header counts, the trade-off
    table and the counter lines."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty report")
    head = HEADER.match(lines[0])
    if not head:
        raise ValueError(f"unexpected header: {lines[0]!r}")
    report = {
        "cores": int(head[1]),
        "feasible": int(head[4]),
        "rejected": int(head[5]),
        "rows": [],
        "counters": {},
    }
    counters = report["counters"]
    in_table = False
    for line in lines[1:]:
        if in_table:
            if not line.strip():
                break
            switches, power, latency, ill = line.split()
            report["rows"].append((int(switches), float(power), float(latency), int(ill)))
        elif line == TABLE_HEAD:
            in_table = True
        elif m := PARTITION.match(line):
            counters.update(zip(("partition.warm", "partition.cold", "partition.spg_derivations"), map(int, m.groups())))
        elif m := LP.match(line):
            counters.update(zip(("lp.warm_solves", "lp.cold_solves", "lp.pivots", "lp.pivots_saved"), map(int, m.groups())))
        elif m := TEMPERED.match(line):
            counters.update(zip(("anneal.runs", "anneal.swap_attempts"), map(int, m.groups())))
    if not in_table:
        raise ValueError("no trade-off table")
    return report


def check_op(status, stdout, artifacts_ok, expected):
    """Every way one op's output disagrees with the member's reference
    outcome (`expected`, from the harness's `prepare`); empty when correct.
    `artifacts_ok` says whether the op wrote its three artifacts, with
    `report.txt` matching what it printed."""
    if status != 0:
        return [f"exit status {status}"]
    try:
        report = parse_report(stdout)
    except ValueError as e:
        return [f"unparseable report: {e}"]
    summary = expected["summary"]
    errors = []
    if report["feasible"] != summary["feasible"] or len(report["rows"]) != summary["feasible"]:
        errors.append(f"{report['feasible']} feasible points, expected {summary['feasible']}")
    if report["rejected"] != summary["rejected"]:
        errors.append(f"{report['rejected']} rejected, expected {summary['rejected']}")
    if report["rows"]:
        best_power = min(r[1] for r in report["rows"])
        best_latency = min(r[2] for r in report["rows"])
        if abs(best_power - summary["best_power_mw"]) > 0.05 + 1e-9:
            errors.append(f"best power {best_power} mW, expected {summary['best_power_mw']}")
        if abs(best_latency - summary["best_latency_cyc"]) > 0.005 + 1e-9:
            errors.append(f"best latency {best_latency}, expected {summary['best_latency_cyc']}")
        if any(r[3] > expected["max_ill"] for r in report["rows"]):
            errors.append("a point exceeds max_ill")
    for name, got in report["counters"].items():
        if got != summary["counters"][name]:
            errors.append(f"{name} {got}, expected {summary['counters'][name]}")
    for name in ("partition.warm", "lp.warm_solves", "anneal.runs"):
        if summary["counters"][name] and name not in report["counters"]:
            errors.append(f"report lacks {name}")
    if summary["feasible"] and not artifacts_ok:
        errors.append("artifacts missing or report.txt differs from the printed report")
    return errors


# --- environment and set-up ----------------------------------------------


def source_digest():
    """SHA-256 over the program's and the benchmark's sources and
    manifests, standing in for the commit when the checkout is not a git
    repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    files += sorted(p for p in HERE.rglob("*") if p.is_file() and "target" not in p.parts and p.suffix in (".rs", ".toml", ".lock", ".py"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def build():
    """Builds `sunfloor3d` and the harness; returns their paths."""
    if not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        raise BenchError(f"no sunfloor3d sources under {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "sunfloor-cli", "--bin", "sunfloor3d"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "sunfloor3d", target / "release" / "perfbench"


def harness(binary, command, workload, seed, work, *extra):
    """Runs one `perfbench` subcommand in a session of its own, so that on
    a timeout every process it started is killed with it."""
    cmd = [str(binary), command, "--workload", workload, "--seed", str(seed), "--dir", str(work)]
    proc = subprocess.Popen(
        [*cmd, *map(str, extra)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"perfbench {command} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"perfbench {command} failed: {err.strip()}")
    return json.loads(out)


def repeat_check(workload, seed, digest, record):
    """Stores the run's exact counts on first sight of this workload, seed
    and source digest, and afterwards checks that they repeat exactly."""
    state = ROOT / ".perfbench_state"
    state.mkdir(exist_ok=True)
    path = state / f"{workload}-{seed}-{digest[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text()) == record
    path.write_text(json.dumps(record, sort_keys=True))
    return True


# --- the two kinds of run -------------------------------------------------


def mean(values):
    return sum(values) / len(values)


def timed_run(tool, cli, prep, args, work):
    """The closed loop of cold `sunfloor3d` ops over the panel's designs,
    each op checked against its design's reference outcome."""
    members = prep["members"]
    done = harness(tool, "ops", args.workload, args.seed, work, "--seconds", args.seconds, "--cli", cli)
    with open(done["records"]) as records:
        records = [json.loads(line) for line in records]
    ops = done["ops"]
    if ops != len(records):
        raise BenchError("op records are incomplete")
    walls = [[] for _ in members]
    cpus = [[] for _ in members]
    rss = [[] for _ in members]
    failures = []
    for i, op in enumerate(records):
        k = op["member"]
        errors = check_op(op["exit"], op["stdout"], op["artifacts"], members[k])
        if errors:
            failures.append(f"op {i} (member {members[k]['seed']}): {'; '.join(errors)}")
        walls[k].append(op["wall_s"])
        cpus[k].append(op["cpu_s"])
        rss[k].append(op["rss_kb"] / 1024.0)
    # Times are scaled to the reference machine speed: wall time by the
    # reference op's wall time over the run, CPU time by its CPU time per
    # thread.
    reference = done["calib_reference_s"]
    calib_wall = statistics.median(op["calib_wall_s"] for op in records)
    calib_cpu = statistics.median(op["calib_cpu_s"] for op in records) / done["calib_threads"]

    medians = [statistics.median(w) for w in walls]
    raw_p50 = mean(medians)
    p50 = raw_p50 * reference / calib_wall
    # The tail pools every op, each scaled by its design's median, so the
    # panel's mix of designs does not pass for tail latency, and taken in
    # op order relative to its neighbours, so the host's drift does not.
    scaled = detrended([op["wall_s"] / medians[op["member"]] for op in records])
    q = tail_quantile(len(scaled))
    tail, beyond = percentile(scaled, q)
    summaries = [m["summary"] for m in members]
    metrics = {
        "synth_p50_s": (p50, "s"),
        "synth_p90_s": (tail * p50, "s"),
        "cpu_p50_s": (mean([statistics.median(c) for c in cpus]) * reference / calib_cpu, "s"),
        "peak_rss_mb": (mean([statistics.median(r) for r in rss]), "MB"),
        "setup_s": (prep["setup_s"], "s"),
        "feasible_points": (mean([s["feasible"] for s in summaries]), "count"),
        "best_power_mw": (mean([s["best_power_mw"] for s in summaries]), "mW"),
        "best_latency_cyc": (mean([s["best_latency_cyc"] for s in summaries]), "cycles"),
        "op_success_ratio": ((ops - len(failures)) / ops, "ratio"),
    }
    info = {
        "ops": ops,
        "tail_quantile": q,
        "tail_samples_beyond": beyond,
        "raw_synth_p50_s": raw_p50,
        "raw_setup_s": prep["setup_raw_s"],
        "reference_op_wall_s": calib_wall,
        "reference_op_cpu_s": calib_cpu,
        "reference_op_nominal_s": reference,
    }
    return metrics, ops, failures, info


def counts_record(summaries):
    counters = {}
    for s in summaries:
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
    quality = [[s["feasible"], s["best_power_mw"], s["best_latency_cyc"]] for s in summaries]
    return {"counters": counters, "quality": quality}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    load_at_start = os.getloadavg()[0]
    try:
        cli, tool = build()
        digest = source_digest()
        work = ROOT / ".perfbench_work" / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        problems = []
        if args.trace:
            traced = harness(tool, "trace", args.workload, args.seed, work, "--seconds", args.seconds)
            metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
            attempted = traced["ops"]
            problems += traced["mismatches"]
            failed = min(attempted, len(traced["mismatches"]))
            record = {"counters": traced["counters"], "quality": [[q["feasible"], q["best_power_mw"], q["best_latency_cyc"]] for q in traced["quality"]]}
            info = {"ops": attempted, "replay_matches": traced["replay_matches"], "spans_file": traced["spans_file"]}
        else:
            prep = harness(tool, "prepare", args.workload, args.seed, work)
            for m in prep["members"]:
                problems += [f"member {m['seed']}: {v}" for v in m["violations"]]
            if not prep["jobs_check"]["identical"]:
                problems.append(f"outcomes differ between --jobs {prep['jobs_check']['jobs']}")
            metrics, attempted, failures, info = timed_run(tool, cli, prep, args, work)
            failed = len(failures)
            problems += failures
            record = counts_record([m["summary"] for m in prep["members"]])
        if not repeat_check(args.workload, args.seed, digest, record):
            problems.append("outcome counters or quality figures differ from an earlier run of this seed")
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "git_commit": git_commit(),
        "source_sha256": digest,
        **info,
    }
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
