//! The timed closed loop of cold `sunfloor3d` processes.
//!
//! One client: the next op starts when the previous one has exited. Each
//! op's wall time is taken around spawn and reap, and its CPU time and peak
//! resident memory come from the kernel's accounting of that one child. The
//! loop runs in a small process of its own because Linux folds the spawning
//! process's memory high-water mark into the child's peak; a large parent
//! would hide the op's own. The reference op of [`crate::calib`] runs after
//! every op, so the records carry the machine speed all along the loop.

use crate::calib;
use crate::json::Json;
use crate::spawn::timed;
use crate::workload::Member;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Whether the op left all three artifacts, with `report.txt` a prefix of
/// what it printed.
fn artifacts_ok(out: &Path, stdout: &str) -> bool {
    let nonempty = |name: &str| fs::metadata(out.join(name)).is_ok_and(|m| m.len() > 0);
    nonempty("topology.dot")
        && nonempty("floorplan.svg")
        && fs::read_to_string(out.join("report.txt"))
            .is_ok_and(|r| !r.is_empty() && stdout.starts_with(&r))
}

/// Runs ops round-robin over `members` — one full pass at least, then
/// until `seconds` have passed — writing one JSON line per op to
/// `records`. The reference op runs on `threads` threads, as many as an op
/// keeps busy. Returns the number of ops.
///
/// # Errors
///
/// Propagates spawn, wait and file-system errors.
pub fn closed_loop(
    cli: &Path,
    members: &[Member],
    threads: usize,
    dir: &Path,
    seconds: f64,
    records: &Path,
) -> io::Result<u64> {
    let out_dir = dir.join("out");
    let stdout_path = dir.join("op.stdout");
    let mut log = BufWriter::new(File::create(records)?);
    let started = Instant::now();
    let mut op = 0u64;
    while op < members.len() as u64 || started.elapsed().as_secs_f64() < seconds {
        let k = (op % members.len() as u64) as usize;
        if out_dir.exists() {
            fs::remove_dir_all(&out_dir)?;
        }
        let stdout = File::create(&stdout_path)?;
        let (wall_s, reaped) = timed(
            Command::new(cli)
                .args(&members[k].args)
                .arg("--out")
                .arg(&out_dir)
                .stdin(Stdio::null())
                .stdout(stdout)
                .stderr(Stdio::null()),
        )?;
        let (calib_wall_s, calib) = calib::measure(threads)?;
        let text = fs::read_to_string(&stdout_path)?;
        let record = Json::obj([
            ("member", Json::Int(k as u64)),
            ("wall_s", Json::Num(wall_s)),
            ("cpu_s", Json::Num(reaped.cpu_s)),
            (
                "rss_kb",
                Json::Int(u64::try_from(reaped.maxrss_kb).unwrap_or(0)),
            ),
            ("calib_wall_s", Json::Num(calib_wall_s)),
            ("calib_cpu_s", Json::Num(calib.cpu_s)),
            ("exit", Json::Int(u64::try_from(reaped.code).unwrap_or(255))),
            ("artifacts", Json::Bool(artifacts_ok(&out_dir, &text))),
            ("stdout", Json::Str(text)),
        ]);
        writeln!(log, "{record}")?;
        op += 1;
    }
    log.flush()?;
    Ok(op)
}
