//! Regenerates the tables and figures of the SunFloor 3D evaluation.
//!
//! ```text
//! experiments <id>... [--quick]
//! experiments all
//! experiments list
//! ```
//!
//! Output: aligned tables on stdout plus CSV/text files under
//! `target/experiments/`. Any flag other than `--quick` is an error: the
//! usage line goes to stderr and the exit status is non-zero.

use std::path::PathBuf;
use std::process::ExitCode;
use sunfloor_bench::{experiments, Effort};

const USAGE: &str = "usage: experiments <id>... [--quick]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, ids): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    if let Some(flag) = flags.iter().find(|&&f| f != "--quick") {
        eprintln!("unknown flag `{flag}`");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    if ids.is_empty() || ids.contains(&"list") {
        eprintln!("{USAGE}");
        eprintln!("ids: all {}", experiments::ALL_IDS.join(" "));
        return if ids.contains(&"list") { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let effort = if flags.is_empty() { Effort::Full } else { Effort::Quick };
    let out_dir = PathBuf::from("target/experiments");
    let mut failures = 0;

    // Expand `all` into one pass per experiment family so artifacts stream
    // out as each family completes (the media figures share one sweep).
    let ids: Vec<&str> = if ids.contains(&"all") {
        vec!["fig1", "media", "tab1", "fig17", "ill", "fig23", "fig18", "floorplans", "runtime"]
    } else {
        ids
    };

    for id in ids {
        let artifacts = experiments::run(id, effort);
        if artifacts.is_empty() {
            eprintln!("unknown experiment id `{id}` (try `experiments list`)");
            failures += 1;
            continue;
        }
        for artifact in artifacts {
            println!("{}", artifact.render());
            if let Err(e) = artifact.write_to(&out_dir) {
                eprintln!("warning: could not write {}: {e}", artifact.id());
            }
        }
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
