//! The reference op: a fixed short process timed next to the measured
//! steps, so that their times can be scaled to a reference machine speed.
//!
//! On a shared virtual machine the speed of a core drifts by a factor of
//! up to two over minutes as neighbours load the host, and an op also
//! loses wall time to the host in ways its own CPU time does not show. The
//! reference op is part of the benchmark, not of the program under test,
//! so no change to the program moves it. It is spawned the way an op is,
//! faults in fresh memory and computes, so it slows down the way an op
//! does. A scaled time reads "seconds on a machine where the reference op
//! takes [`REFERENCE_S`]".

use crate::spawn::{timed, Reaped};
use std::hint::black_box;
use std::io;
use std::process::{Command, Stdio};

/// The reference op's time on the reference machine, seconds.
pub const REFERENCE_S: f64 = 0.008;

/// Bytes of fresh memory the reference op touches, about what a media26
/// op's heap grows to.
const PAGES_BYTES: usize = 8 << 20;
const KEYS: usize = 1 << 16;
const DIM: usize = 96;

/// The body of the reference op on `threads` threads at once, so that a
/// workload whose ops run two threads is scaled by what two threads get.
pub fn reference_op(threads: usize) {
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(reference_work);
        }
        reference_work();
    });
}

/// One thread's reference work: fault in fresh memory, sort a key array
/// (branchy, cache-resident work) and eliminate a dense matrix
/// (floating-point loops) — the kinds of work partitioning, routing and
/// the placement LP do.
fn reference_work() {
    let mut pages = vec![0u8; PAGES_BYTES];
    for i in (0..pages.len()).step_by(4096) {
        pages[i] = 1;
    }
    let mut keys = vec![0u64; KEYS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for k in &mut keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    keys.sort_unstable();
    let mut m: Vec<f64> = (0..DIM * DIM)
        .map(|i| (i * 7 % 13) as f64 * 0.5 + 1.0)
        .collect();
    for k in 0..DIM {
        let pivot = m[k * DIM + k];
        for i in (0..DIM).filter(|&i| i != k) {
            let f = m[i * DIM + k] / pivot * 1e-3;
            for j in 0..DIM {
                m[i * DIM + j] -= f * m[k * DIM + j];
            }
        }
    }
    black_box((&pages, &keys, &m));
}

/// Runs the reference op on `threads` threads as a child of this process
/// (the `reference-op` subcommand of the current executable) and returns
/// its wall time and resource use.
///
/// # Errors
///
/// Propagates spawn and wait errors, and a reference op that fails.
pub fn measure(threads: usize) -> io::Result<(f64, Reaped)> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .arg("reference-op")
        .arg(threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    let (wall, reaped) = timed(&mut command)?;
    if reaped.code != 0 {
        return Err(io::Error::other(format!(
            "reference op exited with {}",
            reaped.code
        )));
    }
    Ok((wall, reaped))
}
