//! Spawning a child and reaping it with the kernel's accounting of its
//! resource use (`wait4`), which the standard library does not expose.

use std::io;
use std::process::Command;
use std::time::Instant;

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended, with its resource use.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit code, or 128 + signal number when killed by a signal.
    pub code: i32,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident memory, KiB. Linux folds the parent's high-water mark
    /// into this at exec, so it is the child's own only when the parent is
    /// smaller.
    pub maxrss_kb: i64,
}

/// Reaps `pid` and returns its exit code and resource use.
fn reap(pid: u32) -> io::Result<Reaped> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals whose layouts match the C `int` and the 64-bit Linux
        // `struct rusage` that wait4 writes; `pid` is our own unreaped child.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Reaped {
        code,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        maxrss_kb: usage.maxrss,
    })
}

/// Spawns `command`, waits for it, and returns its wall time — from just
/// before the spawn to just after the reap — with its exit and resource use.
///
/// # Errors
///
/// Propagates spawn and wait errors.
pub fn timed(command: &mut Command) -> io::Result<(f64, Reaped)> {
    let t = Instant::now();
    let child = command.spawn()?;
    let reaped = reap(child.id())?;
    Ok((t.elapsed().as_secs_f64(), reaped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaps_exit_codes_and_cpu_time() {
        let (wall, ok) = timed(
            Command::new("sh").args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"]),
        )
        .unwrap();
        assert_eq!(ok.code, 0);
        assert!(
            ok.cpu_s > 0.0 && ok.cpu_s <= wall + 0.01,
            "{ok:?} in {wall} s"
        );
        assert!(ok.maxrss_kb > 0);
        let (_, failed) = timed(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert_eq!(failed.code, 3);
        let (_, killed) = timed(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert_eq!(killed.code, 128 + 9);
    }
}
