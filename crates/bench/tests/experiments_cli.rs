//! The `experiments` binary's command line.

use std::process::Command;

/// A flag the binary does not know fails with the usage line, before any
/// experiment runs, instead of being ignored.
#[test]
fn unknown_flags_fail_with_the_usage_line() {
    for flag in ["--gate", "--gate-tolerance=0.30", "--full"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig1", "--quick", flag])
            .output()
            .expect("the experiments binary runs");
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{flag}: {stderr}");
        assert!(stderr.contains("usage: experiments <id>... [--quick]"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: an experiment ran");
    }
}
