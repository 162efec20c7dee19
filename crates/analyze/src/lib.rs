//! `sunfloor-analyze` — the workspace's determinism & hot-path lint pass.
//!
//! The engine's headline guarantee — serial and parallel sweeps are
//! bit-for-bit identical — used to rest on convention. This crate turns the
//! conventions into enforced rules: a dependency-free, hand-rolled Rust
//! lexer ([`lexer`]), a workspace symbol table and call graph
//! ([`symbols`], [`callgraph`]), a rule engine ([`rules`]) with six rules,
//! inline `// sf-allow(rule): reason` suppressions that *require* a reason
//! ([`source`]), and a committed ratchet baseline (`lint-baseline.json`,
//! [`baseline`]) that freezes pre-existing debt so only new findings fail —
//! and fails when the frozen budget goes stale (self-tightening).
//!
//! The rules:
//!
//! | rule | scope | what it catches |
//! |------|-------|-----------------|
//! | `det-hash-iter` | deterministic crates | `HashMap`/`HashSet` (nondeterministic iteration order), `BinaryHeap` (unspecified order of equal elements) |
//! | `float-partial-cmp` | everywhere | `partial_cmp(…).unwrap()` instead of `total_cmp` |
//! | `nondet-source` | deterministic crates | `Instant::now`, `SystemTime::now`, `thread_rng`, env reads |
//! | `panic-in-lib` | non-test code, ratcheted | `unwrap()`/`expect(…)`/`panic!` |
//! | `hot-path-alloc` | `// sf: hot-path` fenced fns + transitive callees | `Vec::new`, `vec!`, `collect`, `clone`, `format!`, `Box::new` |
//! | `hot-path-panic` | fenced fns + transitive callees | `unwrap()`/`expect(…)`/`panic!` reachable from a hot loop |
//!
//! The two hot-path rules are *transitive*: reachability is computed over
//! the workspace call graph from every fenced fn (within the hot crates
//! `core`, `partition`, `floorplan`, `lp`), and a violation in an unfenced
//! helper is reported at the offending line together with the call chain
//! that makes it hot.
//!
//! Run it over the workspace with `cargo run -p sunfloor-analyze`; CI runs
//! the same command, and the repo's tier-1 integration tests call
//! [`check_workspace`] directly so `cargo test -q` enforces a clean pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod symbols;

use baseline::{Baseline, RatchetVerdict};
use rules::{check_files, Finding};
use source::SourceFile;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the committed ratchet baseline at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Directories never analyzed: build output, VCS metadata, and the
/// `shims/` stand-ins for unreachable crates.io dependencies (vendored
/// API mimicry, not code this workspace owns the style of).
const SKIP_DIRS: &[&str] = &["target", ".git", "shims"];

/// The result of analyzing a set of sources against a baseline.
#[derive(Debug)]
pub struct Report {
    /// Files analyzed.
    pub files: usize,
    /// Suppressions consumed by a matching finding.
    pub suppressions_used: usize,
    /// All unsuppressed findings (pre-ratchet).
    pub findings: Vec<Finding>,
    /// The ratchet verdict against the baseline.
    pub verdict: RatchetVerdict,
}

impl Report {
    /// Whether the pass is clean (no findings beyond the frozen baseline).
    #[must_use]
    pub fn pass(&self) -> bool {
        self.verdict.pass()
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.verdict.new_findings.is_empty() {
            let _ = writeln!(out, "new findings (not in {BASELINE_FILE}):");
            for f in &self.verdict.new_findings {
                let _ = writeln!(out, "  {f}");
            }
        }
        for (k, allowed, current) in &self.verdict.improved {
            let _ = writeln!(
                out,
                "ratchet is stale — re-freeze: {k} is down to {current} (baseline {allowed}); \
                 lock the improvement in with --write-baseline"
            );
        }
        let _ = writeln!(
            out,
            "sunfloor-analyze: {} files, {} findings ({} frozen by baseline, {} new), \
             {} suppressions honored — {}",
            self.files,
            self.findings.len(),
            self.verdict.frozen,
            self.verdict.new_findings.len(),
            self.suppressions_used,
            if self.pass() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Analyzes in-memory `(path, text)` sources against `baseline`.
///
/// This is the seam the tests use: the workspace runner loads files from
/// disk, while unit/acceptance tests can rewrite sources (e.g. delete a
/// suppression) and re-analyze without touching the tree.
#[must_use]
pub fn analyze_sources(inputs: &[(String, String)], baseline: &Baseline) -> Report {
    let files: Vec<SourceFile> =
        inputs.iter().map(|(path, text)| SourceFile::parse(path, text)).collect();
    let (mut findings, suppressions_used) = check_files(&files);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let verdict = baseline.ratchet(&findings);
    Report { files: inputs.len(), suppressions_used, findings, verdict }
}

/// Recursively collects every `.rs` file under `root` (skipping
/// `SKIP_DIRS`), as repo-relative forward-slash paths with their text,
/// sorted by path so analysis order — and therefore output — is
/// deterministic.
///
/// # Errors
///
/// Propagates I/O failures from directory walking or file reads.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = fs::read_to_string(root.join(&rel))?;
        out.push((rel, text));
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Errors from the full workspace check.
#[derive(Debug)]
pub enum CheckError {
    /// Reading sources or the baseline failed.
    Io(io::Error),
    /// `lint-baseline.json` exists but does not parse — a hard error, never
    /// a silent pass.
    BadBaseline(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadBaseline(e) => write!(f, "malformed {BASELINE_FILE}: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<io::Error> for CheckError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Loads the baseline at `root` (absent file = empty baseline, so a fresh
/// checkout without one simply requires a fully clean tree).
///
/// # Errors
///
/// I/O failures and parse failures ([`CheckError::BadBaseline`]).
pub fn load_baseline(root: &Path) -> Result<Baseline, CheckError> {
    let path = root.join(BASELINE_FILE);
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let text = fs::read_to_string(path)?;
    Baseline::parse(&text).map_err(CheckError::BadBaseline)
}

/// Runs the full pass over the workspace at `root` against its committed
/// baseline.
///
/// # Errors
///
/// See [`CheckError`].
pub fn check_workspace(root: &Path) -> Result<Report, CheckError> {
    let baseline = load_baseline(root)?;
    let sources = collect_sources(root)?;
    Ok(analyze_sources(&sources, &baseline))
}

/// Locates the workspace root from `start`: the nearest ancestor holding
/// both a `Cargo.toml` and a `crates/` directory.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").exists() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn clean_sources_pass_against_empty_baseline() {
        let files = [src("crates/core/src/x.rs", "fn f(a: u32) -> u32 { a + 1 }")];
        let r = analyze_sources(&files, &Baseline::default());
        assert!(r.pass(), "{}", r.render());
        assert_eq!(r.files, 1);
    }

    #[test]
    fn injected_violation_fails_and_render_names_it() {
        let files = [
            src("crates/core/src/x.rs", "fn f(a: u32) -> u32 { a + 1 }"),
            src("crates/core/src/bad.rs", "use std::collections::HashMap;"),
        ];
        let r = analyze_sources(&files, &Baseline::default());
        assert!(!r.pass());
        let text = r.render();
        assert!(text.contains("crates/core/src/bad.rs:1"), "{text}");
        assert!(text.contains("det-hash-iter"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    #[test]
    fn baseline_freezes_existing_debt_but_not_growth() {
        let debt = src("crates/sim/src/x.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        let base = Baseline::from_findings(
            &analyze_sources(std::slice::from_ref(&debt), &Baseline::default()).findings,
        );
        assert!(analyze_sources(&[debt], &base).pass(), "frozen debt passes");
        let grown = src(
            "crates/sim/src/x.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        let r = analyze_sources(&[grown], &base);
        assert!(!r.pass(), "one new unwrap beyond the baseline fails");
        assert_eq!(r.verdict.new_findings.len(), 2, "the whole grown group is listed");
    }

    #[test]
    fn find_root_walks_up() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("repo root");
        assert!(root.join("crates/analyze").is_dir());
    }
}
