//! Acceptance tests running the analyzer over the *real* workspace tree
//! against the *committed* `lint-baseline.json`:
//!
//! - the tree is clean (no findings beyond the frozen baseline),
//! - deleting any one committed suppression makes the pass fail (every
//!   suppression is load-bearing, none is stale), and
//! - injecting a synthetic violation — a brand-new file or one more
//!   panic site in an already-baselined file — makes the pass fail.

use std::path::{Path, PathBuf};
use sunfloor_analyze::source::SourceFile;
use sunfloor_analyze::{analyze_sources, check_workspace, collect_sources, find_root, load_baseline};

fn root() -> PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root above crates/analyze")
}

#[test]
fn workspace_is_clean_against_committed_baseline() {
    let report = check_workspace(&root()).expect("workspace check runs");
    assert!(report.pass(), "workspace must lint clean:\n{}", report.render());
    assert!(
        report.findings.iter().all(|f| f.rule != "bad-suppression"),
        "no malformed or unused suppressions:\n{}",
        report.render()
    );
}

/// Strips the suppression comment starting on `comment_line` (1-indexed)
/// from `text`, keeping the line itself so numbering is undisturbed for
/// trailing suppressions.
fn strip_suppression(text: &str, comment_line: u32) -> String {
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.lines().enumerate() {
        if i as u32 + 1 == comment_line {
            let cut = line.find("// sf-allow").expect("suppression on its recorded line");
            out.push_str(line[..cut].trim_end());
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn deleting_any_committed_suppression_fails_the_pass() {
    let root = root();
    let baseline = load_baseline(&root).expect("committed baseline parses");
    let sources = collect_sources(&root).expect("sources readable");

    let mut checked = 0usize;
    for (idx, (path, text)) in sources.iter().enumerate() {
        // The analyzer's own sources build suppression fixtures in string
        // literals and tests; only probe real, honored suppressions.
        let parsed = SourceFile::parse(path, text);
        for sup in &parsed.suppressions {
            let mut mutated = sources.clone();
            mutated[idx].1 = strip_suppression(text, sup.comment_line);
            let report = analyze_sources(&mutated, &baseline);
            assert!(
                !report.pass(),
                "removing the {} suppression at {path}:{} should fail the pass",
                sup.rule,
                sup.comment_line
            );
            checked += 1;
        }
    }
    assert!(checked >= 6, "expected the committed suppressions to be exercised, saw {checked}");
}

#[test]
fn injecting_a_synthetic_violation_fails_the_pass() {
    let root = root();
    let baseline = load_baseline(&root).expect("committed baseline parses");
    let sources = collect_sources(&root).expect("sources readable");

    // A brand-new file with a determinism violation: no baseline entry can
    // exist for it, so it must fail outright.
    let mut with_new_file = sources.clone();
    with_new_file.push((
        "crates/core/src/injected.rs".to_string(),
        "use std::collections::HashMap;\n".to_string(),
    ));
    let report = analyze_sources(&with_new_file, &baseline);
    assert!(!report.pass(), "new det-hash-iter file must fail");
    assert!(report.render().contains("crates/core/src/injected.rs"), "{}", report.render());

    // One more panic site in a file whose debt is already frozen: the
    // group exceeds its baselined count, so the ratchet must fire.
    let idx = sources
        .iter()
        .position(|(p, _)| p == "crates/benchmarks/src/synthetic.rs")
        .expect("synthetic.rs is analyzed");
    let mut grown = sources.clone();
    grown[idx].1.push_str("\nfn injected_probe(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let report = analyze_sources(&grown, &baseline);
    assert!(!report.pass(), "one unwrap beyond the frozen count must fail");
    assert!(
        report
            .verdict
            .new_findings
            .iter()
            .any(|f| f.rule == "panic-in-lib" && f.path == "crates/benchmarks/src/synthetic.rs"),
        "{}",
        report.render()
    );
}

#[test]
fn allocation_in_unfenced_helper_reachable_from_hot_path_fails_with_chain() {
    let root = root();
    let baseline = load_baseline(&root).expect("committed baseline parses");
    let sources = collect_sources(&root).expect("sources readable");

    // `Network::add_edge` carries no `// sf: hot-path` fence of its own,
    // but the fenced `cut` in the placement solver calls it — the
    // transitive rule must walk that edge and flag an allocation injected
    // into the helper, reporting the call chain from the fenced root.
    let idx = sources
        .iter()
        .position(|(p, _)| p == "crates/lp/src/cut.rs")
        .expect("cut.rs is analyzed");
    let marker = "fn add_edge(&mut self, u: usize, v: usize, uv: Lex, vu: Lex) {";
    assert!(sources[idx].1.contains(marker), "add_edge signature changed; update this test");
    let mut mutated = sources.clone();
    mutated[idx].1 = mutated[idx].1.replacen(
        marker,
        &format!("{marker}\n        let _probe = vec![0u8; u];"),
        1,
    );
    let report = analyze_sources(&mutated, &baseline);
    assert!(!report.pass(), "allocation in a hot-reachable helper must fail the pass");
    let finding = report
        .verdict
        .new_findings
        .iter()
        .find(|f| f.rule == "hot-path-alloc" && f.path == "crates/lp/src/cut.rs")
        .unwrap_or_else(|| {
            panic!("expected a transitive hot-path-alloc finding:\n{}", report.render())
        });
    assert!(finding.message.contains("reachable from the hot path"), "{}", finding.message);
    assert!(finding.message.contains("add_edge"), "names the helper: {}", finding.message);
    assert!(finding.message.contains(" → "), "renders the chain: {}", finding.message);
    assert!(
        finding.message.contains("PlacementWorkspace::cut → "),
        "chain starts at a fenced root: {}",
        finding.message
    );
}
