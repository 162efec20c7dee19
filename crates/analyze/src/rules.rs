//! The lint rules, plus the always-on `bad-suppression` meta rule.
//!
//! Most rules are lexical: they walk the token stream of a [`SourceFile`]
//! and report per-line findings. They never look inside strings or
//! comments (the lexer guarantees that), and they use the file's region
//! annotations to scope themselves to deterministic crates, non-test
//! code, or hot-path fenced functions.
//!
//! The two hot-path rules are *transitive*: [`check_files`] builds a
//! workspace [`SymbolTable`] and [`CallGraph`], computes which fns are
//! reachable from a `// sf: hot-path` fence within the deterministic hot
//! crates, and checks every reachable fn — findings land at the
//! offending line and carry the call chain that reaches it.

use crate::callgraph::{CallGraph, Reachability};
use crate::source::{SourceFile, Suppression};
use crate::symbols::SymbolTable;
use std::fmt;

/// `HashMap`/`HashSet`/`BinaryHeap` in a deterministic crate.
pub const DET_HASH_ITER: &str = "det-hash-iter";
/// `partial_cmp(…).unwrap()` where `total_cmp` belongs.
pub const FLOAT_PARTIAL_CMP: &str = "float-partial-cmp";
/// Wall-clock, OS RNG or environment reads in a deterministic crate.
pub const NONDET_SOURCE: &str = "nondet-source";
/// `unwrap`/`expect`/`panic!` in library (non-test) code — ratcheted.
pub const PANIC_IN_LIB: &str = "panic-in-lib";
/// Allocation inside a `// sf: hot-path` fenced function, or any fn
/// reachable from one (transitive).
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// `unwrap`/`expect`/`panic!` reachable from a hot-path fence
/// (transitive).
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Malformed, unknown-rule or unused `sf-allow` comments. Never
/// baselined, never suppressible.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Every real (suppressible, baselinable) rule.
pub const RULES: &[&str] = &[
    DET_HASH_ITER,
    FLOAT_PARTIAL_CMP,
    NONDET_SOURCE,
    PANIC_IN_LIB,
    HOT_PATH_ALLOC,
    HOT_PATH_PANIC,
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Runs every rule over the whole analyzed file set — per-file lexical
/// rules plus the transitive hot-path rules over the workspace call
/// graph — and resolves suppressions per file. Returns all kept findings
/// and the total number of suppressions consumed.
#[must_use]
pub fn check_files(files: &[SourceFile]) -> (Vec<Finding>, usize) {
    let syms = SymbolTable::build(files);
    let graph = CallGraph::build(files, &syms);
    let reach = Reachability::from_hot_fences(files, &syms, &graph);
    let mut transitive: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
    transitive_hot_rules(files, &syms, &reach, &mut transitive);

    let mut all = Vec::new();
    let mut used_total = 0usize;
    for (fi, file) in files.iter().enumerate() {
        let (f, used) = check_one_file(file, std::mem::take(&mut transitive[fi]));
        all.extend(f);
        used_total += used;
    }
    (all, used_total)
}

/// Single-file convenience: runs [`check_files`] over just `file`. The
/// call graph then only sees that file, so same-file transitive findings
/// are still caught.
#[must_use]
pub fn check_file(file: &SourceFile) -> (Vec<Finding>, usize) {
    check_files(std::slice::from_ref(file))
}

/// Per-file lexical rules + the file's share of transitive findings,
/// followed by suppression resolution: suppressed findings are dropped,
/// and each malformed / unknown-rule / unused suppression becomes a
/// [`BAD_SUPPRESSION`] finding.
fn check_one_file(file: &SourceFile, transitive: Vec<Finding>) -> (Vec<Finding>, usize) {
    let mut raw = Vec::new();
    det_hash_iter(file, &mut raw);
    float_partial_cmp(file, &mut raw);
    nondet_source(file, &mut raw);
    panic_in_lib(file, &mut raw);
    hot_path_alloc(file, &mut raw);
    raw.extend(transitive);
    dedup_per_line(&mut raw);

    let mut used = vec![false; file.suppressions.len()];
    raw.retain(|f| {
        let hit = file.suppressions.iter().enumerate().find(|(_, s)| {
            s.rule == f.rule && s.target_line == f.line && s.rule != BAD_SUPPRESSION
        });
        match hit {
            Some((i, _)) => {
                used[i] = true;
                false
            }
            None => true,
        }
    });
    let consumed = used.iter().filter(|&&u| u).count();

    for m in &file.malformed {
        raw.push(Finding {
            rule: BAD_SUPPRESSION,
            path: file.path.clone(),
            line: m.line,
            message: m.problem.clone(),
        });
    }
    for (s, &was_used) in file.suppressions.iter().zip(&used) {
        if let Some(problem) = audit_suppression(s, was_used) {
            raw.push(Finding {
                rule: BAD_SUPPRESSION,
                path: file.path.clone(),
                line: s.comment_line,
                message: problem,
            });
        }
    }
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (raw, consumed)
}

/// Problems with a well-formed suppression: unknown rule, or it never
/// matched a finding (stale suppressions must be deleted, not hoarded).
fn audit_suppression(s: &Suppression, used: bool) -> Option<String> {
    if !RULES.contains(&s.rule.as_str()) {
        return Some(format!(
            "suppression names unknown rule `{}` (known: {})",
            s.rule,
            RULES.join(", ")
        ));
    }
    if !used {
        return Some(format!(
            "suppression of `{}` targeting line {} matched no finding — delete it",
            s.rule, s.target_line
        ));
    }
    None
}

/// One finding per (rule, line) even when several tokens on the line
/// violate it — keeps suppressions line-grained and counts stable.
fn dedup_per_line(findings: &mut Vec<Finding>) {
    let mut seen: Vec<(&'static str, u32)> = Vec::new();
    findings.retain(|f| {
        if seen.contains(&(f.rule, f.line)) {
            false
        } else {
            seen.push((f.rule, f.line));
            true
        }
    });
}

/// Index of the next non-comment token at or after `i`.
fn next_code(file: &SourceFile, i: usize) -> Option<usize> {
    (i..file.tokens.len()).find(|&j| !is_comment(file, j))
}

fn is_comment(file: &SourceFile, i: usize) -> bool {
    file.tokens[i].kind == crate::lexer::TokenKind::Comment
}

/// Whether tokens starting at `i` spell `:: ident` where the ident is one
/// of `names`; returns the index just past the matched ident.
fn match_path_seg(file: &SourceFile, i: usize, names: &[&str]) -> Option<usize> {
    let c1 = next_code(file, i)?;
    if !file.tokens[c1].is_punct(':') {
        return None;
    }
    let c2 = next_code(file, c1 + 1)?;
    if !file.tokens[c2].is_punct(':') {
        return None;
    }
    let id = next_code(file, c2 + 1)?;
    names
        .iter()
        .any(|n| file.tokens[id].is_ident(n))
        .then_some(id + 1)
}

fn push(file: &SourceFile, out: &mut Vec<Finding>, rule: &'static str, i: usize, msg: String) {
    out.push(Finding { rule, path: file.path.clone(), line: file.tokens[i].line, message: msg });
}

/// `det-hash-iter`: any `HashMap`, `HashSet` or `BinaryHeap` mention in a
/// deterministic crate. A hash container iterates in an unspecified order,
/// and std leaves the pop order of equal `BinaryHeap` elements unspecified.
/// Lexical analysis cannot prove a given map is never iterated, or that a
/// heap's equal elements are identical, so the deterministic crates ban
/// the types outright; a use that provably never leaks order can stay
/// behind an `sf-allow` with its proof as the reason.
fn det_hash_iter(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.is_deterministic_crate() {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        let why = if t.is_ident("HashMap") || t.is_ident("HashSet") {
            "iteration order is nondeterministic; use BTreeMap/BTreeSet, sorted vectors or dense \
             indices"
        } else if t.is_ident("BinaryHeap") {
            "std does not specify which of two equal elements pops first; order the entries \
             totally (say, ties by index) or scan an array"
        } else {
            continue;
        };
        push(
            file,
            out,
            DET_HASH_ITER,
            i,
            format!("`{}` in deterministic crate `{}` — {why}", t.text, file.crate_name),
        );
    }
}

/// `float-partial-cmp`: `.partial_cmp(…).unwrap()` (or `.expect`) panics
/// on NaN and hides it until the worst moment; `total_cmp` is the ordering
/// the deterministic sweeps rely on. Trait impls (`fn partial_cmp`) are
/// exempt.
fn float_partial_cmp(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        // Skip trait implementations: `fn partial_cmp(…)`.
        let prev_code = (0..i).rev().find(|&j| !is_comment(file, j));
        if prev_code.is_some_and(|j| file.tokens[j].is_ident("fn")) {
            continue;
        }
        // Balanced argument list, then `.unwrap()` / `.expect(…)`.
        let Some(open) = next_code(file, i + 1) else { continue };
        if !file.tokens[open].is_punct('(') {
            continue;
        }
        let Some(close) = matching_paren(file, open) else { continue };
        let Some(dot) = next_code(file, close + 1) else { continue };
        if !file.tokens[dot].is_punct('.') {
            continue;
        }
        let Some(m) = next_code(file, dot + 1) else { continue };
        if file.tokens[m].is_ident("unwrap") || file.tokens[m].is_ident("expect") {
            push(
                file,
                out,
                FLOAT_PARTIAL_CMP,
                i,
                format!(
                    "`partial_cmp(…).{}()` panics on NaN — use `total_cmp` for float ordering",
                    file.tokens[m].text
                ),
            );
        }
    }
}

fn matching_paren(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in file.tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `nondet-source`: reads of wall-clock time, the OS RNG or the process
/// environment inside a deterministic crate make outcomes depend on when
/// and where the process runs.
fn nondet_source(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.is_deterministic_crate() {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        let hit = if t.is_ident("Instant") || t.is_ident("SystemTime") {
            match_path_seg(file, i + 1, &["now"]).map(|_| format!("`{}::now()`", t.text))
        } else if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            Some(format!("`{}()` (OS entropy)", t.text))
        } else if t.is_ident("UNIX_EPOCH") {
            Some("`UNIX_EPOCH` arithmetic".to_string())
        } else if t.is_ident("env") {
            match_path_seg(file, i + 1, &["var", "vars", "var_os", "vars_os"])
                .map(|_| "environment read".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            push(
                file,
                out,
                NONDET_SOURCE,
                i,
                format!(
                    "{what} in deterministic crate `{}` — outcomes must not depend on \
                     wall-clock, OS entropy or the environment",
                    file.crate_name
                ),
            );
        }
    }
}

/// `panic-in-lib`: `unwrap()`/`expect(…)`/`panic!` in non-test code of any
/// crate. Existing debt is frozen in `lint-baseline.json`; only *new*
/// sites fail the pass.
fn panic_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        if file.token_is_test(i) {
            continue;
        }
        if let Some(what) = panic_pattern_at(file, i) {
            push(
                file,
                out,
                PANIC_IN_LIB,
                i,
                format!(
                    "`{what}` in library code — return a typed error (ratcheted: pre-existing \
                     sites are frozen in lint-baseline.json)"
                ),
            );
        }
    }
}

/// Whether token `i` is a panic site: `unwrap(`/`expect(`/`panic!`
/// (definitions like `fn expect(…)` excluded). Returns the offending name.
fn panic_pattern_at(file: &SourceFile, i: usize) -> Option<&'static str> {
    let t = &file.tokens[i];
    if t.kind != crate::lexer::TokenKind::Ident {
        return None;
    }
    let what = match t.text.as_str() {
        "unwrap" if next_code(file, i + 1).is_some_and(|j| file.tokens[j].is_punct('(')) => {
            "unwrap"
        }
        "expect" if next_code(file, i + 1).is_some_and(|j| file.tokens[j].is_punct('(')) => {
            "expect"
        }
        "panic" if next_code(file, i + 1).is_some_and(|j| file.tokens[j].is_punct('!')) => {
            "panic!"
        }
        _ => return None,
    };
    // `fn expect(…)` definitions are not call sites.
    let prev_code = (0..i).rev().find(|&j| !is_comment(file, j));
    if prev_code.is_some_and(|j| file.tokens[j].is_ident("fn")) {
        return None;
    }
    Some(what)
}

/// `hot-path-alloc`: allocation primitives inside a function fenced
/// `// sf: hot-path`. The fenced loops were made allocation-free in PRs
/// 3–5; this keeps them that way.
fn hot_path_alloc(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        let Some(region) = file.hot_region_of(i) else { continue };
        if let Some(what) = alloc_pattern_at(file, i) {
            push(
                file,
                out,
                HOT_PATH_ALLOC,
                i,
                format!(
                    "{what} inside hot-path fenced fn `{}` — reuse scratch buffers instead \
                     of allocating per call",
                    region.fn_name
                ),
            );
        }
    }
}

/// Whether token `i` is an allocation primitive (`Vec::new`, `vec!`,
/// `.collect()`, `.clone()`, `format!`, `Box::new`, …). Returns a short
/// description of what allocates.
fn alloc_pattern_at(file: &SourceFile, i: usize) -> Option<String> {
    let t = &file.tokens[i];
    if t.is_ident("Vec") || t.is_ident("Box") || t.is_ident("String") {
        match_path_seg(file, i + 1, &["new", "with_capacity", "from"])
            .map(|_| format!("`{}::…` constructor", t.text))
    } else if t.is_ident("vec") || t.is_ident("format") {
        next_code(file, i + 1)
            .filter(|&j| file.tokens[j].is_punct('!'))
            .map(|_| format!("`{}!`", t.text))
    } else if t.is_ident("collect")
        || t.is_ident("clone")
        || t.is_ident("to_vec")
        || t.is_ident("to_owned")
        || t.is_ident("to_string")
    {
        next_code(file, i + 1)
            .filter(|&j| file.tokens[j].is_punct('(') || file.tokens[j].is_punct(':'))
            .map(|_| format!("`.{}()`", t.text))
    } else {
        None
    }
}

/// The transitive hot-path rules: every fn reachable from a fenced fn
/// (within the hot crates) is checked for allocations and panic sites.
/// Findings land at the offending line in the fn's own file, with the
/// call chain that reaches it in the message. Fenced fns themselves are
/// covered by the direct [`hot_path_alloc`] pass, so only *helpers*
/// (chain length > 1) get transitive allocation findings; panic sites
/// are checked everywhere the hot path reaches, fences included.
fn transitive_hot_rules(
    files: &[SourceFile],
    syms: &SymbolTable,
    reach: &Reachability,
    out: &mut [Vec<Finding>],
) {
    for (&id, chain) in &reach.chains {
        let def = &syms.fns[id];
        let file = &files[def.file];
        let is_root = chain.len() == 1;
        let chain_text = reach.render_chain(syms, id);
        let end = def.body.1.min(file.tokens.len().saturating_sub(1));
        for i in def.body.0..=end {
            if !is_root && file.hot_region_of(i).is_none() {
                if let Some(what) = alloc_pattern_at(file, i) {
                    out[def.file].push(Finding {
                        rule: HOT_PATH_ALLOC,
                        path: file.path.clone(),
                        line: file.tokens[i].line,
                        message: format!(
                            "{what} in `{}`, reachable from the hot path: {chain_text} — \
                             hot helpers must not allocate per call",
                            def.name
                        ),
                    });
                }
            }
            if file.token_is_test(i) {
                continue;
            }
            if let Some(what) = panic_pattern_at(file, i) {
                out[def.file].push(Finding {
                    rule: HOT_PATH_PANIC,
                    path: file.path.clone(),
                    line: file.tokens[i].line,
                    message: format!(
                        "`{what}` in `{}`, reachable from the hot path: {chain_text} — \
                         hot loops must not panic; handle the case or prove it impossible",
                        def.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::parse(path, src)).0
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- det-hash-iter ---------------------------------------------------

    #[test]
    fn hashmap_flagged_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let det = check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&det), vec![DET_HASH_ITER, DET_HASH_ITER], "one per line: {det:?}");
        assert!(check("crates/cli/src/x.rs", src).is_empty(), "cli is not a deterministic crate");
        assert!(check("crates/core/src/x.rs", "let s = \"HashMap\";").is_empty());
    }

    #[test]
    fn binary_heap_flagged_only_in_deterministic_crates() {
        let src = "use std::collections::BinaryHeap;\nfn f() { let h: BinaryHeap<u32> = BinaryHeap::new(); }";
        let det = check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&det), vec![DET_HASH_ITER, DET_HASH_ITER], "one per line: {det:?}");
        assert!(det[0].message.contains("equal elements"), "{}", det[0].message);
        assert!(check("crates/cli/src/x.rs", src).is_empty(), "cli is not a deterministic crate");
        let allowed = "// sf-allow(det-hash-iter): equal entries are identical\nuse std::collections::BinaryHeap;";
        assert!(check("crates/partition/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn hashset_flagged_in_test_code_of_deterministic_crates_too() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}";
        let f = check("crates/floorplan/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![DET_HASH_ITER], "determinism tests must be order-stable");
    }

    // --- float-partial-cmp -----------------------------------------------

    #[test]
    fn partial_cmp_unwrap_flagged_everywhere() {
        // (`unwrap`/`expect` additionally trip panic-in-lib — both real.)
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert!(rules_of(&check("crates/cli/src/x.rs", src)).contains(&FLOAT_PARTIAL_CMP));
        let src2 = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\")); }";
        assert!(rules_of(&check("crates/sim/src/x.rs", src2)).contains(&FLOAT_PARTIAL_CMP));
    }

    #[test]
    fn partial_cmp_trait_impl_and_propagating_uses_exempt() {
        let src = "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { self.0.partial_cmp(&o.0) } }";
        assert!(check("crates/core/src/x.rs", src).is_empty(), "definition + `?`-free use");
        let src2 = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap_or(Ordering::Equal); }";
        assert!(check("crates/core/src/x.rs", src2).is_empty(), "unwrap_or is total");
    }

    // --- nondet-source ----------------------------------------------------

    #[test]
    fn wallclock_and_entropy_flagged_in_det_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_of(&check("crates/core/src/x.rs", src)), vec![NONDET_SOURCE]);
        assert!(check("crates/bench/src/x.rs", src).is_empty(), "bench crate may time things");
        let src2 = "fn f() { let mut r = thread_rng(); }";
        assert_eq!(rules_of(&check("crates/partition/src/x.rs", src2)), vec![NONDET_SOURCE]);
        let src3 = "fn f() { let home = std::env::var(\"HOME\"); }";
        assert_eq!(rules_of(&check("crates/models/src/x.rs", src3)), vec![NONDET_SOURCE]);
    }

    #[test]
    fn instant_type_annotations_are_not_flagged() {
        let src = "use std::time::Instant;\nfn f(started: Instant) -> Instant { started }";
        assert!(
            check("crates/core/src/x.rs", src).is_empty(),
            "only `Instant::now()` reads the clock"
        );
    }

    // --- panic-in-lib -----------------------------------------------------

    #[test]
    fn panics_flagged_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); panic!(\"boom\"); }\n}";
        let f = check("crates/cli/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![PANIC_IN_LIB]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn panic_macro_and_expect_flagged_but_lookalikes_exempt() {
        let f = check("crates/sim/src/x.rs", "fn f() { panic!(\"no\"); }");
        assert_eq!(rules_of(&f), vec![PANIC_IN_LIB]);
        let ok = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n#[should_panic]\nfn g() {}";
        assert!(check("crates/sim/src/x.rs", ok).is_empty());
        assert!(check("tests/whole_file.rs", "fn t() { x.unwrap(); }").is_empty());
    }

    // --- hot-path-alloc ---------------------------------------------------

    #[test]
    fn allocations_flagged_only_inside_fences() {
        let src = "// sf: hot-path\nfn hot(n: usize) -> usize {\n    let v: Vec<u32> = Vec::new();\n    let w = vec![0; n];\n    let s = format!(\"{n}\");\n    let c = w.clone();\n    let d: Vec<u32> = w.iter().copied().collect();\n    let b = Box::new(n);\n    n\n}\nfn cold(n: usize) -> Vec<u32> { vec![0; n] }";
        let f = check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![HOT_PATH_ALLOC; 6], "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("`hot`")), "{f:?}");
        assert!(f.iter().all(|x| x.line >= 3 && x.line <= 8), "cold() is unfenced: {f:?}");
    }

    #[test]
    fn clone_from_and_pushes_are_allowed_in_fences() {
        let src = "// sf: hot-path\nfn hot(a: &mut Vec<u32>, b: &Vec<u32>) {\n    a.clone_from(b);\n    a.push(1);\n    a.extend_from_slice(b);\n}";
        assert!(check("crates/core/src/x.rs", src).is_empty(), "reuse primitives are fine");
    }

    // --- suppressions -----------------------------------------------------

    #[test]
    fn suppression_with_reason_consumes_the_finding() {
        let src = "// sf-allow(det-hash-iter): keyed lookups only, never iterated\nuse std::collections::HashMap;";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let (findings, used) = check_file(&file);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn deleting_a_suppression_resurfaces_the_finding() {
        let with = "// sf-allow(det-hash-iter): keyed lookups only\nuse std::collections::HashMap;";
        let without = "use std::collections::HashMap;";
        assert!(check("crates/core/src/x.rs", with).is_empty());
        assert_eq!(rules_of(&check("crates/core/src/x.rs", without)), vec![DET_HASH_ITER]);
    }

    #[test]
    fn reasonless_unknown_and_unused_suppressions_fail() {
        let f = check("crates/core/src/x.rs", "// sf-allow(det-hash-iter):\nuse std::collections::HashMap;");
        assert!(rules_of(&f).contains(&BAD_SUPPRESSION), "reasonless: {f:?}");
        assert!(rules_of(&f).contains(&DET_HASH_ITER), "and the finding survives");

        let f = check("crates/core/src/x.rs", "// sf-allow(no-such-rule): because\nfn f() {}");
        assert_eq!(rules_of(&f), vec![BAD_SUPPRESSION], "unknown rule: {f:?}");

        let f = check("crates/core/src/x.rs", "// sf-allow(det-hash-iter): stale\nfn clean() {}");
        assert_eq!(rules_of(&f), vec![BAD_SUPPRESSION], "unused: {f:?}");
    }

    #[test]
    fn suppression_for_one_rule_does_not_mask_another() {
        let src = "// sf-allow(det-hash-iter): wrong rule for this line\nfn f() { let t = Instant::now(); }";
        let f = check("crates/core/src/x.rs", src);
        assert!(rules_of(&f).contains(&NONDET_SOURCE), "{f:?}");
    }

    #[test]
    fn second_suppression_of_same_rule_on_same_line_audits_unused() {
        // A standalone and a trailing suppression both target the unwrap
        // line; the single finding consumes exactly one (the first in
        // source order) and the redundant one must be flagged, not
        // silently hoarded as a spare.
        let src = "// sf-allow(panic-in-lib): first — documented invariant\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() } // sf-allow(panic-in-lib): second, redundant\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let (findings, used) = check_file(&file);
        assert_eq!(used, 1, "exactly one suppression consumed: {findings:?}");
        assert_eq!(rules_of(&findings), vec![BAD_SUPPRESSION], "{findings:?}");
        assert!(
            findings[0].message.contains("matched no finding"),
            "the spare audits as unused: {findings:?}"
        );
    }

    #[test]
    fn suppression_inside_cfg_test_is_unused_and_flagged() {
        // Rules skip test code, so a suppression living inside a
        // `#[cfg(test)]` module can never match a finding — it must fail
        // the audit rather than rot in place.
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   // sf-allow(panic-in-lib): tests may panic anyway\n\
                   \x20   fn t(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   }\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let (findings, used) = check_file(&file);
        assert_eq!(used, 0, "{findings:?}");
        assert_eq!(rules_of(&findings), vec![BAD_SUPPRESSION], "{findings:?}");
    }
}
