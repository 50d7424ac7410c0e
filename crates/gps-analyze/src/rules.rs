//! The lint rules and the per-file rule driver.
//!
//! Every rule has a stable ID (the string reported to the user and matched
//! by allowlist entries) and a path-derived scope: which rules apply to a
//! file is a pure function of its repo-relative path, so fixture tests can
//! exercise any rule by linting fixture text under a synthetic path. See
//! `docs/verification.md` for the rule catalog.

use crate::lexer::{mask, MaskedFile};

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule ID, e.g. `no-hashmap-hot-path`.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{} — {}",
            self.rule, self.path, self.line, self.msg
        )
    }
}

/// Rule IDs, in catalog order (used by `--explain` style output and docs).
pub const RULE_IDS: &[&str] = &[
    "no-hashmap-hot-path",
    "no-unseeded-rng",
    "no-wallclock-in-determinism",
    "no-unwrap-in-lib",
    "forbid-unsafe-everywhere",
    "atomics-justified",
    "no-stray-allow",
    "metric-name-registry",
];

/// Crates whose hot paths must stay free of std hash collections (the
/// compact adjacency exists precisely so these never hash on the data path;
/// the one sanctioned wrapper is `gps-graph/src/hash.rs`, via allowlist).
const HOT_PATH_CRATES: &[&str] = &["gps-graph", "gps-core", "gps-engine"];

/// Crates whose library code must propagate errors instead of panicking.
/// `gps-chaos` is held to the same bar: a chaos harness that can itself
/// panic outside a scripted fault would poison every determinism claim it
/// makes about the engine.
const NO_UNWRAP_CRATES: &[&str] = &["gps-engine", "gps-serve", "gps-chaos", "gps-sim"];

fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

fn in_crate_src(path: &str, crates: &[&str]) -> bool {
    crate_of(path).is_some_and(|c| crates.contains(&c))
        && path
            .splitn(3, '/')
            .nth(2)
            .is_some_and(|r| r.starts_with("src/") || r == "src")
}

fn is_compat(path: &str) -> bool {
    path.starts_with("crates/compat/")
}

/// Is this file a crate root (`src/lib.rs` of a workspace member, or the
/// facade's root `src/lib.rs`)?
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// Marks lines belonging to `#[cfg(test)]` items (the repo convention:
/// unit tests live in `#[cfg(test)] mod tests { … }`).
///
/// Works on the masked code view: from each `#[cfg(test)]` attribute, the
/// following item's extent is the balanced-brace block starting at the next
/// `{` — or just up to the next `;` if one appears first at depth zero
/// (attribute on a `use` or statement-like item).
fn cfg_test_lines(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !code[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: i32 = 0;
        let mut entered = false;
        let mut j = i;
        'scan: while j < code.len() {
            test[j] = true;
            for ch in code[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == 0 {
                            break 'scan;
                        }
                    }
                    ';' if !entered && depth == 0 && j > i => break 'scan,
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    test
}

/// Lints one file's text as if it lived at repo-relative `path`.
///
/// This is the whole linter for one file; [`crate::lint_workspace`] drives
/// it over the scanned set and then applies the allowlist.
pub fn lint_source(path: &str, text: &str) -> Vec<Violation> {
    let masked = mask(text);
    let tests = cfg_test_lines(&masked.code);
    let mut out = Vec::new();

    rule_hashmap_hot_path(path, &masked, &tests, &mut out);
    rule_unseeded_rng(path, &masked, &mut out);
    rule_wallclock(path, &masked, &tests, &mut out);
    rule_unwrap_in_lib(path, &masked, &tests, &mut out);
    rule_forbid_unsafe(path, &masked, &mut out);
    rule_atomics_justified(path, &masked, &mut out);
    rule_stray_allow(path, &masked, &mut out);

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn push(out: &mut Vec<Violation>, rule: &'static str, path: &str, line: usize, msg: String) {
    out.push(Violation {
        rule,
        path: path.to_owned(),
        line: line + 1, // rules index lines from 0 internally
        msg,
    });
}

/// `no-hashmap-hot-path`: no `std::collections::{HashMap, HashSet}` in the
/// library code of the hot-path crates. Hashing on the data path is what
/// the compact adjacency removed; direct std-collection imports are
/// how it would silently creep back.
fn rule_hashmap_hot_path(path: &str, m: &MaskedFile, tests: &[bool], out: &mut Vec<Violation>) {
    if !in_crate_src(path, HOT_PATH_CRATES) {
        return;
    }
    for (i, line) in m.code.iter().enumerate() {
        if tests[i] {
            continue;
        }
        // Catches direct paths (`std::collections::HashMap`), brace imports
        // (`use std::collections::{…, HashMap}`), and `collections::{…}`
        // continuation lines; `FxHashMap` alone never matches.
        let names_std = line.contains("std::collections::") || line.contains("collections::{");
        if names_std && (line.contains("HashMap") || line.contains("HashSet")) {
            push(
                out,
                "no-hashmap-hot-path",
                path,
                i,
                "std hash collection in hot-path crate library code (use the compact \
                 backend, or gps-graph's FxHash wrapper where a map is unavoidable)"
                    .into(),
            );
        }
    }
}

/// `no-unseeded-rng`: every RNG in the workspace must be seeded; ambient
/// entropy (`thread_rng`, `from_entropy`, `OsRng`) breaks same-seed
/// reproducibility, which every differential and statistical test rests on.
fn rule_unseeded_rng(path: &str, m: &MaskedFile, out: &mut Vec<Violation>) {
    if is_compat(path) {
        // The rand shim is where seeding policy is *defined*.
        return;
    }
    const TOKENS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "ThreadRng"];
    for (i, line) in m.code.iter().enumerate() {
        if let Some(tok) = TOKENS.iter().find(|t| line.contains(*t)) {
            push(
                out,
                "no-unseeded-rng",
                path,
                i,
                format!("ambient-entropy RNG `{tok}` (seed explicitly: SmallRng::seed_from_u64)"),
            );
        }
    }
}

/// `no-wallclock-in-determinism`: `Instant::now` / `SystemTime` only in
/// timing modules (bench perf/experiments, the criterion shim) — never in
/// the estimation path, where wall time would leak into results.
///
/// The serving layer's deterministic clock hook (`gps-serve/src/clock.rs`)
/// is the rule's sanctioned abstraction: the one place the wall clock may
/// be read, behind a `ClockMode` that tests swap for virtual time. Any
/// other serve-side `Instant::now` is a site that dodged the hook.
fn rule_wallclock(path: &str, m: &MaskedFile, tests: &[bool], out: &mut Vec<Violation>) {
    if !path.starts_with("crates/") {
        return; // examples and root tests time things legitimately
    }
    if path == "crates/gps-serve/src/clock.rs" {
        return; // the deterministic clock hook wraps the one wall-clock read
    }
    for (i, line) in m.code.iter().enumerate() {
        if tests[i] {
            continue;
        }
        if line.contains("Instant::now") || line.contains("SystemTime") {
            push(
                out,
                "no-wallclock-in-determinism",
                path,
                i,
                "wall-clock read outside a timing module".into(),
            );
        }
    }
}

/// `no-unwrap-in-lib`: engine/serve library code must propagate errors.
/// `.unwrap()`/`.expect(` in their non-test src is either a bug-to-be or a
/// deliberate panic contract — the latter gets a documented allowlist entry.
fn rule_unwrap_in_lib(path: &str, m: &MaskedFile, tests: &[bool], out: &mut Vec<Violation>) {
    if !in_crate_src(path, NO_UNWRAP_CRATES) {
        return;
    }
    for (i, line) in m.code.iter().enumerate() {
        if tests[i] {
            continue;
        }
        // `unwrap_or…` combinators are fine; only the panicking forms count.
        let unwraps = line.contains(".unwrap()");
        let expects = line.contains(".expect(");
        if unwraps || expects {
            let what = if unwraps { ".unwrap()" } else { ".expect(…)" };
            push(
                out,
                "no-unwrap-in-lib",
                path,
                i,
                format!("{what} in library code (propagate the error, or allowlist a documented panic contract)"),
            );
        }
    }
}

/// `forbid-unsafe-everywhere`: every crate root carries
/// `#![forbid(unsafe_code)]` — the whole workspace is safe code by
/// construction (the seqlock included), and `forbid` cannot be overridden
/// further down the tree the way `deny` can.
fn rule_forbid_unsafe(path: &str, m: &MaskedFile, out: &mut Vec<Violation>) {
    if !is_crate_root(path) {
        return;
    }
    let has = m.code.iter().any(|l| l.contains("#![forbid(unsafe_code)]"));
    if !has {
        push(
            out,
            "forbid-unsafe-everywhere",
            path,
            0,
            "crate root lacks #![forbid(unsafe_code)]".into(),
        );
    }
}

/// `atomics-justified`: every atomic `Ordering::…` use site carries an
/// adjacent `// ordering:` comment naming the happens-before edge it
/// establishes (same line, or in the contiguous comment block directly
/// above). The 17 existing justifications are the worked examples.
fn rule_atomics_justified(path: &str, m: &MaskedFile, out: &mut Vec<Violation>) {
    const ORDERINGS: &[&str] = &[
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
        "Ordering::SeqCst",
    ];
    for (i, line) in m.code.iter().enumerate() {
        if !ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        if has_adjacent_ordering_comment(m, i) {
            continue;
        }
        push(
            out,
            "atomics-justified",
            path,
            i,
            "atomic Ordering:: use without an adjacent `// ordering:` justification".into(),
        );
    }
}

/// Same-line trailing comment, or any line of the contiguous comment block
/// immediately above, containing `ordering:`.
fn has_adjacent_ordering_comment(m: &MaskedFile, i: usize) -> bool {
    if m.comments[i].contains("ordering:") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = m.code[j].trim();
        let comment = &m.comments[j];
        // Only comment-*only* lines extend the block: a trailing comment
        // on an unrelated code line above must not justify this site, and
        // a blank line breaks contiguity.
        if !code.is_empty() || comment.trim().is_empty() {
            return false;
        }
        if comment.contains("ordering:") {
            return true;
        }
    }
    false
}

/// `metric-name-registry`: every telemetry metric registered in crate
/// library code (`.counter("…")`, `.gauge("…")`, `.histogram("…")` with a
/// string-literal name) must be documented with a one-line meaning in
/// `docs/observability.md`, and each name must have exactly one
/// registration call site — `gps-telemetry` deduplicates by name at
/// runtime, so a second call site silently aliases the first handle and
/// the two "metrics" become one ledger.
///
/// Trace stage and mark names (`.stage("…")`, `.mark("…")` on an
/// `EpochTrace`) are held to the same contract: documented in the
/// trace-stage catalog, and recorded from exactly one library call site —
/// a stage name stamped from two places would make `EpochTrace::span`
/// ambiguous and the timeline unreadable.
///
/// Cross-file by nature, so it runs once over the scanned set
/// ([`crate::lint_workspace`] calls it after the per-file pass) instead of
/// inside [`lint_source`]; fixture tests call it directly with synthetic
/// files and a synthetic catalog. Lookup helpers (`counter_value`,
/// `gauge_value`, `histogram_sample`) don't match the registration
/// patterns, so read sites never register names.
pub fn rule_metric_registry(files: &[(String, String)], catalog: &str) -> Vec<Violation> {
    const RULE: &str = "metric-name-registry";
    let mut out = Vec::new();
    // (name, path, 0-based line) in scan order.
    let mut sites: Vec<(String, String, usize)> = Vec::new();
    for (path, text) in files {
        if is_compat(path) {
            continue;
        }
        let in_src = path.starts_with("crates/")
            && path
                .splitn(3, '/')
                .nth(2)
                .is_some_and(|r| r.starts_with("src/"));
        if !in_src {
            continue;
        }
        let m = mask(text);
        let tests = cfg_test_lines(&m.code);
        let raw: Vec<&str> = text.lines().collect();
        for (i, line) in m.code.iter().enumerate() {
            if tests[i] {
                continue;
            }
            let code: Vec<char> = line.chars().collect();
            for pat in [
                ".counter(\"",
                ".gauge(\"",
                ".histogram(\"",
                ".stage(\"",
                ".mark(\"",
            ] {
                for at in find_all(&code, pat) {
                    let start = at + pat.chars().count();
                    // The code view masks literal interiors but keeps the
                    // delimiters at their source columns, so the closing
                    // quote in the view locates the literal in the raw line.
                    let Some(len) = code[start..].iter().position(|&c| c == '"') else {
                        continue;
                    };
                    let name: String = raw
                        .get(i)
                        .map(|r| r.chars().skip(start).take(len).collect())
                        .unwrap_or_default();
                    if !name.is_empty() {
                        sites.push((name, path.clone(), i));
                    }
                }
            }
        }
    }
    for (k, (name, path, line)) in sites.iter().enumerate() {
        if let Some((_, first_path, first_line)) = sites[..k].iter().find(|(n, _, _)| n == name) {
            push(
                &mut out,
                RULE,
                path,
                *line,
                format!(
                    "duplicate registration of metric `{name}` (first registered at \
                     {first_path}:{}; reuse that handle — the registry aliases by name)",
                    first_line + 1
                ),
            );
            continue; // don't also report the duplicate as undocumented
        }
        if !documented(catalog, name) {
            push(
                &mut out,
                RULE,
                path,
                *line,
                format!(
                    "metric `{name}` is not documented in docs/observability.md \
                     (add a catalog line: - `{name}` — meaning)"
                ),
            );
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// All char positions where `pat` (ASCII) starts in `chars`.
fn find_all(chars: &[char], pat: &str) -> Vec<usize> {
    let p: Vec<char> = pat.chars().collect();
    if chars.len() < p.len() {
        return Vec::new();
    }
    (0..=chars.len() - p.len())
        .filter(|&i| chars[i..i + p.len()] == p[..])
        .collect()
}

/// Is `name` documented in the catalog — a line carrying the backticked
/// name *and* a non-empty meaning after it (separator punctuation alone
/// does not count as a meaning)?
fn documented(catalog: &str, name: &str) -> bool {
    let tick = format!("`{name}`");
    catalog.lines().any(|l| {
        l.find(&tick).is_some_and(|pos| {
            l[pos + tick.len()..]
                .trim_matches(|c: char| c.is_whitespace() || "—–-:|.".contains(c))
                .chars()
                .any(|c| c.is_alphanumeric())
        })
    })
}

/// `no-stray-allow`: `#[allow(…)]` / `#![allow(…)]` in first-party source
/// must be an allowlisted, documented exception — otherwise lint debt
/// accumulates invisibly (PR 6 found one provably stale attribute).
fn rule_stray_allow(path: &str, m: &MaskedFile, out: &mut Vec<Violation>) {
    // Compat shims mirror third-party APIs and carry their own allows; the
    // rule covers first-party crate sources and the facade root.
    let first_party = (path.starts_with("crates/") && !is_compat(path)) || path == "src/lib.rs";
    if !first_party {
        return;
    }
    for (i, line) in m.code.iter().enumerate() {
        if line.contains("#[allow(") || line.contains("#![allow(") {
            push(
                out,
                "no-stray-allow",
                path,
                i,
                "lint allow attribute without a documented allowlist entry".into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_covers_mod_block() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let m = mask(src);
        let t = cfg_test_lines(&m.code);
        assert_eq!(t, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_use_statement_is_one_statement() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { q.unwrap(); }\n";
        let m = mask(src);
        let t = cfg_test_lines(&m.code);
        assert_eq!(t, vec![true, true, false]);
    }

    #[test]
    fn scope_derivation() {
        assert!(in_crate_src("crates/gps-core/src/heap.rs", HOT_PATH_CRATES));
        assert!(!in_crate_src("crates/gps-core/tests/x.rs", HOT_PATH_CRATES));
        assert!(!in_crate_src(
            "crates/gps-serve/src/serve.rs",
            HOT_PATH_CRATES
        ));
        assert!(is_crate_root("crates/gps-core/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/gps-core/src/heap.rs"));
    }

    #[test]
    fn ordering_comment_block_above_is_accepted() {
        let src = "// ordering: Release pairs with the reader's Acquire\n\
                   // (second comment line).\n\
                   seq.store(1, Ordering::Release);\n";
        let v = lint_source("crates/gps-serve/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != "atomics-justified"), "{v:?}");
    }

    #[test]
    fn ordering_without_comment_fires() {
        let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::Release); }\n";
        let v = lint_source("crates/gps-serve/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "atomics-justified");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let src = "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }\n";
        assert!(lint_source("crates/gps-core/src/x.rs", src).is_empty());
    }
}
