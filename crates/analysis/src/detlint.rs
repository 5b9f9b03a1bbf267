//! Determinism-hazard analysis (`detlint`).
//!
//! The workspace's central contract is bit-identical decoding at any thread
//! count, batch composition, and process restart (DESIGN.md "Threading
//! model", `tests/determinism.rs`). This pass scans every non-test source
//! file for the constructs that historically break that contract and flags
//! each one unless it carries a `// lint: allow(det, reason = …)`
//! annotation (see [`crate::annot`]):
//!
//! * **`det-hash-iter`** — iterating a `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `for … in &map`, …). Hash
//!   iteration order is randomized per process, so any such loop whose
//!   order reaches an output must be sorted or rewritten over a `BTreeMap`.
//!   Receivers are typed with the same lightweight inference the panic
//!   pass uses (params, `let` bindings, statics, struct fields); untypeable
//!   receivers are skipped, so this rule under-approximates — it exists to
//!   catch the common declared-container cases, not to prove absence.
//! * **`det-time`** — `Instant::now(`/`SystemTime::now(` outside
//!   `crates/obs` (the observability crate owns wall-clock measurement;
//!   everything else must treat time as data passed in).
//! * **`det-thread`** — `available_parallelism`, `thread::current` or
//!   `ThreadId` outside `crates/par` (the pool crate owns parallelism
//!   decisions; results must never depend on worker identity).
//! * **`det-env`** — `env::var` reads outside the blessed per-crate gate
//!   modules ([`ENV_GATE_FILES`]): every `LCREC_*` switch is read once, in
//!   one documented place per crate (see also the `envdoc` pass).
//!
//! Like the panic pass, every annotation needs a reason, appears in the
//! audit table, and turns into a `stale-allow` finding the moment it stops
//! suppressing anything.

use crate::annot::{parse_allows, Allow, JsonFinding, Scope};
use crate::panicscan::{load_workspace, SourceFile};
use crate::parse::{line_calls, param_types, scan_items, static_type, struct_fields, CallKind};
use std::collections::BTreeMap;
use std::path::Path;

/// Files allowed to read process environment variables: one gate module
/// per crate that takes an `LCREC_*` switch, so every env read stays next
/// to the documentation row `envdoc` enforces.
pub const ENV_GATE_FILES: &[&str] = &[
    "crates/fault/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/par/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/tensor/src/sanitize.rs",
];

/// Order-sensitive iteration methods on hash containers.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain"];

/// The outcome of a detlint run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by file/line/rule. Empty = pass clean.
    pub findings: Vec<JsonFinding>,
    /// Every `allow(det, …)` annotation honoured this run.
    pub allows: Vec<Allow>,
    /// Files scanned.
    pub files_scanned: usize,
}

fn is_hash_container(ty: &str) -> bool {
    matches!(ty, "HashMap" | "HashSet")
}

fn under(rel: &Path, prefix: &str) -> bool {
    rel.to_string_lossy().replace('\\', "/").starts_with(prefix)
}

/// Runs the analysis over pre-loaded files (the unit-testable core of
/// [`scan_workspace`]).
pub fn analyze(files: &[SourceFile]) -> Report {
    let mut findings: Vec<JsonFinding> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();

    // Struct fields across the workspace, for `self.field` receivers.
    let mut fields: BTreeMap<(String, String), String> = BTreeMap::new();
    for file in files {
        for (s, f, t) in struct_fields(&file.stripped) {
            fields.insert((s, f), t);
        }
    }

    for file in files {
        let rel_str = file.rel.to_string_lossy().replace('\\', "/");
        let in_obs = under(&file.rel, "crates/obs/");
        let in_par = under(&file.rel, "crates/par/");
        let env_gate = ENV_GATE_FILES.iter().any(|f| rel_str == *f);

        let (mut al, malformed) = parse_allows(&file.rel, &file.raw, &file.mask);
        for (line, problem) in malformed {
            findings.push(JsonFinding {
                file: file.rel.clone(),
                line,
                rule: "malformed-allow".into(),
                detail: problem.to_string(),
            });
        }

        // Lightweight receiver typing, shared in spirit with panicscan:
        // per-function params + lets, plus file-level statics.
        let scan = scan_items(&file.stripped);
        let lines: Vec<&str> = file.stripped.lines().collect();
        let mut fn_types: Vec<BTreeMap<String, String>> =
            vec![BTreeMap::new(); scan.items.len()];
        for (ii, item) in scan.items.iter().enumerate() {
            let mut decl = String::new();
            for line in lines.iter().skip(item.decl_line).take(24) {
                match line.find('{') {
                    Some(at) => {
                        decl.push_str(&line[..at]);
                        break;
                    }
                    None => {
                        decl.push_str(line);
                        decl.push(' ');
                    }
                }
            }
            fn_types[ii].extend(param_types(&decl));
        }
        let mut statics: BTreeMap<String, String> = BTreeMap::new();
        for line in &lines {
            if let Some((n, t)) = static_type(line) {
                statics.insert(n, t);
            }
        }
        for (li, line) in lines.iter().enumerate() {
            if file.mask.get(li).copied().unwrap_or(false) {
                continue;
            }
            if let (Some(owner), Some((n, t))) =
                (scan.line_owner.get(li).copied().flatten(), crate::parse::let_type(line))
            {
                fn_types[owner].insert(n, t);
            }
        }
        // Resolves a dotted receiver path to a type head, if possible.
        let resolve = |owner: Option<usize>, path: &str| -> Option<String> {
            let mut segs = path.split('.');
            let first = segs.next()?;
            let mut ty: String = if first == "self" {
                scan.items.get(owner?)?.impl_type.clone()?
            } else {
                let local = owner.and_then(|o| fn_types.get(o)).and_then(|m| m.get(first));
                local.or_else(|| statics.get(first))?.clone()
            };
            for seg in segs {
                ty = fields.get(&(ty, seg.to_string()))?.clone();
            }
            Some(ty)
        };

        let mut hits: Vec<(usize, &'static str, String)> = Vec::new();
        for (li, line) in lines.iter().enumerate() {
            if file.mask.get(li).copied().unwrap_or(false) {
                continue;
            }
            let owner = scan.line_owner.get(li).copied().flatten();
            // det-hash-iter: typed method receivers.
            for call in line_calls(line) {
                if call.kind != CallKind::Method
                    || !ITER_METHODS.contains(&call.name.as_str())
                {
                    continue;
                }
                let Some(path) = call.receiver.as_deref() else { continue };
                if resolve(owner, path).as_deref().is_some_and(is_hash_container) {
                    hits.push((
                        li + 1,
                        "det-hash-iter",
                        format!(
                            "hash-container iteration `{path}.{}(…)` — order is \
                             process-randomized",
                            call.name
                        ),
                    ));
                }
            }
            // det-hash-iter: `for … in &container` loops.
            if let Some(at) = crate::parse::find_token(line, "for") {
                if let Some(in_at) = crate::parse::find_token(&line[at..], "in") {
                    let after = line[at + in_at + 2..]
                        .trim_start()
                        .trim_start_matches('&')
                        .trim_start_matches("mut ");
                    let head: String = after
                        .chars()
                        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                        .collect();
                    if !head.is_empty()
                        && resolve(owner, &head).as_deref().is_some_and(is_hash_container)
                    {
                        hits.push((
                            li + 1,
                            "det-hash-iter",
                            format!(
                                "hash-container loop `for … in {head}` — order is \
                                 process-randomized"
                            ),
                        ));
                    }
                }
            }
            // det-time.
            if !in_obs {
                for needle in ["Instant::now(", "SystemTime::now("] {
                    if line.contains(needle) {
                        hits.push((
                            li + 1,
                            "det-time",
                            format!(
                                "wall-clock read `{}` outside crates/obs",
                                needle.trim_end_matches('(')
                            ),
                        ));
                    }
                }
            }
            // det-thread.
            if !in_par {
                for needle in ["available_parallelism", "thread::current", "ThreadId"] {
                    if crate::parse::find_token(line, needle.split(':').next_back().unwrap_or(needle))
                        .is_some()
                        && line.contains(needle)
                    {
                        hits.push((
                            li + 1,
                            "det-thread",
                            format!("thread-identity read `{needle}` outside crates/par"),
                        ));
                    }
                }
            }
            // det-env.
            if !env_gate && line.contains("env::var") {
                hits.push((
                    li + 1,
                    "det-env",
                    "environment read outside the crate's gate module (see \
                     detlint::ENV_GATE_FILES)"
                        .to_string(),
                ));
            }
        }

        for (line, rule, detail) in hits {
            let allowed = al.iter_mut().any(|a| {
                a.scope == Scope::Det && a.line == line && {
                    a.used = true;
                    true
                }
            });
            if allowed {
                continue;
            }
            findings.push(JsonFinding { file: file.rel.clone(), line, rule: rule.into(), detail });
        }
        allows.extend(al.into_iter().filter(|a| a.scope == Scope::Det));
    }

    for a in &allows {
        if !a.used {
            findings.push(JsonFinding {
                file: a.file.clone(),
                line: a.comment_line,
                rule: "stale-allow".into(),
                detail: format!(
                    "allow(det) suppresses nothing (reason was: {}) — delete it",
                    a.reason
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Report { findings, allows, files_scanned: files.len() }
}

/// Loads the workspace under `root` and runs [`analyze`].
pub fn scan_workspace(root: &Path) -> Report {
    analyze(&load_workspace(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel, src)
    }

    #[test]
    fn typed_hash_iteration_is_flagged_and_btreemap_is_not() {
        let src = "\
fn f() {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    for k in seen.keys() {
        g(k);
    }
    let sorted: BTreeMap<u32, u32> = BTreeMap::new();
    for k in sorted.keys() {
        g(k);
    }
}
";
        let r = analyze(&[file("crates/x/src/lib.rs", src)]);
        let hash: Vec<&JsonFinding> =
            r.findings.iter().filter(|f| f.rule == "det-hash-iter").collect();
        assert_eq!(hash.len(), 1, "{:?}", r.findings);
        assert_eq!(hash[0].line, 3);
    }

    #[test]
    fn for_loop_over_hash_field_is_flagged() {
        let src = "\
struct Index {
    names: HashSet<String>,
}
impl Index {
    fn dump(&self) {
        for n in &self.names {
            emit(n);
        }
    }
}
";
        let r = analyze(&[file("crates/x/src/lib.rs", src)]);
        assert!(
            r.findings.iter().any(|f| f.rule == "det-hash-iter" && f.line == 6),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn time_thread_and_env_rules_respect_blessed_locations() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(analyze(&[file("crates/obs/src/lib.rs", src)]).findings.is_empty());
        let r = analyze(&[file("crates/core/src/lm.rs", src)]);
        assert!(r.findings.iter().any(|f| f.rule == "det-time"), "{:?}", r.findings);

        let src = "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n";
        assert!(analyze(&[file("crates/par/src/lib.rs", src)]).findings.is_empty());
        let r = analyze(&[file("crates/core/src/lm.rs", src)]);
        assert!(r.findings.iter().any(|f| f.rule == "det-thread"), "{:?}", r.findings);

        let src = "fn f() { let v = std::env::var(\"LCREC_OBS\"); }\n";
        assert!(analyze(&[file("crates/obs/src/lib.rs", src)]).findings.is_empty());
        let r = analyze(&[file("crates/obs/src/other.rs", src)]);
        assert!(r.findings.iter().any(|f| f.rule == "det-env"), "{:?}", r.findings);
    }

    #[test]
    fn det_allow_suppresses_and_goes_stale() {
        let src = format!(
            "fn f() {{\n    let mut seen: HashMap<u32, u32> = HashMap::new();\n    \
             let s: u32 = seen.values().sum(); {} lint: allow(det, reason = \"sum is \
             order-independent\")\n    let _ = s;\n}}\n",
            "//"
        );
        let r = analyze(&[file("crates/x/src/lib.rs", &src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allows.len(), 1);
        assert!(r.allows[0].used);

        let stale = format!(
            "fn f() {{\n    {} lint: allow(det, reason = \"nothing here\")\n    let x = 1;\n}}\n",
            "//"
        );
        let r = analyze(&[file("crates/x/src/lib.rs", &stale)]);
        assert!(r.findings.iter().any(|f| f.rule == "stale-allow"), "{:?}", r.findings);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let t = Instant::now(); }\n}\n";
        let r = analyze(&[file("crates/core/src/lm.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
