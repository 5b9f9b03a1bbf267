//! Tier-1 correctness gates, run by a plain `cargo test` at the workspace
//! root so they cannot be skipped:
//!
//! 1. the full finite-difference gradcheck table over every differentiable
//!    autograd op,
//! 2. the coverage gate that fails when a new public op in `graph.rs` lacks
//!    a gradcheck entry, and
//! 3. the workspace lint pass (no panic paths on decoding hot paths, no
//!    scaffolding macros, no `unsafe`) over the repository sources,
//! 4. the doc-coverage gate: every public `fn`/`struct`/`enum` in the
//!    covered crates must carry `///` docs, and the main entry points must
//!    ship `# Examples` doc-tests,
//! 5. the env-var gate: every `LCREC_*` environment read must be
//!    documented in `docs/ENVIRONMENT.md`,
//! 6. the call-graph panic-reachability pass (`panicscan`) and the
//!    determinism-hazard pass (`detlint`): zero unannotated findings, and
//! 7. the load-bearing-annotation gate: deleting any single
//!    `// lint: allow(…)` in the workspace must re-surface at least one
//!    finding — an allow that suppresses nothing cannot survive.

use lcrec_analysis::annot::Scope;
use lcrec_analysis::panicscan::SourceFile;
use lcrec_analysis::{detlint, panicscan};
use lcrec_tensor::gradcheck;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn gradcheck_table_passes() {
    for case in gradcheck::cases() {
        eprintln!("gradcheck case: {}", case.name);
        (case.run)();
    }
}

#[test]
fn gradcheck_table_covers_every_public_op() {
    let public = lcrec_analysis::parse::public_fn_names(gradcheck::GRAPH_SOURCE);
    assert!(public.len() > 30, "graph.rs parse looks wrong: {} pub fns", public.len());
    let covered = gradcheck::covered_ops();
    let exempt: BTreeSet<&str> = gradcheck::NON_DIFFERENTIABLE_FNS.iter().copied().collect();
    let missing: Vec<&String> = public
        .iter()
        .filter(|f| !exempt.contains(f.as_str()) && !covered.contains(f.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "public graph ops without a gradcheck case: {missing:?} — add a case to \
         lcrec_tensor::gradcheck::cases() or, if genuinely non-differentiable, \
         to NON_DIFFERENTIABLE_FNS"
    );
}

#[test]
fn workspace_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = lcrec_analysis::lint::lint_workspace(root);
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn public_api_is_fully_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let missing = lcrec_analysis::doccov::missing_docs_workspace(root);
    assert!(
        missing.is_empty(),
        "undocumented public items (add `///` docs):\n{}",
        missing.iter().map(|m| format!("  {m}\n")).collect::<String>()
    );
}

#[test]
fn entry_points_have_examples() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let missing = lcrec_analysis::doccov::missing_examples_workspace(root);
    assert!(
        missing.is_empty(),
        "entry points without `# Examples` doc-tests:\n{}",
        missing.iter().map(|m| format!("  {m}\n")).collect::<String>()
    );
}

#[test]
fn panic_reachability_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let r = panicscan::scan_workspace(root);
    assert!(
        r.findings.is_empty(),
        "panicscan findings (refactor to Result/Option or annotate with a reason):\n{}",
        r.findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}\n", f.file.display(), f.line, f.rule, f.detail))
            .collect::<String>()
    );
    assert!(r.fns_reached > 50, "suspiciously small reach ({}) — entry points broken?", r.fns_reached);
}

#[test]
fn determinism_hazards_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let r = detlint::scan_workspace(root);
    assert!(
        r.findings.is_empty(),
        "detlint findings (sort the iteration, move the read to its gate module, or \
         annotate with a reason):\n{}",
        r.findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}\n", f.file.display(), f.line, f.rule, f.detail))
            .collect::<String>()
    );
}

#[test]
fn every_allow_annotation_is_load_bearing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = panicscan::load_workspace(root);
    let base_p = panicscan::analyze(&files);
    let base_d = detlint::analyze(&files);
    assert!(base_p.findings.is_empty() && base_d.findings.is_empty(), "baseline not clean");
    let mut all: Vec<(std::path::PathBuf, usize, Scope)> = Vec::new();
    for a in base_p.allows.iter().chain(base_d.allows.iter()) {
        all.push((a.file.clone(), a.comment_line, a.scope));
    }
    assert!(!all.is_empty(), "no annotations found — parsing broken?");
    // The annotation marker, split so this test file can never match it.
    let marker = concat!("// lint", ": allow(");
    for (file, comment_line, scope) in all {
        let modified: Vec<SourceFile> = files
            .iter()
            .map(|f| {
                let raw = if f.rel == file {
                    f.raw
                        .lines()
                        .enumerate()
                        .map(|(i, l)| {
                            if i + 1 == comment_line {
                                match l.find(marker) {
                                    Some(at) => l[..at].trim_end().to_string(),
                                    None => l.to_string(),
                                }
                            } else {
                                l.to_string()
                            }
                        })
                        .collect::<Vec<String>>()
                        .join("\n")
                } else {
                    f.raw.clone()
                };
                SourceFile::new(f.rel.clone(), raw)
            })
            .collect();
        let findings = match scope {
            Scope::Panic => panicscan::analyze(&modified).findings,
            Scope::Det => detlint::analyze(&modified).findings,
        };
        assert!(
            !findings.is_empty(),
            "deleting the allow({}) at {}:{} surfaced no finding — the annotation is \
             dead weight and the pass should have flagged it as stale",
            match scope {
                Scope::Panic => "panic",
                Scope::Det => "det",
            },
            file.display(),
            comment_line
        );
    }
}

#[test]
fn env_reads_are_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let missing = lcrec_analysis::envdoc::undocumented_env_reads(root);
    assert!(
        missing.is_empty(),
        "env reads missing from docs/ENVIRONMENT.md:\n{}",
        missing.iter().map(|m| format!("  {m}\n")).collect::<String>()
    );
    let unread = lcrec_analysis::envdoc::unread_env_rows(root);
    assert!(unread.is_empty(), "docs/ENVIRONMENT.md rows nothing reads: {unread:?}");
}
