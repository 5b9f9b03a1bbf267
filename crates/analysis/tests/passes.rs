//! Integration tests for the analysis passes' external surfaces.
//!
//! The machine-readable JSON report (`--json`) and the audit table are
//! consumed by scripts and CI tooling, so their exact shape is pinned here:
//! a change to keys, ordering, or escaping must update these snapshots
//! deliberately.

use lcrec_analysis::annot::{audit_table, json_report, Allow, JsonFinding, Scope};
use lcrec_analysis::envdoc::{undocumented_env_reads, unread_env_rows};

fn sample_allow(file: &str, line: usize, scope: Scope, reason: &str) -> Allow {
    Allow {
        file: file.into(),
        line,
        comment_line: line,
        scope,
        reason: reason.to_string(),
        used: true,
    }
}

#[test]
fn json_report_shape_is_stable() {
    let findings = vec![
        JsonFinding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "panic-unwrap".into(),
            detail: "said \"hi\"".into(),
        },
        JsonFinding {
            file: "crates/a/src/lib.rs".into(),
            line: 2,
            rule: "det-time".into(),
            detail: "wall-clock read".into(),
        },
    ];
    let allows = vec![sample_allow("crates/y/src/lib.rs", 3, Scope::Det, "sum is order-independent")];
    let got = json_report("panicscan", &findings, &allows);
    let want = "{\n  \"pass\": \"panicscan\",\n  \"findings\": [\n    {\"file\": \
                \"crates/a/src/lib.rs\", \"line\": 2, \"rule\": \"det-time\", \"detail\": \
                \"wall-clock read\"},\n    {\"file\": \"crates/x/src/lib.rs\", \"line\": 7, \
                \"rule\": \"panic-unwrap\", \"detail\": \"said \\\"hi\\\"\"}\n  ],\n  \
                \"allowed\": [\n    {\"file\": \"crates/y/src/lib.rs\", \"line\": 3, \
                \"scope\": \"det\", \"reason\": \"sum is order-independent\"}\n  ]\n}\n";
    assert_eq!(got, want);
}

#[test]
fn empty_json_report_shape_is_stable() {
    let got = json_report("detlint", &[], &[]);
    assert_eq!(got, "{\n  \"pass\": \"detlint\",\n  \"findings\": [],\n  \"allowed\": []\n}\n");
}

#[test]
fn audit_table_rows_are_sorted_and_aligned() {
    let allows = vec![
        sample_allow("crates/z/src/lib.rs", 9, Scope::Panic, "len checked above"),
        sample_allow("crates/a/src/lib.rs", 4, Scope::Det, "sorted right after"),
    ];
    let got = audit_table(&allows);
    let want = "location               scope  reason\n\
                crates/a/src/lib.rs:4  det    sorted right after\n\
                crates/z/src/lib.rs:9  panic  len checked above\n";
    assert_eq!(got, want);
}

#[test]
fn envdoc_flags_reads_without_rows_and_rows_without_reads() {
    let root = std::env::temp_dir().join(format!("lcrec-envdoc-{}", std::process::id()));
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::create_dir_all(root.join("docs")).expect("mkdir");
    // Assembled so this file's own lines never read as `_ENV` constants
    // when the real gate scans the workspace.
    let p = concat!("LCREC", "_");
    std::fs::write(
        src.join("lib.rs"),
        format!("pub const KEPT_ENV: &str = \"{p}KEPT\";\npub const NEW_ENV: &str = \"{p}NEW\";\n"),
    )
    .expect("write source");
    // `LCREC_GONE` keeps a row after its read was deleted; the `LCREC_NEW`
    // mention in another cell is a cross-reference, not a row.
    std::fs::write(
        root.join("docs/ENVIRONMENT.md"),
        "| Variable | Effect |\n|---|---|\n\
         | `LCREC_KEPT` | composes with `LCREC_NEW` |\n\
         | `LCREC_GONE` | a deleted knob |\n",
    )
    .expect("write doc");
    assert!(undocumented_env_reads(&root).is_empty(), "prose mentions still document a read");
    assert_eq!(unread_env_rows(&root), vec!["LCREC_GONE".to_string()]);
    std::fs::remove_dir_all(&root).ok();
}
