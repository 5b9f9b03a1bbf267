//! Env-var documentation gate, both directions: every `LCREC_*`
//! environment variable the source tree reads must have a row in
//! `docs/ENVIRONMENT.md`, and every row must name a variable something
//! still reads — deleting a knob cannot leave its row behind.
//!
//! The scanner finds reads two ways, both on raw (non-comment) source
//! lines:
//!
//! 1. direct reads — a `LCREC_*` string literal on a line that also calls
//!    `env::var`, and
//! 2. named constants — a `LCREC_*` string literal in a `const *_ENV`
//!    declaration (the workspace convention for indirect reads such as
//!    `Pool::from_env` / `FaultPlan::from_env`).
//!
//! Anything found is diffed against the variable names mentioned anywhere
//! in the documentation; an undocumented read fails the gate
//! ([`undocumented_env_reads`]). The reverse diff takes the variable named
//! in the first cell of each table row; a row no read matches fails it too
//! ([`unread_env_rows`]). Run it from the CLI
//! (`cargo run -p lcrec-analysis -- envdoc`); `tests/correctness.rs`
//! enforces both directions.
//!
//! The needles below are assembled with `concat!` so this file's own
//! string literals never match themselves.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The documentation file that must mention every read variable, relative
/// to the workspace root.
pub const ENV_DOC_FILE: &str = "docs/ENVIRONMENT.md";

/// One `LCREC_*` environment read found in the source tree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EnvRead {
    /// Variable name, e.g. `LCREC_THREADS`.
    pub var: String,
    /// File the read (or its `_ENV` constant) lives in, relative to the
    /// scanned root.
    pub file: PathBuf,
    /// 1-based line of the match.
    pub line: usize,
}

impl fmt::Display for EnvRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: `{}` is read here but not documented in {}",
            self.file.display(),
            self.line,
            self.var,
            ENV_DOC_FILE
        )
    }
}

fn is_var_char(c: char) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
}

/// Extracts every `LCREC_*` name that appears in `text` after `needle`
/// (which positions the scan just past the `LCREC_` prefix itself).
fn var_names_after(text: &str, needle: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(needle) {
        let tail = &rest[pos + needle.len()..];
        let suffix: String = tail.chars().take_while(|&c| is_var_char(c)).collect();
        out.push(format!("LCREC_{suffix}"));
        rest = tail;
    }
    out
}

/// Scans one file's raw source for `LCREC_*` environment reads. Comment
/// lines and `#[cfg(test)]` blocks are skipped, so prose mentions and test
/// fixtures don't count as reads (integration tests under `tests/` are
/// regular code and *do* count — `LCREC_UPDATE_GOLDEN` must be documented).
pub fn env_reads_source(relative: &Path, source: &str) -> Vec<EnvRead> {
    // Split so this function's own literals can't satisfy the scan.
    let read_needle = concat!("env", "::var");
    let literal_needle = concat!("\"", "LCREC_");
    let const_needle = concat!("_EN", "V");
    let mask =
        crate::lint::test_code_mask(&crate::parse::strip_comments_and_strings(source));
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = raw.trim_start();
        if t.starts_with("//") {
            continue;
        }
        if !raw.contains(literal_needle) {
            continue;
        }
        let direct_read = raw.contains(read_needle);
        let env_const = raw.contains("const") && raw.contains(const_needle);
        if !(direct_read || env_const) {
            continue;
        }
        for var in var_names_after(raw, literal_needle) {
            out.push(EnvRead { var, file: relative.to_path_buf(), line: i + 1 });
        }
    }
    out
}

/// Every `LCREC_*` environment read in the workspace sources under `root`,
/// sorted by variable name then location.
pub fn env_reads_workspace(root: &Path) -> Vec<EnvRead> {
    let mut files = Vec::new();
    crate::lint::walk(root, &mut files);
    let mut out = Vec::new();
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else { continue };
        let relative = file.strip_prefix(root).unwrap_or(&file);
        out.extend(env_reads_source(relative, &source));
    }
    out.sort();
    out
}

/// Variable names mentioned in the documentation text (any `LCREC_*`
/// token, in table rows, prose or code blocks).
pub fn documented_vars(doc: &str) -> BTreeSet<String> {
    // In markdown the names appear bare (no leading quote), so scan for
    // the prefix itself.
    let needle = concat!("LCREC", "_");
    doc.lines().flat_map(|l| var_names_after(l, needle)).collect()
}

/// Variable names the documentation table has a row for: the `LCREC_*`
/// name in the first cell of each `|`-delimited line. Names mentioned in
/// other cells or in prose are cross-references, not rows.
fn table_vars(doc: &str) -> BTreeSet<String> {
    let needle = concat!("LCREC", "_");
    doc.lines()
        .filter_map(|l| l.trim_start().strip_prefix('|'))
        .filter_map(|row| row.split('|').next())
        .flat_map(|cell| var_names_after(cell, needle))
        .collect()
}

/// The gate: every environment read under `root` whose variable is not
/// mentioned in [`ENV_DOC_FILE`]. A missing or unreadable documentation
/// file flags every read.
pub fn undocumented_env_reads(root: &Path) -> Vec<EnvRead> {
    let doc = std::fs::read_to_string(root.join(ENV_DOC_FILE)).unwrap_or_default();
    let documented = documented_vars(&doc);
    env_reads_workspace(root)
        .into_iter()
        .filter(|r| !documented.contains(&r.var))
        .collect()
}

/// The reverse gate: every variable with a row in [`ENV_DOC_FILE`]'s
/// table (the name in a row's first cell) that no source under `root`
/// reads, sorted.
pub fn unread_env_rows(root: &Path) -> Vec<String> {
    let doc = std::fs::read_to_string(root.join(ENV_DOC_FILE)).unwrap_or_default();
    let read: BTreeSet<String> = env_reads_workspace(root).into_iter().map(|r| r.var).collect();
    table_vars(&doc).into_iter().filter(|v| !read.contains(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_reads_and_env_consts_are_found() {
        let src = r#"
let on = std::env::var("LCREC_OBS").is_ok();
pub const THREADS_ENV: &str = "LCREC_THREADS";
"#;
        let reads = env_reads_source(Path::new("a.rs"), src);
        let vars: Vec<&str> = reads.iter().map(|r| r.var.as_str()).collect();
        assert_eq!(vars, vec!["LCREC_OBS", "LCREC_THREADS"]);
        assert_eq!(reads[0].line, 2);
    }

    #[test]
    fn comments_and_plain_literals_do_not_count() {
        let src = r#"
// env::var("LCREC_COMMENTED") is just prose
let msg = "LCREC_NOT_A_READ";
"#;
        assert!(env_reads_source(Path::new("a.rs"), src).is_empty());
    }

    #[test]
    fn documented_vars_parses_table_rows_and_prose() {
        let doc = "| `LCREC_THREADS` | `1` | workers |\nSee also LCREC_OBS.\n";
        let vars = documented_vars(doc);
        assert!(vars.contains("LCREC_THREADS"));
        assert!(vars.contains("LCREC_OBS"));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn table_vars_reads_only_first_cells() {
        let doc = "| Variable | Effect |\n|---|---|\n\
                   | `LCREC_SHARDS` | each shard gets its own `LCREC_SERVE_QUEUE` |\n\
                   See also LCREC_OBS.\n";
        let vars: Vec<String> = table_vars(doc).into_iter().collect();
        assert_eq!(vars, vec!["LCREC_SHARDS"]);
    }

    #[test]
    fn workspace_reads_are_all_documented() {
        // The real gate, run against the real tree (also enforced as a
        // tier-1 test in tests/correctness.rs).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let missing = undocumented_env_reads(root);
        assert!(
            missing.is_empty(),
            "undocumented env reads:\n{}",
            missing.iter().map(|m| format!("  {m}\n")).collect::<String>()
        );
        assert_eq!(unread_env_rows(root), Vec::<String>::new(), "rows nothing reads");
        // Sanity: the scanner actually sees the known reads.
        let all = env_reads_workspace(root);
        for expected in ["LCREC_THREADS", "LCREC_OBS", "LCREC_SANITIZE", "LCREC_FAULT"] {
            assert!(
                all.iter().any(|r| r.var == expected),
                "scanner lost track of {expected}; found: {all:?}"
            );
        }
    }
}
