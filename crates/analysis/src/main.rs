//! CLI entry point:
//! `cargo run -p lcrec-analysis -- <lint|doccov|envdoc|panicscan|detlint|audit> [--json] [ROOT]`.
//!
//! Exits non-zero when any finding is reported, so every command can gate
//! CI and `scripts/check.sh`.

use lcrec_analysis::{annot, detlint, doccov, envdoc, lint, panicscan};
use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // When run via `cargo run -p lcrec-analysis`, the manifest dir is
    // crates/analysis; the workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = args.get(1).map(PathBuf::from).unwrap_or_else(workspace_root);
            let findings = lint::lint_workspace(&root);
            if findings.is_empty() {
                println!("lint: clean ({})", root.display());
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("doccov") => {
            let root = args.get(1).map(PathBuf::from).unwrap_or_else(workspace_root);
            let missing = doccov::missing_docs_workspace(&root);
            let examples = doccov::missing_examples_workspace(&root);
            if missing.is_empty() && examples.is_empty() {
                println!("doccov: clean ({})", root.display());
                ExitCode::SUCCESS
            } else {
                for m in &missing {
                    eprintln!("{m}");
                }
                for m in &examples {
                    eprintln!("{m}");
                }
                eprintln!(
                    "doccov: {} undocumented public item(s), {} entry point(s) without examples",
                    missing.len(),
                    examples.len()
                );
                ExitCode::FAILURE
            }
        }
        Some("envdoc") => {
            let root = args.get(1).map(PathBuf::from).unwrap_or_else(workspace_root);
            let missing = envdoc::undocumented_env_reads(&root);
            let unread = envdoc::unread_env_rows(&root);
            if missing.is_empty() && unread.is_empty() {
                println!("envdoc: clean ({})", root.display());
                ExitCode::SUCCESS
            } else {
                for m in &missing {
                    eprintln!("{m}");
                }
                for var in &unread {
                    eprintln!("{}: `{var}` has a row but nothing reads it", envdoc::ENV_DOC_FILE);
                }
                eprintln!(
                    "envdoc: {} undocumented env read(s), {} unread row(s)",
                    missing.len(),
                    unread.len()
                );
                ExitCode::FAILURE
            }
        }
        Some("panicscan") => {
            let json = args.iter().any(|a| a == "--json");
            let root = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            let r = panicscan::scan_workspace(&root);
            if json {
                print!("{}", annot::json_report("panicscan", &r.findings, &r.allows));
            }
            if r.findings.is_empty() {
                if !json {
                    println!(
                        "panicscan: clean — {} of {} fns reachable from {} entry points, \
                         {} annotated site(s)",
                        r.fns_reached,
                        r.fns_total,
                        panicscan::ENTRY_POINTS.len(),
                        r.allows.len()
                    );
                }
                ExitCode::SUCCESS
            } else {
                if !json {
                    for f in &r.findings {
                        eprintln!("{}:{}: [{}] {}", f.file.display(), f.line, f.rule, f.detail);
                    }
                    eprintln!("panicscan: {} finding(s)", r.findings.len());
                }
                ExitCode::FAILURE
            }
        }
        Some("detlint") => {
            let json = args.iter().any(|a| a == "--json");
            let root = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            let r = detlint::scan_workspace(&root);
            if json {
                print!("{}", annot::json_report("detlint", &r.findings, &r.allows));
            }
            if r.findings.is_empty() {
                if !json {
                    println!(
                        "detlint: clean — {} files scanned, {} annotated site(s)",
                        r.files_scanned,
                        r.allows.len()
                    );
                }
                ExitCode::SUCCESS
            } else {
                if !json {
                    for f in &r.findings {
                        eprintln!("{}:{}: [{}] {}", f.file.display(), f.line, f.rule, f.detail);
                    }
                    eprintln!("detlint: {} finding(s)", r.findings.len());
                }
                ExitCode::FAILURE
            }
        }
        Some("audit") => {
            let root = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            let p = panicscan::scan_workspace(&root);
            let d = detlint::scan_workspace(&root);
            let mut allows = p.allows;
            allows.extend(d.allows);
            print!("{}", annot::audit_table(&allows));
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: lcrec-analysis <lint|doccov|envdoc|panicscan|detlint|audit> \
                 [--json] [ROOT]"
            );
            ExitCode::from(2)
        }
    }
}
