//! # dcn-lint — the determinism & hygiene static-analysis pass
//!
//! Every guarantee this reproduction makes — byte-identical reports
//! across threads, processes, and cache states; version-salted cache
//! keys; observability that never leaks into report bytes — is a
//! *source-level* discipline. This crate mechanizes it: a hand-rolled,
//! zero-dependency scanner (tokenizer + lightweight item/path analysis,
//! same spirit as the hand-rolled JSON parser behind `xp diff`) walks
//! every workspace crate and rejects the hazard classes that have
//! actually bitten (PR 1 converted `MetricsHub` to `BTreeMap` after a
//! hash-iteration nondeterminism surfaced at runtime).
//!
//! Rules (see [`rules`] and DESIGN.md for the full table):
//!
//! * **R1** — no `HashMap`/`HashSet` *iteration* (keyed lookups stay
//!   legal);
//! * **R2** — no `Instant::now`/`SystemTime` outside the observability
//!   allowlist;
//! * **R3** — no `std::env::var` outside the runner CLI and tests;
//! * **R4** — no `unsafe` anywhere;
//! * **R5** — every engine `*_VERSION` salt and `EngineKind` arm must be
//!   referenced in `crates/runner/src/key.rs`;
//! * **R6** — every `Cargo.toml` dependency must be a `path` dependency;
//! * **R7** — every `// lint:allow(RXX): reason` must suppress a real
//!   violation (stale or malformed allows are errors).
//!
//! Run it as `xp lint [--json] [--root DIR]`. Violations
//! print as `file:line: rule[RXX] message` with a nonzero exit; `--json`
//! emits NDJSON in the span-record style of the runner's `--log-json`
//! stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lex;
pub mod rules;
mod walk;

pub use rules::{check_manifest, check_salt_coverage, lint_source, FileLint, Violation};
pub use walk::{find_workspace_root, workspace_files};

use std::path::Path;

/// Aggregate result of a workspace lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations across the workspace, ordered by (file, line).
    pub violations: Vec<Violation>,
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files: usize,
    /// Number of well-formed inline suppressions encountered.
    pub allows: usize,
}

impl Report {
    /// True when the workspace lints clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering: one `file:line: rule[RXX] message`
    /// line per violation.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&v.render());
            s.push('\n');
        }
        s
    }

    /// NDJSON rendering: one `{"record":"violation",...}` object per
    /// violation and a final `{"record":"lint-summary",...}` line —
    /// the same one-object-per-line grammar as the runner's span
    /// stream, so the same tooling greps both.
    pub fn to_ndjson(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!(
                "{{\"record\":\"violation\",\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\
                 \"message\":\"{}\"}}\n",
                json_escape(&v.file),
                v.line,
                v.rule,
                json_escape(&v.message),
            ));
        }
        s.push_str(&format!(
            "{{\"record\":\"lint-summary\",\"files\":{},\"violations\":{},\"allows\":{}}}\n",
            self.files,
            self.violations.len(),
            self.allows
        ));
        s
    }
}

/// Read every workspace file once, as (relative path, source) pairs.
/// Exposed so tests can doctor individual sources and re-check.
pub fn read_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let rels = workspace_files(root)?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        files.push((rel, src));
    }
    Ok(files)
}

/// The path (from the workspace root) where cache keys are derived —
/// the reference target of R5.
pub const KEY_RS: &str = "crates/runner/src/key.rs";

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files = read_workspace(root)?;
    Ok(lint_files(&files))
}

/// Lint an in-memory workspace file set (the backing of
/// [`lint_workspace`]; tests feed doctored copies through here).
pub fn lint_files(files: &[(String, String)]) -> Report {
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    for (rel, src) in files {
        if rel.ends_with(".rs") {
            let lint = lint_source(rel, src);
            report.allows += lint.allows;
            report.violations.extend(lint.violations);
        } else {
            report.violations.extend(check_manifest(rel, src));
        }
    }
    match files.iter().find(|(rel, _)| rel == KEY_RS) {
        Some((_, key_src)) => report
            .violations
            .extend(check_salt_coverage(files, key_src)),
        None => report.violations.push(Violation {
            file: KEY_RS.to_string(),
            line: 1,
            rule: "R5",
            message: "cache-key derivation file is missing: version salts have nowhere to \
                      be referenced"
                .to_string(),
        }),
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

// Own copy of `dcn_telemetry::jstr`'s escaping: this crate is dependency-free by design.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `xp lint` entry point: parse `[--json] [--root DIR]`, lint, print, and return
/// the process exit code (0 clean, 1 violations, 2 usage/IO error).
pub fn cli_main(args: &[String]) -> u8 {
    let mut json = false;
    let mut root_arg: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(v) => root_arg = Some(v.clone()),
                    None => {
                        eprintln!("error: --root needs a value");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!("error: unknown argument {other:?}\nusage: lint [--json] [--root DIR]");
                return 2;
            }
        }
        i += 1;
    }
    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot determine working directory: {e}");
                    return 2;
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "error: no workspace root ([workspace] in Cargo.toml) at or above {}",
                        cwd.display()
                    );
                    return 2;
                }
            }
        }
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if json {
        print!("{}", report.to_ndjson());
    } else {
        print!("{}", report.to_text());
    }
    if report.is_clean() {
        eprintln!(
            "lint clean: {} file(s), {} inline allow(s), rules R1-R7",
            report.files, report.allows
        );
        0
    } else {
        eprintln!(
            "lint FAILED: {} violation(s) across {} file(s)",
            report.violations.len(),
            report.files
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_shape_and_escaping() {
        let report = Report {
            violations: vec![Violation {
                file: "a.rs".into(),
                line: 3,
                rule: "R2",
                message: "uses \"now\"".into(),
            }],
            files: 1,
            allows: 0,
        };
        let nd = report.to_ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"record\":\"violation\""));
        assert!(lines[0].contains("\\\"now\\\""));
        assert!(lines[1].contains("\"record\":\"lint-summary\""));
        assert!(lines[1].contains("\"violations\":1"));
    }

    #[test]
    fn lint_files_flags_missing_key_rs() {
        let files = vec![("crates/x/src/lib.rs".to_string(), "fn f() {}".to_string())];
        let report = lint_files(&files);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "R5");
        assert_eq!(report.violations[0].file, KEY_RS);
    }
}
