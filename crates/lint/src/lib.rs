//! # dcn-lint — the workspace invariants no compiler lint can see
//!
//! Every guarantee this reproduction makes — byte-identical reports
//! across threads, processes, and cache states; version-salted cache
//! keys; observability that never leaks into report bytes — is a
//! *source-level* discipline, and each rule of it is enforced once, by
//! the tool that already evaluates it: hash-ordered containers, wall
//! clocks and environment reads by `clippy.toml` (clippy resolves
//! paths, so an alias hides nothing), `unsafe` and reason-less
//! suppressions by the root manifest's `[workspace.lints]`, stale
//! suppressions by rustc's `#[expect]`. DESIGN.md "Static analysis" has
//! the rule → tool table.
//!
//! This crate keeps the three rules that need the whole file set rather
//! than one crate's AST — salt coverage (R5), offline dependencies (R6)
//! and lint inheritance (R8, which is what stops a new crate from opting
//! out of all of the above); [`rules`] has the table.
//!
//! Run it as `xp lint`. Violations print as `file:line: rule[RXX]
//! message` with a nonzero exit, or as NDJSON in the span-record style
//! of the runner's `--log-json` stream.

#![warn(missing_docs)]

pub mod rules;
mod walk;

pub use rules::{check_manifest, check_salt_coverage, Violation};
pub use walk::{find_workspace_root, read_workspace};

use std::path::{Path, PathBuf};

/// Aggregate result of a workspace lint run.
#[derive(Clone, Debug)]
pub struct Report {
    /// All violations across the workspace, ordered by (file, line).
    pub violations: Vec<Violation>,
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files: usize,
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
            "{{\"record\":\"lint-summary\",\"files\":{},\"violations\":{}}}\n",
            self.files,
            self.violations.len()
        ));
        s
    }
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
    let mut violations = Vec::new();
    for (rel, src) in files.iter().filter(|(rel, _)| !rel.ends_with(".rs")) {
        violations.extend(check_manifest(rel, src));
    }
    match files.iter().find(|(rel, _)| rel == KEY_RS) {
        Some((_, key_src)) => violations.extend(check_salt_coverage(files, key_src)),
        None => violations.push(Violation::new(
            KEY_RS,
            1,
            "R5",
            "cache-key derivation file is missing: version salts have nowhere to be referenced",
        )),
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        violations,
        files: files.len(),
    }
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

/// The `xp lint` entry point: lint the workspace at `root` (default: the
/// one at or above the working directory), print, and return the process
/// exit code (0 clean, 1 violations, 2 IO error).
pub fn cli_main(json: bool, root: Option<PathBuf>) -> u8 {
    match lint_and_print(json, root) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// [`cli_main`] behind `?`: whether the workspace linted clean.
fn lint_and_print(json: bool, root: Option<PathBuf>) -> Result<bool, String> {
    let root = match root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| format!("cannot determine working directory: {e}"))?;
            find_workspace_root(&cwd).ok_or_else(|| {
                format!(
                    "no workspace root ([workspace] in Cargo.toml) at or above {}",
                    cwd.display()
                )
            })?
        }
    };
    let report = lint_workspace(&root)?;
    if json {
        print!("{}", report.to_ndjson());
    } else {
        print!("{}", report.to_text());
    }
    if report.is_clean() {
        eprintln!("lint clean: {} file(s), rules R5 R6 R8", report.files);
    } else {
        eprintln!(
            "lint FAILED: {} violation(s) across {} file(s)",
            report.violations.len(),
            report.files
        );
    }
    Ok(report.is_clean())
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
                rule: "R6",
                message: "dependency \"now\"".into(),
            }],
            files: 1,
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
