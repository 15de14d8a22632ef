//! The workspace-shape rules: what no compiler lint can see.
//!
//! The per-file determinism rules (R1–R4, R7) are `clippy.toml` and the
//! root manifest's `[workspace.lints]`; see DESIGN.md "Static analysis"
//! for the rule → enforcing tool table. What is left needs the whole
//! file set, not one crate's AST:
//!
//! | Rule | What it rejects |
//! |------|-----------------|
//! | R5 | an engine `pub const *_VERSION` salt unreferenced in `runner/src/key.rs` |
//! | R6 | a non-`path` dependency in any `Cargo.toml` (the workspace is offline) |
//! | R8 | a workspace package whose `Cargo.toml` lacks `[lints] workspace = true` |

/// One lint finding: `file:line: rule[RXX] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule id (`R5`, `R6`, `R8`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// A finding of `rule` at `file:line`.
    pub fn new(file: &str, line: usize, rule: &'static str, message: impl Into<String>) -> Self {
        Violation {
            file: file.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }

    /// The canonical single-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: rule[{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The code of each line of `src` — everything before a `//` — with its
/// 1-based number. (A `//` inside a string literal also cuts the line,
/// which can only hide a reference, never invent one; block comments are
/// not recognised, and the workspace has none.)
fn code_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split("//").next().unwrap_or("")))
}

/// Whether `code` mentions `ident` as a whole identifier
/// (`FLOW_ENGINE_VERSION` does not mention `ENGINE_VERSION`).
fn mentions(code: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(ident).any(|(at, _)| {
        !code[..at].ends_with(is_ident) && !code[at + ident.len()..].starts_with(is_ident)
    })
}

/// R5: structural salt coverage. Every `pub const *_VERSION` exported by
/// a non-runner crate must be named, outside comments, in
/// `crates/runner/src/key.rs` — the single place cache keys are derived.
/// (That every `EngineKind` has a salt is the exhaustive `match` in
/// `key.rs::preamble`: rustc's job.)
///
/// `files` is the full workspace file list as (relative path, source);
/// `key_src` is the source of `crates/runner/src/key.rs` (passed
/// separately so tests can prove the rule bites on a doctored copy).
pub fn check_salt_coverage(files: &[(String, String)], key_src: &str) -> Vec<Violation> {
    let key_code: Vec<&str> = code_lines(key_src).map(|(_, code)| code).collect();
    let mut out = Vec::new();
    for (rel, src) in files {
        if !rel.starts_with("crates/")
            || rel.starts_with("crates/runner/")
            || !rel.contains("/src/")
            || !rel.ends_with(".rs")
        {
            continue;
        }
        for (line, code) in code_lines(src) {
            let Some(decl) = code.trim_start().strip_prefix("pub const ") else {
                continue;
            };
            let name = decl.split(':').next().unwrap_or("").trim();
            if name.ends_with("_VERSION") && !key_code.iter().any(|code| mentions(code, name)) {
                out.push(Violation::new(
                    rel,
                    line,
                    "R5",
                    format!(
                        "engine version salt `{name}` is not referenced in \
                         crates/runner/src/key.rs — every exported *_VERSION const \
                         must feed the cache-key preamble"
                    ),
                ));
            }
        }
    }
    out
}

/// R6: every dependency in every workspace `Cargo.toml` must be a
/// `path` dependency. The workspace builds offline; registry (`"1.0"`)
/// and `git` dependencies are rejected.
///
/// R8: every package of this workspace must carry `[lints] workspace =
/// true`, or it silently opts out of everything `[workspace.lints]`
/// forbids. A nested manifest that declares its own `[workspace]`
/// (`benchmark/`) is not a member and has nothing to inherit.
pub fn check_manifest(rel: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut package_line = None;
    // Inherits the workspace lints, or is a workspace root of its own
    // with none to inherit.
    let mut settled = false;
    // `[dependencies.foo]`-style subsection needing a `path` key.
    let mut pending: Option<(String, usize)> = None;
    let flush_pending = |pending: &mut Option<(String, usize)>, out: &mut Vec<Violation>| {
        if let Some((name, line)) = pending.take() {
            out.push(Violation::new(
                rel,
                line,
                "R6",
                format!(
                    "dependency `{name}` has no `path` key: the workspace is offline — \
                     only path dependencies and the committed shims are legal"
                ),
            ));
        }
    };
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            flush_pending(&mut pending, &mut out);
            section = line.trim_matches(['[', ']']).to_string();
            if let Some(dep) = dep_subsection(&section) {
                pending = Some((dep.to_string(), line_no));
            }
            match section.as_str() {
                "package" => package_line = Some(line_no),
                "workspace" if rel != "Cargo.toml" => settled = true,
                _ => {}
            }
            continue;
        }
        if section == "lints" && line.replace(' ', "") == "workspace=true" {
            settled = true;
        }
        if pending.is_some() {
            // Only a `path` key clears it; otherwise the violation fires
            // at the next section header.
            if line.starts_with("path") && line.contains('=') {
                pending = None;
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        let problem = if !value.starts_with('{') {
            // `foo = "1.0"` — a registry dependency.
            "is a registry dependency: the workspace is offline — vendor it as a path dep \
             or a committed shim"
        } else if !value.contains("path") {
            "is not a path dependency: the workspace is offline — only path dependencies \
             and the committed shims are legal"
        } else if value.contains("git") {
            "pulls from git: forbidden offline"
        } else {
            continue;
        };
        let message = format!("dependency `{name}` {problem}");
        out.push(Violation::new(rel, line_no, "R6", message));
    }
    flush_pending(&mut pending, &mut out);
    if let Some(line) = package_line.filter(|_| !settled) {
        out.push(Violation::new(
            rel,
            line,
            "R8",
            "package does not inherit the workspace lints: add `[lints]` with `workspace = \
             true`, or `unsafe_code = \"forbid\"` and the clippy determinism rules do not \
             apply to it",
        ));
    }
    out
}

/// Is `section` a dependency table (`dependencies`,
/// `dev-dependencies`, `workspace.dependencies`,
/// `target.'cfg(..)'.dependencies`, ...)?
fn is_dep_section(section: &str) -> bool {
    let table = section.rsplit('.').next().unwrap_or(section);
    matches!(
        table,
        "dependencies" | "dev-dependencies" | "build-dependencies"
    )
}

/// If `section` is `[dependencies.<name>]` (or dev-/build- variant),
/// return the dependency name.
fn dep_subsection(section: &str) -> Option<&str> {
    let (table, name) = section.rsplit_once('.')?;
    is_dep_section(table).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salt_coverage_requires_key_reference() {
        let files = vec![(
            "crates/eng/src/lib.rs".to_string(),
            "pub const ENG_VERSION: u32 = 1;\npub const OTHER: u32 = 2;\n".to_string(),
        )];
        assert!(check_salt_coverage(&files, "use eng::ENG_VERSION;\n").is_empty());
        // A comment, or a longer identifier, is not a reference.
        for key in ["// see ENG_VERSION\n", "use eng::FLOW_ENG_VERSION;\n"] {
            let missing = check_salt_coverage(&files, key);
            assert_eq!(missing.len(), 1, "{key}");
            assert_eq!((missing[0].rule, missing[0].line), ("R5", 1));
            assert!(missing[0].message.contains("ENG_VERSION"));
        }
    }

    #[test]
    fn manifest_rejects_registry_and_git_deps() {
        let good = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n[lints]\nworkspace = true\n\
                    [dependencies]\ncore = { path = \"../core\" }\n";
        assert!(check_manifest("Cargo.toml", good).is_empty());
        let bad = "[dependencies]\nserde = \"1.0\"\n";
        let v = check_manifest("Cargo.toml", bad);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("R6", 2));
        let git = "[dependencies]\nx = { git = \"https://example.com/x\" }\n";
        assert_eq!(check_manifest("Cargo.toml", git).len(), 1);
        let sub = "[dependencies.foo]\nversion = \"1\"\n";
        assert_eq!(check_manifest("Cargo.toml", sub).len(), 1);
        let sub_ok = "[dependencies.foo]\npath = \"../foo\"\n";
        assert!(check_manifest("Cargo.toml", sub_ok).is_empty());
    }

    #[test]
    fn a_package_must_inherit_the_workspace_lints() {
        let bare = "[package]\nname = \"x\"\n";
        let v = check_manifest("crates/x/Cargo.toml", bare);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("R8", 1));
        // `[lints]` with its own table instead of the workspace's opts out too.
        let own = "[package]\nname = \"x\"\n[lints.rust]\nunsafe_code = \"allow\"\n";
        assert_eq!(check_manifest("crates/x/Cargo.toml", own).len(), 1);
        // A nested workspace root (`benchmark/`) has nothing to inherit;
        // the root package of *this* workspace does.
        let nested = "[package]\nname = \"x\"\n[workspace]\n";
        assert!(check_manifest("benchmark/Cargo.toml", nested).is_empty());
        assert_eq!(check_manifest("Cargo.toml", nested).len(), 1);
    }
}
