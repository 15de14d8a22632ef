//! The workspace's shape: the rules no compiler lint sees, because they
//! need the whole file set rather than one crate's AST. Each is a plain
//! function over `(path, text)`, and each failure reads
//! `file:line: rule[RXX] message`.
//!
//! | Rule | What fails |
//! |------|------------|
//! | R5 | a `pub const *_VERSION` under a non-runner `crates/*/src/` that `runner/src/key.rs` does not name outside a `//` comment: an unsalted engine serves stale cache entries after a physics change |
//! | R6 | a `source =` line in `Cargo.lock` or `benchmark/Cargo.lock`: a package resolved from a registry or git, not a path |
//! | R8 | a member, or the root package, without `[lints]` `workspace = true`: it opts out of `[workspace.lints]` and the clippy determinism rules |
//! | R9 | a root `default-members` that is not `"."` plus `members`: plain `cargo test` skips the missing member's tests |
//!
//! R6's other half is the offline resolve itself, which refuses a registry
//! dependency before this test compiles. DESIGN.md "Static analysis" has
//! the rules the compiler enforces; `scripts/lint_canaries.sh` plants an
//! R5, R6 and R8 hazard in a copy of the tree and needs each named.

use std::collections::BTreeMap;
use std::path::Path;

/// Workspace-relative path → text, for every file a rule reads.
type Tree = BTreeMap<String, String>;

const KEY_RS: &str = "crates/runner/src/key.rs";
const LOCKS: [&str; 2] = ["Cargo.lock", "benchmark/Cargo.lock"];
const SALTS: [&str; 3] = ["ENGINE_VERSION", "FLOW_ENGINE_VERSION", "MODEL_VERSION"];

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The tree on disk: the root manifest, every member's manifest, both
/// lock files, `key.rs` and every non-runner `crates/**/src/**.rs`.
fn on_disk() -> Tree {
    let mut tree = Tree::new();
    for rel in ["Cargo.toml", KEY_RS].into_iter().chain(LOCKS) {
        tree.insert(rel.to_string(), read(rel));
    }
    for member in list(&tree["Cargo.toml"], "members").1 {
        let rel = format!("{member}/Cargo.toml");
        tree.insert(rel.clone(), read(&rel));
    }
    add_sources(&mut tree, "crates");
    tree
}

fn add_sources(tree: &mut Tree, dir: &str) {
    let entries = std::fs::read_dir(root().join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
    for entry in entries {
        let rel = format!("{dir}/{}", entry.expect(dir).file_name().to_string_lossy());
        if root().join(&rel).is_dir() {
            if rel != "crates/runner" {
                add_sources(tree, &rel);
            }
        } else if rel.ends_with(".rs") && rel.contains("/src/") {
            let text = read(&rel);
            tree.insert(rel, text);
        }
    }
}

/// Every rule over `tree`: empty when the workspace has its shape.
fn failures(tree: &Tree) -> Vec<String> {
    let manifest = &tree["Cargo.toml"];
    let mut out = default_members(manifest);
    out.extend(lints_inherited("Cargo.toml", manifest));
    for member in list(manifest, "members").1 {
        let rel = format!("{member}/Cargo.toml");
        out.extend(lints_inherited(&rel, &tree[&rel]));
    }
    for lock in LOCKS {
        out.extend(path_only(lock, &tree[lock]));
    }
    out.extend(salts_keyed(tree));
    out
}

/// The 1-based line of `key = [` in `manifest` and the quoted entries of
/// that array (`(1, [])` when the key is absent).
fn list(manifest: &str, key: &str) -> (usize, Vec<String>) {
    let lines: Vec<&str> = manifest.lines().collect();
    let Some(start) = lines
        .iter()
        .position(|l| l.split('=').next().is_some_and(|k| k.trim() == key))
    else {
        return (1, Vec::new());
    };
    let mut entries = Vec::new();
    for line in &lines[start..] {
        let code = line.split('#').next().unwrap_or("");
        entries.extend(code.split('"').skip(1).step_by(2).map(String::from));
        if code.contains(']') {
            break;
        }
    }
    (start + 1, entries)
}

/// R9: the root `default-members` holds `"."` and every `members` entry.
/// (Cargo itself refuses a default member that is not a member, so the
/// two lists are then equal.)
fn default_members(manifest: &str) -> Vec<String> {
    let (line, defaults) = list(manifest, "default-members");
    [".".to_string()]
        .into_iter()
        .chain(list(manifest, "members").1)
        .filter(|m| !defaults.contains(m))
        .map(|m| {
            format!(
                "Cargo.toml:{line}: rule[R9] `{m}` is missing from `default-members`: plain \
                 `cargo test` at the root skips its tests"
            )
        })
        .collect()
}

/// R8: the package of `manifest` inherits the workspace lints.
fn lints_inherited(path: &str, manifest: &str) -> Vec<String> {
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[lints]" && line.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    let line = manifest
        .lines()
        .position(|l| l.trim() == "[package]")
        .map_or(1, |i| i + 1);
    vec![format!(
        "{path}:{line}: rule[R8] the package does not inherit the workspace lints: add \
         `[lints]` with `workspace = true`"
    )]
}

/// R6: every package in `lock` was resolved from a path.
fn path_only(path: &str, lock: &str) -> Vec<String> {
    let mut name = "";
    let mut out = Vec::new();
    for (i, line) in lock.lines().enumerate() {
        if let Some(n) = line.strip_prefix("name = ") {
            name = n.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            out.push(format!(
                "{path}:{}: rule[R6] package `{name}` comes from {source}: the workspace \
                 builds offline, from path dependencies only",
                i + 1
            ));
        }
    }
    out
}

/// R5: every `pub const *_VERSION` of a non-runner source is named in
/// `key.rs` outside a `//` comment (its module docs name every salt).
fn salts_keyed(tree: &Tree) -> Vec<String> {
    let key: Vec<&str> = tree[KEY_RS].lines().map(code).collect();
    let mut out = Vec::new();
    for (path, text) in tree {
        if !path.ends_with(".rs") || path.starts_with("crates/runner/") {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            let Some(decl) = code(line).trim_start().strip_prefix("pub const ") else {
                continue;
            };
            let name = decl.split(':').next().unwrap_or("").trim();
            if name.ends_with("_VERSION") && !key.iter().any(|k| names(k, name)) {
                out.push(format!(
                    "{path}:{}: rule[R5] engine version salt `{name}` is not named in \
                     {KEY_RS}: its engine's cache entries outlive a physics change",
                    i + 1
                ));
            }
        }
    }
    out
}

/// `line` up to its first `//`. A `//` inside a string literal also cuts
/// it, which can hide a reference but never invent one.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// Whether `code` names `ident` as a whole identifier
/// (`FLOW_ENGINE_VERSION` does not name `ENGINE_VERSION`).
fn names(code: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(ident).any(|(at, _)| {
        !code[..at].ends_with(is_ident) && !code[at + ident.len()..].starts_with(is_ident)
    })
}

/// The failures of the tree on disk with `rel`'s text put through `edit`,
/// which must change it.
fn doctored(rel: &str, edit: impl FnOnce(&str) -> String) -> Vec<String> {
    let mut tree = on_disk();
    let text = tree
        .get_mut(rel)
        .unwrap_or_else(|| panic!("{rel} is not read"));
    let edited = edit(text);
    assert_ne!(&edited, text, "the edit of {rel} changed nothing");
    *text = edited;
    failures(&tree)
}

/// `failures` is one failure of `rule` that names `needle`.
fn only(failures: &[String], rule: &str, needle: &str) {
    assert!(
        failures.len() == 1
            && failures[0].contains(&format!("rule[{rule}]"))
            && failures[0].contains(needle),
        "want one {rule} failure naming {needle}, got {failures:#?}"
    );
}

/// `text` with `f` applied to every line that names `salt` in code.
fn salt_lines(text: &str, salt: &str, f: impl Fn(&str) -> Option<String>) -> String {
    text.lines()
        .filter_map(|l| {
            if names(code(l), salt) {
                f(l)
            } else {
                Some(l.to_string())
            }
        })
        .map(|l| l + "\n")
        .collect()
}

#[test]
fn the_tree_has_the_workspace_shape() {
    let failures = failures(&on_disk());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_check_reads_every_salt_declaration_on_disk() {
    // A read that reached no engine source would pass R5 vacuously.
    let tree = on_disk();
    for salt in SALTS {
        let decl = format!("pub const {salt}:");
        let declared = tree
            .iter()
            .any(|(path, text)| path != KEY_RS && text.lines().any(|l| code(l).starts_with(&decl)));
        assert!(declared, "no source the check reads declares {salt}");
    }
}

#[test]
fn a_salt_missing_from_key_rs_fails_naming_it() {
    for salt in SALTS {
        let failures = doctored(KEY_RS, |text| salt_lines(text, salt, |_| None));
        only(&failures, "R5", &format!("`{salt}`"));
    }
}

#[test]
fn a_salt_named_only_in_a_comment_fails() {
    for salt in SALTS {
        let failures = doctored(KEY_RS, |text| {
            salt_lines(text, salt, |l| Some(format!("// {l}")))
        });
        only(&failures, "R5", &format!("`{salt}`"));
    }
}

#[test]
fn a_member_without_lints_workspace_true_fails_naming_its_manifest() {
    let sim = "crates/sim/Cargo.toml";
    let stripped = doctored(sim, |text| text.replace("[lints]\nworkspace = true\n", ""));
    only(&stripped, "R8", sim);
}

#[test]
fn a_package_must_inherit_the_workspace_lints() {
    // A `[lints]` table of its own opts out too.
    let sim = "crates/sim/Cargo.toml";
    let own = doctored(sim, |text| {
        text.replace(
            "[lints]\nworkspace = true\n",
            "[lints.rust]\nunsafe_code = \"allow\"\n",
        )
    });
    only(&own, "R8", sim);
    // The root package is held to it like every member.
    let root = doctored("Cargo.toml", |text| {
        text.replace("[lints]\nworkspace = true\n", "")
    });
    only(&root, "R8", "Cargo.toml:");
    assert!(root[0].starts_with("Cargo.toml:"), "{root:?}");
}

#[test]
fn a_lock_with_a_registry_or_git_source_fails_naming_the_package() {
    for (name, source) in [
        (
            "serde",
            "registry+https://github.com/rust-lang/crates.io-index",
        ),
        ("rand", "git+https://example.com/rand#0123abc"),
    ] {
        for lock in LOCKS {
            let failures = doctored(lock, |text| {
                format!(
                    "{text}\n[[package]]\nname = \"{name}\"\nversion = \"1.0.0\"\n\
                     source = \"{source}\"\n"
                )
            });
            only(&failures, "R6", &format!("package `{name}`"));
            assert!(failures[0].starts_with(&format!("{lock}:")), "{failures:?}");
        }
    }
}

#[test]
fn a_default_members_list_short_one_crate_fails_naming_it() {
    // `default-members` comes first in the root manifest, so the first
    // `crates/serve` row is its.
    let failures = doctored("Cargo.toml", |text| {
        text.replacen("    \"crates/serve\",\n", "", 1)
    });
    only(
        &failures,
        "R9",
        "`crates/serve` is missing from `default-members`",
    );
}
