//! Workspace file discovery.
//!
//! Walks the workspace root reading every `.rs` source and every
//! `Cargo.toml`, skipping build products (`target/`) and hidden
//! directories (VCS internals, `.xp-cache/`, `.bench_build/`). Paths
//! come back workspace-relative, `/`-separated, and sorted, so lint
//! output is byte-stable across platforms and filesystems.

use std::path::{Path, PathBuf};

/// Find the workspace root at or above `start`: the nearest ancestor
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(src) = std::fs::read_to_string(&manifest) {
            if src.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Read every lintable file under `root` once: (workspace-relative
/// path, source) pairs of `.rs` sources and `Cargo.toml` manifests,
/// sorted by path. Exposed so tests can doctor individual sources and
/// re-check.
pub fn read_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    walk_dir(root, "", &mut out)?;
    out.sort();
    Ok(out)
}

/// `prefix` is `dir`'s workspace-relative path, `/`-terminated (empty
/// at the root).
fn walk_dir(dir: &Path, prefix: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                walk_dir(&path, &format!("{prefix}{name}/"), out)?;
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push((format!("{prefix}{name}"), src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/lint/Cargo.toml").exists());
    }

    #[test]
    fn walk_skips_target_and_hidden_dirs() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let files: Vec<String> = read_workspace(&root)
            .expect("walk")
            .into_iter()
            .map(|(rel, _)| rel)
            .collect();
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(files.iter().any(|f| f == "Cargo.toml"));
        assert!(!files.iter().any(|f| f.starts_with("target/")));
        assert!(!files.iter().any(|f| f.starts_with('.')));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be sorted");
    }
}
