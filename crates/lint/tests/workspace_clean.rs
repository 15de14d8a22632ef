//! The lint run against the real workspace: clean today, and provably not
//! vacuous — removing a `*_VERSION` salt reference from
//! `crates/runner/src/key.rs` makes it fail (acceptance criterion for R5),
//! and so does a member manifest that stops inheriting the workspace lints
//! (R8). The rules a compiler enforces are proven armed elsewhere: by every
//! live `#[expect]` in the tree and by `scripts/lint_canaries.sh`.

use dcn_lint::{check_salt_coverage, lint_files, lint_workspace, read_workspace, KEY_RS};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.to_text()
    );
    assert!(
        report.files > 100,
        "suspiciously few files: {}",
        report.files
    );
}

#[test]
fn removing_a_salt_reference_from_key_rs_fires_r5() {
    let files = read_workspace(&workspace_root()).expect("read workspace");
    let key_src = &files
        .iter()
        .find(|(rel, _)| rel == KEY_RS)
        .expect("key.rs present")
        .1;

    // Intact key.rs: every salt is referenced.
    assert!(check_salt_coverage(&files, key_src).is_empty());

    // Drop every line mentioning one salt at a time; R5 must name it.
    for salt in ["ENGINE_VERSION", "FLOW_ENGINE_VERSION", "MODEL_VERSION"] {
        let doctored: String = key_src
            .lines()
            .filter(|l| {
                // Crude but sufficient: FLOW_ENGINE_VERSION lines also contain
                // ENGINE_VERSION as a substring, so match on token boundaries.
                !l.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .any(|w| w == salt)
            })
            .collect::<Vec<_>>()
            .join("\n");
        let out = check_salt_coverage(&files, &doctored);
        assert!(
            out.iter()
                .any(|v| v.rule == "R5" && v.message.contains(salt)),
            "dropping {salt} from key.rs produced no R5 violation: {out:?}"
        );
    }
}

#[test]
fn a_member_manifest_without_lints_workspace_true_is_a_violation() {
    let mut files = read_workspace(&workspace_root()).expect("read workspace");
    let sim = files
        .iter_mut()
        .find(|(rel, _)| rel == "crates/sim/Cargo.toml")
        .expect("dcn-sim manifest");
    let doctored = sim.1.replace("[lints]\nworkspace = true\n", "");
    assert_ne!(doctored, sim.1, "dcn-sim inherits the workspace lints");
    sim.1 = doctored;
    let report = lint_files(&files);
    let rules: Vec<(&str, &str)> = report
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.rule))
        .collect();
    assert_eq!(rules, [("crates/sim/Cargo.toml", "R8")]);
}

#[test]
fn ndjson_report_matches_span_record_grammar() {
    let files = vec![
        (
            "crates/runner/src/key.rs".to_string(),
            "// stub: satisfies the R5 presence check\n".to_string(),
        ),
        (
            "crates/x/Cargo.toml".to_string(),
            "[package]\nname = \"x\"\n[lints]\nworkspace = true\n[dependencies]\nserde = \"1\"\n"
                .to_string(),
        ),
    ];
    let report = lint_files(&files);
    let json = report.to_ndjson();
    let mut lines = json.lines();
    let first = lines.next().expect("violation record");
    assert!(first.starts_with("{\"record\":\"violation\""), "{first}");
    assert!(first.contains("\"rule\":\"R6\""), "{first}");
    let last = json.lines().last().expect("summary record");
    assert!(last.starts_with("{\"record\":\"lint-summary\""), "{last}");
    assert!(last.contains("\"violations\":1"), "{last}");
}
