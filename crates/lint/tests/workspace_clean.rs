//! The lint run against the real workspace: clean today, and provably not
//! vacuous — deleting any one inline `lint:allow` makes it fail, injecting a
//! violation makes it fail, and removing a `*_VERSION` salt reference from
//! `crates/runner/src/key.rs` makes it fail (acceptance criterion for R5).

use dcn_lint::{check_salt_coverage, lint_files, lint_source, lint_workspace, KEY_RS};
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
    assert!(
        report.allows >= 6,
        "expected the in-tree inline allows to be seen, got {}",
        report.allows
    );
}

#[test]
fn deleting_any_inline_allow_breaks_the_lint() {
    let files = dcn_lint::read_workspace(&workspace_root()).expect("read workspace");
    let mut exercised = 0usize;
    for (rel, src) in &files {
        if !rel.ends_with(".rs") || !src.contains("// lint:allow(") {
            continue;
        }
        // Strip each directive individually; the uncovered site must fire.
        for (idx, line) in src.lines().enumerate() {
            let Some(pos) = line.find("// lint:allow(") else {
                continue;
            };
            // Skip occurrences inside string literals (the lint's own unit
            // tests embed directives as test data): an odd number of quotes
            // before the match means we are mid-string.
            if line[..pos].matches('"').count() % 2 == 1 {
                continue;
            }
            // Likewise skip prose mentions nested inside an enclosing comment
            // (doc comments describing the grammar): a real directive is the
            // first `//` on its line.
            if line[..pos].contains("//") {
                continue;
            }
            let doctored: String = src
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    if i == idx {
                        let trimmed = &l[..pos];
                        // A comment-only line disappears entirely; a trailing
                        // directive leaves the code before it.
                        if trimmed.trim().is_empty() {
                            String::new()
                        } else {
                            trimmed.to_string()
                        }
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            let out = lint_source(rel, &doctored);
            assert!(
                !out.violations.is_empty(),
                "{rel}:{}: removing the lint:allow produced no violation — \
                 the directive is load-bearing decoration",
                idx + 1
            );
            exercised += 1;
        }
    }
    assert!(
        exercised >= 6,
        "expected to exercise the in-tree allows, only found {exercised}"
    );
}

#[test]
fn injected_violation_fails_the_whole_run() {
    let mut files = dcn_lint::read_workspace(&workspace_root()).expect("read workspace");
    files.push((
        "crates/sim/src/evil.rs".to_string(),
        "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n".to_string(),
    ));
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let report = lint_files(&files);
    let hit = report
        .violations
        .iter()
        .find(|v| v.file == "crates/sim/src/evil.rs")
        .unwrap_or_else(|| panic!("injected violation not caught:\n{}", report.to_text()));
    assert_eq!(hit.rule, "R2");
    assert_eq!(hit.line, 2);
}

#[test]
fn removing_a_salt_reference_from_key_rs_fires_r5() {
    let files = dcn_lint::read_workspace(&workspace_root()).expect("read workspace");
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
fn removing_an_engine_kind_salt_arm_fires_r5() {
    let files = dcn_lint::read_workspace(&workspace_root()).expect("read workspace");
    let key_src = &files
        .iter()
        .find(|(rel, _)| rel == KEY_RS)
        .expect("key.rs")
        .1;
    // Drop lines mentioning the Flow variant; the EngineKind arm check fires.
    let doctored: String = key_src
        .lines()
        .filter(|l| {
            !l.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w == "Flow")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let out = check_salt_coverage(&files, &doctored);
    assert!(
        out.iter()
            .any(|v| v.rule == "R5" && v.message.contains("Flow")),
        "dropping the Flow arm produced no R5 violation: {out:?}"
    );
}

#[test]
fn ndjson_report_matches_span_record_grammar() {
    let files = vec![
        (
            "crates/runner/src/key.rs".to_string(),
            "// stub: satisfies the R5 presence check\n".to_string(),
        ),
        (
            "crates/x/src/a.rs".to_string(),
            "pub fn f() { let _ = std::env::var(\"X\"); }\n".to_string(),
        ),
    ];
    let report = lint_files(&files);
    let json = report.to_ndjson();
    let mut lines = json.lines();
    let first = lines.next().expect("violation record");
    assert!(first.starts_with("{\"record\":\"violation\""), "{first}");
    assert!(first.contains("\"rule\":\"R3\""), "{first}");
    let last = json.lines().last().expect("summary record");
    assert!(last.starts_with("{\"record\":\"lint-summary\""), "{last}");
    assert!(last.contains("\"violations\":1"), "{last}");
}
