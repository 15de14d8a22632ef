//! CLI output contracts, driven through the real `xp` binary:
//!
//! * `xp show` stdout is clean, pipeable TOML — byte-identical to
//!   `ScenarioSpec::to_toml()`, round-trippable through `from_toml`,
//!   with every human annotation on stderr as a `# `-prefixed note;
//! * `xp cache stat --json` emits one NDJSON record in the span-record
//!   grammar family (entries, bytes, per-engine counts) while the human
//!   text rendering stays unchanged;
//! * every row of the CLI table (`dcn_runner::cli::XP`) refuses misuse
//!   the same way — `error: …` naming the argument, the usage text,
//!   exit 2 — and nothing on a command line goes unread;
//! * a `-` destination puts that document, and nothing else, on stdout;
//! * a reader that closes stdout early ends `xp` quietly, with success;
//! * `xp diff` names the JSON path behind a byte pin that fails (or the
//!   first differing line:column when only the format moved), exits 0
//!   on equal reports, 1 on any difference and 2 on an operand that is
//!   not a JSON file;
//! * `xp run` refuses a packet-engine spec whose switch would outgrow
//!   16-bit port ids, before simulating anything, and refuses `--seeds`
//!   on a scenario kind that has none (a trace, an analytic grid),
//!   naming the kind.

use dcn_scenarios::diff::{parse_json, Json};
use dcn_scenarios::{builtin, ScenarioSpec};
use std::path::PathBuf;
use std::process::Command;

const XP: &str = env!("CARGO_BIN_EXE_xp");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn show_stdout_is_clean_toml_and_notes_go_to_stderr() {
    for name in ["fig6-small", "fig7-flow", "fig2"] {
        let out = Command::new(XP).args(["show", name]).output().unwrap();
        assert!(out.status.success(), "xp show {name} failed");
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");

        // stdout: exactly the spec's TOML rendering, nothing else.
        let want = builtin(name).expect("builtin").to_toml();
        assert_eq!(stdout, want, "xp show {name} stdout must be the TOML alone");
        let parsed = ScenarioSpec::from_toml(&stdout).expect("stdout round-trips");
        assert_eq!(parsed, builtin(name).unwrap());

        // stderr: every line is a `# `-prefixed human note.
        assert!(!stderr.is_empty(), "the engine note belongs on stderr");
        for line in stderr.lines() {
            assert!(line.starts_with("# "), "stray stderr line: {line:?}");
        }
    }
}

/// A reader that closed stdout before `xp` wrote to it (`xp list | head
/// -3`) has all it asked for: `xp` stops quietly, with no panic and no
/// exit 101.
#[test]
fn a_closed_stdout_ends_xp_quietly() {
    for args in [&["list"][..], &["show", "fig6"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(XP).args(args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(!stderr.contains("panicked"), "xp {args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "xp {args:?}: {stderr}");
        assert!(out.status.success(), "xp {args:?}: {stderr}");
    }
}

#[test]
fn show_unknown_scenario_notes_stderr_and_fails() {
    let out = Command::new(XP).args(["show", "no-such"]).output().unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "errors must not pollute stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for line in stderr.lines() {
        assert!(line.starts_with("# "), "stray stderr line: {line:?}");
    }
    assert!(stderr.contains("no-such"));
}

fn int(obj: &Json, key: &str) -> usize {
    obj.field(key, Json::as_usize).expect("integer member")
}

#[test]
fn cache_stat_json_is_one_record_with_per_engine_counts() {
    let dir = scratch("stat-json");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap();

    // Empty cache: a well-formed all-zero record.
    let out = Command::new(XP)
        .args(["cache", "stat", "--json", "--cache-dir", cache_arg])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 1, "exactly one NDJSON record");
    let obj = parse_json(text.trim()).expect("record parses");
    assert_eq!(obj.field("record", Json::as_str), Ok("cache"));
    assert_eq!(int(&obj, "entries"), 0);
    assert_eq!(int(&obj, "bytes"), 0);

    // Populate with a packet-engine sweep, a flow-engine sweep and an
    // analytic grid, plus one file that is no entry, then re-stat:
    // entries split by engine salt.
    for spec in ["fig6-small", "fig7-flow", "theorems"] {
        let run = Command::new(XP)
            .args(["run", spec, "--cache-dir", cache_arg])
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    std::fs::write(cache.join("0123456789abcdef.json"), "[\"not an entry\"]").unwrap();
    let packet_points = builtin("fig6-small").unwrap().num_points();
    let flow_points = builtin("fig7-flow").unwrap().num_points();
    let analytic_points = builtin("theorems").unwrap().num_points();
    let out = Command::new(XP)
        .args(["cache", "stat", "--json", "--cache-dir", cache_arg])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    let obj = parse_json(text.trim()).expect("record parses");
    let entries = packet_points + flow_points + analytic_points + 1;
    assert_eq!(int(&obj, "entries"), entries);
    assert_eq!(int(&obj, "packet"), packet_points);
    assert_eq!(int(&obj, "flow"), flow_points);
    assert_eq!(int(&obj, "analytic"), analytic_points);
    assert_eq!(int(&obj, "other"), 1);
    assert!(int(&obj, "bytes") > 0);

    // The human rendering is unchanged by the new flag's existence.
    let human = Command::new(XP)
        .args(["cache", "stat", "--cache-dir", cache_arg])
        .output()
        .unwrap();
    let human_text = String::from_utf8(human.stdout).unwrap();
    assert!(
        human_text.contains(&format!("{entries} entries")),
        "{human_text}"
    );
    assert!(human_text.contains("bytes"), "{human_text}");
    assert!(!human_text.contains("record"), "{human_text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `xp` with `args`, require a usage error: exit 2, nothing on
/// stdout, `error: ` + every needle on the first stderr line, then the
/// usage text.
fn refused(args: &[&str], needles: &[&str]) {
    let out = Command::new(XP).args(args).output().expect("spawn xp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "xp {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "xp {args:?} wrote to stdout");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: "), "xp {args:?}: {first}");
    for needle in needles {
        assert!(first.contains(needle), "xp {args:?}: {first}");
    }
    assert!(
        stderr.ends_with(&dcn_runner::cli::usage()),
        "xp {args:?}: {stderr}"
    );
}

fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    [base, extra].concat()
}

/// Every row of the CLI table, through the real binary: each subcommand
/// refuses a surplus positional and an unknown flag; each flag refuses
/// to appear twice, each valued flag refuses to come without its value,
/// and each typed flag refuses a value outside its type — all with the
/// same `error: …` + usage, exit 2, and a message naming the offender.
#[test]
fn every_table_row_refuses_misuse_with_exit_2_naming_the_argument() {
    use dcn_runner::cli::{Value, XP as TABLE};
    for cmd in TABLE {
        let mut base: Vec<&str> = cmd.name.split(' ').collect();
        base.extend(cmd.positionals.iter().map(|_| "x"));

        refused(
            &with(&base, &["surplus"]),
            &["unexpected argument \"surplus\""],
        );
        refused(
            &with(&base, &["--no-such"]),
            &["unknown argument \"--no-such\""],
        );
        for flag in cmd.flags {
            let (good, bad): (&str, &[&str]) = match flag.value {
                Value::Switch => {
                    refused(&with(&base, &[flag.name, flag.name]), &[flag.name, "twice"]);
                    continue;
                }
                Value::Text(_) => ("x", &[]),
                Value::Positive => ("1", &["0", "-1", "1.5", "x", ""]),
                Value::U64List => ("1,2", &["1,x", "-1", "1,,2"]),
            };
            refused(&with(&base, &[flag.name]), &[flag.name, "needs a value"]);
            refused(
                &with(&base, &[flag.name, good, flag.name, good]),
                &[flag.name, "twice"],
            );
            for value in bad {
                refused(
                    &with(&base, &[flag.name, value]),
                    &[flag.name, "expects", &format!("{value:?}")],
                );
            }
        }
    }
}

/// What used to be silently ignored or silently won, and what is not a
/// subcommand (any more): each is a usage error.
#[test]
fn arguments_nobody_looked_at_are_errors() {
    refused(&["list", "x"], &["\"x\""]);
    refused(&["show", "fig6", "x"], &["\"x\""]);
    refused(&["cache", "clear", "--json"], &["\"--json\""]);
    refused(
        &["run", "fig6", "--threads", "1", "--threads", "2"],
        &["--threads"],
    );
    refused(&["run"], &["missing <spec.toml | name>"]);
    refused(&["diff", "a.json"], &["missing <b>"]);
    refused(
        &["diff", "a", "b", "--tol", "0"],
        &["unknown argument \"--tol\""],
    );
    refused(&[], &["missing subcommand"]);
    refused(&["bench", "--check"], &["unknown subcommand \"bench\""]);
    refused(&["lint"], &["unknown subcommand \"lint\""]);
}

/// The byte range of the first number token with a fraction or an
/// exponent in `json`, strings skipped.
fn first_fraction_token(json: &str) -> std::ops::Range<usize> {
    let bytes = json.as_bytes();
    let in_number = |b: &u8| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9');
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let end = i + bytes[i..].iter().take_while(|b| in_number(b)).count();
                if json[i..end].contains(['.', 'e', 'E']) {
                    return i..end;
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    panic!("no fractional number in the document");
}

/// The first non-integer number of `j` in document order, and its path as
/// `xp diff` prints it.
fn first_fraction(j: &Json, path: String) -> Option<(String, f64)> {
    match j {
        Json::Num(x) => Some((path, *x)),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, v)| first_fraction(v, format!("{path}[{i}]"))),
        Json::Obj(members) => members
            .iter()
            .find_map(|(k, v)| first_fraction(v, format!("{path}.{k}"))),
        _ => None,
    }
}

/// A byte pin is `cmp`; `xp diff` says where a failing one moved. One ulp
/// on fig3's first fractional number fails the pin, and `xp diff` exits 1
/// naming its path; an unedited copy exits 0; and an operand that is a
/// directory or a CSV report is not a JSON file, so it exits 2.
#[test]
fn xp_diff_locates_a_one_ulp_drift_and_reads_only_json_files() {
    let dir = scratch("diff");
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/tests/fig3_baseline.json"
    );
    let text = std::fs::read_to_string(baseline).unwrap();
    let token = first_fraction_token(&text);
    let (path, x) = first_fraction(&parse_json(&text).unwrap(), "$".into()).unwrap();
    assert_eq!(text[token.clone()].parse::<f64>(), Ok(x), "{path}");
    let next = f64::from_bits(x.to_bits() + 1);
    let moved = format!("{}{next:?}{}", &text[..token.start], &text[token.end..]);
    let (copy, drifted) = (dir.join("copy.json"), dir.join("drifted.json"));
    std::fs::write(&copy, &text).unwrap();
    std::fs::write(&drifted, &moved).unwrap();
    assert_ne!(
        std::fs::read(baseline).unwrap(),
        std::fs::read(&drifted).unwrap(),
        "cmp must fail on a one-ulp drift"
    );

    let diff = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(XP).arg("diff").arg(a).arg(b).output().unwrap()
    };
    let out = diff(baseline.as_ref(), &drifted);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let line = stdout.lines().find(|l| l.starts_with(&format!("{path}: ")));
    let line = line.unwrap_or_else(|| panic!("want {path} on stdout, got {stdout}"));
    // `xp diff` has no tolerance, so its lines name none.
    assert!(!line.contains("tol"), "{line}");
    let out = diff(baseline.as_ref(), &copy);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());

    let csv = dir.join("fig3.csv");
    std::fs::write(&csv, "scenario,entry\nfig3,queue-length\n").unwrap();
    for (a, b) in [(&dir, &dir), (&csv, &csv)] {
        let out = diff(a, b);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{a:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{a:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A byte pin fails on a format-only edit too, and so does `xp diff`: an
/// integer token rewritten as a number names its path, and a whitespace
/// edit, where every value matches, names the first differing line and
/// column.
#[test]
fn xp_diff_fails_on_format_only_drift() {
    let dir = scratch("format");
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/tests/fig3_baseline.json"
    );
    let text = std::fs::read_to_string(baseline).unwrap();
    let (token, spaced) = (dir.join("token.json"), dir.join("spaced.json"));
    let int = "\"eq_w_bytes\": 275000,";
    assert!(text.contains(int));
    std::fs::write(&token, text.replacen(int, "\"eq_w_bytes\": 275000.0,", 1)).unwrap();
    std::fs::write(&spaced, text.replacen(int, "\"eq_w_bytes\":  275000,", 1)).unwrap();
    for (edited, want) in [
        (
            &token,
            "$.entries[0].stats.eq_w_bytes: integer 275000 vs number 275000.0",
        ),
        (&spaced, "8:64: the bytes differ"),
    ] {
        let out = Command::new(XP)
            .arg("diff")
            .arg(baseline)
            .arg(edited)
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(1), "{edited:?}: {stdout}");
        assert_eq!(stdout.lines().next(), Some(want), "{edited:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `-` means stdout, and only the document goes there: the table moves
/// to stderr, so the bytes pipe straight into a JSON parser.
#[test]
fn a_dash_destination_puts_the_document_alone_on_stdout() {
    let file = Command::new(XP).args(["run", "fig2"]).output().unwrap();
    let table = String::from_utf8(file.stdout).unwrap();
    assert!(table.contains("## fig2"), "no `-`: the table is on stdout");

    let out = Command::new(XP)
        .args(["run", "fig2", "--json", "-"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = parse_json(&stdout).expect("stdout is the JSON document alone");
    assert_eq!(doc.field("scenario", Json::as_str), Ok("fig2"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(table.trim_end()),
        "the table moved: {stderr}"
    );

    for flag in ["--csv", "--meta"] {
        let out = Command::new(XP)
            .args(["run", "fig2", flag, "-"])
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            out.status.success() && !stdout.contains("## fig2"),
            "{flag}"
        );
    }
    refused(
        &["run", "fig2", "--json", "-", "--csv", "-"],
        &["--json", "--csv", "stdout"],
    );
}

/// A directory that happens to be named like a builtin is not a spec
/// file: the builtin runs (it used to answer "Is a directory").
#[test]
fn a_directory_named_like_a_builtin_does_not_shadow_it() {
    let dir = scratch("dir-shadow");
    std::fs::create_dir(dir.join("fig2")).unwrap();
    let out = Command::new(XP)
        .args(["run", "fig2"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 65,600-host star used to build (port ids wrapped at 65,536), deliver
/// `n65540`'s packets to host 3 and exit 0.
#[test]
fn run_refuses_a_switch_wider_than_port_ids_before_simulating() {
    let dir = scratch("wide-star");
    let spec = builtin("incast-battle")
        .expect("builtin")
        .to_toml()
        .replace("hosts = 18", "hosts = 65600");
    assert!(spec.contains("hosts = 65600"));
    let path = dir.join("wide.toml");
    std::fs::write(&path, spec).unwrap();
    let out = Command::new(XP).arg("run").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no report: nothing was simulated");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("hosts") && stderr.contains("65600") && stderr.contains("65535"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only a sweep has seeds to override: an analytic grid (`[analytic]`)
/// and a trace have nothing random in them. `--seeds` on either is an
/// error naming the kind, never a panic from the builder and never a
/// silently ignored flag.
#[test]
fn seeds_on_an_analytic_scenario_is_a_clean_error_naming_the_kind() {
    for (name, kind) in [
        ("fig3", "analytic"),
        ("fig2", "analytic"),
        ("fig4", "timeseries"),
    ] {
        let out = Command::new(XP)
            .args(["run", name, "--seeds", "7", "--json", "-"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert!(out.stdout.is_empty(), "{name}: no report, nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let has = format!("\"{name}\" has kind = \"{kind}\"");
        assert!(
            stderr.contains("error: --seeds") && stderr.contains(&has),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    // A sweep has a grid of them.
    let out = Command::new(XP)
        .args(["run", "fig6-small", "--seeds", "7", "--json", "-"])
        .output()
        .unwrap();
    assert!(out.status.success(), "fig6-small");
}
