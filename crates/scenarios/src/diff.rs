//! Report diffing: where two JSON reports differ.
//!
//! A report is pinned byte for byte with `cmp`; `xp diff a.json b.json`
//! locates the drift behind a failing pin. It compares the two documents,
//! each read by [`crate::json`], structurally (strings, booleans and
//! numbers by value, arrays and objects element by element) and prints the
//! path of each difference.

// The benchmark harness imports the reader from here.
pub use crate::json::{parse_json, Json};

/// Outcome of a report comparison.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// Human-readable difference descriptions (empty = reports match
    /// within tolerance). Capped at [`MAX_DIFFERENCES`]; `truncated` says
    /// whether more existed.
    pub differences: Vec<String>,
    /// More differences existed beyond the cap.
    pub truncated: bool,
    /// Leaf values compared.
    pub compared: usize,
}

impl DiffOutcome {
    /// Did the reports match within tolerance?
    pub fn is_match(&self) -> bool {
        self.differences.is_empty() && !self.truncated
    }
}

/// Differences reported before the walk stops collecting.
pub const MAX_DIFFERENCES: usize = 20;

/// Compare two report documents. Numbers drift-match within relative
/// tolerance `tol` (`|a−b| ≤ tol · max(1, |a|, |b|)`; `tol = 0` demands
/// exact equality); everything else compares exactly. `xp diff` and
/// every caller in the workspace pass `0.0`; the parameter stays while
/// the benchmark harness passes it.
pub fn diff_reports(a: &str, b: &str, tol: f64) -> Result<DiffOutcome, String> {
    let a = parse_json(a).map_err(|e| format!("first report: {e}"))?;
    let b = parse_json(b).map_err(|e| format!("second report: {e}"))?;
    let mut out = DiffOutcome {
        differences: Vec::new(),
        truncated: false,
        compared: 0,
    };
    walk(&a, &b, tol, "$", &mut out);
    Ok(out)
}

/// Float drift comparison: `|a−b| ≤ tol · max(1, |a|, |b|)`, exact
/// equality at `tol = 0`.
fn note_float_drift(x: f64, y: f64, tol: f64, path: &str, out: &mut DiffOutcome) {
    let drift = (x - y).abs();
    let scale = 1.0f64.max(x.abs()).max(y.abs());
    if !(drift <= tol * scale || (tol == 0.0 && x == y)) {
        let past = past_tol(drift / scale, tol);
        note(out, format!("{path}: {x} vs {y}{past}"));
    }
}

/// What a difference adds past a tolerance: the relative drift and the
/// tolerance it exceeds. Nothing at `tol = 0`, which has none to name.
fn past_tol(rel: f64, tol: f64) -> String {
    if tol > 0.0 {
        format!(" (drift {rel:.3e} > tol {tol:.3e})")
    } else {
        String::new()
    }
}

fn note(out: &mut DiffOutcome, msg: String) {
    if out.differences.len() < MAX_DIFFERENCES {
        out.differences.push(msg);
    } else {
        out.truncated = true;
    }
}

fn walk(a: &Json, b: &Json, tol: f64, path: &str, out: &mut DiffOutcome) {
    match (a, b) {
        (Json::Null, Json::Null) => out.compared += 1,
        (Json::Bool(x), Json::Bool(y)) => {
            out.compared += 1;
            if x != y {
                note(out, format!("{path}: {x} != {y}"));
            }
        }
        (Json::Num(x), Json::Num(y)) => {
            out.compared += 1;
            note_float_drift(*x, *y, tol, path, out);
        }
        (Json::Int(x), Json::Int(y)) => {
            out.compared += 1;
            if x != y {
                // Exact integer difference: `(x - y)` stays precise in
                // i128 even when both values are above 2^53 and one
                // apart, where f64 subtraction would yield 0.
                let drift = x.abs_diff(*y) as f64;
                let scale = 1.0f64.max((*x as f64).abs()).max((*y as f64).abs());
                if !(tol > 0.0 && drift <= tol * scale) {
                    let past = past_tol(drift / scale, tol);
                    note(out, format!("{path}: {x} vs {y}{past}"));
                }
            }
        }
        // An integer token against a number token (`1` vs `1.0`): the
        // renderer's format moved, which fails a byte pin whatever the
        // values are.
        (Json::Int(x), Json::Num(y)) => {
            out.compared += 1;
            note(out, format!("{path}: integer {x} vs number {y:?}"));
        }
        (Json::Num(x), Json::Int(y)) => {
            out.compared += 1;
            note(out, format!("{path}: number {x:?} vs integer {y}"));
        }
        (Json::Str(x), Json::Str(y)) => {
            out.compared += 1;
            if x != y {
                note(out, format!("{path}: {x:?} != {y:?}"));
            }
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            if xs.len() != ys.len() {
                note(
                    out,
                    format!("{path}: array length {} != {}", xs.len(), ys.len()),
                );
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                walk(x, y, tol, &format!("{path}[{i}]"), out);
            }
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            let keys_a: Vec<&str> = xs.iter().map(|(k, _)| k.as_str()).collect();
            let keys_b: Vec<&str> = ys.iter().map(|(k, _)| k.as_str()).collect();
            if keys_a != keys_b {
                note(out, format!("{path}: object keys {keys_a:?} != {keys_b:?}"));
                return;
            }
            for ((k, x), (_, y)) in xs.iter().zip(ys) {
                walk(x, y, tol, &format!("{path}.{k}"), out);
            }
        }
        _ => note(out, format!("{path}: type mismatch")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The reader's cases sit with the diff's: every operand of `xp diff`
    // goes through `parse_json`.

    #[test]
    fn parses_report_shaped_json() {
        let j = parse_json(
            r#"{"scenario": "x", "points": [{"load": 0.5, "tail": null, "ok": true}], "n": -3e2}"#,
        )
        .unwrap();
        let Json::Obj(members) = &j else { panic!() };
        assert_eq!(members[0].0, "scenario");
        assert_eq!(members[2], ("n".into(), Json::Num(-300.0)));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("[1] garbage").is_err());
        assert_eq!(parse_json(r#""a\"bA""#).unwrap(), Json::Str("a\"bA".into()));
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nest(128)).is_ok());
        let err = parse_json(&nest(129)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // 200 000 unclosed brackets used to abort the process.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(200_000)).is_err());
        // Siblings do not count as depth.
        assert!(parse_json(&format!("[{}[]]", "[],".repeat(500))).is_ok());
    }

    #[test]
    fn accessors_are_range_exact() {
        let j = parse_json(
            r#"{"n": 7, "neg": -1, "big": 18446744073709551616, "max": 18446744073709551615,
                "x": 2.5, "s": "hi", "b": true, "a": [1, 2], "z": null}"#,
        )
        .unwrap();
        assert_eq!(j.field("n", Json::as_u64), Ok(7));
        assert_eq!(j.field("n", Json::as_usize), Ok(7));
        assert_eq!(j.field("n", Json::as_f64), Ok(7.0));
        assert_eq!(j.field("max", Json::as_u64), Ok(u64::MAX));
        // Out of range is a refusal, never a wrap to some other number.
        for key in ["neg", "big", "x", "s", "z"] {
            assert!(j.field(key, Json::as_u64).is_err(), "{key}");
            assert!(j.field(key, Json::as_usize).is_err(), "{key}");
        }
        assert_eq!(j.field("x", Json::as_f64), Ok(2.5));
        assert_eq!(j.field("s", Json::as_str), Ok("hi"));
        assert_eq!(j.field("b", Json::as_bool), Ok(true));
        assert_eq!(j.field("a", Json::as_arr).map(<[Json]>::len), Ok(2));
        assert_eq!(j.get("z"), Some(&Json::Null));
        assert_eq!(j.get("nope"), None);
        assert_eq!(Json::Null.get("n"), None);
        let err = j.field("nope", Json::as_str).unwrap_err();
        assert!(err.contains("\"nope\""), "{err}");
        assert!(j.field("n", Json::as_str).unwrap_err().contains("\"n\""));
    }

    #[test]
    fn identical_reports_match_at_zero_tolerance() {
        let a = r#"{"x": [1, 2.5, "s"], "y": null}"#;
        let d = diff_reports(a, a, 0.0).unwrap();
        assert!(d.is_match());
        assert_eq!(d.compared, 4);
    }

    #[test]
    fn drift_detected_and_tolerated() {
        let a = r#"{"v": 100.0}"#;
        let b = r#"{"v": 100.4}"#;
        // Without a tolerance, a difference names no drift or tolerance.
        let d = diff_reports(a, b, 0.0).unwrap();
        assert_eq!(d.differences, ["$.v: 100 vs 100.4"]);
        let d = diff_reports(a, b, 1e-6).unwrap();
        assert_eq!(
            d.differences,
            ["$.v: 100 vs 100.4 (drift 3.984e-3 > tol 1.000e-6)"]
        );
        assert!(diff_reports(a, b, 0.01).unwrap().is_match());
        let d = diff_reports(r#"{"n": 7}"#, r#"{"n": 8}"#, 0.0).unwrap();
        assert_eq!(d.differences, ["$.n: 7 vs 8"]);
    }

    #[test]
    fn structural_changes_are_always_drift() {
        let a = r#"{"points": [1, 2]}"#;
        assert!(!diff_reports(a, r#"{"points": [1]}"#, 1.0)
            .unwrap()
            .is_match());
        assert!(!diff_reports(a, r#"{"pts": [1, 2]}"#, 1.0)
            .unwrap()
            .is_match());
        assert!(!diff_reports(a, r#"{"points": [1, "2"]}"#, 1.0)
            .unwrap()
            .is_match());
    }

    #[test]
    fn an_integer_token_against_a_number_token_is_drift() {
        // A renderer switching `4` to `4.0` fails a byte pin, so the
        // locator names it, at any tolerance.
        let d = diff_reports(r#"{"v": 275000}"#, r#"{"v": 275000.0}"#, 1.0).unwrap();
        assert_eq!(d.differences, ["$.v: integer 275000 vs number 275000.0"]);
        let d = diff_reports(r#"[1.0]"#, r#"[1]"#, 1.0).unwrap();
        assert_eq!(d.differences, ["$[0]: number 1.0 vs integer 1"]);
    }

    #[test]
    fn integers_above_2_53_compare_exactly() {
        // 9007199254740993 = 2^53 + 1 rounds to 2^53 as f64, so the old
        // f64-only parser saw these two different counters as equal.
        let a = r#"{"tx_bytes": 9007199254740993}"#;
        let b = r#"{"tx_bytes": 9007199254740992}"#;
        let d = diff_reports(a, b, 0.0).unwrap();
        assert!(!d.is_match(), "one-apart u64 counters must diff");
        assert!(diff_reports(a, a, 0.0).unwrap().is_match());
        assert!(diff_reports(b, b, 0.0).unwrap().is_match());
        // Relative tolerance still applies to integer tokens.
        assert!(diff_reports(a, b, 1e-9).unwrap().is_match());
        // Parsed representation keeps full precision.
        assert_eq!(
            parse_json("9007199254740993").unwrap(),
            Json::Int(9_007_199_254_740_993)
        );
        assert_eq!(parse_json("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse_json("4.0").unwrap(), Json::Num(4.0));
    }

    /// How a number token read before digits were summed in the scan,
    /// kept as the oracle: `str::parse` of the whole token.
    fn oracle_number(text: &str) -> Option<Json> {
        if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(i) = text.parse::<i128>() {
                return Some(Json::Int(i));
            }
        }
        text.parse::<f64>().ok().map(Json::Num)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// 1–40 digits (leading zeros included), optionally signed and
        /// followed by `.5` or `e3`: the in-scan sum and `str::parse`
        /// agree on every token, alone and inside an array.
        #[test]
        fn integer_shaped_tokens_read_as_str_parse_does(
            digits in proptest::prop::collection::vec(0u8..10, 1usize..=40),
            sign in 0usize..2,
            suffix in 0usize..3,
        ) {
            let body: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
            let text = format!("{}{body}{}", ["", "-"][sign], ["", ".5", "e3"][suffix]);
            let want = oracle_number(&text).expect("a well-formed number");
            proptest::prop_assert_eq!(parse_json(&text), Ok(want.clone()), "{}", text);
            let listed = Json::Arr(vec![want, Json::Int(1)]);
            proptest::prop_assert_eq!(parse_json(&format!("[{text},1]")), Ok(listed));
        }
    }

    #[test]
    fn scanned_integers_stop_at_u64_digits() {
        assert_eq!(
            parse_json("9999999999999999999").unwrap(),
            Json::Int(9_999_999_999_999_999_999)
        );
        assert_eq!(
            parse_json("18446744073709551616").unwrap(),
            Json::Int(18_446_744_073_709_551_616)
        );
        assert_eq!(parse_json("007").unwrap(), Json::Int(7));
        assert!(parse_json("12+3").is_err());
        assert!(parse_json("1-").is_err());
    }

    #[test]
    fn difference_listing_is_capped_not_lost() {
        let a = format!(
            "[{}]",
            (0..50).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        let b = format!(
            "[{}]",
            (1..51).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        let d = diff_reports(&a, &b, 0.0).unwrap();
        assert_eq!(d.differences.len(), MAX_DIFFERENCES);
        assert!(d.truncated);
        assert!(!d.is_match());
    }
}
