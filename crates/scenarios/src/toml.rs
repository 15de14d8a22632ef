//! A minimal TOML subset parser and writer for scenario specs.
//!
//! The build environment has no crates.io access, so instead of the
//! `toml` crate this module implements the subset scenario specs need:
//! bare keys, `[dotted.table]` headers, strings with `\"`/`\\`/`\n`/`\t`
//! escapes, integers (with `_` separators), floats, booleans, and
//! (possibly multi-line) arrays of scalars. Comments (`#`) and blank
//! lines are ignored. Unsupported TOML (inline tables, dates, arrays of
//! tables) is rejected with a line-numbered error rather than
//! misparsed.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A nested table (sorted for deterministic iteration).
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// The table variant, if this is one.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The string variant, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An integer view (exact).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A float view; integers widen losslessly.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean variant, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array variant, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// A parse error with 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TOML parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Strip a trailing comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn valid_key(k: &str) -> bool {
    !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Parse a TOML document into its root table.
pub fn parse(input: &str) -> Result<BTreeMap<String, Value>, ParseError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    let mut current_path: Vec<String> = Vec::new();
    let lines: Vec<&str> = input.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            if rest.starts_with('[') {
                return err(lineno, "arrays of tables ([[..]]) are not supported");
            }
            let Some(path) = rest.strip_suffix(']') else {
                return err(lineno, "unterminated table header");
            };
            let parts: Vec<String> = path.split('.').map(|p| p.trim().to_string()).collect();
            if parts.iter().any(|p| !valid_key(p)) {
                return err(lineno, format!("invalid table name {path:?}"));
            }
            ensure_table(&mut root, &parts, lineno)?;
            current_path = parts;
            continue;
        }
        let Some(eq) = line.find('=') else {
            return err(lineno, format!("expected `key = value`, got {line:?}"));
        };
        let key = line[..eq].trim();
        if !valid_key(key) {
            return err(lineno, format!("invalid key {key:?}"));
        }
        let mut raw = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance
        // outside strings.
        while !brackets_balanced(&raw) {
            if i >= lines.len() {
                return err(lineno, "unterminated array");
            }
            raw.push(' ');
            raw.push_str(strip_comment(lines[i]).trim());
            i += 1;
        }
        let value = parse_value(raw.trim(), lineno)?;
        let table = navigate(&mut root, &current_path, lineno)?;
        if table.insert(key.to_string(), value).is_some() {
            return err(lineno, format!("duplicate key {key:?}"));
        }
    }
    Ok(root)
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => escaped = false,
        }
    }
    depth <= 0
}

fn ensure_table<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut BTreeMap<String, Value>, ParseError> {
    let mut cur = root;
    for part in path {
        let entry = cur
            .entry(part.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        match entry {
            Value::Table(t) => cur = t,
            _ => return err(lineno, format!("{part:?} is both a value and a table")),
        }
    }
    Ok(cur)
}

fn navigate<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut BTreeMap<String, Value>, ParseError> {
    ensure_table(root, path, lineno)
}

fn parse_value(raw: &str, lineno: usize) -> Result<Value, ParseError> {
    if raw.is_empty() {
        return err(lineno, "missing value");
    }
    if let Some(rest) = raw.strip_prefix('"') {
        return parse_string(rest, lineno);
    }
    if raw.starts_with('[') {
        return parse_array(raw, lineno);
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let numeric = raw.replace('_', "");
    if numeric.contains(['.', 'e', 'E']) || numeric == "inf" || numeric == "-inf" {
        if let Ok(f) = numeric.parse::<f64>() {
            return Ok(Value::Float(f));
        }
    } else if let Ok(n) = numeric.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    err(lineno, format!("cannot parse value {raw:?}"))
}

fn parse_string(rest: &str, lineno: usize) -> Result<Value, ParseError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let trailing: String = chars.collect();
                if !trailing.trim().is_empty() {
                    return err(
                        lineno,
                        format!("trailing characters after string: {trailing:?}"),
                    );
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return err(lineno, format!("unsupported escape \\{other:?}")),
            },
            c => out.push(c),
        }
    }
    err(lineno, "unterminated string")
}

fn parse_array(raw: &str, lineno: usize) -> Result<Value, ParseError> {
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or(ParseError {
            line: lineno,
            message: "malformed array".into(),
        })?;
    let mut items = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        items.push(parse_value(part, lineno)?);
    }
    Ok(Value::Array(items))
}

/// Split on commas that are not inside strings or nested brackets.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&s[start..]);
    out
}

/// Append a string literal, escaped so that [`parse`] reads it back.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a float, kept recognizable as a float on re-parse.
pub(crate) fn write_float(out: &mut String, f: f64) {
    use fmt::Write as _;
    let _ = if f.fract() != 0.0 || !f.is_finite() {
        write!(out, "{f}")
    } else if f.abs() < 1e15 {
        write!(out, "{f:.1}")
    } else {
        // `{f}` would print every digit and no point: an integer token,
        // and past 2^63 not even that.
        write!(out, "{f:e}")
    };
}

/// Append `[a, b, …]`, each entry written by `item`.
pub(crate) fn write_array<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# experiment
name = "fig7" # trailing comment
enabled = true
count = 1_000
ratio = 0.75

[topology]
kind = "fat-tree"
hosts_per_tor = 2

[sweep]
loads = [0.2, 0.4,
         0.8]
algos = ["powertcp", "hpcc"]
seeds = [1, 2, 3]
"#;
        let t = parse(doc).unwrap();
        assert_eq!(t["name"].as_str(), Some("fig7"));
        assert_eq!(t["enabled"].as_bool(), Some(true));
        assert_eq!(t["count"].as_i64(), Some(1000));
        assert_eq!(t["ratio"].as_f64(), Some(0.75));
        let topo = t["topology"].as_table().unwrap();
        assert_eq!(topo["kind"].as_str(), Some("fat-tree"));
        assert_eq!(topo["hosts_per_tor"].as_i64(), Some(2));
        let sweep = t["sweep"].as_table().unwrap();
        assert_eq!(sweep["loads"].as_array().unwrap().len(), 3);
        assert_eq!(sweep["algos"].as_array().unwrap()[1].as_str(), Some("hpcc"));
    }

    #[test]
    fn nested_dotted_tables() {
        let doc = "[workload.incast]\nfan_in = 8\n";
        let t = parse(doc).unwrap();
        let wl = t["workload"].as_table().unwrap();
        assert_eq!(wl["incast"].as_table().unwrap()["fan_in"].as_i64(), Some(8));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a \"b\"\n\\c";
        let mut written = "k = ".to_string();
        write_str(&mut written, s);
        let t = parse(&written).unwrap();
        assert_eq!(t["k"], Value::Str(s.into()));
    }

    #[test]
    fn floats_written_reparse_as_floats() {
        for f in [2.0, -0.5, 1e15, 9.223372036854776e18, -1e300, 1e-7] {
            let mut written = "x = ".to_string();
            write_float(&mut written, f);
            let t = parse(&written).unwrap();
            assert_eq!(t["x"], Value::Float(f));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("key").is_err());
        assert!(parse("k = ").is_err());
        assert!(parse("k = \"unterminated").is_err());
        assert!(parse("[unclosed\nk = 1").is_err());
        assert!(parse("k = 1\nk = 2").is_err());
        assert!(parse("[[tables]]\n").is_err());
        assert!(parse("k = 2026-07-27").is_err());
        let e = parse("ok = 1\nbad = @").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn comment_stripping_respects_strings() {
        let t = parse("k = \"a # b\" # real comment").unwrap();
        assert_eq!(t["k"].as_str(), Some("a # b"));
    }
}
