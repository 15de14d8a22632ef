//! Report diffing: where two JSON reports differ.
//!
//! A report is pinned byte for byte with `cmp`; `xp diff a.json b.json`
//! locates the drift behind a failing pin. It compares the two parsed
//! documents structurally (strings, booleans and numbers by value, arrays
//! and objects element by element) and prints the path of each difference.
//!
//! [`Parser`] is the workspace's one JSON reader: a hand-rolled pull
//! reader over standard JSON (keeping it local avoids a serde dependency
//! the offline build cannot take). Every byte it reads may be hostile —
//! cache entries, worker lines, shard manifests — so nesting is bounded
//! and every failure is an `Err`, never a panic. It has two consumers:
//! - [`parse_json`] builds a [`Json`] tree (`xp diff` operands,
//!   manifests, NDJSON records), read through the range-exact accessors;
//! - `dcn_runner`'s codec and cache pull an outcome's members straight
//!   into its fields, building no tree.

/// A parsed JSON value. Object member order is preserved — the report
/// renderers emit fixed field order, so order differences are real
/// differences.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-looking number (no `.`/`e` in the source text), kept in
    /// full precision: `f64` silently rounds u64 counters above 2^53
    /// (`tx_bytes`, eviction counts), which let genuinely different
    /// reports diff clean.
    Int(i128),
    /// Any other number (f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An integer token within `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// An integer token within `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any number token (integer tokens convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member `key` read through one of the `as_*` accessors, or an
    /// error naming the key: `j.field("seed", Json::as_u64)?`.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let value = self.get(key).ok_or_else(|| format!("missing {key:?}"))?;
        read(value).ok_or_else(|| format!("{key:?} has the wrong type or is out of range"))
    }
}

/// Deepest array/object nesting the [`Parser`] accepts (reports nest 5
/// deep). Building a tree recurses per level, and input is hostile:
/// without the cap a few hundred KB of `[` overflow the stack, which
/// aborts the process — no `Err`, no `catch_unwind`.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document into a tree.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser::new(src.as_bytes());
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// A pull reader over one JSON document. The caller states the shape it
/// expects — open an object, read member `"seed"` as a `u64`, … — and
/// the reader checks it token by token, so a member that is missing, out
/// of order or of the wrong type is an `Err`. The `,` between two values
/// of one container is consumed by the read of the second.
///
/// ```
/// use dcn_scenarios::diff::Parser;
/// let mut p = Parser::new(br#"{"seed": 42, "xs": [1, 2]}"#);
/// p.open_obj()?;
/// assert_eq!(p.field("seed", Parser::u64)?, 42);
/// p.key("xs")?;
/// p.open_arr()?;
/// let mut xs = Vec::new();
/// while p.item()? {
///     xs.push(p.u64()?);
/// }
/// p.close_obj()?;
/// p.finish()?;
/// assert_eq!(xs, [1, 2]);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The next value opens its container or follows a key: no `,`
    /// precedes it.
    fresh: bool,
}

impl<'a> Parser<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Parser {
            bytes,
            pos: 0,
            depth: 0,
            fresh: true,
        }
    }

    /// Open an object: `{`.
    #[inline]
    pub fn open_obj(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Close the innermost object: `}`.
    #[inline]
    pub fn close_obj(&mut self) -> Result<(), String> {
        self.close(b'}')
    }

    /// Open an array: `[`.
    #[inline]
    pub fn open_arr(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Close the innermost array: `]`.
    #[inline]
    pub fn close_arr(&mut self) -> Result<(), String> {
        self.close(b']')
    }

    /// Does another item of the innermost array follow? `false` once its
    /// `]` has been consumed.
    #[inline]
    pub fn item(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.close(b']')?;
            return Ok(false);
        }
        Ok(true)
    }

    /// The next member's key, which must be `name`, and its `:`.
    pub fn key(&mut self, name: &str) -> Result<(), String> {
        let at = self.pos;
        if !self.str_eq(name)? {
            return Err(format!("expected member {name:?} after byte {at}"));
        }
        self.colon()
    }

    /// Member `name`, its value read by `read`. A value `read` refuses
    /// errors as [`Json::field`] does: `"seed" has the wrong type or is
    /// out of range`.
    pub fn field<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.key(name)?;
        read(self).map_err(|_| format!("{name:?} has the wrong type or is out of range"))
    }

    /// An integer token within `u64`, as [`Json::as_u64`] reads one.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.sep()?;
        match self.plain_u64() {
            Some(n) => Ok(n),
            None => self.integer(Json::as_u64),
        }
    }

    /// An integer token within `usize`, as [`Json::as_usize`] reads one.
    pub fn usize(&mut self) -> Result<usize, String> {
        self.sep()?;
        self.integer(Json::as_usize)
    }

    /// A string token, unescaped.
    pub fn str(&mut self) -> Result<String, String> {
        self.sep()?;
        self.string()
    }

    /// Does the next string token, unescaped, equal `want`? It is
    /// compared as it is scanned, so no `String` is built; the whole
    /// token is consumed either way. (A token equal to `want` is valid
    /// UTF-8 because `want` is.)
    pub fn str_eq(&mut self, want: &str) -> Result<bool, String> {
        self.sep()?;
        let mut rest = Some(want.as_bytes());
        self.string_pieces(|piece| rest = rest.and_then(|r| r.strip_prefix(piece)))?;
        Ok(rest.is_some_and(<[u8]>::is_empty))
    }

    /// The next value, whatever it is, as a tree. Nesting is capped at
    /// 128 levels, the containers already open included.
    pub fn value(&mut self) -> Result<Json, String> {
        self.sep()?;
        self.tree()
    }

    /// The end of the document: nothing but whitespace may follow.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    /// Whitespace, then — unless the next value is the first of its
    /// container or follows a key — the `,` before it.
    #[inline]
    fn sep(&mut self) -> Result<(), String> {
        self.skip_ws();
        if !std::mem::replace(&mut self.fresh, false) {
            self.expect(b',')?;
            self.skip_ws();
        }
        Ok(())
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.sep()?;
        self.enter(bracket)
    }

    #[inline]
    fn enter(&mut self, bracket: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    #[inline]
    fn close(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect(bracket)?;
        self.depth = self.depth.saturating_sub(1);
        self.fresh = false;
        Ok(())
    }

    /// The number token at the reader's position, its `,` consumed, read
    /// through `in_range`.
    fn integer<T>(&mut self, in_range: fn(&Json) -> Option<T>) -> Result<T, String> {
        let at = self.pos;
        let token = match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            _ => Json::Null,
        };
        in_range(&token).ok_or_else(|| format!("expected an integer in range at byte {at}"))
    }

    /// A token that is nothing but ≤ 19 digits fits a u64 — every counter
    /// and every non-negative `f64`'s bits (< 2^63) the codec writes — and
    /// is summed as it is scanned. `None`, and nothing consumed, for any
    /// other token: a sign, a fraction, an exponent, a 20th digit.
    #[inline]
    fn plain_u64(&mut self) -> Option<u64> {
        let (acc, digits) = leading_digits(&self.bytes[self.pos..]);
        let end = self.pos + digits;
        if !(1..=19).contains(&digits) || in_token(self.bytes.get(end).copied()) {
            return None;
        }
        self.pos = end;
        Some(acc)
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    #[cold]
    fn expected(&self, b: u8) -> String {
        format!(
            "expected {:?} at byte {}",
            b as char,
            self.pos.saturating_sub(1)
        )
    }

    /// The value at the reader's position, its `,` already consumed.
    /// Containers recurse through the pull calls, so [`MAX_DEPTH`] bounds
    /// the recursion.
    fn tree(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.enter(b'{')?;
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    members.push((key, self.value()?));
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.enter(b'[')?;
                let mut items = Vec::new();
                while self.item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// The next member's key and its `:`, or `None` once the innermost
    /// object's `}` has been consumed.
    fn next_key(&mut self) -> Result<Option<String>, String> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.close(b'}')?;
            return Ok(None);
        }
        let key = self.str()?;
        self.colon()?;
        Ok(Some(key))
    }

    fn colon(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.expect(b':')?;
        self.fresh = true;
        Ok(())
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        if let Some(n) = self.plain_u64() {
            return Ok(Json::Int(i128::from(n)));
        }
        let start = self.pos;
        while in_token(self.peek()) {
            self.pos += 1;
        }
        // Every byte `in_token` admits is ASCII.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        // Integer-looking tokens keep exact precision (i128 covers every
        // u64 counter the renderers emit); anything fractional or in
        // scientific notation compares as f64.
        if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        let mut out = Vec::new();
        self.string_pieces(|piece| out.extend_from_slice(piece))?;
        // Escapes decode to whole characters, so the text is valid UTF-8
        // exactly when every raw run between them is.
        String::from_utf8(out).map_err(|_| "bad UTF-8".to_string())
    }

    /// Scan one string token, handing its unescaped bytes to `piece` one
    /// raw run (or one escaped character) at a time.
    fn string_pieces(&mut self, mut piece: impl FnMut(&[u8])) -> Result<(), String> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        loop {
            let rest = &bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            piece(&rest[..run]);
            self.pos += run;
            match self.bump() {
                Some(b'"') => return Ok(()),
                Some(_) => piece(self.escape()?.encode_utf8(&mut [0; 4]).as_bytes()),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// The character a `\` escape stands for, the `\` consumed.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let d = self.bump().ok_or("truncated \\u escape")?;
                    code = code * 16 + (d as char).to_digit(16).ok_or("bad \\u escape")?;
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(format!("bad escape {other:?}")),
        })
    }
}

/// Can `b` continue a number token?
#[inline]
fn in_token(b: Option<u8>) -> bool {
    matches!(b, Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
}

/// The length of the run of ASCII digits `bytes` starts with, and their
/// value (which wraps past 19 digits). Eight digits at a time are checked
/// and summed as one little-endian word — the reduction of Lemire's
/// "fast_float" — then the rest one at a time.
#[inline]
fn leading_digits(bytes: &[u8]) -> (u64, usize) {
    const ZEROS: u64 = 0x3030_3030_3030_3030;
    const HIGH: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    let mut acc = 0u64;
    let mut n = 0;
    while let Some(&chunk) = bytes.get(n..).and_then(<[u8]>::first_chunk::<8>) {
        let word = u64::from_le_bytes(chunk);
        // Every byte is 0x30..=0x39: high nibble 3, and still 3 after +6.
        if (word & HIGH) | ((word.wrapping_add(0x0606_0606_0606_0606) & HIGH) >> 4)
            != 0x3333_3333_3333_3333
        {
            break;
        }
        // Pairs, then quads, then all eight: byte 0 is the first digit.
        let d = word - ZEROS;
        let pairs = d.wrapping_mul(10).wrapping_add(d >> 8);
        let mask = 0x0000_00ff_0000_00ff;
        let eight = ((pairs & mask)
            .wrapping_mul(100 + (1_000_000 << 32))
            .wrapping_add(((pairs >> 16) & mask).wrapping_mul(1 + (10_000 << 32))))
            >> 32;
        acc = acc.wrapping_mul(100_000_000).wrapping_add(eight);
        n += 8;
    }
    while let Some(&d @ b'0'..=b'9') = bytes.get(n) {
        acc = acc.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        n += 1;
    }
    (acc, n)
}

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
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
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
