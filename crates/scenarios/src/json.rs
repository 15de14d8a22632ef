//! The workspace's one JSON reader.
//!
//! [`Parser`] is a hand-rolled pull reader over standard JSON (keeping it
//! local avoids a serde dependency the offline build cannot take). Every
//! byte it reads may be hostile — cache entries, worker lines, shard
//! manifests, `xp diff` operands — so nesting is bounded and every failure
//! is an `Err`, never a panic. It has two consumers:
//! - [`parse_json`] builds a [`Json`] tree (`xp diff` operands,
//!   manifests, NDJSON records), read through the range-exact accessors;
//! - `dcn_runner`'s codec, cache and worker lines pull an outcome's
//!   members straight into its fields, building no tree.

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
/// use dcn_scenarios::json::Parser;
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
