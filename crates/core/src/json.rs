//! A minimal JSON document model, one writer, and one reader.
//!
//! The workspace builds with no external crates (the registry may be
//! unreachable), so the machine-readable output of the `tapo` and `repro`
//! binaries is emitted through this module instead of a serialization
//! framework.
//!
//! Writing: the emitters build a [`Json`] tree whose fixed-shape objects
//! are [`Json::Fields`], keyed by `&'static str` slugs, so a report line
//! costs no `String` per key. [`Json::compact`] and [`Json::pretty`] are
//! one byte-level walk into a `Vec<u8>`, differing only in indentation.
//!
//! Reading goes through one byte-level pull `Cursor`: the only string
//! scanner and the only number scanner in the crate. [`Json::parse`] is a
//! thin tree-builder over it, for small documents read with `get`; the
//! report decoders (`report::parse`, `QSketch::decode`) pull fields
//! straight off the cursor instead, because `tapo fleet` and `tapo advise`
//! read the live pipeline's JSON-lines reports by the million and a tree
//! per line was nine tenths of the aggregator's time.

use std::borrow::Cow;
use std::io::Write as _;

/// A JSON value, built by hand at the emission site.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float. Non-finite values are emitted as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with run-time keys (ports, daemon ids, table headers, and
    /// everything [`Json::parse`] reads); insertion order is preserved on
    /// output.
    Obj(Vec<(String, Json)>),
    /// An object whose keys are compile-time strings, as [`Json::obj`]
    /// builds it. It reads, writes and compares exactly like the
    /// [`Json::Obj`] with the same pairs.
    Fields(Vec<(&'static str, Json)>),
}

/// Objects are equal when they hold the same ordered pairs, whichever
/// variant holds them; every other value compares as a derived impl would.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        use Json::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Arr(a), Arr(b)) => a == b,
            (Obj(a), Obj(b)) => same_pairs(a, b),
            (Obj(a), Fields(b)) => same_pairs(a, b),
            (Fields(a), Obj(b)) => same_pairs(a, b),
            (Fields(a), Fields(b)) => same_pairs(a, b),
            _ => false,
        }
    }
}

fn same_pairs<A: AsRef<str>, B: AsRef<str>>(a: &[(A, Json)], b: &[(B, Json)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka.as_ref() == kb.as_ref() && va == vb)
}

fn lookup<'a, K: AsRef<str>>(pairs: &'a [(K, Json)], key: &str) -> Option<&'a Json> {
    pairs
        .iter()
        .find(|(k, _)| k.as_ref() == key)
        .map(|(_, v)| v)
}

/// Where and why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What went wrong, human-readable.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from `(key, value)` pairs with static keys.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Fields(pairs.into_iter().collect())
    }

    /// Parse one JSON document (object, array, or scalar). Trailing
    /// non-whitespace is an error — JSON-lines input should be split into
    /// lines first.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut cur = Cursor::new(text);
        let v = build(&mut cur)?;
        cur.finish()?;
        Ok(v)
    }

    /// Member lookup: `Some(&value)` if this is an object with `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => lookup(pairs, key),
            Json::Fields(pairs) => lookup(pairs, key),
            _ => None,
        }
    }

    /// This value as a non-negative integer ([`Json::Int`] only — floats
    /// are deliberately not truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// This value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's members if it is a [`Json::Obj`] — what [`Json::parse`]
    /// builds for every object. A static-key [`Json::Fields`] object, which
    /// only the emitters build, answers `None`; read it with [`Json::get`].
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// This value's array items, if it is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline-free body.
    pub fn pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(0));
        into_string(out)
    }

    /// Render on a single line with no whitespace — the JSON-lines form
    /// used for the live reporter's per-interval records.
    pub fn compact(&self) -> String {
        // An interval report line averages 1.4 KB and a summary line is
        // longer: start past both so the buffer grows only for outliers.
        let mut out = Vec::with_capacity(2048);
        self.write(&mut out, None);
        into_string(out)
    }

    /// The one writer: compact when `indent` is `None`, otherwise pretty,
    /// with this value's nesting level as the indent.
    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Int(i) => write_int(out, *i),
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.extend_from_slice(b"null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_container(out, indent, *b"[]", items.iter().map(|v| (None, v)))
            }
            Json::Obj(pairs) => write_container(
                out,
                indent,
                *b"{}",
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
            Json::Fields(pairs) => write_container(
                out,
                indent,
                *b"{}",
                pairs.iter().map(|(k, v)| (Some(*k), v)),
            ),
        }
    }
}

/// The writer's output as a `String`. Every byte it writes comes from a
/// `&str` or is ASCII, so the check cannot fail.
fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

/// An array (members without keys) or an object between `brackets`. An
/// empty one is the bare brackets in either form; a pretty one puts each
/// member on its own line, one level deeper than `indent`.
fn write_container<'a>(
    out: &mut Vec<u8>,
    indent: Option<usize>,
    brackets: [u8; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(brackets[0]);
    let inner = indent.map(|n| n + 1);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(b',');
        }
        empty = false;
        newline(out, inner);
        if let Some(key) = key {
            write_escaped(out, key);
            out.extend_from_slice(if indent.is_some() { b": " } else { b":" });
        }
        value.write(out, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

/// In pretty form, a line break and `indent` levels of two spaces; nothing
/// in compact form.
fn newline(out: &mut Vec<u8>, indent: Option<usize>) {
    if let Some(levels) = indent {
        out.push(b'\n');
        for _ in 0..levels {
            out.extend_from_slice(b"  ");
        }
    }
}

/// Parser recursion limit — deep enough for any report this toolchain
/// emits, shallow enough that hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// One step of a [`Cursor`]: a whole scalar, or the opening bracket of a
/// container whose contents the caller then walks with [`Cursor::key`] /
/// [`Cursor::item`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` (`-0` is `Int(0)`).
    Int(i64),
    /// Any other number: a fraction, an exponent, or beyond `i64`.
    Num(f64),
    /// A string, borrowed from the input unless it contained escapes.
    Str(Cow<'a, str>),
    /// `[` — walk the items with [`Cursor::item`].
    ArrStart,
    /// `{` — walk the members with [`Cursor::key`].
    ObjStart,
}

/// The one JSON reader: a pull cursor over the raw bytes (JSON structure is
/// ASCII; string contents pass through as validated UTF-8 from the input
/// `&str`). [`Json::parse`] builds its tree from these calls and the report
/// decoders read fields straight off them, so every consumer accepts the
/// same documents and reports the same [`JsonError`] for the same input.
///
/// Protocol: [`Cursor::value`] reads the value at the cursor. After an
/// `ObjStart`, call [`Cursor::key`] until it returns `None`, consuming
/// exactly one value (with `value`, [`Cursor::skip_value`] or a helper built
/// on them) after each key; after an `ArrStart`, do the same with
/// [`Cursor::item`] while it returns `true`. [`Cursor::finish`] closes the
/// document.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// The last token was an opening bracket: the next `key` / `item`
    /// expects a first element or the closing bracket, not a comma.
    opened: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first value of `text`.
    pub fn new(text: &'a str) -> Self {
        let mut cur = Cursor {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        };
        cur.skip_ws();
        cur
    }

    /// The input not yet read.
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// End of document: only whitespace may follow the top-level value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    #[cold]
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Read the value at the cursor: all of a scalar, or just the opening
    /// bracket of a container.
    #[inline]
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.opened = false;
        match self.peek() {
            Some(b'{') => Ok(self.open(Token::ObjStart)),
            Some(b'[') => Ok(self.open(Token::ArrStart)),
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn open(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.opened = true;
        token
    }

    /// Step to the next element of the open container: past the comma
    /// (unless the container was just opened), or past `close` — in which
    /// case the container is done and `false` comes back.
    #[inline]
    fn element(&mut self, close: u8, expected: &str) -> Result<bool, JsonError> {
        let first = std::mem::take(&mut self.opened);
        self.skip_ws();
        match self.peek() {
            Some(byte) if byte == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.err(expected)),
        }
    }

    /// Inside an object: the next member's key, leaving the cursor at its
    /// value — or `None` once the closing `}` is consumed.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.element(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.err("expected `:`"));
        }
        self.skip_ws();
        Ok(Some(key))
    }

    /// Inside an array: `true` with the cursor at the next item, or `false`
    /// once the closing `]` is consumed.
    #[inline]
    pub fn item(&mut self) -> Result<bool, JsonError> {
        self.element(b']', "expected `,` or `]`")
    }

    /// Consume the value at the cursor, whatever it is, validating it as
    /// strictly as [`Json::parse`] would.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.value()? {
            Token::ArrStart => {
                while self.item()? {
                    self.skip_value()?;
                }
            }
            Token::ObjStart => {
                while self.key()?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Open the object at the cursor; any other value is skipped and
    /// reported as `false` (what [`Json::members`] returning `None` means
    /// to a tree reader).
    pub fn open_object(&mut self) -> Result<bool, JsonError> {
        self.open_if(b'{')
    }

    /// Open the array at the cursor; any other value is skipped and
    /// reported as `false`.
    pub fn open_array(&mut self) -> Result<bool, JsonError> {
        self.open_if(b'[')
    }

    fn open_if(&mut self, bracket: u8) -> Result<bool, JsonError> {
        if self.peek() == Some(bracket) {
            self.value()?;
            Ok(true)
        } else {
            self.skip_value()?;
            Ok(false)
        }
    }

    /// The value at the cursor as [`Json::as_u64`] would read it; any other
    /// value is skipped.
    pub fn u64_or_skip(&mut self) -> Result<Option<u64>, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.skip_value()?;
            return Ok(None);
        }
        Ok(match self.value()? {
            Token::Int(i) => u64::try_from(i).ok(),
            _ => None,
        })
    }

    /// The value at the cursor as [`Json::as_str`] would read it; any other
    /// value is skipped.
    pub fn str_or_skip(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.peek() != Some(b'"') {
            self.skip_value()?;
            return Ok(None);
        }
        Ok(match self.value()? {
            Token::Str(s) => Some(s),
            _ => None,
        })
    }

    /// [`Json::get`] on a stream: `read` the value into `slot` if this is
    /// the key's first occurrence, skip it otherwise.
    pub fn first<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<(), JsonError> {
        if slot.is_none() {
            *slot = Some(read(self)?);
            Ok(())
        } else {
            self.skip_value()
        }
    }

    /// The compact integer pair at the cursor, `[a,b]` — the shape the
    /// emitters write for every sketch bucket — read in one step, with the
    /// outcome `open_array`, `item` and `u64_or_skip` would give. Any other
    /// shape (spacing, a sign, a fraction, a long number, another value)
    /// is `None` with nothing consumed, for the caller to read token by
    /// token.
    pub fn plain_pair(&mut self) -> Option<(u64, u64)> {
        if self.depth >= MAX_DEPTH {
            return None; // the token-by-token read reports the depth
        }
        let rest = self.text.as_bytes()[self.pos..].strip_prefix(b"[")?;
        let (a, rest) = plain_uint(rest, b',')?;
        let (b, rest) = plain_uint(rest, b']')?;
        self.pos = self.text.len() - rest.len();
        self.opened = false;
        Some((a, b))
    }

    /// The compact object at the cursor whose members are exactly `names`
    /// in that order, each a plain integer — `{"n":1,"us":2}`, the shape
    /// the emitters write for counters — read in one step, with the outcome
    /// `open_object`, `key` and `u64_or_skip` would give. Any other shape is
    /// `None` with nothing consumed. `names` must be distinct, non-empty
    /// and free of characters JSON escapes.
    pub fn plain_fields<const N: usize>(&mut self, names: [&str; N]) -> Option<[u64; N]> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        let mut rest = self.text.as_bytes()[self.pos..].strip_prefix(b"{")?;
        let mut values = [0; N];
        for (i, name) in names.iter().enumerate() {
            rest = rest
                .strip_prefix(b"\"")?
                .strip_prefix(name.as_bytes())?
                .strip_prefix(b"\":")?;
            let end = if i + 1 == N { b'}' } else { b',' };
            (values[i], rest) = plain_uint(rest, end)?;
        }
        self.pos = self.text.len() - rest.len();
        self.opened = false;
        Some(values)
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.rest().starts_with(word) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// The string at the cursor (which is on its opening quote). Borrowed
    /// from the input when it holds no escapes.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1; // consume opening quote
        let start = self.pos;
        self.plain_run();
        if self.eat(b'"') {
            // `plain_run` stops at ASCII bytes, so the slice lies on char
            // boundaries of the input `&str`.
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.escaped_string(start)
    }

    /// Advance over string content that stands for itself: up to a quote,
    /// a backslash, a control character or the end of input.
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
            self.pos += 1;
        }
    }

    /// The rest of a string whose plain prefix `start..pos` did not end at
    /// the closing quote: decode escapes into an owned copy. Kept out of
    /// line (like `long_number`) so the rare path does not bloat the
    /// report decoders' loops — worth ~10 % of `tapo fleet` ingest.
    #[inline(never)]
    fn escaped_string(&mut self, start: usize) -> Result<Cow<'a, str>, JsonError> {
        let mut out = String::new();
        let mut run = start;
        loop {
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            run = self.pos;
            self.plain_run();
        }
    }

    /// The character an escape sequence stands for (cursor just past the
    /// backslash).
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.rest().starts_with("\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &b in chunk {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v << 4 | digit;
        }
        self.pos += 4;
        Ok(v)
    }

    /// The number at the cursor, held to the RFC 8259 grammar:
    /// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    #[inline]
    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_start = self.pos;
        let mut magnitude = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .wrapping_mul(10)
                .wrapping_add((digit - b'0') as u64);
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        let ok = int_len == 1 || (int_len > 1 && self.text.as_bytes()[int_start] != b'0');
        let more = matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        // The common case, a plain integer of at most 18 digits: it fits an
        // i64 and the running sum cannot have wrapped.
        if ok && !more && int_len <= 18 {
            let i = magnitude as i64;
            return Ok(Token::Int(if negative { -i } else { i }));
        }
        self.long_number(start, ok)
    }

    /// The rest of a number that is not a short plain integer: `start` is
    /// where it began, the cursor is past its integer part, and `ok` says
    /// whether that part was well-formed.
    #[inline(never)]
    fn long_number(&mut self, start: usize, mut ok: bool) -> Result<Token<'a>, JsonError> {
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        // Number characters left over (`1.2.3`, `1e5e`, `--1`) belong to
        // the same malformed token; the error points past all of them.
        let end = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if !ok || self.pos != end {
            return Err(self.err("malformed number"));
        }
        let text = &self.text[start..end];
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Token::Int(i));
            }
        }
        // Beyond i64 falls back to float rather than erroring.
        text.parse::<f64>()
            .map(Token::Num)
            .map_err(|_| self.err("malformed number"))
    }

    /// Consume a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// The integer [`Cursor::number`] reads as a short plain `Int` — `0` or
/// `[1-9][0-9]{0,17}` — at the start of `bytes`, when `end` follows it: its
/// value and the bytes after `end`.
fn plain_uint(bytes: &[u8], end: u8) -> Option<(u64, &[u8])> {
    let len = bytes
        .iter()
        .take(19)
        .take_while(|b| b.is_ascii_digit())
        .count();
    if len == 0 || len > 18 || (len > 1 && bytes[0] == b'0') || bytes.get(len) != Some(&end) {
        return None;
    }
    let value = bytes[..len]
        .iter()
        .fold(0, |v, &d| v * 10 + u64::from(d - b'0'));
    Some((value, &bytes[len + 1..]))
}

/// The tree-builder: one [`Json`] node per cursor token.
fn build(cur: &mut Cursor<'_>) -> Result<Json, JsonError> {
    Ok(match cur.value()? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Int(i) => Json::Int(i),
        Token::Num(x) => Json::Num(x),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::ArrStart => {
            let mut items = Vec::new();
            while cur.item()? {
                items.push(build(cur)?);
            }
            Json::Arr(items)
        }
        Token::ObjStart => {
            let mut pairs = Vec::new();
            while let Some(key) = cur.key()? {
                pairs.push((key.into_owned(), build(cur)?));
            }
            Json::Obj(pairs)
        }
    })
}

/// Decimal digits from a stack buffer: integers are most of a report's
/// values and `fmt` is several times the cost of the division loop.
fn write_int(out: &mut Vec<u8>, i: i64) {
    let mut buf = [0u8; 20]; // '-' and the 19 digits of `i64::MIN`
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// `s` as a JSON string. Keys and values almost never need an escape, so
/// the whole string is copied at once when none does; otherwise unescaped
/// runs go out whole between the escapes.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Large u64s would lose precision as f64 and overflow i64; clamp to
        // i64::MAX (no counter in this workspace gets near either bound).
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        match o {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nests() {
        let doc = Json::obj([
            ("name", Json::from("a\"b\\c\nd")),
            ("xs", Json::from(vec![1i64, 2, 3])),
            ("nested", Json::obj([("ok", Json::from(true))])),
            ("nothing", Json::Null),
        ]);
        let s = doc.pretty();
        assert!(s.contains(r#""a\"b\\c\nd""#));
        assert!(s.contains("\"xs\": [\n"));
        assert!(s.contains("\"ok\": true"));
        assert!(s.contains("\"nothing\": null"));
        // Escapes at both ends, back to back, and between multi-byte runs.
        assert_eq!(
            Json::from("\"é\u{1}\t✓\\\r").compact(),
            r#""\"é\u0001\t✓\\\r""#
        );
        assert_eq!(Json::from("").compact(), r#""""#);
    }

    #[test]
    fn compact_is_single_line() {
        let doc = Json::obj([
            ("a", Json::from(1u64)),
            ("b", Json::from(vec![1i64, 2])),
            ("c", Json::obj([("d", Json::Null)])),
        ]);
        assert_eq!(doc.compact(), r#"{"a":1,"b":[1,2],"c":{"d":null}}"#);
        for i in [0, 9, 10, -1, -10, 1_234_567_890_123, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(i).compact(), i.to_string());
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(1.5).pretty(), "1.5");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
        assert_eq!(Json::obj([]).compact(), "{}");
    }

    #[test]
    fn option_and_int_conversions() {
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(Json::from(Some(3u64)), Json::Int(3));
        assert_eq!(Json::from(u64::MAX), Json::Int(i64::MAX));
    }

    /// `v` as a reader gets it back: JSON has one number type, so an
    /// integral float is read as the integer it prints as, and a non-finite
    /// one as the `null` it prints as. Objects keep their variant.
    fn as_read(v: &Json) -> Json {
        match v {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Num(x) if x.fract() == 0.0 && x.abs() < i64::MAX as f64 => Json::Int(*x as i64),
            Json::Arr(items) => Json::Arr(items.iter().map(as_read).collect()),
            Json::Obj(pairs) => {
                Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), as_read(v))).collect())
            }
            Json::Fields(pairs) => {
                Json::Fields(pairs.iter().map(|(k, v)| (*k, as_read(v))).collect())
            }
            other => other.clone(),
        }
    }

    /// Every emitter's tree, and hand-built edge cases, read back from
    /// both writers equal to the tree written.
    #[test]
    fn parse_round_trips_the_emitter() {
        use crate::advise::{MechanismEffect, ServiceAdvice, ServiceObserved};
        use crate::fleet::{aggregate, FleetAlert, FleetConfig};
        use crate::live::{self, IntervalReport, LiveConfigBuilder};
        use crate::report::parse::parse_interval_line;
        use crate::sink::Record;

        let awkward = "a\"b\\c\nd\u{1} — unicode ✓";
        let mut docs = vec![
            Json::obj([
                ("name", Json::from(awkward)),
                ("count", Json::from(42u64)),
                ("neg", Json::from(-7i64)),
                ("rate", Json::from(1.5f64)),
                ("flag", Json::from(true)),
                ("nothing", Json::Null),
                ("xs", Json::from(vec![1i64, 2, 3])),
                (
                    "by_port",
                    Json::Obj(vec![(
                        "80".into(),
                        Json::obj([("flows", Json::from(3u64))]),
                    )]),
                ),
            ]),
            Json::Obj(vec![(awkward.into(), Json::from(awkward))]),
            Json::Arr(vec![Json::Obj(vec![]), Json::obj([]), Json::Arr(vec![])]),
        ];

        // `tapo live` interval records with every optional section, and
        // the run summary, from the committed golden capture.
        let cfg = LiveConfigBuilder::new()
            .sketch(true)
            .per_shard_occupancy(true)
            .build()
            .unwrap();
        let cap = include_bytes!("../tests/golden/handmade.pcap");
        let mut intervals = Vec::new();
        let summary = live::run(&cap[..], &cfg, |r| intervals.push(r.clone())).unwrap();
        assert!(intervals.iter().any(|r| r.rtt_sketch.is_some()
            && r.shard_occupancy.is_some()
            && !r.by_port.is_empty()));
        docs.extend(intervals.iter().map(IntervalReport::to_json));
        docs.push(summary.to_json());

        // `tapo fleet` interval and summary records over those intervals,
        // an alert, and a `tapo advise` record.
        let records: Vec<_> = intervals
            .iter()
            .map(|r| {
                parse_interval_line(&r.to_json().compact())
                    .unwrap()
                    .unwrap()
            })
            .collect();
        let fleet = aggregate(&records, 0, &FleetConfig::default());
        docs.extend(fleet.intervals.iter().map(Record::json));
        docs.push(fleet.summary.json());
        docs.push(
            FleetAlert {
                bucket: 4,
                start_us: 4_000_000,
                scope: "fe1.pop-a".into(),
                metric: "stall_share_us",
                value_us: 9_000,
                baseline_us: 3_000,
                threshold_pct: 50,
                flows: 12,
            }
            .json(),
        );
        let effect = |r| MechanismEffect {
            mean_reduction: r,
            ci95: 0.0125,
        };
        docs.push(
            ServiceAdvice {
                service: workloads::Service::WebSearch,
                observed: ServiceObserved {
                    flows: 3,
                    stalls: 2,
                    stalled_us: 1_599_800,
                },
                replicates: 2,
                flows: 8,
                native_stall_us: 4_200_000,
                effects: [effect(0.25), effect(-0.5), effect(0.3125)],
                recommendation: "T-RACKs",
                expected_reduction: 0.3125,
            }
            .json(),
        );

        // `tapo --json` builds its document in the binary: the committed
        // output reads back, and this writer renders it byte for byte.
        let offline = include_str!("../tests/golden/offline.json");
        let doc = Json::parse(offline).unwrap();
        assert_eq!(doc.pretty() + "\n", offline);
        docs.push(doc);

        for doc in &docs {
            let want = as_read(doc);
            assert_eq!(
                Json::parse(&doc.compact()).unwrap(),
                want,
                "{}",
                doc.compact()
            );
            assert_eq!(
                Json::parse(&doc.pretty()).unwrap(),
                want,
                "{}",
                doc.pretty()
            );
        }

        // A static-key object equals the owned-key object with the same
        // ordered pairs, either way round, and nothing else.
        let pairs = [
            ("a", Json::from(1u64)),
            ("b", Json::obj([("c", Json::Null)])),
        ];
        let owned = Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        );
        assert_eq!(Json::obj(pairs.clone()), owned);
        assert_eq!(owned, Json::obj(pairs.clone()));
        assert_ne!(Json::obj(pairs.clone().into_iter().rev()), owned);
        assert_ne!(Json::obj(pairs.clone().into_iter().take(1)), owned);
        assert_eq!(Json::obj(pairs).compact(), owned.compact());
    }

    #[test]
    fn parse_accessors() {
        let v = Json::parse(r#"{"a":{"b":7},"s":"hi","f":2.5}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")).and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("a").and_then(Json::as_u64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.members().map(|m| m.len()), Some(3));
        let arr = Json::parse("[1,2,3]").unwrap();
        assert_eq!(arr.items().map(|i| i.len()), Some(3));
        assert_eq!(v.items(), None);
    }

    #[test]
    fn parse_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""A\n\té😀""#).unwrap(),
            Json::Str("A\n\té😀".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
        // Exactly four hex digits: no sign, no short form.
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u41 x""#] {
            let err = Json::parse(bad).expect_err(bad);
            assert_eq!((err.offset, &*err.message), (3, "invalid \\u escape"));
        }
        assert_eq!(
            Json::parse(r#""\u41"#).unwrap_err().message,
            "truncated \\u escape"
        );
    }

    #[test]
    fn cursor_borrows_unescaped_strings() {
        let mut cur = Cursor::new(r#"{"plain":"caf\u00e9","caf\u00e9":"plain é"}"#);
        assert_eq!(cur.value().unwrap(), Token::ObjStart);
        assert!(matches!(cur.key().unwrap(), Some(Cow::Borrowed("plain"))));
        assert!(matches!(cur.value().unwrap(), Token::Str(Cow::Owned(s)) if s == "café"));
        assert!(matches!(cur.key().unwrap(), Some(Cow::Owned(k)) if k == "café"));
        assert_eq!(cur.value().unwrap(), Token::Str(Cow::Borrowed("plain é")));
        assert_eq!(cur.key().unwrap(), None);
        cur.finish().unwrap();
    }

    #[test]
    fn cursor_helpers_read_what_the_tree_accessors_read() {
        let text = r#"{"a":7,"b":-0,"c":-1,"d":1.0,"e":"s","f":[1,{"g":null}],"a":8}"#;
        let doc = Json::parse(text).unwrap();
        let mut cur = Cursor::new(text);
        assert!(cur.open_object().unwrap());
        let mut a = None;
        while let Some(key) = cur.key().unwrap() {
            match &*key {
                "a" => cur.first(&mut a, Cursor::u64_or_skip).unwrap(),
                "e" => assert_eq!(cur.str_or_skip().unwrap().as_deref(), Some("s")),
                "f" => assert!(!cur.open_object().unwrap(), "an array, skipped whole"),
                k => assert_eq!(
                    cur.u64_or_skip().unwrap(),
                    doc.get(k).and_then(Json::as_u64),
                    "{k}"
                ),
            }
        }
        assert_eq!(a, Some(doc.get("a").and_then(Json::as_u64)));
        assert_eq!(a, Some(Some(7)), "first occurrence, as `get` reads it");
        cur.finish().unwrap();
    }

    #[test]
    fn one_step_readers_take_only_the_compact_shape() {
        let pair = |text: &str| {
            let mut cur = Cursor::new(text);
            cur.plain_pair().map(|pair| (pair, cur.rest().to_string()))
        };
        let ok = |a, b| Some(((a, b), ",x".to_string()));
        assert_eq!(pair("[0,7],x"), ok(0, 7));
        assert_eq!(
            pair("[999999999999999999,1],x"),
            ok(999_999_999_999_999_999, 1)
        );
        for text in [
            "[01,7]",
            "[1, 7]",
            "[ 1,7]",
            "[-1,7]",
            "[1.0,7]",
            "[1e3,7]",
            "[1,7,8]",
            "[1]",
            "[1,7",
            "[1,\"7\"]",
            "{1,7}",
            "[1000000000000000000,7]",
        ] {
            assert_eq!(pair(text), None, "{text}");
        }
        let fields = |text: &str| Cursor::new(text).plain_fields(["n", "us"]);
        assert_eq!(fields(r#"{"n":3,"us":40}"#), Some([3, 40]));
        for text in [
            r#"{"us":40,"n":3}"#,
            r#"{"n":3}"#,
            r#"{"n":3,"us":40,"x":1}"#,
            r#"{"n":3, "us":40}"#,
            r#"{"n":3,"usx":40}"#,
            r#"{"n":-3,"us":40}"#,
        ] {
            assert_eq!(fields(text), None, "{text}");
        }
    }

    #[test]
    fn skipping_validates_like_parsing() {
        let skip = |text: &str| {
            let mut cur = Cursor::new(text);
            cur.skip_value()?;
            cur.finish()
        };
        let deep = "[".repeat(5000);
        for text in [
            r#"{"a":[1,2,{"b":"\n"}],"c":null} "#,
            "[]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "[\"\\x\"]",
            "[\"a\tb\"]",
            "[01]",
            "[1.]",
            "[-]",
            "[1] 2",
            "",
            &deep,
            &format!("{{\"a\":{deep}"),
        ] {
            assert_eq!(skip(text), Json::parse(text).map(drop), "{text:?}");
        }
        let err = skip(&deep).unwrap_err();
        assert_eq!((err.offset, &*err.message), (129, "nesting too deep"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}x",
            "01x",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-0.5e-1").unwrap(), Json::Num(-0.05));
        assert_eq!(Json::parse("0E+2").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
        // Beyond i64 falls back to float rather than erroring.
        assert_eq!(
            Json::parse("9223372036854775808").unwrap(),
            Json::Num(9223372036854775808.0)
        );
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(1e20)
        );
    }

    #[test]
    fn parse_holds_numbers_to_the_rfc_grammar() {
        // (text, offset the error points at: past the whole number-like run)
        for (bad, offset) in [
            ("01", 2),
            ("-01", 3),
            ("00", 2),
            ("1.", 2),
            ("1.e5", 4),
            ("-.5", 3),
            ("1e", 2),
            ("1e+", 3),
            ("-", 1),
            ("--1", 3),
            ("1.2.3", 5),
            ("1e5e5", 5),
            ("1+1", 3),
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert_eq!(
                (err.offset, &*err.message),
                (offset, "malformed number"),
                "{bad}"
            );
        }
    }
}
