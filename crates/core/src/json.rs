//! A minimal JSON document model, one encoder, and one reader.
//!
//! The workspace builds with no external crates (the registry may be
//! unreachable), so the machine-readable output of the `tapo` and `repro`
//! binaries is emitted through this module instead of a serialization
//! framework.
//!
//! Writing goes through one byte-level encoder, [`Out`]: objects and
//! arrays with the commas placed by the writer, static and escaped keys,
//! and typed scalars, compact or indented. Every JSON-lines record (the
//! `tapo live`, `tapo fleet` and `tapo advise` lines) encodes itself
//! straight into an `Out` through [`Record::write_json`], with no tree in
//! between; [`JsonLinesSink`] reuses one line buffer, so a record costs no
//! allocation once the buffer has grown. A record's `json()` hands the
//! encoded line back as a [`Json::Raw`] leaf. The documents built once per
//! run (`tapo --json`, `repro --json`) are [`Json`] trees, and
//! [`Json::compact`] and [`Json::pretty`] are a walk over the same `Out`.
//!
//! Reading goes through one byte-level pull `Cursor`: the only string
//! scanner and the only number scanner in the crate. [`Json::parse`] is a
//! thin tree-builder over it, for small documents read with `get`; the
//! report decoders (`report::parse`, `QSketch::decode`) pull fields
//! straight off the cursor instead, because `tapo fleet` and `tapo advise`
//! read the live pipeline's JSON-lines reports by the million and a tree
//! per line was nine tenths of the aggregator's time.
//!
//! [`Record::write_json`]: crate::sink::Record::write_json
//! [`JsonLinesSink`]: crate::sink::JsonLinesSink

use std::borrow::Cow;
use std::io::Write as _;

/// A JSON value: what [`Json::parse`] reads, and what the offline
/// documents are built from by hand.
#[derive(Debug, Clone, PartialEq)]
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
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
    /// Compact JSON text an emitter already encoded (a record's line, as
    /// `Record::json` returns it). The compact writer splices it in as it
    /// is and the pretty one re-indents it. It shows no structure to
    /// [`Json::get`], [`Json::members`] or [`Json::items`]: to read one,
    /// [`Json::parse`] its text.
    Raw(String),
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
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
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
        self.members()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
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

    /// This value's members, if it is an object.
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
        let mut out = Out::pretty();
        self.write(&mut out);
        out.into_string()
    }

    /// Render on a single line with no whitespace — the JSON-lines form.
    /// A [`Json::Raw`] is already that form: its text comes back as it is.
    pub fn compact(&self) -> String {
        if let Json::Raw(text) = self {
            return text.clone();
        }
        let mut out = Out::new();
        self.write(&mut out);
        out.into_string()
    }

    /// This value through `out`. A [`Json::Raw`] is spliced in verbatim
    /// when compact; the pretty form re-indents it by parsing its text, a
    /// slow path for documents no emitter writes.
    fn write(&self, out: &mut Out) {
        match self {
            Json::Null => out.null(),
            Json::Bool(b) => out.bool(*b),
            Json::Int(i) => out.i64(*i),
            Json::Num(x) => out.f64(*x),
            Json::Str(s) => out.str(s),
            Json::Arr(items) => {
                out.begin_array();
                for item in items {
                    item.write(out);
                }
                out.end_array();
            }
            Json::Obj(pairs) => {
                out.begin_object();
                for (key, value) in pairs {
                    value.write(out.escaped_key(key));
                }
                out.end_object();
            }
            Json::Raw(text) if out.pretty => Json::parse(text)
                .expect("Json::Raw holds encoded JSON")
                .write(out),
            Json::Raw(text) => out.raw(text),
        }
    }
}

/// The one JSON encoder: a byte buffer that knows where it stands in the
/// document, so callers write keys and values and the encoder places the
/// commas, the colons and (in pretty form) the line breaks and indents.
///
/// An object is `begin_object`, then `key` (or `escaped_key`) and one value
/// per member, then `end_object`; an array is `begin_array`, its values,
/// `end_array`. A value is a scalar call, `raw`, or a whole container. The
/// key calls return the encoder, so a member reads
/// `out.key("packets").u64(n)`.
///
/// A report line is a few hundred of these calls, so the hot ones are
/// `#[inline(always)]`: left to the compiler, a line took about 1.7 times
/// as long to encode. Runs of counters go through [`Out::u64_members`], one
/// out-of-line loop, so the inlined code stays small: an interval
/// report's writer is about 10 KB of machine code instead of 32 KB, at the
/// same speed.
#[derive(Debug, Clone)]
pub struct Out {
    buf: Vec<u8>,
    /// Two-space indents and a line per member, or one compact line.
    pretty: bool,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container already holds an element, so the next
    /// one starts with a comma.
    comma: bool,
    /// A key was just written: the next value is its member's.
    after_key: bool,
}

impl Default for Out {
    fn default() -> Self {
        Out::new()
    }
}

impl Out {
    /// An empty compact encoder. An interval report line averages 1.4 KB
    /// and a summary line is longer: the buffer starts past both, so it
    /// grows only for outliers.
    pub fn new() -> Out {
        Out::with_layout(false, 2048)
    }

    /// An empty encoder that indents by two spaces per level and puts
    /// every member on its own line.
    pub fn pretty() -> Out {
        Out::with_layout(true, 0)
    }

    fn with_layout(pretty: bool, capacity: usize) -> Out {
        Out {
            buf: Vec::with_capacity(capacity),
            pretty,
            depth: 0,
            comma: false,
            after_key: false,
        }
    }

    /// Forget what was written, keeping the buffer for the next document.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.depth = 0;
        self.comma = false;
        self.after_key = false;
    }

    /// Append the newline that ends a JSON-lines line, and return the
    /// whole line.
    pub fn end_line(&mut self) -> &[u8] {
        debug_assert!(self.depth == 0, "a line ends outside every container");
        self.buf.push(b'\n');
        &self.buf
    }

    /// The document as a `String`. Every byte written comes from a `&str`
    /// or is ASCII, so the check cannot fail.
    pub fn into_string(self) -> String {
        String::from_utf8(self.buf).expect("the JSON encoder writes UTF-8")
    }

    /// Open an object.
    #[inline(always)]
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Close the innermost object.
    #[inline(always)]
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Open an array.
    #[inline(always)]
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Close the innermost array.
    #[inline(always)]
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// A member key that needs no escaping — every compile-time key in
    /// this workspace; the member's value comes next.
    #[inline(always)]
    pub fn key(&mut self, key: &'static str) -> &mut Out {
        debug_assert!(
            !key.bytes().any(needs_escape),
            "static key {key:?} needs escaping"
        );
        self.element();
        self.buf.push(b'"');
        self.buf.extend_from_slice(key.as_bytes());
        self.buf.push(b'"');
        self.colon()
    }

    /// A member key known only at run time (a daemon id, a table header),
    /// escaped like a string value; the member's value comes next.
    pub fn escaped_key(&mut self, key: &str) -> &mut Out {
        self.element();
        write_escaped(&mut self.buf, key);
        self.colon()
    }

    /// An integer member key, such as a port number; the member's value
    /// comes next.
    pub fn int_key(&mut self, key: u64) -> &mut Out {
        self.element();
        self.buf.push(b'"');
        write_digits(&mut self.buf, key);
        self.buf.push(b'"');
        self.colon()
    }

    /// Members with static keys and unsigned integer values, in order:
    /// the counters that make up most of a report line. One out-of-line
    /// loop writes them all, so a record's writer stays small in code
    /// however many counters it has.
    #[inline(never)]
    pub fn u64_members(&mut self, members: &[(&'static str, u64)]) {
        for &(key, n) in members {
            self.key(key).u64(n);
        }
    }

    /// An unsigned integer, clamped to `i64::MAX` like `Json::from(u64)`
    /// (no counter in this workspace gets near the bound).
    #[inline(always)]
    pub fn u64(&mut self, n: u64) {
        self.value();
        write_digits(&mut self.buf, n.min(i64::MAX as u64));
    }

    /// A signed integer.
    pub fn i64(&mut self, n: i64) {
        self.value();
        if n < 0 {
            self.buf.push(b'-');
        }
        write_digits(&mut self.buf, n.unsigned_abs());
    }

    /// A float in Rust's shortest round-trip form; `null` when it is not
    /// finite (JSON has no NaN).
    pub fn f64(&mut self, x: f64) {
        self.value();
        if x.is_finite() {
            let _ = write!(self.buf, "{x}");
        } else {
            self.buf.extend_from_slice(b"null");
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        self.value();
        write_escaped(&mut self.buf, s);
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.value();
        self.buf
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.value();
        self.buf.extend_from_slice(b"null");
    }

    /// A value already encoded as JSON text, copied as it is.
    pub fn raw(&mut self, json: &str) {
        self.value();
        self.buf.extend_from_slice(json.as_bytes());
    }

    #[inline(always)]
    fn open(&mut self, bracket: u8) {
        self.value();
        self.buf.push(bracket);
        self.depth += 1;
        self.comma = false;
    }

    /// An empty container is its bare brackets in either form.
    #[inline(always)]
    fn close(&mut self, bracket: u8) {
        debug_assert!(self.depth > 0 && !self.after_key, "unbalanced close");
        self.depth -= 1;
        if self.comma {
            self.newline();
        }
        self.buf.push(bracket);
        // The closed container is an element of the one around it.
        self.comma = true;
    }

    /// Before a value: a member's value follows its key directly; anything
    /// else starts a new element.
    #[inline(always)]
    fn value(&mut self) {
        if !std::mem::take(&mut self.after_key) {
            self.element();
        }
    }

    /// Start an element of the open container: the comma after the one
    /// before, and in pretty form its own line. A top-level value has
    /// neither.
    #[inline(always)]
    fn element(&mut self) {
        if self.depth == 0 {
            return;
        }
        if self.comma {
            self.buf.push(b',');
        }
        self.comma = true;
        self.newline();
    }

    #[inline(always)]
    fn colon(&mut self) -> &mut Out {
        self.buf.push(b':');
        if self.pretty {
            self.buf.push(b' ');
        }
        self.after_key = true;
        self
    }

    /// In pretty form, a line break and two spaces per open container;
    /// nothing in compact form.
    #[inline(always)]
    fn newline(&mut self) {
        if self.pretty {
            self.buf.push(b'\n');
            for _ in 0..self.depth {
                self.buf.extend_from_slice(b"  ");
            }
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
pub(crate) fn plain_uint(bytes: &[u8], end: u8) -> Option<(u64, &[u8])> {
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

/// `"00"` to `"99"`: integers are most of a report's values, and
/// [`write_digits`] writes them two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The decimal digits of `n`. Most report values have at most four
/// digits, so those are written from the table right here; longer ones
/// take the loop in [`write_long_digits`], kept out of line so the many
/// inlined call sites stay small.
#[inline(always)]
fn write_digits(out: &mut Vec<u8>, n: u64) {
    if n < 10 {
        out.push(b'0' + n as u8);
    } else if n < 100 {
        out.extend_from_slice(&digit_pair(n));
    } else if n < 10_000 {
        let [a, b] = digit_pair(n / 100);
        let [c, d] = digit_pair(n % 100);
        if n < 1_000 {
            out.extend_from_slice(&[b, c, d]);
        } else {
            out.extend_from_slice(&[a, b, c, d]);
        }
    } else {
        write_long_digits(out, n);
    }
}

/// The two digits of `n < 100`.
#[inline(always)]
fn digit_pair(n: u64) -> [u8; 2] {
    let at = n as usize * 2;
    [DIGIT_PAIRS[at], DIGIT_PAIRS[at + 1]]
}

/// The digits of `n`, built from the right in a stack buffer, two per
/// division.
#[inline(never)]
fn write_long_digits(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20]; // the 20 digits of `u64::MAX`
    let mut at = buf.len();
    while n >= 100 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&digit_pair(n % 100));
        n /= 100;
    }
    if n >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&digit_pair(n));
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
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
        for i in [
            0,
            9,
            10,
            -1,
            -10,
            99,
            -100,
            1_234_567_890_123,
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(Json::Int(i).compact(), i.to_string());
        }
        for n in [0, 7, 10, 99, 100, 101, 9_999, 10_000, 123_456_789, u64::MAX] {
            let mut out = Out::new();
            out.u64(n);
            assert_eq!(out.into_string(), n.min(i64::MAX as u64).to_string());
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

    /// Every record emitter's line, and lines written through [`Out`] by
    /// hand, judged against the readers: the tree walk re-renders each line
    /// byte for byte, its pretty form reads back to the same tree, interval
    /// lines decode to the reports that wrote them, and sketches to
    /// themselves.
    #[test]
    fn parse_round_trips_the_emitter() {
        use crate::advise::{MechanismEffect, ServiceAdvice, ServiceObserved};
        use crate::causes::{RetransClass, StallClass};
        use crate::fleet::sketch::QSketch;
        use crate::fleet::{aggregate, FleetAlert, FleetConfig};
        use crate::live::{self, LiveConfig};
        use crate::report::parse::{parse_interval_line, ClassStats, ParsedInterval, CLASS_SLOTS};
        use crate::sink::Record;

        // Awkward strings as values and as run-time keys, integer keys,
        // every scalar, and nested empty containers.
        let awkward = "a\"b\\c\nd\u{1} — unicode ✓";
        let mut out = Out::new();
        out.begin_object();
        out.key("name").str(awkward);
        out.escaped_key(awkward).str(awkward);
        out.int_key(80).begin_object();
        out.key("flows").u64(3);
        out.end_object();
        out.key("count").u64(42);
        out.key("clamped").u64(u64::MAX);
        out.key("neg").i64(-7);
        out.key("rate").f64(1.5);
        out.key("nan").f64(f64::NAN);
        out.key("flag").bool(true);
        out.key("nothing").null();
        out.key("raw").raw(r#"{"x":[1,{}]}"#);
        out.key("empties").begin_array();
        out.begin_object();
        out.end_object();
        out.begin_array();
        out.end_array();
        out.end_array();
        out.end_object();
        let mut lines = vec![out.into_string()];

        // `tapo live` interval records with every optional section, and
        // the run summary, from the committed golden capture.
        let cfg = LiveConfig {
            sketch: true,
            per_shard_occupancy: true,
            ..LiveConfig::default()
        };
        let cap = include_bytes!("../tests/golden/handmade.pcap");
        let mut intervals = Vec::new();
        let summary = live::run(&cap[..], &cfg, |r| intervals.push(r.clone())).unwrap();
        assert!(intervals.iter().any(|r| r.rtt_sketch.is_some()
            && r.shard_occupancy.is_some()
            && !r.by_port.is_empty()));
        let interval_lines: Vec<String> = intervals.iter().map(|r| r.to_json().compact()).collect();
        lines.extend(interval_lines.iter().cloned());
        lines.push(summary.to_json().compact());

        // An interval line decodes to the fields of the report that wrote it.
        for (report, line) in intervals.iter().zip(&interval_lines) {
            let us = |(n, t): crate::report::CauseStats| (n, t.as_micros());
            let b = &report.breakdown;
            let mut slots = [(0, 0); CLASS_SLOTS];
            for c in StallClass::ALL {
                slots[c.index()] = us(b.cause_stats(c));
            }
            for c in RetransClass::ALL {
                slots[StallClass::ALL.len() + c.index()] = us(b.retrans_stats(c));
            }
            let want = ParsedInterval {
                daemon: report.daemon.as_str().to_string(),
                interval: report.interval,
                start_us: report.start_us,
                end_us: report.end_us,
                packets: report.packets,
                flows_finalized: report.flows_finalized,
                stalls: b.total_stalls,
                stalled_us: b.total_stalled.as_micros(),
                classes: ClassStats::new(&slots),
                by_port: report.by_port.clone(),
                rtt_sketch: report.rtt_sketch.clone(),
                stall_sketch: report.stall_sketch.clone(),
            };
            assert_eq!(parse_interval_line(line), Ok(Some(want)), "{line}");
        }

        // A sketch decodes to the sketch that wrote it.
        let sketches = intervals
            .iter()
            .flat_map(|r| [&r.rtt_sketch, &r.stall_sketch])
            .flatten();
        for sketch in sketches.chain([&QSketch::new()]) {
            let wire = sketch.to_json().compact();
            let mut cur = Cursor::new(&wire);
            assert_eq!(
                QSketch::decode(&mut cur),
                Ok(Some(sketch.clone())),
                "{wire}"
            );
            cur.finish().unwrap();
        }

        // `tapo fleet` interval and summary records over those intervals,
        // an alert, and a `tapo advise` record.
        let records: Vec<_> = interval_lines
            .iter()
            .map(|line| parse_interval_line(line).unwrap().unwrap())
            .collect();
        let fleet = aggregate(&records, 0, &FleetConfig::default());
        let alert = FleetAlert {
            bucket: 4,
            start_us: 4_000_000,
            scope: "fe1.pop-a".into(),
            metric: "stall_share_us",
            value_us: 9_000,
            baseline_us: 3_000,
            threshold_pct: 50,
            flows: 12,
        };
        let effect = |r| MechanismEffect {
            mean_reduction: r,
            ci95: 0.0125,
        };
        let advice = ServiceAdvice {
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
        };
        let fleet_records = fleet.intervals.iter().map(|iv| iv as &dyn Record);
        let others: [&dyn Record; 3] = [&fleet.summary, &alert, &advice];
        lines.extend(fleet_records.chain(others).map(|r| r.json().compact()));

        for line in &lines {
            let tree = Json::parse(line).unwrap();
            assert_eq!(&tree.compact(), line);
            assert_eq!(Json::parse(&tree.pretty()).unwrap(), tree, "{line}");
            assert_eq!(Json::Raw(line.clone()).pretty(), tree.pretty());
        }

        // `tapo --json` builds its document in the binary: the committed
        // output reads back, and the tree walk renders it byte for byte.
        let offline = include_str!("../tests/golden/offline.json");
        let doc = Json::parse(offline).unwrap();
        assert_eq!(doc.pretty() + "\n", offline);
    }

    #[test]
    fn raw_text_is_spliced_and_opaque() {
        let line = r#"{"a":[1,2]}"#;
        let raw = Json::Raw(line.to_string());
        assert_eq!(raw.compact(), line);
        assert_eq!(
            (raw.get("a"), raw.members(), raw.items()),
            (None, None, None)
        );
        let doc = Json::Arr(vec![raw.clone(), Json::obj([("b", raw)])]);
        assert_eq!(doc.compact(), r#"[{"a":[1,2]},{"b":{"a":[1,2]}}]"#);
        let tree = Json::parse(&doc.compact()).unwrap();
        assert_eq!(doc.pretty(), tree.pretty());
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
