//! Shared JSON-lines interval-report parser.
//!
//! Two consumers read the live pipeline's report streams back in: the
//! counterfactual advisor (`tapo advise`) and the fleet aggregator
//! (`tapo fleet`). They must agree on the schema — one parser, one
//! skip-summary rule — so a record the advisor accepts can never be one
//! the aggregator rejects. This module is that single implementation:
//! [`parse_interval_line`] decodes one line, [`parse_reports_with`] hands
//! a whole stream's records to a sink with 1-based line attribution for
//! errors, through the same framer as the aggregator
//! ([`read_reports_with`]).
//!
//! A line is read one of two ways. Every interval line a daemon writes has
//! the same byte layout, the one `IntervalReport::write_json` produces from
//! the ordered key lists in `report::key`; a one-pass reader walks those
//! lists over the line, checks each run of constant text with one slice
//! compare and reads only the values. At the first byte that differs from
//! that layout it gives up, and the cursor decode reads the line from its
//! start: spacing, another key order, summaries, other report shapes and
//! every error take that path, which is also the reference the tests hold
//! the one-pass reader to.
//!
//! The parser is *tolerant* of missing top-level counters (older report
//! shapes default them to zero, and a record without a daemon id is
//! attributed to `"unknown"`) but *strict* about anything present: a
//! malformed `by_port` slice, breakdown section, or sketch (one whose
//! counts do not add up included) is an error, not a silent zero — that is
//! how feeding the CSV rendering, or a pcap, fails fast.

use std::borrow::Cow;
use std::io::BufRead;

use crate::causes::{RetransClass, StallClass};
use crate::fleet::read_reports_with;
use crate::fleet::sketch::{bucket, pair_hint, QSketch};
use crate::json::{plain_uint, Cursor, JsonError};
use crate::live::{class_slug, retrans_slug, PortDelta};
use crate::report::key;

/// A malformed input line: where it was and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the report stream.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One decoded `"kind":"interval"` record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedInterval {
    /// Which daemon produced the record (`"unknown"` for pre-fleet shapes).
    pub daemon: String,
    /// The daemon's interval index.
    pub interval: u64,
    /// Interval start (inclusive), capture time in microseconds.
    pub start_us: u64,
    /// Interval end (exclusive), capture time in microseconds.
    pub end_us: u64,
    /// Packets processed in the interval.
    pub packets: u64,
    /// Flows finalized in the interval.
    pub flows_finalized: u64,
    /// Stalls diagnosed on the flows finalized in the interval.
    pub stalls: u64,
    /// Total stalled time, microseconds.
    pub stalled_us: u64,
    /// Per stall class and retransmission subclass `(count, microseconds)`,
    /// only the classes that are not `(0, 0)`.
    pub classes: ClassStats,
    /// Per-server-port slice, in the record's (ascending) order.
    pub by_port: Vec<(u16, PortDelta)>,
    /// The record's RTT-sample sketch, when the daemon emitted sketches.
    pub rtt_sketch: Option<QSketch>,
    /// The record's stall-duration sketch, same gating.
    pub stall_sketch: Option<QSketch>,
}

/// Slots of the dense class table a decoder fills, ordered as
/// [`ClassStats`] orders them.
pub(crate) const CLASS_SLOTS: usize = StallClass::ALL.len() + RetransClass::ALL.len();

/// A record's per-class `(count, microseconds)` stats, stored sparsely: one
/// `(slot, n, us)` entry per class that is not `(0, 0)`, ascending by slot
/// (the stall classes in [`StallClass::ALL`] order, then the
/// retransmission subclasses in [`RetransClass::ALL`] order). Most
/// intervals finalize no stalled flow, and a busy one shows a few classes
/// of fourteen: a record whose classes are all zero holds 16 bytes and no
/// heap, one with k non-zero classes 24·k bytes more, where two dense
/// tables would take 224 bytes in every record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStats(Box<[(u8, u64, u64)]>);

impl ClassStats {
    /// The non-zero slots of a dense table, in one allocation sized
    /// exactly (none when every slot is zero).
    pub(crate) fn new(slots: &[(u64, u64); CLASS_SLOTS]) -> Self {
        let nonzero = |s: &&(u64, u64)| **s != (0, 0);
        let mut entries = Vec::with_capacity(slots.iter().filter(nonzero).count());
        for (slot, &(n, us)) in slots.iter().enumerate().filter(|(_, s)| nonzero(s)) {
            entries.push((slot as u8, n, us));
        }
        ClassStats(entries.into_boxed_slice())
    }

    /// `(count, microseconds)` of a top-level stall class.
    pub fn cause(&self, class: StallClass) -> (u64, u64) {
        self.slot(class.index())
    }

    /// `(count, microseconds)` of a retransmission subclass.
    pub fn retrans(&self, class: RetransClass) -> (u64, u64) {
        self.slot(StallClass::ALL.len() + class.index())
    }

    fn slot(&self, slot: usize) -> (u64, u64) {
        self.0
            .binary_search_by_key(&slot, |&(s, _, _)| usize::from(s))
            .map_or((0, 0), |at| (self.0[at].1, self.0[at].2))
    }

    /// Add the entries present to dense per-class tables.
    pub(crate) fn add_to(
        &self,
        by_cause: &mut [(u64, u64); StallClass::ALL.len()],
        by_retrans: &mut [(u64, u64); RetransClass::ALL.len()],
    ) {
        for &(slot, n, us) in &*self.0 {
            let slot = usize::from(slot);
            let e = match slot.checked_sub(StallClass::ALL.len()) {
                None => &mut by_cause[slot],
                Some(sub) => &mut by_retrans[sub],
            };
            e.0 += n;
            e.1 += us;
        }
    }
}

/// A section's verdict as the tree decode would word it. Sections are read
/// where they stand in the line but judged after it ends, because a syntax
/// error anywhere outranks them and a non-interval line forgives them.
type Section = Result<(), String>;

/// `names` read off the object at the cursor as `get(name).and_then(as_u64)`
/// would read them; a value that is not an object has none of them.
fn u64_fields<const N: usize>(
    cur: &mut Cursor<'_>,
    names: [&str; N],
) -> Result<[Option<u64>; N], JsonError> {
    if let Some(values) = cur.plain_fields(names) {
        return Ok(values.map(Some));
    }
    let mut slots = [None; N];
    if cur.open_object()? {
        while let Some(key) = cur.key()? {
            match names.iter().position(|name| *name == key) {
                Some(i) => cur.first(&mut slots[i], Cursor::u64_or_skip)?,
                None => cur.skip_value()?,
            }
        }
    }
    Ok(slots.map(Option::flatten))
}

/// One of `breakdown`'s per-class objects (`by_cause` / `by_retrans`):
/// `(n, us)` into the slot `index_of` names. Unknown slugs are skipped, not
/// errors — a newer daemon may know classes this build does not. A repeated
/// slug overwrites; the first malformed entry is the verdict.
fn decode_classes(
    cur: &mut Cursor<'_>,
    section: &str,
    index_of: impl Fn(&str) -> Option<usize>,
    out: &mut [(u64, u64)],
) -> Result<Section, JsonError> {
    if !cur.open_object()? {
        return Ok(Err(format!("breakdown.{section} is not an object")));
    }
    let mut verdict = Ok(());
    while let Some(slug) = cur.key()? {
        let Some(i) = index_of(&slug) else {
            cur.skip_value()?;
            continue;
        };
        let [n, us] = u64_fields(cur, [key::N, key::US])?;
        let field = |k: &str, v: Option<u64>| {
            v.ok_or_else(|| format!("breakdown {:?}: missing or non-integer {k:?}", &*slug))
        };
        match (|| Ok((field(key::N, n)?, field(key::US, us)?)))() {
            Ok(stats) => out[i] = stats,
            Err(e) => verdict = verdict.and(Err(e)),
        }
    }
    Ok(verdict)
}

fn decode_breakdown(
    cur: &mut Cursor<'_>,
    rec: &mut ParsedInterval,
    slots: &mut [(u64, u64); CLASS_SLOTS],
) -> Result<Section, JsonError> {
    if !cur.open_object()? {
        return Ok(Err("breakdown is not an object".into()));
    }
    let (mut stalls, mut stalled_us) = (None, None);
    let (mut by_cause, mut by_retrans) = (None, None);
    let (causes, retrans) = slots.split_at_mut(StallClass::ALL.len());
    while let Some(key) = cur.key()? {
        match &*key {
            key::STALLS => cur.first(&mut stalls, Cursor::u64_or_skip)?,
            key::STALLED_US => cur.first(&mut stalled_us, Cursor::u64_or_skip)?,
            key::BY_CAUSE => cur.first(&mut by_cause, |cur| {
                let index_of =
                    |slug: &str| StallClass::ALL.iter().position(|c| class_slug(*c) == slug);
                decode_classes(cur, key::BY_CAUSE, index_of, causes)
            })?,
            key::BY_RETRANS => cur.first(&mut by_retrans, |cur| {
                let index_of = |slug: &str| {
                    RetransClass::ALL
                        .iter()
                        .position(|c| retrans_slug(*c) == slug)
                };
                decode_classes(cur, key::BY_RETRANS, index_of, retrans)
            })?,
            _ => cur.skip_value()?,
        }
    }
    let field = |k: &str, v: Option<Option<u64>>| {
        v.flatten()
            .ok_or_else(|| format!("breakdown: missing or non-integer {k:?}"))
    };
    Ok((|| {
        rec.stalls = field(key::STALLS, stalls)?;
        rec.stalled_us = field(key::STALLED_US, stalled_us)?;
        by_cause.unwrap_or(Ok(()))?;
        by_retrans.unwrap_or(Ok(()))
    })())
}

/// `by_port`: every pair is kept, in the record's order; the first
/// malformed pair is the verdict.
fn decode_ports(
    cur: &mut Cursor<'_>,
    out: &mut Vec<(u16, PortDelta)>,
) -> Result<Section, JsonError> {
    if !cur.open_object()? {
        return Ok(Err("by_port is not an object".into()));
    }
    let mut verdict = Ok(());
    while let Some(key) = cur.key()? {
        let [flows, stalls, stalled_us] =
            u64_fields(cur, [key::FLOWS, key::STALLS, key::STALLED_US])?;
        let pair = || {
            let port: u16 = key
                .parse()
                .map_err(|_| format!("bad port key {:?}", &*key))?;
            let field = |k: &str, v: Option<u64>| {
                v.ok_or_else(|| format!("port {port}: missing or non-integer {k:?}"))
            };
            let counts = PortDelta {
                flows: field(key::FLOWS, flows)?,
                stalls: field(key::STALLS, stalls)?,
                stalled_us: field(key::STALLED_US, stalled_us)?,
            };
            Ok((port, counts))
        };
        match pair() {
            Ok(pair) => out.push(pair),
            Err(e) => verdict = verdict.and(Err(e)),
        }
    }
    Ok(verdict)
}

fn decode_sketches(cur: &mut Cursor<'_>, rec: &mut ParsedInterval) -> Result<Section, JsonError> {
    let (mut rtt, mut stall) = (None, None);
    if cur.open_object()? {
        while let Some(name) = cur.key()? {
            match &*name {
                key::RTT_US => cur.first(&mut rtt, QSketch::decode)?,
                key::STALL_US => cur.first(&mut stall, QSketch::decode)?,
                _ => cur.skip_value()?,
            }
        }
    }
    let sketch = |k: &str, v: Option<Option<QSketch>>| {
        v.ok_or_else(|| format!("sketches: missing {k:?}"))?
            .ok_or_else(|| format!("sketches: malformed {k:?}"))
    };
    Ok((|| {
        rec.rtt_sketch = Some(sketch(key::RTT_US, rtt)?);
        rec.stall_sketch = Some(sketch(key::STALL_US, stall)?);
        Ok(())
    })())
}

/// The one-pass reader: `line` held to the exact bytes
/// `IntervalReport::write_json` writes, in the writer's order and with the
/// writer's key lists. Each run of constant text is one slice compare and
/// only the values are read, straight into a [`ParsedInterval`]. At the
/// first byte the writer would not have written there, and at any value
/// the cursor decode would read as an error or read differently (an escape,
/// a 19-digit integer, a sketch that is not canonical), it answers `None`,
/// and the caller decodes the line with the cursor from its start.
struct Layout<'a> {
    /// The whole line, for the string slices handed out.
    line: &'a str,
    /// The bytes not yet read.
    rest: &'a [u8],
}

impl<'a> Layout<'a> {
    /// The unread part of `line`.
    fn rest_str(&self) -> &'a str {
        &self.line[self.line.len() - self.rest.len()..]
    }

    /// The next bytes are `text`.
    #[inline(always)]
    fn text(&mut self, text: &[u8]) -> Option<()> {
        self.rest = self.rest.strip_prefix(text)?;
        Some(())
    }

    /// Consume `byte` if it is next.
    #[inline(always)]
    fn eat(&mut self, byte: u8) -> bool {
        self.text(&[byte]).is_some()
    }

    /// A member's key and colon, `"name":`.
    #[inline(always)]
    fn key(&mut self, name: &str) -> Option<()> {
        let n = name.len();
        let run = self.rest.get(..n + 3)?;
        if run[0] != b'"' || &run[1..=n] != name.as_bytes() || run[n + 1..] != *b"\":" {
            return None;
        }
        self.rest = &self.rest[n + 3..];
        Some(())
    }

    /// A plain integer, then `end`.
    #[inline(always)]
    fn uint(&mut self, end: u8) -> Option<u64> {
        let (n, rest) = plain_uint(self.rest, end)?;
        self.rest = rest;
        Some(n)
    }

    /// The integer members `names`, a comma after each but the last, which
    /// `end` follows.
    #[inline(always)]
    fn fields<const N: usize>(&mut self, names: [&str; N], end: u8) -> Option<[u64; N]> {
        let mut values = [0; N];
        for (i, name) in names.iter().enumerate() {
            self.key(name)?;
            values[i] = self.uint(if i + 1 == N { end } else { b',' })?;
        }
        Some(values)
    }

    /// A string without escapes or control characters, then `end`.
    fn plain_str(&mut self, end: u8) -> Option<&'a str> {
        self.text(b"\"")?;
        let text = self.rest_str();
        let len = self
            .rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        self.rest = self.rest[len..].strip_prefix(&[b'"', end])?;
        Some(&text[..len])
    }

    /// A number held to the RFC 8259 grammar, then `end`: a value the
    /// cursor decode skips, so it is checked and not kept.
    fn number(&mut self, end: u8) -> Option<()> {
        let b = self.rest;
        let digits = |from: usize| b[from..].iter().take_while(|d| d.is_ascii_digit()).count();
        let mut i = usize::from(b.first() == Some(&b'-'));
        let int = digits(i);
        if int == 0 || (int > 1 && b[i] == b'0') {
            return None;
        }
        i += int;
        if b.get(i) == Some(&b'.') {
            let frac = digits(i + 1);
            if frac == 0 {
                return None;
            }
            i += 1 + frac;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1 + usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
            let exp = digits(i);
            if exp == 0 {
                return None;
            }
            i += exp;
        }
        self.rest = b[i..].strip_prefix(&[end])?;
        Some(())
    }

    /// `{"slug":{"n":…,"us":…},…}` over `slugs` in order into `stats`,
    /// then `end`.
    fn classes(&mut self, slugs: &[&str], stats: &mut [(u64, u64)], end: u8) -> Option<()> {
        self.text(b"{")?;
        for (i, (slug, stat)) in slugs.iter().zip(stats).enumerate() {
            self.key(slug)?;
            self.text(b"{")?;
            let [n, us] = self.fields(key::CLASS_STATS, b'}')?;
            *stat = (n, us);
            self.text(if i + 1 == slugs.len() { b"}" } else { b"," })?;
        }
        self.eat(end).then_some(())
    }

    /// `by_port`: `{}`, or `"port":{…}` entries with decimal port keys.
    fn ports(&mut self) -> Option<Vec<(u16, PortDelta)>> {
        self.text(b"{")?;
        let mut ports = Vec::new();
        if self.eat(b'}') {
            return Some(ports);
        }
        loop {
            self.text(b"\"")?;
            let text = self.rest_str();
            let len = self.rest.iter().take_while(|b| b.is_ascii_digit()).count();
            let port: u16 = text[..len].parse().ok()?;
            self.rest = &self.rest[len..];
            self.text(b"\":{")?;
            let [flows, stalls, stalled_us] = self.fields(key::PORT_FIELDS, b'}')?;
            let counts = PortDelta {
                flows,
                stalls,
                stalled_us,
            };
            ports.push((port, counts));
            if !self.eat(b',') {
                break;
            }
        }
        self.text(b"}")?;
        Some(ports)
    }

    /// A sketch in its canonical wire form. The bucket vector is sized
    /// exactly before it is filled.
    fn sketch(&mut self) -> Option<QSketch> {
        self.text(b"{")?;
        let [total, zero, min, max] = self.fields(key::SKETCH_FIELDS, b',')?;
        self.key(key::BUCKETS)?;
        self.text(b"[")?;
        let mut buckets = Vec::with_capacity(pair_hint(self.rest_str()));
        if !self.eat(b']') {
            loop {
                self.text(b"[")?;
                let idx = self.uint(b',')?;
                let n = self.uint(b']')?;
                buckets.push(bucket(buckets.last(), idx, n)?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.text(b"]")?;
        }
        self.text(b"}")?;
        QSketch::canonical(total, zero, min, max, buckets)
    }
}

/// The line through [`Layout`]: a record, or `None` for the cursor decode.
fn read_layout(line: &str) -> Option<ParsedInterval> {
    let mut r = Layout {
        line,
        rest: line.as_bytes(),
    };
    r.text(b"{")?;
    r.key(key::KIND)?;
    (r.plain_str(b',')? == key::KIND_INTERVAL).then_some(())?;
    r.key(key::DAEMON)?;
    let daemon = r.plain_str(b',')?;
    let [interval, start_us, end_us, packets] = r.fields(key::INTERVAL_HEAD, b',')?;
    r.key(key::PKTS_PER_SEC)?;
    r.number(b',')?;
    let counters = r.fields(key::INTERVAL_COUNTERS, b',')?;
    r.key(key::BREAKDOWN)?;
    r.text(b"{")?;
    let [stalls, stalled_us] = r.fields(key::BREAKDOWN_TOTALS, b',')?;
    let mut slots = [(0, 0); CLASS_SLOTS];
    let (causes, retrans) = slots.split_at_mut(StallClass::ALL.len());
    r.key(key::BY_CAUSE)?;
    r.classes(&key::CAUSE_SLUGS, causes, b',')?;
    r.key(key::BY_RETRANS)?;
    r.classes(&key::RETRANS_SLUGS, retrans, b'}')?;
    r.text(b",")?;
    r.key(key::BY_PORT)?;
    let by_port = r.ports()?;
    let (mut rtt_sketch, mut stall_sketch) = (None, None);
    if r.eat(b',') {
        r.key(key::SKETCHES)?;
        r.text(b"{")?;
        r.key(key::RTT_US)?;
        rtt_sketch = Some(r.sketch()?);
        r.text(b",")?;
        r.key(key::STALL_US)?;
        stall_sketch = Some(r.sketch()?);
        r.text(b"}")?;
    }
    (r.rest == b"}").then_some(())?;
    Some(ParsedInterval {
        daemon: daemon.to_string(),
        interval,
        start_us,
        end_us,
        packets,
        flows_finalized: counters[key::FLOWS_FINALIZED_AT],
        stalls,
        stalled_us,
        classes: ClassStats::new(&slots),
        by_port,
        rtt_sketch,
        stall_sketch,
    })
}

/// The pull decode of one line. The outer error is a syntax error, which
/// outranks everything; the inner result is what the line says once it is
/// known to be one well-formed document.
fn decode_line(line: &str) -> Result<Result<Option<ParsedInterval>, String>, JsonError> {
    let mut cur = Cursor::new(line);
    if !cur.open_object()? {
        cur.finish()?;
        return Ok(Err("not a JSON object".into()));
    }
    let mut rec = ParsedInterval::default();
    let mut slots = [(0, 0); CLASS_SLOTS];
    let (mut kind, mut daemon) = (None, None);
    let (mut interval, mut start_us, mut end_us) = (None, None, None);
    let (mut packets, mut flows_finalized) = (None, None);
    let (mut breakdown, mut by_port, mut sketches) = (None, None, None);
    while let Some(name) = cur.key()? {
        match &*name {
            key::KIND => cur.first(&mut kind, Cursor::str_or_skip)?,
            key::DAEMON => cur.first(&mut daemon, Cursor::str_or_skip)?,
            key::INTERVAL => cur.first(&mut interval, Cursor::u64_or_skip)?,
            key::START_US => cur.first(&mut start_us, Cursor::u64_or_skip)?,
            key::END_US => cur.first(&mut end_us, Cursor::u64_or_skip)?,
            key::PACKETS => cur.first(&mut packets, Cursor::u64_or_skip)?,
            key::FLOWS_FINALIZED => cur.first(&mut flows_finalized, Cursor::u64_or_skip)?,
            key::BREAKDOWN => cur.first(&mut breakdown, |cur| {
                decode_breakdown(cur, &mut rec, &mut slots)
            })?,
            key::BY_PORT => cur.first(&mut by_port, |cur| decode_ports(cur, &mut rec.by_port))?,
            key::SKETCHES => cur.first(&mut sketches, |cur| decode_sketches(cur, &mut rec))?,
            _ => cur.skip_value()?,
        }
    }
    cur.finish()?;
    if kind.flatten().as_deref() != Some(key::KIND_INTERVAL) {
        return Ok(Ok(None));
    }
    for section in [breakdown, by_port, sketches].into_iter().flatten() {
        if let Err(e) = section {
            return Ok(Err(e));
        }
    }
    let num = |v: Option<Option<u64>>| v.flatten().unwrap_or(0);
    rec.classes = ClassStats::new(&slots);
    rec.daemon = daemon
        .flatten()
        .map_or_else(|| "unknown".to_string(), Cow::into_owned);
    rec.interval = num(interval);
    rec.start_us = num(start_us);
    rec.end_us = num(end_us);
    rec.packets = num(packets);
    rec.flows_finalized = num(flows_finalized);
    Ok(Ok(Some(rec)))
}

/// Decode one non-blank report line.
///
/// Returns `Ok(Some(..))` for a `"kind":"interval"` object and `Ok(None)`
/// for any other well-formed object — the end-of-run summary is itself a
/// merge of the interval deltas, so aggregating it too would double every
/// total. Anything malformed is `Err(message)` (the caller attributes the
/// line number).
///
/// A line in the exact layout `IntervalReport::write_json` writes is read
/// in one pass over its bytes; any other line is read from its first byte
/// by the cursor decode, which pulls fields straight off a `json::Cursor`.
/// Neither builds a tree, and both give what reading a
/// [`Json`](crate::json::Json) tree with `get` would give: the first
/// occurrence of a key is the one read (repeated class slugs
/// inside `by_cause` / `by_retrans` overwrite, and every `by_port` pair is
/// kept), a syntax error anywhere in the line — inside keys this decoder
/// skips included — outranks a malformed section, and malformed sections
/// are reported in `breakdown`, `by_port`, `sketches` order.
pub fn parse_interval_line(line: &str) -> Result<Option<ParsedInterval>, String> {
    read_layout(line).map_or_else(|| cursor_decode(line), |rec| Ok(Some(rec)))
}

/// The cursor decode alone, the path for every line [`read_layout`] does
/// not answer.
fn cursor_decode(line: &str) -> Result<Option<ParsedInterval>, String> {
    decode_line(line).map_err(|e| format!("not a JSON report: {e}"))?
}

/// Parse a whole report stream, handing each interval record to `sink` in
/// input order; returns the count of well-formed non-interval lines
/// skipped. Blank lines are ignored; the first bad line in line order is
/// the error.
///
/// This is the fleet framer ([`read_reports_with`]) on one thread, so the
/// advisor and the aggregator frame and attribute a stream alike.
pub fn parse_reports_with<R: BufRead>(
    input: R,
    sink: impl FnMut(ParsedInterval),
) -> Result<u64, ParseError> {
    read_reports_with("-", input, 1, sink).map_err(|e| ParseError {
        line: e.line,
        message: e.message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::live::{DaemonId, IntervalReport, LiveSummary};
    use crate::report::StallBreakdown;
    use simnet::rng::splitmix64;

    /// `(n, us)` cause-stats object under `by_cause` / `by_retrans`.
    fn cause_stats(slug: &str, stats: &Json) -> Result<(u64, u64), String> {
        let field = |k: &str| {
            stats
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("breakdown {slug:?}: missing or non-integer {k:?}"))
        };
        Ok((field("n")?, field("us")?))
    }

    /// The tree decode this module shipped before the pull decoder, kept as
    /// the reference: build the whole [`Json`] tree, then read it with `get`.
    fn tree_decode(line: &str) -> Result<Option<ParsedInterval>, String> {
        let v = Json::parse(line).map_err(|e| format!("not a JSON report: {e}"))?;
        if v.members().is_none() {
            return Err("not a JSON object".into());
        }
        if v.get("kind").and_then(Json::as_str) != Some("interval") {
            return Ok(None);
        }
        let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut rec = ParsedInterval {
            daemon: v
                .get("daemon")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            interval: num("interval"),
            start_us: num("start_us"),
            end_us: num("end_us"),
            packets: num("packets"),
            flows_finalized: num("flows_finalized"),
            ..ParsedInterval::default()
        };
        let mut slots = [(0, 0); CLASS_SLOTS];
        if let Some(b) = v.get("breakdown") {
            if b.members().is_none() {
                return Err("breakdown is not an object".into());
            }
            let field = |k: &str| {
                b.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("breakdown: missing or non-integer {k:?}"))
            };
            rec.stalls = field("stalls")?;
            rec.stalled_us = field("stalled_us")?;
            if let Some(classes) = b.get("by_cause") {
                let pairs = classes
                    .members()
                    .ok_or_else(|| "breakdown.by_cause is not an object".to_string())?;
                for (slug, stats) in pairs {
                    // Unknown slugs are skipped, not errors: a newer daemon may
                    // know cause classes this build does not.
                    if let Some(i) = StallClass::ALL.iter().position(|c| class_slug(*c) == slug) {
                        slots[i] = cause_stats(slug, stats)?;
                    }
                }
            }
            if let Some(classes) = b.get("by_retrans") {
                let pairs = classes
                    .members()
                    .ok_or_else(|| "breakdown.by_retrans is not an object".to_string())?;
                for (slug, stats) in pairs {
                    if let Some(i) = RetransClass::ALL
                        .iter()
                        .position(|c| retrans_slug(*c) == slug)
                    {
                        slots[StallClass::ALL.len() + i] = cause_stats(slug, stats)?;
                    }
                }
            }
        }
        rec.classes = ClassStats::new(&slots);
        if let Some(by_port) = v.get("by_port") {
            let ports = by_port
                .members()
                .ok_or_else(|| "by_port is not an object".to_string())?;
            for (port, delta) in ports {
                let port: u16 = port.parse().map_err(|_| format!("bad port key {port:?}"))?;
                let field = |k: &str| {
                    delta
                        .get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("port {port}: missing or non-integer {k:?}"))
                };
                rec.by_port.push((
                    port,
                    PortDelta {
                        flows: field("flows")?,
                        stalls: field("stalls")?,
                        stalled_us: field("stalled_us")?,
                    },
                ));
            }
        }
        if let Some(s) = v.get("sketches") {
            let sketch = |k: &str| {
                let doc = s.get(k).ok_or_else(|| format!("sketches: missing {k:?}"))?;
                QSketch::from_json(doc).ok_or_else(|| format!("sketches: malformed {k:?}"))
            };
            rec.rtt_sketch = Some(sketch("rtt_us")?);
            rec.stall_sketch = Some(sketch("stall_us")?);
        }
        Ok(Some(rec))
    }

    #[test]
    fn minimal_interval_defaults_missing_fields() {
        let rec = parse_interval_line("{\"kind\":\"interval\"}")
            .unwrap()
            .unwrap();
        assert_eq!(rec.daemon, "unknown");
        assert_eq!(rec.start_us, 0);
        assert_eq!(rec.stalls, 0);
        assert!(rec.by_port.is_empty());
        assert!(rec.rtt_sketch.is_none());
    }

    #[test]
    fn full_interval_round_trips_through_live_serialization() {
        use crate::live::{DaemonId, IntervalReport, LiveSummary};
        use crate::report::StallBreakdown;
        let mut rtt = QSketch::new();
        rtt.insert(30_000);
        let mut stall = QSketch::new();
        stall.insert(2_000_000);
        stall.insert(0);
        let report = IntervalReport {
            daemon: DaemonId::new("fe1.pop-a").unwrap(),
            interval: 2,
            start_us: 2_000_000,
            end_us: 3_000_000,
            packets: 400,
            packets_skipped: 1,
            packets_late: 0,
            flows_opened: 5,
            flows_finalized: 3,
            flows_closed: 3,
            flows_evicted_idle: 0,
            flows_shed: 0,
            active_flows: 2,
            flows_light: 1,
            flows_heavy: 1,
            promotions: 0,
            demotions: 0,
            live_stalls: 1,
            breakdown: StallBreakdown::default(),
            by_port: vec![(
                80,
                crate::live::PortDelta {
                    flows: 3,
                    stalls: 1,
                    stalled_us: 2_000_000,
                },
            )],
            rtt_sketch: Some(rtt.clone()),
            stall_sketch: Some(stall.clone()),
            shard_occupancy: None,
        };
        let rec = parse_interval_line(&report.to_json().compact())
            .unwrap()
            .unwrap();
        assert_eq!(rec.daemon, "fe1.pop-a");
        assert_eq!(rec.interval, 2);
        assert_eq!(rec.start_us, 2_000_000);
        assert_eq!(rec.end_us, 3_000_000);
        assert_eq!(rec.packets, 400);
        assert_eq!(rec.flows_finalized, 3);
        assert_eq!(
            rec.by_port,
            vec![(
                80,
                PortDelta {
                    flows: 3,
                    stalls: 1,
                    stalled_us: 2_000_000
                }
            )]
        );
        assert_eq!(rec.rtt_sketch, Some(rtt));
        assert_eq!(rec.stall_sketch, Some(stall));
        // And the summary is a skip, exactly like the advisor's rule.
        let summary = LiveSummary::default().to_json().compact();
        assert_eq!(parse_interval_line(&summary).unwrap(), None);
    }

    #[test]
    fn breakdown_sections_land_in_class_order() {
        let line = "{\"kind\":\"interval\",\"breakdown\":{\"stalls\":3,\"stalled_us\":900,\
                    \"by_cause\":{\"client_idle\":{\"n\":1,\"us\":100},\
                    \"retransmission\":{\"n\":2,\"us\":800},\
                    \"from_the_future\":{\"n\":9,\"us\":9}},\
                    \"by_retrans\":{\"tail_retrans\":{\"n\":2,\"us\":800}}}}";
        let rec = parse_interval_line(line).unwrap().unwrap();
        assert_eq!(rec.stalls, 3);
        assert_eq!(rec.stalled_us, 900);
        assert_eq!(rec.classes.cause(StallClass::ClientIdle), (1, 100));
        assert_eq!(rec.classes.cause(StallClass::Retransmission), (2, 800));
        assert_eq!(rec.classes.cause(StallClass::ZeroWindow), (0, 0));
        assert_eq!(rec.classes.retrans(RetransClass::TailRetrans), (2, 800));
        assert_eq!(rec.classes.retrans(RetransClass::Undetermined), (0, 0));
        let zero = (
            [(0, 0); StallClass::ALL.len()],
            [(0, 0); RetransClass::ALL.len()],
        );
        let (mut got, mut want) = (zero, zero);
        rec.classes.add_to(&mut got.0, &mut got.1);
        want.0[StallClass::ClientIdle.index()] = (1, 100);
        want.0[StallClass::Retransmission.index()] = (2, 800);
        want.1[RetransClass::TailRetrans.index()] = (2, 800);
        assert_eq!(got, want);
    }

    #[test]
    fn a_record_is_no_larger_than_its_sparse_layout() {
        // The daemon id, seven counters and the port list (104 bytes), two
        // optional sketches (112), and the class entries' boxed slice (16).
        assert!(std::mem::size_of::<ParsedInterval>() <= 232);
        assert_eq!(std::mem::size_of::<ClassStats>(), 16);
    }

    #[test]
    fn malformed_sections_are_errors_not_zeros() {
        let bad = [
            "not json",
            "[1,2,3]",
            "{\"kind\":\"interval\",\"by_port\":[]}",
            "{\"kind\":\"interval\",\"by_port\":{\"sixty\":{}}}",
            "{\"kind\":\"interval\",\"by_port\":{\"80\":{\"flows\":\"x\"}}}",
            "{\"kind\":\"interval\",\"breakdown\":{\"stalls\":1}}",
            "{\"kind\":\"interval\",\"breakdown\":{\"stalls\":1,\"stalled_us\":2,\
             \"by_cause\":{\"client_idle\":{\"n\":1}}}}",
            "{\"kind\":\"interval\",\"sketches\":{\"rtt_us\":{\"n\":1}}}",
        ];
        for line in bad {
            assert!(parse_interval_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn parse_reports_attributes_line_numbers() {
        let input = "{\"kind\":\"interval\"}\n\n{\"kind\":\"summary\"}\nnope\n";
        let err = parse_reports_with(input.as_bytes(), drop).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.starts_with("not a JSON report:"));
        assert_eq!(err.to_string(), format!("line 4: {}", err.message));
        let input = "{\"kind\":\"interval\"}\n{\"kind\":\"summary\"}\n";
        let mut recs = Vec::new();
        let skipped = parse_reports_with(input.as_bytes(), |rec| recs.push(rec)).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(skipped, 1);
    }

    /// Line 6 of a real `tapo live --daemon-id fe0` run over a
    /// `synthesize mixed --flows 60 --seed 21` capture.
    const REAL_LINE: &str =
        "{\"kind\":\"interval\",\"daemon\":\"fe0\",\"interval\":5,\"start_us\":5000000,\"end_\
         us\":6000000,\"packets\":1381,\"pkts_per_sec\":1381,\"packets_skipped\":0,\"packets_\
         late\":0,\"flows_opened\":0,\"flows_finalized\":1,\"flows_closed\":1,\"flows_evicted\
         _idle\":0,\"flows_shed\":0,\"active_flows\":10,\"flows_light\":0,\"flows_heavy\":10,\
         \"promotions\":0,\"demotions\":0,\"live_stalls\":3,\"breakdown\":{\"stalls\":2,\"sta\
         lled_us\":623576,\"by_cause\":{\"data_unavailable\":{\"n\":1,\"us\":279217},\"resour\
         ce_constraint\":{\"n\":0,\"us\":0},\"client_idle\":{\"n\":0,\"us\":0},\"zero_window\"\
         :{\"n\":0,\"us\":0},\"packet_delay\":{\"n\":0,\"us\":0},\"retransmission\":{\"n\":1,\
         \"us\":344359},\"undetermined\":{\"n\":0,\"us\":0}},\"by_retrans\":{\"double_retrans\
         \":{\"n\":1,\"us\":344359},\"tail_retrans\":{\"n\":0,\"us\":0},\"small_cwnd\":{\"n\"\
         :0,\"us\":0},\"small_rwnd\":{\"n\":0,\"us\":0},\"continuous_loss\":{\"n\":0,\"us\":0\
         },\"ack_delay_loss\":{\"n\":0,\"us\":0},\"undetermined\":{\"n\":0,\"us\":0}}},\"by_p\
         ort\":{\"8080\":{\"flows\":1,\"stalls\":2,\"stalled_us\":623576}},\"sketches\":{\"rt\
         t_us\":{\"n\":68,\"zero\":0,\"min\":116555,\"max\":1030459,\"b\":[[415,1],[417,1],[4\
         18,1],[419,3],[420,2],[421,3],[422,3],[423,6],[424,10],[425,6],[426,4],[427,5],[428,\
         1],[429,3],[430,5],[431,2],[434,2],[435,4],[436,1],[437,3],[439,1],[524,1]]},\"stall\
         _us\":{\"n\":2,\"zero\":0,\"min\":279217,\"max\":344359,\"b\":[[459,1],[469,1]]}}}";

    fn sample_report() -> IntervalReport {
        let mut rtt = QSketch::new();
        let mut stall = QSketch::new();
        let mut draw = 2015;
        for _ in 0..40 {
            draw = splitmix64(draw);
            rtt.insert(20_000 + draw % 80_000);
            stall.insert(draw % 3 * (draw % 4_000_000));
        }
        IntervalReport {
            daemon: DaemonId::new("fe1.pop-a").unwrap(),
            interval: 2,
            start_us: 2_000_000,
            end_us: 3_000_000,
            packets: 400,
            packets_skipped: 1,
            packets_late: 0,
            flows_opened: 5,
            flows_finalized: 3,
            flows_closed: 3,
            flows_evicted_idle: 0,
            flows_shed: 0,
            active_flows: 2,
            flows_light: 1,
            flows_heavy: 1,
            promotions: 0,
            demotions: 0,
            live_stalls: 1,
            breakdown: StallBreakdown::default(),
            by_port: vec![
                (
                    80,
                    PortDelta {
                        flows: 2,
                        stalls: 1,
                        stalled_us: 2_000_000,
                    },
                ),
                (
                    443,
                    PortDelta {
                        flows: 1,
                        stalls: 0,
                        stalled_us: 0,
                    },
                ),
            ],
            rtt_sketch: Some(rtt),
            stall_sketch: Some(stall),
            shard_occupancy: None,
        }
    }

    /// The sample report's line in the writer's layout with all fourteen
    /// classes non-zero: the `k`-th class in line order holds
    /// `(k, 1000 k)`, so it is slot `k - 1`.
    fn all_classes_line() -> String {
        let zero = "{\"n\":0,\"us\":0}";
        let line = sample_report().to_json().compact();
        assert_eq!(line.matches(zero).count(), CLASS_SLOTS);
        let mut parts = line.split(zero);
        let mut out = parts.next().unwrap_or_default().to_string();
        for (k, part) in (1..).zip(parts) {
            out += &format!("{{\"n\":{k},\"us\":{}}}{part}", 1000 * k);
        }
        out
    }

    fn summary_line() -> String {
        let report = sample_report();
        let summary = LiveSummary {
            rtt_sketch: report.rtt_sketch,
            stall_sketch: report.stall_sketch,
            ..LiveSummary::default()
        };
        summary.to_json().compact()
    }

    /// The validator: the cursor walking a document without keeping any of it.
    fn skip(text: &str) -> Result<(), JsonError> {
        let mut cur = Cursor::new(text);
        cur.skip_value()?;
        cur.finish()
    }

    /// Seeded splitmix64 draws (std-only, no process entropy).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = splitmix64(self.0);
            (self.0 % n as u64) as usize
        }

        /// A cut point in `line`, moved forward to the next comma when
        /// `on_comma`: a slice between two commas often holds whole
        /// members, and deleting or repeating one leaves well-formed JSON
        /// with a key missing or duplicated — the inputs the section rules
        /// are about.
        fn cut(&mut self, line: &[u8], on_comma: bool) -> usize {
            let at = self.below(line.len() + 1);
            let comma = line[at..].iter().position(|&b| on_comma && b == b',');
            comma.map_or(at, |i| at + i)
        }
    }

    /// One to three edits: delete a slice, insert a byte, replace a byte,
    /// replace a digit, repeat a slice. Templates and alphabet are ASCII,
    /// so the result is always a `&str`.
    fn mutate(template: &str, rng: &mut Rng) -> String {
        const ALPHABET: &[u8] = b"{}[]\",:\\-+.0123456789eEtrufalsn x/";
        let mut line = template.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let on_comma = rng.below(2) == 0;
            let (x, y) = (rng.cut(&line, on_comma), rng.cut(&line, on_comma));
            let (a, b) = (x.min(y), x.max(y));
            let byte = ALPHABET[rng.below(ALPHABET.len())];
            match rng.below(5) {
                0 => drop(line.drain(a..b)),
                1 => line.insert(a, byte),
                2 => {
                    if let Some(slot) = line.get_mut(a) {
                        // A digit for a digit half the time: a changed
                        // value, not a broken token.
                        let digit = slot.is_ascii_digit() && byte & 1 == 0;
                        *slot = if digit { b'0' + byte % 10 } else { byte };
                    }
                }
                3 => {
                    // The next digit for another: most such lines keep the
                    // writer's layout, with a changed value.
                    if let Some(i) = line[a..].iter().position(u8::is_ascii_digit) {
                        line[a + i] = b'0' + byte % 10;
                    }
                }
                _ => {
                    let slice = line[a..b.min(a + 400)].to_vec();
                    line.splice(b..b, slice);
                }
            }
        }
        String::from_utf8(line).expect("ASCII edits of ASCII templates")
    }

    #[test]
    fn pull_decode_equals_tree_decode_on_mutated_lines() {
        let templates = [
            REAL_LINE.to_string(),
            sample_report().to_json().compact(),
            all_classes_line(),
            summary_line(),
            // Escaped keys and values, repeated keys, numbers at the edges
            // of what `as_u64` takes.
            "{\"k\\u0069nd\":\"interval\",\"daemon\":\"fe\\u0031\",\"daemon\":7,\
             \"interval\":-0,\"start_us\":9223372036854775807,\
             \"end_us\":9223372036854775808,\"packets\":1e3,\"packets\":5,\
             \"by_p\\u006frt\":{\"80\":{\"flows\":1,\"stalls\":2,\"stalled_us\":3},\
             \"80\":{\"flows\":4,\"stalls\":5,\"stalled_us\":6,\"flows\":0}},\
             \"breakdown\":{\"stalled_us\":2,\"stalls\":1,\
             \"by_retrans\":{\"tail_retrans\":{\"us\":1,\"n\":2},\"tail_retrans\":{\"n\":3,\"us\":4}},\
             \"by_cause\":{\"client\\u005fidle\":{\"n\":1,\"us\":2},\"later\":[]}},\
             \"sketches\":{\"stall_us\":{\"b\":[],\"n\":0,\"zero\":0,\"min\":0,\"max\":0},\
             \"rtt_us\":{\"n\":2,\"zero\":0,\"min\":5,\"max\":9,\"b\":[[3,1],[4,1]]}}}"
                .to_string(),
        ];
        for template in &templates {
            assert_eq!(parse_interval_line(template), tree_decode(template));
            assert!(tree_decode(template).is_ok(), "{template}");
        }
        let mut rng = Rng(0x7a90_2015);
        // Syntax errors, section errors, skipped lines, records.
        let mut outcomes = [0u32; 4];
        // Lines the cursor decode read, and lines the one-pass reader read.
        let mut paths = [0u32; 2];
        for i in 0..100_000 {
            let line = mutate(&templates[i % templates.len()], &mut rng);
            let pull = parse_interval_line(&line);
            assert_eq!(pull, tree_decode(&line), "{line}");
            // Wherever the one-pass reader answers, it answers what the
            // cursor decode reads.
            let layout = read_layout(&line);
            if let Some(rec) = &layout {
                assert_eq!(cursor_decode(&line), Ok(Some(rec.clone())), "{line}");
            }
            paths[layout.is_some() as usize] += 1;
            let syntax = matches!(&pull, Err(e) if e.starts_with("not a JSON report:"));
            // The validator refuses exactly what the tree-builder refuses,
            // in the same words.
            match skip(&line) {
                Ok(()) => assert!(!syntax, "{line}"),
                Err(e) => assert_eq!(pull, Err(format!("not a JSON report: {e}")), "{line}"),
            }
            outcomes[match &pull {
                Err(_) if syntax => 0,
                Err(_) => 1,
                Ok(None) => 2,
                Ok(Some(_)) => 3,
            }] += 1;
        }
        // The comparison has teeth only if every kind of outcome, and each
        // path, is common.
        assert!(outcomes.iter().all(|&n| n >= 2_000), "{outcomes:?}");
        assert!(paths.iter().all(|&n| n >= 2_000), "{paths:?}");
    }

    #[test]
    fn every_prefix_of_a_report_line_is_rejected() {
        for line in [sample_report().to_json().compact(), summary_line()] {
            assert!(tree_decode(&line).is_ok());
            for end in 0..line.len() {
                let prefix = &line[..end];
                let err = parse_interval_line(prefix).expect_err(prefix);
                assert!(err.starts_with("not a JSON report:"), "{prefix}: {err}");
                assert_eq!(Err(err), tree_decode(prefix), "{prefix}");
            }
        }
    }

    #[test]
    fn deep_nesting_in_skipped_and_decoded_values_is_an_error_not_an_overflow() {
        let deep = "[".repeat(5000);
        for line in [
            format!("{{\"kind\":\"interval\",\"from_the_future\":{deep}"),
            format!("{{\"kind\":\"interval\",\"sketches\":{{\"rtt_us\":{{\"b\":{deep}"),
            format!("{{\"kind\":\"interval\",\"sketches\":{{\"rtt_us\":{{\"b\":[{deep}"),
            format!("{{\"kind\":\"interval\",\"by_port\":{{\"80\":{{\"flows\":{deep}"),
        ] {
            let err = parse_interval_line(&line).unwrap_err();
            assert!(err.ends_with("nesting too deep"), "{err}");
            assert_eq!(Err(err), tree_decode(&line));
        }
    }

    /// A breakdown whose `client_idle` is overwritten with zeros and whose
    /// `tail_retrans` has time but no count.
    const ZEROED_AND_TIMED: &str = "\"breakdown\":{\"stalls\":1,\"stalled_us\":2,\
         \"by_cause\":{\"client_idle\":{\"n\":1,\"us\":2},\"client_idle\":{\"n\":0,\"us\":0}},\
         \"by_retrans\":{\"tail_retrans\":{\"n\":0,\"us\":7}}}";

    #[test]
    fn edge_values_and_repeated_keys_read_as_the_tree_reads_them() {
        let interval = |body: &str| format!("{{\"kind\":\"interval\",{body}}}");
        let lines = [
            // First occurrence wins for keys read with `get` …
            interval("\"start_us\":1,\"start_us\":2"),
            interval("\"start_us\":\"x\",\"start_us\":2"),
            "{\"kind\":\"summary\",\"kind\":\"interval\"}".to_string(),
            "{\"kind\":\"interval\",\"kind\":\"summary\",\"by_port\":[]}".to_string(),
            interval("\"by_port\":{},\"by_port\":[]"),
            interval("\"breakdown\":{\"stalls\":1,\"stalls\":\"x\",\"stalled_us\":2}"),
            // … the last one inside by_cause / by_retrans, and every by_port pair is kept.
            interval(
                "\"breakdown\":{\"stalls\":1,\"stalled_us\":2,\"by_cause\":\
                 {\"client_idle\":{\"n\":1,\"us\":2},\"client_idle\":{\"n\":3,\"us\":4}}}",
            ),
            interval(
                "\"by_port\":{\"80\":{\"flows\":1,\"stalls\":2,\"stalled_us\":3},\
                 \"80\":{\"flows\":4,\"stalls\":5,\"stalled_us\":6},\
                 \"+81\":{\"flows\":7,\"stalls\":8,\"stalled_us\":9}}",
            ),
            // A class overwritten with zeros, and a zero count with time.
            interval(ZEROED_AND_TIMED),
            // Numbers at the edges of `as_u64`.
            interval("\"packets\":9223372036854775807"),
            interval("\"packets\":9223372036854775808"),
            interval("\"packets\":18446744073709551615"),
            interval("\"packets\":-0"),
            interval("\"packets\":-1"),
            interval("\"packets\":1e3"),
            interval("\"packets\":1.0"),
            interval("\"by_port\":{\"80\":{\"flows\":-0,\"stalls\":0,\"stalled_us\":1e3}}"),
            // Escapes in values and in section keys.
            interval("\"daemon\":\"fe\\u0031\""),
            interval("\"daemon\":\"a\\\"b\\\\c\\n\\ud83d\\ude00\""),
            interval("\"by\\u005fport\":{\"\\u0038\\u0030\":{}}"),
            interval("\"sketches\":{\"rtt\\u005fus\":{}}"),
            // Error precedence: sections in breakdown, by_port, sketches
            // order wherever they stand; a non-interval line forgives them;
            // a syntax error outranks them.
            interval("\"sketches\":{},\"by_port\":[],\"breakdown\":7"),
            interval("\"sketches\":{},\"by_port\":[]"),
            interval(
                "\"breakdown\":{\"by_retrans\":7,\"by_cause\":{\"client_idle\":{\"us\":1}},\
                 \"stalled_us\":-1}",
            ),
            interval(
                "\"breakdown\":{\"by_retrans\":7,\"by_cause\":8,\"stalled_us\":1,\"stalls\":1}",
            ),
            "{\"kind\":\"other\",\"sketches\":{},\"by_port\":[]}".to_string(),
            "{\"by_port\":[]}".to_string(),
            interval("\"by_port\":[],\"later\":tru"),
            interval("\"by_port\":[],\"later\":[1,]"),
            interval("\"by_port\":[]") + " x",
            "[{\"kind\":\"interval\"}]".to_string(),
            "7".to_string(),
            "  {\"kind\" : \"interval\" , \"daemon\" : \"ws\" }  ".to_string(),
        ];
        for line in &lines {
            assert_eq!(parse_interval_line(line), tree_decode(line), "{line}");
        }
        // Spot checks, so that agreeing with the oracle is not all this says.
        let rec = |body: &str| parse_interval_line(&interval(body)).unwrap().unwrap();
        assert_eq!(rec("\"start_us\":1,\"start_us\":2").start_us, 1);
        assert_eq!(rec("\"packets\":-0").packets, 0);
        assert_eq!(
            rec("\"packets\":9223372036854775807").packets,
            i64::MAX as u64
        );
        assert_eq!(rec("\"packets\":9223372036854775808").packets, 0);
        assert_eq!(rec("\"daemon\":\"fe\\u0031\"").daemon, "fe1");
        // The zeroed class leaves no entry; the timed one is kept.
        let tail = (StallClass::ALL.len() + RetransClass::TailRetrans.index()) as u8;
        assert_eq!(*rec(ZEROED_AND_TIMED).classes.0, [(tail, 0, 7)]);
        assert_eq!(
            parse_interval_line(&interval("\"sketches\":{},\"by_port\":[],\"breakdown\":7")),
            Err("breakdown is not an object".into())
        );
    }

    /// The one-pass reader's answer, held to the cursor decode's.
    fn layout_read(line: &str) -> Option<ParsedInterval> {
        let rec = read_layout(line)?;
        assert_eq!(cursor_decode(line), Ok(Some(rec.clone())), "{line}");
        Some(rec)
    }

    #[test]
    fn every_line_the_emitter_writes_takes_the_one_pass_path() {
        let mut wide = QSketch::new();
        let mut draw = 7;
        for _ in 0..2_000 {
            draw = splitmix64(draw);
            wide.insert(draw % 3 * (draw % 40_000_000_000));
        }
        assert!(wide.to_json().compact().matches('[').count() > 200);
        let many_ports: Vec<(u16, PortDelta)> = (0..12)
            .map(|i| {
                let counts = PortDelta {
                    flows: i,
                    stalls: i / 2,
                    stalled_us: i * 1_000,
                };
                (i as u16 * 5_000 + 7, counts)
            })
            .collect();
        let base = sample_report();
        let mut reports = vec![base.clone()];
        let mut push = |edit: &dyn Fn(&mut IntervalReport)| {
            let mut r = base.clone();
            edit(&mut r);
            reports.push(r);
        };
        push(&|r| (r.rtt_sketch, r.stall_sketch) = (None, None));
        push(&|r| r.by_port.clear());
        push(&|r| r.by_port = many_ports.clone());
        push(&|r| (r.rtt_sketch, r.stall_sketch) = (Some(QSketch::new()), Some(wide.clone())));
        push(&|r| r.end_us = r.start_us + 3_000_000);
        push(&|r| r.daemon = DaemonId::new(&"fe-0.pop:a".repeat(4)).unwrap());
        push(&|r| {
            r.packets = 999_999_999_999_999_999;
            r.flows_finalized = 100_000_000_000_000_000;
            r.by_port[0].1.stalled_us = 999_999_999_999_999_999;
        });
        assert!(layout_read(REAL_LINE).is_some());
        let all = layout_read(&all_classes_line()).expect("the writer's layout");
        let entries: Vec<_> = (1..=CLASS_SLOTS as u8)
            .map(|k| (k - 1, u64::from(k), 1000 * u64::from(k)))
            .collect();
        assert_eq!(*all.classes.0, entries[..]);
        for report in &reports {
            let line = report.to_json().compact();
            assert!(layout_read(&line).is_some(), "{line}");
        }
        assert!(reports[2].to_json().compact().contains("\"by_port\":{}"));
        assert!(reports[5]
            .to_json()
            .compact()
            .contains("\"pkts_per_sec\":133.3"));
        assert_eq!(reports[6].daemon.as_str().len(), 40);
        assert!(reports[7]
            .to_json()
            .compact()
            .contains("999999999999999999"));

        // A 19-digit value is past the plain integers, and per-shard
        // occupancy (`tapo live --per-shard`) is a member past the layout:
        // the cursor decode reads those lines, to the record the emitter
        // meant.
        let mut big = sample_report();
        big.packets = 1_000_000_000_000_000_000;
        let mut occupancy = sample_report();
        occupancy.shard_occupancy = Some(vec![3, 0, 12]);
        for report in [big, occupancy] {
            let line = report.to_json().compact();
            assert_eq!(read_layout(&line), None);
            let rec = parse_interval_line(&line).unwrap().unwrap();
            assert_eq!(rec.packets, report.packets);
            assert_eq!(Ok(Some(rec)), tree_decode(&line));
        }

        // What `tapo live` wrote for the committed golden captures.
        for stream in [
            include_str!("../../tests/golden/live-heavy.jsonl"),
            include_str!("../../tests/golden/live-promote.jsonl"),
        ] {
            let intervals = stream
                .lines()
                .filter(|l| l.contains("\"kind\":\"interval\""));
            assert!(intervals.clone().count() > 0);
            for line in intervals {
                assert!(layout_read(line).is_some(), "{line}");
            }
        }
    }

    #[test]
    fn a_sketch_whose_counts_do_not_add_up_is_malformed() {
        let empty = r#"{"n":0,"zero":0,"min":0,"max":0,"b":[]}"#;
        let line = |rtt: &str| {
            format!(
                "{{\"kind\":\"interval\",\"sketches\":{{\"rtt_us\":{rtt},\"stall_us\":{empty}}}}}"
            )
        };
        let malformed = Err("sketches: malformed \"rtt_us\"".to_string());
        for rtt in [
            // Fewer samples in the buckets than `n`, and `min > max`.
            r#"{"n":1000,"zero":0,"min":7,"max":3,"b":[]}"#,
            r#"{"n":1000,"zero":0,"min":3,"max":7,"b":[]}"#,
            // More than `n`.
            r#"{"n":2,"zero":1,"min":0,"max":9,"b":[[100,2]]}"#,
            // The counts add up, the bounds do not.
            r#"{"n":1,"zero":0,"min":9,"max":3,"b":[[100,1]]}"#,
            // The sum overflows `u64`.
            r#"{"n":9223372036854775807,"zero":9223372036854775807,"min":1,"max":2,"b":[[1,9223372036854775807],[2,9223372036854775807]]}"#,
        ] {
            assert_eq!(parse_interval_line(&line(rtt)), malformed, "{rtt}");
            assert_eq!(tree_decode(&line(rtt)), malformed, "{rtt}");
        }
        for rtt in [
            empty,
            r#"{"n":3,"zero":1,"min":0,"max":9,"b":[[100,2]]}"#,
            r#"{"n":1,"zero":0,"min":5,"max":5,"b":[[100,1]]}"#,
        ] {
            assert!(parse_interval_line(&line(rtt)).is_ok(), "{rtt}");
        }
        // In the writer's layout too, and named with its line number.
        let good = sample_report().to_json().compact();
        let bad = good.replacen("\"rtt_us\":{\"n\":40,", "\"rtt_us\":{\"n\":1000,", 1);
        assert_ne!(good, bad);
        assert_eq!(read_layout(&bad), None);
        let stream = format!("{good}\n{bad}\n");
        let err = parse_reports_with(stream.as_bytes(), drop).unwrap_err();
        assert_eq!(
            (err.line, err.message),
            (2, "sketches: malformed \"rtt_us\"".into())
        );
    }
}
