//! Fleet input: JSON-lines report streams from files, FIFOs, or a stdin
//! multiplex, parsed in parallel.
//!
//! Ingestion is deliberately dumb: records carry their own daemon id, so
//! *where* a line arrived from (which file, what interleaving) carries no
//! information and cannot influence the aggregate.
//!
//! [`read_reports`] is the one framer every report stream goes through
//! (`tapo advise` reaches it via `report::parse::parse_reports`). It reads
//! whole lines with `read_until` into one reusable byte arena, about
//! `BATCH_BYTES` (1 MiB) at a time (a longer line is a batch of its own), splits
//! them as `BufRead::lines` does (at `\n`, then one `\r` off the end),
//! checks the batch is UTF-8 in one pass, decodes its lines with
//! [`par_map`](simnet::par::par_map) and folds the results in line order
//! before reading on. No line becomes a `String`, and a stream is never
//! held whole.
//!
//! The first bad line in line order is the error, whatever made it bad: a
//! read error, bytes that are not UTF-8, or a line that does not decode.
//! Reading stops in the batch that holds it, so the parse — records,
//! skip count and error — is byte-identical at any `--threads`.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::Path;

use simnet::par;

use crate::report::parse::{parse_interval_line, ParsedInterval};

/// Line bytes framed before a batch is decoded: about a thousand report
/// lines to spread over the parse workers. `tapo fleet` over 16 000
/// records in eight 2 MB streams, at its default thread count on a 2-vCPU
/// guest, ran no slower with this size than with 8 MiB (one batch per
/// stream): 67.3 vs 64.2 ms median over 40 rotated runs.
const BATCH_BYTES: usize = 1 << 20;

/// What `BufRead::lines` reports for a line that is not UTF-8.
const NOT_UTF8: &str = "read error: stream did not contain valid UTF-8";

/// A malformed fleet input: which stream, which line, what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    /// The stream the line came from (a path, or `"-"` for stdin).
    pub source: String,
    /// 1-based line number within that stream (0 for stream-level errors
    /// such as a file that cannot be opened).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.source, self.line, self.message)
    }
}

impl std::error::Error for FleetError {}

/// One line decoded: `None` when blank, else what [`parse_interval_line`]
/// makes of it — a record, a skipped non-interval object, or the error.
type Decoded = Option<Result<Option<ParsedInterval>, String>>;

fn decode(line: &str) -> Decoded {
    (!line.trim().is_empty()).then(|| parse_interval_line(line))
}

/// Where the text of the line framed at `arena[start..]` ends: before its
/// `\n`, and before one `\r` ahead of that.
fn text_end(arena: &[u8], start: usize) -> usize {
    let line = &arena[start..];
    let line = line
        .strip_suffix(b"\n")
        .map_or(line, |line| line.strip_suffix(b"\r").unwrap_or(line));
    start + line.len()
}

/// Read one named report stream: every interval record in line order plus
/// the count of well-formed non-interval lines skipped.
///
/// `threads` caps the parse workers (0 = all available); it cannot change
/// the result or the error reported.
pub fn read_reports<R: BufRead>(
    source: &str,
    mut input: R,
    threads: usize,
) -> Result<(Vec<ParsedInterval>, u64), FleetError> {
    let at = |line: usize, message: String| FleetError {
        source: source.to_string(),
        line,
        message,
    };
    let threads = if threads == 0 {
        par::available_threads()
    } else {
        threads
    };
    let mut arena = Vec::new();
    // Each framed line's text in `arena`, line end stripped.
    let mut texts: Vec<Range<usize>> = Vec::new();
    let mut records = Vec::new();
    let mut skipped = 0u64;
    let mut first_line = 1;
    loop {
        arena.clear();
        texts.clear();
        let mut unreadable = None;
        let mut ended = false;
        while arena.len() < BATCH_BYTES && !ended && unreadable.is_none() {
            let start = arena.len();
            match input.read_until(b'\n', &mut arena) {
                Ok(0) => ended = true,
                Ok(_) => texts.push(start..text_end(&arena, start)),
                Err(e) => {
                    arena.truncate(start);
                    unreadable = Some(format!("read error: {e}"));
                }
            }
        }
        let batch = match std::str::from_utf8(&arena) {
            Ok(batch) => batch,
            Err(e) => {
                // The first invalid byte is not `\r` or `\n`, so it lies in
                // a line's text; that line is the first unreadable one.
                let valid = e.valid_up_to();
                texts.truncate(texts.partition_point(|text| text.end <= valid));
                unreadable = Some(NOT_UTF8.to_string());
                std::str::from_utf8(&arena[..valid]).expect("valid up to the first bad byte")
            }
        };
        let lines = par::par_map(texts.len(), threads, |i| decode(&batch[texts[i].clone()]));
        for (i, line) in lines.into_iter().enumerate() {
            match line {
                None => {}
                Some(Ok(None)) => skipped += 1,
                Some(Ok(Some(rec))) => records.push(rec),
                Some(Err(message)) => return Err(at(first_line + i, message)),
            }
        }
        first_line += texts.len();
        if let Some(message) = unreadable {
            return Err(at(first_line, message));
        }
        if ended {
            return Ok((records, skipped));
        }
    }
}

/// Read several report files (one per daemon, or any other split) and
/// concatenate their records. File order cannot influence the aggregate —
/// records carry their daemon ids — but errors are attributed to the file
/// and line they came from.
pub fn read_report_files<P: AsRef<Path>>(
    paths: &[P],
    threads: usize,
) -> Result<(Vec<ParsedInterval>, u64), FleetError> {
    let mut records = Vec::new();
    let mut skipped = 0u64;
    for path in paths {
        let name = path.as_ref().display().to_string();
        let file = File::open(path.as_ref()).map_err(|e| FleetError {
            source: name.clone(),
            line: 0,
            message: format!("open error: {e}"),
        })?;
        let (mut recs, skip) = read_reports(&name, BufReader::new(file), threads)?;
        records.append(&mut recs);
        skipped += skip;
    }
    Ok((records, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::splitmix64;
    use std::cell::Cell;
    use std::io::{ErrorKind, Read};

    #[test]
    fn read_reports_is_thread_count_invariant() {
        let mut input = String::new();
        for i in 0..40 {
            input.push_str(&format!(
                "{{\"kind\":\"interval\",\"daemon\":\"fe{}\",\"start_us\":{}}}\n",
                i % 4,
                i * 250_000
            ));
            if i % 7 == 0 {
                input.push_str("{\"kind\":\"summary\"}\n\n");
            }
        }
        let serial = read_reports("-", input.as_bytes(), 1).unwrap();
        for threads in [2, 4, 8] {
            let parallel = read_reports("-", input.as_bytes(), threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert_eq!(serial.0.len(), 40);
        assert_eq!(serial.1, 6);
    }

    #[test]
    fn missing_file_is_a_stream_level_error() {
        let err = read_report_files(&["/nonexistent/fleet-input.jsonl"], 1).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.starts_with("open error:"));
    }

    /// The framing this module is held to: `BufRead::lines`, one `String`
    /// per line, each decoded as it is read, so the first bad line in order
    /// is the error whatever made it bad.
    fn read_reports_reference<R: BufRead>(
        source: &str,
        input: R,
    ) -> Result<(Vec<ParsedInterval>, u64), FleetError> {
        let mut records = Vec::new();
        let mut skipped = 0u64;
        for (i, line) in input.lines().enumerate() {
            let at = |message: String| FleetError {
                source: source.to_string(),
                line: i + 1,
                message,
            };
            match decode(&line.map_err(|e| at(format!("read error: {e}")))?) {
                None => {}
                Some(Ok(None)) => skipped += 1,
                Some(Ok(Some(rec))) => records.push(rec),
                Some(Err(message)) => return Err(at(message)),
            }
        }
        Ok((records, skipped))
    }

    /// A reader over `bytes` that hands out 1–7 bytes per call, answers
    /// every other call with `Interrupted`, and fails for good once it has
    /// handed out `fail_at` bytes.
    struct Dribble<'a> {
        bytes: &'a [u8],
        fail_at: Option<usize>,
        pos: usize,
        calls: usize,
    }

    impl<'a> Dribble<'a> {
        fn new(bytes: &'a [u8], fail_at: Option<usize>) -> BufReader<Self> {
            let inner = Dribble {
                bytes,
                fail_at,
                pos: 0,
                calls: 0,
            };
            BufReader::with_capacity(16, inner)
        }
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            if self.fail_at.is_some_and(|at| self.pos >= at) {
                return Err(std::io::Error::other("link down"));
            }
            let limit = self
                .fail_at
                .map_or(self.bytes.len(), |at| at.min(self.bytes.len()));
            let n = (1 + self.calls % 7).min(buf.len()).min(limit - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A seeded report stream: records, summaries, blank and
    /// whitespace-only lines, lone `\r`s, multi-byte UTF-8, and now and
    /// then malformed JSON or bytes that are not UTF-8; LF or CRLF line
    /// ends, sometimes no final newline, sometimes a line longer than a
    /// batch.
    fn seeded_stream(seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = splitmix64(state);
            state % n
        };
        let lines = draw(150);
        let bad_odds = 30 + draw(600);
        let mut out = Vec::new();
        for i in 0..lines {
            let line: Vec<u8> = match draw(bad_odds) {
                0 => b"{\"kind\":\"interval\",\"daemon\":\"b\xffd\"}".to_vec(),
                1 => b"{\"kind\":\"interval\",\"by_port\":[]}".to_vec(),
                2 => b"nope".to_vec(),
                // Cut short: the error names the byte where the line ended.
                3 => b"{\"kind\":\"interval\",\"start_us\":1".to_vec(),
                4..=8 => Vec::new(),
                9..=12 => b" \t ".to_vec(),
                13..=15 => b"\r".to_vec(),
                16..=18 => b"{\"kind\":\"summary\"}\r{\"kind\":\"summary\"}".to_vec(),
                19..=22 => b"\r{\"kind\":\"summary\",\"n\":1}".to_vec(),
                23 if seed.is_multiple_of(16) => {
                    let pad = "x".repeat(BATCH_BYTES + 1000);
                    format!("{{\"kind\":\"interval\",\"pad\":\"{pad}\"}}").into_bytes()
                }
                _ => format!(
                    "{{\"kind\":\"interval\",\"daemon\":\"f\u{e9}{}\",\"start_us\":{},\
                     \"sketches\":{{\"rtt_us\":{{\"n\":2,\"zero\":0,\"min\":5,\"max\":9,\
                     \"b\":[[3,1],[4,1]]}},\"stall_us\":{{\"n\":0,\"zero\":0,\"min\":0,\
                     \"max\":0,\"b\":[]}}}}}}",
                    draw(4),
                    i * 250_000
                )
                .into_bytes(),
            };
            out.extend(line);
            if i + 1 < lines || draw(2) == 0 {
                out.extend(if draw(3) == 0 { &b"\r\n"[..] } else { b"\n" });
            }
        }
        out
    }

    #[test]
    fn framing_equals_the_line_by_line_reference() {
        // Records parsed, a decode error, and an unreadable line.
        let mut outcomes = [0u32; 3];
        for seed in 0..400u64 {
            let stream = seeded_stream(seed);
            let want = read_reports_reference("s", &stream[..]);
            outcomes[match &want {
                Ok(_) => 0,
                Err(e) if e.message.starts_with("read error") => 2,
                Err(_) => 1,
            }] += 1;
            let fail_at = (splitmix64(!seed) % (stream.len() as u64 + 2)) as usize;
            let want_cut = read_reports_reference("s", Dribble::new(&stream, Some(fail_at)));
            for threads in [1, 4] {
                let tag = format!("seed {seed} threads {threads}");
                assert_eq!(read_reports("s", &stream[..], threads), want, "{tag}");
                let dribbled = read_reports("s", Dribble::new(&stream, None), threads);
                assert_eq!(dribbled, want, "{tag} dribbled");
                let cut = read_reports("s", Dribble::new(&stream, Some(fail_at)), threads);
                assert_eq!(cut, want_cut, "{tag} cut at byte {fail_at}");
            }
        }
        assert!(outcomes.iter().all(|&n| n >= 40), "{outcomes:?}");
    }

    #[test]
    fn framing_edge_streams_equal_the_reference() {
        let record = "{\"kind\":\"interval\",\"daemon\":\"fe1\"}";
        let long = format!(
            "{{\"kind\":\"summary\",\"pad\":\"{}\"}}",
            "y".repeat(3 << 20)
        );
        let streams: Vec<Vec<u8>> = [
            String::new(),
            "\n".into(),
            "\n\n\n".into(),
            "\r\n\r\n".into(),
            " \n\t\n  \r\n".into(),
            format!("{record}\n{{\"kind\":\"summary\"}}\n{record}"),
            format!("{record}\r\n{record}\r\n"),
            format!("{record}\r"),
            format!("{record}\r\r\n"),
            format!("{record}\r{record}\n"),
            format!("\r{record}\n"),
            format!("{record}\r\n{{\"kind\":\"interval\"\r\n"),
            format!("{record}\n{long}\n{record}\n{long}"),
            format!("{long}\r\n"),
        ]
        .map(String::into_bytes)
        .into();
        for stream in &streams {
            let want = read_reports_reference("s", &stream[..]);
            for threads in [1, 4] {
                assert_eq!(read_reports("s", &stream[..], threads), want);
            }
        }
        let (records, skipped) = read_reports("s", &streams[12][..], 1).unwrap();
        assert_eq!((records.len(), skipped), (2, 2));
    }

    #[test]
    fn first_bad_line_in_order_wins() {
        let input = "{\"kind\":\"interval\"}\nbad one\nbad two\n";
        for threads in [1, 4] {
            let err = read_reports("stream", input.as_bytes(), threads).unwrap_err();
            assert_eq!(err.line, 2, "threads={threads}");
            assert_eq!(err.source, "stream");
            assert!(err.to_string().starts_with("stream:2: not a JSON report:"));
        }
        // Whatever made it bad.
        let record = "{\"kind\":\"interval\"}\n";
        // Bad JSON on line 2 before bytes that are not UTF-8 on line 3 …
        let mut utf8_later = format!("{record}nope\n").into_bytes();
        utf8_later.extend(b"{\"daemon\":\"\xff\"}\n");
        // … and before a read error on line 4.
        let read_later = format!("{record}nope\n{record}{{\"kind\"");
        let cut = read_later.len() - 3;
        for threads in [1, 4] {
            let err = read_reports("s", &utf8_later[..], threads).unwrap_err();
            assert_eq!(err.line, 2, "{err}");
            assert!(err.message.starts_with("not a JSON report:"), "{err}");
            let dribble = Dribble::new(read_later.as_bytes(), Some(cut));
            let err = read_reports("s", dribble, threads).unwrap_err();
            assert_eq!(err.line, 2, "{err}");
        }
        // The advisor reads the same stream through the same framer.
        let err = crate::report::parse::parse_reports(&utf8_later[..]).unwrap_err();
        assert_eq!(err.line, 2);
        // Alone, the unreadable line is reported as `BufRead::lines` words it.
        let err = read_reports("s", &utf8_later[record.len() + 5..], 1).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (1, NOT_UTF8));
    }

    /// Counts the bytes a reader hands out.
    struct Counted<'a> {
        bytes: &'a [u8],
        pos: &'a Cell<usize>,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (&self.bytes[self.pos.get()..]).read(buf)?;
            self.pos.set(self.pos.get() + n);
            Ok(n)
        }
    }

    #[test]
    fn a_binary_stream_fails_at_line_one_within_one_batch() {
        // A classic pcap header, then noise with a `\n` every ~100 bytes.
        let mut bytes = vec![0xd4, 0xc3, 0xb2, 0xa1, 2, 0, 4, 0];
        let mut state = 7u64;
        while bytes.len() < 6 << 20 {
            state = splitmix64(state);
            bytes.push(if state.is_multiple_of(100) {
                b'\n'
            } else {
                state as u8
            });
        }
        for threads in [1, 4] {
            let read = Cell::new(0);
            let input = BufReader::new(Counted {
                bytes: &bytes,
                pos: &read,
            });
            let err = read_reports("cap.pcap", input, threads).unwrap_err();
            assert_eq!((err.line, err.message.as_str()), (1, NOT_UTF8));
            assert!(
                read.get() <= BATCH_BYTES + (64 << 10),
                "read {} bytes",
                read.get()
            );
        }
    }
}
