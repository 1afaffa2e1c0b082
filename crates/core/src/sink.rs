//! Fixed-shape report emission: one sink API over the JSON-lines and CSV
//! renderings every TAPO pipeline emits.
//!
//! The live daemon's interval reports, its end-of-run summary, and the
//! offline `repro`/`validate` tables all share the same contract: a stable
//! header, rows that always carry the full column set (zero when idle),
//! and a one-object-per-line JSON alternative — so downstream tooling
//! ingests them without schema discovery and CI can diff them bytewise.
//! [`ReportSink`] is that contract as a trait; [`JsonLinesSink`] and
//! [`CsvSink`] are the two concrete writers, replacing the parallel ad-hoc
//! `println!`/`write!` paths that used to live in each binary.

use std::io::{self, Write};

use crate::json::{Json, Out};

/// One fixed-shape record: a stable CSV header, one rendered CSV row, and
/// the same data as a single JSON object.
///
/// Implementations must keep all three shapes *fixed*: the header never
/// depends on the record's values, and every column/key is always present.
pub trait Record {
    /// The stable column header for this record type.
    fn header(&self) -> String;
    /// This record as one CSV row matching [`Record::header`]. Cells
    /// needing quoting must already be escaped (see [`csv_escape`]).
    fn csv(&self) -> String;
    /// Encode this record as one JSON object into `out`.
    fn write_json(&self, out: &mut Out);
    /// This record as one JSON object: the compact line
    /// [`Record::write_json`] encodes, as a [`Json::Raw`].
    fn json(&self) -> Json {
        let mut out = Out::new();
        self.write_json(&mut out);
        Json::Raw(out.into_string())
    }
}

/// Where fixed-shape records go. Implementations decide the rendering;
/// callers just [`ReportSink::emit`] each record as it is produced.
pub trait ReportSink {
    /// Emit one record.
    fn emit(&mut self, rec: &dyn Record) -> io::Result<()>;
    /// Flush any buffered output (call once after the last record).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// JSON-lines: each record encoded as one compact JSON object per line.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    /// The line being encoded, reused: once it has grown to the longest
    /// record, a line costs no allocation.
    line: Out,
}

impl<W: Write> JsonLinesSink<W> {
    /// A sink writing JSON-lines to `out`.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out,
            line: Out::new(),
        }
    }
}

impl<W: Write> ReportSink for JsonLinesSink<W> {
    fn emit(&mut self, rec: &dyn Record) -> io::Result<()> {
        self.line.clear();
        rec.write_json(&mut self.line);
        self.out.write_all(self.line.end_line())
    }
    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// CSV: the header once (from the first record), then one row per record.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    header_written: bool,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing CSV to `out`; the header is taken from the first
    /// emitted record.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            header_written: false,
        }
    }

    /// Write `header` now instead of waiting for the first record — for
    /// streaming consumers that want the schema even if no record ever
    /// arrives (e.g. an idle capture).
    pub fn write_header(&mut self, header: &str) -> io::Result<()> {
        self.header_written = true;
        writeln!(self.out, "{header}")
    }
}

impl<W: Write> ReportSink for CsvSink<W> {
    fn emit(&mut self, rec: &dyn Record) -> io::Result<()> {
        if !self.header_written {
            self.header_written = true;
            writeln!(self.out, "{}", rec.header())?;
        }
        writeln!(self.out, "{}", rec.csv())
    }
    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Quote a CSV cell if (and only if) it needs it — commas, quotes, or line
/// breaks inside the value (an unquoted embedded newline splits the row in
/// two for any RFC 4180 reader). Numeric counter rows never need this;
/// free-text table cells (the `repro` tables) do.
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Split one CSV row back into its cells — the exact inverse of joining
/// [`csv_escape`]d cells with commas. Handles quoted cells containing
/// commas, doubled quotes, and embedded line breaks (pass the full logical
/// row, which may span physical lines). Returns `None` for rows no
/// RFC 4180 writer produces: an unterminated quote, text after a closing
/// quote, or a bare quote inside an unquoted cell.
pub fn csv_fields(row: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut cell = String::new();
    let mut chars = row.chars().peekable();
    loop {
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    None => return None, // unterminated quote
                    Some('"') if chars.peek() == Some(&'"') => {
                        chars.next();
                        cell.push('"');
                    }
                    Some('"') => break,
                    Some(c) => cell.push(c),
                }
            }
            match chars.next() {
                None => {
                    fields.push(std::mem::take(&mut cell));
                    return Some(fields);
                }
                Some(',') => fields.push(std::mem::take(&mut cell)),
                Some(_) => return None, // text after closing quote
            }
        } else {
            loop {
                match chars.next() {
                    None => {
                        fields.push(std::mem::take(&mut cell));
                        return Some(fields);
                    }
                    Some(',') => {
                        fields.push(std::mem::take(&mut cell));
                        break;
                    }
                    Some('"') => return None, // bare quote in unquoted cell
                    Some(c) => cell.push(c),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row(u64);
    impl Record for Row {
        fn header(&self) -> String {
            "a,b".into()
        }
        fn csv(&self) -> String {
            format!("{},{}", self.0, self.0 * 2)
        }
        fn write_json(&self, out: &mut Out) {
            out.begin_object();
            out.key("a").u64(self.0);
            out.key("b").u64(self.0 * 2);
            out.end_object();
        }
    }

    #[test]
    fn csv_sink_writes_header_once() {
        let mut buf = Vec::new();
        {
            let mut sink = CsvSink::new(&mut buf);
            sink.emit(&Row(1)).unwrap();
            sink.emit(&Row(2)).unwrap();
            sink.finish().unwrap();
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "a,b\n1,2\n2,4\n");
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_line() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf);
            sink.emit(&Row(1)).unwrap();
            sink.emit(&Row(2)).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"a\":1,\"b\":2}\n"));
    }

    #[test]
    fn escape_quotes_only_when_needed() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fields_invert_escape() {
        let cells = ["plain", "a,b", "say \"hi\"", "two\nlines", "", "crlf\r\n"];
        let row: Vec<String> = cells.iter().map(|c| csv_escape(c)).collect();
        let parsed = csv_fields(&row.join(",")).unwrap();
        assert_eq!(parsed, cells);
        // Malformed rows are rejected, not mis-split.
        assert_eq!(csv_fields("\"unterminated"), None);
        assert_eq!(csv_fields("\"closed\"junk,b"), None);
        assert_eq!(csv_fields("bare\"quote"), None);
        // The empty row is one empty cell, matching `"".split(',')`.
        assert_eq!(csv_fields("").unwrap(), vec![""]);
    }

    #[test]
    fn escape_quotes_line_breaks() {
        // An unquoted newline would split the row; RFC 4180 requires such
        // cells to be quoted (the break itself is preserved verbatim).
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_escape("crlf\r\nrow"), "\"crlf\r\nrow\"");
        assert_eq!(csv_escape("bare\rcr"), "\"bare\rcr\"");
        assert_eq!(csv_escape("quote\"and\nbreak"), "\"quote\"\"and\nbreak\"");
    }
}
