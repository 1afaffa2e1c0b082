//! Table and figure output types: render to aligned text (the `repro`
//! binary's stdout format) and to CSV for plotting.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use tapo::json::{Json, Out};
use tapo::sink::{csv_escape, CsvSink, Record, ReportSink};

/// One table row as a fixed-shape [`Record`], so tables flow through the
/// same [`ReportSink`] API as the live daemon's interval reports.
struct TableRow<'a> {
    header: &'a [String],
    cells: &'a [String],
}

impl Record for TableRow<'_> {
    fn header(&self) -> String {
        self.header
            .iter()
            .map(|c| csv_escape(c))
            .collect::<Vec<_>>()
            .join(",")
    }
    fn csv(&self) -> String {
        self.cells
            .iter()
            .map(|c| csv_escape(c))
            .collect::<Vec<_>>()
            .join(",")
    }
    fn write_json(&self, out: &mut Out) {
        out.begin_object();
        for (h, c) in self.header.iter().zip(self.cells) {
            out.escaped_key(h).str(c);
        }
        out.end_object();
    }
}

/// A reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier matching the paper ("table1", "table5"…).
    pub id: String,
    /// Caption.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Build a table; all rows must match the header width.
    pub fn new(id: &str, title: &str, header: Vec<String>, rows: Vec<Vec<String>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == header.len()),
            "ragged table {id}"
        );
        Table {
            id: id.into(),
            title: title.into(),
            header,
            rows,
        }
    }

    /// Render as aligned monospace text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Write as CSV to `dir/<id>.csv`, through the shared
    /// [`tapo::sink::ReportSink`] API (the same path the live daemon's
    /// reports take, so escaping and shape rules cannot drift).
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        let mut sink = CsvSink::new(io::BufWriter::new(file));
        let schema = TableRow {
            header: &self.header,
            cells: &self.header,
        };
        // Eager header: an empty table still documents its schema.
        sink.write_header(&Record::header(&schema))?;
        for row in &self.rows {
            sink.emit(&TableRow {
                header: &self.header,
                cells: row,
            })?;
        }
        sink.finish()
    }

    /// The table as a JSON value (for `repro --json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id.clone())),
            ("title", Json::from(self.title.clone())),
            (
                "header",
                Json::Arr(self.header.iter().map(|h| Json::from(h.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(|c| Json::from(c.clone())).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// A reproduced figure (as plottable series).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier matching the paper ("fig1a", "fig3"…).
    pub id: String,
    /// Caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render a compact textual view: each series' value at a set of probe
    /// x positions (enough to eyeball the shape).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   x: {} | y: {}", self.x_label, self.y_label);
        for s in &self.series {
            let n = s.points.len();
            let probes: Vec<&(f64, f64)> = if n <= 8 {
                s.points.iter().collect()
            } else {
                (0..8).map(|i| &s.points[i * (n - 1) / 7]).collect()
            };
            let pts = probes
                .iter()
                .map(|(x, y)| format!("({x:.4}, {y:.3})"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "   {:<24} {}", s.name, pts);
        }
        out
    }

    /// Write all series as long-format CSV to `dir/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut s = String::new();
        let _ = writeln!(s, "series,x,y");
        for ser in &self.series {
            for (x, y) in &ser.points {
                let _ = writeln!(s, "{},{x},{y}", ser.name);
            }
        }
        std::fs::write(dir.join(format!("{}.csv", self.id)), s)
    }

    /// The figure as a JSON value (for `repro --json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id.clone())),
            ("title", Json::from(self.title.clone())),
            ("x_label", Json::from(self.x_label.clone())),
            ("y_label", Json::from(self.y_label.clone())),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::from(s.name.clone())),
                                (
                                    "points",
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|&(x, y)| {
                                                Json::Arr(vec![Json::from(x), Json::from(y)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Format a fraction as a percent cell ("45.0").
pub fn pct_cell(x: f64) -> String {
    format!("{x:.1}")
}

/// Format bytes in a compact human unit (matching Table 1's style).
pub fn bytes_cell(b: f64) -> String {
    if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.0}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

/// Format a duration in ms or s (matching Table 1's style).
pub fn dur_cell(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.0}ms", secs * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = Table::new(
            "t",
            "demo",
            vec!["a".into(), "long".into()],
            vec![vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        let _ = Table::new(
            "t",
            "demo",
            vec!["a".into()],
            vec![vec!["1".into(), "2".into()]],
        );
    }

    #[test]
    fn csv_roundtrip_files() {
        let dir = std::env::temp_dir().join("tapo_output_test");
        let t = Table::new(
            "test_table",
            "demo",
            vec!["a,b".into(), "c".into()],
            vec![vec!["x".into(), "y".into()]],
        );
        t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("test_table.csv")).unwrap();
        assert!(content.starts_with("\"a,b\",c"));
        let f = Figure {
            id: "test_fig".into(),
            title: "demo".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                name: "s".into(),
                points: vec![(1.0, 2.0)],
            }],
        };
        f.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("test_fig.csv")).unwrap();
        assert!(content.contains("s,1,2"));
    }

    #[test]
    fn cells_format_human_units() {
        assert_eq!(bytes_cell(1_700_000.0), "1.7MB");
        assert_eq!(bytes_cell(129_000.0), "129KB");
        assert_eq!(dur_cell(0.143), "143ms");
        assert_eq!(dur_cell(1.2), "1.2s");
    }

    #[test]
    fn figure_render_probes_long_series() {
        let f = Figure {
            id: "f".into(),
            title: "demo".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                name: "s".into(),
                points: (0..100).map(|i| (i as f64, i as f64)).collect(),
            }],
        };
        let r = f.render();
        assert!(r.contains("(0.0000, 0.000)"));
        assert!(r.contains("(99.0000, 99.000)"));
    }
}
