//! Exact allocation counts of report rendering and parsing, and the exact
//! heap cost of the live engine and the offline analyzer, held to
//! committed values.
//!
//! Wall time on a shared machine swings by tens of percent between runs;
//! the number of heap allocations a single-threaded render makes over a
//! fixed input, or the most bytes it holds at once, does not move at all.
//! This test counts both with a counting global allocator and compares
//! them with `tests/golden/costs.txt`:
//!
//! * `sink.interval_line`: the most allocations any interval line costs
//!   through `JsonLinesSink::emit` once the sink has written its first
//!   line;
//! * `interval.to_json_compact`: the most any interval report costs
//!   through `IntervalReport::to_json().compact()`, the path that hands a
//!   line out as a `String`;
//! * `sink.fleet_record`: the most any `tapo fleet` record (interval,
//!   alert or summary) costs through a sink past its first record;
//! * `parse.interval_line`: the most any interval line costs through
//!   `parse_interval_line`, the decode `tapo fleet` and `tapo advise` read
//!   report streams with (the record it returns included);
//! * `fleet.aggregate.peak_kib`: the peak heap, in KiB above the heap
//!   before the call, of `aggregate` over three daemons' parsed records
//!   (the same capture under three ids), the outcome it returns included;
//! * `fleet.stream.peak_kib`: the peak heap of `tapo fleet`'s path from
//!   the same three streams as bytes to the outcome, on one thread;
//! * `fleet.collect.peak_kib`: the peak heap of the path that keeps the
//!   records, as the `fleet_aggregate` benchmark does: each of the three
//!   streams through `read_reports` into one `Vec`, then `aggregate`;
//! * `live.heavy.peak_kib`: the peak live heap, in KiB above the heap
//!   before the run, of the inline (one-shard) engine with every flow
//!   heavy over the whole capture, reports discarded as they come;
//! * `analyze.allocs_per_flow`: the allocations `analyze_flow_with` makes
//!   per flow of the capture with a recycled `AnalyzeScratch` that has
//!   analyzed every flow once already (the mean, rounded to nearest).
//!
//! The file is a ratchet. A count above its committed value fails: the
//! change made rendering, the engine or the analyzer cost more. A count below it fails too, until
//! the file is updated in the same diff, so a gain is recorded and kept.
//! On a mismatch the measured file is written under
//! `CARGO_TARGET_TMPDIR/golden/costs.txt`, ready to copy over the committed
//! one.
//!
//! The reports come from a seeded capture generated here, run through the
//! inline (one-shard) live engine. This file holds a single test so no
//! other test's allocations land in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use simnet::time::SimDuration;
use tapo::live::{self, DaemonId, IntervalReport, LiveConfig};
use tapo::report::parse::parse_interval_line;
use tapo::sink::{JsonLinesSink, Record, ReportSink};
use tapo::{
    aggregate, analyze_flow_with, read_reports, read_reports_with, AnalyzeScratch, AnalyzerConfig,
    FleetConfig, FleetFold,
};
use tcp_trace::pcap::PcapReader;
use workloads::livegen::{generate_interleaved, LiveGenSpec};

/// Allocation and reallocation calls through the global allocator.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated through the global allocator.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The most [`LIVE_BYTES`] has reached since [`peak_bytes`] last reset it.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

/// Account `size` newly allocated bytes.
fn grow(size: usize) {
    let now = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // Both blocks are live while the bytes move.
            grow(new_size);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The most bytes live at once while `f` runs, above the heap when it
/// started.
fn peak_bytes(f: impl FnOnce()) -> usize {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    f();
    PEAK_BYTES.load(Ordering::Relaxed) - base
}

/// The most allocations any one record costs through `sink`, after a first
/// record that warms its line buffer.
fn worst_after_first<'a>(records: impl IntoIterator<Item = &'a dyn Record>) -> u64 {
    let mut sink = JsonLinesSink::new(std::io::sink());
    let mut records = records.into_iter();
    let first = records.next().expect("at least one record");
    sink.emit(first).unwrap();
    records
        .map(|rec| allocs(|| sink.emit(rec).unwrap()))
        .max()
        .expect("more than one record")
}

/// The inline engine's configuration for daemon `id`: one shard, every
/// flow heavy.
fn live_config(id: &str) -> LiveConfig {
    LiveConfig {
        shards: 1,
        interval: SimDuration::from_millis(250),
        daemon_id: DaemonId::new(id).unwrap(),
        ..LiveConfig::default()
    }
}

/// `tapo live`'s interval reports over a seeded three-service capture,
/// from daemon `id`.
fn interval_reports(capture: &[u8], id: &str) -> Vec<IntervalReport> {
    let mut reports = Vec::new();
    live::run(capture, &live_config(id), |r| reports.push(r.clone())).unwrap();
    reports
}

#[test]
fn rendering_allocates_no_more_than_committed() {
    let spec = LiveGenSpec {
        flows_per_service: 12,
        seed: 7,
        mean_gap: SimDuration::from_millis(40),
        threads: 1,
        ..LiveGenSpec::default()
    };
    let mut capture = Vec::new();
    generate_interleaved(&mut capture, &spec).unwrap();
    let reports = interval_reports(&capture, "fe0");
    assert!(reports.len() >= 10, "{} interval reports", reports.len());
    assert!(reports
        .iter()
        .any(|r| r.rtt_sketch.as_ref().is_some_and(|s| s.count() > 20)));

    let mut costs = Vec::new();
    costs.push((
        "sink.interval_line",
        worst_after_first(reports.iter().map(|r| r as &dyn Record)),
    ));
    let to_json_compact = reports
        .iter()
        .map(|r| allocs(|| drop(r.to_json().compact())))
        .max()
        .unwrap();
    costs.push(("interval.to_json_compact", to_json_compact));
    let lines: Vec<String> = reports.iter().map(|r| r.to_json().compact()).collect();
    let parse = lines
        .iter()
        .map(|line| allocs(|| drop(parse_interval_line(line))))
        .max()
        .unwrap();
    costs.push(("parse.interval_line", parse));

    // Three daemons' streams (the same capture under three ids) through
    // the aggregator.
    let streams: Vec<(&str, String)> = ["fe0", "fe1", "fe2"]
        .into_iter()
        .map(|id| {
            let lines = interval_reports(&capture, id)
                .iter()
                .map(|r| r.to_json().compact() + "\n")
                .collect();
            (id, lines)
        })
        .collect();
    let records: Vec<_> = streams
        .iter()
        .flat_map(|(_, stream)| stream.lines())
        .map(|line| parse_interval_line(line).unwrap().unwrap())
        .collect();
    let fleet_cfg = FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    };
    let fleet = aggregate(&records, 0, &fleet_cfg);
    let fleet_records = fleet.intervals.iter().map(|iv| iv as &dyn Record);
    let alerts = fleet.alerts.iter().map(|a| a as &dyn Record);
    let summary: &dyn Record = &fleet.summary;
    costs.push((
        "sink.fleet_record",
        worst_after_first(fleet_records.chain(alerts).chain([summary])),
    ));
    let peak = peak_bytes(|| drop(aggregate(&records, 0, &fleet_cfg)));
    costs.push(("fleet.aggregate.peak_kib", (peak / 1024) as u64));
    let peak = peak_bytes(|| {
        let mut fold = FleetFold::new(&fleet_cfg);
        let mut skipped = 0;
        for (id, stream) in &streams {
            skipped += read_reports_with(id, stream.as_bytes(), 1, |rec| fold.fold(&rec)).unwrap();
        }
        drop(fold.finish(skipped));
    });
    costs.push(("fleet.stream.peak_kib", (peak / 1024) as u64));
    let peak = peak_bytes(|| {
        let (mut records, mut skipped) = (Vec::new(), 0);
        for (id, stream) in &streams {
            let (mut recs, skip) = read_reports(id, stream.as_bytes(), 1).unwrap();
            records.append(&mut recs);
            skipped += skip;
        }
        drop(aggregate(&records, skipped, &fleet_cfg));
    });
    costs.push(("fleet.collect.peak_kib", (peak / 1024) as u64));

    let cfg = live_config("fe0");
    assert!(cfg.tier.is_none(), "every flow heavy");
    let peak = peak_bytes(|| {
        live::run(&capture[..], &cfg, |_| {}).unwrap();
    });
    costs.push(("live.heavy.peak_kib", (peak / 1024) as u64));

    let flows = PcapReader::read_all(&capture[..]).unwrap();
    let (analyzer, mut scratch) = (AnalyzerConfig::default(), AnalyzeScratch::new());
    let mut pass = || {
        for trace in &flows {
            drop(analyze_flow_with(trace, analyzer, &mut scratch));
        }
    };
    pass();
    let n = flows.len() as u64;
    costs.push(("analyze.allocs_per_flow", (allocs(pass) + n / 2) / n));

    let measured: String = costs
        .iter()
        .map(|(name, n)| format!("{name} {n}\n"))
        .collect();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/costs.txt");
    let committed = std::fs::read_to_string(&golden).unwrap_or_default();
    let committed: Vec<(&str, u64)> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, n) = l.split_once(' ').expect("`name count` lines");
            (name, n.trim().parse().expect("an integer count"))
        })
        .collect();
    let mut problems = Vec::new();
    for (name, n) in &costs {
        match committed.iter().find(|(k, _)| k == name) {
            None => problems.push(format!("{name}: {n}, not in costs.txt")),
            Some((_, want)) if n > want => {
                problems.push(format!("{name}: {n}, above the committed {want}"))
            }
            Some((_, want)) if n < want => problems.push(format!(
                "{name}: {n}, below the committed {want}: record the gain"
            )),
            Some(_) => {}
        }
    }
    if !problems.is_empty() {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&fresh).unwrap();
        std::fs::write(fresh.join("costs.txt"), format!("{HEADER}{measured}")).unwrap();
        panic!(
            "{}\n(measured file in {})",
            problems.join("\n"),
            fresh.display()
        );
    }
}

/// The comment block at the top of `costs.txt`.
const HEADER: &str = "# Allocations per rendered or parsed record, the worst over a seeded\n\
                      # capture's records; the fleet aggregator's and the inline engine's\n\
                      # peak heap and the offline analyzer's allocations per flow over the\n\
                      # same capture. Checked by crates/core/tests/costs.rs, which\n\
                      # documents each.\n";
