//! Exact allocation counts of report rendering, held to committed values.
//!
//! Wall time on a shared machine swings by tens of percent between runs;
//! the number of heap allocations a single-threaded render makes over a
//! fixed input does not move at all. This test counts them with a counting
//! global allocator and compares them with `tests/golden/costs.txt`:
//!
//! * `sink.interval_line`: the most allocations any interval line costs
//!   through `JsonLinesSink::emit` once the sink has written its first
//!   line;
//! * `interval.to_json_compact`: the most any interval report costs
//!   through `IntervalReport::to_json().compact()`, the path that hands a
//!   line out as a `String`;
//! * `sink.fleet_record`: the most any `tapo fleet` record (interval,
//!   alert or summary) costs through a sink past its first record.
//!
//! The file is a ratchet. A count above its committed value fails: the
//! change made rendering allocate more. A count below it fails too, until
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
use std::sync::atomic::{AtomicU64, Ordering};

use simnet::time::SimDuration;
use tapo::live::{self, DaemonId, IntervalReport, LiveConfig};
use tapo::report::parse::parse_interval_line;
use tapo::sink::{JsonLinesSink, Record, ReportSink};
use tapo::{aggregate, FleetConfig};
use workloads::livegen::{generate_interleaved, LiveGenSpec};

/// Allocation and reallocation calls through the global allocator.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, layout, new_size)
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

/// `tapo live`'s interval reports over a seeded three-service capture,
/// from daemon `id`.
fn interval_reports(capture: &[u8], id: &str) -> Vec<IntervalReport> {
    let cfg = LiveConfig {
        shards: 1,
        interval: SimDuration::from_millis(250),
        daemon_id: DaemonId::new(id).unwrap(),
        ..LiveConfig::default()
    };
    let mut reports = Vec::new();
    live::run(capture, &cfg, |r| reports.push(r.clone())).unwrap();
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

    // Three daemons' streams (the same capture under three ids) through
    // the aggregator.
    let records: Vec<_> = ["fe0", "fe1", "fe2"]
        .iter()
        .flat_map(|id| interval_reports(&capture, id))
        .map(|r| {
            parse_interval_line(&r.to_json().compact())
                .unwrap()
                .unwrap()
        })
        .collect();
    let fleet = aggregate(&records, 0, &FleetConfig::default());
    let fleet_records = fleet.intervals.iter().map(|iv| iv as &dyn Record);
    let alerts = fleet.alerts.iter().map(|a| a as &dyn Record);
    let summary: &dyn Record = &fleet.summary;
    costs.push((
        "sink.fleet_record",
        worst_after_first(fleet_records.chain(alerts).chain([summary])),
    ));

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
            Some((_, want)) if n > want => problems.push(format!(
                "{name}: {n} allocations, above the committed {want}"
            )),
            Some((_, want)) if n < want => problems.push(format!(
                "{name}: {n} allocations, below the committed {want}: record the gain"
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
const HEADER: &str = "# Allocations per rendered record, the worst over a seeded capture's\n\
                      # records; checked by crates/core/tests/costs.rs, which documents each.\n";
