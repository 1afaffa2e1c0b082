//! Fleet memory follows buckets × daemons, not records.
//!
//! A counting global allocator tracks the live heap while `tapo fleet`'s
//! streaming path — each stream read with `read_reports_with` straight
//! into a `FleetFold` — runs over three daemons' report streams, fed once
//! and fed four times over (the three streams named four times: the same
//! buckets, every count ×4). The fold's state must come out byte for byte
//! the same size both ways, and the peak may exceed the once-fed peak by
//! no more than that state; collecting the records first (`read_reports`
//! then `aggregate`) grows with every stream fed.
//!
//! This file holds a single test so no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use simnet::time::SimDuration;
use tapo::live::{self, DaemonId, LiveConfig};
use tapo::{aggregate, read_reports, read_reports_with, FleetConfig, FleetFold, FleetOutcome};
use workloads::{daemon_specs, generate_interleaved, LiveGenSpec};

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

/// `f`'s result and the most bytes live at once while it ran, above the
/// heap when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Ordering::Relaxed) - base)
}

/// Three daemons' JSON-lines report streams, each from `tapo live` at
/// 250 ms intervals over the daemon's own capture.
fn daemon_streams() -> Vec<(String, String)> {
    let base = LiveGenSpec {
        flows_per_service: 8,
        seed: 0xf1ee7,
        mean_gap: SimDuration::from_millis(5),
        threads: 1,
        ..LiveGenSpec::default()
    };
    daemon_specs(&base, 3)
        .into_iter()
        .map(|(id, spec)| {
            let mut capture = Vec::new();
            generate_interleaved(&mut capture, &spec).unwrap();
            let cfg = LiveConfig {
                daemon_id: DaemonId::new(&id).unwrap(),
                interval: SimDuration::from_millis(250),
                ..LiveConfig::default()
            };
            let mut lines = String::new();
            let summary = live::run(&capture[..], &cfg, |r| {
                lines.push_str(&r.to_json().compact());
                lines.push('\n');
            })
            .unwrap();
            lines.push_str(&summary.to_json().compact());
            lines.push('\n');
            (id, lines)
        })
        .collect()
}

/// The streaming path over `feed`: the outcome, the bytes the fold held
/// once every stream was in, and the peak.
fn streamed(feed: &[&(String, String)], cfg: &FleetConfig) -> ((FleetOutcome, usize), usize) {
    peak_bytes(|| {
        let base = LIVE_BYTES.load(Ordering::Relaxed);
        let mut fold = FleetFold::new(cfg);
        let mut skipped = 0;
        for (id, stream) in feed {
            skipped += read_reports_with(id, stream.as_bytes(), 1, |rec| fold.fold(&rec)).unwrap();
        }
        let held = LIVE_BYTES.load(Ordering::Relaxed) - base;
        (fold.finish(skipped), held)
    })
}

/// Every record collected first, then aggregated: the outcome and the peak.
fn collected(feed: &[&(String, String)], cfg: &FleetConfig) -> (FleetOutcome, usize) {
    peak_bytes(|| {
        let (mut records, mut skipped) = (Vec::new(), 0);
        for (id, stream) in feed {
            let (mut recs, skip) = read_reports(id, stream.as_bytes(), 1).unwrap();
            records.append(&mut recs);
            skipped += skip;
        }
        aggregate(&records, skipped, cfg)
    })
}

#[test]
fn streaming_fold_memory_does_not_grow_with_records() {
    let streams = daemon_streams();
    let once: Vec<_> = streams.iter().collect();
    let four: Vec<_> = streams.iter().cycle().take(4 * streams.len()).collect();
    let cfg = FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    };

    let ((out1, held1), peak1) = streamed(&once, &cfg);
    let ((out4, held4), peak4) = streamed(&four, &cfg);
    assert!(
        out1.summary.records >= 30,
        "{} records",
        out1.summary.records
    );
    assert_eq!(out4.summary.buckets, out1.summary.buckets);
    assert_eq!(out4.summary.daemons, 3);
    assert_eq!(out4.summary.records, 4 * out1.summary.records);
    assert_eq!(out4.summary.stalls, 4 * out1.summary.stalls);
    assert_eq!(out4.summary.skipped, 4 * out1.summary.skipped);
    assert_eq!(
        out4.summary.stall_sketch.count(),
        4 * out1.summary.stall_sketch.count()
    );
    assert_eq!(held4, held1, "the fold's state is its buckets");
    // Past the first three streams the fold allocates nothing new, but a
    // repeated stream is read while the state is whole, where the first
    // read of a stream saw part of it at most.
    assert!(
        peak4 <= peak1 + held1,
        "streamed peak {peak4} fed four times, {peak1} once, fold state {held1}"
    );

    let (all1, collected1) = collected(&once, &cfg);
    let (all4, collected4) = collected(&four, &cfg);
    assert_eq!(all1, out1);
    assert_eq!(all4, out4);
    assert!(
        collected4 > 2 * collected1,
        "collected peak {collected4} fed four times, {collected1} once"
    );
    assert!(peak1 < collected1 && 2 * peak4 < collected4);
}
