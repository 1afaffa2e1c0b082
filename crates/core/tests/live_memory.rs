//! Heavy-tier memory follows the open flows, not the past.
//!
//! A counting global allocator tracks the live heap while `tapo live` runs
//! over a capture with two phases: first many long, concurrent heavy flows
//! (each analyzer grows a transmit log of a thousand entries), then
//! a long tail of a few short flows at a time. Once the long flows have
//! finalized, their analyzers' storage must be gone: the heap late in the
//! run is a small fraction of its early peak. An engine that kept finished
//! analyzers around for reuse would stay near the peak for the rest of the
//! run.
//!
//! This file holds a single test so no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use simnet::time::SimTime;
use tapo::live::{self, LiveConfig};
use tapo::replay::TxLog;
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::PcapWriter;
use tcp_trace::record::{Direction, SegFlags, TraceRecord};

/// Bytes currently allocated through the global allocator.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MSS: u32 = 1448;
const RWND: u64 = 1 << 20;
/// Long flows of the first phase, all open at once.
const LONG_FLOWS: u32 = 128;
/// Segments each long flow sends.
const LONG_SEGMENTS: u64 = 1000;
/// The short-flow phase runs from here to [`END_MS`]: a new four-segment
/// flow every 250 ms.
const SHORT_FROM_MS: u64 = 10_000;
const END_MS: u64 = 40_000;
/// Intervals starting at or after this are "late": every long flow has
/// been finalized well before.
const LATE_FROM_US: u64 = 25_000_000;

fn out_data(t_ms: u64, seq: u64, len: u32) -> TraceRecord {
    TraceRecord::data(
        SimTime::from_millis(t_ms),
        Direction::Out,
        seq,
        len,
        0,
        RWND,
    )
}

fn in_ack(t_ms: u64, ack: u64) -> TraceRecord {
    TraceRecord::pure_ack(SimTime::from_millis(t_ms), Direction::In, ack, RWND)
}

fn fin(t_ms: u64, seq: u64) -> TraceRecord {
    TraceRecord {
        flags: SegFlags {
            fin: true,
            ..SegFlags::ACK
        },
        ..out_data(t_ms, seq, 0)
    }
}

/// `segments` back-to-back segments 8 ms apart from `t0_ms`, every second
/// one acknowledged 50 ms after it was sent, then a FIN.
fn bulk_flow(t0_ms: u64, segments: u64) -> Vec<TraceRecord> {
    let mut recs = Vec::new();
    let m = MSS as u64;
    for k in 0..segments {
        let t = t0_ms + 8 * k;
        recs.push(out_data(t, k * m, MSS));
        if k % 2 == 1 || k + 1 == segments {
            recs.push(in_ack(t + 50, (k + 1) * m));
        }
    }
    recs.push(fin(t0_ms + 8 * segments + 60, segments * m));
    recs
}

/// The two-phase capture, merged in time order (ties by flow index).
fn capture() -> Vec<u8> {
    let mut flows: Vec<Vec<TraceRecord>> = (0..LONG_FLOWS as u64)
        .map(|i| bulk_flow(i * 5, LONG_SEGMENTS))
        .collect();
    let mut t = SHORT_FROM_MS;
    while t < END_MS {
        flows.push(bulk_flow(t, 4));
        t += 250;
    }
    let mut all: Vec<(u64, usize, TraceRecord)> = flows
        .iter()
        .enumerate()
        .flat_map(|(i, recs)| recs.iter().map(move |r| (r.t.as_micros(), i, *r)))
        .collect();
    all.sort_by_key(|&(t, i, _)| (t, i));
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf).expect("in-memory writer");
    for (_, i, rec) in &all {
        w.write_record(&FlowKey::synthetic(*i as u32), rec)
            .expect("write record");
    }
    w.finish().expect("finish capture");
    buf
}

#[test]
fn heavy_memory_falls_back_once_long_flows_end() {
    let capture = capture();
    let cfg = LiveConfig::default();
    assert!(cfg.tier.is_none(), "every flow heavy");
    // (interval start, live heap above the pre-run baseline) per report.
    let mut samples: Vec<(u64, usize)> = Vec::with_capacity(64);
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    let summary = live::run(&capture[..], &cfg, |r| {
        let now = LIVE_BYTES.load(Ordering::Relaxed);
        samples.push((r.start_us, now.saturating_sub(base)));
    })
    .expect("live run succeeds");
    assert_eq!(summary.flows_seen, summary.flows_finalized);
    assert!(summary.max_heavy_flows >= LONG_FLOWS as u64);

    let peak = samples.iter().map(|&(_, b)| b).max().expect("reports");
    let late: Vec<usize> = samples
        .iter()
        .filter(|&&(start, _)| start >= LATE_FROM_US)
        .map(|&(_, b)| b)
        .collect();
    assert!(late.len() >= 10, "{} late intervals", late.len());
    let late_max = *late.iter().max().expect("late intervals");
    // The long flows' transmit logs alone are LONG_FLOWS × LONG_SEGMENTS
    // entries; the peak must have held them.
    assert!(
        peak >= (LONG_FLOWS as u64 * LONG_SEGMENTS) as usize * TxLog::ENTRY_BYTES,
        "peak {peak} bytes"
    );
    // What stays is the engine's fixed cost (the reader's segment buffer,
    // the timer heap, the dead-key map) plus one short flow.
    assert!(
        late_max * 4 <= peak,
        "late heap {late_max} bytes is more than a quarter of the early peak {peak} bytes"
    );
}
