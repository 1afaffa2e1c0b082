//! Differential test: the live pipeline over an interleaved multi-flow
//! capture must reproduce the offline analyzer exactly — with the whole
//! front end (flow maps, timers, LRU, light tier, lifecycle) partitioned
//! across shard-owned engines.
//!
//! The pipeline is configured for offline-equivalence (no idle eviction,
//! no FIN linger, no cap — every flow sees all of its packets), so each
//! collected per-flow [`FlowAnalysis`] must be *equal* to running
//! [`analyze_flow`] on the offline-demultiplexed trace of the same key, at
//! 1 shard and at 4 shards alike. Further scenarios turn the knobs back
//! on (cap + shedding + promotion) and check the rendered report lines
//! byte-for-byte across the full shards {1,2,4} × batch {1,256} matrix,
//! and that the aggregated per-shard summary counters match the inline
//! single-shard path exactly.

use std::collections::HashMap;

use simnet::time::SimDuration;
use tapo::live::{self, LiveConfig, TierConfig};
use tapo::{analyze_flow, AnalyzerConfig, FlowAnalysis};
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::PcapReader;
use workloads::{generate_interleaved, LiveGenSpec};

fn interleaved_capture() -> Vec<u8> {
    let spec = LiveGenSpec {
        flows_per_service: 5, // 15 flows total
        seed: 0xd1ff,
        mean_gap: SimDuration::from_millis(10),
        threads: 1,
        ..Default::default()
    };
    let mut buf = Vec::new();
    generate_interleaved(&mut buf, &spec).expect("in-memory generation cannot fail");
    buf
}

/// Offline ground truth: demultiplex with the batch reader and analyze
/// each flow independently.
fn offline_analyses(capture: &[u8], cfg: AnalyzerConfig) -> HashMap<FlowKey, FlowAnalysis> {
    let (flows, stats) = PcapReader::read_all_stats(capture).expect("valid capture");
    assert_eq!(stats.packets_skipped, 0);
    flows
        .iter()
        .map(|t| {
            (
                t.key.expect("synthetic flows are keyed"),
                analyze_flow(t, cfg),
            )
        })
        .collect()
}

fn equivalence_config(shards: usize) -> LiveConfig {
    LiveConfig {
        shards,
        // Offline reads the whole capture before analyzing, so nothing is
        // ever evicted early: disable every live-only lifecycle policy.
        idle_timeout: None,
        fin_linger: None,
        max_flows: 0,
        collect_flows: true,
        ..Default::default()
    }
}

#[test]
fn live_matches_offline_per_flow_at_1_and_4_shards() {
    let capture = interleaved_capture();
    let cfg = AnalyzerConfig::default();
    let offline = offline_analyses(&capture, cfg);
    assert_eq!(offline.len(), 15, "every flow has a unique synthetic key");

    for shards in [1usize, 4] {
        let summary = live::run(&capture[..], &equivalence_config(shards), |_| {})
            .expect("live run succeeds");
        assert_eq!(
            summary.flows.len(),
            offline.len(),
            "{shards} shards: live tracked a different flow set"
        );
        for (key, live_analysis) in &summary.flows {
            let expected = offline
                .get(key)
                .unwrap_or_else(|| panic!("{shards} shards: live invented flow {key:?}"));
            assert_eq!(
                live_analysis, expected,
                "{shards} shards: flow {key:?} diverged from offline analysis"
            );
        }
        // The aggregate mirrors the per-flow equality.
        let mut offline_breakdown = tapo::StallBreakdown::default();
        for a in offline.values() {
            offline_breakdown.add_flow(a);
        }
        assert_eq!(summary.breakdown, offline_breakdown);
        assert_eq!(summary.flows_eof + summary.flows_closed, 15);
    }
}

#[test]
fn reports_are_byte_identical_across_shards_even_when_shedding() {
    let capture = interleaved_capture();
    let mut rendered: Vec<String> = Vec::new();
    for shards in [1usize, 2, 4] {
        let cfg = LiveConfig {
            shards,
            interval: SimDuration::from_millis(500),
            idle_timeout: Some(SimDuration::from_secs(5)),
            fin_linger: Some(SimDuration::from_millis(200)),
            max_flows: 6, // force LRU shedding under ~15 concurrent flows
            ..Default::default()
        };
        let mut lines = String::new();
        let summary = live::run(&capture[..], &cfg, |r| {
            lines.push_str(&r.to_json().compact());
            lines.push('\n');
        })
        .expect("live run succeeds");
        assert!(summary.flows_shed > 0, "cap of 6 must shed some flows");
        lines.push_str(&summary.to_json().compact());
        rendered.push(lines);
    }
    assert_eq!(rendered[0], rendered[1], "1 vs 2 shards");
    assert_eq!(rendered[0], rendered[2], "1 vs 4 shards");
}

/// Batched ingestion must keep the byte-identity invariant along *both*
/// axes: any batch size × any shard count produces the same JSON and CSV
/// report stream, with promotion enabled and under `--max-flows`
/// shedding — the exact configuration where a timing-dependent handoff
/// would first diverge (interval cuts land mid-batch, sheds race the
/// in-flight work batches, promotions seed analyzers partway through
/// flows).
#[test]
fn reports_are_byte_identical_across_batch_sizes_and_shards() {
    let capture = interleaved_capture();
    let mut rendered: Vec<(usize, usize, String)> = Vec::new();
    for batch in [1usize, 256] {
        for shards in [1usize, 2, 4] {
            let cfg = LiveConfig {
                shards,
                batch,
                interval: SimDuration::from_millis(500),
                idle_timeout: Some(SimDuration::from_secs(5)),
                fin_linger: Some(SimDuration::from_millis(200)),
                max_flows: 6, // force LRU shedding under ~15 concurrent flows
                tier: Some(TierConfig {
                    demote_streak: 32,
                    ..TierConfig::default()
                }),
                ..Default::default()
            };
            let mut lines = String::new();
            let summary = live::run(&capture[..], &cfg, |r| {
                lines.push_str(&r.to_json().compact());
                lines.push('\n');
                lines.push_str(&r.to_csv_row());
                lines.push('\n');
            })
            .expect("live run succeeds");
            assert!(summary.flows_shed > 0, "cap of 6 must shed some flows");
            assert!(summary.promotions > 0, "capture must exercise promotion");
            lines.push_str(&summary.to_json().compact());
            rendered.push((batch, shards, lines));
        }
    }
    let (b0, s0, baseline) = &rendered[0];
    for (b, s, lines) in &rendered[1..] {
        assert_eq!(
            lines, baseline,
            "batch {b} × {s} shards diverged from batch {b0} × {s0} shards"
        );
    }
}

/// The steady-state handoff must not allocate: after warmup every batch
/// buffer the driver sends comes back on the spare ring and is reused.
/// The summary's recycling counters prove it — fresh allocations are
/// bounded by warmup (at most spare-ring capacity + in-flight slots per
/// shard, independent of capture length), while recycles scale with the
/// number of batches.
#[test]
fn steady_state_handoff_recycles_buffers_instead_of_allocating() {
    let spec = LiveGenSpec {
        flows_per_service: 20, // 60 flows: enough batches to reach steady state
        seed: 0xa110c,
        mean_gap: SimDuration::from_millis(2),
        threads: 1,
        ..Default::default()
    };
    let mut capture = Vec::new();
    generate_interleaved(&mut capture, &spec).expect("in-memory generation cannot fail");

    let cfg = LiveConfig {
        shards: 2,
        batch: 64, // small batches → many flushes → many recycle round-trips
        ..Default::default()
    };
    let summary = live::run(&capture[..], &cfg, |_| {}).expect("live run succeeds");
    let flushes = summary.ring_fresh_buffers + summary.ring_recycled_buffers;
    assert!(flushes > 100, "capture too short to exercise steady state");
    // Warmup bound: each shard's spare ring holds ring_depth + 2 buffers
    // and ring_depth more can be in flight on the forward ring.
    let warmup_cap = (cfg.shards * (2 * cfg.ring_depth + 2)) as u64;
    assert!(
        summary.ring_fresh_buffers <= warmup_cap,
        "fresh allocations ({}) exceed the warmup bound ({warmup_cap}): \
         the hot path is allocating",
        summary.ring_fresh_buffers
    );
    assert!(
        summary.ring_recycled_buffers > summary.ring_fresh_buffers * 4,
        "recycling ({}) should dominate allocation ({}) in steady state",
        summary.ring_recycled_buffers,
        summary.ring_fresh_buffers
    );
}

/// Two-tier mode must keep the byte-identity invariant: promotion and
/// demotion decisions are cell-local (each cell's heavy quota is a fixed
/// slice of the global cap, owned by exactly one shard at any count), so
/// the report stream — including the
/// `flows_light`/`flows_heavy`/`promotions`/`demotions` fields — cannot
/// depend on the shard count.
#[test]
fn two_tier_reports_are_byte_identical_across_shards() {
    let capture = interleaved_capture();
    let mut rendered: Vec<String> = Vec::new();
    let mut promotions = 0;
    for shards in [1usize, 2, 4] {
        let cfg = LiveConfig {
            shards,
            interval: SimDuration::from_millis(500),
            tier: Some(TierConfig {
                demote_streak: 32, // short capture: make demotion reachable
                ..TierConfig::default()
            }),
            ..Default::default()
        };
        let mut lines = String::new();
        let summary = live::run(&capture[..], &cfg, |r| {
            lines.push_str(&r.to_json().compact());
            lines.push('\n');
            lines.push_str(&r.to_csv_row());
            lines.push('\n');
        })
        .expect("live run succeeds");
        promotions = summary.promotions;
        lines.push_str(&summary.to_json().compact());
        rendered.push(lines);
    }
    assert!(
        promotions > 0,
        "capture must exercise promotion for the invariant to mean anything"
    );
    assert_eq!(rendered[0], rendered[1], "two-tier 1 vs 2 shards");
    assert_eq!(rendered[0], rendered[2], "two-tier 1 vs 4 shards");
}

/// The per-shard summary counters — promotions, sheds, late packets,
/// high-water marks, buffer provenance — are accumulated per engine and
/// folded in canonical shard order at shutdown. The folded totals of a
/// parallel run must match the inline `--shards 1` path *exactly*, field
/// by field and in both rendered forms (JSON summary and the CSV report
/// stream). The ring counters themselves are threading artifacts (the
/// inline path has no rings), so for those the invariant is internal
/// consistency, not cross-count equality — and they are deliberately
/// kept out of the rendered summary.
#[test]
fn aggregated_summary_counters_match_the_inline_path_exactly() {
    let capture = interleaved_capture();
    let run_with = |shards: usize| {
        let cfg = LiveConfig {
            shards,
            interval: SimDuration::from_millis(500),
            idle_timeout: Some(SimDuration::from_secs(2)),
            fin_linger: Some(SimDuration::from_millis(200)),
            max_flows: 6, // shedding on
            tier: Some(TierConfig {
                demote_streak: 32,
                heavy_max: 3, // small cap: exercise promotion denials
                ..TierConfig::default()
            }),
            ..Default::default()
        };
        let mut csv = String::new();
        let summary = live::run(&capture[..], &cfg, |r| {
            csv.push_str(&r.to_csv_row());
            csv.push('\n');
        })
        .expect("live run succeeds");
        (summary, csv)
    };
    let (inline, inline_csv) = run_with(1);
    assert!(inline.flows_shed > 0, "cap of 6 must shed");
    // With heavy_max 3 split over 6 cells, half the cells have heavy
    // quota 0 — suspicious flows there are denied, not promoted. Either
    // way the escalation machinery must have fired for the totals below
    // to mean anything.
    assert!(inline.promotions + inline.promotions_denied > 0);
    for shards in [2usize, 4] {
        let (par, par_csv) = run_with(shards);
        assert_eq!(par.flows_seen, inline.flows_seen, "{shards} shards");
        assert_eq!(par.flows_finalized, inline.flows_finalized);
        assert_eq!(par.flows_closed, inline.flows_closed);
        assert_eq!(par.flows_evicted_idle, inline.flows_evicted_idle);
        assert_eq!(par.flows_shed, inline.flows_shed);
        assert_eq!(par.flows_eof, inline.flows_eof);
        assert_eq!(par.packets, inline.packets);
        assert_eq!(par.packets_late, inline.packets_late);
        assert_eq!(par.promotions, inline.promotions);
        assert_eq!(par.demotions, inline.demotions);
        assert_eq!(par.promotions_denied, inline.promotions_denied);
        assert_eq!(par.live_stalls, inline.live_stalls);
        assert_eq!(par.max_active_flows, inline.max_active_flows);
        assert_eq!(par.max_heavy_flows, inline.max_heavy_flows);
        assert_eq!(par.breakdown, inline.breakdown);
        assert_eq!(
            par.to_json().compact(),
            inline.to_json().compact(),
            "{shards} shards: rendered summary diverged"
        );
        assert_eq!(par_csv, inline_csv, "{shards} shards: CSV stream diverged");
        // Inline has no rings at all; parallel runs recycle through them.
        assert_eq!(inline.ring_fresh_buffers + inline.ring_recycled_buffers, 0);
        assert!(par.ring_fresh_buffers > 0, "parallel path must use rings");
    }
}

/// What `live::run` did with a [`Pieces`] input, in order.
#[derive(Debug, PartialEq)]
enum Event {
    /// A `read` was issued after this many pieces had been handed over.
    Read(usize),
    /// An interval report was emitted (its rendered line).
    Report(String),
}

/// A `Read` that hands the capture over at most one piece per call and
/// journals every call; the report callback writes into the same journal,
/// so the order of reads and reports is on record.
struct Pieces<'a> {
    data: &'a [u8],
    /// Ascending piece ends; the last is `data.len()`.
    ends: Vec<usize>,
    pos: usize,
    journal: &'a std::cell::RefCell<Vec<Event>>,
}

impl std::io::Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let handed = self.ends.partition_point(|&e| e <= self.pos);
        self.journal.borrow_mut().push(Event::Read(handed));
        let Some(&end) = self.ends.get(handed) else {
            return Ok(0);
        };
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Piece ends that hand over the global header, then one record a call;
/// and, by the driver's own cut rule, the index of the packet that triggers
/// each interval report but the last (which end of input triggers).
fn records_and_triggers(capture: &[u8], interval_us: u64) -> (Vec<usize>, Vec<usize>) {
    let le32 = |at: usize| u32::from_le_bytes(capture[at..at + 4].try_into().unwrap());
    let (mut ends, mut triggers) = (vec![24], Vec::new());
    let mut next_cut_us = 0u64;
    let mut pos = 24;
    while pos < capture.len() {
        let t_us = le32(pos) as u64 * 1_000_000 + le32(pos + 4) as u64;
        if t_us >= next_cut_us {
            if ends.len() > 1 {
                triggers.push(ends.len() - 1);
            }
            next_cut_us = (t_us / interval_us + 1) * interval_us;
        }
        pos += 16 + le32(pos + 8) as usize;
        ends.push(pos);
    }
    (ends, triggers)
}

fn report_lines(journal: &[Event]) -> Vec<&String> {
    journal
        .iter()
        .filter_map(|e| match e {
            Event::Report(line) => Some(line),
            Event::Read(_) => None,
        })
        .collect()
}

fn journaled_run(capture: &[u8], ends: Vec<usize>, cfg: &LiveConfig) -> (Vec<Event>, String) {
    let journal = std::cell::RefCell::new(Vec::new());
    let input = Pieces {
        data: capture,
        ends,
        pos: 0,
        journal: &journal,
    };
    let summary = live::run(input, cfg, |r| {
        let line = r.to_json().compact();
        journal.borrow_mut().push(Event::Report(line));
    })
    .expect("live run succeeds");
    (journal.into_inner(), summary.to_json().compact())
}

/// Availability-driven batching, seen from outside: on an input that
/// trickles one record per `read`, every interval report is out *before*
/// the pipeline asks for input again after its trigger packet arrived —
/// inline and through the shard rings alike — and the bytes are the
/// closed-loop run's. With a batch quorum the report would wait for up to
/// `batch - 1` further reads.
#[test]
fn reports_never_wait_on_input_that_has_not_arrived() {
    let capture = interleaved_capture();
    let interval = SimDuration::from_millis(100);
    let (ends, triggers) = records_and_triggers(&capture, interval.as_micros());
    assert!(
        triggers.len() >= 10,
        "want many cuts, got {}",
        triggers.len()
    );
    for shards in [1usize, 2] {
        let cfg = LiveConfig {
            shards,
            interval,
            ..Default::default()
        };
        let mut closed = Vec::new();
        let closed_summary = live::run(&capture[..], &cfg, |r| closed.push(r.to_json().compact()))
            .expect("live run succeeds")
            .to_json()
            .compact();
        let (journal, summary) = journaled_run(&capture, ends.clone(), &cfg);
        let at = |e: &Event| journal.iter().position(|x| x == e).expect("in the journal");

        let reports = report_lines(&journal);
        assert_eq!(
            reports,
            closed.iter().collect::<Vec<_>>(),
            "{shards} shard(s)"
        );
        assert_eq!(summary, closed_summary, "{shards} shard(s)");
        assert_eq!(reports.len(), triggers.len() + 1);

        // Packet `p` is piece `p + 1`, handed over by the read journaled as
        // `Read(p + 1)`; the next read is `Read(p + 2)`.
        for (k, &p) in triggers.iter().enumerate() {
            let report = at(&Event::Report(closed[k].clone()));
            assert!(
                at(&Event::Read(p + 1)) < report && report < at(&Event::Read(p + 2)),
                "{shards} shard(s): report {k} (trigger packet {p}) waited for more input"
            );
        }
    }
}

/// A capture cut mid-record, arriving seven bytes a read: the partial tail
/// is counted once, nothing hangs, and everything before it is reported as
/// from a file.
#[test]
fn capture_cut_mid_record_ends_countably_under_short_reads() {
    let mut capture = interleaved_capture();
    capture.truncate(capture.len() - 9);
    let cfg = LiveConfig::default();
    let mut closed = Vec::new();
    let closed_summary = live::run(&capture[..], &cfg, |r| closed.push(r.to_json().compact()))
        .expect("live run succeeds");
    assert_eq!(closed_summary.records_truncated, 1);

    let ends = (1..=capture.len().div_ceil(7))
        .map(|i| (i * 7).min(capture.len()))
        .collect();
    let (journal, summary) = journaled_run(&capture, ends, &cfg);
    assert_eq!(report_lines(&journal), closed.iter().collect::<Vec<_>>());
    assert_eq!(summary, closed_summary.to_json().compact());
}
