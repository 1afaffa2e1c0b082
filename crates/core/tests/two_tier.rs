//! Two-tier escalation properties: a flow promoted mid-stream must agree
//! with an always-heavy analyzer about every stall that starts after the
//! promotion, hysteresis must keep the heavy tier from thrashing, and the
//! heavy cap must deny (not shed) when the heavy tier is full.
//!
//! The captures are handcrafted so every signal is unambiguous: clean
//! ~50 ms RTT exchanges establish the estimators, one known trigger
//! (dup-ACK burst, repeated retransmission, or zero-window) fires the
//! promotion at a known packet, and the stalls under test are seconds
//! long — orders of magnitude past the `min(2·SRTT, RTO)` threshold in
//! both tiers, so seeded-vs-cold estimator drift cannot flip detection.

use std::collections::HashMap;

use simnet::time::SimTime;
use tapo::live::{self, LiveConfig, TierConfig};
use tapo::FlowAnalysis;
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::PcapWriter;
use tcp_trace::record::{Direction, SegFlags, TraceRecord};

const RWND: u64 = 1 << 20;

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

fn in_ack_rwnd(t_ms: u64, ack: u64, rwnd: u64) -> TraceRecord {
    TraceRecord::pure_ack(SimTime::from_millis(t_ms), Direction::In, ack, rwnd)
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

/// Merge per-flow record lists into one time-ordered capture (ties broken
/// by flow index, like the generator).
fn capture(flows: &[Vec<TraceRecord>]) -> Vec<u8> {
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

/// Clean 50 ms exchanges (probe + ack) so both tiers converge on the same
/// SRTT before anything interesting happens. Returns the next free
/// (time, seq) after the warmup.
fn warmup(recs: &mut Vec<TraceRecord>, rounds: u64) -> (u64, u64) {
    let mut t = 0;
    let mut seq = 0;
    for _ in 0..rounds {
        recs.push(out_data(t, seq, 1000));
        recs.push(in_ack(t + 50, seq + 1000));
        seq += 1000;
        t += 60;
    }
    (t, seq)
}

/// A flow that promotes via a dup-ACK burst, then stalls for seconds.
fn dupack_flow() -> Vec<TraceRecord> {
    let mut r = Vec::new();
    let (t, seq) = warmup(&mut r, 3);
    r.push(out_data(t, seq, 3000));
    // Three duplicates of the current cumulative ACK: promotion fires on
    // the third (promote_dupacks = 3).
    r.push(in_ack(t + 10, seq));
    r.push(in_ack(t + 12, seq));
    r.push(in_ack(t + 14, seq));
    // Recovery: everything acked, then idle (nothing in flight) until
    // past the uniform promotion cutoff, then the stall under test:
    // 3.3 s of ACK silence with data in flight, entirely after the
    // promotion point.
    r.push(in_ack(t + 60, seq + 3000));
    r.push(out_data(t + 230, seq + 3000, 1000));
    r.push(in_ack(t + 3570, seq + 4000));
    r.push(fin(t + 3580, seq + 4000));
    r
}

/// A flow that promotes via repeated retransmission, then stalls.
fn retrans_flow() -> Vec<TraceRecord> {
    let mut r = Vec::new();
    let (t, seq) = warmup(&mut r, 3);
    r.push(out_data(t, seq, 2000));
    // Two re-sends of already-sent data: promotion on the second
    // (promote_retrans = 2). 90 ms gaps stay under the 100 ms threshold.
    r.push(out_data(t + 90, seq, 1000));
    r.push(out_data(t + 180, seq, 1000));
    r.push(in_ack(t + 230, seq + 2000));
    r.push(out_data(t + 240, seq + 2000, 1000));
    r.push(in_ack(t + 3740, seq + 3000)); // 3.5 s stall, post-promotion
    r.push(fin(t + 3750, seq + 3000));
    r
}

/// A flow that promotes the instant the client advertises a zero window.
fn zero_window_flow() -> Vec<TraceRecord> {
    let mut r = Vec::new();
    let (t, seq) = warmup(&mut r, 3);
    r.push(out_data(t, seq, 1000));
    r.push(in_ack_rwnd(t + 50, seq + 1000, 0)); // promotes unconditionally
    r.push(in_ack(t + 100, seq + 1000)); // window opens again
                                         // Idle until past the uniform promotion cutoff, then stall.
    r.push(out_data(t + 230, seq + 1000, 1000));
    r.push(in_ack(t + 3610, seq + 2000)); // 3.4 s stall, post-promotion
    r.push(fin(t + 3620, seq + 2000));
    r
}

fn collect_config(tier: Option<TierConfig>) -> LiveConfig {
    LiveConfig {
        idle_timeout: None,
        fin_linger: None,
        max_flows: 0,
        collect_flows: true,
        tier,
        // One cell keeps the heavy cap global (exact legacy semantics) so
        // the handcrafted heavy_max assertions don't depend on which
        // cells the test keys hash into.
        cells: 1,
        ..Default::default()
    }
}

fn run_collect(
    capture: &[u8],
    tier: Option<TierConfig>,
) -> (live::LiveSummary, HashMap<FlowKey, FlowAnalysis>) {
    let summary = live::run(capture, &collect_config(tier), |_| {}).expect("live run succeeds");
    let flows = summary.flows.iter().cloned().collect();
    (summary, flows)
}

/// The seeded-equivalence property: for every promotion trigger, the
/// promoted analyzer and an always-heavy analyzer must report the *same*
/// stalls (start, duration, cause) for intervals after the promotion.
#[test]
fn promoted_flows_classify_post_promotion_stalls_like_always_heavy() {
    let cap = capture(&[dupack_flow(), retrans_flow(), zero_window_flow()]);
    let (heavy_summary, heavy) = run_collect(&cap, None);
    let (tier_summary, tiered) = run_collect(&cap, Some(TierConfig::default()));

    assert_eq!(heavy.len(), 3, "always-heavy collects every flow");
    assert_eq!(
        tier_summary.promotions, 3,
        "each trigger must promote exactly once"
    );
    assert_eq!(tiered.len(), 3, "every promoted flow is collected");

    // Every crafted flow promotes within its first 400 ms; the stalls
    // under test all start later than that.
    let promoted_by = SimTime::from_millis(400);
    for (key, tiered_analysis) in &tiered {
        let expected = &heavy[key];
        let expected_stalls: Vec<_> = expected
            .stalls
            .iter()
            .filter(|s| s.start >= promoted_by)
            .map(|s| (s.start, s.duration, s.cause))
            .collect();
        let got_stalls: Vec<_> = tiered_analysis
            .stalls
            .iter()
            .filter(|s| s.start >= promoted_by)
            .map(|s| (s.start, s.duration, s.cause))
            .collect();
        assert!(
            !expected_stalls.is_empty(),
            "flow {key:?}: the crafted stall must be detected by always-heavy"
        );
        assert_eq!(
            got_stalls, expected_stalls,
            "flow {key:?}: post-promotion stalls diverged from always-heavy"
        );
    }
    assert_eq!(
        heavy_summary.promotions, 0,
        "heavy-only mode never promotes"
    );
}

/// Hysteresis: calm gaps shorter than `demote_streak` must not demote, so
/// a bursty-but-active flow occupies exactly one heavy slot for its whole
/// life instead of bouncing between the tiers.
#[test]
fn short_calm_runs_do_not_thrash_the_heavy_pool() {
    let mut r = Vec::new();
    let (mut t, mut seq) = warmup(&mut r, 3);
    // Promote via a dup-ACK burst…
    r.push(out_data(t, seq, 3000));
    r.push(in_ack(t + 10, seq));
    r.push(in_ack(t + 12, seq));
    r.push(in_ack(t + 14, seq));
    r.push(in_ack(t + 60, seq + 3000));
    seq += 3000;
    t += 70;
    // …then alternate short calm runs (8 clean exchanges = 16 packets,
    // well under demote_streak = 64) with fresh dup-ACK bursts.
    for _ in 0..4 {
        for _ in 0..8 {
            r.push(out_data(t, seq, 1000));
            r.push(in_ack(t + 50, seq + 1000));
            seq += 1000;
            t += 60;
        }
        r.push(out_data(t, seq, 3000));
        r.push(in_ack(t + 10, seq));
        r.push(in_ack(t + 12, seq));
        r.push(in_ack(t + 14, seq));
        r.push(in_ack(t + 60, seq + 3000));
        seq += 3000;
        t += 70;
    }
    r.push(fin(t, seq));
    let cap = capture(&[r]);

    let tier = TierConfig {
        demote_streak: 64,
        ..TierConfig::default()
    };
    let summary =
        live::run(&cap[..], &collect_config(Some(tier)), |_| {}).expect("live run succeeds");
    assert_eq!(summary.promotions, 1, "one escalation for the whole life");
    assert_eq!(summary.demotions, 0, "short calm runs must not demote");
    assert_eq!(summary.max_heavy_flows, 1);
}

/// With a small `demote_streak`, a long calm run demotes and the next
/// burst must accumulate *fresh* evidence to re-promote (the light row is
/// re-armed) — the counters are not sticky across an episode boundary.
#[test]
fn long_calm_runs_demote_and_rearm() {
    let mut r = Vec::new();
    let (mut t, mut seq) = warmup(&mut r, 3);
    for _ in 0..2 {
        // Burst: promote (3 dup-ACKs).
        r.push(out_data(t, seq, 3000));
        r.push(in_ack(t + 10, seq));
        r.push(in_ack(t + 12, seq));
        r.push(in_ack(t + 14, seq));
        r.push(in_ack(t + 60, seq + 3000));
        seq += 3000;
        t += 70;
        // Long calm run: 20 clean exchanges = 40 event-free packets > 16.
        for _ in 0..20 {
            r.push(out_data(t, seq, 1000));
            r.push(in_ack(t + 50, seq + 1000));
            seq += 1000;
            t += 60;
        }
    }
    r.push(fin(t, seq));
    let cap = capture(&[r]);

    let tier = TierConfig {
        demote_streak: 16,
        ..TierConfig::default()
    };
    let summary =
        live::run(&cap[..], &collect_config(Some(tier)), |_| {}).expect("live run succeeds");
    assert_eq!(
        summary.promotions, 2,
        "each burst is a separate heavy episode"
    );
    assert_eq!(summary.demotions, 2, "each calm run demotes");
    assert_eq!(summary.max_heavy_flows, 1);
}

/// A full heavy tier denies promotion instead of shedding or panicking,
/// and counts the denial.
#[test]
fn heavy_cap_denies_promotions_without_shedding() {
    // Two flows, both triggering dup-ACK suspicion, under heavy_max = 1.
    let cap = capture(&[dupack_flow(), dupack_flow()]);
    let tier = TierConfig {
        heavy_max: 1,
        ..TierConfig::default()
    };
    let summary =
        live::run(&cap[..], &collect_config(Some(tier)), |_| {}).expect("live run succeeds");
    assert_eq!(summary.promotions, 1, "only one heavy slot exists");
    assert!(summary.promotions_denied > 0, "the loser is counted");
    assert_eq!(summary.max_heavy_flows, 1);
    assert_eq!(summary.flows_shed, 0, "denial is not shedding");
    assert_eq!(summary.flows_seen, 2);
}
