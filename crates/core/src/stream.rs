//! Stall analysis, one record at a time: the one gap detector.
//!
//! The paper's TAPO ran integrated into Qihoo 360's TCP analysis platform
//! for daily maintenance. [`StreamAnalyzer`] supports that deployment
//! style: records are pushed one at a time as they are captured, stalls are
//! surfaced the moment the packet ending them arrives (with a
//! *provisional* cause based on the flow so far), and
//! [`StreamAnalyzer::finish`] classifies every stall again over the
//! completed replay. Final causes can differ from provisional ones only
//! where later evidence (a DSACK proving a retransmission spurious, a
//! later request delimiting a response tail) changes the verdict.
//!
//! The offline [`crate::analyze_flow`] and the simulators (through
//! [`RecordSink`]) feed the same analyzer without asking for provisional
//! causes, so every path detects stalls with the same loop.
//!
//! Memory: the analyzer keeps per-segment history plus only the
//! stall-ending records — not the whole trace.

use simnet::time::{SimDuration, SimTime};
use tcp_trace::record::{Direction, RecordSink, TraceRecord};

use crate::classify::{self, Candidate, Stall};
use crate::replay::Replay;
use crate::{AnalyzerConfig, FlowAnalysis, FlowMetrics};

/// Incremental TAPO: push records, get stalls as they end, finish for the
/// full analysis.
#[derive(Debug)]
pub struct StreamAnalyzer {
    cfg: AnalyzerConfig,
    replay: Replay,
    prev_t: Option<SimTime>,
    idx: usize,
    /// Stall candidates, each with its (owned) ending record.
    pending: Vec<Candidate>,
    first_t: Option<SimTime>,
    last_t: Option<SimTime>,
    wire_bytes_out: u64,
    data_pkts_out: u64,
    time_regressions: u64,
}

impl StreamAnalyzer {
    /// A fresh analyzer for one flow.
    pub fn new(cfg: AnalyzerConfig) -> Self {
        StreamAnalyzer {
            cfg,
            replay: Replay::new(cfg.replay),
            prev_t: None,
            idx: 0,
            pending: Vec::new(),
            first_t: None,
            last_t: None,
            wire_bytes_out: 0,
            data_pkts_out: 0,
            time_regressions: 0,
        }
    }

    /// Feed the next captured record (must be in time order). If this
    /// record ends a stall, the stall is returned immediately with a
    /// provisional cause.
    ///
    /// A record whose timestamp runs *backwards* relative to the previous
    /// one is rejected: it is not replayed (a regressed timestamp would
    /// corrupt the reconstructed sender state and could snapshot a bogus
    /// stall candidate) and is instead counted in
    /// [`FlowAnalysis::time_regressions`].
    pub fn push(&mut self, rec: &TraceRecord) -> Option<Stall> {
        self.step(rec, true)
    }

    /// The one per-record step: gap detection, then replay. With
    /// `provisional`, a stall this record ends is classified against the
    /// flow so far, before the record is replayed, and returned;
    /// [`StreamAnalyzer::finish_reset`] classifies every stall again with
    /// complete knowledge either way.
    fn step(&mut self, rec: &TraceRecord, provisional: bool) -> Option<Stall> {
        let mut stall = None;
        if let Some(pt) = self.prev_t {
            if rec.t < pt {
                self.time_regressions += 1;
                self.idx += 1;
                return None;
            }
            if self.replay.established && rec.t.saturating_since(pt) > self.replay.stall_threshold()
            {
                let cand = Candidate {
                    start: pt,
                    end_record: self.idx,
                    snapshot: self.replay.snapshot(),
                    rec: *rec,
                };
                if provisional {
                    stall = Some(classify::classify(&cand, &self.replay, &self.cfg.classify));
                }
                self.pending.push(cand);
            }
        }
        self.replay.process(self.idx, rec);
        if rec.dir == Direction::Out && rec.has_data() {
            self.wire_bytes_out += rec.len as u64;
            self.data_pkts_out += 1;
        }
        self.first_t.get_or_insert(rec.t);
        self.last_t = Some(rec.t);
        self.prev_t = Some(rec.t);
        self.idx += 1;
        stall
    }

    /// Rewind the analyzer to a fresh state for the next flow under `cfg`,
    /// keeping all backing storage (the replay's flat maps and vectors, the
    /// pending-stall buffer). A reset analyzer fed a trace produces
    /// bit-identical output to a new analyzer fed the same trace.
    pub fn reset_for(&mut self, cfg: AnalyzerConfig) {
        self.cfg = cfg;
        self.replay.reset(cfg.replay);
        self.prev_t = None;
        self.idx = 0;
        self.pending.clear();
        self.first_t = None;
        self.last_t = None;
        self.wire_bytes_out = 0;
        self.data_pkts_out = 0;
        self.time_regressions = 0;
    }

    /// A fresh analyzer that adopts light-tier estimates
    /// ([`crate::live::MonitorSeed`]) as its starting state — the promotion
    /// path of two-tier monitoring. The seeded SRTT keeps the stall
    /// threshold meaningful from the first post-promotion gap (instead of
    /// falling back to the initial RTO), and the seeded stream offsets make
    /// re-sent pre-promotion segments classify as retransmissions.
    pub fn seeded(cfg: AnalyzerConfig, seed: &crate::live::MonitorSeed) -> Self {
        let mut analyzer = Self::new(cfg);
        analyzer.replay.seed(seed);
        analyzer
    }

    /// Close the flow and produce the full (offline-equivalent) analysis.
    pub fn finish(mut self) -> FlowAnalysis {
        self.finish_reset()
    }

    /// Like [`StreamAnalyzer::finish`], but in place: produce the analysis
    /// and leave the analyzer reset (storage retained) for the next flow —
    /// the recycling entry point workers use between flows.
    pub fn finish_reset(&mut self) -> FlowAnalysis {
        let replay = &mut self.replay;
        replay.finish();
        let stalls: Vec<Stall> = self
            .pending
            .iter()
            .map(|cand| classify::classify(cand, replay, &self.cfg.classify))
            .collect();
        let duration = match (self.first_t, self.last_t) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => SimDuration::ZERO,
        };
        let goodput = replay.snd_nxt();
        let mean = |v: &[SimDuration]| {
            (!v.is_empty()).then(|| {
                SimDuration::from_micros(
                    v.iter().map(|d| d.as_micros()).sum::<u64>() / v.len() as u64,
                )
            })
        };
        let metrics = FlowMetrics {
            duration,
            stalled_time: stalls
                .iter()
                .fold(SimDuration::ZERO, |acc, s| acc + s.duration),
            goodput_bytes: goodput,
            wire_bytes_out: self.wire_bytes_out,
            data_pkts_out: self.data_pkts_out,
            retrans_pkts: replay.retrans_events.len() as u64,
            mean_rtt: mean(&replay.rtt_samples),
            mean_rto: mean(&replay.rto_samples),
            avg_speed_bps: if duration.is_zero() {
                0.0
            } else {
                goodput as f64 / duration.as_secs_f64()
            },
        };
        let analysis = FlowAnalysis {
            stalls,
            metrics,
            rtt_samples: std::mem::take(&mut replay.rtt_samples),
            rto_samples: std::mem::take(&mut replay.rto_samples),
            in_flight_on_ack: std::mem::take(&mut replay.in_flight_on_ack),
            init_rwnd: replay.init_rwnd,
            zero_rwnd_seen: replay.zero_rwnd_seen,
            time_regressions: self.time_regressions,
        };
        self.reset_for(self.cfg);
        analysis
    }
}

/// Lets a flow simulator stream records straight into the analyzer,
/// skipping trace materialization entirely. Stalls are only detected
/// here, not classified; call [`StreamAnalyzer::finish`] for the
/// offline-equivalent analysis.
impl RecordSink for StreamAnalyzer {
    fn record(&mut self, rec: &TraceRecord) {
        self.step(rec, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_flow;
    use tcp_trace::flow::FlowTrace;

    fn sample_trace() -> FlowTrace {
        let mut t = FlowTrace::default();
        t.push(TraceRecord::data(
            SimTime::from_millis(0),
            Direction::In,
            0,
            300,
            0,
            1 << 20,
        ));
        t.push(TraceRecord::data(
            SimTime::from_millis(1500),
            Direction::Out,
            0,
            1448,
            300,
            1 << 20,
        ));
        t.push(TraceRecord::pure_ack(
            SimTime::from_millis(1600),
            Direction::In,
            1448,
            1 << 20,
        ));
        // Tail loss repaired by a timeout.
        t.push(TraceRecord::data(
            SimTime::from_millis(1601),
            Direction::Out,
            1448,
            1448,
            300,
            1 << 20,
        ));
        t.push(TraceRecord::data(
            SimTime::from_millis(2400),
            Direction::Out,
            1448,
            1448,
            300,
            1 << 20,
        ));
        t.push(TraceRecord::pure_ack(
            SimTime::from_millis(2500),
            Direction::In,
            2896,
            1 << 20,
        ));
        t
    }

    #[test]
    fn streaming_emits_stalls_as_they_end() {
        let trace = sample_trace();
        let mut an = StreamAnalyzer::new(AnalyzerConfig::default());
        let mut live = Vec::new();
        for rec in &trace.records {
            if let Some(stall) = an.push(rec) {
                live.push(stall);
            }
        }
        assert_eq!(
            live.len(),
            2,
            "data-unavailable and tail stalls surface live"
        );
        let offline = an.finish();
        assert_eq!(offline.stalls.len(), 2);
    }

    #[test]
    fn recycled_analyzer_matches_fresh_per_flow() {
        // finish_reset must leave the analyzer indistinguishable from new:
        // feeding the same traces through one recycled analyzer and through
        // fresh analyzers must agree field-for-field (run the stall-bearing
        // sample trace twice so retained capacity is actually exercised).
        let trace = sample_trace();
        let mut recycled = StreamAnalyzer::new(AnalyzerConfig::default());
        for _ in 0..3 {
            let mut fresh = StreamAnalyzer::new(AnalyzerConfig::default());
            for rec in &trace.records {
                recycled.push(rec);
                fresh.push(rec);
            }
            let a = recycled.finish_reset();
            let b = fresh.finish();
            assert_eq!(a.stalls, b.stalls);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.rtt_samples, b.rtt_samples);
            assert_eq!(a.rto_samples, b.rto_samples);
            assert_eq!(a.in_flight_on_ack, b.in_flight_on_ack);
            assert_eq!(a.init_rwnd, b.init_rwnd);
            assert_eq!(a.zero_rwnd_seen, b.zero_rwnd_seen);
        }
    }

    #[test]
    fn out_of_order_records_are_skipped_and_flagged() {
        // Inject a record whose timestamp runs backwards mid-trace. Before
        // the guard, `saturating_since` silently turned the regression into
        // a zero gap and the record perturbed the replayed state; now both
        // paths skip it, flag it, and still agree with the clean trace.
        let clean = sample_trace();
        let mut dirty = FlowTrace::default();
        for (i, rec) in clean.records.iter().enumerate() {
            dirty.records.push(*rec);
            if i == 3 {
                // A stale duplicate of the first data record, 2.4s late.
                let mut stale = clean.records[1];
                stale.t = SimTime::from_millis(1);
                dirty.records.push(stale);
            }
        }
        let offline_clean = analyze_flow(&clean, AnalyzerConfig::default());
        let offline_dirty = analyze_flow(&dirty, AnalyzerConfig::default());
        assert_eq!(offline_dirty.time_regressions, 1);
        // The skipped record still occupies a trace index, so `end_record`
        // shifts by one past the injection point; every semantic field of
        // every stall must be unchanged.
        assert_eq!(offline_clean.stalls.len(), offline_dirty.stalls.len());
        for (c, d) in offline_clean.stalls.iter().zip(&offline_dirty.stalls) {
            assert_eq!((c.start, c.end, c.duration), (d.start, d.end, d.duration));
            assert_eq!(c.cause, d.cause);
            assert_eq!(c.snapshot, d.snapshot);
        }
        assert_eq!(
            offline_clean.metrics.duration,
            offline_dirty.metrics.duration
        );
        assert_eq!(
            offline_clean.metrics.wire_bytes_out,
            offline_dirty.metrics.wire_bytes_out
        );

        let mut an = StreamAnalyzer::new(AnalyzerConfig::default());
        for rec in &dirty.records {
            let live = an.push(rec);
            if rec.t == SimTime::from_millis(1) {
                assert!(live.is_none(), "a regressed record must not end a stall");
            }
        }
        let streamed = an.finish();
        assert_eq!(streamed.time_regressions, 1);
        assert_eq!(streamed.stalls, offline_dirty.stalls);
        assert_eq!(streamed.metrics, offline_dirty.metrics);
    }

    #[test]
    fn seeded_analyzer_keeps_the_light_tiers_stall_threshold() {
        // A promoted flow's first post-promotion gap must be judged by the
        // light tier's RTT estimate, not the initial RTO. Seed 50 ms SRTT:
        // threshold = min(2·SRTT, RTO) = 100 ms, so a 150 ms ACK silence
        // with data in flight is a stall. A cold (unseeded) analyzer has
        // no sample yet and falls back to the 1 s initial RTO — the same
        // gap passes unnoticed there.
        let seed = crate::live::MonitorSeed {
            srtt_us: 50_000,
            rttvar_us: 25_000,
            has_rtt: true,
            snd_una: 1000,
            snd_nxt: 2000,
            last_rwnd: 1 << 20,
            init_rwnd: Some(1 << 20),
            established: true,
            zero_rwnd_seen: true,
        };
        let post = [
            TraceRecord::data(
                SimTime::from_millis(0),
                Direction::Out,
                2000,
                1000,
                0,
                1 << 20,
            ),
            TraceRecord::pure_ack(SimTime::from_millis(150), Direction::In, 3000, 1 << 20),
        ];

        let mut seeded = StreamAnalyzer::seeded(AnalyzerConfig::default(), &seed);
        let mut live = Vec::new();
        for rec in &post {
            if let Some(s) = seeded.push(rec) {
                live.push(s);
            }
        }
        assert_eq!(live.len(), 1, "the seeded threshold must flag the gap");
        assert_eq!(live[0].duration, SimDuration::from_millis(150));
        let analysis = seeded.finish();
        assert_eq!(analysis.stalls.len(), 1);
        assert!(
            analysis.zero_rwnd_seen,
            "light-tier zero-window history survives promotion"
        );
        assert_eq!(analysis.init_rwnd, Some(1 << 20));

        let mut cold = StreamAnalyzer::new(AnalyzerConfig::default());
        for rec in &post {
            assert!(
                cold.push(rec).is_none(),
                "the initial-RTO threshold must not flag a 150 ms gap"
            );
        }
        assert_eq!(cold.finish().stalls.len(), 0);
    }

    #[test]
    fn finish_matches_offline_analysis() {
        let trace = sample_trace();
        let offline = analyze_flow(&trace, AnalyzerConfig::default());
        let mut an = StreamAnalyzer::new(AnalyzerConfig::default());
        for rec in &trace.records {
            an.push(rec);
        }
        let streamed = an.finish();
        assert_eq!(offline.stalls, streamed.stalls);
        assert_eq!(offline.metrics, streamed.metrics);
        assert_eq!(offline.init_rwnd, streamed.init_rwnd);
        assert_eq!(offline.rtt_samples, streamed.rtt_samples);
    }
}
