//! # tapo — TCP stall diagnosis from server-side packet traces
//!
//! The primary contribution of *"Demystifying and Mitigating TCP Stalls at
//! the Server Side"* (Zhou et al., CoNEXT 2015): given a packet-level trace
//! captured at a server, TAPO
//!
//! 1. **reconstructs** the sender's TCP state by mimicking the stack
//!    against the observed packets ([`replay`] — every parameter of the
//!    paper's Table 2),
//! 2. **detects stalls** — inter-packet gaps exceeding
//!    `min(2·SRTT, RTO)` ([`classify`]),
//! 3. **classifies** each stall's root cause with the Fig. 5 decision tree,
//!    breaking timeout-retransmission stalls down by the Table 5 rules
//!    ([`causes`]), and
//! 4. **aggregates** across flows into the paper's tables and figures
//!    ([`report`]).
//!
//! ```
//! use tapo::{analyze_flow, AnalyzerConfig};
//! use tcp_trace::{FlowTrace, TraceRecord, Direction};
//! use simnet::time::SimTime;
//!
//! let mut trace = FlowTrace::default();
//! trace.push(TraceRecord::data(SimTime::from_millis(0), Direction::In, 0, 300, 0, 65535));
//! trace.push(TraceRecord::data(SimTime::from_millis(1500), Direction::Out, 0, 1448, 300, 65535));
//! trace.push(TraceRecord::pure_ack(SimTime::from_millis(1600), Direction::In, 1448, 65535));
//! let analysis = analyze_flow(&trace, AnalyzerConfig::default());
//! assert_eq!(analysis.stalls.len(), 1); // a data-unavailable stall
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advise;
pub mod causes;
pub mod classify;
pub mod fleet;
pub mod json;
pub mod live;
pub mod replay;
pub mod report;
pub mod sink;
pub mod stream;
pub mod summary;
pub mod validate;

pub use advise::{
    advise, advise_from_reports, parse_observations, AdviseConfig, AdviseError, MechanismEffect,
    Observations, ServiceAdvice, ServiceObserved,
};
pub use causes::{RetransCause, RetransClass, StallCategory, StallCause, StallClass};
pub use classify::{ClassifyConfig, Stall};
pub use fleet::{
    aggregate, read_report_files, read_reports, DriftConfig, FleetAlert, FleetConfig, FleetError,
    FleetInterval, FleetOutcome, FleetSummary, QSketch,
};
pub use live::{
    FlowMonitor, IntervalReport, LiveConfig, LiveConfigError, LiveSummary, MonitorSeed, TierConfig,
};
pub use replay::{EstCaState, Replay, ReplayConfig, RetransKind, Snapshot};
pub use report::{CauseStats, Cdf, Share, StallBreakdown};
pub use sink::{csv_escape, csv_fields, CsvSink, JsonLinesSink, Record, ReportSink};
pub use stream::StreamAnalyzer;
pub use summary::FlowSummary;
pub use validate::{Confusion, ValidationReport};

use simnet::time::SimDuration;
use tcp_trace::flow::FlowTrace;
use tcp_trace::record::RecordSink;

/// Analyzer configuration: replay assumptions plus classifier thresholds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyzerConfig {
    /// Trace-replay parameters (MSS, dupthres, RTO bounds).
    pub replay: ReplayConfig,
    /// Decision-tree thresholds.
    pub classify: ClassifyConfig,
}

/// Flow-level metrics feeding Table 1 and Figures 1 & 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowMetrics {
    /// Trace span (first to last packet).
    pub duration: SimDuration,
    /// Sum of detected stall durations.
    pub stalled_time: SimDuration,
    /// Unique response bytes (highest outbound offset).
    pub goodput_bytes: u64,
    /// Outbound payload bytes on the wire (including retransmissions).
    pub wire_bytes_out: u64,
    /// Outbound data packets (including retransmissions).
    pub data_pkts_out: u64,
    /// Retransmitted outbound data packets.
    pub retrans_pkts: u64,
    /// Mean of the flow's RTT samples.
    pub mean_rtt: Option<SimDuration>,
    /// Mean RTO across the flow's timeout retransmissions.
    pub mean_rto: Option<SimDuration>,
    /// Goodput in bytes/second over the trace span.
    pub avg_speed_bps: f64,
}

/// The result of analyzing one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAnalysis {
    /// Detected and classified stalls, in time order.
    pub stalls: Vec<Stall>,
    /// Flow-level metrics.
    pub metrics: FlowMetrics,
    /// Raw RTT samples (never-retransmitted segments).
    pub rtt_samples: Vec<SimDuration>,
    /// RTO estimates recorded at each timeout retransmission.
    pub rto_samples: Vec<SimDuration>,
    /// `in_flight` recorded on each inbound ACK (Fig. 11).
    pub in_flight_on_ack: Vec<u32>,
    /// Initial receive window from the client's SYN.
    pub init_rwnd: Option<u64>,
    /// Whether any inbound ACK advertised a zero window.
    pub zero_rwnd_seen: bool,
    /// Records rejected because their timestamp ran *backwards* relative
    /// to the previous record. A capture is expected to be time-ordered;
    /// regressed records are skipped (they would otherwise snapshot bogus
    /// stall candidates) and counted here so callers can flag the capture.
    pub time_regressions: u64,
}

impl FlowAnalysis {
    /// Ratio of stalled time to the flow's transmission time (Fig. 3).
    pub fn stall_ratio(&self) -> f64 {
        let d = self.metrics.duration.as_secs_f64();
        if d <= 0.0 {
            0.0
        } else {
            (self.metrics.stalled_time.as_secs_f64() / d).min(1.0)
        }
    }
}

/// Recyclable offline-analysis arenas: one [`StreamAnalyzer`] that
/// [`analyze_flow_with`] rewinds and reuses across flows, so a worker
/// analyzing a corpus stops paying a fresh allocation round per trace.
#[derive(Debug)]
pub struct AnalyzeScratch(StreamAnalyzer);

impl Default for AnalyzeScratch {
    fn default() -> Self {
        AnalyzeScratch(StreamAnalyzer::new(AnalyzerConfig::default()))
    }
}

impl AnalyzeScratch {
    /// Fresh arenas with no retained capacity yet.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Analyze one flow trace end to end: replay, detect stalls, classify.
pub fn analyze_flow(trace: &FlowTrace, cfg: AnalyzerConfig) -> FlowAnalysis {
    analyze_flow_with(trace, cfg, &mut AnalyzeScratch::default())
}

/// [`analyze_flow`] against caller-provided arenas: `scratch` is fully
/// rewound on entry (so results are bit-identical to the fresh-state path)
/// and its storage is reused across calls.
pub fn analyze_flow_with(
    trace: &FlowTrace,
    cfg: AnalyzerConfig,
    scratch: &mut AnalyzeScratch,
) -> FlowAnalysis {
    let analyzer = &mut scratch.0;
    analyzer.reset_for(cfg);
    for rec in &trace.records {
        analyzer.record(rec);
    }
    analyzer.finish_reset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use tcp_trace::record::{Direction, TraceRecord};

    #[test]
    fn metrics_account_stall_ratio_and_speed() {
        let mut trace = FlowTrace::default();
        trace.push(TraceRecord::data(
            SimTime::from_millis(0),
            Direction::In,
            0,
            300,
            0,
            65535,
        ));
        trace.push(TraceRecord::data(
            SimTime::from_millis(2000),
            Direction::Out,
            0,
            1448,
            300,
            65535,
        ));
        trace.push(TraceRecord::pure_ack(
            SimTime::from_millis(2100),
            Direction::In,
            1448,
            65535,
        ));
        let a = analyze_flow(&trace, AnalyzerConfig::default());
        assert_eq!(a.stalls.len(), 1);
        assert_eq!(a.metrics.stalled_time, SimDuration::from_millis(2000));
        assert!((a.stall_ratio() - 2000.0 / 2100.0).abs() < 1e-9);
        assert_eq!(a.metrics.goodput_bytes, 1448);
        assert_eq!(a.metrics.data_pkts_out, 1);
        assert_eq!(a.metrics.retrans_pkts, 0);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let a = analyze_flow(&FlowTrace::default(), AnalyzerConfig::default());
        assert!(a.stalls.is_empty());
        assert_eq!(a.stall_ratio(), 0.0);
    }
}
