//! Figure 2: an illustrative flow whose lifetime is dominated by stalls of
//! different kinds (zero window, delay variation, timeouts).
//!
//! The paper picks one real cloud-storage flow; we synthesize a comparable
//! one — a ~400KB transfer to a slow, small-buffer client over a bursty
//! path — and search a few seeds for a flow exhibiting at least a
//! zero-window stall and a long (> 1s) timeout stall.

use simnet::loss::LossSpec;
use simnet::time::SimDuration;
use tapo::{analyze_flow, AnalyzerConfig, FlowAnalysis, Replay, StallCause};
use tcp_sim::recovery::RecoveryMechanism;
use tcp_sim::sim::FlowOutcome;
use tcp_trace::record::Direction;
use workloads::{simulate_flow, FlowSpec, PathSpec};

use crate::output::{Figure, Series};

/// The scenario behind Figure 2.
pub fn fig2_scenario() -> (FlowSpec, PathSpec) {
    let spec = FlowSpec {
        client_buf: 16 * 1024,
        client_drain: Some(120_000),
        ..FlowSpec::response_bytes(400_000)
    };
    let path = PathSpec {
        rtt: SimDuration::from_millis(140),
        jitter: SimDuration::from_millis(40),
        loss: LossSpec::bursty(0.05, SimDuration::from_millis(180)),
        ..PathSpec::default()
    };
    (spec, path)
}

/// Simulate the scenario, choosing a seed whose flow shows the paper's mix
/// of stalls. Returns the outcome, its analysis and the chosen seed.
pub fn fig2_flow() -> (FlowOutcome, FlowAnalysis, u64) {
    let (spec, path) = fig2_scenario();
    let mut best: Option<(FlowOutcome, FlowAnalysis, u64, usize)> = None;
    for seed in 0..64u64 {
        let out = simulate_flow(&spec, &path, RecoveryMechanism::Native, seed);
        if !out.completed {
            continue;
        }
        let analysis = analyze_flow(&out.trace, AnalyzerConfig::default());
        let has_zero = analysis
            .stalls
            .iter()
            .any(|s| s.cause == StallCause::ZeroWindow);
        let has_long_rto = analysis.stalls.iter().any(|s| {
            matches!(s.cause, StallCause::Retransmission(_))
                && s.duration > SimDuration::from_secs(1)
        });
        let score = analysis.stalls.len();
        if has_zero && has_long_rto {
            return (out, analysis, seed);
        }
        if best.as_ref().is_none_or(|(_, _, _, s)| score > *s) {
            best = Some((out, analysis, seed, score));
        }
    }
    let (out, analysis, seed, _) = best.expect("at least one completed flow");
    (out, analysis, seed)
}

/// Regenerate Figure 2: the sequence-number progression of the flow with
/// one series per data stream plus a series marking stall intervals.
pub fn fig2() -> Figure {
    let (out, analysis, seed) = fig2_flow();
    let seq_points: Vec<(f64, f64)> = out
        .trace
        .records
        .iter()
        .filter(|r| r.dir == Direction::Out && r.has_data())
        .map(|r| (r.t.as_secs_f64(), r.seq_end() as f64))
        .collect();
    // Reconstructed per-sample RTT over time (right axis of the paper's
    // figure); x positions spread over the samples. The analysis keeps
    // only their distribution, so replay the flow again for their order.
    let mut replay = Replay::new(AnalyzerConfig::default().replay);
    let rtt_points: Vec<(f64, f64)> = out
        .trace
        .records
        .iter()
        .enumerate()
        .filter_map(|(i, rec)| replay.process(i, rec))
        .enumerate()
        .map(|(i, d)| (i as f64, d.as_secs_f64() * 1e3))
        .collect();
    let stall_points: Vec<(f64, f64)> = analysis
        .stalls
        .iter()
        .flat_map(|s| {
            let y = s.snapshot.packets_out as f64;
            [(s.start.as_secs_f64(), y), (s.end.as_secs_f64(), y)]
        })
        .collect();
    Figure {
        id: "fig2".into(),
        title: format!(
            "Illustrative stalled flow (seed {seed}): {} stalls, {:.1}s stalled of {:.1}s",
            analysis.stalls.len(),
            analysis.metrics.stalled_time.as_secs_f64(),
            analysis.metrics.duration.as_secs_f64()
        ),
        x_label: "Time (s)".into(),
        y_label: "Sequence number (bytes) / RTT (ms)".into(),
        series: vec![
            Series {
                name: "seq".into(),
                points: seq_points,
            },
            Series {
                name: "rtt_ms(sample#)".into(),
                points: rtt_points,
            },
            Series {
                name: "stall_intervals".into(),
                points: stall_points,
            },
        ],
    }
}
