//! The TAPO validation gate: score the classifier against the simulator's
//! ground-truth oracle and fail on regression.
//!
//! Every flow is simulated with the oracle side-channel enabled
//! ([`workloads::simulate_flow_oracle_into_scratch`]) while its records
//! stream into TAPO; `tapo::validate` then aligns the ground-truth cause
//! events with the detected stalls into confusion matrices at stall-class
//! and Table-5 retransmission-subclass granularity. The `validation` table
//! (written to `results/validation.csv` by `repro validate`) has a *fixed
//! shape* — every cell of both 7×7 matrices is always emitted — so the CI
//! byte-identity diff covers it, and [`floor_violations`] gates committed
//! minimum scores so a classifier change that degrades agreement with
//! ground truth fails CI even when every unit test still passes.

use tapo::{AnalyzerConfig, RetransClass, StallClass, StreamAnalyzer, ValidationReport};
use tcp_sim::recovery::RecoveryMechanism;
use workloads::{
    sample_flow, simulate_flow_into_scratch, simulate_flow_oracle_into_scratch, FlowScratch,
    Service, ServiceModel,
};

use crate::engine::Engine;
use crate::output::Table;

/// Run the full validation pass: `flows` oracle-labelled flows per service
/// (all three services, native recovery — the stack the paper measured),
/// scored flow-by-flow and folded in index order. Deterministic and
/// bit-identical at any engine thread count.
pub fn run_validation(flows: usize, seed: u64, engine: &Engine) -> ValidationReport {
    let cfg = AnalyzerConfig::default();
    let mut total = ValidationReport::default();
    for service in Service::ALL {
        let model = ServiceModel::calibrated(service);
        let per_flow = engine.map_with(
            flows,
            || (FlowScratch::new(), StreamAnalyzer::new(cfg)),
            |i, (sim, analyzer)| {
                let (spec, path) = sample_flow(&model, seed, i);
                let fseed = seed + i as u64;
                let (out, _) = simulate_flow_oracle_into_scratch(
                    &spec,
                    &path,
                    RecoveryMechanism::Native,
                    fseed,
                    &mut *analyzer,
                    sim,
                );
                let analysis = analyzer.finish_reset();
                let mut r = ValidationReport::default();
                r.score_flow(&analysis.stalls, &out.oracle);
                r
            },
        );
        for r in &per_flow {
            total.merge(r);
        }
    }
    total
}

/// T-RACKs validation: the classifier scored against the oracle on
/// T-RACKs-recovery traffic, plus the paired mechanism benefit — the same
/// flows (identical per-flow seeds) replayed under native recovery so the
/// forced-fast-retransmit stall-time saving is measured on matched pairs,
/// not across populations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TracksValidation {
    /// Confusion matrices for TAPO on T-RACKs traffic.
    pub report: ValidationReport,
    /// Total detected stall time under native recovery (µs).
    pub native_stall_us: u64,
    /// Total detected stall time under T-RACKs on the same flows (µs).
    pub tracks_stall_us: u64,
    /// T-RACKs virtual-timer firings across the population (proves the
    /// mechanism was actually exercised, not merely configured).
    pub forced_entries: u64,
}

impl TracksValidation {
    /// Fractional stall-time reduction vs native (0.05 = 5% less stall
    /// time). `None` when the native runs produced no stall time at all.
    pub fn stall_reduction(&self) -> Option<f64> {
        if self.native_stall_us == 0 {
            return None;
        }
        Some(1.0 - self.tracks_stall_us as f64 / self.native_stall_us as f64)
    }
}

/// Run the T-RACKs validation pass. Two sub-passes, both deterministic at
/// any engine thread count (per-flow results fold in index order):
///
/// 1. **Accuracy** — `flows` oracle-labelled flows per service from the
///    calibrated mixes, simulated under `RecoveryMechanism::tracks()` and
///    scored against the ground-truth oracle. This proves the classifier
///    is not blind on T-RACKs-recovery traffic (forced fast-retransmit
///    entries change the retransmission patterns TAPO keys on).
///
/// 2. **Paired benefit** — a *controlled* grid of `3·flows`
///    request/response flows in the dupack-starved-tail regime T-RACKs
///    exists for, each run under T-RACKs and replayed under native
///    recovery on the same seed. The calibrated mixes are the wrong
///    instrument for a paired benefit floor: one extra (or saved)
///    transmission re-seeds every later loss draw on the path, so a
///    single long cloud flow's diverged trajectory can swing the paired
///    total by ±7% in either direction at quick scale — butterfly noise,
///    not mechanism effect. The same reasoning gave Table 8 its
///    fixed-size "control flow" population (see `mechanism.rs`).
pub fn run_tracks_validation(flows: usize, seed: u64, engine: &Engine) -> TracksValidation {
    let cfg = AnalyzerConfig::default();
    let mut total = TracksValidation::default();
    // Pass 1: classifier accuracy on T-RACKs traffic, calibrated mixes.
    for service in Service::ALL {
        let model = ServiceModel::calibrated(service);
        let per_flow = engine.map_with(
            flows,
            || (FlowScratch::new(), StreamAnalyzer::new(cfg)),
            |i, (sim, analyzer)| {
                let (spec, path) = sample_flow(&model, seed, i);
                let fseed = seed + i as u64;
                let (out, _) = simulate_flow_oracle_into_scratch(
                    &spec,
                    &path,
                    RecoveryMechanism::tracks(),
                    fseed,
                    &mut *analyzer,
                    sim,
                );
                let analysis = analyzer.finish_reset();
                let mut r = ValidationReport::default();
                r.score_flow(&analysis.stalls, &out.oracle);
                (r, out.server_stats.tracks_forced)
            },
        );
        for (r, forced) in &per_flow {
            total.report.merge(r);
            total.forced_entries += forced;
        }
    }
    // Pass 2: paired stall-time benefit on the controlled grid.
    let per_flow = engine.map_with(
        flows * 3,
        || (FlowScratch::new(), StreamAnalyzer::new(cfg)),
        |i, (sim, analyzer)| {
            let rtt_ms = 40 + (i as u64 % 5) * 30;
            let rtt = simnet::time::SimDuration::from_millis(rtt_ms);
            // Eight small responses per flow: each 9–15KB response is
            // 7–11 MSS, so every response tail sits at small
            // `packets_out` where a mid-burst loss draws one or two
            // dupacks and then starves — the exact entry condition of
            // the T-RACKs virtual timer.
            let mut spec = workloads::FlowSpec::response_bytes(0);
            spec.script = tcp_sim::sim::FlowScript {
                requests: (0..8u64)
                    .map(|r| {
                        let mut rq =
                            tcp_sim::sim::RequestSpec::simple(9_000 + ((i as u64 + r) % 3) * 3_000);
                        rq.think_time = simnet::time::SimDuration::from_millis(10);
                        rq
                    })
                    .collect(),
            };
            // I.i.d. (Bernoulli) loss, deliberately not bursty: a loss
            // burst longer than a response's ~12ms wire time drops the
            // whole tail and leaves *zero* dupacks (RTO territory,
            // where T-RACKs never arms). Independent drops produce the
            // partial tails — one hole, one or two survivors behind
            // it — that the virtual timer repairs.
            let path = workloads::PathSpec {
                rtt,
                jitter: simnet::time::SimDuration::from_millis(rtt_ms / 10),
                loss: simnet::loss::LossSpec::bernoulli(0.05),
                bandwidth_bps: 8_000_000,
                queue_pkts: 60,
                ..workloads::PathSpec::default()
            };
            let fseed = seed + i as u64;
            let (tout, _) = simulate_flow_into_scratch(
                &spec,
                &path,
                RecoveryMechanism::tracks(),
                fseed,
                &mut *analyzer,
                sim,
            );
            let tracks_analysis = analyzer.finish_reset();
            let (nout, _) = simulate_flow_into_scratch(
                &spec,
                &path,
                RecoveryMechanism::Native,
                fseed,
                &mut *analyzer,
                sim,
            );
            let native_analysis = analyzer.finish_reset();
            let stall_us = |a: &tapo::FlowAnalysis| {
                a.stalls.iter().map(|s| s.duration.as_micros()).sum::<u64>()
            };
            debug_assert_eq!(nout.server_stats.tracks_forced, 0);
            (
                stall_us(&native_analysis),
                stall_us(&tracks_analysis),
                tout.server_stats.tracks_forced,
            )
        },
    );
    for (native_us, tracks_us, forced) in &per_flow {
        total.native_stall_us += native_us;
        total.tracks_stall_us += tracks_us;
        total.forced_entries += forced;
    }
    total
}

/// Render the T-RACKs validation as its own fixed-shape table
/// (`results/validation_tracks.csv`): always the same 8 rows, so the CI
/// byte-identity diff covers it.
pub fn tracks_validation_table(v: &TracksValidation) -> Table {
    let score = |x: Option<f64>| match x {
        Some(x) => format!("{x:.3}"),
        None => "–".into(),
    };
    let rows = vec![
        vec!["flows scored".into(), v.report.flows.to_string()],
        vec!["stalls scored".into(), v.report.stalls.to_string()],
        vec![
            "stall-class accuracy".into(),
            score(v.report.stall_matrix.accuracy()),
        ],
        vec![
            "retrans-subclass accuracy".into(),
            score(v.report.retrans_matrix.accuracy()),
        ],
        vec![
            "forced fast-retransmits".into(),
            v.forced_entries.to_string(),
        ],
        vec![
            "native stall time (s)".into(),
            format!("{:.3}", v.native_stall_us as f64 / 1e6),
        ],
        vec![
            "T-RACKs stall time (s)".into(),
            format!("{:.3}", v.tracks_stall_us as f64 / 1e6),
        ],
        vec!["stall-time reduction".into(), score(v.stall_reduction())],
    ];
    Table::new(
        "validation_tracks",
        "T-RACKs vs ground-truth oracle: classifier accuracy and paired stall-time benefit",
        vec!["metric".into(), "value".into()],
        rows,
    )
}

/// Render the report as the fixed-shape `validation` table: one row per
/// cell of each confusion matrix (rows are ground truth, columns TAPO's
/// prediction), with per-class precision and recall carried on the
/// diagonal rows.
pub fn validation_table(r: &ValidationReport) -> Table {
    let score = |v: Option<f64>| match v {
        Some(x) => format!("{x:.3}"),
        None => "–".into(),
    };
    let mut rows = Vec::with_capacity(2 + 2 * 49);
    rows.push(vec![
        "summary".into(),
        "flows".into(),
        "scored".into(),
        r.flows.to_string(),
        String::new(),
        String::new(),
    ]);
    rows.push(vec![
        "summary".into(),
        "stalls".into(),
        "scored".into(),
        r.stalls.to_string(),
        score(r.stall_matrix.accuracy()),
        score(r.retrans_matrix.accuracy()),
    ]);
    for truth in StallClass::ALL {
        for pred in StallClass::ALL {
            let diag = truth == pred;
            rows.push(vec![
                "stall".into(),
                truth.label().into(),
                pred.label().into(),
                r.stall_matrix.cells[truth.index()][pred.index()].to_string(),
                if diag {
                    score(r.stall_matrix.precision(pred.index()))
                } else {
                    String::new()
                },
                if diag {
                    score(r.stall_matrix.recall(truth.index()))
                } else {
                    String::new()
                },
            ]);
        }
    }
    for truth in RetransClass::ALL {
        for pred in RetransClass::ALL {
            let diag = truth == pred;
            rows.push(vec![
                "retrans".into(),
                truth.label().into(),
                pred.label().into(),
                r.retrans_matrix.cells[truth.index()][pred.index()].to_string(),
                if diag {
                    score(r.retrans_matrix.precision(pred.index()))
                } else {
                    String::new()
                },
                if diag {
                    score(r.retrans_matrix.recall(truth.index()))
                } else {
                    String::new()
                },
            ]);
        }
    }
    Table::new(
        "validation",
        "TAPO vs ground-truth oracle: confusion matrices (rows = truth, cols = predicted)",
        vec![
            "level".into(),
            "truth".into(),
            "predicted".into(),
            "count".into(),
            "precision".into(),
            "recall".into(),
        ],
        rows,
    )
}

/// Committed minimum scores, measured at quick scale (60 flows/service,
/// seed 2015) with margin below the observed values so seed-level noise at
/// other scales does not trip the gate, while a genuine classifier
/// regression does.
pub mod floors {
    /// Minimum overall stall-class accuracy (observed 0.934 quick).
    pub const STALL_ACCURACY: f64 = 0.80;
    /// Minimum retransmission-subclass accuracy among stalls both sides
    /// call retransmission (observed 0.744 quick).
    pub const RETRANS_ACCURACY: f64 = 0.55;
    /// Minimum recall of retransmission stalls (observed 0.943 quick).
    pub const RETRANS_RECALL: f64 = 0.80;
    /// Minimum recall of zero-window stalls (observed 0.988 quick).
    pub const ZERO_WINDOW_RECALL: f64 = 0.85;
    /// Minimum recall of client-idle stalls (observed 1.000 quick).
    pub const CLIENT_IDLE_RECALL: f64 = 0.85;
    /// Minimum recall of data-unavailable stalls (observed 0.889 quick).
    pub const DATA_UNAVAILABLE_RECALL: f64 = 0.75;
    /// Minimum number of scored stalls for the gate to be meaningful at
    /// all (observed 243 quick).
    pub const MIN_STALLS: u64 = 100;

    // Per-subclass recall floors (Table 5), one for each subclass with at
    // least 5 truth stalls at quick scale, each set at the value observed
    // then minus 0.05. Keeping the latest timer firing as the truth later
    // raised small-cwnd, continuous-loss and ACK-delay recall; the floors
    // stayed. Small rwnd (3 truth stalls) has none.

    /// Minimum recall of double-retransmission stalls (observed 1.000
    /// quick, 21 truth stalls).
    pub const DOUBLE_RETRANS_RECALL: f64 = 0.95;
    /// Minimum recall of tail-retransmission stalls (observed 0.111 quick,
    /// 9 truth stalls): a collapse guard on the weakest cell.
    pub const TAIL_RETRANS_RECALL: f64 = 0.05;
    /// Minimum recall of small-cwnd stalls (observed 0.846 quick, 13 truth
    /// stalls).
    pub const SMALL_CWND_RECALL: f64 = 0.736;
    /// Minimum recall of continuous-loss stalls (observed 0.633 quick, 30
    /// truth stalls).
    pub const CONTINUOUS_LOSS_RECALL: f64 = 0.563;
    /// Minimum recall of ACK-delay/loss stalls (observed 1.000 quick, 6
    /// truth stalls).
    pub const ACK_DELAY_LOSS_RECALL: f64 = 0.807;

    /// Minimum stall-class accuracy on T-RACKs-recovery traffic — the
    /// classifier must not be blind to the stalls a T-RACKs sender still
    /// produces (observed 0.928 quick).
    pub const TRACKS_STALL_ACCURACY: f64 = 0.80;
    /// Minimum paired stall-time reduction of T-RACKs vs native on
    /// identical seeds over the controlled dupack-starved grid
    /// (observed 0.077 quick).
    pub const TRACKS_STALL_REDUCTION: f64 = 0.03;
    /// Minimum virtual-timer firings across the quick population — the
    /// benefit number is meaningless if the mechanism never engaged
    /// (observed 23 quick: 10 on the calibrated mixes, 13 on the grid).
    pub const TRACKS_MIN_FORCED: u64 = 10;
    /// Minimum scored stalls on the T-RACKs runs (observed 223 quick).
    pub const TRACKS_MIN_STALLS: u64 = 80;
}

/// Check the T-RACKs validation against its committed [`floors`]; each
/// violated floor yields one human-readable line.
pub fn tracks_floor_violations(v: &TracksValidation) -> Vec<String> {
    let mut out = Vec::new();
    match v.report.stall_matrix.accuracy() {
        Some(x) if x >= floors::TRACKS_STALL_ACCURACY => {}
        Some(x) => out.push(format!(
            "T-RACKs stall-class accuracy: {x:.3} < floor {:.2}",
            floors::TRACKS_STALL_ACCURACY
        )),
        None => out.push("T-RACKs stall-class accuracy: unscored (no samples)".into()),
    }
    match v.stall_reduction() {
        Some(x) if x >= floors::TRACKS_STALL_REDUCTION => {}
        Some(x) => out.push(format!(
            "T-RACKs stall-time reduction: {x:.3} < floor {:.2}",
            floors::TRACKS_STALL_REDUCTION
        )),
        None => out.push("T-RACKs stall-time reduction: no native stall time to compare".into()),
    }
    if v.forced_entries < floors::TRACKS_MIN_FORCED {
        out.push(format!(
            "T-RACKs forced fast-retransmits {} < minimum {}",
            v.forced_entries,
            floors::TRACKS_MIN_FORCED
        ));
    }
    if v.report.stalls < floors::TRACKS_MIN_STALLS {
        out.push(format!(
            "T-RACKs scored stalls {} < minimum {}",
            v.report.stalls,
            floors::TRACKS_MIN_STALLS
        ));
    }
    out
}

/// Check the report against the committed [`floors`]; each violated floor
/// yields one human-readable line. Empty means the gate passes.
pub fn floor_violations(r: &ValidationReport) -> Vec<String> {
    let mut v = Vec::new();
    let mut need = |name: &str, got: Option<f64>, floor: f64| match got {
        Some(x) if x >= floor => {}
        Some(x) => v.push(format!("{name}: {x:.3} < floor {floor:.3}")),
        None => v.push(format!("{name}: unscored (no samples) < floor {floor:.3}")),
    };
    need(
        "stall-class accuracy",
        r.stall_matrix.accuracy(),
        floors::STALL_ACCURACY,
    );
    need(
        "retrans-subclass accuracy",
        r.retrans_matrix.accuracy(),
        floors::RETRANS_ACCURACY,
    );
    need(
        "retransmission recall",
        r.stall_matrix.recall(StallClass::Retransmission.index()),
        floors::RETRANS_RECALL,
    );
    need(
        "zero-window recall",
        r.stall_matrix.recall(StallClass::ZeroWindow.index()),
        floors::ZERO_WINDOW_RECALL,
    );
    need(
        "client-idle recall",
        r.stall_matrix.recall(StallClass::ClientIdle.index()),
        floors::CLIENT_IDLE_RECALL,
    );
    need(
        "data-unavailable recall",
        r.stall_matrix.recall(StallClass::DataUnavailable.index()),
        floors::DATA_UNAVAILABLE_RECALL,
    );
    for (class, floor) in [
        (RetransClass::DoubleRetrans, floors::DOUBLE_RETRANS_RECALL),
        (RetransClass::TailRetrans, floors::TAIL_RETRANS_RECALL),
        (RetransClass::SmallCwnd, floors::SMALL_CWND_RECALL),
        (RetransClass::ContinuousLoss, floors::CONTINUOUS_LOSS_RECALL),
        (RetransClass::AckDelayLoss, floors::ACK_DELAY_LOSS_RECALL),
    ] {
        need(
            &format!("{} recall", class.label()),
            r.retrans_matrix.recall(class.index()),
            floor,
        );
    }
    if r.stalls < floors::MIN_STALLS {
        v.push(format!(
            "scored stalls {} < minimum {}",
            r.stalls,
            floors::MIN_STALLS
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_is_deterministic_across_thread_counts() {
        let a = run_validation(8, 2015, &Engine::serial());
        let b = run_validation(8, 2015, &Engine::new(4));
        assert_eq!(a, b);
        assert_eq!(validation_table(&a), validation_table(&b));
    }

    #[test]
    fn table_shape_is_fixed() {
        let t = validation_table(&ValidationReport::default());
        assert_eq!(t.id, "validation");
        // 2 summary rows + two full 7×7 matrices.
        assert_eq!(t.rows.len(), 2 + 49 + 49);
        assert!(t.rows.iter().all(|row| row.len() == 6));
    }

    #[test]
    fn tracks_validation_is_deterministic_across_thread_counts() {
        let a = run_tracks_validation(6, 2015, &Engine::serial());
        let b = run_tracks_validation(6, 2015, &Engine::new(4));
        assert_eq!(a, b);
        assert_eq!(tracks_validation_table(&a), tracks_validation_table(&b));
    }

    #[test]
    fn tracks_table_shape_is_fixed() {
        let t = tracks_validation_table(&TracksValidation::default());
        assert_eq!(t.id, "validation_tracks");
        assert_eq!(t.rows.len(), 8);
        assert!(t.rows.iter().all(|row| row.len() == 2));
    }

    #[test]
    fn tail_recall_collapse_violates_its_floor() {
        let mut r = ValidationReport::default();
        let tail = RetransClass::TailRetrans.index();
        r.retrans_matrix.cells[tail][RetransClass::ContinuousLoss.index()] = 10;
        let v = floor_violations(&r);
        assert!(
            v.iter()
                .any(|l| l.starts_with("Tail retr. recall: 0.000 < floor 0.050")),
            "{v:?}"
        );
        r.retrans_matrix.cells[tail][tail] = 1;
        let v = floor_violations(&r);
        assert!(!v.iter().any(|l| l.starts_with("Tail retr.")), "{v:?}");
    }

    #[test]
    fn small_run_scores_sanely() {
        let r = run_validation(10, 2015, &Engine::serial());
        assert!(r.flows == 30, "3 services × 10 flows");
        assert!(r.stalls > 0, "stalls must be detected and scored");
        assert_eq!(r.stall_matrix.total(), r.stalls);
        // The classifier must agree with ground truth more often than not
        // even on a tiny sample.
        assert!(r.stall_matrix.accuracy().unwrap() > 0.5);
    }
}
