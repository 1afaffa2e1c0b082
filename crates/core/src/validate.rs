//! Validating TAPO against the simulator's ground truth.
//!
//! The simulator can label every cause event it executes (link drops, delay
//! bursts, zero windows, client think times, backend fetches, timer
//! firings) with flow-time stamps — see `tcp_trace::oracle`. This module
//! aligns those labels with the stalls TAPO detects and scores the
//! classifier: for each detected stall, the ground-truth cause events
//! overlapping the stall window determine the *expected* class, and a
//! confusion matrix accumulates expected-vs-predicted counts at stall-class
//! granularity and — for timeout-retransmission stalls — at the Table-5
//! subclass granularity.
//!
//! The oracle is authoritative about *what the simulator did*, not about
//! what a trace-only tool could possibly infer; the scores therefore bound
//! TAPO's accuracy from the inside, which is exactly what a regression gate
//! needs (a classifier change that degrades agreement with ground truth
//! fails the gate even if every unit test still passes).

use simnet::time::SimTime;
use tcp_trace::oracle::{CauseEvent, CauseKind, RtoContext};

use crate::causes::{RetransClass, StallClass};
use crate::classify::{decide, ClassifyConfig, Evidence, Stall};
use crate::StallCause;

/// A dense 7×7 confusion matrix over one of the paper's taxonomies.
/// Rows are ground truth, columns are TAPO's prediction; indices follow
/// [`StallClass::index`] / [`RetransClass::index`] (table order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// `cells[truth][predicted]` — counts of scored stalls.
    pub cells: [[u64; 7]; 7],
}

impl Confusion {
    /// Record one truth/prediction pair.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        self.cells[truth][predicted] += 1;
    }

    /// Sum of all cells.
    pub fn total(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }

    /// Sum of the diagonal (correct predictions).
    pub fn correct(&self) -> u64 {
        (0..7).map(|i| self.cells[i][i]).sum()
    }

    /// Overall accuracy (`None` when nothing was scored).
    pub fn accuracy(&self) -> Option<f64> {
        let t = self.total();
        (t > 0).then(|| self.correct() as f64 / t as f64)
    }

    /// Precision of class `i`: diagonal over column sum (`None` when the
    /// class was never predicted).
    pub fn precision(&self, i: usize) -> Option<f64> {
        let col: u64 = (0..7).map(|r| self.cells[r][i]).sum();
        (col > 0).then(|| self.cells[i][i] as f64 / col as f64)
    }

    /// Recall of class `i`: diagonal over row sum (`None` when the class
    /// never occurred in ground truth).
    pub fn recall(&self, i: usize) -> Option<f64> {
        let row: u64 = self.cells[i].iter().sum();
        (row > 0).then(|| self.cells[i][i] as f64 / row as f64)
    }

    /// Element-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &Confusion) {
        for r in 0..7 {
            for c in 0..7 {
                self.cells[r][c] += other.cells[r][c];
            }
        }
    }
}

/// Accumulated validation scores: the stall-class matrix, the Table-5
/// retransmission-subclass matrix, and bookkeeping counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Expected vs. predicted at stall-class granularity, one count per
    /// detected stall.
    pub stall_matrix: Confusion,
    /// Expected vs. predicted at Table-5 subclass granularity. Filled only
    /// for stalls where ground truth is a timer firing with captured
    /// context AND TAPO predicted a retransmission stall — the subclass
    /// question is only well-posed when both sides agree a timeout
    /// retransmission happened.
    pub retrans_matrix: Confusion,
    /// Flows scored.
    pub flows: u64,
    /// Stalls scored (== `stall_matrix.total()`).
    pub stalls: u64,
}

impl ValidationReport {
    /// Score every stall of one analyzed flow against that flow's oracle
    /// event stream, accumulating into the matrices.
    pub fn score_flow(&mut self, stalls: &[Stall], oracle: &[CauseEvent]) {
        self.flows += 1;
        for stall in stalls {
            let (truth, truth_sub) = expected_cause(oracle, stall.start, stall.end);
            let predicted = stall.cause.class();
            self.stall_matrix.record(truth.index(), predicted.index());
            self.stalls += 1;
            if let (Some(sub), StallCause::Retransmission(rc)) = (truth_sub, stall.cause) {
                if predicted == StallClass::Retransmission {
                    self.retrans_matrix.record(sub.index(), rc.class().index());
                }
            }
        }
    }

    /// Accumulate `other` into `self` (parallel-fold support).
    pub fn merge(&mut self, other: &ValidationReport) {
        self.stall_matrix.merge(&other.stall_matrix);
        self.retrans_matrix.merge(&other.retrans_matrix);
        self.flows += other.flows;
        self.stalls += other.stalls;
    }
}

/// The ground-truth stall class (and, when the truth is a timer firing with
/// captured sender context, the Table-5 subclass) for a stall spanning
/// `[start, end]`, derived from the oracle events overlapping that window.
///
/// When several cause kinds overlap the same stall, the most *specific*
/// wins, mirroring how the conditions causally dominate one another:
/// zero-window backpressure silences the sender outright; a timer firing
/// inside the window means the gap *was* a timeout; client idleness and
/// application-supply gaps explain silence at the endpoints; a data-segment
/// drop explains a retransmission even if the firing itself fell outside
/// the detected window; and a delay burst or ACK drop alone merely delays
/// packets.
pub fn expected_cause(
    oracle: &[CauseEvent],
    start: SimTime,
    end: SimTime,
) -> (StallClass, Option<RetransClass>) {
    let mut zero_window = false;
    let mut rto: Option<(SimTime, RtoContext)> = None;
    let mut client_idle = false;
    let mut data_unavailable = false;
    let mut resource_constraint = false;
    let mut drop_data = false;
    let mut probe = false;
    let mut delay = false;
    for ev in oracle.iter().filter(|e| e.overlaps(start, end)) {
        match ev.kind {
            CauseKind::ZeroWindow | CauseKind::WindowProbe => zero_window = true,
            CauseKind::RtoFired(ctx) => {
                // Keep the latest firing in the window: it ended the gap. A
                // firing at `start` began the gap, and its context, taken
                // before that tick, predates the retransmission it sent.
                if rto.is_none_or(|(at, _)| ev.start >= at) {
                    rto = Some((ev.start, ctx));
                }
            }
            CauseKind::ClientIdle => client_idle = true,
            CauseKind::DataUnavailable => data_unavailable = true,
            CauseKind::ResourceConstraint => resource_constraint = true,
            CauseKind::LinkDropData { .. } => drop_data = true,
            CauseKind::ProbeFired => probe = true,
            CauseKind::DelayBurst | CauseKind::LinkDropAck => delay = true,
        }
    }
    if zero_window {
        (StallClass::ZeroWindow, None)
    } else if let Some((_, ctx)) = rto {
        let cause = decide(&truth_evidence(&ctx), &ClassifyConfig::default());
        let sub = match cause {
            StallCause::Retransmission(rc) => Some(rc.class()),
            _ => None,
        };
        (cause.class(), sub)
    } else if client_idle {
        (StallClass::ClientIdle, None)
    } else if data_unavailable {
        (StallClass::DataUnavailable, None)
    } else if resource_constraint {
        (StallClass::ResourceConstraint, None)
    } else if drop_data || probe {
        // A data drop (or a probe-timer firing) with no RTO captured in the
        // window: loss-induced, but without sender context for a subclass.
        (StallClass::Retransmission, None)
    } else if delay {
        (StallClass::PacketDelay, None)
    } else {
        (StallClass::Undetermined, None)
    }
}

/// The decision-tree evidence of a timer firing, read from the *actual*
/// sender state captured the instant before the timer fired instead of a
/// reconstruction: the packet ending the gap is a timeout retransmission
/// of the scoreboard head, its data was delivered unless the link dropped
/// it, and the flight is everything outstanding. `feedback` stays false:
/// the oracle calls any dropped head in a window of ≥ 4 continuous loss.
pub fn truth_evidence(ctx: &RtoContext) -> Evidence {
    Evidence {
        data: true,
        nth: 1 + ctx.head_retransmitted as u32,
        first_was_fast: ctx.first_retrans_fast,
        delivered: !ctx.head_dropped,
        tail: ctx.head_is_tail,
        flight: ctx.packets_out,
        window: ctx.packets_out,
        rwnd_limited: ctx.rwnd_limited,
        ..Evidence::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{EstCaState, Snapshot};
    use crate::RetransCause;
    use simnet::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ctx() -> RtoContext {
        RtoContext {
            head_seq: 0,
            head_len: 1448,
            head_retransmitted: false,
            first_retrans_fast: false,
            head_is_tail: false,
            packets_out: 8,
            rwnd_limited: false,
            head_dropped: true,
        }
    }

    fn stall(start_ms: u64, end_ms: u64, cause: StallCause) -> Stall {
        Stall {
            start: t(start_ms),
            end: t(end_ms),
            duration: SimDuration::from_millis(end_ms - start_ms),
            end_record: 0,
            cause,
            snapshot: Snapshot {
                ca_state: EstCaState::Open,
                packets_out: 0,
                sacked_out: 0,
                retrans_out: 0,
                lost_est: 0,
                holes: 0,
                in_flight: 0,
                rwnd: 65535,
                dupacks: 0,
            },
            rel_position: 0.0,
        }
    }

    #[test]
    fn priority_prefers_specific_causes() {
        // Zero window beats everything else in the window.
        let evs = vec![
            CauseEvent::span(t(100), t(900), CauseKind::ZeroWindow),
            CauseEvent::at(t(500), CauseKind::RtoFired(ctx())),
            CauseEvent::span(t(0), t(2000), CauseKind::DelayBurst),
        ];
        assert_eq!(
            expected_cause(&evs, t(200), t(800)).0,
            StallClass::ZeroWindow
        );
        // A timer firing beats idleness and drops.
        let evs = vec![
            CauseEvent::at(t(500), CauseKind::RtoFired(ctx())),
            CauseEvent::span(t(100), t(900), CauseKind::ClientIdle),
            CauseEvent::at(t(300), CauseKind::LinkDropData { seq: 0, len: 1448 }),
        ];
        let (cls, sub) = expected_cause(&evs, t(200), t(800));
        assert_eq!(cls, StallClass::Retransmission);
        assert_eq!(sub, Some(RetransClass::ContinuousLoss));
        // Events outside the window don't count.
        let evs = vec![CauseEvent::at(t(50), CauseKind::RtoFired(ctx()))];
        assert_eq!(
            expected_cause(&evs, t(200), t(800)).0,
            StallClass::Undetermined
        );
        // A bare delay burst is packet delay.
        let evs = vec![CauseEvent::span(t(100), t(900), CauseKind::DelayBurst)];
        assert_eq!(
            expected_cause(&evs, t(200), t(800)).0,
            StallClass::PacketDelay
        );
    }

    #[test]
    fn the_firing_that_ends_the_gap_is_the_truth() {
        // A gap between two timeout retransmissions of the same head: the
        // firing at `start` sent the first and still saw the head never
        // retransmitted; the firing at `end` sent the second. The stall is
        // a double retransmission.
        let evs = vec![
            CauseEvent::at(t(200), CauseKind::RtoFired(ctx())),
            CauseEvent::at(
                t(800),
                CauseKind::RtoFired(RtoContext {
                    head_retransmitted: true,
                    ..ctx()
                }),
            ),
        ];
        let want = (
            StallClass::Retransmission,
            Some(RetransClass::DoubleRetrans),
        );
        assert_eq!(expected_cause(&evs, t(200), t(800)), want);
        let reversed: Vec<_> = evs.iter().rev().copied().collect();
        assert_eq!(expected_cause(&reversed, t(200), t(800)), want);
    }

    #[test]
    fn retrans_truth_follows_table5_rules() {
        let truth = |c: RtoContext| match decide(&truth_evidence(&c), &ClassifyConfig::default()) {
            StallCause::Retransmission(rc) => rc.class(),
            other => panic!("a timer firing decided {other:?}"),
        };
        let c = ctx();
        assert_eq!(truth(c), RetransClass::ContinuousLoss);
        assert_eq!(
            truth(RtoContext {
                head_retransmitted: true,
                ..c
            }),
            RetransClass::DoubleRetrans
        );
        assert_eq!(
            truth(RtoContext {
                head_dropped: false,
                ..c
            }),
            RetransClass::AckDelayLoss
        );
        assert_eq!(
            truth(RtoContext {
                head_is_tail: true,
                ..c
            }),
            RetransClass::TailRetrans
        );
        assert_eq!(
            truth(RtoContext {
                packets_out: 2,
                ..c
            }),
            RetransClass::SmallCwnd
        );
        assert_eq!(
            truth(RtoContext {
                packets_out: 2,
                rwnd_limited: true,
                ..c
            }),
            RetransClass::SmallRwnd
        );
    }

    #[test]
    fn report_fills_both_matrices_and_merges() {
        let mut a = ValidationReport::default();
        let evs = vec![CauseEvent::at(t(500), CauseKind::RtoFired(ctx()))];
        // Predicted retransmission/continuous-loss: diagonal in both.
        a.score_flow(
            &[stall(
                200,
                800,
                StallCause::Retransmission(RetransCause::ContinuousLoss),
            )],
            &evs,
        );
        // Predicted client idle against retransmission truth: off-diagonal
        // at stall level, no retrans-matrix entry.
        a.score_flow(&[stall(200, 800, StallCause::ClientIdle)], &evs);
        let ri = StallClass::Retransmission.index();
        assert_eq!(a.stall_matrix.cells[ri][ri], 1);
        assert_eq!(a.stall_matrix.cells[ri][StallClass::ClientIdle.index()], 1);
        assert_eq!(a.retrans_matrix.total(), 1);
        let ci = RetransClass::ContinuousLoss.index();
        assert_eq!(a.retrans_matrix.cells[ci][ci], 1);
        assert_eq!(a.stall_matrix.precision(ri), Some(1.0));
        assert_eq!(a.stall_matrix.recall(ri), Some(0.5));
        assert_eq!(a.flows, 2);
        assert_eq!(a.stalls, 2);

        let mut b = ValidationReport::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.stalls, 4);
        assert_eq!(b.stall_matrix.total(), 4);
        assert_eq!(b.stall_matrix.accuracy(), Some(0.5));
    }
}
