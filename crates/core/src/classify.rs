//! Stall detection and the decision-tree root-cause classifier (Fig. 5).
//!
//! A stall is an inter-packet gap at the server — either direction —
//! exceeding `min(τ·SRTT, RTO)` with τ = 2 (§2.2 of the paper). Each stall
//! is attributed to the packet that *ends* it (`cur_pkt`), walking the
//! decision tree:
//!
//! ```text
//! cur_pkt inbound?
//! ├─ carries data (a request)            → client idle
//! ├─ window was zero during the stall    → zero rwnd
//! └─ otherwise (a late ACK, no retrans)  → packet delay
//! cur_pkt outbound data?
//! ├─ retransmission                      → timeout-retransmission subtree
//! ├─ head of a response                  → data unavailable
//! ├─ window was zero                     → zero rwnd
//! └─ otherwise                           → resource constraint
//! cur_pkt outbound pure ACK?
//! ├─ window was zero (persist probe)     → zero rwnd
//! └─ otherwise                           → undetermined
//! ```
//!
//! The retransmission subtree applies the Table 5 rules **in the paper's
//! priority order**: double retransmission → tail retransmission → small
//! cwnd → small rwnd → continuous loss → ACK delay/loss → undetermined.
//!
//! The tree is one pure function, [`decide`], over a plain [`Evidence`]
//! record. TAPO fills the record from its replay of the trace; the
//! ground-truth oracle ([`crate::validate`]) fills the Table-5 part from
//! the simulator's true sender state and calls the same [`decide`], so a
//! disagreement between them is a disagreement about state, never about
//! policy.

use simnet::time::{SimDuration, SimTime};
use tcp_trace::record::{Direction, TraceRecord};

use crate::causes::{RetransCause, StallCause};
use crate::replay::{EstCaState, Replay, RetransKind, Snapshot};

/// Classifier thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifyConfig {
    /// "Small in-flight" bound: below this many packets fast retransmit is
    /// considered infeasible (4 in the paper).
    pub small_in_flight: u32,
    /// Minimum outstanding packets for a continuous-loss verdict (4).
    pub continuous_loss_min: u32,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            small_in_flight: 4,
            continuous_loss_min: 4,
        }
    }
}

/// One detected and classified stall.
#[derive(Debug, Clone, PartialEq)]
pub struct Stall {
    /// Last packet before the gap.
    pub start: SimTime,
    /// The packet ending the stall.
    pub end: SimTime,
    /// `end − start`.
    pub duration: SimDuration,
    /// Index (into the flow trace) of the stall-ending packet.
    pub end_record: usize,
    /// The inferred root cause.
    pub cause: StallCause,
    /// Reconstructed sender state just before the stall-ending packet.
    pub snapshot: Snapshot,
    /// Relative position in the flow's byte stream where the stall-ending
    /// packet sits, in `[0, 1]` (Figs. 7a and 10a).
    pub rel_position: f64,
}

/// A stall candidate captured during replay, before causes are assigned.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub start: SimTime,
    pub end_record: usize,
    pub snapshot: Snapshot,
    /// The packet ending the stall.
    pub rec: TraceRecord,
}

/// Every input of the decision tree, for one stall-ending packet. The
/// fields up to `head` walk Fig. 5, `nth ≥ 1` takes its retransmission
/// branch, and the fields after `nth` walk Table 5 (read only then).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Evidence {
    /// The packet came from the client.
    pub inbound: bool,
    /// It carries payload.
    pub data: bool,
    /// It carries an ACK.
    pub ack: bool,
    /// The peer's advertised window was zero during the stall.
    pub zero_rwnd: bool,
    /// Outbound data that opens a response.
    pub head: bool,
    /// Which retransmission of its segment the packet is (1 = first);
    /// 0 when it is not a retransmission.
    pub nth: u32,
    /// The segment's first retransmission was a fast retransmit.
    pub first_was_fast: bool,
    /// The data had arrived after all (DSACKed): only feedback was late.
    pub delivered: bool,
    /// Too few segments follow it in its response to raise dupthres
    /// dupacks.
    pub tail: bool,
    /// The sender was in Open or Disorder when the stall began.
    pub open_state: bool,
    /// Packets in flight when the stall began.
    pub flight: u64,
    /// Packets outstanding when the stall began.
    pub window: u64,
    /// The receive window, not cwnd, bounded the flight (Eq. 2).
    pub rwnd_limited: bool,
    /// SACKs or dupacks came back for the window before the timeout.
    pub feedback: bool,
}

impl Evidence {
    /// What the replay knows about a candidate's ending packet.
    fn from_replay(cand: &Candidate, replay: &Replay, cfg: &ClassifyConfig) -> Evidence {
        let (rec, snap) = (&cand.rec, &cand.snapshot);
        let mut ev = Evidence {
            inbound: rec.dir == Direction::In,
            data: rec.has_data(),
            ack: rec.flags.ack,
            zero_rwnd: snap.rwnd == 0,
            ..Evidence::default()
        };
        if ev.inbound || !ev.data {
            return ev;
        }
        ev.nth = replay
            .retrans_events
            .iter()
            .find(|e| e.idx == cand.end_record)
            .map_or(0, |e| e.nth);
        if ev.nth == 0 {
            ev.head = replay.is_head(rec.seq);
            return ev;
        }
        let hist = replay.hist.get(rec.seq);
        let mss = replay.config().mss as u64;
        Evidence {
            first_was_fast: hist.is_some_and(|h| h.first_retrans == Some(RetransKind::Fast)),
            // The paper's rules use the trace's *real*, DSACK-corrected
            // loss knowledge (§3.3).
            delivered: hist.is_some_and(|h| h.dsacked),
            tail: replay.is_tail(rec.seq, rec.len),
            open_state: matches!(snap.ca_state, EstCaState::Open | EstCaState::Disorder),
            flight: snap.in_flight.into(),
            window: snap.packets_out.into(),
            rwnd_limited: snap.rwnd < cfg.small_in_flight as u64 * mss,
            feedback: snap.sacked_out > 0 || snap.dupacks > 0,
            ..ev
        }
    }
}

/// Walk Fig. 5, then Table 5 for a timeout retransmission, in the paper's
/// priority order.
pub fn decide(ev: &Evidence, cfg: &ClassifyConfig) -> StallCause {
    if ev.inbound {
        return if ev.data {
            StallCause::ClientIdle
        } else if ev.zero_rwnd {
            StallCause::ZeroWindow
        } else if ev.ack {
            StallCause::PacketDelay
        } else {
            StallCause::Undetermined
        };
    }
    if !ev.data {
        // A persist (zero-window) probe ended the stall.
        return if ev.zero_rwnd {
            StallCause::ZeroWindow
        } else {
            StallCause::Undetermined
        };
    }
    if ev.nth == 0 {
        return if ev.head {
            StallCause::DataUnavailable
        } else if ev.zero_rwnd {
            StallCause::ZeroWindow
        } else {
            StallCause::ResourceConstraint
        };
    }
    // Data proved delivered rules out every loss-based rule below.
    let lost = !ev.delivered;
    StallCause::Retransmission(if ev.nth >= 2 {
        RetransCause::DoubleRetrans {
            first_was_fast: ev.first_was_fast,
        }
    } else if lost && ev.tail {
        RetransCause::TailRetrans {
            open_state: ev.open_state,
        }
    } else if lost && ev.flight < cfg.small_in_flight as u64 {
        // Fast retransmit starved of dupacks: blame the limiting window.
        if ev.rwnd_limited {
            RetransCause::SmallRwnd
        } else {
            RetransCause::SmallCwnd
        }
    } else if lost && ev.window >= cfg.continuous_loss_min as u64 && !ev.feedback {
        // A whole window vanished without any feedback before the timeout.
        RetransCause::ContinuousLoss
    } else if ev.delivered {
        RetransCause::AckDelayLoss
    } else {
        RetransCause::Undetermined
    })
}

/// Classify one candidate using the replay so far (complete at finish).
pub(crate) fn classify(cand: &Candidate, replay: &Replay, cfg: &ClassifyConfig) -> Stall {
    let rec = &cand.rec;
    let denom = replay.snd_nxt().max(1) as f64;
    let rel_position = if rec.dir == Direction::Out && rec.has_data() {
        (rec.seq as f64 / denom).min(1.0)
    } else {
        (replay.snd_una() as f64 / denom).min(1.0)
    };
    Stall {
        start: cand.start,
        end: rec.t,
        duration: rec.t.saturating_since(cand.start),
        end_record: cand.end_record,
        cause: decide(&Evidence::from_replay(cand, replay, cfg), cfg),
        snapshot: cand.snapshot,
        rel_position,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_trace::record::{SackBlock, SegFlags};

    const MSS: u32 = 1448;

    fn out_data(t_ms: u64, seq: u64, len: u32) -> TraceRecord {
        TraceRecord::data(
            SimTime::from_millis(t_ms),
            Direction::Out,
            seq,
            len,
            0,
            1 << 20,
        )
    }

    fn in_ack(t_ms: u64, ack: u64) -> TraceRecord {
        TraceRecord::pure_ack(SimTime::from_millis(t_ms), Direction::In, ack, 1 << 20)
    }

    fn in_req(t_ms: u64, seq: u64) -> TraceRecord {
        TraceRecord::data(
            SimTime::from_millis(t_ms),
            Direction::In,
            seq,
            300,
            0,
            1 << 20,
        )
    }

    /// Run the full pipeline on a hand-written trace.
    fn analyze(recs: Vec<TraceRecord>) -> Vec<Stall> {
        let trace = tcp_trace::flow::FlowTrace {
            key: None,
            records: recs,
        };
        crate::analyze_flow(&trace, crate::AnalyzerConfig::default()).stalls
    }

    #[test]
    fn client_idle_stall() {
        let m = MSS as u64;
        let stalls = analyze(vec![
            in_req(0, 0),
            out_data(10, 0, MSS),
            in_ack(110, m),
            // 3 seconds of think time, then a new request.
            in_req(3110, 300),
            out_data(3120, m, MSS),
            in_ack(3220, 2 * m),
        ]);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StallCause::ClientIdle);
        assert_eq!(stalls[0].duration, SimDuration::from_millis(3000));
    }

    #[test]
    fn data_unavailable_stall_at_response_head() {
        let m = MSS as u64;
        let stalls = analyze(vec![
            in_req(0, 0),
            // Back-end fetch takes 1.5s before the first response byte.
            out_data(1500, 0, MSS),
            in_ack(1600, m),
        ]);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StallCause::DataUnavailable);
    }

    #[test]
    fn resource_constraint_stall_mid_response() {
        let m = MSS as u64;
        let stalls = analyze(vec![
            in_req(0, 0),
            out_data(10, 0, MSS),
            in_ack(110, m),
            // Server supplies nothing for 2s mid-transfer, window open.
            out_data(2110, m, MSS),
            in_ack(2210, 2 * m),
        ]);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StallCause::ResourceConstraint);
    }

    #[test]
    fn zero_window_stall_ended_by_window_update() {
        let m = MSS as u64;
        let mut zero = in_ack(110, m);
        zero.rwnd = 0;
        let mut update = in_ack(2110, m);
        update.rwnd = 65535;
        let stalls = analyze(vec![
            in_req(0, 0),
            out_data(10, 0, MSS),
            zero,
            update,
            out_data(2111, m, MSS),
            in_ack(2211, 2 * m),
        ]);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StallCause::ZeroWindow);
    }

    #[test]
    fn packet_delay_stall_ended_by_late_ack() {
        let m = MSS as u64;
        let stalls = analyze(vec![
            in_req(0, 0),
            out_data(10, 0, MSS),
            in_ack(110, m),
            out_data(111, m, MSS),
            out_data(112, 2 * m, MSS),
            // The ACK takes ~900ms (several RTTs) but nothing was lost and
            // no retransmission happened (gap < RTO = 300ms? no: RTO after
            // one 100ms sample is 300ms, so use a 250ms gap > 2·SRTT=200ms).
            in_ack(362, 3 * m),
        ]);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StallCause::PacketDelay);
    }

    #[test]
    fn tail_retransmission_stall() {
        let m = MSS as u64;
        let stalls = analyze(vec![
            in_req(0, 0),
            out_data(10, 0, MSS),
            in_ack(110, m),
            // The final (tail) segment of the response is lost...
            out_data(111, m, MSS),
            // ...and repaired only by a timeout retransmission.
            out_data(1111, m, MSS),
            in_ack(1211, 2 * m),
        ]);
        assert_eq!(stalls.len(), 1);
        match stalls[0].cause {
            StallCause::Retransmission(RetransCause::TailRetrans { open_state }) => {
                assert!(open_state);
            }
            other => panic!("expected tail retrans, got {other:?}"),
        }
    }

    #[test]
    fn double_retransmission_stall_f_double() {
        let m = MSS as u64;
        let mut recs = vec![in_req(0, 0)];
        for i in 0..6 {
            recs.push(out_data(10 + i, i * m, MSS));
        }
        // Establish RTT, then dupacks → fast retransmit of seg 0.
        let mk = |t: u64, blocks: &[(u64, u64)]| {
            let mut r = in_ack(t, 0);
            r.sack = blocks.iter().map(|&(a, b)| SackBlock::new(a, b)).collect();
            r
        };
        recs.push(mk(110, &[(m, 2 * m)]));
        recs.push(mk(112, &[(m, 3 * m)]));
        recs.push(mk(114, &[(m, 4 * m)]));
        recs.push(out_data(115, 0, MSS)); // fast retransmit
        recs.push(mk(116, &[(m, 5 * m)]));
        recs.push(mk(118, &[(m, 6 * m)]));
        // The retransmission is lost too; only the RTO (~1s later) repairs.
        recs.push(out_data(1300, 0, MSS));
        recs.push(in_ack(1400, 6 * m));
        let stalls = analyze(recs);
        assert_eq!(stalls.len(), 1, "stalls: {stalls:?}");
        match stalls[0].cause {
            StallCause::Retransmission(RetransCause::DoubleRetrans { first_was_fast }) => {
                assert!(first_was_fast, "f-double");
            }
            other => panic!("expected double retrans, got {other:?}"),
        }
    }

    #[test]
    fn small_cwnd_retransmission_stall() {
        let m = MSS as u64;
        // Big rwnd, only 2 packets in flight mid-response (cwnd-limited),
        // one lost → timeout.
        let stalls = analyze(vec![
            in_req(0, 0),
            out_data(10, 0, MSS),
            in_ack(110, m),
            out_data(111, m, MSS),
            out_data(112, 2 * m, MSS),
            // more of the response exists later, so seg 1 is not the tail
            out_data(113, 3 * m, MSS),
            out_data(114, 4 * m, MSS),
            out_data(115, 5 * m, MSS),
            out_data(116, 6 * m, MSS),
            in_ack(215, 2 * m),
            in_ack(216, 5 * m),
            in_ack(217, 7 * m),
            // New mini-burst: 2 in flight; the first is lost.
            out_data(300, 7 * m, MSS),
            out_data(301, 8 * m, MSS),
            {
                let mut r = in_ack(400, 7 * m);
                r.sack = [SackBlock::new(8 * m, 9 * m)].into();
                r
            },
            // Stall, then timeout retransmission of seg 7m. More data
            // follows later so it is not a tail segment.
            out_data(1400, 7 * m, MSS),
            in_ack(1500, 9 * m),
            out_data(1501, 9 * m, MSS),
            out_data(1502, 10 * m, MSS),
            out_data(1503, 11 * m, MSS),
            out_data(1504, 12 * m, MSS),
            in_ack(1600, 13 * m),
        ]);
        let retrans_stalls: Vec<_> = stalls
            .iter()
            .filter(|s| matches!(s.cause, StallCause::Retransmission(_)))
            .collect();
        assert_eq!(retrans_stalls.len(), 1, "stalls: {stalls:?}");
        assert_eq!(
            retrans_stalls[0].cause,
            StallCause::Retransmission(RetransCause::SmallCwnd)
        );
    }

    #[test]
    fn small_rwnd_retransmission_stall() {
        let m = MSS as u64;
        // The client advertises a 2-MSS window throughout.
        let small = |t: u64, ack: u64| {
            let mut r = in_ack(t, ack);
            r.rwnd = 2 * m;
            r
        };
        let mut req = in_req(0, 0);
        req.rwnd = 2 * m;
        let stalls = analyze(vec![
            req,
            out_data(10, 0, MSS),
            small(110, m),
            out_data(111, m, MSS),
            out_data(112, 2 * m, MSS),
            // Segment at m is lost; only one dupack possible; timeout.
            small(212, m),
            out_data(1211, m, MSS),
            small(1311, 3 * m),
            // The response continues (so the loss was not at the tail).
            out_data(1312, 3 * m, MSS),
            out_data(1313, 4 * m, MSS),
            out_data(1314, 5 * m, MSS),
            out_data(1315, 6 * m, MSS),
            small(1415, 7 * m),
        ]);
        let retrans: Vec<_> = stalls
            .iter()
            .filter(|s| matches!(s.cause, StallCause::Retransmission(_)))
            .collect();
        assert_eq!(retrans.len(), 1, "stalls: {stalls:?}");
        assert_eq!(
            retrans[0].cause,
            StallCause::Retransmission(RetransCause::SmallRwnd)
        );
    }

    #[test]
    fn continuous_loss_stall() {
        let m = MSS as u64;
        let mut recs = vec![in_req(0, 0)];
        // Warm up RTT.
        recs.push(out_data(10, 0, MSS));
        recs.push(in_ack(110, m));
        // A burst of 6, all lost: total silence, then timeout retransmit.
        for i in 1..=6u64 {
            recs.push(out_data(110 + i, i * m, MSS));
        }
        recs.push(out_data(1200, m, MSS)); // RTO retransmission of head
        recs.push(in_ack(1300, 2 * m));
        // Continue the response so the head is not a tail segment.
        for i in 7..=10u64 {
            recs.push(out_data(1301 + i, i * m, MSS));
        }
        recs.push(in_ack(1500, 11 * m));
        let stalls = analyze(recs);
        let retrans: Vec<_> = stalls
            .iter()
            .filter(|s| matches!(s.cause, StallCause::Retransmission(_)))
            .collect();
        assert_eq!(retrans.len(), 1, "stalls: {stalls:?}");
        assert_eq!(
            retrans[0].cause,
            StallCause::Retransmission(RetransCause::ContinuousLoss)
        );
    }

    #[test]
    fn ack_delay_stall_detected_via_dsack() {
        let m = MSS as u64;
        // 5 packets in flight (not small), one ACK comes back late; the
        // sender times out, retransmits, and the client DSACKs.
        let mut recs = vec![in_req(0, 0)];
        recs.push(out_data(10, 0, MSS));
        recs.push(in_ack(110, m));
        for i in 1..=5u64 {
            recs.push(out_data(110 + i, i * m, MSS));
        }
        // One dupack-ish ACK so it's not "continuous loss" silence.
        recs.push(in_ack(211, 2 * m));
        // Timeout retransmission of seg at 2m.
        recs.push(out_data(1300, 2 * m, MSS));
        // The delayed ACK arrives along with a DSACK for the retransmission.
        let mut d = in_ack(1400, 6 * m);
        d.sack = [SackBlock::new(2 * m, 3 * m)].into();
        d.dsack = true;
        recs.push(d);
        // Response continues.
        for i in 6..=9u64 {
            recs.push(out_data(1401 + i, i * m, MSS));
        }
        recs.push(in_ack(1600, 10 * m));
        let stalls = analyze(recs);
        let retrans: Vec<_> = stalls
            .iter()
            .filter(|s| matches!(s.cause, StallCause::Retransmission(_)))
            .collect();
        assert_eq!(retrans.len(), 1, "stalls: {stalls:?}");
        assert_eq!(
            retrans[0].cause,
            StallCause::Retransmission(RetransCause::AckDelayLoss)
        );
    }

    #[test]
    fn decide_walks_every_leaf_in_priority_order() {
        use RetransCause as R;
        use StallCause as C;
        let inb = Evidence {
            inbound: true,
            ..Evidence::default()
        };
        let out = Evidence {
            data: true,
            ..Evidence::default()
        };
        // A first retransmission in a full window that saw feedback: no
        // Table-5 rule matches until a row sets one field.
        let rto = Evidence {
            nth: 1,
            flight: 8,
            window: 8,
            feedback: true,
            ..out
        };
        let rows = [
            // Fig. 5, inbound.
            (Evidence { data: true, ..inb }, C::ClientIdle),
            (
                Evidence {
                    zero_rwnd: true,
                    ..inb
                },
                C::ZeroWindow,
            ),
            (Evidence { ack: true, ..inb }, C::PacketDelay),
            (inb, C::Undetermined),
            // Fig. 5, outbound.
            (Evidence { head: true, ..out }, C::DataUnavailable),
            (
                Evidence {
                    zero_rwnd: true,
                    ..out
                },
                C::ZeroWindow,
            ),
            (out, C::ResourceConstraint),
            (
                Evidence {
                    zero_rwnd: true,
                    ..Evidence::default()
                },
                C::ZeroWindow,
            ),
            (Evidence::default(), C::Undetermined),
            // Table 5.
            (
                Evidence {
                    nth: 2,
                    first_was_fast: true,
                    ..rto
                },
                C::Retransmission(R::DoubleRetrans {
                    first_was_fast: true,
                }),
            ),
            (
                Evidence {
                    tail: true,
                    open_state: true,
                    ..rto
                },
                C::Retransmission(R::TailRetrans { open_state: true }),
            ),
            (
                Evidence { flight: 2, ..rto },
                C::Retransmission(R::SmallCwnd),
            ),
            (
                Evidence {
                    flight: 2,
                    rwnd_limited: true,
                    ..rto
                },
                C::Retransmission(R::SmallRwnd),
            ),
            (
                Evidence {
                    feedback: false,
                    ..rto
                },
                C::Retransmission(R::ContinuousLoss),
            ),
            (
                Evidence {
                    delivered: true,
                    ..rto
                },
                C::Retransmission(R::AckDelayLoss),
            ),
            (rto, C::Retransmission(R::Undetermined)),
            // Priority.
            (
                Evidence {
                    nth: 2,
                    delivered: true,
                    ..rto
                },
                C::Retransmission(R::DoubleRetrans {
                    first_was_fast: false,
                }),
            ),
            (
                Evidence {
                    delivered: true,
                    tail: true,
                    ..rto
                },
                C::Retransmission(R::AckDelayLoss),
            ),
            (
                Evidence {
                    tail: true,
                    flight: 1,
                    ..rto
                },
                C::Retransmission(R::TailRetrans { open_state: false }),
            ),
            (
                Evidence {
                    flight: 2,
                    window: 4,
                    feedback: false,
                    ..rto
                },
                C::Retransmission(R::SmallCwnd),
            ),
            (
                Evidence { head: true, ..rto },
                C::Retransmission(R::Undetermined),
            ),
            (
                Evidence {
                    data: true,
                    zero_rwnd: true,
                    ..inb
                },
                C::ClientIdle,
            ),
        ];
        for (ev, want) in rows {
            assert_eq!(decide(&ev, &ClassifyConfig::default()), want, "{ev:?}");
        }
    }

    #[test]
    fn no_stalls_in_smooth_transfer() {
        let m = MSS as u64;
        let mut recs = vec![in_req(0, 0)];
        for i in 0..20u64 {
            recs.push(out_data(10 + i * 50, i * m, MSS));
            recs.push(in_ack(10 + i * 50 + 40, (i + 1) * m));
        }
        assert!(analyze(recs).is_empty());
    }

    #[test]
    fn handshake_gaps_are_not_stalls() {
        let m = MSS as u64;
        let mut syn = TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 0, 65535);
        syn.flags = SegFlags::SYN;
        let mut synack = TraceRecord::pure_ack(SimTime::from_millis(1), Direction::Out, 0, 1 << 20);
        synack.flags = SegFlags::SYN_ACK;
        // 5s between handshake and first request: not counted.
        let stalls = analyze(vec![
            syn,
            synack,
            in_req(5000, 0),
            out_data(5010, 0, MSS),
            in_ack(5110, m),
        ]);
        assert!(stalls.is_empty(), "{stalls:?}");
    }
}
