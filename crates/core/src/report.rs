//! Aggregation across flows: cause shares by count and stalled time
//! (Tables 3 & 5), CDF construction (Figs. 1, 3, 6, 7, 10–12), and
//! quantiles (Table 8). The [`parse`] submodule is the shared reader for
//! the JSON-lines report streams the live pipeline emits, and `key` names
//! the report keys that reader and the writers share.

pub(crate) mod key;
pub mod parse;

use simnet::time::SimDuration;

use crate::causes::{RetransCause, RetransClass, StallCause, StallClass};
use crate::FlowAnalysis;

/// Share of a cause in stall volume (#) and stalled time (T), as percentages
/// — the paper's table cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Share {
    /// Percentage of stall count.
    pub volume_pct: f64,
    /// Percentage of stalled time.
    pub time_pct: f64,
}

/// `(count, stalled time)` accumulator for one cause class.
pub type CauseStats = (u64, SimDuration);

/// Aggregated stall statistics over a set of flows (one service).
///
/// Aggregation is keyed by [`StallClass`] / [`RetransClass`] — fixed enums,
/// stored densely — so callers iterate `StallClass::ALL` rather than
/// hard-coding label strings; labels exist only for rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Total stalls observed.
    pub total_stalls: u64,
    /// Total stalled time.
    pub total_stalled: SimDuration,
    /// Per top-level class, indexed by [`StallClass::index`].
    by_cause: [CauseStats; StallClass::ALL.len()],
    /// Per retransmission subclass, indexed by [`RetransClass::index`].
    by_retrans: [CauseStats; RetransClass::ALL.len()],
    /// Double-retransmission split: `(f-double time, t-double time)`.
    pub double_split: (SimDuration, SimDuration),
    /// Tail-retransmission split: `(Open-state time, Recovery-state time)`.
    pub tail_split: (SimDuration, SimDuration),
}

impl StallBreakdown {
    /// Accumulate one flow's stalls.
    pub fn add_flow(&mut self, analysis: &FlowAnalysis) {
        for stall in &analysis.stalls {
            self.total_stalls += 1;
            self.total_stalled += stall.duration;
            let e = &mut self.by_cause[stall.cause.class().index()];
            e.0 += 1;
            e.1 += stall.duration;
            if let StallCause::Retransmission(rc) = stall.cause {
                let e = &mut self.by_retrans[rc.class().index()];
                e.0 += 1;
                e.1 += stall.duration;
                match rc {
                    RetransCause::DoubleRetrans {
                        first_was_fast: true,
                    } => self.double_split.0 += stall.duration,
                    RetransCause::DoubleRetrans {
                        first_was_fast: false,
                    } => self.double_split.1 += stall.duration,
                    RetransCause::TailRetrans { open_state: true } => {
                        self.tail_split.0 += stall.duration
                    }
                    RetransCause::TailRetrans { open_state: false } => {
                        self.tail_split.1 += stall.duration
                    }
                    _ => {}
                }
            }
        }
    }

    /// Fold another breakdown into this one (used when per-shard breakdowns
    /// are combined; order-insensitive, so parallel folds stay deterministic).
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.total_stalls += other.total_stalls;
        self.total_stalled += other.total_stalled;
        for (e, o) in self.by_cause.iter_mut().zip(&other.by_cause) {
            e.0 += o.0;
            e.1 += o.1;
        }
        for (e, o) in self.by_retrans.iter_mut().zip(&other.by_retrans) {
            e.0 += o.0;
            e.1 += o.1;
        }
        self.double_split.0 += other.double_split.0;
        self.double_split.1 += other.double_split.1;
        self.tail_split.0 += other.tail_split.0;
        self.tail_split.1 += other.tail_split.1;
    }

    /// Raw `(count, stalled time)` for a top-level class.
    pub fn cause_stats(&self, class: StallClass) -> CauseStats {
        self.by_cause[class.index()]
    }

    /// Raw `(count, stalled time)` for a retransmission subclass.
    pub fn retrans_stats(&self, class: RetransClass) -> CauseStats {
        self.by_retrans[class.index()]
    }

    /// True if any stall was attributed to a timeout retransmission.
    pub fn any_retrans(&self) -> bool {
        self.by_retrans.iter().any(|&(n, _)| n > 0)
    }

    /// The `(volume %, time %)` share of a top-level cause class.
    pub fn share(&self, class: StallClass) -> Share {
        let (n, t) = self.cause_stats(class);
        Share {
            volume_pct: pct(n as f64, self.total_stalls as f64),
            time_pct: pct(t.as_secs_f64(), self.total_stalled.as_secs_f64()),
        }
    }

    /// The `(volume %, time %)` share of a retransmission subclass, relative
    /// to retransmission stalls only (Table 5's denominators).
    pub fn retrans_share(&self, class: RetransClass) -> Share {
        let (tot_n, tot_t) = self
            .by_retrans
            .iter()
            .fold((0u64, SimDuration::ZERO), |(n, t), &(cn, ct)| {
                (n + cn, t + ct)
            });
        let (n, t) = self.retrans_stats(class);
        Share {
            volume_pct: pct(n as f64, tot_n as f64),
            time_pct: pct(t.as_secs_f64(), tot_t.as_secs_f64()),
        }
    }
}

fn pct(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        100.0 * num / den
    }
}

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// `(x, F(x))` pairs at the given probe points — a plottable series.
    pub fn series(&self, probes: &[f64]) -> Vec<(f64, f64)> {
        probes.iter().map(|&x| (x, self.at(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::{RetransCause, StallCause};
    use crate::classify::Stall;
    use crate::replay::{EstCaState, Snapshot};
    use crate::{FlightHistogram, FlowAnalysis, FlowMetrics, QSketch};
    use simnet::time::SimTime;

    fn stall(cause: StallCause, ms: u64) -> Stall {
        Stall {
            start: SimTime::ZERO,
            end: SimTime::from_millis(ms),
            duration: SimDuration::from_millis(ms),
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
                rwnd: 0,
                dupacks: 0,
            },
            rel_position: 0.0,
        }
    }

    fn analysis(stalls: Vec<Stall>) -> FlowAnalysis {
        FlowAnalysis {
            stalls,
            metrics: FlowMetrics::default(),
            rtt_sketch: QSketch::new(),
            rto_samples: vec![],
            in_flight_on_ack: FlightHistogram::default(),
            init_rwnd: None,
            zero_rwnd_seen: false,
            time_regressions: 0,
        }
    }

    #[test]
    fn breakdown_shares_sum_to_hundred() {
        let mut b = StallBreakdown::default();
        b.add_flow(&analysis(vec![
            stall(StallCause::ClientIdle, 100),
            stall(
                StallCause::Retransmission(RetransCause::TailRetrans { open_state: true }),
                300,
            ),
            stall(StallCause::Retransmission(RetransCause::SmallCwnd), 600),
        ]));
        let idle = b.share(StallClass::ClientIdle);
        let retr = b.share(StallClass::Retransmission);
        assert!((idle.volume_pct - 33.333).abs() < 0.01);
        assert!((retr.volume_pct - 66.667).abs() < 0.01);
        assert!((idle.time_pct - 10.0).abs() < 0.01);
        assert!((retr.time_pct - 90.0).abs() < 0.01);
    }

    #[test]
    fn retrans_shares_use_retrans_denominator() {
        let mut b = StallBreakdown::default();
        b.add_flow(&analysis(vec![
            stall(StallCause::ClientIdle, 1000),
            stall(
                StallCause::Retransmission(RetransCause::DoubleRetrans {
                    first_was_fast: true,
                }),
                300,
            ),
            stall(StallCause::Retransmission(RetransCause::SmallCwnd), 100),
        ]));
        let d = b.retrans_share(RetransClass::DoubleRetrans);
        assert!((d.volume_pct - 50.0).abs() < 1e-9);
        assert!((d.time_pct - 75.0).abs() < 1e-9);
        assert_eq!(b.double_split.0, SimDuration::from_millis(300));
        assert_eq!(b.double_split.1, SimDuration::ZERO);
    }

    #[test]
    fn share_covers_every_stall_class() {
        // One stall per top-level class (via a representative cause), with
        // distinct durations so class totals are distinguishable.
        let causes: [StallCause; StallClass::ALL.len()] = [
            StallCause::DataUnavailable,
            StallCause::ResourceConstraint,
            StallCause::ClientIdle,
            StallCause::ZeroWindow,
            StallCause::PacketDelay,
            StallCause::Retransmission(RetransCause::SmallCwnd),
            StallCause::Undetermined,
        ];
        let mut b = StallBreakdown::default();
        b.add_flow(&analysis(
            causes
                .iter()
                .enumerate()
                .map(|(i, &c)| stall(c, 100 * (i as u64 + 1)))
                .collect(),
        ));
        let total_ms: u64 = (1..=7).map(|i| 100 * i).sum();
        let mut volume_sum = 0.0;
        let mut time_sum = 0.0;
        for (i, class) in StallClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "ALL order must match index()");
            assert_eq!(causes[i].class(), class, "cause {i} maps to its class");
            let (n, t) = b.cause_stats(class);
            assert_eq!(n, 1, "{class:?} got exactly one stall");
            assert_eq!(t, SimDuration::from_millis(100 * (i as u64 + 1)));
            let s = b.share(class);
            assert!((s.volume_pct - 100.0 / 7.0).abs() < 1e-9, "{class:?}");
            let want_t = 100.0 * (100.0 * (i as f64 + 1.0)) / total_ms as f64;
            assert!((s.time_pct - want_t).abs() < 1e-9, "{class:?}");
            volume_sum += s.volume_pct;
            time_sum += s.time_pct;
        }
        assert!((volume_sum - 100.0).abs() < 1e-9);
        assert!((time_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn retrans_share_covers_every_retrans_class() {
        let causes: [RetransCause; RetransClass::ALL.len()] = [
            RetransCause::DoubleRetrans {
                first_was_fast: true,
            },
            RetransCause::TailRetrans { open_state: false },
            RetransCause::SmallCwnd,
            RetransCause::SmallRwnd,
            RetransCause::ContinuousLoss,
            RetransCause::AckDelayLoss,
            RetransCause::Undetermined,
        ];
        let mut b = StallBreakdown::default();
        b.add_flow(&analysis(
            causes
                .iter()
                .map(|&rc| stall(StallCause::Retransmission(rc), 100))
                .collect(),
        ));
        assert!(b.any_retrans());
        for (i, class) in RetransClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "ALL order must match index()");
            assert_eq!(causes[i].class(), class, "cause {i} maps to its class");
            let (n, t) = b.retrans_stats(class);
            assert_eq!(n, 1, "{class:?} got exactly one stall");
            assert_eq!(t, SimDuration::from_millis(100));
            let s = b.retrans_share(class);
            assert!((s.volume_pct - 100.0 / 7.0).abs() < 1e-9, "{class:?}");
            assert!((s.time_pct - 100.0 / 7.0).abs() < 1e-9, "{class:?}");
        }
        // An empty breakdown reports zero shares, not NaN.
        let empty = StallBreakdown::default();
        assert!(!empty.any_retrans());
        for class in RetransClass::ALL {
            assert_eq!(empty.retrans_share(class), Share::default());
        }
        for class in StallClass::ALL {
            assert_eq!(empty.share(class), Share::default());
        }
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let flows = [
            analysis(vec![
                stall(StallCause::ClientIdle, 100),
                stall(StallCause::Retransmission(RetransCause::SmallRwnd), 200),
            ]),
            analysis(vec![stall(
                StallCause::Retransmission(RetransCause::TailRetrans { open_state: true }),
                300,
            )]),
        ];
        let mut seq = StallBreakdown::default();
        for f in &flows {
            seq.add_flow(f);
        }
        let mut merged = StallBreakdown::default();
        for f in &flows {
            let mut shard = StallBreakdown::default();
            shard.add_flow(f);
            merged.merge(&shard);
        }
        assert_eq!(seq, merged);
    }

    #[test]
    fn cdf_quantiles_and_at() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(3.0), 0.6);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(c.quantile(0.5), Some(3.0));
        assert_eq!(c.quantile(0.9), Some(5.0));
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.mean(), Some(3.0));
    }

    #[test]
    fn cdf_handles_empty_and_nan() {
        let c = Cdf::from_samples(vec![f64::NAN]);
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.at(1.0), 0.0);
    }

    #[test]
    fn cdf_series_is_monotone() {
        let c = Cdf::from_samples((0..100).map(|i| i as f64).collect());
        let s = c.series(&[10.0, 50.0, 90.0]);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
