//! RFC 6298 round-trip-time estimation and retransmission timeout.
//!
//! Matches the Linux implementation the paper's servers ran: SRTT/RTTVAR
//! with the standard gains (1/8, 1/4), a **200ms RTO floor** (`TCP_RTO_MIN`)
//! and 120s ceiling (`TCP_RTO_MAX`), and a 1s default before the first
//! sample. Karn's rule (no samples from retransmitted segments) is enforced
//! by the caller, which only feeds samples for never-retransmitted segments.
//!
//! The paper's Figure 1 observation — RTOs an order of magnitude above the
//! RTT for 40% of flows — emerges directly from the 200ms floor plus the
//! `SRTT + 4·RTTVAR` formula on jittery paths.

use simnet::time::SimDuration;

/// Maximum exponential-backoff shift applied to the RTO
/// (`TCP_BACKOFF_MAX` in Linux is 15 doublings before the counter
/// saturates). The sender's `rto_backoff` / `persist_backoff` counters
/// saturate at this value and [`RttEstimator::rto_backed_off`] caps its
/// shift at the same constant, so the two can never drift apart.
pub const MAX_RTO_BACKOFF: u32 = 15;

/// Configuration for the estimator (Linux defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttConfig {
    /// Lower bound on the RTO (`TCP_RTO_MIN`, 200ms in Linux).
    pub min_rto: SimDuration,
    /// Upper bound on the RTO (`TCP_RTO_MAX`, 120s in Linux).
    pub max_rto: SimDuration,
    /// RTO before any RTT sample exists (RFC 6298 §2.1: 1s).
    pub initial_rto: SimDuration,
}

impl Default for RttConfig {
    fn default() -> Self {
        RttConfig {
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(120),
            initial_rto: SimDuration::from_secs(1),
        }
    }
}

/// SRTT/RTTVAR/RTO state for one connection.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    cfg: RttConfig,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    last_sample: Option<SimDuration>,
}

impl RttEstimator {
    /// A fresh estimator with no samples.
    pub fn new(cfg: RttConfig) -> Self {
        RttEstimator {
            cfg,
            srtt: None,
            rttvar: SimDuration::ZERO,
            last_sample: None,
        }
    }

    /// Feed one RTT sample (from a never-retransmitted segment).
    pub fn observe(&mut self, rtt: SimDuration) {
        self.last_sample = Some(rtt);
        match self.srtt {
            None => {
                // First measurement: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3) / 4 + err / 4;
                // SRTT = 7/8·SRTT + 1/8·R
                self.srtt = Some((srtt * 7) / 8 + rtt / 8);
            }
        }
    }

    /// Adopt an estimate taken elsewhere (e.g. a lighter monitor that saw
    /// the flow's earlier samples) as if those samples had been observed
    /// here. The raw last sample stays unknown.
    pub fn seed(&mut self, srtt: SimDuration, rttvar: SimDuration) {
        self.srtt = Some(srtt);
        self.rttvar = rttvar;
    }

    /// The smoothed RTT; `None` before the first sample.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The most recent raw sample.
    pub fn last_sample(&self) -> Option<SimDuration> {
        self.last_sample
    }

    /// Current base RTO (before exponential backoff): Linux
    /// `__tcp_set_rto` semantics, `SRTT + max(4·RTTVAR, TCP_RTO_MIN)`,
    /// capped at the ceiling. The 200ms floor applies to the *variance
    /// term*, not the final sum — so the base RTO always sits at least
    /// one full `min_rto` above SRTT (which is why production RTOs run
    /// an order of magnitude above the RTT; Fig. 1b).
    pub fn rto(&self) -> SimDuration {
        match self.srtt {
            None => self.cfg.initial_rto,
            Some(srtt) => (srtt + (self.rttvar * 4).max(self.cfg.min_rto)).min(self.cfg.max_rto),
        }
    }

    /// RTO after `backoff` doublings, capped at the ceiling. The shift is
    /// capped at [`MAX_RTO_BACKOFF`], matching where the sender's backoff
    /// counters saturate.
    pub fn rto_backed_off(&self, backoff: u32) -> SimDuration {
        let shift = backoff.min(MAX_RTO_BACKOFF);
        self.rto()
            .saturating_mul(1u64 << shift)
            .min(self.cfg.max_rto)
    }

    /// The config in use.
    pub fn config(&self) -> RttConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn seeded_estimator_continues_like_the_source() {
        let mut source = RttEstimator::new(RttConfig::default());
        for x in [120, 80, 300, 95] {
            source.observe(ms(x));
        }
        let mut seeded = RttEstimator::new(RttConfig::default());
        seeded.seed(source.srtt().unwrap(), source.rttvar);
        assert_eq!(seeded.rto(), source.rto());
        for x in [60, 410, 75] {
            source.observe(ms(x));
            seeded.observe(ms(x));
            assert_eq!((seeded.srtt(), seeded.rto()), (source.srtt(), source.rto()));
        }
    }

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::new(RttConfig::default());
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = RttEstimator::new(RttConfig::default());
        e.observe(ms(100));
        assert_eq!(e.srtt(), Some(ms(100)));
        // RTO = 100 + 4·50 = 300ms.
        assert_eq!(e.rto(), ms(300));
    }

    #[test]
    fn steady_samples_converge_toward_floor() {
        let mut e = RttEstimator::new(RttConfig::default());
        for _ in 0..100 {
            e.observe(ms(50));
        }
        // RTTVAR decays toward 0 so the floored variance term dominates:
        // RTO = SRTT + max(4·RTTVAR, 200ms) = 50 + 200 = 250ms. (Linux
        // floors the variance term, not the sum — the RTO never collapses
        // onto the floor itself while SRTT > 0.)
        assert_eq!(e.rto(), ms(250));
        let srtt = e.srtt().unwrap();
        assert!(srtt >= ms(49) && srtt <= ms(51), "srtt {srtt}");
    }

    #[test]
    fn jitter_inflates_rto_well_above_rtt() {
        // Alternate 50ms and 250ms samples: mean RTT 150ms but RTO should
        // sit several times higher — the paper's Fig. 1b effect.
        let mut e = RttEstimator::new(RttConfig::default());
        for i in 0..200 {
            e.observe(if i % 2 == 0 { ms(50) } else { ms(250) });
        }
        let rto = e.rto();
        assert!(rto > ms(400), "rto {rto}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(RttConfig::default());
        for _ in 0..100 {
            e.observe(ms(50));
        }
        assert_eq!(e.rto_backed_off(0), ms(250));
        assert_eq!(e.rto_backed_off(1), ms(500));
        assert_eq!(e.rto_backed_off(3), ms(2000));
        assert_eq!(e.rto_backed_off(30), SimDuration::from_secs(120));
    }

    #[test]
    fn backoff_shift_caps_at_max_rto_backoff() {
        // Use a ceiling high enough that the shift cap — not max_rto — is
        // what limits the result, so drift in the cap is observable.
        let mut e = RttEstimator::new(RttConfig {
            max_rto: SimDuration::from_secs(u64::MAX / 2_000_000),
            ..RttConfig::default()
        });
        e.observe(ms(50)); // base RTO = 50 + max(100, 200) = 250ms
        let base = e.rto();
        assert_eq!(base, ms(250));
        let at_cap = base.saturating_mul(1u64 << MAX_RTO_BACKOFF);
        assert_eq!(e.rto_backed_off(MAX_RTO_BACKOFF), at_cap);
        // Beyond the cap the shift saturates: 16 and 17 behave like 15.
        assert_eq!(e.rto_backed_off(MAX_RTO_BACKOFF + 1), at_cap);
        assert_eq!(e.rto_backed_off(MAX_RTO_BACKOFF + 2), at_cap);
    }

    #[test]
    fn rto_never_below_floor_or_above_ceiling() {
        // A microsecond-scale RTT still yields RTO ≥ min_rto: the floored
        // variance term guarantees SRTT + 200ms, here 300µs + 200ms.
        let mut e = RttEstimator::new(RttConfig::default());
        e.observe(SimDuration::from_micros(300));
        assert_eq!(e.rto(), SimDuration::from_micros(200_300));
        assert!(e.rto() >= e.config().min_rto);
        let mut e2 = RttEstimator::new(RttConfig::default());
        e2.observe(SimDuration::from_secs(300));
        assert_eq!(e2.rto(), SimDuration::from_secs(120));
    }
}
