//! The light tier of two-phase flow monitoring: a struct-of-arrays flow
//! table holding tens of bytes per flow, updated allocation-free on every
//! packet.
//!
//! The paper's deployment target is a busy front-end with millions of
//! concurrent connections; holding a full [`crate::StreamAnalyzer`] (segment
//! histories, scoreboards, sample vectors) per flow does not scale there.
//! Dapper-style two-phase monitoring does: every flow gets a compact
//! always-on state block ([`LightTable`]) that tracks just enough TCP state
//! to *suspect* trouble — an RFC 6298-style SRTT/RTO estimate from a single
//! timing probe, last sequence/ack offsets, in-flight bytes, duplicate-ACK /
//! retransmission / ACK-silence counters — and only suspicious flows are
//! **promoted** to the heavy tier (a full analyzer of their own, seeded
//! with the light-tier estimates as a [`MonitorSeed`]). Flows that go
//! quiet again are **demoted** back with hysteresis, and their analyzer is
//! freed: an analyzer lives and dies with its heavy flow.
//!
//! Each shard engine owns one [`LightTable`] covering exactly the flows
//! whose hash cells it owns, and all decisions here are pure functions of
//! the flow's own packet stream — so promotion and demotion need no
//! cross-shard coordination and the live pipeline's reports stay
//! byte-identical at any shard count.

use tcp_trace::record::{Direction, TraceRecord};

use crate::replay::ReplayConfig;

/// Promotion/demotion thresholds for two-tier monitoring.
///
/// Present on [`crate::live::LiveConfig`] as `tier: Option<TierConfig>`;
/// `None` keeps every flow heavy from admission (the offline-equivalent
/// mode the differential tests rely on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Promote when this many duplicate ACKs accumulate with data
    /// outstanding (a fast-retransmit-scale loss signal).
    pub promote_dupacks: u32,
    /// Promote on the Nth retransmission observed while light.
    pub promote_retrans: u32,
    /// Promote on the Nth ACK silence longer than the light-tier stall
    /// threshold (`min(2·SRTT, RTO)`) with data outstanding.
    pub promote_stalls: u32,
    /// Demote a heavy flow after this many consecutive event-free packets
    /// (hysteresis against promote/demote thrash); `0` never demotes.
    pub demote_streak: u32,
    /// Hard cap on concurrently promoted (heavy) flows across all shards;
    /// `0` is unbounded. Denied promotions retry on the next suspicious
    /// packet, so a full heavy tier degrades coverage, not correctness.
    pub heavy_max: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            promote_dupacks: 3,
            promote_retrans: 2,
            promote_stalls: 1,
            demote_streak: 256,
            heavy_max: 4096,
        }
    }
}

/// Light-tier estimates carried into a promoted analyzer so mid-flow
/// escalation starts from the flow's actual state instead of a cold boot:
/// the RTT estimate keeps the stall threshold meaningful from the first
/// post-promotion gap, and the stream offsets let re-sent pre-promotion
/// segments classify as retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSeed {
    /// Smoothed RTT in microseconds; meaningful only when `has_rtt`.
    pub srtt_us: u32,
    /// RTT variance in microseconds; meaningful only when `has_rtt`.
    pub rttvar_us: u32,
    /// Whether the single-probe estimator has produced a sample yet.
    pub has_rtt: bool,
    /// Highest cumulative ACK seen from the client.
    pub snd_una: u64,
    /// Highest stream offset sent by the server.
    pub snd_nxt: u64,
    /// Last advertised receive window.
    pub last_rwnd: u64,
    /// Receive window from the client's first packet, if seen.
    pub init_rwnd: Option<u64>,
    /// Whether a non-SYN packet has been seen (the replay's `established`).
    pub established: bool,
    /// Whether any inbound ACK advertised a zero window.
    pub zero_rwnd_seen: bool,
}

/// What the light tier concluded from one packet.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// A promotion heuristic crossed its threshold on this packet.
    pub suspicious: bool,
    /// Consecutive event-free packets ending here (hysteresis input; an
    /// "event" is any dup-ACK, retransmission, over-threshold silence or
    /// zero-window, even below its promotion threshold).
    pub calm_streak: u32,
}

/// Packed per-flow event flags (one byte per flow).
mod flag {
    pub const ESTABLISHED: u8 = 1 << 0;
    pub const HAS_RTT: u8 = 1 << 1;
    pub const PROBE_ARMED: u8 = 1 << 2;
    pub const INIT_RWND: u8 = 1 << 3;
    pub const ZERO_WND: u8 = 1 << 4;
    pub const HAS_LAST_T: u8 = 1 << 5;
}

/// RTO clamps shared by every row (copied out of the replay config once).
#[derive(Debug, Clone, Copy, Default)]
struct RtoClamps {
    min_us: u32,
    max_us: u32,
    initial_us: u32,
}

/// One flow's complete light-tier state, packed into a single small struct
/// so an update touches one or two cache lines. (The table was originally
/// struct-of-arrays, but `update` reads or writes nearly every field of
/// exactly one row per packet — fourteen parallel columns meant up to
/// fourteen cache-line touches where the row layout needs two.)
#[derive(Debug, Clone, Copy, Default)]
struct LightRow {
    snd_una: u64,
    snd_nxt: u64,
    probe_end: u64,
    probe_t_us: u64,
    last_t_us: u64,
    srtt_us: u32,
    rttvar_us: u32,
    last_rwnd: u32,
    init_rwnd: u32,
    calm_streak: u32,
    dupacks: u16,
    retrans: u16,
    stall_strikes: u16,
    flags: u8,
}

impl LightRow {
    fn rto_us(&self, c: RtoClamps) -> u32 {
        if self.flags & flag::HAS_RTT == 0 {
            return c.initial_us;
        }
        let var4 = self.rttvar_us.saturating_mul(4).max(c.min_us);
        self.srtt_us.saturating_add(var4).min(c.max_us)
    }

    /// The light stall threshold, mirroring `Replay::stall_threshold`:
    /// `min(2·SRTT, RTO)`, or the initial RTO before any RTT sample.
    fn stall_threshold_us(&self, c: RtoClamps) -> u64 {
        if self.flags & flag::HAS_RTT == 0 {
            return c.initial_us as u64;
        }
        let twice = self.srtt_us.saturating_mul(2);
        twice.min(self.rto_us(c)) as u64
    }

    fn observe_rtt(&mut self, rtt_us: u64) {
        let rtt = rtt_us.min(u32::MAX as u64) as u32;
        if self.flags & flag::HAS_RTT == 0 {
            self.flags |= flag::HAS_RTT;
            self.srtt_us = rtt;
            self.rttvar_us = rtt / 2;
        } else {
            // RFC 6298 gains in the same rounding order as the heavy
            // tier's `RttEstimator`: multiply *then* divide. The earlier
            // `(x/4)*3` / `(x/8)*7` form discards the remainder before
            // scaling, which biases every update low (up to 6µs on SRTT)
            // and drifts the light RTO below the heavy one over a flow's
            // lifetime. 64-bit intermediates: `srtt_us * 7` can overflow
            // `u32`.
            let err = self.srtt_us.abs_diff(rtt);
            let rttvar = (self.rttvar_us as u64 * 3) / 4 + (err / 4) as u64;
            let srtt = (self.srtt_us as u64 * 7) / 8 + (rtt / 8) as u64;
            self.rttvar_us = rttvar.min(u32::MAX as u64) as u32;
            self.srtt_us = srtt.min(u32::MAX as u64) as u32;
        }
    }
}

/// The light tier itself: a flat row table indexed by the driver's slot
/// number, so rows recycle exactly like driver slots and the per-flow cost
/// is [`LightTable::BYTES_PER_FLOW`] regardless of flow history.
///
/// Every update is allocation-free (the table grows only when the driver
/// grows its slot table, i.e. at the concurrent-flow high-water mark).
#[derive(Debug, Default)]
pub struct LightTable {
    clamps: RtoClamps,
    rows: Vec<LightRow>,
}

impl LightTable {
    /// Bytes of row storage per flow (the light tier's memory cost;
    /// asserted small by the unit tests — "tens of bytes per flow").
    pub const BYTES_PER_FLOW: usize = std::mem::size_of::<LightRow>();

    /// A table deriving its RTO clamps from the analyzer's replay config,
    /// so the light stall threshold approximates the heavy one.
    pub fn new(cfg: ReplayConfig) -> Self {
        let us = |d: simnet::time::SimDuration| d.as_micros().min(u32::MAX as u64) as u32;
        LightTable {
            clamps: RtoClamps {
                min_us: us(cfg.min_rto),
                max_us: us(cfg.max_rto),
                initial_us: us(cfg.initial_rto),
            },
            rows: Vec::new(),
        }
    }

    /// Reset slot `slot` for a newly admitted flow, growing the table if
    /// the driver grew its slot table.
    pub fn init(&mut self, slot: u32) {
        let i = slot as usize;
        if i >= self.rows.len() {
            self.rows.resize(i + 1, LightRow::default());
        } else {
            self.rows[i] = LightRow::default();
        }
    }

    /// Clear the sticky suspicion counters after a demotion, so the flow
    /// must accumulate *fresh* evidence before it is promoted again —
    /// without this, one historical retransmission burst would re-promote
    /// on the very next packet and thrash the heavy tier.
    pub fn rearm(&mut self, slot: u32) {
        let r = &mut self.rows[slot as usize];
        r.dupacks = 0;
        r.retrans = 0;
        r.stall_strikes = 0;
        r.calm_streak = 0;
        r.flags &= !flag::ZERO_WND;
    }

    #[cfg(test)]
    fn stall_threshold_us(&self, i: usize) -> u64 {
        self.rows[i].stall_threshold_us(self.clamps)
    }

    /// Fold one translated record into slot `slot`'s row and report whether
    /// a promotion heuristic fired. `t_us` is the capture timestamp.
    pub fn update(
        &mut self,
        slot: u32,
        rec: &TraceRecord,
        t_us: u64,
        tier: &TierConfig,
    ) -> Verdict {
        let clamps = self.clamps;
        let r = &mut self.rows[slot as usize];
        let mut event = false;
        let mut suspicious = false;

        // RTO-scale ACK silence: the previous packet left data in flight
        // and this one arrives after more than the light stall threshold.
        if r.flags & (flag::ESTABLISHED | flag::HAS_LAST_T)
            == (flag::ESTABLISHED | flag::HAS_LAST_T)
            && r.snd_nxt > r.snd_una
        {
            let gap = t_us.saturating_sub(r.last_t_us);
            if gap > r.stall_threshold_us(clamps) {
                r.stall_strikes = r.stall_strikes.saturating_add(1);
                event = true;
                if u32::from(r.stall_strikes) >= tier.promote_stalls {
                    suspicious = true;
                }
            }
        }

        match rec.dir {
            Direction::Out if rec.has_data() => {
                if rec.seq < r.snd_nxt {
                    // Retransmission (mirrors the replay's test). Karn:
                    // an armed probe can no longer yield a clean sample.
                    r.retrans = r.retrans.saturating_add(1);
                    r.flags &= !flag::PROBE_ARMED;
                    event = true;
                    if u32::from(r.retrans) >= tier.promote_retrans {
                        suspicious = true;
                    }
                } else {
                    if r.flags & flag::PROBE_ARMED == 0 {
                        r.flags |= flag::PROBE_ARMED;
                        r.probe_end = rec.seq_end();
                        r.probe_t_us = t_us;
                    }
                    r.snd_nxt = rec.seq_end();
                }
            }
            Direction::In => {
                if r.flags & flag::INIT_RWND == 0 {
                    r.flags |= flag::INIT_RWND;
                    r.init_rwnd = rec.rwnd.min(u32::MAX as u64) as u32;
                }
                r.last_rwnd = rec.rwnd.min(u32::MAX as u64) as u32;
                if rec.ack > r.snd_una {
                    r.snd_una = rec.ack;
                    r.dupacks = 0;
                    if r.flags & flag::PROBE_ARMED != 0 && rec.ack >= r.probe_end {
                        r.flags &= !flag::PROBE_ARMED;
                        let sample = t_us.saturating_sub(r.probe_t_us);
                        r.observe_rtt(sample);
                    }
                } else if rec.ack == r.snd_una
                    && !rec.has_data()
                    && !rec.flags.syn
                    && !rec.flags.fin
                    && !rec.flags.rst
                    && r.snd_nxt > r.snd_una
                {
                    r.dupacks = r.dupacks.saturating_add(1);
                    event = true;
                    if u32::from(r.dupacks) >= tier.promote_dupacks {
                        suspicious = true;
                    }
                }
                if rec.rwnd == 0 && !rec.flags.rst {
                    // Zero-window advertisements promote unconditionally.
                    r.flags |= flag::ZERO_WND;
                    event = true;
                    suspicious = true;
                }
            }
            _ => {}
        }

        if !rec.flags.syn {
            r.flags |= flag::ESTABLISHED;
        }
        r.last_t_us = t_us;
        r.flags |= flag::HAS_LAST_T;
        r.calm_streak = if event {
            0
        } else {
            r.calm_streak.saturating_add(1)
        };
        Verdict {
            suspicious,
            calm_streak: r.calm_streak,
        }
    }

    /// Snapshot slot `slot`'s estimates for seeding a promoted analyzer.
    /// Taken *after* the triggering record updated the row, which is why
    /// the driver does not replay that record into the fresh analyzer.
    pub fn seed(&self, slot: u32) -> MonitorSeed {
        let r = &self.rows[slot as usize];
        MonitorSeed {
            srtt_us: r.srtt_us,
            rttvar_us: r.rttvar_us,
            has_rtt: r.flags & flag::HAS_RTT != 0,
            snd_una: r.snd_una,
            snd_nxt: r.snd_nxt,
            last_rwnd: r.last_rwnd as u64,
            init_rwnd: (r.flags & flag::INIT_RWND != 0).then_some(r.init_rwnd as u64),
            established: r.flags & flag::ESTABLISHED != 0,
            zero_rwnd_seen: r.flags & flag::ZERO_WND != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use tcp_trace::record::{SegFlags, TraceRecord};

    fn table() -> LightTable {
        let mut t = LightTable::new(ReplayConfig::default());
        t.init(0);
        t
    }

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

    fn upd(t: &mut LightTable, rec: &TraceRecord, cfg: &TierConfig) -> Verdict {
        t.update(0, rec, rec.t.as_micros(), cfg)
    }

    #[test]
    fn light_estimator_matches_tcp_reference_exactly() {
        // Differential pin against the heavy stack's RFC 6298 estimator
        // (`tcp_sim::rtt::RttEstimator`, Linux `__tcp_set_rto` semantics):
        // identical samples must yield identical SRTT/RTTVAR/RTO at every
        // step. Odd microsecond values exercise the integer-rounding order
        // — `(x/8)*7`-style updates (the pre-fix form) diverge within a
        // few samples.
        use simnet::time::SimDuration;
        let rcfg = ReplayConfig::default();
        let mut reference = tcp_sim::rtt::RttEstimator::new(tcp_sim::rtt::RttConfig {
            min_rto: rcfg.min_rto,
            max_rto: rcfg.max_rto,
            initial_rto: rcfg.initial_rto,
        });
        let clamps = LightTable::new(rcfg).clamps;
        let mut row = LightRow::default();
        assert_eq!(row.rto_us(clamps) as u64, reference.rto().as_micros());
        let mut sample = 100_003u64; // odd on purpose
        for step in 0..64 {
            // A jittery walk with spikes — every remainder class gets hit.
            sample = if step % 7 == 3 {
                sample * 3 + 11
            } else {
                sample / 2 + 40_001 + step * 137
            };
            row.observe_rtt(sample);
            reference.observe(SimDuration::from_micros(sample));
            assert_eq!(
                row.srtt_us as u64,
                reference.srtt().unwrap().as_micros(),
                "srtt diverged at step {step}"
            );
            assert_eq!(
                row.rto_us(clamps) as u64,
                reference.rto().as_micros(),
                "rto diverged at step {step}"
            );
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn row_fits_in_tens_of_bytes() {
        assert!(
            LightTable::BYTES_PER_FLOW <= 96,
            "light row grew to {} bytes",
            LightTable::BYTES_PER_FLOW
        );
    }

    #[test]
    fn probe_rtt_feeds_the_stall_threshold() {
        let mut t = table();
        let cfg = TierConfig::default();
        upd(&mut t, &out_data(0, 0, 1000), &cfg);
        upd(&mut t, &in_ack(50, 1000), &cfg); // 50 ms sample
        let seed = t.seed(0);
        assert!(seed.has_rtt);
        assert_eq!(seed.srtt_us, 50_000);
        assert_eq!(seed.rttvar_us, 25_000);
        // Threshold = min(2·srtt, srtt + max(4·var, min_rto)) = 100 ms.
        assert_eq!(t.stall_threshold_us(0), 100_000);
    }

    #[test]
    fn dupack_burst_turns_suspicious_at_threshold() {
        let mut t = table();
        let cfg = TierConfig::default();
        upd(&mut t, &out_data(0, 0, 3000), &cfg);
        assert!(!upd(&mut t, &in_ack(10, 1000), &cfg).suspicious);
        assert!(!upd(&mut t, &in_ack(11, 1000), &cfg).suspicious);
        assert!(!upd(&mut t, &in_ack(12, 1000), &cfg).suspicious);
        // Third duplicate of ack=1000 (dupacks reaches 3).
        assert!(upd(&mut t, &in_ack(13, 1000), &cfg).suspicious);
        // An advancing ACK clears the count.
        assert!(!upd(&mut t, &in_ack(14, 3000), &cfg).suspicious);
        assert_eq!(t.rows[0].dupacks, 0);
    }

    #[test]
    fn retransmission_and_zero_window_flag_suspicion() {
        let mut t = table();
        let cfg = TierConfig::default();
        upd(&mut t, &out_data(0, 0, 1000), &cfg);
        upd(&mut t, &out_data(1, 1000, 1000), &cfg);
        // First re-send of old data: event, below the burst threshold.
        assert!(!upd(&mut t, &out_data(2, 0, 1000), &cfg).suspicious);
        assert!(upd(&mut t, &out_data(3, 0, 1000), &cfg).suspicious);
        // Zero window promotes on sight.
        let mut zw = in_ack(4, 1000);
        zw.rwnd = 0;
        let v = upd(&mut t, &zw, &cfg);
        assert!(v.suspicious);
        assert!(t.seed(0).zero_rwnd_seen);
    }

    #[test]
    fn ack_silence_with_data_outstanding_strikes() {
        let mut t = table();
        let cfg = TierConfig::default();
        upd(&mut t, &out_data(0, 0, 1000), &cfg);
        upd(&mut t, &in_ack(50, 1000), &cfg); // srtt = 50 ms
        upd(&mut t, &out_data(60, 1000, 1000), &cfg);
        // 500 ms of silence with 1000 B in flight >> 100 ms threshold.
        let v = upd(&mut t, &in_ack(560, 2000), &cfg);
        assert!(v.suspicious, "promote_stalls defaults to 1");
        // With nothing in flight, silence is idleness, not a stall.
        let v = upd(&mut t, &out_data(5_000, 2000, 500), &cfg);
        assert!(!v.suspicious);
    }

    #[test]
    fn calm_streak_resets_on_events_and_rearm_clears_history() {
        let mut t = table();
        let cfg = TierConfig::default();
        upd(&mut t, &out_data(0, 0, 2000), &cfg);
        for n in 1..=5u64 {
            let v = upd(&mut t, &in_ack(n, 1000), &cfg);
            // First ack advances (streak continues); the rest are dups.
            if n >= 2 {
                assert_eq!(v.calm_streak, 0, "dupack is an event");
            }
        }
        assert!(t.rows[0].dupacks >= 3);
        t.rearm(0);
        assert_eq!(t.rows[0].dupacks, 0);
        assert_eq!(t.rows[0].stall_strikes, 0);
        // Fresh evidence is required again after rearm.
        assert!(!upd(&mut t, &in_ack(10, 1000), &cfg).suspicious);
    }

    #[test]
    fn seed_reflects_offsets_after_the_trigger_record() {
        let mut t = table();
        let cfg = TierConfig::default();
        let syn = TraceRecord {
            flags: SegFlags::SYN,
            ..in_ack(0, 0)
        };
        upd(&mut t, &syn, &cfg);
        assert!(!t.seed(0).established, "SYN does not establish");
        upd(&mut t, &out_data(10, 0, 1000), &cfg);
        upd(&mut t, &out_data(11, 1000, 1000), &cfg);
        upd(&mut t, &in_ack(60, 1000), &cfg);
        let seed = t.seed(0);
        assert!(seed.established);
        assert_eq!(seed.snd_nxt, 2000);
        assert_eq!(seed.snd_una, 1000);
        assert_eq!(seed.init_rwnd, Some(1 << 20));
        assert_eq!(seed.last_rwnd, 1 << 20);
    }

    #[test]
    fn slot_rows_recycle_cleanly() {
        let mut t = table();
        let cfg = TierConfig::default();
        upd(&mut t, &out_data(0, 0, 1000), &cfg);
        upd(&mut t, &in_ack(50, 1000), &cfg);
        t.init(0); // driver reuses the slot for a new flow
        let seed = t.seed(0);
        assert!(!seed.has_rtt);
        assert_eq!(seed.snd_nxt, 0);
        assert!(!seed.established);
        assert_eq!(t.rows[0].calm_streak, 0);
    }
}
