//! Validated construction of [`LiveConfig`].
//!
//! The `tapo live` CLI and library embedders share this one path: raw
//! values go in through setters, [`LiveConfigBuilder::build`] either
//! returns a coherent [`LiveConfig`] or a [`LiveConfigError`] naming the
//! offending knob — no panics, no half-validated structs, and the
//! cross-field rules (tier thresholds require a promotion threshold) live
//! in exactly one place.

use std::fmt;
use std::hash::Hasher;

use simnet::time::SimDuration;

use super::{LiveConfig, TierConfig};

/// Maximum [`DaemonId`] length in bytes.
pub const MAX_DAEMON_ID: usize = 40;

/// A validated daemon identifier, stamped into every interval and summary
/// record so fleet aggregation can attribute sources without trusting
/// file names.
///
/// Stored inline (fixed capacity, [`MAX_DAEMON_ID`] bytes) so
/// [`LiveConfig`] stays `Copy`. Restricted to `[A-Za-z0-9._:-]` — the
/// id appears verbatim in JSON keys-by-daemon and CSV cells, and the
/// restricted alphabet means it never needs escaping in either.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DaemonId {
    len: u8,
    bytes: [u8; MAX_DAEMON_ID],
}

impl DaemonId {
    /// Validate and store an id: 1..=[`MAX_DAEMON_ID`] bytes of
    /// `[A-Za-z0-9._:-]`.
    pub fn new(s: &str) -> Result<DaemonId, LiveConfigError> {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':' | '-');
        if s.is_empty() || s.len() > MAX_DAEMON_ID || !s.chars().all(ok_char) {
            return Err(LiveConfigError::BadDaemonId(s.to_string()));
        }
        let mut bytes = [0u8; MAX_DAEMON_ID];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Ok(DaemonId {
            len: s.len() as u8,
            bytes,
        })
    }

    /// The default pid-free derivation when the operator gives no id:
    /// `d-` + 16 hex digits of FNV-1a over the capture path. Stable
    /// across runs of the same input, so reports stay reproducible.
    pub fn derived_from_path(path: &str) -> DaemonId {
        let mut h = super::fnv::FnvHasher::default();
        h.write(path.as_bytes());
        DaemonId::new(&format!("d-{:016x}", h.finish())).expect("derived id is valid")
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("validated ASCII")
    }
}

impl Default for DaemonId {
    /// Library embedders that never set an id report as `"local"`.
    fn default() -> Self {
        DaemonId::new("local").expect("default id is valid")
    }
}

impl fmt::Debug for DaemonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DaemonId({:?})", self.as_str())
    }
}

impl fmt::Display for DaemonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rejected [`LiveConfigBuilder`] knob, carrying the offending value.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveConfigError {
    /// `shards` was 0.
    ZeroShards,
    /// `interval_ms` was 0 (reports need a positive cadence).
    ZeroInterval,
    /// `pace` was not a positive finite factor.
    BadPace(f64),
    /// `mss` was 0.
    ZeroMss,
    /// `dupthres` was 0 (a zero threshold would flag every pure ACK).
    ZeroDupthres,
    /// A promotion knob (`promote`) was 0.
    ZeroPromote,
    /// `demote`/`heavy_max` given without enabling promotion.
    TierKnobWithoutPromote(&'static str),
    /// `batch` was 0 or above [`MAX_BATCH`] (carries the bad value).
    BadBatch(usize),
    /// `cells` was 0 or above [`MAX_CELLS`] (carries the bad value).
    BadCells(usize),
    /// `daemon_id` was empty, longer than [`MAX_DAEMON_ID`] bytes, or
    /// contained a character outside `[A-Za-z0-9._:-]`.
    BadDaemonId(String),
}

/// Upper bound on `--batch`: beyond this the staging arrays stop fitting
/// in cache and interval cuts grow needlessly latent, so treat it as a
/// typo rather than a tuning choice.
pub const MAX_BATCH: usize = 1 << 16;

/// Upper bound on `--cells`: each cell costs O(1) quota/LRU bookkeeping
/// per shard, but a cell count far above any plausible shard count only
/// fragments the cap quotas into zeros.
pub const MAX_CELLS: usize = 1 << 12;

impl fmt::Display for LiveConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveConfigError::ZeroShards => write!(f, "--shards must be at least 1"),
            LiveConfigError::ZeroInterval => write!(f, "--interval must be at least 1 ms"),
            LiveConfigError::BadPace(p) => {
                write!(f, "--pace must be a positive finite factor, got {p}")
            }
            LiveConfigError::ZeroMss => write!(f, "--mss must be at least 1 byte"),
            LiveConfigError::ZeroDupthres => write!(f, "--dupthres must be at least 1"),
            LiveConfigError::ZeroPromote => write!(f, "--promote must be at least 1 dup-ACK"),
            LiveConfigError::TierKnobWithoutPromote(knob) => {
                write!(f, "--{knob} requires --promote (two-tier mode is off)")
            }
            LiveConfigError::BadBatch(n) => {
                write!(f, "--batch must be between 1 and {MAX_BATCH}, got {n}")
            }
            LiveConfigError::BadCells(n) => {
                write!(f, "--cells must be between 1 and {MAX_CELLS}, got {n}")
            }
            LiveConfigError::BadDaemonId(s) => {
                write!(
                    f,
                    "--daemon-id must be 1..={MAX_DAEMON_ID} characters of \
                     [A-Za-z0-9._:-], got {s:?}"
                )
            }
        }
    }
}

impl std::error::Error for LiveConfigError {}

/// Builder for [`LiveConfig`]: setters take raw CLI-shaped values
/// (milliseconds, `0` meaning "off" where documented), [`Self::build`]
/// validates the whole set at once.
#[derive(Debug, Clone)]
pub struct LiveConfigBuilder {
    shards: usize,
    cells: usize,
    interval_ms: u64,
    /// 0 = idle eviction off.
    idle_ms: u64,
    /// 0 = linger off (closed flows wait for idle timeout / EOF).
    linger_ms: u64,
    max_flows: usize,
    per_shard: bool,
    collect: bool,
    pace: Option<f64>,
    mss: u32,
    dupthres: u32,
    /// `Some` enables two-tier monitoring at this dup-ACK threshold.
    promote: Option<u32>,
    demote: Option<u32>,
    heavy_max: Option<usize>,
    batch: usize,
    /// `None` keeps [`DaemonId::default`] (`"local"`).
    daemon_id: Option<String>,
    sketch: bool,
}

/// The CLI-facing shard default: 1, the inline engine with no threads or
/// rings, until a shard count wins a measurement. On the 2-vCPU machines
/// measured so far a second shard ran at 0.83–1.24× the inline engine
/// (`live.driver.shard_speedup`): the serial reader and decode are a
/// large fixed share, and a light-tier update is too cheap to pay for a
/// ring handoff. `--shards N` still opts into N worker threads.
pub fn default_shards() -> usize {
    1
}

impl Default for LiveConfigBuilder {
    fn default() -> Self {
        let d = LiveConfig::default();
        LiveConfigBuilder {
            shards: default_shards(),
            cells: d.cells,
            interval_ms: d.interval.as_micros() / 1_000,
            idle_ms: d.idle_timeout.map_or(0, |t| t.as_micros() / 1_000),
            linger_ms: d.fin_linger.map_or(0, |t| t.as_micros() / 1_000),
            max_flows: d.max_flows,
            per_shard: d.per_shard_occupancy,
            collect: d.collect_flows,
            pace: d.pace,
            mss: d.analyzer.replay.mss,
            dupthres: d.analyzer.replay.dupthres,
            promote: None,
            demote: None,
            heavy_max: None,
            batch: d.batch,
            daemon_id: None,
            sketch: d.sketch,
        }
    }
}

impl LiveConfigBuilder {
    /// A builder preloaded with [`LiveConfig::default`]'s values.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker shard count (must be ≥ 1; defaults to [`default_shards`]).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Virtual flow-cell count (1..=[`MAX_CELLS`]) — the shard-count-
    /// independent unit of flow ownership and cap splitting.
    pub fn cells(mut self, n: usize) -> Self {
        self.cells = n;
        self
    }

    /// Reporting interval in milliseconds (must be ≥ 1).
    pub fn interval_ms(mut self, ms: u64) -> Self {
        self.interval_ms = ms;
        self
    }

    /// Idle-eviction timeout in milliseconds; 0 disables idle eviction.
    pub fn idle_ms(mut self, ms: u64) -> Self {
        self.idle_ms = ms;
        self
    }

    /// FIN/RST linger in milliseconds; 0 keeps closed flows until idle
    /// timeout or EOF.
    pub fn linger_ms(mut self, ms: u64) -> Self {
        self.linger_ms = ms;
        self
    }

    /// Hard cap on concurrently tracked flows; 0 = unbounded.
    pub fn max_flows(mut self, n: usize) -> Self {
        self.max_flows = n;
        self
    }

    /// Include per-shard occupancy in reports (shard-count-dependent).
    pub fn per_shard_occupancy(mut self, on: bool) -> Self {
        self.per_shard = on;
        self
    }

    /// Keep every finalized analysis in the summary (unbounded memory).
    pub fn collect_flows(mut self, on: bool) -> Self {
        self.collect = on;
        self
    }

    /// Replay pacing factor (must be positive and finite when set).
    pub fn pace(mut self, factor: Option<f64>) -> Self {
        self.pace = factor;
        self
    }

    /// Analyzer MSS assumption in bytes (must be ≥ 1).
    pub fn mss(mut self, bytes: u32) -> Self {
        self.mss = bytes;
        self
    }

    /// Analyzer duplicate-ACK threshold (must be ≥ 1).
    pub fn dupthres(mut self, n: u32) -> Self {
        self.dupthres = n;
        self
    }

    /// Enable two-tier monitoring, promoting a flow to a full analyzer
    /// after `dupacks` duplicate ACKs (the other promotion triggers —
    /// retransmissions, ACK-silence stalls, zero window — scale from
    /// [`TierConfig::default`]). Must be ≥ 1.
    pub fn promote(mut self, dupacks: u32) -> Self {
        self.promote = Some(dupacks);
        self
    }

    /// Demote a heavy flow after this many consecutive calm packets;
    /// 0 = never demote. Requires [`Self::promote`].
    pub fn demote(mut self, streak: u32) -> Self {
        self.demote = Some(streak);
        self
    }

    /// Global cap on concurrently heavy flows; 0 = unbounded. Requires
    /// [`Self::promote`].
    pub fn heavy_max(mut self, n: usize) -> Self {
        self.heavy_max = Some(n);
        self
    }

    /// Cap on an ingestion batch in packets (1..=[`MAX_BATCH`]); a slow
    /// input yields shorter batches, never a wait. A cap of 1 degenerates
    /// to per-packet handoff; reports are byte-identical at any value.
    pub fn batch(mut self, n: usize) -> Self {
        self.batch = n;
        self
    }

    /// Daemon identifier stamped into every interval and summary record
    /// (1..=[`MAX_DAEMON_ID`] characters of `[A-Za-z0-9._:-]`). The CLI
    /// defaults to [`DaemonId::derived_from_path`] over the capture path.
    pub fn daemon_id(mut self, id: impl Into<String>) -> Self {
        self.daemon_id = Some(id.into());
        self
    }

    /// Emit mergeable RTT / stall-duration quantile sketches in interval
    /// and summary reports (default on; `--sketch off` to disable).
    pub fn sketch(mut self, on: bool) -> Self {
        self.sketch = on;
        self
    }

    /// Validate every knob and the cross-field rules; on success the
    /// returned [`LiveConfig`] is coherent by construction.
    pub fn build(self) -> Result<LiveConfig, LiveConfigError> {
        if self.shards == 0 {
            return Err(LiveConfigError::ZeroShards);
        }
        if self.interval_ms == 0 {
            return Err(LiveConfigError::ZeroInterval);
        }
        if let Some(p) = self.pace {
            if !(p.is_finite() && p > 0.0) {
                return Err(LiveConfigError::BadPace(p));
            }
        }
        if self.mss == 0 {
            return Err(LiveConfigError::ZeroMss);
        }
        if self.dupthres == 0 {
            return Err(LiveConfigError::ZeroDupthres);
        }
        if self.batch == 0 || self.batch > MAX_BATCH {
            return Err(LiveConfigError::BadBatch(self.batch));
        }
        if self.cells == 0 || self.cells > MAX_CELLS {
            return Err(LiveConfigError::BadCells(self.cells));
        }
        let tier = match self.promote {
            Some(0) => return Err(LiveConfigError::ZeroPromote),
            Some(dupacks) => {
                let mut t = TierConfig {
                    promote_dupacks: dupacks,
                    ..TierConfig::default()
                };
                if let Some(streak) = self.demote {
                    t.demote_streak = streak;
                }
                if let Some(cap) = self.heavy_max {
                    t.heavy_max = cap;
                }
                Some(t)
            }
            None => {
                if self.demote.is_some() {
                    return Err(LiveConfigError::TierKnobWithoutPromote("demote"));
                }
                if self.heavy_max.is_some() {
                    return Err(LiveConfigError::TierKnobWithoutPromote("heavy-max"));
                }
                None
            }
        };
        let daemon_id = match &self.daemon_id {
            Some(s) => DaemonId::new(s)?,
            None => DaemonId::default(),
        };
        let mut cfg = LiveConfig {
            shards: self.shards,
            daemon_id,
            sketch: self.sketch,
            cells: self.cells,
            interval: SimDuration::from_millis(self.interval_ms),
            idle_timeout: (self.idle_ms > 0).then(|| SimDuration::from_millis(self.idle_ms)),
            fin_linger: (self.linger_ms > 0).then(|| SimDuration::from_millis(self.linger_ms)),
            max_flows: self.max_flows,
            collect_flows: self.collect,
            per_shard_occupancy: self.per_shard,
            pace: self.pace,
            tier,
            batch: self.batch,
            ..LiveConfig::default()
        };
        cfg.analyzer.replay.mss = self.mss;
        cfg.analyzer.replay.dupthres = self.dupthres;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_to_the_default_config() {
        let built = LiveConfigBuilder::new().build().unwrap();
        let d = LiveConfig::default();
        // The builder (the CLI path) and the plain library default both
        // run the inline engine until a shard count wins a measurement.
        assert_eq!(built.shards, default_shards());
        assert_eq!(built.shards, 1);
        assert_eq!(d.shards, 1);
        assert_eq!(built.cells, d.cells);
        assert_eq!(built.interval, d.interval);
        assert_eq!(built.idle_timeout, d.idle_timeout);
        assert_eq!(built.fin_linger, d.fin_linger);
        assert_eq!(built.max_flows, d.max_flows);
        assert!(built.tier.is_none());
    }

    #[test]
    fn cells_bounds_are_enforced() {
        assert_eq!(
            LiveConfigBuilder::new().cells(0).build().unwrap_err(),
            LiveConfigError::BadCells(0)
        );
        assert_eq!(
            LiveConfigBuilder::new()
                .cells(MAX_CELLS + 1)
                .build()
                .unwrap_err(),
            LiveConfigError::BadCells(MAX_CELLS + 1)
        );
        let err = LiveConfigBuilder::new().cells(0).build().unwrap_err();
        assert!(err.to_string().contains("--cells"));
        let cfg = LiveConfigBuilder::new().cells(MAX_CELLS).build().unwrap();
        assert_eq!(cfg.cells, MAX_CELLS);
        // Effective cells clamp to the flow cap so every cell can admit.
        let capped = LiveConfigBuilder::new()
            .cells(64)
            .max_flows(6)
            .build()
            .unwrap();
        assert_eq!(capped.effective_cells(), 6);
    }

    #[test]
    fn zero_knobs_are_rejected_with_names() {
        assert_eq!(
            LiveConfigBuilder::new().shards(0).build().unwrap_err(),
            LiveConfigError::ZeroShards
        );
        assert_eq!(
            LiveConfigBuilder::new().interval_ms(0).build().unwrap_err(),
            LiveConfigError::ZeroInterval
        );
        assert_eq!(
            LiveConfigBuilder::new().mss(0).build().unwrap_err(),
            LiveConfigError::ZeroMss
        );
        assert_eq!(
            LiveConfigBuilder::new().dupthres(0).build().unwrap_err(),
            LiveConfigError::ZeroDupthres
        );
        let err = LiveConfigBuilder::new()
            .pace(Some(-1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, LiveConfigError::BadPace(_)));
        assert!(err.to_string().contains("--pace"));
    }

    #[test]
    fn zero_ms_means_disabled_for_idle_and_linger() {
        let cfg = LiveConfigBuilder::new()
            .idle_ms(0)
            .linger_ms(0)
            .build()
            .unwrap();
        assert!(cfg.idle_timeout.is_none());
        assert!(cfg.fin_linger.is_none());
    }

    #[test]
    fn batch_and_ring_bounds_are_enforced() {
        assert_eq!(
            LiveConfigBuilder::new().batch(0).build().unwrap_err(),
            LiveConfigError::BadBatch(0)
        );
        assert_eq!(
            LiveConfigBuilder::new()
                .batch(MAX_BATCH + 1)
                .build()
                .unwrap_err(),
            LiveConfigError::BadBatch(MAX_BATCH + 1)
        );
        // Zero shards is caught before the batch knobs, even when both
        // are bad — the shard error names the first offending flag.
        assert_eq!(
            LiveConfigBuilder::new()
                .shards(0)
                .batch(0)
                .build()
                .unwrap_err(),
            LiveConfigError::ZeroShards
        );
        let cfg = LiveConfigBuilder::new().batch(1).build().unwrap();
        assert_eq!(cfg.batch, 1);
        let d = LiveConfigBuilder::new().build().unwrap();
        assert_eq!(d.batch, crate::live::DEFAULT_BATCH);
        assert_eq!(d.ring_depth, crate::live::DEFAULT_RING_DEPTH);
    }

    #[test]
    fn tier_knobs_require_promote() {
        assert_eq!(
            LiveConfigBuilder::new().demote(64).build().unwrap_err(),
            LiveConfigError::TierKnobWithoutPromote("demote")
        );
        assert_eq!(
            LiveConfigBuilder::new().heavy_max(100).build().unwrap_err(),
            LiveConfigError::TierKnobWithoutPromote("heavy-max")
        );
        assert_eq!(
            LiveConfigBuilder::new().promote(0).build().unwrap_err(),
            LiveConfigError::ZeroPromote
        );
        let cfg = LiveConfigBuilder::new()
            .promote(3)
            .demote(64)
            .heavy_max(1000)
            .build()
            .unwrap();
        let tier = cfg.tier.unwrap();
        assert_eq!(tier.promote_dupacks, 3);
        assert_eq!(tier.demote_streak, 64);
        assert_eq!(tier.heavy_max, 1000);
    }

    #[test]
    fn daemon_id_is_validated_and_defaulted() {
        let d = LiveConfigBuilder::new().build().unwrap();
        assert_eq!(d.daemon_id.as_str(), "local");
        assert!(d.sketch, "sketches default on");

        let cfg = LiveConfigBuilder::new()
            .daemon_id("fe1.pop-a:8080")
            .sketch(false)
            .build()
            .unwrap();
        assert_eq!(cfg.daemon_id.as_str(), "fe1.pop-a:8080");
        assert!(!cfg.sketch);

        for bad in ["", "has space", "comma,", "q\"uote", &"x".repeat(41)] {
            let err = LiveConfigBuilder::new().daemon_id(bad).build().unwrap_err();
            assert_eq!(err, LiveConfigError::BadDaemonId(bad.to_string()));
            assert!(err.to_string().contains("--daemon-id"));
        }
        let max = "x".repeat(MAX_DAEMON_ID);
        assert_eq!(
            LiveConfigBuilder::new()
                .daemon_id(max.clone())
                .build()
                .unwrap()
                .daemon_id
                .as_str(),
            max
        );
    }

    #[test]
    fn derived_daemon_id_is_stable_and_path_sensitive() {
        let a = DaemonId::derived_from_path("captures/fe1.pcap");
        let b = DaemonId::derived_from_path("captures/fe1.pcap");
        let c = DaemonId::derived_from_path("captures/fe2.pcap");
        assert_eq!(a, b, "same path must derive the same id");
        assert_ne!(a, c, "different paths must derive different ids");
        assert!(a.as_str().starts_with("d-"));
        assert_eq!(a.as_str().len(), 18);
        assert!(DaemonId::new(a.as_str()).is_ok(), "derived ids validate");
        // Every report carries the id, so its derivation is pinned: FNV-1a
        // over the path bytes.
        assert_eq!(a.as_str(), "d-41dfb5169ef521d9");
    }
}
