//! Validation of [`LiveConfig`].
//!
//! A config is filled field by field — `tapo live` writes each flag's
//! value straight into a [`LiveConfig::default`], library embedders set
//! the fields they need — and [`LiveConfig::build`] checks the whole
//! struct once: it returns the config unchanged or a [`LiveConfigError`]
//! naming the first offending knob, never a panic. Rules about flags
//! rather than values (`--demote` needs `--promote`) stay with the CLI.

use std::fmt;
use std::hash::Hasher;

use super::LiveConfig;

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

/// A rejected [`LiveConfig`] knob, carrying the offending value.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveConfigError {
    /// `shards` was 0.
    ZeroShards,
    /// `interval` was 0 (reports need a positive cadence).
    ZeroInterval,
    /// `mss` was 0.
    ZeroMss,
    /// `dupthres` was 0 (a zero threshold would flag every pure ACK).
    ZeroDupthres,
    /// The promotion threshold (`tier.promote_dupacks`) was 0.
    ZeroPromote,
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
            LiveConfigError::ZeroMss => write!(f, "--mss must be at least 1 byte"),
            LiveConfigError::ZeroDupthres => write!(f, "--dupthres must be at least 1"),
            LiveConfigError::ZeroPromote => write!(f, "--promote must be at least 1 dup-ACK"),
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

/// The CLI-facing shard default: 1, the inline engine with no threads or
/// rings, until a shard count wins a measurement. On the 2-vCPU machines
/// measured so far a second shard ran at 0.83–1.24× the inline engine
/// (`live.driver.shard_speedup`): the serial reader and decode are a
/// large fixed share, and a light-tier update is too cheap to pay for a
/// ring handoff. `--shards N` still opts into N worker threads.
pub fn default_shards() -> usize {
    1
}

impl LiveConfig {
    /// Check every knob once and hand the config back unchanged, or name
    /// the first offending knob, in this order: shards, interval, MSS,
    /// dup-ACK threshold, batch, cells, promotion threshold.
    pub fn build(self) -> Result<LiveConfig, LiveConfigError> {
        let replay = &self.analyzer.replay;
        let err = if self.shards == 0 {
            LiveConfigError::ZeroShards
        } else if self.interval.is_zero() {
            LiveConfigError::ZeroInterval
        } else if replay.mss == 0 {
            LiveConfigError::ZeroMss
        } else if replay.dupthres == 0 {
            LiveConfigError::ZeroDupthres
        } else if !(1..=MAX_BATCH).contains(&self.batch) {
            LiveConfigError::BadBatch(self.batch)
        } else if !(1..=MAX_CELLS).contains(&self.cells) {
            LiveConfigError::BadCells(self.cells)
        } else if self.tier.is_some_and(|t| t.promote_dupacks == 0) {
            LiveConfigError::ZeroPromote
        } else {
            return Ok(self);
        };
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::TierConfig;
    use simnet::time::SimDuration;

    /// The default config with `change` applied, checked.
    fn build_with(change: impl FnOnce(&mut LiveConfig)) -> Result<LiveConfig, LiveConfigError> {
        let mut cfg = LiveConfig::default();
        change(&mut cfg);
        cfg.build()
    }

    #[test]
    fn defaults_round_trip_to_the_default_config() {
        // The benchmark's "no flags" config is `LiveConfig::builder()
        // .build()`: it must be the plain default, field by field, and run
        // the inline engine until a shard count wins a measurement.
        let built = LiveConfig::builder().build().unwrap();
        assert_eq!(format!("{built:?}"), format!("{:?}", LiveConfig::default()));
        assert_eq!(built.shards, default_shards());
        assert_eq!(built.shards, 1);
        assert!(built.tier.is_none());
    }

    #[test]
    fn cells_bounds_are_enforced() {
        assert_eq!(
            build_with(|c| c.cells = 0).unwrap_err(),
            LiveConfigError::BadCells(0)
        );
        assert_eq!(
            build_with(|c| c.cells = MAX_CELLS + 1).unwrap_err(),
            LiveConfigError::BadCells(MAX_CELLS + 1)
        );
        let err = build_with(|c| c.cells = 0).unwrap_err();
        assert!(err.to_string().contains("--cells"));
        let cfg = build_with(|c| c.cells = MAX_CELLS).unwrap();
        assert_eq!(cfg.cells, MAX_CELLS);
        // Effective cells clamp to the flow cap so every cell can admit.
        let capped = build_with(|c| {
            c.cells = 64;
            c.max_flows = 6;
        })
        .unwrap();
        assert_eq!(capped.effective_cells(), 6);
    }

    #[test]
    fn zero_knobs_are_rejected_with_names() {
        use LiveConfigError::*;
        for (got, want, flag) in [
            (build_with(|c| c.shards = 0), ZeroShards, "--shards"),
            (
                build_with(|c| c.interval = SimDuration::ZERO),
                ZeroInterval,
                "--interval",
            ),
            (build_with(|c| c.analyzer.replay.mss = 0), ZeroMss, "--mss"),
            (
                build_with(|c| c.analyzer.replay.dupthres = 0),
                ZeroDupthres,
                "--dupthres",
            ),
        ] {
            let err = got.unwrap_err();
            assert_eq!(err, want);
            assert!(err.to_string().starts_with(flag), "{err}");
        }
    }

    #[test]
    fn batch_and_ring_bounds_are_enforced() {
        assert_eq!(
            build_with(|c| c.batch = 0).unwrap_err(),
            LiveConfigError::BadBatch(0)
        );
        assert_eq!(
            build_with(|c| c.batch = MAX_BATCH + 1).unwrap_err(),
            LiveConfigError::BadBatch(MAX_BATCH + 1)
        );
        // Zero shards is caught before the batch knobs, even when both
        // are bad — the shard error names the first offending flag.
        assert_eq!(
            build_with(|c| {
                c.shards = 0;
                c.batch = 0;
            })
            .unwrap_err(),
            LiveConfigError::ZeroShards
        );
        assert_eq!(build_with(|c| c.batch = 1).unwrap().batch, 1);
        let d = LiveConfig::default().build().unwrap();
        assert_eq!(d.batch, crate::live::DEFAULT_BATCH);
        assert_eq!(d.ring_depth, crate::live::DEFAULT_RING_DEPTH);
    }

    #[test]
    fn promote_threshold_must_be_positive() {
        let tier = |promote_dupacks| TierConfig {
            promote_dupacks,
            demote_streak: 64,
            heavy_max: 1000,
            ..TierConfig::default()
        };
        assert_eq!(
            build_with(|c| c.tier = Some(tier(0))).unwrap_err(),
            LiveConfigError::ZeroPromote
        );
        // The promotion threshold is the last knob checked.
        assert_eq!(
            build_with(|c| {
                c.tier = Some(tier(0));
                c.cells = 0;
            })
            .unwrap_err(),
            LiveConfigError::BadCells(0)
        );
        let t = build_with(|c| c.tier = Some(tier(3)))
            .unwrap()
            .tier
            .unwrap();
        assert_eq!(t.promote_dupacks, 3);
        assert_eq!(t.demote_streak, 64);
        assert_eq!(t.heavy_max, 1000);
    }

    #[test]
    fn daemon_id_is_validated_and_defaulted() {
        let d = LiveConfig::default();
        assert_eq!(d.daemon_id.as_str(), "local");
        assert!(d.sketch, "sketches default on");

        let id = DaemonId::new("fe1.pop-a:8080").unwrap();
        assert_eq!(id.as_str(), "fe1.pop-a:8080");
        for bad in ["", "has space", "comma,", "q\"uote", &"x".repeat(41)] {
            let err = DaemonId::new(bad).unwrap_err();
            assert_eq!(err, LiveConfigError::BadDaemonId(bad.to_string()));
            assert!(err.to_string().contains("--daemon-id"));
        }
        let max = "x".repeat(MAX_DAEMON_ID);
        assert_eq!(DaemonId::new(&max).unwrap().as_str(), max);
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
