//! The keys of an interval report that its writers emit and
//! [`parse`](super::parse) reads back, each named once, so the emitter and
//! the parser cannot drift apart on one. The ordered lists below are the
//! interval record's layout: `IntervalReport::write_json` writes their
//! members in list order, and the one-pass reader in `parse` expects them
//! in the same order. Keys that only a writer uses stay literals at the
//! writer.

use crate::causes::{RetransClass, StallClass};

/// Every record's type tag.
pub const KIND: &str = "kind";
/// The [`KIND`] of an interval record.
pub const KIND_INTERVAL: &str = "interval";
/// The daemon that wrote the record.
pub const DAEMON: &str = "daemon";
/// The daemon's interval index.
pub const INTERVAL: &str = "interval";
/// Interval start, microseconds.
pub const START_US: &str = "start_us";
/// Interval end, microseconds.
pub const END_US: &str = "end_us";
/// Packets processed.
pub const PACKETS: &str = "packets";
/// Packets per second over the interval, the one non-integer member.
pub const PKTS_PER_SEC: &str = "pkts_per_sec";
/// Flows finalized.
pub const FLOWS_FINALIZED: &str = "flows_finalized";
/// The stall breakdown section.
pub const BREAKDOWN: &str = "breakdown";
/// Stall count, in the breakdown and in a `by_port` entry.
pub const STALLS: &str = "stalls";
/// Stalled time in microseconds, in the breakdown and in a `by_port` entry.
pub const STALLED_US: &str = "stalled_us";
/// Per stall class `{n, us}`, keyed by class slug.
pub const BY_CAUSE: &str = "by_cause";
/// Per retransmission subclass `{n, us}`, keyed by subclass slug.
pub const BY_RETRANS: &str = "by_retrans";
/// A count: of a class's stalls, or of a sketch's samples.
pub const N: &str = "n";
/// A class's stalled time, microseconds.
pub const US: &str = "us";
/// The per-server-port section, keyed by port number.
pub const BY_PORT: &str = "by_port";
/// Flows finalized on a port.
pub const FLOWS: &str = "flows";
/// The sketch section.
pub const SKETCHES: &str = "sketches";
/// The RTT-sample sketch.
pub const RTT_US: &str = "rtt_us";
/// The stall-duration sketch.
pub const STALL_US: &str = "stall_us";
/// A sketch's count of zero samples.
pub const ZERO: &str = "zero";
/// A sketch's minimum sample.
pub const MIN: &str = "min";
/// A sketch's maximum sample.
pub const MAX: &str = "max";
/// A sketch's `[bucket, count]` pairs.
pub const BUCKETS: &str = "b";

/// An interval record's counters between `daemon` and [`PKTS_PER_SEC`].
pub const INTERVAL_HEAD: [&str; 4] = [INTERVAL, START_US, END_US, PACKETS];
/// An interval record's counters between [`PKTS_PER_SEC`] and the
/// breakdown.
pub const INTERVAL_COUNTERS: [&str; 13] = [
    "packets_skipped",
    "packets_late",
    "flows_opened",
    FLOWS_FINALIZED,
    "flows_closed",
    "flows_evicted_idle",
    "flows_shed",
    "active_flows",
    "flows_light",
    "flows_heavy",
    "promotions",
    "demotions",
    "live_stalls",
];
/// Where [`FLOWS_FINALIZED`] stands in [`INTERVAL_COUNTERS`].
pub const FLOWS_FINALIZED_AT: usize = 3;
/// The breakdown's totals, ahead of its class sections.
pub const BREAKDOWN_TOTALS: [&str; 2] = [STALLS, STALLED_US];
/// One class's members in `by_cause` / `by_retrans`.
pub const CLASS_STATS: [&str; 2] = [N, US];
/// One `by_port` entry's members.
pub const PORT_FIELDS: [&str; 3] = [FLOWS, STALLS, STALLED_US];
/// A sketch's scalar members, ahead of its [`BUCKETS`].
pub const SKETCH_FIELDS: [&str; 4] = [N, ZERO, MIN, MAX];

/// The `by_cause` keys, indexed like [`StallClass::ALL`].
pub const CAUSE_SLUGS: [&str; StallClass::ALL.len()] = [
    "data_unavailable",
    "resource_constraint",
    "client_idle",
    "zero_window",
    "packet_delay",
    "retransmission",
    "undetermined",
];
/// The `by_retrans` keys, indexed like [`RetransClass::ALL`].
pub const RETRANS_SLUGS: [&str; RetransClass::ALL.len()] = [
    "double_retrans",
    "tail_retrans",
    "small_cwnd",
    "small_rwnd",
    "continuous_loss",
    "ack_delay_loss",
    "undetermined",
];

/// Counter members as `Out::u64_members` takes them: `keys[i]` with
/// `values[i]`.
pub(crate) fn members<const M: usize>(
    keys: [&'static str; M],
    values: [u64; M],
) -> [(&'static str, u64); M] {
    std::array::from_fn(|i| (keys[i], values[i]))
}
