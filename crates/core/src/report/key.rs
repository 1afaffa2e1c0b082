//! The keys of an interval report that its writers emit and
//! [`parse`](super::parse) reads back, each named once, so the emitter and
//! the parser cannot drift apart on one. Keys that only a writer uses stay
//! literals at the writer.

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
