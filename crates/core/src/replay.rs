//! Sender-state reconstruction from a server-side packet trace.
//!
//! TAPO never sees kernel state: everything in Table 2 of the paper —
//! `ca_state`, `in_flight`, `sacked_out`, `lost_out`, `retran_out`,
//! `snd_una`/`snd_nxt`, retransmission counts, spurious retransmissions,
//! `rwnd`/`init_rwnd`, file position — is re-derived here by *mimicking the
//! TCP stack* against the observed packets, exactly as the paper's tool
//! does. The reconstruction deliberately lives in this crate (not
//! `tcp-sim`) so the analyzer stays an independent observer that also works
//! on real pcap captures; it shares only the RFC 6298 arithmetic
//! ([`RttEstimator`]), fed with RTT samples it measures itself and the RTO
//! bounds of its own [`ReplayConfig`].
//!
//! Memory follows the flight, not the flow. The scoreboard holds only the
//! segments outstanding now. What a flow keeps for its whole life is
//! small:
//! - a [`TxLog`] entry per segment sent, [`TxLog::ENTRY_BYTES`] each;
//! - a [`SegHist`] only for a segment that was retransmitted or DSACKed;
//! - an RTT [`QSketch`] and an in-flight [`FlightHistogram`], which grow
//!   with the spread of the per-ACK samples, not with their number.

use simnet::time::{SimDuration, SimTime};
use tcp_sim::rtt::{RttConfig, RttEstimator};
use tcp_trace::record::{Direction, TraceRecord};

use crate::fleet::sketch::QSketch;

/// Estimated congestion state (mirrors the kernel's four states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstCaState {
    /// No dubious events outstanding.
    Open,
    /// Dupacks below the threshold.
    Disorder,
    /// Fast retransmit observed.
    Recovery,
    /// Timeout retransmission observed.
    Loss,
}

/// Replay configuration (the analyzer's own, independent of the sender's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Assumed MSS (for packet-count arithmetic on byte offsets).
    pub mss: u32,
    /// Assumed duplicate-ACK threshold.
    pub dupthres: u32,
    /// RTO floor (Linux: 200ms).
    pub min_rto: SimDuration,
    /// RTO ceiling.
    pub max_rto: SimDuration,
    /// RTO before the first RTT sample (RFC 6298: 1s).
    pub initial_rto: SimDuration,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            mss: 1448,
            dupthres: 3,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(120),
            initial_rto: SimDuration::from_secs(1),
        }
    }
}

impl ReplayConfig {
    /// The RTO bounds as the RFC 6298 estimator's configuration.
    fn rtt(&self) -> RttConfig {
        RttConfig {
            min_rto: self.min_rto,
            max_rto: self.max_rto,
            initial_rto: self.initial_rto,
        }
    }
}

/// How a retransmission was (estimated to be) triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetransKind {
    /// Enough dupacks were outstanding: fast retransmit.
    Fast,
    /// Not enough dupacks: retransmission timer.
    Timeout,
}

/// Lifetime history of one transmitted segment: only what a later
/// retransmission or the classifier reads. The length lives on the
/// scoreboard while the segment is outstanding, and nothing needs it
/// afterwards. A segment sent once has the history
/// [`SegHist::sent_once`] at its first transmission time, which the
/// [`TxLog`] already holds; [`SegHistory`] keeps a `SegHist` of its own
/// only for a segment whose history differs from that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegHist {
    /// Time of the most recent (re)transmission.
    pub last_tx: SimTime,
    /// Total transmissions (1 = never retransmitted).
    pub tx_count: u32,
    /// How the first retransmission was triggered, if any.
    pub first_retrans: Option<RetransKind>,
    /// A DSACK later reported this segment as received in duplicate.
    pub dsacked: bool,
}

impl SegHist {
    /// The history of a segment transmitted once, at `t`.
    pub fn sent_once(t: SimTime) -> SegHist {
        SegHist {
            last_tx: t,
            tx_count: 1,
            first_retrans: None,
            dsacked: false,
        }
    }
}

/// One observed retransmission event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransEvent {
    /// Record index in the trace.
    pub idx: usize,
    /// Segment start offset.
    pub seq: u64,
    /// Which retransmission of the segment this is (1 = first).
    pub nth: u32,
    /// Estimated trigger.
    pub kind: RetransKind,
}

/// Outstanding-segment marks (the analyzer's scoreboard). Carries its own
/// first-transmission time and retransmission flag so the cumulative-ACK
/// retire path can take RTT samples from the scoreboard itself — the
/// per-segment history map is only consulted on the rare paths
/// (retransmissions, DSACKs, finalization), never per ACK.
#[derive(Debug, Clone, Copy, Default)]
struct OutSeg {
    len: u32,
    sacked: bool,
    lost: bool,
    retrans_out: bool,
    /// Set once the segment is seen retransmitted (Karn: no RTT sample).
    retx: bool,
    /// Time of the original transmission.
    first_tx: SimTime,
}

/// Sorted flat map of per-segment histories, keyed by start offset.
///
/// Inside [`SegHistory`] it holds only the histories that differ from
/// [`SegHist::sent_once`]. Lookups are binary searches; inserts in offset
/// order are a `push`.
#[derive(Debug, Default, Clone)]
pub struct SegHistMap {
    v: Vec<(u64, SegHist)>,
}

impl SegHistMap {
    fn idx(&self, seq: u64) -> Result<usize, usize> {
        self.v.binary_search_by_key(&seq, |(s, _)| *s)
    }

    /// The history of the segment starting exactly at `seq`.
    pub fn get(&self, seq: u64) -> Option<&SegHist> {
        self.idx(seq).ok().map(|i| &self.v[i].1)
    }

    /// Insert or replace the history at `seq`.
    pub fn insert(&mut self, seq: u64, h: SegHist) {
        match self.v.last() {
            Some((last, _)) if *last >= seq => match self.idx(seq) {
                Ok(i) => self.v[i].1 = h,
                Err(i) => self.v.insert(i, (seq, h)),
            },
            _ => self.v.push((seq, h)),
        }
    }

    /// Number of histories held.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether no history is held.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Iterate `(start_offset, history)` in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SegHist)> {
        self.v.iter().map(|(s, h)| (*s, h))
    }

    /// Drop all histories, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.v.clear();
    }
}

/// Append-only log of `(start offset, first transmission)` for every
/// segment sent as new data, delta-coded in blocks.
///
/// A block stores its first entry's offset and time (µs) in full, then
/// every entry as a pair of `u32` deltas from that base. An entry whose
/// offset or time does not fit (a jump of 4 GiB or more, about 71.6 min
/// or more, or time running backwards) opens a new block. Each entry
/// costs [`TxLog::ENTRY_BYTES`], where a [`SegHistMap`] entry costs 24.
/// Offsets only grow, so lookups are two binary searches: the block, then
/// the entry within it.
#[derive(Debug, Default, Clone)]
pub struct TxLog {
    blocks: Vec<TxBlock>,
    /// `(offset − block offset, µs − block µs)` per entry, in offset
    /// order; a block's first entry is `(0, 0)`.
    deltas: Vec<(u32, u32)>,
}

/// The full-width base of one [`TxLog`] block.
#[derive(Debug, Clone, Copy)]
struct TxBlock {
    seq: u64,
    us: u64,
    /// Index of the block's first entry in `deltas`.
    start: usize,
}

impl TxLog {
    /// Bytes one logged segment occupies.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<(u32, u32)>();

    /// Log a segment first sent at `t`; `seq` must exceed every logged
    /// offset.
    pub fn push(&mut self, seq: u64, t: SimTime) {
        debug_assert!(self.last_seq().is_none_or(|last| seq > last));
        let us = t.as_micros();
        if let Some(b) = self.blocks.last() {
            let ds = u32::try_from(seq - b.seq);
            let dt = us.checked_sub(b.us).map(u32::try_from);
            if let (Ok(ds), Some(Ok(dt))) = (ds, dt) {
                self.deltas.push((ds, dt));
                return;
            }
        }
        self.blocks.push(TxBlock {
            seq,
            us,
            start: self.deltas.len(),
        });
        self.deltas.push((0, 0));
    }

    /// The greatest logged offset.
    pub fn last_seq(&self) -> Option<u64> {
        let (b, &(d, _)) = (self.blocks.last()?, self.deltas.last()?);
        Some(b.seq + d as u64)
    }

    /// The block that holds the greatest logged offset `≤ seq`, with its
    /// entries.
    fn block_below(&self, seq: u64) -> Option<(TxBlock, &[(u32, u32)])> {
        let i = self
            .blocks
            .partition_point(|b| b.seq <= seq)
            .checked_sub(1)?;
        let end = self
            .blocks
            .get(i + 1)
            .map_or(self.deltas.len(), |b| b.start);
        let b = self.blocks[i];
        Some((b, &self.deltas[b.start..end]))
    }

    /// When the segment starting exactly at `seq` was first sent.
    pub fn get(&self, seq: u64) -> Option<SimTime> {
        let (b, entries) = self.block_below(seq)?;
        let ds = u32::try_from(seq - b.seq).ok()?;
        let i = entries.binary_search_by_key(&ds, |&(d, _)| d).ok()?;
        Some(SimTime::from_micros(b.us + entries[i].1 as u64))
    }

    /// The greatest logged offset `≤ seq` and its first transmission.
    pub fn last_at_or_below(&self, seq: u64) -> Option<(u64, SimTime)> {
        let (b, entries) = self.block_below(seq)?;
        // Every entry of the block lies at or below `seq` when the gap
        // exceeds what a delta can hold.
        let ds = u32::try_from(seq - b.seq).unwrap_or(u32::MAX);
        let (d, dt) = entries[entries.partition_point(|&(d, _)| d <= ds) - 1];
        Some((b.seq + d as u64, SimTime::from_micros(b.us + dt as u64)))
    }

    /// Number of logged segments.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether no segment has been logged.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Drop every entry, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.deltas.clear();
    }
}

/// Per-segment histories, keyed by start offset: a [`TxLog`] of every
/// segment sent as new data, and a [`SegHistMap`] of the histories that
/// differ from [`SegHist::sent_once`] (segments retransmitted, DSACKed,
/// or first seen as a retransmission).
///
/// Lookups answer from the union of the two, as one map holding every
/// segment would; where both hold an offset, the map wins. A logged
/// segment moves into the map the first time it is retransmitted or
/// DSACKed, through [`SegHistory::get_mut`] or
/// [`SegHistory::last_at_or_below_mut`].
#[derive(Debug, Default, Clone)]
pub struct SegHistory {
    changed: SegHistMap,
    log: TxLog,
    /// Test-only: file new data in `changed` too, as one full map, the
    /// way histories were kept before the log (the reference the split
    /// is tested against).
    #[cfg(test)]
    full_map: bool,
}

impl SegHistory {
    /// Record a segment first sent as new data at `t`. The replay sends
    /// new data above every offset it has logged; anything else replaces
    /// or joins the map, which wins over the log.
    pub fn push_new(&mut self, seq: u64, t: SimTime) {
        #[cfg(test)]
        if self.full_map {
            return self.changed.insert(seq, SegHist::sent_once(t));
        }
        if self.log.last_seq().is_some_and(|last| seq <= last) {
            self.changed.insert(seq, SegHist::sent_once(t));
        } else {
            self.log.push(seq, t);
        }
    }

    /// The history of the segment starting exactly at `seq`.
    pub fn get(&self, seq: u64) -> Option<SegHist> {
        self.changed
            .get(seq)
            .copied()
            .or_else(|| self.log.get(seq).map(SegHist::sent_once))
    }

    /// Mutable access to the history at `seq`, moving a logged segment
    /// into the map first.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut SegHist> {
        let v = &mut self.changed.v;
        let i = match v.binary_search_by_key(&seq, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                v.insert(i, (seq, SegHist::sent_once(self.log.get(seq)?)));
                i
            }
        };
        Some(&mut v[i].1)
    }

    /// Insert or replace the history at `seq` in the map.
    pub fn insert(&mut self, seq: u64, h: SegHist) {
        self.changed.insert(seq, h);
    }

    /// The history with the greatest offset ≤ `seq` (a `BTreeMap`'s
    /// `range_mut(..=seq).next_back()` over the union), moving a logged
    /// segment into the map first.
    pub fn last_at_or_below_mut(&mut self, seq: u64) -> Option<&mut SegHist> {
        let v = &mut self.changed.v;
        let i = v.partition_point(|(s, _)| *s <= seq);
        let mapped = i.checked_sub(1).map(|j| v[j].0);
        match self.log.last_at_or_below(seq) {
            Some((logged, t)) if mapped.is_none_or(|m| m < logged) => {
                // Every map offset before `i` is below `logged`, every one
                // from `i` on is above `seq`: `i` keeps the map sorted.
                v.insert(i, (logged, SegHist::sent_once(t)));
                Some(&mut v[i].1)
            }
            _ => i.checked_sub(1).map(|j| &mut v[j].1),
        }
    }

    /// Drop all histories, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.changed.clear();
        self.log.clear();
    }
}

/// Exact count of each `in_flight` value recorded on an inbound ACK
/// (Fig. 11): the multiset of a per-ACK list, in a vector as long as the
/// largest flight.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FlightHistogram {
    /// `counts[v]` = ACKs that saw `in_flight == v`.
    counts: Vec<u64>,
}

impl FlightHistogram {
    /// Count one ACK that saw `in_flight`.
    pub fn record(&mut self, in_flight: u32) {
        let v = in_flight as usize;
        if v >= self.counts.len() {
            self.counts.resize(v + 1, 0);
        }
        self.counts[v] += 1;
    }

    /// `(in_flight, ACKs)` for every value seen, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(v, &n)| (v as u32, n))
    }

    /// Every recorded value, ascending, each as often as it was recorded.
    pub fn values(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n as usize))
    }

    /// ACKs recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Forget every count, keeping the storage.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

/// The analyzer's scoreboard: outstanding segments in ascending offset
/// order. New data always enters at the tail and cumulative ACKs retire a
/// prefix, so a flat Vec with a head index gives O(1) amortized
/// insert/retire where a `BTreeMap` paid a tree rebalance per packet.
#[derive(Debug, Default)]
struct Outstanding {
    v: Vec<(u64, OutSeg)>,
    head: usize,
}

impl Outstanding {
    /// Drop all segments (live and retired prefix), keeping the storage.
    fn clear(&mut self) {
        self.v.clear();
        self.head = 0;
    }

    fn len(&self) -> usize {
        self.v.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.v.len() == self.head
    }

    fn live(&self) -> &[(u64, OutSeg)] {
        &self.v[self.head..]
    }

    fn live_mut(&mut self) -> &mut [(u64, OutSeg)] {
        &mut self.v[self.head..]
    }

    /// Lowest outstanding start offset.
    fn first_key(&self) -> Option<u64> {
        self.v.get(self.head).map(|(s, _)| *s)
    }

    /// Append a segment; offsets only ever grow.
    fn push(&mut self, seq: u64, seg: OutSeg) {
        debug_assert!(self.v.last().is_none_or(|(s, _)| *s < seq));
        self.v.push((seq, seg));
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut OutSeg> {
        let live = &mut self.v[self.head..];
        match live.binary_search_by_key(&seq, |(s, _)| *s) {
            Ok(i) => Some(&mut live[i].1),
            Err(_) => None,
        }
    }

    /// Mutable tail view: live entries with start offset ≥ `start`.
    fn tail_mut(&mut self, start: u64) -> &mut [(u64, OutSeg)] {
        let i = self.head + self.v[self.head..].partition_point(|(s, _)| *s < start);
        &mut self.v[i..]
    }

    /// Retire every live segment wholly below `ack`, calling `f` on each in
    /// ascending offset order. A partially-acked straggler (start below
    /// `ack`, end above) is kept in place, exactly like the old
    /// `range(..ack)` + filter on the `BTreeMap`.
    fn retire_below(&mut self, ack: u64, mut f: impl FnMut(u64, OutSeg)) {
        // Cumulative ACKs retire a short prefix, so a forward scan only
        // touches cache lines the retire loop reads anyway — where a binary
        // search probed O(log n) random lines per ACK.
        let mut end = self.head;
        while end < self.v.len() && self.v[end].0 < ack {
            end += 1;
        }
        let mut kept = 0usize;
        for i in self.head..end {
            let (seq, seg) = self.v[i];
            if seq + seg.len as u64 <= ack {
                f(seq, seg);
            } else {
                self.v[self.head + kept] = (seq, seg);
                kept += 1;
            }
        }
        // Slide the (rare) keepers up against the surviving suffix.
        for j in (0..kept).rev() {
            self.v[end - kept + j] = self.v[self.head + j];
        }
        self.head = end - kept;
        // Amortized compaction of the retired prefix.
        if self.head > 64 && self.head * 2 > self.v.len() {
            self.v.drain(..self.head);
            self.head = 0;
        }
    }
}

/// A point-in-time view of the reconstructed sender state, captured just
/// before a stall-ending packet is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Estimated congestion state.
    pub ca_state: EstCaState,
    /// Outstanding original transmissions (packets).
    pub packets_out: u32,
    /// SACKed segments.
    pub sacked_out: u32,
    /// Outstanding retransmissions.
    pub retrans_out: u32,
    /// Estimated lost segments.
    pub lost_est: u32,
    /// Unacked segments below the highest SACK (the paper's `holes`).
    pub holes: u32,
    /// Equation 1 of the paper.
    pub in_flight: u32,
    /// Last advertised peer window (bytes).
    pub rwnd: u64,
    /// Duplicate-ACK count since the last forward ACK.
    pub dupacks: u32,
}

/// A response interval within the flow (one request/response exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseBound {
    /// When the request (inbound data) arrived at the server.
    pub request_at: SimTime,
    /// First stream offset of the response.
    pub start_seq: u64,
    /// One past the last stream offset: the next response's start once
    /// that request arrives; the last response's is filled when the trace
    /// ends.
    pub end_seq: u64,
}

/// The full reconstruction of one flow.
#[derive(Debug)]
pub struct Replay {
    cfg: ReplayConfig,
    /// Per-segment lifetime history, by start offset.
    pub hist: SegHistory,
    outstanding: Outstanding,
    snd_una: u64,
    snd_nxt: u64,
    sacked_out: u32,
    lost_est: u32,
    retrans_out: u32,
    high_sacked: u64,
    dupacks: u32,
    ca_state: EstCaState,
    high_seq: u64,
    rtt: RttEstimator,
    last_rwnd: u64,
    /// Initial receive window from the client's SYN, if captured.
    pub init_rwnd: Option<u64>,
    /// True once a non-SYN packet has been seen.
    pub established: bool,
    /// RTT samples in µs (never-retransmitted segments only).
    pub rtt_sketch: QSketch,
    /// Exact sum of the RTT samples, µs.
    pub rtt_sum_us: u64,
    /// The RTO estimate recorded at each timeout retransmission.
    pub rto_samples: Vec<SimDuration>,
    /// `in_flight` recorded on each inbound ACK (Fig. 11).
    pub in_flight_on_ack: FlightHistogram,
    /// All observed retransmissions.
    pub retrans_events: Vec<RetransEvent>,
    /// DSACK count (spurious retransmissions).
    pub spurious: u32,
    /// Response intervals, in order.
    pub responses: Vec<ResponseBound>,
    /// Whether any inbound ACK advertised a zero window.
    pub zero_rwnd_seen: bool,
    /// When the server's SYN-ACK was sent (to seed SRTT from the handshake,
    /// as the kernel does).
    synack_at: Option<SimTime>,
}

impl Replay {
    /// A fresh reconstruction.
    pub fn new(cfg: ReplayConfig) -> Self {
        Replay {
            cfg,
            hist: SegHistory::default(),
            outstanding: Outstanding::default(),
            snd_una: 0,
            snd_nxt: 0,
            sacked_out: 0,
            lost_est: 0,
            retrans_out: 0,
            high_sacked: 0,
            dupacks: 0,
            ca_state: EstCaState::Open,
            high_seq: 0,
            rtt: RttEstimator::new(cfg.rtt()),
            last_rwnd: 0,
            init_rwnd: None,
            established: false,
            rtt_sketch: QSketch::new(),
            rtt_sum_us: 0,
            rto_samples: Vec::new(),
            in_flight_on_ack: FlightHistogram::default(),
            retrans_events: Vec::new(),
            spurious: 0,
            responses: Vec::new(),
            zero_rwnd_seen: false,
            synack_at: None,
        }
    }

    /// Rewind to a fresh reconstruction under `cfg`, keeping the backing
    /// storage of every per-flow collection (segment histories, scoreboard,
    /// sketch, histogram and event vectors) for reuse. A replay that is `reset` and
    /// then fed a trace produces bit-identical state to a new replay fed
    /// the same trace.
    pub fn reset(&mut self, cfg: ReplayConfig) {
        self.cfg = cfg;
        self.hist.clear();
        self.outstanding.clear();
        self.snd_una = 0;
        self.snd_nxt = 0;
        self.sacked_out = 0;
        self.lost_est = 0;
        self.retrans_out = 0;
        self.high_sacked = 0;
        self.dupacks = 0;
        self.ca_state = EstCaState::Open;
        self.high_seq = 0;
        self.rtt = RttEstimator::new(cfg.rtt());
        self.last_rwnd = 0;
        self.init_rwnd = None;
        self.established = false;
        self.rtt_sketch.clear();
        self.rtt_sum_us = 0;
        self.rto_samples.clear();
        self.in_flight_on_ack.clear();
        self.retrans_events.clear();
        self.spurious = 0;
        self.responses.clear();
        self.zero_rwnd_seen = false;
        self.synack_at = None;
    }

    /// Adopt light-tier estimates as the starting point of a fresh
    /// reconstruction — the mid-flow promotion path of two-tier monitoring.
    ///
    /// The stream offsets, RTT estimate and window state carry over, so the
    /// stall threshold is meaningful from the first post-promotion gap and
    /// a re-sent pre-promotion segment (below the seeded `snd_nxt`) counts
    /// as a retransmission through the existing history-miss path.
    /// Per-segment history and the scoreboard start empty: segments that
    /// were in flight at promotion retire silently as their ACKs arrive.
    pub fn seed(&mut self, seed: &crate::live::MonitorSeed) {
        self.snd_una = seed.snd_una;
        self.snd_nxt = seed.snd_nxt;
        self.high_seq = seed.snd_nxt;
        self.last_rwnd = seed.last_rwnd;
        self.init_rwnd = seed.init_rwnd;
        self.established = seed.established;
        self.zero_rwnd_seen = seed.zero_rwnd_seen;
        if seed.has_rtt {
            self.rtt.seed(
                SimDuration::from_micros(seed.srtt_us as u64),
                SimDuration::from_micros(seed.rttvar_us as u64),
            );
        }
    }

    // ------------------------------------------------------- observation

    /// Estimated congestion state.
    pub fn ca_state(&self) -> EstCaState {
        self.ca_state
    }

    /// Highest offset sent.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Highest cumulative ACK seen.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Smoothed RTT estimate, if any sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Current RTO estimate.
    pub fn rto(&self) -> SimDuration {
        self.rtt.rto()
    }

    /// The stall threshold `min(τ·SRTT, RTO)` with τ = 2 (the paper's
    /// definition); just the RTO before the first sample.
    pub fn stall_threshold(&self) -> SimDuration {
        match self.rtt.srtt() {
            Some(s) => s.saturating_mul(2).min(self.rtt.rto()),
            None => self.rtt.rto(),
        }
    }

    /// Equation 1.
    pub fn in_flight(&self) -> u32 {
        (self.outstanding.len() as u32 + self.retrans_out)
            .saturating_sub(self.sacked_out + self.lost_est)
    }

    /// Unacked segments wholly below the highest SACKed offset — the
    /// paper's `holes` parameter (reordered or dropped packets).
    pub fn holes(&self) -> u32 {
        self.outstanding
            .live()
            .iter()
            .filter(|(seq, seg)| !seg.sacked && *seq + seg.len as u64 <= self.high_sacked)
            .count() as u32
    }

    /// Snapshot the current state (taken just before a stall-ending packet).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ca_state: self.ca_state,
            packets_out: self.outstanding.len() as u32,
            sacked_out: self.sacked_out,
            retrans_out: self.retrans_out,
            lost_est: self.lost_est,
            holes: self.holes(),
            in_flight: self.in_flight(),
            rwnd: self.last_rwnd,
            dupacks: self.dupacks,
        }
    }

    // --------------------------------------------------------- processing

    /// Feed the next trace record (must be offered in time order). Returns
    /// the RTT sample the record took, if it took one.
    pub fn process(&mut self, idx: usize, rec: &TraceRecord) -> Option<SimDuration> {
        if rec.flags.syn {
            if rec.dir == Direction::In {
                self.init_rwnd = Some(rec.rwnd);
                self.last_rwnd = rec.rwnd;
            } else {
                self.synack_at = Some(rec.t);
            }
            return None;
        }
        if !self.established {
            // Seed SRTT from the handshake round trip (SYN-ACK → first ACK),
            // as the kernel does.
            if let (Direction::In, Some(sa)) = (rec.dir, self.synack_at.take()) {
                let sample = rec.t.saturating_since(sa);
                if !sample.is_zero() {
                    self.rtt.observe(sample);
                }
            }
            // The SYN's 16-bit window field is unscaled and clamps at 64KB;
            // the true initial receive window is the (scaled) one on the
            // handshake-completing ACK.
            if rec.dir == Direction::In && rec.flags.ack {
                self.init_rwnd = Some(rec.rwnd);
            }
        }
        self.established = true;
        match rec.dir {
            Direction::Out => {
                self.process_out(idx, rec);
                None
            }
            Direction::In => self.process_in(rec),
        }
    }

    fn process_out(&mut self, idx: usize, rec: &TraceRecord) {
        if !rec.has_data() {
            return;
        }
        if rec.seq < self.snd_nxt {
            self.observe_retransmission(idx, rec);
            return;
        }
        // New data (tolerate a gap if the capture missed packets).
        self.hist.push_new(rec.seq, rec.t);
        self.outstanding.push(
            rec.seq,
            OutSeg {
                len: rec.len,
                sacked: false,
                lost: false,
                retrans_out: false,
                retx: false,
                first_tx: rec.t,
            },
        );
        self.snd_nxt = rec.seq_end();
    }

    fn observe_retransmission(&mut self, idx: usize, rec: &TraceRecord) {
        let threshold = self.stall_threshold();
        let waited = self
            .hist
            .get(rec.seq)
            .map(|h| rec.t.saturating_since(h.last_tx));
        let silent_gap = waited.is_none_or(|w| w > threshold);

        // Classify the trigger, mirroring the sender's decision logic:
        //
        // * enough dupacks, or an ongoing Recovery (partial-ACK
        //   retransmissions) ⇒ fast retransmit;
        // * an ongoing Loss state ⇒ timeout-driven (follow-up
        //   retransmissions of the marked-lost queue do not constitute new
        //   timeout *events* unless a fresh silent gap precedes them);
        // * otherwise a retransmission after a silent gap is a timeout; a
        //   quick one without dupacks is a probe (TLP / S-RTO), which
        //   behaves like a fast retransmit (no window collapse).
        let dup = self.dupacks.max(self.sacked_out);
        // Only a retransmission of the *head* segment constitutes a new
        // timeout event; Loss-state follow-up retransmissions of the
        // marked-lost queue ride the same episode.
        let is_head =
            rec.seq <= self.snd_una || self.outstanding.first_key().is_some_and(|lo| rec.seq <= lo);
        let (kind, fresh_timeout) = if self.ca_state == EstCaState::Loss {
            (RetransKind::Timeout, silent_gap && is_head)
        } else if dup >= self.cfg.dupthres || self.ca_state == EstCaState::Recovery {
            (RetransKind::Fast, false)
        } else if silent_gap && is_head {
            (RetransKind::Timeout, true)
        } else {
            (RetransKind::Fast, false)
        };

        let nth;
        if let Some(h) = self.hist.get_mut(rec.seq) {
            h.tx_count += 1;
            nth = h.tx_count - 1;
            if h.first_retrans.is_none() {
                h.first_retrans = Some(kind);
            }
            h.last_tx = rec.t;
        } else {
            // Retransmission of a segment the capture never saw originally.
            self.hist.insert(
                rec.seq,
                SegHist {
                    last_tx: rec.t,
                    tx_count: 2,
                    first_retrans: Some(kind),
                    dsacked: false,
                },
            );
            nth = 1;
        }
        self.retrans_events.push(RetransEvent {
            idx,
            seq: rec.seq,
            nth,
            kind,
        });

        match kind {
            RetransKind::Timeout => {
                if fresh_timeout {
                    // The *observed* RTO: how long the sender actually
                    // waited since this segment's previous transmission
                    // (includes exponential backoff, as in Fig. 1).
                    self.rto_samples
                        .push(waited.unwrap_or_else(|| self.rtt.rto()));
                    self.ca_state = EstCaState::Loss;
                    self.high_seq = self.snd_nxt;
                    self.dupacks = 0;
                    // The sender marked everything outstanding lost.
                    for (_, seg) in self.outstanding.live_mut() {
                        if seg.retrans_out {
                            seg.retrans_out = false;
                            self.retrans_out -= 1;
                        }
                        if !seg.sacked && !seg.lost {
                            seg.lost = true;
                            self.lost_est += 1;
                        }
                    }
                }
            }
            RetransKind::Fast => {
                if self.ca_state != EstCaState::Recovery {
                    self.ca_state = EstCaState::Recovery;
                    self.high_seq = self.snd_nxt;
                }
            }
        }
        if let Some(seg) = self.outstanding.get_mut(rec.seq) {
            seg.retx = true; // Karn's rule: never RTT-sample this segment
            if !seg.lost && !seg.sacked {
                seg.lost = true;
                self.lost_est += 1;
            }
            if !seg.retrans_out {
                seg.retrans_out = true;
                self.retrans_out += 1;
            }
        }
    }

    fn process_in(&mut self, rec: &TraceRecord) -> Option<SimDuration> {
        let old_rwnd = self.last_rwnd;
        self.last_rwnd = rec.rwnd;
        if rec.rwnd == 0 {
            self.zero_rwnd_seen = true;
        }

        if rec.has_data() {
            // A request: close the open response interval and open a new
            // one at the current outbound high-water mark.
            if let Some(open) = self.responses.last_mut() {
                open.end_seq = self.snd_nxt;
            }
            self.responses.push(ResponseBound {
                request_at: rec.t,
                start_seq: self.snd_nxt,
                end_seq: u64::MAX,
            });
        }

        if !rec.flags.ack {
            return None;
        }

        // DSACK: spurious-retransmission evidence.
        if rec.dsack {
            self.spurious += 1;
            if let Some(b) = rec.sack.first() {
                if let Some(h) = self.hist.last_at_or_below_mut(b.start) {
                    h.dsacked = true;
                }
            }
        }

        // SACK marks.
        let blocks = if rec.dsack && !rec.sack.is_empty() {
            &rec.sack[1..]
        } else {
            &rec.sack[..]
        };
        let mut newly_sacked = 0u32;
        for b in blocks {
            self.high_sacked = self.high_sacked.max(b.end);
            for (seq, seg) in self.outstanding.tail_mut(b.start).iter_mut() {
                if *seq + seg.len as u64 > b.end {
                    break;
                }
                if seg.sacked {
                    continue;
                }
                seg.sacked = true;
                self.sacked_out += 1;
                newly_sacked += 1;
                if seg.lost {
                    seg.lost = false;
                    self.lost_est -= 1;
                }
                if seg.retrans_out {
                    seg.retrans_out = false;
                    self.retrans_out -= 1;
                }
            }
        }

        let mut rtt_sample = None;
        let advanced = rec.ack > self.snd_una;
        if advanced {
            // Retire fully acknowledged segments; sample RTT from the
            // highest never-retransmitted one.
            let sacked_out = &mut self.sacked_out;
            let lost_est = &mut self.lost_est;
            let retrans_out = &mut self.retrans_out;
            self.outstanding.retire_below(rec.ack, |_seq, seg| {
                if seg.sacked {
                    *sacked_out -= 1;
                }
                if seg.lost {
                    *lost_est -= 1;
                }
                if seg.retrans_out {
                    *retrans_out -= 1;
                }
                if !seg.retx {
                    rtt_sample = Some(rec.t.saturating_since(seg.first_tx));
                }
            });
            if let Some(s) = rtt_sample {
                self.rtt.observe(s);
                self.rtt_sketch.insert(s.as_micros());
                self.rtt_sum_us += s.as_micros();
            }
            self.snd_una = rec.ack;
            self.dupacks = 0;
            // State exits.
            if matches!(self.ca_state, EstCaState::Recovery | EstCaState::Loss)
                && self.snd_una >= self.high_seq
            {
                self.ca_state = if self.sacked_out > 0 {
                    EstCaState::Disorder
                } else {
                    EstCaState::Open
                };
            } else if self.ca_state == EstCaState::Disorder && self.sacked_out == 0 {
                self.ca_state = EstCaState::Open;
            }
        } else {
            let is_dup = !rec.has_data()
                && rec.ack == self.snd_una
                && !self.outstanding.is_empty()
                && (newly_sacked > 0 || (rec.sack.is_empty() && rec.rwnd == old_rwnd));
            if is_dup {
                self.dupacks += 1;
                if self.ca_state == EstCaState::Open {
                    self.ca_state = EstCaState::Disorder;
                }
                // In Recovery, keep estimating losses FACK-style.
                if self.ca_state == EstCaState::Recovery {
                    self.mark_lost_fack();
                }
            }
        }

        if !self.outstanding.is_empty() {
            self.in_flight_on_ack.record(self.in_flight());
        }
        rtt_sample
    }

    fn mark_lost_fack(&mut self) {
        let threshold = (self.cfg.dupthres.saturating_sub(1)) as u64 * self.cfg.mss as u64;
        let high = self.high_sacked;
        for (seq, seg) in self.outstanding.live_mut() {
            if *seq + seg.len as u64 + threshold > high {
                break;
            }
            if seg.sacked || seg.lost || seg.retrans_out {
                continue;
            }
            seg.lost = true;
            self.lost_est += 1;
        }
    }

    /// Close the reconstruction: the open response ends at `snd_nxt`.
    pub fn finish(&mut self) {
        if let Some(open) = self.responses.last_mut() {
            open.end_seq = self.snd_nxt;
        }
    }

    /// The response interval containing offset `seq`, if any.
    pub fn response_of(&self, seq: u64) -> Option<&ResponseBound> {
        self.responses
            .iter()
            .find(|r| seq >= r.start_seq && seq < r.end_seq.max(r.start_seq + 1))
    }

    /// Whether `seq` sits in the tail of its response: fewer than
    /// `dupthres` full segments follow it. Before [`Replay::finish`] the
    /// open response is taken to end at `snd_nxt`, as if the flow ended
    /// now.
    pub fn is_tail(&self, seq: u64, len: u32) -> bool {
        match self.response_of(seq) {
            Some(r) => {
                let end = seq + len as u64;
                let r_end = r.end_seq.min(self.snd_nxt);
                r_end.saturating_sub(end) < self.cfg.dupthres as u64 * self.cfg.mss as u64
            }
            None => true,
        }
    }

    /// Whether `seq` is the first segment of a response.
    pub fn is_head(&self, seq: u64) -> bool {
        self.responses.iter().any(|r| r.start_seq == seq)
    }

    /// The analyzer's config.
    pub fn config(&self) -> ReplayConfig {
        self.cfg
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

    fn in_sack(t_ms: u64, ack: u64, blocks: &[(u64, u64)]) -> TraceRecord {
        let mut r = in_ack(t_ms, ack);
        r.sack = blocks.iter().map(|&(a, b)| SackBlock::new(a, b)).collect();
        r
    }

    fn replay(recs: &[TraceRecord]) -> Replay {
        let mut rp = Replay::new(ReplayConfig::default());
        for (i, r) in recs.iter().enumerate() {
            rp.process(i, r);
        }
        rp.finish();
        rp
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn history_entries_stay_small() {
        // Every segment a flow ever sent keeps one log entry until the
        // flow ends, on the offline and live paths alike.
        assert!(TxLog::ENTRY_BYTES <= 8, "{} bytes", TxLog::ENTRY_BYTES);
    }

    #[test]
    fn tracks_snd_nxt_una_and_rtt() {
        let m = MSS as u64;
        let rp = replay(&[out_data(0, 0, MSS), out_data(1, m, MSS), in_ack(100, 2 * m)]);
        assert_eq!(rp.snd_nxt(), 2 * m);
        assert_eq!(rp.snd_una(), 2 * m);
        assert_eq!(rp.rtt_sketch.count(), 1);
        // Sample from the highest acked segment: 100 − 1 = 99ms.
        assert_eq!(rp.rtt_sum_us, 99_000);
        assert_eq!(rp.in_flight(), 0);
    }

    #[test]
    fn dupacks_drive_disorder_then_fast_retransmission() {
        let m = MSS as u64;
        let mut recs = vec![];
        for i in 0..5 {
            recs.push(out_data(i, i * m, MSS));
        }
        // Three SACK dupacks for a hole at 0.
        recs.push(in_sack(100, 0, &[(m, 2 * m)]));
        recs.push(in_sack(101, 0, &[(m, 3 * m)]));
        recs.push(in_sack(102, 0, &[(m, 4 * m)]));
        // The fast retransmission of 0.
        recs.push(out_data(103, 0, MSS));
        let rp = replay(&recs);
        assert_eq!(rp.ca_state(), EstCaState::Recovery);
        assert_eq!(rp.retrans_events.len(), 1);
        assert_eq!(rp.retrans_events[0].kind, RetransKind::Fast);
        assert_eq!(
            rp.hist.get(0).unwrap().first_retrans,
            Some(RetransKind::Fast)
        );
    }

    #[test]
    fn silent_retransmission_is_classified_timeout() {
        let m = MSS as u64;
        let rp = replay(&[
            out_data(0, 0, MSS),
            out_data(1, m, MSS),
            // No ACKs at all; the sender retransmits after its RTO.
            out_data(1200, 0, MSS),
        ]);
        assert_eq!(rp.retrans_events[0].kind, RetransKind::Timeout);
        assert_eq!(rp.ca_state(), EstCaState::Loss);
        assert_eq!(rp.rto_samples.len(), 1);
        // All outstanding marked lost ⇒ in_flight counts only the retrans.
        assert_eq!(rp.snapshot().lost_est, 2);
        assert_eq!(rp.in_flight(), 1);
    }

    #[test]
    fn recovery_exit_on_full_ack() {
        let m = MSS as u64;
        let mut recs = vec![];
        for i in 0..5 {
            recs.push(out_data(i, i * m, MSS));
        }
        recs.push(in_sack(100, 0, &[(m, 2 * m)]));
        recs.push(in_sack(101, 0, &[(m, 3 * m)]));
        recs.push(in_sack(102, 0, &[(m, 4 * m)]));
        recs.push(out_data(103, 0, MSS));
        recs.push(in_ack(200, 5 * m));
        let rp = replay(&recs);
        assert_eq!(rp.ca_state(), EstCaState::Open);
        assert_eq!(rp.in_flight(), 0);
    }

    #[test]
    fn dsack_marks_segment_spurious() {
        let m = MSS as u64;
        let mut recs = vec![
            out_data(0, 0, MSS),
            out_data(1, m, MSS),
            out_data(400, 0, MSS), // timeout retransmission
        ];
        let mut d = in_ack(450, 2 * m);
        d.sack = [SackBlock::new(0, m)].into();
        d.dsack = true;
        recs.push(d);
        let rp = replay(&recs);
        assert_eq!(rp.spurious, 1);
        assert!(rp.hist.get(0).unwrap().dsacked);
    }

    #[test]
    fn responses_bound_head_and_tail() {
        let m = MSS as u64;
        let mut req1 =
            TraceRecord::data(SimTime::from_millis(0), Direction::In, 0, 300, 0, 1 << 20);
        req1.flags = SegFlags::ACK;
        let mut req2 = TraceRecord::data(
            SimTime::from_millis(500),
            Direction::In,
            300,
            300,
            4 * m,
            1 << 20,
        );
        req2.flags = SegFlags::ACK;
        let recs = vec![
            req1,
            out_data(10, 0, MSS),
            out_data(11, m, MSS),
            out_data(12, 2 * m, MSS),
            out_data(13, 3 * m, MSS),
            in_ack(110, 4 * m),
            req2,
            out_data(510, 4 * m, MSS),
            out_data(511, 5 * m, MSS),
        ];
        let rp = replay(&recs);
        assert_eq!(rp.responses.len(), 2);
        assert_eq!(rp.responses[0].start_seq, 0);
        assert_eq!(rp.responses[0].end_seq, 4 * m);
        assert_eq!(rp.responses[1].start_seq, 4 * m);
        assert!(rp.is_head(0));
        assert!(rp.is_head(4 * m));
        assert!(!rp.is_head(m));
        // Tail: fewer than 3 MSS after the segment within its response.
        assert!(rp.is_tail(3 * m, MSS));
        assert!(rp.is_tail(2 * m, MSS)); // 1 seg after < 3
        assert!(!rp.is_tail(0, MSS)); // 3 segs after
    }

    #[test]
    fn init_rwnd_from_syn_and_zero_window_tracking() {
        let mut syn = TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 0, 4096);
        syn.flags = SegFlags::SYN;
        let mut zero = in_ack(100, 0);
        zero.rwnd = 0;
        let rp = replay(&[syn, out_data(10, 0, MSS), zero]);
        assert_eq!(rp.init_rwnd, Some(4096));
        assert!(rp.zero_rwnd_seen);
    }

    #[test]
    fn stall_threshold_uses_min_of_2srtt_and_rto() {
        let m = MSS as u64;
        let mut rp = Replay::new(ReplayConfig::default());
        assert_eq!(rp.stall_threshold(), SimDuration::from_secs(1));
        rp.process(0, &out_data(0, 0, MSS));
        rp.process(1, &in_ack(100, m));
        // srtt = 100ms ⇒ 2·SRTT = 200ms < RTO = 300ms.
        assert_eq!(rp.stall_threshold(), SimDuration::from_millis(200));
    }

    #[test]
    fn in_flight_samples_collected_per_ack() {
        let m = MSS as u64;
        let rp = replay(&[
            out_data(0, 0, MSS),
            out_data(1, m, MSS),
            out_data(2, 2 * m, MSS),
            in_ack(100, m),
            in_ack(101, 2 * m),
        ]);
        assert_eq!(rp.in_flight_on_ack.values().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(rp.in_flight_on_ack.count(), 2);
    }

    // ------------------------------------------------ split-history exactness

    /// splitmix64: the seeded generator of the differential tests.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A history that files every segment in one full map, the way the
    /// replay kept histories before the transmit log.
    fn full_map() -> SegHistory {
        SegHistory {
            full_map: true,
            ..SegHistory::default()
        }
    }

    /// The offsets a record touches, and one either side of each.
    fn record_probes(rec: &TraceRecord) -> Vec<u64> {
        let mut at = vec![rec.seq, rec.seq_end(), rec.ack];
        at.extend(rec.sack.iter().flat_map(|b| [b.start, b.end]));
        at.iter()
            .flat_map(|&p| [p.saturating_sub(1), p, p.saturating_add(1)])
            .collect()
    }

    /// `split` answers `get` and `last_at_or_below_mut` as `full` does at
    /// every probe. The mutable lookups run on copies, so probing never
    /// moves an entry out of the log.
    fn assert_same_answers(split: &SegHistory, full: &SegHistory, probes: &[u64]) {
        for &p in probes {
            assert_eq!(split.get(p), full.get(p), "get({p})");
            let (mut s, mut f) = (split.clone(), full.clone());
            assert_eq!(
                s.last_at_or_below_mut(p).copied(),
                f.last_at_or_below_mut(p).copied(),
                "last_at_or_below_mut({p})"
            );
        }
    }

    /// Feed `recs` to a replay with the split history and to one with a
    /// full map, both seeded from `seed` if given: every answer after
    /// every record, and every offset the full map holds at the end, must
    /// agree. Then the same through two [`crate::StreamAnalyzer`]s:
    /// provisional stalls and the finished [`crate::FlowAnalysis`] must be
    /// equal. Returns the split replay for the caller's own checks.
    fn assert_split_exact(seed: Option<&crate::live::MonitorSeed>, recs: &[TraceRecord]) -> Replay {
        let cfg = ReplayConfig::default();
        let (mut split, mut full) = (Replay::new(cfg), Replay::new(cfg));
        full.hist = full_map();
        if let Some(seed) = seed {
            split.seed(seed);
            full.seed(seed);
        }
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(split.process(i, rec), full.process(i, rec), "record {i}");
            assert_same_answers(&split.hist, &full.hist, &record_probes(rec));
        }
        assert!(full.hist.log.is_empty());
        let mut probes = vec![0, u64::MAX];
        for (k, _) in full.hist.changed.iter() {
            probes.extend([k.saturating_sub(1), k, k + 1]);
        }
        assert_same_answers(&split.hist, &full.hist, &probes);
        assert_eq!(split.retrans_events, full.retrans_events);

        let acfg = crate::AnalyzerConfig::default();
        let analyzer = || match seed {
            Some(seed) => crate::StreamAnalyzer::seeded(acfg, seed),
            None => crate::StreamAnalyzer::new(acfg),
        };
        let (mut a, mut b) = (analyzer(), analyzer());
        b.replay_mut().hist = full_map();
        for rec in recs {
            assert_eq!(a.push(rec), b.push(rec));
        }
        assert_eq!(a.finish(), b.finish());
        split
    }

    /// Segments `0..n` sent 1 ms apart from `t0_ms`.
    fn burst(t0_ms: u64, from: u64, n: u64) -> Vec<TraceRecord> {
        let m = MSS as u64;
        (0..n)
            .map(|k| out_data(t0_ms + k, (from + k) * m, MSS))
            .collect()
    }

    fn dsack(t_ms: u64, ack: u64, start: u64, end: u64) -> TraceRecord {
        let mut d = in_sack(t_ms, ack, &[(start, end)]);
        d.dsack = true;
        d
    }

    #[test]
    fn split_history_is_exact_on_crafted_cases() {
        let m = MSS as u64;
        // A retransmission below snd_una, and a DSACK far below it.
        let mut recs = burst(0, 0, 40);
        recs.push(in_ack(100, 40 * m));
        recs.push(out_data(101, 3 * m, MSS));
        recs.push(dsack(150, 40 * m, 5 * m + 100, 6 * m));
        recs.push(dsack(151, 40 * m, 3 * m, 4 * m));
        let rp = assert_split_exact(None, &recs);
        assert_eq!(rp.hist.get(3 * m).unwrap().tx_count, 2);
        assert!(rp.hist.get(5 * m).unwrap().dsacked);
        assert_eq!(rp.hist.changed.len(), 2, "only the two changed segments");

        // A retransmission that starts inside a logged segment, then
        // DSACKs on either side of its start.
        let mut recs = burst(0, 0, 10);
        recs.push(out_data(1300, 2 * m + 700, MSS - 700));
        recs.push(dsack(1400, 0, 2 * m + 800, 3 * m));
        recs.push(dsack(1401, 0, 2 * m + 200, 2 * m + 700));
        recs.push(in_ack(1402, 10 * m));
        let rp = assert_split_exact(None, &recs);
        assert!(rp.hist.get(2 * m + 700).unwrap().dsacked);
        assert!(rp.hist.get(2 * m).unwrap().dsacked);

        // A capture gap, a 5 GiB jump, a 73 min jump, and both at once:
        // each jump overflows a delta and opens a block.
        let (gib5, min73) = (5 << 30, 73 * 60 * 1000);
        let mut recs = burst(0, 0, 5);
        recs.extend(burst(10, 50, 5));
        recs.extend(burst(20, gib5 / m, 5));
        recs.extend(burst(min73, gib5 / m + 5, 5));
        recs.extend(burst(2 * min73, 2 * gib5 / m, 5));
        recs.push(out_data(2 * min73 + 10, gib5 + m, MSS));
        recs.push(dsack(2 * min73 + 20, 0, gib5 + 2 * m, gib5 + 3 * m));
        recs.push(dsack(2 * min73 + 21, 0, gib5 - 1, gib5));
        recs.push(dsack(2 * min73 + 22, 0, 2 * gib5 - 1, 2 * gib5));
        let rp = assert_split_exact(None, &recs);
        assert_eq!(rp.hist.log.blocks.len(), 4);
        assert_eq!(rp.hist.log.len(), 25);

        // Time running backwards opens a block too.
        let mut recs = burst(50, 0, 3);
        recs.extend(burst(10, 3, 3));
        let rp = assert_split_exact(None, &recs);
        assert_eq!(rp.hist.log.blocks.len(), 2);
    }

    #[test]
    fn new_data_below_the_log_answers_as_one_map() {
        // The replay never sends new data below what it logged, but the
        // history answers as one full map whatever the order.
        let (mut split, mut full) = (SegHistory::default(), full_map());
        let t = SimTime::from_millis;
        for (seq, ms) in [(100, 1), (300, 2), (200, 3), (300, 4), (50, 5), (400, 6)] {
            split.push_new(seq, t(ms));
            full.push_new(seq, t(ms));
        }
        let probes: Vec<u64> = (0..=500).collect();
        assert_same_answers(&split, &full, &probes);
        assert_eq!(split.log.len(), 3);
    }

    #[test]
    fn split_history_is_exact_after_a_monitor_seed() {
        let m = MSS as u64;
        let seed = crate::live::MonitorSeed {
            srtt_us: 40_000,
            rttvar_us: 20_000,
            has_rtt: true,
            snd_una: 20 * m,
            snd_nxt: 30 * m,
            last_rwnd: 1 << 20,
            init_rwnd: Some(1 << 20),
            established: true,
            zero_rwnd_seen: false,
        };
        // Re-sent pre-promotion segments (history misses), new data, and
        // DSACKs on both sides of the seeded snd_nxt.
        let mut recs = burst(0, 30, 10);
        recs.push(out_data(300, 22 * m, MSS));
        recs.push(out_data(301, 25 * m + 9, MSS));
        recs.push(in_sack(340, 20 * m, &[(30 * m, 34 * m)]));
        recs.push(dsack(350, 40 * m, 22 * m, 23 * m));
        recs.push(dsack(351, 40 * m, 35 * m + 1, 36 * m));
        recs.push(dsack(352, 40 * m, 10 * m, 11 * m));
        let rp = assert_split_exact(Some(&seed), &recs);
        assert_eq!(rp.hist.changed.len(), 3);
        assert_eq!(rp.hist.log.len(), 10);
    }

    /// Seeded flows over lossy paths, each also cut, shifted and spliced
    /// with retransmissions and DSACKs the sender never sent.
    #[test]
    fn split_history_is_exact_on_seeded_and_mutated_traces() {
        use simnet::loss::LossSpec;
        use tcp_sim::recovery::RecoveryMechanism;
        use workloads::{simulate_flow, FlowSpec, PathSpec};

        let mut rng = 0x7a90_5eed_u64;
        let mut checked = 0;
        for seed in 0..12u64 {
            let path = PathSpec {
                rtt: SimDuration::from_millis(20 + 30 * (seed % 4)),
                jitter: SimDuration::from_millis(seed % 3 * 10),
                loss: if seed % 2 == 0 {
                    LossSpec::bursty(0.04, SimDuration::from_millis(100))
                } else {
                    LossSpec::bernoulli(0.03)
                },
                ..PathSpec::default()
            };
            let spec = FlowSpec::response_bytes(60_000 + 40_000 * (seed % 5));
            let trace = simulate_flow(&spec, &path, RecoveryMechanism::Native, seed).trace;
            let recs = trace.records;
            assert_split_exact(None, &recs);

            let n = recs.len();
            let mut pick = |below: usize| splitmix64(&mut rng) as usize % below.max(1);
            let data: Vec<usize> = (0..n)
                .filter(|&i| recs[i].dir == Direction::Out && recs[i].has_data())
                .collect();
            // A capture gap.
            let (j, w) = (pick(n), 1 + pick(20));
            let gap: Vec<_> = recs[..j]
                .iter()
                .chain(recs[(j + w).min(n)..].iter())
                .copied()
                .collect();
            assert_split_exact(None, &gap);
            // Everything from `j` on, moved 5 GiB and 73 min later.
            let shifted: Vec<_> = recs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let mut r = *r;
                    if i >= j {
                        r.t = SimTime::from_micros(r.t.as_micros() + 73 * 60 * 1_000_000);
                        r.seq += 5 << 30;
                        r.ack += 5 << 30;
                        r.sack = r
                            .sack
                            .iter()
                            .map(|b| SackBlock::new(b.start + (5 << 30), b.end + (5 << 30)))
                            .collect();
                    }
                    r
                })
                .collect();
            assert_split_exact(None, &shifted);
            // Spliced-in retransmissions (whole and from inside a
            // segment) and DSACKs of earlier data, late in the flow.
            let mut spliced = recs.clone();
            for _ in 0..6 {
                let src = recs[data[pick(data.len())]];
                let at = pick(spliced.len());
                let t = spliced[at].t;
                let mut re = src;
                re.t = t;
                match pick(3) {
                    0 => {}
                    1 => {
                        let cut = 1 + pick(re.len as usize - 1) as u32;
                        re.seq += cut as u64;
                        re.len -= cut;
                    }
                    _ => {
                        let off = pick(re.len as usize) as u64;
                        re = dsack(0, src.seq_end(), src.seq + off, src.seq_end());
                        re.t = t;
                    }
                }
                spliced.insert(at, re);
            }
            assert_split_exact(None, &spliced);
            // Promotion partway: seed from the replay's state at `j`.
            let mut pre = Replay::new(ReplayConfig::default());
            for (i, r) in recs[..j].iter().enumerate() {
                pre.process(i, r);
            }
            let srtt = pre.srtt().map_or(0, |d| d.as_micros() as u32);
            let seed = crate::live::MonitorSeed {
                srtt_us: srtt,
                rttvar_us: srtt / 2,
                has_rtt: pre.srtt().is_some(),
                snd_una: pre.snd_una(),
                snd_nxt: pre.snd_nxt(),
                last_rwnd: pre.last_rwnd,
                init_rwnd: pre.init_rwnd,
                established: pre.established,
                zero_rwnd_seen: pre.zero_rwnd_seen,
            };
            assert_split_exact(Some(&seed), &recs[j..]);
            checked += 1;
        }
        assert_eq!(checked, 12);
    }
}
