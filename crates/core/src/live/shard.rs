//! Shard-owned flow state: the complete live front end for one slice of
//! the flow space.
//!
//! Each shard runs a [`ShardEngine`] owning every per-flow structure for
//! the virtual cells it is responsible for: the flow map, slot slab,
//! sequence trackers, light-tier rows ([`LightTable`]), the heavy
//! flows' analyzers, a lazy timer heap, per-cell LRU lanes, and the
//! dead-key map. *All* lifecycle decisions — admit, 4-tuple-reuse
//! displacement, FIN/RST linger, idle eviction, LRU shedding, light↔heavy
//! promotion/demotion — are made locally by the owning engine; the driver
//! only decodes packets, routes them by [`super::cell_of`], and merges
//! interval sub-reports.
//!
//! Determinism at any shard count is *by construction*:
//! * a flow's cell depends only on its key and the cell count, and a cell
//!   is wholly owned by exactly one shard (`cell % shards`), so every
//!   cross-flow decision (shed victim, quota denial) sees the same
//!   cell-local state regardless of how cells are spread over shards;
//! * global `max_flows`/`heavy_max` caps are split into fixed per-cell
//!   quotas ([`cell_quota`]) that sum exactly to the cap — no runtime
//!   coordination, identical admission at any shard count;
//! * timer evictions are attributed to intervals identically because an
//!   engine advances its timers at each of its own packets *and* at each
//!   [`Work::Cut`] barrier, and dead-key expiries derive from the flow's
//!   deterministic deadline, never from when a timer happened to fire;
//! * every [`IntervalDelta`] field is a commutative integer merge, and
//!   the driver folds them in canonical shard order at each cut.
//!
//! An analyzer lives and dies with its heavy flow: it is created when the
//! flow is admitted (always-heavy) or promoted, and
//! [`crate::StreamAnalyzer::finish`] consumes it when the flow finalizes
//! or is demoted, so heavy-tier memory follows the flows open now, never
//! the largest flow seen before. Emptied work-batch buffers are pushed
//! back to the driver on a reverse ring, so a long-running shard reaches a
//! steady state with zero per-batch allocation.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;

use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::{PcapPacket, SeqTracker};
use tcp_trace::record::{RecordSink, TraceRecord};

use crate::fleet::sketch::QSketch;
use crate::live::cell_of;
use crate::live::fnv::FoldState;
use crate::live::lru::LruList;
use crate::live::monitor::{LightTable, TierConfig};
use crate::live::ring::{RingConsumer, RingProducer};
use crate::live::wheel::{TimerEntry, TimerHeap};
use crate::report::StallBreakdown;
use crate::{AnalyzerConfig, FlowAnalysis, StreamAnalyzer};

/// Stragglers on an evicted key are dropped (and counted) for this long
/// before the key is forgotten and a new packet may reopen it as a flow.
pub(super) const DEAD_TTL_US: u64 = 60_000_000;

/// One unit of work for a shard, issued by the driver in capture order.
#[derive(Debug, Clone)]
pub enum Work {
    /// One decoded packet for a flow this shard owns. `gidx` is the
    /// packet's global capture index; a flow admitted by this packet gets
    /// `uid = gidx`, so uids are unique and monotone in admission order
    /// with no cross-shard coordination.
    Pkt {
        /// Global capture index of this packet (monotone over the run).
        gidx: u64,
        /// The decoded packet.
        pkt: PcapPacket,
    },
    /// Interval barrier: advance timers to `now_us` (the capture time of
    /// the packet that triggered the cut), take the delta, reply.
    Cut {
        /// Interval sequence number (matched by the driver).
        seq: u64,
        /// Capture time of the cut trigger.
        now_us: u64,
    },
    /// End of capture at `now_us`: run timers one last time, then
    /// finalize everything still open, oldest flow first.
    Eof {
        /// Capture time of the last decoded packet.
        now_us: u64,
    },
}

/// What a shard accumulated since the previous cut — the mergeable
/// interval sub-report. All fields merge commutatively, so folding deltas
/// in canonical shard order yields the same aggregate at any shard count.
#[derive(Debug, Default, Clone)]
pub struct IntervalDelta {
    /// Packets processed.
    pub packets: u64,
    /// Packets dropped because their flow was already evicted or shed.
    pub packets_late: u64,
    /// Flows admitted.
    pub flows_opened: u64,
    /// Flows finalized for any reason.
    pub flows_finalized: u64,
    /// Finalized after FIN/RST (teardown or a reopening SYN).
    pub flows_closed: u64,
    /// Finalized by idle timeout.
    pub flows_evicted_idle: u64,
    /// Finalized by LRU shedding at a cell's flow quota.
    pub flows_shed: u64,
    /// Finalized because the capture ended (only in the final interval).
    pub flows_eof: u64,
    /// Light→heavy escalations.
    pub promotions: u64,
    /// Heavy→light hysteresis demotions.
    pub demotions: u64,
    /// Suspicious flows left light because their cell's heavy quota was
    /// full.
    pub promotions_denied: u64,
    /// Stalls the heavy analyzers detected as their ending packets
    /// arrived (live early warning; their causes are decided when the
    /// flows finish).
    pub live_stalls: u64,
    /// Stall breakdown over the flows finalized *or demoted* in this
    /// interval.
    pub breakdown: StallBreakdown,
    /// Per-server-port slice of the interval, sorted by port. Commutative
    /// keyed merge, so the fold is shard-count-independent like every
    /// other field.
    pub by_port: Vec<(u16, PortDelta)>,
    /// RTT samples (µs) of the flows finalized or demoted this interval.
    /// [`QSketch`] merges are partition-invariant bucket additions, so
    /// this field folds as deterministically as the integer counters.
    pub rtt_sketch: QSketch,
    /// Stall durations (µs) of the flows finalized or demoted this
    /// interval, same merge discipline.
    pub stall_sketch: QSketch,
}

/// One server port's share of an interval: flows finalized on it, and the
/// stalls diagnosed on those (plus demoted-episode) flows. In synthetic
/// captures the port identifies the service (`tapo advise` keys on it);
/// in real captures it is whatever the server listens on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortDelta {
    /// Flows finalized with this server port.
    pub flows: u64,
    /// Stalls in the analyses folded for this port (heavy flows only —
    /// light finalizes are undiagnosed by design).
    pub stalls: u64,
    /// Total stalled time of those stalls, microseconds.
    pub stalled_us: u64,
}

impl PortDelta {
    fn merge(&mut self, other: &PortDelta) {
        self.flows += other.flows;
        self.stalls += other.stalls;
        self.stalled_us += other.stalled_us;
    }
}

impl IntervalDelta {
    /// Fold another delta in (order-insensitive).
    pub fn merge(&mut self, other: &IntervalDelta) {
        self.packets += other.packets;
        self.packets_late += other.packets_late;
        self.flows_opened += other.flows_opened;
        self.flows_finalized += other.flows_finalized;
        self.flows_closed += other.flows_closed;
        self.flows_evicted_idle += other.flows_evicted_idle;
        self.flows_shed += other.flows_shed;
        self.flows_eof += other.flows_eof;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.promotions_denied += other.promotions_denied;
        self.live_stalls += other.live_stalls;
        self.breakdown.merge(&other.breakdown);
        merge_by_port(&mut self.by_port, &other.by_port);
        self.rtt_sketch.merge(&other.rtt_sketch);
        self.stall_sketch.merge(&other.stall_sketch);
    }

    /// The entry for `port`, inserted in sorted position if absent.
    pub fn port_entry(&mut self, port: u16) -> &mut PortDelta {
        port_entry(&mut self.by_port, port)
    }
}

/// The entry for `port` in a sorted per-port list, inserted if absent.
fn port_entry(list: &mut Vec<(u16, PortDelta)>, port: u16) -> &mut PortDelta {
    let idx = match list.binary_search_by_key(&port, |(p, _)| *p) {
        Ok(i) => i,
        Err(i) => {
            list.insert(i, (port, PortDelta::default()));
            i
        }
    };
    &mut list[idx].1
}

/// Keyed commutative merge of two sorted per-port lists (the driver also
/// uses this to fold interval slices into the run summary, and `tapo
/// fleet` to fold records into buckets).
pub fn merge_by_port(dst: &mut Vec<(u16, PortDelta)>, src: &[(u16, PortDelta)]) {
    for (port, d) in src {
        port_entry(dst, *port).merge(d);
    }
}

/// A shard's answer to a [`Work::Cut`].
#[derive(Debug)]
pub struct ShardMsg {
    /// Which shard sent this (the driver merges in ascending order).
    pub shard: usize,
    /// Echo of the cut's sequence number.
    pub seq: u64,
    /// Everything accumulated since the previous cut.
    pub delta: IntervalDelta,
    /// Flows currently tracked by this shard.
    pub active: u64,
    /// Of those, flows currently holding a heavy analyzer.
    pub heavy: u64,
}

/// Whole-run totals an engine reports when it shuts down.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    /// Sum over this engine's cells of each cell's concurrent-flow
    /// high-water mark (summed across shards this bounds peak tracked
    /// flows, exactly `≤ max_flows` when capped, and is identical at any
    /// shard count because cells are).
    pub active_hw: u64,
    /// Sum over this engine's cells of each cell's concurrent-heavy
    /// high-water mark (bounds how many analyzers were ever alive at once;
    /// `≤ heavy_max` when capped).
    pub heavy_hw: u64,
}

/// Feed `rec` to a heavy flow's analyzer through the step that detects
/// stalls without classifying them, and count the stalls it ended (0 or
/// 1). Causes are decided once, when the flow finishes.
fn detect(analyzer: &mut StreamAnalyzer, rec: &TraceRecord) -> u64 {
    let before = analyzer.stalls_detected();
    analyzer.record(rec);
    (analyzer.stalls_detected() - before) as u64
}

/// Why an engine finalized a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// FIN/RST seen and the linger expired.
    Teardown,
    /// FIN/RST seen, then a reopening SYN displaced it (4-tuple reuse).
    Displaced,
    /// Idle timeout.
    Idle,
    /// LRU-shed at the cell's flow quota.
    Shed,
    /// Capture ended while the flow was open.
    Eof,
}

/// Cell `cell`'s share of a global cap of `total` over `ncells` cells:
/// `total / ncells`, with the remainder spread over the lowest-numbered
/// cells so the quotas sum to `total` exactly. `total == 0` (unbounded)
/// maps to an effectively-infinite quota.
fn cell_quota(total: usize, ncells: usize, cell: usize) -> u32 {
    if total == 0 {
        return u32::MAX;
    }
    (total / ncells + usize::from(cell < total % ncells)).min(u32::MAX as usize) as u32
}

/// Everything a [`ShardEngine`] needs to know at construction — plain
/// copies of the validated [`super::LiveConfig`] knobs plus this engine's
/// place in the cell→shard mapping.
#[derive(Debug, Clone, Copy)]
pub struct EngineParams {
    /// Per-flow analyzer parameters.
    pub analyzer: AnalyzerConfig,
    /// Keep finalized analyses for collection (unbounded memory; tests).
    pub collect: bool,
    /// `Some` enables two-tier monitoring with these thresholds.
    pub tier: Option<TierConfig>,
    /// Idle-eviction timeout in µs; `None` disables.
    pub idle_us: Option<u64>,
    /// FIN/RST linger in µs; `None` keeps closed flows until idle/EOF.
    pub linger_us: Option<u64>,
    /// Total virtual cells (shard-count-independent; ≥ 1).
    pub ncells: usize,
    /// Physical shard count (stride of the cell→lane mapping).
    pub shards: usize,
    /// This engine's shard index (owns cells ≡ `shard` mod `shards`).
    pub shard: usize,
    /// Global flow cap (0 = unbounded), split into per-cell quotas.
    pub max_flows: usize,
    /// Feed finalized/demoted analyses into the delta's RTT and
    /// stall-duration sketches.
    pub sketch: bool,
}

struct EngineFlow {
    key: FlowKey,
    uid: u64,
    /// Recency lane == index of the flow's cell among this engine's owned
    /// cells (`cell / shards`).
    lane: u32,
    tracker: SeqTracker,
    closed: bool,
    /// The flow's analyzer while it is heavy, `None` while it is light.
    /// Boxed so a light flow's slot stays small.
    heavy: Option<Box<StreamAnalyzer>>,
    /// Authoritative eviction deadline; `u64::MAX` = none.
    deadline_us: u64,
    /// Earliest outstanding timer entry (lazy-timer bookkeeping).
    timer_deadline_us: u64,
}

/// One shard's complete live front end. The driver owns one inline when
/// `--shards 1` (no rings, no threads) and [`shard_worker`] owns one per
/// worker thread otherwise; the state machine is byte-for-byte the same
/// either way.
pub struct ShardEngine {
    analyzer_cfg: AnalyzerConfig,
    collect: bool,
    sketch: bool,
    tier: Option<TierConfig>,
    idle_us: Option<u64>,
    linger_us: Option<u64>,
    ncells: usize,
    shards: usize,
    shard: usize,
    /// Per-owned-cell (lane-indexed) admission quotas; sum over all
    /// engines = `max_flows` exactly.
    flow_quota: Vec<u32>,
    /// Per-owned-cell heavy quotas; sum = `tier.heavy_max` exactly.
    heavy_quota: Vec<u32>,
    /// Current heavy count per lane (quota enforcement).
    lane_heavy: Vec<u32>,
    /// Per-lane concurrent-flow / concurrent-heavy high-water marks.
    active_hw: Vec<u32>,
    heavy_hw: Vec<u32>,
    heavy_total: usize,

    map: HashMap<FlowKey, u32, FoldState>,
    slots: Vec<Option<EngineFlow>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    light: LightTable,
    lru: LruList,
    timers: TimerHeap,
    expired: Vec<TimerEntry>,
    dead: HashMap<FlowKey, u64, FoldState>,
    dead_q: VecDeque<(u64, FlowKey)>,
    /// Earliest expiry in `dead_q` (`u64::MAX` when empty): the per-packet
    /// purge check is a register compare, not a deque probe.
    dead_next_us: u64,

    delta: IntervalDelta,
    collected: Vec<(u64, FlowKey, FlowAnalysis)>,
}

impl ShardEngine {
    /// An empty engine owning the cells `≡ p.shard (mod p.shards)`.
    pub fn new(p: EngineParams) -> ShardEngine {
        // Owned cells are shard, shard+shards, …; lane l ↔ cell
        // shard + l·shards.
        let nlanes = if p.shard < p.ncells {
            (p.ncells - p.shard).div_ceil(p.shards)
        } else {
            0
        };
        let cell = |l: usize| p.shard + l * p.shards;
        let flow_quota: Vec<u32> = (0..nlanes)
            .map(|l| cell_quota(p.max_flows, p.ncells, cell(l)))
            .collect();
        let heavy_max = p.tier.map_or(0, |t| t.heavy_max);
        let heavy_quota: Vec<u32> = (0..nlanes)
            .map(|l| cell_quota(heavy_max, p.ncells, cell(l)))
            .collect();
        ShardEngine {
            analyzer_cfg: p.analyzer,
            collect: p.collect,
            sketch: p.sketch,
            tier: p.tier,
            idle_us: p.idle_us,
            linger_us: p.linger_us,
            ncells: p.ncells,
            shards: p.shards.max(1),
            shard: p.shard,
            flow_quota,
            heavy_quota,
            lane_heavy: vec![0; nlanes],
            active_hw: vec![0; nlanes],
            heavy_hw: vec![0; nlanes],
            heavy_total: 0,
            map: HashMap::default(),
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            light: LightTable::new(p.analyzer.replay),
            lru: LruList::new(nlanes),
            timers: TimerHeap::default(),
            expired: Vec::new(),
            dead: HashMap::default(),
            dead_q: VecDeque::new(),
            dead_next_us: u64::MAX,
            delta: IntervalDelta::default(),
            collected: Vec::new(),
        }
    }

    /// Close a heavy episode: fold its analysis into the interval
    /// (breakdown, sketches, per-port stalls) and give its place in the
    /// lane's heavy quota back. Shared by the finalize and demote paths so
    /// no diagnosed episode is lost.
    fn close_heavy(&mut self, lane: u32, port: u16, analysis: &FlowAnalysis) {
        self.delta.breakdown.add_flow(analysis);
        if self.sketch {
            for s in &analysis.stalls {
                self.delta.stall_sketch.insert(s.duration.as_micros());
            }
            self.delta.rtt_sketch.merge(&analysis.rtt_sketch);
        }
        let entry = self.delta.port_entry(port);
        entry.stalls += analysis.stalls.len() as u64;
        entry.stalled_us += analysis
            .stalls
            .iter()
            .map(|s| s.duration.as_micros())
            .sum::<u64>();
        self.lane_heavy[lane as usize] -= 1;
        self.heavy_total -= 1;
    }

    fn timers_enabled(&self) -> bool {
        self.idle_us.is_some() || self.linger_us.is_some()
    }

    fn deadline_for(&self, closed: bool, now_us: u64) -> u64 {
        let d = if closed {
            self.linger_us.or(self.idle_us)
        } else {
            self.idle_us
        };
        match d {
            Some(x) => now_us.saturating_add(x),
            None => u64::MAX,
        }
    }

    /// Set the slot's deadline, scheduling a timer entry if it moved
    /// earlier than the earliest outstanding one (lazy timers: pushes to a
    /// *later* deadline are resolved when the stale entry fires).
    fn arm(&mut self, slot: u32, deadline_us: u64) {
        let flow = self.slots[slot as usize].as_mut().expect("occupied");
        flow.deadline_us = deadline_us;
        if deadline_us != u64::MAX && deadline_us < flow.timer_deadline_us {
            flow.timer_deadline_us = deadline_us;
            self.timers
                .schedule((deadline_us, slot, self.gens[slot as usize]));
        }
    }

    /// Give the flow in `slot` a fresh heavy analyzer, seeded from the
    /// light row on promotion.
    fn open_heavy(&mut self, slot: u32, lane: u32, seed: Option<crate::live::MonitorSeed>) {
        let analyzer = match seed {
            Some(s) => StreamAnalyzer::seeded(self.analyzer_cfg, &s),
            None => StreamAnalyzer::new(self.analyzer_cfg),
        };
        self.slots[slot as usize].as_mut().expect("occupied").heavy = Some(Box::new(analyzer));
        self.lane_heavy[lane as usize] += 1;
        self.heavy_total += 1;
        let hw = &mut self.heavy_hw[lane as usize];
        *hw = (*hw).max(self.lane_heavy[lane as usize]);
    }

    fn admit(&mut self, gidx: u64, pkt: &PcapPacket, t_us: u64) {
        let cell = cell_of(&pkt.key, self.ncells);
        debug_assert_eq!(cell % self.shards, self.shard, "misrouted packet");
        let lane = (cell / self.shards) as u32;
        // Deterministic cap: the cell's quota, not a global count — the
        // shed victim is cell-local, so it is the same flow at any shard
        // count.
        if self.lru.len(lane) >= self.flow_quota[lane as usize] as usize {
            let victim = self
                .lru
                .pop_front(lane)
                .expect("quota ≥ 1 implies tracked flows");
            self.finalize(victim, t_us, Reason::Shed);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
        // Two-tier: every flow starts light (no analyzer); always-heavy:
        // open the analyzer at the first packet, as before.
        if self.tier.is_some() {
            self.light.init(slot);
        }
        self.slots[slot as usize] = Some(EngineFlow {
            key: pkt.key,
            uid: gidx,
            lane,
            tracker: SeqTracker::new(),
            closed: false,
            heavy: None,
            deadline_us: u64::MAX,
            timer_deadline_us: u64::MAX,
        });
        self.map.insert(pkt.key, slot);
        self.lru.push_back(lane, slot);
        let hw = &mut self.active_hw[lane as usize];
        *hw = (*hw).max(self.lru.len(lane) as u32);
        self.delta.flows_opened += 1;
        if self.tier.is_none() {
            self.open_heavy(slot, lane, None);
        }
        self.deliver(slot, pkt, t_us);
    }

    fn deliver(&mut self, slot: u32, pkt: &PcapPacket, t_us: u64) {
        let flow = self.slots[slot as usize].as_mut().expect("occupied");
        let lane = flow.lane;
        let rec = flow.tracker.translate(pkt.t, &pkt.raw);
        if pkt.raw.flags.fin || pkt.raw.flags.rst {
            flow.closed = true;
        }
        let closed = flow.closed;
        if let Some(rec) = rec {
            match self.tier {
                // Always-heavy: the legacy path, zero light-tier overhead.
                None => {
                    let analyzer = flow.heavy.as_mut().expect("always-heavy flow");
                    self.delta.live_stalls += detect(analyzer, &rec);
                }
                Some(tier) => {
                    // The light row tracks every flow — heavy ones too, so
                    // the calm-streak hysteresis has something to read.
                    let verdict = self.light.update(slot, &rec, t_us, &tier);
                    if let Some(analyzer) = flow.heavy.as_mut() {
                        self.delta.live_stalls += detect(analyzer, &rec);
                        if tier.demote_streak > 0
                            && !closed
                            && !verdict.suspicious
                            && verdict.calm_streak >= tier.demote_streak
                        {
                            self.demote(slot, lane);
                        }
                    } else if verdict.suspicious && !closed {
                        self.promote(slot, lane, &tier);
                    }
                }
            }
        }
        let deadline = self.deadline_for(closed, t_us);
        self.arm(slot, deadline);
        self.lru.touch(lane, slot);
    }

    /// Escalate a light flow: snapshot the light row (which already
    /// reflects the triggering record) and open a seeded analyzer. The
    /// triggering record is *not* forwarded — its effect lives in the
    /// seed, and forwarding it too would double-apply it (e.g. new data
    /// misread as a retransmission against the seeded `snd_nxt`).
    ///
    /// Denied when the cell's heavy quota is full; the heuristics are
    /// level-triggered, so a still-suspicious flow simply retries on its
    /// next packet.
    fn promote(&mut self, slot: u32, lane: u32, _tier: &TierConfig) {
        if self.lane_heavy[lane as usize] >= self.heavy_quota[lane as usize] {
            self.delta.promotions_denied += 1;
            return;
        }
        let seed = self.light.seed(slot);
        self.open_heavy(slot, lane, Some(seed));
        self.delta.promotions += 1;
    }

    /// Hysteresis demotion: the flow stayed calm for the configured
    /// streak, so finish and free its analyzer and fall back to the light
    /// row (whose counters are re-armed so the next promotion needs fresh
    /// evidence, not leftovers from the previous episode). The heavy
    /// episode's stalls are real and already reported live; fold them so
    /// demotion never loses diagnosed intervals.
    fn demote(&mut self, slot: u32, lane: u32) {
        let flow = self.slots[slot as usize].as_mut().expect("occupied");
        let analyzer = flow.heavy.take().expect("demoting a light flow");
        let port = flow.key.server_port;
        let analysis = analyzer.finish();
        self.close_heavy(lane, port, &analysis);
        self.delta.demotions += 1;
        self.light.rearm(slot);
    }

    fn finalize(&mut self, slot: u32, now_us: u64, reason: Reason) {
        let flow = self.slots[slot as usize].take().expect("occupied");
        self.map.remove(&flow.key);
        self.lru.remove(flow.lane, slot);
        self.free.push(slot);
        // Only heavy flows have an analyzer to close; a light finalize
        // contributes nothing to the breakdown — undiagnosed by design,
        // that is the whole saving.
        if let Some(analyzer) = flow.heavy {
            let analysis = analyzer.finish();
            self.close_heavy(flow.lane, flow.key.server_port, &analysis);
            if self.collect {
                self.collected.push((flow.uid, flow.key, analysis));
            }
        }
        self.delta.flows_finalized += 1;
        self.delta.port_entry(flow.key.server_port).flows += 1;
        match reason {
            Reason::Teardown | Reason::Displaced => self.delta.flows_closed += 1,
            Reason::Idle => self.delta.flows_evicted_idle += 1,
            Reason::Shed => self.delta.flows_shed += 1,
            Reason::Eof => self.delta.flows_eof += 1,
        }
        // Remember evicted keys so stragglers don't churn phantom flows.
        // Not needed at EOF (no more packets) or on displacement (the key
        // is immediately re-admitted by the reopening SYN).
        if matches!(reason, Reason::Idle | Reason::Shed | Reason::Teardown) {
            // Timer-driven finalizes base the TTL on the flow's
            // *deadline*, not on when the timer happened to fire — firing
            // time depends on when this engine next saw a packet, which
            // varies with the shard count; the deadline does not.
            let base = if matches!(reason, Reason::Shed) {
                now_us
            } else {
                flow.deadline_us
            };
            let expiry = base.saturating_add(DEAD_TTL_US);
            self.dead.insert(flow.key, expiry);
            self.dead_q.push_back((expiry, flow.key));
            // Deadline-based expiries are not strictly nondecreasing, so
            // track the minimum; the queue is only a memory bound (the
            // map is authoritative for straggler checks) and every entry
            // is purged within one TTL of its expiry regardless of order.
            if expiry < self.dead_next_us {
                self.dead_next_us = expiry;
            }
        }
    }

    fn purge_dead(&mut self, now_us: u64) {
        if now_us < self.dead_next_us {
            return;
        }
        while let Some(&(expiry, key)) = self.dead_q.front() {
            if expiry > now_us {
                self.dead_next_us = expiry;
                return;
            }
            self.dead_q.pop_front();
            // The key may have been re-added with a later expiry.
            if self.dead.get(&key) == Some(&expiry) {
                self.dead.remove(&key);
            }
        }
        self.dead_next_us = u64::MAX;
    }

    fn run_timers(&mut self, now_us: u64) {
        if !self.timers_enabled() || self.timers.is_empty() {
            return;
        }
        let mut expired = std::mem::take(&mut self.expired);
        self.timers.advance_into(now_us, &mut expired);
        for (entry_deadline, slot, gen) in expired.drain(..) {
            let Some(flow) = self.slots[slot as usize].as_mut() else {
                continue; // slot freed since scheduling
            };
            if self.gens[slot as usize] != gen || flow.timer_deadline_us != entry_deadline {
                continue; // a different generation, or a superseded entry
            }
            flow.timer_deadline_us = u64::MAX;
            if flow.deadline_us > now_us {
                // Activity pushed the true deadline out; re-arm lazily.
                let d = flow.deadline_us;
                if d != u64::MAX {
                    flow.timer_deadline_us = d;
                    self.timers.schedule((d, slot, gen));
                }
            } else {
                let reason = if flow.closed {
                    Reason::Teardown
                } else {
                    Reason::Idle
                };
                self.finalize(slot, now_us, reason);
            }
        }
        self.expired = expired;
    }

    /// Process one packet of this engine's flow space. `gidx` is the
    /// packet's global capture index (becomes the uid of a flow it
    /// admits).
    pub fn process(&mut self, gidx: u64, pkt: &PcapPacket, t_us: u64) {
        // Unconditional (not just when timers fire): sheds and teardowns
        // insert dead-map entries even with idle/linger timers disabled,
        // and the bounded-memory guarantee includes the dead map.
        self.purge_dead(t_us);
        // Expire deadlines up to this packet before lifecycle decisions,
        // so admission sees the same occupancy at any shard count.
        self.run_timers(t_us);
        self.delta.packets += 1;
        let bare_syn = pkt.raw.flags.syn && !pkt.raw.flags.ack;
        match self.map.get(&pkt.key).copied() {
            Some(slot) => {
                let closed = self.slots[slot as usize].as_ref().expect("occupied").closed;
                if closed && bare_syn {
                    // 4-tuple reuse: finalize the dead generation, start
                    // fresh (mirrors the offline FlowTable rotation).
                    self.finalize(slot, t_us, Reason::Displaced);
                    self.admit(gidx, pkt, t_us);
                } else {
                    self.deliver(slot, pkt, t_us);
                }
            }
            None => match self.dead.get(&pkt.key).copied() {
                Some(expiry) if expiry > t_us && !bare_syn => {
                    // Straggler on an evicted flow: drop, count.
                    self.delta.packets_late += 1;
                }
                _ => {
                    self.dead.remove(&pkt.key);
                    self.admit(gidx, pkt, t_us);
                }
            },
        }
    }

    /// Interval barrier at `now_us` (the cut trigger's capture time):
    /// advance timers so evictions due before the boundary land in the
    /// closing interval — exactly where a single-shard run puts them —
    /// then take the delta. Returns `(delta, active, heavy)`.
    pub fn cut(&mut self, now_us: u64) -> (IntervalDelta, u64, u64) {
        self.run_timers(now_us);
        (
            std::mem::take(&mut self.delta),
            self.map.len() as u64,
            self.heavy_total as u64,
        )
    }

    /// End of capture: run timers to the last packet's time (evictions
    /// already due finalize with their real reason, as a single-shard run
    /// would have done on its last packet), then finalize everything
    /// still open, oldest flow first.
    pub fn eof(&mut self, now_us: u64) {
        self.run_timers(now_us);
        let mut open: Vec<(u64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|f| (f.uid, i as u32)))
            .collect();
        open.sort_unstable();
        for (_, slot) in open {
            self.finalize(slot, now_us, Reason::Eof);
        }
    }

    /// Whole-run totals (stable once [`ShardEngine::eof`] has run).
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            active_hw: self.active_hw.iter().map(|&h| h as u64).sum(),
            heavy_hw: self.heavy_hw.iter().map(|&h| h as u64).sum(),
        }
    }

    /// Tear down, yielding the collected per-flow analyses (empty unless
    /// constructed with `collect`), uid-tagged and key-tagged.
    pub fn into_collected(self) -> Vec<(u64, FlowKey, FlowAnalysis)> {
        self.collected
    }
}

/// Run one shard to completion: consume work batches until the driver
/// drops its ring producer, recycling each emptied buffer back on the
/// `spare` ring and answering every cut. Returns the finalized per-flow
/// analyses (empty unless `collect`) and the engine's whole-run totals.
pub fn shard_worker(
    params: EngineParams,
    mut rx: RingConsumer<Vec<Work>>,
    mut spare: RingProducer<Vec<Work>>,
    tx: Sender<ShardMsg>,
) -> (Vec<(u64, FlowKey, FlowAnalysis)>, EngineTotals) {
    let shard = params.shard;
    let mut eng = ShardEngine::new(params);
    while let Some(mut batch) = rx.pop() {
        for w in batch.drain(..) {
            match w {
                Work::Pkt { gidx, pkt } => eng.process(gidx, &pkt, pkt.t.as_micros()),
                Work::Cut { seq, now_us } => {
                    let (delta, active, heavy) = eng.cut(now_us);
                    let msg = ShardMsg {
                        shard,
                        seq,
                        delta,
                        active,
                        heavy,
                    };
                    if tx.send(msg).is_err() {
                        // Driver gone; shut down.
                        let totals = eng.totals();
                        return (eng.into_collected(), totals);
                    }
                }
                Work::Eof { now_us } => eng.eof(now_us),
            }
        }
        // Hand the emptied buffer back for reuse; if the spare ring is
        // full the buffer is simply dropped (the driver allocates a
        // replacement and its fresh-buffer counter shows it).
        let _ = spare.try_push(batch);
    }
    let totals = eng.totals();
    (eng.into_collected(), totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use tcp_trace::record::{Direction, SegFlags};

    fn params(max_flows: usize, idle_us: Option<u64>, linger_us: Option<u64>) -> EngineParams {
        EngineParams {
            analyzer: AnalyzerConfig::default(),
            collect: false,
            tier: None,
            idle_us,
            linger_us,
            ncells: if max_flows > 0 { max_flows.min(64) } else { 64 },
            shards: 1,
            shard: 0,
            max_flows,
            sketch: true,
        }
    }

    fn pkt(key: FlowKey, t_us: u64, flags: SegFlags) -> PcapPacket {
        PcapPacket {
            t: SimTime::from_micros(t_us),
            key,
            raw: tcp_trace::pcap::RawRecord::new(Direction::In, 0, 0, flags, 1024, 0),
        }
    }

    #[test]
    fn cell_quota_partitions_any_cap_exactly() {
        // Seeded property sweep: for any (total, ncells), the per-cell
        // quotas must (a) sum to the global cap exactly — no flow of
        // headroom gained or lost by splitting, at any cell count —
        // (b) differ by at most one across cells (remainder spread), and
        // (c) map total == 0 to the unbounded sentinel in every cell.
        let mut rng = simnet::rng::SimRng::seed(0xce11);
        let mut cases: Vec<(usize, usize)> = vec![
            (0, 1),
            (0, 64),
            (1, 64),
            (63, 64),
            (64, 64),
            (65, 64),
            (u32::MAX as usize, 3),
        ];
        for _ in 0..200 {
            let total = (rng.next_u64() % 1_000_000_000) as usize;
            let ncells = 1 + (rng.next_u64() % 4096) as usize;
            cases.push((total, ncells));
        }
        for (total, ncells) in cases {
            let quotas: Vec<u32> = (0..ncells).map(|c| cell_quota(total, ncells, c)).collect();
            if total == 0 {
                assert!(quotas.iter().all(|&q| q == u32::MAX), "ncells={ncells}");
                continue;
            }
            let sum: u64 = quotas.iter().map(|&q| q as u64).sum();
            assert_eq!(sum, total as u64, "total={total} ncells={ncells}");
            let (min, max) = (quotas.iter().min().unwrap(), quotas.iter().max().unwrap());
            assert!(max - min <= 1, "total={total} ncells={ncells}");
        }
    }

    #[test]
    fn dead_map_is_purged_even_without_timers() {
        // Sheds insert dead-map entries; with idle/linger disabled the
        // timer path never runs, so the purge must happen on the packet
        // path or a long-running daemon leaks one entry per shed key.
        let mut eng = ShardEngine::new(params(1, None, None));
        assert!(!eng.timers_enabled());
        for i in 0..5u32 {
            let t = (i as u64) * 1_000;
            eng.process(i as u64, &pkt(FlowKey::synthetic(i), t, SegFlags::SYN), t);
        }
        assert_eq!(eng.delta.flows_shed, 4);
        assert_eq!(eng.dead.len(), 4, "shed keys parked in the dead map");
        // A packet past the TTL drains every expired entry.
        let late = 4_000 + DEAD_TTL_US + 1;
        eng.process(5, &pkt(FlowKey::synthetic(99), late, SegFlags::SYN), late);
        assert!(eng.dead.len() <= 1, "expired dead entries purged");
        assert!(eng.dead_q.len() <= 1);
    }

    #[test]
    fn displacing_syn_leaves_no_dead_entry() {
        // 4-tuple reuse finalizes the old generation, but the key is
        // immediately re-admitted — it must not be parked in the dead map.
        let mut eng = ShardEngine::new(params(
            0,
            Some(60_000_000), // defaults: idle 60 s, linger 1 s
            Some(1_000_000),
        ));
        let k = FlowKey::synthetic(7);
        let fin = SegFlags {
            fin: true,
            ack: true,
            ..Default::default()
        };
        eng.process(0, &pkt(k, 0, SegFlags::SYN), 0);
        eng.process(1, &pkt(k, 10, fin), 10);
        eng.process(2, &pkt(k, 20, SegFlags::SYN), 20); // reuse
        assert_eq!(eng.delta.flows_opened, 2);
        assert_eq!(eng.delta.flows_closed, 1);
        assert!(eng.dead.is_empty(), "displaced key must not be parked");
        assert!(eng.dead_q.is_empty());
    }

    #[test]
    fn timer_eviction_dead_expiry_uses_the_deadline_not_firing_time() {
        // An idle eviction that fires late (because the engine saw no
        // packet for a while) must base the dead-key TTL on the idle
        // deadline: firing time varies with shard placement, the
        // deadline does not.
        let idle = 1_000_000u64; // 1 s
        let mut eng = ShardEngine::new(params(0, Some(idle), None));
        let k = FlowKey::synthetic(1);
        eng.process(0, &pkt(k, 0, SegFlags::SYN), 0);
        // Next packet (another flow) arrives far past the idle deadline;
        // the eviction fires now, but the dead expiry is deadline + TTL.
        let late = 10_000_000u64;
        eng.process(1, &pkt(FlowKey::synthetic(2), late, SegFlags::SYN), late);
        assert_eq!(eng.delta.flows_evicted_idle, 1);
        assert_eq!(eng.dead.get(&k).copied(), Some(idle + DEAD_TTL_US));
    }

    #[test]
    fn cell_quotas_sum_to_the_cap() {
        for (total, ncells) in [(512usize, 64usize), (7, 3), (3, 3), (1000, 64), (5, 5)] {
            let sum: usize = (0..ncells)
                .map(|c| cell_quota(total, ncells, c) as usize)
                .sum();
            assert_eq!(sum, total, "quota split must be exact for {total}/{ncells}");
        }
        assert_eq!(cell_quota(0, 64, 0), u32::MAX, "0 means unbounded");
    }

    #[test]
    fn delta_merge_is_invariant_to_order() {
        // Seeded LCG-built deltas merged in different orders agree —
        // the driver's canonical-order fold is deterministic regardless
        // of shard arrival interleaving.
        let mut state = 0x2015_cafe_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let deltas: Vec<IntervalDelta> = (0..16)
            .map(|_| IntervalDelta {
                packets: next() % 1000,
                packets_late: next() % 10,
                flows_opened: next() % 100,
                flows_finalized: next() % 100,
                flows_closed: next() % 50,
                flows_evicted_idle: next() % 20,
                flows_shed: next() % 20,
                flows_eof: next() % 5,
                promotions: next() % 30,
                demotions: next() % 30,
                promotions_denied: next() % 7,
                live_stalls: next() % 40,
                breakdown: StallBreakdown::default(),
                by_port: (0..next() % 4)
                    .map(|_| {
                        (
                            [80u16, 443, 8080, 8443][(next() % 4) as usize],
                            PortDelta {
                                flows: next() % 50,
                                stalls: next() % 20,
                                stalled_us: next() % 100_000,
                            },
                        )
                    })
                    .fold(Vec::new(), |mut acc, (p, d)| {
                        // Keep the fixture sorted+deduped like real deltas.
                        port_entry(&mut acc, p).merge(&d);
                        acc
                    }),
                rtt_sketch: QSketch::default(),
                stall_sketch: QSketch::default(),
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = IntervalDelta::default();
            for &i in order {
                acc.merge(&deltas[i]);
            }
            acc
        };
        let fwd = fold(&(0..deltas.len()).collect::<Vec<_>>());
        let rev = fold(&(0..deltas.len()).rev().collect::<Vec<_>>());
        // A seeded shuffle (Fisher–Yates driven by the same LCG family).
        let mut order: Vec<usize> = (0..deltas.len()).collect();
        let mut s = 0x5eed_u64;
        for i in (1..order.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, ((s >> 33) % (i as u64 + 1)) as usize);
        }
        let shuffled = fold(&order);
        for d in [&rev, &shuffled] {
            assert_eq!(fwd.packets, d.packets);
            assert_eq!(fwd.packets_late, d.packets_late);
            assert_eq!(fwd.flows_opened, d.flows_opened);
            assert_eq!(fwd.flows_finalized, d.flows_finalized);
            assert_eq!(fwd.flows_closed, d.flows_closed);
            assert_eq!(fwd.flows_evicted_idle, d.flows_evicted_idle);
            assert_eq!(fwd.flows_shed, d.flows_shed);
            assert_eq!(fwd.flows_eof, d.flows_eof);
            assert_eq!(fwd.promotions, d.promotions);
            assert_eq!(fwd.demotions, d.demotions);
            assert_eq!(fwd.promotions_denied, d.promotions_denied);
            assert_eq!(fwd.live_stalls, d.live_stalls);
            assert_eq!(fwd.by_port, d.by_port, "keyed per-port merge commutes");
        }
    }
}
