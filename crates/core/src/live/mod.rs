//! The live diagnosis pipeline: daemon-grade TAPO.
//!
//! The paper deploys TAPO on production servers for daily maintenance — an
//! *online* tool watching live traffic, not a batch job over finished pcap
//! files. This module is that deployment shape: a bounded-memory, sharded,
//! continuously-reporting pipeline over an incremental packet stream
//! ([`tcp_trace::pcap::PcapStream`] — file, FIFO, or stdin).
//!
//! # Architecture
//!
//! The packet path is *batched end-to-end* and **partitioned by flow
//! hash**. The zero-copy reader
//! ([`tcp_trace::pcap::PcapStream::fill_batch`]) decodes the packets the
//! input has already delivered — at most `batch` of them — into a reusable
//! [`PacketBatch`]; a thin driver walks each batch in capture order and
//! only routes: each flow hashes to one of `cells` **virtual cells**
//! ([`cell_of`]), each cell is owned by exactly one shard
//! (`cell % shards`), and the packet is staged to its owner's SPSC ring
//! ([`ring`]) as [`Work`] — one handoff per shard per batch, with emptied
//! batch buffers recycled back on reverse rings so the steady state
//! allocates nothing.
//!
//! **Batches follow availability.** The driver blocks in one place, the
//! reader's refill, and only when nothing decoded is waiting: `batch` is
//! the cap on a batch, never a quorum. Whatever one `read` delivered is
//! processed, flushed down the rings and — when it crossed an interval
//! boundary — cut, merged and reported *before* the next `read` is
//! issued, so on a trickling FIFO a report is never held back by packets
//! that have not arrived, while a file or a full pipe still moves full
//! batches. A driver that falls behind finds more input resident at its
//! next read: batches grow with load by themselves.
//!
//! Each shard runs a [`ShardEngine`] owning *everything* for its cells:
//! flow map, sequence trackers ([`tcp_trace::pcap::SeqTracker`]), light
//! tier ([`LightTable`]), heavy analyzers ([`crate::StreamAnalyzer`]),
//! lazy timer heap ([`TimerHeap`]), per-cell LRU lanes ([`LruList`]),
//! and dead-key map. All lifecycle decisions — admission, 4-tuple reuse
//! (a bare SYN on a closed flow finalizes the old generation and opens a
//! fresh one, matching the offline [`tcp_trace::flow::FlowTable`]),
//! FIN/RST teardown with a linger window, idle eviction, LRU shedding,
//! and light↔heavy promotion/demotion — are made locally by the owning
//! engine, with no cross-shard coordination on the packet path. With
//! `--shards 1` the one engine runs inline on the driver thread: no
//! rings, no staging copy, no worker thread.
//!
//! # Determinism
//!
//! Aggregate output is byte-identical at any shard count *and any batch
//! size* — by construction, not by serialization:
//! * a flow's cell depends only on its key and the (shard-count-
//!   independent) cell count, and every cross-flow decision is
//!   cell-local, so shed victims and quota denials are identical however
//!   cells are spread over shards;
//! * the global `max_flows` / heavy caps are split into fixed per-cell
//!   quotas that sum exactly to the cap (the `shard` module docs);
//! * each flow's analysis depends only on its own records (an analyzer
//!   lives and dies with its heavy flow, so nothing carries over between
//!   flows);
//! * per-interval sub-reports ([`IntervalDelta`]) are commutative integer
//!   merges, collected at a [`Work::Cut`] barrier and folded in canonical
//!   shard order before each report is rendered;
//! * reader skip counts are recorded per decoded packet
//!   ([`PacketBatch::skipped_before`]), so interval attribution does not
//!   shift when the reader decodes ahead of processing.
//!
//! Only the opt-in `per_shard_occupancy` field depends on the shard count.
//!
//! # Memory bound
//!
//! With a cap of `max_flows`, the engines together hold at most that many
//! flow states (per-cell quotas sum to the cap). An analyzer lives and
//! dies with its heavy flow: it is freed when the flow finalizes or is
//! demoted, so heavy-tier memory follows the flows open now, not the
//! largest flows seen earlier. Everything else is O(shards) or
//! O(interval). The load generator in the `workloads` crate feeds the
//! 10k-flow capture the bench gate uses to assert the bound, and
//! `tests/live_memory.rs` checks that the heap falls back once the heavy
//! flows have ended.

mod config;
mod fnv;
mod lru;
mod monitor;
mod report;
pub mod ring;
mod shard;
mod wheel;

pub use config::{default_shards, DaemonId, LiveConfigError, MAX_BATCH, MAX_CELLS, MAX_DAEMON_ID};
pub use fnv::{cell_of, FnvHasher};
pub use lru::LruList;
pub use monitor::{FlowMonitor, LightTable, MonitorSeed, TierConfig, Verdict};
pub use report::{class_slug, retrans_slug, IntervalReport, LiveSummary};
pub(crate) use report::{write_breakdown, write_by_port};
pub use shard::{
    merge_by_port, shard_worker, EngineParams, EngineTotals, IntervalDelta, PortDelta, ShardEngine,
    ShardMsg, Work,
};
pub use wheel::{TimerEntry, TimerHeap};

use std::io::Read;
use std::sync::mpsc;

use simnet::time::SimDuration;
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::{PacketBatch, PcapError, PcapStream};

use crate::fleet::sketch::QSketch;
use crate::{AnalyzerConfig, FlowAnalysis};
use ring::{RingConsumer, RingProducer};

/// How the live pipeline runs: sharding, lifecycle timeouts, reporting
/// cadence, memory cap. Fill the fields over [`LiveConfig::default`];
/// [`LiveConfig::build`] checks them.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Per-flow analyzer parameters.
    pub analyzer: AnalyzerConfig,
    /// Worker shards (0 is treated as 1). Output is identical at any
    /// count; the default is [`default_shards`], 1: the inline engine.
    pub shards: usize,
    /// Virtual flow cells — the shard-count-independent unit of flow
    /// ownership and cap splitting (0 is treated as 1; clamped to
    /// `max_flows` when capped so every cell's flow quota is ≥ 1).
    pub cells: usize,
    /// Reporting interval (capture time, aligned to multiples of itself).
    pub interval: SimDuration,
    /// Evict flows idle this long; `None` disables idle eviction.
    pub idle_timeout: Option<SimDuration>,
    /// Finalize a FIN/RST-closed flow after this linger (stragglers until
    /// then still reach the analyzer); `None` keeps closed flows until
    /// idle timeout / EOF, matching the offline reader.
    pub fin_linger: Option<SimDuration>,
    /// Hard cap on concurrently tracked flows; 0 = unbounded. Split into
    /// per-cell quotas; at a cell's quota, the least-recently-active flow
    /// *of that cell* is finalized early ("shed").
    pub max_flows: usize,
    /// Keep every finalized [`crate::FlowAnalysis`] in the summary —
    /// unbounded memory, for tests and offline comparison only.
    pub collect_flows: bool,
    /// Include per-shard active-flow counts in reports (shard-count-
    /// dependent, so off by default to keep output byte-identical across
    /// shard counts).
    pub per_shard_occupancy: bool,
    /// Two-tier monitoring: `Some` keeps every flow in a compact light
    /// tier ([`LightTable`]) and promotes to a full [`crate::StreamAnalyzer`]
    /// only on suspicion; `None` (the default) analyzes every flow heavy
    /// from the first packet, as before.
    pub tier: Option<TierConfig>,
    /// Most packets decoded (and work staged) per batch — a cap, not a
    /// quorum: a batch holds what the input had delivered. 0 is treated
    /// as 1. Output is identical at any batch size.
    pub batch: usize,
    /// Work-ring depth in batch buffers (backpressure toward the driver);
    /// 0 is treated as 1.
    pub ring_depth: usize,
    /// Identifier stamped into every interval and summary record so fleet
    /// aggregation can attribute this daemon's reports.
    pub daemon_id: DaemonId,
    /// Carry mergeable RTT / stall-duration quantile sketches in interval
    /// and summary reports (the distribution payload `tapo fleet` merges).
    /// Sketch contents are partition-invariant, so reports stay
    /// byte-identical across shard counts with this on.
    pub sketch: bool,
}

/// Default cap on packets per batch (one handoff per shard per batch).
pub const DEFAULT_BATCH: usize = 256;
/// Default work-ring depth in batch buffers.
pub const DEFAULT_RING_DEPTH: usize = 8;
/// Default virtual flow cells. Plenty of lanes for up to 8 shards while
/// keeping per-cell quota splits coarse enough that small `--max-flows`
/// caps still give most cells a non-zero share.
pub const DEFAULT_CELLS: usize = 64;

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            analyzer: AnalyzerConfig::default(),
            shards: default_shards(),
            cells: DEFAULT_CELLS,
            interval: SimDuration::from_secs(1),
            idle_timeout: Some(SimDuration::from_secs(60)),
            fin_linger: Some(SimDuration::from_secs(1)),
            max_flows: 0,
            collect_flows: false,
            per_shard_occupancy: false,
            tier: None,
            batch: DEFAULT_BATCH,
            ring_depth: DEFAULT_RING_DEPTH,
            daemon_id: DaemonId::default(),
            sketch: true,
        }
    }
}

impl LiveConfig {
    /// Another name for [`LiveConfig::default`], kept while the benchmark
    /// still starts its no-flags config from it.
    pub fn builder() -> LiveConfig {
        LiveConfig::default()
    }

    /// The cell count the pipeline actually runs with: at least 1, and
    /// clamped to `max_flows` when capped so every cell's flow quota is
    /// ≥ 1 (a zero-quota cell could admit nothing at all).
    pub fn effective_cells(&self) -> usize {
        let c = self.cells.max(1);
        if self.max_flows > 0 {
            c.min(self.max_flows)
        } else {
            c
        }
    }
}

/// The routing-and-merging end of the pipeline. All flow state lives in
/// the per-shard [`ShardEngine`]s; the driver decodes, routes by cell,
/// issues cut barriers, and folds the per-shard sub-reports in canonical
/// shard order.
struct Driver {
    shards_n: usize,
    per_shard: bool,
    daemon: DaemonId,
    sketch: bool,
    interval_us: u64,
    /// Effective cell count (see [`LiveConfig::effective_cells`]).
    ncells: usize,

    /// `--shards 1`: the one engine runs inline on the driver thread.
    inline: Option<ShardEngine>,

    dir_txs: Vec<RingProducer<Vec<Work>>>,
    /// Emptied batch buffers coming back from each shard for reuse.
    spare_rxs: Vec<RingConsumer<Vec<Work>>>,
    /// Per-shard staging buffers, flushed once per packet batch (or when
    /// a staging buffer reaches `batch_cap` mid-batch).
    staging: Vec<Vec<Work>>,
    batch_cap: usize,
    /// Per-shard buffer provenance counters, folded into the summary at
    /// shutdown in shard order (deterministic aggregation).
    ring_fresh: Vec<u64>,
    ring_recycled: Vec<u64>,
    /// Cut-barrier reply slots, indexed by shard (canonical merge order).
    msgs: Vec<Option<ShardMsg>>,

    summary: LiveSummary,
    prev_skipped: u64,
    cut_seq: u64,
}

impl Driver {
    fn new(
        cfg: &LiveConfig,
        ncells: usize,
        dir_txs: Vec<RingProducer<Vec<Work>>>,
        spare_rxs: Vec<RingConsumer<Vec<Work>>>,
    ) -> Driver {
        let shards_n = dir_txs.len().max(1);
        let batch_cap = cfg.batch.max(1);
        let inline = dir_txs
            .is_empty()
            .then(|| ShardEngine::new(engine_params(cfg, ncells, 1, 0)));
        let staging_n = dir_txs.len();
        let mut summary = LiveSummary {
            daemon: cfg.daemon_id,
            ..LiveSummary::default()
        };
        if cfg.sketch {
            summary.rtt_sketch = Some(QSketch::new());
            summary.stall_sketch = Some(QSketch::new());
        }
        Driver {
            shards_n,
            per_shard: cfg.per_shard_occupancy,
            daemon: cfg.daemon_id,
            sketch: cfg.sketch,
            interval_us: cfg.interval.as_micros().max(1),
            ncells,
            inline,
            dir_txs,
            spare_rxs,
            staging: (0..staging_n)
                .map(|_| Vec::with_capacity(batch_cap))
                .collect(),
            batch_cap,
            ring_fresh: vec![0; staging_n],
            ring_recycled: vec![0; staging_n],
            msgs: (0..shards_n).map(|_| None).collect(),
            summary,
            prev_skipped: 0,
            cut_seq: 0,
        }
    }

    /// Stage one unit of work for `shard`, flushing early if the staging
    /// buffer fills mid-batch.
    fn stage(&mut self, shard: usize, w: Work) {
        self.staging[shard].push(w);
        if self.staging[shard].len() >= self.batch_cap {
            self.flush(shard);
        }
    }

    /// Hand the shard's staging buffer down its ring, replacing it with a
    /// recycled buffer from the shard's spare ring (or, before the pool
    /// has warmed up, a fresh allocation — counted per shard, so tests
    /// can assert the steady state recycles).
    fn flush(&mut self, shard: usize) {
        if self.staging[shard].is_empty() {
            return;
        }
        let replacement = match self.spare_rxs[shard].try_pop() {
            Some(mut buf) => {
                self.ring_recycled[shard] += 1;
                buf.clear();
                buf
            }
            None => {
                self.ring_fresh[shard] += 1;
                Vec::with_capacity(self.batch_cap)
            }
        };
        let full = std::mem::replace(&mut self.staging[shard], replacement);
        self.dir_txs[shard].push(full).expect("shard alive");
    }

    /// One handoff per shard per packet batch (no-op when inline).
    fn flush_all(&mut self) {
        for shard in 0..self.staging.len() {
            self.flush(shard);
        }
    }

    /// Interval barrier at `now_us` (the trigger packet's capture time):
    /// cut every engine, merge the sub-reports in canonical shard order,
    /// fold the interval into the summary, and build the report.
    /// `skipped_cum` is the reader's cumulative skip count *as of the
    /// trigger packet* (recorded per packet by the batched reader), so
    /// attribution is identical at any batch size.
    fn cut(
        &mut self,
        iv: u64,
        skipped_cum: u64,
        now_us: u64,
        report_rx: &mpsc::Receiver<ShardMsg>,
    ) -> IntervalReport {
        let seq = self.cut_seq;
        self.cut_seq += 1;
        let mut delta = IntervalDelta::default();
        let mut active = 0u64;
        let mut heavy = 0u64;
        let mut occupancy = vec![0usize; self.shards_n];
        if let Some(eng) = self.inline.as_mut() {
            let (d, a, h) = eng.cut(now_us);
            delta = d;
            active = a;
            heavy = h;
            occupancy[0] = a as usize;
        } else {
            for shard in 0..self.staging.len() {
                self.staging[shard].push(Work::Cut { seq, now_us });
                self.flush(shard);
            }
            // Replies arrive in whatever order the shards reach the
            // barrier; park them by shard index, then fold ascending —
            // the canonical order that keeps every merge deterministic.
            for _ in 0..self.shards_n {
                let msg = report_rx.recv().expect("shard alive");
                debug_assert_eq!(msg.seq, seq, "cut barrier out of sync");
                let shard = msg.shard;
                self.msgs[shard] = Some(msg);
            }
            for slot in self.msgs.iter_mut() {
                let msg = slot.take().expect("one reply per shard");
                delta.merge(&msg.delta);
                active += msg.active;
                heavy += msg.heavy;
                occupancy[msg.shard] = msg.active as usize;
            }
        }
        let skipped = skipped_cum - self.prev_skipped;
        self.prev_skipped = skipped_cum;

        self.summary.flows_seen += delta.flows_opened;
        self.summary.flows_closed += delta.flows_closed;
        self.summary.flows_evicted_idle += delta.flows_evicted_idle;
        self.summary.flows_shed += delta.flows_shed;
        self.summary.flows_eof += delta.flows_eof;
        self.summary.flows_finalized += delta.flows_finalized;
        self.summary.packets += delta.packets;
        self.summary.packets_late += delta.packets_late;
        self.summary.promotions += delta.promotions;
        self.summary.demotions += delta.demotions;
        self.summary.promotions_denied += delta.promotions_denied;
        self.summary.live_stalls += delta.live_stalls;
        self.summary.breakdown.merge(&delta.breakdown);
        shard::merge_by_port(&mut self.summary.by_port, &delta.by_port);
        if let Some(s) = self.summary.rtt_sketch.as_mut() {
            s.merge(&delta.rtt_sketch);
        }
        if let Some(s) = self.summary.stall_sketch.as_mut() {
            s.merge(&delta.stall_sketch);
        }

        IntervalReport {
            daemon: self.daemon,
            interval: iv,
            start_us: iv * self.interval_us,
            end_us: (iv + 1) * self.interval_us,
            packets: delta.packets,
            packets_skipped: skipped,
            packets_late: delta.packets_late,
            flows_opened: delta.flows_opened,
            flows_finalized: delta.flows_finalized,
            flows_closed: delta.flows_closed,
            flows_evicted_idle: delta.flows_evicted_idle,
            flows_shed: delta.flows_shed,
            active_flows: active,
            flows_light: active - heavy,
            flows_heavy: heavy,
            promotions: delta.promotions,
            demotions: delta.demotions,
            live_stalls: delta.live_stalls,
            breakdown: delta.breakdown,
            by_port: delta.by_port,
            rtt_sketch: self.sketch.then_some(delta.rtt_sketch),
            stall_sketch: self.sketch.then_some(delta.stall_sketch),
            shard_occupancy: self.per_shard.then_some(occupancy),
        }
    }
}

fn engine_params(cfg: &LiveConfig, ncells: usize, shards: usize, shard: usize) -> EngineParams {
    EngineParams {
        analyzer: cfg.analyzer,
        collect: cfg.collect_flows,
        tier: cfg.tier,
        idle_us: cfg.idle_timeout.map(|d| d.as_micros()),
        linger_us: cfg.fin_linger.map(|d| d.as_micros()),
        ncells,
        shards,
        shard,
        max_flows: cfg.max_flows,
        sketch: cfg.sketch,
    }
}

/// Run the live pipeline over a packet stream until EOF, invoking
/// `on_report` (on the caller's thread) for each interval report, and
/// returning the whole-run summary.
pub fn run<R: Read>(
    input: R,
    cfg: &LiveConfig,
    mut on_report: impl FnMut(&IntervalReport),
) -> Result<LiveSummary, PcapError> {
    let shards_n = cfg.shards.max(1);
    let batch_cap = cfg.batch.max(1);
    let ring_depth = cfg.ring_depth.max(1);
    let ncells = cfg.effective_cells();
    let mut stream = PcapStream::new(input)?;
    let interval_us = cfg.interval.as_micros().max(1);

    std::thread::scope(|scope| -> Result<LiveSummary, PcapError> {
        let (report_tx, report_rx) = mpsc::channel::<ShardMsg>();
        let mut dir_txs = Vec::with_capacity(shards_n);
        let mut spare_rxs = Vec::with_capacity(shards_n);
        let mut handles = Vec::with_capacity(shards_n);
        // A single shard runs inline on the driver thread (no handoff);
        // worker threads and rings exist only when there is real
        // parallelism to exploit.
        if shards_n > 1 {
            for shard in 0..shards_n {
                let (dir_tx, dir_rx) = ring::ring::<Vec<Work>>(ring_depth);
                // The spare ring is slightly deeper than the forward ring
                // so a shard can always return a buffer even when every
                // forward slot is full and the driver holds a staging
                // buffer.
                let (spare_tx, spare_rx) = ring::ring::<Vec<Work>>(ring_depth + 2);
                dir_txs.push(dir_tx);
                spare_rxs.push(spare_rx);
                let rtx = report_tx.clone();
                let params = engine_params(cfg, ncells, shards_n, shard);
                handles.push(scope.spawn(move || shard_worker(params, dir_rx, spare_tx, rtx)));
            }
        }
        drop(report_tx);

        let mut drv = Driver::new(cfg, ncells, dir_txs, spare_rxs);

        let mut batch = PacketBatch::new();
        let mut cur_iv: Option<u64> = None;
        let mut next_cut_us = 0u64;
        let mut last_t_us = 0u64;
        let mut gidx = 0u64;
        while stream.fill_batch(&mut batch, batch_cap)? > 0 {
            for j in 0..batch.len() {
                let pkt = &batch.pkts()[j];
                let t_us = pkt.t.as_micros();
                last_t_us = t_us;
                // Dividing only at interval boundaries keeps a 64-bit div
                // off the per-packet path. Engines expire deadlines up to
                // the barrier before taking the delta, so an eviction due
                // in the previous interval lands in its report.
                if t_us >= next_cut_us {
                    let iv = t_us / interval_us;
                    if let Some(ci) = cur_iv {
                        let r = drv.cut(ci, batch.skipped_before(j), t_us, &report_rx);
                        drv.summary.intervals += 1;
                        on_report(&r);
                    }
                    cur_iv = Some(iv);
                    next_cut_us = (iv + 1).saturating_mul(interval_us);
                }
                if let Some(eng) = drv.inline.as_mut() {
                    eng.process(gidx, pkt, t_us);
                } else {
                    let shard = cell_of(&pkt.key, drv.ncells) % drv.shards_n;
                    drv.stage(shard, Work::Pkt { gidx, pkt: *pkt });
                }
                gidx += 1;
            }
            drv.flush_all();
        }

        // EOF: every engine runs its timers to the last packet's time and
        // finalizes whatever is still open, oldest flow first; then one
        // final cut drains the deltas.
        if let Some(eng) = drv.inline.as_mut() {
            eng.eof(last_t_us);
        } else {
            for shard in 0..drv.staging.len() {
                drv.staging[shard].push(Work::Eof { now_us: last_t_us });
            }
            drv.flush_all();
        }
        let final_report = drv.cut(
            cur_iv.unwrap_or(0),
            stream.stats().packets_skipped,
            last_t_us,
            &report_rx,
        );
        if cur_iv.is_some() {
            drv.summary.intervals += 1;
            on_report(&final_report);
        }

        // Shut shards down; collect per-flow analyses (if any) and the
        // whole-run totals, folding both in shard order.
        drv.dir_txs.clear();
        let mut flows: Vec<(u64, FlowKey, FlowAnalysis)> = Vec::new();
        let mut totals = EngineTotals::default();
        if let Some(eng) = drv.inline.take() {
            let t = eng.totals();
            totals.active_hw += t.active_hw;
            totals.heavy_hw += t.heavy_hw;
            flows.extend(eng.into_collected());
        }
        for h in handles {
            let (collected, t) = h.join().expect("shard panicked");
            totals.active_hw += t.active_hw;
            totals.heavy_hw += t.heavy_hw;
            flows.extend(collected);
        }
        flows.sort_by_key(|&(uid, _, _)| uid);
        let mut summary = drv.summary;
        summary.max_active_flows = totals.active_hw;
        summary.max_heavy_flows = totals.heavy_hw;
        summary.ring_fresh_buffers = drv.ring_fresh.iter().sum();
        summary.ring_recycled_buffers = drv.ring_recycled.iter().sum();
        summary.flows = flows.into_iter().map(|(_, key, a)| (key, a)).collect();
        let stats = stream.stats();
        summary.packets_skipped = stats.packets_skipped;
        summary.records_truncated = stats.records_truncated;
        summary.stalled = summary.breakdown.total_stalled;
        Ok(summary)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use tcp_trace::flow::FlowTrace;
    use tcp_trace::pcap::PcapWriter;
    use tcp_trace::record::{Direction, SackList, SegFlags, TraceRecord};

    fn rec(
        t_ms: u64,
        dir: Direction,
        seq: u64,
        len: u32,
        ack: u64,
        flags: SegFlags,
    ) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_millis(t_ms),
            dir,
            seq,
            len,
            flags,
            ack,
            rwnd: 1 << 20,
            sack: SackList::new(),
            dsack: false,
        }
    }

    /// A minimal complete flow: SYN, SYN-ACK, request, response, FIN.
    fn flow_trace(key: FlowKey, t0_ms: u64) -> FlowTrace {
        let mut f = FlowTrace::new(key);
        f.push(rec(t0_ms, Direction::In, 0, 0, 0, SegFlags::SYN));
        f.push(rec(t0_ms + 1, Direction::Out, 0, 0, 0, SegFlags::SYN_ACK));
        f.push(rec(t0_ms + 2, Direction::In, 0, 300, 0, SegFlags::ACK));
        f.push(rec(t0_ms + 10, Direction::Out, 0, 1448, 300, SegFlags::ACK));
        f.push(rec(t0_ms + 20, Direction::In, 0, 0, 1448, SegFlags::ACK));
        let fin = SegFlags {
            fin: true,
            ack: true,
            ..Default::default()
        };
        f.push(rec(t0_ms + 21, Direction::Out, 1448, 0, 300, fin));
        f
    }

    fn capture(traces: &[FlowTrace]) -> Vec<u8> {
        // Interleave by timestamp (stable by flow order).
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        let mut cursor: Vec<usize> = vec![0; traces.len()];
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, tr) in traces.iter().enumerate() {
                if let Some(r) = tr.records.get(cursor[i]) {
                    let t = r.t.as_micros();
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            w.write_record(&traces[i].key.unwrap(), &traces[i].records[cursor[i]])
                .unwrap();
            cursor[i] += 1;
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn reports_are_identical_across_shard_counts() {
        let traces: Vec<FlowTrace> = (0..20)
            .map(|i| flow_trace(FlowKey::synthetic(i), (i as u64) * 700))
            .collect();
        let buf = capture(&traces);
        let render = |shards: usize| {
            let cfg = LiveConfig {
                shards,
                interval: SimDuration::from_secs(2),
                ..Default::default()
            };
            let mut out = String::new();
            let summary = run(&buf[..], &cfg, |r| {
                out.push_str(&r.to_json().compact());
                out.push('\n');
            })
            .unwrap();
            out.push_str(&summary.to_json().compact());
            out
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(4));
        assert!(one.contains("\"kind\":\"summary\""));
    }

    #[test]
    fn cap_sheds_lru_flows_and_counts_them() {
        // 8 overlapping flows, cap of 3: at least 5 finalizations must be
        // sheds, and the active count never exceeds the cap. One cell
        // keeps the cap global (exact legacy semantics) rather than split
        // into per-cell quotas.
        let traces: Vec<FlowTrace> = (0..8)
            .map(|i| flow_trace(FlowKey::synthetic(i), (i as u64) * 5))
            .collect();
        let buf = capture(&traces);
        let cfg = LiveConfig {
            max_flows: 3,
            cells: 1,
            fin_linger: None,
            idle_timeout: None,
            ..Default::default()
        };
        let mut max_active = 0;
        let summary = run(&buf[..], &cfg, |r| {
            max_active = max_active.max(r.active_flows);
        })
        .unwrap();
        assert_eq!(summary.flows_seen, 8);
        assert_eq!(summary.flows_finalized, 8);
        assert_eq!(summary.flows_shed, 5);
        assert!(summary.max_active_flows <= 3);
        assert!(max_active <= 3);
    }

    #[test]
    fn per_cell_caps_bound_the_total_and_stay_shard_invariant() {
        // With several cells, the cap is split into quotas that sum to it
        // exactly: the total tracked flows never exceed the cap, and the
        // shed/report stream is identical at any shard count.
        let traces: Vec<FlowTrace> = (0..24)
            .map(|i| flow_trace(FlowKey::synthetic(i), (i as u64) * 5))
            .collect();
        let buf = capture(&traces);
        let render = |shards: usize| {
            let cfg = LiveConfig {
                shards,
                max_flows: 6,
                fin_linger: None,
                idle_timeout: None,
                ..Default::default()
            };
            let mut out = String::new();
            let mut max_active = 0;
            let summary = run(&buf[..], &cfg, |r| {
                max_active = max_active.max(r.active_flows);
                out.push_str(&r.to_json().compact());
                out.push('\n');
            })
            .unwrap();
            assert!(summary.max_active_flows <= 6);
            assert!(max_active <= 6);
            assert!(summary.flows_shed > 0, "quota splits must shed under load");
            out.push_str(&summary.to_json().compact());
            out
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(4));
    }

    #[test]
    fn idle_flows_are_evicted_and_stragglers_dropped() {
        let k_idle = FlowKey::synthetic(1);
        let k_busy = FlowKey::synthetic(2);
        let mut idle = FlowTrace::new(k_idle);
        idle.push(rec(0, Direction::In, 0, 0, 0, SegFlags::SYN));
        idle.push(rec(1, Direction::Out, 0, 0, 0, SegFlags::SYN_ACK));
        // ... then silence; a straggler arrives long after eviction.
        idle.push(rec(30_000, Direction::In, 0, 0, 0, SegFlags::ACK));
        let mut busy = FlowTrace::new(k_busy);
        busy.push(rec(0, Direction::In, 0, 0, 0, SegFlags::SYN));
        for i in 0..40u64 {
            busy.push(rec(
                500 + i * 800,
                Direction::Out,
                i * 100,
                100,
                0,
                SegFlags::ACK,
            ));
        }
        let buf = capture(&[idle, busy]);
        let cfg = LiveConfig {
            idle_timeout: Some(SimDuration::from_secs(5)),
            fin_linger: None,
            ..Default::default()
        };
        let summary = run(&buf[..], &cfg, |_| {}).unwrap();
        assert_eq!(summary.flows_seen, 2);
        assert_eq!(summary.flows_evicted_idle, 1, "idle flow evicted");
        assert_eq!(summary.packets_late, 1, "straggler dropped, not re-opened");
        assert_eq!(summary.flows_eof, 1, "busy flow survives to EOF");
    }

    #[test]
    fn fin_linger_finalizes_closed_flows() {
        let traces = vec![flow_trace(FlowKey::synthetic(1), 0)];
        let mut long = FlowTrace::new(FlowKey::synthetic(2));
        long.push(rec(0, Direction::In, 0, 0, 0, SegFlags::SYN));
        long.push(rec(10_000, Direction::Out, 0, 100, 0, SegFlags::ACK));
        let buf = capture(&[traces.into_iter().next().unwrap(), long]);
        let cfg = LiveConfig {
            fin_linger: Some(SimDuration::from_millis(100)),
            idle_timeout: None,
            ..Default::default()
        };
        let summary = run(&buf[..], &cfg, |_| {}).unwrap();
        assert_eq!(summary.flows_closed, 1, "FIN flow finalized by linger");
        assert_eq!(summary.flows_eof, 1);
    }

    #[test]
    fn key_reuse_opens_a_fresh_generation() {
        let k = FlowKey::synthetic(7);
        let mut gen1 = flow_trace(k, 0);
        // Reuse the 4-tuple 100 ms later.
        let gen2 = flow_trace(k, 100);
        gen1.records.extend(gen2.records.iter().copied());
        let buf = capture(&[gen1]);
        let cfg = LiveConfig {
            collect_flows: true,
            fin_linger: None,
            idle_timeout: None,
            ..Default::default()
        };
        let summary = run(&buf[..], &cfg, |_| {}).unwrap();
        assert_eq!(summary.flows_seen, 2, "SYN on closed key rotates");
        assert_eq!(summary.flows_closed, 1, "old generation finalized");
        assert_eq!(summary.flows.len(), 2);
        assert_eq!(summary.flows[0].0, k);
        assert_eq!(summary.flows[1].0, k);
    }

    #[test]
    fn empty_capture_yields_empty_summary() {
        let buf = capture(&[]);
        let mut reports = 0;
        let summary = run(&buf[..], &LiveConfig::default(), |_| reports += 1).unwrap();
        assert_eq!(reports, 0);
        assert_eq!(summary.flows_seen, 0);
        assert_eq!(summary.packets, 0);
        assert_eq!(summary.intervals, 0);
    }

    #[test]
    fn epoch_timestamped_capture_runs_quickly() {
        // Real tcpdump output carries wall-clock epoch timestamps; the
        // pipeline (and in particular the timers, whose clock starts at
        // 0) must not degrade on the jump to ~1.75e15 us.
        let epoch_ms = 1_754_000_000_000u64;
        let traces: Vec<FlowTrace> = (0..5)
            .map(|i| flow_trace(FlowKey::synthetic(i), epoch_ms + (i as u64) * 700))
            .collect();
        let buf = capture(&traces);
        let t0 = std::time::Instant::now();
        let summary = run(&buf[..], &LiveConfig::default(), |_| {}).unwrap();
        assert_eq!(summary.flows_seen, 5);
        assert_eq!(summary.packets, 30);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "epoch-timestamped capture stalled: {:?}",
            t0.elapsed()
        );
    }
}
