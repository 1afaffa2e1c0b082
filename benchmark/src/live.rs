//! The live pipeline (`tapo live`): inputs, the fused run through
//! `tapo::live::run`, the staged run that re-creates the inline loop from
//! public pieces with a span around each, and the probes that drive one
//! public type alone.
//!
//! Input never crosses a link or a file: the capture is generated into a
//! byte vector and the pipeline pulls it through `Read` on its own thread.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use simnet::time::SimDuration;
use simnet::SimRng;
use tapo::fleet::QSketch;
use tapo::json::Json;
use tapo::live::{
    self, cell_of, default_shards, merge_by_port, EngineParams, IntervalDelta, IntervalReport,
    LightTable, LiveConfig, LiveSummary, ShardEngine, TierConfig, Work,
};
use tapo::StreamAnalyzer;
use tcp_trace::pcap::{PacketBatch, PcapStream, SeqTracker};
use tcp_trace::{FlowKey, TraceRecord};
use workloads::{generate_interleaved, LiveGenSpec};

use crate::paced::{index_capture, CaptureIndex, PacedReader};
use crate::span::{LayerMedians, Rounds};
use crate::spec::{LiveMode, PACED_PKTS_PER_S};
use crate::stats::{self, Fnv};
use crate::{median_of, process_cpu, Metrics, Traced, Tracer};

/// Flows per service of the capture: at full scale 3 000 flows in all,
/// ~1.8 M packets, ~940 concurrent at the 5 ms mean arrival gap; a tenth
/// of that for `--quick` and for the reference input of traced runs.
pub fn flows_per_service(full: bool) -> usize {
    if full {
        1000
    } else {
        100
    }
}
/// Packets the probes translate and replay.
const PROBE_PKTS: usize = 200_000;
/// Packets of the paced pass a traced run of a closed-loop workload makes
/// for the open-loop reader's bookkeeping metrics (0.3 s at the rate).
const PACED_PROBE_PKTS: usize = 150_000;

pub struct LiveInput {
    pub capture: Vec<u8>,
    pub packets: u64,
    pub index: CaptureIndex,
}

/// Generate the interleaved three-service capture for `seed` in memory,
/// on at most `available_parallelism` simulation threads.
pub fn generate(seed: u64, flows_per_service: usize) -> LiveInput {
    let spec = LiveGenSpec {
        flows_per_service,
        seed,
        mean_gap: SimDuration::from_millis(5),
        threads: 0,
        ..Default::default()
    };
    let mut capture = Vec::new();
    let stats = generate_interleaved(&mut capture, &spec).expect("writing to memory");
    let index = index_capture(&capture, LiveConfig::default().interval.as_micros());
    assert_eq!(index.ends.len() as u64, stats.packets);
    LiveInput {
        capture,
        packets: stats.packets,
        index,
    }
}

/// The configuration a mode runs, at its own shard count.
pub fn config(mode: LiveMode) -> LiveConfig {
    match mode {
        LiveMode::Heavy => LiveConfig::default(),
        LiveMode::TwoTier | LiveMode::Paced => LiveConfig {
            tier: Some(TierConfig::default()),
            max_flows: 1_000_000,
            ..LiveConfig::default()
        },
    }
}

/// What `tapo live` runs with no flags: `default_shards()` workers behind
/// rings and cut barriers. Its report bytes must equal the inline path's.
pub fn no_flags() -> LiveConfig {
    LiveConfig::builder().build().expect("defaults validate")
}

/// Rendered output of one pass: every interval report and the summary as
/// JSON lines, which is what `tapo live` writes.
struct Rendered {
    hash: Fnv,
    bytes: u64,
    reports: u64,
    /// When each report had been rendered.
    at: Vec<Instant>,
}

impl Rendered {
    fn new() -> Self {
        Rendered {
            hash: Fnv::new(),
            bytes: 0,
            reports: 0,
            at: Vec::new(),
        }
    }

    fn line(&mut self, doc: &Json) {
        let line = doc.compact();
        self.hash.update(line.as_bytes());
        self.hash.update(b"\n");
        self.bytes += line.len() as u64 + 1;
    }

    fn report(&mut self, r: &IntervalReport) {
        self.line(&r.to_json());
        self.reports += 1;
        self.at.push(Instant::now());
    }
}

/// What one pass over the capture produced.
pub struct LiveOut {
    pub wall: Duration,
    pub hash: u64,
    pub report_bytes: u64,
    pub reports: u64,
    pub summary: LiveSummary,
    /// Open loop only, per report: ms from the due time of the packet that
    /// triggers the cut to the rendered report.
    pub lags_ms: Vec<f64>,
}

impl LiveOut {
    fn new(wall: Duration, out: Rendered, summary: LiveSummary, lags_ms: Vec<f64>) -> Self {
        LiveOut {
            wall,
            hash: out.hash.0,
            report_bytes: out.bytes,
            reports: out.reports,
            summary,
            lags_ms,
        }
    }

    /// Packets offered that the pipeline lost: frames it could not decode
    /// or that were cut short, and any the summary does not count. A late
    /// straggler of a flow already torn down is not among them: dropping
    /// and counting it is what the daemon is meant to do, its share is the
    /// layer metric `live.shard.late_share`, and the report bytes the
    /// checks compare include it.
    pub fn failed(&self, offered: u64) -> u64 {
        self.summary.packets_skipped
            + self.summary.records_truncated
            + offered.saturating_sub(self.summary.packets)
    }
}

/// Closed loop, tracing off: the whole capture through `live::run`.
pub fn fused(input: &LiveInput, cfg: &LiveConfig) -> LiveOut {
    let mut out = Rendered::new();
    let t = Instant::now();
    let summary =
        live::run(&input.capture[..], cfg, |r| out.report(r)).expect("generated capture reads");
    out.line(&summary.to_json());
    LiveOut::new(t.elapsed(), out, summary, Vec::new())
}

/// How the open-loop reader fared over one paced pass.
pub struct PacedStats {
    pub reads: u64,
    pub backlog_max_ms: f64,
    pub backlog_final_ms: f64,
}

/// Open loop: the first `pkts` packets released on schedule at
/// [`PACED_PKTS_PER_S`], lag measured from each trigger's due time.
pub fn paced(input: &LiveInput, cfg: &LiveConfig, pkts: usize) -> (LiveOut, PacedStats) {
    let pkts = pkts.min(input.index.ends.len());
    let prefix = &input.capture[..input.index.ends[pkts - 1] as usize];
    let of_prefix;
    let index = if pkts == input.index.ends.len() {
        &input.index
    } else {
        of_prefix = index_capture(prefix, cfg.interval.as_micros());
        &of_prefix
    };
    let mut reader = PacedReader::new(prefix, &index.ends, PACED_PKTS_PER_S);
    let mut out = Rendered::new();
    let t = Instant::now();
    let summary = live::run(&mut reader, cfg, |r| out.report(r)).expect("generated capture reads");
    out.line(&summary.to_json());
    let wall = t.elapsed();
    assert_eq!(out.at.len(), index.triggers.len(), "one trigger per report");
    let lags = out
        .at
        .iter()
        .zip(&index.triggers)
        .map(|(at, &pkt)| {
            at.saturating_duration_since(reader.due_at(pkt))
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let stats = PacedStats {
        reads: reader.reads,
        backlog_max_ms: reader.backlog_max.as_secs_f64() * 1e3,
        backlog_final_ms: reader.backlog_final.as_secs_f64() * 1e3,
    };
    (LiveOut::new(wall, out, summary, lags), stats)
}

// Span names of the staged run.
const RUN: &str = "live.driver.run";
const FILL: &str = "trace.pcap.fill_batch";
const PROCESS: &str = "live.shard.process";
const CUT: &str = "live.shard.cut";
const EOF: &str = "live.shard.eof";
const BUILD: &str = "live.report.build";
const RENDER: &str = "live.report.render";
/// The layers a staged run is made of (children of [`RUN`]).
const LAYERS: [&str; 6] = [FILL, PROCESS, CUT, EOF, BUILD, RENDER];

/// The driver's share of an interval cut: fold the delta into the summary
/// and build the report, as `live::Driver::cut` does for its one inline
/// engine.
fn build_report(
    cfg: &LiveConfig,
    summary: &mut LiveSummary,
    iv: u64,
    skipped: u64,
    (delta, active, heavy): (IntervalDelta, u64, u64),
) -> IntervalReport {
    summary.flows_seen += delta.flows_opened;
    summary.flows_closed += delta.flows_closed;
    summary.flows_evicted_idle += delta.flows_evicted_idle;
    summary.flows_shed += delta.flows_shed;
    summary.flows_eof += delta.flows_eof;
    summary.flows_finalized += delta.flows_finalized;
    summary.packets += delta.packets;
    summary.packets_late += delta.packets_late;
    summary.promotions += delta.promotions;
    summary.demotions += delta.demotions;
    summary.promotions_denied += delta.promotions_denied;
    summary.live_stalls += delta.live_stalls;
    summary.breakdown.merge(&delta.breakdown);
    merge_by_port(&mut summary.by_port, &delta.by_port);
    if let Some(s) = summary.rtt_sketch.as_mut() {
        s.merge(&delta.rtt_sketch);
    }
    if let Some(s) = summary.stall_sketch.as_mut() {
        s.merge(&delta.stall_sketch);
    }
    summary.intervals += 1;
    let interval_us = cfg.interval.as_micros().max(1);
    IntervalReport {
        daemon: cfg.daemon_id,
        interval: iv,
        start_us: iv * interval_us,
        end_us: (iv + 1) * interval_us,
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
        rtt_sketch: cfg.sketch.then_some(delta.rtt_sketch),
        stall_sketch: cfg.sketch.then_some(delta.stall_sketch),
        shard_occupancy: None,
    }
}

/// One staged iteration: the inline (one-shard) loop of `live::run`
/// rebuilt from `PcapStream::fill_batch`, `ShardEngine::{process, cut,
/// eof}` and `IntervalReport::to_json`, with a span around each call. Its
/// rendered bytes must equal the fused run's.
pub fn staged(input: &LiveInput, cfg: &LiveConfig, tracer: &mut Tracer) -> LiveOut {
    let t = Instant::now();
    let run = tracer.enter(RUN);
    let mut stream = PcapStream::new(&input.capture[..]).expect("generated capture reads");
    let mut eng = ShardEngine::new(EngineParams {
        analyzer: cfg.analyzer,
        collect: cfg.collect_flows,
        tier: cfg.tier,
        idle_us: cfg.idle_timeout.map(|d| d.as_micros()),
        linger_us: cfg.fin_linger.map(|d| d.as_micros()),
        ncells: cfg.effective_cells(),
        shards: 1,
        shard: 0,
        max_flows: cfg.max_flows,
        sketch: cfg.sketch,
    });
    let mut summary = LiveSummary {
        daemon: cfg.daemon_id,
        rtt_sketch: cfg.sketch.then(QSketch::new),
        stall_sketch: cfg.sketch.then(QSketch::new),
        ..LiveSummary::default()
    };
    let mut out = Rendered::new();
    let interval_us = cfg.interval.as_micros().max(1);
    let batch_cap = cfg.batch.max(1);
    let mut batch = PacketBatch::new();
    let mut cur_iv: Option<u64> = None;
    let mut next_cut_us = 0u64;
    let mut prev_skipped = 0u64;
    let mut last_t_us = 0u64;
    let mut gidx = 0u64;

    // Cut the engine, build the report, render it: three spans.
    let mut cut = |eng: &mut ShardEngine,
                   summary: &mut LiveSummary,
                   out: &mut Rendered,
                   tracer: &mut Tracer,
                   iv: u64,
                   skipped_cum: u64,
                   now_us: u64| {
        let s = tracer.enter(CUT);
        let cut = eng.cut(now_us);
        tracer.exit(s, 1);
        let s = tracer.enter(BUILD);
        let r = build_report(cfg, summary, iv, skipped_cum - prev_skipped, cut);
        prev_skipped = skipped_cum;
        tracer.exit(s, 1);
        let s = tracer.enter(RENDER);
        out.report(&r);
        tracer.exit(s, 1);
    };

    loop {
        let s = tracer.enter(FILL);
        let n = stream
            .fill_batch(&mut batch, batch_cap)
            .expect("generated capture reads");
        tracer.exit(s, n as u64);
        if n == 0 {
            break;
        }
        let mut j = 0;
        while j < n {
            let t_us = batch.pkts()[j].t.as_micros();
            if t_us >= next_cut_us {
                let iv = t_us / interval_us;
                if let Some(ci) = cur_iv {
                    let skipped = batch.skipped_before(j);
                    cut(&mut eng, &mut summary, &mut out, tracer, ci, skipped, t_us);
                }
                cur_iv = Some(iv);
                next_cut_us = (iv + 1).saturating_mul(interval_us);
            }
            // One span over the run of packets up to the next boundary.
            let s = tracer.enter(PROCESS);
            let from = j;
            while j < n {
                let pkt = &batch.pkts()[j];
                let t_us = pkt.t.as_micros();
                if j > from && t_us >= next_cut_us {
                    break;
                }
                eng.process(gidx, pkt, t_us);
                last_t_us = t_us;
                gidx += 1;
                j += 1;
            }
            tracer.exit(s, (j - from) as u64);
        }
    }

    let s = tracer.enter(EOF);
    eng.eof(last_t_us);
    tracer.exit(s, 1);
    let stats = stream.stats();
    if let Some(ci) = cur_iv {
        let skipped = stats.packets_skipped;
        cut(
            &mut eng,
            &mut summary,
            &mut out,
            tracer,
            ci,
            skipped,
            last_t_us,
        );
    }
    let totals = eng.totals();
    summary.max_active_flows = totals.active_hw;
    summary.max_heavy_flows = totals.heavy_hw;
    summary.packets_skipped = stats.packets_skipped;
    summary.records_truncated = stats.records_truncated;
    summary.stalled = summary.breakdown.total_stalled;
    let s = tracer.enter(RENDER);
    out.line(&summary.to_json());
    tracer.exit(s, 1);
    tracer.exit(run, gidx);
    LiveOut::new(t.elapsed(), out, summary, Vec::new())
}

/// The traced pass over the live pipeline: fused runs at one shard and at
/// the default shard count, staged runs, one paced pass and the probes.
/// Fills every `trace.pcap.*`, `live.*`, `core.stream.{push,finish}*` and
/// `fleet.sketch.*` metric.
pub fn traced(
    input: &LiveInput,
    mode: LiveMode,
    budget: Duration,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Traced {
    let mut problems = Vec::new();
    let own = config(mode);
    let one = LiveConfig { shards: 1, ..own };
    let many = LiveConfig {
        shards: default_shards(),
        ..own
    };
    let pkts = input.packets as f64;

    // Rounds of: tracing off at one shard, tracing off at the default
    // shard count, staged. CPU time is taken around the workload's own
    // shard count; the kernel counts it in 10 ms ticks, hence the sum.
    let mut wall_one = Vec::new();
    let mut wall_many = Vec::new();
    let (mut cpu_own, mut runs_own) = (Duration::ZERO, 0u32);
    let mut iters = Vec::new();
    let warm = fused(input, &one);
    let mut last = None;
    // The open-loop pass of `live_paced` comes out of the same budget.
    let paced_pkts = if mode == LiveMode::Paced {
        input.index.ends.len()
    } else {
        PACED_PROBE_PKTS.min(input.index.ends.len())
    };
    let paced_pass = Duration::from_secs_f64(paced_pkts as f64 / PACED_PKTS_PER_S);
    let mut rounds = Rounds::new(budget.saturating_sub(paced_pass));
    while rounds.wants_more() {
        for (cfg, walls) in [(&many, &mut wall_many), (&one, &mut wall_one)] {
            let cpu = process_cpu();
            let r = fused(input, cfg);
            if cfg.shards == own.shards {
                cpu_own += process_cpu() - cpu;
                runs_own += 1;
            }
            if r.hash != warm.hash {
                problems.push(format!(
                    "live: report bytes differ at {} shard(s): {:016x} vs {:016x}",
                    cfg.shards, r.hash, warm.hash
                ));
            }
            walls.push(r.wall);
        }
        let iter = tracer.next_iter();
        let r = staged(input, &one, tracer);
        if r.hash != warm.hash {
            problems.push(format!(
                "live: staged report bytes {:016x} differ from fused {:016x}",
                r.hash, warm.hash
            ));
        }
        let sums = tracer.layer_sums(iter);
        let layers_ns = LAYERS.iter().map(|name| sums[name].total_ns).sum();
        rounds.round(
            *wall_one.last().expect("just pushed"),
            layers_ns,
            sums[RUN].total_ns,
        );
        iters.push(iter);
        last = Some(r);
    }
    let last = last.expect("at least three rounds");
    let secs = |walls: &[Duration]| {
        stats::median(&walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
    };
    let fused_wall = secs(&wall_one);
    let layers = LayerMedians::of(tracer, &iters);
    let total_ns = |name: &str| layers.total_ns(name);
    let layers_ns: f64 = LAYERS.iter().map(|n| total_ns(n)).sum();
    let s = &last.summary;
    m.set("trace.pcap.ns_per_pkt", total_ns(FILL) / pkts);
    m.set(
        "trace.pcap.mib_per_s",
        input.capture.len() as f64 / (1 << 20) as f64 / (total_ns(FILL) / 1e9),
    );
    m.set(
        "trace.pcap.allocs_per_kpkt",
        layers.allocs(FILL) / pkts * 1e3,
    );
    m.set(
        "trace.pcap.skipped_share",
        s.packets_skipped as f64 / (s.packets + s.packets_skipped) as f64,
    );
    m.set("live.shard.ns_per_pkt", total_ns(PROCESS) / pkts);
    m.set(
        "live.shard.allocs_per_kpkt",
        layers.allocs(PROCESS) / pkts * 1e3,
    );
    m.set("live.shard.cut_us", layers.per_call_ns(CUT) / 1e3);
    m.set("live.shard.eof_ms", total_ns(EOF) / 1e6);
    m.set("live.shard.late_share", s.packets_late as f64 / pkts);
    m.set(
        "live.shard.shed_share",
        s.flows_shed as f64 / s.flows_seen.max(1) as f64,
    );
    m.set("live.shard.promotions", s.promotions as f64);
    m.set("live.shard.demotions", s.demotions as f64);
    m.set(
        "live.shard.promotion_denied_share",
        s.promotions_denied as f64 / (s.promotions + s.promotions_denied).max(1) as f64,
    );
    m.set("live.shard.max_active_flows", s.max_active_flows as f64);
    m.set("live.shard.max_heavy_flows", s.max_heavy_flows as f64);
    m.set("live.report.render_us", layers.per_call_ns(RENDER) / 1e3);
    m.set(
        "live.report.bytes_per_report",
        last.report_bytes as f64 / (last.reports + 1) as f64,
    );
    m.set("live.driver.pkts", pkts);
    m.set(
        "live.driver.self_ns_per_pkt",
        (fused_wall * 1e9 - layers_ns) / pkts,
    );
    m.set("live.driver.reconcile_ratio", rounds.reconcile_ratio());
    m.set("live.driver.trace_overhead_ratio", rounds.overhead_ratio());
    m.set("live.driver.shard_speedup", fused_wall / secs(&wall_many));
    m.set(
        "live.driver.cpu_ns_per_pkt",
        cpu_own.as_nanos() as f64 / runs_own as f64 / pkts,
    );

    // Open loop: the whole capture when that is the workload, else a short
    // prefix, for the reader's own bookkeeping.
    let (_, p) = paced(input, &one, paced_pkts);
    m.set("trace.pcap.reads", p.reads as f64);
    m.set("trace.pcap.backlog_ms_max", p.backlog_max_ms);

    probes(input, &one, seed, m);
    Traced {
        attempted: input.packets,
        failed: warm.failed(input.packets),
        problems,
    }
}

/// First [`PROBE_PKTS`] packets, translated per flow exactly as a shard
/// engine does before it updates a light row or pushes to an analyzer.
fn translated(input: &LiveInput) -> (Vec<(u32, TraceRecord, u64)>, Vec<FlowKey>) {
    let mut stream = PcapStream::new(&input.capture[..]).expect("generated capture reads");
    let mut slots: HashMap<FlowKey, u32> = HashMap::new();
    let mut trackers: Vec<SeqTracker> = Vec::new();
    let mut recs = Vec::new();
    let mut keys = Vec::new();
    while let Some(p) = stream.next_packet().expect("generated capture reads") {
        if keys.len() == PROBE_PKTS {
            break;
        }
        keys.push(p.key);
        let slot = *slots.entry(p.key).or_insert_with(|| {
            trackers.push(SeqTracker::new());
            trackers.len() as u32 - 1
        });
        if let Some(rec) = trackers[slot as usize].translate(p.t, &p.raw) {
            recs.push((slot, rec, p.t.as_micros()));
        }
    }
    (recs, keys)
}

/// Each probe drives one public type alone, three times over.
fn probes(input: &LiveInput, cfg: &LiveConfig, seed: u64, m: &mut Metrics) {
    let (recs, keys) = translated(input);
    let flows = recs.iter().map(|r| r.0).max().map_or(0, |s| s as usize + 1);

    // Light tier: one row update per record.
    let tier = TierConfig::default();
    let ns = median_of(3, || {
        let mut table = LightTable::new(cfg.analyzer.replay);
        for slot in 0..flows as u32 {
            table.init(slot);
        }
        let t = Instant::now();
        for (slot, rec, t_us) in &recs {
            black_box(table.update(*slot, rec, *t_us, &tier));
        }
        t.elapsed()
    });
    m.set(
        "live.monitor.update_ns_per_rec",
        ns.as_nanos() as f64 / recs.len() as f64,
    );

    // Heavy tier: a recycled analyzer replays each flow, then finishes.
    let mut by_flow: Vec<Vec<TraceRecord>> = vec![Vec::new(); flows];
    for (slot, rec, _) in &recs {
        by_flow[*slot as usize].push(*rec);
    }
    let mut pushes = Vec::new();
    let mut finishes = Vec::new();
    for _ in 0..3 {
        let mut analyzer = StreamAnalyzer::new(cfg.analyzer);
        let (mut p, mut f) = (Duration::ZERO, Duration::ZERO);
        for flow in &by_flow {
            let t0 = Instant::now();
            for rec in flow {
                black_box(analyzer.push(rec));
            }
            let t1 = Instant::now();
            black_box(analyzer.finish_reset());
            p += t1 - t0;
            f += t1.elapsed();
        }
        pushes.push(p);
        finishes.push(f);
    }
    pushes.sort();
    finishes.sort();
    let (push, finish) = (pushes[1], finishes[1]);
    m.set(
        "core.stream.push_ns_per_rec",
        push.as_nanos() as f64 / recs.len() as f64,
    );
    m.set(
        "core.stream.finish_us_per_flow",
        finish.as_nanos() as f64 / 1e3 / flows as f64,
    );

    // Routing hash of the sharded driver.
    let ncells = cfg.effective_cells();
    let ns = median_of(3, || {
        let t = Instant::now();
        let mut acc = 0usize;
        for k in &keys {
            acc = acc.wrapping_add(cell_of(black_box(k), ncells));
        }
        black_box(acc);
        t.elapsed()
    });
    m.set(
        "live.fnv.cell_of_ns_per_pkt",
        ns.as_nanos() as f64 / keys.len() as f64,
    );

    m.set(
        "live.ring.handoff_ns_per_batch",
        ring_handoff_ns(input, cfg),
    );

    // Quantile sketch: RTT-like values, then merges of interval-sized
    // sketches into one (what every cut and every fleet bucket does).
    let mut rng = SimRng::seed(seed ^ 0x5ce7c4);
    let values: Vec<u64> = (0..1_000_000)
        .map(|_| rng.range_u64(200, 2_000_000))
        .collect();
    let ns = median_of(3, || {
        let mut s = QSketch::new();
        let t = Instant::now();
        for &v in &values {
            s.insert(v);
        }
        black_box(s.count());
        t.elapsed()
    });
    m.set(
        "fleet.sketch.insert_ns",
        ns.as_nanos() as f64 / values.len() as f64,
    );
    let parts: Vec<QSketch> = values
        .chunks(500)
        .map(|c| {
            let mut s = QSketch::new();
            c.iter().for_each(|&v| s.insert(v));
            s
        })
        .collect();
    let ns = median_of(3, || {
        let mut acc = QSketch::new();
        let t = Instant::now();
        for p in &parts {
            acc.merge(p);
        }
        black_box(acc.count());
        t.elapsed()
    });
    m.set(
        "fleet.sketch.merge_ns",
        ns.as_nanos() as f64 / parts.len() as f64,
    );
}

/// Driver→shard handoff alone: full 256-`Work` buffers pushed down a
/// work ring to a consumer thread that hands each straight back on the
/// spare ring, as `shard_worker` does once it has drained a batch.
fn ring_handoff_ns(input: &LiveInput, cfg: &LiveConfig) -> f64 {
    const BATCHES: usize = 20_000;
    let mut stream = PcapStream::new(&input.capture[..]).expect("generated capture reads");
    let mut batch = PacketBatch::new();
    stream
        .fill_batch(&mut batch, cfg.batch)
        .expect("generated capture reads");
    let full: Vec<Work> = batch
        .pkts()
        .iter()
        .enumerate()
        .map(|(i, pkt)| Work::Pkt {
            gidx: i as u64,
            pkt: *pkt,
        })
        .collect();
    let (mut tx, mut rx) = live::ring::ring::<Vec<Work>>(cfg.ring_depth);
    let (mut spare_tx, mut spare_rx) = live::ring::ring::<Vec<Work>>(cfg.ring_depth + 2);
    std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let mut seen = 0usize;
            while let Some(buf) = rx.pop() {
                seen += buf.len();
                let _ = spare_tx.try_push(buf);
            }
            seen
        });
        let t = Instant::now();
        for _ in 0..BATCHES {
            let buf = spare_rx.try_pop().unwrap_or_else(|| full.clone());
            tx.push(buf).expect("consumer alive");
        }
        drop(tx);
        let seen = consumer.join().expect("ring consumer panicked");
        let ns = t.elapsed().as_nanos() as f64 / BATCHES as f64;
        assert_eq!(seen, BATCHES * full.len());
        ns
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_loop_renders_the_fused_bytes_in_every_mode() {
        let input = generate(11, 12);
        for mode in [LiveMode::Heavy, LiveMode::TwoTier] {
            let cfg = config(mode);
            let a = fused(&input, &cfg);
            let mut tracer = Tracer::new();
            tracer.next_iter();
            let b = staged(&input, &LiveConfig { shards: 1, ..cfg }, &mut tracer);
            assert_eq!(a.hash, b.hash, "{mode:?}");
            assert_eq!(a.summary.packets, input.packets);
            assert_eq!(a.reports as usize, input.index.triggers.len());
            assert_eq!(a.failed(input.packets), 0);
            // Every packet sits in exactly one process span.
            let sums = tracer.layer_sums(1);
            assert_eq!(sums[PROCESS].items, input.packets);
            assert_eq!(sums[FILL].items, input.packets);
            assert_eq!(sums[CUT].calls, a.reports);
        }
        // Heavy and the no-flags config differ only in shard count: same bytes.
        assert_eq!(
            fused(&input, &config(LiveMode::Heavy)).hash,
            fused(&input, &no_flags()).hash
        );
    }

    #[test]
    fn paced_pass_matches_the_closed_loop_bytes() {
        let input = generate(11, 12);
        let cfg = config(LiveMode::Paced);
        let (out, stats) = paced(&input, &cfg, usize::MAX);
        assert_eq!(out.hash, fused(&input, &cfg).hash);
        assert_eq!(out.lags_ms.len(), out.reports as usize);
        assert!(stats.reads > 0);
        // A prefix is a capture of its own.
        let (part, _) = paced(&input, &cfg, 500);
        assert_eq!(part.summary.packets, 500);
    }
}
