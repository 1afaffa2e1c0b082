//! The fleet aggregator (`tapo fleet`): daemon report streams in memory,
//! the fused ingest → aggregate → render pass, the same pass staged with a
//! span per call, and the parser / drift probes. No live layer runs here.

use std::hint::black_box;
use std::time::{Duration, Instant};

use simnet::time::SimDuration;
use tapo::fleet::{aggregate, read_reports, DriftDetector, FleetConfig, FleetOutcome};
use tapo::json::Json;
use tapo::live::{self, DaemonId, LiveConfig};
use tapo::report::parse::{parse_interval_line, ParsedInterval};
use tapo::Record;
use workloads::{daemon_specs, generate_interleaved, LiveGenSpec};

use crate::span::{LayerMedians, Rounds};
use crate::stats::Fnv;
use crate::{median_of, Metrics, Traced, Tracer};

pub const DAEMONS: usize = 8;
/// Interval records per daemon stream: 32 k records in all at full scale,
/// 2 k for `--quick` and for the reference input of traced runs.
pub fn records_per_daemon(full: bool) -> usize {
    if full {
        4000
    } else {
        250
    }
}
/// Lines the parser probes read.
const PROBE_LINES: usize = 2000;

pub struct FleetInput {
    /// One JSON-lines report stream per daemon: `(daemon id, bytes)`.
    pub streams: Vec<(String, Vec<u8>)>,
    pub records: u64,
    pub bytes: u64,
    /// Stalls summed over every record fed.
    pub stalls: u64,
}

/// Eight real daemon streams: each daemon's own capture (seeds
/// decorrelated by `daemon_specs`) runs through `tapo live` at 250 ms
/// intervals with sketches on, and its reports are repeated along the time
/// axis to `per_daemon` records, so content is real and length is free.
pub fn generate(seed: u64, per_daemon: usize) -> FleetInput {
    let base = LiveGenSpec {
        flows_per_service: 30,
        seed,
        mean_gap: SimDuration::from_millis(5),
        threads: 0,
        ..Default::default()
    };
    let mut input = FleetInput {
        streams: Vec::new(),
        records: 0,
        bytes: 0,
        stalls: 0,
    };
    for (id, spec) in daemon_specs(&base, DAEMONS) {
        let mut capture = Vec::new();
        generate_interleaved(&mut capture, &spec).expect("writing to memory");
        let cfg = LiveConfig {
            interval: SimDuration::from_millis(250),
            daemon_id: DaemonId::new(&id).expect("fe<N> is a valid id"),
            ..LiveConfig::default()
        };
        let mut templates = Vec::new();
        live::run(&capture[..], &cfg, |r| templates.push(r.clone()))
            .expect("generated capture reads");
        assert!(!templates.is_empty(), "capture spans an interval");
        let cadence_us = cfg.interval.as_micros();
        let mut text = String::new();
        for k in 0..per_daemon {
            // One record per interval, back to back: a busy daemon's
            // cadence, and the same number of fleet buckets on every seed.
            let mut rec = templates[k % templates.len()].clone();
            rec.interval = k as u64;
            rec.start_us = k as u64 * cadence_us;
            rec.end_us = rec.start_us + cadence_us;
            input.stalls += rec.breakdown.total_stalls;
            text.push_str(&rec.to_json().compact());
            text.push('\n');
        }
        input.records += per_daemon as u64;
        input.bytes += text.len() as u64;
        input.streams.push((id, text.into_bytes()));
    }
    input
}

pub struct FleetOut {
    pub wall: Duration,
    pub hash: u64,
    pub out_records: u64,
    pub outcome: FleetOutcome,
}

impl FleetOut {
    /// Records fed that the summary does not account for.
    pub fn failed(&self, input: &FleetInput) -> u64 {
        input.records.saturating_sub(self.outcome.summary.records)
    }
}

fn config() -> FleetConfig {
    FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    }
}

/// Everything `tapo fleet` prints, as JSON lines: buckets, alerts, summary.
fn render(outcome: &FleetOutcome) -> (Fnv, u64) {
    let mut hash = Fnv::new();
    let mut lines = 0u64;
    let mut emit = |doc: Json| {
        hash.update(doc.compact().as_bytes());
        hash.update(b"\n");
        lines += 1;
    };
    outcome.intervals.iter().for_each(|iv| emit(iv.json()));
    outcome.alerts.iter().for_each(|a| emit(a.json()));
    emit(outcome.summary.json());
    (hash, lines)
}

/// Parse one daemon's stream on one thread, appending its records.
fn read_stream(
    (id, bytes): &(String, Vec<u8>),
    records: &mut Vec<ParsedInterval>,
    skipped: &mut u64,
) -> u64 {
    let (mut recs, skip) = read_reports(id, &bytes[..], 1).expect("generated reports parse");
    let n = recs.len() as u64;
    records.append(&mut recs);
    *skipped += skip;
    n
}

/// Tracing off: ingest on one thread, aggregate, render.
pub fn fused(input: &FleetInput) -> FleetOut {
    let t = Instant::now();
    let (mut records, mut skipped) = (Vec::new(), 0);
    for stream in &input.streams {
        read_stream(stream, &mut records, &mut skipped);
    }
    let outcome = aggregate(&records, skipped, &config());
    let (hash, out_records) = render(&outcome);
    FleetOut {
        wall: t.elapsed(),
        hash: hash.0,
        out_records,
        outcome,
    }
}

const RUN: &str = "fleet.run";
const INGEST: &str = "fleet.ingest.read_reports";
const MERGE: &str = "fleet.merge.aggregate";
const RENDER: &str = "sink.render";
/// The layers a staged run is made of (children of [`RUN`]).
const LAYERS: [&str; 3] = [INGEST, MERGE, RENDER];

/// The same pass with a span around each call.
pub fn staged(input: &FleetInput, tracer: &mut Tracer) -> FleetOut {
    let t = Instant::now();
    let run = tracer.enter(RUN);
    let (mut records, mut skipped) = (Vec::new(), 0);
    for stream in &input.streams {
        let s = tracer.enter(INGEST);
        let n = read_stream(stream, &mut records, &mut skipped);
        tracer.exit(s, n);
    }
    let s = tracer.enter(MERGE);
    let outcome = aggregate(&records, skipped, &config());
    tracer.exit(s, records.len() as u64);
    let s = tracer.enter(RENDER);
    let (hash, out_records) = render(&outcome);
    tracer.exit(s, out_records);
    tracer.exit(run, records.len() as u64);
    FleetOut {
        wall: t.elapsed(),
        hash: hash.0,
        out_records,
        outcome,
    }
}

/// The traced pass over the fleet pipeline. Fills every `fleet.ingest.*`,
/// `fleet.merge.*`, `fleet.*_ratio`, `sink.*`, `report.parse.*`,
/// `json.*` and `fleet.drift.*` metric.
pub fn traced(
    input: &FleetInput,
    budget: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Traced {
    let mut problems = Vec::new();
    let warm = fused(input);
    let mut iters = Vec::new();
    let mut rounds = Rounds::new(budget);
    while rounds.wants_more() {
        let r = fused(input);
        if r.hash != warm.hash {
            problems.push("fleet: output bytes differ between iterations".to_string());
        }
        let iter = tracer.next_iter();
        if staged(input, tracer).hash != warm.hash {
            problems.push("fleet: staged output bytes differ from fused".to_string());
        }
        let sums = tracer.layer_sums(iter);
        let layers_ns = LAYERS.iter().map(|name| sums[name].total_ns).sum();
        rounds.round(r.wall, layers_ns, sums[RUN].total_ns);
        iters.push(iter);
    }
    let layers = LayerMedians::of(tracer, &iters);
    let total_ns = |name: &str| layers.total_ns(name);
    let recs = input.records as f64;
    m.set("fleet.ingest.records", recs);
    m.set("fleet.ingest.us_per_record", total_ns(INGEST) / 1e3 / recs);
    m.set(
        "fleet.ingest.mib_per_s",
        input.bytes as f64 / (1 << 20) as f64 / (total_ns(INGEST) / 1e9),
    );
    m.set(
        "fleet.ingest.allocs_per_record",
        layers.allocs(INGEST) / recs,
    );
    m.set("fleet.merge.us_per_record", total_ns(MERGE) / 1e3 / recs);
    m.set("fleet.merge.buckets", warm.outcome.summary.buckets as f64);
    m.set("fleet.merge.alerts", warm.outcome.summary.alerts as f64);
    m.set(
        "sink.render_us_per_record",
        total_ns(RENDER) / 1e3 / warm.out_records as f64,
    );
    m.set("fleet.reconcile_ratio", rounds.reconcile_ratio());
    m.set("fleet.trace_overhead_ratio", rounds.overhead_ratio());

    // Probes: the two parsers over the same lines, and the drift detector
    // over the buckets the aggregate produced.
    let text = std::str::from_utf8(&input.streams[0].1).expect("JSON lines are UTF-8");
    let lines: Vec<&str> = text.lines().take(PROBE_LINES).collect();
    let ns = median_of(3, || {
        let t = Instant::now();
        for line in &lines {
            black_box(parse_interval_line(line).expect("generated line parses"));
        }
        t.elapsed()
    });
    m.set(
        "report.parse.us_per_line",
        ns.as_nanos() as f64 / 1e3 / lines.len() as f64,
    );
    let ns = median_of(3, || {
        let t = Instant::now();
        for line in &lines {
            black_box(Json::parse(line).expect("generated line parses"));
        }
        t.elapsed()
    });
    m.set(
        "json.parse_us_per_line",
        ns.as_nanos() as f64 / 1e3 / lines.len() as f64,
    );
    let buckets = &warm.outcome.intervals;
    let ns = median_of(3, || {
        let mut detector = DriftDetector::new(config().drift);
        let t = Instant::now();
        for iv in buckets {
            black_box(detector.observe(iv));
        }
        t.elapsed()
    });
    m.set(
        "fleet.drift.observe_us_per_bucket",
        ns.as_nanos() as f64 / 1e3 / buckets.len() as f64,
    );
    if warm.outcome.summary.stalls != input.stalls {
        problems.push("fleet: stalls fed and stalls in the summary differ".to_string());
    }
    Traced {
        attempted: input.records,
        failed: warm.failed(input),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_and_stall_fed_is_accounted_for() {
        let input = generate(5, 40);
        assert_eq!(input.records, (DAEMONS * 40) as u64);
        assert_eq!(input.streams.len(), DAEMONS);
        let a = fused(&input);
        assert_eq!(a.failed(&input), 0);
        assert_eq!(a.outcome.summary.stalls, input.stalls);
        assert_eq!(a.outcome.summary.daemons, DAEMONS as u64);
        let mut tracer = Tracer::new();
        let it = tracer.next_iter();
        let b = staged(&input, &mut tracer);
        assert_eq!(a.hash, b.hash);
        let sums = tracer.layer_sums(it);
        assert_eq!(sums[INGEST].calls, DAEMONS as u64);
        assert_eq!(sums[INGEST].items, input.records);
        assert_eq!(sums[RENDER].items, a.out_records);
    }
}
