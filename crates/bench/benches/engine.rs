//! The engine micro-bench: end-to-end flows/sec through the full
//! sample → simulate → analyze pipeline across a thread-scaling curve,
//! emitted machine-readably as `BENCH_engine.json` so every PR has a
//! perf trajectory to compare against.
//!
//! Run with `cargo bench -p bench-suite --bench engine`. Knobs:
//!
//! * `BENCH_ENGINE_FLOWS` — flows per service (default 40; CI uses a
//!   smaller count). flows/sec is normalized, so counts are comparable.
//! * `BENCH_ENGINE_THREADS` — cap on the scaling curve's thread counts.
//!   The curve is `[1, 2, 4, all-cores]`, deduped and clipped to
//!   `min(cap, cores_available)`; CI smoke runs with a cap of 2.
//! * `BENCH_ENGINE_OUT` — output path (default `BENCH_engine.json` at the
//!   workspace root).
//! * `BENCH_LIVE_FLOWS` — flows per service for the live-path phases
//!   (default 3334, i.e. ≥ 10k flows total; CI smoke uses a small count).
//! * `BENCH_LIVE_SHARDS` — shard count for a live child phase (set by the
//!   parent while sweeping the per-shard-count scaling curve).
//! * `BENCH_FLEET_DAEMONS` — simulated daemon report streams for the
//!   fleet aggregation phase (default 8).
//! * `BENCH_FLEET_INTERVALS` — interval records per daemon stream
//!   (default 2000; CI smoke uses a smaller count). records/sec is
//!   normalized, so counts are comparable.
//! * `-- --gate` — regression-gate mode, comparing this run against the
//!   *committed* JSON's `current` section:
//!   - single-thread flows/sec must be ≥ 80% of the committed value;
//!   - live-path packets/sec must be ≥ 80% of the committed `live` value;
//!   - the million-flow two-tier phase must shed **zero** flows, and its
//!     packets/sec (≥ 80%) and peak RSS (≤ 120%) gate against the
//!     committed `live_1m` section;
//!   - peak RSS must be ≤ 120% of the committed value; each phase runs in
//!     a child process, so this gate sees only the engine curve and the
//!     per-phase gates see only their own pipeline — capture generation
//!     can no longer mask a pipeline memory regression;
//!   - when the capture holds more flows than the cap, the cap must have
//!     actually shed flows and the high-water mark must respect it;
//!   - on machines with ≥ 2 cores, the best multi-shard live pkts/s must
//!     be at least the single-shard pkts/s (the parallel front end must
//!     not cost throughput);
//!   - the fleet phase must aggregate every record it was fed (an
//!     absolute count check), and its records/sec (≥ 80%) and peak RSS
//!     (≤ 120%) gate against the committed `fleet` section;
//!   - on machines with ≥ 4 cores (and a curve reaching ≥ 4 threads),
//!     all-thread flows/sec must exceed 1.5× single-thread. Scaling
//!     gates are skipped — not failed — on smaller machines, so the
//!     single-core CI runner still gates throughput and memory.
//!
//! The emitted file keeps two sections: `baseline_pre_pr` (the tree
//! before the PR 2 hot-path overhaul, preserved from the committed file)
//! and `current` (this run), plus — on multi-core machines — the measured
//! thread-`scaling` curve, and the `live` / `live_1m` streaming-path
//! phases with their per-shard-count `live_scaling` / `live_1m_scaling`
//! curves. The ratio of the sections is the committed speedup. On a
//! 1-core box the multi-thread points are oversubscription noise that
//! reads as a regression, so `flows_per_sec_nt` and the scaling section
//! are omitted entirely rather than recorded.
//!
//! Phase isolation: `peak_rss_bytes` reads `VmHWM`, which is process-wide
//! and monotone, so phases that must report *their own* memory (the live
//! pipelines) re-execute this binary with `BENCH_ENGINE_PHASE` set and
//! report one JSON line on stdout. The capture is generated once (in a
//! child too, so its merge window never counts against anyone) and shared
//! by both live phases.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench_suite::peak_rss_bytes;
use experiments::{Dataset, Engine, Scale};
use simnet::time::SimDuration;
use tapo::json::Json;
use tapo::live::{self, DaemonId, LiveConfig, TierConfig};
use tapo::{read_report_files, FleetConfig, FleetFold};
use workloads::{generate_interleaved, LiveGenSpec};

/// One measured configuration: flows/sec over `repeats` dataset builds
/// (median), at the engine's thread count.
///
/// Measures the dataset build — records flow straight from the simulator
/// into the analyzer, no per-flow trace materialization. Analyses are
/// bit-identical to analyzing the serial `workloads` traces offline
/// (asserted by `engine_runs_match_serial_trace_path`).
fn measure(engine: &Engine, scale: Scale, repeats: usize) -> f64 {
    let total_flows = (scale.flows_per_service * workloads::Service::ALL.len()) as f64;
    // Warm-up build: page in code, warm allocator arenas.
    std::hint::black_box(Dataset::build_streaming(scale, engine));
    let mut secs: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Dataset::build_streaming(scale, engine));
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    total_flows / secs[repeats / 2]
}

fn out_path() -> PathBuf {
    std::env::var_os("BENCH_ENGINE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
        })
}

/// The thread counts to measure: `[1, 2, 4, all-cores]`, deduped, clipped
/// to `cap`. Deliberately *not* clipped to the core count — on a small
/// machine the oversubscribed points still exercise the parallel engine
/// and record its threading overhead; only the scaling *gate* is
/// conditional on real cores. Always contains 1 so the throughput gate
/// can run.
fn curve(cores: usize, cap: usize) -> Vec<usize> {
    let cap = cap.max(1);
    let mut counts: Vec<usize> = [1, 2, 4, cores].into_iter().filter(|&t| t <= cap).collect();
    if counts.is_empty() {
        counts.push(1);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// At a 5 ms mean gap the 10k-flow capture peaks just under 1000
/// concurrent flows; a cap of 512 keeps LRU shedding on the measured
/// path without starving most flows of their packets.
const LIVE_CAP: usize = 512;

/// The two-tier phase's admission ceiling — the paper-scale "million
/// concurrent flows" deployment shape. Nothing should ever be shed.
const LIVE_1M_CAP: usize = 1_000_000;

/// What one live-path child phase measured, parsed back from its single
/// JSON stdout line. Tier fields are zero for the heavy-only phase.
struct LiveRun {
    flows: u64,
    packets: u64,
    packets_per_sec: f64,
    flows_shed: u64,
    max_active_flows: u64,
    promotions: u64,
    demotions: u64,
    max_heavy_flows: u64,
    peak_rss_bytes: u64,
    cap: usize,
    batch_size: u64,
    wall_secs: f64,
}

/// Stream the capture at `path` through `tapo::live::run` under `cfg` and
/// print the phase result as one JSON line (the parent reads it back with
/// [`result_field`]). Runs inside a child process so `peak_rss_bytes` sees
/// *only* this pipeline's memory.
fn live_phase(path: &Path, cfg: &LiveConfig, cap: usize) -> std::io::Result<()> {
    let t = Instant::now();
    let result = live::run(File::open(path)?, cfg, |_| {});
    let secs = t.elapsed().as_secs_f64();
    let summary = result.map_err(|e| std::io::Error::other(e.to_string()))?;
    let doc = Json::obj([
        ("flows", Json::Int(summary.flows_seen as i64)),
        ("packets", Json::Int(summary.packets as i64)),
        (
            "packets_per_sec",
            Json::Num(summary.packets as f64 / secs.max(1e-12)),
        ),
        ("flows_shed", Json::Int(summary.flows_shed as i64)),
        (
            "max_active_flows",
            Json::Int(summary.max_active_flows as i64),
        ),
        ("promotions", Json::Int(summary.promotions as i64)),
        ("demotions", Json::Int(summary.demotions as i64)),
        ("max_heavy_flows", Json::Int(summary.max_heavy_flows as i64)),
        (
            "peak_rss_bytes",
            Json::Int(peak_rss_bytes().unwrap_or(0) as i64),
        ),
        ("max_flows_cap", Json::Int(cap as i64)),
        ("batch_size", Json::Int(cfg.batch as i64)),
        ("wall_secs", Json::Num(secs)),
    ]);
    println!("{}", doc.compact());
    Ok(())
}

/// Shard count for a live child phase (`BENCH_LIVE_SHARDS`, default 1 —
/// the inline path, which stays the section baseline for comparability
/// across machines).
fn phase_shards() -> usize {
    std::env::var("BENCH_LIVE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Simulated daemon streams for the fleet phase (`BENCH_FLEET_DAEMONS`,
/// default 8 — the issue's "cluster of front ends" floor).
fn fleet_daemons() -> usize {
    std::env::var("BENCH_FLEET_DAEMONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Interval records per simulated daemon stream (`BENCH_FLEET_INTERVALS`,
/// default 2000; CI smoke uses a smaller count).
fn fleet_intervals() -> usize {
    std::env::var("BENCH_FLEET_INTERVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

/// Per-daemon report file path under the parent-chosen prefix.
fn fleet_stream_path(prefix: &Path, daemon: usize) -> PathBuf {
    let mut p = prefix.as_os_str().to_os_string();
    p.push(format!("_d{daemon}.jsonl"));
    PathBuf::from(p)
}

/// Write the simulated daemon report streams: one real `tapo live` run
/// supplies template interval records (sketches on), which are then
/// stamped with per-daemon ids and tiled along the time axis until every
/// daemon has its record quota. This keeps the record *content* honest —
/// real breakdowns, real per-port slices, real sketches — while the
/// stream length scales independently of capture size.
fn fleet_gen_phase(prefix: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let daemons = fleet_daemons();
    let per_daemon = fleet_intervals();
    let spec = LiveGenSpec {
        flows_per_service: 30,
        seed: 2015,
        mean_gap: SimDuration::from_millis(5),
        ..Default::default()
    };
    let mut capture = Vec::new();
    generate_interleaved(&mut capture, &spec)?;
    let cfg = LiveConfig {
        interval: SimDuration::from_millis(250),
        ..Default::default()
    };
    let mut templates = Vec::new();
    live::run(&capture[..], &cfg, |r| templates.push(r.clone()))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    if templates.is_empty() {
        return Err(std::io::Error::other(
            "capture produced no interval reports",
        ));
    }
    let span = templates.last().expect("non-empty").end_us;
    let mut records = 0u64;
    for d in 0..daemons {
        let id = DaemonId::new(&format!("fe{d}")).expect("bench ids are valid");
        let mut out = BufWriter::new(File::create(fleet_stream_path(prefix, d))?);
        for k in 0..per_daemon {
            let mut rec = templates[k % templates.len()].clone();
            let shift = (k / templates.len()) as u64 * span;
            rec.daemon = id;
            rec.interval = k as u64;
            rec.start_us += shift;
            rec.end_us += shift;
            writeln!(out, "{}", rec.to_json().compact())?;
            records += 1;
        }
        out.into_inner()?.sync_all()?;
    }
    let doc = Json::obj([
        ("daemons", Json::Int(daemons as i64)),
        ("records", Json::Int(records as i64)),
    ]);
    println!("{}", doc.compact());
    Ok(())
}

/// Ingest + aggregate the simulated daemon streams once and report fleet
/// throughput. Runs in a child process so `peak_rss_bytes` sees only the
/// aggregation pipeline's memory.
fn fleet_phase(prefix: &Path) -> std::io::Result<()> {
    let paths: Vec<PathBuf> = (0..fleet_daemons())
        .map(|d| fleet_stream_path(prefix, d))
        .collect();
    let t = Instant::now();
    let mut fold = FleetFold::new(&FleetConfig::default());
    let skipped = read_report_files(&paths, 0, |rec| fold.fold(&rec))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let out = fold.finish(skipped);
    let secs = t.elapsed().as_secs_f64();
    let doc = Json::obj([
        ("daemons", Json::Int(out.summary.daemons as i64)),
        ("records", Json::Int(out.summary.records as i64)),
        ("buckets", Json::Int(out.summary.buckets as i64)),
        ("alerts", Json::Int(out.summary.alerts as i64)),
        (
            "records_per_sec",
            Json::Num(out.summary.records as f64 / secs.max(1e-12)),
        ),
        (
            "peak_rss_bytes",
            Json::Int(peak_rss_bytes().unwrap_or(0) as i64),
        ),
        ("wall_secs", Json::Num(secs)),
    ]);
    println!("{}", doc.compact());
    Ok(())
}

/// Child-phase dispatch: generate the shared capture, run one live
/// pipeline over it, or run a fleet phase, then exit. The capture path
/// arrives via `BENCH_LIVE_CAPTURE`, the fleet stream prefix via
/// `BENCH_FLEET_PREFIX` — both set by the parent.
fn run_child_phase(phase: &str) -> std::io::Result<()> {
    if phase == "fleet_gen" || phase == "fleet" {
        let prefix = PathBuf::from(
            std::env::var_os("BENCH_FLEET_PREFIX")
                .ok_or_else(|| std::io::Error::other("BENCH_FLEET_PREFIX not set"))?,
        );
        return if phase == "fleet_gen" {
            fleet_gen_phase(&prefix)
        } else {
            fleet_phase(&prefix)
        };
    }
    let path = PathBuf::from(
        std::env::var_os("BENCH_LIVE_CAPTURE")
            .ok_or_else(|| std::io::Error::other("BENCH_LIVE_CAPTURE not set"))?,
    );
    match phase {
        "gen" => {
            let flows_per_service: usize = std::env::var("BENCH_LIVE_FLOWS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(3334);
            let spec = LiveGenSpec {
                flows_per_service,
                seed: 2015,
                mean_gap: SimDuration::from_millis(5),
                ..Default::default()
            };
            let stats = generate_interleaved(BufWriter::new(File::create(&path)?), &spec)?;
            let doc = Json::obj([
                ("flows", Json::Int(stats.flows as i64)),
                ("packets", Json::Int(stats.packets as i64)),
            ]);
            println!("{}", doc.compact());
            Ok(())
        }
        "live" => {
            let cfg = LiveConfig {
                max_flows: LIVE_CAP,
                shards: phase_shards(),
                ..Default::default()
            };
            live_phase(&path, &cfg, LIVE_CAP)
        }
        "live_1m" => {
            let cfg = LiveConfig {
                max_flows: LIVE_1M_CAP,
                tier: Some(TierConfig::default()),
                shards: phase_shards(),
                ..Default::default()
            };
            live_phase(&path, &cfg, LIVE_1M_CAP)
        }
        other => Err(std::io::Error::other(format!(
            "unknown BENCH_ENGINE_PHASE {other:?}"
        ))),
    }
}

/// Re-execute this bench binary as a one-phase child and return its JSON
/// stdout line. Exits the whole bench on child failure — a phase that
/// cannot run is a broken bench, not a skippable gate.
fn spawn_phase(phase: &str, capture: &Path, shards: usize) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .arg("--bench") // libtest harness arg, ignored by our main
        .env("BENCH_ENGINE_PHASE", phase)
        .env("BENCH_LIVE_CAPTURE", capture)
        .env("BENCH_LIVE_SHARDS", shards.to_string())
        .output()
        .expect("spawn bench child phase");
    if !out.status.success() {
        eprintln!("child phase {phase} failed:");
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        std::process::exit(1);
    }
    String::from_utf8(out.stdout).expect("child phase stdout is UTF-8")
}

/// Like [`spawn_phase`] but for the fleet phases, which take a report
/// stream prefix instead of a capture path. `BENCH_FLEET_DAEMONS` and
/// `BENCH_FLEET_INTERVALS` are inherited from the parent's environment.
fn spawn_fleet(phase: &str, prefix: &Path) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .arg("--bench") // libtest harness arg, ignored by our main
        .env("BENCH_ENGINE_PHASE", phase)
        .env("BENCH_FLEET_PREFIX", prefix)
        .output()
        .expect("spawn bench child phase");
    if !out.status.success() {
        eprintln!("child phase {phase} failed:");
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        std::process::exit(1);
    }
    String::from_utf8(out.stdout).expect("child phase stdout is UTF-8")
}

/// What the fleet child phase measured.
struct FleetRun {
    daemons: u64,
    records: u64,
    buckets: u64,
    alerts: u64,
    records_per_sec: f64,
    peak_rss_bytes: u64,
    wall_secs: f64,
}

/// A numeric field of a child phase's JSON result line (0 when absent).
fn result_field(text: &str) -> impl Fn(&str) -> f64 {
    let doc = Json::parse(text).ok();
    move |key| {
        let value = doc.as_ref().and_then(|d| d.get(key));
        value.and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// `section.key` of the committed `BENCH_engine.json` as a number; `None`
/// when the file, the section or the field is missing.
fn section_field(committed: &Option<Json>, section: &str, key: &str) -> Option<f64> {
    committed.as_ref()?.get(section)?.get(key)?.as_f64()
}

/// Parse the fleet child's JSON line into a [`FleetRun`].
fn parse_fleet(text: &str) -> FleetRun {
    let field = result_field(text);
    FleetRun {
        daemons: field("daemons") as u64,
        records: field("records") as u64,
        buckets: field("buckets") as u64,
        alerts: field("alerts") as u64,
        records_per_sec: field("records_per_sec"),
        peak_rss_bytes: field("peak_rss_bytes") as u64,
        wall_secs: field("wall_secs"),
    }
}

/// Parse one live child's JSON line into a [`LiveRun`].
fn parse_live(text: &str, cap: usize) -> LiveRun {
    let field = result_field(text);
    LiveRun {
        flows: field("flows") as u64,
        packets: field("packets") as u64,
        packets_per_sec: field("packets_per_sec"),
        flows_shed: field("flows_shed") as u64,
        max_active_flows: field("max_active_flows") as u64,
        promotions: field("promotions") as u64,
        demotions: field("demotions") as u64,
        max_heavy_flows: field("max_heavy_flows") as u64,
        peak_rss_bytes: field("peak_rss_bytes") as u64,
        cap,
        batch_size: field("batch_size") as u64,
        wall_secs: field("wall_secs"),
    }
}

fn main() {
    if let Ok(phase) = std::env::var("BENCH_ENGINE_PHASE") {
        if let Err(e) = run_child_phase(&phase) {
            eprintln!("phase {phase} failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let gate = std::env::args().any(|a| a == "--gate");
    let flows: usize = std::env::var("BENCH_ENGINE_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let cap: usize = std::env::var("BENCH_ENGINE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let scale = Scale {
        flows_per_service: flows,
        seed: 2015,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = out_path();
    let committed = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| Json::parse(&text).ok());

    // On a 1-core box every multi-thread (and multi-shard) point is pure
    // oversubscription noise that reads as a regression, so the curves
    // and their gates are skipped — not failed — below 2 cores.
    let multi = cores >= 2;
    let counts = if multi { curve(cores, cap) } else { vec![1] };
    let mut points: Vec<(usize, f64)> = Vec::new();
    for &t in &counts {
        let fps = measure(&Engine::new(t), scale, 5);
        let label = format!("engine/flows_per_sec_{t}t");
        let note = if t == 1 {
            format!("({flows} flows/service)")
        } else {
            format!("(scaling {:.2}x vs 1t)", fps / points[0].1.max(1e-12))
        };
        println!("{label:<36} {fps:>12.1} flows/s  {note}");
        points.push((t, fps));
    }
    let fps_1t = points[0].1;
    let (threads_max, fps_nt) = *points.last().expect("curve is non-empty");

    // Live phases, each in its own child process: generate the interleaved
    // capture once (`BENCH_LIVE_FLOWS` is inherited by the gen child), then
    // stream it through the heavy-only capped pipeline and the two-tier
    // million-flow pipeline. The capture file is shared, the address spaces
    // are not — each phase reports its own peak RSS.
    let capture = std::env::temp_dir().join(format!("tapo_live_bench_{}.pcap", std::process::id()));
    spawn_phase("gen", &capture, 1);
    let live = parse_live(&spawn_phase("live", &capture, 1), LIVE_CAP);
    let live_1m = parse_live(&spawn_phase("live_1m", &capture, 1), LIVE_1M_CAP);
    // Per-shard-count scaling sweep. The single-shard (inline) run above
    // stays the primary `live`/`live_1m` section so committed baselines
    // compare like-for-like across machines; the extra shard counts only
    // feed the scaling curves and the multi-shard gate.
    let shard_counts: Vec<usize> = {
        let hi = cores.min(8);
        let mut v: Vec<usize> = [1, 2, 4, hi].into_iter().filter(|&s| s <= hi).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut live_curve: Vec<(usize, f64)> = vec![(1, live.packets_per_sec)];
    let mut live_1m_curve: Vec<(usize, f64)> = vec![(1, live_1m.packets_per_sec)];
    for &s in shard_counts.iter().filter(|&&s| s > 1) {
        let pps = parse_live(&spawn_phase("live", &capture, s), LIVE_CAP).packets_per_sec;
        live_curve.push((s, pps));
        let pps_1m = parse_live(&spawn_phase("live_1m", &capture, s), LIVE_1M_CAP).packets_per_sec;
        live_1m_curve.push((s, pps_1m));
    }
    let _ = std::fs::remove_file(&capture);
    // Fleet phase: N simulated daemon report streams, generated and then
    // aggregated in their own child processes (the aggregator's RSS must
    // not include stream generation).
    let fleet_prefix =
        std::env::temp_dir().join(format!("tapo_fleet_bench_{}", std::process::id()));
    let fleet_gen = spawn_fleet("fleet_gen", &fleet_prefix);
    let fleet_expected = result_field(&fleet_gen)("records") as u64;
    let fleet = parse_fleet(&spawn_fleet("fleet", &fleet_prefix));
    for d in 0..fleet_daemons() {
        let _ = std::fs::remove_file(fleet_stream_path(&fleet_prefix, d));
    }
    println!(
        "live/packets_per_sec                 {:>12.1} pkts/s  ({} flows, {} pkts, cap {}, shed {}, rss {:.1} MiB)",
        live.packets_per_sec,
        live.flows,
        live.packets,
        live.cap,
        live.flows_shed,
        live.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "live_1m/packets_per_sec              {:>12.1} pkts/s  ({} flows, shed {}, heavy peak {}, promoted {}, demoted {}, rss {:.1} MiB)",
        live_1m.packets_per_sec,
        live_1m.flows,
        live_1m.flows_shed,
        live_1m.max_heavy_flows,
        live_1m.promotions,
        live_1m.demotions,
        live_1m.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    for (name, curve) in [("live", &live_curve), ("live_1m", &live_1m_curve)] {
        let base = curve[0].1.max(1e-12);
        for &(s, pps) in curve.iter().skip(1) {
            let label = format!("{name}/packets_per_sec_{s}sh");
            println!(
                "{label:<36} {pps:>12.1} pkts/s  (scaling {:.2}x vs 1 shard)",
                pps / base
            );
        }
    }

    println!(
        "fleet/records_per_sec                {:>12.1} rec/s  ({} daemons, {} records, {} buckets, {} alerts, rss {:.1} MiB)",
        fleet.records_per_sec,
        fleet.daemons,
        fleet.records,
        fleet.buckets,
        fleet.alerts,
        fleet.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );

    let rss = peak_rss_bytes().unwrap_or(0);
    println!(
        "engine/peak_rss                      {:>12.1} MiB  ({cores} cores available)",
        rss as f64 / (1024.0 * 1024.0)
    );

    if gate {
        let mut failed = false;
        match section_field(&committed, "current", "flows_per_sec_1t") {
            Some(baseline) if baseline > 0.0 => {
                let floor = 0.8 * baseline;
                if fps_1t < floor {
                    eprintln!(
                        "REGRESSION: {fps_1t:.1} flows/s single-thread is more than 20% below \
                         the committed baseline {baseline:.1} flows/s (floor {floor:.1})"
                    );
                    failed = true;
                } else {
                    println!(
                        "gate ok: {fps_1t:.1} flows/s >= 80% of committed {baseline:.1} flows/s"
                    );
                }
            }
            _ => println!("gate skipped: no committed baseline at {}", out.display()),
        }
        match section_field(&committed, "live", "packets_per_sec") {
            Some(baseline) if baseline > 0.0 => {
                let floor = 0.8 * baseline;
                if live.packets_per_sec < floor {
                    eprintln!(
                        "REGRESSION: live path {:.1} pkts/s is more than 20% below the \
                         committed baseline {baseline:.1} pkts/s (floor {floor:.1})",
                        live.packets_per_sec
                    );
                    failed = true;
                } else {
                    println!(
                        "gate ok: live {:.1} pkts/s >= 80% of committed {baseline:.1} pkts/s",
                        live.packets_per_sec
                    );
                }
            }
            _ => println!("gate skipped: no committed live baseline to compare against"),
        }
        if live.flows > live.cap as u64 {
            if live.flows_shed == 0 {
                eprintln!(
                    "REGRESSION: {} flows exceeded the cap of {} but none were shed",
                    live.flows, live.cap
                );
                failed = true;
            } else if live.max_active_flows > live.cap as u64 {
                eprintln!(
                    "REGRESSION: live high-water mark {} flows breaks the cap of {}",
                    live.max_active_flows, live.cap
                );
                failed = true;
            } else {
                println!(
                    "gate ok: live flow cap held ({} shed, high-water {} <= {})",
                    live.flows_shed, live.max_active_flows, live.cap
                );
            }
        } else {
            println!(
                "gate skipped: {} flows never reached the cap of {}",
                live.flows, live.cap
            );
        }
        // The two-tier phase's whole point is admitting every flow: any
        // shed at a 1M cap is a regression, no baseline needed.
        if live_1m.flows_shed != 0 {
            eprintln!(
                "REGRESSION: two-tier phase shed {} flows under a {} cap",
                live_1m.flows_shed, live_1m.cap
            );
            failed = true;
        } else {
            println!(
                "gate ok: live_1m shed 0 flows ({} admitted, heavy peak {})",
                live_1m.flows, live_1m.max_heavy_flows
            );
        }
        match section_field(&committed, "live_1m", "packets_per_sec") {
            Some(baseline) if baseline > 0.0 => {
                let floor = 0.8 * baseline;
                if live_1m.packets_per_sec < floor {
                    eprintln!(
                        "REGRESSION: two-tier path {:.1} pkts/s is more than 20% below the \
                         committed baseline {baseline:.1} pkts/s (floor {floor:.1})",
                        live_1m.packets_per_sec
                    );
                    failed = true;
                } else {
                    println!(
                        "gate ok: live_1m {:.1} pkts/s >= 80% of committed {baseline:.1} pkts/s",
                        live_1m.packets_per_sec
                    );
                }
            }
            _ => println!("gate skipped: no committed live_1m baseline to compare against"),
        }
        // Per-phase memory ceilings: each child reported its own VmHWM, so
        // these gates cannot be masked by capture generation or by each
        // other.
        for (name, run) in [("live", &live), ("live_1m", &live_1m)] {
            match section_field(&committed, name, "peak_rss_bytes") {
                Some(base) if base > 0.0 && run.peak_rss_bytes > 0 => {
                    let ceil = 1.2 * base;
                    if run.peak_rss_bytes as f64 > ceil {
                        eprintln!(
                            "REGRESSION: {name} peak RSS {} bytes is more than 20% above \
                             the committed {base:.0} bytes (ceiling {ceil:.0})",
                            run.peak_rss_bytes
                        );
                        failed = true;
                    } else {
                        println!(
                            "gate ok: {name} peak RSS {} bytes <= 120% of committed {base:.0}",
                            run.peak_rss_bytes
                        );
                    }
                }
                _ => println!("gate skipped: no committed {name} peak RSS to compare against"),
            }
        }
        match section_field(&committed, "current", "peak_rss_bytes") {
            Some(base_rss) if base_rss > 0.0 && rss > 0 => {
                let ceil = 1.2 * base_rss;
                if rss as f64 > ceil {
                    eprintln!(
                        "REGRESSION: peak RSS {rss} bytes is more than 20% above the \
                         committed {base_rss:.0} bytes (ceiling {ceil:.0})"
                    );
                    failed = true;
                } else {
                    println!("gate ok: peak RSS {rss} bytes <= 120% of committed {base_rss:.0}");
                }
            }
            _ => println!("gate skipped: no committed peak RSS to compare against"),
        }
        // The fleet aggregate is lossless by construction: every generated
        // record must land in a bucket. Absolute check, no baseline needed.
        if fleet.records != fleet_expected || fleet.records == 0 {
            eprintln!(
                "REGRESSION: fleet aggregated {} of {} generated records",
                fleet.records, fleet_expected
            );
            failed = true;
        } else {
            println!(
                "gate ok: fleet aggregated all {} records from {} daemons into {} buckets",
                fleet.records, fleet.daemons, fleet.buckets
            );
        }
        // Throughput is only comparable at the committed scale: a reduced
        // `BENCH_FLEET_INTERVALS` run is dominated by fixed startup cost,
        // so rec/s would undershoot the baseline without any regression.
        let fleet_committed_records = section_field(&committed, "fleet", "records");
        match section_field(&committed, "fleet", "records_per_sec") {
            Some(baseline)
                if baseline > 0.0 && fleet_committed_records != Some(fleet.records as f64) =>
            {
                println!(
                    "gate skipped: fleet run has {} records, committed baseline has {}",
                    fleet.records,
                    fleet_committed_records.unwrap_or(0.0)
                );
            }
            Some(baseline) if baseline > 0.0 => {
                let floor = 0.8 * baseline;
                if fleet.records_per_sec < floor {
                    eprintln!(
                        "REGRESSION: fleet {:.1} rec/s is more than 20% below the \
                         committed baseline {baseline:.1} rec/s (floor {floor:.1})",
                        fleet.records_per_sec
                    );
                    failed = true;
                } else {
                    println!(
                        "gate ok: fleet {:.1} rec/s >= 80% of committed {baseline:.1} rec/s",
                        fleet.records_per_sec
                    );
                }
            }
            _ => println!("gate skipped: no committed fleet baseline to compare against"),
        }
        match section_field(&committed, "fleet", "peak_rss_bytes") {
            Some(base) if base > 0.0 && fleet.peak_rss_bytes > 0 => {
                let ceil = 1.2 * base;
                if fleet.peak_rss_bytes as f64 > ceil {
                    eprintln!(
                        "REGRESSION: fleet peak RSS {} bytes is more than 20% above \
                         the committed {base:.0} bytes (ceiling {ceil:.0})",
                        fleet.peak_rss_bytes
                    );
                    failed = true;
                } else {
                    println!(
                        "gate ok: fleet peak RSS {} bytes <= 120% of committed {base:.0}",
                        fleet.peak_rss_bytes
                    );
                }
            }
            _ => println!("gate skipped: no committed fleet peak RSS to compare against"),
        }
        if cores >= 4 && threads_max >= 4 {
            let need = 1.5 * fps_1t;
            if fps_nt <= need {
                eprintln!(
                    "REGRESSION: {fps_nt:.1} flows/s at {threads_max} threads does not \
                     reach 1.5x single-thread ({need:.1})"
                );
                failed = true;
            } else {
                println!("gate ok: {threads_max}-thread {fps_nt:.1} flows/s > 1.5x single-thread");
            }
        } else {
            println!("gate skipped: scaling gate needs >= 4 cores (have {cores})");
        }
        // The parallel front end must never cost live throughput: on a
        // multi-core box the best multi-shard point has to at least match
        // the single-shard (inline) run.
        if multi && live_curve.len() >= 2 {
            let &(best_s, best) = live_curve[1..]
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("curve has a multi-shard point");
            if best < live.packets_per_sec {
                eprintln!(
                    "REGRESSION: best multi-shard live throughput {best:.1} pkts/s \
                     ({best_s} shards) is below single-shard {:.1} pkts/s",
                    live.packets_per_sec
                );
                failed = true;
            } else {
                println!(
                    "gate ok: {best_s}-shard live {best:.1} pkts/s >= single-shard {:.1} pkts/s",
                    live.packets_per_sec
                );
            }
        } else {
            println!("gate skipped: multi-shard live gate needs >= 2 cores (have {cores})");
        }
        if failed {
            std::process::exit(1);
        }
    }

    // Preserve the pre-PR baseline section from the committed file; a
    // first-ever run seeds it from this run so the speedup starts at 1.0.
    // Multi-thread fields are simply absent below 2 cores — `section_field`
    // returns None for a missing field, so every gate reading them skips.
    let section = |f1: f64, fnt: Option<f64>, r: u64| {
        let mut fields = vec![("flows_per_sec_1t", Json::Num(f1))];
        if let Some(fnt) = fnt {
            fields.push(("flows_per_sec_nt", Json::Num(fnt)));
        }
        fields.push(("peak_rss_bytes", Json::Int(r as i64)));
        Json::obj(fields)
    };
    let base_1t =
        section_field(&committed, "baseline_pre_pr", "flows_per_sec_1t").unwrap_or(fps_1t);
    let base_nt = multi.then(|| {
        section_field(&committed, "baseline_pre_pr", "flows_per_sec_nt").unwrap_or(fps_nt)
    });
    let base_rss =
        section_field(&committed, "baseline_pre_pr", "peak_rss_bytes").unwrap_or(rss as f64);
    let scaling = Json::Arr(
        points
            .iter()
            .map(|&(t, fps)| {
                Json::obj([
                    ("threads", Json::Int(t as i64)),
                    ("flows_per_sec", Json::Num(fps)),
                ])
            })
            .collect(),
    );
    let shard_curve_json = |curve: &[(usize, f64)]| {
        Json::Arr(
            curve
                .iter()
                .map(|&(s, pps)| {
                    Json::obj([
                        ("shards", Json::Int(s as i64)),
                        ("packets_per_sec", Json::Num(pps)),
                    ])
                })
                .collect(),
        )
    };
    let mut doc_fields = vec![
        ("schema", Json::Int(2)),
        ("bench", Json::Str("engine".into())),
        ("flows_per_service", Json::Int(flows as i64)),
        ("services", Json::Int(workloads::Service::ALL.len() as i64)),
        ("cores_available", Json::Int(cores as i64)),
        ("threads_parallel", Json::Int(threads_max as i64)),
        (
            "baseline_pre_pr",
            section(base_1t, base_nt, base_rss as u64),
        ),
        ("current", section(fps_1t, multi.then_some(fps_nt), rss)),
    ];
    if multi {
        doc_fields.push(("scaling", scaling));
    }
    doc_fields.push((
        "live",
        Json::obj([
            ("flows", Json::Int(live.flows as i64)),
            ("packets", Json::Int(live.packets as i64)),
            ("packets_per_sec", Json::Num(live.packets_per_sec)),
            ("flows_shed", Json::Int(live.flows_shed as i64)),
            ("max_active_flows", Json::Int(live.max_active_flows as i64)),
            ("max_flows_cap", Json::Int(live.cap as i64)),
            ("batch_size", Json::Int(live.batch_size as i64)),
            ("wall_secs", Json::Num(live.wall_secs)),
            ("peak_rss_bytes", Json::Int(live.peak_rss_bytes as i64)),
        ]),
    ));
    if multi {
        doc_fields.push(("live_scaling", shard_curve_json(&live_curve)));
    }
    doc_fields.push((
        "live_1m",
        Json::obj([
            ("flows", Json::Int(live_1m.flows as i64)),
            ("packets", Json::Int(live_1m.packets as i64)),
            ("packets_per_sec", Json::Num(live_1m.packets_per_sec)),
            ("flows_shed", Json::Int(live_1m.flows_shed as i64)),
            (
                "max_active_flows",
                Json::Int(live_1m.max_active_flows as i64),
            ),
            ("max_flows_cap", Json::Int(live_1m.cap as i64)),
            ("promotions", Json::Int(live_1m.promotions as i64)),
            ("demotions", Json::Int(live_1m.demotions as i64)),
            ("max_heavy_flows", Json::Int(live_1m.max_heavy_flows as i64)),
            ("batch_size", Json::Int(live_1m.batch_size as i64)),
            ("wall_secs", Json::Num(live_1m.wall_secs)),
            ("peak_rss_bytes", Json::Int(live_1m.peak_rss_bytes as i64)),
        ]),
    ));
    if multi {
        doc_fields.push(("live_1m_scaling", shard_curve_json(&live_1m_curve)));
    }
    doc_fields.push((
        "fleet",
        Json::obj([
            ("daemons", Json::Int(fleet.daemons as i64)),
            ("records", Json::Int(fleet.records as i64)),
            ("buckets", Json::Int(fleet.buckets as i64)),
            ("alerts", Json::Int(fleet.alerts as i64)),
            ("records_per_sec", Json::Num(fleet.records_per_sec)),
            ("wall_secs", Json::Num(fleet.wall_secs)),
            ("peak_rss_bytes", Json::Int(fleet.peak_rss_bytes as i64)),
        ]),
    ));
    doc_fields.push((
        "speedup_1t_vs_pre_pr",
        Json::Num(fps_1t / base_1t.max(1e-12)),
    ));
    let doc = Json::obj(doc_fields);
    let body = format!("{}\n", doc.pretty());
    match std::fs::write(&out, body) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
