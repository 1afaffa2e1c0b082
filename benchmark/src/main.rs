//! The repo's benchmark: five workloads over the live daemon, the fleet
//! aggregator and the offline engine, each measured end to end with
//! tracing off and layer by layer with tracing on. See `README.md` here
//! and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! tapo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the result as one JSON object
//! tapo-benchmark [--quick] [--runs <n>] [--out <file>] [--seed <n>] [--seconds <s>]
//!     every workload, each run in a fresh process: end-to-end runs, then
//!     one traced run; prints every metric and writes a result file
//! tapo-benchmark --compare <a.json> <b.json>
//!     apply BENCHMARK.json's bounds to two result files
//! ```

mod alloc;
mod calib;
mod compare;
mod engine;
mod fleet;
mod live;
mod paced;
mod span;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use tapo::json::Json;

use calib::Calibration;
pub use span::Tracer;
use spec::{LiveMode, Pipeline, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Metric values of one run, by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, value);
    }
}

/// Median of `n` timings of `f`.
pub fn median_of(n: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut timings: Vec<Duration> = (0..n).map(|_| f()).collect();
    timings.sort();
    timings[n / 2]
}

/// CPU time this process has used, all threads, exited ones included
/// (`utime + stime` of `/proc/self/stat`, in the kernel's 10 ms ticks).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the name.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .into_iter()
        .flatten()
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Repo root: the benchmark package sits directly under it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// The `[profile.release]` table of a manifest, whitespace-normalised.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// Refuse to measure a build users do not get: the benchmark's release
/// profile must be the root's, and the binary must be optimised.
fn build_parity() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without optimisation; run with `cargo run --release`".into());
    }
    let root = repo_root();
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let ours = release_profile(&read(root.join("benchmark/Cargo.toml"))?);
    let theirs = release_profile(&read(root.join("Cargo.toml"))?);
    if ours.is_empty() || ours != theirs {
        return Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, root Cargo.toml has {theirs:?}"
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build the numbers belong to.
fn environment() -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", command_line("nproc", &[])),
        ("available_parallelism", parallelism.to_string()),
        ("default_shards", tapo::live::default_shards().to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        (
            "input",
            "generated in memory from --seed; never crossed a link or a file".into(),
        ),
    ]
}

/// Result of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Output checks that did not hold; empty means `correct`.
    problems: Vec<String>,
}

/// Set up `times` times; returns the last set-up and the median time at
/// reference speed (calibration samples are taken between the set-ups). A
/// set-up is everything before the timed phase: generate the inputs and
/// run one untimed warm-up iteration.
fn set_up<T>(times: usize, cal: &mut Calibration, mut once: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut secs = Vec::new();
    for _ in 0..times {
        drop(last.take());
        cal.sample();
        let t = Instant::now();
        last = Some(once());
        secs.push(t.elapsed().as_secs_f64());
    }
    cal.sample();
    let raw = stats::median(&secs);
    println!("set-up: median of {times} is {raw:.4} s as measured");
    (last.expect("times >= 1"), raw / cal.factor())
}

/// Timed iterations of one workload, tracing off.
#[derive(Default)]
struct Timed {
    walls: Vec<f64>,
    /// Open loop only: per interval report, ms from the trigger packet's
    /// due time to the report.
    report_lags_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Timed {
    fn check(&mut self, holds: bool, what: impl Into<String>) {
        if !holds {
            self.problems.push(what.into());
        }
    }

    /// Closed-loop iterations until `seconds` have passed, three at least,
    /// a calibration sample before each.
    /// `once` returns its wall time, operations attempted and failed, and
    /// whether its output equals the warm-up's.
    fn iterate(
        &mut self,
        seconds: f64,
        cal: &mut Calibration,
        mut once: impl FnMut() -> (Duration, u64, u64, bool),
    ) {
        let t = Instant::now();
        while self.walls.len() < 3 || t.elapsed().as_secs_f64() < seconds {
            cal.sample();
            let (wall, attempted, failed, same_output) = once();
            self.walls.push(wall.as_secs_f64());
            self.attempted += attempted;
            self.failed += failed;
            self.check(same_output, "output differs between iterations");
        }
    }
}

const SETUPS: usize = 3;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn run_end_to_end(w: Workload, seed: u64, seconds: f64, quick: bool) -> Outcome {
    let mut t = Timed::default();
    let mut cal = Calibration::new();
    let (items, setup_s, peak) = match w.pipeline {
        Pipeline::Live(mode) => {
            let cfg = live::config(mode);
            let ((input, warm), setup_s) = set_up(SETUPS, &mut cal, || {
                let input = live::generate(seed, live::flows_per_service(!quick));
                let warm = live::fused(&input, &cfg);
                (input, warm)
            });
            t.check(
                warm.summary.packets == input.packets,
                format!(
                    "summary counts {} packets, {} generated",
                    warm.summary.packets, input.packets
                ),
            );
            t.check(
                warm.summary.flows_shed == 0 && warm.summary.promotions_denied == 0,
                "flows were shed or promotions denied",
            );
            if mode == LiveMode::Heavy {
                // The threaded path is not timed end to end: on a box with
                // fewer cores than its threads it measures the scheduler.
                // Its output is still checked, and traced runs time it.
                let sharded = live::fused(&input, &live::no_flags());
                t.check(
                    sharded.hash == warm.hash,
                    "report bytes differ at default_shards() from the inline path's",
                );
            }
            if mode == LiveMode::Paced {
                let pass_s = input.packets as f64 / spec::PACED_PKTS_PER_S;
                for _ in 0..((seconds / pass_s) as usize).max(1) {
                    let (r, p) = live::paced(&input, &cfg, usize::MAX);
                    let late = r
                        .lags_ms
                        .iter()
                        .filter(|&&l| l > spec::REPORT_LAG_LIMIT_MS)
                        .count();
                    println!(
                        "paced pass: {} reads, generator at most {:.3} ms behind schedule, {:.3} ms at the end{}; {late} of {} reports later than {} ms",
                        p.reads,
                        p.backlog_max_ms,
                        p.backlog_final_ms,
                        if p.backlog_final_ms > spec::FINAL_BACKLOG_LIMIT_MS {
                            " (RATE NOT SUSTAINED)"
                        } else {
                            ""
                        },
                        r.reports,
                        spec::REPORT_LAG_LIMIT_MS
                    );
                    t.attempted += input.packets;
                    t.failed += r.failed(input.packets);
                    t.check(
                        r.hash == warm.hash,
                        "paced report bytes differ from the closed-loop run's",
                    );
                    t.walls.push(r.wall.as_secs_f64());
                    t.report_lags_ms.extend(r.lags_ms);
                }
            } else {
                t.iterate(seconds, &mut cal, || {
                    let r = live::fused(&input, &cfg);
                    let failed = r.failed(input.packets);
                    (r.wall, input.packets, failed, r.hash == warm.hash)
                });
            }
            let (_, peak) = alloc::peak_during(|| live::fused(&input, &cfg));
            (input.packets, setup_s, peak)
        }
        Pipeline::Fleet => {
            let ((input, warm), setup_s) = set_up(SETUPS, &mut cal, || {
                let input = fleet::generate(seed, fleet::records_per_daemon(!quick));
                let warm = fleet::fused(&input);
                (input, warm)
            });
            println!(
                "fleet input: {} records in {} bytes of JSON lines",
                input.records, input.bytes
            );
            t.check(
                warm.outcome.summary.stalls == input.stalls,
                format!(
                    "{} stalls fed, {} in the summary",
                    input.stalls, warm.outcome.summary.stalls
                ),
            );
            t.iterate(seconds, &mut cal, || {
                let r = fleet::fused(&input);
                let failed = r.failed(&input);
                (r.wall, input.records, failed, r.hash == warm.hash)
            });
            let (_, peak) = alloc::peak_during(|| fleet::fused(&input));
            (input.records, setup_s, peak)
        }
        Pipeline::Engine => {
            let scale = engine::scale(seed, !quick);
            let serial = experiments::Engine::serial();
            let (warm, setup_s) = set_up(SETUPS, &mut cal, || engine::fused(scale, &serial));
            t.iterate(seconds, &mut cal, || {
                let r = engine::fused(scale, &serial);
                let flows = engine::flows(scale);
                let same = r.breakdowns == warm.breakdowns;
                (r.wall, flows, flows - r.analysed, same)
            });
            let (_, peak) = alloc::peak_during(|| engine::fused(scale, &serial));
            (engine::flows(scale), setup_s, peak)
        }
    };

    // The wall of an iteration the machine left alone (see `first_decile`),
    // at reference speed (see `calib`). An open-loop pass lasts as long as
    // its schedule says, whatever the machine does: nothing to normalise.
    let open_loop = !t.report_lags_ms.is_empty();
    let raw = stats::first_decile(&t.walls);
    let wall = if open_loop { raw } else { raw / cal.factor() };
    println!(
        "{}: {} iterations of {items} {}; wall first decile {raw:.4} s as measured{}; best {:.4} s, median {:.4} s, quartiles {:.1} % apart",
        w.name,
        t.walls.len(),
        w.item,
        if open_loop {
            String::new()
        } else {
            format!(", {wall:.4} s at reference speed")
        },
        stats::min(&t.walls),
        stats::median(&t.walls),
        stats::iqr_share(&t.walls) * 100.0,
    );
    println!(
        "{}: iteration walls, ms: {}",
        w.name,
        t.walls
            .iter()
            .map(|w| format!("{:.1}", w * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    // Open loop: lag per report, from its trigger's due time. Closed loop:
    // nothing arrives on a schedule, so a result's lag is the time to the
    // complete output once all input is there, which is the wall above;
    // the spread of the walls of one run is the machine's, not the
    // program's, so no tail is taken from it.
    let (lag_p50, lag_tail) = if !open_loop {
        (wall * 1e3, wall * 1e3)
    } else {
        let (pct, tail) = stats::tail(&t.report_lags_ms);
        println!(
            "{}: report lag over {} samples, tail is p{:.1}",
            w.name,
            t.report_lags_ms.len(),
            pct * 100.0
        );
        (stats::median(&t.report_lags_ms), tail)
    };
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set("items_per_s", items as f64 / wall);
    metrics.set("report_lag_ms_p50", lag_p50);
    metrics.set("report_lag_ms_tail", lag_tail);
    metrics.set("peak_heap_mib", peak as f64 / (1 << 20) as f64);
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        problems: t.problems,
    }
}

/// What a traced pass over one pipeline reports besides its metrics.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn run_traced(w: Workload, seed: u64, seconds: f64, quick: bool) -> Outcome {
    let mut tracer = Tracer::new();
    let mut m = Metrics::default();
    // The workload's own pipeline runs on its own input and takes most of
    // the time; the other two run on the quick-scale reference input, so
    // that every layer is measured in every traced run.
    let share = |own: bool| Duration::from_secs_f64(seconds * if own { 0.7 } else { 0.1 });
    let own_live = matches!(w.pipeline, Pipeline::Live(_));
    let mode = match w.pipeline {
        Pipeline::Live(mode) => mode,
        _ => LiveMode::Heavy,
    };
    let full = |own: bool| own && !quick;

    let input = live::generate(seed, live::flows_per_service(full(own_live)));
    let l = live::traced(&input, mode, share(own_live), seed, &mut tracer, &mut m);
    drop(input);

    let own_fleet = w.pipeline == Pipeline::Fleet;
    let input = fleet::generate(seed, fleet::records_per_daemon(full(own_fleet)));
    let f = fleet::traced(&input, share(own_fleet), &mut tracer, &mut m);
    drop(input);

    let own_engine = w.pipeline == Pipeline::Engine;
    let scale = engine::scale(seed, full(own_engine));
    let e = engine::traced(scale, share(own_engine), seed, &mut tracer, &mut m);
    m.set("trace.spans", tracer.spans().len() as f64);

    let own = match w.pipeline {
        Pipeline::Live(_) => &l,
        Pipeline::Fleet => &f,
        Pipeline::Engine => &e,
    };
    let mut problems: Vec<String> = [&l, &f, &e]
        .iter()
        .flat_map(|t| t.problems.iter().cloned())
        .collect();
    // A timing ratio says nothing about whether outputs are correct, and
    // one process in a dozen lands outside the band on this shared box:
    // a single run only says so; the full set fails on it.
    let ratio = m.0[reconcile_metric(w)];
    if !spec::reconciles(ratio) {
        println!(
            "WARNING: {} = {ratio:.3}: staged layers do not add up to the tracing-off wall",
            reconcile_metric(w)
        );
    }

    let path = repo_root().join(format!("benchmark/out/trace-{}.jsonl", w.name));
    let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| tracer.write_jsonl(std::io::BufWriter::new(file)));
    match written {
        Ok(()) => println!(
            "{}: {} spans written to {}",
            w.name,
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
    }
    Outcome {
        attempted: own.attempted,
        failed: own.failed,
        metrics: m,
        problems,
    }
}

/// The reconcile ratio of the workload's own pipeline.
fn reconcile_metric(w: Workload) -> &'static str {
    match w.pipeline {
        Pipeline::Live(_) => "live.driver.reconcile_ratio",
        Pipeline::Fleet => "fleet.reconcile_ratio",
        Pipeline::Engine => "experiments.engine.reconcile_ratio",
    }
}

/// The result line the contract asks for: exactly the declared metrics of
/// the mode, in declaration order.
fn result_line(outcome: &Outcome, declared: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                outcome.metrics.0[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// One run of one workload; prints the result line last.
fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> ExitCode {
    let mut outcome = if trace {
        run_traced(w, seed, seconds, quick)
    } else {
        run_end_to_end(w, seed, seconds, quick)
    };
    for (name, _) in declared(trace) {
        match outcome.metrics.0.get(name) {
            Some(v) if v.is_finite() => {}
            other => {
                outcome.problems.push(format!("metric {name} is {other:?}"));
                outcome.metrics.0.insert(name, 0.0);
            }
        }
    }
    for p in &outcome.problems {
        println!("FAILED CHECK: {p}");
    }
    println!("{}", result_line(&outcome, declared(trace)));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--runs" => {
                a.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two result files")?),
                    PathBuf::from(value("two result files")?),
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in a fresh process and parse its result line.
fn child(w: Workload, a: &Args, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{} --trace {} failed ({}): {last}\n{}",
            w.name,
            trace as u8,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload: `runs` end-to-end runs and one traced run each, every
/// run in a fresh process. Prints each metric by name with its unit.
fn run_all(a: &Args) -> Result<(), String> {
    let seconds = a
        .seconds
        .unwrap_or(if a.quick { 0.3 } else { DEFAULT_SECONDS });
    let mut docs = Vec::new();
    let mut unreconciled = Vec::new();
    for w in spec::WORKLOADS {
        println!("== {} ({} per second)", w.name, w.item);
        let mut e2e: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        for _ in 0..a.runs {
            let r = child(w, a, seconds, false)?;
            for (name, _) in spec::END_TO_END {
                let v = metric_value(&r, name).ok_or(format!("{}: no {name}", w.name))?;
                e2e.entry(name).or_default().push(v);
            }
            attempted += r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += r.get("failed").and_then(Json::as_u64).unwrap_or(0);
        }
        for (name, unit) in spec::END_TO_END {
            let v = &e2e[name];
            println!(
                "{:<44} {:>16.4} {unit:<6} (median of {}, quartiles {:.1} % apart)",
                name,
                stats::median(v),
                v.len(),
                stats::iqr_share(v) * 100.0
            );
        }
        println!(
            "{:<44} {:>16.6}",
            "failed / attempted",
            failed as f64 / attempted.max(1) as f64
        );
        let traced = child(w, a, seconds, true)?;
        let ratio = metric_value(&traced, reconcile_metric(w)).unwrap_or(f64::NAN);
        if !spec::reconciles(ratio) {
            unreconciled.push(format!("{}: {} = {ratio:.3}", w.name, reconcile_metric(w)));
        }
        let mut layers = Vec::new();
        for (name, unit) in spec::PER_LAYER {
            let v = metric_value(&traced, name).ok_or(format!("{}: no {name}", w.name))?;
            println!("{name:<44} {v:>16.4} {unit}");
            layers.push((name.to_string(), Json::Num(v)));
        }
        let runs_of = |name: &str| Json::Arr(e2e[name].iter().map(|&v| Json::Num(v)).collect());
        docs.push(Json::Obj(vec![
            ("name".into(), Json::from(w.name)),
            ("attempted".into(), Json::from(attempted)),
            ("failed".into(), Json::from(failed)),
            (
                "end_to_end".into(),
                Json::Obj(
                    spec::END_TO_END
                        .iter()
                        .map(|(n, _)| (n.to_string(), runs_of(n)))
                        .collect(),
                ),
            ),
            ("per_layer".into(), Json::Obj(layers)),
        ]));
    }
    let env = environment()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::from(v)))
        .collect();
    let doc = Json::Obj(vec![
        ("env".into(), Json::Obj(env)),
        ("seed".into(), Json::from(a.seed)),
        ("seconds".into(), Json::Num(seconds)),
        ("quick".into(), Json::from(a.quick)),
        ("workloads".into(), Json::Arr(docs)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| repo_root().join("benchmark/out/results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if !unreconciled.is_empty() {
        let (lo, hi) = spec::RECONCILE_BAND;
        let msg = format!(
            "staged layers do not add up to the tracing-off wall within {lo}–{hi}: {}",
            unreconciled.join("; ")
        );
        // Three rounds of 30 ms runs are a smoke test, not a measurement.
        if a.quick {
            println!("WARNING: {msg}");
        } else {
            return Err(msg);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let fail = |msg: String| {
        eprintln!("tapo-benchmark: {msg}");
        ExitCode::from(2)
    };
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    if let Some((pa, pb)) = &args.compare {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        let verdict = read_json(&repo_root().join("BENCHMARK.json"))
            .and_then(|decl| compare::bounds(&decl))
            .and_then(|bounds| compare::compare(&read_json(pa)?, &read_json(pb)?, &bounds, &names));
        return match verdict {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => fail(e),
        };
    }
    if let Err(e) = build_parity() {
        return fail(e);
    }
    match &args.workload {
        Some(name) => {
            let Some(w) = spec::workload(name) else {
                return fail(format!("unknown workload {name}"));
            };
            let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
            run_one(w, args.seed, seconds, args.trace, args.quick)
        }
        None => {
            for (k, v) in environment() {
                println!("{k}: {v}");
            }
            match run_all(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("tapo-benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_comments_and_spacing() {
        let a = "[package]\nname='x'\n\n# why\n[profile.release]\nlto = \"fat\"\ncodegen-units=1\n\n[x]\nlto=1";
        let b = "[profile.release]\n  lto   =   \"fat\"\n# note\ncodegen-units=1";
        assert_eq!(release_profile(a), ["lto = \"fat\"", "codegen-units=1"]);
        assert_eq!(release_profile(a), release_profile(b));
        assert!(release_profile("[package]").is_empty());
    }

    #[test]
    fn this_package_builds_with_the_root_release_profile() {
        let read = |p: &str| std::fs::read_to_string(repo_root().join(p)).unwrap();
        let ours = release_profile(&read("benchmark/Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(&read("Cargo.toml")));
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut metrics = Metrics::default();
        for (i, (name, _)) in spec::END_TO_END.iter().enumerate() {
            metrics.set(name, i as f64 + 0.25);
        }
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics,
            problems: Vec::new(),
        };
        let doc = Json::parse(&result_line(&outcome, &spec::END_TO_END)).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed = doc.get("metrics").and_then(Json::members).unwrap();
        assert_eq!(printed.len(), spec::END_TO_END.len());
        for ((name, unit), (key, m)) in spec::END_TO_END.iter().zip(printed) {
            assert_eq!(name, key);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > before);
    }
}
