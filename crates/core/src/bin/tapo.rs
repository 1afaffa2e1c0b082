//! `tapo` — the TCP stall diagnosis tool, as a command line.
//!
//! Four commands: offline diagnosis of captures (`tapo <capture.pcap>...`),
//! the streaming daemon (`tapo live`), the mitigation advisor (`tapo
//! advise`) and the multi-daemon aggregator (`tapo fleet`). Each lists its
//! flags with `--help`; the help texts below are the one place they are
//! documented.

use std::fs::File;
use std::io::{self, BufReader, Write};
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;

use simnet::cli::Args;
use simnet::time::SimDuration;
use tapo::json::Json;
use tapo::live::{self, DaemonId, LiveConfig};
use tapo::sink::{CsvSink, JsonLinesSink, ReportSink};
use tapo::{
    analyze_flow, AdviseConfig, AnalyzerConfig, FleetAlert, FleetConfig, FleetInterval,
    FlowAnalysis, RetransClass, Stall, StallBreakdown, StallCause, StallClass, TierConfig,
};
use tcp_trace::flow::FlowTrace;
use tcp_trace::pcap::{PcapReader, PcapStats};

const HELP: &str = "\
usage: tapo <capture.pcap>... [--flows] [--stalls] [--json] [--dump]
                              [--min-stall MS] [--mss BYTES] [--dupthres N]
                              [--threads N]

The offline workflow of the paper: point it at classic-pcap captures from
a server (header-only captures are fine) and get per-flow stall diagnoses
and an aggregate breakdown.

  --flows         per-flow summary table, worst stalled first
  --stalls        print every stall (time, duration, cause, context)
  --json          machine-readable output (one JSON document)
  --dump          print every packet, tcpdump-style
  --min-stall MS  only report stalls at least this long
  --mss BYTES     analyzer MSS assumption        (default 1448)
  --dupthres N    analyzer dupack threshold      (default 3)
  --threads N     analysis worker threads (default: all cores; the
                  output is identical at any thread count)

The other commands, `tapo live`, `tapo advise` and `tapo fleet`, each
take --help too.
";

const LIVE_HELP: &str = "\
usage: tapo live <capture.pcap|-> [--shards N] [--cells N] [--batch N]
                 [--interval MS] [--idle MS] [--linger MS] [--max-flows N]
                 [--promote N] [--demote N] [--heavy-max N] [--per-shard]
                 [--csv] [--mss BYTES] [--dupthres N] [--daemon-id ID]
                 [--sketch on|off]

The daemon mode: stream a capture (file, FIFO, or `-` for stdin) through
the sharded bounded-memory pipeline, emitting one report line per
interval and a final summary.

  --shards N      worker shards, each owning its slice of the flow
                  space (default 1: the inline engine, until a shard
                  count wins a measurement; output is byte-identical
                  at any shard count)
  --cells N       virtual flow cells — the shard-count-independent
                  unit of flow ownership and cap splitting (default 64)
  --batch N       most packets per ingestion batch (default 256) — a
                  cap, not a quorum: a batch holds what the input has
                  delivered; output is byte-identical at any value
  --interval MS   reporting interval in capture time   (default 1000)
  --idle MS       idle-flow eviction timeout, 0 = off  (default 60000)
  --linger MS     FIN/RST linger before finalize, 0 = off (default 1000)
  --max-flows N   hard cap on tracked flows, 0 = unbounded (default 0)
  --promote N     two-tier mode: track every flow in a compact light
                  tier, promote to a full analyzer after N dup-ACKs
                  (or a retransmission burst / RTO-scale ACK silence /
                  zero window); off by default = every flow heavy
  --demote N      demote a heavy flow after N consecutive calm packets
                  (0 = never; default 256; requires --promote)
  --heavy-max N   global cap on concurrently heavy flows, 0 = unbounded
                  (default 4096; requires --promote)
  --per-shard     include per-shard occupancy in reports
  --csv           CSV reports instead of JSON-lines (summary → stderr)
  --mss BYTES     analyzer MSS assumption        (default 1448)
  --dupthres N    analyzer dupack threshold      (default 3)
  --daemon-id ID  stamp every report with this daemon id (1..=40 chars
                  of [A-Za-z0-9._:-]; default: a stable hash of the
                  capture path, or \"local\" for stdin)
  --sketch on|off mergeable RTT / stall-duration quantile sketches in
                  the JSON reports (default on; fleet mode merges them)
";

/// The counterfactual-replay flags `tapo advise` and `tapo fleet
/// --advise` share; [`advise_flag`] parses them.
macro_rules! advise_flags_help {
    () => {
        "  --flows N          simulated flows per replicate      (default 30)
  --replicates N     seeded replicates per service      (default 5)
  --seed N           replay master seed                 (default 1)
  --min-stalled-us N only advise services with at least this much
                     observed stalled time              (default 1)
"
    };
}

const ADVISE_HELP: &str = concat!(
    "\
usage: tapo advise <reports.jsonl|-> [--flows N] [--replicates N] [--seed N]
                   [--threads N] [--min-stalled-us N] [--csv]

Close the loop: feed the live mode's JSON-lines reports back in and get a
per-service mitigation recommendation from a counterfactual replay under
all four recovery mechanisms.

",
    advise_flags_help!(),
    "  --threads N        worker threads (default: all cores; output is
                     byte-identical at any thread count)
  --csv              CSV recommendations instead of JSON-lines
"
);

const FLEET_HELP: &str = concat!(
    "\
usage: tapo fleet [reports.jsonl...|-] [--bucket MS] [--threads N] [--csv]
                  [--warmup N] [--drift PCT] [--daemon-drift PCT]
                  [--min-share-us N] [--advise] [--flows N] [--replicates N]
                  [--seed N] [--min-stalled-us N]

Aggregate report streams from many live daemons into fleet-wide time
buckets, merge their sketches and per-service shares, and flag
stall-share drift. The output is byte-identical regardless of input
order, file-vs-stdin ingestion, or thread count.

  reports...         one stream per daemon (files or FIFOs), or a
                     single '-' / no argument for a stdin multiplex —
                     records carry daemon ids, so interleaving is fine
  --bucket MS        fleet bucket width in capture time (default 1000)
  --threads N        parse worker threads (default: all cores; output
                     is byte-identical at any thread count)
  --warmup N         buckets that only feed the drift EWMA (default 3)
  --drift PCT        fleet share must exceed its EWMA baseline by this
                     percentage to alert                 (default 50)
  --daemon-drift PCT a daemon's share must exceed the fleet share by
                     this percentage to alert            (default 100)
  --min-share-us N   stall-share noise floor, µs/flow  (default 1000)
  --csv              CSV fleet intervals on stdout (alerts as CSV on
                     stderr, summary/advice as JSON on stderr)
  --advise           run the counterfactual advisor on the merged
                     per-service populations, under these flags:
",
    advise_flags_help!()
);

/// The milliseconds after `flag` as a timeout, `None` for 0 (off).
fn millis_or_off(cli: &mut Args, flag: &str) -> Option<SimDuration> {
    Some(cli.millis::<u64>(flag, "milliseconds (0 disables)")).filter(|d| !d.is_zero())
}

/// Apply one of the [`advise_flags_help`] flags to `cfg`; any other flag
/// is unknown.
fn advise_flag(cli: &mut Args, flag: &str, cfg: &mut AdviseConfig) {
    match flag {
        "--flows" => cfg.flows = cli.value(flag, "N"),
        "--replicates" => cfg.replicates = cli.value(flag, "N"),
        "--seed" => cfg.seed = cli.value(flag, "N"),
        "--min-stalled-us" => cfg.min_stalled_us = cli.value(flag, "microseconds"),
        _ => cli.unknown(flag),
    }
}

struct Options {
    files: Vec<PathBuf>,
    show_flows: bool,
    show_stalls: bool,
    json: bool,
    dump: bool,
    min_stall_ms: u64,
    threads: usize,
    cfg: AnalyzerConfig,
}

fn parse_args(args: impl Iterator<Item = String>) -> Options {
    let mut cli = Args::new("tapo", HELP, args);
    let mut opts = Options {
        files: Vec::new(),
        show_flows: false,
        show_stalls: false,
        json: false,
        dump: false,
        min_stall_ms: 0,
        threads: 0,
        cfg: AnalyzerConfig::default(),
    };
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--flows" => opts.show_flows = true,
            "--stalls" => opts.show_stalls = true,
            "--json" => opts.json = true,
            "--dump" => opts.dump = true,
            "--min-stall" => opts.min_stall_ms = cli.value(&flag, "milliseconds"),
            "--mss" => opts.cfg.replay.mss = cli.value(&flag, "bytes"),
            "--dupthres" => opts.cfg.replay.dupthres = cli.value(&flag, "N"),
            "--threads" => opts.threads = cli.value(&flag, "N"),
            _ => cli.unknown(&flag),
        }
    }
    opts.files = cli.positionals().into_iter().map(PathBuf::from).collect();
    if opts.files.is_empty() {
        cli.fail("no capture file given");
    }
    opts
}

/// Exit status after `command` failed to write its results. A closed
/// stdout (`tapo live cap.pcap | head -1`) means the reader has taken all
/// it wanted, so the run stops quietly and successfully; any other write
/// error is reported and fails the run.
fn write_failed(command: &str, e: &io::Error) -> u8 {
    if e.kind() == io::ErrorKind::BrokenPipe {
        return 0;
    }
    eprintln!("{command}: cannot write results: {e}");
    1
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("live") => run_live(args.skip(1)),
        Some("advise") => run_advise(args.skip(1)),
        Some("fleet") => run_fleet(args.skip(1)),
        _ => run_offline(args),
    }
}

fn run_offline(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_args(args);

    let mut flows: Vec<FlowTrace> = Vec::new();
    let mut stats = PcapStats::default();
    for path in &opts.files {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("tapo: cannot open {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match PcapReader::read_all_stats(file) {
            Ok((mut parsed, s)) => {
                flows.append(&mut parsed);
                stats.packets += s.packets;
                stats.packets_skipped += s.packets_skipped;
                stats.records_truncated += s.records_truncated;
            }
            Err(e) => {
                eprintln!("tapo: cannot parse {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Analysis is per-flow independent, so it shards cleanly; results stay
    // in flow order, so output is identical at any thread count.
    let threads = if opts.threads == 0 {
        simnet::par::available_threads()
    } else {
        opts.threads
    };
    let analyses: Vec<FlowAnalysis> =
        simnet::par::par_map(flows.len(), threads, |i| analyze_flow(&flows[i], opts.cfg));

    let mut out = io::stdout().lock();
    let mut write_all = || -> io::Result<()> {
        if opts.dump {
            for (i, flow) in flows.iter().enumerate() {
                writeln!(out, "# flow #{i}")?;
                write!(out, "{}", tcp_trace::text::render_flow(flow))?;
            }
        }
        if opts.json {
            write_json(&mut out, &flows, &analyses, &opts, &stats)?;
        } else {
            write_text(&mut out, &flows, &analyses, &opts, &stats)?;
        }
        out.flush()
    };
    match write_all() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => ExitCode::from(write_failed("tapo", &e)),
    }
}

fn run_advise(args: impl Iterator<Item = String>) -> ExitCode {
    let mut cli = Args::new("tapo advise", ADVISE_HELP, args);
    let mut cfg = AdviseConfig::default();
    let mut csv = false;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--threads" => cfg.threads = cli.value(&flag, "N"),
            "--csv" => csv = true,
            _ => advise_flag(&mut cli, &flag, &mut cfg),
        }
    }
    let Ok([input]) = <[String; 1]>::try_from(cli.positionals()) else {
        cli.fail("advise takes exactly one report stream: tapo advise <reports.jsonl|->");
    };
    let parsed = if input == "-" {
        tapo::advise_from_reports(std::io::stdin().lock(), &cfg)
    } else {
        match File::open(&input) {
            Ok(f) => tapo::advise_from_reports(BufReader::new(f), &cfg),
            Err(e) => {
                eprintln!("tapo advise: cannot open {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let (obs, advices) = match parsed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tapo advise: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Recommendations go to stdout through the shared fixed-shape sinks;
    // the parse/selection accounting goes to stderr so a JSON consumer
    // sees advice objects only.
    eprintln!(
        "tapo advise: {} interval report(s), {} line(s) skipped, {} flow(s) on unmapped ports, \
         {} service(s) selected",
        obs.intervals,
        obs.skipped,
        obs.unmapped_flows,
        advices.len()
    );
    let stdout = std::io::stdout();
    let emit_all = || -> std::io::Result<()> {
        let mut sink: Box<dyn ReportSink> = if csv {
            let mut s = CsvSink::new(stdout.lock());
            s.write_header(&tapo::ServiceAdvice::csv_header())?;
            Box::new(s)
        } else {
            Box::new(JsonLinesSink::new(stdout.lock()))
        };
        for advice in &advices {
            sink.emit(advice)?;
        }
        sink.finish()
    };
    match emit_all() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => ExitCode::from(write_failed("tapo advise", &e)),
    }
}

fn run_fleet(args: impl Iterator<Item = String>) -> ExitCode {
    let mut cli = Args::new("tapo fleet", FLEET_HELP, args);
    let mut cfg = FleetConfig::default();
    let mut advise_cfg = AdviseConfig::default();
    let mut with_advice = false;
    let mut csv = false;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--bucket" => {
                cfg.bucket_us = cli
                    .millis::<NonZeroU64>(&flag, "milliseconds (> 0)")
                    .as_micros()
            }
            "--threads" => cfg.threads = cli.value(&flag, "N"),
            "--warmup" => cfg.drift.warmup = cli.value(&flag, "a bucket count"),
            "--drift" => cfg.drift.drift_pct = cli.value(&flag, "a percentage"),
            "--daemon-drift" => cfg.drift.daemon_drift_pct = cli.value(&flag, "a percentage"),
            "--min-share-us" => cfg.drift.min_share_us = cli.value(&flag, "microseconds"),
            "--advise" => with_advice = true,
            "--csv" => csv = true,
            _ => advise_flag(&mut cli, &flag, &mut advise_cfg),
        }
    }
    advise_cfg.threads = cfg.threads;
    let inputs = cli.positionals();
    if inputs.iter().any(|i| i == "-") && inputs.len() > 1 {
        cli.fail("'-' (stdin multiplex) cannot be mixed with files");
    }

    let parsed = if inputs.is_empty() || inputs[0] == "-" {
        tapo::read_reports("-", std::io::stdin().lock(), cfg.threads)
    } else {
        tapo::read_report_files(&inputs, cfg.threads)
    };
    let (records, skipped) = match parsed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tapo fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = tapo::aggregate(&records, skipped, &cfg);
    let advices = if with_advice {
        tapo::advise(&out.summary.observations(), &advise_cfg)
    } else {
        Vec::new()
    };

    eprintln!(
        "tapo fleet: {} record(s) from {} daemon(s), {} bucket(s), {} alert(s), \
         {} line(s) skipped",
        out.summary.records, out.summary.daemons, out.summary.buckets, out.summary.alerts, skipped
    );

    let stdout = std::io::stdout();
    let written = if csv {
        // Stdout stays one clean spreadsheet of fleet intervals; alerts get
        // their own CSV table on stderr, and the summary (plus advice, if
        // requested) follows there as JSON-lines.
        let emit_all = || -> std::io::Result<()> {
            let mut sink = CsvSink::new(stdout.lock());
            sink.write_header(&FleetInterval::csv_header())?;
            for iv in &out.intervals {
                sink.emit(iv)?;
            }
            sink.finish()?;
            let stderr = std::io::stderr();
            let mut alert_sink = CsvSink::new(stderr.lock());
            alert_sink.write_header(&FleetAlert::csv_header())?;
            for a in &out.alerts {
                alert_sink.emit(a)?;
            }
            alert_sink.finish()?;
            let mut side = JsonLinesSink::new(stderr.lock());
            side.emit(&out.summary)?;
            for advice in &advices {
                side.emit(advice)?;
            }
            side.finish()
        };
        emit_all()
    } else {
        let emit_all = || -> std::io::Result<()> {
            let mut sink = JsonLinesSink::new(stdout.lock());
            for iv in &out.intervals {
                sink.emit(iv)?;
            }
            for a in &out.alerts {
                sink.emit(a)?;
            }
            sink.emit(&out.summary)?;
            for advice in &advices {
                sink.emit(advice)?;
            }
            sink.finish()
        };
        emit_all()
    };
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => ExitCode::from(write_failed("tapo fleet", &e)),
    }
}

fn run_live(args: impl Iterator<Item = String>) -> ExitCode {
    let mut cli = Args::new("tapo live", LIVE_HELP, args);
    let mut cfg = LiveConfig::default();
    let mut tier = TierConfig::default();
    let (mut promote, mut demote, mut heavy_max) = (false, false, false);
    let mut csv = false;
    let mut daemon_id: Option<String> = None;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--shards" => cfg.shards = cli.value(&flag, "N"),
            "--cells" => cfg.cells = cli.value(&flag, "N"),
            "--batch" => cfg.batch = cli.value(&flag, "a packet count"),
            "--interval" => cfg.interval = cli.millis::<u64>(&flag, "milliseconds"),
            "--idle" => cfg.idle_timeout = millis_or_off(&mut cli, &flag),
            "--linger" => cfg.fin_linger = millis_or_off(&mut cli, &flag),
            "--max-flows" => cfg.max_flows = cli.value(&flag, "N (0 = unbounded)"),
            "--promote" => {
                tier.promote_dupacks = cli.value(&flag, "a dup-ACK count");
                promote = true;
            }
            "--demote" => {
                tier.demote_streak = cli.value(&flag, "a calm-packet streak (0 = never)");
                demote = true;
            }
            "--heavy-max" => {
                tier.heavy_max = cli.value(&flag, "N (0 = unbounded)");
                heavy_max = true;
            }
            "--per-shard" => cfg.per_shard_occupancy = true,
            "--mss" => cfg.analyzer.replay.mss = cli.value(&flag, "bytes"),
            "--dupthres" => cfg.analyzer.replay.dupthres = cli.value(&flag, "N"),
            "--daemon-id" => daemon_id = Some(cli.value(&flag, "an id")),
            "--sketch" => cfg.sketch = cli.pick(&flag, &[("on", true), ("off", false)]),
            "--csv" => csv = true,
            _ => cli.unknown(&flag),
        }
    }
    let Ok([input]) = <[String; 1]>::try_from(cli.positionals()) else {
        cli.fail("live mode takes exactly one capture: tapo live <capture.pcap|->");
    };
    cfg.tier = promote.then_some(tier);
    let mut cfg = cfg.build().unwrap_or_else(|e| cli.fail(e));
    // The two-tier knobs tune a mode only `--promote` turns on.
    for (knob, given) in [("demote", demote), ("heavy-max", heavy_max)] {
        if given && !promote {
            cli.fail(format!(
                "--{knob} requires --promote (two-tier mode is off)"
            ));
        }
    }
    // Without an explicit id, a file-fed daemon gets a stable hash of its
    // capture path — restart-safe and pid-free — while stdin stays the
    // "local" default (there is no path to hash).
    match daemon_id {
        Some(id) => cfg.daemon_id = DaemonId::new(&id).unwrap_or_else(|e| cli.fail(e)),
        None if input != "-" => cfg.daemon_id = DaemonId::derived_from_path(&input),
        None => {}
    }

    // Interval reports stream to stdout through one fixed-shape sink; in
    // CSV mode stdout stays a clean spreadsheet (header up front, even if
    // no interval ever completes) and the JSON summary goes to stderr.
    let stdout = std::io::stdout();
    let mut sink: Box<dyn ReportSink> = if csv {
        let mut s = CsvSink::new(stdout.lock());
        if let Err(e) = s.write_header(&live::IntervalReport::csv_header()) {
            return ExitCode::from(write_failed("tapo live", &e));
        }
        Box::new(s)
    } else {
        Box::new(JsonLinesSink::new(stdout.lock()))
    };
    // The pipeline has no way to be told to stop early, and once stdout
    // is gone nothing it computes can reach anyone: end the process here.
    let mut emit = |r: &live::IntervalReport| {
        if let Err(e) = sink.emit(r) {
            std::process::exit(write_failed("tapo live", &e).into());
        }
    };
    let result = if input == "-" {
        live::run(std::io::stdin().lock(), &cfg, &mut emit)
    } else {
        match File::open(&input) {
            // No `BufReader`: `PcapStream` does its own segment-sized reads.
            Ok(f) => live::run(f, &cfg, &mut emit),
            Err(e) => {
                eprintln!("tapo live: cannot open {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match result {
        Ok(summary) => {
            let written = if csv {
                sink.finish()
                    .and_then(|()| JsonLinesSink::new(std::io::stderr().lock()).emit(&summary))
            } else {
                sink.emit(&summary).and_then(|()| sink.finish())
            };
            match written {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => ExitCode::from(write_failed("tapo live", &e)),
            }
        }
        Err(e) => {
            eprintln!("tapo live: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_text(
    out: &mut impl Write,
    flows: &[FlowTrace],
    analyses: &[FlowAnalysis],
    opts: &Options,
    stats: &PcapStats,
) -> io::Result<()> {
    let mut breakdown = StallBreakdown::default();
    let mut flows_with_stalls = 0usize;
    let mut total_bytes = 0u64;
    for a in analyses {
        breakdown.add_flow(a);
        if !a.stalls.is_empty() {
            flows_with_stalls += 1;
        }
        total_bytes += a.metrics.goodput_bytes;
    }

    writeln!(
        out,
        "{} flows, {:.1} MB served; {} flows ({:.0}%) stalled; {} stalls, {:.1}s stalled in total",
        flows.len(),
        total_bytes as f64 / 1e6,
        flows_with_stalls,
        100.0 * flows_with_stalls as f64 / flows.len().max(1) as f64,
        breakdown.total_stalls,
        breakdown.total_stalled.as_secs_f64(),
    )?;
    writeln!(
        out,
        "{} packets decoded, {} skipped (non-IPv4/TCP or malformed), {} truncated record(s)",
        stats.packets, stats.packets_skipped, stats.records_truncated,
    )?;

    writeln!(out, "\nstall causes (volume% / time%):")?;
    for class in StallClass::ALL {
        let share = breakdown.share(class);
        if share.volume_pct > 0.0 {
            writeln!(
                out,
                "  {:<12} {:>5.1}% / {:>5.1}%",
                class.label(),
                share.volume_pct,
                share.time_pct
            )?;
        }
    }
    if breakdown.any_retrans() {
        writeln!(
            out,
            "\ntimeout-retransmission breakdown (volume% / time% of retrans stalls):"
        )?;
        for class in RetransClass::ALL {
            let share = breakdown.retrans_share(class);
            if share.volume_pct > 0.0 {
                writeln!(
                    out,
                    "  {:<14} {:>5.1}% / {:>5.1}%",
                    class.label(),
                    share.volume_pct,
                    share.time_pct
                )?;
            }
        }
    }

    if opts.show_flows {
        writeln!(out, "\nper-flow summary (worst stalled first):")?;
        writeln!(out, "{}", tapo::FlowSummary::header())?;
        for row in tapo::summary::rank_by_stalled(analyses) {
            writeln!(out, "{}", row.row())?;
        }
    }

    if opts.show_stalls {
        writeln!(out, "\nper-flow stall log:")?;
        for (i, a) in analyses.iter().enumerate() {
            let interesting: Vec<_> = a
                .stalls
                .iter()
                .filter(|s| s.duration.as_millis() >= opts.min_stall_ms)
                .collect();
            if interesting.is_empty() {
                continue;
            }
            writeln!(
                out,
                "flow #{i}: {} bytes, {:.1}s, {:.0}% stalled{}",
                a.metrics.goodput_bytes,
                a.metrics.duration.as_secs_f64(),
                a.stall_ratio() * 100.0,
                a.init_rwnd
                    .map(|w| format!(", init rwnd {w}B"))
                    .unwrap_or_default(),
            )?;
            for s in interesting {
                writeln!(
                    out,
                    "  {:>10} +{:>9}  {:<40} in_flight={} state={:?}",
                    s.start.to_string(),
                    s.duration.to_string(),
                    cause_str(&s.cause),
                    s.snapshot.in_flight,
                    s.snapshot.ca_state,
                )?;
            }
        }
    }
    Ok(())
}

fn cause_str(cause: &StallCause) -> String {
    match cause {
        StallCause::Retransmission(rc) => format!("retrans: {}", rc.label()),
        other => other.label().to_string(),
    }
}

fn ip_str(ip: [u8; 4]) -> String {
    format!("{}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3])
}

fn stall_json(s: &Stall) -> Json {
    let retrans_cause = match s.cause {
        StallCause::Retransmission(rc) => Json::from(rc.label()),
        _ => Json::Null,
    };
    Json::obj([
        ("start_s", Json::from(s.start.as_secs_f64())),
        ("end_s", Json::from(s.end.as_secs_f64())),
        ("duration_s", Json::from(s.duration.as_secs_f64())),
        ("end_record", Json::from(s.end_record)),
        ("cause", Json::from(s.cause.label())),
        ("retrans_cause", retrans_cause),
        ("rel_position", Json::from(s.rel_position)),
        (
            "snapshot",
            Json::obj([
                ("ca_state", Json::from(format!("{:?}", s.snapshot.ca_state))),
                ("packets_out", Json::from(s.snapshot.packets_out)),
                ("sacked_out", Json::from(s.snapshot.sacked_out)),
                ("retrans_out", Json::from(s.snapshot.retrans_out)),
                ("lost_est", Json::from(s.snapshot.lost_est)),
                ("holes", Json::from(s.snapshot.holes)),
                ("in_flight", Json::from(s.snapshot.in_flight)),
                ("rwnd", Json::from(s.snapshot.rwnd)),
                ("dupacks", Json::from(s.snapshot.dupacks)),
            ]),
        ),
    ])
}

fn write_json(
    out: &mut impl Write,
    flows: &[FlowTrace],
    analyses: &[FlowAnalysis],
    opts: &Options,
    stats: &PcapStats,
) -> io::Result<()> {
    let flows_json: Vec<Json> = analyses
        .iter()
        .zip(flows)
        .map(|(a, t)| {
            Json::obj([
                (
                    "key",
                    match t.key {
                        Some(key) => Json::obj([
                            ("server", Json::from(ip_str(key.server_ip))),
                            ("server_port", Json::from(u64::from(key.server_port))),
                            ("client", Json::from(ip_str(key.client_ip))),
                            ("client_port", Json::from(u64::from(key.client_port))),
                        ]),
                        None => Json::Null,
                    },
                ),
                ("packets", Json::from(t.records.len())),
                ("bytes", Json::from(a.metrics.goodput_bytes)),
                ("duration_s", Json::from(a.metrics.duration.as_secs_f64())),
                ("stall_ratio", Json::from(a.stall_ratio())),
                (
                    "mean_rtt_s",
                    Json::from(a.metrics.mean_rtt.map(|d| d.as_secs_f64())),
                ),
                (
                    "mean_rto_s",
                    Json::from(a.metrics.mean_rto.map(|d| d.as_secs_f64())),
                ),
                ("retrans_pkts", Json::from(a.metrics.retrans_pkts)),
                ("init_rwnd", Json::from(a.init_rwnd)),
                (
                    "stalls",
                    Json::Arr(
                        a.stalls
                            .iter()
                            .filter(|s| s.duration.as_millis() >= opts.min_stall_ms)
                            .map(stall_json)
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("tool", Json::from("tapo")),
        ("packets", Json::from(stats.packets)),
        ("packets_skipped", Json::from(stats.packets_skipped)),
        ("records_truncated", Json::from(stats.records_truncated)),
        (
            "config",
            Json::obj([
                ("mss", Json::from(opts.cfg.replay.mss)),
                ("dupthres", Json::from(opts.cfg.replay.dupthres)),
                (
                    "min_rto_s",
                    Json::from(opts.cfg.replay.min_rto.as_secs_f64()),
                ),
                (
                    "max_rto_s",
                    Json::from(opts.cfg.replay.max_rto.as_secs_f64()),
                ),
                (
                    "initial_rto_s",
                    Json::from(opts.cfg.replay.initial_rto.as_secs_f64()),
                ),
                (
                    "small_in_flight",
                    Json::from(opts.cfg.classify.small_in_flight),
                ),
                (
                    "continuous_loss_min",
                    Json::from(opts.cfg.classify.continuous_loss_min),
                ),
            ]),
        ),
        ("flows", Json::Arr(flows_json)),
    ]);
    writeln!(out, "{}", doc.pretty())
}
