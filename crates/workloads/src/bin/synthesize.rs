//! `synthesize` — generate a calibrated trace corpus as a pcap file.
//!
//! The companion to the `tapo` CLI: it produces the kind of server-side
//! capture the paper's front-ends recorded, from the calibrated service
//! models, so the full offline workflow can be exercised without any
//! production data. `synthesize --help` and `synthesize mixed --help`
//! list the flags of its two modes.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use simnet::cli::Args;
use tcp_trace::pcap::PcapWriter;
use workloads::{generate_interleaved, synthesize_corpus, LiveGenSpec, LiveMechanism, Service};

const HELP: &str = "\
usage: synthesize <cloud|software|web> <out.pcap> [--flows N] [--seed S]
                  [--mechanism native|tlp|srto]

Synthesize one service's flows into a capture, flow after flow.

  --flows N          flows to synthesize               (default 100)
  --seed S           master seed                       (default 2015)
  --mechanism M      loss recovery: native, tlp or srto (default native)

`synthesize mixed --help` describes the interleaved mode.
";

const MIXED_HELP: &str = "\
usage: synthesize mixed <out.pcap> [--flows N] [--seed S] [--mean-gap-ms MS]
                        [--mechanism native|tlp|srto] [--threads N]

Interleave flows from all three services into one time-ordered capture
with Poisson flow arrivals, the input shape the `tapo live` pipeline is
built for.

  --flows N          total flows across the three services, rounded up
                     to a multiple of three            (default 300)
  --seed S           master seed                       (default 2015)
  --mean-gap-ms MS   mean gap between flow starts      (default 20)
  --mechanism M      loss recovery: native, tlp or srto (default native)
  --threads N        simulation worker threads (default: all cores; the
                     capture is identical at any thread count)
";

const MECHANISMS: [(&str, LiveMechanism); 3] = [
    ("native", LiveMechanism::Native),
    ("tlp", LiveMechanism::Tlp),
    ("srto", LiveMechanism::Srto),
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("mixed") {
        return run_mixed(Args::new("synthesize mixed", MIXED_HELP, args.skip(1)));
    }
    let mut cli = Args::new("synthesize", HELP, args);
    let mut flows = 100usize;
    let mut seed = 2015u64;
    let mut mechanism = LiveMechanism::Native;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--flows" => flows = cli.value(&flag, "a count"),
            "--seed" => seed = cli.value(&flag, "an integer"),
            "--mechanism" => mechanism = cli.pick(&flag, &MECHANISMS),
            _ => cli.unknown(&flag),
        }
    }
    let Ok([service, out_path]) = <[String; 2]>::try_from(cli.positionals()) else {
        cli.fail("expected a service and an output file");
    };
    let service = match service.as_str() {
        "cloud" => Service::CloudStorage,
        "software" => Service::SoftwareDownload,
        "web" => Service::WebSearch,
        _ => cli.fail(format!("unknown service {service}")),
    };
    let mechanism = mechanism.resolve(service);

    eprintln!(
        "synthesizing {flows} {} flows under {} (seed {seed})...",
        service.label(),
        mechanism.label()
    );
    let corpus = synthesize_corpus(service, flows, mechanism, seed);

    let file = match File::create(&out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = match PcapWriter::new(file) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut packets = 0usize;
    for flow in &corpus.flows {
        packets += flow.trace.records.len();
        if let Err(e) = writer.write_flow(&flow.trace) {
            eprintln!("write error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = writer.finish() {
        eprintln!("write error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {packets} packets from {} flows ({:.1} MB served, {:.0}% completed) to {out_path}",
        corpus.flows.len(),
        corpus.total_bytes() as f64 / 1e6,
        corpus.completion_rate() * 100.0,
    );
    ExitCode::SUCCESS
}

fn run_mixed(mut cli: Args) -> ExitCode {
    let mut spec = LiveGenSpec::default();
    let mut total_flows = 300usize;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--flows" => total_flows = cli.value(&flag, "a count"),
            "--seed" => spec.seed = cli.value(&flag, "an integer"),
            "--mean-gap-ms" => spec.mean_gap = cli.millis::<u64>(&flag, "milliseconds"),
            "--threads" => spec.threads = cli.value(&flag, "a count"),
            "--mechanism" => spec.mechanism = cli.pick(&flag, &MECHANISMS),
            _ => cli.unknown(&flag),
        }
    }
    let Ok([out_path]) = <[String; 1]>::try_from(cli.positionals()) else {
        cli.fail("expected one output file");
    };
    spec.flows_per_service = total_flows.div_ceil(3);

    eprintln!(
        "synthesizing {} interleaved flows across 3 services (seed {}, mean gap {:.0} ms)...",
        spec.flows_per_service * 3,
        spec.seed,
        spec.mean_gap.as_secs_f64() * 1e3,
    );
    let file = match File::create(&out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match generate_interleaved(BufWriter::new(file), &spec) {
        Ok(stats) => {
            eprintln!(
                "wrote {} packets from {} flows ({:.1} MB served, {:.1} s span) to {out_path}",
                stats.packets,
                stats.flows,
                stats.bytes as f64 / 1e6,
                stats.span.as_secs_f64(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("write error: {e}");
            ExitCode::FAILURE
        }
    }
}
