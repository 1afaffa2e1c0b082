//! Fleet-mode determinism, end to end: N `tapo live` daemons feed one
//! aggregator, and the aggregate must be a pure function of the record
//! *multiset* — byte-identical however the streams arrive (which file,
//! what interleaving, how many parse threads) and however they are
//! ingested (per-daemon files vs one concatenated stdin multiplex).
//!
//! The streams here are real: each daemon's report lines come from
//! running the live pipeline over its own interleaved capture (distinct
//! derived seed per daemon via [`workloads::daemon_specs`]), with
//! sketches on, exactly as the CLI produces them.

use std::io::Write;

use simnet::time::SimDuration;
use tapo::live::{self, DaemonId, LiveConfig};
use tapo::{aggregate, read_report_files, read_reports, FleetConfig, FleetOutcome, Record};
use workloads::{daemon_specs, generate_interleaved, LiveGenSpec};

/// One daemon's JSON-lines report stream (interval records + the
/// trailing summary, like the CLI), with the stalls its interval records
/// carry, tallied from the live side.
struct DaemonStream {
    id: String,
    lines: String,
    stalls: u64,
}

/// Run one live daemon over its own capture.
fn daemon_stream(id: &str, spec: &LiveGenSpec) -> DaemonStream {
    let mut capture = Vec::new();
    generate_interleaved(&mut capture, spec).expect("in-memory generation cannot fail");
    let cfg = LiveConfig {
        daemon_id: DaemonId::new(id).expect("test ids are valid"),
        interval: SimDuration::from_millis(250),
        ..Default::default()
    };
    let mut lines = String::new();
    let mut stalls = 0;
    let summary = live::run(&capture[..], &cfg, |r| {
        stalls += r.breakdown.total_stalls;
        lines.push_str(&r.to_json().compact());
        lines.push('\n');
    })
    .expect("live run succeeds");
    lines.push_str(&summary.to_json().compact());
    lines.push('\n');
    DaemonStream {
        id: id.to_string(),
        lines,
        stalls,
    }
}

/// Three daemons' report streams, generated once per test binary.
fn fleet_streams() -> Vec<DaemonStream> {
    let base = LiveGenSpec {
        flows_per_service: 4, // 12 flows per daemon
        seed: 0xf1ee7,
        mean_gap: SimDuration::from_millis(5),
        threads: 1,
        ..Default::default()
    };
    daemon_specs(&base, 3)
        .into_iter()
        .map(|(id, spec)| daemon_stream(&id, &spec))
        .collect()
}

/// Everything the fleet CLI renders, in one string: interval records
/// (JSON + CSV), alerts (JSON + CSV), and the summary object.
fn render(out: &FleetOutcome) -> String {
    let mut s = String::new();
    for iv in &out.intervals {
        s.push_str(&iv.json().compact());
        s.push('\n');
        s.push_str(&iv.csv());
        s.push('\n');
    }
    for a in &out.alerts {
        s.push_str(&a.json().compact());
        s.push('\n');
        s.push_str(&a.csv());
        s.push('\n');
    }
    s.push_str(&out.summary.json().compact());
    s.push('\n');
    s
}

#[test]
fn fleet_output_is_arrival_order_and_thread_count_invariant() {
    let streams = fleet_streams();
    // Three arrival shapes for the same multiset of lines: daemons in
    // order, daemons reversed, and a line-level round-robin interleave
    // (what a shared FIFO fed by three writers looks like).
    let in_order: String = streams.iter().map(|d| d.lines.as_str()).collect();
    let reversed: String = streams.iter().rev().map(|d| d.lines.as_str()).collect();
    let mut interleaved = String::new();
    let mut cursors: Vec<std::str::Lines> = streams.iter().map(|d| d.lines.lines()).collect();
    loop {
        let mut any = false;
        for lines in &mut cursors {
            if let Some(line) = lines.next() {
                interleaved.push_str(line);
                interleaved.push('\n');
                any = true;
            }
        }
        if !any {
            break;
        }
    }

    assert!(
        streams.iter().any(|d| d.stalls > 0),
        "the streams must carry stalls for the stall sum to check anything"
    );
    let cfg = FleetConfig::default();
    let mut rendered: Vec<(String, String)> = Vec::new();
    for (label, input) in [
        ("in-order", &in_order),
        ("reversed", &reversed),
        ("interleaved", &interleaved),
    ] {
        for threads in [1usize, 4] {
            let (records, skipped) = read_reports("-", input.as_bytes(), threads)
                .unwrap_or_else(|e| panic!("{label}/threads={threads}: {e}"));
            assert_eq!(skipped, 3, "{label}: one summary line per daemon");
            let out = aggregate(&records, skipped, &cfg);
            // Lossless: every interval line fed is merged exactly once,
            // and the merged stalls are the stalls the daemons reported.
            let fed = input
                .lines()
                .filter(|l| l.contains("\"kind\":\"interval\""))
                .count();
            assert_eq!(out.summary.records, fed as u64, "{label}/threads={threads}");
            assert_eq!(
                out.summary.stalls,
                streams.iter().map(|d| d.stalls).sum::<u64>(),
                "{label}/threads={threads}"
            );
            rendered.push((format!("{label}/threads={threads}"), render(&out)));
        }
    }
    let (base_label, baseline) = &rendered[0];
    assert!(
        baseline.contains("\"kind\":\"fleet_interval\""),
        "aggregate must produce interval records"
    );
    for (label, bytes) in &rendered[1..] {
        assert_eq!(bytes, baseline, "{label} diverged from {base_label}");
    }
    // The baseline actually exercises the merge: all three daemons appear
    // in the per-daemon breakdown of the rendered stream.
    for DaemonStream { id, .. } in &streams {
        assert!(baseline.contains(&format!("\"{id}\"")), "missing {id}");
    }
}

#[test]
fn file_and_stdin_ingestion_produce_identical_bytes() {
    let streams = fleet_streams();
    let dir = std::env::temp_dir();
    let paths: Vec<std::path::PathBuf> = streams
        .iter()
        .map(|DaemonStream { id, lines, .. }| {
            let path = dir.join(format!("tapo_fleet_test_{}_{id}.jsonl", std::process::id()));
            let mut f = std::fs::File::create(&path).expect("create temp report file");
            f.write_all(lines.as_bytes()).expect("write temp report");
            path
        })
        .collect();

    let mut file_records = Vec::new();
    let skipped = read_report_files(&paths, 2, |rec| file_records.push(rec))
        .expect("file ingestion succeeds");
    let from_files = (file_records, skipped);
    let concat: String = streams.iter().map(|d| d.lines.as_str()).collect();
    let from_stdin = read_reports("-", concat.as_bytes(), 2).expect("stdin ingestion succeeds");
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }

    assert_eq!(from_files, from_stdin, "records and skip counts must agree");
    let cfg = FleetConfig::default();
    assert_eq!(
        render(&aggregate(&from_files.0, from_files.1, &cfg)),
        render(&aggregate(&from_stdin.0, from_stdin.1, &cfg)),
        "file-fed and stdin-fed aggregates diverged"
    );
}

#[test]
fn fleet_observations_match_the_direct_advise_path() {
    let streams = fleet_streams();
    let concat: String = streams.iter().map(|d| d.lines.as_str()).collect();

    let obs_direct = tapo::parse_observations(concat.as_bytes()).expect("advise parse succeeds");
    let (records, skipped) = read_reports("-", concat.as_bytes(), 1).expect("fleet parse succeeds");
    let out = aggregate(&records, skipped, &FleetConfig::default());
    let obs_fleet = out.summary.observations();
    assert_eq!(
        obs_fleet, obs_direct,
        "fleet-merged observations must equal the advisor's own parse"
    );

    // And the counterfactual advisor sees no difference downstream.
    let advise_cfg = tapo::AdviseConfig {
        flows: 4,
        replicates: 2,
        threads: 1,
        ..Default::default()
    };
    let direct = tapo::advise(&obs_direct, &advise_cfg);
    let via_fleet = tapo::advise(&obs_fleet, &advise_cfg);
    assert_eq!(via_fleet, direct);
}

#[test]
fn injected_regression_raises_deterministic_alerts() {
    // Hand-written streams with a controlled stall share: every daemon
    // idles at share 5000 µs/flow, then fe2 spikes 6× in bucket 6. The
    // fleet share doubles (> 1.5× the EWMA baseline) and fe2 lands at
    // more than 2× the fleet share, so both drift rules must fire — and
    // fire identically at any arrival order.
    let mut lines = Vec::new();
    for bucket in 0u64..10 {
        for (i, id) in ["fe0", "fe1", "fe2"].iter().enumerate() {
            let stalled_us = if bucket == 6 && i == 2 {
                300_000
            } else {
                50_000
            };
            lines.push(format!(
                "{{\"kind\":\"interval\",\"daemon\":\"{id}\",\"interval\":{bucket},\
                 \"start_us\":{},\"end_us\":{},\"flows_finalized\":10,\
                 \"breakdown\":{{\"stalls\":2,\"stalled_us\":{stalled_us}}}}}",
                bucket * 1_000_000,
                (bucket + 1) * 1_000_000,
            ));
        }
    }
    let cfg = FleetConfig::default();
    let sorted = lines.join("\n");
    let mut shuffled_lines = lines.clone();
    shuffled_lines.reverse();
    shuffled_lines.rotate_left(7);
    let shuffled = shuffled_lines.join("\n");

    let mut outcomes = Vec::new();
    for input in [&sorted, &shuffled] {
        let (records, skipped) = read_reports("-", input.as_bytes(), 2).unwrap();
        outcomes.push(aggregate(&records, skipped, &cfg));
    }
    assert_eq!(
        render(&outcomes[0]),
        render(&outcomes[1]),
        "alerts must not depend on arrival order"
    );

    let alerts = &outcomes[0].alerts;
    assert!(
        alerts.iter().any(|a| a.scope == "fleet" && a.bucket == 6),
        "fleet-wide drift alert missing: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.scope == "fe2" && a.bucket == 6),
        "daemon-vs-fleet alert for fe2 missing: {alerts:?}"
    );
    assert!(
        !alerts.iter().any(|a| a.bucket < 6),
        "no alert may fire before the injected regression: {alerts:?}"
    );
    assert_eq!(outcomes[0].summary.alerts, alerts.len() as u64);
}
