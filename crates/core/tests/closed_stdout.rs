//! A reader that closes `tapo`'s stdout early (`tapo live cap.pcap | head
//! -1`, `tapo cap.pcap --json | head -1`) has taken all it wanted: the
//! process must stop quietly with a success status, never panic on the
//! broken pipe.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use simnet::time::SimTime;
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::PcapWriter;
use tcp_trace::record::{Direction, TraceRecord};

/// One flow sending a segment every 100 ms for six seconds, each
/// acknowledged 50 ms later: six one-second intervals of reports.
fn capture() -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf).expect("in-memory writer");
    let key = FlowKey::synthetic(1);
    for k in 0..60u64 {
        let t = k * 100;
        let seq = k * 1000;
        let data = TraceRecord::data(
            SimTime::from_millis(t),
            Direction::Out,
            seq,
            1000,
            0,
            1 << 20,
        );
        let ack = TraceRecord::pure_ack(
            SimTime::from_millis(t + 50),
            Direction::In,
            seq + 1000,
            1 << 20,
        );
        w.write_record(&key, &data).expect("write record");
        w.write_record(&key, &ack).expect("write record");
    }
    w.finish().expect("finish capture");
    buf
}

fn tapo(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_tapo"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tapo")
}

/// Wait for `child` (its stdout already closed) and check it ended
/// quietly and successfully.
fn assert_quiet_success(child: Child, what: &str) {
    let out = child.wait_with_output().expect("wait for tapo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "{what} panicked on a closed stdout:\n{stderr}"
    );
    assert!(
        out.status.success(),
        "{what} exited {:?} on a closed stdout:\n{stderr}",
        out.status
    );
}

#[test]
fn live_stops_quietly_when_stdout_closes_after_the_first_line() {
    let cap = capture();
    let mut child = tapo(&["live", "-"]);
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    // The first half of the capture crosses at least one interval
    // boundary, so a report comes out while input is still open.
    let half = cap.len() / 2;
    stdin.write_all(&cap[..half]).expect("feed first half");
    stdin.flush().expect("flush");
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first report");
    assert!(first.contains("\"kind\":\"interval\""), "{first}");
    drop(stdout);
    // The rest crosses more boundaries: the next report meets the closed
    // pipe. The process may already be gone, so a failed write is fine.
    let _ = stdin.write_all(&cap[half..]);
    drop(stdin);
    assert_quiet_success(child, "tapo live");
}

#[test]
fn fleet_and_advise_stop_quietly_on_a_closed_stdout() {
    let reports = Command::new(env!("CARGO_BIN_EXE_tapo"))
        .args(["live", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .and_then(|mut c| {
            c.stdin.take().expect("piped stdin").write_all(&capture())?;
            c.wait_with_output()
        })
        .expect("tapo live runs");
    assert!(reports.status.success());
    for (args, what) in [
        (&["fleet", "-"][..], "tapo fleet"),
        (&["fleet", "-", "--csv"][..], "tapo fleet --csv"),
        // CSV writes its header even when no service is advised.
        (&["advise", "-", "--csv"][..], "tapo advise --csv"),
    ] {
        let mut child = tapo(args);
        // Close stdout before any output exists: the first write fails.
        drop(child.stdout.take());
        let mut stdin = child.stdin.take().expect("piped stdin");
        let _ = stdin.write_all(&reports.stdout);
        drop(stdin);
        assert_quiet_success(child, what);
    }
}

#[test]
fn offline_analysis_stops_quietly_on_a_closed_stdout() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed_stdout_offline.pcap");
    std::fs::write(&path, capture()).expect("write capture");
    let path = path.to_str().expect("UTF-8 temp path");
    for extra in [&[][..], &["--json"], &["--flows", "--stalls"], &["--dump"]] {
        let args: Vec<&str> = std::iter::once(path).chain(extra.iter().copied()).collect();
        let mut child = tapo(&args);
        // Close stdout before any output exists: the first write fails.
        drop(child.stdout.take());
        drop(child.stdin.take());
        assert_quiet_success(child, &format!("tapo <pcap> {}", extra.join(" ")));
    }
}
