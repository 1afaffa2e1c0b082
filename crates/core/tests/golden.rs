//! Output pinned across commits. Every other byte-diff of `tapo` output
//! compares two runs of one build, so a decode change that moved every
//! output the same way would pass them all. This test runs the binary on a
//! small capture built here byte by byte — no simulator, no floats — and
//! compares its output with files committed under `tests/golden/`:
//!
//! * `handmade.pcap` and `handmade-swapped.pcap`: the capture, in
//!   little- and big-endian record framing (same frames);
//! * `live-heavy.jsonl`: `tapo live <cap> --daemon-id golden`;
//! * `live-promote.jsonl`: the same with `--promote 3`;
//! * `offline.json`: `tapo <cap> --json`;
//! * `fleet.jsonl`: `tapo fleet live-promote.jsonl`, the aggregator's
//!   interval and summary records over the committed report stream;
//! * `advise.jsonl`: `tapo advise - --flows 6 --replicates 3 --threads 1`
//!   fed `live-promote.jsonl` with port 443 renamed 8443. Port 443 maps
//!   to no service and port 80 never stalls, so the stream as committed
//!   selects nothing; as cloud storage's port, 443's stalls are replayed.
//!
//! Both captures must give the same three live and offline outputs. On a mismatch the fresh
//! bytes are written under `CARGO_TARGET_TMPDIR/golden/` for inspection; a
//! change that means to move the output copies them over the committed
//! files in the same diff.
//!
//! The capture holds:
//! * flow A (`10.1.0.2:40000` → `10.0.0.1:443`): both initial sequence
//!   numbers sit just below 2^32, so the client's request and the
//!   server's response both wrap; the handshake carries MSS, SACK-permitted,
//!   timestamps and window scale; some server segments carry an IP option
//!   (`ihl` 6) or a timestamp option; a lost segment draws SACKed
//!   dup-ACKs and a fast retransmit, a spurious retransmission draws a
//!   DSACK, a lost tail segment is recovered by a retransmission 1.2 s
//!   later, and two ACKs end in a truncated option list;
//! * flow B (`10.1.0.3:40001` → `10.0.0.1:443`): a short exchange closed
//!   by FINs, then the same 4-tuple reused by a fresh SYN with a distant
//!   ISN, ended by a RST;
//! * flow C (`10.0.0.1:80` ↔ `10.1.0.4:50000`): data with no handshake in
//!   the capture;
//! * an ARP frame, an IPv6 frame and a runt frame, which must be skipped.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const SERVER: [u8; 4] = [10, 0, 0, 1];
const CLIENT_A: [u8; 4] = [10, 1, 0, 2];
const CLIENT_B: [u8; 4] = [10, 1, 0, 3];
const CLIENT_C: [u8; 4] = [10, 1, 0, 4];

const FIN: u8 = 0x01;
const SYN: u8 = 0x02;
const RST: u8 = 0x04;
const PSH: u8 = 0x08;
const ACK: u8 = 0x10;

/// MSS 1460, SACK-permitted, timestamps, NOP, window scale 7.
const SYN_OPTS: &[u8] = &[
    2, 4, 0x05, 0xb4, 4, 2, 8, 10, 0, 0, 0, 1, 0, 0, 0, 0, 1, 3, 3, 7,
];
/// NOP, NOP, timestamps.
const TS_OPTS: &[u8] = &[1, 1, 8, 10, 0, 0, 1, 0, 0, 0, 0, 9];
/// IPv4 router-alert option.
const ROUTER_ALERT: &[u8] = &[0x94, 0x04, 0x00, 0x00];

/// One TCP segment as the server's capture saw it.
struct Seg<'a> {
    src: ([u8; 4], u16),
    dst: ([u8; 4], u16),
    seq: u32,
    ack: u32,
    flags: u8,
    wnd: u16,
    payload: u16,
    ip_opts: &'a [u8],
    tcp_opts: &'a [u8],
}

impl Seg<'_> {
    fn new(src: ([u8; 4], u16), dst: ([u8; 4], u16), seq: u32, ack: u32, flags: u8) -> Self {
        Seg {
            src,
            dst,
            seq,
            ack,
            flags,
            wnd: 512,
            payload: 0,
            ip_opts: &[],
            tcp_opts: &[],
        }
    }
}

/// Header-only capture of `seg` (snaplen cut after the TCP options) and
/// the length of the packet on the wire.
fn frame(seg: &Seg) -> (Vec<u8>, u32) {
    assert!(seg.ip_opts.len().is_multiple_of(4) && seg.tcp_opts.len().is_multiple_of(4));
    let ip_len = 20 + seg.ip_opts.len();
    let tcp_len = 20 + seg.tcp_opts.len();
    let total = ip_len + tcp_len + usize::from(seg.payload);
    let mut f = vec![0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00];
    let ip_at = f.len();
    f.push(0x40 | (ip_len / 4) as u8);
    f.push(0);
    f.extend_from_slice(&(total as u16).to_be_bytes());
    f.extend_from_slice(&[0x12, 0x34, 0x40, 0x00, 64, 6, 0, 0]);
    f.extend_from_slice(&seg.src.0);
    f.extend_from_slice(&seg.dst.0);
    f.extend_from_slice(seg.ip_opts);
    let mut sum: u32 = f[ip_at..]
        .chunks(2)
        .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
        .sum();
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    f[ip_at + 10..ip_at + 12].copy_from_slice(&(!(sum as u16)).to_be_bytes());
    f.extend_from_slice(&seg.src.1.to_be_bytes());
    f.extend_from_slice(&seg.dst.1.to_be_bytes());
    f.extend_from_slice(&seg.seq.to_be_bytes());
    f.extend_from_slice(&seg.ack.to_be_bytes());
    f.push(((tcp_len / 4) as u8) << 4);
    f.push(seg.flags);
    f.extend_from_slice(&seg.wnd.to_be_bytes());
    f.extend_from_slice(&[0, 0, 0, 0]);
    f.extend_from_slice(seg.tcp_opts);
    let wire = (14 + total) as u32;
    (f, wire)
}

/// NOP, NOP, SACK with `blocks` (wire numbers).
fn sack_opts(blocks: &[(u32, u32)]) -> Vec<u8> {
    let mut o = vec![1, 1, 5, 2 + 8 * blocks.len() as u8];
    for &(s, e) in blocks {
        o.extend_from_slice(&s.to_be_bytes());
        o.extend_from_slice(&e.to_be_bytes());
    }
    o
}

/// Every record of the capture: (µs since the epoch of the capture,
/// captured frame, wire length).
fn records() -> Vec<(u64, Vec<u8>, u32)> {
    let mut recs: Vec<(u64, Vec<u8>, u32)> = Vec::new();
    let mut at = |t: u64, seg: Seg| {
        let (f, wire) = frame(&seg);
        recs.push((t, f, wire));
    };

    // Flow A: both directions wrap.
    let c = (CLIENT_A, 40_000);
    let s = (SERVER, 443);
    let isn_c: u32 = 0xffff_ff00;
    let isn_s: u32 = 0xffff_f000;
    let req = |k: u32| isn_c.wrapping_add(1).wrapping_add(k * 300);
    let rsp = |k: u32| isn_s.wrapping_add(1).wrapping_add(k * 1448);
    let base = 1_000_000u64;
    at(
        base,
        Seg {
            wnd: 65_535,
            tcp_opts: SYN_OPTS,
            ..Seg::new(c, s, isn_c, 0, SYN)
        },
    );
    at(
        base + 100,
        Seg {
            wnd: 65_535,
            tcp_opts: SYN_OPTS,
            ..Seg::new(s, c, isn_s, req(0), SYN | ACK)
        },
    );
    at(base + 50_100, Seg::new(c, s, req(0), rsp(0), ACK));
    // The request crosses the client's wrap: 0xffff_ff01 + 300.
    for k in 0..2 {
        at(
            base + 50_200 + u64::from(k) * 50,
            Seg {
                payload: 300,
                ..Seg::new(c, s, req(k), rsp(0), ACK | PSH)
            },
        );
    }
    let acked = req(2);
    // Ten response segments; the third straddles the server's wrap and
    // the fourth (k = 3) is lost on its first transmission.
    let ip_opt = |k: u32| if k % 3 == 1 { ROUTER_ALERT } else { &[] };
    let tcp_opt = |k: u32| if k % 4 == 2 { TS_OPTS } else { &[] };
    for k in 0..10u32 {
        at(
            base + 60_000 + u64::from(k) * 100,
            Seg {
                payload: 1448,
                ip_opts: ip_opt(k),
                tcp_opts: tcp_opt(k),
                ..Seg::new(s, c, rsp(k), acked, ACK)
            },
        );
    }
    // ACKs a round trip later: cumulative up to k = 3, then SACKed dup-ACKs.
    for k in 1..=3u32 {
        at(
            base + 110_000 + u64::from(k) * 100,
            Seg::new(c, s, acked, rsp(k), ACK),
        );
    }
    let sacks: Vec<Vec<u8>> = (5..=10u32)
        .map(|k| sack_opts(&[(rsp(4), rsp(k))]))
        .collect();
    for (i, opts) in sacks.iter().enumerate() {
        at(
            base + 110_400 + i as u64 * 100,
            Seg {
                tcp_opts: opts,
                ..Seg::new(c, s, acked, rsp(3), ACK)
            },
        );
    }
    // Fast retransmit of k = 3; the client then acknowledges everything.
    at(
        base + 110_700,
        Seg {
            payload: 1448,
            ..Seg::new(s, c, rsp(3), acked, ACK)
        },
    );
    at(base + 160_800, Seg::new(c, s, acked, rsp(10), ACK));
    // A spurious retransmission of k = 9, reported by a DSACK block below
    // the cumulative ACK.
    at(
        base + 170_000,
        Seg {
            payload: 1448,
            ..Seg::new(s, c, rsp(9), acked, ACK)
        },
    );
    let dsack = sack_opts(&[(rsp(9), rsp(10))]);
    at(
        base + 220_000,
        Seg {
            tcp_opts: &dsack,
            ..Seg::new(c, s, acked, rsp(10), ACK)
        },
    );
    // Two more segments; the last one is lost and only a retransmission
    // 1.2 s later gets it through.
    for k in 10..12u32 {
        at(
            base + 300_000 + u64::from(k - 10) * 100,
            Seg {
                payload: 1448,
                ..Seg::new(s, c, rsp(k), acked, ACK | PSH)
            },
        );
    }
    at(base + 350_000, Seg::new(c, s, acked, rsp(11), ACK));
    at(
        base + 1_550_100,
        Seg {
            payload: 1448,
            ..Seg::new(s, c, rsp(11), acked, ACK | PSH)
        },
    );
    // ACKs whose option lists end early: a SACK option whose length runs
    // past the header, and an option kind with no length byte.
    at(
        base + 1_600_200,
        Seg {
            tcp_opts: &[1, 1, 5, 18],
            ..Seg::new(c, s, acked, rsp(12), ACK)
        },
    );
    at(
        base + 1_600_300,
        Seg {
            tcp_opts: &[1, 1, 1, 8],
            ..Seg::new(c, s, acked, rsp(12), ACK)
        },
    );
    // Teardown.
    at(base + 2_000_000, Seg::new(s, c, rsp(12), acked, FIN | ACK));
    at(
        base + 2_050_000,
        Seg::new(c, s, acked, rsp(12).wrapping_add(1), FIN | ACK),
    );
    at(
        base + 2_050_100,
        Seg::new(s, c, rsp(12).wrapping_add(1), acked.wrapping_add(1), ACK),
    );

    // Flow B: closed, then the 4-tuple is reused with a new ISN.
    let c = (CLIENT_B, 40_001);
    let mut generation = |t0: u64, isn_c: u32, isn_s: u32, last: u8| {
        at(t0, Seg::new(c, s, isn_c, 0, SYN));
        at(
            t0 + 100,
            Seg::new(s, c, isn_s, isn_c.wrapping_add(1), SYN | ACK),
        );
        let (c1, s1) = (isn_c.wrapping_add(1), isn_s.wrapping_add(1));
        at(
            t0 + 20_100,
            Seg {
                payload: 100,
                ..Seg::new(c, s, c1, s1, ACK | PSH)
            },
        );
        let c2 = c1.wrapping_add(100);
        at(
            t0 + 20_200,
            Seg {
                payload: 1000,
                ..Seg::new(s, c, s1, c2, ACK | PSH)
            },
        );
        let s2 = s1.wrapping_add(1000);
        at(t0 + 40_300, Seg::new(c, s, c2, s2, ACK));
        at(t0 + 40_400, Seg::new(s, c, s2, c2, last | ACK));
        if last == FIN {
            at(
                t0 + 60_500,
                Seg::new(c, s, c2, s2.wrapping_add(1), FIN | ACK),
            );
            at(
                t0 + 60_600,
                Seg::new(s, c, s2.wrapping_add(1), c2.wrapping_add(1), ACK),
            );
        }
    };
    generation(1_500_000, 1_000, 5_000, FIN);
    // Within the default 1 s FIN linger: the SYN displaces the closed flow.
    generation(2_300_000, 0x9000_0000, 0x1234_5678, RST);

    // Flow C: mid-stream, no handshake; the lower port is the server's.
    let s80 = (SERVER, 80);
    let c = (CLIENT_C, 50_000);
    for k in 0..4u32 {
        at(
            2_200_000 + u64::from(k) * 10_000,
            Seg {
                payload: 1000,
                ..Seg::new(s80, c, 7_000 + k * 1000, 3_000, ACK)
            },
        );
        at(
            2_230_000 + u64::from(k) * 10_000,
            Seg::new(c, s80, 3_000, 8_000 + k * 1000, ACK),
        );
    }

    // Frames the reader must skip.
    let mut arp = vec![0xff; 6];
    arp.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x03, 0x08, 0x06]);
    arp.extend_from_slice(&[0, 1, 0x08, 0, 6, 4, 0, 1]);
    arp.resize(42, 0);
    recs.push((1_000_050, arp, 42));
    let mut v6 = vec![0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x86, 0xdd];
    v6.extend_from_slice(&[0x60, 0, 0, 0, 0, 20, 6, 64]);
    v6.resize(14 + 40 + 20, 0x11);
    recs.push((2_100_000, v6, 74));
    recs.push((3_000_000, vec![0x02; 20], 20));

    recs.sort_by_key(|r| r.0);
    recs
}

/// The capture file, with global and record headers in the given byte
/// order.
fn capture(big_endian: bool) -> Vec<u8> {
    let w32 = |out: &mut Vec<u8>, v: u32| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    let w16 = |out: &mut Vec<u8>, v: u16| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    let mut out = Vec::new();
    w32(&mut out, 0xa1b2_c3d4);
    w16(&mut out, 2);
    w16(&mut out, 4);
    w32(&mut out, 0);
    w32(&mut out, 0);
    w32(&mut out, 96);
    w32(&mut out, 1);
    for (t_us, f, wire) in records() {
        w32(&mut out, (t_us / 1_000_000) as u32);
        w32(&mut out, (t_us % 1_000_000) as u32);
        w32(&mut out, f.len() as u32);
        w32(&mut out, wire);
        out.extend_from_slice(&f);
    }
    out
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `got` with the committed `name`; on a mismatch leave `got`
/// under the target's temp dir and describe where.
fn check(name: &str, got: &[u8]) -> Option<String> {
    let want = std::fs::read(golden_dir().join(name)).unwrap_or_default();
    if want == got {
        return None;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&fresh).expect("create temp dir");
    std::fs::write(fresh.join(name), got).expect("write fresh output");
    Some(format!(
        "{name}: {} bytes differ from the committed {} (fresh copy in {})",
        got.len(),
        want.len(),
        fresh.display()
    ))
}

fn tapo(args: &[&str]) -> Vec<u8> {
    tapo_fed(args, b"")
}

/// `tapo args` with `stdin` on its standard input; its standard output.
fn tapo_fed(args: &[&str], stdin: &[u8]) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tapo"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run tapo");
    let mut pipe = child.stdin.take().expect("piped stdin");
    pipe.write_all(stdin).expect("feed tapo");
    drop(pipe);
    let out = child.wait_with_output().expect("run tapo");
    assert!(
        out.status.success(),
        "tapo {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn outputs_match_the_committed_golden_files() {
    let mut problems = Vec::new();
    for (name, big_endian) in [("handmade.pcap", false), ("handmade-swapped.pcap", true)] {
        problems.extend(check(name, &capture(big_endian)));
        let cap = golden_dir().join(name);
        let cap = cap.to_str().expect("UTF-8 path");
        let id = ["--daemon-id", "golden"];
        let live = tapo(&[&["live", cap][..], &id].concat());
        problems.extend(check("live-heavy.jsonl", &live));
        let promote = tapo(&[&["live", cap][..], &id, &["--promote", "3"]].concat());
        problems.extend(check("live-promote.jsonl", &promote));
        problems.extend(check("offline.json", &tapo(&[cap, "--json"])));
    }
    let reports = golden_dir().join("live-promote.jsonl");
    let reports = reports.to_str().expect("UTF-8 path");
    problems.extend(check("fleet.jsonl", &tapo(&["fleet", reports])));
    let stream = std::fs::read_to_string(reports).expect("read live-promote.jsonl");
    let advise = [
        "advise",
        "-",
        "--flows",
        "6",
        "--replicates",
        "3",
        "--threads",
        "1",
    ];
    let advice = tapo_fed(&advise, stream.replace("\"443\":", "\"8443\":").as_bytes());
    problems.extend(check("advise.jsonl", &advice));
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
