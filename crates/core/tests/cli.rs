//! `tapo`'s four commands share one argument reader: `--help` prints to
//! stdout and exits 0, the help lists only flags the command takes, and
//! a usage error is one stderr line naming the flag, with exit 2.

#[path = "../../../tests/support/cli.rs"]
mod cli;

use std::path::Path;

const TAPO: &str = env!("CARGO_BIN_EXE_tapo");

#[test]
fn every_command_helps_with_exactly_the_flags_it_takes() {
    for cmd in [&[][..], &["live"], &["advise"], &["fleet"]] {
        cli::check_help(TAPO, cmd);
    }
}

#[test]
fn removed_and_out_of_range_flags_exit_2() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (args, named) in [
        (&["live", "-", "--ring", "8"][..], "unknown option --ring"),
        (&["live", "-", "--pace", "2"], "unknown option --pace"),
        (&["fleet", "--bucket", "18446744073709552"], "--bucket"),
        // The first count of milliseconds whose microseconds overflow u64.
        (
            &["live", "-", "--interval", "18446744073709552"],
            "--interval 18446744073709552 ms overflows",
        ),
        (
            &["live", "-", "--idle", "18446744073709552"],
            "--idle 18446744073709552 ms overflows",
        ),
        (
            &["live", "-", "--linger", "18446744073709552"],
            "--linger 18446744073709552 ms overflows",
        ),
    ] {
        let out = cli::run_in(dir, TAPO, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
    }
}

#[test]
fn live_usage_errors_name_the_one_bad_flag() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (flag, value, line) in [
        ("--shards", "0", "--shards must be at least 1"),
        ("--interval", "0", "--interval must be at least 1 ms"),
        ("--mss", "0", "--mss must be at least 1 byte"),
        ("--dupthres", "0", "--dupthres must be at least 1"),
        ("--promote", "0", "--promote must be at least 1 dup-ACK"),
        ("--batch", "0", "--batch must be between 1 and 65536, got 0"),
        (
            "--batch",
            "65537",
            "--batch must be between 1 and 65536, got 65537",
        ),
        ("--cells", "0", "--cells must be between 1 and 4096, got 0"),
        (
            "--cells",
            "4097",
            "--cells must be between 1 and 4096, got 4097",
        ),
        (
            "--daemon-id",
            "bad/id",
            "--daemon-id must be 1..=40 characters of [A-Za-z0-9._:-], got \"bad/id\"",
        ),
        (
            "--demote",
            "5",
            "--demote requires --promote (two-tier mode is off)",
        ),
        (
            "--heavy-max",
            "5",
            "--heavy-max requires --promote (two-tier mode is off)",
        ),
    ] {
        let out = cli::run_in(dir, TAPO, &["live", "-", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        assert!(out.stdout.is_empty(), "{flag} {value}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("tapo live: {line} (try --help)\n")
        );
    }
}

/// `--idle 0` and `--linger 0` turn the timeout off: the reports equal
/// those of a timeout longer than the capture, and differ from a 1 ms one.
#[test]
fn zero_ms_means_disabled_for_idle_and_linger() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let capture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/handmade.pcap");
    for flag in ["--idle", "--linger"] {
        let live = |ms: &str| {
            let out = cli::run_in(dir, TAPO, &["live", capture, "--daemon-id", "g", flag, ms]);
            assert!(out.status.success(), "{flag} {ms}: {out:?}");
            out.stdout
        };
        assert_eq!(live("0"), live("100000000"), "{flag} 0");
        assert_ne!(live("0"), live("1"), "{flag} 1 changes nothing here");
    }
}
