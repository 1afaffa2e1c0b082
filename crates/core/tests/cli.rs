//! `tapo`'s four commands share one argument reader: `--help` prints to
//! stdout and exits 0, and the help lists only flags the command takes.

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
        (&["fleet", "--bucket", "18446744073709552"], "--bucket"),
    ] {
        let out = cli::run_in(dir, TAPO, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
    }
}
