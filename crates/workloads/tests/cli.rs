//! `synthesize` parses its arguments before it writes anything: `--help`
//! and a `-`-prefixed argument never become the name of a capture, and
//! an out-of-range value writes no capture at all.

#[path = "../../../tests/support/cli.rs"]
mod cli;

use std::path::Path;

const SYNTHESIZE: &str = env!("CARGO_BIN_EXE_synthesize");

#[test]
fn help_and_unknown_options_write_no_file() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("synthesize_cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    for (args, code) in [
        (&["mixed", "--help", "--flows", "3"][..], 0),
        (&["cloud", "--help", "--flows", "3"], 0),
        (&["mixed", "-h", "--flows", "3"], 0),
        (&["mixed", "--out.pcap", "--flows", "3"], 2),
        (&["web", "--out.pcap", "--flows", "3"], 2),
        (
            &["mixed", "out.pcap", "--mean-gap-ms", "18446744073709552"],
            2,
        ),
    ] {
        let out = cli::run_in(&dir, SYNTHESIZE, args);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        let files: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
        assert!(files.is_empty(), "{args:?} wrote {files:?}");
    }
}

#[test]
fn help_lists_exactly_the_flags_each_mode_takes() {
    cli::check_help(SYNTHESIZE, &[]);
    cli::check_help(SYNTHESIZE, &["cloud"]);
    cli::check_help(SYNTHESIZE, &["mixed"]);
}
