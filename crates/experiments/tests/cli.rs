//! `repro` rejects what it does not know instead of running nothing, and
//! fails loudly when it cannot write its results.

#[path = "../../../tests/support/cli.rs"]
mod cli;

use std::path::Path;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn unknown_options_and_experiments_are_named_and_exit_2() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (args, named) in [
        (&["--qiuck"][..], "unknown option --qiuck"),
        (&["table3", "tabel1"], "unknown experiment tabel1"),
    ] {
        let out = cli::run_in(dir, REPRO, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn help_lists_exactly_the_flags_repro_takes() {
    cli::check_help(REPRO, &[]);
}

#[test]
fn a_failed_write_is_named_and_exits_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli");
    std::fs::create_dir_all(&dir).expect("create the test directory");
    // A regular file where the output directory should be.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "").expect("write the blocking file");
    let out = cli::run_in(&dir, REPRO, &["--quick", "--out", "not-a-dir", "fig2"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("repro: cannot write not-a-dir"), "{err}");
    assert!(!err.contains("CSV output written"), "{err}");
}
