//! Checks shared by the binaries' command-line tests (`crates/*/tests/cli.rs`
//! include this file with `#[path]`, since a test can only run the
//! binaries of its own crate).

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

/// `bin args...` run to completion in `dir`.
pub fn run_in(dir: &Path, bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the binary")
}

/// `bin cmd... --help` (and `-h`) prints help to stdout, nothing to
/// stderr, and exits 0; and every flag the help lists is one the command
/// takes. Each flag goes back to the command with a junk value and an
/// unknown flag after it, so the command stops while parsing whatever
/// the flag takes (exit 2) and never gets to run.
pub fn check_help(bin: &str, cmd: &[&str]) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let help = run_in(dir, bin, &[cmd, &["--help"]].concat());
    assert!(
        help.status.success() && help.stderr.is_empty(),
        "{cmd:?} --help: {help:?}"
    );
    assert_eq!(
        run_in(dir, bin, &[cmd, &["-h"]].concat()).stdout,
        help.stdout
    );
    let text = String::from_utf8(help.stdout).expect("UTF-8 help");
    let flags: BTreeSet<&str> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2 && *w != "--help")
        .collect();
    assert!(!flags.is_empty(), "{cmd:?} --help lists no flags");
    for flag in flags {
        let out = run_in(dir, bin, &[cmd, &[flag, "x", "--no-such-flag"]].concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?} {flag} x: {err}");
        assert!(
            !err.contains(&format!("unknown option {flag} ")),
            "{cmd:?} --help lists {flag}, which the command rejects: {err}"
        );
    }
}
