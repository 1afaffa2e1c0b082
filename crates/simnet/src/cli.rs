//! One command-line argument reader for every binary in the workspace.
//!
//! Each command declares its flags twice over, in its help text and in
//! one `match` over [`Args::next_flag`]; everything else is decided
//! here, so every command behaves the same:
//!
//! * flags and positionals come in any order, and a flag's value is the
//!   argument after it;
//! * any other `-`-prefixed argument is a flag, so a typo is an unknown
//!   option rather than a file name; a bare `-` (stdin) is a positional;
//! * `--help` or `-h` anywhere prints the help text to stdout and exits 0;
//! * every mistake prints one line to stderr naming the flag and what it
//!   expected, with a "try --help" hint, and exits 2.
//!
//! ```no_run
//! use simnet::cli::Args;
//!
//! let mut cli = Args::new("demo", "usage: demo [--n N] FILE...\n", std::env::args().skip(1));
//! let mut n = 1u32;
//! while let Some(flag) = cli.next_flag() {
//!     match flag.as_str() {
//!         "--n" => n = cli.value(&flag, "N"),
//!         _ => cli.unknown(&flag),
//!     }
//! }
//! let files = cli.positionals();
//! ```

use std::fmt::Display;
use std::io::Write;
use std::str::FromStr;

use crate::time::SimDuration;

/// Why parsing ends the process.
#[derive(Debug, PartialEq)]
enum Stop {
    /// `--help` or `-h`: print the help text, exit 0.
    Help,
    /// A usage error, described without the command name or the hint.
    Usage(String),
}

/// The arguments of one command, read flag by flag.
#[derive(Debug)]
pub struct Args {
    command: &'static str,
    help: &'static str,
    rest: std::vec::IntoIter<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Read `args` (without the program name) for `command`, the name
    /// errors are prefixed with (`"tapo live"`); `help` is printed as is
    /// on `--help`.
    pub fn new(
        command: &'static str,
        help: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Self {
        Args {
            command,
            help,
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
            positionals: Vec::new(),
        }
    }

    /// The next flag, setting positionals aside for [`Self::positionals`];
    /// `None` once the arguments run out. Exits on `--help`.
    pub fn next_flag(&mut self) -> Option<String> {
        self.try_next_flag().unwrap_or_else(|stop| self.exit(stop))
    }

    /// The value after `flag`, parsed as a `T`; `what` names the value it
    /// expects (`"N"`, `"milliseconds"`) for the error if it is missing or
    /// does not parse.
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        self.try_value(flag, what)
            .unwrap_or_else(|stop| self.exit(stop))
    }

    /// The value after `flag`, a count of milliseconds parsed as a `T`
    /// (`what` as for [`Self::value`]), as a duration; a count whose
    /// microseconds overflow `u64` is a usage error naming the flag.
    pub fn millis<T: FromStr + Into<u64>>(&mut self, flag: &str, what: &str) -> SimDuration {
        self.try_millis::<T>(flag, what)
            .unwrap_or_else(|stop| self.exit(stop))
    }

    /// The value after `flag`, which must be one of the names in
    /// `choices`; returns the value paired with that name.
    pub fn pick<T: Copy>(&mut self, flag: &str, choices: &[(&str, T)]) -> T {
        self.try_pick(flag, choices)
            .unwrap_or_else(|stop| self.exit(stop))
    }

    /// The positionals read so far, in order (all of them once
    /// [`Self::next_flag`] has returned `None`).
    pub fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positionals)
    }

    /// Reject `flag`, which the command does not take.
    pub fn unknown(&self, flag: &str) -> ! {
        self.exit(unknown(flag))
    }

    /// End the process with a usage error: `msg`, the hint, exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        self.exit(Stop::Usage(msg.to_string()))
    }

    fn try_next_flag(&mut self) -> Result<Option<String>, Stop> {
        for arg in self.rest.by_ref() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            }
            if arg.starts_with('-') && arg != "-" {
                return Ok(Some(arg));
            }
            self.positionals.push(arg);
        }
        Ok(None)
    }

    fn try_value<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, Stop> {
        let v = self.rest.next().ok_or_else(|| requires(flag, what, None))?;
        v.parse().map_err(|_| requires(flag, what, Some(&v)))
    }

    fn try_millis<T: FromStr + Into<u64>>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> Result<SimDuration, Stop> {
        let ms: u64 = self.try_value::<T>(flag, what)?.into();
        ms.checked_mul(1_000)
            .map(SimDuration::from_micros)
            .ok_or_else(|| Stop::Usage(format!("{flag} {ms} ms overflows")))
    }

    fn try_pick<T: Copy>(&mut self, flag: &str, choices: &[(&str, T)]) -> Result<T, Stop> {
        let names = || choices.iter().map(|c| c.0).collect::<Vec<_>>().join("|");
        let v = self
            .rest
            .next()
            .ok_or_else(|| requires(flag, &names(), None))?;
        choices
            .iter()
            .find(|c| c.0 == v)
            .map(|c| c.1)
            .ok_or_else(|| requires(flag, &names(), Some(&v)))
    }

    /// The stderr line of a usage error.
    fn error_line(&self, msg: &str) -> String {
        format!("{}: {msg} (try --help)", self.command)
    }

    fn exit(&self, stop: Stop) -> ! {
        match stop {
            Stop::Help => {
                // A closed stdout (`--help | head -1`) is not an error.
                let mut out = std::io::stdout().lock();
                let _ = out
                    .write_all(self.help.as_bytes())
                    .and_then(|()| out.flush());
                std::process::exit(0)
            }
            Stop::Usage(msg) => {
                eprintln!("{}", self.error_line(&msg));
                std::process::exit(2)
            }
        }
    }
}

fn unknown(flag: &str) -> Stop {
    Stop::Usage(format!("unknown option {flag}"))
}

fn requires(flag: &str, what: &str, got: Option<&str>) -> Stop {
    Stop::Usage(match got {
        Some(v) => format!("{flag} requires {what}, got {v:?}"),
        None => format!("{flag} requires {what}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: u32,
        on: bool,
        mode: char,
        gap: SimDuration,
        files: Vec<String>,
    }

    /// A small command, `demo [--n N] [--on] [--mode a|b] [--gap MS] FILE...`,
    /// parsed through the non-exiting paths the public methods wrap.
    fn parse(args: &[&str]) -> Result<Demo, Stop> {
        let mut cli = Args::new("demo", "usage: demo\n", args.iter().map(|a| a.to_string()));
        let (mut n, mut on, mut mode, mut gap) = (1, false, 'a', SimDuration::ZERO);
        while let Some(flag) = cli.try_next_flag()? {
            match flag.as_str() {
                "--n" => n = cli.try_value(&flag, "N")?,
                "--on" => on = true,
                "--mode" => mode = cli.try_pick(&flag, &[("a", 'a'), ("b", 'b')])?,
                "--gap" => gap = cli.try_millis::<u64>(&flag, "MS")?,
                _ => return Err(unknown(&flag)),
            }
        }
        let files = cli.positionals();
        Ok(Demo {
            n,
            on,
            mode,
            gap,
            files,
        })
    }

    fn usage(args: &[&str]) -> String {
        match parse(args) {
            Err(Stop::Usage(msg)) => msg,
            other => panic!("{args:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn flags_and_positionals_mix_in_any_order() {
        let d = parse(&["a.pcap", "--n", "3", "b.pcap", "--on"]).unwrap();
        assert_eq!(d.n, 3);
        assert!(d.on);
        assert_eq!(d.files, ["a.pcap", "b.pcap"]);
        // A flag after a positional is still a flag, not a file name.
        assert_eq!(parse(&["a.pcap", "--on"]).unwrap().files, ["a.pcap"]);
    }

    #[test]
    fn unknown_flags_are_named() {
        assert_eq!(usage(&["a.pcap", "--bogus"]), "unknown option --bogus");
        // A `-`-prefixed positional is an option, not a file name.
        assert_eq!(usage(&["-x"]), "unknown option -x");
    }

    #[test]
    fn a_lone_dash_is_a_positional() {
        let d = parse(&["-", "--on"]).unwrap();
        assert_eq!(d.files, ["-"]);
    }

    #[test]
    fn a_missing_value_names_the_flag_and_what_it_expected() {
        assert_eq!(usage(&["a.pcap", "--n"]), "--n requires N");
        assert_eq!(usage(&["--mode"]), "--mode requires a|b");
    }

    #[test]
    fn an_unparsable_value_is_quoted() {
        assert_eq!(usage(&["--n", "x"]), "--n requires N, got \"x\"");
        assert_eq!(usage(&["--n", "-1"]), "--n requires N, got \"-1\"");
        assert_eq!(usage(&["--mode", "c"]), "--mode requires a|b, got \"c\"");
        assert_eq!(parse(&["--mode", "b"]).unwrap().mode, 'b');
    }

    #[test]
    fn milliseconds_are_checked_for_overflow() {
        assert_eq!(
            parse(&["--gap", "250"]).unwrap().gap,
            SimDuration::from_millis(250)
        );
        let max = (u64::MAX / 1_000).to_string();
        assert_eq!(
            parse(&["--gap", &max]).unwrap().gap.as_micros(),
            u64::MAX / 1_000 * 1_000
        );
        assert_eq!(
            usage(&["--gap", "18446744073709552"]),
            "--gap 18446744073709552 ms overflows"
        );
        assert_eq!(usage(&["--gap", "x"]), "--gap requires MS, got \"x\"");
    }

    #[test]
    fn help_wins_wherever_it_appears() {
        assert_eq!(parse(&["a.pcap", "--n", "3", "--help"]), Err(Stop::Help));
        assert_eq!(parse(&["-h", "--bogus"]), Err(Stop::Help));
        // Arguments before `--help` are still checked in order.
        assert_eq!(
            parse(&["--bogus", "--help"]),
            Err(Stop::Usage("unknown option --bogus".into()))
        );
    }

    #[test]
    fn errors_carry_the_command_and_the_hint() {
        let cli = Args::new("demo sub", "", Vec::new());
        assert_eq!(
            cli.error_line("unknown option --x"),
            "demo sub: unknown option --x (try --help)"
        );
    }
}
