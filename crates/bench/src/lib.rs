//! # bench-suite — the paper's evaluation as benchmarks
//!
//! Two self-contained bench targets (`harness = false`, no external
//! framework — the workspace builds fully offline):
//!
//! * `paper` — regenerates each table and figure of the evaluation at the
//!   quick scale and times the full pipeline behind it (synthesis →
//!   simulation → TAPO → aggregation), plus a serial-vs-parallel engine
//!   comparison. Run with `cargo bench -p bench-suite --bench paper`.
//! * `micro` — microbenchmarks of the substrates: per-flow simulation,
//!   trace analysis, pcap encode/decode and scoreboard operations.
//!
//! The library hosts the shared timing harness and dataset helper.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use experiments::{Dataset, Engine, Scale};

/// Build the shared quick-scale dataset once per bench process.
pub fn quick_dataset() -> Dataset {
    Dataset::build_streaming(Scale::quick(), &Engine::serial())
}

/// Minimal timing harness: adaptive iteration count, median-of-batches
/// reporting, optional substring filter from the command line (the
/// arguments `cargo bench` forwards after `--`).
pub struct Harness {
    filter: Option<String>,
    /// Target wall time per benchmark (split over batches).
    budget: Duration,
}

impl Harness {
    /// Parse the bench target's command line: the first non-flag argument
    /// is a substring filter on benchmark names. Flags (`--bench`, the
    /// target name Cargo passes) are ignored.
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "paper" && a != "micro");
        Harness {
            filter,
            budget: Duration::from_millis(600),
        }
    }

    fn runs(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Time `f`, printing ns/iter (median of 5 batches) and spread.
    /// Returns the median per-iteration time, or `None` if filtered out.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Option<Duration> {
        self.bench_inner(name, None, &mut f)
    }

    /// Like [`Harness::bench`], additionally reporting `bytes`/s throughput.
    pub fn bench_bytes<T>(
        &self,
        name: &str,
        bytes: u64,
        mut f: impl FnMut() -> T,
    ) -> Option<Duration> {
        self.bench_inner(name, Some(("B", bytes)), &mut f)
    }

    /// Like [`Harness::bench`], additionally reporting `elems`/s throughput.
    pub fn bench_elems<T>(
        &self,
        name: &str,
        elems: u64,
        mut f: impl FnMut() -> T,
    ) -> Option<Duration> {
        self.bench_inner(name, Some(("elem", elems)), &mut f)
    }

    fn bench_inner<T>(
        &self,
        name: &str,
        throughput: Option<(&str, u64)>,
        f: &mut dyn FnMut() -> T,
    ) -> Option<Duration> {
        if !self.runs(name) {
            return None;
        }
        // Warm up and size the batch so each of the 5 batches runs for
        // roughly a fifth of the budget.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let per_batch = self.budget / 5;
        let iters = (per_batch.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut batches: Vec<Duration> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed() / iters as u32
            })
            .collect();
        batches.sort();
        let median = batches[2];
        let spread = batches[4].saturating_sub(batches[0]);
        let rate = throughput
            .map(|(unit, n)| {
                let per_sec = n as f64 / median.as_secs_f64().max(1e-12);
                format!("  {}/s", human_rate(per_sec, unit))
            })
            .unwrap_or_default();
        println!(
            "{name:<44} {:>12}/iter  (±{}, {iters} iters×5){rate}",
            human_time(median),
            human_time(spread),
        );
        Some(median)
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_args()
    }
}

/// Peak resident-set size of this process in bytes (the `VmHWM` high-water
/// mark from `/proc/self/status`). Returns `None` off Linux — the bench
/// reports it as a memory-footprint proxy, not a portable measurement.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn human_time(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn human_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.2}G{unit}", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2}M{unit}", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2}k{unit}", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}{unit}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_trivial_closure() {
        let h = Harness {
            filter: None,
            budget: Duration::from_millis(5),
        };
        let mut n = 0u64;
        let d = h.bench("trivial", || {
            n += 1;
            n
        });
        assert!(d.is_some());
    }

    #[test]
    fn harness_filter_skips_nonmatching() {
        let h = Harness {
            filter: Some("nomatch".into()),
            budget: Duration::from_millis(5),
        };
        assert!(h.bench("other", || 1).is_none());
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }

    #[test]
    fn human_units_format() {
        assert_eq!(human_time(Duration::from_nanos(500)), "500ns");
        assert_eq!(human_time(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(human_rate(2_500_000.0, "B"), "2.50MB");
    }
}
