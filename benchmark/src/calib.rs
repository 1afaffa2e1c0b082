//! A fixed piece of work that uses nothing of the repo's crates, timed next
//! to every iteration and every set-up, and the factor by which it says the
//! machine is off its reference speed.
//!
//! The shared host this benchmark runs on has phases, tens of seconds to
//! minutes long, in which all code runs up to twice as slowly (no steal time
//! shows and a hog on the guest's other vCPU changes nothing, so it is the
//! host's doing). Runs of one binary on one seed then read 15–30 % apart,
//! which no statistic inside a run can repair. The calibration slows down
//! with the workload, so a time divided by the factor stays put: logged
//! through such phases on one seed, quartile distance of the first-decile
//! wall fell from 26 % to 5 % (`live_heavy`), 9 % to 7 % (`engine_offline`),
//! 5 % to 4 % (`fleet_aggregate`), and was never wider than unnormalised.
//!
//! Two kernels, about 10 ms each, chosen to slow down as the pipelines do: a
//! recursive-descent parse of a nested document into an owned tree (bytes,
//! branches, many small allocations: the fleet and live side) and a
//! discrete-event loop over a binary heap with logarithms and powers (the
//! simulation side). A tight integer loop over a cache-resident table was
//! tried first and slowed by a tenth where the workloads slowed by half.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// What one calibration takes on the machine the baseline in `README.md`
/// was measured on, when that machine is left alone. Normalised times are
/// times on a machine of this speed.
pub const REFERENCE_S: f64 = 0.0206;

const DOC_BYTES: usize = 700_000;
const EVENTS: usize = 120_000;

enum Value {
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn lowercase(out: &mut Vec<u8>, x: &mut u64, len: u64) {
    for _ in 0..len {
        out.push(b'a' + (xorshift(x) % 26) as u8);
    }
}

/// One random value: a number, a string, or below depth four an array or
/// an object of up to eight more.
fn generate(out: &mut Vec<u8>, x: &mut u64, depth: u32) {
    match xorshift(x) % if depth >= 4 { 2 } else { 4 } {
        0 => out.extend_from_slice(
            format!("{}.{}", xorshift(x) % 100_000, xorshift(x) % 1000).as_bytes(),
        ),
        1 => {
            out.push(b'"');
            let len = xorshift(x) % 12 + 3;
            lowercase(out, x, len);
            out.push(b'"');
        }
        kind => {
            out.push(if kind == 2 { b'[' } else { b'{' });
            for i in 0..xorshift(x) % 8 + 1 {
                if i > 0 {
                    out.push(b',');
                }
                if kind == 3 {
                    out.push(b'"');
                    let len = xorshift(x) % 8 + 2;
                    lowercase(out, x, len);
                    out.extend_from_slice(b"\":");
                }
                generate(out, x, depth + 1);
            }
            out.push(if kind == 2 { b']' } else { b'}' });
        }
    }
}

/// Parses what [`generate`] wrote; the input is the benchmark's own, so
/// there is no error path.
fn parse(b: &[u8], pos: &mut usize) -> Value {
    match b[*pos] {
        b'"' => Value::Str(parse_str(b, pos)),
        open @ (b'[' | b'{') => {
            *pos += 1;
            let (mut items, mut members) = (Vec::new(), Vec::new());
            loop {
                if open == b'{' {
                    let key = parse_str(b, pos);
                    *pos += 1;
                    members.push((key, parse(b, pos)));
                } else {
                    items.push(parse(b, pos));
                }
                *pos += 1;
                if b[*pos - 1] != b',' {
                    return if open == b'{' {
                        Value::Obj(members)
                    } else {
                        Value::Arr(items)
                    };
                }
            }
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && (b[*pos].is_ascii_digit() || b[*pos] == b'.') {
                *pos += 1;
            }
            let digits = std::str::from_utf8(&b[start..*pos]).expect("ascii");
            Value::Num(digits.parse().expect("a number"))
        }
    }
}

fn parse_str(b: &[u8], pos: &mut usize) -> String {
    let start = *pos + 1;
    let len = b[start..]
        .iter()
        .position(|&c| c == b'"')
        .expect("closing quote");
    *pos = start + len + 1;
    String::from_utf8_lossy(&b[start..start + len]).into_owned()
}

fn walk(v: &Value, keys: &mut HashMap<String, u64>) -> f64 {
    match v {
        Value::Num(n) => *n,
        Value::Str(s) => s.len() as f64,
        Value::Arr(items) => items.iter().map(|v| walk(v, keys)).sum(),
        Value::Obj(members) => members
            .iter()
            .map(|(k, v)| {
                *keys.entry(k.clone()).or_default() += 1;
                walk(v, keys)
            })
            .sum(),
    }
}

/// Parse the document into a tree, walk it, count its keys.
fn parse_kernel(doc: &[u8]) -> f64 {
    let tree = parse(doc, &mut 0);
    let mut keys = HashMap::new();
    walk(&tree, &mut keys) + keys.len() as f64
}

/// 64 timers in flight: pop the earliest, draw its next firing from an
/// exponential gap and a power-law delay, push it back.
fn event_kernel() -> f64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..64)
        .map(|id| Reverse((xorshift(&mut x) % 1000, id)))
        .collect();
    let mut acc = 0.0f64;
    for _ in 0..EVENTS {
        let Reverse((now, id)) = heap.pop().expect("64 in flight");
        let u = (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - u).ln() * 700.0;
        let delay = 20.0 * (1.0 + u).powf(1.7) + (acc * 1e-9).exp();
        acc += delay / (1.0 + gap);
        heap.push(Reverse((now + 1 + (gap + delay) as u64, id)));
    }
    acc
}

pub struct Calibration {
    doc: Vec<u8>,
    /// What the two kernels compute: the same on every sample, or the work
    /// was not the same.
    checksum: (f64, f64),
    /// Seconds each sample took.
    samples: Vec<f64>,
}

impl Calibration {
    /// Builds the document and runs both kernels once, untimed.
    pub fn new() -> Self {
        let mut doc = vec![b'['];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        while doc.len() < DOC_BYTES {
            generate(&mut doc, &mut x, 0);
            doc.push(b',');
        }
        doc.extend_from_slice(b"0]");
        let checksum = (parse_kernel(&doc), event_kernel());
        Calibration {
            doc,
            checksum,
            samples: Vec::new(),
        }
    }

    /// Time both kernels once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let sums = (
            black_box(parse_kernel(&self.doc)),
            black_box(event_kernel()),
        );
        self.samples.push(t.elapsed().as_secs_f64());
        assert_eq!(sums, self.checksum, "calibration work changed");
    }

    /// How much slower than the reference the machine ran the samples taken
    /// since the last call (their first decile over [`REFERENCE_S`]); the
    /// samples are dropped. A time divided by this is that time at
    /// reference speed.
    pub fn factor(&mut self) -> f64 {
        let typical = stats::first_decile(&self.samples);
        println!(
            "calibration: {} samples, first decile {:.3} ms, median {:.3} ms, reference {:.1} ms: machine at {:.3} of reference speed",
            self.samples.len(),
            typical * 1e3,
            stats::median(&self.samples) * 1e3,
            REFERENCE_S * 1e3,
            REFERENCE_S / typical
        );
        self.samples.clear();
        typical / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_does_the_same_work_and_the_factor_resets() {
        let mut c = Calibration::new();
        assert!(c.doc.len() >= DOC_BYTES);
        // The tree is as wide as the document says: parsing consumed it all.
        let mut pos = 0;
        parse(&c.doc, &mut pos);
        assert_eq!(pos, c.doc.len());
        for _ in 0..3 {
            c.sample();
        }
        assert_eq!(c.samples.len(), 3);
        let f = c.factor();
        assert!(f.is_finite() && f > 0.0);
        assert!(c.samples.is_empty());
    }
}
