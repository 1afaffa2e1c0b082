//! Order statistics and the output hash.

/// Median of `xs` (mean of the middle two for an even count). Panics on
/// an empty slice: every caller times at least one iteration.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The first decile of `xs`, interpolated between the sorted samples: the
/// wall time of an iteration the machine left alone. Interference from the
/// shared host only adds time, in bursts and in phases of minutes; over
/// sets of ten runs the first decile of a run's iteration walls repeated
/// about twice as closely as their median, and it does not hang on one
/// lucky iteration as the minimum does.
pub fn first_decile(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = 0.1 * (v.len() - 1) as f64;
    let lo = at as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), so spreads printed here match the
/// ones the acceptance procedure computes. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on the 1-based sorted sample, interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;
/// No tail is reported above this percentile, however many samples.
pub const TAIL_CAP: f64 = 0.95;

/// The tail of a timing sample: the highest percentile, no higher than
/// [`TAIL_CAP`], that still has [`TAIL_MIN_BEYOND`] samples beyond it
/// (nearest-rank). With too few samples for any tail above the median it
/// is the median. Returns `(percentile in 0..=1, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cap_rank = (TAIL_CAP * n as f64).ceil() as usize; // 1-based
    let supported_rank = n.saturating_sub(TAIL_MIN_BEYOND);
    let median_rank = n.div_ceil(2);
    let rank = cap_rank.min(supported_rank).max(median_rank).max(1);
    (rank as f64 / n as f64, v[rank - 1])
}

/// FNV-1a over output bytes: equal hashes across iterations, shard counts
/// and the staged/fused pair are the benchmark's byte-identity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 295 reports: p95 is rank 281, leaving 14 beyond.
        assert_eq!(tail(&xs(295)), (281.0 / 295.0, 281.0));
        // 100 samples: p95 would leave 5; p90 leaves exactly 10.
        assert_eq!(tail(&xs(100)), (0.90, 90.0));
        // 24 iterations: rank 14 leaves 10 beyond.
        assert_eq!(tail(&xs(24)), (14.0 / 24.0, 14.0));
        // Too few for any tail: the median.
        assert_eq!(tail(&xs(12)), (0.5, 6.0));
        assert_eq!(tail(&xs(1)), (1.0, 1.0));
        // Plenty of samples: capped at p95, never the maximum.
        assert_eq!(tail(&xs(10_000)).0, 0.95);
    }

    #[test]
    fn first_decile_interpolates_and_survives_short_samples() {
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(first_decile(&xs), 2.0);
        assert_eq!(first_decile(&[4.0, 2.0, 3.0]), 2.2);
        assert_eq!(first_decile(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.update(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv::new();
        h2.update(b"foo");
        h2.update(b"bar");
        assert_eq!(h2.0, 0x8594_4171_f739_67e8);
    }
}
