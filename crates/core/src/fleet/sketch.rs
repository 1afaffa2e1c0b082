//! Deterministic mergeable quantile sketch for fleet aggregation.
//!
//! Fleet mode merges RTT and stall-duration distributions from N daemons
//! whose reports arrive in arbitrary order, and the hard requirement is
//! byte-identical output regardless of merge order or how the population
//! was partitioned across daemons and shards. Randomized compactor
//! sketches (KLL) and greedy tuple-compressing sketches (GK) cannot give
//! that: their internal state depends on insertion and merge order, so
//! `merge(a, b)` and `merge(b, a)` generally differ byte-for-byte even
//! when their *estimates* agree.
//!
//! [`QSketch`] instead uses deterministic logarithmic buckets
//! (DDSketch-style): a fixed global table of bucket lower bounds growing
//! by γ = 101/99 per bucket (relative half-width 1/99 ≈ 1.01%), an exact
//! zero bucket, and exact min/max for clamping. A value maps to exactly
//! one bucket independent of everything else in the sketch, so a sketch
//! is just a sparse counter vector and merging is bucket-wise addition —
//! a commutative, associative monoid homomorphism. Partitioning a stream
//! k ways, sketching each part, and merging gives *the same bytes* as
//! sketching the whole stream, which is what keeps live reports identical
//! across shard counts and fleet output identical across daemon arrival
//! order.
//!
//! Rank accuracy is exact at bucket granularity (quantile lookup walks
//! exact cumulative counts, so the returned bucket contains the true
//! nearest-rank element); value accuracy is the bucket half-width,
//! ≤ value/99 + 1 (the +1 absorbs integer rounding of the bounds table).

use std::sync::OnceLock;

use crate::json::{Cursor, Json, JsonError, Out};
use crate::report::key;

/// Bucket growth numerator: γ = GAMMA_NUM / GAMMA_DEN.
const GAMMA_NUM: u128 = 101;
/// Bucket growth denominator.
const GAMMA_DEN: u128 = 99;

/// The global bucket lower-bound table: `b₀ = 1`,
/// `bᵢ₊₁ = max(bᵢ + 1, ceil(bᵢ·γ))`, covering all of `u64`. Integer-only
/// construction makes the table identical on every platform. Bucket `i`
/// covers `[bᵢ, bᵢ₊₁)`; the last covers `[bₗₐₛₜ, u64::MAX]`.
fn bounds() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut v: Vec<u64> = vec![1];
        loop {
            let b = *v.last().expect("table is non-empty") as u128;
            let next = ((b * GAMMA_NUM).div_ceil(GAMMA_DEN)).max(b + 1);
            if next > u64::MAX as u128 {
                break;
            }
            v.push(next as u64);
        }
        assert!(v.len() <= u16::MAX as usize, "bucket index must fit u16");
        v
    })
}

/// Each octave `[2ᵏ, 2ᵏ⁺¹)` with `k ≥ 6` splits into `2^SLOT_BITS` equal
/// value ranges, its slots in [`slots()`].
const SLOT_BITS: u32 = 6;

/// The slot of `v > 0`: `v` itself below 64, else `(k − 5) << 6` for its
/// octave `k` plus the six bits below its leading one.
fn slot_of(v: u64) -> usize {
    let k = v.ilog2();
    let octave = (k.saturating_sub(SLOT_BITS - 1) as usize) << SLOT_BITS;
    octave | (v >> k.saturating_sub(SLOT_BITS)) as usize & ((1 << SLOT_BITS) - 1)
}

/// The bucket of each slot's lowest value: an index of where each octave
/// starts in [`bounds()`], refined 64 ways within the octave. From 64 on
/// every bucket is wider than a slot (`bᵢ₊₁ − bᵢ ≥ bᵢ·2/99 > 2ᵏ/64`), so a
/// slot meets at most two buckets; below 64 a slot is one value. 3 776
/// entries, where the bounds table holds 2 051.
fn slots() -> &'static [u16] {
    static SLOTS: OnceLock<Vec<u16>> = OnceLock::new();
    SLOTS.get_or_init(|| {
        let table = bounds();
        (0..=slot_of(u64::MAX))
            .map(|slot| {
                let lowest = match slot >> SLOT_BITS {
                    0 => (slot as u64).max(1),
                    octave => {
                        let k = octave as u32 + SLOT_BITS - 1;
                        let j = (slot & ((1 << SLOT_BITS) - 1)) as u64;
                        1 << k | j << (k - SLOT_BITS)
                    }
                };
                (table.partition_point(|&b| b <= lowest) - 1) as u16
            })
            .collect()
    })
}

/// Bucket index for a non-zero value: the largest `i` with `bᵢ ≤ v`.
/// `v`'s slot names the bucket of the slot's lowest value; `v` lies in it
/// or in the next one, so one comparison decides.
fn bucket_of(v: u64) -> u16 {
    debug_assert!(v > 0);
    let i = slots()[slot_of(v)];
    let next = bounds().get(i as usize + 1);
    i + u16::from(next.is_some_and(|&b| b <= v))
}

/// A deterministic mergeable quantile sketch over `u64` samples
/// (microseconds, in this codebase).
///
/// Merging is bucket-wise count addition: byte-exact commutative,
/// associative, and partition-invariant (see module docs). The canonical
/// serialized form is what [`QSketch::write_json`] encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QSketch {
    /// Exact count of zero-valued samples (zero has no log bucket).
    zero: u64,
    /// Total samples, including zeros.
    total: u64,
    /// Exact minimum sample (`u64::MAX` when empty).
    min: u64,
    /// Exact maximum sample (0 when empty).
    max: u64,
    /// Sparse non-zero bucket counts, sorted ascending by bucket index.
    buckets: Vec<(u16, u64)>,
}

impl Default for QSketch {
    fn default() -> Self {
        QSketch {
            zero: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

impl QSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QSketch::default()
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Record one sample.
    pub fn insert(&mut self, v: u64) {
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0 {
            self.zero += 1;
            return;
        }
        let idx = bucket_of(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Forget every sample, keeping the bucket storage for reuse.
    pub fn clear(&mut self) {
        self.buckets.clear();
        *self = QSketch {
            buckets: std::mem::take(&mut self.buckets),
            ..QSketch::default()
        };
    }

    /// Fold another sketch into this one. Bucket-wise addition: the result
    /// is byte-identical no matter how the population was split or in
    /// which order parts are merged.
    ///
    /// Both bucket lists are sorted, so this is a linear merge: one walk
    /// adds the counts of the buckets both hold and counts those only
    /// `other` holds; if there are any, the list grows once by that many
    /// and a second walk fills it from the back, where no unread bucket of
    /// `self` can be overwritten, until the last new bucket is in place.
    pub fn merge(&mut self, other: &QSketch) {
        self.zero += other.zero;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut i = 0;
        let mut fresh = 0;
        for &(idx, n) in &other.buckets {
            while self.buckets.get(i).is_some_and(|&(own, _)| own < idx) {
                i += 1;
            }
            match self.buckets.get_mut(i) {
                Some(own) if own.0 == idx => {
                    own.1 += n;
                    i += 1;
                }
                _ => fresh += 1,
            }
        }
        if fresh == 0 {
            return;
        }
        let mut mine = self.buckets.len();
        self.buckets.resize(mine + fresh, (0, 0));
        let mut out = self.buckets.len();
        for &(idx, n) in other.buckets.iter().rev() {
            while mine > 0 && self.buckets[mine - 1].0 > idx {
                mine -= 1;
                out -= 1;
                self.buckets[out] = self.buckets[mine];
            }
            out -= 1;
            if mine > 0 && self.buckets[mine - 1].0 == idx {
                // Summed by the first walk: it moves like the others.
                mine -= 1;
                self.buckets[out] = self.buckets[mine];
            } else {
                self.buckets[out] = (idx, n);
            }
            if out == mine {
                break;
            }
        }
    }

    /// Nearest-rank quantile estimate (same rank rule as
    /// [`crate::report::Cdf::quantile`]): the representative value of the
    /// bucket containing the element of rank `ceil(total·q)`. `None` when
    /// empty. Value error ≤ `true/99 + 1`; rank error is zero at bucket
    /// granularity.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64 * q).ceil() as u64)
            .saturating_sub(1)
            .min(self.total - 1);
        if rank < self.zero {
            return Some(0);
        }
        let mut cum = self.zero;
        for &(idx, n) in &self.buckets {
            cum += n;
            if rank < cum {
                let table = bounds();
                let lo = table[idx as usize];
                let hi = table
                    .get(idx as usize + 1)
                    .map_or(u64::MAX, |&b| b.saturating_sub(1));
                let rep = lo + (hi - lo) / 2;
                return Some(rep.clamp(self.min, self.max));
            }
        }
        // Unreachable when counts are consistent; fall back to max.
        Some(self.max)
    }

    /// Encode the canonical JSON form:
    /// `{"n":..,"zero":..,"min":..,"max":..,"b":[[i,c],..]}`. `min`
    /// serializes as 0 when empty so the wire form has no sentinel.
    pub fn write_json(&self, out: &mut Out) {
        let min = if self.total == 0 { 0 } else { self.min };
        out.begin_object();
        out.u64_members(&key::members(
            key::SKETCH_FIELDS,
            [self.total, self.zero, min, self.max],
        ));
        out.key(key::BUCKETS).begin_array();
        for &(i, n) in &self.buckets {
            out.begin_array();
            out.u64(u64::from(i));
            out.u64(n);
            out.end_array();
        }
        out.end_array();
        out.end_object();
    }

    /// The canonical JSON form, encoded, as a [`Json::Raw`].
    pub fn to_json(&self) -> Json {
        let mut out = Out::new();
        self.write_json(&mut out);
        Json::Raw(out.into_string())
    }

    /// Read the canonical JSON form back off `cur`, which stands at the
    /// sketch value. The value is consumed whatever it is; `Ok(None)` means
    /// well-formed JSON that is not a canonical sketch.
    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<Option<QSketch>, JsonError> {
        let (mut total, mut zero, mut min, mut max) = (None, None, None, None);
        let mut buckets = None;
        if cur.open_object()? {
            while let Some(name) = cur.key()? {
                match &*name {
                    key::N => cur.first(&mut total, Cursor::u64_or_skip)?,
                    key::ZERO => cur.first(&mut zero, Cursor::u64_or_skip)?,
                    key::MIN => cur.first(&mut min, Cursor::u64_or_skip)?,
                    key::MAX => cur.first(&mut max, Cursor::u64_or_skip)?,
                    key::BUCKETS => cur.first(&mut buckets, decode_buckets)?,
                    _ => cur.skip_value()?,
                }
            }
        }
        Ok((|| {
            QSketch::canonical(total??, zero??, min??, max??, buckets??)
        })())
    }

    /// The sketch a wire form describes, if that form is canonical: the
    /// zero count and the bucket counts add up to `n` (without overflow),
    /// and `min ≤ max` when `n > 0`. Every decoder builds through this one
    /// constructor, so they all refuse the same inconsistent sketches; the
    /// buckets come already checked by [`bucket`].
    pub(crate) fn canonical(
        total: u64,
        zero: u64,
        min: u64,
        max: u64,
        buckets: Vec<(u16, u64)>,
    ) -> Option<QSketch> {
        let counted = buckets
            .iter()
            .try_fold(zero, |sum, &(_, n)| sum.checked_add(n))?;
        if counted != total || (total > 0 && min > max) {
            return None;
        }
        Some(QSketch {
            zero,
            total,
            min: if total == 0 { u64::MAX } else { min },
            max,
            buckets,
        })
    }
}

#[cfg(test)]
impl QSketch {
    /// The merge this type shipped before the linear one, kept as its
    /// reference: a binary search and a `Vec::insert` per bucket of `other`.
    fn merge_reference(&mut self, other: &QSketch) {
        self.zero += other.zero;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
    }

    /// The canonical form read from a [`Json`] tree: the reference that
    /// `report::parse`'s differential tests hold [`QSketch::decode`] to.
    pub(crate) fn from_json(doc: &Json) -> Option<QSketch> {
        let total = doc.get(key::N)?.as_u64()?;
        let zero = doc.get(key::ZERO)?.as_u64()?;
        let min = doc.get(key::MIN)?.as_u64()?;
        let max = doc.get(key::MAX)?.as_u64()?;
        let mut buckets = Vec::new();
        for pair in doc.get(key::BUCKETS)?.items()? {
            let cells = pair.items()?;
            if cells.len() != 2 {
                return None;
            }
            buckets.push(bucket(
                buckets.last(),
                cells[0].as_u64()?,
                cells[1].as_u64()?,
            )?);
        }
        QSketch::canonical(total, zero, min, max, buckets)
    }
}

/// The pair `[idx, n]` of a canonical `b` array that follows `prev`: inside
/// the bounds table, a non-zero count, strictly ascending. `None` for any
/// other pair.
pub(crate) fn bucket(prev: Option<&(u16, u64)>, idx: u64, n: u64) -> Option<(u16, u64)> {
    let ascending = prev.is_none_or(|&(prev, _)| u64::from(prev) < idx);
    (idx < bounds().len() as u64 && n != 0 && ascending).then_some((idx as u16, n))
}

/// The `b` array: `[bucket, count]` pairs, strictly ascending by bucket,
/// every bucket inside the bounds table, no zero counts. Anything else is
/// not canonical (`None`).
fn decode_buckets(cur: &mut Cursor<'_>) -> Result<Option<Vec<(u16, u64)>>, JsonError> {
    if !cur.open_array()? {
        return Ok(None);
    }
    let mut buckets: Vec<(u16, u64)> = Vec::with_capacity(pair_hint(cur.rest()));
    let mut canonical = true;
    while cur.item()? {
        let mut cells = [None; 2];
        let mut len = 0usize;
        if let Some((idx, n)) = cur.plain_pair() {
            (cells, len) = ([Some(idx), Some(n)], 2);
        } else if cur.open_array()? {
            while cur.item()? {
                let cell = cur.u64_or_skip()?;
                if let Some(slot) = cells.get_mut(len) {
                    *slot = cell;
                }
                len += 1;
            }
        }
        match cells {
            [Some(idx), Some(n)] if len == 2 => match bucket(buckets.last(), idx, n) {
                Some(pair) => buckets.push(pair),
                None => canonical = false,
            },
            _ => canonical = false,
        }
    }
    Ok(canonical.then_some(buckets))
}

/// How many pairs the just-opened `b` array holds, read ahead without
/// validating: the `[` count up to the `]]` that ends a compact array of
/// pairs. Only a capacity hint — one exact allocation per sketch on the
/// emitters' output, a harmless guess on anything else.
pub(crate) fn pair_hint(rest: &str) -> usize {
    if rest.starts_with(']') {
        return 0;
    }
    let body = &rest.as_bytes()[..rest.find("]]").unwrap_or(0)];
    let pairs = body.iter().filter(|&&b| b == b'[').count();
    pairs.min(bounds().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 — the deterministic sample-stream generator for
    /// property tests (no external crates, no process entropy).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn stream(seed: u64, len: usize, shape: usize) -> Vec<u64> {
        let mut s = seed;
        let mut v: Vec<u64> = (0..len)
            .map(|_| {
                let r = splitmix64(&mut s);
                match shape {
                    0 => r % 1_000_000,                         // uniform µs up to 1s
                    1 => (r % 1_000) * 1_000,                   // clustered on ms grid
                    2 => r % 50,                                // tiny values + zeros
                    3 => 1 + (r % 8),                           // near the first buckets
                    _ => (r % 1_000_000_000).saturating_pow(1), // wide range
                }
            })
            .collect();
        if shape == 4 {
            v.sort_unstable(); // sorted arrival
        }
        if shape == 5 {
            v.sort_unstable_by(|a, b| b.cmp(a)); // reverse-sorted arrival
        }
        v
    }

    /// Decode one whole document holding a sketch.
    fn load(wire: &str) -> Option<QSketch> {
        let mut cur = Cursor::new(wire);
        let sketch = QSketch::decode(&mut cur).expect("well-formed JSON");
        cur.finish().expect("one document");
        sketch
    }

    fn sketch_of(samples: &[u64]) -> QSketch {
        let mut s = QSketch::new();
        for &v in samples {
            s.insert(v);
        }
        s
    }

    #[test]
    fn bounds_table_is_sane() {
        let t = bounds();
        assert_eq!(t[0], 1);
        assert!(
            t.len() <= u16::MAX as usize,
            "len {} overflows u16",
            t.len()
        );
        for w in t.windows(2) {
            assert!(w[1] > w[0], "bounds must be strictly increasing");
        }
        // Growth never exceeds γ by more than integer rounding.
        for w in t.windows(2) {
            let ceil_gamma = ((w[0] as u128 * GAMMA_NUM).div_ceil(GAMMA_DEN)) as u64;
            assert!(w[1] == ceil_gamma || w[1] == w[0] + 1);
        }
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        let t = bounds();
        for v in [1u64, 2, 3, 98, 99, 100, 101, 12345, u64::MAX / 2, u64::MAX] {
            let i = bucket_of(v) as usize;
            assert!(t[i] <= v, "bucket {i} lower bound {} > {v}", t[i]);
            if let Some(&next) = t.get(i + 1) {
                assert!(v < next, "{v} belongs above bucket {i}");
            }
        }
    }

    #[test]
    fn slot_lookup_equals_the_whole_table_search() {
        let t = bounds();
        let whole = |v: u64| (t.partition_point(|&b| b <= v) - 1) as u16;
        let mut values: Vec<u64> = (1..10_000).collect();
        for &b in t {
            values.extend([b - 1, b, b.saturating_add(1)]);
        }
        let mut s = 0x0c7a_e5ee;
        values.extend((0..100_000).map(|_| splitmix64(&mut s)));
        // Every slot's lowest value and the value below it.
        for k in 6..64 {
            for j in 0..1u64 << SLOT_BITS {
                let lowest = 1 << k | j << (k - SLOT_BITS);
                values.extend([lowest - 1, lowest]);
            }
        }
        values.push(u64::MAX);
        for v in values.into_iter().filter(|&v| v > 0) {
            assert_eq!(bucket_of(v), whole(v), "value {v}");
        }
    }

    #[test]
    fn rank_error_bound_holds_across_shapes_and_seeds() {
        for shape in 0..6 {
            for seed in [1u64, 7, 2015] {
                let mut samples = stream(seed ^ (shape as u64) << 32, 500, shape % 5);
                if shape == 4 {
                    samples.sort_unstable();
                }
                let sk = sketch_of(&samples);
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                for &q in &[0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    let idx = ((sorted.len() as f64 * q).ceil() as usize)
                        .saturating_sub(1)
                        .min(sorted.len() - 1);
                    let truth = sorted[idx];
                    let est = sk.quantile(q).expect("non-empty");
                    let tol = truth as f64 * 0.0102 + 1.0;
                    let err = (est as f64 - truth as f64).abs();
                    assert!(
                        err <= tol,
                        "shape {shape} seed {seed} q {q}: est {est} vs true {truth} (err {err} > tol {tol})"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_is_commutative_and_associative_bytewise() {
        let a = sketch_of(&stream(11, 300, 0));
        let b = sketch_of(&stream(22, 200, 1));
        let c = sketch_of(&stream(33, 100, 2));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.to_json().compact(),
            ba.to_json().compact(),
            "merge must be byte-commutative"
        );

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(
            ab_c.to_json().compact(),
            a_bc.to_json().compact(),
            "merge must be byte-associative"
        );
    }

    #[test]
    fn merge_is_partition_invariant() {
        // Sketching k disjoint partitions and merging must be byte-equal
        // to sketching the whole stream — the property that keeps live
        // reports identical across shard counts.
        let samples = stream(2015, 997, 0);
        let whole = sketch_of(&samples);
        for k in [2usize, 3, 7] {
            let mut parts: Vec<QSketch> = (0..k).map(|_| QSketch::new()).collect();
            for (i, &v) in samples.iter().enumerate() {
                parts[i % k].insert(v);
            }
            // Fold in reverse order on purpose — order must not matter.
            let mut merged = QSketch::new();
            for p in parts.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(
                merged.to_json().compact(),
                whole.to_json().compact(),
                "{k}-way partition must merge back to the same bytes"
            );
        }
    }

    #[test]
    fn linear_merge_equals_the_searched_merge() {
        let mut s = 0x5eed;
        let mut draw = |n: u64| splitmix64(&mut s) % n;
        // Empty, zero-only, and sketches over narrow, wide and shifted ranges.
        let mut pool = vec![QSketch::new(), sketch_of(&[0, 0, 0])];
        for _ in 0..60 {
            let (len, shape) = (draw(400) as usize, draw(5) as usize);
            let offset = draw(3) * 1_000_000;
            let samples: Vec<u64> = stream(draw(u64::MAX), len, shape)
                .into_iter()
                .map(|v| v + offset)
                .collect();
            pool.push(sketch_of(&samples));
        }
        // Disjoint and interleaved bucket sets, and one that absorbs another.
        pool.push(sketch_of(&[10, 30, 50, 70]));
        pool.push(sketch_of(&[20, 40, 60, 80]));
        pool.push(sketch_of(&[10, 20, 30, 40, 50, 60, 70, 80, 90]));
        pool.push(sketch_of(&[5_000_000, 9_000_000]));
        for a in &pool {
            for b in &pool {
                let (mut linear, mut searched) = (a.clone(), a.clone());
                linear.merge(b);
                searched.merge_reference(b);
                assert_eq!(linear, searched);
                assert_eq!(linear.to_json().compact(), searched.to_json().compact());
            }
            let mut twice = a.clone();
            twice.merge(a);
            assert_eq!(
                twice.buckets.len(),
                a.buckets.len(),
                "identical sets add nothing"
            );
        }
    }

    #[test]
    fn empty_and_singleton_edges() {
        let empty = QSketch::new();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);

        let mut one = QSketch::new();
        one.insert(777);
        assert_eq!(one.count(), 1);
        for &q in &[0.0, 0.5, 1.0] {
            assert_eq!(one.quantile(q), Some(777), "singleton clamps to itself");
        }

        let mut zeros = QSketch::new();
        zeros.insert(0);
        zeros.insert(0);
        zeros.insert(10);
        assert_eq!(zeros.quantile(0.5), Some(0));
        assert_eq!(zeros.quantile(1.0), Some(10));

        // Merging an empty sketch is the identity, both ways.
        let s = sketch_of(&stream(5, 50, 0));
        let mut left = s.clone();
        left.merge(&empty);
        assert_eq!(left.to_json().compact(), s.to_json().compact());
        let mut right = QSketch::new();
        right.merge(&s);
        assert_eq!(right.to_json().compact(), s.to_json().compact());
    }

    #[test]
    fn json_round_trip_is_exact() {
        for shape in 0..3 {
            let s = sketch_of(&stream(99, 200, shape));
            let wire = s.to_json().compact();
            let back = load(&wire).expect("canonical form loads");
            assert_eq!(back, s);
            assert_eq!(back.to_json().compact(), wire);
        }
        // Empty round-trips through the 0 sentinel substitution too.
        let e = QSketch::new();
        assert_eq!(load(&e.to_json().compact()).unwrap(), e);
    }

    #[test]
    fn decode_rejects_non_canonical_forms() {
        for bad in [
            r#"{"n":1,"zero":0,"min":5,"max":5}"#, // missing b
            r#"{"n":1,"zero":0,"min":5,"max":5,"b":[[1,1],[1,1]]}"#, // dup bucket
            r#"{"n":1,"zero":0,"min":5,"max":5,"b":[[9,1],[2,1]]}"#, // unsorted
            r#"{"n":1,"zero":0,"min":5,"max":5,"b":[[2,0]]}"#, // zero count
            r#"{"n":1,"zero":0,"min":5,"max":5,"b":[[70000,1]]}"#, // idx overflow
        ] {
            assert!(load(bad).is_none(), "accepted {bad}");
        }
    }
}
