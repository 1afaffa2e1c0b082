//! Timer wheel for flow deadline eviction.
//!
//! The same calendar-queue geometry as the simulator's event scheduler — a
//! ring of fixed-width time buckets plus an overflow heap for deadlines
//! beyond the ring's span — applied to flow lifecycle timers (idle timeout,
//! FIN linger). Near deadlines cost O(1) to schedule and fire; far ones
//! (the common 60 s idle timeout against a ~67 s span) sit in the heap and
//! migrate into the ring as the cursor approaches.
//!
//! Timers are **lazy**: an entry is never cancelled or updated in place.
//! Each shard engine owns one wheel covering exactly its own flows; it
//! stamps each flow slot with its authoritative deadline and a generation
//! counter, and when an entry fires it revalidates against the slot and
//! either ignores it (stale), reschedules at the true deadline (pushed
//! back by later activity), or evicts. This keeps the common per-packet
//! path — deadline pushed further out — allocation- and search-free, and
//! timers advance only on the owning shard's own packet/cut timeline, so
//! firing order is deterministic at any shard count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(deadline_us, slot, generation)` — ordering by deadline first.
pub type TimerEntry = (u64, u32, u32);

/// Ring-and-heap timer queue over microsecond deadlines.
#[derive(Debug)]
pub struct TimerWheel {
    /// Width of one ring bucket in microseconds.
    width_us: u64,
    /// The ring; bucket `cursor` covers `[base_us, base_us + width_us)`.
    buckets: Vec<Vec<TimerEntry>>,
    base_us: u64,
    cursor: usize,
    /// Deadlines at or beyond `base_us + span`.
    far: BinaryHeap<Reverse<TimerEntry>>,
    len: usize,
    /// Nothing fires and no bucket turns before this instant: at most the
    /// end of the current bucket's window and at most every pending
    /// deadline (`u64::MAX` while empty). Lets the per-packet
    /// [`TimerWheel::advance_into`] return on one compare instead of
    /// rescanning the current bucket.
    quiet_until_us: u64,
}

impl TimerWheel {
    /// A wheel of `nbuckets` buckets of `width_us` each, starting at t=0.
    pub fn new(width_us: u64, nbuckets: usize) -> Self {
        assert!(width_us > 0 && nbuckets > 0);
        TimerWheel {
            width_us,
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            base_us: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            len: 0,
            quiet_until_us: u64::MAX,
        }
    }

    /// Default geometry: 1024 buckets × ~65 ms ≈ 67 s span, sized so the
    /// default 60 s idle timeout lands in the ring once within one span.
    pub fn with_default_geometry() -> Self {
        TimerWheel::new(1 << 16, 1024)
    }

    fn span_us(&self) -> u64 {
        self.width_us * self.buckets.len() as u64
    }

    /// Pending entries (including stale ones not yet fired).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry. Deadlines already in the past fire on the next
    /// [`TimerWheel::advance_into`].
    pub fn schedule(&mut self, e: TimerEntry) {
        self.len += 1;
        self.quiet_until_us = self
            .quiet_until_us
            .min(e.0)
            .min(self.base_us + self.width_us);
        if e.0 >= self.base_us + self.span_us() {
            self.far.push(Reverse(e));
            return;
        }
        let ahead = (e.0.saturating_sub(self.base_us) / self.width_us) as usize;
        let idx = (self.cursor + ahead) % self.buckets.len();
        self.buckets[idx].push(e);
    }

    fn refill_from_far(&mut self) {
        let horizon = self.base_us + self.span_us();
        while let Some(&Reverse(e)) = self.far.peek() {
            if e.0 >= horizon {
                break;
            }
            self.far.pop();
            let ahead = (e.0.saturating_sub(self.base_us) / self.width_us) as usize;
            let idx = (self.cursor + ahead) % self.buckets.len();
            self.buckets[idx].push(e);
        }
    }

    /// Move time forward to `now_us`, appending every entry with
    /// `deadline ≤ now_us` to `out` (deadline order is *not* guaranteed —
    /// callers revalidate against authoritative per-slot state anyway).
    /// Collecting into a caller buffer (rather than a callback) lets the
    /// caller reschedule stale entries while draining.
    #[inline]
    pub fn advance_into(&mut self, now_us: u64, out: &mut Vec<TimerEntry>) {
        if now_us < self.quiet_until_us || now_us < self.base_us {
            return;
        }
        self.advance_slow(now_us, out);
    }

    fn advance_slow(&mut self, now_us: u64, out: &mut Vec<TimerEntry>) {
        // Whole buckets whose window has fully passed.
        while self.base_us + self.width_us <= now_us {
            // Every ring bucket empty (all pending entries are in `far`):
            // fast-forward in O(1) instead of walking buckets one by one.
            // Without this, the first advance on a capture with epoch
            // timestamps would step through ~10^10 empty 65 ms windows.
            if self.len == self.far.len() {
                let target = match self.far.peek() {
                    Some(&Reverse(e)) => now_us.min(e.0),
                    None => now_us,
                };
                let skip = (target - self.base_us) / self.width_us;
                self.base_us += skip * self.width_us;
                self.refill_from_far();
                if self.len == self.far.len() {
                    break; // still nothing within the ring span
                }
                continue;
            }
            let mut bucket = std::mem::take(&mut self.buckets[self.cursor]);
            self.len -= bucket.len();
            out.append(&mut bucket);
            self.buckets[self.cursor] = bucket; // keep the allocation
            self.cursor = (self.cursor + 1) % self.buckets.len();
            self.base_us += self.width_us;
            self.refill_from_far();
        }
        // Due entries inside the current (partially elapsed) bucket; the
        // earliest one left behind bounds the next quiet stretch.
        let mut quiet = u64::MAX;
        let cur = &mut self.buckets[self.cursor];
        let mut i = 0;
        while i < cur.len() {
            if cur[i].0 <= now_us {
                out.push(cur.swap_remove(i));
                self.len -= 1;
            } else {
                quiet = quiet.min(cur[i].0);
                i += 1;
            }
        }
        // Far entries can be due directly after a large time jump.
        while let Some(&Reverse(e)) = self.far.peek() {
            if e.0 > now_us {
                quiet = quiet.min(e.0);
                break;
            }
            self.far.pop();
            self.len -= 1;
            out.push(e);
        }
        if self.len > 0 {
            quiet = quiet.min(self.base_us + self.width_us);
        }
        self.quiet_until_us = quiet;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_sorted(w: &mut TimerWheel, now: u64) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        w.advance_into(now, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn fires_due_entries_only() {
        let mut w = TimerWheel::new(100, 8);
        w.schedule((250, 1, 0));
        w.schedule((50, 2, 0));
        w.schedule((800_000, 3, 0)); // far beyond the ring span
        assert_eq!(w.len(), 3);
        assert_eq!(drain_sorted(&mut w, 60), vec![(50, 2, 0)]);
        assert_eq!(drain_sorted(&mut w, 249), vec![]);
        assert_eq!(drain_sorted(&mut w, 250), vec![(250, 1, 0)]);
        assert_eq!(w.len(), 1);
        assert_eq!(drain_sorted(&mut w, 1_000_000), vec![(800_000, 3, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_entries_migrate_through_the_ring() {
        let mut w = TimerWheel::new(100, 4); // span = 400
        w.schedule((1_050, 7, 3));
        // Creep forward in steps smaller than the span; entry must fire
        // exactly once, at the right time.
        let mut fired = Vec::new();
        for now in (0..=1_200).step_by(150) {
            w.advance_into(now, &mut fired);
            if now < 1_050 {
                assert!(fired.is_empty(), "fired early at {now}");
            }
        }
        assert_eq!(fired, vec![(1_050, 7, 3)]);
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut w = TimerWheel::new(100, 8);
        let mut out = Vec::new();
        w.advance_into(5_000, &mut out); // move time forward first
        w.schedule((10, 1, 0)); // already past
        w.advance_into(5_000, &mut out);
        assert_eq!(out, vec![(10, 1, 0)]);
    }

    #[test]
    fn epoch_timestamps_advance_in_constant_time() {
        // Real tcpdump captures carry epoch timestamps (~1.75e15 us in
        // 2025). The first advance from base 0 must fast-forward over the
        // ~10^10 empty buckets, not walk them one by one.
        let mut w = TimerWheel::with_default_geometry();
        let epoch = 1_754_000_000_000_000u64;
        w.schedule((epoch + 60_000_000, 1, 0));
        let mut out = Vec::new();
        let t0 = std::time::Instant::now();
        w.advance_into(epoch, &mut out);
        assert!(out.is_empty(), "not due yet");
        w.advance_into(epoch + 60_000_000, &mut out);
        assert_eq!(out, vec![(epoch + 60_000_000, 1, 0)]);
        assert!(w.is_empty());
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "advance over empty span must be O(1), took {:?}",
            t0.elapsed()
        );
        // And scheduling keeps working at the new base.
        w.schedule((epoch + 60_010_000, 2, 0));
        w.advance_into(epoch + 60_020_000, &mut out);
        assert_eq!(out.last(), Some(&(epoch + 60_010_000, 2, 0)));
    }

    #[test]
    fn fast_forward_over_gap_between_entries() {
        // Two entries separated by a gap far larger than the ring span:
        // after the first fires, the walk to the second must also jump.
        let mut w = TimerWheel::new(100, 4); // span = 400
        w.schedule((50, 1, 0));
        w.schedule((10_000_000_000, 2, 0));
        let mut out = Vec::new();
        w.advance_into(60, &mut out);
        assert_eq!(out, vec![(50, 1, 0)]);
        out.clear();
        w.advance_into(9_999_999_999, &mut out);
        assert!(out.is_empty(), "second entry not due");
        w.advance_into(10_000_000_001, &mut out);
        assert_eq!(out, vec![(10_000_000_000, 2, 0)]);
        assert!(w.is_empty());
    }

    /// The quiet-stretch shortcut must never hide a due entry: at every
    /// step of a seeded schedule/advance walk (steps from sub-bucket to
    /// several spans, deadlines past, near and far) the wheel fires exactly
    /// the pending entries with `deadline <= now`.
    #[test]
    fn fires_exactly_the_due_set_at_every_step() {
        let mut rng: u64 = 0x77ee1;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut w = TimerWheel::new(100, 8); // span = 800
        let mut pending: Vec<TimerEntry> = Vec::new();
        let mut now = 0u64;
        for id in 0..4_000u32 {
            if next() % 3 != 0 {
                let d = (now + next() % 2_500).saturating_sub(next() % 300);
                w.schedule((d, id, 0));
                pending.push((d, id, 0));
            }
            now += match next() % 8 {
                0 => 0,
                1 => 1_000 + next() % 3_000,
                _ => next() % 40,
            };
            let mut due: Vec<TimerEntry> = pending.iter().copied().filter(|e| e.0 <= now).collect();
            pending.retain(|e| e.0 > now);
            due.sort_unstable();
            assert_eq!(drain_sorted(&mut w, now), due, "at now={now}");
            assert_eq!(w.len(), pending.len());
        }
    }

    #[test]
    fn many_entries_across_wrap() {
        let mut w = TimerWheel::new(10, 4); // tiny ring, lots of wrapping
        for i in 0..200u64 {
            w.schedule((i * 7, i as u32, 0));
        }
        let mut out = Vec::new();
        w.advance_into(2_000, &mut out);
        assert_eq!(out.len(), 200);
        out.sort_unstable();
        for (i, e) in out.iter().enumerate() {
            assert_eq!(*e, (i as u64 * 7, i as u32, 0));
        }
    }
}
