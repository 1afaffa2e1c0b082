//! Lazy timer heap for flow deadline eviction (idle timeout, FIN linger).
//!
//! Each shard engine owns one min-heap of `(deadline_us, slot, generation)`
//! entries covering exactly its own flows. Timers are **lazy**: an entry is
//! never cancelled or updated in place. The engine stamps each flow slot
//! with its authoritative deadline and a generation counter, and adds an
//! entry only when a flow's deadline moves *earlier* than its outstanding
//! one. A fired entry is revalidated against the slot and ignored (stale),
//! rescheduled at the true deadline (pushed back by later activity), or
//! evicts. So the per-packet path — deadline pushed further out — touches no
//! timer, and timers advance only on the owning shard's own packet/cut
//! timeline, so firing is deterministic at any shard count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(deadline_us, slot, generation)` — ordering by deadline first.
pub type TimerEntry = (u64, u32, u32);

/// Min-heap timer queue over microsecond deadlines.
#[derive(Debug, Default)]
pub struct TimerHeap {
    heap: BinaryHeap<Reverse<TimerEntry>>,
}

impl TimerHeap {
    /// Pending entries (including stale ones not yet fired).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert an entry. Deadlines already in the past fire on the next
    /// [`TimerHeap::advance_into`].
    pub fn schedule(&mut self, e: TimerEntry) {
        self.heap.push(Reverse(e));
    }

    /// Move time forward to `now_us`, appending every entry with
    /// `deadline ≤ now_us` to `out` in ascending entry order. Collecting
    /// into a caller buffer (rather than a callback) lets the caller
    /// reschedule stale entries while draining.
    #[inline]
    pub fn advance_into(&mut self, now_us: u64, out: &mut Vec<TimerEntry>) {
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.0 > now_us {
                break;
            }
            self.heap.pop();
            out.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_sorted(w: &mut TimerHeap, now: u64) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        w.advance_into(now, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn fires_due_entries_only() {
        let mut w = TimerHeap::default();
        w.schedule((250, 1, 0));
        w.schedule((50, 2, 0));
        w.schedule((800_000, 3, 0)); // far ahead
        assert_eq!(w.len(), 3);
        assert_eq!(drain_sorted(&mut w, 60), vec![(50, 2, 0)]);
        assert_eq!(drain_sorted(&mut w, 249), vec![]);
        assert_eq!(drain_sorted(&mut w, 250), vec![(250, 1, 0)]);
        assert_eq!(w.len(), 1);
        assert_eq!(drain_sorted(&mut w, 1_000_000), vec![(800_000, 3, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_deadline_fires_exactly_once_at_its_time() {
        let mut w = TimerHeap::default();
        w.schedule((1_050, 7, 3));
        // Creep forward in small steps; the entry must fire exactly once,
        // at the first advance at or past its deadline.
        let mut fired = Vec::new();
        for now in (0..=1_200).step_by(150) {
            w.advance_into(now, &mut fired);
            assert_eq!(fired.len(), usize::from(now >= 1_050), "at {now}");
        }
        assert_eq!(fired, vec![(1_050, 7, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut w = TimerHeap::default();
        let mut out = Vec::new();
        w.advance_into(5_000, &mut out); // move time forward first
        w.schedule((10, 1, 0)); // already past
        w.advance_into(5_000, &mut out);
        assert_eq!(out, vec![(10, 1, 0)]);
    }

    #[test]
    fn epoch_timestamps_advance_in_constant_time() {
        // Real tcpdump captures carry epoch timestamps (~1.75e15 us in
        // 2025). The first advance from t=0 must cost nothing extra.
        let mut w = TimerHeap::default();
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
            "advance to epoch time must be O(1), took {:?}",
            t0.elapsed()
        );
        // And scheduling keeps working at the new base.
        w.schedule((epoch + 60_010_000, 2, 0));
        w.advance_into(epoch + 60_020_000, &mut out);
        assert_eq!(out.last(), Some(&(epoch + 60_010_000, 2, 0)));
    }

    #[test]
    fn fast_forward_over_gap_between_entries() {
        // Two entries separated by a huge gap: after the first fires, the
        // second fires only once its own deadline is reached.
        let mut w = TimerHeap::default();
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

    /// At every step of a seeded schedule/advance walk (steps from zero to
    /// several milliseconds, deadlines past, near and far) the heap fires
    /// exactly the pending entries with `deadline <= now`, in ascending
    /// order.
    #[test]
    fn fires_exactly_the_due_set_at_every_step() {
        let mut rng: u64 = 0x77ee1;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut w = TimerHeap::default();
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
            let mut fired = Vec::new();
            w.advance_into(now, &mut fired);
            assert_eq!(fired, due, "at now={now}");
            assert_eq!(w.len(), pending.len());
        }
    }

    #[test]
    fn many_entries_across_wrap() {
        let mut w = TimerHeap::default();
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
