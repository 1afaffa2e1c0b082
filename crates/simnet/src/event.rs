//! The deterministic event queue.
//!
//! Events pop in ascending `(time, insertion sequence)` order; the secondary
//! key makes pop order deterministic even when many events share a
//! timestamp, which (with seeded RNGs) makes simulations bitwise
//! reproducible.
//!
//! The per-flow simulator keeps few events pending (31 on average at a pop
//! over a 3000-flow engine run), and 83 % of its pushes are link
//! deliveries, which arrive in time order per direction. So the queue is a
//! binary min-heap plus FIFO *lanes*: [`EventQueue::push_lane`] appends in
//! `O(1)` when the event is not earlier than its lane's tail and falls back
//! to the heap otherwise, and [`EventQueue::pop`] takes the least
//! `(time, seq)` among the heap top and the lane heads. The sequence counter
//! is global, so pop order is *exactly* that of one plain heap whatever the
//! caller pushes where — verified against a reference heap below. Lanes pay
//! off because payloads are fat (a queued `Segment` is >100 bytes) and every
//! heap sift moves them.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A pending event, ordered so the `BinaryHeap` max is the least
/// `(at, seq)`.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic queue of timestamped events.
///
/// Popping returns events in nondecreasing time order; ties are broken by
/// insertion order (FIFO among simultaneous events), across the heap and
/// every lane.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Each lane is sorted by `(at, seq)`: only appends that keep it so
    /// land here.
    lanes: Vec<VecDeque<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stamp `event` with its time and the next sequence number.
    ///
    /// Panics in debug builds if `at` is in the past — a simulation that
    /// schedules into the past has a logic error that must not be masked.
    /// The message reports how far behind the clock the event landed.
    fn entry(&mut self, at: SimTime, event: E) -> Entry<E> {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {} (event is {} behind the clock)",
            self.now,
            self.now.saturating_since(at),
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry {
            at: at.max(self.now),
            seq,
            event,
        }
    }

    /// Schedule `event` at absolute time `at` (debug builds panic if `at`
    /// is in the past).
    pub fn push(&mut self, at: SimTime, event: E) {
        let e = self.entry(at, event);
        self.heap.push(e);
    }

    /// Schedule `event` at `at` on FIFO lane `lane`: `O(1)` when `at` is
    /// not earlier than the lane's last event, a heap push otherwise. Pop
    /// order is the same as [`EventQueue::push`]'s either way.
    pub fn push_lane(&mut self, lane: usize, at: SimTime, event: E) {
        let e = self.entry(at, event);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let fifo = &mut self.lanes[lane];
        if fifo.back().is_none_or(|last| last.at <= e.at) {
            fifo.push_back(e);
        } else {
            self.heap.push(e);
        }
    }

    /// Where the next event is (`Some(lane)` or `None` for the heap) and
    /// its time; `None` when the queue is empty.
    fn next(&self) -> Option<(Option<usize>, SimTime)> {
        let mut best = self.heap.peek().map(|e| (None, e.key()));
        for (i, fifo) in self.lanes.iter().enumerate() {
            if let Some(e) = fifo.front() {
                if best.is_none_or(|(_, k)| e.key() < k) {
                    best = Some((Some(i), e.key()));
                }
            }
        }
        best.map(|(from, (at, _))| (from, at))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (from, _) = self.next()?;
        let e = match from {
            Some(lane) => self.lanes[lane].pop_front(),
            None => self.heap.pop(),
        }
        .expect("next() found an event");
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(_, at)| at)
    }

    /// Rewind the queue to the fresh state of [`EventQueue::new`] — clock
    /// and sequence counter at zero, no pending events — keeping the heap's
    /// and lanes' capacity for the next simulation. Pop order after
    /// `reset()` is bit-identical to a brand-new queue's.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reference implementation: one plain binary heap on
/// `Reverse<(at, seq)>`, every event pushed alike. Kept (test-only) as the
/// oracle for the differential tests — the heap-plus-lanes queue must
/// reproduce its pop order exactly, ties included.
#[cfg(test)]
mod reference {
    use super::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, WrapNoOrd<E>)>>,
        next_seq: u64,
        now: SimTime,
    }

    /// Shields the event payload from participating in heap ordering.
    pub struct WrapNoOrd<E>(pub E);
    impl<E> PartialEq for WrapNoOrd<E> {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }
    impl<E> Eq for WrapNoOrd<E> {}
    impl<E> PartialOrd for WrapNoOrd<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for WrapNoOrd<E> {
        fn cmp(&self, _: &Self) -> std::cmp::Ordering {
            std::cmp::Ordering::Equal
        }
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn push(&mut self, at: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap
                .push(Reverse((at.max(self.now), seq, WrapNoOrd(event))));
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((at, _, WrapNoOrd(event))) = self.heap.pop()?;
            self.now = at;
            Some((at, event))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.push(SimTime::from_millis(25), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(25));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        let (t, _) = q.pop().unwrap();
        q.push(t + SimDuration::from_millis(5), 2);
        q.push(t + SimDuration::from_millis(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn far_apart_events_pop_in_order() {
        // Events seconds to years apart, interleaved with near events and
        // with equal-time ties among the far ones.
        let mut q = EventQueue::new();
        let year = SimDuration::from_secs(365 * 24 * 3600);
        q.push(SimTime::ZERO + year + year, "far2");
        q.push(SimTime::from_millis(1), "near");
        q.push(SimTime::ZERO + year, "far1");
        q.push(SimTime::ZERO + year, "far1b");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far1");
        assert_eq!(q.pop().unwrap().1, "far1b");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_sees_heap_and_lane_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(10), "heap");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        q.push_lane(1, SimTime::from_millis(3), "lane");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lane_pushes_keep_global_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis;
        q.push_lane(0, t(10), "lane0 a");
        q.push_lane(0, t(20), "lane0 b");
        q.push_lane(0, t(15), "lane0 late, via heap");
        q.push(t(10), "heap tie");
        q.push_lane(1, t(10), "lane1 tie");
        q.push_lane(0, t(20), "lane0 c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                "lane0 a",
                "heap tie",
                "lane1 tie",
                "lane0 late, via heap",
                "lane0 b",
                "lane0 c",
            ]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event is 5.000ms behind the clock")]
    fn push_into_the_past_reports_time_delta() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event is 5.000ms behind the clock")]
    fn lane_push_into_the_past_reports_time_delta() {
        let mut q = EventQueue::new();
        q.push_lane(0, SimTime::from_millis(10), ());
        q.pop();
        q.push_lane(0, SimTime::from_millis(5), ());
    }

    /// Deterministic xorshift64* — good enough to generate adversarial
    /// schedules without pulling in an RNG dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// Where a random push goes: the heap (`None`) or one of three lanes.
    type Target = Option<usize>;

    /// Draw one push at or after the clock. Heap delays mix scales — ties
    /// (0), sub-millisecond, RTT-sized and multi-second jumps. Lane `l`
    /// mostly behaves like a link: its next event lands at or after both
    /// `now + l ms` and the lane's tail, plus jitter. One lane push in
    /// seven lands anywhere in the next 100 ms instead — usually before the
    /// tail, so it must fall back to the heap. Zero-delay pushes tie across
    /// lanes and the heap.
    fn draw_push(rng: &mut Rng, q: &EventQueue<u64>) -> (Target, SimTime) {
        let r = rng.next();
        let now = q.now();
        if r % 5 < 3 {
            let lane = (r % 5) as usize;
            if (r >> 8).is_multiple_of(7) {
                return (
                    Some(lane),
                    now + SimDuration::from_micros(rng.next() % 100_000),
                );
            }
            let tail = q
                .lanes
                .get(lane)
                .and_then(|f| f.back())
                .map_or(now, |e| e.at);
            let jitter = match (r >> 16) % 3 {
                0 => 0,
                1 => rng.next() % 3,
                _ => rng.next() % 1_000,
            };
            let floor = (now + SimDuration::from_millis(lane as u64)).max(tail);
            return (Some(lane), floor + SimDuration::from_micros(jitter));
        }
        let delay = match (r >> 8) % 7 {
            0 => 0,
            1 => rng.next() % 3,
            2 => rng.next() % 1_000,
            3 => rng.next() % 100_000,
            4 => rng.next() % 300_000,
            5 => rng.next() % 2_000_000,
            _ => 500_000 + rng.next() % 10_000_000,
        };
        (None, now + SimDuration::from_micros(delay))
    }

    fn push_to<E>(q: &mut EventQueue<E>, target: Target, at: SimTime, event: E) {
        match target {
            Some(lane) => q.push_lane(lane, at, event),
            None => q.push(at, event),
        }
    }

    #[test]
    fn reset_queue_is_indistinguishable_from_fresh() {
        // Run a random schedule (leaving heap and lane events pending),
        // reset, then run a second random schedule through both the
        // recycled queue and a brand-new one: pop sequences, clocks and
        // lengths must match exactly — including seq-numbered tie-breaks.
        for seed in 1..=10u64 {
            let mut recycled = EventQueue::new();
            let mut rng = Rng(seed);
            for _ in 0..500 {
                let r = rng.next();
                if !r.is_multiple_of(3) {
                    let (target, at) = draw_push(&mut rng, &recycled);
                    push_to(&mut recycled, target, at, r);
                } else {
                    recycled.pop();
                }
            }
            assert!(!recycled.is_empty(), "dirtying left events pending");
            recycled.reset();
            assert!(recycled.is_empty());
            assert_eq!(recycled.now(), SimTime::ZERO);
            assert_eq!(recycled.peek_time(), None);

            let mut fresh = EventQueue::new();
            let mut rng_a = Rng(seed.wrapping_mul(77));
            let mut rng_b = Rng(seed.wrapping_mul(77));
            let drive = |q: &mut EventQueue<u64>, rng: &mut Rng| {
                let mut popped = Vec::new();
                for _ in 0..2000 {
                    let r = rng.next();
                    if r % 100 < 60 {
                        let (target, at) = draw_push(rng, q);
                        push_to(q, target, at, r);
                    } else {
                        popped.push((q.pop(), q.len()));
                    }
                }
                while let Some(p) = q.pop() {
                    popped.push((Some(p), q.len()));
                }
                popped
            };
            let a = drive(&mut recycled, &mut rng_a);
            let b = drive(&mut fresh, &mut rng_b);
            assert_eq!(a, b, "reset-vs-fresh divergence for seed {seed}");
        }
    }

    #[test]
    fn differential_vs_binary_heap_reference() {
        // Identical random push/pop schedules through the queue (heap and
        // lane pushes mixed) and a plain BinaryHeap (every push alike) must
        // produce identical pop sequences — including FIFO order among
        // same-time ties across lanes and the heap.
        let (mut in_order, mut fell_back, mut ties) = (0, 0, 0);
        for seed in 1..=20u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut q = EventQueue::new();
            let mut heap = reference::HeapQueue::new();
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..4000 {
                if rng.next() % 100 < 60 {
                    let (target, at) = draw_push(&mut rng, &q);
                    if let Some(lane) = target {
                        match q.lanes.get(lane).and_then(|f| f.back()) {
                            Some(tail) if tail.at > at => fell_back += 1,
                            _ => in_order += 1,
                        }
                    }
                    if at == q.now() {
                        ties += 1;
                    }
                    push_to(&mut q, target, at, next_id);
                    heap.push(at, next_id);
                    next_id += 1;
                } else {
                    popped.extend(q.pop());
                    expected.extend(heap.pop());
                }
            }
            while let Some(p) = q.pop() {
                popped.push(p);
            }
            while let Some(p) = heap.pop() {
                expected.push(p);
            }
            assert_eq!(popped, expected, "divergence for seed {seed}");
            assert!(q.is_empty());
        }
        assert!(
            in_order > 10_000 && fell_back > 1_000 && ties > 1_000,
            "schedule misses a path: {in_order} in-order lane pushes, \
             {fell_back} fallbacks, {ties} ties at the clock"
        );
    }
}
