//! Deterministic parallel map over an index range.
//!
//! The flow engine shards work across threads, but every experiment must
//! produce *bit-identical* output at any thread count. [`par_map`]
//! guarantees that by construction: each index's work is an independent
//! closure call, results land in their index's slot, and the returned `Vec`
//! is always in index order — the thread schedule can only change timing,
//! never placement. Work is pulled from a shared atomic counter, so uneven
//! per-item cost (heavy-tailed flow sizes) still load-balances.
//!
//! Implemented with `std::thread::scope` and per-slot mutexes only — the
//! crate forbids `unsafe` and builds without external dependencies. Each
//! slot's mutex is locked exactly once (uncontended), so the cost per item
//! is a few atomic operations — negligible next to a flow simulation.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The parallelism to default to when the caller does not specify one:
/// `std::thread::available_parallelism()`, or 1 if it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Apply `f` to every index in `0..n` on up to `threads` worker threads and
/// return the results **in index order**. With `threads <= 1` (or `n <= 1`)
/// this runs inline on the caller's thread; the output is identical either
/// way, because each call of `f` depends only on its index.
///
/// Panics in `f` are propagated to the caller after the scope unwinds.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, threads, || (), |i, ()| f(i))
}

/// Indices claimed per atomic fetch in [`par_map_with`]: large enough to
/// amortize the shared counter and the per-chunk lock (and to keep adjacent
/// workers off adjacent slots — no false sharing on a hot slot array),
/// small enough that a heavy-tailed item at the end of the range still
/// load-balances across workers.
const CHUNK: usize = 16;

/// [`par_map`] with per-worker mutable scratch: every worker calls `init()`
/// once and then sees `&mut scratch` on each item it claims, so expensive
/// arenas (event queues, replay maps) are recycled across the thousands of
/// items a worker processes instead of being reallocated per item.
///
/// The bit-identical-at-any-thread-count guarantee of [`par_map`] is
/// preserved **provided `f` leaves no observable state in the scratch** —
/// i.e. `f(i, s)` returns the same value whether `s` is fresh from `init()`
/// or recycled from any sequence of previous calls. Scratch users uphold
/// this by fully resetting recycled state on entry (see
/// `EventQueue::reset` and the scratch-hygiene differential tests); under
/// that contract, which indices share a scratch (the thread schedule) can
/// change timing but never results, and results always land in index order.
///
/// Work is claimed in chunks of [`CHUNK`] consecutive indices from the
/// shared counter, cutting per-item atomic traffic by the chunk width; one
/// result vector per chunk means one uncontended lock per chunk instead of
/// one per item. With `threads <= 1` (or `n <= 1`) the whole range runs
/// inline on the caller's thread against a single scratch — exactly what a
/// one-worker schedule would do.
///
/// Panics in `f` are propagated to the caller after the scope unwinds.
pub fn par_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(i, &mut scratch)).collect();
    }

    let n_chunks = n.div_ceil(CHUNK);
    let slots: Vec<Mutex<Vec<T>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let start = c * CHUNK;
                    let end = (start + CHUNK).min(n);
                    let mut buf = Vec::with_capacity(end - start);
                    for i in start..end {
                        buf.push(f(i, &mut scratch));
                    }
                    // Each chunk is claimed exactly once, so the slot is free.
                    *slots[c].lock().expect("chunk lock") = buf;
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let chunk = slot.into_inner().expect("chunk lock");
        debug_assert!(!chunk.is_empty(), "every chunk was claimed");
        out.extend(chunk);
    }
    debug_assert_eq!(out.len(), n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = par_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let serial = par_map(257, 1, |i| {
            let mut rng = crate::rng::SimRng::seed(i as u64);
            rng.next_u64()
        });
        for threads in [2, 3, 8] {
            let parallel = par_map(257, threads, |i| {
                let mut rng = crate::rng::SimRng::seed(i as u64);
                rng.next_u64()
            });
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 4, |i| i + 1), vec![1]);
        assert_eq!(par_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn scratch_map_preserves_index_order_across_thread_counts() {
        // A well-behaved f (resets its scratch on entry) must produce
        // identical output at any thread count, chunk boundaries included.
        let reference: Vec<u64> = (0..1000u64).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 33] {
            let out = par_map_with(1000, threads, Vec::<u64>::new, |i, scratch| {
                scratch.clear(); // full reset: no state leaks between items
                scratch.extend([i as u64, i as u64 * 2]);
                scratch.iter().sum::<u64>() + 1
            });
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // Serial path: one scratch across the whole range.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let out = par_map_with(
            10,
            1,
            || {
                calls.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |i, seen| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one scratch for the range");
        // The scratch visibly accumulates across calls within the worker.
        assert_eq!(out.last(), Some(&(9, 10)));
    }

    #[test]
    fn scratch_map_handles_empty_tiny_and_chunk_edges() {
        assert_eq!(par_map_with(0, 4, || (), |i, ()| i), Vec::<usize>::new());
        for n in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK] {
            let out = par_map_with(n, 4, || (), |i, ()| i);
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }
}
