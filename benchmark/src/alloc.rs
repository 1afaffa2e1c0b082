//! Counting global allocator, feeding `peak_heap_mib` and every
//! `allocs_per_*` layer metric.
//!
//! Two sets of counters, kept apart because they cost differently:
//!
//! * allocations and bytes requested, per thread, in plain thread-local
//!   cells: about a nanosecond per allocation, so they are always on. A
//!   span's allocation count is the difference of two reads on the thread
//!   that ran it, which is how the staged iterations run.
//! * live heap and its high-water mark, process-wide, in atomics: four
//!   locked operations per allocate/free pair, which slowed the
//!   allocation-heavy fleet workload by a third when always on. They count
//!   only inside [`peak_during`], which wraps one *untimed* iteration.
//!
//! All atomics are statistics that publish no other data, hence `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

thread_local! {
    // Const-initialised and without destructors: reading them from inside
    // the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

static TRACK_LIVE: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since tracking was switched on. Goes
/// negative if memory from before is freed, hence signed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The process allocator: [`System`] plus the counters above.
pub struct Counting;

fn grew(by: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + by as u64));
    if TRACK_LIVE.load(Relaxed) {
        let live = LIVE.fetch_add(by as i64, Relaxed) + by as i64;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn shrank(by: usize) {
    if TRACK_LIVE.load(Relaxed) {
        LIVE.fetch_sub(by as i64, Relaxed);
    }
}

// SAFETY: every call forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made and bytes requested by the calling thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snap {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snap {
    pub fn now() -> Snap {
        Snap {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What this thread allocated between `earlier` and `self`.
    pub fn since(self, earlier: Snap) -> Snap {
        Snap {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Run `f` with live-heap tracking on, all threads counted; returns its
/// result and the most bytes by which live heap stood above the level at
/// entry. Not reentrant, and slows `f` down: call it around an iteration
/// that is not timed.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    TRACK_LIVE.store(true, Relaxed);
    let out = f();
    TRACK_LIVE.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_and_the_peak_they_reach() {
        let work = || {
            let v = std::hint::black_box(vec![0u8; 1 << 20]);
            drop(v);
            let w = std::hint::black_box(vec![0u8; 1 << 10]);
            drop(w);
        };
        let before = Snap::now();
        work();
        let d = Snap::now().since(before);
        assert_eq!(d.allocs, 2, "thread-local, so other tests cannot add to it");
        assert_eq!(d.bytes, (1 << 20) + (1 << 10));
        // The first buffer is freed before the second comes, so the mark
        // is its size. The live counters are process-wide and other tests
        // free memory meanwhile, which can hide one attempt's rise.
        assert!((0..50).any(|_| peak_during(work).1 >= 1 << 20));
    }
}
