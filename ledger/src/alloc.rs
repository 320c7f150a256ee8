//! A counting global allocator that exists only in the ledger binary.
//!
//! Counting is gated by one relaxed flag: the end-to-end runs leave it off,
//! so their only cost is one relaxed load per allocation. When on, every
//! thread counts its own allocations (and reallocations, which are counted
//! as one allocation of the new size) in thread-local cells, so a layer's
//! count is exactly what the calling thread allocated inside it — other
//! threads (daemon workers, parallel test threads) never leak in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator plus per-thread allocation counters.
pub struct Counting;

/// Whether counting is on. A statistic gate: it publishes no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised cells without destructors: touching them never
    // allocates, so they are safe to use from inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting side touches only
// thread-local `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from `System` as above; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off process-wide.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// This thread's `(allocations, bytes)` so far. Layers take the difference
/// of two snapshots.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_allocation_with_its_size() {
        // Counting is left on: parallel tests rely on it, and the flag
        // gates cost, not correctness.
        set_counting(true);
        let a = snapshot();
        let mut v: Vec<u64> = Vec::with_capacity(16);
        let b = snapshot();
        v.reserve_exact(32);
        let c = snapshot();
        drop(v);
        assert_eq!((b.0 - a.0, b.1 - a.1), (1, 128));
        assert_eq!((c.0 - b.0, c.1 - b.1), (1, 256), "a realloc counts once");
        assert_eq!(snapshot(), c, "frees are not counted");
    }
}
