//! `to_c_source` renders a program into one buffer: at most two allocations
//! per program (the buffer, and one growth if its size estimate was short),
//! whatever the generator or architecture, and a buffer not much larger
//! than the text it holds (the compile service caches it as is). Counted by
//! a global allocator, so the check is deterministic and gates in
//! `cargo test`.

mod bundled;

use hcg::core::emit::to_c_source;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn to_c_source_makes_at_most_two_allocations_per_program() {
    for (label, prog) in &bundled::bundled_programs() {
        let before = ALLOCS.with(Cell::get);
        let text = to_c_source(prog);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(allocs <= 2, "{label}: {allocs} allocations");
        assert!(
            2 * text.capacity() <= 3 * text.len(),
            "{label}: {} bytes reserved for {}",
            text.capacity(),
            text.len()
        );
    }
}
