//! A counting global allocator for this crate's unit tests. It counts the
//! allocations (and reallocations) made on the thread that armed it, and
//! nothing else, so tests running side by side do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread since it armed, while armed.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a read and write of a const-initialised, destructor-free
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations it made
/// on this thread.
pub(crate) fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|n| n.set(Some(0)));
    let out = f();
    (out, COUNT.with(Cell::take).expect("armed above"))
}
