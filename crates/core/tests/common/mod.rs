//! A per-thread counting allocator shared by the hostile-input suites:
//! decoding a peer's bytes must hold no more than a small multiple of
//! them, whatever length prefixes they claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread currently holds, and the most it held since the
    /// last reset. Const-initialized and without a destructor, so the
    /// allocator can touch them at any point of a thread's life.
    static HELD: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.with(|h| {
            h.set(h.get() + layout.size());
            PEAK.with(|p| p.set(p.get().max(h.get())));
        });
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.with(|h| h.set(h.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak number of bytes this
/// thread held, beyond what it held on entry, while `f` ran.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = HELD.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}
