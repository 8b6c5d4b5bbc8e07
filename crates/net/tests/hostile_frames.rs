//! Hostile bytes at the socket seam: whatever a peer writes, `read_frame`
//! answers `Ok` or `Err` — it never panics — and the memory it holds
//! tracks the bytes that actually arrived, not the length a header claims.

use flexcast_net::{read_frame, MAX_FRAME};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

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
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = HELD.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// A header claiming the largest frame, then ten bytes and the end of the
/// stream: an error, holding one read chunk, not the 16 MiB claimed.
#[test]
fn a_lying_length_allocates_only_what_arrives() {
    let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xAB; 10]);
    let (res, peak) = peak_during(|| read_frame(&mut Cursor::new(&bytes)));
    assert!(res.is_err(), "{res:?}");
    assert!(peak > 0, "the counting allocator is installed");
    assert!(
        peak <= 128 * 1024,
        "{peak} bytes held for 14 bytes of input"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary streams, read frame by frame to the end: every call
    /// returns, and no body is longer than the stream.
    #[test]
    fn read_frame_survives_arbitrary_streams(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        small_len in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if small_len && bytes.len() >= 4 {
            // Make the first length plausible so bodies get read too.
            bytes[1..4].fill(0);
            bytes[0] %= 64;
        }
        let mut cur = Cursor::new(&bytes);
        while let Ok(Some(body)) = read_frame(&mut cur) {
            prop_assert!(body.len() <= bytes.len());
        }
    }
}
