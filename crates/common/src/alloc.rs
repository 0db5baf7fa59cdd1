//! The workspace's one allocation meter.
//!
//! A binary that wants heap numbers installs [`Counting`] as its global
//! allocator in two lines:
//!
//! ```text
//! #[global_allocator]
//! static METER: sintel_common::alloc::Counting = sintel_common::alloc::Counting;
//! ```
//!
//! It forwards every call to [`System`] and keeps one kind of counter,
//! per thread: bytes requested (`alloc`, `alloc_zeroed` and the new
//! size of a `realloc`), allocation events and the peak of the bytes
//! live at once, read around a closure with [`measure`]. The
//! allocation properties of the untrusted-bytes parsers, the
//! allocation-regression suite and the benchmark's memory column
//! (Figure 7a; each cell is measured on the worker that runs it) read
//! these.
//!
//! In a binary that does not install the meter every counter stays at
//! zero. [`budget`] is the one allocation bound the parser suites
//! assert.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting global allocator (see the module docs).
pub struct Counting;

/// This thread's counters since it started.
#[derive(Clone, Copy)]
struct ThreadCounts {
    bytes: u64,
    events: u64,
    /// Allocated minus freed on this thread: negative when it frees
    /// memory another thread allocated.
    live: i64,
    /// The highest `live` since the innermost running [`measure`] began.
    peak: i64,
}

thread_local! {
    // `const` init: creating the counters must not allocate, or the
    // allocator would recurse before the slot exists.
    static THREAD: Cell<ThreadCounts> =
        const { Cell::new(ThreadCounts { bytes: 0, events: 0, live: 0, peak: 0 }) };
}

/// Count one call: `requested` bytes asked for, `freed` bytes given
/// back; `event` for every call but a free.
fn record(requested: usize, freed: usize, event: bool) {
    // `try_with`: an allocation during thread teardown passes through
    // uncounted rather than aborting.
    let _ = THREAD.try_with(|cell| {
        let mut c = cell.get();
        c.bytes += requested as u64;
        c.events += u64::from(event);
        c.live += requested as i64 - freed as i64;
        c.peak = c.peak.max(c.live);
        cell.set(c);
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the meter only
// updates thread-local counters (which do not allocate) around it and
// never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record(layout.size(), 0, true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`; `ptr` came from `System` through this
        // allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(0, layout.size(), false);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record(layout.size(), 0, true);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // conditions on `new_size`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            record(new_size, layout.size(), true);
        }
        new_ptr
    }
}

/// What one thread allocated while [`measure`] ran a closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocated {
    /// Bytes requested: `alloc`, `alloc_zeroed` and the new size of a
    /// `realloc`.
    pub bytes: u64,
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`; frees are not
    /// events.
    pub events: u64,
    /// The most bytes live at once, over the level before the closure.
    pub peak_live: u64,
}

/// Run `f` and report what it allocated on this thread (zeros when the
/// meter is not installed). Work `f` hands to other threads does not
/// show. Calls nest: an inner `measure` leaves the outer one's peak
/// intact.
pub fn measure<R>(f: impl FnOnce() -> R) -> (Allocated, R) {
    let before = THREAD.with(Cell::get);
    THREAD.with(|cell| cell.set(ThreadCounts { peak: before.live, ..before }));
    let out = f();
    let after = THREAD.with(Cell::get);
    THREAD.with(|cell| cell.set(ThreadCounts { peak: after.peak.max(before.peak), ..after }));
    let allocated = Allocated {
        bytes: after.bytes - before.bytes,
        events: after.events - before.events,
        peak_live: (after.peak - before.live) as u64,
    };
    (allocated, out)
}

/// The allocation bound of every untrusted-bytes parser: decoding `len`
/// input bytes may request at most 1 KiB plus 32 bytes per input byte.
/// The slack covers fixed set-up; the factor covers a parsed tree, the
/// values built from it, geometric buffer growth and an error message
/// quoting the input. A parser that trusts a length field read from
/// its input exceeds it.
pub fn budget(len: usize) -> u64 {
    1024 + 32 * len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static METER: Counting = Counting;

    // SAFETY (every block below): the layouts have a nonzero size, each
    // pointer is checked non-null before use, and each block is freed
    // or reallocated once, with the layout it was allocated with.
    #[test]
    fn each_call_counts_its_bytes_and_one_event() {
        let small = Layout::from_size_align(1000, 8).expect("layout");
        let (a, ptr) = measure(|| unsafe { std::alloc::alloc(small) });
        assert!(!ptr.is_null());
        assert_eq!(a, Allocated { bytes: 1000, events: 1, peak_live: 1000 });

        let (a, ptr) = measure(|| unsafe { std::alloc::realloc(ptr, small, 3000) });
        assert!(!ptr.is_null());
        assert_eq!(a, Allocated { bytes: 3000, events: 1, peak_live: 2000 });

        let large = Layout::from_size_align(3000, 8).expect("layout");
        let (a, ()) = measure(|| unsafe { std::alloc::dealloc(ptr, large) });
        assert_eq!(a, Allocated { bytes: 0, events: 0, peak_live: 0 });

        let (a, ptr) = measure(|| unsafe { std::alloc::alloc_zeroed(small) });
        assert!(!ptr.is_null());
        assert_eq!(a, Allocated { bytes: 1000, events: 1, peak_live: 1000 });
        unsafe { std::alloc::dealloc(ptr, small) };
    }

    #[test]
    fn another_threads_allocations_do_not_show() {
        let big = 1 << 20;
        let (a, len) = measure(|| {
            std::thread::scope(|s| s.spawn(|| vec![1u8; big].len()).join().expect("join"))
        });
        assert_eq!(len, big);
        assert!(a.bytes < big as u64, "the worker's buffer showed here: {a:?}");
    }

    #[test]
    fn peak_live_sees_a_freed_temporary() {
        let (a, ()) = measure(|| drop(std::hint::black_box(vec![0u8; 4096])));
        assert!(a.peak_live >= 4096, "{a:?}");
        assert!(a.bytes >= 4096 && a.events >= 1, "{a:?}");
        // Nested: the inner call's temporary still counts for the outer.
        let (outer, ()) = measure(|| {
            let (inner, ()) = measure(|| drop(std::hint::black_box(vec![0u8; 8192])));
            assert!(inner.peak_live >= 8192, "{inner:?}");
        });
        assert!(outer.peak_live >= 8192, "{outer:?}");
    }

    #[test]
    fn budget_is_a_kibibyte_plus_32_bytes_per_input_byte() {
        assert_eq!(budget(0), 1024);
        assert_eq!(budget(100), 4224);
    }
}
