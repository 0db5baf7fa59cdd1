//! Peak heap of one untimed pass of a workload's work.
//!
//! The process's peak resident set jitters by arenas the allocator
//! keeps for the program's short-lived watchdog threads, so the
//! benchmark counts live heap bytes instead (as the Figure 7a memory
//! column does). Counting is switched on only around a dedicated pass,
//! so the timed loops pay one relaxed load per allocation and share no
//! counter between threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
/// Net bytes allocated since counting started (frees of older blocks
/// can take it below zero).
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, with live-byte counting while switched on.
pub struct Counting;

fn grow(by: usize) {
    let now = NET.fetch_add(by as isize, Ordering::Relaxed) + by as isize;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(by: usize) {
    NET.fetch_sub(by as isize, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only updates atomic counters around it and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ON.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Ordering::Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` satisfies `realloc`'s
        // contract by the caller's guarantee.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && ON.load(Ordering::Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Run `pass` with counting on; returns its result and the peak of
/// live heap bytes it added, in MiB.
pub fn peak_of<T>(pass: impl FnOnce() -> T) -> (T, f64) {
    NET.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = pass();
    ON.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_peak_not_the_end() {
        let ((), mib) = peak_of(|| {
            let big = std::hint::black_box(vec![0u8; 4 << 20]);
            drop(big);
        });
        assert!(mib >= 4.0, "{mib}");
    }
}
