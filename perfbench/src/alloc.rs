//! A counting global allocator: live heap bytes, for `held_mb` and the
//! per-edge byte metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and keeps a running count of live bytes.
pub struct Counting {
    live: AtomicUsize,
}

impl Counting {
    pub const fn new() -> Self {
        Counting {
            live: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated and not yet freed, across all threads.
    pub fn live(&self) -> usize {
        // ordering: Relaxed — a statistic; no data is published through it.
        self.live.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the only addition
// is an atomic counter update that never touches the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `System.alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // ordering: Relaxed — statistic only.
            self.live.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            // ordering: Relaxed — statistic only.
            self.live.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator hands out only `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        // ordering: Relaxed — statistic only.
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // ordering: Relaxed — statistic only.
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.live.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_alloc_realloc_and_free() {
        let a = Counting::new();
        let layout = Layout::from_size_align(1000, 8).unwrap();
        // SAFETY: non-zero layout; the block is freed with the same layout
        // (after realloc, with the grown size) before the test ends.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.live(), 1000);
            let q = a.realloc(p, layout, 4000);
            assert!(!q.is_null());
            assert_eq!(a.live(), 4000);
            a.dealloc(q, Layout::from_size_align(4000, 8).unwrap());
        }
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn global_counter_sees_a_held_vec() {
        let before = crate::ALLOC.live();
        let v = vec![0u8; 1 << 20];
        let during = crate::ALLOC.live();
        drop(v);
        // Other test threads allocate concurrently, so allow slack, but a
        // held MiB must show.
        assert!(during >= before + (1 << 20) - (256 << 10));
    }
}
