//! A global allocator that can count: while counting is on, it tracks
//! the live heap bytes and their high-water mark.
//!
//! Counting is on only in the untimed heap pass. The resident set
//! (VmHWM) cannot stand in for it: at the engine's default 2 workers on
//! a 2-core host, serve-steady's VmHWM ranged from 40 to 81 MiB over ten
//! seeds (quartiles 28% of the median apart), most likely because of
//! glibc's per-thread arenas; live heap bytes repeat exactly. Counting
//! cannot stay on during the timed calls either: every allocation would
//! update one shared atomic, and on serve-drift, with about 1.8 million
//! allocations per call, two workers contending on it made calls three
//! times slower. Off, the allocator costs one relaxed load of a flag
//! that nothing writes while the calls are timed.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

// Plain statistics that publish no other data, hence `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting began. Freeing a
/// block allocated before that can take it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// [`System`] with optional live-byte accounting.
pub struct Counting;

fn grow(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result; the counters never influence a pointer or layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start counting from zero live bytes.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stop counting; returns the highest the live heap rose above its
/// level at [`start`], MiB.
pub fn stop() -> f64 {
    COUNTING.store(false, Relaxed);
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_live_allocation() {
        start();
        let block = std::hint::black_box(vec![1u8; 8 << 20]);
        drop(block);
        let peak = stop();
        assert!(peak >= 7.9, "{peak}");
        let after = std::hint::black_box(vec![1u8; 16 << 20]);
        drop(after);
        start();
        assert!(stop() < 7.9, "counting was off");
    }
}
