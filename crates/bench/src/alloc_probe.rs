//! The one heap probe the benches and the allocation tests share.
//!
//! A bench or test binary installs it with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: waffle_bench::alloc_probe::CountingAlloc = waffle_bench::alloc_probe::CountingAlloc;
//! ```
//!
//! It then reads two process-wide measures:
//!
//! - live and peak heap bytes ([`reset_peak`], [`peak`]), the benches'
//!   RSS proxy (the workspace has no allocator-introspection dependency).
//!   A `realloc` counts as allocating the new block and then freeing the
//!   old one, as the default `GlobalAlloc::realloc` does, so the peak
//!   includes the moment both blocks exist;
//! - allocation events ([`events`]): each `alloc` or `realloc` call
//!   counts once.
//!
//! `Relaxed` ordering is enough: the counters are read between measured
//! sections, not during them.

#![allow(unsafe_code)] // GlobalAlloc is inherently unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Pass-through system allocator that keeps the probe's counts.
pub struct CountingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.fetch_add(1, Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Restarts the peak watermark from the current live total.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Allocation events since the process started.
pub fn events() -> u64 {
    EVENTS.load(Relaxed)
}
