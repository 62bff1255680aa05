//! Counting global allocator.
//!
//! Off (the state during every timed repetition) it costs one relaxed
//! load per allocation. `Live` tracks only the change in live bytes and
//! its high-water mark (the assembly phase of the count repetition);
//! `Full` also counts allocations and requested bytes (its `run_until`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering::Relaxed};

pub struct Counting;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Off = 0,
    Live = 1,
    Full = 2,
}

// Statistics only: no other data is published through these, so Relaxed.
static MODE: AtomicU8 = AtomicU8::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn on_alloc(size: usize) {
    let mode = MODE.load(Relaxed);
    if mode == Mode::Off as u8 {
        return;
    }
    if mode == Mode::Full as u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

#[inline]
fn on_free(size: usize) {
    if MODE.load(Relaxed) != Mode::Off as u8 {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocation of the new size and one free of the old.
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` as above; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero every counter and start in `mode`.
pub fn start(mode: Mode) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    MODE.store(mode as u8, Relaxed);
}

/// Switch mode without touching the counters.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Relaxed);
}

#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
    /// High-water mark of live bytes above the level at `start`.
    pub peak_live: u64,
}

/// Stop counting and read the counters.
pub fn stop() -> Counts {
    MODE.store(Mode::Off as u8, Relaxed);
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}
