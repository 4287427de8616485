//! The benchmark binary's global allocator: the system allocator plus
//! counters.
//!
//! It always keeps the bytes the process holds (allocated and not yet
//! freed) and their peak, which the plain run reports as memory
//! growth. Allocation counting is off until [`set_counting`] turns it
//! on around a traced episode, and the benchmark's own callbacks inside
//! an engine call run under [`uncounted`], so the counts are the
//! engine's alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static INSTALLED: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates.
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus allocation and byte counters. Only
/// allocations (including the allocating half of a `realloc`) count;
/// frees do not. Held bytes follow every allocation and free.
#[derive(Debug)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Marks the allocator as installed; the binary that declares it as
    /// `#[global_allocator]` calls this first thing in `main`.
    pub fn mark_installed() {
        INSTALLED.store(true, Ordering::Relaxed);
    }
}

fn hold(bytes: usize) {
    let now = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn release(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

fn count(bytes: usize) {
    // Relaxed throughout: the counters publish no other data.
    if COUNTING.load(Ordering::Relaxed) && !PAUSED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged, so `System`'s guarantees carry over; the only
// extra work is bumping atomics, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size);
        release(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Whether the running binary counts allocations at all.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Runs `f` with counting paused on this thread: the benchmark's own
/// bookkeeping inside a counted engine call (spans, verdict stamps).
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(was));
    out
}

/// Restarts the peak of held bytes from the bytes held now, which it
/// returns.
pub fn reset_peak() -> u64 {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The most bytes held at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// `(allocations, bytes)` counted so far.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
