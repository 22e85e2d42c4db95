//! Counting global allocator.
//!
//! Every thread is in one of three modes. Client threads count into
//! thread-local cells only while an op is being timed, so
//! `allocs_per_op` is exactly "what one op asked the heap for" and costs
//! no shared cache line. Threads the benchmark never marked (Raft
//! appliers and tickers, invalidators, the compactor) count into one
//! global pair of atomics: that is `client.bg_allocs_per_s`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const BACKGROUND: u8 = 0;
const IDLE: u8 = 1;
const TIMED: u8 = 2;

thread_local! {
    // Const-initialised cells of plain integers: no lazy init and no
    // destructor, so touching them from inside the allocator never
    // allocates.
    static MODE: Cell<u8> = const { Cell::new(BACKGROUND) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

static BG_COUNT: AtomicU64 = AtomicU64::new(0);
static BG_BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by the benchmark binary and its tests.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // `try_with` because the allocator also runs while a thread's locals
    // are being torn down.
    let mode = MODE.try_with(Cell::get).unwrap_or(IDLE);
    match mode {
        TIMED => {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
        }
        BACKGROUND => {
            BG_COUNT.fetch_add(1, Ordering::Relaxed);
            BG_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
        _ => {}
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only adds counting, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Marks the calling thread as one the benchmark drives: its allocations
/// count only between [`start`] and [`stop`].
pub fn mark_client_thread() {
    MODE.with(|m| m.set(IDLE));
}

/// Starts counting this thread's allocations.
#[inline]
pub fn start() {
    MODE.with(|m| m.set(TIMED));
}

/// Stops counting this thread's allocations.
#[inline]
pub fn stop() {
    MODE.with(|m| m.set(IDLE));
}

/// `(allocations, bytes)` this thread made while counting, so far.
#[inline]
pub fn thread_totals() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}

/// `(allocations, bytes)` made so far by threads the benchmark does not
/// drive.
pub fn background_totals() -> (u64, u64) {
    (
        BG_COUNT.load(Ordering::Relaxed),
        BG_BYTES.load(Ordering::Relaxed),
    )
}
