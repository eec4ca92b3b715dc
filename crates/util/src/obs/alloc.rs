//! Counting global allocator: process-wide and per-thread heap
//! accounting with one relaxed atomic load of overhead when off.
//!
//! Installing a `#[global_allocator]` in this crate means every binary
//! in the workspace allocates through [`CountingAlloc`], which forwards
//! to [`std::alloc::System`] and — only when [`set_enabled`] turned
//! counting on — bumps a set of process counters (allocs, frees, bytes,
//! live bytes, peak) plus two thread-local counters the span profiler
//! ([`super::span`]) samples at span boundaries to attribute
//! allocations to named spans.
//!
//! Accounting caveats (also documented in `DESIGN.md` §12):
//!
//! * **Attribution counts allocation events, not net live memory** —
//!   per-thread counters only ever increase, so a span's `allocs` is
//!   "allocations made while the span was open on this thread".
//! * **Frees are process-global only.** Attributing a free to the span
//!   that allocated the block would need a per-block side table, which
//!   would itself allocate on the hot path.
//! * **Live/peak bytes are signed under the hood**: blocks allocated
//!   before counting was enabled may be freed after, so the live
//!   counter can go transiently negative; snapshots clamp at zero.
//! * **Profiler bookkeeping is excluded**: the span machinery wraps its
//!   own map/vec operations in [`pause_thread_attribution`] so the act
//!   of measuring never shows up in the measurement.
//!
//! This module is one of the workspace's two `#[allow(unsafe_code)]`
//! sites (the other dispatches `scue_crypto`'s AVX-512 SipHash lane
//! kernel): `GlobalAlloc` is an unsafe trait by definition, and every
//! unsafe block here only forwards the already-checked layout to the
//! system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Process-wide counting switch; off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES_FREED: AtomicU64 = AtomicU64::new(0);
/// Live counted bytes, saturating at zero: frees of blocks allocated
/// before counting was enabled (possibly on other threads) can outrun
/// counted allocations, and must not mask a new block's share of the
/// peak.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Attribution pause depth (re-entrant; see [`PauseGuard`]).
    static PAUSED: Cell<u32> = const { Cell::new(0) };
}

/// The workspace allocator: [`System`] plus optional counting.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turns heap counting on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether heap counting is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn note_alloc(size: usize) {
    if !is_enabled() {
        return;
    }
    note_alloc_slow(size);
}

#[cold]
fn note_alloc_slow(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    // TLS may already be torn down during thread exit; skip silently.
    let _ = PAUSED.try_with(|paused| {
        if paused.get() == 0 {
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
        }
    });
}

#[inline]
fn note_free(size: usize) {
    if !is_enabled() {
        return;
    }
    TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES_FREED.fetch_add(size as u64, Ordering::Relaxed);
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some((live - size as i64).max(0))
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `CountingAlloc` upholds the `GlobalAlloc` contract
// exactly as `System` does; the counting around each call only touches
// atomics and `const`-initialised thread-locals, never the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s
        // contract, which is the contract of `System.alloc`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`; `alloc_zeroed` has the same contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`, as `dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` (via this allocator) with
        // `layout`, and the caller guarantees `new_size` is valid for it.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

/// A process-wide heap-counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Counted allocation events.
    pub allocs: u64,
    /// Counted deallocation events.
    pub frees: u64,
    /// Bytes requested by counted allocations.
    pub bytes_allocated: u64,
    /// Bytes released by counted deallocations.
    pub bytes_freed: u64,
    /// Live counted bytes (clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of live counted bytes.
    pub peak_bytes: u64,
}

impl AllocStats {
    /// Reads the current process-wide counters.
    pub fn snapshot() -> Self {
        Self {
            allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
            frees: TOTAL_FREES.load(Ordering::Relaxed),
            bytes_allocated: TOTAL_BYTES_ALLOCATED.load(Ordering::Relaxed),
            bytes_freed: TOTAL_BYTES_FREED.load(Ordering::Relaxed),
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
            peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
        }
    }

    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> super::Json {
        use super::Json;
        Json::obj()
            .with("allocs", Json::U64(self.allocs))
            .with("frees", Json::U64(self.frees))
            .with("bytes_allocated", Json::U64(self.bytes_allocated))
            .with("bytes_freed", Json::U64(self.bytes_freed))
            .with("live_bytes", Json::U64(self.live_bytes))
            .with("peak_bytes", Json::U64(self.peak_bytes))
    }
}

/// Zeroes the process-wide counters. Only meaningful while no other
/// thread is allocating with counting enabled.
pub fn reset() {
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_FREES.store(0, Ordering::Relaxed);
    TOTAL_BYTES_ALLOCATED.store(0, Ordering::Relaxed);
    TOTAL_BYTES_FREED.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
}

/// The calling thread's cumulative `(allocations, bytes)` — the pair
/// the span profiler differences at span boundaries.
pub fn thread_counts() -> (u64, u64) {
    let allocs = THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = THREAD_BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

/// Zeroes the calling thread's attribution counters (fan-out cells do
/// this on entry so reused worker threads start from zero).
pub fn reset_thread_counts() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(0));
    let _ = THREAD_BYTES.try_with(|c| c.set(0));
}

/// Suspends per-thread attribution while held (process counters keep
/// counting). Re-entrant: nested guards stack.
#[must_use = "attribution resumes when the guard drops"]
pub struct PauseGuard {
    _private: (),
}

/// Pauses the calling thread's attribution counters; used by the span
/// profiler around its own bookkeeping.
pub fn pause_thread_attribution() -> PauseGuard {
    let _ = PAUSED.try_with(|p| p.set(p.get() + 1));
    PauseGuard { _private: () }
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        let _ = PAUSED.try_with(|p| p.set(p.get().saturating_sub(1)));
    }
}

/// Runs `f` with the process-wide switch set to `on` and the calling
/// thread's attribution counters zeroed, holding the gate every caller
/// that flips the switch takes, so no caller can flip it under another.
/// Other threads' allocations may bleed into the process counters, so
/// callers should assert only on [`thread_counts`] and relative growth.
pub fn with_switch<R>(on: bool, f: impl FnOnce() -> R) -> R {
    use std::sync::{Mutex, PoisonError};
    static GATE: Mutex<()> = Mutex::new(());
    // The gate guards no data, and the switch is set again below, so a
    // holder that panicked leaves nothing to repair.
    let _guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    reset_thread_counts();
    set_enabled(on);
    let r = f();
    set_enabled(false);
    reset_thread_counts();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_counting<R>(f: impl FnOnce() -> R) -> R {
        with_switch(true, f)
    }

    #[test]
    fn disabled_counts_nothing_on_thread() {
        with_switch(false, || {
            let v = vec![0u8; 4096];
            drop(v);
            assert_eq!(thread_counts(), (0, 0));
        });
    }

    #[test]
    fn thread_attribution_sees_allocations() {
        with_counting(|| {
            let (allocs0, bytes0) = thread_counts();
            let v = vec![0u8; 4096];
            let (allocs1, bytes1) = thread_counts();
            drop(v);
            assert!(allocs1 > allocs0);
            assert!(bytes1 - bytes0 >= 4096, "{bytes1} - {bytes0}");
            // Frees never decrement thread attribution.
            let (allocs2, bytes2) = thread_counts();
            assert_eq!((allocs2, bytes2), (allocs1, bytes1));
        });
    }

    #[test]
    fn pause_guard_excludes_and_nests() {
        with_counting(|| {
            let before = thread_counts();
            {
                let outer = pause_thread_attribution();
                let inner = pause_thread_attribution();
                let v = vec![0u8; 1024];
                drop(v);
                drop(inner);
                let v = vec![0u8; 1024];
                drop(v);
                drop(outer);
            }
            assert_eq!(thread_counts(), before, "paused allocations excluded");
            let v = vec![0u8; 1024];
            let after = thread_counts();
            drop(v);
            assert!(after.0 > before.0, "attribution resumes after the guard");
        });
    }

    #[test]
    fn process_counters_track_alloc_and_free() {
        with_counting(|| {
            let before = AllocStats::snapshot();
            let v = vec![0u8; 1 << 16];
            let mid = AllocStats::snapshot();
            drop(v);
            let after = AllocStats::snapshot();
            assert!(mid.allocs > before.allocs);
            assert!(mid.bytes_allocated - before.bytes_allocated >= 1 << 16);
            assert!(after.frees > before.frees);
            assert!(after.bytes_freed - before.bytes_freed >= 1 << 16);
            assert!(mid.peak_bytes >= 1 << 16);
        });
    }

    #[test]
    fn stats_json_parses() {
        let rendered = AllocStats::snapshot().to_json().render();
        assert!(super::super::Json::parse(&rendered).is_ok(), "{rendered}");
    }
}
