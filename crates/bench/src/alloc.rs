//! A counting global allocator for allocation-budget benchmarks.
//!
//! Wraps the system allocator and counts every allocation (bytes and
//! calls) in process-wide atomics. Binaries that want allocation
//! accounting install it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: blinkml_bench::alloc::CountingAllocator =
//!     blinkml_bench::alloc::CountingAllocator;
//! ```
//!
//! and measure phases with [`measure`]. The counters are **cumulative
//! allocation** totals — deallocations are not subtracted — because the
//! quantity of interest is *bytes allocated per phase* (e.g. the cost of
//! cloning samples), not peak residency.
//!
//! Counting is exact and deterministic for deterministic code, so an
//! allocation budget can be gated without any noise allowance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator (see the module docs for installation).
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System` plus relaxed atomic counters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only growth: the grown tail is the newly allocated part.
        if new_size > layout.size() {
            BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the cumulative allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes allocated (growth included, frees not subtracted).
    pub bytes: u64,
    /// Number of allocation calls.
    pub calls: u64,
}

impl AllocStats {
    /// The counter delta `self − earlier` (saturating).
    pub fn since(&self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            calls: self.calls.saturating_sub(earlier.calls),
        }
    }
}

/// Read the cumulative counters. Zeros unless [`CountingAllocator`] is
/// installed as the global allocator.
pub fn snapshot() -> AllocStats {
    AllocStats {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

/// Run `f` and return its output plus the allocation delta it caused
/// (including allocations on other threads while it ran — keep measured
/// phases single-purpose).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let before = snapshot();
    let out = f();
    (out, snapshot().since(before))
}

/// `1.23 GB` / `45.6 MB` / `789 KB` / `12 B` formatting.
pub fn fmt_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.0} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_saturating_delta() {
        let a = AllocStats {
            bytes: 10,
            calls: 2,
        };
        let b = AllocStats {
            bytes: 25,
            calls: 5,
        };
        assert_eq!(
            b.since(a),
            AllocStats {
                bytes: 15,
                calls: 3
            }
        );
        assert_eq!(a.since(b), AllocStats { bytes: 0, calls: 0 });
    }

    #[test]
    fn measure_returns_the_closure_output() {
        // Without the allocator installed the delta is zero, but the
        // plumbing must still hand the output through.
        let (v, stats) = measure(|| vec![1u8; 32].len());
        assert_eq!(v, 32);
        let _ = stats.bytes;
    }

    #[test]
    fn bytes_format() {
        assert_eq!(fmt_bytes(12), "12 B");
        assert_eq!(fmt_bytes(2048), "2 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 / 2), "1.5 MB");
        assert_eq!(fmt_bytes(2 * 1024 * 1024 * 1024), "2.00 GB");
    }
}
