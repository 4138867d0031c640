//! Deterministic data generators, the thread-budget lock and the SIMD
//! kernel bodies shared by the workspace's tests and benches. Not part
//! of the public API (`#[doc(hidden)]` at the re-export site);
//! semver-exempt.

use crate::matrix::Matrix;
use crate::simd::{self, ArgmaxMismatchKernel};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests that mutate the process-wide thread budget
/// ([`crate::exec::set_max_threads`]). A pin that checks one budget's
/// code path holds the guard from its first `set_max_threads` to its
/// reset, so no other pin in the same test binary can switch the
/// budget under it. A poisoned lock is recovered: one failing pin must
/// not fail every later one.
pub fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic xorshift64 pseudo-random matrix with entries in
/// `(-0.5, 0.5)` — the one shared generator for kernel-equivalence
/// tests and pipeline benches (previously copy-pasted per test file).
pub fn xorshift_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(99);
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

/// Every [`simd::argmax_mismatches`] body this host can run (scalar,
/// AVX, AVX-512), each called directly, so a pin on an AVX-512 host
/// still covers the narrower bodies the dispatcher never picks there.
pub fn argmax_mismatch_bodies() -> Vec<(&'static str, ArgmaxMismatchKernel)> {
    let mut bodies: Vec<(&'static str, ArgmaxMismatchKernel)> =
        vec![("scalar", |base, u, su, w, classes, rows| {
            let ld = simd::class_stride(base, u, w, classes, &rows);
            simd::argmax_mismatches_scalar(base, u, su, w, ld, classes, rows)
        })];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx") {
            // SAFETY: AVX presence just checked; `class_stride` checks
            // the shapes.
            bodies.push(("avx", |base, u, su, w, classes, rows| unsafe {
                let ld = simd::class_stride(base, u, w, classes, &rows);
                simd::argmax_mismatches_avx(base, u, su, w, ld, classes, rows)
            }));
        }
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F presence just checked, as above.
            bodies.push(("avx512", |base, u, su, w, classes, rows| unsafe {
                let ld = simd::class_stride(base, u, w, classes, &rows);
                simd::argmax_mismatches_avx512(base, u, su, w, ld, classes, rows)
            }));
        }
    }
    bodies
}
