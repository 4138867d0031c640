//! Deterministic parallel execution layer.
//!
//! The paper ran BlinkML on a Spark cluster; the contribution does not
//! depend on distribution, only on how many examples each phase touches.
//! This module is the single-machine equivalent and the **only** place in
//! the workspace that spawns threads: every embarrassingly parallel hot
//! loop (per-example gradients, blocked GEMM/SYRK row panels, holdout
//! scoring, Monte Carlo probe loops) routes through it.
//!
//! # Determinism contract
//!
//! Results must be **bit-identical across machines and thread counts**.
//! Two rules enforce that:
//!
//! 1. Chunk boundaries derive from the fixed [`CHUNK_SIZE`] constant
//!    (never from the machine's thread count), so every machine reduces
//!    the same partial results.
//! 2. Per-chunk results are combined **in chunk order**; the thread pool
//!    only decides *when* a chunk runs, never *what* is summed with what.
//!
//! The thread budget is a process-wide knob ([`set_max_threads`]),
//! threaded through the system via `BlinkMlConfig::exec`; by the rules
//! above it affects wall-clock time only, never results.

use crate::matrix::Matrix;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of consecutive indices per work chunk. Chunk boundaries — and
/// therefore reduction order and results — depend only on this constant
/// and the input length, never on the executing machine.
pub const CHUNK_SIZE: usize = 4096;

/// Upper bound on the automatic thread count (oversubscribing a shared
/// host beyond this has never paid off for these kernels).
const DEFAULT_THREAD_CAP: usize = 16;

/// Process-wide thread budget; 0 means "auto" (all available cores,
/// capped at [`DEFAULT_THREAD_CAP`]).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The current worker-thread budget.
///
/// The automatic default is computed once and cached:
/// `available_parallelism` reads cgroup/sysfs state on Linux, which is
/// far too expensive for a check that now sits on the dispatch path of
/// every parallel kernel.
pub fn max_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => {
            static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
            *AUTO.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(DEFAULT_THREAD_CAP)
            })
        }
        n => n,
    }
}

/// Set the worker-thread budget: `Some(n)` caps workers at `n` (clamped
/// to at least 1), `None` restores the automatic default. By the module's
/// determinism contract this changes wall-clock time only, never results,
/// so it is safe to call at any point, from any thread.
pub fn set_max_threads(limit: Option<usize>) {
    MAX_THREADS.store(limit.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Split `0..n` into [`CHUNK_SIZE`]-sized contiguous chunks, run `f` on
/// each chunk (in parallel when the thread budget allows), and return the
/// per-chunk results **in chunk order**.
pub fn par_ranges<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    par_ranges_with(n, CHUNK_SIZE, f)
}

/// [`par_ranges`] with an explicit chunk size, for loops whose work per
/// index is far from one "example" (e.g. one Monte Carlo draw scores an
/// entire holdout set, so the probe loops use a chunk size of 1).
///
/// The chunk size must be machine-independent for the determinism
/// contract to hold; callers pass constants.
///
/// # Panics
/// Panics if `chunk_size` is 0.
pub fn par_ranges_with<R, F>(n: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk_size > 0, "par_ranges_with: chunk_size must be > 0");
    if n == 0 {
        return Vec::new();
    }
    let num_chunks = n.div_ceil(chunk_size);
    if num_chunks == 1 {
        // One chunk: nothing to schedule, skip the budget lookup and
        // collection machinery entirely (the single-thread hot path).
        return vec![f(0..n)];
    }
    let chunk_range = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(n);
    let threads = max_threads().min(num_chunks);
    if threads <= 1 {
        return (0..num_chunks).map(|c| f(chunk_range(c))).collect();
    }
    // Worker `t` takes chunks `t, t + threads, t + 2·threads, …`
    // (round-robin, so skewed per-chunk work — e.g. triangular kernels —
    // spreads evenly); results are reassembled by chunk index, which is
    // what makes scheduling invisible to the reduction order.
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..num_chunks)
                        .step_by(threads)
                        .map(|c| (c, f(chunk_range(c))))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = (0..num_chunks).map(|_| None).collect();
        for handle in handles {
            for (c, r) in handle.join().expect("worker thread panicked") {
                slots[c] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every chunk produced a result"))
            .collect()
    })
}

/// Build a `rows × cols` matrix from contiguous row blocks computed in
/// parallel chunks: `fill(range, block)` writes the rows of `range`
/// into a zeroed `range.len() * cols` scratch block, and the blocks are
/// reassembled in chunk order. Each output row is produced by exactly
/// one chunk, so the result is bit-identical for any thread count —
/// this is the shared scaffolding behind every row-partitioned kernel
/// (`par_gemm`, `par_gemm_nt`, the batched gradient applications).
pub fn par_rows_matrix<F>(rows: usize, cols: usize, fill: F) -> Matrix
where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    let mut blocks = par_ranges(rows, |range| {
        let mut block = vec![0.0; range.len() * cols];
        fill(range, &mut block);
        block
    });
    let data = if blocks.len() == 1 {
        blocks.pop().expect("one block")
    } else {
        let mut data = Vec::with_capacity(rows * cols);
        for block in blocks {
            data.extend_from_slice(&block);
        }
        data
    };
    Matrix::from_vec(rows, cols, data)
}

/// Fill a mutable slice by contiguous chunks computed in parallel:
/// `fill(range, chunk)` writes the elements of `range` into the
/// corresponding sub-slice of `out`. Each element is written by exactly
/// one chunk, so the result is bit-identical for any thread count (the
/// same output-partitioning argument as [`par_rows_matrix`]) — and the
/// single-chunk / one-thread path runs in place with zero allocation,
/// which is what lets optimizer probes reuse their scratch buffers.
///
/// # Panics
/// Panics if `chunk_size` is 0.
pub fn par_fill_slice<F>(out: &mut [f64], chunk_size: usize, fill: F)
where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    assert!(chunk_size > 0, "par_fill_slice: chunk_size must be > 0");
    let n = out.len();
    if n == 0 {
        return;
    }
    let num_chunks = n.div_ceil(chunk_size);
    let threads = max_threads().min(num_chunks);
    if threads <= 1 {
        for c in 0..num_chunks {
            let range = c * chunk_size..((c + 1) * chunk_size).min(n);
            let (start, end) = (range.start, range.end);
            fill(range, &mut out[start..end]);
        }
        return;
    }
    // Hand each worker its own round-robin set of disjoint chunks; the
    // chunk boundaries (and therefore every written value) depend only
    // on `chunk_size` and `n`, never on the budget.
    let mut per_worker: Vec<Vec<(usize, &mut [f64])>> = (0..threads).map(|_| Vec::new()).collect();
    for (c, chunk) in out.chunks_mut(chunk_size).enumerate() {
        per_worker[c % threads].push((c, chunk));
    }
    std::thread::scope(|scope| {
        let fill = &fill;
        for work in per_worker {
            scope.spawn(move || {
                for (c, chunk) in work {
                    let start = c * chunk_size;
                    fill(start..start + chunk.len(), chunk);
                }
            });
        }
    });
}

/// Parallel sum-reduction of per-index `f64` vectors: computes
/// `Σ_{i in 0..n} f(i)` where each `f(i)` contributes into a shared-shape
/// accumulator of length `dim`. Chunk partials are added in chunk order,
/// so the result is bit-identical for any thread count and machine.
pub fn par_sum_vecs<F>(n: usize, dim: usize, f: F) -> Vec<f64>
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let partials = par_ranges(n, |range| {
        let mut acc = vec![0.0; dim];
        for i in range {
            f(i, &mut acc);
        }
        acc
    });
    let mut total = vec![0.0; dim];
    for p in partials {
        for (t, v) in total.iter_mut().zip(p) {
            *t += v;
        }
    }
    total
}

/// Parallel map-reduce over index chunks producing a `rows × cols`
/// matrix: each chunk maps to a partial matrix, and partials are summed
/// in chunk order (same determinism contract as [`par_sum_vecs`]). This
/// is the reduction shape behind `J = (1/n) Σ ψψᵀ` and every other
/// per-example matrix accumulation.
///
/// # Panics
/// Panics if a chunk returns a matrix of the wrong shape.
pub fn par_map_reduce_matrix<F>(n: usize, rows: usize, cols: usize, f: F) -> Matrix
where
    F: Fn(Range<usize>) -> Matrix + Sync,
{
    let mut total = Matrix::zeros(rows, cols);
    for partial in par_ranges(n, f) {
        assert_eq!(
            partial.shape(),
            (rows, cols),
            "par_map_reduce_matrix: partial shape mismatch"
        );
        total.add_scaled(1.0, &partial);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::budget_lock;

    #[test]
    fn covers_all_indices_exactly_once() {
        for n in [0usize, 1, 10, 5000, 10_001] {
            let chunks = par_ranges(n, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<usize>>(), "n = {n}");
        }
    }

    #[test]
    fn chunk_boundaries_are_machine_independent() {
        // The determinism contract: boundaries depend only on n and
        // CHUNK_SIZE, regardless of the thread budget.
        let _g = budget_lock();
        let n = 3 * CHUNK_SIZE + 17;
        for limit in [Some(1), Some(2), Some(7), None] {
            set_max_threads(limit);
            let starts = par_ranges(n, |r| (r.start, r.end));
            let expect: Vec<(usize, usize)> = (0..n.div_ceil(CHUNK_SIZE))
                .map(|c| (c * CHUNK_SIZE, ((c + 1) * CHUNK_SIZE).min(n)))
                .collect();
            assert_eq!(starts, expect, "threads = {limit:?}");
        }
        set_max_threads(None);
    }

    #[test]
    fn results_preserve_chunk_order() {
        let n = 50_000;
        let starts = par_ranges(n, |r| r.start);
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "chunk results must come back in order");
    }

    #[test]
    fn explicit_chunk_size_is_honoured() {
        let chunks = par_ranges_with(10, 1, |r| r.len());
        assert_eq!(chunks, vec![1; 10]);
        let chunks = par_ranges_with(10, 4, |r| r.len());
        assert_eq!(chunks, vec![4, 4, 2]);
    }

    #[test]
    fn par_sum_vecs_matches_sequential() {
        let n = 20_000;
        let dim = 3;
        let got = par_sum_vecs(n, dim, |i, acc| {
            acc[0] += i as f64;
            acc[1] += 1.0;
            acc[2] += (i % 7) as f64;
        });
        let want0 = (n * (n - 1) / 2) as f64;
        assert!((got[0] - want0).abs() < 1e-6 * want0);
        assert_eq!(got[1], n as f64);
        let want2: f64 = (0..n).map(|i| (i % 7) as f64).sum();
        assert!((got[2] - want2).abs() < 1e-9 * want2);
    }

    #[test]
    fn par_sum_vecs_is_bit_identical_across_thread_budgets() {
        let _g = budget_lock();
        let run = || par_sum_vecs(30_000, 1, |i, acc| acc[0] += (i as f64).sqrt());
        set_max_threads(Some(1));
        let sequential = run();
        for t in [2, 3, 8] {
            set_max_threads(Some(t));
            assert_eq!(run(), sequential, "threads = {t}");
        }
        set_max_threads(None);
        assert_eq!(run(), sequential);
    }

    #[test]
    fn par_fill_slice_writes_every_index_once() {
        let _g = budget_lock();
        let n = 2 * CHUNK_SIZE + 123;
        let fill = |r: Range<usize>, chunk: &mut [f64]| {
            for (local, i) in r.enumerate() {
                chunk[local] = (i as f64).sqrt();
            }
        };
        set_max_threads(Some(1));
        let mut seq = vec![0.0; n];
        par_fill_slice(&mut seq, CHUNK_SIZE, fill);
        for (i, &v) in seq.iter().enumerate() {
            assert_eq!(v, (i as f64).sqrt(), "index {i}");
        }
        for t in [2, 5] {
            set_max_threads(Some(t));
            let mut par = vec![0.0; n];
            par_fill_slice(&mut par, CHUNK_SIZE, fill);
            assert_eq!(par, seq, "threads = {t}");
        }
        set_max_threads(None);
    }

    #[test]
    fn par_map_reduce_matrix_sums_partials_in_order() {
        let n = 2 * CHUNK_SIZE + 5;
        let m = par_map_reduce_matrix(n, 1, 2, |range| {
            Matrix::from_vec(1, 2, vec![range.len() as f64, range.start as f64])
        });
        assert_eq!(m[(0, 0)], n as f64);
        let expect_starts: f64 = (0..n.div_ceil(CHUNK_SIZE))
            .map(|c| (c * CHUNK_SIZE) as f64)
            .sum();
        assert_eq!(m[(0, 1)], expect_starts);
    }

    #[test]
    fn thread_budget_clamps_and_restores() {
        let _g = budget_lock();
        set_max_threads(Some(0));
        assert_eq!(max_threads(), 1, "Some(0) clamps to one worker");
        set_max_threads(Some(3));
        assert_eq!(max_threads(), 3);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }
}
