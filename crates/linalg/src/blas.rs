//! Level-2/3 kernels: matrix-vector and matrix-matrix products.
//!
//! Each level-3 kernel comes in two flavours: the plain sequential form
//! (`gemm`, `syrk_t`, `syrk_n`) and a cache-blocked, chunk-parallel form
//! (`par_gemm`, `par_syrk_t`, `par_syrk_n`) built on [`crate::exec`].
//! `par_gemm`/`par_syrk_n` partition *output* rows, so they are
//! bit-identical to their sequential counterparts for any thread count;
//! `par_syrk_t` reduces fixed-size row-chunk partials in chunk order, so
//! its result depends only on [`crate::exec::CHUNK_SIZE`] — never on the
//! executing machine.

use crate::exec;
use crate::matrix::Matrix;
use crate::simd;
use crate::vector::dot;
use crate::{LinalgError, Result};
use std::ops::Range;

/// Width of the `k` panel in the blocked GEMM inner loops: 256 columns of
/// `f64` keep the active `B` panel rows inside L1/L2 while preserving the
/// ascending-`p` accumulation order of the unblocked kernel.
const GEMM_KC: usize = 256;

/// Multiply-accumulate count below which the output-partitioned parallel
/// kernels dispatch straight to their sequential counterparts: chunking
/// and reassembly overhead beats any parallel win on problems this
/// small. Only kernels that are **bit-identical** to their sequential
/// forms take this bypass (and the budget-of-one bypass), so dispatch
/// never changes results.
const PAR_MIN_FLOPS: usize = 1 << 17;

/// `y = A x` (allocating). `A: m x n`, `x: n`, returns `m`.
pub fn gemv(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemv",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    let mut y = vec![0.0; a.rows()];
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot(a.row(i), x);
    }
    Ok(y)
}

/// `y = Aᵀ x` without forming the transpose. `A: m x n`, `x: m`, returns `n`.
pub fn gemv_t(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.rows() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemv_t",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    let mut y = vec![0.0; a.cols()];
    // Accumulate row-by-row so A is read contiguously.
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = a.row(i);
        for (yj, &aij) in y.iter_mut().zip(row) {
            *yj += xi * aij;
        }
    }
    Ok(y)
}

/// `C = A B`. Uses the cache-friendly i-k-j loop order.
pub fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        // Split borrow: write into C's row i while reading B's rows.
        let crow = c.row_mut(i);
        for (p, &aip) in arow.iter().enumerate().take(k) {
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            for (cij, &bpj) in crow.iter_mut().zip(brow).take(n) {
                *cij += aip * bpj;
            }
        }
    }
    Ok(c)
}

/// `C = Aᵀ B` without forming `Aᵀ`.
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm_tn",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for p in 0..k {
        let arow = a.row(p);
        let brow = b.row(p);
        for (i, &api) in arow.iter().enumerate().take(m) {
            if api == 0.0 {
                continue;
            }
            let crow = c.row_mut(i);
            for (cij, &bpj) in crow.iter_mut().zip(brow).take(n) {
                *cij += api * bpj;
            }
        }
    }
    Ok(c)
}

/// `C = A Bᵀ` without forming `Bᵀ`.
///
/// Every entry is bitwise `dot(a_i, b_j)` (NaN payloads aside, which
/// Rust leaves unspecified): rows of `A` go through
/// [`simd::rows_dot_multi`] as its requests, against all of `B`'s rows,
/// with zero biases. The kernel's trailing `+ 0.0` changes no bit
/// because [`dot`] never returns `-0.0` (its accumulators start at
/// `+0.0`), and its 4-row × 2-request register tile keeps each entry's
/// own 4-lane reduction.
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm_nt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, n) = (a.rows(), b.rows());
    let mut c = Matrix::zeros(m, n);
    gemm_nt_rows(a, b, 0..m, c.as_mut_slice());
    Ok(c)
}

/// Rows of `A` per [`simd::rows_dot_multi`] call in [`gemm_nt_rows`]:
/// 32 requests of a 500-column `A` (128 KB) stay in L2 while each
/// 4-row group of `B` streams past them.
const NT_BLOCK: usize = 32;

/// Rows `rows` of `A Bᵀ` into `block` (those rows of the `m × n`
/// output, row-major): the shared body of [`gemm_nt`] and
/// [`par_gemm_nt`].
fn gemm_nt_rows(a: &Matrix, b: &Matrix, rows: Range<usize>, block: &mut [f64]) {
    let (d, n) = (a.cols(), b.rows());
    let brows: Vec<&[f64]> = (0..n).map(|j| b.row(j)).collect();
    let zeros = [0.0; NT_BLOCK];
    let mut i = rows.start;
    while i < rows.end {
        let end = (i + NT_BLOCK).min(rows.end);
        let out = &mut block[(i - rows.start) * n..];
        simd::rows_dot_multi(&brows, d, a.rows_slice(i..end), &zeros[..end - i], n, out);
        i = end;
    }
}

/// `C = A B`, cache-blocked over the `k` dimension and parallel over
/// chunks of output rows.
///
/// Bit-identical to [`gemm`] for every thread count: each output row is
/// produced by exactly one chunk, with the same ascending-`p`
/// accumulation order as the sequential kernel.
pub fn par_gemm(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "par_gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Single-thread / small-problem dispatch: the sequential kernel is
    // bit-identical (same ascending-p accumulation), so skipping the
    // chunk/reassemble machinery can only change wall-clock time.
    if exec::max_threads() == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_MIN_FLOPS {
        return gemm(a, b);
    }
    par_gemm_blocked(a, b)
}

/// The blocked body of [`par_gemm`], reachable past the dispatch so the
/// kernel-equivalence tests exercise it even on a one-core budget.
fn par_gemm_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Ok(exec::par_rows_matrix(m, n, |range, block| {
        for p0 in (0..k).step_by(GEMM_KC) {
            let p1 = (p0 + GEMM_KC).min(k);
            for (local, i) in range.clone().enumerate() {
                let apanel = &a.row(i)[p0..p1];
                let crow = &mut block[local * n..(local + 1) * n];
                for (off, &aip) in apanel.iter().enumerate() {
                    if aip == 0.0 {
                        continue;
                    }
                    let brow = b.row(p0 + off);
                    for (cij, &bpj) in crow.iter_mut().zip(brow) {
                        *cij += aip * bpj;
                    }
                }
            }
        }
    }))
}

/// `C = A Bᵀ`, parallel over chunks of output rows.
///
/// Every output entry is one [`dot`], exactly as in [`gemm_nt`] (each
/// chunk runs the same [`simd::rows_dot_multi`] body over its rows), so
/// the result is bit-identical to the sequential kernel for any thread
/// count — which also makes the single-thread / small-problem dispatch
/// to [`gemm_nt`] result-neutral. This is the kernel behind batched
/// covariance-factor application (`Z Lᵀ` for a pool of draws).
pub fn par_gemm_nt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "par_gemm_nt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    if exec::max_threads() == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_MIN_FLOPS {
        return gemm_nt(a, b);
    }
    par_gemm_nt_chunked(a, b)
}

/// The chunked body of [`par_gemm_nt`], reachable past the dispatch so
/// the kernel-equivalence tests exercise it even on a one-core budget.
fn par_gemm_nt_chunked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    Ok(exec::par_rows_matrix(a.rows(), b.rows(), |range, block| {
        gemm_nt_rows(a, b, range, block)
    }))
}

/// Accumulate the upper triangle of `Aᵀ A` restricted to the row range
/// `rows` into `c` — the shared panel kernel behind [`syrk_t`] and
/// [`par_syrk_t`].
fn syrk_t_rows(a: &Matrix, rows: std::ops::Range<usize>, c: &mut Matrix) {
    let d = a.cols();
    for p in rows {
        let row = a.row(p);
        for i in 0..d {
            let ri = row[i];
            if ri == 0.0 {
                continue;
            }
            let crow = c.row_mut(i);
            for (j, &rj) in row.iter().enumerate().skip(i) {
                crow[j] += ri * rj;
            }
        }
    }
}

/// Mirror the upper triangle of a square matrix to the lower.
fn mirror_upper(c: &mut Matrix) {
    let d = c.rows();
    for i in 0..d {
        for j in (i + 1)..d {
            c[(j, i)] = c[(i, j)];
        }
    }
}

/// Symmetric rank-k update `C = Aᵀ A` (`A: n x d`, `C: d x d`).
///
/// Only the upper triangle is computed and then mirrored; this is the
/// kernel behind Gram/covariance matrices (`J = Q'ᵀQ'`).
pub fn syrk_t(a: &Matrix) -> Matrix {
    let d = a.cols();
    let mut c = Matrix::zeros(d, d);
    syrk_t_rows(a, 0..a.rows(), &mut c);
    mirror_upper(&mut c);
    c
}

/// Two-row-unrolled variant of [`syrk_t_rows`]: processing row pairs
/// halves the passes over the `d × d` accumulator, which is what the
/// kernel is bound on when `n ≫ d`. Accumulation order (ascending `p`,
/// pairs fused) is fixed, so results are machine-independent; they
/// differ from the one-row kernel only in round-off.
fn syrk_t_rows_unrolled(a: &Matrix, rows: std::ops::Range<usize>, c: &mut Matrix) {
    let d = a.cols();
    let mut p = rows.start;
    while p + 1 < rows.end {
        let pair = a.rows_slice(p..p + 2);
        let (r0, r1) = pair.split_at(d);
        for i in 0..d {
            let (a0, a1) = (r0[i], r1[i]);
            if a0 == 0.0 && a1 == 0.0 {
                continue;
            }
            let crow = &mut c.row_mut(i)[i..];
            for ((cj, &x0), &x1) in crow.iter_mut().zip(&r0[i..]).zip(&r1[i..]) {
                *cj += a0 * x0 + a1 * x1;
            }
        }
        p += 2;
    }
    if p < rows.end {
        syrk_t_rows(a, p..rows.end, c);
    }
}

/// Chunk-parallel [`syrk_t`]: row-chunk partial products (two-row
/// unrolled panels) are reduced in chunk order, so the result depends
/// only on the fixed [`exec::CHUNK_SIZE`] — identical across machines
/// and thread counts, and within `≈ n·ulp` of the sequential kernel.
pub fn par_syrk_t(a: &Matrix) -> Matrix {
    let d = a.cols();
    let mut c = exec::par_map_reduce_matrix(a.rows(), d, d, |range| {
        let mut partial = Matrix::zeros(d, d);
        syrk_t_rows_unrolled(a, range, &mut partial);
        partial
    });
    mirror_upper(&mut c);
    c
}

/// Symmetric Gram matrix of rows, `G = A Aᵀ` (`A: n x d`, `G: n x n`).
pub fn syrk_n(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        let ri = a.row(i);
        for j in i..n {
            let v = dot(ri, a.row(j));
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
    }
    g
}

/// Chunk size for row-partitioned symmetric (triangular) kernels. Each
/// row of a symmetric build carries `O(n)` entries of work, so chunks
/// far smaller than [`exec::CHUNK_SIZE`] are needed for the `D > n`
/// Gram regime (where `n` is typically in the hundreds to thousands) to
/// parallelize at all; round-robin chunk assignment in the execution
/// layer then also balances the triangular skew. A fixed constant keeps
/// boundaries machine-independent.
const SYMMETRIC_CHUNK: usize = 64;

/// Build a symmetric `n × n` matrix from its upper triangle, filled in
/// parallel chunks of 64 rows (`SYMMETRIC_CHUNK`), then mirrored.
///
/// `fill(rows, block)` runs once per chunk: `block` holds the chunk's
/// rows of the output (row-major, `n` wide, zeroed), and `fill` writes
/// entry `(i, j)` for every `i` in `rows` and every `j ≥ i`. Anything it
/// writes below the diagonal is overwritten by the mirror. Per-chunk
/// state (a scratch buffer, say) lives inside `fill`. Every entry is
/// computed exactly once by one chunk, so the result is bit-identical
/// for any thread count.
pub fn par_symmetric(n: usize, fill: impl Fn(Range<usize>, &mut [f64]) + Sync) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let data = m.as_mut_slice();
    // Chunks of whole rows, written in place.
    exec::par_fill_slice(data, SYMMETRIC_CHUNK * n.max(1), |range, block| {
        fill(range.start / n..range.end / n, block)
    });
    for i in 0..n {
        for j in i + 1..n {
            data[j * n + i] = data[i * n + j];
        }
    }
    m
}

/// Chunk-parallel [`syrk_n`], partitioned over output rows via
/// [`par_symmetric`]. Every entry is a single `dot`, so the result is
/// bit-identical to the sequential kernel for any thread count — and the
/// single-thread / small-problem dispatch to [`syrk_n`] is
/// result-neutral.
pub fn par_syrk_n(a: &Matrix) -> Matrix {
    let (n, d) = a.shape();
    if exec::max_threads() == 1 || n.saturating_mul(n).saturating_mul(d) / 2 < PAR_MIN_FLOPS {
        return syrk_n(a);
    }
    par_symmetric(n, |rows, block| syrk_n_rows(a, rows, block))
}

/// Upper-triangle rows `rows` of `A Aᵀ` into `block` (the rows' slice of
/// the `n × n` output): the [`par_symmetric`] body of [`par_syrk_n`].
fn syrk_n_rows(a: &Matrix, rows: Range<usize>, block: &mut [f64]) {
    let n = a.rows();
    for (i, out) in rows.zip(block.chunks_exact_mut(n)) {
        let ri = a.row(i);
        for (j, o) in out.iter_mut().enumerate().skip(i) {
            *o = dot(ri, a.row(j));
        }
    }
}

/// Rank-one update `A += alpha * x yᵀ`.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    assert_eq!(a.rows(), x.len(), "ger: row mismatch");
    assert_eq!(a.cols(), y.len(), "ger: col mismatch");
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let coeff = alpha * xi;
        let row = a.row_mut(i);
        for (aij, &yj) in row.iter_mut().zip(y) {
            *aij += coeff * yj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Matrix, Matrix) {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        (a, b)
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let (a, _) = small();
        let y = gemv(&a, &[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn gemv_t_matches_transpose() {
        let (a, _) = small();
        let x = [1.0, -2.0];
        let direct = gemv(&a.transpose(), &x).unwrap();
        let fused = gemv_t(&a, &x).unwrap();
        assert_eq!(direct, fused);
    }

    #[test]
    fn gemm_known_product() {
        let (a, b) = small();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_tn_nt_match_explicit_transpose() {
        let (a, b) = small();
        let tn = gemm_tn(&a, &a).unwrap();
        let explicit = gemm(&a.transpose(), &a).unwrap();
        assert!(tn.max_abs_diff(&explicit) < 1e-12);

        let nt = gemm_nt(&a, &b.transpose()).unwrap();
        let explicit2 = gemm(&a, &b).unwrap();
        assert!(nt.max_abs_diff(&explicit2) < 1e-12);
    }

    #[test]
    fn syrk_matches_gemm() {
        let (a, _) = small();
        let c = syrk_t(&a);
        let explicit = gemm(&a.transpose(), &a).unwrap();
        assert!(c.max_abs_diff(&explicit) < 1e-12);

        let g = syrk_n(&a);
        let explicit_g = gemm(&a, &a.transpose()).unwrap();
        assert!(g.max_abs_diff(&explicit_g) < 1e-12);
    }

    #[test]
    fn ger_rank_one() {
        let mut a = Matrix::zeros(2, 3);
        ger(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0], &mut a);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0, -2.0, -4.0, -6.0]);
    }

    #[test]
    fn shape_errors() {
        let (a, b) = small();
        assert!(gemv(&a, &[1.0]).is_err());
        assert!(gemv_t(&a, &[1.0]).is_err());
        assert!(gemm(&a, &a).is_err());
        assert!(par_gemm(&a, &a).is_err());
        assert!(gemm_tn(&a, &b).is_err());
        assert!(gemm_nt(&a, &a.transpose()).is_err());
    }

    use crate::testing::xorshift_matrix as rand_matrix;

    #[test]
    fn par_gemm_is_bit_identical_to_gemm() {
        // Spans the k-blocking boundary (k > GEMM_KC) and a non-multiple
        // row count. The blocked body is exercised directly so the test
        // holds even when the thread budget dispatches to `gemm`.
        let a = rand_matrix(37, 300, 1);
        let b = rand_matrix(300, 19, 2);
        let seq = gemm(&a, &b).unwrap();
        let par = par_gemm_blocked(&a, &b).unwrap();
        assert_eq!(seq.as_slice(), par.as_slice(), "must match bitwise");
        let dispatched = par_gemm(&a, &b).unwrap();
        assert_eq!(seq.as_slice(), dispatched.as_slice(), "dispatch neutral");
    }

    /// The per-entry `dot` loop `gemm_nt` ran before it went through
    /// `simd::rows_dot_multi`: the oracle its bits are pinned to.
    fn gemm_nt_per_entry(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| dot(a.row(i), b.row(j)))
    }

    /// Random `m × d` and `n × d` factors with special rows: `a` row 1
    /// is all `-0.0` and `b` row 1 all `0.25`, so their entry's products
    /// are all `-0.0`; `a` row 2 is all `+0.0`; `a` row 3 opens with
    /// `+inf`, and `b` row 3 holds `-inf` last and NaN in the middle.
    fn nt_factors(m: usize, n: usize, d: usize, seed: u64) -> (Matrix, Matrix) {
        let mut a = rand_matrix(m, d, seed);
        let mut b = rand_matrix(n, d, seed + 1);
        if d > 0 {
            if m > 1 {
                a.row_mut(1).fill(-0.0);
            }
            if m > 2 {
                a.row_mut(2).fill(0.0);
            }
            if m > 3 {
                a[(3, 0)] = f64::INFINITY;
            }
            if n > 1 {
                b.row_mut(1).fill(0.25);
            }
            if n > 3 {
                b[(3, d - 1)] = f64::NEG_INFINITY;
                b[(3, d / 2)] = f64::NAN;
            }
        }
        (a, b)
    }

    /// Bits with every NaN mapped to one value: Rust leaves NaN payloads
    /// and signs unspecified, and the kernel multiplies `b·a` where the
    /// oracle multiplies `a·b`.
    fn bits_nan_canonical(m: &Matrix) -> Vec<u64> {
        m.as_slice()
            .iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// `gemm_nt`, `par_gemm_nt` and its chunked body equal the per-entry
    /// `dot` loop in every bit (NaN as NaN): `d` below 8 (the scalar
    /// fallback) and not a multiple of 4, row and request counts off the
    /// 4 × 2 tile and across the 32-request block, entries whose products
    /// are all `-0.0`, ±inf and NaN entries, more rows than one
    /// execution chunk, and thread budgets {1, 4}.
    #[test]
    fn gemm_nt_is_bitwise_per_entry_dot() {
        let _budget = crate::testing::budget_lock();
        let shapes = [
            (1, 1),
            (3, 5),
            (4, 2),
            (5, 7),
            (9, 3),
            (33, 11),
            (65, 6),
            (0, 3),
            (2, 0),
        ];
        for budget in [1, 4] {
            exec::set_max_threads(Some(budget));
            for d in [0, 1, 3, 4, 7, 8, 9, 13, 16, 37] {
                for (s, &(m, n)) in shapes.iter().enumerate() {
                    let (a, b) = nt_factors(m, n, d, 11 + s as u64);
                    let want = bits_nan_canonical(&gemm_nt_per_entry(&a, &b));
                    let what = format!("budget {budget}, {m} x {n}, d = {d}");
                    assert_eq!(
                        bits_nan_canonical(&gemm_nt(&a, &b).unwrap()),
                        want,
                        "{what}"
                    );
                    let par = par_gemm_nt(&a, &b).unwrap();
                    assert_eq!(bits_nan_canonical(&par), want, "{what}, dispatched");
                    let chunked = par_gemm_nt_chunked(&a, &b).unwrap();
                    assert_eq!(bits_nan_canonical(&chunked), want, "{what}, chunked");
                }
            }
            let (a, b) = nt_factors(exec::CHUNK_SIZE + 5, 7, 9, 3);
            let want = bits_nan_canonical(&gemm_nt_per_entry(&a, &b));
            let chunked = par_gemm_nt_chunked(&a, &b).unwrap();
            assert_eq!(
                bits_nan_canonical(&chunked),
                want,
                "budget {budget}, two chunks"
            );
        }
        exec::set_max_threads(None);
        let (a, b) = nt_factors(4, 4, 9, 5);
        let c = gemm_nt(&a, &b).unwrap();
        assert_eq!(c[(1, 1)].to_bits(), 0.0f64.to_bits(), "all -0.0 products");
        assert!(c[(3, 3)].is_nan() && c[(3, 0)].is_infinite());
    }

    #[test]
    fn par_gemm_nt_is_bit_identical_to_gemm_nt() {
        let a = rand_matrix(41, 23, 5);
        let b = rand_matrix(17, 23, 6);
        let seq = gemm_nt(&a, &b).unwrap();
        let par = par_gemm_nt_chunked(&a, &b).unwrap();
        assert_eq!(seq.as_slice(), par.as_slice(), "must match bitwise");
        let dispatched = par_gemm_nt(&a, &b).unwrap();
        assert_eq!(seq.as_slice(), dispatched.as_slice(), "dispatch neutral");
    }

    #[test]
    fn par_syrk_t_matches_sequential() {
        // More rows than one chunk so the in-order reduction is exercised.
        let a = rand_matrix(2 * exec::CHUNK_SIZE + 33, 7, 3);
        let seq = syrk_t(&a);
        let par = par_syrk_t(&a);
        assert!(seq.max_abs_diff(&par) < 1e-10 * a.rows() as f64);
    }

    #[test]
    fn par_syrk_n_is_bit_identical_to_sequential() {
        let a = rand_matrix(83, 29, 4);
        let seq = syrk_n(&a);
        let par = par_syrk_n(&a);
        assert_eq!(seq.as_slice(), par.as_slice(), "must match bitwise");
        // The chunked body behind the dispatch, exercised directly.
        let chunked = par_symmetric(a.rows(), |rows, block| syrk_n_rows(&a, rows, block));
        assert_eq!(seq.as_slice(), chunked.as_slice(), "must match bitwise");
    }

    #[test]
    fn par_kernels_handle_empty_inputs() {
        let empty = Matrix::zeros(0, 4);
        assert_eq!(par_syrk_t(&empty).shape(), (4, 4));
        assert_eq!(par_syrk_n(&empty).shape(), (0, 0));
        let b = Matrix::zeros(4, 3);
        assert_eq!(par_gemm(&empty, &b).unwrap().shape(), (0, 3));
    }
}
