//! Row-blocked design-matrix kernels with runtime SIMD dispatch.
//!
//! The training engine's two hot passes — margins `m = X·θ` and the
//! gradient reduction `g = Σ wᵢ·xᵢ` — run over a contiguous row-major
//! block once per optimizer probe. On the scalar per-example path both
//! are latency-bound: a single 4-lane dot accumulator chains one vector
//! add per 4 elements, capping throughput near one multiply-add per
//! cycle regardless of memory bandwidth. These kernels keep **exactly
//! the same floating-point reduction shape** and break the latency
//! chain by keeping four rows in flight at once.
//!
//! # Exactness contract
//!
//! * [`rows_dot`] produces, for every row, the **bit-identical** result
//!   of [`crate::vector::dot`]`(row, w) + bias`: each row owns one
//!   4-lane accumulator, lanes are combined in the same
//!   `acc0+acc1+acc2+acc3+tail` order, and the bias is added last.
//! * [`rows_weighted_sum`] accumulates into `out[j]` in ascending row
//!   order — the bit-identical sequence of the naive
//!   `for i { axpy(w[i], row_i, out) }` loop (zero weights included).
//! * `givens_rows` (crate-internal, the eigensolver's rotation) is
//!   elementwise, so each element's bits are those of the scalar loop.
//! * [`rows_times_table`] (dense rows times a table, the holdout scoring
//!   GEMM) and [`sparse_row_times_table`] (its sparse one-row form)
//!   produce, for every output, the bits of the per-row axpy loop: the
//!   accumulator starts from `out`, terms are added in ascending feature
//!   order, and a term whose row entry is `0.0` or `-0.0` is skipped, so
//!   it never turns `-0.0` into `+0.0` or meets an infinite table entry.
//!   The AVX bodies hold a 4-row × 8-column (dense) or 16-column
//!   (sparse) tile of outputs in registers across the whole table
//!   height; row and column tails keep the same per-output order.
//!
//! The AVX paths execute the same IEEE multiply/add DAG as the scalar
//! fallbacks (no FMA contraction), so results do not depend on which
//! path the runtime dispatch picks; a machine without AVX produces the
//! same bits, only slower. Unit tests pin both properties.

use crate::vector::dot;

/// `out[i] = dot(row_i, w) + bias` for a contiguous row-major block
/// `x` of `out.len()` rows of length `d`.
///
/// Bit-identical to the per-row [`crate::vector::dot`] loop (see module
/// docs).
///
/// # Panics
/// Panics when `x.len() != out.len() * d` or `w.len() != d`.
pub fn rows_dot(x: &[f64], d: usize, w: &[f64], bias: f64, out: &mut [f64]) {
    assert_eq!(x.len(), out.len() * d, "rows_dot: block shape mismatch");
    assert_eq!(w.len(), d, "rows_dot: weight length mismatch");
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; the kernel only reads
        // within the bounds asserted above.
        unsafe { rows_dot_avx(x, d, w, bias, out) };
        return;
    }
    rows_dot_fallback(x, d, w, bias, out);
}

/// `out[j] += Σ_i w[i] · x[i·d + j]` — the transposed weighted row sum
/// behind the batched gradient (`g = Xᵀw`), accumulated in ascending
/// row order (see module docs for the bitwise contract).
///
/// # Panics
/// Panics when `x.len() != w.len() * d` or `out.len() != d`.
pub fn rows_weighted_sum(x: &[f64], d: usize, w: &[f64], out: &mut [f64]) {
    assert_eq!(
        x.len(),
        w.len() * d,
        "rows_weighted_sum: block shape mismatch"
    );
    assert_eq!(out.len(), d, "rows_weighted_sum: output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; bounds asserted above.
        unsafe { rows_weighted_sum_avx(x, d, w, out) };
        return;
    }
    rows_weighted_sum_fallback(x, d, w, out);
}

/// Gathered form of [`rows_dot`]: the rows live behind per-row slices
/// (the zero-copy dataset view) instead of one contiguous block. Same
/// bitwise contract: `out[i] = dot(rows[i], w) + bias` with the 4-lane
/// reduction shape, at AVX speed where available. Upcoming rows are
/// software-prefetched — scattered row buffers defeat the hardware
/// prefetcher at allocation boundaries.
///
/// # Panics
/// Panics when `rows.len() != out.len()`, `w.len() != d`, or any row's
/// length differs from `d` (debug builds for the rows).
pub fn rows_dot_gather(rows: &[&[f64]], d: usize, w: &[f64], bias: f64, out: &mut [f64]) {
    assert_eq!(rows.len(), out.len(), "rows_dot_gather: row count mismatch");
    assert_eq!(w.len(), d, "rows_dot_gather: weight length mismatch");
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; each row's bounds are
        // debug-asserted inside the kernel.
        unsafe { rows_dot_gather_avx(rows, d, w, bias, out) };
        return;
    }
    for (row, o) in rows.iter().zip(out.iter_mut()) {
        debug_assert_eq!(row.len(), d);
        *o = dot(row, w) + bias;
    }
}

/// Gathered form of [`rows_weighted_sum`]: `out[j] += Σ_i w[i]·rows[i][j]`
/// in ascending row order, over per-row slices.
///
/// # Panics
/// Panics when `rows.len() != w.len()` or `out.len() != d`.
pub fn rows_weighted_sum_gather(rows: &[&[f64]], d: usize, w: &[f64], out: &mut [f64]) {
    assert_eq!(
        rows.len(),
        w.len(),
        "rows_weighted_sum_gather: weight length mismatch"
    );
    assert_eq!(
        out.len(),
        d,
        "rows_weighted_sum_gather: output length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; bounds asserted above.
        unsafe { rows_weighted_sum_gather_avx(rows, d, w, out) };
        return;
    }
    for (row, &wi) in rows.iter().zip(w) {
        debug_assert_eq!(row.len(), d);
        for (oj, &xj) in out.iter_mut().zip(*row) {
            *oj += wi * xj;
        }
    }
}

/// Index-gathered form of [`rows_dot_gather`]: the rows to score are
/// named by `idx` — `out[k] = dot(rows[idx[k]], w) + bias` — instead of
/// being pre-gathered into their own slice table. This is the kernel
/// behind zero-copy sample views: the pool's row table is built once
/// and every sample is just an index list into it. Same bitwise
/// contract as [`rows_dot_gather`] (per-row 4-lane reduction, bias
/// last), with the next block's rows software-prefetched through the
/// index indirection.
///
/// # Panics
/// Panics when `idx.len() != out.len()` or `w.len() != d`; row bounds
/// are checked by the slice indexing itself.
pub fn rows_dot_gather_idx(
    rows: &[&[f64]],
    idx: &[usize],
    d: usize,
    w: &[f64],
    bias: f64,
    out: &mut [f64],
) {
    assert_eq!(
        idx.len(),
        out.len(),
        "rows_dot_gather_idx: index count mismatch"
    );
    assert_eq!(w.len(), d, "rows_dot_gather_idx: weight length mismatch");
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; row accesses stay bounds-
        // checked through the safe index loads.
        unsafe { rows_dot_gather_idx_avx(rows, idx, d, w, bias, out) };
        return;
    }
    for (&i, o) in idx.iter().zip(out.iter_mut()) {
        debug_assert_eq!(rows[i].len(), d);
        *o = dot(rows[i], w) + bias;
    }
}

/// Index-gathered form of [`rows_weighted_sum_gather`]:
/// `out[j] += Σ_k w[k]·rows[idx[k]][j]` in ascending `k` order — the
/// gradient reduction over an index-view sample, bit-identical to
/// running [`rows_weighted_sum_gather`] over the pre-gathered rows.
///
/// # Panics
/// Panics when `idx.len() != w.len()` or `out.len() != d`.
pub fn rows_weighted_sum_gather_idx(
    rows: &[&[f64]],
    idx: &[usize],
    d: usize,
    w: &[f64],
    out: &mut [f64],
) {
    assert_eq!(
        idx.len(),
        w.len(),
        "rows_weighted_sum_gather_idx: weight length mismatch"
    );
    assert_eq!(
        out.len(),
        d,
        "rows_weighted_sum_gather_idx: output length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; bounds asserted above.
        unsafe { rows_weighted_sum_gather_idx_avx(rows, idx, d, w, out) };
        return;
    }
    for (&i, &wi) in idx.iter().zip(w) {
        debug_assert_eq!(rows[i].len(), d);
        for (oj, &xj) in out.iter_mut().zip(rows[i]) {
            *oj += wi * xj;
        }
    }
}

/// `out[r·width + c] += Σ_i rows[r][i] · table[i·width + c]` — a block of
/// dense rows times a row-major `d × width` table, with `out` the
/// row-major `rows.len() × width` result. Each output adds its terms in
/// ascending `i` and skips the terms whose `rows[r][i] == 0.0` (see
/// module docs), so the result is bit-identical to the per-row axpy
/// loop.
///
/// # Panics
/// Panics when `out.len() != rows.len() * width` or any row's length
/// times `width` differs from `table.len()`.
pub fn rows_times_table(rows: &[&[f64]], table: &[f64], width: usize, out: &mut [f64]) {
    assert_eq!(
        out.len(),
        rows.len() * width,
        "rows_times_table: output shape mismatch"
    );
    for row in rows {
        assert_eq!(
            row.len() * width,
            table.len(),
            "rows_times_table: table shape mismatch"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if width >= 4 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; every row spans the table's
        // height and `out` holds `rows.len()` rows of `width` (asserted
        // above).
        unsafe { rows_times_table_avx(rows, table, width, out) };
        return;
    }
    rows_times_table_fallback(rows, table, width, out);
}

/// Sparse one-row form of [`rows_times_table`]: `out[c] += Σ_k
/// values[k] · table[indices[k]·width + c]`, terms added in ascending
/// `k` and skipped where `values[k] == 0.0` — bit-identical to the
/// per-nonzero axpy loop.
///
/// # Panics
/// Panics when `indices.len() != values.len()`, `out.len() != width`,
/// or an index names a table row past `table.len() / width`.
pub fn sparse_row_times_table(
    indices: &[u32],
    values: &[f64],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    assert_eq!(
        indices.len(),
        values.len(),
        "sparse_row_times_table: index/value length mismatch"
    );
    assert_eq!(
        out.len(),
        width,
        "sparse_row_times_table: output length mismatch"
    );
    assert!(
        indices
            .iter()
            .all(|&i| (i as usize + 1) * width <= table.len()),
        "sparse_row_times_table: index out of table range"
    );
    #[cfg(target_arch = "x86_64")]
    if width >= 4 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; every indexed table row
        // lies inside `table` and `out` has `width` entries (asserted
        // above).
        unsafe { sparse_row_times_table_avx(indices, values, table, width, out) };
        return;
    }
    sparse_row_times_table_fallback(indices, values, table, width, out);
}

/// Scalar reference for [`rows_dot`]: per-row [`dot`] plus the bias.
fn rows_dot_fallback(x: &[f64], d: usize, w: &[f64], bias: f64, out: &mut [f64]) {
    for (row, o) in x.chunks_exact(d).zip(out.iter_mut()) {
        *o = dot(row, w) + bias;
    }
}

/// Scalar reference for [`rows_weighted_sum`]: row-order axpy.
fn rows_weighted_sum_fallback(x: &[f64], d: usize, w: &[f64], out: &mut [f64]) {
    for (row, &wi) in x.chunks_exact(d).zip(w) {
        for (oj, &xj) in out.iter_mut().zip(row) {
            *oj += wi * xj;
        }
    }
}

/// Scalar reference for [`rows_times_table`]: per row, one axpy of a
/// table row per nonzero entry, in ascending entry order.
fn rows_times_table_fallback(rows: &[&[f64]], table: &[f64], width: usize, out: &mut [f64]) {
    for (r, row) in rows.iter().enumerate() {
        let out = &mut out[r * width..(r + 1) * width];
        for (i, &v) in row.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            for (o, &t) in out.iter_mut().zip(&table[i * width..(i + 1) * width]) {
                *o += v * t;
            }
        }
    }
}

/// Scalar reference for [`sparse_row_times_table`]: one axpy of a table
/// row per stored nonzero, in storage order.
fn sparse_row_times_table_fallback(
    indices: &[u32],
    values: &[f64],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    for (&i, &v) in indices.iter().zip(values) {
        if v == 0.0 {
            continue;
        }
        let row = &table[i as usize * width..(i as usize + 1) * width];
        for (o, &t) in out.iter_mut().zip(row) {
            *o += v * t;
        }
    }
}

/// AVX [`rows_dot`]: four rows in flight, one 4-lane (`__m256d`)
/// accumulator per row — the same lanes `vector::dot` keeps in its
/// unrolled scalar array, so each row's reduction is bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_dot_avx(x: &[f64], d: usize, w: &[f64], bias: f64, out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let chunks = d / 4;
    let wp = w.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let p0 = x.as_ptr().add(i * d);
        let p1 = p0.add(d);
        let p2 = p1.add(d);
        let p3 = p2.add(d);
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for c in 0..chunks {
            let j = c * 4;
            let wv = _mm256_loadu_pd(wp.add(j));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p0.add(j)), wv));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p1.add(j)), wv));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p2.add(j)), wv));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p3.add(j)), wv));
        }
        let mut l0 = [0.0f64; 4];
        let mut l1 = [0.0f64; 4];
        let mut l2 = [0.0f64; 4];
        let mut l3 = [0.0f64; 4];
        _mm256_storeu_pd(l0.as_mut_ptr(), a0);
        _mm256_storeu_pd(l1.as_mut_ptr(), a1);
        _mm256_storeu_pd(l2.as_mut_ptr(), a2);
        _mm256_storeu_pd(l3.as_mut_ptr(), a3);
        let (mut e0, mut e1, mut e2, mut e3) = (0.0, 0.0, 0.0, 0.0);
        for j in chunks * 4..d {
            let wj = *wp.add(j);
            e0 += *p0.add(j) * wj;
            e1 += *p1.add(j) * wj;
            e2 += *p2.add(j) * wj;
            e3 += *p3.add(j) * wj;
        }
        out[i] = l0[0] + l0[1] + l0[2] + l0[3] + e0 + bias;
        out[i + 1] = l1[0] + l1[1] + l1[2] + l1[3] + e1 + bias;
        out[i + 2] = l2[0] + l2[1] + l2[2] + l2[3] + e2 + bias;
        out[i + 3] = l3[0] + l3[1] + l3[2] + l3[3] + e3 + bias;
        i += 4;
    }
    while i < n {
        out[i] = dot(&x[i * d..(i + 1) * d], w) + bias;
        i += 1;
    }
}

/// AVX [`rows_weighted_sum`]: blocks of four rows; each 4-wide column
/// group of `out` receives the four row contributions **in row order**,
/// preserving the sequential accumulation bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_weighted_sum_avx(x: &[f64], d: usize, w: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = w.len();
    let cols4 = d / 4 * 4;
    let mut i = 0;
    while i + 4 <= n {
        let p0 = x.as_ptr().add(i * d);
        let p1 = p0.add(d);
        let p2 = p1.add(d);
        let p3 = p2.add(d);
        let w0 = _mm256_set1_pd(w[i]);
        let w1 = _mm256_set1_pd(w[i + 1]);
        let w2 = _mm256_set1_pd(w[i + 2]);
        let w3 = _mm256_set1_pd(w[i + 3]);
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j < cols4 {
            let mut ov = _mm256_loadu_pd(op.add(j));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w0, _mm256_loadu_pd(p0.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w1, _mm256_loadu_pd(p1.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w2, _mm256_loadu_pd(p2.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w3, _mm256_loadu_pd(p3.add(j))));
            _mm256_storeu_pd(op.add(j), ov);
            j += 4;
        }
        for j in cols4..d {
            let o = out.get_unchecked_mut(j);
            *o += w[i] * *p0.add(j);
            *o += w[i + 1] * *p1.add(j);
            *o += w[i + 2] * *p2.add(j);
            *o += w[i + 3] * *p3.add(j);
        }
        i += 4;
    }
    while i < n {
        let row = &x[i * d..(i + 1) * d];
        let wi = w[i];
        for (oj, &xj) in out.iter_mut().zip(row) {
            *oj += wi * xj;
        }
        i += 1;
    }
}

/// AVX [`rows_dot_gather`]: the 4-rows-in-flight kernel of
/// [`rows_dot_avx`] reading through per-row pointers, with the next
/// four rows prefetched each block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_dot_gather_avx(rows: &[&[f64]], d: usize, w: &[f64], bias: f64, out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = rows.len();
    let chunks = d / 4;
    let wp = w.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        debug_assert!(
            rows[i].len() == d
                && rows[i + 1].len() == d
                && rows[i + 2].len() == d
                && rows[i + 3].len() == d
        );
        let p0 = rows[i].as_ptr();
        let p1 = rows[i + 1].as_ptr();
        let p2 = rows[i + 2].as_ptr();
        let p3 = rows[i + 3].as_ptr();
        if i + 8 <= n {
            // Pull the next block's rows toward L1 while this block
            // computes: one prefetch per 64-byte line.
            for r in 4..8 {
                let np = rows[i + r].as_ptr() as *const i8;
                let mut off = 0;
                while off < d * 8 {
                    _mm_prefetch(np.add(off), _MM_HINT_T0);
                    off += 64;
                }
            }
        }
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for c in 0..chunks {
            let j = c * 4;
            let wv = _mm256_loadu_pd(wp.add(j));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p0.add(j)), wv));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p1.add(j)), wv));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p2.add(j)), wv));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p3.add(j)), wv));
        }
        let mut l0 = [0.0f64; 4];
        let mut l1 = [0.0f64; 4];
        let mut l2 = [0.0f64; 4];
        let mut l3 = [0.0f64; 4];
        _mm256_storeu_pd(l0.as_mut_ptr(), a0);
        _mm256_storeu_pd(l1.as_mut_ptr(), a1);
        _mm256_storeu_pd(l2.as_mut_ptr(), a2);
        _mm256_storeu_pd(l3.as_mut_ptr(), a3);
        let (mut e0, mut e1, mut e2, mut e3) = (0.0, 0.0, 0.0, 0.0);
        for j in chunks * 4..d {
            let wj = *wp.add(j);
            e0 += *p0.add(j) * wj;
            e1 += *p1.add(j) * wj;
            e2 += *p2.add(j) * wj;
            e3 += *p3.add(j) * wj;
        }
        out[i] = l0[0] + l0[1] + l0[2] + l0[3] + e0 + bias;
        out[i + 1] = l1[0] + l1[1] + l1[2] + l1[3] + e1 + bias;
        out[i + 2] = l2[0] + l2[1] + l2[2] + l2[3] + e2 + bias;
        out[i + 3] = l3[0] + l3[1] + l3[2] + l3[3] + e3 + bias;
        i += 4;
    }
    while i < n {
        out[i] = dot(rows[i], w) + bias;
        i += 1;
    }
}

/// AVX [`rows_weighted_sum_gather`]: per-row-pointer form of
/// [`rows_weighted_sum_avx`], preserving ascending-row accumulation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_weighted_sum_gather_avx(rows: &[&[f64]], d: usize, w: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = rows.len();
    let cols4 = d / 4 * 4;
    let mut i = 0;
    while i + 4 <= n {
        debug_assert!(
            rows[i].len() == d
                && rows[i + 1].len() == d
                && rows[i + 2].len() == d
                && rows[i + 3].len() == d
        );
        let p0 = rows[i].as_ptr();
        let p1 = rows[i + 1].as_ptr();
        let p2 = rows[i + 2].as_ptr();
        let p3 = rows[i + 3].as_ptr();
        let w0 = _mm256_set1_pd(w[i]);
        let w1 = _mm256_set1_pd(w[i + 1]);
        let w2 = _mm256_set1_pd(w[i + 2]);
        let w3 = _mm256_set1_pd(w[i + 3]);
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j < cols4 {
            let mut ov = _mm256_loadu_pd(op.add(j));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w0, _mm256_loadu_pd(p0.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w1, _mm256_loadu_pd(p1.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w2, _mm256_loadu_pd(p2.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w3, _mm256_loadu_pd(p3.add(j))));
            _mm256_storeu_pd(op.add(j), ov);
            j += 4;
        }
        for j in cols4..d {
            let o = out.get_unchecked_mut(j);
            *o += w[i] * *p0.add(j);
            *o += w[i + 1] * *p1.add(j);
            *o += w[i + 2] * *p2.add(j);
            *o += w[i + 3] * *p3.add(j);
        }
        i += 4;
    }
    while i < n {
        let wi = w[i];
        for (oj, &xj) in out.iter_mut().zip(rows[i]) {
            *oj += wi * xj;
        }
        i += 1;
    }
}

/// AVX [`rows_dot_gather_idx`]: [`rows_dot_gather_avx`] reading its four
/// in-flight rows through the index list, prefetching the next block's
/// indexed rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_dot_gather_idx_avx(
    rows: &[&[f64]],
    idx: &[usize],
    d: usize,
    w: &[f64],
    bias: f64,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = idx.len();
    let chunks = d / 4;
    let wp = w.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let r0 = rows[idx[i]];
        let r1 = rows[idx[i + 1]];
        let r2 = rows[idx[i + 2]];
        let r3 = rows[idx[i + 3]];
        debug_assert!(r0.len() == d && r1.len() == d && r2.len() == d && r3.len() == d);
        let p0 = r0.as_ptr();
        let p1 = r1.as_ptr();
        let p2 = r2.as_ptr();
        let p3 = r3.as_ptr();
        // Two-stage software pipeline against the random row order of
        // gathered samples: a volatile touch of each row ~6 blocks out
        // forces the dTLB walk early (plain `_mm_prefetch` is dropped on
        // a dTLB miss on common x86 cores, so prefetching a not-yet-
        // mapped random row does nothing), then full-line prefetches one
        // block out run with a warm TLB.
        if i + 28 <= n {
            for r in 24..28 {
                let tp = rows[idx[i + r]].as_ptr();
                let _ = std::ptr::read_volatile(tp);
            }
        }
        if i + 8 <= n {
            for r in 4..8 {
                let np = rows[idx[i + r]].as_ptr() as *const i8;
                let mut off = 0;
                while off < d * 8 {
                    _mm_prefetch(np.add(off), _MM_HINT_T0);
                    off += 64;
                }
            }
        }
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for c in 0..chunks {
            let j = c * 4;
            let wv = _mm256_loadu_pd(wp.add(j));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p0.add(j)), wv));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p1.add(j)), wv));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p2.add(j)), wv));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p3.add(j)), wv));
        }
        let mut l0 = [0.0f64; 4];
        let mut l1 = [0.0f64; 4];
        let mut l2 = [0.0f64; 4];
        let mut l3 = [0.0f64; 4];
        _mm256_storeu_pd(l0.as_mut_ptr(), a0);
        _mm256_storeu_pd(l1.as_mut_ptr(), a1);
        _mm256_storeu_pd(l2.as_mut_ptr(), a2);
        _mm256_storeu_pd(l3.as_mut_ptr(), a3);
        let (mut e0, mut e1, mut e2, mut e3) = (0.0, 0.0, 0.0, 0.0);
        for j in chunks * 4..d {
            let wj = *wp.add(j);
            e0 += *p0.add(j) * wj;
            e1 += *p1.add(j) * wj;
            e2 += *p2.add(j) * wj;
            e3 += *p3.add(j) * wj;
        }
        out[i] = l0[0] + l0[1] + l0[2] + l0[3] + e0 + bias;
        out[i + 1] = l1[0] + l1[1] + l1[2] + l1[3] + e1 + bias;
        out[i + 2] = l2[0] + l2[1] + l2[2] + l2[3] + e2 + bias;
        out[i + 3] = l3[0] + l3[1] + l3[2] + l3[3] + e3 + bias;
        i += 4;
    }
    while i < n {
        out[i] = dot(rows[idx[i]], w) + bias;
        i += 1;
    }
}

/// AVX [`rows_weighted_sum_gather_idx`]: [`rows_weighted_sum_gather_avx`]
/// reading its four in-flight rows through the index list, preserving
/// ascending-`k` accumulation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_weighted_sum_gather_idx_avx(
    rows: &[&[f64]],
    idx: &[usize],
    d: usize,
    w: &[f64],
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = idx.len();
    let cols4 = d / 4 * 4;
    let mut i = 0;
    while i + 4 <= n {
        let r0 = rows[idx[i]];
        let r1 = rows[idx[i + 1]];
        let r2 = rows[idx[i + 2]];
        let r3 = rows[idx[i + 3]];
        debug_assert!(r0.len() == d && r1.len() == d && r2.len() == d && r3.len() == d);
        let p0 = r0.as_ptr();
        let p1 = r1.as_ptr();
        let p2 = r2.as_ptr();
        let p3 = r3.as_ptr();
        // Same two-stage pipeline as the gathered dot kernel: TLB touch
        // far ahead, full-line prefetch one block ahead.
        if i + 28 <= n {
            for r in 24..28 {
                let tp = rows[idx[i + r]].as_ptr();
                let _ = std::ptr::read_volatile(tp);
            }
        }
        if i + 8 <= n {
            for r in 4..8 {
                let np = rows[idx[i + r]].as_ptr() as *const i8;
                let mut off = 0;
                while off < d * 8 {
                    _mm_prefetch(np.add(off), _MM_HINT_T0);
                    off += 64;
                }
            }
        }
        let w0 = _mm256_set1_pd(w[i]);
        let w1 = _mm256_set1_pd(w[i + 1]);
        let w2 = _mm256_set1_pd(w[i + 2]);
        let w3 = _mm256_set1_pd(w[i + 3]);
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j < cols4 {
            let mut ov = _mm256_loadu_pd(op.add(j));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w0, _mm256_loadu_pd(p0.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w1, _mm256_loadu_pd(p1.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w2, _mm256_loadu_pd(p2.add(j))));
            ov = _mm256_add_pd(ov, _mm256_mul_pd(w3, _mm256_loadu_pd(p3.add(j))));
            _mm256_storeu_pd(op.add(j), ov);
            j += 4;
        }
        for j in cols4..d {
            let o = out.get_unchecked_mut(j);
            *o += w[i] * *p0.add(j);
            *o += w[i + 1] * *p1.add(j);
            *o += w[i + 2] * *p2.add(j);
            *o += w[i + 3] * *p3.add(j);
        }
        i += 4;
    }
    while i < n {
        let wi = w[i];
        for (oj, &xj) in out.iter_mut().zip(rows[idx[i]]) {
            *oj += wi * xj;
        }
        i += 1;
    }
}

/// AVX [`rows_times_table`]: blocks of four rows through 4 × 8 register
/// tiles, then the last `rows.len() % 4` rows one at a time. A block
/// with no zero entry runs without the per-term zero tests.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_times_table_avx(rows: &[&[f64]], table: &[f64], width: usize, out: &mut [f64]) {
    let mut r = 0;
    while r + 4 <= rows.len() {
        let block = [rows[r], rows[r + 1], rows[r + 2], rows[r + 3]];
        let out = &mut out[r * width..(r + 4) * width];
        if block.iter().any(|row| row.contains(&0.0)) {
            rows_tile::<4, true>(block, table, width, out);
        } else {
            rows_tile::<4, false>(block, table, width, out);
        }
        r += 4;
    }
    for (row, out) in rows[r..]
        .iter()
        .zip(out[r * width..].chunks_exact_mut(width))
    {
        if row.contains(&0.0) {
            rows_tile::<1, true>([row], table, width, out);
        } else {
            rows_tile::<1, false>([row], table, width, out);
        }
    }
}

/// `R` rows of [`rows_times_table_avx`]: 8-column tiles (two `__m256d`
/// accumulators per row, one table load shared by the `R` rows), then a
/// 4-column tile, then single columns. Every output starts from its `out`
/// value and adds `x·t` in ascending `i`, skipping zero `x` when `SKIP`
/// (callers pass `false` only for rows without zeros).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_tile<const R: usize, const SKIP: bool>(
    rows: [&[f64]; R],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let d = rows[0].len();
    let tp = table.as_ptr();
    let op = out.as_mut_ptr();
    let xp = rows.map(<[f64]>::as_ptr);
    let mut c = 0;
    while c + 8 <= width {
        let mut acc = [[_mm256_setzero_pd(); 2]; R];
        for (r, a) in acc.iter_mut().enumerate() {
            let o = op.add(r * width + c);
            *a = [_mm256_loadu_pd(o), _mm256_loadu_pd(o.add(4))];
        }
        for i in 0..d {
            let t = tp.add(i * width + c);
            let (t0, t1) = (_mm256_loadu_pd(t), _mm256_loadu_pd(t.add(4)));
            for (a, x) in acc.iter_mut().zip(xp) {
                let x = *x.add(i);
                if SKIP && x == 0.0 {
                    continue;
                }
                let xv = _mm256_set1_pd(x);
                a[0] = _mm256_add_pd(a[0], _mm256_mul_pd(xv, t0));
                a[1] = _mm256_add_pd(a[1], _mm256_mul_pd(xv, t1));
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let o = op.add(r * width + c);
            _mm256_storeu_pd(o, a[0]);
            _mm256_storeu_pd(o.add(4), a[1]);
        }
        c += 8;
    }
    if c + 4 <= width {
        let mut acc = [_mm256_setzero_pd(); R];
        for (r, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_pd(op.add(r * width + c));
        }
        for i in 0..d {
            let t0 = _mm256_loadu_pd(tp.add(i * width + c));
            for (a, x) in acc.iter_mut().zip(xp) {
                let x = *x.add(i);
                if SKIP && x == 0.0 {
                    continue;
                }
                *a = _mm256_add_pd(*a, _mm256_mul_pd(_mm256_set1_pd(x), t0));
            }
        }
        for (r, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(op.add(r * width + c), *a);
        }
        c += 4;
    }
    for c in c..width {
        for (r, x) in xp.iter().enumerate() {
            let o = op.add(r * width + c);
            let mut acc = *o;
            for i in 0..d {
                let x = *x.add(i);
                if SKIP && x == 0.0 {
                    continue;
                }
                acc += x * *tp.add(i * width + c);
            }
            *o = acc;
        }
    }
}

/// AVX [`sparse_row_times_table`]: 16-column tiles (four `__m256d`
/// accumulators) over the nonzeros, then a 4-column tile, then single
/// columns, each output accumulated in storage order. A row with no
/// stored zero runs without the per-term zero tests.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sparse_row_times_table_avx(
    indices: &[u32],
    values: &[f64],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    if values.contains(&0.0) {
        sparse_tile::<true>(indices, values, table, width, out);
    } else {
        sparse_tile::<false>(indices, values, table, width, out);
    }
}

/// The tiles of [`sparse_row_times_table_avx`]; `SKIP` as in
/// [`rows_tile`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sparse_tile<const SKIP: bool>(
    indices: &[u32],
    values: &[f64],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let tp = table.as_ptr();
    let op = out.as_mut_ptr();
    let mut c = 0;
    while c + 16 <= width {
        let o = op.add(c);
        let mut a = [
            _mm256_loadu_pd(o),
            _mm256_loadu_pd(o.add(4)),
            _mm256_loadu_pd(o.add(8)),
            _mm256_loadu_pd(o.add(12)),
        ];
        for (&i, &v) in indices.iter().zip(values) {
            if SKIP && v == 0.0 {
                continue;
            }
            let t = tp.add(i as usize * width + c);
            let xv = _mm256_set1_pd(v);
            a[0] = _mm256_add_pd(a[0], _mm256_mul_pd(xv, _mm256_loadu_pd(t)));
            a[1] = _mm256_add_pd(a[1], _mm256_mul_pd(xv, _mm256_loadu_pd(t.add(4))));
            a[2] = _mm256_add_pd(a[2], _mm256_mul_pd(xv, _mm256_loadu_pd(t.add(8))));
            a[3] = _mm256_add_pd(a[3], _mm256_mul_pd(xv, _mm256_loadu_pd(t.add(12))));
        }
        _mm256_storeu_pd(o, a[0]);
        _mm256_storeu_pd(o.add(4), a[1]);
        _mm256_storeu_pd(o.add(8), a[2]);
        _mm256_storeu_pd(o.add(12), a[3]);
        c += 16;
    }
    while c + 4 <= width {
        let o = op.add(c);
        let mut a = _mm256_loadu_pd(o);
        for (&i, &v) in indices.iter().zip(values) {
            if SKIP && v == 0.0 {
                continue;
            }
            let t = _mm256_loadu_pd(tp.add(i as usize * width + c));
            a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_set1_pd(v), t));
        }
        _mm256_storeu_pd(o, a);
        c += 4;
    }
    for c in c..width {
        let o = op.add(c);
        let mut acc = *o;
        for (&i, &v) in indices.iter().zip(values) {
            if SKIP && v == 0.0 {
                continue;
            }
            acc += v * *tp.add(i as usize * width + c);
        }
        *o = acc;
    }
}

/// Givens rotation of two equal-length rows, elementwise:
/// `(a, b) ← (c·a − s·b, s·a + c·b)` — the eigenvector update of the QL
/// iteration in [`crate::eigen`], which keeps its transform transposed
/// so that each rotation touches two contiguous rows.
///
/// # Panics
/// Panics when `a.len() != b.len()`.
pub(crate) fn givens_rows(a: &mut [f64], b: &mut [f64], c: f64, s: f64) {
    assert_eq!(a.len(), b.len(), "givens_rows: row length mismatch");
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; the body is safe code.
        unsafe { givens_rows_avx(a, b, c, s) };
        return;
    }
    givens_rows_fallback(a, b, c, s);
}

/// Scalar reference for [`givens_rows`].
#[inline(always)]
fn givens_rows_fallback(a: &mut [f64], b: &mut [f64], c: f64, s: f64) {
    for (ai, bi) in a.iter_mut().zip(b) {
        let f = *bi;
        *bi = s * *ai + c * f;
        *ai = c * *ai - s * f;
    }
}

/// AVX [`givens_rows`]: the scalar loop compiled 4 lanes wide. Each lane
/// performs the fallback's two multiplies and one add or subtract (AVX
/// alone has no FMA, and Rust never contracts), so the bits match.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn givens_rows_avx(a: &mut [f64], b: &mut [f64], c: f64, s: f64) {
    givens_rows_fallback(a, b, c, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::xorshift_matrix;

    fn block(n: usize, d: usize, seed: u64) -> Vec<f64> {
        xorshift_matrix(n, d, seed).into_vec()
    }

    #[test]
    fn rows_dot_is_bitwise_per_row_dot() {
        for (n, d) in [(1, 1), (3, 5), (7, 8), (13, 100), (64, 33), (50, 4)] {
            let x = block(n, d, 1);
            let w = block(1, d, 2);
            for bias in [0.0, -0.75] {
                let mut out = vec![f64::NAN; n];
                rows_dot(&x, d, &w, bias, &mut out);
                for i in 0..n {
                    let expect = dot(&x[i * d..(i + 1) * d], &w) + bias;
                    assert!(
                        out[i] == expect,
                        "row {i} (n={n}, d={d}, bias={bias}): {} vs {expect}",
                        out[i]
                    );
                }
            }
        }
    }

    #[test]
    fn rows_dot_fallback_matches_dispatch() {
        // Whatever path the runtime picks must equal the scalar
        // reference bit for bit — the cross-machine half of the
        // determinism contract.
        let (n, d) = (29, 57);
        let x = block(n, d, 3);
        let w = block(1, d, 4);
        let mut fast = vec![0.0; n];
        let mut slow = vec![0.0; n];
        rows_dot(&x, d, &w, 0.25, &mut fast);
        rows_dot_fallback(&x, d, &w, 0.25, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn rows_weighted_sum_is_bitwise_row_order() {
        for (n, d) in [(1, 1), (5, 3), (9, 8), (21, 100), (16, 17)] {
            let x = block(n, d, 5);
            let w = block(1, n, 6);
            let mut out = block(1, d, 7);
            let mut expect = out.clone();
            for i in 0..n {
                let row = &x[i * d..(i + 1) * d];
                for (oj, &xj) in expect.iter_mut().zip(row) {
                    *oj += w[i] * xj;
                }
            }
            rows_weighted_sum(&x, d, &w, &mut out);
            assert_eq!(out, expect, "n={n}, d={d}");
        }
    }

    #[test]
    fn rows_weighted_sum_fallback_matches_dispatch() {
        let (n, d) = (31, 40);
        let x = block(n, d, 8);
        let w = block(1, n, 9);
        let mut fast = vec![0.1; d];
        let mut slow = vec![0.1; d];
        rows_weighted_sum(&x, d, &w, &mut fast);
        rows_weighted_sum_fallback(&x, d, &w, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn gather_kernels_match_contiguous_bitwise() {
        for (n, d) in [(1, 1), (6, 5), (13, 100), (50, 8), (21, 33)] {
            let x = block(n, d, 10);
            let rows: Vec<&[f64]> = x.chunks_exact(d.max(1)).collect();
            let w = block(1, d, 11);
            let mut contiguous = vec![0.0; n];
            let mut gathered = vec![0.0; n];
            rows_dot(&x, d, &w, 0.5, &mut contiguous);
            rows_dot_gather(&rows, d, &w, 0.5, &mut gathered);
            assert_eq!(contiguous, gathered, "dot n={n} d={d}");

            let wr = block(1, n, 12);
            let mut gc = block(1, d, 13);
            let mut gg = gc.clone();
            rows_weighted_sum(&x, d, &wr, &mut gc);
            rows_weighted_sum_gather(&rows, d, &wr, &mut gg);
            assert_eq!(gc, gg, "wsum n={n} d={d}");
        }
    }

    #[test]
    fn idx_kernels_match_pregathered_bitwise() {
        // Indexing into the pool row table must equal gathering the rows
        // first — for identity, reversed, strided, and repeated index
        // lists (samples are permutations, but the kernel contract is
        // arbitrary indices).
        for (n, d) in [(1, 1), (9, 5), (13, 100), (50, 8), (21, 33)] {
            let x = block(n, d, 20);
            let rows: Vec<&[f64]> = x.chunks_exact(d.max(1)).collect();
            let w = block(1, d, 21);
            let patterns: Vec<Vec<usize>> = vec![
                (0..n).collect(),
                (0..n).rev().collect(),
                (0..n).step_by(2).collect(),
                (0..n).map(|i| (i * 7 + 3) % n).collect(),
            ];
            for idx in patterns {
                let gathered: Vec<&[f64]> = idx.iter().map(|&i| rows[i]).collect();
                let mut a = vec![0.0; idx.len()];
                let mut b = vec![0.0; idx.len()];
                rows_dot_gather(&gathered, d, &w, -0.25, &mut a);
                rows_dot_gather_idx(&rows, &idx, d, &w, -0.25, &mut b);
                assert_eq!(a, b, "dot n={n} d={d} idx={idx:?}");

                let wr = block(1, idx.len(), 22);
                let mut ga = block(1, d, 23);
                let mut gb = ga.clone();
                rows_weighted_sum_gather(&gathered, d, &wr, &mut ga);
                rows_weighted_sum_gather_idx(&rows, &idx, d, &wr, &mut gb);
                assert_eq!(ga, gb, "wsum n={n} d={d} idx={idx:?}");
            }
        }
    }

    #[test]
    fn givens_rows_fallback_matches_dispatch() {
        for n in [1, 7, 8, 13, 64, 257] {
            let (a0, b0) = (block(1, n, 30), block(1, n, 31));
            let (c, s) = (0.8, -0.6);
            let (mut fa, mut fb) = (a0.clone(), b0.clone());
            let (mut sa, mut sb) = (a0.clone(), b0.clone());
            givens_rows(&mut fa, &mut fb, c, s);
            givens_rows_fallback(&mut sa, &mut sb, c, s);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fa), bits(&sa), "a, n={n}");
            assert_eq!(bits(&fb), bits(&sb), "b, n={n}");
            assert_eq!(fa[0].to_bits(), (c * a0[0] - s * b0[0]).to_bits());
            assert_eq!(fb[0].to_bits(), (s * a0[0] + c * b0[0]).to_bits());
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A `d × width` table whose rows `i % 5 == 2` hold ±inf and NaN: a
    /// term of such a row that is not skipped turns its output NaN.
    fn poisoned_table(d: usize, width: usize, seed: u64) -> Vec<f64> {
        let mut t = block(d, width, seed);
        for (k, v) in t.iter_mut().enumerate() {
            if (k / width.max(1)) % 5 == 2 {
                *v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][k % 3];
            }
        }
        t
    }

    /// Output start values: nonzero, with `-0.0` in every fourth slot (an
    /// unskipped `0·t` term would turn it into `+0.0`).
    fn start_values(len: usize, seed: u64) -> Vec<f64> {
        let mut out = block(1, len, seed);
        out.iter_mut().step_by(4).for_each(|v| *v = -0.0);
        out
    }

    /// The block kernel's AVX dispatch against the scalar loop, bit for
    /// bit: every row-tile tail (1–9 rows), every column tail (widths
    /// 1–37), `d ∈ {0, 1, 7, 100}`, zero and `-0.0` entries of `x` over
    /// the ±inf/NaN table rows, rows of zeros only, and `out` starting
    /// from nonzero and `-0.0` values.
    #[test]
    fn rows_times_table_fallback_matches_dispatch() {
        for d in [0, 1, 7, 100] {
            for n in 1..=9 {
                let mut x = block(n, d, 40 + n as u64);
                for (k, v) in x.iter_mut().enumerate() {
                    let (r, i) = (k / d, k % d);
                    if i % 5 == 2 || r % 3 == 2 || (r * 7 + i) % 11 == 0 {
                        *v = if (r + i) % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                let rows: Vec<&[f64]> = (0..n).map(|r| &x[r * d..(r + 1) * d]).collect();
                for width in 1..=37 {
                    let table = poisoned_table(d, width, 50 + width as u64);
                    let start = start_values(n * width, 60);
                    let (mut fast, mut slow) = (start.clone(), start.clone());
                    rows_times_table(&rows, &table, width, &mut fast);
                    rows_times_table_fallback(&rows, &table, width, &mut slow);
                    assert_eq!(bits(&fast), bits(&slow), "d={d} n={n} width={width}");
                    assert!(
                        fast.iter().all(|v| !v.is_nan()),
                        "d={d} n={n} width={width}"
                    );
                    for r in (2..n).step_by(3) {
                        let o = r * width..(r + 1) * width;
                        assert_eq!(bits(&fast[o.clone()]), bits(&start[o]), "zero row {r}");
                    }
                }
            }
        }
    }

    /// The sparse kernel's AVX dispatch against the scalar loop, bit for
    /// bit, over the same widths and table heights, with stored zeros
    /// and `-0.0` values on the ±inf/NaN table rows.
    #[test]
    fn sparse_row_times_table_fallback_matches_dispatch() {
        for d in [0, 1, 7, 100] {
            let indices: Vec<u32> = (0..d as u32).filter(|i| i % 4 != 1).collect();
            let values: Vec<f64> = indices
                .iter()
                .zip(block(1, indices.len(), 70))
                .map(|(&i, v)| match i % 5 {
                    2 if i % 2 == 0 => 0.0,
                    2 => -0.0,
                    _ => v,
                })
                .collect();
            for width in 1..=37 {
                let table = poisoned_table(d, width, 80 + width as u64);
                let start = start_values(width, 90);
                let (mut fast, mut slow) = (start.clone(), start.clone());
                sparse_row_times_table(&indices, &values, &table, width, &mut fast);
                sparse_row_times_table_fallback(&indices, &values, &table, width, &mut slow);
                assert_eq!(bits(&fast), bits(&slow), "d={d} width={width}");
                assert!(fast.iter().all(|v| !v.is_nan()), "d={d} width={width}");
                let zeros = vec![0.0; indices.len()];
                let mut kept = start.clone();
                sparse_row_times_table(&indices, &zeros, &table, width, &mut kept);
                assert_eq!(bits(&kept), bits(&start), "zero row, d={d} width={width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "table shape mismatch")]
    fn rows_times_table_rejects_bad_shape() {
        let x = block(2, 3, 26);
        let rows: Vec<&[f64]> = vec![&x[..3], &x[..2]];
        let mut out = vec![0.0; 2 * 4];
        rows_times_table(&rows, &[0.0; 12], 4, &mut out);
    }

    #[test]
    #[should_panic(expected = "index out of table range")]
    fn sparse_row_times_table_rejects_out_of_range_index() {
        let mut out = vec![0.0; 4];
        sparse_row_times_table(&[0, 3], &[1.0, 1.0], &[0.0; 12], 4, &mut out);
    }

    #[test]
    fn idx_kernels_accept_empty_index_lists() {
        let x = block(4, 3, 24);
        let rows: Vec<&[f64]> = x.chunks_exact(3).collect();
        let mut out: Vec<f64> = vec![];
        rows_dot_gather_idx(&rows, &[], 3, &[0.0; 3], 0.0, &mut out);
        let mut g = vec![1.0, 2.0, 3.0];
        rows_weighted_sum_gather_idx(&rows, &[], 3, &[], &mut g);
        assert_eq!(g, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "index count mismatch")]
    fn idx_dot_rejects_bad_shape() {
        let x = block(2, 3, 25);
        let rows: Vec<&[f64]> = x.chunks_exact(3).collect();
        let mut out = vec![0.0; 2];
        rows_dot_gather_idx(&rows, &[0], 3, &[0.0; 3], 0.0, &mut out);
    }

    #[test]
    fn zero_rows_are_a_no_op() {
        let mut out: Vec<f64> = vec![];
        rows_dot(&[], 3, &[1.0, 2.0, 3.0], 0.0, &mut out);
        let mut g = vec![1.0, 2.0, 3.0];
        rows_weighted_sum(&[], 3, &[], &mut g);
        assert_eq!(g, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "block shape mismatch")]
    fn rows_dot_rejects_bad_shape() {
        let mut out = vec![0.0; 2];
        rows_dot(&[1.0; 5], 3, &[0.0; 3], 0.0, &mut out);
    }
}
