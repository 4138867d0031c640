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
//! * [`rows_dot_multi`] and [`rows_weighted_sum_multi`] (one block of
//!   rows against several requests, the lockstep multi-λ fold) produce,
//!   for every request, the bits of [`rows_dot`] and
//!   [`rows_weighted_sum`] over the same rows: each (row, request)
//!   margin keeps its own 4-lane accumulator and the bias last, and each
//!   gradient output starts from `out` and adds its rows in ascending
//!   order. The AVX bodies hold a 4-row × 2-request tile of margin
//!   accumulators (each weight load shared by four rows, each row load
//!   by two requests) and an 8-column × 4-request tile of gradient
//!   outputs (each row load shared by four requests).
//!   [`crate::blas::gemm_nt`] runs its `A·Bᵀ` through
//!   [`rows_dot_multi`] with `B`'s rows as the rows, `A`'s as the
//!   requests and zero biases: each entry is `dot(b_j, a_i) + 0.0`,
//!   which is `dot(a_i, b_j)` in every bit (NaN payloads aside, which
//!   Rust leaves unspecified) because `dot` never returns `-0.0`.
//! * [`sparse_row_outer_add`] (one sparse row times a weight vector,
//!   added into a row-major table: the draw-blocked sparse `Ψᵀ` of the
//!   covariance factor) adds, to each output, its terms in storage
//!   order and skips every column whose weight is `0.0` or `-0.0`. The
//!   AVX body holds 8 weights in two registers and keeps the old value
//!   through a blend where the weight is zero, so a zero weight never
//!   multiplies an infinite value or turns a `-0.0` output into `+0.0`.
//! * [`argmax_mismatches`] (max-entropy's probe verdict) counts the
//!   rows whose two class-score vectors have different argmaxes, over
//!   output-major class columns. Each compared entry is the scalar
//!   `s + scale·u` (then `+ scale·w`), a multiply then an add, and the
//!   argmax lets a later class win only when strictly greater (an
//!   ordered compare), so its verdicts are those of the per-row scalar
//!   loop, NaN, `±0.0` and ties included. The AVX-512 body compares 8
//!   rows per step with compare masks and masked blends, the AVX body 4
//!   with `blendv`.
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
//!   height; row and column tails keep the same per-output order. On a
//!   host with AVX-512F, dense tables of 8 or more columns run an
//!   AVX-512 body instead: a 4-row × 16-column tile in eight `__m512d`
//!   accumulators, then an 8-column tile, with the last `width % 8`
//!   columns through the AVX 4-column tile and single columns.
//!
//! The AVX and AVX-512 paths execute the same IEEE multiply/add DAG as
//! the scalar fallbacks (no FMA contraction), so results do not depend
//! on which path the runtime dispatch picks; a machine without AVX
//! produces the same bits, only slower. Unit tests pin both properties,
//! and call each body the host can run directly, so an AVX-512 host
//! still pins the AVX body.

use crate::vector::dot;
use std::ops::Range;

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
/// being pre-gathered into their own slice table. Same bitwise contract
/// as [`rows_dot_gather`] (per-row 4-lane reduction, bias last), with
/// the next block's rows software-prefetched through the index
/// indirection. The training engine packs its samples instead; this
/// kernel's caller is blinkbench's `linalg.simd.gather_idx_gbps` layer,
/// which measures random-order row streaming against the contiguous
/// [`rows_dot`].
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
    if width >= 8 && is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F (and with it AVX) presence just checked; every
        // row spans the table's height and `out` holds `rows.len()` rows
        // of `width` (asserted above).
        unsafe { rows_times_table_avx::<true>(rows, table, width, out) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if width >= 4 && is_x86_feature_detected!("avx") {
        // SAFETY: as above, with AVX presence just checked.
        unsafe { rows_times_table_avx::<false>(rows, table, width, out) };
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

/// `out[k·w.len() + c] += w[c] · v` for every stored entry `(k, v)` of
/// one sparse row, in storage order, and every column `c` whose weight
/// is not `0.0` or `-0.0`: the outer product of the row with `w` added
/// into a row-major table. A zero weight skips its column, so it never
/// multiplies an infinite `v` and never turns a `-0.0` output into
/// `+0.0`. Bit-identical to the per-column loop that skips zero weights.
///
/// # Panics
/// Panics when `indices.len() != values.len()` or an index names a table
/// row past `out.len() / w.len()`.
pub fn sparse_row_outer_add(indices: &[u32], values: &[f64], w: &[f64], out: &mut [f64]) {
    let width = w.len();
    assert_eq!(
        indices.len(),
        values.len(),
        "sparse_row_outer_add: index/value length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if width >= 4 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; the kernel checks each
        // index against the table height before it touches the row.
        unsafe { sparse_row_outer_add_avx(indices, values, w, out) };
        return;
    }
    sparse_row_outer_add_fallback(indices, values, w, out);
}

/// `out[q·ld + r] = dot(rows[r], w_q) + biases[q]`, where `w_q =
/// ws[q·d..(q+1)·d]`: the margins of `biases.len()` weight vectors over
/// one block of dense rows, each request's margins `ld` apart in `out`.
/// Every output is bit-identical to [`rows_dot`]'s for that row and
/// request (see module docs).
///
/// # Panics
/// Panics when `ws.len() != biases.len() * d`, any row's length differs
/// from `d`, `ld < rows.len()`, or `out` ends before the last request's
/// `rows.len()` outputs.
pub fn rows_dot_multi(
    rows: &[&[f64]],
    d: usize,
    ws: &[f64],
    biases: &[f64],
    ld: usize,
    out: &mut [f64],
) {
    let k = biases.len();
    assert_eq!(ws.len(), k * d, "rows_dot_multi: weight shape mismatch");
    assert!(
        rows.iter().all(|row| row.len() == d),
        "rows_dot_multi: row length mismatch"
    );
    assert!(
        ld >= rows.len() && (k == 0 || out.len() >= (k - 1) * ld + rows.len()),
        "rows_dot_multi: output shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; every row holds `d` values,
        // `ws` holds `k` of them and `out` every `q·ld + r` (asserted
        // above).
        unsafe { rows_dot_multi_avx(rows, d, ws, biases, ld, out) };
        return;
    }
    rows_dot_multi_fallback(rows, d, ws, biases, ld, out);
}

/// `out[q·d + j] += Σ_r cs[q·ld + r] · rows[r][j]` for every request `q <
/// out.len() / d`: the gradient partials of several requests over one
/// block of dense rows, each request's row coefficients `ld` apart in
/// `cs`. Each output adds its rows in ascending order, bit-identical to
/// [`rows_weighted_sum`] per request (see module docs).
///
/// # Panics
/// Panics when any row's length differs from `d`, `out.len()` is not a
/// multiple of `d`, `ld < rows.len()`, or `cs` ends before the last
/// request's `rows.len()` coefficients.
pub fn rows_weighted_sum_multi(rows: &[&[f64]], d: usize, cs: &[f64], ld: usize, out: &mut [f64]) {
    assert!(
        rows.iter().all(|row| row.len() == d),
        "rows_weighted_sum_multi: row length mismatch"
    );
    assert_eq!(
        out.len() % d.max(1),
        0,
        "rows_weighted_sum_multi: output shape mismatch"
    );
    let k = out.len() / d.max(1);
    assert!(
        ld >= rows.len() && (k == 0 || cs.len() >= (k - 1) * ld + rows.len()),
        "rows_weighted_sum_multi: coefficient shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if d >= 8 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked; every row holds `d` values
        // and `cs` every `q·ld + r` (asserted above).
        unsafe { rows_weighted_sum_multi_avx(rows, d, cs, ld, out) };
        return;
    }
    rows_weighted_sum_multi_fallback(rows, d, cs, ld, out);
}

/// Scalar reference for [`rows_dot_multi`]: per request, per row [`dot`]
/// plus the bias.
fn rows_dot_multi_fallback(
    rows: &[&[f64]],
    d: usize,
    ws: &[f64],
    biases: &[f64],
    ld: usize,
    out: &mut [f64],
) {
    for (q, &bias) in biases.iter().enumerate() {
        let w = &ws[q * d..(q + 1) * d];
        for (o, row) in out[q * ld..].iter_mut().zip(rows) {
            *o = dot(row, w) + bias;
        }
    }
}

/// Scalar reference for [`rows_weighted_sum_multi`]: per request, the
/// row-order axpy of [`rows_weighted_sum_fallback`].
fn rows_weighted_sum_multi_fallback(
    rows: &[&[f64]],
    d: usize,
    cs: &[f64],
    ld: usize,
    out: &mut [f64],
) {
    for (q, out) in out.chunks_exact_mut(d.max(1)).enumerate() {
        for (row, &c) in rows.iter().zip(&cs[q * ld..]) {
            for (o, &x) in out.iter_mut().zip(*row) {
                *o += c * x;
            }
        }
    }
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

/// Table row `k` of [`sparse_row_outer_add`], checked to lie inside a
/// `len`-long table of `width`-wide rows. The kernels check each index
/// as they reach it: a separate pass with an early exit cost a third of
/// the kernel's time.
#[inline(always)]
fn outer_row(k: u32, width: usize, len: usize) -> usize {
    let k = k as usize;
    assert!(
        (k + 1) * width <= len,
        "sparse_row_outer_add: index out of table range"
    );
    k
}

/// Scalar reference for [`sparse_row_outer_add`]: per stored entry, one
/// axpy of the nonzero weights into its table row.
fn sparse_row_outer_add_fallback(indices: &[u32], values: &[f64], w: &[f64], out: &mut [f64]) {
    let width = w.len();
    for (&k, &v) in indices.iter().zip(values) {
        let k = outer_row(k, width, out.len());
        let row = &mut out[k * width..(k + 1) * width];
        for (o, &wc) in row.iter_mut().zip(w) {
            if wc != 0.0 {
                *o += wc * v;
            }
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
        // Two-stage software pipeline against a random index order: a
        // volatile touch of each row ~6 blocks out forces the dTLB walk
        // early (plain `_mm_prefetch` is dropped on a dTLB miss on
        // common x86 cores, so prefetching a not-yet-mapped random row
        // does nothing), then full-line prefetches one block out run
        // with a warm TLB.
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

/// AVX [`rows_dot_multi`]: 4-row × 2-request register tiles (a lone last
/// request runs a 4 × 1 tile), then the last `rows.len() % 4` rows one
/// [`dot`] at a time.
///
/// # Safety
/// The CPU must support AVX, and the shapes must satisfy the asserts of
/// [`rows_dot_multi`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_dot_multi_avx(
    rows: &[&[f64]],
    d: usize,
    ws: &[f64],
    biases: &[f64],
    ld: usize,
    out: &mut [f64],
) {
    let k = biases.len();
    let (wp, op) = (ws.as_ptr(), out.as_mut_ptr());
    let mut r = 0;
    while r + 4 <= rows.len() {
        let x = [rows[r], rows[r + 1], rows[r + 2], rows[r + 3]].map(<[f64]>::as_ptr);
        let mut q = 0;
        while q + 2 <= k {
            dot_tile::<4, 2>(
                x,
                [wp.add(q * d), wp.add((q + 1) * d)],
                d,
                [biases[q], biases[q + 1]],
                [op.add(q * ld + r), op.add((q + 1) * ld + r)],
            );
            q += 2;
        }
        if q < k {
            dot_tile::<4, 1>(x, [wp.add(q * d)], d, [biases[q]], [op.add(q * ld + r)]);
        }
        r += 4;
    }
    for (r, row) in rows.iter().enumerate().skip(r) {
        for (q, &bias) in biases.iter().enumerate() {
            out[q * ld + r] = dot(row, &ws[q * d..(q + 1) * d]) + bias;
        }
    }
}

/// `R` rows × `Q` requests of [`rows_dot_multi_avx`]: one 4-lane
/// accumulator per (row, request), each weight load shared by the `R`
/// rows and each row load by the `Q` requests; lanes, tail and bias
/// combine as in [`rows_dot_avx`]. Writes `out[q][r]`.
///
/// # Safety
/// The CPU must support AVX; every `x[r]` and `w[q]` must point at `d`
/// readable values and every `out[q]` at `R` writable ones.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dot_tile<const R: usize, const Q: usize>(
    x: [*const f64; R],
    w: [*const f64; Q],
    d: usize,
    bias: [f64; Q],
    out: [*mut f64; Q],
) {
    use std::arch::x86_64::*;
    let chunks = d / 4;
    let mut acc = [[_mm256_setzero_pd(); Q]; R];
    for c in 0..chunks {
        let j = c * 4;
        let mut wv = [_mm256_setzero_pd(); Q];
        for (v, p) in wv.iter_mut().zip(w) {
            *v = _mm256_loadu_pd(p.add(j));
        }
        for (a, p) in acc.iter_mut().zip(x) {
            let xv = _mm256_loadu_pd(p.add(j));
            for (aq, v) in a.iter_mut().zip(wv) {
                *aq = _mm256_add_pd(*aq, _mm256_mul_pd(xv, v));
            }
        }
    }
    for (r, (a, p)) in acc.iter().zip(x).enumerate() {
        for q in 0..Q {
            let mut l = [0.0f64; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), a[q]);
            let mut e = 0.0;
            for j in chunks * 4..d {
                e += *p.add(j) * *w[q].add(j);
            }
            *out[q].add(r) = l[0] + l[1] + l[2] + l[3] + e + bias[q];
        }
    }
}

/// AVX [`rows_weighted_sum_multi`]: requests four at a time, then one at
/// a time, through [`wsum_tile`].
///
/// # Safety
/// The CPU must support AVX, `d` must be nonzero, and the shapes must
/// satisfy the asserts of [`rows_weighted_sum_multi`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_weighted_sum_multi_avx(
    rows: &[&[f64]],
    d: usize,
    cs: &[f64],
    ld: usize,
    out: &mut [f64],
) {
    let k = out.len() / d;
    let (cp, op) = (cs.as_ptr(), out.as_mut_ptr());
    let mut q = 0;
    while q + 4 <= k {
        wsum_tile::<4>(
            rows,
            d,
            std::array::from_fn(|i| cp.add((q + i) * ld)),
            std::array::from_fn(|i| op.add((q + i) * d)),
        );
        q += 4;
    }
    for q in q..k {
        wsum_tile::<1>(rows, d, [cp.add(q * ld)], [op.add(q * d)]);
    }
}

/// `Q` requests of [`rows_weighted_sum_multi_avx`]: 8-column tiles (two
/// `__m256d` accumulators per request, each row's two loads shared by
/// the `Q` requests), then a 4-column tile, then single columns. Every
/// output starts from its `out` value and adds `c·x` in ascending row
/// order.
///
/// # Safety
/// The CPU must support AVX; every row must hold `d` values, every
/// `c[q]` must point at `rows.len()` readable values and every `out[q]`
/// at `d` writable ones.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn wsum_tile<const Q: usize>(
    rows: &[&[f64]],
    d: usize,
    c: [*const f64; Q],
    out: [*mut f64; Q],
) {
    use std::arch::x86_64::*;
    let mut j = 0;
    while j + 8 <= d {
        let mut acc = [[_mm256_setzero_pd(); 2]; Q];
        for (a, o) in acc.iter_mut().zip(out) {
            *a = [_mm256_loadu_pd(o.add(j)), _mm256_loadu_pd(o.add(j + 4))];
        }
        for (r, row) in rows.iter().enumerate() {
            let p = row.as_ptr().add(j);
            let (x0, x1) = (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)));
            for (a, cq) in acc.iter_mut().zip(c) {
                let cv = _mm256_set1_pd(*cq.add(r));
                a[0] = _mm256_add_pd(a[0], _mm256_mul_pd(cv, x0));
                a[1] = _mm256_add_pd(a[1], _mm256_mul_pd(cv, x1));
            }
        }
        for (a, o) in acc.iter().zip(out) {
            _mm256_storeu_pd(o.add(j), a[0]);
            _mm256_storeu_pd(o.add(j + 4), a[1]);
        }
        j += 8;
    }
    if j + 4 <= d {
        let mut acc = [_mm256_setzero_pd(); Q];
        for (a, o) in acc.iter_mut().zip(out) {
            *a = _mm256_loadu_pd(o.add(j));
        }
        for (r, row) in rows.iter().enumerate() {
            let xv = _mm256_loadu_pd(row.as_ptr().add(j));
            for (a, cq) in acc.iter_mut().zip(c) {
                *a = _mm256_add_pd(*a, _mm256_mul_pd(_mm256_set1_pd(*cq.add(r)), xv));
            }
        }
        for (a, o) in acc.iter().zip(out) {
            _mm256_storeu_pd(o.add(j), *a);
        }
        j += 4;
    }
    for j in j..d {
        for (cq, o) in c.iter().zip(out) {
            let mut acc = *o.add(j);
            for (r, row) in rows.iter().enumerate() {
                acc += *cq.add(r) * *row.as_ptr().add(j);
            }
            *o.add(j) = acc;
        }
    }
}

/// AVX [`rows_times_table`]: blocks of four rows, then the last
/// `rows.len() % 4` rows one at a time, through the AVX-512 tiles of
/// [`rows_tile_avx512`] when `WIDE` and the AVX tiles of [`rows_tile`]
/// otherwise.
///
/// # Safety
/// The CPU must support AVX, and AVX-512F when `WIDE`, and the shapes
/// must satisfy the asserts of [`rows_times_table`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_times_table_avx<const WIDE: bool>(
    rows: &[&[f64]],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    let mut r = 0;
    while r + 4 <= rows.len() {
        let block = [rows[r], rows[r + 1], rows[r + 2], rows[r + 3]];
        table_tile::<4, WIDE>(block, table, width, &mut out[r * width..(r + 4) * width]);
        r += 4;
    }
    for (row, out) in rows[r..]
        .iter()
        .zip(out[r * width..].chunks_exact_mut(width))
    {
        table_tile::<1, WIDE>([row], table, width, out);
    }
}

/// One `R`-row tile of [`rows_times_table_avx`]: rows with no zero
/// entry run without the per-term zero tests.
///
/// # Safety
/// As for [`rows_times_table_avx`], with `out` holding `R` rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn table_tile<const R: usize, const WIDE: bool>(
    rows: [&[f64]; R],
    table: &[f64],
    width: usize,
    out: &mut [f64],
) {
    let skip = rows.iter().any(|row| row.contains(&0.0));
    match (WIDE, skip) {
        (true, true) => rows_tile_avx512::<R, true>(rows, table, width, out),
        (true, false) => rows_tile_avx512::<R, false>(rows, table, width, out),
        (false, true) => rows_tile::<R, true>(rows, table, width, out, 0),
        (false, false) => rows_tile::<R, false>(rows, table, width, out, 0),
    }
}

/// `R` rows of [`rows_times_table_avx`] on AVX-512: 16-column tiles (two
/// `__m512d` accumulators per row, eight for four rows, one table load
/// pair shared by the `R` rows), then one 8-column tile, then the last
/// `width % 8` columns through [`rows_tile`]'s 4-column tile and single
/// columns. Each lane multiplies then adds, as the AVX tiles do, so
/// every output gets the same bits.
///
/// # Safety
/// The CPU must support AVX-512F; every row spans the table's height and
/// `out` holds `R` rows of `width`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_tile_avx512<const R: usize, const SKIP: bool>(
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
    while c + 16 <= width {
        let mut acc = [[_mm512_setzero_pd(); 2]; R];
        for (r, a) in acc.iter_mut().enumerate() {
            let o = op.add(r * width + c);
            *a = [_mm512_loadu_pd(o), _mm512_loadu_pd(o.add(8))];
        }
        for i in 0..d {
            let t = tp.add(i * width + c);
            let (t0, t1) = (_mm512_loadu_pd(t), _mm512_loadu_pd(t.add(8)));
            for (a, x) in acc.iter_mut().zip(xp) {
                let x = *x.add(i);
                if SKIP && x == 0.0 {
                    continue;
                }
                let xv = _mm512_set1_pd(x);
                a[0] = _mm512_add_pd(a[0], _mm512_mul_pd(xv, t0));
                a[1] = _mm512_add_pd(a[1], _mm512_mul_pd(xv, t1));
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let o = op.add(r * width + c);
            _mm512_storeu_pd(o, a[0]);
            _mm512_storeu_pd(o.add(8), a[1]);
        }
        c += 16;
    }
    if c + 8 <= width {
        let mut acc = [_mm512_setzero_pd(); R];
        for (r, a) in acc.iter_mut().enumerate() {
            *a = _mm512_loadu_pd(op.add(r * width + c));
        }
        for i in 0..d {
            let t0 = _mm512_loadu_pd(tp.add(i * width + c));
            for (a, x) in acc.iter_mut().zip(xp) {
                let x = *x.add(i);
                if SKIP && x == 0.0 {
                    continue;
                }
                *a = _mm512_add_pd(*a, _mm512_mul_pd(_mm512_set1_pd(x), t0));
            }
        }
        for (r, a) in acc.iter().enumerate() {
            _mm512_storeu_pd(op.add(r * width + c), *a);
        }
        c += 8;
    }
    rows_tile::<R, SKIP>(rows, table, width, out, c);
}

/// `R` rows of [`rows_times_table_avx`], columns `first..width`: 8-column
/// tiles (two `__m256d` accumulators per row, one table load shared by
/// the `R` rows), then a 4-column tile, then single columns, each with
/// the `R` rows' sums in flight together. Every output starts from its
/// `out` value and adds `x·t` in ascending `i`, skipping zero `x` when
/// `SKIP` (callers pass `false` only for rows without zeros).
///
/// # Safety
/// The CPU must support AVX; every row spans the table's height and
/// `out` holds `R` rows of `width`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn rows_tile<const R: usize, const SKIP: bool>(
    rows: [&[f64]; R],
    table: &[f64],
    width: usize,
    out: &mut [f64],
    first: usize,
) {
    use std::arch::x86_64::*;
    let d = rows[0].len();
    let tp = table.as_ptr();
    let op = out.as_mut_ptr();
    let xp = rows.map(<[f64]>::as_ptr);
    let mut c = first;
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
        let mut acc: [f64; R] = std::array::from_fn(|r| *op.add(r * width + c));
        for i in 0..d {
            let t = *tp.add(i * width + c);
            for (a, x) in acc.iter_mut().zip(xp) {
                let x = *x.add(i);
                if SKIP && x == 0.0 {
                    continue;
                }
                *a += x * t;
            }
        }
        for (r, a) in acc.iter().enumerate() {
            *op.add(r * width + c) = *a;
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

/// AVX [`sparse_row_outer_add`]: 8-column tiles (two `__m256d` weight
/// registers), then a 4-column tile, then single columns. Each tile
/// walks the stored entries in order, adding `w·v` to its table row
/// through a blend that keeps the old value in zero-weight columns.
///
/// # Safety
/// The CPU must support AVX and `w` must hold at least 4 weights.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sparse_row_outer_add_avx(indices: &[u32], values: &[f64], w: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let (width, len) = (w.len(), out.len());
    let (wp, op) = (w.as_ptr(), out.as_mut_ptr());
    let zero = _mm256_setzero_pd();
    let mut c = 0;
    while c + 8 <= width {
        let w0 = _mm256_loadu_pd(wp.add(c));
        let w1 = _mm256_loadu_pd(wp.add(c + 4));
        // Rust's `w != 0.0`: true for NaN too.
        let m0 = _mm256_cmp_pd(w0, zero, _CMP_NEQ_UQ);
        let m1 = _mm256_cmp_pd(w1, zero, _CMP_NEQ_UQ);
        for (&k, &v) in indices.iter().zip(values) {
            let o = op.add(outer_row(k, width, len) * width + c);
            let xv = _mm256_set1_pd(v);
            let (a0, a1) = (_mm256_loadu_pd(o), _mm256_loadu_pd(o.add(4)));
            let s0 = _mm256_add_pd(a0, _mm256_mul_pd(w0, xv));
            let s1 = _mm256_add_pd(a1, _mm256_mul_pd(w1, xv));
            _mm256_storeu_pd(o, _mm256_blendv_pd(a0, s0, m0));
            _mm256_storeu_pd(o.add(4), _mm256_blendv_pd(a1, s1, m1));
        }
        c += 8;
    }
    if c + 4 <= width {
        let w0 = _mm256_loadu_pd(wp.add(c));
        let m0 = _mm256_cmp_pd(w0, zero, _CMP_NEQ_UQ);
        for (&k, &v) in indices.iter().zip(values) {
            let o = op.add(outer_row(k, width, len) * width + c);
            let a0 = _mm256_loadu_pd(o);
            let s0 = _mm256_add_pd(a0, _mm256_mul_pd(w0, _mm256_set1_pd(v)));
            _mm256_storeu_pd(o, _mm256_blendv_pd(a0, s0, m0));
        }
        c += 4;
    }
    for c in c..width {
        let wc = *wp.add(c);
        if wc == 0.0 {
            continue;
        }
        for (&k, &v) in indices.iter().zip(values) {
            *op.add(outer_row(k, width, len) * width + c) += wc * v;
        }
    }
}

/// A body of [`argmax_mismatches`]: the dispatcher or one of the bodies
/// it picks from.
pub type ArgmaxMismatchKernel =
    fn(&[f64], &[f64], f64, Option<(&[f64], f64)>, usize, Range<usize>) -> usize;

/// The number of rows `j` in `rows` whose compared class-score vectors
/// have different argmaxes. The scores are output-major: class `c` of
/// row `j` sits at `c·ld + j` of `base`, `u` and `w`, with `ld =
/// base.len() / classes`. One-stage (`w = None`) compares `a = base`
/// with `b = base + scale_u·u`; two-stage compares `a = base +
/// scale_u·u` with `b = a + scale_w·w`, each entry a multiply then an
/// add (no FMA). The argmax keeps the first class and lets a later one
/// win only when strictly greater (an ordered compare), so ties keep
/// the lower index, `0.0` and `-0.0` tie, and a NaN never wins nor is
/// beaten once first. The AVX-512 body compares 8 rows per step, the AVX
/// body 4, and leftover rows go through the scalar body; every body
/// computes the same entries and verdicts, so the count never depends
/// on the dispatch.
///
/// # Panics
/// Panics when `classes` is zero or does not divide `base.len()`, `u`
/// or `w` differs from `base` in length, or `rows` runs past the last
/// row.
pub fn argmax_mismatches(
    base: &[f64],
    u: &[f64],
    scale_u: f64,
    w: Option<(&[f64], f64)>,
    classes: usize,
    rows: Range<usize>,
) -> usize {
    let ld = class_stride(base, u, w, classes, &rows);
    #[cfg(target_arch = "x86_64")]
    if rows.len() >= 8 && is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F presence just checked; `class_stride` checked
        // that every class column holds the rows.
        return unsafe { argmax_mismatches_avx512(base, u, scale_u, w, ld, classes, rows) };
    }
    #[cfg(target_arch = "x86_64")]
    if rows.len() >= 4 && is_x86_feature_detected!("avx") {
        // SAFETY: AVX presence just checked, as above.
        return unsafe { argmax_mismatches_avx(base, u, scale_u, w, ld, classes, rows) };
    }
    argmax_mismatches_scalar(base, u, scale_u, w, ld, classes, rows)
}

/// The column stride `ld` of the scores, after checking the shapes
/// [`argmax_mismatches`] documents.
pub(crate) fn class_stride(
    base: &[f64],
    u: &[f64],
    w: Option<(&[f64], f64)>,
    classes: usize,
    rows: &Range<usize>,
) -> usize {
    let len = base.len();
    assert!(
        classes > 0 && len.is_multiple_of(classes),
        "argmax_mismatches: {len} scores are not whole rows of {classes} classes"
    );
    assert_eq!(u.len(), len, "argmax_mismatches: u length mismatch");
    if let Some((w, _)) = w {
        assert_eq!(w.len(), len, "argmax_mismatches: w length mismatch");
    }
    let ld = len / classes;
    assert!(
        rows.start <= rows.end && rows.end <= ld,
        "argmax_mismatches: rows {rows:?} of {ld}"
    );
    ld
}

/// Scalar [`argmax_mismatches`]: one row at a time, both argmaxes as
/// branchless selects.
#[allow(clippy::too_many_arguments)]
pub(crate) fn argmax_mismatches_scalar(
    base: &[f64],
    u: &[f64],
    scale_u: f64,
    w: Option<(&[f64], f64)>,
    ld: usize,
    classes: usize,
    rows: Range<usize>,
) -> usize {
    let pair = |e: usize| {
        let s = base[e];
        let sn = s + scale_u * u[e];
        match w {
            None => (s, sn),
            Some((w, sw)) => (sn, sn + sw * w[e]),
        }
    };
    rows.filter(|&j| {
        let (mut top_a, mut top_b) = pair(j);
        let (mut best_a, mut best_b) = (0, 0);
        for c in 1..classes {
            let (a, b) = pair(c * ld + j);
            let (wins_a, wins_b) = (a > top_a, b > top_b);
            best_a = if wins_a { c } else { best_a };
            top_a = if wins_a { a } else { top_a };
            best_b = if wins_b { c } else { best_b };
            top_b = if wins_b { b } else { top_b };
        }
        best_a != best_b
    })
    .count()
}

/// AVX [`argmax_mismatches`]: 4 rows per step, the class index of each
/// lane's maximum kept as an `f64` and both updated by `blendv` under a
/// `_CMP_GT_OQ` mask; the last `rows.len() % 4` rows through the scalar
/// body.
///
/// # Safety
/// The CPU must support AVX, and the shapes must pass `class_stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn argmax_mismatches_avx(
    base: &[f64],
    u: &[f64],
    scale_u: f64,
    w: Option<(&[f64], f64)>,
    ld: usize,
    classes: usize,
    rows: Range<usize>,
) -> usize {
    use std::arch::x86_64::*;
    let (bp, up) = (base.as_ptr(), u.as_ptr());
    let (wp, sw) = w.map_or((up, 0.0), |(w, sw)| (w.as_ptr(), sw));
    let (suv, swv) = (_mm256_set1_pd(scale_u), _mm256_set1_pd(sw));
    let two_stage = w.is_some();
    let pair = |e: usize| {
        let s = _mm256_loadu_pd(bp.add(e));
        let sn = _mm256_add_pd(s, _mm256_mul_pd(suv, _mm256_loadu_pd(up.add(e))));
        if two_stage {
            let b = _mm256_add_pd(sn, _mm256_mul_pd(swv, _mm256_loadu_pd(wp.add(e))));
            (sn, b)
        } else {
            (s, sn)
        }
    };
    let mut count = 0;
    let mut j = rows.start;
    while j + 4 <= rows.end {
        let (mut top_a, mut top_b) = pair(j);
        let (mut best_a, mut best_b) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for c in 1..classes {
            let (a, b) = pair(c * ld + j);
            let cv = _mm256_set1_pd(c as f64);
            let wins_a = _mm256_cmp_pd::<_CMP_GT_OQ>(a, top_a);
            let wins_b = _mm256_cmp_pd::<_CMP_GT_OQ>(b, top_b);
            best_a = _mm256_blendv_pd(best_a, cv, wins_a);
            top_a = _mm256_blendv_pd(top_a, a, wins_a);
            best_b = _mm256_blendv_pd(best_b, cv, wins_b);
            top_b = _mm256_blendv_pd(top_b, b, wins_b);
        }
        let differ = _mm256_cmp_pd::<_CMP_NEQ_OQ>(best_a, best_b);
        count += _mm256_movemask_pd(differ).count_ones() as usize;
        j += 4;
    }
    count + argmax_mismatches_scalar(base, u, scale_u, w, ld, classes, j..rows.end)
}

/// AVX-512 [`argmax_mismatches`]: as the AVX body, 8 rows per step, with
/// `_CMP_GT_OQ` compare masks and masked blends.
///
/// # Safety
/// The CPU must support AVX-512F, and the shapes must pass
/// `class_stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn argmax_mismatches_avx512(
    base: &[f64],
    u: &[f64],
    scale_u: f64,
    w: Option<(&[f64], f64)>,
    ld: usize,
    classes: usize,
    rows: Range<usize>,
) -> usize {
    use std::arch::x86_64::*;
    let (bp, up) = (base.as_ptr(), u.as_ptr());
    let (wp, sw) = w.map_or((up, 0.0), |(w, sw)| (w.as_ptr(), sw));
    let (suv, swv) = (_mm512_set1_pd(scale_u), _mm512_set1_pd(sw));
    let two_stage = w.is_some();
    let pair = |e: usize| {
        let s = _mm512_loadu_pd(bp.add(e));
        let sn = _mm512_add_pd(s, _mm512_mul_pd(suv, _mm512_loadu_pd(up.add(e))));
        if two_stage {
            let b = _mm512_add_pd(sn, _mm512_mul_pd(swv, _mm512_loadu_pd(wp.add(e))));
            (sn, b)
        } else {
            (s, sn)
        }
    };
    let mut count = 0;
    let mut j = rows.start;
    while j + 8 <= rows.end {
        let (mut top_a, mut top_b) = pair(j);
        let (mut best_a, mut best_b) = (_mm512_setzero_pd(), _mm512_setzero_pd());
        for c in 1..classes {
            let (a, b) = pair(c * ld + j);
            let cv = _mm512_set1_pd(c as f64);
            let wins_a = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(a, top_a);
            let wins_b = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(b, top_b);
            best_a = _mm512_mask_blend_pd(wins_a, best_a, cv);
            top_a = _mm512_mask_blend_pd(wins_a, top_a, a);
            best_b = _mm512_mask_blend_pd(wins_b, best_b, cv);
            top_b = _mm512_mask_blend_pd(wins_b, top_b, b);
        }
        count += _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(best_a, best_b).count_ones() as usize;
        j += 8;
    }
    count + argmax_mismatches_scalar(base, u, scale_u, w, ld, classes, j..rows.end)
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
        // Indexing into a row table must equal gathering the rows
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
                    let mut slow = start.clone();
                    rows_times_table_fallback(&rows, &table, width, &mut slow);
                    for (body, kernel) in rows_times_table_bodies() {
                        let tag = format!("{body}: d={d} n={n} width={width}");
                        let mut fast = start.clone();
                        kernel(&rows, &table, width, &mut fast);
                        assert_eq!(bits(&fast), bits(&slow), "{tag}");
                        assert!(fast.iter().all(|v| !v.is_nan()), "{tag}");
                        for r in (2..n).step_by(3) {
                            let o = r * width..(r + 1) * width;
                            assert_eq!(
                                bits(&fast[o.clone()]),
                                bits(&start[o]),
                                "{tag}: zero row {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    type TableKernel = fn(&[&[f64]], &[f64], usize, &mut [f64]);

    /// The dispatcher and every [`rows_times_table`] body this host can
    /// run, called directly: the dispatcher picks only the widest.
    fn rows_times_table_bodies() -> Vec<(&'static str, TableKernel)> {
        let mut bodies: Vec<(&'static str, TableKernel)> = vec![("dispatch", rows_times_table)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx") {
                // SAFETY: AVX presence just checked; the tests pass
                // shape-checked inputs.
                bodies.push(("avx", |rows, table, width, out| unsafe {
                    rows_times_table_avx::<false>(rows, table, width, out)
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F presence just checked, as above.
                bodies.push(("avx512", |rows, table, width, out| unsafe {
                    rows_times_table_avx::<true>(rows, table, width, out)
                }));
            }
        }
        bodies
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

    /// The outer-product kernel's AVX dispatch against the scalar loop
    /// (NaN bits canonical), over widths 1–20 (8-, 4- and 1-column
    /// tiles), empty rows and rows with ±inf, NaN, `0.0` and `-0.0`
    /// values, weights with `0.0`, `-0.0`, ±inf and NaN, and a table
    /// starting from nonzero and `-0.0` values. A zero-weight column
    /// keeps its start value in every bit, even under an infinite `v`.
    #[test]
    fn sparse_row_outer_add_fallback_matches_dispatch() {
        let d = 23;
        for nnz_every in [1, 2, 5, d + 1] {
            let indices: Vec<u32> = (0..d as u32)
                .filter(|k| k % nnz_every as u32 == 0)
                .collect();
            let values: Vec<f64> = indices
                .iter()
                .zip(block(1, indices.len(), 110))
                .map(|(&k, v)| match k % 7 {
                    1 => f64::INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 if k % 2 == 0 => f64::NEG_INFINITY,
                    6 if k % 3 == 0 => f64::NAN,
                    _ => v,
                })
                .collect();
            for width in 1..=20 {
                let w: Vec<f64> = block(1, width, 120 + width as u64)
                    .into_iter()
                    .enumerate()
                    .map(|(c, v)| match c % 6 {
                        1 => 0.0,
                        4 => -0.0,
                        5 if c % 4 == 1 => f64::INFINITY,
                        5 if c % 4 == 3 => f64::NAN,
                        _ => v,
                    })
                    .collect();
                let start = start_values(d * width, 130);
                let (mut fast, mut slow) = (start.clone(), start.clone());
                sparse_row_outer_add(&indices, &values, &w, &mut fast);
                sparse_row_outer_add_fallback(&indices, &values, &w, &mut slow);
                let what = format!("nnz every {nnz_every}, width {width}");
                assert_eq!(
                    bits_nan_canonical(&fast),
                    bits_nan_canonical(&slow),
                    "{what}"
                );
                for (e, (f, s0)) in fast.iter().zip(&start).enumerate() {
                    if w[e % width] == 0.0 {
                        assert_eq!(f.to_bits(), s0.to_bits(), "{what}: entry {e}");
                    }
                }
            }
        }
    }

    /// Bits with every NaN mapped to one value: Rust leaves NaN payloads
    /// and signs unspecified, so two equal DAGs may disagree on them.
    fn bits_nan_canonical(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// `n` rows of length `d` with ±0 entries everywhere and ±inf/NaN in
    /// row 5 (so blocks of up to five rows stay finite).
    fn special_rows(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut x = block(n, d, seed);
        for (k, v) in x.iter_mut().enumerate() {
            let (r, i) = (k / d, k % d);
            if (r * 3 + i) % 7 == 1 {
                *v = if (r + i) % 2 == 0 { 0.0 } else { -0.0 };
            } else if r == 5 && i % 3 == 0 {
                *v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(i / 3) % 3];
            }
        }
        x
    }

    /// The multi-request margin kernel's AVX dispatch against its scalar
    /// fallback, bit for bit: every row tail (1–9 rows), every request
    /// tail of the pair tile (1–5 requests), `d ∈ {0, 1, 7, 8, 13, 100}`,
    /// ±0 and ±inf/NaN entries, with gaps between the requests' outputs
    /// left untouched. The fallback is pinned to per-request
    /// `rows_dot_gather`.
    #[test]
    fn rows_dot_multi_fallback_matches_dispatch() {
        for d in [0, 1, 7, 8, 13, 100] {
            for n in 1..=9 {
                let x = special_rows(n, d, 100 + n as u64);
                let rows: Vec<&[f64]> = (0..n).map(|r| &x[r * d..(r + 1) * d]).collect();
                for k in 1..=5 {
                    let mut ws = block(k, d, 110 + k as u64);
                    if d > 2 {
                        ws[2] = -0.0;
                    }
                    let biases: Vec<f64> = (0..k).map(|q| [0.0, -0.0, 0.75][q % 3]).collect();
                    let ld = n + 3;
                    let start = start_values(k * ld, 120);
                    let (mut fast, mut slow) = (start.clone(), start.clone());
                    rows_dot_multi(&rows, d, &ws, &biases, ld, &mut fast);
                    rows_dot_multi_fallback(&rows, d, &ws, &biases, ld, &mut slow);
                    let tag = format!("d={d} n={n} k={k}");
                    assert_eq!(
                        bits_nan_canonical(&fast),
                        bits_nan_canonical(&slow),
                        "{tag}"
                    );
                    for q in 0..k {
                        let mut solo = vec![0.0; n];
                        rows_dot_gather(&rows, d, &ws[q * d..(q + 1) * d], biases[q], &mut solo);
                        let o = &slow[q * ld..q * ld + n];
                        assert_eq!(bits_nan_canonical(o), bits_nan_canonical(&solo), "{tag}");
                        let gap = q * ld + n..(q + 1) * ld;
                        assert_eq!(bits(&slow[gap.clone()]), bits(&start[gap]), "{tag}");
                    }
                }
            }
        }
    }

    /// The multi-request gradient kernel's AVX dispatch against its
    /// scalar fallback, bit for bit, over the same shapes, with
    /// coefficients `ld` apart, ±0 coefficients, and `out` starting from
    /// nonzero and `-0.0` values. The fallback is pinned to per-request
    /// `rows_weighted_sum_gather`.
    #[test]
    fn rows_weighted_sum_multi_fallback_matches_dispatch() {
        for d in [0, 1, 7, 8, 13, 100] {
            for n in 1..=9 {
                let x = special_rows(n, d, 130 + n as u64);
                let rows: Vec<&[f64]> = (0..n).map(|r| &x[r * d..(r + 1) * d]).collect();
                for k in 1..=5 {
                    let ld = n + 2;
                    let mut cs = block(k, ld, 140 + k as u64);
                    cs.iter_mut().step_by(3).for_each(|c| *c = -0.0);
                    let start = start_values(k * d, 150);
                    let (mut fast, mut slow) = (start.clone(), start.clone());
                    rows_weighted_sum_multi(&rows, d, &cs, ld, &mut fast);
                    rows_weighted_sum_multi_fallback(&rows, d, &cs, ld, &mut slow);
                    let tag = format!("d={d} n={n} k={k}");
                    assert_eq!(
                        bits_nan_canonical(&fast),
                        bits_nan_canonical(&slow),
                        "{tag}"
                    );
                    for q in 0..k {
                        let mut solo = start[q * d..(q + 1) * d].to_vec();
                        rows_weighted_sum_gather(&rows, d, &cs[q * ld..q * ld + n], &mut solo);
                        let o = &slow[q * d..(q + 1) * d];
                        assert_eq!(bits_nan_canonical(o), bits_nan_canonical(&solo), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows_dot_multi: weight shape mismatch")]
    fn rows_dot_multi_rejects_bad_weights() {
        let x = block(2, 8, 160);
        let rows: Vec<&[f64]> = x.chunks_exact(8).collect();
        rows_dot_multi(&rows, 8, &[0.0; 15], &[0.0; 2], 2, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows_dot_multi: row length mismatch")]
    fn rows_dot_multi_rejects_short_row() {
        let x = block(2, 8, 161);
        let rows: Vec<&[f64]> = vec![&x[..8], &x[8..15]];
        rows_dot_multi(&rows, 8, &[0.0; 16], &[0.0; 2], 2, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows_dot_multi: output shape mismatch")]
    fn rows_dot_multi_rejects_short_output() {
        let x = block(2, 8, 162);
        let rows: Vec<&[f64]> = x.chunks_exact(8).collect();
        rows_dot_multi(&rows, 8, &[0.0; 16], &[0.0; 2], 3, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows_weighted_sum_multi: row length mismatch")]
    fn rows_weighted_sum_multi_rejects_short_row() {
        let x = block(2, 8, 163);
        let rows: Vec<&[f64]> = vec![&x[..8], &x[8..15]];
        rows_weighted_sum_multi(&rows, 8, &[0.0; 4], 2, &mut [0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "rows_weighted_sum_multi: output shape mismatch")]
    fn rows_weighted_sum_multi_rejects_ragged_output() {
        let x = block(2, 8, 164);
        let rows: Vec<&[f64]> = x.chunks_exact(8).collect();
        rows_weighted_sum_multi(&rows, 8, &[0.0; 4], 2, &mut [0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "rows_weighted_sum_multi: coefficient shape mismatch")]
    fn rows_weighted_sum_multi_rejects_short_coefficients() {
        let x = block(2, 8, 165);
        let rows: Vec<&[f64]> = x.chunks_exact(8).collect();
        rows_weighted_sum_multi(&rows, 8, &[0.0; 4], 3, &mut [0.0; 16]);
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
    #[should_panic(expected = "sparse_row_outer_add: index out of table range")]
    fn sparse_row_outer_add_rejects_out_of_range_index() {
        let mut out = vec![0.0; 12];
        sparse_row_outer_add(&[0, 3], &[1.0, 1.0], &[1.0; 4], &mut out);
    }

    #[test]
    fn idx_kernels_accept_empty_index_lists() {
        let x = block(4, 3, 24);
        let rows: Vec<&[f64]> = x.chunks_exact(3).collect();
        let mut out: Vec<f64> = vec![];
        rows_dot_gather_idx(&rows, &[], 3, &[0.0; 3], 0.0, &mut out);
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
