//! Per-example gradient matrices in factored-friendly form.
//!
//! The paper's `grads` MCS method returns the list
//! `ψ_i = q(θ; x_i, y_i) + r(θ)` for every training example (§2.2).
//! ObservedFisher needs three operations on this list (§3.4, §4.3):
//!
//! 1. the `D x D` second moment `J = (1/n) Σ ψ ψᵀ` (when `D ≤ n`),
//! 2. the `n x n` Gram matrix `G_{ij} = ψ_i·ψ_j / n` (when `D > n`),
//! 3. transposed application `Q'ᵀ w = (1/√n) Σ w_i ψ_i` (factored
//!    sampling without ever materializing a `D`-sized basis).
//!
//! For sparse GLMs, `ψ_i = c_i·x_i + shift` where the shift `r(θ) = βθ`
//! is shared by all rows; [`Grads::Sparse`] keeps that structure so the
//! three operations stay `O(nnz)` instead of `O(n·D)`.
//!
//! The sparse Gram is a scatter-gather: rows are scattered eight at a
//! time into a lane-major `D × 8` buffer, and every later row `j` is
//! gathered once against all eight lanes in ascending index order. Each
//! entry is bitwise the merge-join of the two rows for finite values
//! (see [`Grads::gram`]), which the unit tests pin with `to_bits`
//! against the merge-join oracle.

use blinkml_data::parallel::{par_fill_slice, par_map_reduce_matrix, par_ranges, par_sum_vecs};
use blinkml_data::{FeatureVec, SparseVec};
use blinkml_linalg::blas::{ger, par_gemm, par_symmetric, par_syrk_n, par_syrk_t};
use blinkml_linalg::simd;
use blinkml_linalg::vector::dot;
use blinkml_linalg::Matrix;

/// Draws per group in the sparse [`Grads::t_apply_rows`]: one 64-byte
/// accumulator line per parameter.
const DRAW_LANES: usize = 8;

/// Rows per group in the sparse [`Grads::gram`]: one 64-byte line of the
/// scatter buffer per parameter.
const GRAM_LANES: usize = 8;

/// The per-example gradient list in one of two layouts.
#[derive(Debug, Clone)]
pub enum Grads {
    /// Dense `n x D` row matrix of `ψ_i`.
    Dense(Matrix),
    /// Sparse rows plus a shared dense shift: `ψ_i = rows[i] + shift`.
    Sparse {
        /// Per-example sparse parts.
        rows: Vec<SparseVec>,
        /// Shared dense shift (`r(θ)`, usually `βθ`).
        shift: Vec<f64>,
    },
}

impl Grads {
    /// Number of examples `n`.
    pub fn num_rows(&self) -> usize {
        match self {
            Grads::Dense(m) => m.rows(),
            Grads::Sparse { rows, .. } => rows.len(),
        }
    }

    /// Parameter dimension `D`.
    pub fn dim(&self) -> usize {
        match self {
            Grads::Dense(m) => m.cols(),
            Grads::Sparse { shift, .. } => shift.len(),
        }
    }

    /// Second moment `J = (1/n) Σ ψ ψᵀ` as a dense `D x D` matrix,
    /// accumulated through the deterministic parallel kernels.
    ///
    /// Only sensible when `D` is small; the coordinator picks the Gram
    /// path otherwise.
    pub fn second_moment(&self) -> Matrix {
        let n = self.num_rows().max(1) as f64;
        match self {
            Grads::Dense(m) => {
                let mut j = par_syrk_t(m);
                j.scale(1.0 / n);
                j
            }
            Grads::Sparse { rows, shift } => {
                // With ψ_i = s_i + c (c = shift shared by all rows):
                // Σ ψψᵀ = Σ s_i s_iᵀ + t cᵀ + c tᵀ + n·c cᵀ, t = Σ s_i.
                // The sparse outer products cost O(nnz²) per row instead
                // of the O(D²) dense rank-one update per row.
                let d = shift.len();
                let mut j = par_map_reduce_matrix(rows.len(), d, d, |range| {
                    let mut acc = Matrix::zeros(d, d);
                    for row in &rows[range] {
                        let (idx, val) = (row.indices(), row.values());
                        for (p, &ip) in idx.iter().enumerate() {
                            let vp = val[p];
                            if vp == 0.0 {
                                continue;
                            }
                            let arow = acc.row_mut(ip as usize);
                            for (q, &iq) in idx.iter().enumerate() {
                                arow[iq as usize] += vp * val[q];
                            }
                        }
                    }
                    acc
                });
                let t = par_sum_vecs(rows.len(), d, |i, acc| rows[i].add_scaled_into(1.0, acc));
                ger(1.0, &t, shift, &mut j);
                ger(1.0, shift, &t, &mut j);
                ger(rows.len() as f64, shift, shift, &mut j);
                j.scale(1.0 / n);
                j
            }
        }
    }

    /// Gram matrix `G_{ij} = ψ_i·ψ_j / n` as a dense `n x n` matrix,
    /// computed row-chunk-parallel over the upper triangle.
    ///
    /// The sparse layout computes `s_i·s_j` by scatter-gather: each chunk
    /// scatters a group of eight rows `i` into the lanes of one lane-major
    /// `D × 8` buffer, walks every row `j` from the group's first once in
    /// ascending index order, adding `lane[k]·v` to each lane's
    /// accumulator (eight independent chains, each starting at `+0.0`),
    /// stores the entries with `j ≥ i`, then clears the buffer through
    /// the group's own indices. Each entry adds its matched products in
    /// the same ascending order as a merge-join of the two rows, and an
    /// unmatched index adds `±0.0`, which leaves an accumulator that can
    /// never be `−0.0` unchanged. So for finite rows every entry is
    /// bitwise the merge-join's, for any thread count.
    ///
    /// # Panics
    /// Panics if a sparse row's dimension differs from the shift's.
    pub fn gram(&self) -> Matrix {
        let n = self.num_rows();
        let scale = 1.0 / n.max(1) as f64;
        match self {
            Grads::Dense(m) => {
                let mut g = par_syrk_n(m);
                g.scale(scale);
                g
            }
            Grads::Sparse { rows, shift } => {
                let d = shift.len();
                for (i, row) in rows.iter().enumerate() {
                    assert!(
                        row.dim() == d,
                        "Grads::gram: sparse gradient row {i} spans {} parameters but the shift spans {d}",
                        row.dim()
                    );
                }
                // ψ_i·ψ_j = s_i·s_j + s_i·c + s_j·c + c·c with c = shift.
                let c_dot_c = dot(shift, shift);
                let s_dot_c: Vec<f64> = par_ranges(n, |range| {
                    range.map(|i| rows[i].dot(shift)).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
                par_symmetric(n, |chunk, block| {
                    let mut lanes = vec![[0.0; GRAM_LANES]; d];
                    for first in chunk.clone().step_by(GRAM_LANES) {
                        let group = first..(first + GRAM_LANES).min(chunk.end);
                        for (l, i) in group.clone().enumerate() {
                            for (&k, &v) in rows[i].indices().iter().zip(rows[i].values()) {
                                lanes[k as usize][l] = v;
                            }
                        }
                        for j in first..n {
                            let mut s = [0.0; GRAM_LANES];
                            for (&k, &v) in rows[j].indices().iter().zip(rows[j].values()) {
                                for (acc, &x) in s.iter_mut().zip(&lanes[k as usize]) {
                                    *acc += x * v;
                                }
                            }
                            for (l, i) in group.clone().enumerate().take_while(|&(_, i)| i <= j) {
                                block[(i - chunk.start) * n + j] =
                                    (s[l] + s_dot_c[i] + s_dot_c[j] + c_dot_c) * scale;
                            }
                        }
                        for i in group {
                            for &k in rows[i].indices() {
                                lanes[k as usize] = [0.0; GRAM_LANES];
                            }
                        }
                    }
                })
            }
        }
    }

    /// `Q'ᵀ w = (1/√n) Σ w_i ψ_i` — the transposed application used by
    /// the implicit covariance factor. The dense path is the `gemv_t`
    /// BLAS kernel.
    pub fn t_apply(&self, w: &[f64]) -> Vec<f64> {
        let n = self.num_rows();
        assert_eq!(w.len(), n, "t_apply: weight length mismatch");
        let inv_sqrt_n = 1.0 / (n.max(1) as f64).sqrt();
        let mut out = match self {
            Grads::Dense(m) => blinkml_linalg::blas::gemv_t(m, w).expect("checked length"),
            Grads::Sparse { rows, shift } => {
                let mut out = vec![0.0; self.dim()];
                let w_sum: f64 = w.iter().sum();
                for (row, &wi) in rows.iter().zip(w) {
                    if wi != 0.0 {
                        row.add_scaled_into(wi, &mut out);
                    }
                }
                for (o, &c) in out.iter_mut().zip(shift) {
                    *o += w_sum * c;
                }
                out
            }
        };
        for o in &mut out {
            *o *= inv_sqrt_n;
        }
        out
    }

    /// Batched transposed application: row `i` of the result is
    /// `t_apply` of row `i` of `w` (a `k × n` block of weight rows),
    /// giving `k × D` with the `1/√n` scaling applied.
    ///
    /// Each output row is **bitwise identical** to the corresponding
    /// [`Grads::t_apply`] call, so the batched samplers can swap this in
    /// for per-draw application without changing a single float. The
    /// dense path is the same ascending-row accumulation as `gemv_t`
    /// fused into one blocked GEMM. The sparse path takes the draws
    /// eight at a time into a draw-minor `D × 8` accumulator through
    /// [`simd::sparse_row_outer_add`], so each stored gradient entry
    /// feeds all eight draws in one vector op. Rows are still added in
    /// ascending order, and a draw whose weight is `0.0` or `-0.0` skips
    /// the row, as `t_apply` does. The shift term and the `1/√n` scale
    /// are then applied per draw.
    pub fn t_apply_rows(&self, w: &Matrix) -> Matrix {
        let n = self.num_rows();
        assert_eq!(w.cols(), n, "t_apply_rows: weight length mismatch");
        let inv_sqrt_n = 1.0 / (n.max(1) as f64).sqrt();
        match self {
            Grads::Dense(m) => {
                let mut out = par_gemm(w, m).expect("checked dims");
                out.scale(inv_sqrt_n);
                out
            }
            Grads::Sparse { rows, shift } => {
                let d = self.dim();
                // Groups of eight draws, one group per chunk, written in
                // place.
                let mut out = Matrix::zeros(w.rows(), d);
                par_fill_slice(
                    out.as_mut_slice(),
                    (DRAW_LANES * d).max(1),
                    |range, block| {
                        let draws = range.start / d..range.end / d;
                        // The group's weights, draw-minor: row i's weights
                        // adjacent, 0.0 for the draws past the group's end.
                        let mut wt = vec![0.0; n * DRAW_LANES];
                        for (t, draw) in draws.clone().enumerate() {
                            for (lanes, &wi) in wt.chunks_exact_mut(DRAW_LANES).zip(w.row(draw)) {
                                lanes[t] = wi;
                            }
                        }
                        let mut acc = vec![0.0; d * DRAW_LANES];
                        for (row, lanes) in rows.iter().zip(wt.chunks_exact(DRAW_LANES)) {
                            simd::sparse_row_outer_add(
                                row.indices(),
                                row.values(),
                                lanes,
                                &mut acc,
                            );
                        }
                        let outs = draws.zip(block.chunks_exact_mut(d));
                        for (t, (draw, out)) in outs.enumerate() {
                            let w_sum: f64 = w.row(draw).iter().sum();
                            let lanes = acc.chunks_exact(DRAW_LANES);
                            for ((o, a), &c) in out.iter_mut().zip(lanes).zip(shift) {
                                *o = (a[t] + w_sum * c) * inv_sqrt_n;
                            }
                        }
                    },
                );
                out
            }
        }
    }

    /// Materialize row `i` as a dense vector (testing utility).
    pub fn row_dense(&self, i: usize) -> Vec<f64> {
        match self {
            Grads::Dense(m) => m.row(i).to_vec(),
            Grads::Sparse { rows, shift } => {
                let mut out = shift.clone();
                rows[i].add_scaled_into(1.0, &mut out);
                out
            }
        }
    }

    /// Mean row `(1/n) Σ ψ_i` — equals the full objective gradient at the
    /// trained parameter, hence ≈ 0 at an optimum (useful invariant).
    /// Accumulates the rows directly (same ascending-row order as a
    /// unit-weight `t_apply`, without allocating the weight vector).
    pub fn mean_row(&self) -> Vec<f64> {
        let n = self.num_rows().max(1) as f64;
        let mut out = vec![0.0; self.dim()];
        match self {
            Grads::Dense(m) => {
                for i in 0..m.rows() {
                    for (o, &v) in out.iter_mut().zip(m.row(i)) {
                        *o += v;
                    }
                }
            }
            Grads::Sparse { rows, shift } => {
                for row in rows {
                    row.add_scaled_into(1.0, &mut out);
                }
                for (o, &c) in out.iter_mut().zip(shift) {
                    *o += rows.len() as f64 * c;
                }
            }
        }
        for o in &mut out {
            *o /= n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merge-join dot product of two sorted sparse vectors: the
    /// sparse Gram's entry kernel before scatter-gather, kept as the
    /// oracle its bits are pinned to.
    fn sparse_dot(a: &SparseVec, b: &SparseVec) -> f64 {
        let (ai, av) = (a.indices(), a.values());
        let (bi, bv) = (b.indices(), b.values());
        let mut s = 0.0;
        let (mut p, mut q) = (0usize, 0usize);
        while p < ai.len() && q < bi.len() {
            match ai[p].cmp(&bi[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    s += av[p] * bv[q];
                    p += 1;
                    q += 1;
                }
            }
        }
        s
    }

    /// The sparse Gram through the merge-join, with the production
    /// finishing expression `(s_i·s_j + s_i·c + s_j·c + c·c) · (1/n)`
    /// at `i = min(i, j)`.
    fn merge_join_gram(rows: &[SparseVec], shift: &[f64]) -> Matrix {
        let n = rows.len();
        let scale = 1.0 / n.max(1) as f64;
        let c_dot_c = dot(shift, shift);
        let s_dot_c: Vec<f64> = rows.iter().map(|r| r.dot(shift)).collect();
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v =
                    (sparse_dot(&rows[i], &rows[j]) + s_dot_c[i] + s_dot_c[j] + c_dot_c) * scale;
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }

    fn dense_example() -> Grads {
        Grads::Dense(Matrix::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 3.0, -2.0]))
    }

    fn sparse_example() -> Grads {
        // Same matrix as dense_example minus a shift of (0.5, -0.5):
        // rows: (0.5, 2.5), (-1.5, 1.0), (2.5, -1.5)
        Grads::Sparse {
            rows: vec![
                SparseVec::new(2, vec![0, 1], vec![0.5, 2.5]),
                SparseVec::new(2, vec![0, 1], vec![-1.5, 1.0]),
                SparseVec::new(2, vec![0, 1], vec![2.5, -1.5]),
            ],
            shift: vec![0.5, -0.5],
        }
    }

    #[test]
    fn dims() {
        assert_eq!(dense_example().num_rows(), 3);
        assert_eq!(dense_example().dim(), 2);
        assert_eq!(sparse_example().num_rows(), 3);
        assert_eq!(sparse_example().dim(), 2);
    }

    #[test]
    fn sparse_rows_match_dense() {
        let d = dense_example();
        let s = sparse_example();
        for i in 0..3 {
            let rd = d.row_dense(i);
            let rs = s.row_dense(i);
            for (a, b) in rd.iter().zip(&rs) {
                assert!((a - b).abs() < 1e-12, "row {i}: {rd:?} vs {rs:?}");
            }
        }
    }

    #[test]
    fn second_moment_matches_between_layouts() {
        let jd = dense_example().second_moment();
        let js = sparse_example().second_moment();
        assert!(jd.max_abs_diff(&js) < 1e-12);
        // Hand check J[0][0] = (1 + 1 + 9)/3.
        assert!((jd[(0, 0)] - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gram_matches_between_layouts() {
        let gd = dense_example().gram();
        let gs = sparse_example().gram();
        assert!(gd.max_abs_diff(&gs) < 1e-12);
        // G[0][1] = (1·(−1) + 2·0.5)/3 = 0.
        assert!(gd[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn gram_and_second_moment_share_spectrum() {
        // Nonzero eigenvalues of J (D x D) and G (n x n) coincide.
        let g = dense_example().gram();
        let j = dense_example().second_moment();
        let eg = blinkml_linalg::SymmetricEigen::new(&g).unwrap();
        let ej = blinkml_linalg::SymmetricEigen::new(&j).unwrap();
        for k in 0..2 {
            assert!(
                (eg.eigenvalues[k] - ej.eigenvalues[k]).abs() < 1e-10,
                "eigenvalue {k}"
            );
        }
    }

    #[test]
    fn t_apply_matches_manual() {
        let d = dense_example();
        let w = [1.0, 0.0, -1.0];
        let got = d.t_apply(&w);
        // (1/√3)·(row0 − row2) = (1/√3)·(−2, 4)
        let s3 = 3.0f64.sqrt();
        assert!((got[0] + 2.0 / s3).abs() < 1e-12);
        assert!((got[1] - 4.0 / s3).abs() < 1e-12);

        let s = sparse_example();
        let got_s = s.t_apply(&w);
        for (a, b) in got.iter().zip(&got_s) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_row_is_average() {
        let d = dense_example();
        let m = d.mean_row();
        assert!((m[0] - 1.0).abs() < 1e-12); // (1 − 1 + 3)/3
        assert!((m[1] - 1.0 / 6.0).abs() < 1e-12); // (2 + 0.5 − 2)/3
    }

    /// Every row of `t_apply_rows(w)` equals `t_apply` of that weight
    /// row in every bit, at thread budgets {1, 4}.
    fn assert_t_apply_rows_is_per_draw(g: &Grads, w: &Matrix, what: &str) {
        use blinkml_data::parallel::set_max_threads;
        let _budget = blinkml_linalg::testing::budget_lock();
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            let out = g.t_apply_rows(w);
            assert_eq!(out.shape(), (w.rows(), g.dim()), "{what}");
            for i in 0..w.rows() {
                let want = g.t_apply(w.row(i));
                for (k, (a, b)) in out.row(i).iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{what}, budget {budget}, draw {i}, entry {k}: {a:e} vs {b:e}"
                    );
                }
            }
        }
        set_max_threads(None);
    }

    /// `draws × n` weights cycling through random values, `0.0` and
    /// `-0.0`; `zero_col` (when in range) weighs `0.0` in every draw but
    /// every third, which weighs `-1.5`.
    fn edge_weights(draws: usize, n: usize, zero_col: usize, seed: u64) -> Matrix {
        let mut w = blinkml_linalg::testing::xorshift_matrix(draws, n, seed);
        for i in 0..draws {
            for j in 0..n {
                match (i * 5 + j * 3) % 7 {
                    2 => w[(i, j)] = 0.0,
                    5 => w[(i, j)] = -0.0,
                    _ => {}
                }
            }
            if zero_col < n {
                w[(i, zero_col)] = if i % 3 == 2 { -1.5 } else { 0.0 };
            }
        }
        w
    }

    #[test]
    fn t_apply_rows_is_bitwise_per_draw() {
        let w = Matrix::from_vec(2, 3, vec![0.3, -1.2, 0.8, 0.0, 2.0, -0.5]);
        assert_t_apply_rows_is_per_draw(&dense_example(), &w, "dense example");
        assert_t_apply_rows_is_per_draw(&sparse_example(), &w, "sparse example");
        // Edge rows (empty, stored ±0.0, shared and disjoint supports),
        // plus one row holding ±inf whose weight is 0.0 in most draws:
        // skipped there, never multiplied. Draw counts around the
        // eight-draw group.
        let d = 29;
        let shift: Vec<f64> = (0..d).map(|k| 0.125 * (k % 5) as f64 - 0.25).collect();
        for n in [0, 1, 13] {
            let mut rows = edge_case_rows(n, d, 17 + n as u64);
            let inf_row = n / 2;
            if n > 0 {
                let values = (0..d).map(|k| match k % 9 {
                    0 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    _ => 0.5,
                });
                rows[inf_row] = SparseVec::new(
                    d,
                    (0..d as u32).step_by(2).collect(),
                    values.step_by(2).collect(),
                );
            }
            let g = Grads::Sparse {
                rows,
                shift: shift.clone(),
            };
            for draws in [1, 7, 8, 9, 17] {
                let w = edge_weights(draws, n, inf_row, draws as u64);
                assert_t_apply_rows_is_per_draw(
                    &g,
                    &w,
                    &format!("edge rows, n = {n}, {draws} draws"),
                );
            }
        }
        // Real maxent gradient rows (K = 5, D = 300 > n = 130, βθ shift).
        let data = blinkml_data::generators::yelp_like(130, 60, 5);
        let spec = crate::models::MaxEntSpec::new(1e-3, 5);
        let theta: Vec<f64> = (0..300)
            .map(|i| ((i * 7) % 13) as f64 * 0.05 - 0.3)
            .collect();
        let g = crate::testing::view_grads(&spec, &theta, &data);
        assert!(matches!(g, Grads::Sparse { .. }));
        for draws in [1, 9, 17] {
            let w = edge_weights(draws, 130, usize::MAX, 40 + draws as u64);
            assert_t_apply_rows_is_per_draw(&g, &w, &format!("maxent yelp_like, {draws} draws"));
        }
    }

    /// `Grads::gram` mirrors every entry, so `G[i][j]` and `G[j][i]`
    /// share their bits and the statistics phase decomposes it with no
    /// symmetrize pass: dense and sparse layouts, `n` across the 64-row
    /// chunk of `par_symmetric`, thread budgets {1, 4}.
    #[test]
    fn gram_is_exactly_symmetric() {
        use blinkml_data::parallel::set_max_threads;
        let d = 37;
        let shift: Vec<f64> = (0..d).map(|k| 0.25 - 0.0625 * (k % 9) as f64).collect();
        let data = blinkml_data::generators::yelp_like(130, 60, 5);
        let spec = crate::models::MaxEntSpec::new(1e-3, 5);
        let theta: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin() * 0.2).collect();
        let layouts = [
            (
                "dense",
                Grads::Dense(blinkml_linalg::testing::xorshift_matrix(130, d, 8)),
            ),
            (
                "sparse edge rows",
                Grads::Sparse {
                    rows: edge_case_rows(130, d, 9),
                    shift,
                },
            ),
            (
                "maxent yelp_like",
                crate::testing::view_grads(&spec, &theta, &data),
            ),
        ];
        let _budget = blinkml_linalg::testing::budget_lock();
        for budget in [1, 4] {
            set_max_threads(Some(budget));
            for (what, g) in &layouts {
                let gram = g.gram();
                let n = gram.rows();
                for i in 0..n {
                    for j in 0..i {
                        assert_eq!(
                            gram[(i, j)].to_bits(),
                            gram[(j, i)].to_bits(),
                            "{what}, budget {budget}: ({i}, {j})"
                        );
                    }
                }
            }
        }
        set_max_threads(None);
    }

    #[test]
    fn sparse_dot_disjoint_and_overlapping() {
        let a = SparseVec::new(6, vec![0, 2], vec![1.0, 2.0]);
        let b = SparseVec::new(6, vec![1, 3], vec![5.0, 5.0]);
        assert_eq!(sparse_dot(&a, &b), 0.0);
        let c = SparseVec::new(6, vec![2, 3], vec![4.0, 1.0]);
        assert_eq!(sparse_dot(&a, &c), 8.0);
    }

    /// Deterministic sparse rows over `d` parameters covering the
    /// scatter-gather's edge cases, cycling through six kinds: empty;
    /// only stored `0.0`/`-0.0`; a random support pinned to indices 0
    /// and `d − 1`; the previous row's support with new values; a
    /// support disjoint from the previous row's; and ±1 values whose
    /// products cancel to zero before a stored `-0.0`.
    fn edge_case_rows(n: usize, d: usize, seed: u64) -> Vec<SparseVec> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> 11
        };
        let mut rows: Vec<SparseVec> = Vec::with_capacity(n);
        for r in 0..n {
            let prev: Vec<u32> = rows
                .last()
                .map(|p| p.indices().to_vec())
                .unwrap_or_default();
            let (indices, values): (Vec<u32>, Vec<f64>) = (0..d as u32)
                .filter_map(|k| {
                    let end = k == 0 || k + 1 == d as u32;
                    let uniform = (next() % 2001) as f64 / 1000.0 - 1.0;
                    let keep = next();
                    let v = match r % 6 {
                        0 => None,
                        1 => (keep % 4 == 0).then_some(if k % 2 == 0 { 0.0 } else { -0.0 }),
                        2 => (end || keep % 3 == 0).then_some(uniform),
                        3 => prev.binary_search(&k).is_ok().then_some(2.0 * uniform),
                        4 => (prev.binary_search(&k).is_err() && keep % 2 == 0).then_some(uniform),
                        _ => {
                            (end || keep % 3 == 0).then_some([1.0, -1.0, -0.0][(keep % 3) as usize])
                        }
                    };
                    v.map(|v| (k, v))
                })
                .unzip();
            rows.push(SparseVec::new(d, indices, values));
        }
        rows
    }

    /// The sparse Gram equals [`merge_join_gram`] in every bit, at
    /// thread budgets {1, 4}.
    fn assert_gram_is_merge_join(rows: Vec<SparseVec>, shift: Vec<f64>, what: &str) {
        use blinkml_data::parallel::set_max_threads;
        let want = merge_join_gram(&rows, &shift);
        let grads = Grads::Sparse { rows, shift };
        let _budget = blinkml_linalg::testing::budget_lock();
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            let got = grads.gram();
            assert_eq!(got.shape(), want.shape(), "{what}, budget {budget:?}");
            for (e, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}, budget {budget:?}: entry {e}: {a:e} vs {b:e}"
                );
            }
        }
        set_max_threads(None);
    }

    #[test]
    fn sparse_gram_is_bitwise_merge_join_oracle() {
        // n crosses the 8-row group and the 64-row chunk of
        // `par_symmetric` on both sides, with partial groups at the tails.
        let d = 37;
        for n in [0, 1, 2, 7, 8, 9, 63, 64, 65, 71, 72, 73, 130] {
            for zero_shift in [true, false] {
                let shift: Vec<f64> = (0..d)
                    .map(|k| {
                        if zero_shift {
                            0.0
                        } else {
                            0.25 - 0.0625 * (k % 9) as f64
                        }
                    })
                    .collect();
                let what = format!("edge rows, n = {n}, zero shift {zero_shift}");
                assert_gram_is_merge_join(edge_case_rows(n, d, n as u64 + 3), shift, &what);
            }
        }
        // Real maxent gradient rows: K = 5 blocks over a 60-word
        // vocabulary, so D = 300 > n = 130, with the βθ shift.
        let data = blinkml_data::generators::yelp_like(130, 60, 5);
        let spec = crate::models::MaxEntSpec::new(1e-3, 5);
        let theta: Vec<f64> = (0..300)
            .map(|i| ((i * 7) % 13) as f64 * 0.05 - 0.3)
            .collect();
        match crate::testing::view_grads(&spec, &theta, &data) {
            Grads::Sparse { rows, shift } => {
                assert!(shift.iter().any(|&c| c != 0.0));
                assert_gram_is_merge_join(rows, shift, "maxent yelp_like");
            }
            Grads::Dense(_) => panic!("sparse data must give sparse gradient rows"),
        }
    }

    #[test]
    #[should_panic(expected = "sparse gradient row 1 spans 3 parameters but the shift spans 4")]
    fn sparse_gram_rejects_a_row_shorter_than_the_shift() {
        Grads::Sparse {
            rows: vec![
                SparseVec::new(4, vec![0, 3], vec![1.0, 2.0]),
                SparseVec::new(3, vec![0, 2], vec![1.0, 2.0]),
            ],
            shift: vec![0.5; 4],
        }
        .gram();
    }

    #[test]
    #[should_panic(expected = "sparse gradient row 0 spans 5 parameters but the shift spans 4")]
    fn sparse_gram_rejects_a_row_longer_than_the_shift() {
        Grads::Sparse {
            rows: vec![SparseVec::new(5, vec![0, 4], vec![1.0, 2.0])],
            shift: vec![0.5; 4],
        }
        .gram();
    }
}
