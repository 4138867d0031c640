//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! [`Cholesky::new`] and [`Cholesky::inverse`] run at kernel speed and
//! are bitwise identical to the textbook bodies (column-by-column dot
//! chains for the factor, one [`Cholesky::solve`] per unit vector for
//! the inverse), which this module's tests keep as the reference:
//!
//! * The factor is built in its transpose `Lᵀ`, so column `j` of `L` is
//!   one contiguous row. Every entry below the diagonal starts from
//!   `a[i][j]` and subtracts `l[i][k]·l[j][k]` for ascending `k`, the
//!   textbook chain, but all rows `i > j` advance together as the lanes
//!   of one vector update per `k`.
//! * The inverse solves all `n` unit right-hand sides as the lanes of one
//!   row-major block, each lane in `solve`'s forward and back order. A
//!   lane `j` is `+0.0` on every row above `j` after the forward pass, so
//!   the forward pass of a block of lanes starts at its first lane's row:
//!   the skipped products are `±0.0` against finite factor entries and
//!   subtracting them leaves `+0.0` or `1.0` unchanged. Blocks of lanes
//!   are split over the thread budget; each lane's bits are independent
//!   of the split.
//!
//! The vector bodies perform the scalar loops' multiplies and subtracts
//! one lane at a time (no FMA contraction), so the bits do not depend on
//! which body the runtime dispatch picks.

use crate::exec;
use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Entries per vector tile of both kernels: a row of the factor's
/// column update, or the right-hand sides solved together by
/// [`Cholesky::inverse`]. 32 lanes are four AVX-512 (eight AVX)
/// accumulators, enough independent subtract chains to hide their
/// latency.
const LANES: usize = 32;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Used for solving SPD systems, for PPCA's covariance inverse and
/// log-determinant, and for the inverse of `G + βI` behind the
/// ObservedFisher factor when the parameter dimension exceeds the
/// sample size.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let kernel = LaneKernel::detect();
        // Row `k` of `lt` (stride `ld`) is column `k` of L. The zero
        // padding past column `n` lets every tile load whole.
        let ld = n + LANES;
        let mut lt = vec![0.0; n * ld];
        let mut col = vec![0.0; ld];
        let mut cs = vec![0.0; n];
        for j in 0..n {
            // `col[t]` is the entry of row `j + t`; `col[0]` the pivot.
            for (t, c) in col[..n - j].iter_mut().enumerate() {
                *c = a[(j + t, j)];
            }
            // The multipliers `l[j][k]`, `k < j`.
            for (k, c) in cs[..j].iter_mut().enumerate() {
                *c = lt[k * ld + j];
            }
            for t0 in (0..n - j).step_by(LANES) {
                let tile = (&mut col[t0..t0 + LANES]).try_into().expect("one tile");
                kernel.run(tile, &cs[..j], &lt[j + t0..], ld);
            }
            let d = col[0];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let djj = d.sqrt();
            let out = &mut lt[j * ld + j..j * ld + n];
            out[0] = djj;
            for (l, &s) in out[1..].iter_mut().zip(&col[1..n - j]) {
                *l = s / djj;
            }
        }
        let l = Matrix::from_fn(n, n, |i, k| if k <= i { lt[k * ld + i] } else { 0.0 });
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` via two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        Ok(y)
    }

    /// Apply the factor: `y = L x`. This is what maps standard-normal draws
    /// to draws with covariance `A`.
    pub fn apply_factor(&self, x: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky apply_factor",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (k, &xk) in x[..=i].iter().enumerate() {
                s += self.l[(i, k)] * xk;
            }
            *yi = s;
        }
        Ok(y)
    }

    /// Inverse of the factored matrix (dense; `O(n³)`): column `j` is
    /// [`Cholesky::solve`] of the `j`-th unit vector, bit for bit.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        // Row `i` of `lt` is column `i` of L: the back substitution's
        // multipliers.
        let lt = self.l.transpose();
        let kernel = LaneKernel::detect();
        let blocks = exec::par_ranges_with(n, LANES, |lanes| {
            let mut y = vec![0.0; n * LANES];
            solve_unit_lanes(kernel, &self.l, &lt, lanes.start, &mut y);
            y
        });
        let mut inv = Matrix::zeros(n, n);
        for (b, y) in blocks.iter().enumerate() {
            let j0 = b * LANES;
            let w = LANES.min(n - j0);
            for (i, lanes) in y.chunks_exact(LANES).enumerate() {
                inv.row_mut(i)[j0..j0 + w].copy_from_slice(&lanes[..w]);
            }
        }
        Ok(inv)
    }

    /// `log(det(A)) = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Solve `L Lᵀ x = e_j` for the [`LANES`] unit vectors `j = j0, j0 + 1,
/// …` at once: `y` holds `n` rows of one lane per right-hand side, and
/// lanes past `n` stay zero. `lt` is `Lᵀ`.
fn solve_unit_lanes(kernel: LaneKernel, l: &Matrix, lt: &Matrix, j0: usize, y: &mut [f64]) {
    let n = l.rows();
    // Forward, L z = e: rows above `j0` are +0.0 in every lane.
    for i in j0..n {
        let li = l.row(i);
        let mut acc = [0.0; LANES];
        if i - j0 < LANES {
            acc[i - j0] = 1.0;
        }
        kernel.run(&mut acc, &li[j0..i], &y[j0 * LANES..], LANES);
        for a in &mut acc {
            *a /= li[i];
        }
        y[i * LANES..(i + 1) * LANES].copy_from_slice(&acc);
    }
    // Back, Lᵀ x = z.
    for i in (0..n).rev() {
        let ci = lt.row(i);
        let row = i * LANES..(i + 1) * LANES;
        let mut acc: [f64; LANES] = y[row.clone()].try_into().expect("one row of lanes");
        kernel.run(&mut acc, &ci[i + 1..], &y[row.end..], LANES);
        for a in &mut acc {
            *a /= ci[i];
        }
        y[row].copy_from_slice(&acc);
    }
}

/// The one vector kernel of this module: `acc[q] -= cs[k] · rows[k ·
/// stride + q]` for `k = 0, 1, …` in ascending order, each lane its own
/// chain of a multiply then a subtract. The body is picked once per
/// call of `new` or `inverse`.
#[derive(Clone, Copy)]
struct LaneKernel(unsafe fn(&mut [f64; LANES], &[f64], &[f64], usize));

impl LaneKernel {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return LaneKernel(sub_scaled_rows_avx512);
            }
            if is_x86_feature_detected!("avx") {
                return LaneKernel(sub_scaled_rows_avx);
            }
        }
        LaneKernel(sub_scaled_rows)
    }

    /// # Panics
    /// Panics when `rows` ends before the last row's [`LANES`] entries.
    fn run(self, acc: &mut [f64; LANES], cs: &[f64], rows: &[f64], stride: usize) {
        if let Some(last) = cs.len().checked_sub(1) {
            assert!(
                rows.len() >= last * stride + LANES,
                "lane kernel: rows end early"
            );
        }
        // SAFETY: `detect` picked a body this CPU supports, and every
        // row the body reads lies inside `rows` (checked above).
        unsafe { (self.0)(acc, cs, rows, stride) }
    }
}

/// Scalar body of [`LaneKernel`].
fn sub_scaled_rows(acc: &mut [f64; LANES], cs: &[f64], rows: &[f64], stride: usize) {
    for (k, &c) in cs.iter().enumerate() {
        let row = &rows[k * stride..k * stride + LANES];
        for (a, &x) in acc.iter_mut().zip(row) {
            *a -= c * x;
        }
    }
}

/// AVX-512 body of [`LaneKernel`]: the 32 lanes in four registers.
///
/// # Safety
/// The CPU must support AVX-512F, and `rows` must hold
/// `(cs.len() - 1) · stride + LANES` entries when `cs` is not empty.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sub_scaled_rows_avx512(acc: &mut [f64; LANES], cs: &[f64], rows: &[f64], stride: usize) {
    use std::arch::x86_64::*;
    let a = acc.as_mut_ptr();
    let mut v = [0, 1, 2, 3].map(|q| _mm512_loadu_pd(a.add(8 * q)));
    let mut r = rows.as_ptr();
    for &c in cs {
        let c = _mm512_set1_pd(c);
        for (q, vq) in v.iter_mut().enumerate() {
            *vq = _mm512_sub_pd(*vq, _mm512_mul_pd(c, _mm512_loadu_pd(r.add(8 * q))));
        }
        r = r.wrapping_add(stride);
    }
    for (q, vq) in v.into_iter().enumerate() {
        _mm512_storeu_pd(a.add(8 * q), vq);
    }
}

/// AVX body of [`LaneKernel`]: the 32 lanes in eight registers.
///
/// # Safety
/// As [`sub_scaled_rows_avx512`], with AVX in place of AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sub_scaled_rows_avx(acc: &mut [f64; LANES], cs: &[f64], rows: &[f64], stride: usize) {
    use std::arch::x86_64::*;
    let a = acc.as_mut_ptr();
    let mut v = [0, 1, 2, 3, 4, 5, 6, 7].map(|q| _mm256_loadu_pd(a.add(4 * q)));
    let mut r = rows.as_ptr();
    for &c in cs {
        let c = _mm256_set1_pd(c);
        for (q, vq) in v.iter_mut().enumerate() {
            *vq = _mm256_sub_pd(*vq, _mm256_mul_pd(c, _mm256_loadu_pd(r.add(4 * q))));
        }
        r = r.wrapping_add(stride);
    }
    for (q, vq) in v.into_iter().enumerate() {
        _mm256_storeu_pd(a.add(4 * q), vq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, gemm_nt};
    use crate::testing::{budget_lock, xorshift_matrix};

    /// The textbook bodies `Cholesky::new` and `Cholesky::inverse` ran
    /// before they became vector kernels, verbatim: the bitwise oracle.
    mod reference {
        use crate::matrix::Matrix;
        use crate::{LinalgError, Result};

        /// Column-by-column factor with one dot chain per entry.
        pub(super) fn factor(a: &Matrix) -> Result<Matrix> {
            let n = a.rows();
            let mut l = Matrix::zeros(n, n);
            for j in 0..n {
                // Diagonal entry.
                let mut d = a[(j, j)];
                for k in 0..j {
                    d -= l[(j, k)] * l[(j, k)];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j });
                }
                let djj = d.sqrt();
                l[(j, j)] = djj;
                // Column below the diagonal.
                for i in (j + 1)..n {
                    let mut s = a[(i, j)];
                    for k in 0..j {
                        s -= l[(i, k)] * l[(j, k)];
                    }
                    l[(i, j)] = s / djj;
                }
            }
            Ok(l)
        }

        fn solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
            let n = l.rows();
            // Forward substitution: L y = b.
            let mut y = b.to_vec();
            for i in 0..n {
                for k in 0..i {
                    y[i] -= l[(i, k)] * y[k];
                }
                y[i] /= l[(i, i)];
            }
            // Backward substitution: Lᵀ x = y.
            for i in (0..n).rev() {
                for k in (i + 1)..n {
                    y[i] -= l[(k, i)] * y[k];
                }
                y[i] /= l[(i, i)];
            }
            y
        }

        /// One solve per unit vector.
        pub(super) fn inverse(l: &Matrix) -> Matrix {
            let n = l.rows();
            let mut inv = Matrix::zeros(n, n);
            let mut e = vec![0.0; n];
            for j in 0..n {
                e[j] = 1.0;
                let col = solve(l, &e);
                for i in 0..n {
                    inv[(i, j)] = col[i];
                }
                e[j] = 0.0;
            }
            inv
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The pinned SPD inputs at order `n`: well conditioned, nearly
    /// singular (a rank-`n/3` Gram plus `1e-9·I`) and badly scaled
    /// (rows and columns scaled over twelve decades).
    fn pinned_matrices(n: usize) -> Vec<(&'static str, Matrix)> {
        let seed = n as u64;
        let b = xorshift_matrix(n, n, seed);
        let mut spd = gemm_nt(&b, &b).unwrap();
        spd.add_diag(1.0);
        let thin = xorshift_matrix(n, n.div_ceil(3), seed + 1);
        let mut near_singular = gemm_nt(&thin, &thin).unwrap();
        near_singular.add_diag(1e-9);
        let scale: Vec<f64> = (0..n)
            .map(|i| 10f64.powi((i * 7 % 13) as i32 - 6))
            .collect();
        let badly_scaled = Matrix::from_fn(n, n, |i, j| spd[(i, j)] * scale[i] * scale[j]);
        vec![
            ("spd", spd),
            ("near-singular", near_singular),
            ("badly scaled", badly_scaled),
        ]
    }

    #[test]
    fn factor_and_inverse_match_the_textbook_bodies_bitwise() {
        let _budget = budget_lock();
        for n in [1, 2, 3, 5, 17, 64, 129, 257, 500] {
            for (name, a) in pinned_matrices(n) {
                let ch = Cholesky::new(&a).unwrap();
                let l = reference::factor(&a).unwrap();
                assert_eq!(bits(ch.factor()), bits(&l), "{name} n={n}: factor");
                let want = bits(&reference::inverse(&l));
                for budget in [1, 4] {
                    exec::set_max_threads(Some(budget));
                    let got = ch.inverse().unwrap();
                    assert_eq!(bits(&got), want, "{name} n={n} budget {budget}: inverse");
                }
                exec::set_max_threads(None);
            }
        }
    }

    /// Every [`LaneKernel`] body this host can run equals the scalar
    /// body in every bit, whichever one `detect` picks here.
    #[test]
    fn every_lane_kernel_body_matches_the_scalar_body() {
        #[allow(unused_mut)]
        let mut bodies = vec![("scalar", LaneKernel(sub_scaled_rows))];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx") {
                bodies.push(("avx", LaneKernel(sub_scaled_rows_avx)));
            }
            if is_x86_feature_detected!("avx512f") {
                bodies.push(("avx512", LaneKernel(sub_scaled_rows_avx512)));
            }
        }
        for (k, stride) in [(0, LANES), (1, LANES), (7, LANES), (13, 45), (40, 500)] {
            let seed = (k * 1000 + stride) as u64;
            let mut cs = xorshift_matrix(1, k, seed).into_vec();
            let len = k.saturating_sub(1) * stride + LANES;
            let mut rows = xorshift_matrix(1, len, seed + 1).into_vec();
            if k > 1 {
                cs[1] = -0.0;
                rows[3] = f64::INFINITY;
                rows[stride + 5] = -0.0;
            }
            let start: [f64; LANES] = xorshift_matrix(1, LANES, seed + 2)
                .into_vec()
                .try_into()
                .unwrap();
            let mut want = start;
            sub_scaled_rows(&mut want, &cs, &rows, stride);
            for (name, body) in &bodies {
                let mut got = start;
                body.run(&mut got, &cs, &rows, stride);
                let bits = |a: &[f64; LANES]| a.map(f64::to_bits);
                assert_eq!(bits(&got), bits(&want), "{name}: k={k} stride={stride}");
            }
        }
    }

    #[test]
    fn failures_name_the_textbook_pivot() {
        for n in [2, 5, 17, 64] {
            for (name, a) in pinned_matrices(n) {
                for (what, bad) in [
                    (f64::NAN, "NaN"),
                    (-1.0, "negative"),
                    (f64::INFINITY, "inf"),
                ]
                .map(|(v, what)| {
                    let mut bad = a.clone();
                    bad[(n / 2, n / 2)] = v;
                    (what, bad)
                }) {
                    let got = Cholesky::new(&bad).map(|c| bits(c.factor()));
                    let want = reference::factor(&bad).map(|l| bits(&l));
                    assert_eq!(got, want, "{name} n={n}, {what} pivot");
                }
            }
        }
    }

    fn spd(n: usize, seed: u64) -> Matrix {
        // A = B Bᵀ + n*I is SPD for any B.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = gemm_nt(&b, &b).unwrap();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn reconstructs_matrix() {
        let a = spd(6, 42);
        let ch = Cholesky::new(&a).unwrap();
        let rec = gemm_nt(ch.factor(), ch.factor()).unwrap();
        assert!(rec.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn solve_residual_small() {
        let a = spd(8, 7);
        let ch = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
        let x = ch.solve(&b).unwrap();
        let ax = crate::blas::gemv(&a, &x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9, "residual too large");
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd(5, 99);
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = gemm(&a, &inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(5)) < 1e-9);
    }

    #[test]
    fn apply_factor_matches_gemv() {
        let a = spd(5, 3);
        let ch = Cholesky::new(&a).unwrap();
        let x = [1.0, -2.0, 0.5, 3.0, 0.0];
        let direct = crate::blas::gemv(ch.factor(), &x).unwrap();
        let fast = ch.apply_factor(&x).unwrap();
        for (l, r) in direct.iter().zip(&fast) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_of_diagonal() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_bad_length() {
        let a = spd(3, 1);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.apply_factor(&[1.0]).is_err());
    }
}
