//! Symmetric eigendecomposition.
//!
//! Householder tridiagonalization followed by the implicit-shift QL
//! iteration (the classic EISPACK `tred2` / `tql2` pair). This is the
//! workhorse behind BlinkML's statistics methods: `ObservedFisher`'s
//! explicit factor `J = U Σ² Uᵀ` is an eigendecomposition of the `d x d`
//! second-moment matrix (when `d ≤ n`; past that a Cholesky inverse of
//! the shifted `n x n` Gram matrix replaces it, with this solver as the
//! fallback where `β = 0`), and ClosedForm / InverseGradients
//! decompose the Hessian.
//!
//! EISPACK walks the accumulated transform `Z` down its columns, which on
//! the row-major [`Matrix`] is a stride of one row per element. This port
//! therefore keeps `Z` **transposed** once the reduction is done: row `j`
//! of `Zᵀ` is column `j` of `Z`, so the back-accumulation and every QL
//! rotation update contiguous rows, and the reduction's `A·u` product
//! reads the lower triangle by rows only. Only the memory layout differs
//! from EISPACK: every floating-point operation is the same, in the same
//! order, on the same operands, so the results are bit-identical to the
//! column-oriented port, which this module's tests keep as the reference.

use crate::matrix::Matrix;
use crate::simd;
use crate::{LinalgError, Result};

/// Maximum QL iterations per eigenvalue before giving up.
const MAX_QL_ITERATIONS: usize = 50;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a real symmetric matrix.
///
/// Eigenvalues are sorted in **descending** order; column `k` of
/// [`SymmetricEigen::eigenvectors`] is the unit eigenvector for
/// `eigenvalues[k]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decompose a symmetric matrix.
    ///
    /// Only the lower triangle and the diagonal of `a` are read; the
    /// strict upper triangle is ignored whatever it holds, so `a` is
    /// decomposed as the symmetric matrix its lower triangle describes.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Ok(SymmetricEigen {
                eigenvalues: Vec::new(),
                eigenvectors: Matrix::zeros(0, 0),
            });
        }
        let mut z = a.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2_reduce(&mut z, &mut d, &mut e);
        let mut zt = z.transpose();
        tred2_accumulate(&mut zt, &mut d);
        tql2(&mut zt, &mut d, &mut e)?;

        // Sort eigenpairs by descending eigenvalue; row `i` of Zᵀ is the
        // eigenvector of `d[i]`.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("eigenvalue NaN"));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
        let eigenvectors = Matrix::from_fn(n, n, |r, c| zt[(order[c], r)]);
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Reconstruct `V diag(λ) Vᵀ` (testing / debugging utility).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let lam = self.eigenvalues[k];
            if lam == 0.0 {
                continue;
            }
            for i in 0..n {
                let vik = self.eigenvectors[(i, k)];
                if vik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += lam * vik * self.eigenvectors[(j, k)];
                }
            }
        }
        out
    }

    /// Number of eigenvalues exceeding `tol * max(|λ|)` — the numerical
    /// rank of a PSD matrix.
    pub fn rank(&self, tol: f64) -> usize {
        let lmax = self.eigenvalues.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        if lmax == 0.0 {
            return 0;
        }
        self.eigenvalues
            .iter()
            .filter(|&&v| v.abs() > tol * lmax)
            .count()
    }
}

/// Householder reduction of the lower triangle of `z` to tridiagonal
/// form (the first half of EISPACK `tred2`).
///
/// On exit `d[i]` holds step `i`'s `h` (0 where the step was skipped),
/// `e[1..]` the subdiagonal, row `i` of `z` (columns `..i`) step `i`'s
/// Householder vector `u`, and column `i` (rows `..i`) `u / h`: the
/// transpose of what [`tred2_accumulate`] reads.
fn tred2_reduce(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        // `a`: the rows still to be reduced; `u`: row i left of the diagonal.
        let (a, rest) = z.as_mut_slice().split_at_mut(i * n);
        let u = &mut rest[..i];
        if l > 0 {
            let mut scale = 0.0;
            for &v in u.iter() {
                scale += v.abs();
            }
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for v in u.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                lower_symv(a, n, u, &mut e[..i]);
                let mut f_acc = 0.0;
                for j in 0..i {
                    a[j * n + i] = u[j] / h;
                    e[j] /= h;
                    f_acc += e[j] * u[j];
                }
                let hh = f_acc / (h + h);
                for j in 0..i {
                    let f = u[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    let row = &mut a[j * n..=j * n + j];
                    for ((zjk, &ek), &uk) in row.iter_mut().zip(&e[..=j]).zip(u.iter()) {
                        *zjk -= f * ek + g * uk;
                    }
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
}

/// `p = A u` for the symmetric `A` whose lower triangle fills the first
/// `u.len()` rows of the row-major `a` (row stride `n`), summed in
/// EISPACK's order: each `p[j]` starts from 0, adds row `j` up to the
/// diagonal left to right, then column `j` below the diagonal top to
/// bottom. The column half runs as one axpy per row `k`, so both halves
/// read contiguous rows, and four rows' dots share a loop as four
/// independent chains.
fn lower_symv(a: &[f64], n: usize, u: &[f64], p: &mut [f64]) {
    let m = u.len();
    let row = |j: usize| &a[j * n..=j * n + j];
    let mut j = 0;
    while j + 4 <= m {
        let r = [row(j), row(j + 1), row(j + 2), row(j + 3)];
        let mut s = dot4(&u[..=j], r);
        for t in 1..4 {
            for k in j + 1..=j + t {
                s[t] += u[k] * r[t][k];
            }
        }
        p[j..j + 4].copy_from_slice(&s);
        j += 4;
    }
    for (jj, pj) in p.iter_mut().enumerate().skip(j) {
        *pj = dot(u, row(jj));
    }
    for k in 1..m {
        let uk = u[k];
        for (pj, &akj) in p[..k].iter_mut().zip(&a[k * n..k * n + k]) {
            *pj += akj * uk;
        }
    }
}

/// Back-accumulation of the Householder reflections (the second half of
/// EISPACK `tred2`) on `w`, the transposed output of [`tred2_reduce`].
///
/// On exit `d` holds the tridiagonal's diagonal and `w` the transposed
/// orthogonal transform: each step is a row dot plus a row axpy per row
/// of the leading block, four rows at a time.
fn tred2_accumulate(w: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    let mut u = vec![0.0; n];
    for i in 0..n {
        if d[i] != 0.0 {
            // Step i's Householder vector is column i of `w`, `u / h` its row i.
            for (k, uk) in u[..i].iter_mut().enumerate() {
                *uk = w[(k, i)];
            }
            let u = &u[..i];
            let (q, rest) = w.as_mut_slice().split_at_mut(i * n);
            let u_h = &rest[..i];
            let mut blocks = q.chunks_exact_mut(4 * n);
            for block in &mut blocks {
                let (r01, r23) = block.split_at_mut(2 * n);
                let (r0, r1) = r01.split_at_mut(n);
                let (r2, r3) = r23.split_at_mut(n);
                let mut rows = [&mut r0[..i], &mut r1[..i], &mut r2[..i], &mut r3[..i]];
                let g = dot4(u, [&*rows[0], &*rows[1], &*rows[2], &*rows[3]]);
                for (row, g) in rows.iter_mut().zip(g) {
                    axpy_sub(row, g, u_h);
                }
            }
            for row in blocks.into_remainder().chunks_exact_mut(n) {
                let row = &mut row[..i];
                let g = dot(u, row);
                axpy_sub(row, g, u_h);
            }
        }
        d[i] = w[(i, i)];
        w[(i, i)] = 1.0;
        for j in 0..i {
            w[(i, j)] = 0.0;
            w[(j, i)] = 0.0;
        }
    }
}

/// `Σ x[k]·y[k]` as one left-to-right chain from 0.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut s = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        s += a * b;
    }
    s
}

/// [`dot`] of `x` with four rows (each at least `x.len()` long), as four
/// independent chains in one loop so their adds overlap.
fn dot4(x: &[f64], y: [&[f64]; 4]) -> [f64; 4] {
    let m = x.len();
    let (y0, y1, y2, y3) = (&y[0][..m], &y[1][..m], &y[2][..m], &y[3][..m]);
    let mut s = [0.0; 4];
    for k in 0..m {
        let xk = x[k];
        s[0] += xk * y0[k];
        s[1] += xk * y1[k];
        s[2] += xk * y2[k];
        s[3] += xk * y3[k];
    }
    s
}

/// `row[k] -= g · v[k]`.
fn axpy_sub(row: &mut [f64], g: f64, v: &[f64]) {
    for (r, &vk) in row.iter_mut().zip(v) {
        *r -= g * vk;
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
/// eigenvector accumulation (EISPACK `tql2`) into `zt`, the transposed
/// transform: each rotation updates two contiguous rows.
fn tql2(zt: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first small off-diagonal element at or after l.
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERATIONS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tql2",
                    max_iterations: MAX_QL_ITERATIONS,
                });
            }
            // Wilkinson-style shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            let mut i = m - 1;
            loop {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Negligible rotation: deflate and restart this l.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into rows i and i + 1 of Zᵀ.
                let (lo, hi) = zt.as_mut_slice().split_at_mut((i + 1) * n);
                simd::givens_rows(&mut lo[i * n..], &mut hi[..n], c, s);
                if i == l {
                    break;
                }
                i -= 1;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm_nt, gemm_tn};
    use crate::testing::xorshift_matrix;

    /// The column-oriented EISPACK port that ran on the row-major
    /// `Matrix` before the solver kept its transform transposed, verbatim:
    /// the bitwise oracle for [`SymmetricEigen::new`].
    mod reference {
        use super::super::MAX_QL_ITERATIONS;
        use crate::matrix::Matrix;
        use crate::{LinalgError, Result};

        /// `(eigenvalues, eigenvectors)` sorted as `SymmetricEigen::new` sorts them.
        pub(super) fn eigen(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
            let n = a.rows();
            let mut z = a.clone();
            let mut d = vec![0.0; n];
            let mut e = vec![0.0; n];
            if n > 0 {
                tred2(&mut z, &mut d, &mut e);
                tql2(&mut z, &mut d, &mut e)?;
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("eigenvalue NaN"));
            let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
            let mut eigenvectors = Matrix::zeros(n, n);
            for (newcol, &oldcol) in order.iter().enumerate() {
                for r in 0..n {
                    eigenvectors[(r, newcol)] = z[(r, oldcol)];
                }
            }
            Ok((eigenvalues, eigenvectors))
        }

        /// Householder reduction of `z` to tridiagonal form.
        ///
        /// On exit `d` holds the diagonal, `e[1..]` the subdiagonal, and `z` the
        /// accumulated orthogonal transformation (EISPACK `tred2`).
        fn tred2(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
            let n = d.len();
            for i in (1..n).rev() {
                let l = i - 1;
                let mut h = 0.0;
                if l > 0 {
                    let mut scale = 0.0;
                    for k in 0..=l {
                        scale += z[(i, k)].abs();
                    }
                    if scale == 0.0 {
                        e[i] = z[(i, l)];
                    } else {
                        for k in 0..=l {
                            z[(i, k)] /= scale;
                            h += z[(i, k)] * z[(i, k)];
                        }
                        let f = z[(i, l)];
                        let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                        e[i] = scale * g;
                        h -= f * g;
                        z[(i, l)] = f - g;
                        let mut f_acc = 0.0;
                        for j in 0..=l {
                            z[(j, i)] = z[(i, j)] / h;
                            let mut g_acc = 0.0;
                            for k in 0..=j {
                                g_acc += z[(j, k)] * z[(i, k)];
                            }
                            for k in (j + 1)..=l {
                                g_acc += z[(k, j)] * z[(i, k)];
                            }
                            e[j] = g_acc / h;
                            f_acc += e[j] * z[(i, j)];
                        }
                        let hh = f_acc / (h + h);
                        for j in 0..=l {
                            let f = z[(i, j)];
                            let g = e[j] - hh * f;
                            e[j] = g;
                            for k in 0..=j {
                                let upd = f * e[k] + g * z[(i, k)];
                                z[(j, k)] -= upd;
                            }
                        }
                    }
                } else {
                    e[i] = z[(i, l)];
                }
                d[i] = h;
            }
            d[0] = 0.0;
            e[0] = 0.0;
            // Accumulate the orthogonal transformation.
            for i in 0..n {
                if d[i] != 0.0 {
                    for j in 0..i {
                        let mut g = 0.0;
                        for k in 0..i {
                            g += z[(i, k)] * z[(k, j)];
                        }
                        for k in 0..i {
                            let zki = z[(k, i)];
                            z[(k, j)] -= g * zki;
                        }
                    }
                }
                d[i] = z[(i, i)];
                z[(i, i)] = 1.0;
                for j in 0..i {
                    z[(j, i)] = 0.0;
                    z[(i, j)] = 0.0;
                }
            }
        }

        /// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
        /// eigenvector accumulation (EISPACK `tql2`).
        fn tql2(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<()> {
            let n = d.len();
            if n == 1 {
                return Ok(());
            }
            for i in 1..n {
                e[i - 1] = e[i];
            }
            e[n - 1] = 0.0;

            for l in 0..n {
                let mut iter = 0;
                loop {
                    // Find the first small off-diagonal element at or after l.
                    let mut m = l;
                    while m < n - 1 {
                        let dd = d[m].abs() + d[m + 1].abs();
                        if e[m].abs() <= f64::EPSILON * dd {
                            break;
                        }
                        m += 1;
                    }
                    if m == l {
                        break;
                    }
                    iter += 1;
                    if iter > MAX_QL_ITERATIONS {
                        return Err(LinalgError::NoConvergence {
                            algorithm: "tql2",
                            max_iterations: MAX_QL_ITERATIONS,
                        });
                    }
                    // Wilkinson-style shift.
                    let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                    let mut r = g.hypot(1.0);
                    g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                    let mut s = 1.0;
                    let mut c = 1.0;
                    let mut p = 0.0;
                    let mut underflow = false;
                    let mut i = m - 1;
                    loop {
                        let f = s * e[i];
                        let b = c * e[i];
                        r = f.hypot(g);
                        e[i + 1] = r;
                        if r == 0.0 {
                            // Negligible rotation: deflate and restart this l.
                            d[i + 1] -= p;
                            e[m] = 0.0;
                            underflow = true;
                            break;
                        }
                        s = f / r;
                        c = g / r;
                        g = d[i + 1] - p;
                        r = (d[i] - g) * s + 2.0 * c * b;
                        p = s * r;
                        d[i + 1] = g + p;
                        g = c * r - b;
                        // Accumulate the rotation into the eigenvector matrix.
                        for k in 0..n {
                            let f2 = z[(k, i + 1)];
                            z[(k, i + 1)] = s * z[(k, i)] + c * f2;
                            z[(k, i)] = c * z[(k, i)] - s * f2;
                        }
                        if i == l {
                            break;
                        }
                        i -= 1;
                    }
                    if underflow {
                        continue;
                    }
                    d[l] -= p;
                    e[l] = g;
                    e[m] = 0.0;
                }
            }
            Ok(())
        }
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = gemm_nt(&b, &b).unwrap();
        // Shift to mix positive/negative spectrum.
        a.add_diag(-(n as f64) * 0.25);
        a
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
        let v0 = eig.eigenvectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_random() {
        for seed in [1u64, 2, 3] {
            let a = random_symmetric(12, seed);
            let eig = SymmetricEigen::new(&a).unwrap();
            let rec = eig.reconstruct();
            assert!(
                rec.max_abs_diff(&a) < 1e-9,
                "seed {seed}: reconstruction error {}",
                rec.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_symmetric(10, 5);
        let eig = SymmetricEigen::new(&a).unwrap();
        let vtv = gemm_tn(&eig.eigenvectors, &eig.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(10)) < 1e-10);
    }

    #[test]
    fn eigenvalues_descending() {
        let a = random_symmetric(15, 8);
        let eig = SymmetricEigen::new(&a).unwrap();
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = random_symmetric(9, 13);
        let eig = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn rank_of_low_rank_matrix() {
        // Rank-2 PSD matrix in 5 dimensions (columns 1, i, which are
        // linearly independent).
        let u = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { i as f64 });
        let a = gemm_nt(&u, &u).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.rank(1e-9), 2);
    }

    #[test]
    fn handles_identity_and_zero() {
        let eig = SymmetricEigen::new(&Matrix::identity(4)).unwrap();
        for v in &eig.eigenvalues {
            assert!((v - 1.0).abs() < 1e-14);
        }
        let eig0 = SymmetricEigen::new(&Matrix::zeros(3, 3)).unwrap();
        for v in &eig0.eigenvalues {
            assert!(v.abs() < 1e-14);
        }
    }

    #[test]
    fn handles_1x1_and_empty() {
        let eig = SymmetricEigen::new(&Matrix::from_vec(1, 1, vec![7.0])).unwrap();
        assert_eq!(eig.eigenvalues, vec![7.0]);
        let eig0 = SymmetricEigen::new(&Matrix::zeros(0, 0)).unwrap();
        assert!(eig0.eigenvalues.is_empty());
    }

    #[test]
    fn rejects_non_square() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn clustered_eigenvalues_converge() {
        // Nearly repeated eigenvalues are the classic stress test for QL.
        let mut a = Matrix::identity(8);
        a[(0, 1)] = 1e-8;
        a[(1, 0)] = 1e-8;
        let eig = SymmetricEigen::new(&a).unwrap();
        let rec = eig.reconstruct();
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `SymmetricEigen::new(a)` equals the column-oriented reference bit
    /// for bit, eigenvalues and eigenvectors.
    fn assert_matches_reference(a: &Matrix, what: &str) {
        let got = SymmetricEigen::new(a).unwrap();
        let (values, vectors) = reference::eigen(a).unwrap();
        assert_eq!(bits(&got.eigenvalues), bits(&values), "{what}: eigenvalues");
        assert_eq!(
            bits(got.eigenvectors.as_slice()),
            bits(vectors.as_slice()),
            "{what}: eigenvectors"
        );
    }

    /// The pinned inputs: `(name, matrix)` for each kind at order `n`.
    fn pinned_matrices(n: usize) -> Vec<(&'static str, Matrix)> {
        let seed = n as u64;
        let spd = {
            let b = xorshift_matrix(n, n, seed);
            let mut a = gemm_nt(&b, &b).unwrap();
            a.add_diag(1.0);
            a
        };
        let gram = {
            let b = xorshift_matrix(n, n.div_ceil(3), seed + 1);
            gemm_nt(&b, &b).unwrap()
        };
        let diagonal = Matrix::from_diag(
            &(0..n)
                .map(|i| ((i * 7) % n) as f64 - 0.5 * n as f64)
                .collect::<Vec<_>>(),
        );
        // `clustered_eigenvalues_converge` at order n: every eigenvalue
        // within ~1e-7 of 1.
        let clustered = {
            let p = xorshift_matrix(n, n, seed + 2);
            let mut a = Matrix::identity(n);
            a.add_scaled(1e-8, &p);
            a.add_scaled(1e-8, &p.transpose());
            a
        };
        // All-zero rows (and columns) take the reduction's `scale == 0`
        // branch.
        let zero_row = {
            let mut a = spd.clone();
            for z in [n / 2, n - 1] {
                for k in 0..n {
                    a[(z, k)] = 0.0;
                    a[(k, z)] = 0.0;
                }
            }
            a
        };
        vec![
            ("spd", spd),
            ("rank-deficient gram", gram),
            ("diagonal", diagonal),
            ("clustered", clustered),
            ("zero row", zero_row),
            ("identity", Matrix::identity(n)),
            ("indefinite", random_symmetric(n, seed)),
        ]
    }

    #[test]
    fn matches_column_oriented_reference_bitwise() {
        // The odd sizes are not multiples of the four-row interleave.
        for n in [1, 2, 3, 5, 17, 64, 129, 257] {
            for (name, a) in pinned_matrices(n) {
                assert_matches_reference(&a, &format!("{name} n={n}"));
            }
        }
    }

    #[test]
    fn strict_upper_triangle_is_never_read() {
        for n in [2, 5, 17, 64] {
            for (name, a) in pinned_matrices(n) {
                let mut garbage = a.clone();
                let noise = xorshift_matrix(n, n, 99);
                for i in 0..n {
                    for j in i + 1..n {
                        garbage[(i, j)] = match (i + j) % 4 {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => -1e300,
                            _ => noise[(i, j)],
                        };
                    }
                }
                let clean = SymmetricEigen::new(&a).unwrap();
                let dirty = SymmetricEigen::new(&garbage).unwrap();
                assert_eq!(
                    bits(&clean.eigenvalues),
                    bits(&dirty.eigenvalues),
                    "{name} n={n}"
                );
                assert_eq!(
                    bits(clean.eigenvectors.as_slice()),
                    bits(dirty.eigenvectors.as_slice()),
                    "{name} n={n}"
                );
                // The column-oriented reference has the same contract.
                let (values, vectors) = reference::eigen(&garbage).unwrap();
                assert_eq!(bits(&values), bits(&clean.eigenvalues), "{name} n={n}");
                assert_eq!(
                    bits(vectors.as_slice()),
                    bits(clean.eigenvectors.as_slice())
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn matches_reference_on_random_symmetric(n in 1usize..41, seed in 0u64..u64::MAX) {
            let b = xorshift_matrix(n, n, seed);
            let mut a = b.clone();
            a.add_scaled(1.0, &b.transpose());
            assert_matches_reference(&a, &format!("n={n} seed={seed}"));
        }
    }
}
