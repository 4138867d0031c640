//! Row-major dense matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// Row-major layout keeps per-example gradient rows contiguous, which is
/// the access pattern of everything BlinkML does (per-row gradients,
/// Gram-matrix accumulation, holdout predictions).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a generator function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Create a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Create a matrix from a slice of equally long rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Create a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow the contiguous row block `r` as one row-major slice of
    /// `r.len() * cols` values — the zero-copy view behind the chunked
    /// parallel kernels.
    #[inline]
    pub fn rows_slice(&self, r: std::ops::Range<usize>) -> &[f64] {
        debug_assert!(r.start <= r.end && r.end <= self.rows);
        &self.data[r.start * self.cols..r.end * self.cols]
    }

    /// Horizontal concatenation `[B₀ | B₁ | …]` of equally tall blocks.
    ///
    /// # Panics
    /// Panics on an empty block list or mismatched row counts.
    pub fn hstack(blocks: &[Matrix]) -> Matrix {
        assert!(!blocks.is_empty(), "hstack: no blocks");
        let rows = blocks[0].rows;
        for b in blocks {
            assert_eq!(b.rows, rows, "hstack: row count mismatch");
        }
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let dst = m.row_mut(i);
            let mut offset = 0;
            for b in blocks {
                dst[offset..offset + b.cols].copy_from_slice(b.row(i));
                offset += b.cols;
            }
        }
        m
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let src = self.row(i);
            for (j, &v) in src.iter().enumerate() {
                t.data[j * self.rows + i] = v;
            }
        }
        t
    }

    /// The main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Trace (sum of diagonal entries). Requires a square matrix.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace: matrix must be square");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `self += alpha * other` (elementwise).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Add `alpha` to every diagonal entry (e.g. L2 regularization `+ βI`).
    pub fn add_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::norm2(&self.data)
    }

    /// Max absolute entry.
    pub fn max_abs(&self) -> f64 {
        crate::vector::norm_inf(&self.data)
    }

    /// Maximum absolute elementwise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Symmetrize in place: `A <- (A + Aᵀ)/2`. Useful to clean up
    /// round-off before feeding a Gram matrix to the eigensolver.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(1, 0)], 10.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn from_rows_and_vec_agree() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn diag_and_add_diag() {
        let mut m = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m.diag(), vec![1.0, 2.0, 3.0]);
        m.add_diag(0.5);
        assert_eq!(m.diag(), vec![1.5, 2.5, 3.5]);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.add_scaled(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 6.0, 9.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 3.0, 4.5]);
    }

    #[test]
    fn symmetrize_averages() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 4.0, 2.0, 1.0]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn rows_slice_views_are_contiguous() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.rows_slice(1..3), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(m.rows_slice(0..0), &[] as &[f64]);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let h = Matrix::hstack(&[a, b]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn hstack_rejects_ragged_blocks() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 1);
        let _ = Matrix::hstack(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn hstack_rejects_ragged_even_with_empty_first_block() {
        let _ = Matrix::hstack(&[Matrix::zeros(0, 2), Matrix::zeros(3, 1)]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(m.max_abs(), 4.0);
        let z = Matrix::zeros(2, 2);
        assert_eq!(m.max_abs_diff(&z), 4.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.len() < 2000, "debug output must stay bounded");
    }
}
