//! Feature-vector abstraction: dense and sparse rows behind one trait.
//!
//! BlinkML's models only need two operations on a feature vector: an
//! inner product with a parameter slice (predictions, margins) and a
//! scaled accumulation into a gradient buffer. Keeping those behind a
//! trait lets a single model implementation serve both the dense
//! low-dimensional datasets (Gas, Power, HIGGS, MNIST) and the sparse
//! high-dimensional ones (Criteo, Yelp), exactly as the paper's Python
//! implementation switches between dense and scipy-sparse matrices.

use serde::{Deserialize, Serialize};

/// A single feature row.
pub trait FeatureVec: Clone + Send + Sync + 'static {
    /// Whether this representation is sparse. Guides the layout of
    /// per-example gradient matrices: sparse features produce sparse
    /// gradient rows.
    const IS_SPARSE: bool;

    /// Dimension of the ambient feature space.
    fn dim(&self) -> usize;

    /// Number of stored (potentially nonzero) entries.
    fn nnz(&self) -> usize;

    /// Inner product with a parameter slice of length `dim()`.
    fn dot(&self, w: &[f64]) -> f64;

    /// `out += coef * x`, where `out` has length `dim()`.
    fn add_scaled_into(&self, coef: f64, out: &mut [f64]);

    /// Value of coordinate `i` (slow path for sparse vectors).
    fn get(&self, i: usize) -> f64;

    /// Materialize as a dense vector.
    fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.add_scaled_into(1.0, &mut out);
        out
    }

    /// Write the dense representation into `out` (length `dim()`),
    /// overwriting previous contents. Allocation-free counterpart of
    /// [`FeatureVec::to_dense`] — the bulk-materialization primitive
    /// behind `DatasetMatrix`; dense implementations override it with a
    /// bit-exact memcpy.
    fn write_dense_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim());
        out.iter_mut().for_each(|v| *v = 0.0);
        self.add_scaled_into(1.0, out);
    }

    /// Borrow the values as one dense slice, when the representation
    /// stores them that way. `Some` lets `DatasetMatrix` build a
    /// **zero-copy** view over the dataset (no materialization at all);
    /// the default `None` falls back to an owned copy.
    fn dense_slice(&self) -> Option<&[f64]> {
        None
    }

    /// Borrow the stored entries as `(indices, values)` slices, when the
    /// representation stores them that way: the sparse counterpart of
    /// [`FeatureVec::dense_slice`], which lets `DatasetMatrix` copy a
    /// sparse row without allocating. The default `None` falls back to
    /// a [`FeatureVec::scaled_sparse`] copy.
    fn sparse_entries(&self) -> Option<(&[u32], &[f64])> {
        None
    }

    /// Squared Euclidean norm.
    fn norm_sq(&self) -> f64;

    /// True when every stored value is finite (no NaN/±Inf). The ingest
    /// validation gate ([`crate::stream`]) calls this per appended row;
    /// implementations check only stored entries (structural zeros are
    /// finite by definition).
    fn all_finite(&self) -> bool {
        self.to_dense().iter().all(|v| v.is_finite())
    }

    /// `out += X T` for a block of rows `X` and a row-major table `T` of
    /// shape `dim() × width`, with `out` the row-major
    /// `rows.len() × width` result:
    /// `out[r·width + c] += Σ_i rows[r]_i · T[i·width + c]`.
    ///
    /// This is the row-combination primitive behind batched margin
    /// scoring — one fused (sparse- or dense-) GEMM pass computes the
    /// holdout scores of an entire parameter pool. Each output adds its
    /// terms in ascending `i` and skips structural and stored zeros, so
    /// dense and sparse representations of the same logical rows produce
    /// bit-identical results (the kernels are in
    /// [`blinkml_linalg::simd`]).
    ///
    /// # Panics
    /// Panics when `table.len() != dim() * width` for some row or
    /// `out.len() != rows.len() * width`.
    fn add_rows_times_table(rows: &[&Self], table: &[f64], width: usize, out: &mut [f64]);

    /// A scaled copy `coef · x` as a sparse vector, optionally embedded
    /// into a larger space of dimension `out_dim` at index offset
    /// `offset` (used for per-class blocks of multiclass gradients).
    ///
    /// # Panics
    /// Panics when `offset + dim() > out_dim`.
    fn scaled_sparse(&self, coef: f64, out_dim: usize, offset: usize) -> SparseVec;
}

/// Dense feature row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseVec(pub Vec<f64>);

impl DenseVec {
    /// Wrap a dense vector.
    pub fn new(values: Vec<f64>) -> Self {
        DenseVec(values)
    }

    /// Borrow the raw values.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl FeatureVec for DenseVec {
    const IS_SPARSE: bool = false;

    #[inline]
    fn dim(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn nnz(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn dot(&self, w: &[f64]) -> f64 {
        blinkml_linalg::vector::dot(&self.0, w)
    }

    #[inline]
    fn add_scaled_into(&self, coef: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.0.len());
        for (o, &v) in out.iter_mut().zip(&self.0) {
            *o += coef * v;
        }
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    fn to_dense(&self) -> Vec<f64> {
        self.0.clone()
    }

    fn write_dense_into(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.0);
    }

    fn dense_slice(&self) -> Option<&[f64]> {
        Some(&self.0)
    }

    fn norm_sq(&self) -> f64 {
        self.0.iter().map(|v| v * v).sum()
    }

    fn all_finite(&self) -> bool {
        // A fold without early exit vectorizes; the ingest gate scans
        // every row of a static shard at spawn.
        self.0.iter().fold(true, |ok, v| ok & v.is_finite())
    }

    fn scaled_sparse(&self, coef: f64, out_dim: usize, offset: usize) -> SparseVec {
        assert!(
            offset + self.0.len() <= out_dim,
            "scaled_sparse out of range"
        );
        let indices: Vec<u32> = (0..self.0.len()).map(|i| (offset + i) as u32).collect();
        let values: Vec<f64> = self.0.iter().map(|v| coef * v).collect();
        SparseVec::new(out_dim, indices, values)
    }

    fn add_rows_times_table(rows: &[&Self], table: &[f64], width: usize, out: &mut [f64]) {
        let slices: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        blinkml_linalg::simd::rows_times_table(&slices, table, width, out);
    }
}

/// Sparse feature row: sorted `(index, value)` pairs plus the ambient
/// dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Build from parallel index/value arrays.
    ///
    /// Indices must be strictly increasing and below `dim`.
    ///
    /// # Panics
    /// Panics on unsorted/duplicate/out-of-range indices or mismatched
    /// array lengths.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "sparse: length mismatch");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "sparse: indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!((last as usize) < dim, "sparse: index {last} out of range");
        }
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// Build from possibly unsorted pairs, sorting and summing duplicates.
    pub fn from_pairs(dim: usize, mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values.last_mut().expect("nonempty") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVec::new(dim, indices, values)
    }

    /// The stored index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FeatureVec for SparseVec {
    const IS_SPARSE: bool = true;

    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    fn dot(&self, w: &[f64]) -> f64 {
        debug_assert_eq!(w.len(), self.dim);
        let mut s = 0.0;
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            s += v * w[i as usize];
        }
        s
    }

    #[inline]
    fn add_scaled_into(&self, coef: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim);
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] += coef * v;
        }
    }

    fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.dim);
        match self.indices.binary_search(&(i as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    fn sparse_entries(&self) -> Option<(&[u32], &[f64])> {
        Some((&self.indices, &self.values))
    }

    fn scaled_sparse(&self, coef: f64, out_dim: usize, offset: usize) -> SparseVec {
        assert!(offset + self.dim <= out_dim, "scaled_sparse out of range");
        let indices: Vec<u32> = self.indices.iter().map(|&i| i + offset as u32).collect();
        let values: Vec<f64> = self.values.iter().map(|v| coef * v).collect();
        SparseVec::new(out_dim, indices, values)
    }

    fn add_rows_times_table(rows: &[&Self], table: &[f64], width: usize, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            rows.len() * width,
            "add_rows_times_table: output shape mismatch"
        );
        for (k, r) in rows.iter().enumerate() {
            assert_eq!(
                r.dim * width,
                table.len(),
                "add_rows_times_table: table shape mismatch"
            );
            let out = &mut out[k * width..(k + 1) * width];
            blinkml_linalg::simd::sparse_row_times_table(&r.indices, &r.values, table, width, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_example() -> SparseVec {
        SparseVec::new(8, vec![1, 3, 6], vec![2.0, -1.0, 0.5])
    }

    #[test]
    fn dense_dot_and_accumulate() {
        let x = DenseVec::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(x.dot(&[1.0, 0.0, -1.0]), -2.0);
        let mut out = vec![0.0; 3];
        x.add_scaled_into(2.0, &mut out);
        assert_eq!(out, vec![2.0, 4.0, 6.0]);
        assert_eq!(x.dim(), 3);
        assert_eq!(x.nnz(), 3);
        assert_eq!(x.get(1), 2.0);
        assert_eq!(x.norm_sq(), 14.0);
    }

    #[test]
    fn sparse_dot_matches_dense() {
        let s = sparse_example();
        let d = DenseVec::new(s.to_dense());
        let w: Vec<f64> = (0..8).map(|i| (i as f64) * 0.25 - 1.0).collect();
        assert!((s.dot(&w) - d.dot(&w)).abs() < 1e-15);
        assert_eq!(s.norm_sq(), d.norm_sq());
    }

    #[test]
    fn sparse_accumulate_matches_dense() {
        let s = sparse_example();
        let d = DenseVec::new(s.to_dense());
        let mut out_s = vec![1.0; 8];
        let mut out_d = vec![1.0; 8];
        s.add_scaled_into(-0.5, &mut out_s);
        d.add_scaled_into(-0.5, &mut out_d);
        assert_eq!(out_s, out_d);
    }

    #[test]
    fn sparse_get_hits_and_misses() {
        let s = sparse_example();
        assert_eq!(s.get(1), 2.0);
        assert_eq!(s.get(3), -1.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.get(7), 0.0);
    }

    #[test]
    fn sparse_to_dense_layout() {
        let s = sparse_example();
        assert_eq!(s.to_dense(), vec![0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.5, 0.0]);
    }

    /// `out += X T` over every table width up to 40 (each column tile
    /// and tail of the SIMD kernels) and five rows (a 4-row tile plus a
    /// tail row), with zeros in `X`: dense, sparse with stored zeros and
    /// sparse without them all give the bits of the per-output sum that
    /// skips zero terms.
    #[test]
    fn add_rows_times_table_is_block_times_matrix() {
        let dim = 3;
        let x = [
            [2.0, 0.0, -1.0],
            [0.5, 1.5, 0.25],
            [0.0, -0.0, 3.0],
            [-2.0, 1.0, 0.0],
            [1.25, -0.75, 0.5],
        ];
        let dense: Vec<DenseVec> = x.iter().map(|r| DenseVec::new(r.to_vec())).collect();
        let stored: Vec<SparseVec> = dense.iter().map(|r| r.scaled_sparse(1.0, dim, 0)).collect();
        let pruned: Vec<SparseVec> = x
            .iter()
            .map(|r| {
                let pairs = (0..dim as u32).zip(r.iter().copied());
                SparseVec::from_pairs(dim, pairs.filter(|&(_, v)| v != 0.0).collect())
            })
            .collect();
        for width in 1..=40 {
            let table: Vec<f64> = (0..dim * width).map(|k| (k as f64 * 0.37).sin()).collect();
            let start: Vec<f64> = (0..x.len() * width)
                .map(|k| 0.5 - k as f64 * 0.01)
                .collect();
            let mut want = start.clone();
            for (r, row) in x.iter().enumerate() {
                for c in 0..width {
                    for (i, &v) in row.iter().enumerate() {
                        if v != 0.0 {
                            want[r * width + c] += v * table[i * width + c];
                        }
                    }
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut got = start.clone();
            DenseVec::add_rows_times_table(
                &dense.iter().collect::<Vec<_>>(),
                &table,
                width,
                &mut got,
            );
            assert_eq!(bits(&got), bits(&want), "dense, width {width}");
            for sparse in [&stored, &pruned] {
                let mut got = start.clone();
                let rows: Vec<&SparseVec> = sparse.iter().collect();
                SparseVec::add_rows_times_table(&rows, &table, width, &mut got);
                assert_eq!(bits(&got), bits(&want), "sparse, width {width}");
            }
        }
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let s = SparseVec::from_pairs(5, vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.values(), &[2.0, 1.5]);
    }

    #[test]
    fn empty_sparse_vector() {
        let s = SparseVec::new(4, vec![], vec![]);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.dot(&[1.0; 4]), 0.0);
        assert_eq!(s.to_dense(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sparse_rejects_unsorted() {
        SparseVec::new(4, vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_rejects_out_of_range() {
        SparseVec::new(4, vec![4], vec![1.0]);
    }
}
