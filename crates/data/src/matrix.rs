//! Cached design-matrix views for the batched training engine.
//!
//! A per-example objective walks the sample example by example — a
//! pointer chase through per-row `Vec` allocations repeated on every
//! optimizer probe. A [`DatasetMatrix`] captures the sample
//! **once per `train()` call** as a design-matrix view — borrowed
//! per-row slices for dense features (zero copy), a CSR triple for
//! sparse ones — plus a label vector, and exposes the batched passes
//! every model objective is built from:
//!
//! * [`DatasetMatrix::margins_into`] — `out = X·w + bias`, the margin
//!   pass (one fused kernel over the view),
//! * [`DatasetMatrix::weighted_sum_into`] — `out = Xᵀ·w`, the gradient
//!   reduction,
//! * [`DatasetMatrix::value_grad_fold`] — the fused
//!   margins → loss → gradient sweep behind `ModelClassSpec::value_grad`:
//!   each fixed-size chunk's rows are streamed once and reused while hot,
//!   which is where the batched engine's single-thread win comes from,
//! * [`DatasetMatrix::weighted_gram`] — `Σ wᵢ·xᵢxᵢᵀ`, the closed-form
//!   Hessian / second-moment accumulation.
//!
//! # Exactness and determinism
//!
//! Every pass reproduces the per-example scalar path's floating-point
//! reduction exactly: margins use the per-row [`FeatureVec::dot`] shape
//! (see `blinkml_linalg::simd`), and the reductions chunk at the fixed
//! [`CHUNK_SIZE`] with partials merged in chunk order — the same
//! contract as `parallel::par_sum_vecs`, which is what the scalar
//! objectives use. Results are therefore bit-identical to the scalar
//! path for dense and sparse features, at any thread budget.

use crate::dataset::Dataset;
use crate::features::FeatureVec;
use crate::parallel::{max_threads, par_fill_slice, par_map_reduce_matrix, par_ranges, CHUNK_SIZE};
use blinkml_linalg::simd::{
    rows_dot, rows_dot_gather, rows_dot_gather_idx, rows_weighted_sum, rows_weighted_sum_gather,
    rows_weighted_sum_gather_idx,
};
use blinkml_linalg::{vector, Matrix};

/// The captured feature block of a [`DatasetMatrix`].
#[derive(Debug, Clone)]
enum DesignBlock<'a> {
    /// Borrowed per-row slices — the zero-copy view over dense feature
    /// vectors (the rows stay wherever the dataset allocated them; only
    /// the 8-byte slice table is built).
    DenseRows(Vec<&'a [f64]>),
    /// Owned row-major `n × d` block, for dense feature types that
    /// cannot expose a borrowed slice.
    DenseOwned(Vec<f64>),
    /// CSR triple: `indptr` (`n + 1` row offsets), column indices, and
    /// values — the standard layout for the sparse regime.
    Csr {
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    },
}

/// A dataset captured for batched objective/gradient evaluation.
#[derive(Debug, Clone)]
pub struct DatasetMatrix<'a> {
    rows: usize,
    dim: usize,
    labels: Vec<f64>,
    block: DesignBlock<'a>,
}

impl<'a> DatasetMatrix<'a> {
    /// Capture `data` once: dense features become a borrowed row-slice
    /// view (or an owned block when the feature type exposes no slice),
    /// sparse features a CSR triple. Labels are copied alongside so the
    /// batched passes never touch the `Example` list again.
    pub fn from_dataset<F: FeatureVec>(data: &'a Dataset<F>) -> Self {
        let (rows, dim) = (data.len(), data.dim());
        let labels: Vec<f64> = data.iter().map(|e| e.y).collect();
        let block = if F::IS_SPARSE {
            let mut indptr = Vec::with_capacity(rows + 1);
            let mut indices = Vec::new();
            let mut values = Vec::new();
            indptr.push(0);
            for e in data.iter() {
                // `scaled_sparse(1.0, …)` copies the stored entries
                // bit-exactly for any sparse representation.
                let s = e.x.scaled_sparse(1.0, dim, 0);
                indices.extend_from_slice(s.indices());
                values.extend_from_slice(s.values());
                indptr.push(indices.len());
            }
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            }
        } else if data.iter().all(|e| e.x.dense_slice().is_some()) {
            DesignBlock::DenseRows(
                data.iter()
                    .map(|e| e.x.dense_slice().expect("checked above"))
                    .collect(),
            )
        } else {
            let mut block = vec![0.0; rows * dim];
            for (slot, e) in block.chunks_exact_mut(dim.max(1)).zip(data.iter()) {
                e.x.write_dense_into(slot);
            }
            DesignBlock::DenseOwned(block)
        };
        DatasetMatrix {
            rows,
            dim,
            labels,
            block,
        }
    }

    /// Number of examples `n`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the matrix holds no examples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The label vector, aligned with the rows.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Whether the block is stored as CSR.
    pub fn is_sparse(&self) -> bool {
        matches!(self.block, DesignBlock::Csr { .. })
    }

    /// The full-matrix view: every batched pass on a [`MatrixView`] with
    /// no gather list is bit-identical to (and implemented by) the
    /// matrix's own passes.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            matrix: self,
            indices: None,
            limit: None,
        }
    }

    /// A gathered view selecting rows `indices` (in order, repeats
    /// allowed): the zero-copy representation of a sample drawn from
    /// this matrix's dataset. Every pass over the gathered view is
    /// bit-identical to the same pass over a [`DatasetMatrix`] freshly
    /// built from `dataset.subset(indices)` — no example is cloned and
    /// no per-sample matrix is rebuilt.
    ///
    /// Out-of-range indices panic inside the passes (debug-asserted
    /// here).
    pub fn gather<'m>(&'m self, indices: &'m [usize]) -> MatrixView<'m> {
        debug_assert!(
            indices.iter().all(|&i| i < self.rows),
            "gather: index out of range"
        );
        MatrixView {
            matrix: self,
            indices: Some(indices),
            limit: None,
        }
    }

    /// Dense row `i` as a slice (`None` for CSR blocks).
    pub fn dense_row(&self, i: usize) -> Option<&[f64]> {
        match &self.block {
            DesignBlock::DenseRows(rows) => Some(rows[i]),
            DesignBlock::DenseOwned(b) => Some(&b[i * self.dim..(i + 1) * self.dim]),
            DesignBlock::Csr { .. } => None,
        }
    }

    /// The stored entries of sparse row `i` (`None` for dense blocks).
    pub fn sparse_row(&self, i: usize) -> Option<(&[u32], &[f64])> {
        match &self.block {
            DesignBlock::DenseRows(_) | DesignBlock::DenseOwned(_) => None,
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                let (s, e) = (indptr[i], indptr[i + 1]);
                Some((&indices[s..e], &values[s..e]))
            }
        }
    }

    /// Margins of the row range `range` written into `out`
    /// (`out[k] = x_{range.start+k}·w + bias`) — the shared chunk kernel
    /// behind [`Self::margins_into`] and [`Self::value_grad_fold`].
    fn margins_range(&self, start: usize, end: usize, w: &[f64], bias: f64, out: &mut [f64]) {
        let d = self.dim;
        match &self.block {
            DesignBlock::DenseRows(rows) => {
                rows_dot_gather(&rows[start..end], d, w, bias, out);
            }
            DesignBlock::DenseOwned(x) => {
                rows_dot(&x[start * d..end * d], d, w, bias, out);
            }
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                for (local, i) in (start..end).enumerate() {
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    let mut acc = 0.0;
                    for (&idx, &v) in indices[s..e].iter().zip(&values[s..e]) {
                        acc += v * w[idx as usize];
                    }
                    out[local] = acc + bias;
                }
            }
        }
    }

    /// `out += Σ_{i in range} w[i - start]·x_i`, in ascending row order —
    /// the shared chunk kernel behind [`Self::weighted_sum_into`] and
    /// [`Self::value_grad_fold`].
    fn weighted_sum_range(&self, start: usize, end: usize, w: &[f64], out: &mut [f64]) {
        let d = self.dim;
        match &self.block {
            DesignBlock::DenseRows(rows) => {
                rows_weighted_sum_gather(&rows[start..end], d, w, out);
            }
            DesignBlock::DenseOwned(x) => {
                rows_weighted_sum(&x[start * d..end * d], d, w, out);
            }
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                for (local, i) in (start..end).enumerate() {
                    let wi = w[local];
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    for (&idx, &v) in indices[s..e].iter().zip(&values[s..e]) {
                        out[idx as usize] += wi * v;
                    }
                }
            }
        }
    }

    /// Pack the gathered rows into an **owned** matrix: one flat
    /// row-major block (dense) or one contiguous CSR triple (sparse)
    /// plus the gathered labels — a single bulk allocation, never a
    /// per-example clone. Every pass over the packed matrix is
    /// bit-identical to the same pass over [`DatasetMatrix::gather`]
    /// (the contiguous kernels share the gathered kernels' reduction
    /// shape).
    ///
    /// This trades one `O(sample bytes)` copy for contiguous streaming:
    /// profitable when the sample outgrows the cache **and** will be
    /// streamed many times (optimizer probes) — random row gathers from
    /// a DRAM-resident pool stall on latency that software prefetch
    /// cannot fully hide. [`DatasetMatrix::capture_sample`] applies
    /// that policy; single-pass consumers should keep the plain gather.
    pub fn gather_packed(&self, indices: &[usize]) -> DatasetMatrix<'static> {
        self.pack_rows(indices, &mut CaptureScratch::new())
    }

    /// The shared packing body behind [`Self::gather_packed`] and
    /// [`Self::capture_sample_with`]: gather rows and labels into
    /// `scratch`'s (possibly recycled) buffers and wrap them as an
    /// owned matrix.
    fn pack_rows(&self, indices: &[usize], scratch: &mut CaptureScratch) -> DatasetMatrix<'static> {
        let d = self.dim;
        let mut labels = std::mem::take(&mut scratch.labels);
        labels.clear();
        labels.extend(indices.iter().map(|&i| self.labels[i]));
        let block = match &self.block {
            DesignBlock::DenseRows(rows) => {
                let mut x = std::mem::take(&mut scratch.dense);
                x.clear();
                x.reserve(indices.len() * d);
                for &i in indices {
                    x.extend_from_slice(rows[i]);
                }
                DesignBlock::DenseOwned(x)
            }
            DesignBlock::DenseOwned(xp) => {
                let mut x = std::mem::take(&mut scratch.dense);
                x.clear();
                x.reserve(indices.len() * d);
                for &i in indices {
                    x.extend_from_slice(&xp[i * d..(i + 1) * d]);
                }
                DesignBlock::DenseOwned(x)
            }
            DesignBlock::Csr {
                indptr,
                indices: ci,
                values,
            } => {
                let nnz: usize = indices.iter().map(|&i| indptr[i + 1] - indptr[i]).sum();
                let mut nindptr = std::mem::take(&mut scratch.indptr);
                let mut nindices = std::mem::take(&mut scratch.sp_indices);
                let mut nvalues = std::mem::take(&mut scratch.sp_values);
                nindptr.clear();
                nindices.clear();
                nvalues.clear();
                nindptr.reserve(indices.len() + 1);
                nindices.reserve(nnz);
                nvalues.reserve(nnz);
                nindptr.push(0);
                for &i in indices {
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    nindices.extend_from_slice(&ci[s..e]);
                    nvalues.extend_from_slice(&values[s..e]);
                    nindptr.push(nindices.len());
                }
                DesignBlock::Csr {
                    indptr: nindptr,
                    indices: nindices,
                    values: nvalues,
                }
            }
        };
        DatasetMatrix {
            rows: indices.len(),
            dim: d,
            labels,
            block,
        }
    }

    /// Capture the sample `indices` for **repeated** batched passes
    /// (optimizer probes plus the statistics phase): a zero-copy
    /// gathered view while the sample's data footprint is
    /// cache-resident, a packed owned matrix ([`Self::gather_packed`])
    /// above [`PACK_THRESHOLD_BYTES`]. Both forms are bit-identical;
    /// only streaming speed differs.
    pub fn capture_sample<'m>(&'m self, indices: &'m [usize]) -> SampleCapture<'m> {
        self.capture_sample_with(indices, &mut CaptureScratch::new())
    }

    /// [`Self::capture_sample`] recycling `scratch`'s buffers for the
    /// packed form: repeated captures (a coordinator run's pilot and
    /// final sample, or every query of a multi-query session) rewrite
    /// warm pages instead of faulting in a fresh block each time. Hand
    /// the capture back with [`SampleCapture::recycle`] when done.
    /// Values are fully overwritten, so reuse never changes a bit.
    pub fn capture_sample_with<'m>(
        &'m self,
        indices: &'m [usize],
        scratch: &mut CaptureScratch,
    ) -> SampleCapture<'m> {
        let view = self.gather(indices);
        if view.data_bytes() <= PACK_THRESHOLD_BYTES {
            return SampleCapture::Gathered(view);
        }
        SampleCapture::Packed(self.pack_rows(indices, scratch))
    }

    /// Margin pass `out[i] = xᵢ·w + bias` over the full matrix — see
    /// [`MatrixView::margins_into`].
    pub fn margins_into(&self, w: &[f64], bias: f64, out: &mut [f64]) {
        self.view().margins_into(w, bias, out);
    }

    /// Gradient reduction `out = Xᵀ·w` over the full matrix — see
    /// [`MatrixView::weighted_sum_into`].
    pub fn weighted_sum_into(&self, w: &[f64], out: &mut [f64]) {
        self.view().weighted_sum_into(w, out);
    }

    /// Fused objective sweep over the full matrix — see
    /// [`MatrixView::value_grad_fold`].
    pub fn value_grad_fold<Fm>(
        &self,
        w: &[f64],
        bias: f64,
        grad: &mut [f64],
        scratch: &mut TrainScratch,
        chunk_fn: Fm,
    ) -> f64
    where
        Fm: FnMut(usize, &mut [f64]) -> f64,
    {
        self.view()
            .value_grad_fold(w, bias, grad, scratch, chunk_fn)
    }

    /// Weighted Gram accumulation over the full matrix — see
    /// [`MatrixView::weighted_gram`].
    pub fn weighted_gram(&self, w: &[f64]) -> Matrix {
        self.view().weighted_gram(w)
    }
}

/// Data footprint above which [`DatasetMatrix::capture_sample`] packs
/// the sample into a contiguous owned matrix instead of serving a
/// gathered view. Measured on DRAM-resident pools, optimizer probes
/// over randomly-ordered gathered rows run ~2–2.5× slower than over a
/// contiguous block (row-start latency and dTLB misses that software
/// prefetch cannot fully hide — prefetches are dropped on dTLB misses),
/// while the pack itself costs about one extra stream of the sample.
/// Packing therefore pays for itself within a couple of probes; only
/// samples small enough for the gather penalty to be immeasurable
/// (at most a few hundred KB — resident after the first probe) stay as
/// pure views.
pub const PACK_THRESHOLD_BYTES: usize = 256 << 10;

/// A sample captured for repeated batched passes — the output of
/// [`DatasetMatrix::capture_sample`]. Hand its [`SampleCapture::view`]
/// to training and statistics; both forms obey the same bitwise
/// contract.
#[derive(Debug)]
pub enum SampleCapture<'m> {
    /// Zero-copy gathered view into the pool matrix (cache-resident
    /// samples).
    Gathered(MatrixView<'m>),
    /// Packed owned matrix (DRAM-resident samples): one bulk copy,
    /// contiguous probes.
    Packed(DatasetMatrix<'static>),
}

impl SampleCapture<'_> {
    /// The design-matrix view over the captured sample.
    pub fn view(&self) -> MatrixView<'_> {
        match self {
            SampleCapture::Gathered(v) => *v,
            SampleCapture::Packed(matrix) => matrix.view(),
        }
    }

    /// Whether the capture packed the sample into an owned matrix.
    pub fn is_packed(&self) -> bool {
        matches!(self, SampleCapture::Packed(_))
    }

    /// Return a packed capture's buffers to `scratch` so the next
    /// [`DatasetMatrix::capture_sample_with`] rewrites warm pages
    /// instead of faulting in fresh ones. A no-op for gathered views.
    pub fn recycle(self, scratch: &mut CaptureScratch) {
        if let SampleCapture::Packed(m) = self {
            scratch.labels = m.labels;
            match m.block {
                DesignBlock::DenseOwned(x) => scratch.dense = x,
                DesignBlock::Csr {
                    indptr,
                    indices,
                    values,
                } => {
                    scratch.indptr = indptr;
                    scratch.sp_indices = indices;
                    scratch.sp_values = values;
                }
                DesignBlock::DenseRows(_) => {}
            }
        }
    }
}

/// Recyclable buffers behind packed sample captures
/// ([`DatasetMatrix::capture_sample_with`]): one coordinator run reuses
/// them between its pilot and final captures, and a multi-query session
/// keeps one across every `train()` call, so steady-state packing
/// allocates nothing.
#[derive(Debug, Default)]
pub struct CaptureScratch {
    dense: Vec<f64>,
    labels: Vec<f64>,
    indptr: Vec<usize>,
    sp_indices: Vec<u32>,
    sp_values: Vec<f64>,
}

impl CaptureScratch {
    /// Empty scratch; buffers grow on first packed capture.
    pub fn new() -> Self {
        CaptureScratch::default()
    }
}

/// A (possibly gathered) window onto a [`DatasetMatrix`].
///
/// A view is the unit every batched pass runs over: either the whole
/// matrix ([`DatasetMatrix::view`]) or an index-selected sample of its
/// rows ([`DatasetMatrix::gather`]) — the zero-copy representation of
/// `Dataset::sample_view`. Views are `Copy` (two pointers); drawing a
/// sample never clones an example or rebuilds a matrix.
///
/// # Exactness and determinism
///
/// Every pass over a gathered view is **bit-identical** to the same
/// pass over a `DatasetMatrix` built from the materialized sample
/// (`dataset.subset(indices)`): the gathered kernels keep the per-row
/// 4-lane dot shape (`rows_dot_gather_idx`), accumulate gradient rows
/// in ascending sample order (`rows_weighted_sum_gather_idx`), and
/// chunk at the same fixed [`CHUNK_SIZE`] boundaries with the same
/// merge order — the chunk grid depends only on the *sample* length,
/// which both representations share. Thread budgets never change a bit
/// (same contract as the full-matrix passes).
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'m> {
    matrix: &'m DatasetMatrix<'m>,
    /// Storage-level gather list: rows are read through these indices.
    indices: Option<&'m [usize]>,
    /// Row cap for non-gathered views: `Some(n)` restricts the view to
    /// the matrix's first `n` rows (see [`MatrixView::prefix`]).
    /// Gathered views never set this — prefixing them slices the index
    /// list instead.
    limit: Option<usize>,
}

impl<'m> MatrixView<'m> {
    /// Number of rows the view selects (`n` of the sample).
    pub fn len(&self) -> usize {
        match self.indices {
            Some(idx) => idx.len(),
            None => self.limit.unwrap_or(self.matrix.rows),
        }
    }

    /// True when the view selects no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.matrix.dim
    }

    /// Whether the underlying block is stored as CSR.
    pub fn is_sparse(&self) -> bool {
        self.matrix.is_sparse()
    }

    /// The gather list, when this view is a gathered sample.
    pub fn indices(&self) -> Option<&'m [usize]> {
        self.indices
    }

    /// Whether this view gathers a row subset (vs the full matrix).
    pub fn is_gathered(&self) -> bool {
        self.indices.is_some()
    }

    /// The underlying pool-resident matrix.
    pub fn matrix(&self) -> &'m DatasetMatrix<'m> {
        self.matrix
    }

    /// The view restricted to its first `n` rows.
    ///
    /// For gathered views this slices the index list; for full or packed
    /// views it caps the row count. Because every batched pass chunks at
    /// the fixed [`CHUNK_SIZE`] grid anchored at row 0, each pass over
    /// `prefix(n)` is **bit-identical** to the same pass over a view of
    /// the first `n` rows built any other way (a sliced gather list, or
    /// a matrix packed from just those rows). This is what lets nested
    /// samples — `sample_indices`' prefix property makes every smaller
    /// sample a prefix of the largest one — share a single capture.
    ///
    /// # Panics
    /// Panics when `n > len()`.
    pub fn prefix(&self, n: usize) -> MatrixView<'m> {
        assert!(
            n <= self.len(),
            "prefix: {n} rows from a {}-row view",
            self.len()
        );
        match self.indices {
            Some(idx) => MatrixView {
                matrix: self.matrix,
                indices: Some(&idx[..n]),
                limit: None,
            },
            None => MatrixView {
                matrix: self.matrix,
                indices: None,
                limit: Some(n),
            },
        }
    }

    /// Bytes of feature data the view's rows span: `len·dim·8` for
    /// dense blocks, stored entries (12 bytes each) for CSR. The
    /// footprint [`DatasetMatrix::capture_sample`] compares against
    /// [`PACK_THRESHOLD_BYTES`].
    pub fn data_bytes(&self) -> usize {
        match &self.matrix.block {
            DesignBlock::DenseRows(_) | DesignBlock::DenseOwned(_) => {
                self.len() * self.matrix.dim * 8
            }
            DesignBlock::Csr { indptr, .. } => {
                let nnz: usize = match self.indices {
                    None => indptr[self.len()],
                    Some(idx) => idx.iter().map(|&i| indptr[i + 1] - indptr[i]).sum(),
                };
                nnz * 12
            }
        }
    }

    /// Pool row index behind view row `k`.
    #[inline]
    fn row_index(&self, k: usize) -> usize {
        match self.indices {
            None => k,
            Some(idx) => idx[k],
        }
    }

    /// Label of view row `k`.
    #[inline]
    pub fn label(&self, k: usize) -> f64 {
        self.matrix.labels[self.row_index(k)]
    }

    /// Dense view row `k` as a slice (`None` for CSR blocks).
    pub fn dense_row(&self, k: usize) -> Option<&'m [f64]> {
        self.matrix.dense_row(self.row_index(k))
    }

    /// The stored entries of sparse view row `k` (`None` for dense
    /// blocks).
    pub fn sparse_row(&self, k: usize) -> Option<(&'m [u32], &'m [f64])> {
        self.matrix.sparse_row(self.row_index(k))
    }

    /// Margins of view rows `start..end` written into `out` — the
    /// shared chunk kernel. Full views delegate to the matrix kernel;
    /// gathered views run the index-gather kernels over the pool block.
    fn margins_range(&self, start: usize, end: usize, w: &[f64], bias: f64, out: &mut [f64]) {
        let idx = match self.indices {
            None => return self.matrix.margins_range(start, end, w, bias, out),
            Some(idx) => &idx[start..end],
        };
        let d = self.matrix.dim;
        match &self.matrix.block {
            DesignBlock::DenseRows(rows) => {
                rows_dot_gather_idx(rows, idx, d, w, bias, out);
            }
            DesignBlock::DenseOwned(x) => {
                for (local, &i) in idx.iter().enumerate() {
                    out[local] = vector::dot(&x[i * d..(i + 1) * d], w) + bias;
                }
            }
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                for (local, &i) in idx.iter().enumerate() {
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    let mut acc = 0.0;
                    for (&j, &v) in indices[s..e].iter().zip(&values[s..e]) {
                        acc += v * w[j as usize];
                    }
                    out[local] = acc + bias;
                }
            }
        }
    }

    /// `out += Σ_{k in start..end} w[k - start]·x_{row(k)}`, in
    /// ascending view-row order — the shared gradient chunk kernel.
    fn weighted_sum_range(&self, start: usize, end: usize, w: &[f64], out: &mut [f64]) {
        let idx = match self.indices {
            None => return self.matrix.weighted_sum_range(start, end, w, out),
            Some(idx) => &idx[start..end],
        };
        let d = self.matrix.dim;
        match &self.matrix.block {
            DesignBlock::DenseRows(rows) => {
                rows_weighted_sum_gather_idx(rows, idx, d, w, out);
            }
            DesignBlock::DenseOwned(x) => {
                for (local, &i) in idx.iter().enumerate() {
                    let wi = w[local];
                    for (oj, &xj) in out.iter_mut().zip(&x[i * d..(i + 1) * d]) {
                        *oj += wi * xj;
                    }
                }
            }
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                for (local, &i) in idx.iter().enumerate() {
                    let wi = w[local];
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    for (&j, &v) in indices[s..e].iter().zip(&values[s..e]) {
                        out[j as usize] += wi * v;
                    }
                }
            }
        }
    }

    /// Margin pass `out[k] = x_{row(k)}·w + bias`.
    ///
    /// Bit-identical to the per-example `e.x.dot(w) + bias` loop over
    /// the (conceptually materialized) sample: the dense paths keep each
    /// row's 4-lane dot shape, the sparse path accumulates stored
    /// entries in index order. Output rows are partitioned across
    /// threads, so the budget never changes a single bit.
    ///
    /// # Panics
    /// Panics when `w.len() != dim()` or `out.len() != len()`.
    pub fn margins_into(&self, w: &[f64], bias: f64, out: &mut [f64]) {
        assert_eq!(
            w.len(),
            self.matrix.dim,
            "margins_into: weight length mismatch"
        );
        assert_eq!(
            out.len(),
            self.len(),
            "margins_into: output length mismatch"
        );
        par_fill_slice(out, CHUNK_SIZE, |range, chunk| {
            self.margins_range(range.start, range.end, w, bias, chunk);
        });
    }

    /// Gradient reduction `out = Xᵀ·w = Σₖ w[k]·x_{row(k)}`
    /// (overwriting `out`).
    ///
    /// Chunked at [`CHUNK_SIZE`] over the view rows with partials
    /// merged in chunk order — the same reduction the scalar objectives
    /// perform through `par_sum_vecs` on the materialized sample, so the
    /// result matches bit for bit at any thread budget.
    ///
    /// # Panics
    /// Panics when `w.len() != len()` or `out.len() != dim()`.
    pub fn weighted_sum_into(&self, w: &[f64], out: &mut [f64]) {
        assert_eq!(
            w.len(),
            self.len(),
            "weighted_sum_into: weight length mismatch"
        );
        assert_eq!(
            out.len(),
            self.matrix.dim,
            "weighted_sum_into: output length mismatch"
        );
        let d = self.matrix.dim;
        let partials = par_ranges(self.len(), |range| {
            let mut acc = vec![0.0; d];
            self.weighted_sum_range(range.start, range.end, &w[range], &mut acc);
            acc
        });
        out.iter_mut().for_each(|v| *v = 0.0);
        for p in partials {
            for (o, v) in out.iter_mut().zip(p) {
                *o += v;
            }
        }
    }

    /// The fused objective sweep: for each fixed [`CHUNK_SIZE`] chunk of
    /// view rows, compute the margins, hand them to `chunk_fn` (which
    /// returns the chunk's loss partial and overwrites the margins **in
    /// place** with per-row gradient weights), and accumulate the
    /// chunk's `Σ wₖ·x_{row(k)}` into `grad` — all while the chunk's
    /// rows are still cache-hot, so each probe streams the sample
    /// **once**. Returns the loss partials summed in chunk order.
    ///
    /// `chunk_fn(start, margins)` sees the chunk's starting *view-row*
    /// index (for [`MatrixView::label`] lookup) and its margin slice; it
    /// is always invoked sequentially in ascending chunk order, at every
    /// thread budget.
    ///
    /// Bitwise contract: margins, the loss-partial merge, and the
    /// gradient reduction all reproduce the scalar objective's
    /// `par_sum_vecs` accumulation on the materialized sample exactly;
    /// multi-thread budgets run the parallel two-pass form, which
    /// preserves the same chunk boundaries and merge order.
    ///
    /// # Panics
    /// Panics when `w.len() != dim()` or `grad.len() != dim()`.
    pub fn value_grad_fold<Fm>(
        &self,
        w: &[f64],
        bias: f64,
        grad: &mut [f64],
        scratch: &mut TrainScratch,
        mut chunk_fn: Fm,
    ) -> f64
    where
        Fm: FnMut(usize, &mut [f64]) -> f64,
    {
        let d = self.matrix.dim;
        assert_eq!(w.len(), d, "value_grad_fold: weight length mismatch");
        assert_eq!(grad.len(), d, "value_grad_fold: gradient length mismatch");
        let rows = self.len();
        if max_threads() > 1 && rows > CHUNK_SIZE {
            // Parallel two-pass form: full margin buffer, parallel
            // margins and gradient kernels, chunk_fn applied chunk by
            // chunk in order. Bit-identical to the fused form below.
            let margins = scratch.fold_full(rows);
            self.margins_into(w, bias, margins);
            let mut total = 0.0;
            let mut start = 0;
            while start < rows {
                let end = (start + CHUNK_SIZE).min(rows);
                total += chunk_fn(start, &mut margins[start..end]);
                start = end;
            }
            self.weighted_sum_into(margins, grad);
            return total;
        }
        // Fused single-thread form: chunk margins → chunk_fn → chunk
        // gradient partial, with the chunk's rows reused while hot.
        let (chunk_buf, partial) = scratch.fold_buffers(CHUNK_SIZE.min(rows.max(1)), d);
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut total = 0.0;
        let mut start = 0;
        while start < rows {
            let end = (start + CHUNK_SIZE).min(rows);
            let mchunk = &mut chunk_buf[..end - start];
            self.margins_range(start, end, w, bias, mchunk);
            total += chunk_fn(start, mchunk);
            partial.iter_mut().for_each(|v| *v = 0.0);
            self.weighted_sum_range(start, end, mchunk, partial);
            for (g, p) in grad.iter_mut().zip(partial.iter()) {
                *g += p;
            }
            start = end;
        }
        total
    }

    /// The fused **multi-request** objective sweep: evaluate `K`
    /// independent `(w, bias)` probes — each over its own row-count
    /// prefix of this view — in one pass over the data. For every fixed
    /// [`CHUNK_SIZE`] chunk of rows, all live requests run their
    /// margins → `chunk_fn` → gradient-partial sequence back to back
    /// while the chunk's rows are cache-hot, so `K` probes stream the
    /// sample once instead of `K` times. This is the kernel behind the
    /// sweep engine's batched multi-λ objective evaluation, where the
    /// per-λ final-sample prefixes all live inside one shared capture.
    ///
    /// `chunk_fn(k, start, margins)` sees the request index, the chunk's
    /// starting view-row index, and the chunk's margins; it returns the
    /// chunk's `(loss, extra)` partials and overwrites the margins in
    /// place with per-row gradient weights. It must be pure per chunk
    /// (no cross-chunk state): partials are merged into each request's
    /// [`FoldRequest::loss`]/[`FoldRequest::extra`] in ascending chunk
    /// order on the caller thread.
    ///
    /// Bitwise contract: each request's `(loss, extra, grad)` is
    /// **bit-identical** to running [`MatrixView::value_grad_fold`] on
    /// `self.prefix(rows_k)` alone, at any thread budget — the chunk
    /// grid is anchored at row 0 in both cases (a request's last chunk
    /// is truncated at its `rows`, exactly where its solo grid would
    /// end), per-chunk gradient partials start from a zeroed buffer and
    /// merge in chunk order, and the scalar partials accumulate in the
    /// same order `value_grad_fold` sums its chunk returns.
    ///
    /// # Panics
    /// Panics when a request's `w`/`grad` length differs from `dim()` or
    /// its `rows` exceeds `len()`.
    pub fn value_grad_fold_multi<Fm>(
        &self,
        requests: &mut [FoldRequest<'_>],
        scratch: &mut TrainScratch,
        chunk_fn: Fm,
    ) where
        Fm: Fn(usize, usize, &mut [f64]) -> (f64, f64) + Sync,
    {
        let d = self.matrix.dim;
        let mut max_rows = 0;
        for req in requests.iter_mut() {
            assert_eq!(
                req.w.len(),
                d,
                "value_grad_fold_multi: weight length mismatch"
            );
            assert_eq!(
                req.grad.len(),
                d,
                "value_grad_fold_multi: gradient length mismatch"
            );
            assert!(
                req.rows <= self.len(),
                "value_grad_fold_multi: request rows out of range"
            );
            req.loss = 0.0;
            req.extra = 0.0;
            req.grad.iter_mut().for_each(|g| *g = 0.0);
            max_rows = max_rows.max(req.rows);
        }
        if max_threads() > 1 && max_rows > CHUNK_SIZE {
            // Parallel form: each chunk of the shared grid computes every
            // live request's margins, loss/extra partials, and zeroed
            // gradient partial; partials merge on this thread in chunk
            // order — the exact accumulation the fused form performs.
            let specs: Vec<(&[f64], f64, usize)> =
                requests.iter().map(|r| (r.w, r.bias, r.rows)).collect();
            let parts = par_ranges(max_rows, |range| {
                let mut mchunk = vec![0.0; range.len()];
                specs
                    .iter()
                    .enumerate()
                    .map(|(k, &(w, bias, rows))| {
                        if rows <= range.start {
                            return None;
                        }
                        let end = range.end.min(rows);
                        let ms = &mut mchunk[..end - range.start];
                        self.margins_range(range.start, end, w, bias, ms);
                        let (lp, ep) = chunk_fn(k, range.start, ms);
                        let mut acc = vec![0.0; d];
                        self.weighted_sum_range(range.start, end, ms, &mut acc);
                        Some((lp, ep, acc))
                    })
                    .collect::<Vec<_>>()
            });
            for chunk_parts in parts {
                for (req, part) in requests.iter_mut().zip(chunk_parts) {
                    if let Some((lp, ep, acc)) = part {
                        req.loss += lp;
                        req.extra += ep;
                        for (g, p) in req.grad.iter_mut().zip(acc.iter()) {
                            *g += p;
                        }
                    }
                }
            }
            return;
        }
        // Fused single-thread form: per chunk, every live request reuses
        // the chunk's rows while hot.
        let (chunk_buf, partial) = scratch.fold_buffers(CHUNK_SIZE.min(max_rows.max(1)), d);
        let mut start = 0;
        while start < max_rows {
            let chunk_end = (start + CHUNK_SIZE).min(max_rows);
            for (k, req) in requests.iter_mut().enumerate() {
                if req.rows <= start {
                    continue;
                }
                let end = chunk_end.min(req.rows);
                let mchunk = &mut chunk_buf[..end - start];
                self.margins_range(start, end, req.w, req.bias, mchunk);
                let (lp, ep) = chunk_fn(k, start, mchunk);
                req.loss += lp;
                req.extra += ep;
                partial.iter_mut().for_each(|v| *v = 0.0);
                self.weighted_sum_range(start, end, mchunk, partial);
                for (g, p) in req.grad.iter_mut().zip(partial.iter()) {
                    *g += p;
                }
            }
            start = chunk_end;
        }
    }

    /// Weighted Gram accumulation `Σₖ w[k]·x_{row(k)}x_{row(k)}ᵀ`
    /// (`d × d`), the kernel behind closed-form Hessians and the PPCA
    /// second moment. Rows with zero weight are skipped; the upper
    /// triangle is accumulated chunk-reduced in chunk order and
    /// mirrored, so results are machine- and thread-count-independent.
    ///
    /// # Panics
    /// Panics when `w.len() != len()`.
    pub fn weighted_gram(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.len(), "weighted_gram: weight length mismatch");
        let d = self.matrix.dim;
        let mut g = par_map_reduce_matrix(self.len(), d, d, |range| {
            let mut acc = Matrix::zeros(d, d);
            if self.is_sparse() {
                for k in range {
                    let wk = w[k];
                    if wk == 0.0 {
                        continue;
                    }
                    let (idx, val) = self.sparse_row(k).expect("sparse block");
                    for (p, &ip) in idx.iter().enumerate() {
                        let coeff = wk * val[p];
                        if coeff == 0.0 {
                            continue;
                        }
                        let arow = acc.row_mut(ip as usize);
                        for (q, &iq) in idx.iter().enumerate().skip(p) {
                            arow[iq as usize] += coeff * val[q];
                        }
                    }
                }
            } else {
                for k in range {
                    let wk = w[k];
                    if wk == 0.0 {
                        continue;
                    }
                    let row = self.dense_row(k).expect("dense block");
                    for (a, &xa) in row.iter().enumerate() {
                        let coeff = wk * xa;
                        if coeff == 0.0 {
                            continue;
                        }
                        let arow = acc.row_mut(a);
                        for (b, &xb) in row.iter().enumerate().skip(a) {
                            arow[b] += coeff * xb;
                        }
                    }
                }
            }
            acc
        });
        // Mirror the accumulated upper triangle.
        for a in 0..d {
            for b in (a + 1)..d {
                g[(b, a)] = g[(a, b)];
            }
        }
        g
    }
}

/// One probe of a multi-request fused sweep
/// ([`MatrixView::value_grad_fold_multi`]): the probe point `(w, bias)`,
/// the row-count prefix it runs over, and its output buffers.
#[derive(Debug)]
pub struct FoldRequest<'r> {
    /// Weight vector of this probe (`dim()` long).
    pub w: &'r [f64],
    /// Margin offset of this probe.
    pub bias: f64,
    /// The probe evaluates over the view's first `rows` rows
    /// (`rows <= len()`).
    pub rows: usize,
    /// Gradient output `Σₖ chunk_weightₖ·x_{row(k)}` (`dim()` long,
    /// overwritten).
    pub grad: &'r mut [f64],
    /// Output: `chunk_fn` loss partials summed in chunk order.
    pub loss: f64,
    /// Output: `chunk_fn` secondary partials summed in chunk order
    /// (e.g. a GLM's `Σ dloss` for the intercept gradient).
    pub extra: f64,
}

impl<'r> FoldRequest<'r> {
    /// A request at probe point `(w, bias)` over the first `rows` rows,
    /// writing the gradient into `grad`.
    pub fn new(w: &'r [f64], bias: f64, rows: usize, grad: &'r mut [f64]) -> Self {
        FoldRequest {
            w,
            bias,
            rows,
            grad,
            loss: 0.0,
            extra: 0.0,
        }
    }
}

/// Reusable buffer pool threaded through batched objective evaluation,
/// so optimizer line-search probes allocate nothing in steady state.
///
/// Model classes use numbered [`TrainScratch::slot`]s for their own
/// buffers; [`DatasetMatrix::value_grad_fold`] keeps its private chunk
/// and partial buffers here as well.
#[derive(Debug, Default)]
pub struct TrainScratch {
    slots: Vec<Vec<f64>>,
    fold_chunk: Vec<f64>,
    fold_partial: Vec<f64>,
    fold_margins: Vec<f64>,
}

impl TrainScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        TrainScratch::default()
    }

    fn ensure(&mut self, idx: usize) {
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, Vec::new);
        }
    }

    /// Borrow slot `idx`, zero-filled at length `len`. The underlying
    /// allocation is retained across calls, so repeated borrows at the
    /// same length never reallocate.
    pub fn slot(&mut self, idx: usize, len: usize) -> &mut Vec<f64> {
        self.ensure(idx);
        let buf = &mut self.slots[idx];
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Borrow two distinct slots at once (zero-filled), for passes that
    /// need e.g. a margin buffer and a weight buffer simultaneously.
    ///
    /// # Panics
    /// Panics when `a == b`.
    pub fn slot_pair(
        &mut self,
        a: usize,
        b: usize,
        len_a: usize,
        len_b: usize,
    ) -> (&mut Vec<f64>, &mut Vec<f64>) {
        assert_ne!(a, b, "slot_pair: slots must differ");
        self.ensure(a.max(b));
        let (lo, hi, swap) = if a < b { (a, b, false) } else { (b, a, true) };
        let (head, tail) = self.slots.split_at_mut(hi);
        let first = &mut head[lo];
        let second = &mut tail[0];
        let (la, lb) = if swap { (len_b, len_a) } else { (len_a, len_b) };
        first.clear();
        first.resize(la, 0.0);
        second.clear();
        second.resize(lb, 0.0);
        if swap {
            (second, first)
        } else {
            (first, second)
        }
    }

    /// The fold's chunk margin buffer and gradient partial, sized.
    fn fold_buffers(&mut self, chunk_len: usize, dim: usize) -> (&mut [f64], &mut [f64]) {
        self.fold_chunk.clear();
        self.fold_chunk.resize(chunk_len, 0.0);
        self.fold_partial.clear();
        self.fold_partial.resize(dim, 0.0);
        (&mut self.fold_chunk, &mut self.fold_partial)
    }

    /// The fold's full-length margin buffer (multi-thread path).
    fn fold_full(&mut self, len: usize) -> &mut [f64] {
        self.fold_margins.clear();
        self.fold_margins.resize(len, 0.0);
        &mut self.fold_margins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;
    use crate::features::{DenseVec, SparseVec};
    use crate::generators::{synthetic_linear, yelp_like};
    use crate::parallel::set_max_threads;

    fn dense_pair() -> (Dataset<DenseVec>, Vec<f64>) {
        let (data, _) = synthetic_linear(300, 7, 0.4, 1);
        let w: Vec<f64> = (0..7).map(|i| 0.3 * i as f64 - 0.9).collect();
        (data, w)
    }

    #[test]
    fn shape_and_labels_match_the_dataset() {
        let (data, _) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        assert_eq!(xm.len(), data.len());
        assert_eq!(xm.dim(), data.dim());
        assert!(!xm.is_sparse());
        assert!(!xm.is_empty());
        for (i, e) in data.iter().enumerate() {
            assert_eq!(xm.labels()[i], e.y);
            assert_eq!(xm.dense_row(i).unwrap(), e.x.as_slice());
        }
        let sdata = yelp_like(150, 60, 2);
        let sxm = DatasetMatrix::from_dataset(&sdata);
        assert!(sxm.is_sparse());
        assert_eq!(sxm.len(), sdata.len());
        assert!(sxm.dense_row(0).is_none());
        assert!(sxm.sparse_row(0).is_some());
    }

    #[test]
    fn dense_margins_are_bitwise_per_example_dots() {
        let (data, w) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        let mut out = vec![0.0; data.len()];
        for bias in [0.0, 1.25] {
            xm.margins_into(&w, bias, &mut out);
            for (i, e) in data.iter().enumerate() {
                assert_eq!(out[i], e.x.dot(&w) + bias, "row {i} bias {bias}");
            }
        }
    }

    #[test]
    fn sparse_margins_are_bitwise_per_example_dots() {
        let data = yelp_like(200, 50, 2);
        let xm = DatasetMatrix::from_dataset(&data);
        let w: Vec<f64> = (0..50).map(|i| ((i * 13) % 7) as f64 * 0.1 - 0.2).collect();
        let mut out = vec![0.0; data.len()];
        xm.margins_into(&w, -0.5, &mut out);
        for (i, e) in data.iter().enumerate() {
            assert_eq!(out[i], e.x.dot(&w) + -0.5, "row {i}");
        }
    }

    #[test]
    fn weighted_sum_matches_par_sum_vecs_reduction() {
        // The scalar objectives reduce through par_sum_vecs; the batched
        // gradient must reproduce those bits exactly.
        let (data, _) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        let w: Vec<f64> = (0..data.len()).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut got = vec![1.0; data.dim()];
        xm.weighted_sum_into(&w, &mut got);
        let expect = crate::parallel::par_sum_vecs(data.len(), data.dim(), |i, acc| {
            data.get(i).x.add_scaled_into(w[i], acc)
        });
        assert_eq!(got, expect);

        let sdata = yelp_like(200, 50, 2);
        let sxm = DatasetMatrix::from_dataset(&sdata);
        let sw: Vec<f64> = (0..sdata.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut sgot = vec![1.0; sdata.dim()];
        sxm.weighted_sum_into(&sw, &mut sgot);
        let sexpect = crate::parallel::par_sum_vecs(sdata.len(), sdata.dim(), |i, acc| {
            sdata.get(i).x.add_scaled_into(sw[i], acc)
        });
        assert_eq!(sgot, sexpect);
    }

    #[test]
    fn fold_matches_two_pass_form_bitwise() {
        // One synthetic "objective": weights = 2·margin + label, loss =
        // Σ margin. The fused fold must equal margins_into +
        // weighted_sum_into exactly, sequentially and at thread budgets.
        let (data, w) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        let n = data.len();
        let mut margins = vec![0.0; n];
        xm.margins_into(&w, 0.25, &mut margins);
        let loss_expect: f64 = {
            let mut total = 0.0;
            let mut start = 0;
            while start < n {
                let end = (start + CHUNK_SIZE).min(n);
                let mut part = 0.0;
                for m in &margins[start..end] {
                    part += m;
                }
                total += part;
                start = end;
            }
            total
        };
        let weights: Vec<f64> = margins
            .iter()
            .zip(xm.labels())
            .map(|(m, y)| 2.0 * m + y)
            .collect();
        let mut grad_expect = vec![0.0; data.dim()];
        xm.weighted_sum_into(&weights, &mut grad_expect);

        let labels = xm.labels().to_vec();
        let run = |budget: Option<usize>| {
            set_max_threads(budget);
            let mut scratch = TrainScratch::new();
            let mut grad = vec![f64::NAN; data.dim()];
            let loss = xm.value_grad_fold(&w, 0.25, &mut grad, &mut scratch, |start, ms| {
                let mut part = 0.0;
                for (local, m) in ms.iter_mut().enumerate() {
                    part += *m;
                    *m = 2.0 * *m + labels[start + local];
                }
                part
            });
            set_max_threads(None);
            (loss, grad)
        };
        for budget in [Some(1), Some(4)] {
            let (loss, grad) = run(budget);
            assert_eq!(loss, loss_expect, "budget {budget:?}");
            assert_eq!(grad, grad_expect, "budget {budget:?}");
        }
    }

    #[test]
    fn weighted_gram_matches_naive_outer_products() {
        let (data, _) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        let w: Vec<f64> = (0..data.len())
            .map(|i| 0.5 + (i % 5) as f64 * 0.1)
            .collect();
        let g = xm.weighted_gram(&w);
        let d = data.dim();
        let mut naive = Matrix::zeros(d, d);
        for (i, e) in data.iter().enumerate() {
            let xd = e.x.to_dense();
            for a in 0..d {
                for b in 0..d {
                    naive[(a, b)] += w[i] * xd[a] * xd[b];
                }
            }
        }
        assert!(
            g.max_abs_diff(&naive) < 1e-9,
            "diff {}",
            g.max_abs_diff(&naive)
        );

        let sdata = yelp_like(150, 60, 2);
        let sxm = DatasetMatrix::from_dataset(&sdata);
        let sw: Vec<f64> = (0..sdata.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let sg = sxm.weighted_gram(&sw);
        let sd = sdata.dim();
        let mut snaive = Matrix::zeros(sd, sd);
        for (i, e) in sdata.iter().enumerate() {
            let xd = e.x.to_dense();
            for a in 0..sd {
                for b in 0..sd {
                    snaive[(a, b)] += sw[i] * xd[a] * xd[b];
                }
            }
        }
        assert!(sg.max_abs_diff(&snaive) < 1e-9);
    }

    #[test]
    fn empty_dataset_materializes() {
        let data = Dataset::<DenseVec>::new("empty", 3, vec![]);
        let xm = DatasetMatrix::from_dataset(&data);
        assert!(xm.is_empty());
        let mut out: Vec<f64> = vec![];
        xm.margins_into(&[0.0; 3], 0.0, &mut out);
        let mut g = vec![0.0; 3];
        xm.weighted_sum_into(&[], &mut g);
        assert_eq!(g, vec![0.0; 3]);
    }

    #[test]
    fn dense_view_borrows_the_example_rows() {
        let examples = vec![
            Example {
                x: DenseVec::new(vec![1.0, 2.0]),
                y: 0.0,
            },
            Example {
                x: DenseVec::new(vec![3.0, 4.0]),
                y: 1.0,
            },
        ];
        let data = Dataset::new("toy", 2, examples);
        let xm = DatasetMatrix::from_dataset(&data);
        // Zero copy: the view's row pointers alias the dataset's buffers.
        assert_eq!(
            xm.dense_row(0).unwrap().as_ptr(),
            data.get(0).x.as_slice().as_ptr()
        );
        assert_eq!(xm.dense_row(1).unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn sparse_rows_match_the_examples() {
        let examples = vec![
            Example {
                x: SparseVec::new(4, vec![1, 3], vec![2.0, -1.0]),
                y: 0.0,
            },
            Example {
                x: SparseVec::new(4, vec![0], vec![5.0]),
                y: 1.0,
            },
        ];
        let data = Dataset::new("toy", 4, examples);
        let xm = DatasetMatrix::from_dataset(&data);
        assert_eq!(
            xm.sparse_row(0).unwrap(),
            (&[1u32, 3][..], &[2.0, -1.0][..])
        );
        assert_eq!(xm.sparse_row(1).unwrap(), (&[0u32][..], &[5.0][..]));
    }

    /// Gathered-view passes must equal the passes over a matrix built
    /// from the materialized subset — bit for bit, dense and sparse, at
    /// thread budgets {1, 4}.
    #[test]
    fn gathered_view_is_bitwise_materialized_subset() {
        let (dense, w) = dense_pair();
        let sparse = yelp_like(260, 50, 4);
        let sw: Vec<f64> = (0..50).map(|i| ((i * 5) % 11) as f64 * 0.1 - 0.3).collect();
        let patterns = |n: usize| -> Vec<Vec<usize>> {
            vec![
                (0..n).rev().collect(),
                (0..n).step_by(3).collect(),
                (0..n).map(|i| (i * 13 + 1) % n).collect(),
            ]
        };
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            // Dense block.
            let pool = DatasetMatrix::from_dataset(&dense);
            for idx in patterns(dense.len()) {
                let view = pool.gather(&idx);
                let sub = dense.subset(&idx);
                let mat = DatasetMatrix::from_dataset(&sub);
                assert_eq!(view.len(), idx.len());
                assert!(view.is_gathered());
                let mut a = vec![0.0; idx.len()];
                let mut b = vec![0.0; idx.len()];
                view.margins_into(&w, 0.5, &mut a);
                mat.margins_into(&w, 0.5, &mut b);
                assert_eq!(a, b, "dense margins budget {budget:?}");
                let wr: Vec<f64> = (0..idx.len()).map(|i| (i as f64 * 0.19).sin()).collect();
                let mut ga = vec![0.0; dense.dim()];
                let mut gb = vec![0.0; dense.dim()];
                view.weighted_sum_into(&wr, &mut ga);
                mat.weighted_sum_into(&wr, &mut gb);
                assert_eq!(ga, gb, "dense wsum budget {budget:?}");
                let gram_a = view.weighted_gram(&wr);
                let gram_b = mat.weighted_gram(&wr);
                assert_eq!(
                    gram_a.as_slice(),
                    gram_b.as_slice(),
                    "dense gram budget {budget:?}"
                );
                for (k, &i) in idx.iter().enumerate() {
                    assert_eq!(view.label(k), dense.get(i).y);
                    assert_eq!(view.dense_row(k).unwrap(), mat.dense_row(k).unwrap());
                }
            }
            // Sparse (CSR) block.
            let spool = DatasetMatrix::from_dataset(&sparse);
            for idx in patterns(sparse.len()) {
                let view = spool.gather(&idx);
                let sub = sparse.subset(&idx);
                let mat = DatasetMatrix::from_dataset(&sub);
                let mut a = vec![0.0; idx.len()];
                let mut b = vec![0.0; idx.len()];
                view.margins_into(&sw, -0.25, &mut a);
                mat.margins_into(&sw, -0.25, &mut b);
                assert_eq!(a, b, "sparse margins budget {budget:?}");
                let wr: Vec<f64> = (0..idx.len()).map(|i| (i as f64 * 0.31).cos()).collect();
                let mut ga = vec![0.0; sparse.dim()];
                let mut gb = vec![0.0; sparse.dim()];
                view.weighted_sum_into(&wr, &mut ga);
                mat.weighted_sum_into(&wr, &mut gb);
                assert_eq!(ga, gb, "sparse wsum budget {budget:?}");
                for k in 0..idx.len() {
                    assert_eq!(view.sparse_row(k), mat.sparse_row(k));
                }
            }
        }
        set_max_threads(None);
    }

    #[test]
    fn gathered_fold_is_bitwise_materialized_fold() {
        let (data, w) = dense_pair();
        let pool = DatasetMatrix::from_dataset(&data);
        let idx: Vec<usize> = (0..data.len()).map(|i| (i * 7 + 2) % data.len()).collect();
        let sub = data.subset(&idx);
        let mat = DatasetMatrix::from_dataset(&sub);
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            let view = pool.gather(&idx);
            let run = |xm_fold: &dyn Fn(&mut TrainScratch, &mut [f64]) -> f64| {
                let mut scratch = TrainScratch::new();
                let mut grad = vec![f64::NAN; data.dim()];
                let loss = xm_fold(&mut scratch, &mut grad);
                (loss, grad)
            };
            let labels_v: Vec<f64> = (0..view.len()).map(|k| view.label(k)).collect();
            let (lv, gv) = run(&|scratch, grad| {
                view.value_grad_fold(&w, 0.1, grad, scratch, |start, ms| {
                    let mut part = 0.0;
                    for (local, m) in ms.iter_mut().enumerate() {
                        part += *m;
                        *m = 1.5 * *m - labels_v[start + local];
                    }
                    part
                })
            });
            let labels_m = mat.labels().to_vec();
            let (lm, gm) = run(&|scratch, grad| {
                mat.value_grad_fold(&w, 0.1, grad, scratch, |start, ms| {
                    let mut part = 0.0;
                    for (local, m) in ms.iter_mut().enumerate() {
                        part += *m;
                        *m = 1.5 * *m - labels_m[start + local];
                    }
                    part
                })
            });
            assert_eq!(lv, lm, "fold loss budget {budget:?}");
            assert_eq!(gv, gm, "fold grad budget {budget:?}");
        }
        set_max_threads(None);
    }

    #[test]
    fn packed_gather_is_bitwise_gathered_view() {
        // gather_packed must be indistinguishable from the gathered
        // view in every pass — the capture policy can then flip between
        // them on footprint alone.
        let (dense, w) = dense_pair();
        let pool = DatasetMatrix::from_dataset(&dense);
        let idx: Vec<usize> = (0..dense.len())
            .map(|i| (i * 11 + 5) % dense.len())
            .collect();
        let view = pool.gather(&idx);
        let packed = pool.gather_packed(&idx);
        assert_eq!(packed.len(), idx.len());
        assert_eq!(packed.dim(), dense.dim());
        let mut a = vec![0.0; idx.len()];
        let mut b = vec![0.0; idx.len()];
        view.margins_into(&w, 0.75, &mut a);
        packed.margins_into(&w, 0.75, &mut b);
        assert_eq!(a, b, "margins");
        let wr: Vec<f64> = (0..idx.len()).map(|i| (i as f64 * 0.23).sin()).collect();
        let mut ga = vec![0.0; dense.dim()];
        let mut gb = vec![0.0; dense.dim()];
        view.weighted_sum_into(&wr, &mut ga);
        packed.weighted_sum_into(&wr, &mut gb);
        assert_eq!(ga, gb, "weighted sum");
        assert_eq!(
            view.weighted_gram(&wr).as_slice(),
            packed.weighted_gram(&wr).as_slice(),
            "gram"
        );
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(packed.labels()[k], dense.get(i).y);
            assert_eq!(packed.dense_row(k).unwrap(), dense.get(i).x.as_slice());
        }

        // CSR: the packed triple holds the exact stored entries.
        let sparse = yelp_like(180, 60, 6);
        let spool = DatasetMatrix::from_dataset(&sparse);
        let sidx: Vec<usize> = (0..sparse.len()).rev().collect();
        let sview = spool.gather(&sidx);
        let spacked = spool.gather_packed(&sidx);
        let sw: Vec<f64> = (0..60).map(|i| 0.1 * i as f64 - 1.0).collect();
        let mut sa = vec![0.0; sidx.len()];
        let mut sb = vec![0.0; sidx.len()];
        sview.margins_into(&sw, 0.0, &mut sa);
        spacked.margins_into(&sw, 0.0, &mut sb);
        assert_eq!(sa, sb, "sparse margins");
        for k in 0..sidx.len() {
            assert_eq!(sview.sparse_row(k), spacked.view().sparse_row(k));
        }
    }

    #[test]
    fn capture_policy_follows_the_footprint() {
        let (dense, _) = dense_pair(); // 300 × 7 → ~16 KB: gathered.
        let pool = DatasetMatrix::from_dataset(&dense);
        let idx: Vec<usize> = (0..dense.len()).collect();
        let small = pool.capture_sample(&idx);
        assert!(!small.is_packed());
        assert_eq!(small.view().len(), idx.len());
        assert_eq!(
            pool.view().data_bytes(),
            dense.len() * dense.dim() * 8,
            "dense footprint"
        );

        let sparse = yelp_like(50, 60, 7);
        let spool = DatasetMatrix::from_dataset(&sparse);
        let nnz: usize = sparse.iter().map(|e| e.x.nnz()).sum();
        assert_eq!(spool.view().data_bytes(), nnz * 12, "CSR footprint");
    }

    #[test]
    fn full_view_delegates_to_matrix() {
        let (data, w) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        let view = xm.view();
        assert!(!view.is_gathered());
        assert!(view.indices().is_none());
        assert_eq!(view.len(), xm.len());
        assert_eq!(view.dim(), xm.dim());
        assert!(std::ptr::eq(view.matrix(), &xm));
        let mut a = vec![0.0; data.len()];
        let mut b = vec![0.0; data.len()];
        view.margins_into(&w, 1.0, &mut a);
        xm.margins_into(&w, 1.0, &mut b);
        assert_eq!(a, b);
        for (k, e) in data.iter().enumerate() {
            assert_eq!(view.label(k), e.y);
        }
    }

    /// `prefix(n)` must be indistinguishable — bit for bit — from a view
    /// of the first `n` rows built any other way: a sliced gather list,
    /// or a matrix packed from just those rows.
    #[test]
    fn prefix_views_are_bitwise_equal_to_sliced_views() {
        let (dense, w) = dense_pair();
        let sparse = yelp_like(260, 50, 4);
        let sw: Vec<f64> = (0..50).map(|i| ((i * 5) % 11) as f64 * 0.1 - 0.3).collect();
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            // Full dense view: prefix(n) vs an explicit 0..n gather.
            let pool = DatasetMatrix::from_dataset(&dense);
            let n = 140;
            let head: Vec<usize> = (0..n).collect();
            let pre = pool.view().prefix(n);
            assert_eq!(pre.len(), n);
            assert!(!pre.is_gathered());
            let gat = pool.gather(&head);
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            pre.margins_into(&w, 0.5, &mut a);
            gat.margins_into(&w, 0.5, &mut b);
            assert_eq!(a, b, "dense prefix margins budget {budget:?}");
            let wr: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
            let mut ga = vec![0.0; dense.dim()];
            let mut gb = vec![0.0; dense.dim()];
            pre.weighted_sum_into(&wr, &mut ga);
            gat.weighted_sum_into(&wr, &mut gb);
            assert_eq!(ga, gb, "dense prefix wsum budget {budget:?}");
            for k in 0..n {
                assert_eq!(pre.label(k), gat.label(k));
            }
            assert_eq!(pre.data_bytes(), n * dense.dim() * 8);

            // Gathered view: prefix slices the index list.
            let idx: Vec<usize> = (0..dense.len())
                .map(|i| (i * 13 + 1) % dense.len())
                .collect();
            let gpre = pool.gather(&idx).prefix(n);
            assert_eq!(gpre.indices(), Some(&idx[..n]));

            // Packed capture: prefix caps the packed matrix.
            let pview = SampleCapture::Packed(pool.gather_packed(&idx));
            let ppre = pview.view().prefix(n);
            assert_eq!(ppre.len(), n);
            let gexp = pool.gather(&idx[..n]);
            let mut pa = vec![0.0; n];
            let mut pb = vec![0.0; n];
            ppre.margins_into(&w, -0.25, &mut pa);
            gexp.margins_into(&w, -0.25, &mut pb);
            assert_eq!(pa, pb, "packed prefix margins budget {budget:?}");

            // Sparse: prefix data_bytes counts only the prefix's nnz.
            let spool = DatasetMatrix::from_dataset(&sparse);
            let sn = 90;
            let spre = spool.view().prefix(sn);
            let nnz: usize = (0..sn).map(|i| sparse.get(i).x.nnz()).sum();
            assert_eq!(spre.data_bytes(), nnz * 12, "CSR prefix footprint");
            let shead: Vec<usize> = (0..sn).collect();
            let sgat = spool.gather(&shead);
            let mut sa = vec![0.0; sn];
            let mut sb = vec![0.0; sn];
            spre.margins_into(&sw, 0.0, &mut sa);
            sgat.margins_into(&sw, 0.0, &mut sb);
            assert_eq!(sa, sb, "sparse prefix margins budget {budget:?}");
        }
        set_max_threads(None);
    }

    /// The multi-request fold must reproduce K independent
    /// `value_grad_fold` runs over the matching prefixes — bit for bit,
    /// dense and sparse, full and gathered, at thread budgets {1, 4},
    /// with per-request row counts straddling chunk boundaries.
    #[test]
    fn multi_fold_is_bitwise_per_request_folds() {
        let rows = 2 * CHUNK_SIZE + 123;
        let (dense, _) = synthetic_linear(rows, 7, 0.4, 9);
        let sparse = yelp_like(rows, 50, 11);
        let idx: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % rows).collect();

        // K probe points with row counts on, under, and over chunk
        // boundaries (including a sub-chunk one and a duplicate-rows
        // pair with different probes).
        let probes = |d: usize| -> Vec<(Vec<f64>, f64, usize)> {
            vec![
                ((0..d).map(|i| 0.3 * i as f64 - 0.9).collect(), 0.25, rows),
                (
                    (0..d).map(|i| (i as f64 * 0.7).sin()).collect(),
                    -0.5,
                    CHUNK_SIZE + 7,
                ),
                (
                    (0..d).map(|i| 0.05 * i as f64).collect(),
                    0.0,
                    CHUNK_SIZE / 3,
                ),
                ((0..d).map(|i| (i as f64 * 0.3).cos()).collect(), 1.5, rows),
                (
                    (0..d).map(|i| -0.2 + 0.01 * i as f64).collect(),
                    0.1,
                    2 * CHUNK_SIZE,
                ),
            ]
        };

        // Request-dependent synthetic objective: loss = Σ m, extra =
        // Σ (m + y), weights = (1.5 + k)·m − y.
        let transform = |k: usize, start: usize, ms: &mut [f64], labels: &[f64]| -> (f64, f64) {
            let (mut lp, mut ep) = (0.0, 0.0);
            for (local, m) in ms.iter_mut().enumerate() {
                let y = labels[start + local];
                lp += *m;
                ep += *m + y;
                *m = (1.5 + k as f64) * *m - y;
            }
            (lp, ep)
        };

        let check = |view: MatrixView<'_>, d: usize, tag: &str| {
            let pts = probes(d);
            let labels: Vec<f64> = (0..view.len()).map(|k| view.label(k)).collect();
            // Multi-request pass.
            let mut grads: Vec<Vec<f64>> = vec![vec![f64::NAN; d]; pts.len()];
            let mut reqs: Vec<FoldRequest> = pts
                .iter()
                .zip(grads.iter_mut())
                .map(|((w, bias, n), g)| FoldRequest::new(w, *bias, *n, g))
                .collect();
            let mut scratch = TrainScratch::new();
            view.value_grad_fold_multi(&mut reqs, &mut scratch, |k, start, ms| {
                transform(k, start, ms, &labels)
            });
            let multi: Vec<(f64, f64)> = reqs.iter().map(|r| (r.loss, r.extra)).collect();
            drop(reqs);
            // Per-request solo folds over the matching prefixes.
            for (k, (w, bias, n)) in pts.iter().enumerate() {
                let sub = view.prefix(*n);
                let sub_labels: Vec<f64> = (0..sub.len()).map(|r| sub.label(r)).collect();
                let mut solo_grad = vec![f64::NAN; d];
                let mut solo_extra = 0.0;
                let mut solo_scratch = TrainScratch::new();
                let solo_loss = sub.value_grad_fold(
                    w,
                    *bias,
                    &mut solo_grad,
                    &mut solo_scratch,
                    |start, ms| {
                        let (lp, ep) = transform(k, start, ms, &sub_labels);
                        solo_extra += ep;
                        lp
                    },
                );
                assert_eq!(multi[k].0, solo_loss, "{tag} req {k} loss");
                assert_eq!(multi[k].1, solo_extra, "{tag} req {k} extra");
                assert_eq!(grads[k], solo_grad, "{tag} req {k} grad");
            }
        };

        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            let pool = DatasetMatrix::from_dataset(&dense);
            check(pool.view(), dense.dim(), "dense full");
            check(pool.gather(&idx), dense.dim(), "dense gathered");
            let spool = DatasetMatrix::from_dataset(&sparse);
            check(spool.view(), sparse.dim(), "sparse full");
            check(spool.gather(&idx), sparse.dim(), "sparse gathered");
        }
        set_max_threads(None);
    }

    #[test]
    fn scratch_slots_are_zeroed_and_reused() {
        let mut s = TrainScratch::new();
        {
            let b = s.slot(0, 4);
            b[2] = 9.0;
        }
        let ptr = s.slot(0, 4).as_ptr();
        assert_eq!(s.slot(0, 4).as_slice(), &[0.0; 4]);
        assert_eq!(s.slot(0, 4).as_ptr(), ptr, "no realloc at stable size");
        let (a, b) = s.slot_pair(1, 2, 3, 5);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 5);
        let (b2, a2) = s.slot_pair(2, 1, 5, 3);
        assert_eq!(b2.len(), 5);
        assert_eq!(a2.len(), 3);
    }

    #[test]
    #[should_panic(expected = "slots must differ")]
    fn scratch_rejects_aliased_pair() {
        TrainScratch::new().slot_pair(1, 1, 2, 2);
    }
}
