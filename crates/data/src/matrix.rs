//! Design matrices and sample captures for the batched training engine.
//!
//! A per-example objective walks the sample example by example — a
//! pointer chase through per-row `Vec` allocations repeated on every
//! optimizer probe. A [`DatasetMatrix`] holds the rows once as a design
//! matrix plus a label vector. A whole dense dataset is viewed in place
//! ([`DatasetMatrix::from_dataset`]: borrowed per-row slices, zero
//! copy); a sample is **captured** by packing its rows straight from the
//! dataset into recycled buffers ([`DatasetMatrix::pack`]: one row-major
//! block for dense features, one CSR triple for sparse ones), so a call
//! pays for its `n` sampled rows, never for the `N`-row pool. The
//! batched passes every model objective is built from run over a
//! [`MatrixView`] of a matrix (all of it, or a row prefix):
//!
//! * [`MatrixView::margins_into`] — `out = X·w + bias`, the margin
//!   pass (one fused kernel over the view),
//! * [`MatrixView::weighted_sum_into`] — `out = Xᵀ·w`, the gradient
//!   reduction,
//! * [`MatrixView::value_grad_fold_multi`] — the fused
//!   margins → loss → gradient sweep behind `ModelClassSpec::value_grad`
//!   (one request) and the lockstep multi-λ rounds (one request per λ):
//!   each fixed-size chunk's rows are streamed once per walk and reused
//!   while hot. A chunk with one live request runs the chunk-wide
//!   single-request kernels; a chunk with two or more walks L1-sized row
//!   blocks that every live request shares,
//! * [`MatrixView::weighted_gram`] — `Σ wᵢ·xᵢxᵢᵀ`, the closed-form
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
//! path for dense and sparse features, at any thread budget, and a
//! packed capture is bit-identical to a matrix built from the
//! materialized sample (`dataset.subset(indices)`).

use crate::dataset::Dataset;
use crate::features::FeatureVec;
use crate::parallel::{max_threads, par_fill_slice, par_map_reduce_matrix, par_ranges, CHUNK_SIZE};
use blinkml_linalg::simd::{
    rows_dot, rows_dot_gather, rows_dot_multi, rows_weighted_sum, rows_weighted_sum_gather,
    rows_weighted_sum_multi,
};
use blinkml_linalg::Matrix;
use std::ops::Range;

/// The feature block of a [`DatasetMatrix`].
#[derive(Debug, Clone)]
enum DesignBlock<'a> {
    /// Borrowed per-row slices — the zero-copy view over dense feature
    /// vectors (the rows stay wherever the dataset allocated them; only
    /// the 8-byte slice table is built).
    DenseRows(Vec<&'a [f64]>),
    /// Owned row-major `n × d` block: every packed dense capture, and
    /// whole datasets whose dense feature type exposes no slice.
    DenseOwned(Vec<f64>),
    /// CSR triple: `indptr` (`n + 1` row offsets), column indices, and
    /// values — the standard layout for the sparse regime.
    Csr {
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    },
}

/// A design matrix plus labels, for batched objective/gradient
/// evaluation.
#[derive(Debug, Clone)]
pub struct DatasetMatrix<'a> {
    rows: usize,
    dim: usize,
    labels: Vec<f64>,
    block: DesignBlock<'a>,
}

impl<'a> DatasetMatrix<'a> {
    /// View all of `data` for whole-dataset passes: dense features
    /// become a borrowed row-slice view (or an owned block when the
    /// feature type exposes no slice), sparse features a CSR triple.
    /// Labels are copied alongside so the batched passes never touch the
    /// `Example` list again. Samples are captured with
    /// [`DatasetMatrix::pack`] instead, which copies only their rows.
    pub fn from_dataset<F: FeatureVec>(data: &'a Dataset<F>) -> Self {
        if F::IS_SPARSE || data.iter().any(|e| e.x.dense_slice().is_none()) {
            return pack_rows(data, data.len(), |k| k, &mut CaptureScratch::new());
        }
        DatasetMatrix {
            rows: data.len(),
            dim: data.dim(),
            labels: data.iter().map(|e| e.y).collect(),
            block: DesignBlock::DenseRows(
                data.iter()
                    .map(|e| e.x.dense_slice().expect("checked above"))
                    .collect(),
            ),
        }
    }

    /// Capture the sample `indices` of `data` (in order, repeats
    /// allowed) for repeated batched passes — optimizer probes plus the
    /// statistics phase. The rows are packed straight from the dataset
    /// into `scratch`'s recycled buffers: one row-major block for dense
    /// features (through [`FeatureVec::write_dense_into`]), one CSR
    /// triple holding exactly the stored entries for sparse ones, and
    /// the labels alongside. Every pass over the capture is
    /// bit-identical to the same pass over
    /// `DatasetMatrix::from_dataset(&data.subset(indices))`.
    ///
    /// Hand the capture back with [`DatasetMatrix::recycle`] when done,
    /// so the next capture rewrites warm pages instead of faulting in
    /// fresh ones. Values are fully overwritten, so reuse never changes
    /// a bit.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn pack<F: FeatureVec>(
        data: &Dataset<F>,
        indices: &[usize],
        scratch: &mut CaptureScratch,
    ) -> DatasetMatrix<'static> {
        pack_rows(data, indices.len(), |k| indices[k], scratch)
    }

    /// Capture rows `indices` of this matrix as an owned matrix — the
    /// same packing body as [`DatasetMatrix::pack`], reading the rows
    /// from this matrix instead of a dataset, so the bytes match.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn capture_sample(&self, indices: &[usize]) -> DatasetMatrix<'static> {
        pack_rows(
            self,
            indices.len(),
            |k| indices[k],
            &mut CaptureScratch::new(),
        )
    }

    /// Return this matrix's owned buffers to `scratch` for the next
    /// [`DatasetMatrix::pack`].
    pub fn recycle(self, scratch: &mut CaptureScratch) {
        scratch.labels = self.labels;
        match self.block {
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

    /// The full-matrix view, over which the batched passes run.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            matrix: self,
            rows: self.rows,
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
}

/// Where a packed capture reads its rows from: a dataset's examples, or
/// a matrix already built over them.
trait PackSource {
    fn dim(&self) -> usize;
    fn is_sparse(&self) -> bool;
    fn label(&self, i: usize) -> f64;
    /// Append dense row `i` to `block`.
    fn push_dense(&self, i: usize, block: &mut Vec<f64>);
    /// Append the stored entries of sparse row `i`.
    fn push_sparse(&self, i: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>);
    /// Start loading row `i`'s entry in the row table, [`EXAMPLE_AHEAD`]
    /// rows before its push. Nothing by default.
    fn prefetch_entry(&self, _i: usize) {}
    /// Start loading row `i`'s data, [`ROW_AHEAD`] rows before its push
    /// (its entry has arrived by then). Nothing by default.
    fn prefetch_data(&self, _i: usize) {}
}

/// How far ahead in its row list [`pack_rows`] prefetches each row's
/// `Example` and, once that has arrived, the row's data: far enough to
/// cover the cache misses of a random sample of a large pool.
const EXAMPLE_AHEAD: usize = 16;
const ROW_AHEAD: usize = 8;

impl<F: FeatureVec> PackSource for Dataset<F> {
    fn dim(&self) -> usize {
        Dataset::dim(self)
    }

    fn is_sparse(&self) -> bool {
        F::IS_SPARSE
    }

    fn label(&self, i: usize) -> f64 {
        self.get(i).y
    }

    fn push_dense(&self, i: usize, block: &mut Vec<f64>) {
        let x = &self.get(i).x;
        if let Some(row) = x.dense_slice() {
            block.extend_from_slice(row);
        } else {
            let at = block.len();
            block.resize(at + Dataset::dim(self), 0.0);
            x.write_dense_into(&mut block[at..]);
        }
    }

    fn push_sparse(&self, i: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        let x = &self.get(i).x;
        if let Some((ix, vals)) = x.sparse_entries() {
            indices.extend_from_slice(ix);
            values.extend_from_slice(vals);
        } else {
            // `scaled_sparse(1.0, …)` copies the stored entries
            // bit-exactly for any sparse representation.
            let s = x.scaled_sparse(1.0, Dataset::dim(self), 0);
            indices.extend_from_slice(s.indices());
            values.extend_from_slice(s.values());
        }
    }

    fn prefetch_entry(&self, i: usize) {
        prefetch_slice(std::slice::from_ref(self.get(i)));
    }

    fn prefetch_data(&self, i: usize) {
        let x = &self.get(i).x;
        if let Some(row) = x.dense_slice() {
            prefetch_slice(row);
        } else if let Some((indices, values)) = x.sparse_entries() {
            prefetch_slice(indices);
            prefetch_slice(values);
        }
    }
}

/// Ask for the bytes of `s` to be loaded into the cache, one request per
/// 64-byte line. A hint only: it reads nothing and faults on nothing,
/// and it is a no-op off x86-64.
#[inline]
fn prefetch_slice<T>(s: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = s.as_ptr() as *const i8;
        for off in (0..std::mem::size_of_val(s)).step_by(64) {
            // Prefetching is defined for any address, mapped or not.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(off)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = s;
}

impl PackSource for DatasetMatrix<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn is_sparse(&self) -> bool {
        DatasetMatrix::is_sparse(self)
    }

    fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    fn push_dense(&self, i: usize, block: &mut Vec<f64>) {
        block.extend_from_slice(self.dense_row(i).expect("dense block"));
    }

    fn push_sparse(&self, i: usize, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        let (ix, vals) = self.sparse_row(i).expect("CSR block");
        indices.extend_from_slice(ix);
        values.extend_from_slice(vals);
    }
}

/// The one packing body: copy the `n` rows `row(0), …, row(n − 1)` of
/// `src`, in order, into `scratch`'s buffers as an owned matrix. From a
/// dataset, each row's `Example` and data are prefetched a few rows
/// ahead.
fn pack_rows<S: PackSource>(
    src: &S,
    n: usize,
    row: impl Fn(usize) -> usize,
    scratch: &mut CaptureScratch,
) -> DatasetMatrix<'static> {
    let dim = src.dim();
    let prefetch = |k: usize| {
        if k + EXAMPLE_AHEAD < n {
            src.prefetch_entry(row(k + EXAMPLE_AHEAD));
        }
        if k + ROW_AHEAD < n {
            src.prefetch_data(row(k + ROW_AHEAD));
        }
    };
    let mut labels = std::mem::take(&mut scratch.labels);
    labels.clear();
    labels.reserve(n);
    let block = if src.is_sparse() {
        let mut indptr = std::mem::take(&mut scratch.indptr);
        let mut indices = std::mem::take(&mut scratch.sp_indices);
        let mut values = std::mem::take(&mut scratch.sp_values);
        indptr.clear();
        indices.clear();
        values.clear();
        indptr.reserve(n + 1);
        indptr.push(0);
        for k in 0..n {
            prefetch(k);
            let i = row(k);
            labels.push(src.label(i));
            src.push_sparse(i, &mut indices, &mut values);
            indptr.push(indices.len());
        }
        DesignBlock::Csr {
            indptr,
            indices,
            values,
        }
    } else {
        let mut x = std::mem::take(&mut scratch.dense);
        x.clear();
        x.reserve(n * dim);
        for k in 0..n {
            prefetch(k);
            let i = row(k);
            labels.push(src.label(i));
            src.push_dense(i, &mut x);
        }
        DesignBlock::DenseOwned(x)
    };
    DatasetMatrix {
        rows: n,
        dim,
        labels,
        block,
    }
}

/// Recyclable buffers behind packed sample captures
/// ([`DatasetMatrix::pack`]): one coordinator run reuses them between
/// its pilot and final captures, and a session or server worker keeps
/// one across every query, so steady-state packing allocates nothing.
#[derive(Debug, Default)]
pub struct CaptureScratch {
    dense: Vec<f64>,
    labels: Vec<f64>,
    indptr: Vec<usize>,
    sp_indices: Vec<u32>,
    sp_values: Vec<f64>,
}

impl CaptureScratch {
    /// Empty scratch; buffers grow on first capture.
    pub fn new() -> Self {
        CaptureScratch::default()
    }
}

/// A window onto a [`DatasetMatrix`]: the whole matrix
/// ([`DatasetMatrix::view`]) or its first rows ([`MatrixView::prefix`]).
///
/// A view is the unit every batched pass runs over. Views are `Copy` (a
/// pointer and a row count).
///
/// # Exactness and determinism
///
/// Every pass chunks at the fixed [`CHUNK_SIZE`] grid anchored at row 0
/// and merges partials in chunk order, so a pass over a view depends
/// only on the rows it covers, never on how they were stored (borrowed
/// slices, a packed block) or on the thread budget.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'m> {
    matrix: &'m DatasetMatrix<'m>,
    /// The view covers the matrix's first `rows` rows.
    rows: usize,
}

impl<'m> MatrixView<'m> {
    /// Number of rows the view covers (`n` of the sample).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.matrix.dim
    }

    /// Whether the underlying block is stored as CSR.
    pub fn is_sparse(&self) -> bool {
        self.matrix.is_sparse()
    }

    /// The matrix this view windows.
    pub fn matrix(&self) -> &'m DatasetMatrix<'m> {
        self.matrix
    }

    /// The view restricted to its first `n` rows.
    ///
    /// Because every batched pass chunks at the fixed [`CHUNK_SIZE`]
    /// grid anchored at row 0, each pass over `prefix(n)` is
    /// **bit-identical** to the same pass over a matrix packed from just
    /// those `n` rows. This is what lets nested samples —
    /// `sample_indices`' prefix property makes every smaller sample a
    /// prefix of the largest one — share a single capture.
    ///
    /// # Panics
    /// Panics when `n > len()`.
    pub fn prefix(&self, n: usize) -> MatrixView<'m> {
        assert!(
            n <= self.len(),
            "prefix: {n} rows from a {}-row view",
            self.len()
        );
        MatrixView {
            matrix: self.matrix,
            rows: n,
        }
    }

    /// Bytes of feature data the view's rows span: `len·dim·8` for
    /// dense blocks, stored entries (12 bytes each) for CSR.
    pub fn data_bytes(&self) -> usize {
        match &self.matrix.block {
            DesignBlock::DenseRows(_) | DesignBlock::DenseOwned(_) => {
                self.rows * self.matrix.dim * 8
            }
            DesignBlock::Csr { indptr, .. } => indptr[self.rows] * 12,
        }
    }

    /// Label of view row `k`.
    #[inline]
    pub fn label(&self, k: usize) -> f64 {
        self.matrix.labels[k]
    }

    /// Dense view row `k` as a slice (`None` for CSR blocks).
    pub fn dense_row(&self, k: usize) -> Option<&'m [f64]> {
        self.matrix.dense_row(k)
    }

    /// The stored entries of sparse view row `k` (`None` for dense
    /// blocks).
    pub fn sparse_row(&self, k: usize) -> Option<(&'m [u32], &'m [f64])> {
        self.matrix.sparse_row(k)
    }

    /// Margins of view rows `start..end` written into `out` — the
    /// chunk kernel of every margin pass. Dense blocks run the
    /// contiguous or row-slice kernels; CSR rows accumulate their
    /// stored entries in index order.
    fn margins_range(&self, start: usize, end: usize, w: &[f64], bias: f64, out: &mut [f64]) {
        let d = self.matrix.dim;
        match &self.matrix.block {
            DesignBlock::DenseRows(rows) => rows_dot_gather(&rows[start..end], d, w, bias, out),
            DesignBlock::DenseOwned(x) => rows_dot(&x[start * d..end * d], d, w, bias, out),
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                for (o, i) in out.iter_mut().zip(start..end) {
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    let mut acc = 0.0;
                    for (&j, &v) in indices[s..e].iter().zip(&values[s..e]) {
                        acc += v * w[j as usize];
                    }
                    *o = acc + bias;
                }
            }
        }
    }

    /// `out += Σ_{k in start..end} w[k - start]·x_k`, in ascending row
    /// order — the chunk kernel of every gradient pass, with the same
    /// kernel choice as [`Self::margins_range`].
    fn weighted_sum_range(&self, start: usize, end: usize, w: &[f64], out: &mut [f64]) {
        let d = self.matrix.dim;
        match &self.matrix.block {
            DesignBlock::DenseRows(rows) => rows_weighted_sum_gather(&rows[start..end], d, w, out),
            DesignBlock::DenseOwned(x) => rows_weighted_sum(&x[start * d..end * d], d, w, out),
            DesignBlock::Csr {
                indptr,
                indices,
                values,
            } => {
                for (&wi, i) in w.iter().zip(start..end) {
                    let (s, e) = (indptr[i], indptr[i + 1]);
                    for (&j, &v) in indices[s..e].iter().zip(&values[s..e]) {
                        out[j as usize] += wi * v;
                    }
                }
            }
        }
    }

    /// Margin pass `out[k] = x_k·w + bias`.
    ///
    /// Bit-identical to the per-example `e.x.dot(w) + bias` loop over
    /// the view's rows: the dense paths keep each row's 4-lane dot
    /// shape, the sparse path accumulates stored entries in index order. Output rows are partitioned across
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

    /// Gradient reduction `out = Xᵀ·w = Σₖ w[k]·x_k`
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

    /// The fused objective sweep: evaluate `K` independent `(w, bias)`
    /// probes — each over its own row-count prefix of this view — in one
    /// pass over the data. With one request it is the sweep behind
    /// every single-λ `ModelClassSpec::value_grad`; with several it runs
    /// a λ sweep's lockstep multi-λ rounds, where the per-λ
    /// final-sample prefixes all live inside one shared capture.
    ///
    /// For each fixed [`CHUNK_SIZE`] chunk it computes the margins of
    /// every request live in the chunk (whose prefix reaches into it),
    /// hands them to `chunk_fn`, and accumulates each request's gradient
    /// partial, all while the chunk's rows are still cache-hot. The
    /// kernels follow the number of live requests. With one, the chunk
    /// runs the chunk-wide single-request kernels (contiguous or
    /// row-slice), the fastest form for one probe. With two or more on a
    /// dense view, the chunk is walked twice in row blocks sized to
    /// stay in L1 (a constant byte budget over `dim()`; a 4,096-row chunk
    /// at `d = 100` is 3.2 MB, past L2): every covering request's margins
    /// block by block with [`rows_dot_multi`], then `chunk_fn` per
    /// request, then every covering request's gradient partial with
    /// [`rows_weighted_sum_multi`], so each block is loaded once per walk
    /// for all of them. A request whose prefix ends inside a block takes
    /// that block's head through the single-request kernels. CSR chunks
    /// always run the single-request kernels per request.
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
    /// **bit-identical** to the two-pass form on `self.prefix(rows_k)`
    /// — [`Self::margins_into`], `chunk_fn` over each chunk in order
    /// with its partials summed from zero, then [`Self::weighted_sum_into`]
    /// of the row weights — and so to the same request run alone, at
    /// any thread budget. The chunk grid is anchored at row 0 in every
    /// form (a request's last chunk is truncated at its `rows`, exactly
    /// where its solo grid would end), the block kernels keep the
    /// single-request kernels' per-row and per-output order, and
    /// per-chunk gradient partials start from zero and merge in chunk
    /// order. Neither the block size nor the live-request count can
    /// change a bit.
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
        }
        let k = requests.len();
        let MultiFold { slots, chunk } = &mut scratch.multi;
        slots.fill(requests);
        let slots = &*slots;
        let max_rows = slots.rows.first().copied().unwrap_or(0);
        if max_threads() > 1 && max_rows > CHUNK_SIZE {
            // Parallel form: each chunk of the shared grid runs the same
            // chunk body into its own buffers; partials merge on this
            // thread in chunk order.
            let chunk_outs = par_ranges(max_rows, |range| {
                let mut out = ChunkOut::default();
                out.size(k, CHUNK_SIZE, d);
                let live = self.fold_chunk_multi(range, slots, &mut out, &chunk_fn);
                (live, out)
            });
            for (live, out) in chunk_outs {
                slots.merge(requests, live, &out, d);
            }
            return;
        }
        // Single-thread form: the same chunk body over scratch buffers.
        chunk.size(k, CHUNK_SIZE.min(max_rows), d);
        let mut start = 0;
        while start < max_rows {
            let end = (start + CHUNK_SIZE).min(max_rows);
            let live = self.fold_chunk_multi(start..end, slots, chunk, &chunk_fn);
            slots.merge(requests, live, chunk, d);
            start = end;
        }
    }

    /// One chunk of [`Self::value_grad_fold_multi`] into `out`, for its
    /// first `live` slots (the requests whose prefix reaches into
    /// `chunk`; returned).
    fn fold_chunk_multi<Fm>(
        &self,
        chunk: Range<usize>,
        slots: &Slots,
        out: &mut ChunkOut,
        chunk_fn: &Fm,
    ) -> usize
    where
        Fm: Fn(usize, usize, &mut [f64]) -> (f64, f64),
    {
        let d = self.matrix.dim;
        let ChunkOut {
            margins,
            ld,
            partials,
            parts,
        } = out;
        let ld = *ld;
        let live = slots.rows.partition_point(|&r| r > chunk.start);
        // With two or more live slots, dense rows go in L1-sized blocks
        // shared by every covering slot; a lone slot, and CSR rows, take
        // the whole chunk through the single-request kernels.
        let blocked = live >= 2 && !self.is_sparse();
        let block = if blocked { row_block(d) } else { chunk.len() };
        let mut table: [&[f64]; ROW_BLOCK_MAX] = [&[]; ROW_BLOCK_MAX];
        // The row blocks of the chunk, each with its slot split: slots
        // `..full` cover the whole block, slots `full..live` end past
        // its first row or before it (then skipped).
        let blocks = (chunk.start..chunk.end).step_by(block).map(|b0| {
            let b1 = (b0 + block).min(chunk.end);
            let full = if blocked {
                slots.rows[..live].partition_point(|&r| r >= b1)
            } else {
                0
            };
            (b0, b1, full)
        });
        for (b0, b1, full) in blocks.clone() {
            let off = b0 - chunk.start;
            if full > 0 {
                let rows = self.dense_block(b0, b1, &mut table);
                let (w, bias) = (&slots.w[..full * d], &slots.bias[..full]);
                rows_dot_multi(rows, d, w, bias, ld, &mut margins[off..]);
            }
            for s in full..live {
                let end = slots.rows[s].min(b1);
                if end > b0 {
                    let out = &mut margins[s * ld + off..s * ld + off + (end - b0)];
                    self.margins_range(b0, end, &slots.w[s * d..(s + 1) * d], slots.bias[s], out);
                }
            }
        }
        for (k, &s) in slots.slot_of.iter().enumerate() {
            if s < live {
                let len = slots.rows[s].min(chunk.end) - chunk.start;
                parts[s] = chunk_fn(k, chunk.start, &mut margins[s * ld..s * ld + len]);
            }
        }
        partials[..live * d].iter_mut().for_each(|p| *p = 0.0);
        for (b0, b1, full) in blocks {
            let off = b0 - chunk.start;
            if full > 0 {
                let rows = self.dense_block(b0, b1, &mut table);
                rows_weighted_sum_multi(rows, d, &margins[off..], ld, &mut partials[..full * d]);
            }
            for s in full..live {
                let end = slots.rows[s].min(b1);
                if end > b0 {
                    let c = &margins[s * ld + off..s * ld + off + (end - b0)];
                    self.weighted_sum_range(b0, end, c, &mut partials[s * d..(s + 1) * d]);
                }
            }
        }
        live
    }

    /// Dense view rows `start..end` as slices, written into `table`.
    fn dense_block<'t>(
        &self,
        start: usize,
        end: usize,
        table: &'t mut [&'m [f64]; ROW_BLOCK_MAX],
    ) -> &'t [&'m [f64]] {
        for (slot, k) in table.iter_mut().zip(start..end) {
            *slot = self.dense_row(k).expect("dense block");
        }
        &table[..end - start]
    }

    /// Weighted Gram accumulation `Σₖ w[k]·x_k x_kᵀ`
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
    /// Gradient output `Σₖ chunk_weightₖ·x_k` (`dim()` long,
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

/// Bytes of dense rows in one row block of
/// [`MatrixView::value_grad_fold_multi`]: a block is reused by every live
/// request, so it is sized to stay in L1 next to the requests' weights.
const ROW_BLOCK_BYTES: usize = 16 << 10;

/// Row cap of one block (the row-slice table lives on the stack).
const ROW_BLOCK_MAX: usize = 64;

/// Rows per block of the multi-request fold at dimension `d`: the
/// [`ROW_BLOCK_BYTES`] budget in whole 4-row tiles, within
/// `4..=ROW_BLOCK_MAX`.
fn row_block(d: usize) -> usize {
    (ROW_BLOCK_BYTES / (8 * d.max(1)) / 4 * 4).clamp(4, ROW_BLOCK_MAX)
}

/// The requests of one multi-request fold in slot order (descending
/// row count, so the requests covering any row block are a slot prefix):
/// `req[s]` is slot `s`'s request and `slot_of` the inverse; `w` holds
/// the slots' weight vectors back to back.
#[derive(Debug, Default)]
struct Slots {
    req: Vec<usize>,
    slot_of: Vec<usize>,
    w: Vec<f64>,
    bias: Vec<f64>,
    rows: Vec<usize>,
}

impl Slots {
    /// Lay `requests` out in slot order.
    fn fill(&mut self, requests: &[FoldRequest<'_>]) {
        let k = requests.len();
        self.req.clear();
        self.req.extend(0..k);
        self.req
            .sort_unstable_by_key(|&q| (std::cmp::Reverse(requests[q].rows), q));
        self.slot_of.resize(k, 0);
        self.w.clear();
        self.bias.clear();
        self.rows.clear();
        for (s, &q) in self.req.iter().enumerate() {
            self.slot_of[q] = s;
            self.w.extend_from_slice(requests[q].w);
            self.bias.push(requests[q].bias);
            self.rows.push(requests[q].rows);
        }
    }

    /// Merge one chunk's partials of the first `live` slots into their
    /// requests.
    fn merge(&self, requests: &mut [FoldRequest<'_>], live: usize, out: &ChunkOut, d: usize) {
        for (s, &(lp, ep)) in out.parts[..live].iter().enumerate() {
            let req = &mut requests[self.req[s]];
            req.loss += lp;
            req.extra += ep;
            for (g, p) in req.grad.iter_mut().zip(&out.partials[s * d..(s + 1) * d]) {
                *g += p;
            }
        }
    }
}

/// One chunk's per-slot outputs in the multi-request fold: slot `s`'s
/// margins, then row weights, at `margins[s·ld..]`, its zero-started
/// gradient partial at `partials[s·d..]` and its `chunk_fn` partials at
/// `parts[s]`.
#[derive(Debug, Default)]
struct ChunkOut {
    margins: Vec<f64>,
    ld: usize,
    partials: Vec<f64>,
    parts: Vec<(f64, f64)>,
}

impl ChunkOut {
    /// Size for `k` slots over chunks of up to `rows` rows at
    /// dimension `d`.
    fn size(&mut self, k: usize, rows: usize, d: usize) {
        self.ld = rows;
        self.margins.resize(k * self.ld, 0.0);
        self.partials.resize(k * d, 0.0);
        self.parts.resize(k, (0.0, 0.0));
    }
}

/// The multi-request fold's buffers, kept in [`TrainScratch`] so that
/// steady-state rounds allocate nothing.
#[derive(Debug, Default)]
struct MultiFold {
    slots: Slots,
    chunk: ChunkOut,
}

/// Reusable buffer pool threaded through batched objective evaluation,
/// so optimizer line-search probes reuse their buffers across calls.
///
/// Model classes use numbered [`TrainScratch::slot`]s for their own
/// buffers; [`MatrixView::value_grad_fold_multi`] keeps its slot tables
/// and its single-thread chunk margins and gradient partials here as
/// well (its parallel form gives each chunk buffers of its own).
#[derive(Debug, Default)]
pub struct TrainScratch {
    slots: Vec<Vec<f64>>,
    multi: MultiFold,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;
    use crate::features::{DenseVec, SparseVec};
    use crate::generators::{synthetic_linear, yelp_like};
    use crate::parallel::set_max_threads;
    use blinkml_linalg::testing::budget_lock;

    fn dense_pair() -> (Dataset<DenseVec>, Vec<f64>) {
        let (data, _) = synthetic_linear(300, 7, 0.4, 1);
        let w: Vec<f64> = (0..7).map(|i| 0.3 * i as f64 - 0.9).collect();
        (data, w)
    }

    /// A d = 13 pair (the AVX kernels plus a column tail) whose rows
    /// reach a second chunk, and so the parallel forms.
    fn wide_pair() -> (Dataset<DenseVec>, Vec<f64>) {
        let (data, _) = synthetic_linear(CHUNK_SIZE + 37, 13, 0.4, 3);
        let w: Vec<f64> = (0..13).map(|i| (i as f64 * 0.7).sin()).collect();
        (data, w)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A fold's `(loss, extra, grad)`.
    type Fold = (f64, f64, Vec<f64>);

    fn fold_bits((loss, extra, grad): &Fold) -> (u64, u64, Vec<u64>) {
        (loss.to_bits(), extra.to_bits(), bits(grad))
    }

    /// The independent two-pass reference of the fused fold over
    /// `view`: `margins_into`, then `chunk_fn` over each chunk in order
    /// with its partials summed from zero, then `weighted_sum_into` of
    /// the row weights.
    fn two_pass_fold(
        view: MatrixView<'_>,
        w: &[f64],
        bias: f64,
        chunk_fn: impl Fn(usize, &mut [f64]) -> (f64, f64),
    ) -> Fold {
        let n = view.len();
        let mut weights = vec![0.0; n];
        view.margins_into(w, bias, &mut weights);
        let (mut loss, mut extra) = (0.0, 0.0);
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            let (lp, ep) = chunk_fn(start, &mut weights[start..end]);
            loss += lp;
            extra += ep;
        }
        let mut grad = vec![f64::NAN; view.dim()];
        view.weighted_sum_into(&weights, &mut grad);
        (loss, extra, grad)
    }

    /// The fused fold over all of `view` as a single request.
    fn single_fold(
        view: MatrixView<'_>,
        w: &[f64],
        bias: f64,
        chunk_fn: impl Fn(usize, &mut [f64]) -> (f64, f64) + Sync,
    ) -> Fold {
        let mut grad = vec![f64::NAN; view.dim()];
        let mut req = [FoldRequest::new(w, bias, view.len(), &mut grad)];
        view.value_grad_fold_multi(&mut req, &mut TrainScratch::new(), |_, start, ms| {
            chunk_fn(start, ms)
        });
        let (loss, extra) = (req[0].loss, req[0].extra);
        (loss, extra, grad)
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
            xm.view().margins_into(&w, bias, &mut out);
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
        xm.view().margins_into(&w, -0.5, &mut out);
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
        xm.view().weighted_sum_into(&w, &mut got);
        let expect = crate::parallel::par_sum_vecs(data.len(), data.dim(), |i, acc| {
            data.get(i).x.add_scaled_into(w[i], acc)
        });
        assert_eq!(got, expect);

        let sdata = yelp_like(200, 50, 2);
        let sxm = DatasetMatrix::from_dataset(&sdata);
        let sw: Vec<f64> = (0..sdata.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut sgot = vec![1.0; sdata.dim()];
        sxm.view().weighted_sum_into(&sw, &mut sgot);
        let sexpect = crate::parallel::par_sum_vecs(sdata.len(), sdata.dim(), |i, acc| {
            sdata.get(i).x.add_scaled_into(sw[i], acc)
        });
        assert_eq!(sgot, sexpect);
    }

    #[test]
    fn fold_matches_two_pass_form_bitwise() {
        let _budget = budget_lock();
        // One synthetic "objective": weights = 2·margin + label, loss =
        // Σ margin, extra = Σ label. The fused fold, run as one request,
        // must equal the two-pass form exactly at thread budgets {1, 4}:
        // d = 7 in one chunk, d = 13 over two chunks.
        let (data, w) = dense_pair();
        let (wide, ww) = wide_pair();
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            for (data, w) in [(&data, &w), (&wide, &ww)] {
                let xm = DatasetMatrix::from_dataset(data);
                let labels = xm.labels();
                let chunk_fn = |start: usize, ms: &mut [f64]| {
                    let (mut part, mut ypart) = (0.0, 0.0);
                    for (local, m) in ms.iter_mut().enumerate() {
                        part += *m;
                        ypart += labels[start + local];
                        *m = 2.0 * *m + labels[start + local];
                    }
                    (part, ypart)
                };
                let got = single_fold(xm.view(), w, 0.25, chunk_fn);
                let expect = two_pass_fold(xm.view(), w, 0.25, chunk_fn);
                let tag = format!("d={} budget {budget:?}", data.dim());
                assert_eq!(fold_bits(&got), fold_bits(&expect), "{tag}");
            }
        }
        set_max_threads(None);
    }

    #[test]
    fn weighted_gram_matches_naive_outer_products() {
        let (data, _) = dense_pair();
        let xm = DatasetMatrix::from_dataset(&data);
        let w: Vec<f64> = (0..data.len())
            .map(|i| 0.5 + (i % 5) as f64 * 0.1)
            .collect();
        let g = xm.view().weighted_gram(&w);
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
        let sg = sxm.view().weighted_gram(&sw);
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
        xm.view().margins_into(&[0.0; 3], 0.0, &mut out);
        let mut g = vec![0.0; 3];
        xm.view().weighted_sum_into(&[], &mut g);
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

    /// Every row pass over `got` must equal the same pass over `want`,
    /// bit for bit: the stored rows and labels, margins, the weighted
    /// sum and the Gram.
    fn assert_same_passes(got: &DatasetMatrix<'_>, want: &DatasetMatrix<'_>, tag: &str) {
        let (n, d) = (want.len(), want.dim());
        assert_eq!((got.len(), got.dim()), (n, d), "{tag}: shape");
        assert_eq!(got.is_sparse(), want.is_sparse(), "{tag}: layout");
        assert_eq!(bits(got.labels()), bits(want.labels()), "{tag}: labels");
        for k in 0..n {
            match (got.sparse_row(k), want.sparse_row(k)) {
                (Some((ia, va)), Some((ib, vb))) => {
                    assert_eq!(ia, ib, "{tag}: row {k} indices");
                    assert_eq!(bits(va), bits(vb), "{tag}: row {k} values");
                }
                _ => assert_eq!(
                    bits(got.dense_row(k).unwrap()),
                    bits(want.dense_row(k).unwrap()),
                    "{tag}: row {k}"
                ),
            }
        }
        let w: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
        let wr: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
        let margins = |v: MatrixView<'_>| {
            let mut out = vec![f64::NAN; n];
            v.margins_into(&w, 0.5, &mut out);
            bits(&out)
        };
        let wsum = |v: MatrixView<'_>| {
            let mut out = vec![f64::NAN; d];
            v.weighted_sum_into(&wr, &mut out);
            bits(&out)
        };
        let gram = |v: MatrixView<'_>| bits(v.weighted_gram(&wr).as_slice());
        let (a, b) = (got.view(), want.view());
        assert_eq!(margins(a), margins(b), "{tag}: margins");
        assert_eq!(wsum(a), wsum(b), "{tag}: weighted sum");
        assert_eq!(gram(a), gram(b), "{tag}: gram");
    }

    /// The fused fold over `got` must equal the fold over `want`, bit
    /// for bit, with one and with three requests.
    fn assert_same_folds(got: &DatasetMatrix<'_>, want: &DatasetMatrix<'_>, tag: &str) {
        let (n, d) = (want.len(), want.dim());
        assert_eq!((got.len(), got.dim()), (n, d), "{tag}: shape");
        let w: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
        // `k` requests over shrinking prefixes (all, 2/3, 1/3 of the rows).
        let fold = |v: MatrixView<'_>, k: usize| {
            let ws: Vec<Vec<f64>> = (0..k)
                .map(|q| w.iter().map(|x| x * (1.0 + q as f64)).collect())
                .collect();
            let mut grads = vec![vec![f64::NAN; d]; k];
            let mut reqs: Vec<FoldRequest> = ws
                .iter()
                .zip(grads.iter_mut())
                .enumerate()
                .map(|(q, (w, g))| FoldRequest::new(w, 0.1 * q as f64, n * (k - q) / k, g))
                .collect();
            v.value_grad_fold_multi(&mut reqs, &mut TrainScratch::new(), |q, start, ms| {
                let mut part = 0.0;
                for (local, m) in ms.iter_mut().enumerate() {
                    part += *m;
                    *m = (1.5 + q as f64) * *m - v.label(start + local);
                }
                (part, 0.0)
            });
            let parts: Vec<(f64, f64)> = reqs.iter().map(|r| (r.loss, r.extra)).collect();
            drop(reqs);
            parts
                .into_iter()
                .zip(grads)
                .map(|((loss, extra), grad)| fold_bits(&(loss, extra, grad)))
                .collect::<Vec<_>>()
        };
        for k in [1, 3] {
            assert_eq!(
                fold(got.view(), k),
                fold(want.view(), k),
                "{tag}: {k}-request fold"
            );
        }
    }

    /// What a packing pin checks of one capture: the pack of `idx`, the
    /// matrix of the materialized subset, the pool matrix, `idx`, a tag.
    type PackCheck<'c> =
        dyn Fn(&DatasetMatrix<'_>, &DatasetMatrix<'_>, &DatasetMatrix<'_>, &[usize], &str) + 'c;

    /// Pack `idx` of `data` through `scratch`, run `check` on the
    /// capture, then recycle it.
    fn check_pack<F: FeatureVec>(
        data: &Dataset<F>,
        idx: &[usize],
        scratch: &mut CaptureScratch,
        tag: &str,
        check: &PackCheck<'_>,
    ) {
        let packed = DatasetMatrix::pack(data, idx, scratch);
        let sub = data.subset(idx);
        let pool = DatasetMatrix::from_dataset(data);
        check(&packed, &DatasetMatrix::from_dataset(&sub), &pool, idx, tag);
        packed.recycle(scratch);
    }

    /// A dense row type that exposes no slice, so a pack of it runs the
    /// `write_dense_into` path.
    #[derive(Clone)]
    struct Unsliced(DenseVec);

    impl FeatureVec for Unsliced {
        const IS_SPARSE: bool = false;

        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn nnz(&self) -> usize {
            self.0.nnz()
        }

        fn dot(&self, w: &[f64]) -> f64 {
            self.0.dot(w)
        }

        fn add_scaled_into(&self, coef: f64, out: &mut [f64]) {
            self.0.add_scaled_into(coef, out)
        }

        fn get(&self, i: usize) -> f64 {
            self.0.get(i)
        }

        fn norm_sq(&self) -> f64 {
            self.0.norm_sq()
        }

        fn add_rows_times_table(rows: &[&Self], table: &[f64], width: usize, out: &mut [f64]) {
            let rows: Vec<&DenseVec> = rows.iter().map(|r| &r.0).collect();
            DenseVec::add_rows_times_table(&rows, table, width, out)
        }

        fn scaled_sparse(&self, coef: f64, out_dim: usize, offset: usize) -> SparseVec {
            self.0.scaled_sparse(coef, out_dim, offset)
        }
    }

    /// Run `check` on packs of dense (d = 7 in one chunk, d = 13 over
    /// two, and d = 7 rows with no slice) and sparse data, for reversed,
    /// shuffled, strided, repeated and empty index lists, and for
    /// scattered lists of 1, 8, 9, 16, 17 and 33 rows (around both
    /// prefetch distances of `pack_rows`) that end on the last row, at
    /// thread budgets {1, 4}. One scratch is recycled through every
    /// capture, so it switches dense↔sparse and shrinks from sample to
    /// sample.
    fn for_each_pack(check: &PackCheck<'_>) {
        let _budget = budget_lock();
        let (dense, _) = dense_pair();
        let (wide, _) = wide_pair();
        let sparse = yelp_like(260, 50, 4);
        let unsliced = Dataset::new(
            "unsliced",
            dense.dim(),
            dense
                .iter()
                .map(|e| Example {
                    x: Unsliced(e.x.clone()),
                    y: e.y,
                })
                .collect(),
        );
        let patterns = |n: usize| -> Vec<Vec<usize>> {
            let mut lists = vec![
                (0..n).rev().collect(),
                (0..n).map(|i| (i * 13 + 1) % n).collect(),
                (0..n).step_by(3).collect(),
                (0..n / 2).map(|i| (i * 5) % 7).collect(),
                vec![],
            ];
            for len in [1, 8, 9, 16, 17, 33] {
                let mut idx: Vec<usize> = (0..len - 1).map(|k| (k * 37 + 11) % n).collect();
                idx.push(n - 1);
                lists.push(idx);
            }
            lists
        };
        let mut scratch = CaptureScratch::new();
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            for p in 0..patterns(1).len() {
                let tag = format!("pattern {p} budget {budget:?}");
                let idx = patterns(dense.len());
                check_pack(&dense, &idx[p], &mut scratch, &format!("d=7 {tag}"), check);
                let idx = patterns(sparse.len());
                check_pack(&sparse, &idx[p], &mut scratch, &format!("CSR {tag}"), check);
                let idx = patterns(wide.len());
                check_pack(&wide, &idx[p], &mut scratch, &format!("d=13 {tag}"), check);
                let idx = patterns(unsliced.len());
                let tag = format!("unsliced d=7 {tag}");
                check_pack(&unsliced, &idx[p], &mut scratch, &tag, check);
            }
        }
        set_max_threads(None);
    }

    /// A pack gathers the rows `idx` of the dataset: its stored rows,
    /// labels, margins, weighted sum and Gram must equal those of a
    /// matrix built from the materialized subset, bit for bit, over
    /// every shape, index list and budget of `for_each_pack`.
    #[test]
    fn gathered_view_is_bitwise_materialized_subset() {
        for_each_pack(&|packed, materialized, _, _, tag| {
            assert_same_passes(packed, materialized, tag)
        });
    }

    /// The fused fold over a pack, with one and with three requests,
    /// must equal the fold over the materialized subset, bit for bit,
    /// over every shape, index list and budget of `for_each_pack`.
    #[test]
    fn gathered_fold_is_bitwise_materialized_fold() {
        for_each_pack(&|packed, materialized, _, _, tag| {
            assert_same_folds(packed, materialized, tag)
        });
    }

    /// `capture_sample` on a pool matrix and `pack` from the dataset
    /// run one packing body, so they must give the same bytes and the
    /// same passes and folds.
    #[test]
    fn packed_gather_is_bitwise_gathered_view() {
        for_each_pack(&|packed, _, pool, idx, tag| {
            let captured = pool.capture_sample(idx);
            let tag = format!("{tag} capture_sample");
            assert_same_passes(&captured, packed, &tag);
            assert_same_folds(&captured, packed, &tag);
        });
    }

    #[test]
    fn data_bytes_count_dense_cells_and_stored_entries() {
        let (dense, _) = dense_pair();
        let pool = DatasetMatrix::from_dataset(&dense);
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
        assert_eq!(view.len(), xm.len());
        assert_eq!(view.dim(), xm.dim());
        assert!(std::ptr::eq(view.matrix(), &xm));
        let mut a = vec![0.0; data.len()];
        view.margins_into(&w, 1.0, &mut a);
        for (k, e) in data.iter().enumerate() {
            assert_eq!(a[k], e.x.dot(&w) + 1.0);
            assert_eq!(view.label(k), e.y);
        }
    }

    /// `prefix(n)` must be indistinguishable — bit for bit — from a
    /// matrix packed from just the first `n` rows, over a borrowed dense
    /// view, a packed capture and a CSR matrix; its footprint counts
    /// only the prefix.
    #[test]
    fn prefix_views_are_bitwise_equal_to_sliced_views() {
        let _budget = budget_lock();
        let (dense, w) = dense_pair();
        let sparse = yelp_like(260, 50, 4);
        let sw: Vec<f64> = (0..50).map(|i| ((i * 5) % 11) as f64 * 0.1 - 0.3).collect();
        fn pack<F: FeatureVec>(data: &Dataset<F>, idx: &[usize]) -> DatasetMatrix<'static> {
            DatasetMatrix::pack(data, idx, &mut CaptureScratch::new())
        }
        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            // Borrowed dense view: prefix(n) vs the first n rows packed.
            let pool = DatasetMatrix::from_dataset(&dense);
            let n = 140;
            let head: Vec<usize> = (0..n).collect();
            let pre = pool.view().prefix(n);
            assert_eq!(pre.len(), n);
            let packed_head = pack(&dense, &head);
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            pre.margins_into(&w, 0.5, &mut a);
            packed_head.view().margins_into(&w, 0.5, &mut b);
            assert_eq!(bits(&a), bits(&b), "dense prefix margins budget {budget:?}");
            let wr: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
            let mut ga = vec![0.0; dense.dim()];
            let mut gb = vec![0.0; dense.dim()];
            pre.weighted_sum_into(&wr, &mut ga);
            packed_head.view().weighted_sum_into(&wr, &mut gb);
            assert_eq!(bits(&ga), bits(&gb), "dense prefix wsum budget {budget:?}");
            for k in 0..n {
                assert_eq!(pre.label(k), packed_head.labels()[k]);
            }
            assert_eq!(pre.data_bytes(), n * dense.dim() * 8);

            // Packed capture: prefix caps the packed block.
            let idx: Vec<usize> = (0..dense.len())
                .map(|i| (i * 13 + 1) % dense.len())
                .collect();
            let packed = pack(&dense, &idx);
            let ppre = packed.view().prefix(n);
            assert_eq!(ppre.len(), n);
            let pexp = pack(&dense, &idx[..n]);
            let mut pa = vec![0.0; n];
            let mut pb = vec![0.0; n];
            ppre.margins_into(&w, -0.25, &mut pa);
            pexp.view().margins_into(&w, -0.25, &mut pb);
            assert_eq!(
                bits(&pa),
                bits(&pb),
                "packed prefix margins budget {budget:?}"
            );

            // Sparse: prefix data_bytes counts only the prefix's nnz.
            let spool = DatasetMatrix::from_dataset(&sparse);
            let sn = 90;
            let spre = spool.view().prefix(sn);
            let nnz: usize = (0..sn).map(|i| sparse.get(i).x.nnz()).sum();
            assert_eq!(spre.data_bytes(), nnz * 12, "CSR prefix footprint");
            let shead: Vec<usize> = (0..sn).collect();
            let sexp = pack(&sparse, &shead);
            let mut sa = vec![0.0; sn];
            let mut sb = vec![0.0; sn];
            spre.margins_into(&sw, 0.0, &mut sa);
            sexp.view().margins_into(&sw, 0.0, &mut sb);
            assert_eq!(
                bits(&sa),
                bits(&sb),
                "sparse prefix margins budget {budget:?}"
            );
        }
        set_max_threads(None);
    }

    /// The multi-request fold must reproduce, for each of its K
    /// requests, the two-pass form over the matching prefix — bit for
    /// bit, dense (d ∈ {7, 13, 100}: under and over the AVX gate, with
    /// and without a column tail; d = 13 also at `CHUNK_SIZE + 37` rows)
    /// and sparse, over full views and packed captures, at thread
    /// budgets {1, 4}, for 1–5 requests whose row counts straddle chunk
    /// boundaries and end inside a row block.
    #[test]
    fn multi_fold_is_bitwise_per_request_folds() {
        let _budget = budget_lock();
        // Probe points with row counts on, under, and over chunk
        // boundaries (a sub-chunk one, a duplicate-rows pair with
        // different probes); the under and over ones end a few rows into
        // a row block at every d. Row counts are capped at the view's
        // `rows`. Each call takes the first `k` of them.
        let probes = |d: usize, rows: usize| -> Vec<(Vec<f64>, f64, usize)> {
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
                    (2 * CHUNK_SIZE).min(rows),
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

        let check = |view: MatrixView<'_>, tag: &str| {
            let d = view.dim();
            let labels: Vec<f64> = (0..view.len()).map(|k| view.label(k)).collect();
            for k in 1..=5 {
                let pts = &probes(d, view.len())[..k];
                // Multi-request pass.
                let mut grads: Vec<Vec<f64>> = vec![vec![f64::NAN; d]; k];
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
                // The two-pass form per request over its prefix.
                for (q, ((w, bias, n), grad)) in pts.iter().zip(grads).enumerate() {
                    let expect = two_pass_fold(view.prefix(*n), w, *bias, |start, ms| {
                        transform(q, start, ms, &labels)
                    });
                    let got = (multi[q].0, multi[q].1, grad);
                    let tag = format!("{tag} k={k} req {q}");
                    assert_eq!(fold_bits(&got), fold_bits(&expect), "{tag}");
                }
            }
        };

        for budget in [Some(1), Some(4)] {
            set_max_threads(budget);
            for (rows, dims) in [
                (2 * CHUNK_SIZE + 300, &[7, 13, 100][..]),
                (CHUNK_SIZE + 37, &[13]),
            ] {
                let idx: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % rows).collect();
                for &d in dims {
                    let (dense, _) = synthetic_linear(rows, d, 0.4, 9);
                    let pool = DatasetMatrix::from_dataset(&dense);
                    let packed = DatasetMatrix::pack(&dense, &idx, &mut CaptureScratch::new());
                    check(pool.view(), &format!("dense n={rows} d={d} full"));
                    check(packed.view(), &format!("dense n={rows} d={d} packed"));
                }
            }
            let rows = 2 * CHUNK_SIZE + 300;
            let idx: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % rows).collect();
            let sparse = yelp_like(rows, 50, 11);
            let spool = DatasetMatrix::from_dataset(&sparse);
            let spacked = DatasetMatrix::pack(&sparse, &idx, &mut CaptureScratch::new());
            check(spool.view(), "sparse full");
            check(spacked.view(), "sparse packed");
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
