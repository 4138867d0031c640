//! In-memory labelled datasets with deterministic uniform sampling.
//!
//! This is the paper's "sampling abstraction": BlinkML only ever asks a
//! training set for (a) a uniform random sample of a given size and (b) a
//! holdout split that is never used for training. Both operations are
//! deterministic given a seed so experiments reproduce bit-for-bit.

use crate::features::FeatureVec;
use blinkml_prob::rng_from_seed;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// One labelled training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example<F> {
    /// Feature vector.
    pub x: F,
    /// Label: a real value for regression, a class index (stored as `f64`)
    /// for classification, ignored by unsupervised models.
    pub y: f64,
}

/// An in-memory dataset of examples sharing one feature dimension.
///
/// The rows live behind an `Arc` and the dataset is the first `len` of
/// them: a prefix view. `clone` is therefore `O(1)` (a refcount bump,
/// never a row copy), and a streaming pool hands out each epoch as a
/// prefix of its one shared row log (`StreamSnapshot::train_dataset`)
/// without cloning a row. The name is reference-counted too, so
/// derived datasets (`subset`, `sample`, `split`) share it instead of
/// copying the string data.
#[derive(Clone)]
pub struct Dataset<F> {
    name: Arc<str>,
    dim: usize,
    rows: Arc<Vec<Example<F>>>,
    /// Visible prefix length (`len <= rows.len()`).
    len: usize,
}

impl<F: fmt::Debug> fmt::Debug for Dataset<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.name)
            .field("dim", &self.dim)
            .field("examples", &&self.rows[..self.len])
            .finish()
    }
}

/// A train/holdout/test partition of one dataset.
///
/// * `train` — examples BlinkML may sample from,
/// * `holdout` — used only to evaluate prediction differences
///   (paper §2.1: "a holdout set that is not used for training"),
/// * `test` — used only for generalization-error reporting.
#[derive(Debug, Clone)]
pub struct Split<F> {
    /// Sampling pool for training.
    pub train: Dataset<F>,
    /// Model-difference evaluation set.
    pub holdout: Dataset<F>,
    /// Generalization-error evaluation set.
    pub test: Dataset<F>,
}

impl<F: FeatureVec> Dataset<F> {
    /// Build a dataset from examples; all must share dimension `dim`.
    ///
    /// # Panics
    /// Panics if any example has a different dimension.
    pub fn new(name: impl Into<String>, dim: usize, examples: Vec<Example<F>>) -> Self {
        for (i, e) in examples.iter().enumerate() {
            assert_eq!(
                e.x.dim(),
                dim,
                "example {i} has dim {} but dataset dim is {dim}",
                e.x.dim()
            );
        }
        let len = examples.len();
        Dataset::from_shared(Arc::from(name.into()), dim, Arc::new(examples), len)
    }

    /// Wrap already-validated shared rows as a prefix view of their
    /// first `len` rows: no row is copied and no dimension is
    /// re-checked, so callers must only pass rows that already passed a
    /// dimension gate.
    ///
    /// # Panics
    /// Panics when `len > rows.len()`.
    pub(crate) fn from_shared(
        name: Arc<str>,
        dim: usize,
        rows: Arc<Vec<Example<F>>>,
        len: usize,
    ) -> Self {
        assert!(
            len <= rows.len(),
            "prefix of {len} rows over {} rows",
            rows.len()
        );
        Dataset {
            name,
            dim,
            rows,
            len,
        }
    }

    /// Dataset name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of examples (the paper's `N` when this is a full training
    /// set).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow example `i`.
    pub fn get(&self, i: usize) -> &Example<F> {
        &self.examples()[i]
    }

    /// Borrow the full example slice.
    pub fn examples(&self) -> &[Example<F>] {
        &self.rows[..self.len]
    }

    /// The shared row vector, when this dataset views all of it (no
    /// hidden tail past `len`).
    pub(crate) fn whole_rows(&self) -> Option<&Arc<Vec<Example<F>>>> {
        (self.len == self.rows.len()).then_some(&self.rows)
    }

    /// Take ownership of the examples (drops the dataset shell). Free
    /// when this dataset is the rows' only owner; a shared prefix
    /// clones its `len` rows.
    pub fn into_examples(self) -> Vec<Example<F>> {
        match Arc::try_unwrap(self.rows) {
            Ok(mut rows) => {
                rows.truncate(self.len);
                rows
            }
            Err(shared) => shared[..self.len].to_vec(),
        }
    }

    /// Iterate over examples.
    pub fn iter(&self) -> std::slice::Iter<'_, Example<F>> {
        self.examples().iter()
    }

    /// Clone the examples at the given indices into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset<F> {
        let rows = self.examples();
        let examples = indices.iter().map(|&i| rows[i].clone()).collect();
        self.with_rows(examples)
    }

    /// Uniform random sample of `n` examples **without replacement**,
    /// deterministic for a given seed. `n` is clamped to `len()`.
    ///
    /// Uses a partial Fisher–Yates shuffle ([`sample_indices`]): `O(n)`
    /// swaps, and `O(n)` memory for a draw of under a twentieth of the
    /// pool (`O(N)` for a denser one).
    ///
    /// This **materializes** the drawn examples (one clone each). The
    /// zero-copy alternative is [`Dataset::sample_view`], which returns
    /// the same indices as an [`IndexView`] instead.
    pub fn sample(&self, n: usize, seed: u64) -> Dataset<F> {
        let n = n.min(self.len());
        let indices = sample_indices(self.len(), n, seed);
        self.subset(&indices)
    }

    /// Zero-copy form of [`Dataset::sample`]: the same deterministic
    /// index list for `(n, seed)` — `sample(n, seed)` is exactly
    /// `sample_view(n, seed).materialize()` — wrapped as an
    /// [`IndexView`] so no example is cloned. `DatasetMatrix::pack`
    /// copies the drawn rows from there into one contiguous block (or
    /// CSR triple) for training, without an `Example` clone.
    pub fn sample_view(&self, n: usize, seed: u64) -> IndexView<'_, F> {
        let n = n.min(self.len());
        IndexView {
            base: self,
            indices: sample_indices(self.len(), n, seed),
        }
    }

    /// A dataset of `rows` sharing this dataset's name and dimension.
    fn with_rows(&self, rows: Vec<Example<F>>) -> Dataset<F> {
        let len = rows.len();
        Dataset::from_shared(self.name.clone(), self.dim, Arc::new(rows), len)
    }

    /// Deterministically split off `holdout_size` + `test_size` examples;
    /// the remainder is the training pool. The three parts are disjoint.
    ///
    /// Empty partitions (`test_size == 0`, or a degenerate
    /// `holdout_size == 0`) are built directly instead of running the
    /// index scan and subset machinery, and the dataset name is shared,
    /// not copied.
    ///
    /// # Panics
    /// Panics when `holdout_size + test_size >= len()`.
    pub fn split(&self, holdout_size: usize, test_size: usize, seed: u64) -> Split<F> {
        assert!(
            holdout_size + test_size < self.len(),
            "split sizes ({holdout_size} + {test_size}) must leave training data (N = {})",
            self.len()
        );
        let total = holdout_size + test_size;
        if total == 0 {
            // Nothing carved out: the pool is the whole dataset.
            return Split {
                train: self.clone(),
                holdout: self.with_rows(Vec::new()),
                test: self.with_rows(Vec::new()),
            };
        }
        let picked = sample_indices(self.len(), total, seed);
        let holdout_idx = &picked[..holdout_size];
        let test_idx = &picked[holdout_size..];

        let mut is_held = vec![false; self.len()];
        for &i in &picked {
            is_held[i] = true;
        }
        let train_idx: Vec<usize> = (0..self.len()).filter(|&i| !is_held[i]).collect();

        Split {
            train: self.subset(&train_idx),
            holdout: if holdout_size == 0 {
                self.with_rows(Vec::new())
            } else {
                self.subset(holdout_idx)
            },
            test: if test_size == 0 {
                self.with_rows(Vec::new())
            } else {
                self.subset(test_idx)
            },
        }
    }

    /// Mean and population standard deviation of the labels.
    pub fn label_moments(&self) -> (f64, f64) {
        if self.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.len() as f64;
        let mean = self.iter().map(|e| e.y).sum::<f64>() / n;
        let var = self
            .iter()
            .map(|e| (e.y - mean) * (e.y - mean))
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }

    /// Number of distinct class labels, assuming labels are nonnegative
    /// integers stored as `f64` (classification datasets).
    pub fn num_classes(&self) -> usize {
        self.iter().map(|e| e.y as usize).max().map_or(0, |m| m + 1)
    }
}

/// A zero-copy sample: an index list into a base dataset.
///
/// This is the paper's sampling abstraction without the copy: the view
/// holds `n` indices and clones no drawn example, and drawing it
/// ([`Dataset::sample_view`]) touches nothing of the pool's rows (its
/// cost is that of [`sample_indices`]). The batched training engine
/// consumes it through `DatasetMatrix::pack`, which copies the indexed
/// rows straight from the base dataset into one packed design matrix.
#[derive(Debug, Clone)]
pub struct IndexView<'a, F> {
    base: &'a Dataset<F>,
    indices: Vec<usize>,
}

impl<'a, F: FeatureVec> IndexView<'a, F> {
    /// Wrap an explicit index list over `base`.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn new(base: &'a Dataset<F>, indices: Vec<usize>) -> Self {
        for &i in &indices {
            assert!(
                i < base.len(),
                "index {i} out of range (N = {})",
                base.len()
            );
        }
        IndexView { base, indices }
    }

    /// Number of sampled examples `n`.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the view selects no examples.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Feature dimension `d` (the base dataset's).
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// The base dataset the indices point into.
    pub fn base(&self) -> &'a Dataset<F> {
        self.base
    }

    /// The sampled pool indices, in draw order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Borrow sampled example `k` (the `indices()[k]`-th pool example).
    pub fn get(&self, k: usize) -> &'a Example<F> {
        self.base.get(self.indices[k])
    }

    /// Iterate over the sampled examples in draw order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Example<F>> + '_ {
        self.indices.iter().map(move |&i| self.base.get(i))
    }

    /// Clone the sampled examples into an owned dataset — exactly what
    /// [`Dataset::sample`] returns for the same indices. The escape
    /// hatch for consumers that need a materialized `Dataset`.
    pub fn materialize(&self) -> Dataset<F> {
        self.base.subset(&self.indices)
    }
}

/// Choose `n` distinct indices uniformly from `0..len` (partial
/// Fisher–Yates), deterministic per seed.
///
/// Step `i` draws `j` from `i..len` and swaps slots `i` and `j` of the
/// identity permutation of `0..len`; the sample is the first `n` slots,
/// so every shorter draw on the same seed is a prefix of a longer one.
/// A draw of fewer than `len / SPARSE_DRAW_RATIO` rows keeps only the
/// slots its swaps displaced, in a map of at most `n` entries, and costs
/// `O(n)` time and memory; a denser draw keeps the whole permutation,
/// which is faster once the map would hold a sizable share of it. Both
/// run one swap loop on the same draws, so the list depends only on
/// `(len, n, seed)`.
pub fn sample_indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let n = n.min(len);
    let rng = rng_from_seed(seed);
    if n < len / SPARSE_DRAW_RATIO {
        fisher_yates(DisplacedSlots::new(n), len, n, rng)
    } else {
        fisher_yates((0..len).collect::<Vec<usize>>(), len, n, rng)
    }
}

/// Pool rows per drawn row above which [`sample_indices`] keeps a map of
/// displaced slots instead of the whole permutation: about where the
/// two cost the same on a 1M-row pool (on a 2-vCPU x86-64 guest, a
/// 46,000-row draw took 0.9 ms through the map and 1.1 ms through the
/// permutation, a 100,000-row draw 4.3 and 1.9 ms).
const SPARSE_DRAW_RATIO: usize = 20;

/// The slots of a permutation of `0..len` that a partial Fisher–Yates
/// shuffle rewrites.
trait Slots {
    /// Swap slots `i <= j`. Slot `i` is final: no later step reads it.
    fn swap(&mut self, i: usize, j: usize);
    /// The first `n` slots, once `n` swaps have run.
    fn into_prefix(self, n: usize) -> Vec<usize>;
}

/// The one swap loop behind [`sample_indices`].
fn fisher_yates(mut slots: impl Slots, len: usize, n: usize, mut rng: impl Rng) -> Vec<usize> {
    for i in 0..n {
        slots.swap(i, rng.gen_range(i..len));
    }
    slots.into_prefix(n)
}

/// The whole permutation, stored.
impl Slots for Vec<usize> {
    fn swap(&mut self, i: usize, j: usize) {
        self.as_mut_slice().swap(i, j);
    }

    fn into_prefix(mut self, n: usize) -> Vec<usize> {
        self.truncate(n);
        self
    }
}

/// Only the displaced slots: an open-addressing map from slot to value
/// (a slot it does not hold still holds its own index), plus the final
/// slots in order.
struct DisplacedSlots {
    /// `(slot, value)` entries, linearly probed from `slot mod
    /// table.len()`; `slot == usize::MAX` marks a free entry. At most
    /// half full. The identity hash spreads the stored slots, which are
    /// uniform draws, and walks the table in order for the final slots.
    table: Vec<(usize, usize)>,
    prefix: Vec<usize>,
}

impl DisplacedSlots {
    /// Room for the `n` slots that `n` swaps can displace.
    fn new(n: usize) -> Self {
        DisplacedSlots {
            table: vec![(usize::MAX, 0); (2 * n).next_power_of_two()],
            prefix: Vec::with_capacity(n),
        }
    }

    /// The entry holding `slot`, or the free entry where it would go.
    fn entry(&self, slot: usize) -> usize {
        let mask = self.table.len() - 1;
        let mut at = slot & mask;
        while self.table[at].0 != slot && self.table[at].0 != usize::MAX {
            at = (at + 1) & mask;
        }
        at
    }

    /// The value of `slot`, whose entry is `at`.
    fn value(&self, at: usize, slot: usize) -> usize {
        match self.table[at] {
            (s, v) if s == slot => v,
            _ => slot,
        }
    }
}

impl Slots for DisplacedSlots {
    fn swap(&mut self, i: usize, j: usize) {
        let vi = self.value(self.entry(i), i);
        let at = self.entry(j);
        self.prefix.push(self.value(at, j));
        self.table[at] = (j, vi);
    }

    fn into_prefix(self, _n: usize) -> Vec<usize> {
        self.prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::DenseVec;

    fn toy(n: usize) -> Dataset<DenseVec> {
        let examples = (0..n)
            .map(|i| Example {
                x: DenseVec::new(vec![i as f64, (i * i) as f64]),
                y: i as f64,
            })
            .collect();
        Dataset::new("toy", 2, examples)
    }

    #[test]
    fn basic_accessors() {
        let d = toy(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.name(), "toy");
        assert!(!d.is_empty());
        assert_eq!(d.get(3).y, 3.0);
        assert_eq!(d.iter().count(), 10);
    }

    #[test]
    fn sample_is_deterministic_and_without_replacement() {
        let d = toy(100);
        let s1 = d.sample(30, 7);
        let s2 = d.sample(30, 7);
        assert_eq!(s1.len(), 30);
        let ys1: Vec<f64> = s1.iter().map(|e| e.y).collect();
        let ys2: Vec<f64> = s2.iter().map(|e| e.y).collect();
        assert_eq!(ys1, ys2, "same seed must give the same sample");

        let mut sorted = ys1.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "sampling must be without replacement");

        let s3 = d.sample(30, 8);
        let ys3: Vec<f64> = s3.iter().map(|e| e.y).collect();
        assert_ne!(ys1, ys3, "different seeds should differ");
    }

    #[test]
    fn sample_clamps_to_len() {
        let d = toy(5);
        assert_eq!(d.sample(100, 1).len(), 5);
    }

    #[test]
    fn sample_is_approximately_uniform() {
        // Each of 20 items should appear in ~half of 10-item samples.
        let d = toy(20);
        let mut counts = [0usize; 20];
        let reps = 2000;
        for seed in 0..reps {
            for e in d.sample(10, seed as u64).iter() {
                counts[e.y as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / reps as f64;
            assert!(
                (freq - 0.5).abs() < 0.05,
                "item {i} frequency {freq} deviates from 0.5"
            );
        }
    }

    #[test]
    fn split_parts_are_disjoint_and_exhaustive() {
        let d = toy(50);
        let split = d.split(10, 5, 3);
        assert_eq!(split.holdout.len(), 10);
        assert_eq!(split.test.len(), 5);
        assert_eq!(split.train.len(), 35);

        let mut seen = std::collections::HashSet::new();
        for part in [&split.train, &split.holdout, &split.test] {
            for e in part.iter() {
                assert!(seen.insert(e.y as usize), "example duplicated across parts");
            }
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn split_is_deterministic() {
        let d = toy(40);
        let a = d.split(8, 4, 9);
        let b = d.split(8, 4, 9);
        let ya: Vec<f64> = a.holdout.iter().map(|e| e.y).collect();
        let yb: Vec<f64> = b.holdout.iter().map(|e| e.y).collect();
        assert_eq!(ya, yb);
    }

    #[test]
    #[should_panic(expected = "must leave training data")]
    fn split_rejects_oversized_parts() {
        toy(10).split(6, 4, 0);
    }

    #[test]
    fn label_moments_and_classes() {
        let d = toy(4); // labels 0,1,2,3
        let (mean, std) = d.label_moments();
        assert!((mean - 1.5).abs() < 1e-12);
        assert!((std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(d.num_classes(), 4);
    }

    #[test]
    #[should_panic(expected = "has dim")]
    fn rejects_mismatched_dims() {
        let examples = vec![
            Example {
                x: DenseVec::new(vec![1.0]),
                y: 0.0,
            },
            Example {
                x: DenseVec::new(vec![1.0, 2.0]),
                y: 0.0,
            },
        ];
        let _ = Dataset::new("bad", 1, examples);
    }

    #[test]
    fn sample_view_matches_sample_exactly() {
        let d = toy(100);
        for (n, seed) in [(1, 0), (30, 7), (100, 3), (250, 9)] {
            let view = d.sample_view(n, seed);
            let owned = d.sample(n, seed);
            assert_eq!(view.len(), owned.len());
            assert_eq!(view.dim(), owned.dim());
            assert_eq!(view.indices(), &sample_indices(d.len(), n, seed)[..]);
            for (k, e) in owned.iter().enumerate() {
                assert_eq!(view.get(k), e, "n={n} seed={seed} row {k}");
            }
            let mat = view.materialize();
            assert_eq!(mat.len(), owned.len());
            for (a, b) in mat.iter().zip(owned.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn index_view_borrows_without_cloning() {
        let d = toy(10);
        let view = d.sample_view(4, 1);
        assert!(!view.is_empty());
        assert!(std::ptr::eq(view.base(), &d));
        // The view's examples are the pool's examples, not copies.
        for (k, &i) in view.indices().iter().enumerate() {
            assert!(std::ptr::eq(view.get(k), d.get(i)));
        }
        assert_eq!(view.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_view_rejects_out_of_range() {
        let d = toy(3);
        let _ = IndexView::new(&d, vec![0, 5]);
    }

    #[test]
    fn split_with_zero_test_size_has_empty_test() {
        let d = toy(50);
        let s = d.split(10, 0, 3);
        assert_eq!(s.test.len(), 0);
        assert_eq!(s.holdout.len(), 10);
        assert_eq!(s.train.len(), 40);
        // The partition must match what the index scan would pick.
        let picked = sample_indices(50, 10, 3);
        let ys: Vec<f64> = s.holdout.iter().map(|e| e.y).collect();
        let expect: Vec<f64> = picked.iter().map(|&i| i as f64).collect();
        assert_eq!(ys, expect);
    }

    #[test]
    fn split_shares_the_name_allocation() {
        let d = toy(20);
        let s = d.split(4, 2, 1);
        assert_eq!(s.train.name(), d.name());
        assert!(std::ptr::eq(s.train.name().as_ptr(), d.name().as_ptr()));
    }

    #[test]
    fn sample_indices_covers_range() {
        let idx = sample_indices(10, 10, 5);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
