//! Property-based tests for the data substrate.

use blinkml_data::dataset::sample_indices;
use blinkml_data::{Dataset, DenseVec, Example, FeatureVec, SparseVec};
use proptest::prelude::*;

fn toy_dataset(n: usize) -> Dataset<DenseVec> {
    let examples = (0..n)
        .map(|i| Example {
            x: DenseVec::new(vec![i as f64]),
            y: i as f64,
        })
        .collect();
    Dataset::new("toy", 1, examples)
}

/// The partial Fisher–Yates draw over the whole stored permutation:
/// the oracle `sample_indices` must match for every `(len, n, seed)`,
/// whichever slot store it picks.
fn dense_fisher_yates(len: usize, n: usize, seed: u64) -> Vec<usize> {
    use rand::Rng;
    let n = n.min(len);
    let mut rng = blinkml_prob::rng_from_seed(seed);
    let mut pool: Vec<usize> = (0..len).collect();
    for i in 0..n {
        let j = rng.gen_range(i..len);
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// Draws from a 1M-row pool on both sides of the density switch: the
/// pilot-sized and final-sized draws of a large pool, a draw just past
/// the switch, and the whole pool.
#[test]
fn sample_indices_is_the_dense_draw_on_a_large_pool() {
    let len = 1_000_000;
    for n in [1, 1_000, 46_000, 100_000, 1_000_000] {
        for seed in [3, 0x5eed] {
            assert_eq!(
                sample_indices(len, n, seed),
                dense_fisher_yates(len, n, seed),
                "len {len} n {n} seed {seed}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `n` is drawn just below the density switch (where draws revisit
    /// displaced slots most), anywhere below it, anywhere in `0..=len`,
    /// or at the two ends.
    #[test]
    fn sample_indices_is_the_dense_draw(
        len in 0usize..4_000,
        pick in 0usize..4_001,
        mode in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let n = match mode {
            0 => (len / 20).saturating_sub(1 + pick % 8),
            1 => pick % (len / 20 + 1),
            2 => pick % (len + 1),
            3 => 0,
            _ => len,
        };
        prop_assert_eq!(sample_indices(len, n, seed), dense_fisher_yates(len, n, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampling_is_without_replacement(
        n in 1usize..200,
        take in 0usize..250,
        seed in 0u64..1_000,
    ) {
        let idx = sample_indices(n, take, seed);
        prop_assert_eq!(idx.len(), take.min(n));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), idx.len(), "duplicates found");
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    #[test]
    fn sampling_is_deterministic(n in 1usize..100, seed in 0u64..100) {
        let a = sample_indices(n, n / 2, seed);
        let b = sample_indices(n, n / 2, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn split_partitions_dataset(
        n in 10usize..150,
        holdout in 1usize..5,
        test in 0usize..5,
        seed in 0u64..50,
    ) {
        let data = toy_dataset(n);
        let split = data.split(holdout, test, seed);
        prop_assert_eq!(split.holdout.len(), holdout);
        prop_assert_eq!(split.test.len(), test);
        prop_assert_eq!(split.train.len(), n - holdout - test);
        let mut labels: Vec<i64> = split
            .train
            .iter()
            .chain(split.holdout.iter())
            .chain(split.test.iter())
            .map(|e| e.y as i64)
            .collect();
        labels.sort_unstable();
        let expect: Vec<i64> = (0..n as i64).collect();
        prop_assert_eq!(labels, expect, "split lost or duplicated examples");
    }

    #[test]
    fn sparse_dense_agree_on_all_operations(
        pairs in proptest::collection::btree_map(0u32..32, -5.0f64..5.0, 0..10),
        w in proptest::collection::vec(-3.0f64..3.0, 32),
        coef in -2.0f64..2.0,
    ) {
        let (indices, values): (Vec<u32>, Vec<f64>) = pairs.into_iter().unzip();
        let sparse = SparseVec::new(32, indices, values);
        let dense = DenseVec::new(sparse.to_dense());

        prop_assert!((sparse.dot(&w) - dense.dot(&w)).abs() < 1e-12);
        prop_assert!((sparse.norm_sq() - dense.norm_sq()).abs() < 1e-12);

        let mut out_s = vec![0.5; 32];
        let mut out_d = vec![0.5; 32];
        sparse.add_scaled_into(coef, &mut out_s);
        dense.add_scaled_into(coef, &mut out_d);
        for (a, b) in out_s.iter().zip(&out_d) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        for i in 0..32 {
            prop_assert_eq!(sparse.get(i), dense.get(i));
        }
    }

    #[test]
    fn scaled_sparse_embedding_is_consistent(
        values in proptest::collection::vec(-3.0f64..3.0, 4),
        coef in -2.0f64..2.0,
        offset in 0usize..8,
    ) {
        let dense = DenseVec::new(values.clone());
        let embedded = dense.scaled_sparse(coef, 16, offset);
        prop_assert_eq!(embedded.dim(), 16);
        let materialized = embedded.to_dense();
        for (i, &v) in values.iter().enumerate() {
            prop_assert!((materialized[offset + i] - coef * v).abs() < 1e-12);
        }
        let total: f64 = materialized.iter().map(|v| v.abs()).sum();
        let expect: f64 = values.iter().map(|v| (coef * v).abs()).sum();
        prop_assert!((total - expect).abs() < 1e-9, "no stray entries");
    }

    #[test]
    fn generators_standardize_targets(seed in 0u64..20) {
        let d = blinkml_data::generators::gas_like(4_000, seed);
        let (mean, std) = d.label_moments();
        prop_assert!(mean.abs() < 0.12, "mean {mean}");
        prop_assert!((std - 1.0).abs() < 0.12, "std {std}");
    }

    #[test]
    fn par_sum_vecs_is_deterministic(n in 1usize..30_000) {
        let a = blinkml_data::parallel::par_sum_vecs(n, 2, |i, acc| {
            acc[0] += (i as f64).sqrt();
            acc[1] += 1.0;
        });
        let b = blinkml_data::parallel::par_sum_vecs(n, 2, |i, acc| {
            acc[0] += (i as f64).sqrt();
            acc[1] += 1.0;
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn add_rows_times_table_matches_per_coordinate(
        rows in 5usize..10,
        width in 1usize..41,
        values in proptest::collection::vec(-3.0f64..3.0, 9 * 6),
        table in proptest::collection::vec(-2.0f64..2.0, 6 * 40),
        start in proptest::collection::vec(-1.0f64..1.0, 9 * 40),
    ) {
        // X T through the block kernels vs. explicit per-coordinate
        // accumulation that skips zero terms, bit for bit, for dense and
        // sparse representations alike. Entries under 0.5 in magnitude
        // become zeros (stored in one sparse form, dropped in the other).
        let dim = 6;
        let x: Vec<f64> = values[..rows * dim]
            .iter()
            .map(|&v| if v.abs() < 0.5 { 0.0 } else { v })
            .collect();
        let table = &table[..dim * width];
        let start = &start[..rows * width];
        let dense: Vec<DenseVec> = x.chunks_exact(dim).map(|r| DenseVec::new(r.to_vec())).collect();
        let stored: Vec<SparseVec> = dense.iter().map(|r| r.scaled_sparse(1.0, dim, 0)).collect();
        let pruned: Vec<SparseVec> = x
            .chunks_exact(dim)
            .map(|r| {
                let pairs = (0..dim as u32).zip(r.iter().copied());
                SparseVec::from_pairs(dim, pairs.filter(|&(_, v)| v != 0.0).collect())
            })
            .collect();
        let mut want = start.to_vec();
        for (r, row) in x.chunks_exact(dim).enumerate() {
            for c in 0..width {
                for (i, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        want[r * width + c] += v * table[i * width + c];
                    }
                }
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut got = start.to_vec();
        DenseVec::add_rows_times_table(&dense.iter().collect::<Vec<_>>(), table, width, &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
        for sparse in [&stored, &pruned] {
            let mut got = start.to_vec();
            let rows: Vec<&SparseVec> = sparse.iter().collect();
            SparseVec::add_rows_times_table(&rows, table, width, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
