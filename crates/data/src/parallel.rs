//! The workspace's deterministic execution facade.
//!
//! Every embarrassingly parallel hot loop in the system — per-example
//! gradients, objective accumulation, holdout scoring, the estimators'
//! Monte Carlo probe loops — goes through this module. The engine itself
//! lives in [`blinkml_linalg::exec`] (the bottom crate of the workspace
//! DAG, so the blocked GEMM/SYRK kernels can share it); this module
//! re-exports it at the layer where dataset-shaped code imports it, plus
//! data-flavoured helpers.
//!
//! # Determinism contract
//!
//! Chunk boundaries derive from the fixed [`CHUNK_SIZE`] constant —
//! never from the machine's thread count — and per-chunk results are
//! reduced in
//! chunk order. The thread budget ([`set_max_threads`]) therefore affects
//! wall-clock time only: results are bit-identical across machines,
//! thread counts, and runs.

pub use blinkml_linalg::exec::{
    max_threads, par_fill_slice, par_map_reduce_matrix, par_ranges, par_ranges_with,
    par_rows_matrix, par_sum_vecs, set_max_threads, CHUNK_SIZE,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reaches_the_engine() {
        let chunks = par_ranges(CHUNK_SIZE + 1, |r| r.len());
        assert_eq!(chunks, vec![CHUNK_SIZE, 1]);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn deterministic_across_calls() {
        let run = || par_sum_vecs(30_000, 1, |i, acc| acc[0] += (i as f64).sqrt());
        assert_eq!(run(), run());
    }
}
