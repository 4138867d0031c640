//! Property-based tests for the linear algebra substrate.

use blinkml_linalg::blas::{
    gemm, gemm_nt, gemm_tn, gemv, gemv_t, par_gemm, par_gemm_nt, par_syrk_n, par_syrk_t, syrk_n,
    syrk_t,
};
use blinkml_linalg::{Cholesky, Matrix, SymmetricEigen};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with entries in [-5, 5].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a well-conditioned SPD matrix `B Bᵀ + n·I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |b| {
        let mut a = gemm_nt(&b, &b).unwrap();
        a.add_diag(n as f64 + 1.0);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_is_associative(a in matrix(4, 3), b in matrix(3, 5), c in matrix(5, 2)) {
        let left = gemm(&gemm(&a, &b).unwrap(), &c).unwrap();
        let right = gemm(&a, &gemm(&b, &c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn transpose_product_rule(a in matrix(4, 3), b in matrix(3, 5)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = gemm(&a, &b).unwrap().transpose();
        let rhs = gemm(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn fused_kernels_match_explicit(a in matrix(5, 3), b in matrix(5, 4), c in matrix(6, 3)) {
        let tn = gemm_tn(&a, &b).unwrap();
        let explicit = gemm(&a.transpose(), &b).unwrap();
        prop_assert!(tn.max_abs_diff(&explicit) < 1e-10);

        let nt = gemm_nt(&a, &c).unwrap();
        let explicit2 = gemm(&a, &c.transpose()).unwrap();
        prop_assert!(nt.max_abs_diff(&explicit2) < 1e-10);

        let gram = syrk_t(&a);
        let explicit3 = gemm(&a.transpose(), &a).unwrap();
        prop_assert!(gram.max_abs_diff(&explicit3) < 1e-10);
    }

    #[test]
    fn par_gemm_bit_identical_for_random_shapes(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..u64::MAX,
    ) {
        // Parallel ≡ sequential, bitwise: the parallel kernel partitions
        // output rows without changing per-row accumulation order.
        let a = blinkml_linalg::testing::xorshift_matrix(m, k, seed);
        let b = blinkml_linalg::testing::xorshift_matrix(k, n, seed ^ 0xABCD);
        let seq = gemm(&a, &b).unwrap();
        let par = par_gemm(&a, &b).unwrap();
        prop_assert_eq!(seq.as_slice(), par.as_slice());
    }

    #[test]
    fn par_syrk_kernels_match_sequential(rows in 1usize..40, cols in 1usize..10, seed in 0u64..1_000) {
        let a = blinkml_linalg::testing::xorshift_matrix(rows, cols, seed);
        // Aᵀ A: chunked in-order reduction, ≤ 1e-12 of the sequential sum.
        prop_assert!(par_syrk_t(&a).max_abs_diff(&syrk_t(&a)) < 1e-12);
        // A Aᵀ: output-partitioned, bitwise identical.
        let (par_n, seq_n) = (par_syrk_n(&a), syrk_n(&a));
        prop_assert_eq!(par_n.as_slice(), seq_n.as_slice());
    }

    #[test]
    fn gemv_t_consistent(a in matrix(6, 4), x in proptest::collection::vec(-3.0f64..3.0, 6)) {
        let fused = gemv_t(&a, &x).unwrap();
        let explicit = gemv(&a.transpose(), &x).unwrap();
        for (l, r) in fused.iter().zip(&explicit) {
            prop_assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_roundtrip(a in spd(5)) {
        let ch = Cholesky::new(&a).unwrap();
        let rec = gemm_nt(ch.factor(), ch.factor()).unwrap();
        prop_assert!(rec.max_abs_diff(&a) / a.max_abs().max(1.0) < 1e-10);
    }

    #[test]
    fn cholesky_solve_residual(a in spd(5), b in proptest::collection::vec(-3.0f64..3.0, 5)) {
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let ax = gemv(&a, &x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn eigen_reconstruction(a0 in matrix(6, 6)) {
        // Symmetrize an arbitrary matrix, then verify the decomposition.
        let mut a = a0.clone();
        a.add_scaled(1.0, &a0.transpose());
        a.scale(0.5);
        let eig = SymmetricEigen::new(&a).unwrap();
        prop_assert!(eig.reconstruct().max_abs_diff(&a) < 1e-8);
        // Eigenvalues sorted descending.
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn spd_eigenvalues_nonnegative(a in spd(5)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        for &l in &eig.eigenvalues {
            prop_assert!(l > 0.0);
        }
    }

    #[test]
    fn par_gemm_nt_bit_identical_for_random_shapes(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..u64::MAX,
    ) {
        let a = blinkml_linalg::testing::xorshift_matrix(m, k, seed);
        let b = blinkml_linalg::testing::xorshift_matrix(n, k, seed ^ 0x1234);
        let seq = gemm_nt(&a, &b).unwrap();
        let par = par_gemm_nt(&a, &b).unwrap();
        prop_assert_eq!(seq.as_slice(), par.as_slice());
    }
}
