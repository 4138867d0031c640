//! The model classes shipped with BlinkML.
//!
//! The paper supports four classes — linear regression, logistic
//! regression, max-entropy (softmax) classification, and PPCA — and
//! names Poisson regression as a supported GLM; all five are implemented
//! here. The three single-output GLMs share the [`glm`] machinery; the
//! max-entropy classifier generalizes it to per-class blocks; PPCA is a
//! closed-form MLE with its own gradient structure.

pub mod glm;
pub mod linreg;
pub mod logreg;
pub mod maxent;
pub mod poisson;
pub mod ppca;

pub use linreg::LinearRegressionSpec;
pub use logreg::LogisticRegressionSpec;
pub use maxent::MaxEntSpec;
pub use poisson::PoissonRegressionSpec;
pub use ppca::PpcaSpec;

use blinkml_data::MatrixView;

/// Dense copy of view row `i`: a borrowed slice for dense blocks, a
/// scatter into `buf` for CSR (`0 + v` per stored entry — the exact op
/// sequence of the per-example `add_scaled_into(1.0, …)`
/// densification, keeping per-row kernels over sparse views bitwise).
pub(crate) fn dense_row<'a>(xm: &'a MatrixView<'_>, i: usize, buf: &'a mut [f64]) -> &'a [f64] {
    match xm.dense_row(i) {
        Some(x) => x,
        None => {
            buf.iter_mut().for_each(|v| *v = 0.0);
            let (idx, val) = xm.sparse_row(i).expect("sparse block");
            for (&j, &v) in idx.iter().zip(val) {
                buf[j as usize] += v;
            }
            buf
        }
    }
}
