//! Shared harness for the BlinkML experiment suite.
//!
//! Each `fig*` binary in `src/bin/` regenerates one table/figure of the
//! paper's evaluation (see `docs/REPRODUCING.md` for the index), and the
//! `gates` binary holds the wall-clock gates CI runs. This library
//! provides the common pieces: the eight (model, dataset) combinations
//! of §5.1, timing helpers, fixed-width table printing, and JSON result
//! capture under `results/`.

pub mod args;
pub mod combos;
pub mod report;

pub use args::BenchArgs;
pub use combos::{ComboId, ComboRun};
pub use report::{fmt_duration, paired_min_cpu_times, paired_min_times, Table};

/// The requested-accuracy sweep used by Figures 5 and 6 for Lin/LR/ME.
pub const GLM_ACCURACY_SWEEP: &[f64] = &[0.80, 0.85, 0.90, 0.95, 0.96, 0.97, 0.98, 0.99];

/// The requested-accuracy sweep used by Figures 5 and 6 for PPCA.
pub const PPCA_ACCURACY_SWEEP: &[f64] = &[0.90, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999];
