//! Host calibration. On a shared guest the same work costs more CPU
//! time while neighbouring machines are busy: they share the memory
//! system and evict the caches, and the hypervisor's steal accounting
//! removes only the time they ran, not what they left behind. So every
//! run also times a fixed reference kernel between its operations, and
//! the gated end-to-end times are the operation's CPU time over the
//! reference's, scaled by the reference's time on the host the bounds
//! were set on ([`NOMINAL_MS`]): milliseconds on that host.
//!
//! The reference is the harness's own code, so no change to the library
//! moves it. It mimics the three kinds of work the workloads do, which
//! a busy host slows by different amounts: a logistic-regression
//! gradient (BlinkML's inner loop) over a dense matrix larger than a
//! core's private cache, the same gradient over a block that fits in
//! it, and a condition-variable ping-pong between two threads (a served
//! query's hand-offs).

use crate::host;
use crate::stats::{median, XorShift};
use std::hint::black_box;
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Reference matrix: 16,000 × 50, 6.4 MB, and the first 2,000 rows of
/// it, 0.8 MB (a core's private L2 cache holds 2 MB on the host
/// `README.md` describes).
const ROWS: usize = 16_000;
const BLOCK_ROWS: usize = 2_000;
const COLS: usize = 50;
/// Gradient passes per measurement: over the matrix, and over the block
/// (the same number of rows in all).
const PASSES: usize = 6;
const BLOCK_PASSES: usize = PASSES * ROWS / BLOCK_ROWS;
/// Hand-offs between the two threads per measurement.
const HANDOFFS: u32 = 300;
/// Wall time of measured work per reference measurement: the reference
/// costs about 7% of a run, and a run takes about sixty of them.
const REF_EVERY: Duration = Duration::from_millis(250);

/// The reference's median process CPU time per measurement on the host
/// `README.md` describes, in milliseconds.
pub const NOMINAL_MS: f64 = 18.0;

struct Reference {
    rows: Vec<f64>,
    labels: Vec<f64>,
    theta: Vec<f64>,
}

impl Reference {
    fn new() -> Self {
        let mut rng = XorShift::new(0x0CA1_1B2A);
        Reference {
            rows: (0..ROWS * COLS).map(|_| rng.next_f64() - 0.5).collect(),
            labels: (0..ROWS)
                .map(|_| (rng.next_f64() < 0.5) as u8 as f64)
                .collect(),
            theta: (0..COLS).map(|j| (j as f64 - 25.0) / 50.0).collect(),
        }
    }

    /// Process CPU milliseconds of one measurement: the gradient passes
    /// and the hand-offs.
    fn measure(&self) -> f64 {
        let start = host::process_cpu_s();
        for _ in 0..PASSES {
            black_box(self.gradient(ROWS));
        }
        for _ in 0..BLOCK_PASSES {
            black_box(self.gradient(BLOCK_ROWS));
        }
        ping_pong(HANDOFFS);
        (host::process_cpu_s() - start) * 1e3
    }

    /// ∑ᵢ (σ(xᵢ·θ) − yᵢ) xᵢ over the first `rows` rows.
    fn gradient(&self, rows: usize) -> Vec<f64> {
        let mut g = vec![0.0; COLS];
        for (x, y) in self.rows[..rows * COLS]
            .chunks_exact(COLS)
            .zip(&self.labels)
        {
            let z: f64 = x.iter().zip(&self.theta).map(|(a, b)| a * b).sum();
            let r = 1.0 / (1.0 + (-black_box(z)).exp()) - y;
            for (gj, xj) in g.iter_mut().zip(x) {
                *gj += r * xj;
            }
        }
        g
    }
}

/// Reference measurements to take after `work` of wall time: one per
/// [`REF_EVERY`], and at least one. The reference is built on first use,
/// outside the measurements.
pub fn measure_after(work: Duration) -> Vec<f64> {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    let reference = REFERENCE.get_or_init(Reference::new);
    let count = (work.as_secs_f64() / REF_EVERY.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    (0..count).map(|_| reference.measure()).collect()
}

/// Pass a turn back and forth `rounds` times between this thread and a
/// scoped one, through a mutex and a condition variable.
fn ping_pong(rounds: u32) {
    let turn = (Mutex::new(0u32), Condvar::new());
    let take_turns = |parity: u32| {
        let (lock, cv) = &turn;
        let mut t = lock.lock().expect("no ping-pong thread panics");
        while *t < 2 * rounds {
            if *t % 2 == parity {
                *t += 1;
                cv.notify_one();
            } else {
                t = cv.wait(t).expect("no ping-pong thread panics");
            }
        }
        cv.notify_one();
    };
    std::thread::scope(|s| {
        s.spawn(|| take_turns(1));
        take_turns(0);
    });
}

/// A calibrated time: the median of `op` over the median of `reference`,
/// in units of [`NOMINAL_MS`]. 0 without samples on either side.
pub fn calibrated(op: &[f64], reference: &[f64]) -> f64 {
    let r = median(reference);
    if op.is_empty() || r <= 0.0 {
        return 0.0;
    }
    median(op) / r * NOMINAL_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_reference() {
        // A reference at its nominal time leaves the median unchanged;
        // one twice as slow halves it.
        assert_eq!(calibrated(&[3.0, 1.0, 2.0], &[NOMINAL_MS; 3]), 2.0);
        assert_eq!(calibrated(&[2.0], &[2.0 * NOMINAL_MS]), 1.0);
        assert_eq!(calibrated(&[], &[NOMINAL_MS]), 0.0);
        assert_eq!(calibrated(&[1.0], &[]), 0.0);
    }

    #[test]
    fn reference_measures_once_per_stretch_of_work() {
        assert_eq!(measure_after(Duration::ZERO).len(), 1);
        let times = measure_after(REF_EVERY * 2 + Duration::from_millis(1));
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t > 0.0));
        ping_pong(0);
        ping_pong(3);
    }
}
