//! Fixed-width table printing and JSON result capture.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// A fixed-width text table printed in the paper's row format.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Interleaved minimum wall-clock times of a baseline/candidate pair.
///
/// The two arms alternate with the order flipped every rep
/// (A B, B A, A B, …), so slow drift *and* run-order effects on a
/// shared host hit both equally, and the per-arm **minimum** is
/// reported — the robust estimator for deterministic kernels, whose
/// timing noise is strictly additive. (Separately-batched medians let a
/// few ms of jitter read as a phantom regression on near-identical
/// arms.) Every gate in the `gates` binary runs on it or on
/// [`paired_min_cpu_times`].
pub fn paired_min_times<A, B>(
    reps: usize,
    baseline: impl FnMut() -> A,
    candidate: impl FnMut() -> B,
) -> (Duration, Duration) {
    paired_min_by(wall_time, reps, baseline, candidate)
}

/// [`paired_min_times`] on the process CPU clock: the CPU time all
/// threads of the process spend on each arm, which leaves out the time
/// a thread waits to be scheduled (a wake-up across threads, or a CPU
/// the host gave to another machine).
pub fn paired_min_cpu_times<A, B>(
    reps: usize,
    baseline: impl FnMut() -> A,
    candidate: impl FnMut() -> B,
) -> (Duration, Duration) {
    paired_min_by(process_cpu_time, reps, baseline, candidate)
}

fn paired_min_by<A, B>(
    measure: fn(&mut dyn FnMut()) -> Duration,
    reps: usize,
    mut baseline: impl FnMut() -> A,
    mut candidate: impl FnMut() -> B,
) -> (Duration, Duration) {
    let mut best_baseline = Duration::MAX;
    let mut best_candidate = Duration::MAX;
    for rep in 0..reps.max(1) {
        let mut run_baseline = || {
            std::hint::black_box(baseline());
        };
        let mut run_candidate = || {
            std::hint::black_box(candidate());
        };
        if rep % 2 == 0 {
            best_baseline = best_baseline.min(measure(&mut run_baseline));
            best_candidate = best_candidate.min(measure(&mut run_candidate));
        } else {
            best_candidate = best_candidate.min(measure(&mut run_candidate));
            best_baseline = best_baseline.min(measure(&mut run_baseline));
        }
    }
    (best_baseline, best_candidate)
}

fn wall_time(f: &mut dyn FnMut()) -> Duration {
    let t = std::time::Instant::now();
    f();
    t.elapsed()
}

fn process_cpu_time(f: &mut dyn FnMut()) -> Duration {
    let t = process_cpu();
    f();
    process_cpu().saturating_sub(t)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by all threads of this process.
fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that `clock_gettime` only writes into.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Human-readable duration (`1.23 s` / `45.6 ms`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1e3)
    }
}

/// Append one JSON line of experiment results to
/// `<results dir>/<experiment>.jsonl`, where the results directory is
/// [`results_dir`]: `BLINKML_RESULTS_DIR`, or `results` relative to the
/// current working directory.
///
/// Panics with the offending path on any I/O failure: a run whose
/// results cannot be recorded must not look like one that was.
pub fn append_result(experiment: &str, json: &serde_json::Value) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create results dir {}: {e}", dir.display()));
    let path = dir.join(format!("{experiment}.jsonl"));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{json}"))
        .unwrap_or_else(|e| panic!("cannot append results to {}: {e}", path.display()));
}

/// The results directory (override with `BLINKML_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("BLINKML_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "longer"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("longer"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn append_result_panics_with_the_unwritable_path() {
        // A results dir under a regular file can never be created.
        let file = std::env::temp_dir().join(format!("blinkml_report_{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("results");
        std::env::set_var("BLINKML_RESULTS_DIR", &dir);
        let outcome = std::panic::catch_unwind(|| {
            append_result("unwritable", &serde_json::json!({ "x": 1 }));
        });
        std::env::remove_var("BLINKML_RESULTS_DIR");
        std::fs::remove_file(&file).unwrap();
        let payload = outcome.expect_err("append_result must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
    }

    #[test]
    fn durations_format() {
        assert_eq!(fmt_duration(Duration::from_millis(2_500)), "2.50 s");
        assert_eq!(fmt_duration(Duration::from_micros(45_600)), "45.6 ms");
    }
}
