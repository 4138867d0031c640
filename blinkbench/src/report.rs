//! One workload run → one report: the end-to-end metrics (untraced
//! runs gate on them), the per-layer metrics (traced runs), host facts,
//! exactness-gate counts, and the span summary.

use crate::calib::{self, calibrated};
use crate::json::{float, get, num};
use crate::stats::{completion_rate, median, summarize};
use crate::workloads::Run;
use crate::{host, trace};
use serde_json::{json, Value};

/// End-to-end metrics `(name, unit)` the result line carries. Both are
/// process CPU time calibrated against the reference kernel (see
/// [`calib`]); the raw CPU and wall-clock times, latency and throughput
/// stay in the report (see [`Report::e2e`] and `README.md`, "Noise").
pub const E2E: [(&str, &str); 2] = [("op_cal_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics `(name, unit)` every traced run reports, on every
/// workload. Workload-specific layer numbers (serve counters, the
/// sweep's fused-vs-looped ratio, ingest's own appends and recovery)
/// go to the report's `extra` section instead.
pub const LAYERS: [(&str, &str); 32] = [
    ("linalg.simd.rows_dot_gbps", "GB/s"),
    ("linalg.simd.gather_idx_gbps", "GB/s"),
    ("linalg.simd.roofline_frac", "ratio"),
    ("linalg.eigen.ms", "ms"),
    ("data.matrix.build_ms", "ms"),
    ("data.matrix.capture_ms", "ms"),
    ("data.matrix.capture_bytes", "bytes"),
    ("optim.pilot_fit_ms", "ms"),
    ("optim.final_fit_ms", "ms"),
    ("optim.iterations", "count"),
    ("optim.ms_per_iter", "ms"),
    ("optim.full_fit_s", "s"),
    ("core.stats.ms", "ms"),
    ("core.sample_size.ms", "ms"),
    ("core.sample_size.probes", "count"),
    ("core.coordinator.initial_training_ms", "ms"),
    ("core.coordinator.statistics_ms", "ms"),
    ("core.coordinator.sample_size_search_ms", "ms"),
    ("core.coordinator.final_training_ms", "ms"),
    ("core.coordinator.chosen_n", "count"),
    ("core.coordinator.alloc_bytes", "bytes"),
    ("data.stream.append_ms", "ms"),
    ("data.stream.snapshot_ms", "ms"),
    ("data.wal.append_ms", "ms"),
    ("data.wal.log_bytes", "bytes"),
    ("data.wal.replay_rows_per_s", "rows/s"),
    ("data.wal.recover_s", "s"),
    ("host.threads", "count"),
    ("host.llc_bytes", "bytes"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.canary_ms", "ms"),
    ("host.peak_rss_mb", "MB"),
];

/// Named layer values, in the order they were measured.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(String, f64)>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Operations and exactness checks: both count toward `attempted`, and
/// an operation error or a check mismatch counts as `failed`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// What a workload measured, before host facts are added.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Process CPU time per operation, ms: one entry per operation, or
    /// per slice of the closed loop for the serving workloads.
    pub op_cpu_ms: Vec<f64>,
    /// Reference-kernel CPU times measured during the run (after each
    /// set-up and between timed operations), ms.
    pub ref_ms: Vec<f64>,
    /// Completion instants within the timed window, seconds from its start.
    pub completions: Vec<f64>,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Wall time of each repeated set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Process CPU time of each repeated set-up, seconds.
    pub setup_cpu_s: Vec<f64>,
    pub tally: Tally,
    pub layers: Layers,
    pub extra: Vec<(String, Value)>,
}

impl Measured {
    pub fn extra(&mut self, name: &str, value: Value) {
        self.extra.push((name.to_string(), value));
    }

    /// Keep only the operations of whole `cycle`-long rounds of the
    /// timed loop's seed list (the loop runs at least one round).
    pub fn keep_whole_cycles(&mut self, cycle: usize) {
        let whole = self.op_ms.len() / cycle * cycle;
        self.op_ms.truncate(whole);
        self.op_cpu_ms.truncate(whole);
    }

    /// Record one set-up that began at `start` with the process CPU
    /// clock at `cpu`, then measure the reference kernel.
    pub fn setup(&mut self, start: std::time::Instant, cpu: f64) {
        let wall = start.elapsed();
        self.setup_s.push(wall.as_secs_f64());
        self.setup_cpu_s.push(host::process_cpu_s() - cpu);
        self.ref_ms.extend(calib::measure_after(wall));
    }

    /// Record one timed operation's wall and process CPU time, then
    /// measure the reference kernel.
    pub fn op(&mut self, wall: std::time::Duration, cpu_s: f64) {
        self.op_ms.push(wall.as_secs_f64() * 1e3);
        self.op_cpu_ms.push(cpu_s * 1e3);
        self.ref_ms.extend(calib::measure_after(wall));
    }
}

pub struct Report {
    pub run: Run,
    pub measured: Measured,
    pub canary_ms: [f64; 2],
    pub host: Value,
}

/// Completion windows and the minimum mean completions per window for
/// the window median (see [`completion_rate`]).
const RATE_WINDOWS: usize = 10;
const RATE_MIN_PER_WINDOW: usize = 10;

impl Report {
    /// Add host facts (measured after the workload, so the memcpy
    /// buffers stay out of the workload's peak RSS) and finish the
    /// layer table.
    pub fn finish(
        run: &Run,
        mut measured: Measured,
        canary_before: f64,
        steal_frac: Option<f64>,
    ) -> Report {
        let canary_after = host::canary_ms();
        let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        let llc = host::llc_bytes();
        let buffer = if run.quick {
            8 << 20
        } else {
            host::memcpy_bytes(llc)
        };
        let memcpy_gbps = host::memcpy_gbps(buffer);
        let threads = host::threads();
        let l = &mut measured.layers;
        if let Some(gbps) = l.get("linalg.simd.rows_dot_gbps") {
            l.set("linalg.simd.roofline_frac", gbps / memcpy_gbps);
        }
        l.set("host.threads", threads as f64);
        l.set("host.llc_bytes", llc.unwrap_or(0) as f64);
        l.set("host.memcpy_gbps", memcpy_gbps);
        l.set("host.canary_ms", canary_before.max(canary_after));
        l.set("host.peak_rss_mb", peak_rss_mb);
        let host = json!({
            "threads": threads,
            "llc_bytes": llc.unwrap_or(0),
            "memcpy_gbps": memcpy_gbps,
            "memcpy_buffer_bytes": buffer,
            "peak_rss_mb": peak_rss_mb,
            "steal_frac": steal_frac.map_or(Value::Null, float),
        });
        Report {
            run: run.clone(),
            measured,
            canary_ms: [canary_before, canary_after],
            host,
        }
    }

    pub fn correct(&self) -> bool {
        self.measured.tally.failed == 0 && self.measured.tally.attempted > 0
    }

    /// Every end-to-end number: `(name, unit, value, detail)`. The
    /// result line carries the [`E2E`] ones; the wall-clock latency and
    /// throughput stay in the report.
    pub fn e2e(&self) -> Vec<(&'static str, &'static str, f64, Value)> {
        let m = &self.measured;
        let in_window: Vec<f64> = m
            .completions
            .iter()
            .copied()
            .filter(|&t| t <= m.window_s)
            .collect();
        let wall = summarize(&m.op_ms);
        vec![
            (
                "op_cal_ms",
                "ms",
                calibrated(&m.op_cpu_ms, &m.ref_ms),
                json!({
                    "cpu_median": median(&m.op_cpu_ms),
                    "ref_median": median(&m.ref_ms),
                    "cpu_samples": m.op_cpu_ms,
                    "ref_samples": m.ref_ms,
                }),
            ),
            (
                "setup_s",
                "s",
                calibrated(&m.setup_cpu_s, &m.ref_ms),
                json!({
                    "cpu_samples": m.setup_cpu_s,
                    "wall_samples": m.setup_s,
                }),
            ),
            (
                "op_p50_ms",
                "ms",
                wall.median,
                json!({
                    "tail_label": wall.tail_label,
                    "tail": wall.tail,
                    "samples": wall.samples,
                }),
            ),
            (
                "ops_per_s",
                "1/s",
                completion_rate(&in_window, m.window_s, RATE_WINDOWS, RATE_MIN_PER_WINDOW),
                json!({ "completed": m.completions.len(), "window_s": m.window_s }),
            ),
        ]
    }

    /// The full report as one JSON object.
    pub fn to_json(&self) -> Value {
        let m = &self.measured;
        let e2e = Value::Object(
            self.e2e()
                .into_iter()
                .map(|(name, unit, value, detail)| {
                    let mut entry = vec![
                        ("value".to_string(), float(value)),
                        ("unit".to_string(), json!(unit)),
                    ];
                    entry.extend(detail.as_object().unwrap_or(&[]).iter().cloned());
                    (name.to_string(), Value::Object(entry))
                })
                .collect(),
        );
        let layers = Value::Object(
            m.layers
                .0
                .iter()
                .map(|(name, v)| (name.clone(), float(*v)))
                .collect(),
        );
        let extra = Value::Object(m.extra.clone());
        let (spans, replay_spans) = if self.run.traced {
            (trace::summary(), trace::spans_of(crate::layers::REPLAY_ID))
        } else {
            (Value::Array(Vec::new()), Value::Array(Vec::new()))
        };
        json!({
            "workload": self.run.workload,
            "seed": self.run.seed,
            "seconds": self.run.seconds,
            "traced": self.run.traced,
            "quick": self.run.quick,
            "correct": self.correct(),
            "attempted": m.tally.attempted,
            "failed": m.tally.failed,
            "failures": m.tally.failures,
            "e2e": e2e,
            "canary_ms": self.canary_ms.to_vec(),
            "host": self.host,
            "layers": layers,
            "extra": extra,
            "spans": spans,
            "replay_spans": replay_spans,
        })
    }

    /// The result line (the last stdout line): every end-to-end metric
    /// untraced, every per-layer metric traced. Fails when one is
    /// missing or not finite.
    pub fn result_line(&self) -> Result<String, String> {
        let values: Vec<(&str, &str, f64)> = if self.run.traced {
            LAYERS
                .iter()
                .map(|&(name, unit)| {
                    let v = self.measured.layers.get(name).ok_or(name)?;
                    Ok((name, unit, v))
                })
                .collect::<Result<_, &str>>()
                .map_err(|name| format!("per-layer metric {name} was not measured"))?
        } else {
            let all = self.e2e();
            E2E.iter()
                .map(|&(name, unit)| {
                    let v = all.iter().find(|e| e.0 == name).map_or(f64::NAN, |e| e.2);
                    (name, unit, v)
                })
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, unit, v) in values {
            // End-to-end metrics are times: zero means nothing ran.
            if !v.is_finite() || (!self.run.traced && v <= 0.0) {
                return Err(format!("metric {name} has no valid value ({v})"));
            }
            metrics.push((name.to_string(), json!({ "value": v, "unit": unit })));
        }
        let t = &self.measured.tally;
        Ok(json!({
            "correct": self.correct(),
            "attempted": t.attempted,
            "failed": t.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string())
    }
}

/// An end-to-end value out of a parsed report.
pub fn e2e_value(report: &Value, metric: &str) -> Option<f64> {
    get(get(get(report, "e2e")?, metric)?, "value").and_then(num)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{at, parse, text};

    #[test]
    fn report_json_round_trips_bit_for_bit() {
        let mut m = Measured {
            op_ms: vec![1.5, 2.25, 1.0 / 3.0],
            op_cpu_ms: vec![2.5, 4.25, 2.0 / 3.0],
            ref_ms: vec![10.0, 10.5, 11.0 / 3.0],
            completions: vec![0.1, 0.2, 0.3],
            window_s: 0.5,
            setup_s: vec![0.01, 0.03, 0.02],
            setup_cpu_s: vec![0.02, 0.05, 0.04],
            ..Measured::default()
        };
        m.tally.check(true, String::new);
        m.layers.set("linalg.eigen.ms", 1.0 / 7.0);
        m.extra("note", json!("kept"));
        let run = Run {
            workload: "train-tall".into(),
            seed: 7,
            seconds: 0.5,
            traced: false,
            quick: true,
        };
        let report = Report::finish(&run, m, 50.0, None);
        let back = parse(&report.to_json().to_string()).unwrap();
        for (name, _, v, _) in report.e2e() {
            assert_eq!(e2e_value(&back, name).map(f64::to_bits), Some(v.to_bits()));
        }
        // The operation median (2.5 ms) over the reference median (10 ms),
        // in units of the nominal reference time.
        let cal = e2e_value(&back, "op_cal_ms").unwrap();
        assert!((cal - 2.5 * calib::NOMINAL_MS / 10.0).abs() < 1e-12);
        let eigen = at(&back, &["layers", "linalg.eigen.ms"]).and_then(num);
        assert_eq!(eigen.map(f64::to_bits), Some((1.0f64 / 7.0).to_bits()));
        assert_eq!(at(&back, &["extra", "note"]).and_then(text), Some("kept"));
        assert_eq!(
            at(&back, &["e2e", "op_p50_ms", "samples"]).and_then(num),
            Some(3.0)
        );

        let line = parse(&report.result_line().unwrap()).unwrap();
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
        assert_eq!(get(&line, "attempted").and_then(num), Some(1.0));
        let names: Vec<&str> = get(&line, "metrics")
            .and_then(Value::as_object)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["op_cal_ms", "setup_s"]);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            get(&bench, key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| get(m, k).and_then(text).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&E2E));
        assert_eq!(listed("per_layer"), own(&LAYERS));
        let workloads: Vec<String> = get(&bench, "workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| get(w, "name").and_then(text).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }
}
