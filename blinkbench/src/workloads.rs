//! The five workloads. Each builds its inputs (fixed datasets; call
//! seeds or a query stream from the run seed), sets up its entry point
//! several times (the median is `setup_s`), warms up, runs its timed
//! loop for the run's seconds (`ingest-serve`: for a query budget sized
//! to them), and then runs its exactness gates outside the timed loop. Every workload runs the library's kernels on one
//! thread (`ExecConfig::sequential`); see `README.md`, "Noise". Traced
//! runs add the layer replay and the ingest probe.
//!
//! | workload | loop | stresses |
//! |---|---|---|
//! | `train-tall` | `Coordinator::train_with_holdout`, dense logistic 1M × 50 | final fit + search (n ≪ N) |
//! | `train-wide` | the same, sparse maxent K = 5, D = 1000 | statistics (eigen at order n₀) |
//! | `sweep-grid` | `Session::sweep`, 12-point λ grid | the fused multi-λ kernel |
//! | `serve-zipf` | `Server` over 2 static shards, Zipf mix | admission, queue, pilot cache |
//! | `ingest-serve` | `Server` over a durable stream with appends | WAL, epochs, drift ladder |

use crate::layers::{replay, stream_probe, Replayed};
use crate::report::{Layers, Measured, Report};
use crate::stats::{median, ms};
use crate::{host, serve, trace};
use blinkml_core::models::{LogisticRegressionSpec, MaxEntSpec};
use blinkml_core::{
    BlinkMlConfig, Coordinator, ExecConfig, ModelClassSpec, Session, TrainingOutcome,
    TrainingPhaseTimes,
};
use blinkml_data::generators::{synthetic_logistic, yelp_like};
use blinkml_data::{Dataset, FeatureVec, WalRow};
use blinkml_prob::split_seed;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] = [
    "train-tall",
    "train-wide",
    "sweep-grid",
    "serve-zipf",
    "ingest-serve",
];

/// One invocation: which workload, its seed, how long the timed loop
/// runs, whether spans and the layer replay are on, and whether to use
/// toy input sizes (`--quick`, for tests).
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

impl Run {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Whether to run another set-up, given the wall times (s) of those
    /// run so far: at least five, and more, up to fifteen, until 1.5 s
    /// have gone to set-ups, since the median of a cheap set-up needs
    /// more samples.
    pub fn more_setups(&self, done: &[f64]) -> bool {
        let (least, most, budget) = if self.quick {
            (2, 2, 0.0)
        } else {
            (5, 15, 1.5)
        };
        done.len() < least || (done.len() < most && done.iter().sum::<f64>() < budget)
    }
}

/// Seed of every generated dataset. The data is the same on every run;
/// the run seed picks the call seeds and the query stream, so runs with
/// different seeds do comparable work.
pub const DATA_SEED: u64 = 0xB11A_4D5E;

/// A per-process scratch directory inside the working directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".blinkbench_tmp").join(format!("{tag}-{}", std::process::id()))
}

pub fn run(run: &Run) -> Result<Report, String> {
    let canary_before = host::canary_ms();
    let ticks_before = host::cpu_ticks();
    if run.traced {
        trace::enable();
    }
    let measured = match run.workload.as_str() {
        "train-tall" => train_tall(run)?,
        "train-wide" => train_wide(run)?,
        "sweep-grid" => sweep_grid(run)?,
        "serve-zipf" => serve::serve_zipf(run)?,
        "ingest-serve" => serve::ingest_serve(run)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let steal = host::steal_frac(ticks_before, host::cpu_ticks());
    Ok(Report::finish(run, measured, canary_before, steal))
}

/// The coordinator configuration every workload starts from. Kernels
/// run on one thread: on a guest with two shared CPUs, two kernel
/// threads per call cost about 20% more CPU and took longer in wall time
/// than one, and their cost swung with the neighbours' load.
pub fn config(n0: usize, holdout: usize, k: usize, epsilon: f64) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: holdout,
        num_param_samples: k,
        exec: ExecConfig::sequential(),
        ..BlinkMlConfig::default()
    }
}

/// Split the last `holdout` rows off a generated dataset without
/// copying (generated rows are i.i.d., so the tail is a fair holdout).
pub fn split_tail<F: FeatureVec>(data: Dataset<F>, holdout: usize) -> (Dataset<F>, Dataset<F>) {
    let (name, dim) = (data.name().to_string(), data.dim());
    let mut rows = data.into_examples();
    let held = rows.split_off(rows.len() - holdout);
    (
        Dataset::new(name.clone(), dim, rows),
        Dataset::new(name, dim, held),
    )
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of two outcomes: θ, ε₀, ε̂ and the chosen n.
pub fn same_outcome(a: &TrainingOutcome, b: &TrainingOutcome) -> bool {
    a.sample_size == b.sample_size
        && a.initial_epsilon.to_bits() == b.initial_epsilon.to_bits()
        && a.estimated_epsilon.to_bits() == b.estimated_epsilon.to_bits()
        && same_bits(a.model.parameters(), b.model.parameters())
}

/// Coordinator-phase samples over a workload's operations. A phase is
/// sampled only by operations that ran it (a cached pilot skips the
/// first two; a pilot that meets the contract skips the final fit).
#[derive(Debug, Default)]
pub struct Phases {
    samples: [Vec<f64>; 4],
    chosen_n: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

/// Phase metric names and the replay's time for the same work (the
/// fallback when no operation in the run sampled the phase).
const PHASES: [(&str, &str); 4] = [
    (
        "core.coordinator.initial_training_ms",
        "replay.initial_training_ms",
    ),
    ("core.coordinator.statistics_ms", "core.stats.ms"),
    (
        "core.coordinator.sample_size_search_ms",
        "core.sample_size.ms",
    ),
    (
        "core.coordinator.final_training_ms",
        "replay.final_training_ms",
    ),
];

/// An outcome's four phase times in ms, in [`PHASES`] order.
fn phase_ms(p: &TrainingPhaseTimes) -> [f64; 4] {
    [
        p.initial_training,
        p.statistics,
        p.sample_size_search,
        p.final_training,
    ]
    .map(ms)
}

impl Phases {
    pub fn record(&mut self, outcome: &TrainingOutcome) {
        for (samples, t) in self.samples.iter_mut().zip(phase_ms(&outcome.phases)) {
            if t > 0.0 {
                samples.push(t);
            }
        }
        self.chosen_n.push(outcome.sample_size as f64);
    }

    /// How far an outcome's phases sit from the phase medians: the sum
    /// of |ln(time / median)| over the phases it ran.
    fn distance(&self, outcome: &TrainingOutcome) -> f64 {
        phase_ms(&outcome.phases)
            .iter()
            .zip(self.medians())
            .filter_map(|(&t, med)| Some((t / med.filter(|_| t > 0.0)?).ln().abs()))
            .sum()
    }

    pub fn alloc(&mut self, bytes: u64) {
        self.alloc_bytes.push(bytes as f64);
    }

    /// Phase medians as the workload's `core.coordinator.*` metrics;
    /// call after the replay filled its own layers.
    pub fn finish(&self, layers: &mut Layers) -> Value {
        let mut counts = Vec::new();
        for ((name, fallback), samples) in PHASES.iter().zip(&self.samples) {
            let value = if samples.is_empty() {
                layers.get(fallback).unwrap_or(0.0)
            } else {
                median(samples)
            };
            layers.set(name, value);
            counts.push(samples.len());
        }
        layers.set("core.coordinator.chosen_n", median(&self.chosen_n));
        layers.set("core.coordinator.alloc_bytes", median(&self.alloc_bytes));
        json!(counts)
    }

    /// The per-phase medians in replay order, for the replay check.
    fn medians(&self) -> [Option<f64>; 4] {
        std::array::from_fn(|i| (!self.samples[i].is_empty()).then(|| median(&self.samples[i])))
    }
}

/// Each replay phase time over the matching coordinator phase time in
/// `base` (`null` where the coordinator did not run the phase).
fn replay_ratios(base: [Option<f64>; 4], layers: &Layers) -> Value {
    Value::Object(
        PHASES
            .iter()
            .zip(base)
            .map(|((name, step), base)| {
                let ratio = match (layers.get(step), base) {
                    (Some(r), Some(b)) if b > 0.0 => crate::json::float(r / b),
                    _ => Value::Null,
                };
                (name.to_string(), ratio)
            })
            .collect(),
    )
}

/// The traced-only tail every workload shares: the layer replay at
/// `seed`, the ingest probe, and the coordinator-phase table. Returns
/// the replay's final fit for the caller's comparison.
pub fn trace_layers<F, S>(
    spec: &S,
    train: &Dataset<F>,
    holdout: &Dataset<F>,
    config: &BlinkMlConfig,
    seed: u64,
    phases: &Phases,
    m: &mut Measured,
) -> Result<Replayed, String>
where
    F: FeatureVec + WalRow,
    S: ModelClassSpec<F> + ?Sized,
{
    let replayed = replay(spec, train, holdout, config, seed, &mut m.layers)?;
    stream_probe(
        spec,
        train,
        holdout,
        &scratch_dir("probe"),
        &mut m.layers,
        &mut m.tally,
    )?;
    let counts = phases.finish(&mut m.layers);
    m.extra("phase_samples", counts);
    m.extra(
        "replay_vs_phase",
        replay_ratios(phases.medians(), &m.layers),
    );
    m.extra("replay_seed", json!(seed));
    Ok(replayed)
}

// ---------------------------------------------------------------------
// train-tall / train-wide
// ---------------------------------------------------------------------

fn train_tall(run: &Run) -> Result<Measured, String> {
    let (n, d, holdout, n0, k, eps) = if run.quick {
        (20_000, 10, 1_000, 300, 16, 0.05)
    } else {
        (1_000_000, 50, 2_000, 1_000, 100, 0.02)
    };
    train_workload(
        run,
        LogisticRegressionSpec::new(1e-3),
        config(n0, holdout, k, eps),
        32,
        || {
            let (data, _) = synthetic_logistic(n + holdout, d, 2.0, split_seed(DATA_SEED, 1));
            split_tail(data, holdout)
        },
    )
}

fn train_wide(run: &Run) -> Result<Measured, String> {
    let (n, d, holdout, n0, k, eps) = if run.quick {
        (3_000, 100, 500, 150, 16, 0.1)
    } else {
        (45_000, 1_000, 2_000, 500, 100, 0.05)
    };
    train_workload(
        run,
        MaxEntSpec::new(1e-3, 5),
        config(n0, holdout, k, eps),
        4,
        || split_tail(yelp_like(n + holdout, d, split_seed(DATA_SEED, 1)), holdout),
    )
}

struct Call {
    seed: u64,
    outcome: TrainingOutcome,
}

/// The training loop over a list of `seeds` call seeds derived from the
/// run seed, walked in order and cycled until the window closes. Only
/// whole cycles count toward the end-to-end numbers, so every run
/// weighs each seed the same however many calls it completed.
fn train_workload<F, S>(
    run: &Run,
    spec: S,
    config: BlinkMlConfig,
    seeds: u64,
    inputs: impl Fn() -> (Dataset<F>, Dataset<F>),
) -> Result<Measured, String>
where
    F: FeatureVec + WalRow,
    S: ModelClassSpec<F>,
{
    let mut m = Measured::default();

    // Set-up: build the inputs and the coordinator; keep the last copy.
    let mut built = None;
    while run.more_setups(&m.setup_s) {
        drop(built.take());
        let (start, cpu) = (Instant::now(), host::process_cpu_s());
        let (train, holdout) = inputs();
        let coordinator = Coordinator::new(config.clone());
        m.setup(start, cpu);
        built = Some((train, holdout, coordinator));
    }
    let (train, holdout, coordinator) = built.expect("at least one set-up");
    let call = |seed: u64| coordinator.train_with_holdout(&spec, &train, &holdout, seed);

    // Warm-up on a seed outside the timed list.
    m.tally
        .op("warm-up call", call(split_seed(run.seed, 999)))
        .ok_or("warm-up call failed")?;

    let seeds: Vec<u64> = (0..seeds)
        .map(|i| split_seed(run.seed, 1_000 + i))
        .collect();
    let mut calls: Vec<Call> = Vec::new();
    let mut phases = Phases::default();
    let start = Instant::now();
    let mut i = 0usize;
    // At least one cycle, and two calls for the exactness gate.
    while i < seeds.len().max(2) || start.elapsed() < run.window() {
        let seed = seeds[i % seeds.len()];
        let (before, cpu) = (trace::allocated(), host::process_cpu_s());
        let (result, t) = trace::timed("core.coordinator.train_with_holdout", i as u64, || {
            call(seed)
        });
        let cpu = host::process_cpu_s() - cpu;
        let allocated = trace::allocated() - before;
        m.completions.push(start.elapsed().as_secs_f64());
        m.op(t, cpu);
        if let Some(outcome) = m.tally.op("train_with_holdout", result) {
            phases.record(&outcome);
            phases.alloc(allocated);
            calls.push(Call { seed, outcome });
        }
        i += 1;
    }
    m.window_s = start.elapsed().as_secs_f64();
    m.keep_whole_cycles(seeds.len());

    // Exactness: the first two seeds again, bit for bit.
    for c in calls.iter().take(2) {
        if let Some(again) = m.tally.op("re-run", call(c.seed)) {
            m.tally.check(same_outcome(&c.outcome, &again), || {
                format!("seed {:#x}: re-run differs from the timed call", c.seed)
            });
        }
    }

    // The replay reproduces the most typical call: the one whose phase
    // times sit closest to the phase medians.
    let typical = calls.iter().min_by(|a, b| {
        let (da, db) = (phases.distance(&a.outcome), phases.distance(&b.outcome));
        da.total_cmp(&db)
    });
    if let (true, Some(mid)) = (run.traced, typical) {
        let replayed = trace_layers(&spec, &train, &holdout, &config, mid.seed, &phases, &mut m)?;
        // Samples drawn by `Dataset::sample` and by the coordinator's
        // zero-copy views are the same rows, so a call that trained a
        // final model is reproduced bit for bit by the replay.
        let out = &mid.outcome;
        let own = phase_ms(&out.phases).map(|t| (t > 0.0).then_some(t));
        m.extra(
            "replayed_call",
            json!({
                "n": out.sample_size,
                "probes": out.search_probes,
                "phase_ms": phase_ms(&out.phases).to_vec(),
                "replay_vs_call": replay_ratios(own, &m.layers),
            }),
        );
        if !out.used_initial_model {
            m.tally.check(
                replayed.n == out.sample_size && same_bits(&replayed.theta, out.model.parameters()),
                || "layer replay differs from the call it replays".into(),
            );
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------
// sweep-grid
// ---------------------------------------------------------------------

/// Sweep seeds, cycled like the training loop's (see `train_workload`).
const SWEEP_SEEDS: u64 = 4;
const GRID_POINTS: usize = 12;

/// `GRID_POINTS` λ values log-spaced over [1e-6, 1].
fn lambda_grid() -> Vec<f64> {
    (0..GRID_POINTS)
        .map(|i| 10f64.powf(-6.0 + 6.0 * i as f64 / (GRID_POINTS - 1) as f64))
        .collect()
}

fn sweep_grid(run: &Run) -> Result<Measured, String> {
    let (n, d, holdout, n0, k, eps) = if run.quick {
        (6_000, 10, 600, 300, 16, 0.05)
    } else {
        (50_000, 100, 2_000, 1_000, 100, 0.02)
    };
    let delta = 0.05;
    let cfg = config(n0, holdout, k, eps);
    let spec = LogisticRegressionSpec::new(1e-3);
    let lambdas = lambda_grid();
    let mut m = Measured::default();
    let inputs = || {
        let (data, _) = synthetic_logistic(n + holdout, d, 2.0, split_seed(DATA_SEED, 1));
        split_tail(data, holdout)
    };

    // Set-up: inputs plus `Session::new` (validation and the pool matrix).
    let mut built = None;
    while run.more_setups(&m.setup_s) {
        drop(built.take());
        let (start, cpu) = (Instant::now(), host::process_cpu_s());
        let (train, holdout) = inputs();
        let session = Session::new(cfg.clone(), &spec, &train, &holdout);
        let ok = session.is_ok();
        drop(session);
        m.setup(start, cpu);
        if !ok {
            return Err("Session::new rejected the sweep inputs".into());
        }
        built = Some((train, holdout));
    }
    let (train, holdout) = built.expect("at least one set-up");
    let session = Session::new(cfg.clone(), &spec, &train, &holdout).map_err(|e| e.to_string())?;

    m.tally
        .op(
            "warm-up sweep",
            session.sweep(&lambdas, eps, delta, split_seed(run.seed, 999)),
        )
        .ok_or("warm-up sweep failed")?;

    let seeds: Vec<u64> = (0..SWEEP_SEEDS)
        .map(|i| split_seed(run.seed, 1_000 + i))
        .collect();
    let mut first = None;
    let mut sweeps: Vec<(u64, f64)> = Vec::new();
    let mut phases = Phases::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < SWEEP_SEEDS as usize || start.elapsed() < run.window() {
        let seed = seeds[i % seeds.len()];
        let (before, cpu) = (trace::allocated(), host::process_cpu_s());
        let (result, t) = trace::timed("core.session.sweep", i as u64, || {
            session.sweep(&lambdas, eps, delta, seed)
        });
        let cpu = host::process_cpu_s() - cpu;
        let allocated = trace::allocated() - before;
        m.completions.push(start.elapsed().as_secs_f64());
        m.op(t, cpu);
        if let Some(result) = m.tally.op("Session::sweep", result) {
            // Phase times of a fused sweep are stage totals shared by
            // every point; one point carries them.
            phases.record(&result.points[0].outcome);
            for p in &result.points[1..] {
                phases.chosen_n.push(p.outcome.sample_size as f64);
            }
            phases.alloc(allocated);
            sweeps.push((seed, ms(t)));
            if first.is_none() {
                first = Some(result);
            }
        }
        i += 1;
    }
    m.window_s = start.elapsed().as_secs_f64();
    m.keep_whole_cycles(seeds.len());
    let first = first.ok_or("no sweep completed")?;

    // Exactness: the first sweep, point by point, against solo
    // `Session::train` runs on a spec carrying that point's λ.
    let mut looped = Duration::ZERO;
    for (point, &lambda) in first.points.iter().zip(&lambdas) {
        let solo_spec = spec
            .with_regularization(lambda)
            .ok_or("logistic regression has a swappable λ")?;
        let solo =
            Session::new(cfg.clone(), &*solo_spec, &train, &holdout).map_err(|e| e.to_string())?;
        let (result, t) = trace::timed("core.session.train", u64::MAX - 1, || {
            solo.train(eps, delta, seeds[0])
        });
        looped += t;
        if let Some(solo) = m.tally.op("solo Session::train", result) {
            m.tally.check(same_outcome(&point.outcome, &solo), || {
                format!("sweep point λ = {lambda:e} differs from its solo run")
            });
        }
    }
    let first_ms = sweeps[0].1;
    m.extra(
        "core.sweep",
        json!({
            "ms_per_point": median(&m.op_ms) / GRID_POINTS as f64,
            "fused_vs_looped": ms(looped) / first_ms,
            "looped_ms": ms(looped),
            "fused_ms": first_ms,
            "fused": first.fused,
        }),
    );

    if run.traced {
        let mut by_time = sweeps.clone();
        by_time.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mid_seed = by_time[by_time.len() / 2].0;
        // Replay the middle grid point of the median sweep.
        let mid = GRID_POINTS / 2;
        let mid_spec = spec
            .with_regularization(lambdas[mid])
            .ok_or("logistic regression has a swappable λ")?;
        trace_layers(
            &*mid_spec, &train, &holdout, &cfg, mid_seed, &phases, &mut m,
        )?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get, num, parse};
    use crate::report::{E2E, LAYERS};

    /// Every workload at toy sizes, traced: the gates pass and both
    /// result lines carry every metric.
    #[test]
    fn quick_runs_of_all_five_workloads_pass_their_gates() {
        for workload in WORKLOADS {
            let mut report = run(&Run {
                workload: workload.to_string(),
                seed: 3,
                seconds: 0.3,
                traced: true,
                quick: true,
            })
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
            let t = &report.measured.tally;
            assert!(report.correct(), "{workload}: {:?}", t.failures);
            assert!(t.attempted >= 3, "{workload}: ops and checks counted");
            let line = parse(&report.result_line().expect("per-layer line")).unwrap();
            let metrics = get(&line, "metrics").unwrap();
            for (name, _) in LAYERS {
                assert!(get(metrics, name).is_some(), "{workload}: {name} missing");
            }
            report.run.traced = false;
            let line = parse(&report.result_line().expect("end-to-end line")).unwrap();
            let metrics = get(&line, "metrics").unwrap();
            for (name, _) in E2E {
                let v = get(metrics, name)
                    .and_then(|m| get(m, "value"))
                    .and_then(num);
                assert!(v.is_some_and(|v| v > 0.0), "{workload}: {name} = {v:?}");
            }
        }
    }

    #[test]
    fn lambda_grid_spans_six_decades() {
        let g = lambda_grid();
        assert_eq!(g.len(), GRID_POINTS);
        assert!((g[0] - 1e-6).abs() < 1e-18);
        assert!((g[GRID_POINTS - 1] - 1.0).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn split_tail_keeps_every_row_once() {
        let (data, _) = synthetic_logistic(50, 3, 2.0, 1);
        let last = data.get(49).x.clone();
        let (train, holdout) = split_tail(data, 10);
        assert_eq!((train.len(), holdout.len()), (40, 10));
        assert_eq!(holdout.get(9).x, last);
    }
}
