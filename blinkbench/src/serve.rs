//! The two serving workloads: `serve-zipf` (read-only, two static
//! shards) and `ingest-serve` (a durable stream appended to while it
//! serves). Load comes from one generator thread keeping a fixed number
//! of queries outstanding (a closed loop); each query is timed from
//! submit until `wait()` returns. The server runs one worker, which
//! keeps the generator, the worker and the reference kernel within the
//! guest's two CPUs.

use crate::report::{Measured, Tally};
use crate::stats::{median, summarize, XorShift};
use crate::workloads::{
    config, same_bits, same_outcome, scratch_dir, split_tail, trace_layers, Phases, Run, DATA_SEED,
};
use crate::{calib, host, trace};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::serve::{DatasetShard, Query, ServeError, ServedResponse, Server, StreamShard};
use blinkml_core::{
    BlinkMlConfig, Coordinator, CoreError, DegradationRung, ServeConfig, ServerStats,
    TrainingOutcome,
};
use blinkml_data::generators::synthetic_logistic;
use blinkml_data::{
    Dataset, DenseVec, DurableOptions, Example, IngestPolicy, LabelDomain, StreamingPool,
};
use blinkml_prob::split_seed;
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries the generator keeps in flight.
const OUTSTANDING: usize = 4;
/// Length of one slice of a timed loop, in time or in queries: the loop
/// drains and measures the reference kernel between slices.
const SLICE: Duration = Duration::from_millis(500);
const SLICE_QUERIES: usize = 64;
const EPSILONS: [f64; 4] = [0.30, 0.20, 0.14, 0.10];
const ZIPF_S: f64 = 1.1;
const DELTA: f64 = 0.05;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Shapes `(rows, dim, holdout, n₀, k)` of one served dataset.
fn shape(run: &Run) -> (usize, usize, usize, usize, usize) {
    if run.quick {
        (3_000, 8, 400, 200, 16)
    } else {
        (30_000, 20, 2_000, 1_000, 32)
    }
}

/// A stream of Zipf(`s`) ranks over `0..k` (rank 0 hottest): a
/// golden-ratio sequence started at a seeded point, through the inverse
/// of the Zipf distribution function. Every stretch of the stream
/// carries the Zipf mix almost exactly, so streams from different seeds
/// differ in order but not in mix; independent draws would change how
/// often the costly rare queries come up from run to run.
struct ZipfStream {
    cdf: Vec<f64>,
    u: f64,
}

/// The fractional part of the golden ratio.
const GOLDEN: f64 = 0.618_033_988_749_894_8;

impl ZipfStream {
    fn new(k: usize, s: f64, seed: u64) -> Self {
        let mut acc = 0.0;
        let weights: Vec<f64> = (1..=k)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        ZipfStream {
            cdf: weights.iter().map(|w| w / acc).collect(),
            u: XorShift::new(seed).next_f64(),
        }
    }

    fn next(&mut self) -> usize {
        self.u = (self.u + GOLDEN).fract();
        let u = self.u;
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Archetypes: `datasets` × ε targets × `seeds` sampling seeds.
fn archetypes(datasets: &[u64], seeds: u64) -> Vec<Query> {
    datasets
        .iter()
        .flat_map(|&v| {
            EPSILONS
                .iter()
                .flat_map(move |&e| (0..seeds).map(move |s| Query::new(v, e, DELTA, s)))
        })
        .collect()
}

/// One resolved query as the generator saw it.
struct Done {
    archetype: usize,
    query: Query,
    /// Submit → `wait()` returned, ms.
    gen_ms: f64,
    /// Seconds since the loop started.
    at: f64,
    result: Result<ServedResponse, ServeError>,
}

/// Keep [`OUTSTANDING`] queries in flight from this thread until `next`
/// returns `None`, then drain. Responses are collected oldest first.
/// Query span ids continue from `ids`.
fn closed_loop(
    server: &Server,
    start: Instant,
    ids: &mut u64,
    mut next: impl FnMut() -> Option<(usize, Query)>,
    mut done: impl FnMut(Done),
) {
    let mut inflight = VecDeque::new();
    let mut open = true;
    loop {
        while open && inflight.len() < OUTSTANDING {
            let Some((archetype, query)) = next() else {
                open = false;
                break;
            };
            let submitted = Instant::now();
            let handle = {
                let _span = trace::span("core.serve.submit", *ids);
                server.submit(query)
            };
            inflight.push_back((*ids, archetype, query, submitted, handle));
            *ids += 1;
        }
        let Some((id, archetype, query, submitted, handle)) = inflight.pop_front() else {
            break;
        };
        let result = handle.and_then(|h| {
            let _span = trace::span("core.serve.wait", id);
            h.wait()
        });
        done(Done {
            archetype,
            query,
            gen_ms: submitted.elapsed().as_secs_f64() * 1e3,
            at: start.elapsed().as_secs_f64(),
            result,
        });
    }
}

/// How long a timed loop runs: for a stretch of wall time from its
/// start, or for a number of queries.
#[derive(Clone, Copy)]
enum Budget {
    Time(Duration),
    Queries(usize),
}

/// The timed loop: [`closed_loop`] in slices of [`SLICE`] (a time
/// budget) or [`SLICE_QUERIES`] queries (a query budget) until the
/// budget is spent. Returns the process CPU milliseconds per completed
/// query of each slice, and the reference kernel's times measured after
/// each slice, once the slice has drained.
fn sliced_loop(
    server: &Server,
    start: Instant,
    budget: Budget,
    mut next: impl FnMut() -> (usize, Query),
    mut done: impl FnMut(Done),
) -> (Vec<f64>, Vec<f64>) {
    let (mut per_query, mut reference) = (Vec::new(), Vec::new());
    let mut submitted = 0usize;
    let left = |submitted: usize| match budget {
        Budget::Time(window) => start.elapsed() < window,
        Budget::Queries(n) => submitted < n,
    };
    let mut ids = 0u64;
    while left(submitted) {
        let (cpu, began) = (host::process_cpu_s(), Instant::now());
        let slice_end = submitted + SLICE_QUERIES;
        let mut completed = 0usize;
        closed_loop(
            server,
            start,
            &mut ids,
            || {
                let open = left(submitted)
                    && match budget {
                        Budget::Time(_) => began.elapsed() < SLICE,
                        Budget::Queries(_) => submitted < slice_end,
                    };
                open.then(|| {
                    submitted += 1;
                    next()
                })
            },
            |d| {
                completed += 1;
                done(d);
            },
        );
        if completed > 0 {
            per_query.push((host::process_cpu_s() - cpu) * 1e3 / completed as f64);
            reference.extend(calib::measure_after(began.elapsed()));
        }
    }
    (per_query, reference)
}

/// Serve-layer numbers over the timed window.
#[derive(Default)]
struct Traffic {
    server_ms: Vec<f64>,
    rungs: [u64; 4],
    /// Generator latency and archetype of each completed query.
    by_query: Vec<(f64, usize)>,
}

impl Traffic {
    fn record(&mut self, d: &Done, response: &ServedResponse) {
        self.server_ms.push(response.latency.as_secs_f64() * 1e3);
        self.by_query.push((d.gen_ms, d.archetype));
        self.rungs[match response.rung {
            DegradationRung::Full => 0,
            DegradationRung::RelaxedFinal => 1,
            DegradationRung::Pilot => 2,
            DegradationRung::StalePilot => 3,
        }] += 1;
    }

    /// The archetype of the median-latency query.
    fn median_archetype(&self) -> usize {
        let mut v = self.by_query.clone();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.get(v.len() / 2).map_or(0, |q| q.1)
    }

    /// The serve-layer table; `gen_ms` are the generator-side latencies.
    fn to_json(&self, gen_ms: &[f64], before: &ServerStats, after: &ServerStats) -> Value {
        let d = |f: fn(&ServerStats) -> u64| f(after) - f(before);
        let hits = d(|s| s.cache_hits);
        let trains = d(|s| s.pilot_trains);
        let waits = d(|s| s.coalesced_waits);
        let tail = summarize(gen_ms);
        json!({
            "cache_hit_ratio": hits as f64 / (hits + trains + waits).max(1) as f64,
            "pilot_trains": trains,
            "coalesced_waits": waits,
            "evictions": d(|s| s.evictions),
            "server_latency_p50_ms": median(&self.server_ms),
            "handoff_ms": median(gen_ms) - median(&self.server_ms),
            "tail_label": tail.tail_label,
            "tail_ms": tail.tail,
            "rung_full": self.rungs[0],
            "rung_relaxed": self.rungs[1],
            "rung_pilot": self.rungs[2],
            "rung_stale_pilot": self.rungs[3],
            "drift_fresh": d(|s| s.drift_fresh),
            "drift_stale": d(|s| s.drift_stale_served),
            "drift_retrain": d(|s| s.drift_retrains),
        })
    }
}

/// The base configuration with query `q`'s contract.
fn query_config(cfg: &BlinkMlConfig, q: &Query) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon: q.epsilon,
        delta: q.delta,
        ..cfg.clone()
    }
}

/// The cold-coordinator oracle for one query against one dataset.
fn oracle(
    cfg: &BlinkMlConfig,
    q: &Query,
    train: &Dataset<DenseVec>,
    holdout: &Dataset<DenseVec>,
) -> Result<TrainingOutcome, CoreError> {
    Coordinator::new(query_config(cfg, q)).train_with_holdout(
        &LogisticRegressionSpec::new(1e-3),
        train,
        holdout,
        q.seed,
    )
}

/// Serve each archetype once, in order: fills the pilot cache. Returns
/// the first response per archetype.
fn warm_up(
    server: &Server,
    archetypes: &[Query],
    tally: &mut Tally,
    phases: &mut Phases,
) -> Vec<Option<ServedResponse>> {
    let mut first = vec![None; archetypes.len()];
    let mut order = archetypes.iter().copied().enumerate();
    closed_loop(
        server,
        Instant::now(),
        &mut 0,
        || order.next(),
        |d| {
            if let Some(r) = tally.op("warm-up query", d.result) {
                phases.record(&r.outcome);
                first[d.archetype] = Some(r);
            }
        },
    );
    first
}

// ---------------------------------------------------------------------
// serve-zipf
// ---------------------------------------------------------------------

pub fn serve_zipf(run: &Run) -> Result<Measured, String> {
    let (n, d, holdout, n0, k) = shape(run);
    let cfg = config(n0, holdout, k, EPSILONS[0]);
    let spec = LogisticRegressionSpec::new(1e-3);
    let archetypes = archetypes(&[1, 2], 4);
    let mut m = Measured::default();
    let shards = || -> Vec<DatasetShard<DenseVec>> {
        (1..=2u64)
            .map(|v| {
                let (data, _) = synthetic_logistic(n + holdout, d, 2.0, split_seed(DATA_SEED, v));
                let (train, held) = split_tail(data, holdout);
                DatasetShard::new(v, train, held)
            })
            .collect()
    };

    // Set-up: inputs, `Server::spawn`, and the first answer (the owner
    // thread builds the pool matrices after `spawn` returns).
    let mut built: Option<(Server, Vec<DatasetShard<DenseVec>>)> = None;
    while run.more_setups(&m.setup_s) {
        if let Some((server, _)) = built.take() {
            server.shutdown();
        }
        let (start, cpu) = (Instant::now(), host::process_cpu_s());
        let shards = shards();
        let server = Server::spawn(cfg.clone(), serve_config(), spec.clone(), shards.clone())
            .map_err(|e| e.to_string())?;
        m.tally
            .op("first query", server.query(archetypes[0]))
            .ok_or("first query failed")?;
        m.setup(start, cpu);
        built = Some((server, shards));
    }
    let (server, shards) = built.expect("at least one set-up");

    let mut phases = Phases::default();
    let first = warm_up(&server, &archetypes, &mut m.tally, &mut phases);

    let mut zipf = ZipfStream::new(archetypes.len(), ZIPF_S, split_seed(run.seed, 7));
    let mut traffic = Traffic::default();
    let stats_before = server.stats();
    let alloc_before = trace::allocated();
    let start = Instant::now();
    let window = run.window();
    let (per_query, reference) = sliced_loop(
        &server,
        start,
        Budget::Time(window),
        || {
            let a = zipf.next();
            (a, archetypes[a])
        },
        |done| {
            m.op_ms.push(done.gen_ms);
            m.completions.push(done.at);
            if let Ok(r) = &done.result {
                traffic.record(&done, r);
                phases.record(&r.outcome);
            }
            m.tally.op("query", done.result.map(|_| ()));
        },
    );
    m.op_cpu_ms = per_query;
    m.ref_ms.extend(reference);
    m.window_s = window.as_secs_f64();
    let ops = traffic.server_ms.len().max(1) as u64;
    phases.alloc((trace::allocated() - alloc_before) / ops);
    let stats_after = server.stats();
    let serve_layer = traffic.to_json(&m.op_ms, &stats_before, &stats_after);
    m.extra("core.serve", serve_layer);

    // Exactness: the first response per archetype against a cold
    // coordinator on the same shard.
    for (a, response) in first.iter().enumerate() {
        let q = &archetypes[a];
        let shard = &shards[(q.dataset - 1) as usize];
        let Some(response) = response else { continue };
        if let Some(cold) = m
            .tally
            .op("oracle", oracle(&cfg, q, &shard.train, &shard.holdout))
        {
            m.tally.check(same_outcome(&response.outcome, &cold), || {
                format!("archetype {a}: served response differs from a cold coordinator")
            });
        }
    }

    if run.traced {
        let a = traffic.median_archetype();
        let q = archetypes[a];
        let shard = &shards[(q.dataset - 1) as usize];
        let replayed = trace_layers(
            &spec,
            &shard.train,
            &shard.holdout,
            &query_config(&cfg, &q),
            q.seed,
            &phases,
            &mut m,
        )?;
        if let Some(r) = &first[a] {
            if !r.outcome.used_initial_model {
                m.tally.check(
                    replayed.n == r.outcome.sample_size
                        && same_bits(&replayed.theta, r.outcome.model.parameters()),
                    || "layer replay differs from the served response".into(),
                );
            }
        }
    }
    server.shutdown();
    Ok(m)
}

// ---------------------------------------------------------------------
// ingest-serve
// ---------------------------------------------------------------------

/// Ingest schedule `(train rows, holdout rows, train every, holdout
/// every)`: a train block after every `train every` completed queries
/// and a holdout block after every `holdout every`. Tied to completions,
/// the pool grows along the same path in every run, so the n-th query
/// does the same work however fast the host is.
fn ingest_shape(run: &Run) -> (usize, usize, usize, usize) {
    if run.quick {
        (100, 20, 5, 20)
    } else {
        (1_000, 200, 50, 200)
    }
}

/// Queries one `ingest-serve` run serves per second of `--seconds`: about
/// the rate of the host `README.md` describes, so the loop takes a little
/// under `--seconds` there. A query budget rather than a time window keeps
/// every run on the same stretch of the pool's growth: each query costs
/// more as the pool grows, and a window would let a fast run go further.
const INGEST_QUERIES_PER_S: f64 = 100.0;

/// Pre-generated append blocks (cycled when a run needs more).
const TRAIN_BLOCKS: usize = 48;
const HOLDOUT_BLOCKS: usize = 12;
const REOPENS: usize = 3;

pub fn ingest_serve(run: &Run) -> Result<Measured, String> {
    let (n, d, holdout, n0, k) = shape(run);
    let (train_rows, holdout_rows, train_every, holdout_every) = ingest_shape(run);
    let cfg = config(n0, holdout, k, EPSILONS[0]);
    let spec = LogisticRegressionSpec::new(1e-3);
    let archetypes = archetypes(&[1], 8);
    let mut m = Measured::default();

    // Every row comes from one generator call, so appended blocks share
    // the seed rows' ground truth (no drift by construction).
    type Rows = Vec<Example<DenseVec>>;
    let inputs = || -> (Rows, Rows, Vec<Rows>, Vec<Rows>) {
        let total = n + holdout + TRAIN_BLOCKS * train_rows + HOLDOUT_BLOCKS * holdout_rows;
        let (data, _) = synthetic_logistic(total, d, 2.0, split_seed(DATA_SEED, 1));
        let mut rows = data.into_examples().into_iter();
        let mut take = |count: usize| -> Rows { rows.by_ref().take(count).collect() };
        let train = take(n);
        let held = take(holdout);
        let tb = (0..TRAIN_BLOCKS).map(|_| take(train_rows)).collect();
        let hb = (0..HOLDOUT_BLOCKS).map(|_| take(holdout_rows)).collect();
        (train, held, tb, hb)
    };

    // Set-up: inputs, `create_durable`, `spawn_with_streams`, first answer.
    type Built = (
        Server,
        Arc<StreamingPool<DenseVec>>,
        PathBuf,
        Vec<Rows>,
        Vec<Rows>,
    );
    let mut built: Option<Built> = None;
    while run.more_setups(&m.setup_s) {
        if let Some((server, pool, dir, _, _)) = built.take() {
            server.shutdown();
            drop(pool);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = scratch_dir(&format!("ingest{}", m.setup_s.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let (start, cpu) = (Instant::now(), host::process_cpu_s());
        let (train, held, tb, hb) = inputs();
        let pool = StreamingPool::create_durable(
            &dir,
            "ingest",
            d,
            train,
            held,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
            DurableOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        let pool = Arc::new(pool);
        let server = Server::spawn_with_streams(
            cfg.clone(),
            serve_config(),
            spec.clone(),
            Vec::new(),
            vec![StreamShard::from_arc(1, pool.clone())],
        )
        .map_err(|e| e.to_string())?;
        m.tally
            .op("first query", server.query(archetypes[0]))
            .ok_or("first query failed")?;
        m.setup(start, cpu);
        built = Some((server, pool, dir, tb, hb));
    }
    let (server, pool, dir, train_blocks, holdout_blocks) = built.expect("at least one set-up");

    let mut phases = Phases::default();
    warm_up(&server, &archetypes, &mut m.tally, &mut phases);

    let mut zipf = ZipfStream::new(archetypes.len(), ZIPF_S, split_seed(run.seed, 7));
    let mut traffic = Traffic::default();
    let mut append_ms = Vec::new();
    let mut appends = (0usize, 0usize);
    let mut last_full: Option<(Query, ServedResponse)> = None;
    let mut completed = 0usize;
    let stats_before = server.stats();
    let alloc_before = trace::allocated();
    let start = Instant::now();
    let budget = (run.seconds * INGEST_QUERIES_PER_S).ceil() as usize;
    let (per_query, reference) = sliced_loop(
        &server,
        start,
        Budget::Queries(budget),
        || {
            let a = zipf.next();
            (a, archetypes[a])
        },
        |done| {
            m.op_ms.push(done.gen_ms);
            m.completions.push(done.at);
            if let Ok(r) = &done.result {
                traffic.record(&done, r);
                phases.record(&r.outcome);
                if r.rung == DegradationRung::Full {
                    last_full = Some((done.query, r.clone()));
                }
            }
            m.tally.op("query", done.result.map(|_| ()));
            completed += 1;
            if completed.is_multiple_of(train_every) {
                let block = train_blocks[appends.0 % TRAIN_BLOCKS].clone();
                let (r, t) = trace::timed("data.stream.append", appends.0 as u64, || {
                    pool.append(block)
                });
                append_ms.push(t.as_secs_f64() * 1e3);
                m.tally.op("append", r);
                appends.0 += 1;
            }
            if completed.is_multiple_of(holdout_every) {
                let block = holdout_blocks[appends.1 % HOLDOUT_BLOCKS].clone();
                let (r, t) = trace::timed("data.stream.append_holdout", appends.1 as u64, || {
                    pool.append_holdout(block)
                });
                append_ms.push(t.as_secs_f64() * 1e3);
                m.tally.op("append_holdout", r);
                appends.1 += 1;
            }
        },
    );
    m.op_cpu_ms = per_query;
    m.ref_ms.extend(reference);
    m.window_s = start.elapsed().as_secs_f64();
    let ops = traffic.server_ms.len().max(1) as u64;
    phases.alloc((trace::allocated() - alloc_before) / ops);
    let stats_after = server.stats();
    let serve_layer = traffic.to_json(&m.op_ms, &stats_before, &stats_after);
    m.extra("core.serve", serve_layer);
    let live_epoch = pool.epoch();
    let live_marks = pool.marks();

    // Exactness: the last Full-rung response against a cold coordinator
    // on the snapshot of the epoch it reports.
    let (q, response) = last_full.ok_or("no query resolved on the Full rung")?;
    let snap = pool
        .snapshot_at(response.epoch)
        .ok_or("a response reported an epoch the pool does not have")?;
    let (snap_train, snap_holdout) = (snap.train_dataset(), snap.holdout_dataset());
    if let Some(cold) = m
        .tally
        .op("oracle", oracle(&cfg, &q, &snap_train, &snap_holdout))
    {
        m.tally.check(same_outcome(&response.outcome, &cold), || {
            format!(
                "epoch {}: last Full response differs from a cold coordinator",
                response.epoch
            )
        });
    }
    drop((snap, snap_train, snap_holdout));

    if run.traced {
        let q = archetypes[traffic.median_archetype()];
        let snap = pool.snapshot();
        let (train, held) = (snap.train_dataset(), snap.holdout_dataset());
        trace_layers(
            &spec,
            &train,
            &held,
            &query_config(&cfg, &q),
            q.seed,
            &phases,
            &mut m,
        )?;
    }

    // Recovery: drop the server and the pool, then reopen the directory.
    server.shutdown();
    drop(pool);
    let mut recover_s = Vec::new();
    for _ in 0..REOPENS {
        let (reopened, t) = trace::timed("data.wal.open", u64::MAX - 2, || {
            StreamingPool::<DenseVec>::open(&dir, DurableOptions::default())
        });
        if let Some(p) = m.tally.op("StreamingPool::open", reopened) {
            m.tally
                .check(p.epoch() == live_epoch && p.marks() == live_marks, || {
                    "recovered epoch or row counts differ from the live pool".into()
                });
        }
        recover_s.push(t.as_secs_f64());
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    m.extra(
        "ingest",
        json!({
            "recover_s": median(&recover_s),
            "append_ms_p50": median(&append_ms),
            "train_blocks": appends.0,
            "holdout_blocks": appends.1,
            "final_epoch": live_epoch,
        }),
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_carries_the_zipf_mix_for_any_seed() {
        let k = 32;
        for seed in [1, 2, 99] {
            let mut stream = ZipfStream::new(k, ZIPF_S, seed);
            let mut counts = vec![0usize; k];
            for _ in 0..1_000 {
                counts[stream.next()] += 1;
            }
            for (r, &count) in counts.iter().enumerate() {
                let p = stream.cdf[r] - if r == 0 { 0.0 } else { stream.cdf[r - 1] };
                let expected = 1_000.0 * p;
                assert!(
                    (count as f64 - expected).abs() <= 3.0,
                    "seed {seed}, rank {r}: {count} draws, {expected:.1} expected"
                );
            }
        }
    }
}
