//! `blinkbench` — the BlinkML benchmark: time to a guaranteed model,
//! λ-sweeps, serving and durable ingest, end to end and layer by layer.
//!
//! ```text
//! blinkbench --workload W --seed S --seconds T --trace 0|1 [--quick]
//! blinkbench run   --seed S [--workload W] [--seconds T] [--out F]
//! blinkbench trace --seed S [--workload W] [--seconds T] [--out F]
//! blinkbench compare A.json... -- B.json... [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process. Its last stdout
//! line is `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`); the line before it is the full report. `run` and
//! `trace` run each workload in its own child process and collect the
//! reports into one document; `trace` also runs each workload untraced
//! to report the tracing overhead. `compare` checks two sets of `run`
//! documents against the bounds in `BENCHMARK.json`. See `README.md`.

mod calib;
mod cli;
mod compare;
mod host;
mod json;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cli::sets(&args[1..], false),
        Some("trace") => cli::sets(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        _ => cli::one(&args),
    };
    std::process::exit(code);
}
