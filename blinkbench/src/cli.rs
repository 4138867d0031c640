//! Command lines: one workload in this process, or a set of workloads
//! in child processes (`run`, `trace`).

use crate::json::{float, get, num, parse, text};
use crate::report::e2e_value;
use crate::workloads::{self, Run, WORKLOADS};
use serde_json::{json, Value};
use std::process::{Command, Stdio};

/// Default timed window of `run` / `trace`, matching `BENCHMARK.json`.
const DEFAULT_SECONDS: &str = "15";

/// `--name value` pairs and bare `--switch`es.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if valued.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_string(), Some(value.clone())));
            } else if switches.contains(&name) {
                out.push((name.to_string(), None));
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Flags(out))
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: &str) -> Result<T, String> {
        parse_number(name, self.value(name).unwrap_or(default))
    }
}

fn parse_number<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("--{name}: `{text}` is not a valid number"))
}

fn check_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload `{name}` (expected one of {})",
            WORKLOADS.join(", ")
        ))
    }
}

/// Run one workload here and print the report line, then the result line.
pub fn one(args: &[String]) -> i32 {
    match one_inner(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("blinkbench: {e}");
            2
        }
    }
}

fn one_inner(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &["quick"])?;
    let workload = flags.required("workload")?;
    check_workload(workload)?;
    let traced = match flags.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds: f64 = parse_number("seconds", flags.required("seconds")?)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let run = Run {
        workload: workload.to_string(),
        seed: parse_number("seed", flags.required("seed")?)?,
        seconds,
        traced,
        quick: flags.has("quick"),
    };
    eprintln!(
        "blinkbench: {} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.traced as u8
    );
    let report = workloads::run(&run)?;
    let line = report.result_line()?;
    for failure in &report.measured.tally.failures {
        eprintln!("blinkbench: FAILED {failure}");
    }
    println!("{}", report.to_json());
    println!("{line}");
    Ok(())
}

/// Run one workload in a child process; returns its parsed report.
fn child(
    workload: &str,
    seed: u64,
    seconds: &str,
    traced: bool,
    quick: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = seed.to_string();
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        seconds,
        "--trace",
        if traced { "1" } else { "0" },
    ];
    if quick {
        args.push("--quick");
    }
    let out = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: could not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let report = lines
        .len()
        .checked_sub(2)
        .map(|i| lines[i])
        .ok_or_else(|| format!("{workload}: no report line"))?;
    parse(report)
}

/// Names and units of every end-to-end entry of a parsed report.
fn e2e_entries(report: &Value) -> Vec<(String, String)> {
    get(report, "e2e")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .map(|(name, e)| {
            let unit = get(e, "unit").and_then(text).unwrap_or("");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn print_table(workload: &str, report: &Value) {
    let correct = matches!(get(report, "correct"), Some(Value::Bool(true)));
    println!("{workload} (correct: {correct})");
    for (metric, unit) in e2e_entries(report) {
        let entry = get(report, "e2e").and_then(|e| get(e, &metric));
        let value = e2e_value(report, &metric).unwrap_or(f64::NAN);
        let tail = match (
            entry.and_then(|e| get(e, "tail_label")).and_then(text),
            entry.and_then(|e| get(e, "tail")).and_then(num),
        ) {
            (Some(label), Some(v)) => format!("  ({label} {v:.4})"),
            _ => String::new(),
        };
        println!("  {metric:<12} {value:>12.4} {unit}{tail}");
    }
}

/// `run` / `trace`: every workload (or `--workload`) in its own child.
pub fn sets(args: &[String], traced: bool) -> i32 {
    match sets_inner(args, traced) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("blinkbench: {e}");
            2
        }
    }
}

fn sets_inner(args: &[String], traced: bool) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "workload", "seconds", "out"], &["quick"])?;
    let seed: u64 = flags.number("seed", "1")?;
    let seconds = flags.value("seconds").unwrap_or(DEFAULT_SECONDS);
    parse_number::<f64>("seconds", seconds)?;
    let quick = flags.has("quick");
    let selected: Vec<&str> = match flags.value("workload") {
        Some(w) => {
            check_workload(w)?;
            vec![w]
        }
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    let mut entries = Vec::new();
    for workload in selected {
        let untraced = child(workload, seed, seconds, false, quick)?;
        print_table(workload, &untraced);
        all_ok &= matches!(get(&untraced, "correct"), Some(Value::Bool(true)));
        let entry = if traced {
            let with_spans = child(workload, seed, seconds, true, quick)?;
            all_ok &= matches!(get(&with_spans, "correct"), Some(Value::Bool(true)));
            let overhead = Value::Object(
                e2e_entries(&untraced)
                    .into_iter()
                    .map(|(metric, _)| {
                        let off = e2e_value(&untraced, &metric).unwrap_or(f64::NAN);
                        let on = e2e_value(&with_spans, &metric).unwrap_or(f64::NAN);
                        (
                            metric,
                            json!({
                                "untraced": float(off),
                                "traced": float(on),
                                "delta": float(on - off),
                                "relative": float((on - off) / off),
                            }),
                        )
                    })
                    .collect(),
            );
            json!({ "untraced": untraced, "traced": with_spans, "overhead": overhead })
        } else {
            untraced
        };
        entries.push((workload.to_string(), entry));
    }
    let doc = json!({
        "blinkbench": if traced { "trace" } else { "run" },
        "seed": seed,
        "seconds": seconds,
        "workloads": Value::Object(entries),
    });
    match flags.value("out") {
        Some(path) => {
            std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("blinkbench: wrote {path}");
        }
        None => println!("{doc}"),
    }
    Ok(all_ok)
}
