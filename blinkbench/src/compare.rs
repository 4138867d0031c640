//! `compare A.json… -- B.json…`: for every (workload, end-to-end
//! metric) pair, both sides' medians and quartiles and a verdict
//! against the metric's bound in `BENCHMARK.json`.
//!
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **unresolved** — a side's quartile spread (q3 − q1 over its median)
//!   is wider than the bound, unless every B run beats every A run;
//! * **ok** — otherwise.
//!
//! A workload's report is disturbed, and left out with a printed note,
//! when its canary (the slower of the before/after canary loops)
//! exceeds the set's median canary for that workload by more than 10%.

use crate::json::{at, get, num, parse, text};
use crate::report::e2e_value;
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use serde_json::Value;

/// Canary excess over the set median that marks a report as disturbed.
const CANARY_EXCESS: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Relative spread of one side: (q3 − q1) / median.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some((q3 - q1) / q2.abs().max(f64::MIN_POSITIVE))
}

/// How much worse B's median is than A's, as a share of A's.
fn worse_by(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better { ma - mb } else { mb - ma };
    worse / ma.abs().max(f64::MIN_POSITIVE)
}

pub fn verdict(a: &[f64], b: &[f64], gate: &Gate) -> Verdict {
    let (Some(sa), Some(sb)) = (spread(a), spread(b)) else {
        return Verdict::Unresolved;
    };
    if sa.max(sb) > gate.bound {
        let fold = |f: fn(f64, f64) -> f64, v: &[f64], init| v.iter().copied().fold(init, f);
        let b_always_better = if gate.higher_is_better {
            fold(f64::min, b, f64::INFINITY) > fold(f64::max, a, f64::NEG_INFINITY)
        } else {
            fold(f64::max, b, f64::NEG_INFINITY) < fold(f64::min, a, f64::INFINITY)
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(a, b, gate.higher_is_better) > gate.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Why each of a set's reports for one workload is disturbed, if it is,
/// from their canary times.
pub fn disturbed(canaries: &[f64]) -> Vec<Option<String>> {
    let med = median(canaries);
    canaries
        .iter()
        .map(|&canary| {
            (canary > med * (1.0 + CANARY_EXCESS)).then(|| {
                format!(
                    "canary {canary:.1} ms is over {:.0}% above the set median {med:.1} ms",
                    CANARY_EXCESS * 100.0
                )
            })
        })
        .collect()
}

/// The reports for `workload` in a set of run documents, minus the
/// disturbed ones (each noted on stdout).
fn undisturbed<'a>(label: &str, docs: &'a [(String, Value)], workload: &str) -> Vec<&'a Value> {
    let reports: Vec<(&str, &Value)> = docs
        .iter()
        .filter_map(|(path, doc)| Some((path.as_str(), at(doc, &["workloads", workload])?)))
        .collect();
    let canaries: Vec<f64> = reports
        .iter()
        .map(|(_, r)| {
            get(r, "canary_ms")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(num)
                .fold(0.0, f64::max)
        })
        .collect();
    let mut kept = Vec::new();
    for ((path, report), why) in reports.into_iter().zip(disturbed(&canaries)) {
        match why {
            Some(why) => println!("note: {label} {path}: {workload} disturbed ({why}); left out"),
            None => kept.push(report),
        }
    }
    kept
}

pub fn gates(bench: &Value) -> Result<Vec<Gate>, String> {
    get(bench, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = get(m, "name").and_then(text).ok_or("metric without name")?;
            let better = get(m, "better")
                .and_then(text)
                .ok_or("metric without better")?;
            let bound = get(m, "bound")
                .and_then(num)
                .ok_or("metric without bound")?;
            Ok(Gate {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(body.trim()).map_err(|e| format!("{path}: {e}"))?;
    match get(&doc, "blinkbench").and_then(text) {
        Some("run") => Ok(doc),
        _ => Err(format!("{path}: not a `blinkbench run` document")),
    }
}

fn load_set(paths: &[String]) -> Result<Vec<(String, Value)>, String> {
    paths.iter().map(|p| Ok((p.clone(), load(p)?))).collect()
}

pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("blinkbench compare: {e}");
            2
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut bench_path = "BENCHMARK.json".to_string();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut after_split = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => after_split = true,
            "--bench" => bench_path = it.next().ok_or("--bench needs a path")?.clone(),
            _ if after_split => b.push(arg.clone()),
            _ => a.push(arg.clone()),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("usage: compare A.json... -- B.json... [--bench BENCHMARK.json]".into());
    }
    let bench = std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let gates = gates(&parse(&bench)?)?;
    let a = load_set(&a)?;
    let b = load_set(&b)?;

    println!(
        "{:<13} {:<11} {:>11} {:>23} {:>11} {:>23}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        let (ra, rb) = (
            undisturbed("A", &a, workload),
            undisturbed("B", &b, workload),
        );
        let values = |reports: &[&Value], metric: &str| -> Vec<f64> {
            reports
                .iter()
                .filter_map(|r| e2e_value(r, metric))
                .collect()
        };
        for gate in &gates {
            let (va, vb) = (values(&ra, &gate.name), values(&rb, &gate.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, gate);
            regressed |= v == Verdict::Regressed;
            let q = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |(q1, _, q3)| format!("{q1:.4}..{q3:.4}"))
            };
            println!(
                "{workload:<13} {:<11} {:>11.4} {:>23} {:>11.4} {:>23}  {}",
                gate.name,
                median(&va),
                q(&va),
                median(&vb),
                q(&vb),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool) -> Gate {
        Gate {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: 5% slower is within the 10% bound.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &b, &gate(false)), Verdict::Ok);
        // 20% slower with tight spreads: a regression.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &b, &gate(false)), Verdict::Regressed);
        // The same 20% on a higher-is-better metric is an improvement.
        assert_eq!(verdict(&a, &b, &gate(true)), Verdict::Ok);
        // A spread wider than the bound cannot resolve a small change...
        let noisy = [70.0, 90.0, 100.0, 110.0, 140.0];
        assert_eq!(verdict(&a, &noisy, &gate(false)), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        let better = [50.0, 60.0, 70.0, 80.0, 90.0];
        assert_eq!(verdict(&a, &better, &gate(false)), Verdict::Ok);
        // One run per side has no spread to judge by.
        assert_eq!(verdict(&[1.0], &[1.0], &gate(false)), Verdict::Unresolved);
    }

    #[test]
    fn disturbed_by_canary() {
        // The median is 50.75: 57.0 is 12.3% above it, 55.0 only 8.4%.
        let why = disturbed(&[50.0, 51.0, 49.5, 57.0, 55.0, 50.5]);
        let flagged: Vec<bool> = why.iter().map(Option::is_some).collect();
        assert_eq!(flagged, [false, false, false, true, false, false]);
        assert!(why[3].as_deref().unwrap().contains("canary 57.0 ms"));
    }

    #[test]
    fn disturbed_report_is_left_out_of_its_set() {
        let doc = |canary: f64, op: f64| {
            parse(&format!(
                r#"{{"blinkbench":"run","workloads":{{"train-tall":{{"canary_ms":[{canary},48.0],"e2e":{{"op_cal_ms":{{"value":{op},"unit":"ms"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let docs: Vec<(String, Value)> = [
            (50.0, 10.0),
            (51.0, 10.1),
            (50.5, 9.9),
            (80.0, 30.0),
            (50.2, 10.2),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(c, op))| (format!("r{i}.json"), doc(c, op)))
        .collect();
        let kept = undisturbed("A", &docs, "train-tall");
        let ops: Vec<f64> = kept
            .iter()
            .filter_map(|r| e2e_value(r, "op_cal_ms"))
            .collect();
        assert_eq!(ops, vec![10.0, 10.1, 9.9, 10.2]);
        assert!(undisturbed("A", &docs, "serve-zipf").is_empty());
    }
}
