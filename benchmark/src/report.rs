//! Result records: the one-line JSON each run prints last, result-set
//! files (`--json`), and `compare` over two sets of them.

use std::collections::BTreeMap;
use std::path::Path;

use suit_telemetry::json::{self, escape, Value};

use crate::spec;

/// One workload's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Every check passed.
    pub correct: bool,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// `(name, value)` in the order reported.
    pub metrics: Vec<(String, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    // Results of several workloads carry `workload.metric` keys.
    spec::metric(name)
        .or_else(|| name.split_once('.').and_then(|(_, m)| spec::metric(m)))
        .map_or("", |m| m.unit)
}

impl Record {
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    escape(name),
                    escape(unit_of(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parses [`Record::to_json`] output (the workload name comes from
    /// the caller or a `workload` key).
    pub fn from_json(v: &Value, workload: &str) -> Result<Record, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result lacks numeric '{key}'"))
        };
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err("result lacks 'metrics'".into());
        };
        Ok(Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or(workload)
                .to_string(),
            correct: matches!(v.get("correct"), Some(Value::Bool(true))),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Value::as_f64)
                        .map(|x| (name.clone(), x))
                        .ok_or_else(|| format!("metric '{name}' lacks a value"))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// The `machine` block of a result set: what a comparison must hold
/// equal before its deltas mean anything.
pub fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git\":{}}}",
        escape(&cpu),
        escape(&run("rustc", &["-V"])),
        escape(&run("git", &["rev-parse", "HEAD"]))
    )
}

/// A result-set file: the machine block, the run settings, and one
/// record per workload.
pub fn result_set(seed: u64, seconds: f64, trace: bool, records: &[Record]) -> String {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            let body = r.to_json();
            format!("{{\"workload\":{},{}", escape(&r.workload), &body[1..])
        })
        .collect();
    format!(
        "{{\"machine\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"results\":[{}]}}\n",
        machine(),
        items.join(",")
    )
}

struct Set {
    /// `nproc`, CPU model and compiler; the git revision is left out, as
    /// comparing two revisions is the point.
    machine: String,
    records: Vec<Record>,
}

fn read_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let results = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no 'results'", path.display()))?;
    Ok(Set {
        machine: ["nproc", "cpu", "rustc"]
            .map(|k| format!("{:?}", doc.get("machine").and_then(|m| m.get(k))))
            .join(" "),
        records: results
            .iter()
            .map(|r| Record::from_json(r, ""))
            .collect::<Result<_, String>>()?,
    })
}

/// A directory means every `*.json` in it; anything else is one file.
fn read_sets(arg: &str) -> Result<Vec<Set>, String> {
    let path = Path::new(arg);
    let mut files = vec![path.to_path_buf()];
    if path.is_dir() {
        files = std::fs::read_dir(path)
            .map_err(|e| format!("{arg}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
    }
    if files.is_empty() {
        return Err(format!("{arg}: no result sets"));
    }
    files.iter().map(|f| read_set(f)).collect()
}

/// Per `(workload, metric)`: every value across the sets, plus each
/// workload's `(failed, attempted)` totals.
type Pooled = (
    BTreeMap<(String, String), Vec<f64>>,
    BTreeMap<String, (u64, u64)>,
);

fn pool(sets: &[Set]) -> Pooled {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut errors: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in sets.iter().flat_map(|s| &s.records) {
        for (name, v) in &r.metrics {
            values
                .entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*v);
        }
        let e = errors.entry(r.workload.clone()).or_default();
        e.0 += r.failed;
        e.1 += r.attempted;
    }
    (values, errors)
}

/// Relative change from `base` to `new`, signed so that positive is
/// worse.
fn worsening(metric: &spec::Metric, base: f64, new: f64) -> f64 {
    let delta = (new - base) / base;
    if metric.higher_is_better {
        -delta
    } else {
        delta
    }
}

/// `compare A B`: prints medians, deltas, bounds and verdicts; returns
/// whether B stays within every bound and its error rate did not rise.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    Ok(compare_sets(&read_sets(a)?, &read_sets(b)?))
}

fn compare_sets(base: &[Set], new: &[Set]) -> bool {
    let mut machines: Vec<&String> = base.iter().chain(new).map(|s| &s.machine).collect();
    machines.dedup();
    if machines.len() > 1 {
        eprintln!("warning: the result sets come from different machine blocks; deltas may not mean anything");
    }
    let (base_values, base_errors) = pool(base);
    let (new_values, new_errors) = pool(new);
    let mut ok = true;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "delta", "bound"
    );
    for ((workload, name), a_vals) in &base_values {
        let Some(b_vals) = new_values.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<14} {name:<26} missing from B");
            ok = false;
            continue;
        };
        let (ma, mb) = (crate::load::median(a_vals), crate::load::median(b_vals));
        let metric = spec::metric(name);
        let worse = metric.map_or(0.0, |m| worsening(m, ma, mb));
        let bound = metric.and_then(|m| m.bound);
        let verdict = match bound {
            Some(bound) if worse > bound => {
                ok = false;
                "WORSE"
            }
            Some(_) => "ok",
            None => "info",
        };
        println!(
            "{workload:<14} {name:<26} {ma:>14.4} {mb:>14.4} {:>+8.1}% {:>7}  {verdict}",
            (mb - ma) / ma * 100.0,
            bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    for (workload, (failed, attempted)) in &new_errors {
        let (bf, ba) = base_errors.get(workload).copied().unwrap_or((0, 1));
        let (rate_a, rate_b) = (bf as f64 / ba as f64, *failed as f64 / *attempted as f64);
        if rate_b > rate_a {
            ok = false;
            println!(
                "{workload:<14} {:<26} {rate_a:>14.6} {rate_b:>14.6}  WORSE",
                "error_rate"
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, p50: f64, failed: u64) -> Record {
        Record {
            workload: workload.into(),
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: vec![
                ("latency_p50_ms".into(), p50),
                ("throughput_ops_s".into(), 1000.0 / p50),
            ],
        }
    }

    fn sets(p50: f64, failed: u64) -> Vec<Set> {
        (0..3)
            .map(|i| {
                let doc = result_set(
                    1,
                    1.0,
                    false,
                    &[record(
                        "serve_hot",
                        p50 * (1.0 + 0.01 * f64::from(i)),
                        failed,
                    )],
                );
                let v = json::parse(&doc).unwrap();
                Set {
                    machine: String::new(),
                    records: vec![Record::from_json(
                        &v.get("results").unwrap().as_arr().unwrap()[0],
                        "",
                    )
                    .unwrap()],
                }
            })
            .collect()
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = record("serve_hot", 0.027, 0);
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(Record::from_json(&v, "serve_hot").unwrap(), r);
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound_and_error_rises() {
        let base = sets(1.0, 0);
        assert!(
            compare_sets(&base, &sets(1.05, 0)),
            "5% slower is inside the 10% bound"
        );
        assert!(!compare_sets(&base, &sets(1.5, 0)), "50% slower must fail");
        assert!(
            !compare_sets(&base, &sets(1.0, 1)),
            "a rising error rate must fail"
        );
    }
}
