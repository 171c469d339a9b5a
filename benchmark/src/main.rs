//! `suit-benchmark` — the repository's end-to-end benchmark: five named
//! workloads over the HTTP service, the trace store and the Monte-Carlo
//! engine, each run in a fresh child process, plus a traced run that
//! splits each workload into its layers. See `README.md`.

mod inputs;
mod layers;
mod load;
mod report;
mod spec;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::Record;
use spec::Workload;
use suit_telemetry::json::{self, Value};

const USAGE: &str = "\
usage: suit-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
       suit-benchmark trace [--workload W] [--seed N] [--seconds S] [--json PATH]
       suit-benchmark check
       suit-benchmark compare A B   (each a result-set file or a directory of them)
workloads: serve_hot serve_cold trace_ingest trace_replay mc_sweep";

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    setups: usize,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
        setups: SETUPS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => o.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json" => o.json = Some(value.clone()),
            "--setups" => {
                o.setups = value.parse().map_err(|_| bad())?;
                if o.setups == 0 {
                    return Err(bad());
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => run(&parse_opts(rest)?).map(|_| ExitCode::SUCCESS),
        Some("trace") => {
            let mut o = parse_opts(rest)?;
            o.trace = true;
            run(&o).map(|_| ExitCode::SUCCESS)
        }
        Some("check") => {
            let records = run(&Opts {
                seconds: 0.25,
                setups: 1,
                ..parse_opts(rest)?
            })?;
            Ok(verdict(records.iter().all(|r| r.correct)))
        }
        Some("compare") => match rest {
            [a, b] => report::compare(a, b).map(verdict),
            _ => Err("compare takes two result sets".into()),
        },
        Some("child") => child(&parse_opts(rest)?).map(|_| ExitCode::SUCCESS),
        _ => Err("expected a subcommand".into()),
    }
}

/// Runs each selected workload in a fresh child process, relays its
/// metric lines, and prints one JSON result as the last line.
fn run(o: &Opts) -> Result<Vec<Record>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut records = Vec::with_capacity(o.workloads.len());
    for w in &o.workloads {
        let out = Command::new(&exe)
            .args([
                "child",
                "--workload",
                w.name(),
                "--seed",
                &o.seed.to_string(),
            ])
            .args([
                "--seconds",
                &o.seconds.to_string(),
                "--setups",
                &o.setups.to_string(),
            ])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!("{} failed ({})", w.name(), out.status));
        }
        records.push(Record::from_json(&json::parse(last)?, w.name())?);
    }
    if let Some(path) = &o.json {
        std::fs::write(
            path,
            report::result_set(o.seed, o.seconds, o.trace, &records),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    let summary = match records.as_slice() {
        [one] => one.clone(),
        all => Record {
            workload: "all".into(),
            correct: all.iter().all(|r| r.correct),
            attempted: all.iter().map(|r| r.attempted).sum(),
            failed: all.iter().map(|r| r.failed).sum(),
            metrics: all
                .iter()
                .flat_map(|r| {
                    r.metrics
                        .iter()
                        .map(|(m, v)| (format!("{}.{m}", r.workload), *v))
                })
                .collect(),
        },
    };
    println!("{}", summary.to_json());
    Ok(records)
}

/// One workload in this process: prints `workload metric value unit`
/// lines, then the JSON record.
fn child(o: &Opts) -> Result<(), String> {
    let [w] = o.workloads[..] else {
        return Err("child runs exactly one workload".into());
    };
    let record = if o.trace {
        traced_child(w, o)?
    } else {
        let t = workloads::timed(w, o.seed, o.seconds, o.setups)?;
        for e in &t.errors {
            eprintln!("{}: {e}", w.name());
        }
        println!(
            "{} error_rate {} ratio",
            w.name(),
            t.failed as f64 / t.attempted as f64
        );
        Record {
            workload: w.name().into(),
            correct: t.failed == 0,
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.metrics.iter().map(|(m, v)| (m.to_string(), *v)).collect(),
        }
    };
    let record = Record {
        correct: record.correct
            && record
                .metrics
                .iter()
                .all(|(_, v)| v.is_finite() && *v > 0.0),
        ..record
    };
    for (name, v) in &record.metrics {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        println!("{} {name} {v} {unit}", w.name());
    }
    println!("{}", record.to_json());
    Ok(())
}

/// The traced run, then (serve workloads) a timed run of half the length
/// whose `/v1/metrics` document gives the server-side counters.
fn traced_child(w: Workload, o: &Opts) -> Result<Record, String> {
    let traced = layers::traced(w, o.seed)?;
    let dir = std::env::current_exe()
        .map_err(|e| format!("own executable: {e}"))?
        .with_file_name("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.trace.json", w.name(), o.seed));
    std::fs::write(&path, layers::chrome_json(&traced.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans in {}",
        w.name(),
        traced.spans.len(),
        path.display()
    );

    let (mut attempted, mut failed) = (traced.attempted, 0);
    if w != Workload::McSweep {
        let t = workloads::timed(w, o.seed, o.seconds / 2.0, 1)?;
        attempted += t.attempted;
        failed += t.failed;
        let doc = t
            .server_metrics
            .as_ref()
            .expect("serve workloads are scraped");
        for (name, v, unit) in server_counters(w, doc, t.p50_us, &traced.own_layers) {
            println!("{} {name} {v} {unit}", w.name());
        }
    }
    Ok(Record {
        workload: w.name().into(),
        correct: failed == 0,
        attempted,
        failed,
        metrics: traced
            .metrics
            .iter()
            .map(|(m, v)| (m.to_string(), *v))
            .collect(),
    })
}

/// Server-side queue, cache and failure counters; each in-process layer
/// on the request path as a share of the client p50; and for `serve_hot`
/// the remainder, transport: sockets, syscalls and thread hand-offs.
fn server_counters(
    w: Workload,
    doc: &Value,
    client_p50_us: f64,
    own_layers: &[(&'static str, f64)],
) -> Vec<(String, f64, &'static str)> {
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(doc, |v, k| v.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
    let job = match w {
        Workload::ServeHot => ["cache", "hit_latency_us"],
        Workload::ServeCold => ["latency_us", "simulate"],
        Workload::TraceIngest => ["latency_us", "trace_upload"],
        _ => ["latency_us", "simulate_trace"],
    };
    let mut out = Vec::new();
    if hits + misses > 0.0 {
        out.push((
            "serve.cache.hit_ratio".into(),
            hits / (hits + misses),
            "ratio",
        ));
    }
    out.extend([
        (
            "serve.cache.evictions".into(),
            num(&["cache", "evictions"]),
            "count",
        ),
        (
            "serve.server.rejected".into(),
            num(&["requests", "rejected"]),
            "count",
        ),
        (
            "serve.server.job_p50_us".into(),
            num(&[job[0], job[1], "p50_us"]),
            "us",
        ),
        (
            "serve.server.job_p99_us".into(),
            num(&[job[0], job[1], "p99_us"]),
            "us",
        ),
        ("client.p50_us".into(), client_p50_us, "us"),
    ]);
    // The request path's layers; the final full parse is inside read_us.
    let path: &[&str] = match w {
        Workload::ServeHot => &[
            "serve.http.read_us",
            "serve.api.parse_us",
            "serve.cache.key_us",
            "serve.cache.get_us",
            "serve.http.encode_us",
        ],
        Workload::TraceIngest => &[
            "serve.http.read_us",
            "serve.tracestore.id_us",
            "store.decode_us",
            "serve.http.encode_us",
        ],
        Workload::TraceReplay => &["store.decode_us", "sim.replay_us"],
        _ => &[],
    };
    let mut in_process = 0.0;
    for (layer, secs) in own_layers.iter().filter(|(l, _)| path.contains(l)) {
        in_process += secs * 1e6;
        out.push((
            format!("{layer}.share"),
            secs * 1e6 / client_p50_us,
            "ratio",
        ));
    }
    if w == Workload::ServeHot {
        out.push((
            "serve.transport_us".into(),
            client_p50_us - in_process,
            "us",
        ));
    }
    out
}
