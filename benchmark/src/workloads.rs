//! The timed runs: set a workload up (several times, for a steady
//! `setup_s`), drive it closed-loop for the measured duration, then check
//! what came back outside the timed phase.

use std::collections::HashMap;
use std::time::Instant;

use suit_hw::{CpuModel, UndervoltLevel};
use suit_serve::ClientResponse;
use suit_sim::engine::SimConfig;
use suit_sim::montecarlo::{monte_carlo_with_threads, McSummary};
use suit_telemetry::json::{self, Value};
use suit_trace::{profile, WorkloadProfile};

use crate::inputs::{self, Trace, HOT_ENTRIES};
use crate::load::{self, ClientLog, Conn, Service};
use crate::spec::Workload;

/// `serve_cold` and `trace_replay` keep every this-many-th response for
/// the byte-for-byte check against an in-process execution.
const CHECK_EVERY: u64 = 50;
/// The §6.4 campaign (`suit-bench`'s `montecarlo --full`): six profiles ×
/// 30 runs, fV at −97 mV, 2e9-instruction cap.
const MC_WORKLOADS: [&str; 6] = [
    "557.xz",
    "502.gcc",
    "525.x264",
    "520.omnetpp",
    "Nginx",
    "VLC",
];
const MC_RUNS: usize = 30;
const MC_INSTS: u64 = 2_000_000_000;
/// Worker threads the campaign fans out over (the service uses the same).
pub const MC_THREADS: usize = 2;

/// A workload after set-up: the running service and its open client
/// connections, plus the expected answers the checks compare against.
pub enum Fixture {
    /// `serve_hot`.
    Hot {
        /// Request bytes per `entry * 4 + spelling * 2 + revalidate`.
        requests: Vec<Vec<u8>>,
        /// The warm-up body of each entry.
        bodies: Vec<Vec<u8>>,
        /// The ETag of each entry.
        etags: Vec<String>,
        /// The service.
        svc: Service,
        /// One connection per client.
        conns: Vec<Conn>,
    },
    /// `serve_cold`.
    Cold {
        /// The service.
        svc: Service,
        /// One connection per client.
        conns: Vec<Conn>,
    },
    /// `trace_ingest` and `trace_replay`.
    Traces {
        /// The stored traces.
        traces: Vec<Trace>,
        /// The upload request of each trace.
        uploads: Vec<Vec<u8>>,
        /// The answer to each trace's idempotent re-upload.
        reuploaded: Vec<Vec<u8>>,
        /// The service.
        svc: Service,
        /// One connection per client.
        conns: Vec<Conn>,
    },
    /// `mc_sweep`, with the campaign's 1-thread result every repetition
    /// must equal.
    Mc(Box<Campaign>, Vec<McSummary>),
}

/// The Monte-Carlo campaign's inputs.
pub struct Campaign {
    cpu: CpuModel,
    cfg: SimConfig,
    profiles: Vec<&'static WorkloadProfile>,
}

impl Campaign {
    /// The campaign for `seed`.
    pub fn new(seed: u64) -> Campaign {
        let mut cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(MC_INSTS);
        cfg.seed = inputs::mc_seed(seed);
        Campaign {
            cpu: CpuModel::xeon_4208(),
            cfg,
            profiles: MC_WORKLOADS
                .iter()
                .map(|n| profile::by_name(n).expect("campaign workloads are built-in"))
                .collect(),
        }
    }

    /// Runs every profile's 30 runs over `threads` workers.
    pub fn run(&self, threads: usize) -> Vec<McSummary> {
        self.profiles
            .iter()
            .map(|p| monte_carlo_with_threads(&self.cpu, p, &self.cfg, MC_RUNS, threads))
            .collect()
    }
}

fn expect_status(resp: &ClientResponse, status: u16) -> Result<(), String> {
    if resp.status == status {
        Ok(())
    } else {
        Err(format!(
            "status {} (wanted {status}): {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ))
    }
}

fn connect_all(svc: &Service, w: Workload) -> Result<Vec<Conn>, String> {
    (0..w.clients()).map(|_| svc.connect()).collect()
}

impl Fixture {
    /// Starts the service, opens the client connections, and generates,
    /// uploads or warms what `w` needs. For `mc_sweep`, computes the
    /// expected answer: the campaign on one thread.
    pub fn setup(w: Workload, seed: u64) -> Result<Fixture, String> {
        if w == Workload::McSweep {
            let campaign = Box::new(Campaign::new(seed));
            let reference = campaign.run(1);
            return Ok(Fixture::Mc(campaign, reference));
        }
        let traces = matches!(w, Workload::TraceIngest | Workload::TraceReplay)
            .then(|| inputs::traces(seed));
        let svc = Service::start()?;
        let mut conns = connect_all(&svc, w)?;
        Ok(match w {
            Workload::ServeHot => {
                let (bodies, etags): (Vec<[String; 2]>, Vec<String>) = inputs::hot_bodies(seed)
                    .into_iter()
                    .map(|b| {
                        let etag = inputs::simulate_etag(&b[0]);
                        (b, etag)
                    })
                    .unzip();
                let mut requests = Vec::with_capacity(HOT_ENTRIES * 4);
                for (spellings, etag) in bodies.iter().zip(&etags) {
                    for body in spellings {
                        requests.push(inputs::post("/v1/simulate", "", body.as_bytes()));
                        let revalidate = format!("if-none-match: {etag}\r\n");
                        requests.push(inputs::post("/v1/simulate", &revalidate, body.as_bytes()));
                    }
                }
                let mut warm = Vec::with_capacity(HOT_ENTRIES);
                for (e, etag) in etags.iter().enumerate() {
                    let resp = conns[0].exchange(&requests[e * 4])?;
                    expect_status(&resp, 200)?;
                    if resp.header("etag") != Some(etag.as_str()) {
                        return Err(format!("entry {e}: ETag differs from the canonical key's"));
                    }
                    warm.push(resp.body);
                }
                Fixture::Hot {
                    requests,
                    bodies: warm,
                    etags,
                    svc,
                    conns,
                }
            }
            Workload::ServeCold => Fixture::Cold { svc, conns },
            Workload::TraceIngest | Workload::TraceReplay => {
                let traces = traces.expect("generated above");
                let uploads: Vec<Vec<u8>> = traces
                    .iter()
                    .map(|t| {
                        inputs::post(
                            "/v1/trace",
                            "content-type: application/octet-stream\r\n",
                            &t.container,
                        )
                    })
                    .collect();
                for (t, upload) in traces.iter().zip(&uploads) {
                    let resp = conns[0].exchange(upload)?;
                    expect_status(&resp, 200)?;
                    if resp.body != inputs::upload_body(&t.container, true).as_bytes() {
                        return Err(format!("{}: first upload did not create it", t.meta.name));
                    }
                }
                let reuploaded = traces
                    .iter()
                    .map(|t| inputs::upload_body(&t.container, false).into_bytes())
                    .collect();
                Fixture::Traces {
                    traces,
                    uploads,
                    reuploaded,
                    svc,
                    conns,
                }
            }
            Workload::McSweep => unreachable!("handled above"),
        })
    }

    /// The service, if the workload has one.
    pub fn service(&self) -> Option<&Service> {
        match self {
            Fixture::Hot { svc, .. } | Fixture::Cold { svc, .. } | Fixture::Traces { svc, .. } => {
                Some(svc)
            }
            Fixture::Mc(..) => None,
        }
    }

    /// Shuts the service down, closing the clients' connections first.
    pub fn stop(self) -> Result<(), String> {
        match self {
            Fixture::Hot { svc, conns, .. }
            | Fixture::Cold { svc, conns }
            | Fixture::Traces { svc, conns, .. } => {
                drop(conns);
                svc.stop()
            }
            Fixture::Mc(..) => Ok(()),
        }
    }
}

/// The result of one timed run.
pub struct Timed {
    /// Ops issued, warm-up and checks included.
    pub attempted: u64,
    /// Ops that failed a transport, status or content check.
    pub failed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    /// End-to-end metrics, in `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Client-observed p50, µs (the traced run subtracts layer costs
    /// from it).
    pub p50_us: f64,
    /// The `/v1/metrics` document after the run (serve workloads).
    pub server_metrics: Option<Value>,
}

/// Sets `w` up `setups` times (reporting the median), drives the last
/// fixture for `seconds`, and checks every answer.
pub fn timed(w: Workload, seed: u64, seconds: f64, setups: usize) -> Result<Timed, String> {
    if w.single_cpu() {
        // Every thread the run starts from here on inherits the pin.
        load::pin_to_one_cpu()?;
    }
    let mut setup_s = Vec::with_capacity(setups);
    let mut fixture = None;
    for _ in 0..setups {
        if let Some(previous) = fixture.take() {
            Fixture::stop(previous)?;
        }
        let started = Instant::now();
        fixture = Some(Fixture::setup(w, seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.ok_or("at least one set-up")?;
    let logs = drive(&mut fixture, w, seed, seconds);
    let (checked, bad, mut errors) = verify(&fixture, seed, &logs);
    let server_metrics = match &fixture {
        Fixture::Mc(..) => None,
        f => Some(scrape(f.service().expect("serve fixtures have a service"))?),
    };
    fixture.stop()?;

    let mut latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = load::percentile(&latencies, 0.5);
    errors.extend(logs.iter().flat_map(|l| l.errors.iter().cloned()));
    errors.truncate(5);
    Ok(Timed {
        attempted: logs.iter().map(|l| l.attempted).sum::<u64>() + checked,
        failed: logs.iter().map(|l| l.failed).sum::<u64>() + bad,
        errors,
        metrics: vec![
            ("throughput_ops_s", logs.iter().map(|l| l.rate).sum()),
            ("latency_p50_ms", p50 * 1e3),
            ("latency_p99_ms", load::percentile(&latencies, 0.99) * 1e3),
            ("setup_s", load::median(&setup_s)),
            ("peak_rss_mb", load::peak_rss_mb()?),
        ],
        p50_us: p50 * 1e6,
        server_metrics,
    })
}

/// The closed loop over the fixture's connections.
fn drive(fixture: &mut Fixture, w: Workload, seed: u64, seconds: f64) -> Vec<ClientLog> {
    let conns: Vec<Option<Conn>> = match fixture {
        Fixture::Hot { conns, .. }
        | Fixture::Cold { conns, .. }
        | Fixture::Traces { conns, .. } => conns.drain(..).map(Some).collect(),
        Fixture::Mc(..) => vec![None],
    };
    let f = &*fixture;
    load::closed_loop(conns, seconds, |conn, c, k| match f {
        Fixture::Hot {
            requests,
            bodies,
            etags,
            ..
        } => {
            let (e, spelling, revalidate) = inputs::hot_op(seed, c, k);
            let conn = conn.as_mut().expect("serve clients own a connection");
            let resp = conn.exchange(&requests[e * 4 + spelling * 2 + usize::from(revalidate)])?;
            if resp.header("etag") != Some(etags[e].as_str()) {
                return Err(format!("entry {e}: wrong ETag"));
            }
            if revalidate {
                expect_status(&resp, 304)?;
                if !resp.body.is_empty() {
                    return Err("304 with a body".into());
                }
            } else {
                expect_status(&resp, 200)?;
                if resp.body != bodies[e] {
                    return Err(format!("entry {e}: body differs from the warm-up body"));
                }
            }
            Ok(None)
        }
        Fixture::Cold { .. } => {
            let (path, body) = inputs::cold_request(seed, c, k);
            let conn = conn.as_mut().expect("serve clients own a connection");
            let resp = conn.exchange(&inputs::post(path, "", body.as_bytes()))?;
            expect_status(&resp, 200)?;
            Ok((k % CHECK_EVERY == 0).then_some(resp.body))
        }
        Fixture::Traces {
            traces,
            uploads,
            reuploaded,
            ..
        } => {
            let conn = conn.as_mut().expect("serve clients own a connection");
            if w == Workload::TraceIngest {
                let t = inputs::ingest_op(seed, c, k);
                let resp = conn.exchange(&uploads[t])?;
                expect_status(&resp, 200)?;
                if resp.body != reuploaded[t] {
                    return Err(format!(
                        "{}: re-upload was not idempotent",
                        traces[t].meta.name
                    ));
                }
                return Ok(None);
            }
            let (t, body) = inputs::replay_request(seed, c, k, traces);
            let resp = conn.exchange(&inputs::post("/v1/simulate-trace", "", body.as_bytes()))?;
            expect_status(&resp, 200)?;
            let events = replay_events(&resp.body)?;
            if events != traces[t].events {
                return Err(format!(
                    "{}: replayed {events} of {} events",
                    traces[t].meta.name, traces[t].events
                ));
            }
            Ok((k % CHECK_EVERY == 0).then_some(resp.body))
        }
        Fixture::Mc(campaign, reference) => {
            if campaign.run(MC_THREADS) != *reference {
                return Err("campaign differs from its 1-thread result".into());
            }
            Ok(None)
        }
    })
}

/// `results[0].result.events` of a `/v1/simulate-trace` body.
fn replay_events(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = json::parse(text)?;
    doc.get("results")
        .and_then(Value::as_arr)
        .and_then(|r| r.first())
        .and_then(|r| r.get("result"))
        .and_then(|r| r.get("events"))
        .and_then(Value::as_f64)
        .map(|e| e as u64)
        .ok_or_else(|| "no results[0].result.events".into())
}

/// The check that runs after the timed phase: kept responses against an
/// in-process execution. Returns `(checks, failures, reasons)`.
fn verify(fixture: &Fixture, seed: u64, logs: &[ClientLog]) -> (u64, u64, Vec<String>) {
    let mut checked = 0;
    let mut bad = 0;
    let mut errors = Vec::new();
    match fixture {
        Fixture::Cold { .. } | Fixture::Traces { .. } => {
            let store: HashMap<String, _> = match fixture {
                Fixture::Traces { traces, .. } => traces
                    .iter()
                    .map(|t| (t.id.clone(), inputs::stored(&t.container)))
                    .collect(),
                _ => HashMap::new(),
            };
            for (c, log) in logs.iter().enumerate() {
                for (k, served) in &log.kept {
                    let (path, body) = match fixture {
                        Fixture::Traces { traces, .. } => (
                            "/v1/simulate-trace",
                            inputs::replay_request(seed, c, *k, traces).1,
                        ),
                        _ => inputs::cold_request(seed, c, *k),
                    };
                    checked += 1;
                    let oracle =
                        inputs::parse_job(path, &body, &store).and_then(|j| inputs::execute(&j));
                    if oracle.as_deref().map(str::as_bytes) != Ok(served.as_slice()) {
                        bad += 1;
                        errors.push(format!(
                            "client {c} op {k}: served body differs from in-process {path}"
                        ));
                    }
                }
            }
        }
        Fixture::Hot { .. } | Fixture::Mc(..) => {}
    }
    (checked, bad, errors)
}

/// `GET /v1/metrics` on a fresh connection.
pub fn scrape(svc: &Service) -> Result<Value, String> {
    let mut conn = svc.connect()?;
    let resp = conn.exchange(b"GET /v1/metrics HTTP/1.1\r\nhost: bench\r\n\r\n")?;
    expect_status(&resp, 200)?;
    json::parse(resp.text()?)
}
