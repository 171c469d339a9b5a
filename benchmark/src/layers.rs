//! The traced run: replays a workload's seeded inputs in process through
//! each layer's public functions, timing every call. Spans (layer,
//! start, end, request id) stay in memory and are written out as Chrome
//! trace JSON at the end. Nothing inside the program is instrumented.
//!
//! Every per-layer metric is reported for every workload. A layer the
//! workload's own inputs never reach is timed on a reference workload's
//! inputs from the same seed: `serve_cold` for the compute kinds and the
//! cache write path, `trace_replay` for the store and the engine replay.
//! The Monte-Carlo and `DelayTable` layers always run the §6.4 campaign.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use suit_hw::{CpuModel, DelayTable};
use suit_serve::api::{Job, TraceJob};
use suit_serve::cache::{self, Cache};
use suit_serve::http::{parse_request, Limits, Parse};
use suit_serve::{Response, ServeConfig, StoredTrace, TraceStore};
use suit_sim::engine::{run_stream, SimConfig};
use suit_telemetry::json::escape;

use crate::inputs::{self, Trace};
use crate::spec::{self, Workload, PER_LAYER};
use crate::workloads::{Campaign, MC_THREADS};

/// The server reads sockets in chunks of this size and re-parses the
/// growing buffer after each one.
const READ_CHUNK: usize = 4096;
/// Requests replayed per workload: enough for a steady median, small
/// enough that compute-heavy workloads finish in about a second.
fn ops(w: Workload) -> u64 {
    match w {
        Workload::ServeHot => 2000,
        Workload::ServeCold | Workload::TraceIngest => 100,
        Workload::TraceReplay => 24,
        Workload::McSweep => 0,
    }
}
/// Workloads whose inputs stand in for layers another workload skips.
const REFERENCES: [Workload; 2] = [Workload::ServeCold, Workload::TraceReplay];
/// `DelayTable::new` is nanoseconds; time it in batches.
const DELAY_TABLE_BATCH: u32 = 1000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric (or span) name.
    pub layer: &'static str,
    /// Start, µs since the traced run began.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// The request the call served (0 outside requests).
    pub request: u64,
    /// The workload whose inputs the call ran on.
    pub source: Workload,
}

/// Spans and per-layer samples of one traced run.
struct Recorder {
    origin: Instant,
    source: Workload,
    request: u64,
    last_s: f64,
    spans: Vec<Span>,
    /// Samples in the metric's own unit.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Seconds → the unit `layer` reports in (µs for span-only layers).
fn scale(layer: &str) -> f64 {
    match spec::metric(layer).map(|m| m.unit) {
        Some("ms") => 1e3,
        _ => 1e6,
    }
}

impl Recorder {
    fn new(origin: Instant, source: Workload) -> Recorder {
        Recorder {
            origin,
            source,
            request: 0,
            last_s: 0.0,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Times one call into `layer`.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.last_s = secs;
        self.spans.push(Span {
            layer,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: secs * 1e6,
            request: self.request,
            source: self.source,
        });
        self.value(layer, secs * scale(layer));
        out
    }

    /// Records a derived sample (a rate, count or ratio).
    fn value(&mut self, metric: &'static str, v: f64) {
        self.samples.entry(metric).or_default().push(v);
    }
}

/// The in-process stand-ins for the server's cache and trace store.
struct Local<'t> {
    cache: Cache,
    store: HashMap<String, StoredTrace>,
    /// By ID: the trace and the answers to its first and later uploads.
    traces: HashMap<String, (&'t Trace, [String; 2])>,
}

fn execute_layer(job: &Job) -> &'static str {
    match job {
        Job::Simulate(_) => "sim.simulate_us",
        Job::Batch(_) => "sim.batch_us",
        Job::Scenario(_) => "scenarios.run_us",
        Job::Faults(_) => "faults.campaign_us",
        Job::SimulateTrace(_) => "serve.api.execute_trace_us",
    }
}

/// One request through the layers in the order `server.rs` calls them.
fn handle(rec: &mut Recorder, local: &mut Local, bytes: &[u8]) -> Result<(), String> {
    rec.request += 1;
    let limits = Limits::default();
    let request = match rec.time("serve.http.parse_us", || parse_request(bytes, &limits)) {
        Ok(Parse::Complete(r, n)) if n == bytes.len() => r,
        other => return Err(format!("request did not parse: {other:?}")),
    };
    let read = rec.time("serve.http.read_us", || {
        let mut end = 0;
        loop {
            end = (end + READ_CHUNK).min(bytes.len());
            let parsed = parse_request(&bytes[..end], &limits);
            if end == bytes.len() {
                break parsed;
            }
        }
    });
    if !matches!(read, Ok(Parse::Complete(..))) {
        return Err("chunked read did not complete the request".into());
    }
    let response = if request.path == "/v1/trace" {
        let id = rec.time("serve.tracestore.id_us", || {
            TraceStore::id_for(&request.body)
        });
        let bursts = rec.time("store.decode_us", || decode(&request.body))?;
        rec.value(
            "store.decode_mb_s",
            request.body.len() as f64 / 1e6 / rec.last_s,
        );
        let (t, answers) = local.traces.get(&id).ok_or("upload of an unknown trace")?;
        if bursts != t.bursts.len() as u64 {
            return Err(format!("{}: decoded {bursts} bursts", t.meta.name));
        }
        let answer = match local.store.entry(id) {
            Entry::Occupied(_) => &answers[1],
            Entry::Vacant(slot) => {
                slot.insert(inputs::stored(&request.body));
                &answers[0]
            }
        };
        Response::ok(answer.as_str())
    } else {
        let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let job = rec.time("serve.api.parse_us", || {
            inputs::parse_job(&request.path, body, &local.store)
        })?;
        let (key, etag) = rec.time("serve.cache.key_us", || {
            let key = cache::canonical_job(&job);
            let etag = cache::etag_for(&key);
            (key, etag)
        });
        let mut response = match rec.time("serve.cache.get_us", || local.cache.get(&key)) {
            Some(hit) => Response::ok(hit.body),
            None => {
                let body = rec.time(execute_layer(&job), || inputs::execute(&job))?;
                if let Job::SimulateTrace(tj) = &job {
                    replay_in_memory(rec, local, tj)?;
                }
                rec.time("serve.cache.insert_us", || {
                    local.cache.insert(&key, etag.clone(), body.clone())
                });
                Response::ok(body)
            }
        };
        if request.if_none_match(&etag) {
            response = Response::not_modified(etag);
        } else {
            response.etag = Some(etag);
        }
        response
    };
    rec.time("serve.http.encode_us", || response.to_bytes(true));
    Ok(())
}

/// Opens a container and drains every burst, returning the count.
fn decode(container: &[u8]) -> Result<u64, String> {
    let mut reader = suit_store::open_bytes(container).map_err(|e| e.to_string())?;
    let mut n = 0;
    while reader.next_burst().map_err(|e| e.to_string())?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// The engine alone: `run_stream` over the trace's in-memory bursts
/// (fV at the request's level and seed), checked to replay every event.
fn replay_in_memory(rec: &mut Recorder, local: &Local, tj: &TraceJob) -> Result<(), String> {
    let (t, _) = local
        .traces
        .get(&tj.spec.trace)
        .ok_or("replay of an unknown trace")?;
    let cfg = SimConfig {
        seed: tj.spec.seed,
        ..SimConfig::fv_intel(tj.spec.level)
    };
    let result = rec.time("sim.replay_us", || {
        run_stream(&tj.spec.cpu, &t.meta, t.bursts.iter().copied(), &cfg)
    });
    if result.events != t.events {
        return Err(format!(
            "{}: replayed {} of {} events",
            t.meta.name, result.events, t.events
        ));
    }
    rec.value(
        "sim.replay_ns_per_event",
        rec.last_s * 1e9 / t.events as f64,
    );
    Ok(())
}

/// Replays `w`'s set-up and its first client's request stream.
fn replay_workload(rec: &mut Recorder, w: Workload, seed: u64) -> Result<(), String> {
    let traces = match w {
        Workload::TraceIngest | Workload::TraceReplay => inputs::traces(seed),
        _ => Vec::new(),
    };
    let cfg = ServeConfig::default();
    let mut local = Local {
        cache: Cache::new(cfg.cache_entries, cfg.cache_bytes),
        store: HashMap::new(),
        traces: traces
            .iter()
            .map(|t| {
                let answers =
                    [true, false].map(|created| inputs::upload_body(&t.container, created));
                (t.id.clone(), (t, answers))
            })
            .collect(),
    };
    match w {
        Workload::ServeHot => {
            let bodies = inputs::hot_bodies(seed);
            let etags: Vec<String> = bodies
                .iter()
                .map(|b| inputs::simulate_etag(&b[0]))
                .collect();
            for b in &bodies {
                handle(
                    rec,
                    &mut local,
                    &inputs::post("/v1/simulate", "", b[0].as_bytes()),
                )?;
            }
            for k in 0..ops(w) {
                let (e, spelling, revalidate) = inputs::hot_op(seed, 0, k);
                let header = if revalidate {
                    format!("if-none-match: {}\r\n", etags[e])
                } else {
                    String::new()
                };
                let bytes = inputs::post("/v1/simulate", &header, bodies[e][spelling].as_bytes());
                handle(rec, &mut local, &bytes)?;
            }
        }
        Workload::ServeCold => {
            for k in 0..ops(w) {
                let (path, body) = inputs::cold_request(seed, 0, k);
                handle(rec, &mut local, &inputs::post(path, "", body.as_bytes()))?;
            }
        }
        Workload::TraceIngest | Workload::TraceReplay => {
            let uploads: Vec<Vec<u8>> = traces
                .iter()
                .map(|t| {
                    rec.value("store.pack_ms", t.pack_s * 1e3);
                    rec.value(
                        "store.bits_per_burst",
                        t.container.len() as f64 * 8.0 / t.bursts.len() as f64,
                    );
                    inputs::post("/v1/trace", "", &t.container)
                })
                .collect();
            for upload in &uploads {
                handle(rec, &mut local, upload)?;
            }
            for k in 0..ops(w) {
                if w == Workload::TraceIngest {
                    handle(rec, &mut local, &uploads[inputs::ingest_op(seed, 0, k)])?;
                } else {
                    let (_, body) = inputs::replay_request(seed, 0, k, &traces);
                    let bytes = inputs::post("/v1/simulate-trace", "", body.as_bytes());
                    handle(rec, &mut local, &bytes)?;
                }
            }
        }
        Workload::McSweep => {}
    }
    Ok(())
}

/// The campaign at one and at two workers, and `DelayTable::new`.
fn engine_layers(rec: &mut Recorder, seed: u64) -> Result<(), String> {
    let campaign = Campaign::new(seed);
    let one = rec.time("sim.mc_campaign_1t", || campaign.run(1));
    let t1 = rec.last_s;
    let two = rec.time("sim.mc_campaign_ms", || campaign.run(MC_THREADS));
    rec.value(
        "exec.parallel_efficiency",
        t1 / (MC_THREADS as f64 * rec.last_s),
    );
    if one != two {
        return Err("campaign differs between 1 and 2 workers".into());
    }
    let cpu = CpuModel::xeon_4208();
    for _ in 0..20 {
        rec.time("hw.delay_table_batch", || {
            for _ in 0..DELAY_TABLE_BATCH {
                black_box(DelayTable::new(black_box(&cpu.delays)));
            }
        });
        let per_call_us = rec.last_s * 1e6 / f64::from(DELAY_TABLE_BATCH);
        rec.value("hw.delay_table_us", per_call_us);
    }
    Ok(())
}

/// The traced run's result.
pub struct Traced {
    /// Requests and campaign runs replayed.
    pub attempted: u64,
    /// Every per-layer metric (median of its samples), in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Median seconds of the layers `w`'s own inputs reached.
    pub own_layers: Vec<(&'static str, f64)>,
    /// Every timed call.
    pub spans: Vec<Span>,
}

/// Profiles every layer for `w` and `seed`.
pub fn traced(w: Workload, seed: u64) -> Result<Traced, String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, w);
    replay_workload(&mut rec, w, seed)?;
    let own_layers = rec
        .samples
        .iter()
        .filter(|(name, _)| name.ends_with("_us"))
        .map(|(name, s)| (*name, crate::load::median(s) / scale(name)))
        .collect();
    engine_layers(&mut rec, seed)?;
    let mut attempted = rec.request + 2;
    for reference in REFERENCES {
        if PER_LAYER.iter().all(|m| rec.samples.contains_key(m.name)) {
            break;
        }
        let mut r = Recorder::new(origin, reference);
        replay_workload(&mut r, reference, seed)?;
        attempted += r.request;
        for (name, samples) in r.samples {
            rec.samples.entry(name).or_insert(samples);
        }
        rec.spans.extend(r.spans);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| match rec.samples.get(m.name) {
            Some(s) => Ok((m.name, crate::load::median(s))),
            None => Err(format!("no samples for {}", m.name)),
        })
        .collect::<Result<_, String>>()?;
    Ok(Traced {
        attempted,
        metrics,
        own_layers,
        spans: rec.spans,
    })
}

/// Spans as Chrome trace JSON: one track per layer, `"X"` events in
/// start order.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    for s in spans {
        if !tracks.contains(&s.layer) {
            tracks.push(s.layer);
        }
    }
    let mut events: Vec<String> = tracks
        .iter()
        .enumerate()
        .map(|(tid, name)| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                escape(name)
            )
        })
        .collect();
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    events.extend(ordered.iter().map(|s| {
        format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"request\":{}}}}}",
            escape(s.layer),
            s.source.name(),
            tracks
                .iter()
                .position(|t| *t == s.layer)
                .expect("track listed above"),
            s.start_us,
            s.dur_us,
            s.request
        )
    }));
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_telemetry::perfetto::validate_perfetto;

    #[test]
    fn spans_export_as_valid_chrome_trace_json() {
        let mut rec = Recorder::new(Instant::now(), Workload::ServeHot);
        replay_workload(&mut rec, Workload::ServeHot, 3).expect("in-process replay");
        let stats = validate_perfetto(&chrome_json(&rec.spans)).expect("valid trace JSON");
        assert_eq!(stats.spans, rec.spans.len());
        // 64 warm-up requests plus the stream, five layers each at least.
        let requests = (64 + ops(Workload::ServeHot)) as usize;
        assert_eq!(stats.count("serve.http.parse_us"), requests);
        assert!(stats.count("serve.cache.get_us") == requests);
    }

    #[test]
    fn store_replay_checks_every_event() {
        let mut rec = Recorder::new(Instant::now(), Workload::TraceReplay);
        replay_workload(&mut rec, Workload::TraceReplay, 2).expect("replays whole traces");
        assert_eq!(
            rec.samples["store.pack_ms"].len(),
            inputs::TRACE_WORKLOADS.len()
        );
        assert!(rec.samples["sim.replay_ns_per_event"]
            .iter()
            .all(|v| *v > 0.0));
    }
}
