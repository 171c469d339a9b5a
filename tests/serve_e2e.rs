//! Loopback end-to-end tests for `suit-serve`: real sockets, real job
//! slots, in-process server.
//!
//! The load-bearing assertion is *byte identity*: a `/v1/batch` response
//! must equal the JSON serialization of the equivalent direct
//! `suit-sim` API call — at one worker thread and at four. Everything
//! else (400s, 429 backpressure, 408 deadlines, graceful drain) pins the
//! service's robustness contract.

use std::time::{Duration, Instant};

use suit::exec::Threads;
use suit::serve::api;
use suit::serve::{
    request, request_bytes, request_text, request_with_headers, ServeConfig, Server,
    ShutdownHandle, TraceStore,
};
use suit::sim::experiment::run_table6;
use suit::store;
use suit::telemetry::json::{parse, Value};
use suit::trace::io::TraceMeta;
use suit::trace::{profile, TraceGen};

/// Binds an ephemeral port, runs the server on a background thread, and
/// returns the address, a shutdown handle, and the join handle.
fn start(
    cfg: ServeConfig,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn stop(handle: ShutdownHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("server thread").expect("server run");
}

const TIMEOUT: Duration = Duration::from_secs(120);

fn post(addr: &str, path: &str, body: &str) -> Result<String, String> {
    request_text(addr, "POST", path, Some(body), TIMEOUT)
}

/// Field lookup in a parsed JSON object.
fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    match v {
        Value::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field '{name}'")),
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn batch_table6_is_byte_identical_to_the_direct_api_at_any_thread_count() {
    const CAP: u64 = 20_000_000;
    // The ground truth: the same sweep through the suit-sim API,
    // serialized by the same functions the server uses.
    let expect = api::batch_table6_json(&run_table6(Threads::Fixed(1), Some(CAP)));
    let body = format!("{{\"sweep\":\"table6\",\"max_insts\":{CAP}}}");
    for workers in [1, 4] {
        let (addr, handle, join) = start(ServeConfig {
            threads: Threads::Fixed(workers),
            ..ServeConfig::default()
        });
        let got = post(&addr, "/v1/batch", &body).expect("batch");
        assert_eq!(
            got, expect,
            "/v1/batch diverged from run_table6 at {workers} worker(s)"
        );
        stop(handle, join);
    }
}

#[test]
fn simulate_round_trips_and_metrics_count_it() {
    let (addr, handle, join) = start(ServeConfig::default());
    let got = post(
        &addr,
        "/v1/simulate",
        "{\"workload\":\"557.xz\",\"insts\":50000000}",
    )
    .expect("simulate");
    let parsed = parse(&got).expect("response is valid JSON");
    let result = field(&parsed, "result");
    assert!(matches!(
        field(result, "workload"),
        Value::Str(s) if s == "557.xz"
    ));

    let metrics = request_text(&addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
    let m = parse(&metrics).expect("metrics JSON");
    assert!(matches!(
        field(field(&m, "requests"), "accepted"),
        Value::Num(n) if *n >= 1.0
    ));
    assert!(matches!(
        field(field(field(&m, "latency_us"), "simulate"), "count"),
        Value::Num(n) if *n == 1.0
    ));
    stop(handle, join);
}

#[test]
fn malformed_bodies_are_400_with_structured_json_never_a_panic() {
    let (addr, handle, join) = start(ServeConfig::default());
    for bad in [
        "",
        "not json",
        "[1,2,3]",
        "{\"workload\":\"no-such-workload\"}",
        "{\"workload\":\"557.xz\",\"bogus\":1}",
        "{\"workload\":\"557.xz\",\"insts\":0}",
        "{\"workload\":\"557.xz\",\"strategy\":\"warp\"}",
        "{\"workload\":\"557.xz\",\"seed\":-1}",
        // Unbounded, this sizes the engine's per-core streams at 800 GB:
        // an allocator abort no `catch_unwind` survives, so `/v1/healthz`
        // below would find the server gone.
        "{\"workload\":\"557.xz\",\"cores\":100000000000,\"insts\":1000}",
    ] {
        let resp = request(&addr, "POST", "/v1/simulate", Some(bad), TIMEOUT).expect("request");
        assert_eq!(resp.status, 400, "body {bad:?}: {}", resp.text().unwrap());
        let err = parse(resp.text().expect("utf-8")).expect("error body is valid JSON");
        assert!(matches!(
            field(field(&err, "error"), "status"),
            Value::Num(n) if *n == 400.0
        ));
    }
    // The server survived all of it.
    let health = request_text(&addr, "GET", "/v1/healthz", None, TIMEOUT).expect("healthz");
    assert_eq!(health, "{\"status\":\"ok\"}");
    stop(handle, join);
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, queue depth one: at most two jobs can be in the system,
    // so a burst of concurrent slow batches must bounce at least one
    // request with 429. Cache off: identical requests would otherwise
    // coalesce onto one computation and never fill the queue.
    let (addr, handle, join) = start(ServeConfig {
        threads: Threads::Fixed(1),
        queue_depth: 1,
        cache_entries: 0,
        ..ServeConfig::default()
    });
    let slow = "{\"workloads\":\"all\",\"insts\":2000000000}";
    let mut rejected = 0u32;
    'rounds: for _ in 0..20 {
        let results: Vec<_> = std::thread::scope(|scope| {
            let addr = addr.as_str();
            let posts: Vec<_> = (0..6)
                .map(|_| {
                    scope.spawn(move || {
                        request(addr, "POST", "/v1/batch", Some(slow), TIMEOUT).expect("request")
                    })
                })
                .collect();
            posts.into_iter().map(|t| t.join().expect("join")).collect()
        });
        for resp in results {
            match resp.status {
                200 => {}
                429 => {
                    // Retry-After is computed from the observed drain
                    // rate (queue depth × recent p50), clamped to 1..=60,
                    // and echoed in the JSON body for honest backoff.
                    let secs: u32 = resp
                        .header("retry-after")
                        .expect("429 needs Retry-After")
                        .parse()
                        .expect("Retry-After must be integral seconds");
                    assert!((1..=60).contains(&secs), "unclamped Retry-After {secs}");
                    let err = parse(resp.text().expect("utf-8")).expect("429 body is JSON");
                    assert!(matches!(
                        field(field(&err, "error"), "retry_after_s"),
                        Value::Num(n) if *n == secs as f64
                    ));
                    rejected += 1;
                }
                other => panic!("unexpected status {other}: {}", resp.text().unwrap()),
            }
            if rejected > 0 {
                break 'rounds;
            }
        }
    }
    assert!(rejected >= 1, "bounded queue never produced a 429");
    let metrics = request_text(&addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
    let m = parse(&metrics).expect("metrics JSON");
    assert!(matches!(
        field(field(&m, "requests"), "rejected"),
        Value::Num(n) if *n >= 1.0
    ));
    stop(handle, join);
}

#[test]
fn an_already_expired_deadline_is_408() {
    let (addr, handle, join) = start(ServeConfig::default());
    let resp = request(
        &addr,
        "POST",
        "/v1/simulate",
        Some("{\"workload\":\"557.xz\",\"deadline_ms\":0}"),
        TIMEOUT,
    )
    .expect("request");
    assert_eq!(resp.status, 408, "{}", resp.text().unwrap());
    stop(handle, join);
}

#[test]
fn faults_campaign_reports_table1_and_is_deterministic() {
    let body = "{\"executions\":200,\"seed\":7}";
    let (addr, handle, join) = start(ServeConfig::default());
    let a = post(&addr, "/v1/faults", body).expect("faults");
    let b = post(&addr, "/v1/faults", body).expect("faults again");
    assert_eq!(a, b, "same campaign spec must serialize identically");
    let parsed = parse(&a).expect("faults JSON");
    match field(&parsed, "table1") {
        Value::Arr(rows) => assert!(!rows.is_empty(), "table1 must list opcodes"),
        other => panic!("table1 should be an array, got {other:?}"),
    }
    stop(handle, join);
}

#[test]
fn scenario_round_trips_match_the_direct_library_call_at_1_and_4_workers() {
    use suit::scenarios::{scrooge, sram, ScroogeConfig, SramScenarioConfig};
    use suit::telemetry::Telemetry;

    // Small but representative configs; the server must serialize the
    // exact bytes of the library reports at every worker count.
    let sram_body = "{\"scenario\":\"sram\",\"cache_banks\":3,\"rob_banks\":2,\"reads\":128,\
                     \"offsets_mv\":[-100,-150,-180],\"audit_len\":300,\"seed\":9}";
    let sram_cfg = SramScenarioConfig {
        cache_banks: 3,
        rob_banks: 2,
        reads: 128,
        offsets_mv: vec![-100.0, -150.0, -180.0],
        audit_len: 300,
        seed: 9,
        ..SramScenarioConfig::default()
    };
    let scrooge_body = "{\"scenario\":\"scrooge\",\"epoch_insts\":200000,\"audit_len\":300,\
                        \"seed\":9}";
    let scrooge_cfg = ScroogeConfig {
        epoch_insts: 200_000,
        audit_len: 300,
        seed: 9,
        ..ScroogeConfig::default()
    };
    for workers in [1, 4] {
        // Served bodies equal the library's at any worker count, though
        // the service runs each job alone on its thread.
        let threads = Threads::Fixed(workers);
        let (addr, handle, join) = start(ServeConfig {
            threads,
            ..ServeConfig::default()
        });
        let got = post(&addr, "/v1/scenario", sram_body).expect("sram scenario");
        assert_eq!(
            got,
            sram::run(&sram_cfg, threads, &Telemetry::off()).to_json(),
            "/v1/scenario (sram) diverged from the library at {workers} worker(s)"
        );
        let got = post(&addr, "/v1/scenario", scrooge_body).expect("scrooge scenario");
        assert_eq!(
            got,
            scrooge::search(&scrooge_cfg, threads, &Telemetry::off())
                .unwrap()
                .to_json(),
            "/v1/scenario (scrooge) diverged from the library at {workers} worker(s)"
        );

        // The endpoint has its own latency histogram on /v1/metrics.
        let metrics = request_text(&addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
        let m = parse(&metrics).expect("metrics JSON");
        assert!(matches!(
            field(field(field(&m, "latency_us"), "scenario"), "count"),
            Value::Num(n) if *n >= 2.0
        ));
        stop(handle, join);
    }
}

#[test]
fn scenario_bodies_validate_strictly_over_the_wire() {
    let (addr, handle, join) = start(ServeConfig::default());
    for bad in [
        "{}",
        "{\"scenario\":\"warp\"}",
        "{\"scenario\":\"sram\",\"bogus\":1}",
        "{\"scenario\":\"sram\",\"cache_banks\":1e308}",
        "{\"scenario\":\"sram\",\"sigma_mv\":1e999}",
        "{\"scenario\":\"scrooge\",\"offset_steps\":1}",
    ] {
        let resp = request(&addr, "POST", "/v1/scenario", Some(bad), TIMEOUT).expect("request");
        assert_eq!(resp.status, 400, "accepted {bad:?}");
        let err = parse(resp.text().expect("utf-8")).expect("error body is valid JSON");
        assert!(matches!(
            field(field(&err, "error"), "status"),
            Value::Num(n) if *n == 400.0
        ));
    }
    // Wrong method is routed like every other compute endpoint.
    let resp = request(&addr, "GET", "/v1/scenario", None, TIMEOUT).expect("request");
    assert_eq!(resp.status, 405);
    stop(handle, join);
}

/// The slow job the slot tests park in a server's only slot: a shared
/// 4-core domain runs every round on the general path (a lone core's
/// bursts commit in closed form, so a single-core batch ends before a
/// poll sees it). About 1.5 s in a debug build.
const SLOW_BATCH: &str = "{\"workloads\":[\"Nginx\"],\"insts\":50000000,\"cores\":4}";

#[test]
fn graceful_shutdown_drains_the_inflight_job() {
    let (addr, handle, join) = start(ServeConfig {
        threads: Threads::Fixed(1),
        ..ServeConfig::default()
    });
    // Park the slow job on the single worker…
    let slow_addr = addr.clone();
    let slow = std::thread::spawn(move || post(&slow_addr, "/v1/batch", SLOW_BATCH));
    // …wait until it is actually inflight…
    let mut inflight = false;
    for _ in 0..200 {
        let metrics = request_text(&addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
        let m = parse(&metrics).expect("metrics JSON");
        if matches!(field(field(&m, "queue"), "inflight"), Value::Num(n) if *n >= 1.0) {
            inflight = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(inflight, "slow job never became inflight");
    // …then ask for shutdown over HTTP. The drain contract: the inflight
    // job still completes with a full 200 response, and run() returns.
    let drain = post(&addr, "/v1/shutdown", "{}").expect("shutdown");
    assert_eq!(drain, "{\"status\":\"draining\"}");
    let slow_result = slow
        .join()
        .expect("slow thread")
        .expect("inflight job must complete");
    assert!(
        slow_result.contains("\"results\""),
        "drained job returned a full batch result"
    );
    join.join().expect("server thread").expect("server run");
    let _ = handle;
}

/// Reads a numeric field out of the parsed `/v1/metrics` queue section.
fn queue_metric(addr: &str, name: &str) -> f64 {
    let metrics = request_text(addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
    let m = parse(&metrics).expect("metrics JSON");
    match field(field(&m, "queue"), name) {
        Value::Num(n) => *n,
        other => panic!("queue.{name} should be a number, got {other:?}"),
    }
}

/// Polls `/v1/metrics` until `queue.{name}` reads `value`, failing if the
/// `slow` job ends first: the test then needs a slower job.
fn await_queue<T>(
    addr: &str,
    name: &str,
    value: f64,
    slow: &std::thread::JoinHandle<T>,
    what: &str,
) {
    for _ in 0..200 {
        if queue_metric(addr, name) == value {
            return;
        }
        assert!(
            !slow.is_finished(),
            "the slow job ended before {what}; the test needs a slower job"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("queue.{name} never reached {value} ({what})");
}

#[test]
fn waiting_jobs_start_in_arrival_order() {
    let (addr, handle, join) = start(ServeConfig {
        threads: Threads::Fixed(1),
        queue_depth: 4,
        cache_entries: 0,
        ..ServeConfig::default()
    });
    // Park the drain test's slow job in the only slot…
    let slow_addr = addr.clone();
    let slow = std::thread::spawn(move || post(&slow_addr, "/v1/batch", SLOW_BATCH));
    await_queue(&addr, "inflight", 1.0, &slow, "it was seen running");
    // …then queue job A, and job B behind it. B is a shared-domain batch
    // too, so it cannot finish before A's response is read even if it
    // started first.
    let finished = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, (name, path, body)) in [
            (
                "A",
                "/v1/simulate",
                "{\"workload\":\"557.xz\",\"insts\":1000000}",
            ),
            (
                "B",
                "/v1/batch",
                "{\"workloads\":[\"Nginx\"],\"insts\":5000000,\"cores\":4}",
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let (addr, finished, slow) = (&addr, &finished, &slow);
            scope.spawn(move || {
                post(addr, path, body).unwrap_or_else(|e| panic!("job {name}: {e}"));
                finished.lock().unwrap().push(name);
            });
            let what = format!("job {name} was queued");
            await_queue(addr, "depth", (i + 1) as f64, slow, &what);
        }
    });
    assert_eq!(*finished.lock().unwrap(), ["A", "B"]);
    slow.join().expect("slow thread").expect("slow job");
    stop(handle, join);
}

#[test]
fn a_waiting_job_is_answered_408_as_soon_as_its_deadline_passes() {
    let (addr, handle, join) = start(ServeConfig {
        threads: Threads::Fixed(1),
        cache_entries: 0,
        ..ServeConfig::default()
    });
    // Park the slow job in the only slot…
    let began = Instant::now();
    let slow_addr = addr.clone();
    let slow = std::thread::spawn(move || {
        let body = post(&slow_addr, "/v1/batch", SLOW_BATCH);
        (body, began.elapsed())
    });
    await_queue(&addr, "inflight", 1.0, &slow, "it was seen running");
    // …then queue a job whose deadline passes long before the slot frees.
    let sent = Instant::now();
    let resp = request(
        &addr,
        "POST",
        "/v1/simulate",
        Some("{\"workload\":\"557.xz\",\"deadline_ms\":50}"),
        TIMEOUT,
    )
    .expect("request");
    let waited = sent.elapsed();
    assert!(
        !slow.is_finished(),
        "the slow job ended before the 408 came; the test needs a slower job"
    );
    assert_error(&resp, 408, "deadline expired while queued", "queued job");
    assert_eq!(
        queue_metric(&addr, "depth"),
        0.0,
        "the expired job left the line"
    );
    let (body, slow_took) = slow.join().expect("slow thread");
    body.expect("slow job");
    assert!(
        waited * 2 < slow_took,
        "the 408 took {waited:?}, the slow job {slow_took:?}"
    );
    stop(handle, join);
}

#[test]
fn a_short_job_beside_a_lone_batch_on_a_two_slot_server_starts_at_once() {
    let (addr, handle, join) = start(ServeConfig {
        threads: Threads::Fixed(2),
        cache_entries: 0,
        ..ServeConfig::default()
    });
    // A lone batch of two slow shared-domain runs takes one slot and runs
    // them one after the other on its own thread…
    let batch = "{\"workloads\":[\"Nginx\",\"Nginx\"],\"insts\":50000000,\"cores\":4}";
    let short = "{\"workload\":\"557.xz\",\"insts\":1000000}";
    let began = Instant::now();
    let batch_addr = addr.clone();
    let slow = std::thread::spawn(move || {
        let body = post(&batch_addr, "/v1/batch", batch);
        (body, began.elapsed())
    });
    await_queue(&addr, "inflight", 1.0, &slow, "it was seen running");
    // …so a short job takes the other slot at once instead of waiting for
    // a run the batch fanned out onto it.
    let sent = Instant::now();
    let got = post(&addr, "/v1/simulate", short).expect("simulate");
    let waited = sent.elapsed();
    assert!(
        !slow.is_finished(),
        "the batch ended before the short job was answered"
    );
    let (body, batch_took) = slow.join().expect("batch thread");
    let body = body.expect("batch");
    assert!(
        waited * 4 < batch_took,
        "the short job took {waited:?} beside a {batch_took:?} batch"
    );
    let (job, _) = api::parse_batch(batch).expect("valid batch");
    let direct = api::execute(&job, Threads::Fixed(1), api::Deadline(None)).expect("direct");
    assert_eq!(body, direct, "{batch}");
    let (job, _) = api::parse_simulate(short).expect("valid simulate");
    let direct = api::execute(&job, Threads::Fixed(1), api::Deadline(None)).expect("direct");
    assert_eq!(got, direct, "{short}");
    stop(handle, join);
}

#[test]
fn shutdown_wakes_a_server_bound_to_an_unspecified_address() {
    let server = Server::bind("0.0.0.0:0", ServeConfig::default()).expect("bind 0.0.0.0:0");
    let handle = server.shutdown_handle();
    let (done, ran) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run()));
    // Either order must work; the pause makes it likely that `run` is
    // already blocked in `accept`, the path under test. No client ever
    // connects.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    ran.recv_timeout(Duration::from_secs(5))
        .expect("run() must return soon after shutdown")
        .expect("server run");
}

/// Reads a numeric field out of the parsed `/v1/metrics` cache section.
fn cache_metric(addr: &str, name: &str) -> f64 {
    let metrics = request_text(addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
    let m = parse(&metrics).expect("metrics JSON");
    match field(field(&m, "cache"), name) {
        Value::Num(n) => *n,
        other => panic!("cache.{name} should be a number, got {other:?}"),
    }
}

#[test]
fn cache_on_and_cache_off_responses_are_byte_identical_at_1_and_4_workers() {
    let simulate = "{\"workload\":\"557.xz\",\"insts\":50000000,\"seed\":11}";
    let batch = "{\"workloads\":[\"557.xz\",\"Nginx\"],\"insts\":20000000,\"seed\":11}";
    for workers in [1, 4] {
        let (addr, handle, join) = start(ServeConfig {
            threads: Threads::Fixed(workers),
            cache_entries: 0, // cache disabled: every request computes
            ..ServeConfig::default()
        });
        let sim_off = post(&addr, "/v1/simulate", simulate).expect("simulate off");
        let batch_off = post(&addr, "/v1/batch", batch).expect("batch off");
        stop(handle, join);

        let (addr, handle, join) = start(ServeConfig {
            threads: Threads::Fixed(workers),
            ..ServeConfig::default() // cache enabled by default
        });
        // First request computes (miss), second is served from cache.
        let sim_miss = post(&addr, "/v1/simulate", simulate).expect("simulate miss");
        let sim_hit = post(&addr, "/v1/simulate", simulate).expect("simulate hit");
        let batch_miss = post(&addr, "/v1/batch", batch).expect("batch miss");
        assert_eq!(
            sim_off, sim_miss,
            "cache-on diverged at {workers} worker(s)"
        );
        assert_eq!(
            sim_off, sim_hit,
            "cached bytes diverged at {workers} worker(s)"
        );
        assert_eq!(
            batch_off, batch_miss,
            "batch diverged at {workers} worker(s)"
        );
        assert!(
            cache_metric(&addr, "hits") >= 1.0,
            "hit counter never moved"
        );
        assert_eq!(cache_metric(&addr, "misses"), 2.0);
        assert!(cache_metric(&addr, "entries") >= 2.0);
        stop(handle, join);
    }
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_computation() {
    const N: usize = 4;
    let (addr, handle, join) = start(ServeConfig {
        threads: Threads::Fixed(1),
        ..ServeConfig::default()
    });
    let slow = "{\"workloads\":\"all\",\"insts\":2000000000,\"seed\":3}";
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let posts: Vec<_> = (0..N)
            .map(|_| scope.spawn(move || post(addr, "/v1/batch", slow).expect("batch")))
            .collect();
        posts.into_iter().map(|t| t.join().expect("join")).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "coalesced responses must be identical");
    }
    // The load-bearing count: N identical requests, exactly ONE
    // computation. Every non-leader either coalesced onto the flight or
    // (if it arrived after publication) hit the cache.
    assert_eq!(
        cache_metric(&addr, "misses"),
        1.0,
        "computation ran more than once"
    );
    assert_eq!(
        cache_metric(&addr, "coalesced") + cache_metric(&addr, "hits"),
        (N - 1) as f64
    );
    stop(handle, join);
}

#[test]
fn if_none_match_revalidation_round_trips_304() {
    let (addr, handle, join) = start(ServeConfig::default());
    let body = "{\"workload\":\"557.xz\",\"insts\":50000000}";
    let first = request(&addr, "POST", "/v1/simulate", Some(body), TIMEOUT).expect("request");
    assert_eq!(first.status, 200);
    let etag = first
        .header("etag")
        .expect("cacheable 200 carries an ETag")
        .to_string();
    assert!(
        etag.starts_with("\"suit-") && etag.ends_with('"'),
        "strong quoted ETag, got {etag}"
    );

    // Revalidate with the tag: 304, no body, tag echoed.
    let revalidated = request_with_headers(
        &addr,
        "POST",
        "/v1/simulate",
        Some(body),
        &[("if-none-match", &etag)],
        TIMEOUT,
    )
    .expect("conditional request");
    assert_eq!(revalidated.status, 304);
    assert!(revalidated.body.is_empty(), "304 must not carry a body");
    assert_eq!(revalidated.header("etag"), Some(etag.as_str()));

    // A stale tag still gets the full representation.
    let stale = request_with_headers(
        &addr,
        "POST",
        "/v1/simulate",
        Some(body),
        &[("if-none-match", "\"suit-00000000000000000000000000000000\"")],
        TIMEOUT,
    )
    .expect("stale conditional request");
    assert_eq!(stale.status, 200);
    assert_eq!(stale.body, first.body);
    assert!(cache_metric(&addr, "not_modified") >= 1.0);
    stop(handle, join);
}

#[test]
fn non_finite_numbers_in_bodies_are_structured_400s() {
    let (addr, handle, join) = start(ServeConfig::default());
    for (path, bad) in [
        ("/v1/simulate", "{\"workload\":\"557.xz\",\"seed\":1e999}"),
        ("/v1/batch", "{\"workloads\":[\"557.xz\"],\"insts\":1e999}"),
        ("/v1/faults", "{\"sigma_mv\":-1e999}"),
    ] {
        let resp = request(&addr, "POST", path, Some(bad), TIMEOUT).expect("request");
        assert_eq!(resp.status, 400, "{path} accepted {bad:?}");
        let err = parse(resp.text().expect("utf-8")).expect("error body is valid JSON");
        assert!(matches!(
            field(field(&err, "error"), "status"),
            Value::Num(n) if *n == 400.0
        ));
    }
    stop(handle, join);
}

#[test]
fn connection_close_inside_a_token_list_closes_after_the_response() {
    // A raw-socket exchange: `Connection: close, TE` must yield
    // `connection: close` back and EOF after one response — the
    // pre-fix parser treated the token list as keep-alive.
    use std::io::{Read, Write};
    let (addr, handle, join) = start(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close, TE\r\n\r\n")
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read to EOF");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.contains("connection: close"),
        "server must acknowledge the close: {text}"
    );
    stop(handle, join);
}

/// Asserts a structured error with exactly this status and message.
fn assert_error(resp: &suit::serve::ClientResponse, status: u16, message: &str, what: &str) {
    let text = resp.text().expect("utf-8 body");
    assert_eq!(resp.status, status, "{what}: {text}");
    let quoted = suit::telemetry::json::escape(message);
    assert!(
        text.contains(&format!("\"message\":{quoted}")),
        "{what}: expected message {quoted}, got {text}"
    );
}

#[test]
fn unknown_paths_and_wrong_methods_fail_cleanly() {
    let (addr, handle, join) = start(ServeConfig::default());
    let resp = request(&addr, "GET", "/v1/nope", None, TIMEOUT).expect("request");
    assert_eq!(resp.status, 404);
    let resp = request(&addr, "GET", "/v1/simulate", None, TIMEOUT).expect("request");
    assert_eq!(resp.status, 405);
    let resp = request(&addr, "POST", "/v1/metrics", Some("{}"), TIMEOUT).expect("request");
    assert_eq!(resp.status, 405);

    // An unknown path is a 404 under GET and POST; any other method is a
    // 405 on every path, known or not.
    for method in ["GET", "POST"] {
        let resp = request(&addr, method, "/v1/nope", Some("{}"), TIMEOUT).expect("request");
        let what = format!("{method} /v1/nope");
        assert_error(&resp, 404, "no such endpoint '/v1/nope'", &what);
    }
    let resp = request(&addr, "PUT", "/v1/nope", None, TIMEOUT).expect("request");
    assert_error(&resp, 405, "unsupported method 'PUT'", "PUT /v1/nope");

    // A small stored trace, so `GET /v1/trace/<id>` has something to find.
    let p = profile::by_name("502.gcc").expect("502.gcc profile");
    let bursts: Vec<_> = TraceGen::new(p, 7).take(64).collect();
    let meta = TraceMeta {
        name: p.name.into(),
        ipc: p.ipc,
        total_insts: bursts.iter().map(|b| b.total_insts()).sum(),
    };
    let packed = store::pack_to_vec(&meta, bursts, 16).expect("pack");
    let up = request_bytes(&addr, "POST", "/v1/trace", &packed, TIMEOUT).expect("upload");
    assert_eq!(up.status, 200, "upload: {:?}", up.text());
    let info_path = format!("/v1/trace/{}", TraceStore::id_for(&packed));

    // Every endpoint with its one method. The right method must reach the
    // handler: a malformed JSON body is a 400, never a 404 or 405.
    // `/v1/shutdown` goes last, since it starts the drain.
    let routes: [(&str, &str); 10] = [
        ("GET", "/v1/healthz"),
        ("GET", "/v1/metrics"),
        ("POST", "/v1/simulate"),
        ("POST", "/v1/batch"),
        ("POST", "/v1/faults"),
        ("POST", "/v1/scenario"),
        ("POST", "/v1/trace"),
        ("GET", &info_path),
        ("POST", "/v1/simulate-trace"),
        ("POST", "/v1/shutdown"),
    ];
    for (right, path) in routes {
        let resp = request(&addr, "PUT", path, None, TIMEOUT).expect("request");
        assert_error(
            &resp,
            405,
            "unsupported method 'PUT'",
            &format!("PUT {path}"),
        );
        for method in ["GET", "POST"] {
            let resp = if method == right && path == "/v1/trace" {
                request_bytes(&addr, method, path, &packed, TIMEOUT)
            } else {
                request(&addr, method, path, Some("not json"), TIMEOUT)
            }
            .expect("request");
            let what = format!("{method} {path}");
            if method == right {
                assert!(
                    resp.status != 404 && resp.status != 405,
                    "{what}: {} {:?}",
                    resp.status,
                    resp.text()
                );
            } else {
                assert_error(&resp, 405, &format!("wrong method for {path}"), &what);
            }
        }
    }
    stop(handle, join);
}
