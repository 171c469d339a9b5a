//! The resident service: acceptor, bounded admission queue, worker pool,
//! keep-alive connections with an idle reaper, and graceful shutdown.
//!
//! ## Threading model
//!
//! * **Acceptor** — the thread inside [`Server::run`] polls the listener
//!   (non-blocking accept + short sleep so the shutdown flag is always
//!   observed) and spawns one scoped thread per connection, capped at
//!   [`ServeConfig::max_connections`] (`503` beyond the cap).
//! * **Connection threads** — own the socket: read with short timeouts
//!   (accumulating idle time so stale keep-alive connections are reaped
//!   after [`ServeConfig::idle_timeout`]), parse with [`crate::http`]'s
//!   strict limits, answer control endpoints inline, and hand compute
//!   jobs to the admission queue.
//! * **Worker pool** — [`ServeConfig::threads`] workers pop jobs from the
//!   bounded queue and run them; sweeps inside a job fan out over
//!   [`suit_exec`] with the same thread policy, which is what keeps every
//!   response byte-identical at any worker count.
//!
//! ## Backpressure and deadlines
//!
//! The admission queue holds at most [`ServeConfig::queue_depth`] jobs.
//! A request arriving while the queue is full is answered `429` with a
//! `Retry-After` header *immediately* — the server never buffers
//! unbounded work. Each job may carry a deadline (`deadline_ms` body
//! field, else [`ServeConfig::default_deadline_ms`]): expired jobs are
//! answered `408` without running, and batch jobs re-check the deadline
//! between fan-out points.
//!
//! ## Graceful shutdown
//!
//! `POST /v1/shutdown` (or [`Server::shutdown_handle`]) flips one atomic
//! flag. The acceptor stops accepting, workers drain every queued job,
//! connection threads finish their in-flight exchange with
//! `Connection: close`, and [`Server::run`] joins them all before
//! returning — in-flight work completes, nothing is dropped.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use suit_exec::Threads;
use suit_telemetry::{Counter, Hist, Telemetry};

use crate::api::{self, Deadline, ExecError};
use crate::cache::{self, Cache, FlightTable, Role};
use crate::http::{parse_request, Limits, Method, Parse, Request, Response};
use crate::tracestore::{Inserted, StoredTrace, TraceStore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool size; also the `suit-exec` fan-out policy inside
    /// batch jobs (responses are byte-identical at every value).
    pub threads: Threads,
    /// Bounded admission-queue capacity (≥ 1); a full queue answers
    /// `429` + `Retry-After`.
    pub queue_depth: usize,
    /// Request parse limits (max head / body bytes).
    pub limits: Limits,
    /// Keep-alive connections idle longer than this are reaped.
    pub idle_timeout: Duration,
    /// Default per-request deadline when the body names none.
    pub default_deadline_ms: Option<u64>,
    /// Maximum concurrent connections (`503` beyond).
    pub max_connections: usize,
    /// Result-cache entry bound (`--cache-entries`); `0` disables the
    /// cache *and* request coalescing — every request computes.
    pub cache_entries: usize,
    /// Result-cache byte budget over stored response bodies
    /// (`--cache-bytes`); `0` disables the cache like `cache_entries`.
    pub cache_bytes: usize,
    /// Trace-store entry bound (`--trace-entries`): at most this many
    /// uploaded trace containers; a full store answers `413`.
    pub trace_entries: usize,
    /// Trace-store byte budget over stored container bytes
    /// (`--trace-bytes`); `0` (like `trace_entries: 0`) refuses every
    /// upload.
    pub trace_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: Threads::Fixed(1),
            queue_depth: 32,
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(5),
            default_deadline_ms: None,
            max_connections: 64,
            cache_entries: 256,
            cache_bytes: 16 * 1024 * 1024,
            trace_entries: 16,
            trace_bytes: 64 * 1024 * 1024,
        }
    }
}

/// How often blocked reads/accepts re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// One queued compute job.
struct QueuedJob {
    job: api::Job,
    endpoint: Endpoint,
    deadline: Deadline,
    accepted: Instant,
    tx: SyncSender<Response>,
}

/// The compute endpoints (indexes the per-endpoint latency histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Simulate,
    Batch,
    Faults,
    SimulateTrace,
    Scenario,
}

impl Endpoint {
    fn latency_hist(self) -> Hist {
        match self {
            Endpoint::Simulate => Hist::ServeSimulateUs,
            Endpoint::Batch => Hist::ServeBatchUs,
            Endpoint::Faults => Hist::ServeFaultsUs,
            Endpoint::SimulateTrace => Hist::ServeSimulateTraceUs,
            Endpoint::Scenario => Hist::ServeScenarioUs,
        }
    }
}

/// Shared server state.
struct State {
    cfg: ServeConfig,
    tele: Telemetry,
    queue: Mutex<VecDeque<QueuedJob>>,
    job_ready: Condvar,
    inflight: AtomicUsize,
    conns: AtomicUsize,
    shutdown: AtomicBool,
    /// Content-addressed result cache (canonical request → response
    /// bytes + ETag), bounded by `cache_entries`/`cache_bytes`.
    cache: Cache,
    /// Coalescing table: identical in-flight requests share one
    /// computation.
    flights: FlightTable,
    /// Bounded store of uploaded trace containers, content-addressed
    /// by `POST /v1/trace`.
    traces: TraceStore,
}

/// A handle that requests graceful shutdown from outside the server —
/// the programmatic equivalent of `POST /v1/shutdown` (e.g. a signal
/// handler flipping the flag).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<State>);

impl ShutdownHandle {
    /// Begins graceful shutdown: stop accepting, drain, then return
    /// from [`Server::run`].
    pub fn shutdown(&self) {
        self.0.begin_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.0.shutdown.load(Ordering::SeqCst)
    }
}

impl State {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake every idle worker so it can observe the flag and drain.
        let _guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.job_ready.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The bound, not-yet-running service.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        assert!(cfg.queue_depth >= 1, "queue depth must be at least 1");
        let listener = TcpListener::bind(addr)?;
        let cache = Cache::new(cfg.cache_entries, cfg.cache_bytes);
        let traces = TraceStore::new(cfg.trace_entries, cfg.trace_bytes);
        Ok(Server {
            listener,
            state: Arc::new(State {
                cfg,
                tele: Telemetry::with_capacity(16),
                queue: Mutex::new(VecDeque::new()),
                job_ready: Condvar::new(),
                inflight: AtomicUsize::new(0),
                conns: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                cache,
                flights: FlightTable::new(),
                traces,
            }),
        })
    }

    /// The bound local address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.state))
    }

    /// Serves until shutdown is requested, then drains queued and
    /// in-flight jobs and joins every thread before returning.
    pub fn run(self) -> std::io::Result<()> {
        let state = &self.state;
        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..state.cfg.threads.count() {
                scope.spawn(|| worker_loop(state));
            }
            while !state.shutting_down() {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if state.conns.load(Ordering::SeqCst) >= state.cfg.max_connections {
                            let mut s = stream;
                            let _ = Response::error(503, "connection limit reached")
                                .write_to(&mut s, false);
                            continue;
                        }
                        state.conns.fetch_add(1, Ordering::SeqCst);
                        scope.spawn(move || {
                            handle_connection(state, stream);
                            state.conns.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        state.begin_shutdown();
                        return Err(e);
                    }
                }
            }
            Ok(())
        })
        // All scoped threads (workers drained the queue, connections
        // finished their in-flight exchange) have joined here.
    }
}

/// Worker: pop jobs until the queue is empty *and* shutdown was
/// requested — queued jobs are drained, never dropped.
fn worker_loop(state: &State) {
    loop {
        let queued = {
            let mut q = state.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if state.shutting_down() {
                    return;
                }
                q = state.job_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        state.inflight.fetch_add(1, Ordering::SeqCst);
        let response = run_job(state, &queued);
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        state
            .tele
            .observe(queued.endpoint.latency_hist(), elapsed_us(queued.accepted));
        // The connection thread may have given up (deadline, peer gone);
        // a dead receiver is fine.
        let _ = queued.tx.send(response);
    }
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn run_job(state: &State, queued: &QueuedJob) -> Response {
    if queued.deadline.expired() {
        state.tele.count(Counter::ServeDeadlineExpired);
        return Response::error(408, "deadline expired while queued");
    }
    let threads = state.cfg.threads;
    let job = queued.job.clone();
    let deadline = queued.deadline;
    // Robustness boundary: a panicking engine must cost one request, not
    // a worker thread (and therefore, eventually, the whole pool).
    match catch_unwind(AssertUnwindSafe(|| api::execute(&job, threads, deadline))) {
        Ok(Ok(body)) => Response::ok(body),
        Ok(Err(ExecError::DeadlineExpired)) => {
            state.tele.count(Counter::ServeDeadlineExpired);
            Response::error(408, "deadline expired during execution")
        }
        Err(_) => Response::error(500, "internal error while executing the job"),
    }
}

/// Connection thread: keep-alive request loop with idle reaping.
fn handle_connection(state: &State, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut idle = Duration::ZERO;
    loop {
        match parse_request(&buf, &state.cfg.limits) {
            Err(e) => {
                state.tele.count(Counter::ServeBadRequests);
                let _ = Response::error(e.status(), &e.message()).write_to(&mut stream, false);
                return;
            }
            Ok(Parse::Complete(request, consumed)) => {
                buf.drain(..consumed);
                idle = Duration::ZERO;
                let response = dispatch(state, &request);
                let keep = !request.wants_close() && !state.shutting_down();
                if response.write_to(&mut stream, keep).is_err() || !keep {
                    return;
                }
            }
            Ok(Parse::Partial) => {
                // Reap connections that sit idle (or stall mid-request)
                // past the idle timeout; drop idle keep-alives at
                // shutdown so the drain is not held up by open sockets.
                if idle >= state.cfg.idle_timeout || (state.shutting_down() && buf.is_empty()) {
                    if !buf.is_empty() {
                        let _ = Response::error(408, "timed out waiting for a complete request")
                            .write_to(&mut stream, false);
                    }
                    return;
                }
                match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        idle = Duration::ZERO;
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        idle += POLL;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        }
    }
}

/// Routes one parsed request. Control endpoints answer inline;
/// compute endpoints go through the admission queue.
fn dispatch(state: &State, request: &Request) -> Response {
    let started = Instant::now();
    match (&request.method, request.path.as_str()) {
        (Method::Get, "/v1/healthz") => {
            state.tele.count(Counter::ServeRequests);
            let status = if state.shutting_down() {
                "draining"
            } else {
                "ok"
            };
            Response::ok(format!("{{\"status\":\"{status}\"}}"))
        }
        (Method::Get, "/v1/metrics") => {
            state.tele.count(Counter::ServeRequests);
            let body = metrics_json(state);
            state
                .tele
                .observe(Hist::ServeMetricsUs, elapsed_us(started));
            Response::ok(body)
        }
        (Method::Post, "/v1/shutdown") => {
            state.tele.count(Counter::ServeRequests);
            state.begin_shutdown();
            Response::ok("{\"status\":\"draining\"}")
        }
        // The upload body is the raw binary container — no UTF-8 pass.
        (Method::Post, "/v1/trace") => trace_upload(state, &request.body, started),
        (Method::Get, path) if path.starts_with("/v1/trace/") => {
            let id = &path["/v1/trace/".len()..];
            match state.traces.get(id) {
                Some(t) => {
                    state.tele.count(Counter::ServeRequests);
                    Response::ok(format!("{{\"trace\":{}}}", api::trace_info_json(id, &t)))
                }
                None => {
                    state.tele.count(Counter::ServeBadRequests);
                    Response::error(404, &format!("no stored trace '{id}'"))
                }
            }
        }
        (Method::Post, "/v1/simulate-trace") => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(s) => s,
                Err(_) => {
                    state.tele.count(Counter::ServeBadRequests);
                    return Response::error(400, "request body is not valid UTF-8");
                }
            };
            match api::parse_simulate_trace(body) {
                Err(api::BadRequest(msg)) => {
                    state.tele.count(Counter::ServeBadRequests);
                    Response::error(400, &msg)
                }
                Ok((spec, deadline_ms)) => match state.traces.get(&spec.trace) {
                    None => {
                        state.tele.count(Counter::ServeBadRequests);
                        Response::error(
                            404,
                            &format!(
                                "no stored trace '{}' (upload it with POST /v1/trace)",
                                spec.trace
                            ),
                        )
                    }
                    Some(stored) => {
                        let deadline =
                            Deadline::after_ms(deadline_ms.or(state.cfg.default_deadline_ms));
                        let job = api::Job::SimulateTrace(Box::new(api::TraceJob { spec, stored }));
                        submit_cached(
                            state,
                            request,
                            job,
                            Endpoint::SimulateTrace,
                            deadline,
                            started,
                        )
                    }
                },
            }
        }
        (Method::Post, path @ ("/v1/simulate" | "/v1/batch" | "/v1/faults" | "/v1/scenario")) => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(s) => s,
                Err(_) => {
                    state.tele.count(Counter::ServeBadRequests);
                    return Response::error(400, "request body is not valid UTF-8");
                }
            };
            let (endpoint, parsed) = match path {
                "/v1/simulate" => (Endpoint::Simulate, api::parse_simulate(body)),
                "/v1/batch" => (Endpoint::Batch, api::parse_batch(body)),
                "/v1/scenario" => (Endpoint::Scenario, api::parse_scenario(body)),
                _ => (Endpoint::Faults, api::parse_faults(body)),
            };
            match parsed {
                Err(api::BadRequest(msg)) => {
                    state.tele.count(Counter::ServeBadRequests);
                    Response::error(400, &msg)
                }
                Ok((job, deadline_ms)) => {
                    let deadline =
                        Deadline::after_ms(deadline_ms.or(state.cfg.default_deadline_ms));
                    submit_cached(state, request, job, endpoint, deadline, started)
                }
            }
        }
        (Method::Get | Method::Post, path)
            if matches!(
                path,
                "/v1/healthz"
                    | "/v1/metrics"
                    | "/v1/shutdown"
                    | "/v1/simulate"
                    | "/v1/batch"
                    | "/v1/faults"
                    | "/v1/scenario"
                    | "/v1/trace"
                    | "/v1/simulate-trace"
            ) || path.starts_with("/v1/trace/") =>
        {
            state.tele.count(Counter::ServeBadRequests);
            Response::error(405, &format!("wrong method for {path}"))
        }
        (Method::Other(m), _) => {
            state.tele.count(Counter::ServeBadRequests);
            Response::error(405, &format!("unsupported method '{m}'"))
        }
        (_, path) => {
            state.tele.count(Counter::ServeBadRequests);
            Response::error(404, &format!("no such endpoint '{path}'"))
        }
    }
}

/// `POST /v1/trace`: validate the uploaded container end to end, then
/// insert it into the bounded store under its content-addressed ID.
///
/// Validation decodes every chunk once in place — index, chunk CRCs,
/// every burst record, canonical form — so replay jobs can trust stored
/// bytes unconditionally (`replay_trace` opens them infallibly). Every
/// upload is validated, a re-upload of stored bytes included.
/// Corrupt or truncated uploads are a structured `400`, a full store is
/// `413`, and re-uploading identical bytes is idempotent (`200` with
/// `"created":false`) even when the store is full.
fn trace_upload(state: &State, bytes: &[u8], started: Instant) -> Response {
    let resp = trace_upload_inner(state, bytes);
    state
        .tele
        .observe(Hist::ServeTraceUploadUs, elapsed_us(started));
    resp
}

fn trace_upload_inner(state: &State, bytes: &[u8]) -> Response {
    let checked = suit_store::open_bytes(bytes).and_then(|mut reader| {
        reader.validate()?;
        Ok(reader.info())
    });
    let info = match checked {
        Ok(info) => info,
        Err(e) => {
            state.tele.count(Counter::ServeBadRequests);
            return Response::error(400, &format!("invalid trace container: {e}"));
        }
    };
    if info.bursts == 0 || info.meta.total_insts == 0 {
        state.tele.count(Counter::ServeBadRequests);
        return Response::error(400, "trace is empty (no bursts or zero virtual length)");
    }
    let id = TraceStore::id_for(bytes);
    let body = |created: bool, t: &StoredTrace| {
        format!(
            "{{\"created\":{created},\"trace\":{}}}",
            api::trace_info_json(&id, t)
        )
    };
    match state.traces.insert(&id, bytes, &info) {
        Inserted::Created(stored) => {
            state.tele.count(Counter::ServeRequests);
            state.tele.count(Counter::ServeTraceUploads);
            Response::ok(body(true, &stored))
        }
        Inserted::Existing(stored) => {
            state.tele.count(Counter::ServeRequests);
            state.tele.count(Counter::ServeTraceDedup);
            Response::ok(body(false, &stored))
        }
        Inserted::Full => {
            state.tele.count(Counter::ServeBadRequests);
            state.tele.count(Counter::ServeTraceStoreFull);
            let (entries, used) = state.traces.usage();
            let (cap_entries, cap_bytes) = state.traces.capacity();
            Response::error(
                413,
                &format!(
                    "trace store is full ({entries}/{cap_entries} traces, \
                     {used}/{cap_bytes} bytes); raise --trace-entries/--trace-bytes"
                ),
            )
        }
        Inserted::IdCollision => {
            state.tele.count(Counter::ServeBadRequests);
            Response::error(
                500,
                "trace ID collision: different bytes hash to a stored ID",
            )
        }
    }
}

/// The cache-aware front of the compute path.
///
/// Order matters for the determinism contract: a **hit** returns the
/// exact stored bytes (byte-identical to a fresh computation, because
/// the engines are pure functions of the canonical request); a **miss**
/// either *leads* — runs the job through the admission queue, stores a
/// `200` body, and publishes the outcome — or *follows* an identical
/// in-flight request and receives the leader's outcome verbatim,
/// including `429`/`408`/`500` failures. `If-None-Match` revalidation
/// happens per request (each waiter compares its own header), so a
/// coalesced client with a fresh copy gets its `304` while the others
/// get the body. With the cache disabled this is a pass-through to
/// [`submit`].
fn submit_cached(
    state: &State,
    request: &Request,
    job: api::Job,
    endpoint: Endpoint,
    deadline: Deadline,
    accepted: Instant,
) -> Response {
    if !state.cache.enabled() {
        return submit(state, job, endpoint, deadline, accepted);
    }
    let key = cache::canonical_job(&job);
    if let Some(hit) = state.cache.get(&key) {
        state.tele.count(Counter::ServeRequests);
        state.tele.count(Counter::ServeCacheHits);
        let resp = revalidate(state, request, hit);
        state
            .tele
            .observe(Hist::ServeCacheHitUs, elapsed_us(accepted));
        return resp;
    }
    match state.flights.join(&key) {
        Role::Leader(flight) => {
            state.tele.count(Counter::ServeCacheMisses);
            let mut resp = submit(state, job, endpoint, deadline, accepted);
            if resp.status == 200 {
                let etag = cache::etag_for(&key);
                resp.etag = Some(etag.clone());
                let evicted = state.cache.insert(&key, etag, resp.body.clone());
                for _ in 0..evicted {
                    state.tele.count(Counter::ServeCacheEvictions);
                }
            }
            // Retire the flight before answering so late arrivals hit
            // the cache instead of a finished flight.
            state.flights.publish(&key, &flight, resp.clone());
            conditional(state, request, resp)
        }
        Role::Follower(flight) => {
            state.tele.count(Counter::ServeRequests);
            state.tele.count(Counter::ServeCacheCoalesced);
            let resp = flight.wait();
            conditional(state, request, resp)
        }
    }
}

/// Converts a freshly cached hit into this request's answer: `304` when
/// its `If-None-Match` revalidates, the stored bytes otherwise.
fn revalidate(state: &State, request: &Request, hit: cache::CachedResponse) -> Response {
    if request.if_none_match(&hit.etag) {
        state.tele.count(Counter::ServeNotModified);
        return Response::not_modified(hit.etag);
    }
    let mut resp = Response::ok(hit.body);
    resp.etag = Some(hit.etag);
    resp
}

/// Applies conditional-request semantics to a computed `200`.
fn conditional(state: &State, request: &Request, resp: Response) -> Response {
    if resp.status == 200 {
        if let Some(etag) = &resp.etag {
            if request.if_none_match(etag) {
                state.tele.count(Counter::ServeNotModified);
                return Response::not_modified(etag.clone());
            }
        }
    }
    resp
}

/// An honest `Retry-After` for a full queue: the time to drain what is
/// queued at the endpoint's recently observed pace — queue depth × p50
/// job latency — clamped to `1..=60` seconds. Before any job has
/// completed there is no observed rate, so fall back to 1 s.
fn retry_after_s(state: &State, endpoint: Endpoint, queued: usize) -> u32 {
    let snap = state.tele.snapshot();
    let hist = snap.hist(endpoint.latency_hist());
    if hist.count() == 0 {
        return 1;
    }
    let p50_us = hist.quantile(0.5);
    let drain_us = (queued as u64).saturating_add(1).saturating_mul(p50_us);
    drain_us.div_ceil(1_000_000).clamp(1, 60) as u32
}

/// Admission: enqueue within the bound or answer `429` immediately.
fn submit(
    state: &State,
    job: api::Job,
    endpoint: Endpoint,
    deadline: Deadline,
    accepted: Instant,
) -> Response {
    if state.shutting_down() {
        return Response::error(503, "server is draining");
    }
    let (tx, rx): (SyncSender<Response>, Receiver<Response>) = std::sync::mpsc::sync_channel(1);
    {
        let mut q = state.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= state.cfg.queue_depth {
            let queued = q.len();
            drop(q);
            state.tele.count(Counter::ServeRejected);
            return Response::too_many_requests(
                "admission queue is full; retry later",
                retry_after_s(state, endpoint, queued),
            );
        }
        q.push_back(QueuedJob {
            job,
            endpoint,
            deadline,
            accepted,
            tx,
        });
        state.job_ready.notify_one();
    }
    state.tele.count(Counter::ServeRequests);
    match rx.recv() {
        Ok(response) => response,
        // The worker died mid-job (it never drops the sender otherwise).
        Err(_) => Response::error(500, "worker failed while executing the job"),
    }
}

/// The live `/v1/metrics` document: request counters, per-endpoint
/// latency histograms (p50/p90/p99/max over log₂ buckets), and queue
/// gauges.
fn metrics_json(state: &State) -> String {
    let snap = state.tele.snapshot();
    let lat = |h: Hist| {
        let s = snap.hist(h);
        format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            s.count(),
            api::json_num(s.mean()),
            s.quantile(0.5),
            s.quantile(0.9),
            s.quantile(0.99),
            s.max,
        )
    };
    let queued = state.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let (cache_entries, cache_bytes) = state.cache.usage();
    let (cap_entries, cap_bytes) = state.cache.capacity();
    let (trace_entries, trace_bytes) = state.traces.usage();
    let (trace_cap_entries, trace_cap_bytes) = state.traces.capacity();
    format!(
        "{{\"requests\":{{\"accepted\":{},\"rejected\":{},\"bad\":{},\"deadline_expired\":{}}},\
         \"latency_us\":{{\"simulate\":{},\"batch\":{},\"faults\":{},\"scenario\":{},\
         \"metrics\":{},\"trace_upload\":{},\"simulate_trace\":{}}},\
         \"cache\":{{\"enabled\":{},\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{},\
         \"not_modified\":{},\"entries\":{},\"bytes\":{},\"capacity_entries\":{},\
         \"capacity_bytes\":{},\"hit_latency_us\":{}}},\
         \"traces\":{{\"entries\":{},\"bytes\":{},\"capacity_entries\":{},\"capacity_bytes\":{},\
         \"uploads\":{},\"dedup\":{},\"store_full\":{}}},\
         \"queue\":{{\"depth\":{},\"capacity\":{},\"inflight\":{}}},\
         \"workers\":{},\"draining\":{}}}",
        snap.counter(Counter::ServeRequests),
        snap.counter(Counter::ServeRejected),
        snap.counter(Counter::ServeBadRequests),
        snap.counter(Counter::ServeDeadlineExpired),
        lat(Hist::ServeSimulateUs),
        lat(Hist::ServeBatchUs),
        lat(Hist::ServeFaultsUs),
        lat(Hist::ServeScenarioUs),
        lat(Hist::ServeMetricsUs),
        lat(Hist::ServeTraceUploadUs),
        lat(Hist::ServeSimulateTraceUs),
        state.cache.enabled(),
        snap.counter(Counter::ServeCacheHits),
        snap.counter(Counter::ServeCacheMisses),
        snap.counter(Counter::ServeCacheCoalesced),
        snap.counter(Counter::ServeCacheEvictions),
        snap.counter(Counter::ServeNotModified),
        cache_entries,
        cache_bytes,
        cap_entries,
        cap_bytes,
        lat(Hist::ServeCacheHitUs),
        trace_entries,
        trace_bytes,
        trace_cap_entries,
        trace_cap_bytes,
        snap.counter(Counter::ServeTraceUploads),
        snap.counter(Counter::ServeTraceDedup),
        snap.counter(Counter::ServeTraceStoreFull),
        queued,
        state.cfg.queue_depth,
        state.inflight.load(Ordering::SeqCst),
        state.cfg.threads.count(),
        state.shutting_down(),
    )
}
