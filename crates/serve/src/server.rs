//! The resident service: acceptor, connection threads that run their own
//! jobs in a bounded count of job slots, keep-alive connections with an
//! idle reaper, and graceful shutdown.
//!
//! ## Threading model
//!
//! * **Acceptor** — the thread inside [`Server::run`] blocks in
//!   `accept()` and spawns one scoped thread per connection, capped at
//!   [`ServeConfig::max_connections`] (`503` beyond the cap).
//! * **Connection threads** — own the socket: read with short timeouts
//!   (accumulating idle time so stale keep-alive connections are reaped
//!   after [`ServeConfig::idle_timeout`]), parse with [`crate::http`]'s
//!   strict limits, answer control endpoints inline, and run each compute
//!   job themselves once it holds one of the [`ServeConfig::threads`] job
//!   slots. A job runs alone on that thread: the service hands every job
//!   `Threads::Fixed(1)`, so each [`suit_exec`] fan-out inside it runs
//!   inline, and the slots bound the threads that compute. Results land
//!   by index, so every response is byte-identical to a fan-out at any
//!   thread count.
//!
//! The slots are the private `slots` module's `Slots`, which owns the
//! waiting line; a slot is a count in it, not a thread, so no job is
//! handed from one thread to another. This module adds only the HTTP
//! policy: `503` while draining, the status each refusal answers, and the
//! counters.
//!
//! ## Backpressure and deadlines
//!
//! At most [`ServeConfig::queue_depth`] jobs wait for a slot, and they
//! take slots in arrival order. A job arriving while that many wait is
//! answered `429` with a `Retry-After` header *immediately* — the server
//! never buffers unbounded work. Each job may carry a deadline
//! (`deadline_ms` body field, else [`ServeConfig::default_deadline_ms`]):
//! a waiting job leaves the line and is answered `408` as soon as its
//! deadline passes, or when its turn comes after it passed, without
//! running; a running job checks it only where [`api::Deadline`] says.
//!
//! ## Graceful shutdown
//!
//! `POST /v1/shutdown` (or [`Server::shutdown_handle`]) flips one atomic
//! flag and wakes the acceptor with one connection to the listener's own
//! address, which it drops unanswered. The acceptor stops accepting,
//! waiting jobs still take their turn, connection threads finish their
//! in-flight exchange with `Connection: close`, and [`Server::run`] joins
//! them all before returning — in-flight work completes, nothing is
//! dropped.

use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use suit_exec::Threads;
use suit_telemetry::{json::json_num, Counter, Hist, Telemetry};

use crate::api::{self, Deadline, ExecError};
use crate::cache::{self, Cache, FlightTable, Role};
use crate::http::{parse_request, Limits, Method, Parse, Request, Response};
use crate::slots::{Refused, Slots};
use crate::tracestore::{Inserted, StoredTrace, TraceStore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Job slots: how many jobs run at once, each alone on its connection
    /// thread, so also how many threads compute at once. A `suit-exec`
    /// fan-out inside a job runs inline on that thread (responses are
    /// byte-identical to any thread count).
    pub threads: Threads,
    /// How many jobs may wait for a slot (≥ 1); a job arriving while
    /// that many wait is answered `429` + `Retry-After`.
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

/// How often blocked reads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Shared server state.
struct State {
    cfg: ServeConfig,
    tele: Telemetry,
    /// The job slots and their line.
    slots: Slots,
    conns: AtomicUsize,
    shutdown: AtomicBool,
    /// The listener's address, loopback in place of an unspecified IP:
    /// where [`State::begin_shutdown`] connects to wake the acceptor.
    wake_addr: SocketAddr,
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
}

impl State {
    fn begin_shutdown(&self) {
        // The first call wakes the acceptor, blocked in `accept()`, with a
        // connection that it drops unanswered.
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
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
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let cache = Cache::new(cfg.cache_entries, cfg.cache_bytes);
        let traces = TraceStore::new(cfg.trace_entries, cfg.trace_bytes);
        let tele = Telemetry::with_capacity(16);
        let slots = Slots::new(cfg.threads.count());
        Ok(Server {
            listener,
            state: Arc::new(State {
                cfg,
                tele,
                slots,
                conns: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                wake_addr,
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

    /// Serves until shutdown is requested, then drains waiting and
    /// in-flight jobs and joins every thread before returning.
    pub fn run(self) -> std::io::Result<()> {
        let state = &self.state;
        std::thread::scope(|scope| {
            while !state.shutting_down() {
                match self.listener.accept() {
                    // The wake-up from `begin_shutdown`, or a client that
                    // raced it: dropped unanswered.
                    Ok(_) if state.shutting_down() => {}
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
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        state.begin_shutdown();
                        return Err(e);
                    }
                }
            }
            Ok(())
        })
        // All scoped connection threads (waiting jobs included) have
        // finished their in-flight exchange and joined here.
    }
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn run_job(state: &State, job: &api::Job, deadline: Deadline) -> Response {
    // Robustness boundary: a panicking engine must cost one request, not
    // a connection thread and the slot it holds. The job computes alone
    // on this thread, so the slots bound the threads that compute.
    let threads = Threads::Fixed(1);
    match catch_unwind(AssertUnwindSafe(|| api::execute(job, threads, deadline))) {
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

/// A compute endpoint's body parser: the job and its `deadline_ms`, or
/// the response that refuses the request.
type ParseJob = fn(&str, &TraceStore) -> Result<(api::Job, Option<u64>), Response>;

/// A body that fails validation is a `400` carrying the reason.
impl From<api::BadRequest> for Response {
    fn from(e: api::BadRequest) -> Response {
        Response::error(400, &e.0)
    }
}

/// What answers a routed request.
#[derive(Clone, Copy)]
enum Handler {
    Healthz,
    Metrics,
    Shutdown,
    TraceUpload,
    TraceInfo,
    /// A job that runs in a job slot, and its latency histogram.
    Compute(Hist, ParseJob),
}

/// Every endpoint: its path, its one method and its handler. A path that
/// ends in `/` also matches every path below it (`/v1/trace/<id>`).
const ROUTES: &[(&str, Method, Handler)] = &[
    ("/v1/healthz", Method::Get, Handler::Healthz),
    ("/v1/metrics", Method::Get, Handler::Metrics),
    ("/v1/shutdown", Method::Post, Handler::Shutdown),
    (
        "/v1/simulate",
        Method::Post,
        Handler::Compute(Hist::ServeSimulateUs, |body, _| {
            Ok(api::parse_simulate(body)?)
        }),
    ),
    (
        "/v1/batch",
        Method::Post,
        Handler::Compute(Hist::ServeBatchUs, |body, _| Ok(api::parse_batch(body)?)),
    ),
    (
        "/v1/faults",
        Method::Post,
        Handler::Compute(Hist::ServeFaultsUs, |body, _| Ok(api::parse_faults(body)?)),
    ),
    (
        "/v1/scenario",
        Method::Post,
        Handler::Compute(Hist::ServeScenarioUs, |body, _| {
            Ok(api::parse_scenario(body)?)
        }),
    ),
    ("/v1/trace", Method::Post, Handler::TraceUpload),
    ("/v1/trace/", Method::Get, Handler::TraceInfo),
    (
        "/v1/simulate-trace",
        Method::Post,
        Handler::Compute(Hist::ServeSimulateTraceUs, parse_simulate_trace),
    ),
];

/// `POST /v1/simulate-trace`: the body's spec, resolved against the
/// trace store; an ID the store does not hold is a `404`.
fn parse_simulate_trace(
    body: &str,
    traces: &TraceStore,
) -> Result<(api::Job, Option<u64>), Response> {
    let (spec, deadline_ms) = api::parse_simulate_trace(body)?;
    let Some(stored) = traces.get(&spec.trace) else {
        return Err(Response::error(
            404,
            &format!(
                "no stored trace '{}' (upload it with POST /v1/trace)",
                spec.trace
            ),
        ));
    };
    let job = api::Job::SimulateTrace(Box::new(api::TraceJob { spec, stored }));
    Ok((job, deadline_ms))
}

/// The route table's row for `path`, if any.
fn route(path: &str) -> Option<&'static (&'static str, Method, Handler)> {
    ROUTES.iter().find(|(p, ..)| {
        if p.ends_with('/') {
            path.starts_with(p)
        } else {
            path == *p
        }
    })
}

/// Routes one parsed request. Control endpoints answer inline;
/// compute endpoints wait for a job slot.
fn dispatch(state: &State, request: &Request) -> Response {
    let started = Instant::now();
    let path = request.path.as_str();
    if let Method::Other(m) = &request.method {
        state.tele.count(Counter::ServeBadRequests);
        return Response::error(405, &format!("unsupported method '{m}'"));
    }
    let Some((prefix, method, handler)) = route(path) else {
        state.tele.count(Counter::ServeBadRequests);
        return Response::error(404, &format!("no such endpoint '{path}'"));
    };
    if request.method != *method {
        state.tele.count(Counter::ServeBadRequests);
        return Response::error(405, &format!("wrong method for {path}"));
    }
    match *handler {
        Handler::Healthz => {
            state.tele.count(Counter::ServeRequests);
            let status = if state.shutting_down() {
                "draining"
            } else {
                "ok"
            };
            Response::ok(format!("{{\"status\":\"{status}\"}}"))
        }
        Handler::Metrics => {
            state.tele.count(Counter::ServeRequests);
            let body = metrics_json(state);
            state
                .tele
                .observe(Hist::ServeMetricsUs, elapsed_us(started));
            Response::ok(body)
        }
        Handler::Shutdown => {
            state.tele.count(Counter::ServeRequests);
            state.begin_shutdown();
            Response::ok("{\"status\":\"draining\"}")
        }
        // The upload body is the raw binary container — no UTF-8 pass.
        Handler::TraceUpload => trace_upload(state, &request.body, started),
        Handler::TraceInfo => {
            let id = &path[prefix.len()..];
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
        Handler::Compute(hist, parse) => {
            let parsed = std::str::from_utf8(&request.body)
                .map_err(|_| Response::error(400, "request body is not valid UTF-8"))
                .and_then(|body| parse(body, &state.traces));
            match parsed {
                Err(refused) => {
                    state.tele.count(Counter::ServeBadRequests);
                    refused
                }
                Ok((job, deadline_ms)) => {
                    let deadline =
                        Deadline::after_ms(deadline_ms.or(state.cfg.default_deadline_ms));
                    submit_cached(state, request, job, hist, deadline, started)
                }
            }
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
/// either *leads* — runs the job in a slot, stores a `200` body, and
/// publishes the outcome — or *follows* an identical
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
    hist: Hist,
    deadline: Deadline,
    accepted: Instant,
) -> Response {
    if !state.cache.enabled() {
        return submit(state, job, hist, deadline, accepted);
    }
    let key = cache::canonical_job(&job);
    if let Some(hit) = state.cache.get(&key) {
        state.tele.count(Counter::ServeRequests);
        state.tele.count(Counter::ServeCacheHits);
        let mut resp = Response::ok(hit.body);
        resp.etag = Some(hit.etag);
        let resp = conditional(state, request, resp);
        state
            .tele
            .observe(Hist::ServeCacheHitUs, elapsed_us(accepted));
        return resp;
    }
    match state.flights.join(&key) {
        Role::Leader(flight) => {
            state.tele.count(Counter::ServeCacheMisses);
            let mut resp = submit(state, job, hist, deadline, accepted);
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

/// Applies conditional-request semantics to a `200` with an ETag: `304`
/// when this request's `If-None-Match` revalidates it.
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

/// An honest `Retry-After` for a full wait list: the time to drain the
/// `queued` waiting jobs at the endpoint's recently observed pace (its
/// latency histogram `hist`) — waiting jobs × p50 job latency — clamped to
/// `1..=60` seconds. Before any job has completed there is no observed
/// rate, so fall back to 1 s.
fn retry_after_s(state: &State, hist: Hist, queued: usize) -> u32 {
    let snap = state.tele.snapshot();
    let hist = snap.hist(hist);
    if hist.count() == 0 {
        return 1;
    }
    let p50_us = hist.quantile(0.5);
    let drain_us = (queued as u64).saturating_add(1).saturating_mul(p50_us);
    drain_us.div_ceil(1_000_000).clamp(1, 60) as u32
}

/// A job slot ([`Slots::enter`]), then the job itself on this connection
/// thread: a job arriving while `queue_depth` jobs wait is answered `429`
/// at once, and one whose deadline passes before it starts is answered
/// `408` then. Every admitted job counts as accepted, a `408` included.
fn submit(
    state: &State,
    job: api::Job,
    hist: Hist,
    deadline: Deadline,
    accepted: Instant,
) -> Response {
    if state.shutting_down() {
        return Response::error(503, "server is draining");
    }
    let response = match state.slots.enter(state.cfg.queue_depth, deadline.0) {
        Err(Refused::Full { waiting }) => {
            state.tele.count(Counter::ServeRejected);
            return Response::too_many_requests(
                "admission queue is full; retry later",
                retry_after_s(state, hist, waiting),
            );
        }
        Err(Refused::Expired) => {
            state.tele.count(Counter::ServeRequests);
            state.tele.count(Counter::ServeDeadlineExpired);
            Response::error(408, "deadline expired while queued")
        }
        Ok(_held) => {
            state.tele.count(Counter::ServeRequests);
            run_job(state, &job, deadline)
        }
    };
    state.tele.observe(hist, elapsed_us(accepted));
    response
}

/// The live `/v1/metrics` document: request counters, per-endpoint
/// latency histograms (p50/p90/p99/max over log₂ buckets), and job-slot
/// gauges (`queue.depth` jobs waiting, `queue.inflight` jobs running).
fn metrics_json(state: &State) -> String {
    let snap = state.tele.snapshot();
    let lat = |h: Hist| {
        let s = snap.hist(h);
        format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            s.count(),
            json_num(s.mean()),
            s.quantile(0.5),
            s.quantile(0.9),
            s.quantile(0.99),
            s.max,
        )
    };
    let (waiting, jobs) = state.slots.usage();
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
        waiting,
        state.cfg.queue_depth,
        jobs,
        state.slots.total(),
        state.shutting_down(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate doc's endpoint table has one row per route, with the
    /// route's method, and no row the router lacks.
    #[test]
    fn the_crate_docs_endpoint_table_lists_every_route() {
        let mut rows: Vec<String> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `")?.split_once('`'))
            .map(|(path, rest)| {
                let method = rest.split('|').nth(1).unwrap_or("").trim();
                format!("{method} {path}")
            })
            .collect();
        let mut routes: Vec<String> = ROUTES
            .iter()
            .map(|(path, method, _)| {
                let id = if path.ends_with('/') { "<id>" } else { "" };
                format!("{} {path}{id}", format!("{method:?}").to_uppercase())
            })
            .collect();
        rows.sort();
        routes.sort();
        assert_eq!(rows, routes);
    }
}
