//! `suit-serve` — a zero-dependency HTTP/1.1 service in front of the
//! SUIT simulation stack.
//!
//! The paper's experiments (undervolt sweeps, fault-injection
//! campaigns) are batch jobs; this crate turns them into a resident
//! service so a dashboard or sweep driver can submit work over
//! loopback instead of forking the CLI per point. Everything is
//! hand-rolled on `std::net` in the same spirit as the in-tree JSON
//! parser in `suit-telemetry`: no external crates, no async runtime,
//! no unsafe code.
//!
//! Endpoints:
//!
//! | endpoint              | method | body                                    |
//! |-----------------------|--------|-----------------------------------------|
//! | `/v1/simulate`        | POST   | one simulation point                    |
//! | `/v1/batch`           | POST   | a Table 6 sweep or a workload list      |
//! | `/v1/faults`          | POST   | a fault-injection campaign              |
//! | `/v1/scenario`        | POST   | an SRAM or Scrooge scenario campaign    |
//! | `/v1/trace`           | POST   | a binary `SUITTRC3` container to store  |
//! | `/v1/trace/<id>`      | GET    | summary of one stored trace             |
//! | `/v1/simulate-trace`  | POST   | streamed replay of a stored trace       |
//! | `/v1/metrics`         | GET    | request counters + latency histograms   |
//! | `/v1/healthz`         | GET    | liveness / drain state                  |
//! | `/v1/shutdown`        | POST   | begin graceful drain                    |
//!
//! `POST /v1/trace` uploads a packed trace (see `suit-store`) into a
//! **bounded** in-memory store — content-addressed IDs, idempotent
//! re-upload, structured `413` when full — and `/v1/simulate-trace`
//! replays it through the engine's streaming entry point, one strategy
//! after another on the job's thread, without ever materialising the
//! burst vector.
//!
//! Determinism is the load-bearing property: batch jobs seed each point
//! with `rng.fork(i)` and collect results in index order through
//! [`suit_exec::run`], so a response is byte-identical to the
//! equivalent CLI invocation at any worker-thread count. A served job
//! runs those fan-outs inline on its own thread. The loopback e2e test
//! pins this.
//!
//! Determinism also powers the **result cache**: every compute endpoint
//! is a pure function of its canonicalized request, so responses are
//! content-addressed — repeated identical requests are served from a
//! bounded LRU in microseconds with a strong `ETag` (`If-None-Match` →
//! `304`), and N concurrent identical requests coalesce onto a single
//! computation. See [`cache`].
//!
//! Module map: [`http`] (strict request parser + response writer),
//! [`api`] (body validation, job execution, deterministic JSON
//! serialization), [`cache`] (request canonicalization, content-hash
//! ETags, bounded LRU, in-flight coalescing), [`server`] (acceptor,
//! connection threads that run their own jobs in a bounded count of job
//! slots, graceful shutdown), the private `slots` (the job slots and the
//! line jobs wait in), [`client`] (blocking one-shot client for the CLI
//! and tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod server;
mod slots;
pub mod tracestore;

pub use api::{BadRequest, Deadline};
pub use client::{request, request_bytes, request_text, request_with_headers};
pub use http::{ClientResponse, Limits, Request, Response};
pub use server::{ServeConfig, Server, ShutdownHandle};
pub use tracestore::{StoredTrace, TraceStore};
