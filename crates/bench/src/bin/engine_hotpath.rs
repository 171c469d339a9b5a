//! Hot-path throughput of the core simulation engine.
//!
//! Four measurements on the median-of-K harness:
//!
//! * `monte_carlo` — a single-thread Monte-Carlo campaign (sampled
//!   per-run delays and trace seeds), the metric the data-layout
//!   refactor targets;
//! * `quantum_loop` — one deterministic engine run, normalised to
//!   nanoseconds per faultable-instruction event;
//! * `nginx_campaign` — one 2e9-instruction Nginx run, whose long AES
//!   bursts the lone-core fast path commits in closed form (`--test`
//!   asserts it equals the per-event legacy loop);
//! * `aes` — bit-sliced AES block throughput through the 4-wide kernel,
//!   the one the committed baseline also timed.
//!
//! `--json <path>` writes the committed `BENCH_engine.json` baseline
//! (carrying any previously committed `baseline` section forward, so
//! the document always shows before/after); `--test` shrinks the
//! scenario and asserts determinism plus sanity bounds for CI.
fn main() {
    suit_bench::perf::engine_hotpath(&suit_bench::perf::PerfOpts::from_args());
}
