//! Throughput of the discrete-event fleet engine.
//!
//! One fixed rack-scale scenario (16 racks × 4 domains × 4 cores,
//! 256 cores total) measured two ways (serial on one thread, sharded on
//! every available thread); the figure of merit is core·epoch slices per
//! second. `--json <path>` writes the committed `BENCH_fleet.json`
//! baseline; `--test` shrinks the fleet and asserts sanity bounds (and
//! that both thread counts give the same result) for CI. The measurement
//! body lives in [`suit_bench::perf`] so the `render_all` driver runs the
//! identical code.
fn main() {
    suit_bench::perf::fleet_throughput(&suit_bench::perf::PerfOpts::from_args());
}
