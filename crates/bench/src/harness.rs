//! A minimal wall-clock benchmark harness: warmup batches, then
//! median-of-K timed batches on [`std::time::Instant`].
//!
//! This replaces the old criterion dev-dependency so the whole workspace
//! builds offline with zero external crates. It deliberately does much
//! less: no statistical outlier analysis, no plots — just a calibrated
//! inner-iteration count (so nanosecond-scale bodies are timed over a
//! long enough batch), a few warmup batches, and the median, minimum and
//! maximum per-iteration times over K samples, printed one line per
//! benchmark.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of untimed warmup batches before sampling.
pub const WARMUP_BATCHES: usize = 3;

/// Number of timed batches; the reported time is their median.
pub const SAMPLES: usize = 11;

/// Target wall-clock duration of one batch when calibrating the inner
/// iteration count.
const BATCH_TARGET: Duration = Duration::from_millis(20);

/// Hard ceiling on the calibrated inner iteration count.
const MAX_ITERS: u64 = 1 << 24;

/// One measured benchmark: per-iteration median/min/max over [`SAMPLES`]
/// batches.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median per-iteration wall time across batches.
    pub median: Duration,
    /// Fastest batch, per iteration.
    pub min: Duration,
    /// Slowest batch, per iteration.
    pub max: Duration,
    /// Calibrated iterations per batch.
    pub iters: u64,
}

fn per_iter(batch: Duration, iters: u64) -> Duration {
    Duration::from_nanos((batch.as_nanos() / u128::from(iters)) as u64)
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Times `f`, prints one result line, and returns the measurement.
///
/// The closure result is routed through [`black_box`] so the optimizer
/// cannot delete the body.
pub fn bench<T>(name: &str, f: impl FnMut() -> T) -> Measurement {
    bench_with_throughput(name, None, f)
}

/// Like [`bench`](fn@bench), but additionally reports `elems / median` as a rate
/// (elements per second) when `elems` is given.
pub fn bench_with_throughput<T>(
    name: &str,
    elems: Option<u64>,
    f: impl FnMut() -> T,
) -> Measurement {
    measure(name, elems, 1, f)
}

/// Times a body that makes `calls` calls of something too short to time
/// one at a time, and reports every time and rate per call, so the loop
/// and the harness around one call do not set a floor under the number.
pub fn bench_per_call<T>(name: &str, calls: u64, f: impl FnMut() -> T) -> Measurement {
    measure(name, Some(1), calls, f)
}

/// The shared body of [`bench_with_throughput`] and [`bench_per_call`]:
/// each iteration of `f` counts as `calls` iterations.
fn measure<T>(name: &str, elems: Option<u64>, calls: u64, mut f: impl FnMut() -> T) -> Measurement {
    // Calibrate: grow the batch until it runs long enough to time well.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t0.elapsed() >= BATCH_TARGET || iters >= MAX_ITERS {
            break;
        }
        iters = iters.saturating_mul(2).min(MAX_ITERS);
    }

    for _ in 0..WARMUP_BATCHES {
        for _ in 0..iters {
            black_box(f());
        }
    }

    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter(t0.elapsed(), iters * calls)
        })
        .collect();
    samples.sort_unstable();

    let m = Measurement {
        median: samples[samples.len() / 2],
        min: samples[0],
        max: *samples.last().expect("SAMPLES > 0"),
        iters: iters * calls,
    };

    let rate = elems
        .map(|n| {
            let per_sec = n as f64 / m.median.as_secs_f64().max(1e-12);
            format!("  ({per_sec:.3e} elems/s)")
        })
        .unwrap_or_default();
    println!(
        "{name:<44} {:>12}  [min {}, max {}, K={SAMPLES}, iters/batch {}]{rate}",
        fmt_duration(m.median),
        fmt_duration(m.min),
        fmt_duration(m.max),
        m.iters,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_body() {
        let mut n = 0u64;
        let m = bench("noop_increment", || {
            n = n.wrapping_add(1);
            n
        });
        assert!(m.iters >= 1);
        assert!(m.min <= m.median && m.median <= m.max);
    }

    #[test]
    fn reports_throughput_without_panicking() {
        let m = bench_with_throughput("tiny_sum", Some(64), || (0..64u64).sum::<u64>());
        assert!(m.median.as_nanos() > 0 || m.iters > 1);
    }

    #[test]
    fn per_call_times_divide_by_the_calls() {
        let calls = 10_000;
        let m = bench_per_call("spin_10000", calls, || {
            (0..calls).map(|i| black_box(i) * 3).sum::<u64>()
        });
        assert_eq!(m.iters % calls, 0, "{m:?}");
        assert!(m.median < Duration::from_micros(1), "{m:?} per call");
    }

    #[test]
    fn formats_each_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(17)), "17 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_700)), "1.70 us");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
