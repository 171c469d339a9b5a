//! # suit-exec
//!
//! The deterministic fan-out executor behind every parallel sweep in the
//! SUIT workspace: Monte-Carlo campaigns, fault-injection sweeps and the
//! Table 6 / Fig. 16 row harness all run their indexed job sets through
//! [`run`] (or one of its convenience wrappers) instead of hand-rolling
//! `std::thread::scope` shard loops.
//!
//! ## The contract
//!
//! A job set is a pure function `(0..jobs) -> T`. Workers — the calling
//! thread plus `n − 1` scoped threads for `n` workers — pull the next
//! unclaimed index from a shared atomic counter (dynamic stealing, so a
//! slow job — 520.omnetpp simulating thirty times more curve-switch
//! events per instruction than 557.xz — never idles the other workers
//! the way static chunking does) and write the result into the
//! pre-allocated slot for *that index*. Results are therefore always
//! returned in job-index order, and as long as the job function is a
//! pure function of its index the output is **byte-identical at every
//! thread count**. Determinism comes from where results land, not from
//! when they are computed.
//!
//! Randomness and observability plug into the same index discipline:
//!
//! * [`run_seeded`] hands job *i* the fork `SuitRng::fork(i)` of one
//!   top-level seed — a pure function of `(seed, i)`, independent of
//!   which worker runs it (the [`suit_rng`] stream-splitting contract).
//! * [`run_telemetry`] gives every job a private recorder and merges the
//!   per-job snapshots in index order after all workers join, so merged
//!   counters, histograms and event streams are thread-count invariant.
//!
//! Panics inside a job abort the fan-out and resurface on the caller
//! with the **failing job index** attached; when several jobs panic
//! concurrently the lowest index wins, keeping even the failure mode
//! deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use suit_rng::SuitRng;
use suit_telemetry::{Telemetry, TelemetrySnapshot};

/// Worker-count policy for a fan-out.
#[derive(Clone, Copy, Debug, Default)]
pub enum Threads {
    /// One worker per available hardware thread
    /// (`std::thread::available_parallelism`, falling back to 1).
    #[default]
    Auto,
    /// Exactly this many workers. Must be at least 1 — use
    /// [`Threads::parse`] at CLI boundaries to reject 0 gracefully.
    Fixed(usize),
}

impl Threads {
    /// Resolves the policy to a concrete worker count (always ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics on `Fixed(0)` — reject zero at the parse boundary instead.
    pub fn count(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Threads::Fixed(n) => {
                assert!(n >= 1, "need at least one worker");
                n
            }
        }
    }

    /// Parses a `--threads` CLI value: a positive integer. Zero, empty
    /// and non-numeric values are errors, never silently clamped.
    pub fn parse(s: &str) -> Result<Threads, String> {
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Threads::Fixed(n)),
            _ => Err(format!("--threads must be a positive integer, got '{s}'")),
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn payload_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs the indexed job set `(0..jobs) -> T` over scoped worker threads
/// and returns the results **in job-index order**.
///
/// Scheduling is a dynamic work queue (atomic next-index counter): each
/// worker claims the next unclaimed index, computes `job(i)`, and stores
/// the result in the pre-allocated slot `i`. With a pure `job` the
/// returned vector is byte-identical for every `threads` value; only
/// wall-clock changes. `threads` is capped at `jobs`, and a resolved
/// count of 1 (or `jobs <= 1`) runs inline on the caller's thread.
///
/// The caller is one of the workers: `n` workers are the caller plus
/// `n − 1` spawned scoped threads, all running the same claim loop, so a
/// small fan-out does not pay for a thread that would only wait.
///
/// # Panics
///
/// If any job panics, the remaining queue is abandoned and this function
/// panics with the failing job index and the original message. When
/// multiple in-flight jobs panic, the lowest index is reported.
pub fn run<T, F>(jobs: usize, threads: Threads, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.count().min(jobs);
    if workers <= 1 {
        return (0..jobs)
            .map(|i| match panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(v) => v,
                Err(payload) => {
                    panic!("suit-exec: job {i} panicked: {}", payload_msg(payload))
                }
            })
            .collect();
    }

    let results: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failed: Mutex<Option<(usize, String)>> = Mutex::new(None);

    let claim = || {
        while !abort.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(v) => {
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                }
                Err(payload) => {
                    abort.store(true, Ordering::Relaxed);
                    let msg = payload_msg(payload);
                    let mut f = failed.lock().unwrap_or_else(|e| e.into_inner());
                    if f.as_ref().map_or(true, |(fi, _)| i < *fi) {
                        *f = Some((i, msg));
                    }
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim);
        }
        claim();
    });

    if let Some((i, msg)) = failed.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("suit-exec: job {i} panicked: {msg}");
    }
    results
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job slot is filled when no job panicked")
        })
        .collect()
}

/// [`run`] with per-index forked randomness: job `i` receives
/// `SuitRng::seed_from_u64(seed).fork(i)` — a pure function of
/// `(seed, i)`, so the fan-out stays byte-identical at every thread
/// count no matter which worker executes which index.
pub fn run_seeded<T, F>(jobs: usize, threads: Threads, seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SuitRng) -> T + Sync,
{
    let root = SuitRng::seed_from_u64(seed);
    run(jobs, threads, move |i| job(i, root.fork(i as u64)))
}

/// [`run`] with per-job telemetry: every job records into its own
/// private recorder (event-ring capacity `capacity`), and the per-job
/// snapshots are merged **in job-index order** after all workers join —
/// so the merged snapshot (counters, histograms, event stream, and any
/// serialization of it) is byte-identical at every thread count.
pub fn run_telemetry<T, F>(
    jobs: usize,
    threads: Threads,
    capacity: usize,
    job: F,
) -> (Vec<T>, TelemetrySnapshot)
where
    T: Send,
    F: Fn(usize, &Telemetry) -> T + Sync,
{
    let pairs = run(jobs, threads, move |i| {
        let tele = Telemetry::with_capacity(capacity);
        let v = job(i, &tele);
        (v, tele.snapshot())
    });
    let mut merged = TelemetrySnapshot::default();
    let mut out = Vec::with_capacity(pairs.len());
    for (v, snap) in pairs {
        merged.merge_shard(&snap);
        out.push(v);
    }
    (out, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use suit_rng::Rng;

    #[test]
    fn results_are_in_index_order() {
        let got = run(100, Threads::Fixed(4), |i| i * i);
        assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_return_empty() {
        // The div_ceil-chunk edge case family, settled once: n = 0 must
        // not spawn workers or panic, at any thread policy.
        for threads in [Threads::Fixed(1), Threads::Fixed(8), Threads::Auto] {
            let got: Vec<u64> = run(0, threads, |_| unreachable!("no jobs to run"));
            assert!(got.is_empty());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let got = run(3, Threads::Fixed(16), |i| i + 10);
        assert_eq!(got, vec![10, 11, 12]);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let serial = run(37, Threads::Fixed(1), |i| (i as u64).wrapping_mul(0x9E37));
        for threads in [2, 4, 8] {
            let parallel = run(37, Threads::Fixed(threads), |i| {
                (i as u64).wrapping_mul(0x9E37)
            });
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn seeded_jobs_are_thread_count_invariant() {
        let draw = |_i: usize, mut rng: SuitRng| (rng.u64(), rng.f64());
        let serial = run_seeded(25, Threads::Fixed(1), 0x5017, draw);
        for threads in [2, 4, 8, 16] {
            let parallel = run_seeded(25, Threads::Fixed(threads), 0x5017, draw);
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
        // And the streams actually differ per index.
        assert_ne!(serial[0], serial[1]);
    }

    #[test]
    fn seeded_jobs_follow_the_root_seed() {
        let draw = |_i: usize, mut rng: SuitRng| rng.u64();
        let a = run_seeded(4, Threads::Fixed(2), 1, draw);
        let b = run_seeded(4, Threads::Fixed(2), 2, draw);
        assert_ne!(a, b, "different seeds must give different job streams");
    }

    #[test]
    fn telemetry_merges_in_index_order() {
        use suit_telemetry::Counter;
        let job = |i: usize, tele: &Telemetry| {
            tele.add(Counter::FaultsInjected, i as u64);
            i
        };
        let (serial, snap1) = run_telemetry(9, Threads::Fixed(1), 64, job);
        for threads in [3, 8] {
            let (parallel, snap_n) = run_telemetry(9, Threads::Fixed(threads), 64, job);
            assert_eq!(serial, parallel, "{threads} threads diverged");
            assert_eq!(snap1, snap_n, "{threads}-thread telemetry diverged");
        }
        assert_eq!(snap1.counter(Counter::FaultsInjected), (0..9u64).sum());
    }

    #[test]
    fn panics_carry_the_failing_job_index() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(8, Threads::Fixed(4), |i| {
                if i == 5 {
                    panic!("boom at five");
                }
                i
            })
        }));
        let msg = payload_msg(caught.expect_err("must propagate"));
        assert!(msg.contains("job 5"), "{msg}");
        assert!(msg.contains("boom at five"), "{msg}");
    }

    #[test]
    fn serial_panics_carry_the_index_too() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(3, Threads::Fixed(1), |i| {
                assert!(i < 2, "too far");
                i
            })
        }));
        let msg = payload_msg(caught.expect_err("must propagate"));
        assert!(msg.contains("job 2"), "{msg}");
    }

    /// Whether `done` holds within 10 s, so a stuck worker fails a test
    /// instead of hanging it.
    fn within_10s(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        done()
    }

    /// Waits until `n` jobs are in flight at once, so each worker holds
    /// one; gives up after 10 s so too few workers fail instead of hang.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        within_10s(|| arrived.load(Ordering::SeqCst) >= n);
    }

    #[test]
    fn the_caller_is_one_of_n_workers() {
        let caller = std::thread::current().id();
        for n in [2, 3, 4] {
            let arrived = AtomicUsize::new(0);
            let ran_on = run(8 * n, Threads::Fixed(n), |i| {
                if i < n {
                    rendezvous(&arrived, n);
                }
                std::thread::current().id()
            });
            let first: std::collections::HashSet<_> = ran_on[..n].iter().collect();
            assert_eq!(first.len(), n, "{n} workers must hold the first {n} jobs");
            assert!(first.contains(&caller), "the caller must run a share");
            let others: std::collections::HashSet<_> =
                ran_on.iter().filter(|&&id| id != caller).collect();
            assert!(
                others.len() < n,
                "{} other threads for {n} workers",
                others.len()
            );
        }
    }

    #[test]
    fn a_panic_in_the_callers_share_still_reports_the_lowest_index() {
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let callers_job = Mutex::new(None);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(2, Threads::Fixed(2), |i| -> usize {
                rendezvous(&arrived, 2);
                if std::thread::current().id() == caller {
                    *callers_job.lock().unwrap() = Some(i);
                }
                panic!("boom at {i}");
            })
        }));
        let msg = payload_msg(caught.expect_err("must propagate"));
        assert!(
            callers_job.into_inner().unwrap().is_some(),
            "the caller must run a share"
        );
        assert!(msg.contains("job 0") && msg.contains("boom at 0"), "{msg}");
    }

    #[test]
    fn parse_accepts_positive_and_rejects_junk() {
        assert!(matches!(Threads::parse("1"), Ok(Threads::Fixed(1))));
        assert!(matches!(Threads::parse("32"), Ok(Threads::Fixed(32))));
        for bad in ["0", "", "-3", "many", "1.5"] {
            assert!(Threads::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Threads::Auto.count() >= 1);
        assert_eq!(Threads::Fixed(7).count(), 7);
    }
}
