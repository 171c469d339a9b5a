//! # suit-exec
//!
//! The deterministic fan-out executor behind every parallel sweep in the
//! SUIT workspace: Monte-Carlo campaigns, fault-injection sweeps, the
//! Table 6 / Fig. 16 row harness and `suit-check`'s parallel exploration
//! all run their indexed job sets through [`run`] (or one of its
//! convenience wrappers) instead of hand-rolling `std::thread::scope`
//! shard loops.
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
//!
//! ## Sharing a budget of threads
//!
//! A fan-out given [`Threads::Within`] draws its helpers from a shared
//! [`Budget`] instead of spawning them unasked: it borrows only units that
//! are idle while no job waits, runs the rest of its share on its caller,
//! and each borrowed helper hands its unit back before claiming another
//! index once a job is waiting. The service's job slots are such a budget,
//! so jobs and the helpers they borrow never outnumber the slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use suit_rng::SuitRng;
use suit_telemetry::{Telemetry, TelemetrySnapshot};

/// Worker-count policy for a fan-out.
#[derive(Clone, Copy, Default)]
pub enum Threads<'a> {
    /// One worker per available hardware thread
    /// (`std::thread::available_parallelism`, falling back to 1).
    #[default]
    Auto,
    /// Exactly this many workers. Must be at least 1 — use
    /// [`Threads::parse`] at CLI boundaries to reject 0 gracefully.
    Fixed(usize),
    /// At most this many workers (at least 1): the caller, which holds a
    /// unit of the budget already, plus the helpers the budget lends
    /// without blocking.
    Within(usize, &'a dyn Budget),
}

impl Threads<'_> {
    /// Resolves the policy to a concrete worker count (always ≥ 1); for
    /// [`Threads::Within`], the most workers a fan-out may use.
    ///
    /// # Panics
    ///
    /// Panics on a count of 0 — reject zero at the parse boundary instead.
    pub fn count(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Threads::Fixed(n) | Threads::Within(n, _) => {
                assert!(n >= 1, "need at least one worker");
                n
            }
        }
    }
}

impl Threads<'static> {
    /// Parses a `--threads` CLI value: a positive integer. Zero, empty
    /// and non-numeric values are errors, never silently clamped.
    pub fn parse(s: &str) -> Result<Threads<'static>, String> {
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Threads::Fixed(n)),
            _ => Err(format!("--threads must be a positive integer, got '{s}'")),
        }
    }
}

impl std::fmt::Debug for Threads<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threads::Auto => f.write_str("Auto"),
            Threads::Fixed(n) => write!(f, "Fixed({n})"),
            Threads::Within(n, _) => write!(f, "Within({n}, ..)"),
        }
    }
}

/// A shared budget of running threads, in units of one thread each, that
/// [`Threads::Within`] fan-outs borrow their helpers from. The caller of
/// a fan-out holds a unit already; [`run`] borrows at most `n − 1` more.
pub trait Budget: Sync {
    /// Lends up to `want` idle units without blocking and returns how
    /// many it lent: none while a job waits for a unit.
    fn borrow(&self, want: usize) -> usize;
    /// Whether a job waits for a unit. Every borrowed helper asks before
    /// each index it claims, so this should be one relaxed atomic load.
    fn job_waiting(&self) -> bool;
    /// Takes back `n` units that [`Budget::borrow`] lent.
    fn give_back(&self, n: usize);
}

/// What [`Threads::Auto`] and [`Threads::Fixed`] fan-outs borrow from:
/// every unit asked for, and no job ever waits.
struct Unlimited;

impl Budget for Unlimited {
    fn borrow(&self, want: usize) -> usize {
        want
    }

    fn job_waiting(&self) -> bool {
        false
    }

    fn give_back(&self, _: usize) {}
}

/// Units borrowed from a budget, given back when this drops — on every
/// way out of a helper, a panic included.
struct Lent<'a> {
    budget: &'a dyn Budget,
    units: usize,
}

impl<'a> Lent<'a> {
    /// Splits one unit off for a helper to hold.
    fn one(&mut self) -> Lent<'a> {
        self.units -= 1;
        Lent {
            budget: self.budget,
            units: 1,
        }
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if self.units > 0 {
            self.budget.give_back(self.units);
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
/// small fan-out does not pay for a thread that would only wait. Under
/// [`Threads::Within`] the `n − 1` helpers are borrowed from the budget
/// without blocking, so there may be fewer of them, none at all while a
/// job waits; a helper gives its unit back before claiming another index
/// once a job waits, and the caller finishes whatever is left.
///
/// # Panics
///
/// If any job panics, the remaining queue is abandoned and this function
/// panics with the failing job index and the original message. When
/// multiple in-flight jobs panic, the lowest index is reported. Every
/// borrowed unit is back with its budget by then.
pub fn run<T, F>(jobs: usize, threads: Threads, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.count().min(jobs);
    let budget = match threads {
        Threads::Within(_, budget) => budget,
        Threads::Auto | Threads::Fixed(_) => &Unlimited,
    };
    let helpers = if workers > 1 {
        budget.borrow(workers - 1)
    } else {
        0
    };
    if helpers == 0 {
        return (0..jobs)
            .map(|i| match panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(v) => v,
                Err(payload) => {
                    panic!("suit-exec: job {i} panicked: {}", payload_msg(payload))
                }
            })
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failed: Mutex<Option<(usize, String)>> = Mutex::new(None);

    // A borrowed helper stops to hand its unit back once a job waits; the
    // caller holds its own unit and never stops early.
    let claim = |helper: bool| {
        while !abort.load(Ordering::Relaxed) {
            if helper && budget.job_waiting() {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(v) => {
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
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
        let claim = &claim;
        // Units not yet handed to a running helper, given back if a spawn
        // fails.
        let mut lent = Lent {
            budget,
            units: helpers,
        };
        for _ in 0..helpers {
            let held = lent.one();
            scope.spawn(move || {
                claim(true);
                // Moved in, so the unit goes back when the helper stops.
                drop(held);
            });
        }
        claim(false);
    });

    if let Some((i, msg)) = failed.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("suit-exec: job {i} panicked: {msg}");
    }
    slots
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

    /// Waits until `n` jobs are in flight at once, so each worker holds
    /// one; gives up after 10 s so too few workers fail instead of hang.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < n && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
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

    /// A budget of `total` units shared by a test's callers. A caller
    /// holds one while it fans out, as a served job holds its slot, and
    /// waits (raising `waiting`) while none is idle.
    struct Pool {
        total: usize,
        /// Units held by callers, units lent to helpers, callers waiting.
        units: Mutex<(usize, usize, usize)>,
        freed: std::sync::Condvar,
        waiting: AtomicBool,
    }

    impl Pool {
        fn new(total: usize) -> Pool {
            Pool {
                total,
                units: Mutex::new((0, 0, 0)),
                freed: std::sync::Condvar::new(),
                waiting: AtomicBool::new(false),
            }
        }

        fn hold(&self) {
            let mut u = self.units.lock().unwrap();
            while u.0 + u.1 == self.total {
                u.2 += 1;
                self.waiting.store(true, Ordering::Relaxed);
                u = self.freed.wait(u).unwrap();
                u.2 -= 1;
                self.waiting.store(u.2 > 0, Ordering::Relaxed);
            }
            u.0 += 1;
        }

        fn release(&self) {
            self.units.lock().unwrap().0 -= 1;
            self.freed.notify_all();
        }

        fn lent(&self) -> usize {
            self.units.lock().unwrap().1
        }
    }

    impl Budget for Pool {
        fn borrow(&self, want: usize) -> usize {
            let mut u = self.units.lock().unwrap();
            let got = if u.2 > 0 {
                0
            } else {
                want.min(self.total - u.0 - u.1)
            };
            u.1 += got;
            got
        }

        fn job_waiting(&self) -> bool {
            self.waiting.load(Ordering::Relaxed)
        }

        fn give_back(&self, n: usize) {
            self.units.lock().unwrap().1 -= n;
            self.freed.notify_all();
        }
    }

    #[test]
    fn fan_outs_within_a_budget_never_run_more_workers_than_it_holds() {
        let mut rng = SuitRng::seed_from_u64(0xb0d9);
        let value = |i: usize| (i as u64).wrapping_mul(0x9E37);
        for round in 0..16 {
            let k = rng.gen_range(1..=3usize);
            let callers: Vec<(usize, usize)> = (0..3)
                .map(|_| (rng.gen_range(0..=40usize), rng.gen_range(1..=6usize)))
                .collect();
            let pool = Pool::new(k);
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for &(jobs, n) in &callers {
                    let (pool, running, peak) = (&pool, &running, &peak);
                    scope.spawn(move || {
                        pool.hold();
                        let got = run(jobs, Threads::Within(n, pool), |i| {
                            peak.fetch_max(
                                running.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            running.fetch_sub(1, Ordering::SeqCst);
                            value(i)
                        });
                        pool.release();
                        assert_eq!(got, run(jobs, Threads::Fixed(1), value), "round {round}");
                    });
                }
            });
            let peak = peak.into_inner();
            assert!(
                peak <= k,
                "round {round}: {peak} workers on a budget of {k} ({callers:?})"
            );
            assert_eq!(pool.lent(), 0, "round {round}: units left on loan");
        }
    }

    #[test]
    fn helpers_stop_claiming_once_a_job_waits_and_the_caller_finishes() {
        let caller = std::thread::current().id();
        let pool = Pool::new(2);
        pool.hold();
        let arrived = AtomicUsize::new(0);
        let helper_jobs = AtomicUsize::new(0);
        let given_back = AtomicBool::new(false);
        let jobs = 40;
        let ran_on = run(jobs, Threads::Within(2, &pool), |i| {
            let on_helper = std::thread::current().id() != caller;
            if on_helper {
                helper_jobs.fetch_add(1, Ordering::SeqCst);
            }
            if i < 2 {
                rendezvous(&arrived, 2);
                if on_helper {
                    // A job arrives while the helper runs its first index.
                    pool.waiting.store(true, Ordering::Relaxed);
                }
            } else if !on_helper && !given_back.load(Ordering::SeqCst) {
                // Hold the caller until the helper has either handed its
                // unit back or claimed another index.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while helper_jobs.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline
                {
                    if pool.lent() == 0 {
                        given_back.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            std::thread::current().id()
        });
        assert_eq!(
            helper_jobs.into_inner(),
            1,
            "the helper claimed past a waiting job"
        );
        assert!(
            given_back.into_inner(),
            "the helper kept its unit while the fan-out ran"
        );
        assert!(
            ran_on[2..].iter().all(|&id| id == caller),
            "the caller finishes"
        );
        assert_eq!(pool.lent(), 0);
    }

    #[test]
    fn a_panicking_job_leaves_the_budget_whole() {
        let caller = std::thread::current().id();
        let pool = Pool::new(4);
        pool.hold();
        let arrived = AtomicUsize::new(0);
        let lent_while_running = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(16, Threads::Within(4, &pool), |i| -> usize {
                if i < 4 {
                    rendezvous(&arrived, 4);
                    lent_while_running.fetch_max(pool.lent(), Ordering::SeqCst);
                }
                if std::thread::current().id() != caller {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let msg = payload_msg(caught.expect_err("must propagate"));
        assert!(msg.contains("boom"), "{msg}");
        assert_eq!(lent_while_running.into_inner(), 3, "three helpers borrowed");
        assert_eq!(pool.lent(), 0, "a helper kept its unit through the panic");
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
