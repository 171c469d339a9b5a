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
//!
//! ## Job slots
//!
//! [`Slots`] is a count of running threads that jobs and the fan-outs
//! inside them share: the service's job slots. A job holds a slot from
//! [`Slots::enter`] until its [`Held`] guard drops; admitted jobs wait in
//! one line and start in arrival order, and a waiter whose deadline
//! passes leaves the line at once. A fan-out given [`Threads::Within`]
//! the slots borrows its helpers from them instead of spawning them
//! unasked: it takes only slots that are idle while no job waits, runs
//! the rest of its share on its caller, and each borrowed helper hands
//! its slot back before claiming another index once a job waits. Jobs and
//! helpers together never outnumber the slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

use suit_rng::SuitRng;
use suit_telemetry::{Counter, Telemetry, TelemetrySnapshot};

/// Worker-count policy for a fan-out.
#[derive(Clone, Copy, Debug, Default)]
pub enum Threads<'a> {
    /// One worker per available hardware thread
    /// (`std::thread::available_parallelism`, falling back to 1).
    #[default]
    Auto,
    /// Exactly this many workers. Must be at least 1 — use
    /// [`Threads::parse`] at CLI boundaries to reject 0 gracefully.
    Fixed(usize),
    /// At most one worker per slot: the caller, which holds a slot
    /// already, plus the helpers the slots lend without blocking.
    Within(&'a Slots),
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
            Threads::Fixed(n) => {
                assert!(n >= 1, "need at least one worker");
                n
            }
            Threads::Within(slots) => slots.total(),
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

/// A fixed count of running threads shared by jobs and the helpers their
/// fan-outs borrow. A job holds one slot from [`Slots::enter`] until its
/// [`Held`] drops; a fan-out given [`Threads::Within`] the slots borrows
/// idle ones for its helpers, but none while a job waits.
#[derive(Debug)]
pub struct Slots {
    total: usize,
    usage: Mutex<Usage>,
    /// Signalled when a slot frees while the line holds a job, and when a
    /// job leaves the line with a slot idle.
    turn: Condvar,
    /// Whether the line holds a job, for helpers to read without the lock
    /// before each index they claim.
    waiting: AtomicBool,
    /// Where the fan-out counters go.
    tele: Telemetry,
}

#[derive(Debug, Default)]
struct Usage {
    /// Jobs holding a slot.
    jobs: usize,
    /// Helpers holding a borrowed slot.
    helpers: usize,
    /// The waiting jobs in arrival order, each named by the thread that
    /// waits for it (a thread waits for one job at a time).
    line: VecDeque<ThreadId>,
}

/// Why [`Slots::enter`] turned a job away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The line was full: this many jobs, the most allowed, were waiting.
    Full {
        /// Jobs waiting when this one arrived.
        waiting: usize,
    },
    /// The job's deadline passed before it started.
    Expired,
}

/// One job's slot, freed when this drops (waking the line).
#[must_use = "the slot is freed when `Held` drops"]
#[derive(Debug)]
pub struct Held<'a>(&'a Slots);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.free(|u| u.jobs -= 1);
    }
}

impl Slots {
    /// `total` slots (at least 1), all idle; the fan-out counters
    /// (`ServeFanout*`) go to `tele`.
    pub fn new(total: usize, tele: Telemetry) -> Slots {
        assert!(total >= 1, "need at least one slot");
        Slots {
            total,
            usage: Mutex::default(),
            turn: Condvar::new(),
            waiting: AtomicBool::new(false),
            tele,
        }
    }

    /// How many threads may run at once.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `(waiting, jobs, helpers)`: jobs in the line, jobs holding a slot
    /// and helpers holding a borrowed one.
    pub fn usage(&self) -> (usize, usize, usize) {
        let u = self.lock();
        (u.line.len(), u.jobs, u.helpers)
    }

    /// Takes a slot for one job, waiting for it in line.
    ///
    /// A job arriving while `max_waiting` jobs wait is refused at once
    /// ([`Refused::Full`]). Otherwise it joins the line and starts when
    /// every job ahead of it has started and jobs plus helpers leave a
    /// slot idle. A job whose `deadline` passes first leaves the line
    /// then, as does one whose deadline has passed when its turn comes
    /// ([`Refused::Expired`]).
    pub fn enter(
        &self,
        max_waiting: usize,
        deadline: Option<Instant>,
    ) -> Result<Held<'_>, Refused> {
        let mut u = self.lock();
        let waiting = u.line.len();
        if waiting >= max_waiting {
            return Err(Refused::Full { waiting });
        }
        let me = std::thread::current().id();
        u.line.push_back(me);
        self.waiting.store(true, Ordering::Relaxed);
        let expired = loop {
            if deadline.is_some_and(|at| Instant::now() >= at) {
                break true;
            }
            if u.line.front() == Some(&me) && self.idle(&u) > 0 {
                break false;
            }
            u = match deadline {
                None => self.turn.wait(u).unwrap_or_else(|e| e.into_inner()),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    let woken = self.turn.wait_timeout(u, left);
                    woken.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        };
        u.line.retain(|&t| t != me);
        self.waiting.store(!u.line.is_empty(), Ordering::Relaxed);
        if !expired {
            u.jobs += 1;
        }
        // The next job may start in a slot this one left idle.
        if !u.line.is_empty() && self.idle(&u) > 0 {
            self.turn.notify_all();
        }
        if expired {
            Err(Refused::Expired)
        } else {
            Ok(Held(self))
        }
    }

    fn lock(&self) -> MutexGuard<'_, Usage> {
        self.usage.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn idle(&self, u: &Usage) -> usize {
        self.total - u.jobs - u.helpers
    }

    /// Frees what `release` takes off `u`, waking the line.
    fn free(&self, release: impl FnOnce(&mut Usage)) {
        let mut u = self.lock();
        release(&mut u);
        if !u.line.is_empty() {
            self.turn.notify_all();
        }
    }

    /// Lends up to `want` idle slots without blocking and returns how
    /// many it lent: none while the line holds a job.
    fn borrow(&self, want: usize) -> usize {
        let mut u = self.lock();
        let lent = if u.line.is_empty() {
            want.min(self.idle(&u))
        } else {
            0
        };
        u.helpers += lent;
        drop(u);
        if lent == 0 {
            self.tele.count(Counter::ServeFanoutsInline);
        } else {
            self.tele.count(Counter::ServeFanoutsBorrowed);
            self.tele.add(Counter::ServeFanoutHelpers, lent as u64);
        }
        lent
    }

    /// Whether the line holds a job: one relaxed load, which a borrowed
    /// helper makes before each index it claims.
    fn job_waiting(&self) -> bool {
        self.waiting.load(Ordering::Relaxed)
    }

    /// Takes back `n` slots that [`Slots::borrow`] lent.
    fn give_back(&self, n: usize) {
        self.free(|u| u.helpers -= n);
    }
}

/// Slots borrowed for helpers, given back when this drops — on every way
/// out of a helper, a panic included.
struct Lent<'a> {
    slots: &'a Slots,
    units: usize,
}

impl<'a> Lent<'a> {
    /// Splits one slot off for a helper to hold.
    fn one(&mut self) -> Lent<'a> {
        self.units -= 1;
        Lent {
            slots: self.slots,
            units: 1,
        }
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if self.units > 0 {
            self.slots.give_back(self.units);
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
/// [`Threads::Within`] the caller holds one of the [`Slots`] already and
/// its `n − 1` helpers are borrowed from them without blocking, so there
/// may be fewer of them, none at all while a job waits; a helper hands
/// its slot back before claiming another index once a job waits, and the
/// caller finishes whatever is left.
///
/// # Panics
///
/// If any job panics, the remaining queue is abandoned and this function
/// panics with the failing job index and the original message. When
/// multiple in-flight jobs panic, the lowest index is reported. Every
/// borrowed slot is back by then.
pub fn run<T, F>(jobs: usize, threads: Threads, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.count().min(jobs);
    let (within, helpers) = match threads {
        _ if workers <= 1 => (None, 0),
        Threads::Within(slots) => (Some(slots), slots.borrow(workers - 1)),
        Threads::Auto | Threads::Fixed(_) => (None, workers - 1),
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

    let results: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failed: Mutex<Option<(usize, String)>> = Mutex::new(None);

    // A borrowed helper stops to hand its slot back once a job waits; the
    // caller holds its own slot and never stops early.
    let claim = |helper: bool| {
        while !abort.load(Ordering::Relaxed) {
            if helper && within.is_some_and(Slots::job_waiting) {
                break;
            }
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
        let claim = &claim;
        // Borrowed slots not yet handed to a running helper, given back if
        // a spawn fails.
        let mut lent = within.map(|slots| Lent {
            slots,
            units: helpers,
        });
        for _ in 0..helpers {
            let held = lent.as_mut().map(Lent::one);
            scope.spawn(move || {
                claim(true);
                // Moved in, so the slot goes back when the helper stops.
                drop(held);
            });
        }
        claim(false);
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
    use std::time::Duration;
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

    /// Whether `done` holds within 10 s, so a stuck worker or line fails a
    /// test instead of hanging it.
    fn within_10s(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        done()
    }

    /// The deadline of a test's job that must get a slot: 10 s away.
    fn soon() -> Option<Instant> {
        Some(Instant::now() + Duration::from_secs(10))
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
    fn waiting_jobs_start_in_arrival_order_and_a_full_line_refuses() {
        let slots = Slots::new(1, Telemetry::off());
        let first = slots.enter(3, None).expect("an idle slot");
        let started = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..3 {
                let (slots, started) = (&slots, &started);
                scope.spawn(move || {
                    let _held = slots.enter(3, soon()).expect("a turn within 10 s");
                    started.lock().unwrap().push(i);
                });
                assert!(within_10s(|| slots.usage().0 > i), "job {i} never waited");
            }
            let refused = slots.enter(3, soon()).err();
            assert_eq!(refused, Some(Refused::Full { waiting: 3 }));
            drop(first);
        });
        assert_eq!(started.into_inner().unwrap(), [0, 1, 2]);
        assert_eq!(slots.usage(), (0, 0, 0));
    }

    #[test]
    fn a_waiter_past_its_deadline_leaves_the_line_at_once() {
        let slots = Slots::new(1, Telemetry::off());
        // A job whose deadline has passed when its turn comes never starts.
        let late = slots.enter(1, Some(Instant::now())).err();
        assert_eq!(late, Some(Refused::Expired));
        let held = slots.enter(1, None).expect("an idle slot");
        let short = Some(Instant::now() + Duration::from_millis(20));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| slots.enter(1, short).err());
            let left = within_10s(|| waiter.is_finished());
            drop(held);
            assert!(left, "the waiter stayed past its deadline");
            assert_eq!(waiter.join().unwrap(), Some(Refused::Expired));
        });
        assert_eq!(slots.usage(), (0, 0, 0), "the expired job stayed");
    }

    #[test]
    fn a_fan_out_borrows_no_idle_slot_while_a_job_waits() {
        let slots = Slots::new(2, Telemetry::off());
        let _held = slots.enter(1, None).expect("an idle slot");
        for round in 0..8 {
            assert_eq!(slots.borrow(5), 1, "a fan-out takes only the idle slots");
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| slots.enter(1, soon()));
                assert!(within_10s(|| slots.job_waiting()), "the job never waited");
                slots.give_back(1);
                // The freed slot is the waiting job's, woken or not.
                assert_eq!(slots.borrow(1), 0, "round {round}: a helper took it");
                drop(waiter.join().unwrap().expect("the waiting job's turn"));
            });
            assert!(!slots.job_waiting());
        }
        assert_eq!(slots.usage(), (0, 1, 0));
    }

    #[test]
    fn fan_outs_within_a_budget_never_run_more_workers_than_it_holds() {
        let mut rng = SuitRng::seed_from_u64(0xb0d9);
        let value = |i: usize| (i as u64).wrapping_mul(0x9E37);
        for round in 0..16 {
            let k = rng.gen_range(1..=3usize);
            let callers: Vec<usize> = (0..3).map(|_| rng.gen_range(0..=40usize)).collect();
            let slots = Slots::new(k, Telemetry::off());
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for &jobs in &callers {
                    let (slots, running, peak) = (&slots, &running, &peak);
                    scope.spawn(move || {
                        let held = slots.enter(3, soon()).expect("a slot within 10 s");
                        let got = run(jobs, Threads::Within(slots), |i| {
                            peak.fetch_max(
                                running.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            std::thread::sleep(Duration::from_micros(200));
                            running.fetch_sub(1, Ordering::SeqCst);
                            value(i)
                        });
                        drop(held);
                        assert_eq!(got, run(jobs, Threads::Fixed(1), value), "round {round}");
                    });
                }
            });
            let peak = peak.into_inner();
            assert!(peak <= k, "round {round}: {peak} workers on {k} slots");
            assert_eq!(slots.usage(), (0, 0, 0), "round {round}: a slot left held");
        }
    }

    #[test]
    fn helpers_stop_claiming_once_a_job_waits_and_the_caller_finishes() {
        let caller = std::thread::current().id();
        let slots = Slots::new(2, Telemetry::off());
        let _held = slots.enter(1, None).expect("an idle slot");
        let arrived = AtomicUsize::new(0);
        let helper_jobs = AtomicUsize::new(0);
        let given_back = AtomicBool::new(false);
        let lent = || slots.usage().2;
        let ran_on = std::thread::scope(|scope| {
            run(40, Threads::Within(&slots), |i| {
                let on_helper = std::thread::current().id() != caller;
                if on_helper {
                    helper_jobs.fetch_add(1, Ordering::SeqCst);
                }
                if i < 2 {
                    rendezvous(&arrived, 2);
                    if on_helper {
                        // A job arrives while the helper runs its first
                        // index; it must get the helper's slot.
                        let slots = &slots;
                        scope.spawn(move || drop(slots.enter(1, soon()).expect("a turn")));
                        within_10s(|| slots.job_waiting());
                    }
                } else if !on_helper && !given_back.load(Ordering::SeqCst) {
                    // Hold the caller until the helper has either handed its
                    // slot back or claimed another index.
                    within_10s(|| helper_jobs.load(Ordering::SeqCst) >= 2 || lent() == 0);
                    given_back.store(lent() == 0, Ordering::SeqCst);
                }
                std::thread::current().id()
            })
        });
        assert_eq!(helper_jobs.into_inner(), 1, "a helper claimed past a job");
        assert!(given_back.into_inner(), "the helper kept its slot");
        let the_caller_finished = ran_on[2..].iter().all(|&id| id == caller);
        assert!(the_caller_finished);
        assert_eq!(slots.usage(), (0, 1, 0));
    }

    #[test]
    fn a_panicking_job_leaves_the_budget_whole() {
        let caller = std::thread::current().id();
        let slots = Slots::new(4, Telemetry::off());
        let _held = slots.enter(1, None).expect("an idle slot");
        let arrived = AtomicUsize::new(0);
        let lent_while_running = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(16, Threads::Within(&slots), |i| -> usize {
                if i < 4 {
                    rendezvous(&arrived, 4);
                    lent_while_running.fetch_max(slots.usage().2, Ordering::SeqCst);
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
        assert_eq!(slots.usage().2, 0, "a helper kept its slot");
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
