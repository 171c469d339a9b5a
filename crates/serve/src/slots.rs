//! The job slots: how many jobs run at once, and the line in which
//! admitted jobs wait for a slot.
//!
//! A job holds a slot from [`Slots::enter`] until its [`Held`] guard
//! drops. Admitted jobs wait in one line and start in arrival order, and a
//! waiter whose deadline passes leaves the line at once. A slot is a count
//! under a mutex, not a thread: each job runs on the connection thread that
//! entered it, alone, so the slots bound the threads that compute.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// A fixed count of jobs that may run at once, and the line of admitted
/// jobs waiting for one.
pub(crate) struct Slots {
    total: usize,
    usage: Mutex<Usage>,
    /// Signalled when a slot frees while the line holds a job, and when a
    /// job leaves the line with a slot idle.
    turn: Condvar,
}

#[derive(Default)]
struct Usage {
    /// Jobs holding a slot.
    jobs: usize,
    /// The waiting jobs in arrival order, each named by the thread that
    /// waits for it (a thread waits for one job at a time).
    line: VecDeque<ThreadId>,
}

/// Why [`Slots::enter`] turned a job away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The line was full: this many jobs, the most allowed, were waiting.
    Full { waiting: usize },
    /// The job's deadline passed before it started.
    Expired,
}

/// One job's slot, freed when this drops (waking the line).
#[must_use = "the slot is freed when `Held` drops"]
pub(crate) struct Held<'a>(&'a Slots);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        let mut u = self.0.lock();
        u.jobs -= 1;
        if !u.line.is_empty() {
            self.0.turn.notify_all();
        }
    }
}

impl Slots {
    /// `total` slots (at least 1), all idle.
    pub(crate) fn new(total: usize) -> Slots {
        assert!(total >= 1, "need at least one slot");
        Slots {
            total,
            usage: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    /// How many jobs may run at once.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// `(waiting, jobs)`: jobs in the line and jobs holding a slot.
    pub(crate) fn usage(&self) -> (usize, usize) {
        let u = self.lock();
        (u.line.len(), u.jobs)
    }

    /// Takes a slot for one job, waiting for it in line.
    ///
    /// A job arriving while `max_waiting` jobs wait is refused at once
    /// ([`Refused::Full`]). Otherwise it joins the line and starts when
    /// every job ahead of it has started and a slot is idle. A job whose
    /// `deadline` passes first leaves the line then, as does one whose
    /// deadline has passed when its turn comes ([`Refused::Expired`]).
    pub(crate) fn enter(
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
        let expired = loop {
            if deadline.is_some_and(|at| Instant::now() >= at) {
                break true;
            }
            if u.line.front() == Some(&me) && u.jobs < self.total {
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
        if !expired {
            u.jobs += 1;
        }
        // The next job may start in a slot this one left idle.
        if !u.line.is_empty() && u.jobs < self.total {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use suit_rng::{Rng, SuitRng};

    /// Whether `done` holds within 10 s, so a stuck line fails a test
    /// instead of hanging it.
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

    #[test]
    fn waiting_jobs_start_in_arrival_order_and_a_full_line_refuses() {
        let slots = Slots::new(1);
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
        assert_eq!(slots.usage(), (0, 0));
    }

    #[test]
    fn a_waiter_past_its_deadline_leaves_the_line_at_once() {
        let slots = Slots::new(1);
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
        assert_eq!(slots.usage(), (0, 0), "the expired job stayed");
    }

    #[test]
    fn jobs_never_outnumber_the_slots() {
        let mut rng = SuitRng::seed_from_u64(0xb0d9);
        for round in 0..16 {
            let k = rng.gen_range(1..=3usize);
            let callers: Vec<usize> = (0..3).map(|_| rng.gen_range(0..=40usize)).collect();
            let slots = Slots::new(k);
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for &steps in &callers {
                    let (slots, running, peak) = (&slots, &running, &peak);
                    scope.spawn(move || {
                        let held = slots.enter(3, soon()).expect("a slot within 10 s");
                        for _ in 0..steps {
                            peak.fetch_max(
                                running.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            std::thread::sleep(Duration::from_micros(200));
                            running.fetch_sub(1, Ordering::SeqCst);
                        }
                        drop(held);
                    });
                }
            });
            let peak = peak.into_inner();
            assert!(peak <= k, "round {round}: {peak} jobs on {k} slots");
            assert_eq!(slots.usage(), (0, 0), "round {round}: a slot left held");
        }
    }
}
