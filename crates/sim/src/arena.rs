//! The arena scheduler, the simulator's one domain loop: flat
//! struct-of-arrays core state, thread-local reusable scratch, linear
//! argmin event selection, and a batched intra-burst fast path for lone
//! cores.
//!
//! This loop produces bit-for-bit the results of the legacy scan loop in
//! [`crate::legacy`]; the differential suite in
//! `tests/engine_equivalence.rs` pins the two against each other. What
//! differs is purely mechanical:
//!
//! * **Storage.** The hot per-core state lives in a [`CoreArena`]
//!   (dense `f64`/`u32` columns) instead of per-core structs, and both
//!   the arena and the `live` set are reused from a thread-local
//!   [`DomainScratch`] across runs. A warmed-up run allocates nothing in
//!   the quantum loop; [`Counter::EngineScratchAllocs`] ticks only when
//!   a reset had to grow a buffer, which the equivalence suite asserts
//!   stays at zero after warm-up.
//! * **Selection.** One linear scan over the live set finds the minimum
//!   `(tick, id)`, with ids pending 0 < timer 1 < core 2 + i. Scanning
//!   pending → timer → cores in ascending id with strictly-less
//!   replacement makes the lowest id win ties, the legacy loop's
//!   priority.
//! * **Batching.** When exactly one core is live, instructions are
//!   enabled, and the core sits at the start of an intra-burst stride,
//!   every event of the stride advances the identical quantum: same
//!   `dt`, same instruction count, same energy increment. The fast path
//!   proves from the timer deadline, the pending arrival and the
//!   remaining trace length how many consecutive events nothing can
//!   preempt, then commits them at once. The two running f64 sums (the
//!   trace remainder and the energy) take the closed forms of
//!   [`crate::accum`], which land bit for bit where the per-event loop's
//!   `n` sequential subtractions and additions would, in O(binades
//!   crossed) work instead of O(n).

use std::cell::RefCell;

use suit_core::SuitOs;
use suit_isa::{SimDuration, SimTime};
use suit_telemetry::{Counter, Telemetry};
use suit_trace::Burst;

use crate::accum;
use crate::engine::{dispatch_event, CoreArena, CoreStream, Hw, NextEvent};

/// Reusable per-thread simulation scratch: the hot-state arena and the
/// live-core set. One instance serves every domain run on the thread —
/// Monte-Carlo re-runs and fleet epochs stop paying per-run allocations.
pub(crate) struct DomainScratch {
    pub(crate) arena: CoreArena,
    pub(crate) live: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<DomainScratch> = RefCell::new(DomainScratch {
        arena: CoreArena::default(),
        live: Vec::new(),
    });
}

/// Hands the caller the thread's [`DomainScratch`]. Domain runs never
/// nest, so the `RefCell` borrow cannot conflict.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut DomainScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The domain loop: runs `cores` (one shared DVFS domain) to completion
/// against the booted `hw`/`os` state. `arena` must be
/// [`reset`](CoreArena::reset) for these cores; `live` is scratch.
///
/// The convergence guard counts scheduler rounds, not events: a batched
/// round commits any number of events, so a long but valid trace never
/// trips it, while a loop that stops making progress still does.
pub(crate) fn run_domain<I: Iterator<Item = Burst>>(
    cores: &mut [CoreStream<I>],
    arena: &mut CoreArena,
    live: &mut Vec<u32>,
    hw: &mut Hw,
    os: &mut SuitOs,
    tele: &Telemetry,
) {
    if live.capacity() < cores.len() {
        tele.count(Counter::EngineScratchAllocs);
    }
    live.clear();
    live.extend(0..cores.len() as u32);
    let mut guard: u64 = 0;

    loop {
        guard += 1;
        assert!(guard < 2_000_000_000, "simulation failed to converge");

        live.retain(|&i| !arena.finished(i as usize));
        if live.is_empty() {
            break;
        }

        if live.len() == 1 {
            let i = live[0] as usize;
            if burst_fast_path(arena, i, hw, tele) > 0 {
                continue;
            }
        }

        // Earliest (tick, id), ids: pending 0 < timer 1 < core 2 + i.
        // Seeding with pending, then replacing only on strictly earlier
        // ticks while visiting timer and cores in ascending id, lets the
        // lowest id win every tie.
        let perf = hw.perf();
        let mut t_next = SimTime::from_picos(u64::MAX);
        let mut kind = NextEvent::Idle;
        if let Some((_, t)) = hw.pending {
            t_next = t;
            kind = NextEvent::Pending;
        }
        if let Some(t) = hw.timer.expires_at() {
            if t < t_next {
                t_next = t;
                kind = NextEvent::Timer;
            }
        }
        for &i in live.iter() {
            let i = i as usize;
            // The same arithmetic, in the same order, as the reference
            // loop: instructions to the next point of interest over
            // the current effective rate. Byte-identity hangs on this
            // expression not being algebraically "simplified".
            let t = hw.now + SimDuration::from_secs_f64(arena.rem_next(i) / (arena.rate[i] * perf));
            if t < t_next {
                t_next = t;
                kind = NextEvent::Core(i);
            }
        }

        // Advance execution to the event: identical per-quantum
        // arithmetic, striding over the arena's dense columns.
        let dt = t_next.saturating_since(hw.now);
        if !dt.is_zero() {
            let dt_secs = dt.as_secs_f64();
            for &i in live.iter() {
                let i = i as usize;
                let insts = arena.rate[i] * perf * dt_secs;
                arena.advance(i, insts);
            }
            tele.count(Counter::EngineQuanta);
            tele.add(Counter::CoreSteps, live.len() as u64);
            hw.run_for(dt);
        }

        dispatch_event(kind, arena, cores, hw, os, tele);
    }
}

/// Batches consecutive intra-burst events of a lone live core. Returns
/// the number of events committed; `0` means the caller must take the
/// general path (the very next event needs full dispatch).
///
/// Entry conditions — each one guards a way the per-event loop could do
/// something other than "advance one stride, count one event":
///
/// * instructions enabled: a `#DO` would call into the OS policy;
/// * `burst_left > 0` and `rem_event` bitwise equal to `within + 1`:
///   the core sits exactly at the start of an intra-burst stride, so
///   every batched event reloads the same stride;
/// * the stride's quantum is non-zero (a zero `dt` skips the advance
///   phase entirely in the per-event loop).
///
/// Batch length is then bounded by whichever comes first: the burst
/// running out of events, the trace end (`rem_total` falling to the
/// stride length — checked against the remainder as the per-event loop
/// would decrement it, one f64 subtraction per event, which
/// [`accum::sub_while_above`] reproduces in closed form), the deadline timer
/// (which each event resets, so events 2… only require `dt < deadline`,
/// while event 1 races the currently armed expiry), or a pending
/// p-state arrival. Timer and pending win ties by component id, hence
/// the `<=` comparisons against the core's tick.
fn burst_fast_path(arena: &mut CoreArena, i: usize, hw: &mut Hw, tele: &Telemetry) -> u64 {
    if hw.disabled() || arena.burst_left[i] == 0 {
        return 0;
    }
    let w = arena.within[i] + 1.0;
    if arena.rem_event[i].to_bits() != w.to_bits() {
        return 0;
    }
    let rate = arena.rate[i] * hw.perf();
    let dt = SimDuration::from_secs_f64(w / rate);
    if dt.is_zero() {
        return 0;
    }
    // Instructions one stride actually advances, after `dt` rounded
    // through picoseconds — the per-event loop's exact operand.
    let stride = rate * dt.as_secs_f64();
    let now0 = hw.now;
    let dt_ps = dt.as_picos();

    let cap_timer: u64 = match hw.timer.expires_at() {
        None => u64::MAX,
        // Event 1 races the currently armed expiry; it re-arms the
        // timer at its own tick, so each later event only requires the
        // stride to beat the full deadline.
        Some(expiry) => {
            if expiry <= now0 + dt {
                0
            } else if hw.timer.deadline() > dt {
                u64::MAX
            } else {
                1
            }
        }
    };
    let cap_pending: u64 = match hw.pending {
        None => u64::MAX,
        // Event k sits at now0 + k·dt; it must come strictly before the
        // arrival (pending wins ties by id).
        Some((_, at)) => {
            let avail = at.saturating_since(now0).as_picos();
            if avail <= dt_ps {
                0
            } else {
                (avail - 1) / dt_ps
            }
        }
    };
    let cap = u64::from(arena.burst_left[i])
        .min(cap_timer)
        .min(cap_pending);

    // An event with rem_total ≤ stride length is the trace-end event —
    // full dispatch handles it.
    let (n, rem_total) = accum::sub_while_above(arena.rem_total[i], stride, w, cap);
    if n == 0 {
        return 0;
    }

    arena.rem_total[i] = rem_total;
    // rem_event stays bitwise `w`: each consumed event reloaded the
    // stride, and the batch ends exactly on that reload.
    arena.burst_left[i] -= n as u32;
    arena.events[i] += n;
    hw.run_for_n(dt, n);
    tele.add(Counter::EngineQuanta, n);
    tele.add(Counter::CoreSteps, n);
    // One reset at the final event's tick lands the timer where n
    // per-event resets would have.
    hw.timer.reset(hw.now);
    n
}
