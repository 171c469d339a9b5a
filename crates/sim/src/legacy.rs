//! The original engine loop, kept as the differential oracle for the
//! equivalence suite (`tests/engine_equivalence.rs`) and the random
//! configurations of `tests/scheduler_properties.rs`.
//!
//! The production engine (the private `arena` module) keeps a live set, scans flat
//! arrays and batches a lone core's intra-burst events; this module
//! handles one event per round, found by the original linear scan over
//! every core plus the timer and pending slots, finished cores included.
//! It is the only independent check of the arena's batched fast path.
//! Both share the *identical* boot, per-quantum advancement, and
//! event-dispatch code from [`crate::engine`], so any divergence is a
//! scheduling bug — which is exactly what the suites exist to catch. Not
//! part of the supported API: the adapters in [`crate::engine`] are the
//! only production entry points.

use suit_hw::CpuModel;
use suit_isa::{SimDuration, SimTime};
use suit_telemetry::Telemetry;
use suit_trace::io::TraceMeta;
use suit_trace::{Burst, WorkloadProfile};

use crate::engine::{
    boot, build_cores, build_stream_core, collect, dispatch_event, CoreArena, CoreStream,
    MixedResult, NextEvent, SimConfig,
};
use crate::result::RunResult;

/// Reference [`crate::engine::simulate`]: the legacy scan loop.
pub fn simulate(cpu: &CpuModel, profile: &WorkloadProfile, cfg: &SimConfig) -> RunResult {
    let profiles: Vec<&WorkloadProfile> = (0..cfg.cores).map(|_| profile).collect();
    let (cores, workload) = build_cores(cpu, &profiles, cfg);
    run_cores_legacy(cpu, cores, workload, cfg, &Telemetry::off()).domain
}

/// Reference [`crate::engine::simulate_mixed`]: the legacy scan loop.
pub fn simulate_mixed(
    cpu: &CpuModel,
    profiles: &[&WorkloadProfile],
    cfg: &SimConfig,
) -> MixedResult {
    let (cores, workload) = build_cores(cpu, profiles, cfg);
    run_cores_legacy(cpu, cores, workload, cfg, &Telemetry::off())
}

/// Reference [`crate::engine::run_stream`]: the legacy scan loop.
pub fn run_stream<I>(cpu: &CpuModel, meta: &TraceMeta, bursts: I, cfg: &SimConfig) -> RunResult
where
    I: IntoIterator<Item = Burst>,
{
    let core = build_stream_core(cpu, meta, bursts.into_iter(), cfg);
    run_cores_legacy(cpu, vec![core], meta.name.clone(), cfg, &Telemetry::off()).domain
}

/// The original event loop: per-iteration linear scan for the earliest
/// next event with tie priority pending → timer → lowest core index.
fn run_cores_legacy<I: Iterator<Item = Burst>>(
    cpu: &CpuModel,
    mut cores: Vec<CoreStream<I>>,
    workload: String,
    cfg: &SimConfig,
    tele: &Telemetry,
) -> MixedResult {
    assert!(!cores.is_empty(), "need at least one core");
    let (mut hw, mut os) = boot(cpu, cfg, tele, false);
    // The reference loop builds a private arena per run (no scratch
    // reuse): storage is shared with production, scheduling is not.
    let mut arena = CoreArena::default();
    arena.reset(&mut cores, tele);

    let mut guard: u64 = 0;

    loop {
        guard += 1;
        assert!(guard < 2_000_000_000, "simulation failed to converge");

        if (0..cores.len()).all(|i| arena.finished(i)) {
            break;
        }

        let perf = hw.perf();

        // Find the earliest next event. Priority on ties:
        // pending arrival, then timer, then core events.
        let mut t_next = SimTime::from_picos(u64::MAX);
        let mut kind = NextEvent::Idle;
        for i in 0..cores.len() {
            if arena.finished(i) {
                continue;
            }
            let t = hw.now + SimDuration::from_secs_f64(arena.rem_next(i) / (arena.rate[i] * perf));
            if t < t_next {
                t_next = t;
                kind = NextEvent::Core(i);
            }
        }
        if let Some(t) = hw.timer.expires_at() {
            if t <= t_next {
                t_next = t;
                kind = NextEvent::Timer;
            }
        }
        if let Some((_, t)) = hw.pending {
            if t <= t_next {
                t_next = t;
                kind = NextEvent::Pending;
            }
        }

        // Advance execution to the event — every core of the domain is
        // visited, finished (idle-parked) or not. The arena engine
        // instead drops finished cores from its live set; the results
        // are identical (advancing a finished core is a no-op), only
        // the per-core step accounting differs.
        let dt = t_next.saturating_since(hw.now);
        if !dt.is_zero() {
            for i in 0..cores.len() {
                if arena.finished(i) {
                    continue;
                }
                let insts = arena.rate[i] * perf * dt.as_secs_f64();
                arena.advance(i, insts);
            }
            hw.run_for(dt);
        }

        dispatch_event(kind, &mut arena, &mut cores, &mut hw, &mut os, tele);
    }

    collect(&cores, &arena, hw, &os, workload).0
}
