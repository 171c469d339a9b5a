//! Differential equivalence suite: the production arena scheduler vs.
//! the legacy scan loop.
//!
//! The two engines share the boot, per-quantum advancement, dispatch,
//! and collection code verbatim (`suit::sim::engine`) and differ only in
//! event selection: the production arena loop (`suit::sim::arena` —
//! linear argmin over flat core state plus a batched lone-core fast
//! path) and the original one-event-per-round linear scan
//! (`suit::sim::legacy`). This suite pins them **byte-identical** —
//! same `Debug` rendering, so every `f64` bit pattern agrees, not just
//! approximate equality — across:
//!
//! * every built-in workload profile × all three curve-switching
//!   strategies (`fv`, `f`, `V`), at 1 and 4 executor threads;
//! * multi-core consolidation mixes on the shared-domain CPU
//!   (`simulate_mixed`);
//! * streamed traces through `run_stream`;
//! * a ≥1024-core fleet scenario, sharded at 1 and 4 threads.
//!
//! The suite also pins the idle-park bugfix: the legacy loop advanced
//! *every* core of a shared DVFS domain each quantum, finished or not;
//! the production engine drops finished cores from its live set, so an
//! idle window contributes zero per-core step events to telemetry. It
//! asserts the arena scheduler's hot loop is allocation-free once its
//! thread-local scratch is warm, via the telemetry `EngineScratchAllocs`
//! counter. A replay of more than 2·10⁹ events checks that the engine's
//! convergence guard bounds scheduler rounds, not trace length. Finally,
//! release-only cells run the crypto workloads at campaign length, where
//! the fast path commits bursts of tens of thousands of events at once.

use suit::core::StrategyKey;
use suit::exec::Threads;
use suit::hw::{CpuModel, UndervoltLevel};
use suit::sim::engine::{run_stream, simulate, simulate_mixed, SimConfig};
use suit::sim::fleet::{FleetConfig, FleetSim};
use suit::sim::legacy;
use suit::telemetry::{Counter, Telemetry};
use suit::trace::event::TraceSummary;
use suit::trace::{profile, TraceGen};

const INSTS: u64 = 20_000_000;

fn strategies(level: UndervoltLevel) -> Vec<(&'static str, SimConfig)> {
    let fv = SimConfig::fv_intel(level);
    let f = SimConfig {
        strategy: suit::core::StrategyKey::Frequency,
        ..SimConfig::fv_intel(level)
    };
    let v = SimConfig {
        strategy: suit::core::StrategyKey::Voltage,
        ..SimConfig::fv_intel(level)
    };
    vec![("fv", fv), ("f", f), ("V", v)]
}

/// Every (workload × strategy) cell, one production arena run against
/// the reference, compared byte-for-byte — fanned out at both 1 and 4
/// threads, which must also agree with each other.
#[test]
fn all_workloads_all_strategies_match_legacy() {
    let cpu = CpuModel::xeon_4208();
    let cells: Vec<(&'static str, SimConfig)> = profile::all()
        .iter()
        .flat_map(|p| {
            strategies(UndervoltLevel::Mv97)
                .into_iter()
                .map(move |(_, cfg)| (p.name, cfg.with_max_insts(INSTS)))
        })
        .collect();
    assert!(cells.len() >= 75, "expected 25 workloads x 3 strategies");

    let run_all = |threads: Threads| -> Vec<String> {
        suit::exec::run(cells.len(), threads, |i| {
            let (name, cfg) = &cells[i];
            let p = profile::by_name(name).expect("known profile");
            let new = simulate(&cpu, p, cfg);
            let old = legacy::simulate(&cpu, p, cfg);
            assert_eq!(new, old, "{name} {:?} diverged from legacy", cfg.strategy);
            format!("{new:?}")
        })
    };

    let t1 = run_all(Threads::Fixed(1));
    let t4 = run_all(Threads::Fixed(4));
    assert_eq!(t1, t4, "results depend on thread count");
}

/// Consolidation mixes exercise the multi-core shared-domain path
/// (heterogeneous cores, one curve) where event-selection order
/// matters most.
#[test]
fn consolidation_mixes_match_legacy() {
    let cpu = CpuModel::i9_9900k();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(INSTS);
    for name in profile::MIX_NAMES {
        let workloads = profile::mix(name).expect("known mix");
        let new = simulate_mixed(&cpu, &workloads, &cfg);
        let old = legacy::simulate_mixed(&cpu, &workloads, &cfg);
        assert_eq!(
            format!("{new:?}"),
            format!("{old:?}"),
            "mix '{name}' diverged from legacy"
        );
    }
}

/// Streamed input (`run_stream`) drives the engine through the
/// iterator-backed core instead of the lazy generator.
#[test]
fn streamed_traces_match_legacy() {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").expect("502.gcc");
    let meta = suit::trace::io::TraceMeta {
        name: p.name.into(),
        ipc: p.ipc,
        total_insts: p.total_insts,
    };
    for (label, cfg) in strategies(UndervoltLevel::Mv97) {
        let cfg = cfg.with_max_insts(INSTS);
        let bursts: Vec<suit::trace::Burst> = TraceGen::new(p, 0x5EED).collect();
        let new = run_stream(&cpu, &meta, bursts.iter().copied(), &cfg);
        let old = legacy::run_stream(&cpu, &meta, bursts.iter().copied(), &cfg);
        assert_eq!(
            format!("{new:?}"),
            format!("{old:?}"),
            "streamed {label} diverged from legacy"
        );
    }
}

/// A ≥1024-core fleet: byte-identical across thread counts.
#[test]
fn kilo_core_fleet_is_engine_invariant() {
    let cfg = FleetConfig {
        racks: 16,
        domains_per_rack: 16,
        cores_per_domain: 4, // 16 x 16 x 4 = 1024 cores
        epochs: 2,
        epoch_insts: 1_000_000,
        workloads: vec!["502.gcc".into(), "557.xz".into()],
        ..FleetConfig::default()
    };
    let sim = FleetSim::new(cfg).expect("valid fleet");
    assert_eq!(sim.active_domains() * sim.config().cores_per_domain, 1024);
    let t1 = sim.run(Threads::Fixed(1));
    let t4 = sim.run(Threads::Fixed(4));
    assert_eq!(format!("{t1:?}"), format!("{t4:?}"), "thread-dependent");
    assert!(t1.events() > 0, "fleet simulated nothing");
}

/// Idle-park regression: cores that finish early leave the scheduler's
/// live set, so idle windows contribute zero per-core step events. A
/// 4-core mix with very different workload lengths makes the cores
/// finish far apart; if parked cores were still being stepped, the
/// per-core step count would equal `cores x quanta`.
#[test]
fn idle_parked_cores_contribute_zero_steps() {
    let cpu = CpuModel::i9_9900k();
    let tele = Telemetry::with_capacity(64);
    let cfg = SimConfig {
        cores: 4,
        ..SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(8_000_000)
    };
    // Heterogeneous IPCs make the cores finish far apart (the 0.5-IPC
    // mcf core runs ~4x longer than the 1.8-IPC perlbench core).
    let profiles: Vec<&suit::trace::profile::WorkloadProfile> =
        ["505.mcf", "502.gcc", "557.xz", "500.perlbench"]
            .iter()
            .map(|n| profile::by_name(n).expect("known profile"))
            .collect();
    let _ = suit::sim::engine::simulate_mixed_telemetry(&cpu, &profiles, &cfg, &tele);
    let snap = tele.snapshot();
    let quanta = snap.counter(Counter::EngineQuanta);
    let steps = snap.counter(Counter::CoreSteps);
    assert!(quanta > 0, "no quanta recorded");
    assert!(
        steps < 4 * quanta,
        "every quantum stepped all 4 cores ({steps} steps over {quanta} quanta): \
         idle-parked cores are being advanced"
    );
    assert!(steps >= quanta, "fewer steps than quanta is impossible");
}

/// Allocation-free hot loop: once a warm-up run has grown the arena
/// scheduler's thread-local scratch to its high-water mark, later runs
/// on the same thread never reallocate — `EngineScratchAllocs` ticks
/// only when a reset has to grow a buffer, and must stay at zero for a
/// fresh recording run of the same shape (single-core and the 4-core
/// shared-domain path).
#[test]
fn warm_quantum_loop_never_allocates_scratch() {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").expect("502.gcc");
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(INSTS);
    let mixed_cpu = CpuModel::i9_9900k();
    let mixed_cfg = SimConfig {
        cores: 4,
        ..SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(8_000_000)
    };
    let profiles: Vec<&suit::trace::profile::WorkloadProfile> =
        ["505.mcf", "502.gcc", "557.xz", "500.perlbench"]
            .iter()
            .map(|n| profile::by_name(n).expect("known profile"))
            .collect();

    // Warm-up: grows this thread's scratch to the 4-core high-water mark.
    let _ = simulate(&cpu, p, &cfg);
    let _ = simulate_mixed(&mixed_cpu, &profiles, &mixed_cfg);

    // Recording runs on the warmed thread must not touch the allocator.
    let tele = Telemetry::with_capacity(64);
    let warm_single = suit::sim::engine::simulate_telemetry(&cpu, p, &cfg, &tele);
    let _ = suit::sim::engine::simulate_mixed_telemetry(&mixed_cpu, &profiles, &mixed_cfg, &tele);
    let snap = tele.snapshot();
    assert!(
        snap.counter(Counter::EngineQuanta) > 0,
        "no quanta recorded"
    );
    assert_eq!(
        snap.counter(Counter::EngineScratchAllocs),
        0,
        "warm arena runs grew their scratch buffers"
    );

    // The reuse is invisible in the results: a warmed run is byte-equal
    // to a cold reference run.
    assert_eq!(
        format!("{warm_single:?}"),
        format!("{:?}", legacy::simulate(&cpu, p, &cfg))
    );
}

/// Convergence-guard regression: a valid trace with more than 2·10⁹
/// faultable events replays to the end. The guard once counted every
/// batched event, so this replay panicked with "simulation failed to
/// converge" although every scheduler round made progress. Streamed, so
/// the trace is never resident.
#[test]
fn replay_past_two_billion_events_completes() {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("Nginx").expect("Nginx");
    let bursts = || {
        (0u64..)
            .flat_map(move |s| TraceGen::new(p, 0x5EED + s))
            .take(20_000)
    };
    let summary = TraceSummary::from_bursts(bursts());
    assert!(summary.events > 2_100_000_000, "{} events", summary.events);
    let meta = suit::trace::io::TraceMeta {
        name: p.name.into(),
        ipc: p.ipc,
        total_insts: summary.insts,
    };
    let r = run_stream(
        &cpu,
        &meta,
        bursts(),
        &SimConfig::fv_intel(UndervoltLevel::Mv97),
    );
    assert_eq!(
        r.events, summary.events,
        "replay stopped short of the trace"
    );
}

/// Campaign-length crypto cells: Nginx and VLC at 2·10⁹ instructions
/// under 𝑓𝑉 and adaptive, the runs whose bursts (up to ~50k events
/// each) the fast path commits in one batch. The 20M-instruction matrix
/// above reaches only a few such batches.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "legacy oracle at 2e9 instructions; run it with --release"
)]
fn campaign_length_crypto_runs_match_legacy() {
    let cpu = CpuModel::xeon_4208();
    for name in ["Nginx", "VLC"] {
        let p = profile::by_name(name).expect("known profile");
        for strategy in [StrategyKey::FreqVolt, StrategyKey::Adaptive] {
            let cfg = SimConfig::for_point(&cpu, strategy, UndervoltLevel::Mv97)
                .with_max_insts(2_000_000_000);
            assert_eq!(
                format!("{:?}", simulate(&cpu, p, &cfg)),
                format!("{:?}", legacy::simulate(&cpu, p, &cfg)),
                "{name} {} diverged from legacy",
                strategy.key()
            );
        }
    }
}
