//! Property tests for the discrete-event scheduler.
//!
//! The engine's correctness rests on two scheduler invariants, each
//! pinned here over randomized inputs (seeds replay from
//! `tests/corpus/` before random exploration):
//!
//! 1. **Time never moves backwards, and the arena loop agrees with the
//!    scan oracle** — for random configurations the recorded p-state
//!    timeline is nondecreasing in time, and the result is
//!    `Debug`-byte-identical to `suit::sim::legacy`'s one-event-per-round
//!    scan loop.
//! 2. **Sharding is invisible** — for random fleet topologies, the
//!    domain-sharded driver produces identical results at 1 and 4
//!    threads.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker};
use suit::exec::Threads;
use suit::hw::{CpuModel, UndervoltLevel};
use suit::sim::engine::{simulate_with_timeline, SimConfig};
use suit::sim::fleet::{FleetConfig, FleetSim};
use suit::sim::legacy;
use suit::trace::profile;

/// Property 1: no component observes time moving backwards — the
/// recorded p-state timeline of a random configuration is nondecreasing
/// — and the arena result matches the legacy scan oracle byte for byte.
#[test]
fn timelines_never_move_backwards() {
    let workloads: Vec<&'static str> = profile::all().iter().map(|p| p.name).collect();
    let n = workloads.len();
    let scenario = gen::pair(
        &gen::pair(&gen::usize_in(0..=n - 1), &gen::from_slice(&[1usize, 2, 4])),
        &gen::pair(
            &gen::u64_any(),
            &gen::from_slice(&[1_000_000u64, 4_000_000, 20_000_000]),
        ),
    );
    Checker::new("scheduler_props::time_forward")
        .cases_from_env_or(40)
        .corpus(corpus_dir!())
        .check(
            &scenario,
            move |&((wi, cores), (seed, insts)): &((usize, usize), (u64, u64))| {
                let p = profile::by_name(workloads[wi]).expect("known");
                let cpu = CpuModel::i9_9900k();
                let cfg = SimConfig {
                    cores,
                    seed,
                    ..SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(insts)
                };
                let (run, timeline) = simulate_with_timeline(&cpu, p, &cfg);
                let oracle = legacy::simulate(&cpu, p, &cfg);
                if format!("{run:?}") != format!("{oracle:?}") {
                    return Err(format!("arena {run:?} != legacy {oracle:?}"));
                }
                for w in timeline.windows(2) {
                    if w[1].at < w[0].at {
                        return Err(format!(
                            "timeline went backwards: {:?} then {:?}",
                            w[0], w[1]
                        ));
                    }
                }
                Ok(())
            },
        );
}

/// Random small-but-structured fleet topologies.
fn topologies() -> Gen<FleetConfig> {
    let shape = gen::pair(
        &gen::pair(&gen::usize_in(1..=3), &gen::usize_in(1..=3)),
        &gen::pair(&gen::usize_in(1..=2), &gen::usize_in(1..=3)),
    );
    let knobs = gen::pair(
        &gen::pair(&gen::u64_any(), &gen::from_slice(&[0.3f64, 0.7, 1.0])),
        &gen::pair(
            &gen::from_slice(&["502.gcc", "557.xz", "520.omnetpp", "Nginx"]),
            &gen::from_slice(&[0.0f64, 4.0]),
        ),
    );
    gen::pair(&shape, &knobs).map(
        |(((racks, dpr), (cpd, epochs)), ((seed, util), (workload, age)))| FleetConfig {
            racks,
            domains_per_rack: dpr,
            cores_per_domain: cpd,
            epochs,
            epoch_insts: 1_000_000,
            seed,
            utilization: util,
            workloads: vec![workload.to_string()],
            deployment_years: age,
            ..FleetConfig::default()
        },
    )
}

/// Property 2: domain-sharded execution is indistinguishable from
/// single-threaded execution for random fleet topologies.
#[test]
fn sharded_fleet_equals_serial_for_random_topologies() {
    Checker::new("scheduler_props::fleet_shard")
        .cases_from_env_or(25)
        .corpus(corpus_dir!())
        .check(&topologies(), |cfg: &FleetConfig| {
            let sim = FleetSim::new(cfg.clone()).map_err(|e| format!("invalid config: {e}"))?;
            let t1 = sim.run(Threads::Fixed(1));
            let t4 = sim.run(Threads::Fixed(4));
            if format!("{t1:?}") != format!("{t4:?}") {
                return Err("sharded run depends on thread count".to_string());
            }
            Ok(())
        });
}
