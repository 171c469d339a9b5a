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
//! 3. **Batched accumulation is exact** — the closed forms behind the
//!    lone-core fast path (`suit::sim::accum`) land on the bit pattern
//!    the per-step f64 loops they replace would reach.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker, Source};
use suit::exec::Threads;
use suit::hw::{CpuModel, UndervoltLevel};
use suit::sim::accum;
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

/// The per-step loop [`accum::add_n`] replaces.
fn add_n_per_step(mut x: f64, c: f64, n: u64) -> f64 {
    for _ in 0..n {
        x += c;
    }
    x
}

/// The per-step loop [`accum::sub_while_above`] replaces.
fn sub_while_above_per_step(mut y: f64, s: f64, w: f64, cap: u64) -> (u64, f64) {
    let mut n = 0;
    while n < cap {
        if y <= w {
            break;
        }
        y -= s;
        n += 1;
    }
    (n, y)
}

/// Both closed forms against their per-step loops, bit for bit, on one
/// `(x, c, w, cap)`: `add_n(x, c, cap)` and `sub_while_above(x, c, w, cap)`.
fn accumulation_agrees(&(x, c, w, cap): &(f64, f64, f64, u64)) -> Result<(), String> {
    let (fast, slow) = (accum::add_n(x, c, cap), add_n_per_step(x, c, cap));
    if fast.to_bits() != slow.to_bits() {
        return Err(format!(
            "add_n({x:e}, {c:e}, {cap}) = {fast:e} ({:#x}), per step {slow:e} ({:#x})",
            fast.to_bits(),
            slow.to_bits()
        ));
    }
    let fast = accum::sub_while_above(x, c, w, cap);
    let slow = sub_while_above_per_step(x, c, w, cap);
    if (fast.0, fast.1.to_bits()) != (slow.0, slow.1.to_bits()) {
        return Err(format!(
            "sub_while_above({x:e}, {c:e}, {w:e}, {cap}) = {fast:?} ({:#x}), per step {slow:?} ({:#x})",
            fast.1.to_bits(),
            slow.1.to_bits()
        ));
    }
    Ok(())
}

/// `2^e`, clamped to the finite range: zero below the subnormals,
/// `2^1023` above the top binade.
fn pow2(e: i32) -> f64 {
    match e {
        ..=-1075 => 0.0,
        -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
        _ => f64::from_bits(((e.min(1023) + 1023) as u64) << 52),
    }
}

/// A value in `[base, 2·base)` with a random mantissa (odd or even).
fn in_binade(src: &mut Source, base: f64) -> f64 {
    let width = base.to_bits().clamp(1, 1 << 52);
    f64::from_bits(base.to_bits() + src.choice(width))
}

/// Kernel inputs biased toward the cases the closed form must get right:
/// few-bit operands (exact half-ulp ties), starts at `2^k` and
/// `2^k − ulp` (binade edges), zero and subnormal starts, steps from
/// many binades wide down to below half an ulp, thresholds in and out
/// of reach, and step budgets from zero up.
fn accumulations() -> Gen<(f64, f64, f64, u64)> {
    Gen::new(|src| {
        // The start's binade: everyday, near the subnormals, near
        // overflow, or anywhere.
        let e = match src.choice(4) {
            0 => src.choice(60) as i32 - 20,
            1 => src.choice(80) as i32 - 1074,
            2 => src.choice(64) as i32 + 960,
            _ => src.choice(2098) as i32 - 1074,
        };
        let base = pow2(e);
        let mut x = match src.choice(6) {
            0 => ((1 + src.choice(255)) as f64 * base).min(f64::MAX),
            1 => base,
            2 => f64::from_bits(base.to_bits() - 1),
            3 => 0.0,
            4 => f64::from_bits(1 + src.choice((1 << 52) - 1)),
            _ => in_binade(src, base),
        };
        // The step's scale below the start's: a few binades crossed per
        // thousand steps, around one ulp (ties, tiny steps), or anywhere.
        let j = match src.choice(3) {
            0 => src.choice(20) as i32,
            1 => src.choice(12) as i32 + 47,
            _ => src.choice(80) as i32 - 8,
        };
        let c_base = pow2(e - j);
        let mut c = match src.choice(3) {
            0 => ((1 + src.choice(15)) as f64 * c_base).min(f64::MAX),
            1 => c_base,
            _ => in_binade(src, c_base),
        };
        if src.choice(4) == 0 {
            x = -x;
        }
        if src.choice(4) == 0 {
            c = -c;
        }
        let cap = match src.choice(8) {
            0 => 0,
            1 => 1 + src.choice(3),
            2 | 3 => src.choice(65),
            4..=6 => src.choice(4097),
            _ => src.choice((1 << 16) + 1),
        };
        let w = match src.choice(7) {
            // Roughly where a random step of the budget lands.
            0 | 1 => x - c.abs() * src.choice(cap + 1) as f64,
            2 => -f64::MAX,
            3 => x,
            4 => f64::NAN,
            5 => [0.0, -0.0][src.choice(2) as usize],
            _ => f64::from_bits(x.to_bits().saturating_sub(1 + src.choice(1 << 20))),
        };
        (x, c, w, cap)
    })
}

/// Property 3: both closed forms behind the lone-core fast path are
/// bit-identical to the per-step loops they replace.
#[test]
fn batched_accumulation_matches_per_step_loops() {
    Checker::new("scheduler_props::batched_accumulation")
        .cases_from_env_or(4000)
        .corpus(corpus_dir!())
        .check(&accumulations(), accumulation_agrees);
}
