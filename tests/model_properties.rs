//! Property-style invariants over the hardware models, trace generators
//! and the system simulator — the "can't-happen" class of bugs.
//!
//! Every seeded loop here runs through [`suit::check`]: cases are
//! explored from a deterministic base seed, failures shrink to a minimal
//! counterexample, and the failing case seed is persisted to
//! `tests/corpus/` so the regression replays first on every future run.

use suit::check::{corpus_dir, gen, Checker};
use suit::core::strategy::StrategyParams;
use suit::core::thrash::ThrashGuard;
use suit::core::StrategyKey;
use suit::hw::{CpuModel, DelayTable, DvfsCurve, Point, TransitionDelays, UndervoltLevel};
use suit::isa::{SimDuration, SimTime};
use suit::rng::SuitRng;
use suit::sim::engine::{simulate, SimConfig};
use suit::trace::{profile, Burst, TraceGen};

/// DVFS curve interpolation is monotone and bounded for any query pair.
#[test]
fn dvfs_curve_is_monotone() {
    let c = DvfsCurve::i9_9900k();
    Checker::new("model::dvfs_monotone")
        .cases(256)
        .corpus(corpus_dir!())
        .check(
            &gen::pair(&gen::f64_in(0.5, 6.0), &gen::f64_in(0.5, 6.0)),
            move |&(f1, f2)| {
                let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
                if c.voltage_at(lo) > c.voltage_at(hi) + 1e-9 {
                    return Err(format!("voltage not monotone between {lo} and {hi}"));
                }
                let v = c.voltage_at(f1);
                if !(700.0..=1300.0).contains(&v) {
                    return Err(format!("voltage {v} outside the physical range"));
                }
                Ok(())
            },
        );
}

/// `max_freq_at_voltage` inverts `voltage_at` on the curve's range.
#[test]
fn dvfs_inversion_roundtrips() {
    let c = DvfsCurve::i9_9900k();
    Checker::new("model::dvfs_inversion")
        .cases(256)
        .corpus(corpus_dir!())
        .check(&gen::f64_in(1.0, 5.0), move |&f| {
            let v = c.voltage_at(f);
            let back = c.max_freq_at_voltage(v);
            // On flat segments many frequencies share a voltage: the
            // inverse must return one at least as fast, still safe.
            if back < f - 1e-9 {
                return Err(format!("inverse {back} slower than query {f}"));
            }
            if c.voltage_at(back) > v + 1e-9 {
                return Err(format!("inverse {back} needs more than {v} mV"));
            }
            Ok(())
        });
}

/// The steady-state undervolt response is well behaved on the whole
/// modelled range, not just at the two paper points.
#[test]
fn undervolt_response_is_sane() {
    Checker::new("model::undervolt_response")
        .cases(128)
        .corpus(corpus_dir!())
        .check(&gen::f64_in(-97.0, 0.0), |&offset| {
            for cpu in [
                CpuModel::i9_9900k(),
                CpuModel::ryzen_7700x(),
                CpuModel::i5_1035g1(),
            ] {
                let r = cpu.steady.response(offset);
                if r.power > 1e-12 {
                    return Err(format!(
                        "{}: undervolting raised power {}",
                        cpu.name, r.power
                    ));
                }
                if r.score < -1e-12 {
                    return Err(format!("{}: negative score {}", cpu.name, r.score));
                }
                if r.power <= -0.35 {
                    return Err(format!("{}: implausible power {}", cpu.name, r.power));
                }
                if r.score >= 0.25 {
                    return Err(format!("{}: implausible score {}", cpu.name, r.score));
                }
            }
            Ok(())
        });
}

/// The precomputed [`DelayTable`] is bit-identical to the closed-form
/// µs → [`SimDuration`] conversions for every operating point ×
/// transition kind — including the Monte-Carlo jittered paths, which
/// rebuild the table from each run's sampled delays (mirroring the
/// resampling `sim::montecarlo` performs before boot).
#[test]
fn delay_table_matches_closed_form_under_jitter() {
    let case = gen::pair(&gen::u64_any(), &gen::usize_in(0..=2));
    Checker::new("model::delay_table")
        .cases(256)
        .corpus(corpus_dir!())
        .check(&case, move |&(seed, which)| {
            let base = match which {
                0 => TransitionDelays::i9_9900k(),
                1 => TransitionDelays::ryzen_7700x(),
                _ => TransitionDelays::xeon_4208(),
            };
            let mut d = base;
            let mut rng = SuitRng::seed_from_u64(seed);
            d.freq_change_us = base.sample_freq_change(&mut rng).as_micros_f64();
            d.volt_change_us = base.sample_volt_change(&mut rng).as_micros_f64();
            if base.freq_stall_us > 0.0 {
                d.freq_stall_us = d.freq_change_us.min(base.freq_stall_us);
            }
            let t = DelayTable::new(&d);
            for kind in Point::ALL {
                let sync = match kind {
                    Point::Cv => d.volt_change() + d.freq_change(),
                    _ => d.freq_change(),
                };
                let async_ = match kind {
                    Point::Cv => d.volt_change(),
                    _ => d.freq_change(),
                };
                if t.sync_wait(kind) != sync {
                    return Err(format!("{kind:?}: sync_wait diverges from closed form"));
                }
                if t.async_delay(kind) != async_ {
                    return Err(format!("{kind:?}: async_delay diverges from closed form"));
                }
            }
            if t.freq_stall() != d.freq_stall() {
                return Err("freq_stall diverges".into());
            }
            if t.exception() != d.exception() {
                return Err("exception diverges".into());
            }
            if t.emulation_call() != d.emulation_call() {
                return Err("emulation_call diverges".into());
            }
            if t.emulation_remainder() != d.emulation_call().saturating_sub(d.exception()) {
                return Err("emulation_remainder diverges".into());
            }
            Ok(())
        });
}

/// Trace generation: bursts are structurally valid for any seed/profile.
#[test]
fn trace_bursts_are_well_formed() {
    let profiles = profile::all();
    Checker::new("model::trace_bursts")
        .cases(64)
        .corpus(corpus_dir!())
        .check(
            &gen::pair(&gen::u64_any(), &gen::usize_in(0..=profiles.len() - 1)),
            move |&(seed, idx)| {
                let p = &profiles[idx];
                let bursts: Vec<Burst> = TraceGen::new(p, seed).take(200).collect();
                if bursts.is_empty() {
                    return Err(format!("{}: no bursts", p.name));
                }
                for b in &bursts {
                    if b.events < 1 || b.gap_insts == 0 {
                        return Err(format!("{}: degenerate burst {b:?}", p.name));
                    }
                    if !b.opcode.is_faultable() {
                        return Err(format!("{}: non-faultable {:?}", p.name, b.opcode));
                    }
                }
                Ok(())
            },
        );
}

/// Engine invariants for arbitrary seeds, levels and workloads:
/// accounting conservation, metric ranges, episode consistency.
#[test]
fn engine_invariants() {
    let profiles = profile::all();
    let case = gen::triple(
        &gen::u64_any(),
        &gen::usize_in(0..=profiles.len() - 1),
        &gen::bool_any(),
    );
    Checker::new("model::engine_invariants")
        .cases(48)
        .corpus(corpus_dir!())
        .check(&case, move |&(seed, idx, deep)| {
            let level = if deep {
                UndervoltLevel::Mv70
            } else {
                UndervoltLevel::Mv97
            };
            let p = &profiles[idx];
            let mut cfg = SimConfig::fv_intel(level).with_max_insts(150_000_000);
            cfg.seed = seed;
            let r = simulate(&CpuModel::xeon_4208(), p, &cfg);

            // Time accounting conserves.
            let parts = r.time_e + r.time_cf + r.time_cv + r.time_stall;
            let diff = (parts.as_secs_f64() - r.duration.as_secs_f64()).abs();
            if diff >= 1e-6 * r.duration.as_secs_f64().max(1e-9) {
                return Err(format!("{}: time accounting leaks {diff}", p.name));
            }

            // Metrics in physical ranges.
            if !(0.0..=1.0 + 1e-9).contains(&r.residency()) {
                return Err(format!("residency {} outside [0, 1]", r.residency()));
            }
            if r.power() > 1e-9 {
                return Err(format!("undervolting raised mean power: {}", r.power()));
            }
            if r.power() <= -0.25 {
                return Err(format!("implausible power {}", r.power()));
            }
            if r.perf() <= -0.30 || r.perf() >= 0.10 {
                return Err(format!("implausible perf {}", r.perf()));
            }
            // Episode accounting: timers never outnumber exceptions.
            if r.timer_fires > r.exceptions {
                return Err(format!(
                    "{} timers > {} exceptions",
                    r.timer_fires, r.exceptions
                ));
            }
            if r.events < r.exceptions {
                return Err(format!("{} events < {} exceptions", r.events, r.exceptions));
            }
            Ok(())
        });
}

/// Strategy-parameter robustness: any sane deadline keeps the engine
/// convergent and the metrics bounded (the paper's "workloads tolerate
/// a range rather than requiring individual parameters").
#[test]
fn any_sane_deadline_works() {
    let p = profile::by_name("502.gcc").unwrap();
    Checker::new("model::any_sane_deadline")
        .cases(48)
        .corpus(corpus_dir!())
        .check(
            &gen::pair(&gen::u64_in(2..=499), &gen::u32_in(2..=39)),
            move |&(dl_us, df)| {
                let mut cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(150_000_000);
                cfg.params = StrategyParams::intel()
                    .with_deadline(SimDuration::from_micros(dl_us))
                    .with_deadline_factor(f64::from(df));
                let r = simulate(&CpuModel::xeon_4208(), p, &cfg);
                if r.perf() <= -0.25 {
                    return Err(format!("dl {dl_us} df {df}: perf {}", r.perf()));
                }
                if r.efficiency() <= -0.15 {
                    return Err(format!("dl {dl_us} df {df}: eff {}", r.efficiency()));
                }
                Ok(())
            },
        );
}

/// Thrash detection is monotone in its parameters: on the same exception
/// stream, a lower threshold or a longer look-back window can only
/// detect thrashing at least as often (§4.3).
#[test]
fn thrash_guard_is_monotone_in_its_parameters() {
    // Inter-arrival gaps in µs; cumulative sum gives the event stream.
    let gaps = gen::u64_in(0..=600).vec_up_to(40);
    let params = gen::pair(&gen::u32_in(1..=5), &gen::u64_in(50..=900));
    let case = gen::triple(&gaps, &params, &params);
    let activations = |gaps: &[u64], threshold: u32, window_us: u64| -> u64 {
        let mut g = ThrashGuard::new(SimDuration::from_micros(window_us), threshold);
        let mut now = SimTime::ZERO;
        for &gap in gaps {
            now += SimDuration::from_micros(gap);
            g.record_exception(now);
        }
        g.activations()
    };
    Checker::new("model::thrash_monotone")
        .cases(512)
        .corpus(corpus_dir!())
        .check(&case, move |(gaps, a, b)| {
            // Order the two parameter sets so `strict` is pointwise at
            // least as sensitive as `lax`.
            let strict = (a.0.min(b.0), a.1.max(b.1));
            let lax = (a.0.max(b.0), a.1.min(b.1));
            let sensitive = activations(gaps, strict.0, strict.1);
            let relaxed = activations(gaps, lax.0, lax.1);
            if sensitive < relaxed {
                return Err(format!(
                    "threshold {} window {} µs detected {sensitive} < {relaxed} \
                     with threshold {} window {} µs",
                    strict.0, strict.1, lax.0, lax.1
                ));
            }
            Ok(())
        });
}

#[test]
fn generator_is_deterministic_across_all_profiles() {
    for p in profile::all() {
        let a: Vec<Burst> = TraceGen::new(p, 7).take(100).collect();
        let b: Vec<Burst> = TraceGen::new(p, 7).take(100).collect();
        assert_eq!(a, b, "{}", p.name);
    }
}

#[test]
fn analytic_imul_penalty_matches_the_o3_simulator() {
    // The trace simulator charges an analytic 4-cycle-IMUL penalty
    // (sim::engine::imul_penalty); the out-of-order model *measures* the
    // same quantity (Fig. 14 at 4 cycles). The two must agree on the
    // extremes: tiny for average SPEC, ~1-2% for x264 — and within a few
    // tenths of a point in absolute terms.
    use suit::ooo::fig14;
    use suit::sim::engine::imul_penalty;

    let data = fig14::run(300_000);
    let measured_geomean = data.geomean(0);
    let analytic_geomean: f64 = profile::spec_suite()
        .map(imul_penalty)
        .map(|p| (1.0 + p).ln())
        .sum::<f64>()
        / 23.0;
    let analytic_geomean = analytic_geomean.exp_m1();
    assert!(
        (measured_geomean - analytic_geomean).abs() < 0.004,
        "geomean: O3 {measured_geomean:.4} vs analytic {analytic_geomean:.4}"
    );

    let x264_measured = data.x264().slowdowns[0];
    let x264_analytic = imul_penalty(profile::by_name("525.x264").unwrap());
    assert!(
        (x264_measured - x264_analytic).abs() < 0.02,
        "x264: O3 {x264_measured:.4} vs analytic {x264_analytic:.4}"
    );
    assert!(x264_analytic > 5.0 * analytic_geomean.max(1e-6));
}

#[test]
fn all_workloads_simulate_on_all_cpus_and_levels() {
    for cpu in CpuModel::evaluated() {
        let strategy = match cpu.kind {
            suit::hw::CpuKind::AmdRyzen7700X => StrategyKey::Frequency,
            _ => StrategyKey::FreqVolt,
        };
        let cfg_base = SimConfig::for_point(&cpu, strategy, UndervoltLevel::Mv70);
        for p in profile::all() {
            let cfg = cfg_base.clone().with_max_insts(100_000_000);
            let r = simulate(&cpu, p, &cfg);
            assert!(r.duration.as_secs_f64() > 0.0, "{} on {}", p.name, cpu.name);
        }
    }
}
