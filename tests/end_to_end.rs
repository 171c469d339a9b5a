//! End-to-end integration: trace generation → SUIT policy → system
//! simulator → paper-shaped results, across crate boundaries.

use suit::core::strategy::StrategyParams;
use suit::core::StrategyKey;
use suit::exec::Threads;
use suit::hw::{CpuModel, UndervoltLevel};
use suit::sim::analytic::{simulate_emulation, simulate_no_simd};
use suit::sim::engine::{simulate, SimConfig};
use suit::sim::experiment::{run_row, table6_rows};
use suit::trace::profile;

const CAP: Option<u64> = Some(2_000_000_000);

fn cfg(level: UndervoltLevel) -> SimConfig {
    SimConfig::fv_intel(level).with_max_insts(CAP.unwrap())
}

#[test]
fn headline_efficiency_on_xeon() {
    // §9: "run the CPU on a more efficient DVFS curve 72.7 % of the time,
    // increasing the efficiency by 11.0 % with no performance impact".
    let spec = &table6_rows()[5]; // C∞ fV
    let row = run_row(spec, UndervoltLevel::Mv97, CAP, Threads::Auto);
    let g = row.spec_gmean();
    assert!((0.07..=0.15).contains(&g.eff), "efficiency {:+.3}", g.eff);
    assert!(
        g.perf.abs() < 0.03,
        "perf {:+.3} should be ~neutral",
        g.perf
    );
    let res = row.spec_residency_mean();
    assert!(
        (0.62..=0.82).contains(&res),
        "residency {res:.3} vs paper 0.727"
    );
}

#[test]
fn pinned_benchmark_residencies() {
    let cpu = CpuModel::xeon_4208();
    let c = cfg(UndervoltLevel::Mv97);
    let xz = simulate(&cpu, profile::by_name("557.xz").unwrap(), &c);
    let gcc = simulate(&cpu, profile::by_name("502.gcc").unwrap(), &c);
    let omnetpp = simulate(&cpu, profile::by_name("520.omnetpp").unwrap(), &c);
    assert!(
        (xz.residency() - 0.971).abs() < 0.03,
        "xz {:.3}",
        xz.residency()
    );
    assert!(
        (gcc.residency() - 0.766).abs() < 0.06,
        "gcc {:.3}",
        gcc.residency()
    );
    assert!(
        omnetpp.residency() < 0.10,
        "omnetpp {:.3}",
        omnetpp.residency()
    );
}

#[test]
fn state_time_accounting_is_conserved() {
    let cpu = CpuModel::xeon_4208();
    let r = simulate(
        &cpu,
        profile::by_name("502.gcc").unwrap(),
        &cfg(UndervoltLevel::Mv97),
    );
    let parts = r.time_e + r.time_cf + r.time_cv + r.time_stall;
    let diff = (parts.as_secs_f64() - r.duration.as_secs_f64()).abs();
    assert!(
        diff < 1e-6 * r.duration.as_secs_f64(),
        "accounting leak: {diff}"
    );
}

#[test]
fn every_workload_simulates_on_every_cpu_row() {
    for spec in table6_rows() {
        let row = run_row(
            &spec,
            UndervoltLevel::Mv70,
            Some(300_000_000),
            Threads::Auto,
        );
        assert_eq!(row.per_workload.len(), 25, "{}", spec.label);
        for r in &row.per_workload {
            assert!(r.duration.as_secs_f64() > 0.0);
            assert!(r.power() < 0.05, "{}: power {:+.3}", r.workload, r.power());
            assert!(r.perf() > -0.999, "{}", r.workload);
        }
    }
}

#[test]
fn strategies_rank_as_the_paper_argues() {
    // §4.3/§6.6 on a bursty crypto workload: fV ≥ f on performance;
    // emulation is catastrophic.
    let cpu = CpuModel::i9_9900k();
    let nginx = profile::by_name("Nginx").unwrap();
    let level = UndervoltLevel::Mv97;

    let fv = simulate(&cpu, nginx, &cfg(level));
    let mut f_cfg = cfg(level);
    f_cfg.strategy = StrategyKey::Frequency;
    let f = simulate(&cpu, nginx, &f_cfg);
    let e = simulate_emulation(&cpu, nginx, level, 0x5017, CAP);

    assert!(
        fv.perf() >= f.perf() - 0.005,
        "fV {:+.3} vs f {:+.3}",
        fv.perf(),
        f.perf()
    );
    assert!(
        e.perf() < -0.9,
        "emulation must collapse on Nginx: {:+.3}",
        e.perf()
    );
}

#[test]
fn amd_parameters_differ_and_are_used() {
    // The long 668 µs switch forces ℬ's Table 7 row (700 µs deadline);
    // running ℬ with Intel parameters must thrash harder.
    let cpu = CpuModel::ryzen_7700x();
    let gcc = profile::by_name("502.gcc").unwrap();
    let mut amd_cfg = SimConfig::for_point(&cpu, StrategyKey::Frequency, UndervoltLevel::Mv97)
        .with_max_insts(CAP.unwrap());
    let with_amd = simulate(&cpu, gcc, &amd_cfg);
    amd_cfg.params = StrategyParams::intel();
    let with_intel = simulate(&cpu, gcc, &amd_cfg);
    assert!(
        with_amd.perf() >= with_intel.perf() - 0.002,
        "AMD params {:+.4} vs Intel params {:+.4}",
        with_amd.perf(),
        with_intel.perf()
    );
}

#[test]
fn no_simd_beats_emulation_everywhere() {
    // §6.7: emulation = no-SIMD overhead + call overhead, so no-SIMD wins
    // or ties on every benchmark and both vendors.
    for cpu in [CpuModel::i9_9900k(), CpuModel::ryzen_7700x()] {
        for p in profile::spec_suite() {
            let ns = simulate_no_simd(&cpu, p, UndervoltLevel::Mv97, Some(300_000_000));
            let em = simulate_emulation(&cpu, p, UndervoltLevel::Mv97, 7, Some(300_000_000));
            assert!(em.perf() <= ns.perf() + 1e-9, "{} on {}", p.name, cpu.name);
        }
    }
}

#[test]
fn analytic_residency_predictor_matches_the_engine() {
    // Two independent views of the same mechanism — the §5.1-style trace
    // analyser and the event simulator — must agree on residency for
    // non-thrashing workloads.
    use suit::trace::analyze::{AnalyzeParams, TraceReport};
    use suit::trace::TraceGen;
    let cpu = CpuModel::xeon_4208();
    for name in ["557.xz", "502.gcc", "511.povray", "527.cam4"] {
        let p = profile::by_name(name).unwrap();
        let sim = simulate(&cpu, p, &cfg(UndervoltLevel::Mv97));
        let report = TraceReport::from_bursts(
            TraceGen::new(p, 0x5017).take(3_000),
            AnalyzeParams::xeon(p.ipc),
        );
        assert!(
            (sim.residency() - report.predicted_residency).abs() < 0.10,
            "{name}: engine {:.3} vs predictor {:.3}",
            sim.residency(),
            report.predicted_residency
        );
    }
}

#[test]
fn four_core_shared_domain_halves_the_gain() {
    // §6.4: 𝒜₁ +12 % → 𝒜₄ +5.8 % on a shared DVFS domain.
    let rows = table6_rows();
    let a1 = run_row(
        &rows[0],
        UndervoltLevel::Mv97,
        Some(1_000_000_000),
        Threads::Auto,
    );
    let a4 = run_row(
        &rows[1],
        UndervoltLevel::Mv97,
        Some(1_000_000_000),
        Threads::Auto,
    );
    let (e1, e4) = (a1.spec_gmean().eff, a4.spec_gmean().eff);
    assert!(
        e4 < e1,
        "shared domain must cost efficiency: {e1:.3} vs {e4:.3}"
    );
    assert!(e4 > 0.0, "but a gain must remain (paper: +5.8 %)");
    assert!(e4 / e1 > 0.25 && e4 / e1 < 0.85, "ratio {:.2}", e4 / e1);
}
