//! Ablation studies for the design choices DESIGN.md calls out, plus
//! the Monte-Carlo error bars and the closed thermal loop.

use std::fmt::Write as _;

use suit_core::strategy::StrategyParams;
use suit_core::StrategyKey;
use suit_exec::Threads;
use suit_hw::{CpuModel, UndervoltLevel};
use suit_isa::Opcode;
use suit_sim::engine::{simulate, simulate_mixed, SimConfig};
use suit_sim::montecarlo::{monte_carlo_telemetry, monte_carlo_with_threads};
use suit_sim::thermal_loop::{thermal_loop, ThermalLoopConfig};
use suit_telemetry::TelemetrySnapshot;
use suit_trace::profile::{self, OpcodeMix, WorkloadProfile};

use crate::render::{pct, TextTable};

/// Ablation: thrashing prevention on vs. off (§4.3) for the thrash-prone
/// workloads. Without the guard, borderline gap cadences pay a curve
/// switch per burst; with it, the CPU parks on the conservative curve.
/// The (workload × guard) cells fan out over `threads` workers.
pub fn thrash_prevention(cap: Option<u64>, threads: Threads) -> TextTable {
    let cpu = CpuModel::xeon_4208();
    let mut t = TextTable::new(
        "Ablation — thrashing prevention (CPU C, fV, -97 mV)",
        &[
            "Workload",
            "Perf (on)",
            "Eff (on)",
            "Perf (off)",
            "Eff (off)",
            "Switches on/off",
        ],
    );
    const NAMES: [&str; 3] = ["520.omnetpp", "521.wrf", "502.gcc"];
    // Jobs are (workload, guard) cells: even index = guard on, odd = off.
    let results = suit_exec::run(NAMES.len() * 2, threads, |i| {
        let p = profile::by_name(NAMES[i / 2]).expect("profile");
        let mut cfg = SimConfig::fv_intel(UndervoltLevel::Mv97);
        cfg.max_insts = cap;
        if i % 2 == 1 {
            cfg.params = StrategyParams::intel().without_thrash_prevention();
        }
        simulate(&cpu, p, &cfg)
    });
    for (w, name) in NAMES.iter().enumerate() {
        let (on, off) = (&results[2 * w], &results[2 * w + 1]);
        t.row(vec![
            (*name).into(),
            pct(on.perf()),
            pct(on.efficiency()),
            pct(off.perf()),
            pct(off.efficiency()),
            format!("{}/{}", on.exceptions, off.exceptions),
        ]);
    }
    t.note("expected: for thrash-prone workloads the guard trades a sliver of efficiency for far fewer switches and better performance");
    t
}

/// Ablation: the three curve-switching strategies side by side (§4.3),
/// plus the §6.8 adaptive emulation/fV chooser. The
/// (workload × strategy) cells fan out over `threads` workers.
pub fn strategies(cap: Option<u64>, threads: Threads) -> TextTable {
    let cpu = CpuModel::xeon_4208();
    let mut t = TextTable::new(
        "Ablation — operating strategies on CPU C at -97 mV",
        &["Workload", "Strategy", "Perf", "Power", "Eff"],
    );
    const NAMES: [&str; 3] = ["557.xz", "502.gcc", "Nginx"];
    const STRATEGIES: [StrategyKey; 4] = [
        StrategyKey::Frequency,
        StrategyKey::Voltage,
        StrategyKey::FreqVolt,
        StrategyKey::Adaptive, // §6.8 dynamic selection
    ];
    let rows = suit_exec::run(NAMES.len() * STRATEGIES.len(), threads, |i| {
        let name = NAMES[i / STRATEGIES.len()];
        let p = profile::by_name(name).expect("profile");
        let strategy = STRATEGIES[i % STRATEGIES.len()];
        let cfg = SimConfig {
            strategy,
            max_insts: cap,
            ..SimConfig::fv_intel(UndervoltLevel::Mv97)
        };
        let label = match strategy {
            StrategyKey::Adaptive => "adaptive".to_string(),
            s => s.strategy().to_string(),
        };
        let r = simulate(&cpu, p, &cfg);
        vec![
            name.into(),
            label,
            pct(r.perf()),
            pct(r.power()),
            pct(r.efficiency()),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.note("fV combines f's fast engage with V's full-speed dwell (Fig. 4)");
    t.note("adaptive (Section 6.8) emulates sparse traffic and switches curves for bursts");
    t
}

/// The IMUL-trap ablation workload: what §4.2 argues against — trapping
/// IMUL like the other faultable instructions. With one IMUL every ~560 to
/// ~1 400 instructions, the deadline never expires.
pub fn imul_trap_profile() -> WorkloadProfile {
    let base = profile::by_name("502.gcc").expect("profile");
    WorkloadProfile {
        name: "gcc+trapped-IMUL",
        // One IMUL every 1/0.0007 ≈ 1 430 instructions, alone in its
        // "burst": the trap cadence SUIT would face without hardening.
        burst_interval_insts: 1.0 / base.imul_fraction,
        interval_log_sigma: 0.3,
        events_per_burst: 1.0,
        within_gap_insts: 1.0,
        opcode_mix: OpcodeMix::Only(Opcode::Imul),
        ..base.clone()
    }
}

/// Ablation: statically hardened IMUL vs. trapping IMUL (§4.2's "IMUL is
/// the exception" argument). Both variants fan out over `threads`.
pub fn imul_hardening(cap: Option<u64>, threads: Threads) -> TextTable {
    let cpu = CpuModel::xeon_4208();
    let mut t = TextTable::new(
        "Ablation — hardened 4-cycle IMUL vs. trapping IMUL (CPU C, fV, -97 mV)",
        &["Variant", "Residency", "Perf", "Eff"],
    );
    let mut cfg = SimConfig::fv_intel(UndervoltLevel::Mv97);
    cfg.max_insts = cap.map(|c| c.min(1_000_000_000));

    let trap_profile = imul_trap_profile();
    let labels = ["hardened IMUL (SUIT)", "trapped IMUL"];
    let results = suit_exec::run(2, threads, |i| {
        let p = if i == 0 {
            profile::by_name("502.gcc").expect("profile")
        } else {
            &trap_profile
        };
        simulate(&cpu, p, &cfg)
    });
    for (label, r) in labels.iter().zip(&results) {
        t.row(vec![
            (*label).into(),
            format!("{:.1}%", r.residency() * 100.0),
            pct(r.perf()),
            pct(r.efficiency()),
        ]);
    }
    t.note("§4.2: trapping IMUL would keep the CPU permanently on the conservative curve, erasing the efficiency gain");
    t
}

/// Ablation: workload consolidation on a single shared DVFS domain (§6.4
/// extended) — a quiet benchmark next to increasingly noisy neighbours.
/// The solo run and the three pairings fan out over `threads` workers.
pub fn noisy_neighbor(cap: Option<u64>, threads: Threads) -> TextTable {
    let cpu = CpuModel::i9_9900k(); // single shared domain
    let xz = profile::by_name("557.xz").expect("profile");
    let mut t = TextTable::new(
        "Ablation — noisy neighbours on the i9-9900K's shared DVFS domain (fV, -97 mV)",
        &[
            "Configuration",
            "Domain residency",
            "Domain power",
            "557.xz perf",
        ],
    );
    let mut cfg = SimConfig::fv_intel(UndervoltLevel::Mv97);
    cfg.max_insts = cap.map(|c| c.min(1_500_000_000));

    const NEIGHBORS: [&str; 3] = ["502.gcc", "Nginx", "520.omnetpp"];
    // Job 0 is the solo baseline; jobs 1..=3 pair xz with a neighbour.
    let rows = suit_exec::run(1 + NEIGHBORS.len(), threads, |i| {
        if i == 0 {
            let solo = simulate(&cpu, xz, &cfg);
            vec![
                "557.xz alone".into(),
                format!("{:.1}%", solo.residency() * 100.0),
                pct(solo.power()),
                pct(solo.perf()),
            ]
        } else {
            let neighbor = NEIGHBORS[i - 1];
            let n = profile::by_name(neighbor).expect("profile");
            let m = simulate_mixed(&cpu, &[xz, n], &cfg);
            vec![
                format!("557.xz + {neighbor}"),
                format!("{:.1}%", m.domain.residency() * 100.0),
                pct(m.domain.power()),
                pct(m.per_core[0].perf()),
            ]
        }
    });
    for row in rows {
        t.row(row);
    }
    t.note("a thrash-prone neighbour parks the whole domain on the conservative curve; per-core DVFS domains (CPU C) avoid this");
    t
}

/// Monte-Carlo error bars around the headline Table 6 cell: C∞ fV at
/// −97 mV with per-run sampled transition delays and trace seeds, `runs`
/// per workload over `threads` workers. The distributions are
/// byte-identical at every worker count. With `telemetry`, per-run
/// counters, histograms and events are merged deterministically across
/// workers and their summary follows the table.
pub fn montecarlo(runs: usize, threads: Threads, telemetry: bool) -> String {
    let workers = threads.count();
    let mut merged = TelemetrySnapshot::default();
    let cpu = CpuModel::xeon_4208();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(2_000_000_000);
    let mut out =
        format!("Monte-Carlo ({runs} runs/workload): sampled transition delays + trace seeds\n");
    let _ = writeln!(
        out,
        "{:<16} {:>22} {:>22} {:>14}",
        "workload", "efficiency (mean+/-sd)", "perf (mean+/-sd)", "residency"
    );
    for name in [
        "557.xz",
        "502.gcc",
        "525.x264",
        "520.omnetpp",
        "Nginx",
        "VLC",
    ] {
        let p = profile::by_name(name).expect("workload");
        let mc = if telemetry {
            let (mc, snap) = monte_carlo_telemetry(&cpu, p, &cfg, runs, workers);
            merged.merge_shard(&snap);
            mc
        } else {
            monte_carlo_with_threads(&cpu, p, &cfg, runs, workers)
        };
        let _ = writeln!(
            out,
            "{:<16} {:>12.2}% +/- {:>4.2} {:>12.2}% +/- {:>4.2} {:>12.1}%",
            name,
            mc.eff.mean() * 100.0,
            mc.eff.std() * 100.0,
            mc.perf.mean() * 100.0,
            mc.perf.std() * 100.0,
            mc.residency.mean() * 100.0,
        );
    }
    out.push_str("\nTight spreads = the flat-optimum robustness the paper reports (Section 6.4).");
    if telemetry {
        let _ = write!(out, "\n\n{}", merged.summary());
    }
    out
}

/// The closed thermal loop: governor + RC thermal model + simulator,
/// replaying the Section 5.7 fan experiment dynamically.
pub fn thermal() -> String {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").expect("profile");
    let cfg = ThermalLoopConfig::default();
    // Fan schedule: starve at t = 30 s, restore at t = 80 s.
    let r = thermal_loop(
        &cpu,
        p,
        &ThermalLoopConfig { slices: 240, ..cfg },
        &[(60, 300.0), (160, 1800.0)],
    );

    let mut out = format!(
        "Closed thermal loop: 502.gcc on {}, fan 1800 -> 300 RPM at 30 s -> 1800 RPM at 80 s\n",
        cpu.name
    );
    let _ = writeln!(
        out,
        "{:>8} {:>9} {:>10} {:>9} {:>7}",
        "t (s)", "temp (C)", "level", "power W", "eff"
    );
    for rec in r.records.iter().step_by(10) {
        let _ = writeln!(
            out,
            "{:>8.1} {:>9.1} {:>10} {:>9.1} {:>6.1}%",
            rec.t_secs,
            rec.temp_c,
            rec.level.map_or("off".to_string(), |l| l.to_string()),
            rec.power_w,
            rec.efficiency * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\nEfficient-curve availability {:.0}% of the run; mean efficiency {:+.1}%.",
        r.enabled_fraction() * 100.0,
        r.mean_efficiency() * 100.0
    );
    out.push_str(
        "The fallback/recovery around ~72 C is Table 3's budget acting as a live governor.",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Option<u64> = Some(300_000_000);

    #[test]
    fn thrash_guard_reduces_switching() {
        let t = thrash_prevention(CAP, Threads::Fixed(2));
        // omnetpp row: switches with the guard must be far fewer.
        let cells = &t.rows[0];
        let parts: Vec<u64> = cells[5].split('/').map(|v| v.parse().unwrap()).collect();
        assert!(parts[0] * 2 < parts[1], "on={} off={}", parts[0], parts[1]);
    }

    #[test]
    fn fv_balances_performance_and_efficiency() {
        // §4.3/§6.8: fV is the "one fits all" balance — near-top efficiency
        // *and* top performance; pure-frequency saves more power but runs
        // slower on C_f, pure-voltage pays long engage stalls.
        let t = strategies(CAP, Threads::Fixed(2));
        let field = |row: &Vec<String>, i: usize| -> f64 {
            row[i].trim_end_matches('%').parse::<f64>().unwrap()
        };
        for chunk in t.rows.chunks(4) {
            let best_perf = chunk
                .iter()
                .map(|r| field(r, 2))
                .fold(f64::NEG_INFINITY, f64::max);
            let fv = chunk.iter().find(|r| r[1] == "fV").unwrap();
            // fV never loses performance (the pure-frequency strategy
            // saves more power but computes slower on C_f)...
            assert!(
                field(fv, 2) >= best_perf - 0.5,
                "{}: fV perf {} vs best {best_perf}",
                chunk[0][0],
                field(fv, 2)
            );
            // ... while still improving efficiency on every workload.
            assert!(
                field(fv, 4) > 0.0,
                "{}: fV eff {}",
                chunk[0][0],
                field(fv, 4)
            );
        }
    }

    #[test]
    fn noisy_neighbors_degrade_shared_domains() {
        let t = noisy_neighbor(CAP, Threads::Fixed(2));
        let res = |i: usize| -> f64 { t.rows[i][1].trim_end_matches('%').parse::<f64>().unwrap() };
        assert!(res(0) > 80.0, "solo xz residency {}", res(0));
        assert!(res(3) < 30.0, "omnetpp neighbour residency {}", res(3));
        // Monotone-ish: noisier neighbours, lower residency.
        assert!(res(3) <= res(1) + 1.0);
    }

    #[test]
    fn trapping_imul_erases_the_gain() {
        let t = imul_hardening(CAP, Threads::Fixed(2));
        let res = |i: usize| -> f64 { t.rows[i][1].trim_end_matches('%').parse::<f64>().unwrap() };
        assert!(res(0) > 60.0, "hardened residency {}", res(0));
        assert!(res(1) < 10.0, "trapped residency {}", res(1));
        let eff = |i: usize| -> f64 {
            t.rows[i][3]
                .trim_start_matches('+')
                .trim_end_matches('%')
                .parse::<f64>()
                .unwrap()
        };
        assert!(eff(0) > eff(1) + 3.0, "{} vs {}", eff(0), eff(1));
    }
}
