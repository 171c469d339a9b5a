//! Regenerators for the paper's Figures 5–16 (the data series; the paper
//! plots them, we print them).

use suit_exec::Threads;
use suit_hw::delays::{frequency_settle_curve, voltage_settle_curve, TransitionDelays};
use suit_hw::undervolt::SteadyStateModel;
use suit_hw::{CpuModel, DvfsCurve, Point, UndervoltLevel};
use suit_ooo::fig14::{self, FIG14_LATENCIES};
use suit_sim::engine::{simulate_with_timeline_telemetry, SimConfig};
use suit_sim::experiment::{run_row, table6_rows};
use suit_sim::timeline::fv_series;
use suit_telemetry::Telemetry;
use suit_trace::{profile, TraceGen};

use suit_rng::SuitRng;

use crate::render::{num, pct, pct2, TextTable};

/// Fig. 5: a crypto burst and the DVFS-curve reaction — gap-size events
/// interleaved with the recorded curve switches — recording simulator
/// telemetry into `tele` along the way.
pub fn fig5(cap: Option<u64>, tele: &Telemetry) -> TextTable {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("Nginx").expect("profile");
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97)
        .with_max_insts(cap.unwrap_or(p.total_insts).min(400_000_000));
    let (_, changes) = simulate_with_timeline_telemetry(&cpu, p, &cfg, tele);
    let mut t = TextTable::new(
        "Fig. 5 — AES burst and DVFS curve reaction (first switches)",
        &["t (us)", "curve"],
    );
    for c in changes.iter().take(16) {
        let label = match c.point {
            Point::E => "efficient",
            Point::Cf => "conservative (C_f)",
            Point::Cv => "conservative (C_V)",
        };
        t.row(vec![
            num(c.at.since(suit_isa::SimTime::ZERO).as_micros_f64(), 1),
            label.into(),
        ]);
    }
    t.note("pattern per paper: burst -> conservative, deadline expiry -> efficient");
    t
}

/// Fig. 6: the 𝑓𝑉 sequence on a long burst — frequency drops first, the
/// voltage raise lands later, expiry returns to the efficient curve —
/// recording simulator telemetry into `tele` along the way.
pub fn fig6(tele: &Telemetry) -> TextTable {
    let cpu = CpuModel::xeon_4208();
    // A dedicated single-long-burst workload makes the sequence crisp.
    let mut p = profile::by_name("Nginx").expect("profile").clone();
    p.total_insts = 40_000_000;
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97);
    let (_, changes) = simulate_with_timeline_telemetry(&cpu, &p, &cfg, tele);
    let series = fv_series(&cpu, UndervoltLevel::Mv97, &changes);
    let mut t = TextTable::new(
        "Fig. 6 — fV operating strategy on a long burst",
        &["t (us)", "freq (GHz)", "voltage (mV)", "point"],
    );
    for s in series.iter().take(12) {
        t.row(vec![
            num(s.t_us, 1),
            num(s.freq_ghz, 2),
            num(s.voltage_mv, 0),
            format!("{:?}", s.point),
        ]);
    }
    t.note("expected: E -> C_f (freq drop), C_f -> C_V after ~335 us (voltage arrives), C_V -> E at deadline");
    t
}

/// Fig. 7: the VLC AES gap-size timeline — one row per burst, showing the
/// log10 gap heights the paper plots (large between bursts, small within).
pub fn fig7() -> TextTable {
    let p = profile::by_name("VLC").expect("profile");
    let mut t = TextTable::new(
        "Fig. 7 — VLC AES instruction gap-size timeline (per burst)",
        &[
            "burst start (insts)",
            "leading gap (log10)",
            "events",
            "within gap (log10)",
        ],
    );
    let mut pos: u64 = 0;
    for b in TraceGen::new(p, 0x5017).take(40) {
        pos += b.gap_insts;
        t.row(vec![
            pos.to_string(),
            num((b.gap_insts.max(1) as f64).log10(), 2),
            b.events.to_string(),
            num((u64::from(b.within_gap_insts).max(1) as f64).log10(), 2),
        ]);
        pos += b.total_insts() - b.gap_insts;
    }
    t.note("bursts show as runs of small gaps; quiet stretches as gaps of 10^5+ instructions");
    t
}

fn settle_table(title: &str, samples: &[suit_hw::delays::SettleSample], unit: &str) -> TextTable {
    let mut t = TextTable::new(title, &["t (us)", unit]);
    for s in samples {
        t.row(vec![
            num(s.t_us, 1),
            s.observed.map_or("stall".to_string(), |v| num(v, 3)),
        ]);
    }
    t
}

/// Fig. 8: i9-9900K voltage settle after resetting the offset (≈350 µs).
pub fn fig8() -> TextTable {
    let mut rng = SuitRng::seed_from_u64(8);
    let d = TransitionDelays::i9_9900k();
    let samples = voltage_settle_curve(&mut rng, &d, 800.0, 900.0, 25.0, 600.0);
    settle_table(
        "Fig. 8 — i9-9900K core voltage settle (offset reset at t=0)",
        &samples,
        "mV",
    )
}

/// Fig. 9: i9-9900K frequency change (≈22 µs) with the all-core stall gap.
pub fn fig9() -> TextTable {
    let mut rng = SuitRng::seed_from_u64(9);
    let d = TransitionDelays::i9_9900k();
    let samples = frequency_settle_curve(&mut rng, &d, 3.0, 2.6, 2.0, 40.0);
    settle_table(
        "Fig. 9 — i9-9900K frequency change (stall = no samples)",
        &samples,
        "GHz",
    )
}

/// Fig. 10: 7700X frequency change (≈668 µs), no stall.
pub fn fig10() -> TextTable {
    let mut rng = SuitRng::seed_from_u64(10);
    let d = TransitionDelays::ryzen_7700x();
    let samples = frequency_settle_curve(&mut rng, &d, 3.0, 1.5, 50.0, 900.0);
    settle_table(
        "Fig. 10 — Ryzen 7 7700X frequency change (no stall)",
        &samples,
        "GHz",
    )
}

/// Fig. 11: Xeon 4208 p-state change — voltage first, then frequency.
pub fn fig11() -> TextTable {
    let mut rng = SuitRng::seed_from_u64(11);
    let d = TransitionDelays::xeon_4208();
    let volt = voltage_settle_curve(&mut rng, &d, 800.0, 840.0, 25.0, 500.0);
    let freq = frequency_settle_curve(&mut rng, &d, 2.6, 3.0, 2.0, 60.0);
    let mut t = TextTable::new(
        "Fig. 11 — Xeon 4208 p-state change: voltage (335 us) then frequency (31 us)",
        &["phase", "t (us)", "value"],
    );
    for s in volt.iter().step_by(2) {
        t.row(vec![
            "voltage (mV)".into(),
            num(s.t_us, 1),
            s.observed.map_or("stall".into(), |v| num(v, 0)),
        ]);
    }
    for s in &freq {
        t.row(vec![
            "freq (GHz)".into(),
            num(s.t_us + 335.0, 1),
            s.observed.map_or("stall".into(), |v| num(v, 2)),
        ]);
    }
    t
}

/// Fig. 12: SPEC score / power / frequency vs. undervolt offset (i9).
pub fn fig12() -> TextTable {
    let m = SteadyStateModel::i9_9900k();
    let mut t = TextTable::new(
        "Fig. 12 — SPEC CPU2017 vs. undervolt offset, i9-9900K",
        &["offset (mV)", "score", "power (W)", "freq (GHz)"],
    );
    for r in m.sweep(&[0.0, -40.0, -70.0, -97.0]) {
        t.row(vec![
            num(r.offset_mv, 0),
            pct(r.score),
            num(r.power_w, 1),
            num(r.freq_ghz, 2),
        ]);
    }
    t.note("paper: score +3.8%, power 93 W -> 77 W, freq 4.5 -> ~4.65 GHz at -97 mV");
    t
}

/// Fig. 13: stable frequency/voltage pairs and the modified-IMUL curve.
pub fn fig13() -> TextTable {
    let curve = DvfsCurve::i9_9900k();
    let imul = curve.modified_imul();
    let mut t = TextTable::new(
        "Fig. 13 — i9-9900K stable f/V pairs and safe voltage for 4-cycle IMUL",
        &[
            "freq (GHz)",
            "V stock (mV)",
            "V modified IMUL (mV)",
            "delta (mV)",
        ],
    );
    for p in curve.points() {
        let v_imul = imul.voltage_at(p.freq_ghz);
        t.row(vec![
            num(p.freq_ghz, 1),
            num(p.voltage_mv, 0),
            num(v_imul, 0),
            num(p.voltage_mv - v_imul, 0),
        ]);
    }
    t.note("paper: ~220 mV headroom at 5 GHz, negligible at low frequency");
    t
}

/// Fig. 14: slowdown vs. IMUL latency from the out-of-order simulator.
pub fn fig14(uops: u64) -> TextTable {
    let data = fig14::run(uops);
    let mut t = TextTable::new(
        "Fig. 14 — Slowdown with increasing IMUL latency (baseline: 3 cycles)",
        &["latency", "geomean", "525.x264"],
    );
    let x264 = data.x264().clone();
    for (i, lat) in FIG14_LATENCIES.iter().enumerate() {
        t.row(vec![
            format!("{lat} cycles"),
            pct2(data.geomean(i)),
            pct2(x264.slowdowns[i]),
        ]);
    }
    t.note(
        "paper: geomean +0.03% and x264 +1.60% at 4 cycles; near-linear growth at large latencies",
    );
    t
}

/// Fig. 16: per-benchmark performance and efficiency on CPU 𝒞, 𝑓𝑉. The
/// workloads of each level fan out over `threads` workers.
pub fn fig16(cap: Option<u64>, threads: Threads) -> TextTable {
    let spec = &table6_rows()[5];
    let r70 = run_row(spec, UndervoltLevel::Mv70, cap, threads);
    let r97 = run_row(spec, UndervoltLevel::Mv97, cap, threads);
    let mut t = TextTable::new(
        "Fig. 16 — Per-application impact on CPU C (fV strategy)",
        &[
            "Workload",
            "Perf -70mV",
            "Eff -70mV",
            "Perf -97mV",
            "Eff -97mV",
        ],
    );
    for (a, b) in r70.per_workload.iter().zip(&r97.per_workload) {
        assert_eq!(a.workload, b.workload);
        t.row(vec![
            a.workload.clone(),
            pct(a.perf()),
            pct(a.efficiency()),
            pct(b.perf()),
            pct(b.efficiency()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Option<u64> = Some(300_000_000);

    #[test]
    fn fig5_shows_curve_switches() {
        let s = fig5(CAP, &Telemetry::off()).to_string();
        assert!(s.contains("conservative"));
        assert!(s.contains("efficient"));
    }

    #[test]
    fn fig6_reaches_all_three_points() {
        let s = fig6(&Telemetry::off()).to_string();
        assert!(s.contains("Cf"), "{s}");
        assert!(s.contains("Cv"), "{s}");
        assert!(s.contains("E"), "{s}");
    }

    #[test]
    fn fig7_has_bimodal_gaps() {
        let t = fig7();
        let leading: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let within: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(within.iter().all(|&l| l < 3.0), "dense within-burst gaps");
        assert!(
            leading.iter().any(|&l| l > 5.0),
            "quiet stretches: {leading:?}"
        );
    }

    #[test]
    fn fig9_contains_stall_gap() {
        let s = fig9().to_string();
        assert!(s.contains("stall"));
    }

    #[test]
    fn fig10_never_stalls() {
        // Every sample carries a value — the AMD core keeps running
        // through the change (no stall gaps in the data rows).
        let t = fig10();
        for row in &t.rows {
            assert_ne!(row[1], "stall", "{row:?}");
        }
    }

    #[test]
    fn fig12_monotone_power() {
        let t = fig12();
        let watts: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        for w in watts.windows(2) {
            assert!(w[1] <= w[0], "power must fall with offset");
        }
        assert!((watts[0] - 93.0).abs() < 3.0);
    }

    #[test]
    fn fig13_headroom_grows_with_frequency() {
        let t = fig13();
        let first: f64 = t.rows.first().unwrap()[3].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[3].parse().unwrap();
        assert!(first < 20.0, "low-frequency headroom ~0, got {first}");
        assert!(last > 150.0, "5 GHz headroom ~220 mV, got {last}");
    }

    #[test]
    fn fig16_covers_all_workloads() {
        let t = fig16(CAP, Threads::Fixed(2));
        assert_eq!(t.rows.len(), 25);
    }
}
