//! Regenerators for the paper's Tables 1–8.

use suit_core::strategy::StrategyParams;
use suit_exec::Threads;
use suit_faults::vmin::ChipVminModel;
use suit_faults::Campaign;
use suit_hw::guardband::{core_temp_at_fan_rpm, max_undervolt_at_temp_mv};
use suit_hw::measured::{self, TABLE2};
use suit_hw::undervolt::SteadyStateModel;
use suit_hw::UndervoltLevel;
use suit_isa::TABLE1;
use suit_ooo::O3Config;
use suit_sim::experiment::{run_row_with, table6_rows, table8_counts, RowResult};
use suit_trace::profile;

use crate::render::{num, pct, TextTable};

/// Table 1: undervolting-induced instruction faults — fault-injection
/// campaign over several simulated chips, tallied per opcode family, next
/// to the counts Kogler et al. measured. Each chip's campaign fans out
/// over `threads` workers.
pub fn table1(threads: Threads) -> TextTable {
    // Aggregate a few chips like the original multi-CPU study.
    let mut totals = [0u32; suit_isa::Opcode::COUNT];
    for seed in 0..3 {
        let chip = ChipVminModel::sample(4, 12.0, seed);
        let report = Campaign::standard(chip, seed).run_with_threads(threads.count());
        for row in TABLE1 {
            totals[row.opcode.index()] += report.faults(row.opcode);
        }
    }
    // Scale so the top entry matches the paper's 79 for easy comparison.
    let top = totals[suit_isa::Opcode::Imul.index()].max(1);
    let mut t = TextTable::new(
        "Table 1 — Undervolting-induced instruction faults (model vs. Kogler et al.)",
        &["Instruction", "Faults (model, scaled)", "Faults (paper)"],
    );
    for row in TABLE1 {
        let scaled = totals[row.opcode.index()] as f64 * 79.0 / top as f64;
        t.row(vec![
            row.opcode.to_string(),
            format!("{scaled:.0}"),
            row.faults.to_string(),
        ]);
    }
    t.note("model counts are (core × frequency × offset) combinations over 3 chips, scaled to IMUL = 79");
    t
}

/// Table 2: SPEC score / power / frequency / efficiency response to the
/// −70 mV and −97 mV undervolts for the three measured CPUs.
pub fn table2() -> TextTable {
    let mut t = TextTable::new(
        "Table 2 — Undervolting response (model vs. paper)",
        &[
            "CPU",
            "V_off",
            "Score",
            "Power",
            "Freq",
            "Eff.",
            "Eff. (paper)",
        ],
    );
    let models = [
        ("i5-1035G1", SteadyStateModel::i5_1035g1()),
        ("i9-9900K", SteadyStateModel::i9_9900k()),
        ("7700X", SteadyStateModel::ryzen_7700x()),
    ];
    for (name, model) in models {
        for offset in [-70.0, -97.0] {
            let r = model.response(offset);
            let paper = TABLE2
                .iter()
                .find(|row| row.cpu == name && (row.offset_mv - offset).abs() < 0.5)
                .expect("paper row");
            t.row(vec![
                name.to_string(),
                format!("{offset} mV"),
                pct(r.score),
                pct(r.power),
                pct(r.freq),
                pct(r.efficiency()),
                pct(paper.efficiency),
            ]);
        }
    }
    t
}

/// Table 3: core temperature (via fan speed) vs. maximum undervolt offset.
pub fn table3() -> TextTable {
    let mut t = TextTable::new(
        "Table 3 — Temperature vs. maximum undervolting offset",
        &[
            "f_CLK",
            "Fan RPM",
            "t_core",
            "V_off (model)",
            "V_off (paper)",
        ],
    );
    for (rpm, paper) in [(1800.0, -90.0), (300.0, -55.0)] {
        let temp = core_temp_at_fan_rpm(rpm);
        let voff = max_undervolt_at_temp_mv(temp);
        t.row(vec![
            "4 GHz".into(),
            format!("{rpm:.0}"),
            format!("{temp:.0} C",),
            format!("{voff:.0} mV"),
            format!("{paper:.0} mV"),
        ]);
    }
    t
}

/// Table 4: performance impact of compiling without SSE/AVX.
pub fn table4() -> TextTable {
    let mut t = TextTable::new(
        "Table 4 — SPEC CPU2017 without SIMD instructions",
        &["Benchmark", "i9-9900K", "7700X"],
    );
    // Suite means first, as in the paper.
    let fp: Vec<&profile::WorkloadProfile> = profile::all()
        .iter()
        .filter(|p| p.suite == profile::Suite::SpecFp)
        .collect();
    let int: Vec<&profile::WorkloadProfile> = profile::all()
        .iter()
        .filter(|p| p.suite == profile::Suite::SpecInt)
        .collect();
    let mean = |v: &[&profile::WorkloadProfile], intel: bool| {
        v.iter().map(|p| p.no_simd_overhead(intel)).sum::<f64>() / v.len() as f64
    };
    t.row(vec![
        "fprate".into(),
        pct(mean(&fp, true)),
        pct(mean(&fp, false)),
    ]);
    t.row(vec![
        "intrate".into(),
        pct(mean(&int, true)),
        pct(mean(&int, false)),
    ]);
    for row in measured::TABLE4_NO_SIMD.iter().skip(2) {
        let p = profile::by_name(row.0).expect("profile exists");
        t.row(vec![
            row.0.to_string(),
            pct(p.no_simd_intel),
            pct(p.no_simd_amd),
        ]);
    }
    t.note("per-benchmark anchors are Table 4's measured values; unlisted benchmarks carry small interpolated overheads");
    t
}

/// Table 5: the gem5-substitute system configuration.
pub fn table5() -> TextTable {
    let mut t = TextTable::new(
        "Table 5 — Simulated system for the instruction-latency evaluation",
        &["Component", "Configuration"],
    );
    for (k, v) in O3Config::default().table5() {
        t.row(vec![k, v]);
    }
    t
}

fn deltas_row(label: &str, row: &RowResult) -> Vec<Vec<String>> {
    let g = row.spec_gmean();
    let m = row.spec_median();
    let x = row.x264();
    let ns = row.spec_no_simd();
    let n = row.nginx();
    let v = row.vlc();
    let fmt = |metric: &str, a: f64, b: f64, c: f64, d: f64, e: f64, f: f64| {
        vec![
            label.to_string(),
            metric.to_string(),
            pct(a),
            pct(b),
            pct(c),
            pct(d),
            pct(e),
            pct(f),
        ]
    };
    vec![
        fmt("Pwr", g.power, m.power, x.power, ns.power, n.power, v.power),
        fmt("Perf", g.perf, m.perf, x.perf, ns.perf, n.perf, v.perf),
        fmt("Eff", g.eff, m.eff, x.eff, ns.eff, n.eff, v.eff),
    ]
}

/// Table 6: the headline evaluation — power, performance and efficiency
/// for every (CPU, cores, strategy) row at one undervolt level. The
/// workloads of each row fan out over `threads` workers; the rendered
/// table is byte-identical at every worker count.
pub fn table6(level: UndervoltLevel, cap: Option<u64>, threads: Threads) -> TextTable {
    let mut t = TextTable::new(
        format!("Table 6 — SUIT system results at {level}"),
        &[
            "Config",
            "Metric",
            "SPECgmean",
            "SPECmedian",
            "525.x264",
            "SPECnoSIMD",
            "Nginx",
            "VLC",
        ],
    );
    for spec in table6_rows() {
        let params = StrategyParams::for_cpu(&spec.cpu);
        let row = run_row_with(&spec, level, params, cap, threads);
        for cells in deltas_row(spec.label, &row) {
            t.row(cells);
        }
    }
    t.note("paper at -97 mV: A1 fV gmean Pwr -9.7% / Perf +0.8% / Eff +12%; Cinf fV Eff +11%");
    t
}

/// Table 7: the optimal operating-strategy parameters, with a deadline
/// sweep demonstrating the flat optimum the paper reports. Each sweep
/// point's row fans out over `threads` workers.
pub fn table7(cap: Option<u64>, threads: Threads) -> TextTable {
    use suit_core::StrategyKey;
    use suit_hw::CpuModel;
    use suit_sim::experiment::RowSpec;

    let spec = RowSpec {
        label: "Cinf fV",
        cpu: CpuModel::xeon_4208(),
        cores: 1,
        strategy: StrategyKey::FreqVolt,
    };
    let mut t = TextTable::new(
        "Table 7 — Operating-strategy parameter sweep (deadline p_dl on CPU C)",
        &["p_dl (us)", "SPEC eff (gmean)", "delta vs optimum"],
    );
    const DEADLINES_US: [u64; 6] = [10, 20, 30, 40, 60, 120];
    let results: Vec<(u64, f64)> = DEADLINES_US
        .iter()
        .map(|&dl_us| {
            let params =
                StrategyParams::intel().with_deadline(suit_isa::SimDuration::from_micros(dl_us));
            let row = run_row_with(&spec, UndervoltLevel::Mv97, params, cap, threads);
            (dl_us, row.spec_gmean().eff)
        })
        .collect();
    let best = results
        .iter()
        .map(|r| r.1)
        .fold(f64::NEG_INFINITY, f64::max);
    for (dl, eff) in results {
        t.row(vec![dl.to_string(), pct(eff), pct(eff - best)]);
    }
    t.note("paper (Table 7): p_dl 30 us / p_ts 450 us / p_ec 3 / p_df 14 for A & C; 700 us / 14 ms / 4 / 9 for B");
    t.note("paper: +/-10 us around the optimum changes mean efficiency by only ~0.6% — the flat optimum above");
    t
}

/// Table 8: in how many SPEC benchmarks does compiling without SIMD beat
/// running SUIT with traps.
pub fn table8(cap: Option<u64>, threads: Threads) -> TextTable {
    let mut t = TextTable::new(
        "Table 8 — No-SIMD vs. SUIT wins over the 23 SPEC benchmarks (-97 mV)",
        &["Config", "No SIMD wins", "SUIT wins", "paper (No SIMD)"],
    );
    let paper = [
        ("A1 fV", 15),
        ("A4 fV", 21),
        ("Ainf e", 23),
        ("Binf f", 21),
        ("Binf e", 23),
        ("Cinf fV", 16),
    ];
    for (spec, (_, paper_wins)) in table6_rows().iter().zip(paper) {
        let params = StrategyParams::for_cpu(&spec.cpu);
        let row = run_row_with(spec, UndervoltLevel::Mv97, params, cap, threads);
        let (ns, suit) = table8_counts(&row);
        t.row(vec![
            spec.label.to_string(),
            ns.to_string(),
            suit.to_string(),
            paper_wins.to_string(),
        ]);
    }
    t
}

/// §6.4 residency report: fraction of time on the efficient curve.
pub fn residency(cap: Option<u64>, threads: Threads) -> TextTable {
    let spec = &table6_rows()[5]; // C∞ fV
    let params = StrategyParams::for_cpu(&spec.cpu);
    let row = run_row_with(spec, UndervoltLevel::Mv97, params, cap, threads);
    let mut t = TextTable::new(
        "Efficient-curve residency on CPU C, fV, -97 mV (paper §6.4)",
        &["Workload", "Residency", "Paper"],
    );
    let paper = |name: &str| match name {
        "557.xz" => "97.1%".to_string(),
        "502.gcc" => "76.6%".to_string(),
        "520.omnetpp" => "3.2%".to_string(),
        _ => "-".to_string(),
    };
    for r in &row.per_workload {
        t.row(vec![
            r.workload.clone(),
            format!("{:.1}%", r.residency() * 100.0),
            paper(&r.workload),
        ]);
    }
    t.row(vec![
        "SPEC mean".into(),
        format!("{:.1}%", row.spec_residency_mean() * 100.0),
        "72.7%".into(),
    ]);
    t
}

/// §5.3-style delay summary.
pub fn delays() -> TextTable {
    use suit_hw::TransitionDelays;
    let mut t = TextTable::new(
        "Measured transition delays (Section 5.2/5.3 constants)",
        &[
            "CPU",
            "freq change",
            "freq stall",
            "volt change",
            "#DO entry",
            "emu call",
        ],
    );
    for (name, d) in [
        ("i9-9900K (A)", TransitionDelays::i9_9900k()),
        ("7700X (B)", TransitionDelays::ryzen_7700x()),
        ("Xeon 4208 (C)", TransitionDelays::xeon_4208()),
    ] {
        t.row(vec![
            name.into(),
            format!("{} us", num(d.freq_change_us, 0)),
            format!("{} us", num(d.freq_stall_us, 0)),
            format!("{} us", num(d.volt_change_us, 0)),
            format!("{} us", num(d.exception_us, 2)),
            format!("{} us", num(d.emulation_call_us, 2)),
        ]);
    }
    t
}

/// The §6.9 security audit summary: silent-error counts for naive
/// undervolting vs. SUIT over a chip population.
pub fn security_report(chips: u64, instructions: usize) -> TextTable {
    use suit_faults::vmin::ChipVminModel;
    use suit_faults::{audit_naive_undervolt, audit_suit_system, AuditSequence};
    let mut t = TextTable::new(
        format!("Security audit (Section 6.9): {chips} chips x {instructions} instructions"),
        &[
            "offset",
            "naive silent errors",
            "SUIT silent errors",
            "SUIT #DO traps",
        ],
    );
    for offset in [-70.0, -97.0, -130.0] {
        let mut naive = 0u64;
        let mut suit_errors = 0u64;
        let mut traps = 0u64;
        for seed in 0..chips {
            let chip = ChipVminModel::sample(2, 12.0, seed);
            let seq = AuditSequence::draw(seed, instructions);
            naive += audit_naive_undervolt(&chip, 0, offset, &seq).silent_errors;
            let s = audit_suit_system(&chip, 0, offset, &seq);
            suit_errors += s.silent_errors;
            traps += s.trapped;
        }
        assert_eq!(suit_errors, 0, "SUIT must never fault silently");
        t.row(vec![
            format!("{offset} mV"),
            naive.to_string(),
            suit_errors.to_string(),
            traps.to_string(),
        ]);
    }
    t.note("zero SUIT errors at every offset = the Section 6.9 reduction, executed");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Option<u64> = Some(300_000_000);

    #[test]
    fn table1_preserves_paper_ordering_at_the_ends() {
        let t = table1(Threads::Fixed(2));
        assert_eq!(t.rows.len(), 12);
        assert!(t.rows[0][0].contains("IMUL"));
        // Model count for IMUL (scaled to 79) exceeds the tail entries.
        let imul: f64 = t.rows[0][1].parse().unwrap();
        let tail: f64 = t.rows[11][1].parse().unwrap();
        assert!(imul > tail, "{imul} vs {tail}");
    }

    #[test]
    fn table2_has_six_rows_matching_paper_axes() {
        let t = table2();
        assert_eq!(t.rows.len(), 6);
        // i9 at −97 mV: model efficiency ≈ paper's +23 %.
        let i9_97 = &t.rows[3];
        assert_eq!(i9_97[0], "i9-9900K");
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let model = parse(&i9_97[5]);
        let paper = parse(&i9_97[6]);
        assert!(
            (model - paper).abs() < 1.5,
            "model {model} vs paper {paper}"
        );
    }

    #[test]
    fn table3_reproduces_both_anchors() {
        let t = table3();
        assert!(t.rows[0][3] == t.rows[0][4]);
        assert!(t.rows[1][3] == t.rows[1][4]);
    }

    #[test]
    fn table5_prints_gem5_rows() {
        let s = table5().to_string();
        assert!(s.contains("3 GHz"));
        assert!(s.contains("Full System"));
    }

    #[test]
    fn table6_renders_all_rows() {
        let t = table6(UndervoltLevel::Mv97, CAP, Threads::Fixed(2));
        assert_eq!(t.rows.len(), 6 * 3);
        let s = t.to_string();
        assert!(s.contains("A1 fV"));
        assert!(s.contains("Cinf fV"));
    }

    #[test]
    fn table8_counts_sum_to_23() {
        let t = table8(CAP, Threads::Fixed(1));
        for row in &t.rows {
            let ns: usize = row[1].parse().unwrap();
            let suit: usize = row[2].parse().unwrap();
            assert_eq!(ns + suit, 23, "{row:?}");
        }
    }

    #[test]
    fn residency_table_covers_all_workloads() {
        let t = residency(CAP, Threads::Fixed(2));
        assert_eq!(t.rows.len(), 26); // 25 workloads + SPEC mean
    }

    #[test]
    fn delays_table_prints_measured_constants() {
        let s = delays().to_string();
        assert!(s.contains("668"));
        assert!(s.contains("0.34"));
        assert!(s.contains("335"));
    }
}
