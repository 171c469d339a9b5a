//! The Table 6 / Fig. 16 experiment harness.
//!
//! Runs every configuration row of the paper's Table 6 — CPU, utilised
//! cores, operating strategy — over all 25 workloads at both undervolt
//! levels, and reduces them to the paper's columns: SPEC geometric mean,
//! SPEC median, 525.x264, SPECnoSIMD, Nginx, VLC, each as power /
//! performance / efficiency deltas.

use suit_core::strategy::StrategyParams;
use suit_core::StrategyKey;
use suit_exec::Threads;
use suit_hw::{CpuModel, UndervoltLevel};
use suit_trace::{profile, WorkloadProfile};

use crate::analytic::simulate_no_simd;
use crate::engine::{simulate, SimConfig};
use crate::result::{gmean_delta, median, RunResult};

/// One configuration row of Table 6 (e.g. "𝒜₁ 𝑓𝑉" or "ℬ∞ 𝑒").
#[derive(Debug, Clone)]
pub struct RowSpec {
    /// Row label as the paper prints it.
    pub label: &'static str,
    /// The CPU model.
    pub cpu: CpuModel,
    /// Cores sharing the DVFS domain (1 = per-core domain or single-core).
    pub cores: usize,
    /// The operating strategy.
    pub strategy: StrategyKey,
}

/// All six configuration rows of Table 6.
pub fn table6_rows() -> Vec<RowSpec> {
    vec![
        RowSpec {
            label: "A1 fV",
            cpu: CpuModel::i9_9900k(),
            cores: 1,
            strategy: StrategyKey::FreqVolt,
        },
        RowSpec {
            label: "A4 fV",
            cpu: CpuModel::i9_9900k(),
            cores: 4,
            strategy: StrategyKey::FreqVolt,
        },
        RowSpec {
            label: "Ainf e",
            cpu: CpuModel::i9_9900k(),
            cores: 1,
            strategy: StrategyKey::Emulation,
        },
        RowSpec {
            label: "Binf f",
            cpu: CpuModel::ryzen_7700x(),
            cores: 1,
            strategy: StrategyKey::Frequency,
        },
        RowSpec {
            label: "Binf e",
            cpu: CpuModel::ryzen_7700x(),
            cores: 1,
            strategy: StrategyKey::Emulation,
        },
        RowSpec {
            label: "Cinf fV",
            cpu: CpuModel::xeon_4208(),
            cores: 1,
            strategy: StrategyKey::FreqVolt,
        },
    ]
}

/// Per-workload results plus the derived Table 6 columns for one
/// (row, level) cell block.
#[derive(Debug, Clone, PartialEq)]
pub struct RowResult {
    /// The row's label.
    pub label: &'static str,
    /// Undervolt level.
    pub level: UndervoltLevel,
    /// Per-workload results (SPEC first, then Nginx, VLC).
    pub per_workload: Vec<RunResult>,
    /// SPECnoSIMD per-workload results.
    pub no_simd: Vec<RunResult>,
}

/// One (power, perf, efficiency) delta triple — a Table 6 cell column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deltas {
    /// Power change, fractional.
    pub power: f64,
    /// Performance change, fractional.
    pub perf: f64,
    /// Efficiency change, fractional.
    pub eff: f64,
}

impl Deltas {
    fn of(r: &RunResult) -> Deltas {
        Deltas {
            power: r.power(),
            perf: r.perf(),
            eff: r.efficiency(),
        }
    }
}

impl RowResult {
    fn spec(&self) -> impl Iterator<Item = &RunResult> {
        self.per_workload
            .iter()
            .filter(|r| r.workload != "Nginx" && r.workload != "VLC")
    }

    fn find(&self, name: &str) -> &RunResult {
        self.per_workload
            .iter()
            .find(|r| r.workload == name)
            .unwrap_or_else(|| panic!("workload {name} missing"))
    }

    /// SPEC geometric-mean column.
    pub fn spec_gmean(&self) -> Deltas {
        Deltas {
            power: gmean_delta(self.spec().map(RunResult::power)),
            perf: gmean_delta(self.spec().map(RunResult::perf)),
            eff: gmean_delta(self.spec().map(RunResult::efficiency)),
        }
    }

    /// SPEC median column.
    pub fn spec_median(&self) -> Deltas {
        Deltas {
            power: median(self.spec().map(RunResult::power)),
            perf: median(self.spec().map(RunResult::perf)),
            eff: median(self.spec().map(RunResult::efficiency)),
        }
    }

    /// The 525.x264 column (most affected by the IMUL latency increase).
    pub fn x264(&self) -> Deltas {
        Deltas::of(self.find("525.x264"))
    }

    /// The SPECnoSIMD column: every benchmark compiled without SIMD.
    pub fn spec_no_simd(&self) -> Deltas {
        Deltas {
            power: gmean_delta(self.no_simd.iter().map(RunResult::power)),
            perf: gmean_delta(self.no_simd.iter().map(RunResult::perf)),
            eff: gmean_delta(self.no_simd.iter().map(RunResult::efficiency)),
        }
    }

    /// The Nginx column.
    pub fn nginx(&self) -> Deltas {
        Deltas::of(self.find("Nginx"))
    }

    /// The VLC column.
    pub fn vlc(&self) -> Deltas {
        Deltas::of(self.find("VLC"))
    }

    /// Mean efficient-curve residency over SPEC (§6.4's 72.7 %).
    pub fn spec_residency_mean(&self) -> f64 {
        let v: Vec<f64> = self.spec().map(RunResult::residency).collect();
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs one Table 6 row at one undervolt level over all 25 workloads,
/// fanned out over all available cores.
///
/// `max_insts` caps the per-workload virtual trace; `None` runs the full
/// 2 × 10¹⁰ instructions (use caps in debug builds).
pub fn run_row(spec: &RowSpec, level: UndervoltLevel, max_insts: Option<u64>) -> RowResult {
    let params = StrategyParams::for_cpu(&spec.cpu);
    run_row_with(spec, level, params, max_insts, Threads::Auto)
}

/// [`run_row`] with explicit strategy parameters (the Table 7 sweep) and
/// worker policy: the 25 workloads plus the SPECnoSIMD set form one
/// indexed job set on the [`suit_exec`] executor. Each job is a pure
/// function of its index, so the row is byte-identical at every thread
/// count; stealing keeps workers busy even though per-workload costs
/// vary by an order of magnitude (520.omnetpp switches curves far more
/// often than 557.xz).
pub fn run_row_with(
    spec: &RowSpec,
    level: UndervoltLevel,
    params: StrategyParams,
    max_insts: Option<u64>,
    threads: Threads,
) -> RowResult {
    let all = profile::all();
    let spec_suite: Vec<&WorkloadProfile> = profile::spec_suite().collect();
    let cfg = SimConfig {
        strategy: spec.strategy,
        params,
        cores: spec.cores,
        max_insts,
        ..SimConfig::fv_intel(level)
    };
    let mut results = suit_exec::run(all.len() + spec_suite.len(), threads, |i| {
        if i < all.len() {
            simulate(&spec.cpu, &all[i], &cfg)
        } else {
            simulate_no_simd(&spec.cpu, spec_suite[i - all.len()], level, max_insts)
        }
    });
    let no_simd = results.split_off(all.len());
    RowResult {
        label: spec.label,
        level,
        per_workload: results,
        no_simd,
    }
}

/// Runs the full Table 6 sweep — every (row, level) cell, level-major in
/// [`UndervoltLevel::ALL`] order then [`table6_rows`] order — as one
/// indexed job set on the [`suit_exec`] executor. Cells run their
/// workloads serially (the fan-out is across cells), so the result is a
/// pure function of `max_insts` and byte-identical at every thread
/// count; `tests/determinism.rs` pins that.
pub fn run_table6(threads: Threads, max_insts: Option<u64>) -> Vec<RowResult> {
    let rows = table6_rows();
    let cells: Vec<(&RowSpec, UndervoltLevel)> = UndervoltLevel::ALL
        .iter()
        .flat_map(|&level| rows.iter().map(move |spec| (spec, level)))
        .collect();
    suit_exec::run(cells.len(), threads, |i| {
        let (spec, level) = cells[i];
        let params = StrategyParams::for_cpu(&spec.cpu);
        run_row_with(spec, level, params, max_insts, Threads::Fixed(1))
    })
}

/// Table 8: for each configuration, in how many of the 23 SPEC benchmarks
/// compiling without SIMD beats running SUIT with traps.
pub fn table8_counts(row: &RowResult) -> (usize, usize) {
    let mut no_simd_wins = 0;
    let mut suit_wins = 0;
    for (suit, nosimd) in row
        .per_workload
        .iter()
        .filter(|r| r.workload != "Nginx" && r.workload != "VLC")
        .zip(&row.no_simd)
    {
        assert_eq!(suit.workload, nosimd.workload, "row ordering must match");
        if nosimd.perf() > suit.perf() {
            no_simd_wins += 1;
        } else {
            suit_wins += 1;
        }
    }
    (no_simd_wins, suit_wins)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Option<u64> = Some(400_000_000);

    #[test]
    fn rows_cover_the_paper_table() {
        let rows = table6_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].label, "A1 fV");
        assert_eq!(rows[1].cores, 4);
        assert!(matches!(rows[2].strategy, StrategyKey::Emulation));
    }

    #[test]
    fn parallel_row_matches_serial() {
        // The fan-out across the 25 + 23 workload jobs is index-ordered,
        // so a parallel row must be byte-identical to the serial one.
        let spec = &table6_rows()[5];
        let params = StrategyParams::for_cpu(&spec.cpu);
        let serial = run_row_with(spec, UndervoltLevel::Mv97, params, CAP, Threads::Fixed(1));
        let parallel = run_row_with(spec, UndervoltLevel::Mv97, params, CAP, Threads::Fixed(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.per_workload.len(), 25);
        assert_eq!(serial.no_simd.len(), 23);
    }

    #[test]
    fn table6_sweep_covers_every_cell_level_major() {
        let cells = run_table6(Threads::Auto, Some(20_000_000));
        assert_eq!(cells.len(), 12);
        let rows = table6_rows();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.label, rows[i % rows.len()].label);
            assert_eq!(cell.level, UndervoltLevel::ALL[i / rows.len()]);
        }
    }

    #[test]
    fn xeon_fv_row_shows_the_headline_shape() {
        // Table 6 𝒞∞ 𝑓𝑉 at −97 mV: power ≈ −10 %, perf ≈ 0, eff ≈ +11 %.
        let spec = &table6_rows()[5];
        let row = run_row(spec, UndervoltLevel::Mv97, CAP);
        let g = row.spec_gmean();
        assert!((-0.14..=-0.05).contains(&g.power), "power {:.3}", g.power);
        assert!((-0.03..=0.03).contains(&g.perf), "perf {:.3}", g.perf);
        assert!((0.06..=0.18).contains(&g.eff), "eff {:.3}", g.eff);
        // §6.4: efficient-curve residency 72.7 % on average.
        let res = row.spec_residency_mean();
        assert!((0.60..=0.85).contains(&res), "residency {res:.3}");
    }

    #[test]
    fn emulation_row_has_low_gmean_but_ok_median() {
        // Table 6 𝒜∞ 𝑒 at −97 mV: perf gmean −42 %, median −12 %; a few
        // catastrophic benchmarks dominate the geometric mean (§6.6).
        let spec = &table6_rows()[2];
        let row = run_row(spec, UndervoltLevel::Mv97, CAP);
        let g = row.spec_gmean();
        let m = row.spec_median();
        assert!(g.perf < -0.25, "gmean perf {:.3}", g.perf);
        assert!(
            m.perf > g.perf + 0.10,
            "median {:.3} vs gmean {:.3}",
            m.perf,
            g.perf
        );
        assert!(row.nginx().perf < -0.90, "nginx {:.3}", row.nginx().perf);
    }

    #[test]
    fn table8_no_simd_wins_most_on_amd() {
        // Table 8: on ℬ (long switch delay) no-SIMD wins 21+/23.
        let rows = table6_rows();
        let b = run_row(&rows[3], UndervoltLevel::Mv97, CAP);
        let (no_simd_wins, _) = table8_counts(&b);
        assert!(no_simd_wins >= 15, "no-SIMD wins {no_simd_wins}/23");
        // On 𝒞 (fast per-core switching) SUIT holds a meaningful share.
        let c = run_row(&rows[5], UndervoltLevel::Mv97, CAP);
        let (nw_c, sw_c) = table8_counts(&c);
        assert!(sw_c >= 4, "SUIT wins only {sw_c}/23 on C");
        assert!(nw_c + sw_c == 23);
    }
}
