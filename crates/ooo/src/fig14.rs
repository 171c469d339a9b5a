//! The Fig. 14 experiment: SPEC slowdown vs. IMUL latency.
//!
//! The paper stretches gem5's IMUL from 3 cycles to {4, 5, 6, 15, 30} and
//! reports 0.03 % geometric-mean slowdown and 1.60 % for 525.x264_r at
//! 4 cycles, with an almost linear relationship at large latencies (the
//! out-of-order window hides small increments but not big ones).

use crate::config::O3Config;
use crate::core::O3Core;
use crate::workload::{spec_profiles, UopProfile, UopStream};

/// The latencies Fig. 14 sweeps (stock latency 3 is the baseline).
pub const FIG14_LATENCIES: [u32; 5] = [4, 5, 6, 15, 30];

/// Per-benchmark slowdowns across the latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline IPC at the stock 3-cycle IMUL.
    pub base_ipc: f64,
    /// Fractional slowdown per entry of [`FIG14_LATENCIES`].
    pub slowdowns: Vec<f64>,
}

/// The complete Fig. 14 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// One row per SPEC benchmark.
    pub rows: Vec<Fig14Row>,
}

impl Fig14 {
    /// Geometric-mean slowdown at sweep index `i`.
    pub fn geomean(&self, i: usize) -> f64 {
        let sum: f64 = self.rows.iter().map(|r| (1.0 + r.slowdowns[i]).ln()).sum();
        (sum / self.rows.len() as f64).exp() - 1.0
    }

    /// The 525.x264 row.
    pub fn x264(&self) -> &Fig14Row {
        self.rows
            .iter()
            .find(|r| r.name == "525.x264")
            .expect("x264 present")
    }
}

fn run_one(profile: &UopProfile, imul_latency: u32, n: u64) -> f64 {
    let mut core = O3Core::new(O3Config::with_imul_latency(imul_latency));
    let stats = core.run(UopStream::new(profile.clone(), 0xf16), n);
    stats.cycles as f64
}

/// Runs the full sweep over all 23 SPEC benchmarks with `n` µops each.
///
/// Slowdown is `cycles(latency) / cycles(3) − 1` on identical µop streams
/// (same seed), so measurement noise is purely model-intrinsic.
pub fn run(n: u64) -> Fig14 {
    let rows = spec_profiles()
        .iter()
        .map(|p| {
            let base = run_one(p, 3, n);
            let base_ipc = n as f64 / base;
            let slowdowns = FIG14_LATENCIES
                .iter()
                .map(|&lat| run_one(p, lat, n) / base - 1.0)
                .collect();
            Fig14Row {
                name: p.name,
                base_ipc,
                slowdowns,
            }
        })
        .collect();
    Fig14 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep shared by every test here: each only reads it.
    fn fig14_small() -> &'static Fig14 {
        static SWEEP: OnceLock<Fig14> = OnceLock::new();
        SWEEP.get_or_init(|| run(400_000))
    }

    #[test]
    fn four_cycle_imul_is_nearly_free_on_average() {
        // Paper: 0.03 % geomean slowdown at 4 cycles.
        let f = fig14_small();
        let g = f.geomean(0);
        assert!(g < 0.005, "geomean at 4 cycles: {:.4}", g);
        assert!(g > -0.002, "hardening cannot speed things up: {:.4}", g);
    }

    #[test]
    fn x264_is_hit_hardest() {
        // Paper: 1.60 % for 525.x264_r at 4 cycles — the only benchmark
        // with ~1 % IMUL density and multiply chains.
        let f = fig14_small();
        let x = f.x264();
        assert!(
            (0.004..0.04).contains(&x.slowdowns[0]),
            "x264 at 4 cycles: {:.4}",
            x.slowdowns[0]
        );
        // It must be the worst (or near-worst) benchmark.
        let worst = f
            .rows
            .iter()
            .map(|r| r.slowdowns[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            x.slowdowns[0] >= worst * 0.8,
            "{} vs {worst}",
            x.slowdowns[0]
        );
    }

    #[test]
    fn slowdown_grows_monotonically_with_latency() {
        let f = fig14_small();
        for i in 1..FIG14_LATENCIES.len() {
            assert!(
                f.geomean(i) >= f.geomean(i - 1) - 0.001,
                "geomean not monotone at index {i}"
            );
            let x = f.x264();
            assert!(x.slowdowns[i] >= x.slowdowns[i - 1] - 0.001);
        }
    }

    #[test]
    fn large_latencies_are_not_hidden() {
        // Fig. 14: "with higher latencies, we can see an almost linear
        // relationship" — 30 cycles must cost x264 double-digit percents.
        let f = fig14_small();
        let x = f.x264();
        let at30 = *x.slowdowns.last().unwrap();
        assert!(at30 > 0.10, "x264 at 30 cycles: {:.3}", at30);
        // And the increment 15 → 30 is comparable to 6 → 15 per cycle
        // (linear regime), unlike the hidden 3 → 4 increment.
        let per_cycle_low = x.slowdowns[0]; // 1 extra cycle
        let per_cycle_high = (at30 - x.slowdowns[3]) / 15.0;
        assert!(
            per_cycle_high > per_cycle_low,
            "latency hiding must saturate"
        );
    }
}
