//! Monte-Carlo simulation: sampled delays and trace randomness.
//!
//! The deterministic engine charges the *mean* measured delays, as the
//! paper's simulator does. Real transitions jitter (Fig. 8's 20-rep
//! scatter; the 7700X's σ = 292 µs!), and synthetic traces are one draw
//! from the burst process. This module re-runs a configuration with
//! per-run sampled [`suit_hw::TransitionDelays`] and trace seeds and reports the
//! resulting distributions — the error bars the single numbers live in.
//!
//! Runs are independent, so the campaign fans out through the
//! [`suit_exec`] work-stealing executor. Every run's randomness is a
//! [`SuitRng::fork`] of the top-level seed keyed by the run index — a
//! pure function of `(cfg.seed, run)` — so the resulting distributions
//! are **bit-identical for every thread count** while wall-clock drops
//! by ~N× on N cores.

use suit_exec::Threads;
use suit_hw::CpuModel;
use suit_rng::{Rng, SuitRng};
use suit_telemetry::{Telemetry, TelemetrySnapshot};
use suit_trace::WorkloadProfile;

use crate::engine::{simulate_telemetry, SimConfig};

/// Summary statistics of one metric across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Per-run values, sorted ascending by [`f64::total_cmp`]; NaNs (if
    /// any run degenerated) sort to the end and are tallied in
    /// [`Distribution::nans`].
    pub values: Vec<f64>,
    /// Number of NaN values among [`Distribution::values`]. A NaN metric
    /// marks a degenerate run; it is surfaced here instead of aborting
    /// the whole campaign from inside a worker.
    pub nans: usize,
}

impl Distribution {
    fn from(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty());
        values.sort_by(f64::total_cmp);
        let nans = values.iter().filter(|v| v.is_nan()).count();
        Distribution { values, nans }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64).sqrt()
    }

    /// Linear-interpolated percentile (`p` in [0, 100]).
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Minimum observed value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Maximum observed value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty")
    }
}

/// Distributions of the headline metrics across Monte-Carlo runs.
#[derive(Debug, Clone, PartialEq)]
pub struct McSummary {
    /// Performance deltas.
    pub perf: Distribution,
    /// Power deltas.
    pub power: Distribution,
    /// Efficiency deltas.
    pub eff: Distribution,
    /// Efficient-curve residencies.
    pub residency: Distribution,
}

/// One run's metric vector: perf, power, efficiency, residency.
type RunMetrics = [f64; 4];

/// Event-ring capacity of each run's private recorder in
/// [`monte_carlo_telemetry`]: bounds merged-trace memory at
/// `runs × capacity` while keeping counters and histograms exact.
const MC_RUN_EVENT_CAPACITY: usize = 4096;

/// Executes Monte-Carlo run `i`: samples realised transition delays and a
/// trace seed from the fork of the top-level seed keyed by `i`, then
/// simulates. Pure in `(cpu, profile, cfg, i)`; `tele` is observational
/// only.
fn one_run(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    i: usize,
    tele: &Telemetry,
) -> RunMetrics {
    let mut rng = SuitRng::seed_from_u64(cfg.seed).fork(i as u64);
    let mut cpu_i = cpu.clone();
    // Sample this run's realised transition delays around the measured
    // means (Figs. 8–11 spreads).
    cpu_i.delays.freq_change_us = cpu.delays.sample_freq_change(&mut rng).as_micros_f64();
    cpu_i.delays.volt_change_us = cpu.delays.sample_volt_change(&mut rng).as_micros_f64();
    // The stall tracks the realised change on stalling parts.
    if cpu.delays.freq_stall_us > 0.0 {
        cpu_i.delays.freq_stall_us = cpu_i.delays.freq_change_us.min(cpu.delays.freq_stall_us);
    }

    let mut cfg_i = cfg.clone();
    cfg_i.seed = rng.u64();
    let r = simulate_telemetry(&cpu_i, profile, &cfg_i, tele);
    [r.perf(), r.power(), r.efficiency(), r.residency()]
}

/// Runs `runs` simulations of (`cpu`, `profile`, `cfg`), each with freshly
/// sampled transition delays and a distinct trace seed, over `threads`
/// workers. `threads = 1` recovers the serial campaign; any other count
/// produces byte-identical distributions because run `i`'s randomness is
/// `fork(i)` of the top-level seed regardless of which worker executes it.
///
/// # Panics
///
/// Panics if `runs` or `threads` is zero.
pub fn monte_carlo_with_threads(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    runs: usize,
    threads: usize,
) -> McSummary {
    assert!(runs >= 1, "need at least one run");
    assert!(threads >= 1, "need at least one worker");
    let metrics = suit_exec::run(runs, Threads::Fixed(threads), |i| {
        one_run(cpu, profile, cfg, i, &Telemetry::off())
    });
    summarize(&metrics)
}

/// [`monte_carlo_with_threads`] with telemetry: every run records into its
/// own private recorder, and the per-run snapshots are merged
/// **position-ordered** (run 0 first, then 1, …) after all workers join.
/// Work stealing therefore never reorders the merge, so both the returned
/// metrics *and* the merged telemetry are byte-identical at any thread
/// count — the guarantee `tests/determinism.rs` pins.
///
/// Each run's event ring holds `MC_RUN_EVENT_CAPACITY` events; counters
/// and histograms are exact regardless.
///
/// # Panics
///
/// Panics if `runs` or `threads` is zero.
pub fn monte_carlo_telemetry(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    runs: usize,
    threads: usize,
) -> (McSummary, TelemetrySnapshot) {
    assert!(runs >= 1, "need at least one run");
    assert!(threads >= 1, "need at least one worker");
    let (metrics, merged) = suit_exec::run_telemetry(
        runs,
        Threads::Fixed(threads),
        MC_RUN_EVENT_CAPACITY,
        |i, tele| one_run(cpu, profile, cfg, i, tele),
    );
    (summarize(&metrics), merged)
}

fn summarize(metrics: &[RunMetrics]) -> McSummary {
    let column = |k: usize| metrics.iter().map(|m| m[k]).collect();
    McSummary {
        perf: Distribution::from(column(0)),
        power: Distribution::from(column(1)),
        eff: Distribution::from(column(2)),
        residency: Distribution::from(column(3)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use suit_hw::UndervoltLevel;
    use suit_trace::profile;

    fn setup() -> (CpuModel, &'static WorkloadProfile, SimConfig) {
        (
            CpuModel::xeon_4208(),
            profile::by_name("502.gcc").unwrap(),
            SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(400_000_000),
        )
    }

    #[test]
    fn distribution_statistics() {
        let d = Distribution::from(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(d.values, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.nans, 0);
        assert!((d.mean() - 2.5).abs() < 1e-12);
        assert!((d.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((d.percentile(100.0) - 4.0).abs() < 1e-12);
        assert!((d.percentile(50.0) - 2.5).abs() < 1e-12);
        assert!(d.std() > 1.0 && d.std() < 1.5);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 4.0);
    }

    #[test]
    fn an_injected_nan_is_counted_not_fatal() {
        // A NaN metric from one degenerate run must not abort the whole
        // campaign from inside a worker thread (the old
        // `partial_cmp().expect("no NaNs")` did exactly that); it sorts
        // to the end under total_cmp and is surfaced as a count.
        let d = Distribution::from(vec![2.0, f64::NAN, 1.0]);
        assert_eq!(d.nans, 1);
        assert_eq!(&d.values[..2], &[1.0, 2.0]);
        assert!(d.values[2].is_nan());
        assert_eq!(d.min(), 1.0);
        // Statistics over a NaN-bearing sample are NaN — visible, not a
        // panic.
        assert!(d.mean().is_nan());
    }

    #[test]
    fn monte_carlo_spreads_around_the_deterministic_run() {
        let (cpu, p, cfg) = setup();
        let det = simulate(&cpu, p, &cfg);
        let mc = monte_carlo_with_threads(&cpu, p, &cfg, 12, 2);
        // The deterministic mean-delay run sits inside the MC envelope.
        assert!(
            det.efficiency() >= mc.eff.min() - 0.01,
            "{}",
            det.efficiency()
        );
        assert!(det.efficiency() <= mc.eff.max() + 0.01);
        // Seeds & sampled delays must actually produce spread.
        assert!(mc.eff.std() > 0.0);
        assert!(mc.residency.std() > 0.0);
        // But SUIT's result is robust: the envelope is tight (the paper's
        // flat-parameter observation, §6.4).
        assert!(mc.eff.max() - mc.eff.min() < 0.06, "{:?}", mc.eff);
    }

    #[test]
    fn monte_carlo_is_reproducible() {
        let (cpu, p, cfg) = setup();
        let a = monte_carlo_with_threads(&cpu, p, &cfg, 5, 2);
        let b = monte_carlo_with_threads(&cpu, p, &cfg, 5, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_distributions() {
        let (cpu, p, cfg) = setup();
        let serial = monte_carlo_with_threads(&cpu, p, &cfg, 9, 1);
        for threads in [2, 4, 8] {
            let parallel = monte_carlo_with_threads(&cpu, p, &cfg, 9, threads);
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_campaigns() {
        let (cpu, p, mut cfg) = setup();
        let a = monte_carlo_with_threads(&cpu, p, &cfg, 4, 2);
        cfg.seed ^= 0xABCD;
        let b = monte_carlo_with_threads(&cpu, p, &cfg, 4, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn telemetry_variant_matches_plain_metrics() {
        let (cpu, p, cfg) = setup();
        let plain = monte_carlo_with_threads(&cpu, p, &cfg, 4, 2);
        let (with_tele, snap) = monte_carlo_telemetry(&cpu, p, &cfg, 4, 2);
        assert_eq!(plain, with_tele, "telemetry must not perturb the campaign");
        assert!(snap.counter(suit_telemetry::Counter::DoTraps) > 0);
        assert!(snap.counter(suit_telemetry::Counter::CurveSwitches) > 0);
    }

    #[test]
    fn telemetry_merge_is_thread_count_invariant() {
        let (cpu, p, cfg) = setup();
        let (summary1, snap1) = monte_carlo_telemetry(&cpu, p, &cfg, 6, 1);
        for threads in [2, 4] {
            let (summary_n, snap_n) = monte_carlo_telemetry(&cpu, p, &cfg, 6, threads);
            assert_eq!(summary1, summary_n, "{threads} threads diverged");
            assert_eq!(snap1, snap_n, "{threads}-thread telemetry diverged");
        }
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn rejects_zero_runs() {
        let (cpu, p, cfg) = setup();
        let _ = monte_carlo_with_threads(&cpu, p, &cfg, 0, 2);
    }
}
