//! Voltage/frequency transition-delay models (Figs. 8–11, §5.2–§5.3).
//!
//! The paper microbenchmarks how long real CPUs take to change core
//! voltage and frequency, because these delays dominate SUIT's switching
//! overhead. This module models each measured transition:
//!
//! * mean delay and spread (for the event-based simulator, which charges
//!   the mean, and for Monte-Carlo runs, which sample);
//! * the *settle curve* — the time series of voltage/frequency a polling
//!   measurement loop would observe, used to regenerate Figs. 8–11;
//! * whether the core stalls during the change (Intel frequency changes
//!   stall every core in the domain; AMD's do not).

use suit_isa::SimDuration;
use suit_rng::Rng;

use crate::cpu::Point;
use crate::measured;

/// The fixed delays of one CPU model, i.e. everything §5.2–§5.3 measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionDelays {
    /// Mean delay until a requested frequency change takes effect, µs.
    pub freq_change_us: f64,
    /// Spread (σ) of the frequency-change delay, µs.
    pub freq_change_sigma_us: f64,
    /// How long the core (or the whole domain) stalls during a frequency
    /// change, µs. Zero on CPUs that keep executing (AMD).
    pub freq_stall_us: f64,
    /// Mean delay until a requested voltage change manifests, µs.
    pub volt_change_us: f64,
    /// Spread (σ) of the voltage-change delay, µs.
    pub volt_change_sigma_us: f64,
    /// `#DO` exception entry delay (user space → handler), µs.
    pub exception_us: f64,
    /// Full user-space emulation round trip (two kernel entries), µs.
    pub emulation_call_us: f64,
}

impl TransitionDelays {
    /// The Intel Core i9-9900K (CPU 𝒜): 22 µs frequency change stalling
    /// the single clock domain, 350 µs voltage change.
    pub fn i9_9900k() -> Self {
        TransitionDelays {
            freq_change_us: measured::I9_FREQ_DELAY_US,
            freq_change_sigma_us: measured::I9_FREQ_DELAY_SIGMA_US,
            freq_stall_us: measured::I9_FREQ_DELAY_US,
            volt_change_us: measured::I9_VOLT_DELAY_US,
            volt_change_sigma_us: measured::I9_VOLT_DELAY_SIGMA_US,
            exception_us: measured::INTEL_EXCEPTION_DELAY_US,
            emulation_call_us: measured::INTEL_EMULATION_CALL_US,
        }
    }

    /// The AMD Ryzen 7 7700X (CPU ℬ): slow 668 µs frequency change but no
    /// stall; no software voltage control (the paper uses the BIOS curve
    /// optimizer), so the voltage path reuses the frequency delay.
    pub fn ryzen_7700x() -> Self {
        TransitionDelays {
            freq_change_us: measured::AMD_FREQ_DELAY_US,
            freq_change_sigma_us: measured::AMD_FREQ_DELAY_SIGMA_US,
            freq_stall_us: 0.0,
            volt_change_us: measured::AMD_FREQ_DELAY_US,
            volt_change_sigma_us: measured::AMD_FREQ_DELAY_SIGMA_US,
            exception_us: measured::AMD_EXCEPTION_DELAY_US,
            emulation_call_us: measured::AMD_EMULATION_CALL_US,
        }
    }

    /// The Intel Xeon Silver 4208 (CPU 𝒞): per-core p-state changes where
    /// the voltage moves first (335 µs) and the frequency follows (31 µs,
    /// stalling the core for 27 µs).
    pub fn xeon_4208() -> Self {
        TransitionDelays {
            freq_change_us: measured::XEON_FREQ_DELAY_US,
            freq_change_sigma_us: 2.3,
            freq_stall_us: measured::XEON_FREQ_STALL_US,
            volt_change_us: measured::XEON_VOLT_DELAY_US,
            volt_change_sigma_us: 135.0,
            exception_us: measured::INTEL_EXCEPTION_DELAY_US,
            emulation_call_us: measured::INTEL_EMULATION_CALL_US,
        }
    }

    /// Mean frequency-change delay as a [`SimDuration`].
    pub fn freq_change(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.freq_change_us)
    }

    /// Stall charged to execution during a frequency change.
    pub fn freq_stall(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.freq_stall_us)
    }

    /// Mean voltage-change delay as a [`SimDuration`].
    pub fn volt_change(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.volt_change_us)
    }

    /// Exception entry delay as a [`SimDuration`].
    pub fn exception(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.exception_us)
    }

    /// Emulation round-trip delay as a [`SimDuration`].
    pub fn emulation_call(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.emulation_call_us)
    }

    /// Samples a frequency-change delay with Gaussian-ish jitter (sum of
    /// three uniforms — the Irwin–Hall approximation avoids a
    /// normal-distribution dependency). Clamped at 20 %
    /// of the mean so pathological draws cannot go non-physical.
    pub fn sample_freq_change<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        sample_jittered(rng, self.freq_change_us, self.freq_change_sigma_us)
    }

    /// Samples a voltage-change delay (see [`Self::sample_freq_change`]).
    pub fn sample_volt_change<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        sample_jittered(rng, self.volt_change_us, self.volt_change_sigma_us)
    }
}

/// Every delay the inner simulation loop charges, precomputed once per
/// simulation as fixed-point [`SimDuration`]s and indexed by
/// (target [`Point`], transition kind).
///
/// [`TransitionDelays`] stores the measured values as f64 microseconds,
/// so every transition used to pay a float multiply + round to convert
/// µs → picoseconds (and the `C_V` synchronous wait paid two plus an
/// add). The table performs those exact conversions — same operations,
/// same order — at construction, so a lookup is bit-identical to the
/// closed form (pinned by `delay_table_matches_closed_form` here and the
/// `model_properties` suite, including the Monte-Carlo jittered paths,
/// which rebuild the table from each run's sampled delays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayTable {
    sync_wait: [SimDuration; 3],
    async_delay: [SimDuration; 3],
    freq_stall: SimDuration,
    exception: SimDuration,
    emulation_call: SimDuration,
    emulation_remainder: SimDuration,
}

impl DelayTable {
    /// Precomputes every delay of `d`.
    pub fn new(d: &TransitionDelays) -> Self {
        let sync = |target: Point| match target {
            // Frequency-only move: the core (domain) waits for the clock.
            Point::E | Point::Cf => d.freq_change(),
            // Full p-state move: voltage first, then frequency (§5.2,
            // Xeon PCPS behaviour).
            Point::Cv => d.volt_change() + d.freq_change(),
        };
        let async_ = |target: Point| match target {
            Point::E | Point::Cf => d.freq_change(),
            Point::Cv => d.volt_change(),
        };
        DelayTable {
            sync_wait: Point::ALL.map(sync),
            async_delay: Point::ALL.map(async_),
            freq_stall: d.freq_stall(),
            exception: d.exception(),
            emulation_call: d.emulation_call(),
            emulation_remainder: d.emulation_call().saturating_sub(d.exception()),
        }
    }

    /// Stall charged by a synchronous p-state change to `target`.
    #[inline]
    pub fn sync_wait(&self, target: Point) -> SimDuration {
        self.sync_wait[target as usize]
    }

    /// Transport delay of an asynchronous p-state change to `target`.
    #[inline]
    pub fn async_delay(&self, target: Point) -> SimDuration {
        self.async_delay[target as usize]
    }

    /// Stall charged when a pending conservative frequency raise lands.
    #[inline]
    pub fn freq_stall(&self) -> SimDuration {
        self.freq_stall
    }

    /// `#DO` exception entry delay.
    #[inline]
    pub fn exception(&self) -> SimDuration {
        self.exception
    }

    /// Full user-space emulation round trip.
    #[inline]
    pub fn emulation_call(&self) -> SimDuration {
        self.emulation_call
    }

    /// The emulation round trip minus the exception entry already
    /// charged — the remainder billed by the `Emulated` handler action.
    #[inline]
    pub fn emulation_remainder(&self) -> SimDuration {
        self.emulation_remainder
    }
}

fn sample_jittered<R: Rng + ?Sized>(rng: &mut R, mean_us: f64, sigma_us: f64) -> SimDuration {
    // Irwin–Hall: the sum of 3 uniform(−1, 1) draws has σ = 1 exactly
    // (3 · 1/3) and is roughly bell-shaped — a normal approximation
    // without a distribution dependency.
    let z: f64 = (0..3).map(|_| rng.gen_range(-1.0..1.0)).sum();
    let us = (mean_us + z * sigma_us).max(mean_us * 0.2);
    SimDuration::from_micros_f64(us)
}

/// One sample of a settle-curve time series: elapsed time and observed
/// value (mV for voltage curves, GHz for frequency curves). `observed` is
/// `None` inside a stall window, where the measurement loop cannot run —
/// the grey gaps of Figs. 9 and 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettleSample {
    /// Time since the change request, µs.
    pub t_us: f64,
    /// Observed value, or `None` while the core is stalled.
    pub observed: Option<f64>,
}

/// Generates the Fig. 8 style voltage settle curve: the value holds at
/// `from_mv` for a transport delay, slews to `to_mv`, then holds. `jitter`
/// perturbs the transport delay per repetition like the 20-rep scatter in
/// the figure.
pub fn voltage_settle_curve<R: Rng + ?Sized>(
    rng: &mut R,
    delays: &TransitionDelays,
    from_mv: f64,
    to_mv: f64,
    sample_period_us: f64,
    total_us: f64,
) -> Vec<SettleSample> {
    // The measured 350 µs is until the voltage has *stabilised*; the slew
    // itself occupies the last ~15 % of that window.
    let settle = delays.sample_volt_change(rng).as_micros_f64();
    let slew_start = settle * 0.85;
    let mut out = Vec::new();
    let mut t = 0.0;
    while t <= total_us {
        let v = if t <= slew_start {
            from_mv
        } else if t >= settle {
            to_mv
        } else {
            let x = (t - slew_start) / (settle - slew_start);
            from_mv + x * (to_mv - from_mv)
        };
        // Polling MSR_IA32_PERF_STATUS quantises to ~1 mV steps.
        out.push(SettleSample {
            t_us: t,
            observed: Some(v.round()),
        });
        t += sample_period_us;
    }
    out
}

/// Generates the Fig. 9/10/11 style frequency settle curve. On stalling
/// CPUs (Intel) no samples can be taken during the change: those samples
/// report `None`, and the first sample after the stall still shows the old
/// frequency (the late-APERF artefact the paper describes), after which
/// the new frequency is visible.
pub fn frequency_settle_curve<R: Rng + ?Sized>(
    rng: &mut R,
    delays: &TransitionDelays,
    from_ghz: f64,
    to_ghz: f64,
    sample_period_us: f64,
    total_us: f64,
) -> Vec<SettleSample> {
    let change = delays.sample_freq_change(rng).as_micros_f64();
    let stalls = delays.freq_stall_us > 0.0;
    let stall_end = change;
    let stall_start = change - delays.freq_stall_us.min(change);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut first_after_stall = true;
    while t <= total_us {
        let observed = if t < stall_start || !stalls {
            // AMD ramps smoothly; Intel holds the old frequency until the
            // stall begins.
            if !stalls {
                let x = (t / change).clamp(0.0, 1.0);
                Some(from_ghz + x * (to_ghz - from_ghz))
            } else {
                Some(from_ghz)
            }
        } else if t < stall_end {
            None // the measurement loop is stalled
        } else if first_after_stall {
            first_after_stall = false;
            Some(from_ghz) // late APERF update artefact
        } else {
            Some(to_ghz)
        };
        out.push(SettleSample { t_us: t, observed });
        t += sample_period_us;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_rng::SuitRng;

    #[test]
    fn cpu_constants_match_measurements() {
        let a = TransitionDelays::i9_9900k();
        assert_eq!(a.freq_change_us, 22.0);
        assert_eq!(a.volt_change_us, 350.0);
        let b = TransitionDelays::ryzen_7700x();
        assert_eq!(b.freq_change_us, 668.0);
        assert_eq!(b.freq_stall_us, 0.0);
        let c = TransitionDelays::xeon_4208();
        assert_eq!(c.volt_change_us, 335.0);
        assert_eq!(c.freq_stall_us, 27.0);
    }

    #[test]
    fn delay_table_matches_closed_form() {
        for d in [
            TransitionDelays::i9_9900k(),
            TransitionDelays::ryzen_7700x(),
            TransitionDelays::xeon_4208(),
        ] {
            let t = DelayTable::new(&d);
            assert_eq!(t.sync_wait(Point::E), d.freq_change());
            assert_eq!(t.sync_wait(Point::Cf), d.freq_change());
            assert_eq!(t.sync_wait(Point::Cv), d.volt_change() + d.freq_change());
            assert_eq!(t.async_delay(Point::E), d.freq_change());
            assert_eq!(t.async_delay(Point::Cf), d.freq_change());
            assert_eq!(t.async_delay(Point::Cv), d.volt_change());
            assert_eq!(t.freq_stall(), d.freq_stall());
            assert_eq!(t.exception(), d.exception());
            assert_eq!(t.emulation_call(), d.emulation_call());
            assert_eq!(
                t.emulation_remainder(),
                d.emulation_call().saturating_sub(d.exception())
            );
        }
    }

    #[test]
    fn sampled_delays_center_on_mean() {
        let d = TransitionDelays::xeon_4208();
        let mut rng = SuitRng::seed_from_u64(7);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| d.sample_volt_change(&mut rng).as_micros_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 335.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn sampled_delays_never_collapse_to_zero() {
        let d = TransitionDelays::ryzen_7700x(); // σ = 292 is large
        let mut rng = SuitRng::seed_from_u64(3);
        for _ in 0..5000 {
            let s = d.sample_freq_change(&mut rng).as_micros_f64();
            assert!(s >= 668.0 * 0.2 - 1e-9, "{s}");
        }
    }

    #[test]
    fn voltage_curve_starts_low_and_settles_high() {
        let d = TransitionDelays::i9_9900k();
        let mut rng = SuitRng::seed_from_u64(1);
        let curve = voltage_settle_curve(&mut rng, &d, 800.0, 900.0, 5.0, 600.0);
        assert_eq!(curve.first().unwrap().observed, Some(800.0));
        assert_eq!(curve.last().unwrap().observed, Some(900.0));
        // Monotone non-decreasing.
        let vals: Vec<f64> = curve.iter().filter_map(|s| s.observed).collect();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Settles in the 250–450 µs window around the measured 350 µs.
        let settle_t = curve
            .iter()
            .find(|s| s.observed == Some(900.0))
            .unwrap()
            .t_us;
        assert!((250.0..450.0).contains(&settle_t), "{settle_t}");
    }

    #[test]
    fn intel_frequency_curve_has_stall_gap_and_late_sample() {
        let d = TransitionDelays::i9_9900k();
        let mut rng = SuitRng::seed_from_u64(2);
        let curve = frequency_settle_curve(&mut rng, &d, 3.0, 2.6, 0.5, 40.0);
        let stalled = curve.iter().filter(|s| s.observed.is_none()).count();
        assert!(stalled > 0, "expected a stall gap");
        // The first observation after the gap still shows the old frequency.
        let gap_end = curve.iter().position(|s| s.observed.is_none()).unwrap()
            + curve
                .iter()
                .skip_while(|s| s.observed.is_some())
                .take_while(|s| s.observed.is_none())
                .count();
        assert_eq!(curve[gap_end].observed, Some(3.0));
        assert_eq!(curve.last().unwrap().observed, Some(2.6));
    }

    #[test]
    fn amd_frequency_curve_never_stalls() {
        let d = TransitionDelays::ryzen_7700x();
        let mut rng = SuitRng::seed_from_u64(4);
        let curve = frequency_settle_curve(&mut rng, &d, 3.0, 1.5, 10.0, 900.0);
        assert!(curve.iter().all(|s| s.observed.is_some()));
        assert_eq!(curve.last().unwrap().observed, Some(1.5));
    }
}
