//! Dynamic strategy selection (§6.8).
//!
//! §4.1 observes that "for single instructions, emulation is faster than
//! switching DVFS curves" and that emulation is beneficial for 65 % of
//! tested applications — yet catastrophically wrong for burst-heavy ones
//! (Nginx: −98 %). §6.8 concludes: "due to the hardware-software
//! co-design of SUIT, the operating system can dynamically choose the
//! best operating strategy for each workload". This module implements
//! that chooser as a per-burst cost comparison:
//!
//! * emulating a burst costs `events × emu_call` (§5.3's 0.77 µs round
//!   trip each);
//! * switching costs one conservative episode, ≈ `episode_cost` (~90 µs
//!   of stalls + deadline tail on the Intel CPUs).
//!
//! The chooser clusters `#DO` traps into bursts by gap, learns the
//! events-per-burst size with an EWMA while it emulates, and picks the
//! cheaper mode with hysteresis. Two practical details:
//!
//! * **mid-burst escape**: if the burst being emulated has already cost
//!   more than an episode would, it flips to 𝑓𝑉 immediately instead of
//!   finishing the burst in software;
//! * **probe bursts**: in 𝑓𝑉 mode only the first instruction of a burst
//!   traps, so burst sizes are unobservable; every `probe_interval`-th
//!   burst is deliberately emulated to refresh the estimate, which lets
//!   the chooser fall back to emulation when a workload quiets down.

use suit_hw::{CpuKind, CpuModel};
use suit_isa::{SimDuration, SimTime};

use crate::strategy::OperatingStrategy;

/// Configuration of the adaptive chooser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Cost of one user-space emulation round trip (§5.3).
    pub emu_call: SimDuration,
    /// Cost of one conservative episode under 𝑓𝑉 (switch stalls +
    /// deadline tail; ≈ 90 µs on the Intel CPUs).
    pub episode_cost: SimDuration,
    /// Gap that separates bursts when clustering traps (the deadline).
    pub burst_gap: SimDuration,
    /// Hysteresis factor: mode flips require the alternative to be this
    /// much cheaper (≥ 1).
    pub hysteresis: f64,
    /// In 𝑓𝑉 mode, emulate every N-th burst to refresh the size estimate.
    pub probe_interval: u32,
    /// EWMA weight of the newest burst size (0, 1].
    pub ewma_alpha: f64,
}

impl AdaptiveConfig {
    /// Sensible defaults for the Intel CPUs 𝒜/𝒞.
    pub fn intel() -> Self {
        AdaptiveConfig {
            emu_call: SimDuration::from_micros_f64(0.77),
            episode_cost: SimDuration::from_micros(90),
            burst_gap: SimDuration::from_micros(30),
            hysteresis: 1.5,
            probe_interval: 32,
            ewma_alpha: 0.3,
        }
    }

    /// Defaults for CPU ℬ: the cheap 0.27 µs emulation call against the
    /// very expensive 668 µs switch episode — emulation wins far more
    /// often there (§6.6/§6.8).
    pub fn amd() -> Self {
        AdaptiveConfig {
            emu_call: SimDuration::from_micros_f64(0.27),
            episode_cost: SimDuration::from_micros(1400), // 668 µs in + deadline + return
            burst_gap: SimDuration::from_micros(700),
            hysteresis: 1.5,
            probe_interval: 32,
            ewma_alpha: 0.3,
        }
    }

    /// The configuration for `cpu`, chosen by vendor like
    /// [`StrategyParams::for_cpu`](crate::StrategyParams::for_cpu).
    pub fn for_cpu(cpu: &CpuModel) -> Self {
        match cpu.kind {
            CpuKind::AmdRyzen7700X => Self::amd(),
            _ => Self::intel(),
        }
    }
}

/// The adaptive chooser state.
#[derive(Debug, Clone)]
pub struct AdaptiveChooser {
    cfg: AdaptiveConfig,
    mode: OperatingStrategy,
    last_event: Option<SimTime>,
    /// Events seen in the burst currently in progress.
    burst_events: u64,
    /// Whether every event of the current burst was emulated (so its size
    /// is fully observed and may train the estimator).
    burst_observed: bool,
    /// EWMA of events per burst, trained on emulated bursts.
    est_events_per_burst: f64,
    bursts_since_probe: u32,
    probing: bool,
    switches: u64,
}

impl AdaptiveChooser {
    /// Creates a chooser starting in emulation mode (cheapest for the
    /// sparse default case).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (hysteresis < 1, alpha outside
    /// (0, 1], zero probe interval).
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(
            cfg.hysteresis >= 1.0,
            "hysteresis must not invert the comparison"
        );
        assert!(
            cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0,
            "alpha in (0, 1]"
        );
        assert!(cfg.probe_interval >= 1, "probe interval must be positive");
        AdaptiveChooser {
            cfg,
            mode: OperatingStrategy::Emulation,
            last_event: None,
            burst_events: 0,
            burst_observed: true,
            est_events_per_burst: 1.0,
            bursts_since_probe: 0,
            probing: false,
            switches: 0,
        }
    }

    /// The currently selected steady mode (ignoring in-flight probes).
    pub fn mode(&self) -> OperatingStrategy {
        self.mode
    }

    /// Mode switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Whether the current burst is a deliberate probe (emulated to
    /// refresh the size estimate while the steady mode is 𝑓𝑉).
    pub fn is_probing(&self) -> bool {
        self.probing
    }

    /// The learned events-per-burst estimate.
    pub fn events_per_burst(&self) -> f64 {
        self.est_events_per_burst
    }

    fn emu_cost(&self, events: f64) -> f64 {
        events * self.cfg.emu_call.as_secs_f64()
    }

    fn episode_cost(&self) -> f64 {
        self.cfg.episode_cost.as_secs_f64()
    }

    fn set_mode(&mut self, mode: OperatingStrategy) {
        if self.mode != mode {
            self.mode = mode;
            self.switches += 1;
        }
    }

    /// Decides the steady mode from the current estimate (with hysteresis).
    fn decide(&mut self) {
        let emu = self.emu_cost(self.est_events_per_burst);
        match self.mode {
            OperatingStrategy::Emulation => {
                if emu > self.episode_cost() * self.cfg.hysteresis {
                    self.set_mode(OperatingStrategy::FreqVolt);
                }
            }
            _ => {
                if emu * self.cfg.hysteresis < self.episode_cost() {
                    self.set_mode(OperatingStrategy::Emulation);
                }
            }
        }
    }

    /// Records one `#DO` exception at `now` and returns the strategy to
    /// apply to it.
    pub fn on_exception(&mut self, now: SimTime) -> OperatingStrategy {
        let new_burst = match self.last_event {
            Some(prev) => now.saturating_since(prev) > self.cfg.burst_gap,
            None => true,
        };
        self.last_event = Some(now);

        if new_burst {
            // Close the previous burst: train the estimator if we saw all
            // of it, then re-decide and schedule probes.
            if self.burst_observed && self.burst_events > 0 {
                let a = self.cfg.ewma_alpha;
                self.est_events_per_burst =
                    (1.0 - a) * self.est_events_per_burst + a * self.burst_events as f64;
            }
            self.decide();
            self.probing = false;
            if self.mode == OperatingStrategy::FreqVolt {
                self.bursts_since_probe += 1;
                if self.bursts_since_probe >= self.cfg.probe_interval {
                    self.bursts_since_probe = 0;
                    self.probing = true;
                }
            } else {
                self.bursts_since_probe = 0;
            }
            self.burst_events = 0;
            self.burst_observed = self.mode == OperatingStrategy::Emulation || self.probing;
        }

        self.burst_events += 1;

        let effective = if self.probing || self.mode == OperatingStrategy::Emulation {
            // Mid-burst escape: if this burst alone already out-costs an
            // episode, stop emulating it right now.
            if self.emu_cost(self.burst_events as f64) > self.episode_cost() * self.cfg.hysteresis {
                self.set_mode(OperatingStrategy::FreqVolt);
                self.probing = false;
                self.burst_observed = false;
                // The escape itself is strong evidence of large bursts.
                self.est_events_per_burst = self.est_events_per_burst.max(self.burst_events as f64);
                OperatingStrategy::FreqVolt
            } else {
                OperatingStrategy::Emulation
            }
        } else {
            self.mode
        };
        if effective != OperatingStrategy::Emulation {
            self.burst_observed = false;
        }
        effective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn vendor_switch_picks_the_amd_rows_for_b_only() {
        use crate::StrategyParams;
        for cpu in [
            CpuModel::i9_9900k(),
            CpuModel::ryzen_7700x(),
            CpuModel::xeon_4208(),
            CpuModel::i5_1035g1(),
        ] {
            let amd = cpu.kind == CpuKind::AmdRyzen7700X;
            // The chooser's AMD costs assume ℬ's cheap emulation call.
            assert_eq!(cpu.delays.emulation_call_us < 0.5, amd, "{}", cpu.name);
            let (params, chooser) = if amd {
                (StrategyParams::amd(), AdaptiveConfig::amd())
            } else {
                (StrategyParams::intel(), AdaptiveConfig::intel())
            };
            assert_eq!(StrategyParams::for_cpu(&cpu), params, "{}", cpu.name);
            assert_eq!(AdaptiveConfig::for_cpu(&cpu), chooser, "{}", cpu.name);
        }
    }

    #[test]
    fn sparse_singletons_stay_on_emulation() {
        // One lone instruction every 500 µs: emulation at 0.77 µs each is
        // far cheaper than 90 µs episodes.
        let mut c = AdaptiveChooser::new(AdaptiveConfig::intel());
        for i in 0..200 {
            let mode = c.on_exception(at(i * 500));
            assert_eq!(mode, OperatingStrategy::Emulation, "exception {i}");
        }
        assert_eq!(c.switches(), 0);
        assert!(c.events_per_burst() < 1.5);
    }

    #[test]
    fn dense_burst_escapes_mid_burst() {
        // A crypto burst: events 0.1 µs apart. Emulating the whole burst
        // would cost milliseconds; the chooser must bail out after roughly
        // episode_cost / emu_call ≈ 175 events.
        let mut c = AdaptiveChooser::new(AdaptiveConfig::intel());
        let mut switched_at = None;
        for i in 0..5_000u64 {
            let now = SimTime::ZERO + SimDuration::from_nanos(i * 100);
            if c.on_exception(now) == OperatingStrategy::FreqVolt {
                switched_at = Some(i);
                break;
            }
        }
        let s = switched_at.expect("must escape to fV");
        assert!((100..400).contains(&s), "escaped after {s} events");
        assert_eq!(c.mode(), OperatingStrategy::FreqVolt);
    }

    #[test]
    fn returns_to_emulation_when_bursts_shrink() {
        let mut cfg = AdaptiveConfig::intel();
        cfg.probe_interval = 4; // probe often so the test converges fast
        let mut c = AdaptiveChooser::new(cfg);
        // Phase 1: big bursts (1 000 events, 0.1 µs apart) until fV.
        let mut t_ns: u64 = 0;
        for _burst in 0..3 {
            for _ in 0..1_000 {
                t_ns += 100;
                c.on_exception(SimTime::ZERO + SimDuration::from_nanos(t_ns));
            }
            t_ns += 200_000; // 200 µs gap
        }
        assert_eq!(c.mode(), OperatingStrategy::FreqVolt);
        // Phase 2: singleton bursts far apart; probes re-learn the size
        // and the chooser falls back to emulation.
        let mut back = false;
        for i in 0..200u64 {
            t_ns += 500_000;
            let m = c.on_exception(SimTime::ZERO + SimDuration::from_nanos(t_ns));
            if m == OperatingStrategy::Emulation && c.mode() == OperatingStrategy::Emulation {
                back = true;
                assert!(i >= 3, "needs a few probes, flipped at {i}");
                break;
            }
        }
        assert!(
            back,
            "must fall back to emulation; est {}",
            c.events_per_burst()
        );
    }

    #[test]
    fn probes_fire_on_schedule() {
        let mut cfg = AdaptiveConfig::intel();
        cfg.probe_interval = 5;
        let mut c = AdaptiveChooser::new(cfg);
        // Force fV with one huge burst.
        for i in 0..1_000u64 {
            c.on_exception(SimTime::ZERO + SimDuration::from_nanos(i * 100));
        }
        assert_eq!(c.mode(), OperatingStrategy::FreqVolt);
        // Medium bursts (100 events): probes must emulate one burst in
        // five even though the steady mode stays fV (100 × 0.77 µs < 90 µs
        // is false → stays fV… 77 µs vs 90 µs with hysteresis stays fV).
        let mut t_ns = 1_000_000_000;
        let mut emulated_bursts = 0;
        let mut fv_bursts = 0;
        for _burst in 0..20 {
            t_ns += 1_000_000; // 1 ms gap
            let first = c.on_exception(SimTime::ZERO + SimDuration::from_nanos(t_ns));
            if first == OperatingStrategy::Emulation {
                emulated_bursts += 1;
            } else {
                fv_bursts += 1;
            }
            for _ in 0..99 {
                t_ns += 100;
                c.on_exception(SimTime::ZERO + SimDuration::from_nanos(t_ns));
            }
        }
        assert!(
            emulated_bursts >= 2,
            "probes must sample ({emulated_bursts})"
        );
        assert!(fv_bursts > emulated_bursts, "steady mode must dominate");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn rejects_inverting_hysteresis() {
        let mut cfg = AdaptiveConfig::intel();
        cfg.hysteresis = 0.5;
        let _ = AdaptiveChooser::new(cfg);
    }
}
