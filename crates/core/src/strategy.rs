//! Operating strategies and their parameters (§4.3, Table 7).
//!
//! The operating strategy is how the OS reacts to a `#DO` exception. Four
//! exist, built from the two curve-switching methods of Fig. 4 plus
//! software emulation:
//!
//! * **Emulation (𝑒)** — never switch; emulate the trapped instruction in
//!   user space. Cheap per single instruction, catastrophic for dense
//!   bursts, impossible inside TEEs.
//! * **Frequency (𝑓)** — switch `E ↔ C_f` by dropping the clock. Fast and
//!   power-frugal, but the CPU computes slower while conservative.
//! * **Voltage (𝑉)** — switch `E ↔ C_V` by raising the voltage. An order
//!   of magnitude slower to engage, full speed once there.
//! * **Combination (𝑓𝑉)** — Listing 1: drop the frequency immediately,
//!   request the voltage raise asynchronously; short bursts never pay the
//!   voltage delay, long bursts end up at `C_V` at full speed.

use suit_isa::SimDuration;

use suit_hw::measured::{params_amd, params_intel};
use suit_hw::{CpuKind, CpuModel};

/// The four operating strategies of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingStrategy {
    /// 𝑒 — emulate in the `#DO` handler, never leave the efficient curve.
    Emulation,
    /// 𝑓 — switch curves by changing frequency only (`E ↔ C_f`).
    Frequency,
    /// 𝑉 — switch curves by changing voltage only (`E ↔ C_V`).
    Voltage,
    /// 𝑓𝑉 — frequency first, voltage follows asynchronously
    /// (`E → C_f → C_V → E`).
    FreqVolt,
}

impl OperatingStrategy {
    /// Short label as used in Table 6 ("e", "f", "V", "fV").
    pub fn label(self) -> &'static str {
        match self {
            OperatingStrategy::Emulation => "e",
            OperatingStrategy::Frequency => "f",
            OperatingStrategy::Voltage => "V",
            OperatingStrategy::FreqVolt => "fV",
        }
    }
}

impl core::fmt::Display for OperatingStrategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The strategy names the CLI, the service and the config files accept:
/// the four strategies of §4.3 plus §6.8's adaptive emulation/𝑓𝑉
/// chooser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKey {
    /// `fv` — 𝑓𝑉.
    FreqVolt,
    /// `f` — 𝑓.
    Frequency,
    /// `v` — 𝑉.
    Voltage,
    /// `e` — emulation (closed-form; no engine run).
    Emulation,
    /// `adaptive` — §6.8's chooser over emulation and 𝑓𝑉.
    Adaptive,
}

impl StrategyKey {
    /// Every key.
    pub const KEYS: [&'static str; 5] = ["fv", "f", "v", "e", "adaptive"];

    /// The keys that switch curves in the engine (no `e`).
    pub const ENGINE_KEYS: [&'static str; 4] = ["fv", "f", "v", "adaptive"];

    /// This strategy's key.
    pub fn key(&self) -> &'static str {
        match self {
            StrategyKey::FreqVolt => "fv",
            StrategyKey::Frequency => "f",
            StrategyKey::Voltage => "v",
            StrategyKey::Emulation => "e",
            StrategyKey::Adaptive => "adaptive",
        }
    }

    /// The operating strategy this key runs; `adaptive` shapes its
    /// operating points as 𝑓𝑉.
    pub fn strategy(self) -> OperatingStrategy {
        match self {
            StrategyKey::FreqVolt | StrategyKey::Adaptive => OperatingStrategy::FreqVolt,
            StrategyKey::Frequency => OperatingStrategy::Frequency,
            StrategyKey::Voltage => OperatingStrategy::Voltage,
            StrategyKey::Emulation => OperatingStrategy::Emulation,
        }
    }
}

impl core::str::FromStr for StrategyKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fv" => Ok(StrategyKey::FreqVolt),
            "f" => Ok(StrategyKey::Frequency),
            "v" => Ok(StrategyKey::Voltage),
            "e" => Ok(StrategyKey::Emulation),
            "adaptive" => Ok(StrategyKey::Adaptive),
            other => Err(format!(
                "unknown strategy '{other}' (expected fv, f, v, e or adaptive)"
            )),
        }
    }
}

/// The four tuning parameters of §4.3 (values: Table 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyParams {
    /// p_dl — the deadline: maximum time between two potentially faulting
    /// instructions before switching back to the efficient curve.
    pub deadline: SimDuration,
    /// p_ts — the thrashing-prevention look-back window.
    pub timespan: SimDuration,
    /// p_ec — maximum `#DO` count within p_ts before thrashing is declared.
    pub max_exceptions: u32,
    /// p_df — deadline multiplier while thrashing.
    pub deadline_factor: f64,
}

impl StrategyParams {
    /// Table 7 row for CPUs 𝒜 and 𝒞 (Intel): 30 µs / 450 µs / 3 / 14.
    pub fn intel() -> Self {
        StrategyParams {
            deadline: SimDuration::from_micros_f64(params_intel::P_DL_US),
            timespan: SimDuration::from_micros_f64(params_intel::P_TS_US),
            max_exceptions: params_intel::P_EC,
            deadline_factor: params_intel::P_DF,
        }
    }

    /// Table 7 row for CPU ℬ (AMD): 700 µs / 14 ms / 4 / 9.
    pub fn amd() -> Self {
        StrategyParams {
            deadline: SimDuration::from_micros_f64(params_amd::P_DL_US),
            timespan: SimDuration::from_micros_f64(params_amd::P_TS_US),
            max_exceptions: params_amd::P_EC,
            deadline_factor: params_amd::P_DF,
        }
    }

    /// The Table 7 row for `cpu`: the AMD row for ℬ, the Intel row for
    /// every Intel part.
    pub fn for_cpu(cpu: &CpuModel) -> Self {
        match cpu.kind {
            CpuKind::AmdRyzen7700X => Self::amd(),
            _ => Self::intel(),
        }
    }

    /// The extended deadline applied while thrashing: `p_dl · p_df`.
    pub fn extended_deadline(&self) -> SimDuration {
        self.deadline.mul_f64(self.deadline_factor)
    }

    /// Returns a copy with a different deadline (for the Table 7 sweep).
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy with a different deadline factor.
    pub fn with_deadline_factor(mut self, factor: f64) -> Self {
        self.deadline_factor = factor;
        self
    }

    /// Returns a copy with thrashing prevention effectively disabled
    /// (threshold out of reach) — the ablation of DESIGN.md §6 item 2.
    pub fn without_thrash_prevention(mut self) -> Self {
        self.max_exceptions = u32::MAX;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_intel_row() {
        let p = StrategyParams::intel();
        assert_eq!(p.deadline, SimDuration::from_micros(30));
        assert_eq!(p.timespan, SimDuration::from_micros(450));
        assert_eq!(p.max_exceptions, 3);
        assert_eq!(p.deadline_factor, 14.0);
        assert_eq!(p.extended_deadline(), SimDuration::from_micros(420));
    }

    #[test]
    fn table7_amd_row() {
        let p = StrategyParams::amd();
        assert_eq!(p.deadline, SimDuration::from_micros(700));
        assert_eq!(p.timespan, SimDuration::from_millis(14));
        assert_eq!(p.max_exceptions, 4);
        assert_eq!(p.deadline_factor, 9.0);
    }

    #[test]
    fn labels_match_table6_columns() {
        assert_eq!(OperatingStrategy::Emulation.to_string(), "e");
        assert_eq!(OperatingStrategy::Frequency.to_string(), "f");
        assert_eq!(OperatingStrategy::Voltage.to_string(), "V");
        assert_eq!(OperatingStrategy::FreqVolt.to_string(), "fV");
    }

    #[test]
    fn builder_tweaks() {
        let p = StrategyParams::intel()
            .with_deadline(SimDuration::from_micros(40))
            .with_deadline_factor(2.0);
        assert_eq!(p.deadline, SimDuration::from_micros(40));
        assert_eq!(p.extended_deadline(), SimDuration::from_micros(80));
        assert_eq!(p.without_thrash_prevention().max_exceptions, u32::MAX);
    }
}
