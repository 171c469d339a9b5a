//! Assembled CPU models 𝒜, ℬ, 𝒞 (§6.2) and the derived operating points.
//!
//! The trace-driven simulator needs, per CPU:
//!
//! * the DVFS-domain layout (single shared domain on the i9-9900K,
//!   per-core frequency domains on the 7700X, fully per-core p-states on
//!   the Xeon 4208);
//! * the transition delays of §5.2–5.3;
//! * the relative performance and power of the three operating points of
//!   Fig. 4 — the efficient curve `E`, the conservative-by-frequency point
//!   `C_f`, and the conservative-by-voltage point `C_V`.

use crate::delays::TransitionDelays;
use crate::measured;
use crate::power::PowerModel;
use crate::pstate::DvfsCurve;
use crate::undervolt::SteadyStateModel;

/// Which evaluated CPU a model represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// 𝒜 — Intel Core i9-9900K.
    IntelI9_9900K,
    /// ℬ — AMD Ryzen 7 7700X.
    AmdRyzen7700X,
    /// 𝒞 — Intel Xeon Silver 4208.
    IntelXeon4208,
    /// The i5-1035G1 of Table 2 (steady-state only; not trace-simulated).
    IntelI5_1035G1,
}

/// DVFS-domain granularity (§6.2, "Simulated CPUs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainLayout {
    /// One frequency and voltage domain shared by all cores (𝒜): a curve
    /// switch on any core drags every core along.
    SharedAll,
    /// Per-core frequency domains but one voltage domain (ℬ): only
    /// frequency switching is core-local.
    PerCoreFreq,
    /// Per-core frequency *and* voltage domains (𝒞, Intel PCPS): fully
    /// core-local p-state changes.
    PerCorePState,
}

/// The evaluated undervolt levels of §3.1/§6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UndervoltLevel {
    /// −70 mV: the instruction-voltage-variation margin alone.
    Mv70,
    /// −97 mV: −70 mV plus 20 % of the 137 mV aging guardband.
    Mv97,
}

impl UndervoltLevel {
    /// The voltage offset in mV (negative).
    pub fn offset_mv(self) -> f64 {
        match self {
            UndervoltLevel::Mv70 => measured::INSTR_VARIATION_OFFSET_MV,
            UndervoltLevel::Mv97 => measured::COMBINED_OFFSET_MV,
        }
    }

    /// Both evaluated levels.
    pub const ALL: [UndervoltLevel; 2] = [UndervoltLevel::Mv70, UndervoltLevel::Mv97];

    /// The keys the CLI and the service accept, as offset magnitudes, in
    /// the order of [`Self::ALL`].
    pub const KEYS: [&'static str; 2] = ["70", "97"];

    /// This level's key: its offset magnitude in mV.
    pub fn key(&self) -> &'static str {
        Self::KEYS[*self as usize]
    }
}

/// Parses a level key; the offset's sign is optional (`97` or `-97`).
impl core::str::FromStr for UndervoltLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let key = s.strip_prefix('-').unwrap_or(s);
        Self::ALL
            .into_iter()
            .find(|level| level.key() == key)
            .ok_or_else(|| format!("unknown offset '{s}' (expected 70 or 97)"))
    }
}

impl core::fmt::Display for UndervoltLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} mV", self.offset_mv())
    }
}

/// Relative performance and power of an operating point, normalised to the
/// conservative curve at nominal voltage (`C_V` ≡ `{1.0, 1.0}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Instruction throughput relative to `C_V`.
    pub perf: f64,
    /// Package power relative to `C_V`.
    pub power: f64,
}

/// The three operating points of Fig. 4. The OS policy names its p-state
/// targets with it, and its discriminant indexes every per-point table
/// (operating points, transition delays, residency time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// The efficient (undervolted) curve.
    E,
    /// Conservative by frequency: efficient voltage, reduced clock.
    Cf,
    /// Conservative by voltage: nominal voltage, full clock.
    Cv,
}

impl Point {
    /// Every operating point, in index order.
    pub const ALL: [Point; 3] = [Point::E, Point::Cf, Point::Cv];
}

/// A complete CPU model consumed by the trace-driven simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Which CPU this is.
    pub kind: CpuKind,
    /// Marketing name, as the paper prints it.
    pub name: &'static str,
    /// DVFS-domain layout.
    pub domains: DomainLayout,
    /// Measured transition delays.
    pub delays: TransitionDelays,
    /// Steady-state undervolt response model.
    pub steady: SteadyStateModel,
    /// Exponent relating frequency to throughput when running *below* the
    /// base frequency on `C_f` (well below 1: memory-bound phases do not
    /// slow down with the core clock, and the `C_f` dwell is short enough
    /// that out-of-order buffers smooth the dip).
    pub freq_perf_exponent: f64,
}

/// Parses a CPU key: `a`, `b` or `c` for 𝒜, ℬ, 𝒞.
impl core::str::FromStr for CpuModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "a" => Ok(CpuModel::i9_9900k()),
            "b" => Ok(CpuModel::ryzen_7700x()),
            "c" => Ok(CpuModel::xeon_4208()),
            other => Err(format!("unknown cpu '{other}' (expected a, b or c)")),
        }
    }
}

impl CpuModel {
    /// The keys of the trace-simulated CPUs 𝒜, ℬ, 𝒞.
    pub const KEYS: [&'static str; 3] = ["a", "b", "c"];

    /// This model's key; the Table 2-only i5 is `d`, which no surface
    /// accepts.
    pub fn key(&self) -> &'static str {
        match self.kind {
            CpuKind::IntelI9_9900K => "a",
            CpuKind::AmdRyzen7700X => "b",
            CpuKind::IntelXeon4208 => "c",
            CpuKind::IntelI5_1035G1 => "d",
        }
    }

    /// CPU 𝒜 — Intel Core i9-9900K: single shared DVFS domain.
    pub fn i9_9900k() -> Self {
        CpuModel {
            kind: CpuKind::IntelI9_9900K,
            name: "Intel Core i9-9900K",
            domains: DomainLayout::SharedAll,
            delays: TransitionDelays::i9_9900k(),
            steady: SteadyStateModel::i9_9900k(),
            freq_perf_exponent: 0.6,
        }
    }

    /// CPU ℬ — AMD Ryzen 7 7700X: per-core frequency domains.
    pub fn ryzen_7700x() -> Self {
        CpuModel {
            kind: CpuKind::AmdRyzen7700X,
            name: "AMD Ryzen 7 7700X",
            domains: DomainLayout::PerCoreFreq,
            delays: TransitionDelays::ryzen_7700x(),
            steady: SteadyStateModel::ryzen_7700x(),
            freq_perf_exponent: 0.6,
        }
    }

    /// CPU 𝒞 — Intel Xeon Silver 4208: per-core p-states (PCPS).
    pub fn xeon_4208() -> Self {
        CpuModel {
            kind: CpuKind::IntelXeon4208,
            name: "Intel Xeon Silver 4208",
            domains: DomainLayout::PerCorePState,
            delays: TransitionDelays::xeon_4208(),
            steady: SteadyStateModel::xeon_4208(),
            freq_perf_exponent: 0.6,
        }
    }

    /// The i5-1035G1 (Table 2 comparison only).
    pub fn i5_1035g1() -> Self {
        CpuModel {
            kind: CpuKind::IntelI5_1035G1,
            name: "Intel Core i5-1035G1",
            domains: DomainLayout::SharedAll,
            delays: TransitionDelays::i9_9900k(),
            steady: SteadyStateModel::i5_1035g1(),
            freq_perf_exponent: 0.6,
        }
    }

    /// The conservative DVFS curve.
    pub fn curve(&self) -> &DvfsCurve {
        &self.steady.curve
    }

    /// The package power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.steady.power
    }

    /// Operating point `C_V`: conservative curve by definition of the
    /// normalisation.
    pub fn point_cv(&self) -> OperatingPoint {
        OperatingPoint {
            perf: 1.0,
            power: 1.0,
        }
    }

    /// Operating point `E`: the efficient curve at `level`. Performance and
    /// power come from the steady-state undervolt response (Table 2).
    pub fn point_e(&self, level: UndervoltLevel) -> OperatingPoint {
        let r = self.steady.response(level.offset_mv());
        OperatingPoint {
            perf: 1.0 + r.score,
            power: 1.0 + r.power,
        }
    }

    /// Operating point `C_f`: conservative *by frequency* — the voltage
    /// stays at the efficient level but the clock drops until the
    /// conservative curve is satisfied (Fig. 4). Cheap to reach (frequency
    /// change only), very low power, reduced performance.
    pub fn point_cf(&self, level: UndervoltLevel) -> OperatingPoint {
        let curve = self.curve();
        let f0 = self.steady.base_freq_ghz;
        let v_eff = curve.voltage_at(f0) + level.offset_mv();
        let f_cf = curve.max_freq_at_voltage(v_eff);
        let freq_ratio = f_cf / f0;

        let pm = self.power_model();
        let p0 = pm.package_power(curve.voltage_at(f0), f0);
        let p_cf = pm.package_power(v_eff, f_cf);

        OperatingPoint {
            perf: freq_ratio.powf(self.freq_perf_exponent),
            power: p_cf / p0,
        }
    }

    /// Emulation round-trip delay (two kernel transitions, §5.3).
    pub fn emulation_call_delay(&self) -> suit_isa::SimDuration {
        self.delays.emulation_call()
    }

    /// All three trace-simulated CPUs (𝒜, ℬ, 𝒞).
    pub fn evaluated() -> [CpuModel; 3] {
        [Self::i9_9900k(), Self::ryzen_7700x(), Self::xeon_4208()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_layouts_match_paper() {
        assert_eq!(CpuModel::i9_9900k().domains, DomainLayout::SharedAll);
        assert_eq!(CpuModel::ryzen_7700x().domains, DomainLayout::PerCoreFreq);
        assert_eq!(CpuModel::xeon_4208().domains, DomainLayout::PerCorePState);
    }

    #[test]
    fn e_point_beats_cv_on_both_axes_for_i9() {
        let cpu = CpuModel::i9_9900k();
        for level in UndervoltLevel::ALL {
            let e = cpu.point_e(level);
            assert!(e.perf >= 1.0, "E must not be slower than C_V");
            assert!(e.power < 1.0, "E must draw less power than C_V");
        }
    }

    #[test]
    fn cf_point_is_slow_but_frugal() {
        let cpu = CpuModel::i9_9900k();
        for level in UndervoltLevel::ALL {
            let e = cpu.point_e(level);
            let cf = cpu.point_cf(level);
            assert!(cf.perf < e.perf, "C_f must be slower than E");
            assert!(cf.perf < 1.0, "C_f must be slower than C_V");
            assert!(
                cf.power < e.power,
                "C_f stays at low voltage *and* low frequency → least power"
            );
        }
    }

    #[test]
    fn deeper_undervolt_means_bigger_spread() {
        let cpu = CpuModel::xeon_4208();
        let e70 = cpu.point_e(UndervoltLevel::Mv70);
        let e97 = cpu.point_e(UndervoltLevel::Mv97);
        assert!(e97.power < e70.power);
        assert!(e97.perf >= e70.perf);
    }

    #[test]
    fn xeon_shares_i9_steady_state() {
        // §5.4: Intel does not allow undervolting the Xeon 4208; the paper
        // transfers the i9 response. Delays and domains still differ.
        let a = CpuModel::i9_9900k();
        let c = CpuModel::xeon_4208();
        assert_eq!(a.steady, c.steady);
        assert_ne!(a.delays, c.delays);
    }

    #[test]
    fn undervolt_level_offsets() {
        assert_eq!(UndervoltLevel::Mv70.offset_mv(), -70.0);
        assert_eq!(UndervoltLevel::Mv97.offset_mv(), -97.0);
        assert_eq!(format!("{}", UndervoltLevel::Mv97), "-97 mV");
    }

    #[test]
    fn undervolt_level_keys_round_trip() {
        assert_eq!(UndervoltLevel::Mv70.key(), "70");
        assert_eq!(UndervoltLevel::Mv97.key(), "97");
        assert_eq!("70".parse(), Ok(UndervoltLevel::Mv70));
        assert_eq!("-97".parse(), Ok(UndervoltLevel::Mv97));
        assert_eq!(
            "98".parse::<UndervoltLevel>(),
            Err("unknown offset '98' (expected 70 or 97)".to_string())
        );
    }
}
