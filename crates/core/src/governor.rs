//! A temperature- and aging-aware offset governor.
//!
//! The paper's offsets are static (−70 mV from instruction variation,
//! −97 mV with 20 % of the aging guardband), but both underlying budgets
//! move at run time: Table 3 shows the safe offset shrinking from −90 mV
//! at 50 °C to −55 mV at 88 °C, and §3.1 ties the borrowable aging
//! guardband to deployment age and temperature history. This governor
//! combines the three constraints each control step:
//!
//! ```text
//! offset = shallowest of ( instruction-variation margin − aging borrow,
//!                          temperature limit(T_now) )
//! ```
//!
//! and quantises the result onto SUIT's evaluated curve levels (a vendor
//! ships finitely many qualified efficient curves, not a continuum).

use suit_hw::guardband::{max_undervolt_at_temp_mv, AgingModel};
use suit_hw::measured::INSTR_VARIATION_OFFSET_MV;
use suit_hw::thermal::ThermalModel;
use suit_hw::{DvfsCurve, UndervoltLevel};
use suit_isa::SimDuration;

/// Static configuration of the governor.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// How long the machine has been deployed, years (drives the consumed
    /// share of the aging guardband).
    pub deployment_years: f64,
    /// Fraction of the *unused* aging guardband held in reserve
    /// (§3.1 evaluates borrowing 20 %, i.e. a 0.8 reserve).
    pub reserve_frac: f64,
    /// The conservative DVFS curve (for the guardband size).
    pub curve: DvfsCurve,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            deployment_years: 0.0,
            reserve_frac: 0.8,
            curve: DvfsCurve::i9_9900k(),
        }
    }
}

/// The run-time governor: owns the thermal state, emits offset decisions.
#[derive(Debug, Clone)]
pub struct OffsetGovernor {
    cfg: GovernorConfig,
    aging: AgingModel,
    thermal: ThermalModel,
}

impl OffsetGovernor {
    /// Creates a governor with the package initially at ambient and the
    /// given fan speed.
    pub fn new(cfg: GovernorConfig, fan_rpm: f64) -> Self {
        OffsetGovernor {
            cfg,
            aging: AgingModel::default(),
            thermal: ThermalModel::new(fan_rpm),
        }
    }

    /// Current junction temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// Adjusts the fan.
    pub fn set_fan_rpm(&mut self, rpm: f64) {
        self.thermal.set_fan_rpm(rpm);
    }

    /// Advances thermals by `dt` under `watts` and returns the deepest
    /// safe offset right now, mV (≤ 0).
    pub fn step(&mut self, dt: SimDuration, watts: f64) -> f64 {
        self.thermal.step(dt, watts);
        self.current_offset_mv()
    }

    /// The deepest safe offset at the current state, mV.
    pub fn current_offset_mv(&self) -> f64 {
        let temp = self.thermal.temperature_c();
        // Budget 1: instruction variation plus the borrowable aging share.
        let borrow = self.aging.borrowable_mv(
            &self.cfg.curve,
            self.cfg.deployment_years,
            temp,
            self.cfg.reserve_frac,
        );
        let budget = INSTR_VARIATION_OFFSET_MV - borrow;
        // Budget 2: the Table 3 temperature limit.
        let thermal_limit = max_undervolt_at_temp_mv(temp);
        // The *shallowest* (largest, since offsets are negative) binds.
        budget.max(thermal_limit).min(0.0)
    }

    /// Quantises the current offset onto the evaluated curve levels:
    /// `Mv97` when −97 mV is safe, `Mv70` when −70 mV is, `None` when the
    /// package is too hot for either.
    pub fn level(&self) -> Option<UndervoltLevel> {
        let offset = self.current_offset_mv();
        UndervoltLevel::ALL
            .into_iter()
            .rev()
            .find(|level| offset <= level.offset_mv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_hw::thermal::AMBIENT_C;

    fn settle(g: &mut OffsetGovernor, watts: f64) {
        for _ in 0..10_000 {
            g.step(SimDuration::from_millis(100), watts);
        }
    }

    #[test]
    fn cool_fresh_machine_gets_the_full_97() {
        let mut g = OffsetGovernor::new(GovernorConfig::default(), 1800.0);
        settle(&mut g, 93.0);
        assert!((g.temperature_c() - 50.0).abs() < 1.0);
        let offset = g.current_offset_mv();
        assert!(offset <= -90.0, "cool budget {offset}");
        // Table 3's own limit at 50 °C is −90 mV: the thermal constraint
        // binds just above the −97 mV aging-assisted budget.
        assert_eq!(g.level(), Some(UndervoltLevel::Mv70));
    }

    #[test]
    fn hot_machine_falls_back() {
        let mut g = OffsetGovernor::new(GovernorConfig::default(), 300.0);
        settle(&mut g, 93.0);
        assert!(g.temperature_c() > 85.0);
        let offset = g.current_offset_mv();
        // Table 3: only −55 mV is safe at 88 °C — neither level qualifies.
        assert!((-60.0..=-50.0).contains(&offset), "{offset}");
        assert_eq!(g.level(), None);
    }

    #[test]
    fn idle_machine_cools_back_into_the_deep_level() {
        let mut g = OffsetGovernor::new(GovernorConfig::default(), 1800.0);
        settle(&mut g, 93.0);
        settle(&mut g, 5.0); // near idle
        assert!(g.temperature_c() < AMBIENT_C + 5.0);
        // Cool silicon: the thermal limit extrapolates past −97 mV and the
        // full aging-assisted budget applies.
        assert_eq!(g.level(), Some(UndervoltLevel::Mv97));
    }

    #[test]
    fn older_machines_get_shallower_budgets() {
        let fresh = OffsetGovernor::new(GovernorConfig::default(), 1800.0);
        let aged = OffsetGovernor::new(
            GovernorConfig {
                deployment_years: 8.0,
                ..GovernorConfig::default()
            },
            1800.0,
        );
        assert!(
            aged.current_offset_mv() > fresh.current_offset_mv(),
            "aging consumes the borrowable share: {} vs {}",
            aged.current_offset_mv(),
            fresh.current_offset_mv()
        );
    }

    #[test]
    fn fan_control_recovers_the_level() {
        let mut g = OffsetGovernor::new(GovernorConfig::default(), 300.0);
        settle(&mut g, 93.0);
        assert_eq!(g.level(), None);
        g.set_fan_rpm(1800.0);
        settle(&mut g, 93.0);
        assert!(g.level().is_some(), "cooling restores an efficient curve");
    }
}
