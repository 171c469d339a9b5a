//! CMOS package power model (§2.1).
//!
//! Dynamic power of a CMOS circuit is `P_dyn = C_L · V² · f` (§2.1);
//! leakage adds a static component that grows super-linearly with voltage.
//! The model here is calibrated against the i9-9900K's measured SPEC
//! CPU2017 operating point (≈ 93 W at ≈ 4.5 GHz, Fig. 12) and is the
//! physical basis for all efficiency numbers in the evaluation: the paper's
//! observation that efficiency "approximately doubles" from −70 mV to
//! −97 mV is exactly the quadratic voltage dependency this model encodes.

use crate::measured;
use crate::pstate::DvfsCurve;

/// A calibrated package power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Effective switched capacitance, in W / (V² · GHz).
    pub c_eff: f64,
    /// Static (leakage) power at the reference voltage, W.
    pub static_ref_w: f64,
    /// Reference voltage for the leakage term, mV.
    pub v_ref_mv: f64,
    /// Uncore/DRAM-interface power that does not scale with core V/f, W.
    pub uncore_w: f64,
}

impl PowerModel {
    /// Calibrates a model so that `package_power(v_ref, f_ref) = p_ref`,
    /// attributing `static_frac` of core power to leakage and `uncore_w`
    /// watts to the uncore.
    ///
    /// # Panics
    ///
    /// Panics if `static_frac` is outside `[0, 1)` or any input is
    /// non-positive.
    pub fn calibrated(
        p_ref_w: f64,
        v_ref_mv: f64,
        f_ref_ghz: f64,
        static_frac: f64,
        uncore_w: f64,
    ) -> Self {
        assert!(p_ref_w > 0.0 && v_ref_mv > 0.0 && f_ref_ghz > 0.0);
        assert!((0.0..1.0).contains(&static_frac));
        assert!(uncore_w >= 0.0 && uncore_w < p_ref_w);
        let core = p_ref_w - uncore_w;
        let static_ref_w = core * static_frac;
        let dyn_ref = core - static_ref_w;
        let v = v_ref_mv / 1000.0;
        PowerModel {
            c_eff: dyn_ref / (v * v * f_ref_ghz),
            static_ref_w,
            v_ref_mv,
            uncore_w,
        }
    }

    /// The i9-9900K model: Fig. 12's mean SPEC power at its mean frequency
    /// and that frequency's voltage on [`DvfsCurve::i9_9900k`], with 20 %
    /// leakage and 8 W of uncore.
    pub fn i9_9900k() -> Self {
        let f = measured::I9_SPEC_MEAN_FREQ_GHZ;
        let v = DvfsCurve::i9_9900k().voltage_at(f);
        Self::calibrated(measured::I9_SPEC_MEAN_POWER_W, v, f, 0.20, 8.0)
    }

    /// Dynamic core power at the given operating point, W.
    pub fn dynamic_power(&self, voltage_mv: f64, freq_ghz: f64) -> f64 {
        let v = voltage_mv / 1000.0;
        self.c_eff * v * v * freq_ghz
    }

    /// Static (leakage) power at the given voltage, W. Modelled as
    /// `P_s(V) = P_s(V_ref) · (V / V_ref)³` — leakage falls faster than
    /// linearly with voltage in short-channel devices.
    pub fn static_power(&self, voltage_mv: f64) -> f64 {
        let r = voltage_mv / self.v_ref_mv;
        self.static_ref_w * r * r * r
    }

    /// Total package power, W.
    pub fn package_power(&self, voltage_mv: f64, freq_ghz: f64) -> f64 {
        self.dynamic_power(voltage_mv, freq_ghz) + self.static_power(voltage_mv) + self.uncore_w
    }

    /// The highest frequency on `curve` (with `offset_mv` applied to its
    /// voltages) whose package power stays within `tdp_w`, found by
    /// bisection. Clamped to the curve's frequency range.
    pub fn max_freq_within_tdp(&self, curve: &DvfsCurve, offset_mv: f64, tdp_w: f64) -> f64 {
        let f_lo = curve.min_freq_ghz();
        let f_hi = curve.max_freq_ghz();
        let power_at = |f: f64| self.package_power(curve.voltage_at(f) + offset_mv, f);
        if power_at(f_hi) <= tdp_w {
            return f_hi;
        }
        if power_at(f_lo) >= tdp_w {
            return f_lo;
        }
        let (mut lo, mut hi) = (f_lo, f_hi);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if power_at(mid) <= tdp_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_reference_point() {
        let m = PowerModel::i9_9900k();
        let p = m.package_power(1082.0, 4.5);
        assert!((p - 93.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn dynamic_power_is_quadratic_in_voltage() {
        let m = PowerModel::i9_9900k();
        let p1 = m.dynamic_power(1000.0, 4.0);
        let p2 = m.dynamic_power(2000.0, 4.0);
        assert!((p2 / p1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_is_linear_in_frequency() {
        let m = PowerModel::i9_9900k();
        let p1 = m.dynamic_power(1000.0, 2.0);
        let p2 = m.dynamic_power(1000.0, 4.0);
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn undervolting_saves_the_right_ballpark() {
        // A −97 mV undervolt at fixed 4.5 GHz should cut package power by
        // roughly the measured 16 % (Table 2, i9-9900K).
        let m = PowerModel::i9_9900k();
        let base = m.package_power(1082.0, 4.5);
        let uv = m.package_power(1082.0 - 97.0, 4.5);
        let delta = uv / base - 1.0;
        assert!((-0.20..=-0.12).contains(&delta), "Δpower = {delta:.3}");
    }

    #[test]
    fn tdp_solver_finds_boundary() {
        let m = PowerModel::i9_9900k();
        let curve = DvfsCurve::i9_9900k();
        let f = m.max_freq_within_tdp(&curve, 0.0, 80.0);
        let p = m.package_power(curve.voltage_at(f), f);
        assert!((p - 80.0).abs() < 0.05, "power at solved freq: {p}");
        // Undervolting raises the TDP-limited frequency.
        let f_uv = m.max_freq_within_tdp(&curve, -97.0, 80.0);
        assert!(f_uv > f, "{f_uv} vs {f}");
    }

    #[test]
    fn tdp_solver_clamps_to_curve_limits() {
        let m = PowerModel::i9_9900k();
        let curve = DvfsCurve::i9_9900k();
        assert_eq!(m.max_freq_within_tdp(&curve, 0.0, 10_000.0), 5.0);
        assert_eq!(m.max_freq_within_tdp(&curve, 0.0, 1.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_static_fraction() {
        let _ = PowerModel::calibrated(93.0, 1082.0, 4.5, 1.5, 8.0);
    }
}
