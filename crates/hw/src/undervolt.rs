//! Steady-state undervolting response (Fig. 12, Table 2, §5.4).
//!
//! §5.4's observation: most CPUs are limited by their thermal design power
//! (TDP), so lowering the core voltage both cuts package power *and* lets
//! TDP-throttled phases sustain higher frequencies. The response of a full
//! SPEC CPU2017 run to an undervolt offset is therefore CPU-specific: the
//! 15 W i5-1035G1 converts the headroom almost entirely into frequency,
//! while the i9-9900K mostly banks it as power savings.
//!
//! [`SteadyStateModel`] reproduces this with per-metric response curves:
//! quadratic polynomials `Δ(x) = a·x + b·x²` in the offset magnitude,
//! anchored through the paper's two measured Table 2 points per CPU. The
//! quadratic form is the physically expected one (`P_dyn ∝ V²`, §2.1), the
//! anchors pin the magnitude to the measurements — the same role §5 plays
//! for the paper's own simulator. The package [`PowerModel`] and TDP
//! solver remain available for absolute watts and for the `C_f` operating
//! point.

use crate::cpu::UndervoltLevel;
use crate::measured::{self, Table2Row};
use crate::power::PowerModel;
use crate::pstate::{DvfsCurve, PState};

/// A quadratic response curve `Δ(x) = a·x + b·x²` over the undervolt
/// magnitude `x = |offset_mv|`, fitted through two measured anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticFit {
    /// Linear coefficient, per mV.
    pub a: f64,
    /// Quadratic coefficient, per mV².
    pub b: f64,
}

impl QuadraticFit {
    /// Fits through `(x1, y1)` and `(x2, y2)` (and implicitly the origin).
    ///
    /// # Panics
    ///
    /// Panics if `x1` and `x2` are not distinct positive magnitudes.
    pub fn through(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        assert!(x1 > 0.0 && x2 > 0.0 && (x1 - x2).abs() > f64::EPSILON);
        let det = x1 * x2 * x2 - x2 * x1 * x1;
        QuadraticFit {
            a: (y1 * x2 * x2 - y2 * x1 * x1) / det,
            b: (x1 * y2 - x2 * y1) / det,
        }
    }

    /// Evaluates the fit at magnitude `x` (mV).
    pub fn eval(&self, x: f64) -> f64 {
        self.a * x + self.b * x * x
    }
}

/// The modelled response of a full SPEC CPU2017 run to an undervolt offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UndervoltResponse {
    /// Applied core voltage offset, mV (negative = undervolt).
    pub offset_mv: f64,
    /// SPEC score change, fractional.
    pub score: f64,
    /// Package power change, fractional.
    pub power: f64,
    /// Mean core frequency change, fractional.
    pub freq: f64,
    /// Mean package power, W.
    pub power_w: f64,
    /// Mean core frequency, GHz.
    pub freq_ghz: f64,
}

impl UndervoltResponse {
    /// Efficiency change as the paper computes it (§5.4):
    /// `1 / (Δduration · Δpower) − 1 = (1 + score) / (1 + power) − 1`.
    pub fn efficiency(&self) -> f64 {
        (1.0 + self.score) / (1.0 + self.power) - 1.0
    }
}

/// A per-CPU steady-state undervolting model.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyStateModel {
    /// Package power model (absolute watts; also used for `C_f`).
    pub power: PowerModel,
    /// Conservative DVFS curve.
    pub curve: DvfsCurve,
    /// Sustained power limit, W.
    pub tdp_w: f64,
    /// Mean SPEC frequency at stock voltage, GHz.
    pub base_freq_ghz: f64,
    /// Score response fit (non-negative by construction of [`Self::response`]).
    pub score_fit: QuadraticFit,
    /// Power response fit (non-positive by construction).
    pub power_fit: QuadraticFit,
    /// Frequency response fit.
    pub freq_fit: QuadraticFit,
}

impl SteadyStateModel {
    fn from_table2(
        cpu: &str,
        power: PowerModel,
        curve: DvfsCurve,
        tdp_w: f64,
        base_freq_ghz: f64,
    ) -> Self {
        // One anchor per evaluated level, at its offset magnitude.
        let [(x1, r1), (x2, r2)] = UndervoltLevel::ALL.map(|level| {
            let offset = level.offset_mv();
            let row = table2_row(cpu, offset).expect("a Table 2 row per level");
            (-offset, row)
        });
        SteadyStateModel {
            power,
            curve,
            tdp_w,
            base_freq_ghz,
            score_fit: QuadraticFit::through(x1, r1.score, x2, r2.score),
            power_fit: QuadraticFit::through(x1, r1.power, x2, r2.power),
            freq_fit: QuadraticFit::through(x1, r1.freq, x2, r2.freq),
        }
    }

    /// The Intel Core i9-9900K (Table 2 / Fig. 12).
    pub fn i9_9900k() -> Self {
        Self::from_table2(
            "i9-9900K",
            PowerModel::i9_9900k(),
            DvfsCurve::i9_9900k(),
            95.0,
            measured::I9_SPEC_MEAN_FREQ_GHZ,
        )
    }

    /// The Intel Xeon Silver 4208 (CPU 𝒞). Intel does not allow
    /// undervolting this part (§5.4), so the paper's simulator — and ours —
    /// transfers the i9-9900K response to it; only the transition delays
    /// and domain layout differ.
    pub fn xeon_4208() -> Self {
        Self::i9_9900k()
    }

    /// The AMD Ryzen 7 7700X: high stock power budget, almost no thermal
    /// headroom converted to frequency (Table 2: +1.8 % freq, −15 % power).
    pub fn ryzen_7700x() -> Self {
        let curve = DvfsCurve::new(vec![
            PState {
                freq_ghz: 3.0,
                voltage_mv: 850.0,
            },
            PState {
                freq_ghz: 4.0,
                voltage_mv: 1000.0,
            },
            PState {
                freq_ghz: 4.5,
                voltage_mv: 1100.0,
            },
            PState {
                freq_ghz: 5.0,
                voltage_mv: 1220.0,
            },
            PState {
                freq_ghz: 5.4,
                voltage_mv: 1330.0,
            },
        ]);
        Self::from_table2(
            "7700X",
            PowerModel::calibrated(120.0, 1220.0, 5.0, 0.22, 12.0),
            curve,
            142.0, // PPT
            5.0,
        )
    }

    /// The Intel Core i5-1035G1: a 15 W laptop part pinned at its TDP, so
    /// undervolting converts almost entirely into frequency (Table 2:
    /// +12 % freq, −0.5 % power at −97 mV).
    pub fn i5_1035g1() -> Self {
        let curve = DvfsCurve::new(vec![
            PState {
                freq_ghz: 1.0,
                voltage_mv: 650.0,
            },
            PState {
                freq_ghz: 1.8,
                voltage_mv: 720.0,
            },
            PState {
                freq_ghz: 2.6,
                voltage_mv: 820.0,
            },
            PState {
                freq_ghz: 3.2,
                voltage_mv: 940.0,
            },
            PState {
                freq_ghz: 3.6,
                voltage_mv: 1050.0,
            },
        ]);
        Self::from_table2(
            "i5-1035G1",
            PowerModel::calibrated(15.0, 820.0, 2.6, 0.18, 2.5),
            curve,
            15.0,
            2.6,
        )
    }

    /// Computes the steady-state response to `offset_mv`.
    ///
    /// Score/frequency gains are clamped at ≥ 0 and the power delta at
    /// ≤ 0: an undervolt never hurts either axis in the modelled regime.
    pub fn response(&self, offset_mv: f64) -> UndervoltResponse {
        assert!(offset_mv <= 0.0, "model covers undervolting only");
        let x = -offset_mv;
        let score = self.score_fit.eval(x).max(0.0);
        let power = self.power_fit.eval(x).min(0.0);
        let freq = self.freq_fit.eval(x).max(0.0);

        let v0 = self.curve.voltage_at(self.base_freq_ghz);
        let p0 = self.power.package_power(v0, self.base_freq_ghz);
        UndervoltResponse {
            offset_mv,
            score,
            power,
            freq,
            power_w: p0 * (1.0 + power),
            freq_ghz: self.base_freq_ghz * (1.0 + freq),
        }
    }

    /// Sweeps a list of offsets — the Fig. 12 series.
    pub fn sweep(&self, offsets_mv: &[f64]) -> Vec<UndervoltResponse> {
        offsets_mv.iter().map(|&o| self.response(o)).collect()
    }
}

/// Finds the measured Table 2 row for a CPU and offset, for model
/// validation and the `table2` experiment.
pub fn table2_row(cpu: &str, offset_mv: f64) -> Option<Table2Row> {
    measured::TABLE2
        .iter()
        .find(|r| r.cpu == cpu && (r.offset_mv - offset_mv).abs() < 0.5)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(model: f64, paper: f64, tol: f64, what: &str) {
        assert!(
            (model - paper).abs() <= tol,
            "{what}: model {model:.4} vs paper {paper:.4} (tol {tol})"
        );
    }

    fn check_against_table2(model: &SteadyStateModel, cpu: &str, tol: f64) {
        for offset in [-70.0, -97.0] {
            let r = model.response(offset);
            let paper = table2_row(cpu, offset).unwrap();
            assert_close(r.score, paper.score, tol, &format!("{cpu} {offset} score"));
            assert_close(r.power, paper.power, tol, &format!("{cpu} {offset} power"));
            assert_close(r.freq, paper.freq, tol, &format!("{cpu} {offset} freq"));
            assert_close(
                r.efficiency(),
                paper.efficiency,
                2.0 * tol,
                &format!("{cpu} {offset} efficiency"),
            );
        }
    }

    #[test]
    fn i9_matches_table2() {
        check_against_table2(&SteadyStateModel::i9_9900k(), "i9-9900K", 0.005);
    }

    #[test]
    fn ryzen_matches_table2() {
        check_against_table2(&SteadyStateModel::ryzen_7700x(), "7700X", 0.005);
    }

    #[test]
    fn i5_matches_table2() {
        check_against_table2(&SteadyStateModel::i5_1035g1(), "i5-1035G1", 0.005);
    }

    #[test]
    fn quadratic_fit_passes_through_anchors() {
        let f = QuadraticFit::through(70.0, -0.072, 97.0, -0.160);
        assert!((f.eval(70.0) - (-0.072)).abs() < 1e-12);
        assert!((f.eval(97.0) - (-0.160)).abs() < 1e-12);
        assert_eq!(f.eval(0.0), 0.0);
    }

    #[test]
    fn efficiency_roughly_doubles_from_70_to_97() {
        // §6.3: "the efficiency approximately doubles when decreasing the
        // voltage offset from −70 mV to −97 mV" — the quadratic at work.
        let m = SteadyStateModel::i9_9900k();
        let e70 = m.response(-70.0).efficiency();
        let e97 = m.response(-97.0).efficiency();
        let ratio = e97 / e70;
        assert!((1.6..2.6).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn response_is_monotone_in_offset() {
        let m = SteadyStateModel::i9_9900k();
        let r = m.sweep(&[0.0, -40.0, -70.0, -97.0]);
        for w in r.windows(2) {
            assert!(w[1].power <= w[0].power, "power must keep falling");
            assert!(w[1].score >= w[0].score, "score must keep rising");
        }
        assert_eq!(r[0].score, 0.0);
        assert_eq!(r[0].power, 0.0);
    }

    #[test]
    fn fig12_power_axis_matches() {
        // Fig. 12: package power falls from ≈93 W to ≈77 W at −97 mV.
        let m = SteadyStateModel::i9_9900k();
        let base = m.response(0.0);
        let r = m.response(-97.0);
        assert!((base.power_w - 93.0).abs() < 2.0, "{:.1} W", base.power_w);
        assert!((r.power_w - 77.0).abs() < 3.0, "{:.1} W", r.power_w);
    }

    #[test]
    #[should_panic(expected = "undervolting only")]
    fn rejects_overvolting() {
        let _ = SteadyStateModel::i9_9900k().response(10.0);
    }
}
