//! P-state timelines for Figs. 5 and 6.
//!
//! Fig. 5 shows an AES burst and SUIT's reaction: the DVFS curve drops to
//! conservative on the first trapped instruction and returns to efficient
//! one deadline after the burst ends. Fig. 6 shows the 𝑓𝑉 sequence on a
//! long burst: frequency falls immediately (`C_f`), the voltage raise
//! lands ~335 µs later (`C_V`, frequency restored), and expiry returns to
//! `E`. This module converts the engine's [`PointChange`] records into
//! (time, frequency, voltage) series.

use suit_hw::{CpuModel, Point, UndervoltLevel};
use suit_isa::SimTime;

use crate::engine::PointChange;

/// One sample of a Fig. 6 style series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FvSample {
    /// Time of the change, µs since simulation start.
    pub t_us: f64,
    /// Core frequency after the change, GHz.
    pub freq_ghz: f64,
    /// Core voltage after the change, mV.
    pub voltage_mv: f64,
    /// The operating point.
    pub point: Point,
}

/// Maps an operating point to its (frequency, voltage) on `cpu` at `level`.
pub fn point_fv(cpu: &CpuModel, level: UndervoltLevel, point: Point) -> (f64, f64) {
    let curve = cpu.curve();
    let f0 = cpu.steady.base_freq_ghz;
    let v0 = curve.voltage_at(f0);
    let offset = level.offset_mv();
    match point {
        // Efficient: nominal-or-boosted frequency at undervolted supply.
        Point::E => {
            let r = cpu.steady.response(offset);
            (f0 * (1.0 + r.freq), v0 + offset)
        }
        // Conservative by frequency: efficient voltage, reduced clock.
        Point::Cf => (curve.max_freq_at_voltage(v0 + offset), v0 + offset),
        // Conservative by voltage: the stock operating point.
        Point::Cv => (f0, v0),
    }
}

/// Converts recorded point changes into a Fig. 6 series.
pub fn fv_series(cpu: &CpuModel, level: UndervoltLevel, changes: &[PointChange]) -> Vec<FvSample> {
    changes
        .iter()
        .map(|c| {
            let (freq_ghz, voltage_mv) = point_fv(cpu, level, c.point);
            FvSample {
                t_us: c.at.since(SimTime::ZERO).as_micros_f64(),
                freq_ghz,
                voltage_mv,
                point: c.point,
            }
        })
        .collect()
}

/// Collapses a change list into the per-point dwell fractions (indexed by
/// [`Point`]), a compact check that a timeline matches the run's state accounting.
pub fn dwell_fractions(changes: &[PointChange], end: SimTime) -> [f64; 3] {
    let mut time = [0.0f64; 3];
    if changes.is_empty() {
        return time;
    }
    // The engine starts at E before the first recorded change.
    let mut last_t = SimTime::ZERO;
    let mut last_p = Point::E;
    for c in changes {
        time[last_p as usize] += c.at.since(last_t).as_secs_f64();
        last_t = c.at;
        last_p = c.point;
    }
    time[last_p as usize] += end.saturating_since(last_t).as_secs_f64();
    let total: f64 = time.iter().sum();
    if total > 0.0 {
        for t in &mut time {
            *t /= total;
        }
    }
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_with_timeline, SimConfig};

    use suit_trace::profile;

    #[test]
    fn point_fv_ordering() {
        let cpu = CpuModel::xeon_4208();
        let lvl = UndervoltLevel::Mv97;
        let (fe, ve) = point_fv(&cpu, lvl, Point::E);
        let (fcf, vcf) = point_fv(&cpu, lvl, Point::Cf);
        let (fcv, vcv) = point_fv(&cpu, lvl, Point::Cv);
        assert!(fe > fcf, "E clocks above C_f");
        assert!(fcv > fcf, "C_V restores the clock");
        assert_eq!(ve, vcf, "E and C_f share the low voltage");
        assert!(vcv > ve, "C_V raises the voltage by the offset");
        assert!((vcv - ve - 97.0).abs() < 1e-9);
    }

    #[test]
    fn nginx_timeline_shows_fig5_pattern() {
        // E → C_f on the AES burst, C_V if it lasts, E after the deadline.
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("Nginx").unwrap();
        let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(300_000_000);
        let (result, changes) = simulate_with_timeline(&cpu, p, &cfg);
        assert!(!changes.is_empty());
        // Changes alternate away from and back to E.
        let points: Vec<Point> = changes.iter().map(|c| c.point).collect();
        assert!(points.contains(&Point::Cf), "bursts must drop to C_f");
        assert!(points.contains(&Point::E), "deadline must restore E");
        // Nginx bursts (≈380 µs) outlive the 335 µs voltage delay → C_V
        // must appear (the Fig. 6 long-burst sequence).
        assert!(points.contains(&Point::Cv), "long bursts reach C_V");
        // Dwell fractions agree with the engine's accounting to a few
        // percent (stall time is attributed to the pre-change point).
        let frac = dwell_fractions(&changes, SimTime::ZERO + result.duration);
        assert!((frac[0] - result.residency()).abs() < 0.08, "{frac:?}");
    }

    #[test]
    fn fv_series_is_time_ordered() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("502.gcc").unwrap();
        let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(300_000_000);
        let (_, changes) = simulate_with_timeline(&cpu, p, &cfg);
        let series = fv_series(&cpu, UndervoltLevel::Mv97, &changes);
        for w in series.windows(2) {
            assert!(w[1].t_us >= w[0].t_us);
        }
    }
}
