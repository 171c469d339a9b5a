//! The paper's Section 5 measurements, as named constants.
//!
//! Every constant cites the paper location it comes from. These are the
//! quantities the paper's own event-based simulator consumes (§6.2: "The
//! simulated CPU behaves as given by the base measurements from
//! Section 5"); our simulator consumes the same ones, which is what makes
//! the hardware substitution sound. Each constant has a reader outside
//! this file (`tests/model_properties.rs` checks it), and the models read
//! these numbers from here rather than typing them again.

/// Voltage-change delay on the Intel Core i9-9900K, in µs (Fig. 8: mean
/// 350 µs, σ = 22, max 379 µs over 20 repetitions).
pub const I9_VOLT_DELAY_US: f64 = 350.0;
/// Standard deviation of [`I9_VOLT_DELAY_US`].
pub const I9_VOLT_DELAY_SIGMA_US: f64 = 22.0;

/// Frequency-change delay on the i9-9900K, in µs (Fig. 9: 22 µs, σ = 0.21,
/// max 24.8 µs). All cores stall for the duration — single clock domain.
pub const I9_FREQ_DELAY_US: f64 = 22.0;
/// Standard deviation of [`I9_FREQ_DELAY_US`].
pub const I9_FREQ_DELAY_SIGMA_US: f64 = 0.21;

/// Frequency-change delay on the AMD Ryzen 7 7700X, in µs (Fig. 10:
/// 668 µs, σ = 292). The core does not stall.
pub const AMD_FREQ_DELAY_US: f64 = 668.0;
/// Standard deviation of [`AMD_FREQ_DELAY_US`].
pub const AMD_FREQ_DELAY_SIGMA_US: f64 = 292.0;

/// Voltage-change delay on the Intel Xeon Silver 4208, in µs (Fig. 11 /
/// §5.2: 335 µs, n = 98).
pub const XEON_VOLT_DELAY_US: f64 = 335.0;
/// Frequency-change delay on the Xeon 4208, in µs (31 µs, during which the
/// core stalls for 27 µs).
pub const XEON_FREQ_DELAY_US: f64 = 31.0;
/// Core stall during the Xeon frequency change, in µs.
pub const XEON_FREQ_STALL_US: f64 = 27.0;

/// `#DO`-style exception entry delay on Intel (i9-9900K), in µs (§5.3,
/// measured with `UD2`: 0.34 µs).
pub const INTEL_EXCEPTION_DELAY_US: f64 = 0.34;
/// Exception entry delay on AMD (7700X), in µs (§5.3: 0.11 µs).
pub const AMD_EXCEPTION_DELAY_US: f64 = 0.11;
/// User-space emulation round trip on Intel, in µs (§5.3: 0.77 µs —
/// exception entry, return to mapped emulation code, re-entry, return).
pub const INTEL_EMULATION_CALL_US: f64 = 0.77;
/// User-space emulation round trip on AMD, in µs (§5.3: 0.27 µs).
pub const AMD_EMULATION_CALL_US: f64 = 0.27;

/// i9-9900K core voltage at 4 GHz, in mV (Fig. 13 / §5.6).
pub const I9_VOLT_AT_4GHZ_MV: f64 = 991.0;
/// i9-9900K core voltage at 5 GHz, in mV (§5.6: 1.174 V).
pub const I9_VOLT_AT_5GHZ_MV: f64 = 1174.0;
/// Gradient of the i9-9900K DVFS curve between 4 and 5 GHz, mV per GHz.
pub const I9_CURVE_GRADIENT_MV_PER_GHZ: f64 = 183.0;

/// Aging guardband of the i9-9900K, in mV (§5.6: 5 GHz · 15 % · 183 mV/GHz).
pub const AGING_GUARDBAND_MV: f64 = 137.0;
/// FinFET propagation-delay degradation over 10 years at >100 °C (§2.2/§5.6).
pub const AGING_DELAY_DEGRADATION_10Y: f64 = 0.15;

/// Max undervolt at 50 °C core temperature on the i9-9900K, mV (Table 3).
pub const MAX_UNDERVOLT_AT_50C_MV: f64 = -90.0;
/// Max undervolt at 88 °C core temperature on the i9-9900K, mV (Table 3).
pub const MAX_UNDERVOLT_AT_88C_MV: f64 = -55.0;

/// The conservative undervolting margin from instruction-voltage variation
/// alone, in mV (§3.1: average 70 mV over the CPUs of Murdoch/Kogler).
pub const INSTR_VARIATION_OFFSET_MV: f64 = -70.0;
/// The combined offset with 20 % of the aging guardband, in mV (§3.1:
/// −70 mV − 0.2 · 137 mV ≈ −97 mV).
pub const COMBINED_OFFSET_MV: f64 = -97.0;

/// One row of Table 2: SPEC CPU2017 score, package power and mean frequency
/// response to an undervolt offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// CPU name as printed in the paper.
    pub cpu: &'static str,
    /// Voltage offset in mV (negative = undervolt).
    pub offset_mv: f64,
    /// SPEC CPU2017 score change, fractional (+0.038 = +3.8 %).
    pub score: f64,
    /// Package power change, fractional.
    pub power: f64,
    /// Mean core frequency change, fractional.
    pub freq: f64,
    /// Efficiency change, fractional (paper: 1 / (Δduration · Δpower)).
    pub efficiency: f64,
}

/// The paper's Table 2 (average SPEC CPU2017 response to undervolting).
pub const TABLE2: [Table2Row; 6] = [
    Table2Row {
        cpu: "i5-1035G1",
        offset_mv: -70.0,
        score: 0.060,
        power: -0.001,
        freq: 0.085,
        efficiency: 0.061,
    },
    Table2Row {
        cpu: "i5-1035G1",
        offset_mv: -97.0,
        score: 0.079,
        power: -0.005,
        freq: 0.120,
        efficiency: 0.084,
    },
    Table2Row {
        cpu: "i9-9900K",
        offset_mv: -70.0,
        score: 0.022,
        power: -0.072,
        freq: 0.026,
        efficiency: 0.100,
    },
    Table2Row {
        cpu: "i9-9900K",
        offset_mv: -97.0,
        score: 0.038,
        power: -0.160,
        freq: 0.033,
        efficiency: 0.230,
    },
    Table2Row {
        cpu: "7700X",
        offset_mv: -70.0,
        score: 0.014,
        power: -0.098,
        freq: 0.018,
        efficiency: 0.120,
    },
    Table2Row {
        cpu: "7700X",
        offset_mv: -97.0,
        score: 0.019,
        power: -0.150,
        freq: 0.018,
        efficiency: 0.200,
    },
];

/// Mean SPEC CPU2017 package power of the i9-9900K at stock voltage, W
/// (Fig. 12, right axis: ≈ 93 W at offset 0).
pub const I9_SPEC_MEAN_POWER_W: f64 = 93.0;
/// Mean SPEC CPU2017 core frequency of the i9-9900K at stock voltage, GHz
/// (Fig. 12: ≈ 4.5 GHz).
pub const I9_SPEC_MEAN_FREQ_GHZ: f64 = 4.5;

/// Operating-strategy parameters of Table 7 for CPUs 𝒜 and 𝒞.
pub mod params_intel {
    /// Deadline p_dl, µs.
    pub const P_DL_US: f64 = 30.0;
    /// Look-back time span p_ts, µs.
    pub const P_TS_US: f64 = 450.0;
    /// Max exception count p_ec within p_ts.
    pub const P_EC: u32 = 3;
    /// Deadline factor p_df applied when thrashing is detected.
    pub const P_DF: f64 = 14.0;
}

/// Operating-strategy parameters of Table 7 for CPU ℬ.
pub mod params_amd {
    /// Deadline p_dl, µs.
    pub const P_DL_US: f64 = 700.0;
    /// Look-back time span p_ts, µs.
    pub const P_TS_US: f64 = 14_000.0;
    /// Max exception count p_ec within p_ts.
    pub const P_EC: u32 = 4;
    /// Deadline factor p_df applied when thrashing is detected.
    pub const P_DF: f64 = 9.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_offset_is_variation_plus_aging_fifth() {
        let combined = INSTR_VARIATION_OFFSET_MV - 0.2 * AGING_GUARDBAND_MV;
        assert!((combined - COMBINED_OFFSET_MV).abs() < 0.5, "{combined}");
    }

    #[test]
    fn aging_guardband_consistency() {
        // §5.6: 5 GHz · 15 % · 183 mV/GHz = 137 mV.
        let gb = 5.0 * AGING_DELAY_DEGRADATION_10Y * I9_CURVE_GRADIENT_MV_PER_GHZ;
        assert!((gb - AGING_GUARDBAND_MV).abs() < 1.0, "{gb}");
    }

    #[test]
    fn i9_curve_gradient_consistency() {
        let grad = I9_VOLT_AT_5GHZ_MV - I9_VOLT_AT_4GHZ_MV;
        assert!((grad - I9_CURVE_GRADIENT_MV_PER_GHZ).abs() < 1.0, "{grad}");
    }

    #[test]
    fn table2_efficiency_is_consistent_with_score_and_power() {
        // Efficiency = 1 / (Δduration · Δpower) − 1
        //            = (1 + score) / (1 + power) − 1.
        for row in TABLE2 {
            let eff = (1.0 + row.score) / (1.0 + row.power) - 1.0;
            // The paper rounds aggressively (two significant digits); allow
            // a generous tolerance.
            assert!(
                (eff - row.efficiency).abs() < 0.02,
                "{} @ {} mV: derived {eff:.3} vs printed {:.3}",
                row.cpu,
                row.offset_mv,
                row.efficiency
            );
        }
    }
}
