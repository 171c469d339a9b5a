//! Per-instruction minimum-voltage model with process variation.
//!
//! Every instruction class has a *margin*: how far below the conservative
//! curve's voltage the supply can drop before the instruction's datapath
//! misses timing. §2.3: Murdoch et al. saw `IMUL` fault at −100 mV while
//! everything else survived to −250 mV; Kogler et al. measured up to
//! 60 mV+ spread between faultable instructions and strong per-core
//! variation. The margins here are ordered to reproduce Table 1: `IMUL`
//! has the smallest margin (faults first and in the most core/frequency/
//! offset combinations), `VPADDQ` the largest of the faultable set, and
//! non-faultable instructions sit near the −250 mV horizon.

use suit_isa::Opcode;
use suit_rng::SuitRng;
use suit_trace::gen::standard_normal;

/// Mean undervolt margin (mV below the conservative-curve voltage) at
/// which an opcode starts faulting, ordered per Table 1.
pub fn mean_margin_mv(op: Opcode) -> f64 {
    match op {
        Opcode::Imul => 95.0, // faults first (91.2 % of first faults, §4.2)
        Opcode::Vor => 118.0,
        Opcode::Aesenc => 122.0,
        Opcode::Vxor => 122.0,
        Opcode::Vandn => 130.0,
        Opcode::Vand => 132.0,
        Opcode::Vsqrtpd => 136.0,
        Opcode::Vpclmulqdq => 144.0,
        Opcode::Vpsrad => 152.0,
        Opcode::Vpcmp => 158.0,
        Opcode::Vpmax => 162.0,
        Opcode::Vpaddq => 168.0,
        // Non-faultable instructions: stable down to the ≈−250 mV horizon
        // Murdoch et al. report.
        _ => 245.0,
    }
}

/// Width of the fault-onset region, mV: within this band below the
/// threshold, faults are probabilistic and rare (the "very infrequently"
/// onset of §2.3); below it they are certain.
pub const ONSET_WIDTH_MV: f64 = 12.0;

/// The fault onset both Vmin families share: 0 while the undervolt
/// (`-offset_mv`) is within `margin_mv`, then rising as the square of the
/// depth past the margin over `width_mv`, and 1 from `margin_mv +
/// width_mv` on.
pub(crate) fn onset_probability(margin_mv: f64, offset_mv: f64, width_mv: f64) -> f64 {
    let undervolt = -offset_mv; // positive magnitude
    if undervolt <= margin_mv {
        0.0
    } else if undervolt >= margin_mv + width_mv {
        1.0
    } else {
        let x = (undervolt - margin_mv) / width_mv;
        x * x
    }
}

/// One sampled minimum voltage for (core, opcode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VminSample {
    /// The opcode.
    pub opcode: Opcode,
    /// Margin below the conservative curve at which faults begin, mV.
    pub margin_mv: f64,
}

/// A chip instance: per-core, per-opcode fault margins drawn with process
/// variation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipVminModel {
    cores: Vec<Vec<VminSample>>, // [core][opcode-index]
}

impl ChipVminModel {
    /// Samples a chip with `cores` cores. `sigma_mv` is the per-core
    /// process-variation spread (Kogler et al. imply ~10–20 mV); `seed`
    /// makes the chip reproducible.
    pub fn sample(cores: usize, sigma_mv: f64, seed: u64) -> Self {
        assert!(cores >= 1);
        assert!(sigma_mv >= 0.0);
        let mut rng = SuitRng::seed_from_u64(seed);
        // Chip-wide shift (die-to-die variation).
        let chip_shift: f64 = standard_normal(&mut rng) * sigma_mv * 0.7;
        let cores = (0..cores)
            .map(|_| {
                Opcode::ALL
                    .iter()
                    .map(|&op| {
                        let noise = standard_normal(&mut rng) * sigma_mv;
                        VminSample {
                            opcode: op,
                            margin_mv: (mean_margin_mv(op) + chip_shift + noise).max(20.0),
                        }
                    })
                    .collect()
            })
            .collect();
        ChipVminModel { cores }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The margin (mV) below the conservative curve at which `op` begins
    /// to fault on `core`.
    pub fn margin_mv(&self, core: usize, op: Opcode) -> f64 {
        self.cores[core][op.index()].margin_mv
    }

    /// Probability that a single execution of `op` on `core` produces a
    /// silent data error at `offset_mv` (negative) below the conservative
    /// curve voltage.
    ///
    /// Zero above the onset band, ramping quadratically through it
    /// (matching the "faults very infrequently at first" observation),
    /// and 1 below.
    pub fn fault_probability(&self, core: usize, op: Opcode, offset_mv: f64) -> f64 {
        onset_probability(self.margin_mv(core, op), offset_mv, ONSET_WIDTH_MV)
    }

    /// Whether any execution of `op` at `offset_mv` can fault at all.
    pub fn can_fault(&self, core: usize, op: Opcode, offset_mv: f64) -> bool {
        self.fault_probability(core, op, offset_mv) > 0.0
    }

    /// The deepest safe offset (mV, negative) on `core` when the given
    /// opcodes are *enabled* — the minimum margin over the set.
    pub fn safe_offset_mv<I: IntoIterator<Item = Opcode>>(&self, core: usize, enabled: I) -> f64 {
        let min_margin = enabled
            .into_iter()
            .map(|op| self.margin_mv(core, op))
            .fold(f64::INFINITY, f64::min);
        if min_margin.is_infinite() {
            -250.0
        } else {
            -min_margin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_isa::TABLE1;

    #[test]
    fn mean_margins_follow_table1_order() {
        // More frequently faulting (Table 1) ⇔ smaller margin.
        for w in TABLE1.windows(2) {
            assert!(
                mean_margin_mv(w[0].opcode) <= mean_margin_mv(w[1].opcode),
                "{} vs {}",
                w[0].opcode,
                w[1].opcode
            );
        }
        // Non-faultable instructions sit at the −250 mV horizon.
        assert_eq!(mean_margin_mv(Opcode::Alu), 245.0);
    }

    #[test]
    fn sampling_is_reproducible_and_varies_by_seed() {
        let a = ChipVminModel::sample(4, 15.0, 1);
        let b = ChipVminModel::sample(4, 15.0, 1);
        let c = ChipVminModel::sample(4, 15.0, 2);
        assert_eq!(a.margin_mv(0, Opcode::Imul), b.margin_mv(0, Opcode::Imul));
        assert_ne!(a.margin_mv(0, Opcode::Imul), c.margin_mv(0, Opcode::Imul));
    }

    #[test]
    fn fault_probability_shape() {
        let chip = ChipVminModel::sample(1, 0.0, 7); // no variation
        let m = chip.margin_mv(0, Opcode::Imul);
        assert_eq!(m, 95.0);
        assert_eq!(chip.fault_probability(0, Opcode::Imul, -94.0), 0.0);
        assert_eq!(chip.fault_probability(0, Opcode::Imul, -(m + 20.0)), 1.0);
        let mid = chip.fault_probability(0, Opcode::Imul, -(m + 6.0));
        assert!((0.0..1.0).contains(&mid) && mid > 0.0, "{mid}");
        // Monotone in depth.
        let deeper = chip.fault_probability(0, Opcode::Imul, -(m + 9.0));
        assert!(deeper > mid);
    }

    #[test]
    fn imul_faults_first_on_most_chips() {
        // §4.2: IMUL was the first instruction to fault in 91.2 % of
        // Kogler et al.'s combinations.
        let mut imul_first = 0;
        let total = 200;
        for seed in 0..total {
            let chip = ChipVminModel::sample(1, 12.0, seed);
            let imul = chip.margin_mv(0, Opcode::Imul);
            let others_min = suit_isa::FaultableSet::suit()
                .iter()
                .map(|op| chip.margin_mv(0, op))
                .fold(f64::INFINITY, f64::min);
            if imul < others_min {
                imul_first += 1;
            }
        }
        let frac = imul_first as f64 / total as f64;
        assert!(frac > 0.78, "IMUL first on only {frac:.2} of chips");
    }

    #[test]
    fn safe_offset_tracks_enabled_set() {
        let chip = ChipVminModel::sample(1, 0.0, 3);
        // With everything enabled, IMUL's 95 mV margin binds.
        let all = chip.safe_offset_mv(0, Opcode::ALL);
        assert!((all - (-95.0)).abs() < 1e-9);
        // Disabling the faultable set leaves the −250 mV horizon.
        let none = chip.safe_offset_mv(0, Opcode::ALL.into_iter().filter(|o| !o.is_faultable()));
        assert!((none - (-245.0)).abs() < 1e-9);
        // SUIT's set (faultables disabled, hardened IMUL executes but with
        // relaxed path — not modelled here) checked at the trap level.
        assert!(chip.safe_offset_mv(0, [Opcode::Vpaddq]) < -160.0);
    }

    #[test]
    fn variation_in_requirements_spans_the_paper_range() {
        // Fig. 2: up to 150 mV variation between instructions; §3.1 cites
        // 70 mV average. Our mean spread IMUL → non-faultable is 150 mV.
        let spread = mean_margin_mv(Opcode::Alu) - mean_margin_mv(Opcode::Imul);
        assert!((spread - 150.0).abs() < 1.0);
    }
}
