//! The §6.9 security analysis, made executable.
//!
//! The paper's argument is reductionist: SUIT's security equals today's
//! CPUs' because (a) the efficient curve is vendor-qualified for the
//! instruction set with the faultable instructions *removed*, and the
//! hardware forbids selecting it while any of them is enabled (the MSR
//! invariant of `suit-core`); (b) executing a faultable instruction first
//! forces a transition to the conservative curve, which is qualified for
//! *everything*; (c) the hardened 4-cycle `IMUL` has ≥ 33 % timing slack
//! on the efficient curve — more than the offset consumes — so it is no
//! longer faultable there.
//!
//! This module *audits* those claims against the fault model: it executes
//! instruction sequences under a SUIT system and under naive undervolting
//! and counts silent data errors. The SUIT audit must come back clean for
//! every seed, offset and sequence; the naive audit must not (that is the
//! vulnerability Plundervolt exploits).

use suit_core::{CurveSelect, SuitMsrs};
use suit_emu::EmuOperands;
use suit_isa::{FaultableSet, Opcode, Vec128};
use suit_rng::{Rng, SuitRng};

use crate::inject::execute_with_faults;
use crate::vmin::ChipVminModel;

/// Outcome of a security audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Instructions executed.
    pub executed: u64,
    /// Instructions that trapped with `#DO` (and were then executed
    /// safely on the conservative curve).
    pub trapped: u64,
    /// Silent data errors observed — **any non-zero value is a security
    /// failure**.
    pub silent_errors: u64,
}

impl AuditOutcome {
    /// Whether the system survived the audit.
    pub fn is_secure(&self) -> bool {
        self.silent_errors == 0
    }
}

/// How far the SUIT hardening relaxes `IMUL`'s effective margin: one extra
/// pipeline stage gives each stage 4/3 of the period, worth ≈ 220 mV at
/// the top of the curve (§6.9, Fig. 13) — far beyond any evaluated offset.
pub const HARDENED_IMUL_EXTRA_MARGIN_MV: f64 = 220.0;

/// An audit's instruction sequence: pseudo-random instructions drawn
/// from the full opcode set (faultable and not) under a seed. A scenario
/// draws it once and runs every audit over the same sequence; each audit
/// also seeds its fault draws from the sequence's seed.
#[derive(Debug, Clone)]
pub struct AuditSequence {
    seed: u64,
    instructions: Vec<(Opcode, EmuOperands)>,
}

impl AuditSequence {
    /// Draws `len` instructions under `seed`.
    pub fn draw(seed: u64, len: usize) -> Self {
        let mut rng = SuitRng::seed_from_u64(seed);
        let instructions = (0..len)
            .map(|_| {
                let idx = rng.gen_range(0..suit_isa::TABLE1.len());
                let op = suit_isa::TABLE1[idx].opcode;
                let operands = EmuOperands::with_imm(
                    Vec128::from_u128(rng.u128()),
                    Vec128::from_u128(rng.u128()),
                    rng.u8(),
                );
                (op, operands)
            })
            .collect();
        AuditSequence { seed, instructions }
    }
}

/// Audits a **naive undervolt**: the offset is applied and every
/// instruction executes directly — today's overclocking-style undervolting
/// without SUIT. At offsets beyond the instruction margins this produces
/// silent data errors (the Plundervolt scenario).
pub fn audit_naive_undervolt(
    chip: &ChipVminModel,
    core: usize,
    offset_mv: f64,
    seq: &AuditSequence,
) -> AuditOutcome {
    let mut rng = SuitRng::seed_from_u64(seq.seed ^ 0xDEAD);
    let mut out = AuditOutcome {
        executed: 0,
        trapped: 0,
        silent_errors: 0,
    };
    for &(op, operands) in &seq.instructions {
        let (_, faulted) = execute_with_faults(chip, core, op, operands, offset_mv, &mut rng);
        out.executed += 1;
        if faulted {
            out.silent_errors += 1;
        }
    }
    out
}

/// Audits a **SUIT system** at the same offset:
///
/// * the disable-opcode / curve MSRs enforce the §3.2 invariant;
/// * executing a disabled instruction raises `#DO` instead of computing;
/// * the OS switches to the conservative curve (offset 0) and re-executes;
/// * the hardened `IMUL` runs on the efficient curve with its extra
///   220 mV margin.
///
/// Any silent error in the outcome disproves the §6.9 reduction.
pub fn audit_suit_system(
    chip: &ChipVminModel,
    core: usize,
    offset_mv: f64,
    seq: &AuditSequence,
) -> AuditOutcome {
    audit_suit(
        chip,
        core,
        offset_mv,
        seq.seed ^ 0xBEEF,
        seq,
        SuitMsrs::suit_cpu(),
        true,
    )
}

/// Audits a SUIT system **without** the hardened-IMUL option: the
/// vendor-qualified faultable set is all of Table 1, so `IMUL` also
/// traps with `#DO` instead of executing hardened on the efficient
/// curve. This is the "SUIT traps" defence point of the scenario matrix
/// — slower (every `IMUL` pays a curve transition) but equally secure.
pub fn audit_suit_traps_only(
    chip: &ChipVminModel,
    core: usize,
    offset_mv: f64,
    seq: &AuditSequence,
) -> AuditOutcome {
    audit_suit(
        chip,
        core,
        offset_mv,
        seq.seed ^ 0xFACE,
        seq,
        SuitMsrs::new(FaultableSet::table1()),
        false,
    )
}

/// Shared body of the SUIT audits: `msrs` carries the vendor faultable
/// set (what `disable_faultable` disables), `hardened_imul` selects
/// whether `IMUL` executes on the efficient curve with its extra margin.
fn audit_suit(
    chip: &ChipVminModel,
    core: usize,
    offset_mv: f64,
    rng_seed: u64,
    seq: &AuditSequence,
    mut msrs: SuitMsrs,
    hardened_imul: bool,
) -> AuditOutcome {
    let mut rng = SuitRng::seed_from_u64(rng_seed);
    msrs.disable_faultable();
    msrs.write_curve(CurveSelect::Efficient)
        .expect("faultable set is disabled");

    let mut out = AuditOutcome {
        executed: 0,
        trapped: 0,
        silent_errors: 0,
    };
    for &(op, operands) in &seq.instructions {
        assert!(msrs.invariant_holds(), "MSR invariant violated");
        let (effective_offset, trapped) = if msrs.curve() == CurveSelect::Efficient {
            if msrs.is_disabled(op) {
                // #DO: the OS switches to the conservative curve (Listing 1)
                // and the instruction re-executes there at offset 0.
                msrs.write_curve(CurveSelect::Conservative)
                    .expect("always legal");
                msrs.enable_all().expect("legal on conservative");
                (0.0, true)
            } else if hardened_imul && op == Opcode::Imul {
                // Hardened IMUL on the efficient curve: the relaxed
                // critical path absorbs the offset.
                ((offset_mv + HARDENED_IMUL_EXTRA_MARGIN_MV).min(0.0), false)
            } else {
                (offset_mv, false)
            }
        } else {
            // Conservative curve: everything runs at the qualified voltage.
            (0.0, false)
        };

        let (_, faulted) =
            execute_with_faults(chip, core, op, operands, effective_offset, &mut rng);
        out.executed += 1;
        if trapped {
            out.trapped += 1;
        }
        if faulted {
            out.silent_errors += 1;
        }

        // Deadline expiry: occasionally return to the efficient curve (the
        // timer path of §4.1) — the audit must hold across transitions.
        if msrs.curve() == CurveSelect::Conservative && rng.f64() < 0.2 {
            msrs.disable_faultable();
            msrs.write_curve(CurveSelect::Efficient)
                .expect("set disabled");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipVminModel {
        ChipVminModel::sample(2, 12.0, 77)
    }

    #[test]
    fn naive_undervolting_at_97mv_is_not_reliably_safe() {
        // −97 mV is below IMUL's ~100 mV mean margin on many chips; over
        // several chips the naive system must show silent errors — the
        // motivating vulnerability.
        let mut total_errors = 0;
        for seed in 0..10 {
            let chip = ChipVminModel::sample(1, 12.0, seed);
            let out = audit_naive_undervolt(&chip, 0, -130.0, &AuditSequence::draw(seed, 3000));
            total_errors += out.silent_errors;
        }
        assert!(total_errors > 0, "naive undervolting must eventually fault");
    }

    #[test]
    fn suit_is_clean_at_both_evaluated_offsets() {
        for offset in [-70.0, -97.0] {
            for seed in 0..20 {
                let out = audit_suit_system(&chip(), 0, offset, &AuditSequence::draw(seed, 2000));
                assert!(out.is_secure(), "offset {offset}, seed {seed}: {out:?}");
                assert!(out.trapped > 0, "audit must exercise the trap path");
            }
        }
    }

    #[test]
    fn suit_is_clean_even_at_extreme_offsets() {
        // Even −150 mV (deeper than the paper evaluates) stays silent-error
        // free *with traps*, because faultable instructions simply never
        // execute on the efficient curve. (Reliability of non-faultable
        // instructions bounds how deep one may actually go; the MSR design
        // itself never executes a disabled instruction.)
        let out = audit_suit_system(&chip(), 0, -150.0, &AuditSequence::draw(3, 4000));
        assert!(out.is_secure(), "{out:?}");
    }

    #[test]
    fn trapped_instruction_count_is_substantial() {
        let out = audit_suit_system(&chip(), 0, -97.0, &AuditSequence::draw(11, 2000));
        // The sequence draws only Table 1 opcodes; each trap parks the
        // system on the conservative curve for a few instructions, so
        // roughly one in six executions traps.
        assert!(out.trapped > out.executed / 8, "{out:?}");
    }

    #[test]
    fn traps_only_suit_is_clean_and_traps_imul_too() {
        // Structurally, the traps-only vendor set covers all of Table 1,
        // so IMUL is disabled on the efficient curve instead of hardened.
        let mut msrs = SuitMsrs::new(FaultableSet::table1());
        msrs.disable_faultable();
        assert!(msrs.is_disabled(Opcode::Imul));
        for seed in 0..10 {
            let out = audit_suit_traps_only(&chip(), 0, -130.0, &AuditSequence::draw(seed, 2000));
            assert!(out.is_secure(), "seed {seed}: {out:?}");
            assert!(out.trapped > out.executed / 8, "seed {seed}: {out:?}");
        }
    }

    #[test]
    fn hardened_imul_margin_covers_evaluated_offsets() {
        // §6.9: the 4-cycle IMUL gains ≈ 220 mV of margin at the top of
        // the curve — both evaluated offsets are far inside it.
        let margin = HARDENED_IMUL_EXTRA_MARGIN_MV;
        assert!(margin > 97.0 + 70.0, "{margin}");
    }
}
