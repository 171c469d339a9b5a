//! Security invariants (§3.2, §6.9) under randomized inputs.
//!
//! The central theorem, checked across random chips, offsets, sequences
//! and MSR interleavings: **a SUIT system never executes a faultable
//! instruction below its minimum voltage**, hence never produces a silent
//! data error — while naive undervolting demonstrably does.
//!
//! Cases come from explicitly seeded [`SuitRng`] loops, so each run tests
//! the identical inputs and a failure names its iteration.

use suit::core::{CurveSelect, MsrError, SuitMsrs};
use suit::faults::vmin::ChipVminModel;
use suit::faults::{audit_naive_undervolt, audit_suit_system, AuditSequence};
use suit::isa::{FaultableSet, Opcode};
use suit_rng::{Rng, SuitRng};

const CASES: usize = 64;

/// The hardware invariant: no random sequence of MSR writes can reach
/// (efficient curve, any vendor-faultable opcode enabled).
#[test]
fn msr_interleavings_preserve_the_invariant() {
    let mut rng = SuitRng::seed_from_u64(0x5EC_0001);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..60);
        let mut msrs = SuitMsrs::suit_cpu();
        for _ in 0..len {
            // Exercise all four write kinds; errors are allowed (that is
            // the enforcement), state corruption is not.
            let _res: Result<(), MsrError> = match rng.gen_range(0u8..4) {
                0 => msrs.write_curve(CurveSelect::Efficient),
                1 => msrs.write_curve(CurveSelect::Conservative),
                2 => {
                    msrs.disable_faultable();
                    Ok(())
                }
                _ => msrs.enable_all(),
            };
            assert!(msrs.invariant_holds(), "case {case}");
        }
    }
}

/// A `#GP` names the lowest-index vendor-faultable opcode the disable
/// set leaves enabled, for every subset of Table 1 as the disable set;
/// no `#GP` happens exactly when the vendor set is a subset of it.
#[test]
fn a_gp_names_the_lowest_index_faultable_opcode_left_enabled() {
    use suit::isa::TABLE1;

    for faultable in [FaultableSet::suit(), FaultableSet::table1()] {
        for mask in 0u32..1 << TABLE1.len() {
            let disabled: FaultableSet = (0..TABLE1.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| TABLE1[i].opcode)
                .collect();
            let missing = Opcode::ALL
                .into_iter()
                .find(|&op| faultable.contains(op) && !disabled.contains(op));
            assert_eq!(faultable.is_subset(disabled), missing.is_none());

            let mut msrs = SuitMsrs::new(faultable);
            msrs.write_disable(disabled).unwrap();
            let err = msrs.write_curve(CurveSelect::Efficient).err();
            let want = missing.map(|opcode| MsrError::FaultableEnabledOnEfficient { opcode });
            assert_eq!(err, want, "{faultable:?} with {disabled:?} disabled");

            let mut msrs = SuitMsrs::new(faultable);
            msrs.disable_faultable();
            msrs.write_curve(CurveSelect::Efficient).unwrap();
            let err = msrs.write_disable(disabled).err();
            let want = missing.map(|opcode| MsrError::EnableWhileEfficient { opcode });
            assert_eq!(err, want, "{faultable:?} with {disabled:?} disabled");
            assert!(msrs.invariant_holds());
        }
    }
}

/// The end-to-end theorem at the evaluated offsets.
#[test]
fn suit_never_faults_silently() {
    let mut rng = SuitRng::seed_from_u64(0x5EC_0002);
    for case in 0..CASES {
        let seed = rng.gen_range(0u64..500);
        let offset = rng.gen_range(-130.0f64..-60.0);
        let chip = ChipVminModel::sample(2, 12.0, seed);
        let out = audit_suit_system(
            &chip,
            seed as usize % 2,
            offset,
            &AuditSequence::draw(seed, 800),
        );
        assert_eq!(
            out.silent_errors, 0,
            "case {case}: seed {seed}, offset {offset}"
        );
    }
}

/// Depth monotonicity of the attack surface: if naive undervolting is
/// fault-free at a deep offset on a chip, it is fault-free at every
/// shallower offset with the same sequence.
#[test]
fn naive_fault_counts_grow_with_depth() {
    let mut rng = SuitRng::seed_from_u64(0x5EC_0003);
    for case in 0..CASES {
        let seed = rng.gen_range(0u64..100);
        let chip = ChipVminModel::sample(1, 12.0, seed);
        let seq = AuditSequence::draw(seed, 600);
        let shallow = audit_naive_undervolt(&chip, 0, -80.0, &seq).silent_errors;
        let deep = audit_naive_undervolt(&chip, 0, -160.0, &seq).silent_errors;
        assert!(
            deep >= shallow,
            "case {case}: deep {deep} vs shallow {shallow}"
        );
    }
}

/// The fault draw the audits count: no RNG draw when the fault
/// probability is 0, a fault every time it is 1, 1–3 flipped bits, and
/// `execute_with_faults` is the emulated value XOR that same mask.
#[test]
fn fault_mask_is_execute_with_faults_without_the_value() {
    use suit::emu::{emulate, EmuOperands};
    use suit::faults::inject::{execute_with_faults, fault_mask};
    use suit::isa::{Vec128, TABLE1};

    let mut rng = SuitRng::seed_from_u64(0x5EC_0006);
    let mut seen = [0u32; 3]; // p = 0, 0 < p < 1, p = 1
    for case in 0..CASES * 32 {
        let chip = ChipVminModel::sample(
            rng.gen_range(1usize..4),
            rng.gen_range(0.0..20.0),
            rng.u64(),
        );
        let core = rng.gen_range(0..chip.core_count());
        let op = TABLE1[rng.gen_range(0..TABLE1.len())].opcode;
        let offset = rng.gen_range(-250.0f64..0.0);
        let seed = rng.u64();
        let p = chip.fault_probability(core, op, offset);

        let mut draws = SuitRng::seed_from_u64(seed);
        let mask = fault_mask(&chip, core, op, offset, &mut draws);
        if p == 0.0 {
            seen[0] += 1;
            assert_eq!(mask, None, "case {case}");
            assert_eq!(draws, SuitRng::seed_from_u64(seed), "case {case}");
        } else if p == 1.0 {
            seen[2] += 1;
            assert!(mask.is_some(), "case {case}");
        } else {
            seen[1] += 1;
        }
        if let Some(m) = mask {
            assert!((1..=3).contains(&m.count_ones()), "case {case}: {m:#x}");
        }

        let operands = EmuOperands::with_imm(
            Vec128::from_u128(rng.u128()),
            Vec128::from_u128(rng.u128()),
            rng.u8(),
        );
        let mut exec = SuitRng::seed_from_u64(seed);
        let (value, faulted) = execute_with_faults(&chip, core, op, operands, offset, &mut exec);
        let correct = emulate(op, operands).unwrap().value.as_u128();
        assert_eq!(value.as_u128(), correct ^ mask.unwrap_or(0), "case {case}");
        assert_eq!(faulted, mask.is_some(), "case {case}");
        assert_eq!(exec, draws, "case {case}: the two left the stream apart");
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "a probability band went untested: {seen:?}"
    );
}

/// The safe-offset function is consistent with per-opcode margins.
#[test]
fn safe_offset_is_min_margin() {
    let mut rng = SuitRng::seed_from_u64(0x5EC_0004);
    for case in 0..CASES {
        let seed = rng.gen_range(0u64..200);
        let core = rng.gen_range(0usize..2);
        let chip = ChipVminModel::sample(2, 15.0, seed);
        let safe = chip.safe_offset_mv(core, FaultableSet::table1().iter());
        for op in FaultableSet::table1().iter() {
            assert!(
                !chip.can_fault(core, op, safe + 0.5),
                "case {case}: {op} faults above the bound"
            );
        }
        // The bound is tight: *some* opcode faults just below it.
        let any_faults = FaultableSet::table1()
            .iter()
            .any(|op| chip.can_fault(core, op, safe - 1.0));
        assert!(any_faults, "case {case}");
    }
}

/// The §3.4 architectural contract, fuzzed: for *any* program of
/// register-form faultable instructions and any starting register
/// state, running with traps + OS emulation produces bit-identical
/// final state to direct execution.
#[test]
fn trap_emulation_equals_direct_execution() {
    use suit::core::frontend::SuitFrontend;
    use suit::isa::Vec128;

    let mut rng = SuitRng::seed_from_u64(0x5EC_0005);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..40);
        let ops: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..6)).collect();
        let seed = rng.u64();

        // Assemble a random program from register-form encodings.
        let mut prog = Vec::new();
        for op in &ops {
            match op % 6 {
                0 => prog.extend_from_slice(&[0x66, 0x0F, 0x38, 0xDC, 0xC1]), // AESENC xmm0, xmm1
                1 => prog.extend_from_slice(&[0x66, 0x0F, 0xEF, 0xD1]),       // PXOR xmm2, xmm1
                2 => prog.extend_from_slice(&[0x66, 0x0F, 0xEB, 0xC2]),       // POR xmm0, xmm2
                3 => prog.extend_from_slice(&[0x66, 0x0F, 0xD4, 0xCA]),       // PADDQ xmm1, xmm2
                4 => prog.extend_from_slice(&[0x0F, 0xAF, 0xC3]),             // IMUL eax, ebx
                _ => prog.extend_from_slice(&[0x66, 0x0F, 0x3A, 0x44, 0xD9, 0x01]), // PCLMULQDQ xmm3, xmm1, 1
            }
        }

        // Identical random starting state for both runs.
        let seed_state = |f: &mut SuitFrontend| {
            let mut rng = SuitRng::seed_from_u64(seed);
            for x in f.state.xmm.iter_mut() {
                *x = Vec128::from_u128(rng.u128());
            }
            f.state.gpr[0] = rng.u64();
            f.state.gpr[3] = rng.u64();
        };
        let mut direct = SuitFrontend::new();
        seed_state(&mut direct);

        let mut trapped = SuitFrontend::new();
        seed_state(&mut trapped);
        trapped.msrs.disable_faultable();
        trapped
            .msrs
            .write_curve(suit::core::CurveSelect::Efficient)
            .unwrap();

        let a = direct.run_with_emulation_os(&prog).unwrap();
        let b = trapped.run_with_emulation_os(&prog).unwrap();
        assert_eq!(a, b, "case {case}");
        assert_eq!(&direct.state, &trapped.state, "case {case}");
        // Everything except IMUL must have trapped.
        let imuls = ops.iter().filter(|&&o| o % 6 == 4).count() as u64;
        assert_eq!(trapped.emulated, ops.len() as u64 - imuls, "case {case}");
    }
}

#[test]
fn naive_undervolting_faults_somewhere_in_the_population() {
    // Existence (not universality): across a chip population, −130 mV
    // naive undervolting corrupts at least one computation — SUIT's
    // motivating threat.
    let total: u64 = (0..30)
        .map(|seed| {
            let chip = ChipVminModel::sample(1, 12.0, seed);
            audit_naive_undervolt(&chip, 0, -130.0, &AuditSequence::draw(seed, 2_000)).silent_errors
        })
        .sum();
    assert!(total > 0, "the threat model must be non-vacuous");
}

#[test]
fn suit_trap_counts_match_disabled_executions() {
    let chip = ChipVminModel::sample(2, 12.0, 99);
    let out = audit_suit_system(&chip, 0, -97.0, &AuditSequence::draw(123, 5_000));
    assert_eq!(out.executed, 5_000);
    assert!(out.trapped > 0);
    assert!(
        out.trapped < out.executed,
        "conservative dwell must execute some natively"
    );
}

#[test]
fn hardened_imul_is_safe_on_the_efficient_curve() {
    // §6.9: the +1-cycle IMUL gains ~220 mV of slack — every chip in a
    // large sample keeps IMUL safe at −97 mV with that relaxation.
    for seed in 0..300 {
        let chip = ChipVminModel::sample(1, 15.0, seed);
        let margin =
            chip.margin_mv(0, Opcode::Imul) + suit::faults::security::HARDENED_IMUL_EXTRA_MARGIN_MV;
        assert!(margin > 97.0, "seed {seed}: hardened margin {margin}");
    }
}
