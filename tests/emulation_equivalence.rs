//! Equivalence of the emulation library under randomized inputs: the
//! bit-sliced AES must match the table-based reference, and every scalar
//! SIMD emulation must match its architectural lane semantics.
//!
//! All differential pairs run through [`suit::check`]'s `check_diff`
//! oracle: a divergence shrinks to a minimal input pair and pins its
//! replay seed in `tests/corpus/`. The final test turns the framework on
//! itself — a deliberately broken AES must produce a byte-identical,
//! standalone-replayable shrink trace (the acceptance bar for "failures
//! are deterministic").

use suit::check::{corpus_dir, gen, gens, Checker};
use suit::emu::aes::{bitsliced, reference, Aes128Key};
use suit::emu::{emulate, gf, simd, EmuOperands};
use suit::isa::{FaultableSet, Opcode, Vec128};

/// A differential checker preconfigured for this suite: 256 cases, or
/// `SUIT_CHECK_CASES` when set (the CI fuzz-smoke dial).
fn diff(name: &str) -> Checker {
    Checker::new(name)
        .cases_from_env_or(256)
        .corpus(corpus_dir!())
}

#[test]
fn bitsliced_aesenc_matches_reference() {
    diff("emu::aesenc").check_diff(
        &gens::vec128_pair(),
        |&(s, k)| bitsliced::aesenc(s, k),
        |&(s, k)| reference::aesenc(s, k),
    );
    diff("emu::aesenclast").check_diff(
        &gens::vec128_pair(),
        |&(s, k)| bitsliced::aesenclast(s, k),
        |&(s, k)| reference::aesenclast(s, k),
    );
}

#[test]
fn bitsliced_full_encryption_matches() {
    diff("emu::encrypt128").check_diff(
        &gen::pair(&gen::u128_any(), &gens::vec128()),
        |&(key, b)| bitsliced::encrypt128(&Aes128Key::expand(key.to_le_bytes()), b),
        |&(key, b)| reference::encrypt128(&Aes128Key::expand(key.to_le_bytes()), b),
    );
}

#[test]
fn four_wide_kernel_lanes_are_independent() {
    diff("emu::aesenc4").check_diff(
        &gen::pair(&gens::vec128().array::<4>(), &gens::vec128()),
        |&(bs, k)| bitsliced::aesenc4(bs, k),
        |&(bs, k)| bs.map(|b| reference::aesenc(b, k)),
    );
}

/// AES-256's last round drains through the 4-wide `AESENCLAST`.
#[test]
fn four_wide_last_round_matches_reference() {
    diff("emu::aesenclast4").check_diff(
        &gen::pair(&gens::vec128().array::<4>(), &gens::vec128()),
        |&(bs, k)| bitsliced::aesenclast4(bs, k),
        |&(bs, k)| bs.map(|b| reference::aesenclast(b, k)),
    );
}

/// The batch path the CTR keystream drains through must agree with the
/// table-based reference lane by lane under random keys and blocks.
#[test]
fn four_wide_encryption_matches_reference() {
    diff("emu::encrypt128_x4").check_diff(
        &gen::pair(&gen::u128_any(), &gens::vec128().array::<4>()),
        |&(key, bs)| bitsliced::encrypt128_x4(&Aes128Key::expand(key.to_le_bytes()), bs),
        |&(key, bs)| bs.map(|b| reference::encrypt128(&Aes128Key::expand(key.to_le_bytes()), b)),
    );
}

#[test]
fn vpaddq_matches_lane_semantics() {
    diff("emu::vpaddq").check_diff(
        &gens::vec128_pair(),
        |&(a, b)| simd::vpaddq(a, b).to_u64x2(),
        |&(a, b)| {
            let (a, b) = (a.to_u64x2(), b.to_u64x2());
            [a[0].wrapping_add(b[0]), a[1].wrapping_add(b[1])]
        },
    );
}

#[test]
fn vpmaxsd_matches_lane_semantics() {
    diff("emu::vpmaxsd").check_diff(
        &gens::vec128_pair(),
        |&(a, b)| simd::vpmaxsd(a, b).to_i32x4(),
        |&(a, b)| {
            let (a, b) = (a.to_i32x4(), b.to_i32x4());
            std::array::from_fn(|i| a[i].max(b[i]))
        },
    );
}

#[test]
fn vpsrad_matches_lane_semantics() {
    diff("emu::vpsrad").check_diff(
        &gen::pair(&gens::vec128(), &gen::byte()),
        |&(a, count)| simd::vpsrad(a, count).to_i32x4(),
        |&(a, count)| {
            let shift = u32::from(count).min(31);
            a.to_i32x4().map(|lane| lane >> shift)
        },
    );
}

#[test]
fn vpcmp_produces_all_or_nothing_masks() {
    // Mix fresh pairs with forced duplicates so the equal path is hit.
    let operands =
        gen::pair(&gens::vec128_pair(), &gen::bool_any())
            .map(|((a, b), dup)| if dup { (a, a) } else { (a, b) });
    diff("emu::vpcmp").check(&operands, |&(a, b)| {
        let eq = simd::vpcmpeqd(a, b).to_u32x4();
        let gt = simd::vpcmpgtd(a, b).to_u32x4();
        let (ai, bi) = (a.to_i32x4(), b.to_i32x4());
        for i in 0..4 {
            if eq[i] != 0 && eq[i] != u32::MAX {
                return Err(format!("lane {i}: partial mask {:#010x}", eq[i]));
            }
            if (eq[i] == u32::MAX) != (ai[i] == bi[i]) {
                return Err(format!("lane {i}: eq mask disagrees"));
            }
            if (gt[i] == u32::MAX) != (ai[i] > bi[i]) {
                return Err(format!("lane {i}: gt mask disagrees"));
            }
        }
        Ok(())
    });
}

#[test]
fn clmul_is_xor_linear() {
    let f = |x: u64, y: u64| {
        simd::vpclmulqdq(Vec128::from_u64x2([x, 0]), Vec128::from_u64x2([y, 0]), 0).as_u128()
    };
    diff("emu::clmul_linear").check(
        &gen::triple(&gen::u64_any(), &gen::u64_any(), &gen::u64_any()),
        move |&(a, b, c)| {
            if f(a, b ^ c) != f(a, b) ^ f(a, c) {
                return Err("carry-less multiply is not XOR-linear".into());
            }
            if f(a, b) != f(b, a) {
                return Err("carry-less multiply is not commutative".into());
            }
            Ok(())
        },
    );
}

/// `clmul_is_xor_linear` passes any XOR-linear map; this pins the product
/// itself against one shifted XOR per set bit, on random operands and on
/// the edges a 32-bit split could get wrong.
#[test]
fn clmul_matches_a_bit_at_a_time_reference() {
    let edges = gen::from_slice(&[
        0,
        1,
        u64::MAX,
        0xffff_ffff,
        0xffff_ffff_0000_0000,
        0x8888_8888_8888_8888,
    ]);
    let high_bit = gen::u32_in(31..=63).map(|i| 1u64 << i);
    let operand = gen::one_of(vec![gen::u64_any(), edges, high_bit]);
    diff("emu::clmul_reference").check_diff(
        &gen::pair(&operand, &operand),
        |&(a, b)| gf::clmul64(a, b),
        |&(a, b)| {
            (0..64)
                .filter(|i| (b >> i) & 1 == 1)
                .fold(0u128, |acc, i| acc ^ (u128::from(a) << i))
        },
    );
}

#[test]
fn vandn_uses_x86_operand_order() {
    diff("emu::vandn").check_diff(
        &gens::vec128_pair(),
        |&(a, b)| simd::vandn(a, b).as_u128(),
        |&(a, b)| !a.as_u128() & b.as_u128(),
    );
}

#[test]
fn vsqrtpd_squares_back() {
    // Positive finite doubles spread over ~300 orders of magnitude.
    let lane = gen::pair(&gen::f64_in(0.0, 1.0), &gen::u32_in(0..=149))
        .map(|(m, e)| m * 10f64.powi(e as i32));
    diff("emu::vsqrtpd").check(&gen::pair(&lane, &lane), |&(l0, l1)| {
        let a = [l0, l1];
        let r = simd::vsqrtpd(Vec128::from_f64x2(a)).to_f64x2();
        for i in 0..2 {
            let back = r[i] * r[i];
            let rel = if a[i] == 0.0 {
                0.0
            } else {
                (back - a[i]).abs() / a[i]
            };
            if rel >= 1e-12 {
                return Err(format!("lane {i}: sqrt({})² = {back}", a[i]));
            }
        }
        Ok(())
    });
}

#[test]
fn imul_emulation_is_a_full_multiplier() {
    diff("emu::imul_full").check_diff(
        &gen::pair(&gen::u64_any(), &gen::u64_any()),
        |&(a, b)| {
            emulate(
                Opcode::Imul,
                EmuOperands::new(Vec128::from_u64x2([a, 0]), Vec128::from_u64x2([b, 0])),
            )
            .unwrap()
            .value
            .as_u128()
        },
        |&(a, b)| u128::from(a) * u128::from(b),
    );
}

#[test]
fn dispatcher_covers_exactly_the_faultable_set() {
    diff("emu::dispatch_coverage").check(&gens::vec128_pair(), |&(a, b)| {
        let ops = EmuOperands::new(a, b);
        for op in Opcode::ALL {
            if emulate(op, ops).is_ok() != FaultableSet::table1().contains(op) {
                return Err(format!("dispatcher disagrees with Table 1 on {op}"));
            }
        }
        Ok(())
    });
}

/// The framework's own acceptance bar: a deliberately broken AES (output
/// bit flipped for a subset of inputs) must (a) be caught, (b) shrink to
/// a byte-identical trace on every run of the same seed, and (c) re-fail
/// standalone from the reported replay seed with the identical result.
#[test]
fn broken_aes_shrinks_deterministically() {
    let broken = |s: Vec128, k: Vec128| {
        let good = bitsliced::aesenc(s, k);
        // The planted bug: inputs whose low state byte has its top bit
        // set take a corrupted path.
        if s.as_u128() & 0x80 != 0 {
            Vec128::from_u128(good.as_u128() ^ 1)
        } else {
            good
        }
    };
    let run = || {
        Checker::new("emu::broken_aes")
            .cases(256)
            .check_report(&gens::vec128_pair(), |&(s, k)| {
                if broken(s, k) == reference::aesenc(s, k) {
                    Ok(())
                } else {
                    Err("bit-sliced output diverges from the reference".into())
                }
            })
            .expect("the planted bug must be caught")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must shrink along a byte-identical trace");
    assert!(!a.trace.is_empty(), "the failure must actually shrink");

    // The reported seed re-fails standalone and re-shrinks identically.
    let replayed = Checker::new("emu::broken_aes")
        .replay(
            &gens::vec128_pair(),
            |&(s, k)| {
                if broken(s, k) == reference::aesenc(s, k) {
                    Ok(())
                } else {
                    Err("bit-sliced output diverges from the reference".into())
                }
            },
            a.seed,
        )
        .expect("the replay seed must re-fail standalone");
    assert_eq!(replayed, a);

    // The minimal counterexample is on the planted-bug boundary: the
    // low byte's top bit set and nothing else required.
    assert!(
        a.minimal_debug.contains("80") || a.minimal_debug.contains("128"),
        "minimal counterexample should isolate the planted bit: {}",
        a.minimal_debug
    );
}
