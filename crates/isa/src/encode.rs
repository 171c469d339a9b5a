//! x86-64 instruction *encoding* for the faultable set — the inverse of
//! [`crate::decode`](mod@crate::decode).
//!
//! The `#DO` security argument needs the decoder to agree with the
//! architectural encodings on every faultable instruction; this module
//! provides the other half of that differential oracle. [`EncodeSpec`]
//! describes one concrete encoding choice (legacy SSE vs VEX, register
//! vs each memory addressing form, immediates), [`EncodeSpec::encode`]
//! emits its bytes, and [`EncodeSpec::expected`] states the [`Decoded`]
//! the decoder must produce for them. The opcode table here is written
//! out independently of `decode`'s `map_opcode` on purpose: a transcription
//! mistake in either table shows up as a round-trip disagreement under
//! fuzzing rather than cancelling out.

use crate::decode::{AesVariant, Decoded};
use crate::opcode::Opcode;

/// One row of the encoder's opcode table: `(map, opcode byte, family,
/// AES variant, has imm8)`. Maps 1/2/3 are `0F`, `0F 38`, `0F 3A`.
pub const SIMD_FORMS: &[(u8, u8, Opcode, Option<AesVariant>, bool)] = &[
    (1, 0xEB, Opcode::Vor, None, false),
    (1, 0xEF, Opcode::Vxor, None, false),
    (1, 0xDB, Opcode::Vand, None, false),
    (1, 0xDF, Opcode::Vandn, None, false),
    (1, 0x51, Opcode::Vsqrtpd, None, false),
    (1, 0xE2, Opcode::Vpsrad, None, false),
    (1, 0x76, Opcode::Vpcmp, None, false), // PCMPEQD
    (1, 0x66, Opcode::Vpcmp, None, false), // PCMPGTD
    (1, 0xDE, Opcode::Vpmax, None, false), // PMAXUB
    (1, 0xD4, Opcode::Vpaddq, None, false),
    (2, 0xDC, Opcode::Aesenc, Some(AesVariant::Enc), false),
    (2, 0xDD, Opcode::Aesenc, Some(AesVariant::EncLast), false),
    (2, 0xDE, Opcode::Aesenc, Some(AesVariant::Dec), false),
    (2, 0xDF, Opcode::Aesenc, Some(AesVariant::DecLast), false),
    (2, 0x3D, Opcode::Vpmax, None, false), // PMAXSD
    (3, 0x44, Opcode::Vpclmulqdq, None, true),
];

/// The ModRM r/m operand of an encoding: a register or one concrete
/// memory addressing form (the decoder only reports *that* a memory
/// operand was used, so each form must still yield the right length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rm {
    /// Register operand (`mod = 3`); 0–15, high half needs REX.B / VEX.B.
    Reg(u8),
    /// `[base]` with `mod = 0`; base must avoid 4 (SIB) and 5 (RIP).
    Base(u8),
    /// `[base + disp8]` (`mod = 1`); base must avoid 4.
    Disp8(u8, u8),
    /// `[base + disp32]` (`mod = 2`); base must avoid 4.
    Disp32(u8, u32),
    /// `[rip + disp32]` (`mod = 0`, `rm = 5`).
    Rip(u32),
    /// `[rsp]` via a SIB byte (`mod = 0`, `rm = 4`, SIB `0x24`).
    Sib,
}

impl Rm {
    /// The register the decoder reports for this operand, if any.
    pub fn reg(self) -> Option<u8> {
        match self {
            Rm::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Appends the ModRM byte (with `reg` in bits 3..6) and any SIB /
    /// displacement bytes.
    fn emit(self, reg_field: u8, out: &mut Vec<u8>) {
        let modrm = |modb: u8, rm: u8| (modb << 6) | ((reg_field & 7) << 3) | (rm & 7);
        match self {
            Rm::Reg(r) => out.push(modrm(3, r)),
            Rm::Base(b) => {
                debug_assert!(b & 7 != 4 && b & 7 != 5);
                out.push(modrm(0, b));
            }
            Rm::Disp8(b, d) => {
                debug_assert!(b & 7 != 4);
                out.push(modrm(1, b));
                out.push(d);
            }
            Rm::Disp32(b, d) => {
                debug_assert!(b & 7 != 4);
                out.push(modrm(2, b));
                out.extend_from_slice(&d.to_le_bytes());
            }
            Rm::Rip(d) => {
                out.push(modrm(0, 5));
                out.extend_from_slice(&d.to_le_bytes());
            }
            Rm::Sib => {
                out.push(modrm(0, 4));
                out.push(0x24); // scale 1, no index, base rsp
            }
        }
    }
}

/// One concrete, valid encoding of a faultable instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeSpec {
    /// A SIMD / AES-class instruction: `form` indexes [`SIMD_FORMS`].
    Simd {
        /// Index into [`SIMD_FORMS`].
        form: usize,
        /// Emit the VEX (3-byte `C4`) form instead of legacy `66 …`.
        vex: bool,
        /// ModRM.reg operand (0–15).
        reg: u8,
        /// ModRM.rm operand.
        rm: Rm,
        /// VEX.vvvv second source (0–15; ignored for legacy forms).
        vvvv: u8,
        /// Trailing immediate (emitted only when the form takes one).
        imm8: u8,
    },
    /// `IMUL r, r/m` (`0F AF`).
    ImulRegRm {
        /// ModRM.reg operand (0–15).
        reg: u8,
        /// ModRM.rm operand.
        rm: Rm,
    },
    /// `IMUL r, r/m, imm8` (`6B`) or `imm32` (`69`).
    ImulImm {
        /// ModRM.reg operand (0–15).
        reg: u8,
        /// ModRM.rm operand.
        rm: Rm,
        /// `Some` → the `6B` imm8 form; `None` → the `69` imm32 form.
        imm8: Option<u8>,
        /// The 32-bit immediate for the `69` form.
        imm32: u32,
    },
    /// One-operand `MUL` (`F7 /4`) or `IMUL` (`F7 /5`).
    MulGroup3 {
        /// `true` → `IMUL` (`/5`); `false` → `MUL` (`/4`).
        signed: bool,
        /// ModRM.rm operand (register must be 0–7: no REX is emitted).
        rm: Rm,
    },
}

impl EncodeSpec {
    /// Emits the instruction bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        match *self {
            EncodeSpec::Simd {
                form,
                vex,
                reg,
                rm,
                vvvv,
                imm8,
            } => {
                let (map, op, _, _, has_imm) = SIMD_FORMS[form];
                if vex {
                    // 3-byte VEX: C4, then inverted R/X/B + map, then
                    // W=0, inverted vvvv, L=0, pp=01 (the 66 class).
                    let b = matches!(rm, Rm::Reg(r) if r >= 8);
                    let p1 = (u8::from(reg < 8) << 7) | (1 << 6) | (u8::from(!b) << 5) | map;
                    let p2 = ((!vvvv & 0xF) << 3) | 0b01;
                    out.extend_from_slice(&[0xC4, p1, p2, op]);
                } else {
                    out.push(0x66);
                    push_rex(reg, rm, &mut out);
                    push_opcode_map(map, op, &mut out);
                }
                rm.emit(reg, &mut out);
                if has_imm {
                    out.push(imm8);
                }
            }
            EncodeSpec::ImulRegRm { reg, rm } => {
                push_rex(reg, rm, &mut out);
                out.extend_from_slice(&[0x0F, 0xAF]);
                rm.emit(reg, &mut out);
            }
            EncodeSpec::ImulImm {
                reg,
                rm,
                imm8,
                imm32,
            } => {
                push_rex(reg, rm, &mut out);
                out.push(if imm8.is_some() { 0x6B } else { 0x69 });
                rm.emit(reg, &mut out);
                match imm8 {
                    Some(v) => out.push(v),
                    None => out.extend_from_slice(&imm32.to_le_bytes()),
                }
            }
            EncodeSpec::MulGroup3 { signed, rm } => {
                out.push(0xF7);
                rm.emit(if signed { 5 } else { 4 }, &mut out);
            }
        }
        out
    }

    /// The [`Decoded`] the decoder must return for [`EncodeSpec::encode`].
    pub fn expected(&self) -> Decoded {
        let length = self.encode().len();
        match *self {
            EncodeSpec::Simd {
                form,
                vex,
                reg,
                rm,
                vvvv,
                imm8,
            } => {
                let (_, _, opcode, aes, has_imm) = SIMD_FORMS[form];
                Decoded {
                    opcode,
                    aes,
                    length,
                    reg,
                    rm_reg: rm.reg(),
                    vvvv: vex.then_some(vvvv),
                    imm8: has_imm.then_some(imm8),
                    vex,
                }
            }
            EncodeSpec::ImulRegRm { reg, rm } => Decoded {
                opcode: Opcode::Imul,
                aes: None,
                length,
                reg,
                rm_reg: rm.reg(),
                vvvv: None,
                imm8: None,
                vex: false,
            },
            EncodeSpec::ImulImm { reg, rm, imm8, .. } => Decoded {
                opcode: Opcode::Imul,
                aes: None,
                length,
                reg,
                rm_reg: rm.reg(),
                vvvv: None,
                imm8,
                vex: false,
            },
            EncodeSpec::MulGroup3 { rm, .. } => Decoded {
                opcode: Opcode::Imul,
                aes: None,
                length,
                reg: 0, // implicit RDX:RAX
                rm_reg: rm.reg(),
                vvvv: None,
                imm8: None,
                vex: false,
            },
        }
    }
}

/// Emits a REX prefix when either operand uses registers 8–15.
fn push_rex(reg: u8, rm: Rm, out: &mut Vec<u8>) {
    let r = reg >= 8;
    let b = matches!(rm, Rm::Reg(x) if x >= 8);
    if r || b {
        out.push(0x40 | (u8::from(r) << 2) | u8::from(b));
    }
}

/// Emits the escape bytes for opcode map 1/2/3 plus the opcode byte.
fn push_opcode_map(map: u8, op: u8, out: &mut Vec<u8>) {
    match map {
        1 => out.extend_from_slice(&[0x0F, op]),
        2 => out.extend_from_slice(&[0x0F, 0x38, op]),
        3 => out.extend_from_slice(&[0x0F, 0x3A, op]),
        _ => unreachable!("opcode map {map}"),
    }
}

/// Re-encodes a [`Decoded`] into one canonical byte form that must
/// decode back to the same semantic fields (opcode, AES variant,
/// operands, immediate, VEX-ness) — the `decode → encode → decode`
/// round-trip oracle. Returns `None` for descriptors no valid encoding
/// produces (e.g. an `Aesenc` without an AES variant).
pub fn reencode(d: &Decoded) -> Option<Vec<u8>> {
    let rm = match d.rm_reg {
        Some(r) => Rm::Reg(r),
        None => Rm::Base(3), // [rbx]: the simplest memory form
    };
    if d.opcode == Opcode::Imul {
        if d.vex || d.vvvv.is_some() || d.aes.is_some() {
            return None;
        }
        let spec = match d.imm8 {
            Some(v) => EncodeSpec::ImulImm {
                reg: d.reg,
                rm,
                imm8: Some(v),
                imm32: 0,
            },
            None => EncodeSpec::ImulRegRm { reg: d.reg, rm },
        };
        return Some(spec.encode());
    }
    let form = SIMD_FORMS
        .iter()
        .position(|&(_, _, opcode, aes, has_imm)| {
            opcode == d.opcode && aes == d.aes && has_imm == d.imm8.is_some()
        })?;
    if d.vex != d.vvvv.is_some() {
        return None;
    }
    Some(
        EncodeSpec::Simd {
            form,
            vex: d.vex,
            reg: d.reg,
            rm,
            vvvv: d.vvvv.unwrap_or(0),
            imm8: d.imm8.unwrap_or(0),
        }
        .encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn simd(form: usize, vex: bool, reg: u8, rm: Rm) -> EncodeSpec {
        EncodeSpec::Simd {
            form,
            vex,
            reg,
            rm,
            vvvv: 1,
            imm8: 0x10,
        }
    }

    #[test]
    fn encodes_the_documented_aesenc_form() {
        // SIMD_FORMS[10] = (2, 0xDC, Aesenc, Enc): 66 0F 38 DC C1.
        let spec = simd(10, false, 0, Rm::Reg(1));
        assert_eq!(spec.encode(), vec![0x66, 0x0F, 0x38, 0xDC, 0xC1]);
    }

    #[test]
    fn every_form_round_trips_through_the_decoder() {
        for form in 0..SIMD_FORMS.len() {
            for vex in [false, true] {
                for rm in [Rm::Reg(2), Rm::Reg(9), Rm::Sib, Rm::Disp8(5, 0x10)] {
                    let spec = simd(form, vex, 11, rm);
                    let bytes = spec.encode();
                    let d = decode(&bytes)
                        .unwrap_or_else(|e| panic!("form {form} vex {vex} {rm:?}: {e}"));
                    assert_eq!(d, spec.expected(), "form {form} vex {vex} {rm:?}");
                }
            }
        }
    }

    #[test]
    fn imul_forms_round_trip() {
        let cases = [
            EncodeSpec::ImulRegRm {
                reg: 3,
                rm: Rm::Reg(12),
            },
            EncodeSpec::ImulImm {
                reg: 0,
                rm: Rm::Rip(0x100),
                imm8: Some(7),
                imm32: 0,
            },
            EncodeSpec::ImulImm {
                reg: 9,
                rm: Rm::Reg(1),
                imm8: None,
                imm32: 0x12345678,
            },
            EncodeSpec::MulGroup3 {
                signed: true,
                rm: Rm::Reg(3),
            },
            EncodeSpec::MulGroup3 {
                signed: false,
                rm: Rm::Disp32(6, 0x40),
            },
        ];
        for spec in cases {
            let d = decode(&spec.encode()).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(d, spec.expected(), "{spec:?}");
        }
    }

    #[test]
    fn reencode_is_a_decode_fixpoint() {
        let bytes = [0xC4u8, 0xE3, 0x71, 0x44, 0xC2, 0x01]; // VPCLMULQDQ
        let d = decode(&bytes).unwrap();
        let re = reencode(&d).expect("valid decode must re-encode");
        let d2 = decode(&re).unwrap();
        assert_eq!(
            (d2.opcode, d2.aes, d2.reg, d2.rm_reg),
            (d.opcode, d.aes, d.reg, d.rm_reg)
        );
        assert_eq!((d2.vvvv, d2.imm8, d2.vex), (d.vvvv, d.imm8, d.vex));
    }
}
