//! Constant-time bit-sliced AES — the emulation the paper prescribes.
//!
//! §3.4: *"SUIT emulates … AESENC with a side-channel-resilient bit-sliced
//! AES implementation."* This module is that implementation.
//!
//! ## Representation
//!
//! A [`BsState`] holds **four** AES states transposed into eight `u64`
//! bit-planes: bit `16·blk + b` of `planes[i]` is bit `i` of byte `b` of
//! block `blk`. In this form:
//!
//! * `SubBytes` is GF(2⁸) inversion (x²⁵⁴ by an addition chain of
//!   plane-parallel polynomial multiplications) plus a linear affine layer —
//!   only AND/XOR/shift operations, identical work for every input;
//! * `ShiftRows` is a compile-time byte permutation of plane bits;
//! * `MixColumns` is a handful of plane rotations and XORs.
//!
//! There are no secret-indexed table lookups and no secret-dependent
//! branches anywhere on the encryption path.
//!
//! Four blocks is the one batch width: batch callers (the GCM CTR
//! keystream, AES-256's `encrypt_ct_x4`) drain through [`encrypt128_x4`]
//! and [`aesenc4`]. An eight-block `u128`-plane width was measured slower
//! per block than this kernel and removed (DESIGN.md §12).

use super::{encrypt128_with, Aes128Key, SHIFT_ROWS_SRC};
use suit_isa::Vec128;

/// Byte rotation within each column by one row:
/// `new[r + 4c] = old[(r + 1) mod 4 + 4c]`.
const ROT_ROWS_1: [usize; 16] = rot_rows_table();

const fn rot_rows_table() -> [usize; 16] {
    let mut t = [0usize; 16];
    let mut b = 0;
    while b < 16 {
        let r = b % 4;
        let c = b / 4;
        t[b] = (r + 1) % 4 + 4 * c;
        b += 1;
    }
    t
}

/// Bit 0 of each block's 16-bit group.
const LSB: u64 = 0x0001_0001_0001_0001;

/// Applies a byte-index permutation to a plane: output byte position `b`
/// takes the bits of input byte position `src[b]`, simultaneously in all
/// block groups.
fn permute_bytes(plane: u64, src: &[usize; 16]) -> u64 {
    let mut out = 0;
    for (b, &s) in src.iter().enumerate() {
        out |= ((plane >> s) & LSB) << b;
    }
    out
}

fn map_planes(planes: [u64; 8], f: impl Fn(u64) -> u64) -> [u64; 8] {
    let mut out = [0; 8];
    for (o, p) in out.iter_mut().zip(planes) {
        *o = f(p);
    }
    out
}

/// Plane-parallel multiplication by x (`xtime`): shift the bit-planes up
/// by one and reduce by x⁸ + x⁴ + x³ + x + 1.
fn xtime(a: [u64; 8]) -> [u64; 8] {
    [
        a[7],
        a[0] ^ a[7],
        a[1],
        a[2] ^ a[7],
        a[3] ^ a[7],
        a[4],
        a[5],
        a[6],
    ]
}

/// Plane-parallel GF(2⁸) multiplication: schoolbook polynomial product
/// followed by reduction modulo x⁸ + x⁴ + x³ + x + 1.
fn gf_mul(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
    let mut prod = [0u64; 15];
    for i in 0..8 {
        for j in 0..8 {
            prod[i + j] ^= a[i] & b[j];
        }
    }
    // x^k ≡ x^(k-4) + x^(k-5) + x^(k-7) + x^(k-8)  (for k ≥ 8)
    for k in (8..15).rev() {
        let v = prod[k];
        prod[k - 4] ^= v;
        prod[k - 5] ^= v;
        prod[k - 7] ^= v;
        prod[k - 8] ^= v;
    }
    let mut out = [0u64; 8];
    out.copy_from_slice(&prod[..8]);
    out
}

/// Plane-parallel squaring (multiplication with itself; squaring is
/// linear but reusing the multiplier keeps the code small and obviously
/// correct).
fn gf_square(a: [u64; 8]) -> [u64; 8] {
    gf_mul(a, a)
}

/// Plane-parallel GF(2⁸) inversion as a²⁵⁴ (with 0 ↦ 0, as AES
/// requires), using the addition chain 2, 3, 6, 12, 15, 240, 252, 254.
fn gf_inv(a: [u64; 8]) -> [u64; 8] {
    let x2 = gf_square(a);
    let x3 = gf_mul(x2, a);
    let x6 = gf_square(x3);
    let x12 = gf_square(x6);
    let x15 = gf_mul(x12, x3);
    let mut x240 = x15;
    for _ in 0..4 {
        x240 = gf_square(x240);
    }
    let x252 = gf_mul(x240, x12);
    gf_mul(x252, x2)
}

/// Four AES states in `u64` bit-plane representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsState {
    planes: [u64; 8],
}

impl BsState {
    /// Transposes four blocks into bit-plane form.
    pub fn pack(blocks: [Vec128; 4]) -> Self {
        let mut planes = [0u64; 8];
        for (blk, block) in blocks.iter().enumerate() {
            let bytes = block.to_bytes();
            for (b, &byte) in bytes.iter().enumerate() {
                let pos = 16 * blk + b;
                for (i, plane) in planes.iter_mut().enumerate() {
                    *plane |= u64::from((byte >> i) & 1) << pos;
                }
            }
        }
        BsState { planes }
    }

    /// Transposes back to four ordinary blocks.
    pub fn unpack(self) -> [Vec128; 4] {
        let mut blocks = [Vec128::ZERO; 4];
        for (blk, block) in blocks.iter_mut().enumerate() {
            let mut bytes = [0u8; 16];
            for (b, byte) in bytes.iter_mut().enumerate() {
                let pos = 16 * blk + b;
                for (i, plane) in self.planes.iter().enumerate() {
                    *byte |= (((plane >> pos) & 1) as u8) << i;
                }
            }
            *block = Vec128::from_bytes(bytes);
        }
        blocks
    }

    /// XORs a (public) round key into all four blocks.
    pub fn xor_round_key(&mut self, rk: Vec128) {
        let bytes = rk.to_bytes();
        for (b, &byte) in bytes.iter().enumerate() {
            for (i, plane) in self.planes.iter_mut().enumerate() {
                // Broadcast bit i of key byte b to the block groups.
                let bit = u64::from((byte >> i) & 1);
                *plane ^= (bit * LSB) << b;
            }
        }
    }

    /// SubBytes: constant-time bit-parallel GF(2⁸) inversion + affine map.
    pub fn sub_bytes(&mut self) {
        let inv = gf_inv(self.planes);
        // Affine: y_j = x_j ⊕ x_{j-1} ⊕ x_{j-2} ⊕ x_{j-3} ⊕ x_{j-4} ⊕ c_j
        // (indices mod 8), with c = 0x63.
        for (j, o) in self.planes.iter_mut().enumerate() {
            *o = inv[j] ^ inv[(j + 7) % 8] ^ inv[(j + 6) % 8] ^ inv[(j + 5) % 8] ^ inv[(j + 4) % 8];
            if (0x63 >> j) & 1 == 1 {
                *o ^= u64::MAX;
            }
        }
    }

    /// ShiftRows: the byte permutation applied inside every plane.
    pub fn shift_rows(&mut self) {
        self.planes = map_planes(self.planes, |p| permute_bytes(p, &SHIFT_ROWS_SRC));
    }

    /// MixColumns over the planes:
    /// `out = xtime(a ⊕ rot1(a)) ⊕ rot1(a) ⊕ rot2(a) ⊕ rot3(a)`
    /// where `rotₖ` rotates each column's bytes up by k rows.
    pub fn mix_columns(&mut self) {
        let a = self.planes;
        let r1 = map_planes(a, |p| permute_bytes(p, &ROT_ROWS_1));
        let r2 = map_planes(r1, |p| permute_bytes(p, &ROT_ROWS_1));
        let r3 = map_planes(r2, |p| permute_bytes(p, &ROT_ROWS_1));
        let mut t = [0u64; 8];
        for i in 0..8 {
            t[i] = a[i] ^ r1[i];
        }
        let t2 = xtime(t);
        for i in 0..8 {
            self.planes[i] = t2[i] ^ r1[i] ^ r2[i] ^ r3[i];
        }
    }

    /// Raw plane access (for tests and the fault model).
    pub fn planes(&self) -> &[u64; 8] {
        &self.planes
    }
}

/// `AESENC` on four blocks in parallel, constant time.
pub fn aesenc4(states: [Vec128; 4], round_key: Vec128) -> [Vec128; 4] {
    let mut s = BsState::pack(states);
    s.shift_rows();
    s.sub_bytes();
    s.mix_columns();
    s.xor_round_key(round_key);
    s.unpack()
}

/// `AESENCLAST` on four blocks in parallel, constant time.
pub fn aesenclast4(states: [Vec128; 4], round_key: Vec128) -> [Vec128; 4] {
    let mut s = BsState::pack(states);
    s.shift_rows();
    s.sub_bytes();
    s.xor_round_key(round_key);
    s.unpack()
}

/// Single-block `AESENC` (runs the 4-wide kernel with one live lane —
/// exactly what the `#DO` handler does for a lone trapped instruction).
pub fn aesenc(state: Vec128, round_key: Vec128) -> Vec128 {
    aesenc4([state; 4], round_key)[0]
}

/// Single-block `AESENCLAST`.
pub fn aesenclast(state: Vec128, round_key: Vec128) -> Vec128 {
    aesenclast4([state; 4], round_key)[0]
}

/// Full AES-128 block encryption through the bit-sliced round functions.
pub fn encrypt128(key: &Aes128Key, block: Vec128) -> Vec128 {
    encrypt128_with(key, block, aesenc, aesenclast)
}

/// Full AES-128 encryption of four blocks in parallel.
///
/// Packs into bit-plane form **once**, runs all ten rounds on the planes,
/// and unpacks once — the transpose (the expensive part) is amortised
/// over the whole cipher instead of paid per round.
pub fn encrypt128_x4(key: &Aes128Key, blocks: [Vec128; 4]) -> [Vec128; 4] {
    let mut s = BsState::pack(blocks);
    s.xor_round_key(key.round_key(0));
    for r in 1..=9 {
        s.shift_rows();
        s.sub_bytes();
        s.mix_columns();
        s.xor_round_key(key.round_key(r));
    }
    s.shift_rows();
    s.sub_bytes();
    s.xor_round_key(key.round_key(10));
    s.unpack()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference;
    use crate::gf;

    #[test]
    fn pack_unpack_roundtrip() {
        let blocks = [
            Vec128::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
            Vec128::from_u128(0xdead_beef_dead_beef_dead_beef_dead_beef),
            Vec128::ZERO,
            Vec128::ONES,
        ];
        assert_eq!(BsState::pack(blocks).unpack(), blocks);
    }

    #[test]
    fn bitsliced_sbox_matches_arithmetic_sbox() {
        // Put all 256 byte values through the bit-sliced SubBytes, 64 at a
        // time (4 blocks × 16 bytes).
        for chunk in 0..4 {
            let mut blocks = [[0u8; 16]; 4];
            for (blk, block) in blocks.iter_mut().enumerate() {
                for (b, byte) in block.iter_mut().enumerate() {
                    *byte = (chunk * 64 + blk * 16 + b) as u8;
                }
            }
            let mut st = BsState::pack(blocks.map(Vec128::from_bytes));
            st.sub_bytes();
            let out = st.unpack().map(|v| v.to_bytes());
            for blk in 0..4 {
                for b in 0..16 {
                    assert_eq!(out[blk][b], gf::sbox(blocks[blk][b]));
                }
            }
        }
    }

    #[test]
    fn fips197_c1_vector_bitsliced() {
        let key = Aes128Key::expand([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        let pt = Vec128::from_bytes([
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(encrypt128(&key, pt).to_bytes(), expect);
        // The same vector through every lane of the 4-wide path.
        let wide = encrypt128_x4(&key, [pt; 4]);
        for (i, out) in wide.iter().enumerate() {
            assert_eq!(out.to_bytes(), expect, "lane {i}");
        }
    }

    #[test]
    fn aesenc_matches_reference_on_fixed_cases() {
        let cases = [
            (Vec128::ZERO, Vec128::ZERO),
            (Vec128::ONES, Vec128::ZERO),
            (
                Vec128::from_u128(0x0001_0203_0405_0607_0809_0a0b_0c0d_0e0f),
                Vec128::from_u128(0xffee_ddcc_bbaa_9988_7766_5544_3322_1100),
            ),
        ];
        for (state, rk) in cases {
            assert_eq!(aesenc(state, rk), reference::aesenc(state, rk));
            assert_eq!(aesenclast(state, rk), reference::aesenclast(state, rk));
        }
    }

    #[test]
    fn four_lanes_are_independent() {
        let blocks = [
            Vec128::from_u128(1),
            Vec128::from_u128(2),
            Vec128::from_u128(3),
            Vec128::from_u128(4),
        ];
        let rk = Vec128::from_u128(0x1234);
        let out4 = aesenc4(blocks, rk);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(out4[i], reference::aesenc(*b, rk), "lane {i}");
        }
    }

    #[test]
    fn x4_encrypt_matches_single() {
        let key = Aes128Key::expand([0x42; 16]);
        let blocks = [
            Vec128::from_u128(10),
            Vec128::from_u128(20),
            Vec128::from_u128(30),
            Vec128::from_u128(40),
        ];
        let out = encrypt128_x4(&key, blocks);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(out[i], reference::encrypt128(&key, *b), "lane {i}");
        }
    }
}
