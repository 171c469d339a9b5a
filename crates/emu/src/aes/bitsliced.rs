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
//! * packing is two transposes: an 8×8 bit transpose inside each 64-bit
//!   half-block (three delta swaps), then an 8×8 byte transpose across the
//!   eight half-blocks (twelve SWAPMOVEs). Both are involutions, so
//!   unpacking runs them in the opposite order;
//! * `SubBytes` is Boyar and Peralta's S-box circuit
//!   (<https://eprint.iacr.org/2009/191>): 32 AND and 83 XOR/XNOR gates
//!   over whole planes, the affine map included;
//! * `ShiftRows` and `MixColumns`' row rotations are per-row masks and
//!   shifts inside each block's 16-bit group.
//!
//! Every step is an AND, XOR, NOT or shift by a constant: there are no
//! secret-indexed table lookups and no secret-dependent branches anywhere
//! on the encryption path.
//!
//! Four blocks is the one batch width: batch callers (the GCM CTR
//! keystream, AES-256's `encrypt_ct_x4`) drain through [`encrypt128_x4`]
//! and [`aesenc4`]. An eight-block `u128`-plane width was measured slower
//! per block than the `u64` width and removed (DESIGN.md §12).

use super::{encrypt128_with, Aes128Key};
use suit_isa::Vec128;

/// Replicates a 16-bit pattern into all four block groups.
const fn groups(pattern: u64) -> u64 {
    pattern * 0x0001_0001_0001_0001
}

/// Swaps the bits of `x` selected by `mask` with the bits `shift` places
/// above them.
fn delta_swap(x: u64, mask: u64, shift: u32) -> u64 {
    let t = (x ^ (x >> shift)) & mask;
    x ^ t ^ (t << shift)
}

/// Swaps the bits of `b` selected by `mask` with the bits of `a` `shift`
/// places above them (SWAPMOVE).
fn swap_move(a: u64, b: u64, mask: u64, shift: u32) -> (u64, u64) {
    let t = ((a >> shift) ^ b) & mask;
    (a ^ (t << shift), b ^ t)
}

/// Transposes a word as an 8×8 bit matrix: bit `8r + c` ↔ bit `8c + r`.
fn transpose_bits(x: u64) -> u64 {
    let x = delta_swap(x, 0x00aa_00aa_00aa_00aa, 7);
    let x = delta_swap(x, 0x0000_cccc_0000_cccc, 14);
    delta_swap(x, 0x0000_0000_f0f0_f0f0, 28)
}

/// Transposes eight words as an 8×8 byte matrix: byte `i` of word `k` ↔
/// byte `k` of word `i`.
fn transpose_bytes(mut w: [u64; 8]) -> [u64; 8] {
    for (d, mask) in [
        (4, 0x0000_0000_ffff_ffff),
        (2, 0x0000_ffff_0000_ffff),
        (1, 0x00ff_00ff_00ff_00ff),
    ] {
        for k in (0..8).filter(|k| k & d == 0) {
            (w[k], w[k + d]) = swap_move(w[k], w[k + d], mask, 8 * d as u32);
        }
    }
    w
}

/// Rotates each column's four bytes up by `k` rows inside every plane:
/// `new[r + 4c] = old[(r + k) mod 4 + 4c]`.
fn rot_rows(x: u64, k: u32) -> u64 {
    let stay = 0x1111_1111_1111_1111 * ((1 << (4 - k)) - 1);
    ((x >> k) & stay) ^ ((x << (4 - k)) & !stay)
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

/// Four AES states in `u64` bit-plane representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsState {
    planes: [u64; 8],
}

impl BsState {
    /// Transposes four blocks into bit-plane form.
    pub fn pack(blocks: [Vec128; 4]) -> Self {
        let mut w = [0u64; 8];
        for (blk, block) in blocks.iter().enumerate() {
            let [lo, hi] = block.to_u64x2();
            w[2 * blk] = transpose_bits(lo);
            w[2 * blk + 1] = transpose_bits(hi);
        }
        BsState {
            planes: transpose_bytes(w),
        }
    }

    /// Transposes back to four ordinary blocks.
    pub fn unpack(self) -> [Vec128; 4] {
        let w = transpose_bytes(self.planes);
        std::array::from_fn(|blk| {
            Vec128::from_u64x2([transpose_bits(w[2 * blk]), transpose_bits(w[2 * blk + 1])])
        })
    }

    /// XORs a round key into all four blocks. The key is transposed once:
    /// the 8×8 bit transpose of each half leaves bit `i` of every byte in
    /// byte `i`, which is plane `i`'s 16-bit group, broadcast to all four.
    pub fn xor_round_key(&mut self, rk: Vec128) {
        let [lo, hi] = rk.to_u64x2().map(transpose_bits);
        for (i, plane) in self.planes.iter_mut().enumerate() {
            let s = 8 * i as u32;
            let group = ((lo >> s) & 0xff) ^ (((hi >> s) & 0xff) << 8);
            let pair = group ^ (group << 16);
            *plane ^= pair ^ (pair << 32);
        }
    }

    /// SubBytes: Boyar and Peralta's circuit, gate for gate. Their inputs
    /// and outputs number bits from the top (`x0` is bit 7).
    pub fn sub_bytes(&mut self) {
        let [x7, x6, x5, x4, x3, x2, x1, x0] = self.planes;

        // Top linear layer.
        let y14 = x3 ^ x5;
        let y13 = x0 ^ x6;
        let y9 = x0 ^ x3;
        let y8 = x0 ^ x5;
        let t0 = x1 ^ x2;
        let y1 = t0 ^ x7;
        let y4 = y1 ^ x3;
        let y12 = y13 ^ y14;
        let y2 = y1 ^ x0;
        let y5 = y1 ^ x6;
        let y3 = y5 ^ y8;
        let t1 = x4 ^ y12;
        let y15 = t1 ^ x5;
        let y20 = t1 ^ x1;
        let y6 = y15 ^ x7;
        let y10 = y15 ^ t0;
        let y11 = y20 ^ y9;
        let y7 = x7 ^ y11;
        let y17 = y10 ^ y11;
        let y19 = y10 ^ y8;
        let y16 = t0 ^ y11;
        let y21 = y13 ^ y16;
        let y18 = x0 ^ y16;

        // Non-linear middle: inversion in GF(2⁸) via GF(2⁴).
        let t2 = y12 & y15;
        let t3 = y3 & y6;
        let t4 = t3 ^ t2;
        let t5 = y4 & x7;
        let t6 = t5 ^ t2;
        let t7 = y13 & y16;
        let t8 = y5 & y1;
        let t9 = t8 ^ t7;
        let t10 = y2 & y7;
        let t11 = t10 ^ t7;
        let t12 = y9 & y11;
        let t13 = y14 & y17;
        let t14 = t13 ^ t12;
        let t15 = y8 & y10;
        let t16 = t15 ^ t12;
        let t17 = t4 ^ t14;
        let t18 = t6 ^ t16;
        let t19 = t9 ^ t14;
        let t20 = t11 ^ t16;
        let t21 = t17 ^ y20;
        let t22 = t18 ^ y19;
        let t23 = t19 ^ y21;
        let t24 = t20 ^ y18;

        let t25 = t21 ^ t22;
        let t26 = t21 & t23;
        let t27 = t24 ^ t26;
        let t28 = t25 & t27;
        let t29 = t28 ^ t22;
        let t30 = t23 ^ t24;
        let t31 = t22 ^ t26;
        let t32 = t31 & t30;
        let t33 = t32 ^ t24;
        let t34 = t23 ^ t33;
        let t35 = t27 ^ t33;
        let t36 = t24 & t35;
        let t37 = t36 ^ t34;
        let t38 = t27 ^ t36;
        let t39 = t29 & t38;
        let t40 = t25 ^ t39;

        let t41 = t40 ^ t37;
        let t42 = t29 ^ t33;
        let t43 = t29 ^ t40;
        let t44 = t33 ^ t37;
        let t45 = t42 ^ t41;
        let z0 = t44 & y15;
        let z1 = t37 & y6;
        let z2 = t33 & x7;
        let z3 = t43 & y16;
        let z4 = t40 & y1;
        let z5 = t29 & y7;
        let z6 = t42 & y11;
        let z7 = t45 & y17;
        let z8 = t41 & y10;
        let z9 = t44 & y12;
        let z10 = t37 & y3;
        let z11 = t33 & y4;
        let z12 = t43 & y13;
        let z13 = t40 & y5;
        let z14 = t29 & y2;
        let z15 = t42 & y9;
        let z16 = t45 & y14;
        let z17 = t41 & y8;

        // Bottom linear layer, the affine map folded in.
        let t46 = z15 ^ z16;
        let t47 = z10 ^ z11;
        let t48 = z5 ^ z13;
        let t49 = z9 ^ z10;
        let t50 = z2 ^ z12;
        let t51 = z2 ^ z5;
        let t52 = z7 ^ z8;
        let t53 = z0 ^ z3;
        let t54 = z6 ^ z7;
        let t55 = z16 ^ z17;
        let t56 = z12 ^ t48;
        let t57 = t50 ^ t53;
        let t58 = z4 ^ t46;
        let t59 = z3 ^ t54;
        let t60 = t46 ^ t57;
        let t61 = z14 ^ t57;
        let t62 = t52 ^ t58;
        let t63 = t49 ^ t58;
        let t64 = z4 ^ t59;
        let t65 = t61 ^ t62;
        let t66 = z1 ^ t63;
        let s0 = t59 ^ t63;
        let s6 = t56 ^ !t62;
        let s7 = t48 ^ !t60;
        let t67 = t64 ^ t65;
        let s3 = t53 ^ t66;
        let s4 = t51 ^ t66;
        let s5 = t47 ^ t65;
        let s1 = t64 ^ !s3;
        let s2 = t55 ^ !t67;

        self.planes = [s7, s6, s5, s4, s3, s2, s1, s0];
    }

    /// ShiftRows: row `r` of every block rotates left by `r` columns,
    /// `new[r + 4c] = old[r + 4·((c + r) mod 4)]`, which inside a 16-bit
    /// group moves row `r`'s bits down by `4r` places (mod 16).
    pub fn shift_rows(&mut self) {
        for p in &mut self.planes {
            let x = *p;
            *p = (x & groups(0x1111))
                ^ ((x >> 4) & groups(0x0222))
                ^ ((x << 12) & groups(0x2000))
                ^ ((x >> 8) & groups(0x0044))
                ^ ((x << 8) & groups(0x4400))
                ^ ((x >> 12) & groups(0x0008))
                ^ ((x << 4) & groups(0x8880));
        }
    }

    /// MixColumns over the planes: with `t = a ⊕ rot1(a)`,
    /// `out = xtime(t) ⊕ rot1(a) ⊕ rot2(t)`, where `rotₖ` rotates each
    /// column's bytes up by k rows (`rot2(t) = rot2(a) ⊕ rot3(a)`).
    pub fn mix_columns(&mut self) {
        let r1 = self.planes.map(|p| rot_rows(p, 1));
        let t: [u64; 8] = std::array::from_fn(|i| self.planes[i] ^ r1[i]);
        let t2 = xtime(t);
        for (i, p) in self.planes.iter_mut().enumerate() {
            *p = t2[i] ^ r1[i] ^ rot_rows(t[i], 2);
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

    /// A transpose can round-trip and still put bits in the wrong place:
    /// every single set bit, of a block or of a round key, must land where
    /// the module docs say.
    #[test]
    fn planes_follow_the_documented_layout() {
        for blk in 0..4 {
            for b in 0..16 {
                for i in 0..8 {
                    let mut bytes = [[0u8; 16]; 4];
                    bytes[blk][b] = 1 << i;
                    let blocks = bytes.map(Vec128::from_bytes);
                    let st = BsState::pack(blocks);
                    let mut want = [0u64; 8];
                    want[i] = 1 << (16 * blk + b);
                    assert_eq!(st.planes(), &want, "block {blk}, byte {b}, bit {i}");
                    assert_eq!(st.unpack(), blocks, "block {blk}, byte {b}, bit {i}");

                    let mut keyed = BsState::pack([Vec128::ZERO; 4]);
                    keyed.xor_round_key(blocks[blk]);
                    want[i] = groups(1 << b);
                    assert_eq!(keyed.planes(), &want, "key byte {b}, bit {i}");
                }
            }
        }
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
