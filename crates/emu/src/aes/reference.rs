//! Table-driven reference AES (the correctness oracle).
//!
//! This implementation follows FIPS-197 directly: SubBytes through a
//! 256-entry lookup table, ShiftRows as a byte permutation, MixColumns as
//! the usual GF(2⁸) matrix product. It is *not* side-channel resilient —
//! S-box lookups index memory with secret data — which is exactly why the
//! paper's emulation path uses the bit-sliced variant instead. The
//! reference version exists as the oracle the bit-sliced implementation is
//! verified against, and as the baseline in the emulation cost benches.

use super::{Aes128Key, SHIFT_ROWS_SRC};
use crate::gf;
use std::sync::OnceLock;
use suit_isa::Vec128;

/// The AES S-box as a lookup table (computed once from the arithmetic
/// definition, then used with plain indexing).
fn sbox_table() -> &'static [u8; 256] {
    static TABLE: OnceLock<[u8; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u8; 256];
        for (i, e) in t.iter_mut().enumerate() {
            *e = gf::sbox(i as u8);
        }
        t
    })
}

/// SubBytes over all 16 state bytes.
fn sub_bytes(state: [u8; 16]) -> [u8; 16] {
    let sbox = sbox_table();
    let mut out = [0u8; 16];
    for (o, s) in out.iter_mut().zip(state) {
        *o = sbox[s as usize];
    }
    out
}

/// ShiftRows as a byte permutation.
fn shift_rows(state: [u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (b, o) in out.iter_mut().enumerate() {
        *o = state[SHIFT_ROWS_SRC[b]];
    }
    out
}

/// MixColumns over all four columns.
fn mix_columns(state: [u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for c in 0..4 {
        let col = &state[4 * c..4 * c + 4];
        let x2 = |v: u8| gf::gf_mul(v, 2);
        let x3 = |v: u8| gf::gf_mul(v, 3);
        out[4 * c] = x2(col[0]) ^ x3(col[1]) ^ col[2] ^ col[3];
        out[4 * c + 1] = col[0] ^ x2(col[1]) ^ x3(col[2]) ^ col[3];
        out[4 * c + 2] = col[0] ^ col[1] ^ x2(col[2]) ^ x3(col[3]);
        out[4 * c + 3] = x3(col[0]) ^ col[1] ^ col[2] ^ x2(col[3]);
    }
    out
}

/// One middle AES round: exactly the architectural semantics of
/// `AESENC state, round_key`.
pub fn aesenc(state: Vec128, round_key: Vec128) -> Vec128 {
    let s = mix_columns(sub_bytes(shift_rows(state.to_bytes())));
    Vec128::from_bytes(s) ^ round_key
}

/// The final AES round (`AESENCLAST`): like [`aesenc`] but without
/// MixColumns.
pub fn aesenclast(state: Vec128, round_key: Vec128) -> Vec128 {
    let s = sub_bytes(shift_rows(state.to_bytes()));
    Vec128::from_bytes(s) ^ round_key
}

/// Full AES-128 block encryption composed from [`aesenc`]/[`aesenclast`],
/// as AES-NI software does.
pub fn encrypt128(key: &Aes128Key, block: Vec128) -> Vec128 {
    let mut s = block ^ key.round_key(0);
    for r in 1..=9 {
        s = aesenc(s, key.round_key(r));
    }
    aesenclast(s, key.round_key(10))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
    #[test]
    fn fips197_c1_vector() {
        let key = Aes128Key::expand([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        let pt = Vec128::from_bytes([
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        let ct = encrypt128(&key, pt);
        assert_eq!(
            ct.to_bytes(),
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    /// NIST SP 800-38A ECB-AES128 KAT, first block.
    #[test]
    fn sp800_38a_ecb_vector() {
        let key = Aes128Key::expand([
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let pt = Vec128::from_bytes([
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ]);
        let ct = encrypt128(&key, pt);
        assert_eq!(
            ct.to_bytes(),
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97
            ]
        );
    }

    #[test]
    fn aesenc_with_zero_key_is_pure_round() {
        // With a zero round key, AESENC is just the round function; applying
        // it to the zero state gives MixColumns(0x63 everywhere) — every
        // column identical, and rows repeat with the column-major layout.
        let out = aesenc(Vec128::ZERO, Vec128::ZERO).to_bytes();
        for c in 1..4 {
            assert_eq!(out[4 * c..4 * c + 4], out[0..4]);
        }
        // MixColumns of a uniform column [s,s,s,s] gives (2⊕3⊕1⊕1)·s = s.
        assert_eq!(out[0], 0x63);
    }

    #[test]
    fn mix_columns_fixed_point_uniform_column() {
        // A uniform column is a MixColumns fixed point.
        let st = [0xAB; 16];
        assert_eq!(mix_columns(st), st);
    }
}
