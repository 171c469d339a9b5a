//! AES primitives for `AESENC` emulation.
//!
//! x86's `AESENC xmm1, xmm2` computes one middle round of AES:
//!
//! ```text
//! state  = ShiftRows(state)
//! state  = SubBytes(state)
//! state  = MixColumns(state)
//! result = state XOR round_key
//! ```
//!
//! and `AESENCLAST` the same without `MixColumns`. The SUIT OS emulates a
//! trapped `AESENC` in software; the paper prescribes a *bit-sliced*
//! implementation so the emulation does not reintroduce the cache
//! side channels AES-NI was designed to remove.
//!
//! Two interchangeable implementations are provided:
//!
//! * [`mod@reference`] — a straightforward table-driven implementation used as
//!   the correctness oracle and as the "fast but leaky" baseline in the
//!   emulation-cost ablation bench.
//! * [`bitsliced`] — the constant-time implementation actually used by the
//!   emulation handler. Two transposes (bits within each half-block, then
//!   bytes across half-blocks) turn four blocks into eight `u64`
//!   bit-planes, and the S-box is Boyar and Peralta's AND/XOR gate
//!   circuit evaluated on whole planes, so all four blocks run in
//!   parallel.
//!
//! The byte layout follows the Intel SDM: byte *i* of the 128-bit operand
//! is the AES state entry at row *i* mod 4, column *i* / 4 (column-major,
//! as in FIPS-197).

pub mod aes256;
pub mod bitsliced;
pub mod decrypt;
pub mod reference;

use crate::gf;
use suit_isa::Vec128;

/// Number of round keys for AES-128 (initial key + 10 rounds).
pub const AES128_ROUND_KEYS: usize = 11;

/// An expanded AES-128 key schedule.
///
/// The schedule is computed with the constant-time arithmetic S-box from
/// [`crate::gf`], so expanding a secret key is itself side-channel
/// resilient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aes128Key {
    round_keys: [Vec128; AES128_ROUND_KEYS],
}

impl Aes128Key {
    /// Expands a 16-byte AES-128 cipher key into 11 round keys (FIPS-197
    /// §5.2).
    pub fn expand(key: [u8; 16]) -> Self {
        // Round constants rcon[i] = x^(i-1) in GF(2^8).
        const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

        let mut w = [[0u8; 4]; 44]; // 44 words of 4 bytes
        for (i, word) in w.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord then SubWord then Rcon.
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = gf::sbox(*b);
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }

        let mut round_keys = [Vec128::ZERO; AES128_ROUND_KEYS];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            let mut bytes = [0u8; 16];
            for c in 0..4 {
                bytes[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            *rk = Vec128::from_bytes(bytes);
        }
        Aes128Key { round_keys }
    }

    /// The round keys, index 0 being the whitening key.
    pub fn round_keys(&self) -> &[Vec128; AES128_ROUND_KEYS] {
        &self.round_keys
    }

    /// Round key `r` (0 ..= 10).
    pub fn round_key(&self, r: usize) -> Vec128 {
        self.round_keys[r]
    }
}

/// The ShiftRows byte permutation: output byte index → input byte index.
///
/// With column-major layout (byte `i` at row `i % 4`, column `i / 4`),
/// row `r` rotates left by `r` columns:
/// `new[r + 4c] = old[r + 4·((c + r) mod 4)]`.
pub const SHIFT_ROWS_SRC: [usize; 16] = shift_rows_table();

const fn shift_rows_table() -> [usize; 16] {
    let mut t = [0usize; 16];
    let mut b = 0;
    while b < 16 {
        let r = b % 4;
        let c = b / 4;
        t[b] = r + 4 * ((c + r) % 4);
        b += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_expansion_fips197_appendix_a() {
        // FIPS-197 Appendix A.1 key: 2b7e151628aed2a6abf7158809cf4f3c.
        let key = Aes128Key::expand([
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        // w[4] = a0fafe17 (first word of round key 1).
        let rk1 = key.round_key(1).to_bytes();
        assert_eq!(&rk1[0..4], &[0xa0, 0xfa, 0xfe, 0x17]);
        // w[43] = b6630ca6 (last word of round key 10).
        let rk10 = key.round_key(10).to_bytes();
        assert_eq!(&rk10[12..16], &[0xb6, 0x63, 0x0c, 0xa6]);
    }

    #[test]
    fn shift_rows_row0_fixed_row1_rotates() {
        // Row 0 is untouched.
        for c in 0..4 {
            assert_eq!(SHIFT_ROWS_SRC[4 * c], 4 * c);
        }
        // Row 1 shifts left by one column: new (1, 0) takes old (1, 1).
        assert_eq!(SHIFT_ROWS_SRC[1], 1 + 4);
        // Row 3 shifts left by three: new (3, 0) takes old (3, 3).
        assert_eq!(SHIFT_ROWS_SRC[3], 3 + 12);
    }

    #[test]
    fn shift_rows_is_a_permutation() {
        let mut seen = [false; 16];
        for &s in &SHIFT_ROWS_SRC {
            assert!(!seen[s]);
            seen[s] = true;
        }
    }
}
