//! AES-256 key schedule and block encryption (FIPS-197 §5.2, Nk = 8).
//!
//! TLS 1.3's mandatory `TLS_AES_256_GCM_SHA384` suite means an HTTPS
//! server's trapped `AESENC` instructions run 14-round schedules at least
//! as often as 10-round ones; the emulation library supports both.

use crate::gf;
use suit_isa::Vec128;

use super::{bitsliced, reference};

/// Number of round keys for AES-256 (initial + 14 rounds).
pub const AES256_ROUND_KEYS: usize = 15;

/// An expanded AES-256 key schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aes256Key {
    round_keys: [Vec128; AES256_ROUND_KEYS],
}

impl Aes256Key {
    /// Expands a 32-byte AES-256 cipher key (FIPS-197 §5.2 with Nk = 8:
    /// every 8th word takes RotWord∘SubWord⊕Rcon, and the half-way word
    /// takes SubWord alone).
    pub fn expand(key: [u8; 32]) -> Self {
        const RCON: [u8; 7] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40];
        let mut w = [[0u8; 4]; 60];
        for (i, word) in w.iter_mut().take(8).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 8..60 {
            let mut temp = w[i - 1];
            if i % 8 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = gf::sbox(*b);
                }
                temp[0] ^= RCON[i / 8 - 1];
            } else if i % 8 == 4 {
                for b in &mut temp {
                    *b = gf::sbox(*b);
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - 8][j] ^ temp[j];
            }
        }
        let mut round_keys = [Vec128::ZERO; AES256_ROUND_KEYS];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            let mut bytes = [0u8; 16];
            for c in 0..4 {
                bytes[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            *rk = Vec128::from_bytes(bytes);
        }
        Aes256Key { round_keys }
    }

    /// Round key `r` (0 ..= 14).
    pub fn round_key(&self, r: usize) -> Vec128 {
        self.round_keys[r]
    }

    /// Encrypts one block through the table-based round functions.
    pub fn encrypt(&self, block: Vec128) -> Vec128 {
        let mut s = block ^ self.round_keys[0];
        for r in 1..=13 {
            s = reference::aesenc(s, self.round_keys[r]);
        }
        reference::aesenclast(s, self.round_keys[14])
    }

    /// Encrypts one block through the constant-time bit-sliced rounds —
    /// the side-channel-resilient path the `#DO` handler uses.
    pub fn encrypt_ct(&self, block: Vec128) -> Vec128 {
        let mut s = block ^ self.round_keys[0];
        for r in 1..=13 {
            s = bitsliced::aesenc(s, self.round_keys[r]);
        }
        bitsliced::aesenclast(s, self.round_keys[14])
    }

    /// Encrypts four blocks in parallel through the bit-sliced kernel.
    pub fn encrypt_ct_x4(&self, blocks: [Vec128; 4]) -> [Vec128; 4] {
        let mut s = blocks;
        for b in &mut s {
            *b = *b ^ self.round_keys[0];
        }
        for r in 1..=13 {
            s = bitsliced::aesenc4(s, self.round_keys[r]);
        }
        bitsliced::aesenclast4(s, self.round_keys[14])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.3: AES-256, key 000102…1f,
    /// plaintext 00112233445566778899aabbccddeeff
    /// → ciphertext 8ea2b7ca516745bfeafc49904b496089.
    #[test]
    fn fips197_c3_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let k = Aes256Key::expand(key);
        let pt = Vec128::from_bytes([
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        let expect = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        assert_eq!(k.encrypt(pt).to_bytes(), expect);
        // The same vector through every lane of the 4-wide path.
        for (i, out) in k.encrypt_ct_x4([pt; 4]).iter().enumerate() {
            assert_eq!(out.to_bytes(), expect, "lane {i}");
        }
    }

    #[test]
    fn bitsliced_path_matches_reference() {
        let k = Aes256Key::expand([0x77; 32]);
        for i in 0..20u128 {
            let pt = Vec128::from_u128(i * 0x1111_2222_3333_4444);
            assert_eq!(k.encrypt_ct(pt), k.encrypt(pt), "block {i}");
        }
    }

    #[test]
    fn four_wide_matches_single() {
        let k = Aes256Key::expand([0x11; 32]);
        let blocks = [
            Vec128::from_u128(1),
            Vec128::from_u128(2),
            Vec128::from_u128(3),
            Vec128::from_u128(4),
        ];
        let out = k.encrypt_ct_x4(blocks);
        for i in 0..4 {
            assert_eq!(out[i], k.encrypt(blocks[i]), "lane {i}");
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes256Key::expand([0x00; 32]);
        let b = Aes256Key::expand([0x01; 32]);
        let pt = Vec128::from_u128(42);
        assert_ne!(a.encrypt(pt), b.encrypt(pt));
    }
}
