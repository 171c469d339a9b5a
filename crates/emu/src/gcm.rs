//! AES-GCM (NIST SP 800-38D) — the cipher the paper's Nginx workload
//! actually runs.
//!
//! §6.2 describes Nginx serving 100 kB files over HTTPS: each request is
//! tens of thousands of `AESENC` rounds (AES-CTR keystream) plus
//! `VPCLMULQDQ` carry-less multiplies (the GHASH authenticator). This
//! module implements the full mode on top of the emulation primitives:
//!
//! * the CTR keystream through the 4-wide bit-sliced kernel of
//!   [`crate::aes`] (constant time), four counter blocks per call;
//! * GHASH two ways — a bit-by-bit reference (`ghash_mul_ref`) and the
//!   production path built on the emulated `VPCLMULQDQ`
//!   ([`ghash_mul_clmul`]), cross-validated against each other and the
//!   NIST vectors.
//!
//! GCM's GF(2¹²⁸) uses *reflected* bit order: the first bit of the block
//! is the polynomial's constant term.

use suit_isa::Vec128;

use crate::aes::{bitsliced, Aes128Key};
use crate::simd::vpclmulqdq;

/// A GCM block as a 128-bit big-endian integer (byte 0 = most significant),
/// the natural orientation for the NIST bit numbering.
fn to_be(v: Vec128) -> u128 {
    u128::from_be_bytes(v.to_bytes())
}

fn from_be(v: u128) -> Vec128 {
    Vec128::from_bytes(v.to_be_bytes())
}

/// GHASH multiplication, bit-serial reference (SP 800-38D algorithm 1).
pub fn ghash_mul_ref(x: Vec128, y: Vec128) -> Vec128 {
    const R: u128 = 0xe1 << 120;
    let x = to_be(x);
    let mut v = to_be(y);
    let mut z: u128 = 0;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    from_be(z)
}

/// Reverses the bits of a 128-bit value.
fn bit_reflect(v: u128) -> u128 {
    let mut out = 0u128;
    for i in 0..128 {
        out |= ((v >> i) & 1) << (127 - i);
    }
    out
}

/// GHASH multiplication through the emulated `VPCLMULQDQ` — the
/// instruction path an AES-GCM implementation takes on real hardware.
///
/// Strategy: reflect both operands into plain polynomial order, do a
/// 128×128→256 carry-less multiply out of four `VPCLMULQDQ` invocations,
/// reduce modulo x¹²⁸ + x⁷ + x² + x + 1, and reflect back.
pub fn ghash_mul_clmul(x: Vec128, y: Vec128) -> Vec128 {
    let a = bit_reflect(to_be(x));
    let b = bit_reflect(to_be(y));
    let av = Vec128::from_u128(a);
    let bv = Vec128::from_u128(b);

    // Schoolbook 128×128 from 64×64 pieces, selecting halves via imm8.
    let lo = vpclmulqdq(av, bv, 0x00).as_u128(); // a_lo ⊗ b_lo
    let hi = vpclmulqdq(av, bv, 0x11).as_u128(); // a_hi ⊗ b_hi
    let mid = vpclmulqdq(av, bv, 0x01).as_u128() ^ vpclmulqdq(av, bv, 0x10).as_u128();

    // 256-bit product in (hi256, lo256).
    let lo256 = lo ^ (mid << 64);
    let hi256 = hi ^ (mid >> 64);

    // Reduce modulo x^128 + x^7 + x^2 + x + 1: fold the high 128 bits
    // twice (each fold multiplies by x^7 + x^2 + x + 1 at the right shift).
    let fold = |h: u128| -> (u128, u128) {
        // h · x^128 ≡ h·x^7 ⊕ h·x^2 ⊕ h·x ⊕ h
        let l = (h << 7) ^ (h << 2) ^ (h << 1) ^ h;
        let c = (h >> (128 - 7)) ^ (h >> (128 - 2)) ^ (h >> (128 - 1));
        (l, c)
    };
    let (l1, c1) = fold(hi256);
    let (l2, c2) = fold(c1);
    debug_assert_eq!(c2, 0, "second fold clears the carry");
    let _ = c2;
    let reduced = lo256 ^ l1 ^ l2;

    from_be(bit_reflect(reduced))
}

/// GHASH over a byte stream with hash key `h` (blocks are zero-padded).
fn ghash(h: Vec128, aad: &[u8], ct: &[u8]) -> Vec128 {
    let mut y = Vec128::ZERO;
    let absorb = |data: &[u8], y: &mut Vec128| {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            *y = ghash_mul_clmul(*y ^ Vec128::from_bytes(block), h);
        }
    };
    absorb(aad, &mut y);
    absorb(ct, &mut y);
    // Length block: 64-bit bit lengths of AAD and ciphertext.
    let mut len_block = [0u8; 16];
    len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
    ghash_mul_clmul(y ^ Vec128::from_bytes(len_block), h)
}

/// The pre-counter block J0 for a 96-bit IV: `IV || 0^31 || 1`.
fn j0_block(iv: &[u8; 12]) -> Vec128 {
    let mut bytes = [0u8; 16];
    bytes[..12].copy_from_slice(iv);
    bytes[15] = 1;
    Vec128::from_bytes(bytes)
}

/// Increments the rightmost 32 bits of a counter block (inc₃₂).
fn inc32(block: Vec128) -> Vec128 {
    let mut bytes = block.to_bytes();
    let ctr = u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]).wrapping_add(1);
    bytes[12..].copy_from_slice(&ctr.to_be_bytes());
    Vec128::from_bytes(bytes)
}

/// AES-128-GCM authenticated encryption.
///
/// `iv` must be the standard 96-bit nonce. Returns `(ciphertext, tag)`.
///
/// ```
/// use suit_emu::aes::Aes128Key;
/// use suit_emu::gcm::{gcm_encrypt, gcm_decrypt};
///
/// let key = Aes128Key::expand(*b"an aes-128 key!!");
/// let (ct, tag) = gcm_encrypt(&key, b"unique nonce", b"hdr", b"hello");
/// let pt = gcm_decrypt(&key, b"unique nonce", b"hdr", &ct, tag).unwrap();
/// assert_eq!(pt, b"hello");
/// ```
pub fn gcm_encrypt(
    key: &Aes128Key,
    iv: &[u8; 12],
    aad: &[u8],
    plaintext: &[u8],
) -> (Vec<u8>, Vec128) {
    let h = bitsliced::encrypt128(key, Vec128::ZERO);
    let j0 = j0_block(iv);

    // CTR keystream starting at inc32(J0).
    let mut ct = Vec::with_capacity(plaintext.len());
    apply_ctr_keystream(key, j0, plaintext, &mut ct);

    let s = ghash(h, aad, &ct);
    let tag = s ^ bitsliced::encrypt128(key, j0);
    (ct, tag)
}

/// XORs the CTR keystream (counters inc32(j0), inc32²(j0), …) over
/// `input`, appending to `out` — batching four counter blocks (64 bytes)
/// per bit-sliced kernel invocation, so one transpose pays for four
/// blocks.
fn apply_ctr_keystream(key: &Aes128Key, j0: Vec128, input: &[u8], out: &mut Vec<u8>) {
    let mut counter = j0;
    for quad in input.chunks(64) {
        let mut ctrs = [Vec128::ZERO; 4];
        for c in &mut ctrs {
            counter = inc32(counter);
            *c = counter;
        }
        let ks = bitsliced::encrypt128_x4(key, ctrs);
        for (i, &byte) in quad.iter().enumerate() {
            out.push(byte ^ ks[i / 16].to_bytes()[i % 16]);
        }
    }
}

/// AES-128-GCM authenticated decryption. Returns the plaintext or `None`
/// on tag mismatch.
pub fn gcm_decrypt(
    key: &Aes128Key,
    iv: &[u8; 12],
    aad: &[u8],
    ciphertext: &[u8],
    tag: Vec128,
) -> Option<Vec<u8>> {
    let h = bitsliced::encrypt128(key, Vec128::ZERO);
    let j0 = j0_block(iv);

    let expected = ghash(h, aad, ciphertext) ^ bitsliced::encrypt128(key, j0);
    // Constant-time comparison (the emulation path must not reintroduce a
    // tag-comparison oracle).
    if (expected ^ tag).count_ones() != 0 {
        return None;
    }

    let mut pt = Vec::with_capacity(ciphertext.len());
    apply_ctr_keystream(key, j0, ciphertext, &mut pt);
    Some(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_key() -> Aes128Key {
        Aes128Key::expand([0u8; 16])
    }

    /// NIST GCM test case 1: zero key, zero IV, empty everything.
    #[test]
    fn nist_test_case_1() {
        let (ct, tag) = gcm_encrypt(&zero_key(), &[0u8; 12], &[], &[]);
        assert!(ct.is_empty());
        assert_eq!(
            tag.to_bytes(),
            [
                0x58, 0xe2, 0xfc, 0xce, 0xfa, 0x7e, 0x30, 0x61, 0x36, 0x7f, 0x1d, 0x57, 0xa4, 0xe7,
                0x45, 0x5a
            ]
        );
    }

    /// NIST GCM test case 2: zero key/IV, one zero plaintext block.
    #[test]
    fn nist_test_case_2() {
        let (ct, tag) = gcm_encrypt(&zero_key(), &[0u8; 12], &[], &[0u8; 16]);
        assert_eq!(
            ct,
            vec![
                0x03, 0x88, 0xda, 0xce, 0x60, 0xb6, 0xa3, 0x92, 0xf3, 0x28, 0xc2, 0xb9, 0x71, 0xb2,
                0xfe, 0x78
            ]
        );
        assert_eq!(
            tag.to_bytes(),
            [
                0xab, 0x6e, 0x47, 0xd4, 0x2c, 0xec, 0x13, 0xbd, 0xf5, 0x3a, 0x67, 0xb2, 0x12, 0x57,
                0xbd, 0xdf
            ]
        );
    }

    #[test]
    fn ghash_clmul_matches_reference() {
        let mut x = Vec128::from_u128(1);
        let mut y = Vec128::from_u128(0x1234_5678_9abc_def0);
        for _ in 0..50 {
            assert_eq!(ghash_mul_clmul(x, y), ghash_mul_ref(x, y));
            // Evolve pseudo-randomly through the field itself.
            x = ghash_mul_ref(x, Vec128::from_u128(0x1b3));
            y = ghash_mul_ref(y, Vec128::from_u128(0x9e3779b9));
        }
    }

    #[test]
    fn ghash_identity_element() {
        // In reflected GCM order, the polynomial "1" is the MSB-first block
        // 0x80000…0.
        let one = from_be(1u128 << 127);
        let x = Vec128::from_u128(0xdead_beef_cafe_f00d);
        assert_eq!(ghash_mul_ref(x, one), x);
        assert_eq!(ghash_mul_clmul(x, one), x);
    }

    #[test]
    fn roundtrip_with_aad_and_partial_blocks() {
        let key = Aes128Key::expand(*b"sixteen byte key");
        let iv = *b"unique-nonce";
        let aad = b"header";
        let msg = b"The quick brown fox jumps over the lazy dog";
        let (ct, tag) = gcm_encrypt(&key, &iv, aad, msg);
        assert_eq!(ct.len(), msg.len());
        assert_ne!(&ct[..], &msg[..]);
        let pt = gcm_decrypt(&key, &iv, aad, &ct, tag).expect("tag verifies");
        assert_eq!(pt, msg);
    }

    #[test]
    fn tampering_is_detected() {
        let key = Aes128Key::expand([7u8; 16]);
        let iv = [9u8; 12];
        let (mut ct, tag) = gcm_encrypt(&key, &iv, b"", b"attack at dawn!!");
        ct[3] ^= 1;
        assert!(gcm_decrypt(&key, &iv, b"", &ct, tag).is_none());
        // Wrong AAD also fails.
        let (ct2, tag2) = gcm_encrypt(&key, &iv, b"a", b"attack at dawn!!");
        assert!(gcm_decrypt(&key, &iv, b"b", &ct2, tag2).is_none());
    }

    #[test]
    fn counter_increment_wraps_32_bits() {
        let mut block = [0u8; 16];
        block[12..].copy_from_slice(&u32::MAX.to_be_bytes());
        block[0] = 0xAA;
        let next = inc32(Vec128::from_bytes(block)).to_bytes();
        assert_eq!(&next[12..], &[0, 0, 0, 0]);
        assert_eq!(next[0], 0xAA, "upper 96 bits untouched");
    }
}
