//! Constant-time GF(2⁸) arithmetic and carry-less multiplication.
//!
//! AES's S-box is the multiplicative inverse in GF(2⁸) (modulo the
//! Rijndael polynomial x⁸+x⁴+x³+x+1) followed by an affine transform. The
//! bytewise key schedules, the table-driven reference and the `AESDEC`
//! path compute it here as x²⁵⁴ with an addition chain of constant-time
//! multiplications (the bit-sliced kernel has its own gate circuit), and
//! the `VPCLMULQDQ` emulator needs a 64×64→128-bit carry-less multiply.
//!
//! Everything in this module is branch-free on secret data and performs no
//! data-dependent memory accesses.

/// The Rijndael reduction polynomial x⁸ + x⁴ + x³ + x + 1 (without the x⁸
/// term, as used during byte-wise reduction).
pub const AES_POLY: u8 = 0x1b;

/// Multiplies two elements of GF(2⁸) modulo the Rijndael polynomial, in
/// constant time (no tables, no secret-dependent branches).
pub fn gf_mul(a: u8, b: u8) -> u8 {
    let mut a = a as u32;
    let mut b = b as u32;
    let mut acc = 0u32;
    for _ in 0..8 {
        // Add `a` if the low bit of `b` is set, via a mask.
        acc ^= a & 0u32.wrapping_sub(b & 1);
        b >>= 1;
        // xtime: multiply `a` by x, reducing if bit 7 was set.
        let carry = 0u32.wrapping_sub((a >> 7) & 1);
        a = ((a << 1) & 0xff) ^ (carry & AES_POLY as u32);
    }
    acc as u8
}

/// Squares an element of GF(2⁸) (squaring is linear over GF(2)).
#[inline]
pub fn gf_square(a: u8) -> u8 {
    gf_mul(a, a)
}

/// The multiplicative inverse in GF(2⁸), with `inv(0) = 0` as AES requires.
///
/// Computed as a²⁵⁴ via the addition chain
/// `2, 3, 6, 12, 15, 240, 252, 254`, which costs 11 multiplications and is
/// constant-time because [`gf_mul`] is.
pub fn gf_inv(a: u8) -> u8 {
    let x2 = gf_square(a); // a^2
    let x3 = gf_mul(x2, a); // a^3
    let x6 = gf_square(x3); // a^6
    let x12 = gf_square(x6); // a^12
    let x15 = gf_mul(x12, x3); // a^15
    let mut x240 = x15; // a^240 = (a^15)^16
    for _ in 0..4 {
        x240 = gf_square(x240);
    }
    let x252 = gf_mul(x240, x12); // a^252
    gf_mul(x252, x2) // a^254 = a^-1 (and 0 for a = 0)
}

/// The AES S-box affine transform applied to `x` (which should already be
/// the field inverse): `y = x ⊕ rol(x,1) ⊕ rol(x,2) ⊕ rol(x,3) ⊕ rol(x,4) ⊕ 0x63`.
#[inline]
pub fn sbox_affine(x: u8) -> u8 {
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

/// The AES S-box computed arithmetically (inverse + affine), constant-time.
#[inline]
pub fn sbox(a: u8) -> u8 {
    sbox_affine(gf_inv(a))
}

/// The inverse AES S-box (inverse affine transform, then field inverse).
pub fn inv_sbox(a: u8) -> u8 {
    // Inverse affine: y = rol(x,1) ⊕ rol(x,3) ⊕ rol(x,6) ⊕ 0x05.
    let x = a.rotate_left(1) ^ a.rotate_left(3) ^ a.rotate_left(6) ^ 0x05;
    gf_inv(x)
}

/// Carry-less (polynomial over GF(2)) multiplication of two 64-bit values,
/// producing the full 128-bit product. This is the scalar emulation core of
/// `VPCLMULQDQ`.
///
/// Karatsuba splits it into three 32×32 products (`clmul32`). It is
/// constant-time wherever integer `MUL` is, as it is on x86-64: no
/// branch, no index and no trip count depends on the operands.
pub fn clmul64(a: u64, b: u64) -> u128 {
    let (a0, a1) = (a as u32, (a >> 32) as u32);
    let (b0, b1) = (b as u32, (b >> 32) as u32);
    let lo = clmul32(a0, b0);
    let hi = clmul32(a1, b1);
    let mid = clmul32(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    (u128::from(hi) << 64) ^ (u128::from(mid) << 32) ^ u128::from(lo)
}

/// Bits `≡ k (mod 4)` of a 64-bit word, for `k` = 0..3.
const HOLES: [u64; 4] = [
    0x1111_1111_1111_1111,
    0x2222_2222_2222_2222,
    0x4444_4444_4444_4444,
    0x8888_8888_8888_8888,
];

/// 32×32 → 64-bit carry-less product from integer multiplies over 4-bit
/// holes (BearSSL's `ghash_ctmul` `bmul`). Each operand splits into four
/// classes of every fourth bit. A class holds at most 8 set bits, so every
/// column sum of a class product is at most 8 and stays inside its 4-bit
/// hole: the low bit of each hole is the column's parity, which is the
/// carry-less product bit.
fn clmul32(x: u32, y: u32) -> u64 {
    let x = HOLES.map(|m| u64::from(x) & m);
    let y = HOLES.map(|m| u64::from(y) & m);
    let mut z = 0;
    for (k, mask) in HOLES.into_iter().enumerate() {
        // Class k of the product sums x_i · y_j over i + j ≡ k (mod 4).
        let zk = (x[0] * y[k])
            ^ (x[1] * y[(k + 3) % 4])
            ^ (x[2] * y[(k + 2) % 4])
            ^ (x[3] * y[(k + 1) % 4]);
        z ^= zk & mask;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(1, a), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
    }

    #[test]
    fn mul_is_commutative() {
        for a in (0..=255u8).step_by(7) {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
            }
        }
    }

    #[test]
    fn xtime_known_values() {
        // {57} · {02} = {ae}, {57} · {04} = {47}, {57} · {08} = {8e},
        // {57} · {10} = {07} — the worked example from FIPS-197 §4.2.1.
        assert_eq!(gf_mul(0x57, 0x02), 0xae);
        assert_eq!(gf_mul(0x57, 0x04), 0x47);
        assert_eq!(gf_mul(0x57, 0x08), 0x8e);
        assert_eq!(gf_mul(0x57, 0x10), 0x07);
        // {57} · {13} = {fe} (FIPS-197 example result).
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn inverse_really_inverts() {
        assert_eq!(gf_inv(0), 0);
        for a in 1..=255u8 {
            let inv = gf_inv(a);
            assert_eq!(gf_mul(a, inv), 1, "a = {a:#04x}");
        }
    }

    #[test]
    fn sbox_known_values() {
        assert_eq!(sbox(0x00), 0x63);
        assert_eq!(sbox(0x01), 0x7c);
        // S-box is a permutation.
        let mut seen = [false; 256];
        for a in 0..=255u8 {
            let s = sbox(a) as usize;
            assert!(!seen[s]);
            seen[s] = true;
        }
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for a in 0..=255u8 {
            assert_eq!(inv_sbox(sbox(a)), a, "a = {a:#04x}");
        }
    }

    #[test]
    fn clmul_basics() {
        assert_eq!(clmul64(0, 0xdead_beef), 0);
        assert_eq!(clmul64(1, 0xdead_beef), 0xdead_beef);
        assert_eq!(clmul64(2, 0xdead_beef), 0xdead_beef << 1);
        // (x ⊕ 1)(x ⊕ 1) = x² ⊕ 1 over GF(2).
        assert_eq!(clmul64(0b11, 0b11), 0b101);
        // Top bits spill into the high half.
        assert_eq!(clmul64(1 << 63, 1 << 63), 1u128 << 126);
    }

    #[test]
    fn clmul_distributes_over_xor() {
        let a = 0x0123_4567_89ab_cdef;
        let b = 0xfedc_ba98_7654_3210;
        let c = 0x0f0f_f0f0_aaaa_5555;
        assert_eq!(clmul64(a, b ^ c), clmul64(a, b) ^ clmul64(a, c));
    }
}
