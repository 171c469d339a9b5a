//! Exact batched accumulation: the f64 a run of `n` identical additions
//! ends on, bit for bit, without performing them one at a time.
//!
//! The arena engine's lone-core fast path commits up to tens of
//! thousands of identical quanta at once, and its two running sums
//! (instructions left in the trace, relative energy) must land where the
//! per-event loop's sequential f64 operations would. Under IEEE-754
//! round-to-nearest-even that landing point has a closed form:
//!
//! * **One binade is one integer grid.** Every finite f64 of magnitude in
//!   `[2^e, 2^(e+1)]` is an integer multiple of that binade's ulp, and
//!   adjacent values' bit patterns differ by one (the subnormals extend
//!   the lowest normal binade's grid down to zero). While both rounding
//!   candidates of `x + c` lie on `x`'s grid, the step moves `x`'s bit
//!   pattern by `round(c / ulp)` — the same whole number every time.
//! * **Ties.** When `c / ulp` is exactly `q + ½`, round-half-even picks
//!   the even candidate. From an even start that is always a step of the
//!   even one of `q` and `q + 1`, which keeps `x` even; from an odd start
//!   the first step goes through a real f64 op.
//! * **Fallbacks.** A real f64 op takes every step the grid cannot: the
//!   one that leaves the binade (at the top, or at the bottom, where a
//!   falling `x` lands on the twice-finer grid below), an odd-start tie,
//!   a step that could round to an exact zero (whose sign has its own
//!   rule), a step of at most half an ulp, a zero step and non-finite
//!   operands. A real step that leaves `x` unchanged repeats forever, so
//!   it ends the run.
//!
//! Each loop iteration either jumps to the end of a binade, the step
//! budget or the threshold in integer arithmetic, or takes one real
//! step, and at most a few real steps separate two binades, so the loop
//! runs O(binades crossed) times whatever `n` is. Nothing allocates.
//! `tests/scheduler_properties.rs` compares both entry points bit for
//! bit against the per-step loops they replace. Public only for that
//! property; not part of the supported API.

use std::cmp::Ordering;

const SIGN: u64 = 1 << 63;
const MANT_BITS: u32 = 52;
const FRAC_MASK: u64 = (1 << MANT_BITS) - 1;

/// `x` after `for _ in 0..n { x += c }`, bit for bit.
pub fn add_n(x: f64, c: f64, n: u64) -> f64 {
    // `x <= NaN` is never true, so only `n` ends the run.
    step_while_above(x, c, f64::NAN, n).1
}

/// `(n, y)` after `let mut n = 0; while n < cap && !(y <= w) { y -= s; n += 1 }`,
/// bit for bit for any `s` but NaN (whose sign the negation flips).
pub fn sub_while_above(y: f64, s: f64, w: f64, cap: u64) -> (u64, f64) {
    // IEEE-754 defines `y - s` as `y + (-s)`.
    step_while_above(y, -s, w, cap)
}

/// `x += c` while fewer than `cap` steps are done and `!(x <= w)`, in
/// O(binades crossed) iterations whatever `cap` is.
// The negated comparison is the contract: a NaN keeps the run going, as
// it does in the loops this replaces.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn step_while_above(mut x: f64, c: f64, w: f64, cap: u64) -> (u64, f64) {
    let mut n = 0;
    while n < cap && !(x <= w) {
        if let Some((t, k, outward)) = grid_run(x, c, w) {
            let t = t.min(cap - n);
            let bits = x.to_bits();
            // The magnitude stays inside its binade, so the sign bit is
            // never carried into or borrowed from.
            x = f64::from_bits(if outward { bits + t * k } else { bits - t * k });
            n += t;
            continue;
        }
        let before = x.to_bits();
        x += c;
        n += 1;
        if x.to_bits() == before {
            // The same operands give the same result: every later step
            // leaves `x` where it is, and `x <= w` stays false.
            return (cap, x);
        }
    }
    (n, x)
}

/// The run of steps `x += c` that stays on `x`'s binade grid: `(t, k,
/// outward)`, where each of the next `t ≥ 1` steps moves `x`'s bit
/// pattern by `k ≥ 1` away from zero (`outward`) or toward it, and every
/// step starts from a value above `w`. `None` when the next step needs a
/// real f64 op.
fn grid_run(x: f64, c: f64, w: f64) -> Option<(u64, u64, bool)> {
    if !x.is_finite() || !c.is_finite() || c == 0.0 {
        return None;
    }
    let mag = x.to_bits() & !SIGN;
    let e = mag >> MANT_BITS;
    // Subnormals share the lowest normal binade's ulp, 2^-1074.
    let (q, frac) = ulps(c.abs(), e.max(1) as i32 - 1075)?;
    let k = match frac {
        Ordering::Less => q,
        Ordering::Greater => q + 1,
        // An odd start rounds to the other parity once: a real op.
        Ordering::Equal if mag & 1 == 1 => return None,
        Ordering::Equal => q + (q & 1),
    };
    if k == 0 {
        // `c` rounds away (at most half an ulp): a real op shows whether
        // `x` is stuck.
        return None;
    }
    let outward = x.is_sign_negative() == c.is_sign_negative();
    // Steps whose two rounding candidates, `q` and `q + 1` ulps away,
    // both lie on the grid: up to the binade's top, or down to its
    // bottom but never onto zero.
    let on_grid = if outward {
        let top = (e + 1) << MANT_BITS;
        top.checked_sub(mag + q + 1)? / k + 1
    } else {
        let bottom = (e << MANT_BITS).max(1);
        mag.checked_sub(bottom + q + 1)? / k + 1
    };
    // Steps that start above `w`: only a falling `x` can reach it, and a
    // positive one never reaches a negative `w`. Bit patterns of
    // same-signed values order like their magnitudes.
    let above_w = if c > 0.0 || w.is_nan() || (x > 0.0 && w < 0.0) {
        u64::MAX
    } else {
        (mag.abs_diff(w.abs().to_bits()) - 1) / k + 1
    };
    Some((on_grid.min(above_w), k, outward))
}

/// `m / 2^ue` for finite `m > 0`: its integer part and how its fraction
/// compares with one half. `None` when the quotient is at least 2^53,
/// wider than any binade.
fn ulps(m: f64, ue: i32) -> Option<(u64, Ordering)> {
    let bits = m.to_bits();
    let me = (bits >> MANT_BITS) as i32;
    let sig = (bits & FRAC_MASK) | if me > 0 { 1 << MANT_BITS } else { 0 };
    // m = sig · 2^(max(me, 1) − 1075), so m / 2^ue = sig / 2^shift.
    let shift = ue - (me.max(1) - 1075);
    if shift < 0 {
        // Only a normal `m` (sig ≥ 2^52) can have a coarser unit.
        None
    } else if shift == 0 {
        Some((sig, Ordering::Less))
    } else if shift >= 64 {
        // sig < 2^53 is below half of 2^shift.
        Some((0, Ordering::Less))
    } else {
        let rem = sig & ((1 << shift) - 1);
        Some((sig >> shift, rem.cmp(&(1 << (shift - 1)))))
    }
}
