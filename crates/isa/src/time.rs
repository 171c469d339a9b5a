//! Picosecond-resolution simulation time.
//!
//! The event-based simulator and the hardware delay models deal with
//! quantities spanning nine orders of magnitude: sub-nanosecond clock
//! periods (a 5 GHz cycle is 200 ps) up to multi-second benchmark runs.
//! Using `f64` seconds everywhere would make event ordering fragile, so
//! simulation time is an integer number of picoseconds.
//!
//! `u64` picoseconds overflow after ~213 days of simulated time, far beyond
//! any experiment in this repository.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulation time (picoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picoseconds since the epoch.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulators never observe
    /// time running backwards.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }

    /// Saturating version of [`SimTime::since`]: zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from float seconds, rounding to the nearest
    /// picosecond. Negative or non-finite inputs are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(secs * 1e12))
    }

    /// Creates a duration from float microseconds (the unit the paper
    /// reports nearly all delays in). Clamps like [`from_secs_f64`].
    ///
    /// [`from_secs_f64`]: SimDuration::from_secs_f64
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Duration in float seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Duration in float microseconds (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Whether the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The duration of `cycles` clock cycles at `freq_hz`.
    ///
    /// Computed in integer arithmetic as `cycles * 1e12 / freq_hz` with
    /// 128-bit intermediates, so it is exact for any realistic frequency.
    pub fn from_cycles(cycles: u64, freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "frequency must be positive");
        let ps = (cycles as u128 * 1_000_000_000_000u128) / freq_hz as u128;
        SimDuration(ps as u64)
    }

    /// How many whole clock cycles at `freq_hz` fit in this duration.
    pub fn to_cycles(self, freq_hz: u64) -> u64 {
        assert!(freq_hz > 0, "frequency must be positive");
        ((self.0 as u128 * freq_hz as u128) / 1_000_000_000_000u128) as u64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative float factor, rounding to picoseconds.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be >= 0");
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

/// `x.round() as u64`, without the out-of-line software `round` that
/// `f64::round` builds to on the default x86-64 target. The cast
/// truncates and saturates as the rounded cast does, and the remainder
/// `x - t` is exact: below 2⁵² `t` is within a factor of two of `x` (or
/// zero), and above it `x` is already whole.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} µs", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimDuration::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimDuration::from_millis(1).as_picos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(3), SimDuration::from_nanos(3_000));
    }

    #[test]
    fn float_roundtrip() {
        let d = SimDuration::from_micros_f64(31.5);
        assert_eq!(d.as_picos(), 31_500_000);
        assert!((d.as_micros_f64() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn float_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn cycles_at_5ghz_are_200ps() {
        let d = SimDuration::from_cycles(1, 5_000_000_000);
        assert_eq!(d.as_picos(), 200);
        assert_eq!(d.to_cycles(5_000_000_000), 1);
    }

    #[test]
    fn cycles_roundtrip_large() {
        let f = 3_700_000_000; // 3.7 GHz
        let cycles = 12_345_678_901;
        let d = SimDuration::from_cycles(cycles, f);
        // Rounding down can lose at most one cycle.
        let back = d.to_cycles(f);
        assert!(back == cycles || back == cycles - 1, "{back} vs {cycles}");
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        let u = t + SimDuration::from_micros(5);
        assert_eq!(u.since(t), SimDuration::from_micros(5));
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_backwards_time() {
        let t = SimTime::ZERO + SimDuration::from_micros(1);
        let _ = SimTime::ZERO.since(t);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(31).to_string(), "31.000 µs");
        assert_eq!(SimDuration::from_picos(5).to_string(), "5 ps");
        assert_eq!(SimDuration::from_millis(14).to_string(), "14.000 ms");
    }

    /// Ties, the largest double below ½, the binades where the fraction
    /// bits run out, the saturation edge and random bit patterns of every
    /// sign, magnitude and class all round as `f64::round` does.
    #[test]
    fn rounding_matches_f64_round() {
        let mut state = 0x5eed_0f2a_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2f64.powi(52),
            2f64.powi(52) - 0.5,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            2f64.powi(64) - 2048.0,
            2f64.powi(64) + 4096.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -0.5,
            -1.5,
        ];
        for _ in 0..200_000 {
            let r = next();
            xs.push(f64::from_bits(r));
            // k + ½ over every binade up to 2⁵².
            let k = (r >> 12) >> (r % 52);
            xs.push(k as f64 + 0.5);
            // Non-negative values near the scale the simulator rounds.
            xs.push((r >> 11) as f64 * 2f64.powi(-((r % 64) as i32)));
        }
        for x in xs {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn sum_and_scaling() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
        assert_eq!(total * 2, SimDuration::from_micros(20));
        assert_eq!(total / 5, SimDuration::from_micros(2));
        assert_eq!(total.mul_f64(0.5), SimDuration::from_micros(5));
    }
}
