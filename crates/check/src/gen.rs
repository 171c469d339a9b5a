//! Composable value generators.
//!
//! A [`Gen<T>`] is a pure function from a [`Source`] choice stream to a
//! `T`. All structure — maps, binds, collection loops — lives in the
//! closure; shrinking operates on the underlying choice list, so every
//! combinator is shrink-transparent. Primitives are arranged so that
//! *smaller choices mean simpler values* (zero choices give the range
//! minimum, empty collections, the first alternative), which is what
//! drives shrunk counterexamples toward minimal form.

use std::ops::RangeInclusive;
use std::sync::Arc;

use crate::source::Source;

/// A composable generator: a pure function from a choice stream to `T`.
///
/// Generators are `Send + Sync` (the sampling closure is shared behind
/// an `Arc`), so cloning one is cheap and any thread may sample it, each
/// from its own [`Source`].
pub struct Gen<T> {
    f: Arc<dyn Fn(&mut Source) -> T + Send + Sync>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: self.f.clone() }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw sampling function.
    pub fn new(f: impl Fn(&mut Source) -> T + Send + Sync + 'static) -> Self {
        Gen { f: Arc::new(f) }
    }

    /// Draws one value from `src`.
    pub fn sample(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    /// Applies `f` to every generated value. Shrinks through `f` because
    /// shrinking happens on the choice stream, not on the output.
    pub fn map<U: 'static>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Gen<U> {
        let g = self.clone();
        Gen::new(move |src| f(g.sample(src)))
    }

    /// Monadic bind: the generated value selects the next generator.
    pub fn bind<U: 'static>(&self, f: impl Fn(T) -> Gen<U> + Send + Sync + 'static) -> Gen<U> {
        let g = self.clone();
        Gen::new(move |src| f(g.sample(src)).sample(src))
    }

    /// A vector of up to `max_len` elements, using a continue/stop coin
    /// before each element so that zeroing a single choice truncates the
    /// collection and deleting a choice block drops one element.
    pub fn vec_up_to(&self, max_len: usize) -> Gen<Vec<T>> {
        let g = self.clone();
        Gen::new(move |src| {
            let mut out = Vec::new();
            while out.len() < max_len && src.choice(2) == 1 {
                out.push(g.sample(src));
            }
            out
        })
    }

    /// A vector of exactly `len` elements.
    pub fn vec_of(&self, len: usize) -> Gen<Vec<T>> {
        let g = self.clone();
        Gen::new(move |src| (0..len).map(|_| g.sample(src)).collect())
    }

    /// An array of exactly `N` elements.
    pub fn array<const N: usize>(&self) -> Gen<[T; N]> {
        let g = self.clone();
        Gen::new(move |src| std::array::from_fn(|_| g.sample(src)))
    }
}

/// Always generates a clone of `v` (consumes no choices).
pub fn constant<T: Clone + Send + Sync + 'static>(v: T) -> Gen<T> {
    Gen::new(move |_| v.clone())
}

/// Uniform `u64` in an inclusive range; shrinks toward the range start.
pub fn u64_in(range: RangeInclusive<u64>) -> Gen<u64> {
    let (lo, hi) = (*range.start(), *range.end());
    assert!(lo <= hi, "empty range");
    Gen::new(move |src| {
        if hi - lo == u64::MAX {
            src.word()
        } else {
            lo + src.choice(hi - lo + 1)
        }
    })
}

/// Uniform `usize` in an inclusive range; shrinks toward the start.
pub fn usize_in(range: RangeInclusive<usize>) -> Gen<usize> {
    u64_in(*range.start() as u64..=*range.end() as u64).map(|v| v as usize)
}

/// Uniform `u32` in an inclusive range; shrinks toward the start.
pub fn u32_in(range: RangeInclusive<u32>) -> Gen<u32> {
    u64_in(u64::from(*range.start())..=u64::from(*range.end())).map(|v| v as u32)
}

/// Any `u64` (shrinks toward 0).
pub fn u64_any() -> Gen<u64> {
    Gen::new(|src| src.word())
}

/// Any `u128` from two words (shrinks toward 0).
pub fn u128_any() -> Gen<u128> {
    Gen::new(|src| (u128::from(src.word()) << 64) | u128::from(src.word()))
}

/// One byte (shrinks toward 0).
pub fn byte() -> Gen<u8> {
    u64_in(0..=255).map(|v| v as u8)
}

/// A byte blob of up to `max_len` bytes.
pub fn bytes_up_to(max_len: usize) -> Gen<Vec<u8>> {
    byte().vec_up_to(max_len)
}

/// A boolean (shrinks toward `false`).
pub fn bool_any() -> Gen<bool> {
    Gen::new(|src| src.choice(2) == 1)
}

/// Uniform `f64` in `[lo, hi)` with 53-bit resolution; shrinks toward
/// `lo`.
pub fn f64_in(lo: f64, hi: f64) -> Gen<f64> {
    assert!(lo < hi, "empty range");
    const BITS: u64 = 1 << 53;
    Gen::new(move |src| lo + (src.choice(BITS) as f64 / BITS as f64) * (hi - lo))
}

/// One element of `items`, cloned; shrinks toward the first element.
pub fn from_slice<T: Clone + Send + Sync + 'static>(items: &[T]) -> Gen<T> {
    let items: Vec<T> = items.to_vec();
    assert!(!items.is_empty(), "empty choice slice");
    Gen::new(move |src| items[src.choice(items.len() as u64) as usize].clone())
}

/// Delegates to one of `gens`; shrinks toward the first alternative.
pub fn one_of<T: 'static>(gens: Vec<Gen<T>>) -> Gen<T> {
    assert!(!gens.is_empty(), "empty alternative list");
    Gen::new(move |src| gens[src.choice(gens.len() as u64) as usize].sample(src))
}

/// A pair drawn from two generators.
pub fn pair<A: 'static, B: 'static>(a: &Gen<A>, b: &Gen<B>) -> Gen<(A, B)> {
    let (a, b) = (a.clone(), b.clone());
    Gen::new(move |src| (a.sample(src), b.sample(src)))
}

/// A triple drawn from three generators.
pub fn triple<A: 'static, B: 'static, C: 'static>(
    a: &Gen<A>,
    b: &Gen<B>,
    c: &Gen<C>,
) -> Gen<(A, B, C)> {
    let (a, b, c) = (a.clone(), b.clone(), c.clone());
    Gen::new(move |src| (a.sample(src), b.sample(src), c.sample(src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take<T: 'static>(gen: &Gen<T>, seed: u64) -> T {
        gen.sample(&mut Source::fresh(seed))
    }

    #[test]
    fn ranges_respect_bounds_and_cover() {
        let g = u64_in(10..=13);
        let mut seen = [false; 4];
        for seed in 0..200 {
            let v = take(&g, seed);
            assert!((10..=13).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn zero_choices_give_minimal_values() {
        let mut src = Source::replay(&[]);
        assert_eq!(u64_in(7..=20).sample(&mut src), 7);
        assert_eq!(bytes_up_to(8).sample(&mut src), Vec::<u8>::new());
        assert!(!bool_any().sample(&mut src));
        assert_eq!(f64_in(-3.0, 5.0).sample(&mut src), -3.0);
        assert_eq!(from_slice(&[5, 6, 7]).sample(&mut src), 5);
    }

    #[test]
    fn map_and_bind_compose() {
        let g = u64_in(0..=9).map(|v| v * 2).bind(|v| u64_in(v..=v + 1));
        for seed in 0..50 {
            let v = take(&g, seed);
            assert!(v <= 19 && (v / 2) * 2 <= v);
        }
    }

    #[test]
    fn vec_up_to_respects_cap() {
        let g = byte().vec_up_to(5);
        for seed in 0..100 {
            assert!(take(&g, seed).len() <= 5);
        }
        // With all-ones coins the vector reaches the cap.
        let mut src = Source::replay(&[1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9]);
        assert_eq!(g.sample(&mut src).len(), 5);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = pair(&u128_any(), &bytes_up_to(16));
        for seed in [0, 1, 0xDEAD] {
            assert_eq!(take(&g, seed), take(&g, seed));
        }
    }

    #[test]
    fn replaying_a_recording_reproduces_the_value() {
        let g = triple(&u64_in(0..=1000), &bytes_up_to(10), &bool_any());
        let mut fresh = Source::fresh(99);
        let v = g.sample(&mut fresh);
        let mut replay = Source::replay(fresh.recorded());
        assert_eq!(g.sample(&mut replay), v);
    }
}
