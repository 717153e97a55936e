//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds hermetically (no crates.io), so the handful of
//! `rand` APIs it uses resolve to this in-tree implementation: a seeded
//! [`StdRng`](rngs::StdRng) (splitmix64 core) and [`Rng::gen_range`] over integer and
//! float ranges. Determinism per seed is the only contract callers rely
//! on; the streams intentionally do *not* match upstream `rand`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Seedable random number generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Random value generation (subset of `rand::Rng`).
pub trait Rng {
    /// The next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value in `range`.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Ranges that can be sampled (subset of `rand::distributions::uniform`).
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one value from `rng`.
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        self.start() + unit * (self.end() - self.start())
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: splitmix64.
    ///
    /// Fast, full-period over its 64-bit state, and plenty for synthetic
    /// benchmark generation and dither — cryptographic quality is
    /// explicitly a non-goal.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed ^ 0x5DEE_CE66_D6C1_B4A3 }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..=17);
            assert!((3..=17).contains(&v));
            let w = rng.gen_range(5usize..9);
            assert!((5..9).contains(&w));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&v));
            let w = rng.gen_range(0.0f64..=1.0);
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn streams_differ_across_seeds() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
