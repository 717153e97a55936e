//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: [`Strategy`] over ranges, tuples, `prop_map`,
//! `prop::collection::vec` and `prop::option::of`, plus the [`proptest!`],
//! [`prop_assert!`] and [`prop_assert_eq!`] macros. Case generation is
//! seeded and deterministic per test function; there is no shrinking and
//! no input echo — a failing case panics with the underlying assert's own
//! message, and because the per-function stream is deterministic the same
//! case reproduces on every rerun.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng as TestRng;
use rand::{Rng as _, SeedableRng as _};

/// A generator of values for property tests (subset of
/// `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy combinators namespace (subset of `proptest::prelude::prop`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng as _;
        use std::ops::{Range, RangeInclusive};

        /// An inclusive size range for generated collections.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange { lo: r.start, hi: r.end - 1 }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange { lo: *r.start(), hi: *r.end() }
            }
        }

        /// Strategy for `Vec`s whose length is drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = rng.gen_range(self.size.lo..=self.size.hi);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};
        use rand::Rng as _;

        /// Strategy yielding `None` about a quarter of the time and
        /// `Some(inner)` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// Strategy returned by [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.gen_range(0u32..4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }
}

/// Per-test configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Creates the deterministic RNG for one property-test function.
pub fn test_rng(fn_name: &str) -> TestRng {
    // Distinct functions get distinct but reproducible streams.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in fn_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// Asserts a condition inside a property (panics with the message on
/// failure, like upstream's non-persisting mode).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Declares property-test functions (subset of `proptest::proptest!`).
///
/// Each declared function runs its body for every generated case; the
/// optional leading `#![proptest_config(..)]` sets the case count.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr)) => {};
    (@funcs ($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        // Attributes pass through verbatim (callers write `#[test]`, and
        // `#[ignore]`/`#[should_panic]` keep their upstream meaning).
        $(#[$attr])*
        fn $name() {
            use $crate::Strategy as _;
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = (&$strat).generate(&mut rng);)+
                let run = || { $body };
                let _ = case;
                run();
            }
        }
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr) $($rest:tt)+) => {
        compile_error!("proptest! shim: expected `fn name(pat in strategy, ...) { .. }` items");
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop, prop_assert, prop_assert_eq, proptest, Just, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples_generate_in_bounds(
            (a, b) in (1u32..=10, 0.0f64..1.0),
            v in prop::collection::vec(5u64..8, 0..=4),
            o in prop::option::of(1usize..3),
        ) {
            prop_assert!((1..=10).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert!(v.len() <= 4);
            prop_assert!(v.iter().all(|x| (5..8).contains(x)));
            if let Some(x) = o {
                prop_assert!((1..3).contains(&x));
            }
        }

        #[test]
        fn prop_map_applies(x in (1u8..=8).prop_map(|b| b * 2)) {
            prop_assert!(x % 2 == 0 && x <= 16);
        }
    }

    #[test]
    fn deterministic_per_function_name() {
        use crate::Strategy as _;
        let mut a = crate::test_rng("f");
        let mut b = crate::test_rng("f");
        let s = 0u64..1000;
        for _ in 0..10 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
