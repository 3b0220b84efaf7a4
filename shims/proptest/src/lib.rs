//! Offline shim for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait over numeric ranges, [`Just`], tuples,
//! `prop::collection::vec`, [`any`], `prop_oneof!`, and the [`proptest!`]
//! macro with `#![proptest_config(...)]` support.
//!
//! Differences from the real crate, deliberate for offline use:
//!
//! - no shrinking — a failing case reports its inputs and panics as-is;
//! - deterministic seeding per test function (stable across runs), rather
//!   than OS entropy with a persisted failure file.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic RNG driving generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG seeded stably from a test's name, so each test explores its
    /// own sequence but runs reproduce exactly.
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: hash }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range in strategy");
        // Rejection sampling for unbiased results.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let raw = self.next_u64();
            if raw < zone {
                return raw % bound;
            }
        }
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased [`Strategy`].
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.new_value(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end - start) as u64 + 1;
                start + rng.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = end.wrapping_sub(start) as u64 + 1;
                start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn new_value(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        // Occasionally pin the endpoints so boundaries get exercised even
        // though a pure uniform draw almost never lands exactly on them.
        match rng.below(64) {
            0 => start,
            1 => end,
            _ => start + rng.unit_f64() * (end - start),
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types with a canonical "anything" strategy (see [`any`]).
pub trait Arbitrary: Sized + Debug {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy producing any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// A uniform choice between boxed strategies (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Union<T> {
    /// A union over `options`; must be non-empty.
    #[must_use]
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        let pick = rng.below(self.options.len() as u64) as usize;
        self.options[pick].new_value(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// Element-count bounds for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    /// Strategy for vectors with element strategy `S`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property. As with upstream
    /// proptest, a `PROPTEST_CASES` environment variable overrides the
    /// in-code count (CI nightlies raise it for deeper sweeps).
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases: env_cases().unwrap_or(cases) }
    }
}

/// The `PROPTEST_CASES` override, if set and parseable.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: env_cases().unwrap_or(64) }
    }
}

/// Asserts a condition inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// A uniform choice between the given strategies (all yielding one type).
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![
            $($crate::Strategy::boxed($option)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that draws inputs and runs the body per case.
#[macro_export]
macro_rules! proptest {
    (@funcs ($config:expr)) => {};
    (@funcs ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::new_value(&($strat), &mut rng);)*
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let ::std::result::Result::Err(panic) = outcome {
                    ::std::eprintln!(
                        "proptest: {} failed on case {} with inputs:",
                        stringify!($name),
                        case,
                    );
                    $(::std::eprintln!(
                        "  {} = {:?}", stringify!($arg), $arg,
                    );)*
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::proptest! { @funcs ($config) $($rest)* }
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest! { @funcs ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @funcs ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Everything a property-test module imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestRng, Union,
    };

    /// Namespace mirror so call sites can write `prop::collection::vec`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let v = (3usize..10).new_value(&mut rng);
            assert!((3..10).contains(&v));
            let f = (0.25f64..=0.75).new_value(&mut rng);
            assert!((0.25..=0.75).contains(&f));
        }
    }

    #[test]
    fn inclusive_f64_hits_endpoints() {
        let mut rng = TestRng::deterministic("endpoints");
        let strat = 0.0f64..=1.0;
        let mut lo = false;
        let mut hi = false;
        for _ in 0..2000 {
            let v = strat.new_value(&mut rng);
            lo |= v == 0.0;
            hi |= v == 1.0;
        }
        assert!(lo && hi, "endpoint pinning should fire");
    }

    #[test]
    fn vec_strategy_sizes_in_range() {
        let mut rng = TestRng::deterministic("sizes");
        let strat = crate::collection::vec(0u32..5, 2..6);
        for _ in 0..200 {
            let v = strat.new_value(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn oneof_unions_strategies() {
        let mut rng = TestRng::deterministic("oneof");
        let strat = prop_oneof![Just(1u32), Just(2u32), 10u32..12];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(strat.new_value(&mut rng));
        }
        assert!(seen.contains(&1) && seen.contains(&2) && seen.contains(&10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: arguments bind, asserts run.
        #[test]
        fn macro_generates_runnable_tests(
            x in 1u64..100,
            pair in (0.0f64..1.0, any::<u8>()),
            items in prop::collection::vec(0usize..4, 0..8),
        ) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(pair.0 < 1.0);
            prop_assert_eq!(items.len() < 8, true);
        }
    }
}
