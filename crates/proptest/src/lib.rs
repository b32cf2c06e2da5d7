//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this workspace-local
//! crate implements the subset of proptest the test suite uses: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map` / `prop_recursive`,
//! range and tuple strategies, [`collection::vec`], [`prop_oneof!`],
//! [`Just`], string-pattern strategies (a small regex-like subset), and
//! the `prop_assert*` macros. Failing inputs are reported but not shrunk —
//! the deterministic per-test RNG makes every failure reproducible.

#![warn(missing_docs)]

pub mod strategy;
pub mod string;
pub mod test_runner;

pub use strategy::{BoxedStrategy, Just, Strategy};
pub use test_runner::{TestCaseError, TestRng};

/// Everything a test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A strategy producing `Vec`s of values from `element`, with length
    /// drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration (case count only).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Defines property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` running `cases` random inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
     $( $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let seed = $crate::test_runner::seed_for_name(stringify!($name));
                let mut rng = $crate::TestRng::from_seed(seed);
                for case in 0..config.cases {
                    let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest '{}' failed at case {}/{} (effective seed {:#018x}; \
                             reproduce or vary with ECRPQ_TEST_SEED): {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            seed,
                            e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case with a message (mirrors proptest's semantics of
/// returning a [`TestCaseError`] rather than panicking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert!(a == b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}: {}", a, b, format!($($fmt)*));
    }};
}

/// `prop_assert!(a != b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// Picks one of the given strategies uniformly per generated value.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}
