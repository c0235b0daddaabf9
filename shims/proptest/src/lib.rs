//! Minimal offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's tests use: the `proptest!` macro with
//! an optional `#![proptest_config(...)]` header, range strategies over
//! integers and floats, `collection::vec`, and `prop_assert_eq!`.  The
//! `proptest!` macro runs each property for a fixed number of deterministic
//! seeded cases; on the first failure it **shrinks** the argument tuple to a
//! minimal still-failing input and panics with both the original and the
//! shrunk case.  The seed stream is stable so failures reproduce.
//!
//! Shrinking is also available as a standalone facility ([`Shrink`] +
//! [`minimize`]): greedy descent over candidate simplifications of integers,
//! floats, vectors, and tuples.  The `spconform` differential conformance
//! harness uses it to minimize failing random programs to a replayable seed
//! plus a shrunk tree instead of dumping the raw random case.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngCore, SampleRange, SeedableRng};

pub mod prelude {
    pub use crate::ProptestConfig;
    pub use crate::Strategy;
}

/// Runner configuration (only `cases` is honored).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. Upstream proptest's `Strategy` carries shrinking
/// state; the shim only needs generation.
pub trait Strategy {
    type Value: std::fmt::Debug;
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                self.clone().sample_single(rng)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                self.clone().sample_single(rng)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        self.start + unit * (self.end - self.start)
    }
}

pub mod collection {
    use super::{SampleRange, Strategy};

    /// Strategy producing a `Vec` whose length is drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut super::StdRng) -> Self::Value {
            let n = self.len.clone().sample_single(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// A value that can propose simpler versions of itself.
///
/// Candidates are ordered most-aggressive first (e.g. `0` before `x/2`
/// before `x - 1` for integers), which lets [`minimize`] converge in few
/// steps when the failure does not depend on the value at all.
pub trait Shrink: Sized {
    /// Candidate simplifications of `self`, most aggressive first.  An empty
    /// vector means the value is fully shrunk.
    fn shrink_candidates(&self) -> Vec<Self>;
}

macro_rules! impl_shrink_unsigned {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                let x = *self;
                let mut out = Vec::new();
                if x > 0 {
                    out.push(0);
                    if x / 2 != 0 {
                        out.push(x / 2);
                    }
                    if x - 1 != x / 2 && x - 1 != 0 {
                        out.push(x - 1);
                    }
                }
                out
            }
        }
    )*};
}

impl_shrink_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_signed {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                let x = *self;
                let mut out = Vec::new();
                if x != 0 {
                    out.push(0);
                    if x / 2 != 0 {
                        out.push(x / 2);
                    }
                    let toward = if x > 0 { x - 1 } else { x + 1 };
                    if toward != x / 2 && toward != 0 {
                        out.push(toward);
                    }
                }
                out
            }
        }
    )*};
}

impl_shrink_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_shrink_float {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                let x = *self;
                let mut out = Vec::new();
                if x.is_finite() && x.abs() > 1e-9 {
                    out.push(0.0);
                    out.push(x / 2.0);
                    if x.trunc() != x {
                        out.push(x.trunc());
                    }
                }
                out
            }
        }
    )*};
}

impl_shrink_float!(f32, f64);

/// Tuples shrink coordinate-wise: every candidate simplifies exactly one
/// coordinate, so [`minimize`]'s greedy restart explores each axis toward
/// its own minimum.  This is what lets the `proptest!` macro shrink the whole
/// argument list of a failing property at once.
macro_rules! impl_shrink_tuple {
    ($(($($T:ident . $idx:tt),+))+) => {$(
        impl<$($T: Shrink + Clone),+> Shrink for ($($T,)+) {
            fn shrink_candidates(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink_candidates() {
                        let mut tuple = self.clone();
                        tuple.$idx = candidate;
                        out.push(tuple);
                    }
                )+
                out
            }
        }
    )+};
}

impl_shrink_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Structural shrinks first: drop the whole vector, then halves, then
        // single elements.
        out.push(Vec::new());
        if n >= 2 {
            out.push(self[n / 2..].to_vec());
            out.push(self[..n / 2].to_vec());
        }
        for i in 0..n {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // Then element-wise shrinks (first candidate per element only, to
        // keep the fan-out linear).
        for i in 0..n {
            if let Some(smaller) = self[i].shrink_candidates().into_iter().next() {
                let mut v = self.clone();
                v[i] = smaller;
                out.push(v);
            }
        }
        out
    }
}

/// Greedily minimize `value` while `still_fails` keeps returning `true`.
///
/// Classic shrinking loop: try candidates in order; on the first candidate
/// that still fails, restart from it.  Stops when no candidate fails or after
/// `max_steps` accepted shrinks (a safety bound for pathological cases).
/// `still_fails(&value)` is guaranteed `true` for the returned value if it
/// was `true` for the input.
pub fn minimize<T, F>(mut value: T, mut still_fails: F) -> T
where
    T: Shrink,
    F: FnMut(&T) -> bool,
{
    let max_steps = 10_000;
    'outer: for _ in 0..max_steps {
        for candidate in value.shrink_candidates() {
            if still_fails(&candidate) {
                value = candidate;
                continue 'outer;
            }
        }
        break;
    }
    value
}

thread_local! {
    /// Depth of [`silence_panics`] scopes on this thread; the shared hook
    /// swallows panic output only while it is non-zero.
    static SILENCED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Run `f` with panic *output* silenced on this thread only.
///
/// The process-global panic hook is replaced exactly once, with a delegating
/// hook that consults a thread-local depth counter — concurrent tests on
/// other threads keep their panic dumps, and there is no take/set hook
/// window for two shrinking properties to race on (swapping the hook per
/// call could permanently install the silencer if two threads interleave).
fn silence_panics<R>(f: impl FnOnce() -> R) -> R {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCED.with(|depth| depth.get()) == 0 {
                prev(info);
            }
        }));
    });
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SILENCED.with(|depth| depth.set(depth.get() - 1));
        }
    }
    SILENCED.with(|depth| depth.set(depth.get() + 1));
    let _guard = Guard;
    f()
}

/// Best-effort human-readable text of a panic payload (`&str` and `String`
/// payloads cover `assert!`/`panic!`; anything else is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Failure handler of one `proptest!` case: `fails(&inputs)` runs the body
/// once and returns the failure's panic message (`None` when it passes).  On
/// a failure the argument tuple is shrunk with [`minimize`] and the test
/// panics with a `String` payload carrying the original inputs and message
/// plus the minimal failing inputs and *their* message — the assertion text
/// is preserved, not just the inputs.  The shrinking re-runs execute with
/// panic output silenced so rejected candidates do not each dump a backtrace.
pub fn shrink_and_report<T>(name: &str, case: u32, inputs: T, fails: impl Fn(&T) -> Option<String>)
where
    T: Shrink + Clone + std::fmt::Debug,
{
    let Some(first_message) = fails(&inputs) else {
        return;
    };
    let mut last_message = first_message.clone();
    let shrunk = silence_panics(|| {
        minimize(inputs.clone(), |candidate| match fails(candidate) {
            Some(message) => {
                last_message = message;
                true
            }
            None => false,
        })
    });
    std::panic::panic_any(format!(
        "proptest {name} case {case} failed with inputs {inputs:?} ({first_message}); \
         shrunk to minimal failing inputs {shrunk:?} ({last_message})"
    ));
}

/// Fresh deterministic RNG for case number `case` of a named property.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    let mut h = 0xcbf29ce484222325u64; // FNV-1a over the test name
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32) ^ 0x5EED_CA5E)
}

/// Property-test macro: generates one `#[test]` per `fn`, running the body
/// for `config.cases` deterministic random inputs.
///
/// On the first failing case the argument tuple is **shrunk** with
/// [`minimize`] (integer/vec/float/tuple [`Shrink`] candidates) to a minimal
/// still-failing input, and the test panics with both the original and the
/// shrunk inputs.  The shrinking re-runs are executed with a silenced panic
/// hook so the output stays one actionable message instead of a panic dump
/// per rejected candidate.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )+
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            for case in 0..config.cases {
                let mut proptest_rng = $crate::case_rng(stringify!($name), case);
                let inputs = ( $( $crate::Strategy::generate(&$strategy, &mut proptest_rng), )+ );
                // One body invocation per candidate input tuple; the body
                // may consume its arguments, so each run gets clones.
                $crate::shrink_and_report(stringify!($name), case, inputs, |candidate| {
                    let ( $( $arg, )+ ) = ::std::clone::Clone::clone(candidate);
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body))
                        .err()
                        .map(|payload| $crate::panic_message(payload.as_ref()))
                });
            }
        }
    )+};
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )+
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )+
        }
    };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_eq!($left, $right, $($fmt)+)
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

#[cfg(test)]
mod tests {
    crate::proptest! {
        #![proptest_config(crate::ProptestConfig::with_cases(16))]
        #[test]
        fn ranges_and_vecs(n in 2usize..50, p in 0.0f64..1.0, v in crate::collection::vec(0usize..10, 1..20)) {
            crate::prop_assert!((2..50).contains(&n));
            crate::prop_assert!((0.0..1.0).contains(&p));
            crate::prop_assert!(!v.is_empty() && v.len() < 20);
            crate::prop_assert!(v.iter().all(|&x| x < 10));
        }
    }

    // A deliberately failing property (fails iff n >= 17), generated WITHOUT
    // `#[test]` so the regression test below can invoke it and inspect how
    // the macro shrinks the seeded failure.
    crate::proptest! {
        #![proptest_config(crate::ProptestConfig::with_cases(8))]
        fn failing_property_for_shrink_regression(
            n in 0u32..1000,
            v in crate::collection::vec(0u32..50, 0..6),
        ) {
            let _ = &v;
            crate::prop_assert!(n < 17, "boundary breached");
        }
    }

    #[test]
    fn proptest_macro_shrinks_seeded_failure_to_minimal_case() {
        // The expected report panic is silenced via the same thread-local
        // mechanism the shrinker itself uses (no global hook swapping).
        let result = crate::silence_panics(|| {
            std::panic::catch_unwind(failing_property_for_shrink_regression)
        });
        let payload = result.expect_err("a seeded case with n >= 17 must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the macro reports failures as a String payload");
        assert!(
            msg.contains("shrunk to minimal failing inputs (17, [])"),
            "the failure must shrink to the n=17 boundary with an empty vec: {msg}"
        );
        assert!(msg.contains("failing_property_for_shrink_regression"), "{msg}");
        assert!(
            msg.contains("boundary breached"),
            "the property's own assertion message must survive into the report: {msg}"
        );
    }

    #[test]
    fn float_and_tuple_shrinking() {
        use crate::Shrink;
        // Floats shrink toward zero (and drop fractional parts).
        assert!(0.0f64.shrink_candidates().is_empty());
        let c = 6.5f64.shrink_candidates();
        assert!(c.contains(&0.0) && c.contains(&3.25) && c.contains(&6.0));
        // Tuples shrink one coordinate at a time, each toward its own
        // boundary.
        let min = crate::minimize((40u32, -9i32), |&(a, b)| a >= 3 && b <= -2);
        assert_eq!(min, (3, -2));
        // A predicate that never fails leaves the input untouched.
        let unchanged = crate::minimize((40u32, 9i32), |_| false);
        assert_eq!(unchanged, (40, 9));
    }

    #[test]
    fn integer_minimize_finds_the_boundary() {
        // The smallest failing value of "fails iff x >= 17" is exactly 17.
        assert_eq!(crate::minimize(1000u32, |&x| x >= 17), 17);
        // A predicate that ignores the value shrinks all the way to 0.
        assert_eq!(crate::minimize(123u64, |_| true), 0);
        // Signed values shrink toward zero from both sides.
        assert_eq!(crate::minimize(-400i32, |&x| x <= -5), -5);
    }

    #[test]
    fn minimize_never_leaves_the_failing_set() {
        // If the input fails, the output must still fail.
        let out = crate::minimize(64u32, |&x| x % 2 == 0);
        assert_eq!(out % 2, 0);
        assert_eq!(out, 0, "0 is even and minimal");
    }

    #[test]
    fn vec_minimize_keeps_only_what_matters() {
        let start: Vec<u32> = vec![4, 7, 9, 2, 9, 1];
        let out = crate::minimize(start, |v| v.contains(&9));
        assert_eq!(out, vec![9]);

        // Element-wise shrinking: length must stay >= 3, values are free.
        let start: Vec<u32> = vec![10, 20, 30, 40];
        let out = crate::minimize(start, |v| v.len() >= 3);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&x| x == 0), "elements shrink to 0: {out:?}");
    }

    #[test]
    fn fully_shrunk_values_have_no_candidates() {
        use crate::Shrink;
        assert!(0u32.shrink_candidates().is_empty());
        assert!(0i64.shrink_candidates().is_empty());
        assert!(Vec::<u32>::new().shrink_candidates().is_empty());
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::Strategy;
        let a: Vec<usize> = (0..5)
            .map(|c| (0usize..1000).generate(&mut crate::case_rng("t", c)))
            .collect();
        let b: Vec<usize> = (0..5)
            .map(|c| (0usize..1000).generate(&mut crate::case_rng("t", c)))
            .collect();
        assert_eq!(a, b);
    }
}
