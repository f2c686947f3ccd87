//! A seeded case driver for property tests.
//!
//! [`check`] runs a property over a fixed number of independent cases.
//! Case *i* draws from its own [`Pcg32`], seeded with
//! [`child_seed`]`(fnv1a(name), i)`, so every run of a test sees the same
//! cases and no seed file or environment variable is involved. There is
//! no shrinking: a failing case panics with its own assertion message,
//! and the driver adds one line naming the case and its seed. Pass that
//! seed to [`replay`] to rerun exactly that case:
//!
//! ```
//! use tm_rng::{check, replay, Pcg32};
//!
//! fn add_commutes(rng: &mut Pcg32) {
//!     let (a, b) = (rng.next_u32(), rng.next_u32());
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! }
//!
//! check("add_commutes", 256, add_commutes);
//! // Had case 7 failed, the test output would end with
//! //   add_commutes: case 7 of 256 failed; rerun it with tm_rng::replay(0x…, ..)
//! // and this would rerun it alone:
//! replay(0x9fb6_6bc5_4de4_5da9, add_commutes);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::{child_seed, Pcg32};

/// Runs `property` on `cases` independently seeded generators.
///
/// The seeds depend only on `name` and the case index. If a case
/// panics, the driver prints `name: case i of n failed; rerun it with
/// tm_rng::replay(seed, ..)` to stderr and resumes the panic, which
/// fails the test.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Pcg32)) {
    let root = fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = child_seed(root, u64::from(case));
        // Unwind safety is moot: the panic is resumed at once, so no
        // state the case left behind is observed.
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| replay(seed, &mut property))) {
            eprintln!(
                "{name}: case {case} of {cases} failed; rerun it with tm_rng::replay({seed:#x}, ..)"
            );
            resume_unwind(panic);
        }
    }
}

/// Runs one case of a property on the generator [`check`] gave the
/// case with this seed.
pub fn replay(seed: u64, property: impl FnOnce(&mut Pcg32)) {
    property(&mut Pcg32::seed_from_u64(seed));
}

/// Draws a positive finite `f32`: first a class, uniformly among
/// normal, zero and (when `subnormals` is set) subnormal, then a value
/// of that class with every bit pattern of the class equally likely.
///
/// Only positive values are drawn, so properties such as the bit
/// commutativity of `min`/`max` never meet the `+0.0`/`-0.0` asymmetry.
pub fn finite_f32(rng: &mut Pcg32, subnormals: bool) -> f32 {
    let classes = if subnormals { 3 } else { 2 };
    let bits = match rng.gen_range(0..classes) {
        // Exponent 1..=254 with any fraction: every normal magnitude.
        0 => (rng.gen_range(1u32..=254) << 23) | (rng.next_u32() & 0x007F_FFFF),
        1 => 0,
        // Exponent 0 with a non-zero fraction.
        _ => (rng.next_u32() & 0x007F_FFFF).max(1),
    };
    f32::from_bits(bits)
}

/// 64-bit FNV-1a: a stable hash of the property name.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_seeded_by_name_and_index() {
        let draws = |name| {
            let mut out = Vec::new();
            check(name, 8, |rng| out.push(rng.next_u64()));
            out
        };
        let alpha = draws("alpha");
        assert_eq!(alpha, draws("alpha"));
        assert_ne!(alpha, draws("beta"));
        let mut distinct = alpha.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), alpha.len(), "cases share a seed");
        // replay with case 5's seed reruns case 5.
        replay(child_seed(fnv1a(b"alpha"), 5), |rng| {
            assert_eq!(rng.next_u64(), alpha[5]);
        });
    }

    #[test]
    #[should_panic(expected = "case property failed")]
    fn a_failing_case_fails_the_check() {
        let mut run = 0;
        check("fails_on_the_third_case", 8, |_| {
            run += 1;
            assert!(run < 3, "case property failed");
        });
    }

    #[test]
    fn finite_f32_draws_each_class_positive() {
        let mut rng = Pcg32::seed_from_u64(7);
        let (mut normal, mut zero, mut subnormal) = (0, 0, 0);
        for _ in 0..3000 {
            let x = finite_f32(&mut rng, true);
            assert!(x.is_sign_positive() && x.is_finite(), "{x}");
            if x == 0.0 {
                zero += 1;
            } else if x.is_normal() {
                normal += 1;
            } else {
                subnormal += 1;
            }
        }
        // Each class is drawn about a third of the time.
        for n in [normal, zero, subnormal] {
            assert!((800..1200).contains(&n), "{normal}/{zero}/{subnormal}");
        }
        for _ in 0..1000 {
            let x = finite_f32(&mut rng, false);
            assert!(x == 0.0 || (x.is_normal() && x > 0.0), "{x}");
        }
    }
}
