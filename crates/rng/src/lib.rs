//! Tiny, deterministic, dependency-free PRNG for the whole workspace.
//!
//! The simulator's only randomness needs are (a) seeded Bernoulli draws
//! for timing-error injection and (b) seeded uniform draws for synthetic
//! inputs and workload generators. Both demand *reproducibility from an
//! explicit `u64` seed* — never cryptographic strength — so a small
//! in-tree generator is preferable to an external dependency that breaks
//! hermetic (offline) builds.
//!
//! Two classic generators are provided:
//!
//! * [`SplitMix64`] — a 64-bit mixer used for seeding and for cheap
//!   stateless decorrelation of derived seeds.
//! * [`Pcg32`] — the PCG-XSH-RR 64/32 generator (O'Neill, 2014): 64-bit
//!   LCG state, 32-bit output with a data-dependent rotation. Small,
//!   fast, and passes the statistical batteries that matter at our scale.
//!
//! The API mirrors the subset of `rand` the workspace used, so call
//! sites change only their imports: [`Pcg32::seed_from_u64`],
//! [`Pcg32::gen_bool`], and [`Pcg32::gen_range`] over `a..b` /
//! `a..=b` for the common integer and float types.
//!
//! The workspace's property tests run on [`check`], a seeded case
//! driver over [`Pcg32`] that prints a failing case's seed for
//! [`replay`].
//!
//! # Determinism
//!
//! Every sequence is a pure function of the seed. There is no global
//! state, no OS entropy, and no platform dependence: all arithmetic is
//! explicitly wrapping on fixed-width integers.
//!
//! ```
//! use tm_rng::Pcg32;
//!
//! let mut a = Pcg32::seed_from_u64(42);
//! let mut b = Pcg32::seed_from_u64(42);
//! let xs: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
//! let ys: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
//! assert_eq!(xs, ys);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;

pub use check::{check, finite_f32, replay};

use std::ops::{Range, RangeInclusive};

/// Sebastiano Vigna's SplitMix64: a fixed-increment LCG pushed through
/// a 64-bit finalizing mixer. Used here to expand one user seed into
/// the two PCG state words and to decorrelate derived seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 odd increment (the "golden gamma").
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator whose sequence is determined by `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// The raw generator state, for snapshotting. Feeding it back to
    /// [`SplitMix64::new`] resumes the sequence exactly:
    ///
    /// ```
    /// use tm_rng::SplitMix64;
    /// let mut a = SplitMix64::new(7);
    /// let _ = a.next_u64();
    /// let mut b = SplitMix64::new(a.state());
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    #[must_use]
    pub const fn state(&self) -> u64 {
        self.state
    }
}

/// Derives the `stream`-th decorrelated child seed of `seed`.
///
/// This is SplitMix64 evaluated at a fixed offset — `mix64` of the
/// state the iterator would hold after `stream + 1` steps — usable
/// without constructing the iterator. It is the **one** sanctioned way
/// to fan a single seed out into independent RNG streams (per compute
/// unit, per stream core, per Monte Carlo trial): every layer that
/// derives sub-seeds through `child_seed`/[`SplitMix64`] stays
/// collision-free and reproducible from the root seed alone, with no
/// ad-hoc seed arithmetic at the call sites.
///
/// # Examples
///
/// ```
/// use tm_rng::{child_seed, SplitMix64};
///
/// // child_seed(s, n) is exactly the (n+1)-th SplitMix64 output.
/// let mut it = SplitMix64::new(42);
/// assert_eq!(child_seed(42, 0), it.next_u64());
/// assert_eq!(child_seed(42, 1), it.next_u64());
/// assert_ne!(child_seed(42, 0), child_seed(43, 0));
/// ```
#[must_use]
pub const fn child_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(stream.wrapping_add(1))))
}

/// The SplitMix64 finalizer: a stateless, bijective 64-bit mixer.
/// Useful on its own to derive decorrelated seeds from structured
/// inputs (e.g. `mix64(seed ^ stream_id)`).
#[must_use]
pub const fn mix64(value: u64) -> u64 {
    let mut z = value;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// PCG-XSH-RR 64/32: the minimal-state member of the PCG family.
///
/// Replaces `rand::rngs::StdRng` throughout the workspace. Streams are
/// selected by the seed alone (the increment is derived from the seed
/// through SplitMix64, so two seeds differing in one bit yield fully
/// decorrelated sequences).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg32 {
    /// Creates a generator from a single 64-bit seed (the `rand`
    /// `SeedableRng::seed_from_u64` shape every call site already used).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mixer = SplitMix64::new(seed);
        let state = mixer.next_u64();
        // Any odd increment selects a valid PCG stream.
        let inc = mixer.next_u64() | 1;
        let mut rng = Self { state, inc };
        // One warm-up step so the first output depends on both words.
        let _ = rng.next_u32();
        rng
    }

    /// The raw `(state, increment)` pair, for snapshotting. Restore with
    /// [`Pcg32::from_raw_parts`] to resume the sequence exactly.
    #[must_use]
    pub const fn state_parts(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// Rebuilds a generator from raw parts captured by
    /// [`Pcg32::state_parts`]. No warm-up step is applied: the next
    /// output continues the captured sequence.
    ///
    /// # Panics
    ///
    /// Panics if `inc` is even — every valid PCG stream increment is
    /// odd, so an even value can only come from corrupted state.
    #[must_use]
    pub fn from_raw_parts(state: u64, inc: u64) -> Self {
        assert!(inc & 1 == 1, "PCG increment must be odd");
        Self { state, inc }
    }

    /// Returns the next 32-bit value (the native PCG output).
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64-bit value (two native outputs).
    pub fn next_u64(&mut self) -> u64 {
        let hi = u64::from(self.next_u32());
        let lo = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Returns a uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits scaled by 2^-53: the standard dyadic-uniform.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform draw in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        // `next_f64` < 1.0 strictly, so p == 1.0 always fires and
        // p == 0.0 never does.
        self.next_f64() < p
    }

    /// Uniform draw from a range, mirroring `rand::Rng::gen_range`.
    ///
    /// Supported range shapes are `low..high` and `low..=high` over the
    /// integer and float types the workspace uses; see [`SampleRange`].
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Unbiased uniform draw in `[0, bound)` by multiply-free rejection.
    fn below_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound == 1 {
            return 0;
        }
        // Reject draws from the final partial block so every residue
        // class is equally likely.
        let zone = (u64::MAX / bound) * bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// A range a [`Pcg32`] can sample uniformly — the glue behind
/// [`Pcg32::gen_range`].
pub trait SampleRange {
    /// The scalar type produced by the draw.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Pcg32) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Pcg32) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.below_u64(span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Pcg32) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let off = rng.below_u64(span + 1);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Pcg32) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                self.start + (self.end - self.start) * rng.$unit()
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Pcg32) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                lo + (hi - lo) * rng.$unit()
            }
        }
    )*};
}

impl_float_range!(f32 => next_f32, f64 => next_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        assert_eq!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pcg_streams_are_deterministic_per_seed() {
        let mut a = Pcg32::seed_from_u64(7);
        let mut b = Pcg32::seed_from_u64(7);
        let mut c = Pcg32::seed_from_u64(8);
        let sa: Vec<u32> = (0..64).map(|_| a.next_u32()).collect();
        let sb: Vec<u32> = (0..64).map(|_| b.next_u32()).collect();
        let sc: Vec<u32> = (0..64).map(|_| c.next_u32()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc, "adjacent seeds must decorrelate");
    }

    #[test]
    fn unit_floats_stay_in_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_bool_edges_and_calibration() {
        let mut rng = Pcg32::seed_from_u64(11);
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn int_ranges_cover_and_stay_in_bounds() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.gen_range(0..8usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 residues should appear");
        for _ in 0..1000 {
            let v = rng.gen_range(0..=32_767);
            assert!((0..=32_767).contains(&v));
            let w = rng.gen_range(2..7usize);
            assert!((2..7).contains(&w));
            let n = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&n));
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = Pcg32::seed_from_u64(2);
        let draws: Vec<u8> = (0..2000).map(|_| rng.gen_range(0u8..=3)).collect();
        assert!(draws.contains(&0));
        assert!(draws.contains(&3));
        assert!(draws.iter().all(|&v| v <= 3));
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = Pcg32::seed_from_u64(17);
        for _ in 0..10_000 {
            let x = rng.gen_range(-0.2f32..0.2);
            assert!((-0.2..0.2).contains(&x));
            let y = rng.gen_range(20.0f32..70.0);
            assert!((20.0..70.0).contains(&y));
            let z = rng.gen_range(0.0f64..=1.0);
            assert!((0.0..=1.0).contains(&z));
        }
    }

    #[test]
    fn uniformity_is_roughly_flat() {
        let mut rng = Pcg32::seed_from_u64(23);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[rng.gen_range(0..10usize)] += 1;
        }
        for &b in &buckets {
            assert!(
                (9_000..11_000).contains(&b),
                "bucket count {b} outside 10% band"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Pcg32::seed_from_u64(0).gen_range(5..5u32);
    }

    #[test]
    fn child_seed_matches_splitmix_stream() {
        let mut it = SplitMix64::new(0xDEAD_BEEF);
        for stream in 0..32 {
            assert_eq!(child_seed(0xDEAD_BEEF, stream), it.next_u64());
        }
    }

    #[test]
    fn child_seeds_decorrelate_across_roots_and_streams() {
        let a: Vec<u64> = (0..16).map(|s| child_seed(1, s)).collect();
        let b: Vec<u64> = (0..16).map(|s| child_seed(2, s)).collect();
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "streams of one root must be distinct");
    }

    #[test]
    fn pcg_raw_parts_round_trip_resumes_sequence() {
        let mut a = Pcg32::seed_from_u64(41);
        for _ in 0..17 {
            let _ = a.next_u32();
        }
        let (state, inc) = a.state_parts();
        let mut b = Pcg32::from_raw_parts(state, inc);
        let rest_a: Vec<u32> = (0..64).map(|_| a.next_u32()).collect();
        let rest_b: Vec<u32> = (0..64).map(|_| b.next_u32()).collect();
        assert_eq!(rest_a, rest_b);
    }

    #[test]
    #[should_panic(expected = "increment must be odd")]
    fn pcg_rejects_even_increment() {
        let _ = Pcg32::from_raw_parts(1, 2);
    }

    #[test]
    fn mix64_is_stateless_and_spreads_bits() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        let ones = (mix64(1) ^ mix64(2)).count_ones();
        assert!(ones > 16, "single-bit seed delta should flip many bits");
    }
}
