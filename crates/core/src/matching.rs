//! Matching constraints of the LUT comparators (paper §4.1, Equation 1).

use tm_fpu::Operands;

/// A programmable matching constraint for the LUT's parallel comparators.
///
/// The paper's Equation 1 accepts an entry `i` when
/// `|input_operands − FIFO[i]| ≤ threshold`:
///
/// - `threshold = 0` is the **exact** matching constraint — "full
///   bit-by-bit matching of the input operands of the FPU with the FIFO's
///   entries" — required by error-intolerant applications (FWT, EigenValue).
/// - `threshold > 0` is the **approximate** constraint that "relaxes the
///   criteria of the exact matching … by accepting some degree of numerical
///   difference", used by error-tolerant kernels under a PSNR ≥ 30 dB
///   fidelity constraint.
///
/// The hardware realizes the approximate comparison with a 32-bit
/// memory-mapped *masking vector* that ignores differences "in the less
/// significant bits of the fraction part"; [`MatchPolicy::MaskBits`] models
/// that realization directly, and [`mask_for_threshold`] derives a vector
/// from a numeric threshold.
///
/// # Examples
///
/// ```
/// use tm_core::MatchPolicy;
/// use tm_fpu::Operands;
///
/// let exact = MatchPolicy::Exact;
/// let approx = MatchPolicy::threshold(0.5);
/// let a = Operands::unary(1.0);
/// let b = Operands::unary(1.25);
/// assert!(!exact.matches(&a, &b, false));
/// assert!(approx.matches(&a, &b, false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchPolicy {
    /// Bit-by-bit equality of every operand (`threshold = 0`).
    Exact,
    /// Absolute numerical difference of every operand bounded by the
    /// threshold (Equation 1).
    Threshold(f32),
    /// Bitwise comparison under a 32-bit masking vector: operands match when
    /// their IEEE-754 encodings agree on every bit set in the mask.
    MaskBits(u32),
}

impl MatchPolicy {
    /// Convenience constructor for the thresholded constraint.
    ///
    /// A zero threshold degenerates to [`MatchPolicy::Exact`], matching the
    /// paper's convention that `threshold = 0` *is* the exact constraint.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    #[must_use]
    pub fn threshold(threshold: f32) -> Self {
        assert!(
            threshold >= 0.0,
            "matching threshold must be non-negative, got {threshold}"
        );
        if threshold == 0.0 {
            MatchPolicy::Exact
        } else {
            MatchPolicy::Threshold(threshold)
        }
    }

    /// Whether this policy can accept numerically different operands.
    #[must_use]
    pub fn is_approximate(&self) -> bool {
        !matches!(
            self,
            MatchPolicy::Exact | MatchPolicy::MaskBits(u32::MAX) | MatchPolicy::Threshold(0.0)
        )
    }

    /// Tests `incoming` against a `stored` operand set.
    ///
    /// When `commutative` is true the comparators also test the incoming
    /// operands with the first two sources swapped, implementing the
    /// paper's "the matching constraints … also allow commutativity of the
    /// operands where applicable" (§4.2).
    #[must_use]
    pub fn matches(&self, incoming: &Operands, stored: &Operands, commutative: bool) -> bool {
        if self.matches_direct(incoming, stored) {
            return true;
        }
        if commutative && incoming.arity() >= 2 {
            return self.matches_direct(&incoming.swapped(), stored);
        }
        false
    }

    /// Tests `incoming` against `stored` as given, without trying the
    /// swapped operand order.
    #[inline]
    pub(crate) fn matches_direct(&self, incoming: &Operands, stored: &Operands) -> bool {
        if incoming.arity() != stored.arity() {
            return false;
        }
        match *self {
            MatchPolicy::Exact => incoming == stored,
            MatchPolicy::Threshold(t) => incoming.max_abs_diff(stored) <= t,
            MatchPolicy::MaskBits(mask) => {
                let a = incoming.bits();
                let b = stored.bits();
                (0..incoming.arity()).all(|i| a[i] & mask == b[i] & mask)
            }
        }
    }
}

impl Default for MatchPolicy {
    /// The conservative default is exact matching.
    fn default() -> Self {
        MatchPolicy::Exact
    }
}

/// Builds a masking vector that ignores the `ignored` least significant
/// fraction bits of an IEEE-754 single.
///
/// With `ignored = 0` the vector compares all 32 bits (exact matching);
/// larger values progressively relax the comparison inside the 23-bit
/// fraction field. Sign and exponent are always compared.
///
/// # Panics
///
/// Panics if `ignored > 23` (there are only 23 fraction bits).
///
/// # Examples
///
/// ```
/// use tm_core::fraction_mask;
///
/// assert_eq!(fraction_mask(0), u32::MAX);
/// assert_eq!(fraction_mask(23), 0xFF80_0000);
/// ```
#[must_use]
pub fn fraction_mask(ignored: u32) -> u32 {
    assert!(ignored <= 23, "an f32 has 23 fraction bits, got {ignored}");
    u32::MAX << ignored
}

/// Derives the masking vector an application would program for a numeric
/// threshold, assuming operand magnitudes around `scale`.
///
/// Ignoring `n` low fraction bits of values of magnitude ~`scale` tolerates
/// absolute differences up to about `scale * 2^(n-23)`; this inverts that
/// relation, clamping to the representable range. It is the software-side
/// helper an error-tolerant application (or the compiler-directed analysis
/// the paper mentions) uses to fill the 32-bit masking-vector register.
///
/// # Panics
///
/// Panics if `threshold` is negative/NaN or `scale` is not positive.
///
/// # Examples
///
/// ```
/// use tm_core::{fraction_mask, mask_for_threshold};
///
/// // threshold 0 ⇒ compare everything.
/// assert_eq!(mask_for_threshold(0.0, 256.0), u32::MAX);
/// // a coarse threshold ignores more fraction bits than a fine one
/// let coarse = mask_for_threshold(1.0, 256.0);
/// let fine = mask_for_threshold(0.01, 256.0);
/// assert!(coarse.count_ones() < fine.count_ones());
/// ```
#[must_use]
pub fn mask_for_threshold(threshold: f32, scale: f32) -> u32 {
    assert!(
        threshold >= 0.0,
        "threshold must be non-negative, got {threshold}"
    );
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    if threshold == 0.0 {
        return u32::MAX;
    }
    // threshold ≈ scale * 2^(n - 23)  ⇒  n ≈ 23 + log2(threshold / scale)
    let n = (23.0 + (threshold / scale).log2()).ceil();
    let n = n.clamp(0.0, 23.0) as u32;
    fraction_mask(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_requires_bit_identity() {
        let p = MatchPolicy::Exact;
        assert!(p.matches(&Operands::unary(1.0), &Operands::unary(1.0), false));
        assert!(!p.matches(&Operands::unary(1.0), &Operands::unary(1.0 + f32::EPSILON), false));
        assert!(!p.matches(&Operands::unary(0.0), &Operands::unary(-0.0), false));
    }

    #[test]
    fn threshold_zero_degenerates_to_exact() {
        assert_eq!(MatchPolicy::threshold(0.0), MatchPolicy::Exact);
        assert!(!MatchPolicy::threshold(0.0).is_approximate());
    }

    #[test]
    fn threshold_accepts_within_bound() {
        let p = MatchPolicy::threshold(0.5);
        let a = Operands::binary(10.0, 20.0);
        assert!(p.matches(&a, &Operands::binary(10.5, 19.5), false));
        assert!(!p.matches(&a, &Operands::binary(10.51, 20.0), false));
    }

    #[test]
    fn threshold_rejects_nan() {
        let p = MatchPolicy::threshold(1000.0);
        assert!(!p.matches(&Operands::unary(f32::NAN), &Operands::unary(1.0), false));
    }

    #[test]
    fn commutative_matching_tries_swapped_operands() {
        let p = MatchPolicy::Exact;
        let stored = Operands::binary(3.0, 7.0);
        let incoming = Operands::binary(7.0, 3.0);
        assert!(!p.matches(&incoming, &stored, false));
        assert!(p.matches(&incoming, &stored, true));
    }

    #[test]
    fn commutative_flag_is_harmless_for_unary() {
        let p = MatchPolicy::Exact;
        assert!(p.matches(&Operands::unary(1.0), &Operands::unary(1.0), true));
    }

    #[test]
    fn mask_bits_ignores_low_fraction_bits() {
        let p = MatchPolicy::MaskBits(fraction_mask(8));
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() | 0x7F); // perturb low 7 bits
        assert!(p.matches(&Operands::unary(a), &Operands::unary(b), false));
        let c = f32::from_bits(a.to_bits() | 0x100); // perturb bit 8
        assert!(!p.matches(&Operands::unary(a), &Operands::unary(c), false));
    }

    #[test]
    fn full_mask_is_exact() {
        let p = MatchPolicy::MaskBits(u32::MAX);
        assert!(!p.is_approximate());
        assert!(!p.matches(
            &Operands::unary(1.0),
            &Operands::unary(1.0 + f32::EPSILON),
            false
        ));
    }

    #[test]
    fn fraction_mask_bounds() {
        assert_eq!(fraction_mask(0), u32::MAX);
        assert_eq!(fraction_mask(1), 0xFFFF_FFFE);
        assert_eq!(fraction_mask(23), 0xFF80_0000);
    }

    #[test]
    #[should_panic(expected = "fraction bits")]
    fn fraction_mask_rejects_out_of_range() {
        let _ = fraction_mask(24);
    }

    #[test]
    fn mask_for_threshold_monotone() {
        let mut prev = u32::MAX.count_ones();
        for t in [0.001f32, 0.01, 0.1, 1.0, 10.0] {
            let ones = mask_for_threshold(t, 256.0).count_ones();
            assert!(ones <= prev, "mask should not tighten as threshold grows");
            prev = ones;
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        let _ = MatchPolicy::threshold(-1.0);
    }

    #[test]
    fn arity_mismatch_never_matches() {
        for p in [
            MatchPolicy::Exact,
            MatchPolicy::threshold(100.0),
            MatchPolicy::MaskBits(0),
        ] {
            assert!(!p.matches(&Operands::unary(1.0), &Operands::binary(1.0, 1.0), true));
        }
    }
}
