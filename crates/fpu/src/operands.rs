//! Operand sets — the unit of matching for the memoization FIFO.

use std::fmt;

/// Maximum number of source operands of any Evergreen FP instruction.
pub const MAX_ARITY: usize = 3;

/// A set of 1–3 `f32` source operands.
///
/// Equality and hashing are **bit-exact** (via [`f32::to_bits`]), which is
/// what the paper's *exact matching* constraint (`threshold = 0`) requires:
/// "full bit-by-bit matching of the input operands of the FPU with the
/// FIFO's entries" (§4.1). `NaN` therefore compares equal to an identically
/// encoded `NaN`, and `+0.0` differs from `-0.0`.
///
/// # Examples
///
/// ```
/// use tm_fpu::Operands;
///
/// let a = Operands::binary(1.5, -2.0);
/// let b = Operands::binary(1.5, -2.0);
/// assert_eq!(a, b);
/// assert_eq!(a.arity(), 2);
/// assert_eq!(a.get(1), Some(-2.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    values: [f32; MAX_ARITY],
    arity: u8,
}

impl Operands {
    /// Creates a unary operand set.
    #[must_use]
    #[inline]
    pub const fn unary(src0: f32) -> Self {
        Self {
            values: [src0, 0.0, 0.0],
            arity: 1,
        }
    }

    /// Creates a binary operand set.
    #[must_use]
    #[inline]
    pub const fn binary(src0: f32, src1: f32) -> Self {
        Self {
            values: [src0, src1, 0.0],
            arity: 2,
        }
    }

    /// Creates a ternary operand set.
    #[must_use]
    #[inline]
    pub const fn ternary(src0: f32, src1: f32, src2: f32) -> Self {
        Self {
            values: [src0, src1, src2],
            arity: 3,
        }
    }

    /// Builds an operand set from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty or has more than [`MAX_ARITY`] elements.
    #[must_use]
    pub fn from_slice(slice: &[f32]) -> Self {
        assert!(
            !slice.is_empty() && slice.len() <= MAX_ARITY,
            "operand count {} out of range 1..={MAX_ARITY}",
            slice.len()
        );
        let mut values = [0.0; MAX_ARITY];
        values[..slice.len()].copy_from_slice(slice);
        Self {
            values,
            arity: slice.len() as u8,
        }
    }

    /// Number of meaningful operands.
    #[must_use]
    #[inline]
    pub const fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Returns operand `i`, or `None` beyond the arity.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<f32> {
        (i < self.arity()).then(|| self.values[i])
    }

    /// The meaningful operands as a slice.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.values[..self.arity()]
    }

    /// A copy with the first two operands swapped.
    ///
    /// Used by the LUT comparators when matching commutative instructions.
    ///
    /// # Panics
    ///
    /// Panics if the arity is 1 (there is nothing to swap).
    #[must_use]
    #[inline]
    pub fn swapped(&self) -> Self {
        assert!(self.arity() >= 2, "cannot swap operands of a unary set");
        let mut out = *self;
        out.values.swap(0, 1);
        out
    }

    /// The raw IEEE-754 bit patterns of the meaningful operands.
    ///
    /// Exposed so downstream code (e.g. the LUT's masked comparators) can
    /// operate on the fraction bits directly.
    #[must_use]
    #[inline]
    pub fn bits(&self) -> [u32; MAX_ARITY] {
        [
            self.values[0].to_bits(),
            self.values[1].to_bits(),
            self.values[2].to_bits(),
        ]
    }

    /// Largest absolute per-operand difference against `other`.
    ///
    /// This is the quantity constrained by the paper's Equation 1:
    /// `|input_operands - FIFO[i]| <= threshold`. Returns `f32::INFINITY`
    /// when arities differ or any compared pair involves a `NaN`, so that a
    /// thresholded comparison can never accept such a pair.
    #[must_use]
    #[inline]
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        if self.arity != other.arity {
            return f32::INFINITY;
        }
        let mut max = 0.0f32;
        for i in 0..self.arity() {
            let d = (self.values[i] - other.values[i]).abs();
            if d.is_nan() {
                return f32::INFINITY;
            }
            max = max.max(d);
        }
        max
    }
}

impl PartialEq for Operands {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for Operands {}

impl std::hash::Hash for Operands {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        for v in self.as_slice() {
            v.to_bits().hash(state);
        }
    }
}

impl fmt::Display for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<f32> for Operands {
    fn from(src0: f32) -> Self {
        Self::unary(src0)
    }
}

impl From<(f32, f32)> for Operands {
    fn from((src0, src1): (f32, f32)) -> Self {
        Self::binary(src0, src1)
    }
}

impl From<(f32, f32, f32)> for Operands {
    fn from((src0, src1, src2): (f32, f32, f32)) -> Self {
        Self::ternary(src0, src1, src2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_exact_equality_distinguishes_signed_zero() {
        assert_ne!(Operands::unary(0.0), Operands::unary(-0.0));
        assert_eq!(Operands::unary(0.0), Operands::unary(0.0));
    }

    #[test]
    fn nan_is_equal_to_same_encoded_nan() {
        let nan = f32::NAN;
        assert_eq!(Operands::unary(nan), Operands::unary(nan));
    }

    #[test]
    fn arity_mismatch_never_equal() {
        assert_ne!(Operands::unary(1.0), Operands::binary(1.0, 0.0));
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = Operands::binary(1.0, 2.0);
        let b = Operands::binary(1.5, 1.0);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn max_abs_diff_arity_mismatch_is_infinite() {
        let a = Operands::unary(1.0);
        let b = Operands::binary(1.0, 1.0);
        assert_eq!(a.max_abs_diff(&b), f32::INFINITY);
    }

    #[test]
    fn max_abs_diff_with_nan_is_infinite() {
        let a = Operands::unary(f32::NAN);
        let b = Operands::unary(1.0);
        assert_eq!(a.max_abs_diff(&b), f32::INFINITY);
    }

    #[test]
    fn swapped_swaps_first_two() {
        let a = Operands::ternary(1.0, 2.0, 3.0);
        let s = a.swapped();
        assert_eq!(s.as_slice(), &[2.0, 1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "unary")]
    fn swapped_panics_on_unary() {
        let _ = Operands::unary(1.0).swapped();
    }

    #[test]
    fn from_slice_round_trips() {
        let a = Operands::from_slice(&[1.0, 2.0]);
        assert_eq!(a, Operands::binary(1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slice_rejects_empty() {
        let _ = Operands::from_slice(&[]);
    }

    #[test]
    fn conversions_from_tuples() {
        assert_eq!(Operands::from(1.0f32), Operands::unary(1.0));
        assert_eq!(Operands::from((1.0, 2.0)), Operands::binary(1.0, 2.0));
        assert_eq!(
            Operands::from((1.0, 2.0, 3.0)),
            Operands::ternary(1.0, 2.0, 3.0)
        );
    }

    #[test]
    fn display_lists_operands() {
        assert_eq!(Operands::binary(1.0, 2.5).to_string(), "(1, 2.5)");
    }
}
