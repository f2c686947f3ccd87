//! One-dimensional Haar wavelet transform (AMD APP SDK `DwtHaar1D`).
//!
//! A full multi-level forward decomposition: at each level, work-item *i*
//! produces the approximation `(s[2i] + s[2i+1])·(1/√2)` and the detail
//! `(s[2i] − s[2i+1])·(1/√2)`. The output array is the standard layout
//! `[approx | detail_level_k | … | detail_level_1]`. The device form is
//! [`crate::ir::haar_level_program`], one launch per level
//! ([`crate::ir::haar_on_device`]); this module holds the host goldens.

/// `1/√2` in single precision — the analysis filter coefficient.
pub const INV_SQRT2: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// Host golden Haar decomposition (same arithmetic, scalar).
///
/// # Panics
///
/// Panics unless the signal length is a power of two of at least 2.
#[must_use]
pub fn haar_reference(signal: &[f32]) -> Vec<f32> {
    let n = signal.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "signal length {n} must be a power of two >= 2"
    );
    let mut out = vec![0.0f32; n];
    let mut current = signal.to_vec();
    while current.len() > 1 {
        let half = current.len() / 2;
        let mut approx = vec![0.0f32; half];
        for i in 0..half {
            let (e, o) = (current[2 * i], current[2 * i + 1]);
            approx[i] = (e + o) * INV_SQRT2;
            out[half + i] = (e - o) * INV_SQRT2;
        }
        current = approx;
    }
    out[0] = current[0];
    out
}

/// Inverse of [`haar_reference`], used by round-trip tests.
#[must_use]
pub fn haar_inverse_reference(coeffs: &[f32]) -> Vec<f32> {
    let n = coeffs.len();
    assert!(n >= 2 && n.is_power_of_two(), "length must be a power of two");
    let mut current = vec![coeffs[0]];
    let mut half = 1;
    while half < n {
        let detail = &coeffs[half..2 * half];
        let mut next = vec![0.0f32; 2 * half];
        for i in 0..half {
            next[2 * i] = (current[i] + detail[i]) * INV_SQRT2;
            next[2 * i + 1] = (current[i] - detail[i]) * INV_SQRT2;
        }
        current = next;
        half *= 2;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i % 37) as f32 * 0.5).collect()
    }

    #[test]
    fn round_trip_recovers_signal() {
        let signal = ramp(256);
        let coeffs = haar_reference(&signal);
        let back = haar_inverse_reference(&coeffs);
        for (a, b) in signal.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_signal_concentrates_energy_in_dc() {
        let signal = vec![4.0f32; 64];
        let coeffs = haar_reference(&signal);
        assert!((coeffs[0] - 4.0 * 8.0).abs() < 1e-4); // 4·√64
        assert!(coeffs[1..].iter().all(|&d| d.abs() < 1e-4));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = haar_reference(&[1.0, 2.0, 3.0]);
    }
}
