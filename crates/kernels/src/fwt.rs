//! Fast Walsh transform (AMD APP SDK `FastWalshTransform`).
//!
//! In-place Walsh–Hadamard butterflies: for each stage with span `h`, the
//! pair `(x[i], x[i+h])` becomes `(x[i] + x[i+h], x[i] − x[i+h])`. One
//! work-item per butterfly pair per stage; the paper pins this kernel to
//! exact matching (`threshold = 0.0`, Table 1). The device form is
//! [`crate::ir::fwt_stage_program`], one launch per stage
//! ([`crate::ir::fwt_on_device`]); this module holds the host golden.

/// Host golden Walsh–Hadamard transform (same butterfly order, scalar).
///
/// # Panics
///
/// Panics unless the signal length is a power of two of at least 2.
#[must_use]
pub fn fwt_reference(signal: &[f32]) -> Vec<f32> {
    let n = signal.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "signal length {n} must be a power of two >= 2"
    );
    let mut data = signal.to_vec();
    let mut span = 1usize;
    while span < n {
        for pair in 0..n / 2 {
            let block = pair / span;
            let offset = pair % span;
            let i = block * 2 * span + offset;
            let (a, b) = (data[i], data[i + span]);
            data[i] = a + b;
            data[i + span] = a - b;
        }
        span *= 2;
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_transforms_to_all_ones() {
        let mut signal = vec![0.0f32; 16];
        signal[0] = 1.0;
        assert!(fwt_reference(&signal).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn transform_is_self_inverse_up_to_n() {
        let signal: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let twice = fwt_reference(&fwt_reference(&signal));
        for (a, b) in signal.iter().zip(twice.iter()) {
            assert!((a * 64.0 - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_scales_by_n() {
        let signal: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
        let out = fwt_reference(&signal);
        let ein: f64 = signal.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        let eout: f64 = out.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        assert!((eout / ein - 32.0).abs() < 1e-3);
    }
}
