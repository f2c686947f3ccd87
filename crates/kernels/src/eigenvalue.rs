//! Eigenvalues of a symmetric tridiagonal matrix (AMD APP SDK
//! `EigenValue`).
//!
//! The SDK sample brackets the eigenvalues of a symmetric tridiagonal
//! matrix by bisection: a Sturm-sequence sign count tells how many
//! eigenvalues lie below a pivot, and each work-item narrows the interval
//! of its own eigenvalue index. The paper pins this kernel to exact
//! matching (`threshold = 0.0`) and reports it activating the most FPU
//! types of all the error-intolerant kernels. The device form is
//! [`crate::ir::eigenvalue_program`].

use tm_rng::Pcg32;
use tm_fpu::{compute, FpOp, Operands};

/// Guard floor for the Sturm recurrence denominator.
pub(crate) const STURM_EPS: f32 = 1e-20;

/// A symmetric tridiagonal matrix (diagonal + off-diagonal).
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonal {
    /// Main diagonal, length `n`.
    pub diag: Vec<f32>,
    /// Off-diagonal, length `n − 1`.
    pub off: Vec<f32>,
}

impl Tridiagonal {
    /// Matrix order.
    #[must_use]
    pub fn n(&self) -> usize {
        self.diag.len()
    }

    /// Generates a random instance the way the SDK host does: small
    /// integer entries (`rand() % 10` diagonal, small non-zero
    /// off-diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn generate(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "matrix order must be at least 2");
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xE16);
        Self {
            diag: (0..n).map(|_| rng.gen_range(0..10) as f32).collect(),
            off: (0..n - 1).map(|_| rng.gen_range(1..4) as f32).collect(),
        }
    }

    /// A Gershgorin interval containing every eigenvalue.
    #[must_use]
    pub fn gershgorin_bounds(&self) -> (f32, f32) {
        let n = self.n();
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..n {
            let r = match i {
                0 => self.off[0].abs(),
                _ if i == n - 1 => self.off[n - 2].abs(),
                _ => self.off[i - 1].abs() + self.off[i].abs(),
            };
            lo = lo.min(self.diag[i] - r);
            hi = hi.max(self.diag[i] + r);
        }
        (lo, hi)
    }
}

/// Scalar golden replay of the device sequence through
/// [`tm_fpu::compute`] for eigenvalue index `k` — bit-identical to an
/// exact-matching device run.
#[must_use]
pub fn eigenvalue_reference(matrix: &Tridiagonal, k: usize, iterations: usize) -> f32 {
    let c2 = |op: FpOp, a: f32, b: f32| compute(op, Operands::binary(a, b));
    let c3 = |op: FpOp, a: f32, b: f32, c: f32| compute(op, Operands::ternary(a, b, c));
    let c1 = |op: FpOp, a: f32| compute(op, Operands::unary(a));

    let sturm = |x: f32| -> f32 {
        let mut count = 0.0f32;
        let mut d = 1.0f32;
        for i in 0..matrix.n() {
            let mut t = c2(FpOp::Sub, matrix.diag[i], x);
            if i > 0 {
                let off2 = matrix.off[i - 1] * matrix.off[i - 1];
                let inv_d = c1(FpOp::Recip, d);
                t = c3(FpOp::MulAdd, -off2, inv_d, t);
            }
            let at = c1(FpOp::Abs, t);
            let too_small = c2(FpOp::SetGt, STURM_EPS, at);
            d = c3(FpOp::CndEq, too_small, t, -STURM_EPS);
            let negative = c2(FpOp::SetGt, 0.0, d);
            count = c2(FpOp::Add, count, negative);
        }
        count
    };

    let (mut lo, mut hi) = matrix.gershgorin_bounds();
    for _ in 0..iterations {
        let mid = c2(FpOp::Mul, c2(FpOp::Add, lo, hi), 0.5);
        let count = sturm(mid);
        let above = c2(FpOp::SetGt, count, k as f32);
        hi = c3(FpOp::CndEq, above, hi, mid);
        lo = c3(FpOp::CndEq, above, mid, lo);
    }
    c2(FpOp::Mul, c2(FpOp::Add, lo, hi), 0.5)
}

/// Independent `f64` eigenvalue solver (bisection with its own Sturm
/// implementation), used to validate the device kernel.
#[must_use]
pub fn eigenvalues_f64(matrix: &Tridiagonal) -> Vec<f64> {
    let n = matrix.n();
    let diag: Vec<f64> = matrix.diag.iter().map(|&v| f64::from(v)).collect();
    let off2: Vec<f64> = matrix
        .off
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .collect();
    let count_below = |x: f64| -> usize {
        let mut count = 0;
        let mut d = 1.0f64;
        for i in 0..n {
            d = diag[i] - x - if i > 0 { off2[i - 1] / d } else { 0.0 };
            if d.abs() < 1e-300 {
                d = -1e-300;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    let (glo, ghi) = matrix.gershgorin_bounds();
    (0..n)
        .map(|k| {
            let (mut lo, mut hi) = (f64::from(glo), f64::from(ghi));
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if count_below(mid) > k {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            0.5 * (lo + hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::{Device, DeviceConfig};

    #[test]
    fn device_agrees_with_independent_f64() {
        let m = Tridiagonal::generate(48, 9);
        let mut ip = crate::ir::eigenvalue_program(&m, 40);
        let mut device = Device::new(DeviceConfig::default());
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
        let eigs = ip.take_output();
        let truth = eigenvalues_f64(&m);
        for (k, (&e, &t)) in eigs.iter().zip(truth.iter()).enumerate() {
            assert!((f64::from(e) - t).abs() < 1e-2, "λ_{k}: {e} vs {t}");
        }
    }

    #[test]
    fn eigenvalues_are_sorted() {
        let m = Tridiagonal::generate(64, 2);
        let eigs = eigenvalues_f64(&m);
        for w in eigs.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let m = Tridiagonal {
            diag: vec![2.0, 2.0],
            off: vec![1.0],
        };
        let eigs = eigenvalues_f64(&m);
        assert!((eigs[0] - 1.0).abs() < 1e-6);
        assert!((eigs[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn trace_is_preserved() {
        let m = Tridiagonal::generate(32, 7);
        let eigs = eigenvalues_f64(&m);
        let trace: f64 = m.diag.iter().map(|&v| f64::from(v)).sum();
        let sum: f64 = eigs.iter().sum();
        assert!((trace - sum).abs() < 1e-3, "{trace} vs {sum}");
    }

    #[test]
    fn gershgorin_contains_every_eigenvalue() {
        let m = Tridiagonal::generate(24, 3);
        let (lo, hi) = m.gershgorin_bounds();
        for e in eigenvalues_f64(&m) {
            assert!(e >= f64::from(lo) - 1e-9 && e <= f64::from(hi) + 1e-9);
        }
    }
}
