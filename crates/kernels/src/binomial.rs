//! Binomial-lattice European option pricing (AMD APP SDK
//! `BinomialOption`).
//!
//! Following the SDK's decomposition, **one option maps to one wavefront**
//! (work-group): work-item *j* owns lattice node *j*, the
//! Cox–Ross–Rubinstein parameters are computed wavefront-uniformly, and
//! the backward induction runs `steps` masked iterations with each lane
//! combining its own node with its neighbour's. The wavefront-uniform
//! parameter computation and the large all-zero out-of-the-money regions
//! of the lattice are where this kernel's value locality comes from. The
//! device form is [`crate::ir::binomial_program`].

use tm_rng::Pcg32;
use tm_fpu::{compute, FpOp, Operands};

const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// One European call option's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionSpec {
    /// Spot price.
    pub spot: f32,
    /// Strike price.
    pub strike: f32,
    /// Time to maturity in years.
    pub maturity: f32,
    /// Risk-free rate.
    pub rate: f32,
    /// Volatility.
    pub volatility: f32,
}

impl OptionSpec {
    /// Generates `n` options the SDK way (all parameters blended from one
    /// quantized random draw; see
    /// [`crate::black_scholes::OptionBatch::generate`]).
    #[must_use]
    pub fn generate(n: usize, seed: u64) -> Vec<Self> {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xB10);
        (0..n)
            .map(|_| {
                let u = rng.gen_range(0..=32767) as f32 / 32767.0;
                let blend = |lo: f32, hi: f32| lo * u + hi * (1.0 - u);
                Self {
                    spot: blend(10.0, 100.0),
                    strike: blend(100.0, 10.0),
                    maturity: blend(0.2, 2.0),
                    rate: blend(0.01, 0.05),
                    volatility: blend(0.1, 0.5),
                }
            })
            .collect()
    }
}

/// Scalar golden replay of the device sequence through
/// [`tm_fpu::compute`] — bit-identical to an exact-matching device run.
#[must_use]
pub fn binomial_reference(opt: OptionSpec, steps: usize) -> f32 {
    assert!(steps > 0 && steps < 64, "steps out of range");
    let c1 = |op: FpOp, a: f32| compute(op, Operands::unary(a));
    let c2 = |op: FpOp, a: f32, b: f32| compute(op, Operands::binary(a, b));
    let c3 = |op: FpOp, a: f32, b: f32, c: f32| compute(op, Operands::ternary(a, b, c));

    let dt = c2(FpOp::Mul, opt.maturity, 1.0 / steps as f32);
    let sq_dt = c1(FpOp::Sqrt, dt);
    let sig_sq_dt = c2(FpOp::Mul, opt.volatility, sq_dt);
    let u = c1(FpOp::Exp2, c2(FpOp::Mul, sig_sq_dt, LOG2_E));
    let d = c1(FpOp::Recip, u);
    let r_dt = c2(FpOp::Mul, opt.rate, dt);
    let a = c1(FpOp::Exp2, c2(FpOp::Mul, r_dt, LOG2_E));
    let pu = c2(
        FpOp::Mul,
        c2(FpOp::Sub, a, d),
        c1(FpOp::Recip, c2(FpOp::Sub, u, d)),
    );
    let pd = c2(FpOp::Sub, 1.0, pu);
    let disc = c1(FpOp::Recip, a);

    let log2u = c1(FpOp::Log2, u);
    let mut v: Vec<f32> = (0..=steps)
        .map(|j| {
            let expo = (2.0 * j as f32) - steps as f32;
            let upow = c1(FpOp::Exp2, c2(FpOp::Mul, expo, log2u));
            let price = c2(FpOp::Mul, opt.spot, upow);
            c2(FpOp::Max, c2(FpOp::Sub, price, opt.strike), 0.0)
        })
        .collect();

    for step in (0..steps).rev() {
        for j in 0..=step {
            let up_term = c2(FpOp::Mul, pu, v[j + 1]);
            let both = c3(FpOp::MulAdd, pd, v[j], up_term);
            v[j] = c2(FpOp::Mul, disc, both);
        }
    }
    v[0]
}

/// Independent `f64` CRR pricer for validation.
#[must_use]
pub fn binomial_f64(spot: f64, strike: f64, t: f64, r: f64, sigma: f64, steps: usize) -> f64 {
    let dt = t / steps as f64;
    let u = (sigma * dt.sqrt()).exp();
    let d = 1.0 / u;
    let a = (r * dt).exp();
    let pu = (a - d) / (u - d);
    let pd = 1.0 - pu;
    let disc = 1.0 / a;
    let mut v: Vec<f64> = (0..=steps)
        .map(|j| (spot * u.powi(2 * j as i32 - steps as i32) - strike).max(0.0))
        .collect();
    for step in (0..steps).rev() {
        for j in 0..=step {
            v[j] = disc * (pu * v[j + 1] + pd * v[j]);
        }
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::black_scholes::black_scholes_f64;

    #[test]
    fn golden_agrees_with_independent_f64() {
        let opt = OptionSpec {
            spot: 100.0,
            strike: 95.0,
            maturity: 1.0,
            rate: 0.05,
            volatility: 0.3,
        };
        let a = f64::from(binomial_reference(opt, 40));
        let b = binomial_f64(100.0, 95.0, 1.0, 0.05, 0.3, 40);
        assert!((a - b).abs() < 0.01, "{a} vs {b}");
    }

    #[test]
    fn converges_to_black_scholes() {
        let (bs_call, _) = black_scholes_f64(100.0, 100.0, 1.0, 0.05, 0.2);
        let crr = binomial_f64(100.0, 100.0, 1.0, 0.05, 0.2, 60);
        assert!(
            (crr - bs_call).abs() < 0.15,
            "CRR {crr} should approach BS {bs_call}"
        );
    }

    #[test]
    fn deep_itm_equals_discounted_forward() {
        // S >> K: call ≈ S − K·e^{−rT}.
        let price = binomial_f64(100.0, 5.0, 1.0, 0.03, 0.2, 40);
        let expect = 100.0 - 5.0 * (-0.03f64).exp();
        assert!((price - expect).abs() < 1e-6);
    }

    #[test]
    fn worthless_option_prices_to_zero() {
        let opt = OptionSpec {
            spot: 1.0,
            strike: 1000.0,
            maturity: 0.2,
            rate: 0.01,
            volatility: 0.1,
        };
        assert_eq!(binomial_reference(opt, 20), 0.0);
    }

    #[test]
    #[should_panic(expected = "fit one wavefront")]
    fn rejects_oversized_lattice() {
        let _ = crate::ir::binomial_program(&[], 64, 64);
    }
}
