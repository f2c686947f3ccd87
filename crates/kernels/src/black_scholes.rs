//! Black–Scholes European option pricing (AMD APP SDK `BlackScholes`).
//!
//! One work-item per option evaluates the closed-form call and put prices
//! using the Abramowitz–Stegun polynomial approximation of the cumulative
//! normal distribution, exactly as the SDK kernel does. Following the SDK,
//! all five pricing parameters of a work-item are derived from a **single
//! quantized random draw** (C `rand()` has 32768 levels), which is where
//! what value locality this kernel has comes from.
//!
//! The device form is [`crate::ir::black_scholes_program`]. The scalar
//! golden ([`black_scholes_reference`]) replays its instruction sequence
//! through [`tm_fpu::compute`], so an exact-matching device run
//! reproduces it bit for bit; an independent `f64` implementation
//! ([`black_scholes_f64`]) validates both to ~1e-4.

use tm_rng::Pcg32;
use tm_fpu::{compute, FpOp, Operands};

pub(crate) const A1: f32 = 0.319_381_53;
pub(crate) const A2: f32 = -0.356_563_78;
pub(crate) const A3: f32 = 1.781_477_9;
pub(crate) const A4: f32 = -1.821_255_9;
pub(crate) const A5: f32 = 1.330_274_4;
pub(crate) const GAMMA: f32 = 0.231_641_9;
pub(crate) const INV_SQRT_2PI: f32 = 0.398_942_3;
const LOG2_E: f32 = std::f32::consts::LOG2_E;
const LN_2: f32 = std::f32::consts::LN_2;

/// The pricing inputs of one batch of options.
#[derive(Debug, Clone, PartialEq)]
pub struct OptionBatch {
    /// Spot prices.
    pub spot: Vec<f32>,
    /// Strike prices.
    pub strike: Vec<f32>,
    /// Times to maturity in years.
    pub maturity: Vec<f32>,
    /// Risk-free rates.
    pub rate: Vec<f32>,
    /// Volatilities.
    pub volatility: Vec<f32>,
}

impl OptionBatch {
    /// Number of options.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spot.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spot.is_empty()
    }

    /// Generates `n` options the way the SDK host does: every parameter of
    /// option *i* is an affine blend of a single quantized random draw
    /// `u_i ∈ {0, 1/32767, …, 1}` (C `rand()` has 15-bit resolution).
    #[must_use]
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xB5C0);
        let mut batch = Self {
            spot: Vec::with_capacity(n),
            strike: Vec::with_capacity(n),
            maturity: Vec::with_capacity(n),
            rate: Vec::with_capacity(n),
            volatility: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let u = rng.gen_range(0..=32767) as f32 / 32767.0;
            let blend = |lo: f32, hi: f32| lo * u + hi * (1.0 - u);
            batch.spot.push(blend(10.0, 100.0));
            batch.strike.push(blend(100.0, 10.0));
            batch.maturity.push(blend(0.2, 2.0));
            batch.rate.push(blend(0.01, 0.05));
            batch.volatility.push(blend(0.1, 0.5));
        }
        batch
    }
}

/// Scalar golden replay of the device instruction sequence through
/// [`tm_fpu::compute`] — bit-identical to an exact-matching device run.
///
/// Returns `(call, put)` for one option.
#[must_use]
pub fn black_scholes_reference(s: f32, k: f32, t: f32, r: f32, sigma: f32) -> (f32, f32) {
    let c1 = |op: FpOp, a: f32| compute(op, Operands::unary(a));
    let c2 = |op: FpOp, a: f32, b: f32| compute(op, Operands::binary(a, b));
    let c3 = |op: FpOp, a: f32, b: f32, c: f32| compute(op, Operands::ternary(a, b, c));

    let cnd = |x: f32| -> f32 {
        let ax = c1(FpOp::Abs, x);
        let denom = c3(FpOp::MulAdd, GAMMA, ax, 1.0);
        let tt = c1(FpOp::Recip, denom);
        let mut poly = A5;
        for a in [A4, A3, A2, A1] {
            poly = c3(FpOp::MulAdd, poly, tt, a);
        }
        poly = c2(FpOp::Mul, poly, tt);
        let x2 = c2(FpOp::Mul, x, x);
        let e_arg = c2(FpOp::Mul, x2, -0.5 * LOG2_E);
        let e = c1(FpOp::Exp2, e_arg);
        let pdf = c2(FpOp::Mul, e, INV_SQRT_2PI);
        let tail = c2(FpOp::Mul, pdf, poly);
        let nd = c2(FpOp::Sub, 1.0, tail);
        let neg = c2(FpOp::SetGe, x, 0.0);
        c3(FpOp::CndEq, neg, tail, nd)
    };

    let inv_k = c1(FpOp::Recip, k);
    let s_over_k = c2(FpOp::Mul, s, inv_k);
    let l2 = c1(FpOp::Log2, s_over_k);
    let ln_sk = c2(FpOp::Mul, l2, LN_2);
    let sig2 = c2(FpOp::Mul, sigma, sigma);
    let half_sig2 = c2(FpOp::Mul, sig2, 0.5);
    let drift = c2(FpOp::Add, r, half_sig2);
    let num = c3(FpOp::MulAdd, drift, t, ln_sk);
    let sq_t = c1(FpOp::Sqrt, t);
    let den = c2(FpOp::Mul, sigma, sq_t);
    let inv_den = c1(FpOp::Recip, den);
    let d1 = c2(FpOp::Mul, num, inv_den);
    let d2 = c2(FpOp::Sub, d1, den);

    let nd1 = cnd(d1);
    let nd2 = cnd(d2);
    let nd1m = c2(FpOp::Sub, 1.0, nd1);
    let nd2m = c2(FpOp::Sub, 1.0, nd2);

    let rt = c2(FpOp::Mul, r, t);
    let nrt = c1(FpOp::Neg, rt);
    let e_arg = c2(FpOp::Mul, nrt, LOG2_E);
    let disc = c1(FpOp::Exp2, e_arg);

    let k_disc = c2(FpOp::Mul, k, disc);
    let s_nd1 = c2(FpOp::Mul, s, nd1);
    let k_nd2 = c2(FpOp::Mul, k_disc, nd2);
    let call = c2(FpOp::Sub, s_nd1, k_nd2);
    let k_nd2m = c2(FpOp::Mul, k_disc, nd2m);
    let s_nd1m = c2(FpOp::Mul, s, nd1m);
    let put = c2(FpOp::Sub, k_nd2m, s_nd1m);
    (call, put)
}

/// Independent double-precision Black–Scholes (different code path), used
/// to validate both the device kernel and the scalar golden.
#[must_use]
pub fn black_scholes_f64(s: f64, k: f64, t: f64, r: f64, sigma: f64) -> (f64, f64) {
    fn cnd(x: f64) -> f64 {
        // A&S 26.2.17 in f64.
        let a = [0.319_381_530, -0.356_563_782, 1.781_477_937, -1.821_255_978, 1.330_274_429];
        let l = x.abs();
        let kk = 1.0 / (1.0 + 0.231_641_9 * l);
        let poly = kk * (a[0] + kk * (a[1] + kk * (a[2] + kk * (a[3] + kk * a[4]))));
        let w = 1.0 - (-l * l / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
        if x < 0.0 {
            1.0 - w
        } else {
            w
        }
    }
    let d1 = ((s / k).ln() + (r + sigma * sigma / 2.0) * t) / (sigma * t.sqrt());
    let d2 = d1 - sigma * t.sqrt();
    let call = s * cnd(d1) - k * (-r * t).exp() * cnd(d2);
    let put = k * (-r * t).exp() * cnd(-d2) - s * cnd(-d1);
    (call, put)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::{Device, DeviceConfig};

    /// Prices `batch` on a default device, returning `(call, put)`.
    fn run(batch: &OptionBatch) -> (Vec<f32>, Vec<f32>) {
        let mut ip = crate::ir::black_scholes_program(batch);
        let mut device = Device::new(DeviceConfig::default());
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
        let put = std::mem::take(ip.bindings.buffer_mut(ip.signature.outputs[1]));
        (ip.take_output(), put)
    }

    #[test]
    fn device_matches_scalar_golden_bit_for_bit() {
        let batch = OptionBatch::generate(256, 42);
        let (call, put) = run(&batch);
        for i in 0..batch.len() {
            let (rc, rp) = black_scholes_reference(
                batch.spot[i],
                batch.strike[i],
                batch.maturity[i],
                batch.rate[i],
                batch.volatility[i],
            );
            assert_eq!(call[i].to_bits(), rc.to_bits(), "call {i}");
            assert_eq!(put[i].to_bits(), rp.to_bits(), "put {i}");
        }
    }

    #[test]
    fn golden_agrees_with_independent_f64() {
        let (c, p) = black_scholes_reference(100.0, 100.0, 1.0, 0.05, 0.2);
        let (c64, p64) = black_scholes_f64(100.0, 100.0, 1.0, 0.05, 0.2);
        assert!((f64::from(c) - c64).abs() < 1e-2, "{c} vs {c64}");
        assert!((f64::from(p) - p64).abs() < 1e-2, "{p} vs {p64}");
        // And the textbook anchor: ATM 1y call at r=5%, σ=20% ≈ 10.45.
        assert!((c64 - 10.4506).abs() < 1e-3);
    }

    #[test]
    fn put_call_parity_holds() {
        let batch = OptionBatch::generate(128, 7);
        let (call, put) = run(&batch);
        for i in 0..batch.len() {
            let (s, k, t, r) = (
                f64::from(batch.spot[i]),
                f64::from(batch.strike[i]),
                f64::from(batch.maturity[i]),
                f64::from(batch.rate[i]),
            );
            let lhs = f64::from(call[i]) - f64::from(put[i]);
            let rhs = s - k * (-r * t).exp();
            assert!((lhs - rhs).abs() < 0.05, "parity violated at {i}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn prices_are_nonnegative() {
        let batch = OptionBatch::generate(512, 9);
        let (call, put) = run(&batch);
        assert!(call.iter().all(|&c| c >= -1e-3));
        assert!(put.iter().all(|&p| p >= -1e-3));
    }

    #[test]
    fn generate_is_deterministic_and_quantized() {
        let a = OptionBatch::generate(64, 1);
        let b = OptionBatch::generate(64, 1);
        assert_eq!(a, b);
        // 15-bit quantization: only 32768 distinct spot values exist.
        let c = OptionBatch::generate(100_000, 2);
        let mut spots: Vec<u32> = c.spot.iter().map(|s| s.to_bits()).collect();
        spots.sort_unstable();
        spots.dedup();
        assert!(spots.len() <= 32768);
    }
}
