//! Spatial-frequency sensitivity: the paper's "the temporal value
//! locality is a function of both operation type and input data" (§4.1),
//! quantified on a controllable input.
//!
//! Sobel runs at its Table-1 threshold over sinusoidal plaids of
//! decreasing wavelength: longer wavelengths (smoother images) should buy
//! monotonically higher hit rates, with the *face* and *book* stand-ins
//! bracketing the sweep. Beware stride aliasing when picking periods —
//! a period dividing the 16-lane SC stride gives every stream core a
//! constant operand stream and near-perfect hit rates regardless of how
//! "busy" the image looks.

use crate::runner::{kernel_policy, ExperimentConfig};
use tm_image::{psnr, sobel_reference, synth, GrayImage};
use tm_kernels::ir::sobel_program;
use tm_kernels::KernelId;
use tm_sim::prelude::*;

/// One plaid wavelength's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyRow {
    /// Plaid period in pixels (`f64::INFINITY` labels the *face* row,
    /// `0.0` the *book* row).
    pub period: f64,
    /// Weighted FIFO hit rate at the Sobel design threshold.
    pub hit_rate: f64,
    /// Output quality vs the exact filter.
    pub psnr_db: f64,
}

/// The plaid periods swept (pixels per cycle). Deliberately
/// stride-incommensurate: periods that divide the 16-lane stream-core
/// stride would alias into *perfect* locality (lanes 16 apart sample the
/// same phase) — itself a measurable effect, but not the frequency probe
/// this sweep wants.
pub const PLAID_PERIODS: [f32; 5] = [61.0, 29.0, 13.0, 7.0, 3.0];

fn measure(image: &GrayImage, cfg_seed: u64) -> (f64, f64) {
    let golden = sobel_reference(image);
    let config = DeviceConfig::builder()
        .with_policy(kernel_policy(KernelId::Sobel))
        .with_seed(cfg_seed).build().unwrap();
    let mut device = Device::new(config);
    let mut ip = sobel_program(image);
    device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
    let out = GrayImage::from_vec(image.width(), image.height(), ip.take_output());
    (device.report().weighted_hit_rate(), psnr(&golden, &out))
}

/// Sweeps Sobel hit rate and PSNR across spatial frequencies.
#[must_use]
pub fn frequency_sweep(cfg: &ExperimentConfig) -> Vec<FrequencyRow> {
    let side = 128usize;
    let mut rows = Vec::new();
    let (hit, q) = measure(&synth::face(side, side, cfg.seed), cfg.seed);
    rows.push(FrequencyRow {
        period: f64::INFINITY,
        hit_rate: hit,
        psnr_db: q,
    });
    for &period in &PLAID_PERIODS {
        let (hit, q) = measure(&synth::plaid(side, side, period, cfg.seed), cfg.seed);
        rows.push(FrequencyRow {
            period: f64::from(period),
            hit_rate: hit,
            psnr_db: q,
        });
    }
    let (hit, q) = measure(&synth::book(side, side, cfg.seed), cfg.seed);
    rows.push(FrequencyRow {
        period: 0.0,
        hit_rate: hit,
        psnr_db: q,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoother_inputs_buy_higher_hit_rates() {
        // Two regimes, both real:
        // - smoothness regime (periods ≳ 13 px): busier ⇒ fewer hits;
        // - alphabet regime (tiny periods): a 3-px sinusoid sampled on the
        //   pixel grid takes only ~3 distinct values per axis, so exact
        //   matching re-gains hits despite the "busy" look.
        // The monotone claim is asserted over the smoothness regime only.
        let cfg = ExperimentConfig::default();
        let rows = frequency_sweep(&cfg);
        assert_eq!(rows.len(), PLAID_PERIODS.len() + 2);
        let face = rows.first().unwrap();
        for plaid in &rows[1..rows.len() - 1] {
            assert!(
                face.hit_rate > plaid.hit_rate,
                "face {} !> plaid-{} {}",
                face.hit_rate,
                plaid.period,
                plaid.hit_rate
            );
        }
        // Monotone within the smoothness regime (periods 61, 29, 13).
        for w in rows[1..4].windows(2) {
            assert!(
                w[1].hit_rate <= w[0].hit_rate + 0.03,
                "hit rate should fall as frequency rises: {w:?}"
            );
        }
    }

    #[test]
    fn quality_stays_acceptable_on_smooth_inputs() {
        let cfg = ExperimentConfig::default();
        let rows = frequency_sweep(&cfg);
        assert!(rows[0].psnr_db >= 30.0, "face PSNR {}", rows[0].psnr_db);
    }
}
