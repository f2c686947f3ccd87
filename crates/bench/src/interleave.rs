//! Wavefront-interleaving sensitivity: how the 2-entry FIFO's hit rate
//! (and the architecture's energy advantage) erodes as the compute unit
//! interleaves more wavefronts.
//!
//! The paper's figures run one wavefront at a time per compute unit
//! (`in_flight = 1`); real Evergreen ALU engines interleave resident
//! wavefronts. This experiment runs the Sobel program (see
//! [`tm_kernels::ir`]) through
//! [`tm_sim::Device::run_program`] at increasing interleaving depths.
//!
//! The direction of the effect is workload-dependent — a measured finding
//! of this reproduction: when adjacent wavefronts carry spatially
//! correlated values (image kernels), interleaving mildly *helps* the
//! FIFO (cross-wavefront values are as reusable as intra-wavefront ones);
//! when wavefronts carry unrelated values, interleaving evicts live
//! contexts and hurts (see `interleaving_degrades_temporal_locality` in
//! `crates/sim/tests/program_exec.rs`).

use crate::runner::ExperimentConfig;
use tm_image::synth;
use tm_kernels::ir::sobel_program;
use tm_sim::prelude::*;

/// One interleaving depth's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterleavingRow {
    /// Wavefronts resident per compute unit.
    pub in_flight: usize,
    /// Weighted FIFO hit rate.
    pub hit_rate: f64,
    /// Memoized-architecture energy, pJ.
    pub memo_pj: f64,
    /// Energy saving against the (interleaving-insensitive) baseline.
    pub saving: f64,
}

/// The interleaving depths swept.
pub const IN_FLIGHT_DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Sweeps interleaving depth on one compute unit.
#[must_use]
pub fn interleaving_sweep(cfg: &ExperimentConfig) -> Vec<InterleavingRow> {
    let side = 128usize;
    let image = synth::face(side, side, cfg.seed);
    let run = |arch: ArchMode, in_flight: usize| {
        let mut ip = sobel_program(&image);
        let mut device = Device::new(
            DeviceConfig::builder()
                .with_arch(arch)
                .with_compute_units(1)
                .with_seed(cfg.seed).build().unwrap(),
        );
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, in_flight);
        device.report()
    };
    // The baseline has no LUT state, so interleaving cannot change its
    // energy; one run suffices.
    let baseline_pj = run(ArchMode::Baseline, 1).total_energy_pj();
    IN_FLIGHT_DEPTHS
        .iter()
        .map(|&in_flight| {
            let report = run(ArchMode::Memoized, in_flight);
            InterleavingRow {
                in_flight,
                hit_rate: report.weighted_hit_rate(),
                memo_pj: report.total_energy_pj(),
                saving: 1.0 - report.total_energy_pj() / baseline_pj,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_depths_with_sane_rates() {
        // NOTE on direction: interleaving's sign depends on where the
        // locality lives. On this image program, *adjacent wavefronts
        // carry spatially correlated pixels*, so interleaving mildly
        // helps; on per-wavefront-distinct values it hurts (see
        // `interleaving_degrades_temporal_locality` in
        // crates/sim/tests/program_exec.rs). Both are real effects — the
        // sweep reports whichever the workload exhibits.
        let cfg = ExperimentConfig::default();
        let rows = interleaving_sweep(&cfg);
        assert_eq!(rows.len(), IN_FLIGHT_DEPTHS.len());
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(first.in_flight == 1 && last.in_flight == 16);
        // The serial case must show real locality on a smooth image, and
        // no depth should collapse it.
        assert!(first.hit_rate > 0.3, "serial hit rate {}", first.hit_rate);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.hit_rate));
            assert!(row.memo_pj > 0.0);
            assert!(
                (row.hit_rate - first.hit_rate).abs() < 0.2,
                "interleaving moved the hit rate implausibly far: {row:?}"
            );
        }
    }

    #[test]
    fn baseline_energy_is_interleaving_invariant() {
        // Sanity for the single-baseline-run optimization.
        let cfg = ExperimentConfig::default();
        let image = synth::face(64, 64, cfg.seed);
        let run = |in_flight: usize| {
            let mut ip = sobel_program(&image);
            let mut device = Device::new(
                DeviceConfig::builder()
                    .with_arch(ArchMode::Baseline)
                    .with_compute_units(1)
                    .with_seed(cfg.seed).build().unwrap(),
            );
            device.run_program(&ip.program, &mut ip.bindings, ip.global_size, in_flight);
            device.report().total_energy_pj()
        };
        assert!((run(1) - run(8)).abs() < 1e-6);
    }
}
