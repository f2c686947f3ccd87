//! The energy model proper.

use tm_fpu::FpOp;
use tm_timing::RecoveryPolicy;

/// Per-access energy model of a resilient FPU with a temporal memoization
/// module.
///
/// All energies are in picojoules at the nominal voltage; voltage-scaled
/// variants take a `dynamic_scale` factor (see
/// [`tm_timing::VoltageModel::dynamic_energy_scale`]) that applies to the
/// **FPU** portions only — the memoization module is powered at the fixed
/// nominal 0.9 V in the paper's VOS experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// EPI of a 32-bit FP `ADD` at nominal voltage, in pJ. Every other op
    /// scales by [`FpOp::relative_energy`].
    pub epi_add_pj: f64,
    /// Energy of one LUT search (two entries × up to three operand
    /// comparators + output mux), as a fraction of `epi_add_pj`.
    pub lut_lookup_frac: f64,
    /// Energy of one FIFO update (write up to four 32-bit words), as a
    /// fraction of `epi_add_pj`.
    pub lut_update_frac: f64,
    /// Residual clocking energy of a squashed (clock-gated) pipeline stage,
    /// as a fraction of that stage's active energy.
    pub gated_stage_residual: f64,
    /// Control/flush overhead charged per recovery cycle, as a fraction of
    /// `epi_add_pj`.
    pub recovery_cycle_frac: f64,
    /// Energy of broadcasting one result across the 16 lanes of a SIMD
    /// slot plus the pairwise operand-comparison network, as a fraction of
    /// `epi_add_pj`. Charged per *spatial* reuse — this wiring-dominated
    /// cost is the scalability objection the paper raises against spatial
    /// memoization (§2).
    pub spatial_broadcast_frac: f64,
}

impl EnergyModel {
    /// Constants calibrated against the paper's TSMC 45 nm results.
    ///
    /// The absolute `ADD` EPI (9.8 pJ) is in the range published for 45 nm
    /// single-precision adders at ~1 GHz; the remaining fractions are
    /// chosen so the end-to-end relative savings land in the paper's bands
    /// (13 % at 0 % error rate → 25 % at 4 %, Fig. 10). See EXPERIMENTS.md
    /// for the calibration record.
    #[must_use]
    pub const fn tsmc45() -> Self {
        Self {
            epi_add_pj: 9.8,
            // A 2-entry, 4-word FIFO plus three 32-bit comparators is two
            // orders of magnitude smaller than a pipelined FP adder; its
            // per-access energy is a few percent of an ADD.
            lut_lookup_frac: 0.06,
            lut_update_frac: 0.04,
            gated_stage_residual: 0.05,
            // A recovery cycle stalls and re-clocks the whole lane
            // (flush, reissue logic, wavefront-wide control) — roughly
            // half an ADD per cycle.
            recovery_cycle_frac: 0.50,
            // A 32-bit result bus spanning 16 lanes plus the cross-lane
            // comparator network: wiring-dominated, several times a local
            // LUT search.
            spatial_broadcast_frac: 0.45,
        }
    }

    /// Checks that every constant is finite and non-negative: the energy
    /// ledger panics on any other charge.
    ///
    /// # Errors
    ///
    /// The name of the first constant that is negative or not finite.
    pub fn check(&self) -> Result<(), &'static str> {
        [
            ("epi_add_pj", self.epi_add_pj),
            ("lut_lookup_frac", self.lut_lookup_frac),
            ("lut_update_frac", self.lut_update_frac),
            ("gated_stage_residual", self.gated_stage_residual),
            ("recovery_cycle_frac", self.recovery_cycle_frac),
            ("spatial_broadcast_frac", self.spatial_broadcast_frac),
        ]
        .into_iter()
        .find(|&(_, v)| !(v.is_finite() && v >= 0.0))
        .map_or(Ok(()), |(name, _)| Err(name))
    }

    /// Energy of one spatial (cross-lane) reuse: the receiving lane's
    /// stage-1 + clock-gated residual, plus the broadcast network charge.
    #[must_use]
    pub fn spatial_reuse_energy(&self, op: FpOp, dynamic_scale: f64) -> f64 {
        assert!(dynamic_scale > 0.0, "dynamic scale must be positive");
        let stages = f64::from(op.latency());
        let per_stage = self.epi(op) / stages;
        let stage1 = per_stage * dynamic_scale;
        let gated = per_stage * self.gated_stage_residual * (stages - 1.0) * dynamic_scale;
        stage1 + gated + self.epi_add_pj * self.spatial_broadcast_frac * dynamic_scale
    }

    /// EPI of `op` at nominal voltage.
    #[must_use]
    pub fn epi(&self, op: FpOp) -> f64 {
        self.epi_add_pj * op.relative_energy()
    }

    /// Energy of one *full* execution of `op` with the FPU supply scaled by
    /// `dynamic_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `dynamic_scale` is not positive.
    #[must_use]
    pub fn exec_energy(&self, op: FpOp, dynamic_scale: f64) -> f64 {
        assert!(dynamic_scale > 0.0, "dynamic scale must be positive");
        self.epi(op) * dynamic_scale
    }

    /// Energy of one memoized **hit** on `op`'s FPU.
    ///
    /// Stage 1 runs (the LUT searches in parallel with it), the remaining
    /// `latency − 1` stages only burn the clock-gated residual, and the
    /// LUT lookup itself is charged at nominal voltage.
    #[must_use]
    pub fn hit_energy(&self, op: FpOp, dynamic_scale: f64) -> f64 {
        assert!(dynamic_scale > 0.0, "dynamic scale must be positive");
        let stages = f64::from(op.latency());
        let per_stage = self.epi(op) / stages;
        let stage1 = per_stage * dynamic_scale;
        let gated = per_stage * self.gated_stage_residual * (stages - 1.0) * dynamic_scale;
        stage1 + gated + self.lut_lookup_energy()
    }

    /// Energy of one LUT search, at the module's fixed nominal voltage.
    #[must_use]
    pub fn lut_lookup_energy(&self) -> f64 {
        self.epi_add_pj * self.lut_lookup_frac
    }

    /// Energy of one FIFO update, at the module's fixed nominal voltage.
    #[must_use]
    pub fn lut_update_energy(&self) -> f64 {
        self.epi_add_pj * self.lut_update_frac
    }

    /// Energy of one memoized **miss** on `op`'s FPU: full execution + LUT
    /// search + (on the error-free path) the FIFO update.
    #[must_use]
    pub fn miss_energy(&self, op: FpOp, dynamic_scale: f64, updated: bool) -> f64 {
        let update = if updated { self.lut_update_energy() } else { 0.0 };
        self.exec_energy(op, dynamic_scale) + self.lut_lookup_energy() + update
    }

    /// Energy of one baseline recovery of an errant `op` instruction.
    ///
    /// Charges the replayed execution(s) plus a per-recovery-cycle control
    /// overhead (pipeline flush, reissue logic, stalled lane clocking).
    #[must_use]
    pub fn recovery_energy(&self, op: FpOp, policy: RecoveryPolicy, dynamic_scale: f64) -> f64 {
        let stages = op.latency();
        let replays = match policy {
            RecoveryPolicy::MultipleIssueReplay { issues } => f64::from(issues.max(1)),
            _ => 1.0,
        };
        let cycles = f64::from(policy.recovery_cycles(stages));
        replays * self.exec_energy(op, dynamic_scale)
            + cycles * self.epi_add_pj * self.recovery_cycle_frac * dynamic_scale
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::tsmc45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_fpu::ALL_OPS;

    #[test]
    fn hit_is_cheaper_than_exec_for_every_op() {
        let m = EnergyModel::tsmc45();
        for op in ALL_OPS {
            assert!(
                m.hit_energy(op, 1.0) < m.exec_energy(op, 1.0),
                "{op}: hit {} !< exec {}",
                m.hit_energy(op, 1.0),
                m.exec_energy(op, 1.0)
            );
        }
    }

    #[test]
    fn miss_costs_more_than_plain_exec() {
        let m = EnergyModel::tsmc45();
        assert!(m.miss_energy(FpOp::Add, 1.0, true) > m.exec_energy(FpOp::Add, 1.0));
        assert!(
            m.miss_energy(FpOp::Add, 1.0, false) < m.miss_energy(FpOp::Add, 1.0, true),
            "skipping the update must save the update energy"
        );
    }

    #[test]
    fn recovery_dwarfs_one_execution() {
        let m = EnergyModel::tsmc45();
        let r = m.recovery_energy(FpOp::Add, RecoveryPolicy::default(), 1.0);
        assert!(r > 2.0 * m.exec_energy(FpOp::Add, 1.0));
    }

    #[test]
    fn dynamic_scale_applies_to_fpu_not_lut() {
        let m = EnergyModel::tsmc45();
        let full = m.hit_energy(FpOp::Mul, 1.0);
        let scaled = m.hit_energy(FpOp::Mul, 0.81); // (0.81/0.9)^2-ish scale
        // The LUT share is identical, so the drop is smaller than 19 %.
        let lut = m.lut_lookup_energy();
        assert!(scaled > full * 0.81);
        assert!(scaled - lut < (full - lut) * 0.82);
    }

    #[test]
    fn recip_recovery_reflects_deep_pipeline_replay() {
        let m = EnergyModel::tsmc45();
        let shallow = m.recovery_energy(FpOp::Add, RecoveryPolicy::HalfFrequencyReplay, 1.0);
        let deep = m.recovery_energy(FpOp::Recip, RecoveryPolicy::HalfFrequencyReplay, 1.0);
        assert!(deep > shallow);
    }

    #[test]
    fn multiple_issue_charges_multiple_replays() {
        let m = EnergyModel::tsmc45();
        let one = m.recovery_energy(FpOp::Add, RecoveryPolicy::MultipleIssueReplay { issues: 1 }, 1.0);
        let three =
            m.recovery_energy(FpOp::Add, RecoveryPolicy::MultipleIssueReplay { issues: 3 }, 1.0);
        assert!(three > 2.0 * one - m.epi(FpOp::Add));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_scale() {
        let _ = EnergyModel::tsmc45().exec_energy(FpOp::Add, 0.0);
    }

    #[test]
    fn spatial_reuse_costs_more_than_a_temporal_hit() {
        // The broadcast network makes a spatial reuse pricier than a local
        // LUT hit — the paper's scalability argument in energy form.
        let m = EnergyModel::tsmc45();
        for op in [FpOp::Add, FpOp::Sqrt, FpOp::MulAdd] {
            assert!(m.spatial_reuse_energy(op, 1.0) > m.hit_energy(op, 1.0), "{op}");
            assert!(
                m.spatial_reuse_energy(op, 1.0) < m.exec_energy(op, 1.0) + m.epi_add_pj,
                "{op}: reuse should still beat re-execution"
            );
        }
    }
}
