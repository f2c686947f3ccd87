//! The per-FPU temporal memoization module (Fig. 9 of the paper).

use crate::{resolve, Action, MatchPolicy, MemoFifo, MemoStats, MmioRegisters, Reg};
use tm_fpu::{FpOp, Operands};

/// What happened on one LUT access — everything the surrounding
/// architecture (pipeline control, ECU, energy ledger) needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// The value driving the pipeline output (`Q_Pipe`): the memorized
    /// result `Q_L` on a hit, the FPU result `Q_S` otherwise.
    pub result: f32,
    /// Whether the LUT hit.
    pub hit: bool,
    /// The Table-2 action taken.
    pub action: Action,
    /// A timing error occurred and was masked for free (hit path).
    pub masked_error: bool,
    /// A timing error occurred and the ECU baseline recovery was triggered
    /// (miss path).
    pub recovered: bool,
    /// The FIFO was updated with a fresh error-free context.
    pub updated: bool,
    /// The module is power-gated and the access bypassed it entirely.
    pub bypassed: bool,
}

/// A temporal memoization module tightly coupled to one FPU.
///
/// The module owns the single-cycle LUT (a [`MemoFifo`] searched by
/// parallel comparators under a programmable [`MatchPolicy`]), the
/// memory-mapped register file that applications program, and the
/// statistics the evaluation reports.
///
/// The `(hit, error)` behaviour follows Table 2 of the paper exactly; see
/// [`crate::resolve`].
///
/// # Examples
///
/// ```
/// use tm_core::{MatchPolicy, MemoModule};
/// use tm_fpu::{FpOp, Operands};
///
/// let mut m = MemoModule::new(FpOp::Sqrt, MatchPolicy::threshold(0.5));
/// let miss = m.access(Operands::unary(4.0), || 2.0, false);
/// assert!(!miss.hit && miss.updated);
/// // 4.3 is within the 0.5 threshold of the stored 4.0: approximate hit.
/// let hit = m.access(Operands::unary(4.3), || unreachable!(), false);
/// assert!(hit.hit);
/// assert_eq!(hit.result, 2.0);
/// assert_eq!(m.stats().hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct MemoModule {
    op: FpOp,
    fifo: MemoFifo,
    mmio: MmioRegisters,
    /// The registers decoded on every write: the matching policy and
    /// whether commutative matching applies to this opcode, or `None`
    /// while power-gated.
    decoded: Option<(MatchPolicy, bool)>,
    stats: MemoStats,
    update_after_recovery: bool,
}

impl MemoModule {
    /// Creates a module for `op` with the paper's 2-entry FIFO and the
    /// given matching policy.
    #[must_use]
    pub fn new(op: FpOp, policy: MatchPolicy) -> Self {
        Self::with_fifo(op, policy, MemoFifo::default())
    }

    /// Creates a module with a custom FIFO (depth / replacement ablations).
    #[must_use]
    pub fn with_fifo(op: FpOp, policy: MatchPolicy, fifo: MemoFifo) -> Self {
        let mut mmio = MmioRegisters::new();
        mmio.set_policy(policy);
        let mut module = Self {
            op,
            fifo,
            mmio,
            decoded: None,
            stats: MemoStats::default(),
            update_after_recovery: false,
        };
        module.decode();
        module
    }

    /// Re-derives the cached policy after a register write.
    fn decode(&mut self) {
        let commutative = self.op.is_commutative() && self.mmio.commutativity_enabled();
        self.decoded = self.mmio.policy().map(|policy| (policy, commutative));
    }

    /// Creates a module with an explicit FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_depth(op: FpOp, policy: MatchPolicy, depth: usize) -> Self {
        Self::with_fifo(op, policy, MemoFifo::new(depth))
    }

    /// The opcode whose FPU this module protects.
    #[must_use]
    pub const fn op(&self) -> FpOp {
        self.op
    }

    /// The current matching policy, or `None` while power-gated.
    #[must_use]
    pub fn policy(&self) -> Option<MatchPolicy> {
        self.decoded.map(|(policy, _)| policy)
    }

    /// Reprograms the matching policy through the register file.
    pub fn set_policy(&mut self, policy: MatchPolicy) {
        self.mmio.set_policy(policy);
        self.decode();
    }

    /// Power-gates (or re-enables) the module. Gating clears the FIFO —
    /// an unpowered LUT retains nothing.
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.fifo.clear();
        }
        self.mmio.set_enabled(enabled);
        self.decode();
    }

    /// Whether the module is enabled.
    #[must_use]
    pub const fn is_enabled(&self) -> bool {
        self.decoded.is_some()
    }

    /// When set, a miss-with-error access inserts the *replayed* (recovered,
    /// error-free) result into the FIFO. The paper's Table 2 does not update
    /// on the recovery row; this switch exists for the ablation benches.
    pub fn set_update_after_recovery(&mut self, yes: bool) {
        self.update_after_recovery = yes;
    }

    /// The register file, for reads.
    #[must_use]
    pub const fn mmio(&self) -> &MmioRegisters {
        &self.mmio
    }

    /// Writes one MMIO register and re-decodes the policy it programs.
    ///
    /// Unlike [`MemoModule::set_enabled`], clearing the enable bit here
    /// does not clear the FIFO: this is the raw register write.
    pub fn write_reg(&mut self, reg: Reg, value: u32) {
        self.mmio.write(reg, value);
        self.decode();
    }

    /// The LUT storage.
    #[must_use]
    pub const fn fifo(&self) -> &MemoFifo {
        &self.fifo
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub const fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Whether the miss-with-error ablation switch is set.
    #[must_use]
    pub const fn update_after_recovery(&self) -> bool {
        self.update_after_recovery
    }

    /// Restores snapshotted statistics onto the module.
    pub fn restore_stats(&mut self, stats: MemoStats) {
        self.stats = stats;
    }

    /// Resets the statistics (e.g. between kernels).
    pub fn reset_stats(&mut self) {
        self.stats = MemoStats::default();
    }

    /// Pre-loads a context ("compiler-directed analysis techniques or
    /// domain experts … can also store pre-computed values in the LUT").
    pub fn preload(&mut self, operands: Operands, result: f32) {
        self.fifo.preload(operands, result);
    }

    /// Processes one FP instruction through the resilient-FPU datapath.
    ///
    /// `compute` is the FPU's functional execution producing `Q_S`; it is
    /// only invoked on the miss path (on a hit the remaining stages are
    /// clock-gated and the memoized `Q_L` is returned instead). `error`
    /// reports whether the EDS sensors flagged a timing violation during
    /// this instruction's traversal of the FPU pipeline.
    ///
    /// The returned [`AccessOutcome`] captures the Table-2 action so the
    /// caller can charge cycles and energy accordingly. Note that on the
    /// miss-with-error path the returned `result` is the *correct* value:
    /// the baseline recovery replays the instruction until it completes
    /// without violation.
    pub fn access(
        &mut self,
        operands: Operands,
        compute: impl FnOnce() -> f32,
        error: bool,
    ) -> AccessOutcome {
        let Some((policy, commutative)) = self.decoded else {
            // Power-gated: plain baseline behaviour, no lookup, no stats.
            let result = compute();
            return AccessOutcome {
                result,
                hit: false,
                action: resolve(false, error),
                masked_error: false,
                recovered: error,
                updated: false,
                bypassed: true,
            };
        };

        self.stats.lookups += 1;
        if error {
            self.stats.errors_seen += 1;
        }

        if let Some(q_l) = self.fifo.lookup(&operands, policy, commutative) {
            self.stats.hits += 1;
            let action = resolve(true, error);
            if error {
                self.stats.masked_errors += 1;
            }
            return AccessOutcome {
                result: q_l,
                hit: true,
                action,
                masked_error: error,
                recovered: false,
                updated: false,
                bypassed: false,
            };
        }

        self.stats.misses += 1;
        let action = resolve(false, error);
        let result = compute();
        let mut updated = false;
        if error {
            self.stats.recoveries += 1;
            if self.update_after_recovery {
                self.fifo.insert(operands, result);
                self.stats.updates += 1;
                updated = true;
            }
        } else {
            self.fifo.insert(operands, result);
            self.stats.updates += 1;
            updated = true;
        }
        debug_assert!(self.stats.is_consistent());
        AccessOutcome {
            result,
            hit: false,
            action,
            masked_error: false,
            recovered: error,
            updated,
            bypassed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;

    fn module() -> MemoModule {
        MemoModule::new(FpOp::Add, MatchPolicy::Exact)
    }

    #[test]
    fn miss_updates_and_returns_computed() {
        let mut m = module();
        let out = m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        assert!(!out.hit && out.updated && !out.recovered);
        assert_eq!(out.result, 3.0);
        assert_eq!(out.action, Action::NormalExecutionAndUpdate);
    }

    #[test]
    fn hit_skips_compute_and_reuses() {
        let mut m = module();
        m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        let out = m.access(Operands::binary(1.0, 2.0), || panic!("must not execute"), false);
        assert!(out.hit);
        assert_eq!(out.result, 3.0);
        assert_eq!(out.action, Action::ReuseAndClockGate);
    }

    #[test]
    fn commutative_hit_via_swapped_operands() {
        let mut m = module();
        m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        let out = m.access(Operands::binary(2.0, 1.0), || unreachable!(), false);
        assert!(out.hit);
    }

    #[test]
    fn commutativity_respects_mmio_bit() {
        let mut m = module();
        let ctrl = m.mmio().read(Reg::Ctrl);
        m.write_reg(Reg::Ctrl, ctrl & !crate::CTRL_COMMUTATIVE);
        m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        let out = m.access(Operands::binary(2.0, 1.0), || 3.0, false);
        assert!(!out.hit);
    }

    #[test]
    fn register_writes_reprogram_the_cached_policy() {
        let mut m = MemoModule::new(FpOp::Mul, MatchPolicy::Exact);
        m.write_reg(Reg::Threshold, 0.5f32.to_bits());
        m.write_reg(
            Reg::Ctrl,
            m.mmio().read(Reg::Ctrl) | crate::CTRL_THRESHOLD_MODE,
        );
        assert_eq!(m.policy(), Some(MatchPolicy::Threshold(0.5)));
        m.access(Operands::binary(2.0, 2.0), || 4.0, false);
        assert!(m.access(Operands::binary(2.25, 2.0), || 4.5, false).hit);
        // A raw write of the enable bit gates the module but keeps the FIFO.
        m.write_reg(Reg::Ctrl, m.mmio().read(Reg::Ctrl) & !crate::CTRL_ENABLE);
        assert!(!m.is_enabled() && m.policy().is_none());
        assert!(m.access(Operands::binary(2.0, 2.0), || 4.0, false).bypassed);
        assert_eq!(m.fifo().len(), 1);
    }

    #[test]
    fn hit_with_error_masks_it() {
        let mut m = module();
        m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        let out = m.access(Operands::binary(1.0, 2.0), || unreachable!(), true);
        assert!(out.hit && out.masked_error && !out.recovered);
        assert_eq!(out.action, Action::ReuseClockGateAndMaskError);
        assert_eq!(m.stats().masked_errors, 1);
    }

    #[test]
    fn miss_with_error_triggers_recovery_without_update() {
        let mut m = module();
        let out = m.access(Operands::binary(1.0, 2.0), || 3.0, true);
        assert!(!out.hit && out.recovered && !out.updated);
        assert_eq!(out.action, Action::TriggerBaselineRecovery);
        assert_eq!(m.stats().recoveries, 1);
        // The context was NOT committed (W_en gated by the error).
        let again = m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        assert!(!again.hit);
    }

    #[test]
    fn update_after_recovery_ablation() {
        let mut m = module();
        m.set_update_after_recovery(true);
        let out = m.access(Operands::binary(1.0, 2.0), || 3.0, true);
        assert!(out.updated);
        let again = m.access(Operands::binary(1.0, 2.0), || unreachable!(), false);
        assert!(again.hit);
    }

    #[test]
    fn power_gated_module_bypasses() {
        let mut m = module();
        m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        m.set_enabled(false);
        let out = m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        assert!(out.bypassed && !out.hit);
        assert_eq!(m.stats().lookups, 1, "gated accesses are not lookups");
        // Gating cleared the FIFO: re-enabling starts cold.
        m.set_enabled(true);
        let out = m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        assert!(!out.hit);
    }

    #[test]
    fn gated_module_still_recovers_errors_via_baseline() {
        let mut m = module();
        m.set_enabled(false);
        let out = m.access(Operands::binary(1.0, 2.0), || 3.0, true);
        assert!(out.recovered && out.bypassed);
    }

    #[test]
    fn approximate_policy_produces_approximate_results() {
        let mut m = MemoModule::new(FpOp::Mul, MatchPolicy::threshold(0.1));
        m.access(Operands::binary(2.0, 2.0), || 4.0, false);
        // 2.05 * 2.0 = 4.1 exactly, but the memoized 4.0 is returned.
        let out = m.access(Operands::binary(2.05, 2.0), || 4.1, false);
        assert!(out.hit);
        assert_eq!(out.result, 4.0);
    }

    #[test]
    fn stats_stay_consistent_over_random_walk() {
        let mut m = MemoModule::new(FpOp::Add, MatchPolicy::Exact);
        for i in 0..1000u32 {
            let a = (i % 7) as f32;
            let b = (i % 3) as f32;
            let err = i % 13 == 0;
            m.access(Operands::binary(a, b), || a + b, err);
            assert!(m.stats().is_consistent());
        }
        assert_eq!(m.stats().lookups, 1000);
    }

    #[test]
    fn preload_hits_immediately() {
        let mut m = module();
        m.preload(Operands::binary(9.0, 1.0), 10.0);
        let out = m.access(Operands::binary(9.0, 1.0), || unreachable!(), false);
        assert!(out.hit);
        assert_eq!(out.result, 10.0);
    }

    #[test]
    fn reset_stats_clears_counters_only() {
        let mut m = module();
        m.access(Operands::binary(1.0, 2.0), || 3.0, false);
        m.reset_stats();
        assert_eq!(m.stats().lookups, 0);
        // FIFO content survives a stats reset.
        let out = m.access(Operands::binary(1.0, 2.0), || unreachable!(), false);
        assert!(out.hit);
    }
}
