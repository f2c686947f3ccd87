//! Stream cores and their per-opcode lane units.

use crate::config::{ArchMode, DeviceConfig};
use tm_core::{AccessOutcome, AdaptiveGate, MemoFifo, MemoModule};
use tm_fpu::{FpOp, Fpu, Operands, ALL_OPS};

/// One FPU plus its tightly coupled memoization module.
#[derive(Debug, Clone)]
pub struct LaneUnit {
    fpu: Fpu,
    memo: MemoModule,
    gate: Option<AdaptiveGate>,
}

impl LaneUnit {
    /// Builds the unit for `op` according to the device configuration.
    #[must_use]
    pub fn new(op: FpOp, config: &DeviceConfig) -> Self {
        let fifo = MemoFifo::with_replacement(config.fifo_depth, config.replacement);
        let mut memo = MemoModule::with_fifo(op, config.policy, fifo);
        if config.arch != ArchMode::Memoized {
            // Baseline has no memoization hardware; the spatial variant
            // reuses across lanes instead of through per-FPU FIFOs.
            memo.set_enabled(false);
        }
        Self {
            fpu: Fpu::new(op),
            memo,
            gate: config.lane_gate().map(AdaptiveGate::new),
        }
    }

    /// The adaptive gate controller, if configured.
    #[must_use]
    pub const fn gate(&self) -> Option<&AdaptiveGate> {
        self.gate.as_ref()
    }

    /// The memoization module.
    #[must_use]
    pub const fn memo(&self) -> &MemoModule {
        &self.memo
    }

    /// The functional unit.
    #[must_use]
    pub const fn fpu(&self) -> &Fpu {
        &self.fpu
    }

    /// Mutable memoization-module access for the snapshot restore path.
    pub(crate) fn memo_mut(&mut self) -> &mut MemoModule {
        &mut self.memo
    }

    /// Mutable FPU access for the snapshot restore path.
    pub(crate) fn fpu_mut(&mut self) -> &mut Fpu {
        &mut self.fpu
    }

    /// Mutable gate-controller access for the snapshot restore path.
    pub(crate) fn gate_mut(&mut self) -> Option<&mut AdaptiveGate> {
        self.gate.as_mut()
    }

    /// Clock-gates the FPU for a result supplied from outside the unit
    /// (spatial, cross-lane reuse). Counts as a squashed instruction.
    pub fn squash_for_reuse(&mut self, now: u64) {
        self.fpu.squash(now);
    }

    /// Resets the memoization statistics, keeping the FIFO contents.
    pub fn reset_stats(&mut self) {
        self.memo.reset_stats();
    }

    /// Issues one instruction at cycle `now`; `error` is the EDS verdict.
    ///
    /// Returns the Table-2 outcome. Pipeline occupancy and FPU counters are
    /// updated on the appropriate path (squash on hits, full execution on
    /// misses and in the baseline).
    pub fn issue(&mut self, operands: Operands, error: bool, now: u64) -> AccessOutcome {
        let op = self.fpu.op();
        // Adaptive power gating: trip / probe per the controller's state.
        if let Some(gate) = &mut self.gate {
            if gate.should_bypass() {
                gate.observe_bypass();
                if self.memo.is_enabled() {
                    self.memo.set_enabled(false);
                }
            } else if !self.memo.is_enabled() {
                self.memo.set_enabled(true);
            }
        }
        let outcome = self
            .memo
            .access(operands, || tm_fpu::compute(op, operands), error);
        if let Some(gate) = &mut self.gate {
            if !outcome.bypassed {
                gate.observe_access(outcome.hit);
            }
        }
        if outcome.hit {
            self.fpu.squash(now);
        } else {
            // The miss path already ran the functional model once (inside
            // the memo probe closure); only account for the execution.
            self.fpu.commit_executed(now);
            debug_assert_eq!(
                tm_fpu::compute(op, operands).to_bits(),
                outcome.result.to_bits()
            );
            if outcome.recovered {
                self.fpu.flush();
            }
        }
        outcome
    }
}

/// A stream core: one SIMD lane of a compute unit, holding a private
/// [`LaneUnit`] — and therefore a private memoization FIFO — per opcode,
/// the granularity at which the paper measures value locality.
///
/// Units materialize on first use. A 27-byte table indexed by
/// [`FpOp::index`] points into a vector holding only the activated
/// units, so finding a lane's unit is an array read while an idle opcode
/// costs one byte.
#[derive(Debug, Clone, Default)]
pub struct StreamCore {
    /// `slot[op.index()]` is one plus the position of `op`'s unit in
    /// `units`, or 0 when `op` never executed here.
    slot: [u8; ALL_OPS.len()],
    units: Vec<LaneUnit>,
}

impl StreamCore {
    /// An empty stream core; units materialize on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The lane unit for `op`, creating it on first use.
    pub fn unit_mut(&mut self, op: FpOp, config: &DeviceConfig) -> &mut LaneUnit {
        let slot = &mut self.slot[op.index()];
        if *slot == 0 {
            self.units.push(LaneUnit::new(op, config));
            // At most `ALL_OPS.len()` (27) units, so the index fits.
            *slot = self.units.len() as u8;
        }
        &mut self.units[usize::from(*slot) - 1]
    }

    /// The lane unit for `op`, if this core ever executed one.
    #[must_use]
    pub fn unit(&self, op: FpOp) -> Option<&LaneUnit> {
        let slot = self.slot[op.index()];
        (slot != 0).then(|| &self.units[usize::from(slot) - 1])
    }

    /// Iterates over the instantiated (activated) units in [`FpOp`]
    /// order.
    pub fn units(&self) -> impl Iterator<Item = (&FpOp, &LaneUnit)> {
        ALL_OPS
            .iter()
            .zip(self.slot)
            .filter(|&(_, slot)| slot != 0)
            .map(|(op, slot)| (op, &self.units[usize::from(slot) - 1]))
    }

    /// Resets every unit's memoization statistics (FIFO contents are
    /// preserved).
    pub fn reset_stats(&mut self) {
        for unit in &mut self.units {
            unit.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::MatchPolicy;

    fn config() -> DeviceConfig {
        DeviceConfig::default()
    }

    #[test]
    fn units_materialize_lazily() {
        let mut sc = StreamCore::new();
        assert!(sc.unit(FpOp::Add).is_none());
        sc.unit_mut(FpOp::Add, &config());
        assert!(sc.unit(FpOp::Add).is_some());
        assert_eq!(sc.units().count(), 1);
    }

    #[test]
    fn units_iterate_in_opcode_order_whatever_the_activation_order() {
        let mut sc = StreamCore::new();
        for op in ALL_OPS.iter().rev() {
            sc.unit_mut(*op, &config());
        }
        let order: Vec<FpOp> = sc.units().map(|(op, _)| *op).collect();
        assert_eq!(order, ALL_OPS);
        for (op, unit) in sc.units() {
            assert_eq!(unit.fpu().op(), *op);
        }
    }

    #[test]
    fn issue_miss_then_hit() {
        let mut unit = LaneUnit::new(FpOp::Add, &config());
        let ops = Operands::binary(1.0, 2.0);
        let a = unit.issue(ops, false, 0);
        assert!(!a.hit);
        assert_eq!(a.result, 3.0);
        let b = unit.issue(ops, false, 1);
        assert!(b.hit);
        assert_eq!(unit.fpu().counters().squashed, 1);
        assert_eq!(unit.memo().stats().hits, 1);
    }

    #[test]
    fn baseline_arch_power_gates_the_module() {
        let cfg = config().rebuild().with_arch(ArchMode::Baseline).build().unwrap();
        let mut unit = LaneUnit::new(FpOp::Mul, &cfg);
        let ops = Operands::binary(2.0, 2.0);
        let a = unit.issue(ops, false, 0);
        let b = unit.issue(ops, false, 1);
        assert!(a.bypassed && b.bypassed && !b.hit);
        assert_eq!(unit.memo().stats().lookups, 0);
    }

    #[test]
    fn approximate_policy_flows_from_config() {
        let cfg = config()
            .rebuild()
            .with_policy(MatchPolicy::threshold(0.5))
            .build()
            .unwrap();
        let mut unit = LaneUnit::new(FpOp::Sqrt, &cfg);
        unit.issue(Operands::unary(4.0), false, 0);
        let out = unit.issue(Operands::unary(4.4), false, 1);
        assert!(out.hit);
        assert_eq!(out.result, 2.0);
    }

    #[test]
    fn adaptive_gate_trips_on_zero_locality_and_probes_back() {
        use tm_core::GatePolicy;
        let cfg = config()
            .rebuild()
            .with_adaptive_gate(GatePolicy {
                window: 4,
                min_hit_rate: 0.5,
                gate_period: 6,
                consecutive_windows: 1,
            })
            .build()
            .unwrap();
        let mut unit = LaneUnit::new(FpOp::Add, &cfg);
        // Distinct operands forever: every probe window re-trips the gate.
        // Cadence: 4 probing accesses, then 6 bypassed, repeating.
        let mut bypassed = 0;
        for i in 0..16 {
            let a = i as f32;
            let out = unit.issue(Operands::binary(a, 1.0), false, i);
            if out.bypassed {
                bypassed += 1;
            }
        }
        // i0–3 probe (trip #1), i4–9 gated, i10–13 probe (trip #2),
        // i14–15 gated.
        assert_eq!(unit.gate().unwrap().times_gated(), 2);
        assert_eq!(bypassed, 8);
        // Four more gated accesses exhaust the second period; the module
        // probes again after that.
        for i in 0..4 {
            let out = unit.issue(Operands::binary(100.0 + i as f32, 1.0), false, 100 + i);
            assert!(out.bypassed);
        }
        let out = unit.issue(Operands::binary(999.0, 1.0), false, 999);
        assert!(!out.bypassed);
    }

    #[test]
    fn adaptive_gate_stays_open_on_high_locality() {
        use tm_core::GatePolicy;
        let cfg = config()
            .rebuild()
            .with_adaptive_gate(GatePolicy {
                window: 4,
                min_hit_rate: 0.5,
                gate_period: 6,
                consecutive_windows: 1,
            })
            .build()
            .unwrap();
        let mut unit = LaneUnit::new(FpOp::Add, &cfg);
        let ops = Operands::binary(1.0, 2.0);
        for i in 0..64 {
            let out = unit.issue(ops, false, i);
            assert!(!out.bypassed);
        }
        assert_eq!(unit.gate().unwrap().times_gated(), 0);
        assert_eq!(unit.memo().stats().hits, 63);
    }

    #[test]
    fn error_on_miss_flushes_pipeline() {
        let mut unit = LaneUnit::new(FpOp::Add, &config());
        let out = unit.issue(Operands::binary(1.0, 1.0), true, 0);
        assert!(out.recovered);
        // The result is still the correct one (replay semantics).
        assert_eq!(out.result, 2.0);
    }
}
