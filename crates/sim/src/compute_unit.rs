//! A compute unit: 16 stream cores plus error/recovery/energy machinery.
//!
//! The execute stage ([`ComputeUnit::issue_vector_into`]) does per lane
//! only what the modelled hardware does per lane — one LUT search, one
//! FP evaluation on a miss, one EDS verdict — and folds each lane's
//! outcome into per-instruction counts. Tallies, energy and windowed
//! metrics are then charged once per instruction (see [`crate::sink`]).
//! Per-lane records and their lane-order merge exist only while a lane
//! observer (the trace or the locality profiler) is installed.

use crate::config::{ArchMode, DeviceConfig};
use crate::sink::{LaneCounts, LocalitySink, MetricsSink};
use crate::stream_core::StreamCore;
use crate::trace::{TraceBuffer, TraceEvent};
use std::collections::BTreeMap;
use tm_core::{AccessOutcome, MemoStats};
use tm_energy::{EnergyBreakdown, EnergyLedger};
use tm_fpu::{FpOp, Operands};
use tm_timing::{Ecu, ErrorRate, ErrorSampler};

pub use crate::sink::OpTally;

/// One compute unit of the device.
///
/// Owns the stream cores (and through them every FPU + memoization module),
/// the per-CU timing-error injector, the error control unit and the
/// accounting state: per-op tallies, the energy ledger, the optional
/// windowed metrics and the lane observers. The
/// [`ComputeUnit::issue_vector`] method is the execute stage: it walks
/// the wavefront's lanes stream core by stream core, draws each lane's
/// EDS verdict, consults the memoization module and charges cycles, then
/// accounts for the instruction per the Table-2 actions its lanes took.
#[derive(Debug, Clone)]
pub struct ComputeUnit {
    config: DeviceConfig,
    stream_cores: Vec<StreamCore>,
    /// One decorrelated error-injection stream **per stream core**,
    /// built by the configured [`tm_timing::ErrorModel`]: the EDS
    /// verdict of a lane depends only on (CU seed, its stream core,
    /// how many instructions that stream core has issued) — never on
    /// which other stream cores ran in between. This is what lets the
    /// issue loop walk stream-core-major (see
    /// [`ComputeUnit::issue_vector_into`]) and draw exactly what a
    /// lane-major walk would; the goldens and the snapshot format pin
    /// this per-stream-core draw order.
    injectors: Vec<ErrorSampler>,
    ecu: Ecu,
    cycles: u64,
    tallies: BTreeMap<FpOp, OpTally>,
    ledger: EnergyLedger,
    /// Dynamic-energy scale of the FPUs at the configured supply.
    energy_scale: f64,
    metrics: Option<MetricsSink>,
    /// Lane observer: the instruction trace (disabled at capacity 0).
    trace: TraceBuffer,
    /// Lane observer: the online locality profiler.
    locality: Option<LocalitySink>,
    scratch: IssueScratch,
}

/// Reusable hot-path buffers: grown once, reused for every vector
/// instruction so the steady-state issue loop performs no heap
/// allocation.
#[derive(Debug, Clone, Default)]
struct IssueScratch {
    /// One instruction's lane records in execution (stream-core-major)
    /// order, built only for the lane observers.
    lanes: Vec<TraceEvent>,
    /// Where each stream core's run begins in `lanes`; advanced as
    /// cursors by the lane-order merge.
    run_cursors: Vec<usize>,
    /// The lane records in lane order (what the observers see).
    ordered: Vec<TraceEvent>,
    /// Spatial-mode intra-slot reuse table.
    slots: Vec<(Operands, f32)>,
}

impl ComputeUnit {
    /// Builds a compute unit; `index` decorrelates the error-injection
    /// seed across CUs via [`tm_rng::child_seed`] (and a SplitMix64
    /// stream decorrelates it across the unit's stream cores). The
    /// per-SC samplers come from the configured
    /// [`DeviceConfig::error_model`].
    #[must_use]
    pub fn new(config: &DeviceConfig, index: usize) -> Self {
        let seed = tm_rng::child_seed(config.seed, index as u64);
        let mut sc_seeds = tm_rng::SplitMix64::new(seed);
        let model = config
            .error_model
            .instantiate(config.vdd, &config.voltage_model);
        Self {
            config: config.clone(),
            stream_cores: (0..config.stream_cores_per_cu)
                .map(|_| StreamCore::new())
                .collect(),
            injectors: (0..config.stream_cores_per_cu)
                .map(|sc| model.build_sampler(index, sc, sc_seeds.next_u64()))
                .collect(),
            ecu: Ecu::new(config.recovery),
            cycles: 0,
            tallies: BTreeMap::new(),
            ledger: EnergyLedger::new(),
            energy_scale: config.dynamic_scale(),
            metrics: config.metrics_window.map(MetricsSink::new),
            trace: TraceBuffer::new(config.trace_depth),
            locality: config.locality_tracking.then(LocalitySink::new),
            scratch: IssueScratch::default(),
        }
    }

    /// The instruction-trace buffer (empty unless
    /// [`DeviceConfig::trace_depth`] is non-zero).
    #[must_use]
    pub const fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The online locality profiler, when
    /// [`DeviceConfig::locality_tracking`] enabled one.
    #[must_use]
    pub const fn locality(&self) -> Option<&LocalitySink> {
        self.locality.as_ref()
    }

    /// The windowed metrics, when [`DeviceConfig::metrics_window`]
    /// installed them.
    #[must_use]
    pub const fn metrics(&self) -> Option<&MetricsSink> {
        self.metrics.as_ref()
    }

    /// Resets every statistic — memoization counters, energy ledger, ECU
    /// tallies, cycles, per-op tallies, metrics, trace, locality — while
    /// **keeping the FIFO contents and gate state**: the measurement
    /// boundary the paper's per-kernel statistics use.
    pub fn reset_stats(&mut self) {
        for sc in &mut self.stream_cores {
            sc.reset_stats();
        }
        self.ecu.reset();
        self.cycles = 0;
        self.tallies.clear();
        self.ledger.reset();
        if let Some(metrics) = &mut self.metrics {
            metrics.reset();
        }
        self.trace.clear();
        if let Some(locality) = &mut self.locality {
            locality.reset();
        }
    }

    /// The device configuration this CU was built with.
    #[must_use]
    pub const fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Elapsed cycles (issue slots plus recovery stalls).
    #[must_use]
    pub const fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The energy ledger.
    #[must_use]
    pub const fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The error control unit.
    #[must_use]
    pub const fn ecu(&self) -> &Ecu {
        &self.ecu
    }

    /// Total timing violations injected so far (summed over the per-SC
    /// streams).
    #[must_use]
    pub fn errors_injected(&self) -> u64 {
        self.injectors.iter().map(ErrorSampler::errors).sum()
    }

    /// The stream cores.
    #[must_use]
    pub fn stream_cores(&self) -> &[StreamCore] {
        &self.stream_cores
    }

    /// The per-stream-core error-injection samplers, for snapshots.
    pub(crate) fn injectors(&self) -> &[ErrorSampler] {
        &self.injectors
    }

    /// Mutable sampler access for the snapshot restore path.
    pub(crate) fn injectors_mut(&mut self) -> &mut [ErrorSampler] {
        &mut self.injectors
    }

    /// Mutable stream-core access for the snapshot restore path.
    pub(crate) fn stream_cores_mut(&mut self) -> &mut [StreamCore] {
        &mut self.stream_cores
    }

    /// Mutable ECU access for the snapshot restore path.
    pub(crate) fn ecu_mut(&mut self) -> &mut Ecu {
        &mut self.ecu
    }

    /// Mutable tally access for the snapshot restore path.
    pub(crate) fn tallies_mut(&mut self) -> &mut BTreeMap<FpOp, OpTally> {
        &mut self.tallies
    }

    /// Mutable ledger access for the snapshot restore path.
    pub(crate) fn ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.ledger
    }

    /// Mutable metrics access for the snapshot restore path.
    pub(crate) fn metrics_mut(&mut self) -> Option<&mut MetricsSink> {
        self.metrics.as_mut()
    }

    /// Restores the cycle counter from a snapshot.
    pub(crate) fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }

    /// Per-opcode instruction tallies, in opcode order.
    pub fn tallies(&self) -> impl Iterator<Item = (&FpOp, &OpTally)> {
        self.tallies.iter()
    }

    /// Aggregated memoization statistics for `op` across this CU's cores.
    #[must_use]
    pub fn op_stats(&self, op: FpOp) -> MemoStats {
        self.stream_cores
            .iter()
            .filter_map(|sc| sc.unit(op))
            .map(|u| u.memo().stats())
            .sum()
    }

    /// Issues one wavefront-wide vector instruction.
    ///
    /// `srcs` holds one slice per source operand, each `lanes` long;
    /// `active` is the execution mask. Lanes are walked in increasing
    /// order, which on the `lane → SC (lane mod 16)` mapping is exactly
    /// the sub-wavefront slot order of the hardware — the property that
    /// shapes each FIFO's operand stream.
    ///
    /// Returns the per-lane results (inactive lanes produce `0.0`).
    ///
    /// # Panics
    ///
    /// Panics if operand counts or lane lengths are inconsistent with the
    /// opcode and mask.
    pub fn issue_vector(&mut self, op: FpOp, srcs: &[&[f32]], active: &[bool]) -> Vec<f32> {
        let mut out = Vec::new();
        self.issue_vector_into(op, srcs, active, &mut out);
        out
    }

    /// [`ComputeUnit::issue_vector`] writing into a caller-owned result
    /// buffer: the steady-state hot path performs **no heap allocation**
    /// (lane records and the spatial reuse table live in per-CU scratch
    /// buffers grown on first use).
    ///
    /// # Panics
    ///
    /// Panics if operand counts or lane lengths are inconsistent with the
    /// opcode and mask, or if the configured error rate for `op` is not a
    /// probability.
    pub fn issue_vector_into(
        &mut self,
        op: FpOp,
        srcs: &[&[f32]],
        active: &[bool],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(srcs.len(), op.arity(), "{op} arity mismatch");
        let lanes = active.len();
        for s in srcs {
            assert_eq!(s.len(), lanes, "operand vector length mismatch");
        }

        let num_scs = self.config.stream_cores_per_cu;
        // The EDS error probability is a function of (config, op) only —
        // computed and checked once per instruction, not once per lane.
        let rate = self.config.effective_error_rate_for_stages(op.latency());
        let rate = ErrorRate::new(rate)
            .unwrap_or_else(|| panic!("error rate must be a probability, got {rate}"));

        out.clear();
        out.resize(lanes, 0.0f32);
        let observe = self.trace.is_enabled() || self.locality.is_some();
        let mut records = std::mem::take(&mut self.scratch.ordered);
        records.clear();
        let energy_before = self.ledger.total_pj();

        let (counts, recovery_stall) = if self.config.arch == ArchMode::Spatial {
            // The spatial walk is lane-major and charges the ledger as it
            // goes; its records are already in lane order.
            self.issue_spatial(op, srcs, active, rate, out, observe.then_some(&mut records))
        } else {
            let mut walked = std::mem::take(&mut self.scratch.lanes);
            let mut cursors = std::mem::take(&mut self.scratch.run_cursors);
            walked.clear();
            cursors.clear();
            let (counts, stall) = self.walk_stream_cores(
                op,
                srcs,
                active,
                rate,
                out,
                observe.then_some((&mut walked, &mut cursors)),
            );
            if counts.lanes > 0 {
                let quanta = self.energy_quanta(op);
                self.charge_counts(&quanta, &counts);
            }
            if observe {
                // Restore lane order (the hardware's sub-wavefront slot
                // order) without sorting: each SC's run is already lane
                // ascending, and a record exists exactly for the active
                // lanes, so walking lanes in order and taking the owning
                // SC's next run element is an O(lanes) stable merge.
                for lane in 0..lanes {
                    if active[lane] {
                        let cursor = &mut cursors[lane % num_scs];
                        records.push(walked[*cursor]);
                        *cursor += 1;
                    }
                }
                debug_assert_eq!(records.len(), walked.len());
            }
            self.scratch.lanes = walked;
            self.scratch.run_cursors = cursors;
            (counts, stall)
        };

        // The window an instruction lands in is its first active lane's
        // issue cycle (0 when no lane is active).
        let first_cycle = active
            .iter()
            .position(|&a| a)
            .map_or(0, |lane| self.cycles + (lane / num_scs) as u64);

        // Issue occupies one slot per sub-wavefront; lock-step recovery
        // stalls the wavefront for the accumulated penalty.
        self.cycles += self.config.subwavefront_slots() as u64 + recovery_stall;

        for record in &records {
            self.trace.record(*record);
            if let Some(locality) = &mut self.locality {
                locality.observe(record);
            }
        }
        self.scratch.ordered = records;

        let energy_pj = self.ledger.total_pj() - energy_before;
        let tally = self.tallies.entry(op).or_default();
        tally.vector_instructions += 1;
        tally.lane_instructions += u64::from(counts.lanes);
        tally.spatial_hits += u64::from(counts.spatial_hits);
        tally.spatial_masked_errors += u64::from(counts.spatial_masked);
        tally.energy_pj += energy_pj;
        if let Some(metrics) = &mut self.metrics {
            metrics.fold_instruction(op, first_cycle, &counts, energy_pj);
        }
    }

    /// The energy one counted lane of an `op` instruction charges to
    /// each ledger component.
    fn energy_quanta(&self, op: FpOp) -> EnergyBreakdown {
        let model = &self.config.energy_model;
        let scale = self.energy_scale;
        EnergyBreakdown {
            fpu_exec_pj: model.exec_energy(op, scale),
            hit_pj: model.hit_energy(op, scale),
            lut_lookup_pj: model.lut_lookup_energy(),
            lut_update_pj: model.lut_update_energy(),
            recovery_pj: model.recovery_energy(op, self.config.recovery, scale),
        }
    }

    /// Charges `counts` to the ledger, each component its quantum once
    /// per counted lane. Within one memoized- or baseline-architecture
    /// instruction every charge a component receives is the same
    /// quantum, so this reproduces the lane-by-lane sum bit for bit.
    fn charge_counts(&mut self, quanta: &EnergyBreakdown, counts: &LaneCounts) {
        self.ledger.charge_repeated(
            quanta,
            [
                counts.executed,
                counts.hits,
                counts.looked_up,
                counts.updated,
                counts.recovered,
            ],
        );
    }

    /// The stream-core-major walk of one vector instruction: each SC's
    /// memoization unit and injector stream are resolved once per
    /// instruction instead of once per lane, and consecutive accesses
    /// hit the same FIFO. Per-SC injector streams make the draw order
    /// identical to a lane-major walk (each stream still sees its own
    /// lanes in ascending order).
    ///
    /// With `records`, each walked SC also appends one contiguous
    /// ascending-lane run of lane records and its run start to the
    /// cursors. Returns the instruction's lane counts and its
    /// accumulated recovery stall.
    fn walk_stream_cores(
        &mut self,
        op: FpOp,
        srcs: &[&[f32]],
        active: &[bool],
        rate: ErrorRate,
        out: &mut [f32],
        mut records: Option<(&mut Vec<TraceEvent>, &mut Vec<usize>)>,
    ) -> (LaneCounts, u64) {
        let stages = op.latency();
        let lanes = active.len();
        let num_scs = self.config.stream_cores_per_cu;
        let mut counts = LaneCounts::default();
        let mut recovery_stall: u64 = 0;
        for sc_idx in 0..num_scs.min(lanes) {
            if let Some((walked, cursors)) = &mut records {
                cursors.push(walked.len());
            }
            let injector = &mut self.injectors[sc_idx];
            let unit = self.stream_cores[sc_idx].unit_mut(op, &self.config);
            // One sub-wavefront slot per step: lane `sc + k·num_scs`
            // issues at cycle `cycles + k`.
            for (now, lane) in (self.cycles..).zip((sc_idx..lanes).step_by(num_scs)) {
                if active[lane] {
                    let operands = lane_operands(srcs, lane);
                    let error = injector.sample(rate);
                    let outcome = unit.issue(operands, error, now);
                    out[lane] = outcome.result;
                    counts.issue(&outcome, error);
                    if let Some((walked, _)) = &mut records {
                        walked.push(record(op, operands, &outcome, error, sc_idx, lane, now));
                    }
                    if outcome.recovered && !outcome.hit {
                        recovery_stall += u64::from(self.ecu.recover(stages));
                    }
                }
            }
        }
        (counts, recovery_stall)
    }

    /// The spatial-architecture lane-major issue path (cross-lane reuse
    /// within a sub-wavefront slot makes the walk order-dependent).
    ///
    /// Unlike the stream-core walk, `hit_pj` receives two different
    /// quanta here (spatial reuse and FIFO hit), so the ledger is charged
    /// lane by lane, in lane order, as the walk goes. Returns the lane
    /// counts and the accumulated recovery stall.
    fn issue_spatial(
        &mut self,
        op: FpOp,
        srcs: &[&[f32]],
        active: &[bool],
        rate: ErrorRate,
        out: &mut [f32],
        mut records: Option<&mut Vec<TraceEvent>>,
    ) -> (LaneCounts, u64) {
        let lanes = active.len();
        let num_scs = self.config.stream_cores_per_cu;
        let stages = op.latency();
        let commutative = op.is_commutative();
        let quanta = self.energy_quanta(op);
        let reuse_pj = self
            .config
            .energy_model
            .spatial_reuse_energy(op, self.energy_scale);
        let mut counts = LaneCounts::default();
        let mut recovery_stall = 0;
        // Spatial reuse table: the distinct operand sets executed so far
        // within the *current* sub-wavefront slot, with their results.
        let mut slot_table = std::mem::take(&mut self.scratch.slots);
        slot_table.clear();

        for lane in 0..lanes {
            if !active[lane] {
                continue;
            }
            if lane % num_scs == 0 {
                // A new slot's 16 lanes execute concurrently; reuse does
                // not cross slot boundaries.
                slot_table.clear();
            }
            let sc_idx = lane % num_scs;
            let operands = lane_operands(srcs, lane);
            let error = self.injectors[sc_idx].sample(rate);
            let now = self.cycles + (lane / num_scs) as u64;

            if let Some(&(_, result)) = slot_table
                .iter()
                .find(|(stored, _)| self.config.policy.matches(&operands, stored, commutative))
            {
                // Broadcast reuse: squash this lane's FPU, mask any
                // timing error for free.
                out[lane] = result;
                let sc = &mut self.stream_cores[sc_idx];
                sc.unit_mut(op, &self.config).squash_for_reuse(now);
                counts.spatial_reuse(error);
                self.ledger.charge_hit(reuse_pj);
                if let Some(records) = &mut records {
                    records.push(TraceEvent {
                        op,
                        operands,
                        result,
                        hit: true,
                        error,
                        stream_core: sc_idx,
                        lane,
                        cycle: now,
                    });
                }
                continue;
            }

            let sc = &mut self.stream_cores[sc_idx];
            let outcome = sc.unit_mut(op, &self.config).issue(operands, error, now);
            out[lane] = outcome.result;
            counts.issue(&outcome, error);
            // Charged now, in lane order; the cross-lane comparators cost
            // about one more LUT search.
            let mut lane_counts = LaneCounts::default();
            lane_counts.issue(&outcome, error);
            lane_counts.looked_up += 1;
            self.charge_counts(&quanta, &lane_counts);
            if let Some(records) = &mut records {
                records.push(record(op, operands, &outcome, error, sc_idx, lane, now));
            }
            // The (possibly replayed, therefore correct) result is
            // broadcast for the rest of the slot.
            slot_table.push((operands, outcome.result));
            if outcome.recovered && !outcome.hit {
                recovery_stall += u64::from(self.ecu.recover(stages));
            }
        }
        self.scratch.slots = slot_table;
        (counts, recovery_stall)
    }
}

/// One lane's operands, built from a fixed array by the op's arity.
#[inline]
fn lane_operands(srcs: &[&[f32]], lane: usize) -> Operands {
    match *srcs {
        [a] => Operands::unary(a[lane]),
        [a, b] => Operands::binary(a[lane], b[lane]),
        [a, b, c] => Operands::ternary(a[lane], b[lane], c[lane]),
        _ => unreachable!("arity checked against the opcode"),
    }
}

/// The lane record the observers see for an issued lane.
fn record(
    op: FpOp,
    operands: Operands,
    outcome: &AccessOutcome,
    error: bool,
    stream_core: usize,
    lane: usize,
    cycle: u64,
) -> TraceEvent {
    TraceEvent {
        op,
        operands,
        result: outcome.result,
        hit: outcome.hit,
        error,
        stream_core,
        lane,
        cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchMode, ErrorMode};

    fn cu(config: &DeviceConfig) -> ComputeUnit {
        ComputeUnit::new(config, 0)
    }

    #[test]
    fn issue_vector_computes_per_lane() {
        let config = DeviceConfig::default();
        let mut cu = cu(&config);
        let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let b = vec![1.0f32; 64];
        let out = cu.issue_vector(FpOp::Add, &[&a, &b], &[true; 64]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0);
        }
        assert_eq!(cu.tallies().next().unwrap().1.lane_instructions, 64);
    }

    #[test]
    fn inactive_lanes_do_not_execute() {
        let config = DeviceConfig::default();
        let mut cu = cu(&config);
        let a = vec![2.0f32; 64];
        let mut active = vec![false; 64];
        active[3] = true;
        let out = cu.issue_vector(FpOp::Sqrt, &[&a], &active);
        assert_eq!(out[3], 2.0f32.sqrt());
        assert_eq!(out[4], 0.0);
        assert_eq!(cu.op_stats(FpOp::Sqrt).lookups, 1);
    }

    #[test]
    fn constant_operands_hit_after_warmup() {
        let config = DeviceConfig::default();
        let mut cu = cu(&config);
        let a = vec![3.0f32; 64];
        let active = vec![true; 64];
        cu.issue_vector(FpOp::Sqrt, &[&a], &active);
        cu.issue_vector(FpOp::Sqrt, &[&a], &active);
        let stats = cu.op_stats(FpOp::Sqrt);
        // 16 cold misses (one per SC FIFO), everything else hits.
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.hits, 128 - 16);
    }

    #[test]
    fn cycles_advance_by_slots() {
        let config = DeviceConfig::default();
        let mut cu = cu(&config);
        let a = vec![1.0f32; 64];
        let active = vec![true; 64];
        cu.issue_vector(FpOp::Neg, &[&a], &active);
        assert_eq!(cu.cycles(), 4);
    }

    #[test]
    fn errors_charge_recovery_in_baseline() {
        let config = DeviceConfig::builder()
            .with_arch(ArchMode::Baseline)
            .with_error_mode(ErrorMode::FixedRate(1.0)).build().unwrap();
        let mut cu = cu(&config);
        let a = vec![1.0f32; 64];
        let active = vec![true; 64];
        cu.issue_vector(FpOp::Add, &[&a, &a], &active);
        assert_eq!(cu.ecu().recoveries(), 64);
        assert!(cu.ledger().breakdown().recovery_pj > 0.0);
        // 4 issue slots + 64 recoveries * 12 cycles.
        assert_eq!(cu.cycles(), 4 + 64 * 12);
    }

    #[test]
    fn memoized_arch_masks_hit_errors() {
        let config = DeviceConfig::builder().with_error_mode(ErrorMode::FixedRate(1.0)).build().unwrap();
        let mut cu = cu(&config);
        let a = vec![1.0f32; 64];
        let active = vec![true; 64];
        // Warm the FIFOs: all 64 lanes recover (miss + error, no update...)
        cu.issue_vector(FpOp::Add, &[&a, &a], &active);
        // With a 100% error rate nothing was committed (W_en gated), so
        // recoveries keep happening — Table 2 row {0,1} has no update.
        let stats = cu.op_stats(FpOp::Add);
        assert_eq!(stats.recoveries, 64);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn memoized_arch_masks_errors_after_preload_via_update_path() {
        // At a moderate error rate some misses commit, after which hits
        // mask subsequent errors.
        let config = DeviceConfig::builder().with_error_mode(ErrorMode::FixedRate(0.3)).build().unwrap();
        let mut cu = cu(&config);
        let a = vec![1.0f32; 64];
        let active = vec![true; 64];
        for _ in 0..4 {
            cu.issue_vector(FpOp::Add, &[&a, &a], &active);
        }
        let stats = cu.op_stats(FpOp::Add);
        assert!(stats.masked_errors > 0, "hits should have masked errors");
        assert!(stats.is_consistent());
    }

    #[test]
    fn seeds_decorrelate_across_cus() {
        let config = DeviceConfig::builder().with_error_mode(ErrorMode::FixedRate(0.5)).build().unwrap();
        let mut a = ComputeUnit::new(&config, 0);
        let mut b = ComputeUnit::new(&config, 1);
        let x = vec![1.0f32; 64];
        let active = vec![true; 64];
        // A single instruction's error *count* can collide across seeds
        // (64 Bernoulli draws); the running count after each of 8
        // instructions collides with negligible probability.
        let trajectory = |cu: &mut ComputeUnit| -> Vec<u64> {
            (0..8)
                .map(|_| {
                    cu.issue_vector(FpOp::Add, &[&x, &x], &active);
                    cu.errors_injected()
                })
                .collect()
        };
        let ta = trajectory(&mut a);
        let tb = trajectory(&mut b);
        assert_ne!(*ta.last().unwrap(), 0);
        assert_ne!(ta, tb, "CUs with different seeds should not be in lock-step");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_checked() {
        let config = DeviceConfig::default();
        let mut cu = cu(&config);
        let a = vec![1.0f32; 64];
        let _ = cu.issue_vector(FpOp::Add, &[&a], &[true; 64]);
    }

    #[test]
    fn spatial_reuse_lanes_are_traced_and_tallied_as_hits() {
        let config = DeviceConfig::builder()
            .with_arch(ArchMode::Spatial)
            .with_trace_depth(64)
            .build()
            .unwrap();
        let mut cu = cu(&config);
        let a = vec![1.0f32; 64];
        cu.issue_vector(FpOp::Add, &[&a, &a], &[true; 64]);
        // Each 16-lane slot executes its first lane and broadcasts to
        // the other 15.
        let hits: Vec<usize> = cu
            .trace()
            .events()
            .filter(|e| e.hit)
            .map(|e| e.lane)
            .collect();
        assert_eq!(hits.len(), 60);
        assert!(hits.iter().all(|lane| lane % 16 != 0));
        let tally = cu.tallies().next().unwrap().1;
        assert_eq!((tally.lane_instructions, tally.spatial_hits), (64, 60));
        assert!(cu.ledger().breakdown().hit_pj > 0.0);
    }

    #[test]
    fn locality_sink_tracks_streams_online() {
        let config = DeviceConfig::builder().with_locality_tracking().build().unwrap();
        let mut cu = cu(&config);
        let a = vec![3.0f32; 64];
        let active = vec![true; 64];
        cu.issue_vector(FpOp::Sqrt, &[&a], &active);
        cu.issue_vector(FpOp::Sqrt, &[&a], &active);
        let rows = cu.locality().expect("locality enabled").summaries();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].events, 128);
        // A constant stream: zero entropy, perfect depth-2 reuse after
        // each FIFO's cold miss.
        assert_eq!(rows[0].entropy_bits, 0.0);
        assert!(rows[0].predicted_hit_rates[0] > 0.85);
    }
}
