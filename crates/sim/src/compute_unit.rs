//! A compute unit: 16 stream cores plus error/recovery/energy machinery.

use crate::config::{ArchMode, DeviceConfig};
use crate::sink::{LaneEvent, LaneEventKind, LocalitySink, SinkPipeline};
use crate::stream_core::StreamCore;
use crate::trace::TraceBuffer;
use std::collections::BTreeMap;
use tm_core::MemoStats;
use tm_energy::EnergyLedger;
use tm_fpu::{FpOp, Operands};
use tm_timing::{Ecu, ErrorSampler};

pub use crate::sink::OpTally;

/// One compute unit of the device.
///
/// Owns the stream cores (and through them every FPU + memoization module),
/// the per-CU timing-error injector, the error control unit and the
/// accounting [`SinkPipeline`]. The [`ComputeUnit::issue_vector`] method is
/// the execute stage: it walks the wavefront's lanes in sub-wavefront
/// order, routes each lane to its stream core, draws the EDS verdict,
/// consults the memoization module, charges cycles, and describes each
/// lane to the sinks as a [`LaneEvent`] — the sinks (stats, energy, trace,
/// locality) fold the stream into their statistics per the Table-2 action.
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
    sinks: SinkPipeline,
    scratch: IssueScratch,
}

/// Reusable hot-path buffers: grown once, reused for every vector
/// instruction so the steady-state issue loop performs no heap
/// allocation.
#[derive(Debug, Clone, Default)]
struct IssueScratch {
    /// One instruction's lane events in execution (stream-core-major)
    /// order: one contiguous ascending-lane run per stream core.
    events: Vec<LaneEvent>,
    /// Where each stream core's run begins in `events`; advanced as
    /// cursors by the lane-order merge.
    run_cursors: Vec<usize>,
    /// The instruction's events restored to lane order by the cursor
    /// merge (what the sinks fold).
    ordered: Vec<LaneEvent>,
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
            sinks: SinkPipeline::standard(config),
            scratch: IssueScratch::default(),
        }
    }

    /// The instruction-trace buffer (empty unless
    /// [`DeviceConfig::trace_depth`] is non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the trace sink was removed from the pipeline (the
    /// standard pipeline always installs one).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        self.sinks.trace().expect("standard pipeline has a trace sink")
    }

    /// The accounting sink pipeline.
    #[must_use]
    pub const fn sinks(&self) -> &SinkPipeline {
        &self.sinks
    }

    /// The online locality profiler, when
    /// [`DeviceConfig::locality_tracking`] enabled one.
    #[must_use]
    pub fn locality(&self) -> Option<&LocalitySink> {
        self.sinks.locality()
    }

    /// The windowed metrics sink, when [`DeviceConfig::metrics_window`]
    /// installed one.
    #[must_use]
    pub fn metrics(&self) -> Option<&crate::sink::MetricsSink> {
        self.sinks.metrics()
    }

    /// Replaces the CU's sink pipeline wholesale.
    ///
    /// This exists for overhead measurement (e.g. timing an empty
    /// pipeline against a metrics-only one). The standard accessors
    /// ([`ComputeUnit::trace`], [`ComputeUnit::tallies`], reporting)
    /// assume the sinks [`SinkPipeline::standard`] installs, so a device
    /// whose CUs run a custom pipeline can execute kernels but may panic
    /// on reporting paths.
    pub fn install_sinks(&mut self, sinks: SinkPipeline) {
        self.sinks = sinks;
    }

    /// Resets every statistic — memoization counters, energy ledger, ECU
    /// tallies, cycles, per-op tallies, trace — while **keeping the FIFO
    /// contents and gate state**: the measurement boundary the paper's
    /// per-kernel statistics use.
    pub fn reset_stats(&mut self) {
        for sc in &mut self.stream_cores {
            sc.reset_stats();
        }
        self.ecu.reset();
        self.cycles = 0;
        self.sinks.reset();
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
    ///
    /// # Panics
    ///
    /// Panics if the energy sink was removed from the pipeline (the
    /// standard pipeline always installs one).
    #[must_use]
    pub fn ledger(&self) -> &EnergyLedger {
        self.sinks
            .ledger()
            .expect("standard pipeline has an energy sink")
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

    /// Mutable sink-pipeline access for the snapshot restore path.
    pub(crate) fn sinks_mut(&mut self) -> &mut SinkPipeline {
        &mut self.sinks
    }

    /// Restores the cycle counter from a snapshot.
    pub(crate) fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }

    /// Per-opcode instruction tallies.
    ///
    /// # Panics
    ///
    /// Panics if the stats sink was removed from the pipeline (the
    /// standard pipeline always installs one).
    pub fn tallies(&self) -> impl Iterator<Item = (&FpOp, &OpTally)> {
        self.tally_map().iter()
    }

    fn tally_map(&self) -> &BTreeMap<FpOp, OpTally> {
        self.sinks
            .tallies()
            .expect("standard pipeline has a stats sink")
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
    /// (lane events and the spatial reuse table live in per-CU scratch
    /// buffers grown on first use).
    ///
    /// # Panics
    ///
    /// Panics if operand counts or lane lengths are inconsistent with the
    /// opcode and mask.
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

        let stages = op.latency();
        let num_scs = self.config.stream_cores_per_cu;
        // The EDS error probability is a function of (config, op) only —
        // computed once per instruction, not once per lane.
        let rate = self.config.effective_error_rate_for_stages(stages);

        out.clear();
        out.resize(lanes, 0.0f32);
        let mut events = std::mem::take(&mut self.scratch.events);
        events.clear();
        let mut recovery_stall: u64 = 0;
        let mut spatial_hits: u64 = 0;
        let mut spatial_masked: u64 = 0;

        if self.config.arch == ArchMode::Spatial {
            self.issue_spatial(op, srcs, active, rate, out, &mut events, &mut spatial_hits, &mut spatial_masked, &mut recovery_stall);
        } else {
            let mut cursors = std::mem::take(&mut self.scratch.run_cursors);
            cursors.clear();
            recovery_stall =
                self.walk_stream_cores(op, srcs, active, rate, out, &mut events, &mut cursors);
            // Restore lane order (the hardware's sub-wavefront slot
            // order) without sorting: each SC's run is already lane
            // ascending, and an event exists exactly for the active
            // lanes, so walking lanes in order and taking the owning
            // SC's next run element is an O(lanes) stable merge.
            let mut ordered = std::mem::take(&mut self.scratch.ordered);
            ordered.clear();
            for lane in 0..lanes {
                if active[lane] {
                    let cursor = &mut cursors[lane % num_scs];
                    ordered.push(events[*cursor]);
                    *cursor += 1;
                }
            }
            debug_assert_eq!(ordered.len(), events.len());
            std::mem::swap(&mut events, &mut ordered);
            self.scratch.ordered = ordered;
            self.scratch.run_cursors = cursors;
        }

        // Issue occupies one slot per sub-wavefront; lock-step recovery
        // stalls the wavefront for the accumulated penalty.
        self.cycles += self.config.subwavefront_slots() as u64 + recovery_stall;

        let active_lanes = active.iter().filter(|&&a| a).count() as u64;
        self.sinks
            .flush_instruction(op, &events, active_lanes, spatial_hits, spatial_masked);
        self.scratch.events = events;
    }

    /// The stream-core-major walk of one vector instruction: each SC's
    /// memoization unit and injector stream are resolved once per
    /// instruction instead of once per lane, and consecutive accesses
    /// hit the same FIFO. Per-SC injector streams make the draw order
    /// identical to a lane-major walk (each stream still sees its own
    /// lanes in ascending order).
    ///
    /// Each walked SC appends one contiguous ascending-lane run to
    /// `events` and its run start to `cursors`. Returns the accumulated
    /// recovery stall.
    #[allow(clippy::too_many_arguments)]
    fn walk_stream_cores(
        &mut self,
        op: FpOp,
        srcs: &[&[f32]],
        active: &[bool],
        rate: f64,
        out: &mut [f32],
        events: &mut Vec<LaneEvent>,
        cursors: &mut Vec<usize>,
    ) -> u64 {
        let stages = op.latency();
        let lanes = active.len();
        let num_scs = self.config.stream_cores_per_cu;
        let mut recovery_stall: u64 = 0;
        for sc_idx in 0..num_scs.min(lanes) {
            cursors.push(events.len());
            let injector = &mut self.injectors[sc_idx];
            let unit = self.stream_cores[sc_idx].unit_mut(op, &self.config);
            let mut lane = sc_idx;
            while lane < lanes {
                if active[lane] {
                    let mut vals = [0.0f32; tm_fpu::MAX_ARITY];
                    for (k, s) in srcs.iter().enumerate() {
                        vals[k] = s[lane];
                    }
                    let operands = Operands::from_slice(&vals[..op.arity()]);
                    let error = injector.sample_with_rate(rate);
                    let now = self.cycles + (lane / num_scs) as u64;
                    let outcome = unit.issue(operands, error, now);
                    out[lane] = outcome.result;
                    events.push(LaneEvent {
                        op,
                        operands,
                        result: outcome.result,
                        error,
                        stream_core: sc_idx,
                        lane,
                        cycle: now,
                        kind: LaneEventKind::Issue {
                            hit: outcome.hit,
                            bypassed: outcome.bypassed,
                            updated: outcome.updated,
                            recovered: outcome.recovered,
                        },
                    });
                    if outcome.recovered && !outcome.hit {
                        recovery_stall += u64::from(self.ecu.recover(stages));
                    }
                }
                lane += num_scs;
            }
        }
        recovery_stall
    }

    /// The spatial-architecture lane-major issue path (cross-lane reuse
    /// within a sub-wavefront slot makes the walk order-dependent).
    #[allow(clippy::too_many_arguments)]
    fn issue_spatial(
        &mut self,
        op: FpOp,
        srcs: &[&[f32]],
        active: &[bool],
        rate: f64,
        out: &mut [f32],
        events: &mut Vec<LaneEvent>,
        spatial_hits: &mut u64,
        spatial_masked: &mut u64,
        recovery_stall: &mut u64,
    ) {
        let lanes = active.len();
        let num_scs = self.config.stream_cores_per_cu;
        let stages = op.latency();
        let commutative = op.is_commutative();
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
            let mut vals = [0.0f32; tm_fpu::MAX_ARITY];
            for (k, s) in srcs.iter().enumerate() {
                vals[k] = s[lane];
            }
            let operands = Operands::from_slice(&vals[..op.arity()]);
            let error = self.injectors[lane % num_scs].sample_with_rate(rate);
            let now = self.cycles + (lane / num_scs) as u64;

            if let Some(&(_, result)) = slot_table
                .iter()
                .find(|(stored, _)| self.config.policy.matches(&operands, stored, commutative))
            {
                // Broadcast reuse: squash this lane's FPU, mask any
                // timing error for free.
                out[lane] = result;
                let sc = &mut self.stream_cores[lane % num_scs];
                sc.unit_mut(op, &self.config).squash_for_reuse(now);
                *spatial_hits += 1;
                if error {
                    *spatial_masked += 1;
                }
                events.push(LaneEvent {
                    op,
                    operands,
                    result,
                    error,
                    stream_core: lane % num_scs,
                    lane,
                    cycle: now,
                    kind: LaneEventKind::SpatialReuse,
                });
                continue;
            }

            let sc = &mut self.stream_cores[lane % num_scs];
            let outcome = sc.unit_mut(op, &self.config).issue(operands, error, now);
            out[lane] = outcome.result;
            events.push(LaneEvent {
                op,
                operands,
                result: outcome.result,
                error,
                stream_core: lane % num_scs,
                lane,
                cycle: now,
                kind: LaneEventKind::Issue {
                    hit: outcome.hit,
                    bypassed: outcome.bypassed,
                    updated: outcome.updated,
                    recovered: outcome.recovered,
                },
            });
            // The (possibly replayed, therefore correct) result is
            // broadcast for the rest of the slot.
            slot_table.push((operands, outcome.result));
            if outcome.recovered && !outcome.hit {
                *recovery_stall += u64::from(self.ecu.recover(stages));
            }
        }
        self.scratch.slots = slot_table;
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
