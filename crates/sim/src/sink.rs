//! Per-instruction accounting of the execute stage, and the lane
//! observers.
//!
//! [`crate::ComputeUnit::issue_vector_into`] is counts-first: as it walks
//! an instruction's lanes it only adds each lane's Table-2 outcome to a
//! `LaneCounts`, then accounts for the instruction once — its
//! [`OpTally`], the energy ledger (each component charged its
//! per-instruction quantum once per counted lane), and, when
//! [`crate::DeviceConfig::metrics_window`] is set, the [`MetricsSink`].
//! Nothing is stored per lane on that path.
//!
//! Two consumers need every lane, in lane order: the instruction trace
//! ([`crate::TraceBuffer`], when `trace_depth > 0`) and the online
//! [`LocalitySink`]. These are the *lane observers*; only when one is
//! installed does the walk build a [`TraceEvent`] per lane and merge
//! them back into lane order.

use crate::locality::{LocalitySummary, OperandKey, StackDistanceProfile};
use crate::trace::TraceEvent;
use std::collections::HashMap;
use tm_core::AccessOutcome;
use tm_fpu::{FpOp, ALL_OPS};
use tm_obs::WindowedSeries;

/// Per-opcode execution tallies of one compute unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTally {
    /// Lane-level (scalar) instructions issued.
    pub lane_instructions: u64,
    /// Wavefront-level (vector) instructions issued.
    pub vector_instructions: u64,
    /// Lane instructions satisfied by *spatial* (intra-slot) reuse when
    /// the device runs in [`crate::ArchMode::Spatial`].
    pub spatial_hits: u64,
    /// Timing errors masked by spatial reuse.
    pub spatial_masked_errors: u64,
    /// Energy attributed to this opcode's instructions, pJ.
    pub energy_pj: f64,
}

/// How one vector instruction's active lanes were satisfied, counted
/// by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneCounts {
    /// Active lanes.
    pub lanes: u32,
    /// Lanes satisfied by reuse: LUT hits plus spatial reuse.
    pub hits: u32,
    /// Lanes satisfied by spatial (cross-lane) reuse.
    pub spatial_hits: u32,
    /// Lanes the FPU executed.
    pub executed: u32,
    /// Executed lanes that searched the LUT first (not bypassed).
    pub looked_up: u32,
    /// Misses that committed a new LUT entry.
    pub updated: u32,
    /// Lanes that took an ECU recovery.
    pub recovered: u32,
    /// Lanes whose EDS sensors flagged a timing violation.
    pub errors: u32,
    /// Errors masked by reuse (LUT hit or spatial broadcast).
    pub masked: u32,
    /// Errors masked by spatial reuse.
    pub spatial_masked: u32,
}

impl LaneCounts {
    /// Counts a lane that went through its stream core's lane unit.
    #[inline]
    pub fn issue(&mut self, outcome: &AccessOutcome, error: bool) {
        let (hit, error) = (u32::from(outcome.hit), u32::from(error));
        self.lanes += 1;
        self.hits += hit;
        self.executed += 1 - hit;
        self.looked_up += u32::from(!outcome.hit && !outcome.bypassed);
        self.updated += u32::from(outcome.updated);
        self.recovered += u32::from(outcome.recovered);
        self.errors += error;
        self.masked += error & hit;
    }

    /// Counts a lane that reused a concurrent lane's result.
    pub fn spatial_reuse(&mut self, error: bool) {
        let error = u32::from(error);
        self.lanes += 1;
        self.hits += 1;
        self.spatial_hits += 1;
        self.errors += error;
        self.masked += error;
        self.spatial_masked += error;
    }
}

/// Online value-locality profiling — the streaming twin of
/// [`crate::locality::summarize`], which needs no trace buffer (and so
/// no capacity bound): entropy counts and per-(stream core, opcode) LRU
/// stack distances are folded in as lanes arrive, in lane order.
#[derive(Debug, Clone, Default)]
pub struct LocalitySink {
    counts: HashMap<(FpOp, OperandKey), u64>,
    stacks: HashMap<(usize, FpOp), Vec<OperandKey>>,
    profiles: HashMap<FpOp, StackDistanceProfile>,
}

impl LocalitySink {
    /// An empty locality profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The stack-distance profile accumulated for `op`, if any lane
    /// instruction of that opcode was observed.
    #[must_use]
    pub fn profile(&self, op: FpOp) -> Option<&StackDistanceProfile> {
        self.profiles.get(&op)
    }

    /// Per-opcode locality summaries — the same rows
    /// [`crate::locality::summarize`] derives from a recorded trace.
    #[must_use]
    pub fn summaries(&self) -> Vec<LocalitySummary> {
        let mut ops: Vec<FpOp> = self.profiles.keys().copied().collect();
        ops.sort_unstable();
        ops.into_iter()
            .map(|op| {
                let profile = &self.profiles[&op];
                let n = profile.total;
                let mut entropy = 0.0f64;
                let mut distinct = 0usize;
                for (&(o, _), &c) in &self.counts {
                    if o == op {
                        distinct += 1;
                        let p = c as f64 / n as f64;
                        entropy -= p * p.log2();
                    }
                }
                LocalitySummary {
                    op,
                    events: n,
                    entropy_bits: entropy,
                    max_entropy_bits: (distinct as f64).log2().max(0.0),
                    predicted_hit_rates: [
                        profile.hit_rate_at_depth(2),
                        profile.hit_rate_at_depth(4),
                        profile.hit_rate_at_depth(16),
                        profile.hit_rate_at_depth(64),
                    ],
                }
            })
            .collect()
    }
}

impl LocalitySink {
    /// Folds one lane-level instruction into the profile.
    pub fn observe(&mut self, event: &TraceEvent) {
        let key = (event.operands.bits(), event.operands.arity());
        *self.counts.entry((event.op, key)).or_default() += 1;
        let stack = self
            .stacks
            .entry((event.stream_core, event.op))
            .or_default();
        let profile = self.profiles.entry(event.op).or_default();
        profile.total += 1;
        match stack.iter().position(|k| *k == key) {
            Some(pos) => {
                let distance = stack.len() - 1 - pos;
                if profile.histogram.len() <= distance {
                    profile.histogram.resize(distance + 1, 0);
                }
                profile.histogram[distance] += 1;
                let k = stack.remove(pos);
                stack.push(k);
            }
            None => {
                profile.cold += 1;
                stack.push(key);
                // Same 1024-entry bound as the offline profiler: deeper
                // distances are indistinguishable from cold misses.
                if stack.len() > 1024 {
                    stack.remove(0);
                }
            }
        }
    }

    /// Clears the profile (the per-kernel measurement boundary).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.stacks.clear();
        self.profiles.clear();
    }
}

/// Time-windowed metrics: the per-CU half of the observability layer.
///
/// Folds the execute stage's per-instruction counts into
/// [`WindowedSeries`] — one totals series plus one per opcode —
/// resolving lanes, hits, errors, masked errors, recoveries and energy
/// against the issue cycle of each instruction's first lane. Window
/// memory is bounded ([`MetricsSink::MAX_WINDOWS`]): long runs coalesce
/// adjacent windows and double the width, so the steady-state fold path
/// never allocates (proven by `tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct MetricsSink {
    window: u64,
    total: WindowedSeries<METRICS_CHANNELS>,
    // Dense by `FpOp::index()` — the fold path runs once per vector
    // instruction, so per-op lookup must be an array index, not a tree
    // walk.
    per_op: Vec<Option<WindowedSeries<METRICS_CHANNELS>>>,
}

/// Number of channels in each [`MetricsSink`] series (see the channel
/// index constants on [`MetricsSink`]).
pub const METRICS_CHANNELS: usize = 6;

impl MetricsSink {
    /// Channel index: active lanes folded into the window.
    pub const LANES: usize = 0;
    /// Channel index: lanes satisfied by reuse (LUT hit or spatial).
    pub const HITS: usize = 1;
    /// Channel index: timing errors seen.
    pub const ERRORS: usize = 2;
    /// Channel index: errors masked by reuse (hit or spatial broadcast).
    pub const MASKED: usize = 3;
    /// Channel index: ECU recoveries.
    pub const RECOVERIES: usize = 4;
    /// Channel index: energy charged, pJ.
    pub const ENERGY_PJ: usize = 5;
    /// Number of channels per series ([`METRICS_CHANNELS`]).
    pub const CHANNELS: usize = METRICS_CHANNELS;
    /// Maximum retained windows per series before coalescing.
    pub const MAX_WINDOWS: usize = 256;

    /// A sink with the given initial window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self {
            window,
            total: WindowedSeries::new(window, Self::MAX_WINDOWS),
            per_op: vec![None; ALL_OPS.len()],
        }
    }

    fn per_op_series(&mut self, op: FpOp) -> &mut WindowedSeries<METRICS_CHANNELS> {
        let window = self.window;
        self.per_op[op.index()]
            .get_or_insert_with(|| WindowedSeries::new(window, Self::MAX_WINDOWS))
    }

    /// The configured initial window width in cycles.
    #[must_use]
    pub const fn window(&self) -> u64 {
        self.window
    }

    /// The all-opcode series.
    #[must_use]
    pub const fn total(&self) -> &WindowedSeries<METRICS_CHANNELS> {
        &self.total
    }

    /// The series for one opcode, if any instruction of it was observed.
    #[must_use]
    pub fn series(&self, op: FpOp) -> Option<&WindowedSeries<METRICS_CHANNELS>> {
        self.per_op[op.index()].as_ref()
    }

    /// Opcodes with a populated series, in opcode order.
    pub fn ops(&self) -> impl Iterator<Item = FpOp> + '_ {
        self.per_op
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ALL_OPS[i]))
    }

    /// Installs restored series wholesale (the snapshot restore path);
    /// the per-op table is rebuilt dense by [`FpOp::index`].
    pub(crate) fn restore_series(
        &mut self,
        total: WindowedSeries<METRICS_CHANNELS>,
        per_op: Vec<(FpOp, WindowedSeries<METRICS_CHANNELS>)>,
    ) {
        self.total = total;
        self.per_op = vec![None; ALL_OPS.len()];
        for (op, series) in per_op {
            self.per_op[op.index()] = Some(series);
        }
    }

    /// Per-window hit rate of the totals series:
    /// `(window_start_cycle, window_cycles, hits / lanes)` for every
    /// window with at least one lane.
    #[must_use]
    pub fn hit_rate_windows(&self) -> Vec<(u64, u64, f64)> {
        let width = self.total.width();
        self.total
            .iter_windows()
            .filter(|(_, w)| w[Self::LANES] > 0.0)
            .map(|(start, w)| (start, width, w[Self::HITS] / w[Self::LANES]))
            .collect()
    }

    /// Folds one vector instruction into the window containing its first
    /// active lane's issue cycle: its lane counts and the energy it was
    /// charged. The counts are exact integers; only the sample converts
    /// to `f64`.
    pub(crate) fn fold_instruction(
        &mut self,
        op: FpOp,
        cycle: u64,
        counts: &LaneCounts,
        energy_pj: f64,
    ) {
        let mut sample = [0.0f64; METRICS_CHANNELS];
        sample[Self::LANES] = f64::from(counts.lanes);
        sample[Self::HITS] = f64::from(counts.hits);
        sample[Self::ERRORS] = f64::from(counts.errors);
        sample[Self::MASKED] = f64::from(counts.masked);
        sample[Self::RECOVERIES] = f64::from(counts.recovered);
        sample[Self::ENERGY_PJ] = energy_pj;
        self.total.fold(cycle, &sample);
        self.per_op_series(op).fold(cycle, &sample);
    }

    /// Clears every window, keeping the per-op series allocated.
    pub fn reset(&mut self) {
        self.total.reset();
        for series in self.per_op.iter_mut().flatten() {
            series.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::Action;
    use tm_fpu::Operands;

    fn outcome(hit: bool, bypassed: bool, updated: bool, recovered: bool) -> AccessOutcome {
        AccessOutcome {
            result: 1.0,
            hit,
            action: Action::NormalExecutionAndUpdate,
            masked_error: false,
            recovered,
            updated,
            bypassed,
        }
    }

    fn event(v: f32, sc: usize) -> TraceEvent {
        TraceEvent {
            op: FpOp::Mul,
            operands: Operands::unary(v),
            result: v,
            hit: false,
            error: false,
            stream_core: sc,
            lane: sc,
            cycle: 0,
        }
    }

    #[test]
    fn lane_counts_classify_every_table2_outcome() {
        let mut c = LaneCounts::default();
        c.issue(&outcome(true, false, false, false), true); // masked hit
        c.issue(&outcome(false, false, true, false), false); // miss + update
        c.issue(&outcome(false, false, false, true), true); // miss + recovery
        c.issue(&outcome(false, true, false, true), true); // gated + recovery
        c.spatial_reuse(true);
        assert_eq!(
            c,
            LaneCounts {
                lanes: 5,
                hits: 2,
                spatial_hits: 1,
                executed: 3,
                looked_up: 2,
                updated: 1,
                recovered: 2,
                errors: 4,
                masked: 2,
                spatial_masked: 1,
            }
        );
    }

    #[test]
    fn locality_sink_matches_offline_profile() {
        // A B A B … on one stream core: the online profile must equal
        // the offline one computed from an equivalent trace.
        let mut sink = LocalitySink::new();
        let mut trace = Vec::new();
        for i in 0..20 {
            let e = event(if i % 2 == 0 { 1.0 } else { 2.0 }, 0);
            sink.observe(&e);
            trace.push(e);
        }
        let offline = StackDistanceProfile::from_events(trace.iter());
        assert_eq!(sink.profile(FpOp::Mul), Some(&offline));
        let rows = sink.summaries();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].entropy_bits - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].events, 20);
        sink.reset();
        assert!(sink.summaries().is_empty());
    }

    #[test]
    fn metrics_sink_windows_lanes_hits_and_energy() {
        let mut sink = MetricsSink::new(8);
        // Window 0: two hits, one miss-with-recovery; window 2: one miss.
        let mut first = LaneCounts::default();
        first.issue(&outcome(true, false, false, false), false);
        first.issue(&outcome(true, false, false, false), false);
        first.issue(&outcome(false, false, false, true), true);
        sink.fold_instruction(FpOp::Add, 0, &first, 2.5);
        let mut later = LaneCounts::default();
        later.issue(&outcome(false, false, true, false), false);
        sink.fold_instruction(FpOp::Add, 16, &later, 0.0);

        let total = sink.total();
        assert_eq!(total.windows().len(), 3);
        let w0 = total.windows()[0];
        assert_eq!(w0[MetricsSink::LANES], 3.0);
        assert_eq!(w0[MetricsSink::HITS], 2.0);
        assert_eq!(w0[MetricsSink::ERRORS], 1.0);
        assert_eq!(w0[MetricsSink::MASKED], 0.0);
        assert_eq!(w0[MetricsSink::RECOVERIES], 1.0);
        assert_eq!(w0[MetricsSink::ENERGY_PJ], 2.5);
        assert_eq!(total.windows()[2][MetricsSink::LANES], 1.0);

        let rates = sink.hit_rate_windows();
        assert_eq!(rates.len(), 2);
        assert!((rates[0].2 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rates[1], (16, 8, 0.0));
        assert_eq!(sink.ops().collect::<Vec<_>>(), vec![FpOp::Add]);
        assert_eq!(sink.series(FpOp::Add).unwrap().windows(), total.windows());

        sink.reset();
        assert!(sink.total().is_empty());
        assert!(
            sink.series(FpOp::Add).unwrap().is_empty(),
            "entries survive reset empty"
        );
    }
}
