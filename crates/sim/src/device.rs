//! The top-level device: dispatch and reporting.

use crate::compiled::CompiledProgram;
use crate::compute_unit::ComputeUnit;
use crate::config::{DeviceConfig, ExecBackend};
use crate::engine::{ExecEngine, ParallelEngine, Schedule, SequentialEngine};
use crate::intra_cu::IntraCuEngine;
use crate::locality::LocalitySummary;
use crate::obs::DeviceObs;
use crate::program::{Bindings, VProgram};
use crate::report::{DeviceReport, OpReport};
use tm_core::MemoStats;
use tm_fpu::ALL_OPS;
use tm_obs::{ArgValue, SharedRecorder, TelemetryHub};

/// A simulated Evergreen-style GPGPU.
///
/// See the crate-level docs for the architecture and an end-to-end
/// example.
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    compute_units: Vec<ComputeUnit>,
    wavefronts_dispatched: u64,
    obs: Option<DeviceObs>,
}

/// Wall-clock and per-CU cycle snapshots taken just before a launch
/// (only when a recorder or hub is attached).
struct LaunchMark {
    wall: std::time::Instant,
    start_us: u64,
    cu_cycles: Vec<u64>,
}

impl Device {
    /// Builds a device from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`DeviceConfig::validate`]).
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        config.validate();
        let compute_units = (0..config.compute_units)
            .map(|i| ComputeUnit::new(&config, i))
            .collect();
        Self {
            config,
            compute_units,
            wavefronts_dispatched: 0,
            obs: None,
        }
    }

    /// Attaches a span recorder: every subsequent launch records a
    /// wall-clock `launch:<name>` span, per-CU cycle-stamped launch and
    /// wavefront spans, and engine overhead counters into `rec` (see
    /// [`crate::obs`]). Several devices may share one recorder; each
    /// attach allocates fresh track groups.
    ///
    /// Cycle-track timestamps are the CU cycle counters, so calling
    /// [`Device::reset_stats`] while a recorder is attached restarts the
    /// cycle timebase and can produce overlapping cycle spans — detach
    /// first (or use a fresh device) when a well-formed trace matters.
    ///
    /// A previously attached telemetry hub stays bound.
    pub fn attach_recorder(&mut self, rec: &SharedRecorder) {
        let hub = self.obs.as_mut().and_then(DeviceObs::take_hub);
        let mut obs = DeviceObs::attach(rec);
        if let Some((hub, scope)) = hub {
            obs.bind_hub(&hub, &scope);
        }
        self.obs = Some(obs);
    }

    /// Detaches the span recorder, if any; later launches record no
    /// spans. A telemetry hub, if attached, stays bound.
    pub fn detach_recorder(&mut self) {
        self.obs = self
            .obs
            .as_mut()
            .and_then(DeviceObs::take_hub)
            .map(|(hub, scope)| DeviceObs::hub_only(&hub, &scope));
    }

    /// Attaches a telemetry hub under a freshly allocated scope prefix
    /// and returns that scope. Every subsequent launch publishes live
    /// series under it: a per-kernel latency sketch
    /// (`<scope>launch_us.<kernel>`), launch/wavefront counters, a
    /// cumulative hit-rate gauge, error/recovery tallies and per-
    /// component energy gauges — plus the engine overhead counters
    /// (steals, fallbacks) the engines publish through [`DeviceObs`].
    ///
    /// Composes with [`Device::attach_recorder`]; either may be attached
    /// first. [`Device::reset_stats`] clears the device's hub series.
    pub fn attach_hub(&mut self, hub: &TelemetryHub) -> String {
        let scope = hub.alloc_scope("sim");
        self.attach_hub_scoped(hub, &scope);
        scope
    }

    /// Attaches a telemetry hub under a caller-chosen scope prefix
    /// (normally ending in `.`). Long-running callers that rebuild
    /// devices — e.g. a campaign building one device per attempt — use a
    /// fixed scope so the hub holds one set of series instead of growing
    /// per device.
    pub fn attach_hub_scoped(&mut self, hub: &TelemetryHub, scope: &str) {
        match &mut self.obs {
            Some(obs) => obs.bind_hub(hub, scope),
            None => self.obs = Some(DeviceObs::hub_only(hub, scope)),
        }
    }

    /// Detaches the telemetry hub, if any, leaving its published series
    /// in place. A span recorder, if attached, stays bound.
    pub fn detach_hub(&mut self) {
        if let Some(obs) = &mut self.obs {
            let _ = obs.take_hub();
            if !obs.has_recorder() {
                self.obs = None;
            }
        }
    }

    /// The attached tracing handle, if any.
    #[must_use]
    pub const fn obs(&self) -> Option<&DeviceObs> {
        self.obs.as_ref()
    }

    /// Snapshots clocks before a launch (no-op without a recorder or
    /// hub).
    fn mark_launch(&self) -> Option<LaunchMark> {
        self.obs.as_ref().map(|obs| LaunchMark {
            wall: std::time::Instant::now(),
            start_us: obs.now_us(),
            cu_cycles: self.compute_units.iter().map(ComputeUnit::cycles).collect(),
        })
    }

    /// Closes a launch: one wall span for the whole dispatch (wall track
    /// 0) and one cycle span per CU that advanced (cycle track = CU
    /// index) into the recorder, and the live series into the hub —
    /// whichever backends are attached.
    fn record_launch(&self, mark: Option<LaunchMark>, name: &str, backend: &str, schedule: &Schedule) {
        let (Some(obs), Some(mark)) = (&self.obs, mark) else {
            return;
        };
        if obs.has_recorder() {
            for (cu_idx, (cu, before)) in
                self.compute_units.iter().zip(&mark.cu_cycles).enumerate()
            {
                let after = cu.cycles();
                if after > *before {
                    obs.cycle_span(
                        format!("launch:{name}"),
                        "kernel",
                        cu_idx as u64,
                        *before,
                        after,
                        Vec::new(),
                    );
                }
            }
            obs.wall_span(
                format!("launch:{name}"),
                "kernel",
                0,
                mark.start_us,
                vec![
                    ("backend".to_string(), ArgValue::Str(backend.to_string())),
                    (
                        "global_size".to_string(),
                        ArgValue::U64(schedule.global_size() as u64),
                    ),
                    (
                        "wavefronts".to_string(),
                        ArgValue::U64(schedule.wavefronts() as u64),
                    ),
                ],
            );
        }
        self.publish_launch(obs, name, schedule, mark.wall.elapsed().as_secs_f64() * 1e6);
    }

    /// Publishes one finished launch into the attached hub (no-op
    /// without one): latency sketch, launch/wavefront counters, and the
    /// cumulative hit-rate / error / energy state of the device. All
    /// reads — the simulation state is untouched, so reports stay
    /// bit-identical with a hub attached.
    fn publish_launch(&self, obs: &DeviceObs, name: &str, schedule: &Schedule, elapsed_us: f64) {
        let Some((hub, scope)) = obs.hub() else {
            return;
        };
        hub.counter_add(&format!("{scope}launches"), 1);
        hub.counter_add(&format!("{scope}wavefronts"), schedule.wavefronts() as u64);
        hub.observe(&format!("{scope}launch_us.{name}"), elapsed_us);

        let total: MemoStats = ALL_OPS.iter().map(|&op| self.op_stats(op)).sum();
        if total.lookups > 0 {
            hub.gauge_set(
                &format!("{scope}hit_rate"),
                total.hits as f64 / total.lookups as f64,
            );
        }

        // ECU tap: cumulative recovery tallies summed across CUs.
        let mut recoveries = 0u64;
        let mut stall_cycles = 0u64;
        for cu in &self.compute_units {
            let [(_, r), (_, s)] = cu.ecu().telemetry_counters();
            recoveries += r;
            stall_cycles += s;
        }
        hub.gauge_set(&format!("{scope}recoveries"), recoveries as f64);
        hub.gauge_set(&format!("{scope}recovery_stall_cycles"), stall_cycles as f64);
        hub.gauge_set(
            &format!("{scope}errors_injected"),
            self.compute_units
                .iter()
                .map(ComputeUnit::errors_injected)
                .sum::<u64>() as f64,
        );

        // Energy tap: one gauge per breakdown component.
        let mut energy = tm_energy::EnergyLedger::new();
        for cu in &self.compute_units {
            energy.merge(cu.ledger());
        }
        for (component, pj) in energy.breakdown().named_components() {
            hub.gauge_set(&format!("{scope}energy_pj.{component}"), pj);
        }
    }

    /// The device configuration.
    #[must_use]
    pub const fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The compute units.
    #[must_use]
    pub fn compute_units(&self) -> &[ComputeUnit] {
        &self.compute_units
    }

    /// Number of wavefronts dispatched so far.
    #[must_use]
    pub const fn wavefronts_dispatched(&self) -> u64 {
        self.wavefronts_dispatched
    }

    /// Mutable compute-unit access for the snapshot restore path.
    pub(crate) fn compute_units_mut(&mut self) -> &mut [ComputeUnit] {
        &mut self.compute_units
    }

    /// Restores the dispatch counter from a snapshot.
    pub(crate) fn set_wavefronts_dispatched(&mut self, n: u64) {
        self.wavefronts_dispatched = n;
    }

    /// The intra-CU engine the configuration asks for: auto-sized from
    /// host parallelism unless a shard count is pinned.
    fn intra_cu_engine(&self) -> IntraCuEngine {
        let engine = match self.config.intra_cu_shards {
            Some(n) => IntraCuEngine::with_shards(n),
            None => IntraCuEngine::new(),
        };
        engine.with_obs(self.obs.clone())
    }

    /// The schedule the device's geometry induces for `global_size`
    /// work-items — the scheduling layer every engine shares.
    fn schedule(&self, global_size: usize) -> Schedule {
        Schedule::new(
            global_size,
            self.config.wavefront_size,
            self.compute_units.len(),
        )
    }

    /// Runs a [`VProgram`] over an ND-range of `global_size` work-items
    /// with `in_flight` wavefronts interleaved per compute unit, through
    /// the configured [`ExecBackend`].
    ///
    /// The range is split into wavefronts of `wavefront_size` work-items
    /// (the trailing wavefront may be partial); wavefront *w* executes on
    /// compute unit *(w mod CUs)*, mirroring the ultra-threaded
    /// dispatcher's round-robin. With `in_flight = 1` each CU runs its
    /// wavefronts one at a time. Larger values model the hardware's
    /// wavefront interleaving: the scheduler round-robins one vector
    /// instruction from each resident wavefront, so consecutive operands
    /// on an FPU come from *different* wavefronts — the stress case for
    /// the 2-entry FIFO's temporal locality.
    ///
    /// Every engine honours the wavefront→CU schedule and per-CU order,
    /// so the backend choice never changes results or statistics;
    /// programs with a gather-after-scatter hazard silently fall back to
    /// the sequential engine (see [`crate::engine`]). The launch's spans
    /// and telemetry series are named after [`VProgram::name`].
    ///
    /// # Panics
    ///
    /// Panics if `global_size` or `in_flight` is zero, or a
    /// gather/scatter index leaves its buffer.
    pub fn run_program(
        &mut self,
        program: &VProgram,
        bindings: &mut Bindings,
        global_size: usize,
        in_flight: usize,
    ) {
        let compile_start = self.obs.as_ref().map(DeviceObs::now_us);
        let compiled = CompiledProgram::compile(program);
        if let (Some(obs), Some(start)) = (&self.obs, compile_start) {
            obs.wall_span(
                "program:compile".to_string(),
                "compile",
                0,
                start,
                vec![
                    (
                        "instructions".to_string(),
                        ArgValue::U64(program.len() as u64),
                    ),
                    (
                        "packets".to_string(),
                        ArgValue::U64(compiled.packet_count() as u64),
                    ),
                ],
            );
        }
        self.run_compiled(&compiled, bindings, global_size, in_flight);
    }

    /// Runs pre-lowered bytecode (see [`CompiledProgram::compile`]) with
    /// `in_flight` wavefronts interleaved per compute unit — the
    /// compile-once path for stage loops and campaigns. Semantics match
    /// [`Device::run_program`].
    ///
    /// # Panics
    ///
    /// Panics if `global_size` or `in_flight` is zero, or a
    /// gather/scatter index leaves its buffer.
    pub fn run_compiled(
        &mut self,
        compiled: &CompiledProgram,
        bindings: &mut Bindings,
        global_size: usize,
        in_flight: usize,
    ) {
        let schedule = self.schedule(global_size);
        let mark = self.mark_launch();
        self.wavefronts_dispatched += match self.config.backend {
            ExecBackend::Sequential => SequentialEngine::with_obs(self.obs.clone()).run_compiled(
                &mut self.compute_units,
                compiled,
                bindings,
                &schedule,
                in_flight,
            ),
            ExecBackend::Parallel => ParallelEngine::with_obs(self.obs.clone()).run_compiled(
                &mut self.compute_units,
                compiled,
                bindings,
                &schedule,
                in_flight,
            ),
            ExecBackend::IntraCu => self.intra_cu_engine().run_compiled(
                &mut self.compute_units,
                compiled,
                bindings,
                &schedule,
                in_flight,
            ),
        };
        self.record_launch(mark, compiled.name(), self.config.backend.name(), &schedule);
    }

    /// Aggregated memoization statistics for `op` across the device.
    #[must_use]
    pub fn op_stats(&self, op: tm_fpu::FpOp) -> MemoStats {
        self.compute_units.iter().map(|cu| cu.op_stats(op)).sum()
    }

    /// All retained trace events across compute units (empty unless the
    /// configuration enabled tracing via `trace_depth`).
    pub fn trace_events(&self) -> impl Iterator<Item = &crate::TraceEvent> {
        self.compute_units.iter().flat_map(|cu| cu.trace().events())
    }

    /// Per-CU locality summaries from the online profiler — one row set
    /// per compute unit, empty unless
    /// [`DeviceConfig::locality_tracking`] is enabled.
    #[must_use]
    pub fn locality_summaries(&self) -> Vec<Vec<LocalitySummary>> {
        self.compute_units
            .iter()
            .filter_map(|cu| cu.locality().map(super::sink::LocalitySink::summaries))
            .collect()
    }

    /// Resets every statistic on the device (see
    /// [`ComputeUnit::reset_stats`]) while keeping FIFO contents — the
    /// per-kernel measurement boundary.
    ///
    /// Any telemetry-hub series published under this device's scope are
    /// cleared too, so a warm-reused device (the pool pattern) never
    /// leaks telemetry from the previous job into the next.
    pub fn reset_stats(&mut self) {
        for cu in &mut self.compute_units {
            cu.reset_stats();
        }
        self.wavefronts_dispatched = 0;
        if let Some(obs) = &self.obs {
            obs.clear_hub_series();
        }
    }

    /// Builds the full post-run report.
    #[must_use]
    pub fn report(&self) -> DeviceReport {
        let mut per_op = Vec::new();
        for op in ALL_OPS {
            let stats = self.op_stats(op);
            let (lane_instructions, energy_pj) = self
                .compute_units
                .iter()
                .flat_map(|cu| cu.tallies())
                .filter(|(&o, _)| o == op)
                .fold((0u64, 0.0f64), |(n, e), (_, t)| {
                    (n + t.lane_instructions, e + t.energy_pj)
                });
            if lane_instructions > 0 {
                per_op.push(OpReport {
                    op,
                    stats,
                    lane_instructions,
                    energy_pj,
                });
            }
        }
        let mut energy = tm_energy::EnergyLedger::new();
        for cu in &self.compute_units {
            energy.merge(cu.ledger());
        }
        DeviceReport {
            per_op,
            energy: energy.breakdown(),
            cycles_max: self
                .compute_units
                .iter()
                .map(ComputeUnit::cycles)
                .max()
                .unwrap_or(0),
            cycles_total: self.compute_units.iter().map(ComputeUnit::cycles).sum(),
            recoveries: self.compute_units.iter().map(|cu| cu.ecu().recoveries()).sum(),
            recovery_stall_cycles: self
                .compute_units
                .iter()
                .map(|cu| cu.ecu().recovery_cycles())
                .sum(),
            errors_injected: self
                .compute_units
                .iter()
                .map(ComputeUnit::errors_injected)
                .sum(),
            wavefronts: self.wavefronts_dispatched,
            spatial_hits: self
                .compute_units
                .iter()
                .flat_map(|cu| cu.tallies())
                .map(|(_, t)| t.spatial_hits)
                .sum(),
            spatial_masked_errors: self
                .compute_units
                .iter()
                .flat_map(|cu| cu.tallies())
                .map(|(_, t)| t.spatial_masked_errors)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchMode, ErrorMode};
    use crate::program::{Addr, Src, VInst};
    use tm_fpu::FpOp;

    /// `out[gid] = gid + 1`.
    fn add_one() -> VProgram {
        VProgram::new(
            2,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(1.0)] },
                VInst::Scatter { src: 1, data: 0, addr: Addr::Gid },
            ],
        )
        .unwrap()
        .with_name("add_one")
    }

    /// `sqrt(2.0)` in every lane: constant operands.
    fn const_sqrt() -> VProgram {
        VProgram::new(1, vec![VInst::Alu { op: FpOp::Sqrt, dst: 0, srcs: vec![Src::Imm(2.0)] }])
            .unwrap()
    }

    /// Runs `program` over `n` work-items with one `n`-element buffer.
    fn run(device: &mut Device, program: &VProgram, n: usize) -> Vec<f32> {
        let mut bindings = Bindings::new(vec![vec![0.0; n]]);
        device.run_program(program, &mut bindings, n, 1);
        std::mem::take(bindings.buffer_mut(0))
    }

    #[test]
    fn run_covers_full_ndrange_including_partial_wavefront() {
        let mut device = Device::new(DeviceConfig::default());
        let n = 100; // 64 + a partial wavefront of 36
        let out = run(&mut device, &add_one(), n);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0);
        }
        assert_eq!(device.wavefronts_dispatched(), 2);
    }

    #[test]
    fn wavefronts_round_robin_across_cus() {
        let mut device = Device::new(DeviceConfig::builder().with_compute_units(2).build().unwrap());
        let _ = run(&mut device, &add_one(), 256);
        for cu in device.compute_units() {
            assert!(cu.cycles() > 0, "both CUs should have executed work");
        }
    }

    #[test]
    fn report_lists_only_activated_ops() {
        let mut device = Device::new(DeviceConfig::default());
        let _ = run(&mut device, &add_one(), 64);
        let report = device.report();
        assert_eq!(report.per_op.len(), 1);
        assert_eq!(report.per_op[0].op, FpOp::Add);
        assert_eq!(report.per_op[0].lane_instructions, 64);
        assert!(report.energy.total_pj() > 0.0);
    }

    #[test]
    fn memoized_beats_baseline_on_redundant_work() {
        let run = |arch: ArchMode| {
            let mut device = Device::new(DeviceConfig::builder().with_arch(arch).build().unwrap());
            let _ = run(&mut device, &const_sqrt(), 4096);
            device.report().energy.total_pj()
        };
        let memo = run(ArchMode::Memoized);
        let baseline = run(ArchMode::Baseline);
        assert!(
            memo < baseline * 0.6,
            "constant operands should memoize well: memo={memo} baseline={baseline}"
        );
    }

    #[test]
    fn error_injection_shows_up_in_report() {
        let config = DeviceConfig::builder().with_error_mode(ErrorMode::FixedRate(0.5)).build().unwrap();
        let mut device = Device::new(config);
        let _ = run(&mut device, &const_sqrt(), 1024);
        let report = device.report();
        assert!(report.errors_injected > 0);
        let sqrt = &report.per_op[0];
        assert_eq!(
            sqrt.stats.errors_seen,
            report.errors_injected,
            "every injected error is either masked or recovered"
        );
        assert_eq!(
            sqrt.stats.masked_errors + sqrt.stats.recoveries,
            report.errors_injected
        );
    }

    #[test]
    #[should_panic(expected = "empty ND-range")]
    fn zero_size_dispatch_panics() {
        let mut device = Device::new(DeviceConfig::default());
        let _ = run(&mut device, &const_sqrt(), 0);
    }

    #[test]
    fn tracing_records_events_and_locality_predicts_hits() {
        let config = DeviceConfig::builder()
            .with_compute_units(1)
            .with_trace_depth(100_000).build().unwrap();
        let mut device = Device::new(config);
        let _ = run(&mut device, &const_sqrt(), 1024);
        let events: Vec<_> = device.trace_events().copied().collect();
        assert_eq!(events.len(), 1024);
        // Constant operands ⇒ zero entropy and near-perfect predicted
        // reuse, matching the measured hit rate.
        let entropy = crate::locality::operand_entropy_bits(events.iter());
        assert_eq!(entropy, 0.0);
        let profile = crate::locality::StackDistanceProfile::from_events(events.iter());
        let predicted = profile.hit_rate_at_depth(2);
        let measured = device.report().weighted_hit_rate();
        assert!(
            (predicted - measured).abs() < 1e-9,
            "LRU prediction {predicted} vs measured {measured}"
        );
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut device = Device::new(DeviceConfig::default());
        let _ = run(&mut device, &const_sqrt(), 64);
        assert_eq!(device.trace_events().count(), 0);
    }

    #[test]
    fn reset_stats_keeps_fifo_contents() {
        let mut device = Device::new(DeviceConfig::default());
        let _ = run(&mut device, &const_sqrt(), 256);
        assert!(device.report().total_instructions() > 0);
        device.reset_stats();
        let cleared = device.report();
        assert_eq!(cleared.total_instructions(), 0);
        assert_eq!(cleared.total_energy_pj(), 0.0);
        assert_eq!(cleared.wavefronts, 0);
        // FIFOs survived: the very first wavefront after the reset hits.
        let _ = run(&mut device, &const_sqrt(), 64);
        let warm = device.report();
        assert_eq!(
            warm.weighted_hit_rate(),
            1.0,
            "warm FIFOs should hit immediately after a stats reset"
        );
    }

    #[test]
    fn per_stage_error_mode_hits_deep_pipelines_harder() {
        let recip_and_add = VProgram::new(
            2,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Alu { op: FpOp::Recip, dst: 1, srcs: vec![Src::Reg(0)] }, // 16 stages
                VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(0), Src::Reg(0)] }, // 4 stages
            ],
        )
        .unwrap();
        // Memoized mode records per-op error statistics; lane-id operands
        // are unique per work-item, so every access is a (recorded) miss.
        let config = DeviceConfig::builder()
            .with_error_mode(ErrorMode::PerStageRate(0.01))
            .with_compute_units(1)
            .with_seed(4).build().unwrap();
        let mut device = Device::new(config);
        let _ = run(&mut device, &recip_and_add, 16384);
        let report = device.report();
        let recip = report.op(FpOp::Recip).unwrap();
        let add = report.op(FpOp::Add).unwrap();
        // 1-(1-p)^16 ≈ 14.9 % vs 1-(1-p)^4 ≈ 3.9 % — about 3.8x.
        let recip_rate = recip.stats.errors_seen as f64 / recip.lane_instructions as f64;
        let add_rate = add.stats.errors_seen as f64 / add.lane_instructions as f64;
        assert!(
            recip_rate > 2.5 * add_rate,
            "deep pipeline should err more: recip {recip_rate:.3} vs add {add_rate:.3}"
        );
    }

    #[test]
    fn spatial_mode_reuses_within_slots() {
        // Constant operands: in every 16-lane slot, one lane executes and
        // 15 reuse — spatial hit rate of exactly 15/16.
        let mut device = Device::new(DeviceConfig::builder().with_arch(ArchMode::Spatial).build().unwrap());
        let _ = run(&mut device, &const_sqrt(), 1024);
        let report = device.report();
        assert_eq!(report.spatial_hits, 1024 / 16 * 15);
        assert!((report.spatial_hit_rate() - 15.0 / 16.0).abs() < 1e-12);
        // The per-FPU FIFOs are power-gated in this mode.
        assert_eq!(report.total_stats().lookups, 0);
    }

    #[test]
    fn spatial_mode_masks_errors_on_reused_lanes() {
        let config = DeviceConfig::builder()
            .with_arch(ArchMode::Spatial)
            .with_error_mode(ErrorMode::FixedRate(0.5)).build().unwrap();
        let mut device = Device::new(config);
        let _ = run(&mut device, &const_sqrt(), 1024);
        let report = device.report();
        assert!(report.spatial_masked_errors > 0);
        // Errors on executing lanes still go to the ECU; reused lanes are free.
        assert_eq!(
            report.recoveries + report.spatial_masked_errors,
            report.errors_injected
        );
    }

    #[test]
    fn spatial_mode_is_correct_on_varied_inputs() {
        let mut memo_dev = Device::new(DeviceConfig::default());
        let mut spatial_dev = Device::new(DeviceConfig::builder().with_arch(ArchMode::Spatial).build().unwrap());
        let a = run(&mut memo_dev, &add_one(), 200);
        let b = run(&mut spatial_dev, &add_one(), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn temporal_beats_spatial_on_temporal_locality() {
        // Values recur over time (across wavefronts) but are distinct
        // within each slot — the workload shape the paper argues for.
        let time_local = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
                VInst::Alu { op: FpOp::Sqrt, dst: 0, srcs: vec![Src::Reg(0)] },
            ],
        )
        .unwrap();
        let run = |arch: ArchMode| {
            let mut device = Device::new(
                DeviceConfig::builder()
                    .with_arch(arch)
                    .with_compute_units(1).build().unwrap(),
            );
            let n = 4096;
            let mut bindings =
                Bindings::new(vec![(0..n).map(|g| (g % 16) as f32 * 1.25 + 1.0).collect()]);
            device.run_program(&time_local, &mut bindings, n, 1);
            device.report()
        };
        let temporal = run(ArchMode::Memoized);
        let spatial = run(ArchMode::Spatial);
        assert!(temporal.weighted_hit_rate() > 0.9);
        assert!(spatial.spatial_hit_rate() < 0.1);
        assert!(temporal.total_energy_pj() < spatial.total_energy_pj());
    }

    #[test]
    fn launches_are_named_after_their_program() {
        let rec = SharedRecorder::new();
        let hub = TelemetryHub::new();
        let mut device = Device::new(DeviceConfig::default());
        device.attach_recorder(&rec);
        let scope = device.attach_hub(&hub);
        let _ = run(&mut device, &add_one(), 64);
        let _ = run(&mut device, &const_sqrt(), 64);
        let names: Vec<String> = rec.with(|r| r.spans().iter().map(|s| s.name.clone()).collect());
        assert!(names.iter().any(|n| n == "launch:add_one"), "{names:?}");
        assert!(names.iter().any(|n| n == "launch:program"), "{names:?}");
        assert!(names.iter().any(|n| n == "wf:0..64"), "{names:?}");
        assert_eq!(hub.snapshot().iter().filter(|(k, _)| k.starts_with(&format!("{scope}launch_us."))).count(), 2);
    }
}
