//! Versioned device snapshots: serialize a [`Device`]'s full
//! architectural state to the tm-obs JSON format and restore it into a
//! bit-identical simulator.
//!
//! A snapshot captures everything that influences future execution:
//!
//! * the validated [`DeviceConfig`] (so a snapshot is self-describing),
//! * per-CU cycle counters, ECU recovery tallies and error-injector RNG
//!   states (raw PCG32 words, serialized as hex strings — `f64` JSON
//!   numbers cannot hold full 64-bit words),
//! * per-CU accounting: per-op tallies, the energy ledger breakdown and
//!   (when configured) the windowed metrics series,
//! * per-SC per-op lane units: MMIO registers, memo FIFO contents
//!   (operand/result IEEE-754 bit patterns, oldest entry first), memo
//!   statistics, FPU counters/pipeline occupancy and adaptive-gate state,
//! * the device-level wavefront dispatch counter.
//!
//! Not captured (v1 limitations, documented in `DESIGN.md`): the bounded
//! instruction trace ring buffer (restored devices start with an empty
//! trace), attached observers (recorder/telemetry hub), and the
//! [`LocalitySink`](crate::sink::LocalitySink) — snapshotting a device
//! with `locality_tracking` enabled returns
//! [`SnapshotError::Unsupported`].
//!
//! The format is versioned ([`SNAPSHOT_VERSION`]); decoding rejects
//! unknown versions and malformed documents with a structured
//! [`SnapshotError`] — never a panic.

use crate::compute_unit::ComputeUnit;
use crate::config::{ArchMode, ConfigError, DeviceConfig, ErrorMode, ExecBackend};
use crate::device::Device;
use crate::sink::{MetricsSink, OpTally, METRICS_CHANNELS};
use std::fmt;
use tm_core::{GatePolicy, GateState, MatchPolicy, MemoStats, Reg, Replacement};
use tm_energy::{EnergyBreakdown, EnergyModel};
use tm_fpu::{FpOp, FpuCounters, Operands, ALL_OPS, MAX_ARITY};
use tm_obs::json::{f64_array, str_array, JsonError, JsonValue, ObjWriter};
use tm_timing::{
    BurstErrors, ErrorModelSpec, ErrorSamplerState, HeterogeneousErrors, RecoveryPolicy,
    VoltageModel,
};

/// Format version written by [`Device::snapshot`] and accepted by
/// [`DeviceSnapshot::from_json`].
pub const SNAPSHOT_VERSION: u64 = 1;

/// The `kind` discriminator of a snapshot document.
const SNAPSHOT_KIND: &str = "tm-device-snapshot";

/// Why a snapshot could not be captured, decoded or restored.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is valid JSON but violates the snapshot schema; the
    /// message names the offending path.
    Schema(String),
    /// The embedded device configuration failed validation.
    Config(ConfigError),
    /// The document declares a format version this build cannot read.
    Version {
        /// The version the document declares.
        found: u64,
    },
    /// The device holds state the v1 format cannot express.
    Unsupported(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "snapshot is not valid JSON: {e}"),
            Self::Schema(msg) => write!(f, "snapshot schema violation: {msg}"),
            Self::Config(e) => write!(f, "snapshot carries an invalid device config: {e}"),
            Self::Version { found } => write!(
                f,
                "snapshot version {found} is not supported (this build reads version {SNAPSHOT_VERSION})"
            ),
            Self::Unsupported(msg) => write!(f, "device state not snapshottable: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Json(e) => Some(e),
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

impl From<ConfigError> for SnapshotError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

fn schema(path: &str, msg: impl fmt::Display) -> SnapshotError {
    SnapshotError::Schema(format!("{path}: {msg}"))
}

/// One captured windowed series (total or per-op).
#[derive(Debug, Clone, PartialEq)]
struct SeriesState {
    initial_width: u64,
    width: u64,
    windows: Vec<[f64; METRICS_CHANNELS]>,
}

/// Captured [`MetricsSink`] contents.
#[derive(Debug, Clone, PartialEq)]
struct MetricsState {
    total: SeriesState,
    per_op: Vec<(FpOp, SeriesState)>,
}

/// One memo-FIFO entry (IEEE-754 bit patterns, arity-length operands).
#[derive(Debug, Clone, PartialEq)]
struct EntryState {
    operand_bits: Vec<u32>,
    result_bits: u32,
}

/// One lane unit (per-SC, per-op FPU + memo module).
#[derive(Debug, Clone, PartialEq)]
struct UnitState {
    op: FpOp,
    ctrl: u32,
    mask: u32,
    threshold_bits: u32,
    update_after_recovery: bool,
    stats: MemoStats,
    /// Oldest entry first (insertion order), so restoring by repeated
    /// `preload` reproduces the FIFO exactly.
    fifo: Vec<EntryState>,
    fpu_counters: FpuCounters,
    last_issue: Option<u64>,
    issued: u64,
    slip_cycles: u64,
    gate: Option<GateState>,
}

/// One compute unit's captured state.
#[derive(Debug, Clone, PartialEq)]
struct CuState {
    cycles: u64,
    ecu_recoveries: u64,
    ecu_recovery_cycles: u64,
    injectors: Vec<ErrorSamplerState>,
    tallies: Vec<(FpOp, OpTally)>,
    energy: EnergyBreakdown,
    metrics: Option<MetricsState>,
    stream_cores: Vec<Vec<UnitState>>,
}

/// A complete, self-describing device snapshot.
///
/// Obtained from [`Device::snapshot`] or [`DeviceSnapshot::from_json`];
/// consumed by [`Device::restore`] or serialized with
/// [`DeviceSnapshot::to_json`]. Restoring and re-snapshotting yields a
/// byte-identical JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    config: DeviceConfig,
    wavefronts_dispatched: u64,
    cus: Vec<CuState>,
}

impl DeviceSnapshot {
    /// The embedded device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The captured wavefront dispatch counter.
    #[must_use]
    pub const fn wavefronts_dispatched(&self) -> u64 {
        self.wavefronts_dispatched
    }

    /// Total memo-FIFO entries captured across every lane unit — the
    /// temporal-locality payload a restore or warm start carries over.
    #[must_use]
    pub fn fifo_entries(&self) -> u64 {
        self.cus
            .iter()
            .flat_map(|cu| &cu.stream_cores)
            .flatten()
            .map(|unit| unit.fifo.len() as u64)
            .sum()
    }

    /// Serializes the snapshot as a single JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str_field("kind", SNAPSHOT_KIND);
        w.u64_field("version", SNAPSHOT_VERSION);
        w.raw_field("config", &config_to_json(&self.config));
        w.u64_field("wavefronts_dispatched", self.wavefronts_dispatched);
        let cus: Vec<String> = self.cus.iter().map(cu_to_json).collect();
        w.raw_field("compute_units", &format!("[{}]", cus.join(",")));
        w.finish()
    }

    /// Parses and validates a snapshot document.
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapshotError`] for malformed JSON, schema
    /// violations, unknown versions or invalid embedded configurations.
    /// Never panics on untrusted input.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let root = JsonValue::parse(text)?;
        let kind = want_str(&root, "$", "kind")?;
        if kind != SNAPSHOT_KIND {
            return Err(schema("$.kind", format!("expected \"{SNAPSHOT_KIND}\", got \"{kind}\"")));
        }
        let version = want_u64(&root, "$", "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        let config = config_from_json(want(&root, "$", "config")?)?;
        config.check()?;
        if config.locality_tracking {
            return Err(SnapshotError::Unsupported(
                "locality_tracking devices cannot be snapshotted (v1)".into(),
            ));
        }
        let wavefronts_dispatched = want_u64(&root, "$", "wavefronts_dispatched")?;
        let cus_json = want_arr(&root, "$", "compute_units")?;
        if cus_json.len() != config.compute_units {
            return Err(schema(
                "$.compute_units",
                format!(
                    "expected {} compute units, got {}",
                    config.compute_units,
                    cus_json.len()
                ),
            ));
        }
        let mut cus = Vec::with_capacity(cus_json.len());
        for (i, cu) in cus_json.iter().enumerate() {
            cus.push(cu_from_json(cu, &format!("$.compute_units[{i}]"), &config)?);
        }
        Ok(Self {
            config,
            wavefronts_dispatched,
            cus,
        })
    }
}

impl Device {
    /// Captures the device's architectural state as a [`DeviceSnapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Unsupported`] when the device profiles
    /// value locality online (`locality_tracking`): the v1 format does
    /// not serialize the [`LocalitySink`](crate::sink::LocalitySink).
    pub fn snapshot(&self) -> Result<DeviceSnapshot, SnapshotError> {
        if self.config().locality_tracking {
            return Err(SnapshotError::Unsupported(
                "locality_tracking devices cannot be snapshotted (v1)".into(),
            ));
        }
        let cus = self.compute_units().iter().map(capture_cu).collect();
        Ok(DeviceSnapshot {
            config: self.config().clone(),
            wavefronts_dispatched: self.wavefronts_dispatched(),
            cus,
        })
    }

    /// Builds a fresh device and restores `snapshot` onto it.
    ///
    /// The restored device continues execution exactly as the captured
    /// one would have: memo FIFO contents, RNG streams, pipeline
    /// occupancy, counters and energy accumulators all match. The
    /// instruction trace starts empty (not captured in v1) and no
    /// observers are attached.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Config`] for invalid embedded
    /// configurations and [`SnapshotError::Schema`] when the captured
    /// state is inconsistent with the configured geometry.
    pub fn restore(snapshot: &DeviceSnapshot) -> Result<Self, SnapshotError> {
        let config = &snapshot.config;
        config.check()?;
        if config.locality_tracking {
            return Err(SnapshotError::Unsupported(
                "locality_tracking devices cannot be restored (v1)".into(),
            ));
        }
        if snapshot.cus.len() != config.compute_units {
            return Err(schema(
                "compute_units",
                format!(
                    "snapshot has {} compute units, config declares {}",
                    snapshot.cus.len(),
                    config.compute_units
                ),
            ));
        }
        let mut device = Device::new(config.clone());
        let config = device.config().clone();
        for (i, (cu, state)) in device
            .compute_units_mut()
            .iter_mut()
            .zip(&snapshot.cus)
            .enumerate()
        {
            restore_cu(cu, state, &config, &format!("compute_units[{i}]"))?;
        }
        device.set_wavefronts_dispatched(snapshot.wavefronts_dispatched);
        Ok(device)
    }

    /// Warm-starts this device's memo FIFOs from `snapshot`'s captured
    /// contents, leaving counters, RNG streams and MMIO registers
    /// untouched.
    ///
    /// Unlike [`Device::restore`], the snapshot's configuration does not
    /// have to match: FIFO contents transfer wherever the geometries
    /// overlap (compute unit / stream core / opcode), entries preload
    /// oldest-first, and anything the target cannot hold (deeper FIFOs,
    /// extra cores, malformed arities) is silently dropped. The warm
    /// state is a pure function of the snapshot, which is what lets a
    /// sharded campaign warm every trial identically on every shard.
    pub fn preload_fifos(&mut self, snapshot: &DeviceSnapshot) {
        let config = self.config().clone();
        for (cu, state) in self.compute_units_mut().iter_mut().zip(&snapshot.cus) {
            for (sc, sc_state) in cu.stream_cores_mut().iter_mut().zip(&state.stream_cores) {
                for unit_state in sc_state {
                    let memo = sc.unit_mut(unit_state.op, &config).memo_mut();
                    for entry in &unit_state.fifo {
                        let n = entry.operand_bits.len();
                        if n == 0 || n > MAX_ARITY {
                            continue;
                        }
                        let operands: Vec<f32> =
                            entry.operand_bits.iter().map(|&b| f32::from_bits(b)).collect();
                        memo.preload(
                            Operands::from_slice(&operands),
                            f32::from_bits(entry.result_bits),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------

fn capture_cu(cu: &ComputeUnit) -> CuState {
    let tallies = cu.tallies().map(|(op, t)| (*op, *t)).collect();
    let energy = cu.ledger().breakdown();
    let metrics = cu.metrics().map(capture_metrics);
    let stream_cores = cu
        .stream_cores()
        .iter()
        .map(|sc| {
            sc.units()
                .map(|(op, unit)| {
                    let memo = unit.memo();
                    let mmio = memo.mmio();
                    // Newest-first per `MemoFifo::iter`; store oldest
                    // first so `preload` replays reproduce the order.
                    let mut fifo: Vec<EntryState> = memo
                        .fifo()
                        .iter()
                        .map(|e| EntryState {
                            operand_bits: e
                                .operands
                                .as_slice()
                                .iter()
                                .map(|v| v.to_bits())
                                .collect(),
                            result_bits: e.result.to_bits(),
                        })
                        .collect();
                    fifo.reverse();
                    let pipeline = unit.fpu().pipeline();
                    UnitState {
                        op: *op,
                        ctrl: mmio.read(Reg::Ctrl),
                        mask: mmio.read(Reg::Mask),
                        threshold_bits: mmio.read(Reg::Threshold),
                        update_after_recovery: memo.update_after_recovery(),
                        stats: memo.stats(),
                        fifo,
                        fpu_counters: unit.fpu().counters(),
                        last_issue: pipeline.last_issue(),
                        issued: pipeline.issued(),
                        slip_cycles: pipeline.slip_cycles(),
                        gate: unit.gate().map(|g| g.state()),
                    }
                })
                .collect()
        })
        .collect();
    CuState {
        cycles: cu.cycles(),
        ecu_recoveries: cu.ecu().recoveries(),
        ecu_recovery_cycles: cu.ecu().recovery_cycles(),
        injectors: cu.injectors().iter().map(|s| s.state()).collect(),
        tallies,
        energy,
        metrics,
        stream_cores,
    }
}

fn capture_metrics(sink: &MetricsSink) -> MetricsState {
    let capture = |s: &tm_obs::WindowedSeries<METRICS_CHANNELS>| SeriesState {
        initial_width: s.initial_width(),
        width: s.width(),
        windows: s.windows().to_vec(),
    };
    MetricsState {
        total: capture(sink.total()),
        per_op: sink
            .ops()
            .filter_map(|op| sink.series(op).map(|s| (op, capture(s))))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

fn restore_cu(
    cu: &mut ComputeUnit,
    state: &CuState,
    config: &DeviceConfig,
    path: &str,
) -> Result<(), SnapshotError> {
    if state.injectors.len() != config.stream_cores_per_cu {
        return Err(schema(
            path,
            format!(
                "snapshot has {} injector states, config declares {} stream cores",
                state.injectors.len(),
                config.stream_cores_per_cu
            ),
        ));
    }
    if state.stream_cores.len() != config.stream_cores_per_cu {
        return Err(schema(
            path,
            format!(
                "snapshot has {} stream cores, config declares {}",
                state.stream_cores.len(),
                config.stream_cores_per_cu
            ),
        ));
    }
    cu.set_cycles(state.cycles);
    cu.ecu_mut()
        .restore_tallies(state.ecu_recoveries, state.ecu_recovery_cycles);
    for (i, (sampler, st)) in cu.injectors_mut().iter_mut().zip(&state.injectors).enumerate() {
        sampler
            .restore_state(st)
            .map_err(|e| schema(&format!("{path}.injectors[{i}]"), e))?;
    }

    // Accounting: tallies, energy and (when configured) metrics.
    let tallies = cu.tallies_mut();
    tallies.clear();
    tallies.extend(state.tallies.iter().copied());
    let b = &state.energy;
    for (name, pj) in [
        ("fpu_exec_pj", b.fpu_exec_pj),
        ("hit_pj", b.hit_pj),
        ("lut_lookup_pj", b.lut_lookup_pj),
        ("lut_update_pj", b.lut_update_pj),
        ("recovery_pj", b.recovery_pj),
    ] {
        if !pj.is_finite() || pj < 0.0 {
            return Err(schema(
                &format!("{path}.energy.{name}"),
                format!("energy must be finite and non-negative, got {pj}"),
            ));
        }
    }
    let ledger = cu.ledger_mut();
    ledger.reset();
    ledger.charge_exec(b.fpu_exec_pj);
    ledger.charge_hit(b.hit_pj);
    ledger.charge_lut_lookup(b.lut_lookup_pj);
    ledger.charge_lut_update(b.lut_update_pj);
    ledger.charge_recovery(b.recovery_pj);
    match (config.metrics_window, &state.metrics) {
        (None, None) => {}
        (None, Some(_)) => {
            return Err(schema(
                &format!("{path}.metrics"),
                "snapshot carries metrics but the config disables them",
            ));
        }
        (Some(_), None) => {
            return Err(schema(
                &format!("{path}.metrics"),
                "config enables metrics but the snapshot has none",
            ));
        }
        (Some(window), Some(metrics)) => {
            let mpath = format!("{path}.metrics");
            let total = build_series(&metrics.total, window, &format!("{mpath}.total"))?;
            let mut per_op = Vec::with_capacity(metrics.per_op.len());
            for (op, s) in &metrics.per_op {
                let series = build_series(s, window, &format!("{mpath}.per_op.{}", op.mnemonic()))?;
                per_op.push((*op, series));
            }
            let sink = cu
                .metrics_mut()
                .ok_or_else(|| schema(&mpath, "device has no metrics sink despite the config"))?;
            sink.restore_series(total, per_op);
        }
    }

    // Lane units, materialized in snapshot order.
    for (sc_index, (sc_state, _)) in state
        .stream_cores
        .iter()
        .zip(0..config.stream_cores_per_cu)
        .enumerate()
    {
        for (u, unit_state) in sc_state.iter().enumerate() {
            let upath = format!(
                "{path}.stream_cores[{sc_index}][{u}] ({})",
                unit_state.op.mnemonic()
            );
            validate_unit(unit_state, config, &upath)?;
            let unit = cu.stream_cores_mut()[sc_index].unit_mut(unit_state.op, config);
            let memo = unit.memo_mut();
            // Raw register writes first: `write_reg` does not clear the
            // FIFO, unlike `set_enabled(false)`.
            memo.write_reg(Reg::Ctrl, unit_state.ctrl);
            memo.write_reg(Reg::Mask, unit_state.mask);
            memo.write_reg(Reg::Threshold, unit_state.threshold_bits);
            for entry in &unit_state.fifo {
                let operands: Vec<f32> =
                    entry.operand_bits.iter().map(|&b| f32::from_bits(b)).collect();
                memo.preload(Operands::from_slice(&operands), f32::from_bits(entry.result_bits));
            }
            memo.restore_stats(unit_state.stats);
            memo.set_update_after_recovery(unit_state.update_after_recovery);
            unit.fpu_mut().restore_state(
                unit_state.fpu_counters,
                unit_state.last_issue,
                unit_state.issued,
                unit_state.slip_cycles,
            );
            match (unit.gate_mut(), unit_state.gate) {
                (Some(gate), Some(gs)) => gate.restore_state(gs),
                (None, None) => {}
                (Some(_), None) => {
                    return Err(schema(&upath, "config expects adaptive-gate state, snapshot has none"));
                }
                (None, Some(_)) => {
                    return Err(schema(&upath, "snapshot carries adaptive-gate state but the config has no gate"));
                }
            }
        }
    }
    Ok(())
}

fn validate_unit(
    unit: &UnitState,
    config: &DeviceConfig,
    path: &str,
) -> Result<(), SnapshotError> {
    if unit.fifo.len() > config.fifo_depth {
        return Err(schema(
            path,
            format!(
                "{} FIFO entries exceed the configured depth {}",
                unit.fifo.len(),
                config.fifo_depth
            ),
        ));
    }
    for (i, entry) in unit.fifo.iter().enumerate() {
        let n = entry.operand_bits.len();
        if n == 0 || n > MAX_ARITY {
            return Err(schema(
                &format!("{path}.fifo[{i}]"),
                format!("operand count {n} out of range 1..={MAX_ARITY}"),
            ));
        }
    }
    Ok(())
}

fn build_series(
    state: &SeriesState,
    configured_window: u64,
    path: &str,
) -> Result<tm_obs::WindowedSeries<METRICS_CHANNELS>, SnapshotError> {
    if state.initial_width != configured_window {
        return Err(schema(
            path,
            format!(
                "series initial width {} does not match the configured metrics window {}",
                state.initial_width, configured_window
            ),
        ));
    }
    tm_obs::WindowedSeries::from_parts(
        state.initial_width,
        state.width,
        MetricsSink::MAX_WINDOWS,
        state.windows.clone(),
    )
    .ok_or_else(|| schema(path, "inconsistent windowed-series geometry"))
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn hex64(v: u64) -> String {
    format!("0x{v:x}")
}

fn hex32(v: u32) -> String {
    format!("0x{v:x}")
}

fn config_to_json(c: &DeviceConfig) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("compute_units", c.compute_units as u64);
    w.u64_field("stream_cores_per_cu", c.stream_cores_per_cu as u64);
    w.u64_field("wavefront_size", c.wavefront_size as u64);
    w.str_field(
        "arch",
        match c.arch {
            ArchMode::Memoized => "memoized",
            ArchMode::Baseline => "baseline",
            ArchMode::Spatial => "spatial",
        },
    );
    w.u64_field("fifo_depth", c.fifo_depth as u64);
    w.str_field(
        "replacement",
        match c.replacement {
            Replacement::Fifo => "fifo",
            Replacement::Lru => "lru",
        },
    );
    w.raw_field("policy", &policy_to_json(c.policy));
    w.raw_field("recovery", &recovery_to_json(c.recovery));
    w.raw_field("error_mode", &error_mode_to_json(c.error_mode));
    w.raw_field("error_model", &error_model_to_json(&c.error_model));
    w.f64_field("vdd", c.vdd);
    w.raw_field("voltage_model", &voltage_model_to_json(&c.voltage_model));
    w.raw_field("energy_model", &energy_model_to_json(&c.energy_model));
    w.str_field("seed", &hex64(c.seed));
    w.u64_field("trace_depth", c.trace_depth as u64);
    match c.adaptive_gate {
        None => w.raw_field("adaptive_gate", "null"),
        Some(g) => w.raw_field("adaptive_gate", &gate_policy_to_json(g)),
    }
    w.str_field("backend", c.backend.name());
    w.bool_field("locality_tracking", c.locality_tracking);
    match c.metrics_window {
        None => w.raw_field("metrics_window", "null"),
        Some(n) => w.u64_field("metrics_window", n),
    }
    w.finish()
}

fn policy_to_json(p: MatchPolicy) -> String {
    let mut w = ObjWriter::new();
    match p {
        MatchPolicy::Exact => w.str_field("kind", "exact"),
        MatchPolicy::Threshold(t) => {
            w.str_field("kind", "threshold");
            // Bit pattern, not decimal: lossless for every f32.
            w.str_field("threshold_bits", &hex32(t.to_bits()));
        }
        MatchPolicy::MaskBits(mask) => {
            w.str_field("kind", "mask_bits");
            w.u64_field("mask", u64::from(mask));
        }
    }
    w.finish()
}

fn recovery_to_json(r: RecoveryPolicy) -> String {
    let mut w = ObjWriter::new();
    match r {
        RecoveryPolicy::FlushReplay { cycles_per_error } => {
            w.str_field("kind", "flush_replay");
            w.u64_field("cycles_per_error", u64::from(cycles_per_error));
        }
        RecoveryPolicy::MultipleIssueReplay { issues } => {
            w.str_field("kind", "multiple_issue_replay");
            w.u64_field("issues", u64::from(issues));
        }
        RecoveryPolicy::HalfFrequencyReplay => w.str_field("kind", "half_frequency_replay"),
        RecoveryPolicy::DecouplingQueue => w.str_field("kind", "decoupling_queue"),
    }
    w.finish()
}

fn error_mode_to_json(m: ErrorMode) -> String {
    let mut w = ObjWriter::new();
    match m {
        ErrorMode::FixedRate(rate) => {
            w.str_field("kind", "fixed_rate");
            w.f64_field("rate", rate);
        }
        ErrorMode::PerStageRate(rate) => {
            w.str_field("kind", "per_stage_rate");
            w.f64_field("rate", rate);
        }
        ErrorMode::FromVoltage => w.str_field("kind", "from_voltage"),
    }
    w.finish()
}

fn error_model_to_json(m: &ErrorModelSpec) -> String {
    let mut w = ObjWriter::new();
    w.str_field("kind", m.name());
    match m {
        ErrorModelSpec::Uniform | ErrorModelSpec::VoltageCoupled { .. } => {
            if let ErrorModelSpec::VoltageCoupled { sigma_vdd } = m {
                w.f64_field("sigma_vdd", *sigma_vdd);
            }
        }
        ErrorModelSpec::Heterogeneous(h) => {
            w.f64_field("slow_fraction", h.slow_fraction);
            w.f64_field("slow_factor", h.slow_factor);
            w.f64_field("fast_fraction", h.fast_fraction);
            w.f64_field("fast_factor", h.fast_factor);
        }
        ErrorModelSpec::Burst(b) => {
            w.f64_field("enter", b.enter);
            w.f64_field("exit", b.exit);
            w.f64_field("burst_factor", b.burst_factor);
        }
    }
    w.finish()
}

fn voltage_model_to_json(v: &VoltageModel) -> String {
    let mut w = ObjWriter::new();
    w.f64_field("nominal_vdd", v.nominal_vdd());
    w.f64_field("onset_vdd", v.onset_vdd());
    w.f64_field("base_rate", v.base_rate());
    w.f64_field("alpha", v.alpha());
    w.f64_field("vth", v.vth());
    w.finish()
}

fn energy_model_to_json(e: &EnergyModel) -> String {
    let mut w = ObjWriter::new();
    w.f64_field("epi_add_pj", e.epi_add_pj);
    w.f64_field("lut_lookup_frac", e.lut_lookup_frac);
    w.f64_field("lut_update_frac", e.lut_update_frac);
    w.f64_field("gated_stage_residual", e.gated_stage_residual);
    w.f64_field("recovery_cycle_frac", e.recovery_cycle_frac);
    w.f64_field("spatial_broadcast_frac", e.spatial_broadcast_frac);
    w.finish()
}

fn gate_policy_to_json(g: GatePolicy) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("window", g.window);
    w.f64_field("min_hit_rate", g.min_hit_rate);
    w.u64_field("gate_period", g.gate_period);
    w.u64_field("consecutive_windows", u64::from(g.consecutive_windows));
    w.finish()
}

fn cu_to_json(cu: &CuState) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("cycles", cu.cycles);
    {
        let mut e = ObjWriter::new();
        e.u64_field("recoveries", cu.ecu_recoveries);
        e.u64_field("recovery_cycles", cu.ecu_recovery_cycles);
        w.raw_field("ecu", &e.finish());
    }
    let injectors: Vec<String> = cu
        .injectors
        .iter()
        .map(|s| {
            let mut i = ObjWriter::new();
            i.str_field("pcg_state", &hex64(s.pcg_state));
            i.str_field("pcg_inc", &hex64(s.pcg_inc));
            i.u64_field("drawn", s.drawn);
            i.u64_field("errors", s.errors);
            match s.burst_bad {
                None => i.raw_field("burst_bad", "null"),
                Some(b) => i.bool_field("burst_bad", b),
            }
            i.finish()
        })
        .collect();
    w.raw_field("injectors", &format!("[{}]", injectors.join(",")));
    let tallies: Vec<String> = cu
        .tallies
        .iter()
        .map(|(op, t)| {
            let mut o = ObjWriter::new();
            o.str_field("op", op.mnemonic());
            o.u64_field("lane_instructions", t.lane_instructions);
            o.u64_field("vector_instructions", t.vector_instructions);
            o.u64_field("spatial_hits", t.spatial_hits);
            o.u64_field("spatial_masked_errors", t.spatial_masked_errors);
            o.f64_field("energy_pj", t.energy_pj);
            o.finish()
        })
        .collect();
    w.raw_field("tallies", &format!("[{}]", tallies.join(",")));
    {
        let b = &cu.energy;
        let mut e = ObjWriter::new();
        e.f64_field("fpu_exec_pj", b.fpu_exec_pj);
        e.f64_field("hit_pj", b.hit_pj);
        e.f64_field("lut_lookup_pj", b.lut_lookup_pj);
        e.f64_field("lut_update_pj", b.lut_update_pj);
        e.f64_field("recovery_pj", b.recovery_pj);
        w.raw_field("energy", &e.finish());
    }
    match &cu.metrics {
        None => w.raw_field("metrics", "null"),
        Some(m) => {
            let mut o = ObjWriter::new();
            o.raw_field("total", &series_to_json(&m.total));
            let per_op: Vec<String> = m
                .per_op
                .iter()
                .map(|(op, s)| {
                    let mut p = ObjWriter::new();
                    p.str_field("op", op.mnemonic());
                    p.raw_field("series", &series_to_json(s));
                    p.finish()
                })
                .collect();
            o.raw_field("per_op", &format!("[{}]", per_op.join(",")));
            w.raw_field("metrics", &o.finish());
        }
    }
    let scs: Vec<String> = cu
        .stream_cores
        .iter()
        .map(|units| {
            let us: Vec<String> = units.iter().map(unit_to_json).collect();
            format!("[{}]", us.join(","))
        })
        .collect();
    w.raw_field("stream_cores", &format!("[{}]", scs.join(",")));
    w.finish()
}

fn series_to_json(s: &SeriesState) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("initial_width", s.initial_width);
    w.u64_field("width", s.width);
    let windows: Vec<String> = s.windows.iter().map(|win| f64_array(&win[..])).collect();
    w.raw_field("windows", &format!("[{}]", windows.join(",")));
    w.finish()
}

fn unit_to_json(u: &UnitState) -> String {
    let mut w = ObjWriter::new();
    w.str_field("op", u.op.mnemonic());
    {
        let mut m = ObjWriter::new();
        m.u64_field("ctrl", u64::from(u.ctrl));
        m.u64_field("mask", u64::from(u.mask));
        m.str_field("threshold_bits", &hex32(u.threshold_bits));
        w.raw_field("mmio", &m.finish());
    }
    w.bool_field("update_after_recovery", u.update_after_recovery);
    {
        let s = &u.stats;
        let mut o = ObjWriter::new();
        o.u64_field("lookups", s.lookups);
        o.u64_field("hits", s.hits);
        o.u64_field("misses", s.misses);
        o.u64_field("updates", s.updates);
        o.u64_field("masked_errors", s.masked_errors);
        o.u64_field("recoveries", s.recoveries);
        o.u64_field("errors_seen", s.errors_seen);
        w.raw_field("stats", &o.finish());
    }
    let fifo: Vec<String> = u
        .fifo
        .iter()
        .map(|e| {
            let mut o = ObjWriter::new();
            let operands: Vec<String> = e.operand_bits.iter().map(|&b| hex32(b)).collect();
            o.raw_field("operands", &str_array(&operands));
            o.str_field("result", &hex32(e.result_bits));
            o.finish()
        })
        .collect();
    w.raw_field("fifo", &format!("[{}]", fifo.join(",")));
    {
        let mut f = ObjWriter::new();
        f.u64_field("executed", u.fpu_counters.executed);
        f.u64_field("squashed", u.fpu_counters.squashed);
        match u.last_issue {
            None => f.raw_field("last_issue", "null"),
            Some(c) => f.u64_field("last_issue", c),
        }
        f.u64_field("issued", u.issued);
        f.u64_field("slip_cycles", u.slip_cycles);
        w.raw_field("fpu", &f.finish());
    }
    match u.gate {
        None => w.raw_field("gate", "null"),
        Some(g) => {
            let mut o = ObjWriter::new();
            o.u64_field("window_accesses", g.window_accesses);
            o.u64_field("window_hits", g.window_hits);
            o.u64_field("gated_remaining", g.gated_remaining);
            o.u64_field("times_gated", g.times_gated);
            o.u64_field("low_windows", u64::from(g.low_windows));
            w.raw_field("gate", &o.finish());
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------
// JSON decoding
// ---------------------------------------------------------------------

fn want<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key)
        .ok_or_else(|| schema(path, format!("missing field `{key}`")))
}

fn want_u64(v: &JsonValue, path: &str, key: &str) -> Result<u64, SnapshotError> {
    want(v, path, key)?
        .as_u64()
        .ok_or_else(|| schema(path, format!("field `{key}` must be a non-negative integer")))
}

fn want_u32(v: &JsonValue, path: &str, key: &str) -> Result<u32, SnapshotError> {
    u32::try_from(want_u64(v, path, key)?)
        .map_err(|_| schema(path, format!("field `{key}` exceeds 32 bits")))
}

fn want_usize(v: &JsonValue, path: &str, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(want_u64(v, path, key)?)
        .map_err(|_| schema(path, format!("field `{key}` does not fit in usize")))
}

fn want_f64(v: &JsonValue, path: &str, key: &str) -> Result<f64, SnapshotError> {
    let x = want(v, path, key)?
        .as_f64()
        .ok_or_else(|| schema(path, format!("field `{key}` must be a number")))?;
    if !x.is_finite() {
        return Err(schema(path, format!("field `{key}` must be finite")));
    }
    Ok(x)
}

fn want_bool(v: &JsonValue, path: &str, key: &str) -> Result<bool, SnapshotError> {
    want(v, path, key)?
        .as_bool()
        .ok_or_else(|| schema(path, format!("field `{key}` must be a boolean")))
}

fn want_str<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a str, SnapshotError> {
    want(v, path, key)?
        .as_str()
        .ok_or_else(|| schema(path, format!("field `{key}` must be a string")))
}

fn want_arr<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a [JsonValue], SnapshotError> {
    want(v, path, key)?
        .as_arr()
        .ok_or_else(|| schema(path, format!("field `{key}` must be an array")))
}

fn parse_hex(s: &str, path: &str, key: &str) -> Result<u64, SnapshotError> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| {
            schema(
                path,
                format!("field `{key}` must be a 0x-prefixed hex string, got \"{s}\""),
            )
        })
}

fn want_hex64(v: &JsonValue, path: &str, key: &str) -> Result<u64, SnapshotError> {
    parse_hex(want_str(v, path, key)?, path, key)
}

fn want_hex32(v: &JsonValue, path: &str, key: &str) -> Result<u32, SnapshotError> {
    u32::try_from(want_hex64(v, path, key)?)
        .map_err(|_| schema(path, format!("field `{key}` exceeds 32 bits")))
}

/// A `null`-able u64 field (the key must still be present).
fn opt_u64(v: &JsonValue, path: &str, key: &str) -> Result<Option<u64>, SnapshotError> {
    match want(v, path, key)? {
        JsonValue::Null => Ok(None),
        x => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| schema(path, format!("field `{key}` must be null or an integer"))),
    }
}

fn unit_interval(x: f64, path: &str, key: &str) -> Result<f64, SnapshotError> {
    if !(0.0..=1.0).contains(&x) {
        return Err(schema(path, format!("field `{key}` must lie in [0, 1], got {x}")));
    }
    Ok(x)
}

fn non_negative(x: f64, path: &str, key: &str) -> Result<f64, SnapshotError> {
    if x < 0.0 {
        return Err(schema(path, format!("field `{key}` must be non-negative, got {x}")));
    }
    Ok(x)
}

fn parse_op(s: &str, path: &str) -> Result<FpOp, SnapshotError> {
    ALL_OPS
        .iter()
        .copied()
        .find(|op| op.mnemonic() == s)
        .ok_or_else(|| schema(path, format!("unknown opcode mnemonic \"{s}\"")))
}

fn config_from_json(v: &JsonValue) -> Result<DeviceConfig, SnapshotError> {
    let p = "$.config";
    let arch = match want_str(v, p, "arch")? {
        "memoized" => ArchMode::Memoized,
        "baseline" => ArchMode::Baseline,
        "spatial" => ArchMode::Spatial,
        other => return Err(schema(p, format!("unknown arch \"{other}\""))),
    };
    let replacement = match want_str(v, p, "replacement")? {
        "fifo" => Replacement::Fifo,
        "lru" => Replacement::Lru,
        other => return Err(schema(p, format!("unknown replacement policy \"{other}\""))),
    };
    // Documents written before the intra-CU backend was removed may name
    // it (and carry an `intra_cu_shards` field, which is ignored): they
    // run on the parallel backend, which produces the same results.
    let backend = match want_str(v, p, "backend")? {
        "sequential" => ExecBackend::Sequential,
        "parallel" | "intra-cu" => ExecBackend::Parallel,
        other => return Err(schema(p, format!("unknown backend \"{other}\""))),
    };
    let policy = policy_from_json(want(v, p, "policy")?)?;
    let recovery = recovery_from_json(want(v, p, "recovery")?)?;
    let error_mode = error_mode_from_json(want(v, p, "error_mode")?)?;
    let error_model = error_model_from_json(want(v, p, "error_model")?)?;
    let voltage_model = voltage_model_from_json(want(v, p, "voltage_model")?)?;
    let energy_model = energy_model_from_json(want(v, p, "energy_model")?)?;
    let adaptive_gate = match want(v, p, "adaptive_gate")? {
        JsonValue::Null => None,
        g => Some(gate_policy_from_json(g)?),
    };
    Ok(DeviceConfig {
        compute_units: want_usize(v, p, "compute_units")?,
        stream_cores_per_cu: want_usize(v, p, "stream_cores_per_cu")?,
        wavefront_size: want_usize(v, p, "wavefront_size")?,
        arch,
        fifo_depth: want_usize(v, p, "fifo_depth")?,
        replacement,
        policy,
        recovery,
        error_mode,
        error_model,
        vdd: want_f64(v, p, "vdd")?,
        voltage_model,
        energy_model,
        seed: want_hex64(v, p, "seed")?,
        trace_depth: want_usize(v, p, "trace_depth")?,
        adaptive_gate,
        backend,
        locality_tracking: want_bool(v, p, "locality_tracking")?,
        metrics_window: opt_u64(v, p, "metrics_window")?,
    })
}

fn policy_from_json(v: &JsonValue) -> Result<MatchPolicy, SnapshotError> {
    let p = "$.config.policy";
    match want_str(v, p, "kind")? {
        "exact" => Ok(MatchPolicy::Exact),
        "threshold" => {
            let t = f32::from_bits(want_hex32(v, p, "threshold_bits")?);
            if !t.is_finite() || t < 0.0 {
                return Err(schema(p, format!("threshold must be finite and non-negative, got {t}")));
            }
            Ok(MatchPolicy::Threshold(t))
        }
        "mask_bits" => Ok(MatchPolicy::MaskBits(want_u32(v, p, "mask")?)),
        other => Err(schema(p, format!("unknown policy kind \"{other}\""))),
    }
}

fn recovery_from_json(v: &JsonValue) -> Result<RecoveryPolicy, SnapshotError> {
    let p = "$.config.recovery";
    match want_str(v, p, "kind")? {
        "flush_replay" => Ok(RecoveryPolicy::FlushReplay {
            cycles_per_error: want_u32(v, p, "cycles_per_error")?,
        }),
        "multiple_issue_replay" => Ok(RecoveryPolicy::MultipleIssueReplay {
            issues: want_u32(v, p, "issues")?,
        }),
        "half_frequency_replay" => Ok(RecoveryPolicy::HalfFrequencyReplay),
        "decoupling_queue" => Ok(RecoveryPolicy::DecouplingQueue),
        other => Err(schema(p, format!("unknown recovery kind \"{other}\""))),
    }
}

fn error_mode_from_json(v: &JsonValue) -> Result<ErrorMode, SnapshotError> {
    let p = "$.config.error_mode";
    match want_str(v, p, "kind")? {
        "fixed_rate" => Ok(ErrorMode::FixedRate(unit_interval(
            want_f64(v, p, "rate")?,
            p,
            "rate",
        )?)),
        "per_stage_rate" => Ok(ErrorMode::PerStageRate(unit_interval(
            want_f64(v, p, "rate")?,
            p,
            "rate",
        )?)),
        "from_voltage" => Ok(ErrorMode::FromVoltage),
        other => Err(schema(p, format!("unknown error-mode kind \"{other}\""))),
    }
}

fn error_model_from_json(v: &JsonValue) -> Result<ErrorModelSpec, SnapshotError> {
    let p = "$.config.error_model";
    match want_str(v, p, "kind")? {
        "uniform" => Ok(ErrorModelSpec::Uniform),
        "heterogeneous" => Ok(ErrorModelSpec::Heterogeneous(HeterogeneousErrors {
            slow_fraction: unit_interval(want_f64(v, p, "slow_fraction")?, p, "slow_fraction")?,
            slow_factor: non_negative(want_f64(v, p, "slow_factor")?, p, "slow_factor")?,
            fast_fraction: unit_interval(want_f64(v, p, "fast_fraction")?, p, "fast_fraction")?,
            fast_factor: non_negative(want_f64(v, p, "fast_factor")?, p, "fast_factor")?,
        })),
        "voltage-coupled" => Ok(ErrorModelSpec::VoltageCoupled {
            sigma_vdd: non_negative(want_f64(v, p, "sigma_vdd")?, p, "sigma_vdd")?,
        }),
        "burst" => Ok(ErrorModelSpec::Burst(BurstErrors {
            enter: unit_interval(want_f64(v, p, "enter")?, p, "enter")?,
            exit: unit_interval(want_f64(v, p, "exit")?, p, "exit")?,
            burst_factor: non_negative(want_f64(v, p, "burst_factor")?, p, "burst_factor")?,
        })),
        other => Err(schema(p, format!("unknown error-model kind \"{other}\""))),
    }
}

fn voltage_model_from_json(v: &JsonValue) -> Result<VoltageModel, SnapshotError> {
    let p = "$.config.voltage_model";
    let nominal = want_f64(v, p, "nominal_vdd")?;
    let onset = want_f64(v, p, "onset_vdd")?;
    let base_rate = unit_interval(want_f64(v, p, "base_rate")?, p, "base_rate")?;
    let alpha = non_negative(want_f64(v, p, "alpha")?, p, "alpha")?;
    let vth = want_f64(v, p, "vth")?;
    // Mirror `VoltageModel::new`'s assertions so malformed input becomes
    // a structured error instead of a panic.
    if nominal <= 0.0 || onset <= 0.0 {
        return Err(schema(p, "voltages must be positive"));
    }
    if onset > nominal {
        return Err(schema(p, "error onset must not exceed the nominal voltage"));
    }
    if !(0.0..onset).contains(&vth) {
        return Err(schema(p, format!("vth must lie in [0, onset), got {vth}")));
    }
    Ok(VoltageModel::new(nominal, onset, base_rate, alpha, vth))
}

fn energy_model_from_json(v: &JsonValue) -> Result<EnergyModel, SnapshotError> {
    let p = "$.config.energy_model";
    let field = |key| -> Result<f64, SnapshotError> { non_negative(want_f64(v, p, key)?, p, key) };
    Ok(EnergyModel {
        epi_add_pj: field("epi_add_pj")?,
        lut_lookup_frac: field("lut_lookup_frac")?,
        lut_update_frac: field("lut_update_frac")?,
        gated_stage_residual: field("gated_stage_residual")?,
        recovery_cycle_frac: field("recovery_cycle_frac")?,
        spatial_broadcast_frac: field("spatial_broadcast_frac")?,
    })
}

fn gate_policy_from_json(v: &JsonValue) -> Result<GatePolicy, SnapshotError> {
    let p = "$.config.adaptive_gate";
    let policy = GatePolicy {
        window: want_u64(v, p, "window")?,
        min_hit_rate: unit_interval(want_f64(v, p, "min_hit_rate")?, p, "min_hit_rate")?,
        gate_period: want_u64(v, p, "gate_period")?,
        consecutive_windows: want_u32(v, p, "consecutive_windows")?,
    };
    // `AdaptiveGate::new` asserts these; reject them structurally.
    if policy.window == 0 || policy.gate_period == 0 || policy.consecutive_windows == 0 {
        return Err(schema(p, "window, gate_period and consecutive_windows must be positive"));
    }
    Ok(policy)
}

fn cu_from_json(
    v: &JsonValue,
    path: &str,
    config: &DeviceConfig,
) -> Result<CuState, SnapshotError> {
    let ecu = want(v, path, "ecu")?;
    let epath = format!("{path}.ecu");
    let injectors_json = want_arr(v, path, "injectors")?;
    let mut injectors = Vec::with_capacity(injectors_json.len());
    for (i, inj) in injectors_json.iter().enumerate() {
        let ipath = format!("{path}.injectors[{i}]");
        let burst_bad = match want(inj, &ipath, "burst_bad")? {
            JsonValue::Null => None,
            b => Some(b.as_bool().ok_or_else(|| {
                schema(&ipath, "field `burst_bad` must be null or a boolean")
            })?),
        };
        let state = ErrorSamplerState {
            pcg_state: want_hex64(inj, &ipath, "pcg_state")?,
            pcg_inc: want_hex64(inj, &ipath, "pcg_inc")?,
            drawn: want_u64(inj, &ipath, "drawn")?,
            errors: want_u64(inj, &ipath, "errors")?,
            burst_bad,
        };
        if state.pcg_inc.is_multiple_of(2) {
            return Err(schema(&ipath, "PCG increment must be odd"));
        }
        injectors.push(state);
    }
    let tallies_json = want_arr(v, path, "tallies")?;
    let mut tallies = Vec::with_capacity(tallies_json.len());
    for (i, t) in tallies_json.iter().enumerate() {
        let tpath = format!("{path}.tallies[{i}]");
        let op = parse_op(want_str(t, &tpath, "op")?, &tpath)?;
        let energy_pj = non_negative(want_f64(t, &tpath, "energy_pj")?, &tpath, "energy_pj")?;
        tallies.push((
            op,
            OpTally {
                lane_instructions: want_u64(t, &tpath, "lane_instructions")?,
                vector_instructions: want_u64(t, &tpath, "vector_instructions")?,
                spatial_hits: want_u64(t, &tpath, "spatial_hits")?,
                spatial_masked_errors: want_u64(t, &tpath, "spatial_masked_errors")?,
                energy_pj,
            },
        ));
    }
    let energy_json = want(v, path, "energy")?;
    let gpath = format!("{path}.energy");
    let energy = EnergyBreakdown {
        fpu_exec_pj: want_f64(energy_json, &gpath, "fpu_exec_pj")?,
        hit_pj: want_f64(energy_json, &gpath, "hit_pj")?,
        lut_lookup_pj: want_f64(energy_json, &gpath, "lut_lookup_pj")?,
        lut_update_pj: want_f64(energy_json, &gpath, "lut_update_pj")?,
        recovery_pj: want_f64(energy_json, &gpath, "recovery_pj")?,
    };
    let metrics = match want(v, path, "metrics")? {
        JsonValue::Null => None,
        m => {
            let mpath = format!("{path}.metrics");
            let total = series_from_json(want(m, &mpath, "total")?, &format!("{mpath}.total"))?;
            let per_op_json = want_arr(m, &mpath, "per_op")?;
            let mut per_op = Vec::with_capacity(per_op_json.len());
            for (i, entry) in per_op_json.iter().enumerate() {
                let ppath = format!("{mpath}.per_op[{i}]");
                let op = parse_op(want_str(entry, &ppath, "op")?, &ppath)?;
                let series = series_from_json(want(entry, &ppath, "series")?, &ppath)?;
                per_op.push((op, series));
            }
            Some(MetricsState { total, per_op })
        }
    };
    let scs_json = want_arr(v, path, "stream_cores")?;
    let mut stream_cores = Vec::with_capacity(scs_json.len());
    for (s, sc) in scs_json.iter().enumerate() {
        let spath = format!("{path}.stream_cores[{s}]");
        let units_json = sc
            .as_arr()
            .ok_or_else(|| schema(&spath, "stream core must be an array of lane units"))?;
        let mut units = Vec::with_capacity(units_json.len());
        for (u, unit) in units_json.iter().enumerate() {
            units.push(unit_from_json(unit, &format!("{spath}[{u}]"), config)?);
        }
        stream_cores.push(units);
    }
    Ok(CuState {
        cycles: want_u64(v, path, "cycles")?,
        ecu_recoveries: want_u64(ecu, &epath, "recoveries")?,
        ecu_recovery_cycles: want_u64(ecu, &epath, "recovery_cycles")?,
        injectors,
        tallies,
        energy,
        metrics,
        stream_cores,
    })
}

fn series_from_json(v: &JsonValue, path: &str) -> Result<SeriesState, SnapshotError> {
    let windows_json = want_arr(v, path, "windows")?;
    let mut windows = Vec::with_capacity(windows_json.len());
    for (i, win) in windows_json.iter().enumerate() {
        let arr = win.as_arr().ok_or_else(|| {
            schema(path, format!("windows[{i}] must be an array of {METRICS_CHANNELS} numbers"))
        })?;
        if arr.len() != METRICS_CHANNELS {
            return Err(schema(
                path,
                format!("windows[{i}] has {} channels, expected {METRICS_CHANNELS}", arr.len()),
            ));
        }
        let mut channels = [0.0; METRICS_CHANNELS];
        for (c, x) in arr.iter().enumerate() {
            channels[c] = x
                .as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| schema(path, format!("windows[{i}][{c}] must be a finite number")))?;
        }
        windows.push(channels);
    }
    Ok(SeriesState {
        initial_width: want_u64(v, path, "initial_width")?,
        width: want_u64(v, path, "width")?,
        windows,
    })
}

fn unit_from_json(
    v: &JsonValue,
    path: &str,
    config: &DeviceConfig,
) -> Result<UnitState, SnapshotError> {
    let op = parse_op(want_str(v, path, "op")?, path)?;
    let mmio = want(v, path, "mmio")?;
    let mpath = format!("{path}.mmio");
    let stats_json = want(v, path, "stats")?;
    let spath = format!("{path}.stats");
    let stats = MemoStats {
        lookups: want_u64(stats_json, &spath, "lookups")?,
        hits: want_u64(stats_json, &spath, "hits")?,
        misses: want_u64(stats_json, &spath, "misses")?,
        updates: want_u64(stats_json, &spath, "updates")?,
        masked_errors: want_u64(stats_json, &spath, "masked_errors")?,
        recoveries: want_u64(stats_json, &spath, "recoveries")?,
        errors_seen: want_u64(stats_json, &spath, "errors_seen")?,
    };
    let fifo_json = want_arr(v, path, "fifo")?;
    if fifo_json.len() > config.fifo_depth {
        return Err(schema(
            path,
            format!("{} FIFO entries exceed the configured depth {}", fifo_json.len(), config.fifo_depth),
        ));
    }
    let mut fifo = Vec::with_capacity(fifo_json.len());
    for (i, entry) in fifo_json.iter().enumerate() {
        let fpath = format!("{path}.fifo[{i}]");
        let operands_json = want_arr(entry, &fpath, "operands")?;
        if operands_json.is_empty() || operands_json.len() > MAX_ARITY {
            return Err(schema(
                &fpath,
                format!("operand count {} out of range 1..={MAX_ARITY}", operands_json.len()),
            ));
        }
        let mut operand_bits = Vec::with_capacity(operands_json.len());
        for (o, word) in operands_json.iter().enumerate() {
            let s = word.as_str().ok_or_else(|| {
                schema(&fpath, format!("operands[{o}] must be a hex string"))
            })?;
            let bits = u32::try_from(parse_hex(s, &fpath, "operands")?)
                .map_err(|_| schema(&fpath, format!("operands[{o}] exceeds 32 bits")))?;
            operand_bits.push(bits);
        }
        fifo.push(EntryState {
            operand_bits,
            result_bits: want_hex32(entry, &fpath, "result")?,
        });
    }
    let fpu = want(v, path, "fpu")?;
    let fpath = format!("{path}.fpu");
    let gate = match want(v, path, "gate")? {
        JsonValue::Null => None,
        g => {
            let gpath = format!("{path}.gate");
            Some(GateState {
                window_accesses: want_u64(g, &gpath, "window_accesses")?,
                window_hits: want_u64(g, &gpath, "window_hits")?,
                gated_remaining: want_u64(g, &gpath, "gated_remaining")?,
                times_gated: want_u64(g, &gpath, "times_gated")?,
                low_windows: want_u32(g, &gpath, "low_windows")?,
            })
        }
    };
    Ok(UnitState {
        op,
        ctrl: want_u32(mmio, &mpath, "ctrl")?,
        mask: want_u32(mmio, &mpath, "mask")?,
        threshold_bits: want_hex32(mmio, &mpath, "threshold_bits")?,
        update_after_recovery: want_bool(v, path, "update_after_recovery")?,
        stats,
        fifo,
        fpu_counters: FpuCounters {
            executed: want_u64(fpu, &fpath, "executed")?,
            squashed: want_u64(fpu, &fpath, "squashed")?,
        },
        last_issue: opt_u64(fpu, &fpath, "last_issue")?,
        issued: want_u64(fpu, &fpath, "issued")?,
        slip_cycles: want_u64(fpu, &fpath, "slip_cycles")?,
        gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Addr, Bindings, Src, VInst, VProgram};
    use tm_fpu::FpOp;

    /// `out[gid] = sqrt(gid * 0.5 + 0.5)`.
    fn run_some(device: &mut Device, n: usize) {
        let mix = VProgram::new(
            2,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Alu { op: FpOp::Mul, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(0.5)] },
                VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Imm(0.5)] },
                VInst::Alu { op: FpOp::Sqrt, dst: 1, srcs: vec![Src::Reg(1)] },
                VInst::Scatter { src: 1, data: 0, addr: Addr::Gid },
            ],
        )
        .unwrap()
        .with_name("mix");
        device.run_program(&mix, &mut Bindings::new(vec![vec![0.0; n]]), n, 1);
    }

    fn busy_config() -> DeviceConfig {
        DeviceConfig::builder()
            .with_error_mode(ErrorMode::FixedRate(0.05))
            .with_seed(0xBEEF)
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut device = Device::new(busy_config());
        run_some(&mut device, 257);
        let snap = device.snapshot().unwrap();
        let json = snap.to_json();
        let parsed = DeviceSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, parsed);
        assert_eq!(json, parsed.to_json());
    }

    #[test]
    fn restored_device_resnapshots_identically() {
        let mut device = Device::new(busy_config());
        run_some(&mut device, 300);
        let snap = device.snapshot().unwrap();
        let restored = Device::restore(&snap).unwrap();
        assert_eq!(restored.snapshot().unwrap().to_json(), snap.to_json());
    }

    #[test]
    fn restored_device_continues_bit_identically() {
        let mut original = Device::new(busy_config());
        run_some(&mut original, 200);
        let snap = original.snapshot().unwrap();
        let mut restored = Device::restore(&snap).unwrap();
        run_some(&mut original, 200);
        run_some(&mut restored, 200);
        assert_eq!(
            original.snapshot().unwrap().to_json(),
            restored.snapshot().unwrap().to_json()
        );
    }

    #[test]
    fn legacy_intra_cu_documents_restore_onto_the_parallel_backend() {
        let mut original = Device::new(busy_config());
        run_some(&mut original, 300);
        // The shape older builds wrote for the removed intra-CU backend.
        let legacy = original.snapshot().unwrap().to_json().replacen(
            "\"backend\":\"sequential\"",
            "\"backend\":\"intra-cu\",\"intra_cu_shards\":4",
            1,
        );
        assert!(legacy.contains("\"intra_cu_shards\":4"));
        let parsed = DeviceSnapshot::from_json(&legacy).unwrap();
        assert_eq!(parsed.config().backend, ExecBackend::Parallel);
        let mut restored = Device::restore(&parsed).unwrap();
        // Large enough to take the threaded path rather than the
        // small-launch sequential fallback.
        let n = 1 << 16;
        run_some(&mut original, n);
        run_some(&mut restored, n);
        assert_eq!(
            original.snapshot().unwrap().to_json(),
            restored
                .snapshot()
                .unwrap()
                .to_json()
                .replacen("\"backend\":\"parallel\"", "\"backend\":\"sequential\"", 1)
        );
    }

    #[test]
    fn exotic_config_round_trips() {
        let config = DeviceConfig::builder()
            .with_policy(MatchPolicy::threshold(0.25))
            .with_error_mode(ErrorMode::PerStageRate(0.002))
            .with_adaptive_gate(GatePolicy::break_even())
            .build()
            .unwrap();
        let mut config = config;
        config.error_model = ErrorModelSpec::Burst(BurstErrors::droop());
        config.metrics_window = Some(64);
        config.check().unwrap();
        let mut device = Device::new(config.clone());
        run_some(&mut device, 500);
        let snap = device.snapshot().unwrap();
        let parsed = DeviceSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.config(), &config);
        let restored = Device::restore(&parsed).unwrap();
        assert_eq!(restored.snapshot().unwrap().to_json(), snap.to_json());
    }

    #[test]
    fn preload_fifos_warms_without_touching_counters() {
        let mut donor = Device::new(busy_config());
        run_some(&mut donor, 300);
        let snap = donor.snapshot().unwrap();

        let mut warm = Device::new(busy_config());
        warm.preload_fifos(&snap);
        assert_eq!(warm.report().wavefronts, 0, "warm start must not fake history");
        assert_eq!(warm.report().total_energy_pj(), 0.0);

        // The warmed device carries the donor's exact FIFO contents.
        let ws = warm.snapshot().unwrap();
        for (wc, dc) in ws.cus.iter().zip(&snap.cus) {
            assert_eq!(wc.cycles, 0);
            for (wsc, dsc) in wc.stream_cores.iter().zip(&dc.stream_cores) {
                assert_eq!(wsc.len(), dsc.len());
                for (wu, du) in wsc.iter().zip(dsc) {
                    assert_eq!(wu.op, du.op);
                    assert_eq!(wu.fifo, du.fifo);
                    assert_eq!(wu.stats, MemoStats::default());
                }
            }
        }
    }

    #[test]
    fn locality_tracking_is_unsupported() {
        let config = DeviceConfig {
            locality_tracking: true,
            ..DeviceConfig::default()
        };
        let device = Device::new(config);
        assert!(matches!(
            device.snapshot(),
            Err(SnapshotError::Unsupported(_))
        ));
    }

    #[test]
    fn malformed_documents_yield_structured_errors() {
        let mut device = Device::new(busy_config());
        run_some(&mut device, 64);
        let good = device.snapshot().unwrap().to_json();

        // Truncations at every eighth byte must never panic.
        for cut in (0..good.len()).step_by(8) {
            assert!(DeviceSnapshot::from_json(&good[..cut]).is_err());
        }
        assert!(matches!(
            DeviceSnapshot::from_json("not json at all"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            DeviceSnapshot::from_json("{}"),
            Err(SnapshotError::Schema(_))
        ));
        let wrong_kind = good.replacen(SNAPSHOT_KIND, "something-else", 1);
        assert!(matches!(
            DeviceSnapshot::from_json(&wrong_kind),
            Err(SnapshotError::Schema(_))
        ));
        let wrong_version = good.replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(
            DeviceSnapshot::from_json(&wrong_version),
            Err(SnapshotError::Version { found: 99 })
        ));
        // An even PCG increment is structurally invalid.
        let snap = device.snapshot().unwrap();
        let inc = snap.cus[0].injectors[0].pcg_inc;
        let bad_inc = good.replacen(&hex64(inc), &hex64(inc & !1), 1);
        assert!(matches!(
            DeviceSnapshot::from_json(&bad_inc),
            Err(SnapshotError::Schema(_))
        ));
        // A config the builder rejects surfaces as a Config error.
        let bad_config = good.replacen("\"compute_units\":2", "\"compute_units\":0", 1);
        assert!(matches!(
            DeviceSnapshot::from_json(&bad_config),
            Err(SnapshotError::Config(ConfigError::NoComputeUnits))
        ));
        // A voltage-derived error rate at a non-positive supply is a
        // Config error, not a panic in the voltage model.
        let from_voltage = good.replacen(
            "{\"kind\":\"fixed_rate\",\"rate\":0.05}",
            "{\"kind\":\"from_voltage\"}",
            1,
        );
        assert_ne!(from_voltage, good);
        for vdd in ["0", "-0.9"] {
            let doc = from_voltage.replacen("\"vdd\":0.9", &format!("\"vdd\":{vdd}"), 1);
            assert_ne!(doc, from_voltage);
            assert!(matches!(
                DeviceSnapshot::from_json(&doc),
                Err(SnapshotError::Config(ConfigError::NonPositiveVdd { .. }))
            ));
        }
        // A FIFO deeper than the bound would be allocated whole on
        // restore, and a failed allocation aborts the process.
        let deep = good.replacen("\"fifo_depth\":2", "\"fifo_depth\":1e15", 1);
        assert_ne!(deep, good);
        assert!(matches!(
            DeviceSnapshot::from_json(&deep),
            Err(SnapshotError::Config(ConfigError::FifoTooDeep { .. }))
        ));
        // Supplies and nominal voltages whose (vdd / nominal)^2 energy
        // scale underflows to 0 or overflows to infinity.
        for (from, to) in [
            ("\"vdd\":0.9", "\"vdd\":1e-300"),
            ("\"vdd\":0.9", "\"vdd\":1e300"),
            ("\"nominal_vdd\":0.9", "\"nominal_vdd\":1e300"),
        ] {
            let doc = good.replacen(from, to, 1);
            assert_ne!(doc, good);
            assert!(matches!(
                DeviceSnapshot::from_json(&doc),
                Err(SnapshotError::Config(ConfigError::DynamicScaleOutOfRange { .. }))
            ));
        }
        // A voltage-coupled jitter that can draw a supply at or below 0.
        let jitter = good.replacen(
            "\"error_model\":{\"kind\":\"uniform\"}",
            "\"error_model\":{\"kind\":\"voltage-coupled\",\"sigma_vdd\":1.5}",
            1,
        );
        assert_ne!(jitter, good);
        assert!(matches!(
            DeviceSnapshot::from_json(&jitter),
            Err(SnapshotError::Config(ConfigError::VddJitterOutOfRange { .. }))
        ));
        // Corner fractions that are each a probability but sum above 1:
        // the heterogeneous sampler would panic on restore.
        let corners = good.replacen(
            "\"error_model\":{\"kind\":\"uniform\"}",
            "\"error_model\":{\"kind\":\"heterogeneous\",\"slow_fraction\":0.8,\
             \"slow_factor\":4,\"fast_fraction\":0.25,\"fast_factor\":0.25}",
            1,
        );
        assert_ne!(corners, good);
        assert!(matches!(
            DeviceSnapshot::from_json(&corners),
            Err(SnapshotError::Config(_))
        ));
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let mut device = Device::new(busy_config());
        run_some(&mut device, 64);
        let good = device.snapshot().unwrap().to_json();
        // Claim one CU while shipping two: the array length check fires.
        let shrunk = good.replacen("\"compute_units\":2", "\"compute_units\":1", 1);
        assert!(matches!(
            DeviceSnapshot::from_json(&shrunk),
            Err(SnapshotError::Schema(_))
        ));
    }
}
