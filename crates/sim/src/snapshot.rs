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
//!
//! One walk per schema type lists that type's fields, in document
//! order, and drives both the encoder and the decoder, so each field is
//! named once. Each rule is checked once: rules on a config value by
//! [`DeviceConfig::check`], rules on captured state while
//! [`DeviceSnapshot::from_json`] decodes it. [`Device::restore`] only
//! applies state that has passed both.

use crate::compute_unit::ComputeUnit;
use crate::config::{ArchMode, ConfigError, DeviceConfig, ErrorMode, ExecBackend};
use crate::device::Device;
use crate::sink::{MetricsSink, OpTally, METRICS_CHANNELS};
use crate::stream_core::{LaneUnit, StreamCore};
use std::fmt::{self, Write as _};
use std::mem::discriminant;
use tm_core::{
    GatePolicy, GateState, MatchPolicy, MemoEntry, MemoModule, MemoStats, Reg, Replacement,
};
use tm_energy::EnergyBreakdown;
use tm_fpu::{FpOp, FpuCounters, Operands, ALL_OPS, MAX_ARITY};
use tm_obs::json::{escape_into, write_f64, JsonError, JsonValue};
use tm_obs::WindowedSeries;
use tm_timing::{
    BurstErrors, ErrorModelSpec, ErrorSamplerState, HeterogeneousErrors, RecoveryPolicy,
    VoltageModel,
};

/// Format version written by [`Device::snapshot`] and accepted by
/// [`DeviceSnapshot::from_json`].
pub const SNAPSHOT_VERSION: u64 = 1;

/// The `kind` discriminator of a snapshot document.
const SNAPSHOT_KIND: &str = "tm-device-snapshot";

/// The largest integer a JSON number may carry: every JSON reader
/// holds integers up to 2^53 exactly. Counters beyond it would be
/// rounded, and sums of them could overflow.
const MAX_JSON_INT: u64 = 1 << 53;

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

fn unsupported_locality() -> SnapshotError {
    SnapshotError::Unsupported("locality_tracking devices cannot be snapshotted (v1)".into())
}

/// One captured windowed series (total or per-op).
#[derive(Debug, Clone, Default, PartialEq)]
struct SeriesState {
    initial_width: u64,
    width: u64,
    windows: Vec<[f64; METRICS_CHANNELS]>,
}

impl SeriesState {
    /// The series these parts describe, or `None` if they break
    /// [`WindowedSeries::from_parts`]'s invariants.
    fn rebuild(&self) -> Option<WindowedSeries<METRICS_CHANNELS>> {
        WindowedSeries::from_parts(
            self.initial_width,
            self.width,
            MetricsSink::MAX_WINDOWS,
            self.windows.clone(),
        )
    }
}

/// Captured [`MetricsSink`] contents.
#[derive(Debug, Clone, Default, PartialEq)]
struct MetricsState {
    total: SeriesState,
    per_op: Vec<(FpOp, SeriesState)>,
}

/// One memo-FIFO entry (IEEE-754 bit patterns, arity-length operands).
#[derive(Debug, Clone, Default, PartialEq)]
struct EntryState {
    operand_bits: Vec<u32>,
    result_bits: u32,
}

impl EntryState {
    /// Appends this entry to `memo`'s FIFO as its newest.
    fn preload_into(&self, memo: &mut MemoModule) {
        let mut operands = [0.0; MAX_ARITY];
        for (o, &bits) in operands.iter_mut().zip(&self.operand_bits) {
            *o = f32::from_bits(bits);
        }
        let operands = Operands::from_slice(&operands[..self.operand_bits.len()]);
        memo.preload(operands, f32::from_bits(self.result_bits));
    }
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
#[derive(Debug, Clone, Default, PartialEq)]
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
        let mut encoder = Encoder::default();
        // The walk writes back what it reads, so it runs on a copy.
        encoder
            .obj(ITEM, &mut self.clone(), walk_snapshot)
            .expect("the encoder checks no rule, so it cannot fail");
        encoder.out
    }

    /// Parses and validates a snapshot document.
    ///
    /// Every document this accepts restores with [`Device::restore`].
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapshotError`] for malformed JSON, schema
    /// violations (including captured state the configuration cannot
    /// hold), unknown versions or invalid embedded configurations.
    /// Never panics on untrusted input.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let root = JsonValue::parse(text)?;
        let mut snapshot = Self {
            config: DeviceConfig::default(),
            wavefronts_dispatched: 0,
            cus: Vec::new(),
        };
        let mut decoder = Decoder { cur: &root, path: Vec::new() };
        decoder.obj(ITEM, &mut snapshot, walk_snapshot)?;
        Ok(snapshot)
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
            return Err(unsupported_locality());
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
    /// None for a snapshot from [`Device::snapshot`] or
    /// [`DeviceSnapshot::from_json`], which checked every rule this
    /// relies on. The error arm reports a defect in those checks: an
    /// injector state or a metrics series its owning type rejects.
    pub fn restore(snapshot: &DeviceSnapshot) -> Result<Self, SnapshotError> {
        let mut device = Device::new(snapshot.config.clone());
        let config = snapshot.config();
        for (cu, state) in device.compute_units_mut().iter_mut().zip(&snapshot.cus) {
            restore_cu(cu, state, config)?;
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
    /// extra cores) is silently dropped. The warm state is a pure
    /// function of the snapshot, which is what lets a sharded campaign
    /// warm every trial identically on every shard.
    pub fn preload_fifos(&mut self, snapshot: &DeviceSnapshot) {
        let config = self.config().clone();
        for (cu, state) in self.compute_units_mut().iter_mut().zip(&snapshot.cus) {
            for (sc, units) in cu.stream_cores_mut().iter_mut().zip(&state.stream_cores) {
                for unit in units {
                    let memo = sc.unit_mut(unit.op, &config).memo_mut();
                    for entry in &unit.fifo {
                        entry.preload_into(memo);
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
    let capture_sc = |sc: &StreamCore| sc.units().map(|(op, unit)| capture_unit(*op, unit)).collect();
    CuState {
        cycles: cu.cycles(),
        ecu_recoveries: cu.ecu().recoveries(),
        ecu_recovery_cycles: cu.ecu().recovery_cycles(),
        injectors: cu.injectors().iter().map(|s| s.state()).collect(),
        tallies: cu.tallies().map(|(op, t)| (*op, *t)).collect(),
        energy: cu.ledger().breakdown(),
        metrics: cu.metrics().map(capture_metrics),
        stream_cores: cu.stream_cores().iter().map(capture_sc).collect(),
    }
}

fn capture_unit(op: FpOp, unit: &LaneUnit) -> UnitState {
    let memo = unit.memo();
    let mmio = memo.mmio();
    let pipeline = unit.fpu().pipeline();
    let entry = |e: &MemoEntry| EntryState {
        operand_bits: e.operands.as_slice().iter().map(|v| v.to_bits()).collect(),
        result_bits: e.result.to_bits(),
    };
    // Newest-first per `MemoFifo::iter`; store oldest first so
    // `preload` replays reproduce the order.
    let mut fifo: Vec<EntryState> = memo.fifo().iter().map(entry).collect();
    fifo.reverse();
    UnitState {
        op,
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
}

fn capture_metrics(sink: &MetricsSink) -> MetricsState {
    let capture = |s: &WindowedSeries<METRICS_CHANNELS>| SeriesState {
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

fn restore_cu(cu: &mut ComputeUnit, state: &CuState, config: &DeviceConfig) -> Step {
    let defect = |msg: &str| SnapshotError::Schema(format!("restore: {msg}"));
    cu.set_cycles(state.cycles);
    cu.ecu_mut()
        .restore_tallies(state.ecu_recoveries, state.ecu_recovery_cycles);
    for (sampler, st) in cu.injectors_mut().iter_mut().zip(&state.injectors) {
        sampler.restore_state(st).map_err(defect)?;
    }

    // Accounting: tallies, energy and (when configured) metrics.
    let tallies = cu.tallies_mut();
    tallies.clear();
    tallies.extend(state.tallies.iter().copied());
    let b = &state.energy;
    let ledger = cu.ledger_mut();
    ledger.reset();
    ledger.charge_exec(b.fpu_exec_pj);
    ledger.charge_hit(b.hit_pj);
    ledger.charge_lut_lookup(b.lut_lookup_pj);
    ledger.charge_lut_update(b.lut_update_pj);
    ledger.charge_recovery(b.recovery_pj);
    if let (Some(sink), Some(m)) = (cu.metrics_mut(), &state.metrics) {
        let per_op: Option<_> = m.per_op.iter().map(|(op, s)| Some((*op, s.rebuild()?))).collect();
        let series = m.total.rebuild().zip(per_op).ok_or_else(|| defect("inconsistent series"))?;
        sink.restore_series(series.0, series.1);
    }

    // Lane units, materialized in snapshot order.
    for (sc, units) in cu.stream_cores_mut().iter_mut().zip(&state.stream_cores) {
        for u in units {
            let unit = sc.unit_mut(u.op, config);
            let memo = unit.memo_mut();
            // Raw register writes first: `write_reg` does not clear the
            // FIFO, unlike `set_enabled(false)`.
            memo.write_reg(Reg::Ctrl, u.ctrl);
            memo.write_reg(Reg::Mask, u.mask);
            memo.write_reg(Reg::Threshold, u.threshold_bits);
            for entry in &u.fifo {
                entry.preload_into(memo);
            }
            memo.restore_stats(u.stats);
            memo.set_update_after_recovery(u.update_after_recovery);
            unit.fpu_mut()
                .restore_state(u.fpu_counters, u.last_issue, u.issued, u.slip_cycles);
            if let (Some(gate), Some(gs)) = (unit.gate_mut(), u.gate) {
                gate.restore_state(gs);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The walk: one field list per schema type, for both directions
// ---------------------------------------------------------------------

/// What one step of a walk returns: only a decoder fails.
type Step = Result<(), SnapshotError>;

/// A field name. [`ITEM`], the empty name, addresses the array element
/// being walked rather than a field of it.
type Key = &'static str;

/// The key under which [`Walk::arr`] walks each element.
const ITEM: Key = "";

/// The field kinds of the snapshot schema.
///
/// Each `walk_*` function below lists its type's fields once, in
/// document order, and both an [`Encoder`] and a [`Decoder`] drive it:
/// the encoder writes each value it is handed, the decoder overwrites it
/// with the document's.
trait Walk: Sized {
    /// A JSON integer of at most 2^53 that fits `T`.
    fn int<T: Copy + fmt::Display + TryFrom<u64>>(&mut self, key: Key, v: &mut T) -> Step;
    /// A finite number.
    fn f64(&mut self, key: Key, v: &mut f64) -> Step;
    /// An energy in pJ: a finite, non-negative number.
    fn pj(&mut self, key: Key, v: &mut f64) -> Step {
        self.f64(key, v)?;
        let pj = *v;
        let msg = format_args!("energy must be non-negative, got {pj}");
        self.check(|| if pj >= 0.0 { Ok(()) } else { Err(self.fail(key, msg)) })
    }
    /// `true` or `false`.
    fn bool(&mut self, key: Key, v: &mut bool) -> Step;
    /// A `0x`-prefixed hex string that fits `T`: a 64-bit word or an
    /// IEEE-754 bit pattern.
    fn hex<T: Copy + fmt::LowerHex + TryFrom<u64>>(&mut self, key: Key, v: &mut T) -> Step;
    /// One of `names`. The encoder writes the first name whose value is
    /// `v`'s variant; the decoder sets `v` to the value of the name it
    /// reads, and the walk then visits that variant's fields.
    fn variant<T: Clone>(&mut self, key: Key, v: &mut T, names: &[(T, Key)]) -> Step;
    /// `null`, or a value that `walk` walks under `key`.
    fn opt<T: Default>(
        &mut self,
        key: Key,
        v: &mut Option<T>,
        walk: impl FnOnce(&mut Self, Key, &mut T) -> Step,
    ) -> Step;
    /// An object whose fields `walk` walks.
    fn obj<T>(&mut self, key: Key, v: &mut T, walk: impl FnOnce(&mut Self, &mut T) -> Step) -> Step;
    /// An array whose elements `walk` walks under [`ITEM`]; the decoder
    /// walks each into a copy of `blank`.
    fn arr<T: Clone>(
        &mut self,
        key: Key,
        v: &mut Vec<T>,
        blank: &T,
        walk: impl FnMut(&mut Self, Key, &mut T) -> Step,
    ) -> Step;
    /// An array of exactly `v.len()` finite numbers.
    fn f64s(&mut self, key: Key, v: &mut [f64]) -> Step;
    /// A schema error at field `key` of the current value ([`ITEM`]: at
    /// the value itself).
    fn fail(&self, key: Key, msg: impl fmt::Display) -> SnapshotError;
    /// Runs `rule`. The encoder skips it: everything it encodes was
    /// captured from a device or has been decoded already.
    fn check(&self, rule: impl FnOnce() -> Step) -> Step {
        rule()
    }
    /// A rule on the current object: `ok()` must hold.
    fn ensure(&self, ok: impl FnOnce() -> bool, msg: impl fmt::Display) -> Step {
        self.check(|| if ok() { Ok(()) } else { Err(self.fail(ITEM, msg)) })
    }
}

/// Writes a document into one buffer, byte for byte what the
/// `tm_obs::ObjWriter` helpers write.
#[derive(Default)]
struct Encoder {
    out: String,
}

impl Encoder {
    /// Starts a value: a comma unless it opens its object or array, then
    /// `"key":` unless it is an array element.
    fn key(&mut self, key: Key) -> &mut String {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[')) {
            self.out.push(',');
        }
        if !key.is_empty() {
            self.out.push('"');
            escape_into(&mut self.out, key);
            self.out.push_str("\":");
        }
        &mut self.out
    }

    fn raw(&mut self, key: Key, value: fmt::Arguments<'_>) -> Step {
        self.key(key).write_fmt(value).expect("writing to a String cannot fail");
        Ok(())
    }

    fn str(&mut self, key: Key, s: &str) -> Step {
        let out = self.key(key);
        out.push('"');
        escape_into(out, s);
        out.push('"');
        Ok(())
    }
}

impl Walk for Encoder {
    fn int<T: Copy + fmt::Display + TryFrom<u64>>(&mut self, key: Key, v: &mut T) -> Step {
        self.raw(key, format_args!("{v}"))
    }

    fn f64(&mut self, key: Key, v: &mut f64) -> Step {
        write_f64(self.key(key), *v);
        Ok(())
    }

    fn bool(&mut self, key: Key, v: &mut bool) -> Step {
        self.raw(key, format_args!("{v}"))
    }

    fn hex<T: Copy + fmt::LowerHex + TryFrom<u64>>(&mut self, key: Key, v: &mut T) -> Step {
        self.raw(key, format_args!("\"0x{v:x}\""))
    }

    fn variant<T: Clone>(&mut self, key: Key, v: &mut T, names: &[(T, Key)]) -> Step {
        let named = names.iter().find(|(t, _)| discriminant(t) == discriminant(v));
        self.str(key, named.expect("every variant has a name").1)
    }

    fn opt<T: Default>(
        &mut self,
        key: Key,
        v: &mut Option<T>,
        walk: impl FnOnce(&mut Self, Key, &mut T) -> Step,
    ) -> Step {
        match v {
            Some(x) => walk(self, key, x),
            None => self.raw(key, format_args!("null")),
        }
    }

    fn obj<T>(&mut self, key: Key, v: &mut T, walk: impl FnOnce(&mut Self, &mut T) -> Step) -> Step {
        self.key(key).push('{');
        walk(self, v)?;
        self.out.push('}');
        Ok(())
    }

    fn arr<T: Clone>(
        &mut self,
        key: Key,
        v: &mut Vec<T>,
        _blank: &T,
        mut walk: impl FnMut(&mut Self, Key, &mut T) -> Step,
    ) -> Step {
        self.key(key).push('[');
        for x in v {
            walk(self, ITEM, x)?;
        }
        self.out.push(']');
        Ok(())
    }

    fn f64s(&mut self, key: Key, v: &mut [f64]) -> Step {
        self.key(key).push('[');
        for x in v {
            self.f64(ITEM, x)?;
        }
        self.out.push(']');
        Ok(())
    }

    fn fail(&self, _key: Key, msg: impl fmt::Display) -> SnapshotError {
        SnapshotError::Schema(msg.to_string())
    }

    fn check(&self, _rule: impl FnOnce() -> Step) -> Step {
        Ok(())
    }
}

/// One step of the path from the document root to a value.
#[derive(Clone, Copy)]
enum Seg {
    Key(Key),
    Index(usize),
}

/// Reads a parsed document. It keeps the path to the current value as
/// a stack of segments and formats it only into an error.
struct Decoder<'a> {
    cur: &'a JsonValue,
    path: Vec<Seg>,
}

impl<'a> Decoder<'a> {
    fn value(&self, key: Key) -> Result<&'a JsonValue, SnapshotError> {
        if key.is_empty() {
            return Ok(self.cur);
        }
        self.cur.get(key).ok_or_else(|| self.fail(key, "missing field"))
    }

    /// The value at `key`, converted by `as_t`, or a schema error saying
    /// what it `must` be.
    fn want<T>(&self, key: Key, as_t: impl FnOnce(&'a JsonValue) -> Option<T>, must: &str)
        -> Result<T, SnapshotError> {
        as_t(self.value(key)?).ok_or_else(|| self.fail(key, format_args!("must be {must}")))
    }

    /// Runs `walk` with `value`, the value at `key`, as the current one.
    fn enter(&mut self, key: Key, value: &'a JsonValue, walk: impl FnOnce(&mut Self) -> Step) -> Step {
        let seg = (!key.is_empty()).then_some(Seg::Key(key));
        let outer = std::mem::replace(&mut self.cur, value);
        self.path.extend(seg);
        walk(self)?;
        if seg.is_some() {
            self.path.pop();
        }
        self.cur = outer;
        Ok(())
    }
}

impl Walk for Decoder<'_> {
    fn int<T: Copy + fmt::Display + TryFrom<u64>>(&mut self, key: Key, v: &mut T) -> Step {
        let in_range = |x: &JsonValue| x.as_u64().filter(|&n| n <= MAX_JSON_INT);
        let n = self.want(key, in_range, "an integer in [0, 2^53]")?;
        *v = T::try_from(n).map_err(|_| self.fail(key, format_args!("{n} is out of range")))?;
        Ok(())
    }

    fn f64(&mut self, key: Key, v: &mut f64) -> Step {
        *v = self.want(key, |x| x.as_f64().filter(|x| x.is_finite()), "a finite number")?;
        Ok(())
    }

    fn bool(&mut self, key: Key, v: &mut bool) -> Step {
        *v = self.want(key, JsonValue::as_bool, "a boolean")?;
        Ok(())
    }

    fn hex<T: Copy + fmt::LowerHex + TryFrom<u64>>(&mut self, key: Key, v: &mut T) -> Step {
        let s = self.want(key, JsonValue::as_str, "a string")?;
        let word = s.strip_prefix("0x").and_then(|h| u64::from_str_radix(h, 16).ok());
        *v = word.and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
            let bits = 8 * size_of::<T>();
            self.fail(key, format_args!("must be a 0x-prefixed {bits}-bit hex word, got \"{s}\""))
        })?;
        Ok(())
    }

    fn variant<T: Clone>(&mut self, key: Key, v: &mut T, names: &[(T, Key)]) -> Step {
        let s = self.want(key, JsonValue::as_str, "a string")?;
        let named = names.iter().find(|(_, name)| *name == s);
        *v = named.ok_or_else(|| self.fail(key, format_args!("unknown value \"{s}\"")))?.0.clone();
        Ok(())
    }

    fn opt<T: Default>(
        &mut self,
        key: Key,
        v: &mut Option<T>,
        walk: impl FnOnce(&mut Self, Key, &mut T) -> Step,
    ) -> Step {
        *v = None;
        if !matches!(self.value(key)?, JsonValue::Null) {
            walk(self, key, v.insert(T::default()))?;
        }
        Ok(())
    }

    fn obj<T>(&mut self, key: Key, v: &mut T, walk: impl FnOnce(&mut Self, &mut T) -> Step) -> Step {
        let value = self.want(key, |x| x.as_obj().map(|_| x), "an object")?;
        self.enter(key, value, |d| walk(d, v))
    }

    fn arr<T: Clone>(
        &mut self,
        key: Key,
        v: &mut Vec<T>,
        blank: &T,
        mut walk: impl FnMut(&mut Self, Key, &mut T) -> Step,
    ) -> Step {
        let value = self.value(key)?;
        let items = value.as_arr().ok_or_else(|| self.fail(key, "must be an array"))?;
        self.enter(key, value, |d| {
            v.clear();
            v.reserve(items.len());
            for (i, item) in items.iter().enumerate() {
                let x = v.push_mut(blank.clone());
                d.path.push(Seg::Index(i));
                d.enter(ITEM, item, |d| walk(d, ITEM, x))?;
                d.path.pop();
            }
            Ok(())
        })
    }

    fn f64s(&mut self, key: Key, v: &mut [f64]) -> Step {
        let n = v.len();
        let must = || self.fail(key, format_args!("must be an array of {n} finite numbers"));
        let items = self.value(key)?.as_arr().filter(|items| items.len() == n).ok_or_else(must)?;
        for (x, item) in v.iter_mut().zip(items) {
            *x = item.as_f64().filter(|x| x.is_finite()).ok_or_else(must)?;
        }
        Ok(())
    }

    fn fail(&self, key: Key, msg: impl fmt::Display) -> SnapshotError {
        let mut path = String::from("$");
        for seg in self.path.iter().chain([Seg::Key(key)].iter().filter(|_| !key.is_empty())) {
            match seg {
                Seg::Key(k) => write!(path, ".{k}"),
                Seg::Index(i) => write!(path, "[{i}]"),
            }
            .expect("writing to a String cannot fail");
        }
        SnapshotError::Schema(format!("{path}: {msg}"))
    }
}

/// Each opcode and its mnemonic, the name a document gives it.
const OPS: [(FpOp, Key); ALL_OPS.len()] = {
    let mut ops = [(FpOp::Add, ""); ALL_OPS.len()];
    let mut i = 0;
    while i < ops.len() {
        ops[i] = (ALL_OPS[i], ALL_OPS[i].mnemonic());
        i += 1;
    }
    ops
};

/// A document's `kind`: a device snapshot is the only one.
#[derive(Clone)]
enum Kind {
    DeviceSnapshot,
}

fn walk_snapshot<W: Walk>(w: &mut W, s: &mut DeviceSnapshot) -> Step {
    w.variant("kind", &mut Kind::DeviceSnapshot, &[(Kind::DeviceSnapshot, SNAPSHOT_KIND)])?;
    let mut version = SNAPSHOT_VERSION;
    w.int("version", &mut version)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version { found: version });
    }
    w.obj("config", &mut s.config, walk_config)?;
    let config = &s.config;
    w.check(|| {
        config.check()?;
        (!config.locality_tracking).then_some(()).ok_or_else(unsupported_locality)
    })?;
    w.int("wavefronts_dispatched", &mut s.wavefronts_dispatched)?;
    let cus = &mut s.cus;
    w.arr("compute_units", cus, &CuState::default(), |w, k, cu| {
        w.obj(k, cu, |w, cu| walk_cu(w, cu, config))
    })?;
    let (n, want) = (cus.len(), config.compute_units);
    w.ensure(|| n == want, format_args!("{n} compute units, config declares {want}"))
}

fn walk_config<W: Walk>(w: &mut W, c: &mut DeviceConfig) -> Step {
    w.int("compute_units", &mut c.compute_units)?;
    w.int("stream_cores_per_cu", &mut c.stream_cores_per_cu)?;
    w.int("wavefront_size", &mut c.wavefront_size)?;
    let archs = [
        (ArchMode::Memoized, "memoized"),
        (ArchMode::Baseline, "baseline"),
        (ArchMode::Spatial, "spatial"),
    ];
    w.variant("arch", &mut c.arch, &archs)?;
    w.int("fifo_depth", &mut c.fifo_depth)?;
    let replacements = [(Replacement::Fifo, "fifo"), (Replacement::Lru, "lru")];
    w.variant("replacement", &mut c.replacement, &replacements)?;
    w.obj("policy", &mut c.policy, walk_policy)?;
    w.obj("recovery", &mut c.recovery, walk_recovery)?;
    w.obj("error_mode", &mut c.error_mode, walk_error_mode)?;
    w.obj("error_model", &mut c.error_model, walk_error_model)?;
    w.f64("vdd", &mut c.vdd)?;
    w.obj("voltage_model", &mut c.voltage_model, walk_voltage_model)?;
    w.obj("energy_model", &mut c.energy_model, |w, e| {
        w.f64("epi_add_pj", &mut e.epi_add_pj)?;
        w.f64("lut_lookup_frac", &mut e.lut_lookup_frac)?;
        w.f64("lut_update_frac", &mut e.lut_update_frac)?;
        w.f64("gated_stage_residual", &mut e.gated_stage_residual)?;
        w.f64("recovery_cycle_frac", &mut e.recovery_cycle_frac)?;
        w.f64("spatial_broadcast_frac", &mut e.spatial_broadcast_frac)
    })?;
    w.hex("seed", &mut c.seed)?;
    w.int("trace_depth", &mut c.trace_depth)?;
    w.opt("adaptive_gate", &mut c.adaptive_gate, |w, k, g| {
        w.obj(k, g, |w, g: &mut GatePolicy| {
            w.int("window", &mut g.window)?;
            w.f64("min_hit_rate", &mut g.min_hit_rate)?;
            w.int("gate_period", &mut g.gate_period)?;
            w.int("consecutive_windows", &mut g.consecutive_windows)
        })
    })?;
    // Documents written before the intra-CU backend was removed may name
    // it (and carry an `intra_cu_shards` field, which is ignored): they
    // run on the parallel backend, which produces the same results.
    let backends = [
        (ExecBackend::Sequential, "sequential"),
        (ExecBackend::Parallel, "parallel"),
        (ExecBackend::Parallel, "intra-cu"),
    ];
    w.variant("backend", &mut c.backend, &backends)?;
    w.bool("locality_tracking", &mut c.locality_tracking)?;
    w.opt("metrics_window", &mut c.metrics_window, W::int)
}

fn walk_policy<W: Walk>(w: &mut W, p: &mut MatchPolicy) -> Step {
    let kinds = [
        (MatchPolicy::Exact, "exact"),
        (MatchPolicy::Threshold(0.0), "threshold"),
        (MatchPolicy::MaskBits(0), "mask_bits"),
    ];
    w.variant("kind", p, &kinds)?;
    match p {
        MatchPolicy::Exact => Ok(()),
        MatchPolicy::Threshold(t) => {
            // Bit pattern, not decimal: lossless for every f32.
            let mut bits = t.to_bits();
            w.hex("threshold_bits", &mut bits)?;
            *t = f32::from_bits(bits);
            Ok(())
        }
        MatchPolicy::MaskBits(mask) => w.int("mask", mask),
    }
}

fn walk_recovery<W: Walk>(w: &mut W, r: &mut RecoveryPolicy) -> Step {
    let kinds = [
        (RecoveryPolicy::FlushReplay { cycles_per_error: 0 }, "flush_replay"),
        (RecoveryPolicy::MultipleIssueReplay { issues: 0 }, "multiple_issue_replay"),
        (RecoveryPolicy::HalfFrequencyReplay, "half_frequency_replay"),
        (RecoveryPolicy::DecouplingQueue, "decoupling_queue"),
    ];
    w.variant("kind", r, &kinds)?;
    match r {
        RecoveryPolicy::FlushReplay { cycles_per_error } => w.int("cycles_per_error", cycles_per_error),
        RecoveryPolicy::MultipleIssueReplay { issues } => w.int("issues", issues),
        RecoveryPolicy::HalfFrequencyReplay | RecoveryPolicy::DecouplingQueue => Ok(()),
    }
}

fn walk_error_mode<W: Walk>(w: &mut W, m: &mut ErrorMode) -> Step {
    let kinds = [
        (ErrorMode::FixedRate(0.0), "fixed_rate"),
        (ErrorMode::PerStageRate(0.0), "per_stage_rate"),
        (ErrorMode::FromVoltage, "from_voltage"),
    ];
    w.variant("kind", m, &kinds)?;
    match m {
        ErrorMode::FixedRate(rate) | ErrorMode::PerStageRate(rate) => w.f64("rate", rate),
        ErrorMode::FromVoltage => Ok(()),
    }
}

fn walk_error_model<W: Walk>(w: &mut W, m: &mut ErrorModelSpec) -> Step {
    let kinds = [
        (ErrorModelSpec::Uniform, "uniform"),
        (ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners()), "heterogeneous"),
        (ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.0 }, "voltage-coupled"),
        (ErrorModelSpec::Burst(BurstErrors::droop()), "burst"),
    ];
    w.variant("kind", m, &kinds)?;
    match m {
        ErrorModelSpec::Uniform => Ok(()),
        ErrorModelSpec::Heterogeneous(h) => {
            w.f64("slow_fraction", &mut h.slow_fraction)?;
            w.f64("slow_factor", &mut h.slow_factor)?;
            w.f64("fast_fraction", &mut h.fast_fraction)?;
            w.f64("fast_factor", &mut h.fast_factor)
        }
        ErrorModelSpec::VoltageCoupled { sigma_vdd } => w.f64("sigma_vdd", sigma_vdd),
        ErrorModelSpec::Burst(b) => {
            w.f64("enter", &mut b.enter)?;
            w.f64("exit", &mut b.exit)?;
            w.f64("burst_factor", &mut b.burst_factor)
        }
    }
}

fn walk_voltage_model<W: Walk>(w: &mut W, m: &mut VoltageModel) -> Step {
    let mut parts = [m.nominal_vdd(), m.onset_vdd(), m.base_rate(), m.alpha(), m.vth()];
    let keys = ["nominal_vdd", "onset_vdd", "base_rate", "alpha", "vth"];
    for (key, x) in keys.into_iter().zip(&mut parts) {
        w.f64(key, x)?;
    }
    let [nominal_vdd, onset_vdd, base_rate, alpha, vth] = parts;
    *m = VoltageModel::try_new(nominal_vdd, onset_vdd, base_rate, alpha, vth)
        .map_err(|e| w.fail(ITEM, e))?;
    Ok(())
}

/// The value the decoder walks each injector into.
const BLANK_INJECTOR: ErrorSamplerState =
    ErrorSamplerState { pcg_state: 0, pcg_inc: 1, drawn: 0, errors: 0, burst_bad: None };

fn walk_cu<W: Walk>(w: &mut W, cu: &mut CuState, config: &DeviceConfig) -> Step {
    w.int("cycles", &mut cu.cycles)?;
    w.obj("ecu", cu, |w, cu| {
        w.int("recoveries", &mut cu.ecu_recoveries)?;
        w.int("recovery_cycles", &mut cu.ecu_recovery_cycles)
    })?;
    let burst = matches!(config.error_model, ErrorModelSpec::Burst(_));
    w.arr("injectors", &mut cu.injectors, &BLANK_INJECTOR, |w, k, s| {
        w.obj(k, s, |w, s| walk_injector(w, s, burst))
    })?;
    w.arr("tallies", &mut cu.tallies, &(FpOp::Add, OpTally::default()), |w, k, t| {
        w.obj(k, t, |w, (op, t)| {
            w.variant("op", op, &OPS)?;
            w.int("lane_instructions", &mut t.lane_instructions)?;
            w.int("vector_instructions", &mut t.vector_instructions)?;
            w.int("spatial_hits", &mut t.spatial_hits)?;
            w.int("spatial_masked_errors", &mut t.spatial_masked_errors)?;
            w.pj("energy_pj", &mut t.energy_pj)
        })
    })?;
    w.obj("energy", &mut cu.energy, |w, e| {
        w.pj("fpu_exec_pj", &mut e.fpu_exec_pj)?;
        w.pj("hit_pj", &mut e.hit_pj)?;
        w.pj("lut_lookup_pj", &mut e.lut_lookup_pj)?;
        w.pj("lut_update_pj", &mut e.lut_update_pj)?;
        w.pj("recovery_pj", &mut e.recovery_pj)
    })?;
    let window = config.metrics_window;
    w.opt("metrics", &mut cu.metrics, |w, k, m| w.obj(k, m, |w, m| walk_metrics(w, m, window)))?;
    // Each unit decodes into a fresh unit's state.
    let blank_unit = capture_unit(FpOp::Add, &LaneUnit::new(FpOp::Add, config));
    w.arr("stream_cores", &mut cu.stream_cores, &Vec::new(), |w, k, units| {
        w.arr(k, units, &blank_unit, |w, k, u| w.obj(k, u, |w, u| walk_unit(w, u, config)))
    })?;
    let (injectors, scs, want) = (cu.injectors.len(), cu.stream_cores.len(), config.stream_cores_per_cu);
    let msg = format_args!("{injectors} injectors and {scs} stream cores, config declares {want}");
    w.ensure(|| injectors == want && scs == want, msg)?;
    let msg = "metrics must be captured exactly when the config sets a metrics window";
    w.ensure(|| cu.metrics.is_some() == window.is_some(), msg)
}

fn walk_injector<W: Walk>(w: &mut W, s: &mut ErrorSamplerState, burst: bool) -> Step {
    w.hex("pcg_state", &mut s.pcg_state)?;
    w.hex("pcg_inc", &mut s.pcg_inc)?;
    w.int("drawn", &mut s.drawn)?;
    w.int("errors", &mut s.errors)?;
    w.opt("burst_bad", &mut s.burst_bad, W::bool)?;
    w.ensure(|| s.pcg_inc % 2 == 1, "PCG increment must be odd")?;
    let msg = "the burst flag must be set exactly when the error model is burst";
    w.ensure(|| s.burst_bad.is_some() == burst, msg)
}

fn walk_metrics<W: Walk>(w: &mut W, m: &mut MetricsState, window: Option<u64>) -> Step {
    w.obj("total", &mut m.total, |w, s| walk_series(w, s, window))?;
    w.arr("per_op", &mut m.per_op, &(FpOp::Add, SeriesState::default()), |w, k, entry| {
        w.obj(k, entry, |w, (op, s)| {
            w.variant("op", op, &OPS)?;
            w.obj("series", s, |w, s| walk_series(w, s, window))
        })
    })
}

fn walk_series<W: Walk>(w: &mut W, s: &mut SeriesState, window: Option<u64>) -> Step {
    w.int("initial_width", &mut s.initial_width)?;
    w.int("width", &mut s.width)?;
    w.arr("windows", &mut s.windows, &[0.0; METRICS_CHANNELS], |w, k, row| w.f64s(k, row))?;
    let (initial, width) = (s.initial_width, s.width);
    let fits = || Some(initial) == window && s.rebuild().is_some();
    w.ensure(fits, format_args!("widths {initial} and {width} do not fit metrics window {window:?}"))
}

fn walk_unit<W: Walk>(w: &mut W, u: &mut UnitState, config: &DeviceConfig) -> Step {
    w.variant("op", &mut u.op, &OPS)?;
    w.obj("mmio", u, |w, u| {
        w.int("ctrl", &mut u.ctrl)?;
        w.int("mask", &mut u.mask)?;
        w.hex("threshold_bits", &mut u.threshold_bits)
    })?;
    w.bool("update_after_recovery", &mut u.update_after_recovery)?;
    w.obj("stats", &mut u.stats, |w, s| {
        w.int("lookups", &mut s.lookups)?;
        w.int("hits", &mut s.hits)?;
        w.int("misses", &mut s.misses)?;
        w.int("updates", &mut s.updates)?;
        w.int("masked_errors", &mut s.masked_errors)?;
        w.int("recoveries", &mut s.recoveries)?;
        w.int("errors_seen", &mut s.errors_seen)?;
        // Holds after every access of a real module.
        w.ensure(|| s.is_consistent(), "memo statistics are inconsistent")
    })?;
    w.arr("fifo", &mut u.fifo, &EntryState::default(), |w, k, e| {
        w.obj(k, e, |w, e| {
            w.arr("operands", &mut e.operand_bits, &0, W::hex)?;
            w.hex("result", &mut e.result_bits)?;
            let n = e.operand_bits.len();
            let msg = format_args!("operand count {n} out of range 1..={MAX_ARITY}");
            w.ensure(|| (1..=MAX_ARITY).contains(&n), msg)
        })
    })?;
    w.obj("fpu", u, |w, u| {
        w.int("executed", &mut u.fpu_counters.executed)?;
        w.int("squashed", &mut u.fpu_counters.squashed)?;
        w.opt("last_issue", &mut u.last_issue, W::int)?;
        w.int("issued", &mut u.issued)?;
        w.int("slip_cycles", &mut u.slip_cycles)
    })?;
    w.opt("gate", &mut u.gate, |w, k, g| {
        w.obj(k, g, |w, g| {
            w.int("window_accesses", &mut g.window_accesses)?;
            w.int("window_hits", &mut g.window_hits)?;
            w.int("gated_remaining", &mut g.gated_remaining)?;
            w.int("times_gated", &mut g.times_gated)?;
            w.int("low_windows", &mut g.low_windows)
        })
    })?;
    let (entries, depth) = (u.fifo.len(), config.fifo_depth);
    let msg = format_args!("{entries} FIFO entries exceed the configured depth {depth}");
    w.ensure(|| entries <= depth, msg)?;
    let msg = "adaptive-gate state must be captured exactly when the config gates the memo modules";
    w.ensure(|| u.gate.is_some() == config.lane_gate().is_some(), msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Addr, Bindings, Src, VInst, VProgram};
    use tm_fpu::FpOp;

    fn hex64(v: u64) -> String {
        format!("0x{v:x}")
    }

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
        // Captured state the config cannot hold is a schema error at its
        // path: `Device::restore` would reject each of these.
        for (doc, path) in state_edits(&good) {
            assert_ne!(doc, good);
            match DeviceSnapshot::from_json(&doc) {
                Err(SnapshotError::Schema(msg)) => assert!(msg.starts_with(path), "{msg}"),
                other => panic!("{path}: expected a schema error, got {other:?}"),
            }
        }
        // Config values whose owning types would panic on them are
        // rejected by the config check.
        for (from, to) in [
            ("{\"kind\":\"exact\"}", "{\"kind\":\"threshold\",\"threshold_bits\":\"0xbf800000\"}"),
            ("{\"kind\":\"exact\"}", "{\"kind\":\"threshold\",\"threshold_bits\":\"0x7fc00000\"}"),
            (
                "\"adaptive_gate\":null",
                "\"adaptive_gate\":{\"window\":0,\"min_hit_rate\":0.05,\"gate_period\":4096,\
                 \"consecutive_windows\":2}",
            ),
            ("\"epi_add_pj\":9.8", "\"epi_add_pj\":-1"),
        ] {
            let doc = good.replacen(from, to, 1);
            assert_ne!(doc, good);
            assert!(
                matches!(DeviceSnapshot::from_json(&doc), Err(SnapshotError::Config(_))),
                "{to}"
            );
        }
    }

    /// Edits of `doc` (a snapshot without metrics) whose state breaks a
    /// rule, each with the path its error must start with.
    fn state_edits(doc: &str) -> [(String, &'static str); 3] {
        let value = doc.find("\"hit_pj\":").unwrap() + "\"hit_pj\":".len();
        let end = value + doc[value..].find(',').unwrap();
        let negative_energy = format!("{}-1.5{}", &doc[..value], &doc[end..]);
        let first = doc.find("\"injectors\":[").unwrap() + "\"injectors\":[".len();
        let next = first + doc[first..].find("},").unwrap() + "},".len();
        let missing_injector = format!("{}{}", &doc[..first], &doc[next..]);
        let metrics = doc.replacen("\"metrics_window\":null", "\"metrics_window\":64", 1);
        [
            (negative_energy, "$.compute_units[0].energy.hit_pj: "),
            (missing_injector, "$.compute_units[0]: "),
            (metrics, "$.compute_units[0]: "),
        ]
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
