//! Device configuration: the validated builder and error taxonomy.

use std::fmt;
use tm_core::{GatePolicy, MatchPolicy, Replacement, DEFAULT_FIFO_DEPTH};
use tm_energy::EnergyModel;
use tm_timing::{ErrorModelError, ErrorModelSpec, RecoveryPolicy, VoltageModel, NOMINAL_VDD};

/// Which architecture variant the device models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ArchMode {
    /// The proposed architecture: baseline detect-then-correct plus the
    /// temporal memoization modules on every FPU.
    #[default]
    Memoized,
    /// The baseline resilient architecture alone (EDS + ECU recovery, no
    /// memoization hardware and none of its energy).
    Baseline,
    /// *Spatial* memoization (Rahimi et al., TCAS-II 2013 — the paper's
    /// reference \[20\]): within each sub-wavefront slot, the first lane
    /// to execute a distinct operand set broadcasts its result to the
    /// other 15 concurrent lanes, which reuse it when their operands
    /// match. No per-FPU FIFO — reuse is purely intra-instruction, which
    /// is exactly the scalability limitation the paper argues temporal
    /// memoization removes.
    Spatial,
}

/// Which execution engine drives the compute units.
///
/// Every backend produces **bit-identical** [`crate::DeviceReport`]s:
/// wavefront → CU assignment, each CU's wavefront order, and the
/// index-order merge of per-CU statistics are the same; the parallel
/// backend only overlaps the (already independent) per-CU work on OS
/// threads. See `DESIGN.md` § "Execution engine".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// One thread walks the wavefronts in dispatch order — the reference
    /// engine.
    #[default]
    Sequential,
    /// One `std::thread` worker per compute unit (scoped threads, no
    /// extra dependencies); results merge deterministically in CU index
    /// order.
    Parallel,
}

impl ExecBackend {
    /// A stable lowercase label for traces, benchmark records and CLI
    /// output (`"sequential"`, `"parallel"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::Parallel => "parallel",
        }
    }
}

/// Where per-instruction timing-error events come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorMode {
    /// A fixed per-instruction error rate (the Fig. 10 sweep, 0–4 %).
    FixedRate(f64),
    /// A fixed per-*stage* violation rate: the per-instruction rate then
    /// grows with pipeline depth (`1 − (1 − p)^stages`, see
    /// [`tm_timing::EdsChain`]), so the 16-stage RECIP errs roughly 4×
    /// as often as the 4-stage units — the depth effect §1 of the paper
    /// highlights.
    PerStageRate(f64),
    /// The rate implied by the FPU supply voltage through the
    /// [`VoltageModel`] (the Fig. 11 voltage-overscaling sweep).
    FromVoltage,
}

impl Default for ErrorMode {
    /// Error-free operation.
    fn default() -> Self {
        ErrorMode::FixedRate(0.0)
    }
}

/// The deepest memoization FIFO a [`DeviceConfig`] accepts.
///
/// Every stream core allocates all of its FIFO slots up front, so
/// without a bound one edited number in a snapshot document could ask
/// for any amount of memory, and a failed allocation aborts the process.
/// The paper's FIFO sweep stops at 64 entries.
pub const MAX_FIFO_DEPTH: usize = 1024;

/// Why a [`DeviceConfigBuilder::build`] (or [`DeviceConfig::check`])
/// rejected a configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `compute_units == 0`.
    NoComputeUnits,
    /// `stream_cores_per_cu == 0`.
    NoStreamCores,
    /// The wavefront size is not a positive multiple of the SC count.
    RaggedWavefront {
        /// Configured wavefront size.
        wavefront: usize,
        /// Configured stream cores per CU.
        stream_cores: usize,
    },
    /// `fifo_depth == 0`.
    ZeroFifoDepth,
    /// `fifo_depth` exceeds [`MAX_FIFO_DEPTH`].
    FifoTooDeep {
        /// The configured depth.
        depth: usize,
    },
    /// The effective per-instruction error rate (or, under
    /// [`ErrorMode::PerStageRate`], the per-stage rate) is not a
    /// probability.
    ErrorRateOutOfRange {
        /// The offending rate.
        rate: f64,
    },
    /// `vdd` is not positive and finite.
    NonPositiveVdd {
        /// The offending supply voltage.
        vdd: f64,
    },
    /// The voltage-coupled error model's supply jitter is negative or not
    /// below `vdd`, so a stream core could be drawn a supply at or below
    /// zero, where the voltage model is undefined.
    VddJitterOutOfRange {
        /// The configured jitter ([`ErrorModelSpec::VoltageCoupled`]).
        sigma_vdd: f64,
        /// The configured supply voltage.
        vdd: f64,
    },
    /// The heterogeneous or burst error model's parameters are out of
    /// range (see [`tm_timing::HeterogeneousErrors::check`] and
    /// [`tm_timing::BurstErrors::check`]); its sampler would panic.
    ErrorModelOutOfRange(ErrorModelError),
    /// The FPU's dynamic-energy scale `(vdd / nominal_vdd)²` (see
    /// [`DeviceConfig::dynamic_scale`]) is not positive and finite: the
    /// supply or the voltage model's nominal voltage is so extreme that
    /// the square underflows to 0 or overflows to infinity.
    DynamicScaleOutOfRange {
        /// The computed scale.
        scale: f64,
    },
    /// `metrics_window == Some(0)`.
    ZeroMetricsWindow,
    /// The [`MatchPolicy::Threshold`] bound is negative or not finite.
    ThresholdOutOfRange {
        /// The offending threshold.
        threshold: f32,
    },
    /// The adaptive gate's policy fails [`GatePolicy::check`] (the
    /// message names the rule); every lane unit's gate would panic.
    GatePolicyOutOfRange(&'static str),
    /// An [`EnergyModel`] constant is negative or not finite (see
    /// [`EnergyModel::check`]); the energy ledger would panic on the
    /// first charge.
    EnergyModelOutOfRange {
        /// The offending constant's name.
        constant: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoComputeUnits => write!(f, "need at least one compute unit"),
            Self::NoStreamCores => write!(f, "need at least one stream core"),
            Self::RaggedWavefront {
                wavefront,
                stream_cores,
            } => write!(
                f,
                "wavefront size {wavefront} must be a positive multiple of the SC count {stream_cores}"
            ),
            Self::ZeroFifoDepth => write!(f, "FIFO depth must be at least 1"),
            Self::FifoTooDeep { depth } => {
                write!(f, "FIFO depth {depth} exceeds the maximum {MAX_FIFO_DEPTH}")
            }
            Self::ErrorRateOutOfRange { rate } => write!(f, "error rate {rate} out of range"),
            Self::NonPositiveVdd { vdd } => write!(f, "vdd must be positive and finite, got {vdd}"),
            Self::VddJitterOutOfRange { sigma_vdd, vdd } => write!(
                f,
                "vdd jitter {sigma_vdd} must be non-negative and below vdd {vdd}"
            ),
            Self::ErrorModelOutOfRange(e) => write!(f, "error model: {e}"),
            Self::DynamicScaleOutOfRange { scale } => write!(
                f,
                "dynamic-energy scale (vdd / nominal_vdd)^2 must be positive and finite, got {scale}"
            ),
            Self::ZeroMetricsWindow => write!(f, "metrics window width must be non-zero"),
            Self::ThresholdOutOfRange { threshold } => {
                write!(f, "matching threshold must be finite and non-negative, got {threshold}")
            }
            Self::GatePolicyOutOfRange(rule) => write!(f, "adaptive gate: {rule}"),
            Self::EnergyModelOutOfRange { constant } => {
                write!(f, "energy-model constant {constant} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a simulated device.
///
/// The defaults model a single Radeon HD 5870 compute-unit pair with the
/// paper's design point: 2-entry FIFOs, exact matching, the 12-cycle
/// baseline recovery, nominal 0.9 V, no injected errors, the uniform
/// error model. Experiments override fields through the validated
/// [`DeviceConfig::builder`] (or [`DeviceConfig::rebuild`] to derive a
/// variant) — the single sanctioned construction path.
///
/// # Examples
///
/// ```
/// use tm_sim::{ArchMode, DeviceConfig, ErrorMode};
/// use tm_core::MatchPolicy;
///
/// let config = DeviceConfig::builder()
///     .with_policy(MatchPolicy::threshold(0.5))
///     .with_error_mode(ErrorMode::FixedRate(0.02))
///     .with_seed(7)
///     .build()
///     .unwrap();
/// assert_eq!(config.stream_cores_per_cu, 16);
/// assert_eq!(config.arch, ArchMode::Memoized);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of compute units (the HD 5870 has 20; experiments default to
    /// 2 for simulation speed — hit rates are per-FPU properties and do not
    /// depend on the CU count).
    pub compute_units: usize,
    /// Stream cores (SIMD lanes) per compute unit.
    pub stream_cores_per_cu: usize,
    /// Work-items per wavefront.
    pub wavefront_size: usize,
    /// Architecture variant.
    pub arch: ArchMode,
    /// Memoization FIFO depth (the paper settles on 2).
    pub fifo_depth: usize,
    /// FIFO replacement policy (FIFO in the paper; LRU for ablation).
    pub replacement: Replacement,
    /// The matching constraint programmed into every module's MMIO window.
    pub policy: MatchPolicy,
    /// Baseline recovery mechanism.
    pub recovery: RecoveryPolicy,
    /// Timing-error source.
    pub error_mode: ErrorMode,
    /// How the error source is distributed across stream cores (uniform,
    /// heterogeneous corners, voltage-coupled, bursty); see
    /// [`tm_timing::ErrorModelSpec`].
    pub error_model: ErrorModelSpec,
    /// FPU supply voltage (the memo module always stays at nominal).
    pub vdd: f64,
    /// Voltage/error/energy scaling model.
    pub voltage_model: VoltageModel,
    /// Energy constants.
    pub energy_model: EnergyModel,
    /// PRNG seed for error injection.
    pub seed: u64,
    /// Per-compute-unit instruction-trace capacity (`0` disables tracing;
    /// see [`crate::TraceEvent`] and [`crate::locality`]).
    pub trace_depth: usize,
    /// Optional adaptive power gating of every memoization module (the
    /// automated form of the paper's software-controlled power gating).
    pub adaptive_gate: Option<GatePolicy>,
    /// Which execution engine drives the compute units.
    pub backend: ExecBackend,
    /// Enables online value-locality profiling (a
    /// [`crate::sink::LocalitySink`] per compute unit) — the streaming
    /// alternative to recording a bounded trace and post-processing it
    /// with [`crate::locality`].
    pub locality_tracking: bool,
    /// Initial cycle-window width for time-resolved metrics (`None`
    /// disables the [`crate::sink::MetricsSink`]). When set, every
    /// compute unit folds its event stream into per-window series — hit
    /// rate, masked errors, recoveries, energy — per opcode and in total;
    /// see [`crate::ComputeUnit::metrics`].
    pub metrics_window: Option<u64>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            compute_units: 2,
            stream_cores_per_cu: 16,
            wavefront_size: 64,
            arch: ArchMode::Memoized,
            fifo_depth: DEFAULT_FIFO_DEPTH,
            replacement: Replacement::Fifo,
            policy: MatchPolicy::Exact,
            recovery: RecoveryPolicy::default(),
            error_mode: ErrorMode::default(),
            error_model: ErrorModelSpec::Uniform,
            vdd: NOMINAL_VDD,
            voltage_model: VoltageModel::tsmc45(),
            energy_model: EnergyModel::tsmc45(),
            seed: 0xC0FFEE,
            trace_depth: 0,
            adaptive_gate: None,
            backend: ExecBackend::default(),
            locality_tracking: false,
            metrics_window: None,
        }
    }
}

impl DeviceConfig {
    /// The full Radeon HD 5870 geometry (20 compute units).
    #[must_use]
    pub fn radeon_hd_5870() -> Self {
        Self {
            compute_units: 20,
            ..Self::default()
        }
    }

    /// Starts a validated builder from the paper's default design point.
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder {
            config: Self::default(),
        }
    }

    /// Re-opens this configuration as a builder — the sanctioned way to
    /// derive a variant (sweep points, backend swaps) from an existing
    /// config and re-validate the result.
    pub fn rebuild(self) -> DeviceConfigBuilder {
        DeviceConfigBuilder { config: self }
    }

    /// The per-instruction error rate this configuration induces for a
    /// standard 4-stage unit.
    #[must_use]
    pub fn effective_error_rate(&self) -> f64 {
        self.effective_error_rate_for_stages(4)
    }

    /// The per-instruction error rate for a unit of the given pipeline
    /// depth.
    #[must_use]
    pub fn effective_error_rate_for_stages(&self, stages: u32) -> f64 {
        match self.error_mode {
            ErrorMode::FixedRate(r) => r,
            ErrorMode::PerStageRate(p) => {
                tm_timing::EdsChain::new(stages).instruction_error_rate(p)
            }
            ErrorMode::FromVoltage => self.voltage_model.error_rate(self.vdd),
        }
    }

    /// Dynamic-energy scale of the FPU at the configured supply.
    #[must_use]
    pub fn dynamic_scale(&self) -> f64 {
        self.voltage_model.dynamic_energy_scale(self.vdd)
    }

    /// Checks internal consistency, returning the first violation.
    ///
    /// This is the non-panicking core shared by [`DeviceConfig::validate`]
    /// and [`DeviceConfigBuilder::build`].
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.compute_units == 0 {
            return Err(ConfigError::NoComputeUnits);
        }
        if self.stream_cores_per_cu == 0 {
            return Err(ConfigError::NoStreamCores);
        }
        if self.wavefront_size == 0 || !self.wavefront_size.is_multiple_of(self.stream_cores_per_cu)
        {
            return Err(ConfigError::RaggedWavefront {
                wavefront: self.wavefront_size,
                stream_cores: self.stream_cores_per_cu,
            });
        }
        if self.fifo_depth == 0 {
            return Err(ConfigError::ZeroFifoDepth);
        }
        if self.fifo_depth > MAX_FIFO_DEPTH {
            return Err(ConfigError::FifoTooDeep {
                depth: self.fifo_depth,
            });
        }
        // Both inputs of the rate computation are checked first: the
        // voltage model and the EDS chain panic on values outside their
        // domain. Once they hold, every per-op rate is a probability
        // whenever the 4-stage one is (the issue loop relies on this).
        if !(self.vdd > 0.0 && self.vdd.is_finite()) {
            return Err(ConfigError::NonPositiveVdd { vdd: self.vdd });
        }
        if let ErrorMode::PerStageRate(p) = self.error_mode {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::ErrorRateOutOfRange { rate: p });
            }
        }
        let rate = self.effective_error_rate();
        if !(0.0..=1.0).contains(&rate) {
            return Err(ConfigError::ErrorRateOutOfRange { rate });
        }
        // The heterogeneous and burst samplers panic on parameters their
        // checks reject, and every stream core builds one.
        let model = match self.error_model {
            ErrorModelSpec::Heterogeneous(h) => h.check(),
            ErrorModelSpec::Burst(b) => b.check(),
            ErrorModelSpec::Uniform | ErrorModelSpec::VoltageCoupled { .. } => Ok(()),
        };
        model.map_err(ConfigError::ErrorModelOutOfRange)?;
        // The voltage-coupled model draws each stream core's supply from
        // vdd ± sigma_vdd, and the voltage model panics at or below 0 V.
        if let ErrorModelSpec::VoltageCoupled { sigma_vdd } = self.error_model {
            if !(sigma_vdd >= 0.0 && sigma_vdd < self.vdd) {
                return Err(ConfigError::VddJitterOutOfRange {
                    sigma_vdd,
                    vdd: self.vdd,
                });
            }
        }
        // Every energy charge is scaled by this, and the energy model and
        // the ledger panic on a zero or infinite charge.
        let scale = self.dynamic_scale();
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ConfigError::DynamicScaleOutOfRange { scale });
        }
        if self.metrics_window == Some(0) {
            return Err(ConfigError::ZeroMetricsWindow);
        }
        if let MatchPolicy::Threshold(threshold) = self.policy {
            if !(threshold.is_finite() && threshold >= 0.0) {
                return Err(ConfigError::ThresholdOutOfRange { threshold });
            }
        }
        let gate = self.adaptive_gate.map_or(Ok(()), |gate| gate.check());
        gate.map_err(ConfigError::GatePolicyOutOfRange)?;
        self.energy_model
            .check()
            .map_err(|constant| ConfigError::EnergyModelOutOfRange { constant })
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical geometry (zero CUs/SCs, a wavefront that is
    /// not a positive multiple of the SC count) or an out-of-range error
    /// rate. Prefer [`DeviceConfig::builder`], whose
    /// [`DeviceConfigBuilder::build`] reports the same problems as a
    /// [`ConfigError`] instead.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The policy every lane unit's adaptive gate runs: the configured
    /// one on the memoized architecture, none on the others, which have
    /// no memoization modules to gate.
    pub(crate) fn lane_gate(&self) -> Option<GatePolicy> {
        self.adaptive_gate.filter(|_| self.arch == ArchMode::Memoized)
    }

    /// Sub-wavefront slots per vector instruction
    /// (`wavefront_size / stream_cores_per_cu`, 4 on Evergreen).
    #[must_use]
    pub fn subwavefront_slots(&self) -> usize {
        self.wavefront_size / self.stream_cores_per_cu
    }
}

/// Validated builder for [`DeviceConfig`].
///
/// Obtained from [`DeviceConfig::builder`] (paper defaults) or
/// [`DeviceConfig::rebuild`] (derive a variant from an existing config).
/// [`DeviceConfigBuilder::build`] returns what [`DeviceConfig::check`]
/// rejects as a [`ConfigError`] value instead of a panic.
///
/// # Examples
///
/// ```
/// use tm_sim::{ConfigError, DeviceConfig};
///
/// let err = DeviceConfig::builder()
///     .with_fifo_depth(0)
///     .build()
///     .unwrap_err();
/// assert_eq!(err, ConfigError::ZeroFifoDepth);
/// ```
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct DeviceConfigBuilder {
    config: DeviceConfig,
}

impl DeviceConfigBuilder {
    /// Sets the matching policy.
    pub fn with_policy(mut self, policy: MatchPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the architecture variant.
    pub fn with_arch(mut self, arch: ArchMode) -> Self {
        self.config.arch = arch;
        self
    }

    /// Sets the FIFO depth.
    pub fn with_fifo_depth(mut self, depth: usize) -> Self {
        self.config.fifo_depth = depth;
        self
    }

    /// Sets the replacement policy.
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.config.replacement = replacement;
        self
    }

    /// Sets the timing-error source.
    pub fn with_error_mode(mut self, mode: ErrorMode) -> Self {
        self.config.error_mode = mode;
        self
    }

    /// Sets how the error source is distributed across stream cores.
    pub fn with_error_model(mut self, model: ErrorModelSpec) -> Self {
        self.config.error_model = model;
        self
    }

    /// Sets the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Sets the FPU supply voltage (VOS experiments).
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        self.config.vdd = vdd;
        self
    }

    /// Sets the error-injection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of compute units.
    pub fn with_compute_units(mut self, n: usize) -> Self {
        self.config.compute_units = n;
        self
    }

    /// Sets the stream-core count per compute unit.
    pub fn with_stream_cores_per_cu(mut self, n: usize) -> Self {
        self.config.stream_cores_per_cu = n;
        self
    }

    /// Sets the wavefront size (must end up a positive multiple of the
    /// stream-core count).
    pub fn with_wavefront_size(mut self, n: usize) -> Self {
        self.config.wavefront_size = n;
        self
    }

    /// Enables instruction tracing with the given per-CU capacity.
    pub fn with_trace_depth(mut self, depth: usize) -> Self {
        self.config.trace_depth = depth;
        self
    }

    /// Enables adaptive power gating of the memoization modules.
    pub fn with_adaptive_gate(mut self, policy: GatePolicy) -> Self {
        self.config.adaptive_gate = Some(policy);
        self
    }

    /// Selects the execution engine.
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Shorthand for [`DeviceConfigBuilder::with_backend`] with
    /// [`ExecBackend::Parallel`] — one worker thread per compute unit.
    pub fn with_parallel(self) -> Self {
        self.with_backend(ExecBackend::Parallel)
    }

    /// Enables online value-locality profiling.
    pub fn with_locality_tracking(mut self) -> Self {
        self.config.locality_tracking = true;
        self
    }

    /// Enables time-windowed metrics with the given initial window width
    /// in cycles (see [`crate::sink::MetricsSink`]).
    pub fn with_metrics_window(mut self, cycles: u64) -> Self {
        self.config.metrics_window = Some(cycles);
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Everything [`DeviceConfig::check`] rejects.
    pub fn build(self) -> Result<DeviceConfig, ConfigError> {
        self.config.check()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_timing::{BurstErrors, HeterogeneousErrors};

    #[test]
    fn default_matches_paper_design_point() {
        let c = DeviceConfig::default();
        c.validate();
        assert_eq!(c.fifo_depth, 2);
        assert_eq!(c.subwavefront_slots(), 4);
        assert_eq!(c.effective_error_rate(), 0.0);
        assert_eq!(c.error_model, ErrorModelSpec::Uniform);
        assert!((c.dynamic_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn radeon_geometry() {
        let c = DeviceConfig::radeon_hd_5870();
        assert_eq!(c.compute_units, 20);
        assert_eq!(c.stream_cores_per_cu, 16);
        assert_eq!(c.wavefront_size, 64);
    }

    #[test]
    fn voltage_mode_derives_rate() {
        let c = DeviceConfig::builder()
            .with_error_mode(ErrorMode::FromVoltage)
            .with_vdd(0.80)
            .build()
            .unwrap();
        assert!(c.effective_error_rate() > 0.2);
        assert!(c.dynamic_scale() < 0.8);
    }

    #[test]
    #[should_panic(expected = "multiple of the SC count")]
    fn validate_rejects_ragged_wavefront() {
        let c = DeviceConfig {
            wavefront_size: 63,
            ..DeviceConfig::default()
        };
        c.validate();
    }

    #[test]
    fn builders_chain() {
        let c = DeviceConfig::builder()
            .with_fifo_depth(8)
            .with_seed(1)
            .with_compute_units(1)
            .with_arch(ArchMode::Baseline)
            .with_error_model(ErrorModelSpec::Heterogeneous(
                HeterogeneousErrors::quartile_corners(),
            ))
            .build()
            .unwrap();
        assert_eq!(c.fifo_depth, 8);
        assert_eq!(c.arch, ArchMode::Baseline);
        assert_eq!(c.error_model.name(), "heterogeneous");
    }

    #[test]
    fn backend_defaults_to_sequential() {
        let c = DeviceConfig::default();
        assert_eq!(c.backend, ExecBackend::Sequential);
        assert!(!c.locality_tracking);
        let c = c.rebuild().with_parallel().with_locality_tracking().build().unwrap();
        assert_eq!(c.backend, ExecBackend::Parallel);
        assert!(c.locality_tracking);
    }

    #[test]
    fn build_rejects_geometry_errors_as_values() {
        assert_eq!(
            DeviceConfig::builder().with_compute_units(0).build(),
            Err(ConfigError::NoComputeUnits)
        );
        assert_eq!(
            DeviceConfig::builder().with_stream_cores_per_cu(0).build(),
            Err(ConfigError::NoStreamCores)
        );
        assert_eq!(
            DeviceConfig::builder().with_wavefront_size(63).build(),
            Err(ConfigError::RaggedWavefront {
                wavefront: 63,
                stream_cores: 16
            })
        );
        assert_eq!(
            DeviceConfig::builder().with_fifo_depth(0).build(),
            Err(ConfigError::ZeroFifoDepth)
        );
        // Every stream core allocates its FIFO slots up front.
        assert!(DeviceConfig::builder().with_fifo_depth(MAX_FIFO_DEPTH).build().is_ok());
        for depth in [MAX_FIFO_DEPTH + 1, 1 << 40] {
            assert_eq!(
                DeviceConfig::builder().with_fifo_depth(depth).build(),
                Err(ConfigError::FifoTooDeep { depth })
            );
        }
        assert_eq!(
            DeviceConfig::builder()
                .with_error_mode(ErrorMode::FixedRate(1.5))
                .build(),
            Err(ConfigError::ErrorRateOutOfRange { rate: 1.5 })
        );
        assert_eq!(
            DeviceConfig::builder().with_vdd(-0.1).build(),
            Err(ConfigError::NonPositiveVdd { vdd: -0.1 })
        );
        // The rate's inputs are checked before the rate is computed: the
        // voltage model and the EDS chain would panic on these.
        assert_eq!(
            DeviceConfig::builder()
                .with_error_mode(ErrorMode::FromVoltage)
                .with_vdd(0.0)
                .build(),
            Err(ConfigError::NonPositiveVdd { vdd: 0.0 })
        );
        assert_eq!(
            DeviceConfig::builder()
                .with_error_mode(ErrorMode::PerStageRate(1.5))
                .build(),
            Err(ConfigError::ErrorRateOutOfRange { rate: 1.5 })
        );
        assert!(matches!(
            DeviceConfig::builder()
                .with_error_mode(ErrorMode::PerStageRate(f64::NAN))
                .build(),
            Err(ConfigError::ErrorRateOutOfRange { rate }) if rate.is_nan()
        ));
        for vdd in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                DeviceConfig::builder().with_vdd(vdd).build(),
                Err(ConfigError::NonPositiveVdd { .. })
            ));
        }
        // Positive, finite supplies whose V² scale leaves the f64 range:
        // the energy model and the ledger would panic on the first launch.
        assert_eq!(
            DeviceConfig::builder().with_vdd(1e-300).build(),
            Err(ConfigError::DynamicScaleOutOfRange { scale: 0.0 })
        );
        assert_eq!(
            DeviceConfig::builder().with_vdd(1e300).build(),
            Err(ConfigError::DynamicScaleOutOfRange { scale: f64::INFINITY })
        );
        // The voltage-coupled model draws each stream core's supply from
        // vdd ± sigma_vdd; the voltage model panics on one at or below 0.
        for sigma_vdd in [-0.1, 0.9, 1.5] {
            assert_eq!(
                DeviceConfig::builder()
                    .with_error_model(ErrorModelSpec::VoltageCoupled { sigma_vdd })
                    .build(),
                Err(ConfigError::VddJitterOutOfRange { sigma_vdd, vdd: 0.9 })
            );
        }
        // The heterogeneous and burst samplers panic on these; the device
        // builds one per stream core.
        let corners = HeterogeneousErrors::quartile_corners();
        for (h, err) in [
            (
                HeterogeneousErrors { slow_fraction: 0.8, ..corners },
                ErrorModelError::CornerFractions { slow_fraction: 0.8, fast_fraction: 0.25 },
            ),
            (
                HeterogeneousErrors { fast_fraction: -0.1, ..corners },
                ErrorModelError::CornerFractions { slow_fraction: 0.25, fast_fraction: -0.1 },
            ),
            (
                HeterogeneousErrors { slow_fraction: 1.5, fast_fraction: 0.0, ..corners },
                ErrorModelError::CornerFractions { slow_fraction: 1.5, fast_fraction: 0.0 },
            ),
            (
                HeterogeneousErrors { fast_factor: -1.0, ..corners },
                ErrorModelError::NegativeCornerFactor { slow_factor: 4.0, fast_factor: -1.0 },
            ),
        ] {
            assert_eq!(
                DeviceConfig::builder().with_error_model(ErrorModelSpec::Heterogeneous(h)).build(),
                Err(ConfigError::ErrorModelOutOfRange(err))
            );
        }
        let droop = BurstErrors::droop();
        for (b, err) in [
            (
                BurstErrors { enter: 2.0, ..droop },
                ErrorModelError::BurstTransition { enter: 2.0, exit: 0.05 },
            ),
            (
                BurstErrors { exit: -0.5, ..droop },
                ErrorModelError::BurstTransition { enter: 0.005, exit: -0.5 },
            ),
            (
                BurstErrors { burst_factor: -8.0, ..droop },
                ErrorModelError::NegativeBurstFactor { burst_factor: -8.0 },
            ),
        ] {
            assert_eq!(
                DeviceConfig::builder().with_error_model(ErrorModelSpec::Burst(b)).build(),
                Err(ConfigError::ErrorModelOutOfRange(err))
            );
        }
        assert!(matches!(
            DeviceConfig::builder()
                .with_error_model(ErrorModelSpec::Heterogeneous(HeterogeneousErrors {
                    slow_fraction: f64::NAN,
                    ..corners
                }))
                .build(),
            Err(ConfigError::ErrorModelOutOfRange(ErrorModelError::CornerFractions { .. }))
        ));
        let huge_nominal = DeviceConfig {
            voltage_model: VoltageModel::new(1e300, 0.85, 2.4e-4, 142.7, 0.30),
            ..DeviceConfig::default()
        };
        assert_eq!(
            huge_nominal.check(),
            Err(ConfigError::DynamicScaleOutOfRange { scale: 0.0 })
        );
        assert_eq!(
            DeviceConfig::builder().with_metrics_window(0).build(),
            Err(ConfigError::ZeroMetricsWindow)
        );
        // A device with any of these builds; its snapshot does not
        // decode.
        for threshold in [-1.0, f32::NAN, f32::INFINITY] {
            assert!(matches!(
                DeviceConfig::builder().with_policy(MatchPolicy::Threshold(threshold)).build(),
                Err(ConfigError::ThresholdOutOfRange { .. })
            ));
        }
        // Every lane unit's gate would panic on these.
        let gate = GatePolicy::break_even();
        for (policy, rule) in [
            (GatePolicy { window: 0, ..gate }, "window must be positive"),
            (GatePolicy { gate_period: 0, ..gate }, "gate period must be positive"),
            (GatePolicy { consecutive_windows: 0, ..gate }, "need at least one window to trip"),
            (GatePolicy { min_hit_rate: 2.0, ..gate }, "min hit rate must be a probability"),
            (GatePolicy { min_hit_rate: f64::NAN, ..gate }, "min hit rate must be a probability"),
        ] {
            assert_eq!(
                DeviceConfig::builder().with_adaptive_gate(policy).build(),
                Err(ConfigError::GatePolicyOutOfRange(rule))
            );
        }
        // The energy ledger would panic on the first charge.
        let energy = EnergyModel::tsmc45();
        for (model, constant) in [
            (EnergyModel { epi_add_pj: -1.0, ..energy }, "epi_add_pj"),
            (EnergyModel { epi_add_pj: f64::INFINITY, ..energy }, "epi_add_pj"),
            (EnergyModel { lut_lookup_frac: f64::NAN, ..energy }, "lut_lookup_frac"),
        ] {
            let config = DeviceConfig { energy_model: model, ..DeviceConfig::default() };
            assert_eq!(
                config.rebuild().build(),
                Err(ConfigError::EnergyModelOutOfRange { constant })
            );
        }
    }

    #[test]
    fn rebuild_preserves_and_revalidates() {
        let base = DeviceConfig::builder().with_seed(9).build().unwrap();
        let derived = base
            .clone()
            .rebuild()
            .with_backend(ExecBackend::Parallel)
            .build()
            .unwrap();
        assert_eq!(derived.seed, 9);
        assert_eq!(derived.backend, ExecBackend::Parallel);
        // Re-opening lets validation catch later edits too.
        let err = base.rebuild().with_fifo_depth(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroFifoDepth);
    }

    #[test]
    fn config_error_displays_and_is_error() {
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroFifoDepth);
        assert_eq!(e.to_string(), "FIFO depth must be at least 1");
    }

}
