//! Pluggable per-stream-core timing-error models.
//!
//! The paper sweeps a single uniform per-instruction error rate
//! (Fig. 10), but real silicon is not uniform: process corners make some
//! execution units systematically slower, supply droop couples the error
//! rate to the delivered voltage, and error events cluster in bursts.
//! This module generalises [`crate::ErrorInjector`]'s uniform Bernoulli
//! stream into an [`ErrorModel`] trait that builds one [`ErrorSampler`]
//! per (compute unit, stream core) position, plus four implementations:
//!
//! * [`UniformErrors`] — the existing behaviour, bit-compatible with
//!   [`crate::ErrorInjector`] for the same seed;
//! * [`HeterogeneousErrors`] — per-stream-core fast/slow corner
//!   assignment drawn from a seeded PCG32 stream;
//! * [`VoltageCoupledErrors`] — per-stream-core supply jitter pushed
//!   through a [`VoltageModel`];
//! * [`BurstErrors`] — a two-state Gilbert–Elliott process that
//!   clusters errors in time.
//!
//! # Determinism contract
//!
//! Every sampler is a pure function of `(model, cu, sc, seed)` and its
//! own draw count. The simulator hands each stream core its **own**
//! sampler, so a lane's EDS verdict depends only on (CU seed, its
//! stream core, how many instructions that stream core has issued) —
//! never on which other stream cores ran in between. This is the
//! invariant that lets the simulator walk a compute unit
//! stream-core-major and still draw exactly what a lane-major walk
//! would, so the Sequential and Parallel backends stay bit-identical for
//! the same seed; every model here preserves it.
//! A zero effective rate never advances the sampler's RNG (the same
//! fast path [`crate::ErrorInjector::sample_with_rate`] pins), so
//! error-free runs stay reproducible too.

use crate::voltage::VoltageModel;
use std::fmt;
use tm_rng::{child_seed, Pcg32};

/// The process corner a stream core was assigned by
/// [`HeterogeneousErrors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corner {
    /// Fast silicon: more timing slack, fewer violations.
    Fast,
    /// Typical silicon: the nominal rate.
    Typical,
    /// Slow silicon: less slack, more violations.
    Slow,
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Corner::Fast => "fast",
            Corner::Typical => "typical",
            Corner::Slow => "slow",
        })
    }
}

/// How an [`ErrorSampler`] turns the configured base rate into the
/// per-draw probability.
#[derive(Debug, Clone, PartialEq)]
enum SamplerKind {
    /// Per-draw probability = `base_rate * factor` (clamped to 1).
    Scaled {
        /// Multiplier on the configured per-instruction rate.
        factor: f64,
    },
    /// Per-draw probability = `rate` whenever the configured base rate
    /// is non-zero (the stream-core-specific voltage-derived rate).
    Absolute {
        /// The stream core's own per-instruction error probability.
        rate: f64,
    },
    /// Gilbert–Elliott: a hidden good/bad state modulates the base
    /// rate; the bad state multiplies it by `factor`.
    Burst {
        /// Whether the stream core is currently in the bursty state.
        bad: bool,
        /// P(good → bad) per draw.
        enter: f64,
        /// P(bad → good) per draw.
        exit: f64,
        /// Rate multiplier while in the bad state (clamped to 1).
        factor: f64,
    },
}

/// A per-instruction error rate checked to be a probability, so a
/// caller drawing many verdicts at one rate checks it once.
///
/// # Examples
///
/// ```
/// use tm_timing::error_model::ErrorRate;
///
/// assert_eq!(ErrorRate::new(0.02).map(ErrorRate::get), Some(0.02));
/// assert!(ErrorRate::new(1.5).is_none());
/// assert!(ErrorRate::new(f64::NAN).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRate(f64);

impl ErrorRate {
    /// `rate` if it lies in `[0, 1]` (NaN does not).
    #[must_use]
    pub fn new(rate: f64) -> Option<Self> {
        (0.0..=1.0).contains(&rate).then_some(Self(rate))
    }

    /// The probability.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

/// One stream core's deterministic timing-error stream, built by an
/// [`ErrorModel`].
///
/// Generalises [`crate::ErrorInjector`]: the same seeded-PCG32 Bernoulli
/// machinery and draw/error counters, but the per-draw probability may
/// be scaled, replaced or modulated by the model that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSampler {
    rng: Pcg32,
    kind: SamplerKind,
    drawn: u64,
    errors: u64,
}

impl ErrorSampler {
    fn new(seed: u64, kind: SamplerKind) -> Self {
        Self {
            rng: Pcg32::seed_from_u64(seed),
            kind,
            drawn: 0,
            errors: 0,
        }
    }

    /// Draws one instruction at the configured per-instruction base
    /// rate: `true` means the EDS sensors flagged a timing violation.
    ///
    /// A `base_rate` of zero never fires and never advances the RNG —
    /// error-free configurations must stay error-free (and cheap) under
    /// every model.
    ///
    /// # Panics
    ///
    /// Panics unless `base_rate` is a probability.
    pub fn sample_with_rate(&mut self, base_rate: f64) -> bool {
        let rate = ErrorRate::new(base_rate)
            .unwrap_or_else(|| panic!("error rate must be a probability, got {base_rate}"));
        self.sample(rate)
    }

    /// [`ErrorSampler::sample_with_rate`] at a rate checked once by the
    /// caller — the issue loop checks each instruction's rate and then
    /// draws one verdict per lane.
    #[inline]
    pub fn sample(&mut self, rate: ErrorRate) -> bool {
        self.drawn += 1;
        rate.get() != 0.0 && self.draw(rate.get())
    }

    /// The draw behind a non-zero base rate.
    fn draw(&mut self, base_rate: f64) -> bool {
        let p = match &mut self.kind {
            SamplerKind::Scaled { factor } => (base_rate * *factor).min(1.0),
            SamplerKind::Absolute { rate } => *rate,
            SamplerKind::Burst {
                bad,
                enter,
                exit,
                factor,
            } => {
                // State transition first, then the Bernoulli draw: both
                // consume this stream's RNG, keeping the sequence a pure
                // function of the draw count.
                let flip = self.rng.next_f64();
                if *bad {
                    if flip < *exit {
                        *bad = false;
                    }
                } else if flip < *enter {
                    *bad = true;
                }
                if *bad {
                    (base_rate * *factor).min(1.0)
                } else {
                    base_rate
                }
            }
        };
        let hit = self.rng.gen_bool(p);
        if hit {
            self.errors += 1;
        }
        hit
    }

    /// The mutable run state, for device snapshots.
    #[must_use]
    pub fn state(&self) -> ErrorSamplerState {
        let (pcg_state, pcg_inc) = self.rng.state_parts();
        ErrorSamplerState {
            pcg_state,
            pcg_inc,
            drawn: self.drawn,
            errors: self.errors,
            burst_bad: match &self.kind {
                SamplerKind::Burst { bad, .. } => Some(*bad),
                _ => None,
            },
        }
    }

    /// Restores snapshotted run state onto a freshly built sampler of the
    /// same model/position (which fixes the model's parameters —
    /// those are configuration, not run state).
    ///
    /// # Errors
    ///
    /// Returns a message if the state is inconsistent with this sampler:
    /// an even PCG increment (corrupted stream) or a `burst_bad` flag
    /// whose presence disagrees with whether this is a burst sampler.
    pub fn restore_state(&mut self, state: &ErrorSamplerState) -> Result<(), &'static str> {
        if state.pcg_inc & 1 == 0 {
            return Err("PCG increment must be odd");
        }
        match (&mut self.kind, state.burst_bad) {
            (SamplerKind::Burst { bad, .. }, Some(b)) => *bad = b,
            (SamplerKind::Burst { .. }, None) => {
                return Err("burst sampler state is missing its burst_bad flag");
            }
            (_, Some(_)) => {
                return Err("non-burst sampler state carries a burst_bad flag");
            }
            (_, None) => {}
        }
        self.rng = Pcg32::from_raw_parts(state.pcg_state, state.pcg_inc);
        self.drawn = state.drawn;
        self.errors = state.errors;
        Ok(())
    }

    /// Total instructions drawn.
    #[must_use]
    pub const fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Total violations injected.
    #[must_use]
    pub const fn errors(&self) -> u64 {
        self.errors
    }

    /// Empirical error rate observed so far.
    #[must_use]
    pub fn observed_rate(&self) -> f64 {
        if self.drawn == 0 {
            0.0
        } else {
            self.errors as f64 / self.drawn as f64
        }
    }
}

/// The mutable run state of one [`ErrorSampler`], exposed for device
/// snapshots: the raw PCG32 stream words, the draw/error tallies, and —
/// for Gilbert–Elliott samplers only — the hidden good/bad state. The
/// model parameters themselves are configuration and are rebuilt from
/// the device config on restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorSamplerState {
    /// Raw PCG32 LCG state word.
    pub pcg_state: u64,
    /// Raw PCG32 stream increment (always odd).
    pub pcg_inc: u64,
    /// Total instructions drawn.
    pub drawn: u64,
    /// Total violations injected.
    pub errors: u64,
    /// The hidden Gilbert–Elliott state (`Some` iff the sampler is a
    /// burst sampler).
    pub burst_bad: Option<bool>,
}

/// A source of per-stream-core [`ErrorSampler`]s.
///
/// `build_sampler` must be a pure function of `(self, cu, sc, seed)`:
/// the simulator calls it once per stream core at device construction,
/// and the cross-backend bit-identity of every run rests on the result
/// not depending on construction order.
pub trait ErrorModel {
    /// Stable lowercase label for reports and campaign records.
    fn name(&self) -> &'static str;

    /// Builds the sampler for stream core `sc` of compute unit `cu`.
    ///
    /// `seed` is the stream core's pre-derived decorrelated seed (the
    /// simulator fans the device seed out through
    /// [`tm_rng::child_seed`]); `cu`/`sc` let position-dependent models
    /// (corner maps, voltage gradients) key off topology as well.
    fn build_sampler(&self, cu: usize, sc: usize, seed: u64) -> ErrorSampler;
}

/// The paper's uniform model: every stream core draws at the configured
/// rate. Bit-compatible with [`crate::ErrorInjector`] — for the same
/// seed both produce the identical verdict sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformErrors;

impl ErrorModel for UniformErrors {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn build_sampler(&self, _cu: usize, _sc: usize, seed: u64) -> ErrorSampler {
        ErrorSampler::new(seed, SamplerKind::Scaled { factor: 1.0 })
    }
}

/// Why [`HeterogeneousErrors::check`] or [`BurstErrors::check`] rejected
/// a model's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorModelError {
    /// The corner fractions are not probabilities summing to at most 1.
    CornerFractions {
        /// [`HeterogeneousErrors::slow_fraction`].
        slow_fraction: f64,
        /// [`HeterogeneousErrors::fast_fraction`].
        fast_fraction: f64,
    },
    /// A corner's error-rate factor is negative (or NaN).
    NegativeCornerFactor {
        /// [`HeterogeneousErrors::slow_factor`].
        slow_factor: f64,
        /// [`HeterogeneousErrors::fast_factor`].
        fast_factor: f64,
    },
    /// A burst transition probability is outside `[0, 1]`.
    BurstTransition {
        /// [`BurstErrors::enter`].
        enter: f64,
        /// [`BurstErrors::exit`].
        exit: f64,
    },
    /// The burst factor is negative (or NaN).
    NegativeBurstFactor {
        /// [`BurstErrors::burst_factor`].
        burst_factor: f64,
    },
}

impl fmt::Display for ErrorModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CornerFractions { slow_fraction, fast_fraction } => write!(
                f,
                "corner fractions must be probabilities summing to <= 1, got slow {slow_fraction} and fast {fast_fraction}"
            ),
            Self::NegativeCornerFactor { slow_factor, fast_factor } => write!(
                f,
                "corner factors must be non-negative, got slow {slow_factor} and fast {fast_factor}"
            ),
            Self::BurstTransition { enter, exit } => write!(
                f,
                "burst transition probabilities must be in [0, 1], got enter {enter} and exit {exit}"
            ),
            Self::NegativeBurstFactor { burst_factor } => {
                write!(f, "burst factor must be non-negative, got {burst_factor}")
            }
        }
    }
}

impl std::error::Error for ErrorModelError {}

/// Per-stream-core process corners: each (cu, sc) position is assigned
/// fast, typical or slow silicon by a seeded PCG32 stream, scaling its
/// error rate by the corner's factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeterogeneousErrors {
    /// Fraction of stream cores on the slow corner.
    pub slow_fraction: f64,
    /// Error-rate multiplier for slow cores (≥ 1 in practice).
    pub slow_factor: f64,
    /// Fraction of stream cores on the fast corner.
    pub fast_fraction: f64,
    /// Error-rate multiplier for fast cores (≤ 1 in practice).
    pub fast_factor: f64,
}

impl HeterogeneousErrors {
    /// A representative corner split: 25 % slow cores at 4× the rate,
    /// 25 % fast cores at 0.25×, the rest typical.
    #[must_use]
    pub const fn quartile_corners() -> Self {
        Self {
            slow_fraction: 0.25,
            slow_factor: 4.0,
            fast_fraction: 0.25,
            fast_factor: 0.25,
        }
    }

    /// Checks that the fractions are probabilities summing to ≤ 1 and
    /// that no factor is negative.
    ///
    /// # Errors
    ///
    /// The first violated rule, as an [`ErrorModelError`].
    pub fn check(&self) -> Result<(), ErrorModelError> {
        if !((0.0..=1.0).contains(&self.slow_fraction)
            && (0.0..=1.0).contains(&self.fast_fraction)
            && self.slow_fraction + self.fast_fraction <= 1.0)
        {
            return Err(ErrorModelError::CornerFractions {
                slow_fraction: self.slow_fraction,
                fast_fraction: self.fast_fraction,
            });
        }
        if !(self.slow_factor >= 0.0 && self.fast_factor >= 0.0) {
            return Err(ErrorModelError::NegativeCornerFactor {
                slow_factor: self.slow_factor,
                fast_factor: self.fast_factor,
            });
        }
        Ok(())
    }

    /// Validates fractions and factors.
    ///
    /// # Panics
    ///
    /// Panics with the [`HeterogeneousErrors::check`] error.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The corner assigned to `(cu, sc, seed)` — drawn from a dedicated
    /// PCG32 stream so the assignment is independent of the sampler's
    /// verdict stream.
    #[must_use]
    pub fn corner(&self, _cu: usize, _sc: usize, seed: u64) -> Corner {
        let mut assign = Pcg32::seed_from_u64(child_seed(seed, 1));
        let u = assign.next_f64();
        if u < self.slow_fraction {
            Corner::Slow
        } else if u < self.slow_fraction + self.fast_fraction {
            Corner::Fast
        } else {
            Corner::Typical
        }
    }
}

impl Default for HeterogeneousErrors {
    fn default() -> Self {
        Self::quartile_corners()
    }
}

impl ErrorModel for HeterogeneousErrors {
    fn name(&self) -> &'static str {
        "heterogeneous"
    }

    fn build_sampler(&self, cu: usize, sc: usize, seed: u64) -> ErrorSampler {
        self.validate();
        let factor = match self.corner(cu, sc, seed) {
            Corner::Slow => self.slow_factor,
            Corner::Fast => self.fast_factor,
            Corner::Typical => 1.0,
        };
        ErrorSampler::new(child_seed(seed, 0), SamplerKind::Scaled { factor })
    }
}

/// Per-stream-core supply jitter through a [`VoltageModel`]: each core
/// sees the shared rail plus its own static IR-drop offset, and errs at
/// the rate the model assigns to that delivered voltage.
///
/// The core-specific rate **replaces** the configured per-instruction
/// rate whenever that rate is non-zero; an error-free configuration
/// (base rate 0) stays error-free.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageCoupledErrors {
    /// The voltage/error model shared by all cores.
    pub model: VoltageModel,
    /// The nominal rail voltage the cores are fed.
    pub vdd: f64,
    /// Half-width of the per-core static offset: each core's delivered
    /// voltage is drawn uniformly from `vdd ± sigma_vdd`.
    pub sigma_vdd: f64,
}

impl VoltageCoupledErrors {
    /// The delivered voltage of `(cu, sc, seed)` — drawn once from a
    /// dedicated stream at sampler-build time (static IR drop, not
    /// dynamic noise).
    #[must_use]
    pub fn delivered_vdd(&self, _cu: usize, _sc: usize, seed: u64) -> f64 {
        assert!(self.sigma_vdd >= 0.0, "sigma_vdd must be non-negative");
        if self.sigma_vdd == 0.0 {
            return self.vdd;
        }
        let mut jitter = Pcg32::seed_from_u64(child_seed(seed, 1));
        jitter.gen_range(self.vdd - self.sigma_vdd..=self.vdd + self.sigma_vdd)
    }
}

impl ErrorModel for VoltageCoupledErrors {
    fn name(&self) -> &'static str {
        "voltage-coupled"
    }

    fn build_sampler(&self, cu: usize, sc: usize, seed: u64) -> ErrorSampler {
        let delivered = self.delivered_vdd(cu, sc, seed);
        let rate = self.model.error_rate(delivered);
        ErrorSampler::new(child_seed(seed, 0), SamplerKind::Absolute { rate })
    }
}

/// Burst/correlated errors: a per-stream-core Gilbert–Elliott process.
/// Each draw first evolves a hidden good/bad state; the bad state
/// multiplies the configured rate by `burst_factor`, clustering
/// violations in time the way droop events and thermal transients do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstErrors {
    /// P(good → bad) per instruction.
    pub enter: f64,
    /// P(bad → good) per instruction.
    pub exit: f64,
    /// Error-rate multiplier while the burst lasts.
    pub burst_factor: f64,
}

impl BurstErrors {
    /// A representative droop profile: rare bursts (0.5 % entry) that
    /// last ~20 instructions at 8× the base rate.
    #[must_use]
    pub const fn droop() -> Self {
        Self {
            enter: 0.005,
            exit: 0.05,
            burst_factor: 8.0,
        }
    }

    /// Checks that `enter` and `exit` are probabilities and that the
    /// factor is not negative.
    ///
    /// # Errors
    ///
    /// The first violated rule, as an [`ErrorModelError`].
    pub fn check(&self) -> Result<(), ErrorModelError> {
        if !((0.0..=1.0).contains(&self.enter) && (0.0..=1.0).contains(&self.exit)) {
            return Err(ErrorModelError::BurstTransition { enter: self.enter, exit: self.exit });
        }
        if !(0.0..).contains(&self.burst_factor) {
            return Err(ErrorModelError::NegativeBurstFactor { burst_factor: self.burst_factor });
        }
        Ok(())
    }

    /// Validates the transition probabilities and factor.
    ///
    /// # Panics
    ///
    /// Panics with the [`BurstErrors::check`] error.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for BurstErrors {
    fn default() -> Self {
        Self::droop()
    }
}

impl ErrorModel for BurstErrors {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn build_sampler(&self, _cu: usize, _sc: usize, seed: u64) -> ErrorSampler {
        self.validate();
        ErrorSampler::new(
            seed,
            SamplerKind::Burst {
                bad: false,
                enter: self.enter,
                exit: self.exit,
                factor: self.burst_factor,
            },
        )
    }
}

/// A value-type description of an error model, suitable for embedding
/// in a device configuration (`Clone + PartialEq`, no trait objects).
///
/// [`ErrorModelSpec::instantiate`] turns the spec into the concrete
/// model; the voltage-coupled variant binds the configuration's rail
/// voltage and [`VoltageModel`] at that point.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ErrorModelSpec {
    /// [`UniformErrors`] — the paper's single-rate model.
    #[default]
    Uniform,
    /// [`HeterogeneousErrors`] with the given corner split.
    Heterogeneous(HeterogeneousErrors),
    /// [`VoltageCoupledErrors`] with the given per-core supply
    /// half-width; rail voltage and model come from the device
    /// configuration.
    VoltageCoupled {
        /// Half-width of the per-core delivered-voltage offset.
        sigma_vdd: f64,
    },
    /// [`BurstErrors`] with the given Gilbert–Elliott parameters.
    Burst(BurstErrors),
}

impl ErrorModelSpec {
    /// Stable lowercase label (matches the instantiated model's
    /// [`ErrorModel::name`]).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            ErrorModelSpec::Uniform => "uniform",
            ErrorModelSpec::Heterogeneous(_) => "heterogeneous",
            ErrorModelSpec::VoltageCoupled { .. } => "voltage-coupled",
            ErrorModelSpec::Burst(_) => "burst",
        }
    }

    /// Builds the concrete model, binding `vdd` and `voltage_model` for
    /// the voltage-coupled variant.
    #[must_use]
    pub fn instantiate(&self, vdd: f64, voltage_model: &VoltageModel) -> Box<dyn ErrorModel> {
        match self {
            ErrorModelSpec::Uniform => Box::new(UniformErrors),
            ErrorModelSpec::Heterogeneous(h) => Box::new(*h),
            ErrorModelSpec::VoltageCoupled { sigma_vdd } => Box::new(VoltageCoupledErrors {
                model: *voltage_model,
                vdd,
                sigma_vdd: *sigma_vdd,
            }),
            ErrorModelSpec::Burst(b) => Box::new(*b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorInjector;

    #[test]
    fn uniform_is_bit_compatible_with_injector() {
        let seed = 0xABCD_EF01;
        let mut injector = ErrorInjector::new(0.3, seed);
        let mut sampler = UniformErrors.build_sampler(0, 0, seed);
        for _ in 0..10_000 {
            assert_eq!(injector.sample(), sampler.sample_with_rate(0.3));
        }
        assert_eq!(injector.errors(), sampler.errors());
        assert_eq!(injector.drawn(), sampler.drawn());
    }

    #[test]
    fn zero_rate_never_fires_and_never_advances_rng() {
        for spec in [
            ErrorModelSpec::Uniform,
            ErrorModelSpec::Heterogeneous(HeterogeneousErrors::default()),
            ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.02 },
            ErrorModelSpec::Burst(BurstErrors::default()),
        ] {
            let model = spec.instantiate(0.9, &VoltageModel::tsmc45());
            let mut a = model.build_sampler(0, 0, 7);
            let mut b = model.build_sampler(0, 0, 7);
            // `a` draws 1000 zero-rate samples first; if they advanced
            // the RNG the subsequent non-zero draws would diverge.
            assert!((0..1000).all(|_| !a.sample_with_rate(0.0)));
            let sa: Vec<bool> = (0..256).map(|_| a.sample_with_rate(0.5)).collect();
            let sb: Vec<bool> = (0..256).map(|_| b.sample_with_rate(0.5)).collect();
            assert_eq!(sa, sb, "{} zero-rate draws must not advance RNG", spec.name());
            assert_eq!(a.drawn(), 1256);
        }
    }

    #[test]
    fn samplers_are_pure_functions_of_position_and_seed() {
        for spec in [
            ErrorModelSpec::Uniform,
            ErrorModelSpec::Heterogeneous(HeterogeneousErrors::default()),
            ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.03 },
            ErrorModelSpec::Burst(BurstErrors::default()),
        ] {
            let model = spec.instantiate(0.84, &VoltageModel::tsmc45());
            let draw = |sampler: &mut ErrorSampler| -> Vec<bool> {
                (0..512).map(|_| sampler.sample_with_rate(0.1)).collect()
            };
            let mut a = model.build_sampler(1, 3, 99);
            let mut b = model.build_sampler(1, 3, 99);
            assert_eq!(draw(&mut a), draw(&mut b), "{}", spec.name());
            let mut c = model.build_sampler(1, 3, 100);
            assert_ne!(draw(&mut a), draw(&mut c), "{} seeds must matter", spec.name());
        }
    }

    #[test]
    fn heterogeneous_corners_scale_observed_rates() {
        let h = HeterogeneousErrors {
            slow_fraction: 0.5,
            slow_factor: 5.0,
            fast_fraction: 0.5,
            fast_factor: 0.0,
        };
        // With 50/50 slow/fast corners, samplers split into ones that
        // err at 5x the base rate and ones that never err.
        let mut slow_seen = false;
        let mut fast_seen = false;
        for sc in 0..32 {
            let mut s = h.build_sampler(0, sc, tm_rng::child_seed(11, sc as u64));
            let errs = (0..2000).filter(|_| s.sample_with_rate(0.02)).count();
            match h.corner(0, sc, tm_rng::child_seed(11, sc as u64)) {
                Corner::Slow => {
                    slow_seen = true;
                    assert!((120..300).contains(&errs), "slow corner errs ~200, got {errs}");
                }
                Corner::Fast => {
                    fast_seen = true;
                    assert_eq!(errs, 0, "fast corner at factor 0 must never err");
                }
                Corner::Typical => unreachable!("fractions cover the unit interval"),
            }
        }
        assert!(slow_seen && fast_seen, "both corners should appear in 32 cores");
    }

    #[test]
    fn voltage_coupled_rates_grow_with_deeper_overscaling() {
        let model = VoltageModel::tsmc45();
        let rate_at = |vdd: f64| {
            let m = VoltageCoupledErrors {
                model,
                vdd,
                sigma_vdd: 0.0,
            };
            let mut s = m.build_sampler(0, 0, 5);
            (0..20_000).filter(|_| s.sample_with_rate(0.5)).count()
        };
        // Deeper overscaling (lower rail) must produce more errors; the
        // base rate only gates (non-zero => the SC rate applies).
        assert!(rate_at(0.80) > rate_at(0.83));
        assert_eq!(rate_at(0.90), 0, "at nominal the model's rate is zero");
    }

    #[test]
    fn voltage_jitter_spreads_cores() {
        let m = VoltageCoupledErrors {
            model: VoltageModel::tsmc45(),
            vdd: 0.82,
            sigma_vdd: 0.02,
        };
        let delivered: Vec<f64> = (0..16)
            .map(|sc| m.delivered_vdd(0, sc, tm_rng::child_seed(3, sc as u64)))
            .collect();
        assert!(delivered.iter().all(|v| (0.80..=0.84).contains(v)));
        let spread = delivered.iter().cloned().fold(f64::NAN, f64::max)
            - delivered.iter().cloned().fold(f64::NAN, f64::min);
        assert!(spread > 0.005, "16 cores should spread across the band, got {spread}");
    }

    #[test]
    fn burst_model_clusters_errors() {
        // Compare the distribution of gaps between consecutive errors:
        // a bursty stream at the same *average* draw probability has
        // many more back-to-back errors than a uniform one.
        let run_pairs = |mut s: ErrorSampler, rate: f64| -> (u64, u64) {
            let mut prev = false;
            let mut pairs = 0u64;
            for _ in 0..200_000 {
                let e = s.sample_with_rate(rate);
                if e && prev {
                    pairs += 1;
                }
                prev = e;
            }
            (pairs, s.errors())
        };
        let burst = BurstErrors {
            enter: 0.01,
            exit: 0.05,
            burst_factor: 10.0,
        };
        let (bursty_pairs, bursty_errs) = run_pairs(burst.build_sampler(0, 0, 21), 0.02);
        let (uniform_pairs, uniform_errs) =
            run_pairs(UniformErrors.build_sampler(0, 0, 21), 0.02);
        // Normalise by error count so the comparison is about clustering,
        // not raw rate.
        let bursty_ratio = bursty_pairs as f64 / bursty_errs as f64;
        let uniform_ratio = uniform_pairs as f64 / uniform_errs.max(1) as f64;
        assert!(
            bursty_ratio > 3.0 * uniform_ratio,
            "burst model should cluster: {bursty_ratio:.4} vs uniform {uniform_ratio:.4}"
        );
    }

    #[test]
    fn sampler_state_round_trip_resumes_stream() {
        let vm = VoltageModel::tsmc45();
        for spec in [
            ErrorModelSpec::Uniform,
            ErrorModelSpec::Heterogeneous(HeterogeneousErrors::default()),
            ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.02 },
            ErrorModelSpec::Burst(BurstErrors::default()),
        ] {
            let model = spec.instantiate(0.84, &vm);
            let mut live = model.build_sampler(0, 3, 17);
            for _ in 0..500 {
                let _ = live.sample_with_rate(0.1);
            }
            let state = live.state();
            let mut resumed = model.build_sampler(0, 3, 17);
            resumed.restore_state(&state).expect("state fits same position");
            let rest_a: Vec<bool> = (0..500).map(|_| live.sample_with_rate(0.1)).collect();
            let rest_b: Vec<bool> = (0..500).map(|_| resumed.sample_with_rate(0.1)).collect();
            assert_eq!(rest_a, rest_b, "{} must resume exactly", spec.name());
            assert_eq!(live.drawn(), resumed.drawn());
            assert_eq!(live.errors(), resumed.errors());
        }
    }

    #[test]
    fn sampler_state_restore_rejects_mismatches() {
        let mut uniform = UniformErrors.build_sampler(0, 0, 1);
        let mut burst = BurstErrors::default().build_sampler(0, 0, 1);
        let mut bad = uniform.state();
        bad.pcg_inc = 2;
        assert!(uniform.restore_state(&bad).is_err(), "even increment rejected");
        assert!(
            uniform.restore_state(&burst.state()).is_err(),
            "burst flag on a uniform sampler rejected"
        );
        assert!(
            burst.restore_state(&uniform.state()).is_err(),
            "missing burst flag on a burst sampler rejected"
        );
    }

    #[test]
    fn spec_names_match_models() {
        let vm = VoltageModel::tsmc45();
        for spec in [
            ErrorModelSpec::Uniform,
            ErrorModelSpec::Heterogeneous(HeterogeneousErrors::default()),
            ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.01 },
            ErrorModelSpec::Burst(BurstErrors::default()),
        ] {
            assert_eq!(spec.name(), spec.instantiate(0.9, &vm).name());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn sampler_rejects_out_of_range_rate() {
        UniformErrors.build_sampler(0, 0, 0).sample_with_rate(1.5);
    }

    #[test]
    #[should_panic(expected = "corner fractions")]
    fn heterogeneous_validates_fractions() {
        HeterogeneousErrors {
            slow_fraction: 0.7,
            slow_factor: 1.0,
            fast_fraction: 0.7,
            fast_factor: 1.0,
        }
        .build_sampler(0, 0, 0);
    }
}
