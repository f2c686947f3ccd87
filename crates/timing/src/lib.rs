//! Timing-error machinery: detection, injection, recovery, and voltage
//! overscaling.
//!
//! The paper instruments every FPU pipeline with the error detection and
//! correction mechanisms of Bowman et al. \[6, 9\]: error-detection
//! sequential (EDS) circuit sensors in every stage propagate an error
//! signal toward the end of the pipeline, where the error control unit
//! (ECU) triggers recovery by flushing and replaying the errant
//! instruction. This crate models that machinery:
//!
//! - [`ErrorInjector`] — a seeded Bernoulli source of per-instruction
//!   timing violations (the simulator's stand-in for back-annotated
//!   post-layout delay analysis).
//! - [`EdsChain`] — per-stage sensors and the instruction-level error rate
//!   they induce.
//! - [`RecoveryPolicy`] / [`Ecu`] — the recovery cost model. The paper's
//!   baseline charges **12 cycles per error** (§5.1); the multiple-issue
//!   replay of \[9\] (up to 28 cycles for a 7-stage scalar core) and the
//!   decoupling-queue scheme of \[11\] are provided for the comparison and
//!   ablation experiments.
//! - [`VoltageModel`] — the voltage-overscaling regime of §5.3: dynamic
//!   energy scales as `V²`, and below a critical voltage the timing-error
//!   rate rises abruptly (the paper's 0.84 V knee on TSMC 45 nm at 1 GHz).
//!
//! # Examples
//!
//! ```
//! use tm_timing::{ErrorInjector, RecoveryPolicy, VoltageModel};
//!
//! let mut inj = ErrorInjector::new(0.02, 42);
//! let violations = (0..10_000).filter(|_| inj.sample()).count();
//! assert!((100..300).contains(&violations)); // ≈ 2 %
//!
//! let policy = RecoveryPolicy::default();
//! assert_eq!(policy.recovery_cycles(4), 12);
//!
//! let vdd = VoltageModel::tsmc45();
//! assert_eq!(vdd.error_rate(0.90), 0.0);
//! assert!(vdd.error_rate(0.80) > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ecu;
mod eds;
pub mod error_model;
mod injector;
mod voltage;

pub use ecu::{Ecu, RecoveryPolicy};
pub use eds::EdsChain;
pub use error_model::{
    BurstErrors, Corner, ErrorModel, ErrorModelError, ErrorModelSpec, ErrorRate, ErrorSampler,
    ErrorSamplerState, HeterogeneousErrors, UniformErrors, VoltageCoupledErrors,
};
pub use injector::ErrorInjector;
pub use voltage::{VoltageModel, MEMO_MODULE_SLACK, NOMINAL_VDD};
