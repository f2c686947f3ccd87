//! # temporal-memo
//!
//! A production-quality reproduction of **"Temporal Memoization for
//! Energy-Efficient Timing Error Recovery in GPGPU Architectures"**
//! (Rahimi, Benini, Gupta — DATE 2014), built as a Rust workspace.
//!
//! The paper couples a single-cycle, 2-entry FIFO lookup table to every
//! FPU of an AMD Evergreen GPGPU. The LUT *memorizes* the context of
//! recent error-free executions (input operands + computed result) and
//! reuses it — exactly or approximately, under a programmable matching
//! constraint — to skip redundant execution and to correct
//! timing-errant instructions with **zero cycle penalty** whenever the
//! LUT hits.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`memo`] | `tm-core` | the memoization module (FIFO LUT, matching constraints, Table-2 state machine, MMIO programming) |
//! | [`fpu`] | `tm-fpu` | the 27 Evergreen FP instructions, functional evaluation, pipelined unit models |
//! | [`timing`] | `tm-timing` | EDS sensors, error injection, ECU recovery policies, voltage overscaling |
//! | [`energy`] | `tm-energy` | 45 nm-style analytical energy model and ledger |
//! | [`sim`] | `tm-sim` | the Evergreen-style SIMT simulator (compute units, wavefronts, sub-wavefront time multiplexing) |
//! | [`image`] | `tm-image` | grayscale images, synthetic *face*/*book* inputs, PSNR, PGM I/O |
//! | [`kernels`] | `tm-kernels` | the seven AMD APP SDK workloads and their golden references |
//!
//! # Quickstart
//!
//! ```
//! use temporal_memo::prelude::*;
//!
//! // A kernel: y[i] = sqrt(x[i]) over a low-entropy input.
//! let sqrt = VProgram::new(1, vec![
//!     VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
//!     VInst::Alu { op: FpOp::Sqrt, dst: 0, srcs: vec![Src::Reg(0)] },
//!     VInst::Scatter { src: 0, data: 1, addr: Addr::Gid },
//! ])
//! .unwrap()
//! .with_name("sqrt");
//!
//! let n = 1024;
//! let input = (0..n).map(|i| (i % 8) as f32).collect(); // 8 distinct values
//! let mut bindings = Bindings::new(vec![input, vec![0.0; n]]);
//! let mut device = Device::new(DeviceConfig::default());
//! device.run_program(&sqrt, &mut bindings, n, 1);
//!
//! let report = device.report();
//! assert!(report.weighted_hit_rate() > 0.5, "low-entropy input memoizes");
//! assert_eq!(bindings.buffer(1)[4], 2.0);
//! ```
//!
//! See `examples/` for the Sobel image pipeline, the voltage-overscaling
//! study and the option-pricing workloads, and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tm_core as memo;
pub use tm_energy as energy;
pub use tm_fpu as fpu;
pub use tm_image as image;
pub use tm_kernels as kernels;
pub use tm_sim as sim;
pub use tm_timing as timing;

/// The most common imports, bundled.
///
/// Built on [`tm_sim::prelude`], so the validated
/// [`DeviceConfig::builder`](tm_sim::DeviceConfig::builder) API, the
/// [`ConfigError`](tm_sim::ConfigError) type, the
/// [`DeviceReport`](tm_sim::DeviceReport) and the pluggable
/// [`ErrorModelSpec`](tm_timing::ErrorModelSpec) all come along.
pub mod prelude {
    pub use tm_core::{MemoModule, MemoStats};
    pub use tm_energy::{EnergyLedger, EnergyModel};
    pub use tm_fpu::{FpOp, Operands};
    pub use tm_sim::prelude::*;
    pub use tm_timing::{ErrorInjector, VoltageModel};
}
