//! An Evergreen-style GPGPU simulator with per-FPU temporal memoization.
//!
//! This crate stands in for the paper's modified Multi2Sim: a
//! cycle-approximate model of the AMD Radeon HD 5870's execute stage that
//! reproduces the one property the temporal-memoization technique lives on
//! — **the order in which operand sets arrive at each FPU**.
//!
//! # Architecture (paper §3)
//!
//! - A [`Device`] contains compute units; each [`ComputeUnit`] contains 16
//!   stream cores executing one wavefront of 64 work-items in SIMD
//!   lock-step.
//! - A wavefront is split into four *sub-wavefronts* at the execute stage:
//!   lane *l* executes on stream core *(l mod 16)* in time-multiplex slot
//!   *(l div 16)*. Consecutive operands on a given FPU therefore come from
//!   work-items 16 apart, every cycle — the "congested temporal value
//!   locality" of §4.1.
//! - Each stream core instantiates one pipelined FPU (and one
//!   [`tm_core::MemoModule`]) per opcode it executes, mirroring the paper's
//!   private FIFO per individual FPU.
//!
//! # Programming model
//!
//! A kernel is a [`program::VProgram`]: a vector-instruction list over a
//! register file, with gathers and scatters against bound buffers. Every
//! ALU instruction issues one Evergreen vector instruction over all
//! active lanes of a wavefront, routing each lane through its stream
//! core's FPU + memoization module and charging cycles and energy per the
//! Table-2 action. [`Device::run_program`] lowers the program into the
//! bytecode VM ([`CompiledProgram`]) and runs it on the configured
//! backend, optionally *interleaving* several wavefronts per compute unit
//! the way real hardware does.
//!
//! Three architecture variants are selectable via [`ArchMode`]: the
//! baseline resilient design, the paper's temporal memoization, and the
//! authors' earlier cross-lane *spatial* memoization. Set
//! `DeviceConfig::trace_depth` to record per-instruction [`TraceEvent`]s
//! and analyse them with [`locality`] (operand entropy, LRU stack
//! distances).
//!
//! # Examples
//!
//! ```
//! use tm_fpu::FpOp;
//! use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
//! use tm_sim::{Device, DeviceConfig};
//!
//! // y[i] = sqrt(9.0) for every work-item — maximal value locality.
//! let program = VProgram::new(1, vec![
//!     VInst::Alu { op: FpOp::Sqrt, dst: 0, srcs: vec![Src::Imm(9.0)] },
//!     VInst::Scatter { src: 0, data: 0, addr: Addr::Gid },
//! ])
//! .unwrap()
//! .with_name("sqrt_all");
//!
//! let mut device = Device::new(DeviceConfig::default());
//! let mut bindings = Bindings::new(vec![vec![0.0; 256]]);
//! device.run_program(&program, &mut bindings, 256, 1);
//! assert!(bindings.buffer(0).iter().all(|&v| v == 3.0));
//! let report = device.report();
//! // After one cold miss per stream-core FIFO, every identical operand hits.
//! assert!(report.weighted_hit_rate() > 0.85);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
mod compute_unit;
mod config;
mod device;
pub mod engine;
pub mod locality;
pub mod obs;
pub mod pool;
pub mod program;
mod report;
pub mod sink;
mod snapshot;
mod stream_core;
mod trace;

pub use compiled::CompiledProgram;
pub use compute_unit::{ComputeUnit, OpTally};
pub use config::{
    ArchMode, ConfigError, DeviceConfig, DeviceConfigBuilder, ErrorMode, ExecBackend,
    MAX_FIFO_DEPTH,
};
pub use device::Device;
pub use engine::{ExecEngine, ParallelEngine, Schedule, SequentialEngine};
pub use obs::DeviceObs;
pub use pool::{DevicePool, PoolStats};
pub use report::{DeviceReport, OpReport};
pub use sink::{LocalitySink, MetricsSink, METRICS_CHANNELS};
pub use snapshot::{DeviceSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use stream_core::{LaneUnit, StreamCore};
pub use trace::{TraceBuffer, TraceEvent};

pub mod prelude {
    //! One-stop imports for kernels, benchmarks and examples.
    //!
    //! Re-exports the dozen types almost every driver needs — the
    //! device and its validated configuration, the execution backends,
    //! the program form, the report, and the matching/error knobs — so
    //! call sites write
    //! `use tm_sim::prelude::*;` instead of four deep-path `use` lines.
    //!
    //! # Examples
    //!
    //! ```
    //! use tm_sim::prelude::*;
    //!
    //! let config = DeviceConfig::builder()
    //!     .with_policy(MatchPolicy::Exact)
    //!     .with_backend(ExecBackend::Parallel)
    //!     .build()
    //!     .unwrap();
    //! let device = Device::new(config);
    //! assert_eq!(device.report().wavefronts, 0);
    //! ```
    pub use crate::config::{
        ArchMode, ConfigError, DeviceConfig, DeviceConfigBuilder, ErrorMode, ExecBackend,
    };
    pub use crate::device::Device;
    pub use crate::program::{Addr, Bindings, Src, VInst, VProgram};
    pub use crate::report::{DeviceReport, OpReport};
    pub use tm_core::MatchPolicy;
    pub use tm_timing::{ErrorModelSpec, RecoveryPolicy};
}
