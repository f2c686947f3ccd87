//! The paper's workloads, reimplemented as vector programs for the
//! simulator.
//!
//! The evaluation (§4) divides applications into two classes, all selected
//! from AMD APP SDK v2.5:
//!
//! - **error-tolerant** image processing: the Sobel and Gaussian filters,
//!   judged by PSNR ≥ 30 dB against the exact output (goldens in
//!   [`tm_image`]);
//! - **error-intolerant** general-purpose kernels: [`haar`] (1-D wavelet),
//!   [`fwt`] (fast Walsh transform), [`black_scholes`] and [`binomial`]
//!   (European option pricing), and [`eigenvalue`] (eigenvalues of a
//!   symmetric tridiagonal matrix), judged by the SDK host program's
//!   pass/fail check.
//!
//! Every kernel is a [`tm_sim::program::VProgram`] built in [`ir`]; the
//! per-kernel modules hold their inputs and independent host *golden*
//! implementations, which the device runs reproduce bit for bit.
//! [`table1`] reproduces the paper's Table 1 (kernel ↔ input parameter ↔
//! matching threshold), and [`workload`] exposes a uniform runner the
//! benchmark harness drives.
//!
//! # Examples
//!
//! ```
//! use tm_kernels::{workload, KernelId, Scale};
//! use tm_sim::{Device, DeviceConfig};
//!
//! let mut wl = workload::build(KernelId::Haar, Scale::Test, 42);
//! let mut device = Device::new(DeviceConfig::default());
//! let out = wl.run(&mut device);
//! assert!(wl.acceptable(&out), "exact matching must pass the host check");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod black_scholes;
pub mod eigenvalue;
pub mod fwt;
pub mod haar;
pub mod ir;
pub mod signature;
mod table1;
pub mod workload;

pub use signature::{BufferBinding, BufferRole, KernelSignature, SignatureError};
pub use table1::{
    calibrated_threshold, paper_threshold, table1, KernelId, Table1Entry, ALL_KERNELS,
    GRAY_LEVELS_PER_THRESHOLD_UNIT,
};
pub use workload::{DeviceWorkload, Scale};
