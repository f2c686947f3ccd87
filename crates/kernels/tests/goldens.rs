//! Golden digests of every workload launch.
//!
//! Each launch is hashed twice with FNV-1a-64: its `format!("{report:?}")`
//! and the bits of its output `f32`s. The matrix covers the seven
//! kernels at `Scale::Test` (seed 33) on a two-CU device, clean and under
//! a 2% fixed timing-error rate, on every execution backend. Reports are
//! backend-invariant by contract, so one digest pair per (kernel,
//! injection) covers all three backends.
//!
//! The digests were recorded from the host-closure kernels that the
//! vector programs replaced; a change that alters any simulated bit of
//! any workload fails here.

use tm_kernels::{workload, KernelId, Scale, ALL_KERNELS};
use tm_sim::prelude::*;

const SEED: u64 = 33;

const BACKENDS: [ExecBackend; 3] = [
    ExecBackend::Sequential,
    ExecBackend::Parallel,
    ExecBackend::IntraCu,
];

/// `(kernel, injected, report digest, output digest)`.
const GOLDENS: [(KernelId, bool, u64, u64); 14] = [
    (
        KernelId::Sobel,
        false,
        0xc74a_056e_2de2_a4d4,
        0x1e4f_68b2_3240_ed23,
    ),
    (
        KernelId::Gaussian,
        false,
        0x83ac_6517_6f27_f35e,
        0x244a_8ef6_9e8a_b7dc,
    ),
    (
        KernelId::Haar,
        false,
        0x654c_0364_9451_6352,
        0x9438_9bf3_8e1d_b9c7,
    ),
    (
        KernelId::BinomialOption,
        false,
        0xb42b_4dac_41fd_122f,
        0xc335_7218_fa6c_48ad,
    ),
    (
        KernelId::BlackScholes,
        false,
        0xd93a_a74e_1bf8_99b7,
        0xda06_0579_eeb6_85d7,
    ),
    (
        KernelId::Fwt,
        false,
        0x3cff_51fb_47a6_2ffa,
        0xe70e_7f4d_8f1a_a05a,
    ),
    (
        KernelId::EigenValue,
        false,
        0x33a8_f1ac_7844_fb3e,
        0x704f_02d7_5eaa_ebf0,
    ),
    (
        KernelId::Sobel,
        true,
        0x0ddf_e877_d54e_d635,
        0x1e4f_68b2_3240_ed23,
    ),
    (
        KernelId::Gaussian,
        true,
        0x2bef_97ea_e033_7ce5,
        0x244a_8ef6_9e8a_b7dc,
    ),
    (
        KernelId::Haar,
        true,
        0x4b4a_e33c_b47e_3ba4,
        0x9438_9bf3_8e1d_b9c7,
    ),
    (
        KernelId::BinomialOption,
        true,
        0x6c17_9239_9cd0_f8c6,
        0xc335_7218_fa6c_48ad,
    ),
    (
        KernelId::BlackScholes,
        true,
        0x406a_f912_28bc_c13d,
        0xda06_0579_eeb6_85d7,
    ),
    (
        KernelId::Fwt,
        true,
        0x6baf_ad95_26c2_f7d6,
        0xe70e_7f4d_8f1a_a05a,
    ),
    (
        KernelId::EigenValue,
        true,
        0x4126_7167_cf13_0f05,
        0x704f_02d7_5eaa_ebf0,
    ),
];

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config(backend: ExecBackend, inject: bool) -> DeviceConfig {
    let mut builder = DeviceConfig::builder()
        .with_compute_units(2)
        .with_seed(0x1D)
        .with_backend(backend);
    if backend == ExecBackend::IntraCu {
        builder = builder.with_intra_cu_shards(4);
    }
    if inject {
        builder = builder.with_error_mode(ErrorMode::FixedRate(0.02));
    }
    builder.build().unwrap()
}

/// One launch's `(report digest, output digest, report)`.
fn launch(id: KernelId, backend: ExecBackend, inject: bool) -> (u64, u64, DeviceReport) {
    let mut wl = workload::build(id, Scale::Test, SEED);
    let mut device = Device::new(config(backend, inject));
    let out = wl.run(&mut device);
    let report = device.report();
    let report_digest = fnv1a64(format!("{report:?}").into_bytes());
    let output_digest = fnv1a64(out.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    (report_digest, output_digest, report)
}

fn assert_goldens(inject: bool) {
    assert_eq!(GOLDENS.len(), 2 * ALL_KERNELS.len());
    for &(id, injected, report_digest, output_digest) in &GOLDENS {
        if injected != inject {
            continue;
        }
        for backend in BACKENDS {
            let (report, output, _) = launch(id, backend, inject);
            assert_eq!(
                (report, output),
                (report_digest, output_digest),
                "{id} on {backend:?} (inject={inject}): digests {report:#018x}, {output:#018x} drifted"
            );
        }
    }
}

#[test]
fn clean_launches_match_the_goldens_on_every_backend() {
    assert_goldens(false);
}

#[test]
fn injected_launches_match_the_goldens_on_every_backend() {
    assert_goldens(true);
}

#[test]
fn injection_suite_actually_injects() {
    // Guards the injected suite against silently testing the clean path.
    let (_, _, report) = launch(KernelId::Sobel, ExecBackend::Sequential, true);
    assert!(
        report.errors_injected > 0,
        "2% rate must inject at Test scale"
    );
}
