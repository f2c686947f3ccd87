//! Golden digests of every workload launch.
//!
//! Each launch is hashed twice with FNV-1a-64: its `format!("{report:?}")`
//! and the bits of its output `f32`s. The matrix covers the seven
//! kernels at `Scale::Test` (seed 33) on a two-CU device, clean and under
//! a 2% fixed timing-error rate, on every execution backend. Reports are
//! backend-invariant by contract, so one digest pair per (kernel,
//! injection) covers both backends.
//!
//! The digests were recorded from the host-closure kernels that the
//! vector programs replaced; a change that alters any simulated bit of
//! any workload fails here.
//!
//! `GOLDENS` runs only the default configuration (exact matching, the
//! memoized architecture, a 2-entry FIFO, no gate, no observers). The
//! `VARIANT_GOLDENS` cover the memo paths it does not reach: Table-1
//! threshold matching, the baseline and spatial architectures, a deeper
//! LRU FIFO under a masking vector, and an adaptive gate that trips.
//! Each variant digest folds all seven kernels × {clean, injected}; the
//! digests were recorded on the sink-pipeline issue loop, before the
//! counts-first rewrite of the execute stage, and pass unchanged after
//! it.

use tm_core::{fraction_mask, GatePolicy, Replacement};
use tm_kernels::{calibrated_threshold, workload, KernelId, Scale, ALL_KERNELS};
use tm_sim::prelude::*;

const SEED: u64 = 33;

const BACKENDS: [ExecBackend; 2] = [ExecBackend::Sequential, ExecBackend::Parallel];

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

fn builder(backend: ExecBackend, inject: bool) -> DeviceConfigBuilder {
    let builder = DeviceConfig::builder()
        .with_compute_units(2)
        .with_seed(0x1D)
        .with_backend(backend);
    if inject {
        builder.with_error_mode(ErrorMode::FixedRate(0.02))
    } else {
        builder
    }
}

fn config(backend: ExecBackend, inject: bool) -> DeviceConfig {
    builder(backend, inject).build().unwrap()
}

/// Runs one launch of `id` on a fresh device built from `config`.
fn run(id: KernelId, config: DeviceConfig) -> (Vec<f32>, Device) {
    let mut wl = workload::build(id, Scale::Test, SEED);
    let mut device = Device::new(config);
    let out = wl.run(&mut device);
    (out, device)
}

fn digests(out: &[f32], report: &DeviceReport) -> (u64, u64) {
    let report_digest = fnv1a64(format!("{report:?}").into_bytes());
    let output_digest = fnv1a64(out.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    (report_digest, output_digest)
}

/// One launch's `(report digest, output digest, report)`.
fn launch(id: KernelId, backend: ExecBackend, inject: bool) -> (u64, u64, DeviceReport) {
    let (out, device) = run(id, config(backend, inject));
    let report = device.report();
    let (report_digest, output_digest) = digests(&out, &report);
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

#[test]
fn observers_change_no_simulated_bit() {
    // Trace, online locality and a metrics window all installed: every
    // launch must still reproduce the default-configuration goldens.
    for &(id, inject, report_digest, output_digest) in &GOLDENS {
        for backend in BACKENDS {
            let observed = builder(backend, inject)
                .with_trace_depth(256)
                .with_locality_tracking()
                .with_metrics_window(64)
                .build()
                .unwrap();
            let (out, device) = run(id, observed);
            assert_eq!(
                digests(&out, &device.report()),
                (report_digest, output_digest),
                "{id} on {backend:?} (inject={inject}): observers changed the result"
            );
            assert!(
                device.trace_events().next().is_some(),
                "{id}: trace recorded"
            );
        }
    }
}

/// A configuration the default-configuration goldens do not reach.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// Table-1 threshold matching (`calibrated_threshold`).
    Threshold,
    /// The baseline architecture: no memoization hardware.
    Baseline,
    /// Spatial (intra-slot, cross-lane) reuse.
    Spatial,
    /// A depth-4 LRU FIFO matching under an 8-bit fraction mask.
    DeepLruMask,
    /// An adaptive gate tight enough to trip at test scale.
    Gated,
}

/// A gate policy that trips on the low-locality test-scale streams.
const TRIPPING_GATE: GatePolicy = GatePolicy {
    window: 16,
    min_hit_rate: 0.5,
    gate_period: 32,
    consecutive_windows: 1,
};

/// `(variant, digest over 7 kernels × {clean, injected})`, recorded on
/// the sink-pipeline issue loop.
const VARIANT_GOLDENS: [(Variant, u64); 5] = [
    (Variant::Threshold, 0xa520_c613_1941_02fe),
    (Variant::Baseline, 0x0af4_326f_33f9_06e6),
    (Variant::Spatial, 0x4ff7_4976_fb2c_3835),
    (Variant::DeepLruMask, 0xba16_f798_bf70_ef7c),
    (Variant::Gated, 0x7153_e1eb_b868_4a51),
];

fn variant_config(
    variant: Variant,
    id: KernelId,
    backend: ExecBackend,
    inject: bool,
) -> DeviceConfig {
    let b = builder(backend, inject);
    match variant {
        Variant::Threshold => b.with_policy(MatchPolicy::threshold(calibrated_threshold(id))),
        Variant::Baseline => b.with_arch(ArchMode::Baseline),
        Variant::Spatial => b.with_arch(ArchMode::Spatial),
        Variant::DeepLruMask => b
            .with_fifo_depth(4)
            .with_replacement(Replacement::Lru)
            .with_policy(MatchPolicy::MaskBits(fraction_mask(8))),
        Variant::Gated => b.with_adaptive_gate(TRIPPING_GATE),
    }
    .build()
    .unwrap()
}

/// Total adaptive-gate trips across a device's lane units.
fn times_gated(device: &Device) -> u64 {
    device
        .compute_units()
        .iter()
        .flat_map(|cu| cu.stream_cores())
        .flat_map(|sc| sc.units())
        .filter_map(|(_, unit)| unit.gate().map(|g| g.times_gated()))
        .sum()
}

/// One variant's digest over every kernel, clean then injected, and the
/// adaptive-gate trips it saw.
fn variant_digest(variant: Variant, backend: ExecBackend) -> (u64, u64) {
    let mut bytes = Vec::new();
    let mut gated = 0;
    for inject in [false, true] {
        for id in ALL_KERNELS {
            let (out, device) = run(id, variant_config(variant, id, backend, inject));
            let (report, output) = digests(&out, &device.report());
            bytes.extend_from_slice(&report.to_le_bytes());
            bytes.extend_from_slice(&output.to_le_bytes());
            gated += times_gated(&device);
        }
    }
    (fnv1a64(bytes), gated)
}

#[test]
fn variant_configurations_match_their_goldens_on_every_backend() {
    for (variant, golden) in VARIANT_GOLDENS {
        for backend in BACKENDS {
            let (digest, gated) = variant_digest(variant, backend);
            assert_eq!(
                digest, golden,
                "{variant:?} on {backend:?}: digest {digest:#018x} drifted"
            );
            if matches!(variant, Variant::Gated) {
                assert!(gated > 0, "the gated variant must actually trip its gate");
            }
        }
    }
}
