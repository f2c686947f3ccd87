//! Error-model determinism suite: every [`ErrorModelSpec`] must produce
//! bit-identical outputs and [`DeviceReport`]s across both execution
//! backends, because each model's per-stream-core sampler is a pure
//! function of (CU seed, stream core index, issue count in that SC) —
//! never of which host thread runs the lane.

use tm_kernels::{workload, KernelId, Scale};
use tm_sim::prelude::*;
use tm_timing::{BurstErrors, HeterogeneousErrors};

/// All pluggable error models, with spreads/rates strong enough that a
/// divergent sampler stream would flip at least one verdict.
fn model_specs() -> Vec<ErrorModelSpec> {
    vec![
        ErrorModelSpec::Uniform,
        ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners()),
        ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.05 },
        ErrorModelSpec::Burst(BurstErrors::droop()),
    ]
}

fn run_one(spec: &ErrorModelSpec, backend: ExecBackend) -> (Vec<u32>, DeviceReport) {
    let config = DeviceConfig::builder()
        .with_compute_units(2)
        .with_error_mode(ErrorMode::FixedRate(0.02))
        .with_error_model(spec.clone())
        // Overscaled supply so the voltage-coupled model (whose rate is
        // a function of delivered Vdd, not of the configured base rate)
        // sits well past the error onset and genuinely injects.
        .with_vdd(0.80)
        .with_seed(0x5eed)
        .with_backend(backend)
        .build()
        .unwrap();
    let mut wl = workload::build(KernelId::Sobel, Scale::Test, 77);
    let mut device = Device::new(config);
    let out = wl.run(&mut device);
    (out.iter().map(|x| x.to_bits()).collect(), device.report())
}

#[test]
fn every_model_is_backend_invariant() {
    for spec in model_specs() {
        let (ref_out, ref_report) = run_one(&spec, ExecBackend::Sequential);
        assert!(
            ref_report.errors_injected > 0,
            "{} must actually inject at 2% rate",
            spec.name()
        );
        let (out, report) = run_one(&spec, ExecBackend::Parallel);
        assert_eq!(
            ref_out, out,
            "{} output must be bit-identical on the parallel backend",
            spec.name()
        );
        assert_eq!(
            ref_report, report,
            "{} DeviceReport must be bit-identical on the parallel backend",
            spec.name()
        );
    }
}

#[test]
fn models_produce_distinct_error_streams() {
    // The models must be genuinely different distributions, not
    // relabelings: at the same seed and base rate they disagree on the
    // injected-error count.
    let counts: Vec<u64> = model_specs()
        .iter()
        .map(|spec| run_one(spec, ExecBackend::Sequential).1.errors_injected)
        .collect();
    let mut unique = counts.clone();
    unique.sort_unstable();
    unique.dedup();
    assert!(
        unique.len() >= 3,
        "model error streams should differ: {counts:?}"
    );
}

#[test]
fn same_seed_reproduces_and_seeds_decorrelate() {
    let spec = ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners());
    let (out_a, rep_a) = run_one(&spec, ExecBackend::Sequential);
    let (out_b, rep_b) = run_one(&spec, ExecBackend::Sequential);
    assert_eq!(out_a, out_b);
    assert_eq!(rep_a, rep_b);

    let other = DeviceConfig::builder()
        .with_compute_units(2)
        .with_error_mode(ErrorMode::FixedRate(0.02))
        .with_error_model(spec)
        .with_seed(0x5eee)
        .build()
        .unwrap();
    let mut wl = workload::build(KernelId::Sobel, Scale::Test, 77);
    let mut device = Device::new(other);
    wl.run(&mut device);
    assert_ne!(
        rep_a.errors_injected,
        device.report().errors_injected,
        "a different seed must draw a different error stream"
    );
}
