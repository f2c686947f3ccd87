//! Backend determinism suite: the parallel engine must reproduce the
//! sequential engine **bit for bit** — outputs *and* the full
//! [`tm_sim::DeviceReport`] (floating-point energy sums included) — for
//! every workload, CU count and error regime, because the wavefront→CU
//! schedule and each CU's wavefront order are engine-invariant.

use tm_kernels::ir::{fwt_stage_program, sobel_program};
use tm_kernels::{workload, Scale, ALL_KERNELS};
use tm_sim::{Device, DeviceConfig, ErrorMode, ExecBackend};

/// The backend sweep: the sequential reference, then CU-level
/// parallelism.
fn backend_configs(cfg_base: &DeviceConfig) -> Vec<DeviceConfig> {
    [ExecBackend::Sequential, ExecBackend::Parallel]
        .into_iter()
        .map(|b| cfg_base.clone().rebuild().with_backend(b).build().unwrap())
        .collect()
}

/// Runs one workload on all backends over `cus` compute units and
/// asserts the outputs and reports are identical.
fn assert_backends_agree(cfg_base: DeviceConfig, cus: usize) {
    for id in ALL_KERNELS {
        let mut outputs = Vec::new();
        let mut reports = Vec::new();
        for config in backend_configs(&cfg_base) {
            let mut wl = workload::build(id, Scale::Test, 77);
            let mut device = Device::new(config.rebuild().with_compute_units(cus).build().unwrap());
            outputs.push(wl.run(&mut device));
            reports.push(device.report());
        }
        let out_bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for i in 1..outputs.len() {
            assert_eq!(
                out_bits(&outputs[0]),
                out_bits(&outputs[i]),
                "{id} output must be bit-identical on {cus} CUs (backend {i})"
            );
            assert_eq!(
                reports[0], reports[i],
                "{id} DeviceReport must be bit-identical on {cus} CUs (backend {i})"
            );
        }
    }
}

#[test]
fn backends_agree_on_1_cu() {
    assert_backends_agree(DeviceConfig::default(), 1);
}

#[test]
fn backends_agree_on_2_cus() {
    assert_backends_agree(DeviceConfig::default(), 2);
}

#[test]
fn backends_agree_on_4_cus() {
    assert_backends_agree(DeviceConfig::default(), 4);
}

#[test]
fn backends_agree_on_8_cus() {
    assert_backends_agree(DeviceConfig::default(), 8);
}

#[test]
fn backends_agree_under_error_injection() {
    // A nonzero error rate exercises the per-SC injector RNG streams and
    // the ECU recovery accounting; the streams are per stream core, so a
    // lane's EDS verdict is identical whichever thread runs it.
    let cfg = DeviceConfig::builder().with_error_mode(ErrorMode::FixedRate(0.05)).build().unwrap();
    assert_backends_agree(cfg, 4);
}

#[test]
fn backends_agree_with_locality_tracking() {
    // The online locality sink rides the same event pipeline; its state
    // is per-CU, so each worker feeds it the same lane-ordered event
    // stream a sequential walk would.
    let cfg = DeviceConfig::builder().with_locality_tracking().build().unwrap();
    assert_backends_agree(cfg, 2);
}

#[test]
fn parallel_run_program_matches_sequential() {
    // The IR path: the Sobel program is hazard-free (distinct input and
    // output buffers), so the parallel engine journals its scatters and
    // replays them in deterministic order.
    let image = tm_image::synth::face(48, 48, 9);
    let mut results = Vec::new();
    for config in backend_configs(&DeviceConfig::default()) {
        let mut ip = sobel_program(&image);
        let mut device = Device::new(config.rebuild().with_compute_units(4).build().unwrap());
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 4);
        results.push((ip.bindings.buffer(ip.output).to_vec(), device.report()));
    }
    for i in 1..results.len() {
        assert_eq!(results[0].0, results[i].0, "program outputs must match");
        assert_eq!(results[0].1, results[i].1, "program reports must match");
    }
}

#[test]
fn fwt_stage_program_stays_parallel_and_matches_sequential() {
    // The FWT butterfly stage is an *in-place* program (gathers and
    // scatters the same buffer), but its per-lane index pairs are
    // disjoint, so the dependence-aware splitter proves the hazard
    // lane-private and the parallel engine need not fall back. A full
    // multi-stage transform (data fed back between stages) must still be
    // bit-identical across both backends, with error injection on.
    let n = 512usize;
    let seed_data: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 41) as f32 - 20.0).collect();
    let base = DeviceConfig::builder()
        .with_compute_units(2)
        .with_error_mode(ErrorMode::FixedRate(0.04)).build().unwrap();
    let mut results = Vec::new();
    for config in backend_configs(&base) {
        let mut device = Device::new(config);
        let mut data = seed_data.clone();
        let mut span = 1usize;
        while span < n {
            let mut ip = fwt_stage_program(&data, span);
            device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 4);
            data = ip.bindings.buffer(ip.output).to_vec();
            span *= 2;
        }
        results.push((data, device.report()));
    }
    for i in 1..results.len() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&results[0].0),
            bits(&results[i].0),
            "FWT outputs must be bit-identical (backend {i})"
        );
        assert_eq!(
            results[0].1, results[i].1,
            "FWT reports must be bit-identical (backend {i})"
        );
    }
    // Guard against the degenerate case where every backend silently ran
    // sequentially *and* nothing happened.
    assert!(results[0].1.total_instructions() > 0);
    assert!(results[0].1.errors_injected > 0);
}

#[test]
fn parallel_backend_reports_nonzero_work() {
    // Guard against the degenerate "both empty" equality: the parallel
    // runs above must actually have executed instructions and injected
    // errors where configured.
    let mut wl = workload::build(tm_kernels::KernelId::Sobel, Scale::Test, 77);
    let config = DeviceConfig::builder()
        .with_compute_units(4)
        .with_backend(ExecBackend::Parallel)
        .with_error_mode(ErrorMode::FixedRate(0.05))
        .build()
        .unwrap();
    let mut device = Device::new(config);
    let _ = wl.run(&mut device);
    let report = device.report();
    assert!(report.total_instructions() > 0);
    assert!(report.errors_injected > 0);
    assert!(report.total_energy_pj() > 0.0);
}
