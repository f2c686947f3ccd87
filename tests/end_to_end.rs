//! Cross-crate integration tests through the `temporal_memo` facade:
//! a custom vector program, architectural transparency, error masking,
//! and reproducibility.

use temporal_memo::prelude::*;

/// `y = a*x + b` elementwise — a SAXPY-style program: `x` in buffer 0,
/// `y` out through buffer 1.
fn saxpy(a: f32, b: f32) -> VProgram {
    VProgram::new(
        2,
        vec![
            VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
            VInst::Alu { op: FpOp::MulAdd, dst: 1, srcs: vec![Src::Imm(a), Src::Reg(0), Src::Imm(b)] },
            VInst::Scatter { src: 1, data: 1, addr: Addr::Gid },
        ],
    )
    .unwrap()
    .with_name("saxpy")
}

fn saxpy_input(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 13) % 32) as f32 * 0.25).collect()
}

fn run_saxpy(config: DeviceConfig, n: usize) -> (Vec<f32>, tm_sim::DeviceReport) {
    let mut bindings = Bindings::new(vec![saxpy_input(n), vec![0.0; n]]);
    let mut device = Device::new(config);
    device.run_program(&saxpy(2.0, 1.0), &mut bindings, n, 1);
    (bindings.buffer(1).to_vec(), device.report())
}

#[test]
fn memoized_architecture_is_bit_transparent_under_exact_matching() {
    let n = 2000; // includes a partial wavefront
    let (base, _) = run_saxpy(DeviceConfig::builder().with_arch(ArchMode::Baseline).build().unwrap(), n);
    let (memo, report) = run_saxpy(DeviceConfig::default(), n);
    assert_eq!(base, memo);
    assert!(report.weighted_hit_rate() > 0.0);
    // And both match the host computation.
    for (i, x) in saxpy_input(n).iter().enumerate() {
        assert_eq!(memo[i], 2.0f32.mul_add(*x, 1.0));
    }
}

#[test]
fn outputs_stay_correct_under_heavy_timing_errors() {
    let n = 1024;
    let errorful = DeviceConfig::builder()
        .with_error_mode(ErrorMode::FixedRate(0.25))
        .with_seed(99).build().unwrap();
    let (out, report) = run_saxpy(errorful, n);
    assert!(report.errors_injected > 100);
    for (i, x) in saxpy_input(n).iter().enumerate() {
        assert_eq!(out[i], 2.0f32.mul_add(*x, 1.0), "lane {i} corrupted");
    }
    // Every injected error was either masked by a hit or recovered.
    let stats = report.total_stats();
    assert_eq!(stats.masked_errors + stats.recoveries, report.errors_injected);
    assert!(stats.masked_errors > 0, "some errors should hit the LUT");
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let config = DeviceConfig::builder()
        .with_error_mode(ErrorMode::FixedRate(0.05))
        .with_seed(7).build().unwrap();
    let (out_a, rep_a) = run_saxpy(config.clone(), 512);
    let (out_b, rep_b) = run_saxpy(config, 512);
    assert_eq!(out_a, out_b);
    assert_eq!(rep_a, rep_b);
}

#[test]
fn memoization_saves_energy_on_low_entropy_input() {
    let n = 8192;
    let (_, base) = run_saxpy(DeviceConfig::builder().with_arch(ArchMode::Baseline).build().unwrap(), n);
    let (_, memo) = run_saxpy(DeviceConfig::default(), n);
    assert!(
        memo.total_energy_pj() < base.total_energy_pj(),
        "memo {} !< base {}",
        memo.total_energy_pj(),
        base.total_energy_pj()
    );
}

#[test]
fn power_gated_module_behaves_like_baseline_with_lut_idle() {
    // Baseline arch == memo modules power-gated: same output, same
    // recovery behaviour, no lookups.
    let n = 512;
    let config = DeviceConfig::builder()
        .with_arch(ArchMode::Baseline)
        .with_error_mode(ErrorMode::FixedRate(0.1))
        .with_seed(3).build().unwrap();
    let (out, report) = run_saxpy(config, n);
    assert_eq!(report.total_stats().lookups, 0);
    assert_eq!(report.recoveries, report.errors_injected);
    for (i, x) in saxpy_input(n).iter().enumerate() {
        assert_eq!(out[i], 2.0f32.mul_add(*x, 1.0));
    }
}

#[test]
fn divergent_control_flow_composes_with_memoization() {
    // Clamps negative inputs to zero using a mask, then takes a sqrt:
    // masked lanes keep their zero-initialized register.
    let clamp_sqrt = VProgram::new(
        3,
        vec![
            VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
            VInst::Gather { dst: 1, data: 1, addr: Addr::Gid },
            VInst::PushMask { mask: 1 },
            VInst::Alu { op: FpOp::Sqrt, dst: 2, srcs: vec![Src::Reg(0)] },
            VInst::PopMask,
            VInst::Scatter { src: 2, data: 2, addr: Addr::Gid },
        ],
    )
    .unwrap();
    let n = 256;
    let x: Vec<f32> = (0..n).map(|i| i as f32 - 128.0).collect();
    let nonneg = x.iter().map(|&v| f32::from(u8::from(v >= 0.0))).collect();
    let mut bindings = Bindings::new(vec![x, nonneg, vec![0.0; n]]);
    let mut device = Device::new(DeviceConfig::default());
    device.run_program(&clamp_sqrt, &mut bindings, n, 1);
    for i in 0..n {
        let x = i as f32 - 128.0;
        let expect = if x >= 0.0 { x.sqrt() } else { 0.0 };
        assert_eq!(bindings.buffer(2)[i], expect, "lane {i}");
    }
}
