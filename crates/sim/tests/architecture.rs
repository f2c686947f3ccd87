//! Architecture-level integration tests: the lane → stream-core mapping,
//! sub-wavefront time multiplexing, cross-kernel accumulation, and the
//! independence properties the paper's recovery story relies on.

use tm_core::MatchPolicy;
use tm_fpu::FpOp;
use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
use tm_sim::{ArchMode, Device, DeviceConfig, ErrorMode};

/// Runs the unary `op` over `n` work-items whose per-lane value is
/// `value(gid)`.
fn run_lane_valued(device: &mut Device, value: impl Fn(usize) -> f32, op: FpOp, n: usize) {
    let program = VProgram::new(
        2,
        vec![
            VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
            VInst::Alu { op, dst: 1, srcs: vec![Src::Reg(0)] },
        ],
    )
    .unwrap()
    .with_name("lane_valued");
    let mut bindings = Bindings::new(vec![(0..n).map(value).collect()]);
    device.run_program(&program, &mut bindings, n, 1);
}

fn one_cu() -> DeviceConfig {
    DeviceConfig::builder().with_compute_units(1).build().unwrap()
}

#[test]
fn values_repeating_with_stride_16_hit_maximally() {
    // Lane gid and gid+16 land on the same stream core in consecutive
    // sub-wavefront slots; equal values there are exactly what a 2-entry
    // FIFO catches.
    let mut device = Device::new(one_cu());
    // Constant per SC, forever.
    run_lane_valued(&mut device, |gid| (gid % 16) as f32 + 1.0, FpOp::Sqrt, 4096);
    let rate = device.report().weighted_hit_rate();
    // One cold miss per SC FIFO, everything else hits.
    assert!(rate > 0.99, "stride-16 locality should saturate, got {rate}");
}

#[test]
fn values_distinct_along_each_stream_core_miss() {
    // Values constant within a slot but changing every slot defeat the
    // temporal FIFO: each SC sees a new operand each cycle.
    let mut device = Device::new(one_cu());
    // A new value per slot.
    run_lane_valued(&mut device, |gid| (gid / 16) as f32 * 1.0001 + 1.0, FpOp::Sqrt, 4096);
    let rate = device.report().weighted_hit_rate();
    assert!(rate < 0.05, "per-slot-unique values should miss, got {rate}");
}

#[test]
fn slot_constant_values_favor_spatial_reuse() {
    // The mirror image: within a slot all 16 lanes share one value —
    // invisible to per-SC FIFOs, ideal for cross-lane (spatial) reuse.
    let make = |arch| {
        let mut device = Device::new(one_cu().rebuild().with_arch(arch).build().unwrap());
        run_lane_valued(&mut device, |gid| (gid / 16) as f32 * 1.0001 + 1.0, FpOp::Sqrt, 4096);
        device.report()
    };
    let temporal = make(ArchMode::Memoized);
    let spatial = make(ArchMode::Spatial);
    assert!(temporal.weighted_hit_rate() < 0.05);
    assert!(
        spatial.spatial_hit_rate() > 0.9,
        "slot-constant values should reuse spatially, got {}",
        spatial.spatial_hit_rate()
    );
}

#[test]
fn stats_accumulate_across_kernel_launches() {
    // One device, two launches: the FIFOs persist, so the second launch
    // of the same values is all hits.
    let mut device = Device::new(one_cu());
    let value = |gid| (gid % 8) as f32;
    run_lane_valued(&mut device, value, FpOp::Recip, 512);
    let after_first = device.report().total_stats();
    run_lane_valued(&mut device, value, FpOp::Recip, 512);
    let after_second = device.report().total_stats();
    assert_eq!(after_second.lookups, 2 * after_first.lookups);
    assert!(after_second.hits > after_first.hits);
}

#[test]
fn per_op_fifos_are_independent() {
    // Interleaving two op types must not evict each other's contexts.
    let two_ops = VProgram::new(
        1,
        vec![
            VInst::Loop { count: 8 },
            VInst::Alu { op: FpOp::Sqrt, dst: 0, srcs: vec![Src::Imm(4.0)] },
            VInst::Alu { op: FpOp::Recip, dst: 0, srcs: vec![Src::Imm(4.0)] },
            VInst::EndLoop,
        ],
    )
    .unwrap();
    let mut device = Device::new(one_cu());
    device.run_program(&two_ops, &mut Bindings::new(Vec::new()), 64, 1);
    let report = device.report();
    // After the cold miss, every access of both types hits: the SQRT
    // stream never disturbs the RECIP FIFO and vice versa.
    for op in [FpOp::Sqrt, FpOp::Recip] {
        let r = report.op(op).expect("op activated");
        let expected_misses = 16; // one per SC FIFO
        assert_eq!(r.stats.misses, expected_misses, "{op}");
    }
}

#[test]
fn errors_do_not_leak_between_architectures_with_same_seed() {
    // The injector stream is a function of (seed, cu index) alone, so the
    // two architectures face identical error sequences — the comparisons
    // in the paper (and our figs) are paired, not just sampled.
    let run = |arch| {
        let config = one_cu()
            .rebuild()
            .with_arch(arch)
            .with_error_mode(ErrorMode::FixedRate(0.1))
            .with_seed(77)
            .build()
            .unwrap();
        let mut device = Device::new(config);
        run_lane_valued(&mut device, |gid| (gid % 4) as f32, FpOp::Sqrt, 2048);
        device.report().errors_injected
    };
    assert_eq!(run(ArchMode::Memoized), run(ArchMode::Baseline));
}

#[test]
fn approximate_policy_device_wide() {
    let config = one_cu()
        .rebuild()
        .with_policy(MatchPolicy::threshold(0.25))
        .build()
        .unwrap();
    let mut device = Device::new(config);
    // Values jitter within the threshold around a per-SC base.
    let value = |gid: usize| (gid % 16) as f32 + 0.1 * ((gid / 16 % 3) as f32);
    run_lane_valued(&mut device, value, FpOp::Sqrt, 4096);
    let rate = device.report().weighted_hit_rate();
    assert!(rate > 0.95, "jitter within threshold should hit, got {rate}");
}

#[test]
fn deep_recip_pipeline_and_short_add_coexist() {
    let mixed = VProgram::new(
        2,
        vec![
            VInst::LaneId { dst: 0 },
            VInst::Alu { op: FpOp::Recip, dst: 1, srcs: vec![Src::Reg(0)] },
            VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Reg(0)] },
        ],
    )
    .unwrap();
    let mut device = Device::new(one_cu());
    device.run_program(&mixed, &mut Bindings::new(Vec::new()), 128, 1);
    let report = device.report();
    assert_eq!(report.op(FpOp::Recip).unwrap().lane_instructions, 128);
    assert_eq!(report.op(FpOp::Add).unwrap().lane_instructions, 128);
    assert!(report.cycles_max > 0);
}
