//! Integration tests of the vector-program interpreter and wavefront
//! interleaving.

use tm_fpu::FpOp;
use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
use tm_sim::{Device, DeviceConfig};

/// out[i] = sqrt(in[i]) * 2.0 + in[i]
fn sample_program() -> VProgram {
    VProgram::new(
        3,
        vec![
            VInst::Gather {
                dst: 0,
                data: 0,
                addr: Addr::Indexed(1),
            },
            VInst::Alu {
                op: FpOp::Sqrt,
                dst: 2,
                srcs: vec![Src::Reg(0)],
            },
            VInst::Alu {
                op: FpOp::MulAdd,
                dst: 2,
                srcs: vec![Src::Reg(2), Src::Imm(2.0), Src::Reg(0)],
            },
            VInst::Scatter {
                src: 2,
                data: 2,
                addr: Addr::Indexed(1),
            },
        ],
    )
    .expect("valid program")
}

fn sample_bindings(n: usize, values: impl Fn(usize) -> f32) -> Bindings {
    Bindings::new(vec![
        (0..n).map(values).collect(),
        (0..n).map(|i| i as f32).collect(),
        vec![0.0; n],
    ])
}

fn expected(v: f32) -> f32 {
    v.sqrt().mul_add(2.0, v)
}

#[test]
fn program_computes_correctly_at_any_interleaving() {
    let n = 512;
    for in_flight in [1usize, 2, 4, 8] {
        let mut bindings = sample_bindings(n, |i| (i % 9) as f32);
        let mut device = Device::new(DeviceConfig::default());
        device.run_program(&sample_program(), &mut bindings, n, in_flight);
        for i in 0..n {
            let v = (i % 9) as f32;
            assert_eq!(
                bindings.buffer(2)[i],
                expected(v),
                "lane {i} at in_flight {in_flight}"
            );
        }
    }
}

#[test]
fn interleaving_degrades_temporal_locality() {
    // A program with two SQRT instructions over the same operands. The
    // values are constant per stream core *within* a wavefront but
    // distinct *across* wavefronts, so the second SQRT's hits depend on
    // the FIFO surviving from the first — exactly what interleaving
    // destroys.
    let two_sqrts = VProgram::new(
        3,
        vec![
            VInst::Gather {
                dst: 0,
                data: 0,
                addr: Addr::Indexed(1),
            },
            VInst::Alu {
                op: FpOp::Sqrt,
                dst: 2,
                srcs: vec![Src::Reg(0)],
            },
            VInst::Alu {
                op: FpOp::Sqrt,
                dst: 2,
                srcs: vec![Src::Reg(0)],
            },
            VInst::Scatter {
                src: 2,
                data: 2,
                addr: Addr::Indexed(1),
            },
        ],
    )
    .unwrap();
    let n = 64 * 32; // 32 wavefronts on one CU
    let run = |in_flight: usize| {
        let mut bindings = sample_bindings(n, |i| ((i / 64) * 100 + i % 16) as f32);
        let mut device = Device::new(DeviceConfig::builder().with_compute_units(1).build().unwrap());
        device.run_program(&two_sqrts, &mut bindings, n, in_flight);
        device.report().weighted_hit_rate()
    };
    let serial = run(1);
    let interleaved = run(8);
    assert!(
        serial > 0.8,
        "serial execution should reuse across the two SQRTs, got {serial}"
    );
    assert!(
        interleaved < serial - 0.05,
        "interleaving should cost hit rate: serial {serial} vs interleaved {interleaved}"
    );
}

#[test]
fn lane_id_instruction_provides_global_ids() {
    let program = VProgram::new(
        1,
        vec![
            VInst::LaneId { dst: 0 },
            VInst::Scatter {
                src: 0,
                data: 1,
                addr: Addr::Indexed(0),
            },
        ],
    )
    .unwrap();
    let n = 100;
    // Buffer 0 holds identity indices (also used as the scatter target's
    // index stream); buffer 1 receives the lane ids.
    let mut bindings = Bindings::new(vec![
        (0..n).map(|i| i as f32).collect(),
        vec![0.0; n],
    ]);
    let mut device = Device::new(DeviceConfig::default());
    device.run_program(&program, &mut bindings, n, 2);
    for (i, v) in bindings.buffer(1).iter().enumerate() {
        assert_eq!(*v, i as f32);
    }
}

#[test]
fn errors_are_transparent_through_the_program_path() {
    use tm_sim::ErrorMode;
    let n = 512;
    let mut bindings = sample_bindings(n, |i| (i % 5) as f32);
    let config = DeviceConfig::builder()
        .with_error_mode(ErrorMode::FixedRate(0.2))
        .with_seed(5).build().unwrap();
    let mut device = Device::new(config);
    device.run_program(&sample_program(), &mut bindings, n, 4);
    assert!(device.report().errors_injected > 0);
    for i in 0..n {
        assert_eq!(bindings.buffer(2)[i], expected((i % 5) as f32));
    }
}

#[test]
#[should_panic(expected = "at least one wavefront")]
fn zero_in_flight_rejected() {
    let mut bindings = sample_bindings(64, |_| 1.0);
    let mut device = Device::new(DeviceConfig::default());
    device.run_program(&sample_program(), &mut bindings, 64, 0);
}
