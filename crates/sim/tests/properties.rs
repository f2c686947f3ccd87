//! Property tests of the SIMT vector ALU, on [`tm_rng::check`]: every
//! lane of every vector instruction must agree bit-for-bit with the
//! scalar functional model.

use tm_fpu::{compute, FpOp, Operands, ALL_OPS};
use tm_rng::{check, finite_f32};
use tm_sim::{ComputeUnit, DeviceConfig};

const CASES: u32 = 256;

/// Lane-wise SIMT execution equals scalar evaluation for every opcode.
#[test]
fn vector_alu_matches_scalar_compute() {
    check("vector_alu_matches_scalar_compute", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let a: Vec<f32> = (0..rng.gen_range(1..64usize))
            .map(|_| finite_f32(rng, false))
            .collect();
        let [b0, c0] = std::array::from_fn(|_| finite_f32(rng, false));
        let lanes = a.len();
        let config = DeviceConfig::builder().with_compute_units(1).build().unwrap();
        let mut cu = ComputeUnit::new(&config, 0);
        let (rb, rc) = (vec![b0; lanes], vec![c0; lanes]);
        let srcs: [&[f32]; 3] = [&a, &rb, &rc];
        let out = cu.issue_vector(op, &srcs[..op.arity()], &vec![true; lanes]);
        for (l, &x) in a.iter().enumerate() {
            let operands = match op.arity() {
                1 => Operands::unary(x),
                2 => Operands::binary(x, b0),
                _ => Operands::ternary(x, b0, c0),
            };
            let expect = compute(op, operands);
            assert_eq!(out[l].to_bits(), expect.to_bits(), "{} lane {}", op, l);
        }
    });
}

/// Masked lanes never contribute lookups and always produce 0.0.
#[test]
fn masked_lanes_stay_silent() {
    check("masked_lanes_stay_silent", CASES, |rng| {
        let mask: Vec<bool> = (0..rng.gen_range(1..64usize))
            .map(|_| rng.next_u32() & 1 == 1)
            .collect();
        let lanes = mask.len();
        let config = DeviceConfig::builder().with_compute_units(1).build().unwrap();
        let mut cu = ComputeUnit::new(&config, 0);
        let x: Vec<f32> = (0..lanes).map(|l| l as f32 + 1.0).collect();
        let out = cu.issue_vector(FpOp::Sqrt, &[&x], &mask);
        let active = mask.iter().filter(|&&m| m).count() as u64;
        for (l, &m) in mask.iter().enumerate() {
            if m {
                assert_eq!(out[l], (l as f32 + 1.0).sqrt());
            } else {
                assert_eq!(out[l], 0.0);
            }
        }
        assert_eq!(cu.op_stats(FpOp::Sqrt).lookups, active);
    });
}
