//! Property tests of the SIMT vector ALU: every lane of every vector
//! instruction must agree bit-for-bit with the scalar functional model.

use proptest::prelude::*;
use tm_fpu::{compute, FpOp, Operands, ALL_OPS};
use tm_sim::{ComputeUnit, DeviceConfig};

fn finite() -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL | prop::num::f32::ZERO
}

fn op_strategy() -> impl Strategy<Value = FpOp> {
    prop::sample::select(ALL_OPS.to_vec())
}

proptest! {
    /// Lane-wise SIMT execution equals scalar evaluation for every opcode.
    #[test]
    fn vector_alu_matches_scalar_compute(
        op in op_strategy(),
        a in prop::collection::vec(finite(), 1..64),
        b0 in finite(),
        c0 in finite(),
    ) {
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
            prop_assert_eq!(out[l].to_bits(), expect.to_bits(), "{} lane {}", op, l);
        }
    }

    /// Masked lanes never contribute lookups and always produce 0.0.
    #[test]
    fn masked_lanes_stay_silent(mask in prop::collection::vec(any::<bool>(), 1..64)) {
        let lanes = mask.len();
        let config = DeviceConfig::builder().with_compute_units(1).build().unwrap();
        let mut cu = ComputeUnit::new(&config, 0);
        let x: Vec<f32> = (0..lanes).map(|l| l as f32 + 1.0).collect();
        let out = cu.issue_vector(FpOp::Sqrt, &[&x], &mask);
        let active = mask.iter().filter(|&&m| m).count() as u64;
        for (l, &m) in mask.iter().enumerate() {
            if m {
                prop_assert_eq!(out[l], (l as f32 + 1.0).sqrt());
            } else {
                prop_assert_eq!(out[l], 0.0);
            }
        }
        prop_assert_eq!(cu.op_stats(FpOp::Sqrt).lookups, active);
    }
}
