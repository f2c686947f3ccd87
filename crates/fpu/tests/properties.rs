//! Property-based tests of the FPU substrate, on [`tm_rng::check`].

use tm_fpu::{compute, FpOp, FpuPipeline, Operands, ALL_OPS};
use tm_rng::{check, finite_f32};

const CASES: u32 = 256;

fn operands_for(op: FpOp, a: f32, b: f32, c: f32) -> Operands {
    match op.arity() {
        1 => Operands::unary(a),
        2 => Operands::binary(a, b),
        _ => Operands::ternary(a, b, c),
    }
}

/// Every commutative binary opcode really commutes, bit for bit.
#[test]
fn commutative_ops_commute() {
    check("commutative_ops_commute", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let [a, b] = std::array::from_fn(|_| finite_f32(rng, false));
        if op.is_commutative() && op.arity() == 2 {
            let x = compute(op, Operands::binary(a, b));
            let y = compute(op, Operands::binary(b, a));
            assert_eq!(x.to_bits(), y.to_bits());
        }
    });
}

/// MULADD commutes in its two factors.
#[test]
fn muladd_commutes_in_factors() {
    check("muladd_commutes_in_factors", CASES, |rng| {
        let [a, b, c] = std::array::from_fn(|_| finite_f32(rng, false));
        let x = compute(FpOp::MulAdd, Operands::ternary(a, b, c));
        let y = compute(FpOp::MulAdd, Operands::ternary(b, a, c));
        assert_eq!(x.to_bits(), y.to_bits());
    });
}

/// Evaluation is a pure function of (opcode, operands).
#[test]
fn compute_is_deterministic() {
    check("compute_is_deterministic", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let [a, b, c] = std::array::from_fn(|_| finite_f32(rng, false));
        let operands = operands_for(op, a, b, c);
        let x = compute(op, operands);
        let y = compute(op, operands);
        assert_eq!(x.to_bits(), y.to_bits());
    });
}

/// The comparison family returns only 0.0 or 1.0.
#[test]
fn set_ops_are_boolean() {
    check("set_ops_are_boolean", CASES, |rng| {
        let [a, b] = std::array::from_fn(|_| finite_f32(rng, false));
        for op in [FpOp::SetEq, FpOp::SetGt, FpOp::SetGe, FpOp::SetNe] {
            let r = compute(op, Operands::binary(a, b));
            assert!(r == 0.0 || r == 1.0, "{op} produced {r}");
        }
    });
}

/// MIN/MAX return one of their operands and bracket correctly.
#[test]
fn min_max_bracket() {
    check("min_max_bracket", CASES, |rng| {
        let [a, b] = std::array::from_fn(|_| finite_f32(rng, false));
        let lo = compute(FpOp::Min, Operands::binary(a, b));
        let hi = compute(FpOp::Max, Operands::binary(a, b));
        assert!(lo <= hi);
        assert!(lo == a || lo == b);
        assert!(hi == a || hi == b);
    });
}

/// The rounding family agrees with its mathematical contracts.
#[test]
fn rounding_contracts() {
    check("rounding_contracts", CASES, |rng| {
        let a = rng.gen_range(-1.0e6f32..1.0e6);
        let floor = compute(FpOp::Floor, Operands::unary(a));
        let ceil = compute(FpOp::Ceil, Operands::unary(a));
        let trunc = compute(FpOp::Trunc, Operands::unary(a));
        let fract = compute(FpOp::Fract, Operands::unary(a));
        assert!(floor <= a && a <= ceil);
        assert!(trunc.abs() <= a.abs());
        assert!((0.0..1.0).contains(&fract), "fract {fract}");
    });
}

/// FLT_TO_INT stays within the i32 range and drops the fraction.
#[test]
fn fp2int_contract() {
    check("fp2int_contract", CASES, |rng| {
        let a = finite_f32(rng, false);
        let r = compute(FpOp::FpToInt, Operands::unary(a));
        assert!(r >= i32::MIN as f32 && r <= i32::MAX as f32);
        assert_eq!(r.fract(), 0.0);
    });
}

/// Operand equality is reflexive and swapping twice round-trips.
#[test]
fn operand_swap_involution() {
    check("operand_swap_involution", CASES, |rng| {
        let [a, b, c] = std::array::from_fn(|_| finite_f32(rng, false));
        let ops = Operands::ternary(a, b, c);
        assert_eq!(ops, ops);
        assert_eq!(ops.swapped().swapped(), ops);
        assert_eq!(ops.max_abs_diff(&ops), 0.0);
    });
}

/// `max_abs_diff` is symmetric and satisfies the identity axiom.
#[test]
fn max_abs_diff_is_a_premetric() {
    check("max_abs_diff_is_a_premetric", CASES, |rng| {
        let [a, b, x, y] = std::array::from_fn(|_| finite_f32(rng, false));
        let p = Operands::binary(a, b);
        let q = Operands::binary(x, y);
        assert_eq!(p.max_abs_diff(&q), q.max_abs_diff(&p));
        assert!(p.max_abs_diff(&q) >= 0.0);
    });
}

/// A pipeline never issues two instructions in the same cycle and
/// completion always trails issue by exactly the stage count.
#[test]
fn pipeline_issue_ordering() {
    check("pipeline_issue_ordering", CASES, |rng| {
        let stages = rng.gen_range(1..20u32);
        let requests: Vec<u64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(0..1000u64))
            .collect();
        let mut p = FpuPipeline::new(stages);
        let mut last_issue = None;
        for &now in &requests {
            let c = p.issue(now);
            assert_eq!(c.done_at - c.issued_at, u64::from(stages));
            if let Some(prev) = last_issue {
                assert!(c.issued_at > prev, "double issue at {}", c.issued_at);
            }
            assert!(c.issued_at >= now);
            last_issue = Some(c.issued_at);
        }
        assert_eq!(p.issued(), requests.len() as u64);
    });
}
