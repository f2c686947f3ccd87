//! Property-based tests of the memoization core, on [`tm_rng::check`].

use tm_core::{
    fraction_mask, mask_for_threshold, MatchPolicy, MemoFifo, MemoModule, MmioRegisters,
    Replacement,
};
use tm_fpu::{FpOp, Operands};
use tm_rng::{check, finite_f32};

const CASES: u32 = 256;

/// The FIFO never exceeds its depth and insertion makes the inserted
/// context immediately findable under exact matching.
#[test]
fn fifo_depth_and_recency() {
    check("fifo_depth_and_recency", CASES, |rng| {
        let depth = rng.gen_range(1..8usize);
        let inserts: Vec<(f32, f32)> = (0..rng.gen_range(1..64usize))
            .map(|_| (finite_f32(rng, false), finite_f32(rng, false)))
            .collect();
        let mut fifo = MemoFifo::new(depth);
        for &(a, r) in &inserts {
            fifo.insert(Operands::unary(a), r);
            assert!(fifo.len() <= depth);
            let hit = fifo.lookup(&Operands::unary(a), MatchPolicy::Exact, false);
            assert_eq!(hit, Some(r), "freshly inserted context must hit");
        }
    });
}

/// Whatever matches under a tight threshold also matches under any
/// looser one (monotonicity of the matching constraint).
#[test]
fn threshold_matching_is_monotone() {
    check("threshold_matching_is_monotone", CASES, |rng| {
        let [a, b, x, y] = std::array::from_fn(|_| finite_f32(rng, false));
        let tight = rng.gen_range(0.0f32..10.0);
        let slack = rng.gen_range(0.0f32..10.0);
        let loose = tight + slack;
        let p = Operands::binary(a, b);
        let q = Operands::binary(x, y);
        if MatchPolicy::threshold(tight).matches(&p, &q, false) {
            assert!(MatchPolicy::threshold(loose).matches(&p, &q, false));
        }
    });
}

/// Whatever matches under a fuller masking vector also matches under
/// any vector that compares fewer bits.
#[test]
fn mask_matching_is_monotone() {
    check("mask_matching_is_monotone", CASES, |rng| {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        let tight_bits = rng.gen_range(0..=23u32);
        let extra = rng.gen_range(0..=23u32);
        let loose_bits = (tight_bits + extra).min(23);
        let p = Operands::unary(f32::from_bits(a));
        let q = Operands::unary(f32::from_bits(b));
        let tight = MatchPolicy::MaskBits(fraction_mask(tight_bits));
        let loose = MatchPolicy::MaskBits(fraction_mask(loose_bits));
        if tight.matches(&p, &q, false) {
            assert!(loose.matches(&p, &q, false));
        }
    });
}

/// Commutative matching is a superset of plain matching.
#[test]
fn commutativity_only_adds_matches() {
    check("commutativity_only_adds_matches", CASES, |rng| {
        let [a, b, x, y] = std::array::from_fn(|_| finite_f32(rng, false));
        let t = rng.gen_range(0.0f32..5.0);
        let p = Operands::binary(a, b);
        let q = Operands::binary(x, y);
        let policy = MatchPolicy::threshold(t);
        if policy.matches(&p, &q, false) {
            assert!(policy.matches(&p, &q, true));
        }
    });
}

/// `mask_for_threshold` never loosens as the threshold tightens.
#[test]
fn mask_for_threshold_monotone() {
    check("mask_for_threshold_monotone", CASES, |rng| {
        let t1 = rng.gen_range(1e-6f32..100.0);
        let factor = rng.gen_range(1.0f32..100.0);
        let scale = rng.gen_range(1.0f32..1000.0);
        let tight = mask_for_threshold(t1, scale);
        let loose = mask_for_threshold(t1 * factor, scale);
        assert!(loose.count_ones() <= tight.count_ones());
    });
}

/// LRU and FIFO replacement agree on *what* can hit; only eviction
/// order differs. After inserting a single context, both hit it.
#[test]
fn replacement_policies_agree_on_singleton() {
    check("replacement_policies_agree_on_singleton", CASES, |rng| {
        let (a, r) = (finite_f32(rng, false), finite_f32(rng, false));
        for repl in [Replacement::Fifo, Replacement::Lru] {
            let mut fifo = MemoFifo::with_replacement(2, repl);
            fifo.insert(Operands::unary(a), r);
            assert_eq!(
                fifo.lookup(&Operands::unary(a), MatchPolicy::Exact, false),
                Some(r)
            );
        }
    });
}

/// The module under exact matching is result-transparent for any
/// access sequence, and hits never exceed lookups.
#[test]
fn module_transparency() {
    check("module_transparency", CASES, |rng| {
        let values: Vec<(u8, u8)> = (0..rng.gen_range(1..128usize))
            .map(|_| (rng.gen_range(0..16u8), rng.gen_range(0..16u8)))
            .collect();
        let mut m = MemoModule::new(FpOp::Add, MatchPolicy::Exact);
        for &(a, b) in &values {
            let (a, b) = (f32::from(a), f32::from(b));
            let out = m.access(Operands::binary(a, b), || a + b, false);
            assert_eq!(out.result.to_bits(), (a + b).to_bits());
        }
        let s = m.stats();
        assert!(s.hits <= s.lookups);
        assert!(s.is_consistent());
    });
}

/// MMIO policy programming round-trips for any threshold.
#[test]
fn mmio_policy_round_trip() {
    check("mmio_policy_round_trip", CASES, |rng| {
        let t = rng.gen_range(1e-9f32..1e9);
        let mut regs = MmioRegisters::new();
        regs.set_policy(MatchPolicy::Threshold(t));
        assert_eq!(regs.policy(), Some(MatchPolicy::Threshold(t)));
    });
}

/// MMIO mask programming round-trips for any vector.
#[test]
fn mmio_mask_round_trip() {
    check("mmio_mask_round_trip", CASES, |rng| {
        let mask = rng.next_u32();
        let mut regs = MmioRegisters::new();
        regs.set_policy(MatchPolicy::MaskBits(mask));
        let expect = if mask == u32::MAX {
            MatchPolicy::Exact
        } else {
            MatchPolicy::MaskBits(mask)
        };
        assert_eq!(regs.policy(), Some(expect));
    });
}

/// Power-gating and re-enabling always leaves the module cold but
/// functional.
#[test]
fn gate_cycle_resets_cleanly() {
    check("gate_cycle_resets_cleanly", CASES, |rng| {
        let values: Vec<f32> = (0..rng.gen_range(1..32usize))
            .map(|_| finite_f32(rng, false))
            .collect();
        let mut m = MemoModule::new(FpOp::Sqrt, MatchPolicy::Exact);
        for &v in &values {
            m.access(Operands::unary(v), || v.sqrt(), false);
        }
        m.set_enabled(false);
        m.set_enabled(true);
        assert!(m.fifo().is_empty());
        let v = values[0];
        let out = m.access(Operands::unary(v), || v.sqrt(), false);
        assert!(!out.hit, "post-gate access must be a cold miss");
        assert_eq!(out.result.to_bits(), v.sqrt().to_bits());
    });
}
