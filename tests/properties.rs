//! Property-based tests of the core invariants, spanning crates.
//!
//! Each property runs [`CASES`] seeded cases on [`tm_rng::check`]; a
//! failing case prints the seed that [`tm_rng::replay`] reruns. Floats
//! are drawn from all three finite classes, subnormals included.

use temporal_memo::memo::{resolve, MatchPolicy, MemoFifo, MemoModule, MemoStats};
use temporal_memo::prelude::*;
use tm_rng::{check, finite_f32};

const CASES: u32 = 256;

/// Exact matching only ever returns values that were inserted for
/// bit-identical operands — reuse is transparent.
#[test]
fn exact_fifo_is_transparent() {
    check("exact_fifo_is_transparent", CASES, |rng| {
        let values: Vec<(f32, f32)> = (0..rng.gen_range(1..64usize))
            .map(|_| (finite_f32(rng, true), finite_f32(rng, true)))
            .collect();
        let mut fifo = MemoFifo::new(2);
        for &(a, b) in &values {
            let ops = Operands::binary(a, b);
            if let Some(result) = fifo.lookup(&ops, MatchPolicy::Exact, false) {
                assert_eq!(result.to_bits(), (a + b).to_bits());
            }
            fifo.insert(ops, a + b);
        }
    });
}

/// A thresholded lookup never accepts operands farther than the
/// threshold from a stored entry.
#[test]
fn threshold_lookup_respects_bound() {
    check("threshold_lookup_respects_bound", CASES, |rng| {
        let stored = (finite_f32(rng, true), finite_f32(rng, true));
        let probe = (finite_f32(rng, true), finite_f32(rng, true));
        let threshold = rng.gen_range(0.0f32..10.0);
        let mut fifo = MemoFifo::new(2);
        let stored_ops = Operands::binary(stored.0, stored.1);
        fifo.insert(stored_ops, 1.0);
        let probe_ops = Operands::binary(probe.0, probe.1);
        let policy = MatchPolicy::threshold(threshold);
        if fifo.lookup(&probe_ops, policy, false).is_some() {
            assert!(probe_ops.max_abs_diff(&stored_ops) <= threshold);
        }
    });
}

/// The Table-2 state machine: hits never trigger recovery, misses
/// never clock-gate, and only the error-free miss updates the LUT.
#[test]
fn table2_invariants() {
    check("table2_invariants", CASES, |rng| {
        let hit = rng.next_u32() & 1 == 1;
        let error = rng.next_u32() & 1 == 1;
        let action = resolve(hit, error);
        assert_eq!(action.clock_gates_fpu(), hit);
        assert_eq!(action.triggers_recovery(), !hit && error);
        assert_eq!(action.updates_lut(), !hit && !error);
        assert_eq!(action.masks_error(), hit && error);
    });
}

/// Module statistics stay internally consistent under arbitrary
/// access sequences, and the module's results are always correct
/// under exact matching.
#[test]
fn module_stats_consistent() {
    check("module_stats_consistent", CASES, |rng| {
        let accesses: Vec<(u8, u8, bool)> = (0..rng.gen_range(1..200usize))
            .map(|_| (rng.gen_range(0..8u8), rng.gen_range(0..8u8), rng.next_u32() & 1 == 1))
            .collect();
        let mut module = MemoModule::new(FpOp::Mul, MatchPolicy::Exact);
        for &(a, b, error) in &accesses {
            let (a, b) = (f32::from(a), f32::from(b));
            let out = module.access(Operands::binary(a, b), || a * b, error);
            assert_eq!(out.result, a * b);
            assert!(module.stats().is_consistent());
        }
        let stats: MemoStats = module.stats();
        assert_eq!(stats.lookups as usize, accesses.len());
    });
}

/// Whole-device invariant: under exact matching the memoized device
/// computes exactly what the baseline computes, for arbitrary inputs
/// and error rates.
#[test]
fn device_transparency() {
    check("device_transparency", CASES, |rng| {
        let input: Vec<u8> = (0..rng.gen_range(64..256usize))
            .map(|_| rng.gen_range(0..32u8))
            .collect();
        let error_pct = rng.gen_range(0..30u8);
        let seed = rng.next_u64();
        let square = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
                VInst::Alu { op: FpOp::Mul, dst: 0, srcs: vec![Src::Reg(0), Src::Reg(0)] },
                VInst::Scatter { src: 0, data: 1, addr: Addr::Gid },
            ],
        )
        .unwrap();
        let x: Vec<f32> = input.iter().map(|&v| f32::from(v)).collect();
        let n = x.len();
        let config = DeviceConfig::builder()
            .with_error_mode(ErrorMode::FixedRate(f64::from(error_pct) / 100.0))
            .with_seed(seed).build().unwrap();
        let mut bindings = Bindings::new(vec![x.clone(), vec![0.0; n]]);
        let mut device = Device::new(config);
        device.run_program(&square, &mut bindings, n, 1);
        for (yi, xi) in bindings.buffer(1).iter().zip(x.iter()) {
            assert_eq!(*yi, xi * xi);
        }
        let report = device.report();
        let stats = report.total_stats();
        assert!(stats.is_consistent());
        assert_eq!(stats.masked_errors + stats.recoveries, report.errors_injected);
        assert!(report.total_energy_pj() >= 0.0);
    });
}

/// Voltage model sanity across its whole range: probabilities stay
/// probabilities, scales stay positive and monotone.
#[test]
fn voltage_model_ranges() {
    check("voltage_model_ranges", CASES, |rng| {
        let vdd = rng.gen_range(0.5f64..1.2);
        let m = VoltageModel::tsmc45();
        let r = m.error_rate(vdd);
        assert!((0.0..=1.0).contains(&r));
        assert!(m.dynamic_energy_scale(vdd) > 0.0);
        assert!(m.delay_scale(vdd) > 0.0);
    });
}

/// Error injection honours its configured rate statistically.
#[test]
fn injector_rate_is_calibrated() {
    check("injector_rate_is_calibrated", CASES, |rng| {
        let rate_pct = rng.gen_range(0..=100u8);
        let seed = rng.next_u64();
        let rate = f64::from(rate_pct) / 100.0;
        let mut inj = ErrorInjector::new(rate, seed);
        let n = 20_000;
        let hits = (0..n).filter(|_| inj.sample()).count() as f64;
        let observed = hits / f64::from(n);
        assert!((observed - rate).abs() < 0.02, "{observed} vs {rate}");
    });
}
