//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;
use temporal_memo::memo::{resolve, MatchPolicy, MemoFifo, MemoModule, MemoStats};
use temporal_memo::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL | prop::num::f32::ZERO | prop::num::f32::SUBNORMAL
}

proptest! {
    /// Exact matching only ever returns values that were inserted for
    /// bit-identical operands — reuse is transparent.
    #[test]
    fn exact_fifo_is_transparent(values in prop::collection::vec((finite_f32(), finite_f32()), 1..64)) {
        let mut fifo = MemoFifo::new(2);
        for &(a, b) in &values {
            let ops = Operands::binary(a, b);
            if let Some(result) = fifo.lookup(&ops, MatchPolicy::Exact, false) {
                prop_assert_eq!(result.to_bits(), (a + b).to_bits());
            }
            fifo.insert(ops, a + b);
        }
    }

    /// A thresholded lookup never accepts operands farther than the
    /// threshold from a stored entry.
    #[test]
    fn threshold_lookup_respects_bound(
        stored in (finite_f32(), finite_f32()),
        probe in (finite_f32(), finite_f32()),
        threshold in 0.0f32..10.0,
    ) {
        let mut fifo = MemoFifo::new(2);
        let stored_ops = Operands::binary(stored.0, stored.1);
        fifo.insert(stored_ops, 1.0);
        let probe_ops = Operands::binary(probe.0, probe.1);
        let policy = MatchPolicy::threshold(threshold);
        if fifo.lookup(&probe_ops, policy, false).is_some() {
            prop_assert!(probe_ops.max_abs_diff(&stored_ops) <= threshold);
        }
    }

    /// The Table-2 state machine: hits never trigger recovery, misses
    /// never clock-gate, and only the error-free miss updates the LUT.
    #[test]
    fn table2_invariants(hit in any::<bool>(), error in any::<bool>()) {
        let action = resolve(hit, error);
        prop_assert_eq!(action.clock_gates_fpu(), hit);
        prop_assert_eq!(action.triggers_recovery(), !hit && error);
        prop_assert_eq!(action.updates_lut(), !hit && !error);
        prop_assert_eq!(action.masks_error(), hit && error);
    }

    /// Module statistics stay internally consistent under arbitrary
    /// access sequences, and the module's results are always correct
    /// under exact matching.
    #[test]
    fn module_stats_consistent(
        accesses in prop::collection::vec((0u8..8, 0u8..8, any::<bool>()), 1..200)
    ) {
        let mut module = MemoModule::new(FpOp::Mul, MatchPolicy::Exact);
        for &(a, b, error) in &accesses {
            let (a, b) = (f32::from(a), f32::from(b));
            let out = module.access(Operands::binary(a, b), || a * b, error);
            prop_assert_eq!(out.result, a * b);
            prop_assert!(module.stats().is_consistent());
        }
        let stats: MemoStats = module.stats();
        prop_assert_eq!(stats.lookups as usize, accesses.len());
    }

    /// Whole-device invariant: under exact matching the memoized device
    /// computes exactly what the baseline computes, for arbitrary inputs
    /// and error rates.
    #[test]
    fn device_transparency(
        input in prop::collection::vec(0u8..32, 64..256),
        error_pct in 0u8..30,
        seed in any::<u64>(),
    ) {
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
            prop_assert_eq!(*yi, xi * xi);
        }
        let report = device.report();
        let stats = report.total_stats();
        prop_assert!(stats.is_consistent());
        prop_assert_eq!(stats.masked_errors + stats.recoveries, report.errors_injected);
        prop_assert!(report.total_energy_pj() >= 0.0);
    }

    /// Voltage model sanity across its whole range: probabilities stay
    /// probabilities, scales stay positive and monotone.
    #[test]
    fn voltage_model_ranges(vdd in 0.5f64..1.2) {
        let m = VoltageModel::tsmc45();
        let r = m.error_rate(vdd);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!(m.dynamic_energy_scale(vdd) > 0.0);
        prop_assert!(m.delay_scale(vdd) > 0.0);
    }

    /// Error injection honours its configured rate statistically.
    #[test]
    fn injector_rate_is_calibrated(rate_pct in 0u8..=100, seed in any::<u64>()) {
        let rate = f64::from(rate_pct) / 100.0;
        let mut inj = ErrorInjector::new(rate, seed);
        let n = 20_000;
        let hits = (0..n).filter(|_| inj.sample()).count() as f64;
        let observed = hits / f64::from(n);
        prop_assert!((observed - rate).abs() < 0.02, "{observed} vs {rate}");
    }
}
