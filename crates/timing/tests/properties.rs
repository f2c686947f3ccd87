//! Property-based tests of the timing-error machinery, on
//! [`tm_rng::check`].

use tm_rng::check;
use tm_timing::{Ecu, EdsChain, ErrorInjector, RecoveryPolicy, VoltageModel};

const CASES: u32 = 256;

/// Injection is exactly reproducible from (rate, seed).
#[test]
fn injector_is_deterministic() {
    check("injector_is_deterministic", CASES, |rng| {
        let rate = rng.gen_range(0.0f64..=1.0);
        let seed = rng.next_u64();
        let mut a = ErrorInjector::new(rate, seed);
        let mut b = ErrorInjector::new(rate, seed);
        for _ in 0..256 {
            assert_eq!(a.sample(), b.sample());
        }
    });
}

/// Counters never disagree with the stream.
#[test]
fn injector_counters_track() {
    check("injector_counters_track", CASES, |rng| {
        let rate = rng.gen_range(0.0f64..=1.0);
        let seed = rng.next_u64();
        let n = rng.gen_range(1..512usize);
        let mut inj = ErrorInjector::new(rate, seed);
        let errors = (0..n).filter(|_| inj.sample()).count() as u64;
        assert_eq!(inj.drawn(), n as u64);
        assert_eq!(inj.errors(), errors);
        assert!((0.0..=1.0).contains(&inj.observed_rate()));
    });
}

/// Stage/instruction rate conversions invert each other and both stay
/// probabilities.
#[test]
fn eds_round_trip() {
    check("eds_round_trip", CASES, |rng| {
        let stages = rng.gen_range(1..32u32);
        // p is restricted to the physically meaningful per-stage range:
        // near p = 1 the survival product (1-p)^stages underflows and the
        // inversion is numerically ill-conditioned.
        let p = rng.gen_range(0.0f64..=0.5);
        let chain = EdsChain::new(stages);
        let instr = chain.instruction_error_rate(p);
        assert!((0.0..=1.0).contains(&instr));
        let back = chain.stage_error_rate(instr);
        // Tolerance 1e-7, not 1e-9: at stages = 31, p = 0.5 the survival
        // product (1-p)^stages ≈ 5e-10 is formed next to 1.0, so the
        // rounding of `instr` alone perturbs the inversion by ~1e-8.
        assert!((back - p).abs() < 1e-7, "{back} vs {p}");
    });
}

/// Recovery cycle counts are strictly positive and ECU accounting is
/// exact.
#[test]
fn recovery_accounting() {
    check("recovery_accounting", CASES, |rng| {
        let stages = rng.gen_range(1..32u32);
        let errors = rng.gen_range(1..64u32);
        for policy in [
            RecoveryPolicy::default(),
            RecoveryPolicy::MultipleIssueReplay { issues: 3 },
            RecoveryPolicy::HalfFrequencyReplay,
            RecoveryPolicy::DecouplingQueue,
        ] {
            assert!(policy.recovery_cycles(stages) >= 1, "{policy}");
            assert!(policy.energy_factor(stages) > 0.0);
            let mut ecu = Ecu::new(policy);
            let mut total = 0u64;
            for _ in 0..errors {
                total += u64::from(ecu.recover(stages));
            }
            assert_eq!(ecu.recoveries(), u64::from(errors));
            assert_eq!(ecu.recovery_cycles(), total);
        }
    });
}

/// The voltage model's error rate falls monotonically with supply and
/// its energy scale rises monotonically.
#[test]
fn voltage_monotonicity() {
    check("voltage_monotonicity", CASES, |rng| {
        let lo = rng.gen_range(0.5f64..1.1);
        let delta = rng.gen_range(0.001f64..0.3);
        let hi = lo + delta;
        let m = VoltageModel::tsmc45();
        assert!(m.error_rate(hi) <= m.error_rate(lo));
        assert!(m.dynamic_energy_scale(hi) > m.dynamic_energy_scale(lo));
        assert!(m.delay_scale(hi) < m.delay_scale(lo));
    });
}

/// Above the onset voltage the model is exactly error-free.
#[test]
fn no_errors_above_onset() {
    check("no_errors_above_onset", CASES, |rng| {
        let extra = rng.gen_range(0.0f64..0.5);
        let m = VoltageModel::tsmc45();
        assert_eq!(m.error_rate(m.onset_vdd() + extra), 0.0);
    });
}
