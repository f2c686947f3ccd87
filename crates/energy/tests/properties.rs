//! Property-based tests of the energy model and ledger, on
//! [`tm_rng::check`].

use tm_energy::{saving, EnergyLedger, EnergyModel};
use tm_fpu::ALL_OPS;
use tm_rng::check;
use tm_timing::RecoveryPolicy;

const CASES: u32 = 256;

/// A hit is always cheaper than an execution, at any supply point.
#[test]
fn hit_beats_exec_at_any_voltage() {
    check("hit_beats_exec_at_any_voltage", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let scale = rng.gen_range(0.3f64..1.5);
        let m = EnergyModel::tsmc45();
        assert!(m.hit_energy(op, scale) < m.exec_energy(op, scale) + m.lut_lookup_energy());
    });
}

/// All per-access energies are positive and finite.
#[test]
fn energies_are_positive() {
    check("energies_are_positive", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let scale = rng.gen_range(0.1f64..2.0);
        let m = EnergyModel::tsmc45();
        for e in [
            m.exec_energy(op, scale),
            m.hit_energy(op, scale),
            m.miss_energy(op, scale, true),
            m.miss_energy(op, scale, false),
            m.spatial_reuse_energy(op, scale),
            m.recovery_energy(op, RecoveryPolicy::default(), scale),
        ] {
            assert!(e.is_finite() && e > 0.0);
        }
    });
}

/// FPU-side energies scale linearly with the dynamic factor; the LUT
/// portion does not (it is pinned at nominal voltage).
#[test]
fn dynamic_scaling_is_linear_on_fpu_portion() {
    check("dynamic_scaling_is_linear_on_fpu_portion", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let s = rng.gen_range(0.2f64..1.0);
        let m = EnergyModel::tsmc45();
        let full = m.exec_energy(op, 1.0);
        let scaled = m.exec_energy(op, s);
        assert!((scaled - full * s).abs() < 1e-9);

        let lut_share = m.lut_lookup_energy();
        let hit_full = m.hit_energy(op, 1.0) - lut_share;
        let hit_scaled = m.hit_energy(op, s) - lut_share;
        assert!((hit_scaled - hit_full * s).abs() < 1e-9);
    });
}

/// Recovery energy grows with the recovery cycle count across
/// policies.
#[test]
fn costlier_recoveries_cost_more() {
    check("costlier_recoveries_cost_more", CASES, |rng| {
        let op = ALL_OPS[rng.gen_range(0..ALL_OPS.len())];
        let scale = rng.gen_range(0.5f64..1.2);
        let m = EnergyModel::tsmc45();
        let cheap = RecoveryPolicy::DecouplingQueue;
        let dear = RecoveryPolicy::MultipleIssueReplay { issues: 3 };
        assert!(m.recovery_energy(op, cheap, scale) < m.recovery_energy(op, dear, scale));
    });
}

/// The ledger is order-independent: charging in any order yields the
/// same totals.
#[test]
fn ledger_total_is_order_independent() {
    check("ledger_total_is_order_independent", CASES, |rng| {
        let mut charges: Vec<f64> = (0..rng.gen_range(1..32usize))
            .map(|_| rng.gen_range(0.0f64..100.0))
            .collect();
        let mut forward = EnergyLedger::new();
        for &c in &charges {
            forward.charge_exec(c);
        }
        charges.reverse();
        let mut backward = EnergyLedger::new();
        for &c in &charges {
            backward.charge_exec(c);
        }
        assert!((forward.total_pj() - backward.total_pj()).abs() < 1e-9);
    });
}

/// `saving` is antisymmetric around zero and bounded above by 1.
#[test]
fn saving_bounds() {
    check("saving_bounds", CASES, |rng| {
        let ours = rng.gen_range(0.0f64..1e9);
        let base = rng.gen_range(1e-6f64..1e9);
        let s = saving(ours, base);
        assert!(s <= 1.0);
        if ours <= base {
            assert!(s >= 0.0);
        } else {
            assert!(s < 0.0);
        }
    });
}

/// Merging ledgers equals charging everything into one.
#[test]
fn merge_is_additive() {
    check("merge_is_additive", CASES, |rng| {
        let mut charges = || -> Vec<f64> {
            (0..rng.gen_range(0..16usize)).map(|_| rng.gen_range(0.0f64..50.0)).collect()
        };
        let (a, b) = (charges(), charges());
        let mut la = EnergyLedger::new();
        for &c in &a {
            la.charge_recovery(c);
        }
        let mut lb = EnergyLedger::new();
        for &c in &b {
            lb.charge_recovery(c);
        }
        let mut merged = la;
        merged.merge(&lb);
        let expect: f64 = a.iter().chain(b.iter()).sum();
        assert!((merged.total_pj() - expect).abs() < 1e-9);
    });
}
