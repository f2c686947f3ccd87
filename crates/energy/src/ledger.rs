//! Energy accounting with per-component breakdown.

use std::fmt;
use std::ops::AddAssign;

/// Per-component energy totals, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Full FPU executions (misses and baseline runs).
    pub fpu_exec_pj: f64,
    /// Memoized hits (stage-1 + clock-gated residual + LUT lookup).
    pub hit_pj: f64,
    /// LUT search energy charged on misses.
    pub lut_lookup_pj: f64,
    /// FIFO update energy.
    pub lut_update_pj: f64,
    /// Baseline recovery energy (replay + flush overhead).
    pub recovery_pj: f64,
}

impl EnergyBreakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.fpu_exec_pj + self.hit_pj + self.lut_lookup_pj + self.lut_update_pj + self.recovery_pj
    }

    /// Energy attributable to the memoization module alone.
    #[must_use]
    pub fn memo_module_pj(&self) -> f64 {
        self.lut_lookup_pj + self.lut_update_pj
    }

    /// Every component as a `(name, picojoules)` pair — the telemetry
    /// tap live exporters iterate so a new component can't silently be
    /// left out of published energy gauges.
    #[must_use]
    pub const fn named_components(&self) -> [(&'static str, f64); 5] {
        [
            ("fpu_exec", self.fpu_exec_pj),
            ("hit", self.hit_pj),
            ("lut_lookup", self.lut_lookup_pj),
            ("lut_update", self.lut_update_pj),
            ("recovery", self.recovery_pj),
        ]
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.fpu_exec_pj += rhs.fpu_exec_pj;
        self.hit_pj += rhs.hit_pj;
        self.lut_lookup_pj += rhs.lut_lookup_pj;
        self.lut_update_pj += rhs.lut_update_pj;
        self.recovery_pj += rhs.recovery_pj;
    }
}

/// An accumulating energy ledger.
///
/// The simulator charges one entry per architectural event; reports read
/// the [`EnergyBreakdown`] back out. Charging functions validate that
/// energies are non-negative and finite, so a modeling bug surfaces at the
/// charge site instead of as a nonsensical total.
///
/// # Examples
///
/// ```
/// use tm_energy::EnergyLedger;
///
/// let mut ledger = EnergyLedger::new();
/// ledger.charge_exec(10.0);
/// ledger.charge_recovery(25.0);
/// assert_eq!(ledger.total_pj(), 35.0);
/// assert_eq!(ledger.breakdown().recovery_pj, 25.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    breakdown: EnergyBreakdown,
}

impl EnergyLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn validate(pj: f64) -> f64 {
        assert!(
            pj.is_finite() && pj >= 0.0,
            "energy charge must be finite and non-negative, got {pj}"
        );
        pj
    }

    /// Charges a full FPU execution.
    pub fn charge_exec(&mut self, pj: f64) {
        self.breakdown.fpu_exec_pj += Self::validate(pj);
    }

    /// Charges a memoized hit.
    pub fn charge_hit(&mut self, pj: f64) {
        self.breakdown.hit_pj += Self::validate(pj);
    }

    /// Charges a LUT search that missed.
    pub fn charge_lut_lookup(&mut self, pj: f64) {
        self.breakdown.lut_lookup_pj += Self::validate(pj);
    }

    /// Charges a FIFO update.
    pub fn charge_lut_update(&mut self, pj: f64) {
        self.breakdown.lut_update_pj += Self::validate(pj);
    }

    /// Charges a baseline recovery.
    pub fn charge_recovery(&mut self, pj: f64) {
        self.breakdown.recovery_pj += Self::validate(pj);
    }

    /// Charges many identical per-lane charges at once: component `i`
    /// of `quanta`, in [`EnergyBreakdown::named_components`] order, is
    /// added `counts[i]` times.
    ///
    /// Each quantum with a non-zero count is validated once, and the
    /// additions happen one at a time, so the totals are bit-identical to
    /// the same sequence of single charges — one `count × quantum`
    /// addition would round differently.
    ///
    /// # Examples
    ///
    /// ```
    /// use tm_energy::{EnergyBreakdown, EnergyLedger};
    ///
    /// let quanta = EnergyBreakdown { fpu_exec_pj: 0.1, hit_pj: 0.03, ..Default::default() };
    /// let mut batched = EnergyLedger::new();
    /// batched.charge_repeated(&quanta, [3, 2, 0, 0, 0]);
    /// let mut single = EnergyLedger::new();
    /// for _ in 0..3 { single.charge_exec(0.1); }
    /// for _ in 0..2 { single.charge_hit(0.03); }
    /// assert_eq!(batched, single);
    /// ```
    pub fn charge_repeated(&mut self, quanta: &EnergyBreakdown, counts: [u32; 5]) {
        let b = &mut self.breakdown;
        let accumulators = [
            (&mut b.fpu_exec_pj, quanta.fpu_exec_pj),
            (&mut b.hit_pj, quanta.hit_pj),
            (&mut b.lut_lookup_pj, quanta.lut_lookup_pj),
            (&mut b.lut_update_pj, quanta.lut_update_pj),
            (&mut b.recovery_pj, quanta.recovery_pj),
        ];
        for ((acc, pj), n) in accumulators.into_iter().zip(counts) {
            if n > 0 {
                let pj = Self::validate(pj);
                let mut sum = *acc;
                for _ in 0..n {
                    sum += pj;
                }
                *acc = sum;
            }
        }
    }

    /// The accumulated per-component totals.
    #[must_use]
    pub const fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Total accumulated energy.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.breakdown.total_pj()
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.breakdown += other.breakdown;
    }

    /// Resets all components to zero.
    pub fn reset(&mut self) {
        self.breakdown = EnergyBreakdown::default();
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.breakdown;
        write!(
            f,
            "total={:.1}pJ (exec={:.1} hit={:.1} lut={:.1} recovery={:.1})",
            b.total_pj(),
            b.fpu_exec_pj,
            b.hit_pj,
            b.memo_module_pj(),
            b.recovery_pj
        )
    }
}

/// Relative energy saving of `ours` against `baseline`, in `[−∞, 1]`.
///
/// Positive values mean `ours` consumes less. Returns `0.0` when the
/// baseline is zero (no work ⇒ no saving).
///
/// # Examples
///
/// ```
/// use tm_energy::saving;
///
/// assert_eq!(saving(75.0, 100.0), 0.25);
/// assert_eq!(saving(0.0, 0.0), 0.0);
/// ```
#[must_use]
pub fn saving(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        1.0 - ours / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let mut l = EnergyLedger::new();
        l.charge_exec(1.0);
        l.charge_hit(2.0);
        l.charge_lut_lookup(3.0);
        l.charge_lut_update(4.0);
        l.charge_recovery(5.0);
        assert_eq!(l.total_pj(), 15.0);
        assert_eq!(l.breakdown().memo_module_pj(), 7.0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = EnergyLedger::new();
        a.charge_exec(1.0);
        let mut b = EnergyLedger::new();
        b.charge_exec(2.0);
        b.charge_recovery(3.0);
        a.merge(&b);
        assert_eq!(a.breakdown().fpu_exec_pj, 3.0);
        assert_eq!(a.breakdown().recovery_pj, 3.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut l = EnergyLedger::new();
        l.charge_exec(9.0);
        l.reset();
        assert_eq!(l.total_pj(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_charge_panics() {
        EnergyLedger::new().charge_exec(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_charge_panics() {
        EnergyLedger::new().charge_hit(f64::NAN);
    }

    #[test]
    fn saving_bands() {
        assert!((saving(87.0, 100.0) - 0.13).abs() < 1e-12);
        assert!(saving(110.0, 100.0) < 0.0);
    }

    #[test]
    fn display_mentions_total() {
        let mut l = EnergyLedger::new();
        l.charge_exec(10.0);
        assert!(l.to_string().contains("total=10.0pJ"));
    }
}
