//! Voltage-overscaling model (paper §5.3).

/// Nominal supply voltage of the TSMC 45 nm signoff corner used in the
/// paper (1 GHz at SS/0.81 V worst case, nominal operation at 0.9 V).
pub const NOMINAL_VDD: f64 = 0.9;

/// Positive timing slack of the memoization module at signoff, as a
/// fraction of the clock period.
///
/// "The memoization module does not limit the clock frequency as it has a
/// positive slack of 14 % of the clock period" (§5.1). The module is also
/// kept at the fixed nominal voltage in the VOS experiments, so it is
/// "unlikely to face any timing errors" (§5.2).
pub const MEMO_MODULE_SLACK: f64 = 0.14;

/// Analytical voltage-overscaling model: error rate, delay and dynamic
/// energy as functions of the FPU supply voltage at constant frequency.
///
/// Calibrated to reproduce the *shape* of the paper's Fig. 11 on TSMC
/// 45 nm at 1 GHz:
///
/// - at the nominal 0.9 V there are no timing errors;
/// - down to the knee voltage (0.84 V in the paper) the error rate stays
///   negligible while dynamic energy shrinks as `V²`;
/// - below the knee the error rate rises abruptly (exponentially), making
///   recovery dominate the baseline's energy.
///
/// # Examples
///
/// ```
/// use tm_timing::VoltageModel;
///
/// let m = VoltageModel::tsmc45();
/// assert_eq!(m.error_rate(0.9), 0.0);
/// assert!(m.error_rate(0.84) < 0.01);
/// assert!(m.error_rate(0.80) > 0.20);
/// assert!((m.dynamic_energy_scale(0.9) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageModel {
    nominal_vdd: f64,
    /// Voltage at which timing errors begin to appear.
    onset_vdd: f64,
    /// Error rate at the onset voltage.
    base_rate: f64,
    /// Exponential growth constant (1/V) of the error rate below onset.
    alpha: f64,
    /// Threshold voltage of the alpha-power delay model.
    vth: f64,
}

impl VoltageModel {
    /// The calibrated TSMC 45 nm / 1 GHz model of the paper's experiments.
    ///
    /// Constants are chosen so the per-instruction error rate is ≈0.1 % at
    /// the 0.84 V knee and ≈30 % at 0.80 V, reproducing the "abrupt
    /// increasing of the error rate" beyond 0.84 V that flips Fig. 11.
    #[must_use]
    pub fn tsmc45() -> Self {
        Self {
            nominal_vdd: NOMINAL_VDD,
            onset_vdd: 0.85,
            base_rate: 2.4e-4,
            alpha: 142.7,
            vth: 0.30,
        }
    }

    /// A custom model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`VoltageModel::try_new`].
    #[must_use]
    pub fn new(nominal_vdd: f64, onset_vdd: f64, base_rate: f64, alpha: f64, vth: f64) -> Self {
        Self::try_new(nominal_vdd, onset_vdd, base_rate, alpha, vth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A custom model, checked without panicking.
    ///
    /// # Errors
    ///
    /// Names the first rule the parameters break: the voltages must be
    /// positive with `onset_vdd <= nominal_vdd`, `base_rate` a
    /// probability, `alpha` non-negative and `vth` in `[0, onset_vdd)`.
    pub fn try_new(
        nominal_vdd: f64,
        onset_vdd: f64,
        base_rate: f64,
        alpha: f64,
        vth: f64,
    ) -> Result<Self, &'static str> {
        if !(nominal_vdd > 0.0 && onset_vdd > 0.0) {
            return Err("voltages must be positive");
        }
        if onset_vdd > nominal_vdd {
            return Err("error onset cannot lie above nominal");
        }
        if !(0.0..=1.0).contains(&base_rate) {
            return Err("base rate must be a probability");
        }
        if alpha.is_nan() || alpha < 0.0 {
            return Err("alpha must be non-negative");
        }
        if !(0.0..onset_vdd).contains(&vth) {
            return Err("vth must sit below onset");
        }
        Ok(Self {
            nominal_vdd,
            onset_vdd,
            base_rate,
            alpha,
            vth,
        })
    }

    /// Nominal supply voltage.
    #[must_use]
    pub const fn nominal_vdd(&self) -> f64 {
        self.nominal_vdd
    }

    /// Voltage at which timing violations start to appear.
    #[must_use]
    pub const fn onset_vdd(&self) -> f64 {
        self.onset_vdd
    }

    /// Error rate at the onset voltage.
    #[must_use]
    pub const fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// Exponential growth constant (1/V) of the error rate below onset.
    #[must_use]
    pub const fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Threshold voltage of the alpha-power delay model.
    #[must_use]
    pub const fn vth(&self) -> f64 {
        self.vth
    }

    /// Per-instruction timing-error rate at supply `vdd` (constant clock).
    ///
    /// Zero at and above the onset voltage; grows exponentially below it.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive.
    #[must_use]
    pub fn error_rate(&self, vdd: f64) -> f64 {
        assert!(vdd > 0.0, "vdd must be positive, got {vdd}");
        if vdd >= self.onset_vdd {
            0.0
        } else {
            (self.base_rate * (self.alpha * (self.onset_vdd - vdd)).exp()).min(1.0)
        }
    }

    /// Dynamic-energy scale factor at `vdd`, relative to nominal (`V²/V²ₙ`).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive.
    #[must_use]
    pub fn dynamic_energy_scale(&self, vdd: f64) -> f64 {
        assert!(vdd > 0.0, "vdd must be positive, got {vdd}");
        (vdd / self.nominal_vdd).powi(2)
    }

    /// Combinational delay scale factor at `vdd`, relative to nominal,
    /// using the alpha-power law `d ∝ V / (V − V_th)^1.3`.
    ///
    /// # Panics
    ///
    /// Panics unless `vdd > vth`.
    #[must_use]
    pub fn delay_scale(&self, vdd: f64) -> f64 {
        assert!(
            vdd > self.vth,
            "vdd {vdd} must exceed the threshold voltage {}",
            self.vth
        );
        let d = |v: f64| v / (v - self.vth).powf(1.3);
        d(vdd) / d(self.nominal_vdd)
    }

    /// Whether the memoization module itself (kept at nominal voltage, with
    /// [`MEMO_MODULE_SLACK`] positive slack) can experience a timing error
    /// at this operating point. Always `false` in the modeled range — the
    /// module's supply is not scaled.
    #[must_use]
    pub fn memo_module_errs(&self, _fpu_vdd: f64) -> bool {
        false
    }
}

impl Default for VoltageModel {
    fn default() -> Self {
        Self::tsmc45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_is_error_free_unity_energy() {
        let m = VoltageModel::tsmc45();
        assert_eq!(m.error_rate(0.9), 0.0);
        assert!((m.dynamic_energy_scale(0.9) - 1.0).abs() < 1e-12);
        assert!((m.delay_scale(0.9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_rate_is_monotone_decreasing_in_vdd() {
        let m = VoltageModel::tsmc45();
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let v = 0.80 + 0.01 * f64::from(i);
            let r = m.error_rate(v);
            assert!(r <= prev, "rate must fall as vdd rises");
            prev = r;
        }
    }

    #[test]
    fn knee_behaviour_matches_paper_bands() {
        let m = VoltageModel::tsmc45();
        // Negligible at 0.84 V, abrupt below.
        assert!(m.error_rate(0.86) == 0.0);
        assert!(m.error_rate(0.84) > 0.0 && m.error_rate(0.84) < 0.01);
        assert!(m.error_rate(0.82) > m.error_rate(0.84) * 10.0);
        assert!(m.error_rate(0.80) > 0.20);
    }

    #[test]
    fn error_rate_saturates_at_one() {
        let m = VoltageModel::tsmc45();
        assert!(m.error_rate(0.5) <= 1.0);
    }

    #[test]
    fn energy_scale_is_quadratic() {
        let m = VoltageModel::tsmc45();
        let half = m.dynamic_energy_scale(0.45);
        assert!((half - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delay_grows_as_voltage_drops() {
        let m = VoltageModel::tsmc45();
        assert!(m.delay_scale(0.8) > 1.0);
        assert!(m.delay_scale(0.8) < m.delay_scale(0.7));
    }

    #[test]
    fn memo_module_never_errs_in_range() {
        let m = VoltageModel::tsmc45();
        for v in [0.8, 0.84, 0.9] {
            assert!(!m.memo_module_errs(v));
        }
    }

    #[test]
    #[should_panic(expected = "onset cannot lie above nominal")]
    fn new_validates_onset() {
        let _ = VoltageModel::new(0.9, 0.95, 0.1, 10.0, 0.3);
    }
}
