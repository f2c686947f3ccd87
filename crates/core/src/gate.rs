//! Adaptive power gating of a memoization module.
//!
//! The paper leaves the gating decision to software: "if an application
//! lacks value locality, it can disable the entire memoization module by
//! power-gating thus avoid any power penalty" (§4.2). This module
//! automates that decision — a tiny controller watches the module's hit
//! rate over fixed windows and power-gates it when memoization is not
//! paying for its own lookup energy, periodically re-enabling the module
//! to probe whether the program has entered a higher-locality phase.
//!
//! # Examples
//!
//! ```
//! use tm_core::{AdaptiveGate, GatePolicy};
//!
//! let mut gate = AdaptiveGate::new(GatePolicy {
//!     window: 4,
//!     min_hit_rate: 0.5,
//!     gate_period: 8,
//!     consecutive_windows: 1,
//! });
//! // A window of misses trips the gate...
//! for _ in 0..4 {
//!     assert!(!gate.should_bypass());
//!     gate.observe_access(false);
//! }
//! assert!(gate.should_bypass());
//! // ...for `gate_period` accesses, after which it probes again.
//! for _ in 0..8 {
//!     gate.observe_bypass();
//! }
//! assert!(!gate.should_bypass());
//! ```

/// Tuning of the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatePolicy {
    /// Accesses per evaluation window.
    pub window: u64,
    /// Gate when the window's hit rate falls below this.
    pub min_hit_rate: f64,
    /// How many accesses the module stays gated before probing again.
    pub gate_period: u64,
    /// How many *consecutive* low windows it takes to trip the gate —
    /// hysteresis against cold-start and transient phases.
    pub consecutive_windows: u32,
}

impl GatePolicy {
    /// Break-even default: a lookup + update costs ≈ 10 % of an ADD, so a
    /// module earning under ~5 % hits is burning energy. Two consecutive
    /// 256-access low windows must agree before tripping (cold-start
    /// hysteresis), and the 4096-access gate period keeps the probing
    /// overhead around 11 % of gated time.
    #[must_use]
    pub const fn break_even() -> Self {
        Self {
            window: 256,
            min_hit_rate: 0.05,
            gate_period: 4096,
            consecutive_windows: 2,
        }
    }

    /// Checks the policy's ranges without panicking.
    ///
    /// # Errors
    ///
    /// Names the first rule the policy breaks: `window` and
    /// `gate_period` must be positive, `min_hit_rate` a probability and
    /// `consecutive_windows` at least 1.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.window == 0 {
            return Err("window must be positive");
        }
        if self.gate_period == 0 {
            return Err("gate period must be positive");
        }
        if !(0.0..=1.0).contains(&self.min_hit_rate) {
            return Err("min hit rate must be a probability");
        }
        if self.consecutive_windows == 0 {
            return Err("need at least one window to trip");
        }
        Ok(())
    }
}

impl Default for GatePolicy {
    fn default() -> Self {
        Self::break_even()
    }
}

/// The mutable controller state of an [`AdaptiveGate`], exposed so device
/// snapshots can capture and restore a mid-run controller exactly. The
/// policy itself is configuration, not run state, and is rebuilt from the
/// device config on restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateState {
    /// Accesses observed in the current evaluation window.
    pub window_accesses: u64,
    /// Hits observed in the current evaluation window.
    pub window_hits: u64,
    /// Bypassed accesses remaining before the next probe window.
    pub gated_remaining: u64,
    /// How many times the gate has tripped.
    pub times_gated: u64,
    /// Consecutive low windows seen so far (hysteresis counter).
    pub low_windows: u32,
}

/// The controller state for one memoization module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveGate {
    policy: GatePolicy,
    window_accesses: u64,
    window_hits: u64,
    gated_remaining: u64,
    times_gated: u64,
    low_windows: u32,
}

impl AdaptiveGate {
    /// A controller with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`GatePolicy::check`].
    #[must_use]
    pub fn new(policy: GatePolicy) -> Self {
        if let Err(e) = policy.check() {
            panic!("{e}");
        }
        Self {
            policy,
            window_accesses: 0,
            window_hits: 0,
            gated_remaining: 0,
            times_gated: 0,
            low_windows: 0,
        }
    }

    /// The controller's policy.
    #[must_use]
    pub const fn policy(&self) -> GatePolicy {
        self.policy
    }

    /// Whether the module should be power-gated for the next access.
    #[must_use]
    pub const fn should_bypass(&self) -> bool {
        self.gated_remaining > 0
    }

    /// Counts one access that bypassed the gated module.
    pub fn observe_bypass(&mut self) {
        self.gated_remaining = self.gated_remaining.saturating_sub(1);
    }

    /// Counts one module access and its hit/miss outcome; may trip the
    /// gate at a window boundary.
    pub fn observe_access(&mut self, hit: bool) {
        self.window_accesses += 1;
        if hit {
            self.window_hits += 1;
        }
        if self.window_accesses >= self.policy.window {
            let rate = self.window_hits as f64 / self.window_accesses as f64;
            if rate < self.policy.min_hit_rate {
                self.low_windows += 1;
                if self.low_windows >= self.policy.consecutive_windows {
                    self.gated_remaining = self.policy.gate_period;
                    self.times_gated += 1;
                    self.low_windows = 0;
                }
            } else {
                self.low_windows = 0;
            }
            self.window_accesses = 0;
            self.window_hits = 0;
        }
    }

    /// How many times the controller has tripped the gate.
    #[must_use]
    pub const fn times_gated(&self) -> u64 {
        self.times_gated
    }

    /// The mutable controller state, for device snapshots.
    #[must_use]
    pub const fn state(&self) -> GateState {
        GateState {
            window_accesses: self.window_accesses,
            window_hits: self.window_hits,
            gated_remaining: self.gated_remaining,
            times_gated: self.times_gated,
            low_windows: self.low_windows,
        }
    }

    /// Restores snapshotted controller state; the policy is unchanged.
    pub fn restore_state(&mut self, state: GateState) {
        self.window_accesses = state.window_accesses;
        self.window_hits = state.window_hits;
        self.gated_remaining = state.gated_remaining;
        self.times_gated = state.times_gated;
        self.low_windows = state.low_windows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(window: u64, min: f64, period: u64) -> AdaptiveGate {
        AdaptiveGate::new(GatePolicy {
            window,
            min_hit_rate: min,
            gate_period: period,
            consecutive_windows: 1,
        })
    }

    #[test]
    fn high_hit_rate_never_gates() {
        let mut g = gate(8, 0.5, 16);
        for i in 0..256 {
            assert!(!g.should_bypass());
            g.observe_access(i % 4 != 0); // 75 % hits
        }
        assert_eq!(g.times_gated(), 0);
    }

    #[test]
    fn low_hit_rate_gates_at_window_boundary() {
        let mut g = gate(8, 0.5, 16);
        for _ in 0..7 {
            g.observe_access(false);
            assert!(!g.should_bypass(), "gate only trips at the boundary");
        }
        g.observe_access(false);
        assert!(g.should_bypass());
        assert_eq!(g.times_gated(), 1);
    }

    #[test]
    fn probe_resumes_after_gate_period() {
        let mut g = gate(4, 1.0, 6);
        for _ in 0..4 {
            g.observe_access(false);
        }
        for _ in 0..6 {
            assert!(g.should_bypass());
            g.observe_bypass();
        }
        assert!(!g.should_bypass(), "probe window must reopen");
    }

    #[test]
    fn windows_reset_between_evaluations() {
        let mut g = gate(4, 0.5, 8);
        // First window: all hits — stays open.
        for _ in 0..4 {
            g.observe_access(true);
        }
        assert!(!g.should_bypass());
        // Second window: all misses — gates.
        for _ in 0..4 {
            g.observe_access(false);
        }
        assert!(g.should_bypass());
    }

    #[test]
    fn hysteresis_requires_consecutive_low_windows() {
        let mut g = AdaptiveGate::new(GatePolicy {
            window: 4,
            min_hit_rate: 0.5,
            gate_period: 8,
            consecutive_windows: 2,
        });
        // One low window, one high window, one low window: never trips.
        for _ in 0..4 {
            g.observe_access(false);
        }
        for _ in 0..4 {
            g.observe_access(true);
        }
        for _ in 0..4 {
            g.observe_access(false);
        }
        assert_eq!(g.times_gated(), 0);
        // A second consecutive low window trips it.
        for _ in 0..4 {
            g.observe_access(false);
        }
        assert_eq!(g.times_gated(), 1);
        assert!(g.should_bypass());
    }

    #[test]
    fn break_even_defaults_are_sane() {
        let p = GatePolicy::break_even();
        assert!(p.window > 0 && p.gate_period > p.window);
        assert!(p.min_hit_rate > 0.0 && p.min_hit_rate < 0.5);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = gate(0, 0.5, 8);
    }
}
