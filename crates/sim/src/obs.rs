//! Device-level observability: the span-recording and telemetry handle
//! the engines thread through kernel dispatch.
//!
//! A [`DeviceObs`] is an optional, cheaply cloneable handle carrying up
//! to two backends:
//!
//! * a [`SharedRecorder`] (via [`crate::Device::attach_recorder`]) for
//!   **post-hoc tracing** — cycle-stamped spans on the device's *cycle*
//!   track group (kernel launches and per-wavefront execution, tid =
//!   compute-unit index; wavefronts of in-flight slot *k* > 0 use track
//!   `cu + k × CUs`), wall-clock spans on the *wall* track group
//!   (per-CU worker threads), and named overhead counters (engine
//!   fallbacks);
//! * a [`TelemetryHub`] (via [`crate::Device::attach_hub`]) for **live
//!   telemetry** — the same overhead counters published as hub counters
//!   under the device's scope prefix, plus per-launch latency sketches,
//!   hit-rate/energy gauges and error/recovery tallies published by the
//!   device itself after every launch.
//!
//! Either backend can be attached alone or both together. Recording
//! never changes simulation results: the handle only *reads* cycle
//! counters and wall clocks around the existing execution paths, so
//! [`crate::DeviceReport`]s stay bit-identical with and without a
//! recorder or hub attached (asserted in `tests/obs.rs`).

use tm_obs::{ArgValue, SharedRecorder, Span, TelemetryHub};

/// The observability handle one device (and its engines) records through.
///
/// When a recorder is attached the handle owns two track groups (`pid`s)
/// allocated from it — one for wall-clock spans, one for cycle-stamped
/// spans — so several devices (e.g. one per backend in an A/B run) can
/// share a recorder without their span nesting colliding. When a hub is
/// attached the handle owns a dot-terminated scope prefix, so several
/// devices can share a hub and a reused device can clear exactly its
/// own series.
#[derive(Debug, Clone)]
pub struct DeviceObs {
    rec: Option<SharedRecorder>,
    wall_pid: u64,
    cycle_pid: u64,
    hub: Option<TelemetryHub>,
    scope: String,
}

impl DeviceObs {
    /// Creates a handle recording into `rec`, allocating the device's
    /// wall-clock and cycle track groups. No hub is bound.
    #[must_use]
    pub fn attach(rec: &SharedRecorder) -> Self {
        Self {
            rec: Some(rec.clone()),
            wall_pid: rec.alloc_pid(),
            cycle_pid: rec.alloc_pid(),
            hub: None,
            scope: String::new(),
        }
    }

    /// Creates a handle publishing only into `hub` under `scope` (no
    /// span recorder; span methods become no-ops).
    #[must_use]
    pub fn hub_only(hub: &TelemetryHub, scope: &str) -> Self {
        Self {
            rec: None,
            wall_pid: 0,
            cycle_pid: 0,
            hub: Some(hub.clone()),
            scope: scope.to_string(),
        }
    }

    /// Binds (or rebinds) a hub and scope onto this handle, keeping any
    /// recorder.
    pub fn bind_hub(&mut self, hub: &TelemetryHub, scope: &str) {
        self.hub = Some(hub.clone());
        self.scope = scope.to_string();
    }

    /// Drops the hub binding, returning it (keeps any recorder).
    pub fn take_hub(&mut self) -> Option<(TelemetryHub, String)> {
        let hub = self.hub.take()?;
        Some((hub, std::mem::take(&mut self.scope)))
    }

    /// The bound hub and scope, if any.
    #[must_use]
    pub fn hub(&self) -> Option<(&TelemetryHub, &str)> {
        self.hub.as_ref().map(|h| (h, self.scope.as_str()))
    }

    /// Whether a span recorder is attached.
    #[must_use]
    pub const fn has_recorder(&self) -> bool {
        self.rec.is_some()
    }

    /// Removes every hub series under this handle's scope, returning
    /// how many were cleared (0 without a hub).
    pub fn clear_hub_series(&self) -> usize {
        match &self.hub {
            Some(hub) => hub.remove_prefix(&self.scope),
            None => 0,
        }
    }

    /// The track group carrying wall-clock (host-side) spans.
    #[must_use]
    pub const fn wall_pid(&self) -> u64 {
        self.wall_pid
    }

    /// The track group carrying cycle-stamped (simulated-time) spans.
    #[must_use]
    pub const fn cycle_pid(&self) -> u64 {
        self.cycle_pid
    }

    /// Microseconds since the recorder's origin — the start timestamp
    /// for a wall-clock span. 0 without a recorder.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.rec.as_ref().map_or(0, SharedRecorder::now_us)
    }

    /// Records a completed wall-clock span that started at `start_us`
    /// (from [`DeviceObs::now_us`]) on wall track `tid`. No-op without
    /// a recorder.
    pub fn wall_span(
        &self,
        name: impl Into<String>,
        cat: &str,
        tid: u64,
        start_us: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        let Some(rec) = &self.rec else { return };
        let now = rec.now_us();
        rec.record(Span {
            name: name.into(),
            cat: cat.to_string(),
            pid: self.wall_pid,
            tid,
            ts: start_us,
            dur: now.saturating_sub(start_us),
            args,
        });
    }

    /// Records a completed cycle-stamped span covering
    /// `start_cycle..end_cycle` on cycle track `tid` (one track per
    /// compute unit by convention). No-op without a recorder.
    pub fn cycle_span(
        &self,
        name: impl Into<String>,
        cat: &str,
        tid: u64,
        start_cycle: u64,
        end_cycle: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        let Some(rec) = &self.rec else { return };
        rec.record(Span {
            name: name.into(),
            cat: cat.to_string(),
            pid: self.cycle_pid,
            tid,
            ts: start_cycle,
            dur: end_cycle.saturating_sub(start_cycle),
            args,
        });
    }

    /// Adds `by` to a named overhead counter on every attached backend:
    /// the shared recorder's counter table and, under the device scope,
    /// the telemetry hub.
    pub fn inc(&self, name: &str, by: u64) {
        if let Some(rec) = &self.rec {
            rec.inc(name, by);
        }
        if let Some(hub) = &self.hub {
            hub.counter_add(&format!("{}{name}", self.scope), by);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_allocates_distinct_track_groups() {
        let rec = SharedRecorder::new();
        let a = DeviceObs::attach(&rec);
        let b = DeviceObs::attach(&rec);
        let pids = [a.wall_pid(), a.cycle_pid(), b.wall_pid(), b.cycle_pid()];
        for (i, p) in pids.iter().enumerate() {
            for q in &pids[i + 1..] {
                assert_ne!(p, q, "track groups must not collide");
            }
        }
    }

    #[test]
    fn spans_land_on_the_right_tracks() {
        let rec = SharedRecorder::new();
        let obs = DeviceObs::attach(&rec);
        let t0 = obs.now_us();
        obs.wall_span("host", "test", 0, t0, Vec::new());
        obs.cycle_span("sim", "test", 3, 100, 164, Vec::new());
        obs.inc("engine.small_kernel_sequential", 2);
        rec.with(|r| {
            assert_eq!(r.spans().len(), 2);
            assert_eq!(r.spans()[0].pid, obs.wall_pid());
            assert_eq!(r.spans()[1].pid, obs.cycle_pid());
            assert_eq!(r.spans()[1].ts, 100);
            assert_eq!(r.spans()[1].dur, 64);
            assert_eq!(r.spans()[1].tid, 3);
        });
        assert_eq!(
            rec.counter_snapshot(),
            vec![("engine.small_kernel_sequential".to_string(), 2)]
        );
    }

    #[test]
    fn hub_only_handle_publishes_counters_and_skips_spans() {
        let hub = TelemetryHub::new();
        let obs = DeviceObs::hub_only(&hub, "sim0.");
        assert!(!obs.has_recorder());
        obs.inc("engine.small_kernel_sequential", 3);
        obs.wall_span("ignored", "test", 0, 0, Vec::new());
        obs.cycle_span("ignored", "test", 0, 0, 1, Vec::new());
        assert_eq!(hub.counter("sim0.engine.small_kernel_sequential"), 3);
        assert_eq!(hub.len(), 1, "span calls must not create series");
        assert_eq!(obs.clear_hub_series(), 1);
        assert!(hub.is_empty());
    }

    #[test]
    fn inc_feeds_recorder_and_hub_together() {
        let rec = SharedRecorder::new();
        let hub = TelemetryHub::new();
        let mut obs = DeviceObs::attach(&rec);
        obs.bind_hub(&hub, "dev3.");
        obs.inc("engine.fallback_to_sequential", 1);
        assert_eq!(
            rec.counter_snapshot(),
            vec![("engine.fallback_to_sequential".to_string(), 1)]
        );
        assert_eq!(hub.counter("dev3.engine.fallback_to_sequential"), 1);
        let (taken_hub, scope) = obs.take_hub().expect("hub was bound");
        assert_eq!(scope, "dev3.");
        taken_hub.counter_add("x", 1);
        assert!(obs.hub().is_none());
    }
}
