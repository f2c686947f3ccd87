//! Span recording.
//!
//! A [`Span`] is one completed duration event on a `(pid, tid)` track —
//! either wall-clock (microseconds since the recorder's origin) or
//! cycle-stamped (simulated cycles), distinguished only by which track its
//! `pid` belongs to. [`Recorder`] collects spans and named overhead
//! counters; [`SharedRecorder`] wraps it in `Arc<Mutex<..>>` so the
//! parallel engine can record from worker threads.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::chrome;
use crate::metrics::MetricsRegistry;

/// A typed span argument value, rendered into the trace `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// One completed duration event.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Event name (e.g. `kernel:sobel`, `cu0:worker`).
    pub name: String,
    /// Category, used by trace viewers for filtering (e.g. `kernel`,
    /// `parallel`, `wavefront`).
    pub cat: String,
    /// Track group. The convention is one pid per clock domain per device
    /// (wall-clock vs simulated cycles), allocated via
    /// [`Recorder::alloc_pid`].
    pub pid: u64,
    /// Track within the group (e.g. CU index, worker index, 0 for the
    /// device-level track).
    pub tid: u64,
    /// Start timestamp: microseconds for wall spans, cycles for cycle spans.
    pub ts: u64,
    /// Duration in the same unit as `ts`.
    pub dur: u64,
    /// Extra key/value payload shown in the trace viewer.
    pub args: Vec<(String, ArgValue)>,
}

/// Default maximum number of retained spans (overflow is counted, not kept).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Collects spans and overhead counters for one tracing session.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    capacity: usize,
    spans: Vec<Span>,
    dropped: u64,
    counters: MetricsRegistry,
    next_pid: u64,
}

impl Recorder {
    /// Creates a recorder with the default span capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Creates a recorder retaining at most `capacity` spans; further spans
    /// are dropped and counted in [`Recorder::dropped`].
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            capacity,
            spans: Vec::new(),
            dropped: 0,
            counters: MetricsRegistry::new(),
            next_pid: 0,
        }
    }

    /// Microseconds elapsed since the recorder was created; the timebase
    /// for wall-clock spans.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Stores a completed span (or counts it as dropped past capacity).
    pub fn record(&mut self, span: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Adds `by` to the named overhead counter.
    pub fn inc(&mut self, name: &str, by: u64) {
        self.counters.counter_add(name, by);
    }

    /// Allocates a fresh track-group id (pid). Each clock domain of each
    /// traced device takes its own pid so B/E nesting stays per-track.
    pub fn alloc_pid(&mut self) -> u64 {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// The retained spans in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans discarded because capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The overhead counter registry (steals, fallbacks, ...).
    pub fn counters(&self) -> &MetricsRegistry {
        &self.counters
    }

    /// Renders the retained spans as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        chrome::export_chrome_trace(&self.spans)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`Recorder`] shareable across threads (`Arc<Mutex<..>>`).
///
/// Cloning is cheap and all clones feed the same recorder, so one
/// `SharedRecorder` can collect a whole multi-backend session into a
/// single trace.
#[derive(Debug, Clone)]
pub struct SharedRecorder(Arc<Mutex<Recorder>>);

impl SharedRecorder {
    /// Creates a shared recorder with the default capacity.
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new(Recorder::new())))
    }

    /// Creates a shared recorder retaining at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Arc::new(Mutex::new(Recorder::with_capacity(capacity))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorder> {
        // A poisoned recorder means a panic elsewhere; observability should
        // not mask it with a second panic message, so just take the data.
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Microseconds since the recorder's origin.
    pub fn now_us(&self) -> u64 {
        self.lock().now_us()
    }

    /// Stores a completed span.
    pub fn record(&self, span: Span) {
        self.lock().record(span);
    }

    /// Adds `by` to the named overhead counter.
    pub fn inc(&self, name: &str, by: u64) {
        self.lock().inc(name, by);
    }

    /// Allocates a fresh track-group id (pid).
    pub fn alloc_pid(&self) -> u64 {
        self.lock().alloc_pid()
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        self.lock().spans().len()
    }

    /// Number of dropped (over-capacity) spans.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped()
    }

    /// Snapshot of the overhead counters as `(name, value)` pairs.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters()
            .iter()
            .filter_map(|(name, m)| match m {
                crate::metrics::Metric::Counter(v) => Some((name.to_string(), *v)),
                _ => None,
            })
            .collect()
    }

    /// Runs `f` with the locked recorder (for snapshots/tests).
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.lock())
    }

    /// Renders the retained spans as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        self.lock().chrome_trace_json()
    }
}

impl Default for SharedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: u64, dur: u64) -> Span {
        Span {
            name: name.to_string(),
            cat: "test".to_string(),
            pid: 0,
            tid: 0,
            ts,
            dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn capacity_bounds_retained_spans() {
        let mut r = Recorder::with_capacity(2);
        r.record(span("a", 0, 1));
        r.record(span("b", 1, 1));
        r.record(span("c", 2, 1));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn shared_recorder_collects_across_clones() {
        let rec = SharedRecorder::new();
        let clone = rec.clone();
        clone.record(span("x", 0, 5));
        clone.inc("steals", 3);
        rec.inc("steals", 1);
        assert_eq!(rec.span_count(), 1);
        assert_eq!(rec.counter_snapshot(), vec![("steals".to_string(), 4)]);
        assert_ne!(rec.alloc_pid(), clone.alloc_pid(), "pids are unique");
    }
}
