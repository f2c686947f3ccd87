//! A plain-struct metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by name, exportable as JSONL.
//!
//! Everything is a value type (`Clone`, no trait objects, no interior
//! mutability) so structs embedding a registry — like the simulator's
//! per-CU sinks — keep their derived `Clone`/`Debug` impls.

use std::collections::BTreeMap;

use crate::json::{f64_array, u64_array, ObjWriter};

/// A fixed-bucket histogram.
///
/// `bounds` are inclusive upper bucket edges in ascending order; an extra
/// overflow bucket catches everything above the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self.bounds.partition_point(|b| value > *b);
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observed values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Zeroes all counts, keeping the bucket layout.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.sum = 0.0;
        self.total = 0;
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Last-write-wins sampled value.
    Gauge(f64),
    /// Distribution over fixed buckets.
    Histogram(Histogram),
}

/// A name-keyed collection of [`Metric`]s.
///
/// Names are free-form; the convention used across the workspace is
/// dot-separated components, e.g. `engine.fallback_to_sequential`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter_add(&mut self, name: &str, by: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += by,
            other => panic!("metric '{name}' is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric '{name}' is not a gauge: {other:?}"),
        }
    }

    /// Records `value` into the histogram `name`, creating it with `bounds`
    /// if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("metric '{name}' is not a histogram: {other:?}"),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The current value of counter `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Zeroes every metric in place, keeping names and bucket layouts.
    pub fn reset(&mut self) {
        for m in self.metrics.values_mut() {
            match m {
                Metric::Counter(v) => *v = 0,
                Metric::Gauge(v) => *v = 0.0,
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders the registry as JSONL: one `{"metric": ...}` object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let mut w = ObjWriter::new();
            w.str_field("metric", name);
            match metric {
                Metric::Counter(v) => {
                    w.str_field("type", "counter");
                    w.u64_field("value", *v);
                }
                Metric::Gauge(v) => {
                    w.str_field("type", "gauge");
                    w.f64_field("value", *v);
                }
                Metric::Histogram(h) => {
                    w.str_field("type", "histogram");
                    w.u64_field("count", h.count());
                    w.f64_field("sum", h.sum());
                    w.raw_field("bounds", &f64_array(h.bounds()));
                    w.raw_field("counts", &u64_array(h.counts()));
                }
            }
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_jsonl;

    #[test]
    fn counters_gauges_histograms_register_and_reset() {
        let mut r = MetricsRegistry::new();
        r.counter_add("steals", 3);
        r.counter_add("steals", 2);
        r.gauge_set("occupancy", 0.75);
        r.observe("merge_us", &[10.0, 100.0, 1000.0], 42.0);
        r.observe("merge_us", &[10.0, 100.0, 1000.0], 5000.0);
        assert_eq!(r.counter("steals"), 5);
        assert_eq!(r.get("occupancy"), Some(&Metric::Gauge(0.75)));
        let Some(Metric::Histogram(h)) = r.get("merge_us") else {
            panic!("missing histogram")
        };
        assert_eq!(h.counts(), &[0, 1, 0, 1]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), 2521.0);
        r.reset();
        assert_eq!(r.counter("steals"), 0);
        assert_eq!(r.len(), 3, "reset keeps names");
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // first bucket (<= 1.0)
        h.observe(1.5); // second bucket
        h.observe(2.5); // overflow
        assert_eq!(h.counts(), &[1, 1, 1]);
    }

    #[test]
    fn jsonl_export_parses_cleanly() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a.count", 7);
        r.gauge_set("b.rate", 0.5);
        r.observe("c.hist", &[1.0], 0.25);
        let lines = parse_jsonl(&r.to_jsonl()).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("metric").unwrap().as_str(), Some("a.count"));
        assert_eq!(lines[0].get("value").unwrap().as_u64(), Some(7));
        assert_eq!(lines[2].get("counts").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("x", 1.0);
        r.counter_add("x", 1);
    }
}
