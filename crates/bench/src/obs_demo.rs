//! `repro --experiment obs-demo`: the end-to-end observability showcase.
//!
//! Runs the Sobel workload once per execution backend (sequential,
//! parallel) on a 2-CU device with a shared span recorder and a
//! windowed metrics sink attached, then exports:
//!
//! - a Chrome trace-event JSON document (Perfetto-loadable) with the
//!   device launch spans, per-wavefront cycle spans and host-side engine
//!   self-profiling spans of both backends, and
//! - a JSONL metrics dump: per-CU, per-op time-windowed hit rate, error /
//!   masked / recovery counts and energy, plus the engines' overhead
//!   counters (fallbacks).
//!
//! Each traced run is paired with a plain run (no recorder, no metrics
//! sink) and the [`tm_sim::DeviceReport`]s and kernel outputs are
//! compared, demonstrating that observability never perturbs results.

use crate::bench_hotpath::BENCH_BACKENDS;
use crate::runner::{kernel_policy, ExperimentConfig};
use tm_kernels::{workload, KernelId};
use tm_obs::{ObjWriter, SharedRecorder, WindowedSeries};
use tm_sim::sink::MetricsSink;
use tm_sim::prelude::*;
use tm_sim::METRICS_CHANNELS;

/// Window width (cycles) the demo's metrics sink folds at.
pub const OBS_METRICS_WINDOW: u64 = 1024;

/// Everything `obs-demo` produces.
#[derive(Debug, Clone)]
pub struct ObsDemoOutcome {
    /// Chrome trace-event JSON for the whole multi-backend session.
    pub trace_json: String,
    /// JSONL metrics dump (one object per line).
    pub metrics_jsonl: String,
    /// Spans retained by the recorder.
    pub spans: usize,
    /// Spans dropped past the recorder's capacity.
    pub dropped: u64,
    /// Number of JSONL metric lines emitted.
    pub metric_lines: usize,
    /// Whether every traced run's report and output were bit-identical
    /// to its untraced twin.
    pub identical: bool,
}

/// Appends one JSONL line per non-empty window of `series`.
fn series_lines(
    out: &mut String,
    backend: ExecBackend,
    cu: usize,
    op: &str,
    series: &WindowedSeries<METRICS_CHANNELS>,
) -> usize {
    let mut lines = 0;
    for (start, w) in series.iter_windows() {
        if w[MetricsSink::LANES] == 0.0 && w[MetricsSink::ENERGY_PJ] == 0.0 {
            continue;
        }
        let lanes = w[MetricsSink::LANES];
        let hits = w[MetricsSink::HITS];
        let mut obj = ObjWriter::new();
        obj.str_field("kernel", "sobel");
        obj.str_field("backend", backend.name());
        obj.u64_field("cu", cu as u64);
        obj.str_field("op", op);
        obj.u64_field("window_start", start);
        obj.u64_field("window_cycles", series.width());
        obj.u64_field("lanes", lanes as u64);
        obj.u64_field("hits", hits as u64);
        obj.f64_field("hit_rate", if lanes > 0.0 { hits / lanes } else { 0.0 });
        obj.u64_field("errors", w[MetricsSink::ERRORS] as u64);
        obj.u64_field("masked", w[MetricsSink::MASKED] as u64);
        obj.u64_field("recoveries", w[MetricsSink::RECOVERIES] as u64);
        obj.f64_field("energy_pj", w[MetricsSink::ENERGY_PJ]);
        out.push_str(&obj.finish());
        out.push('\n');
        lines += 1;
    }
    lines
}

/// Runs the demo: Sobel per backend, traced + metered, each checked
/// bit-identical against an untraced twin.
#[must_use]
pub fn obs_demo(cfg: &ExperimentConfig) -> ObsDemoOutcome {
    let rec = SharedRecorder::new();
    let mut metrics_jsonl = String::new();
    let mut metric_lines = 0usize;
    let mut identical = true;

    for &backend in &BENCH_BACKENDS {
        let base = DeviceConfig::builder()
            .with_compute_units(2)
            .with_policy(kernel_policy(KernelId::Sobel))
            .with_seed(cfg.seed)
            .with_backend(backend).build().unwrap();

        let mut traced_wl = workload::build(KernelId::Sobel, cfg.scale, cfg.seed);
        let mut traced = Device::new(
            base.clone()
                .rebuild()
                .with_metrics_window(OBS_METRICS_WINDOW)
                .build()
                .unwrap(),
        );
        traced.attach_recorder(&rec);
        let traced_out = traced_wl.run(&mut traced);

        let mut plain_wl = workload::build(KernelId::Sobel, cfg.scale, cfg.seed);
        let mut plain = Device::new(base);
        let plain_out = plain_wl.run(&mut plain);

        identical &= traced.report() == plain.report() && traced_out == plain_out;

        // End-of-run memoization totals in tm-core's stable export
        // schema — one summary line per backend next to the windows.
        let mut obj = ObjWriter::new();
        obj.str_field("kernel", "sobel");
        obj.str_field("backend", backend.name());
        obj.str_field("kind", "memo_stats");
        for (name, value) in traced.report().total_stats().named_fields() {
            obj.u64_field(name, value);
        }
        metrics_jsonl.push_str(&obj.finish());
        metrics_jsonl.push('\n');
        metric_lines += 1;

        for (cu_idx, cu) in traced.compute_units().iter().enumerate() {
            let m = cu.metrics().expect("metrics sink was configured");
            metric_lines += series_lines(&mut metrics_jsonl, backend, cu_idx, "total", m.total());
            for op in m.ops().collect::<Vec<_>>() {
                let series = m.series(op).expect("ops() only yields present series");
                metric_lines +=
                    series_lines(&mut metrics_jsonl, backend, cu_idx, op.mnemonic(), series);
            }
        }
    }

    for (name, value) in rec.counter_snapshot() {
        let mut obj = ObjWriter::new();
        obj.str_field("counter", &name);
        obj.u64_field("value", value);
        metrics_jsonl.push_str(&obj.finish());
        metrics_jsonl.push('\n');
        metric_lines += 1;
    }

    ObsDemoOutcome {
        trace_json: rec.chrome_trace_json(),
        metrics_jsonl,
        spans: rec.span_count(),
        dropped: rec.dropped(),
        metric_lines,
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_kernels::Scale;
    use tm_obs::{parse_jsonl, validate_chrome_trace};

    #[test]
    fn obs_demo_is_identical_validated_and_covers_all_backends() {
        let cfg = ExperimentConfig {
            scale: Scale::Test,
            ..ExperimentConfig::default()
        };
        let out = obs_demo(&cfg);
        assert!(out.identical, "tracing must not perturb reports or outputs");
        assert_eq!(out.dropped, 0, "demo must fit the recorder capacity");
        assert!(out.spans > 0);

        let stats = validate_chrome_trace(&out.trace_json).expect("trace must validate");
        assert_eq!(stats.spans * 2, stats.events);
        for backend in ["sequential", "parallel"] {
            assert!(
                out.trace_json.contains(&format!("\"backend\":\"{backend}\"")),
                "trace must carry launch spans from the {backend} backend"
            );
        }

        let lines = parse_jsonl(&out.metrics_jsonl).expect("metrics must parse");
        assert_eq!(lines.len(), out.metric_lines);
        let windowed: Vec<_> = lines
            .iter()
            .filter(|l| l.get("hit_rate").is_some())
            .collect();
        assert!(!windowed.is_empty(), "need per-window hit-rate lines");
        for l in &windowed {
            let lanes = l.get("lanes").and_then(tm_obs::JsonValue::as_f64).unwrap();
            let hits = l.get("hits").and_then(tm_obs::JsonValue::as_f64).unwrap();
            assert!(hits <= lanes, "hits cannot exceed lanes in a window");
        }

        // One end-of-run memo-stats summary per backend, internally
        // consistent per tm-core's invariants.
        let memo: Vec<_> = lines
            .iter()
            .filter(|l| {
                l.get("kind").and_then(tm_obs::JsonValue::as_str) == Some("memo_stats")
            })
            .collect();
        assert_eq!(memo.len(), BENCH_BACKENDS.len());
        for l in &memo {
            let field =
                |k: &str| l.get(k).and_then(tm_obs::JsonValue::as_u64).unwrap();
            assert_eq!(field("hits") + field("misses"), field("lookups"));
            assert_eq!(
                field("masked_errors") + field("recoveries"),
                field("errors_seen")
            );
        }
    }
}
