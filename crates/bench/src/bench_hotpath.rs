//! Hot-path throughput benchmark (`repro --experiment bench`).
//!
//! Measures simulator throughput — lane instructions per wall-clock
//! second — for every kernel workload, per execution backend. The `repro`
//! binary serializes the rows to `BENCH_hotpath.json`, preserving the
//! first-ever run as a frozen baseline so the perf trajectory is tracked
//! across PRs (and gated by `--gate`; see [`crate::bench_gate`]).

use crate::runner::{kernel_policy, ExperimentConfig};
use std::time::Instant;
use tm_kernels::{workload, ALL_KERNELS};
use tm_sim::prelude::*;

/// One (case, backend) throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Workload name: the kernel id.
    pub case: String,
    /// Execution backend the device ran on.
    pub backend: ExecBackend,
    /// Lane instructions retired in one run.
    pub instructions: u64,
    /// Best-of-repeats wall-clock time for one run, milliseconds.
    pub wall_ms: f64,
    /// Throughput: `instructions / wall seconds`.
    pub instr_per_sec: f64,
}

/// Backends the bench sweeps.
pub const BENCH_BACKENDS: [ExecBackend; 3] =
    [ExecBackend::Sequential, ExecBackend::Parallel, ExecBackend::IntraCu];

/// Short stable name for a backend (used as the JSON key).
#[must_use]
pub fn backend_label(backend: ExecBackend) -> &'static str {
    backend.name()
}

fn time_best_of<F: FnMut() -> u64>(repeats: usize, mut run: F) -> (u64, f64) {
    let mut instructions = 0;
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        instructions = run();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if elapsed < best {
            best = elapsed;
        }
    }
    (instructions, best)
}

fn row(case: &str, backend: ExecBackend, (instructions, wall_ms): (u64, f64)) -> BenchRow {
    BenchRow {
        case: case.to_owned(),
        backend,
        instructions,
        wall_ms,
        instr_per_sec: instructions as f64 / (wall_ms / 1e3),
    }
}

/// Sweeps every kernel workload on a **single-CU** device (the
/// configuration where hot-path cost is undiluted by CU-level
/// parallelism) across all backends, at the workload's Table-1 matching
/// policy.
#[must_use]
pub fn hotpath_bench(cfg: &ExperimentConfig, repeats: usize) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for &backend in &BENCH_BACKENDS {
        for id in ALL_KERNELS {
            let device_config = DeviceConfig::builder()
                .with_compute_units(1)
                .with_policy(kernel_policy(id))
                .with_seed(cfg.seed)
                .with_backend(backend).build().unwrap();
            let timing = time_best_of(repeats, || {
                let mut wl = workload::build(id, cfg.scale, cfg.seed);
                let mut device = Device::new(device_config.clone());
                let _ = wl.run(&mut device);
                device.report().total_instructions()
            });
            rows.push(row(id.name(), backend, timing));
        }
    }
    rows
}

/// Renders rows (plus host metadata) as a JSON object, collecting run
/// metadata on the spot with no caller-supplied timestamp. See
/// [`rows_to_json_with_meta`].
#[must_use]
pub fn rows_to_json(rows: &[BenchRow]) -> String {
    rows_to_json_with_meta(rows, &tm_obs::RunMeta::collect(None))
}

/// Renders rows (plus run metadata) as a JSON object. Hand-rolled —
/// the workspace is hermetic, no serde.
///
/// The header carries the attribution fields (`git_rev`, `host_cores`,
/// the caller's `timestamp`); the host core count additionally appears
/// in every row: `BENCH_hotpath.json` keeps the first-ever run as a
/// frozen baseline, so each entry must carry the parallelism it was
/// measured under even after baseline and current were produced on
/// different hosts.
#[must_use]
pub fn rows_to_json_with_meta(rows: &[BenchRow], meta: &tm_obs::RunMeta) -> String {
    let cores = meta.host_cores;
    let mut out = String::from("{\n");
    let str_or_null = |out: &mut String, key: &str, value: &Option<String>| {
        out.push_str(&format!("  \"{key}\": "));
        match value {
            Some(v) => {
                out.push('"');
                tm_obs::json::escape_into(out, v);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\n");
    };
    str_or_null(&mut out, "git_rev", &meta.git_rev);
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    str_or_null(&mut out, "timestamp", &meta.timestamp);
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"backend\": \"{}\", \"host_cores\": {cores}, \"instructions\": {}, \"wall_ms\": {:.3}, \"instr_per_sec\": {:.0}}}{sep}\n",
            r.case,
            backend_label(r.backend),
            r.instructions,
            r.wall_ms,
            r.instr_per_sec,
        ));
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_kernels::Scale;

    #[test]
    fn bench_produces_rows_for_every_case_and_backend() {
        let cfg = ExperimentConfig {
            scale: Scale::Test,
            ..ExperimentConfig::default()
        };
        let rows = hotpath_bench(&cfg, 1);
        assert_eq!(rows.len(), ALL_KERNELS.len() * BENCH_BACKENDS.len());
        for r in &rows {
            assert!(r.instructions > 0, "{}: no instructions", r.case);
            assert!(r.instr_per_sec > 0.0, "{}: no throughput", r.case);
        }
        // Reports are backend-invariant, so every backend retires the
        // same instruction count per kernel.
        for id in ALL_KERNELS {
            let counts: Vec<u64> = rows
                .iter()
                .filter(|r| r.case == id.name())
                .map(|r| r.instructions)
                .collect();
            assert_eq!(counts.len(), BENCH_BACKENDS.len(), "{id}");
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{id}: {counts:?}");
        }
    }

    #[test]
    fn json_is_structurally_sane() {
        let rows = vec![super::row("x", ExecBackend::Sequential, (10, 2.0))];
        let json = rows_to_json(&rows);
        assert!(json.contains("\"case\": \"x\""));
        assert!(json.contains("\"backend\": \"sequential\""));
        assert!(json.contains("\"instr_per_sec\": 5000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Host metadata rides along in every row, not just the header.
        assert_eq!(json.matches("\"host_cores\":").count(), 1 + rows.len());
        let parsed = tm_obs::JsonValue::parse(&json).expect("bench JSON parses");
        let row = &parsed.get("rows").and_then(tm_obs::JsonValue::as_arr).unwrap()[0];
        assert_eq!(
            row.get("host_cores").and_then(tm_obs::JsonValue::as_u64),
            parsed.get("host_cores").and_then(tm_obs::JsonValue::as_u64)
        );
        // Attribution fields are always present (null when unknown).
        assert!(parsed.get("git_rev").is_some());
        assert!(parsed.get("timestamp").is_some());
    }

    #[test]
    fn meta_header_round_trips_with_escaping() {
        let rows = vec![super::row("x", ExecBackend::Parallel, (10, 2.0))];
        let meta = tm_obs::RunMeta {
            git_rev: Some("abc1234".into()),
            host_cores: 6,
            timestamp: Some("2026-08-08 12:00 \"local\"".into()),
        };
        let json = rows_to_json_with_meta(&rows, &meta);
        let parsed = tm_obs::JsonValue::parse(&json).expect("bench JSON parses");
        assert_eq!(parsed.get("git_rev").unwrap().as_str(), Some("abc1234"));
        assert_eq!(parsed.get("host_cores").unwrap().as_u64(), Some(6));
        assert_eq!(
            parsed.get("timestamp").unwrap().as_str(),
            Some("2026-08-08 12:00 \"local\"")
        );
        let absent = rows_to_json_with_meta(
            &rows,
            &tm_obs::RunMeta {
                git_rev: None,
                host_cores: 6,
                timestamp: None,
            },
        );
        let parsed = tm_obs::JsonValue::parse(&absent).unwrap();
        assert_eq!(parsed.get("git_rev"), Some(&tm_obs::JsonValue::Null));
        assert_eq!(parsed.get("timestamp"), Some(&tm_obs::JsonValue::Null));
    }
}
