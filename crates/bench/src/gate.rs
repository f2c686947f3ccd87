//! Bench regression gate (`repro --experiment bench --gate`).
//!
//! Compares the frozen `baseline` half of `BENCH_hotpath.json` against
//! the freshly measured `current` half and fails any case whose
//! throughput dropped by more than the allowed fraction.
//!
//! Raw instr/s is not comparable across machines (or across load on the
//! same machine), so the gate first normalizes by the **median**
//! current/baseline ratio over every (case, backend) pair the two sets
//! share: uniform host-speed drift moves every ratio equally and the
//! median absorbs it, while a regression confined to a few cases drags
//! those cases below the median and trips the floor. Cases present on
//! only one side (renamed, added, removed) are skipped, not failed.

use crate::bench_hotpath::BenchRow;
use tm_obs::JsonValue;

/// Throughput floor as a fraction of the (normalized) baseline.
/// `0.8` = fail on a >20% instr/s drop per case.
pub const GATE_FLOOR: f64 = 0.8;

/// One gated (case, backend) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Workload case name (`Sobel`, `Haar`, ...).
    pub case: String,
    /// Backend label (`sequential`, `parallel`).
    pub backend: String,
    /// Baseline throughput, instructions per second.
    pub baseline_ips: f64,
    /// Current throughput, instructions per second.
    pub current_ips: f64,
    /// Raw current/baseline ratio.
    pub ratio: f64,
    /// Ratio divided by the run's median ratio (host-drift corrected).
    pub normalized: f64,
}

impl GateEntry {
    /// Whether this case clears `floor` after normalization.
    #[must_use]
    pub fn passes(&self, floor: f64) -> bool {
        self.normalized >= floor
    }
}

/// Outcome of one gate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Every compared (case, backend) pair, in baseline order.
    pub entries: Vec<GateEntry>,
    /// The median current/baseline ratio used for normalization.
    pub median_ratio: f64,
    /// The floor entries were judged against.
    pub floor: f64,
}

impl GateReport {
    /// Entries below the floor.
    #[must_use]
    pub fn failures(&self) -> Vec<&GateEntry> {
        self.entries.iter().filter(|e| !e.passes(self.floor)).collect()
    }

    /// Whether every compared case cleared the floor.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.entries.iter().all(|e| e.passes(self.floor))
    }
}

/// Pulls `(case, backend, instr_per_sec)` triples out of one half of the
/// bench JSON.
fn extract_rows(json: &str) -> Result<Vec<(String, String, f64)>, String> {
    let parsed = JsonValue::parse(json).map_err(|e| format!("bench JSON: {e}"))?;
    let rows = parsed
        .get("rows")
        .and_then(JsonValue::as_arr)
        .ok_or("bench JSON has no rows array")?;
    rows.iter()
        .map(|r| {
            let field = |k: &str| r.get(k).ok_or_else(|| format!("row missing {k}"));
            let case = field("case")?.as_str().ok_or("case is not a string")?;
            let backend = field("backend")?.as_str().ok_or("backend is not a string")?;
            let ips = field("instr_per_sec")?
                .as_f64()
                .ok_or("instr_per_sec is not a number")?;
            Ok((case.to_owned(), backend.to_owned(), ips))
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Gates `current` rows against `baseline_json` (one half of
/// `BENCH_hotpath.json`) at `floor`.
///
/// # Errors
///
/// Returns a message when the baseline JSON is malformed, or when the
/// two sets share no (case, backend) pair (nothing to gate — a silent
/// pass here would make a full rename wipe out the gate).
pub fn bench_gate(
    baseline_json: &str,
    current: &[BenchRow],
    floor: f64,
) -> Result<GateReport, String> {
    let baseline = extract_rows(baseline_json)?;
    let mut entries: Vec<GateEntry> = baseline
        .into_iter()
        .filter_map(|(case, backend, baseline_ips)| {
            let cur = current.iter().find(|r| {
                r.case == case && crate::backend_label(r.backend) == backend
            })?;
            Some(GateEntry {
                case,
                backend,
                baseline_ips,
                current_ips: cur.instr_per_sec,
                ratio: cur.instr_per_sec / baseline_ips,
                normalized: 0.0,
            })
        })
        .collect();
    if entries.is_empty() {
        return Err("baseline and current share no (case, backend) pair".into());
    }
    let median_ratio = median(entries.iter().map(|e| e.ratio).collect());
    for e in &mut entries {
        e.normalized = if median_ratio > 0.0 { e.ratio / median_ratio } else { 0.0 };
    }
    Ok(GateReport {
        entries,
        median_ratio,
        floor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::ExecBackend;

    fn baseline_json(rows: &[(&str, &str, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(c, b, ips)| {
                format!(
                    "{{\"case\": \"{c}\", \"backend\": \"{b}\", \"instructions\": 100, \"wall_ms\": 1.0, \"instr_per_sec\": {ips}}}"
                )
            })
            .collect();
        format!("{{\"host_cores\": 4, \"rows\": [{}]}}", body.join(", "))
    }

    fn current(rows: &[(&str, f64)]) -> Vec<BenchRow> {
        rows.iter()
            .map(|(c, ips)| BenchRow {
                case: (*c).to_owned(),
                backend: ExecBackend::Sequential,
                instructions: 100,
                wall_ms: 1.0,
                instr_per_sec: *ips,
            })
            .collect()
    }

    #[test]
    fn uniform_host_slowdown_passes() {
        // Everything 2x slower: the median absorbs it entirely.
        let base = baseline_json(&[
            ("a", "sequential", 1000.0),
            ("b", "sequential", 2000.0),
            ("c", "sequential", 3000.0),
        ]);
        let cur = current(&[("a", 500.0), ("b", 1000.0), ("c", 1500.0)]);
        let report = bench_gate(&base, &cur, GATE_FLOOR).unwrap();
        assert!((report.median_ratio - 0.5).abs() < 1e-12);
        assert!(report.passed(), "{:?}", report.failures());
    }

    #[test]
    fn single_case_regression_fails_only_that_case() {
        let base = baseline_json(&[
            ("a", "sequential", 1000.0),
            ("b", "sequential", 1000.0),
            ("c", "sequential", 1000.0),
        ]);
        // a and b hold steady; c loses 50%.
        let cur = current(&[("a", 1000.0), ("b", 1000.0), ("c", 500.0)]);
        let report = bench_gate(&base, &cur, GATE_FLOOR).unwrap();
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].case, "c");
    }

    #[test]
    fn within_tolerance_drop_passes() {
        let base = baseline_json(&[
            ("a", "sequential", 1000.0),
            ("b", "sequential", 1000.0),
            ("c", "sequential", 1000.0),
        ]);
        // c drops 15% — inside the 20% allowance.
        let cur = current(&[("a", 1000.0), ("b", 1000.0), ("c", 850.0)]);
        let report = bench_gate(&base, &cur, GATE_FLOOR).unwrap();
        assert!(report.passed(), "{:?}", report.failures());
    }

    #[test]
    fn renamed_cases_are_skipped_but_full_rename_errors() {
        let base = baseline_json(&[
            ("old-name", "sequential", 1000.0),
            ("kept", "sequential", 1000.0),
        ]);
        let cur = current(&[("new-name", 1.0), ("kept", 990.0)]);
        let report = bench_gate(&base, &cur, GATE_FLOOR).unwrap();
        assert_eq!(report.entries.len(), 1, "only the shared case is gated");
        assert!(report.passed());

        let all_renamed = current(&[("new-name", 1.0)]);
        assert!(bench_gate(&base, &all_renamed, GATE_FLOOR).is_err());
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(bench_gate("not json", &current(&[("a", 1.0)]), GATE_FLOOR).is_err());
        assert!(bench_gate("{\"rows\": 3}", &current(&[("a", 1.0)]), GATE_FLOOR).is_err());
    }
}
