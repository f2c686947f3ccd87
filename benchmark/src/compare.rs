//! `tm-benchmark compare A/ B/`: parent against change, metric by metric.
//!
//! Each directory holds the `--out` result files of one commit. Files are
//! paired in name order, so run the two commits alternately and name the
//! files by run index. For every (workload, metric) the report gives each
//! side's median and quartiles and a verdict:
//!
//! - `unresolved`: either side's quartile spread exceeds the metric's
//!   bound, unless every run of B reads better than every run of A;
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `better`: B wins at least nine tenths of the pairs and the medians
//!   differ by more than A's quartile spread;
//! - `same`: none of these. Metrics without a bound (per-layer ones) are
//!   `worse` by the mirror of the `better` rule.
//!
//! It also sums each side's failed operations per workload. B failing more
//! than A refuses the change whatever the metrics say, as does an
//! end-to-end metric that is `worse`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tm_obs::JsonValue;

use crate::stats::quartiles;

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The allowed worsening of the median, as a share of A's median;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// A comparison's outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better.
    Better,
    /// B is worse.
    Worse,
    /// No change the runs can show.
    Same,
    /// The runs spread more than the bound.
    Unresolved,
}

impl Verdict {
    /// The verdict's name in the report.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Worse => "worse",
            Self::Same => "same",
            Self::Unresolved => "unresolved",
        }
    }
}

/// `x / |base|`, with 0/0 = 0.
fn rel(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        if x == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        x / base.abs()
    }
}

/// Judges change `b` against parent `a`; run `i` of each forms pair `i`.
///
/// # Panics
/// Panics when a side has fewer than two runs.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    let beats = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    if let Some(bound) = rule.bound {
        if rel(a3 - a1, am).max(rel(b3 - b1, bm)) > bound {
            let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
            return if all_better {
                Verdict::Better
            } else {
                Verdict::Unresolved
            };
        }
        let worse_by = if rule.higher_is_better {
            am - bm
        } else {
            bm - am
        };
        if rel(worse_by, am) > bound {
            return Verdict::Worse;
        }
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| beats(a[i], b[i])).count();
    if (bm - am).abs() > a3 - a1 {
        if wins * 10 >= pairs * 9 {
            return Verdict::Better;
        }
        if rule.bound.is_none() && losses * 10 >= pairs * 9 {
            return Verdict::Worse;
        }
    }
    Verdict::Same
}

/// Reads the metric rules from a `BENCHMARK.json` document.
///
/// # Errors
/// When the document does not parse or lacks the metric lists.
pub fn rules(spec: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = JsonValue::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = doc
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
        for m in list {
            let name = m
                .get_str("name")
                .ok_or_else(|| format!("BENCHMARK.json: a {key} metric has no name"))?;
            let rule = Rule {
                higher_is_better: m.get_str("better") == Some("higher"),
                bound: m.get_f64("bound"),
            };
            out.insert(name.to_string(), rule);
        }
    }
    Ok(out)
}

/// The result files of one commit.
#[derive(Debug, Default)]
pub struct Runs {
    /// Values per (workload, metric), in file order.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Failed operations per workload, summed over the files.
    pub failed: BTreeMap<String, u64>,
}

impl Runs {
    /// Adds one `--out` result document.
    ///
    /// # Errors
    /// When the document does not parse or lacks its workload or its
    /// failed-operation count.
    pub fn add(&mut self, text: &str) -> Result<(), String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let workload = doc.get_str("workload").ok_or("no workload")?;
        let failed = doc.get_u64("ops_failed").ok_or("no ops_failed")?;
        *self.failed.entry(workload.to_string()).or_default() += failed;
        for section in ["e2e", "layers"] {
            let Some(metrics) = doc.get(section).and_then(JsonValue::as_obj) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get_f64("value") {
                    self.values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
        Ok(())
    }
}

/// The result files of `dir`, in file-name order.
///
/// # Errors
/// When the directory or a file cannot be read or parsed.
pub fn load(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Runs::default();
    for path in files {
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| runs.add(&text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(runs)
}

fn num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e5 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Compares the runs in `a` (parent) and `b` (change) under `rules`.
/// Returns the report and whether the change is refused: an end-to-end
/// metric got worse, or B's runs failed more operations than A's.
///
/// # Errors
/// When a directory cannot be read.
pub fn compare(
    a: &Path,
    b: &Path,
    rules: &BTreeMap<String, Rule>,
) -> Result<(String, bool), String> {
    Ok(compare_runs(&load(a)?, &load(b)?, rules))
}

/// [`compare`] on loaded runs.
#[must_use]
pub fn compare_runs(a: &Runs, b: &Runs, rules: &BTreeMap<String, Rule>) -> (String, bool) {
    let mut report = String::new();
    let mut worse = false;
    // A gain does not count when more operations fail than at the parent.
    let workloads: std::collections::BTreeSet<&String> =
        a.failed.keys().chain(b.failed.keys()).collect();
    for workload in workloads {
        let count = |r: &Runs| r.failed.get(workload).copied().unwrap_or(0);
        let (fa, fb) = (count(a), count(b));
        let verdict = if fb > fa { "worse" } else { "same" };
        worse |= fb > fa;
        let _ = writeln!(
            report,
            "{workload:<18} {:<36} A {fa}  B {fb}  {verdict}",
            "failed operations"
        );
    }
    for ((workload, metric), va) in &a.values {
        let (Some(rule), Some(vb)) = (
            rules.get(metric),
            b.values.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        if va.len() < 2 || vb.len() < 2 {
            let _ = writeln!(report, "{workload:<18} {metric:<36} needs two runs a side");
            continue;
        }
        let v = verdict(va, vb, *rule);
        worse |= v == Verdict::Worse && rule.bound.is_some();
        let ([a1, am, a3], [b1, bm, b3]) = (quartiles(va), quartiles(vb));
        let _ = writeln!(
            report,
            "{workload:<18} {metric:<36} A {} [{}, {}] n={}  B {} [{}, {}] n={}  {:+.2}%  {}",
            num(am),
            num(a1),
            num(a3),
            va.len(),
            num(bm),
            num(b1),
            num(b3),
            vb.len(),
            rel(bm - am, am) * 100.0,
            v.name()
        );
    }
    (report, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.1),
    };

    #[test]
    fn identical_runs_are_the_same() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, LOWER), Verdict::Same);
    }

    #[test]
    fn a_shift_beyond_the_bound_is_worse() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Worse);
    }

    #[test]
    fn consistent_wins_beyond_the_spread_are_better() {
        let a = [
            10.0, 10.1, 9.9, 10.0, 10.05, 10.02, 9.95, 10.03, 9.98, 10.01,
        ];
        let b = a.map(|x| x * 0.95);
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Better);
        let higher = Rule {
            higher_is_better: true,
            bound: None,
        };
        assert_eq!(verdict(&a, &b, higher), Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 10.0, 15.0, 10.0, 12.0];
        let b = [6.0, 11.0, 14.0, 9.0, 12.0];
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Unresolved);
    }

    fn runs(latencies: &[f64], failed: u64) -> Runs {
        let mut r = Runs::default();
        for v in latencies {
            let doc = format!(
                r#"{{"workload": "w", "e2e": {{"op_ms_p50": {{"value": {v}, "unit": "ms"}}}},
                   "layers": {{}}, "ops_attempted": 10, "ops_failed": {failed}}}"#
            );
            r.add(&doc).unwrap();
        }
        r
    }

    #[test]
    fn more_failed_operations_refuse_a_faster_change() {
        let rules = BTreeMap::from([("op_ms_p50".to_string(), LOWER)]);
        let a = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 10.02, 9.95, 10.03, 9.98, 10.01], 0);
        let faster: Vec<f64> = a.values[&("w".into(), "op_ms_p50".into())]
            .iter()
            .map(|x| x * 0.8)
            .collect();
        let (report, refused) = compare_runs(&a, &runs(&faster, 0), &rules);
        assert!(!refused && report.contains("better"), "{report}");
        let (report, refused) = compare_runs(&a, &runs(&faster, 1), &rules);
        assert!(refused, "{report}");
        assert!(report.contains("A 0  B 10  worse"), "{report}");
        assert!(Runs::default().add(r#"{"workload": "w"}"#).is_err());
    }

    #[test]
    fn rules_come_from_the_benchmark_spec() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let rules = rules(&spec).unwrap();
        assert!(!rules["setup_s"].higher_is_better);
        assert!(rules["setup_s"].bound.is_some());
        assert!(rules["core.hit_rate"].bound.is_none());
    }
}
