//! Runs every workload for one input cycle and checks what the benchmark
//! promises: declared metrics, units and names, zero failures, the pinned
//! digests, the p90 sample rule, and well-formed traces.

use tm_benchmark::{metrics, pinned, run, RunConfig, Workload};
use tm_obs::JsonValue;

fn tiny(trace: bool) -> RunConfig {
    // A zero-length window still runs one input cycle, which gives at
    // least four operations (kernels-default and campaign-injected).
    RunConfig {
        seconds: 0.0,
        trace,
        setup_repeats: 1,
        min_tail_samples: 4,
    }
}

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get_str("name").unwrap().to_string(),
                m.get_str("unit").unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn the_spec_declares_what_the_benchmark_reports() {
    let spec = spec();
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(
        declared(&spec, "end_to_end"),
        as_owned(&metrics::END_TO_END)
    );
    assert_eq!(declared(&spec, "per_layer"), as_owned(&metrics::PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get_str("name").unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for (name, _) in declared(&spec, "end_to_end")
        .iter()
        .chain(&declared(&spec, "per_layer"))
    {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
}

#[test]
fn every_workload_reports_every_metric_without_failures() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = run(workload, 0, &tiny(trace))
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let what = format!("{} trace={trace}", workload.name());
            assert!(r.errors.is_empty(), "{what}: {:?}", r.errors);
            assert!(r.attempted > 0, "{what}: nothing attempted");
            assert_eq!(r.failed, 0, "{what}: {:?}", r.failures);
            if let Some(pin) = pinned::digest(workload, 0) {
                assert_eq!(r.sim_digest, Some(pin), "{what}: pinned digest");
            }
            for m in &r.metrics {
                assert!(valid_name(&m.name), "{what}: bad metric name {:?}", m.name);
                assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
            }
            let line = JsonValue::parse(&metrics::result_line(&r).unwrap()).unwrap();
            assert_eq!(line.get_bool("correct"), Some(true), "{what}");
            assert_eq!(line.get_u64("failed"), Some(0), "{what}");
            let reported = line.get("metrics").and_then(JsonValue::as_obj).unwrap();
            let list: &[(&str, &str)] = if trace {
                &metrics::PER_LAYER
            } else {
                &metrics::END_TO_END
            };
            assert_eq!(reported.len(), list.len(), "{what}");
            for (name, unit) in list {
                let m = reported
                    .get(*name)
                    .unwrap_or_else(|| panic!("{what}: {name} missing"));
                assert_eq!(m.get_str("unit"), Some(*unit), "{what}: {name}");
                if !trace {
                    assert!(m.get_f64("value").unwrap() > 0.0, "{what}: {name} reads 0");
                }
            }
            if trace {
                let trace = r
                    .chrome_trace
                    .as_deref()
                    .expect("a traced run keeps its trace");
                let stats = tm_obs::validate_chrome_trace(trace).unwrap();
                assert!(stats.spans > 0, "{what}: empty trace");
                assert!(
                    r.notes.iter().any(|n| n.starts_with("reconcile:")),
                    "{what}: no reconciliation line"
                );
                assert!(
                    r.notes.iter().any(|n| n.starts_with("tracing overhead:")),
                    "{what}: no overhead lines"
                );
            }
        }
    }
}

#[test]
fn a_thin_tail_is_an_error_not_a_number() {
    let cfg = RunConfig {
        min_tail_samples: 100_000,
        ..tiny(true)
    };
    let r = run(Workload::LaunchesTest, 1, &cfg).unwrap();
    assert!(
        r.errors.iter().any(|e| e.contains("op_ms_p90")),
        "{:?}",
        r.errors
    );
    assert!(
        metrics::result_line(&r).is_err(),
        "a traced run without its p90 must not print a result"
    );
}

#[test]
fn traced_and_untraced_windows_agree_on_simulated_results() {
    let plain = run(Workload::LaunchesTest, 3, &tiny(false)).unwrap();
    // Set-ups in the course of the window start the workload afresh; the
    // rounds after them must reproduce the same results.
    let cfg = RunConfig {
        setup_repeats: 3,
        ..tiny(true)
    };
    let traced = run(Workload::LaunchesTest, 3, &cfg).unwrap();
    assert!(plain.sim_digest.is_some());
    assert_eq!(plain.sim_digest, traced.sim_digest);
    assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    let setups = metrics::find(&traced.metrics, "setup_s").unwrap();
    assert_eq!(setups.samples, Some(3));
    let other = run(Workload::LaunchesTest, 4, &tiny(false)).unwrap();
    assert_ne!(
        plain.sim_digest, other.sim_digest,
        "the seed must change the inputs"
    );
}
