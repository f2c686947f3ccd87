//! Command line of the repository benchmark.
//!
//! ```text
//! tm-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!              [--out <result.json>] [--trace-out <trace.json>]
//! tm-benchmark compare <A-dir> <B-dir> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric as `name value unit` and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`, the metrics being
//! the end-to-end ones, or with `--trace 1` the per-layer ones. Exit code
//! 0: outputs correct; 1: an output was wrong (the JSON line says which
//! counts); 2: the run could not be measured (no JSON line). `compare`
//! exits 1 when it refuses the change.

use std::path::Path;
use std::process::ExitCode;

use tm_benchmark::{compare, metrics, run, RunConfig, Workload};

const USAGE: &str = "usage: tm-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] \
                     [--out <file>] [--trace-out <file>]\n       tm-benchmark compare <A-dir> <B-dir> [--spec <BENCHMARK.json>]";

/// Seconds per window when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut trace_out) =
        (None, None, DEFAULT_SECONDS, false, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(value()?),
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        out,
        trace_out,
    })
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn bench(args: &RunArgs) -> Result<ExitCode, String> {
    let r = run(
        args.workload,
        args.seed,
        &RunConfig::standard(args.seconds, args.trace),
    )?;
    for line in metrics::lines(&r) {
        println!("{line}");
    }
    for f in &r.failures {
        eprintln!("FAILED: {f}");
    }
    if !r.errors.is_empty() {
        return Err(r.errors.join("\n"));
    }
    if let Some(path) = &args.out {
        write(path, &metrics::result_file(&r, args.seconds))?;
    }
    if let (Some(path), Some(trace)) = (&args.trace_out, &r.chrome_trace) {
        write(path, trace)?;
    }
    println!("{}", metrics::result_line(&r)?);
    Ok(if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut dirs, mut spec) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = it.next().cloned().ok_or("--spec needs a value")?;
        } else {
            dirs.push(a);
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err(format!("compare takes two directories\n{USAGE}"));
    };
    let text = std::fs::read_to_string(&spec).map_err(|e| format!("{spec}: {e}"))?;
    let (report, refused) =
        compare::compare(Path::new(a), Path::new(b), &compare::rules(&text)?)?;
    print!("{report}");
    Ok(if refused {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        _ => parse_run(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| bench(&a)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("tm-benchmark: {e}");
        ExitCode::from(2)
    })
}
