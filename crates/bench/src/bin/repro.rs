//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro --experiment fig10 [--scale test|default|paper] [--seed N]
//! repro --experiment all
//! repro --experiment campaign --shard 0/4 --campaign-out shard_0.jsonl
//! repro merge-shards --out campaign.jsonl shard_0.jsonl shard_1.jsonl
//! repro --list
//! ```
//!
//! Every experiment registers itself in [`REGISTRY`]; every flag
//! registers itself in [`FLAGS`], the declarative table `--help` is
//! generated from and unknown-flag suggestions come out of. `repro
//! --list` prints the registry with one-line help for each entry.
//!
//! `campaign` runs the Monte Carlo fault-injection campaign; `--trials
//! N` sets trials per sweep point and `--campaign-out FILE` writes the
//! per-trial JSONL. `--shard I/N` runs one deterministic slice of the
//! campaign's trial space — the shards' JSONL documents merge back into
//! the monolithic run byte-for-byte with the `merge-shards` subcommand.
//! `--snapshot-out FILE` writes the final trial's device snapshot
//! (tm-sim's versioned JSON schema; see DESIGN.md) and `--snapshot-in
//! FILE` warm-starts every trial's memo FIFOs from such a snapshot.
//! Pass `--telemetry-addr ADDR` to serve a live Prometheus-text
//! snapshot of the campaign over HTTP while it runs (with heartbeat
//! progress lines on stderr); `report` renders the telemetry snapshot
//! plus the `BENCH_hotpath.json` trajectory into one self-contained
//! HTML file (`--report-out FILE`). Pass `--serve-addr HOST:PORT` to
//! submit the campaign to a running `tm-served` job server over the
//! `PROTOCOL.md` wire protocol instead of running it in-process — the
//! trial/adapt JSONL bytes are identical either way.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use tm_bench::chart::{bar_chart, line_chart};
use tm_bench::csv;
use tm_bench::{
    fifo_sweep, fig10, fig10_average_savings, fig11, fig11_average_savings,
    fig6_7, fig8, frequency_sweep, gating_ablation, interleaving_sweep, locality_analysis,
    lut_exploration,
    matching_ablation, merge_shard_documents, psnr_sweep, recovery_ablation,
    replacement_ablation,
    run_campaign_observed, run_campaign_sharded,
    scorecard,
    sensitivity_sweep, spatial_ablation, CampaignSpec, ExperimentConfig, Shard,
    FIG10_ERROR_RATES, FIG11_VOLTAGES, LUT_SHAPES,
};
use tm_obs::{Heartbeat, JsonValue, ObjWriter, RunMeta, TelemetryHub, TelemetryServer};
use tm_core::resolve;
use tm_kernels::workload::InputImage;
use tm_kernels::{table1, KernelId, Scale, ALL_KERNELS, GRAY_LEVELS_PER_THRESHOLD_UNIT};
use tm_sim::DeviceSnapshot;

/// Everything an experiment may need, bundled so registry entries share
/// one `fn(&RunCtx)` shape.
struct RunCtx<'a> {
    cfg: &'a ExperimentConfig,
    csv_dir: Option<&'a Path>,
    obs_out: &'a ObsOut<'a>,
    /// Monte Carlo trials per campaign sweep point (`--trials`).
    trials: u32,
    /// Where to write the campaign's per-trial JSONL (`--campaign-out`).
    campaign_out: Option<&'a Path>,
    /// Whether `bench` gates current throughput against the frozen
    /// baseline (`--gate`); a failed gate exits non-zero.
    gate: bool,
    /// Address the campaign's live Prometheus endpoint binds to
    /// (`--telemetry-addr`); `None` disables the live layer.
    telemetry_addr: Option<&'a str>,
    /// How long the endpoint stays up after the campaign finishes,
    /// waiting for one last scrape (`--telemetry-hold-ms`).
    telemetry_hold_ms: u64,
    /// Caller-supplied attribution timestamp recorded in JSON outputs
    /// (`--timestamp`); never sampled here, so outputs stay
    /// reproducible byte-for-byte.
    timestamp: Option<&'a str>,
    /// Where `report` writes its HTML (`--report-out`).
    report_out: Option<&'a Path>,
    /// Address of a running `tm-served` job server (`--serve-addr`);
    /// when set, `campaign` submits the job over the wire instead of
    /// running in-process. The trial/adapt JSONL bytes are identical
    /// either way (pinned by test and by the verify.sh gate).
    serve_addr: Option<&'a str>,
    /// The campaign shard to run (`--shard I/N`); `None` runs the whole
    /// trial space.
    shard: Option<Shard>,
    /// Where `campaign` writes the final trial's device snapshot
    /// (`--snapshot-out`).
    snapshot_out: Option<&'a Path>,
    /// A parsed snapshot every campaign trial warm-starts its memo
    /// FIFOs from (`--snapshot-in`).
    snapshot_in: Option<&'a DeviceSnapshot>,
}

/// One registered experiment: a stable id, one-line help for `--list`,
/// and its entry point.
struct Experiment {
    name: &'static str,
    help: &'static str,
    run: fn(&RunCtx),
}

/// Every experiment `repro` knows, in `--experiment all` order.
const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "scorecard",
        help: "paper-vs-measured scorecard over the headline claims",
        run: |ctx| print_scorecard(ctx.cfg),
    },
    Experiment {
        name: "speedup",
        help: "sequential vs parallel backend wall-clock on the Fig. 8 set",
        run: |ctx| print_speedup(ctx.cfg),
    },
    Experiment {
        name: "bench",
        help: "hot-path throughput bench with tracked JSON baseline",
        run: print_bench,
    },
    Experiment {
        name: "obs-demo",
        help: "observability showcase: Perfetto trace + windowed metrics",
        run: |ctx| print_obs_demo(ctx.cfg, ctx.obs_out),
    },
    Experiment {
        name: "campaign",
        help: "Monte Carlo fault-injection campaign with adaptive quality control",
        run: print_campaign,
    },
    Experiment {
        name: "report",
        help: "self-contained HTML report: campaign telemetry + bench trajectory",
        run: print_report,
    },
    Experiment {
        name: "locality",
        help: "value-locality analysis: operand entropy + LRU prediction",
        run: |ctx| print_locality(ctx.cfg),
    },
    Experiment {
        name: "frequency",
        help: "hit rate vs input spatial-frequency content (§4.1)",
        run: |ctx| print_frequency(ctx.cfg),
    },
    Experiment {
        name: "gating-ablation",
        help: "adaptive power gating vs plain memoization savings",
        run: |ctx| print_gating_ablation(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "lut-exploration",
        help: "trace-driven LUT organization exploration",
        run: |ctx| print_lut_exploration(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "interleaving",
        help: "hit rate vs wavefronts in flight (IR Sobel, 1 CU)",
        run: |ctx| print_interleaving(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "sensitivity",
        help: "energy-model sensitivity under miscalibration",
        run: |ctx| print_sensitivity(ctx.cfg),
    },
    Experiment {
        name: "table1",
        help: "Table 1: kernels, inputs and calibrated thresholds",
        run: |_| print_table1(),
    },
    Experiment {
        name: "table2",
        help: "Table 2: hit x error -> action truth table",
        run: |_| print_table2(),
    },
    Experiment {
        name: "fig2",
        help: "PSNR vs threshold: Sobel on the face input",
        run: |ctx| print_psnr(KernelId::Sobel, InputImage::Face, ctx.cfg, ctx.csv_dir, "fig2"),
    },
    Experiment {
        name: "fig3",
        help: "PSNR vs threshold: Gaussian on the face input",
        run: |ctx| print_psnr(KernelId::Gaussian, InputImage::Face, ctx.cfg, ctx.csv_dir, "fig3"),
    },
    Experiment {
        name: "fig4",
        help: "PSNR vs threshold: Sobel on the book input",
        run: |ctx| print_psnr(KernelId::Sobel, InputImage::Book, ctx.cfg, ctx.csv_dir, "fig4"),
    },
    Experiment {
        name: "fig5",
        help: "PSNR vs threshold: Gaussian on the book input",
        run: |ctx| print_psnr(KernelId::Gaussian, InputImage::Book, ctx.cfg, ctx.csv_dir, "fig5"),
    },
    Experiment {
        name: "fig6",
        help: "hit rate per FPU vs threshold: Sobel",
        run: |ctx| print_fig6(KernelId::Sobel, ctx.cfg, ctx.csv_dir, "fig6"),
    },
    Experiment {
        name: "fig7",
        help: "hit rate per FPU vs threshold: Gaussian",
        run: |ctx| print_fig6(KernelId::Gaussian, ctx.cfg, ctx.csv_dir, "fig7"),
    },
    Experiment {
        name: "fig8",
        help: "FIFO hit rates at the Table-1 design points",
        run: |ctx| print_fig8(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "fifo-sweep",
        help: "average hit rate vs FIFO depth",
        run: |ctx| print_fifo_sweep(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "fig10",
        help: "energy saving vs timing-error rate (six-unit scope)",
        run: |ctx| print_fig10(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "fig11",
        help: "total energy under voltage overscaling",
        run: |ctx| print_fig11(ctx.cfg, ctx.csv_dir),
    },
    Experiment {
        name: "matching-ablation",
        help: "exact vs calibrated approximate matching",
        run: |ctx| print_matching_ablation(ctx.cfg),
    },
    Experiment {
        name: "recovery-ablation",
        help: "recovery-policy energy comparison at 4% errors",
        run: |ctx| print_recovery_ablation(ctx.cfg),
    },
    Experiment {
        name: "replacement-ablation",
        help: "FIFO vs LRU replacement hit rates",
        run: |ctx| print_replacement_ablation(ctx.cfg),
    },
    Experiment {
        name: "spatial-ablation",
        help: "temporal vs spatial memoization at 2% errors",
        run: |ctx| print_spatial_ablation(ctx.cfg, ctx.csv_dir),
    },
];

/// One CLI flag: its spellings, value arity, default and help line.
///
/// [`FLAGS`] is the single source of truth the parser matches against
/// and `--help` renders from; adding a flag means one table row plus
/// one arm in [`Args::apply`] (the two are cross-checked by test).
struct Flag {
    /// Canonical long spelling (`--experiment`).
    long: &'static str,
    /// Optional short alias (`-e`).
    short: Option<&'static str>,
    /// Value metavariable for flags that consume one; `None` marks a
    /// boolean switch.
    value: Option<&'static str>,
    /// Default shown in `--help` (`None` when there is nothing to show).
    default: Option<&'static str>,
    /// One-line help.
    help: &'static str,
}

/// Every flag `repro` accepts, in `--help` order.
const FLAGS: &[Flag] = &[
    Flag { long: "--experiment", short: Some("-e"), value: Some("<id|all>"), default: None,
        help: "experiment to run; `all` runs the whole registry in order" },
    Flag { long: "--scale", short: Some("-s"), value: Some("<test|default|paper>"), default: Some("default"),
        help: "input scale for every workload" },
    Flag { long: "--seed", short: None, value: Some("N"), default: Some("0xDA7E2014"),
        help: "base seed for workloads and error injection" },
    Flag { long: "--parallel", short: Some("-p"), value: None, default: None,
        help: "one worker thread per compute unit; results are bit-identical" },
    Flag { long: "--csv", short: None, value: Some("DIR"), default: None,
        help: "also write figure data as CSV into DIR" },
    Flag { long: "--trace-out", short: None, value: Some("FILE"), default: None,
        help: "write obs-demo's Perfetto trace JSON" },
    Flag { long: "--metrics-out", short: None, value: Some("FILE"), default: None,
        help: "write obs-demo's / campaign's JSONL metrics dump" },
    Flag { long: "--trials", short: None, value: Some("N"), default: Some("8"),
        help: "campaign trials per sweep point" },
    Flag { long: "--campaign-out", short: None, value: Some("FILE"), default: None,
        help: "write the campaign's per-trial JSONL (meta header + trial/adapt lines)" },
    Flag { long: "--shard", short: None, value: Some("I/N"), default: None,
        help: "run only shard I of N of the campaign trial space (0-based; reassemble with merge-shards)" },
    Flag { long: "--snapshot-out", short: None, value: Some("FILE"), default: None,
        help: "write the final campaign trial's device snapshot (tm-sim versioned JSON)" },
    Flag { long: "--snapshot-in", short: None, value: Some("FILE"), default: None,
        help: "warm-start every campaign trial's memo FIFOs from a device snapshot" },
    Flag { long: "--gate", short: None, value: None, default: None,
        help: "make `bench` fail (exit 1) on a throughput drop vs the frozen baseline" },
    Flag { long: "--telemetry-addr", short: None, value: Some("HOST:PORT"), default: None,
        help: "serve a live Prometheus snapshot of the campaign (port 0 picks a free one)" },
    Flag { long: "--telemetry-hold-ms", short: None, value: Some("N"), default: Some("0"),
        help: "keep the telemetry endpoint up after the run for one last scrape" },
    Flag { long: "--timestamp", short: None, value: Some("STR"), default: None,
        help: "recorded verbatim in JSON/HTML outputs (never sampled, so outputs stay reproducible)" },
    Flag { long: "--report-out", short: None, value: Some("FILE"), default: None,
        help: "HTML path for `report`" },
    Flag { long: "--serve-addr", short: None, value: Some("HOST:PORT"), default: None,
        help: "submit `campaign` to a running tm-served (see PROTOCOL.md); JSONL bytes match in-process" },
    Flag { long: "--list", short: None, value: None, default: None,
        help: "list the experiment registry and exit" },
    Flag { long: "--help", short: Some("-h"), value: None, default: None,
        help: "show this help and exit" },
];

/// The parsed command line in typed form.
struct Args {
    experiment: Option<String>,
    cfg: ExperimentConfig,
    csv_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trials: u32,
    campaign_out: Option<PathBuf>,
    gate: bool,
    telemetry_addr: Option<String>,
    telemetry_hold_ms: u64,
    timestamp: Option<String>,
    report_out: Option<PathBuf>,
    serve_addr: Option<String>,
    shard: Option<Shard>,
    snapshot_out: Option<PathBuf>,
    snapshot_in: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            experiment: None,
            cfg: ExperimentConfig::default(),
            csv_dir: None,
            trace_out: None,
            metrics_out: None,
            trials: 8,
            campaign_out: None,
            gate: false,
            telemetry_addr: None,
            telemetry_hold_ms: 0,
            timestamp: None,
            report_out: None,
            serve_addr: None,
            shard: None,
            snapshot_out: None,
            snapshot_in: None,
        }
    }
}

impl Args {
    /// Applies one parsed flag. `value` is `Some` exactly when the
    /// flag's table row declares a metavariable.
    fn apply(&mut self, long: &str, value: Option<&str>) -> Result<(), String> {
        match (long, value) {
            ("--experiment", Some(v)) => self.experiment = Some(v.to_string()),
            ("--scale", Some(v)) => {
                self.cfg.scale = match v {
                    "test" => Scale::Test,
                    "default" => Scale::Default,
                    "paper" => Scale::Paper,
                    other => {
                        return Err(format!("unknown scale {other:?} (use test|default|paper)"))
                    }
                }
            }
            ("--seed", Some(v)) => {
                self.cfg.seed = v
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            ("--parallel", None) => self.cfg.backend = tm_sim::ExecBackend::Parallel,
            ("--csv", Some(v)) => self.csv_dir = Some(PathBuf::from(v)),
            ("--trace-out", Some(v)) => self.trace_out = Some(PathBuf::from(v)),
            ("--metrics-out", Some(v)) => self.metrics_out = Some(PathBuf::from(v)),
            ("--trials", Some(v)) => match v.parse() {
                Ok(n) if n > 0 => self.trials = n,
                _ => return Err("--trials needs a positive integer".to_string()),
            },
            ("--campaign-out", Some(v)) => self.campaign_out = Some(PathBuf::from(v)),
            ("--shard", Some(v)) => {
                self.shard = Some(Shard::parse(v).map_err(|e| format!("--shard: {e}"))?);
            }
            ("--snapshot-out", Some(v)) => self.snapshot_out = Some(PathBuf::from(v)),
            ("--snapshot-in", Some(v)) => self.snapshot_in = Some(PathBuf::from(v)),
            ("--gate", None) => self.gate = true,
            ("--telemetry-addr", Some(v)) => self.telemetry_addr = Some(v.to_string()),
            ("--telemetry-hold-ms", Some(v)) => {
                self.telemetry_hold_ms = v
                    .parse()
                    .map_err(|_| "--telemetry-hold-ms needs a number of milliseconds".to_string())?;
            }
            ("--timestamp", Some(v)) => self.timestamp = Some(v.to_string()),
            ("--report-out", Some(v)) => self.report_out = Some(PathBuf::from(v)),
            ("--serve-addr", Some(v)) => self.serve_addr = Some(v.to_string()),
            other => unreachable!("flag table and Args::apply out of sync: {other:?}"),
        }
        Ok(())
    }
}

/// What the command line asked for, after parsing.
enum Cli {
    /// Run an experiment with the given arguments.
    Run(Box<Args>),
    /// `--list`: print the experiment registry.
    List,
    /// `--help`/`-h`: print the generated help.
    Help,
    /// The `merge-shards` subcommand.
    MergeShards {
        out: PathBuf,
        inputs: Vec<PathBuf>,
    },
}

/// Parses the full argument vector against [`FLAGS`] (or the
/// `merge-shards` subcommand grammar when that is the first word).
fn parse_args(argv: &[String]) -> Result<Cli, String> {
    if argv.first().map(String::as_str) == Some("merge-shards") {
        return parse_merge_shards(&argv[1..]);
    }
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let word = argv[i].as_str();
        match word {
            "--list" => return Ok(Cli::List),
            "--help" | "-h" => return Ok(Cli::Help),
            _ => {}
        }
        let Some(flag) = FLAGS
            .iter()
            .find(|f| f.long == word || f.short == Some(word))
        else {
            return Err(match nearest_flag(word) {
                Some(s) => format!("unknown argument {word} — did you mean {s:?}? (try --help)"),
                None => format!("unknown argument {word} (try --help)"),
            });
        };
        let value = match flag.value {
            None => None,
            Some(metavar) => {
                i += 1;
                match argv.get(i) {
                    Some(v) => Some(v.as_str()),
                    None => return Err(format!("{} needs {metavar}", flag.long)),
                }
            }
        };
        args.apply(flag.long, value)?;
        i += 1;
    }
    Ok(Cli::Run(Box::new(args)))
}

/// `merge-shards --out FILE SHARD.jsonl...` — everything that is not a
/// flag is a shard document path, merged in the order given.
fn parse_merge_shards(argv: &[String]) -> Result<Cli, String> {
    let mut out = None;
    let mut inputs = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" | "-o" => {
                i += 1;
                match argv.get(i) {
                    Some(path) => out = Some(PathBuf::from(path)),
                    None => return Err("--out needs FILE".to_string()),
                }
            }
            "--help" | "-h" => return Ok(Cli::Help),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown merge-shards argument {flag} (try --help)"));
            }
            path => inputs.push(PathBuf::from(path)),
        }
        i += 1;
    }
    let Some(out) = out else {
        return Err("merge-shards needs --out FILE".to_string());
    };
    if inputs.is_empty() {
        return Err("merge-shards needs at least one shard JSONL path".to_string());
    }
    Ok(Cli::MergeShards { out, inputs })
}

/// The closest flag spelling by edit distance, for "did you mean"
/// suggestions on unknown arguments.
fn nearest_flag(typed: &str) -> Option<&'static str> {
    let budget = (typed.trim_start_matches('-').len() / 2).max(2);
    FLAGS
        .iter()
        .flat_map(|f| [Some(f.long), f.short])
        .flatten()
        .map(|name| (levenshtein(typed, name), name))
        .min()
        .filter(|&(d, _)| d <= budget)
        .map(|(_, name)| name)
}

/// Renders `--help` from [`FLAGS`] and [`REGISTRY`].
fn print_help() {
    println!("usage: repro --experiment <id|all> [flags]");
    println!("       repro merge-shards --out FILE SHARD.jsonl [SHARD.jsonl ...]");
    println!();
    println!("flags:");
    for f in FLAGS {
        let mut left = match f.short {
            Some(short) => format!("{short}, {}", f.long),
            None => format!("    {}", f.long),
        };
        if let Some(metavar) = f.value {
            left.push(' ');
            left.push_str(metavar);
        }
        let mut line = format!("  {left:<42} {}", f.help);
        if let Some(default) = f.default {
            line.push_str(&format!(" [default: {default}]"));
        }
        println!("{}", line.trim_end());
    }
    println!();
    println!(
        "the bench gate fails on a >{:.0}% per-case instr/s drop vs the frozen baseline",
        (1.0 - tm_bench::GATE_FLOOR) * 100.0
    );
    println!();
    println!("experiments (see --list for help):");
    for e in REGISTRY {
        println!("  {:<22} {}", e.name, e.help);
    }
}

/// Runs the `merge-shards` subcommand: read every shard document,
/// validate the meta headers agree, write the reassembled monolithic
/// JSONL.
fn run_merge_shards(out: &Path, inputs: &[PathBuf]) -> ExitCode {
    let mut docs = Vec::with_capacity(inputs.len());
    for path in inputs {
        match std::fs::read_to_string(path) {
            Ok(text) => docs.push((path.display().to_string(), text)),
            Err(e) => {
                eprintln!("cannot read shard {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match merge_shard_documents(&docs) {
        Ok(doc) => match std::fs::write(out, doc) {
            Ok(()) => {
                println!("(merged {} shard(s) into {})", inputs.len(), out.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write {}: {e}", out.display());
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("merge-shards: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::List) => {
            for e in REGISTRY {
                println!("{:<22} {}", e.name, e.help);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Help) => {
            print_help();
            return ExitCode::SUCCESS;
        }
        Ok(Cli::MergeShards { out, inputs }) => return run_merge_shards(&out, &inputs),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let Some(experiment) = args.experiment.as_deref() else {
        eprintln!("missing --experiment (try --help)");
        return ExitCode::FAILURE;
    };

    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create csv directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    // Load and validate the warm-start snapshot up front so a malformed
    // file is a structured parse error, not a mid-campaign surprise.
    let snapshot_in = match &args.snapshot_in {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("--snapshot-in {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match DeviceSnapshot::from_json(&text) {
                Ok(snap) => Some(snap),
                Err(e) => {
                    eprintln!("--snapshot-in {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let obs_out = ObsOut {
        trace: args.trace_out.as_deref(),
        metrics: args.metrics_out.as_deref(),
    };
    let ctx = RunCtx {
        cfg: &args.cfg,
        csv_dir: args.csv_dir.as_deref(),
        obs_out: &obs_out,
        trials: args.trials,
        campaign_out: args.campaign_out.as_deref(),
        gate: args.gate,
        telemetry_addr: args.telemetry_addr.as_deref(),
        telemetry_hold_ms: args.telemetry_hold_ms,
        timestamp: args.timestamp.as_deref(),
        report_out: args.report_out.as_deref(),
        serve_addr: args.serve_addr.as_deref(),
        shard: args.shard,
        snapshot_out: args.snapshot_out.as_deref(),
        snapshot_in: snapshot_in.as_ref(),
    };
    if experiment == "all" {
        for e in REGISTRY {
            run(e, &ctx);
            println!();
        }
    } else if let Some(e) = REGISTRY.iter().find(|e| e.name == experiment) {
        run(e, &ctx);
    } else {
        match nearest_experiment(experiment) {
            Some(suggestion) => eprintln!(
                "unknown experiment {experiment} — did you mean {suggestion:?}? (try --list)"
            ),
            None => eprintln!("unknown experiment {experiment} (try --list)"),
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Output paths for the obs-demo artifacts.
struct ObsOut<'a> {
    trace: Option<&'a Path>,
    metrics: Option<&'a Path>,
}

fn run(experiment: &Experiment, ctx: &RunCtx) {
    println!(
        "=== {} (scale {:?}, seed {:#x}) ===",
        experiment.name, ctx.cfg.scale, ctx.cfg.seed
    );
    (experiment.run)(ctx);
}

/// The closest registry name by edit distance, for "did you mean"
/// suggestions on unknown `--experiment` values. `None` when nothing is
/// plausibly close (distance > half the typed name, minimum 2).
fn nearest_experiment(typed: &str) -> Option<&'static str> {
    let budget = (typed.len() / 2).max(2);
    REGISTRY
        .iter()
        .map(|e| (levenshtein(typed, e.name), e.name))
        .min()
        .filter(|&(d, _)| d <= budget)
        .map(|(_, name)| name)
}

/// Classic two-row Levenshtein distance (both inputs are short ASCII
/// experiment ids, so O(nm) is trivially fine).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn campaign_spec(ctx: &RunCtx) -> CampaignSpec {
    CampaignSpec {
        scale: ctx.cfg.scale,
        seed: ctx.cfg.seed,
        trials: ctx.trials,
        backend: ctx.cfg.backend,
        ..CampaignSpec::default()
    }
}

/// Heartbeat cadence: ~8 progress lines per campaign, at least one.
fn heartbeat_interval(total: u64) -> u64 {
    (total / 8).max(1)
}

fn print_campaign(ctx: &RunCtx) {
    if let Some(addr) = ctx.serve_addr {
        // The wire campaign job carries only the five spec knobs
        // (PROTOCOL.md); sharding and snapshots stay in-process.
        if ctx.shard.is_some() || ctx.snapshot_in.is_some() || ctx.snapshot_out.is_some() {
            eprintln!(
                "--serve-addr cannot be combined with --shard/--snapshot-in/--snapshot-out \
                 (the wire campaign job carries only kernel/scale/trials/seed/backend)"
            );
            std::process::exit(1);
        }
        serve_campaign(ctx, addr);
        return;
    }
    let spec = campaign_spec(ctx);
    match ctx.shard {
        Some(shard) => println!(
            "Monte Carlo resilience campaign, shard {}/{} ({} trials per sweep point; adaptive 30 dB quality floor)",
            shard.index(),
            shard.count(),
            spec.trials
        ),
        None => println!(
            "Monte Carlo resilience campaign ({} trials per sweep point; adaptive 30 dB quality floor)",
            spec.trials
        ),
    }
    // The live layer: a telemetry hub every trial publishes into, served
    // as Prometheus text over HTTP for the lifetime of the run. A failed
    // bind degrades to an offline campaign, never a dead one.
    let mut hub = None;
    let mut server = None;
    if let Some(addr) = ctx.telemetry_addr {
        let h = TelemetryHub::new();
        match TelemetryServer::bind(addr, h.clone()) {
            Ok(s) => {
                println!("telemetry: listening on {}", s.addr());
                server = Some(s);
            }
            Err(e) => {
                eprintln!("telemetry: cannot bind {addr}: {e} (running without the endpoint)");
            }
        }
        hub = Some(h);
    }
    let space = spec.error_rates.len() * spec.trials as usize;
    let (lo, hi) = ctx.shard.map_or((0, space), |s| s.bounds(space));
    let total = (hi - lo) as u64;
    let mut heartbeat = hub
        .is_some()
        .then(|| Heartbeat::new("campaign", total, heartbeat_interval(total)));
    let out = run_campaign_sharded(
        &spec,
        ctx.shard,
        ctx.snapshot_in,
        None,
        hub.as_ref(),
        heartbeat.as_mut(),
    );
    print!("{}", out.summary_table());
    let adapted: usize = out.records.iter().filter(|r| !r.adaptations.is_empty()).count();
    println!(
        "controller: {adapted}/{} trials adapted; every adaptation step is an `adapt` line in the JSONL",
        out.records.len()
    );
    if let Some(path) = ctx.campaign_out {
        let meta = RunMeta::collect(ctx.timestamp.map(str::to_owned));
        match std::fs::write(path, out.jsonl_with_meta(&meta)) {
            Ok(()) => println!("(campaign JSONL written to {})", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = ctx.obs_out.metrics {
        match std::fs::write(path, out.metrics.to_jsonl()) {
            Ok(()) => println!("(campaign metrics written to {})", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = ctx.snapshot_out {
        match &out.last_snapshot {
            Some(snap) => match std::fs::write(path, snap.to_json()) {
                Ok(()) => println!("(device snapshot written to {})", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            },
            None => eprintln!(
                "--snapshot-out: the campaign produced no snapshot (empty shard?); nothing written"
            ),
        }
    }
    if let Some(server) = server {
        if ctx.telemetry_hold_ms > 0 && server.scrapes() == 0 {
            println!(
                "telemetry: holding up to {}ms for a scrape of {}",
                ctx.telemetry_hold_ms,
                server.addr()
            );
            server.wait_for_scrape(Duration::from_millis(ctx.telemetry_hold_ms));
        }
        println!("telemetry: served {} scrape(s)", server.scrapes());
        server.stop();
    }
}

/// Client mode: submit the campaign to a running `tm-served` over the
/// wire protocol of `PROTOCOL.md` and write the returned JSONL.
///
/// This is deliberately *not* built on the `tm-serve` crate's `Client`
/// type (`tm-serve` depends on this crate, and more importantly the
/// protocol document — not a shared library — is the contract), so the
/// ~60 lines below are written from `PROTOCOL.md` alone using the same
/// `tm-obs` JSON both ends use.
fn serve_campaign(ctx: &RunCtx, addr: &str) {
    let spec = campaign_spec(ctx);
    println!(
        "Monte Carlo resilience campaign served by {addr} ({} trials per sweep point)",
        spec.trials
    );
    let mut request = ObjWriter::new();
    request.u64_field("v", 1);
    request.str_field("type", "campaign");
    request.str_field("id", "repro-campaign");
    request.str_field("tenant", "repro");
    request.str_field("kernel", spec.kernel.name());
    request.str_field(
        "scale",
        match spec.scale {
            Scale::Test => "test",
            Scale::Default => "default",
            Scale::Paper => "paper",
        },
    );
    request.u64_field("trials", u64::from(spec.trials));
    request.u64_field("seed", spec.seed);
    request.str_field("backend", spec.backend.name());
    let request = request.finish();

    let response = match wire_request(addr, &request) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("serve: {addr}: {e}");
            std::process::exit(1);
        }
    };
    let response = match JsonValue::parse(&response) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve: unparseable response from {addr}: {e}");
            std::process::exit(1);
        }
    };
    if response.get_str("type") == Some("error") {
        eprintln!(
            "serve: {addr} rejected the campaign [{}]: {}",
            response.get_str("code").unwrap_or("unknown"),
            response.get_str("message").unwrap_or(""),
        );
        std::process::exit(1);
    }
    let Some(jsonl) = response.get_str("jsonl") else {
        eprintln!("serve: response from {addr} carries no \"jsonl\" field");
        std::process::exit(1);
    };
    let trial_lines = jsonl.lines().filter(|l| l.contains("\"kind\":\"trial\"")).count();
    println!(
        "served campaign returned {trial_lines} trial lines ({} bytes of JSONL)",
        jsonl.len()
    );
    if let Some(path) = ctx.campaign_out {
        // Same document the in-process path writes: one meta header (the
        // field order of `CampaignOutcome::jsonl_with_meta`) + the
        // served trial/adapt lines, byte-identical to an in-process run.
        let meta = RunMeta::collect(ctx.timestamp.map(str::to_owned));
        let mut w = ObjWriter::new();
        w.str_field("kind", "meta");
        meta.write_fields(&mut w);
        w.str_field("kernel", &spec.kernel.to_string());
        w.str_field("model", spec.error_model.name());
        w.u64_field("trials_per_point", u64::from(spec.trials));
        w.u64_field("sweep_points", spec.error_rates.len() as u64);
        w.u64_field("seed", spec.seed);
        let mut doc = w.finish();
        doc.push('\n');
        doc.push_str(jsonl);
        match std::fs::write(path, doc) {
            Ok(()) => println!("(campaign JSONL written to {})", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// One NDJSON request/response exchange over a fresh TCP connection.
fn wire_request(addr: &str, line: &str) -> std::io::Result<String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut response = String::new();
    let n = BufReader::new(stream).read_line(&mut response)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection without responding",
        ));
    }
    Ok(response.trim_end().to_string())
}

fn print_report(ctx: &RunCtx) {
    let spec = campaign_spec(ctx);
    println!(
        "rendering the run report from a fresh campaign ({} trials per sweep point)",
        spec.trials
    );
    let hub = TelemetryHub::new();
    let total = spec.error_rates.len() as u64 * u64::from(spec.trials);
    let mut heartbeat = Heartbeat::new("report campaign", total, heartbeat_interval(total));
    let out = run_campaign_observed(&spec, None, Some(&hub), Some(&mut heartbeat));
    print!("{}", out.summary_table());
    let bench_json = std::fs::read_to_string("BENCH_hotpath.json").ok();
    if bench_json.is_none() {
        println!(
            "(no BENCH_hotpath.json here — run `repro --experiment bench` first for the trajectory section)"
        );
    }
    let meta = RunMeta::collect(ctx.timestamp.map(str::to_owned));
    let html =
        tm_bench::report::render_html_report(&hub.snapshot(), &meta, bench_json.as_deref());
    let path = ctx.report_out.unwrap_or_else(|| Path::new("TM_report.html"));
    match std::fs::write(path, &html) {
        Ok(()) => println!(
            "(report written to {} — a single file, opens offline in any browser)",
            path.display()
        ),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn write_csv(dir: Option<&Path>, name: &str, content: &str) {
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, content) {
        Ok(()) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn print_table1() {
    println!("Table 1: kernels with selected input parameters and threshold");
    println!("{:<16} {:<20} {:>10}", "Kernel", "Input parameter", "threshold");
    for e in table1() {
        println!(
            "{:<16} {:<20} {:>10}",
            e.kernel.to_string(),
            e.input_parameter,
            e.threshold
        );
    }
    println!(
        "(image thresholds are applied x{GRAY_LEVELS_PER_THRESHOLD_UNIT} gray levels; see EXPERIMENTS.md)"
    );
}

fn print_table2() {
    println!("Table 2: timing error handling with temporal memoization module");
    println!("{:<4} {:<6} {:<55} Q_Pipe", "Hit", "Error", "Action");
    for (hit, error) in [(false, false), (false, true), (true, false), (true, true)] {
        let action = resolve(hit, error);
        println!(
            "{:<4} {:<6} {:<55} {:?}",
            u8::from(hit),
            u8::from(error),
            action.to_string(),
            action.output()
        );
    }
}

fn print_psnr(
    id: KernelId,
    image: InputImage,
    cfg: &ExperimentConfig,
    csv_dir: Option<&Path>,
    name: &str,
) {
    println!("PSNR vs threshold for {id} on the {image:?} input");
    println!(
        "{:>10} {:>12} {:>10} {:>9} {:>11}",
        "threshold", "gray-levels", "PSNR(dB)", "hit-rate", "acceptable"
    );
    let rows = psnr_sweep(id, image, cfg);
    write_csv(csv_dir, name, &csv::psnr_csv(&rows));
    for row in &rows {
        println!(
            "{:>10.1} {:>12.1} {:>10.1} {:>8.1}% {:>11}",
            row.paper_threshold,
            row.gray_threshold,
            row.psnr_db,
            row.hit_rate * 100.0,
            if row.acceptable { "yes (>=30)" } else { "NO" }
        );
    }
    let psnr_pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.psnr_db.is_finite())
        .map(|r| (f64::from(r.paper_threshold), r.psnr_db))
        .collect();
    let hit_pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (f64::from(r.paper_threshold), r.hit_rate * 100.0))
        .collect();
    println!();
    print!(
        "{}",
        line_chart(
            "PSNR (dB, *) and hit rate (%, o) vs threshold",
            &[("PSNR dB", &psnr_pts), ("hit %", &hit_pts)],
            50,
            10
        )
    );
}

fn print_fig6(id: KernelId, cfg: &ExperimentConfig, csv_dir: Option<&Path>, name: &str) {
    for image in [InputImage::Face, InputImage::Book] {
        println!("hit rate per FPU vs threshold: {id} on {image:?}");
        let rows = fig6_7(id, image, cfg);
        write_csv(
            csv_dir,
            &format!("{name}_{}", format!("{image:?}").to_lowercase()),
            &csv::fig6_csv(&rows),
        );
        let mut ops: Vec<_> = rows.iter().map(|r| r.op).collect();
        ops.sort_unstable();
        ops.dedup();
        print!("{:>10}", "threshold");
        for op in &ops {
            print!(" {:>8}", op.mnemonic());
        }
        println!();
        let mut thresholds: Vec<f32> = rows.iter().map(|r| r.paper_threshold).collect();
        thresholds.sort_by(f32::total_cmp);
        thresholds.dedup();
        for t in thresholds {
            print!("{t:>10.1}");
            for op in &ops {
                let rate = rows
                    .iter()
                    .find(|r| r.paper_threshold == t && r.op == *op)
                    .map_or(0.0, |r| r.hit_rate);
                print!(" {:>7.1}%", rate * 100.0);
            }
            println!();
        }
    }
}

fn print_fig8(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("Fig 8: hit rate of the FIFOs for activated FPUs (Table-1 design points)");
    let rows = fig8(cfg);
    write_csv(csv_dir, "fig8", &csv::fig8_csv(&rows));
    for row in rows {
        print!(
            "{:<16} weighted-avg {:>5.1}%  [",
            row.kernel.to_string(),
            row.weighted_average * 100.0
        );
        for (i, (op, rate)) in row.per_op.iter().enumerate() {
            if i > 0 {
                print!(" ");
            }
            print!("{}={:.0}%", op.mnemonic(), rate * 100.0);
        }
        println!("]  host-check={}", if row.passed { "passed" } else { "FAILED" });
    }
}

fn print_fifo_sweep(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("FIFO depth sweep (paper: +2/+4/+8/+12/+17 points for 4/8/16/32/64 entries)");
    println!("{:>6} {:>14} {:>16}", "depth", "avg hit rate", "gain vs depth-2");
    let rows = fifo_sweep(cfg);
    write_csv(csv_dir, "fifo_sweep", &csv::fifo_sweep_csv(&rows));
    for row in &rows {
        println!(
            "{:>6} {:>13.1}% {:>15.1}pp",
            row.depth,
            row.average_hit_rate * 100.0,
            row.gain_vs_depth2
        );
    }
    let labels: Vec<String> = rows.iter().map(|r| format!("depth-{}", r.depth)).collect();
    let bars: Vec<(&str, f64)> = labels
        .iter()
        .zip(&rows)
        .map(|(l, r)| (l.as_str(), r.average_hit_rate * 100.0))
        .collect();
    println!();
    print!("{}", bar_chart("average hit rate (%) by FIFO depth", &bars, 40));
}

fn print_fig10(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("Fig 10: energy saving vs timing-error rate, six-unit scope (paper avg: 13/17/20/23/25 %)");
    print!("{:<16}", "kernel");
    for &rate in &FIG10_ERROR_RATES {
        print!(" {:>8.0}%", rate * 100.0);
    }
    println!();
    let rows = fig10(cfg);
    write_csv(csv_dir, "fig10", &csv::fig10_csv(&rows));
    for &kernel in &ALL_KERNELS {
        print!("{:<16}", kernel.to_string());
        for &rate in &FIG10_ERROR_RATES {
            let saving = rows
                .iter()
                .find(|r| r.kernel == kernel && r.error_rate == rate)
                .map_or(0.0, |r| r.comparison.scoped_saving());
            print!(" {:>8.1}", saving * 100.0);
        }
        println!();
    }
    print!("{:<16}", "AVERAGE");
    let avgs = fig10_average_savings(&rows);
    for (_, avg) in &avgs {
        print!(" {:>8.1}", avg * 100.0);
    }
    println!();
    let pts: Vec<(f64, f64)> = avgs.iter().map(|&(r, s)| (r * 100.0, s * 100.0)).collect();
    println!();
    print!(
        "{}",
        line_chart("average saving (%) vs error rate (%)", &[("avg", &pts)], 50, 10)
    );
}

fn print_fig11(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("Fig 11: total energy under voltage overscaling (paper avg saving: 13% @0.9V, 11% @0.84V, 44% @0.8V)");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>9}",
        "Vdd", "error-rate", "baseline(uJ)", "memoized(uJ)", "saving"
    );
    let rows = fig11(cfg);
    write_csv(csv_dir, "fig11", &csv::fig11_csv(&rows));
    for &vdd in &FIG11_VOLTAGES {
        let at: Vec<_> = rows.iter().filter(|r| r.vdd == vdd).collect();
        let base: f64 = at.iter().map(|r| r.comparison.baseline_scoped_pj).sum::<f64>() / 1e6;
        let memo: f64 = at.iter().map(|r| r.comparison.memo_scoped_pj).sum::<f64>() / 1e6;
        let err = at.first().map_or(0.0, |r| r.error_rate);
        println!(
            "{:>6.2} {:>11.2}% {:>14.2} {:>14.2} {:>8.1}%",
            vdd,
            err * 100.0,
            base,
            memo,
            (1.0 - memo / base) * 100.0
        );
    }
    println!("per-voltage average of per-kernel savings:");
    for (vdd, avg) in fig11_average_savings(&rows) {
        println!("  {:>5.2} V: {:>6.1}%", vdd, avg * 100.0);
    }
    let mut base_pts = Vec::new();
    let mut memo_pts = Vec::new();
    for &vdd in &FIG11_VOLTAGES {
        let at: Vec<_> = rows.iter().filter(|r| r.vdd == vdd).collect();
        base_pts.push((vdd, at.iter().map(|r| r.comparison.baseline_scoped_pj).sum::<f64>() / 1e6));
        memo_pts.push((vdd, at.iter().map(|r| r.comparison.memo_scoped_pj).sum::<f64>() / 1e6));
    }
    println!();
    print!(
        "{}",
        line_chart(
            "total energy (uJ) vs Vdd (V)",
            &[("baseline", &base_pts), ("memoized", &memo_pts)],
            50,
            12
        )
    );
}

fn print_matching_ablation(cfg: &ExperimentConfig) {
    println!("matching ablation: exact vs calibrated approximate threshold");
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "kernel", "exact-hit", "approx-hit", "approx-pass"
    );
    for row in matching_ablation(cfg) {
        println!(
            "{:<16} {:>9.1}% {:>9.1}% {:>12}",
            row.kernel.to_string(),
            row.exact_hit_rate * 100.0,
            row.approx_hit_rate * 100.0,
            row.approx_passed
        );
    }
}

fn print_recovery_ablation(cfg: &ExperimentConfig) {
    println!("recovery-policy ablation at 4% error rate (Sobel)");
    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "policy", "baseline(uJ)", "memoized(uJ)", "saving"
    );
    for row in recovery_ablation(cfg) {
        println!(
            "{:<36} {:>14.3} {:>14.3} {:>8.1}%",
            row.policy.to_string(),
            row.baseline_pj / 1e6,
            row.memo_pj / 1e6,
            (1.0 - row.memo_pj / row.baseline_pj) * 100.0
        );
    }
}

fn print_scorecard(cfg: &ExperimentConfig) {
    println!("paper-vs-measured scorecard");
    for row in scorecard(cfg) {
        println!("[{:<10}] {}", row.grade.label(), row.claim);
        println!("{:>13} measured: {}", "", row.measured);
    }
}

fn print_speedup(cfg: &ExperimentConfig) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "backend speedup on the Fig. 8 workload set ({} CUs, {cores} host cores)",
        tm_bench::SPEEDUP_CUS,
    );
    if cores < 4 {
        println!(
            "WARNING: only {cores} host core(s) available — the parallel backends \
             cannot overlap work, so ~1x wall-clock is expected here. Run on a \
             >=4-core host to observe real speedup."
        );
    }
    println!(
        "{:<16} {:>12} {:>12} {:>9} {:>10}",
        "kernel", "seq(ms)", "parallel(ms)", "speedup", "identical"
    );
    let rows = tm_bench::backend_speedup(cfg);
    for row in &rows {
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>8.2}x {:>10}",
            row.kernel.to_string(),
            row.sequential_ms,
            row.parallel_ms,
            row.speedup(),
            if row.identical { "yes" } else { "NO" }
        );
    }
    let seq: f64 = rows.iter().map(|r| r.sequential_ms).sum();
    let par: f64 = rows.iter().map(|r| r.parallel_ms).sum();
    println!("{:<16} {:>12.1} {:>12.1} {:>8.2}x", "TOTAL", seq, par, seq / par);
    println!("(speedup approaches min(CUs, cores); reports stay bit-identical either way)");
}

/// Extracts the brace-balanced object following `"baseline":` in our own
/// bench JSON (no string values contain braces, so counting is exact).
fn extract_baseline(json: &str) -> Option<&str> {
    let at = json.find("\"baseline\":")?;
    let open = at + json[at..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

fn print_bench(ctx: &RunCtx) {
    let (cfg, gate) = (ctx.cfg, ctx.gate);
    let repeats = match cfg.scale {
        Scale::Test | Scale::Default => 3,
        Scale::Paper => 2,
    };
    let rows = tm_bench::hotpath_bench(cfg, repeats);
    println!(
        "{:<16} {:<12} {:>14} {:>10} {:>16}",
        "case", "backend", "instructions", "wall(ms)", "instr/sec"
    );
    for r in &rows {
        println!(
            "{:<16} {:<12} {:>14} {:>10.3} {:>16.0}",
            r.case,
            tm_bench::backend_label(r.backend),
            r.instructions,
            r.wall_ms,
            r.instr_per_sec
        );
    }
    let meta = RunMeta::collect(ctx.timestamp.map(str::to_owned));
    let current = tm_bench::rows_to_json_with_meta(&rows, &meta);
    let path = Path::new("BENCH_hotpath.json");
    let baseline = std::fs::read_to_string(path)
        .ok()
        .and_then(|old| extract_baseline(&old).map(str::to_owned));
    let gate_failed = if gate {
        match &baseline {
            None => {
                println!("gate: no baseline yet — this run seeds it, nothing to compare");
                false
            }
            Some(baseline) => run_bench_gate(baseline, &rows),
        }
    } else {
        false
    };
    // `current` always updates, gate or no gate, pass or fail — the JSON
    // must reflect the run that was actually measured.
    let baseline = baseline.unwrap_or_else(|| current.clone());
    let combined = format!("{{\n\"baseline\": {baseline},\n\"current\": {current}\n}}\n");
    match std::fs::write(path, combined) {
        Ok(()) => println!("(bench written to {})", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    if gate_failed {
        std::process::exit(1);
    }
}

/// Runs the regression gate and prints its verdict; returns `true` when
/// the gate failed.
fn run_bench_gate(baseline: &str, rows: &[tm_bench::BenchRow]) -> bool {
    match tm_bench::bench_gate(baseline, rows, tm_bench::GATE_FLOOR) {
        Ok(report) => {
            println!(
                "gate: {} cases vs frozen baseline, median speed ratio {:.2}x, floor {:.0}% of normalized baseline",
                report.entries.len(),
                report.median_ratio,
                report.floor * 100.0
            );
            for e in report.failures() {
                eprintln!(
                    "gate FAIL: {} [{}] {:.0} -> {:.0} instr/s ({:.0}% of baseline after host-drift correction)",
                    e.case,
                    e.backend,
                    e.baseline_ips,
                    e.current_ips,
                    e.normalized * 100.0
                );
            }
            if report.passed() {
                println!("gate: PASS");
                false
            } else {
                true
            }
        }
        Err(e) => {
            eprintln!("gate FAIL: {e}");
            true
        }
    }
}

fn print_obs_demo(cfg: &ExperimentConfig, obs_out: &ObsOut<'_>) {
    println!(
        "observability demo: Sobel per backend, traced + windowed metrics ({}-cycle windows)",
        tm_bench::OBS_METRICS_WINDOW
    );
    let out = tm_bench::obs_demo(cfg);
    assert!(
        out.identical,
        "tracing or metrics perturbed a report/output — must be bit-identical"
    );
    let stats = tm_obs::validate_chrome_trace(&out.trace_json)
        .expect("obs-demo trace failed Chrome trace validation");
    for backend in ["sequential", "parallel"] {
        assert!(
            out.trace_json.contains(&format!("\"backend\":\"{backend}\"")),
            "trace is missing launch spans from the {backend} backend"
        );
    }
    let lines = tm_obs::parse_jsonl(&out.metrics_jsonl)
        .expect("obs-demo metrics failed JSONL parsing");
    assert!(
        lines.iter().any(|l| l.get("hit_rate").is_some()),
        "metrics dump has no per-window hit-rate line"
    );
    println!(
        "trace validated: {} events, {} spans, {} tracks ({} dropped)",
        stats.events, stats.spans, stats.tracks, out.dropped
    );
    println!(
        "metrics validated: {} JSONL lines (reports bit-identical with/without sinks: {})",
        lines.len(),
        out.identical
    );
    if let Some(path) = obs_out.trace {
        match std::fs::write(path, &out.trace_json) {
            Ok(()) => println!("(trace written to {} — load it at ui.perfetto.dev)", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = obs_out.metrics {
        match std::fs::write(path, &out.metrics_jsonl) {
            Ok(()) => println!("(metrics written to {})", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

fn print_frequency(cfg: &ExperimentConfig) {
    println!("spatial-frequency sensitivity (Sobel at its Table-1 threshold)");
    println!("{:>12} {:>10} {:>10}", "period(px)", "hit-rate", "PSNR(dB)");
    for row in frequency_sweep(cfg) {
        let label = if row.period.is_infinite() {
            "face".to_string()
        } else if row.period == 0.0 {
            "book".to_string()
        } else {
            format!("{:.0}", row.period)
        };
        println!(
            "{label:>12} {:>9.1}% {:>10.1}",
            row.hit_rate * 100.0,
            row.psnr_db
        );
    }
    println!("(locality is a function of the input's spatial-frequency content — §4.1)");
}

fn print_sensitivity(cfg: &ExperimentConfig) {
    println!("energy-model sensitivity: average six-unit saving under miscalibration");
    println!(
        "{:>10} {:>14} {:>12} {:>12}",
        "lut-frac", "recovery-frac", "saving@0%", "saving@4%"
    );
    for row in sensitivity_sweep(cfg) {
        println!(
            "{:>10.2} {:>14.2} {:>11.1}% {:>11.1}%",
            row.lut_lookup_frac,
            row.recovery_cycle_frac,
            row.saving_at_0 * 100.0,
            row.saving_at_4 * 100.0
        );
    }
    println!("(nominal model: lut-frac 0.06, recovery-frac 0.50)");
}

fn print_interleaving(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("wavefront-interleaving sensitivity (real Sobel IR program, 1 CU)");
    println!(
        "{:>10} {:>10} {:>14} {:>9}",
        "in-flight", "hit-rate", "memoized(uJ)", "saving"
    );
    let rows = interleaving_sweep(cfg);
    write_csv(csv_dir, "interleaving", &csv::interleaving_csv(&rows));
    for row in &rows {
        println!(
            "{:>10} {:>9.1}% {:>14.3} {:>8.1}%",
            row.in_flight,
            row.hit_rate * 100.0,
            row.memo_pj / 1e6,
            row.saving * 100.0
        );
    }
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.in_flight as f64, r.hit_rate * 100.0))
        .collect();
    println!();
    print!(
        "{}",
        line_chart("hit rate (%) vs wavefronts in flight", &[("hit", &pts)], 40, 8)
    );
}

fn print_lut_exploration(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("trace-driven LUT organization exploration (hit rate per shape)");
    print!("{:<16} {:>10}", "kernel", "events");
    for shape in LUT_SHAPES {
        print!(" {:>10}", shape.label());
    }
    println!();
    let rows = lut_exploration(cfg);
    write_csv(csv_dir, "lut_exploration", &csv::lut_exploration_csv(&rows));
    for row in rows {
        print!("{:<16} {:>10}", row.kernel.to_string(), row.events);
        for (_, rate) in &row.hit_rates {
            print!(" {:>9.1}%", rate * 100.0);
        }
        println!();
    }
    println!("(assoc-2 is the paper's design point; hash-NxW tables index by operand hash)");
}

fn print_gating_ablation(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("adaptive power gating (automated form of the paper's software gating)");
    println!(
        "{:<16} {:>9} {:>14} {:>14}",
        "kernel", "hit-rate", "saving(plain)", "saving(gated)"
    );
    let rows = gating_ablation(cfg);
    write_csv(csv_dir, "gating_ablation", &csv::gating_csv(&rows));
    for row in &rows {
        println!(
            "{:<16} {:>8.1}% {:>13.1}% {:>13.1}%",
            row.kernel.to_string(),
            row.hit_rate * 100.0,
            row.saving_plain * 100.0,
            row.saving_gated * 100.0
        );
    }
    let avg = |f: fn(&tm_bench::GatingAblationRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    println!(
        "{:<16} {:>9} {:>13.1}% {:>13.1}%",
        "AVERAGE",
        "",
        avg(|r| r.saving_plain) * 100.0,
        avg(|r| r.saving_gated) * 100.0
    );
}

fn print_locality(cfg: &ExperimentConfig) {
    println!("value-locality analysis (operand entropy + LRU stack-distance prediction)");
    for row in locality_analysis(cfg) {
        println!(
            "{}: measured hit {:.1}% | LRU depth-2 prediction {:.1}%",
            row.kernel,
            row.measured_hit_rate * 100.0,
            row.predicted_hit_rate * 100.0
        );
        println!(
            "  {:<8} {:>10} {:>12} {:>12} {:>22}",
            "op", "events", "entropy(b)", "max-ent(b)", "LRU hit @2/4/16/64"
        );
        for s in &row.per_op {
            println!(
                "  {:<8} {:>10} {:>12.2} {:>12.2}   {:>4.0}% {:>4.0}% {:>4.0}% {:>4.0}%",
                s.op.mnemonic(),
                s.events,
                s.entropy_bits,
                s.max_entropy_bits,
                s.predicted_hit_rates[0] * 100.0,
                s.predicted_hit_rates[1] * 100.0,
                s.predicted_hit_rates[2] * 100.0,
                s.predicted_hit_rates[3] * 100.0
            );
        }
    }
}

fn print_spatial_ablation(cfg: &ExperimentConfig, csv_dir: Option<&Path>) {
    println!("temporal vs spatial memoization at 2% error rate (paper ref [20])");
    println!(
        "{:<16} {:>12} {:>12} {:>13} {:>13} {:>13}",
        "kernel", "temporal-hit", "spatial-hit", "temporal(uJ)", "spatial(uJ)", "baseline(uJ)"
    );
    let rows = spatial_ablation(cfg);
    write_csv(csv_dir, "spatial_ablation", &csv::spatial_csv(&rows));
    for row in rows {
        println!(
            "{:<16} {:>11.1}% {:>11.1}% {:>13.3} {:>13.3} {:>13.3}",
            row.kernel.to_string(),
            row.temporal_hit_rate * 100.0,
            row.spatial_hit_rate * 100.0,
            row.temporal_pj / 1e6,
            row.spatial_pj / 1e6,
            row.baseline_pj / 1e6
        );
    }
}

fn print_replacement_ablation(cfg: &ExperimentConfig) {
    println!("FIFO vs LRU replacement at the Table-1 design points");
    println!("{:<16} {:>10} {:>10}", "kernel", "FIFO-hit", "LRU-hit");
    for row in replacement_ablation(cfg) {
        println!(
            "{:<16} {:>9.1}% {:>9.1}%",
            row.kernel.to_string(),
            row.fifo_hit_rate * 100.0,
            row.lru_hit_rate * 100.0
        );
    }
}
