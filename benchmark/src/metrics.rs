//! Metric definitions, their assembly from tallies, and the run's output.

use tm_obs::ObjWriter;

use crate::stats::{median, p90, peak_rss_mb, quantile, quantile_by_kind};
use crate::trace::{ratio, LAYERS};
use crate::{RunResult, SetupTime, Tally};

/// The end-to-end metrics `BENCHMARK.json` declares, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("lane_instr_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `BENCHMARK.json` declares, with units. Every
/// workload reports all of them; a count or ratio of a layer the workload
/// does not exercise reads 0, and every time is measured on every workload.
/// `op_ms_p90` is here rather than end to end: on a shared host it
/// mostly counts how often the host stalled during the window.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("op_ms_p90", "ms"),
    ("sim.launch_us_p50", "us"),
    ("sim.dispatches_per_op", "count"),
    ("sim.engine.worker_busy_frac", "ratio"),
    ("sim.engine.fork_join_frac", "ratio"),
    ("self_frac.kernels", "ratio"),
    ("self_frac.sim.device", "ratio"),
    ("self_frac.sim.compiled", "ratio"),
    ("self_frac.sim.engine", "ratio"),
    ("self_frac.snapshot", "ratio"),
    ("self_frac.campaign", "ratio"),
    ("self_frac.serve", "ratio"),
    ("self_frac.check", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead.lane_instr_per_s", "ratio"),
    ("trace.overhead.op_ms_p50", "ratio"),
    ("trace.overhead.op_ms_p90", "ratio"),
    ("sim.lane_instructions", "count"),
    ("core.hit_rate", "ratio"),
    ("timing.errors_injected", "count"),
    ("timing.recoveries", "count"),
    ("energy.pj_per_lane_instr", "pJ"),
    ("lane_instr_per_s.Sobel", "1/s"),
    ("lane_instr_per_s.Gaussian", "1/s"),
    ("lane_instr_per_s.Haar", "1/s"),
    ("lane_instr_per_s.BinomialOption", "1/s"),
    ("lane_instr_per_s.BlackScholes", "1/s"),
    ("lane_instr_per_s.FWT", "1/s"),
    ("lane_instr_per_s.EigenValue", "1/s"),
    ("op.samples", "count"),
    ("snapshot.bytes", "bytes"),
    ("campaign.attempts_per_trial", "count"),
    ("campaign.acceptable_frac", "ratio"),
    ("campaign.launch_frac", "ratio"),
    ("serve.pool_warm_frac", "ratio"),
    ("serve.overhead_frac", "ratio"),
    ("serve.jobs_executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("host.slowdown", "ratio"),
];

/// Summed counts reported as ratios: (metric, numerator, denominator, unit).
const RATIOS: [(&str, &str, &str, &str); 5] = [
    ("snapshot.bytes", "snapshot.bytes", "snapshot.docs", "bytes"),
    (
        "campaign.attempts_per_trial",
        "campaign.attempts",
        "campaign.trials",
        "count",
    ),
    (
        "campaign.acceptable_frac",
        "campaign.acceptable",
        "campaign.trials",
        "ratio",
    ),
    (
        "campaign.ms_per_attempt",
        "campaign.ms",
        "campaign.attempts",
        "ms",
    ),
    (
        "serve.pool_warm_frac",
        "serve.pool_warm",
        "serve.launches",
        "ratio",
    ),
];

/// Whether `unit` measures time.
#[must_use]
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// The samples behind it, for percentiles.
    pub samples: Option<usize>,
}

/// Metrics in print order.
pub type Metrics = Vec<Metric>;

/// Looks a metric up by name.
#[must_use]
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

fn push(
    out: &mut Metrics,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
) {
    // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
    out.push(Metric {
        name: name.into(),
        value: value + 0.0,
        unit,
        samples,
    });
}

/// The throughput and latency metrics of a window's tally, named with
/// `prefix`: `lane_instr_per_s` and `op_ms_p50` (end to end) and
/// `op_ms_p90` (per layer). Host-normalized unless `raw`.
fn e2e_of(
    t: &Tally,
    raw: bool,
    prefix: &str,
    min_tail: usize,
    errors: &mut Vec<String>,
) -> Metrics {
    let scale = |values: &[f64], slowdown: &[f64], by: fn(f64, f64) -> f64| -> Vec<f64> {
        if raw || slowdown.is_empty() {
            values.to_vec()
        } else {
            values
                .iter()
                .zip(slowdown)
                .map(|(v, s)| by(*v, *s))
                .collect()
        }
    };
    let mut out = Metrics::new();
    if t.round_rates.is_empty() {
        push(
            &mut out,
            format!("{prefix}lane_instr_per_s"),
            ratio(t.instr as f64, t.throughput_s),
            "1/s",
            None,
        );
    } else {
        let rates = scale(&t.round_rates, &t.round_slowdown, |r, s| r * s);
        push(
            &mut out,
            format!("{prefix}lane_instr_per_s"),
            median(&rates),
            "1/s",
            Some(rates.len()),
        );
    }
    let op_s = scale(&t.op_s, &t.op_slowdown, |v, s| v / s);
    push(
        &mut out,
        format!("{prefix}op_ms_p50"),
        quantile_by_kind(&op_s, &t.op_kind, 0.5) * 1e3,
        "ms",
        Some(op_s.len()),
    );
    match p90("op_ms_p90", &op_s, min_tail) {
        Ok(v) => push(
            &mut out,
            format!("{prefix}op_ms_p90"),
            v * 1e3,
            "ms",
            Some(op_s.len()),
        ),
        Err(e) => errors.push(e),
    }
    out
}

/// Builds a run's metric list.
#[derive(Debug)]
pub struct Assembly {
    min_tail: usize,
    out: Metrics,
    plain_e2e: Metrics,
    errors: Vec<String>,
}

impl Assembly {
    /// Starts an empty list; p90s need `min_tail` samples.
    #[must_use]
    pub const fn new(min_tail: usize) -> Self {
        Self {
            min_tail,
            out: Vec::new(),
            plain_e2e: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Medians of the set-ups: their time (host-normalized where the
    /// workload is), their raw time, and the input-building share of it.
    pub fn setup(&mut self, setups: &[SetupTime]) {
        let n = Some(setups.len());
        let median_of = |f: fn(&SetupTime) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        push(&mut self.out, "setup_s", median_of(|s| s.secs), "s", n);
        push(&mut self.out, "raw.setup_s", median_of(|s| s.raw_secs), "s", n);
        push(
            &mut self.out,
            "kernels.build_ms",
            median_of(|s| s.build_s) * 1e3,
            "ms",
            n,
        );
    }

    /// The untraced window's end-to-end metrics, with their raw twins and
    /// the host slowdown they were normalized by.
    pub fn e2e(&mut self, t: &Tally) {
        self.plain_e2e = e2e_of(t, false, "", self.min_tail, &mut self.errors);
        self.out.extend(self.plain_e2e.iter().cloned());
        if !t.round_slowdown.is_empty() {
            let raw = e2e_of(t, true, "raw.", self.min_tail, &mut Vec::new());
            self.out.extend(raw);
            push(
                &mut self.out,
                "host.slowdown",
                median(&t.round_slowdown),
                "ratio",
                None,
            );
        }
    }

    /// Peak resident memory of the whole run.
    pub fn peak_rss(&mut self) {
        match peak_rss_mb() {
            Ok(v) => push(&mut self.out, "peak_rss_mb", v, "MB", None),
            Err(e) => self.errors.push(e),
        }
    }

    /// Layer metrics measured by timing calls and reading results.
    pub fn layers(&mut self, t: &Tally) {
        let out = &mut self.out;
        push(out, "op.samples", t.op_s.len() as f64, "count", None);
        for (stem, samples) in &t.calls {
            let unit = if stem.ends_with("_us") { "us" } else { "ms" };
            push(
                out,
                format!("{stem}_p50"),
                median(samples),
                unit,
                Some(samples.len()),
            );
        }
        for (name, (value, unit)) in &t.values {
            push(out, *name, *value, unit, None);
        }
        for (name, num, den, unit) in RATIOS {
            if let (Some(n), Some(d)) = (t.counts.get(num), t.counts.get(den)) {
                push(out, name, ratio(*n, *d), unit, None);
            }
        }
        for (kernel, (instr, secs)) in &t.per_kernel {
            push(
                out,
                format!("lane_instr_per_s.{kernel}"),
                ratio(*instr as f64, *secs),
                "1/s",
                None,
            );
        }
        let s = &t.sim;
        push(
            out,
            "sim.lane_instructions",
            s.lane_instructions as f64,
            "count",
            None,
        );
        push(
            out,
            "core.hit_rate",
            ratio(s.hit_num, s.hit_den),
            "ratio",
            None,
        );
        push(
            out,
            "timing.errors_injected",
            s.errors_injected as f64,
            "count",
            None,
        );
        push(out, "timing.recoveries", s.recoveries as f64, "count", None);
        push(
            out,
            "energy.pj_per_lane_instr",
            ratio(s.energy_pj, s.lane_instructions as f64),
            "pJ",
            None,
        );
        if s.detailed {
            push(out, "sim.cycles_max", s.cycles_max as f64, "count", None);
            push(out, "core.lookups", s.lookups as f64, "count", None);
            push(out, "fpu.evaluations", s.misses as f64, "count", None);
            push(
                out,
                "timing.masked_frac",
                ratio(s.masked_errors as f64, s.errors_seen as f64),
                "ratio",
                None,
            );
            push(
                out,
                "timing.recovery_stall_cycles",
                s.recovery_stall_cycles as f64,
                "count",
                None,
            );
        }
    }

    /// Metrics of the traced window: the per-layer split of host time and
    /// the tracing overhead. Returns the traced window's throughput and
    /// latency metrics.
    pub fn traced(&mut self, t: &Tally) -> Metrics {
        let e2e = e2e_of(t, false, "", self.min_tail, &mut self.errors);
        let l = &t.layers;
        let out = &mut self.out;
        for layer in LAYERS {
            push(
                out,
                format!("self_frac.{layer}"),
                l.self_frac(layer),
                "ratio",
                None,
            );
        }
        push(
            out,
            "trace.unattributed_frac",
            l.unattributed_frac(),
            "ratio",
            None,
        );
        for (name, samples) in [
            ("sim.launch_us_p50", &l.launch_us),
            ("sim.compile_us_p50", &l.compile_us),
            ("sim.engine.fork_join_us_p50", &l.fork_join_us),
        ] {
            if !samples.is_empty() {
                push(out, name, quantile(samples, 0.5), "us", Some(samples.len()));
            }
        }
        let launch_total: f64 = l.launch_us.iter().sum();
        let ops = t.op_s.len() as f64;
        push(
            out,
            "sim.dispatches_per_op",
            ratio(l.launch_us.len() as f64, ops),
            "count",
            None,
        );
        push(
            out,
            "sim.engine.worker_busy_frac",
            ratio(l.worker_busy_us, l.worker_capacity_us),
            "ratio",
            None,
        );
        push(
            out,
            "sim.engine.fork_join_frac",
            ratio(l.fork_join_us.iter().sum(), launch_total),
            "ratio",
            None,
        );
        push(
            out,
            "campaign.launch_frac",
            ratio(l.campaign_launch_us, l.campaign_us),
            "ratio",
            None,
        );
        for m in &e2e {
            if let Some(plain) = find(&self.plain_e2e, &m.name) {
                push(
                    out,
                    format!("trace.overhead.{}", m.name),
                    ratio(m.value, plain.value),
                    "ratio",
                    None,
                );
            }
        }
        e2e
    }

    /// One line per throughput and latency metric: traced against
    /// untraced.
    #[must_use]
    pub fn overhead_lines(&self, traced: &[Metric]) -> Vec<String> {
        traced
            .iter()
            .filter_map(|m| {
                let plain = find(&self.plain_e2e, &m.name)?;
                Some(format!(
                    "tracing overhead: {} traced {:.6} vs untraced {:.6} {} ({:+.2}%)",
                    m.name,
                    m.value,
                    plain.value,
                    m.unit,
                    (ratio(m.value, plain.value) - 1.0) * 100.0
                ))
            })
            .collect()
    }

    /// The metrics and the metrics that could not be reported.
    #[must_use]
    pub fn finish(self) -> (Metrics, Vec<String>) {
        (self.out, self.errors)
    }
}

/// The `name value unit` lines of a run, with sample counts beside
/// percentiles.
#[must_use]
pub fn lines(r: &RunResult) -> Vec<String> {
    let mut out: Vec<String> = r
        .metrics
        .iter()
        .map(|m| match m.samples {
            Some(n) => format!("{} {} {} n={n}", m.name, m.value, m.unit),
            None => format!("{} {} {}", m.name, m.value, m.unit),
        })
        .collect();
    if let Some(d) = r.sim_digest {
        out.push(format!("sim_digest {d:#018x}"));
    }
    out.extend(r.notes.iter().cloned());
    out
}

/// The run's last stdout line: the end-to-end metrics (untraced runs) or
/// the per-layer metrics (traced runs), plus the operation counts.
///
/// # Errors
/// When a declared metric is missing: a time must always be measured,
/// while a missing count or ratio means the layer was not exercised and
/// reads 0.
pub fn result_line(r: &RunResult) -> Result<String, String> {
    let declared: &[(&str, &str)] = if r.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = ObjWriter::new();
    for &(name, unit) in declared {
        let value = match find(&r.metrics, name) {
            Some(m) => m.value,
            None if !is_time(unit) => 0.0,
            None => {
                return Err(format!(
                    "{}: metric {name} was not measured",
                    r.workload.name()
                ))
            }
        };
        let mut w = ObjWriter::new();
        w.f64_field("value", value);
        w.str_field("unit", unit);
        metrics.raw_field(name, &w.finish());
    }
    let mut w = ObjWriter::new();
    w.bool_field("correct", r.correct());
    w.u64_field("attempted", r.attempted);
    w.u64_field("failed", r.failed);
    w.raw_field("metrics", &metrics.finish());
    Ok(w.finish())
}

fn metrics_object(metrics: &[Metric]) -> String {
    let mut obj = ObjWriter::new();
    for m in metrics {
        let mut w = ObjWriter::new();
        w.f64_field("value", m.value);
        w.str_field("unit", m.unit);
        if let Some(n) = m.samples {
            w.u64_field("samples", n as u64);
        }
        obj.raw_field(&m.name, &w.finish());
    }
    obj.finish()
}

/// The commit the working directory is at, read from `.git` without
/// running git; `None` outside a git checkout.
#[must_use]
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(name))
                    .map(|l| l[..l.len() - name.len()].to_string())
            })?,
        None => head.to_string(),
    };
    Some(rev.trim().chars().take(12).collect())
}

/// The `--out` document: the run with its attribution, every metric and
/// the sample counts. `tm-benchmark compare` reads these.
#[must_use]
pub fn result_file(r: &RunResult, seconds: f64) -> String {
    let (e2e, layers): (Metrics, Metrics) = r
        .metrics
        .iter()
        .cloned()
        .partition(|m| END_TO_END.iter().any(|(n, _)| *n == m.name));
    let mut w = ObjWriter::new();
    w.str_field("workload", r.workload.name());
    w.u64_field("seed", r.seed);
    match git_rev() {
        Some(rev) => w.str_field("git_rev", &rev),
        None => w.raw_field("git_rev", "null"),
    }
    w.u64_field(
        "host_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    w.str_field("backend", r.backend);
    w.bool_field("trace", r.trace);
    w.f64_field("seconds", seconds);
    w.raw_field("e2e", &metrics_object(&e2e));
    if let Some(t) = &r.traced_e2e {
        w.raw_field("e2e_traced", &metrics_object(t));
    }
    w.raw_field("layers", &metrics_object(&layers));
    match r.sim_digest {
        Some(d) => w.str_field("sim_digest", &format!("{d:#018x}")),
        None => w.raw_field("sim_digest", "null"),
    }
    w.u64_field("ops_attempted", r.attempted);
    w.u64_field("ops_failed", r.failed);
    w.f64_field("failed_frac", ratio(r.failed as f64, r.attempted as f64));
    w.bool_field("correct", r.correct());
    w.finish()
}
