//! `tm-benchmark`: the repository benchmark.
//!
//! One run measures one workload in one process: it sets the workload up,
//! then drives it in a closed loop for a fixed window, timing each call
//! into the program's public API and checking every output. It sets the
//! workload up again several times in the course of the run and reports
//! the median as `setup_s`. See `benchmark/README.md` for the workloads,
//! the metrics and how to compare two commits.

pub mod campaign;
pub mod compare;
pub mod kernels;
pub mod metrics;
pub mod pinned;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use tm_obs::SharedRecorder;
use tm_sim::DeviceReport;

use crate::stats::Fnv;
use crate::trace::{attribute, LayerTimes, Probe, ROUND_SPAN_CAPACITY};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All seven kernels at default scale on the sequential backend.
    KernelsDefault,
    /// All seven kernels at test scale on the parallel backend, plus a
    /// snapshot round trip per round.
    LaunchesTest,
    /// Sobel and Gaussian resilience campaigns under error injection, on
    /// the sequential backend.
    CampaignInjected,
    /// Two closed-loop clients against an in-process job server.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 4] = [
        Self::KernelsDefault,
        Self::LaunchesTest,
        Self::CampaignInjected,
        Self::ServeMixed,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::KernelsDefault => "kernels-default",
            Self::LaunchesTest => "launches-test",
            Self::CampaignInjected => "campaign-injected",
            Self::ServeMixed => "serve-mixed",
        }
    }

    /// Whether the workload's times are host-normalized: scaled by the
    /// host slowdown that reference walks measure around them. In-process
    /// workloads are bound by the CPU and its caches, so their times follow
    /// the host's speed. A served request's latency is set by socket
    /// timers, so scaling it would add noise.
    #[must_use]
    pub const fn host_normalized(self) -> bool {
        !matches!(self, Self::ServeMixed)
    }

    /// Parses a workload name.
    ///
    /// # Errors
    /// Lists the valid names.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// How one run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Measurement time of the run. A traced run splits it evenly between
    /// its traced and untraced windows.
    pub seconds: f64,
    /// Adds a traced window and reports per-layer metrics.
    pub trace: bool,
    /// Set-ups performed; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Fewest samples a p90 may rest on.
    pub min_tail_samples: usize,
}

impl RunConfig {
    /// The configuration the command line uses for `seconds`.
    #[must_use]
    pub const fn standard(seconds: f64, trace: bool) -> Self {
        Self {
            seconds,
            trace,
            setup_repeats: 9,
            min_tail_samples: stats::MIN_TAIL_SAMPLES,
        }
    }
}

/// Simulated statistics, exact for a given seed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Lane instructions retired.
    pub lane_instructions: u64,
    /// Memo hits, weighted by lookups (or lane instructions where only a
    /// hit rate is observable).
    pub hit_num: f64,
    /// The weight behind `hit_num`.
    pub hit_den: f64,
    /// Timing errors injected.
    pub errors_injected: u64,
    /// ECU recoveries.
    pub recoveries: u64,
    /// Energy, pJ.
    pub energy_pj: f64,
    /// Whether full `DeviceReport`s fed the fields below.
    pub detailed: bool,
    /// Busiest-CU cycles, summed over launches.
    pub cycles_max: u64,
    /// Memo lookups.
    pub lookups: u64,
    /// Memo misses: the FPU evaluations.
    pub misses: u64,
    /// Errors masked by a memo hit.
    pub masked_errors: u64,
    /// Errors seen by the memo modules.
    pub errors_seen: u64,
    /// Cycles stalled in ECU recovery.
    pub recovery_stall_cycles: u64,
}

impl Sim {
    /// Adds one launch's report.
    pub fn add_report(&mut self, r: &DeviceReport) {
        let s = r.total_stats();
        self.lane_instructions += r.total_instructions();
        self.hit_num += s.hits as f64;
        self.hit_den += s.lookups as f64;
        self.errors_injected += r.errors_injected;
        self.recoveries += r.recoveries;
        self.energy_pj += r.total_energy_pj();
        self.detailed = true;
        self.cycles_max += r.cycles_max;
        self.lookups += s.lookups;
        self.misses += s.misses;
        self.masked_errors += s.masked_errors;
        self.errors_seen += s.errors_seen;
        self.recovery_stall_cycles += r.recovery_stall_cycles;
    }
}

/// Everything one measurement window observed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Raw latency of each primary operation, seconds.
    pub op_s: Vec<f64>,
    /// The kind of each operation of `op_s`: `op_ms_p50` is the geometric
    /// mean of the kinds' median latencies.
    pub op_kind: Vec<&'static str>,
    /// Simulated lane instructions the primary operations retired.
    pub instr: u64,
    /// Host time `instr` is divided by for `lane_instr_per_s` when there
    /// are no `round_rates` (serve-mixed: the window's wall time), seconds.
    pub throughput_s: f64,
    /// Lane instructions per second of each round's operations. When
    /// present, `lane_instr_per_s` is their median, which a host slowdown
    /// covering less than half the window barely moves.
    pub round_rates: Vec<f64>,
    /// Host slowdown (see [`stats::host_slowdowns`]) during each round of
    /// `round_rates`; empty when the workload is not host-normalized.
    pub round_slowdown: Vec<f64>,
    /// Host slowdown during each operation of `op_s`, likewise.
    pub op_slowdown: Vec<f64>,
    /// Per kernel: lane instructions and the seconds spent on them.
    pub per_kernel: BTreeMap<&'static str, (u64, f64)>,
    /// Timed calls by metric stem (its suffix names the unit): the run
    /// reports each as `<stem>_p50`.
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    /// Values measured directly: name → (value, unit).
    pub values: BTreeMap<&'static str, (f64, &'static str)>,
    /// Summed counts, normalised when metrics are assembled.
    pub counts: BTreeMap<&'static str, f64>,
    /// Simulated statistics of the first input cycle.
    pub sim: Sim,
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-layer host time (traced windows only).
    pub layers: LayerTimes,
    /// Notes for stdout, such as the reconciliation line.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one primary operation of `kind` that retired `instr` lane
    /// instructions.
    pub fn op(&mut self, kind: &'static str, secs: f64, instr: u64) {
        self.op_s.push(secs);
        self.op_kind.push(kind);
        self.instr += instr;
    }

    /// Adds `instr` lane instructions retired in `secs` to `kernel`.
    pub fn kernel(&mut self, kernel: &'static str, instr: u64, secs: f64) {
        let e = self.per_kernel.entry(kernel).or_default();
        e.0 += instr;
        e.1 += secs;
    }

    /// Records one timed call sample under `stem`.
    pub fn sample(&mut self, stem: &'static str, value: f64) {
        self.calls.entry(stem).or_default().push(value);
    }

    /// Adds to a summed count.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an already counted operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Folds a concurrent client's tally into this one.
    pub fn merge(&mut self, other: Self) {
        self.op_s.extend(other.op_s);
        self.op_kind.extend(other.op_kind);
        self.instr += other.instr;
        for (k, (i, s)) in other.per_kernel {
            let e = self.per_kernel.entry(k).or_default();
            e.0 += i;
            e.1 += s;
        }
        for (k, v) in other.calls {
            self.calls.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        // Served responses carry only these simulated statistics.
        let (a, b) = (&mut self.sim, other.sim);
        a.lane_instructions += b.lane_instructions;
        a.hit_num += b.hit_num;
        a.hit_den += b.hit_den;
        a.errors_injected += b.errors_injected;
        a.recoveries += b.recoveries;
        a.energy_pj += b.energy_pj;
        a.cycles_max += b.cycles_max;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// One timed set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTime {
    /// Seconds, host-normalized where the workload is.
    pub secs: f64,
    /// Seconds as measured.
    pub raw_secs: f64,
    /// Seconds of it spent building inputs.
    pub build_s: f64,
}

/// One finished measurement window.
#[derive(Debug, Default)]
pub struct Window {
    /// What the window observed.
    pub tally: Tally,
    /// Digest of the simulated results of the first input cycle, for
    /// workloads whose results are a pure function of the seed.
    pub digest: Option<u64>,
    /// The Chrome trace of the first traced round.
    pub chrome_trace: Option<String>,
    /// The set-ups performed in the course of the window.
    pub setups: Vec<SetupTime>,
}

/// A workload after set-up.
pub trait Bench {
    /// The execution backend the program runs on.
    fn backend(&self) -> &'static str;
    /// Runs one closed-loop window of `seconds` (at least one input cycle),
    /// setting the workload up afresh `setups` times in its course, spread
    /// evenly. Set-up time does not count towards `seconds`.
    ///
    /// # Errors
    /// When the window cannot be measured (not when an output is wrong:
    /// that is a failed operation in the tally).
    fn window(&mut self, seconds: f64, traced: bool, setups: usize) -> Result<Window, String>;
}

/// An in-process workload driven one round at a time.
pub trait Rounds {
    /// The execution backend the program runs on.
    fn backend(&self) -> &'static str;
    /// Rounds per input cycle: round `i` reuses the inputs of round
    /// `i % cycle`, so it must reproduce that round's digest.
    fn cycle(&self) -> usize;
    /// Runs round `index`, timing calls through `probe` into `tally`, and
    /// returns the digest of the round's simulated results.
    fn round(&mut self, index: usize, probe: &Probe, tally: &mut Tally) -> u64;
}

/// Drives a [`Rounds`] workload through measurement windows, timing the
/// reference walk around every round and every set-up.
pub struct InProcess<R> {
    /// The set-up workload; empty only while it is set up afresh.
    rounds: Option<R>,
    /// Sets the workload up from nothing, returning it with the seconds
    /// spent building its inputs.
    make: Box<dyn Fn() -> (R, f64)>,
}

impl<R: Rounds> InProcess<R> {
    /// Sets the workload up with `make`. Returns it with the seconds spent
    /// building its inputs.
    fn new(make: impl Fn() -> (R, f64) + 'static) -> (Self, f64) {
        let (rounds, build_s) = make();
        let bench = Self {
            rounds: Some(rounds),
            make: Box::new(make),
        };
        (bench, build_s)
    }

    fn rounds(&mut self) -> &mut R {
        self.rounds.as_mut().expect("the workload is set up")
    }
}

impl<R: Rounds> Bench for InProcess<R> {
    fn backend(&self) -> &'static str {
        self.rounds
            .as_ref()
            .expect("the workload is set up")
            .backend()
    }

    fn window(&mut self, seconds: f64, traced: bool, setups: usize) -> Result<Window, String> {
        let cycle = self.rounds().cycle();
        let mut tally = Tally::default();
        let mut first = Vec::with_capacity(cycle);
        let mut first_sim = None;
        let mut chrome_trace = None;
        let start = Instant::now();
        let mut index = 0;
        // Set-ups so far, as (seconds, input-building seconds), and their
        // total, which the window's length leaves out.
        let (mut set_up, mut setup_total) = (Vec::with_capacity(setups), 0.0);
        // Reference walks between rounds and set-ups: (seconds into the
        // window, walk time).
        let mut walks = vec![(0.0, stats::reference_secs())];
        // What ran between consecutive walks: a round, as the operation
        // count at its end, or a set-up (`None`).
        let mut between = Vec::new();
        loop {
            let measured = start.elapsed().as_secs_f64() - setup_total;
            let due = seconds * (set_up.len() + 1) as f64 / (setups + 1) as f64;
            if set_up.len() < setups && measured >= due {
                // From nothing, as the run's first set-up started.
                let t = Instant::now();
                self.rounds = None;
                let (rounds, build_s) = (self.make)();
                self.rounds = Some(rounds);
                let secs = t.elapsed().as_secs_f64();
                setup_total += secs;
                set_up.push((secs, build_s));
                between.push(None);
                walks.push((start.elapsed().as_secs_f64(), stats::reference_secs()));
                continue;
            }
            if index >= cycle && measured >= seconds {
                break;
            }
            // A recorder per round keeps traced memory bounded.
            let rec = traced.then(|| SharedRecorder::with_capacity(ROUND_SPAN_CAPACITY));
            let pid = rec.as_ref().map_or(0, SharedRecorder::alloc_pid);
            let probe = rec
                .as_ref()
                .map_or_else(Probe::untraced, |r| Probe::traced(r, pid, 0));
            let (ops, instr) = (tally.op_s.len(), tally.instr);
            let t = Instant::now();
            let digest = self.rounds().round(index, &probe, &mut tally);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            let busy: f64 = tally.op_s[ops..].iter().sum();
            tally.round_rates.push((tally.instr - instr) as f64 / busy);
            between.push(Some(tally.op_s.len()));
            walks.push((start.elapsed().as_secs_f64(), stats::reference_secs()));
            if index < cycle {
                first.push(digest);
            } else if digest != first[index % cycle] {
                tally.fail(format!(
                    "round {index}: simulated results differ from round {} on the same inputs",
                    index % cycle
                ));
            }
            if index + 1 == cycle {
                first_sim = Some(tally.sim);
            }
            if let Some(rec) = rec {
                if rec.dropped() > 0 {
                    return Err(format!(
                        "round {index}: the trace recorder dropped {} spans",
                        rec.dropped()
                    ));
                }
                rec.with(|r| attribute(r.spans(), pid, false, wall_us, &mut tally.layers));
                if chrome_trace.is_none() {
                    chrome_trace = Some(rec.chrome_trace_json());
                }
            }
            index += 1;
        }
        let mut setups = Vec::with_capacity(set_up.len());
        for (slowdown, what) in stats::host_slowdowns(&walks).into_iter().zip(between) {
            match what {
                Some(end) => {
                    tally.round_slowdown.push(slowdown);
                    tally.op_slowdown.resize(end, slowdown);
                }
                None => {
                    let (secs, build_s) = set_up[setups.len()];
                    setups.push(SetupTime {
                        secs: secs / slowdown,
                        raw_secs: secs,
                        build_s,
                    });
                }
            }
        }
        tally.sim = first_sim.expect("a window runs at least one input cycle");
        let mut h = Fnv::default();
        for d in first {
            h.write(&d.to_le_bytes());
        }
        Ok(Window {
            tally,
            digest: Some(h.finish()),
            chrome_trace,
            setups,
        })
    }
}

/// Sets `workload` up once, returning it with the seconds spent building
/// its inputs.
///
/// # Errors
/// When set-up fails (e.g. the server cannot bind).
pub fn setup(workload: Workload, seed: u64) -> Result<(Box<dyn Bench>, f64), String> {
    fn boxed<R: Rounds + 'static>((bench, build_s): (InProcess<R>, f64)) -> (Box<dyn Bench>, f64) {
        (Box::new(bench), build_s)
    }
    Ok(match workload {
        Workload::KernelsDefault => boxed(InProcess::new(move || {
            kernels::KernelRounds::setup(
                tm_kernels::Scale::Default,
                (tm_sim::ExecBackend::Sequential, 2),
                1,
                kernels::Unit::Launch,
                seed,
            )
        })),
        // One CU: the parallel engine still forks and joins a worker thread
        // per dispatch, but never needs a second free core, whose
        // availability on a shared 2-core host moved this workload's
        // throughput by 45% between runs an hour apart.
        Workload::LaunchesTest => boxed(InProcess::new(move || {
            kernels::KernelRounds::setup(
                tm_kernels::Scale::Test,
                (tm_sim::ExecBackend::Parallel, 1),
                8,
                kernels::Unit::Round,
                seed,
            )
        })),
        Workload::CampaignInjected => boxed(InProcess::new(move || {
            campaign::CampaignRounds::setup(seed)
        })),
        Workload::ServeMixed => {
            let (s, build_s) = serve::ServeMixed::setup(seed)?;
            (Box::new(s), build_s)
        }
    })
}

/// Seed `index` of the stream fanned out of `seed`.
#[must_use]
pub fn derive_seed(seed: u64, index: usize) -> u64 {
    let mut rng = tm_rng::SplitMix64::new(seed);
    (0..index).for_each(|_| {
        rng.next_u64();
    });
    rng.next_u64()
}

/// What one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Whether the run traced.
    pub trace: bool,
    /// The program's execution backend.
    pub backend: &'static str,
    /// Every metric, in print order.
    pub metrics: metrics::Metrics,
    /// End-to-end metrics of the traced window (trace runs only).
    pub traced_e2e: Option<metrics::Metrics>,
    /// Simulated-result digest, when the workload has one.
    pub sim_digest: Option<u64>,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Lines for stdout: reconciliation, tracing overhead.
    pub notes: Vec<String>,
    /// Chrome trace of the first traced round.
    pub chrome_trace: Option<String>,
    /// Metrics the run could not report (too few samples); a run with
    /// any is an error.
    pub errors: Vec<String>,
}

impl RunResult {
    /// Whether every output checked out.
    #[must_use]
    pub const fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Runs `workload` at `seed`.
///
/// # Errors
/// When set-up or a window cannot be measured.
pub fn run(workload: Workload, seed: u64, cfg: &RunConfig) -> Result<RunResult, String> {
    let repeats = cfg.setup_repeats.max(1);
    // A host slowdown can last longer than back-to-back set-ups take. The
    // set-ups of host-normalized workloads are therefore spread over the
    // untraced window, so that their median, like the rounds', outlasts
    // one; serve-mixed's set-ups run back to back.
    let before = if workload.host_normalized() {
        1
    } else {
        repeats
    };
    let mut setups = Vec::with_capacity(repeats);
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..before {
        drop(bench.take());
        let (b, secs, slowdown) = stats::timed_on_host(|| setup(workload, seed));
        let (b, build_s) = b?;
        setups.push(SetupTime {
            secs: if workload.host_normalized() {
                secs / slowdown
            } else {
                secs
            },
            raw_secs: secs,
            build_s,
        });
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // The traced window goes first so the server's own recorder, which
    // is bounded, still has room for its spans.
    let traced = if cfg.trace {
        Some(bench.window(seconds, true, 0)?)
    } else {
        None
    };
    let plain = bench.window(seconds, false, repeats - before)?;
    let backend = bench.backend();
    drop(bench);
    setups.extend_from_slice(&plain.setups);

    let mut m = metrics::Assembly::new(cfg.min_tail_samples);
    m.setup(&setups);
    m.e2e(&plain.tally);
    m.peak_rss();
    m.layers(&plain.tally);
    let mut traced_e2e = None;
    let mut notes = plain.tally.notes.clone();
    let (mut attempted, mut failed) = (plain.tally.attempted, plain.tally.failed);
    let mut failures = plain.tally.failures.clone();
    if let Some(t) = &traced {
        let e2e = m.traced(&t.tally);
        notes.extend(t.tally.notes.iter().cloned());
        notes.push(t.tally.layers.reconciliation());
        notes.extend(m.overhead_lines(&e2e));
        traced_e2e = Some(e2e);
        attempted += t.tally.attempted;
        failed += t.tally.failed;
        failures.extend(t.tally.failures.iter().cloned());
        if t.digest != plain.digest {
            failures.push(
                "the traced window's simulated results differ from the untraced window's".into(),
            );
            failed = attempted;
        }
    }
    if let (Some(pinned), Some(got)) = (pinned::digest(workload, seed), plain.digest) {
        if pinned != got {
            failures.push(format!(
                "sim_digest {got:#018x} differs from the pinned {pinned:#018x} for seed {seed}"
            ));
            failed = attempted;
        }
    }
    let chrome_trace = traced.and_then(|t| t.chrome_trace);
    if let Some(json) = &chrome_trace {
        tm_obs::validate_chrome_trace(json).map_err(|e| format!("the trace is malformed: {e}"))?;
    }
    let (metrics, errors) = m.finish();
    Ok(RunResult {
        workload,
        seed,
        trace: cfg.trace,
        backend,
        metrics,
        traced_e2e,
        sim_digest: plain.digest,
        attempted,
        failed,
        failures,
        notes,
        chrome_trace,
        errors,
    })
}
