//! Monte Carlo fault-injection campaigns with an adaptive quality
//! controller.
//!
//! The paper's headline claim is statistical: memoization masks timing
//! errors across a sweep of operating points while a PSNR ≥ 30 dB gate
//! polices approximate matching (§5.1–§5.3). A *campaign* makes that
//! claim measurable with spread, not just a point estimate: for every
//! sweep point (error rate) it runs `trials` independently seeded trials
//! of an IR image kernel, and aggregates mean/stddev/min/max of PSNR,
//! hit rate, energy and recovery cycles.
//!
//! Two subsystems ride on top of the plain sweep:
//!
//! * **Heterogeneous error models** — each trial injects errors through
//!   the configured [`ErrorModelSpec`] (uniform, per-stream-core process
//!   corners, voltage-coupled, bursty; see [`tm_timing::error_model`]).
//! * **An adaptive quality controller** — whenever a trial's PSNR falls
//!   below the 30 dB floor, the [`QualityController`] tightens the
//!   approximate-matching threshold toward exact and re-runs the trial,
//!   logging each adaptation step (graceful degradation toward exact
//!   matching, which has PSNR = ∞ by construction, so the loop always
//!   converges).
//!
//! # Determinism contract
//!
//! Trial seeds are fanned out of the single campaign seed with
//! [`tm_rng::SplitMix64`] in (rate-index, trial-index) order, and every
//! backend produces bit-identical [`DeviceReport`]s, so
//! [`CampaignOutcome::jsonl`] is **byte-identical** for the same spec
//! across Sequential/Parallel — the backend is deliberately kept
//! out of the JSONL lines. `crates/bench/tests/campaign.rs` pins both
//! properties.

use std::fmt::Write as _;
use tm_image::{gaussian3x3_reference, psnr, sobel_reference, synth, GrayImage};
use tm_kernels::ir::{gaussian_program, sobel_program, ImageProgram};
use tm_kernels::{workload, KernelId, Scale, GRAY_LEVELS_PER_THRESHOLD_UNIT};
use tm_obs::{Heartbeat, JsonValue, MetricsRegistry, ObjWriter, RunMeta, SharedRecorder, TelemetryHub};
use tm_rng::SplitMix64;
use tm_sim::prelude::*;
use tm_sim::DeviceSnapshot;
use tm_timing::HeterogeneousErrors;

/// The fixed hub scope every campaign trial device publishes under.
///
/// A campaign builds one fresh device per attempt; binding them all to
/// one scope keeps the hub at a constant series count (counters keep
/// accumulating, gauges show the latest attempt) instead of growing a
/// scope per device.
pub const CAMPAIGN_DEVICE_SCOPE: &str = "campaign.device.";

/// PSNR is ∞ when the output matches the reference exactly (threshold 0
/// ⇒ exact matching); JSON has no ∞, so records cap it here. Any capped
/// value is still far above every acceptability gate.
pub const PSNR_CAP_DB: f64 = 99.0;

/// The paper's user-acceptability floor (§5.1): "PSNR of greater than
/// 30 dB is considered acceptable".
pub const PSNR_FLOOR_DB: f64 = 30.0;

/// The default error-rate sweep: the Fig. 10 axis end-points plus the
/// error-free control.
pub const CAMPAIGN_ERROR_RATES: [f64; 4] = [0.0, 0.01, 0.02, 0.04];

/// Tightens the approximate-matching threshold toward exact whenever a
/// trial's output quality falls below the floor.
///
/// Each adaptation multiplies the gray-level threshold by
/// `tighten_factor`; once it drops below `min_threshold` it snaps to
/// `0.0` — exact matching, whose PSNR is infinite — so convergence
/// within a bounded number of steps is structural, not statistical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityController {
    /// The PSNR floor to restore, dB.
    pub floor_db: f64,
    /// Multiplier applied to the threshold per adaptation (in `(0, 1)`).
    pub tighten_factor: f32,
    /// Below this gray-level threshold the controller snaps to exact.
    pub min_threshold: f32,
    /// Hard cap on adaptations per trial (safety net; the snap-to-exact
    /// rule converges long before a sane cap).
    pub max_adaptations: u32,
}

impl Default for QualityController {
    fn default() -> Self {
        Self {
            floor_db: PSNR_FLOOR_DB,
            tighten_factor: 0.5,
            min_threshold: 0.5,
            max_adaptations: 8,
        }
    }
}

impl QualityController {
    /// The next threshold to try after observing `psnr_db` at
    /// `threshold`, or `None` when no further adaptation is warranted
    /// (quality is acceptable, matching is already exact, or `steps`
    /// hit the cap).
    #[must_use]
    pub fn next_threshold(&self, threshold: f32, psnr_db: f64, steps: u32) -> Option<f32> {
        if psnr_db >= self.floor_db || threshold <= 0.0 || steps >= self.max_adaptations {
            return None;
        }
        let next = threshold * self.tighten_factor;
        Some(if next < self.min_threshold { 0.0 } else { next })
    }
}

/// One contiguous slice of a sharded campaign.
///
/// A campaign's flattened trial space has `error_rates.len() * trials`
/// entries in (rate-index, trial-index) order; shard `index` of `count`
/// owns the half-open range `[index * total / count, (index + 1) *
/// total / count)`. Every shard walks the **full** [`SplitMix64`] seed
/// stream — advancing it even for trials it does not own — so each
/// owned trial sees exactly the seed the monolithic run would have
/// given it, and concatenating the shards' JSONL bodies in index order
/// reproduces the monolithic document byte-for-byte.
///
/// # Examples
///
/// ```
/// use tm_bench::Shard;
///
/// let shard = Shard::parse("1/3").unwrap();
/// assert_eq!((shard.index(), shard.count()), (1, 3));
/// // 10 trials over 3 shards: 3 + 4 + 3.
/// assert_eq!(shard.bounds(10), (3, 6));
/// assert!(Shard::parse("3/3").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Builds shard `index` of `count`.
    ///
    /// # Errors
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (indices are 0-based)"
            ));
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI spelling `"i/n"` (e.g. `"0/4"`).
    ///
    /// # Errors
    /// Rejects anything that is not two integers separated by `/` with
    /// `i < n`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("expected \"i/n\" (e.g. \"0/4\"), got {text:?}"))?;
        let index = i
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shard index {i:?} is not an integer"))?;
        let count = n
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shard count {n:?} is not an integer"))?;
        Self::new(index, count)
    }

    /// The shard's 0-based index.
    #[must_use]
    pub const fn index(&self) -> usize {
        self.index
    }

    /// The total number of shards.
    #[must_use]
    pub const fn count(&self) -> usize {
        self.count
    }

    /// The half-open `[start, end)` range of flattened trial indices
    /// this shard owns out of `total`. The ranges of all `count` shards
    /// partition `0..total` exactly, each within one trial of
    /// `total / count`.
    #[must_use]
    pub const fn bounds(&self, total: usize) -> (usize, usize) {
        (
            self.index * total / self.count,
            (self.index + 1) * total / self.count,
        )
    }
}

/// What a resilience campaign runs and how.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The IR image kernel under fault injection (must be
    /// [`KernelId::Sobel`] or [`KernelId::Gaussian`]).
    pub kernel: KernelId,
    /// Input-image scale.
    pub scale: Scale,
    /// Seeded trials per sweep point.
    pub trials: u32,
    /// The single campaign seed every trial stream is fanned out of.
    pub seed: u64,
    /// Execution backend for every trial device (the report — and hence
    /// the JSONL — is backend-invariant).
    pub backend: ExecBackend,
    /// How injected errors are distributed across stream cores.
    pub error_model: ErrorModelSpec,
    /// The per-instruction error-rate sweep points.
    pub error_rates: Vec<f64>,
    /// Initial approximate-matching threshold in gray levels (the
    /// paper's threshold-1.0 design point by default).
    pub threshold: f32,
    /// The adaptive quality controller.
    pub controller: QualityController,
    /// Wavefronts in flight per compute unit.
    pub in_flight: usize,
    /// Compute units per trial device.
    pub compute_units: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            kernel: KernelId::Sobel,
            scale: Scale::Test,
            trials: 8,
            seed: 0x00CA_3A16,
            backend: ExecBackend::Parallel,
            error_model: ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners()),
            error_rates: CAMPAIGN_ERROR_RATES.to_vec(),
            threshold: GRAY_LEVELS_PER_THRESHOLD_UNIT,
            controller: QualityController::default(),
            in_flight: 4,
            compute_units: 2,
        }
    }
}

/// One adaptation step of the quality controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationStep {
    /// Threshold the low-quality attempt ran at.
    pub from_threshold: f32,
    /// Threshold the controller tightened to.
    pub to_threshold: f32,
    /// The PSNR (dB) that triggered the adaptation.
    pub psnr_db: f64,
}

/// One trial's final (post-adaptation) measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The sweep point's per-instruction error rate.
    pub error_rate: f64,
    /// Trial index within the sweep point.
    pub trial: u32,
    /// The trial's derived device seed.
    pub seed: u64,
    /// Output quality against the exact reference, dB (capped at
    /// [`PSNR_CAP_DB`]).
    pub psnr_db: f64,
    /// Weighted FIFO hit rate.
    pub hit_rate: f64,
    /// Total energy, pJ.
    pub energy_pj: f64,
    /// ECU recoveries performed.
    pub recoveries: u64,
    /// Cycles stalled in ECU recovery.
    pub recovery_cycles: u64,
    /// Timing violations injected.
    pub errors_injected: u64,
    /// The controller's adaptation trajectory (empty when the first
    /// attempt already met the floor).
    pub adaptations: Vec<AdaptationStep>,
    /// The threshold the recorded attempt ran at.
    pub final_threshold: f32,
    /// Whether the final attempt met the PSNR floor.
    pub acceptable: bool,
}

/// Mean/stddev/min/max of one metric across a sweep point's trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl MetricStats {
    /// Aggregates a slice of samples (empty slices yield all-zero stats).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Self {
            mean,
            stddev: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Aggregated statistics of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSummary {
    /// The sweep point's error rate.
    pub error_rate: f64,
    /// Trials aggregated.
    pub trials: u32,
    /// PSNR spread, dB.
    pub psnr_db: MetricStats,
    /// Hit-rate spread.
    pub hit_rate: MetricStats,
    /// Energy spread, pJ.
    pub energy_pj: MetricStats,
    /// Recovery-stall-cycle spread.
    pub recovery_cycles: MetricStats,
    /// Total controller adaptations across the point's trials.
    pub adaptations: u64,
    /// Trials whose final attempt met the PSNR floor.
    pub acceptable: u32,
}

/// Everything a campaign produced: raw trials, per-point summaries, and
/// a metrics registry mirroring the run for tm-obs export.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The spec the campaign ran.
    pub spec: CampaignSpec,
    /// Raw per-trial records in (rate, trial) order.
    pub records: Vec<TrialRecord>,
    /// One summary per sweep point, in sweep order.
    pub summaries: Vec<SweepSummary>,
    /// Campaign counters/gauges/histograms: `campaign.trials`,
    /// `campaign.adaptations`, the per-trial adaptation histogram and a
    /// PSNR histogram — the adaptation trajectory in tm-obs form.
    pub metrics: MetricsRegistry,
    /// Snapshot of the last owned trial's device (the recorded,
    /// post-adaptation attempt) — the `repro --snapshot-out` payload,
    /// restorable with [`tm_sim::Device::restore`] or usable to
    /// warm-start a later campaign. `None` when the run owned no trials.
    pub last_snapshot: Option<DeviceSnapshot>,
}

fn build_program(kernel: KernelId, image: &GrayImage) -> ImageProgram {
    match kernel {
        KernelId::Sobel => sobel_program(image),
        KernelId::Gaussian => gaussian_program(image),
        other => panic!("campaigns run IR image kernels (Sobel/Gaussian), not {other}"),
    }
}

fn reference_output(kernel: KernelId, image: &GrayImage) -> GrayImage {
    match kernel {
        KernelId::Sobel => sobel_reference(image),
        KernelId::Gaussian => gaussian3x3_reference(image),
        other => panic!("campaigns run IR image kernels (Sobel/Gaussian), not {other}"),
    }
}

/// Per-trial context: the optional observation sinks (span recorder and
/// telemetry hub) plus the optional warm-start snapshot every attempt's
/// device preloads its memo FIFOs from.
#[derive(Clone, Copy)]
struct TrialSinks<'a> {
    rec: Option<&'a SharedRecorder>,
    hub: Option<&'a TelemetryHub>,
    warm: Option<&'a DeviceSnapshot>,
}

/// Runs one attempt (one device, one program execution) and measures it.
/// Returns the attempt's PSNR and its finished device (for the report
/// and, on the final trial, the `--snapshot-out` capture).
fn run_attempt(
    spec: &CampaignSpec,
    image: &GrayImage,
    golden: &GrayImage,
    error_rate: f64,
    seed: u64,
    threshold: f32,
    sinks: TrialSinks<'_>,
) -> (f64, Device) {
    let policy = if threshold <= 0.0 {
        MatchPolicy::Exact
    } else {
        MatchPolicy::threshold(threshold)
    };
    let config = DeviceConfig::builder()
        .with_compute_units(spec.compute_units)
        .with_policy(policy)
        .with_error_mode(ErrorMode::FixedRate(error_rate))
        .with_error_model(spec.error_model.clone())
        .with_seed(seed)
        .with_backend(spec.backend)
        .build()
        .expect("campaign device config must be consistent");
    let mut ip = build_program(spec.kernel, image);
    let mut device = Device::new(config);
    if let Some(rec) = sinks.rec {
        device.attach_recorder(rec);
    }
    if let Some(hub) = sinks.hub {
        device.attach_hub_scoped(hub, CAMPAIGN_DEVICE_SCOPE);
    }
    if let Some(warm) = sinks.warm {
        // Pure function of the snapshot, applied before every attempt:
        // every trial — and every shard — warms identically, keeping
        // the byte-identity contract intact.
        device.preload_fifos(warm);
    }
    device.run_program(&ip.program, &mut ip.bindings, ip.global_size, spec.in_flight);
    let out = GrayImage::from_vec(
        image.width(),
        image.height(),
        ip.bindings.buffer(ip.output).to_vec(),
    );
    let q = psnr(golden, &out).min(PSNR_CAP_DB);
    (q, device)
}

/// Runs one trial: attempt, adapt while below the floor, record.
fn run_trial(
    spec: &CampaignSpec,
    image: &GrayImage,
    golden: &GrayImage,
    error_rate: f64,
    trial: u32,
    seed: u64,
    sinks: TrialSinks<'_>,
) -> (TrialRecord, Device) {
    let mut threshold = spec.threshold;
    let mut adaptations = Vec::new();
    loop {
        let (q, device) = run_attempt(spec, image, golden, error_rate, seed, threshold, sinks);
        match spec
            .controller
            .next_threshold(threshold, q, adaptations.len() as u32)
        {
            Some(next) => {
                if let Some(rec) = sinks.rec {
                    rec.inc("campaign.adaptations", 1);
                }
                if let Some(hub) = sinks.hub {
                    hub.counter_add("campaign.adaptations", 1);
                }
                adaptations.push(AdaptationStep {
                    from_threshold: threshold,
                    to_threshold: next,
                    psnr_db: q,
                });
                threshold = next;
            }
            None => {
                let report = device.report();
                if let Some(rec) = sinks.rec {
                    rec.inc("campaign.trials", 1);
                }
                if let Some(hub) = sinks.hub {
                    hub.counter_add("campaign.trials_done", 1);
                    hub.observe("campaign.psnr_db", q);
                    hub.observe("campaign.energy_pj", report.total_energy_pj());
                    hub.gauge_set("campaign.hit_rate", report.weighted_hit_rate());
                }
                let record = TrialRecord {
                    error_rate,
                    trial,
                    seed,
                    psnr_db: q,
                    hit_rate: report.weighted_hit_rate(),
                    energy_pj: report.total_energy_pj(),
                    recoveries: report.recoveries,
                    recovery_cycles: report.recovery_stall_cycles,
                    errors_injected: report.errors_injected,
                    adaptations,
                    final_threshold: threshold,
                    acceptable: q >= spec.controller.floor_db,
                };
                return (record, device);
            }
        }
    }
}

/// Runs a full Monte Carlo campaign.
///
/// Trial seeds derive from `spec.seed` through one [`SplitMix64`] stream
/// in (rate, trial) order — the seed-stream hygiene that makes two
/// campaigns with the same spec byte-identical, whatever backend runs
/// them. When `rec` is given, every trial device records launch spans
/// into it and the campaign bumps `campaign.trials` /
/// `campaign.adaptations` counters as it goes.
///
/// # Panics
///
/// Panics if the spec names a kernel without an IR program + exact
/// reference (anything but Sobel/Gaussian).
#[must_use]
pub fn run_campaign(spec: &CampaignSpec, rec: Option<&SharedRecorder>) -> CampaignOutcome {
    run_campaign_observed(spec, rec, None, None)
}

/// [`run_campaign`] with the live-telemetry layer attached.
///
/// When `hub` is given, every trial publishes into it as it finishes —
/// `campaign.trials_done` / `campaign.adaptations` counters,
/// `campaign.psnr_db` / `campaign.energy_pj` sketches, a
/// `campaign.hit_rate` gauge — and every trial device additionally
/// publishes its launch telemetry under [`CAMPAIGN_DEVICE_SCOPE`]
/// (latency sketches, energy gauges, engine steal/fallback counters),
/// so a scrape endpoint over the hub shows live mid-run state.
///
/// When `heartbeat` is given, each finished trial ticks it with the
/// trial's PSNR and any due progress line is printed to **stderr** —
/// stdout stays reserved for machine-readable output.
///
/// Observation never changes results: the returned outcome (and its
/// JSONL) is bit-identical to an unobserved run of the same spec.
///
/// # Panics
///
/// Panics as [`run_campaign`] does.
#[must_use]
pub fn run_campaign_observed(
    spec: &CampaignSpec,
    rec: Option<&SharedRecorder>,
    hub: Option<&TelemetryHub>,
    heartbeat: Option<&mut Heartbeat>,
) -> CampaignOutcome {
    run_campaign_sharded(spec, None, None, rec, hub, heartbeat)
}

/// Runs one shard of a campaign — or all of it when `shard` is `None`.
///
/// The sharded runner walks the same flattened (rate, trial) space as
/// the monolithic run, advancing the [`SplitMix64`] seed stream for
/// *every* trial but executing only those the shard owns (see
/// [`Shard::bounds`]). Each owned trial therefore runs with exactly the
/// seed the monolithic run would have fanned out to it, and the
/// resulting [`CampaignOutcome::jsonl`] bodies concatenate — in shard
/// index order — to the monolithic document byte-for-byte
/// (`crates/bench/tests/campaign.rs` pins this on every backend, and
/// `scripts/verify.sh` gates it end to end through `repro`).
///
/// When `warm` is given, every attempt's device preloads its memo FIFOs
/// from the snapshot before executing ([`Device::preload_fifos`]) —
/// a deterministic warm start that is identical on every shard, so the
/// byte-identity contract holds for warmed runs too (against a warmed
/// monolithic run of the same snapshot).
///
/// The returned outcome's summaries and metrics aggregate the **owned**
/// records only; merge shard JSONL documents with
/// [`merge_shard_documents`] to reassemble a full run.
///
/// # Panics
///
/// Panics as [`run_campaign`] does.
#[must_use]
pub fn run_campaign_sharded(
    spec: &CampaignSpec,
    shard: Option<Shard>,
    warm: Option<&DeviceSnapshot>,
    rec: Option<&SharedRecorder>,
    hub: Option<&TelemetryHub>,
    mut heartbeat: Option<&mut Heartbeat>,
) -> CampaignOutcome {
    let side = workload::image_side(spec.scale);
    let image = synth::face(side, side, spec.seed);
    let golden = reference_output(spec.kernel, &image);

    let total = spec.error_rates.len() * spec.trials as usize;
    let (start, end) = shard.map_or((0, total), |s| s.bounds(total));
    let mut trial_seeds = SplitMix64::new(spec.seed);
    let mut records = Vec::with_capacity(end - start);
    let mut last_snapshot = None;
    let mut flat = 0_usize;
    for &rate in &spec.error_rates {
        for trial in 0..spec.trials {
            // Advance the stream unconditionally: seed k of the shard
            // must equal seed k of the monolithic run.
            let seed = trial_seeds.next_u64();
            let owned = (start..end).contains(&flat);
            flat += 1;
            if !owned {
                continue;
            }
            let (record, device) =
                run_trial(spec, &image, &golden, rate, trial, seed, TrialSinks { rec, hub, warm });
            if flat == end {
                last_snapshot = device.snapshot().ok();
            }
            if let Some(hb) = heartbeat.as_deref_mut() {
                if let Some(line) = hb.tick(record.psnr_db) {
                    eprintln!("{line}");
                }
            }
            records.push(record);
        }
    }

    let summaries: Vec<SweepSummary> = spec
        .error_rates
        .iter()
        .map(|&rate| {
            let rows: Vec<&TrialRecord> = records
                .iter()
                .filter(|r| r.error_rate == rate)
                .collect();
            let stat = |f: &dyn Fn(&TrialRecord) -> f64| {
                MetricStats::from_samples(&rows.iter().map(|r| f(r)).collect::<Vec<f64>>())
            };
            SweepSummary {
                error_rate: rate,
                trials: rows.len() as u32,
                psnr_db: stat(&|r| r.psnr_db),
                hit_rate: stat(&|r| r.hit_rate),
                energy_pj: stat(&|r| r.energy_pj),
                recovery_cycles: stat(&|r| r.recovery_cycles as f64),
                adaptations: rows.iter().map(|r| r.adaptations.len() as u64).sum(),
                acceptable: rows.iter().filter(|r| r.acceptable).count() as u32,
            }
        })
        .collect();

    let mut metrics = MetricsRegistry::new();
    metrics.counter_add("campaign.trials", records.len() as u64);
    metrics.counter_add(
        "campaign.adaptations",
        records.iter().map(|r| r.adaptations.len() as u64).sum(),
    );
    for r in &records {
        metrics.observe(
            "campaign.adaptations_per_trial",
            &[0.0, 1.0, 2.0, 4.0, 8.0],
            r.adaptations.len() as f64,
        );
        metrics.observe(
            "campaign.psnr_db",
            &[20.0, 30.0, 40.0, 60.0, PSNR_CAP_DB],
            r.psnr_db,
        );
    }
    for s in &summaries {
        metrics.gauge_set(&format!("campaign.psnr_mean_db[rate={}]", s.error_rate), s.psnr_db.mean);
    }

    CampaignOutcome {
        spec: spec.clone(),
        records,
        summaries,
        metrics,
        last_snapshot,
    }
}

/// Merges sharded campaign JSONL documents back into the monolithic one.
///
/// Each input is a `(label, contents)` pair (the label names the shard
/// in error messages — typically its file name) holding a full
/// [`CampaignOutcome::jsonl_with_meta`] document. All meta header lines
/// must be **byte-identical** — same spec, same [`RunMeta`] (pass a
/// fixed `--timestamp` when producing shards) — and the inputs must be
/// given in shard index order. The result is one meta line followed by
/// the concatenated bodies, byte-identical to the monolithic run's
/// document.
///
/// # Errors
///
/// Returns a human-readable message when no documents are given, a
/// document lacks a parseable `{"kind":"meta",...}` first line, or a
/// meta line disagrees with the first shard's.
pub fn merge_shard_documents(docs: &[(String, String)]) -> Result<String, String> {
    if docs.is_empty() {
        return Err("no shard documents to merge".to_string());
    }
    let mut merged = String::new();
    let mut expected_meta: Option<&str> = None;
    for (label, text) in docs {
        let Some((meta_line, body)) = text.split_once('\n') else {
            return Err(format!("{label}: document has no newline after the meta header"));
        };
        let parsed = JsonValue::parse(meta_line)
            .map_err(|e| format!("{label}: meta header is not valid JSON: {e}"))?;
        if parsed.get_str("kind") != Some("meta") {
            return Err(format!(
                "{label}: first line is not a {{\"kind\":\"meta\"}} header"
            ));
        }
        match expected_meta {
            None => {
                expected_meta = Some(meta_line);
                merged.push_str(meta_line);
                merged.push('\n');
            }
            Some(first) if first == meta_line => {}
            Some(_) => {
                return Err(format!(
                    "{label}: meta header differs from the first shard's — \
                     shards must come from one campaign run with identical \
                     spec and run attribution (fix the --timestamp)"
                ));
            }
        }
        merged.push_str(body);
    }
    Ok(merged)
}

impl CampaignOutcome {
    /// [`CampaignOutcome::jsonl`] preceded by one `meta` header line
    /// carrying run attribution (`git_rev`, `host_cores`, the caller's
    /// timestamp) plus the campaign shape, so an exported dump can be
    /// traced back to the code revision and host that produced it.
    ///
    /// The meta line is the only difference from [`CampaignOutcome::jsonl`]:
    /// trial/adapt lines stay backend-invariant and byte-identical, and
    /// because `meta` is caller-supplied, so is the whole document for a
    /// fixed `meta`.
    #[must_use]
    pub fn jsonl_with_meta(&self, meta: &RunMeta) -> String {
        let mut w = ObjWriter::new();
        w.str_field("kind", "meta");
        meta.write_fields(&mut w);
        w.str_field("kernel", &self.spec.kernel.to_string());
        w.str_field("model", self.spec.error_model.name());
        w.u64_field("trials_per_point", u64::from(self.spec.trials));
        w.u64_field("sweep_points", self.spec.error_rates.len() as u64);
        w.u64_field("seed", self.spec.seed);
        let mut out = w.finish();
        out.push('\n');
        out.push_str(&self.jsonl());
        out
    }

    /// The campaign as JSONL: one `trial` line per trial, preceded by
    /// one `adapt` line per controller step, in deterministic (rate,
    /// trial, step) order. Backend-invariant by construction (no
    /// backend field), so the same spec yields byte-identical output on
    /// every [`ExecBackend`].
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            for (step, a) in r.adaptations.iter().enumerate() {
                let mut w = ObjWriter::new();
                w.str_field("kind", "adapt");
                w.str_field("kernel", &self.spec.kernel.to_string());
                w.str_field("model", self.spec.error_model.name());
                w.f64_field("error_rate", r.error_rate);
                w.u64_field("trial", u64::from(r.trial));
                w.u64_field("step", step as u64 + 1);
                w.f64_field("psnr_db", a.psnr_db);
                w.f64_field("from_threshold", f64::from(a.from_threshold));
                w.f64_field("to_threshold", f64::from(a.to_threshold));
                out.push_str(&w.finish());
                out.push('\n');
            }
            let mut w = ObjWriter::new();
            w.str_field("kind", "trial");
            w.str_field("kernel", &self.spec.kernel.to_string());
            w.str_field("model", self.spec.error_model.name());
            w.f64_field("error_rate", r.error_rate);
            w.u64_field("trial", u64::from(r.trial));
            w.u64_field("seed", r.seed);
            w.f64_field("psnr_db", r.psnr_db);
            w.f64_field("hit_rate", r.hit_rate);
            w.f64_field("energy_pj", r.energy_pj);
            w.u64_field("recoveries", r.recoveries);
            w.u64_field("recovery_cycles", r.recovery_cycles);
            w.u64_field("errors_injected", r.errors_injected);
            w.u64_field("adaptations", r.adaptations.len() as u64);
            w.f64_field("final_threshold", f64::from(r.final_threshold));
            w.bool_field("acceptable", r.acceptable);
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// A human-readable per-sweep-point table (mean ± stddev, with
    /// min..max ranges for PSNR).
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} on {:?} input, {} trials/point, {} model, backend {}",
            self.spec.kernel,
            self.spec.scale,
            self.spec.trials,
            self.spec.error_model.name(),
            self.spec.backend.name(),
        );
        let _ = writeln!(
            out,
            "{:>6}  {:>22}  {:>15}  {:>21}  {:>17}  {:>6}  {:>4}",
            "rate", "psnr dB (mean±sd)", "range", "hit rate (mean±sd)", "rec cyc (mean±sd)", "adapt", "ok"
        );
        for s in &self.summaries {
            let _ = writeln!(
                out,
                "{:>5.1}%  {:>14.2} ±{:>5.2}  {:>6.1}..{:<6.1}  {:>13.3} ±{:>5.3}  {:>10.1} ±{:>4.1}  {:>6}  {:>2}/{:<2}",
                s.error_rate * 100.0,
                s.psnr_db.mean,
                s.psnr_db.stddev,
                s.psnr_db.min,
                s.psnr_db.max,
                s.hit_rate.mean,
                s.hit_rate.stddev,
                s.recovery_cycles.mean,
                s.recovery_cycles.stddev,
                s.adaptations,
                s.acceptable,
                s.trials,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_spec() -> CampaignSpec {
        CampaignSpec {
            trials: 2,
            error_rates: vec![0.0, 0.02],
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn campaign_runs_and_aggregates() {
        let out = run_campaign(&mini_spec(), None);
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.summaries.len(), 2);
        let clean = &out.summaries[0];
        assert_eq!(clean.error_rate, 0.0);
        // Error-free + approximate matching on a smooth image: quality
        // holds and nothing recovers.
        assert_eq!(clean.recovery_cycles.max, 0.0);
        assert!(clean.psnr_db.min >= PSNR_FLOOR_DB);
        let noisy = &out.summaries[1];
        assert!(noisy.recovery_cycles.mean > 0.0, "2% errors must stall");
        assert_eq!(out.metrics.counter("campaign.trials"), 4);
    }

    #[test]
    fn jsonl_is_reproducible_and_backend_free() {
        let a = run_campaign(&mini_spec(), None).jsonl();
        let b = run_campaign(&mini_spec(), None).jsonl();
        assert_eq!(a, b, "same spec must reproduce byte-identical JSONL");
        assert!(!a.contains("backend"), "JSONL must stay backend-invariant");
        assert_eq!(a.lines().filter(|l| l.contains("\"trial\"")).count(), 4);
    }

    #[test]
    fn seeds_differ_across_trials() {
        let out = run_campaign(&mini_spec(), None);
        let mut seeds: Vec<u64> = out.records.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), out.records.len());
    }

    #[test]
    fn controller_tightens_then_snaps_to_exact() {
        let c = QualityController::default();
        // Below the floor: halve.
        assert_eq!(c.next_threshold(4.0, 20.0, 0), Some(2.0));
        // Below min_threshold: snap to exact.
        assert_eq!(c.next_threshold(0.6, 20.0, 1), Some(0.0));
        // Exact already: give up (PSNR of exact is ∞ anyway).
        assert_eq!(c.next_threshold(0.0, 20.0, 2), None);
        // Acceptable: stop.
        assert_eq!(c.next_threshold(4.0, 35.0, 0), None);
        // Cap exhausted: stop.
        assert_eq!(c.next_threshold(4.0, 20.0, c.max_adaptations), None);
    }

    #[test]
    fn stats_aggregate_correctly() {
        let s = MetricStats::from_samples(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.stddev, 1.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let empty = MetricStats::from_samples(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "IR image kernels")]
    fn rejects_non_image_kernels() {
        let spec = CampaignSpec {
            kernel: KernelId::Fwt,
            ..mini_spec()
        };
        let _ = run_campaign(&spec, None);
    }

    #[test]
    fn observed_campaign_matches_unobserved_and_fills_the_hub() {
        let spec = mini_spec();
        let plain = run_campaign(&spec, None);

        let hub = TelemetryHub::new();
        let mut hb = Heartbeat::new("campaign", 4, 2);
        let observed = run_campaign_observed(&spec, None, Some(&hub), Some(&mut hb));

        assert_eq!(
            plain.jsonl(),
            observed.jsonl(),
            "hub + heartbeat must not perturb campaign results"
        );
        assert_eq!(hub.counter("campaign.trials_done"), 4);
        let snap = hub.snapshot();
        let Some(tm_obs::HubMetric::Sketch(psnr)) = snap.get("campaign.psnr_db") else {
            panic!("per-trial PSNR sketch missing");
        };
        assert_eq!(psnr.count(), 4);
        assert!(psnr.p50() >= PSNR_FLOOR_DB);
        // Trial devices published under the fixed scope — and only it.
        assert!(
            hub.counter(&format!("{CAMPAIGN_DEVICE_SCOPE}launches")) >= 4,
            "every attempt launches at least once under the shared scope"
        );
        assert!(
            snap.iter().all(|(name, _)| name.starts_with("campaign.")),
            "campaign telemetry stays under the campaign prefix"
        );
        assert_eq!(hb.done(), 4);
        assert_eq!(hb.quality().count(), 4);
    }

    #[test]
    fn jsonl_meta_header_is_attributable_and_stable() {
        let out = run_campaign(&mini_spec(), None);
        let meta = RunMeta {
            git_rev: Some("abc1234".into()),
            host_cores: 8,
            timestamp: Some("2026-08-08T00:00:00Z".into()),
        };
        let a = out.jsonl_with_meta(&meta);
        let b = out.jsonl_with_meta(&meta);
        assert_eq!(a, b, "fixed meta must keep the document byte-identical");

        let first = a.lines().next().unwrap();
        let v = tm_obs::JsonValue::parse(first).expect("meta line parses");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("meta"));
        assert_eq!(v.get("git_rev").unwrap().as_str(), Some("abc1234"));
        assert_eq!(v.get("host_cores").unwrap().as_u64(), Some(8));
        assert_eq!(v.get("trials_per_point").unwrap().as_u64(), Some(2));
        // Everything after the header is exactly the plain document.
        assert_eq!(a.split_once('\n').unwrap().1, out.jsonl());
    }

    #[test]
    fn shard_parsing_and_bounds() {
        assert!(Shard::parse("0/0").is_err(), "zero shards is meaningless");
        assert!(Shard::parse("2/2").is_err(), "indices are 0-based");
        assert!(Shard::parse("x/2").is_err());
        assert!(Shard::parse("1").is_err(), "missing the /n half");
        let s = Shard::parse(" 1 / 4 ").unwrap();
        assert_eq!((s.index(), s.count()), (1, 4));
        // The shards partition the flattened space exactly, in order.
        for (total, count) in [(10, 3), (4, 3), (2, 5), (7, 1)] {
            let mut covered = 0;
            for i in 0..count {
                let (lo, hi) = Shard::new(i, count).unwrap().bounds(total);
                assert_eq!(lo, covered, "{total} trials / {count} shards");
                assert!(hi >= lo);
                covered = hi;
            }
            assert_eq!(covered, total);
        }
    }

    #[test]
    fn shards_concatenate_to_the_monolithic_jsonl() {
        let spec = mini_spec();
        let whole = run_campaign(&spec, None).jsonl();
        let mut cat = String::new();
        for i in 0..3 {
            let shard = Shard::new(i, 3).unwrap();
            let out = run_campaign_sharded(&spec, Some(shard), None, None, None, None);
            cat.push_str(&out.jsonl());
        }
        assert_eq!(cat, whole, "shard bodies must concatenate byte-identically");
    }

    #[test]
    fn merge_reassembles_shard_documents() {
        let meta = RunMeta {
            git_rev: Some("abc1234".into()),
            host_cores: 8,
            timestamp: Some("2026-08-08T00:00:00Z".into()),
        };
        let spec = mini_spec();
        let whole = run_campaign(&spec, None).jsonl_with_meta(&meta);
        let docs: Vec<(String, String)> = (0..2)
            .map(|i| {
                let shard = Shard::new(i, 2).unwrap();
                let out = run_campaign_sharded(&spec, Some(shard), None, None, None, None);
                (format!("shard_{i}.jsonl"), out.jsonl_with_meta(&meta))
            })
            .collect();
        assert_eq!(merge_shard_documents(&docs).unwrap(), whole);

        assert!(merge_shard_documents(&[]).is_err());
        let garbage = vec![("x".to_string(), "not json\n".to_string())];
        assert!(merge_shard_documents(&garbage).is_err());
        let mut mismatched = docs;
        let other = RunMeta {
            git_rev: Some("abc1234".into()),
            host_cores: 8,
            timestamp: Some("2027-01-01T00:00:00Z".into()),
        };
        mismatched[1].1 = run_campaign_sharded(
            &spec,
            Some(Shard::new(1, 2).unwrap()),
            None,
            None,
            None,
            None,
        )
        .jsonl_with_meta(&other);
        let err = merge_shard_documents(&mismatched).unwrap_err();
        assert!(err.contains("meta header differs"), "got: {err}");
    }

    #[test]
    fn last_snapshot_restores_and_warm_start_stays_shard_invariant() {
        let spec = mini_spec();
        let donor = run_campaign(&spec, None);
        let snap = donor
            .last_snapshot
            .clone()
            .expect("a campaign that ran trials must capture its final device");
        tm_sim::Device::restore(&snap).expect("campaign snapshots must be restorable");

        // Warm-starting perturbs results deterministically: the warmed
        // run reproduces itself and shards of it concatenate to it.
        let whole = run_campaign_sharded(&spec, None, Some(&snap), None, None, None);
        let mut cat = String::new();
        for i in 0..2 {
            let shard = Shard::new(i, 2).unwrap();
            let out = run_campaign_sharded(&spec, Some(shard), Some(&snap), None, None, None);
            cat.push_str(&out.jsonl());
        }
        assert_eq!(cat, whole.jsonl(), "warm shards must still concatenate");
    }
}
