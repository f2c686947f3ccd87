//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every message is one JSON object on one line (`\n`-terminated — NDJSON
//! framing), parsed and rendered with `tm-obs`'s hand-rolled JSON so the
//! server stays zero-dependency. The full specification with examples
//! lives in `PROTOCOL.md` at the repository root; this module is its
//! executable twin: [`parse_request`] accepts exactly the documented
//! request envelopes and the `render_*` helpers emit exactly the
//! documented responses.
//!
//! # Envelope
//!
//! Requests carry `{"v":1,"type":...,"id":...,"tenant":...}` plus
//! type-specific fields. `v` defaults to 1 when omitted and anything else
//! is rejected with [`ErrorCode::BadVersion`]. `id` is an opaque client
//! string echoed on the response; `tenant` names the fairness/quota
//! bucket (defaults to `"anon"`).
//!
//! # Examples
//!
//! ```
//! use tm_serve::protocol::{parse_request, Request};
//!
//! let env = parse_request(r#"{"v":1,"type":"ping","id":"7"}"#).unwrap();
//! assert_eq!(env.id, "7");
//! assert_eq!(env.tenant, "anon");
//! assert!(matches!(env.request, Request::Ping));
//! ```

use tm_bench::CampaignSpec;
use tm_kernels::{KernelId, Scale, ALL_KERNELS};
use tm_obs::{JsonValue, ObjWriter};
use tm_sim::{DeviceConfig, DeviceSnapshot, ExecBackend};

/// Protocol version this server speaks (the `v` envelope field).
pub const PROTOCOL_VERSION: u64 = 1;

/// Structured error codes carried on `{"type":"error"}` responses.
///
/// The code is machine-readable (stable across releases within a protocol
/// version); the accompanying `message` is free-form and may change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a complete JSON object.
    BadJson,
    /// The `v` field was present but not [`PROTOCOL_VERSION`].
    BadVersion,
    /// The `type` field was missing or not a known request type.
    UnknownType,
    /// The request was well-formed but semantically invalid (unknown
    /// kernel, bad scale, config that fails validation, ...).
    BadRequest,
    /// The tenant's queue is at its quota; resubmit later.
    QueueFull,
    /// The server failed internally while executing the job.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code (`snake_case`).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parse/validation failure: the error code plus a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable code for the `code` response field.
    pub code: ErrorCode,
    /// Human-readable description for the `message` response field.
    pub message: String,
}

impl WireError {
    fn bad(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::BadRequest, message: message.into() }
    }
}

/// A single kernel launch: one workload executed once on a pooled device.
///
/// The five fields are the coalescing key — two launches with identical
/// fields share one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpec {
    /// Which Table-1 kernel to run.
    pub kernel: KernelId,
    /// Input scale (`test`/`default`/`paper`).
    pub scale: Scale,
    /// Workload + error-injection seed.
    pub seed: u64,
    /// Execution backend.
    pub backend: ExecBackend,
    /// Per-instruction timing-error rate (0.0 disables injection).
    pub error_rate: f64,
}

impl LaunchSpec {
    /// The device configuration this launch runs under.
    ///
    /// # Errors
    /// Propagates [`tm_sim::ConfigError`] as a [`WireError`] with
    /// [`ErrorCode::BadRequest`] so the submitter learns at parse time.
    pub fn device_config(&self) -> Result<DeviceConfig, WireError> {
        DeviceConfig::builder()
            .with_backend(self.backend)
            .with_error_mode(tm_sim::ErrorMode::FixedRate(self.error_rate))
            .with_seed(self.seed)
            .build()
            .map_err(|e| WireError::bad(format!("invalid device config: {e}")))
    }
}

/// A campaign job: the Monte Carlo resilience sweep of `tm-bench`.
///
/// Only the five spec knobs that `repro` exposes ride the wire; all other
/// [`CampaignSpec`] fields take their defaults, which is what makes a
/// served campaign's JSONL byte-identical to the in-process run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJob {
    /// Kernel under fault injection (Sobel or Gaussian).
    pub kernel: KernelId,
    /// Input scale.
    pub scale: Scale,
    /// Seeded trials per sweep point.
    pub trials: u32,
    /// Campaign seed (fans out per-trial streams).
    pub seed: u64,
    /// Execution backend (the JSONL is backend-invariant).
    pub backend: ExecBackend,
}

impl CampaignJob {
    /// Expands into the full [`CampaignSpec`] (defaults for everything
    /// not on the wire).
    #[must_use]
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            kernel: self.kernel,
            scale: self.scale,
            trials: self.trials,
            seed: self.seed,
            backend: self.backend,
            ..CampaignSpec::default()
        }
    }
}

/// A restore job: a device snapshot to revive into the warm pool.
///
/// The snapshot text is parsed (and therefore validated) at request-parse
/// time, so a malformed document is a `bad_request` to the submitter, not
/// a worker-side failure. The worker rebuilds the device and releases it
/// into the [`tm_sim::DevicePool`]; the next launch whose implied device
/// config matches is served warm (`pool_warm: true`).
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreJob {
    /// The parsed, validated snapshot.
    pub snapshot: DeviceSnapshot,
    /// FNV-1a digest of the snapshot text, the coalescing key's cheap
    /// stand-in for the full document.
    pub digest: u64,
}

/// A parsed request body (everything after the envelope).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline with `pong`.
    Ping,
    /// A single kernel launch job.
    Launch(LaunchSpec),
    /// A campaign job.
    Campaign(CampaignJob),
    /// Capture a device snapshot after one launch (`snapshot`).
    Snapshot(LaunchSpec),
    /// Revive a snapshot into the warm device pool (`restore`). Boxed:
    /// the parsed snapshot dwarfs every other variant.
    Restore(Box<RestoreJob>),
    /// Server counters snapshot; answered inline.
    Stats,
}

impl Request {
    /// The canonical coalescing key: identical keys share one execution.
    ///
    /// `None` for inline requests (ping/stats), which are never queued.
    /// The key deliberately excludes the envelope (`id`, `tenant`): two
    /// tenants submitting the same job coalesce onto one execution.
    #[must_use]
    pub fn job_key(&self) -> Option<String> {
        match self {
            Request::Ping | Request::Stats => None,
            Request::Launch(l) => Some(format!(
                "launch/{}/{:?}/{}/{}/{}",
                l.kernel.name(),
                l.scale,
                l.seed,
                l.backend.name(),
                l.error_rate,
            )),
            Request::Snapshot(l) => Some(format!(
                "snapshot/{}/{:?}/{}/{}/{}",
                l.kernel.name(),
                l.scale,
                l.seed,
                l.backend.name(),
                l.error_rate,
            )),
            Request::Restore(r) => Some(format!("restore/{:016x}", r.digest)),
            Request::Campaign(c) => Some(format!(
                "campaign/{}/{:?}/{}/{}/{}",
                c.kernel.name(),
                c.scale,
                c.trials,
                c.seed,
                c.backend.name(),
            )),
        }
    }
}

/// A request envelope: the body plus client id and tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Opaque client correlation id, echoed on the response (`""` when
    /// the client omitted it).
    pub id: String,
    /// Fairness/quota bucket (`"anon"` when omitted).
    pub tenant: String,
    /// The request body.
    pub request: Request,
}

/// Parses one NDJSON request line into an [`Envelope`].
///
/// # Errors
/// Returns a [`WireError`] whose code is one of `bad_json`,
/// `bad_version`, `unknown_type` or `bad_request`; render it with
/// [`render_error`] (echoing whatever `id` could be recovered).
pub fn parse_request(line: &str) -> Result<Envelope, WireError> {
    let v = JsonValue::parse(line).map_err(|e| WireError {
        code: ErrorCode::BadJson,
        message: format!("request is not valid JSON: {e}"),
    })?;
    if v.as_obj().is_none() {
        return Err(WireError {
            code: ErrorCode::BadJson,
            message: "request must be a JSON object".to_string(),
        });
    }
    let id = v.get_str("id").unwrap_or("").to_string();
    let tenant = v.get_str("tenant").unwrap_or("anon").to_string();
    match v.get("v") {
        None => {}
        Some(n) if n.as_u64() == Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            let shown = other
                .as_f64()
                .map(|n| format!("{n}"))
                .unwrap_or_else(|| "a non-numeric value".to_string());
            return Err(WireError {
                code: ErrorCode::BadVersion,
                message: format!(
                    "unsupported protocol version {shown} (this server speaks v{PROTOCOL_VERSION})"
                ),
            });
        }
    }
    let Some(ty) = v.get_str("type") else {
        return Err(WireError {
            code: ErrorCode::UnknownType,
            message: "missing \"type\" field".to_string(),
        });
    };
    let request = match ty {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "launch" => Request::Launch(parse_launch(&v)?),
        "campaign" => Request::Campaign(parse_campaign(&v)?),
        "snapshot" => Request::Snapshot(parse_launch(&v)?),
        "restore" => Request::Restore(Box::new(parse_restore(&v)?)),
        other => {
            return Err(WireError {
                code: ErrorCode::UnknownType,
                message: format!(
                    "unknown request type {other:?} (expected ping, launch, campaign, snapshot, restore or stats)"
                ),
            });
        }
    };
    Ok(Envelope { id, tenant, request })
}

fn parse_kernel(v: &JsonValue) -> Result<KernelId, WireError> {
    let name = v
        .get_str("kernel")
        .ok_or_else(|| WireError::bad("missing \"kernel\" field"))?;
    ALL_KERNELS
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = ALL_KERNELS.iter().map(|k| k.name()).collect();
            WireError::bad(format!("unknown kernel {name:?} (known: {})", known.join(", ")))
        })
}

fn parse_scale(v: &JsonValue) -> Result<Scale, WireError> {
    match v.get_str("scale") {
        None => Ok(Scale::Test),
        Some("test") => Ok(Scale::Test),
        Some("default") => Ok(Scale::Default),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(WireError::bad(format!(
            "unknown scale {other:?} (expected test, default or paper)"
        ))),
    }
}

fn parse_backend(v: &JsonValue) -> Result<ExecBackend, WireError> {
    match v.get_str("backend") {
        None => Ok(ExecBackend::Sequential),
        Some("sequential") => Ok(ExecBackend::Sequential),
        // The name of a removed backend: clients that still send it get
        // the parallel backend, whose results are the same.
        Some("parallel" | "intra-cu") => Ok(ExecBackend::Parallel),
        Some(other) => Err(WireError::bad(format!(
            "unknown backend {other:?} (expected sequential or parallel)"
        ))),
    }
}

fn parse_launch(v: &JsonValue) -> Result<LaunchSpec, WireError> {
    let error_rate = match v.get("error_rate") {
        None => 0.0,
        Some(n) => n
            .as_f64()
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| WireError::bad("\"error_rate\" must be a number in [0, 1]"))?,
    };
    let spec = LaunchSpec {
        kernel: parse_kernel(v)?,
        scale: parse_scale(v)?,
        seed: v.get_u64("seed").unwrap_or(DEFAULT_LAUNCH_SEED),
        backend: parse_backend(v)?,
        error_rate,
    };
    // Validate the implied device config now so the submitter (not the
    // worker) sees a bad_request.
    spec.device_config()?;
    Ok(spec)
}

fn parse_campaign(v: &JsonValue) -> Result<CampaignJob, WireError> {
    let kernel = parse_kernel(v)?;
    if !matches!(kernel, KernelId::Sobel | KernelId::Gaussian) {
        return Err(WireError::bad(format!(
            "campaigns support image kernels only (Sobel, Gaussian), got {}",
            kernel.name()
        )));
    }
    let trials = match v.get("trials") {
        None => CampaignSpec::default().trials,
        Some(n) => u32::try_from(
            n.as_u64()
                .filter(|&t| t >= 1)
                .ok_or_else(|| WireError::bad("\"trials\" must be a positive integer"))?,
        )
        .map_err(|_| WireError::bad("\"trials\" out of range"))?,
    };
    Ok(CampaignJob {
        kernel,
        scale: parse_scale(v)?,
        trials,
        seed: v.get_u64("seed").unwrap_or_else(|| CampaignSpec::default().seed),
        backend: parse_backend(v)?,
    })
}

fn parse_restore(v: &JsonValue) -> Result<RestoreJob, WireError> {
    let text = v
        .get_str("snapshot")
        .ok_or_else(|| WireError::bad("missing \"snapshot\" field (a tm-device-snapshot JSON document as a string)"))?;
    let snapshot = DeviceSnapshot::from_json(text)
        .map_err(|e| WireError::bad(format!("invalid snapshot: {e}")))?;
    Ok(RestoreJob { snapshot, digest: fnv1a(text.as_bytes()) })
}

/// FNV-1a over the snapshot text — a stable, cheap coalescing digest
/// (collisions merely coalesce two restores, never corrupt one).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Default seed for launches that omit `seed` — the same seed
/// `tm-bench`'s [`tm_bench::ExperimentConfig`] defaults to.
pub const DEFAULT_LAUNCH_SEED: u64 = 0xDA7E_2014;

fn envelope_writer(ty: &str, id: &str) -> ObjWriter {
    let mut w = ObjWriter::new();
    w.u64_field("v", PROTOCOL_VERSION);
    w.str_field("type", ty);
    w.str_field("id", id);
    w
}

/// Renders a `pong` response line (no trailing newline).
#[must_use]
pub fn render_pong(id: &str) -> String {
    envelope_writer("pong", id).finish()
}

/// Renders an `error` response line (no trailing newline).
#[must_use]
pub fn render_error(id: &str, code: ErrorCode, message: &str) -> String {
    let mut w = envelope_writer("error", id);
    w.str_field("code", code.as_str());
    w.str_field("message", message);
    w.finish()
}

/// The outcome of one launch execution, shared by every coalesced waiter.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Kernel that ran.
    pub kernel: String,
    /// Host-side acceptance check result.
    pub passed: bool,
    /// Whether the pooled device was warm (reused FIFO history) — see
    /// `PROTOCOL.md` on why warm launches may differ from cold ones.
    pub pool_warm: bool,
    /// Lookup-weighted memo hit rate of the run.
    pub hit_rate: f64,
    /// Total device energy in picojoules.
    pub energy_pj: f64,
    /// Cycles of the busiest compute unit.
    pub cycles: u64,
    /// Lane instructions executed.
    pub instructions: u64,
    /// Wavefronts dispatched.
    pub wavefronts: u64,
    /// Timing errors injected.
    pub errors_injected: u64,
    /// ECU recoveries performed.
    pub recoveries: u64,
}

/// Renders a launch `result` response line (no trailing newline).
#[must_use]
pub fn render_launch_result(id: &str, r: &LaunchResult) -> String {
    let mut w = envelope_writer("result", id);
    w.str_field("job", "launch");
    w.str_field("kernel", &r.kernel);
    w.bool_field("passed", r.passed);
    w.bool_field("pool_warm", r.pool_warm);
    w.f64_field("hit_rate", r.hit_rate);
    w.f64_field("energy_pj", r.energy_pj);
    w.u64_field("cycles", r.cycles);
    w.u64_field("instructions", r.instructions);
    w.u64_field("wavefronts", r.wavefronts);
    w.u64_field("errors_injected", r.errors_injected);
    w.u64_field("recoveries", r.recoveries);
    w.finish()
}

/// Renders a campaign `result` response line (no trailing newline).
///
/// `jsonl` is the campaign's full JSONL document carried as one escaped
/// JSON string — unescaping restores it byte-for-byte, which is what the
/// served-vs-in-process identity test pins.
#[must_use]
pub fn render_campaign_result(id: &str, kernel: &str, trials: u32, jsonl: &str) -> String {
    let mut w = envelope_writer("result", id);
    w.str_field("job", "campaign");
    w.str_field("kernel", kernel);
    w.u64_field("trials", u64::from(trials));
    w.str_field("jsonl", jsonl);
    w.finish()
}

/// Renders a snapshot `result` response line (no trailing newline).
///
/// `snapshot` is the full `tm-device-snapshot` JSON document carried as
/// one escaped JSON string; unescaping restores it byte-for-byte, ready
/// to feed back to a `restore` request or `repro --snapshot-in`.
#[must_use]
pub fn render_snapshot_result(id: &str, kernel: &str, passed: bool, snapshot: &str) -> String {
    let mut w = envelope_writer("result", id);
    w.str_field("job", "snapshot");
    w.str_field("kernel", kernel);
    w.bool_field("passed", passed);
    w.str_field("snapshot", snapshot);
    w.finish()
}

/// Renders a restore `result` response line (no trailing newline).
#[must_use]
pub fn render_restore_result(id: &str, compute_units: u64, fifo_entries: u64) -> String {
    let mut w = envelope_writer("result", id);
    w.str_field("job", "restore");
    w.bool_field("released", true);
    w.u64_field("compute_units", compute_units);
    w.u64_field("fifo_entries", fifo_entries);
    w.finish()
}

/// Server counters reported by the `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Requests parsed (including inline ping/stats).
    pub requests: u64,
    /// Jobs actually executed (coalesced duplicates excluded).
    pub jobs_executed: u64,
    /// Requests that attached to an existing identical job.
    pub coalesced: u64,
    /// Requests rejected with `queue_full`.
    pub rejected: u64,
    /// Jobs currently queued (all tenants).
    pub queue_depth: u64,
    /// Device-pool acquisitions served warm.
    pub pool_warm_hits: u64,
    /// Device-pool acquisitions that built a new device.
    pub pool_cold_builds: u64,
}

/// Renders a `stats` `result` response line (no trailing newline).
#[must_use]
pub fn render_stats_result(id: &str, s: &ServerStats) -> String {
    let mut w = envelope_writer("result", id);
    w.str_field("job", "stats");
    w.u64_field("requests", s.requests);
    w.u64_field("jobs_executed", s.jobs_executed);
    w.u64_field("coalesced", s.coalesced);
    w.u64_field("rejected", s.rejected);
    w.u64_field("queue_depth", s.queue_depth);
    w.u64_field("pool_warm_hits", s.pool_warm_hits);
    w.u64_field("pool_cold_builds", s.pool_cold_builds);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_envelopes() {
        let e = parse_request(r#"{"type":"ping"}"#).unwrap();
        assert_eq!(e.id, "");
        assert_eq!(e.tenant, "anon");
        assert!(matches!(e.request, Request::Ping));

        let e = parse_request(
            r#"{"v":1,"type":"launch","id":"a1","tenant":"alice","kernel":"sobel","scale":"test","seed":7,"backend":"parallel","error_rate":0.01}"#,
        )
        .unwrap();
        assert_eq!(e.id, "a1");
        assert_eq!(e.tenant, "alice");
        let Request::Launch(l) = &e.request else { panic!("not a launch") };
        assert_eq!(l.kernel, KernelId::Sobel);
        assert_eq!(l.seed, 7);
        assert_eq!(l.backend, ExecBackend::Parallel);
        assert!((l.error_rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn legacy_intra_cu_backend_runs_on_parallel() {
        let e = parse_request(r#"{"type":"launch","kernel":"haar","backend":"intra-cu"}"#).unwrap();
        let Request::Launch(l) = &e.request else { panic!("not a launch") };
        assert_eq!(l.backend, ExecBackend::Parallel);
        let err = parse_request(r#"{"type":"launch","kernel":"haar","backend":"gpu"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("expected sequential or parallel"), "{}", err.message);
    }

    #[test]
    fn error_codes_cover_the_failure_modes() {
        let bad = |line: &str| parse_request(line).unwrap_err().code;
        assert_eq!(bad("{not json"), ErrorCode::BadJson);
        assert_eq!(bad("[1,2]"), ErrorCode::BadJson);
        assert_eq!(bad(r#"{"v":2,"type":"ping"}"#), ErrorCode::BadVersion);
        assert_eq!(bad(r#"{"v":1}"#), ErrorCode::UnknownType);
        assert_eq!(bad(r#"{"type":"reboot"}"#), ErrorCode::UnknownType);
        assert_eq!(bad(r#"{"type":"launch"}"#), ErrorCode::BadRequest);
        assert_eq!(
            bad(r#"{"type":"launch","kernel":"nope"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            bad(r#"{"type":"launch","kernel":"sobel","error_rate":2.0}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            bad(r#"{"type":"campaign","kernel":"FWT"}"#),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn job_keys_ignore_envelope_and_separate_distinct_jobs() {
        let a = parse_request(
            r#"{"type":"launch","id":"1","tenant":"a","kernel":"sobel","seed":7}"#,
        )
        .unwrap();
        let b = parse_request(
            r#"{"type":"launch","id":"2","tenant":"b","kernel":"sobel","seed":7}"#,
        )
        .unwrap();
        let c = parse_request(r#"{"type":"launch","kernel":"sobel","seed":8}"#).unwrap();
        assert_eq!(a.request.job_key(), b.request.job_key());
        assert_ne!(a.request.job_key(), c.request.job_key());
        assert_eq!(parse_request(r#"{"type":"ping"}"#).unwrap().request.job_key(), None);
    }

    #[test]
    fn responses_parse_back_and_round_trip_jsonl_bytes() {
        let pong = render_pong("9");
        let v = JsonValue::parse(&pong).unwrap();
        assert_eq!(v.get_str("type"), Some("pong"));
        assert_eq!(v.get_u64("v"), Some(PROTOCOL_VERSION));

        let err = render_error("9", ErrorCode::QueueFull, "tenant over quota");
        let v = JsonValue::parse(&err).unwrap();
        assert_eq!(v.get_str("code"), Some("queue_full"));

        // The campaign payload survives escaping byte-for-byte.
        let jsonl = "{\"kind\":\"trial\",\"x\":1}\n{\"kind\":\"adapt\"}\n";
        let line = render_campaign_result("9", "Sobel", 3, jsonl);
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get_str("jsonl"), Some(jsonl));
        assert_eq!(v.get_u64("trials"), Some(3));
    }
}
