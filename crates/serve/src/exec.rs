//! Job execution: what a worker thread does with a claimed job.
//!
//! Launches run on pooled devices ([`tm_sim::DevicePool`]): a warm
//! acquisition keeps the previous job's memo-FIFO contents, so repeated
//! launch traffic enjoys cross-job temporal locality — the serving-layer
//! extension of the paper's observation. The response reports
//! `pool_warm` so clients can tell the two cases apart.
//!
//! Campaigns go through [`tm_bench::run_campaign_observed`], which
//! builds its own cold devices per trial; their JSONL is therefore
//! byte-identical to an in-process run of the same spec, warm pool or
//! not — the property the end-to-end identity test pins.

use std::sync::Mutex;

use tm_bench::run_campaign_observed;
use tm_kernels::workload;
use tm_obs::{SharedRecorder, TelemetryHub};
use tm_sim::{Device, DevicePool};

use crate::protocol::{CampaignJob, LaunchResult, LaunchSpec, Request, RestoreJob, WireError};

/// The job-level result fanned out to every coalesced waiter.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultPayload {
    /// Outcome of a [`Request::Launch`].
    Launch(LaunchResult),
    /// Outcome of a [`Request::Campaign`]: the kernel name, trial count
    /// and the full campaign JSONL document.
    Campaign {
        /// Kernel that was swept.
        kernel: String,
        /// Trials per sweep point.
        trials: u32,
        /// The campaign JSONL (`trial` + `adapt` lines), bytes identical
        /// to the in-process run of the same spec.
        jsonl: String,
    },
    /// Outcome of a [`Request::Snapshot`]: the post-run device snapshot.
    Snapshot {
        /// Kernel that ran before the capture.
        kernel: String,
        /// Host-side acceptance check result.
        passed: bool,
        /// The `tm-device-snapshot` JSON document.
        snapshot: String,
    },
    /// Outcome of a [`Request::Restore`]: the device is back in the pool.
    Restored {
        /// Compute units of the revived device.
        compute_units: u64,
        /// Memo-FIFO entries the revived device carries.
        fifo_entries: u64,
    },
}

/// Executes one queued job (launch or campaign).
///
/// # Errors
/// Returns a [`WireError`] (code `internal`) only for defects that
/// escaped request validation; well-formed requests execute infallibly.
pub fn execute(
    request: &Request,
    pool: &Mutex<DevicePool>,
    hub: &TelemetryHub,
    rec: &SharedRecorder,
) -> Result<ResultPayload, WireError> {
    match request {
        Request::Launch(spec) => run_launch(spec, pool, rec),
        Request::Campaign(job) => Ok(run_campaign_job(job, hub, rec)),
        Request::Snapshot(spec) => run_snapshot(spec),
        Request::Restore(job) => run_restore(job, pool),
        Request::Ping | Request::Stats => Err(WireError {
            code: crate::protocol::ErrorCode::Internal,
            message: "inline request reached the worker pool".to_string(),
        }),
    }
}

/// Runs one launch on a *fresh* (never pooled) device and captures its
/// snapshot, so the returned document is a pure function of the spec —
/// reproducible no matter what traffic warmed the pool before.
fn run_snapshot(spec: &LaunchSpec) -> Result<ResultPayload, WireError> {
    let config = spec.device_config()?;
    let mut device = Device::new(config);
    let mut wl = workload::build(spec.kernel, spec.scale, spec.seed);
    let output = wl.run(&mut device);
    let passed = wl.acceptable(&output);
    let snapshot = device.snapshot().map_err(|e| WireError {
        code: crate::protocol::ErrorCode::Internal,
        message: format!("snapshot capture failed: {e}"),
    })?;
    Ok(ResultPayload::Snapshot {
        kernel: spec.kernel.name().to_string(),
        passed,
        snapshot: snapshot.to_json(),
    })
}

/// Revives the snapshot into a device and releases it into the pool,
/// where the next launch with a matching config acquires it warm.
fn run_restore(job: &RestoreJob, pool: &Mutex<DevicePool>) -> Result<ResultPayload, WireError> {
    // `parse_restore` decoded the document with `DeviceSnapshot::from_json`,
    // which checks every rule `Device::restore` relies on; a failure here
    // is a defect in those checks, reported instead of a false release.
    let device = Device::restore(&job.snapshot).map_err(|e| WireError {
        code: crate::protocol::ErrorCode::Internal,
        message: format!("restore failed: {e}"),
    })?;
    pool.lock().expect("device pool lock").release(device);
    Ok(ResultPayload::Restored {
        compute_units: job.snapshot.config().compute_units as u64,
        fifo_entries: job.snapshot.fifo_entries(),
    })
}

fn run_launch(
    spec: &LaunchSpec,
    pool: &Mutex<DevicePool>,
    rec: &SharedRecorder,
) -> Result<ResultPayload, WireError> {
    let config = spec.device_config()?;
    let (mut device, pool_warm) = {
        let mut pool = pool.lock().expect("device pool lock");
        let warm_before = pool.stats().warm_hits;
        let device = pool.acquire(&config);
        (device, pool.stats().warm_hits > warm_before)
    };
    device.attach_recorder(rec);
    let mut wl = workload::build(spec.kernel, spec.scale, spec.seed);
    let output = wl.run(&mut device);
    let passed = wl.acceptable(&output);
    let report = device.report();
    pool.lock().expect("device pool lock").release(device);
    Ok(ResultPayload::Launch(LaunchResult {
        kernel: spec.kernel.name().to_string(),
        passed,
        pool_warm,
        hit_rate: report.weighted_hit_rate(),
        energy_pj: report.total_energy_pj(),
        cycles: report.cycles_max,
        instructions: report.total_instructions(),
        wavefronts: report.wavefronts,
        errors_injected: report.errors_injected,
        recoveries: report.recoveries,
    }))
}

fn run_campaign_job(job: &CampaignJob, hub: &TelemetryHub, rec: &SharedRecorder) -> ResultPayload {
    let spec = job.spec();
    let outcome = run_campaign_observed(&spec, Some(rec), Some(hub), None);
    ResultPayload::Campaign {
        kernel: job.kernel.name().to_string(),
        trials: job.trials,
        jsonl: outcome.jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use tm_bench::run_campaign;

    #[test]
    fn launch_executes_and_reports_pool_warmth() {
        let pool = Mutex::new(DevicePool::new(2));
        let hub = TelemetryHub::new();
        let rec = SharedRecorder::new();
        let env = parse_request(
            r#"{"type":"launch","kernel":"sobel","scale":"test","seed":7,"backend":"sequential"}"#,
        )
        .unwrap();
        let first = execute(&env.request, &pool, &hub, &rec).unwrap();
        let ResultPayload::Launch(cold) = &first else { panic!("not a launch") };
        assert!(cold.passed);
        assert!(!cold.pool_warm);
        assert!(cold.instructions > 0);

        let second = execute(&env.request, &pool, &hub, &rec).unwrap();
        let ResultPayload::Launch(warm) = &second else { panic!("not a launch") };
        assert!(warm.pool_warm, "second identical launch must reuse the device");
        assert!(warm.passed);
        // Warm FIFOs can only help the hit rate on identical traffic.
        assert!(warm.hit_rate >= cold.hit_rate);
        assert!(rec.span_count() > 0, "launches must record spans");
    }

    #[test]
    fn restored_snapshot_warms_the_pool_for_the_next_matching_launch() {
        let pool = Mutex::new(DevicePool::new(2));
        let hub = TelemetryHub::new();
        let rec = SharedRecorder::new();
        let launch_line =
            r#"{"type":"launch","kernel":"sobel","scale":"test","seed":9,"backend":"sequential"}"#;

        // Capture a snapshot of the exact device config the launch implies.
        let snap_env = parse_request(
            r#"{"type":"snapshot","kernel":"sobel","scale":"test","seed":9,"backend":"sequential"}"#,
        )
        .unwrap();
        let out = execute(&snap_env.request, &pool, &hub, &rec).unwrap();
        let ResultPayload::Snapshot { passed, snapshot, .. } = &out else {
            panic!("not a snapshot")
        };
        assert!(passed);

        // Revive it through the wire form (the snapshot rides as an
        // escaped JSON string inside the restore request).
        let mut restore_line = tm_obs::ObjWriter::new();
        restore_line.str_field("type", "restore");
        restore_line.str_field("snapshot", snapshot);
        let restore_env = parse_request(&restore_line.finish()).unwrap();
        let out = execute(&restore_env.request, &pool, &hub, &rec).unwrap();
        let ResultPayload::Restored { fifo_entries, .. } = &out else { panic!("not a restore") };
        assert!(*fifo_entries > 0, "the snapshot must carry memo history");

        // The very first matching launch is now served warm.
        let env = parse_request(launch_line).unwrap();
        let out = execute(&env.request, &pool, &hub, &rec).unwrap();
        let ResultPayload::Launch(r) = &out else { panic!("not a launch") };
        assert!(r.pool_warm, "a restored device must satisfy the first matching launch warm");
        assert!(r.passed);
    }

    #[test]
    fn served_campaign_jsonl_matches_in_process_run() {
        let pool = Mutex::new(DevicePool::new(2));
        let hub = TelemetryHub::new();
        let rec = SharedRecorder::new();
        let env = parse_request(
            r#"{"type":"campaign","kernel":"sobel","scale":"test","trials":2,"seed":51878422,"backend":"parallel"}"#,
        )
        .unwrap();
        let out = execute(&env.request, &pool, &hub, &rec).unwrap();
        let ResultPayload::Campaign { jsonl, .. } = &out else { panic!("not a campaign") };

        let Request::Campaign(job) = &env.request else { unreachable!() };
        let expected = run_campaign(&job.spec(), None).jsonl();
        assert_eq!(jsonl, &expected, "served campaign must be byte-identical");
        assert!(hub.counter("campaign.trials_done") > 0);
    }
}
