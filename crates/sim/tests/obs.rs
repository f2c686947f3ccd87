//! Observability integration tests: attaching a span recorder, a
//! windowed metrics sink or a live telemetry hub must never perturb
//! simulation results, the emitted trace must be schema-valid Chrome
//! trace JSON covering every execution backend, and
//! `Device::reset_stats` must clear windowed series *and* hub series so
//! a reused device never leaks observability state across measurement
//! boundaries.

use tm_fpu::FpOp;
use tm_obs::{validate_chrome_trace, HubMetric, SharedRecorder, TelemetryHub};
use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
use tm_sim::{Device, DeviceConfig, ErrorMode, ExecBackend, MetricsSink};

const WINDOW: u64 = 64;

/// `out = sqrt(x) + x` over per-stream-core-constant inputs and two
/// opcodes — enough structure to populate hit/miss, error and energy
/// channels of the metrics sink.
fn mixed() -> VProgram {
    VProgram::new(
        2,
        vec![
            VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
            VInst::Alu { op: FpOp::Sqrt, dst: 1, srcs: vec![Src::Reg(0)] },
            VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Reg(0)] },
            VInst::Scatter { src: 1, data: 1, addr: Addr::Gid },
        ],
    )
    .unwrap()
    .with_name("mixed_shard")
}

/// Runs [`mixed`] over `n` work-items with `in_flight` wavefronts per
/// CU, returning its output.
fn launch(device: &mut Device, n: usize, in_flight: usize) -> Vec<f32> {
    let mut bindings = Bindings::new(vec![
        (0..n).map(|g| (g % 16) as f32 + 1.5).collect(),
        vec![0.0; n],
    ]);
    device.run_program(&mixed(), &mut bindings, n, in_flight);
    bindings.buffer(1).to_vec()
}

const ALL_BACKENDS: [ExecBackend; 3] =
    [ExecBackend::Sequential, ExecBackend::Parallel, ExecBackend::IntraCu];

fn config(backend: ExecBackend) -> DeviceConfig {
    DeviceConfig::builder()
        .with_compute_units(2)
        .with_error_mode(ErrorMode::FixedRate(0.05))
        .with_seed(11)
        .with_backend(backend).build().unwrap()
}

#[test]
fn observability_never_perturbs_results_and_traces_every_backend() {
    let rec = SharedRecorder::new();
    for backend in ALL_BACKENDS {
        let mut traced = Device::new(config(backend).rebuild().with_metrics_window(WINDOW).build().unwrap());
        traced.attach_recorder(&rec);
        let traced_out = launch(&mut traced, 400, 1);

        let mut plain = Device::new(config(backend));
        let plain_out = launch(&mut plain, 400, 1);

        assert_eq!(
            traced.report(),
            plain.report(),
            "{backend:?}: tracing must not change the report"
        );
        assert_eq!(
            traced_out, plain_out,
            "{backend:?}: tracing must not change kernel output"
        );

        // The metrics sink accounts for every lane the report counted.
        for (cu_idx, cu) in traced.compute_units().iter().enumerate() {
            let m = cu.metrics().expect("metrics sink configured");
            let lanes = m.total().channel_total(MetricsSink::LANES);
            let expected: u64 = cu.tallies().map(|(_, t)| t.lane_instructions).sum();
            assert_eq!(
                lanes as u64, expected,
                "{backend:?} cu{cu_idx}: windowed lanes must match tallies"
            );
            let hits = m.total().channel_total(MetricsSink::HITS);
            assert!(hits <= lanes, "{backend:?} cu{cu_idx}: hits cannot exceed lanes");
            assert!(
                m.series(tm_fpu::FpOp::Sqrt).is_some()
                    && m.series(tm_fpu::FpOp::Add).is_some(),
                "{backend:?} cu{cu_idx}: both opcodes must have a series"
            );
        }
    }

    // One recorder served all three backends: the merged trace validates
    // and carries each backend's launch span.
    let json = rec.chrome_trace_json();
    let stats = validate_chrome_trace(&json).expect("trace must be schema-valid");
    assert_eq!(stats.spans * 2, stats.events, "every span opens and closes");
    assert_eq!(rec.dropped(), 0);
    for backend in ALL_BACKENDS {
        assert!(
            json.contains(&format!("\"backend\":\"{}\"", backend.name())),
            "trace must carry a launch span from {backend:?}"
        );
    }
    assert!(json.contains("launch:mixed_shard"), "launch spans named after kernel");
    assert!(json.contains("\"wf:"), "per-wavefront cycle spans present");
}

#[test]
fn interleaved_wavefront_spans_keep_the_trace_well_nested() {
    // With several wavefronts in flight their cycle spans overlap; each
    // in-flight slot gets its own track so every track stays nested.
    for backend in [ExecBackend::Sequential, ExecBackend::Parallel] {
        let rec = SharedRecorder::new();
        let mut device = Device::new(config(backend));
        device.attach_recorder(&rec);
        // 12 wavefronts over 2 CUs, 4 in flight per CU: two slot rounds
        // on each CU, and the small-launch path on the parallel backend.
        let out = launch(&mut device, 64 * 12, 4);
        let mut plain = Device::new(config(backend));
        assert_eq!(out, launch(&mut plain, 64 * 12, 4));
        assert_eq!(device.report(), plain.report());

        let json = rec.chrome_trace_json();
        validate_chrome_trace(&json).expect("interleaved trace must be schema-valid");
        let wf_spans = rec.with(|r| r.spans().iter().filter(|s| s.name.starts_with("wf:")).count());
        assert_eq!(wf_spans, 12, "{backend:?}: one cycle span per wavefront");
    }
}

#[test]
fn detached_device_records_nothing() {
    let rec = SharedRecorder::new();
    let mut device = Device::new(config(ExecBackend::Sequential));
    device.attach_recorder(&rec);
    device.detach_recorder();
    let _ = launch(&mut device, 128, 1);
    assert_eq!(rec.span_count(), 0, "detached device must not record spans");
}

/// Satellite: a reused device must not leak windowed series across
/// `reset_stats` — the second measurement starts from empty windows and
/// reproduces the first run's lane accounting instead of stacking on it.
#[test]
fn reset_stats_clears_metrics_windows_without_leaking() {
    // No recorder attached: reset_stats restarts the cycle timebase,
    // which is fine for windowed metrics but would fold new spans under
    // old timestamps (see `Device::attach_recorder`).
    let mut device = Device::new(
        DeviceConfig::builder()
            .with_compute_units(1)
            .with_metrics_window(WINDOW).build().unwrap(),
    );
    let run = |device: &mut Device| {
        let _ = launch(device, 512, 1);
    };
    run(&mut device);
    let first = device.compute_units()[0]
        .metrics()
        .expect("metrics sink configured")
        .clone();
    assert!(!first.total().is_empty(), "first run must populate windows");

    device.reset_stats();
    let cleared = device.compute_units()[0].metrics().unwrap();
    assert!(cleared.total().is_empty(), "reset must clear the totals series");
    for op in cleared.ops().collect::<Vec<_>>() {
        assert!(
            cleared.series(op).unwrap().is_empty(),
            "reset must clear the {op} series"
        );
    }
    assert!(cleared.hit_rate_windows().is_empty());

    // Cycle counters restarted too, so an identical launch folds into the
    // same windows — lanes match the first run exactly rather than
    // doubling (the leak this test guards against).
    run(&mut device);
    let second = device.compute_units()[0].metrics().unwrap();
    assert_eq!(
        second.total().windows().len(),
        first.total().windows().len(),
        "window count must restart, not extend"
    );
    assert_eq!(
        second.total().channel_total(MetricsSink::LANES),
        first.total().channel_total(MetricsSink::LANES),
        "lane accounting must restart from zero"
    );
    assert_eq!(second.total().width(), first.total().width());
}

#[test]
fn hub_publication_never_perturbs_results_on_any_backend() {
    let hub = TelemetryHub::new();
    for backend in ALL_BACKENDS {
        let mut observed = Device::new(config(backend));
        let scope = observed.attach_hub(&hub);
        let observed_out = launch(&mut observed, 400, 1);

        let mut plain = Device::new(config(backend));
        let plain_out = launch(&mut plain, 400, 1);

        assert_eq!(
            observed.report(),
            plain.report(),
            "{backend:?}: hub publication must not change the report"
        );
        assert_eq!(
            observed_out, plain_out,
            "{backend:?}: hub publication must not change kernel output"
        );

        // The launch landed in the hub under this device's scope.
        let snap = hub.snapshot();
        assert_eq!(
            snap.get(&format!("{scope}launches")),
            Some(&HubMetric::Counter(1)),
            "{backend:?}: launch counter"
        );
        let Some(HubMetric::Sketch(lat)) = snap.get(&format!("{scope}launch_us.mixed_shard"))
        else {
            panic!("{backend:?}: per-kernel latency sketch missing");
        };
        assert_eq!(lat.count(), 1);
        let Some(HubMetric::Gauge(hit_rate)) = snap.get(&format!("{scope}hit_rate")) else {
            panic!("{backend:?}: hit-rate gauge missing");
        };
        assert!((0.0..=1.0).contains(hit_rate));
        // The energy tap publishes one gauge per breakdown component,
        // consistent with the report's total.
        let energy_total: f64 = snap
            .iter()
            .filter(|(name, _)| name.starts_with(&format!("{scope}energy_pj.")))
            .map(|(_, m)| match m {
                HubMetric::Gauge(v) => *v,
                other => panic!("energy series must be gauges, got {other:?}"),
            })
            .sum();
        assert!(
            (energy_total - observed.report().energy.total_pj()).abs() < 1e-6,
            "{backend:?}: energy gauges must sum to the report total"
        );
        // The ECU tap tracks the report exactly.
        assert_eq!(
            snap.get(&format!("{scope}recoveries")),
            Some(&HubMetric::Gauge(observed.report().recoveries as f64)),
            "{backend:?}: recoveries gauge"
        );
    }
}

/// Satellite: a warm-reused device (the pool pattern) must not leak hub
/// series across `reset_stats` — the twin of the windowed-metrics leak
/// test above, for the live telemetry layer.
#[test]
fn reset_stats_clears_hub_series_without_leaking() {
    let hub = TelemetryHub::new();
    let mut device = Device::new(config(ExecBackend::Sequential));
    let scope = device.attach_hub(&hub);

    // Series from another publisher (e.g. the campaign runner) must
    // survive a device reset untouched.
    hub.counter_add("campaign.trials_done", 3);

    let _ = launch(&mut device, 256, 1);
    assert!(
        hub.snapshot()
            .iter()
            .any(|(name, _)| name.starts_with(&scope)),
        "first job must publish under the device scope"
    );

    device.reset_stats();
    let snap = hub.snapshot();
    assert!(
        !snap.iter().any(|(name, _)| name.starts_with(&scope)),
        "reset_stats must clear every series under the device scope"
    );
    assert_eq!(
        snap.get("campaign.trials_done"),
        Some(&HubMetric::Counter(3)),
        "series outside the device scope must survive"
    );

    // The next job starts from clean series, not stacked ones.
    let _ = launch(&mut device, 256, 1);
    assert_eq!(
        hub.snapshot().get(&format!("{scope}launches")),
        Some(&HubMetric::Counter(1)),
        "launch counter must restart from zero after reset"
    );
}

#[test]
fn hub_and_recorder_compose_and_detach_independently() {
    let hub = TelemetryHub::new();
    let rec = SharedRecorder::new();
    let mut device = Device::new(config(ExecBackend::Sequential));
    let scope = device.attach_hub(&hub);
    device.attach_recorder(&rec);

    let _ = launch(&mut device, 128, 1);
    assert!(rec.span_count() > 0, "recorder sees spans");
    assert_eq!(hub.counter(&format!("{scope}launches")), 1, "hub sees launches");

    // Dropping the recorder keeps the hub publishing.
    device.detach_recorder();
    let spans_before = rec.span_count();
    let _ = launch(&mut device, 128, 1);
    assert_eq!(rec.span_count(), spans_before, "no spans after detach");
    assert_eq!(hub.counter(&format!("{scope}launches")), 2, "hub still live");

    // Dropping the hub stops publication without disturbing series.
    device.detach_hub();
    let _ = launch(&mut device, 128, 1);
    assert_eq!(hub.counter(&format!("{scope}launches")), 2, "hub detached");
}
