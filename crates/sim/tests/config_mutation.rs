//! Snapshot documents with one config number replaced by an edge value.
//!
//! A `restore` request hands a snapshot document straight to
//! [`DeviceSnapshot::from_json`] and [`Device::restore`], so every
//! number in its `config` object is untrusted input. Each case takes a
//! valid snapshot of a device that ran a short launch with injected
//! errors, replaces one config number by plain text replacement, and
//! requires that the document is rejected with a typed error or
//! restores into a device that runs a launch and snapshots again. No
//! case may panic or abort.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tm_core::{fraction_mask, GatePolicy, MatchPolicy};
use tm_fpu::FpOp;
use tm_rng::check;
use tm_sim::prelude::*;
use tm_sim::DeviceSnapshot;
use tm_timing::{BurstErrors, HeterogeneousErrors};

/// Values to write over a config number: zero, a negative, fractions,
/// small and large counts, magnitudes past the `u32` and `i64` ranges,
/// and values near both ends of the `f64` range.
const EDGES: [&str; 12] = [
    "0", "-1", "0.5", "1.5", "3", "64", "1000", "4294967296", "1e15", "1e19", "1e300", "1e-300",
];

/// Every numeric field of a config document. [`base_documents`] must
/// carry each of them at least once.
const NUMERIC_FIELDS: [&str; 34] = [
    "compute_units", "stream_cores_per_cu", "wavefront_size", "fifo_depth", "mask",
    "cycles_per_error", "issues", "rate", "slow_fraction", "slow_factor", "fast_fraction",
    "fast_factor", "enter", "exit", "burst_factor", "sigma_vdd", "vdd", "nominal_vdd",
    "onset_vdd", "base_rate", "alpha", "vth", "epi_add_pj", "lut_lookup_frac", "lut_update_frac",
    "gated_stage_residual", "recovery_cycle_frac", "spatial_broadcast_frac", "trace_depth",
    "window", "min_hit_rate", "gate_period", "consecutive_windows", "metrics_window",
];

/// `out[gid] = sqrt(gid * 0.5 + 0.5)` over 64 work-items.
fn short_launch(device: &mut Device) {
    let program = VProgram::new(
        2,
        vec![
            VInst::LaneId { dst: 0 },
            VInst::Alu { op: FpOp::Mul, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(0.5)] },
            VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Imm(0.5)] },
            VInst::Alu { op: FpOp::Sqrt, dst: 1, srcs: vec![Src::Reg(1)] },
            VInst::Scatter { src: 1, data: 0, addr: Addr::Gid },
        ],
    )
    .unwrap();
    device.run_program(&program, &mut Bindings::new(vec![vec![0.0; 64]]), 64, 1);
}

/// Snapshots of small devices that ran [`short_launch`] with errors
/// injected, between them carrying every variant's numeric fields.
fn base_documents() -> Vec<String> {
    let small = || {
        DeviceConfig::builder()
            .with_compute_units(1)
            .with_stream_cores_per_cu(4)
            .with_wavefront_size(16)
            .with_metrics_window(64)
            .with_trace_depth(16)
            .with_adaptive_gate(GatePolicy::break_even())
    };
    let configs = [
        small()
            .with_policy(MatchPolicy::MaskBits(fraction_mask(12)))
            .with_error_mode(ErrorMode::FixedRate(0.05))
            // Corner fractions summing to 1, so one edit can push the
            // sum past it (`fast_fraction` = 0.5).
            .with_error_model(ErrorModelSpec::Heterogeneous(HeterogeneousErrors {
                slow_fraction: 0.75,
                ..HeterogeneousErrors::quartile_corners()
            }))
            .with_recovery(RecoveryPolicy::default()),
        small()
            .with_policy(MatchPolicy::threshold(0.25))
            .with_error_mode(ErrorMode::PerStageRate(0.01))
            .with_error_model(ErrorModelSpec::Burst(BurstErrors::droop()))
            .with_recovery(RecoveryPolicy::MultipleIssueReplay { issues: 3 }),
        small()
            .with_error_mode(ErrorMode::FromVoltage)
            .with_vdd(0.8)
            .with_error_model(ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.02 })
            .with_recovery(RecoveryPolicy::DecouplingQueue),
    ];
    configs
        .into_iter()
        .map(|builder| {
            let mut device = Device::new(builder.build().unwrap());
            short_launch(&mut device);
            assert!(device.report().errors_injected > 0, "no errors injected");
            device.snapshot().unwrap().to_json()
        })
        .collect()
}

/// Each number in the document's `config` object: its key and the byte
/// range of its text.
fn config_numbers(doc: &str) -> Vec<(&str, Range<usize>)> {
    let start = doc.find("\"config\":{").expect("a config object") + "\"config\":".len();
    let mut depth = 0;
    let len = doc[start..]
        .find(|c| {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            depth == 0
        })
        .expect("a closed config object");
    let config = &doc[start..=start + len];
    let mut numbers = Vec::new();
    for (colon, _) in config.match_indices("\":") {
        let value = colon + 2;
        let digits = config[value..]
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(config.len() - value);
        if digits > 0 {
            let key = &config[config[..colon].rfind('"').unwrap() + 1..colon];
            numbers.push((key, start + value..start + value + digits));
        }
    }
    numbers
}

/// Rejects `doc` with a typed error, or restores it into a device that
/// runs a launch and snapshots again; panics otherwise.
fn restore_and_run(doc: &str) {
    let Ok(snapshot) = DeviceSnapshot::from_json(doc) else { return };
    let Ok(mut device) = Device::restore(&snapshot) else { return };
    short_launch(&mut device);
    device.snapshot().expect("a restored device snapshots again");
}

#[test]
fn config_mutations_are_rejected_or_run() {
    let docs = base_documents();
    for field in NUMERIC_FIELDS {
        let carried = docs
            .iter()
            .any(|doc| config_numbers(doc).iter().any(|(key, _)| *key == field));
        assert!(carried, "no base document carries `{field}`");
    }
    check("config_mutations_are_rejected_or_run", 512, |rng| {
        let base = rng.gen_range(0..docs.len());
        let doc = &docs[base];
        let numbers = config_numbers(doc);
        let (key, range) = &numbers[rng.gen_range(0..numbers.len())];
        let edge = EDGES[rng.gen_range(0..EDGES.len())];
        let mutated = format!("{}{edge}{}", &doc[..range.start], &doc[range.end..]);
        let outcome = catch_unwind(AssertUnwindSafe(|| restore_and_run(&mutated)));
        assert!(outcome.is_ok(), "base document {base}: config `{key}` = {edge} panicked");
    });
}
