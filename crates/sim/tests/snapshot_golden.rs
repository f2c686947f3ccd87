//! Golden snapshot documents: the exact bytes `DeviceSnapshot::to_json`
//! writes for a set of devices that, between them, carry every tag of
//! every enum in the schema and each nullable field both null and set.
//!
//! Round-trip tests only compare a document with itself, so an encoder
//! that reordered keys or reformatted a number would pass them. These
//! digests pin the format: a change to any byte of any document fails
//! here, and a deliberate format change must bump `SNAPSHOT_VERSION`.

use tm_core::{fraction_mask, GatePolicy, MatchPolicy, Replacement};
use tm_fpu::FpOp;
use tm_sim::prelude::*;
use tm_sim::DeviceSnapshot;
use tm_timing::{BurstErrors, HeterogeneousErrors};

/// `out[gid] = sqrt(gid * 0.5 + 0.5)` over `n` work-items.
fn launch(device: &mut Device, n: usize) {
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
    device.run_program(&program, &mut Bindings::new(vec![vec![0.0; n]]), n, 1);
}

/// One compute unit of four stream cores, with metrics and a gate.
fn small() -> DeviceConfigBuilder {
    DeviceConfig::builder()
        .with_compute_units(1)
        .with_stream_cores_per_cu(4)
        .with_wavefront_size(16)
        .with_metrics_window(64)
        .with_trace_depth(16)
        .with_adaptive_gate(GatePolicy::break_even())
}

/// The snapshot of a fresh device built from `builder` after one
/// launch over `n` work-items.
fn after_launch(builder: DeviceConfigBuilder, n: usize) -> String {
    let mut device = Device::new(builder.build().unwrap());
    launch(&mut device, n);
    device.snapshot().unwrap().to_json()
}

/// Each golden document by name.
fn documents() -> Vec<(&'static str, String)> {
    // Exact matching, a fixed rate, the uniform model, no gate and no
    // metrics: the variant the benchmark's snapshot round trip encodes.
    let plain = after_launch(
        DeviceConfig::builder().with_error_mode(ErrorMode::FixedRate(0.02)).with_seed(0x5EED),
        257,
    );
    let mask_heterogeneous = after_launch(
        small()
            .with_policy(MatchPolicy::MaskBits(fraction_mask(12)))
            .with_error_mode(ErrorMode::FixedRate(0.05))
            .with_error_model(ErrorModelSpec::Heterogeneous(HeterogeneousErrors {
                slow_fraction: 0.75,
                ..HeterogeneousErrors::quartile_corners()
            })),
        64,
    );
    let threshold_burst = after_launch(
        small()
            .with_policy(MatchPolicy::threshold(0.25))
            .with_error_mode(ErrorMode::PerStageRate(0.01))
            .with_error_model(ErrorModelSpec::Burst(BurstErrors::droop()))
            .with_recovery(RecoveryPolicy::MultipleIssueReplay { issues: 3 }),
        64,
    );
    let voltage_coupled = after_launch(
        small()
            .with_error_mode(ErrorMode::FromVoltage)
            .with_vdd(0.8)
            .with_error_model(ErrorModelSpec::VoltageCoupled { sigma_vdd: 0.02 })
            .with_recovery(RecoveryPolicy::DecouplingQueue),
        64,
    );
    // A baseline device configured with a gate builds none.
    let baseline_lru = after_launch(
        small()
            .with_arch(ArchMode::Baseline)
            .with_replacement(Replacement::Lru)
            .with_recovery(RecoveryPolicy::HalfFrequencyReplay)
            .with_backend(ExecBackend::Parallel)
            .with_error_mode(ErrorMode::FixedRate(0.05)),
        64,
    );
    let spatial = after_launch(
        DeviceConfig::builder()
            .with_compute_units(1)
            .with_arch(ArchMode::Spatial)
            .with_error_mode(ErrorMode::FixedRate(0.05)),
        128,
    );
    // Units a warm start materializes have never issued, so their
    // `last_issue` is null.
    let warm = {
        let mut device = Device::new(small().build().unwrap());
        device.preload_fifos(&DeviceSnapshot::from_json(&mask_heterogeneous).unwrap());
        device.snapshot().unwrap().to_json()
    };
    vec![
        ("plain", plain),
        ("mask_heterogeneous", mask_heterogeneous),
        ("threshold_burst", threshold_burst),
        ("voltage_coupled", voltage_coupled),
        ("baseline_lru", baseline_lru),
        ("spatial", spatial),
        ("warm", warm),
    ]
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(name, length in bytes, FNV-1a-64 digest)` of each golden document.
const GOLDEN: [(&str, usize, u64); 7] = [
    ("plain", 45958, 0x30804f2b09879bc2),
    ("mask_heterogeneous", 9001, 0xbcc0420c17a93db9),
    ("threshold_burst", 8922, 0x0f37e3d74cfed343),
    ("voltage_coupled", 8576, 0x9ea74d7ea5969440),
    ("baseline_lru", 6274, 0xe9fd1931b289515c),
    ("spatial", 17805, 0x9f66d42f4d3daf2a),
    ("warm", 7623, 0x6dde5f471f9cf3eb),
];

#[test]
fn golden_documents_carry_every_tag_and_both_null_states() {
    let docs = documents();
    let all = docs.iter().map(|(_, doc)| doc.as_str()).collect::<Vec<_>>().join("\n");
    for tag in [
        "\"arch\":\"memoized\"", "\"arch\":\"baseline\"", "\"arch\":\"spatial\"",
        "\"replacement\":\"fifo\"", "\"replacement\":\"lru\"",
        "\"backend\":\"sequential\"", "\"backend\":\"parallel\"",
        "{\"kind\":\"exact\"}", "{\"kind\":\"threshold\"", "{\"kind\":\"mask_bits\"",
        "{\"kind\":\"flush_replay\"", "{\"kind\":\"multiple_issue_replay\"",
        "{\"kind\":\"half_frequency_replay\"}", "{\"kind\":\"decoupling_queue\"}",
        "{\"kind\":\"fixed_rate\"", "{\"kind\":\"per_stage_rate\"", "{\"kind\":\"from_voltage\"}",
        "{\"kind\":\"uniform\"}", "{\"kind\":\"heterogeneous\"", "{\"kind\":\"voltage-coupled\"",
        "{\"kind\":\"burst\"",
    ] {
        assert!(all.contains(tag), "no golden document carries {tag}");
    }
    for key in ["adaptive_gate", "metrics_window", "metrics", "burst_bad", "last_issue", "gate"] {
        let field = format!("\"{key}\":");
        let mut values = all.match_indices(&field).map(|(i, _)| all[i + field.len()..].starts_with("null"));
        assert!(values.clone().any(|null| null), "no golden document has a null `{key}`");
        assert!(values.any(|null| !null), "no golden document sets `{key}`");
    }
}

#[test]
fn golden_documents_are_reproduced_byte_for_byte() {
    let docs = documents();
    let got: Vec<(&str, usize, u64)> =
        docs.iter().map(|(name, doc)| (*name, doc.len(), fnv1a64(doc.as_bytes()))).collect();
    assert_eq!(got, GOLDEN, "golden snapshot documents changed");
    for (name, doc) in &docs {
        let parsed = DeviceSnapshot::from_json(doc).unwrap();
        assert_eq!(&parsed.to_json(), doc, "{name}: from_json(doc).to_json() != doc");
    }
}
