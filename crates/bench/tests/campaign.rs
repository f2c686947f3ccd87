//! Campaign harness invariants: seed → byte-identical JSONL on every
//! backend, adaptive quality control that actually restores the 30 dB
//! floor, and the `repro` experiment registry.

use std::process::Command;
use tm_bench::{
    merge_shard_documents, run_campaign, run_campaign_sharded, CampaignSpec, QualityController,
    Shard, PSNR_FLOOR_DB,
};
use tm_kernels::KernelId;
use tm_obs::SharedRecorder;
use tm_sim::prelude::*;
use tm_timing::HeterogeneousErrors;

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        trials: 3,
        error_rates: vec![0.0, 0.02],
        ..CampaignSpec::default()
    }
}

#[test]
fn campaign_jsonl_is_byte_identical_across_backends() {
    let mut outputs = Vec::new();
    for backend in [ExecBackend::Sequential, ExecBackend::Parallel] {
        let spec = CampaignSpec {
            backend,
            ..small_spec()
        };
        outputs.push((backend.name(), run_campaign(&spec, None).jsonl()));
    }
    for (name, jsonl) in &outputs[1..] {
        assert_eq!(
            &outputs[0].1, jsonl,
            "campaign JSONL must be byte-identical on the {name} backend"
        );
    }
}

#[test]
fn sharded_campaign_concatenates_byte_identically_on_every_backend() {
    // For a fixed seed, the merged shard JSONLs are byte-identical to
    // the monolithic run on both backends.
    let meta = tm_obs::RunMeta {
        git_rev: Some("abc1234".into()),
        host_cores: 4,
        timestamp: Some("2026-08-08T00:00:00Z".into()),
    };
    for backend in [ExecBackend::Sequential, ExecBackend::Parallel] {
        let spec = CampaignSpec {
            backend,
            ..small_spec()
        };
        let whole = run_campaign(&spec, None);
        let docs: Vec<(String, String)> = (0..2)
            .map(|i| {
                let shard = Shard::new(i, 2).unwrap();
                let out = run_campaign_sharded(&spec, Some(shard), None, None, None, None);
                (format!("shard_{i}.jsonl"), out.jsonl_with_meta(&meta))
            })
            .collect();
        assert_eq!(
            merge_shard_documents(&docs).unwrap(),
            whole.jsonl_with_meta(&meta),
            "merged shards must be byte-identical to the monolithic run on {}",
            backend.name()
        );
    }
}

#[test]
fn same_seed_means_byte_identical_jsonl() {
    let a = run_campaign(&small_spec(), None).jsonl();
    let b = run_campaign(&small_spec(), None).jsonl();
    assert_eq!(a, b);
    let other = CampaignSpec {
        seed: small_spec().seed + 1,
        ..small_spec()
    };
    assert_ne!(
        a,
        run_campaign(&other, None).jsonl(),
        "a different campaign seed must change the trial stream"
    );
}

#[test]
fn controller_restores_quality_on_gaussian_under_heterogeneous_errors() {
    // A deliberately sloppy starting threshold (8x the paper's design
    // point) drives Gaussian below the 30 dB floor; the controller must
    // tighten its way back above it within its adaptation budget.
    let spec = CampaignSpec {
        kernel: KernelId::Gaussian,
        trials: 3,
        error_rates: vec![0.02],
        error_model: ErrorModelSpec::Heterogeneous(HeterogeneousErrors::quartile_corners()),
        threshold: 32.0,
        ..CampaignSpec::default()
    };
    let rec = SharedRecorder::new();
    let out = run_campaign(&spec, Some(&rec));

    let adapted: usize = out.records.iter().filter(|r| !r.adaptations.is_empty()).count();
    assert!(adapted > 0, "threshold 32.0 must trip the controller");
    for r in &out.records {
        assert!(
            r.acceptable && r.psnr_db >= PSNR_FLOOR_DB,
            "trial {} must end at or above the floor, got {:.1} dB after {} adaptations",
            r.trial,
            r.psnr_db,
            r.adaptations.len()
        );
        assert!(
            r.adaptations.len() as u32 <= spec.controller.max_adaptations,
            "convergence must fit the adaptation budget"
        );
        // The trajectory is monotone: each step tightens the threshold.
        for step in &r.adaptations {
            assert!(step.to_threshold < step.from_threshold);
            assert!(step.psnr_db < spec.controller.floor_db);
        }
        assert!(r.final_threshold < spec.threshold || r.adaptations.is_empty());
    }

    // The trajectory is visible in tm-obs form: the campaign metrics
    // and the live recorder both count every adaptation.
    let total_adaptations: u64 = out.records.iter().map(|r| r.adaptations.len() as u64).sum();
    assert_eq!(out.metrics.counter("campaign.adaptations"), total_adaptations);
    let counters = rec.counter_snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("campaign.adaptations"), total_adaptations);
    assert_eq!(counter("campaign.trials"), out.records.len() as u64);
    // ...and in the JSONL, as one `adapt` line per step.
    let adapt_lines = out
        .jsonl()
        .lines()
        .filter(|l| l.contains("\"kind\":\"adapt\""))
        .count();
    assert_eq!(adapt_lines as u64, total_adaptations);
}

#[test]
fn default_controller_is_exact_bounded() {
    // Snap-to-exact guarantees convergence: from any threshold up to 64
    // gray levels (a quarter of the whole gray range — far beyond any
    // sane operating point), the controller reaches 0.0 (PSNR = inf)
    // within its default 8-step budget.
    let c = QualityController::default();
    let mut threshold = 64.0_f32;
    let mut steps = 0;
    while let Some(next) = c.next_threshold(threshold, 0.0, steps) {
        threshold = next;
        steps += 1;
    }
    assert_eq!(threshold, 0.0);
    assert!(steps <= c.max_adaptations);
}

#[test]
fn repro_lists_campaign_with_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("repro --list must run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("campaign") && stdout.contains("Monte Carlo"),
        "--list must show the campaign experiment with help: {stdout}"
    );
    // Every line is "<name> <help>": two columns, nothing bare.
    for line in stdout.lines() {
        assert!(
            line.split_whitespace().count() >= 2,
            "registry entries need one-line help: {line:?}"
        );
    }
}

#[test]
fn repro_campaign_writes_jsonl() {
    let dir = std::env::temp_dir().join(format!("tm-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl_path = dir.join("campaign.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--experiment", "campaign", "--scale", "test", "--trials", "2"])
        .arg("--campaign-out")
        .arg(&jsonl_path)
        .output()
        .expect("repro campaign must run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("psnr dB (mean±sd)"),
        "campaign must print mean±stddev per sweep point: {stdout}"
    );
    let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines = tm_obs::parse_jsonl(&jsonl).expect("campaign JSONL must parse");
    assert!(!lines.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
