//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each experiment is a pure function returning typed rows, so the same
//! code backs the `repro` binary (human-readable tables) and the
//! integration tests that pin the headline claims. See
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.
//!
//! # Examples
//!
//! ```
//! use tm_bench::{energy_comparison, ExperimentConfig};
//! use tm_kernels::{KernelId, Scale};
//!
//! let cfg = ExperimentConfig {
//!     scale: Scale::Test,
//!     ..ExperimentConfig::default()
//! };
//! let cmp = energy_comparison(KernelId::Sobel, 0.0, &cfg);
//! assert!(cmp.saving() > 0.0, "memoization should save energy");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod bench_hotpath;
mod campaign;
pub mod chart;
pub mod csv;
mod energy;
mod frequency;
mod gate;
mod hit_rate;
mod interleave;
mod lut_explore;
mod obs_demo;
mod psnr;
pub mod report;
mod runner;
mod scorecard;
mod sensitivity;
mod speedup;

pub use ablation::{
    gating_ablation, matching_ablation, recovery_ablation, replacement_ablation,
    spatial_ablation, GatingAblationRow, MatchingAblationRow, RecoveryAblationRow,
    ReplacementAblationRow, SpatialAblationRow,
};
pub use bench_hotpath::{
    backend_label, hotpath_bench, rows_to_json, rows_to_json_with_meta, BenchRow,
    BENCH_BACKENDS, PART_CASES,
};
pub use campaign::{
    merge_shard_documents, run_campaign, run_campaign_observed, run_campaign_sharded,
    AdaptationStep, CampaignOutcome, CampaignSpec, MetricStats, QualityController, Shard,
    SweepSummary, TrialRecord, CAMPAIGN_DEVICE_SCOPE, CAMPAIGN_ERROR_RATES, PSNR_CAP_DB,
    PSNR_FLOOR_DB,
};
pub use energy::{
    energy_comparison, fig10, fig10_average_savings, fig11, fig11_average_savings,
    EnergyComparison, Fig10Row, Fig11Row, FIG10_ERROR_RATES, FIG11_VOLTAGES,
};
pub use frequency::{frequency_sweep, FrequencyRow, PLAID_PERIODS};
pub use gate::{bench_gate, GateEntry, GateReport, GATE_FLOOR};
pub use hit_rate::{
    fifo_sweep, fig6_7, fig8, locality_analysis, Fig6Row, Fig8Row, FifoSweepRow, LocalityRow,
};
pub use interleave::{interleaving_sweep, InterleavingRow, IN_FLIGHT_DEPTHS};
pub use lut_explore::{
    lut_exploration, replay_hit_rate, LutExplorationRow, LutShape, LUT_SHAPES,
};
pub use obs_demo::{obs_demo, ObsDemoOutcome, OBS_METRICS_WINDOW};
pub use psnr::{psnr_sweep, PsnrRow, PSNR_THRESHOLDS};
pub use runner::{kernel_policy, run_workload, ExperimentConfig, RunOutcome};
pub use scorecard::{scorecard, Grade, ScorecardRow};
pub use sensitivity::{sensitivity_sweep, SensitivityRow, LUT_FRACS, RECOVERY_FRACS};
pub use speedup::{backend_speedup, SpeedupRow, SPEEDUP_CUS};
