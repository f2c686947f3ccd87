//! The `campaign-injected` workload.
//!
//! One operation is a pair of `tm_bench::run_campaign` calls on one seed:
//! Sobel starting at an 8-gray-level threshold (the quality controller
//! retries every trial once, at 4), then Gaussian at the library default.
//! Both use the library's defaults otherwise — test scale, heterogeneous
//! errors over rates {0, .01, .02, .04}, 2 CUs, 4 wavefronts in flight —
//! with one trial per rate, so a window holds the hundreds of operations
//! its p90 needs.
//!
//! The devices run on the sequential backend. On a 2-core host shared
//! with other tenants, the parallel backend's launch time depends on
//! whether the second core is free at that moment, which made pair
//! latency swing between two modes from run to run; the campaign's
//! results do not depend on the backend, and `launches-test` measures
//! the parallel engine.

use tm_bench::{run_campaign, CampaignSpec};
use tm_kernels::{workload, KernelId, Scale, GRAY_LEVELS_PER_THRESHOLD_UNIT};
use tm_sim::{Device, DeviceConfig, ExecBackend};

use crate::stats::Fnv;
use crate::trace::Probe;
use crate::{derive_seed, Rounds, Tally};

/// The backend every campaign device runs on (see the module docs).
const BACKEND: ExecBackend = ExecBackend::Sequential;

/// Campaign seeds one input cycle runs.
const CYCLE: usize = 4;

/// The kernels of a pair with their initial thresholds, in gray levels.
const PAIR: [(KernelId, f32); 2] = [
    (KernelId::Sobel, 2.0 * GRAY_LEVELS_PER_THRESHOLD_UNIT),
    (KernelId::Gaussian, GRAY_LEVELS_PER_THRESHOLD_UNIT),
];

/// Trials per error rate of each campaign call.
const TRIALS: u32 = 1;

/// Campaign pairs over a cycle of seeds.
pub struct CampaignRounds {
    seeds: Vec<u64>,
    trials: u32,
    /// Lane instructions one attempt of each `PAIR` kernel retires.
    per_attempt: [u64; 2],
}

impl CampaignRounds {
    /// Derives the campaign seeds, measures how many lane instructions
    /// one attempt of each kernel retires, and runs a warm-up pair on
    /// each seed.
    /// Returns the workload and the seconds spent building inputs.
    #[must_use]
    pub fn setup(seed: u64) -> (Self, f64) {
        Self::with_trials(seed, TRIALS)
    }

    /// [`Self::setup`] with `trials` trials per error rate.
    #[must_use]
    pub fn with_trials(seed: u64, trials: u32) -> (Self, f64) {
        let probe = Probe::untraced();
        let mut build_s = 0.0;
        // A campaign attempt runs the kernel's IR program once; its lane
        // instruction count does not depend on pixel values, thresholds
        // or injected errors.
        let per_attempt = PAIR.map(|(id, _)| {
            let (mut wl, secs) = probe.call("kernels", "workload::build_ir", || {
                workload::build_ir(id, Scale::Test, seed)
            });
            build_s += secs;
            let mut device = Device::new(DeviceConfig::default());
            let _ = wl.run(&mut device);
            device.report().total_instructions()
        });
        let mut rounds = Self {
            seeds: (0..CYCLE).map(|i| derive_seed(seed, i)).collect(),
            trials,
            per_attempt,
        };
        for index in 0..CYCLE {
            rounds.round(index, &probe, &mut Tally::default());
        }
        (rounds, build_s)
    }
}

impl Rounds for CampaignRounds {
    fn backend(&self) -> &'static str {
        BACKEND.name()
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn round(&mut self, index: usize, probe: &Probe, tally: &mut Tally) -> u64 {
        let seed = self.seeds[index % CYCLE];
        let mut digest = Fnv::default();
        let (mut op_s, mut op_instr) = (0.0, 0);
        for (&(kernel, threshold), &per_attempt) in PAIR.iter().zip(&self.per_attempt) {
            let spec = CampaignSpec {
                kernel,
                threshold,
                trials: self.trials,
                seed,
                backend: BACKEND,
                ..CampaignSpec::default()
            };
            let (outcome, secs) = probe.call("campaign", "run_campaign", || {
                run_campaign(&spec, probe.recorder())
            });
            let attempts: u64 = outcome
                .records
                .iter()
                .map(|r| 1 + r.adaptations.len() as u64)
                .sum();
            let instr = attempts * per_attempt;
            tally.kernel(kernel.name(), instr, secs);
            op_s += secs;
            op_instr += instr;
            tally.count("campaign.ms", secs * 1e3);
            tally.count("campaign.attempts", attempts as f64);
            tally.count("campaign.trials", outcome.records.len() as f64);
            for r in &outcome.records {
                tally.check(r.acceptable, || {
                    format!(
                        "{kernel} trial at rate {}: PSNR {:.2} dB below the floor",
                        r.error_rate, r.psnr_db
                    )
                });
                tally.count("campaign.acceptable", f64::from(u8::from(r.acceptable)));
                // A record describes its final attempt.
                let s = &mut tally.sim;
                s.lane_instructions += per_attempt;
                s.hit_num += r.hit_rate * per_attempt as f64;
                s.hit_den += per_attempt as f64;
                s.errors_injected += r.errors_injected;
                s.recoveries += r.recoveries;
                s.energy_pj += r.energy_pj;
            }
            digest.write(outcome.jsonl().as_bytes());
        }
        tally.op("pair", op_s, op_instr);
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{attribute, ratio, LayerTimes, ROUND_SPAN_CAPACITY};
    use tm_obs::SharedRecorder;

    /// Traces pairs at `trials` trials per rate for about `secs` seconds.
    /// Returns host ms per trial, the launch share of campaign time and
    /// the campaign layer's self share of it.
    fn traced_shares(trials: u32, secs: f64) -> (f64, f64, f64) {
        let (mut rounds, _) = CampaignRounds::with_trials(7, trials);
        let (mut acc, mut tally) = (LayerTimes::default(), Tally::default());
        let start = std::time::Instant::now();
        let mut index = 0;
        while index < CYCLE || start.elapsed().as_secs_f64() < secs {
            let rec = SharedRecorder::with_capacity(ROUND_SPAN_CAPACITY);
            let pid = rec.alloc_pid();
            let t = std::time::Instant::now();
            rounds.round(index, &Probe::traced(&rec, pid, 0), &mut tally);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(rec.dropped(), 0);
            rec.with(|r| attribute(r.spans(), pid, false, wall_us, &mut acc));
            index += 1;
        }
        (
            tally.counts["campaign.ms"] / tally.counts["campaign.trials"],
            ratio(acc.campaign_launch_us, acc.campaign_us),
            ratio(acc.self_us["campaign"], acc.campaign_us),
        )
    }

    #[test]
    #[ignore = "prints the per-call fixed cost of the campaign mix; run with --release --ignored --nocapture"]
    fn campaign_fixed_cost_share() {
        let default_trials = CampaignSpec::default().trials;
        for trials in [TRIALS, default_trials] {
            let (ms, launch, own) = traced_shares(trials, 8.0);
            println!(
                "trials per rate {trials}: {ms:.3} ms per trial, \
                 campaign.launch_frac {launch:.4}, campaign self share {own:.4}"
            );
        }
    }
}
