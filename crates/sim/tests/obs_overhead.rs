//! Overhead guards: the windowed metrics sink and the live telemetry
//! hub must each cost at most 5% of hot-path throughput.
//!
//! Two otherwise-identical executors — one plain, one observed — run
//! the same work. Timing is interleaved (plain, observed, plain,
//! observed, ...) and best-of-N per variant so scheduler noise and
//! frequency ramps hit both variants alike; the minima are what a
//! profiler would call the true cost.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tm_fpu::FpOp;
use tm_obs::TelemetryHub;
use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
use tm_sim::{CompiledProgram, ComputeUnit, Device, DeviceConfig};

// Bursts are kept short (~1ms release, ~15ms debug): a burst spanning
// many scheduler quanta can never dodge a busy neighbour on a one-core
// host, while short bursts slip into the idle gaps — the minima below
// then converge on the true cost. More trials compensate per burst.
const LANES: usize = 64;
const ITERS: usize = 100;
const TRIALS: usize = 40;
const ATTEMPTS: usize = 5;

/// Serializes the timing tests in this binary: run in parallel on a
/// small host they time-slice against each other and corrupt each
/// other's minima.
static TIMING_GATE: Mutex<()> = Mutex::new(());

fn timing_lock() -> MutexGuard<'static, ()> {
    TIMING_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn issue_burst(cu: &mut ComputeUnit, a: &mut [f32], b: &[f32], active: &[bool]) {
    let mut out = Vec::with_capacity(LANES);
    for i in 0..ITERS {
        // Rotate lane 0 so the miss/update path (the expensive one) stays
        // live instead of degenerating into all-hits.
        a[0] = (i % 13) as f32 * 0.75;
        cu.issue_vector_into(FpOp::Add, &[&*a, b], active, &mut out);
        cu.issue_vector_into(FpOp::Mul, &[&*a, b], active, &mut out);
        cu.issue_vector_into(FpOp::Sqrt, &[&*a], active, &mut out);
        black_box(&out);
    }
}

fn best_of(cu: &mut ComputeUnit, trials: usize) -> f64 {
    let mut a: Vec<f32> = (0..LANES).map(|i| (i % 9) as f32 + 0.5).collect();
    let b: Vec<f32> = (0..LANES).map(|i| (i % 7) as f32 - 3.0).collect();
    let active = vec![true; LANES];
    // Warm-up instantiates per-op units, sink tallies and window vectors.
    issue_burst(cu, &mut a, &b, &active);
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        issue_burst(cu, &mut a, &b, &active);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

#[test]
fn metrics_sink_costs_at_most_five_percent() {
    let _gate = timing_lock();
    let plain_cfg = DeviceConfig::builder().with_compute_units(1).build().unwrap();
    let metered_cfg = plain_cfg
        .clone()
        .rebuild()
        .with_metrics_window(1024)
        .build()
        .unwrap();
    let mut plain = ComputeUnit::new(&plain_cfg, 0);
    let mut metered = ComputeUnit::new(&metered_cfg, 0);
    assert!(plain.metrics().is_none());
    assert!(metered.metrics().is_some());

    // Interleave the trials: alternate single-trial measurements so any
    // transient slowdown (another test thread, a frequency step) is as
    // likely to land on either variant. Retry the whole measurement a
    // few times, carrying the minima forward — sustained background
    // load on a single-core host can poison one pass end to end, which
    // interleaving cannot fix, and more trials only ever sharpen a
    // minimum; systematic sink overhead would fail every pass alike.
    let mut best_plain = f64::INFINITY;
    let mut best_metered = f64::INFINITY;
    for attempt in 0..ATTEMPTS {
        for _ in 0..TRIALS {
            best_plain = best_plain.min(best_of(&mut plain, 1));
            best_metered = best_metered.min(best_of(&mut metered, 1));
        }
        if best_metered <= best_plain * 1.05 + 50e-6 {
            break;
        }
        eprintln!(
            "attempt {attempt}: metered {:.1}µs vs plain {:.1}µs — retrying under assumed transient load",
            best_metered * 1e6,
            best_plain * 1e6,
        );
    }
    eprintln!(
        "metrics sink: plain {:.1}µs metered {:.1}µs (ratio {:.3})",
        best_plain * 1e6,
        best_metered * 1e6,
        best_metered / best_plain,
    );

    // 5% relative budget plus a small absolute epsilon so a sub-µs timer
    // quantum cannot fail the test on very fast hosts.
    let budget = best_plain * 1.05 + 50e-6;
    assert!(
        best_metered <= budget,
        "metrics sink overhead too high: metered {:.1}µs vs plain {:.1}µs (budget {:.1}µs)",
        best_metered * 1e6,
        best_plain * 1e6,
        budget * 1e6,
    );
}

/// A program with a varied operand stream — misses and updates keep the
/// expensive memoization paths live under the hub-attached device.
struct SqrtMix {
    program: CompiledProgram,
    bindings: Bindings,
}

impl SqrtMix {
    const LANES: usize = 4096;

    fn new() -> Self {
        let program = VProgram::new(
            2,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
                VInst::Alu { op: FpOp::Sqrt, dst: 1, srcs: vec![Src::Reg(0)] },
                VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Reg(0)] },
            ],
        )
        .unwrap()
        .with_name("sqrt_mix");
        let input = (0..Self::LANES).map(|g| (g % 64 % 13) as f32 * 0.75 + 0.5).collect();
        Self {
            program: CompiledProgram::compile(&program),
            bindings: Bindings::new(vec![input]),
        }
    }
}

fn device_burst(device: &mut Device, work: &mut SqrtMix) {
    for _ in 0..8 {
        device.run_compiled(&work.program, &mut work.bindings, SqrtMix::LANES, 1);
    }
}

fn device_best_of(device: &mut Device, work: &mut SqrtMix, trials: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        device_burst(device, work);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Gate for the telemetry hub: publication happens once per *launch*
/// (sketch insert + a handful of gauge/counter updates under one short
/// mutex hold), never per instruction, so a hub-attached device must
/// stay within the same ≤5% budget as the metrics sink.
///
/// The whole measurement retries a few times, carrying minima forward:
/// a device burst runs milliseconds, so on a busy single-core host a
/// sustained background load can poison every trial of one measurement
/// pass — something the interleaving cannot average away. Systematic
/// hub overhead would fail every pass alike; transient load does not.
#[test]
fn telemetry_hub_costs_at_most_five_percent() {
    let _gate = timing_lock();
    let cfg = DeviceConfig::builder().with_compute_units(1).build().unwrap();
    let mut plain = Device::new(cfg.clone());
    let hub = TelemetryHub::new();
    let mut observed = Device::new(cfg);
    observed.attach_hub(&hub);

    // Warm-up instantiates per-op units and hub series.
    let mut work = SqrtMix::new();
    device_burst(&mut plain, &mut work);
    device_burst(&mut observed, &mut work);

    let mut best_plain = f64::INFINITY;
    let mut best_observed = f64::INFINITY;
    for attempt in 0..ATTEMPTS {
        for _ in 0..TRIALS {
            best_plain = best_plain.min(device_best_of(&mut plain, &mut work, 1));
            best_observed = best_observed.min(device_best_of(&mut observed, &mut work, 1));
        }
        if best_observed <= best_plain * 1.05 + 50e-6 {
            break;
        }
        eprintln!(
            "attempt {attempt}: observed {:.1}µs vs plain {:.1}µs — retrying under assumed transient load",
            best_observed * 1e6,
            best_plain * 1e6,
        );
    }
    eprintln!(
        "telemetry hub: plain {:.1}µs observed {:.1}µs (ratio {:.3})",
        best_plain * 1e6,
        best_observed * 1e6,
        best_observed / best_plain,
    );

    assert!(hub.counter("sim0.launches") > 0, "hub actually saw launches");
    let budget = best_plain * 1.05 + 50e-6;
    assert!(
        best_observed <= budget,
        "telemetry hub overhead too high: observed {:.1}µs vs plain {:.1}µs (budget {:.1}µs)",
        best_observed * 1e6,
        best_plain * 1e6,
        budget * 1e6,
    );
}
