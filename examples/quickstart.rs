//! Quickstart: run a tiny vector program on the simulated GPGPU with and without
//! temporal memoization, inject timing errors, and compare what happens.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use temporal_memo::prelude::*;

/// `y[i] = 1 / sqrt(x[i] + 1)` — a little pipeline of ADD → RSQ, with
/// `x` in buffer 0 and `y` written to buffer 1.
fn inv_sqrt() -> VProgram {
    VProgram::new(
        2,
        vec![
            VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
            VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(1.0)] },
            VInst::Alu { op: FpOp::RecipSqrt, dst: 1, srcs: vec![Src::Reg(1)] },
            VInst::Scatter { src: 1, data: 1, addr: Addr::Gid },
        ],
    )
    .expect("well-formed program")
    .with_name("inv_sqrt")
}

fn run(arch: ArchMode, error_rate: f64, n: usize) -> (Vec<f32>, DeviceReport) {
    // Low-entropy input: sensor-style readings quantized to 16 levels —
    // the kind of data-parallel value locality the paper exploits.
    let input = (0..n).map(|i| ((i * 7) % 16) as f32).collect();
    let mut bindings = Bindings::new(vec![input, vec![0.0; n]]);
    let config = DeviceConfig::builder()
        .with_arch(arch)
        .with_error_mode(ErrorMode::FixedRate(error_rate))
        .with_seed(42).build().unwrap();
    let mut device = Device::new(config);
    device.run_program(&inv_sqrt(), &mut bindings, n, 1);
    (bindings.buffer(1).to_vec(), device.report())
}

fn main() {
    let n = 4096;

    println!("== error-free run ==");
    let (out_base, rep_base) = run(ArchMode::Baseline, 0.0, n);
    let (out_memo, rep_memo) = run(ArchMode::Memoized, 0.0, n);
    assert_eq!(out_base, out_memo, "exact matching is bit-transparent");
    println!(
        "memoized hit rate: {:.1}% | energy: {:.1} nJ vs baseline {:.1} nJ ({:.1}% saved)",
        rep_memo.weighted_hit_rate() * 100.0,
        rep_memo.total_energy_pj() / 1e3,
        rep_base.total_energy_pj() / 1e3,
        (1.0 - rep_memo.total_energy_pj() / rep_base.total_energy_pj()) * 100.0
    );

    println!("\n== 4% timing-error rate ==");
    let (_, rep_base) = run(ArchMode::Baseline, 0.04, n);
    let (out_memo, rep_memo) = run(ArchMode::Memoized, 0.04, n);
    let stats = rep_memo.total_stats();
    println!(
        "errors injected: {} | masked for free by the LUT: {} | ECU recoveries: {}",
        rep_memo.errors_injected, stats.masked_errors, rep_memo.recoveries
    );
    println!(
        "baseline recoveries: {} | energy saved vs baseline: {:.1}%",
        rep_base.recoveries,
        (1.0 - rep_memo.total_energy_pj() / rep_base.total_energy_pj()) * 100.0
    );
    // Even with errors, the architecture's output is always correct —
    // hits mask errors, misses are replayed by the ECU.
    assert_eq!(out_memo, out_base_check(n), "outputs stay correct under errors");
    println!("\noutputs verified correct under timing errors ✓");
}

fn out_base_check(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = ((i * 7) % 16) as f32;
            1.0 / (x + 1.0).sqrt()
        })
        .collect()
}
