//! Error-intolerant workloads: price a book of European options with both
//! Black–Scholes and the binomial lattice on the simulated GPGPU, verify
//! against independent `f64` references, and show that exact matching
//! keeps every result bit-correct while still saving energy.
//!
//! ```text
//! cargo run --release --example option_pricing
//! ```

use temporal_memo::kernels::binomial::{binomial_f64, OptionSpec};
use temporal_memo::kernels::black_scholes::{black_scholes_f64, OptionBatch};
use temporal_memo::kernels::ir::{binomial_program, black_scholes_program};
use temporal_memo::prelude::*;

fn main() {
    let seed = 7u64;

    // --- Black–Scholes ---------------------------------------------------
    let batch = OptionBatch::generate(2048, seed);
    let mut device = Device::new(DeviceConfig::default());
    let mut ip = black_scholes_program(&batch);
    device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
    let (calls, puts) = (ip.bindings.buffer(5), ip.bindings.buffer(6));
    let report = device.report();

    let mut worst = 0.0f64;
    for i in 0..batch.len() {
        let (c64, p64) = black_scholes_f64(
            f64::from(batch.spot[i]),
            f64::from(batch.strike[i]),
            f64::from(batch.maturity[i]),
            f64::from(batch.rate[i]),
            f64::from(batch.volatility[i]),
        );
        worst = worst
            .max((f64::from(calls[i]) - c64).abs())
            .max((f64::from(puts[i]) - p64).abs());
    }
    println!("Black–Scholes: {} options priced", batch.len());
    println!(
        "  worst abs deviation vs f64 reference: {worst:.2e} (single-precision noise only)"
    );
    println!(
        "  FP instructions: {} | hit rate {:.1}% | energy {:.1} nJ",
        report.total_instructions(),
        report.weighted_hit_rate() * 100.0,
        report.total_energy_pj() / 1e3
    );

    // --- Binomial lattice -------------------------------------------------
    let options = OptionSpec::generate(256, seed);
    let steps = 20; // the paper's Table-1 input parameter
    let mut device = Device::new(DeviceConfig::default());
    let mut ip = binomial_program(&options, steps, device.config().wavefront_size);
    device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
    let prices = ip.take_output();
    let report = device.report();

    let mut worst = 0.0f64;
    for (i, &opt) in options.iter().enumerate() {
        let p64 = binomial_f64(
            f64::from(opt.spot),
            f64::from(opt.strike),
            f64::from(opt.maturity),
            f64::from(opt.rate),
            f64::from(opt.volatility),
            steps,
        );
        worst = worst.max((f64::from(prices[i]) - p64).abs());
    }
    println!("\nBinomialOption: {} options x {steps}-step lattice", options.len());
    println!("  worst abs deviation vs f64 reference: {worst:.2e}");
    println!(
        "  FP instructions: {} | hit rate {:.1}% | energy {:.1} nJ",
        report.total_instructions(),
        report.weighted_hit_rate() * 100.0,
        report.total_energy_pj() / 1e3
    );
    println!("\nthe binomial kernel's wavefront-uniform CRR parameters and the");
    println!("all-zero out-of-the-money lattice region give it real value locality");
    println!("even under exact (bit-by-bit) matching.");
}
