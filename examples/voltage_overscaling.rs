//! Voltage-overscaling study (the paper's §5.3): scale the FPU supply
//! from 0.90 V down to 0.80 V at constant 1 GHz and watch the baseline
//! architecture drown in recoveries while the memoization LUT — powered
//! at the fixed nominal voltage — masks errant instructions for free.
//!
//! ```text
//! cargo run --release --example voltage_overscaling
//! ```

use temporal_memo::kernels::ir::haar_on_device;
use temporal_memo::prelude::*;

fn total_energy(arch: ArchMode, vdd: f64, signal: &[f32]) -> (f64, u64, u64) {
    let config = DeviceConfig::builder()
        .with_arch(arch)
        .with_error_mode(ErrorMode::FromVoltage)
        .with_vdd(vdd)
        .with_seed(2014).build().unwrap();
    let mut device = Device::new(config);
    let _ = haar_on_device(&mut device, signal, 1);
    let report = device.report();
    let masked = report.total_stats().masked_errors;
    (report.total_energy_pj(), report.recoveries, masked)
}

fn main() {
    // SDK-style small-integer signal: ten distinct values (DwtHaar1D).
    let signal: Vec<f32> = (0..4096).map(|i| ((i * 31 + 7) % 10) as f32).collect();
    let model = VoltageModel::tsmc45();

    println!("Haar wavelet under voltage overscaling (constant clock, LUT at nominal 0.9 V)");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>8} {:>10} {:>9}",
        "Vdd", "error-rate", "baseline(nJ)", "memoized(nJ)", "saving", "recoveries", "masked"
    );
    for step in 0..=10 {
        let vdd = 0.80 + 0.01 * f64::from(step);
        let (base_pj, base_rec, _) = total_energy(ArchMode::Baseline, vdd, &signal);
        let (memo_pj, memo_rec, masked) = total_energy(ArchMode::Memoized, vdd, &signal);
        println!(
            "{:>6.2} {:>11.2}% {:>14.2} {:>14.2} {:>7.1}% {:>10} {:>9}",
            vdd,
            model.error_rate(vdd) * 100.0,
            base_pj / 1e3,
            memo_pj / 1e3,
            (1.0 - memo_pj / base_pj) * 100.0,
            base_rec.max(memo_rec),
            masked
        );
    }
    println!();
    println!("Below the ~0.84-0.85 V knee the error rate rises abruptly; every LUT hit");
    println!("corrects an errant instruction with zero cycle penalty, so the memoized");
    println!("architecture keeps scaling where the baseline's recovery energy explodes.");
}
