//! Error-tolerant image pipeline: Sobel edge detection under approximate
//! memoization, sweeping the threshold and writing the outputs as PGM so
//! you can reproduce the paper's Fig. 2 panels visually.
//!
//! ```text
//! cargo run --release --example sobel_pipeline [side] [out_dir]
//! ```

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use temporal_memo::image::{psnr, sobel_reference, synth, write_pgm, GrayImage};
use temporal_memo::kernels::ir::sobel_program;
use temporal_memo::kernels::GRAY_LEVELS_PER_THRESHOLD_UNIT;
use temporal_memo::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let side: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let out_dir = std::env::args().nth(2).unwrap_or_else(|| "sobel_out".into());
    std::fs::create_dir_all(&out_dir)?;

    let input = synth::face(side, side, 7);
    let golden = sobel_reference(&input);
    save(&input, &out_dir, "input.pgm")?;
    save(&golden, &out_dir, "sobel_exact.pgm")?;

    println!("Sobel on a {side}x{side} synthetic face; outputs in {out_dir}/");
    println!(
        "{:>10} {:>10} {:>9} {:>10}  file",
        "threshold", "PSNR(dB)", "hit-rate", "energy(nJ)"
    );
    for paper_t in [0.0f32, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let gray = paper_t * GRAY_LEVELS_PER_THRESHOLD_UNIT;
        let config = DeviceConfig::builder().with_policy(MatchPolicy::threshold(gray)).build().unwrap();
        let mut device = Device::new(config);
        let mut ip = sobel_program(&input);
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
        let out = GrayImage::from_vec(side, side, ip.take_output());
        let report = device.report();
        let name = format!("sobel_t{paper_t:.1}.pgm");
        save(&out, &out_dir, &name)?;
        println!(
            "{:>10.1} {:>10.1} {:>8.1}% {:>10.1}  {name}",
            paper_t,
            psnr(&golden, &out),
            report.weighted_hit_rate() * 100.0,
            report.total_energy_pj() / 1e3
        );
    }
    println!("\nthreshold 0 reproduces the exact output (PSNR = inf);");
    println!("larger thresholds trade PSNR for hit rate and energy, as in the paper's Fig. 2.");
    Ok(())
}

fn save(img: &GrayImage, dir: &str, name: &str) -> std::io::Result<()> {
    let file = File::create(Path::new(dir).join(name))?;
    write_pgm(img, BufWriter::new(file))
}
