//! Calibration harness: PSNR and hit rate vs absolute gray-level
//! threshold for the image kernels over both synthetic inputs. This is
//! the sweep behind `GRAY_LEVELS_PER_THRESHOLD_UNIT` (see DESIGN.md's
//! calibration decisions); rerun it whenever the generators change.
//!
//! Usage: `cargo run --release -p tm-kernels --example tune_psnr [side]`

use tm_core::MatchPolicy;
use tm_image::{gaussian3x3_reference, psnr, sobel_reference, synth, GrayImage};
use tm_kernels::ir::{gaussian_program, sobel_program, ImageProgram};
use tm_sim::{Device, DeviceConfig};

/// Filters `img` with the program `build` makes, at threshold `t`;
/// returns the output image and the weighted hit rate.
fn filter(img: &GrayImage, build: fn(&GrayImage) -> ImageProgram, t: f32) -> (GrayImage, f64) {
    let cfg = DeviceConfig::builder().with_policy(MatchPolicy::threshold(t)).build().unwrap();
    let mut device = Device::new(cfg);
    let mut ip = build(img);
    device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
    let out = GrayImage::from_vec(img.width(), img.height(), ip.take_output());
    (out, device.report().weighted_hit_rate())
}

fn main() {
    let side: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    for (img_name, img) in [
        ("face", synth::face(side, side, 7)),
        ("book", synth::book(side, side, 7)),
    ] {
        let sobel_ref = sobel_reference(&img);
        let gauss_ref = gaussian3x3_reference(&img);
        for t in [0.0f32, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let (s_out, s_hit) = filter(&img, sobel_program, t);
            let (g_out, g_hit) = filter(&img, gaussian_program, t);
            println!(
                "{img_name} t={t:.1}  sobel: {:6.1} dB (hit {:4.1}%)   gauss: {:6.1} dB (hit {:4.1}%)",
                psnr(&sobel_ref, &s_out),
                s_hit * 100.0,
                psnr(&gauss_ref, &g_out),
                g_hit * 100.0
            );
        }
    }
}
