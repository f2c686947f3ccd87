//! Property-based tests of the image substrate, on [`tm_rng::check`].

use tm_image::{mse, psnr, read_pgm, write_pgm, GrayImage};
use tm_rng::{check, Pcg32};

const CASES: u32 = 256;

/// A 1–23 × 1–23 image of uniform pixels in `[0, 255]`: the size is
/// drawn first, then the pixels.
fn any_image(rng: &mut Pcg32) -> GrayImage {
    let (w, h) = (rng.gen_range(1..24usize), rng.gen_range(1..24usize));
    let data = (0..w * h).map(|_| rng.gen_range(0.0f32..=255.0)).collect();
    GrayImage::from_vec(w, h, data)
}

/// PSNR of an image with itself is infinite; MSE is zero.
#[test]
fn self_similarity() {
    check("self_similarity", CASES, |rng| {
        let img = any_image(rng);
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), f64::INFINITY);
    });
}

/// MSE is symmetric and non-negative.
#[test]
fn mse_symmetry() {
    check("mse_symmetry", CASES, |rng| {
        let a = any_image(rng);
        let b = GrayImage::from_fn(a.width(), a.height(), |x, y| 255.0 - a.get(x, y));
        assert!(mse(&a, &b) >= 0.0);
        assert_eq!(mse(&a, &b), mse(&b, &a));
    });
}

/// Adding uniform error strictly decreases PSNR.
#[test]
fn psnr_decreases_with_error() {
    check("psnr_decreases_with_error", CASES, |rng| {
        let img = any_image(rng);
        let e1 = rng.gen_range(0.5f32..8.0);
        let e2 = rng.gen_range(8.5f32..64.0);
        let shift = |im: &GrayImage, d: f32| {
            GrayImage::from_fn(im.width(), im.height(), |x, y| im.get(x, y) + d)
        };
        let small = shift(&img, e1);
        let large = shift(&img, e2);
        assert!(psnr(&img, &small) > psnr(&img, &large));
    });
}

/// PGM round trips within rounding error and preserves dimensions.
#[test]
fn pgm_round_trip() {
    check("pgm_round_trip", CASES, |rng| {
        let img = any_image(rng);
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).expect("write to memory");
        let back = read_pgm(buf.as_slice()).expect("parse what we wrote");
        assert_eq!((back.width(), back.height()), (img.width(), img.height()));
        for (a, b) in img.iter().zip(back.iter()) {
            assert!((a.round().clamp(0.0, 255.0) - b).abs() < 0.5 + 1e-6);
        }
    });
}

/// Border clamping never reads outside the image.
#[test]
fn clamped_access_in_bounds() {
    check("clamped_access_in_bounds", CASES, |rng| {
        let img = any_image(rng);
        let (x, y) = (rng.gen_range(-50isize..50), rng.gen_range(-50isize..50));
        let v = img.get_clamped(x, y);
        assert!(img.iter().any(|p| p.to_bits() == v.to_bits()));
    });
}
