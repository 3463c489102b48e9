//! Golden-bytes parity for the vectorized / fixed-point kernel layer.
//!
//! Mirrors `lk_parity.rs`: the row-streamed `u16` pyramid level kernel
//! (blur + downsample) and the Scharr tile kernel are optimizations, not
//! approximations, so their output must match the scalar oracles in
//! `adavp_vision::reference` byte-for-byte — on well-behaved frames and on
//! adversarial shapes alike.
//! Uses no dev-dependencies so it runs under the offline rustc-direct
//! harness.

use adavp_vision::geometry::PixelRect;
use adavp_vision::gradient::{GradientField, TiledGradients};
use adavp_vision::image::GrayImage;
use adavp_vision::pyramid::{blur_downsample_into, Pyramid};
use adavp_vision::reference::{blur_downsample_into_scalar, scharr_gradients_into_scalar};

/// Deterministic texture with structure at several scales.
fn textured(w: u32, h: u32, phase: f32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let xf = x as f32;
        let yf = y as f32;
        let v = 128.0
            + 48.0 * (xf * 0.31 + phase).sin() * (yf * 0.23).cos()
            + 36.0 * ((xf * 0.11 + yf * 0.19 + phase).sin())
            + 18.0 * ((xf * 0.05).cos() * (yf * 0.37).sin());
        v.clamp(0.0, 255.0) as u8
    })
}

/// Xorshift-ish deterministic noise: hits saturating u8 values frequently.
fn noisy(w: u32, h: u32, seed: u32) -> GrayImage {
    let mut state = seed | 1;
    GrayImage::from_fn(w, h, |_, _| {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        (state >> 8) as u8
    })
}

/// Adversarial shapes: degenerate 1-pixel strips, widths straddling every
/// plausible SIMD lane count, and sizes around the pyramid's halving points.
const SHAPES: &[(u32, u32)] = &[
    (1, 1),
    (1, 7),
    (7, 1),
    (2, 2),
    (3, 3),
    (4, 4),
    (5, 3),
    (7, 5),
    (8, 8),
    (9, 2),
    (15, 15),
    (16, 16),
    (17, 17),
    (31, 9),
    (33, 11),
    (63, 5),
    (64, 64),
    (65, 33),
];

fn images_for(w: u32, h: u32) -> Vec<GrayImage> {
    vec![
        textured(w, h, 0.7),
        noisy(w, h, 0x9e37_79b9 ^ (w * 131 + h)),
        GrayImage::from_fn(w, h, |_, _| 255), // saturating: max accumulator stress
        GrayImage::from_fn(w, h, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 }),
    ]
}

#[test]
fn streamed_level_matches_composed_oracles_on_adversarial_shapes() {
    for &(w, h) in SHAPES {
        for img in images_for(w, h) {
            let (nw, nh) = ((w / 2).max(1), (h / 2).max(1));
            let mut fast = GrayImage::new(nw, nh);
            let mut scalar = GrayImage::new(nw, nh);
            blur_downsample_into(&img, &mut fast);
            blur_downsample_into_scalar(&img, &mut scalar);
            assert_eq!(
                fast.as_bytes(),
                scalar.as_bytes(),
                "blur + downsample diverged from scalar at {w}x{h}"
            );
        }
    }
}

/// Asks `tiled` for every tile of `img` and asserts each pixel equals
/// `scalar` bit for bit.
fn assert_tiles_match(img: &GrayImage, tiled: &mut TiledGradients, scalar: &GradientField) {
    let (w, h) = (img.width(), img.height());
    tiled.ensure(img, &[PixelRect::new(0, 0, w.into(), h.into())]);
    for y in 0..h {
        for x in 0..w {
            let (gx, gy) = tiled.get(x, y).expect("every tile was asked for");
            assert_eq!(
                (gx.to_bits(), gy.to_bits()),
                (scalar.gx(x, y).to_bits(), scalar.gy(x, y).to_bits()),
                "scharr diverged from scalar at ({x},{y}) of {w}x{h}"
            );
        }
    }
}

#[test]
fn scharr_tiles_match_scalar_bits_on_adversarial_shapes() {
    for &(w, h) in SHAPES {
        for img in images_for(w, h) {
            let mut scalar = GradientField::empty();
            scharr_gradients_into_scalar(&img, &mut scalar);
            assert_tiles_match(&img, &mut TiledGradients::new(), &scalar);
        }
    }
}

#[test]
fn stale_buffers_do_not_leak_into_kernel_output() {
    // Mirror lk_parity's rebuilt-pyramid test: fill every buffer with a
    // different frame, then demand byte parity with fresh-buffer
    // scalar runs. A rebuild keeps its buffers un-zeroed, so this proves
    // every kernel overwrites its full output.
    let stale = textured(96, 80, 4.2);
    let mut pyr = Pyramid::build(&stale, 3);
    pyr.ensure_gradients(0, &[PixelRect::new(0, 0, 96, 80)]);
    let img = noisy(77, 41, 0xdead_beef);
    pyr.rebuild(&img);
    let mut scalar = GrayImage::new(38, 20);
    blur_downsample_into_scalar(&img, &mut scalar);
    assert_eq!(
        pyr.level(1).as_bytes(),
        scalar.as_bytes(),
        "blur + downsample leaked stale bytes"
    );

    // A field of the same size keeps its tile grid, so only `clear` stands
    // between the stale gradients and the reads.
    let same_size = textured(77, 41, 4.2);
    let mut tiled = TiledGradients::new();
    tiled.ensure(&same_size, &[PixelRect::new(0, 0, 77, 41)]);
    tiled.clear();
    let mut scalar_field = GradientField::empty();
    scharr_gradients_into_scalar(&img, &mut scalar_field);
    assert_tiles_match(&img, &mut tiled, &scalar_field);
}
