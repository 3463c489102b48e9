//! Property-based tests for the vision kernels.

use adavp_rng::check;
use adavp_vision::features::{good_features_in_boxes, GoodFeaturesParams};
use adavp_vision::flow::{LkParams, PyramidalLk};
use adavp_vision::geometry::{BoundingBox, PixelRect, Point2};
use adavp_vision::gradient::{GradientField, TiledGradients};
use adavp_vision::image::GrayImage;
use adavp_vision::pyramid::{blur_downsample_into, Pyramid};
use adavp_vision::reference::{
    blur_downsample_into_scalar, scharr_gradients_into_scalar, track_pyramids_baseline,
};
use adavp_vision::scratch::ScratchPool;
use std::f32::consts::TAU;

/// Smooth textured image parameterized by three phases — every instance is
/// LK-trackable but different.
fn textured(w: u32, h: u32, p1: f32, p2: f32, p3: f32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let xf = x as f32;
        let yf = y as f32;
        let v = 128.0
            + 48.0 * (xf * 0.31 + p1).sin() * (yf * 0.23 + p2).cos()
            + 36.0 * ((xf * 0.11 + yf * 0.19 + p3).sin())
            + 18.0 * ((xf * 0.05).cos() * (yf * 0.37).sin());
        v.clamp(0.0, 255.0) as u8
    })
}

#[test]
fn lk_recovers_integer_translation() {
    check(24, 1, |rng| {
        let dx = rng.gen_range(-4i64..=4);
        let dy = rng.gen_range(-4i64..=4);
        let p1 = rng.gen_range(0.0f32..TAU);
        let p2 = rng.gen_range(0.0f32..TAU);
        let prev = textured(96, 96, p1, p2, 1.0);
        let next = GrayImage::from_fn(96, 96, |x, y| {
            prev.get_clamped(x as i64 - dx, y as i64 - dy)
        });
        let lk = PyramidalLk::new(LkParams {
            pyramid_levels: 4,
            ..LkParams::default()
        });
        let res = lk.track(&prev, &next, &[Point2::new(48.0, 48.0)]);
        assert!(res[0].found, "track lost for d=({dx},{dy})");
        let d = res[0].displacement();
        assert!((d.x - dx as f32).abs() < 0.6, "dx {} vs {}", d.x, dx);
        assert!((d.y - dy as f32).abs() < 0.6, "dy {} vs {}", d.y, dy);
    });
}

#[test]
fn corners_always_inside_image() {
    check(24, 1, |rng| {
        let p1 = rng.gen_range(0.0f32..TAU);
        let w = rng.gen_range(24u32..80);
        let h = rng.gen_range(24u32..80);
        let img = textured(w, h, p1, 2.0, 3.0);
        let frame = [BoundingBox::new(0.0, 0.0, w as f32, h as f32)];
        let mut pyr = Pyramid::build(&img, 1);
        let params = GoodFeaturesParams::default();
        for c in good_features_in_boxes(&mut pyr, &params, &frame, &mut ScratchPool::new()) {
            assert!(c.point.x >= 0.0 && c.point.x < w as f32);
            assert!(c.point.y >= 0.0 && c.point.y < h as f32);
            assert!(c.response > 0.0);
        }
    });
}

#[test]
fn pyramid_levels_halve_dimensions() {
    check(24, 1, |rng| {
        let w = rng.gen_range(32u32..200);
        let h = rng.gen_range(32u32..200);
        let img = GrayImage::new(w, h);
        let pyr = Pyramid::build(&img, 5);
        for l in 1..pyr.levels() {
            assert_eq!(pyr.level(l).width(), (pyr.level(l - 1).width() / 2).max(1));
            assert_eq!(
                pyr.level(l).height(),
                (pyr.level(l - 1).height() / 2).max(1)
            );
        }
        // No level smaller than the minimum side.
        let last = pyr.level(pyr.levels() - 1);
        assert!(last.width() >= Pyramid::MIN_SIDE / 2);
    });
}

#[test]
fn pyramid_level_preserves_mean_intensity() {
    check(24, 1, |rng| {
        let p1 = rng.gen_range(0.0f32..TAU);
        let img = textured(64, 64, p1, 1.0, 2.0);
        let mut half = GrayImage::new(32, 32);
        blur_downsample_into(&img, &mut half, &mut ScratchPool::new());
        // Smoothing and box averaging redistribute but do not create or
        // destroy intensity (up to rounding and border effects).
        assert!((img.mean() - half.mean()).abs() < 3.0);
    });
}

#[test]
fn gradients_bounded_by_intensity_range() {
    check(24, 1, |rng| {
        let p1 = rng.gen_range(0.0f32..TAU);
        let img = textured(48, 48, p1, 0.5, 1.5);
        let mut g = TiledGradients::new();
        g.ensure(
            &img,
            &[PixelRect::new(0, 0, 48, 48)],
            &mut ScratchPool::new(),
        );
        for y in 0..48 {
            for x in 0..48 {
                // Normalized Scharr of an 8-bit image can never exceed 255.
                let (gx, gy) = g.get(x, y).expect("every tile was asked for");
                assert!(gx.abs() <= 255.0);
                assert!(gy.abs() <= 255.0);
            }
        }
    });
}

#[test]
fn lk_bit_identical_to_baseline() {
    check(24, 1, |rng| {
        let dx = rng.gen_range(-3i64..=3);
        let dy = rng.gen_range(-3i64..=3);
        let p1 = rng.gen_range(0.0f32..TAU);
        let p2 = rng.gen_range(0.0f32..TAU);
        let prev = textured(128, 96, p1, p2, 2.0);
        let next = GrayImage::from_fn(128, 96, |x, y| {
            prev.get_clamped(x as i64 - dx, y as i64 - dy)
        });
        let lk = PyramidalLk::new(LkParams {
            pyramid_levels: 3,
            ..LkParams::default()
        });
        let prev_pyr = Pyramid::build(&prev, 3);
        let next_pyr = Pyramid::build(&next, 3);
        // 140 points, a busy frame's worth.
        let mut pts = Vec::new();
        for gy in 0..10 {
            for gx in 0..14 {
                pts.push(Point2::new(12.0 + gx as f32 * 8.0, 12.0 + gy as f32 * 8.0));
            }
        }
        let optimized = lk.track_pyramids(
            &mut Pyramid::build(&prev, 3),
            &next_pyr,
            &pts,
            &mut ScratchPool::new(),
        );
        assert_eq!(
            &optimized,
            &track_pyramids_baseline(&lk, &prev_pyr, &next_pyr, &pts),
            "optimized path diverged from the reference baseline"
        );
    });
}

#[test]
fn streamed_level_matches_composed_oracles_on_arbitrary_images() {
    check(48, 1, |rng| {
        let w = rng.gen_range(1u32..70);
        let h = rng.gen_range(1u32..70);
        let seed: u32 = rng.gen();
        // The streamed blur + downsample must reproduce the two scalar
        // oracles composed, byte for byte, on every size, including
        // 1-pixel strips, odd sizes and widths that are not a multiple of
        // any SIMD lane count.
        let mut s = seed | 1;
        let img = GrayImage::from_fn(w, h, |_, _| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s >> 8) as u8
        });
        let (nw, nh) = ((w / 2).max(1), (h / 2).max(1));
        let mut pool = ScratchPool::new();
        let mut fast = GrayImage::new(nw, nh);
        let mut scalar = GrayImage::new(nw, nh);
        blur_downsample_into(&img, &mut fast, &mut pool);
        blur_downsample_into_scalar(&img, &mut scalar, &mut pool);
        assert_eq!(fast.as_bytes(), scalar.as_bytes(), "{w}x{h}");
    });
}

#[test]
fn scharr_fast_path_bit_identical_to_scalar_on_arbitrary_images() {
    check(24, 1, |rng| {
        let w = rng.gen_range(1u32..70);
        let h = rng.gen_range(1u32..70);
        let seed: u32 = rng.gen();
        let mut s = seed | 1;
        let img = GrayImage::from_fn(w, h, |_, _| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s >> 8) as u8
        });
        let mut pool = ScratchPool::new();
        let mut tiled = TiledGradients::new();
        tiled.ensure(&img, &[PixelRect::new(0, 0, w.into(), h.into())], &mut pool);
        let mut scalar = GradientField::empty();
        scharr_gradients_into_scalar(&img, &mut scalar, &mut pool);
        // Bit-level comparison: the fused ring pass reorders work, never
        // arithmetic, so even NaN-free float equality must be exact.
        for y in 0..h {
            for x in 0..w {
                let (gx, gy) = tiled.get(x, y).expect("every tile was asked for");
                assert_eq!(gx.to_bits(), scalar.gx(x, y).to_bits());
                assert_eq!(gy.to_bits(), scalar.gy(x, y).to_bits());
            }
        }
    });
}

#[test]
fn sample_interpolates_within_neighbours() {
    check(24, 1, |rng| {
        let x = rng.gen_range(0.0f32..30.0);
        let y = rng.gen_range(0.0f32..30.0);
        let p1 = rng.gen_range(0.0f32..TAU);
        let img = textured(32, 32, p1, 0.3, 0.9);
        let v = img.sample(x, y);
        let x0 = x.floor() as i64;
        let y0 = y.floor() as i64;
        let mut lo = 255u8;
        let mut hi = 0u8;
        for dy in 0..2 {
            for dx in 0..2 {
                let p = img.get_clamped(x0 + dx, y0 + dy);
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        assert!(v >= lo as f32 - 1e-3 && v <= hi as f32 + 1e-3);
    });
}
