//! Cross-path parity for pyramidal Lucas-Kanade: the optimized sequential
//! path, the band-parallel path, and the retained reference baseline must
//! produce bit-identical `FlowResult`s — the optimizations reorder work,
//! never arithmetic.

use adavp_vision::flow::{LkParams, PyramidalLk};
use adavp_vision::geometry::Point2;
use adavp_vision::image::GrayImage;
use adavp_vision::pyramid::Pyramid;
use adavp_vision::scratch::ScratchPool;

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

fn shifted(img: &GrayImage, dx: i64, dy: i64) -> GrayImage {
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        img.get_clamped(x as i64 - dx, y as i64 - dy)
    })
}

fn grid(w: u32, h: u32, step: u32, margin: u32) -> Vec<Point2> {
    let mut pts = Vec::new();
    let mut y = margin;
    while y < h - margin {
        let mut x = margin;
        while x < w - margin {
            pts.push(Point2::new(x as f32, y as f32));
            x += step;
        }
        y += step;
    }
    pts
}

#[test]
fn all_lk_paths_bit_identical_across_shifts() {
    let lk = PyramidalLk::new(LkParams {
        pyramid_levels: 3,
        ..LkParams::default()
    });
    let prev = textured(160, 120, 0.7);
    let prev_pyr = Pyramid::build(&prev, 3);
    // Each path gets its own reference pyramid, so each computes its own
    // gradient tiles.
    let fresh_prev = || Pyramid::build(&prev, 3);
    // Enough points to clear the parallel-dispatch threshold.
    let pts = grid(160, 120, 8, 12);
    assert!(pts.len() >= 64);

    for (dx, dy) in [(0, 0), (2, -1), (-3, 2), (4, 4), (-1, -4)] {
        let next = shifted(&prev, dx, dy);
        let next_pyr = Pyramid::build(&next, 3);

        let baseline = lk.track_pyramids_baseline(&prev_pyr, &next_pyr, &pts);
        let sequential = lk.track_pyramids_sequential(
            &mut fresh_prev(),
            &next_pyr,
            &pts,
            &mut ScratchPool::new(),
        );
        assert_eq!(
            baseline, sequential,
            "optimized sequential diverged from baseline at shift ({dx},{dy})"
        );

        #[cfg(feature = "parallel")]
        {
            let parallel = lk.track_pyramids_parallel(
                &mut fresh_prev(),
                &next_pyr,
                &pts,
                &mut ScratchPool::new(),
            );
            assert_eq!(
                sequential, parallel,
                "parallel diverged from sequential at shift ({dx},{dy})"
            );
        }

        // The public dispatching entry point agrees with both.
        let auto = lk.track_pyramids(&mut fresh_prev(), &next_pyr, &pts, &mut ScratchPool::new());
        assert_eq!(sequential, auto, "auto dispatch diverged at ({dx},{dy})");
    }
}

#[test]
fn pooled_and_plain_pyramids_track_identically() {
    let lk = PyramidalLk::new(LkParams {
        pyramid_levels: 3,
        ..LkParams::default()
    });
    let prev = textured(128, 96, 1.9);
    let next = shifted(&prev, 2, 1);
    let pts = grid(128, 96, 10, 12);

    let mut plain_prev = Pyramid::build(&prev, 3);
    let plain_next = Pyramid::build(&next, 3);
    let expected = lk.track_pyramids(&mut plain_prev, &plain_next, &pts, &mut ScratchPool::new());

    // Recycled buffers (including previously-dirtied ones) must not leak
    // into results.
    let mut pool = ScratchPool::new();
    let mut warm = Pyramid::build_with(&textured(128, 96, 4.2), 3, &mut pool);
    let _ = lk.track_pyramids(&mut warm, &plain_next, &grid(128, 96, 4, 8), &mut pool);
    warm.recycle(&mut pool);
    let mut pooled_prev = Pyramid::build_with(&prev, 3, &mut pool);
    let pooled_next = Pyramid::build_with(&next, 3, &mut pool);
    assert_eq!(
        expected,
        lk.track_pyramids(&mut pooled_prev, &pooled_next, &pts, &mut pool),
        "pooled pyramids changed LK results"
    );
}
