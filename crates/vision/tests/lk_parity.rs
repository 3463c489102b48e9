//! Cross-path parity for pyramidal Lucas-Kanade: the optimized tracker and
//! the retained reference baseline must produce bit-identical
//! `FlowResult`s — the optimizations reorder work, never arithmetic.

use adavp_vision::flow::{LkParams, PyramidalLk};
use adavp_vision::geometry::Point2;
use adavp_vision::image::GrayImage;
use adavp_vision::pyramid::Pyramid;
use adavp_vision::reference::track_pyramids_baseline;
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
    // A point set the size of a busy frame's.
    let pts = grid(160, 120, 8, 12);
    assert!(pts.len() >= 64);

    for (dx, dy) in [(0, 0), (2, -1), (-3, 2), (4, 4), (-1, -4)] {
        let next = shifted(&prev, dx, dy);
        let next_pyr = Pyramid::build(&next, 3);

        let baseline = track_pyramids_baseline(&lk, &prev_pyr, &next_pyr, &pts);
        // A fresh reference pyramid, so the tracker computes its own
        // gradient tiles.
        let optimized = lk.track_pyramids(
            &mut Pyramid::build(&prev, 3),
            &next_pyr,
            &pts,
            &mut ScratchPool::new(),
        );
        assert_eq!(
            baseline, optimized,
            "optimized LK diverged from baseline at shift ({dx},{dy})"
        );
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

/// `FlowResult`s as raw bits, so a NaN read from a poisoned plane cannot
/// compare equal by accident.
fn flow_bits(results: &[adavp_vision::flow::FlowResult]) -> Vec<[u32; 5]> {
    results
        .iter()
        .map(|r| {
            [
                r.previous.x.to_bits(),
                r.previous.y.to_bits(),
                r.current.x.to_bits(),
                r.current.y.to_bits(),
                r.residual.to_bits() ^ u32::from(r.found) << 31,
            ]
        })
        .collect()
}

/// Window rows are sampled in whole 8-lane vectors (a side of 3, 7, 9, 15
/// or 17 taps reads 8, 8, 16, 16 or 24 columns) and the extra lanes are
/// thrown away. Points up to a few columns inside the right and bottom
/// border margins of every level make the padded run leave the image, so
/// those rows take the per-tap path; both paths must reproduce the
/// baseline over NaN-poisoned pooled gradient planes.
#[test]
fn padded_window_lanes_match_baseline_for_every_radius_near_borders() {
    let (w, h, levels) = (97u32, 75u32, 3u32);
    let prev = textured(w, h, 2.3);
    for radius in [1u32, 3, 4, 7, 8] {
        let lk = PyramidalLk::new(LkParams {
            window_radius: radius,
            pyramid_levels: levels,
            ..LkParams::default()
        });
        let side = 2 * radius + 1;
        let pad = side.next_multiple_of(8) - side;
        let prev_pyr = Pyramid::build(&prev, levels);
        let mut pts = Vec::new();
        for level in 0..prev_pyr.levels() {
            let s = (1u32 << level) as f32;
            let im = prev_pyr.level(level);
            let (lw, lh) = (im.width() as f32, im.height() as f32);
            // The last centre inside the margin is just below `l - r - 1`.
            let (edge_x, edge_y) = (lw - radius as f32 - 1.0, lh - radius as f32 - 1.0);
            for k in 0..=pad + 2 {
                for frac in [0.001f32, 0.25, 0.5, 0.999] {
                    let (x, y) = (edge_x - k as f32 - frac, edge_y - k as f32 - frac);
                    pts.push(Point2::new(x * s, lh / 2.0 * s));
                    pts.push(Point2::new(lw / 2.0 * s, y * s));
                    pts.push(Point2::new(x * s, y * s));
                }
            }
        }
        for (dx, dy) in [(0, 0), (2, 1), (-1, -2)] {
            let next_pyr = Pyramid::build(&shifted(&prev, dx, dy), levels);
            let baseline = flow_bits(&track_pyramids_baseline(&lk, &prev_pyr, &next_pyr, &pts));
            let mut pool = ScratchPool::new();
            for _ in 0..2 * levels {
                pool.recycle_f32(vec![f32::NAN; (w * h) as usize]);
            }
            let mut fresh = Pyramid::build_with(&prev, levels, &mut pool);
            let optimized = lk.track_pyramids(&mut fresh, &next_pyr, &pts, &mut pool);
            assert_eq!(
                flow_bits(&optimized),
                baseline,
                "radius {radius}, shift ({dx},{dy})"
            );
        }
    }
}
