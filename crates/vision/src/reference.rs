//! Plain-loop oracles for the optimized kernels.
//!
//! Each function here is the straightforward, pre-optimization form of a
//! production kernel: per-pixel loops and wide integer accumulators for
//! blur, downsampling and Scharr gradients, the whole-frame masked
//! Shi-Tomasi scan with a full sort, and Lucas-Kanade that differentiates
//! every level whole and resamples the previous-frame window on every
//! Newton step. The production kernels reorder work but never arithmetic,
//! so each one must reproduce its oracle bit for bit. The parity tests,
//! `tile_parity`, `simd_parity` and `lk_parity`, and the `kernels_bench`
//! binary check exactly that.
//!
//! No pipeline runs this code, and no production module imports it.

use crate::features::{Corner, GoodFeaturesParams};
use crate::flow::{FlowResult, PyramidalLk};
use crate::geometry::{BoundingBox, Point2, Vec2};
use crate::gradient::GradientField;
use crate::image::GrayImage;
use crate::perf;
use crate::pyramid::Pyramid;

/// The 5-tap binomial blur `[1 4 6 4 1] / 16` of the whole image, in two
/// separable passes with `u32` accumulators and plain per-pixel loops: the
/// blur half of [`blur_downsample_into_scalar`].
///
/// # Panics
///
/// Panics if `out` dimensions differ from `img`.
// adavp-lint: allow(cast-truncation, item=gaussian_blur_into_scalar, bound=255) — u8 pixels widen to u32; acc <= 4080 so acc/16 <= 255 fits both the u16 staging row and the final u8 store
pub fn gaussian_blur_into_scalar(img: &GrayImage, out: &mut GrayImage) {
    assert!(
        out.width() == img.width() && out.height() == img.height(),
        "blur output must match input dimensions"
    );
    perf::record(|c| c.gaussian_blurs += 1);
    const K: [u32; 5] = [1, 4, 6, 4, 1];
    let w = img.width() as usize;
    let h = img.height() as usize;
    let data = img.as_bytes();

    // Horizontal pass into a u16 plane (max 255 * 16 = 4080 < 65535).
    let mut tmp: Vec<u16> = perf::alloc(w * h);
    for y in 0..h {
        let src = &data[y * w..(y + 1) * w];
        let dst = &mut tmp[y * w..(y + 1) * w];
        if w >= 5 {
            // Borders (2 pixels each side) with clamped addressing.
            for x in [0usize, 1, w - 2, w - 1] {
                let mut acc = 0u32;
                for (k, &kv) in K.iter().enumerate() {
                    let sx = (x as i64 + k as i64 - 2).clamp(0, w as i64 - 1) as usize;
                    acc += kv * src[sx] as u32;
                }
                dst[x] = (acc / 16) as u16;
            }
            // Interior on raw slices.
            for x in 2..w - 2 {
                let acc = src[x - 2] as u32
                    + 4 * src[x - 1] as u32
                    + 6 * src[x] as u32
                    + 4 * src[x + 1] as u32
                    + src[x + 2] as u32;
                dst[x] = (acc / 16) as u16;
            }
        } else {
            for (x, d) in dst.iter_mut().enumerate() {
                let mut acc = 0u32;
                for (k, &kv) in K.iter().enumerate() {
                    let sx = (x as i64 + k as i64 - 2).clamp(0, w as i64 - 1) as usize;
                    acc += kv * src[sx] as u32;
                }
                *d = (acc / 16) as u16;
            }
        }
    }

    // Vertical pass over row slices of the intermediate plane.
    let row = |y: i64| -> &[u16] {
        let cy = y.clamp(0, h as i64 - 1) as usize;
        &tmp[cy * w..(cy + 1) * w]
    };
    for y in 0..h {
        let yy = y as i64;
        let (r0, r1, r2, r3, r4) = (row(yy - 2), row(yy - 1), row(yy), row(yy + 1), row(yy + 2));
        let dst = &mut out.as_mut_bytes()[y * w..(y + 1) * w];
        for (x, d) in dst.iter_mut().enumerate() {
            let acc = r0[x] as u32
                + 4 * r1[x] as u32
                + 6 * r2[x] as u32
                + 4 * r3[x] as u32
                + r4[x] as u32;
            *d = (acc / 16).min(255) as u8;
        }
    }
}

/// The 2x2 box downsample of the whole image into
/// `(width / 2).max(1) x (height / 2).max(1)`, with per-pixel `u32`
/// arithmetic and replicated borders for 1-pixel-wide or -tall images: the
/// downsample half of [`blur_downsample_into_scalar`].
///
/// # Panics
///
/// Panics if `out` has the wrong dimensions.
// adavp-lint: allow(cast-truncation, item=downsample_into_scalar, bound=255) — four u8 pixels widen to u32 (sum <= 1020); sum/4 <= 255 fits the u8 store
pub fn downsample_into_scalar(img: &GrayImage, out: &mut GrayImage) {
    let (width, height) = (img.width(), img.height());
    let nw = (width / 2).max(1);
    let nh = (height / 2).max(1);
    assert!(
        out.width() == nw && out.height() == nh,
        "downsample output must be {nw}x{nh}"
    );
    perf::record(|c| c.downsamples += 1);
    if width >= 2 && height >= 2 {
        let w = width as usize;
        let data = img.as_bytes();
        for y in 0..nh as usize {
            let r0 = &data[2 * y * w..2 * y * w + w];
            let r1 = &data[(2 * y + 1) * w..(2 * y + 1) * w + w];
            let dst = &mut out.as_mut_bytes()[y * nw as usize..(y + 1) * nw as usize];
            for (x, d) in dst.iter_mut().enumerate() {
                let sum = r0[2 * x] as u32
                    + r0[2 * x + 1] as u32
                    + r1[2 * x] as u32
                    + r1[2 * x + 1] as u32;
                *d = (sum / 4) as u8;
            }
        }
    } else {
        for y in 0..nh {
            for x in 0..nw {
                let sx = (x * 2).min(width - 1);
                let sy = (y * 2).min(height - 1);
                let sx1 = (sx + 1).min(width - 1);
                let sy1 = (sy + 1).min(height - 1);
                let sum = img.get(sx, sy) as u32
                    + img.get(sx1, sy) as u32
                    + img.get(sx, sy1) as u32
                    + img.get(sx1, sy1) as u32;
                out.set(x, y, (sum / 4) as u8);
            }
        }
    }
}

/// [`crate::pyramid::blur_downsample_into`] as its two oracles composed:
/// [`gaussian_blur_into_scalar`] into a whole blurred image, then
/// [`downsample_into_scalar`]. Produces identical bytes.
///
/// # Panics
///
/// Panics if `out` has the wrong dimensions.
pub fn blur_downsample_into_scalar(img: &GrayImage, out: &mut GrayImage) {
    let mut blurred = GrayImage::new(0, 0);
    blurred.reshape(img.width(), img.height());
    gaussian_blur_into_scalar(img, &mut blurred);
    downsample_into_scalar(&blurred, out);
}

/// Scharr derivatives of the whole of `img` (normalized by 1/32, replicate
/// borders), computed by [`scharr_gradients_into_scalar`] into a fresh
/// field.
pub fn scharr_gradients(img: &GrayImage) -> GradientField {
    let mut field = GradientField::empty();
    scharr_gradients_into_scalar(img, &mut field);
    field
}

/// Two-pass separable Scharr over the whole image, with plain per-pixel
/// loops and full smoothing planes: the oracle for the tiles of
/// [`crate::gradient::TiledGradients`]. Counted in
/// [`perf::KernelCounters::gradient_fields`].
// adavp-lint: allow(cast-truncation, item=scharr_gradients_into_scalar, bound=4080) — same fixed-point bounds as the vectorized path: smoothing acc <= 16*255 = 4080, differences in [-4080, 4080]
pub fn scharr_gradients_into_scalar(img: &GrayImage, field: &mut GradientField) {
    let _timer = perf::ScopedTimer::new(|c| &mut c.gradient_ns);
    perf::record(|c| c.gradient_fields += 1);
    let w = img.width() as usize;
    let h = img.height() as usize;
    let len = w * h;
    field.width = img.width();
    field.height = img.height();
    field.gx.clear();
    field.gx.resize(len, 0.0);
    field.gy.clear();
    field.gy.resize(len, 0.0);

    let mut vsmooth: Vec<u16> = perf::alloc(len);
    let mut hsmooth: Vec<u16> = perf::alloc(len);
    let data = img.as_bytes();
    for y in 0..h {
        let up = &data[y.saturating_sub(1) * w..y.saturating_sub(1) * w + w];
        let mid = &data[y * w..y * w + w];
        let dn_y = (y + 1).min(h - 1);
        let dn = &data[dn_y * w..dn_y * w + w];
        let vrow = &mut vsmooth[y * w..(y + 1) * w];
        for x in 0..w {
            vrow[x] = 3 * up[x] as u16 + 10 * mid[x] as u16 + 3 * dn[x] as u16;
        }
        let hrow = &mut hsmooth[y * w..(y + 1) * w];
        hrow[0] = 13 * mid[0] as u16 + 3 * mid[1.min(w - 1)] as u16;
        for x in 1..w.saturating_sub(1) {
            hrow[x] = 3 * mid[x - 1] as u16 + 10 * mid[x] as u16 + 3 * mid[x + 1] as u16;
        }
        if w > 1 {
            hrow[w - 1] = 3 * mid[w - 2] as u16 + 13 * mid[w - 1] as u16;
        }
    }

    const NORM: f32 = 1.0 / 32.0;
    for y in 0..h {
        let vrow = &vsmooth[y * w..(y + 1) * w];
        let gxr = &mut field.gx[y * w..(y + 1) * w];
        if w >= 2 {
            gxr[0] = (vrow[1] as i32 - vrow[0] as i32) as f32 * NORM;
            for x in 1..w - 1 {
                gxr[x] = (vrow[x + 1] as i32 - vrow[x - 1] as i32) as f32 * NORM;
            }
            gxr[w - 1] = (vrow[w - 1] as i32 - vrow[w - 2] as i32) as f32 * NORM;
        } else {
            gxr[0] = 0.0;
        }

        let up = &hsmooth[y.saturating_sub(1) * w..y.saturating_sub(1) * w + w];
        let dn_y = (y + 1).min(h - 1);
        let dn = &hsmooth[dn_y * w..dn_y * w + w];
        let gyr = &mut field.gy[y * w..(y + 1) * w];
        for x in 0..w {
            gyr[x] = (dn[x] as i32 - up[x] as i32) as f32 * NORM;
        }
    }
}

/// [`PyramidalLk::track_pyramids`] as first written: it differentiates
/// every level of `prev` whole on every call and resamples the
/// previous-frame window on every Newton iteration. Produces bit-identical
/// results.
pub fn track_pyramids_baseline(
    lk: &PyramidalLk,
    prev: &Pyramid,
    next: &Pyramid,
    points: &[Point2],
) -> Vec<FlowResult> {
    let levels = prev.levels().min(next.levels());
    let grads: Vec<_> = (0..levels)
        .map(|l| scharr_gradients(prev.level(l)))
        .collect();
    points
        .iter()
        .map(|&p| track_one_baseline(lk, prev, next, &grads, levels, p))
        .collect()
}

// adavp-lint: allow(cast-truncation, item=track_one_baseline, bound=2147483647) — the window half-width must fit inside one u32-sized pyramid level to pass the border check, the same cast as PyramidalLk::track_one
fn track_one_baseline(
    lk: &PyramidalLk,
    prev: &Pyramid,
    next: &Pyramid,
    grads: &[GradientField],
    levels: usize,
    point: Point2,
) -> FlowResult {
    let params = lk.params();
    let r = params.window_radius as i32;
    let win_pixels = ((2 * r + 1) * (2 * r + 1)) as f32;
    let mut lost = false;

    let mut d = Vec2::ZERO;
    let mut final_residual = f32::MAX;

    for (level, prev_img) in prev.iter_coarse_to_fine() {
        if level >= levels {
            continue;
        }
        let next_img = next.level(level);
        let grad = &grads[level];
        let scale = 1.0 / (1 << level) as f32;
        let pl = Point2::new(point.x * scale, point.y * scale);

        if !prev_img.in_bounds_with_margin(pl.x, pl.y, (r + 1) as f32) {
            if level == 0 {
                lost = true;
            }
            continue;
        }

        let mut gxx = 0.0f32;
        let mut gxy = 0.0f32;
        let mut gyy = 0.0f32;
        for wy in -r..=r {
            for wx in -r..=r {
                let gx = grad.sample_gx(pl.x + wx as f32, pl.y + wy as f32);
                let gy = grad.sample_gy(pl.x + wx as f32, pl.y + wy as f32);
                gxx += gx * gx;
                gxy += gx * gy;
                gyy += gy * gy;
            }
        }
        let trace_half = (gxx + gyy) / 2.0;
        let det_term = (((gxx - gyy) / 2.0).powi(2) + gxy * gxy).sqrt();
        let min_eig = (trace_half - det_term) / win_pixels;
        if min_eig < params.min_eigen_threshold {
            lost = true;
            break;
        }
        let det = gxx * gyy - gxy * gxy;
        if det.abs() < 1e-12 {
            lost = true;
            break;
        }

        for _ in 0..params.max_iterations {
            let target = pl + d;
            if !next_img.in_bounds_with_margin(target.x, target.y, (r + 1) as f32) {
                lost = true;
                break;
            }
            let mut bx = 0.0f32;
            let mut by = 0.0f32;
            for wy in -r..=r {
                for wx in -r..=r {
                    let px = pl.x + wx as f32;
                    let py = pl.y + wy as f32;
                    let diff = prev_img.sample(px, py) - next_img.sample(px + d.x, py + d.y);
                    bx += diff * grad.sample_gx(px, py);
                    by += diff * grad.sample_gy(px, py);
                }
            }
            let step = Vec2::new((gyy * bx - gxy * by) / det, (gxx * by - gxy * bx) / det);
            d += step;
            if step.norm() < params.epsilon {
                break;
            }
        }
        if lost {
            break;
        }

        if level == 0 {
            let target = pl + d;
            if !next
                .level(0)
                .in_bounds_with_margin(target.x, target.y, (r + 1) as f32)
            {
                lost = true;
            } else {
                let mut res = 0.0f32;
                for wy in -r..=r {
                    for wx in -r..=r {
                        let px = pl.x + wx as f32;
                        let py = pl.y + wy as f32;
                        res += (prev_img.sample(px, py) - next.level(0).sample(px + d.x, py + d.y))
                            .abs();
                    }
                }
                final_residual = res / win_pixels;
                if final_residual > params.max_residual {
                    lost = true;
                }
            }
        } else {
            d = d * 2.0;
        }
    }

    let current = point + d;
    FlowResult {
        previous: point,
        current,
        found: !lost && final_residual <= params.max_residual,
        residual: if final_residual == f32::MAX {
            0.0
        } else {
            final_residual
        },
    }
}

/// [`crate::features::good_features_in_boxes`] as a whole-frame scan over a
/// precomputed field: per-pixel indexed gradient accessors, an optional
/// mask tested per pixel, a full sort and a whole-frame suppression grid.
/// With `Some(boxes)` it produces identical corners to
/// `good_features_in_boxes` with `boxes`; with `None` it scans every pixel.
// adavp-lint: allow(cast-truncation, item=good_features_from_gradients_reference, bound=4294967295) — window taps are pixel coordinates inside the u32-sized gradient field
pub fn good_features_from_gradients_reference(
    grad: &GradientField,
    params: &GoodFeaturesParams,
    mask: Option<&[BoundingBox]>,
) -> Vec<Corner> {
    let _timer = perf::ScopedTimer::new(|c| &mut c.corner_ns);
    perf::record(|c| c.corner_scans += 1);
    let w = grad.width();
    let h = grad.height();
    if w < 3 || h < 3 {
        return Vec::new();
    }
    let r = params.block_radius as i64;
    let margin = params.block_radius + 1;

    let inside_mask = |x: u32, y: u32| -> bool {
        match mask {
            None => true,
            Some(boxes) => {
                let p = Point2::new(x as f32, y as f32);
                boxes.iter().any(|b| b.contains(p))
            }
        }
    };

    let mut responses: Vec<(f32, u32, u32)> = Vec::new();
    for y in margin..h.saturating_sub(margin) {
        for x in margin..w.saturating_sub(margin) {
            if !inside_mask(x, y) {
                continue;
            }
            let mut sxx = 0.0f32;
            let mut sxy = 0.0f32;
            let mut syy = 0.0f32;
            for dy in -r..=r {
                for dx in -r..=r {
                    let gx = grad.gx((x as i64 + dx) as u32, (y as i64 + dy) as u32);
                    let gy = grad.gy((x as i64 + dx) as u32, (y as i64 + dy) as u32);
                    sxx += gx * gx;
                    sxy += gx * gy;
                    syy += gy * gy;
                }
            }
            let trace_half = (sxx + syy) / 2.0;
            let det_term = ((sxx - syy) / 2.0).powi(2) + sxy * sxy;
            let min_eig = trace_half - det_term.sqrt();
            if min_eig > 0.0 {
                responses.push((min_eig, x, y));
            }
        }
    }
    if responses.is_empty() {
        return Vec::new();
    }
    let max_response = responses
        .iter()
        .fold(0.0f32, |acc, &(resp, _, _)| acc.max(resp));

    let threshold = max_response * params.quality_level;
    responses.retain(|&(resp, _, _)| resp >= threshold);
    responses.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.2, a.1).cmp(&(b.2, b.1)))
    });

    let cell = params.min_distance.max(1.0);
    let grid_w = (w as f32 / cell).ceil() as usize + 1;
    let grid_h = (h as f32 / cell).ceil() as usize + 1;
    let mut grid: Vec<Vec<Point2>> = vec![Vec::new(); grid_w * grid_h];
    let min_d2 = params.min_distance * params.min_distance;

    let mut out = Vec::new();
    for (resp, x, y) in responses {
        let p = Point2::new(x as f32, y as f32);
        let cx = (p.x / cell) as usize;
        let cy = (p.y / cell) as usize;
        let mut ok = true;
        'outer: for ny in cy.saturating_sub(1)..=(cy + 1).min(grid_h - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(grid_w - 1) {
                for q in &grid[ny * grid_w + nx] {
                    if p.distance_sq(*q) < min_d2 {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if ok {
            grid[cy * grid_w + cx].push(p);
            out.push(Corner {
                point: p,
                response: resp,
            });
            if params.max_corners != 0 && out.len() >= params.max_corners {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::good_features_in_boxes;
    use crate::geometry::PixelRect;
    use crate::pyramid::blur_downsample_into;

    fn pattern(w: u32, h: u32, a: u32, b: u32, c: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            (x.wrapping_mul(a) ^ y.wrapping_mul(b)).wrapping_add(c * x) as u8
        })
    }

    #[test]
    fn streamed_level_matches_composed_oracles() {
        // The blur oracle's shapes, then the downsample oracle's.
        let shapes = [(10u32, 10u32), (5, 5), (4, 7), (3, 3), (1, 6), (31, 9)]
            .into_iter()
            .map(|s| (s, (89, 53, 13)))
            .chain(
                [(8, 6), (9, 7), (2, 2), (1, 5), (5, 1), (33, 17)]
                    .into_iter()
                    .map(|s| (s, (67, 29, 1))),
            );
        for ((w, h), (a, b, c)) in shapes {
            let img = pattern(w, h, a, b, c);
            let (nw, nh) = ((w / 2).max(1), (h / 2).max(1));
            let mut fast = GrayImage::new(nw, nh);
            blur_downsample_into(&img, &mut fast);
            let mut scalar = GrayImage::new(nw, nh);
            blur_downsample_into_scalar(&img, &mut scalar);
            assert_eq!(fast, scalar, "level bytes diverged at {w}x{h}");
        }
        // Saturating content survives both u16 stages.
        let max = GrayImage::from_fn(9, 9, |_, _| 255);
        let mut fast = GrayImage::new(4, 4);
        blur_downsample_into(&max, &mut fast);
        assert!(fast.as_bytes().iter().all(|&v| v == 255));
    }

    #[test]
    fn downsample_oracle_averages_each_2x2_block() {
        let img = GrayImage::from_fn(2, 2, |x, y| ((x + y * 2) * 40) as u8);
        let mut out = GrayImage::new(1, 1);
        downsample_into_scalar(&img, &mut out);
        assert_eq!(out.get(0, 0), ((40 + 80 + 120) / 4) as u8);
    }

    #[test]
    fn masked_scan_matches_reference_bit_for_bit() {
        let img = GrayImage::from_fn(64, 48, |x, y| {
            ((x.wrapping_mul(113) ^ y.wrapping_mul(59)).wrapping_add(x * y / 3)) as u8
        });
        let stale = GrayImage::from_fn(64, 48, |x, y| {
            ((x.wrapping_mul(37) ^ y.wrapping_mul(71)).wrapping_add(x + y)) as u8
        });
        let grad = scharr_gradients(&img);
        let masks: [&[BoundingBox]; 7] = [
            &[BoundingBox::new(4.0, 4.0, 30.0, 20.0)],
            // Overlapping + fractional-edge boxes exercise span merging
            // and the conservative widening.
            &[
                BoundingBox::new(10.5, 3.25, 20.0, 18.5),
                BoundingBox::new(25.0, 10.0, 30.0, 30.0),
                BoundingBox::new(-5.0, -5.0, 12.0, 100.0),
            ],
            &[],
            // Fractional edges just off integer rows and columns, on both
            // sides of the scan margin.
            &[
                BoundingBox::new(1.999, 0.5, 7.75, 2.125),
                BoundingBox::new(33.0001, 39.9999, 30.999, 8.0001),
            ],
            // Partly and wholly off-frame boxes, one inside another.
            &[
                BoundingBox::new(-20.0, 30.5, 40.25, 40.0),
                BoundingBox::new(60.5, -8.0, 30.0, 20.0),
                BoundingBox::new(100.0, 100.0, 5.0, 5.0),
                BoundingBox::new(-30.0, -30.0, 10.0, 10.0),
            ],
            &[
                BoundingBox::new(12.0, 12.0, 40.0, 30.0),
                BoundingBox::new(20.5, 18.5, 6.0, 6.0),
            ],
            // A box covering the whole frame and more: the unmasked scan.
            &[BoundingBox::new(-1.0, -1.0, 200.0, 200.0)],
        ];
        for radius in [1u32, 2] {
            let params = GoodFeaturesParams {
                max_corners: 0,
                block_radius: radius,
                ..Default::default()
            };
            for boxes in masks {
                let reference = good_features_from_gradients_reference(&grad, &params, Some(boxes));
                // The demand path reads only the tiles it computed; planes
                // holding a stale frame's gradients make any other read
                // show.
                let mut pyr = Pyramid::build(&stale, 1);
                pyr.ensure_gradients(0, &[PixelRect::new(0, 0, 64, 48)]);
                pyr.rebuild(&img);
                let demand = good_features_in_boxes(&mut pyr, &params, boxes);
                assert_eq!(demand, reference, "radius {radius}, mask {boxes:?}");
            }
        }
        // Covering the frame is the same as no mask at all.
        let params = GoodFeaturesParams::default();
        assert_eq!(
            good_features_from_gradients_reference(&grad, &params, None),
            good_features_from_gradients_reference(&grad, &params, Some(masks[6])),
        );
    }

    #[test]
    fn partial_selection_matches_full_sort_reference() {
        // The reference keeps the original full `sort_by`; the production
        // scan ranks candidates through chunked `select_nth_unstable`.
        // Equality across a budget sweep — including budgets smaller than,
        // straddling, and larger than the candidate count, plus the
        // unlimited case — pins the selection rewrite to the full sort bit
        // for bit (ordering, responses, and NMS survivors all included).
        let img = GrayImage::from_fn(96, 80, |x, y| {
            ((x.wrapping_mul(97) ^ y.wrapping_mul(41)).wrapping_add((x + 2) * (y + 3) / 5)) as u8
        });
        let grad = scharr_gradients(&img);
        let two = [
            BoundingBox::new(6.0, 6.0, 40.0, 30.0),
            BoundingBox::new(30.5, 20.25, 50.0, 50.0),
        ];
        let whole = [BoundingBox::new(0.0, 0.0, 96.0, 80.0)];
        let mut pyr = Pyramid::build(&img, 1);
        for max_corners in [0usize, 1, 3, 7, 33, 100, 500, 10_000] {
            let params = GoodFeaturesParams {
                max_corners,
                quality_level: 0.01,
                ..Default::default()
            };
            for boxes in [&two[..], &whole[..]] {
                let fast = good_features_in_boxes(&mut pyr, &params, boxes);
                let reference = good_features_from_gradients_reference(&grad, &params, Some(boxes));
                assert_eq!(fast, reference, "diverged at max_corners {max_corners}");
            }
        }
    }
}
