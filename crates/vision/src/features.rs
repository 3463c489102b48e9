//! Shi-Tomasi "good features to track" corner detection.
//!
//! Implements the detector from Shi & Tomasi (1993) that the AdaVP paper uses
//! to pick trackable points inside each detected bounding box: the minimum
//! eigenvalue of the 2x2 structure tensor over a window, thresholded
//! relative to the strongest response, followed by greedy non-maximum
//! suppression with a minimum inter-corner distance — the same contract as
//! OpenCV's `goodFeaturesToTrack`.

use crate::geometry::{BoundingBox, PixelRect, Point2};
use crate::gradient::GradientField;
use crate::perf;
use crate::pyramid::Pyramid;
use crate::scratch::ScratchPool;

/// A detected corner: location plus its Shi-Tomasi response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Pixel location of the corner (integer grid, stored as float so it can
    /// be fed straight into sub-pixel flow tracking).
    pub point: Point2,
    /// Minimum eigenvalue of the structure tensor at this pixel — larger
    /// means a stronger, more trackable corner.
    pub response: f32,
}

/// Parameters for [`good_features_in_boxes`].
#[derive(Debug, Clone, PartialEq)]
pub struct GoodFeaturesParams {
    /// Maximum number of corners to return (strongest first). 0 means no limit.
    pub max_corners: usize,
    /// Corners weaker than `quality_level * strongest_response` are rejected.
    pub quality_level: f32,
    /// Minimum Euclidean distance between returned corners, in pixels.
    pub min_distance: f32,
    /// Half-width of the structure-tensor window (window side = 2*block+1).
    pub block_radius: u32,
}

impl Default for GoodFeaturesParams {
    fn default() -> Self {
        Self {
            max_corners: 100,
            quality_level: 0.05,
            min_distance: 4.0,
            block_radius: 1,
        }
    }
}

/// Detects Shi-Tomasi corners inside `boxes` on the base level of `pyr`.
///
/// Only pixels inside at least one box are considered: the AdaVP tracker
/// passes the detected bounding boxes here, so features are only extracted
/// on objects (§V of the paper). A box covering the frame scans the whole
/// image. Only the gradient tiles the scan reads are computed; they are the
/// pyramid's own, so the Lucas-Kanade steps that track out of this pyramid
/// reuse them. Gradient buffers come from `pool`.
///
/// Returns corners sorted by descending response, after quality filtering
/// and minimum-distance suppression.
///
/// # Example
///
/// ```
/// use adavp_vision::features::{good_features_in_boxes, GoodFeaturesParams};
/// use adavp_vision::geometry::BoundingBox;
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::pyramid::Pyramid;
/// use adavp_vision::scratch::ScratchPool;
/// let img = GrayImage::from_fn(64, 64, |x, y| if x > 30 && y > 30 { 220 } else { 10 });
/// let mut pyr = Pyramid::build(&img, 1);
/// let boxes = [BoundingBox::new(16.0, 16.0, 32.0, 32.0)];
/// let params = GoodFeaturesParams::default();
/// let corners = good_features_in_boxes(&mut pyr, &params, &boxes, &mut ScratchPool::new());
/// // The single corner of the bright square is found.
/// assert!(corners.iter().any(|c| (c.point.x - 30.0).abs() < 3.0 && (c.point.y - 30.0).abs() < 3.0));
/// ```
pub fn good_features_in_boxes(
    pyr: &mut Pyramid,
    params: &GoodFeaturesParams,
    boxes: &[BoundingBox],
    pool: &mut ScratchPool,
) -> Vec<Corner> {
    let r = params.block_radius as i64;
    let rects: Vec<PixelRect> = boxes
        .iter()
        .map(|b| {
            // Candidates lie in the box's scan rows and columns; each reads
            // the gradients `r` pixels around it.
            let (x0, x1) = box_scan_cols(b);
            let (y0, y1) = box_scan_rows(b);
            PixelRect::new(
                x0.saturating_sub(r),
                y0.saturating_sub(r),
                x1.saturating_add(r),
                y1.saturating_add(r),
            )
        })
        .collect();
    pyr.ensure_gradients(0, &rects, pool);
    let Some(grad) = pyr.tiled_gradients().first().map(|g| g.field()) else {
        return Vec::new();
    };

    let _timer = perf::ScopedTimer::new(|c| &mut c.corner_ns);
    perf::record(|c| c.corner_scans += 1);
    let w = grad.width();
    let h = grad.height();
    if w < 3 || h < 3 {
        return Vec::new();
    }
    let margin = params.block_radius + 1;

    let inside_mask = |x: u32, y: u32| -> bool {
        let p = Point2::new(x as f32, y as f32);
        boxes.iter().any(|b| b.contains(p))
    };

    // Min-eigenvalue response map, scanned in parallel row bands (band
    // results concatenate back to exact raster order, so output is
    // independent of the band count). Only the rows the boxes reach are
    // visited, and each row is evaluated as contiguous x-spans, a
    // conservative superset of the masked columns, through
    // [`min_eig_span`]: row slices hoisted once per span, the 3x3 window
    // fully unrolled, responses written to a row buffer and filtered in a
    // second loop. The exact `inside_mask` test still gates every emitted
    // candidate, and the per-pixel accumulation order is that of the
    // per-pixel reference scan, so responses are bit-identical to it.
    let y_end = h.saturating_sub(margin);
    // Never below `margin`: images narrower than two margins have no
    // interior columns, and the span clamps need `margin <= x_end`.
    let x_end = w.saturating_sub(margin).max(margin);
    let (row_lo, row_hi) = mask_rows(boxes, margin, y_end);
    let scan_rows = row_hi.saturating_sub(row_lo) as usize;
    let per_band =
        crate::parallel::map_bands(scan_rows, crate::parallel::scan_bands(scan_rows), |s, e| {
            let mut band: Vec<(f32, u32, u32)> = Vec::new();
            let mut spans: Vec<(u32, u32)> = Vec::new();
            let mut eig: Vec<f32> = Vec::new();
            for y in row_lo + s as u32..row_lo + e as u32 {
                spans.clear();
                mask_row_spans(boxes, y, margin, x_end, &mut spans);
                for &(x0, x1) in &spans {
                    eig.clear();
                    eig.resize(x1.saturating_sub(x0) as usize, 0.0);
                    min_eig_span(grad, r, y, x0, &mut eig);
                    for (x, &min_eig) in (x0..x1).zip(&eig) {
                        if min_eig > 0.0 && inside_mask(x, y) {
                            band.push((min_eig, x, y));
                        }
                    }
                }
            }
            band
        });
    let max_response = per_band
        .iter()
        .flatten()
        .fold(0.0f32, |acc, &(resp, _, _)| acc.max(resp));
    let threshold = max_response * params.quality_level;

    // Greedy min-distance suppression on a coarse grid for O(n) neighbor
    // checks. Only the candidates' cells plus a one-cell ring are ever
    // visited, so the grid covers just those (same cell arithmetic as the
    // whole-frame grid of the reference, offset by its corner).
    let cell = params.min_distance.max(1.0);
    let grid_w = (w as f32 / cell).ceil() as usize + 1;
    let grid_h = (h as f32 / cell).ceil() as usize + 1;
    let cell_of = |x: u32, y: u32| ((x as f32 / cell) as usize, (y as f32 / cell) as usize);
    let (mut gx0, mut gy0, mut gx1, mut gy1) = (usize::MAX, usize::MAX, 0, 0);
    let mut keys: Vec<u128> = Vec::new();
    for &(resp, x, y) in per_band.iter().flatten() {
        if resp >= threshold {
            keys.push(rank_key(resp, x, y));
            let (cx, cy) = cell_of(x, y);
            (gx0, gy0) = (gx0.min(cx), gy0.min(cy));
            (gx1, gy1) = (gx1.max(cx), gy1.max(cy));
        }
    }
    if keys.is_empty() {
        return Vec::new();
    }
    let (gx0, gy0) = (gx0.saturating_sub(1), gy0.saturating_sub(1));
    let local_w = (gx1 + 1).min(grid_w - 1) + 1 - gx0;
    let local_h = (gy1 + 1).min(grid_h - 1) + 1 - gy0;
    let mut grid: Vec<Vec<Point2>> = vec![Vec::new(); local_w * local_h];
    let min_d2 = params.min_distance * params.min_distance;

    let mut out = Vec::new();
    let mut ranked = RankedCandidates::new(keys, params.max_corners);
    while let Some((resp, x, y)) = ranked.next() {
        let p = Point2::new(x as f32, y as f32);
        let (cx, cy) = cell_of(x, y);
        let mut ok = true;
        'outer: for ny in cy.saturating_sub(1)..=(cy + 1).min(grid_h - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(grid_w - 1) {
                for q in &grid[(ny - gy0) * local_w + nx - gx0] {
                    if p.distance_sq(*q) < min_d2 {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if ok {
            grid[(cy - gy0) * local_w + cx - gx0].push(p);
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

/// Packs a candidate into a key whose ascending order is the reference's
/// ranking: strongest response first, ties broken by raster order
/// (`y`, then `x`). Responses are positive and finite (only `> 0`
/// responses become candidates), and for those the bit pattern orders like
/// the value, so the inverted bits sort the strongest first. Keys are
/// unique (one per pixel), so unstable sorting and partitioning reproduce
/// the stable full-sort sequence exactly, and integer comparisons make the
/// selection several times cheaper than comparing floats with tie-breaks.
fn rank_key(resp: f32, x: u32, y: u32) -> u128 {
    (u128::from(!resp.to_bits()) << 64) | (u128::from(y) << 32) | u128::from(x)
}

/// Unpacks a [`rank_key`] into `(response, x, y)`.
fn unrank_key(key: u128) -> (f32, u32, u32) {
    (
        f32::from_bits(!((key >> 64) as u32)),
        key as u32,
        (key >> 32) as u32,
    )
}

/// Yields candidates in exactly the order a full descending sort would,
/// without sorting the whole set: the unsorted tail is partitioned with
/// `select_nth_unstable` in geometrically growing chunks and only each
/// chunk is sorted. Selecting the ~`max_corners` strongest of `n`
/// candidates costs O(n + k log k) instead of the O(n log n) full sort that
/// dominated the Shi-Tomasi profile (ROADMAP item 5), while the emitted
/// sequence — and therefore the NMS result — stays bit-identical because
/// [`rank_key`] is a total order matching the reference's (see its docs).
/// `max_corners == 0` (no limit) consumes every chunk, which degrades
/// gracefully to a full sort in pieces.
struct RankedCandidates {
    items: Vec<u128>,
    sorted_upto: usize,
    cursor: usize,
    chunk: usize,
}

impl RankedCandidates {
    fn new(items: Vec<u128>, max_corners: usize) -> Self {
        // NMS rejects some candidates, so over-provision the first chunk;
        // subsequent chunks double so the worst case stays O(n).
        let chunk = max_corners.max(64).saturating_mul(2);
        Self {
            items,
            sorted_upto: 0,
            cursor: 0,
            chunk,
        }
    }

    fn next(&mut self) -> Option<(f32, u32, u32)> {
        if self.cursor == self.sorted_upto {
            if self.sorted_upto == self.items.len() {
                return None;
            }
            let tail = &mut self.items[self.sorted_upto..];
            let n = self.chunk.min(tail.len());
            if n < tail.len() {
                tail.select_nth_unstable(n - 1);
            }
            tail[..n].sort_unstable();
            self.sorted_upto += n;
            self.chunk = self.chunk.saturating_mul(2);
        }
        let item = self.items[self.cursor];
        self.cursor += 1;
        Some(unrank_key(item))
    }
}

/// Writes the Shi-Tomasi minimum eigenvalue of pixel `x0 + i` of row `y`
/// into `out[i]`, for the whole of `out`.
///
/// The `block_radius == 1` case (the tracker's default) hoists the six
/// gradient row slices once and fully unrolls the 3x3 window; writing into
/// a buffer rather than filtering candidates on the fly lets the compiler
/// vectorize across pixels (square roots included). The `sxx`/`sxy`/`syy`
/// accumulation order matches the reference per-pixel loop statement for
/// statement, and lanes are independent pixels, so responses are
/// bit-identical. Larger radii take a generic path with per-`dy` hoisted
/// rows, same order.
#[inline]
fn min_eig_span(grad: &GradientField, r: i64, y: u32, x0: u32, out: &mut [f32]) {
    let n = out.len();
    if n == 0 {
        return;
    }
    if r == 1 {
        let lo = (x0 - 1) as usize;
        let hi = lo + n + 2;
        let gxa = &grad.gx_row(y - 1)[lo..hi];
        let gya = &grad.gy_row(y - 1)[lo..hi];
        let gxb = &grad.gx_row(y)[lo..hi];
        let gyb = &grad.gy_row(y)[lo..hi];
        let gxc = &grad.gx_row(y + 1)[lo..hi];
        let gyc = &grad.gy_row(y + 1)[lo..hi];
        for (i, o) in out.iter_mut().enumerate() {
            let mut sxx = 0.0f32;
            let mut sxy = 0.0f32;
            let mut syy = 0.0f32;
            macro_rules! tap {
                ($gxr:ident, $gyr:ident, $j:expr) => {{
                    let gx = $gxr[$j];
                    let gy = $gyr[$j];
                    sxx += gx * gx;
                    sxy += gx * gy;
                    syy += gy * gy;
                }};
            }
            tap!(gxa, gya, i);
            tap!(gxa, gya, i + 1);
            tap!(gxa, gya, i + 2);
            tap!(gxb, gyb, i);
            tap!(gxb, gyb, i + 1);
            tap!(gxb, gyb, i + 2);
            tap!(gxc, gyc, i);
            tap!(gxc, gyc, i + 1);
            tap!(gxc, gyc, i + 2);
            // Minimum eigenvalue of [[sxx, sxy], [sxy, syy]].
            let trace_half = (sxx + syy) / 2.0;
            let det_term = ((sxx - syy) / 2.0).powi(2) + sxy * sxy;
            *o = trace_half - det_term.sqrt();
        }
    } else {
        for (x, o) in (x0..).zip(out.iter_mut()) {
            let mut sxx = 0.0f32;
            let mut sxy = 0.0f32;
            let mut syy = 0.0f32;
            for dy in -r..=r {
                let row_y = (y as i64 + dy) as u32;
                let gxr = grad.gx_row(row_y);
                let gyr = grad.gy_row(row_y);
                for dx in -r..=r {
                    let xi = (x as i64 + dx) as usize;
                    let gx = gxr[xi];
                    let gy = gyr[xi];
                    sxx += gx * gx;
                    sxy += gx * gy;
                    syy += gy * gy;
                }
            }
            let trace_half = (sxx + syy) / 2.0;
            let det_term = ((sxx - syy) / 2.0).powi(2) + sxy * sxy;
            *o = trace_half - det_term.sqrt();
        }
    }
}

/// Collects the sorted, disjoint x-spans of row `y` (clamped to
/// `[margin, x_end)`) that could contain a masked pixel: a *conservative
/// superset* of `BoundingBox::contains` coverage, widened by a pixel on
/// each side so floating-point edge rounding can never exclude a pixel the
/// exact per-pixel test would accept. Callers re-check every candidate
/// with the exact test, so the widening only costs a few evaluations.
fn mask_row_spans(
    boxes: &[BoundingBox],
    y: u32,
    margin: u32,
    x_end: u32,
    out: &mut Vec<(u32, u32)>,
) {
    let yf = y as f32;
    for b in boxes {
        // Written so a NaN edge skips the box (it contains no pixel).
        if !(yf + 1.0 >= b.top && yf - 1.0 < b.top + b.height) {
            continue;
        }
        let (lo, hi) = box_scan_cols(b);
        let lo = lo.clamp(margin as i64, x_end as i64);
        let hi = hi.clamp(margin as i64, x_end as i64);
        if lo < hi {
            out.push((lo as u32, hi as u32));
        }
    }
    out.sort_unstable();
    // Merge overlapping/adjacent spans so each pixel is scanned once and
    // emission order stays strictly increasing in x.
    let mut merged: usize = 0;
    for i in 1..out.len() {
        if out[i].0 <= out[merged].1 {
            out[merged].1 = out[merged].1.max(out[i].1);
        } else {
            merged += 1;
            out[merged] = out[i];
        }
    }
    out.truncate(if out.is_empty() { 0 } else { merged + 1 });
}

/// Columns `[lo, hi)` that [`mask_row_spans`] scans for box `b` (before
/// clamping to the scan margin): the box widened by a pixel on each side.
fn box_scan_cols(b: &BoundingBox) -> (i64, i64) {
    (
        (b.left - 1.0).floor().max(0.0) as i64,
        ((b.left + b.width + 2.0).ceil()).max(0.0) as i64,
    )
}

/// Rows `[lo, hi)` holding every row `y` whose [`mask_row_spans`] test
/// (`y + 1 >= top && y - 1 < top + height`) passes for box `b`: those
/// rows satisfy `ceil(top) - 1 <= y <= ceil(top + height)`, and `lo`
/// starts from `floor(top)`, which is never above `ceil(top)`.
fn box_scan_rows(b: &BoundingBox) -> (i64, i64) {
    (
        (b.top.floor() as i64).saturating_sub(1),
        ((b.top + b.height).ceil() as i64).saturating_add(1),
    )
}

/// The rows `[lo, hi)` within `[margin, y_end)` that any box of the mask
/// reaches (empty for an empty mask).
fn mask_rows(boxes: &[BoundingBox], margin: u32, y_end: u32) -> (u32, u32) {
    let (lo, hi) = boxes
        .iter()
        .map(box_scan_rows)
        .fold((i64::MAX, i64::MIN), |(lo, hi), (a, b)| {
            (lo.min(a), hi.max(b))
        });
    let (margin, y_end) = (margin as i64, y_end.max(margin) as i64);
    let (lo, hi) = (lo.clamp(margin, y_end), hi.clamp(margin, y_end));
    (lo as u32, hi.max(lo) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;

    fn checker(w: u32, h: u32, cell: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            if ((x / cell) + (y / cell)).is_multiple_of(2) {
                220
            } else {
                30
            }
        })
    }

    fn detect_in(
        img: &GrayImage,
        params: &GoodFeaturesParams,
        boxes: &[BoundingBox],
    ) -> Vec<Corner> {
        let mut pyr = Pyramid::build(img, 1);
        good_features_in_boxes(&mut pyr, params, boxes, &mut ScratchPool::new())
    }

    /// Corners anywhere in `img`: one box covering the frame.
    fn detect(img: &GrayImage, params: &GoodFeaturesParams) -> Vec<Corner> {
        let frame = BoundingBox::new(0.0, 0.0, img.width() as f32, img.height() as f32);
        detect_in(img, params, &[frame])
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(32, 32, |_, _| 120);
        assert!(detect(&img, &GoodFeaturesParams::default()).is_empty());
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = GrayImage::new(2, 2);
        assert!(detect(&img, &GoodFeaturesParams::default()).is_empty());
    }

    #[test]
    fn checkerboard_yields_many_corners() {
        let img = checker(64, 64, 8);
        let corners = detect(&img, &GoodFeaturesParams::default());
        assert!(corners.len() >= 20, "got {} corners", corners.len());
        // Sorted by descending response.
        for pair in corners.windows(2) {
            assert!(pair[0].response >= pair[1].response);
        }
    }

    #[test]
    fn max_corners_respected() {
        let img = checker(64, 64, 8);
        let params = GoodFeaturesParams {
            max_corners: 5,
            ..Default::default()
        };
        assert_eq!(detect(&img, &params).len(), 5);
    }

    #[test]
    fn min_distance_enforced() {
        let img = checker(64, 64, 8);
        let params = GoodFeaturesParams {
            max_corners: 0,
            min_distance: 7.0,
            ..Default::default()
        };
        let corners = detect(&img, &params);
        for i in 0..corners.len() {
            for j in (i + 1)..corners.len() {
                assert!(
                    corners[i].point.distance(corners[j].point) >= 7.0,
                    "corners {i} and {j} too close"
                );
            }
        }
    }

    #[test]
    fn mask_restricts_detection() {
        let img = checker(64, 64, 8);
        let mask = [BoundingBox::new(0.0, 0.0, 24.0, 24.0)];
        let corners = detect_in(&img, &GoodFeaturesParams::default(), &mask);
        assert!(!corners.is_empty());
        for c in &corners {
            assert!(mask[0].contains(c.point), "corner {} outside mask", c.point);
        }
    }

    #[test]
    fn empty_mask_yields_nothing() {
        let img = checker(64, 64, 8);
        assert!(detect_in(&img, &GoodFeaturesParams::default(), &[]).is_empty());
    }

    #[test]
    fn single_corner_localised() {
        // One bright square corner at (40, 40).
        let img = GrayImage::from_fn(80, 80, |x, y| if x >= 40 && y >= 40 { 200 } else { 20 });
        let corners = detect(&img, &GoodFeaturesParams::default());
        assert!(!corners.is_empty());
        let best = corners[0];
        assert!((best.point.x - 40.0).abs() <= 2.0, "x = {}", best.point.x);
        assert!((best.point.y - 40.0).abs() <= 2.0, "y = {}", best.point.y);
    }

    #[test]
    fn corner_scan_counted() {
        let img = checker(32, 32, 8);
        crate::perf::reset();
        let _ = detect(&img, &GoodFeaturesParams::default());
        let s = crate::perf::snapshot();
        assert_eq!(s.corner_scans, 1);
        assert_eq!(s.gradient_fields, 0, "the frame is differentiated in tiles");
        assert!(s.gradient_tiles > 0);
    }

    #[test]
    fn quality_level_filters_weak_corners() {
        // One strong corner (high contrast) and one weak corner (low contrast).
        let img = GrayImage::from_fn(96, 48, |x, y| {
            if x < 48 {
                if x >= 20 && y >= 20 {
                    255
                } else {
                    0
                }
            } else if x >= 68 && y >= 20 {
                60
            } else {
                50
            }
        });
        let loose = GoodFeaturesParams {
            quality_level: 0.001,
            ..Default::default()
        };
        let strict = GoodFeaturesParams {
            quality_level: 0.5,
            ..Default::default()
        };
        let all = detect(&img, &loose);
        let strong = detect(&img, &strict);
        assert!(all.len() > strong.len());
        // The strict set only contains corners near the strong square.
        for c in &strong {
            assert!(c.point.x < 60.0, "weak corner survived: {}", c.point);
        }
    }
}
