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
/// reuse them.
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
/// let img = GrayImage::from_fn(64, 64, |x, y| if x > 30 && y > 30 { 220 } else { 10 });
/// let mut pyr = Pyramid::build(&img, 1);
/// let boxes = [BoundingBox::new(16.0, 16.0, 32.0, 32.0)];
/// let params = GoodFeaturesParams::default();
/// let corners = good_features_in_boxes(&mut pyr, &params, &boxes);
/// // The single corner of the bright square is found.
/// assert!(corners.iter().any(|c| (c.point.x - 30.0).abs() < 3.0 && (c.point.y - 30.0).abs() < 3.0));
/// ```
pub fn good_features_in_boxes(
    pyr: &mut Pyramid,
    params: &GoodFeaturesParams,
    boxes: &[BoundingBox],
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
    pyr.ensure_gradients(0, &rects);
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

    // Min-eigenvalue response map over the rows the boxes reach.
    let y_end = h.saturating_sub(margin);
    // Never below `margin`: images narrower than two margins have no
    // interior columns, and the span clamps need `margin <= x_end`.
    let x_end = w.saturating_sub(margin).max(margin);
    let rows = mask_rows(boxes, margin, y_end);
    let responses = masked_responses(grad, r, boxes, margin, x_end, rows);
    let max_response = responses
        .iter()
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
    for &(resp, x, y) in &responses {
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
                let cell = grid.get((ny - gy0) * local_w + nx - gx0);
                for q in cell.into_iter().flatten() {
                    if p.distance_sq(*q) < min_d2 {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if ok {
            if let Some(cell) = grid.get_mut((cy - gy0) * local_w + cx - gx0) {
                cell.push(p);
            }
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
            // Empty once every candidate is sorted; `n` is then 0 and the
            // lookup below ends the sequence.
            let tail = self.items.get_mut(self.sorted_upto..)?;
            let n = self.chunk.min(tail.len());
            if n < tail.len() {
                tail.select_nth_unstable(n - 1);
            }
            tail.split_at_mut(n).0.sort_unstable();
            self.sorted_upto += n;
            self.chunk = self.chunk.saturating_mul(2);
        }
        let item = *self.items.get(self.cursor)?;
        self.cursor += 1;
        Some(unrank_key(item))
    }
}

/// Minimum eigenvalue of the structure tensor `[[sxx, sxy], [sxy, syy]]`.
#[inline]
fn min_eig(sxx: f32, sxy: f32, syy: f32) -> f32 {
    let trace_half = (sxx + syy) / 2.0;
    let det_term = ((sxx - syy) / 2.0).powi(2) + sxy * sxy;
    trace_half - det_term.sqrt()
}

/// Writes the Shi-Tomasi minimum eigenvalue of pixel `x0 + i` of row `y`
/// into `out[i]`, for the whole of `out`. The caller keeps every window
/// inside the field (`x0 > r` and `x0 + out.len() + r <= width`).
///
/// The `block_radius == 1` case (the tracker's default) walks the six
/// gradient rows with 3-wide `windows`, one step per pixel, so the
/// compiler sees every tap's offset and vectorizes across pixels (square
/// roots included). Larger radii sum each pixel's window rows one by one.
/// Either way every pixel adds its taps in the reference per-pixel loop's
/// order, row by row, and lanes are independent pixels, so responses are
/// bit-identical.
fn min_eig_span(grad: &GradientField, r: i64, y: u32, x0: u32, out: &mut [f32]) {
    let side = 2 * r as usize + 1;
    let lo = (i64::from(x0) - r) as usize;
    let cols = lo..lo + out.len() + side - 1;
    let row = |dy: i64| {
        let row_y = (i64::from(y) + dy) as u32;
        let gx = grad.gx_row(row_y).get(cols.clone()).unwrap_or_default();
        let gy = grad.gy_row(row_y).get(cols.clone()).unwrap_or_default();
        (gx, gy)
    };
    if r == 1 {
        let ((gxa, gya), (gxb, gyb), (gxc, gyc)) = (row(-1), row(0), row(1));
        let rows = (gxa.windows(3).zip(gya.windows(3)))
            .zip(gxb.windows(3).zip(gyb.windows(3)))
            .zip(gxc.windows(3).zip(gyc.windows(3)));
        for (o, ((a, b), c)) in out.iter_mut().zip(rows) {
            let (mut sxx, mut sxy, mut syy) = (0.0f32, 0.0f32, 0.0f32);
            for (gxs, gys) in [a, b, c] {
                for (&gx, &gy) in gxs.iter().zip(gys) {
                    sxx += gx * gx;
                    sxy += gx * gy;
                    syy += gy * gy;
                }
            }
            *o = min_eig(sxx, sxy, syy);
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            let (mut sxx, mut sxy, mut syy) = (0.0f32, 0.0f32, 0.0f32);
            for (gx_row, gy_row) in (-r..=r).map(row) {
                let gxs = gx_row.get(i..i + side).unwrap_or_default();
                let gys = gy_row.get(i..i + side).unwrap_or_default();
                for (&gx, &gy) in gxs.iter().zip(gys) {
                    sxx += gx * gx;
                    sxy += gx * gy;
                    syy += gy * gy;
                }
            }
            *o = min_eig(sxx, sxy, syy);
        }
    }
}

/// The positive min-eigenvalue responses `(response, x, y)` of the masked
/// pixels in rows `[rows.0, rows.1)`, in raster order. Each row is
/// evaluated as contiguous x-spans within `[margin, x_end)`, a
/// conservative superset of the masked columns, through [`min_eig_span`]
/// into a row buffer, filtered in a second loop. The exact mask test still
/// gates every emitted candidate, and the per-pixel accumulation order is
/// that of the per-pixel reference scan, so responses are bit-identical to
/// it.
fn masked_responses(
    grad: &GradientField,
    r: i64,
    boxes: &[BoundingBox],
    margin: u32,
    x_end: u32,
    (row_lo, row_hi): (u32, u32),
) -> Vec<(f32, u32, u32)> {
    let inside_mask = |x: u32, y: u32| -> bool {
        let p = Point2::new(x as f32, y as f32);
        boxes.iter().any(|b| b.contains(p))
    };
    let mut out: Vec<(f32, u32, u32)> = Vec::new();
    let mut spans: Vec<(u32, u32)> = Vec::new();
    let mut eig: Vec<f32> = Vec::new();
    for y in row_lo..row_hi {
        spans.clear();
        mask_row_spans(boxes, y, margin, x_end, &mut spans);
        for &(x0, x1) in &spans {
            eig.clear();
            eig.resize(x1.saturating_sub(x0) as usize, 0.0);
            min_eig_span(grad, r, y, x0, &mut eig);
            for (x, &min_eig) in (x0..x1).zip(&eig) {
                if min_eig > 0.0 && inside_mask(x, y) {
                    out.push((min_eig, x, y));
                }
            }
        }
    }
    out
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
    out.dedup_by(|next, kept| {
        let overlaps = next.0 <= kept.1;
        if overlaps {
            kept.1 = kept.1.max(next.1);
        }
        overlaps
    });
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
        good_features_in_boxes(&mut pyr, params, boxes)
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
