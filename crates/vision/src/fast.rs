//! FAST corner detection (Features from Accelerated Segment Test).
//!
//! The AdaVP paper evaluates several feature detectors — SIFT, SURF, *good
//! features to track*, FAST, ORB — before settling on Shi-Tomasi (§IV-C).
//! This module provides FAST-N so the tracker can be ablated against the
//! paper's alternative: a pixel is a corner when at least `arc_length`
//! contiguous pixels on a Bresenham circle of radius 3 are all brighter
//! than `p + threshold` or all darker than `p - threshold`; corners are
//! scored by the summed contiguous-arc contrast and thinned with 3x3
//! non-maximum suppression plus the same min-distance grid used by
//! Shi-Tomasi.

use crate::exec::Executor;
use crate::features::Corner;
use crate::geometry::{BoundingBox, Point2};
use crate::image::GrayImage;
use crate::perf;

/// The 16 Bresenham circle offsets (radius 3), clockwise from 12 o'clock.
const CIRCLE: [(i64, i64); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Parameters for [`fast_corners`].
#[derive(Debug, Clone, PartialEq)]
pub struct FastParams {
    /// Intensity contrast threshold `t`.
    pub threshold: u8,
    /// Required contiguous arc length (9 = FAST-9, 12 = FAST-12).
    pub arc_length: usize,
    /// Maximum number of corners returned (strongest first; 0 = unlimited).
    pub max_corners: usize,
    /// Minimum Euclidean distance between returned corners.
    pub min_distance: f32,
}

impl Default for FastParams {
    fn default() -> Self {
        Self {
            threshold: 22,
            arc_length: 9,
            max_corners: 100,
            min_distance: 4.0,
        }
    }
}

/// Classification of a circle pixel relative to the centre.
#[derive(Clone, Copy, PartialEq)]
enum Rel {
    Brighter,
    Darker,
    Similar,
}

fn segment_score(img: &GrayImage, x: i64, y: i64, params: &FastParams) -> Option<f32> {
    let p = img.get_clamped(x, y) as i32;
    let t = params.threshold as i32;
    let mut rel = [Rel::Similar; 16];
    for (i, (dx, dy)) in CIRCLE.iter().enumerate() {
        let v = img.get_clamped(x + dx, y + dy) as i32;
        rel[i] = if v >= p + t {
            Rel::Brighter
        } else if v <= p - t {
            Rel::Darker
        } else {
            Rel::Similar
        };
    }
    // Longest contiguous run (circularly) of Brighter and of Darker.
    for kind in [Rel::Brighter, Rel::Darker] {
        let mut best_run = 0usize;
        let mut run = 0usize;
        // Walk twice around the circle to handle wrap-around runs.
        for i in 0..32 {
            if rel[i % 16] == kind {
                run += 1;
                best_run = best_run.max(run);
                if best_run >= 16 {
                    break;
                }
            } else {
                run = 0;
            }
        }
        if best_run >= params.arc_length {
            // Score: total contrast of all pixels of this kind.
            let mut score = 0.0f32;
            for (i, (dx, dy)) in CIRCLE.iter().enumerate() {
                if rel[i] == kind {
                    let v = img.get_clamped(x + dx, y + dy) as i32;
                    score += ((v - p).abs() - t).max(0) as f32;
                }
            }
            return Some(score);
        }
    }
    None
}

/// Detects FAST corners in `img`, optionally restricted to `mask` boxes.
///
/// Returns corners sorted by descending score after non-maximum suppression
/// and min-distance thinning. The [`Corner::response`] field carries the
/// FAST arc-contrast score (not comparable to Shi-Tomasi responses).
///
/// # Example
///
/// ```
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::fast::{fast_corners, FastParams};
/// let img = GrayImage::from_fn(48, 48, |x, y| if x > 20 && y > 20 { 220 } else { 20 });
/// let corners = fast_corners(&img, &FastParams::default(), None);
/// assert!(corners.iter().any(|c| (c.point.x - 21.0).abs() < 4.0));
/// ```
pub fn fast_corners(
    img: &GrayImage,
    params: &FastParams,
    mask: Option<&[BoundingBox]>,
) -> Vec<Corner> {
    let w = img.width();
    let h = img.height();
    if w < 8 || h < 8 {
        return Vec::new();
    }
    let inside_mask = |x: u32, y: u32| -> bool {
        match mask {
            None => true,
            Some(boxes) => {
                let p = Point2::new(x as f32, y as f32);
                boxes.iter().any(|b| b.contains(p))
            }
        }
    };

    let _timer = perf::ScopedTimer::new(|c| &mut c.corner_ns);
    perf::record(|c| c.corner_scans += 1);

    // Score map for NMS, computed in parallel row bands (each band owns a
    // disjoint row range, stitched back in order: identical to the
    // sequential scan for any band count).
    let y_end = h.saturating_sub(3);
    let scan_rows = y_end.saturating_sub(3) as usize;
    let bands = crate::parallel::scan_bands(scan_rows);
    let ranges = crate::parallel::band_ranges(scan_rows, bands);
    let per_band = Executor::new(bands).map(&ranges, |_, &(s, e)| {
        let mut band = vec![0.0f32; (e - s) * w as usize];
        let mut band_any = false;
        for (bi, y) in (3 + s as u32..3 + e as u32).enumerate() {
            for x in 3..w.saturating_sub(3) {
                if !inside_mask(x, y) {
                    continue;
                }
                if let Some(sc) = segment_score(img, x as i64, y as i64, params) {
                    band[bi * w as usize + x as usize] = sc;
                    band_any = true;
                }
            }
        }
        (band, band_any)
    });
    let mut scores = vec![0.0f32; w as usize * h as usize];
    let mut any = false;
    let mut row = 3usize;
    for (band, band_any) in per_band {
        let rows = band.len() / w as usize;
        scores[row * w as usize..(row + rows) * w as usize].copy_from_slice(&band);
        row += rows;
        any |= band_any;
    }
    if !any {
        return Vec::new();
    }

    // 3x3 non-maximum suppression.
    let mut cands: Vec<(f32, u32, u32)> = Vec::new();
    for y in 3..h.saturating_sub(3) {
        for x in 3..w.saturating_sub(3) {
            let s = scores[(y * w + x) as usize];
            if s <= 0.0 {
                continue;
            }
            let mut is_max = true;
            'nms: for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = (x as i64 + dx) as u32;
                    let ny = (y as i64 + dy) as u32;
                    let ns = scores[(ny * w + nx) as usize];
                    if ns > s || (ns == s && (ny, nx) < (y, x)) {
                        is_max = false;
                        break 'nms;
                    }
                }
            }
            if is_max {
                cands.push((s, x, y));
            }
        }
    }
    cands.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.2, a.1).cmp(&(b.2, b.1)))
    });

    // Min-distance thinning (greedy, strongest first).
    let min_d2 = params.min_distance * params.min_distance;
    let mut out: Vec<Corner> = Vec::new();
    for (score, x, y) in cands {
        let p = Point2::new(x as f32, y as f32);
        if out.iter().all(|c| c.point.distance_sq(p) >= min_d2) {
            out.push(Corner {
                point: p,
                response: score,
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

    fn bright_square(w: u32, h: u32, x0: u32, y0: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| if x >= x0 && y >= y0 { 220 } else { 20 })
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(32, 32, |_, _| 99);
        assert!(fast_corners(&img, &FastParams::default(), None).is_empty());
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = GrayImage::new(4, 4);
        assert!(fast_corners(&img, &FastParams::default(), None).is_empty());
    }

    #[test]
    fn square_corner_detected() {
        let img = bright_square(48, 48, 20, 20);
        let corners = fast_corners(&img, &FastParams::default(), None);
        assert!(!corners.is_empty());
        assert!(
            corners
                .iter()
                .any(|c| (c.point.x - 20.0).abs() <= 3.0 && (c.point.y - 20.0).abs() <= 3.0),
            "corner of the square not found: {corners:?}"
        );
    }

    #[test]
    fn edge_is_not_a_corner() {
        // A straight vertical edge: FAST-9 must reject interior edge pixels
        // (only ~8 contiguous circle pixels differ).
        let img = GrayImage::from_fn(48, 48, |x, _| if x >= 24 { 220 } else { 20 });
        let corners = fast_corners(&img, &FastParams::default(), None);
        for c in &corners {
            assert!(
                c.point.y < 6.0 || c.point.y > 41.0,
                "edge interior flagged as corner at {}",
                c.point
            );
        }
    }

    #[test]
    fn dark_corners_detected_too() {
        // Dark square on bright background (the Darker branch).
        let img = GrayImage::from_fn(48, 48, |x, y| if x >= 20 && y >= 20 { 20 } else { 220 });
        let corners = fast_corners(&img, &FastParams::default(), None);
        assert!(!corners.is_empty());
    }

    #[test]
    fn threshold_filters_low_contrast() {
        let lowc = GrayImage::from_fn(48, 48, |x, y| if x >= 20 && y >= 20 { 130 } else { 120 });
        let strict = FastParams {
            threshold: 30,
            ..Default::default()
        };
        assert!(fast_corners(&lowc, &strict, None).is_empty());
        let loose = FastParams {
            threshold: 4,
            ..Default::default()
        };
        assert!(!fast_corners(&lowc, &loose, None).is_empty());
    }

    #[test]
    fn mask_and_limits_respected() {
        let img = bright_square(64, 64, 30, 30);
        let mask = [BoundingBox::new(0.0, 0.0, 20.0, 20.0)];
        // The square corner is outside the mask: nothing found.
        assert!(fast_corners(&img, &FastParams::default(), Some(&mask)).is_empty());

        let checker = GrayImage::from_fn(64, 64, |x, y| {
            if ((x / 8) + (y / 8)) % 2 == 0 {
                210
            } else {
                40
            }
        });
        let limited = FastParams {
            max_corners: 3,
            ..Default::default()
        };
        let corners = fast_corners(&checker, &limited, None);
        assert!(corners.len() <= 3);
        // Sorted by descending score.
        for w in corners.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn min_distance_enforced() {
        let checker = GrayImage::from_fn(64, 64, |x, y| {
            if ((x / 8) + (y / 8)) % 2 == 0 {
                210
            } else {
                40
            }
        });
        let params = FastParams {
            max_corners: 0,
            min_distance: 9.0,
            ..Default::default()
        };
        let corners = fast_corners(&checker, &params, None);
        for i in 0..corners.len() {
            for j in (i + 1)..corners.len() {
                assert!(corners[i].point.distance(corners[j].point) >= 9.0);
            }
        }
    }
}
