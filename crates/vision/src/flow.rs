//! Pyramidal Lucas-Kanade sparse optical flow.
//!
//! Implements the iterative Lucas-Kanade method (Lucas & Kanade 1981; Bouguet
//! 2000 pyramidal formulation) used by the AdaVP object tracker to follow
//! Shi-Tomasi features between frames. For each feature the solver:
//!
//! 1. builds Gaussian pyramids of both frames,
//! 2. starting at the coarsest level, solves the 2x2 normal equations
//!    `G d = b` over a window around the feature, iterating Newton steps
//!    until the update is below [`LkParams::epsilon`],
//! 3. propagates the displacement (doubled) to the next finer level.
//!
//! A track is reported lost (`found == false`) when the structure tensor is
//! degenerate (flat/aperture region), when the point leaves the image, or
//! when the final per-pixel residual exceeds [`LkParams::max_residual`].
//!
//! # Hot-path structure
//!
//! [`PyramidalLk::track_pyramids`] first asks the *previous* pyramid for
//! the gradients its windows read ([`Pyramid::ensure_gradients`]): one
//! window rect per point per level. A previous-frame window depends only
//! on `point / 2^level`, never on the displacement estimate, so this
//! happens up front on the calling thread and only those tiles are
//! differentiated — once per pyramid, however many calls track out of it.
//! Each point then samples its window of previous-frame intensities and
//! gradients exactly once per level (they are constant across Newton
//! iterations; only the next-frame window moves). On a host with more
//! than one core, point sets of at least
//! [`PyramidalLk::PARALLEL_MIN_POINTS`] fan out across threads; results are
//! **bit-identical** to the sequential path because each point's computation
//! is independent and results are collected in input order (see
//! [`crate::parallel`] and the `lk_parity` tests).

use crate::geometry::{PixelRect, Point2, Vec2};
use crate::gradient::TiledGradients;
use crate::image::GrayImage;
use crate::perf;
use crate::pyramid::Pyramid;
use crate::scratch::ScratchPool;
use crate::simd;
use std::fmt;

/// Parameters for [`PyramidalLk`].
#[derive(Debug, Clone, PartialEq)]
pub struct LkParams {
    /// Half-width of the tracking window (window side = 2*radius+1 pixels).
    pub window_radius: u32,
    /// Number of pyramid levels (1 = plain single-level LK).
    pub pyramid_levels: u32,
    /// Maximum Newton iterations per pyramid level.
    pub max_iterations: u32,
    /// Stop iterating once the update step is shorter than this (pixels).
    pub epsilon: f32,
    /// Minimum acceptable smaller eigenvalue of the structure tensor,
    /// normalized per window pixel; below this the track is declared lost.
    pub min_eigen_threshold: f32,
    /// Maximum mean absolute intensity residual per window pixel at level 0
    /// for the track to be reported as found.
    pub max_residual: f32,
}

/// Reason a set of [`LkParams`] was rejected by [`LkParams::validated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LkParamsError {
    /// `pyramid_levels` was zero (at least one level is required).
    ZeroPyramidLevels,
    /// `window_radius` was zero (the window would be a single pixel and the
    /// structure tensor always degenerate).
    ZeroWindowRadius,
    /// `max_iterations` was zero (no Newton step could ever run).
    ZeroIterations,
    /// The named threshold field was non-finite or outside its valid range.
    InvalidThreshold(&'static str),
}

impl fmt::Display for LkParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroPyramidLevels => write!(f, "pyramid_levels must be at least 1"),
            Self::ZeroWindowRadius => write!(f, "window_radius must be at least 1"),
            Self::ZeroIterations => write!(f, "max_iterations must be at least 1"),
            Self::InvalidThreshold(field) => {
                write!(f, "{field} must be finite and within its valid range")
            }
        }
    }
}

impl std::error::Error for LkParamsError {}

impl LkParams {
    /// Validates the parameters, returning them unchanged on success.
    ///
    /// Rejects zero `pyramid_levels`, zero `window_radius`, zero
    /// `max_iterations`, and non-finite (or non-positive where positivity
    /// is required) threshold fields.
    ///
    /// # Example
    ///
    /// ```
    /// use adavp_vision::flow::{LkParams, LkParamsError};
    /// assert!(LkParams::default().validated().is_ok());
    /// let bad = LkParams { pyramid_levels: 0, ..Default::default() };
    /// assert_eq!(bad.validated(), Err(LkParamsError::ZeroPyramidLevels));
    /// ```
    pub fn validated(self) -> Result<Self, LkParamsError> {
        if self.pyramid_levels == 0 {
            return Err(LkParamsError::ZeroPyramidLevels);
        }
        if self.window_radius == 0 {
            return Err(LkParamsError::ZeroWindowRadius);
        }
        if self.max_iterations == 0 {
            return Err(LkParamsError::ZeroIterations);
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(LkParamsError::InvalidThreshold("epsilon"));
        }
        if !self.min_eigen_threshold.is_finite() || self.min_eigen_threshold < 0.0 {
            return Err(LkParamsError::InvalidThreshold("min_eigen_threshold"));
        }
        if !self.max_residual.is_finite() || self.max_residual <= 0.0 {
            return Err(LkParamsError::InvalidThreshold("max_residual"));
        }
        Ok(self)
    }
}

impl Default for LkParams {
    fn default() -> Self {
        Self {
            window_radius: 7,
            pyramid_levels: 3,
            max_iterations: 20,
            epsilon: 0.01,
            min_eigen_threshold: 1e-3,
            max_residual: 25.0,
        }
    }
}

/// Result of tracking one feature with [`PyramidalLk::track`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Feature position in the previous frame (as passed in).
    pub previous: Point2,
    /// Estimated position in the next frame.
    pub current: Point2,
    /// Whether the track is considered reliable.
    pub found: bool,
    /// Mean absolute intensity residual per window pixel at the finest level.
    pub residual: f32,
}

impl FlowResult {
    /// Displacement from the previous to the current position.
    pub fn displacement(&self) -> Vec2 {
        self.current - self.previous
    }
}

/// Per-point window state, captured once per pyramid level and reused by
/// every Newton iteration (previous-frame intensities and gradients do not
/// change while the displacement estimate is refined).
///
/// Besides the flat sample buffers, the cache holds the per-column
/// bilinear *tap tables* (`px`/`x0`/`tx` for the fixed previous-frame
/// window, `qx0`/`qtx` for the displaced next-frame window): the window's
/// x-coordinates are the same on every row, so floors and fractions are
/// computed once per level (or once per Newton iteration) instead of once
/// per tap, and whole rows are then filled through the vectorized
/// [`simd::bilinear_span_u8`]/[`simd::bilinear_span_f32`] helpers whenever
/// the integer tap columns form a contiguous in-bounds run
/// ([`simd::contiguous_start`]). Rows where floating-point rounding breaks
/// the run fall back to per-tap sampling — bit-identical, just slower.
#[derive(Default)]
struct WindowCache {
    prev: Vec<f32>,
    gx: Vec<f32>,
    gy: Vec<f32>,
    /// One row of next-frame window samples (scratch for the Newton loop).
    cur: Vec<f32>,
    /// Per-column window x-coordinates: `pl.x + wx`.
    px: Vec<f32>,
    /// Per-column integer tap columns: `px.floor()`.
    x0: Vec<i64>,
    /// Per-column horizontal fractions: `px - px.floor()`.
    tx: Vec<f32>,
    /// Newton-displaced tap columns: `(px + d.x).floor()`.
    qx0: Vec<i64>,
    /// Newton-displaced horizontal fractions.
    qtx: Vec<f32>,
}

impl WindowCache {
    /// Resets the cache for a window of side `side` and precomputes the
    /// per-column tap tables for a window centred at x-coordinate `cx`.
    fn begin_level(&mut self, side: usize, r: i32, cx: f32) {
        let n = side * side;
        self.prev.clear();
        self.prev.reserve(n);
        self.gx.clear();
        self.gx.reserve(n);
        self.gy.clear();
        self.gy.reserve(n);
        self.cur.clear();
        self.cur.resize(side, 0.0);
        self.px.clear();
        self.x0.clear();
        self.tx.clear();
        self.qx0.clear();
        self.qtx.clear();
        for wx in -r..=r {
            // Exactly the per-tap expressions of the baseline: the fraction
            // of `pl.x + wx` is NOT constant across wx (f32 rounding can
            // shift it and even the floor), so each column gets its own
            // floor/fraction rather than a shared one.
            let px = cx + wx as f32;
            let xf = px.floor();
            self.px.push(px);
            self.x0.push(xf as i64);
            self.tx.push(px - xf);
        }
    }

    /// Recomputes the displaced tap tables for displacement `dx`.
    fn displace(&mut self, dx: f32) {
        self.qx0.clear();
        self.qtx.clear();
        for &px in &self.px {
            let qx = px + dx;
            let xf = qx.floor();
            self.qx0.push(xf as i64);
            self.qtx.push(qx - xf);
        }
    }
}

/// Pyramidal Lucas-Kanade tracker (the analogue of OpenCV's
/// `calcOpticalFlowPyrLK`).
///
/// # Example
///
/// ```
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::flow::{PyramidalLk, LkParams};
/// use adavp_vision::geometry::Point2;
///
/// let prev = GrayImage::from_fn(64, 64, |x, y| ((x * 17 + y * 29) % 256) as u8);
/// let next = GrayImage::from_fn(64, 64, |x, y| {
///     prev.get_clamped(x as i64 - 1, y as i64) // shift right by 1px
/// });
/// let lk = PyramidalLk::new(LkParams::default());
/// let res = lk.track(&prev, &next, &[Point2::new(32.0, 32.0)]);
/// assert!(res[0].found);
/// let d = res[0].displacement();
/// assert!((d.x - 1.0).abs() < 0.5 && d.y.abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct PyramidalLk {
    params: LkParams,
}

impl Default for PyramidalLk {
    fn default() -> Self {
        Self::new(LkParams::default())
    }
}

impl PyramidalLk {
    /// Point-set size at which [`PyramidalLk::track_pyramids`] switches to
    /// the parallel path (when more than one core is available).
    pub const PARALLEL_MIN_POINTS: usize = 16;

    /// Creates a tracker with the given parameters.
    pub fn new(params: LkParams) -> Self {
        Self { params }
    }

    /// Creates a tracker after validating `params` (see
    /// [`LkParams::validated`]).
    pub fn try_new(params: LkParams) -> Result<Self, LkParamsError> {
        Ok(Self {
            params: params.validated()?,
        })
    }

    /// The tracker's parameters.
    pub fn params(&self) -> &LkParams {
        &self.params
    }

    /// Tracks `points` from `prev` into `next`.
    ///
    /// Builds pyramids internally; when tracking many point sets between the
    /// same frame pair — or when carrying a frame's pyramid forward as the
    /// next step's reference — prefer [`PyramidalLk::track_pyramids`] to
    /// reuse pyramids and the gradient tiles already computed on them.
    pub fn track(&self, prev: &GrayImage, next: &GrayImage, points: &[Point2]) -> Vec<FlowResult> {
        let mut pool = ScratchPool::new();
        let mut prev_pyr = Pyramid::build_with(prev, self.params.pyramid_levels, &mut pool);
        let next_pyr = Pyramid::build_with(next, self.params.pyramid_levels, &mut pool);
        self.track_pyramids(&mut prev_pyr, &next_pyr, points, &mut pool)
    }

    /// Tracks `points` between two prebuilt pyramids.
    ///
    /// The pyramids must have been built from images of identical size.
    /// Computes the gradient tiles of `prev` that the points' windows read
    /// and are not computed yet (planes and row buffers from `pool`), and
    /// automatically parallelizes across points for sets of at least
    /// [`PyramidalLk::PARALLEL_MIN_POINTS`] when more than one core is
    /// available. The parallel and sequential paths return bit-identical
    /// results.
    pub fn track_pyramids(
        &self,
        prev: &mut Pyramid,
        next: &Pyramid,
        points: &[Point2],
        pool: &mut ScratchPool,
    ) -> Vec<FlowResult> {
        let bands = if points.len() >= Self::PARALLEL_MIN_POINTS {
            crate::parallel::max_threads()
        } else {
            1
        };
        self.track_in_bands(prev, next, points, pool, bands)
    }

    /// [`PyramidalLk::track_pyramids`] forced down the sequential path
    /// (no thread fan-out regardless of point count).
    pub fn track_pyramids_sequential(
        &self,
        prev: &mut Pyramid,
        next: &Pyramid,
        points: &[Point2],
        pool: &mut ScratchPool,
    ) -> Vec<FlowResult> {
        self.track_in_bands(prev, next, points, pool, 1)
    }

    /// [`PyramidalLk::track_pyramids`] forced down the parallel path:
    /// points fan out over up to [`crate::parallel::max_threads`] threads.
    ///
    /// Results are bit-identical to
    /// [`PyramidalLk::track_pyramids_sequential`]: every point's solve is
    /// independent and performs the same floating-point operations in the
    /// same order; only the assignment of points to threads differs, and
    /// results are collected in input order.
    pub fn track_pyramids_parallel(
        &self,
        prev: &mut Pyramid,
        next: &Pyramid,
        points: &[Point2],
        pool: &mut ScratchPool,
    ) -> Vec<FlowResult> {
        self.track_in_bands(prev, next, points, pool, crate::parallel::max_threads())
    }

    /// Tracks `points` split over at most `bands` contiguous bands, band 0
    /// on the calling thread (all of them when `bands` is 1).
    fn track_in_bands(
        &self,
        prev: &mut Pyramid,
        next: &Pyramid,
        points: &[Point2],
        pool: &mut ScratchPool,
        bands: usize,
    ) -> Vec<FlowResult> {
        let levels = prev.levels().min(next.levels());
        // Every window's tiles are computed here, on the calling thread;
        // the band workers only read them.
        self.ensure_windows(prev, levels, points, pool);
        let _timer = perf::ScopedTimer::new(|c| &mut c.flow_ns);
        perf::record(|c| {
            c.lk_calls += 1;
            c.lk_points += points.len() as u64;
        });
        let prev: &Pyramid = prev;
        let grads = prev.tiled_gradients();
        let per_band = crate::parallel::map_bands(points.len(), bands, |s, e| {
            let mut cache = WindowCache::default();
            points[s..e]
                .iter()
                .map(|&p| self.track_one(prev, next, grads, levels, p, &mut cache))
                .collect::<Vec<_>>()
        });
        per_band.into_iter().flatten().collect()
    }

    /// Computes the gradient tiles of `prev` that [`PyramidalLk::track_one`]
    /// reads: per level, the window around each point that passes the
    /// level's border check. A tap column is `floor(pl.x + wx)` for
    /// `|wx| <= r`; f32 rounding of the sum can push that floor one above
    /// `floor(pl.x) + wx`, and bilinear sampling reads one column further,
    /// so reads span `floor(pl.x) - r ..= floor(pl.x) + r + 2`; the rect
    /// adds one column of slack on the left. Rows are the same.
    fn ensure_windows(
        &self,
        prev: &mut Pyramid,
        levels: usize,
        points: &[Point2],
        pool: &mut ScratchPool,
    ) {
        let r = self.params.window_radius as i64;
        let mut rects = Vec::with_capacity(points.len());
        for level in 0..levels {
            let img = prev.level(level);
            let scale = 1.0 / (1 << level) as f32;
            rects.clear();
            for p in points {
                let (x, y) = (p.x * scale, p.y * scale);
                if !img.in_bounds_with_margin(x, y, (r + 1) as f32) {
                    continue;
                }
                let (cx, cy) = (x.floor() as i64, y.floor() as i64);
                rects.push(PixelRect::new(
                    cx - r - 1,
                    cy - r - 1,
                    cx + r + 3,
                    cy + r + 3,
                ));
            }
            prev.ensure_gradients(level, &rects, pool);
        }
    }

    fn track_one(
        &self,
        prev: &Pyramid,
        next: &Pyramid,
        grads: &[TiledGradients],
        levels: usize,
        point: Point2,
        cache: &mut WindowCache,
    ) -> FlowResult {
        let r = self.params.window_radius as i32;
        let win_pixels = ((2 * r + 1) * (2 * r + 1)) as f32;
        let mut lost = false;

        // Displacement estimate at the coarsest level.
        let mut d = Vec2::ZERO;
        let mut final_residual = f32::MAX;

        for (level, prev_img) in prev.iter_coarse_to_fine() {
            if level >= levels {
                continue;
            }
            let next_img = next.level(level);
            let grad = grads[level].field();
            let scale = 1.0 / (1 << level) as f32;
            let pl = Point2::new(point.x * scale, point.y * scale);

            if !prev_img.in_bounds_with_margin(pl.x, pl.y, (r + 1) as f32) {
                // Feature too close to the border at this level; skip the level
                // (coarse levels may legitimately clip near-border features).
                if level == 0 {
                    lost = true;
                }
                continue;
            }

            // One pass over the window: capture the previous-frame intensity
            // and gradient samples (constant across iterations at this
            // level), row by row through the vectorized span fills, then
            // accumulate the structure tensor over the flat buffers in the
            // same tap order as the baseline's interleaved loop.
            let side = (2 * r + 1) as usize;
            let w_img = prev_img.width() as usize;
            let h_img = prev_img.height() as i64;
            cache.begin_level(side, r, pl.x);
            for wy in -r..=r {
                let py = pl.y + wy as f32;
                let yf = py.floor();
                let y0 = yf as i64;
                let ty = py - yf;
                let base = cache.prev.len();
                cache.prev.resize(base + side, 0.0);
                cache.gx.resize(base + side, 0.0);
                cache.gy.resize(base + side, 0.0);
                let span = if y0 >= 0 && y0 + 1 < h_img {
                    simd::contiguous_start(&cache.x0, w_img)
                } else {
                    None
                };
                match span {
                    Some(s) => {
                        let (ya, yb) = (y0 as u32, y0 as u32 + 1);
                        simd::bilinear_span_u8(
                            &prev_img.row(ya)[s..s + side + 1],
                            &prev_img.row(yb)[s..s + side + 1],
                            &cache.tx,
                            ty,
                            &mut cache.prev[base..base + side],
                        );
                        simd::bilinear_span_f32(
                            &grad.gx_row(ya)[s..s + side + 1],
                            &grad.gx_row(yb)[s..s + side + 1],
                            &cache.tx,
                            ty,
                            &mut cache.gx[base..base + side],
                        );
                        simd::bilinear_span_f32(
                            &grad.gy_row(ya)[s..s + side + 1],
                            &grad.gy_row(yb)[s..s + side + 1],
                            &cache.tx,
                            ty,
                            &mut cache.gy[base..base + side],
                        );
                    }
                    None => {
                        for k in 0..side {
                            let px = cache.px[k];
                            cache.gx[base + k] = grad.sample_gx_fast(px, py);
                            cache.gy[base + k] = grad.sample_gy_fast(px, py);
                            cache.prev[base + k] = prev_img.sample_fast(px, py);
                        }
                    }
                }
            }
            let mut gxx = 0.0f32;
            let mut gxy = 0.0f32;
            let mut gyy = 0.0f32;
            for (gx, gy) in cache.gx.iter().zip(&cache.gy) {
                gxx += gx * gx;
                gxy += gx * gy;
                gyy += gy * gy;
            }
            let trace_half = (gxx + gyy) / 2.0;
            let det_term = (((gxx - gyy) / 2.0).powi(2) + gxy * gxy).sqrt();
            let min_eig = (trace_half - det_term) / win_pixels;
            if min_eig < self.params.min_eigen_threshold {
                lost = true;
                break;
            }
            let det = gxx * gyy - gxy * gxy;
            if det.abs() < 1e-12 {
                lost = true;
                break;
            }

            // Newton iterations: only the next-frame window is resampled.
            // The displaced window's x-taps are the same on every row, so
            // their floors/fractions are computed once per iteration
            // (`displace`), and each row is fetched through one vectorized
            // bilinear span when the taps stay a contiguous interior run.
            let nw_img = next_img.width() as usize;
            let nh_img = next_img.height() as i64;
            let mut iterations = 0u64;
            for _ in 0..self.params.max_iterations {
                let target = pl + d;
                if !next_img.in_bounds_with_margin(target.x, target.y, (r + 1) as f32) {
                    lost = true;
                    break;
                }
                iterations += 1;
                cache.displace(d.x);
                let qspan = simd::contiguous_start(&cache.qx0, nw_img);
                let mut bx = 0.0f32;
                let mut by = 0.0f32;
                let mut i = 0usize;
                for wy in -r..=r {
                    let py = pl.y + wy as f32;
                    let qy = py + d.y;
                    let yf = qy.floor();
                    let y0 = yf as i64;
                    let ty = qy - yf;
                    if let (Some(s), true) = (qspan, y0 >= 0 && y0 + 1 < nh_img) {
                        simd::bilinear_span_u8(
                            &next_img.row(y0 as u32)[s..s + side + 1],
                            &next_img.row(y0 as u32 + 1)[s..s + side + 1],
                            &cache.qtx,
                            ty,
                            &mut cache.cur,
                        );
                        for k in 0..side {
                            let diff = cache.prev[i] - cache.cur[k];
                            bx += diff * cache.gx[i];
                            by += diff * cache.gy[i];
                            i += 1;
                        }
                    } else {
                        for k in 0..side {
                            let diff = cache.prev[i] - next_img.sample_fast(cache.px[k] + d.x, qy);
                            bx += diff * cache.gx[i];
                            by += diff * cache.gy[i];
                            i += 1;
                        }
                    }
                }
                let step = Vec2::new((gyy * bx - gxy * by) / det, (gxx * by - gxy * bx) / det);
                d += step;
                if step.norm() < self.params.epsilon {
                    break;
                }
            }
            perf::record(|c| c.lk_iterations += iterations);
            if lost {
                break;
            }

            if level == 0 {
                // Final residual check at full resolution, same span
                // structure as the Newton rows.
                let target = pl + d;
                let next0 = next.level(0);
                if !next0.in_bounds_with_margin(target.x, target.y, (r + 1) as f32) {
                    lost = true;
                } else {
                    cache.displace(d.x);
                    let qspan = simd::contiguous_start(&cache.qx0, next0.width() as usize);
                    let nh0 = next0.height() as i64;
                    let mut res = 0.0f32;
                    let mut i = 0usize;
                    for wy in -r..=r {
                        let py = pl.y + wy as f32;
                        let qy = py + d.y;
                        let yf = qy.floor();
                        let y0 = yf as i64;
                        let ty = qy - yf;
                        if let (Some(s), true) = (qspan, y0 >= 0 && y0 + 1 < nh0) {
                            simd::bilinear_span_u8(
                                &next0.row(y0 as u32)[s..s + side + 1],
                                &next0.row(y0 as u32 + 1)[s..s + side + 1],
                                &cache.qtx,
                                ty,
                                &mut cache.cur,
                            );
                            for k in 0..side {
                                res += (cache.prev[i] - cache.cur[k]).abs();
                                i += 1;
                            }
                        } else {
                            for k in 0..side {
                                res += (cache.prev[i] - next0.sample_fast(cache.px[k] + d.x, qy))
                                    .abs();
                                i += 1;
                            }
                        }
                    }
                    final_residual = res / win_pixels;
                    if final_residual > self.params.max_residual {
                        lost = true;
                    }
                }
            } else {
                // Propagate to the next finer level.
                d = d * 2.0;
            }
        }

        let current = point + d;
        FlowResult {
            previous: point,
            current,
            found: !lost && final_residual <= self.params.max_residual,
            residual: if final_residual == f32::MAX {
                0.0
            } else {
                final_residual
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic smooth texture (sum of oriented sinusoids) — smooth
    /// enough for the LK linearization yet rich in 2-D structure.
    fn textured(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let xf = x as f32;
            let yf = y as f32;
            let v = 128.0
                + 50.0 * (xf * 0.35).sin() * (yf * 0.27).cos()
                + 40.0 * ((xf * 0.12 + yf * 0.23).sin())
                + 20.0 * ((xf * 0.05).cos() * (yf * 0.4).sin());
            v.clamp(0.0, 255.0) as u8
        })
    }

    fn shifted(img: &GrayImage, dx: i64, dy: i64) -> GrayImage {
        GrayImage::from_fn(img.width(), img.height(), |x, y| {
            img.get_clamped(x as i64 - dx, y as i64 - dy)
        })
    }

    #[test]
    fn zero_motion_recovered() {
        let img = textured(96, 96);
        let lk = PyramidalLk::default();
        let res = lk.track(&img, &img, &[Point2::new(48.0, 48.0)]);
        assert!(res[0].found);
        assert!(res[0].displacement().norm() < 0.1);
        assert!(res[0].residual < 1.0);
    }

    #[test]
    fn small_translation_recovered() {
        let prev = textured(96, 96);
        let next = shifted(&prev, 2, 1);
        let lk = PyramidalLk::default();
        let pts = [
            Point2::new(30.0, 30.0),
            Point2::new(48.0, 60.0),
            Point2::new(70.0, 40.0),
        ];
        let res = lk.track(&prev, &next, &pts);
        for r in &res {
            assert!(r.found, "track lost at {}", r.previous);
            let d = r.displacement();
            assert!((d.x - 2.0).abs() < 0.5, "dx = {}", d.x);
            assert!((d.y - 1.0).abs() < 0.5, "dy = {}", d.y);
        }
    }

    #[test]
    fn large_translation_needs_pyramid() {
        let prev = textured(128, 128);
        let next = shifted(&prev, 9, 0);
        let single = PyramidalLk::new(LkParams {
            pyramid_levels: 1,
            ..Default::default()
        });
        let pyr = PyramidalLk::new(LkParams {
            pyramid_levels: 4,
            ..Default::default()
        });
        let p = [Point2::new(64.0, 64.0)];
        let r1 = single.track(&prev, &next, &p);
        let r4 = pyr.track(&prev, &next, &p);
        let err1 = (r1[0].displacement() - Vec2::new(9.0, 0.0)).norm();
        let err4 = (r4[0].displacement() - Vec2::new(9.0, 0.0)).norm();
        assert!(err4 < 1.0, "pyramidal error {err4}");
        assert!(
            err4 <= err1 + 1e-3,
            "pyramid ({err4}) should not be worse than single level ({err1})"
        );
    }

    #[test]
    fn flat_region_is_lost() {
        let prev = GrayImage::from_fn(64, 64, |_, _| 100);
        let next = prev.clone();
        let lk = PyramidalLk::default();
        let res = lk.track(&prev, &next, &[Point2::new(32.0, 32.0)]);
        assert!(!res[0].found, "flat region must be untrackable");
    }

    #[test]
    fn point_near_border_is_lost() {
        let prev = textured(64, 64);
        let lk = PyramidalLk::default();
        let res = lk.track(&prev, &prev, &[Point2::new(1.0, 1.0)]);
        assert!(!res[0].found);
    }

    #[test]
    fn appearance_change_raises_residual() {
        let prev = textured(96, 96);
        // Unrelated next frame: tracking must fail the residual check.
        let next = GrayImage::from_fn(96, 96, |x, y| {
            let n = x.wrapping_mul(97).wrapping_add(y.wrapping_mul(31));
            (n % 251) as u8
        });
        let lk = PyramidalLk::default();
        let res = lk.track(&prev, &next, &[Point2::new(48.0, 48.0)]);
        assert!(!res[0].found || res[0].residual > 10.0);
    }

    #[test]
    fn multiple_points_tracked_independently() {
        let prev = textured(96, 96);
        let next = shifted(&prev, 1, 2);
        let lk = PyramidalLk::default();
        let pts: Vec<Point2> = (0..10)
            .map(|i| Point2::new(20.0 + 6.0 * i as f32, 30.0 + 3.0 * i as f32))
            .collect();
        let res = lk.track(&prev, &next, &pts);
        assert_eq!(res.len(), pts.len());
        for (r, p) in res.iter().zip(&pts) {
            assert_eq!(r.previous, *p);
        }
        let found = res.iter().filter(|r| r.found).count();
        assert!(found >= 8, "only {found} of 10 found");
    }

    #[test]
    fn empty_point_list() {
        let img = textured(32, 32);
        let lk = PyramidalLk::default();
        assert!(lk.track(&img, &img, &[]).is_empty());
    }

    #[test]
    fn track_pyramids_reuse_matches_track() {
        let prev = textured(96, 96);
        let next = shifted(&prev, 2, 0);
        let lk = PyramidalLk::default();
        let pts = [Point2::new(40.0, 40.0), Point2::new(60.0, 50.0)];
        let a = lk.track(&prev, &next, &pts);
        let mut pp = Pyramid::build(&prev, lk.params().pyramid_levels);
        let np = Pyramid::build(&next, lk.params().pyramid_levels);
        let b = lk.track_pyramids(&mut pp, &np, &pts, &mut ScratchPool::new());
        assert_eq!(a, b);
    }

    fn grid_points(w: u32, h: u32, step: u32) -> Vec<Point2> {
        let mut pts = Vec::new();
        let mut y = step;
        while y < h - step {
            let mut x = step;
            while x < w - step {
                pts.push(Point2::new(x as f32, y as f32));
                x += step;
            }
            y += step;
        }
        pts
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let prev = textured(128, 96);
        let next = shifted(&prev, -2, 1);
        let lk = PyramidalLk::default();
        let pts = grid_points(128, 96, 10);
        assert!(pts.len() >= PyramidalLk::PARALLEL_MIN_POINTS);
        let np = Pyramid::build(&next, lk.params().pyramid_levels);
        let run = |f: fn(
            &PyramidalLk,
            &mut Pyramid,
            &Pyramid,
            &[Point2],
            &mut ScratchPool,
        ) -> Vec<FlowResult>| {
            let mut pp = Pyramid::build(&prev, lk.params().pyramid_levels);
            f(&lk, &mut pp, &np, &pts, &mut ScratchPool::new())
        };
        let seq = run(PyramidalLk::track_pyramids_sequential);
        let par = run(PyramidalLk::track_pyramids_parallel);
        let auto = run(PyramidalLk::track_pyramids);
        assert_eq!(seq, par, "parallel LK must be bit-identical");
        assert_eq!(seq, auto);
    }

    #[test]
    fn validated_accepts_default_rejects_bad() {
        assert!(LkParams::default().validated().is_ok());
        assert_eq!(
            LkParams {
                pyramid_levels: 0,
                ..Default::default()
            }
            .validated(),
            Err(LkParamsError::ZeroPyramidLevels)
        );
        assert_eq!(
            LkParams {
                window_radius: 0,
                ..Default::default()
            }
            .validated(),
            Err(LkParamsError::ZeroWindowRadius)
        );
        assert_eq!(
            LkParams {
                max_iterations: 0,
                ..Default::default()
            }
            .validated(),
            Err(LkParamsError::ZeroIterations)
        );
        for (params, field) in [
            (
                LkParams {
                    epsilon: f32::NAN,
                    ..Default::default()
                },
                "epsilon",
            ),
            (
                LkParams {
                    epsilon: 0.0,
                    ..Default::default()
                },
                "epsilon",
            ),
            (
                LkParams {
                    min_eigen_threshold: f32::INFINITY,
                    ..Default::default()
                },
                "min_eigen_threshold",
            ),
            (
                LkParams {
                    max_residual: f32::NAN,
                    ..Default::default()
                },
                "max_residual",
            ),
            (
                LkParams {
                    max_residual: -1.0,
                    ..Default::default()
                },
                "max_residual",
            ),
        ] {
            assert_eq!(
                params.validated(),
                Err(LkParamsError::InvalidThreshold(field))
            );
        }
        assert!(PyramidalLk::try_new(LkParams::default()).is_ok());
        assert!(PyramidalLk::try_new(LkParams {
            window_radius: 0,
            ..Default::default()
        })
        .is_err());
        // Errors render something human-readable.
        assert!(LkParamsError::ZeroPyramidLevels
            .to_string()
            .contains("pyramid"));
    }

    #[test]
    fn perf_counters_observe_tracking() {
        let prev = textured(96, 96);
        let next = shifted(&prev, 1, 1);
        let lk = PyramidalLk::default();
        let mut pp = Pyramid::build(&prev, lk.params().pyramid_levels);
        let np = Pyramid::build(&next, lk.params().pyramid_levels);
        let pts = [Point2::new(40.0, 40.0), Point2::new(60.0, 30.0)];
        let mut pool = ScratchPool::new();
        crate::perf::reset();
        let _ = lk.track_pyramids(&mut pp, &np, &pts, &mut pool);
        let s1 = crate::perf::snapshot();
        assert_eq!(s1.lk_calls, 1);
        assert_eq!(s1.lk_points, 2);
        assert!(s1.lk_iterations > 0);
        assert_eq!(s1.gradient_fields, 0, "no level is differentiated whole");
        // Two 15x15 windows need a fraction of level 0's tiles.
        use crate::gradient::{TILE_H, TILE_W};
        let level0 = pp.tiled_gradients()[0].tiles_computed();
        let total = 96u32.div_ceil(TILE_W) * 96u32.div_ceil(TILE_H);
        assert!(
            level0 > 0 && 2 * level0 < total as usize,
            "level 0 tiles: {level0}"
        );
        let tiles: usize = pp
            .tiled_gradients()
            .iter()
            .map(|g| g.tiles_computed())
            .sum();
        assert_eq!(s1.gradient_tiles, tiles as u64);
        // A second call over the same reference pyramid computes nothing.
        let _ = lk.track_pyramids(&mut pp, &np, &pts, &mut pool);
        let s2 = crate::perf::snapshot();
        assert_eq!(s2.lk_calls, 2);
        assert_eq!(s2.gradient_tiles, s1.gradient_tiles);
        // No points, no gradients.
        let mut fresh = Pyramid::build(&prev, lk.params().pyramid_levels);
        let _ = lk.track_pyramids(&mut fresh, &np, &[], &mut pool);
        assert_eq!(crate::perf::snapshot().gradient_tiles, s1.gradient_tiles);
    }
}
