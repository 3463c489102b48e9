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
//! iterations; only the next-frame window moves).
//!
//! Window rows are sampled in whole 8-lane vectors: a row of the 15-tap
//! window (radius 7) is sampled 16 columns wide, so the bilinear fills and
//! the per-tap summand rows ([`simd::mismatch_row`], [`simd::tensor_row`],
//! [`simd::abs_diff_row`]) run with no scalar tail, and the extra lanes are
//! thrown away. Only the sums stay scalar: each Newton step adds the used
//! taps' summands one by one in the baseline's row-major order, walking
//! pre-sliced rows with no index per tap, so every `f32` operation keeps
//! its operands and its order. A row whose padded run would leave the
//! image is sampled tap by tap instead, with the same values.
//!
//! Points are tracked one after another on the calling thread, in input
//! order; a caller that wants threads runs whole work items (clips, sweep
//! cells) over an [`crate::exec::Executor`]. The `lk_parity` tests hold
//! every point set, up to hundreds of points, to the baseline tracker bit
//! for bit.

use crate::geometry::{PixelRect, Point2, Vec2};
use crate::gradient::{GradientField, TiledGradients};
use crate::image::GrayImage;
use crate::perf;
use crate::pyramid::Pyramid;
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
    /// `window_radius` exceeded [`LkParams::MAX_WINDOW_RADIUS`] (the window's
    /// tap count would no longer be exact in `f32`).
    WindowRadiusTooLarge,
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
            Self::WindowRadiusTooLarge => write!(
                f,
                "window_radius must be at most {}",
                LkParams::MAX_WINDOW_RADIUS
            ),
            Self::ZeroIterations => write!(f, "max_iterations must be at least 1"),
            Self::InvalidThreshold(field) => {
                write!(f, "{field} must be finite and within its valid range")
            }
        }
    }
}

impl std::error::Error for LkParamsError {}

impl LkParams {
    /// Largest accepted `window_radius`. The window's tap count
    /// `(2r + 1)^2` is then at most `4095^2 < 2^24`, exact in both `i32`
    /// and `f32`, and padding a row to whole vector lanes cannot overflow.
    pub const MAX_WINDOW_RADIUS: u32 = 2047;

    /// Validates the parameters, returning them unchanged on success.
    ///
    /// Rejects zero `pyramid_levels`, a `window_radius` of zero or above
    /// [`LkParams::MAX_WINDOW_RADIUS`], zero `max_iterations`, and
    /// non-finite (or non-positive where positivity is required) threshold
    /// fields.
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
        if self.window_radius > Self::MAX_WINDOW_RADIUS {
            return Err(LkParamsError::WindowRadiusTooLarge);
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

/// Window rows are sampled in whole vectors of this many `f32` lanes (one
/// AVX2 register).
const LANE_GROUP: usize = 8;

/// Per-point window state, captured once per pyramid level and reused by
/// every Newton iteration (previous-frame intensities and gradients do not
/// change while the displacement estimate is refined).
///
/// Every window row is sampled `lanes` columns wide: the window side
/// rounded up to whole [`LANE_GROUP`]s (16 for the tracker's radius 7), so
/// the vectorized fills ([`simd::bilinear_span_u8`]) and the per-tap
/// summand rows ([`simd::mismatch_row`] and friends) run as full vectors
/// with no scalar tail; the extra lanes are computed and thrown away. Rows
/// are stored with a stride of `lanes`, and every sum adds only the `side`
/// used taps of a row, one by one in the baseline's order. The gradient
/// rows fill only their `side` used taps ([`simd::bilinear_span_f32`]):
/// padding them would read columns past the rect
/// [`PyramidalLk::ensure_windows`] computes.
///
/// Besides the sample rows, the cache holds the per-column bilinear *tap
/// tables* (`px`/`x0`/`tx` for the fixed previous-frame window, `qx0`/`qtx`
/// for the displaced next-frame window): the window's x-coordinates are the
/// same on every row, so floors and fractions are computed once per level
/// (or once per Newton iteration) instead of once per tap. A row goes
/// through the span fills when its integer tap columns, padded lanes
/// included, form a contiguous in-bounds run ([`simd::contiguous_start`]);
/// rows where floating-point rounding breaks the run, or where the padded
/// run would leave the image, fall back to per-tap sampling of the used
/// taps — bit-identical, just slower.
#[derive(Default)]
struct WindowCache {
    /// Window side `2r + 1`: the taps every sum adds.
    side: usize,
    /// Sampled columns per row: `side` rounded up to whole lane groups.
    lanes: usize,
    /// Previous-frame intensities, `side` rows of `lanes`.
    prev: Vec<f32>,
    /// Previous-frame horizontal gradients, same layout (`side` used taps).
    gx: Vec<f32>,
    /// Previous-frame vertical gradients, same layout (`side` used taps).
    gy: Vec<f32>,
    /// One row of next-frame window samples.
    cur: Vec<f32>,
    /// Up to three rows of per-tap summands, added up in tap order.
    terms: [Vec<f32>; 3],
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

/// A vectorized bilinear row fill: [`simd::bilinear_span_u8`] or
/// [`simd::bilinear_span_f32`].
type SpanKernel<T> = fn(&[T], &[T], &[f32], f32, &mut [f32]);

/// Fills `out` with the bilinear samples between `rows.0` and `rows.1` of
/// the `out.len()` taps starting at column `s` (horizontal fractions `tx`,
/// vertical fraction `ty`) through the vectorized span `kernel`. `None`,
/// with `out` untouched, when the span leaves the rows.
fn fill_span<T>(
    kernel: SpanKernel<T>,
    rows: (&[T], &[T]),
    s: usize,
    tx: &[f32],
    ty: f32,
    out: &mut [f32],
) -> Option<()> {
    let n = out.len();
    let (r0, r1) = (rows.0.get(s..=s + n)?, rows.1.get(s..=s + n)?);
    kernel(r0, r1, tx.get(..n)?, ty, out);
    Some(())
}

/// Floor and fraction of `y`, the vertical half of a bilinear tap:
/// `(y0, ty)` and whether rows `y0` and `y0 + 1` both lie in `0..height`.
fn row_taps(y: f32, height: u32) -> (i64, f32, bool) {
    let yf = y.floor();
    let y0 = yf as i64;
    (y0, y - yf, y0 >= 0 && y0 + 1 < i64::from(height))
}

impl WindowCache {
    /// Sizes the cache for radius `r` and precomputes the per-column tap
    /// tables for a window centred at x-coordinate `cx`, padded lanes
    /// included.
    fn begin_level(&mut self, r: i32, cx: f32) {
        self.side = (2 * r + 1) as usize;
        self.lanes = self.side.next_multiple_of(LANE_GROUP);
        let n = self.side * self.lanes;
        for buf in [&mut self.prev, &mut self.gx, &mut self.gy] {
            buf.resize(n, 0.0);
        }
        let [t0, t1, t2] = &mut self.terms;
        for buf in [
            &mut self.cur,
            t0,
            t1,
            t2,
            &mut self.px,
            &mut self.tx,
            &mut self.qtx,
        ] {
            buf.resize(self.lanes, 0.0);
        }
        self.x0.resize(self.lanes, 0);
        self.qx0.resize(self.lanes, 0);
        let columns = self.px.iter_mut().zip(&mut self.x0).zip(&mut self.tx);
        for (wx, ((px, x0), tx)) in (-r..).zip(columns) {
            // Exactly the per-tap expressions of the baseline: the fraction
            // of `pl.x + wx` is NOT constant across wx (f32 rounding can
            // shift it and even the floor), so each column gets its own
            // floor/fraction rather than a shared one.
            *px = cx + wx as f32;
            let xf = px.floor();
            *x0 = xf as i64;
            *tx = *px - xf;
        }
    }

    /// Samples the previous-frame window (intensities and gradients) whose
    /// rows are centred on `cy`, row by row through the span fills.
    fn sample_prev(&mut self, img: &GrayImage, grad: &GradientField, cy: f32, r: i32) {
        let Self {
            side,
            lanes,
            prev,
            gx,
            gy,
            px,
            x0,
            tx,
            ..
        } = self;
        let (side, lanes, w) = (*side, *lanes, img.width() as usize);
        let padded = simd::contiguous_start(x0, w);
        let used = x0.get(..side).and_then(|x| simd::contiguous_start(x, w));
        let rows = prev
            .chunks_exact_mut(lanes)
            .zip(gx.chunks_exact_mut(lanes))
            .zip(gy.chunks_exact_mut(lanes));
        for (wy, ((prow, gxrow), gyrow)) in (-r..=r).zip(rows) {
            let py = cy + wy as f32;
            let (y0, ty, inside) = row_taps(py, img.height());
            let (ya, yb) = (y0 as u32, y0 as u32 + 1);
            let spans = padded.filter(|_| inside).and_then(|s| {
                let rows = (img.row(ya), img.row(yb));
                fill_span(simd::bilinear_span_u8, rows, s, tx, ty, prow)
            });
            if spans.is_none() {
                for (p, &x) in prow.iter_mut().zip(px.iter()).take(side) {
                    *p = img.sample_fast(x, py);
                }
            }
            let spans = used.filter(|_| inside).and_then(|s| {
                let rows = (grad.gx_row(ya), grad.gx_row(yb));
                fill_span(
                    simd::bilinear_span_f32,
                    rows,
                    s,
                    tx,
                    ty,
                    gxrow.get_mut(..side)?,
                )?;
                let rows = (grad.gy_row(ya), grad.gy_row(yb));
                fill_span(
                    simd::bilinear_span_f32,
                    rows,
                    s,
                    tx,
                    ty,
                    gyrow.get_mut(..side)?,
                )
            });
            if spans.is_none() {
                let taps = gxrow.iter_mut().zip(gyrow.iter_mut()).zip(px.iter());
                for ((g_x, g_y), &x) in taps.take(side) {
                    *g_x = grad.sample_gx_fast(x, py);
                    *g_y = grad.sample_gy_fast(x, py);
                }
            }
        }
    }

    /// The structure tensor `(gxx, gxy, gyy)` of the sampled window, summed
    /// over the used taps in row-major order.
    fn structure_tensor(&mut self) -> (f32, f32, f32) {
        let Self {
            side,
            lanes,
            gx,
            gy,
            terms: [xx, xy, yy],
            ..
        } = self;
        let (mut gxx, mut gxy, mut gyy) = (0.0f32, 0.0f32, 0.0f32);
        for (gxrow, gyrow) in gx.chunks_exact(*lanes).zip(gy.chunks_exact(*lanes)) {
            simd::tensor_row(gxrow, gyrow, xx, xy, yy);
            for ((a, b), c) in xx.iter().zip(xy.iter()).zip(yy.iter()).take(*side) {
                gxx += a;
                gxy += b;
                gyy += c;
            }
        }
        (gxx, gxy, gyy)
    }

    /// The Newton right-hand side `(bx, by)` for the window displaced by
    /// `d` in the next frame `img`: `sum (prev - next) * g` over the used
    /// taps in row-major order.
    fn mismatch(&mut self, img: &GrayImage, cy: f32, d: Vec2, r: i32) -> (f32, f32) {
        let (mut bx, mut by) = (0.0f32, 0.0f32);
        self.for_each_displaced_row(img, cy, d, r, |[prev, cur, gx, gy], [ex, ey, _], side| {
            simd::mismatch_row(prev, cur, gx, gy, ex, ey);
            for (x, y) in ex.iter().zip(ey.iter()).take(side) {
                bx += x;
                by += y;
            }
        });
        (bx, by)
    }

    /// `sum |prev - next|` over the used taps of the window displaced by
    /// `d` in the next frame `img`, in row-major order.
    fn residual(&mut self, img: &GrayImage, cy: f32, d: Vec2, r: i32) -> f32 {
        let mut res = 0.0f32;
        self.for_each_displaced_row(img, cy, d, r, |[prev, cur, _, _], [diff, _, _], side| {
            simd::abs_diff_row(prev, cur, diff);
            for x in diff.iter().take(side) {
                res += x;
            }
        });
        res
    }

    /// Samples the window displaced by `d` in the next frame `img` one row
    /// at a time into `cur`, and hands `row` each row's `[prev, cur, gx,
    /// gy]` samples (`lanes` wide), the summand scratch rows and the used
    /// tap count, top to bottom. The displaced tap columns are computed
    /// once (`qx0`/`qtx`), and a row is fetched through one padded span
    /// fill when its taps stay a contiguous interior run, else tap by tap
    /// (used taps only).
    fn for_each_displaced_row(
        &mut self,
        img: &GrayImage,
        cy: f32,
        d: Vec2,
        r: i32,
        mut row: impl FnMut([&[f32]; 4], &mut [Vec<f32>; 3], usize),
    ) {
        let Self {
            side,
            lanes,
            prev,
            gx,
            gy,
            cur,
            terms,
            px,
            qx0,
            qtx,
            ..
        } = self;
        let (side, lanes) = (*side, *lanes);
        for ((q0, qt), &x) in qx0.iter_mut().zip(qtx.iter_mut()).zip(px.iter()) {
            let qx = x + d.x;
            let xf = qx.floor();
            *q0 = xf as i64;
            *qt = qx - xf;
        }
        let padded = simd::contiguous_start(qx0, img.width() as usize);
        let rows = prev
            .chunks_exact(lanes)
            .zip(gx.chunks_exact(lanes))
            .zip(gy.chunks_exact(lanes));
        for (wy, ((prow, gxrow), gyrow)) in (-r..=r).zip(rows) {
            let qy = (cy + wy as f32) + d.y;
            let (y0, ty, inside) = row_taps(qy, img.height());
            let spans = padded.filter(|_| inside).and_then(|s| {
                let rows = (img.row(y0 as u32), img.row(y0 as u32 + 1));
                fill_span(simd::bilinear_span_u8, rows, s, qtx, ty, cur)
            });
            if spans.is_none() {
                for (c, &x) in cur.iter_mut().zip(px.iter()).take(side) {
                    *c = img.sample_fast(x + d.x, qy);
                }
            }
            row([prow, cur, gxrow, gyrow], terms, side);
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
        let mut prev_pyr = Pyramid::build(prev, self.params.pyramid_levels);
        let next_pyr = Pyramid::build(next, self.params.pyramid_levels);
        self.track_pyramids(&mut prev_pyr, &next_pyr, points)
    }

    /// Tracks `points` between two prebuilt pyramids.
    ///
    /// The pyramids must have been built from images of identical size.
    /// Computes the gradient tiles of `prev` that the points' windows read
    /// and are not computed yet, then tracks the points in order on the
    /// calling thread.
    pub fn track_pyramids(
        &self,
        prev: &mut Pyramid,
        next: &Pyramid,
        points: &[Point2],
    ) -> Vec<FlowResult> {
        let levels = prev.levels().min(next.levels());
        self.ensure_windows(prev, levels, points);
        let _timer = perf::ScopedTimer::new(|c| &mut c.flow_ns);
        perf::record(|c| {
            c.lk_calls += 1;
            c.lk_points += points.len() as u64;
        });
        let prev: &Pyramid = prev;
        let grads = prev.tiled_gradients();
        let mut cache = WindowCache::default();
        points
            .iter()
            .map(|&p| self.track_one(prev, next, grads, levels, p, &mut cache))
            .collect()
    }

    /// Computes the gradient tiles of `prev` that [`PyramidalLk::track_one`]
    /// reads: per level, the window around each point that passes the
    /// level's border check. A tap column is `floor(pl.x + wx)` for
    /// `|wx| <= r`; f32 rounding of the sum can push that floor one above
    /// `floor(pl.x) + wx`, and bilinear sampling reads one column further,
    /// so reads span `floor(pl.x) - r ..= floor(pl.x) + r + 2`; the rect
    /// adds one column of slack on the left. Rows are the same.
    fn ensure_windows(&self, prev: &mut Pyramid, levels: usize, points: &[Point2]) {
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
            prev.ensure_gradients(level, &rects);
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
            // `grads` has one field per level of `prev`, and `levels` is at
            // most that many.
            let Some(grad) = grads.get(level).filter(|_| level < levels) else {
                continue;
            };
            let next_img = next.level(level);
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
            // level), then accumulate the structure tensor in the same tap
            // order as the baseline's interleaved loop.
            cache.begin_level(r, pl.x);
            cache.sample_prev(prev_img, grad.field(), pl.y, r);
            let (gxx, gxy, gyy) = cache.structure_tensor();
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
            let mut iterations = 0u64;
            for _ in 0..self.params.max_iterations {
                let target = pl + d;
                if !next_img.in_bounds_with_margin(target.x, target.y, (r + 1) as f32) {
                    lost = true;
                    break;
                }
                iterations += 1;
                let (bx, by) = cache.mismatch(next_img, pl.y, d, r);
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
                // Final residual check at full resolution, over the same
                // displaced rows as the Newton steps.
                let target = pl + d;
                let next0 = next.level(0);
                if !next0.in_bounds_with_margin(target.x, target.y, (r + 1) as f32) {
                    lost = true;
                } else {
                    final_residual = cache.residual(next0, pl.y, d, r) / win_pixels;
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
        let b = lk.track_pyramids(&mut pp, &np, &pts);
        assert_eq!(a, b);
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
        assert!(LkParamsError::WindowRadiusTooLarge
            .to_string()
            .contains("2047"));
        assert!(LkParamsError::ZeroPyramidLevels
            .to_string()
            .contains("pyramid"));
    }

    #[test]
    fn window_radius_is_bounded_so_lk_cannot_overflow() {
        let with_radius = |window_radius| LkParams {
            window_radius,
            ..Default::default()
        };
        let max = LkParams::MAX_WINDOW_RADIUS;
        assert!(with_radius(max).validated().is_ok());
        for radius in [max + 1, 100_000, u32::MAX] {
            assert_eq!(
                with_radius(radius).validated(),
                Err(LkParamsError::WindowRadiusTooLarge),
                "radius {radius}"
            );
            assert!(PyramidalLk::try_new(with_radius(radius)).is_err());
        }
        // The largest window's tap count is exact in f32.
        let side = 2 * max as i32 + 1;
        assert_eq!((side * side) as f32 as i32, side * side);
        // A valid radius wider than the image tracks nothing and panics
        // nowhere.
        let img = textured(64, 64);
        let lk = PyramidalLk::try_new(with_radius(40)).expect("valid radius");
        let res = lk.track(&img, &img, &[Point2::new(32.0, 32.0)]);
        assert!(!res[0].found);
    }

    #[test]
    fn perf_counters_observe_tracking() {
        let prev = textured(96, 96);
        let next = shifted(&prev, 1, 1);
        let lk = PyramidalLk::default();
        let mut pp = Pyramid::build(&prev, lk.params().pyramid_levels);
        let np = Pyramid::build(&next, lk.params().pyramid_levels);
        let pts = [Point2::new(40.0, 40.0), Point2::new(60.0, 30.0)];
        crate::perf::reset();
        let _ = lk.track_pyramids(&mut pp, &np, &pts);
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
        let _ = lk.track_pyramids(&mut pp, &np, &pts);
        let s2 = crate::perf::snapshot();
        assert_eq!(s2.lk_calls, 2);
        assert_eq!(s2.gradient_tiles, s1.gradient_tiles);
        // No points, no gradients.
        let mut fresh = Pyramid::build(&prev, lk.params().pyramid_levels);
        let _ = lk.track_pyramids(&mut fresh, &np, &[]);
        assert_eq!(crate::perf::snapshot().gradient_tiles, s1.gradient_tiles);
    }
}
