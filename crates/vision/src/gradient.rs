//! Spatial-gradient and smoothing kernels.
//!
//! Provides Scharr gradients, the derivative filter both the Shi-Tomasi
//! corner response and the Lucas-Kanade normal equations are built from.
//! (The pyramid's Gaussian blur lives with the level kernel,
//! [`crate::pyramid::blur_downsample_into`].)
//!
//! Gradients are computed on demand in tiles ([`TiledGradients`]), only
//! where a reader asks for them. The kernel runs as **row-slice passes**
//! through the [`crate::simd`] helpers into planes and row buffers the
//! field owns and keeps across [`TiledGradients::clear`], so a pyramid
//! rebuilt for each frame ([`crate::pyramid::Pyramid::rebuild`]) computes
//! its gradients without allocating. All intermediate values are small
//! integers, exactly representable in `f32`, and the final division is by
//! a power of two, so the results equal the plain-loop oracles in
//! `reference` bit for bit.

use crate::geometry::PixelRect;
use crate::image::GrayImage;
use crate::perf;
use crate::simd;

/// Horizontal and vertical image derivatives as `f32` planes.
///
/// Row-major, same dimensions as the source image. [`TiledGradients`]
/// fills one tile by tile.
#[derive(Debug, Clone)]
pub struct GradientField {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) gx: Vec<f32>,
    pub(crate) gy: Vec<f32>,
}

impl GradientField {
    /// An empty 0x0 field.
    pub fn empty() -> Self {
        Self {
            width: 0,
            height: 0,
            gx: Vec::new(),
            gy: Vec::new(),
        }
    }

    /// Field width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Field height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        y as usize * self.width as usize + x as usize
    }

    /// Horizontal derivative at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn gx(&self, x: u32, y: u32) -> f32 {
        self.gx[self.index(x, y)]
    }

    /// Vertical derivative at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn gy(&self, x: u32, y: u32) -> f32 {
        self.gy[self.index(x, y)]
    }

    /// One row of the horizontal-derivative plane.
    #[inline]
    pub fn gx_row(&self, y: u32) -> &[f32] {
        let w = self.width as usize;
        &self.gx[y as usize * w..(y as usize + 1) * w]
    }

    /// One row of the vertical-derivative plane.
    #[inline]
    pub fn gy_row(&self, y: u32) -> &[f32] {
        let w = self.width as usize;
        &self.gy[y as usize * w..(y as usize + 1) * w]
    }

    /// Bilinearly-interpolated horizontal derivative at fractional coordinates.
    pub fn sample_gx(&self, x: f32, y: f32) -> f32 {
        sample_plane(&self.gx, self.width, self.height, x, y)
    }

    /// Bilinearly-interpolated vertical derivative at fractional coordinates.
    pub fn sample_gy(&self, x: f32, y: f32) -> f32 {
        sample_plane(&self.gy, self.width, self.height, x, y)
    }

    /// [`GradientField::sample_gx`] with an interior fast path (single
    /// bounds test, direct indexing). Bit-identical values for every input.
    #[inline]
    pub fn sample_gx_fast(&self, x: f32, y: f32) -> f32 {
        sample_plane_fast(&self.gx, self.width, self.height, x, y)
    }

    /// [`GradientField::sample_gy`] with an interior fast path (single
    /// bounds test, direct indexing). Bit-identical values for every input.
    #[inline]
    pub fn sample_gy_fast(&self, x: f32, y: f32) -> f32 {
        sample_plane_fast(&self.gy, self.width, self.height, x, y)
    }
}

#[inline]
fn sample_plane_fast(plane: &[f32], w: u32, h: u32, x: f32, y: f32) -> f32 {
    let xf = x.floor();
    let yf = y.floor();
    let x0 = xf as i64;
    let y0 = yf as i64;
    if x0 >= 0 && y0 >= 0 && x0 + 1 < w as i64 && y0 + 1 < h as i64 {
        let tx = x - xf;
        let ty = y - yf;
        let ww = w as usize;
        let i = y0 as usize * ww + x0 as usize;
        let p00 = plane[i];
        let p10 = plane[i + 1];
        let p01 = plane[i + ww];
        let p11 = plane[i + ww + 1];
        let top = p00 + (p10 - p00) * tx;
        let bottom = p01 + (p11 - p01) * tx;
        top + (bottom - top) * ty
    } else {
        sample_plane(plane, w, h, x, y)
    }
}

fn sample_plane(plane: &[f32], w: u32, h: u32, x: f32, y: f32) -> f32 {
    let clamp = |v: i64, hi: u32| v.clamp(0, hi as i64 - 1) as usize;
    let xf = x.floor();
    let yf = y.floor();
    let tx = x - xf;
    let ty = y - yf;
    let x0 = clamp(xf as i64, w);
    let x1 = clamp(xf as i64 + 1, w);
    let y0 = clamp(yf as i64, h);
    let y1 = clamp(yf as i64 + 1, h);
    let at = |xx: usize, yy: usize| plane[yy * w as usize + xx];
    let top = at(x0, y0) + (at(x1, y0) - at(x0, y0)) * tx;
    let bottom = at(x0, y1) + (at(x1, y1) - at(x0, y1)) * tx;
    top + (bottom - top) * ty
}

/// Width, in pixels, of the tiles a [`TiledGradients`] field is computed in.
pub const TILE_W: u32 = 32;

/// Height, in pixels, of the tiles a [`TiledGradients`] field is computed
/// in. Tiles are short because a Lucas-Kanade window is only 15 rows
/// tall: with 4-row tiles it needs about 20 computed rows, with 32-row
/// tiles about 48. Vertically adjacent tiles are computed in one pass, so
/// short tiles cost no extra smoothing rows.
pub const TILE_H: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tile {
    Missing,
    /// Marked by the current [`TiledGradients::ensure`] call.
    Wanted,
    Done,
}

/// A Scharr gradient field computed on demand, one [`TILE_W`] x
/// [`TILE_H`] tile at a time.
///
/// The tracker reads gradients only inside the Shi-Tomasi boxes and the
/// Lucas-Kanade windows, a small share of each pyramid level. This field
/// owns full-size `gx`/`gy` planes (allocated on first use, kept by
/// [`TiledGradients::clear`] and never re-zeroed), the row buffers of the
/// kernel, and a per-tile "computed" bitmap;
/// [`TiledGradients::ensure`] fills only the tiles a read needs that are
/// not computed yet. Every value is an integer tap sum times 1/32, so a
/// computed tile is bit-identical to the same pixels of a whole-frame
/// Scharr pass. Values are only readable through
/// [`TiledGradients::get`], which refuses pixels of uncomputed tiles.
///
/// # Example
///
/// ```
/// use adavp_vision::geometry::PixelRect;
/// use adavp_vision::gradient::TiledGradients;
/// use adavp_vision::image::GrayImage;
/// let img = GrayImage::from_fn(100, 70, |x, y| (x * 3 + y * 5) as u8);
/// let mut tiled = TiledGradients::new();
/// // Five pixels of one tile row: a single 32x4 tile.
/// tiled.ensure(&img, &[PixelRect::new(40, 8, 45, 12)]);
/// assert_eq!(tiled.tiles_computed(), 1);
/// // Inside the ramp the gradient is its slope.
/// assert_eq!(tiled.get(42, 9), Some((3.0, 5.0)));
/// assert_eq!(tiled.get(90, 60), None, "that tile was never asked for");
/// ```
#[derive(Debug, Clone)]
pub struct TiledGradients {
    field: GradientField,
    /// The kernel's row buffers: the vertical smoothing of one span row
    /// (`width + 2` values), then a ring of three horizontally smoothed
    /// rows (`width` each).
    rows: Vec<u16>,
    tiles: Vec<Tile>,
    tiles_x: usize,
}

impl Default for TiledGradients {
    fn default() -> Self {
        Self::new()
    }
}

impl TiledGradients {
    /// An empty field: no planes, no tiles.
    pub fn new() -> Self {
        Self {
            field: GradientField::empty(),
            rows: Vec::new(),
            tiles: Vec::new(),
            tiles_x: 0,
        }
    }

    /// Computes, for `img`, every tile that one of `rects` touches and that
    /// is not computed yet; afterwards every pixel of every rect (clipped
    /// to the image) holds its exact Scharr gradient.
    ///
    /// Missing tiles are computed in rectangular blocks, one row-span pass
    /// through the [`simd`] row helpers each: a run of horizontally
    /// adjacent missing tiles, extended down while the tile rows below are
    /// missing across the whole run. Asked for every tile, this is a single
    /// full-frame pass. The work is timed under
    /// [`perf::KernelCounters::gradient_ns`] and counted in
    /// `gradient_tiles`. A field used with an image of another size starts
    /// over.
    pub fn ensure(&mut self, img: &GrayImage, rects: &[PixelRect]) {
        let (w, h) = (img.width(), img.height());
        if w == 0 || h == 0 {
            return;
        }
        self.bind(w, h);
        let Self {
            field,
            rows,
            tiles,
            tiles_x,
        } = self;
        let (tiles_x, tw, th) = (*tiles_x, TILE_W as usize, TILE_H as usize);
        let (mut row_lo, mut row_hi, mut wanted) = (usize::MAX, 0usize, 0u64);
        for r in rects {
            let Some(c) = r.clipped(w, h) else {
                continue;
            };
            let (tx0, tx1) = (c.x0 as usize / tw, (c.x1 as usize - 1) / tw + 1);
            let (ty0, ty1) = (c.y0 as usize / th, (c.y1 as usize - 1) / th + 1);
            for row in tiles.chunks_exact_mut(tiles_x).take(ty1).skip(ty0) {
                for tile in row.iter_mut().take(tx1).skip(tx0) {
                    if *tile == Tile::Missing {
                        *tile = Tile::Wanted;
                        wanted += 1;
                    }
                }
            }
            row_lo = row_lo.min(ty0);
            row_hi = row_hi.max(ty1);
        }
        if wanted == 0 {
            return;
        }

        let _timer = perf::ScopedTimer::new(|c| &mut c.gradient_ns);
        perf::record(|c| c.gradient_tiles += wanted);
        let (wu, hu) = (w as usize, h as usize);
        let (vbuf, ring) = rows.split_at_mut(wu + 2);
        let is_wanted = |tiles: &[Tile], ty: usize, tx: usize| {
            tx < tiles_x && tiles.get(ty * tiles_x + tx) == Some(&Tile::Wanted)
        };
        for ty in row_lo..row_hi {
            let mut tx = 0;
            while tx < tiles_x {
                if !is_wanted(tiles, ty, tx) {
                    tx += 1;
                    continue;
                }
                let mut end = tx + 1;
                while is_wanted(tiles, ty, end) {
                    end += 1;
                }
                let mut ty_end = ty + 1;
                while ty_end < row_hi && (tx..end).all(|c| is_wanted(tiles, ty_end, c)) {
                    ty_end += 1;
                }
                let span = (tx * tw, (end * tw).min(wu), ty * th, (ty_end * th).min(hu));
                let filled = scharr_span(img, field, span, vbuf, ring);
                debug_assert!(filled.is_some(), "tile span {span:?} out of bounds");
                for r in ty..ty_end {
                    if let Some(run) = tiles.get_mut(r * tiles_x + tx..r * tiles_x + end) {
                        run.fill(Tile::Done);
                    }
                }
                tx = end;
            }
        }
    }

    /// Sizes the planes, the row buffers and the tile bitmap for a `w x h`
    /// image, keeping buffers with the room ([`perf::fit`]). Keeps computed
    /// tiles when the size is unchanged and the field was not cleared.
    fn bind(&mut self, w: u32, h: u32) {
        if (self.field.width, self.field.height) == (w, h) && !self.tiles.is_empty() {
            return;
        }
        let len = w as usize * h as usize;
        perf::fit(&mut self.field.gx, len);
        perf::fit(&mut self.field.gy, len);
        perf::fit(&mut self.rows, 4 * w as usize + 2);
        self.field.width = w;
        self.field.height = h;
        self.tiles_x = w.div_ceil(TILE_W) as usize;
        self.tiles.clear();
        self.tiles
            .resize(self.tiles_x * h.div_ceil(TILE_H) as usize, Tile::Missing);
    }

    /// Forgets every computed tile. The planes and row buffers stay, for
    /// the next [`TiledGradients::ensure`] to refill.
    pub fn clear(&mut self) {
        self.tiles.clear();
    }

    /// Number of tiles computed so far.
    pub fn tiles_computed(&self) -> usize {
        self.tiles.iter().filter(|&&t| t == Tile::Done).count()
    }

    /// `(gx, gy)` at `(x, y)`, or `None` when the pixel lies outside the
    /// field or in a tile that is not computed.
    pub fn get(&self, x: u32, y: u32) -> Option<(f32, f32)> {
        let tile = (y / TILE_H) as usize * self.tiles_x + (x / TILE_W) as usize;
        let inside = x < self.field.width && y < self.field.height;
        if !inside || self.tiles.get(tile) != Some(&Tile::Done) {
            return None;
        }
        Some((self.field.gx(x, y), self.field.gy(x, y)))
    }

    /// The underlying planes. Only pixels of computed tiles are valid, so
    /// this stays inside the crate: readers call
    /// [`TiledGradients::ensure`] over what they read first.
    pub(crate) fn field(&self) -> &GradientField {
        &self.field
    }
}

/// Scharr gradients of `img` over the pixels `[x0, x1) x [y0, y1)` of
/// `span = (x0, x1, y0, y1)`, written into `field` (sized for `img`).
///
/// One fused pass: the ring holds the horizontally smoothed rows `y - 1`,
/// `y`, `y + 1` (each produced just before it is needed), and both
/// gradient rows of `y` are emitted while everything is still in L1 — no
/// full-plane intermediates. Border columns and rows use the replicate
/// rule. All intermediates are integers (smoothed values at most
/// `16 * 255 = 4080`, exact in `u16`), and the differences are scaled by
/// the power of two 1/32, so every value is bit-identical to the two-pass
/// `reference::scharr_gradients_into_scalar`. `vbuf` holds at least
/// `x1 - x0 + 2` values, and `ring` three rows of the image width.
/// Returns `None` only if a span or buffer is out of bounds.
fn scharr_span(
    img: &GrayImage,
    field: &mut GradientField,
    span: (usize, usize, usize, usize),
    vbuf: &mut [u16],
    ring: &mut [u16],
) -> Option<()> {
    const NORM: f32 = 1.0 / 32.0;
    let (x0, x1, y0, y1) = span;
    let (w, h) = (img.width() as usize, img.height() as usize);
    let n = x1 - x0;
    let data = img.as_bytes();
    let row = |y: usize| data.get(y * w..y * w + w);
    // Ring slot of smoothed row `y`: the span's `n` values of the slot.
    let slot = |y: usize| (y % 3) * w..(y % 3) * w + n;
    // Horizontal [3 10 3] smoothing of image row `y` over the span.
    let hsmooth = |y: usize, dst: &mut [u16]| -> Option<()> {
        let mid = row(y)?;
        let (i0, i1) = (x0.max(1), x1.min(w - 1));
        if i0 < i1 {
            simd::smooth313_h_row(mid.get(i0 - 1..i1 + 1)?, dst.get_mut(i0 - x0..i1 - x0)?);
        }
        if x0 == 0 {
            // 13 + 3 taps of u8 pixels: at most 16 * 255 = 4080.
            *dst.first_mut()? =
                13 * u16::from(*mid.first()?) + 3 * u16::from(*mid.get(1.min(w - 1))?);
        }
        if x1 == w && w > 1 {
            *dst.get_mut(n - 1)? = 3 * u16::from(*mid.get(w - 2)?) + 13 * u16::from(*mid.last()?);
        }
        Some(())
    };

    // `vbuf` holds the vertical smoothing of columns x0-1 ..= x1 (n + 2
    // values), the out-of-image ones replicated from the border column,
    // so gx = vbuf[i + 2] - vbuf[i] across the whole span.
    let (a, b) = (x0.saturating_sub(1), (x1 + 1).min(w));
    let lead = usize::from(x0 == 0);
    let vs = vbuf.get_mut(..n + 2)?;
    let mut next_hs = y0.saturating_sub(1);
    for y in y0..y1 {
        let (up, dn) = (y.saturating_sub(1), (y + 1).min(h - 1));
        simd::smooth313_v_row(
            row(up)?.get(a..b)?,
            row(y)?.get(a..b)?,
            row(dn)?.get(a..b)?,
            vs.get_mut(lead..lead + b - a)?,
        );
        if lead == 1 {
            *vs.first_mut()? = *vs.get(1)?;
        }
        if x1 == w {
            *vs.last_mut()? = *vs.get(n)?;
        }
        let at = y * w;
        simd::diff_norm_row(
            vs.get(2..)?,
            vs.get(..n)?,
            NORM,
            field.gx.get_mut(at + x0..at + x1)?,
        );

        // The ring holds the horizontal smoothing of rows next_hs-3 ..
        // next_hs-1; up and dn are always among them once dn is filled.
        while next_hs <= dn {
            hsmooth(next_hs, ring.get_mut(slot(next_hs))?)?;
            next_hs += 1;
        }
        simd::diff_norm_row(
            ring.get(slot(dn))?,
            ring.get(slot(up))?,
            NORM,
            field.gy.get_mut(at + x0..at + x1)?,
        );
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tile of `img`, computed and returned as a whole field.
    fn scharr(img: &GrayImage) -> GradientField {
        let mut tiled = TiledGradients::new();
        let whole = PixelRect::new(0, 0, img.width().into(), img.height().into());
        tiled.ensure(img, &[whole]);
        tiled.field().clone()
    }

    #[test]
    fn gradient_of_flat_image_is_zero() {
        let img = GrayImage::from_fn(8, 8, |_, _| 77);
        let g = scharr(&img);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(g.gx(x, y), 0.0);
                assert_eq!(g.gy(x, y), 0.0);
            }
        }
    }

    #[test]
    fn gradient_of_horizontal_ramp() {
        // intensity = 10 * x -> gx = 10, gy = 0 (away from borders).
        let img = GrayImage::from_fn(16, 16, |x, _| (x * 10).min(255) as u8);
        let g = scharr(&img);
        for y in 2..14 {
            for x in 2..14 {
                if (x * 10) < 245 && ((x + 1) * 10) < 245 {
                    assert!(
                        (g.gx(x, y) - 10.0).abs() < 1e-3,
                        "gx at ({x},{y}) = {}",
                        g.gx(x, y)
                    );
                    assert!(g.gy(x, y).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn gradient_of_vertical_ramp() {
        let img = GrayImage::from_fn(16, 16, |_, y| (y * 8) as u8);
        let g = scharr(&img);
        for y in 2..14 {
            for x in 2..14 {
                assert!((g.gy(x, y) - 8.0).abs() < 1e-3);
                assert!(g.gx(x, y).abs() < 1e-3);
            }
        }
    }

    /// Direct (non-separable) 3x3 Scharr evaluation: the original
    /// implementation, kept as the differential-testing oracle.
    fn scharr_direct(img: &GrayImage) -> (Vec<f32>, Vec<f32>) {
        let w = img.width();
        let h = img.height();
        let mut gx = vec![0.0f32; w as usize * h as usize];
        let mut gy = vec![0.0f32; w as usize * h as usize];
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let p = |dx: i64, dy: i64| img.get_clamped(x + dx, y + dy) as f32;
                let sx = -3.0 * p(-1, -1) + 3.0 * p(1, -1) - 10.0 * p(-1, 0) + 10.0 * p(1, 0)
                    - 3.0 * p(-1, 1)
                    + 3.0 * p(1, 1);
                let sy = -3.0 * p(-1, -1) - 10.0 * p(0, -1) - 3.0 * p(1, -1)
                    + 3.0 * p(-1, 1)
                    + 10.0 * p(0, 1)
                    + 3.0 * p(1, 1);
                let i = y as usize * w as usize + x as usize;
                gx[i] = sx / 32.0;
                gy[i] = sy / 32.0;
            }
        }
        (gx, gy)
    }

    #[test]
    fn separable_matches_direct_evaluation_exactly() {
        for (w, h) in [(16u32, 16u32), (7, 5), (1, 9), (9, 1), (2, 2), (33, 17)] {
            let img = GrayImage::from_fn(w, h, |x, y| {
                ((x.wrapping_mul(131) ^ y.wrapping_mul(37)).wrapping_add(x * y)) as u8
            });
            let g = scharr(&img);
            let (rx, ry) = scharr_direct(&img);
            for y in 0..h {
                for x in 0..w {
                    let i = (y * w + x) as usize;
                    assert_eq!(g.gx(x, y), rx[i], "gx mismatch at ({x},{y}) {w}x{h}");
                    assert_eq!(g.gy(x, y), ry[i], "gy mismatch at ({x},{y}) {w}x{h}");
                }
            }
        }
    }

    #[test]
    fn gradient_sampling_interpolates() {
        let img = GrayImage::from_fn(16, 16, |x, _| (x * 10).min(255) as u8);
        let g = scharr(&img);
        let v = g.sample_gx(5.5, 5.5);
        assert!((v - 10.0).abs() < 1e-3);
        // Out-of-bounds sampling clamps, never panics.
        let _ = g.sample_gx(-10.0, -10.0);
        let _ = g.sample_gy(100.0, 100.0);
    }

    #[test]
    fn dimensions_preserved() {
        let img = GrayImage::new(7, 5);
        let g = scharr(&img);
        assert_eq!((g.width(), g.height()), (7, 5));
    }
}
