//! Spatial-gradient and smoothing kernels.
//!
//! Provides Scharr gradients (the derivative filter both the Shi-Tomasi
//! corner response and the Lucas-Kanade normal equations are built from) and
//! a separable Gaussian blur used when constructing image pyramids.
//!
//! Both kernels are implemented as **separable row-slice passes** writing
//! into caller-provided buffers (`*_into` variants) so the per-frame hot
//! path allocates nothing: intermediate planes come from a
//! [`crate::scratch::ScratchPool`] and outputs are reused across frames.
//! The convenience wrappers ([`scharr_gradients`], [`gaussian_blur`]) keep
//! the original allocating signatures and produce bit-identical results —
//! all intermediate values are small integers, exactly representable in
//! `f32`, and the final division is by a power of two.

use crate::geometry::PixelRect;
use crate::image::GrayImage;
use crate::perf;
use crate::scratch::ScratchPool;
use crate::simd;

/// Horizontal and vertical image derivatives as `f32` planes.
///
/// Produced by [`scharr_gradients`]; row-major, same dimensions as the
/// source image.
#[derive(Debug, Clone)]
pub struct GradientField {
    width: u32,
    height: u32,
    gx: Vec<f32>,
    gy: Vec<f32>,
}

impl GradientField {
    /// An empty 0x0 field, ready to be filled by
    /// [`scharr_gradients_into`] (which resizes it as needed).
    pub fn empty() -> Self {
        Self {
            width: 0,
            height: 0,
            gx: Vec::new(),
            gy: Vec::new(),
        }
    }

    /// Consumes the field, returning its `(gx, gy)` planes for recycling.
    pub fn into_planes(self) -> (Vec<f32>, Vec<f32>) {
        (self.gx, self.gy)
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

    /// The full horizontal-derivative plane, row-major.
    #[inline]
    pub fn gx_plane(&self) -> &[f32] {
        &self.gx
    }

    /// The full vertical-derivative plane, row-major.
    #[inline]
    pub fn gy_plane(&self) -> &[f32] {
        &self.gy
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

/// Computes Scharr derivatives of `img` (normalized by 1/32 so that a unit
/// intensity ramp yields a unit gradient).
///
/// Border pixels use replicate addressing. Allocating wrapper around
/// [`scharr_gradients_into`].
pub fn scharr_gradients(img: &GrayImage) -> GradientField {
    let mut field = GradientField::empty();
    let mut pool = ScratchPool::new();
    scharr_gradients_into(img, &mut field, &mut pool);
    field
}

/// Computes Scharr derivatives of `img` into a reusable `field`, taking
/// intermediate planes from `pool`.
///
/// The Scharr kernels
///
/// ```text
/// Gx = [-3 0 3; -10 0 10; -3 0 3] / 32,   Gy = Gx^T
/// ```
///
/// are separable: `Gx` is a vertical `[3 10 3]` smooth followed by a
/// horizontal central difference (and transposed for `Gy`). With the
/// `simd` feature (default) a fused row-ring pass runs through the
/// [`crate::simd`] row helpers (borders handled outside the vectorized
/// spans); without it the retained [`scharr_gradients_into_scalar`]
/// two-pass baseline runs. Results are bit-identical to the direct 3x3
/// evaluation either way, because every intermediate value is an integer
/// below 2^24 and the lanes are independent pixels.
pub fn scharr_gradients_into(img: &GrayImage, field: &mut GradientField, pool: &mut ScratchPool) {
    #[cfg(feature = "simd")]
    scharr_gradients_into_vec(img, field, pool);
    #[cfg(not(feature = "simd"))]
    scharr_gradients_into_scalar(img, field, pool);
}

/// The fused single-pass implementation behind [`scharr_gradients_into`]
/// when the `simd` feature is on: the span kernel of [`TiledGradients`]
/// over the whole image.
#[cfg(feature = "simd")]
fn scharr_gradients_into_vec(img: &GrayImage, field: &mut GradientField, pool: &mut ScratchPool) {
    let _timer = perf::ScopedTimer::new(|c| &mut c.gradient_ns);
    perf::record(|c| c.gradient_fields += 1);
    let (w, h) = (img.width() as usize, img.height() as usize);
    field.width = img.width();
    field.height = img.height();
    // Every element of both planes is overwritten below, so a bare resize
    // (no clear) suffices.
    field.gx.resize(w * h, 0.0);
    field.gy.resize(w * h, 0.0);
    if w == 0 || h == 0 {
        return;
    }
    let mut vbuf = pool.take_u16(w + 2);
    let mut ring = [pool.take_u16(w), pool.take_u16(w), pool.take_u16(w)];
    let filled = scharr_span(img, field, (0, w, 0, h), &mut vbuf, &mut ring);
    debug_assert!(filled.is_some(), "the whole image is in bounds");
    pool.recycle_u16(vbuf);
    let [r0, r1, r2] = ring;
    pool.recycle_u16(r0);
    pool.recycle_u16(r1);
    pool.recycle_u16(r2);
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
/// keeps full-size `gx`/`gy` planes (taken from a [`ScratchPool`] on first
/// use and never zeroed) plus a per-tile "computed" bitmap;
/// [`TiledGradients::ensure`] fills only the tiles a read needs that are
/// not computed yet. Every value is an integer tap sum times 1/32, so a
/// computed tile is bit-identical to the same pixels of
/// [`scharr_gradients`]. Values are only readable through
/// [`TiledGradients::get`], which refuses pixels of uncomputed tiles.
///
/// # Example
///
/// ```
/// use adavp_vision::geometry::PixelRect;
/// use adavp_vision::gradient::{scharr_gradients, TiledGradients};
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::scratch::ScratchPool;
/// let img = GrayImage::from_fn(100, 70, |x, y| (x * 3 + y * 5) as u8);
/// let mut tiled = TiledGradients::new();
/// // Five pixels of one tile row: a single 32x4 tile.
/// tiled.ensure(&img, &[PixelRect::new(40, 8, 45, 12)], &mut ScratchPool::new());
/// assert_eq!(tiled.tiles_computed(), 1);
/// let full = scharr_gradients(&img);
/// assert_eq!(tiled.get(42, 9), Some((full.gx(42, 9), full.gy(42, 9))));
/// assert_eq!(tiled.get(90, 60), None, "that tile was never asked for");
/// ```
#[derive(Debug, Clone)]
pub struct TiledGradients {
    field: GradientField,
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
    /// `gradient_tiles`. The planes and row buffers come from `pool`. A
    /// field used with an image of another size starts over.
    pub fn ensure(&mut self, img: &GrayImage, rects: &[PixelRect], pool: &mut ScratchPool) {
        let (w, h) = (img.width(), img.height());
        if w == 0 || h == 0 {
            return;
        }
        self.bind(w, h, pool);
        let Self {
            field,
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
        let mut vbuf = pool.take_u16(wu + 2);
        let mut ring = [pool.take_u16(wu), pool.take_u16(wu), pool.take_u16(wu)];
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
                let filled = scharr_span(img, field, span, &mut vbuf, &mut ring);
                debug_assert!(filled.is_some(), "tile span {span:?} out of bounds");
                for r in ty..ty_end {
                    if let Some(run) = tiles.get_mut(r * tiles_x + tx..r * tiles_x + end) {
                        run.fill(Tile::Done);
                    }
                }
                tx = end;
            }
        }
        pool.recycle_u16(vbuf);
        let [r0, r1, r2] = ring;
        pool.recycle_u16(r0);
        pool.recycle_u16(r1);
        pool.recycle_u16(r2);
    }

    /// Sizes the planes and the tile bitmap for a `w x h` image, taking the
    /// planes from `pool` on first use. Keeps computed tiles when the size
    /// is unchanged.
    fn bind(&mut self, w: u32, h: u32, pool: &mut ScratchPool) {
        if (self.field.width, self.field.height) == (w, h) && !self.tiles.is_empty() {
            return;
        }
        let len = w as usize * h as usize;
        if self.field.gx.capacity() == 0 {
            self.field.gx = pool.take_f32(len);
            self.field.gy = pool.take_f32(len);
        }
        self.field.gx.resize(len, 0.0);
        self.field.gy.resize(len, 0.0);
        self.field.width = w;
        self.field.height = h;
        self.tiles_x = w.div_ceil(TILE_W) as usize;
        self.tiles.clear();
        self.tiles
            .resize(self.tiles_x * h.div_ceil(TILE_H) as usize, Tile::Missing);
    }

    /// Forgets every computed tile (the planes stay, for reuse).
    pub fn clear(&mut self) {
        self.tiles.fill(Tile::Missing);
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

    /// Returns the planes to `pool`.
    pub(crate) fn recycle(self, pool: &mut ScratchPool) {
        if self.field.gx.capacity() > 0 {
            let (gx, gy) = self.field.into_planes();
            pool.recycle_f32(gx);
            pool.recycle_f32(gy);
        }
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
/// the power of two 1/32, so every value is bit-identical to the retained
/// two-pass [`scharr_gradients_into_scalar`]. `vbuf` holds at least
/// `x1 - x0 + 2` values, and `ring` three rows of at least `x1 - x0`.
/// Returns `None` only if a span or buffer is out of bounds.
fn scharr_span(
    img: &GrayImage,
    field: &mut GradientField,
    span: (usize, usize, usize, usize),
    vbuf: &mut [u16],
    ring: &mut [Vec<u16>],
) -> Option<()> {
    const NORM: f32 = 1.0 / 32.0;
    let (x0, x1, y0, y1) = span;
    let (w, h) = (img.width() as usize, img.height() as usize);
    let n = x1 - x0;
    let data = img.as_bytes();
    let row = |y: usize| data.get(y * w..y * w + w);
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
            hsmooth(next_hs, ring.get_mut(next_hs % 3)?.get_mut(..n)?)?;
            next_hs += 1;
        }
        simd::diff_norm_row(
            ring.get(dn % 3)?.get(..n)?,
            ring.get(up % 3)?.get(..n)?,
            NORM,
            field.gy.get_mut(at + x0..at + x1)?,
        );
    }
    Some(())
}

/// The pre-vectorization [`scharr_gradients_into`]: plain per-pixel loops
/// and clear-then-resize plane reuse. Retained verbatim as the scalar
/// baseline for parity tests and the `scharr_scalar_256` bench entry;
/// produces bit-identical planes.
// adavp-lint: allow(cast-truncation, item=scharr_gradients_into_scalar, bound=4080) — same fixed-point bounds as the vectorized path: smoothing acc <= 16*255 = 4080, differences in [-4080, 4080]
pub fn scharr_gradients_into_scalar(
    img: &GrayImage,
    field: &mut GradientField,
    pool: &mut ScratchPool,
) {
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

    let mut vsmooth = pool.take_u16(len);
    let mut hsmooth = pool.take_u16(len);
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

    pool.recycle_u16(vsmooth);
    pool.recycle_u16(hsmooth);
}

/// Raw fixed-point Scharr derivatives: row-major `i16` planes holding
/// `32 * gradient` (range `[-4080, 4080]`).
///
/// This is the narrowest exact representation of an 8-bit image's Scharr
/// response — half the bytes of a [`GradientField`], which matters when a
/// consumer stores or streams many fields and can defer the (lossless)
/// widening to [`GradientFieldI16::to_f32_into`].
#[derive(Debug, Clone)]
pub struct GradientFieldI16 {
    width: u32,
    height: u32,
    gx: Vec<i16>,
    gy: Vec<i16>,
}

impl GradientFieldI16 {
    /// An empty 0x0 field, ready to be filled by
    /// [`scharr_gradients_i16_into`].
    pub fn empty() -> Self {
        Self {
            width: 0,
            height: 0,
            gx: Vec::new(),
            gy: Vec::new(),
        }
    }

    /// Consumes the field, returning its `(gx, gy)` planes for recycling.
    pub fn into_planes(self) -> (Vec<i16>, Vec<i16>) {
        (self.gx, self.gy)
    }

    /// Field width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Field height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw horizontal derivative (`32 * gx`) at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn gx_raw(&self, x: u32, y: u32) -> i16 {
        self.gx[y as usize * self.width as usize + x as usize]
    }

    /// Raw vertical derivative (`32 * gy`) at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn gy_raw(&self, x: u32, y: u32) -> i16 {
        self.gy[y as usize * self.width as usize + x as usize]
    }

    /// Widens this field into a normalized `f32` [`GradientField`].
    ///
    /// Lossless: every raw value is an integer in `[-4080, 4080]` and the
    /// 1/32 normalization is a power of two, so the result is bit-identical
    /// to computing [`scharr_gradients_into`] directly.
    pub fn to_f32_into(&self, field: &mut GradientField) {
        let len = self.gx.len();
        field.width = self.width;
        field.height = self.height;
        field.gx.resize(len, 0.0);
        field.gy.resize(len, 0.0);
        const NORM: f32 = 1.0 / 32.0;
        simd::i16_norm_row(&self.gx, NORM, &mut field.gx);
        simd::i16_norm_row(&self.gy, NORM, &mut field.gy);
    }
}

/// [`scharr_gradients_into`] producing raw `i16` fixed-point planes
/// (`32 * gradient`) instead of normalized `f32`.
///
/// Same separable smoothing passes; the final differencing stays in
/// integer arithmetic ([`simd::diff_i16_row`]), so this writes half the
/// output bytes of the `f32` kernel. Widening the result with
/// [`GradientFieldI16::to_f32_into`] reproduces the `f32` kernel's planes
/// bit for bit.
// adavp-lint: allow(cast-truncation, item=scharr_gradients_i16_into, bound=4080) — smoothing acc <= 4080 in u16; raw differences in [-4080, 4080] fit i16 exactly
pub fn scharr_gradients_i16_into(
    img: &GrayImage,
    field: &mut GradientFieldI16,
    pool: &mut ScratchPool,
) {
    let _timer = perf::ScopedTimer::new(|c| &mut c.gradient_ns);
    let w = img.width() as usize;
    let h = img.height() as usize;
    let len = w * h;
    perf::record(|c| c.fixed_point_rows += h as u64);
    field.width = img.width();
    field.height = img.height();
    field.gx.resize(len, 0);
    field.gy.resize(len, 0);

    // Same fused row-ring structure as the `f32` kernel; only the final
    // differencing stays in `i16`.
    let mut vrow = pool.take_u16(w);
    let mut ring = [pool.take_u16(w), pool.take_u16(w), pool.take_u16(w)];
    let data = img.as_bytes();
    let hsm = |mid: &[u8], dst: &mut [u16]| {
        dst[0] = 13 * mid[0] as u16 + 3 * mid[1.min(w - 1)] as u16;
        if w > 2 {
            simd::smooth313_h_row(mid, &mut dst[1..w - 1]);
        }
        if w > 1 {
            dst[w - 1] = 3 * mid[w - 2] as u16 + 13 * mid[w - 1] as u16;
        }
    };
    if len > 0 {
        hsm(&data[..w], &mut ring[0]);
        if h > 1 {
            hsm(&data[w..2 * w], &mut ring[1]);
        }
    }

    for y in 0..h {
        if y > 0 && y + 1 < h {
            let nxt = y + 1;
            hsm(&data[nxt * w..(nxt + 1) * w], &mut ring[nxt % 3]);
        }
        let up_r = y.saturating_sub(1);
        let dn_r = (y + 1).min(h - 1);
        simd::smooth313_v_row(
            &data[up_r * w..up_r * w + w],
            &data[y * w..y * w + w],
            &data[dn_r * w..dn_r * w + w],
            &mut vrow,
        );

        let gxr = &mut field.gx[y * w..(y + 1) * w];
        if w >= 2 {
            gxr[0] = (vrow[1] as i32 - vrow[0] as i32) as i16;
            simd::diff_i16_row(&vrow[2..], &vrow[..w - 2], &mut gxr[1..w - 1]);
            gxr[w - 1] = (vrow[w - 1] as i32 - vrow[w - 2] as i32) as i16;
        } else {
            gxr[0] = 0;
        }

        let gyr = &mut field.gy[y * w..(y + 1) * w];
        simd::diff_i16_row(&ring[dn_r % 3], &ring[up_r % 3], gyr);
    }

    pool.recycle_u16(vrow);
    let [r0, r1, r2] = ring;
    pool.recycle_u16(r0);
    pool.recycle_u16(r1);
    pool.recycle_u16(r2);
}

/// Separable Gaussian blur with a 5-tap binomial kernel `[1 4 6 4 1] / 16`.
///
/// Used to pre-smooth images before pyramid downsampling so the Lucas-Kanade
/// linearization holds at coarse levels. Allocating wrapper around
/// [`gaussian_blur_into`].
pub fn gaussian_blur(img: &GrayImage) -> GrayImage {
    let mut out = GrayImage::new(img.width(), img.height());
    let mut pool = ScratchPool::new();
    gaussian_blur_into(img, &mut out, &mut pool);
    out
}

/// [`gaussian_blur`] into a caller-provided output image of the same size,
/// taking the intermediate plane from `pool`.
///
/// Both separable passes run on row slices; only the four border
/// rows/columns take the clamped slow path. With the `fixed-point` feature
/// (default) the interior rows run through the `u16` [`crate::simd`]
/// helpers ([`simd::blur5_h_row`] / [`simd::blur5_v_row`]); otherwise the
/// retained [`gaussian_blur_into_scalar`] wide-integer path runs. Output
/// bytes are identical either way (the accumulator maxes at
/// `16 * 255 = 4080`, exact in both widths).
///
/// # Panics
///
/// Panics if `out` dimensions differ from `img`.
pub fn gaussian_blur_into(img: &GrayImage, out: &mut GrayImage, pool: &mut ScratchPool) {
    #[cfg(feature = "fixed-point")]
    gaussian_blur_into_fixed(img, out, pool);
    #[cfg(not(feature = "fixed-point"))]
    gaussian_blur_into_scalar(img, out, pool);
}

/// Fixed-point [`gaussian_blur_into`]: `u16` accumulators and vectorized
/// interior rows. Bit-identical to [`gaussian_blur_into_scalar`].
///
/// # Panics
///
/// Panics if `out` dimensions differ from `img`.
// adavp-lint: allow(cast-truncation, item=gaussian_blur_into_fixed, bound=255) — widening u8 pixel reads into the u16 tap accumulator (max 16*255 = 4080)
pub fn gaussian_blur_into_fixed(img: &GrayImage, out: &mut GrayImage, pool: &mut ScratchPool) {
    assert!(
        out.width() == img.width() && out.height() == img.height(),
        "blur output must match input dimensions"
    );
    const K: [u16; 5] = [1, 4, 6, 4, 1];
    let w = img.width() as usize;
    let h = img.height() as usize;
    perf::record(|c| {
        c.gaussian_blurs += 1;
        c.fixed_point_rows += h as u64;
    });
    let data = img.as_bytes();

    // Horizontal pass into a u16 plane (max 255 * 16 = 4080 < 65535, so
    // the narrow accumulator is exact).
    let mut tmp = pool.take_u16(w * h);
    for y in 0..h {
        let src = &data[y * w..(y + 1) * w];
        let dst = &mut tmp[y * w..(y + 1) * w];
        if w >= 5 {
            // Borders (2 pixels each side) with clamped addressing.
            for x in [0usize, 1, w - 2, w - 1] {
                let mut acc = 0u16;
                for (k, &kv) in K.iter().enumerate() {
                    let sx = (x as i64 + k as i64 - 2).clamp(0, w as i64 - 1) as usize;
                    acc += kv * src[sx] as u16;
                }
                dst[x] = acc / 16;
            }
            simd::blur5_h_row(src, &mut dst[2..w - 2]);
        } else {
            for (x, d) in dst.iter_mut().enumerate() {
                let mut acc = 0u16;
                for (k, &kv) in K.iter().enumerate() {
                    let sx = (x as i64 + k as i64 - 2).clamp(0, w as i64 - 1) as usize;
                    acc += kv * src[sx] as u16;
                }
                *d = acc / 16;
            }
        }
    }

    // Vertical pass over clamped row slices of the intermediate plane.
    let out_bytes = out.as_mut_bytes();
    for y in 0..h {
        let yy = y as i64;
        let row = |ry: i64| -> &[u16] {
            let cy = ry.clamp(0, h as i64 - 1) as usize;
            &tmp[cy * w..(cy + 1) * w]
        };
        let (r0, r1, r2, r3, r4) = (row(yy - 2), row(yy - 1), row(yy), row(yy + 1), row(yy + 2));
        let dst = &mut out_bytes[y * w..(y + 1) * w];
        simd::blur5_v_row(r0, r1, r2, r3, r4, dst);
    }
    pool.recycle_u16(tmp);
}

/// The pre-vectorization [`gaussian_blur_into`] with `u32` accumulators.
/// Retained verbatim as the scalar baseline for parity tests and the
/// `gaussian_blur_scalar_256` bench entry; produces identical bytes.
///
/// # Panics
///
/// Panics if `out` dimensions differ from `img`.
// adavp-lint: allow(cast-truncation, item=gaussian_blur_into_scalar, bound=255) — u8 pixels widen to u32; acc <= 4080 so acc/16 <= 255 fits both the u16 staging row and the final u8 store
pub fn gaussian_blur_into_scalar(img: &GrayImage, out: &mut GrayImage, pool: &mut ScratchPool) {
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
    let mut tmp = pool.take_u16(w * h);
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
    pool.recycle_u16(tmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_flat_image_is_zero() {
        let img = GrayImage::from_fn(8, 8, |_, _| 77);
        let g = scharr_gradients(&img);
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
        let g = scharr_gradients(&img);
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
        let g = scharr_gradients(&img);
        for y in 2..14 {
            for x in 2..14 {
                assert!((g.gy(x, y) - 8.0).abs() < 1e-3);
                assert!(g.gx(x, y).abs() < 1e-3);
            }
        }
    }

    /// Direct (non-separable) 3x3 Scharr evaluation: the original
    /// implementation, kept as the differential-testing oracle.
    fn scharr_reference(img: &GrayImage) -> (Vec<f32>, Vec<f32>) {
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
            let g = scharr_gradients(&img);
            let (rx, ry) = scharr_reference(&img);
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
    fn vectorized_scharr_matches_scalar_baseline_bit_for_bit() {
        for (w, h) in [(16u32, 16u32), (7, 5), (1, 9), (9, 1), (2, 2), (33, 17)] {
            let img = GrayImage::from_fn(w, h, |x, y| {
                ((x.wrapping_mul(151) ^ y.wrapping_mul(41)).wrapping_add(x + 3 * y)) as u8
            });
            let mut pool = ScratchPool::new();
            let mut fast = GradientField::empty();
            scharr_gradients_into(&img, &mut fast, &mut pool);
            let mut scalar = GradientField::empty();
            scharr_gradients_into_scalar(&img, &mut scalar, &mut pool);
            assert_eq!(fast.gx, scalar.gx, "gx diverged at {w}x{h}");
            assert_eq!(fast.gy, scalar.gy, "gy diverged at {w}x{h}");
        }
    }

    #[test]
    fn i16_scharr_widens_to_f32_field_bit_for_bit() {
        for (w, h) in [(16u32, 16u32), (7, 5), (1, 9), (9, 1), (2, 2), (33, 17)] {
            let img = GrayImage::from_fn(w, h, |x, y| {
                ((x.wrapping_mul(131) ^ y.wrapping_mul(37)).wrapping_add(x * y)) as u8
            });
            let mut pool = ScratchPool::new();
            let mut raw = GradientFieldI16::empty();
            scharr_gradients_i16_into(&img, &mut raw, &mut pool);
            let mut widened = GradientField::empty();
            raw.to_f32_into(&mut widened);
            let mut oracle = GradientField::empty();
            scharr_gradients_into(&img, &mut oracle, &mut pool);
            assert_eq!((widened.width(), widened.height()), (w, h));
            assert_eq!(widened.gx, oracle.gx, "gx diverged at {w}x{h}");
            assert_eq!(widened.gy, oracle.gy, "gy diverged at {w}x{h}");
            // Raw values really are 32x the normalized gradient.
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(raw.gx_raw(x, y) as f32, oracle.gx(x, y) * 32.0);
                    assert_eq!(raw.gy_raw(x, y) as f32, oracle.gy(x, y) * 32.0);
                }
            }
        }
    }

    #[test]
    fn fixed_point_blur_matches_scalar_baseline_bytes() {
        for (w, h) in [(10u32, 10u32), (5, 5), (4, 7), (3, 3), (1, 6), (31, 9)] {
            let img = GrayImage::from_fn(w, h, |x, y| {
                (x.wrapping_mul(89) ^ y.wrapping_mul(53)).wrapping_add(13 * x) as u8
            });
            let mut pool = ScratchPool::new();
            let mut fixed = GrayImage::new(w, h);
            gaussian_blur_into_fixed(&img, &mut fixed, &mut pool);
            let mut scalar = GrayImage::new(w, h);
            gaussian_blur_into_scalar(&img, &mut scalar, &mut pool);
            assert_eq!(fixed, scalar, "blur bytes diverged at {w}x{h}");
        }
        // Saturating content: all-255 image must survive both paths.
        let max = GrayImage::from_fn(9, 9, |_, _| 255);
        let mut pool = ScratchPool::new();
        let mut fixed = GrayImage::new(9, 9);
        gaussian_blur_into_fixed(&max, &mut fixed, &mut pool);
        assert!(fixed.as_bytes().iter().all(|&v| v == 255));
    }

    #[test]
    fn into_variant_reuses_field_buffers() {
        let a = GrayImage::from_fn(12, 10, |x, y| (x * 3 + y) as u8);
        let b = GrayImage::from_fn(8, 8, |x, y| (x ^ y) as u8);
        let mut field = GradientField::empty();
        let mut pool = ScratchPool::new();
        scharr_gradients_into(&a, &mut field, &mut pool);
        assert_eq!((field.width(), field.height()), (12, 10));
        crate::perf::reset();
        scharr_gradients_into(&b, &mut field, &mut pool);
        assert_eq!((field.width(), field.height()), (8, 8));
        let work = crate::perf::snapshot();
        assert_eq!(
            work.buffers_allocated, 0,
            "smoothing scratch must be pooled"
        );
        // The fused pass takes 4 row buffers; the scalar baseline takes 2
        // full planes.
        let expected = if cfg!(feature = "simd") { 4 } else { 2 };
        assert_eq!(work.buffers_reused, expected);
        let oracle = scharr_gradients(&b);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(field.gx(x, y), oracle.gx(x, y));
                assert_eq!(field.gy(x, y), oracle.gy(x, y));
            }
        }
    }

    #[test]
    fn gradient_sampling_interpolates() {
        let img = GrayImage::from_fn(16, 16, |x, _| (x * 10).min(255) as u8);
        let g = scharr_gradients(&img);
        let v = g.sample_gx(5.5, 5.5);
        assert!((v - 10.0).abs() < 1e-3);
        // Out-of-bounds sampling clamps, never panics.
        let _ = g.sample_gx(-10.0, -10.0);
        let _ = g.sample_gy(100.0, 100.0);
    }

    #[test]
    fn dimensions_preserved() {
        let img = GrayImage::new(7, 5);
        let g = scharr_gradients(&img);
        assert_eq!((g.width(), g.height()), (7, 5));
        let b = gaussian_blur(&img);
        assert_eq!((b.width(), b.height()), (7, 5));
    }

    #[test]
    fn blur_preserves_flat_regions() {
        let img = GrayImage::from_fn(10, 10, |_, _| 128);
        let b = gaussian_blur(&img);
        for y in 0..10 {
            for x in 0..10 {
                assert!((b.get(x, y) as i32 - 128).abs() <= 1);
            }
        }
    }

    /// The original two-pass clamped-get blur, kept as the oracle.
    fn blur_reference(img: &GrayImage) -> GrayImage {
        const K: [u32; 5] = [1, 4, 6, 4, 1];
        let w = img.width();
        let h = img.height();
        let mut tmp = vec![0u16; w as usize * h as usize];
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let mut acc = 0u32;
                for (k, &kv) in K.iter().enumerate() {
                    acc += kv * img.get_clamped(x + k as i64 - 2, y) as u32;
                }
                tmp[y as usize * w as usize + x as usize] = (acc / 16) as u16;
            }
        }
        let tmp_at = |x: i64, y: i64| -> u32 {
            let cx = x.clamp(0, w as i64 - 1) as usize;
            let cy = y.clamp(0, h as i64 - 1) as usize;
            tmp[cy * w as usize + cx] as u32
        };
        let mut out = GrayImage::new(w, h);
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let mut acc = 0u32;
                for (k, &kv) in K.iter().enumerate() {
                    acc += kv * tmp_at(x, y + k as i64 - 2);
                }
                out.set(x as u32, y as u32, (acc / 16).min(255) as u8);
            }
        }
        out
    }

    #[test]
    fn slice_blur_matches_reference_exactly() {
        for (w, h) in [(10u32, 10u32), (5, 5), (4, 7), (3, 3), (1, 6), (31, 9)] {
            let img = GrayImage::from_fn(w, h, |x, y| {
                (x.wrapping_mul(89) ^ y.wrapping_mul(53)).wrapping_add(13 * x) as u8
            });
            assert_eq!(
                gaussian_blur(&img),
                blur_reference(&img),
                "blur mismatch at {w}x{h}"
            );
        }
    }

    #[test]
    fn blur_smooths_impulse() {
        let mut img = GrayImage::new(9, 9);
        img.set(4, 4, 255);
        let b = gaussian_blur(&img);
        // Impulse energy spreads: centre is reduced, neighbours nonzero.
        assert!(b.get(4, 4) < 255);
        assert!(b.get(3, 4) > 0);
        assert!(b.get(4, 3) > 0);
        // Far corner untouched.
        assert_eq!(b.get(0, 0), 0);
    }
}
