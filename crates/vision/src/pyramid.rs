//! Gaussian image pyramids for coarse-to-fine optical flow.
//!
//! A [`Pyramid`] holds the original image at level 0 and successively
//! blurred-and-halved versions at higher levels. Pyramidal Lucas-Kanade
//! ([`crate::flow::PyramidalLk`]) starts at the coarsest level, where large
//! motions shrink to sub-pixel displacements, and refines the estimate down
//! to level 0.
//!
//! Three hot-path services live here beyond plain construction:
//!
//! * **Row-streamed levels** — each derived level comes from one kernel,
//!   [`blur_downsample_into`]. It blurs every source row horizontally once
//!   into a six-row ring of `u16` rows, then blurs vertically only the two
//!   rows each output row reads and box-downsamples them in the same pass.
//!   No full-size intermediate plane or blurred image exists. The integer
//!   operations are those of the two-pass oracles
//!   (`reference::gaussian_blur_into_scalar` then
//!   `reference::downsample_into_scalar`), so the bytes are identical.
//! * **Buffer ownership** — a pyramid owns its level images, its
//!   per-level gradient planes and the row buffers of its kernels.
//!   [`Pyramid::rebuild`] rewrites them in place for a new frame and
//!   forgets every computed gradient tile, so a tracker that keeps its
//!   retired pyramid and rebuilds it reaches a steady state with **zero**
//!   heap allocations (observable through [`crate::perf`]). A kept buffer
//!   is truncated, never re-zeroed: every kernel overwrites what it reads,
//!   so a rebuild does strictly less work than a fresh build, and the
//!   gradient planes (the largest buffers) keep their pages.
//! * **Demand-driven gradients** — each level carries a
//!   [`TiledGradients`] field. Readers state what they read through
//!   [`Pyramid::ensure_gradients`], which computes only the Scharr tiles
//!   not computed yet: Shi-Tomasi asks for its boxes on level 0, and
//!   Lucas-Kanade for its windows on every level. The tracker reads a small
//!   share of each level, so most of the frame is never differentiated, and
//!   no tile is computed twice for one pyramid.

use crate::geometry::PixelRect;
use crate::gradient::TiledGradients;
use crate::image::GrayImage;
use crate::perf;
use crate::simd;

/// A Gaussian image pyramid (level 0 = full resolution), with
/// demand-driven Scharr gradients per level.
///
/// # Example
///
/// ```
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::pyramid::Pyramid;
/// let img = GrayImage::new(64, 48);
/// let mut pyr = Pyramid::build(&img, 3);
/// assert_eq!(pyr.levels(), 3);
/// assert_eq!(pyr.level(1).width(), 32);
/// assert_eq!(pyr.level(2).width(), 16);
/// // The next frame reuses every buffer.
/// let before = adavp_vision::perf::snapshot();
/// pyr.rebuild(&GrayImage::from_fn(64, 48, |x, _| x as u8));
/// assert_eq!(adavp_vision::perf::snapshot().since(&before).buffers_allocated, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Pyramid {
    /// The most levels [`Pyramid::rebuild`] builds.
    max_levels: u32,
    levels: Vec<GrayImage>,
    /// One gradient field per level; tiles are computed on demand.
    grads: Vec<TiledGradients>,
    /// The level kernel's row buffers, sized for the base width.
    rows: LevelRows,
}

impl Pyramid {
    /// Minimum side length below which no further levels are built.
    pub const MIN_SIDE: u32 = 8;

    /// Builds a pyramid with at most `max_levels` levels (at least 1),
    /// allocating every buffer.
    ///
    /// Level construction stops early when the next level would have a side
    /// shorter than [`Pyramid::MIN_SIDE`] pixels. A per-frame caller keeps
    /// a retired pyramid and calls [`Pyramid::rebuild`] instead.
    pub fn build(base: &GrayImage, max_levels: u32) -> Self {
        let mut pyr = Self {
            max_levels: max_levels.max(1),
            levels: Vec::new(),
            grads: Vec::new(),
            rows: LevelRows::default(),
        };
        pyr.rebuild(base);
        pyr
    }

    /// Rebuilds the pyramid over `base` in place, with the depth it was
    /// built with, and forgets every computed gradient tile
    /// ([`TiledGradients::clear`]).
    ///
    /// Level images, gradient planes and row buffers with the room are
    /// kept and overwritten, not re-zeroed; the levels and tiles are those
    /// of a fresh [`Pyramid::build`] bit for bit. [`perf`] counts each kept
    /// buffer in `buffers_reused` (a gradient plane when a read next asks
    /// for its level) and each one that had to grow in
    /// `buffers_allocated`, so a same-size rebuild allocates nothing.
    pub fn rebuild(&mut self, base: &GrayImage) {
        let _timer = perf::ScopedTimer::new(|c| &mut c.pyramid_ns);
        perf::record(|c| c.pyramid_builds += 1);
        let (w, h) = (base.width(), base.height());
        let depth = (1..self.max_levels)
            .take_while(|&l| (w >> l) >= Self::MIN_SIDE && (h >> l) >= Self::MIN_SIDE)
            .count()
            + 1;
        self.levels.resize_with(depth, || GrayImage::new(0, 0));
        self.grads.resize_with(depth, TiledGradients::new);
        self.grads.iter_mut().for_each(TiledGradients::clear);
        if depth > 1 {
            self.rows.fit(w as usize);
        }
        let Some((first, rest)) = self.levels.split_first_mut() else {
            return;
        };
        first.reshape(w, h);
        first.as_mut_bytes().copy_from_slice(base.as_bytes());
        let mut above: &GrayImage = first;
        for level in rest {
            level.reshape(above.width() / 2, above.height() / 2);
            blur_downsample_with(above, level, &mut self.rows);
            above = level;
        }
    }

    /// Number of levels actually built.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The image at `level` (0 = full resolution).
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.levels()`.
    pub fn level(&self, level: usize) -> &GrayImage {
        &self.levels[level]
    }

    /// The full-resolution base image.
    pub fn base(&self) -> &GrayImage {
        self.level(0)
    }

    /// Iterator over levels from coarsest to finest (the order in which
    /// pyramidal LK visits them).
    pub fn iter_coarse_to_fine(&self) -> impl Iterator<Item = (usize, &GrayImage)> {
        self.levels.iter().enumerate().rev()
    }

    /// Makes the Scharr gradients of `level` exact on every pixel of every
    /// rect (clipped to the level), computing only the tiles that are not
    /// computed yet, into the level's own planes. A `level` past the last
    /// one is ignored.
    pub fn ensure_gradients(&mut self, level: usize, rects: &[PixelRect]) {
        if let (Some(img), Some(grads)) = (self.levels.get(level), self.grads.get_mut(level)) {
            grads.ensure(img, rects);
        }
    }

    /// Exchanges the gradient planes of `self` and `other` and forgets every
    /// computed tile of both. A tracker hands the planes of the reference
    /// it retires to the pyramid that becomes its reference, the only one
    /// whose gradients it reads, so it keeps one set of planes, not two.
    pub fn swap_gradients(&mut self, other: &mut Self) {
        std::mem::swap(&mut self.grads, &mut other.grads);
        for pyr in [self, other] {
            pyr.grads.resize_with(pyr.levels.len(), TiledGradients::new);
            pyr.grads.iter_mut().for_each(TiledGradients::clear);
        }
    }

    /// The per-level gradient fields. Only the tiles that
    /// [`Pyramid::ensure_gradients`] computed are valid, so this stays
    /// inside the crate.
    pub(crate) fn tiled_gradients(&self) -> &[TiledGradients] {
        &self.grads
    }
}

/// Source rows of horizontal blur [`blur_downsample_into`] keeps: the two
/// blurred rows under output row `y` read source rows `2y - 2 ..= 2y + 3`.
const RING_ROWS: usize = 6;

/// The row buffers of the level kernel: two vertically blurred byte rows
/// and a ring of [`RING_ROWS`] horizontally blurred `u16` rows.
#[derive(Debug, Clone, Default)]
struct LevelRows {
    bytes: Vec<u8>,
    ring: Vec<u16>,
}

impl LevelRows {
    /// Sizes both buffers for sources up to `width` pixels wide.
    fn fit(&mut self, width: usize) {
        perf::fit(&mut self.bytes, 2 * width);
        perf::fit(&mut self.ring, RING_ROWS * width);
    }
}

/// One pyramid step: the 5-tap binomial blur `[1 4 6 4 1] / 16` of `src`
/// (replicated borders), 2x2 box-downsampled into `out`, which must be
/// `(width / 2).max(1) x (height / 2).max(1)`.
///
/// Row-streamed: each source row is blurred horizontally once, into a ring
/// of six `u16` rows, and only the two blurred rows each output row reads
/// are blurred vertically, then box-filtered in the same pass (odd
/// trailing rows and columns are dropped, and a 1-pixel-wide or -tall
/// source replicates its border, as OpenCV's `pyrDown` sizing does). Every
/// value is the integer the two-pass oracles compute
/// (`reference::gaussian_blur_into_scalar`, then
/// `reference::downsample_into_scalar`), so the bytes are identical. The
/// counters are those of the two-pass build this kernel replaced: one blur
/// and `height` fixed-point rows, even though the last row of an
/// odd-height source is never blurred vertically, then one downsample and
/// its output rows (unless a side is 1 pixel). This standalone form
/// allocates its two row buffers per call; a [`Pyramid`] keeps its own.
///
/// # Panics
///
/// Panics if `out` has the wrong dimensions.
///
/// # Example
///
/// ```
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::pyramid::blur_downsample_into;
/// let flat = GrayImage::from_fn(9, 7, |_, _| 90);
/// let mut half = GrayImage::new(4, 3);
/// blur_downsample_into(&flat, &mut half);
/// assert!(half.as_bytes().iter().all(|&v| v == 90));
/// ```
pub fn blur_downsample_into(src: &GrayImage, out: &mut GrayImage) {
    let mut rows = LevelRows::default();
    rows.fit(src.width() as usize);
    blur_downsample_with(src, out, &mut rows);
}

/// [`blur_downsample_into`] over `rows`, sized for at least `src`'s width.
fn blur_downsample_with(src: &GrayImage, out: &mut GrayImage, rows: &mut LevelRows) {
    let (w, h) = (src.width() as usize, src.height() as usize);
    let (nw, nh) = ((w / 2).max(1), (h / 2).max(1));
    assert!(
        (out.width() as usize, out.height() as usize) == (nw, nh),
        "blur_downsample output must be {nw}x{nh}"
    );
    perf::record(|c| {
        c.gaussian_blurs += 1;
        c.downsamples += 1;
        c.fixed_point_rows += h as u64;
        if w >= 2 && h >= 2 {
            c.fixed_point_rows += nh as u64;
        }
    });
    if w == 0 || h == 0 {
        return;
    }
    let streamed = stream_level(src, out, &mut rows.bytes, &mut rows.ring);
    debug_assert!(
        streamed.is_some(),
        "row buffers are sized for the base width"
    );
}

/// The body of [`blur_downsample_into`] over its buffers: `rows` holds two
/// source rows of bytes and `ring` [`RING_ROWS`] rows of `u16`. Returns
/// `None` only if a buffer is too short.
fn stream_level(
    src: &GrayImage,
    out: &mut GrayImage,
    rows: &mut [u8],
    ring: &mut [u16],
) -> Option<()> {
    let (w, h) = (src.width() as usize, src.height() as usize);
    let nw = out.width() as usize;
    let data = src.as_bytes();
    let slot = |y: usize| (y % RING_ROWS) * w..(y % RING_ROWS + 1) * w;
    let (b0, b1) = rows.get_mut(..2 * w)?.split_at_mut(w);
    // Per output row: blur horizontally the source rows not in the ring
    // yet (`ready` is the next one), blur rows `sy` and `sy1` vertically
    // into `b0`/`b1`, and box-filter them into the output row.
    let mut ready = 0;
    for (oy, dst) in out.as_mut_bytes().chunks_exact_mut(nw).enumerate() {
        let sy = (2 * oy).min(h - 1);
        let sy1 = (sy + 1).min(h - 1);
        while ready <= (sy1 + 2).min(h - 1) {
            blur5_h(
                data.get(ready * w..(ready + 1) * w)?,
                ring.get_mut(slot(ready))?,
            )?;
            ready += 1;
        }
        for (y, b) in [(sy, &mut *b0), (sy1, &mut *b1)] {
            let at = |dy: usize| ring.get(slot(dy.min(h - 1)));
            simd::blur5_v_row(
                at(y.saturating_sub(2))?,
                at(y.saturating_sub(1))?,
                at(y)?,
                at(y + 1)?,
                at(y + 2)?,
                b,
            );
        }
        if w >= 2 {
            simd::box2_row(b0, b1, dst);
        } else {
            // One column: the box's right taps replicate the left ones.
            let (p, q) = (*b0.first()?, *b1.first()?);
            simd::box2_row(&[p, p], &[q, q], dst);
        }
    }
    Some(())
}

/// Horizontal `[1 4 6 4 1] / 16` blur of one row into `dst` (same
/// length): the interior through [`simd::blur5_h_row`], the two columns at
/// each border with replicated taps.
fn blur5_h(src: &[u8], dst: &mut [u16]) -> Option<()> {
    let w = src.len();
    let tap = |x: usize| src.get(x.min(w - 1)).copied().map(u16::from);
    let clamped = |x: usize| -> Option<u16> {
        let acc = tap(x.saturating_sub(2))?
            + 4 * tap(x.saturating_sub(1))?
            + 6 * tap(x)?
            + 4 * tap(x + 1)?
            + tap(x + 2)?;
        Some(acc / 16)
    };
    if w >= 5 {
        simd::blur5_h_row(src, dst.get_mut(2..w - 2)?);
        for x in [0, 1, w - 2, w - 1] {
            *dst.get_mut(x)? = clamped(x)?;
        }
    } else {
        for (x, d) in dst.iter_mut().enumerate() {
            *d = clamped(x)?;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_levels() {
        let img = GrayImage::new(128, 128);
        let pyr = Pyramid::build(&img, 4);
        assert_eq!(pyr.levels(), 4);
        assert_eq!(pyr.level(0).width(), 128);
        assert_eq!(pyr.level(3).width(), 16);
        assert_eq!(pyr.base().width(), 128);
    }

    #[test]
    fn stops_when_too_small() {
        let img = GrayImage::new(20, 20);
        let pyr = Pyramid::build(&img, 8);
        // 20 -> 10 -> (5 < MIN_SIDE, stop): 2 levels.
        assert_eq!(pyr.levels(), 2);
    }

    #[test]
    fn at_least_one_level() {
        let img = GrayImage::new(4, 4);
        let pyr = Pyramid::build(&img, 0);
        assert_eq!(pyr.levels(), 1);
    }

    #[test]
    fn coarse_to_fine_order() {
        let img = GrayImage::new(64, 64);
        let pyr = Pyramid::build(&img, 3);
        let order: Vec<usize> = pyr.iter_coarse_to_fine().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn downsampled_content_tracks_base() {
        // A bright left half stays bright-left at every level.
        let img = GrayImage::from_fn(64, 64, |x, _| if x < 32 { 200 } else { 20 });
        let pyr = Pyramid::build(&img, 3);
        for l in 0..pyr.levels() {
            let im = pyr.level(l);
            let w = im.width();
            assert!(im.get(w / 8, im.height() / 2) > im.get(w - 1 - w / 8, im.height() / 2));
        }
    }

    fn level_of(img: &GrayImage) -> GrayImage {
        let mut out = GrayImage::new((img.width() / 2).max(1), (img.height() / 2).max(1));
        blur_downsample_into(img, &mut out);
        out
    }

    #[test]
    fn level_kernel_halves_and_keeps_flat_regions() {
        let flat = level_of(&GrayImage::from_fn(10, 10, |_, _| 128));
        assert_eq!((flat.width(), flat.height()), (5, 5));
        assert!(flat.as_bytes().iter().all(|&v| v == 128));
        let odd = level_of(&GrayImage::from_fn(8, 7, |_, _| 100));
        assert_eq!((odd.width(), odd.height()), (4, 3));
        assert!(odd.as_bytes().iter().all(|&v| v == 100));
        // 1x1 stays 1x1.
        let tiny = level_of(&GrayImage::from_fn(1, 1, |_, _| 9));
        assert_eq!(tiny.as_bytes(), &[9]);
    }

    #[test]
    fn level_kernel_spreads_an_impulse() {
        let mut img = GrayImage::new(18, 18);
        img.set(8, 8, 255);
        let half = level_of(&img);
        // The impulse's energy spreads: the centre is reduced, neighbours
        // are lit, and the far corner is untouched.
        assert!(half.get(4, 4) > 0 && half.get(4, 4) < 255);
        assert!(half.get(3, 4) > 0 && half.get(4, 3) > 0);
        assert_eq!(half.get(0, 0), 0);
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let pattern = |w: u32, h: u32, k: u32| {
            GrayImage::from_fn(w, h, move |x, y| {
                (x.wrapping_mul(7 + k) ^ y.wrapping_mul(13)) as u8
            })
        };
        let img = pattern(96, 64, 0);
        let plain = Pyramid::build(&img, 4);
        // Over a stale frame of the same size, a smaller one and a larger
        // one: kept buffers shrink or grow, and the depth follows the base.
        for (w, h) in [(96, 64), (40, 20), (130, 90)] {
            let mut rebuilt = Pyramid::build(&pattern(w, h, 5), 4);
            rebuilt.rebuild(&img);
            assert_eq!(plain.levels(), rebuilt.levels(), "from {w}x{h}");
            for l in 0..plain.levels() {
                assert_eq!(plain.level(l), rebuilt.level(l), "level {l} from {w}x{h}");
            }
        }
    }

    /// A rect covering every pixel of `level`.
    fn whole(pyr: &Pyramid, level: usize) -> PixelRect {
        let im = pyr.level(level);
        PixelRect::new(0, 0, im.width() as i64, im.height() as i64)
    }

    /// Asks every level of `pyr` for every tile.
    fn ensure_all(pyr: &mut Pyramid) {
        for l in 0..pyr.levels() {
            let r = whole(pyr, l);
            pyr.ensure_gradients(l, &[r]);
        }
    }

    #[test]
    fn steady_state_rebuild_is_allocation_free() {
        let img = GrayImage::from_fn(80, 80, |x, y| (x + y) as u8);
        let mut pyr = Pyramid::build(&img, 4);
        ensure_all(&mut pyr);
        perf::reset();
        pyr.rebuild(&GrayImage::from_fn(80, 80, |x, y| (x * y) as u8));
        ensure_all(&mut pyr);
        let work = perf::snapshot();
        assert_eq!(
            work.buffers_allocated, 0,
            "steady-state rebuild+gradients must only reuse owned buffers"
        );
        // Four levels, two row buffers, and two planes plus a row ring per
        // level.
        assert_eq!(work.buffers_reused, 4 + 2 + 4 * 3);
        assert_eq!(work.pyramid_builds, 1);
    }

    #[test]
    fn swap_gradients_moves_planes_and_forgets_tiles() {
        let img = GrayImage::from_fn(64, 48, |x, y| (x * 3 + y) as u8);
        let mut with = Pyramid::build(&img, 3);
        ensure_all(&mut with);
        let mut without = Pyramid::build(&img, 2);
        without.swap_gradients(&mut with);
        for pyr in [&with, &without] {
            assert_eq!(pyr.tiled_gradients().len(), pyr.levels());
            assert!(pyr
                .tiled_gradients()
                .iter()
                .all(|g| g.tiles_computed() == 0));
        }
        perf::reset();
        ensure_all(&mut without);
        assert_eq!(perf::snapshot().buffers_allocated, 0, "the planes moved");
    }

    #[test]
    fn each_tile_is_computed_at_most_once() {
        use crate::gradient::{TILE_H, TILE_W};
        assert_eq!(
            (TILE_W, TILE_H),
            (32, 4),
            "the counts below assume 32x4 tiles"
        );
        // 100x70 is 4x18 tiles at level 0.
        let img = GrayImage::from_fn(100, 70, |x, y| (x * 2 + y) as u8);
        let mut pyr = Pyramid::build(&img, 2);
        assert_eq!(
            pyr.tiled_gradients()[0].tiles_computed(),
            0,
            "nothing is eager"
        );
        perf::reset();
        // Two overlapping rects: tile columns 0..2 x rows 1..5 (8 tiles)
        // and columns 1..3 x rows 2..10 (16), sharing 3.
        let rects = [PixelRect::new(5, 5, 40, 20), PixelRect::new(33, 10, 70, 40)];
        pyr.ensure_gradients(0, &rects);
        assert_eq!(perf::snapshot().gradient_tiles, 21);
        assert_eq!(pyr.tiled_gradients()[0].tiles_computed(), 21);
        pyr.ensure_gradients(0, &rects);
        pyr.ensure_gradients(0, &rects[1..]);
        assert_eq!(perf::snapshot().gradient_tiles, 21, "no tile recomputed");
        let r = whole(&pyr, 0);
        pyr.ensure_gradients(0, &[r]);
        assert_eq!(perf::snapshot().gradient_tiles, 72, "only the other 51");
        assert_eq!(
            pyr.tiled_gradients()[1].tiles_computed(),
            0,
            "levels are independent"
        );
        assert_eq!(perf::snapshot().gradient_fields, 0);
    }

    #[test]
    fn ensured_gradients_match_fresh_computation() {
        use crate::reference::scharr_gradients;
        let img = GrayImage::from_fn(75, 41, |x, y| {
            (x.wrapping_mul(31) ^ y.wrapping_mul(17)) as u8
        });
        // Planes holding every gradient of another frame: a pixel the
        // tiles skipped keeps a stale value and cannot pass.
        let stale = GrayImage::from_fn(75, 41, |x, y| {
            (x.wrapping_mul(11) ^ y.wrapping_mul(59)).wrapping_add(x * y) as u8
        });
        let mut pyr = Pyramid::build(&stale, 3);
        ensure_all(&mut pyr);
        pyr.rebuild(&img);
        for l in 0..pyr.levels() {
            let r = whole(&pyr, l);
            pyr.ensure_gradients(l, &[r]);
            let g = &pyr.tiled_gradients()[l];
            let fresh = scharr_gradients(pyr.level(l));
            for y in 0..fresh.height() {
                for x in 0..fresh.width() {
                    let (gx, gy) = g.get(x, y).expect("every tile ensured");
                    assert_eq!(
                        gx.to_bits(),
                        fresh.gx(x, y).to_bits(),
                        "gx ({x},{y}) level {l}"
                    );
                    assert_eq!(
                        gy.to_bits(),
                        fresh.gy(x, y).to_bits(),
                        "gy ({x},{y}) level {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn clone_keeps_computed_tiles() {
        let img = GrayImage::from_fn(32, 32, |x, y| (x + y) as u8);
        let mut pyr = Pyramid::build(&img, 2);
        pyr.ensure_gradients(1, &[PixelRect::new(0, 0, 4, 4)]);
        let cloned = pyr.clone();
        assert_eq!(cloned.tiled_gradients()[1].tiles_computed(), 1);
        assert_eq!(cloned.levels(), pyr.levels());
    }
}
