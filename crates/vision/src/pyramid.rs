//! Gaussian image pyramids for coarse-to-fine optical flow.
//!
//! A [`Pyramid`] holds the original image at level 0 and successively
//! blurred-and-halved versions at higher levels. Pyramidal Lucas-Kanade
//! ([`crate::flow::PyramidalLk`]) starts at the coarsest level, where large
//! motions shrink to sub-pixel displacements, and refines the estimate down
//! to level 0.
//!
//! Two hot-path services live here beyond plain construction:
//!
//! * **Buffer reuse** — [`Pyramid::build_with`] takes every pixel and
//!   intermediate buffer from a [`ScratchPool`], and [`Pyramid::recycle`]
//!   returns them, so a tracker that builds one pyramid per frame reaches a
//!   steady state with **zero** heap allocations (observable through
//!   [`crate::perf`]). Pooled buffers are handed back without re-zeroing
//!   (`ScratchPool::take_sized` truncates instead of memsetting), so the
//!   steady-state build does strictly less work than a fresh one — every
//!   kernel overwrites its full output.
//! * **Demand-driven gradients** — each level carries a
//!   [`TiledGradients`] field. Readers state what they read through
//!   [`Pyramid::ensure_gradients`], which computes only the Scharr tiles
//!   not computed yet: Shi-Tomasi asks for its boxes on level 0, and
//!   Lucas-Kanade for its windows on every level. The tracker reads a small
//!   share of each level, so most of the frame is never differentiated, and
//!   no tile is computed twice for one pyramid.

use crate::geometry::PixelRect;
use crate::gradient::{gaussian_blur_into, TiledGradients};
use crate::image::GrayImage;
use crate::perf;
use crate::scratch::ScratchPool;

/// A Gaussian image pyramid (level 0 = full resolution), with
/// demand-driven Scharr gradients per level.
///
/// # Example
///
/// ```
/// use adavp_vision::image::GrayImage;
/// use adavp_vision::pyramid::Pyramid;
/// let img = GrayImage::new(64, 48);
/// let pyr = Pyramid::build(&img, 3);
/// assert_eq!(pyr.levels(), 3);
/// assert_eq!(pyr.level(1).width(), 32);
/// assert_eq!(pyr.level(2).width(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Pyramid {
    levels: Vec<GrayImage>,
    /// One gradient field per level; tiles are computed on demand.
    grads: Vec<TiledGradients>,
}

impl Pyramid {
    /// Minimum side length below which no further levels are built.
    pub const MIN_SIDE: u32 = 8;

    /// Builds a pyramid with at most `max_levels` levels (at least 1).
    ///
    /// Level construction stops early when the next level would have a side
    /// shorter than [`Pyramid::MIN_SIDE`] pixels. Allocating wrapper around
    /// [`Pyramid::build_with`]; per-frame callers should hold a
    /// [`ScratchPool`] and use `build_with` to reuse buffers.
    pub fn build(base: &GrayImage, max_levels: u32) -> Self {
        Self::build_with(base, max_levels, &mut ScratchPool::new())
    }

    /// Builds a pyramid taking every buffer (levels, blur intermediates)
    /// from `pool`. Recycle retired pyramids with [`Pyramid::recycle`] to
    /// make steady-state construction allocation-free.
    pub fn build_with(base: &GrayImage, max_levels: u32, pool: &mut ScratchPool) -> Self {
        let _timer = perf::ScopedTimer::new(|c| &mut c.pyramid_ns);
        perf::record(|c| c.pyramid_builds += 1);
        let max_levels = max_levels.max(1);
        let mut levels = Vec::with_capacity(max_levels as usize);
        levels.push(pool.take_image_copy(base));
        while (levels.len() as u32) < max_levels {
            // adavp-lint: allow(panic-surface) — levels starts with the base image pushed two lines up
            let last = levels.last().expect("pyramid has at least one level");
            let (w, h) = (last.width(), last.height());
            if w / 2 < Self::MIN_SIDE || h / 2 < Self::MIN_SIDE {
                break;
            }
            // The blurred image is only an input to the downsample; its
            // buffer goes straight back to the pool for the next level.
            let mut smooth = pool.take_image(w, h);
            gaussian_blur_into(last, &mut smooth, pool);
            let mut next = pool.take_image((w / 2).max(1), (h / 2).max(1));
            smooth.downsample_into(&mut next);
            pool.recycle_image(smooth);
            levels.push(next);
        }
        let grads = levels.iter().map(|_| TiledGradients::new()).collect();
        Self { levels, grads }
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
        &self.levels[0]
    }

    /// Iterator over levels from coarsest to finest (the order in which
    /// pyramidal LK visits them).
    pub fn iter_coarse_to_fine(&self) -> impl Iterator<Item = (usize, &GrayImage)> {
        self.levels.iter().enumerate().rev()
    }

    /// Makes the Scharr gradients of `level` exact on every pixel of every
    /// rect (clipped to the level), computing only the tiles that are not
    /// computed yet. The gradient planes and row buffers come from `pool`.
    /// A `level` past the last one is ignored.
    pub fn ensure_gradients(&mut self, level: usize, rects: &[PixelRect], pool: &mut ScratchPool) {
        if let (Some(img), Some(grads)) = (self.levels.get(level), self.grads.get_mut(level)) {
            grads.ensure(img, rects, pool);
        }
    }

    /// The per-level gradient fields. Only the tiles that
    /// [`Pyramid::ensure_gradients`] computed are valid, so this stays
    /// inside the crate.
    pub(crate) fn tiled_gradients(&self) -> &[TiledGradients] {
        &self.grads
    }

    /// Consumes the pyramid, returning every level and gradient buffer to
    /// `pool` for reuse by future builds.
    pub fn recycle(self, pool: &mut ScratchPool) {
        for level in self.levels {
            pool.recycle_image(level);
        }
        for grads in self.grads {
            grads.recycle(pool);
        }
    }
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

    #[test]
    fn pooled_build_matches_plain_build() {
        let img = GrayImage::from_fn(96, 64, |x, y| {
            (x.wrapping_mul(7) ^ y.wrapping_mul(13)) as u8
        });
        let plain = Pyramid::build(&img, 4);
        let mut pool = ScratchPool::new();
        let pooled = Pyramid::build_with(&img, 4, &mut pool);
        assert_eq!(plain.levels(), pooled.levels());
        for l in 0..plain.levels() {
            assert_eq!(plain.level(l), pooled.level(l), "level {l} differs");
        }
    }

    /// A rect covering every pixel of `level`.
    fn whole(pyr: &Pyramid, level: usize) -> PixelRect {
        let im = pyr.level(level);
        PixelRect::new(0, 0, im.width() as i64, im.height() as i64)
    }

    #[test]
    fn steady_state_build_is_allocation_free() {
        let img = GrayImage::from_fn(80, 80, |x, y| (x + y) as u8);
        let mut pool = ScratchPool::new();
        let mut p1 = Pyramid::build_with(&img, 4, &mut pool);
        for l in 0..p1.levels() {
            let r = whole(&p1, l);
            p1.ensure_gradients(l, &[r], &mut pool);
        }
        p1.recycle(&mut pool);
        perf::reset();
        let mut p2 = Pyramid::build_with(&img, 4, &mut pool);
        for l in 0..p2.levels() {
            let r = whole(&p2, l);
            p2.ensure_gradients(l, &[r], &mut pool);
        }
        let work = perf::snapshot();
        assert_eq!(
            work.buffers_allocated, 0,
            "steady-state build+gradients must only reuse pooled buffers"
        );
        assert!(work.buffers_reused > 0);
        assert_eq!(work.pyramid_builds, 1);
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
        let mut pool = ScratchPool::new();
        assert_eq!(
            pyr.tiled_gradients()[0].tiles_computed(),
            0,
            "nothing is eager"
        );
        perf::reset();
        // Two overlapping rects: tile columns 0..2 x rows 1..5 (8 tiles)
        // and columns 1..3 x rows 2..10 (16), sharing 3.
        let rects = [PixelRect::new(5, 5, 40, 20), PixelRect::new(33, 10, 70, 40)];
        pyr.ensure_gradients(0, &rects, &mut pool);
        assert_eq!(perf::snapshot().gradient_tiles, 21);
        assert_eq!(pyr.tiled_gradients()[0].tiles_computed(), 21);
        pyr.ensure_gradients(0, &rects, &mut pool);
        pyr.ensure_gradients(0, &rects[1..], &mut pool);
        assert_eq!(perf::snapshot().gradient_tiles, 21, "no tile recomputed");
        let r = whole(&pyr, 0);
        pyr.ensure_gradients(0, &[r], &mut pool);
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
        // NaN-filled pooled planes: a pixel the tiles skipped cannot pass.
        let mut pool = ScratchPool::new();
        for _ in 0..6 {
            pool.recycle_f32(vec![f32::NAN; 75 * 41]);
        }
        let mut pyr = Pyramid::build_with(&img, 3, &mut pool);
        for l in 0..pyr.levels() {
            let r = whole(&pyr, l);
            pyr.ensure_gradients(l, &[r], &mut pool);
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
        pyr.ensure_gradients(1, &[PixelRect::new(0, 0, 4, 4)], &mut ScratchPool::new());
        let cloned = pyr.clone();
        assert_eq!(cloned.tiled_gradients()[1].tiles_computed(), 1);
        assert_eq!(cloned.levels(), pyr.levels());
    }
}
