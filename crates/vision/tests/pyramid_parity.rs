//! Parity of the row-streamed pyramid level kernel with the two-pass
//! oracles it replaced: the bytes of every level equal a whole-image blur
//! (`reference::gaussian_blur_into_scalar`) followed by a box downsample
//! (`reference::downsample_into_scalar`), and a build records the same
//! structural counters the two-pass build did, since traces carry
//! `fixed_point_rows` and the scratch-pool hit rate.

use adavp_vision::geometry::PixelRect;
use adavp_vision::image::GrayImage;
use adavp_vision::perf;
use adavp_vision::pyramid::{blur_downsample_into, Pyramid};
use adavp_vision::reference::blur_downsample_into_scalar;
use adavp_vision::scratch::ScratchPool;

/// Xorshift noise: saturating values and no smooth structure to hide an
/// off-by-one row or column.
fn noisy(w: u32, h: u32, seed: u32) -> GrayImage {
    let mut state = seed | 1;
    GrayImage::from_fn(w, h, |_, _| {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        (state >> 8) as u8
    })
}

/// A pool whose byte and `u16` buffers hold stale garbage, so a kernel that
/// skips a pixel or ring row shows.
fn dirty_pool() -> ScratchPool {
    let mut pool = ScratchPool::new();
    for seed in 1..4 {
        pool.recycle_image(noisy(700, 400, seed));
        pool.recycle_u16(vec![0xBEEF; 700 * 400]);
    }
    pool
}

const SIZES: [(u32, u32); 4] = [(16, 16), (17, 9), (33, 17), (641, 361)];

#[test]
fn streamed_level_matches_composed_oracles() {
    for (w, h) in SIZES {
        for img in [
            noisy(w, h, w * 31 + h),
            GrayImage::from_fn(w, h, |_, _| 255),
        ] {
            let (nw, nh) = ((w / 2).max(1), (h / 2).max(1));
            let mut streamed = GrayImage::new(nw, nh);
            blur_downsample_into(&img, &mut streamed, &mut dirty_pool());
            let mut oracle = GrayImage::new(nw, nh);
            blur_downsample_into_scalar(&img, &mut oracle, &mut ScratchPool::new());
            assert_eq!(streamed, oracle, "{w}x{h}");
        }
    }
}

#[test]
fn pooled_builds_match_composed_oracles_level_by_level() {
    let mut pool = dirty_pool();
    for (w, h) in SIZES {
        let img = noisy(w, h, 7 * w + h);
        let pyr = Pyramid::build_with(&img, 4, &mut pool);
        assert_eq!(pyr.level(0), &img);
        for level in 1..pyr.levels() {
            let above = pyr.level(level - 1);
            let mut oracle = GrayImage::new(above.width() / 2, above.height() / 2);
            blur_downsample_into_scalar(above, &mut oracle, &mut ScratchPool::new());
            assert_eq!(pyr.level(level), &oracle, "level {level} of {w}x{h}");
        }
        pyr.recycle(&mut pool);
    }
}

/// `[gaussian_blurs, downsamples, fixed_point_rows, buffers_allocated,
/// buffers_reused]` recorded by one `Pyramid::build_with`.
type BuildCounts = [u64; 5];

fn build_counts(img: &GrayImage, levels: u32, pool: &mut ScratchPool) -> (Pyramid, BuildCounts) {
    let before = perf::snapshot();
    let pyr = Pyramid::build_with(img, levels, pool);
    let d = perf::snapshot().since(&before);
    let counts = [
        d.gaussian_blurs,
        d.downsamples,
        d.fixed_point_rows,
        d.buffers_allocated,
        d.buffers_reused,
    ];
    (pyr, counts)
}

/// The per-build counter deltas of the two-pass build (a whole blurred
/// image and a whole `u16` plane per level), recorded before the level
/// kernel was streamed. Odd heights count the blurred row the downsample
/// never reads (641x361: 361 + 180 + 180 + 90 + 90 + 45 rows).
#[test]
fn builds_record_the_counts_of_the_two_pass_build() {
    // (w, h, levels): cold pool, warm pool (previous build recycled), a
    // build while the previous pyramid and its gradients are held, and the
    // next build once that one is recycled (the tracker's pattern).
    let expected: [((u32, u32, u32), [BuildCounts; 4]); 4] = [
        (
            (640, 360, 4),
            [
                [3, 3, 945, 6, 4],
                [3, 3, 945, 0, 10],
                [3, 3, 945, 4, 6],
                [3, 3, 945, 0, 10],
            ],
        ),
        (
            (641, 361, 4),
            [
                [3, 3, 946, 6, 4],
                [3, 3, 946, 0, 10],
                [3, 3, 946, 4, 6],
                [3, 3, 946, 0, 10],
            ],
        ),
        (
            (33, 17, 3),
            [
                [1, 1, 25, 4, 0],
                [1, 1, 25, 0, 4],
                [1, 1, 25, 2, 2],
                [1, 1, 25, 0, 4],
            ],
        ),
        (
            (16, 16, 2),
            [
                [1, 1, 24, 4, 0],
                [1, 1, 24, 0, 4],
                [1, 1, 24, 2, 2],
                [1, 1, 24, 0, 4],
            ],
        ),
    ];
    for ((w, h, levels), [cold, warm, held, after]) in expected {
        let img = GrayImage::from_fn(w, h, |x, y| (x.wrapping_mul(7) ^ y.wrapping_mul(13)) as u8);
        let mut pool = ScratchPool::new();
        let (first, counts) = build_counts(&img, levels, &mut pool);
        assert_eq!(counts, cold, "cold pool, {w}x{h}x{levels}");
        first.recycle(&mut pool);
        let (mut second, counts) = build_counts(&img, levels, &mut pool);
        assert_eq!(counts, warm, "warm pool, {w}x{h}x{levels}");
        for level in 0..second.levels() {
            let im = second.level(level);
            let whole = PixelRect::new(0, 0, im.width().into(), im.height().into());
            second.ensure_gradients(level, &[whole], &mut pool);
        }
        let (third, counts) = build_counts(&img, levels, &mut pool);
        assert_eq!(counts, held, "previous pyramid held, {w}x{h}x{levels}");
        second.recycle(&mut pool);
        let (_, counts) = build_counts(&img, levels, &mut pool);
        assert_eq!(counts, after, "previous pyramid recycled, {w}x{h}x{levels}");
        third.recycle(&mut pool);
    }
}
