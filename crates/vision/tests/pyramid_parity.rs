//! Parity of the row-streamed pyramid level kernel with the two-pass
//! oracles it replaced: the bytes of every level equal a whole-image blur
//! (`reference::gaussian_blur_into_scalar`) followed by a box downsample
//! (`reference::downsample_into_scalar`), and a build records the same
//! structural counters the two-pass build did, since traces carry
//! `fixed_point_rows` and the buffer reuse rate.

use adavp_vision::geometry::PixelRect;
use adavp_vision::image::GrayImage;
use adavp_vision::perf;
use adavp_vision::pyramid::{blur_downsample_into, Pyramid};
use adavp_vision::reference::blur_downsample_into_scalar;

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
            blur_downsample_into(&img, &mut streamed);
            let mut oracle = GrayImage::new(nw, nh);
            blur_downsample_into_scalar(&img, &mut oracle);
            assert_eq!(streamed, oracle, "{w}x{h}");
        }
    }
}

#[test]
fn rebuilds_match_composed_oracles_level_by_level() {
    // One pyramid rebuilt over every size in turn, starting from a larger
    // noisy frame: its level and row buffers hold stale bytes, so a kernel
    // that skips a pixel or ring row shows.
    let mut pyr = Pyramid::build(&noisy(700, 400, 1), 4);
    for (w, h) in SIZES {
        let img = noisy(w, h, 7 * w + h);
        pyr.rebuild(&img);
        assert_eq!(pyr.level(0), &img);
        for level in 1..pyr.levels() {
            let above = pyr.level(level - 1);
            let mut oracle = GrayImage::new(above.width() / 2, above.height() / 2);
            blur_downsample_into_scalar(above, &mut oracle);
            assert_eq!(pyr.level(level), &oracle, "level {level} of {w}x{h}");
        }
    }
}

/// `[gaussian_blurs, downsamples, fixed_point_rows, buffers_allocated,
/// buffers_reused]` recorded by `work`.
type BuildCounts = [u64; 5];

fn counts(work: impl FnOnce()) -> BuildCounts {
    let before = perf::snapshot();
    work();
    let d = perf::snapshot().since(&before);
    [
        d.gaussian_blurs,
        d.downsamples,
        d.fixed_point_rows,
        d.buffers_allocated,
        d.buffers_reused,
    ]
}

/// The blur, downsample and row counts of the two-pass build (a whole
/// blurred image and a whole `u16` plane per level), recorded before the
/// level kernel was streamed. Odd heights count the blurred row the
/// downsample never reads (641x361: 361 + 180 + 180 + 90 + 90 + 45 rows).
/// A build allocates each level and the two row buffers, and a rebuild
/// keeps them; the gradient planes and row ring of each level are
/// allocated by the first read of a built pyramid and kept by the first
/// read after a rebuild.
#[test]
fn builds_record_the_counts_of_the_two_pass_build() {
    // (w, h, levels): build, whole-level gradients of every level, rebuild,
    // and the same gradients again (the tracker's pattern).
    let expected: [((u32, u32, u32), [BuildCounts; 4]); 4] = [
        (
            (640, 360, 4),
            [
                [3, 3, 945, 6, 0],
                [0, 0, 0, 12, 0],
                [3, 3, 945, 0, 6],
                [0, 0, 0, 0, 12],
            ],
        ),
        (
            (641, 361, 4),
            [
                [3, 3, 946, 6, 0],
                [0, 0, 0, 12, 0],
                [3, 3, 946, 0, 6],
                [0, 0, 0, 0, 12],
            ],
        ),
        (
            (33, 17, 3),
            [
                [1, 1, 25, 4, 0],
                [0, 0, 0, 6, 0],
                [1, 1, 25, 0, 4],
                [0, 0, 0, 0, 6],
            ],
        ),
        (
            (16, 16, 2),
            [
                [1, 1, 24, 4, 0],
                [0, 0, 0, 6, 0],
                [1, 1, 24, 0, 4],
                [0, 0, 0, 0, 6],
            ],
        ),
    ];
    let whole_levels = |pyr: &mut Pyramid| {
        for level in 0..pyr.levels() {
            let im = pyr.level(level);
            let whole = PixelRect::new(0, 0, im.width().into(), im.height().into());
            pyr.ensure_gradients(level, &[whole]);
        }
    };
    for ((w, h, levels), [build, grads, rebuild, regrads]) in expected {
        let img = GrayImage::from_fn(w, h, |x, y| (x.wrapping_mul(7) ^ y.wrapping_mul(13)) as u8);
        let mut pyr = None;
        assert_eq!(
            counts(|| pyr = Some(Pyramid::build(&img, levels))),
            build,
            "build, {w}x{h}x{levels}"
        );
        let mut pyr = pyr.expect("built above");
        assert_eq!(
            counts(|| whole_levels(&mut pyr)),
            grads,
            "gradients, {w}x{h}x{levels}"
        );
        assert_eq!(
            counts(|| pyr.rebuild(&img)),
            rebuild,
            "rebuild, {w}x{h}x{levels}"
        );
        assert_eq!(
            counts(|| whole_levels(&mut pyr)),
            regrads,
            "gradients after a rebuild, {w}x{h}x{levels}"
        );
    }
}
