//! Kernel micro-benchmark harness: times the vision hot-path kernels next
//! to their plain-loop oracles in `adavp_vision::reference`, asserts that
//! each kernel reproduces its oracle bit for bit, and writes
//! `BENCH_kernels.json` (kernel -> ns/op, a multi-point pyramidal-LK
//! baseline-vs-optimized comparison, and each fast path's speed-up over its
//! oracle). Most kernels run at 256x256 and again at the 640x360 experiment
//! resolution with the tracker's parameters (a 4-level pyramid, LK at
//! window radius 7); the demand-driven gradient and masked Shi-Tomasi cases
//! run at 640x360 only.
//!
//! Speed is checked within the run, never against a file recorded on
//! another host: a fast kernel and its oracle are timed in alternating
//! rounds, and the ratio of their median ns/op must reach a floor.
//!
//! | fast kernel | oracle | floor |
//! |---|---|---|
//! | `blur_downsample_256` | `blur_downsample_scalar_256` | 1.2x |
//! | `good_features_in_boxes_640x360` | `good_features_masked_reference_640x360` | 3x |
//! | LK `optimized` | LK `baseline` | 3x |
//!
//! The tracker's per-frame pyramid at 640x360, a 4-level
//! [`Pyramid::rebuild`] in place plus the tracker's gradient tiles, is
//! recorded against the same work on a freshly allocated pyramid in the
//! same `speedups` section without a floor. Every kernel and oracle runs on
//! the calling thread. When a gated ratio falls below its floor the bench
//! still writes the file, then exits 1 naming the pair, its ratio and its
//! floor.
//!
//! Run with `cargo run --release -p adavp-vision --bin kernels_bench [PATH]`
//! (the output path defaults to `BENCH_kernels.json` in the current
//! directory; any other argument exits with status 2 before the bench
//! runs). Dependency-free: JSON is emitted by hand.

use adavp_vision::features::{good_features_in_boxes, GoodFeaturesParams};
use adavp_vision::flow::{LkParams, PyramidalLk};
use adavp_vision::geometry::{BoundingBox, PixelRect, Point2};
use adavp_vision::gradient::{GradientField, TiledGradients, TILE_H, TILE_W};
use adavp_vision::image::GrayImage;
use adavp_vision::pyramid::{blur_downsample_into, Pyramid};
use adavp_vision::reference::{
    blur_downsample_into_scalar, good_features_from_gradients_reference, scharr_gradients,
    scharr_gradients_into_scalar, track_pyramids_baseline,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const IMG_W: u32 = 256;
const IMG_H: u32 = 256;
const PYRAMID_LEVELS: u32 = 3;
/// The experiment resolution, for the demand-driven and tracker cases.
const FRAME_W: u32 = 640;
const FRAME_H: u32 = 360;
/// The tracker's pyramid depth (`TrackerConfig::default()`).
const TRACKER_LEVELS: u32 = 4;
const TARGET_NS_PER_BENCH: u128 = 250_000_000; // ~0.25 s per kernel
/// Timing rounds per kernel; its ns/op is the median over the rounds.
const ROUNDS: usize = 7;

/// Least speed-up of the streamed blur + downsample over the composed
/// scalar oracles, 256x256.
const BLUR_DOWNSAMPLE_FLOOR: f64 = 1.2;
/// Least speed-up of box-bounded Shi-Tomasi over the whole-frame masked
/// reference scan, one box at 640x360.
const SHI_TOMASI_FLOOR: f64 = 3.0;
/// Least speed-up of the optimized multi-point LK over the baseline
/// tracker, 256x256.
const LK_FLOOR: f64 = 3.0;

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

/// Times `N` kernels in alternating rounds; `run(k)` runs kernel `k` once.
/// One warm-up call per kernel sizes its rounds so that it runs for about
/// `TARGET_NS_PER_BENCH` in all; each round then times every kernel in
/// turn, forward on even rounds and backward on odd ones, so a change in
/// the host's speed during the run reaches every kernel alike. Returns each
/// kernel's median ns/op over the rounds.
fn bench_rounds<const N: usize>(mut run: impl FnMut(usize)) -> [u64; N] {
    let iters: [u64; N] = std::array::from_fn(|k| {
        let warm = Instant::now();
        run(k);
        let estimate = warm.elapsed().as_nanos().max(1);
        (TARGET_NS_PER_BENCH / ROUNDS as u128 / estimate).clamp(1, 100_000) as u64
    });
    let rounds: Vec<[u64; N]> = (0..ROUNDS)
        .map(|round| {
            let mut ns = [0u64; N];
            for i in 0..N {
                let k = if round % 2 == 0 { i } else { N - 1 - i };
                let start = Instant::now();
                for _ in 0..iters[k] {
                    run(k);
                }
                ns[k] = start.elapsed().as_nanos() as u64 / iters[k];
            }
            ns
        })
        .collect();
    std::array::from_fn(|k| {
        let mut ns: Vec<u64> = rounds.iter().map(|round| round[k]).collect();
        ns.sort_unstable();
        ns[ROUNDS / 2]
    })
}

/// Times one kernel; see [`bench_rounds`].
fn bench_ns(mut f: impl FnMut()) -> u64 {
    let [ns] = bench_rounds(|_| f());
    ns
}

/// A fast path's speed-up over a slower one, both timed in the same rounds
/// of this run. `floor` is the least ratio the run accepts; `None` records
/// the ratio without gating it.
struct Speedup {
    kernel: &'static str,
    reference: &'static str,
    ratio: f64,
    floor: Option<f64>,
}

impl Speedup {
    fn new(
        kernel: &'static str,
        reference: &'static str,
        [kernel_ns, reference_ns]: [u64; 2],
        floor: Option<f64>,
    ) -> Self {
        Self {
            kernel,
            reference,
            ratio: reference_ns as f64 / kernel_ns.max(1) as f64,
            floor,
        }
    }

    /// `Err` naming the pair, its ratio and its floor when the ratio is
    /// below the floor.
    fn check(&self) -> Result<(), String> {
        match self.floor {
            Some(floor) if self.ratio < floor => Err(format!(
                "{} is {:.2}x faster than {}, below its floor of {floor:.1}x",
                self.kernel, self.ratio, self.reference
            )),
            _ => Ok(()),
        }
    }
}

struct Entry {
    name: &'static str,
    ns_per_op: u64,
    /// Input pixels consumed per op, used to derive Mpix/s throughput.
    pixels: u64,
    note: &'static str,
}

impl Entry {
    fn mpix_per_s(&self) -> f64 {
        // pixels/ns == Gpix/s, so scale by 1000 for Mpix/s.
        self.pixels as f64 / self.ns_per_op.max(1) as f64 * 1000.0
    }
}

fn main() {
    // At most one argument, the output path: anything flag-shaped (such as
    // `--help`), an empty path or a second argument exits 2 before the
    // bench runs.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bad = |(i, a): &(usize, &String)| *i > 0 || a.is_empty() || a.starts_with('-');
    if let Some((_, arg)) = args.iter().enumerate().find(bad) {
        eprintln!("kernels_bench: unexpected argument `{arg}` (usage: kernels_bench [OUT.json])");
        std::process::exit(2);
    }
    let out_path = args.first().map_or("BENCH_kernels.json", String::as_str);

    let img = textured(IMG_W, IMG_H);
    let next_img = shifted(&img, 3, -2);
    let mut entries: Vec<Entry> = Vec::new();
    let mut speedups: Vec<Speedup> = Vec::new();

    eprintln!("image: {IMG_W}x{IMG_H}, pyramid levels: {PYRAMID_LEVELS}");

    let frame_pixels = (IMG_W * IMG_H) as u64;

    // --- Pyramid level: streamed blur + downsample ----------------------------
    let (half_w, half_h) = (IMG_W / 2, IMG_H / 2);
    let mut level_out = GrayImage::new(half_w, half_h);
    let mut level_scalar_out = GrayImage::new(half_w, half_h);
    blur_downsample_into(&img, &mut level_out);
    blur_downsample_into_scalar(&img, &mut level_scalar_out);
    assert_eq!(
        level_out.as_bytes(),
        level_scalar_out.as_bytes(),
        "streamed blur + downsample diverged from the composed scalar oracles"
    );
    let blur_ns = bench_rounds(|k| {
        if k == 0 {
            blur_downsample_into(black_box(&img), &mut level_out);
            black_box(&level_out);
        } else {
            blur_downsample_into_scalar(black_box(&img), &mut level_scalar_out);
            black_box(&level_scalar_out);
        }
    });
    entries.push(Entry {
        name: "blur_downsample_256",
        ns_per_op: blur_ns[0],
        pixels: frame_pixels,
        note: "row-streamed 5-tap blur + 2x2 box downsample, 256x256 -> 128x128",
    });
    entries.push(Entry {
        name: "blur_downsample_scalar_256",
        ns_per_op: blur_ns[1],
        pixels: frame_pixels,
        note: "scalar u32 oracles composed: whole-image blur, then downsample",
    });
    speedups.push(Speedup::new(
        "blur_downsample_256",
        "blur_downsample_scalar_256",
        blur_ns,
        Some(BLUR_DOWNSAMPLE_FLOOR),
    ));

    // --- Scharr gradients --------------------------------------------------
    // The production Scharr is the demand-driven tile field, timed and
    // checked against this oracle at 640x360 below.
    let mut field_scalar = GradientField::empty();
    entries.push(Entry {
        name: "scharr_scalar_256",
        ns_per_op: bench_ns(|| {
            scharr_gradients_into_scalar(black_box(&img), &mut field_scalar);
            black_box(&field_scalar);
        }),
        pixels: frame_pixels,
        note: "scalar oracle for the separable Scharr kernel",
    });

    // --- Demand-driven gradients and masked Shi-Tomasi, 640x360 ------------
    let frame = textured(FRAME_W, FRAME_H);
    let frame_px = (FRAME_W * FRAME_H) as u64;
    let whole = [PixelRect::new(0, 0, FRAME_W as i64, FRAME_H as i64)];
    let mut all_tiles = TiledGradients::new();
    let all_tiles_ns = bench_ns(|| {
        all_tiles.clear();
        all_tiles.ensure(black_box(&frame), &whole);
        black_box(&all_tiles);
    });
    entries.push(Entry {
        name: "scharr_tiles_all_640x360",
        ns_per_op: all_tiles_ns,
        pixels: frame_px,
        note: "demand-driven Scharr asked for every tile (worst case), 640x360",
    });
    // The tracker's demand: Shi-Tomasi reads three detection boxes on
    // level 0, and LK reads a 15x15 window (plus the rounding slack of
    // `PyramidalLk::ensure_windows`) around six features per box on each
    // of the tracker's four levels.
    let boxes = [
        BoundingBox::new(64.0, 72.0, 120.0, 80.0),
        BoundingBox::new(300.0, 150.0, 140.0, 90.0),
        BoundingBox::new(480.0, 48.0, 100.0, 120.0),
    ];
    let features: Vec<Point2> = boxes
        .iter()
        .flat_map(|b| {
            (0..6).map(move |k| {
                Point2::new(
                    b.left + b.width * (0.2 + 0.3 * (k % 3) as f32),
                    b.top + b.height * (0.3 + 0.4 * (k / 3) as f32),
                )
            })
        })
        .collect();
    let frame_pyr = Pyramid::build(&frame, TRACKER_LEVELS);
    let demand: Vec<Vec<PixelRect>> = (0..frame_pyr.levels())
        .map(|level| {
            let mut rects = Vec::new();
            if level == 0 {
                for b in &boxes {
                    let (l, t) = (b.left as i64, b.top as i64);
                    let (r, btm) = (b.right() as i64, b.bottom() as i64);
                    rects.push(PixelRect::new(l - 3, t - 3, r + 4, btm + 3));
                }
            }
            for f in &features {
                let (cx, cy) = ((f.x as i64) >> level, (f.y as i64) >> level);
                rects.push(PixelRect::new(cx - 8, cy - 8, cx + 10, cy + 10));
            }
            rects
        })
        .collect();
    let mut level_tiles: Vec<TiledGradients> =
        demand.iter().map(|_| TiledGradients::new()).collect();
    let tracker_ns = bench_ns(|| {
        for ((level, rects), tiles) in demand.iter().enumerate().zip(&mut level_tiles) {
            tiles.clear();
            tiles.ensure(black_box(frame_pyr.level(level)), rects);
        }
        black_box(&level_tiles);
    });
    let tracker_tiles: usize = level_tiles.iter().map(TiledGradients::tiles_computed).sum();
    let tiles_total: u32 = (0..frame_pyr.levels())
        .map(|l| {
            let im = frame_pyr.level(l);
            im.width().div_ceil(TILE_W) * im.height().div_ceil(TILE_H)
        })
        .sum();
    entries.push(Entry {
        name: "scharr_tiles_tracker_640x360x4",
        ns_per_op: tracker_ns,
        pixels: tracker_tiles as u64 * u64::from(TILE_W * TILE_H),
        note: "demand-driven Scharr for 3 boxes + 6 LK windows per box on 4 levels, 640x360",
    });
    // Parity: every computed tile equals the scalar oracle bit for bit.
    for (level, tiles) in level_tiles.iter().chain([&all_tiles]).enumerate() {
        let img = if level < frame_pyr.levels() {
            frame_pyr.level(level)
        } else {
            &frame
        };
        let oracle = scharr_gradients(img);
        for y in 0..img.height() {
            for x in 0..img.width() {
                if let Some((gx, gy)) = tiles.get(x, y) {
                    assert!(
                        gx.to_bits() == oracle.gx(x, y).to_bits()
                            && gy.to_bits() == oracle.gy(x, y).to_bits(),
                        "demand-driven Scharr diverged from the scalar oracle at ({x},{y})"
                    );
                }
            }
        }
    }
    assert_eq!(
        all_tiles.tiles_computed() as u32,
        FRAME_W.div_ceil(TILE_W) * FRAME_H.div_ceil(TILE_H)
    );

    // --- The tracker's pyramid and LK at 640x360 ---------------------------
    // Each case is checked against its oracle before it is timed.
    let mut frame_half = GrayImage::new(FRAME_W / 2, FRAME_H / 2);
    let mut frame_half_scalar = GrayImage::new(FRAME_W / 2, FRAME_H / 2);
    blur_downsample_into(&frame, &mut frame_half);
    blur_downsample_into_scalar(&frame, &mut frame_half_scalar);
    assert_eq!(
        frame_half.as_bytes(),
        frame_half_scalar.as_bytes(),
        "streamed blur + downsample diverged from the composed oracles at 640x360"
    );
    entries.push(Entry {
        name: "blur_downsample_640x360",
        ns_per_op: bench_ns(|| {
            blur_downsample_into(black_box(&frame), &mut frame_half);
            black_box(&frame_half);
        }),
        pixels: frame_px,
        note: "row-streamed blur + downsample, one pyramid level, 640x360 -> 320x180",
    });
    // Every level of a pyramid rebuilt over the frame, from a stale one,
    // equals the oracles composed down from the level above it.
    let mut rebuilt = Pyramid::build(&shifted(&frame, 5, 3), TRACKER_LEVELS);
    rebuilt.rebuild(&frame);
    assert_eq!(rebuilt.levels(), TRACKER_LEVELS as usize);
    for level in 1..rebuilt.levels() {
        let above = rebuilt.level(level - 1);
        let mut oracle = GrayImage::new(above.width() / 2, above.height() / 2);
        blur_downsample_into_scalar(above, &mut oracle);
        assert_eq!(
            rebuilt.level(level),
            &oracle,
            "pyramid level {level} diverged from the composed oracles"
        );
    }
    let frame_pyramid_px: u64 = (0..TRACKER_LEVELS)
        .map(|l| u64::from((FRAME_W >> l) * (FRAME_H >> l)))
        .sum();
    // The tracker's per-frame pyramid work, its levels and the tiles its
    // boxes and windows read: rebuilt in place (the steady state) against
    // built into freshly allocated levels and gradient planes.
    let ensure_demand = |pyr: &mut Pyramid| {
        for (level, rects) in demand.iter().enumerate() {
            pyr.ensure_gradients(level, rects);
        }
    };
    let pyramid_ns = bench_rounds(|k| {
        if k == 0 {
            rebuilt.rebuild(black_box(&frame));
            ensure_demand(&mut rebuilt);
            black_box(&rebuilt);
        } else {
            let mut fresh = Pyramid::build(black_box(&frame), TRACKER_LEVELS);
            ensure_demand(&mut fresh);
            black_box(fresh);
        }
    });
    entries.push(Entry {
        name: "pyramid_rebuild_640x360x4",
        ns_per_op: pyramid_ns[0],
        pixels: frame_pyramid_px,
        note: "4-level rebuild in place + the tracker's tiles, 640x360",
    });
    entries.push(Entry {
        name: "pyramid_build_fresh_640x360x4",
        ns_per_op: pyramid_ns[1],
        pixels: frame_pyramid_px,
        note: "4-level build into fresh buffers + the tracker's tiles, 640x360",
    });
    speedups.push(Speedup::new(
        "pyramid_rebuild_640x360x4",
        "pyramid_build_fresh_640x360x4",
        pyramid_ns,
        None,
    ));
    // LK with the tracker's parameters over the demand case's 18 features.
    let tracker_lk = PyramidalLk::new(LkParams {
        pyramid_levels: TRACKER_LEVELS,
        ..LkParams::default()
    });
    assert_eq!(tracker_lk.params().window_radius, 7);
    let next_frame_pyr = Pyramid::build(&shifted(&frame, 3, -2), TRACKER_LEVELS);
    let mut lk_prev = Pyramid::build(&frame, TRACKER_LEVELS);
    assert_eq!(
        tracker_lk.track_pyramids(&mut lk_prev, &next_frame_pyr, &features),
        track_pyramids_baseline(&tracker_lk, &frame_pyr, &next_frame_pyr, &features),
        "LK diverged from the baseline at 640x360"
    );
    // The window tiles are computed by the check above, so this times the
    // per-point solves.
    entries.push(Entry {
        name: "lk_tracker_640x360x4",
        ns_per_op: bench_ns(|| {
            black_box(tracker_lk.track_pyramids(
                black_box(&mut lk_prev),
                black_box(&next_frame_pyr),
                &features,
            ));
        }),
        // One 15x15 window per feature per level.
        pixels: features.len() as u64 * 15 * 15 * u64::from(TRACKER_LEVELS),
        note: "pyramidal LK, radius 7, 4 levels, 3 boxes x 6 features, tiles computed, 640x360",
    });

    // Masked Shi-Tomasi with the tracker's parameters over one 120x80 box.
    let st_params = GoodFeaturesParams {
        max_corners: 6,
        quality_level: 0.03,
        min_distance: 4.0,
        block_radius: 1,
    };
    let one_box = [boxes[0]];
    let mut st_pyr = Pyramid::build(&frame, PYRAMID_LEVELS);
    let full = scharr_gradients(&frame);
    // The first (warm-up) call computes the box's tiles; the timed calls
    // find them computed and time the scan and suppression.
    let st_ns = bench_rounds(|k| {
        if k == 0 {
            black_box(good_features_in_boxes(
                &mut st_pyr,
                &st_params,
                black_box(&one_box),
            ));
        } else {
            black_box(good_features_from_gradients_reference(
                black_box(&full),
                &st_params,
                Some(&one_box),
            ));
        }
    });
    entries.push(Entry {
        name: "good_features_in_boxes_640x360",
        ns_per_op: st_ns[0],
        pixels: 120 * 80,
        note: "box-bounded Shi-Tomasi scan + NMS, one 120x80 box, tiles computed, 640x360",
    });
    entries.push(Entry {
        name: "good_features_masked_reference_640x360",
        ns_per_op: st_ns[1],
        pixels: 120 * 80,
        note: "reference: whole-frame masked scan + whole-frame NMS grid",
    });
    speedups.push(Speedup::new(
        "good_features_in_boxes_640x360",
        "good_features_masked_reference_640x360",
        st_ns,
        Some(SHI_TOMASI_FLOOR),
    ));
    st_pyr.rebuild(&frame);
    assert_eq!(
        good_features_in_boxes(&mut st_pyr, &st_params, &one_box),
        good_features_from_gradients_reference(&full, &st_params, Some(&one_box)),
        "demand-driven Shi-Tomasi diverged from the reference"
    );

    // --- Pyramidal LK multi-point: baseline vs optimized ---------------------
    let lk = PyramidalLk::new(LkParams::default());
    let pts: Vec<Point2> = {
        let mut v = Vec::new();
        let mut y = 16u32;
        while y < IMG_H - 16 {
            let mut x = 16u32;
            while x < IMG_W - 16 {
                v.push(Point2::new(x as f32, y as f32));
                x += 16;
            }
            y += 16;
        }
        v
    };
    eprintln!("LK multi-point: {} points", pts.len());

    // The tracker's per-frame pattern: pyramids exist (carried forward /
    // built once per frame); one track_pyramids call per frame pair. The
    // baseline differentiates every level on every call. The optimized
    // path computes the gradient tiles under its windows once per
    // reference pyramid, so `optimized` reuses them across calls the way
    // the tracker reuses its carried-forward reference, and
    // `optimized+fresh-pyramid` rebuilds the reference inside the timed
    // region so tile computation is part of the per-frame cost.
    let mut prev_pyr = Pyramid::build(&img, PYRAMID_LEVELS);
    let next_pyr = Pyramid::build(&next_img, PYRAMID_LEVELS);
    let mut per_frame = Pyramid::build(&img, PYRAMID_LEVELS);

    let [optimized_ns, baseline_ns, opt_fresh_ns] = bench_rounds(|k| match k {
        0 => {
            black_box(lk.track_pyramids(black_box(&mut prev_pyr), black_box(&next_pyr), &pts));
        }
        1 => {
            black_box(track_pyramids_baseline(
                &lk,
                black_box(&prev_pyr),
                black_box(&next_pyr),
                &pts,
            ));
        }
        _ => {
            per_frame.rebuild(&img);
            black_box(lk.track_pyramids(&mut per_frame, black_box(&next_pyr), &pts));
        }
    });
    speedups.push(Speedup::new(
        "lk_multipoint.optimized",
        "lk_multipoint.baseline",
        [optimized_ns, baseline_ns],
        Some(LK_FLOOR),
    ));

    // Sanity: both paths agree bit-for-bit, the optimized one on a
    // reference pyramid rebuilt from one whose planes hold every gradient
    // of another frame.
    let mut stale = Pyramid::build(&next_img, PYRAMID_LEVELS);
    for level in 0..stale.levels() {
        let im = stale.level(level);
        let r = PixelRect::new(0, 0, im.width() as i64, im.height() as i64);
        stale.ensure_gradients(level, &[r]);
    }
    stale.rebuild(&img);
    let a = track_pyramids_baseline(&lk, &prev_pyr, &next_pyr, &pts);
    let b = lk.track_pyramids(&mut stale, &next_pyr, &pts);
    assert_eq!(a, b, "baseline and optimized LK diverged");

    for sp in &speedups {
        let floor = sp
            .floor
            .map_or(String::new(), |f| format!(" (floor {f:.1}x)"));
        eprintln!(
            "{} over {}: {:.2}x{floor}",
            sp.kernel, sp.reference, sp.ratio
        );
    }

    // --- JSON ---------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"image\": \"{IMG_W}x{IMG_H}\", \"pyramid_levels\": {PYRAMID_LEVELS}, \
         \"target_isa\": \"{}\"}},",
        // Compile-time ISA level (no runtime probing): reflects the baseline the
        // binary was built for, e.g. the x86-64-v3 pin in .cargo/config.toml.
        if cfg!(target_feature = "avx2") {
            "x86-64-v3"
        } else if cfg!(target_feature = "sse4.2") {
            "x86-64-v2"
        } else if cfg!(target_arch = "x86_64") {
            "x86-64-baseline"
        } else {
            "other"
        },
    );
    json.push_str("  \"kernels\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_op\": {}, \"pixels\": {}, \"mpix_per_s\": {:.1}, \
             \"note\": \"{}\"}}",
            e.name,
            e.ns_per_op,
            e.pixels,
            e.mpix_per_s(),
            e.note
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"lk_multipoint\": {{\"points\": {}, \"baseline_ns_per_frame\": {baseline_ns}, \
         \"optimized_ns_per_frame\": {optimized_ns}, \"optimized_fresh_pyramid_ns_per_frame\": \
         {opt_fresh_ns}}},",
        pts.len(),
    );
    let _ = writeln!(
        json,
        "  \"demand_640x360\": {{\"tile\": \"{TILE_W}x{TILE_H}\", \"levels\": {}, \"tiles_total\": \
         {tiles_total}, \"tracker_tiles\": {tracker_tiles}, \"tracker_tile_share\": {:.3}}},",
        frame_pyr.levels(),
        tracker_tiles as f64 / f64::from(tiles_total),
    );
    json.push_str("  \"speedups\": [\n");
    for (i, sp) in speedups.iter().enumerate() {
        let floor = sp.floor.map_or("null".to_string(), |f| format!("{f:.1}"));
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"reference\": \"{}\", \"ratio\": {:.3}, \"floor\": {floor}}}",
            sp.kernel, sp.reference, sp.ratio
        );
        json.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path}");

    let below: Vec<String> = speedups.iter().filter_map(|sp| sp.check().err()).collect();
    if !below.is_empty() {
        for msg in &below {
            eprintln!("kernels_bench: {msg}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::Speedup;

    #[test]
    fn a_pair_below_its_floor_is_an_error_naming_it() {
        let err = Speedup::new("fast_kernel", "its_oracle", [100, 290], Some(3.0))
            .check()
            .unwrap_err();
        for part in ["fast_kernel", "its_oracle", "2.90x", "3.0x"] {
            assert!(err.contains(part), "no {part} in: {err}");
        }
    }

    #[test]
    fn a_pair_at_or_above_its_floor_passes() {
        for (ns, floor) in [
            ([100, 300], Some(3.0)),
            ([100, 900], Some(3.0)),
            ([100, 50], None),
        ] {
            assert_eq!(
                Speedup::new("fast_kernel", "its_oracle", ns, floor).check(),
                Ok(())
            );
        }
    }
}
