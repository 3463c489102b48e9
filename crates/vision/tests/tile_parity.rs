//! Parity of the demand-driven gradient path: tiles computed on demand,
//! the Lucas-Kanade windows that read them, and the box-bounded Shi-Tomasi
//! scan must reproduce the whole-field oracles bit for bit.
//!
//! Every gradient plane starts out holding the gradients of another frame
//! (a pyramid rebuilt over the test frame, or a cleared field), so a read
//! from a tile that was never recomputed changes the result instead of
//! passing.

use adavp_rng::{check, Rng};
use adavp_vision::features::{good_features_in_boxes, GoodFeaturesParams};
use adavp_vision::flow::{FlowResult, LkParams, PyramidalLk};
use adavp_vision::geometry::{BoundingBox, PixelRect, Point2};
use adavp_vision::gradient::{TiledGradients, TILE_H, TILE_W};
use adavp_vision::image::GrayImage;
use adavp_vision::pyramid::Pyramid;
use adavp_vision::reference::{
    good_features_from_gradients_reference, scharr_gradients, track_pyramids_baseline,
};
use std::f32::consts::TAU;

/// A `w x h` frame unlike every test frame.
fn stale_frame(w: u32, h: u32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| (x.wrapping_mul(97) ^ y.wrapping_mul(29)) as u8)
}

/// A whole-frame rect of `img`.
fn whole(img: &GrayImage) -> PixelRect {
    PixelRect::new(0, 0, img.width().into(), img.height().into())
}

/// A pyramid of [`stale_frame`] with every tile of every level computed,
/// then rebuilt over `img`: its planes hold stale gradients until a tile is
/// recomputed.
fn rebuilt_over(img: &GrayImage, levels: u32) -> Pyramid {
    let mut pyr = Pyramid::build(&stale_frame(img.width(), img.height()), levels);
    for level in 0..pyr.levels() {
        let r = whole(pyr.level(level));
        pyr.ensure_gradients(level, &[r]);
    }
    pyr.rebuild(img);
    pyr
}

fn noise(w: u32, h: u32, rng: &mut Rng) -> GrayImage {
    let mut s: u32 = rng.gen::<u32>() | 1;
    GrayImage::from_fn(w, h, |_, _| {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        (s >> 8) as u8
    })
}

/// Smooth, LK-trackable texture.
fn textured(w: u32, h: u32, p1: f32, p2: f32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        let v = 128.0
            + 48.0 * (xf * 0.31 + p1).sin() * (yf * 0.23 + p2).cos()
            + 36.0 * (xf * 0.11 + yf * 0.19).sin()
            + 18.0 * ((xf * 0.05).cos() * (yf * 0.37).sin());
        v.clamp(0.0, 255.0) as u8
    })
}

/// A side length: often 1-3 px, otherwise up to a few tile widths and
/// rarely a multiple of the tile size.
fn side(rng: &mut Rng) -> u32 {
    if rng.gen_range(0u32..4) == 0 {
        rng.gen_range(1u32..=3)
    } else {
        rng.gen_range(1u32..=3 * TILE_W + 7)
    }
}

#[test]
fn ensured_tiles_match_full_scharr_bit_for_bit() {
    check(64, 1, |rng| {
        let (w, h) = (side(rng), side(rng));
        let img = noise(w, h, rng);
        let full = scharr_gradients(&img);
        let stale = stale_frame(w, h);
        let mut tiled = TiledGradients::new();
        tiled.ensure(&stale, &[whole(&stale)]);
        tiled.clear();
        let mut asked = vec![false; (w * h) as usize];
        for _ in 0..rng.gen_range(1u32..=5) {
            // Rects partly or wholly off the image, empty ones included.
            let rects: Vec<PixelRect> = (0..rng.gen_range(1u32..=3))
                .map(|_| {
                    let x0 = rng.gen_range(-40i64..w as i64 + 40);
                    let y0 = rng.gen_range(-40i64..h as i64 + 40);
                    let x1 = x0 + rng.gen_range(0i64..80);
                    let y1 = y0 + rng.gen_range(0i64..80);
                    PixelRect::new(x0, y0, x1, y1)
                })
                .collect();
            tiled.ensure(&img, &rects);
            for r in rects.iter().filter_map(|r| r.clipped(w, h)) {
                for y in r.y0..r.y1 {
                    for x in r.x0..r.x1 {
                        asked[(y * w as i64 + x) as usize] = true;
                    }
                }
            }
        }
        let mut computed = 0;
        for y in 0..h {
            for x in 0..w {
                match tiled.get(x, y) {
                    Some((gx, gy)) => {
                        computed += 1;
                        assert_eq!(
                            gx.to_bits(),
                            full.gx(x, y).to_bits(),
                            "gx ({x},{y}) {w}x{h}"
                        );
                        assert_eq!(
                            gy.to_bits(),
                            full.gy(x, y).to_bits(),
                            "gy ({x},{y}) {w}x{h}"
                        );
                    }
                    None => assert!(
                        !asked[(y * w + x) as usize],
                        "asked-for pixel ({x},{y}) not computed at {w}x{h}"
                    ),
                }
            }
        }
        // Tiles are whole: the computed pixels are exactly those of the
        // computed tiles.
        let (tw, th) = (TILE_W, TILE_H);
        let done: Vec<(u32, u32)> = (0..h.div_ceil(th))
            .flat_map(|ty| (0..w.div_ceil(tw)).map(move |tx| (tx, ty)))
            .filter(|&(tx, ty)| tiled.get(tx * tw, ty * th).is_some())
            .collect();
        let tile_pixels: u32 = done
            .iter()
            .map(|&(tx, ty)| (w - tx * tw).min(tw) * (h - ty * th).min(th))
            .sum();
        assert_eq!(computed, tile_pixels);
        assert_eq!(tiled.tiles_computed(), done.len());
    });
}

/// `FlowResult`s as raw bits, so `-0.0` cannot hide behind `0.0`.
fn flow_bits(results: &[FlowResult]) -> Vec<[u32; 5]> {
    results
        .iter()
        .map(|r| {
            [
                r.previous.x.to_bits(),
                r.previous.y.to_bits(),
                r.current.x.to_bits(),
                r.current.y.to_bits(),
                r.residual.to_bits() ^ u32::from(r.found) << 31,
            ]
        })
        .collect()
}

#[test]
fn lk_points_near_the_border_of_every_level_match_baseline() {
    check(32, 1, |rng| {
        let (w, h) = (rng.gen_range(48u32..170), rng.gen_range(40u32..130));
        let levels = rng.gen_range(2u32..=4);
        let prev = textured(w, h, rng.gen_range(0.0f32..TAU), rng.gen_range(0.0f32..TAU));
        let (dx, dy) = (rng.gen_range(-3i64..=3), rng.gen_range(-3i64..=3));
        let next = GrayImage::from_fn(w, h, |x, y| prev.get_clamped(x as i64 - dx, y as i64 - dy));
        let lk = PyramidalLk::new(LkParams {
            pyramid_levels: levels,
            ..LkParams::default()
        });
        let r = lk.params().window_radius as f32;
        let next_pyr = Pyramid::build(&next, levels);
        // Points just inside and just outside each level's border margin,
        // with fractional offsets, plus a few anywhere in the frame.
        let mut pts = Vec::new();
        for level in 0..next_pyr.levels() {
            let s = (1u32 << level) as f32;
            let (lw, lh) = (
                next_pyr.level(level).width() as f32,
                next_pyr.level(level).height() as f32,
            );
            for _ in 0..6 {
                let off = rng.gen_range(-1.5f32..2.5);
                let along_x = rng.gen_range(0.0f32..lw);
                let along_y = rng.gen_range(0.0f32..lh);
                let near = [
                    (r + 1.0 + off, along_y),
                    (lw - r - 1.0 - off, along_y),
                    (along_x, r + 1.0 + off),
                    (along_x, lh - r - 1.0 - off),
                ];
                let (x, y) = near[rng.gen_range(0usize..4)];
                pts.push(Point2::new(x * s, y * s));
            }
        }
        for _ in 0..4 {
            pts.push(Point2::new(
                rng.gen_range(-4.0f32..w as f32 + 4.0),
                rng.gen_range(-4.0f32..h as f32 + 4.0),
            ));
        }

        let baseline =
            track_pyramids_baseline(&lk, &Pyramid::build(&prev, levels), &next_pyr, &pts);
        let mut prev_pyr = rebuilt_over(&prev, levels);
        let optimized = lk.track_pyramids(&mut prev_pyr, &next_pyr, &pts);
        assert_eq!(flow_bits(&optimized), flow_bits(&baseline));
    });
}

/// A box edge coordinate: half the time a few pixels (whole or
/// fractional) either side of a tile boundary, where an off-by-one in the
/// read rect would skip a tile; otherwise anywhere around the frame.
fn edge(limit: u32, rng: &mut Rng) -> f32 {
    if rng.gen() {
        let boundary = rng.gen_range(0u32..=limit / TILE_W + 1) * TILE_W;
        let frac = [0.0f32, 0.0, 0.5, 0.999][rng.gen_range(0usize..4)];
        boundary as f32 + rng.gen_range(-4i32..=4) as f32 + frac
    } else {
        rng.gen_range(-30.0f32..limit as f32 + 10.0)
    }
}

/// A box with fractional edges that may overlap others or leave the frame.
fn random_box(w: u32, h: u32, rng: &mut Rng) -> BoundingBox {
    let (left, top) = (edge(w, rng), edge(h, rng));
    let (right, bottom) = (edge(w, rng), edge(h, rng));
    BoundingBox::new(left, top, right - left, bottom - top)
}

#[test]
fn shi_tomasi_in_boxes_matches_reference_bit_for_bit() {
    check(128, 1, |rng| {
        let (w, h) = (rng.gen_range(3u32..150), rng.gen_range(3u32..120));
        let img = if rng.gen() {
            noise(w, h, rng)
        } else {
            textured(w, h, rng.gen_range(0.0f32..TAU), 1.0)
        };
        let boxes: Vec<BoundingBox> = (0..rng.gen_range(0u32..=4))
            .map(|_| random_box(w, h, rng))
            .collect();
        // Half the cases keep every candidate (no cap, tiny minimum
        // distance), so a single stale response changes the output.
        let keep_all = rng.gen::<bool>();
        let params = GoodFeaturesParams {
            max_corners: if keep_all {
                0
            } else {
                rng.gen_range(1usize..40)
            },
            quality_level: rng.gen_range(0.0001f32..0.3),
            min_distance: if keep_all {
                0.5
            } else {
                rng.gen_range(1.0f32..9.0)
            },
            block_radius: rng.gen_range(1u32..=3),
        };
        let reference =
            good_features_from_gradients_reference(&scharr_gradients(&img), &params, Some(&boxes));
        let mut pyr = rebuilt_over(&img, 1);
        let demand = good_features_in_boxes(&mut pyr, &params, &boxes);
        assert_eq!(demand, reference, "boxes {boxes:?}, params {params:?}");
    });
}

/// Every box edge a few pixels around the tile boundary at 32 (a multiple
/// of both tile sides), whole and
/// fractional, for every block radius, keeping every candidate: a read
/// rect short by one row or column leaves a tile uncomputed under some
/// candidate that reaches it.
#[test]
fn box_edges_around_a_tile_boundary_match_reference() {
    let mut rng = Rng::seed_from_u64(7);
    let img = noise(80, 72, &mut rng);
    let grad = scharr_gradients(&img);
    let t = 32.0f32;
    const { assert!(32 % TILE_W == 0 && 32 % TILE_H == 0) };
    for block_radius in 1..=3 {
        let params = GoodFeaturesParams {
            max_corners: 0,
            quality_level: 0.0001,
            min_distance: 0.5,
            block_radius,
        };
        for d in [
            -3.0f32, -2.0, -1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 1.75, 2.0, 3.0,
        ] {
            // Each edge in turn sits at the boundary offset by `d`.
            let boxes = [
                BoundingBox::new(t + d, 10.0, 20.0, 12.0),
                BoundingBox::new(40.0, t + d, 14.0, 12.0),
                BoundingBox::new(4.0, 45.0, t + d - 4.0, 8.0),
                BoundingBox::new(45.0, 8.0, 12.0, t + d - 8.0),
            ];
            for b in boxes {
                let reference = good_features_from_gradients_reference(&grad, &params, Some(&[b]));
                let mut pyr = rebuilt_over(&img, 1);
                let demand = good_features_in_boxes(&mut pyr, &params, &[b]);
                assert_eq!(demand, reference, "box {b:?}, radius {block_radius}");
            }
        }
    }
}
