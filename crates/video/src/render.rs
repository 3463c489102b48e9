//! Software rasterizer: world state → grayscale pixel frame.
//!
//! Frames must carry *real* trackable texture, because the AdaVP tracker runs
//! genuine Shi-Tomasi + Lucas-Kanade on them. The renderer therefore draws:
//!
//! * a **background** that is a smooth function of *world* coordinates (so it
//!   translates rigidly under camera motion) built from separable sinusoid
//!   products (column terms tabled, row terms evaluated once per row);
//! * each **object** as a rectangle of smooth per-object texture anchored to
//!   the object's box (so the texture translates rigidly with the object) with
//!   a dark rim that produces strong corners at the object boundary;
//! * optional small **sensor noise**, deterministic per (pixel, frame).
//!
//! Painter's order: objects with larger ids (newer) draw on top.
//!
//! # Speed without moving a byte
//!
//! Every pixel is a fixed sequence of f32 operations. The fast paths below
//! keep each operand and its order, so the output is bit-identical to
//! evaluating each pixel's formula directly (pinned by the golden digests
//! in `tests/pixel_digest.rs`):
//!
//! * **Object tables.** An object's texture is
//!   `tone + (34·sin(u·fu + pu))·cos(v·fv + pv) + 22·sin((u + v)·fd)` at the
//!   box-local sample point `(u, v)`, averaged over 1, 3 or 5 exposure-blur
//!   taps. For each tap, `u` and the first sine depend only on the column and
//!   `v` and the cosine only on the row, so they are tabulated once per tap
//!   (`TapTables`); only the diagonal sine stays per pixel.
//! * **Vector stores.** `v.clamp(0.0, 255.0) as u8` makes LLVM convert each
//!   lane in scalar code. `to_u8` computes the same byte with adds and bit
//!   masks that stay in vector lanes, so the background, noise and
//!   blend-store loops vectorize end to end.

use crate::world::{ObservedObject, World};
use adavp_rng::splitmix;
use adavp_vision::image::GrayImage;

/// Virtual shutter time (seconds). Objects moving relative to the camera
/// smear by `|screen_velocity| * EXPOSURE_S` pixels — which is what makes
/// fast content genuinely harder for corner extraction and optical flow,
/// reproducing the paper's Fig. 2 decay rates.
pub const EXPOSURE_S: f32 = 0.022;

/// Renders [`World`] states to frames. Construct once per clip.
#[derive(Debug, Clone)]
pub struct Renderer {
    width: u32,
    height: u32,
    bg_seed: u64,
    noise_amp: f32,
}

/// Uniform f32 in [0,1) from a hash state. The top 24 bits convert to f32
/// exactly, through `u32` so that the conversion vectorizes.
fn unit(h: u64) -> f32 {
    (h >> 40) as u32 as f32 / (1u32 << 24) as f32
}

/// `v.clamp(0.0, 255.0) as u8`, bit for bit, in operations LLVM keeps in
/// vector lanes. After clamping, `trunc` gives an integer in `0..=255`;
/// adding 2^23 moves it into the low mantissa bits exactly, where a mask
/// reads it out. `f32::max` maps NaN to 0, as the saturating cast does;
/// `f32::clamp` would keep the NaN, whose payload the mask would read.
#[allow(clippy::manual_clamp)]
#[inline(always)]
fn to_u8(v: f32) -> u8 {
    ((v.max(0.0).min(255.0).trunc() + 8_388_608.0).to_bits() & 0xff) as u8
}

impl Renderer {
    /// Creates a renderer for `width x height` frames.
    ///
    /// `bg_seed` selects the background pattern; `noise_amp` is the sensor
    /// noise amplitude in gray levels (0 disables noise).
    pub fn new(width: u32, height: u32, bg_seed: u64, noise_amp: f32) -> Self {
        Self {
            width,
            height,
            bg_seed,
            noise_amp,
        }
    }

    /// Renders the world's current state.
    pub fn render(&self, world: &World) -> GrayImage {
        let mut out = GrayImage::new(self.width, self.height);
        self.render_into(world, &mut out);
        out
    }

    /// Renders the world's current state into `out`, reusing its pixel
    /// buffer (reallocated only when dimensions differ). This is the
    /// recycled-buffer path for streaming consumers that do not keep
    /// frames: pair it with a `ScratchPool`-style buffer you pass back in
    /// every frame and the render loop performs no per-frame allocations
    /// beyond the small sinusoid and per-object tap tables.
    pub fn render_into(&self, world: &World, out: &mut GrayImage) {
        let t = world.time_s();
        let offset = world.camera_offset(t);
        let mut observed = world.observe();
        // Newer objects on top; sort ascending so later draws overwrite.
        observed.sort_by_key(|o| o.id);
        self.render_at_into(offset.x, offset.y, &observed, world.frame_index(), out);
    }

    /// Renders a frame given an explicit camera offset and object list.
    ///
    /// Exposed separately so tests can render hand-built object layouts.
    pub fn render_at(
        &self,
        ox: f32,
        oy: f32,
        objects: &[ObservedObject],
        frame_index: u64,
    ) -> GrayImage {
        let mut out = GrayImage::new(self.width, self.height);
        self.render_at_into(ox, oy, objects, frame_index, &mut out);
        out
    }

    /// [`Renderer::render_at`] writing into a recycled buffer.
    pub fn render_at_into(
        &self,
        ox: f32,
        oy: f32,
        objects: &[ObservedObject],
        frame_index: u64,
        out: &mut GrayImage,
    ) {
        let w = self.width as usize;
        if out.width() != self.width || out.height() != self.height {
            *out = GrayImage::new(self.width, self.height);
        }

        // --- Background: separable sinusoid products -------------------
        // bg = 128 + a1 * sx1[x]*c1 + a2 * (sx2[x]*c2y + cx2[x]*s2y), with
        // the x terms tabled and the y terms evaluated once per row.
        let d = |i: u64| splitmix(self.bg_seed.wrapping_add(i));
        let f1x = 0.035 + 0.05 * unit(d(1));
        let f1y = 0.035 + 0.05 * unit(d(2));
        let f2 = 0.015 + 0.03 * unit(d(3));
        let p1 = unit(d(4)) * std::f32::consts::TAU;
        let p2 = unit(d(5)) * std::f32::consts::TAU;

        let mut sx1 = vec![0.0f32; w];
        let mut sx2 = vec![0.0f32; w];
        let mut cx2 = vec![0.0f32; w];
        for (x, ((s1, s2), c2)) in sx1
            .iter_mut()
            .zip(sx2.iter_mut())
            .zip(cx2.iter_mut())
            .enumerate()
        {
            let wx = ox + x as f32;
            *s1 = (wx * f1x + p1).sin();
            let ang = wx * f2 + p2;
            *s2 = ang.sin();
            *c2 = ang.cos();
        }

        let a1 = 38.0;
        let a2 = 26.0;
        let buf = out.as_mut_bytes();
        for (y, row) in buf.chunks_exact_mut(w.max(1)).enumerate() {
            let wy = oy + y as f32;
            let c1 = (wy * f1y).cos();
            let ang = wy * f2 * 1.7;
            let s2y = ang.sin();
            let c2y = ang.cos();
            for (((px, &s1), &s2), &c2) in row.iter_mut().zip(&sx1).zip(&sx2).zip(&cx2) {
                *px = to_u8(128.0 + a1 * s1 * c1 + a2 * (s2 * c2y + c2 * s2y));
            }
        }

        for obj in objects {
            self.paint_object(buf, obj);
        }

        if self.noise_amp > 0.0 {
            let amp = self.noise_amp;
            let fseed = splitmix(frame_index.wrapping_mul(0x5851f42d4c957f2d));
            // Keyed on the pixel's index in the frame.
            for (i, px) in (0u64..).zip(buf.iter_mut()) {
                let n = unit(splitmix(fseed ^ i)) * 2.0 - 1.0;
                *px = to_u8(*px as f32 + n * amp);
            }
        }
    }

    /// Paints one object into the frame buffer `buf`.
    fn paint_object(&self, buf: &mut [u8], obj: &ObservedObject) {
        let b = &obj.screen_box;
        let x0 = b.left.floor().max(0.0) as i64;
        let y0 = b.top.floor().max(0.0) as i64;
        let x1 = (b.right().ceil() as i64).min(self.width as i64);
        let y1 = (b.bottom().ceil() as i64).min(self.height as i64);
        if x1 <= x0 || y1 <= y0 {
            return;
        }
        let (x0, x1, y0, y1) = (x0 as usize, x1 as usize, y0 as usize, y1 as usize);

        // Per-object texture parameters.
        let seed = obj.texture_seed as u64 ^ 0x0bec_7e57;
        let d = |i: u64| splitmix(seed.wrapping_add(i));
        let fu = 0.18 + 0.25 * unit(d(1));
        let fv = 0.18 + 0.25 * unit(d(2));
        let fd = 0.10 + 0.15 * unit(d(3));
        let pu = unit(d(4)) * std::f32::consts::TAU;
        let pv = unit(d(5)) * std::f32::consts::TAU;
        let tone = obj.base_tone as f32 + (unit(d(6)) - 0.5) * 40.0;

        // Exposure motion blur: average the object's appearance over its
        // relative motion during the shutter window. Taps that fall outside
        // the box blend with the background already in `buf`.
        let smear = obj.screen_velocity * EXPOSURE_S;
        let blur_len = smear.norm();
        let taps: &[f32] = if blur_len < 0.75 {
            &[0.0]
        } else if blur_len < 3.0 {
            &[-0.33, 0.0, 0.33]
        } else {
            &[-0.4, -0.2, 0.0, 0.2, 0.4]
        };
        let tables: Vec<TapTables> = taps
            .iter()
            .map(|&t| TapTables {
                u: (x0..x1)
                    .map(|x| {
                        let u = (x as f32 - b.left) - smear.x * t;
                        (u, 34.0 * (u * fu + pu).sin())
                    })
                    .collect(),
                v: (y0..y1)
                    .map(|y| {
                        let v = (y as f32 - b.top) - smear.y * t;
                        (v, (v * fv + pv).cos())
                    })
                    .collect(),
            })
            .collect();

        let (u_max, v_max) = (b.width - 1.0, b.height - 1.0);
        let rim = 2.0f32;
        let n = taps.len() as f32;
        let w = self.width as usize;
        let mut acc = vec![0.0f32; x1 - x0];
        for (r, row) in buf[y0 * w..y1 * w].chunks_exact_mut(w).enumerate() {
            let row = &mut row[x0..x1];
            acc.fill(0.0);
            for tab in &tables {
                let (v, cos_v) = tab.v[r];
                for ((a, &bg), &(u, sin_u)) in acc.iter_mut().zip(row.iter()).zip(&tab.u) {
                    // Object intensity at the box-local sample (u, v), or the
                    // background when the sample falls outside the box.
                    *a += if u < 0.0 || v < 0.0 || u > u_max || v > v_max {
                        bg as f32
                    } else {
                        let edge = u.min(u_max - u).min(v).min(v_max - v);
                        if edge < rim {
                            // Dark rim with a slight gradient: strong
                            // box-corner features.
                            30.0 + edge * 12.0
                        } else {
                            tone + sin_u * cos_v + 22.0 * ((u + v) * fd).sin()
                        }
                    };
                }
            }
            for (px, &a) in row.iter_mut().zip(&acc) {
                *px = to_u8(a / n);
            }
        }
    }
}

/// One blur tap's separable texture terms: per column `(u, 34·sin(u·fu +
/// pu))`, per row `(v, cos(v·fv + pv))`, with `(u, v)` the box-local sample
/// point of that tap.
struct TapTables {
    u: Vec<(f32, f32)>,
    v: Vec<(f32, f32)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectClass, ObjectId};
    use crate::scenario::{CameraMotion, Scenario};
    use crate::world::World;
    use adavp_vision::geometry::{BoundingBox, Vec2};

    fn obs(id: u32, left: f32, top: f32, w: f32, h: f32) -> ObservedObject {
        ObservedObject {
            id: ObjectId(id),
            class: ObjectClass::Car,
            screen_box: BoundingBox::new(left, top, w, h),
            texture_seed: 1234 + id,
            base_tone: 150,
            screen_velocity: Vec2::ZERO,
        }
    }

    #[test]
    fn store_helper_matches_saturating_cast() {
        let check = |v: f32| {
            assert_eq!(
                to_u8(v),
                v.clamp(0.0, 255.0) as u8,
                "{v:e} ({:#010x})",
                v.to_bits()
            );
        };
        // Where the helper could part from the cast: signed zeros and
        // infinities; quiet and signalling NaNs of both signs with several
        // payloads; subnormals; every integer 0..=256, its negation and its
        // neighbours one ulp away.
        let specials = [
            0x0000_0000u32,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7fc0_1234,
            0x7fff_ffff,
            0xffff_ffff,
            0x7f80_0001,
            0xff80_0001,
            0x7fa0_0000,
            0x0000_0001,
            0x0040_0000,
            0x007f_ffff,
            0x8000_0001,
            0x807f_ffff,
        ];
        specials.into_iter().map(f32::from_bits).for_each(check);
        for k in 0..=256u32 {
            let k = k as f32;
            [k, -k, k.next_up(), k.next_down()]
                .into_iter()
                .for_each(check);
        }
        // A strided walk over every bit pattern: 2^32 / 4099 ≈ 1.05M values
        // spread over every sign, exponent and mantissa range.
        (0..=u32::MAX)
            .step_by(4099)
            .map(f32::from_bits)
            .for_each(check);
    }

    #[test]
    fn renders_correct_dimensions() {
        let r = Renderer::new(64, 48, 7, 0.0);
        let img = r.render_at(0.0, 0.0, &[], 0);
        assert_eq!((img.width(), img.height()), (64, 48));
    }

    #[test]
    fn deterministic_render() {
        let r = Renderer::new(64, 48, 7, 2.0);
        let a = r.render_at(10.0, 5.0, &[obs(0, 10.0, 10.0, 20.0, 12.0)], 3);
        let b = r.render_at(10.0, 5.0, &[obs(0, 10.0, 10.0, 20.0, 12.0)], 3);
        assert_eq!(a, b);
    }

    #[test]
    fn background_translates_with_camera() {
        // bg(x + 10 | offset 0) == bg(x | offset 10) (no noise).
        let r = Renderer::new(64, 48, 7, 0.0);
        let a = r.render_at(0.0, 0.0, &[], 0);
        let b = r.render_at(10.0, 0.0, &[], 0);
        for y in 0..48 {
            for x in 0..54 {
                let va = a.get(x + 10, y) as i32;
                let vb = b.get(x, y) as i32;
                assert!(
                    (va - vb).abs() <= 1,
                    "background must be a function of world coords ({x},{y}): {va} vs {vb}"
                );
            }
        }
    }

    #[test]
    fn object_texture_translates_with_object() {
        let r = Renderer::new(96, 64, 7, 0.0);
        let a = r.render_at(0.0, 0.0, &[obs(0, 20.0, 20.0, 30.0, 18.0)], 0);
        let b = r.render_at(0.0, 0.0, &[obs(0, 25.0, 22.0, 30.0, 18.0)], 0);
        // Compare interiors (skip the rim).
        for dy in 4..14u32 {
            for dx in 4..26u32 {
                let va = a.get(20 + dx, 20 + dy) as i32;
                let vb = b.get(25 + dx, 22 + dy) as i32;
                assert!(
                    (va - vb).abs() <= 1,
                    "object texture must move rigidly with the box ({dx},{dy}): {va} vs {vb}"
                );
            }
        }
    }

    #[test]
    fn object_region_differs_from_background() {
        let r = Renderer::new(96, 64, 7, 0.0);
        let empty = r.render_at(0.0, 0.0, &[], 0);
        let with = r.render_at(0.0, 0.0, &[obs(0, 30.0, 20.0, 30.0, 20.0)], 0);
        let mut diff = 0u32;
        for y in 20..40 {
            for x in 30..60 {
                if empty.get(x, y) != with.get(x, y) {
                    diff += 1;
                }
            }
        }
        assert!(
            diff > 300,
            "object should repaint most of its region, diff = {diff}"
        );
    }

    #[test]
    fn newer_objects_draw_on_top() {
        let r = Renderer::new(96, 64, 7, 0.0);
        let lower = obs(0, 20.0, 20.0, 30.0, 20.0);
        let mut upper = obs(1, 20.0, 20.0, 30.0, 20.0);
        upper.base_tone = 220;
        let img = r.render_at(0.0, 0.0, &[lower.clone(), upper.clone()], 0);
        let only_upper = r.render_at(0.0, 0.0, &[upper], 0);
        for y in 24..36 {
            for x in 24..46 {
                assert_eq!(img.get(x, y), only_upper.get(x, y));
            }
        }
    }

    #[test]
    fn offscreen_object_is_clipped_safely() {
        let r = Renderer::new(64, 48, 7, 0.0);
        // Fully outside, partially outside: must not panic.
        let _ = r.render_at(0.0, 0.0, &[obs(0, -100.0, -100.0, 30.0, 20.0)], 0);
        let _ = r.render_at(0.0, 0.0, &[obs(0, -10.0, -10.0, 30.0, 20.0)], 0);
        let _ = r.render_at(0.0, 0.0, &[obs(0, 55.0, 40.0, 30.0, 20.0)], 0);
    }

    #[test]
    fn noise_changes_between_frames_but_is_bounded() {
        let r = Renderer::new(64, 48, 7, 3.0);
        let f0 = r.render_at(0.0, 0.0, &[], 0);
        let f1 = r.render_at(0.0, 0.0, &[], 1);
        assert_ne!(f0, f1, "noise must vary per frame");
        let clean = Renderer::new(64, 48, 7, 0.0).render_at(0.0, 0.0, &[], 0);
        for y in 0..48 {
            for x in 0..64 {
                let d = (f0.get(x, y) as i32 - clean.get(x, y) as i32).abs();
                assert!(d <= 4, "noise exceeded amplitude: {d}");
            }
        }
    }

    #[test]
    fn render_into_reuses_buffer_and_matches() {
        let spec = Scenario::Highway.spec();
        let mut world = World::new(spec.clone(), 9);
        let r = Renderer::new(spec.width, spec.height, 9, 2.0);
        let mut reused = GrayImage::new(1, 1); // wrong dims: must self-correct
        for _ in 0..3 {
            let fresh = r.render(&world);
            let was_sized = reused.width() == spec.width && reused.height() == spec.height;
            let ptr_before = reused.as_bytes().as_ptr();
            r.render_into(&world, &mut reused);
            assert_eq!(reused, fresh);
            if was_sized {
                // Once sized correctly the buffer must be reused in place.
                assert_eq!(reused.as_bytes().as_ptr(), ptr_before);
            }
            world.step();
        }
    }

    #[test]
    fn full_world_render_smoke() {
        let mut spec = Scenario::Highway.spec();
        spec.width = 160;
        spec.height = 90;
        spec.camera = CameraMotion::Static;
        let mut world = World::new(spec, 21);
        let r = Renderer::new(160, 90, 21, 2.0);
        for _ in 0..5 {
            let img = r.render(&world);
            assert_eq!(img.width(), 160);
            world.step();
        }
    }
}
