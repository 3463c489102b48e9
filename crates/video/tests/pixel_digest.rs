//! Golden digests of rendered pixels.
//!
//! The rasterizer's output feeds the real tracker, so every figure depends
//! on its exact bytes. These tests hash every byte of every rendered frame
//! with FNV-1a and compare the hash with a value recorded from the renderer
//! before any of its speed-ups: a change that moves one pixel by one gray
//! level fails here. The scenes are chosen so that every renderer branch
//! runs, and the tests assert that it does: 1-, 3- and 5-tap exposure blur,
//! camera motion, object boxes clipped at the frame edge, and sensor noise.

use adavp_rng::{fnv1a, FNV1A_OFFSET};
use adavp_video::object::{ObjectClass, ObjectId};
use adavp_video::render::{Renderer, EXPOSURE_S};
use adavp_video::scenario::Scenario;
use adavp_video::world::{ObservedObject, World};
use adavp_vision::geometry::{BoundingBox, Vec2};

/// Number of blur taps the renderer uses for an object (mirrors the
/// thresholds in `Renderer::paint_object`).
fn taps(obj: &ObservedObject) -> usize {
    let len = (obj.screen_velocity * EXPOSURE_S).norm();
    if len < 0.75 {
        1
    } else if len < 3.0 {
        3
    } else {
        5
    }
}

/// What the scenes exercised, so a digest cannot pass on scenes that skip a
/// branch.
#[derive(Debug, Default)]
struct Coverage {
    /// Visible objects drawn with 1, 3 and 5 blur taps.
    taps: [usize; 3],
    /// Visible objects whose box crosses a frame edge.
    clipped: usize,
    /// Frames whose camera offset differs from the previous frame's.
    camera_moves: usize,
    /// Frames rendered with sensor noise on.
    noisy: usize,
}

impl Coverage {
    fn objects(&mut self, objects: &[ObservedObject], w: u32, h: u32) {
        let (w, h) = (w as f32, h as f32);
        for o in objects {
            let b = &o.screen_box;
            let visible = b.right() > 0.0 && b.bottom() > 0.0 && b.left < w && b.top < h;
            if !visible {
                continue;
            }
            self.taps[[0, 0, 1, 1, 2][taps(o) - 1]] += 1;
            if b.left < 0.0 || b.top < 0.0 || b.right() > w || b.bottom() > h {
                self.clipped += 1;
            }
        }
    }

    fn assert_complete(&self) {
        assert!(
            self.taps.iter().all(|&n| n > 0)
                && self.clipped > 0
                && self.camera_moves > 0
                && self.noisy > 0,
            "scenes must exercise every renderer branch: {self:?}"
        );
    }
}

#[test]
fn every_scenario_renders_its_golden_pixels() {
    const FRAMES: u32 = 24;
    let mut digest = FNV1A_OFFSET;
    let mut cov = Coverage::default();
    for (i, scenario) in Scenario::ALL.iter().enumerate() {
        let spec = scenario.spec();
        assert_eq!((spec.width, spec.height), (640, 360));
        let seed = 11 + i as u64;
        let mut world = World::new(spec.clone(), seed);
        let renderer = Renderer::new(spec.width, spec.height, seed, spec.noise_amp);
        let mut last_offset = None;
        for _ in 0..FRAMES {
            let offset = world.camera_offset(world.time_s());
            if last_offset.is_some_and(|o| o != offset) {
                cov.camera_moves += 1;
            }
            last_offset = Some(offset);
            cov.objects(&world.observe(), spec.width, spec.height);
            cov.noisy += usize::from(spec.noise_amp > 0.0);
            digest = fnv1a(digest, renderer.render(&world).as_bytes());
            world.step();
        }
    }
    cov.assert_complete();
    assert_eq!(
        digest, 0x3992_ba47_6021_15d5,
        "14 scenarios x {FRAMES} frames at 640x360: pixel digest {digest:#018x}"
    );
}

fn object(id: u32, b: BoundingBox, velocity: Vec2) -> ObservedObject {
    ObservedObject {
        id: ObjectId(id),
        class: ObjectClass::Car,
        screen_box: b,
        texture_seed: 977 + 31 * id,
        base_tone: [150, 90, 210, 60, 180, 120][id as usize % 6],
        screen_velocity: velocity,
    }
}

#[test]
fn moving_objects_render_their_golden_pixels() {
    // Fractional boxes, overlapping draws, edge clipping on all four sides,
    // and smear along each axis and the diagonal at every tap count.
    let layout = [
        object(0, BoundingBox::new(40.3, 30.7, 120.0, 80.0), Vec2::ZERO),
        object(
            1,
            BoundingBox::new(120.5, 60.25, 90.0, 50.0),
            Vec2::new(60.0, 0.0),
        ),
        object(
            2,
            BoundingBox::new(300.0, 150.0, 70.0, 70.0),
            Vec2::new(-90.0, 80.0),
        ),
        object(
            3,
            BoundingBox::new(-25.6, 200.2, 80.0, 60.0),
            Vec2::new(300.0, 0.0),
        ),
        object(
            4,
            BoundingBox::new(590.1, -20.4, 75.0, 64.0),
            Vec2::new(0.0, -210.0),
        ),
        object(
            5,
            BoundingBox::new(420.9, 310.5, 66.0, 70.0),
            Vec2::new(-160.0, 170.0),
        ),
        object(
            6,
            BoundingBox::new(250.0, 90.0, 3.5, 2.5),
            Vec2::new(40.0, 40.0),
        ),
        object(
            7,
            BoundingBox::new(500.2, 120.8, 40.0, 30.0),
            Vec2::new(33.0, -30.0),
        ),
    ];
    let mut cov = Coverage::default();
    cov.objects(&layout, 640, 360);
    cov.camera_moves = 1;
    cov.noisy = 1;
    cov.assert_complete();

    let renderer = Renderer::new(640, 360, 29, 2.5);
    let mut digest = FNV1A_OFFSET;
    for (frame, (ox, oy)) in [(0.0, 0.0), (13.25, -7.5)].into_iter().enumerate() {
        digest = fnv1a(
            digest,
            renderer.render_at(ox, oy, &layout, frame as u64).as_bytes(),
        );
    }
    assert_eq!(
        digest, 0x9a24_2a5e_e471_6199,
        "render_at layout: pixel digest {digest:#018x}"
    );
}
