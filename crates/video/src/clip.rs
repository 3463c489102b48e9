//! Rendered video clips with per-frame ground truth.
//!
//! A [`VideoClip`] is the unit the pipelines consume: a sequence of
//! [`Frame`]s, each carrying its pixel image (for the *real* tracker) and its
//! ground-truth object list (which the *simulated* detector perturbs and the
//! metrics compare against).

use crate::object::{ObjectClass, ObjectId};
use crate::render::Renderer;
use crate::scenario::ScenarioSpec;
use crate::world::World;
use adavp_vision::geometry::BoundingBox;
use adavp_vision::image::GrayImage;

/// Minimum fraction of an object that must be inside the frame for it to
/// count as ground truth.
pub const MIN_VISIBLE_FRACTION: f32 = 0.25;
/// Minimum on-screen area (px²) for a ground-truth object.
pub const MIN_VISIBLE_AREA: f32 = 120.0;

/// One object in a frame's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthObject {
    /// Identity of the world object (stable across frames).
    pub id: ObjectId,
    /// True class label.
    pub class: ObjectClass,
    /// Bounding box clipped to the frame, `(left, top, width, height)`.
    pub bbox: BoundingBox,
    /// Fraction of the object's full box that is on screen, in `(0, 1]`.
    pub visible_fraction: f32,
    /// Screen-space speed relative to the camera, in px/frame — the motion
    /// the tracker (and the detector's motion-blur confidence penalty)
    /// actually sees.
    pub speed: f32,
}

/// One captured frame: pixels plus ground truth.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index within the clip (0-based).
    pub index: u64,
    /// Capture timestamp in milliseconds since clip start.
    pub timestamp_ms: f64,
    /// Rendered grayscale image.
    pub image: GrayImage,
    /// Objects visible in this frame.
    pub ground_truth: Vec<GroundTruthObject>,
}

/// A generated video clip.
///
/// # Example
///
/// ```
/// use adavp_video::scenario::Scenario;
/// use adavp_video::clip::VideoClip;
/// let clip = VideoClip::generate("hw", &Scenario::Highway.spec(), 1, 10);
/// assert_eq!(clip.len(), 10);
/// assert!((clip.frame(3).timestamp_ms - 100.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct VideoClip {
    name: String,
    spec: ScenarioSpec,
    seed: u64,
    frames: Vec<Frame>,
}

impl VideoClip {
    /// Generates a clip of `num_frames` frames from a scenario.
    ///
    /// Deterministic in `(spec, seed)`.
    pub fn generate(name: &str, spec: &ScenarioSpec, seed: u64, num_frames: u32) -> Self {
        let mut world = World::new(spec.clone(), seed);
        let renderer = Renderer::new(spec.width, spec.height, seed, spec.noise_amp);
        let interval = spec.frame_interval_ms();
        let mut frames = Vec::with_capacity(num_frames as usize);
        for i in 0..num_frames {
            let image = renderer.render(&world);
            let ground_truth = extract_ground_truth(&world);
            frames.push(Frame {
                index: i as u64,
                timestamp_ms: i as f64 * interval,
                image,
                ground_truth,
            });
            world.step();
        }
        Self {
            name: name.to_string(),
            spec: spec.clone(),
            seed,
            frames,
        }
    }

    /// Clip name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario specification the clip was generated from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the clip has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.spec.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.spec.height
    }

    /// Frames per second.
    pub fn fps(&self) -> f32 {
        self.spec.fps
    }

    /// Interval between frames, in milliseconds.
    pub fn frame_interval_ms(&self) -> f64 {
        self.spec.frame_interval_ms()
    }

    /// Total duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.frames.len() as f64 * self.frame_interval_ms()
    }

    /// The frame at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn frame(&self, index: usize) -> &Frame {
        &self.frames[index]
    }

    /// All frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Iterator over frames.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }
}

impl<'a> IntoIterator for &'a VideoClip {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

fn extract_ground_truth(world: &World) -> Vec<GroundTruthObject> {
    let w = world.spec().width as f32;
    let h = world.spec().height as f32;
    let fps = world.spec().fps.max(1.0);
    world
        .observe()
        .iter()
        .filter_map(|obs| {
            let full = obs.screen_box;
            let clipped = full.clipped(w, h)?;
            let fraction = if full.area() > 0.0 {
                (clipped.area() / full.area()).min(1.0)
            } else {
                0.0
            };
            if fraction >= MIN_VISIBLE_FRACTION && clipped.area() >= MIN_VISIBLE_AREA {
                Some(GroundTruthObject {
                    id: obs.id,
                    class: obs.class,
                    bbox: clipped,
                    visible_fraction: fraction,
                    speed: obs.screen_velocity.norm() / fps,
                })
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn small_spec(s: Scenario) -> ScenarioSpec {
        let mut spec = s.spec();
        spec.width = 160;
        spec.height = 96;
        spec.size_range = (14.0, 26.0);
        spec
    }

    #[test]
    fn generate_deterministic() {
        let spec = small_spec(Scenario::Highway);
        let a = VideoClip::generate("a", &spec, 5, 8);
        let b = VideoClip::generate("b", &spec, 5, 8);
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.image, fb.image);
            assert_eq!(fa.ground_truth, fb.ground_truth);
        }
    }

    #[test]
    fn timestamps_follow_fps() {
        let spec = small_spec(Scenario::Highway);
        let clip = VideoClip::generate("t", &spec, 1, 4);
        assert_eq!(clip.frame(0).timestamp_ms, 0.0);
        assert!((clip.frame(3).timestamp_ms - 100.0).abs() < 0.01);
        assert!((clip.duration_ms() - 4.0 * clip.frame_interval_ms()).abs() < 1e-9);
    }

    #[test]
    fn ground_truth_boxes_inside_frame() {
        let spec = small_spec(Scenario::Intersection);
        let clip = VideoClip::generate("g", &spec, 3, 30);
        for f in &clip {
            for gt in &f.ground_truth {
                assert!(gt.bbox.left >= 0.0);
                assert!(gt.bbox.top >= 0.0);
                assert!(gt.bbox.right() <= clip.width() as f32 + 1e-3);
                assert!(gt.bbox.bottom() <= clip.height() as f32 + 1e-3);
                assert!(gt.visible_fraction > 0.0 && gt.visible_fraction <= 1.0);
                assert!(gt.bbox.area() >= MIN_VISIBLE_AREA);
            }
        }
    }

    #[test]
    fn ground_truth_speed_is_screen_relative_px_per_frame() {
        let spec = small_spec(Scenario::Highway);
        let clip = VideoClip::generate("v", &spec, 3, 30);
        let mut max_speed = 0.0f32;
        for f in &clip {
            for gt in &f.ground_truth {
                assert!(gt.speed.is_finite() && gt.speed >= 0.0);
                max_speed = max_speed.max(gt.speed);
            }
        }
        // Highway traffic moves: some object must have visible motion.
        assert!(max_speed > 0.1, "max speed {max_speed}");
        // And px/frame magnitudes stay plausible for the rendered scale.
        assert!(max_speed < 100.0, "max speed {max_speed}");
    }

    #[test]
    fn ground_truth_ids_persist_across_frames() {
        let spec = small_spec(Scenario::MeetingRoom);
        let clip = VideoClip::generate("m", &spec, 7, 20);
        let first: Vec<_> = clip.frame(0).ground_truth.iter().map(|g| g.id).collect();
        let last: Vec<_> = clip.frame(19).ground_truth.iter().map(|g| g.id).collect();
        let kept = first.iter().filter(|id| last.contains(id)).count();
        assert!(
            kept >= 1,
            "slow scenario should keep objects across 20 frames"
        );
    }

    #[test]
    fn iteration_and_len() {
        let spec = small_spec(Scenario::Highway);
        let clip = VideoClip::generate("i", &spec, 1, 6);
        assert_eq!(clip.len(), 6);
        assert!(!clip.is_empty());
        assert_eq!(clip.iter().count(), 6);
        assert_eq!((&clip).into_iter().count(), 6);
        let empty = VideoClip::generate("e", &spec, 1, 0);
        assert!(empty.is_empty());
    }
}
