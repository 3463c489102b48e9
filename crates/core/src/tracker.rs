//! The object tracker (§IV-C): real feature extraction and optical flow
//! over rendered frames.
//!
//! Workflow, exactly as the paper describes it:
//!
//! 1. Receive the detector's results (labels + boxes) for the reference
//!    frame and extract Shi-Tomasi *good features* **inside the boxes only**
//!    (the paper masks the detected boxes; features elsewhere are useless).
//! 2. For each frame selected by the [`FrameSelector`], run pyramidal
//!    Lucas-Kanade from the previous processed frame, obtain per-feature
//!    displacements, and shift each box by its object's motion vector.
//! 3. Report the mean feature motion per frame — the video-content
//!    change-rate measurement (Eq. 3) consumed by the adaptation module.
//!
//! Tracking error accumulates for real reasons here: features drift on the
//! actual pixels, die when objects leave the frame or get occluded, and new
//! objects are invisible to the tracker until the next detection — the
//! phenomena behind the paper's Fig. 2.

use adavp_video::object::ObjectClass;
use adavp_vision::features::{good_features_in_boxes, GoodFeaturesParams};
use adavp_vision::flow::{LkParams, PyramidalLk};
use adavp_vision::geometry::{BoundingBox, Point2, Vec2};
use adavp_vision::image::GrayImage;
use adavp_vision::perf::{self, KernelCounters};
use adavp_vision::pyramid::Pyramid;

/// How a box's motion vector is derived from its features' flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPoints {
    /// Shift by the single strongest feature in the box (the paper's choice,
    /// to minimize per-frame latency: "for each bounding box, we find one
    /// point inside it and calculate the moving vector of this point").
    OnePerBox,
    /// Shift by the mean displacement of all surviving features in the box
    /// (ablation alternative).
    MeanOfBox,
}

/// Configuration of the object tracker.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// Shi-Tomasi parameters, applied to each box on its own
    /// (`max_corners` caps the features tracked per box).
    pub features: GoodFeaturesParams,
    /// Optical-flow parameters.
    pub lk: LkParams,
    /// Box-motion derivation.
    pub flow_points: FlowPoints,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            features: GoodFeaturesParams {
                max_corners: 6,
                quality_level: 0.03,
                min_distance: 4.0,
                block_radius: 1,
            },
            lk: LkParams {
                pyramid_levels: 4,
                ..LkParams::default()
            },
            flow_points: FlowPoints::OnePerBox,
        }
    }
}

/// A box the tracker is currently carrying.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedBox {
    /// Class label inherited from the detection.
    pub class: ObjectClass,
    /// Current estimated box.
    pub bbox: BoundingBox,
    /// Whether the box has lost all its features (position frozen).
    pub stale: bool,
}

#[derive(Debug, Clone)]
struct TrackedFeature {
    point: Point2,
    box_idx: usize,
    /// Shi-Tomasi response at extraction (strongest feature drives
    /// [`FlowPoints::OnePerBox`]).
    response: f32,
    alive: bool,
}

/// Per-kernel work performed during one tracking step, extracted from the
/// vision crate's [`perf`] counters. Lets the pipeline report exactly what a
/// step cost (and lets tests pin structural properties such as "one pyramid
/// build per new frame").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepWork {
    /// Image pyramids built (expected: exactly 1, for the new frame).
    pub pyramid_builds: u64,
    /// Scharr gradient tiles computed (only where LK windows read, and
    /// never twice for one pyramid).
    pub gradient_tiles: u64,
    /// Lucas-Kanade Newton iterations executed.
    pub lk_iterations: u64,
    /// Buffers freshly heap-allocated by vision kernels.
    pub buffers_allocated: u64,
    /// Buffers a pyramid rebuild kept and refilled in place.
    pub buffers_reused: u64,
    /// Nanoseconds spent building pyramids.
    pub pyramid_ns: u64,
    /// Nanoseconds spent in Lucas-Kanade tracking.
    pub flow_ns: u64,
}

impl From<&KernelCounters> for StepWork {
    fn from(c: &KernelCounters) -> Self {
        Self {
            pyramid_builds: c.pyramid_builds,
            gradient_tiles: c.gradient_tiles,
            lk_iterations: c.lk_iterations,
            buffers_allocated: c.buffers_allocated,
            buffers_reused: c.buffers_reused,
            pyramid_ns: c.pyramid_ns,
            flow_ns: c.flow_ns,
        }
    }
}

/// Statistics of one tracking step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean per-frame feature motion (Eq. 3): mean displacement magnitude of
    /// surviving features divided by the frame gap. `None` when no feature
    /// survived the step.
    pub mean_velocity: Option<f64>,
    /// Features successfully tracked in this step.
    pub features_tracked: usize,
    /// Features lost in this step.
    pub features_lost: usize,
    /// Kernel-level work breakdown for this step.
    pub work: StepWork,
}

/// The object tracker. See the module docs.
#[derive(Debug, Clone)]
pub struct ObjectTracker {
    config: TrackerConfig,
    lk: PyramidalLk,
    boxes: Vec<TrackedBox>,
    features: Vec<TrackedFeature>,
    reference: Option<Pyramid>,
    /// The pyramid the last step retired, without gradient planes (they
    /// moved to the reference). The next frame rebuilds it in place, so
    /// steady-state stepping allocates nothing.
    spare: Option<Pyramid>,
}

impl ObjectTracker {
    /// Creates a tracker with the given configuration.
    pub fn new(config: TrackerConfig) -> Self {
        let lk = PyramidalLk::new(config.lk.clone());
        Self {
            config,
            lk,
            boxes: Vec::new(),
            features: Vec::new(),
            reference: None,
            spare: None,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Current box estimates (empty before the first [`reset`](Self::reset)).
    pub fn boxes(&self) -> &[TrackedBox] {
        &self.boxes
    }

    /// Number of currently-alive features.
    pub fn alive_features(&self) -> usize {
        self.features.iter().filter(|f| f.alive).count()
    }

    /// Whether every box has gone stale (nothing left to track).
    pub fn all_stale(&self) -> bool {
        !self.boxes.is_empty() && self.boxes.iter().all(|b| b.stale)
    }

    /// Re-initializes the tracker from a detected reference frame: stores
    /// the detections and extracts good features inside each box.
    ///
    /// When `image` is the frame the tracker already carries as its
    /// reference (the common case: the detector ran on the frame the last
    /// [`step`](Self::step) ended on), the carried-forward pyramid — and the
    /// gradient tiles already computed on it — are reused instead of being
    /// rebuilt. Any other frame is rebuilt into the carried pyramid's
    /// buffers.
    ///
    /// Returns the number of features extracted.
    pub fn reset(&mut self, image: &GrayImage, detections: &[(ObjectClass, BoundingBox)]) -> usize {
        let pyramid = match self.reference.take() {
            Some(p) if p.base() == image => p,
            Some(mut p) => {
                p.rebuild(image);
                p
            }
            None => self.pyramid_of(image),
        };
        self.reset_with_pyramid(pyramid, detections)
    }

    /// Like [`reset`](Self::reset), but takes an already-built pyramid of the
    /// reference frame — for callers that have one in hand (e.g. a pipeline
    /// that pyramided the frame for its own purposes) and want to avoid any
    /// rebuild. Build it with the tracker's `lk.pyramid_levels`: the tracker
    /// rebuilds it in place for a later frame once it is retired.
    pub fn reset_with_pyramid(
        &mut self,
        mut pyramid: Pyramid,
        detections: &[(ObjectClass, BoundingBox)],
    ) -> usize {
        self.boxes = detections
            .iter()
            .map(|(class, bbox)| TrackedBox {
                class: *class,
                bbox: *bbox,
                stale: false,
            })
            .collect();
        self.features.clear();
        // Shi-Tomasi differentiates only the base-level tiles under each
        // box; the LK steps that track out of this reference frame reuse
        // them.
        for (idx, tb) in self.boxes.iter_mut().enumerate() {
            let corners = good_features_in_boxes(&mut pyramid, &self.config.features, &[tb.bbox]);
            if corners.is_empty() {
                tb.stale = true;
                continue;
            }
            for c in corners {
                self.features.push(TrackedFeature {
                    point: c.point,
                    box_idx: idx,
                    response: c.response,
                    alive: true,
                });
            }
        }
        self.reference = Some(pyramid);
        self.features.len()
    }

    /// A pyramid of `image`: the spare rebuilt in place, or a fresh build
    /// when there is none yet.
    fn pyramid_of(&mut self, image: &GrayImage) -> Pyramid {
        match self.spare.take() {
            Some(mut p) => {
                p.rebuild(image);
                p
            }
            None => Pyramid::build(image, self.config.lk.pyramid_levels),
        }
    }

    /// Tracks from the current reference frame into `next`, which is
    /// `frame_gap` camera frames later, shifting all boxes.
    ///
    /// Returns `None` if the tracker has no reference yet (call
    /// [`reset`](Self::reset) first).
    pub fn step(&mut self, next: &GrayImage, frame_gap: u32) -> Option<StepStats> {
        self.reference.as_ref()?;
        let before = perf::snapshot();
        let gap = frame_gap.max(1) as f64;
        let mut next_pyr = self.pyramid_of(next);

        let alive_idx: Vec<usize> = (0..self.features.len())
            .filter(|&i| self.features[i].alive)
            .collect();
        let points: Vec<Point2> = alive_idx.iter().map(|&i| self.features[i].point).collect();
        // LK computes the reference's gradient tiles under its windows.
        let reference = self.reference.as_mut().expect("checked above");
        let results = self.lk.track_pyramids(reference, &next_pyr, &points);
        // The reference's gradients are read for the last time: its planes
        // move to the next reference, so the spare holds none.
        next_pyr.swap_gradients(reference);

        let mut sum_motion = 0.0f64;
        let mut tracked = 0usize;
        let mut lost = 0usize;
        // Per-box displacement accumulation.
        let nb = self.boxes.len();
        let mut box_sum = vec![Vec2::ZERO; nb];
        let mut box_count = vec![0usize; nb];
        let mut box_best: Vec<Option<(f32, Vec2)>> = vec![None; nb];

        for (&fi, res) in alive_idx.iter().zip(&results) {
            let feat = &mut self.features[fi];
            if res.found {
                let d = res.displacement();
                feat.point = res.current;
                sum_motion += d.norm() as f64;
                tracked += 1;
                let bi = feat.box_idx;
                box_sum[bi] += d;
                box_count[bi] += 1;
                match box_best[bi] {
                    Some((r, _)) if r >= feat.response => {}
                    _ => box_best[bi] = Some((feat.response, d)),
                }
            } else {
                feat.alive = false;
                lost += 1;
            }
        }

        let w = next.width() as f32;
        let h = next.height() as f32;
        for (bi, tb) in self.boxes.iter_mut().enumerate() {
            if box_count[bi] == 0 {
                tb.stale = true;
                continue;
            }
            let d = match self.config.flow_points {
                FlowPoints::OnePerBox => box_best[bi].map(|(_, d)| d).unwrap_or(Vec2::ZERO),
                FlowPoints::MeanOfBox => box_sum[bi] / box_count[bi] as f32,
            };
            tb.bbox = tb.bbox.translated(d);
            // A box fully outside the frame is gone; kill its features.
            if tb.bbox.clipped(w, h).is_none() {
                tb.stale = true;
                for f in self.features.iter_mut().filter(|f| f.box_idx == bi) {
                    f.alive = false;
                }
            }
        }

        self.spare = self.reference.replace(next_pyr);
        Some(StepStats {
            mean_velocity: if tracked > 0 {
                Some(sum_motion / tracked as f64 / gap)
            } else {
                None
            },
            features_tracked: tracked,
            features_lost: lost,
            work: StepWork::from(&perf::snapshot().since(&before)),
        })
    }

    /// Current non-stale box estimates as `(class, bbox)` pairs, plus stale
    /// boxes at their frozen positions — what the pipeline displays.
    pub fn current_boxes(&self) -> Vec<(ObjectClass, BoundingBox)> {
        self.boxes.iter().map(|b| (b.class, b.bbox)).collect()
    }
}

/// The tracking-frame-selection scheme (§IV-C): track a fraction
/// `p = h_{t-1} / f_{t-1}` of the buffered frames at regular intervals,
/// where `h` is what the tracker managed last cycle and `f` the buffer size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSelector {
    p: f64,
}

impl Default for FrameSelector {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl FrameSelector {
    /// Minimum retained fraction, so the selector can always recover.
    pub const MIN_FRACTION: f64 = 0.05;

    /// Creates a selector with an initial tracking fraction.
    ///
    /// The paper starts optimistic (track everything) and lets cancellation
    /// pull the fraction down to CPU capacity.
    pub fn new(initial_p: f64) -> Self {
        Self {
            p: initial_p.clamp(Self::MIN_FRACTION, 1.0),
        }
    }

    /// Current fraction estimate.
    pub fn fraction(&self) -> f64 {
        self.p
    }

    /// Plans which of `buffered` frames to track this cycle: `h = p * f`
    /// indices (0-based, ascending) at regular intervals, always ending at
    /// the last buffered frame so the hand-off to the next detection is as
    /// fresh as possible.
    pub fn plan(&self, buffered: usize) -> Vec<usize> {
        if buffered == 0 {
            return Vec::new();
        }
        let h = ((self.p * buffered as f64).round() as usize).clamp(1, buffered);
        (1..=h).map(|i| (i * buffered) / h - 1).collect()
    }

    /// Records this cycle's outcome: `tracked` of `buffered` frames were
    /// actually processed before cancellation.
    pub fn update(&mut self, tracked: usize, buffered: usize) {
        if buffered == 0 {
            return;
        }
        self.p = (tracked as f64 / buffered as f64).clamp(Self::MIN_FRACTION, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_video::clip::VideoClip;
    use adavp_video::scenario::{CameraMotion, Scenario, ScenarioSpec};

    fn slow_clip(frames: u32) -> VideoClip {
        let mut spec: ScenarioSpec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.camera = CameraMotion::Static;
        spec.speed_range = (25.0, 45.0);
        spec.size_range = (28.0, 40.0);
        spec.initial_objects = 3;
        spec.max_objects = 3;
        spec.spawn_rate_hz = 0.0;
        spec.noise_amp = 1.0;
        spec.activity_depth = 0.0;
        VideoClip::generate("trk", &spec, 77, frames)
    }

    fn gt_pairs(clip: &VideoClip, i: usize) -> Vec<(ObjectClass, BoundingBox)> {
        clip.frame(i)
            .ground_truth
            .iter()
            .map(|g| (g.class, g.bbox))
            .collect()
    }

    #[test]
    fn reset_extracts_features_in_boxes() {
        let clip = slow_clip(2);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        let n = tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        assert!(n > 0, "objects have texture; features must be found");
        assert_eq!(tracker.boxes().len(), clip.frame(0).ground_truth.len());
        assert_eq!(tracker.alive_features(), n);
    }

    #[test]
    fn step_without_reset_returns_none() {
        let clip = slow_clip(1);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        assert!(tracker.step(&clip.frame(0).image, 1).is_none());
    }

    #[test]
    fn tracks_moving_objects_across_frames() {
        let clip = slow_clip(10);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        for i in 1..6 {
            let stats = tracker.step(&clip.frame(i).image, 1).unwrap();
            assert!(stats.features_tracked > 0, "lost everything at frame {i}");
        }
        // Tracked boxes should overlap the true boxes decently after 5 frames.
        let truth = gt_pairs(&clip, 5);
        let mut matched = 0;
        for tb in tracker.boxes() {
            if truth
                .iter()
                .any(|(c, b)| *c == tb.class && b.iou(&tb.bbox) > 0.5)
            {
                matched += 1;
            }
        }
        assert!(
            matched >= truth.len().saturating_sub(1).max(1),
            "only {matched}/{} boxes still on target",
            truth.len()
        );
    }

    #[test]
    fn velocity_reflects_object_speed() {
        let clip = slow_clip(6);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        let stats = tracker.step(&clip.frame(1).image, 1).unwrap();
        let v = stats.mean_velocity.expect("features survived");
        // Objects move 25-45 px/s at 30 fps -> ~0.8-1.5 px/frame.
        assert!(v > 0.3 && v < 3.0, "velocity {v} out of plausible range");
    }

    #[test]
    fn velocity_normalized_by_frame_gap() {
        let clip = slow_clip(7);
        let mut t1 = ObjectTracker::new(TrackerConfig::default());
        t1.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        let v1 = t1
            .step(&clip.frame(3).image, 3)
            .unwrap()
            .mean_velocity
            .unwrap();
        let mut t2 = ObjectTracker::new(TrackerConfig::default());
        t2.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        let mut v2 = 0.0;
        for i in 1..=3 {
            v2 = t2
                .step(&clip.frame(i).image, 1)
                .unwrap()
                .mean_velocity
                .unwrap();
        }
        // Per-frame velocity over a 3-frame gap should be commensurate with
        // single-frame stepping (same order of magnitude).
        assert!(
            v1 > 0.2 * v2 && v1 < 5.0 * v2.max(0.1),
            "v_gap={v1} v_step={v2}"
        );
    }

    #[test]
    fn boxes_leaving_frame_go_stale() {
        // Fast objects must exit the 240-px static view within 60 frames
        // (120-170 px/s for 2 s = 240-340 px of travel).
        let mut spec: ScenarioSpec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.camera = CameraMotion::Static;
        spec.speed_range = (120.0, 170.0);
        spec.size_range = (26.0, 36.0);
        spec.initial_objects = 3;
        spec.max_objects = 3;
        spec.spawn_rate_hz = 0.0;
        spec.noise_amp = 1.0;
        spec.activity_depth = 0.0;
        let clip = VideoClip::generate("exit", &spec, 78, 60);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        let initial = tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        for i in 1..60 {
            tracker.step(&clip.frame(i).image, 1);
        }
        assert!(
            tracker.boxes().iter().any(|b| b.stale) || tracker.alive_features() < initial,
            "expected decay after objects exit the frame"
        );
    }

    #[test]
    fn empty_detections_mean_no_boxes() {
        let clip = slow_clip(2);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        let n = tracker.reset(&clip.frame(0).image, &[]);
        assert_eq!(n, 0);
        assert!(tracker.boxes().is_empty());
        assert!(
            !tracker.all_stale(),
            "no boxes is not the same as all stale"
        );
        let stats = tracker.step(&clip.frame(1).image, 1).unwrap();
        assert_eq!(stats.features_tracked, 0);
        assert_eq!(stats.mean_velocity, None);
    }

    #[test]
    fn one_per_box_and_mean_both_track() {
        let clip = slow_clip(5);
        for fp in [FlowPoints::OnePerBox, FlowPoints::MeanOfBox] {
            let cfg = TrackerConfig {
                flow_points: fp,
                ..TrackerConfig::default()
            };
            let mut tracker = ObjectTracker::new(cfg);
            tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
            for i in 1..5 {
                tracker.step(&clip.frame(i).image, 1);
            }
            let truth = gt_pairs(&clip, 4);
            let hit = tracker
                .boxes()
                .iter()
                .filter(|tb| truth.iter().any(|(_, b)| b.iou(&tb.bbox) > 0.4))
                .count();
            assert!(hit > 0, "{fp:?} lost all boxes");
        }
    }

    #[test]
    fn stale_boxes_freeze_in_place() {
        // Frame A: textured scene; frame B: same shifted +3px; frame C: flat
        // gray (all features die). The box follows the shift, then freezes
        // where it was last tracked.
        let tex = |x: u32, y: u32| {
            let v = 120.0
                + 50.0 * ((x as f32) * 0.4).sin() * ((y as f32) * 0.33).cos()
                + 30.0 * (((x + y) as f32) * 0.17).sin();
            v.clamp(0.0, 255.0) as u8
        };
        let a = GrayImage::from_fn(120, 80, tex);
        let b = GrayImage::from_fn(120, 80, |x, y| {
            let sx = x.saturating_sub(3);
            tex(sx, y)
        });
        let c = GrayImage::from_fn(120, 80, |_, _| 10);
        let bbox = BoundingBox::new(40.0, 24.0, 30.0, 24.0);

        let mut t = ObjectTracker::new(TrackerConfig::default());
        t.reset(&a, &[(ObjectClass::Car, bbox)]);
        t.step(&b, 1).unwrap();
        let after_shift = t.boxes()[0].bbox;
        assert!(
            (after_shift.left - 43.0).abs() < 1.5,
            "box should follow the +3px shift, got {}",
            after_shift.left
        );
        t.step(&c, 1).unwrap();
        assert!(t.boxes()[0].stale, "flat frame must kill the features");
        let after_flat = t.boxes()[0].bbox;
        assert_eq!(after_flat, after_shift, "a stale box must not move");
    }

    #[test]
    fn step_builds_exactly_one_pyramid_per_frame() {
        let clip = slow_clip(5);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        for i in 1..5 {
            let stats = tracker.step(&clip.frame(i).image, 1).unwrap();
            assert_eq!(
                stats.work.pyramid_builds, 1,
                "frame {i}: the carried-forward reference must not be rebuilt"
            );
            assert!(stats.work.flow_ns > 0, "frame {i}: LK must have run");
        }
    }

    #[test]
    fn reset_reuses_carried_forward_pyramid() {
        let clip = slow_clip(3);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        tracker.step(&clip.frame(1).image, 1).unwrap();
        // The detector "ran" on frame 1 — the frame the tracker ended on.
        // Resetting with it must reuse the carried-forward pyramid, not
        // rebuild anything, and differentiate only tiles under the boxes.
        let before = perf::snapshot();
        let n = tracker.reset(&clip.frame(1).image, &gt_pairs(&clip, 1));
        let work = perf::snapshot().since(&before);
        assert!(n > 0);
        assert_eq!(work.pyramid_builds, 0, "carried-forward pyramid reused");
        assert_eq!(work.gradient_fields, 0, "no level is differentiated whole");
        // Three boxes cover only part of level 0.
        use adavp_vision::gradient::{TILE_H, TILE_W};
        let level0 = u64::from(240u32.div_ceil(TILE_W) * 140u32.div_ceil(TILE_H));
        assert!(
            work.gradient_tiles < level0,
            "tiles: {}",
            work.gradient_tiles
        );
        // Resetting again on the same frame finds every tile it reads
        // already computed: no tile is computed twice for one pyramid.
        let before = perf::snapshot();
        tracker.reset(&clip.frame(1).image, &gt_pairs(&clip, 1));
        let work = perf::snapshot().since(&before);
        assert_eq!(work.pyramid_builds, 0);
        assert_eq!(work.gradient_tiles, 0, "computed tiles reused");
        // A genuinely new frame does require exactly one build.
        let before = perf::snapshot();
        tracker.reset(&clip.frame(2).image, &gt_pairs(&clip, 2));
        let work = perf::snapshot().since(&before);
        assert_eq!(work.pyramid_builds, 1);
    }

    #[test]
    fn step_without_alive_features_computes_no_gradients() {
        let clip = slow_clip(3);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        tracker.reset(&clip.frame(0).image, &[]);
        let before = perf::snapshot();
        let stats = tracker.step(&clip.frame(1).image, 1).unwrap();
        let work = perf::snapshot().since(&before);
        assert_eq!(stats.features_tracked, 0);
        assert_eq!(stats.work.gradient_tiles, 0);
        assert_eq!(work.gradient_fields, 0);
        assert_eq!(work.gradient_ns, 0, "no gradient pixel computed");
        assert_eq!(work.pyramid_builds, 1);
    }

    #[test]
    fn steady_state_steps_are_allocation_free() {
        let clip = slow_clip(8);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        tracker.reset(&clip.frame(0).image, &gt_pairs(&clip, 0));
        // Warm up: the first steps build the reference and the spare
        // pyramid, and the LK reads allocate their gradient planes.
        for i in 1..4 {
            tracker.step(&clip.frame(i).image, 1).unwrap();
        }
        for i in 4..8 {
            let stats = tracker.step(&clip.frame(i).image, 1).unwrap();
            assert_eq!(
                stats.work.buffers_allocated, 0,
                "frame {i}: steady-state step must allocate no kernel buffers"
            );
            assert!(stats.work.buffers_reused > 0, "frame {i}");
        }
        // A detection on a frame other than the reference rebuilds the
        // reference in place, and the steps after it allocate nothing
        // either.
        let before = perf::snapshot();
        assert!(tracker.reset(&clip.frame(5).image, &gt_pairs(&clip, 5)) > 0);
        let work = perf::snapshot().since(&before);
        assert_eq!(work.pyramid_builds, 1, "reset on a new frame rebuilds");
        assert_eq!(
            work.buffers_allocated, 0,
            "reset must allocate no kernel buffers"
        );
        assert!(work.buffers_reused > 0);
        for i in 6..8 {
            let stats = tracker.step(&clip.frame(i).image, 1).unwrap();
            assert_eq!(stats.work.buffers_allocated, 0, "frame {i} after reset");
        }
    }

    // ---- FrameSelector ------------------------------------------------

    #[test]
    fn selector_starts_optimistic() {
        let s = FrameSelector::default();
        assert_eq!(s.fraction(), 1.0);
        assert_eq!(s.plan(5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn selector_plan_spacing() {
        let s = FrameSelector::new(0.5);
        let plan = s.plan(10);
        assert_eq!(plan.len(), 5);
        // Regular intervals, ending on the last frame.
        assert_eq!(plan, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn selector_plan_always_selects_at_least_one() {
        let s = FrameSelector::new(0.05);
        assert_eq!(s.plan(3), vec![2]);
        assert!(s.plan(0).is_empty());
        assert_eq!(s.plan(1), vec![0]);
    }

    #[test]
    fn selector_update_tracks_capacity() {
        let mut s = FrameSelector::default();
        s.update(3, 12);
        assert!((s.fraction() - 0.25).abs() < 1e-12);
        // Clamped below.
        s.update(0, 10);
        assert_eq!(s.fraction(), FrameSelector::MIN_FRACTION);
        // Zero buffer leaves the estimate alone.
        let before = s.fraction();
        s.update(5, 0);
        assert_eq!(s.fraction(), before);
    }

    #[test]
    fn selector_plan_indices_strictly_increasing_and_in_range() {
        for p in [0.1, 0.33, 0.5, 0.9, 1.0] {
            let s = FrameSelector::new(p);
            for f in 1..40 {
                let plan = s.plan(f);
                assert!(!plan.is_empty());
                assert_eq!(*plan.last().unwrap(), f - 1, "must end at last frame");
                for w in plan.windows(2) {
                    assert!(w[0] < w[1], "p={p} f={f}: plan not increasing: {plan:?}");
                }
                assert!(plan.iter().all(|&i| i < f));
            }
        }
    }
}
