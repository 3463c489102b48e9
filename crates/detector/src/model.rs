//! The simulated detector: a calibrated error + latency model over ground
//! truth.
//!
//! For each true object the model decides (deterministically per
//! `(seed, frame index, setting, object id)`):
//!
//! * **detection** — a recall probability that grows with object area and
//!   with the input size (small objects vanish first at small input sizes —
//!   the dominant accuracy effect of shrinking YOLOv3's input);
//! * **label** — confusion within the class family with a size-dependent
//!   probability (cars ↔ trucks, as in the paper's Fig. 5 example);
//! * **box** — Gaussian localization jitter on position and size,
//!   shrinking with input size.
//!
//! Independently, spurious **false positives** appear at a size-dependent
//! Poisson rate. Latency is the setting's base latency plus a small
//! per-object cost and deterministic jitter.
//!
//! Each detection carries a **confidence** in `(0, 1]`: the per-object
//! detection probability (object scale × setting recall profile) decayed
//! by a motion-blur penalty in the object's screen speed, times a small
//! seeded noise factor — so confidence is a deterministic function of
//! `(seed, frame, setting, object)` exactly like every other draw. The
//! cascade scheme gates its full detector on it, and the CTD scheme seeds
//! its tracker-confidence decay from it.

use crate::settings::ModelSetting;
use adavp_rng::{splitmix, Rng};
use adavp_video::clip::Frame;
use adavp_video::object::ObjectClass;
use adavp_vision::geometry::BoundingBox;

/// One detected object.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Predicted class label.
    pub class: ObjectClass,
    /// Predicted bounding box (clipped to the frame).
    pub bbox: BoundingBox,
    /// Detector confidence in `(0, 1]`.
    pub confidence: f32,
}

/// The output of one detector invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// Detected objects.
    pub detections: Vec<Detection>,
    /// Simulated processing latency for this frame, in milliseconds.
    pub latency_ms: f64,
    /// The setting the frame was processed with.
    pub setting: ModelSetting,
}

/// Anything that can run object detection on a frame.
///
/// The pipelines are generic over this trait so tests can plug in a perfect
/// oracle, and a future port could plug real `tch`/`onnxruntime` inference.
pub trait Detector {
    /// Detects objects in `frame` using `setting`.
    fn detect(&mut self, frame: &Frame, setting: ModelSetting) -> DetectionResult;

    /// Detects objects restricted to `region` (frame coordinates).
    ///
    /// The contract cascaded pipelines rely on: the returned detections are
    /// exactly the full-frame detections whose centers fall inside `region`
    /// — a *subset* of [`Detector::detect`] on the same frame, drawn from
    /// the same seeded noise, so running the detector on a region never
    /// invents boxes a full pass would not have produced. The reported
    /// `latency_ms` is still the full-frame cost; callers charge the
    /// proportionally reduced cost via
    /// `adavp_core::latency::region_scaled_ms` (the latency model is the
    /// pipeline layer's concern, not the error model's).
    fn detect_region(
        &mut self,
        frame: &Frame,
        setting: ModelSetting,
        region: &BoundingBox,
    ) -> DetectionResult {
        let mut result = self.detect(frame, setting);
        result
            .detections
            .retain(|d| region.contains(d.bbox.center()));
        result
    }
}

/// Relative standard deviation of the detector's latency jitter.
pub const LATENCY_JITTER: f64 = 0.05;

/// Configuration of [`SimulatedDetector`]. The error model itself (the
/// per-setting error profiles and [`LATENCY_JITTER`]) is calibrated so that
/// F1 against the simulated YOLOv3-704 pseudo-ground-truth matches the
/// paper's Fig. 1 (0.62 at 320 → 0.88 at 608); only the noise seed is
/// configurable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectorConfig {
    /// Seed for all detector noise.
    pub seed: u64,
}

impl DetectorConfig {
    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-setting error-model constants.
#[derive(Debug, Clone, Copy)]
struct ErrorProfile {
    /// Area (px²) at which detection probability reaches ~63% of its cap.
    area0: f32,
    /// Cap on per-object detection probability.
    recall_cap: f32,
    /// Std-dev of box-coordinate jitter as a fraction of box size.
    jitter_frac: f32,
    /// Probability of within-family label confusion.
    confusion_p: f32,
    /// Expected false positives per frame.
    fp_rate: f32,
}

fn profile(setting: ModelSetting) -> ErrorProfile {
    match setting {
        ModelSetting::Tiny320 => ErrorProfile {
            area0: 3300.0,
            recall_cap: 0.62,
            jitter_frac: 0.16,
            confusion_p: 0.30,
            fp_rate: 0.9,
        },
        ModelSetting::Yolo320 => ErrorProfile {
            area0: 1800.0,
            recall_cap: 0.86,
            jitter_frac: 0.075,
            confusion_p: 0.12,
            fp_rate: 0.35,
        },
        ModelSetting::Yolo416 => ErrorProfile {
            area0: 1150.0,
            recall_cap: 0.92,
            jitter_frac: 0.055,
            confusion_p: 0.08,
            fp_rate: 0.22,
        },
        ModelSetting::Yolo512 => ErrorProfile {
            area0: 700.0,
            recall_cap: 0.955,
            jitter_frac: 0.042,
            confusion_p: 0.05,
            fp_rate: 0.13,
        },
        ModelSetting::Yolo608 => ErrorProfile {
            area0: 430.0,
            recall_cap: 0.975,
            jitter_frac: 0.034,
            confusion_p: 0.03,
            fp_rate: 0.07,
        },
        ModelSetting::Yolo704 => ErrorProfile {
            area0: 260.0,
            recall_cap: 0.995,
            jitter_frac: 0.012,
            confusion_p: 0.006,
            fp_rate: 0.015,
        },
    }
}

/// Per-px/frame confidence decay from exposure motion blur: an object
/// moving 8 px/frame loses about half its confidence relative to a static
/// one, roughly matching how the renderer's exposure blur washes out
/// texture at that speed.
const MOTION_BLUR_RATE: f32 = 0.125;

/// The simulated YOLOv3. See the module docs.
///
/// Detection output is a pure function of
/// `(config, frame index, setting, ground truth)`: two detectors with the
/// same config produce identical results regardless of call order, which
/// keeps whole pipeline simulations deterministic and lets different
/// pipelines observe consistent detector behaviour on the same frames.
#[derive(Debug, Clone)]
pub struct SimulatedDetector {
    config: DetectorConfig,
}

impl SimulatedDetector {
    /// Creates a detector with the given error-model configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    fn frame_rng(&self, frame_index: u64, setting: ModelSetting, salt: u64) -> Rng {
        let s = splitmix(
            self.config
                .seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(frame_index)
                .wrapping_add((setting.input_size() as u64) << 32)
                .wrapping_add(salt.wrapping_mul(0x517cc1b727220a95)),
        );
        Rng::seed_from_u64(s)
    }

    /// Standard normal sample via Box-Muller.
    // adavp-lint: allow(float-determinism, item=SimulatedDetector) — ln/exp/cos shape the calibrated noise model from a seeded Rng; model bytes are pinned by the golden accuracy-profile tests, so libm drift fails loudly there
    fn gauss(rng: &mut Rng) -> f32 {
        let u1: f32 = rng.gen_range(1e-6..1.0f32);
        let u2: f32 = rng.gen::<f32>();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

impl Detector for SimulatedDetector {
    fn detect(&mut self, frame: &Frame, setting: ModelSetting) -> DetectionResult {
        let p = profile(setting);
        let fw = frame.image.width() as f32;
        let fh = frame.image.height() as f32;
        let mut detections = Vec::with_capacity(frame.ground_truth.len());

        for gt in &frame.ground_truth {
            let mut rng = self.frame_rng(frame.index, setting, gt.id.0 as u64 + 1);
            // Recall: probability rises with object area; partially-visible
            // objects are harder.
            let area = gt.bbox.area();
            let p_det_raw = p.recall_cap * (1.0 - (-area / p.area0).exp()) * gt.visible_fraction;
            let p_det = 1.0 - (1.0 - p_det_raw).clamp(0.0, 1.0);
            if rng.gen::<f32>() > p_det {
                continue;
            }

            // Label confusion within the class family.
            let class = {
                let candidates = gt.class.confusable();
                if !candidates.is_empty() && rng.gen::<f32>() < p.confusion_p {
                    candidates[rng.gen_range(0..candidates.len())]
                } else {
                    gt.class
                }
            };

            // Localization jitter.
            let jf = p.jitter_frac;
            let dx = Self::gauss(&mut rng) * jf * gt.bbox.width;
            let dy = Self::gauss(&mut rng) * jf * gt.bbox.height;
            let dw = Self::gauss(&mut rng) * jf * gt.bbox.width;
            let dh = Self::gauss(&mut rng) * jf * gt.bbox.height;
            let raw = BoundingBox::new(
                gt.bbox.left + dx,
                gt.bbox.top + dy,
                (gt.bbox.width + dw).max(2.0),
                (gt.bbox.height + dh).max(2.0),
            );
            let Some(bbox) = raw.clipped(fw, fh) else {
                continue;
            };
            if bbox.area() < 4.0 {
                continue;
            }

            // Confidence: the detection probability already folds in object
            // scale (area vs area0) and the setting (recall cap), so it is
            // the natural backbone; fast-moving objects smear across the
            // exposure, so a motion-blur penalty decays confidence with the
            // object's screen speed (px/frame). The residual noise comes
            // from the same per-object seeded stream as every other draw.
            let blur = 1.0 / (1.0 + MOTION_BLUR_RATE * gt.speed);
            let confidence = (p_det * blur * (0.85 + 0.15 * rng.gen::<f32>())).clamp(0.05, 1.0);
            detections.push(Detection {
                class,
                bbox,
                confidence,
            });
        }

        // False positives: Poisson(fp_rate) spurious boxes.
        let mut rng = self.frame_rng(frame.index, setting, 0);
        let lambda = p.fp_rate;
        let mut k = 0u32;
        if lambda > 0.0 {
            // Knuth's algorithm; lambda is small (< 1).
            let l = (-lambda).exp();
            let mut prod = rng.gen::<f32>();
            while prod > l {
                k += 1;
                prod *= rng.gen::<f32>();
            }
        }
        for _ in 0..k {
            let w = rng.gen_range(14.0..70.0f32);
            let h = rng.gen_range(12.0..50.0f32);
            let left = rng.gen_range(0.0..(fw - w).max(1.0));
            let top = rng.gen_range(0.0..(fh - h).max(1.0));
            let class = ObjectClass::ALL[rng.gen_range(0..ObjectClass::ALL.len())];
            detections.push(Detection {
                class,
                bbox: BoundingBox::new(left, top, w, h),
                confidence: rng.gen_range(0.05..0.5),
            });
        }

        // Latency: base + per-object cost + multiplicative jitter.
        let mut lat_rng = self.frame_rng(frame.index, setting, u64::MAX);
        let base = setting.base_latency_ms() + 1.5 * frame.ground_truth.len() as f64;
        let jitter = 1.0 + LATENCY_JITTER * Self::gauss(&mut lat_rng) as f64;
        let latency_ms = (base * jitter.clamp(0.7, 1.3)).max(1.0);

        DetectionResult {
            detections,
            latency_ms,
            setting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_video::clip::VideoClip;
    use adavp_video::scenario::Scenario;

    fn test_clip(frames: u32) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 320;
        spec.height = 180;
        spec.size_range = (24.0, 48.0);
        VideoClip::generate("t", &spec, 9, frames)
    }

    #[test]
    fn deterministic_per_frame_and_order_independent() {
        let clip = test_clip(3);
        let mut a = SimulatedDetector::new(DetectorConfig::default());
        let mut b = SimulatedDetector::new(DetectorConfig::default());
        // a: frames 0,1,2 — b: frames 2,0,1; per-frame results must agree.
        let a0 = a.detect(clip.frame(0), ModelSetting::Yolo512);
        let a1 = a.detect(clip.frame(1), ModelSetting::Yolo512);
        let a2 = a.detect(clip.frame(2), ModelSetting::Yolo512);
        let b2 = b.detect(clip.frame(2), ModelSetting::Yolo512);
        let b0 = b.detect(clip.frame(0), ModelSetting::Yolo512);
        let b1 = b.detect(clip.frame(1), ModelSetting::Yolo512);
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let clip = test_clip(1);
        let mut a = SimulatedDetector::new(DetectorConfig::default().with_seed(1));
        let mut b = SimulatedDetector::new(DetectorConfig::default().with_seed(2));
        let ra = a.detect(clip.frame(0), ModelSetting::Yolo320);
        let rb = b.detect(clip.frame(0), ModelSetting::Yolo320);
        assert_ne!(ra.detections, rb.detections);
    }

    #[test]
    fn heavier_setting_detects_no_fewer_on_average() {
        let clip = test_clip(20);
        let mut det = SimulatedDetector::new(DetectorConfig::default());
        let count = |s: ModelSetting, det: &mut SimulatedDetector| -> usize {
            clip.iter().map(|f| det.detect(f, s).detections.len()).sum()
        };
        let small = count(ModelSetting::Yolo320, &mut det);
        let big = count(ModelSetting::Yolo608, &mut det);
        let tiny = count(ModelSetting::Tiny320, &mut det);
        assert!(
            big >= small,
            "608 ({big}) should find at least as much as 320 ({small})"
        );
        assert!(
            tiny <= small,
            "tiny ({tiny}) should find no more than 320 ({small})"
        );
    }

    #[test]
    fn latency_tracks_setting() {
        let clip = test_clip(5);
        let mut det = SimulatedDetector::new(DetectorConfig::default());
        let mean = |s: ModelSetting, det: &mut SimulatedDetector| -> f64 {
            clip.iter()
                .map(|f| det.detect(f, s).latency_ms)
                .sum::<f64>()
                / clip.len() as f64
        };
        let l320 = mean(ModelSetting::Yolo320, &mut det);
        let l608 = mean(ModelSetting::Yolo608, &mut det);
        assert!(l320 > 180.0 && l320 < 300.0, "320 latency {l320}");
        assert!(l608 > 420.0 && l608 < 600.0, "608 latency {l608}");
    }

    #[test]
    fn detections_stay_inside_frame() {
        let clip = test_clip(10);
        let mut det = SimulatedDetector::new(DetectorConfig::default());
        for f in &clip {
            for s in ModelSetting::ALL {
                let r = det.detect(f, s);
                for d in &r.detections {
                    assert!(d.bbox.left >= 0.0 && d.bbox.top >= 0.0);
                    assert!(d.bbox.right() <= clip.width() as f32 + 1e-3);
                    assert!(d.bbox.bottom() <= clip.height() as f32 + 1e-3);
                    assert!(d.confidence > 0.0 && d.confidence <= 1.0);
                }
            }
        }
    }

    #[test]
    fn confidence_is_deterministic_and_decays_with_speed() {
        let clip = test_clip(6);
        let mut det = SimulatedDetector::new(DetectorConfig::default());
        let a = det.detect(clip.frame(2), ModelSetting::Yolo512);
        let b = det.detect(clip.frame(2), ModelSetting::Yolo512);
        assert_eq!(a, b, "confidence draws must replay");
        // Same object, same noise, different speed: confidence must not
        // increase with speed (the blur term is monotone decreasing).
        let mut frame = clip.frame(2).clone();
        for gt in &mut frame.ground_truth {
            gt.speed += 6.0;
        }
        let fast = det.detect(&frame, ModelSetting::Yolo512);
        let conf = |r: &DetectionResult| -> Vec<f32> {
            r.detections.iter().map(|d| d.confidence).collect()
        };
        // Detection/miss draws ignore speed, so the same objects survive.
        assert_eq!(fast.detections.len(), a.detections.len());
        for (f, s) in conf(&fast).iter().zip(conf(&a).iter()) {
            assert!(f <= s, "faster object more confident: {f} > {s}");
        }
        assert!(
            conf(&fast).iter().zip(conf(&a).iter()).any(|(f, s)| f < s),
            "a +6 px/frame speed bump must visibly blur something"
        );
    }

    #[test]
    fn region_detections_are_a_subset_of_the_full_pass() {
        let clip = test_clip(8);
        let mut det = SimulatedDetector::new(DetectorConfig::default());
        let region = BoundingBox::new(40.0, 30.0, 160.0, 100.0);
        for f in &clip {
            let full = det.detect(f, ModelSetting::Yolo512);
            let restricted = det.detect_region(f, ModelSetting::Yolo512, &region);
            assert_eq!(restricted.latency_ms, full.latency_ms);
            assert_eq!(restricted.setting, full.setting);
            for d in &restricted.detections {
                assert!(region.contains(d.bbox.center()));
                assert!(
                    full.detections.contains(d),
                    "region pass invented a box: {d:?}"
                );
            }
            // Exactness: everything the full pass put in the region is kept.
            let expected = full
                .detections
                .iter()
                .filter(|d| region.contains(d.bbox.center()))
                .count();
            assert_eq!(restricted.detections.len(), expected);
        }
    }
}
