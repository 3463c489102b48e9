//! Confidence-triggered detection (CTD).
//!
//! A sequential detect-then-track pipeline on MARLIN's loop
//! ([`super::sequential`]), but the re-detection trigger is an explicit
//! **tracker confidence** signal instead of a raw velocity threshold. Each
//! detection calibrates the confidence to the mean per-box detection
//! confidence; every tracker step then multiplies it by a decay factor that
//! shrinks with observed feature motion and feature loss:
//!
//! ```text
//! factor = clamp(base_decay − velocity_penalty·v − loss_penalty·lost_frac, 0, 1)
//! ```
//!
//! Between detections the confidence is therefore monotone non-increasing.
//! Re-detection fires when it crosses [`CtdConfig::threshold`], when the
//! tracker loses every object, when the cycle-length cap is hit, or
//! immediately on injected tracker divergence (the pipeline must not keep riding a confidence estimate the
//! tracker itself has invalidated).
//!
//! With zero penalties the trigger time is exact and testable: starting at
//! confidence `c₀` with decay `d`, the trigger fires on the smallest step
//! `k` with `c₀·dᵏ < threshold`.

use super::sequential::{self, Trigger};
use super::{PipelineConfig, ProcessingTrace, VideoProcessor};
use adavp_detector::{Detector, ModelSetting};
use adavp_video::clip::VideoClip;

/// Confidence-decay parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CtdConfig {
    /// Per-step multiplicative decay with no motion and no feature loss.
    pub base_decay: f64,
    /// Additional decay per px/frame of mean feature velocity.
    pub velocity_penalty: f64,
    /// Additional decay per unit of lost-feature fraction.
    pub loss_penalty: f64,
    /// Re-detection fires when the confidence drops below this.
    pub threshold: f64,
    /// Upper bound on frames tracked without any re-detection.
    pub max_cycle_frames: u64,
}

impl Default for CtdConfig {
    fn default() -> Self {
        Self {
            base_decay: 0.97,
            velocity_penalty: 0.01,
            loss_penalty: 0.2,
            threshold: 0.35,
            max_cycle_frames: 120,
        }
    }
}

/// The tracker-confidence state machine: calibrated by each detection,
/// multiplicatively decayed by each tracker step. The decay factor is
/// clamped to `[0, 1]`, so between two calibrations the value is monotone
/// non-increasing by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceDecay {
    value: f64,
}

impl ConfidenceDecay {
    /// Starts fully confident (nothing tracked yet, nothing lost yet).
    pub fn new() -> Self {
        Self { value: 1.0 }
    }

    /// Re-calibrates to the mean per-box detection confidence (`1.0` when
    /// the detection is empty — there is nothing to lose track of).
    pub fn reset(&mut self, confidences: &[f32]) {
        self.value = if confidences.is_empty() {
            1.0
        } else {
            confidences.iter().map(|&c| c as f64).sum::<f64>() / confidences.len() as f64
        };
    }

    /// Applies one tracker step and returns the new value.
    pub fn step(
        &mut self,
        cfg: &CtdConfig,
        velocity: Option<f64>,
        features_tracked: usize,
        features_lost: usize,
    ) -> f64 {
        let v = velocity.unwrap_or(0.0).max(0.0);
        let total = features_tracked + features_lost;
        let lost_fraction = if total == 0 {
            0.0
        } else {
            features_lost as f64 / total as f64
        };
        let factor = (cfg.base_decay - cfg.velocity_penalty * v - cfg.loss_penalty * lost_fraction)
            .clamp(0.0, 1.0);
        self.value *= factor;
        self.value
    }

    /// Current confidence in `[0, 1]`.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Default for ConfidenceDecay {
    fn default() -> Self {
        Self::new()
    }
}

/// The confidence-triggered sequential pipeline. See the module docs.
#[derive(Debug, Clone)]
pub struct CtdPipeline<D> {
    detector: D,
    setting: ModelSetting,
    config: PipelineConfig,
    ctd: CtdConfig,
}

impl<D: Detector> CtdPipeline<D> {
    /// Creates the pipeline at a fixed model setting.
    pub fn new(detector: D, setting: ModelSetting, config: PipelineConfig, ctd: CtdConfig) -> Self {
        Self {
            detector,
            setting,
            config,
            ctd,
        }
    }
}

impl<D: Detector> VideoProcessor for CtdPipeline<D> {
    fn name(&self) -> String {
        format!("CTD-{}", self.setting)
    }

    fn process(&mut self, clip: &VideoClip) -> ProcessingTrace {
        sequential::run(
            self.name(),
            &mut self.detector,
            self.setting,
            &self.config,
            Trigger::Confidence(&self.ctd, ConfidenceDecay::new()),
            clip,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_detector::{DetectorConfig, SimulatedDetector};
    use adavp_video::scenario::Scenario;

    fn clip(frames: u32, scenario: Scenario, seed: u64) -> VideoClip {
        let mut spec = scenario.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        VideoClip::generate("ctd", &spec, seed, frames)
    }

    fn ctd(setting: ModelSetting) -> CtdPipeline<SimulatedDetector> {
        CtdPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            setting,
            PipelineConfig::default(),
            CtdConfig::default(),
        )
    }

    #[test]
    fn every_frame_covered_and_named() {
        let c = clip(80, Scenario::Highway, 3);
        let mut p = ctd(ModelSetting::Yolo512);
        assert_eq!(p.name(), "CTD-YOLOv3-512");
        let trace = p.process(&c);
        assert_eq!(trace.outputs.len(), 80);
        for (i, o) in trace.outputs.iter().enumerate() {
            assert_eq!(o.frame_index as usize, i);
            assert_eq!(o.boxes.len(), o.confidences.len());
        }
    }

    #[test]
    fn deterministic() {
        let c = clip(80, Scenario::Highway, 7);
        let a = ctd(ModelSetting::Yolo512).process(&c);
        let b = ctd(ModelSetting::Yolo512).process(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn decay_is_monotone_non_increasing() {
        let cfg = CtdConfig::default();
        let mut d = ConfidenceDecay::new();
        d.reset(&[0.9, 0.5]);
        let mut prev = d.value();
        assert!((prev - 0.7).abs() < 1e-6);
        for i in 0..50usize {
            let v = d.step(&cfg, Some((i % 7) as f64 * 0.3), 40, i % 5);
            assert!(v <= prev, "step {i}: {v} > {prev}");
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn pure_decay_triggers_on_the_exact_step() {
        // c0 = 0.8, d = 0.9, threshold = 0.5: smallest k with
        // 0.8 * 0.9^k < 0.5 is k = 5.
        let cfg = CtdConfig {
            base_decay: 0.9,
            velocity_penalty: 0.0,
            loss_penalty: 0.0,
            threshold: 0.5,
            max_cycle_frames: 10_000,
        };
        let mut d = ConfidenceDecay::new();
        d.reset(&[0.8]);
        let mut k = 0;
        while d.step(&cfg, Some(3.0), 10, 90) >= cfg.threshold {
            k += 1;
            assert!(k < 100, "never triggered");
        }
        assert_eq!(k, 4, "trigger on the 5th step (4 survivors)");
    }

    #[test]
    fn fewer_detections_than_mpdt_on_slow_scene_at_no_accuracy_cost() {
        use crate::eval::{evaluate_on_clip, EvalConfig};
        use crate::pipeline::{MpdtPipeline, SettingPolicy};
        let c = clip(200, Scenario::MeetingRoom, 11);
        let eval = EvalConfig::default();
        let mut p = ctd(ModelSetting::Yolo512);
        let t = evaluate_on_clip(&mut p, &c, &eval);
        let mut mpdt = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(ModelSetting::Yolo512),
            PipelineConfig::default(),
        );
        let m = evaluate_on_clip(&mut mpdt, &c, &eval);
        assert!(
            t.trace.cycles.len() < m.trace.cycles.len(),
            "CTD ({}) must invoke the detector less than MPDT ({})",
            t.trace.cycles.len(),
            m.trace.cycles.len()
        );
        // On a near-static scene the held detections stay valid, so the
        // saved invocations cost nothing: accuracy is at least MPDT's.
        assert!(
            t.accuracy >= m.accuracy,
            "CTD accuracy {:.3} must not trail MPDT {:.3} on a static scene",
            t.accuracy,
            m.accuracy
        );
    }

    #[test]
    fn fast_scene_retriggers_sooner_than_slow() {
        let slow = clip(150, Scenario::MeetingRoom, 5);
        let fast = clip(150, Scenario::Highway, 5);
        let s = ctd(ModelSetting::Yolo512).process(&slow);
        let f = ctd(ModelSetting::Yolo512).process(&fast);
        assert!(
            s.cycles.len() <= f.cycles.len(),
            "meeting room ({}) should trigger no more than highway ({})",
            s.cycles.len(),
            f.cycles.len()
        );
    }

    #[test]
    fn empty_clip() {
        let c = clip(0, Scenario::Highway, 8);
        let trace = ctd(ModelSetting::Yolo512).process(&c);
        assert!(trace.outputs.is_empty());
    }
}
