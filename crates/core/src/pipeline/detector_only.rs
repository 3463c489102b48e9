//! The "without tracking" baseline (§VI-A).
//!
//! Only the DNN runs: it always fetches the newest captured frame, and every
//! frame skipped while it was busy displays the previous detection's boxes
//! unchanged (the Chameleon-style rule the paper cites).

use super::clip_run::{ClipRun, Shown};
use super::{step_down, PipelineConfig, ProcessingTrace, VideoProcessor};
use adavp_detector::{Detector, ModelSetting};
use adavp_sim::time::SimTime;
use adavp_video::clip::VideoClip;

/// Detection-only pipeline (no tracker). See the module docs.
#[derive(Debug, Clone)]
pub struct DetectorOnlyPipeline<D> {
    detector: D,
    setting: ModelSetting,
    config: PipelineConfig,
}

impl<D: Detector> DetectorOnlyPipeline<D> {
    /// Creates the baseline at a fixed model setting.
    pub fn new(detector: D, setting: ModelSetting, config: PipelineConfig) -> Self {
        Self {
            detector,
            setting,
            config,
        }
    }
}

impl<D: Detector> VideoProcessor for DetectorOnlyPipeline<D> {
    fn name(&self) -> String {
        format!("WithoutTracking-{}", self.setting)
    }

    fn process(&mut self, clip: &VideoClip) -> ProcessingTrace {
        ClipRun::process(&self.config, clip, self.name(), |run, last| {
            let mut cur: u64 = 0;
            let mut t = SimTime::ZERO;
            // Inherited by degraded cycles (detector timeout / retries spent).
            let mut last_good = Shown::default();
            // Transient step-down: set after a degraded cycle, cleared by the
            // next successful one (the configured setting is re-applied each
            // cycle).
            let mut degraded_prev = false;
            loop {
                let setting = step_down(self.setting, degraded_prev);
                let arrival = run.arrive(cur);
                let outcome = run.detect(&mut self.detector, cur, setting, t.max(arrival), None);
                // No tracker to fall back on: a degraded cycle holds the
                // last detection.
                let (shown, source) = outcome.shown(&last_good);
                degraded_prev = outcome.degraded();
                let (_, ov_end) = run.publish(cur, source, &shown, outcome.end);
                run.push_cycle(cur, setting, outcome.start, outcome.end, outcome.fault);
                if cur == last {
                    break;
                }
                let next = run.next_frame(cur, outcome.end);
                // Skipped frames show the previous detection unchanged.
                run.hold(cur + 1..next, &shown, ov_end);
                if let Some(c) = run.last_cycle() {
                    c.buffered = (next - cur - 1) as u32;
                }
                last_good = shown;
                t = outcome.end;
                cur = next;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FrameOutput, FrameSource};
    use adavp_detector::{DetectorConfig, SimulatedDetector};
    use adavp_video::scenario::Scenario;

    fn clip(frames: u32) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        VideoClip::generate("wo", &spec, 21, frames)
    }

    fn pipeline(setting: ModelSetting) -> DetectorOnlyPipeline<SimulatedDetector> {
        DetectorOnlyPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            setting,
            PipelineConfig::default(),
        )
    }

    #[test]
    fn only_detected_and_held_frames() {
        let c = clip(90);
        let trace = pipeline(ModelSetting::Yolo512).process(&c);
        assert_eq!(trace.outputs.len(), 90);
        let f = trace.source_fractions();
        assert_eq!(f.tracked, 0.0, "no tracker in this baseline");
        assert!(f.detected > 0.0 && f.held > 0.0);
        assert_eq!(f.dropped, 0.0, "no faults configured");
    }

    #[test]
    fn held_frames_repeat_last_detection() {
        let c = clip(60);
        let trace = pipeline(ModelSetting::Yolo512).process(&c);
        let mut last_detected: Option<&FrameOutput> = None;
        for o in &trace.outputs {
            match o.source {
                FrameSource::Detected => last_detected = Some(o),
                FrameSource::Held => {
                    assert_eq!(o.boxes, last_detected.expect("held before detection").boxes);
                }
                FrameSource::Tracked | FrameSource::Dropped => unreachable!(),
            }
        }
    }

    #[test]
    fn no_tracking_energy() {
        let c = clip(60);
        let trace = pipeline(ModelSetting::Yolo512).process(&c);
        // GPU dominates; CPU only overlays.
        assert!(trace.energy.gpu_wh > trace.energy.cpu_wh);
    }

    #[test]
    fn deterministic() {
        let c = clip(60);
        let a = pipeline(ModelSetting::Yolo320).process(&c);
        let b = pipeline(ModelSetting::Yolo320).process(&c);
        assert_eq!(a, b);
    }
}
