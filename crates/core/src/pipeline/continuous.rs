//! Continuous per-frame detection, ignoring real time (Table III).
//!
//! The paper's `YOLOv3-320 (7x latency)` and `YOLOv3-608 (10.3x latency)`
//! columns run the DNN on *every* frame sequentially; processing takes many
//! times the video duration, but per-frame accuracy is the detector's own.
//! Used to bound the energy/accuracy trade-off space.

use super::clip_run::{ClipRun, Shown};
use super::{FrameSource, PipelineConfig, ProcessingTrace, VideoProcessor};
use crate::telemetry::{Attr, EventKind, Track};
use adavp_detector::{Detector, ModelSetting};
use adavp_sim::time::SimTime;
use adavp_video::clip::VideoClip;

/// Detect-every-frame pipeline. See the module docs.
#[derive(Debug, Clone)]
pub struct ContinuousPipeline<D> {
    detector: D,
    setting: ModelSetting,
    config: PipelineConfig,
}

impl<D: Detector> ContinuousPipeline<D> {
    /// Creates the pipeline at a fixed model setting.
    pub fn new(detector: D, setting: ModelSetting, config: PipelineConfig) -> Self {
        Self {
            detector,
            setting,
            config,
        }
    }
}

impl<D: Detector> VideoProcessor for ContinuousPipeline<D> {
    fn name(&self) -> String {
        format!("Continuous-{}", self.setting)
    }

    fn process(&mut self, clip: &VideoClip) -> ProcessingTrace {
        ClipRun::process(&self.config, clip, self.name(), |run, last| {
            let mut t = SimTime::ZERO;
            // Inherited by dropped frames and degraded cycles.
            let mut last_good = Shown::default();
            for frame in 0..=last {
                if run.dropped(frame) {
                    // Never delivered: no detection runs; the display keeps
                    // showing the previous output (inherit-with-flag).
                    // Tracker divergence does not apply — this pipeline has
                    // no tracker.
                    if run.rec.on() {
                        run.rec.event(
                            Track::Camera,
                            EventKind::FrameDrop,
                            "frame dropped".to_string(),
                            t.as_ms(),
                            vec![Attr::u64("frame", frame)],
                        );
                    }
                    run.publish(frame, FrameSource::Dropped, &last_good, t);
                    continue;
                }
                run.record_arrival(frame, t);
                let outcome = run.detect(&mut self.detector, frame, self.setting, t, None);
                let (shown, source) = outcome.shown(&last_good);
                run.publish(frame, source, &shown, outcome.end);
                run.push_cycle(
                    frame,
                    self.setting,
                    outcome.start,
                    outcome.end,
                    outcome.fault,
                );
                last_good = shown;
                t = outcome.end;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_detector::{DetectorConfig, SimulatedDetector};
    use adavp_video::scenario::Scenario;

    fn clip(frames: u32) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        VideoClip::generate("cont", &spec, 31, frames)
    }

    #[test]
    fn every_frame_detected() {
        let c = clip(20);
        let mut p = ContinuousPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Yolo320,
            PipelineConfig::default(),
        );
        let trace = p.process(&c);
        assert_eq!(trace.cycles.len(), 20);
        assert!(trace
            .outputs
            .iter()
            .all(|o| o.source == FrameSource::Detected));
    }

    #[test]
    fn latency_multiplier_matches_paper_order() {
        let c = clip(30);
        let mut p320 = ContinuousPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Yolo320,
            PipelineConfig::default(),
        );
        let m320 = p320.process(&c).latency_multiplier(&c);
        // 230 ms per 33.3 ms frame ≈ 7x (the paper's "7x latency").
        assert!((5.5..=8.5).contains(&m320), "320 multiplier {m320}");

        let mut tiny = ContinuousPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Tiny320,
            PipelineConfig::default(),
        );
        let mt = tiny.process(&c).latency_multiplier(&c);
        // ~60 ms per frame ≈ 1.8x.
        assert!((1.4..=2.4).contains(&mt), "tiny multiplier {mt}");
    }

    #[test]
    fn energy_dwarfs_realtime_pipelines() {
        let c = clip(40);
        let mut cont = ContinuousPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Yolo608,
            PipelineConfig::default(),
        );
        let e_cont = cont.process(&c).energy.total_wh();
        use crate::pipeline::{MpdtPipeline, SettingPolicy};
        let mut mpdt = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(ModelSetting::Yolo608),
            PipelineConfig::default(),
        );
        let e_mpdt = mpdt.process(&c).energy.total_wh();
        assert!(
            e_cont > 3.0 * e_mpdt,
            "continuous ({e_cont}) must cost far more than MPDT ({e_mpdt})"
        );
    }
}
