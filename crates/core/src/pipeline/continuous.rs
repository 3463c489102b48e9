//! Continuous per-frame detection, ignoring real time (Table III).
//!
//! The paper's `YOLOv3-320 (7x latency)` and `YOLOv3-608 (10.3x latency)`
//! columns run the DNN on *every* frame sequentially; processing takes many
//! times the video duration, but per-frame accuracy is the detector's own.
//! Used to bound the energy/accuracy trade-off space.

use super::mpdt::{
    finish_trace, record_arrival, record_detection_span, run_detection, to_confidences, to_labeled,
};
use super::{
    CycleRecord, FrameOutput, FrameSource, PipelineConfig, ProcessingTrace, VideoProcessor,
};
use crate::telemetry::{Attr, EventKind, Recorder, Track};
use adavp_detector::{Detector, ModelSetting};
use adavp_metrics::f1::LabeledBox;
use adavp_sim::energy::{Activity, EnergyMeter};
use adavp_sim::resource::Resource;
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
        let mut outputs: Vec<Option<FrameOutput>> = vec![None; clip.len()];
        let mut cycles = Vec::new();
        let mut gpu = Resource::new("gpu");
        let mut cpu = Resource::new("cpu");
        let mut meter = EnergyMeter::new();
        let mut rec = Recorder::new(self.config.telemetry);
        let lat = self.config.latency;

        let faults = self.config.faults.for_stream(clip.name());
        let degr = self.config.degradation.clone();
        let mut contention = faults.contention();

        let mut t = SimTime::ZERO;
        // Inherited by dropped frames and degraded cycles.
        let mut last_good: Vec<LabeledBox> = Vec::new();
        let mut last_conf: Vec<f32> = Vec::new();
        for frame in clip {
            if faults.frame_dropped(frame.index as usize) {
                // Never delivered: no detection runs; the display keeps
                // showing the previous output (inherit-with-flag). Tracker
                // divergence does not apply — this pipeline has no tracker.
                if rec.on() {
                    rec.event(
                        Track::Camera,
                        EventKind::FrameDrop,
                        "frame dropped".to_string(),
                        t.as_ms(),
                        vec![Attr::u64("frame", frame.index)],
                    );
                }
                let held = SimTime::from_ms(lat.held_frame_ms);
                let (_, he) = cpu.schedule(t, held);
                meter.record(Activity::Overlay, held);
                outputs[frame.index as usize] = Some(FrameOutput {
                    frame_index: frame.index,
                    source: FrameSource::Dropped,
                    boxes: last_good.clone(),
                    confidences: last_conf.clone(),
                    display_ms: he.as_ms(),
                });
                continue;
            }
            let cycle_key = cycles.len() as u64;
            record_arrival(&mut rec, frame.index, t.as_ms());
            let outcome = run_detection(
                &mut self.detector,
                frame,
                self.setting,
                t,
                cycle_key,
                &mut gpu,
                &mut meter,
                &faults,
                &mut contention,
                &degr,
            );
            let (ds, de) = (outcome.start, outcome.end);
            record_detection_span(&mut rec, cycle_key, frame.index, self.setting, &outcome);
            let (boxes, conf, src) = match &outcome.result {
                Some(r) => (to_labeled(r), to_confidences(r), FrameSource::Detected),
                None => (last_good.clone(), last_conf.clone(), FrameSource::Held),
            };
            let overlay = SimTime::from_ms(lat.overlay_ms(boxes.len()));
            let (_, ov_end) = cpu.schedule(de, overlay);
            meter.record(Activity::Overlay, overlay);
            outputs[frame.index as usize] = Some(FrameOutput {
                frame_index: frame.index,
                source: src,
                boxes: boxes.clone(),
                confidences: conf.clone(),
                display_ms: ov_end.as_ms(),
            });
            last_good = boxes;
            last_conf = conf;
            cycles.push(CycleRecord {
                index: cycles.len() as u32,
                detected_frame: frame.index,
                setting: self.setting,
                start_ms: ds.as_ms(),
                end_ms: de.as_ms(),
                buffered: 0,
                tracked: 0,
                velocity: None,
                switched: false,
                fault: outcome.fault,
                diverged: false,
            });
            t = de;
        }

        finish_trace(
            self.name(),
            outputs,
            cycles,
            meter,
            (&gpu, &cpu),
            rec.finish(),
            self.config.metrics,
        )
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
