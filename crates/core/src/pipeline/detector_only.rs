//! The "without tracking" baseline (§VI-A).
//!
//! Only the DNN runs: it always fetches the newest captured frame, and every
//! frame skipped while it was busy displays the previous detection's boxes
//! unchanged (the Chameleon-style rule the paper cites).

use super::mpdt::{
    fill_held, finish_trace, nearest_delivered, record_arrival, record_detection_span,
    run_detection, to_confidences, to_labeled,
};
use super::{
    CycleRecord, FrameOutput, FrameSource, PipelineConfig, ProcessingTrace, VideoProcessor,
};
use crate::telemetry::Recorder;
use adavp_detector::{Detector, ModelSetting};
use adavp_metrics::f1::LabeledBox;
use adavp_sim::energy::{Activity, EnergyMeter};
use adavp_sim::resource::Resource;
use adavp_sim::time::SimTime;
use adavp_video::buffer::FrameStream;
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
        let n = clip.len() as u64;
        let mut outputs: Vec<Option<FrameOutput>> = vec![None; clip.len()];
        let mut cycles = Vec::new();
        let mut gpu = Resource::new("gpu");
        let mut cpu = Resource::new("cpu");
        let mut meter = EnergyMeter::new();
        let mut rec = Recorder::new(self.config.telemetry);
        if n == 0 {
            return finish_trace(
                self.name(),
                outputs,
                cycles,
                meter,
                (&gpu, &cpu),
                rec.finish(),
                self.config.metrics,
            );
        }
        let stream = FrameStream::new(clip);
        let lat = self.config.latency;
        let faults = self.config.faults.for_stream(clip.name());
        let degr = self.config.degradation.clone();
        let mut contention = faults.contention();

        let mut cur: u64 = 0;
        let mut t = SimTime::ZERO;
        // Inherited by degraded cycles (detector timeout / retries spent).
        let mut last_good: Vec<LabeledBox> = Vec::new();
        let mut last_conf: Vec<f32> = Vec::new();
        // Transient step-down: set after a degraded cycle, cleared by the
        // next successful one (the configured setting is re-applied each
        // cycle).
        let mut degraded_prev = false;
        loop {
            let cycle_key = cycles.len() as u64;
            let setting = if degraded_prev && degr.step_down_on_timeout {
                self.setting.lighter()
            } else {
                self.setting
            };
            let arrival = SimTime::from_ms(stream.arrival_ms(cur));
            record_arrival(&mut rec, cur, arrival.as_ms());
            let outcome = run_detection(
                &mut self.detector,
                stream.frame(cur),
                setting,
                t.max(arrival),
                cycle_key,
                &mut gpu,
                &mut meter,
                &faults,
                &mut contention,
                &degr,
            );
            let (ds, de) = (outcome.start, outcome.end);
            record_detection_span(&mut rec, cycle_key, cur, setting, &outcome);
            let (boxes, conf, src) = match &outcome.result {
                Some(r) => (to_labeled(r), to_confidences(r), FrameSource::Detected),
                // No tracker to fall back on: hold the last detection.
                None => (last_good.clone(), last_conf.clone(), FrameSource::Held),
            };
            degraded_prev = outcome.degraded();
            let overlay = SimTime::from_ms(lat.overlay_ms(boxes.len()));
            let (_, ov_end) = cpu.schedule(de, overlay);
            meter.record(Activity::Overlay, overlay);
            outputs[cur as usize] = Some(FrameOutput {
                frame_index: cur,
                source: src,
                boxes: boxes.clone(),
                confidences: conf.clone(),
                display_ms: ov_end.as_ms(),
            });
            last_good = boxes.clone();
            last_conf = conf.clone();
            cycles.push(CycleRecord {
                index: cycles.len() as u32,
                detected_frame: cur,
                setting,
                start_ms: ds.as_ms(),
                end_ms: de.as_ms(),
                buffered: 0,
                tracked: 0,
                velocity: None,
                switched: false,
                fault: outcome.fault,
                diverged: false,
            });
            if cur == n - 1 {
                break;
            }
            let candidate = stream
                .newest_at(de.as_ms())
                .unwrap_or(0)
                .max(cur + 1)
                .min(n - 1);
            let next = nearest_delivered(&faults, cur + 1, candidate, n - 1);
            // Skipped frames show the previous detection unchanged.
            let gap: Vec<u64> = (cur + 1..next).collect();
            fill_held(
                &mut outputs,
                &gap,
                &boxes,
                &conf,
                ov_end,
                &stream,
                lat.held_frame_ms,
                &mut meter,
                &faults,
                &mut rec,
            );
            if let Some(c) = cycles.last_mut() {
                c.buffered = gap.len() as u32;
            }
            t = de;
            cur = next;
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
