//! MPDT: the Mobile Parallel Detection and Tracking pipeline (§IV-B), and —
//! with an adaptive setting policy — AdaVP itself.
//!
//! The GPU runs DNN detection on the newest buffered frame while the CPU
//! tracks the frames that accumulated behind the *previous* detection. When
//! the detector finishes, its fresh boxes re-calibrate the tracker and the
//! detector immediately fetches the newest frame again. The tracker cancels
//! its remaining per-frame tasks (after finishing the current one) whenever
//! the detector completes — exactly the cancellation rule the paper's
//! three-thread implementation uses.

use super::clip_run::{ClipRun, Shown};
use super::{
    step_down, FrameSource, PipelineConfig, ProcessingTrace, SettingPolicy, VideoProcessor,
};
use crate::telemetry::{Attr, EventKind, SpanKind, Track};
use crate::tracker::{FrameSelector, ObjectTracker};
use crate::velocity::VelocityEstimator;
use adavp_detector::Detector;
use adavp_sim::time::SimTime;
use adavp_video::clip::VideoClip;

/// The parallel detection + tracking pipeline. See the module docs.
#[derive(Debug, Clone)]
pub struct MpdtPipeline<D> {
    detector: D,
    policy: SettingPolicy,
    config: PipelineConfig,
}

impl<D: Detector> MpdtPipeline<D> {
    /// Creates a pipeline.
    ///
    /// `SettingPolicy::Fixed(s)` yields the MPDT-s baseline;
    /// `SettingPolicy::Adaptive(model)` yields AdaVP.
    pub fn new(detector: D, policy: SettingPolicy, config: PipelineConfig) -> Self {
        Self {
            detector,
            policy,
            config,
        }
    }

    /// The setting policy.
    pub fn policy(&self) -> &SettingPolicy {
        &self.policy
    }
}

impl<D: Detector> VideoProcessor for MpdtPipeline<D> {
    fn name(&self) -> String {
        match &self.policy {
            SettingPolicy::Fixed(s) => format!("MPDT-{s}"),
            SettingPolicy::Adaptive(_) => "AdaVP".to_string(),
            SettingPolicy::Cycling => "MPDT-cycling".to_string(),
        }
    }

    fn process(&mut self, clip: &VideoClip) -> ProcessingTrace {
        ClipRun::process(&self.config, clip, self.name(), |run, last| {
            let mut tracker = ObjectTracker::new(self.config.tracker.clone());
            let mut selector = FrameSelector::default();
            let mut vel = VelocityEstimator::new();

            // --- Cycle 0: detect frame 0 (never dropped); nothing to track.
            let mut setting = self.policy.initial_setting();
            let mut cur: u64 = 0;
            run.arrive(cur);
            let mut outcome = run.detect(&mut self.detector, cur, setting, SimTime::ZERO, None);
            run.push_cycle(cur, setting, outcome.start, outcome.end, outcome.fault);
            // Boxes of the last detection cycle — inherited by degraded
            // cycles (detector timeout / exhausted retries).
            let mut last_good = Shown::default();

            loop {
                // (a) Display the just-processed frame: fresh boxes when the
                //     detection succeeded, inherited ones when it degraded.
                let det_done = outcome.end;
                let (shown, source) = outcome.shown(&last_good);
                let (ov_start, ov_end) = run.publish(cur, source, &shown, det_done);
                if run.rec.on() {
                    run.rec.span(
                        Track::Cpu,
                        SpanKind::Overlay,
                        "overlay".to_string(),
                        ov_start.as_ms(),
                        ov_end.as_ms(),
                        vec![
                            Attr::u64("frame", cur),
                            Attr::u64("boxes", shown.boxes.len() as u64),
                        ],
                    );
                }
                if cur == last {
                    break;
                }

                // (b) Decide next cycle's setting from the velocity measured
                //     while this detection ran. A degraded cycle steps
                //     one notch lighter *after* the policy's decision
                //     (transient — the policy re-decides next cycle).
                let degraded_prev = outcome.degraded();
                let next_setting = step_down(
                    self.policy.next_setting(setting, vel.effective_velocity()),
                    degraded_prev,
                );
                let switched = next_setting != setting;
                if switched {
                    run.switch_model();
                    if run.rec.on() {
                        let mut attrs = vec![
                            Attr::str("from", &setting.to_string()),
                            Attr::str("to", &next_setting.to_string()),
                            Attr::bool("degraded_step_down", degraded_prev),
                        ];
                        if let Some(v) = vel.effective_velocity() {
                            attrs.push(Attr::f64("velocity", v));
                        }
                        run.rec.event(
                            Track::Gpu,
                            EventKind::SettingSwitch,
                            "switch".to_string(),
                            det_done.as_ms(),
                            attrs,
                        );
                    }
                }

                // (c) Fetch the newest captured frame that was actually
                //     delivered (or wait for the next one).
                let next = run.next_frame(cur, det_done);
                let next_arrival = run.arrive(next);

                // (d) Start detecting it on the GPU (through the fault layer).
                let cycle_key = run.next_cycle();
                let next_outcome = run.detect(
                    &mut self.detector,
                    next,
                    next_setting,
                    det_done.max(next_arrival),
                    None,
                );
                let buffered = next - cur - 1;
                run.push_cycle(
                    next,
                    next_setting,
                    next_outcome.start,
                    next_outcome.end,
                    next_outcome.fault,
                );

                // (e) Meanwhile the tracker works through the gap frames
                //     cur+1 .. next-1 using this cycle's boxes, cancelling
                //     when the next detection completes. On a degraded
                //     cycle the tracker re-calibrates from the inherited
                //     boxes — stale, but the best estimate available.
                vel.start_cycle();
                let divergence = run.divergence(cycle_key);
                let mut tracked = 0u32;
                if buffered > 0 {
                    let mut cursor = run.calibrate(&mut tracker, cur, &shown, det_done);
                    let plan = selector.plan(buffered as usize);
                    let diverge_after =
                        divergence.map(|f| ((f * plan.len() as f64).floor() as u32).max(1));
                    let mut last_processed = cur;
                    for idx in plan {
                        if cursor >= next_outcome.end {
                            break; // detector fetched a new frame: cancel the rest
                        }
                        if diverge_after.is_some_and(|da| tracked >= da) {
                            // Tracker diverged: its estimates are garbage
                            // from here on. Stop tracking so the in-flight
                            // detection re-calibrates as early as possible;
                            // remaining frames inherit.
                            run.diverge(cursor);
                            break;
                        }
                        let frame = cur + 1 + idx as u64;
                        if run.dropped(frame) {
                            continue; // never delivered: nothing to track
                        }
                        let step = run.track(&mut tracker, frame, last_processed, cursor);
                        if let Some(v) = step.velocity() {
                            vel.record(v);
                        }
                        run.record_step(&step, None);
                        let boxes = Shown::tracked(&tracker, &shown.confidences);
                        run.show(frame, FrameSource::Tracked, boxes, step.end);
                        cursor = step.end;
                        last_processed = frame;
                        tracked += 1;
                    }

                    // Unselected / cancelled / dropped frames inherit the
                    // nearest earlier processed output.
                    run.hold(cur + 1..next, &shown, ov_end);
                    if self.config.adaptive_selection {
                        selector.update(tracked as usize, buffered as usize);
                    }
                }
                if let Some(c) = run.last_cycle() {
                    c.buffered = buffered as u32;
                    c.tracked = tracked;
                    c.velocity = vel.cycle_velocity();
                    c.switched = switched;
                }
                // Fold this cycle's deterministic tracker work (kernel
                // counts, buffer reuse rate) into its detection span.
                run.fold_kernel_counts();

                cur = next;
                outcome = next_outcome;
                setting = next_setting;
                last_good = shown;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptation::AdaptationModel;
    use crate::metrics::{names, LabelSet, MetricsConfig, MetricsRegistry};
    use adavp_detector::ModelSetting;
    use adavp_detector::{DetectorConfig, SimulatedDetector};
    use adavp_video::scenario::Scenario;

    fn clip(frames: u32, seed: u64) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        VideoClip::generate("mpdt", &spec, seed, frames)
    }

    fn fixed(setting: ModelSetting) -> MpdtPipeline<SimulatedDetector> {
        MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(setting),
            PipelineConfig::default(),
        )
    }

    #[test]
    fn every_frame_gets_an_output() {
        let c = clip(60, 5);
        let mut p = fixed(ModelSetting::Yolo512);
        let trace = p.process(&c);
        assert_eq!(trace.outputs.len(), 60);
        for (i, o) in trace.outputs.iter().enumerate() {
            assert_eq!(o.frame_index as usize, i);
        }
    }

    #[test]
    fn detected_frames_spaced_by_latency() {
        let c = clip(90, 6);
        let mut p = fixed(ModelSetting::Yolo608);
        let trace = p.process(&c);
        // 608 takes ~500 ms ≈ 15 frames at 30 FPS; consecutive detected
        // frames must be ≥ 12 frames apart (latency jitter aside).
        let detected: Vec<u64> = trace
            .outputs
            .iter()
            .filter(|o| o.source == FrameSource::Detected)
            .map(|o| o.frame_index)
            .collect();
        assert!(detected.len() >= 2);
        assert_eq!(detected[0], 0);
        // The final pair may be adjacent: at end-of-clip the detector drains
        // to the last frame regardless of spacing. All earlier pairs must be
        // a full detection latency apart.
        for w in detected.windows(2).rev().skip(1) {
            assert!(
                w[1] - w[0] >= 12,
                "detections at {} and {} too close for 500 ms latency",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn lighter_model_detects_more_often() {
        let c = clip(120, 7);
        let d320 = fixed(ModelSetting::Yolo320).process(&c);
        let d608 = fixed(ModelSetting::Yolo608).process(&c);
        assert!(
            d320.cycles.len() > d608.cycles.len(),
            "320 ({}) should cycle more than 608 ({})",
            d320.cycles.len(),
            d608.cycles.len()
        );
    }

    #[test]
    fn tracked_frames_exist_between_detections() {
        let c = clip(90, 8);
        let trace = fixed(ModelSetting::Yolo512).process(&c);
        let f = trace.source_fractions();
        assert!(f.detected > 0.0);
        assert!(f.tracked > 0.0, "tracker must process some frames");
        assert!(
            f.held > 0.0,
            "frame selection must skip some frames (Obs. 4)"
        );
        assert!(
            f.tracked + f.held > f.detected,
            "most frames are not detector-processed"
        );
        assert_eq!(f.dropped, 0.0, "no faults configured");
    }

    #[test]
    fn deterministic() {
        let c = clip(60, 9);
        let t1 = fixed(ModelSetting::Yolo512).process(&c);
        let t2 = fixed(ModelSetting::Yolo512).process(&c);
        assert_eq!(t1, t2);
    }

    #[test]
    fn metrics_registry_derives_from_trace_and_never_perturbs() {
        let c = clip(60, 11);
        let plain = fixed(ModelSetting::Yolo512).process(&c);
        assert!(plain.metrics.is_empty(), "metrics are off by default");

        let cfg = PipelineConfig {
            metrics: MetricsConfig::enabled(),
            ..PipelineConfig::default()
        };
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(ModelSetting::Yolo512),
            cfg,
        );
        let traced = p.process(&c);

        // Recording must not change the run: stripping the registry gives
        // the metrics-off trace back bit-for-bit.
        let mut stripped = traced.clone();
        stripped.metrics = MetricsRegistry::new();
        assert_eq!(stripped, plain);

        let labels = LabelSet::new(&[("pipeline", &traced.pipeline)]);
        assert_eq!(
            traced
                .metrics
                .counter(names::PIPELINE_CYCLES_TOTAL, &labels),
            traced.cycles.len() as u64
        );
        assert_eq!(
            traced
                .metrics
                .counter(names::PIPELINE_SWITCHES_TOTAL, &labels),
            traced.switch_count() as u64
        );
        assert_eq!(
            traced
                .metrics
                .counter(names::PIPELINE_FAULTS_TOTAL, &labels),
            0
        );
        match traced.metrics.get(names::PIPELINE_CYCLE_MS, &labels) {
            Some(crate::metrics::MetricValue::Hist(h)) => {
                assert_eq!(h.count(), traced.cycles.len() as u64);
            }
            other => panic!("cycle-latency histogram missing: {other:?}"),
        }
        let gpu_ms = traced
            .metrics
            .gauge(names::PIPELINE_GPU_BUSY_MS, &labels)
            .expect("gpu busy gauge");
        assert!((gpu_ms - traced.gpu_busy_ms).abs() < 1e-12);
    }

    #[test]
    fn fixed_policy_never_switches() {
        let c = clip(90, 10);
        let trace = fixed(ModelSetting::Yolo416).process(&c);
        assert_eq!(trace.switch_count(), 0);
        for cyc in &trace.cycles {
            assert_eq!(cyc.setting, ModelSetting::Yolo416);
        }
    }

    #[test]
    fn adaptive_policy_measures_velocity_and_can_switch() {
        let c = clip(150, 11);
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Adaptive(AdaptationModel::uniform([0.5, 1.0, 2.0])),
            PipelineConfig::default(),
        );
        let trace = p.process(&c);
        assert_eq!(p.name(), "AdaVP");
        // Velocity must be measured in cycles that tracked something.
        let with_vel = trace
            .cycles
            .iter()
            .filter(|cy| cy.velocity.is_some())
            .count();
        assert!(with_vel >= 1, "no velocity measured in any cycle");
        // Highway is fast: with aggressive thresholds, the policy should
        // leave the initial 512 at least once.
        assert!(
            trace
                .cycles
                .iter()
                .any(|cy| cy.setting != ModelSetting::Yolo512),
            "adaptation never moved off the initial setting"
        );
    }

    #[test]
    fn energy_and_busy_time_accumulate() {
        let c = clip(60, 12);
        let trace = fixed(ModelSetting::Yolo512).process(&c);
        assert!(trace.energy.total_wh() > 0.0);
        assert!(trace.energy.gpu_wh > trace.energy.soc_wh);
        assert!(trace.gpu_busy_ms > 0.0);
        assert!(trace.cpu_busy_ms > 0.0);
        // MPDT is (near) real-time. The detector always takes the newest
        // frame, so the last frame can arrive just after a cycle starts:
        // that cycle and the next, which detects it, run past the clip
        // end, and then the final overlay is drawn. A third detection in
        // the drain breaks this bound.
        let drain: f64 = trace
            .cycles
            .iter()
            .rev()
            .take(2)
            .map(|cy| cy.end_ms - cy.start_ms)
            .sum();
        let boxes = trace.outputs.last().map_or(0, |o| o.boxes.len());
        let overlay = crate::latency::overlay_ms(boxes);
        let bound = c.duration_ms() + drain + overlay;
        assert!(
            trace.finished_ms <= bound,
            "finished at {} ms, bound {bound} ms",
            trace.finished_ms
        );
    }

    #[test]
    fn empty_clip_yields_empty_trace() {
        let c = clip(0, 13);
        let trace = fixed(ModelSetting::Yolo512).process(&c);
        assert!(trace.outputs.is_empty());
        assert!(trace.cycles.is_empty());
        assert_eq!(trace.energy.total_wh(), 0.0);
    }

    #[test]
    fn single_frame_clip() {
        let c = clip(1, 14);
        let trace = fixed(ModelSetting::Yolo512).process(&c);
        assert_eq!(trace.outputs.len(), 1);
        assert_eq!(trace.outputs[0].source, FrameSource::Detected);
        assert_eq!(trace.cycles.len(), 1);
    }

    #[test]
    fn cycling_policy_switches_every_cycle() {
        let c = clip(120, 16);
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Cycling,
            PipelineConfig::default(),
        );
        let trace = p.process(&c);
        assert_eq!(p.name(), "MPDT-cycling");
        // Every cycle after the first two must have switched (cycle 0 is the
        // bootstrap, cycle 1 is the first decision).
        let switches = trace.switch_count();
        assert!(
            switches >= trace.cycles.len().saturating_sub(2),
            "cycling switched only {switches} of {} cycles",
            trace.cycles.len()
        );
    }

    #[test]
    fn non_adaptive_selection_still_covers_all_frames() {
        let c = clip(90, 17);
        let cfg = PipelineConfig {
            adaptive_selection: false,
            ..PipelineConfig::default()
        };
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(ModelSetting::Yolo512),
            cfg,
        );
        let trace = p.process(&c);
        assert_eq!(trace.outputs.len(), 90);
        // Without adaptive selection the tracker plans everything and gets
        // cancelled mid-cycle; coverage invariants still hold.
        let f = trace.source_fractions();
        assert!(f.tracked > 0.0 && f.held > 0.0);
    }

    #[test]
    fn held_frames_inherit_boxes() {
        let c = clip(60, 15);
        let trace = fixed(ModelSetting::Yolo512).process(&c);
        for i in 1..trace.outputs.len() {
            if trace.outputs[i].source == FrameSource::Held {
                assert_eq!(
                    trace.outputs[i].boxes,
                    trace.outputs[i - 1].boxes,
                    "held frame {i} must inherit previous boxes"
                );
            }
        }
    }
}
