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

use super::{
    CycleRecord, DegradationPolicy, DetectorFault, FrameOutput, FrameSource, PipelineConfig,
    ProcessingTrace, SettingPolicy, VideoProcessor,
};
use crate::metrics::{names, LabelSet, MetricsConfig, MetricsRegistry};
use crate::telemetry::{Attr, EventKind, Histogram, Recorder, SpanKind, TelemetryLog, Track};
use crate::tracker::{FrameSelector, ObjectTracker};
use crate::velocity::VelocityEstimator;
use adavp_detector::{DetectionResult, Detector, ModelSetting};
use adavp_metrics::f1::LabeledBox;
use adavp_sim::energy::{Activity, EnergyMeter};
use adavp_sim::fault::{ContentionInjector, FaultPlan};
use adavp_sim::resource::Resource;
use adavp_sim::time::SimTime;
use adavp_video::buffer::FrameStream;
use adavp_video::clip::{Frame, VideoClip};
use adavp_vision::geometry::BoundingBox;
use adavp_vision::perf::{self, KernelCounts};

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

/// A detection's boxes as displayed output.
pub(super) fn to_labeled(result: &DetectionResult) -> Vec<LabeledBox> {
    result
        .detections
        .iter()
        .map(|d| LabeledBox::new(d.class, d.bbox))
        .collect()
}

/// The tracker's current boxes as displayed output, in calibration order.
pub(super) fn tracked_labeled(tracker: &ObjectTracker) -> Vec<LabeledBox> {
    tracker
        .current_boxes()
        .into_iter()
        .map(|(c, b)| LabeledBox::new(c, b))
        .collect()
}

/// Per-box confidences, index-aligned with [`to_labeled`]'s output.
pub(super) fn to_confidences(result: &DetectionResult) -> Vec<f32> {
    result.detections.iter().map(|d| d.confidence).collect()
}

/// Outcome of one (possibly faulted) detection cycle on the GPU.
#[derive(Debug, Clone)]
pub(super) struct DetectionOutcome {
    /// The detection, when some attempt succeeded.
    pub result: Option<DetectionResult>,
    /// GPU start of the first attempt.
    pub start: SimTime,
    /// GPU release: end of the successful attempt, the abandoned timeout
    /// budget, or the last failed attempt.
    pub end: SimTime,
    /// What went wrong, if anything.
    pub fault: Option<DetectorFault>,
}

impl DetectionOutcome {
    /// Whether the cycle degraded: no detection result came back and the
    /// pipeline must publish tracker/inherited boxes instead.
    pub fn degraded(&self) -> bool {
        self.result.is_none()
    }
}

/// Runs one detection through the fault layer shared by every pipeline:
/// contention bursts are injected up to the dispatch horizon, the cycle's
/// latency multiplier is applied, over-budget attempts are abandoned at the
/// timeout (releasing the GPU), and failed attempts retry with linear
/// backoff up to the policy's bound. With [`FaultPlan::is_none`] this
/// reduces to exactly one `schedule` + `record` — the pre-fault behavior.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_detection<D: Detector>(
    detector: &mut D,
    frame: &Frame,
    setting: ModelSetting,
    earliest: SimTime,
    cycle: u64,
    gpu: &mut Resource,
    meter: &mut EnergyMeter,
    faults: &FaultPlan,
    contention: &mut ContentionInjector,
    degradation: &DegradationPolicy,
) -> DetectionOutcome {
    run_detection_inner(
        detector,
        frame,
        setting,
        None,
        earliest,
        cycle,
        gpu,
        meter,
        faults,
        contention,
        degradation,
    )
}

/// Region-restricted variant of [`run_detection`]: only detections whose
/// centers fall inside `region` come back, and the GPU pays the
/// proportionally reduced cost of
/// [`crate::latency::region_scaled_ms`]. The fault layer (spikes,
/// timeouts, retries, contention) applies to the scaled cost unchanged.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_detection_region<D: Detector>(
    detector: &mut D,
    frame: &Frame,
    setting: ModelSetting,
    region: &BoundingBox,
    earliest: SimTime,
    cycle: u64,
    gpu: &mut Resource,
    meter: &mut EnergyMeter,
    faults: &FaultPlan,
    contention: &mut ContentionInjector,
    degradation: &DegradationPolicy,
) -> DetectionOutcome {
    run_detection_inner(
        detector,
        frame,
        setting,
        Some(region),
        earliest,
        cycle,
        gpu,
        meter,
        faults,
        contention,
        degradation,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_detection_inner<D: Detector>(
    detector: &mut D,
    frame: &Frame,
    setting: ModelSetting,
    region: Option<&BoundingBox>,
    earliest: SimTime,
    cycle: u64,
    gpu: &mut Resource,
    meter: &mut EnergyMeter,
    faults: &FaultPlan,
    contention: &mut ContentionInjector,
    degradation: &DegradationPolicy,
) -> DetectionOutcome {
    contention.inject_until(earliest.max(gpu.available_at()), gpu);
    let det = match region {
        None => detector.detect(frame, setting),
        Some(r) => {
            let mut det = detector.detect_region(frame, setting, r);
            let frame_area = (frame.image.width() * frame.image.height()) as f64;
            let fraction = if frame_area > 0.0 {
                r.area() as f64 / frame_area
            } else {
                1.0
            };
            det.latency_ms = crate::latency::region_scaled_ms(det.latency_ms, fraction);
            det
        }
    };
    let mult = faults.latency_multiplier(cycle);
    let act = || Activity::Detect {
        input_size: setting.input_size(),
        tiny: setting == ModelSetting::Tiny320,
    };
    let effective_ms = det.latency_ms * mult;
    if let Some(budget) = degradation.detector_timeout_ms {
        if effective_ms > budget {
            // Abandon at the budget: the GPU was busy that long, but no
            // result comes back.
            let (s, e) = gpu.schedule(earliest, SimTime::from_ms(budget));
            meter.record(act(), e - s);
            return DetectionOutcome {
                result: None,
                start: s,
                end: e,
                fault: Some(DetectorFault::Timeout { multiplier: mult }),
            };
        }
    }
    let attempts = degradation.max_detector_retries + 1;
    let mut at = earliest;
    let mut first_start: Option<SimTime> = None;
    let mut last_end = earliest;
    for attempt in 0..attempts {
        let (s, e) = gpu.schedule(at, SimTime::from_ms(effective_ms));
        meter.record(act(), e - s);
        first_start.get_or_insert(s);
        last_end = e;
        if faults.detector_fails(cycle, attempt) {
            at = e + SimTime::from_ms(degradation.retry_backoff_ms * (attempt + 1) as f64);
            continue;
        }
        let fault = if attempt > 0 {
            Some(DetectorFault::Retried {
                attempts: attempt + 1,
            })
        } else if mult > 1.0 {
            Some(DetectorFault::Spike { multiplier: mult })
        } else {
            None
        };
        return DetectionOutcome {
            result: Some(det),
            start: first_start.unwrap_or(s),
            end: e,
            fault,
        };
    }
    DetectionOutcome {
        result: None,
        start: first_start.unwrap_or(earliest),
        end: last_end,
        fault: Some(DetectorFault::Failed { attempts }),
    }
}

/// Records one detection cycle's GPU span from its [`DetectionOutcome`]
/// (shared by every pipeline). Fault information becomes span attributes;
/// degraded cycles additionally raise a [`EventKind::Fault`] instant on
/// the GPU track so they stand out at a glance.
pub(super) fn record_detection_span(
    rec: &mut Recorder,
    cycle: u64,
    frame: u64,
    setting: ModelSetting,
    outcome: &DetectionOutcome,
) {
    if !rec.on() {
        return;
    }
    let mut attrs = vec![
        Attr::u64("cycle", cycle),
        Attr::u64("frame", frame),
        Attr::str("setting", &setting.to_string()),
    ];
    if let Some(fault) = outcome.fault {
        let (kind, detail) = match fault {
            DetectorFault::Spike { multiplier } => ("spike", Attr::f64("multiplier", multiplier)),
            DetectorFault::Timeout { multiplier } => {
                ("timeout", Attr::f64("multiplier", multiplier))
            }
            DetectorFault::Retried { attempts } => {
                ("retried", Attr::u64("attempts", attempts as u64))
            }
            DetectorFault::Failed { attempts } => {
                ("failed", Attr::u64("attempts", attempts as u64))
            }
        };
        attrs.push(Attr::str("fault", kind));
        attrs.push(detail);
        if outcome.degraded() {
            rec.event(
                Track::Gpu,
                EventKind::Fault,
                format!("degraded: {kind}"),
                outcome.end.as_ms(),
                vec![Attr::u64("cycle", cycle)],
            );
        }
    }
    rec.span(
        Track::Gpu,
        SpanKind::Detection,
        format!("detect {setting}"),
        outcome.start.as_ms(),
        outcome.end.as_ms(),
        attrs,
    );
}

/// Span attributes for a cycle's deterministic kernel-count delta plus the
/// ScratchPool hit-rate — the fold of `adavp_vision::perf` into telemetry.
/// Only count fields appear; the wall-clock `*_ns` fields would break the
/// byte-identity contract.
pub(super) fn kernel_attrs(delta: &KernelCounts) -> Vec<Attr> {
    let mut attrs = vec![
        Attr::u64("lk_calls", delta.lk_calls),
        Attr::u64("lk_points", delta.lk_points),
        Attr::u64("lk_iterations", delta.lk_iterations),
        Attr::u64("pyramid_builds", delta.pyramid_builds),
        Attr::u64("corner_scans", delta.corner_scans),
    ];
    if delta.fixed_point_rows > 0 {
        // Structural count of rows through the fixed-point blur and
        // downsample kernels; omitted when zero (the cycle built no
        // pyramid level).
        attrs.push(Attr::u64("fixed_point_rows", delta.fixed_point_rows));
    }
    if let Some(rate) = delta.scratch_hit_rate() {
        attrs.push(Attr::f64("scratch_hit_rate", rate));
    }
    attrs
}

/// Records the camera delivering a frame (cheap: one instant per detection
/// fetch, not per captured frame).
pub(super) fn record_arrival(rec: &mut Recorder, frame: u64, arrival_ms: f64) {
    if !rec.on() {
        return;
    }
    rec.event(
        Track::Camera,
        EventKind::FrameArrival,
        "frame".to_string(),
        arrival_ms,
        vec![Attr::u64("frame", frame)],
    );
}

/// Picks the frame to process given camera drops: `preferred` when it was
/// delivered, otherwise the nearest delivered frame — scanning back toward
/// `lo`, then forward to `hi`. Falls back to `preferred` when the whole
/// window was dropped (modeled as a late, degraded delivery) so the
/// pipeline always makes progress.
pub(super) fn nearest_delivered(faults: &FaultPlan, lo: u64, preferred: u64, hi: u64) -> u64 {
    if faults.is_none() || !faults.frame_dropped(preferred as usize) {
        return preferred;
    }
    let mut f = preferred;
    while f > lo {
        f -= 1;
        if !faults.frame_dropped(f as usize) {
            return f;
        }
    }
    let mut f = preferred + 1;
    while f <= hi {
        if !faults.frame_dropped(f as usize) {
            return f;
        }
        f += 1;
    }
    preferred
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
        let mut tracker = ObjectTracker::new(self.config.tracker.clone());
        let mut selector = FrameSelector::default();
        let mut vel = VelocityEstimator::new();

        // --- Cycle 0: detect frame 0 (never dropped); nothing to track. --
        let mut setting = self.policy.initial_setting();
        let mut cur: u64 = 0;
        record_arrival(&mut rec, 0, stream.arrival_ms(0));
        let mut outcome = run_detection(
            &mut self.detector,
            stream.frame(cur),
            setting,
            SimTime::ZERO,
            0,
            &mut gpu,
            &mut meter,
            &faults,
            &mut contention,
            &degr,
        );
        let mut det_done = outcome.end;
        record_detection_span(&mut rec, 0, cur, setting, &outcome);
        cycles.push(CycleRecord {
            index: 0,
            detected_frame: cur,
            setting,
            start_ms: outcome.start.as_ms(),
            end_ms: outcome.end.as_ms(),
            buffered: 0,
            tracked: 0,
            velocity: None,
            switched: false,
            fault: outcome.fault,
            diverged: false,
        });
        // Last boxes known good enough to display — inherited by degraded
        // cycles (detector timeout / exhausted retries).
        let mut last_good: Vec<LabeledBox> = Vec::new();
        let mut last_conf: Vec<f32> = Vec::new();

        loop {
            // (a) Display the just-processed frame: fresh boxes when the
            //     detection succeeded, inherited ones when it degraded.
            let (boxes, conf, src) = match &outcome.result {
                Some(r) => (to_labeled(r), to_confidences(r), FrameSource::Detected),
                None => (last_good.clone(), last_conf.clone(), FrameSource::Held),
            };
            let overlay = SimTime::from_ms(lat.overlay_ms(boxes.len()));
            let (ov_start, ov_end) = cpu.schedule(det_done, overlay);
            meter.record(Activity::Overlay, overlay);
            if rec.on() {
                rec.span(
                    Track::Cpu,
                    SpanKind::Overlay,
                    "overlay".to_string(),
                    ov_start.as_ms(),
                    ov_end.as_ms(),
                    vec![
                        Attr::u64("frame", cur),
                        Attr::u64("boxes", boxes.len() as u64),
                    ],
                );
            }
            outputs[cur as usize] = Some(FrameOutput {
                frame_index: cur,
                source: src,
                boxes: boxes.clone(),
                confidences: conf.clone(),
                display_ms: ov_end.as_ms(),
            });
            last_good = boxes.clone();
            last_conf = conf.clone();

            if cur == n - 1 {
                break;
            }

            // (b) Decide next cycle's setting from the velocity measured
            //     while this detection ran. A degraded cycle optionally
            //     steps one notch lighter *after* the policy's decision
            //     (transient — the policy re-decides next cycle).
            let degraded_prev = outcome.degraded();
            let mut next_setting = self.policy.next_setting(setting, vel.effective_velocity());
            if degraded_prev && degr.step_down_on_timeout {
                next_setting = next_setting.lighter();
            }
            let switched = next_setting != setting;
            if switched {
                meter.record(
                    Activity::ModelSwitch,
                    SimTime::from_ms(ModelSetting::switch_cost_ms()),
                );
                if rec.on() {
                    let mut attrs = vec![
                        Attr::str("from", &setting.to_string()),
                        Attr::str("to", &next_setting.to_string()),
                        Attr::bool("degraded_step_down", degraded_prev),
                    ];
                    if let Some(v) = vel.effective_velocity() {
                        attrs.push(Attr::f64("velocity", v));
                    }
                    rec.event(
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
            let newest = stream.newest_at(det_done.as_ms()).unwrap_or(0);
            let candidate = newest.max(cur + 1).min(n - 1);
            let next = nearest_delivered(&faults, cur + 1, candidate, n - 1);
            let next_arrival = SimTime::from_ms(stream.arrival_ms(next));
            record_arrival(&mut rec, next, next_arrival.as_ms());

            // (d) Start detecting it on the GPU (through the fault layer).
            let cycle_key = cycles.len() as u64;
            let perf_mark = perf::snapshot();
            let next_outcome = run_detection(
                &mut self.detector,
                stream.frame(next),
                next_setting,
                det_done.max(next_arrival),
                cycle_key,
                &mut gpu,
                &mut meter,
                &faults,
                &mut contention,
                &degr,
            );
            let (s2, d2) = (next_outcome.start, next_outcome.end);
            record_detection_span(&mut rec, cycle_key, next, next_setting, &next_outcome);

            // (e) Meanwhile the tracker works through the gap frames
            //     cur+1 .. next-1 using this cycle's boxes, cancelling
            //     when the next detection completes (d2). On a degraded
            //     cycle the tracker re-calibrates from the inherited boxes
            //     — stale, but the best estimate available.
            vel.start_cycle();
            let divergence = faults.tracker_divergence(cycle_key);
            let mut diverged = false;
            let gap: Vec<u64> = (cur + 1..next).collect();
            let mut tracked_count = 0u32;
            if !gap.is_empty() {
                let fe = SimTime::from_ms(lat.feature_extraction_ms);
                let (fe_start, fe_end) = cpu.schedule(det_done, fe);
                meter.record(Activity::FeatureExtraction, fe);
                if rec.on() {
                    rec.span(
                        Track::Cpu,
                        SpanKind::FeatureExtraction,
                        "extract features".to_string(),
                        fe_start.as_ms(),
                        fe_end.as_ms(),
                        vec![Attr::u64("boxes", boxes.len() as u64)],
                    );
                }
                let pairs: Vec<_> = boxes.iter().map(|l| (l.class, l.bbox)).collect();
                tracker.reset(&stream.frame(cur).image, &pairs);

                let plan = selector.plan(gap.len());
                let diverge_after =
                    divergence.map(|f| ((f * plan.len() as f64).floor() as u32).max(1));
                let mut cursor = fe_end;
                let mut last_processed = cur;
                for idx in plan {
                    if cursor >= d2 {
                        break; // detector fetched a new frame: cancel the rest
                    }
                    if let Some(da) = diverge_after {
                        if tracked_count >= da {
                            // Tracker diverged: its estimates are garbage
                            // from here on. Stop tracking so the in-flight
                            // detection re-calibrates as early as possible;
                            // remaining frames inherit.
                            if !diverged && rec.on() {
                                rec.event(
                                    Track::Cpu,
                                    EventKind::Divergence,
                                    "tracker diverged".to_string(),
                                    cursor.as_ms(),
                                    vec![Attr::u64("cycle", cycle_key)],
                                );
                            }
                            diverged = true;
                            if degr.redetect_on_divergence {
                                break;
                            }
                        }
                    }
                    let fidx = gap[idx];
                    if faults.frame_dropped(fidx as usize) {
                        continue; // never delivered: nothing to track
                    }
                    let objs = tracker.boxes().len();
                    let track = SimTime::from_ms(lat.track_ms(objs));
                    let draw = SimTime::from_ms(lat.overlay_ms(objs));
                    let (ts, te) = cpu.schedule(cursor, track + draw);
                    meter.record(Activity::Tracking, track);
                    meter.record(Activity::Overlay, draw);
                    let mut step_velocity = None;
                    if let Some(stats) =
                        tracker.step(&stream.frame(fidx).image, (fidx - last_processed) as u32)
                    {
                        if let Some(v) = stats.mean_velocity {
                            vel.record(v);
                            step_velocity = Some(v);
                        }
                    }
                    if rec.steps() {
                        let mut attrs =
                            vec![Attr::u64("frame", fidx), Attr::u64("objects", objs as u64)];
                        if let Some(v) = step_velocity {
                            attrs.push(Attr::f64("velocity", v));
                        }
                        rec.span(
                            Track::Cpu,
                            SpanKind::TrackerStep,
                            "track step".to_string(),
                            ts.as_ms(),
                            te.as_ms(),
                            attrs,
                        );
                    }
                    outputs[fidx as usize] = Some(FrameOutput {
                        frame_index: fidx,
                        source: FrameSource::Tracked,
                        boxes: tracked_labeled(&tracker),
                        // current_boxes preserves the reset pairs' count and
                        // order, so the calibrating detection's confidences
                        // stay index-aligned.
                        confidences: conf.clone(),
                        display_ms: te.as_ms(),
                    });
                    cursor = te;
                    last_processed = fidx;
                    tracked_count += 1;
                }

                // Unselected / cancelled / dropped frames inherit the
                // nearest earlier processed output.
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
                if self.config.adaptive_selection {
                    selector.update(tracked_count as usize, gap.len());
                }
            }

            // Fold this cycle's deterministic tracker work (kernel counts,
            // ScratchPool hit-rate) into the detection span recorded above.
            if rec.on() {
                let delta = perf::snapshot().since(&perf_mark).counts();
                let mut attrs = kernel_attrs(&delta);
                attrs.push(Attr::u64("buffered", gap.len() as u64));
                attrs.push(Attr::u64("tracked", tracked_count as u64));
                rec.annotate_last(Track::Gpu, attrs);
            }

            cycles.push(CycleRecord {
                index: cycles.len() as u32,
                detected_frame: next,
                setting: next_setting,
                start_ms: s2.as_ms(),
                end_ms: d2.as_ms(),
                buffered: gap.len() as u32,
                tracked: tracked_count,
                velocity: vel.cycle_velocity(),
                switched,
                fault: next_outcome.fault,
                diverged,
            });

            cur = next;
            outcome = next_outcome;
            det_done = d2;
            setting = next_setting;
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

/// Fills every gap frame without an output with the nearest earlier
/// processed boxes (the paper's rule for skipped frames). Frames the fault
/// plan dropped inherit the same way but are flagged
/// [`FrameSource::Dropped`] — inherit-with-flag — and raise a camera-track
/// [`EventKind::FrameDrop`] instant at the frame's nominal arrival time.
#[allow(clippy::too_many_arguments)]
pub(super) fn fill_held(
    outputs: &mut [Option<FrameOutput>],
    gap: &[u64],
    detected_boxes: &[LabeledBox],
    detected_conf: &[f32],
    detected_display: SimTime,
    stream: &FrameStream<'_>,
    held_ms: f64,
    meter: &mut EnergyMeter,
    faults: &FaultPlan,
    rec: &mut Recorder,
) {
    let mut last_boxes: Vec<LabeledBox> = detected_boxes.to_vec();
    let mut last_conf: Vec<f32> = detected_conf.to_vec();
    let mut last_display = detected_display;
    for &fidx in gap {
        match &outputs[fidx as usize] {
            Some(out) => {
                last_boxes = out.boxes.clone();
                last_conf = out.confidences.clone();
                last_display = SimTime::from_ms(out.display_ms);
            }
            None => {
                let arrive = SimTime::from_ms(stream.arrival_ms(fidx));
                let display = arrive.max(last_display) + SimTime::from_ms(held_ms);
                meter.record(Activity::Overlay, SimTime::from_ms(held_ms));
                let source = if faults.frame_dropped(fidx as usize) {
                    if rec.on() {
                        rec.event(
                            Track::Camera,
                            EventKind::FrameDrop,
                            "frame dropped".to_string(),
                            arrive.as_ms(),
                            vec![Attr::u64("frame", fidx)],
                        );
                    }
                    FrameSource::Dropped
                } else {
                    FrameSource::Held
                };
                outputs[fidx as usize] = Some(FrameOutput {
                    frame_index: fidx,
                    source,
                    boxes: last_boxes.clone(),
                    confidences: last_conf.clone(),
                    display_ms: display.as_ms(),
                });
            }
        }
    }
}

/// Assembles the final trace, backfilling any never-written output (cannot
/// happen in a well-formed run, but keeps the invariant airtight), then
/// derives the `adavp_pipeline_*` metrics registry from the finished trace
/// when `metrics` recording is enabled.
pub(super) fn finish_trace(
    pipeline: String,
    outputs: Vec<Option<FrameOutput>>,
    cycles: Vec<CycleRecord>,
    meter: EnergyMeter,
    (gpu, cpu): (&Resource, &Resource),
    telemetry: TelemetryLog,
    metrics: MetricsConfig,
) -> ProcessingTrace {
    let mut filled = Vec::with_capacity(outputs.len());
    let mut last: Option<FrameOutput> = None;
    for (i, out) in outputs.into_iter().enumerate() {
        let o = out.unwrap_or_else(|| FrameOutput {
            frame_index: i as u64,
            source: FrameSource::Held,
            boxes: last.as_ref().map(|l| l.boxes.clone()).unwrap_or_default(),
            confidences: last
                .as_ref()
                .map(|l| l.confidences.clone())
                .unwrap_or_default(),
            display_ms: last.as_ref().map(|l| l.display_ms).unwrap_or(0.0),
        });
        last = Some(o.clone());
        filled.push(o);
    }
    let finished_ms = filled
        .iter()
        .map(|o| o.display_ms)
        .fold(0.0f64, f64::max)
        .max(gpu.available_at().as_ms())
        .max(cpu.available_at().as_ms());
    let mut trace = ProcessingTrace {
        pipeline,
        outputs: filled,
        cycles,
        energy: meter.breakdown(),
        finished_ms,
        gpu_busy_ms: gpu.total_busy().as_ms(),
        cpu_busy_ms: cpu.total_busy().as_ms(),
        telemetry,
        metrics: MetricsRegistry::new(),
    };
    if metrics.enabled {
        trace.metrics = trace_metrics(&trace);
    }
    trace
}

/// Derives the pipeline-level metrics registry from a finished trace. Pure
/// function of the trace, so recording can never perturb a run: the same
/// trace always yields the same registry.
fn trace_metrics(trace: &ProcessingTrace) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let labels = LabelSet::new(&[("pipeline", &trace.pipeline)]);
    reg.inc(
        names::PIPELINE_CYCLES_TOTAL,
        "Detection cycles completed",
        labels.clone(),
        trace.cycles.len() as u64,
    );
    reg.inc(
        names::PIPELINE_SWITCHES_TOTAL,
        "Model-setting switches",
        labels.clone(),
        trace.switch_count() as u64,
    );
    reg.inc(
        names::PIPELINE_FAULTS_TOTAL,
        "Detector-path faults hit",
        labels.clone(),
        trace.fault_count() as u64,
    );
    reg.inc(
        names::PIPELINE_DEGRADED_TOTAL,
        "Cycles that degraded to tracker/inherited results",
        labels.clone(),
        trace.degraded_cycle_count() as u64,
    );
    reg.inc(
        names::PIPELINE_DIVERGED_TOTAL,
        "Cycles the tracker diverged",
        labels.clone(),
        trace.diverged_cycle_count() as u64,
    );
    let mut cycle_ms = Histogram::latency_ms();
    for c in &trace.cycles {
        cycle_ms.record(c.end_ms - c.start_ms);
    }
    if !cycle_ms.is_empty() {
        reg.observe_hist(
            names::PIPELINE_CYCLE_MS,
            "Detection-cycle latency (ms)",
            labels.clone(),
            &cycle_ms,
        );
    }
    reg.set_gauge(
        names::PIPELINE_GPU_BUSY_MS,
        "Total GPU busy time (ms)",
        labels.clone(),
        trace.gpu_busy_ms,
    );
    reg.set_gauge(
        names::PIPELINE_CPU_BUSY_MS,
        "Total CPU busy time (ms)",
        labels.clone(),
        trace.cpu_busy_ms,
    );
    // EnergyBreakdown accumulates in Wh; 1 Wh = 3.6e6 mJ.
    reg.set_gauge(
        names::PIPELINE_ENERGY_MJ,
        "Energy above idle (mJ), all rails",
        labels,
        trace.energy.total_wh() * 3.6e6,
    );
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptation::AdaptationModel;
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
        let overlay = PipelineConfig::default().latency.overlay_ms(boxes);
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
