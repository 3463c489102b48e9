//! The sequential detect-then-track loop shared by [`super::MarlinPipeline`]
//! and [`super::CtdPipeline`].
//!
//! The detector and tracker never run at the same time: detect a frame,
//! track the newest delivered frames until a re-detection trigger fires,
//! then detect the newest delivered frame again. Frames arriving while the
//! DNN runs display the stale tracker output — the accumulated latency the
//! paper identifies as MARLIN's weakness on fast scenes. The two schemes
//! differ only in the [`Trigger`]; both share its safety nets: every
//! tracked object went stale, the cycle-length cap, and (under the default
//! degradation policy) injected tracker divergence.

use super::ctd::{ConfidenceDecay, CtdConfig};
use super::marlin::MarlinConfig;
use super::mpdt::{
    fill_held, finish_trace, kernel_attrs, nearest_delivered, record_arrival,
    record_detection_span, run_detection, to_confidences, to_labeled, tracked_labeled,
};
use super::{CycleRecord, FrameOutput, FrameSource, PipelineConfig, ProcessingTrace};
use crate::telemetry::{Attr, EventKind, Recorder, SpanKind, Track};
use crate::tracker::{ObjectTracker, StepStats};
use crate::velocity::VelocityEstimator;
use adavp_detector::{Detector, ModelSetting};
use adavp_metrics::f1::LabeledBox;
use adavp_sim::energy::{Activity, EnergyMeter};
use adavp_sim::resource::Resource;
use adavp_sim::time::SimTime;
use adavp_video::buffer::FrameStream;
use adavp_video::clip::VideoClip;
use adavp_vision::perf::{self, KernelCounters};

/// Nominal tracking-step horizon a divergence fraction maps onto: a
/// divergence at fraction `f` fires after `1 + f × 15` steps of the cycle.
const DIVERGENCE_HORIZON_STEPS: f64 = 15.0;

/// The re-detection trigger: the one thing MARLIN and CTD do differently.
pub(super) enum Trigger<'a> {
    /// MARLIN's content-change detector: fires when a step's mean feature
    /// velocity exceeds [`MarlinConfig::trigger_velocity`].
    Velocity(&'a MarlinConfig),
    /// CTD: fires when the tracker confidence, calibrated by each fresh
    /// detection and decayed by each step, drops below
    /// [`CtdConfig::threshold`].
    Confidence(&'a CtdConfig, ConfidenceDecay),
}

impl Trigger<'_> {
    fn max_cycle_frames(&self) -> u64 {
        match self {
            Trigger::Velocity(m) => m.max_cycle_frames,
            Trigger::Confidence(c, _) => c.max_cycle_frames,
        }
    }

    /// A fresh detection re-calibrated the tracker with these per-box
    /// confidences. Degraded cycles do not calibrate, so CTD's trigger
    /// stays armed across them.
    fn calibrate(&mut self, confidences: &[f32]) {
        if let Trigger::Confidence(_, decay) = self {
            decay.reset(confidences);
        }
    }

    /// Folds in one tracker step. Returns whether the trigger fires, and
    /// CTD's decayed confidence (reported in telemetry).
    fn step(&mut self, stats: Option<&StepStats>) -> (bool, Option<f64>) {
        let velocity = stats.and_then(|s| s.mean_velocity);
        match self {
            Trigger::Velocity(m) => (velocity.is_some_and(|v| v > m.trigger_velocity), None),
            Trigger::Confidence(c, decay) => {
                let (tracked, lost) =
                    stats.map_or((0, 0), |s| (s.features_tracked, s.features_lost));
                let confidence = decay.step(c, velocity, tracked, lost);
                (confidence < c.threshold, Some(confidence))
            }
        }
    }
}

/// Runs the sequential loop over `clip` and returns the trace named `name`.
pub(super) fn run<D: Detector>(
    name: String,
    detector: &mut D,
    setting: ModelSetting,
    config: &PipelineConfig,
    mut trigger: Trigger<'_>,
    clip: &VideoClip,
) -> ProcessingTrace {
    let n = clip.len() as u64;
    let mut outputs: Vec<Option<FrameOutput>> = vec![None; clip.len()];
    let mut cycles = Vec::new();
    let mut gpu = Resource::new("gpu");
    let mut cpu = Resource::new("cpu");
    let mut meter = EnergyMeter::new();
    let mut rec = Recorder::new(config.telemetry);
    if n == 0 {
        return finish_trace(
            name,
            outputs,
            cycles,
            meter,
            (&gpu, &cpu),
            rec.finish(),
            config.metrics,
        );
    }
    let stream = FrameStream::new(clip);
    let lat = config.latency;
    let faults = config.faults.for_stream(clip.name());
    let degr = config.degradation.clone();
    let mut contention = faults.contention();
    let mut tracker = ObjectTracker::new(config.tracker.clone());
    let mut vel = VelocityEstimator::new();
    let max_cycle_frames = trigger.max_cycle_frames();

    let mut detect_at: u64 = 0;
    let mut cursor = SimTime::ZERO;
    // Most recently published boxes — what a degraded detection cycle
    // keeps showing (inherit-with-flag).
    let mut last_shown: Vec<LabeledBox> = Vec::new();
    let mut last_shown_conf: Vec<f32> = Vec::new();
    // Confidences of the detection that last calibrated the tracker
    // (index-aligned with `tracker.current_boxes()`).
    let mut calib_conf: Vec<f32> = Vec::new();
    let mut perf_mark = perf::snapshot();

    'run: loop {
        // ---- Detection phase (tracker idle). ----------------------------
        // Fold the previous cycle's tracker work into its span first: the
        // tracking phase of cycle k ends exactly when detection k+1 starts.
        fold_cycle_counts(&mut rec, cycles.last(), &perf_mark);
        if rec.on() {
            perf_mark = perf::snapshot();
        }
        let cycle_key = cycles.len() as u64;
        let arrival = SimTime::from_ms(stream.arrival_ms(detect_at));
        record_arrival(&mut rec, detect_at, arrival.as_ms());
        let outcome = run_detection(
            detector,
            stream.frame(detect_at),
            setting,
            cursor.max(arrival),
            cycle_key,
            &mut gpu,
            &mut meter,
            &faults,
            &mut contention,
            &degr,
        );
        let (ds, de) = (outcome.start, outcome.end);
        record_detection_span(&mut rec, cycle_key, detect_at, setting, &outcome);
        // Degraded detection (timeout / exhausted retries): publish the
        // stale tracker estimate.
        let (boxes, conf, src) = match &outcome.result {
            Some(r) => (to_labeled(r), to_confidences(r), FrameSource::Detected),
            None => (
                last_shown.clone(),
                last_shown_conf.clone(),
                FrameSource::Held,
            ),
        };
        let overlay = SimTime::from_ms(lat.overlay_ms(boxes.len()));
        let (_, ov_end) = cpu.schedule(de, overlay);
        meter.record(Activity::Overlay, overlay);
        outputs[detect_at as usize] = Some(FrameOutput {
            frame_index: detect_at,
            source: src,
            boxes: boxes.clone(),
            confidences: conf.clone(),
            display_ms: ov_end.as_ms(),
        });
        last_shown = boxes.clone();
        last_shown_conf = conf.clone();
        cycles.push(CycleRecord {
            index: cycles.len() as u32,
            detected_frame: detect_at,
            setting,
            start_ms: ds.as_ms(),
            end_ms: de.as_ms(),
            buffered: 0,
            tracked: 0,
            velocity: vel.effective_velocity(),
            switched: false,
            fault: outcome.fault,
            diverged: false,
        });
        if detect_at == n - 1 {
            break 'run;
        }

        if outcome.result.is_none() && tracker.boxes().is_empty() {
            // Degraded before the tracker ever calibrated: nothing to
            // track, so go straight to re-detecting the newest delivered
            // frame (time advanced during the failed attempts, so this
            // always makes progress).
            cursor = ov_end;
            let newest = stream.newest_at(cursor.as_ms()).unwrap_or(0);
            let candidate = newest.max(detect_at + 1).min(n - 1);
            let prev = detect_at;
            detect_at = nearest_delivered(&faults, prev + 1, candidate, n - 1);
            let gap: Vec<u64> = (prev + 1..detect_at).collect();
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
            continue 'run;
        }

        // ---- Tracking phase (detector idle). ----------------------------
        vel.start_cycle();
        if outcome.result.is_some() {
            // Fresh boxes: re-calibrate. On a degraded cycle the tracker
            // keeps following its stale calibration instead.
            let fe = SimTime::from_ms(lat.feature_extraction_ms);
            let (fe_start, fe_end) = cpu.schedule(ov_end, fe);
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
            tracker.reset(&stream.frame(detect_at).image, &pairs);
            calib_conf = conf.clone();
            trigger.calibrate(&conf);
            cursor = fe_end;
        } else {
            cursor = ov_end;
        }

        let divergence = faults.tracker_divergence(cycle_key);
        let diverge_after = divergence.map(|f| 1 + (f * DIVERGENCE_HORIZON_STEPS) as u32);
        let cycle_start_frame = detect_at;
        let mut last_processed = detect_at;
        let mut tracked_count = 0u32;
        let mut fire = false;
        while !fire {
            // Track the newest captured frame that was delivered (implicit
            // frame selection: the tracker keeps pace with the camera by
            // skipping).
            let newest = stream.newest_at(cursor.as_ms()).unwrap_or(0);
            let candidate = newest.max(last_processed + 1);
            if candidate >= n {
                break;
            }
            let next = nearest_delivered(&faults, last_processed + 1, candidate, n - 1);
            let arrive = SimTime::from_ms(stream.arrival_ms(next));
            let objs = tracker.boxes().len();
            let track = SimTime::from_ms(lat.track_ms(objs));
            let draw = SimTime::from_ms(lat.overlay_ms(objs));
            let (ts, te) = cpu.schedule(cursor.max(arrive), track + draw);
            meter.record(Activity::Tracking, track);
            meter.record(Activity::Overlay, draw);
            let stats = tracker.step(&stream.frame(next).image, (next - last_processed) as u32);
            let step_velocity = stats.as_ref().and_then(|s| s.mean_velocity);
            if let Some(v) = step_velocity {
                vel.record(v);
            }
            let (fired, confidence) = trigger.step(stats.as_ref());
            if rec.steps() {
                let mut attrs = vec![Attr::u64("frame", next), Attr::u64("objects", objs as u64)];
                if let Some(c) = confidence {
                    attrs.push(Attr::f64("confidence", c));
                }
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
            // Skipped frames inherit.
            let gap: Vec<u64> = (last_processed + 1..next).collect();
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
            let tracked_boxes = tracked_labeled(&tracker);
            last_shown = tracked_boxes.clone();
            last_shown_conf = calib_conf.clone();
            outputs[next as usize] = Some(FrameOutput {
                frame_index: next,
                source: FrameSource::Tracked,
                boxes: tracked_boxes,
                confidences: calib_conf.clone(),
                display_ms: te.as_ms(),
            });
            if let Some(c) = cycles.last_mut() {
                c.buffered += gap.len() as u32 + 1;
                c.tracked += 1;
            }
            tracked_count += 1;
            cursor = te;
            last_processed = next;

            // Injected divergence: the tracker's estimates degenerate here
            // — record it, and (policy default) force an early re-detection.
            let diverged_now = diverge_after.is_some_and(|da| tracked_count >= da);
            if diverged_now {
                if let Some(c) = cycles.last_mut() {
                    if !c.diverged && rec.on() {
                        rec.event(
                            Track::Cpu,
                            EventKind::Divergence,
                            "tracker diverged".to_string(),
                            te.as_ms(),
                            vec![Attr::u64("cycle", cycle_key)],
                        );
                    }
                    c.diverged = true;
                }
            }

            fire = fired
                || tracker.all_stale()
                || next - cycle_start_frame >= max_cycle_frames
                || (diverged_now && degr.redetect_on_divergence);
            if fire && rec.on() {
                let mut attrs = vec![Attr::u64("frame", next)];
                match (confidence, step_velocity) {
                    (Some(c), _) => attrs.push(Attr::f64("confidence", c)),
                    (None, Some(v)) => attrs.push(Attr::f64("velocity", v)),
                    (None, None) => {}
                }
                rec.event(
                    Track::Cpu,
                    EventKind::Trigger,
                    "re-detect trigger".to_string(),
                    te.as_ms(),
                    attrs,
                );
            }
            if next == n - 1 && !fire {
                // Clip exhausted while tracking.
                break 'run;
            }
        }

        // Trigger: detect the newest delivered frame; frames arriving while
        // the DNN runs will be held at the stale tracker output.
        let newest = stream.newest_at(cursor.as_ms()).unwrap_or(0);
        let candidate = newest.max(last_processed + 1).min(n - 1);
        detect_at = nearest_delivered(&faults, last_processed + 1, candidate, n - 1);
        let gap: Vec<u64> = (last_processed + 1..detect_at).collect();
        fill_held(
            &mut outputs,
            &gap,
            &tracked_labeled(&tracker),
            &calib_conf,
            cursor,
            &stream,
            lat.held_frame_ms,
            &mut meter,
            &faults,
            &mut rec,
        );
    }

    // The run ended mid-tracking-phase: fold the final cycle's work in.
    fold_cycle_counts(&mut rec, cycles.last(), &perf_mark);
    finish_trace(
        name,
        outputs,
        cycles,
        meter,
        (&gpu, &cpu),
        rec.finish(),
        config.metrics,
    )
}

/// Annotates the last detection span with the deterministic kernel counts
/// of its cycle's tracking phase (everything since `mark`).
fn fold_cycle_counts(rec: &mut Recorder, cycle: Option<&CycleRecord>, mark: &KernelCounters) {
    if !rec.on() {
        return;
    }
    if let Some(prev) = cycle {
        let delta = perf::snapshot().since(mark).counts();
        let mut attrs = kernel_attrs(&delta);
        attrs.push(Attr::u64("buffered", prev.buffered as u64));
        attrs.push(Attr::u64("tracked", prev.tracked as u64));
        rec.annotate_last(Track::Gpu, attrs);
    }
}
