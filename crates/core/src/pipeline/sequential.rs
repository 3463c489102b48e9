//! The sequential detect-then-track loop shared by [`super::MarlinPipeline`]
//! and [`super::CtdPipeline`].
//!
//! The detector and tracker never run at the same time: detect a frame,
//! track the newest delivered frames until a re-detection trigger fires,
//! then detect the newest delivered frame again. Frames arriving while the
//! DNN runs display the stale tracker output — the accumulated latency the
//! paper identifies as MARLIN's weakness on fast scenes. The two schemes
//! differ only in the [`Trigger`]; both share its safety nets: every
//! tracked object went stale, the cycle-length cap, and injected tracker
//! divergence.

use super::clip_run::{ClipRun, Shown};
use super::ctd::{ConfidenceDecay, CtdConfig};
use super::marlin::MarlinConfig;
use super::{FrameSource, PipelineConfig, ProcessingTrace};
use crate::telemetry::{Attr, EventKind, Track};
use crate::tracker::{ObjectTracker, StepStats};
use crate::velocity::VelocityEstimator;
use adavp_detector::{Detector, ModelSetting};
use adavp_sim::time::SimTime;
use adavp_video::clip::VideoClip;

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
    ClipRun::process(config, clip, name, |run, last| {
        let mut tracker = ObjectTracker::new(config.tracker.clone());
        let mut vel = VelocityEstimator::new();
        let max_cycle_frames = trigger.max_cycle_frames();

        let mut detect_at: u64 = 0;
        let mut cursor = SimTime::ZERO;
        // Most recently published boxes — what a degraded detection cycle
        // keeps showing (inherit-with-flag).
        let mut last_shown = Shown::default();
        // Confidences of the detection that last calibrated the tracker
        // (index-aligned with `tracker.current_boxes()`).
        let mut calib_conf: Vec<f32> = Vec::new();

        'run: loop {
            // ---- Detection phase (tracker idle). ------------------------
            // Fold the previous cycle's tracker work into its span first:
            // the tracking phase of cycle k ends exactly when detection k+1
            // starts.
            run.fold_kernel_counts();
            let cycle_key = run.next_cycle();
            let arrival = run.arrive(detect_at);
            let outcome = run.detect(detector, detect_at, setting, cursor.max(arrival), None);
            // Degraded detection (timeout / retries spent): publish the
            // stale tracker estimate.
            let (shown, source) = outcome.shown(&last_shown);
            let (_, ov_end) = run.publish(detect_at, source, &shown, outcome.end);
            last_shown = shown.clone();
            run.push_cycle(
                detect_at,
                setting,
                outcome.start,
                outcome.end,
                outcome.fault,
            );
            if let Some(c) = run.last_cycle() {
                c.velocity = vel.effective_velocity();
            }
            if detect_at == last {
                break 'run;
            }

            if outcome.degraded() && tracker.boxes().is_empty() {
                // Degraded before the tracker ever calibrated: nothing to
                // track, so go straight to re-detecting the newest delivered
                // frame (time advanced during the failed attempts, so this
                // always makes progress).
                cursor = ov_end;
                let prev = detect_at;
                detect_at = run.next_frame(prev, cursor);
                run.hold(prev + 1..detect_at, &shown, ov_end);
                continue 'run;
            }

            // ---- Tracking phase (detector idle). ------------------------
            vel.start_cycle();
            cursor = if outcome.degraded() {
                // The tracker keeps following its stale calibration.
                ov_end
            } else {
                let fe_end = run.calibrate(&mut tracker, detect_at, &shown, ov_end);
                calib_conf = shown.confidences.clone();
                trigger.calibrate(&calib_conf);
                fe_end
            };

            let divergence = run.divergence(cycle_key);
            let diverge_after = divergence.map(|f| 1 + (f * DIVERGENCE_HORIZON_STEPS) as u32);
            let cycle_start_frame = detect_at;
            let mut last_processed = detect_at;
            let mut tracked = 0u32;
            let mut fire = false;
            while !fire {
                // Track the newest captured frame that was delivered
                // (implicit frame selection: the tracker keeps pace with the
                // camera by skipping).
                let next = run.next_frame(last_processed, cursor);
                let at = cursor.max(run.arrival(next));
                let step = run.track(&mut tracker, next, last_processed, at);
                if let Some(v) = step.velocity() {
                    vel.record(v);
                }
                let (fired, confidence) = trigger.step(step.stats.as_ref());
                run.record_step(&step, confidence);
                // Skipped frames inherit.
                run.hold(last_processed + 1..next, &shown, ov_end);
                last_shown = Shown::tracked(&tracker, &calib_conf);
                run.show(next, FrameSource::Tracked, last_shown.clone(), step.end);
                if let Some(c) = run.last_cycle() {
                    c.buffered += (next - last_processed) as u32;
                    c.tracked += 1;
                }
                tracked += 1;
                cursor = step.end;
                last_processed = next;

                // Injected divergence: the tracker's estimates degenerate
                // here — record it, and force an early re-detection.
                let diverged_now = diverge_after.is_some_and(|da| tracked >= da);
                if diverged_now {
                    run.diverge(cursor);
                }

                fire = fired
                    || tracker.all_stale()
                    || next - cycle_start_frame >= max_cycle_frames
                    || diverged_now;
                if fire && run.rec.on() {
                    let mut attrs = vec![Attr::u64("frame", next)];
                    match (confidence, step.velocity()) {
                        (Some(c), _) => attrs.push(Attr::f64("confidence", c)),
                        (None, Some(v)) => attrs.push(Attr::f64("velocity", v)),
                        (None, None) => {}
                    }
                    run.rec.event(
                        Track::Cpu,
                        EventKind::Trigger,
                        "re-detect trigger".to_string(),
                        cursor.as_ms(),
                        attrs,
                    );
                }
                if next == last && !fire {
                    // Clip exhausted while tracking.
                    break 'run;
                }
            }

            // Trigger: detect the newest delivered frame; frames arriving
            // while the DNN runs will be held at the stale tracker output.
            detect_at = run.next_frame(last_processed, cursor);
            run.hold(last_processed + 1..detect_at, &last_shown, cursor);
        }

        // The run ended mid-tracking-phase: fold the final cycle's work in.
        run.fold_kernel_counts();
    })
}
