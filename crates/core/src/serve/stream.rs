//! One served stream as a poll/step state machine.
//!
//! The run-to-completion MPDT loop owns its GPU and sleeps through every
//! detection; a fleet cannot afford either. [`StreamPipeline`] is that loop
//! turned inside out: the driver calls [`StreamPipeline::step`] with the
//! current virtual time, the stream advances as far as it can without
//! blocking, and returns a [`NextWake`] — a concrete re-poll time, a
//! promise that the batch scheduler will wake it when its detection lands,
//! or `Done`. The MPDT cycle structure survives intact: detect the newest
//! frame, publish, let the policy re-decide the model setting, degrade a
//! notch when the fault layer bites.
//!
//! Detection runs at the model level — settings map to their Table-I base
//! latencies plus deterministic jitter and the stream's salted
//! [`FaultPlan`] — because a fleet of a thousand streams cannot run real
//! pixel kernels per frame. Content (velocity driving adaptation, object
//! counts driving tracker/overlay cost) is synthesized from the stream
//! seed with the same pure-hash discipline the fault layer uses.

use super::{TAG_JITTER, TAG_OBJECTS, TAG_PROPOSAL, TAG_VELOCITY};
use crate::latency::{overlay_ms, FEATURE_EXTRACTION_MS, HELD_FRAME_MS};
use crate::metrics::{BudgetCrossing, SloTracker};
use crate::pipeline::{
    retry_backoff, step_down, timeout, CtdConfig, SettingPolicy, MAX_DETECTOR_RETRIES,
    RETRY_BACKOFF_MS,
};
use crate::telemetry::Histogram;
use adavp_detector::ModelSetting;
use adavp_rng::{mix, unit};
use adavp_sim::{FaultPlan, SimTime};

/// Detection scheme a served stream runs — the sweep's scheme axis. The
/// fleet layer models each scheme at the latency level (no pixel kernels):
///
/// * `Mpdt` — every cycle pays the current setting's full base latency;
/// * `Cascade` — every cycle pays a YOLOv3-tiny proposal pass, and pays a
///   region-scaled slice of the full setting only when the deterministic
///   proposal-confidence gate opens (faster scenes open it more often);
/// * `Ctd` — each successful detection is followed by a confidence-decay
///   tracking phase; the stream skips ahead the number of frames the decay
///   sustains before re-detecting, so detector invocations thin out on
///   slow scenes. Degraded cycles re-detect immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeScheme {
    /// Parallel detect+track (the default pipeline).
    Mpdt,
    /// Cascaded proposal + gated region refinement.
    Cascade,
    /// Confidence-triggered detection.
    Ctd,
}

impl ServeScheme {
    /// All schemes, in sweep order.
    pub const ALL: [ServeScheme; 3] = [ServeScheme::Mpdt, ServeScheme::Cascade, ServeScheme::Ctd];

    /// Short display label (used in sweep rows and CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            ServeScheme::Mpdt => "mpdt",
            ServeScheme::Cascade => "cascade",
            ServeScheme::Ctd => "ctd",
        }
    }

    /// Parses a label as produced by [`ServeScheme::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.label() == s)
    }
}

/// Proposal confidence below which a cascade stream pays for refinement.
const CASCADE_GATE: f64 = 0.5;

/// The confidence a CTD detection calibrates to (the Table-II plateau).
const CTD_CALIBRATION: f64 = 0.62;

/// Per-stream service class: the cycle-latency deadline the fleet promises
/// and the admission priority (strictest class admitted first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloClass {
    /// Interactive streams: tightest deadline, admitted first.
    Gold,
    /// Standard monitoring streams.
    Silver,
    /// Best-effort archival streams: loosest deadline, admitted last.
    Bronze,
}

impl SloClass {
    /// All classes, in admission-priority order.
    pub const ALL: [SloClass; 3] = [SloClass::Gold, SloClass::Silver, SloClass::Bronze];

    /// End-to-end detection-cycle deadline (frame arrival to overlay
    /// publish). A cycle slower than this counts as an SLO violation.
    ///
    /// Calibrated against the batching latency model: a full default batch
    /// of YOLOv3-512 members takes ~1.4 s frame-to-overlay once the
    /// formation window and queueing are counted, so Gold tolerates one
    /// well-formed batch cycle, Silver tolerates a retry or a contention
    /// burst, Bronze tolerates the 2 s degradation budget.
    pub fn deadline_ms(self) -> f64 {
        match self {
            SloClass::Gold => 1500.0,
            SloClass::Silver => 2500.0,
            SloClass::Bronze => 5000.0,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Gold => "gold",
            SloClass::Silver => "silver",
            SloClass::Bronze => "bronze",
        }
    }

    /// Error budget: the fraction of cycles allowed to miss
    /// [`SloClass::deadline_ms`] before the class is out of budget. Burn
    /// rate is the observed miss fraction divided by this budget
    /// (see [`crate::metrics::SloTracker`]).
    pub fn error_budget(self) -> f64 {
        match self {
            SloClass::Gold => 0.01,
            SloClass::Silver => 0.05,
            SloClass::Bronze => 0.20,
        }
    }
}

/// Static description of one camera stream requesting service.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name; salts the fleet fault plan via
    /// [`FaultPlan::for_stream`] so streams fault decorrelated.
    pub name: String,
    /// Service class (deadline + admission priority).
    pub class: SloClass,
    /// Camera frame interval in virtual ms (33.3 for 30 fps).
    pub frame_interval_ms: f64,
    /// Detection cycles to run before the stream completes.
    pub cycles: usize,
    /// Seed for synthetic content (velocity, objects, latency jitter).
    pub seed: u64,
}

/// What a stream needs from the driver after a [`StreamPipeline::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NextWake {
    /// Poll again at this virtual time (frame arrival, CPU prep finishing,
    /// retry/backpressure backoff expiring).
    At(SimTime),
    /// Blocked on an in-flight detection: the driver wakes the stream by
    /// delivering a [`DetectionVerdict`] when its batch completes.
    OnDetection,
    /// All configured cycles processed; never poll again.
    Done,
}

/// Outcome of one in-flight detection request, delivered by the driver
/// when the containing batch completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionVerdict {
    /// Batch completion time (the member's result is available now).
    pub end: SimTime,
    /// Whether this member's attempt failed outright (flaky detector).
    pub failed: bool,
    /// Whether this member's faulted latency was clipped at the
    /// degradation budget (abandon-at-budget semantics).
    pub timed_out: bool,
}

/// Counters and distributions accumulated by one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Whether admission control let the stream run at all.
    pub admitted: bool,
    /// Completed detection cycles (successful + degraded).
    pub cycles: u64,
    /// Cycles that published a fresh detection.
    pub detections: u64,
    /// Cycles that degraded (failed after retries, or timed out) and
    /// published held boxes instead.
    pub degraded: u64,
    /// Detection attempts retried after an outright failure.
    pub retries: u64,
    /// Submissions refused by scheduler backpressure.
    pub shed: u64,
    /// Deadline misses against the class error budget: misses, burn rate.
    pub slo: SloTracker,
    /// Camera frames covered (detected, tracked, or held).
    pub frames: u64,
    /// Model-setting switches decided by the policy or degradation.
    pub switches: u64,
    /// End-to-end cycle latency (frame arrival → overlay publish), ms.
    pub cycle_ms: Histogram,
    /// Virtual time the stream finished its last cycle.
    pub finished_at: SimTime,
    /// Error-budget burn-rate threshold crossings, in cycle order (each
    /// alert threshold fires at most once per stream).
    pub crossings: Vec<BudgetCrossing>,
}

impl StreamStats {
    fn new(class: SloClass) -> Self {
        Self {
            admitted: true,
            cycles: 0,
            detections: 0,
            degraded: 0,
            retries: 0,
            shed: 0,
            slo: SloTracker::new(class.error_budget()),
            frames: 0,
            switches: 0,
            cycle_ms: Histogram::latency_ms(),
            finished_at: SimTime::ZERO,
            crossings: Vec::new(),
        }
    }

    /// Stats for a stream of `class` rejected at admission: nothing ran.
    pub fn rejected(class: SloClass) -> Self {
        Self {
            admitted: false,
            ..Self::new(class)
        }
    }
}

/// A detection request as the stream hands it to the batch scheduler: the
/// member's standalone GPU latency with faults already applied, plus the
/// fault flags the verdict must echo back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRequest {
    /// Index of the submitting stream in the fleet.
    pub stream: usize,
    /// Detection cycle this request belongs to.
    pub cycle: u64,
    /// Standalone GPU latency of this member (base × jitter × fault
    /// multiplier, clipped at the degradation budget).
    pub member_ms: f64,
    /// This attempt fails outright (burns GPU time, returns nothing).
    pub failed: bool,
    /// `member_ms` was clipped at the budget; the cycle degrades.
    pub timed_out: bool,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting for frame `frame` to arrive.
    AwaitFrame {
        frame: u64,
    },
    /// Frame captured at `arrival`; CPU-side feature extraction (plus any
    /// retry/backpressure backoff) finishes at `ready`, then submit
    /// attempt `attempt`.
    Prep {
        frame: u64,
        arrival: SimTime,
        ready: SimTime,
        attempt: u32,
    },
    /// Attempt `attempt` is in a batch; waiting for its verdict.
    InFlight {
        frame: u64,
        arrival: SimTime,
        attempt: u32,
    },
    Done,
}

/// The MPDT cycle loop in poll/step form. See the module docs.
#[derive(Debug, Clone)]
pub struct StreamPipeline {
    index: usize,
    spec: StreamSpec,
    scheme: ServeScheme,
    policy: SettingPolicy,
    faults: FaultPlan,
    setting: ModelSetting,
    cycle: u64,
    phase: Phase,
    verdict: Option<DetectionVerdict>,
    /// `ln(threshold / calibration)` of the CTD trigger, which no cycle
    /// changes; see [`StreamPipeline::ctd_tracked_frames`].
    ctd_trigger_ln: f64,
    /// Counters and distributions; read out by the driver at the end.
    pub stats: StreamStats,
}

impl StreamPipeline {
    /// Builds the stream's pipeline. `faults` must already be salted for
    /// this stream (the driver calls [`FaultPlan::for_stream`]).
    pub fn new(
        index: usize,
        spec: StreamSpec,
        scheme: ServeScheme,
        policy: SettingPolicy,
        faults: FaultPlan,
    ) -> Self {
        let setting = policy.initial_setting();
        let mut stats = StreamStats::new(spec.class);
        stats.cycle_ms.reserve(spec.cycles);
        // A stream with no cycles to run is done before it starts.
        let phase = if spec.cycles == 0 {
            Phase::Done
        } else {
            Phase::AwaitFrame { frame: 0 }
        };
        Self {
            index,
            spec,
            scheme,
            policy,
            faults,
            setting,
            cycle: 0,
            phase,
            verdict: None,
            // adavp-lint: allow(float-determinism) — one ln() of two constants per stream; ctd_tracked_frames ceils the ratio it feeds to a whole frame count
            ctd_trigger_ln: (CtdConfig::default().threshold / CTD_CALIBRATION).ln(),
            stats,
        }
    }

    /// The stream's spec.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Current model setting (moves under adaptation and degradation).
    pub fn setting(&self) -> ModelSetting {
        self.setting
    }

    /// Delivers a detection verdict; the driver must call
    /// [`StreamPipeline::step`] at `verdict.end` right after.
    pub fn deliver(&mut self, verdict: DetectionVerdict) {
        debug_assert!(self.verdict.is_none(), "verdict already pending");
        self.verdict = Some(verdict);
    }

    /// Synthetic content velocity for a cycle (Eq. 3 regime, px/frame):
    /// piecewise-constant over 6-cycle epochs so adaptation sees regimes,
    /// not noise.
    pub fn velocity(&self, cycle: u64) -> f64 {
        0.2 + 4.3 * unit(mix(self.spec.seed, TAG_VELOCITY, cycle / 6, 0))
    }

    /// Synthetic tracked-object count for a cycle (1..=9).
    pub fn objects(&self, cycle: u64) -> usize {
        1 + (mix(self.spec.seed, TAG_OBJECTS, cycle, 0) % 9) as usize
    }

    /// Synthetic proposal confidence of a cascade cycle in `[0, 1)`: a
    /// pure hash draw scaled down by content velocity, so fast scenes
    /// open the refinement gate more often.
    pub fn proposal_confidence(&self, cycle: u64) -> f64 {
        unit(mix(self.spec.seed, TAG_PROPOSAL, cycle, 0)) / (1.0 + 0.2 * self.velocity(cycle))
    }

    /// How many frames a CTD stream keeps tracking after a successful
    /// detection before its confidence decays through the trigger
    /// threshold, from the closed-form trigger math of
    /// [`crate::pipeline::ConfidenceDecay`] at the cycle's content
    /// velocity (calibration confidence taken as the Table-II plateau).
    pub fn ctd_tracked_frames(&self, cycle: u64) -> u64 {
        let cfg = CtdConfig::default();
        let factor =
            (cfg.base_decay - cfg.velocity_penalty * self.velocity(cycle)).clamp(0.05, 0.999);
        // adavp-lint: allow(float-determinism) — closed-form CTD trigger: k is ceiled to a whole frame count, so a ±1-ulp ln() drift cannot move it off the integer; scheme_conformance pins the resulting schedule bytes
        let k = (self.ctd_trigger_ln / factor.ln()).ceil().max(1.0);
        (k as u64).min(cfg.max_cycle_frames)
    }

    fn arrival(&self, frame: u64) -> SimTime {
        SimTime::from_ms(frame as f64 * self.spec.frame_interval_ms)
    }

    /// This member's standalone GPU latency for `(cycle, attempt)`:
    /// setting base latency × ±5% deterministic jitter × the stream's
    /// fault multiplier, clipped at the degradation budget (with the
    /// timeout flag set when clipping happened).
    fn member_latency(&self, cycle: u64, attempt: u32) -> (f64, bool) {
        let jitter = 0.95 + 0.1 * unit(mix(self.spec.seed, TAG_JITTER, cycle, attempt as u64));
        let mult = self.faults.latency_multiplier(cycle);
        let base = match self.scheme {
            ServeScheme::Mpdt | ServeScheme::Ctd => self.setting.base_latency_ms(),
            ServeScheme::Cascade => {
                // Tiny proposal pass every cycle; region-scaled slice of
                // the full setting only when the gate opens. The region
                // fraction shrinks with the same confidence draw: a barely
                // sub-threshold proposal needs a small refinement region.
                let tiny = ModelSetting::Tiny320.base_latency_ms();
                let conf = self.proposal_confidence(cycle);
                if conf >= CASCADE_GATE {
                    tiny
                } else {
                    let fraction = (conf / CASCADE_GATE).clamp(0.05, 1.0);
                    tiny + crate::latency::region_scaled_ms(
                        self.setting.base_latency_ms(),
                        fraction,
                    )
                }
            }
        };
        let raw = base * jitter * mult;
        timeout(raw).map_or((raw, false), |budget| (budget, true))
    }

    fn switch_to(&mut self, next: ModelSetting) {
        if next != self.setting {
            self.stats.switches += 1;
            self.setting = next;
        }
    }

    /// Advances the stream at virtual time `now`. `submit` is the driver's
    /// window into the batch scheduler: it returns `true` when the request
    /// was accepted and `false` under backpressure.
    ///
    /// The contract: the driver polls at exactly the times this method
    /// returns in [`NextWake::At`], and after [`NextWake::OnDetection`]
    /// delivers a verdict via [`StreamPipeline::deliver`] before polling
    /// again (at the verdict's `end` time).
    // adavp-lint: allow(panic-surface, item=step) — driver contract above: after OnDetection the fleet loop always delivers a verdict before re-polling; step_is_idempotent_across_early_polls pins it
    pub fn step(
        &mut self,
        now: SimTime,
        submit: &mut dyn FnMut(SimTime, DetectionRequest) -> bool,
    ) -> NextWake {
        loop {
            match self.phase {
                Phase::AwaitFrame { frame } => {
                    let arrival = self.arrival(frame);
                    if now < arrival {
                        return NextWake::At(arrival);
                    }
                    // MPDT detects the *newest* delivered frame: if the
                    // poll came late (it only does when the previous cycle
                    // ended mid-interval), skip ahead to the latest frame
                    // whose arrival has passed.
                    let newest =
                        (now.as_ms() / self.spec.frame_interval_ms).floor().max(0.0) as u64;
                    let frame = frame.max(newest);
                    // `min(now)` only guards float rounding: the newest
                    // frame's nominal arrival is <= now by construction.
                    let arrival = self.arrival(frame).min(now);
                    let ready = SimTime::from_ms(now.as_ms() + FEATURE_EXTRACTION_MS);
                    self.phase = Phase::Prep {
                        frame,
                        arrival,
                        ready,
                        attempt: 0,
                    };
                }
                Phase::Prep {
                    frame,
                    arrival,
                    ready,
                    attempt,
                } => {
                    if now < ready {
                        return NextWake::At(ready);
                    }
                    let (member_ms, timed_out) = self.member_latency(self.cycle, attempt);
                    let request = DetectionRequest {
                        stream: self.index,
                        cycle: self.cycle,
                        member_ms,
                        failed: self.faults.detector_fails(self.cycle, attempt),
                        timed_out,
                    };
                    if submit(now, request) {
                        self.phase = Phase::InFlight {
                            frame,
                            arrival,
                            attempt,
                        };
                        return NextWake::OnDetection;
                    }
                    // Backpressure: the queue is saturated. Shed load by
                    // stepping one setting lighter (the degradation
                    // step-down rule) and retry after one backoff unit.
                    self.stats.shed += 1;
                    self.switch_to(step_down(self.setting, true));
                    let retry_at = SimTime::from_ms(now.as_ms() + RETRY_BACKOFF_MS);
                    self.phase = Phase::Prep {
                        frame,
                        arrival,
                        ready: retry_at,
                        attempt,
                    };
                    return NextWake::At(retry_at);
                }
                Phase::InFlight {
                    frame,
                    arrival,
                    attempt,
                } => {
                    let verdict = self.verdict.take().expect("woken without a verdict");
                    if verdict.failed && !verdict.timed_out && attempt < MAX_DETECTOR_RETRIES {
                        // Retry with the same linear backoff the clip
                        // pipelines use.
                        self.stats.retries += 1;
                        let backoff = retry_backoff(attempt);
                        let ready = SimTime::from_ms(now.as_ms() + backoff);
                        self.phase = Phase::Prep {
                            frame,
                            arrival,
                            ready,
                            attempt: attempt + 1,
                        };
                        return NextWake::At(ready);
                    }
                    return self.finish_cycle(now, frame, arrival, verdict);
                }
                Phase::Done => return NextWake::Done,
            }
        }
    }

    fn finish_cycle(
        &mut self,
        now: SimTime,
        frame: u64,
        arrival: SimTime,
        verdict: DetectionVerdict,
    ) -> NextWake {
        let degraded = verdict.failed || verdict.timed_out;
        let objects = self.objects(self.cycle);
        // Gap frames were tracked on the CPU concurrently with the GPU
        // batch (MPDT's defining overlap); only the final overlay of the
        // detected result sits on the cycle's critical path. A degraded
        // cycle publishes the held boxes, which is cheaper.
        let publish_ms = if degraded {
            HELD_FRAME_MS
        } else {
            overlay_ms(objects)
        };
        let done = SimTime::from_ms(now.as_ms() + publish_ms);
        let cycle_ms = done.as_ms() - arrival.as_ms();
        self.stats.cycle_ms.record(cycle_ms);
        let missed = cycle_ms > self.spec.class.deadline_ms();
        if let Some(threshold) = self.stats.slo.record(missed) {
            self.stats.crossings.push(BudgetCrossing {
                threshold,
                burn: self.stats.slo.burn_rate(),
                at_ms: done.as_ms(),
                cycle: self.cycle,
            });
        }
        if degraded {
            self.stats.degraded += 1;
        } else {
            self.stats.detections += 1;
        }

        // Next setting: the policy decides from the synthetic velocity;
        // a degraded cycle steps one notch lighter on top (transient, the
        // policy re-decides next cycle) — same composition as mpdt.
        let velocity = Some(self.velocity(self.cycle));
        let next = self.policy.next_setting(self.setting, velocity);
        self.switch_to(step_down(next, degraded));

        self.cycle += 1;
        self.stats.cycles += 1;

        // The next cycle detects the first frame arriving at or after
        // `done` (and strictly after the one just detected).
        let mut next_frame = (done.as_ms() / self.spec.frame_interval_ms).ceil() as u64;
        if next_frame <= frame {
            next_frame = frame + 1;
        }
        // CTD: after a successful detection the tracker carries the stream
        // until its confidence decays through the threshold — the stream
        // skips those frames before re-detecting. A degraded cycle
        // re-detects immediately (never ride a decayed confidence).
        if self.scheme == ServeScheme::Ctd && !degraded {
            next_frame += self.ctd_tracked_frames(self.cycle - 1);
        }
        self.stats.frames += next_frame - frame;

        if self.cycle >= self.spec.cycles as u64 {
            self.stats.finished_at = done;
            self.phase = Phase::Done;
            return NextWake::Done;
        }
        self.phase = Phase::AwaitFrame { frame: next_frame };
        NextWake::At(self.arrival(next_frame).max(done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_sim::FaultProfile;

    fn pipeline(cycles: usize) -> StreamPipeline {
        scheme_pipeline(cycles, ServeScheme::Mpdt)
    }

    fn scheme_pipeline(cycles: usize, scheme: ServeScheme) -> StreamPipeline {
        StreamPipeline::new(
            0,
            StreamSpec {
                name: "cam-test".into(),
                class: SloClass::Gold,
                frame_interval_ms: 1000.0 / 30.0,
                cycles,
                seed: 7,
            },
            scheme,
            SettingPolicy::Fixed(ModelSetting::Yolo512),
            FaultPlan::none(),
        )
    }

    /// Drives one stream to completion with an always-accepting scheduler
    /// that answers every request after `det_ms` of simulated latency.
    fn drive(p: &mut StreamPipeline, det_ms: f64) {
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000, "stream did not terminate");
            let mut submitted = None;
            let wake = p.step(now, &mut |at, req| {
                submitted = Some((at, req));
                true
            });
            match wake {
                NextWake::At(t) => {
                    assert!(t >= now, "wake {t:?} in the past (now {now:?})");
                    now = t;
                }
                NextWake::OnDetection => {
                    let (at, req) = submitted.expect("OnDetection without a submit");
                    let end = SimTime::from_ms(at.as_ms() + det_ms.max(req.member_ms));
                    p.deliver(DetectionVerdict {
                        end,
                        failed: req.failed,
                        timed_out: req.timed_out,
                    });
                    now = end;
                }
                NextWake::Done => break,
            }
        }
    }

    #[test]
    fn happy_path_cycles_complete() {
        let mut p = pipeline(10);
        drive(&mut p, 0.0);
        assert_eq!(p.stats.cycles, 10);
        assert_eq!(p.stats.detections, 10);
        assert_eq!(p.stats.degraded, 0);
        assert_eq!(p.stats.shed, 0);
        assert_eq!(p.stats.cycle_ms.count(), 10);
        assert!(p.stats.frames >= 10, "each cycle covers >= 1 frame");
        assert!(p.stats.finished_at > SimTime::ZERO);
        // Cycle latency ≈ feature + detection + overlay: comfortably
        // inside the Gold deadline without batching queues.
        let p99 = p.stats.cycle_ms.percentile(99.0).unwrap();
        assert!(p99 < SloClass::Gold.deadline_ms(), "p99 {p99}");
        assert_eq!(p.stats.slo.misses(), 0);
    }

    #[test]
    fn step_is_idempotent_across_early_polls() {
        // Polling before the wake time must be a no-op returning the same
        // wake, never advancing state.
        let mut p = pipeline(3);
        let w1 = p.step(SimTime::ZERO, &mut |_, _| panic!("no submit yet"));
        let NextWake::At(ready) = w1 else {
            panic!("expected At, got {w1:?}");
        };
        let early = SimTime::from_ms(ready.as_ms() / 2.0);
        let w2 = p.step(early, &mut |_, _| panic!("still too early"));
        assert_eq!(w2, NextWake::At(ready));
    }

    #[test]
    fn failed_attempts_retry_with_backoff_then_degrade() {
        let mut p = pipeline(4);
        // Force every attempt to fail.
        p.faults = FaultPlan::new(FaultProfile {
            detector_failure_prob: 1.0,
            ..FaultProfile::none()
        });
        drive(&mut p, 0.0);
        assert_eq!(p.stats.cycles, 4);
        assert_eq!(p.stats.detections, 0);
        assert_eq!(p.stats.degraded, 4, "all cycles degrade");
        // MAX_DETECTOR_RETRIES = 2 → 2 retries per cycle.
        assert_eq!(p.stats.retries, 8);
    }

    #[test]
    fn timeout_clips_member_latency_at_budget() {
        let mut p = pipeline(3);
        p.faults = FaultPlan::new(FaultProfile {
            latency_spike_prob: 1.0,
            latency_spike_mult: (30.0, 30.0),
            ..FaultProfile::none()
        });
        let (ms, timed_out) = p.member_latency(0, 0);
        assert!(timed_out);
        assert_eq!(ms, crate::pipeline::DETECTOR_TIMEOUT_MS);
        drive(&mut p, 0.0);
        assert_eq!(p.stats.degraded, 3, "timed-out cycles degrade");
    }

    #[test]
    fn backpressure_steps_down_and_retries() {
        let mut p = pipeline(2);
        let before = p.setting();
        let mut rejections = 0;
        let mut now = SimTime::ZERO;
        // Reject the first 3 submissions, then accept.
        loop {
            let mut submitted = false;
            let wake = p.step(now, &mut |_, _| {
                if rejections < 3 {
                    rejections += 1;
                    false
                } else {
                    submitted = true;
                    true
                }
            });
            match wake {
                NextWake::At(t) => now = t,
                NextWake::OnDetection => {
                    assert!(submitted, "OnDetection without an accepted submit");
                    break;
                }
                NextWake::Done => unreachable!(),
            }
        }
        assert_eq!(p.stats.shed, 3);
        // Three rejections stepped the setting down three notches.
        assert_eq!(p.setting(), before.lighter().lighter().lighter());
    }

    #[test]
    fn degraded_cycle_steps_down_transiently() {
        let mut p = StreamPipeline::new(
            0,
            StreamSpec {
                name: "s".into(),
                class: SloClass::Bronze,
                frame_interval_ms: 1000.0 / 30.0,
                cycles: 1,
                seed: 3,
            },
            ServeScheme::Mpdt,
            SettingPolicy::Adaptive(crate::adaptation::AdaptationModel::uniform([1.0, 2.0, 3.0])),
            FaultPlan::none(),
        );
        // Complete one cycle with a degraded verdict: the next setting is
        // the policy's answer stepped one lighter.
        let mut now = SimTime::ZERO;
        loop {
            let wake = p.step(now, &mut |_, _| true);
            match wake {
                NextWake::At(t) => now = t,
                NextWake::OnDetection => break,
                NextWake::Done => unreachable!(),
            }
        }
        let held = p.setting();
        let v = p.velocity(0);
        let policy_next = p.policy.next_setting(held, Some(v));
        p.deliver(DetectionVerdict {
            end: now,
            failed: true,
            timed_out: true,
        });
        let _ = p.step(now, &mut |_, _| true);
        assert_eq!(p.setting(), policy_next.lighter());
        assert_eq!(p.stats.degraded, 1);
    }

    #[test]
    fn deadline_misses_burn_the_error_budget() {
        let mut p = pipeline(5);
        // Every detection takes 3 s — far past the 1.5 s Gold deadline.
        drive(&mut p, 3000.0);
        assert_eq!(p.stats.slo.misses(), 5);
        assert_eq!(p.stats.slo.cycles(), 5);
        assert_eq!(p.stats.slo.budget(), SloClass::Gold.error_budget());
        // Closed form: all cycles missing burns at 1/budget.
        assert_eq!(p.stats.slo.burn_rate(), 1.0 / SloClass::Gold.error_budget());
        // The first miss crosses both alert thresholds at once —
        // edge-triggered, so exactly one crossing (the highest).
        assert_eq!(p.stats.crossings.len(), 1);
        assert_eq!(p.stats.crossings[0].threshold, 2.0);
        assert_eq!(p.stats.crossings[0].cycle, 0);
        // A clean stream burns nothing and records no crossings.
        let mut ok = pipeline(5);
        drive(&mut ok, 0.0);
        assert_eq!(ok.stats.slo.burn_rate(), 0.0);
        assert!(ok.stats.crossings.is_empty());
    }

    #[test]
    fn scheme_labels_roundtrip() {
        for s in ServeScheme::ALL {
            assert_eq!(ServeScheme::parse(s.label()), Some(s));
        }
        assert_eq!(ServeScheme::parse("marlin"), None);
    }

    #[test]
    fn cascade_member_latency_never_exceeds_mpdt() {
        let mpdt = pipeline(20);
        let casc = scheme_pipeline(20, ServeScheme::Cascade);
        let mut cheaper = 0;
        for c in 0..20 {
            let (m, _) = mpdt.member_latency(c, 0);
            let (k, _) = casc.member_latency(c, 0);
            // Worst case is tiny pass + full-fraction region slice.
            assert!(
                k <= m + ModelSetting::Tiny320.base_latency_ms() * 1.05,
                "cycle {c}: cascade {k} vs mpdt {m}"
            );
            if k < m {
                cheaper += 1;
            }
        }
        // With the default gate the cascade must be cheaper on at least
        // one cycle (gate closed → tiny-only, or a small region slice).
        assert!(cheaper > 0, "cascade never beat MPDT's member latency");
    }

    #[test]
    fn ctd_covers_more_frames_with_same_cycles() {
        let mut mpdt = pipeline(10);
        let mut ctd = scheme_pipeline(10, ServeScheme::Ctd);
        drive(&mut mpdt, 0.0);
        drive(&mut ctd, 0.0);
        assert_eq!(mpdt.stats.cycles, ctd.stats.cycles);
        assert!(
            ctd.stats.frames > mpdt.stats.frames,
            "CTD ({}) must cover more frames per detection than MPDT ({})",
            ctd.stats.frames,
            mpdt.stats.frames
        );
    }

    #[test]
    fn ctd_tracked_frames_shrink_with_velocity() {
        let p = scheme_pipeline(1, ServeScheme::Ctd);
        // Find a slow and a fast epoch and compare.
        let mut min_v = (0u64, f64::MAX);
        let mut max_v = (0u64, f64::MIN);
        for c in 0..60 {
            let v = p.velocity(c);
            if v < min_v.1 {
                min_v = (c, v);
            }
            if v > max_v.1 {
                max_v = (c, v);
            }
        }
        assert!(
            p.ctd_tracked_frames(min_v.0) >= p.ctd_tracked_frames(max_v.0),
            "slower content must sustain tracking at least as long"
        );
    }

    #[test]
    fn content_synthesis_is_pure_and_in_range() {
        let p = pipeline(1);
        for c in 0..100 {
            let v = p.velocity(c);
            assert!((0.2..=4.5).contains(&v), "velocity {v}");
            assert_eq!(v, p.velocity(c));
            let o = p.objects(c);
            assert!((1..=9).contains(&o), "objects {o}");
        }
        // Epochs: velocity constant within a 6-cycle epoch.
        assert_eq!(p.velocity(0), p.velocity(5));
    }
}
