//! The run state every clip scheme shares, owned once.
//!
//! All clip schemes run on one simulated phone: a virtual GPU and CPU, an
//! energy meter, a telemetry recorder, the stream's salted fault plan with
//! its contention bursts and degradation rules, and the rule that every
//! frame ends up with exactly one [`FrameOutput`]. A [`ClipRun`] owns all of
//! it. Each scheme's loop keeps only what makes the scheme different —
//! which frame to detect next, when to track, what to show — and asks the
//! run to do the work. Every energy record, resource schedule and telemetry
//! call happens in the order the loop makes it, so the f64 energy sums and
//! the telemetry bytes are reproducible.

use super::{
    retry_backoff, timeout, CycleRecord, DetectorFault, FrameOutput, FrameSource, PipelineConfig,
    ProcessingTrace, MAX_DETECTOR_RETRIES,
};
use crate::latency::{overlay_ms, track_ms, FEATURE_EXTRACTION_MS, HELD_FRAME_MS};
use crate::metrics::{names, LabelSet, MetricsConfig, MetricsRegistry};
use crate::telemetry::{Attr, EventKind, Histogram, Recorder, SpanKind, Track};
use crate::tracker::{ObjectTracker, StepStats};
use adavp_detector::{Detection, DetectionResult, Detector, ModelSetting};
use adavp_metrics::f1::LabeledBox;
use adavp_sim::energy::{Activity, EnergyMeter};
use adavp_sim::fault::{ContentionInjector, FaultPlan};
use adavp_sim::resource::Resource;
use adavp_sim::time::SimTime;
use adavp_video::buffer::FrameStream;
use adavp_video::clip::VideoClip;
use adavp_vision::geometry::BoundingBox;
use adavp_vision::perf::{self, KernelCounters, KernelCounts};
use std::ops::Range;

/// Boxes on display with their per-box confidences, index-aligned.
#[derive(Debug, Clone, Default)]
pub(super) struct Shown {
    pub boxes: Vec<LabeledBox>,
    pub confidences: Vec<f32>,
}

impl Shown {
    /// A detection's boxes.
    pub fn detected(result: &DetectionResult) -> Self {
        let mut shown = Self::default();
        for d in &result.detections {
            shown.push(d);
        }
        shown
    }

    /// The tracker's current boxes with the confidences of the detection
    /// that calibrated it. `current_boxes` keeps the calibration's count
    /// and order, so the confidences stay index-aligned.
    pub fn tracked(tracker: &ObjectTracker, confidences: &[f32]) -> Self {
        Self {
            boxes: tracker
                .current_boxes()
                .into_iter()
                .map(|(c, b)| LabeledBox::new(c, b))
                .collect(),
            confidences: confidences.to_vec(),
        }
    }

    /// Appends one detection.
    pub fn push(&mut self, d: &Detection) {
        self.boxes.push(LabeledBox::new(d.class, d.bbox));
        self.confidences.push(d.confidence);
    }
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

    /// What the cycle shows for its frame: the fresh boxes, or `held` —
    /// the boxes already on display — when the detection degraded.
    pub fn shown(&self, held: &Shown) -> (Shown, FrameSource) {
        match &self.result {
            Some(r) => (Shown::detected(r), FrameSource::Detected),
            None => (held.clone(), FrameSource::Held),
        }
    }
}

/// One tracker step as run on the CPU.
pub(super) struct TrackStep {
    pub frame: u64,
    /// Objects tracked, counted before the step.
    pub objects: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub stats: Option<StepStats>,
}

impl TrackStep {
    /// The step's mean feature velocity, when it measured one.
    pub fn velocity(&self) -> Option<f64> {
        self.stats.as_ref().and_then(|s| s.mean_velocity)
    }
}

/// One scheme's run over one clip. See the module docs.
pub(super) struct ClipRun<'c> {
    stream: FrameStream<'c>,
    last: u64,
    metrics: MetricsConfig,
    faults: FaultPlan,
    contention: ContentionInjector,
    gpu: Resource,
    cpu: Resource,
    meter: EnergyMeter,
    /// The run's telemetry; schemes add their own spans and events to it.
    pub rec: Recorder,
    outputs: Vec<Option<FrameOutput>>,
    cycles: Vec<CycleRecord>,
    kernel_mark: KernelCounters,
}

impl<'c> ClipRun<'c> {
    /// Runs one scheme over `clip` and returns the trace named `name`.
    /// `scheme` drives the scheme's loop, given the run and the index of
    /// the clip's last frame. An empty clip never reaches `scheme`: its
    /// trace has no outputs, no cycles and no energy.
    pub fn process(
        config: &PipelineConfig,
        clip: &'c VideoClip,
        name: String,
        scheme: impl FnOnce(&mut ClipRun<'c>, u64),
    ) -> ProcessingTrace {
        let mut run = Self::new(config, clip);
        if !clip.is_empty() {
            let last = run.last;
            scheme(&mut run, last);
        }
        run.finish(name)
    }

    fn new(config: &PipelineConfig, clip: &'c VideoClip) -> Self {
        let faults = config.faults.for_stream(clip.name());
        Self {
            stream: FrameStream::new(clip),
            last: (clip.len() as u64).saturating_sub(1),
            metrics: config.metrics,
            contention: faults.contention(),
            faults,
            gpu: Resource::new("gpu"),
            cpu: Resource::new("cpu"),
            meter: EnergyMeter::new(),
            rec: Recorder::new(config.telemetry),
            outputs: vec![None; clip.len()],
            cycles: Vec::new(),
            kernel_mark: perf::snapshot(),
        }
    }

    /// When the camera captures `frame`.
    pub fn arrival(&self, frame: u64) -> SimTime {
        SimTime::from_ms(self.stream.arrival_ms(frame))
    }

    /// Records the camera delivering `frame` at `at` (one instant per
    /// detection fetch, not per captured frame).
    pub fn record_arrival(&mut self, frame: u64, at: SimTime) {
        if self.rec.on() {
            self.rec.event(
                Track::Camera,
                EventKind::FrameArrival,
                "frame".to_string(),
                at.as_ms(),
                vec![Attr::u64("frame", frame)],
            );
        }
    }

    /// Records the camera delivering `frame` at its capture time, and
    /// returns that time.
    pub fn arrive(&mut self, frame: u64) -> SimTime {
        let at = self.arrival(frame);
        self.record_arrival(frame, at);
        at
    }

    /// Whether the fault plan drops `frame` at the camera.
    pub fn dropped(&self, frame: u64) -> bool {
        self.faults.frame_dropped(frame as usize)
    }

    /// Where the fault plan makes the tracker diverge in `cycle`, as a
    /// fraction of the cycle's tracking.
    pub fn divergence(&self, cycle: u64) -> Option<f64> {
        self.faults.tracker_divergence(cycle)
    }

    /// The frame to process after `after` at virtual time `at`: the newest
    /// captured one (at least `after + 1`, at most the last), or — when
    /// the camera dropped it — the nearest delivered frame, scanning back
    /// toward `after + 1`, then forward to the last frame. Falls back to
    /// the newest frame when the whole window was dropped (modeled as a
    /// late, degraded delivery) so the scheme always makes progress.
    pub fn next_frame(&self, after: u64, at: SimTime) -> u64 {
        let newest = self.stream.newest_at(at.as_ms()).unwrap_or(0);
        let preferred = newest.max(after + 1).min(self.last);
        if self.faults.is_none() || !self.dropped(preferred) {
            return preferred;
        }
        (after + 1..preferred)
            .rev()
            .chain(preferred + 1..=self.last)
            .find(|&f| !self.dropped(f))
            .unwrap_or(preferred)
    }

    /// Index of the next cycle to be pushed; it keys the fault plan's
    /// per-cycle draws.
    pub fn next_cycle(&self) -> u64 {
        self.cycles.len() as u64
    }

    /// Runs one detection of `frame` through the fault layer shared by every
    /// scheme and records its GPU span. Contention bursts are injected up
    /// to the dispatch horizon, the cycle's latency multiplier is applied,
    /// over-budget attempts are abandoned at the timeout (releasing the
    /// GPU), and failed attempts retry with linear backoff up to the
    /// `MAX_DETECTOR_RETRIES`. With [`FaultPlan::is_none`] this reduces to exactly
    /// one `schedule` + `record`.
    ///
    /// With a `region`, only detections whose centers fall inside it come
    /// back, and the GPU pays the proportionally reduced cost of
    /// [`crate::latency::region_scaled_ms`]; the fault layer applies to the
    /// scaled cost unchanged.
    pub fn detect<D: Detector>(
        &mut self,
        detector: &mut D,
        frame: u64,
        setting: ModelSetting,
        earliest: SimTime,
        region: Option<&BoundingBox>,
    ) -> DetectionOutcome {
        let cycle = self.next_cycle();
        let image = self.stream.frame(frame);
        self.contention
            .inject_until(earliest.max(self.gpu.available_at()), &mut self.gpu);
        let det = match region {
            None => detector.detect(image, setting),
            Some(r) => {
                let mut det = detector.detect_region(image, setting, r);
                let frame_area = (image.image.width() * image.image.height()) as f64;
                let fraction = if frame_area > 0.0 {
                    r.area() as f64 / frame_area
                } else {
                    1.0
                };
                det.latency_ms = crate::latency::region_scaled_ms(det.latency_ms, fraction);
                det
            }
        };
        let outcome = self.attempt(det, setting, earliest, cycle);
        self.record_detection_span(cycle, frame, setting, &outcome);
        outcome
    }

    /// The timeout and retry half of [`Self::detect`].
    fn attempt(
        &mut self,
        det: DetectionResult,
        setting: ModelSetting,
        earliest: SimTime,
        cycle: u64,
    ) -> DetectionOutcome {
        let mult = self.faults.latency_multiplier(cycle);
        let effective_ms = det.latency_ms * mult;
        if let Some(budget) = timeout(effective_ms) {
            // Abandon at the budget: the GPU was busy that long, but no
            // result comes back.
            let (s, e) = self.gpu.schedule(earliest, SimTime::from_ms(budget));
            self.meter.record(detect_activity(setting), e - s);
            return DetectionOutcome {
                result: None,
                start: s,
                end: e,
                fault: Some(DetectorFault::Timeout { multiplier: mult }),
            };
        }
        let attempts = MAX_DETECTOR_RETRIES + 1;
        let mut at = earliest;
        let mut first_start: Option<SimTime> = None;
        let mut last_end = earliest;
        for attempt in 0..attempts {
            let (s, e) = self.gpu.schedule(at, SimTime::from_ms(effective_ms));
            self.meter.record(detect_activity(setting), e - s);
            first_start.get_or_insert(s);
            last_end = e;
            if self.faults.detector_fails(cycle, attempt) {
                at = e + SimTime::from_ms(retry_backoff(attempt));
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

    /// Records one detection cycle's GPU span. Fault information becomes
    /// span attributes; degraded cycles also raise an [`EventKind::Fault`]
    /// instant on the GPU track so they stand out at a glance.
    fn record_detection_span(
        &mut self,
        cycle: u64,
        frame: u64,
        setting: ModelSetting,
        outcome: &DetectionOutcome,
    ) {
        if !self.rec.on() {
            return;
        }
        let mut attrs = vec![
            Attr::u64("cycle", cycle),
            Attr::u64("frame", frame),
            Attr::str("setting", &setting.to_string()),
        ];
        if let Some(fault) = outcome.fault {
            let (kind, detail) = match fault {
                DetectorFault::Spike { multiplier } => {
                    ("spike", Attr::f64("multiplier", multiplier))
                }
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
                self.rec.event(
                    Track::Gpu,
                    EventKind::Fault,
                    format!("degraded: {kind}"),
                    outcome.end.as_ms(),
                    vec![Attr::u64("cycle", cycle)],
                );
            }
        }
        self.rec.span(
            Track::Gpu,
            SpanKind::Detection,
            format!("detect {setting}"),
            outcome.start.as_ms(),
            outcome.end.as_ms(),
            attrs,
        );
    }

    /// Runs one detection of `frame` outside the fault layer, for a pass
    /// the scheme treats as reliable: one GPU schedule and one energy
    /// record, no span. Returns the result with its GPU start and end.
    pub fn detect_unfaulted<D: Detector>(
        &mut self,
        detector: &mut D,
        frame: u64,
        setting: ModelSetting,
        earliest: SimTime,
    ) -> (DetectionResult, SimTime, SimTime) {
        let det = detector.detect(self.stream.frame(frame), setting);
        let (start, end) = self
            .gpu
            .schedule(earliest, SimTime::from_ms(det.latency_ms));
        self.meter.record(detect_activity(setting), end - start);
        (det, start, end)
    }

    /// Charges one model-setting switch.
    pub fn switch_model(&mut self) {
        self.meter.record(
            Activity::ModelSwitch,
            SimTime::from_ms(ModelSetting::switch_cost_ms()),
        );
    }

    /// Extracts features on the CPU from `at` and re-calibrates `tracker`
    /// on `shown`'s boxes in `frame`. Returns when the extraction ends.
    pub fn calibrate(
        &mut self,
        tracker: &mut ObjectTracker,
        frame: u64,
        shown: &Shown,
        at: SimTime,
    ) -> SimTime {
        let fe = SimTime::from_ms(FEATURE_EXTRACTION_MS);
        let (start, end) = self.cpu.schedule(at, fe);
        self.meter.record(Activity::FeatureExtraction, fe);
        if self.rec.on() {
            self.rec.span(
                Track::Cpu,
                SpanKind::FeatureExtraction,
                "extract features".to_string(),
                start.as_ms(),
                end.as_ms(),
                vec![Attr::u64("boxes", shown.boxes.len() as u64)],
            );
        }
        let pairs: Vec<_> = shown.boxes.iter().map(|l| (l.class, l.bbox)).collect();
        tracker.reset(&self.stream.frame(frame).image, &pairs);
        end
    }

    /// Tracks `tracker` on to `frame`, `frame - prev` frames after the
    /// frame it last saw, and draws its boxes, on the CPU from `at`.
    pub fn track(
        &mut self,
        tracker: &mut ObjectTracker,
        frame: u64,
        prev: u64,
        at: SimTime,
    ) -> TrackStep {
        let objects = tracker.boxes().len();
        let track = SimTime::from_ms(track_ms(objects));
        let draw = SimTime::from_ms(overlay_ms(objects));
        let (start, end) = self.cpu.schedule(at, track + draw);
        self.meter.record(Activity::Tracking, track);
        self.meter.record(Activity::Overlay, draw);
        let stats = tracker.step(&self.stream.frame(frame).image, (frame - prev) as u32);
        TrackStep {
            frame,
            objects,
            start,
            end,
            stats,
        }
    }

    /// Records `step`'s CPU span when telemetry is on, with the scheme's
    /// tracker `confidence` when it keeps one.
    pub fn record_step(&mut self, step: &TrackStep, confidence: Option<f64>) {
        if !self.rec.on() {
            return;
        }
        let mut attrs = vec![
            Attr::u64("frame", step.frame),
            Attr::u64("objects", step.objects as u64),
        ];
        if let Some(c) = confidence {
            attrs.push(Attr::f64("confidence", c));
        }
        if let Some(v) = step.velocity() {
            attrs.push(Attr::f64("velocity", v));
        }
        self.rec.span(
            Track::Cpu,
            SpanKind::TrackerStep,
            "track step".to_string(),
            step.start.as_ms(),
            step.end.as_ms(),
            attrs,
        );
    }

    /// Marks the last cycle's tracker diverged at `at`, raising a CPU-track
    /// [`EventKind::Divergence`] instant the first time.
    pub fn diverge(&mut self, at: SimTime) {
        let Some(cycle) = self.cycles.last_mut() else {
            return;
        };
        if !cycle.diverged && self.rec.on() {
            self.rec.event(
                Track::Cpu,
                EventKind::Divergence,
                "tracker diverged".to_string(),
                at.as_ms(),
                vec![Attr::u64("cycle", cycle.index as u64)],
            );
        }
        cycle.diverged = true;
    }

    /// Shows `shown` for `frame` from virtual time `display` on.
    pub fn show(&mut self, frame: u64, source: FrameSource, shown: Shown, display: SimTime) {
        if let Some(slot) = self.outputs.get_mut(frame as usize) {
            *slot = Some(FrameOutput {
                frame_index: frame,
                source,
                boxes: shown.boxes,
                confidences: shown.confidences,
                display_ms: display.as_ms(),
            });
        }
    }

    /// Draws `shown` for `frame` on the CPU from `at` and shows it once
    /// drawn. Returns the draw's start and end. The draw costs an overlay
    /// of the boxes; for a frame the camera dropped it costs one redraw of
    /// the held frame.
    pub fn publish(
        &mut self,
        frame: u64,
        source: FrameSource,
        shown: &Shown,
        at: SimTime,
    ) -> (SimTime, SimTime) {
        let cost = SimTime::from_ms(if source == FrameSource::Dropped {
            HELD_FRAME_MS
        } else {
            overlay_ms(shown.boxes.len())
        });
        let (start, end) = self.cpu.schedule(at, cost);
        self.meter.record(Activity::Overlay, cost);
        self.show(frame, source, shown.clone(), end);
        (start, end)
    }

    /// Fills every frame of `gap` without an output with the nearest
    /// earlier output in the gap, or with `shown` (on display from
    /// `display`) before the first one — the paper's rule for skipped
    /// frames. Frames the fault plan dropped inherit the same way but are
    /// flagged [`FrameSource::Dropped`] — inherit-with-flag — and raise a
    /// camera-track [`EventKind::FrameDrop`] instant at the frame's nominal
    /// arrival time.
    pub fn hold(&mut self, gap: Range<u64>, shown: &Shown, display: SimTime) {
        let held = SimTime::from_ms(HELD_FRAME_MS);
        let mut last = shown.clone();
        let mut last_display = display;
        for frame in gap {
            if let Some(Some(out)) = self.outputs.get(frame as usize) {
                last = Shown {
                    boxes: out.boxes.clone(),
                    confidences: out.confidences.clone(),
                };
                last_display = SimTime::from_ms(out.display_ms);
                continue;
            }
            let arrive = self.arrival(frame);
            self.meter.record(Activity::Overlay, held);
            let source = if self.dropped(frame) {
                if self.rec.on() {
                    self.rec.event(
                        Track::Camera,
                        EventKind::FrameDrop,
                        "frame dropped".to_string(),
                        arrive.as_ms(),
                        vec![Attr::u64("frame", frame)],
                    );
                }
                FrameSource::Dropped
            } else {
                FrameSource::Held
            };
            self.show(frame, source, last.clone(), arrive.max(last_display) + held);
        }
    }

    /// Logs a detection cycle of `frame` at `setting` that ran on the GPU
    /// from `start` to `end`. The scheme fills in the rest of the record
    /// through [`Self::last_cycle`].
    pub fn push_cycle(
        &mut self,
        frame: u64,
        setting: ModelSetting,
        start: SimTime,
        end: SimTime,
        fault: Option<DetectorFault>,
    ) {
        self.cycles.push(CycleRecord {
            index: self.cycles.len() as u32,
            detected_frame: frame,
            setting,
            start_ms: start.as_ms(),
            end_ms: end.as_ms(),
            buffered: 0,
            tracked: 0,
            velocity: None,
            switched: false,
            fault,
            diverged: false,
        });
    }

    /// The most recently pushed cycle.
    pub fn last_cycle(&mut self) -> Option<&mut CycleRecord> {
        self.cycles.last_mut()
    }

    /// Folds the tracker work since the last fold — deterministic kernel
    /// counts and the kernel buffer reuse rate — into the last detection
    /// span, with the last cycle's buffered and tracked frame counts.
    pub fn fold_kernel_counts(&mut self) {
        if !self.rec.on() {
            return;
        }
        let now = perf::snapshot();
        if let Some(cycle) = self.cycles.last() {
            let mut attrs = kernel_attrs(&now.since(&self.kernel_mark).counts());
            attrs.push(Attr::u64("buffered", cycle.buffered as u64));
            attrs.push(Attr::u64("tracked", cycle.tracked as u64));
            self.rec.annotate_last(Track::Gpu, attrs);
        }
        self.kernel_mark = now;
    }

    /// Assembles the trace named `name`, backfilling any never-written
    /// output (cannot happen in a well-formed run, but keeps the invariant
    /// airtight), then derives the `adavp_pipeline_*` metrics registry from
    /// the finished trace when metrics recording is enabled.
    fn finish(self, name: String) -> ProcessingTrace {
        let mut filled = Vec::with_capacity(self.outputs.len());
        let mut last: Option<FrameOutput> = None;
        for (i, out) in self.outputs.into_iter().enumerate() {
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
            .max(self.gpu.available_at().as_ms())
            .max(self.cpu.available_at().as_ms());
        let mut trace = ProcessingTrace {
            pipeline: name,
            outputs: filled,
            cycles: self.cycles,
            energy: self.meter.breakdown(),
            finished_ms,
            gpu_busy_ms: self.gpu.total_busy().as_ms(),
            cpu_busy_ms: self.cpu.total_busy().as_ms(),
            telemetry: self.rec.finish(),
            metrics: MetricsRegistry::new(),
        };
        if self.metrics.enabled {
            trace.metrics = trace_metrics(&trace);
        }
        trace
    }
}

/// The energy activity of one detection pass at `setting`.
fn detect_activity(setting: ModelSetting) -> Activity {
    Activity::Detect {
        input_size: setting.input_size(),
        tiny: setting == ModelSetting::Tiny320,
    }
}

/// Span attributes for a cycle's deterministic kernel-count delta plus the
/// kernel buffer reuse rate (`scratch_hit_rate`) — the fold of
/// `adavp_vision::perf` into telemetry.
/// Only count fields appear; the wall-clock `*_ns` fields would break the
/// byte-identity contract.
fn kernel_attrs(delta: &KernelCounts) -> Vec<Attr> {
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
