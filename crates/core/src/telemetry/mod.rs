//! Unified, deterministic telemetry: sim-time span tracing, latency
//! histograms, and Chrome-trace export.
//!
//! The paper's whole evaluation is a story about *where time goes* —
//! detection latency per YOLO setting (Fig. 1), tracker lag (Fig. 5),
//! switch gaps (Fig. 7). This module makes that observable in one place:
//!
//! * A [`Recorder`] captures typed **spans** and **events** during a
//!   pipeline run — detection cycles, tracker steps, adaptation decisions,
//!   faults, frame drops — on one [`Track`] per modeled resource (GPU
//!   detector, CPU tracker, camera).
//! * [`histogram::Histogram`] turns traces into fixed-bucket latency and
//!   velocity distributions with **exact** p50/p90/p99.
//! * [`chrome`] exports logs as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`); [`report`] renders a compact text
//!   flamegraph-style breakdown.
//!
//! # Determinism contract
//!
//! Every timestamp is **virtual sim time** (the same clock the pipelines
//! schedule on) and every recorded attribute is either sim-derived or a
//! deterministic kernel *count* ([`adavp_vision::perf::KernelCounts`] —
//! never the wall-clock `*_ns` fields). One recorder lives inside one
//! pipeline run, so no cross-thread interleaving can reorder it: the log —
//! and its Chrome-trace serialization — is byte-identical whether the
//! harness runs with `--jobs 1` or `--jobs N`, and from run to run.
//!
//! Telemetry is off by default ([`TelemetryConfig::default`]); a disabled
//! recorder records nothing and leaves [`ProcessingTrace`] equality with
//! pre-telemetry behavior intact.
//!
//! # Example
//!
//! ```
//! use adavp_core::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy, VideoProcessor};
//! use adavp_core::telemetry::{self, TelemetryConfig, Track};
//! use adavp_detector::{DetectorConfig, ModelSetting, SimulatedDetector};
//! use adavp_video::{clip::VideoClip, scenario::Scenario};
//!
//! let mut spec = Scenario::Highway.spec();
//! spec.width = 160; spec.height = 96;
//! let clip = VideoClip::generate("demo", &spec, 7, 40);
//! let mut cfg = PipelineConfig::default();
//! cfg.telemetry = TelemetryConfig::enabled();
//! let mut p = MpdtPipeline::new(
//!     SimulatedDetector::new(DetectorConfig::default()),
//!     SettingPolicy::Fixed(ModelSetting::Yolo512),
//!     cfg,
//! );
//! let trace = p.process(&clip);
//! assert!(trace.telemetry.spans.iter().any(|s| s.track == Track::Gpu));
//! let json = telemetry::chrome::chrome_trace_json(&[("demo", &trace.telemetry)]);
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod histogram;
pub mod report;

pub use histogram::{Histogram, Percentiles};

use crate::pipeline::{FrameSource, ProcessingTrace};
use adavp_detector::ModelSetting;

/// A modeled resource that owns a timeline of spans — one Chrome-trace
/// thread per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The GPU running DNN detection.
    Gpu,
    /// The CPU running the tracker (feature extraction, LK steps, overlay).
    Cpu,
    /// The camera delivering (or dropping) frames.
    Camera,
}

impl Track {
    /// All tracks, in fixed display order.
    pub const ALL: [Track; 3] = [Track::Gpu, Track::Cpu, Track::Camera];

    /// Human-readable track label (the Chrome-trace thread name).
    pub fn label(self) -> &'static str {
        match self {
            Track::Gpu => "gpu detector",
            Track::Cpu => "cpu tracker",
            Track::Camera => "camera",
        }
    }

    /// Stable thread id for the Chrome-trace export.
    pub fn tid(self) -> u32 {
        match self {
            Track::Gpu => 0,
            Track::Cpu => 1,
            Track::Camera => 2,
        }
    }
}

/// What kind of work a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One DNN detection cycle on the GPU (first attempt through release).
    Detection,
    /// One tracker step (LK flow + overlay) on the CPU.
    TrackerStep,
    /// Shi-Tomasi feature extraction after a detection re-calibrates.
    FeatureExtraction,
    /// Box overlay/draw of a detection result.
    Overlay,
}

impl SpanKind {
    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Detection => "detection",
            SpanKind::TrackerStep => "tracking",
            SpanKind::FeatureExtraction => "tracking",
            SpanKind::Overlay => "display",
        }
    }
}

/// What kind of instant an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The camera delivered the frame a detection cycle consumed.
    FrameArrival,
    /// The camera never delivered a frame (fault injection).
    FrameDrop,
    /// The adaptation policy switched the model setting.
    SettingSwitch,
    /// A detector-path fault (spike, timeout, retry, failure).
    Fault,
    /// The tracker diverged mid-cycle (fault injection).
    Divergence,
    /// MARLIN's content-change detector fired.
    Trigger,
    /// A stream's SLO error-budget burn rate crossed an alert threshold
    /// ([`crate::metrics::BURN_ALERT_THRESHOLDS`]).
    SloBurn,
}

impl EventKind {
    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::FrameArrival => "camera",
            EventKind::FrameDrop => "fault",
            EventKind::SettingSwitch => "adaptation",
            EventKind::Fault => "fault",
            EventKind::Divergence => "fault",
            EventKind::Trigger => "adaptation",
            EventKind::SloBurn => "slo",
        }
    }
}

/// A typed attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, indices).
    U64(u64),
    /// Float (ratios, sim-time quantities).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string (setting names, fault kinds).
    Str(String),
}

/// A key/value attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute name (a Chrome-trace `args` key).
    pub key: String,
    /// Attribute value.
    pub value: AttrValue,
}

impl Attr {
    /// An unsigned-integer attribute.
    pub fn u64(key: &str, v: u64) -> Attr {
        Attr {
            key: key.to_string(),
            value: AttrValue::U64(v),
        }
    }

    /// A float attribute.
    pub fn f64(key: &str, v: f64) -> Attr {
        Attr {
            key: key.to_string(),
            value: AttrValue::F64(v),
        }
    }

    /// A boolean attribute.
    pub fn bool(key: &str, v: bool) -> Attr {
        Attr {
            key: key.to_string(),
            value: AttrValue::Bool(v),
        }
    }

    /// A string attribute.
    pub fn str(key: &str, v: &str) -> Attr {
        Attr {
            key: key.to_string(),
            value: AttrValue::Str(v.to_string()),
        }
    }
}

/// A duration of work on one track, in virtual sim time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Resource the work ran on.
    pub track: Track,
    /// Work type.
    pub kind: SpanKind,
    /// Display name (e.g. `detect YOLOv3-512`).
    pub name: String,
    /// Start, virtual ms.
    pub start_ms: f64,
    /// End, virtual ms (≥ `start_ms`).
    pub end_ms: f64,
    /// Typed attributes.
    pub attrs: Vec<Attr>,
}

impl Span {
    /// Span duration in virtual ms.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// An instant on one track, in virtual sim time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Resource the instant belongs to.
    pub track: Track,
    /// Instant type.
    pub kind: EventKind,
    /// Display name (e.g. `switch`).
    pub name: String,
    /// Timestamp, virtual ms.
    pub at_ms: f64,
    /// Typed attributes.
    pub attrs: Vec<Attr>,
}

/// Everything one pipeline run recorded. Attached to
/// [`ProcessingTrace::telemetry`]; empty when telemetry was disabled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryLog {
    /// Recorded spans, in emission order (deterministic: one recorder per
    /// single-threaded pipeline run, sim-time stamped).
    pub spans: Vec<Span>,
    /// Recorded instant events, in emission order.
    pub events: Vec<Event>,
}

impl TelemetryLog {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// Spans on one track, in order.
    pub fn spans_on(&self, track: Track) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.track == track)
    }
}

/// Telemetry switch carried by `PipelineConfig` — the recorder hook every
/// pipeline emits through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Master switch. Off (the default) records nothing and keeps traces
    /// bit-identical to pre-telemetry behavior. On records cycle spans,
    /// per-tracker-step spans and events.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Full recording (cycle spans + step spans + events).
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// Captures spans and events during one pipeline run.
///
/// Construct from the pipeline's [`TelemetryConfig`]; a disabled recorder
/// is a zero-cost no-op (call sites guard attribute construction on
/// [`Recorder::on`]). Consume with [`Recorder::finish`].
#[derive(Debug, Clone)]
pub struct Recorder {
    config: TelemetryConfig,
    log: TelemetryLog,
}

impl Recorder {
    /// A recorder honoring `config`.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            config,
            log: TelemetryLog::default(),
        }
    }

    /// A disabled recorder (records nothing).
    pub fn off() -> Self {
        Self::new(TelemetryConfig::default())
    }

    /// Whether recording is enabled at all.
    pub fn on(&self) -> bool {
        self.config.enabled
    }

    /// Records a span (no-op when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        track: Track,
        kind: SpanKind,
        name: String,
        start_ms: f64,
        end_ms: f64,
        attrs: Vec<Attr>,
    ) {
        if !self.config.enabled {
            return;
        }
        self.log.spans.push(Span {
            track,
            kind,
            name,
            start_ms,
            end_ms,
            attrs,
        });
    }

    /// Records an instant event (no-op when disabled).
    pub fn event(
        &mut self,
        track: Track,
        kind: EventKind,
        name: String,
        at_ms: f64,
        attrs: Vec<Attr>,
    ) {
        if !self.config.enabled {
            return;
        }
        self.log.events.push(Event {
            track,
            kind,
            name,
            at_ms,
            attrs,
        });
    }

    /// Appends attributes to the most recent span on `track` (no-op when
    /// disabled or no span exists there yet). Pipelines use this to fold
    /// kernel-count deltas — known only after the cycle's tracking phase —
    /// into the detection span emitted at cycle start.
    pub fn annotate_last(&mut self, track: Track, attrs: Vec<Attr>) {
        if !self.config.enabled {
            return;
        }
        if let Some(s) = self.log.spans.iter_mut().rev().find(|s| s.track == track) {
            s.attrs.extend(attrs);
        }
    }

    /// Consumes the recorder, yielding the log.
    pub fn finish(self) -> TelemetryLog {
        self.log
    }
}

/// Latency/velocity distributions of one or more pipeline runs, broken
/// down the way the evaluation figures need them.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDistributions {
    /// Detection-cycle duration (ms), all cycles.
    pub cycle_ms: Histogram,
    /// Detection-cycle duration (ms) per model setting, in
    /// [`ModelSetting::ALL`] order.
    pub cycle_ms_by_setting: Vec<(ModelSetting, Histogram)>,
    /// Measured content-change velocity (px/frame), over cycles that
    /// measured one.
    pub velocity: Histogram,
    /// Display pacing (ms between consecutive displayed frames), split by
    /// the later frame's [`FrameSource`].
    pub display_gap_ms_by_source: Vec<(FrameSource, Histogram)>,
}

/// The fixed source order for [`TraceDistributions::display_gap_ms_by_source`].
pub const SOURCE_ORDER: [FrameSource; 4] = [
    FrameSource::Detected,
    FrameSource::Tracked,
    FrameSource::Held,
    FrameSource::Dropped,
];

impl TraceDistributions {
    /// Empty distributions (standard buckets).
    pub fn new() -> Self {
        Self {
            cycle_ms: Histogram::latency_ms(),
            cycle_ms_by_setting: ModelSetting::ALL
                .iter()
                .map(|&s| (s, Histogram::latency_ms()))
                .collect(),
            velocity: Histogram::velocity(),
            display_gap_ms_by_source: SOURCE_ORDER
                .iter()
                .map(|&s| (s, Histogram::latency_ms()))
                .collect(),
        }
    }

    /// Folds one trace in.
    pub fn add_trace(&mut self, trace: &ProcessingTrace) {
        for cy in &trace.cycles {
            let d = cy.end_ms - cy.start_ms;
            self.cycle_ms.record(d);
            if let Some(slot) = self
                .cycle_ms_by_setting
                .iter_mut()
                .find(|(s, _)| *s == cy.setting)
            {
                slot.1.record(d);
            }
            if let Some(v) = cy.velocity {
                self.velocity.record(v);
            }
        }
        for pair in trace.outputs.windows(2) {
            let gap = pair[1].display_ms - pair[0].display_ms;
            if let Some(slot) = self
                .display_gap_ms_by_source
                .iter_mut()
                .find(|(s, _)| *s == pair[1].source)
            {
                slot.1.record(gap);
            }
        }
    }

    /// Folds another set of distributions in (merge order cannot change
    /// the result's percentiles or counts).
    pub fn merge(&mut self, other: &TraceDistributions) {
        self.cycle_ms.merge(&other.cycle_ms);
        for (a, b) in self
            .cycle_ms_by_setting
            .iter_mut()
            .zip(&other.cycle_ms_by_setting)
        {
            debug_assert_eq!(a.0, b.0);
            a.1.merge(&b.1);
        }
        self.velocity.merge(&other.velocity);
        for (a, b) in self
            .display_gap_ms_by_source
            .iter_mut()
            .zip(&other.display_gap_ms_by_source)
        {
            debug_assert_eq!(a.0, b.0);
            a.1.merge(&b.1);
        }
    }
}

impl Default for TraceDistributions {
    fn default() -> Self {
        Self::new()
    }
}

/// Distributions over a batch of traces.
pub fn distributions<'a>(
    traces: impl IntoIterator<Item = &'a ProcessingTrace>,
) -> TraceDistributions {
    let mut d = TraceDistributions::new();
    for t in traces {
        d.add_trace(t);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy, VideoProcessor};
    use adavp_detector::{DetectorConfig, SimulatedDetector};
    use adavp_video::clip::VideoClip;
    use adavp_video::scenario::Scenario;

    fn run(telemetry: TelemetryConfig) -> ProcessingTrace {
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        let clip = VideoClip::generate("telemetry", &spec, 23, 70);
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(adavp_detector::ModelSetting::Yolo512),
            PipelineConfig {
                telemetry,
                ..PipelineConfig::default()
            },
        );
        p.process(&clip)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::off();
        r.span(
            Track::Gpu,
            SpanKind::Detection,
            "d".into(),
            0.0,
            1.0,
            vec![],
        );
        r.event(
            Track::Cpu,
            EventKind::SettingSwitch,
            "s".into(),
            0.0,
            vec![],
        );
        assert!(r.finish().is_empty());
    }

    #[test]
    fn disabled_pipeline_telemetry_is_empty() {
        let trace = run(TelemetryConfig::default());
        assert!(trace.telemetry.is_empty());
    }

    #[test]
    fn enabled_pipeline_populates_all_tracks() {
        let trace = run(TelemetryConfig::enabled());
        assert!(
            trace.telemetry.spans_on(Track::Gpu).count() >= 2,
            "every detection cycle must produce a GPU span"
        );
        assert!(
            trace.telemetry.spans_on(Track::Cpu).count() >= 1,
            "tracker steps must produce CPU spans"
        );
        assert!(
            trace
                .telemetry
                .events
                .iter()
                .any(|e| e.track == Track::Camera),
            "camera frame arrivals must be recorded"
        );
        // GPU spans align with the cycle log, in sim time.
        let gpu: Vec<_> = trace.telemetry.spans_on(Track::Gpu).collect();
        assert_eq!(gpu.len(), trace.cycles.len());
        for (span, cy) in gpu.iter().zip(&trace.cycles) {
            assert_eq!(span.start_ms, cy.start_ms);
            assert_eq!(span.end_ms, cy.end_ms);
            assert_eq!(span.kind, SpanKind::Detection);
        }
    }

    #[test]
    fn telemetry_is_deterministic() {
        let a = run(TelemetryConfig::enabled());
        let b = run(TelemetryConfig::enabled());
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn distributions_from_trace() {
        let trace = run(TelemetryConfig::default());
        let d = distributions([&trace]);
        assert_eq!(d.cycle_ms.count() as usize, trace.cycles.len());
        let by_512 = d
            .cycle_ms_by_setting
            .iter()
            .find(|(s, _)| *s == ModelSetting::Yolo512)
            .unwrap();
        assert_eq!(by_512.1.count(), d.cycle_ms.count(), "fixed-512 run");
        assert!(d.cycle_ms.percentiles().is_some());
        // Display gaps cover outputs.len()-1 consecutive pairs.
        let gap_total: u64 = d
            .display_gap_ms_by_source
            .iter()
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(gap_total as usize, trace.outputs.len() - 1);
    }
}
