//! Video-processing pipelines on the simulated TX2.
//!
//! All pipelines consume a [`VideoClip`] and
//! produce a [`ProcessingTrace`]: which boxes the system displayed for every
//! frame, the detection-cycle log, and the energy spent. Virtual time drives
//! everything — detection latency comes from the detector model, tracker
//! latencies from [`crate::latency`] — so runs
//! are deterministic and much faster than real time.
//!
//! * [`MpdtPipeline`] — the paper's parallel detection+tracking pipeline
//!   (§IV-B). With [`SettingPolicy::Fixed`] it is the MPDT baseline; with
//!   [`SettingPolicy::Adaptive`] it is **AdaVP**.
//! * [`MarlinPipeline`] — the sequential MARLIN baseline (detector idle
//!   while tracking; detection triggered by the content-change detector).
//! * [`DetectorOnlyPipeline`] — "without tracking": detect the newest frame,
//!   hold results for skipped frames.
//! * [`ContinuousPipeline`] — detect *every* frame, ignoring real-time
//!   (the `YOLOv3-320 (7x latency)` columns of Table III).
//! * [`CascadePipeline`] — CaTDet-style cascade: a YOLOv3-tiny proposal
//!   pass every cycle; the full detector refines only low-confidence or
//!   novel regions (region-restricted, proportionally cheaper).
//! * [`CtdPipeline`] — confidence-triggered detection: tracker confidence
//!   decays with drift and feature loss; re-detection fires when it
//!   crosses a threshold instead of on a cadence. It runs the same
//!   sequential loop as MARLIN with a different trigger.
//!
//! Every scheme's loop runs on one private `ClipRun` (`clip_run.rs`). It
//! owns what the schemes share: the virtual GPU and CPU, the energy meter,
//! the telemetry recorder, the fault layer with its degradation rules
//! (`ClipRun::detect`), the per-frame outputs and the cycle log, and the
//! rule for empty clips. Each scheme's module keeps only its own schedule.
//!
//! [`Scheme`] (`scheme.rs`) is the one registry of these schemes: it labels
//! them, parses their `--system` names and builds their pipelines.

mod cascade;
mod clip_run;
mod continuous;
mod ctd;
mod detector_only;
mod marlin;
mod mpdt;
mod scheme;
mod sequential;

pub use cascade::{CascadeConfig, CascadePipeline};
pub use continuous::ContinuousPipeline;
pub use ctd::{ConfidenceDecay, CtdConfig, CtdPipeline};
pub use detector_only::DetectorOnlyPipeline;
pub use marlin::{MarlinConfig, MarlinPipeline};
pub use mpdt::MpdtPipeline;
pub use scheme::Scheme;

use crate::adaptation::AdaptationModel;
use crate::metrics::{MetricsConfig, MetricsRegistry};
use crate::telemetry::{TelemetryConfig, TelemetryLog};
use crate::tracker::TrackerConfig;
use adavp_detector::ModelSetting;
use adavp_metrics::f1::LabeledBox;
use adavp_sim::energy::EnergyBreakdown;
use adavp_sim::fault::FaultPlan;
use adavp_video::clip::VideoClip;

/// How the boxes shown for a frame were produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSource {
    /// Fresh DNN detection of this exact frame.
    Detected,
    /// Optical-flow tracking from an earlier detection.
    Tracked,
    /// Inherited unchanged from the previous processed frame (the frame was
    /// skipped by frame selection, or arrived while the system was busy).
    Held,
    /// The camera never delivered this frame (fault injection); the display
    /// keeps showing the previous output — inherit-with-flag.
    Dropped,
}

/// A fault the detector path hit during one cycle (fault injection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorFault {
    /// Detection completed, but `multiplier ×` slower than modeled.
    Spike {
        /// Latency multiplier applied this cycle.
        multiplier: f64,
    },
    /// Detection exceeded the degradation budget and was abandoned; the
    /// cycle published tracker/inherited results instead.
    Timeout {
        /// Latency multiplier that pushed the cycle over budget.
        multiplier: f64,
    },
    /// One or more attempts failed but a retry eventually succeeded.
    Retried {
        /// Total attempts made (≥ 2).
        attempts: u32,
    },
    /// Every attempt failed; the cycle degraded to tracker/inherited
    /// results.
    Failed {
        /// Total attempts made (retry budget exhausted).
        attempts: u32,
    },
}

/// What the system displayed for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutput {
    /// Frame index within the clip.
    pub frame_index: u64,
    /// How the boxes were produced.
    pub source: FrameSource,
    /// The displayed boxes.
    pub boxes: Vec<LabeledBox>,
    /// Per-box detector confidence, index-aligned with
    /// [`boxes`](Self::boxes). Tracked boxes carry the confidence of the
    /// detection that calibrated them; held/dropped frames inherit the
    /// previous output's values unchanged.
    pub confidences: Vec<f32>,
    /// Virtual time at which the overlaid frame appeared on screen (ms).
    pub display_ms: f64,
}

/// One detection cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Cycle number (0-based).
    pub index: u32,
    /// Frame the detector processed this cycle.
    pub detected_frame: u64,
    /// Model setting used.
    pub setting: ModelSetting,
    /// Detection start (virtual ms).
    pub start_ms: f64,
    /// Detection completion (virtual ms).
    pub end_ms: f64,
    /// Frames accumulated in the buffer for the tracker this cycle.
    pub buffered: u32,
    /// Frames the tracker actually processed before cancellation.
    pub tracked: u32,
    /// Mean content-change velocity measured this cycle (px/frame).
    pub velocity: Option<f64>,
    /// Whether the setting changed relative to the previous cycle.
    pub switched: bool,
    /// Detector-path fault hit this cycle, if any (fault injection).
    pub fault: Option<DetectorFault>,
    /// Whether the tracker diverged during this cycle (fault injection).
    pub diverged: bool,
}

/// Full record of one pipeline run over one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingTrace {
    /// Name of the pipeline that produced the trace.
    pub pipeline: String,
    /// Per-frame outputs, index-aligned with the clip.
    pub outputs: Vec<FrameOutput>,
    /// Detection-cycle log.
    pub cycles: Vec<CycleRecord>,
    /// Energy spent (above idle), per rail.
    pub energy: EnergyBreakdown,
    /// Virtual time at which the last frame's processing finished (ms).
    pub finished_ms: f64,
    /// Total GPU busy time (ms).
    pub gpu_busy_ms: f64,
    /// Total CPU busy time (ms).
    pub cpu_busy_ms: f64,
    /// Sim-time span/event log recorded during the run. Empty unless
    /// [`PipelineConfig::telemetry`] enabled recording.
    pub telemetry: TelemetryLog,
    /// Metrics registry populated from the finished trace. Empty unless
    /// [`PipelineConfig::metrics`] enabled recording; never feeds back into
    /// any pipeline decision.
    pub metrics: MetricsRegistry,
}

impl ProcessingTrace {
    /// Number of setting switches across the run.
    pub fn switch_count(&self) -> usize {
        self.cycles.iter().filter(|c| c.switched).count()
    }

    /// Ratio of processing time to video duration (the "7x latency" figures
    /// of Table III). 1.0 ≈ real time.
    pub fn latency_multiplier(&self, clip: &VideoClip) -> f64 {
        let d = clip.duration_ms();
        if d <= 0.0 {
            return 0.0;
        }
        self.finished_ms / d
    }

    /// Fraction of frames by source. The four fractions sum to 1 whenever
    /// the trace has outputs (every frame has exactly one source).
    pub fn source_fractions(&self) -> SourceFractions {
        let n = self.outputs.len().max(1) as f64;
        let count =
            |s: FrameSource| self.outputs.iter().filter(|o| o.source == s).count() as f64 / n;
        SourceFractions {
            detected: count(FrameSource::Detected),
            tracked: count(FrameSource::Tracked),
            held: count(FrameSource::Held),
            dropped: count(FrameSource::Dropped),
        }
    }

    /// Number of cycles that hit a detector fault.
    pub fn fault_count(&self) -> usize {
        self.cycles.iter().filter(|c| c.fault.is_some()).count()
    }

    /// Number of cycles whose detection degraded (timed out or exhausted
    /// its retries) — the cycles that published tracker/inherited results.
    pub fn degraded_cycle_count(&self) -> usize {
        self.cycles
            .iter()
            .filter(|c| {
                matches!(
                    c.fault,
                    Some(DetectorFault::Timeout { .. }) | Some(DetectorFault::Failed { .. })
                )
            })
            .count()
    }

    /// Number of cycles in which the tracker diverged.
    pub fn diverged_cycle_count(&self) -> usize {
        self.cycles.iter().filter(|c| c.diverged).count()
    }
}

/// Per-source fractions of a trace's frame outputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SourceFractions {
    /// Fraction of frames displayed from a fresh detection.
    pub detected: f64,
    /// Fraction of frames displayed from optical-flow tracking.
    pub tracked: f64,
    /// Fraction of frames that inherited the previous output.
    pub held: f64,
    /// Fraction of frames the camera dropped (fault injection).
    pub dropped: f64,
}

impl SourceFractions {
    /// Sum of all fractions — 1.0 for any non-empty trace.
    pub fn sum(&self) -> f64 {
        self.detected + self.tracked + self.held + self.dropped
    }
}

/// A video-processing system under evaluation.
pub trait VideoProcessor {
    /// Runs the pipeline over `clip` and returns the full trace.
    fn process(&mut self, clip: &VideoClip) -> ProcessingTrace;

    /// Human-readable name (used in experiment tables).
    fn name(&self) -> String;
}

/// How the pipeline chooses the DNN setting each cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum SettingPolicy {
    /// Always the same setting (MPDT / MARLIN baselines).
    Fixed(ModelSetting),
    /// AdaVP's velocity-threshold adaptation.
    Adaptive(AdaptationModel),
    /// Content-blind round-robin over the adaptive settings — an ablation
    /// that switches as often as AdaVP but ignores the measured velocity.
    Cycling,
}

impl SettingPolicy {
    /// The setting for the first cycle.
    pub fn initial_setting(&self) -> ModelSetting {
        match self {
            SettingPolicy::Fixed(s) => *s,
            // AdaVP starts at 512 (the best fixed setting) until the first
            // velocity measurement arrives.
            SettingPolicy::Adaptive(_) => ModelSetting::Yolo512,
            SettingPolicy::Cycling => ModelSetting::Yolo512,
        }
    }

    /// The setting for the next cycle given the measured velocity.
    ///
    /// `velocity: None` means no velocity measurement exists — the first
    /// decision after the bootstrap cycle, a cycle whose gap held no
    /// trackable frames, or a cycle whose tracking was cancelled before any
    /// step completed. The chosen behavior per policy:
    ///
    /// * `Fixed` — the fixed setting, always (velocity is irrelevant).
    /// * `Adaptive` — **keep the current setting**. Adaptation only moves
    ///   on evidence; no measurement is not evidence of slow content.
    /// * `Cycling` — rotate regardless (the ablation is content-blind by
    ///   design).
    ///
    /// Degraded-mode interaction: pipelines pass this method's answer
    /// through [`step_down`], which steps it one notch
    /// lighter after a degraded cycle — degradation composes *after* the
    /// policy and lasts one cycle, because the policy re-decides from
    /// scratch next cycle.
    pub fn next_setting(&self, current: ModelSetting, velocity: Option<f64>) -> ModelSetting {
        match self {
            SettingPolicy::Fixed(s) => *s,
            SettingPolicy::Adaptive(m) => match velocity {
                Some(v) => m.decide(current, v),
                None => current,
            },
            SettingPolicy::Cycling => {
                let i = current.adaptive_index().unwrap_or(2);
                let rotation = ModelSetting::ADAPTIVE.iter().cycle();
                rotation.skip(i + 1).copied().next().unwrap_or(current)
            }
        }
    }
}

// How a pipeline degrades when the fault layer bites. These are constants,
// not settings: the timeout budget sits far above the worst happy-path
// detection latency (~850 ms for YOLOv3-704 with full jitter), so it can
// only fire under injected latency spikes, and a fault-free run behaves
// exactly like a pipeline without the fault layer.

/// Budget a detection attempt is abandoned at when its (faulted) latency
/// would exceed it: the GPU is released, the cycle publishes
/// tracker/inherited results, and the next cycle steps one setting lighter
/// ([`step_down`]).
pub const DETECTOR_TIMEOUT_MS: f64 = 2000.0;

/// Retries after a failed detection attempt (total attempts =
/// `MAX_DETECTOR_RETRIES + 1`). Each attempt burns GPU time; when all fail
/// the cycle degrades like a timeout.
pub const MAX_DETECTOR_RETRIES: u32 = 2;

/// Backoff unit before a retry: retry `k` (1-based) waits
/// `k × RETRY_BACKOFF_MS`.
pub const RETRY_BACKOFF_MS: f64 = 40.0;

/// The budget an attempt lasting `ms` is abandoned at, when `ms` exceeds
/// [`DETECTOR_TIMEOUT_MS`].
pub fn timeout(ms: f64) -> Option<f64> {
    (ms > DETECTOR_TIMEOUT_MS).then_some(DETECTOR_TIMEOUT_MS)
}

/// Linear backoff before retrying failed attempt `attempt` (0-based):
/// retry `k` waits `k × RETRY_BACKOFF_MS`.
pub fn retry_backoff(attempt: u32) -> f64 {
    RETRY_BACKOFF_MS * (attempt + 1) as f64
}

/// The setting to run after a cycle: `next` (the setting policy's answer),
/// one notch lighter when the cycle `degraded` (timed out or exhausted its
/// retries). The step is transient: the setting policy re-decides on the
/// following cycle.
pub fn step_down(next: ModelSetting, degraded: bool) -> ModelSetting {
    if degraded {
        next.lighter()
    } else {
        next
    }
}

/// Shared pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Object-tracker configuration.
    pub tracker: TrackerConfig,
    /// Whether the tracking-frame selector adapts its fraction `p` from the
    /// previous cycle (the paper's scheme). When `false` the tracker always
    /// plans to track every buffered frame and relies on cancellation — the
    /// ablation of §IV-C's selection scheme.
    pub adaptive_selection: bool,
    /// Fault schedule to run against. [`FaultPlan::none`] (the default)
    /// injects nothing and keeps every pipeline bit-identical to the
    /// happy-path behavior.
    pub faults: FaultPlan,
    /// Telemetry recording. Disabled by default; when enabled, every
    /// pipeline emits sim-time spans and events through a per-run
    /// [`crate::telemetry::Recorder`] into [`ProcessingTrace::telemetry`].
    pub telemetry: TelemetryConfig,
    /// Metrics recording. Disabled by default; when enabled, the finished
    /// trace carries an [`crate::metrics::MetricsRegistry`] of
    /// `adavp_pipeline_*` counters, gauges, and latency histograms derived
    /// purely from the trace — recording cannot perturb the run.
    pub metrics: MetricsConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            tracker: TrackerConfig::default(),
            adaptive_selection: true,
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::default(),
            metrics: MetricsConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_policy_fixed() {
        let p = SettingPolicy::Fixed(ModelSetting::Yolo416);
        assert_eq!(p.initial_setting(), ModelSetting::Yolo416);
        assert_eq!(
            p.next_setting(ModelSetting::Yolo416, Some(100.0)),
            ModelSetting::Yolo416
        );
    }

    #[test]
    fn setting_policy_adaptive() {
        let p = SettingPolicy::Adaptive(AdaptationModel::uniform([1.0, 2.0, 3.0]));
        assert_eq!(p.initial_setting(), ModelSetting::Yolo512);
        assert_eq!(
            p.next_setting(ModelSetting::Yolo512, Some(0.5)),
            ModelSetting::Yolo608
        );
        // No velocity yet: stay put.
        assert_eq!(
            p.next_setting(ModelSetting::Yolo512, None),
            ModelSetting::Yolo512
        );
    }

    #[test]
    fn setting_policy_cycling_rotates() {
        let p = SettingPolicy::Cycling;
        assert_eq!(p.initial_setting(), ModelSetting::Yolo512);
        let mut s = ModelSetting::Yolo320;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(s);
            s = p.next_setting(s, None);
        }
        assert_eq!(seen.len(), 4, "cycling must visit all adaptive settings");
        // A full rotation returns to the start.
        assert_eq!(s, ModelSetting::Yolo320);
    }

    #[test]
    fn trace_helpers() {
        let mk = |source| FrameOutput {
            frame_index: 0,
            source,
            boxes: vec![],
            confidences: vec![],
            display_ms: 0.0,
        };
        let trace = ProcessingTrace {
            pipeline: "x".into(),
            outputs: vec![
                mk(FrameSource::Detected),
                mk(FrameSource::Tracked),
                mk(FrameSource::Tracked),
                mk(FrameSource::Held),
            ],
            cycles: vec![],
            energy: EnergyBreakdown::default(),
            finished_ms: 0.0,
            gpu_busy_ms: 0.0,
            cpu_busy_ms: 0.0,
            telemetry: TelemetryLog::default(),
            metrics: MetricsRegistry::default(),
        };
        let f = trace.source_fractions();
        assert!((f.detected - 0.25).abs() < 1e-12);
        assert!((f.tracked - 0.5).abs() < 1e-12);
        assert!((f.held - 0.25).abs() < 1e-12);
        assert_eq!(f.dropped, 0.0);
        assert!((f.sum() - 1.0).abs() < 1e-12);
        assert_eq!(trace.switch_count(), 0);
        assert_eq!(trace.fault_count(), 0);
        assert_eq!(trace.degraded_cycle_count(), 0);
        assert_eq!(trace.diverged_cycle_count(), 0);
    }

    #[test]
    fn dropped_frames_counted_separately() {
        let mk = |source| FrameOutput {
            frame_index: 0,
            source,
            boxes: vec![],
            confidences: vec![],
            display_ms: 0.0,
        };
        let trace = ProcessingTrace {
            pipeline: "x".into(),
            outputs: vec![
                mk(FrameSource::Detected),
                mk(FrameSource::Dropped),
                mk(FrameSource::Held),
                mk(FrameSource::Dropped),
            ],
            cycles: vec![],
            energy: EnergyBreakdown::default(),
            finished_ms: 0.0,
            gpu_busy_ms: 0.0,
            cpu_busy_ms: 0.0,
            telemetry: TelemetryLog::default(),
            metrics: MetricsRegistry::default(),
        };
        let f = trace.source_fractions();
        assert!((f.dropped - 0.5).abs() < 1e-12);
        assert!((f.sum() - 1.0).abs() < 1e-12);
    }

    // Satellite: the velocity-None path of every policy, pinned explicitly.
    // The documented behavior: Fixed ignores velocity entirely, Adaptive
    // holds its current setting until a measurement exists, Cycling rotates
    // regardless.
    #[test]
    fn next_setting_without_velocity_is_stable_for_adaptive() {
        let p = SettingPolicy::Adaptive(AdaptationModel::uniform([1.0, 2.0, 3.0]));
        for s in ModelSetting::ADAPTIVE {
            assert_eq!(p.next_setting(s, None), s, "Adaptive must hold {s}");
        }
        // The first post-bootstrap decision therefore keeps the initial 512.
        let first = p.next_setting(p.initial_setting(), None);
        assert_eq!(first, ModelSetting::Yolo512);
    }

    #[test]
    fn next_setting_without_velocity_fixed_and_cycling() {
        let f = SettingPolicy::Fixed(ModelSetting::Yolo320);
        assert_eq!(
            f.next_setting(ModelSetting::Yolo608, None),
            ModelSetting::Yolo320
        );
        let c = SettingPolicy::Cycling;
        assert_ne!(
            c.next_setting(ModelSetting::Yolo512, None),
            ModelSetting::Yolo512,
            "Cycling rotates even with no velocity"
        );
    }

    #[test]
    fn degraded_step_down_composes_after_the_policy() {
        // The documented degraded-mode interaction: pipelines apply
        // `lighter()` to the policy's answer. For Adaptive with no
        // velocity that means one notch below the held setting, and the
        // effect is transient because the policy re-decides next cycle
        // from the stepped-down current.
        let p = SettingPolicy::Adaptive(AdaptationModel::uniform([1.0, 2.0, 3.0]));
        let stepped = step_down(p.next_setting(ModelSetting::Yolo512, None), true);
        assert_eq!(stepped, ModelSetting::Yolo416);
        // Saturates at the lightest adaptive setting.
        let floor = step_down(p.next_setting(ModelSetting::Yolo320, None), true);
        assert_eq!(floor, ModelSetting::Yolo320);
    }

    #[test]
    fn default_degradation_cannot_fire_on_the_happy_path() {
        // Worst happy-path latency: YOLOv3-704 at max jitter ≈ 850 ms.
        assert_eq!(timeout(900.0), None, "the budget could clip real latencies");
        assert_eq!(timeout(2500.0), Some(DETECTOR_TIMEOUT_MS));
        let cfg = PipelineConfig::default();
        assert!(cfg.faults.is_none(), "default config must inject nothing");
    }
}
