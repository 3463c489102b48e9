//! AdaVP core: continuous, real-time object detection and tracking on
//! mobile devices without offloading (ICDCS 2020 reproduction).
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates:
//!
//! * [`tracker`] — the object tracker (§IV-C): Shi-Tomasi features inside
//!   detected boxes, pyramidal Lucas-Kanade flow, per-box motion vectors,
//!   and the tracking-frame-selection scheme (`p = h/f`).
//! * [`velocity`] — the video-content change-rate metric (Eq. 3): mean
//!   per-frame motion of tracked features.
//! * [`adaptation`] — the DNN-model-setting adaptation module (§IV-D):
//!   per-setting velocity thresholds, learned from training videos by an
//!   ordered-class threshold learner.
//! * [`pipeline`] — the processing pipelines, run on a deterministic
//!   event-driven simulation of the TX2's GPU+CPU:
//!   [`pipeline::MpdtPipeline`] (parallel detection + tracking, fixed or
//!   adaptive setting — the adaptive instance *is* AdaVP),
//!   [`pipeline::MarlinPipeline`] (sequential baseline),
//!   [`pipeline::DetectorOnlyPipeline`] ("without tracking"),
//!   [`pipeline::ContinuousPipeline`] (detect-every-frame, for the energy
//!   table).
//! * [`latency`] — the Table II latency model for tracker-side costs.
//! * [`eval`] — trace scoring: per-frame F1 against true or pseudo (oracle
//!   YOLOv3-704) ground truth, video/dataset accuracy.
//! * [`analysis`] — trace statistics: cycle summaries, switch-gap samples
//!   (Fig. 7), setting-usage shares (Fig. 8), per-source F1 split.
//! * [`export`] — trace serialization (JSON / per-frame CSV) for external
//!   plotting tools.
//! * [`telemetry`] — deterministic sim-time span tracing (GPU / CPU /
//!   camera tracks), exact-percentile latency histograms, Chrome
//!   trace-event export, and text flame reports.
//! * [`metrics`] — deterministic sim-time metrics: a typed registry of
//!   counters/gauges/mergeable histograms with static label sets, sampled
//!   time-series, SLO error budgets with burn-rate alerts, Prometheus
//!   text exposition, and a JSON snapshot.
//! * [`serve`] — multi-stream fleet serving: the pipeline loop refactored
//!   into a poll/step state machine, a batching detection scheduler over a
//!   shared GPU pool, SLO-class admission control, and backpressure via
//!   the degradation step-down rule.
//!
//! # Example: run AdaVP on a clip
//!
//! ```
//! use adavp_core::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy, VideoProcessor};
//! use adavp_core::adaptation::AdaptationModel;
//! use adavp_detector::{DetectorConfig, SimulatedDetector};
//! use adavp_video::{clip::VideoClip, scenario::Scenario};
//!
//! let mut spec = Scenario::Highway.spec();
//! spec.width = 160; spec.height = 96;
//! let clip = VideoClip::generate("demo", &spec, 7, 40);
//! let detector = SimulatedDetector::new(DetectorConfig::default());
//! let policy = SettingPolicy::Adaptive(AdaptationModel::default_model());
//! let mut adavp = MpdtPipeline::new(detector, policy, PipelineConfig::default());
//! let trace = adavp.process(&clip);
//! assert_eq!(trace.outputs.len(), clip.len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptation;
pub mod analysis;
pub mod eval;
pub mod export;
pub mod latency;
pub mod metrics;
pub mod pipeline;
pub mod serve;
pub mod telemetry;
pub mod tracker;
pub mod velocity;

pub use pipeline::{
    ContinuousPipeline, DetectorOnlyPipeline, FrameOutput, FrameSource, MarlinPipeline,
    MpdtPipeline, PipelineConfig, ProcessingTrace, SettingPolicy, VideoProcessor,
};
