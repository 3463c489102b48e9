//! Simulated DNN object detector for the AdaVP reproduction.
//!
//! The paper runs YOLOv3 (PyTorch, Jetson TX2 GPU) at four runtime-switchable
//! input sizes — 320/416/512/608 — plus YOLOv3-tiny and a 704-input "oracle"
//! whose output serves as pseudo-ground-truth. Since no GPU or weights are
//! available offline, this crate substitutes a *calibrated error model*: the
//! detector perturbs a frame's true object list with size-dependent noise
//! (missed detections, label confusion, localization jitter, false
//! positives) and charges a size-dependent latency, both calibrated to the
//! paper's measurements (Fig. 1: 230–500 ms latency, F1 0.62→0.88; Table II).
//!
//! The pipeline code never looks inside a DNN — it consumes only
//! `(detections, latency)` — so this substitution preserves every behaviour
//! the paper's evaluation exercises (see DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use adavp_video::scenario::Scenario;
//! use adavp_video::clip::VideoClip;
//! use adavp_detector::{SimulatedDetector, DetectorConfig, ModelSetting, Detector};
//!
//! let mut spec = Scenario::Highway.spec();
//! spec.width = 160; spec.height = 96;
//! let clip = VideoClip::generate("d", &spec, 1, 3);
//! let mut det = SimulatedDetector::new(DetectorConfig::default());
//! let out = det.detect(clip.frame(0), ModelSetting::Yolo608);
//! assert!(out.latency_ms > 400.0 && out.latency_ms < 600.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod settings;

pub use model::{
    Detection, DetectionResult, Detector, DetectorConfig, SimulatedDetector, LATENCY_JITTER,
};
pub use settings::ModelSetting;
