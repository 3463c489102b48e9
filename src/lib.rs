//! # AdaVP — continuous, real-time object detection without offloading
//!
//! A Rust reproduction of *"Continuous, Real-Time Object Detection on Mobile
//! Devices without Offloading"* (Liu, Ding, Du — ICDCS 2020): the **MPDT**
//! parallel detection + tracking pipeline and the **AdaVP** DNN-model-setting
//! adaptation system, together with every substrate the paper's evaluation
//! needs (synthetic video worlds, a calibrated YOLOv3 latency/accuracy
//! model, real Shi-Tomasi + Lucas-Kanade tracking, a TX2-style platform and
//! energy simulator, and the full metric stack).
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`vision`] | `adavp-vision` | images, pyramids, Shi-Tomasi corners, pyramidal LK flow |
//! | [`video`] | `adavp-video` | world simulator, 14 scenario presets, rasterizer, clips, datasets |
//! | [`detector`] | `adavp-detector` | simulated YOLOv3 model settings (tiny/320/416/512/608/704) |
//! | [`metrics`] | `adavp-metrics` | box matching, F1, per-video accuracy, stats |
//! | [`sim`] | `adavp-sim` | virtual time, event queue, resources, energy meter |
//! | [`core`] | `adavp-core` | object tracker, MPDT/AdaVP/MARLIN/baseline pipelines, adaptation, threaded runtime, [`core::telemetry`] (span tracing, histograms, Chrome trace export) |
//!
//! # Quickstart
//!
//! ```
//! use adavp::core::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy, VideoProcessor};
//! use adavp::core::adaptation::AdaptationModel;
//! use adavp::core::eval::{evaluate_on_clip, EvalConfig};
//! use adavp::detector::{DetectorConfig, SimulatedDetector};
//! use adavp::video::{clip::VideoClip, scenario::Scenario};
//!
//! // Generate a synthetic highway video...
//! let mut spec = Scenario::Highway.spec();
//! spec.width = 160; spec.height = 96;
//! let clip = VideoClip::generate("demo", &spec, 42, 45);
//!
//! // ...and run AdaVP over it.
//! let mut adavp = MpdtPipeline::new(
//!     SimulatedDetector::new(DetectorConfig::default()),
//!     SettingPolicy::Adaptive(AdaptationModel::default_model()),
//!     PipelineConfig::default(),
//! );
//! let result = evaluate_on_clip(&mut adavp, &clip, &EvalConfig::default());
//! assert_eq!(result.frame_f1.len(), clip.len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

pub use adavp_core as core;
pub use adavp_detector as detector;
pub use adavp_metrics as metrics;
pub use adavp_sim as sim;
pub use adavp_video as video;
pub use adavp_vision as vision;
