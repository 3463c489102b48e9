//! Evaluation metrics for the AdaVP reproduction.
//!
//! Implements the paper's accuracy methodology (§III-A, §VI-A):
//!
//! * a detection is a **true positive** when its label matches a
//!   ground-truth object and the boxes overlap with IoU ≥ a threshold
//!   (0.5 by default) — [`matching`] provides greedy and Hungarian
//!   (optimal) assignment;
//! * **F1 score** per frame is the harmonic mean of precision and recall —
//!   [`f1`];
//! * **video accuracy** is the fraction of frames with F1 above a threshold
//!   (0.7 by default), and dataset accuracy is the mean over videos —
//!   [`video`];
//! * [`stats`] provides the summary statistics (means, empirical CDFs) the
//!   figures report. Latency distributions and percentiles use the
//!   telemetry histogram in `adavp-core`.
//!
//! # Example
//!
//! ```
//! use adavp_metrics::f1::{evaluate_frame, LabeledBox};
//! use adavp_metrics::matching::Matcher;
//! use adavp_vision::geometry::BoundingBox;
//! use adavp_video::object::ObjectClass;
//!
//! let gt = vec![LabeledBox::new(ObjectClass::Car, BoundingBox::new(0.0, 0.0, 10.0, 10.0))];
//! let pred = gt.clone();
//! let score = evaluate_frame(&pred, &gt, 0.5, Matcher::Hungarian);
//! assert_eq!(score.f1, 1.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod f1;
pub mod matching;
pub mod stats;
pub mod video;

pub use f1::{evaluate_frame, FrameScore, LabeledBox};
pub use matching::{match_boxes, MatchOutcome, Matcher};
pub use video::{dataset_accuracy, video_accuracy};
