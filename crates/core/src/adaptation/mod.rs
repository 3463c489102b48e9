//! The DNN-model-setting adaptation module (§IV-D).
//!
//! [`AdaptationModel`] holds three learned velocity thresholds *per current
//! setting* and maps a measured content-change velocity to the next YOLOv3
//! input size. [`trainer`] implements the paper's offline learning
//! procedure: run MPDT with each fixed setting over training videos, label
//! each 1-second chunk with the best-performing setting, and fit the
//! thresholds with an ordered-class learner.

pub mod model;
pub mod trainer;

pub use model::AdaptationModel;
pub use trainer::{
    chunk_accuracy, learn_thresholds, train_adaptation_model_with, ClipExamples, TrainerConfig,
    TrainingExample,
};
