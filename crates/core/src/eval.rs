//! Trace scoring: the paper's evaluation methodology end-to-end.
//!
//! Like the paper (§III-A), accuracy is measured against the output of the
//! *largest* detector setting (YOLOv3-704) on every frame — pseudo ground
//! truth — because hand labels do not exist for arbitrary videos. Since our
//! world simulator knows the true objects, [`GroundTruthMode::True`] is also
//! available to quantify how much the pseudo-GT convention flatters the
//! pipelines (an ablation the paper could not run).

use crate::pipeline::{ProcessingTrace, VideoProcessor};
use adavp_detector::{Detector, DetectorConfig, ModelSetting, SimulatedDetector};
use adavp_metrics::f1::{evaluate_frame, LabeledBox};
use adavp_metrics::matching::Matcher;
use adavp_metrics::video::video_accuracy;
use adavp_video::clip::VideoClip;

/// Which ground truth frame scores are computed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroundTruthMode {
    /// The world simulator's true object list.
    True,
    /// Simulated YOLOv3-704 detections (the paper's convention). The seed
    /// fixes the oracle's noise so every pipeline is scored against the
    /// same pseudo ground truth.
    Oracle {
        /// Oracle detector seed.
        seed: u64,
    },
}

impl Default for GroundTruthMode {
    fn default() -> Self {
        GroundTruthMode::Oracle { seed: 0xCAFE }
    }
}

/// IoU threshold for true positives (the paper's default; Fig. 11 sweeps
/// 0.6 explicitly).
pub const IOU_THRESHOLD: f32 = 0.5;

/// F1 threshold α for per-video accuracy (the paper's default; Fig. 10
/// sweeps 0.75 explicitly).
pub const F1_THRESHOLD: f64 = 0.7;

/// Scoring configuration. The thresholds are [`IOU_THRESHOLD`] and
/// [`F1_THRESHOLD`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalConfig {
    /// Ground-truth source.
    pub ground_truth: GroundTruthMode,
}

/// Ground-truth boxes for every frame of a clip under the given mode.
pub fn ground_truth_boxes(clip: &VideoClip, mode: GroundTruthMode) -> Vec<Vec<LabeledBox>> {
    match mode {
        GroundTruthMode::True => clip
            .iter()
            .map(|f| {
                f.ground_truth
                    .iter()
                    .map(|g| LabeledBox::new(g.class, g.bbox))
                    .collect()
            })
            .collect(),
        GroundTruthMode::Oracle { seed } => {
            let mut oracle = SimulatedDetector::new(DetectorConfig::default().with_seed(seed));
            clip.iter()
                .map(|f| {
                    oracle
                        .detect(f, ModelSetting::Yolo704)
                        .detections
                        .iter()
                        .map(|d| LabeledBox::new(d.class, d.bbox))
                        .collect()
                })
                .collect()
        }
    }
}

/// Per-frame F1 of a trace against precomputed ground truth.
///
/// Boxes are scored on the frame they were displayed *for* (the paper's
/// convention), with Hungarian matching.
///
/// # Panics
///
/// Panics if `ground_truth` is shorter than the trace.
pub fn score_trace(
    trace: &ProcessingTrace,
    ground_truth: &[Vec<LabeledBox>],
    iou_threshold: f32,
) -> Vec<f64> {
    trace
        .outputs
        .iter()
        .map(|o| {
            let gt = &ground_truth[o.frame_index as usize];
            evaluate_frame(&o.boxes, gt, iou_threshold, Matcher::Hungarian).f1
        })
        .collect()
}

/// Result of running one pipeline over one clip.
#[derive(Debug, Clone)]
pub struct VideoEvaluation {
    /// The full processing trace.
    pub trace: ProcessingTrace,
    /// Per-frame F1 scores.
    pub frame_f1: Vec<f64>,
    /// Fraction of frames with F1 ≥ the configured threshold.
    pub accuracy: f64,
}

/// Runs `processor` over `clip` and scores it.
pub fn evaluate_on_clip<P: VideoProcessor + ?Sized>(
    processor: &mut P,
    clip: &VideoClip,
    cfg: &EvalConfig,
) -> VideoEvaluation {
    let gt = ground_truth_boxes(clip, cfg.ground_truth);
    let trace = processor.process(clip);
    let frame_f1 = score_trace(&trace, &gt, IOU_THRESHOLD);
    let accuracy = video_accuracy(&frame_f1, F1_THRESHOLD);
    VideoEvaluation {
        trace,
        frame_f1,
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy};
    use adavp_video::scenario::Scenario;

    fn clip(frames: u32) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        VideoClip::generate("eval", &spec, 41, frames)
    }

    #[test]
    fn oracle_gt_is_deterministic_and_dense() {
        let c = clip(10);
        let a = ground_truth_boxes(&c, GroundTruthMode::Oracle { seed: 1 });
        let b = ground_truth_boxes(&c, GroundTruthMode::Oracle { seed: 1 });
        assert_eq!(a, b);
        let total: usize = a.iter().map(|v| v.len()).sum();
        assert!(total > 0, "oracle found nothing");
    }

    #[test]
    fn oracle_close_to_true_gt() {
        // YOLOv3-704 is nearly perfect; per frame it should find almost all
        // true objects.
        let c = clip(10);
        let oracle = ground_truth_boxes(&c, GroundTruthMode::default());
        let truth = ground_truth_boxes(&c, GroundTruthMode::True);
        let o: usize = oracle.iter().map(|v| v.len()).sum();
        let t: usize = truth.iter().map(|v| v.len()).sum();
        assert!(
            (o as f64) > 0.8 * t as f64 && (o as f64) < 1.3 * t as f64,
            "oracle {o} vs true {t}"
        );
    }

    #[test]
    fn perfect_trace_scores_one() {
        let c = clip(5);
        let gt = ground_truth_boxes(&c, GroundTruthMode::True);
        // Build a fake trace that echoes ground truth.
        let outputs = (0..c.len() as u64)
            .map(|i| crate::pipeline::FrameOutput {
                frame_index: i,
                source: crate::pipeline::FrameSource::Detected,
                boxes: gt[i as usize].clone(),
                confidences: vec![1.0; gt[i as usize].len()],
                display_ms: 0.0,
            })
            .collect();
        let trace = ProcessingTrace {
            pipeline: "echo".into(),
            outputs,
            cycles: vec![],
            energy: Default::default(),
            finished_ms: 0.0,
            gpu_busy_ms: 0.0,
            cpu_busy_ms: 0.0,
            telemetry: Default::default(),
            metrics: Default::default(),
        };
        let scores = score_trace(&trace, &gt, 0.5);
        assert!(scores.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn evaluate_on_clip_produces_sane_accuracy() {
        let c = clip(60);
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            SettingPolicy::Fixed(ModelSetting::Yolo512),
            PipelineConfig::default(),
        );
        let ev = evaluate_on_clip(&mut p, &c, &EvalConfig::default());
        assert_eq!(ev.frame_f1.len(), 60);
        assert!((0.0..=1.0).contains(&ev.accuracy));
        assert!(ev.frame_f1.iter().all(|&f| (0.0..=1.0).contains(&f)));
        // Detected frames should generally score well.
        let detected_scores: Vec<f64> = ev
            .trace
            .outputs
            .iter()
            .zip(&ev.frame_f1)
            .filter(|(o, _)| o.source == crate::pipeline::FrameSource::Detected)
            .map(|(_, &f)| f)
            .collect();
        let mean: f64 = detected_scores.iter().sum::<f64>() / detected_scores.len() as f64;
        assert!(mean > 0.4, "mean detected-frame F1 {mean} too low");
    }
}
