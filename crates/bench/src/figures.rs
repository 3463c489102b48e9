//! The figure experiments (Figs. 1, 2, 5-11 of the paper).

use crate::context::ExperimentContext;
use crate::runner::SchemeResult;
use adavp_core::eval::{ground_truth_boxes, score_trace, EvalConfig, F1_THRESHOLD, IOU_THRESHOLD};
use adavp_core::pipeline::Scheme;
use adavp_core::tracker::{ObjectTracker, TrackerConfig};
use adavp_detector::{Detector, DetectorConfig, ModelSetting, SimulatedDetector};
use adavp_metrics::f1::{evaluate_frame, LabeledBox};
use adavp_metrics::matching::Matcher;
use adavp_metrics::stats::{empirical_cdf, mean, CdfPoint};
use adavp_metrics::video::{dataset_accuracy, video_accuracy};
use adavp_video::clip::VideoClip;
use adavp_video::scenario::Scenario;
use std::sync::Arc;

/// One bar+star of Fig. 1: detection latency and accuracy at a frame size.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Model setting.
    pub setting: ModelSetting,
    /// Mean per-frame detection latency (ms).
    pub mean_latency_ms: f64,
    /// Mean per-frame F1 against the YOLOv3-704 pseudo ground truth.
    pub mean_f1: f64,
}

/// Fig. 1: run the detector frame-by-frame at every setting.
///
/// `frame_cap` bounds the number of frames scored (the paper uses 4000).
pub fn fig1(ctx: &mut ExperimentContext, frame_cap: usize) -> Vec<Fig1Row> {
    let eval = ctx.eval();
    let det_cfg = ctx.detector().clone();
    let clips = ctx.test_clips();
    let mut rows = Vec::new();
    for setting in [
        ModelSetting::Tiny320,
        ModelSetting::Yolo320,
        ModelSetting::Yolo416,
        ModelSetting::Yolo512,
        ModelSetting::Yolo608,
    ] {
        let mut det = SimulatedDetector::new(det_cfg.clone());
        let mut latencies = Vec::new();
        let mut f1s = Vec::new();
        'outer: for clip in clips {
            let gt = ground_truth_boxes(clip, eval.ground_truth);
            for frame in clip {
                let r = det.detect(frame, setting);
                latencies.push(r.latency_ms);
                let boxes: Vec<LabeledBox> = r
                    .detections
                    .iter()
                    .map(|d| LabeledBox::new(d.class, d.bbox))
                    .collect();
                let s = evaluate_frame(
                    &boxes,
                    &gt[frame.index as usize],
                    IOU_THRESHOLD,
                    Matcher::Hungarian,
                );
                f1s.push(s.f1);
                if f1s.len() >= frame_cap {
                    break 'outer;
                }
            }
        }
        rows.push(Fig1Row {
            setting,
            mean_latency_ms: mean(&latencies),
            mean_f1: mean(&f1s),
        });
    }
    rows
}

/// Fig. 2: tracking-accuracy decay after one YOLOv3-608 detection, averaged
/// over `runs` seeds, for a fast and a slow video.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Mean F1 per tracked frame, fast-content video (Video1).
    pub fast: Vec<f64>,
    /// Mean F1 per tracked frame, slow-content video (Video2).
    pub slow: Vec<f64>,
}

impl Fig2Result {
    /// First frame index at which the curve drops below `threshold`, if any.
    pub fn first_below(curve: &[f64], threshold: f64) -> Option<usize> {
        curve.iter().position(|&v| v < threshold)
    }
}

/// Runs the Fig. 2 decay experiment: detect frame 0, then *only track* the
/// following `frames` frames (no re-calibration), scoring each frame.
pub fn fig2(frames: usize, runs: usize) -> Fig2Result {
    let curve = |scenario: Scenario, fast: bool, seed0: u64| -> Vec<f64> {
        let mut acc = vec![0.0f64; frames];
        for run in 0..runs {
            let mut spec = scenario.spec();
            spec.width = 320;
            spec.height = 180;
            spec.size_range = (22.0, 40.0);
            if fast {
                // "Video1": highly dynamic content — dense fast traffic.
                spec.speed_range = (220.0, 420.0);
                spec.spawn_rate_hz = 3.0;
                spec.max_objects = 12;
                spec.initial_objects = 6;
                spec.activity_depth = 0.0;
            } else {
                // "Video2": moderately dynamic street scene.
                spec.speed_range = (55.0, 130.0);
                spec.spawn_rate_hz = 1.1;
                spec.activity_depth = 0.0;
            }
            let clip = VideoClip::generate("fig2", &spec, seed0 + run as u64, frames as u32 + 1);
            let eval = EvalConfig::default();
            let gt = ground_truth_boxes(&clip, eval.ground_truth);
            let mut det = SimulatedDetector::new(DetectorConfig::default());
            let d0 = det.detect(clip.frame(0), ModelSetting::Yolo608);
            let mut tracker = ObjectTracker::new(TrackerConfig::default());
            let pairs: Vec<_> = d0.detections.iter().map(|d| (d.class, d.bbox)).collect();
            tracker.reset(&clip.frame(0).image, &pairs);
            for i in 1..=frames {
                tracker.step(&clip.frame(i).image, 1);
                let boxes: Vec<LabeledBox> = tracker
                    .current_boxes()
                    .into_iter()
                    .map(|(c, b)| LabeledBox::new(c, b))
                    .collect();
                let s = evaluate_frame(&boxes, &gt[i], IOU_THRESHOLD, Matcher::Hungarian);
                acc[i - 1] += s.f1;
            }
        }
        acc.iter().map(|v| v / runs as f64).collect()
    };
    Fig2Result {
        fast: curve(Scenario::Highway, true, 900),
        slow: curve(Scenario::CityStreet, false, 950),
    }
}

/// One frame of the Fig. 5 trace.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Frame index.
    pub frame: u64,
    /// F1 and source under MPDT-YOLOv3-320.
    pub small: (f64, String),
    /// F1 and source under MPDT-YOLOv3-608.
    pub large: (f64, String),
}

/// Fig. 5: frame-level accuracy of MPDT under the smallest and largest
/// settings on one highway clip.
pub fn fig5(ctx: &mut ExperimentContext, frames: usize) -> Vec<Fig5Row> {
    let small = ctx.run(&Scheme::Mpdt(ModelSetting::Yolo320));
    let large = ctx.run(&Scheme::Mpdt(ModelSetting::Yolo608));
    let (small, large) = (&small.evaluations[0], &large.evaluations[0]);
    let row = |ev: &adavp_core::eval::VideoEvaluation, i: usize| {
        (ev.frame_f1[i], format!("{:?}", ev.trace.outputs[i].source))
    };
    (0..frames.min(small.frame_f1.len()))
        .map(|i| Fig5Row {
            frame: i as u64,
            small: row(small, i),
            large: row(large, i),
        })
        .collect()
}

/// Fig. 6: the headline comparison — AdaVP vs MPDT / MARLIN / without
/// tracking / Cascade / CTD at all four settings. Returns one
/// [`SchemeResult`] per scheme.
pub fn fig6(ctx: &mut ExperimentContext) -> Vec<Arc<SchemeResult>> {
    let mut schemes = vec![Scheme::AdaVp(ctx.adaptation_model().clone())];
    let fixed: [fn(ModelSetting) -> Scheme; 5] = [
        Scheme::Mpdt,
        Scheme::Marlin,
        Scheme::WithoutTracking,
        Scheme::Cascade,
        Scheme::Ctd,
    ];
    for make in fixed {
        schemes.extend(ModelSetting::ADAPTIVE.map(make));
    }
    schemes.iter().map(|s| ctx.run(s)).collect()
}

/// AdaVP's run over the test set under the context's trained model.
fn adavp(ctx: &mut ExperimentContext) -> Arc<SchemeResult> {
    let model = ctx.adaptation_model().clone();
    ctx.run(&Scheme::AdaVp(model))
}

/// Fig. 7: CDF of the number of cycles between consecutive setting switches
/// across an AdaVP run over the test set.
pub fn fig7(ctx: &mut ExperimentContext) -> Vec<CdfPoint> {
    let r = adavp(ctx);
    let gaps: Vec<f64> = adavp_core::analysis::switch_gaps(r.evaluations.iter().map(|e| &e.trace))
        .into_iter()
        .map(|g| g as f64)
        .collect();
    empirical_cdf(&gaps)
}

/// Fig. 8: share of detection cycles run at each setting by AdaVP.
pub fn fig8(ctx: &mut ExperimentContext) -> Vec<(ModelSetting, f64)> {
    let r = adavp(ctx);
    adavp_core::analysis::usage_shares(r.evaluations.iter().map(|e| &e.trace)).to_vec()
}

/// Fig. 9: per-frame accuracy trace of AdaVP vs the best fixed baseline
/// (MPDT-YOLOv3-512) on one mixed-rate clip.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Clip name used.
    pub clip_name: String,
    /// Per-frame F1 of AdaVP.
    pub adavp: Vec<f64>,
    /// Per-frame F1 of MPDT-YOLOv3-512.
    pub mpdt512: Vec<f64>,
}

/// Runs Fig. 9 on the intersection test clip (strong within-video activity
/// modulation — the case adaptation is built for).
pub fn fig9(ctx: &mut ExperimentContext) -> Fig9Result {
    let clips = ctx.test_clips();
    let i = clips
        .iter()
        .position(|c| c.name().contains("intersection"))
        .unwrap_or(0);
    let clip_name = clips[i].name().to_string();
    let a = adavp(ctx);
    let m = ctx.run(&Scheme::Mpdt(ModelSetting::Yolo512));
    Fig9Result {
        clip_name,
        adavp: a.evaluations[i].frame_f1.clone(),
        mpdt512: m.evaluations[i].frame_f1.clone(),
    }
}

/// Figs. 10: dataset accuracy of AdaVP and the MPDT baselines at two F1
/// thresholds α (0.70 and 0.75). Reuses frame scores, so no pipeline rerun.
pub fn fig10(results: &[Arc<SchemeResult>]) -> Vec<(String, f64, f64)> {
    results
        .iter()
        .filter(|r| r.label == "AdaVP" || r.label.starts_with("MPDT"))
        .map(|r| {
            let acc_at = |alpha: f64| {
                let per_video: Vec<f64> = r
                    .evaluations
                    .iter()
                    .map(|ev| video_accuracy(&ev.frame_f1, alpha))
                    .collect();
                dataset_accuracy(&per_video)
            };
            (r.label.clone(), acc_at(0.70), acc_at(0.75))
        })
        .collect()
}

/// Fig. 11: dataset accuracy at IoU 0.5 vs 0.6 for AdaVP and MPDT.
///
/// IoU changes only the matching, never the trace, so both columns rescore
/// the memoized traces instead of rerunning the pipelines.
pub fn fig11(ctx: &mut ExperimentContext) -> Vec<(String, f64, f64)> {
    let mut results = vec![adavp(ctx)];
    for s in ModelSetting::ADAPTIVE {
        results.push(ctx.run(&Scheme::Mpdt(s)));
    }
    let eval = ctx.eval();
    let exec = ctx.exec;
    let gt = exec.map(ctx.test_clips(), |_, clip| {
        ground_truth_boxes(clip, eval.ground_truth)
    });
    let accuracy_at = |r: &SchemeResult, iou: f32| {
        let per_video: Vec<f64> = r
            .evaluations
            .iter()
            .zip(&gt)
            .map(|(ev, gt)| video_accuracy(&score_trace(&ev.trace, gt, iou), F1_THRESHOLD))
            .collect();
        dataset_accuracy(&per_video)
    };
    results
        .iter()
        .map(|r| (r.label.clone(), accuracy_at(r, 0.5), accuracy_at(r, 0.6)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_core::adaptation::AdaptationModel;
    use adavp_video::dataset::DatasetScale;

    fn smoke_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        ctx.set_adaptation_model(AdaptationModel::default_model());
        ctx
    }

    #[test]
    fn fig1_shape_matches_paper() {
        let mut ctx = smoke_ctx();
        let rows = fig1(&mut ctx, 60);
        assert_eq!(rows.len(), 5);
        // Latency increases with input size (tiny fastest).
        let lat: Vec<f64> = rows.iter().map(|r| r.mean_latency_ms).collect();
        assert!(lat[0] < lat[1], "tiny must be fastest");
        assert!(lat[1] < lat[2] && lat[2] < lat[3] && lat[3] < lat[4]);
        // Accuracy increases 320 -> 608, and tiny is worst.
        let f1: Vec<f64> = rows.iter().map(|r| r.mean_f1).collect();
        assert!(f1[0] < f1[1], "tiny accuracy must be worst: {f1:?}");
        assert!(f1[4] > f1[1], "608 must beat 320: {f1:?}");
    }

    #[test]
    fn fig2_fast_decays_faster() {
        let r = fig2(24, 2);
        assert_eq!(r.fast.len(), 24);
        // Early tracking is decent for both.
        assert!(r.slow[0] > 0.4, "slow video initial {}", r.slow[0]);
        // The slow video retains accuracy better at the tail.
        let tail = |c: &[f64]| c[c.len() - 4..].iter().sum::<f64>() / 4.0;
        assert!(
            tail(&r.slow) >= tail(&r.fast),
            "slow tail {} < fast tail {}",
            tail(&r.slow),
            tail(&r.fast)
        );
    }

    #[test]
    fn fig7_cdf_is_valid() {
        let mut ctx = smoke_ctx();
        let cdf = fig7(&mut ctx);
        for w in cdf.windows(2) {
            assert!(w[0].value <= w[1].value);
            assert!(w[0].probability <= w[1].probability);
        }
    }

    #[test]
    fn fig8_shares_sum_to_one() {
        let mut ctx = smoke_ctx();
        let shares = fig8(&mut ctx);
        assert_eq!(shares.len(), 4);
        let sum: f64 = shares.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    }
}
