//! Cross-crate integration tests: whole pipelines over rendered video,
//! exercising vision + video + detector + sim + core together.

use adavp::core::adaptation::AdaptationModel;
use adavp::core::eval::{evaluate_on_clip, ground_truth_boxes, EvalConfig, GroundTruthMode};
use adavp::core::pipeline::{
    DetectorOnlyPipeline, FrameSource, MarlinConfig, MarlinPipeline, MpdtPipeline, PipelineConfig,
    SettingPolicy, VideoProcessor,
};
use adavp::detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::video::clip::VideoClip;
use adavp::video::scenario::Scenario;

fn clip(scenario: Scenario, seed: u64, frames: u32) -> VideoClip {
    let mut spec = scenario.spec();
    spec.width = 320;
    spec.height = 180;
    spec.size_range = (22.0, 40.0);
    VideoClip::generate("e2e", &spec, seed, frames)
}

fn adavp() -> MpdtPipeline<SimulatedDetector> {
    MpdtPipeline::new(
        SimulatedDetector::new(DetectorConfig::default()),
        SettingPolicy::Adaptive(AdaptationModel::default_model()),
        PipelineConfig::default(),
    )
}

fn mpdt(setting: ModelSetting) -> MpdtPipeline<SimulatedDetector> {
    MpdtPipeline::new(
        SimulatedDetector::new(DetectorConfig::default()),
        SettingPolicy::Fixed(setting),
        PipelineConfig::default(),
    )
}

#[test]
fn identical_runs_produce_identical_traces() {
    // DESIGN.md §7: two runs with the same seed are byte-identical.
    let c = clip(Scenario::Highway, 3, 120);
    let t1 = adavp().process(&c);
    let t2 = adavp().process(&c);
    assert_eq!(t1, t2);
    let e1 = evaluate_on_clip(&mut adavp(), &c, &EvalConfig::default());
    let e2 = evaluate_on_clip(&mut adavp(), &c, &EvalConfig::default());
    assert_eq!(e1.frame_f1, e2.frame_f1);
    assert_eq!(e1.accuracy, e2.accuracy);
}

#[test]
fn every_pipeline_covers_every_frame() {
    let c = clip(Scenario::Intersection, 5, 100);
    let mut pipelines: Vec<Box<dyn VideoProcessor>> = vec![
        Box::new(adavp()),
        Box::new(mpdt(ModelSetting::Yolo320)),
        Box::new(mpdt(ModelSetting::Yolo608)),
        Box::new(MarlinPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Yolo512,
            PipelineConfig::default(),
            MarlinConfig::default(),
        )),
        Box::new(DetectorOnlyPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Yolo512,
            PipelineConfig::default(),
        )),
    ];
    for p in &mut pipelines {
        let trace = p.process(&c);
        assert_eq!(trace.outputs.len(), 100, "{}", p.name());
        for (i, o) in trace.outputs.iter().enumerate() {
            assert_eq!(o.frame_index as usize, i, "{}", p.name());
        }
        assert!(trace.energy.total_wh() > 0.0, "{}", p.name());
    }
}

#[test]
fn mpdt_beats_detector_only_on_dynamic_video() {
    // The paper's Fig. 6: tracking between detections adds accuracy.
    let c = clip(Scenario::Highway, 7, 200);
    let eval = EvalConfig::default();
    let with_tracking = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo512), &c, &eval);
    let mut wo = DetectorOnlyPipeline::new(
        SimulatedDetector::new(DetectorConfig::default()),
        ModelSetting::Yolo512,
        PipelineConfig::default(),
    );
    let without = evaluate_on_clip(&mut wo, &c, &eval);
    assert!(
        with_tracking.accuracy >= without.accuracy,
        "MPDT {} vs detector-only {}",
        with_tracking.accuracy,
        without.accuracy
    );
}

#[test]
fn mpdt_beats_marlin_on_fast_video() {
    // Parallel vs sequential: MARLIN's held frames during detection hurt.
    let c = clip(Scenario::Highway, 9, 200);
    let eval = EvalConfig::default();
    let parallel = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo512), &c, &eval);
    let mut marlin = MarlinPipeline::new(
        SimulatedDetector::new(DetectorConfig::default()),
        ModelSetting::Yolo512,
        PipelineConfig::default(),
        MarlinConfig::default(),
    );
    let sequential = evaluate_on_clip(&mut marlin, &c, &eval);
    assert!(
        parallel.accuracy >= sequential.accuracy,
        "MPDT {} vs MARLIN {}",
        parallel.accuracy,
        sequential.accuracy
    );
}

#[test]
fn detected_frames_score_higher_than_held_frames() {
    let c = clip(Scenario::CityStreet, 11, 150);
    let ev = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo512), &c, &EvalConfig::default());
    let mean_by = |src: FrameSource| {
        let v: Vec<f64> = ev
            .trace
            .outputs
            .iter()
            .zip(&ev.frame_f1)
            .filter(|(o, _)| o.source == src)
            .map(|(_, &f)| f)
            .collect();
        (v.iter().sum::<f64>() / v.len().max(1) as f64, v.len())
    };
    let (det, n_det) = mean_by(FrameSource::Detected);
    let (held, n_held) = mean_by(FrameSource::Held);
    assert!(n_det > 0 && n_held > 0);
    assert!(
        det > held,
        "fresh detections ({det:.2}) must outscore held frames ({held:.2})"
    );
}

#[test]
fn oracle_and_true_ground_truth_agree_on_ordering() {
    // Scoring against true GT instead of the YOLOv3-704 oracle must not
    // invert which pipeline is better (sanity for the pseudo-GT convention).
    let c = clip(Scenario::Highway, 13, 150);
    let eval_true = EvalConfig {
        ground_truth: GroundTruthMode::True,
    };
    let eval_oracle = EvalConfig::default();

    let big_oracle = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo608), &c, &eval_oracle);
    let small_oracle = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo320), &c, &eval_oracle);
    let big_true = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo608), &c, &eval_true);
    let small_true = evaluate_on_clip(&mut mpdt(ModelSetting::Yolo320), &c, &eval_true);
    assert_eq!(
        big_oracle.accuracy >= small_oracle.accuracy,
        big_true.accuracy >= small_true.accuracy,
        "GT conventions disagree on 608 vs 320 ordering"
    );
}

#[test]
fn adaptive_switches_on_mixed_content() {
    // A clip with strong activity modulation should make AdaVP change
    // settings at least once.
    let c = clip(Scenario::Intersection, 15, 300);
    let trace = adavp().process(&c);
    assert!(
        trace.switch_count() >= 1,
        "no setting switches over {} cycles",
        trace.cycles.len()
    );
}

#[test]
fn ground_truth_modes_both_available() {
    let c = clip(Scenario::Highway, 17, 10);
    let t = ground_truth_boxes(&c, GroundTruthMode::True);
    let o = ground_truth_boxes(&c, GroundTruthMode::default());
    assert_eq!(t.len(), 10);
    assert_eq!(o.len(), 10);
}
