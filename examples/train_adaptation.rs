//! Train the DNN-model-setting adaptation module from scratch (§IV-D3) and
//! inspect what it learned.
//!
//! Reproduces the paper's offline procedure on a small synthetic corpus:
//! run MPDT at all four fixed settings over training videos, label each
//! 1-second chunk with the best setting, and fit per-setting velocity
//! thresholds. Then compares the trained model against the untrained
//! default on held-out clips.
//!
//! ```text
//! cargo run --release --example train_adaptation
//! ```

use adavp::core::adaptation::{train_adaptation_model_with, AdaptationModel, TrainerConfig};
use adavp::core::eval::{evaluate_on_clip, EvalConfig};
use adavp::core::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy};
use adavp::detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::video::clip::VideoClip;
use adavp::video::scenario::Scenario;
use adavp::vision::exec::Executor;

fn main() {
    // A compact training corpus: one fast, one medium, one slow scenario.
    println!("rendering training corpus...");
    let train: Vec<VideoClip> = [
        (Scenario::Highway, 11u64),
        (Scenario::CityStreet, 12),
        (Scenario::ResidentialArea, 13),
        (Scenario::Racetrack, 14),
        (Scenario::MeetingRoom, 15),
        (Scenario::Intersection, 16),
    ]
    .iter()
    .map(|(s, seed)| VideoClip::generate(&format!("train-{s:?}"), &s.spec(), *seed, 180))
    .collect();

    println!("training thresholds (4 MPDT runs per video)...");
    let (model, _) =
        train_adaptation_model_with(&train, &TrainerConfig::default(), &Executor::sequential());

    println!("\nlearned velocity thresholds (px/frame):");
    println!("current setting | v1 (->608) | v2 (->512) | v3 (->416), above -> 320");
    for s in ModelSetting::ADAPTIVE {
        let [v1, v2, v3] = model.thresholds_for(s);
        println!(
            "{:<15} | {v1:>10.2} | {v2:>10.2} | {v3:>10.2}",
            s.to_string()
        );
    }

    // Held-out comparison: trained vs untrained-default model.
    println!("\nevaluating on held-out clips...");
    let held_out: Vec<VideoClip> = [
        (Scenario::CarMountedDowntown, 31u64),
        (Scenario::SkatingRink, 32),
        (Scenario::BusStation, 33),
    ]
    .iter()
    .map(|(s, seed)| VideoClip::generate(&format!("test-{s:?}"), &s.spec(), *seed, 180))
    .collect();

    let eval = EvalConfig::default();
    let accuracy_with = |m: AdaptationModel| -> f64 {
        let mut sum = 0.0;
        for clip in &held_out {
            let mut p = MpdtPipeline::new(
                SimulatedDetector::new(DetectorConfig::default()),
                SettingPolicy::Adaptive(m.clone()),
                PipelineConfig::default(),
            );
            sum += evaluate_on_clip(&mut p, clip, &eval).accuracy;
        }
        sum / held_out.len() as f64
    };

    let trained = accuracy_with(model);
    let default = accuracy_with(AdaptationModel::default_model());
    println!("AdaVP with trained model:  {:.1}%", trained * 100.0);
    println!("AdaVP with default model:  {:.1}%", default * 100.0);
}
