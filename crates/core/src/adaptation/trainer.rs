//! Offline threshold learning (§IV-D3).
//!
//! The paper's procedure, reproduced with one refinement:
//!
//! 1. Divide each training video into 1-second chunks.
//! 2. Run MPDT with each of the 4 fixed settings independently over the
//!    video; per chunk, record the mean detection accuracy under each
//!    setting and the mean motion velocity under each setting.
//! 3. Per current setting `s`, collect `(velocity measured under s,
//!    per-setting chunk accuracies)` samples and fit the three thresholds.
//!
//! The paper fits thresholds as a hard classification problem (label = the
//! best setting per chunk). With a finite corpus those labels are noisy —
//! two settings within a hair of each other still cast full votes — so this
//! implementation minimizes **regret** instead: assigning a chunk to setting
//! `c` costs `best_f1 - f1_c`. Minimizing total regret over a contiguous
//! 4-way partition of the velocity axis is solved exactly by dynamic
//! programming over the velocity-sorted samples. With one-hot accuracies the
//! objective degenerates to the paper's misclassification count.

use crate::adaptation::model::AdaptationModel;
use crate::eval::{ground_truth_boxes, score_trace, EvalConfig, F1_THRESHOLD, IOU_THRESHOLD};
use crate::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy, VideoProcessor};
use adavp_detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp_video::clip::VideoClip;
use adavp_vision::exec::Executor;

/// One training sample for the threshold learner.
///
/// Classes are in *velocity order*: 0 = 608 (best for the slowest content) …
/// 3 = 320 (best for the fastest content).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingExample {
    /// Mean motion velocity of the chunk (px/frame), measured under the
    /// current setting.
    pub velocity: f64,
    /// Mean chunk F1 under each class (velocity order).
    pub f1_by_class: [f64; 4],
}

impl TrainingExample {
    /// The class with the highest accuracy (ties → lower class = heavier
    /// setting).
    pub fn best_class(&self) -> usize {
        let mut best = 0;
        for c in 1..4 {
            if self.f1_by_class[c] > self.f1_by_class[best] + 1e-12 {
                best = c;
            }
        }
        best
    }

    /// Regret of assigning this chunk to class `c`.
    pub fn regret(&self, c: usize) -> f64 {
        let best = self.f1_by_class[self.best_class()];
        (best - self.f1_by_class[c.min(3)]).max(0.0)
    }
}

/// One training clip's name and chunk samples: `.1[si]` holds, in chunk
/// order, the chunks whose velocity was measured under
/// `ModelSetting::ADAPTIVE[si]`.
pub type ClipExamples = (String, [Vec<TrainingExample>; 4]);

/// Chunk length in frames (paper: 1 second = 30 frames).
pub const CHUNK_FRAMES: usize = 30;

/// Per-chunk accuracy of one run's frame scores: for each chunk of
/// [`CHUNK_FRAMES`] frames (the last may be shorter), the fraction of
/// frames with F1 ≥ [`F1_THRESHOLD`]. It is the evaluation metric taken
/// per chunk, so the learner optimizes what the system is judged on.
pub fn chunk_accuracy(frame_f1: &[f64]) -> Vec<f64> {
    frame_f1
        .chunks(CHUNK_FRAMES)
        .map(|w| w.iter().filter(|&&f| f >= F1_THRESHOLD).count() as f64 / w.len() as f64)
        .collect()
}

/// Trainer configuration.
#[derive(Debug, Clone, Default)]
pub struct TrainerConfig {
    /// Scoring configuration (ground truth).
    pub eval: EvalConfig,
    /// Detector error model used during training runs.
    pub detector: DetectorConfig,
    /// Pipeline configuration used during training runs.
    pub pipeline: PipelineConfig,
}

/// Maps an adaptive setting to its velocity-order class
/// (608 → 0, 512 → 1, 416 → 2, 320 → 3).
fn setting_to_class(s: ModelSetting) -> usize {
    3 - s.adaptive_index().expect("adaptive setting")
}

/// Optimally learns `(v1 <= v2 <= v3)` from samples by minimum-total-regret
/// partition of the velocity axis into the four ordered classes.
///
/// Returns a default spread when `samples` is empty.
pub fn learn_thresholds(samples: &[TrainingExample]) -> [f64; 3] {
    if samples.is_empty() {
        return [1.1, 2.6, 5.5];
    }
    let mut sorted: Vec<&TrainingExample> = samples.iter().collect();
    sorted.sort_by(|a, b| a.velocity.total_cmp(&b.velocity));
    let n = sorted.len();

    // prefix[c][i] = total regret of assigning the first i samples to class c.
    let mut prefix = Vec::with_capacity(n + 1);
    let mut row = [0.0f64; 4];
    prefix.push(row);
    for sample in &sorted {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell += sample.regret(c);
        }
        prefix.push(row);
    }
    let cost = |j: usize, i: usize, c: usize| prefix[i][c] - prefix[j][c];

    // dp[c][i]: min regret assigning the first i samples to classes 0..=c,
    // classes contiguous in velocity order. parent[c][i]: where class c starts.
    let mut dp = vec![vec![f64::INFINITY; n + 1]; 4];
    let mut parent = vec![vec![0usize; n + 1]; 4];
    for (i, cell) in dp[0].iter_mut().enumerate() {
        *cell = cost(0, i, 0);
    }
    for c in 1..4 {
        for i in 0..=n {
            for j in 0..=i {
                let cand = dp[c - 1][j] + cost(j, i, c);
                if cand < dp[c][i] {
                    dp[c][i] = cand;
                    parent[c][i] = j;
                }
            }
        }
    }

    // Recover segment boundaries (start indices of classes 1, 2, 3).
    let mut bounds = [0usize; 3];
    let mut i = n;
    for c in (1..4).rev() {
        let j = parent[c][i];
        bounds[c - 1] = j;
        i = j;
    }

    let threshold_at = |b: usize| -> f64 {
        if b == 0 {
            sorted[0].velocity - 1e-6
        } else if b >= n {
            sorted[n - 1].velocity + 1e-6
        } else {
            (sorted[b - 1].velocity + sorted[b].velocity) / 2.0
        }
    };
    let mut t = [
        threshold_at(bounds[0]),
        threshold_at(bounds[1]),
        threshold_at(bounds[2]),
    ];
    // Guard monotonicity against duplicate velocities.
    t[1] = t[1].max(t[0]);
    t[2] = t[2].max(t[1]);
    t
}

/// What one fixed-setting MPDT run over one clip contributes to training:
/// the unit of work the parallel trainer fans out (clips × 4 settings).
struct SettingObservation {
    /// Velocity-order class of the setting that ran.
    class: usize,
    /// Chunk-mean accuracy (fraction of chunk frames with F1 ≥ α).
    chunk_f1: Vec<f64>,
    /// Chunk-mean velocity measured under this setting (forward-filled).
    chunk_vel: Vec<Option<f64>>,
}

/// Runs MPDT fixed at `ModelSetting::ADAPTIVE[si]` over `clip` and distills
/// the per-chunk statistics. Pure in `(clip, si, cfg)`, so observations can
/// be computed in any order (or concurrently) and merged deterministically.
fn observe_setting(clip: &VideoClip, si: usize, cfg: &TrainerConfig) -> SettingObservation {
    let setting = ModelSetting::ADAPTIVE[si];
    let gt = ground_truth_boxes(clip, cfg.eval.ground_truth);
    let mut pipeline = MpdtPipeline::new(
        SimulatedDetector::new(cfg.detector.clone()),
        SettingPolicy::Fixed(setting),
        cfg.pipeline.clone(),
    );
    let trace = pipeline.process(clip);
    let chunk_f1 = chunk_accuracy(&score_trace(&trace, &gt, IOU_THRESHOLD));
    // Assign each cycle's velocity to the chunk holding its detected frame
    // (an empty clip has no cycles).
    let mut sums = vec![(0.0f64, 0u32); chunk_f1.len()];
    for cy in &trace.cycles {
        if let Some(v) = cy.velocity {
            let ci = (cy.detected_frame as usize / CHUNK_FRAMES).min(sums.len() - 1);
            sums[ci].0 += v;
            sums[ci].1 += 1;
        }
    }
    // A chunk without a velocity of its own takes the last one before it.
    let (mut chunk_vel, mut last) = (Vec::with_capacity(sums.len()), None);
    for (s, c) in sums {
        last = (c > 0).then(|| s / c as f64).or(last);
        chunk_vel.push(last);
    }
    SettingObservation {
        class: setting_to_class(setting),
        chunk_f1,
        chunk_vel,
    }
}

/// Merges one clip's four setting observations into per-current-setting
/// training examples, in fixed `(chunk, setting)` order.
fn merge_observations(obs: &[SettingObservation; 4]) -> [Vec<TrainingExample>; 4] {
    let n_chunks = obs[0].chunk_f1.len();
    let mut out: [Vec<TrainingExample>; 4] = Default::default();
    for ci in 0..n_chunks {
        let mut f1_by_class = [0.0f64; 4];
        for o in obs {
            f1_by_class[o.class] = o.chunk_f1[ci];
        }
        for si in 0..4 {
            if let Some(v) = obs[si].chunk_vel[ci] {
                out[si].push(TrainingExample {
                    velocity: v,
                    f1_by_class,
                });
            }
        }
    }
    out
}

/// Trains an [`AdaptationModel`] from a set of training clips, fanning the
/// `clips.len() × 4` MPDT runs — the dominant cost of the offline sweep —
/// across `exec`. Returns the model and each clip's chunk samples, in clip
/// order, so audits read the labels the thresholds were fitted to.
///
/// Each `(clip, setting)` run is an independent pure function of its
/// inputs, and the observations are merged in fixed `(clip, chunk,
/// setting)` order afterwards, so the trained model and the samples are
/// bit-identical for every jobs setting (pinned by
/// `parallel_training_is_bit_identical`).
pub fn train_adaptation_model_with(
    clips: &[VideoClip],
    cfg: &TrainerConfig,
    exec: &Executor,
) -> (AdaptationModel, Vec<ClipExamples>) {
    let jobs: Vec<(usize, usize)> = (0..clips.len())
        .flat_map(|c| (0..4).map(move |si| (c, si)))
        .collect();
    let observations: Vec<SettingObservation> =
        exec.map(&jobs, |_, &(c, si)| observe_setting(&clips[c], si, cfg));

    let mut iter = observations.into_iter();
    let examples: Vec<ClipExamples> = clips
        .iter()
        .map(|clip| {
            let obs = std::array::from_fn(|_| iter.next().expect("4 per clip"));
            (clip.name().to_string(), merge_observations(&obs))
        })
        .collect();
    let thresholds = std::array::from_fn(|si| {
        let samples: Vec<TrainingExample> = examples
            .iter()
            .flat_map(|(_, ex)| ex[si].iter().copied())
            .collect();
        learn_thresholds(&samples)
    });
    (AdaptationModel::from_thresholds(thresholds), examples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hard-labeled example (the paper's original formulation): the
    /// best class gets accuracy 1, all others 0.
    fn ex(velocity: f64, best_class: usize) -> TrainingExample {
        let mut f1_by_class = [0.0; 4];
        f1_by_class[best_class] = 1.0;
        TrainingExample {
            velocity,
            f1_by_class,
        }
    }

    #[test]
    fn hard_example_accessors() {
        let e = ex(2.0, 1);
        assert_eq!(e.best_class(), 1);
        assert_eq!(e.regret(1), 0.0);
        assert_eq!(e.regret(0), 1.0);
    }

    #[test]
    fn soft_example_regret() {
        let e = TrainingExample {
            velocity: 1.0,
            f1_by_class: [0.8, 0.9, 0.5, 0.2],
        };
        assert_eq!(e.best_class(), 1);
        assert!((e.regret(0) - 0.1).abs() < 1e-12);
        assert_eq!(e.regret(1), 0.0);
        assert!((e.regret(3) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn learn_thresholds_separable_case() {
        // Perfectly separable: class 0 at v<1, 1 at 1..2, 2 at 2..3, 3 at >3.
        let mut samples = Vec::new();
        for i in 0..10 {
            samples.push(ex(0.1 + i as f64 * 0.05, 0));
            samples.push(ex(1.1 + i as f64 * 0.05, 1));
            samples.push(ex(2.1 + i as f64 * 0.05, 2));
            samples.push(ex(3.1 + i as f64 * 0.05, 3));
        }
        let t = learn_thresholds(&samples);
        assert!(t[0] > 0.55 && t[0] < 1.1, "t1 = {}", t[0]);
        assert!(t[1] > 1.55 && t[1] < 2.1, "t2 = {}", t[1]);
        assert!(t[2] > 2.55 && t[2] < 3.1, "t3 = {}", t[2]);
    }

    #[test]
    fn learn_thresholds_with_noise_is_still_ordered() {
        let mut samples = Vec::new();
        for i in 0..40 {
            let v = i as f64 * 0.1;
            let c = match v {
                v if v < 1.0 => usize::from(i % 7 == 0),
                v if v < 2.0 => 1 + usize::from(i % 5 == 0),
                v if v < 3.0 => 2,
                _ => 3 - usize::from(i % 6 == 0),
            };
            samples.push(ex(v, c));
        }
        let t = learn_thresholds(&samples);
        assert!(t[0] <= t[1] && t[1] <= t[2]);
    }

    #[test]
    fn near_tie_chunks_barely_influence_thresholds() {
        // 30 decisive samples say "608 below v=2, 320 above"; 10 near-tie
        // samples (all settings within 0.01) scattered arbitrarily must not
        // move the boundary.
        let mut samples = Vec::new();
        for i in 0..15 {
            samples.push(TrainingExample {
                velocity: 0.5 + i as f64 * 0.09,
                f1_by_class: [0.9, 0.6, 0.5, 0.4],
            });
            samples.push(TrainingExample {
                velocity: 2.5 + i as f64 * 0.09,
                f1_by_class: [0.3, 0.4, 0.5, 0.9],
            });
        }
        for i in 0..10 {
            samples.push(TrainingExample {
                velocity: 0.3 + i as f64 * 0.35,
                f1_by_class: [0.700, 0.701, 0.700, 0.701],
            });
        }
        let t = learn_thresholds(&samples);
        // All three boundaries lie in the decisive gap region (1.8..2.6).
        assert!(t[0] > 1.7 && t[2] < 2.6, "thresholds {t:?} pulled by ties");
    }

    #[test]
    fn learn_thresholds_single_class() {
        let samples: Vec<_> = (0..10).map(|i| ex(i as f64 * 0.1, 0)).collect();
        let t = learn_thresholds(&samples);
        assert!(t[0] >= 0.9 - 1e-9, "t1 = {}", t[0]);
        assert!(t[0] <= t[1] && t[1] <= t[2]);
    }

    #[test]
    fn learn_thresholds_empty_gives_default() {
        let t = learn_thresholds(&[]);
        assert!(t[0] < t[1] && t[1] < t[2]);
    }

    #[test]
    fn learn_thresholds_optimal_vs_brute_force() {
        let mut rng = adavp_rng::Rng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(4..14);
            let samples: Vec<TrainingExample> = (0..n)
                .map(|_| TrainingExample {
                    velocity: rng.gen_range(0.0..5.0),
                    f1_by_class: [
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                    ],
                })
                .collect();
            let t = learn_thresholds(&samples);
            let classify = |v: f64, t: &[f64; 3]| {
                if v <= t[0] {
                    0
                } else if v <= t[1] {
                    1
                } else if v <= t[2] {
                    2
                } else {
                    3
                }
            };
            let regret = |t: &[f64; 3]| -> f64 {
                samples
                    .iter()
                    .map(|s| s.regret(classify(s.velocity, t)))
                    .sum()
            };
            let learned = regret(&t);
            // Brute force over all boundary placements on sorted velocities.
            let mut vs: Vec<f64> = samples.iter().map(|s| s.velocity).collect();
            vs.sort_by(f64::total_cmp);
            let mut cuts = vec![f64::NEG_INFINITY];
            for w in vs.windows(2) {
                cuts.push((w[0] + w[1]) / 2.0);
            }
            cuts.push(vs.last().unwrap() + 1.0);
            let mut best = f64::INFINITY;
            for a in 0..cuts.len() {
                for b in a..cuts.len() {
                    for c in b..cuts.len() {
                        best = best.min(regret(&[cuts[a], cuts[b], cuts[c]]));
                    }
                }
            }
            assert!(
                (learned - best).abs() < 1e-9,
                "DP not optimal: {learned} vs {best}"
            );
        }
    }

    #[test]
    fn trainer_end_to_end_on_contrasting_clips() {
        use adavp_video::scenario::Scenario;
        let mk = |s: Scenario, seed| {
            let mut spec = s.spec();
            spec.width = 240;
            spec.height = 140;
            spec.size_range = (20.0, 36.0);
            VideoClip::generate("train", &spec, seed, 90)
        };
        let clips = vec![mk(Scenario::Highway, 1), mk(Scenario::MeetingRoom, 2)];
        let cfg = TrainerConfig::default();
        let (model, examples) = train_adaptation_model_with(&clips, &cfg, &Executor::sequential());
        let t = model.thresholds_for(ModelSetting::Yolo512);
        assert!(t[0] <= t[1] && t[1] <= t[2]);
        // One sample list per clip and current setting, at most one sample
        // per 30-frame chunk.
        assert_eq!(examples.len(), 2);
        assert!(examples
            .iter()
            .flat_map(|(_, ex)| ex)
            .all(|ex| ex.len() <= 3));
    }

    #[test]
    fn parallel_training_is_bit_identical() {
        use adavp_video::scenario::Scenario;
        let mk = |s: Scenario, seed| {
            let mut spec = s.spec();
            spec.width = 200;
            spec.height = 120;
            spec.size_range = (18.0, 30.0);
            VideoClip::generate("train", &spec, seed, 60)
        };
        let clips = vec![
            mk(Scenario::Highway, 3),
            mk(Scenario::CityStreet, 4),
            mk(Scenario::MeetingRoom, 5),
        ];
        let cfg = TrainerConfig::default();
        let seq = train_adaptation_model_with(&clips, &cfg, &Executor::sequential());
        for jobs in [2, 4, 9] {
            let par = train_adaptation_model_with(&clips, &cfg, &Executor::new(jobs));
            // Debug renders every f64 in round-trip form: bitwise equality.
            assert_eq!(format!("{par:?}"), format!("{seq:?}"), "jobs={jobs}");
        }
    }
}
