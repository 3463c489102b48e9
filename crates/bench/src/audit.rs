//! The adaptation audit (§IV-D3): the trainer's 1-second chunk labels, the
//! thresholds it fitted to them, and AdaVP's test-set run next to a
//! per-chunk hindsight oracle. It is a pure fold over the trainer's chunk
//! samples and the memoized AdaVP and MPDT-320/416/512/608 runs, so after
//! Fig. 6 it renders, trains and runs nothing.
//!
//! Rows are `(section, subject, metric, value)`; `<s>` is an input size:
//!
//! | section | subject | metrics |
//! |---|---|---|
//! | `setting` | current setting | `chunks`; `best_<s>_chunks` and `best_<s>_velocity` (mean px/frame) by best setting; thresholds `v1`…`v3`; mean chunk regret of the `always_608`, `learned` and `leave_one_clip_out` fits |
//! | `f1_608_minus_512` | `chunks` | `q10`, `median`, `q90` of the per-chunk difference |
//! | `train_clip` | clip | `chunk_accuracy_<s>`: mean chunk accuracy of MPDT at `<s>` |
//! | `test_clip` | clip or `dataset` | accuracy of `adavp`, `mpdt_608` and `oracle`; `oracle_share`; AdaVP's `cycles_<s>` and `mean_velocity` |
//!
//! `oracle` takes each chunk from whichever MPDT run scored it best. It is
//! an approximate upper bound: a real switch shifts the cycle alignment,
//! so no scheme can splice the runs this way. `oracle_share` is AdaVP's
//! share of the oracle's gain over MPDT-608. Chunk accuracy is
//! [`chunk_accuracy`] on both sides; an undefined value (no chunks, no
//! gain) is an empty cell.

use crate::context::ExperimentContext;
use adavp_core::adaptation::trainer::CHUNK_FRAMES;
use adavp_core::adaptation::{
    chunk_accuracy, learn_thresholds, AdaptationModel, ClipExamples, TrainingExample,
};
use adavp_core::pipeline::Scheme;
use adavp_detector::ModelSetting;

/// The CSV header of [`adaptation_audit`]'s rows.
pub const HEADER: [&str; 4] = ["section", "subject", "metric", "value"];

/// One audit figure.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRow {
    /// `setting`, `f1_608_minus_512`, `train_clip` or `test_clip`.
    pub section: &'static str,
    /// The current setting, clip name, `chunks` or `dataset`.
    pub subject: String,
    /// What `value` measures.
    pub metric: String,
    /// The figure (NaN when undefined).
    pub value: f64,
}

/// The audit of the context's trained model (training it on first use).
pub fn adaptation_audit(ctx: &mut ExperimentContext) -> Vec<AuditRow> {
    let model = ctx.adaptation_model().clone();
    let training = ctx.training_examples().to_vec();
    audit_with(ctx, &model, &training)
}

/// The audit of `model`, trained on the `training` samples, with the
/// test-set runs read from the context's memo.
pub fn audit_with(
    ctx: &mut ExperimentContext,
    model: &AdaptationModel,
    training: &[ClipExamples],
) -> Vec<AuditRow> {
    let mut rows = Vec::new();
    let mut put = |section, subject: &str, metric: &str, value| {
        rows.push(AuditRow {
            section,
            subject: subject.into(),
            metric: metric.into(),
            value,
        });
    };
    // Samples index settings as `ModelSetting::ADAPTIVE` (320 … 608), and
    // `f1_by_class` in velocity order (608 … 320).
    let size = |si: usize| ModelSetting::ADAPTIVE[si].input_size();
    let under = |si: usize| {
        training
            .iter()
            .flat_map(move |(_, ex)| ex[si].iter().copied())
    };

    for (si, current) in ModelSetting::ADAPTIVE.into_iter().enumerate() {
        let sub = &current.to_string();
        let samples: Vec<TrainingExample> = under(si).collect();
        put("setting", sub, "chunks", samples.len() as f64);
        for class in 0..4 {
            let v: Vec<f64> = samples
                .iter()
                .filter(|e| e.best_class() == class)
                .map(|e| e.velocity)
                .collect();
            let s = size(3 - class);
            put("setting", sub, &format!("best_{s}_chunks"), v.len() as f64);
            put("setting", sub, &format!("best_{s}_velocity"), mean(&v));
        }
        let learned = model.thresholds_for(current);
        for (k, t) in learned.into_iter().enumerate() {
            put("setting", sub, &format!("v{}", k + 1), t);
        }
        // Leave one clip out: thresholds fitted to every other clip's
        // chunks, regret summed over the held-out clip's.
        let (mut loo, mut start) = (0.0, 0);
        for (_, ex) in training {
            let (held, end) = (&ex[si], start + ex[si].len());
            let rest = [&samples[..start], &samples[end..]].concat();
            loo += regret_sum(held, learn_thresholds(&rest));
            start = end;
        }
        let n = samples.len() as f64;
        for (fit, total) in [
            ("always_608", regret_sum(&samples, [f64::INFINITY; 3])),
            ("learned", regret_sum(&samples, learned)),
            ("leave_one_clip_out", loo),
        ] {
            put("setting", sub, &format!("regret_{fit}"), total / n);
        }
    }

    // Each chunk once: the samples measured under 608.
    let mut diff: Vec<f64> = under(3)
        .map(|e| e.f1_by_class[0] - e.f1_by_class[1])
        .collect();
    diff.sort_by(f64::total_cmp);
    for (metric, q) in [("q10", 0.1), ("median", 0.5), ("q90", 0.9)] {
        let rank = ((diff.len().max(1) - 1) as f64 * q).round() as usize;
        let value = diff.get(rank).copied().unwrap_or(f64::NAN);
        put("f1_608_minus_512", "chunks", metric, value);
    }

    for (name, ex) in training {
        for (si, samples) in ex.iter().enumerate() {
            let acc: Vec<f64> = samples.iter().map(|e| e.f1_by_class[3 - si]).collect();
            let metric = format!("chunk_accuracy_{}", size(si));
            put("train_clip", name, &metric, mean(&acc));
        }
    }

    let adavp = ctx.run(&Scheme::AdaVp(model.clone()));
    let mpdt = ModelSetting::ADAPTIVE.map(|s| ctx.run(&Scheme::Mpdt(s)));
    let mut test_rows = |sub: &str, [a, m, o]: [f64; 3], cycles: [f64; 4], vel: &[f64]| {
        put("test_clip", sub, "adavp", a);
        put("test_clip", sub, "mpdt_608", m);
        put("test_clip", sub, "oracle", o);
        put("test_clip", sub, "oracle_share", (a - m) / (o - m));
        for (si, c) in cycles.into_iter().enumerate() {
            put("test_clip", sub, &format!("cycles_{}", size(si)), c);
        }
        put("test_clip", sub, "mean_velocity", mean(vel));
    };
    let (mut oracles, mut all_cycles, mut all_vel) = (Vec::new(), [0.0f64; 4], Vec::new());
    for (i, clip) in ctx.test_clips().iter().enumerate() {
        let chunks = mpdt
            .each_ref()
            .map(|r| chunk_accuracy(&r.evaluations[i].frame_f1));
        let frames = clip.len();
        let good: f64 = (0..chunks[0].len())
            .map(|ci| {
                let len = (frames - ci * CHUNK_FRAMES).min(CHUNK_FRAMES);
                chunks.iter().map(|c| c[ci]).fold(0.0, f64::max) * len as f64
            })
            .sum();
        let oracle = good / frames.max(1) as f64;
        oracles.push(oracle);
        let (mut cycles, mut vel) = ([0.0f64; 4], Vec::new());
        for cy in &adavp.evaluations[i].trace.cycles {
            if let Some(k) = cy.setting.adaptive_index() {
                cycles[k] += 1.0;
                all_cycles[k] += 1.0;
            }
            vel.extend(cy.velocity);
        }
        all_vel.extend_from_slice(&vel);
        let (a, m) = (adavp.per_video_accuracy[i], mpdt[3].per_video_accuracy[i]);
        test_rows(clip.name(), [a, m, oracle], cycles, &vel);
    }
    let acc = [adavp.accuracy, mpdt[3].accuracy, mean(&oracles)];
    test_rows("dataset", acc, all_cycles, &all_vel);
    rows
}

/// Total regret over `samples` of the velocity-order class that thresholds
/// `t` pick, as [`AdaptationModel::decide`] does (`v <= v1` → 608, …).
fn regret_sum(samples: &[TrainingExample], t: [f64; 3]) -> f64 {
    samples
        .iter()
        .map(|e| e.regret(t.iter().filter(|&&x| e.velocity > x).count()))
        .sum()
}

/// Mean of `v`; NaN when `v` is empty.
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The audit's CSV cells: integral values without decimals, the rest to
/// four places, undefined ones empty.
pub fn csv_rows(rows: &[AuditRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            let value = match r.value {
                v if !v.is_finite() => String::new(),
                v if v.fract() == 0.0 => format!("{v:.0}"),
                v => format!("{v:.4}"),
            };
            vec![r.section.into(), r.subject.clone(), r.metric.clone(), value]
        })
        .collect()
}
