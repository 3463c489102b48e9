//! Ablations of AdaVP's design choices (DESIGN.md §6).
//!
//! Each ablation swaps one mechanism for an alternative and measures the
//! dataset accuracy delta:
//!
//! * **parallelism** — MPDT vs MARLIN at the same setting (also Fig. 6);
//! * **tracking-frame selection** — the paper's adaptive fraction `p` vs
//!   plan-everything-and-cancel;
//! * **flow points** — one-point-per-box (the paper's latency trick) vs
//!   mean-of-all-features;
//! * **adaptation signal** — velocity-threshold switching vs fixed settings
//!   vs content-blind cycling;
//! * **per-setting thresholds** — the paper's per-current-setting threshold
//!   rows vs one shared row;
//! * **detection cadence** — MPDT's periodic re-detection vs the cascade's
//!   gated proposals vs CTD's confidence-triggered re-detection.

use crate::context::ExperimentContext;
use adavp_core::adaptation::AdaptationModel;
use adavp_core::eval::evaluate_on_clip;
use adavp_core::pipeline::{
    MarlinConfig, MarlinPipeline, MpdtPipeline, PipelineConfig, Scheme, SettingPolicy,
};
use adavp_core::tracker::FlowPoints;
use adavp_detector::{ModelSetting, SimulatedDetector};
use adavp_metrics::video::dataset_accuracy;

/// One ablation outcome: variant label → dataset accuracy.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Dataset accuracy under this variant.
    pub accuracy: f64,
}

/// The fixed setting every single-mechanism ablation runs MPDT at.
const MPDT_512: Scheme = Scheme::Mpdt(ModelSetting::Yolo512);

/// `scheme`'s memoized run, reported as `variant`.
fn memo_row(ctx: &mut ExperimentContext, variant: &str, scheme: &Scheme) -> AblationRow {
    AblationRow {
        variant: variant.to_string(),
        accuracy: ctx.run(scheme).accuracy,
    }
}

/// MPDT-512 under the context's pipeline configuration edited by `edit`.
fn mpdt512_with(
    ctx: &mut ExperimentContext,
    variant: &str,
    edit: impl FnOnce(&mut PipelineConfig),
) -> AblationRow {
    let mut pipeline = ctx.pipeline().clone();
    edit(&mut pipeline);
    AblationRow {
        variant: variant.to_string(),
        accuracy: ctx.run_with(&MPDT_512, &pipeline).accuracy,
    }
}

/// Adaptive tracking-frame selection vs plan-all-and-cancel.
pub fn frame_selection(ctx: &mut ExperimentContext) -> Vec<AblationRow> {
    vec![
        memo_row(ctx, "adaptive fraction p (paper)", &MPDT_512),
        mpdt512_with(ctx, "plan all, rely on cancel", |p| {
            p.adaptive_selection = false;
        }),
    ]
}

/// One-point-per-box vs mean-of-features box motion.
pub fn flow_points(ctx: &mut ExperimentContext) -> Vec<AblationRow> {
    vec![
        memo_row(ctx, "one point per box (paper)", &MPDT_512),
        mpdt512_with(ctx, "mean of all features", |p| {
            p.tracker.flow_points = FlowPoints::MeanOfBox;
        }),
    ]
}

/// Velocity-driven adaptation vs fixed vs content-blind cycling.
pub fn adaptation_signal(ctx: &mut ExperimentContext) -> Vec<AblationRow> {
    let adavp = Scheme::AdaVp(ctx.adaptation_model().clone());
    vec![
        memo_row(ctx, "velocity thresholds (AdaVP)", &adavp),
        memo_row(ctx, "fixed 512", &MPDT_512),
        cycling_row(ctx),
    ]
}

/// MPDT under content-blind setting cycling: the one ablation variant that
/// no [`Scheme`] names.
fn cycling_row(ctx: &mut ExperimentContext) -> AblationRow {
    let eval = ctx.eval();
    let det = ctx.detector().clone();
    let pipeline = ctx.pipeline().clone();
    let exec = ctx.exec;
    let per_video: Vec<f64> = exec.map(ctx.test_clips(), |_, clip| {
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(det.clone()),
            SettingPolicy::Cycling,
            pipeline.clone(),
        );
        evaluate_on_clip(&mut p, clip, &eval).accuracy
    });
    AblationRow {
        variant: "content-blind cycling".to_string(),
        accuracy: dataset_accuracy(&per_video),
    }
}

/// Per-current-setting threshold rows vs a single shared row.
pub fn threshold_sharing(ctx: &mut ExperimentContext) -> Vec<AblationRow> {
    let per_setting = ctx.adaptation_model().clone();
    let shared = AdaptationModel::uniform(per_setting.thresholds_for(ModelSetting::Yolo512));
    vec![
        memo_row(
            ctx,
            "per-setting thresholds (paper)",
            &Scheme::AdaVp(per_setting),
        ),
        memo_row(ctx, "shared thresholds", &Scheme::AdaVp(shared)),
    ]
}

/// Sweeps MARLIN's content-change trigger threshold, returning
/// `(threshold, accuracy)` — how the paper picked its detector trigger.
pub fn marlin_trigger_sweep(ctx: &mut ExperimentContext, thresholds: &[f64]) -> Vec<(f64, f64)> {
    let eval = ctx.eval();
    let det = ctx.detector().clone();
    let pipe = ctx.pipeline().clone();
    let exec = ctx.exec;
    let clips = ctx.test_clips();
    // Fan the full (threshold × clip) grid out as one flat job list so the
    // pool stays saturated across sweep points, then fold per threshold.
    let jobs: Vec<(usize, usize)> = (0..thresholds.len())
        .flat_map(|ti| (0..clips.len()).map(move |ci| (ti, ci)))
        .collect();
    let accuracies: Vec<f64> = exec.map(&jobs, |_, &(ti, ci)| {
        let mut p = MarlinPipeline::new(
            SimulatedDetector::new(det.clone()),
            ModelSetting::Yolo512,
            pipe.clone(),
            MarlinConfig {
                trigger_velocity: thresholds[ti],
                ..MarlinConfig::default()
            },
        );
        evaluate_on_clip(&mut p, &clips[ci], &eval).accuracy
    });
    accuracies
        .chunks(clips.len().max(1))
        .zip(thresholds)
        .map(|(per_video, &t)| (t, dataset_accuracy(per_video)))
        .collect()
}

/// Parallel (MPDT) vs sequential (MARLIN) at the same setting.
pub fn parallelism(ctx: &mut ExperimentContext) -> Vec<AblationRow> {
    [MPDT_512, Scheme::Marlin(ModelSetting::Yolo512)]
        .iter()
        .map(|s| memo_row(ctx, &s.label(), s))
        .collect()
}

/// Detector-invocation cadence: periodic (MPDT) vs proposal-gated
/// (Cascade) vs confidence-triggered (CTD) at the same full setting.
/// Returns `(row, detector_invocations)` per scheme so reports can show
/// how much detector work each trigger policy buys its accuracy with.
pub fn detection_cadence(ctx: &mut ExperimentContext) -> Vec<(AblationRow, usize)> {
    let s = ModelSetting::Yolo512;
    [Scheme::Mpdt(s), Scheme::Cascade(s), Scheme::Ctd(s)]
        .iter()
        .map(|scheme| {
            let r = ctx.run(scheme);
            let cycles: usize = r.evaluations.iter().map(|e| e.trace.cycles.len()).sum();
            let row = AblationRow {
                variant: r.label.clone(),
                accuracy: r.accuracy,
            };
            (row, cycles)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_video::dataset::DatasetScale;

    #[test]
    fn ablations_run_at_smoke_scale() {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        ctx.set_adaptation_model(AdaptationModel::default_model());
        let fs = frame_selection(&mut ctx);
        assert_eq!(fs.len(), 2);
        for r in fs.iter().chain(&flow_points(&mut ctx)) {
            assert!(
                (0.0..=1.0).contains(&r.accuracy),
                "{}: {}",
                r.variant,
                r.accuracy
            );
        }
        let sweep = marlin_trigger_sweep(&mut ctx, &[1.0, 3.0]);
        assert_eq!(sweep.len(), 2);
    }

    #[test]
    fn cadence_ablation_orders_detector_work() {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        ctx.set_adaptation_model(AdaptationModel::default_model());
        ctx.limit_test_clips(1);
        let rows = detection_cadence(&mut ctx);
        assert_eq!(rows.len(), 3);
        let get = |prefix: &str| {
            rows.iter()
                .find(|(r, _)| r.variant.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix}"))
        };
        let (_, mpdt_cycles) = get("MPDT");
        let (_, ctd_cycles) = get("CTD");
        assert!(
            ctd_cycles < mpdt_cycles,
            "CTD must re-detect less often than MPDT ({ctd_cycles} vs {mpdt_cycles})"
        );
        for (r, _) in &rows {
            assert!((0.0..=1.0).contains(&r.accuracy), "{}", r.variant);
        }
    }
}
