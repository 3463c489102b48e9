//! Golden pins of every figure, table and ablation that reads whole-test-set
//! scheme runs, including the ablations that rerun MPDT-512 under an edited
//! pipeline configuration, plus the outputs that read the calibrations
//! behind those runs: Table II's modeled tracker latencies, Fig. 1's
//! detector error model, the fault sweep's degradation rules, the
//! thresholds the offline trainer learns and the adaptation audit of them.
//! A smoke context (three test clips, the default adaptation model) is run
//! once; each output's `{:?}` rendering is digested with FNV-1a, so any
//! change to how the runs are computed, shared or rescored that moves a
//! single bit of a result fails here.

use adavp_bench::context::ExperimentContext;
use adavp_bench::runner::SchemeResult;
use adavp_bench::{ablations, audit, faults, figures, tables};
use adavp_core::adaptation::{train_adaptation_model_with, AdaptationModel, TrainerConfig};
use adavp_detector::ModelSetting;
use adavp_rng::{fnv1a, FNV1A_OFFSET};
use adavp_video::dataset::{render_all, training_set, DatasetScale};
use adavp_vision::exec::Executor;
use std::borrow::Borrow;
use std::fmt::Write as _;

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(FNV1A_OFFSET, format!("{value:?}").as_bytes())
}

/// Digest of scheme rows on their reported fields (the per-clip traces
/// behind them are pinned by the figures that read them).
fn scheme_rows<R: Borrow<SchemeResult>>(results: &[R]) -> u64 {
    let mut out = String::new();
    for r in results {
        let r = r.borrow();
        let _ = writeln!(
            out,
            "{} {:?} {:?} {:?} {:?}",
            r.label, r.accuracy, r.per_video_accuracy, r.energy, r.latency_multiplier
        );
    }
    fnv1a(FNV1A_OFFSET, out.as_bytes())
}

/// Table II's modeled latencies (the measured wall-clock column varies
/// run to run and is left out).
fn table2_modeled() -> u64 {
    let rows: Vec<_> = tables::table2()
        .into_iter()
        .map(|r| (r.component, r.modeled_ms))
        .collect();
    digest(&rows)
}

/// The thresholds the offline trainer learns from the first four smoke
/// training clips, per current setting, and the adaptation audit of that
/// training over the context's test clips.
fn trained_thresholds_and_audit(ctx: &mut ExperimentContext) -> (u64, u64) {
    let exec = Executor::sequential();
    let clips = render_all(&training_set(DatasetScale::Smoke)[..4], &exec);
    let (model, examples) = train_adaptation_model_with(&clips, &TrainerConfig::default(), &exec);
    (
        digest(&ModelSetting::ADAPTIVE.map(|s| model.thresholds_for(s))),
        digest(&audit::audit_with(ctx, &model, &examples)),
    )
}

#[test]
fn figures_tables_and_ablations_match_their_golden_digests() {
    let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
    ctx.set_adaptation_model(AdaptationModel::default_model());
    ctx.limit_test_clips(3);

    let fig6 = figures::fig6(&mut ctx);
    let (thresholds, audit) = trained_thresholds_and_audit(&mut ctx);

    let actual: Vec<(&str, u64)> = vec![
        ("fig5", digest(&figures::fig5(&mut ctx, 40))),
        ("fig6", scheme_rows(&fig6)),
        ("fig7", digest(&figures::fig7(&mut ctx))),
        ("fig8", digest(&figures::fig8(&mut ctx))),
        ("fig9", digest(&figures::fig9(&mut ctx))),
        ("fig10", digest(&figures::fig10(&fig6))),
        ("fig11", digest(&figures::fig11(&mut ctx))),
        ("table3", scheme_rows(&tables::table3(&mut ctx))),
        ("parallelism", digest(&ablations::parallelism(&mut ctx))),
        (
            "detection_cadence",
            digest(&ablations::detection_cadence(&mut ctx)),
        ),
        (
            "adaptation_signal",
            digest(&ablations::adaptation_signal(&mut ctx)),
        ),
        (
            "threshold_sharing",
            digest(&ablations::threshold_sharing(&mut ctx)),
        ),
        (
            "frame_selection",
            digest(&ablations::frame_selection(&mut ctx)),
        ),
        ("flow_points", digest(&ablations::flow_points(&mut ctx))),
        ("table2", table2_modeled()),
        ("fig1", digest(&figures::fig1(&mut ctx, 60))),
        ("fault_sweep", digest(&faults::fault_sweep(&mut ctx))),
        ("trained_thresholds", thresholds),
        ("adaptation_audit", audit),
    ];
    let golden: [(&str, u64); 19] = [
        ("fig5", 0xbc229eb2ea93b7a1),
        ("fig6", 0x9bdfd023d62bb11b),
        ("fig7", 0x47fdae03657dbfb9),
        ("fig8", 0x376606eaf675df82),
        ("fig9", 0x0815fc0f4b8b5558),
        ("fig10", 0x817d126cb839f634),
        ("fig11", 0xfcf2d2bbf9574480),
        ("table3", 0xebdf70b185ba5da3),
        ("parallelism", 0x727670440fe0a5e6),
        ("detection_cadence", 0x417d4df3dcc18556),
        ("adaptation_signal", 0xfef76d2b76977bbb),
        ("threshold_sharing", 0xa82c44e0d0df401d),
        ("frame_selection", 0x9c804740b53448b2),
        ("flow_points", 0xa7e8a93339c7e8aa),
        ("table2", 0x174f6fcbb280635e),
        ("fig1", 0xda6bcb6fd0da9048),
        ("fault_sweep", 0x41b5869d8a7c17a7),
        ("trained_thresholds", 0xb6820e2cc7aed9cb),
        ("adaptation_audit", 0xde9446d6a690f962),
    ];
    let report: String = actual
        .iter()
        .map(|(name, d)| format!("(\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(actual, golden, "digests moved; actual:\n{report}");
}
