//! End-to-end determinism of the parallel harness: every fan-out point
//! (clip rendering, threshold training, scheme evaluation) must produce
//! results byte-identical to the sequential run for any jobs count.

use adavp_bench::context::ExperimentContext;
use adavp_bench::report::{f3, write_csv};
use adavp_bench::{audit, figures};
use adavp_core::adaptation::{train_adaptation_model_with, TrainerConfig};
use adavp_detector::ModelSetting;
use adavp_video::dataset::{render_all, training_set, DatasetScale};
use adavp_vision::exec::Executor;

#[test]
fn jobs_do_not_change_results() {
    let seq = Executor::sequential();
    let par = Executor::new(4);

    // 1. Clip rendering: pixel-identical across jobs.
    let specs: Vec<_> = training_set(DatasetScale::Smoke)
        .into_iter()
        .take(6)
        .collect();
    let clips_seq = render_all(&specs, &seq);
    let clips_par = render_all(&specs, &par);
    for (a, b) in clips_seq.iter().zip(&clips_par) {
        assert_eq!(a.name(), b.name());
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.image, fb.image, "{}", a.name());
        }
    }

    // 2. Threshold training: bitwise-identical thresholds and chunk samples
    // across jobs (Debug prints every f64 in round-trip form).
    let cfg = TrainerConfig::default();
    let (model_seq, examples_seq) = train_adaptation_model_with(&clips_seq, &cfg, &seq);
    let (model_par, examples_par) = train_adaptation_model_with(&clips_par, &cfg, &par);
    assert_eq!(model_seq, model_par);
    assert_eq!(format!("{examples_seq:?}"), format!("{examples_par:?}"));
    for s in ModelSetting::ADAPTIVE {
        let (a, b) = (model_seq.thresholds_for(s), model_par.thresholds_for(s));
        for k in 0..3 {
            assert_eq!(a[k].to_bits(), b[k].to_bits(), "threshold bits at {s}[{k}]");
        }
    }

    // 3. Scheme evaluation: the fig6 result CSV is byte-identical for
    // jobs 1 vs jobs 4. Rows carry full-precision per-video accuracies
    // (f64 Display round-trips), so byte equality means bit equality. The
    // adaptation audit of each side's training, a fold over those runs,
    // writes a byte-identical CSV too.
    let run = |jobs: usize, tag: &str, training| {
        let mut ctx = ExperimentContext::with_jobs(DatasetScale::Smoke, jobs);
        // Training parity is asserted above; share one model here so this
        // stage isolates evaluation.
        ctx.set_adaptation_model(model_seq.clone());
        ctx.limit_test_clips(5);
        let results = figures::fig6(&mut ctx);
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                let mut row = vec![r.label.clone(), f3(r.accuracy)];
                row.extend(r.per_video_accuracy.iter().map(|a| format!("{a}")));
                row
            })
            .collect();
        let path = std::env::temp_dir().join(format!("adavp_determinism_{tag}.csv"));
        write_csv(&path, &["scheme", "accuracy"], &rows).expect("write csv");
        let audit_rows = audit::csv_rows(&audit::audit_with(&mut ctx, &model_seq, training));
        let audit_path = std::env::temp_dir().join(format!("adavp_audit_{tag}.csv"));
        write_csv(&audit_path, &audit::HEADER, &audit_rows).expect("write csv");
        let read = |p| std::fs::read(p).expect("read csv");
        (read(&path), read(&audit_path))
    };
    let (csv_seq, audit_seq) = run(1, "jobs1", &examples_seq);
    let (csv_par, audit_par) = run(4, "jobs4", &examples_par);
    assert_eq!(
        csv_seq, csv_par,
        "fig6 result CSV must be byte-identical for jobs 1 vs jobs 4"
    );
    assert_eq!(
        audit_seq, audit_par,
        "adaptation audit CSV must be byte-identical for jobs 1 vs jobs 4"
    );
    // The fig6 grid includes the cascaded and confidence-triggered schemes,
    // so the byte-identity above covers them too; pin their presence so a
    // grid regression can't silently drop that coverage.
    let text = String::from_utf8(csv_seq).expect("csv is utf-8");
    for label in ["Cascade-YOLOv3-512", "CTD-YOLOv3-512"] {
        assert!(text.contains(label), "fig6 CSV lost the {label} row");
    }
}

/// The two confidence-driven schemes ride the same determinism contract as
/// the rest of the harness: their serialized traces are byte-identical for
/// jobs 1 vs jobs 4.
#[test]
fn new_scheme_traces_byte_identical_across_jobs() {
    use adavp_bench::runner::run_scheme;
    use adavp_core::eval::EvalConfig;
    use adavp_core::export::trace_to_json;
    use adavp_core::pipeline::PipelineConfig;
    use adavp_core::pipeline::Scheme;
    use adavp_detector::DetectorConfig;
    use adavp_video::clip::VideoClip;
    use adavp_video::scenario::Scenario;

    let mut spec = Scenario::Intersection.spec();
    spec.width = 200;
    spec.height = 120;
    spec.size_range = (18.0, 30.0);
    let clips: Vec<VideoClip> = (0..4)
        .map(|i| VideoClip::generate(&format!("c{i}"), &spec, 7 + i, 40))
        .collect();
    for scheme in [
        Scheme::Cascade(ModelSetting::Yolo512),
        Scheme::Ctd(ModelSetting::Yolo512),
    ] {
        let render = |jobs: usize| -> Vec<String> {
            let r = run_scheme(
                &scheme,
                &clips,
                &DetectorConfig::default(),
                &PipelineConfig::default(),
                &EvalConfig::default(),
                &Executor::new(jobs),
            );
            r.evaluations
                .iter()
                .map(|e| trace_to_json(&e.trace, Some(&e.frame_f1)))
                .collect()
        };
        let seq = render(1);
        let par = render(4);
        assert_eq!(
            seq,
            par,
            "{}: trace JSON must be byte-identical for jobs 1 vs jobs 4",
            scheme.label()
        );
    }
}

/// Telemetry rides the same contract: spans and events are stamped with
/// virtual sim time by a per-run recorder, so the Chrome trace-event JSON
/// rendered from a scheme's telemetry logs must be byte-identical for
/// jobs 1 vs jobs 4 (and the export must carry all three resource tracks).
#[test]
fn chrome_trace_bytes_identical_across_jobs() {
    use adavp_bench::runner::run_scheme;
    use adavp_core::eval::EvalConfig;
    use adavp_core::pipeline::PipelineConfig;
    use adavp_core::pipeline::Scheme;
    use adavp_core::telemetry::chrome::chrome_trace_json;
    use adavp_core::telemetry::TelemetryConfig;
    use adavp_detector::DetectorConfig;
    use adavp_video::clip::VideoClip;
    use adavp_video::scenario::Scenario;

    let mut spec = Scenario::Intersection.spec();
    spec.width = 200;
    spec.height = 120;
    spec.size_range = (18.0, 30.0);
    let clips: Vec<VideoClip> = (0..4)
        .map(|i| VideoClip::generate(&format!("c{i}"), &spec, 7 + i, 40))
        .collect();
    let pipe = PipelineConfig {
        telemetry: TelemetryConfig::enabled(),
        ..PipelineConfig::default()
    };
    let render = |jobs: usize| {
        let r = run_scheme(
            &Scheme::AdaVp(adavp_core::adaptation::AdaptationModel::default_model()),
            &clips,
            &DetectorConfig::default(),
            &pipe,
            &EvalConfig::default(),
            &Executor::new(jobs),
        );
        let labeled: Vec<(&str, _)> = clips
            .iter()
            .zip(&r.evaluations)
            .map(|(c, e)| (c.name(), &e.trace.telemetry))
            .collect();
        chrome_trace_json(&labeled)
    };
    let seq = render(1);
    let par = render(4);
    assert_eq!(
        seq, par,
        "chrome trace JSON must be byte-identical for jobs 1 vs jobs 4"
    );
    // The export is non-trivial: all three resource tracks, real spans.
    for track in ["gpu detector", "cpu tracker", "camera"] {
        assert!(seq.contains(track), "missing track {track}");
    }
    assert!(seq.contains("\"ph\": \"X\""), "no spans exported");
}

/// The fault sweep is part of the same contract: one committed fault
/// profile, run at jobs 1 and jobs 4 and twice at the same jobs count,
/// must render byte-identical CSV and JSON reports. Fault decisions are
/// hash-keyed on (seed, kind, index) rather than drawn from a shared RNG
/// stream, so neither scheduling nor clip order can perturb them.
#[test]
fn fault_sweep_is_deterministic_across_jobs() {
    use adavp_bench::faults::{
        parse_profile_fixture, sweep_rows, sweep_to_json, sweep_with, FaultScenario, SWEEP_HEADER,
    };
    use adavp_core::adaptation::AdaptationModel;

    let fixture = include_str!("fixtures/stress_profile.txt");
    let profile = parse_profile_fixture(fixture).expect("fixture parses");
    assert!(!profile.is_quiet(), "fixture must inject faults");
    let scenarios = [FaultScenario {
        name: "fixture",
        profile,
    }];

    let run = |jobs: usize, tag: &str| {
        let mut ctx = ExperimentContext::with_jobs(DatasetScale::Smoke, jobs);
        ctx.set_adaptation_model(AdaptationModel::default_model());
        ctx.limit_test_clips(3);
        let rows = sweep_with(&mut ctx, &scenarios);
        let path = std::env::temp_dir().join(format!("adavp_fault_determinism_{tag}.csv"));
        write_csv(&path, &SWEEP_HEADER, &sweep_rows(&rows)).expect("write csv");
        (
            std::fs::read(&path).expect("read csv"),
            sweep_to_json(&rows),
        )
    };

    let (csv_a, json_a) = run(1, "jobs1");
    let (csv_b, json_b) = run(4, "jobs4");
    let (csv_c, json_c) = run(4, "jobs4_again");
    assert_eq!(
        csv_a, csv_b,
        "fault sweep CSV must be byte-identical for jobs 1 vs jobs 4"
    );
    assert_eq!(json_a, json_b, "fault sweep JSON must not depend on jobs");
    assert_eq!(csv_b, csv_c, "fault sweep must be run-to-run stable");
    assert_eq!(json_b, json_c);

    // The sweep under this profile must actually exercise the fault paths
    // (otherwise the byte-equality above pins nothing interesting).
    let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
    ctx.set_adaptation_model(AdaptationModel::default_model());
    ctx.limit_test_clips(3);
    let rows = sweep_with(&mut ctx, &scenarios);
    assert!(
        rows.iter().any(|r| r.faulted_cycles > 0),
        "fixture profile produced no faulted cycles"
    );
    assert!(
        rows.iter().any(|r| r.dropped_fraction > 0.0),
        "fixture profile dropped no frames"
    );
}
