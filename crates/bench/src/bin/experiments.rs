//! Regenerates the AdaVP paper's tables and figures.
//!
//! ```text
//! experiments <fig1|fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table2|table3|faults|
//!              ablations|marlin-sweep|diag|diag-train|diag-moderate|all>...
//!             [--scale smoke|standard|full] [--out results] [--jobs N]
//! ```
//!
//! Each experiment prints an aligned table and writes a CSV under `--out`
//! (default `results`). `all` runs every experiment except `ablations`,
//! `marlin-sweep` and the `diag*` printouts. The whole line is checked by
//! [`adavp_bench::cli::parse_args`] before the first experiment runs: an
//! unknown name or flag, a missing or empty value, a repeated flag or
//! `--jobs 0` exits with status 2. `--jobs N` bounds harness concurrency
//! (clip rendering, threshold training, per-clip scheme evaluation);
//! results are bit-identical for every value, so it only changes
//! wall-clock. Defaults to the core count.

use adavp_bench::ablations as abl;
use adavp_bench::cli::{parse_args, ExperimentsArgs};
use adavp_bench::context::ExperimentContext;
use adavp_bench::figures;
use adavp_bench::report::{f1 as fmt1, f3, text_table, write_csv};
use adavp_bench::runner::{run_scheme, SchemeResult};
use adavp_bench::tables;
use adavp_core::pipeline::Scheme;
use adavp_detector::ModelSetting;
use adavp_video::clip::VideoClip;
use adavp_video::dataset::DatasetScale;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ExperimentsArgs {
        experiments,
        scale,
        out,
        jobs,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // Every scheme runs over the test set at most once: figures, tables
    // and ablations read the context's memoized runs.
    let mut ctx = ExperimentContext::with_jobs(scale, jobs);

    let run_start = Instant::now();
    for name in experiments {
        let t0 = Instant::now();
        let before = ctx.timings();
        println!("== {name} (scale {scale:?}, jobs {jobs}) ==");
        match name {
            "fig1" => fig1(&mut ctx, &out),
            "fig2" => fig2(&out),
            "table2" => table2(&out),
            "fig5" => fig5(&mut ctx, &out),
            "fig6" => fig6(&mut ctx, &out),
            "fig7" => fig7(&mut ctx, &out),
            "fig8" => fig8(&mut ctx, &out),
            "fig9" => fig9(&mut ctx, &out),
            "fig10" => fig10(&figures::fig6(&mut ctx), &out),
            "fig11" => fig11(&mut ctx, &out),
            "table3" => table3(&mut ctx, &out),
            "faults" => faults(&mut ctx, &out),
            "ablations" => ablations(&mut ctx, &out),
            "marlin-sweep" => marlin_sweep(&mut ctx, &out),
            "diag" => diag(&mut ctx),
            "diag-train" => diag_train(&mut ctx),
            "diag-moderate" => diag_moderate(&mut ctx),
            other => unreachable!("experiment {other} passed the name check"),
        }
        // Whatever this experiment spent beyond rendering and training is
        // scheme evaluation (plus table formatting, which is negligible).
        let after = ctx.timings();
        let elapsed = t0.elapsed().as_secs_f64();
        let phase = elapsed - (after.render_s - before.render_s) - (after.train_s - before.train_s);
        ctx.note_eval_secs(phase.max(0.0));
        println!("   [{name} took {elapsed:.1}s]\n");
    }
    let t = ctx.timings();
    println!(
        "phase wall-clock: render {:.1}s | train {:.1}s | eval {:.1}s | total {:.1}s (jobs {jobs})",
        t.render_s,
        t.train_s,
        t.eval_s,
        run_start.elapsed().as_secs_f64(),
    );
    // Worker-thread counters fold into this thread at each Executor::map, so
    // one snapshot here covers the whole run regardless of --jobs.
    let kernels = adavp_vision::perf::snapshot().counts();
    if let Some(rate) = kernels.scratch_hit_rate() {
        println!(
            "scratch pool: {:.1}% buffer reuse ({} reused / {} allocated)",
            rate * 100.0,
            kernels.buffers_reused,
            kernels.buffers_allocated,
        );
    }
}

fn diag_moderate(ctx: &mut ExperimentContext) {
    use adavp_video::scenario::Scenario;
    let mut sum = [0.0f64; 2];
    let mut n = 0;
    for scenario in [
        Scenario::CityStreet,
        Scenario::Intersection,
        Scenario::CarMountedDowntown,
    ] {
        for seed in [11u64, 22, 33] {
            let clip = VideoClip::generate("m", &scenario.spec(), seed, 600);
            let [a, b] = mpdt_512_608(ctx, std::slice::from_ref(&clip));
            println!(
                "{:<22} seed {seed}: 512 {:.3} | 608 {:.3}",
                scenario.spec().name,
                a.accuracy,
                b.accuracy
            );
            sum[0] += a.accuracy;
            sum[1] += b.accuracy;
            n += 1;
        }
    }
    println!(
        "moderate band mean over {n} clips: 512 {:.3} | 608 {:.3}",
        sum[0] / n as f64,
        sum[1] / n as f64
    );
}

/// MPDT-512 and MPDT-608 over clips outside the test set, under the
/// context's configuration.
fn mpdt_512_608(ctx: &ExperimentContext, clips: &[VideoClip]) -> [SchemeResult; 2] {
    [ModelSetting::Yolo512, ModelSetting::Yolo608].map(|s| {
        run_scheme(
            &Scheme::Mpdt(s),
            clips,
            ctx.detector(),
            ctx.pipeline(),
            &ctx.eval(),
            &ctx.exec,
        )
    })
}

fn diag_train(ctx: &mut ExperimentContext) {
    let clips = ctx.train_clips().to_vec();
    let [m512, m608] = mpdt_512_608(ctx, &clips);
    println!("per-training-video accuracy (512 / 608):");
    for (i, clip) in clips.iter().enumerate() {
        println!(
            "  {:<30} {:.3} / {:.3}",
            clip.name(),
            m512.per_video_accuracy[i],
            m608.per_video_accuracy[i]
        );
    }
    println!(
        "train dataset: 512 {:.3} | 608 {:.3}",
        m512.accuracy, m608.accuracy
    );
}

fn diag(ctx: &mut ExperimentContext) {
    let model = ctx.adaptation_model().clone();
    println!("trained thresholds (current setting -> [v1 v2 v3]):");
    for s in ModelSetting::ADAPTIVE {
        let t = model.thresholds_for(s);
        println!("  {s}: [{:.2} {:.2} {:.2}]", t[0], t[1], t[2]);
    }
    let adavp = ctx.run(&Scheme::AdaVp(model));
    let m512 = ctx.run(&Scheme::Mpdt(ModelSetting::Yolo512));
    let m608 = ctx.run(&Scheme::Mpdt(ModelSetting::Yolo608));
    println!("\nper-video accuracy (AdaVP / MPDT-512 / MPDT-608) + AdaVP usage:");
    for (i, clip) in ctx.test_clips().iter().enumerate() {
        let trace = &adavp.evaluations[i].trace;
        let mut counts = [0usize; 4];
        for cy in &trace.cycles {
            if let Some(k) = cy.setting.adaptive_index() {
                counts[k] += 1;
            }
        }
        let vels: Vec<f64> = trace.cycles.iter().filter_map(|c| c.velocity).collect();
        let mv = if vels.is_empty() {
            0.0
        } else {
            vels.iter().sum::<f64>() / vels.len() as f64
        };
        println!(
            "  {:<26} {:.3} / {:.3} / {:.3}   usage 320/416/512/608 = {:?}  mean-vel {:.2}",
            clip.name(),
            adavp.per_video_accuracy[i],
            m512.per_video_accuracy[i],
            m608.per_video_accuracy[i],
            counts,
            mv,
        );
    }
    println!(
        "\ndataset: AdaVP {:.3} | MPDT-512 {:.3} | MPDT-608 {:.3}",
        adavp.accuracy, m512.accuracy, m608.accuracy
    );
}

fn faults(ctx: &mut ExperimentContext, out: &Path) {
    use adavp_bench::faults as flt;
    let rows = flt::fault_sweep(ctx);
    let data = flt::sweep_rows(&rows);
    println!("{}", text_table(&flt::SWEEP_HEADER, &data));
    let _ = write_csv(&out.join("faults.csv"), &flt::SWEEP_HEADER, &data);
    let _ = std::fs::write(out.join("faults.json"), flt::sweep_to_json(&rows));
    // Headline: how much accuracy does each scheme keep under stress?
    let acc = |scenario: &str, scheme: &str| {
        rows.iter()
            .find(|r| r.scenario == scenario && r.scheme == scheme)
            .map(|r| r.accuracy)
    };
    for scheme in ["AdaVP", "MPDT-YOLOv3-512", "MARLIN-YOLOv3-512"] {
        if let (Some(clean), Some(stress)) = (acc("none", scheme), acc("stress", scheme)) {
            println!("{scheme}: clean {clean:.3} -> stress {stress:.3}");
        }
    }
}

fn ablations(ctx: &mut ExperimentContext, out: &Path) {
    let mut data: Vec<Vec<String>> = Vec::new();
    for (group, rows) in [
        ("parallelism", abl::parallelism(ctx)),
        ("frame-selection", abl::frame_selection(ctx)),
        ("flow-points", abl::flow_points(ctx)),
        ("adaptation-signal", abl::adaptation_signal(ctx)),
        ("threshold-sharing", abl::threshold_sharing(ctx)),
    ] {
        for r in rows {
            data.push(vec![group.to_string(), r.variant, f3(r.accuracy)]);
        }
    }
    // Cadence rows fold the detector-invocation count into the variant
    // label so the shared 3-column table still fits.
    for (r, cycles) in abl::detection_cadence(ctx) {
        data.push(vec![
            "detection-cadence".to_string(),
            format!("{} ({cycles} detections)", r.variant),
            f3(r.accuracy),
        ]);
    }
    println!(
        "{}",
        text_table(&["ablation", "variant", "accuracy"], &data)
    );
    let _ = write_csv(
        &out.join("ablations.csv"),
        &["ablation", "variant", "accuracy"],
        &data,
    );
}

fn marlin_sweep(ctx: &mut ExperimentContext, out: &Path) {
    let sweep = abl::marlin_trigger_sweep(ctx, &[0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 1.8, 2.5]);
    let data: Vec<Vec<String>> = sweep
        .iter()
        .map(|(t, a)| vec![format!("{t:.1}"), f3(*a)])
        .collect();
    println!("{}", text_table(&["trigger velocity", "accuracy"], &data));
    let _ = write_csv(
        &out.join("marlin_sweep.csv"),
        &["trigger", "accuracy"],
        &data,
    );
}

fn fig1(ctx: &mut ExperimentContext, out: &Path) {
    let cap = match ctx.scale {
        DatasetScale::Smoke => 200,
        DatasetScale::Standard => 1500,
        DatasetScale::Full => 4000,
    };
    let rows = figures::fig1(ctx, cap);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.to_string(),
                fmt1(r.mean_latency_ms),
                f3(r.mean_f1),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["setting", "latency (ms)", "F1 per frame"], &data)
    );
    let _ = write_csv(
        &out.join("fig1.csv"),
        &["setting", "latency_ms", "f1"],
        &data,
    );
}

fn fig2(out: &Path) {
    let r = figures::fig2(30, 10);
    let data: Vec<Vec<String>> = (0..r.fast.len())
        .map(|i| vec![(i + 1).to_string(), f3(r.fast[i]), f3(r.slow[i])])
        .collect();
    println!(
        "{}",
        text_table(
            &["frames since detection", "Video1 (fast)", "Video2 (slow)"],
            &data
        )
    );
    let below = |c: &[f64]| {
        figures::Fig2Result::first_below(c, 0.5)
            .map(|i| (i + 1).to_string())
            .unwrap_or_else(|| "never".into())
    };
    println!(
        "first frame with F1 < 0.5: fast = {}, slow = {} (paper: 9 and 27)",
        below(&r.fast),
        below(&r.slow)
    );
    let _ = write_csv(
        &out.join("fig2.csv"),
        &["frame", "fast_f1", "slow_f1"],
        &data,
    );
}

fn table2(out: &Path) {
    let rows = tables::table2();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.component.clone(),
                if r.modeled_ms.0 == r.modeled_ms.1 {
                    fmt1(r.modeled_ms.0)
                } else {
                    format!("{}-{}", fmt1(r.modeled_ms.0), fmt1(r.modeled_ms.1))
                },
                if r.measured_ms > 0.0 {
                    f3(r.measured_ms)
                } else {
                    "(modeled)".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "component",
                "virtual latency (ms)",
                "real kernel wall time (ms)"
            ],
            &data
        )
    );
    let _ = write_csv(
        &out.join("table2.csv"),
        &["component", "modeled_ms", "measured_ms"],
        &data,
    );
}

fn fig5(ctx: &mut ExperimentContext, out: &Path) {
    let rows = figures::fig5(ctx, 40);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.frame.to_string(),
                f3(r.small.0),
                r.small.1.clone(),
                f3(r.large.0),
                r.large.1.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["frame", "MPDT-320 F1", "src", "MPDT-608 F1", "src"],
            &data
        )
    );
    let _ = write_csv(
        &out.join("fig5.csv"),
        &[
            "frame",
            "mpdt320_f1",
            "mpdt320_src",
            "mpdt608_f1",
            "mpdt608_src",
        ],
        &data,
    );
}

fn fig6(ctx: &mut ExperimentContext, out: &Path) {
    let results = figures::fig6(ctx);
    print_accuracy_table(&results, out, "fig6.csv");
    print_latency_percentiles(&results, out, "fig6_latency.csv");
    // Paper headline deltas.
    let get = |label: &str| {
        results
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.accuracy)
    };
    if let Some(adavp) = get("AdaVP") {
        let best = |prefix: &str| {
            results
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .map(|r| r.accuracy)
                .fold(f64::NAN, f64::max)
        };
        println!(
            "AdaVP = {:.3}; best MPDT = {:.3}; best MARLIN = {:.3}",
            adavp,
            best("MPDT"),
            best("MARLIN")
        );
    }
}

/// Exact detection-cycle latency percentiles per scheme (nearest-rank over
/// every cycle of every clip; merge-order independent, so identical for any
/// `--jobs`). Schemes without cycles (e.g. continuous baselines with zero
/// frames) are omitted.
fn print_latency_percentiles(results: &[Arc<SchemeResult>], out: &Path, file: &str) {
    let data: Vec<Vec<String>> = results
        .iter()
        .filter_map(|r| {
            let d = r.distributions();
            d.cycle_ms.percentiles().map(|p| {
                vec![
                    r.label.clone(),
                    fmt1(p.p50),
                    fmt1(p.p90),
                    fmt1(p.p99),
                    d.cycle_ms.count().to_string(),
                ]
            })
        })
        .collect();
    if data.is_empty() {
        return;
    }
    println!("cycle latency (ms), exact percentiles:");
    println!(
        "{}",
        text_table(&["scheme", "p50", "p90", "p99", "cycles"], &data)
    );
    let _ = write_csv(
        &out.join(file),
        &["scheme", "p50_ms", "p90_ms", "p99_ms", "cycles"],
        &data,
    );
}

fn print_accuracy_table(results: &[Arc<SchemeResult>], out: &Path, file: &str) {
    let data: Vec<Vec<String>> = results
        .iter()
        .map(|r| vec![r.label.clone(), f3(r.accuracy)])
        .collect();
    println!("{}", text_table(&["scheme", "accuracy"], &data));
    let _ = write_csv(&out.join(file), &["scheme", "accuracy"], &data);
}

fn fig7(ctx: &mut ExperimentContext, out: &Path) {
    let cdf = figures::fig7(ctx);
    let data: Vec<Vec<String>> = cdf
        .iter()
        .map(|p| vec![fmt1(p.value), f3(p.probability)])
        .collect();
    if let Some(last) = cdf.last() {
        let p1 = cdf
            .iter()
            .filter(|p| p.value <= 1.0)
            .map(|p| p.probability)
            .fold(0.0, f64::max);
        println!(
            "switches observed: {}; P(switch after 1 cycle) = {:.2}; max gap = {}",
            cdf.len(),
            p1,
            last.value
        );
    }
    println!("{}", text_table(&["cycles per switch", "CDF"], &data));
    let _ = write_csv(&out.join("fig7.csv"), &["cycles", "cdf"], &data);
}

fn fig8(ctx: &mut ExperimentContext, out: &Path) {
    let shares = figures::fig8(ctx);
    let data: Vec<Vec<String>> = shares
        .iter()
        .map(|(s, p)| vec![s.to_string(), f3(*p)])
        .collect();
    println!("{}", text_table(&["setting", "usage share"], &data));
    let _ = write_csv(&out.join("fig8.csv"), &["setting", "share"], &data);
}

fn fig9(ctx: &mut ExperimentContext, out: &Path) {
    let r = figures::fig9(ctx);
    let data: Vec<Vec<String>> = r
        .adavp
        .iter()
        .zip(&r.mpdt512)
        .enumerate()
        .map(|(i, (a, m))| vec![i.to_string(), f3(*a), f3(*m)])
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "clip {}: mean F1 AdaVP {:.3} vs MPDT-512 {:.3} ({} frames; per-frame CSV written)",
        r.clip_name,
        mean(&r.adavp),
        mean(&r.mpdt512),
        data.len()
    );
    let _ = write_csv(
        &out.join("fig9.csv"),
        &["frame", "adavp_f1", "mpdt512_f1"],
        &data,
    );
}

fn fig10(results: &[Arc<SchemeResult>], out: &Path) {
    let rows = figures::fig10(results);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|(l, a70, a75)| vec![l.clone(), f3(*a70), f3(*a75)])
        .collect();
    println!("{}", text_table(&["scheme", "α = 0.70", "α = 0.75"], &data));
    let _ = write_csv(
        &out.join("fig10.csv"),
        &["scheme", "alpha_070", "alpha_075"],
        &data,
    );
}

fn fig11(ctx: &mut ExperimentContext, out: &Path) {
    let rows = figures::fig11(ctx);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|(l, a, b)| vec![l.clone(), f3(*a), f3(*b)])
        .collect();
    println!(
        "{}",
        text_table(&["scheme", "IoU = 0.5", "IoU = 0.6"], &data)
    );
    let _ = write_csv(
        &out.join("fig11.csv"),
        &["scheme", "iou_05", "iou_06"],
        &data,
    );
}

fn table3(ctx: &mut ExperimentContext, out: &Path) {
    let results = tables::table3(ctx);
    let data: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                f3(r.energy.gpu_wh),
                f3(r.energy.cpu_wh),
                f3(r.energy.soc_wh),
                f3(r.energy.ddr_wh),
                f3(r.energy.total_wh()),
                f3(r.accuracy),
                format!("{:.1}x", r.latency_multiplier),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["scheme", "GPU wh", "CPU wh", "SoC wh", "DDR wh", "Total wh", "accuracy", "latency"],
            &data
        )
    );
    let _ = write_csv(
        &out.join("table3.csv"),
        &[
            "scheme",
            "gpu_wh",
            "cpu_wh",
            "soc_wh",
            "ddr_wh",
            "total_wh",
            "accuracy",
            "latency_mult",
        ],
        &data,
    );
}
