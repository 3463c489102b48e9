//! The `adavp` command-line tool: generate synthetic videos, run any of the
//! pipelines over them, and export annotated frames.
//!
//! ```text
//! adavp scenarios
//! adavp generate --scenario highway --seed 7 --frames 90 --out frames/
//! adavp run --scenario city-street --seed 3 --frames 300 --system adavp
//! adavp run --scenario highway --system mpdt-608 --gt true
//! adavp trace --scenario highway --system adavp --chrome trace.json
//! adavp serve --streams 1,8,64 --gpus 4 --jobs 4 --csv sweep.csv
//! adavp metrics --streams 16 --gpus 2 --prom metrics.prom
//! ```

use adavp::core::adaptation::AdaptationModel;
use adavp::core::analysis;
use adavp::core::eval::{evaluate_on_clip, EvalConfig, GroundTruthMode};
use adavp::core::export::write_trace_json;
use adavp::core::metrics::{self, MetricsConfig};
use adavp::core::pipeline::{
    CascadeConfig, CascadePipeline, ContinuousPipeline, CtdConfig, CtdPipeline,
    DetectorOnlyPipeline, MarlinConfig, MarlinPipeline, MpdtPipeline, PipelineConfig,
    SettingPolicy, VideoProcessor,
};
use adavp::core::serve::{
    run_fleet, run_sweep, sweep_csv, sweep_json, sweep_text, ServeConfig, ServeScheme, SweepConfig,
};
use adavp::core::telemetry::{self, report, TelemetryConfig};
use adavp::detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::video::clip::VideoClip;
use adavp::video::export::export_clip;
use adavp::video::scenario::Scenario;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Flags each subcommand accepts, for unknown-flag diagnostics.
const KNOWN_FLAGS: &[(&str, &[&str])] = &[
    ("scenarios", &[]),
    ("generate", &["frames", "out", "scenario", "seed", "stride"]),
    (
        "run",
        &["frames", "gt", "scenario", "seed", "system", "trace-out"],
    ),
    ("trace", &["chrome", "frames", "scenario", "seed", "system"]),
    (
        "serve",
        &[
            "batch",
            "csv",
            "cycles",
            "gpus",
            "jobs",
            "json",
            "metrics-json",
            "metrics-prom",
            "profile",
            "schemes",
            "seed",
            "streams",
            "window",
        ],
    ),
    (
        "metrics",
        &[
            "batch", "bucket", "cadence", "cycles", "gpus", "json", "profile", "prom", "scheme",
            "seed", "streams", "window",
        ],
    ),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         adavp scenarios\n  \
         adavp generate --scenario <name> [--seed N] [--frames N] [--stride N] --out <dir>\n  \
         adavp run --scenario <name> [--seed N] [--frames N] [--system <sys>] [--gt oracle|true]\n              \
                 [--trace-out <file.json>]\n  \
         adavp trace --scenario <name> [--seed N] [--frames N] [--system <sys>] [--chrome <file.json>]\n  \
         adavp serve [--streams 1,8,64,256,1024] [--cycles N] [--gpus N] [--batch N] [--window MS]\n              \
                 [--jobs N] [--seed N] [--profile none|brownout|both] [--schemes mpdt,cascade,ctd]\n              \
                 [--csv <file>] [--json <file>] [--metrics-prom <file>] [--metrics-json <file>]\n  \
         adavp metrics [--streams N] [--cycles N] [--gpus N] [--batch N] [--window MS] [--seed N]\n              \
                 [--scheme mpdt|cascade|ctd] [--profile none|brownout] [--cadence MS] [--bucket MS]\n              \
                 [--prom <file>] [--json <file>]\n\n\
         systems: adavp (default), mpdt-320/416/512/608, marlin-320/416/512/608,\n          \
         cascade-320/416/512/608, ctd-320/416/512/608,\n          \
         without-tracking-512, continuous-320, continuous-608, tiny"
    );
    ExitCode::from(2)
}

// A BTreeMap (not HashMap) so unknown-flag listings and other diagnostics
// built from the map iterate in a deterministic order.
fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if let Some(v) = it.next() {
                flags.insert(key.to_string(), v.clone());
            }
        }
    }
    flags
}

fn find_scenario(name: &str) -> Option<Scenario> {
    Scenario::ALL.into_iter().find(|s| s.spec().name == name)
}

fn build_system(name: &str, cfg: PipelineConfig) -> Option<Box<dyn VideoProcessor>> {
    let det = SimulatedDetector::new(DetectorConfig::default());
    let fixed = |s: &str| -> Option<ModelSetting> {
        Some(match s {
            "320" => ModelSetting::Yolo320,
            "416" => ModelSetting::Yolo416,
            "512" => ModelSetting::Yolo512,
            "608" => ModelSetting::Yolo608,
            _ => return None,
        })
    };
    Some(match name {
        "adavp" => Box::new(MpdtPipeline::new(
            det,
            SettingPolicy::Adaptive(AdaptationModel::default_model()),
            cfg,
        )),
        "tiny" => Box::new(ContinuousPipeline::new(det, ModelSetting::Tiny320, cfg)),
        n if n.starts_with("mpdt-") => {
            let s = fixed(&n[5..])?;
            Box::new(MpdtPipeline::new(det, SettingPolicy::Fixed(s), cfg))
        }
        n if n.starts_with("marlin-") => {
            let s = fixed(&n[7..])?;
            Box::new(MarlinPipeline::new(det, s, cfg, MarlinConfig::default()))
        }
        n if n.starts_with("cascade-") => {
            let s = fixed(&n[8..])?;
            Box::new(CascadePipeline::new(det, s, cfg, CascadeConfig::default()))
        }
        n if n.starts_with("ctd-") => {
            let s = fixed(&n[4..])?;
            Box::new(CtdPipeline::new(det, s, cfg, CtdConfig::default()))
        }
        n if n.starts_with("without-tracking-") => {
            let s = fixed(&n[17..])?;
            Box::new(DetectorOnlyPipeline::new(det, s, cfg))
        }
        n if n.starts_with("continuous-") => {
            let s = fixed(&n[11..])?;
            Box::new(ContinuousPipeline::new(det, s, cfg))
        }
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = parse_flags(&args[1..]);
    if let Some((_, known)) = KNOWN_FLAGS.iter().find(|(c, _)| c == cmd) {
        let unknown: Vec<String> = flags
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .map(|k| format!("--{k}"))
            .collect();
        if !unknown.is_empty() {
            eprintln!("unknown flag(s) for `{cmd}`: {}\n", unknown.join(", "));
            return usage();
        }
    }
    let seed: u64 = flags.get("seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let frames: u32 = flags
        .get("frames")
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);

    match cmd.as_str() {
        "scenarios" => {
            println!("{:<22} {:>10} {:>12}", "name", "camera", "change px/f");
            for s in Scenario::ALL {
                let spec = s.spec();
                let cam = match spec.camera {
                    adavp::video::scenario::CameraMotion::Static => "static",
                    adavp::video::scenario::CameraMotion::Pan { .. } => "pan",
                    adavp::video::scenario::CameraMotion::Handheld { .. } => "handheld",
                    adavp::video::scenario::CameraMotion::Vehicle { .. } => "vehicle",
                };
                println!(
                    "{:<22} {:>10} {:>12.2}",
                    spec.name,
                    cam,
                    spec.nominal_change_rate()
                );
            }
            ExitCode::SUCCESS
        }
        "generate" => {
            let Some(name) = flags.get("scenario") else {
                return usage();
            };
            let Some(scenario) = find_scenario(name) else {
                eprintln!("unknown scenario: {name} (try `adavp scenarios`)");
                return ExitCode::from(2);
            };
            let Some(out) = flags.get("out").map(PathBuf::from) else {
                return usage();
            };
            let stride: usize = flags
                .get("stride")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            let clip = VideoClip::generate(name, &scenario.spec(), seed, frames);
            match export_clip(&clip, &out, stride) {
                Ok(n) => {
                    println!(
                        "wrote {n} annotated frames of {name} (seed {seed}) to {}",
                        out.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("export failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let Some(name) = flags.get("scenario") else {
                return usage();
            };
            let Some(scenario) = find_scenario(name) else {
                eprintln!("unknown scenario: {name} (try `adavp scenarios`)");
                return ExitCode::from(2);
            };
            let system = flags.get("system").map(String::as_str).unwrap_or("adavp");
            let Some(mut pipeline) = build_system(system, PipelineConfig::default()) else {
                eprintln!("unknown system: {system}");
                return usage();
            };
            let gt = match flags.get("gt").map(String::as_str) {
                Some("true") => GroundTruthMode::True,
                _ => GroundTruthMode::default(),
            };
            let clip = VideoClip::generate(name, &scenario.spec(), seed, frames);
            let eval = EvalConfig {
                ground_truth: gt,
                ..EvalConfig::default()
            };
            let result = evaluate_on_clip(pipeline.as_mut(), &clip, &eval);
            let stats = analysis::analyze(&result.trace);
            println!("system:    {}", result.trace.pipeline);
            println!("video:     {name} (seed {seed}, {frames} frames)");
            println!(
                "accuracy:  {:.1}% of frames with F1 >= 0.7",
                result.accuracy * 100.0
            );
            println!(
                "cycles:    {} ({} switches, mean {:.0} ms)",
                stats.cycles, stats.switches, stats.mean_cycle_ms
            );
            let src = stats.frame_sources;
            println!(
                "frames:    {:.0}% detected / {:.0}% tracked / {:.0}% held / {:.0}% dropped",
                src.detected * 100.0,
                src.tracked * 100.0,
                src.held * 100.0,
                src.dropped * 100.0
            );
            let faulted = result.trace.fault_count();
            if faulted > 0 {
                println!(
                    "faults:    {} cycles faulted ({} degraded, {} diverged)",
                    faulted,
                    result.trace.degraded_cycle_count(),
                    result.trace.diverged_cycle_count()
                );
            }
            if let Some(v) = stats.mean_velocity {
                println!("velocity:  {v:.2} px/frame mean");
            }
            println!("energy:    {}", result.trace.energy);
            println!(
                "realtime:  {:.2}x video duration",
                result.trace.latency_multiplier(&clip)
            );
            if let Some(path) = flags.get("trace-out").map(PathBuf::from) {
                match write_trace_json(&result.trace, Some(&result.frame_f1), &path) {
                    Ok(()) => println!("trace:     written to {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write trace: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "trace" => {
            let Some(name) = flags.get("scenario") else {
                return usage();
            };
            let Some(scenario) = find_scenario(name) else {
                eprintln!("unknown scenario: {name} (try `adavp scenarios`)");
                return ExitCode::from(2);
            };
            let system = flags.get("system").map(String::as_str).unwrap_or("adavp");
            let cfg = PipelineConfig {
                telemetry: TelemetryConfig::enabled(),
                ..PipelineConfig::default()
            };
            let Some(mut pipeline) = build_system(system, cfg) else {
                eprintln!("unknown system: {system}");
                return usage();
            };
            let clip = VideoClip::generate(name, &scenario.spec(), seed, frames);
            let trace = pipeline.process(&clip);
            println!("system:    {}", trace.pipeline);
            println!("video:     {name} (seed {seed}, {frames} frames)");
            println!(
                "telemetry: {} spans, {} events",
                trace.telemetry.spans.len(),
                trace.telemetry.events.len()
            );
            println!();
            print!("{}", report::flame_report(&trace.telemetry));
            let dist = telemetry::distributions([&trace]);
            let mut rows: Vec<(String, &telemetry::Histogram)> =
                vec![("all cycles".into(), &dist.cycle_ms)];
            for (s, h) in &dist.cycle_ms_by_setting {
                rows.push((s.to_string(), h));
            }
            println!();
            print!("{}", report::percentile_table("cycle latency (ms)", &rows));
            if !dist.velocity.is_empty() {
                println!();
                print!(
                    "{}",
                    report::percentile_table(
                        "content velocity (px/frame)",
                        &[("measured".into(), &dist.velocity)],
                    )
                );
            }
            if let Some(path) = flags.get("chrome").map(PathBuf::from) {
                let label = format!("{system} / {name}");
                match telemetry::chrome::write_chrome_trace(
                    &[(label.as_str(), &trace.telemetry)],
                    &path,
                ) {
                    Ok(()) => println!(
                        "\nchrome trace written to {} (load in chrome://tracing or ui.perfetto.dev)",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("failed to write chrome trace: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let mut sweep = SweepConfig::default();
            if let Some(v) = flags.get("streams") {
                let counts: Option<Vec<usize>> =
                    v.split(',').map(|s| s.trim().parse().ok()).collect();
                let Some(counts) = counts.filter(|c| !c.is_empty()) else {
                    eprintln!("--streams expects a comma-separated list of counts: {v}");
                    return ExitCode::from(2);
                };
                sweep.stream_counts = counts;
            }
            if let Some(v) = flags.get("cycles").and_then(|v| v.parse().ok()) {
                sweep.cycles = v;
            }
            if let Some(v) = flags.get("gpus").and_then(|v| v.parse().ok()) {
                sweep.gpus = v;
            }
            if let Some(v) = flags.get("batch").and_then(|v| v.parse().ok()) {
                sweep.max_batch = v;
            }
            if let Some(v) = flags.get("window").and_then(|v| v.parse().ok()) {
                sweep.window_ms = v;
            }
            if let Some(v) = flags.get("seed").and_then(|v| v.parse().ok()) {
                sweep.seed = v;
            }
            if let Some(v) = flags.get("schemes") {
                let schemes: Option<Vec<ServeScheme>> =
                    v.split(',').map(|s| ServeScheme::parse(s.trim())).collect();
                let Some(schemes) = schemes.filter(|s| !s.is_empty()) else {
                    eprintln!(
                        "--schemes expects a comma-separated subset of mpdt,cascade,ctd: {v}"
                    );
                    return ExitCode::from(2);
                };
                sweep.schemes = schemes;
            }
            match flags.get("profile").map(String::as_str) {
                Some("none") => sweep.profiles.truncate(1),
                Some("brownout") => {
                    sweep.profiles.remove(0);
                }
                Some("both") | None => {}
                Some(other) => {
                    eprintln!("unknown profile: {other} (none|brownout|both)");
                    return ExitCode::from(2);
                }
            }
            let jobs: usize = flags.get("jobs").and_then(|v| v.parse().ok()).unwrap_or(1);
            let exec = adavp::vision::exec::Executor::new(jobs);
            if flags.contains_key("metrics-prom") || flags.contains_key("metrics-json") {
                sweep.metrics.enabled = true;
            }
            let (rows, registry) = run_sweep(&sweep, &exec);
            if let Some(path) = flags.get("metrics-prom").map(PathBuf::from) {
                if let Err(e) = std::fs::write(&path, metrics::prometheus_text(&registry)) {
                    eprintln!("failed to write metrics exposition: {e}");
                    return ExitCode::FAILURE;
                }
                println!("prom:      written to {}", path.display());
            }
            if let Some(path) = flags.get("metrics-json").map(PathBuf::from) {
                if let Err(e) = std::fs::write(&path, metrics::json_snapshot(&registry)) {
                    eprintln!("failed to write metrics snapshot: {e}");
                    return ExitCode::FAILURE;
                }
                println!("metrics:   written to {}", path.display());
            }
            print!("{}", sweep_text(&rows));
            if let Some(path) = flags.get("csv").map(PathBuf::from) {
                if let Err(e) = std::fs::write(&path, sweep_csv(&rows)) {
                    eprintln!("failed to write CSV: {e}");
                    return ExitCode::FAILURE;
                }
                println!("csv:       written to {}", path.display());
            }
            if let Some(path) = flags.get("json").map(PathBuf::from) {
                if let Err(e) = std::fs::write(&path, sweep_json(&rows)) {
                    eprintln!("failed to write JSON: {e}");
                    return ExitCode::FAILURE;
                }
                println!("json:      written to {}", path.display());
            }
            ExitCode::SUCCESS
        }
        "metrics" => {
            let streams: usize = flags
                .get("streams")
                .and_then(|v| v.parse().ok())
                .unwrap_or(8);
            let cycles: usize = flags
                .get("cycles")
                .and_then(|v| v.parse().ok())
                .unwrap_or(20);
            let mut cfg = ServeConfig {
                seed,
                streams: ServeConfig::synthetic_streams(streams, cycles, seed),
                ..ServeConfig::default()
            };
            if let Some(v) = flags.get("gpus").and_then(|v| v.parse().ok()) {
                cfg.batch.gpus = v;
            }
            if let Some(v) = flags.get("batch").and_then(|v| v.parse().ok()) {
                cfg.batch.max_batch = v;
            }
            if let Some(v) = flags.get("window").and_then(|v| v.parse().ok()) {
                cfg.batch.window_ms = v;
            }
            if let Some(v) = flags.get("scheme") {
                let Some(scheme) = ServeScheme::parse(v.trim()) else {
                    eprintln!("unknown scheme: {v} (mpdt|cascade|ctd)");
                    return ExitCode::from(2);
                };
                cfg.scheme = scheme;
            }
            match flags.get("profile").map(String::as_str) {
                Some("brownout") => cfg.faults = adavp::sim::FaultProfile::brownout(0xb0b0),
                Some("none") | None => {}
                Some(other) => {
                    eprintln!("unknown profile: {other} (none|brownout)");
                    return ExitCode::from(2);
                }
            }
            let cadence: f64 = flags
                .get("cadence")
                .and_then(|v| v.parse().ok())
                .filter(|v: &f64| v.is_finite() && *v > 0.0)
                .unwrap_or(250.0);
            let bucket: f64 = flags
                .get("bucket")
                .and_then(|v| v.parse().ok())
                .filter(|v: &f64| v.is_finite() && *v > 0.0)
                .unwrap_or(cadence * 4.0);
            cfg.metrics = MetricsConfig {
                enabled: true,
                cadence_ms: cadence,
                per_stream: true,
            };
            let report = run_fleet(&cfg);
            let m = report.metrics.as_ref().expect("metrics were enabled");
            println!(
                "fleet:     {} streams requested, {} admitted, {} GPUs ({})",
                report.requested,
                report.admitted,
                cfg.batch.gpus,
                cfg.scheme.label()
            );
            println!(
                "cycles:    {} over {:.0} ms virtual ({:.2} detections/s, GPU util {:.0}%)",
                report.cycles,
                report.horizon_ms,
                report.throughput_dps,
                report.gpu_utilization * 100.0
            );
            println!("telemetry: {} burn-alert events", m.telemetry.events.len());
            println!();
            print!(
                "{}",
                metrics::report::utilization_report(&m.registry, bucket)
            );
            if let Some(path) = flags.get("prom").map(PathBuf::from) {
                if let Err(e) = std::fs::write(&path, metrics::prometheus_text(&m.registry)) {
                    eprintln!("failed to write metrics exposition: {e}");
                    return ExitCode::FAILURE;
                }
                println!("prom:      written to {}", path.display());
            }
            if let Some(path) = flags.get("json").map(PathBuf::from) {
                if let Err(e) = std::fs::write(&path, metrics::json_snapshot(&m.registry)) {
                    eprintln!("failed to write metrics snapshot: {e}");
                    return ExitCode::FAILURE;
                }
                println!("json:      written to {}", path.display());
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
