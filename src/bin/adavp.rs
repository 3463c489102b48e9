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

use adavp::cli::{self, ClipArgs, Command, Flags};
use adavp::core::analysis;
use adavp::core::eval::{evaluate_on_clip, EvalConfig};
use adavp::core::export::write_trace_json;
use adavp::core::metrics;
use adavp::core::pipeline::{PipelineConfig, Scheme};
use adavp::core::serve::{run_fleet, run_sweep, sweep_csv, sweep_json, sweep_text, ServeConfig};
use adavp::core::telemetry::{self, report, TelemetryConfig};
use adavp::detector::DetectorConfig;
use adavp::video::clip::VideoClip;
use adavp::video::export::export_clip;
use adavp::video::scenario::Scenario;
use std::path::PathBuf;
use std::process::ExitCode;

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
         without-tracking-320/416/512/608, continuous-320/416/512/608, tiny"
    );
    ExitCode::from(2)
}

/// Writes `contents` to the path given by `--name`, if any, and reports it
/// as `label`.
fn write_output(flags: &Flags, name: &str, label: &str, contents: &str) -> Result<(), ExitCode> {
    let Some(path) = flags.get(name).map(PathBuf::from) else {
        return Ok(());
    };
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("failed to write --{name}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("{label:<11}written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    match cli::parse(&args) {
        Ok((command, flags)) => run(command, &flags),
        Err(e) => {
            eprintln!("{e}\n");
            usage()
        }
    }
}

/// Renders the clip a command names.
fn render(clip: &ClipArgs) -> VideoClip {
    VideoClip::generate(&clip.name, &clip.scenario.spec(), clip.seed, clip.frames)
}

/// Runs one checked command; `flags` gives its output paths.
fn run(command: Command, flags: &Flags) -> ExitCode {
    match command {
        Command::Scenarios => {
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
        Command::Generate { clip, stride, out } => {
            let video = render(&clip);
            match export_clip(&video, out.as_ref(), stride) {
                Ok(n) => {
                    println!(
                        "wrote {n} annotated frames of {} (seed {}) to {out}",
                        clip.name, clip.seed
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("export failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Run {
            clip,
            scheme,
            ground_truth,
        } => run_clip(&clip, scheme, EvalConfig { ground_truth }, flags),
        Command::Trace {
            clip,
            system,
            scheme,
        } => trace_clip(&clip, &system, scheme, flags),
        Command::Serve { sweep, jobs } => {
            let exec = adavp::vision::exec::Executor::new(jobs);
            let (rows, registry) = run_sweep(&sweep, &exec);
            let outputs = || -> Result<(), ExitCode> {
                let prom = metrics::prometheus_text(&registry);
                write_output(flags, "metrics-prom", "prom:", &prom)?;
                let snapshot = metrics::json_snapshot(&registry);
                write_output(flags, "metrics-json", "metrics:", &snapshot)?;
                print!("{}", sweep_text(&rows));
                write_output(flags, "csv", "csv:", &sweep_csv(&rows))?;
                write_output(flags, "json", "json:", &sweep_json(&rows))
            };
            outputs().err().unwrap_or(ExitCode::SUCCESS)
        }
        Command::Metrics {
            mut cfg,
            streams,
            cycles,
            bucket,
        } => {
            cfg.streams = ServeConfig::synthetic_streams(streams, cycles, cfg.seed);
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
            let outputs = || -> Result<(), ExitCode> {
                let prom = metrics::prometheus_text(&m.registry);
                write_output(flags, "prom", "prom:", &prom)?;
                write_output(flags, "json", "json:", &metrics::json_snapshot(&m.registry))
            };
            outputs().err().unwrap_or(ExitCode::SUCCESS)
        }
    }
}

/// `adavp run`: evaluates `scheme` on the clip and prints its summary.
fn run_clip(args: &ClipArgs, scheme: Scheme, eval: EvalConfig, flags: &Flags) -> ExitCode {
    let mut pipeline = scheme.build(DetectorConfig::default(), PipelineConfig::default());
    let (name, seed, frames) = (&args.name, args.seed, args.frames);
    let clip = render(args);
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

/// `adavp trace`: one traced run, its flame report and percentiles.
fn trace_clip(args: &ClipArgs, system: &str, scheme: Scheme, flags: &Flags) -> ExitCode {
    let cfg = PipelineConfig {
        telemetry: TelemetryConfig::enabled(),
        ..PipelineConfig::default()
    };
    let mut pipeline = scheme.build(DetectorConfig::default(), cfg);
    let (name, seed, frames) = (&args.name, args.seed, args.frames);
    let clip = render(args);
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
        match telemetry::chrome::write_chrome_trace(&[(label.as_str(), &trace.telemetry)], &path) {
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
