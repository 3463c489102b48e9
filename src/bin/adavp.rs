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

use adavp::core::analysis;
use adavp::core::eval::{evaluate_on_clip, EvalConfig, GroundTruthMode};
use adavp::core::export::write_trace_json;
use adavp::core::metrics::{self, MetricsConfig};
use adavp::core::pipeline::{PipelineConfig, Scheme};
use adavp::core::serve::{
    run_fleet, run_sweep, sweep_csv, sweep_json, sweep_text, ServeConfig, ServeScheme, SweepConfig,
};
use adavp::core::telemetry::{self, report, TelemetryConfig};
use adavp::detector::DetectorConfig;
use adavp::video::clip::VideoClip;
use adavp::video::export::export_clip;
use adavp::video::scenario::Scenario;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

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
         without-tracking-320/416/512/608, continuous-320/416/512/608, tiny"
    );
    ExitCode::from(2)
}

// A BTreeMap (not HashMap) so unknown-flag listings and other diagnostics
// built from the map iterate in a deterministic order.
type Flags = BTreeMap<String, String>;

/// Parses `--flag value` pairs. A stray argument or a flag with no value
/// (the end of the line, or another `--flag`) is an error.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        let Some(value) = it.next_if(|v| !v.starts_with("--")) else {
            return Err(format!("--{key} expects a value"));
        };
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

/// `--name` parsed as `T`, or `default` when absent. A value that does not
/// parse, or that `valid` rejects, is an error naming the flag.
fn flag<T: FromStr>(
    flags: &Flags,
    name: &str,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(v) = flags.get(name) else {
        return Ok(default);
    };
    v.parse()
        .ok()
        .filter(|x| valid(x))
        .ok_or_else(|| format!("--{name} expects {expected}, got {v:?}"))
}

/// A count flag: a positive integer.
fn count<T: FromStr + PartialEq + From<u8>>(
    flags: &Flags,
    name: &str,
    default: T,
) -> Result<T, String> {
    flag(flags, name, default, "a positive integer", |n| {
        *n != T::from(0)
    })
}

/// A millisecond flag: finite, and positive unless `zero_ok`.
fn millis(flags: &Flags, name: &str, default: f64, zero_ok: bool) -> Result<f64, String> {
    let expected = if zero_ok {
        "a finite number of ms >= 0"
    } else {
        "a finite number of ms > 0"
    };
    flag(flags, name, default, expected, |v: &f64| {
        v.is_finite() && (*v > 0.0 || zero_ok && *v == 0.0)
    })
}

/// The `--system` scheme (AdaVP by default) and its name.
fn system(flags: &Flags) -> Result<(&str, Scheme), String> {
    let name = flags.get("system").map_or("adavp", String::as_str);
    Scheme::parse(name)
        .map(|s| (name, s))
        .ok_or_else(|| format!("unknown system: {name}"))
}

/// The `--scenario` name and scenario (required).
fn scenario(flags: &Flags) -> Result<(&str, Scenario), String> {
    let name = flags
        .get("scenario")
        .ok_or("--scenario <name> is required")?;
    let scenario = Scenario::ALL
        .into_iter()
        .find(|s| s.spec().name == *name)
        .ok_or_else(|| format!("unknown scenario: {name} (try `adavp scenarios`)"))?;
    Ok((name, scenario))
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
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n");
            return usage();
        }
    };
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
    match dispatch(cmd, &flags) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}\n");
            usage()
        }
    }
}

/// Runs one subcommand. A malformed invocation is an `Err` (exit 2 with
/// usage); a failure while running is an exit code.
fn dispatch(cmd: &str, flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flag(flags, "seed", 42, "an unsigned integer", |_| true)?;
    let frames: u32 = count(flags, "frames", 150)?;
    Ok(match cmd {
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
            let (name, scenario) = scenario(flags)?;
            let out = flags.get("out").ok_or("--out <dir> is required")?;
            let stride: usize = count(flags, "stride", 1)?;
            let clip = VideoClip::generate(name, &scenario.spec(), seed, frames);
            match export_clip(&clip, out.as_ref(), stride) {
                Ok(n) => {
                    println!("wrote {n} annotated frames of {name} (seed {seed}) to {out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("export failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let (name, scenario) = scenario(flags)?;
            let (_, scheme) = system(flags)?;
            let ground_truth = match flags.get("gt").map(String::as_str) {
                Some("true") => GroundTruthMode::True,
                Some("oracle") | None => GroundTruthMode::default(),
                Some(other) => return Err(format!("--gt expects oracle|true, got {other:?}")),
            };
            let mut pipeline = scheme.build(DetectorConfig::default(), PipelineConfig::default());
            let clip = VideoClip::generate(name, &scenario.spec(), seed, frames);
            let eval = EvalConfig { ground_truth };
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
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "trace" => {
            let (name, scenario) = scenario(flags)?;
            let (system, scheme) = system(flags)?;
            let cfg = PipelineConfig {
                telemetry: TelemetryConfig::enabled(),
                ..PipelineConfig::default()
            };
            let mut pipeline = scheme.build(DetectorConfig::default(), cfg);
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
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let mut sweep = SweepConfig::default();
            if let Some(v) = flags.get("streams") {
                let counts: Option<Vec<usize>> = v
                    .split(',')
                    .map(|s| s.trim().parse().ok().filter(|&n| n > 0))
                    .collect();
                sweep.stream_counts = counts.ok_or_else(|| {
                    format!("--streams expects a comma-separated list of positive counts: {v}")
                })?;
            }
            sweep.cycles = count(flags, "cycles", sweep.cycles)?;
            sweep.gpus = count(flags, "gpus", sweep.gpus)?;
            sweep.max_batch = count(flags, "batch", sweep.max_batch)?;
            sweep.window_ms = millis(flags, "window", sweep.window_ms, true)?;
            sweep.seed = flag(flags, "seed", sweep.seed, "an unsigned integer", |_| true)?;
            if let Some(v) = flags.get("schemes") {
                let schemes: Option<Vec<ServeScheme>> =
                    v.split(',').map(|s| ServeScheme::parse(s.trim())).collect();
                sweep.schemes = schemes.ok_or_else(|| {
                    format!("--schemes expects a comma-separated subset of mpdt,cascade,ctd: {v}")
                })?;
            }
            match flags.get("profile").map(String::as_str) {
                Some("none") => sweep.profiles.truncate(1),
                Some("brownout") => {
                    sweep.profiles.remove(0);
                }
                Some("both") | None => {}
                Some(other) => {
                    return Err(format!("unknown profile: {other} (none|brownout|both)"))
                }
            }
            let jobs: usize = count(flags, "jobs", 1)?;
            let exec = adavp::vision::exec::Executor::new(jobs);
            if flags.contains_key("metrics-prom") || flags.contains_key("metrics-json") {
                sweep.metrics.enabled = true;
            }
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
        "metrics" => {
            let streams: usize = count(flags, "streams", 8)?;
            let cycles: usize = count(flags, "cycles", 20)?;
            let mut cfg = ServeConfig {
                seed,
                streams: ServeConfig::synthetic_streams(streams, cycles, seed),
                ..ServeConfig::default()
            };
            cfg.batch.gpus = count(flags, "gpus", cfg.batch.gpus)?;
            cfg.batch.max_batch = count(flags, "batch", cfg.batch.max_batch)?;
            cfg.batch.window_ms = millis(flags, "window", cfg.batch.window_ms, true)?;
            if let Some(v) = flags.get("scheme") {
                cfg.scheme = ServeScheme::parse(v.trim())
                    .ok_or_else(|| format!("unknown scheme: {v} (mpdt|cascade|ctd)"))?;
            }
            match flags.get("profile").map(String::as_str) {
                Some("brownout") => cfg.faults = adavp::sim::FaultProfile::brownout(0xb0b0),
                Some("none") | None => {}
                Some(other) => return Err(format!("unknown profile: {other} (none|brownout)")),
            }
            let cadence = millis(flags, "cadence", 250.0, false)?;
            let bucket = millis(flags, "bucket", cadence * 4.0, false)?;
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
            let outputs = || -> Result<(), ExitCode> {
                let prom = metrics::prometheus_text(&m.registry);
                write_output(flags, "prom", "prom:", &prom)?;
                write_output(flags, "json", "json:", &metrics::json_snapshot(&m.registry))
            };
            outputs().err().unwrap_or(ExitCode::SUCCESS)
        }
        other => return Err(format!("unknown command: {other}")),
    })
}
