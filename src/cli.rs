//! Argument parsing for the `adavp` binary: every flag of an invocation is
//! checked and converted before anything runs, so a malformed line is one
//! `Err` that names the flag (the binary prints it and exits 2) and never a
//! half-finished run.

use crate::core::eval::GroundTruthMode;
use crate::core::metrics::MetricsConfig;
use crate::core::pipeline::Scheme;
use crate::core::serve::{ServeConfig, ServeScheme, SweepConfig};
use crate::sim::FaultProfile;
use crate::video::scenario::Scenario;
use std::collections::BTreeMap;
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

/// `--flag value` pairs by flag name. A BTreeMap (not HashMap) so
/// unknown-flag listings and other diagnostics built from the map iterate
/// in a deterministic order.
pub type Flags = BTreeMap<String, String>;

/// Parses `--flag value` pairs. A stray argument, a flag with no value
/// (the end of the line, another `--flag`, or an empty string) and a flag
/// given twice are errors.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        let Some(value) = it.next_if(|v| !v.is_empty() && !v.starts_with("--")) else {
            return Err(format!("--{key} expects a value"));
        };
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} is given more than once"));
        }
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

/// The `--system` name and scheme (AdaVP by default).
fn system(flags: &Flags) -> Result<(String, Scheme), String> {
    let name = flags.get("system").map_or("adavp", String::as_str);
    Scheme::parse(name)
        .map(|s| (name.to_string(), s))
        .ok_or_else(|| format!("unknown --system: {name}"))
}

/// The `--scenario` name and scenario (required).
fn scenario(flags: &Flags) -> Result<(String, Scenario), String> {
    let name = flags
        .get("scenario")
        .ok_or("--scenario <name> is required")?;
    let scenario = Scenario::ALL
        .into_iter()
        .find(|s| s.spec().name == *name)
        .ok_or_else(|| format!("unknown --scenario: {name} (try `adavp scenarios`)"))?;
    Ok((name.clone(), scenario))
}

/// One clip to render: the scenario, its name, seed and length.
#[derive(Debug, Clone)]
pub struct ClipArgs {
    /// Scenario preset name as given.
    pub name: String,
    /// The scenario preset.
    pub scenario: Scenario,
    /// World seed.
    pub seed: u64,
    /// Frames to render.
    pub frames: u32,
}

/// A checked `adavp` invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// `adavp scenarios`.
    Scenarios,
    /// `adavp generate`: export every `stride`-th annotated frame to `out`.
    Generate {
        /// The clip.
        clip: ClipArgs,
        /// Export every `stride`-th frame.
        stride: usize,
        /// Output directory.
        out: String,
    },
    /// `adavp run`: evaluate one scheme on one clip.
    Run {
        /// The clip.
        clip: ClipArgs,
        /// The scheme under test.
        scheme: Scheme,
        /// Ground truth the frames are scored against.
        ground_truth: GroundTruthMode,
    },
    /// `adavp trace`: one traced run with its flame and percentile report.
    Trace {
        /// The clip.
        clip: ClipArgs,
        /// `--system` as given.
        system: String,
        /// The scheme under test.
        scheme: Scheme,
    },
    /// `adavp serve`: a fleet sweep.
    Serve {
        /// The sweep grid.
        sweep: SweepConfig,
        /// Worker threads.
        jobs: usize,
    },
    /// `adavp metrics`: one fleet run with metrics and a utilization report.
    Metrics {
        /// The fleet, without its streams.
        cfg: ServeConfig,
        /// Synthetic streams to add to `cfg`.
        streams: usize,
        /// Detection cycles per stream.
        cycles: usize,
        /// Utilization-report bucket width (ms).
        bucket: f64,
    },
}

/// Parses a whole command line (without the program name): the
/// subcommand, then every flag it takes. The flags are returned as well,
/// for the output paths the binary writes to.
pub fn parse(args: &[String]) -> Result<(Command, Flags), String> {
    let Some(cmd) = args.first() else {
        return Err("no command given".to_string());
    };
    let flags = parse_flags(args.get(1..).unwrap_or_default())?;
    if let Some((_, known)) = KNOWN_FLAGS.iter().find(|(c, _)| c == cmd) {
        let unknown: Vec<String> = flags
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .map(|k| format!("--{k}"))
            .collect();
        if !unknown.is_empty() {
            return Err(format!(
                "unknown flag(s) for `{cmd}`: {}",
                unknown.join(", ")
            ));
        }
    }
    let command = command(cmd, &flags)?;
    Ok((command, flags))
}

/// The typed command for `cmd` with checked `flags`.
fn command(cmd: &str, flags: &Flags) -> Result<Command, String> {
    let seed: u64 = flag(flags, "seed", 42, "an unsigned integer", |_| true)?;
    let frames: u32 = count(flags, "frames", 150)?;
    let clip = || -> Result<ClipArgs, String> {
        let (name, scenario) = scenario(flags)?;
        Ok(ClipArgs {
            name,
            scenario,
            seed,
            frames,
        })
    };
    Ok(match cmd {
        "scenarios" => Command::Scenarios,
        "generate" => {
            let clip = clip()?;
            let out = flags.get("out").ok_or("--out <dir> is required")?.clone();
            let stride = count(flags, "stride", 1)?;
            Command::Generate { clip, stride, out }
        }
        "run" => {
            let clip = clip()?;
            let (_, scheme) = system(flags)?;
            let ground_truth = match flags.get("gt").map(String::as_str) {
                Some("true") => GroundTruthMode::True,
                Some("oracle") | None => GroundTruthMode::default(),
                Some(other) => return Err(format!("--gt expects oracle|true, got {other:?}")),
            };
            Command::Run {
                clip,
                scheme,
                ground_truth,
            }
        }
        "trace" => {
            let clip = clip()?;
            let (system, scheme) = system(flags)?;
            Command::Trace {
                clip,
                system,
                scheme,
            }
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
                    return Err(format!("unknown --profile: {other} (none|brownout|both)"))
                }
            }
            let jobs = count(flags, "jobs", 1)?;
            if flags.contains_key("metrics-prom") || flags.contains_key("metrics-json") {
                sweep.metrics.enabled = true;
            }
            Command::Serve { sweep, jobs }
        }
        "metrics" => {
            let streams: usize = count(flags, "streams", 8)?;
            let cycles: usize = count(flags, "cycles", 20)?;
            let mut cfg = ServeConfig {
                seed,
                ..ServeConfig::default()
            };
            cfg.batch.gpus = count(flags, "gpus", cfg.batch.gpus)?;
            cfg.batch.max_batch = count(flags, "batch", cfg.batch.max_batch)?;
            cfg.batch.window_ms = millis(flags, "window", cfg.batch.window_ms, true)?;
            if let Some(v) = flags.get("scheme") {
                cfg.scheme = ServeScheme::parse(v.trim())
                    .ok_or_else(|| format!("unknown --scheme: {v} (mpdt|cascade|ctd)"))?;
            }
            match flags.get("profile").map(String::as_str) {
                Some("brownout") => cfg.faults = FaultProfile::brownout(0xb0b0),
                Some("none") | None => {}
                Some(other) => return Err(format!("unknown --profile: {other} (none|brownout)")),
            }
            let cadence = millis(flags, "cadence", 250.0, false)?;
            let bucket = millis(flags, "bucket", cadence * 4.0, false)?;
            cfg.metrics = MetricsConfig {
                enabled: true,
                cadence_ms: cadence,
                per_stream: true,
            };
            Command::Metrics {
                cfg,
                streams,
                cycles,
                bucket,
            }
        }
        other => return Err(format!("unknown command: {other}")),
    })
}
