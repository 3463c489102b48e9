//! Fault-injection sweep: how gracefully does each scheme degrade?
//!
//! Runs every scheme of interest under a battery of named fault scenarios
//! (latency spikes, detector failures, dropped frames, tracker divergence,
//! SoC contention, and everything at once) and reports accuracy, realtime
//! factor, energy, and the degradation counters the pipelines record. The
//! sweep is deterministic: fault decisions are hash-keyed on the scenario
//! seed, so the same seed produces byte-identical reports at any `--jobs`.

use crate::report::f3;
use crate::runner::SchemeResult;
use crate::ExperimentContext;
use adavp_core::pipeline::{PipelineConfig, Scheme};
use adavp_detector::ModelSetting;
use adavp_sim::fault::{FaultPlan, FaultProfile};
use std::fmt::Write as _;

/// A named fault scenario for the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Scenario label used in reports ("none", "stress", ...).
    pub name: &'static str,
    /// The injected fault profile.
    pub profile: FaultProfile,
}

/// The standard scenario battery, one per fault kind plus the clean
/// baseline and the all-at-once stress profile.
pub fn scenarios(seed: u64) -> Vec<FaultScenario> {
    vec![
        FaultScenario {
            name: "none",
            profile: FaultProfile::none(),
        },
        FaultScenario {
            name: "latency-spikes",
            profile: FaultProfile::latency_spikes(seed),
        },
        FaultScenario {
            name: "flaky-detector",
            profile: FaultProfile::flaky_detector(seed),
        },
        FaultScenario {
            name: "lossy-camera",
            profile: FaultProfile::lossy_camera(seed),
        },
        FaultScenario {
            name: "diverging-tracker",
            profile: FaultProfile::diverging_tracker(seed),
        },
        FaultScenario {
            name: "contended-soc",
            profile: FaultProfile::contended_soc(seed),
        },
        FaultScenario {
            name: "stress",
            profile: FaultProfile::stress(seed),
        },
    ]
}

/// One (scenario, scheme) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepRow {
    /// Scenario label.
    pub scenario: String,
    /// Scheme label.
    pub scheme: String,
    /// Dataset accuracy under the scenario.
    pub accuracy: f64,
    /// Mean processing-time / video-duration ratio.
    pub latency_multiplier: f64,
    /// Total energy over the dataset (Wh).
    pub energy_wh: f64,
    /// Fraction of frames displayed from a stale detection (held).
    pub held_fraction: f64,
    /// Fraction of frames that were dropped and inherited their boxes.
    pub dropped_fraction: f64,
    /// Detection cycles that hit any fault (spike/timeout/retry/failure).
    pub faulted_cycles: usize,
    /// Cycles whose detection degraded (timed out or retries exhausted).
    pub degraded_cycles: usize,
    /// Cycles in which the tracker diverged.
    pub diverged_cycles: usize,
}

/// CSV header for [`sweep_rows`].
pub const SWEEP_HEADER: [&str; 10] = [
    "scenario",
    "scheme",
    "accuracy",
    "latency_mult",
    "energy_wh",
    "held_frac",
    "dropped_frac",
    "faulted_cycles",
    "degraded_cycles",
    "diverged_cycles",
];

fn summarize(scenario: &str, r: &SchemeResult) -> FaultSweepRow {
    let mut frames = 0usize;
    let mut held = 0usize;
    let mut dropped = 0usize;
    let mut faulted = 0usize;
    let mut degraded = 0usize;
    let mut diverged = 0usize;
    for ev in &r.evaluations {
        let t = &ev.trace;
        frames += t.outputs.len();
        let f = t.source_fractions();
        held += (f.held * t.outputs.len() as f64).round() as usize;
        dropped += (f.dropped * t.outputs.len() as f64).round() as usize;
        faulted += t.fault_count();
        degraded += t.degraded_cycle_count();
        diverged += t.diverged_cycle_count();
    }
    let nf = frames.max(1) as f64;
    FaultSweepRow {
        scenario: scenario.to_string(),
        scheme: r.label.clone(),
        accuracy: r.accuracy,
        latency_multiplier: r.latency_multiplier,
        energy_wh: r.energy.total_wh(),
        held_fraction: held as f64 / nf,
        dropped_fraction: dropped as f64 / nf,
        faulted_cycles: faulted,
        degraded_cycles: degraded,
        diverged_cycles: diverged,
    }
}

/// Runs the full scenario × scheme sweep over the context's test set.
///
/// Schemes: AdaVP (trained model), MPDT-512, MARLIN-512, the
/// detection-only baseline, Cascade-512, and CTD-512 — the paper's §VI
/// line-up plus the cascaded/confidence-triggered schemes under fault load.
/// Clips fan out across the context executor within each cell; cells run
/// in order, so the row order (and every byte derived from it) is
/// independent of `--jobs`.
pub fn fault_sweep(ctx: &mut ExperimentContext) -> Vec<FaultSweepRow> {
    // Scenario seed: inherit the context's configured fault seed if any,
    // else the sweep default.
    let faults = &ctx.pipeline().faults;
    let seed = if faults.is_none() {
        17
    } else {
        faults.profile().seed
    };
    let scenarios = scenarios(seed);
    sweep_with(ctx, &scenarios)
}

/// Runs an explicit scenario battery over the context's test set (the
/// conformance tests use this with a single committed fixture profile).
pub fn sweep_with(ctx: &mut ExperimentContext, scenarios: &[FaultScenario]) -> Vec<FaultSweepRow> {
    let model = ctx.adaptation_model().clone();
    let base = ctx.pipeline().clone();
    let schemes = [
        Scheme::AdaVp(model),
        Scheme::Mpdt(ModelSetting::Yolo512),
        Scheme::Marlin(ModelSetting::Yolo512),
        Scheme::WithoutTracking(ModelSetting::Yolo512),
        Scheme::Cascade(ModelSetting::Yolo512),
        Scheme::Ctd(ModelSetting::Yolo512),
    ];
    let mut rows = Vec::new();
    for sc in scenarios {
        let pipe = PipelineConfig {
            faults: FaultPlan::new(sc.profile.clone()),
            ..base.clone()
        };
        for scheme in &schemes {
            rows.push(summarize(sc.name, &ctx.run_with(scheme, &pipe)));
        }
    }
    rows
}

/// Renders sweep rows as CSV cells (pair with [`SWEEP_HEADER`]).
pub fn sweep_rows(rows: &[FaultSweepRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.scheme.clone(),
                f3(r.accuracy),
                f3(r.latency_multiplier),
                f3(r.energy_wh),
                f3(r.held_fraction),
                f3(r.dropped_fraction),
                r.faulted_cycles.to_string(),
                r.degraded_cycles.to_string(),
                r.diverged_cycles.to_string(),
            ]
        })
        .collect()
}

/// Serializes the sweep as a JSON document (no external dependencies; the
/// row shape is flat, so the writer is a few lines).
pub fn sweep_to_json(rows: &[FaultSweepRow]) -> String {
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"scenario\": \"{}\", \"scheme\": \"{}\", \"accuracy\": {}, \"latency_mult\": {}, \"energy_wh\": {}, \"held_frac\": {}, \"dropped_frac\": {}, \"faulted_cycles\": {}, \"degraded_cycles\": {}, \"diverged_cycles\": {}}}",
            r.scenario,
            r.scheme,
            r.accuracy,
            r.latency_multiplier,
            r.energy_wh,
            r.held_fraction,
            r.dropped_fraction,
            r.faulted_cycles,
            r.degraded_cycles,
            r.diverged_cycles,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a fault-profile fixture: `key = value` lines, `#` comments.
///
/// Recognized keys mirror [`FaultProfile`]'s fields; `latency_spike_mult`
/// takes exactly two whitespace-separated numbers. Unknown keys, repeated
/// keys, non-finite numbers, probabilities outside `[0, 1]` and negative
/// durations are errors, so a typo in a fixture cannot silently weaken a
/// conformance test (the fault plan would otherwise read a NaN or negative
/// probability as "never", and a later `frame_drop_prob = 0` would quietly
/// override an earlier one).
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse_profile_fixture(text: &str) -> Result<FaultProfile, String> {
    let mut p = FaultProfile::none();
    // (key, 1-based line) of every key set so far.
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        if let Some((_, first)) = seen.iter().find(|(k, _)| *k == key) {
            return Err(format!(
                "line {}: repeated key {key:?} (first set on line {first})",
                lineno + 1
            ));
        }
        seen.push((key, lineno + 1));
        let num = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("line {}: bad number {v:?}", lineno + 1))
        };
        let prob = |v: &str| {
            let x = num(v)?;
            if (0.0..=1.0).contains(&x) {
                Ok(x)
            } else {
                Err(format!(
                    "line {}: probability {v:?} outside [0, 1]",
                    lineno + 1
                ))
            }
        };
        let duration = |v: &str| {
            let x = num(v)?;
            if x >= 0.0 {
                Ok(x)
            } else {
                Err(format!("line {}: negative duration {v:?}", lineno + 1))
            }
        };
        match key {
            "seed" => {
                p.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("line {}: bad seed {value:?}", lineno + 1))?;
            }
            "latency_spike_prob" => p.latency_spike_prob = prob(value)?,
            "latency_spike_mult" => {
                let mut it = value.split_whitespace();
                let lo = num(it.next().unwrap_or(""))?;
                let hi = num(it.next().unwrap_or(""))?;
                if let Some(extra) = it.next() {
                    return Err(format!(
                        "line {}: latency_spike_mult takes two numbers, got extra {extra:?}",
                        lineno + 1
                    ));
                }
                p.latency_spike_mult = (lo, hi);
            }
            "detector_failure_prob" => p.detector_failure_prob = prob(value)?,
            "frame_drop_prob" => p.frame_drop_prob = prob(value)?,
            "tracker_divergence_prob" => p.tracker_divergence_prob = prob(value)?,
            "contention_period_ms" => p.contention_period_ms = duration(value)?,
            "contention_busy_ms" => p.contention_busy_ms = duration(value)?,
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_core::adaptation::AdaptationModel;
    use adavp_video::dataset::DatasetScale;

    #[test]
    fn scenario_battery_covers_every_fault_kind() {
        let s = scenarios(7);
        assert_eq!(s[0].name, "none");
        assert!(s[0].profile.is_quiet());
        assert!(s.iter().any(|x| x.profile.latency_spike_prob > 0.0));
        assert!(s.iter().any(|x| x.profile.detector_failure_prob > 0.0));
        assert!(s.iter().any(|x| x.profile.frame_drop_prob > 0.0));
        assert!(s.iter().any(|x| x.profile.tracker_divergence_prob > 0.0));
        assert!(s.iter().any(|x| x.profile.contention_period_ms > 0.0));
        // The stress profile exercises everything at once.
        let stress = s.iter().find(|x| x.name == "stress").expect("stress");
        assert!(stress.profile.latency_spike_prob > 0.0);
        assert!(stress.profile.frame_drop_prob > 0.0);
    }

    #[test]
    fn fixture_parser_roundtrip_and_errors() {
        let text = "\
# stress-like profile
seed = 99
latency_spike_prob = 0.25   # per cycle
latency_spike_mult = 2.0 5.0
detector_failure_prob = 0.1
frame_drop_prob = 0.05
tracker_divergence_prob = 0.2
contention_period_ms = 300
contention_busy_ms = 80
";
        let p = parse_profile_fixture(text).expect("parse");
        assert_eq!(p.seed, 99);
        assert_eq!(p.latency_spike_mult, (2.0, 5.0));
        assert_eq!(p.contention_busy_ms, 80.0);
        assert!(!p.is_quiet());

        assert!(parse_profile_fixture("nonsense").is_err());
        assert!(parse_profile_fixture("volume = 11").is_err());
        assert!(parse_profile_fixture("seed = eleven").is_err());
        // Values the fault plan would silently read as "no fault", or as
        // nonsense, are rejected with their line number.
        for (bad, line) in [
            ("frame_drop_prob = nan", 1),
            ("seed = 1\nlatency_spike_prob = inf", 2),
            ("detector_failure_prob = -0.1", 1),
            ("# c\n\ntracker_divergence_prob = 1.5", 3),
            ("contention_period_ms = -300", 1),
            ("contention_busy_ms = NaN", 1),
            ("latency_spike_mult = 2.0 5.0 9.0", 1),
            ("latency_spike_mult = 2.0 inf", 1),
            // A repeated key would silently override the earlier line.
            ("frame_drop_prob = 0.3\n# quiet\nframe_drop_prob = 0", 3),
            ("seed = 1\nseed = 1", 2),
        ] {
            let err = parse_profile_fixture(bad).expect_err(bad);
            assert!(err.starts_with(&format!("line {line}:")), "{bad}: {err}");
        }
        let err = parse_profile_fixture("frame_drop_prob = 0.3\nframe_drop_prob = 0")
            .expect_err("repeated key");
        assert_eq!(
            err,
            "line 2: repeated key \"frame_drop_prob\" (first set on line 1)"
        );
        // The closed range is fine.
        let edge = parse_profile_fixture("frame_drop_prob = 1\ncontention_period_ms = 0");
        assert_eq!(edge.expect("edges parse").frame_drop_prob, 1.0);
        // Comments and blanks alone are the quiet profile.
        assert!(parse_profile_fixture("# nothing\n\n")
            .expect("ok")
            .is_quiet());
    }

    #[test]
    fn sweep_reports_degradation_counters() {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        ctx.set_adaptation_model(AdaptationModel::default_model());
        ctx.limit_test_clips(1);
        let rows = fault_sweep(&mut ctx);
        // 7 scenarios x 6 schemes.
        assert_eq!(rows.len(), 42);
        for r in &rows {
            assert!(r.accuracy.is_finite() && (0.0..=1.0).contains(&r.accuracy));
            assert!(r.latency_multiplier.is_finite());
            if r.scenario == "none" {
                assert_eq!(r.faulted_cycles, 0, "{}: clean run faulted", r.scheme);
                assert_eq!(r.dropped_fraction, 0.0);
            }
        }
        // The lossy-camera scenario must actually drop frames somewhere.
        assert!(
            rows.iter()
                .filter(|r| r.scenario == "lossy-camera")
                .any(|r| r.dropped_fraction > 0.0),
            "lossy-camera dropped nothing"
        );
        // The flaky detector must trip the retry/degradation machinery.
        assert!(
            rows.iter()
                .filter(|r| r.scenario == "flaky-detector")
                .any(|r| r.faulted_cycles > 0),
            "flaky-detector never faulted"
        );
        // CSV and JSON renderers accept the rows.
        let cells = sweep_rows(&rows);
        assert_eq!(cells.len(), rows.len());
        assert_eq!(cells[0].len(), SWEEP_HEADER.len());
        let json = sweep_to_json(&rows);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"scenario\": \"stress\""));
    }
}
