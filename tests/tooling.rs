//! Integration tests for the tooling layers: trace analysis, JSON/CSV
//! export, PGM frame export — everything a user consumes downstream of a
//! pipeline run — plus the determinism lint run as a library, so plain
//! `cargo test` enforces the byte-reproducibility contract without ci.sh.

use adavp::core::analysis::{analyze, switch_gaps, usage_shares};
use adavp::core::eval::{evaluate_on_clip, EvalConfig};
use adavp::core::export::{trace_to_json, write_frame_csv, write_trace_json};
use adavp::core::metrics::{json_snapshot, MetricsConfig};
use adavp::core::pipeline::{MpdtPipeline, PipelineConfig, SettingPolicy, VideoProcessor};
use adavp::core::serve::{run_fleet, BatchConfig, ServeConfig};
use adavp::core::telemetry::{self, chrome::chrome_trace_json, TelemetryConfig, Track};
use adavp::detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::sim::FaultProfile;
use adavp::video::clip::VideoClip;
use adavp::video::export::{draw_boxes, export_clip, read_pgm, write_pgm};
use adavp::video::scenario::Scenario;
use std::fs;

fn run_once() -> (VideoClip, adavp::core::eval::VideoEvaluation) {
    let mut spec = Scenario::CityStreet.spec();
    spec.width = 240;
    spec.height = 140;
    spec.size_range = (20.0, 36.0);
    let clip = VideoClip::generate("tooling", &spec, 19, 120);
    let mut p = MpdtPipeline::new(
        SimulatedDetector::new(DetectorConfig::default()),
        SettingPolicy::Fixed(ModelSetting::Yolo512),
        PipelineConfig::default(),
    );
    let ev = evaluate_on_clip(&mut p, &clip, &EvalConfig::default());
    (clip, ev)
}

#[test]
fn analysis_of_real_trace_is_consistent() {
    let (_, ev) = run_once();
    let stats = analyze(&ev.trace);
    assert!(stats.cycles > 2);
    assert_eq!(stats.switches, 0, "fixed policy never switches");
    assert!(stats.mean_cycle_ms > 300.0 && stats.mean_cycle_ms < 500.0);
    let src = stats.frame_sources;
    assert!((src.sum() - 1.0).abs() < 1e-9);
    assert_eq!(src.dropped, 0.0, "no faults configured");

    // No switches → no switch gaps.
    assert!(switch_gaps([&ev.trace]).is_empty());
    let shares = usage_shares([&ev.trace]);
    assert!((shares[2].1 - 1.0).abs() < 1e-9);
}

#[test]
fn json_export_of_real_trace_round_trips_key_fields() {
    let (_, ev) = run_once();
    let json = trace_to_json(&ev.trace, Some(&ev.frame_f1));
    assert!(json.contains("\"pipeline\": \"MPDT-YOLOv3-512\""));
    assert_eq!(
        json.matches("\"index\":").count(),
        ev.trace.outputs.len() + ev.trace.cycles.len()
    );
    // Balanced structure.
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let dir = std::env::temp_dir().join("adavp_tooling_test");
    let _ = fs::remove_dir_all(&dir);
    write_trace_json(&ev.trace, Some(&ev.frame_f1), &dir.join("trace.json")).unwrap();
    write_frame_csv(&ev.trace, &ev.frame_f1, &dir.join("frames.csv")).unwrap();
    let csv = fs::read_to_string(dir.join("frames.csv")).unwrap();
    assert_eq!(csv.lines().count(), ev.trace.outputs.len() + 1);
    let _ = fs::remove_dir_all(dir);
}

/// Minimal recursive-descent JSON well-formedness checker, the workspace's
/// one JSON reader. No JSON parser is available offline, and the exporters
/// build their documents by string concatenation — so validate them the
/// hard way: the whole byte stream must parse as exactly one JSON value.
mod json_check {
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = skip_ws(b, 0);
        i = value(b, i)?;
        i = skip_ws(b, i);
        if i == b.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at offset {i}"))
        }
    }

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }

    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        match b.get(i) {
            Some(b'{') => composite(b, i + 1, b'}', true),
            Some(b'[') => composite(b, i + 1, b']', false),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => Err(format!("unexpected {other:?} at offset {i}")),
        }
    }

    fn composite(b: &[u8], mut i: usize, close: u8, keyed: bool) -> Result<usize, String> {
        i = skip_ws(b, i);
        if b.get(i) == Some(&close) {
            return Ok(i + 1);
        }
        loop {
            if keyed {
                i = string(b, skip_ws(b, i))?;
                i = skip_ws(b, i);
                if b.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at offset {i}"));
                }
                i += 1;
            }
            i = value(b, skip_ws(b, i))?;
            i = skip_ws(b, i);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(c) if *c == close => return Ok(i + 1),
                other => return Err(format!("expected ',' or close, got {other:?} at {i}")),
            }
        }
    }

    fn literal(b: &[u8], i: usize, word: &[u8]) -> Result<usize, String> {
        if b.get(i..i + word.len()) == Some(word) {
            Ok(i + word.len())
        } else {
            Err(format!("bad literal at offset {i}"))
        }
    }

    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected string at offset {i}"));
        }
        let mut j = i + 1;
        while let Some(&c) = b.get(j) {
            match c {
                b'"' => return Ok(j + 1),
                b'\\' => match b.get(j + 1) {
                    Some(b'u') => {
                        let hex = b.get(j + 2..j + 6).ok_or("truncated \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at offset {j}"));
                        }
                        j += 6;
                    }
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => j += 2,
                    other => return Err(format!("bad escape {other:?} at offset {j}")),
                },
                0x00..=0x1F => return Err(format!("raw control byte in string at {j}")),
                _ => j += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], mut i: usize) -> Result<usize, String> {
        let start = i;
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        let digits = |b: &[u8], mut i: usize| {
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            i
        };
        let d = digits(b, i);
        if d == i {
            return Err(format!("expected digits at offset {start}"));
        }
        i = d;
        if b.get(i) == Some(&b'.') {
            let f = digits(b, i + 1);
            if f == i + 1 {
                return Err(format!("bare decimal point at offset {i}"));
            }
            i = f;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let e = digits(b, i);
            if e == i {
                return Err(format!("empty exponent at offset {i}"));
            }
            i = e;
        }
        Ok(i)
    }
}

/// The acceptance path behind `adavp trace --chrome`: an MPDT run with
/// telemetry enabled must export valid Chrome trace-event JSON carrying
/// all three resource tracks (GPU detector / CPU tracker / camera).
#[test]
fn chrome_trace_export_is_valid_json_with_three_tracks() {
    let mut spec = Scenario::CityStreet.spec();
    spec.width = 240;
    spec.height = 140;
    spec.size_range = (20.0, 36.0);
    let clip = VideoClip::generate("telemetry", &spec, 19, 120);
    let mut p = MpdtPipeline::new(
        SimulatedDetector::new(DetectorConfig::default()),
        SettingPolicy::Fixed(ModelSetting::Yolo512),
        PipelineConfig {
            telemetry: TelemetryConfig::enabled(),
            ..PipelineConfig::default()
        },
    );
    let trace = p.process(&clip);

    // All three modeled resources carry activity.
    assert!(trace.telemetry.spans_on(Track::Gpu).count() > 0);
    assert!(trace.telemetry.spans_on(Track::Cpu).count() > 0);
    assert!(
        trace
            .telemetry
            .events
            .iter()
            .any(|e| e.track == Track::Camera),
        "camera track recorded no events"
    );

    let json = chrome_trace_json(&[("mpdt-512 / telemetry", &trace.telemetry)]);
    json_check::validate(&json).expect("chrome trace must be valid JSON");
    for track in ["gpu detector", "cpu tracker", "camera"] {
        assert!(json.contains(track), "missing track {track}");
    }
    assert!(json.contains("\"ph\": \"X\""), "no spans exported");
    assert!(json.contains("\"ph\": \"i\""), "no instants exported");

    // The flame report and percentile summary printed by the CLI render
    // from the same log without panicking and mention real span names.
    let flame = telemetry::report::flame_report(&trace.telemetry);
    assert!(flame.contains("detect"), "{flame}");
    let dist = telemetry::distributions([&trace]);
    let p = dist.cycle_ms.percentiles().expect("cycles recorded");
    assert!(p.p50 > 0.0 && p.p50 <= p.p99);

    // The validator itself must reject malformed documents, or the
    // assertion above pins nothing.
    assert!(json_check::validate("{\"a\": [1, 2,]}").is_err());
    assert!(json_check::validate("{\"a\": 1} extra").is_err());
    assert!(json_check::validate("{\"a\": 01e}").is_err());
}

/// A small brownout fleet's metrics snapshot (`adavp metrics --json`, the
/// metrics JSON writer, which is also hand-formatted) is one well-formed
/// document, and each series is a cadence plus two columns of equal
/// length, `t_ms` strictly increasing up to the closing sample.
#[test]
fn fleet_metrics_snapshot_is_valid_json_with_columnar_series() {
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(4, 6, 3),
        batch: BatchConfig {
            gpus: 1,
            ..BatchConfig::default()
        },
        faults: FaultProfile::brownout(3),
        metrics: MetricsConfig::enabled(),
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    let registry = &report.metrics.as_ref().expect("metrics enabled").registry;
    let json = json_snapshot(registry);
    json_check::validate(&json).expect("metrics snapshot must be valid JSON");
    assert!(!registry.series().is_empty(), "no series sampled");
    let column = |line: &str, key: &str| -> Vec<f64> {
        let start = line.find(key).expect("column") + key.len();
        let end = start + line[start..].find(']').expect("column end");
        line[start..end]
            .split(',')
            .map(|v| v.parse().expect("number"))
            .collect()
    };
    let lines: Vec<&str> = json.lines().filter(|l| l.contains("\"t_ms\": [")).collect();
    assert_eq!(lines.len(), registry.series().len());
    let closing = registry.series()[0].points.last().map(|p| p.t_ms);
    for (line, series) in lines.iter().zip(registry.series()) {
        assert!(line.contains("\"cadence_ms\": 500, "), "{line}");
        let (t, value) = (column(line, "\"t_ms\": ["), column(line, "\"value\": ["));
        assert_eq!(t.len(), value.len(), "{line}");
        assert_eq!(t.len(), series.points.len(), "{line}");
        assert!(t.windows(2).all(|w| w[0] < w[1]), "{line}");
        assert_eq!(
            t.last().copied(),
            closing,
            "every series ends at the closing sample"
        );
    }
    // The closing sample is at the final event; the horizon, the latest
    // stream finish, may lie one publish interval later, never earlier.
    let closing = closing.expect("a closing sample");
    assert!(
        closing <= report.horizon_ms,
        "closing sample at {closing} ms is past the horizon {} ms",
        report.horizon_ms
    );
}

/// The committed kernel bench record (`kernels_bench` formats its JSON by
/// hand) is one well-formed document and carries the same-run speed-ups.
#[test]
fn committed_kernel_bench_is_valid_json() {
    let json = include_str!("../BENCH_kernels.json");
    json_check::validate(json).expect("BENCH_kernels.json must be valid JSON");
    assert!(json.contains("\"speedups\": ["), "no speedups section");
}

#[test]
fn frame_export_with_pipeline_boxes() {
    let (clip, ev) = run_once();
    // Draw the pipeline's displayed boxes for frame 30 and round-trip it.
    let out = &ev.trace.outputs[30];
    let boxes: Vec<_> = out.boxes.iter().map(|l| (l.bbox, 255u8)).collect();
    let annotated = draw_boxes(&clip.frame(30).image, &boxes);
    let dir = std::env::temp_dir().join("adavp_tooling_pgm");
    let _ = fs::remove_dir_all(&dir);
    let path = dir.join("f30.pgm");
    write_pgm(&annotated, &path).unwrap();
    let back = read_pgm(&path).unwrap();
    assert_eq!(back, annotated);

    // Bulk export runs too.
    let n = export_clip(&clip, &dir, 40).unwrap();
    assert_eq!(n, 3);
    let _ = fs::remove_dir_all(dir);
}

/// The determinism lint (DESIGN.md §13) run as a library over the live
/// workspace: `cargo test -q` alone — the tier-1 gate — fails on any
/// reintroduced wall-clock read, ambient RNG, unordered map in a
/// deterministic crate, missing `#![forbid(unsafe_code)]`, or stale
/// waiver, without needing scripts/ci.sh.
#[test]
fn determinism_lint_passes_on_live_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = adavp_lint::lint_workspace(root).expect("adavp-lint runs on the workspace");
    assert!(
        outcome.findings.is_empty(),
        "determinism violations (add a reasoned waiver only if the host \
         read is genuinely by design):\n{}",
        outcome.violation_report()
    );
    let stale: Vec<String> = outcome
        .stale_waivers()
        .iter()
        .map(|w| format!("[{}] {}", w.rule, w.site))
        .collect();
    assert!(stale.is_empty(), "stale waivers, remove them: {stale:?}");
    assert!(
        outcome.files_scanned >= 70,
        "lint walked only {} files",
        outcome.files_scanned
    );
}

/// One level of parallelism (DESIGN.md §9): the harness's
/// `exec::Executor` is the only code in the vision crate that starts
/// threads, and no kernel maps its own work over an executor. Scans the
/// lexed tokens of every non-test item under `crates/vision/src`, so docs
/// and `#[cfg(test)]` modules may name either; `exec.rs` is the one file
/// allowed both, and `lib.rs` re-exports `Executor` without a path call.
#[test]
fn vision_kernels_start_no_threads() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/vision/src");
    let mut files = vec![src];
    let mut offenders = Vec::new();
    let mut scanned = 0;
    while let Some(path) = files.pop() {
        if path.is_dir() {
            for entry in fs::read_dir(&path).expect("read vision src dir") {
                files.push(entry.expect("dir entry").path());
            }
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") || path.ends_with("exec.rs") {
            continue;
        }
        scanned += 1;
        let text = fs::read_to_string(&path).expect("read vision source");
        let lexed = adavp_lint::lexer::strip_cfg_test(adavp_lint::lexer::lex(&text));
        for w in lexed.tokens.windows(3) {
            let (a, b, c) = (w[0].text.as_str(), w[1].text.as_str(), w[2].text.as_str());
            if (a == "Executor" && b == "::") || (a == "std" && b == "::" && c == "thread") {
                offenders.push(format!("{}:{}: {a}{b}{c}", path.display(), w[0].line));
            }
        }
    }
    assert!(scanned >= 12, "scanned only {scanned} vision sources");
    assert!(
        offenders.is_empty(),
        "vision code outside exec.rs starts threads or maps an Executor:\n{}",
        offenders.join("\n")
    );
}

/// The flow-aware passes (DESIGN.md §18) as part of the same tier-1 gate:
/// the committed baseline absorbs only the pre-existing index-expression
/// debt, every baseline entry still matches a live finding, and `--fix-check`
/// semantics (no deny findings, no stale waivers, no stale baseline rows)
/// hold without invoking the CLI.
#[test]
fn flow_aware_passes_hold_on_live_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = adavp_lint::load_baseline(root).expect("lint.baseline parses");
    assert!(
        baseline.as_ref().is_some_and(|b| !b.entries.is_empty()),
        "lint.baseline should be committed and non-empty"
    );
    let outcome = adavp_lint::lint_workspace_with(root, baseline.as_ref())
        .expect("adavp-lint runs on the workspace");
    assert!(
        outcome.fix_check_ok(),
        "fix-check failed — deny: {}, stale waivers: {}, stale baseline: {}\n{}",
        outcome.deny_findings().len(),
        outcome.stale_waivers().len(),
        outcome.stale_baseline.len(),
        outcome.violation_report()
    );
    assert!(
        outcome.baseline_suppressed > 0,
        "baseline no longer suppresses anything — regenerate or delete it"
    );
    // The machine-readable report is deterministic: no timestamps, stable
    // ordering, so two runs serialize identically byte for byte.
    let again = adavp_lint::lint_workspace_with(root, baseline.as_ref()).expect("second lint run");
    assert_eq!(
        outcome.json_report(),
        again.json_report(),
        "--json output must be byte-stable across runs"
    );
}
