//! Trace serialization for external analysis and plotting.
//!
//! Writes a [`ProcessingTrace`] (plus optional per-frame scores) as JSON or
//! CSV without any extra dependencies — the JSON writer covers exactly the
//! shapes a trace contains and escapes strings per RFC 8259.
//!
//! The string escaper and the number writer (`push_num`) here are shared
//! with the Chrome-trace exporter and the metrics renderers, so every JSON
//! and Prometheus number in the crate is written one way.

use crate::pipeline::{DetectorFault, FrameSource, ProcessingTrace};
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::Path;

/// A string escaped for inclusion in a JSON document, written as it is
/// formatted. Shared with the Chrome-trace exporter in
/// [`crate::telemetry::chrome`] and the metrics renderers.
pub(crate) struct JsonEscaped<'a>(pub &'a str);

impl fmt::Display for JsonEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Appends `s` escaped for a JSON string ([`JsonEscaped`]), copying it
/// whole when nothing in it needs an escape.
pub(crate) fn push_json_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        let _ = write!(out, "{}", JsonEscaped(s));
    } else {
        out.push_str(s);
    }
}

/// How [`push_num`] spells a value that is not finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NonFinite {
    /// JSON has no NaN or infinity: `null`.
    Null,
    /// Prometheus text exposition: `NaN`, `+Inf`, `-Inf`.
    Prom,
}

/// 2^53: below it in magnitude every integer is an `f64`, and an
/// integer-valued `f64`'s shortest round-trip form is its decimal digits.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Whether `v` takes the exact integer path of [`push_num`].
fn is_exact_int(v: f64) -> bool {
    v.abs() < EXACT_INT && (v as i64) as f64 == v
}

/// Appends the decimal digits of `n`.
pub(crate) fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        start -= 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits are UTF-8"));
}

/// Appends `v` with the bytes of `f64` `Display` (the shortest round-trip
/// form, never an exponent), spelling NaN and the infinities per
/// `non_finite`. An integer-valued `v` below 2^53 in magnitude is written
/// as its digits directly, `-0.0` as `-0`; every other finite value goes
/// through `Display`. The one number writer of every JSON and Prometheus
/// exporter.
pub(crate) fn push_num(out: &mut String, v: f64, non_finite: NonFinite) {
    if is_exact_int(v) {
        if v.is_sign_negative() {
            out.push('-');
        }
        push_uint(out, (v as i64).unsigned_abs());
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str(match non_finite {
            NonFinite::Null => "null",
            NonFinite::Prom if v.is_nan() => "NaN",
            NonFinite::Prom if v > 0.0 => "+Inf",
            NonFinite::Prom => "-Inf",
        });
    }
}

/// Appends `v` as a JSON number: [`push_num`], `null` when not finite.
pub(crate) fn push_json_num(out: &mut String, v: f64) {
    push_num(out, v, NonFinite::Null);
}

/// Formats an `f32` confidence for JSON/CSV via `Display` (shortest
/// round-trip repr, so `0.9f32` prints as `0.9`, not its f64 expansion).
/// Non-finite values become `null` to keep the JSON valid.
fn conf_num(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Mean per-box confidence of one frame output (0 when the frame shows no
/// boxes) — the per-frame aggregate the CSV exports.
fn mean_confidence(confidences: &[f32]) -> f32 {
    if confidences.is_empty() {
        return 0.0;
    }
    confidences.iter().sum::<f32>() / confidences.len() as f32
}

fn source_str(s: FrameSource) -> &'static str {
    match s {
        FrameSource::Detected => "detected",
        FrameSource::Tracked => "tracked",
        FrameSource::Held => "held",
        FrameSource::Dropped => "dropped",
    }
}

/// Appends `key` (the fixed JSON text before a number) and then `v`.
fn push_field(out: &mut String, key: &str, v: f64) {
    out.push_str(key);
    push_json_num(out, v);
}

/// Appends a cycle's fault as a JSON value (`null` when the cycle was
/// clean).
fn push_fault(out: &mut String, f: Option<DetectorFault>) {
    match f {
        None => out.push_str("null"),
        Some(DetectorFault::Spike { multiplier }) => {
            push_field(out, "{\"kind\": \"spike\", \"multiplier\": ", multiplier);
            out.push('}');
        }
        Some(DetectorFault::Timeout { multiplier }) => {
            push_field(out, "{\"kind\": \"timeout\", \"multiplier\": ", multiplier);
            out.push('}');
        }
        Some(DetectorFault::Retried { attempts }) => {
            let _ = write!(out, "{{\"kind\": \"retried\", \"attempts\": {attempts}}}");
        }
        Some(DetectorFault::Failed { attempts }) => {
            let _ = write!(out, "{{\"kind\": \"failed\", \"attempts\": {attempts}}}");
        }
    }
}

/// Serializes a trace (and optional per-frame F1 scores) to a JSON string.
///
/// Layout:
///
/// ```json
/// {
///   "pipeline": "AdaVP",
///   "energy": {"gpu_wh": ..., "cpu_wh": ..., "soc_wh": ..., "ddr_wh": ...},
///   "finished_ms": ...,
///   "cycles": [{"index": 0, "frame": 0, "setting": "YOLOv3-512", ...}, ...],
///   "frames": [{"index": 0, "source": "detected", "boxes": [...], "f1": 1.0}, ...]
/// }
/// ```
///
/// # Panics
///
/// Panics if `frame_f1` is `Some` and its length differs from the trace's.
pub fn trace_to_json(trace: &ProcessingTrace, frame_f1: Option<&[f64]>) -> String {
    if let Some(scores) = frame_f1 {
        assert_eq!(
            scores.len(),
            trace.outputs.len(),
            "frame_f1 length must match trace outputs"
        );
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"pipeline\": \"{}\",", JsonEscaped(&trace.pipeline));
    let e = &trace.energy;
    push_field(&mut out, "  \"energy\": {\"gpu_wh\": ", e.gpu_wh);
    push_field(&mut out, ", \"cpu_wh\": ", e.cpu_wh);
    push_field(&mut out, ", \"soc_wh\": ", e.soc_wh);
    push_field(&mut out, ", \"ddr_wh\": ", e.ddr_wh);
    push_field(&mut out, ", \"total_wh\": ", e.total_wh());
    push_field(&mut out, "},\n  \"finished_ms\": ", trace.finished_ms);
    push_field(&mut out, ",\n  \"gpu_busy_ms\": ", trace.gpu_busy_ms);
    push_field(&mut out, ",\n  \"cpu_busy_ms\": ", trace.cpu_busy_ms);
    out.push_str(",\n");

    out.push_str("  \"cycles\": [\n");
    for (i, cy) in trace.cycles.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"index\": {}, \"frame\": {}, \"setting\": \"{}\", \"start_ms\": ",
            cy.index, cy.detected_frame, cy.setting,
        );
        push_json_num(&mut out, cy.start_ms);
        push_field(&mut out, ", \"end_ms\": ", cy.end_ms);
        let _ = write!(
            out,
            ", \"buffered\": {}, \"tracked\": {}, \"velocity\": ",
            cy.buffered, cy.tracked,
        );
        match cy.velocity {
            Some(v) => push_json_num(&mut out, v),
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"switched\": {}, \"fault\": ", cy.switched);
        push_fault(&mut out, cy.fault);
        let _ = write!(out, ", \"diverged\": {}}}", cy.diverged);
        out.push_str(if i + 1 < trace.cycles.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");

    out.push_str("  \"frames\": [\n");
    for (i, f) in trace.outputs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"index\": {}, \"source\": \"{}\", \"display_ms\": ",
            f.frame_index,
            source_str(f.source),
        );
        push_json_num(&mut out, f.display_ms);
        out.push_str(", \"boxes\": [");
        for (j, b) in f.boxes.iter().enumerate() {
            let _ = write!(out, "{{\"class\": \"{}\", \"left\": ", b.class);
            push_json_num(&mut out, b.bbox.left as f64);
            push_field(&mut out, ", \"top\": ", b.bbox.top as f64);
            push_field(&mut out, ", \"width\": ", b.bbox.width as f64);
            push_field(&mut out, ", \"height\": ", b.bbox.height as f64);
            let _ = write!(
                out,
                ", \"confidence\": {}}}",
                f.confidences
                    .get(j)
                    .map(|&c| conf_num(c))
                    .unwrap_or_else(|| "null".to_string()),
            );
            if j + 1 < f.boxes.len() {
                out.push_str(", ");
            }
        }
        out.push(']');
        if let Some(scores) = frame_f1 {
            push_field(&mut out, ", \"f1\": ", scores[i]);
        }
        out.push('}');
        out.push_str(if i + 1 < trace.outputs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes [`trace_to_json`] output to a file, creating parent directories.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn write_trace_json(
    trace: &ProcessingTrace,
    frame_f1: Option<&[f64]>,
    path: &Path,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, trace_to_json(trace, frame_f1))
}

/// Writes per-frame `(index, source, boxes, mean_confidence, f1)` rows as
/// CSV.
///
/// # Errors
///
/// Propagates any I/O error.
///
/// # Panics
///
/// Panics if `frame_f1.len() != trace.outputs.len()`.
pub fn write_frame_csv(trace: &ProcessingTrace, frame_f1: &[f64], path: &Path) -> io::Result<()> {
    assert_eq!(frame_f1.len(), trace.outputs.len(), "score length mismatch");
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = String::from("frame,source,boxes,mean_confidence,f1\n");
    for (f, &score) in trace.outputs.iter().zip(frame_f1) {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            f.frame_index,
            source_str(f.source),
            f.boxes.len(),
            conf_num(mean_confidence(&f.confidences)),
            score
        );
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CycleRecord, FrameOutput};
    use adavp_detector::ModelSetting;
    use adavp_metrics::f1::LabeledBox;
    use adavp_video::object::ObjectClass;
    use adavp_vision::geometry::BoundingBox;

    fn sample_trace() -> ProcessingTrace {
        ProcessingTrace {
            pipeline: "Ada\"VP\"".into(),
            outputs: vec![
                FrameOutput {
                    frame_index: 0,
                    source: FrameSource::Detected,
                    boxes: vec![LabeledBox::new(
                        ObjectClass::Car,
                        BoundingBox::new(1.0, 2.0, 3.0, 4.0),
                    )],
                    confidences: vec![0.75],
                    display_ms: 400.0,
                },
                FrameOutput {
                    frame_index: 1,
                    source: FrameSource::Held,
                    boxes: vec![],
                    confidences: vec![],
                    display_ms: 433.0,
                },
            ],
            cycles: vec![CycleRecord {
                index: 0,
                detected_frame: 0,
                setting: ModelSetting::Yolo512,
                start_ms: 0.0,
                end_ms: 390.0,
                buffered: 0,
                tracked: 0,
                velocity: None,
                switched: false,
                fault: Some(DetectorFault::Retried { attempts: 2 }),
                diverged: false,
            }],
            energy: Default::default(),
            finished_ms: 433.0,
            gpu_busy_ms: 390.0,
            cpu_busy_ms: 43.0,
            telemetry: Default::default(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn json_structure_and_escaping() {
        let trace = sample_trace();
        let json = trace_to_json(&trace, Some(&[1.0, 0.5]));
        assert!(json.contains("\"pipeline\": \"Ada\\\"VP\\\"\""));
        assert!(json.contains("\"setting\": \"YOLOv3-512\""));
        assert!(json.contains("\"velocity\": null"));
        assert!(json.contains("\"source\": \"held\""));
        assert!(json.contains("\"f1\": 0.5"));
        assert!(json.contains("\"class\": \"car\""));
        assert!(json.contains("\"confidence\": 0.75"));
        // Balanced braces / brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_without_scores_omits_f1() {
        let trace = sample_trace();
        let json = trace_to_json(&trace, None);
        assert!(!json.contains("\"f1\""));
    }

    #[test]
    #[should_panic(expected = "frame_f1 length")]
    fn json_score_length_checked() {
        let trace = sample_trace();
        let _ = trace_to_json(&trace, Some(&[1.0]));
    }

    fn fault_json(f: Option<DetectorFault>) -> String {
        let mut out = String::new();
        push_fault(&mut out, f);
        out
    }

    #[test]
    fn json_fault_and_diverged_fields() {
        // Every DetectorFault variant serializes with its payload.
        assert_eq!(fault_json(None), "null");
        assert_eq!(
            fault_json(Some(DetectorFault::Spike { multiplier: 2.5 })),
            "{\"kind\": \"spike\", \"multiplier\": 2.5}"
        );
        assert_eq!(
            fault_json(Some(DetectorFault::Timeout { multiplier: 8.0 })),
            "{\"kind\": \"timeout\", \"multiplier\": 8}"
        );
        assert_eq!(
            fault_json(Some(DetectorFault::Retried { attempts: 2 })),
            "{\"kind\": \"retried\", \"attempts\": 2}"
        );
        assert_eq!(
            fault_json(Some(DetectorFault::Failed { attempts: 3 })),
            "{\"kind\": \"failed\", \"attempts\": 3}"
        );
        // Non-finite multipliers degrade to null instead of invalid JSON.
        assert_eq!(
            fault_json(Some(DetectorFault::Spike {
                multiplier: f64::NAN
            })),
            "{\"kind\": \"spike\", \"multiplier\": null}"
        );
        // And they land in the trace JSON alongside the diverged flag.
        let mut trace = sample_trace();
        trace.cycles[0].diverged = true;
        let json = trace_to_json(&trace, None);
        assert!(json.contains("\"fault\": {\"kind\": \"retried\", \"attempts\": 2}"));
        assert!(json.contains("\"diverged\": true"));
    }

    #[test]
    fn csv_golden_bytes() {
        let dir = std::env::temp_dir().join("adavp_csv_golden");
        let _ = fs::remove_dir_all(&dir);
        let trace = sample_trace();
        let path = dir.join("g.csv");
        write_frame_csv(&trace, &[1.0, 0.5], &path).unwrap();
        let csv = fs::read_to_string(&path).unwrap();
        // Pin the exact bytes: header + one row per output, floats via
        // Display (no trailing zeros). Frames without boxes export a zero
        // mean confidence.
        assert_eq!(
            csv,
            "frame,source,boxes,mean_confidence,f1\n0,detected,1,0.75,1\n1,held,0,0,0.5\n"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn confidence_golden_bytes() {
        // Per-box confidence lands byte-for-byte in both exports: the JSON
        // box object grows a `confidence` field (shortest f32 repr) and the
        // CSV gains a `mean_confidence` column.
        let mut trace = sample_trace();
        trace.outputs[0].boxes.push(LabeledBox::new(
            ObjectClass::Person,
            BoundingBox::new(5.0, 6.0, 7.0, 8.0),
        ));
        trace.outputs[0].confidences.push(0.25);
        let json = trace_to_json(&trace, None);
        assert!(json.contains(
            "{\"class\": \"car\", \"left\": 1, \"top\": 2, \"width\": 3, \"height\": 4, \
             \"confidence\": 0.75}"
        ));
        assert!(json.contains(
            "{\"class\": \"person\", \"left\": 5, \"top\": 6, \"width\": 7, \"height\": 8, \
             \"confidence\": 0.25}"
        ));
        // A box without a matching confidence entry degrades to null rather
        // than panicking or emitting invalid JSON.
        trace.outputs[0].confidences.pop();
        let json = trace_to_json(&trace, None);
        assert!(json.contains("\"height\": 8, \"confidence\": null}"));
        // CSV mean over the two boxes: (0.75 + 0.25) / 2 = 0.5.
        trace.outputs[0].confidences.push(0.25);
        let dir = std::env::temp_dir().join("adavp_csv_conf_golden");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("c.csv");
        write_frame_csv(&trace, &[1.0, 0.5], &path).unwrap();
        let csv = fs::read_to_string(&path).unwrap();
        assert_eq!(
            csv,
            "frame,source,boxes,mean_confidence,f1\n0,detected,2,0.5,1\n1,held,0,0,0.5\n"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "score length mismatch")]
    fn csv_score_length_checked() {
        let dir = std::env::temp_dir().join("adavp_csv_len");
        let trace = sample_trace();
        let _ = write_frame_csv(&trace, &[1.0], &dir.join("bad.csv"));
    }

    /// What the number writer must produce: `f64` `Display` for finite
    /// values, the format's own spelling otherwise.
    fn displayed(v: f64, non_finite: NonFinite) -> String {
        match non_finite {
            _ if v.is_finite() => format!("{v}"),
            NonFinite::Null => "null".to_string(),
            NonFinite::Prom if v.is_nan() => "NaN".to_string(),
            NonFinite::Prom if v > 0.0 => "+Inf".to_string(),
            NonFinite::Prom => "-Inf".to_string(),
        }
    }

    /// The edge cases of the integer path and of `Display`, then 10 000
    /// random bit patterns and 2 000 random integers on both sides of 2^53.
    fn writer_cases() -> Vec<f64> {
        let mut cases = vec![
            0.0,
            1.0,
            7.0,
            0.5,
            0.1,
            2.5,
            1e-7,
            123_456.789,
            EXACT_INT - 1.0,
            EXACT_INT,
            EXACT_INT + 2.0,
            EXACT_INT * 2.0,
            1e15,
            1e16,
            1e17,
            1e18,
            1e19,
            1e20,
            1e21,
            1e22,
            9.223_372_036_854_776e18,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ];
        cases.extend(cases.clone().into_iter().map(|v| -v));
        let mut rng = adavp_rng::Rng::seed_from_u64(25);
        cases.extend((0..10_000).map(|_| f64::from_bits(rng.next_u64())));
        cases.extend((0..2_000).map(|_| {
            let magnitude = (rng.next_u64() >> 10) as f64;
            if rng.gen::<bool>() {
                -magnitude
            } else {
                magnitude
            }
        }));
        cases
    }

    #[test]
    fn number_writer_matches_display_byte_for_byte() {
        for non_finite in [NonFinite::Null, NonFinite::Prom] {
            let mut out = String::new();
            for v in writer_cases() {
                out.clear();
                push_num(&mut out, v, non_finite);
                let want = displayed(v, non_finite);
                assert_eq!(out, want, "{v:e} (bits {:#x})", v.to_bits());
            }
        }
        let mut json = String::new();
        push_json_num(&mut json, f64::NEG_INFINITY);
        assert_eq!(json, "null");
        let mut digits = String::new();
        for n in [0, 9, 10, 999_999, 1_000_000, 4_294_967_296, u64::MAX] {
            digits.clear();
            push_uint(&mut digits, n);
            assert_eq!(digits, n.to_string());
        }
    }

    fn json_escape(s: &str) -> String {
        JsonEscaped(s).to_string()
    }

    #[test]
    fn escape_control_characters() {
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("t\tx"), "t\\tx");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
        assert_eq!(json_escape("back\\slash"), "back\\\\slash");
    }

    #[test]
    fn files_written() {
        let dir = std::env::temp_dir().join("adavp_trace_export");
        let _ = fs::remove_dir_all(&dir);
        let trace = sample_trace();
        write_trace_json(&trace, Some(&[1.0, 0.5]), &dir.join("t.json")).unwrap();
        write_frame_csv(&trace, &[1.0, 0.5], &dir.join("t.csv")).unwrap();
        let csv = fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(csv.starts_with("frame,source,boxes,mean_confidence,f1\n"));
        assert!(csv.contains("0,detected,1,0.75,1"));
        assert!(csv.contains("1,held,0,0,0.5"));
        let _ = fs::remove_dir_all(dir);
    }
}
