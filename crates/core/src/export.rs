//! Trace serialization for external analysis and plotting.
//!
//! Writes a [`ProcessingTrace`] (plus optional per-frame scores) as JSON or
//! CSV without any extra dependencies — the JSON writer covers exactly the
//! shapes a trace contains and escapes strings per RFC 8259.

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

/// Escapes a string for inclusion in a JSON document ([`JsonEscaped`]).
pub(crate) fn json_escape(s: &str) -> String {
    JsonEscaped(s).to_string()
}

/// An `f64` formatted for JSON: `Display` for finite values, `null` for
/// NaN and infinities.
pub(crate) struct JsonNum(pub f64);

impl fmt::Display for JsonNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Formats an `f64` for JSON ([`JsonNum`]).
pub(crate) fn json_num(v: f64) -> String {
    JsonNum(v).to_string()
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

/// A cycle's fault as a JSON value (`null` when the cycle was clean).
fn fault_json(f: Option<DetectorFault>) -> String {
    match f {
        None => "null".to_string(),
        Some(DetectorFault::Spike { multiplier }) => {
            format!(
                "{{\"kind\": \"spike\", \"multiplier\": {}}}",
                json_num(multiplier)
            )
        }
        Some(DetectorFault::Timeout { multiplier }) => {
            format!(
                "{{\"kind\": \"timeout\", \"multiplier\": {}}}",
                json_num(multiplier)
            )
        }
        Some(DetectorFault::Retried { attempts }) => {
            format!("{{\"kind\": \"retried\", \"attempts\": {attempts}}}")
        }
        Some(DetectorFault::Failed { attempts }) => {
            format!("{{\"kind\": \"failed\", \"attempts\": {attempts}}}")
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
    let _ = writeln!(out, "  \"pipeline\": \"{}\",", json_escape(&trace.pipeline));
    let e = &trace.energy;
    let _ = writeln!(
        out,
        "  \"energy\": {{\"gpu_wh\": {}, \"cpu_wh\": {}, \"soc_wh\": {}, \"ddr_wh\": {}, \"total_wh\": {}}},",
        json_num(e.gpu_wh),
        json_num(e.cpu_wh),
        json_num(e.soc_wh),
        json_num(e.ddr_wh),
        json_num(e.total_wh()),
    );
    let _ = writeln!(out, "  \"finished_ms\": {},", json_num(trace.finished_ms));
    let _ = writeln!(out, "  \"gpu_busy_ms\": {},", json_num(trace.gpu_busy_ms));
    let _ = writeln!(out, "  \"cpu_busy_ms\": {},", json_num(trace.cpu_busy_ms));

    out.push_str("  \"cycles\": [\n");
    for (i, cy) in trace.cycles.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"index\": {}, \"frame\": {}, \"setting\": \"{}\", \"start_ms\": {}, \"end_ms\": {}, \"buffered\": {}, \"tracked\": {}, \"velocity\": {}, \"switched\": {}, \"fault\": {}, \"diverged\": {}}}",
            cy.index,
            cy.detected_frame,
            cy.setting,
            json_num(cy.start_ms),
            json_num(cy.end_ms),
            cy.buffered,
            cy.tracked,
            cy.velocity.map(json_num).unwrap_or_else(|| "null".into()),
            cy.switched,
            fault_json(cy.fault),
            cy.diverged,
        );
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
            "    {{\"index\": {}, \"source\": \"{}\", \"display_ms\": {}, \"boxes\": [",
            f.frame_index,
            source_str(f.source),
            json_num(f.display_ms),
        );
        for (j, b) in f.boxes.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"class\": \"{}\", \"left\": {}, \"top\": {}, \"width\": {}, \"height\": {}, \"confidence\": {}}}",
                b.class,
                json_num(b.bbox.left as f64),
                json_num(b.bbox.top as f64),
                json_num(b.bbox.width as f64),
                json_num(b.bbox.height as f64),
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
            let _ = write!(out, ", \"f1\": {}", json_num(scores[i]));
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
