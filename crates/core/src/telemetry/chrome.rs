//! Chrome trace-event JSON export.
//!
//! Serializes one or more [`TelemetryLog`]s into the [trace-event format]
//! understood by `chrome://tracing` and [Perfetto]: one *process* per log
//! (clip), one *thread* per [`Track`] (GPU detector, CPU tracker, camera),
//! complete (`ph: "X"`) events for spans and thread-scoped instants
//! (`ph: "i"`) for events. Timestamps are virtual sim time converted to
//! microseconds, so the exported bytes inherit the recorder's determinism:
//! same run → same file, regardless of `--jobs`.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use super::{Attr, AttrValue, TelemetryLog, Track};
use crate::export::{push_json_num, JsonEscaped};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Appends a sim-time millisecond value as trace-event microseconds.
fn push_us(out: &mut String, ms: f64) {
    push_json_num(out, ms * 1000.0);
}

fn push_args(out: &mut String, attrs: &[Attr]) {
    out.push('{');
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": ", JsonEscaped(&a.key));
        match &a.value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) => push_json_num(out, *v),
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(v) => {
                let _ = write!(out, "\"{}\"", JsonEscaped(v));
            }
        }
    }
    out.push('}');
}

/// Serializes labeled telemetry logs as a Chrome trace-event JSON document.
///
/// Each `(label, log)` entry becomes one trace process named `label` with
/// the three resource tracks as threads. Metadata events name every track
/// up front, so the GPU/CPU/camera rows exist even for logs that recorded
/// nothing on one of them.
pub fn chrome_trace_json(logs: &[(&str, &TelemetryLog)]) -> String {
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    // Starts one event line, separated from the previous one.
    let next = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };
    for (pid, (label, log)) in logs.iter().enumerate() {
        next(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_name\", \"args\": {{\"name\": \"{}\"}}}}",
            JsonEscaped(label)
        );
        for track in Track::ALL {
            next(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {}, \"name\": \"thread_name\", \"args\": {{\"name\": \"{}\"}}}}",
                track.tid(),
                track.label()
            );
        }
        for s in &log.spans {
            next(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"ts\": ",
                s.track.tid(),
                s.kind.category(),
                JsonEscaped(&s.name),
            );
            push_us(&mut out, s.start_ms);
            out.push_str(", \"dur\": ");
            push_us(&mut out, s.duration_ms());
            out.push_str(", \"args\": ");
            push_args(&mut out, &s.attrs);
            out.push('}');
        }
        for e in &log.events {
            next(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"ts\": ",
                e.track.tid(),
                e.kind.category(),
                JsonEscaped(&e.name),
            );
            push_us(&mut out, e.at_ms);
            out.push_str(", \"s\": \"t\", \"args\": ");
            push_args(&mut out, &e.attrs);
            out.push('}');
        }
    }
    out.push_str("\n]\n}\n");
    out
}

/// Writes [`chrome_trace_json`] output to a file, creating parent
/// directories.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn write_chrome_trace(logs: &[(&str, &TelemetryLog)], path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, chrome_trace_json(logs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventKind, Recorder, SpanKind, TelemetryConfig};

    fn sample_log() -> TelemetryLog {
        let mut r = Recorder::new(TelemetryConfig::enabled());
        r.span(
            Track::Gpu,
            SpanKind::Detection,
            "detect \"YOLOv3-512\"".into(),
            10.0,
            400.0,
            vec![Attr::u64("cycle", 0), Attr::f64("ratio", 0.5)],
        );
        r.span(
            Track::Cpu,
            SpanKind::TrackerStep,
            "track".into(),
            400.0,
            406.5,
            vec![Attr::bool("diverged", false)],
        );
        r.event(
            Track::Camera,
            EventKind::FrameDrop,
            "drop".into(),
            433.0,
            vec![Attr::str("why", "fault\nplan")],
        );
        r.finish()
    }

    #[test]
    fn structure_and_tracks() {
        let log = sample_log();
        let json = chrome_trace_json(&[("clip-a", &log)]);
        assert!(json.starts_with("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": ["));
        // All three thread_name metadata rows are present.
        assert!(json.contains("\"name\": \"gpu detector\""));
        assert!(json.contains("\"name\": \"cpu tracker\""));
        assert!(json.contains("\"name\": \"camera\""));
        assert!(json.contains("\"name\": \"process_name\""));
        // Span: ts/dur in microseconds.
        assert!(json.contains("\"ts\": 10000, \"dur\": 390000"));
        // Instant event with thread scope.
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"s\": \"t\""));
        // Escaping flows through for names and string attrs.
        assert!(json.contains("detect \\\"YOLOv3-512\\\""));
        assert!(json.contains("fault\\nplan"));
        // Typed args serialize natively.
        assert!(json.contains("\"cycle\": 0"));
        assert!(json.contains("\"ratio\": 0.5"));
        assert!(json.contains("\"diverged\": false"));
        // Cheap well-formedness: balanced braces/brackets, no trailing comma.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn multiple_logs_get_distinct_pids() {
        let a = sample_log();
        let b = TelemetryLog::default();
        let json = chrome_trace_json(&[("one", &a), ("two", &b)]);
        assert!(json.contains("\"pid\": 0"));
        assert!(json.contains("\"pid\": 1"));
        assert!(json.contains("\"name\": \"one\""));
        assert!(json.contains("\"name\": \"two\""));
        // The empty log still announces all three tracks via metadata.
        assert_eq!(json.matches("thread_name").count(), 6);
    }

    #[test]
    fn empty_input_is_valid() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\": [\n\n]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("adavp_chrome_trace");
        let _ = fs::remove_dir_all(&dir);
        let log = sample_log();
        let path = dir.join("trace.json");
        write_chrome_trace(&[("clip", &log)], &path).unwrap();
        let bytes = fs::read_to_string(&path).unwrap();
        assert_eq!(bytes, chrome_trace_json(&[("clip", &log)]));
        let _ = fs::remove_dir_all(dir);
    }
}
