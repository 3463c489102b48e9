//! Compact text reports over telemetry logs and histograms.
//!
//! [`flame_report`] renders a flamegraph-style breakdown of where sim time
//! went — spans aggregated by `(track, name)`, bar-charted against the
//! busiest row — and [`percentile_table`] renders exact p50/p90/p99 rows
//! for a set of labeled histograms. Both write plain ASCII so reports land
//! readably in CI logs and experiment output files.

use super::{Histogram, TelemetryLog, Track};
use std::fmt::Write as _;

/// One aggregated row of [`flame_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlameRow {
    /// Resource track the spans ran on.
    pub track: Track,
    /// Span display name.
    pub name: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total sim time across them (ms).
    pub total_ms: f64,
}

/// Aggregates spans by `(track, name)`, ordered by track then descending
/// total time (ties broken by name, so the order is fully deterministic).
pub fn flame_rows(log: &TelemetryLog) -> Vec<FlameRow> {
    let mut rows: Vec<FlameRow> = Vec::new();
    for s in &log.spans {
        match rows
            .iter_mut()
            .find(|r| r.track == s.track && r.name == s.name)
        {
            Some(r) => {
                r.count += 1;
                r.total_ms += s.duration_ms();
            }
            None => rows.push(FlameRow {
                track: s.track,
                name: s.name.clone(),
                count: 1,
                total_ms: s.duration_ms(),
            }),
        }
    }
    rows.sort_by(|a, b| {
        (a.track.tid(), b.total_ms, &a.name)
            .partial_cmp(&(b.track.tid(), a.total_ms, &b.name))
            .expect("span totals are finite")
    });
    rows
}

/// Renders a flamegraph-style text breakdown of one log.
///
/// ```text
/// track        span                         count   total ms   share
/// gpu detector detect YOLOv3-512               12     4680.0  ######
/// cpu tracker  track step                      96      624.0  #
/// ```
pub fn flame_report(log: &TelemetryLog) -> String {
    let rows = flame_rows(log);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<28} {:>6} {:>11}  share",
        "track", "span", "count", "total ms"
    );
    if rows.is_empty() {
        out.push_str("(no spans recorded)\n");
        return out;
    }
    let max_total = rows.iter().map(|r| r.total_ms).fold(0.0_f64, f64::max);
    let grand: f64 = rows.iter().map(|r| r.total_ms).sum();
    for r in &rows {
        let bar_len = if max_total > 0.0 {
            ((r.total_ms / max_total) * 24.0).round() as usize
        } else {
            0
        };
        let share = if grand > 0.0 {
            r.total_ms / grand * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<13} {:<28} {:>6} {:>11.1}  {} {:.0}%",
            r.track.label(),
            r.name,
            r.count,
            r.total_ms,
            "#".repeat(bar_len.max(usize::from(r.total_ms > 0.0))),
            share,
        );
    }
    let events = log.events.len();
    if events > 0 {
        let _ = writeln!(out, "({events} instant events not shown)");
    }
    out
}

/// Renders labeled histograms as an exact-percentile table. Empty
/// histograms render as `-` rows rather than being skipped, so a fixed
/// label set always yields a fixed number of rows.
pub fn percentile_table(title: &str, rows: &[(String, &Histogram)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{title:<24} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "n", "p50", "p90", "p99", "max"
    );
    for (label, h) in rows {
        match h.percentiles() {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "{label:<24} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                    h.count(),
                    p.p50,
                    p.p90,
                    p.p99,
                    p.max,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{label:<24} {:>7} {:>9} {:>9} {:>9} {:>9}",
                    0, "-", "-", "-", "-"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Attr, Recorder, SpanKind, TelemetryConfig};

    fn sample_log() -> TelemetryLog {
        let mut r = Recorder::new(TelemetryConfig::enabled());
        for i in 0..3 {
            let t0 = i as f64 * 500.0;
            r.span(
                Track::Gpu,
                SpanKind::Detection,
                "detect YOLOv3-512".into(),
                t0,
                t0 + 390.0,
                vec![Attr::u64("cycle", i)],
            );
            r.span(
                Track::Cpu,
                SpanKind::TrackerStep,
                "track step".into(),
                t0 + 390.0,
                t0 + 396.5,
                vec![],
            );
        }
        r.span(
            Track::Cpu,
            SpanKind::FeatureExtraction,
            "extract features".into(),
            1.0,
            11.0,
            vec![],
        );
        r.finish()
    }

    #[test]
    fn rows_aggregate_and_order() {
        let rows = flame_rows(&sample_log());
        assert_eq!(rows.len(), 3);
        // GPU first, then CPU rows by descending total.
        assert_eq!(rows[0].track, Track::Gpu);
        assert_eq!(rows[0].count, 3);
        assert!((rows[0].total_ms - 3.0 * 390.0).abs() < 1e-9);
        assert_eq!(rows[1].track, Track::Cpu);
        assert!(rows[1].total_ms >= rows[2].total_ms);
        assert_eq!(rows[1].name, "track step");
    }

    #[test]
    fn report_renders() {
        let text = flame_report(&sample_log());
        assert!(text.contains("gpu detector"));
        assert!(text.contains("detect YOLOv3-512"));
        assert!(text.contains('#'));
        assert!(text.contains('%'));
        // Deterministic: same log, same bytes.
        assert_eq!(text, flame_report(&sample_log()));
    }

    #[test]
    fn empty_report() {
        let text = flame_report(&TelemetryLog::default());
        assert!(text.contains("(no spans recorded)"));
    }

    #[test]
    fn percentile_table_renders_empty_and_full() {
        let mut h = Histogram::latency_ms();
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.record(v);
        }
        let empty = Histogram::latency_ms();
        let text = percentile_table(
            "cycle ms",
            &[("full".to_string(), &h), ("none".to_string(), &empty)],
        );
        assert!(text.contains("p50"));
        assert!(text.contains("full"));
        assert!(text.contains("20.0"), "p50 of 4 samples is the 2nd: {text}");
        assert!(text.contains("none"));
        assert!(text.contains('-'));
    }
}
