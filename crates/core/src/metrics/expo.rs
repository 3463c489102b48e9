//! Renderers for the metrics registry: Prometheus text exposition and a
//! JSON snapshot.
//!
//! Both renderers are pure functions of the registry. Because the registry
//! iterates in `(name, labels)` order and every value inside it is a pure
//! function of the serve configuration, the rendered bytes are identical
//! across `--jobs` counts and across runs — the same contract the sweep
//! CSV/JSON renderers already carry (DESIGN.md §13). String escaping
//! reuses the shared formatters in [`crate::export`].
//!
//! Each renderer `write!`s into one buffer: numbers, labels and escaped
//! strings are `Display` values formatted in place, so the cost is the
//! output's length, not one `String` per number.

use super::{LabelSet, MetricValue, MetricsRegistry};
use crate::export::{JsonEscaped, JsonNum};
use std::fmt::{self, Write as _};

/// A label value escaped for Prometheus text exposition (backslash,
/// double-quote, and newline, per the exposition format spec).
struct PromEscaped<'a>(&'a str);

impl fmt::Display for PromEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '"' => f.write_str("\\\"")?,
                '\n' => f.write_str("\\n")?,
                _ => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// A number the way Prometheus expects: shortest round-trip form.
struct PromNum(f64);

impl fmt::Display for PromNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.is_nan() {
            f.write_str("NaN")
        } else if v == f64::INFINITY {
            f.write_str("+Inf")
        } else if v == f64::NEG_INFINITY {
            f.write_str("-Inf")
        } else {
            write!(f, "{v}")
        }
    }
}

/// `{k="v",...}` (nothing for the empty label set), with an optional `le`
/// bucket bound appended after the sorted labels.
struct PromLabels<'a>(&'a LabelSet, Option<f64>);

impl fmt::Display for PromLabels<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut open = false;
        for (k, v) in self.0.pairs() {
            f.write_char(if open { ',' } else { '{' })?;
            write!(f, "{k}=\"{}\"", PromEscaped(v))?;
            open = true;
        }
        if let Some(le) = self.1 {
            f.write_char(if open { ',' } else { '{' })?;
            write!(f, "le=\"{}\"", PromNum(le))?;
            open = true;
        }
        if open {
            f.write_char('}')?;
        }
        Ok(())
    }
}

/// `{"k": "v", ...}` for the JSON snapshot.
struct JsonLabels<'a>(&'a LabelSet);

impl fmt::Display for JsonLabels<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        for (i, (k, v)) in self.0.pairs().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "\"{}\": \"{}\"", JsonEscaped(k), JsonEscaped(v))?;
        }
        f.write_char('}')
    }
}

fn kind_name(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Hist(_) => "histogram",
    }
}

/// Renders the registry in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` block per metric name, then one sample line per
/// label set (histograms expand to cumulative `_bucket` lines plus `_sum`
/// and `_count`). Sampled time-series are summarized as their final value
/// — Prometheus scrapes are point-in-time; the full series lives in the
/// JSON snapshot.
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    // Writing to a `String` cannot fail.
    let _ = write_prometheus(&mut out, registry);
    out
}

fn write_prometheus(out: &mut String, registry: &MetricsRegistry) -> fmt::Result {
    let mut current = None;
    for (name, labels, value) in registry.iter() {
        if current != Some(name) {
            current = Some(name);
            let help = registry.help(name).unwrap_or("");
            writeln!(out, "# HELP {name} {help}")?;
            writeln!(out, "# TYPE {name} {}", kind_name(value))?;
        }
        let plain = PromLabels(labels, None);
        match value {
            MetricValue::Counter(c) => writeln!(out, "{name}{plain} {c}")?,
            MetricValue::Gauge(g) => writeln!(out, "{name}{plain} {}", PromNum(*g))?,
            MetricValue::Hist(h) => {
                let mut cumulative = 0u64;
                for (edge, count) in h.edges().iter().zip(h.bucket_counts()) {
                    cumulative += count;
                    let bucket = PromLabels(labels, Some(*edge));
                    writeln!(out, "{name}_bucket{bucket} {cumulative}")?;
                }
                cumulative += h.bucket_counts().last().copied().unwrap_or(0);
                let bucket = PromLabels(labels, Some(f64::INFINITY));
                writeln!(out, "{name}_bucket{bucket} {cumulative}")?;
                let sum = h.mean().map(|m| m * h.count() as f64).unwrap_or(0.0);
                writeln!(out, "{name}_sum{plain} {}", PromNum(sum))?;
                writeln!(out, "{name}_count{plain} {}", h.count())?;
            }
        }
    }
    let mut current = None;
    for s in registry.series() {
        if let Some(last) = s.points.last() {
            let name = s.name.as_str();
            if current != Some(name) {
                current = Some(name);
                let help = registry.help(name).unwrap_or("");
                writeln!(out, "# HELP {name} {help}")?;
                writeln!(out, "# TYPE {name} gauge")?;
            }
            let labels = PromLabels(&s.labels, None);
            writeln!(out, "{name}{labels} {}", PromNum(last.value))?;
        }
    }
    Ok(())
}

/// Renders the registry as a JSON snapshot: every metric with its kind and
/// value (histograms as bucket counts plus exact summary statistics) and
/// every sampled time-series with its full point list. Hand-rolled like
/// the other exporters, reusing [`crate::export`] formatting, so the bytes
/// are deterministic.
pub fn json_snapshot(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    // Writing to a `String` cannot fail.
    let _ = write_json(&mut out, registry);
    out
}

fn write_json(out: &mut String, registry: &MetricsRegistry) -> fmt::Result {
    out.push_str("{\n  \"metrics\": [\n");
    for (i, (name, labels, value)) in registry.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "    {{\"name\": \"{}\", \"labels\": {}, \"kind\": \"{}\", ",
            JsonEscaped(name),
            JsonLabels(labels),
            kind_name(value)
        )?;
        match value {
            MetricValue::Counter(c) => write!(out, "\"value\": {c}")?,
            MetricValue::Gauge(g) => write!(out, "\"value\": {}", JsonNum(*g))?,
            MetricValue::Hist(h) => {
                let [p50, p90, p99] = h
                    .percentiles()
                    .map_or([f64::NAN; 3], |p| [p.p50, p.p90, p.p99]);
                write!(
                    out,
                    "\"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                     \"overflow\": {}, \"buckets\": [",
                    h.count(),
                    JsonNum(h.mean().unwrap_or(f64::NAN)),
                    JsonNum(p50),
                    JsonNum(p90),
                    JsonNum(p99),
                    h.bucket_counts().last().copied().unwrap_or(0),
                )?;
                for (j, (e, c)) in h.edges().iter().zip(h.bucket_counts()).enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    write!(out, "{{\"le\": {}, \"count\": {c}}}", JsonNum(*e))?;
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("\n  ],\n  \"series\": [\n");
    for (i, s) in registry.series().iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "    {{\"name\": \"{}\", \"labels\": {}, \"points\": [",
            JsonEscaped(&s.name),
            JsonLabels(&s.labels)
        )?;
        for (j, p) in s.points.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "{{\"t_ms\": {}, \"value\": {}}}",
                JsonNum(p.t_ms),
                JsonNum(p.value)
            )?;
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Histogram;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.inc(
            "adavp_cycles_total",
            "completed detection cycles",
            LabelSet::new(&[("class", "gold")]),
            7,
        );
        r.inc(
            "adavp_cycles_total",
            "completed detection cycles",
            LabelSet::new(&[("class", "bronze")]),
            3,
        );
        r.set_gauge(
            "adavp_gpu_busy_fraction",
            "GPU pool busy fraction",
            LabelSet::empty(),
            0.625,
        );
        let mut h = Histogram::with_edges(&[10.0, 100.0]);
        for v in [5.0, 50.0, 500.0] {
            h.record(v);
        }
        r.observe_hist(
            "adavp_cycle_latency_ms",
            "cycle latency",
            LabelSet::new(&[("class", "gold")]),
            &h,
        );
        r.sample(
            "adavp_queue_depth",
            "outstanding detection requests",
            &LabelSet::empty(),
            0.0,
            2.0,
        );
        r.sample(
            "adavp_queue_depth",
            "outstanding detection requests",
            &LabelSet::empty(),
            500.0,
            4.0,
        );
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus_text(&sample_registry());
        // HELP/TYPE blocks appear once per name.
        assert_eq!(text.matches("# TYPE adavp_cycles_total counter").count(), 1);
        assert!(text.contains("adavp_cycles_total{class=\"gold\"} 7\n"));
        assert!(text.contains("adavp_cycles_total{class=\"bronze\"} 3\n"));
        assert!(text.contains("adavp_gpu_busy_fraction 0.625\n"));
        // Histogram: cumulative buckets, +Inf equals _count.
        assert!(text.contains("# TYPE adavp_cycle_latency_ms histogram"));
        assert!(text.contains("adavp_cycle_latency_ms_bucket{class=\"gold\",le=\"10\"} 1\n"));
        assert!(text.contains("adavp_cycle_latency_ms_bucket{class=\"gold\",le=\"100\"} 2\n"));
        assert!(text.contains("adavp_cycle_latency_ms_bucket{class=\"gold\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("adavp_cycle_latency_ms_count{class=\"gold\"} 3\n"));
        // A time-series exposes its final sample as a gauge.
        assert!(text.contains("# TYPE adavp_queue_depth gauge"));
        assert!(text.contains("adavp_queue_depth 4\n"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut r = MetricsRegistry::new();
        r.inc("x_total", "", LabelSet::new(&[("name", "a\"b\\c\nd")]), 1);
        let text = prometheus_text(&r);
        assert!(text.contains("x_total{name=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn json_snapshot_shape_and_full_series() {
        let snap = json_snapshot(&sample_registry());
        assert!(snap.contains("\"name\": \"adavp_cycles_total\""));
        assert!(
            snap.contains("\"labels\": {\"class\": \"gold\"}, \"kind\": \"counter\", \"value\": 7")
        );
        assert!(snap.contains("\"kind\": \"gauge\", \"value\": 0.625"));
        assert!(snap.contains("\"p50\": 50, \"p90\": 500, \"p99\": 500"));
        assert!(snap.contains("\"overflow\": 1"));
        // The snapshot keeps the WHOLE series, not just the last point.
        assert!(snap.contains("{\"t_ms\": 0, \"value\": 2}, {\"t_ms\": 500, \"value\": 4}"));
    }

    #[test]
    fn renderers_are_stable_across_insertion_order() {
        let a = sample_registry();
        // Rebuild in a different order by merging into an empty registry.
        let mut b = MetricsRegistry::new();
        b.merge(&a);
        assert_eq!(prometheus_text(&a), prometheus_text(&b));
        assert_eq!(json_snapshot(&a), json_snapshot(&b));
    }

    #[test]
    fn empty_registry_renders_cleanly() {
        let r = MetricsRegistry::new();
        assert_eq!(prometheus_text(&r), "");
        let snap = json_snapshot(&r);
        assert!(snap.contains("\"metrics\": ["));
        assert!(snap.contains("\"series\": ["));
    }
}
