//! Renderers for the metrics registry: Prometheus text exposition and a
//! JSON snapshot.
//!
//! Both renderers are pure functions of the registry. Because the registry
//! iterates in `(name, labels)` order and every value inside it is a pure
//! function of the serve configuration, the rendered bytes are identical
//! across `--jobs` counts and across runs — the same contract the sweep
//! CSV/JSON renderers already carry (DESIGN.md §13). String escaping and
//! numbers go through the shared writers in [`crate::export`].
//!
//! Each renderer appends to one buffer: fixed pieces with `push_str`,
//! numbers with the shared number writer (integer-valued numbers as their
//! digits), so the cost is the output's length. A time-series is written
//! as its change points ([`super::TimeSeries`]), in two columns. Histograms
//! are read through their sorted view; the registry sorts each one once,
//! so no renderer clones or sorts samples.

use super::{LabelSet, MetricValue, MetricsRegistry};
use crate::export::{push_json_escaped, push_json_num, push_num, push_uint, NonFinite};

/// Appends a label value escaped for Prometheus text exposition
/// (backslash, double-quote, and newline, per the exposition format spec).
fn push_prom_escaped(out: &mut String, s: &str) {
    if !s.contains(['\\', '"', '\n']) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Appends a Prometheus number: [`push_num`], `NaN`/`+Inf`/`-Inf` when
/// not finite.
fn push_prom_num(out: &mut String, v: f64) {
    push_num(out, v, NonFinite::Prom);
}

/// Replaces `body` with the inside of a Prometheus label block,
/// `k="v",...` (empty for the empty label set).
fn prom_label_body(body: &mut String, labels: &LabelSet) {
    body.clear();
    for (i, (k, v)) in labels.pairs().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(k);
        body.push_str("=\"");
        push_prom_escaped(body, v);
        body.push('"');
    }
}

/// Appends a sample line up to its value: `name` + `suffix`, then
/// `{body}` (nothing when `body` is empty), then a space.
fn push_prom_sample(out: &mut String, name: &str, suffix: &str, body: &str) {
    out.push_str(name);
    out.push_str(suffix);
    if !body.is_empty() {
        out.push('{');
        out.push_str(body);
        out.push('}');
    }
    out.push(' ');
}

/// Appends a bucket line up to its value: `name_bucket{body,le="edge"} `,
/// the `le` bound after the sorted labels.
fn push_prom_bucket(out: &mut String, name: &str, body: &str, le: f64) {
    out.push_str(name);
    out.push_str("_bucket{");
    if !body.is_empty() {
        out.push_str(body);
        out.push(',');
    }
    out.push_str("le=\"");
    push_prom_num(out, le);
    out.push_str("\"} ");
}

/// Appends `# HELP` and `# TYPE` lines for one metric name.
fn push_prom_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends `"s"` with `s` JSON-escaped.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// Appends `{"k": "v", ...}` for the JSON snapshot.
fn push_json_labels(out: &mut String, labels: &LabelSet) {
    out.push('{');
    for (i, (k, v)) in labels.pairs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, k);
        out.push_str(": ");
        push_json_str(out, v);
    }
    out.push('}');
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
    let mut body = String::new();
    let mut current = None;
    for (name, labels, value) in registry.iter() {
        if current != Some(name) {
            current = Some(name);
            let help = registry.help(name).unwrap_or("");
            push_prom_header(&mut out, name, help, kind_name(value));
        }
        prom_label_body(&mut body, labels);
        match value {
            MetricValue::Counter(c) => {
                push_prom_sample(&mut out, name, "", &body);
                push_uint(&mut out, *c);
                out.push('\n');
            }
            MetricValue::Gauge(g) => {
                push_prom_sample(&mut out, name, "", &body);
                push_prom_num(&mut out, *g);
                out.push('\n');
            }
            MetricValue::Hist(h) => {
                // The overflow bucket is the `+Inf` line.
                let mut cumulative = 0u64;
                let edges = h.edges().iter().copied().chain([f64::INFINITY]);
                for (edge, count) in edges.zip(h.bucket_counts()) {
                    cumulative += count;
                    push_prom_bucket(&mut out, name, &body, edge);
                    push_uint(&mut out, cumulative);
                    out.push('\n');
                }
                let sum = h.mean().map(|m| m * h.count() as f64).unwrap_or(0.0);
                push_prom_sample(&mut out, name, "_sum", &body);
                push_prom_num(&mut out, sum);
                out.push('\n');
                push_prom_sample(&mut out, name, "_count", &body);
                push_uint(&mut out, h.count());
                out.push('\n');
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
                push_prom_header(&mut out, name, help, "gauge");
            }
            prom_label_body(&mut body, &s.labels);
            push_prom_sample(&mut out, name, "", &body);
            push_prom_num(&mut out, last.value);
            out.push('\n');
        }
    }
    out
}

/// Appends `[v,...]`, each value a JSON number. A column holds most of a
/// fleet snapshot's numbers, so its values are separated by a bare comma.
fn push_json_column(out: &mut String, values: impl Iterator<Item = f64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_num(out, v);
    }
    out.push(']');
}

/// Renders the registry as a JSON snapshot: every metric with its kind and
/// value (histograms as bucket counts plus exact summary statistics) and
/// every sampled time-series with its cadence and its change points as two
/// columns, `t_ms` and `value` ([`super::TimeSeries::samples`] expands
/// them back to every sample). Hand-rolled like the other exporters,
/// reusing [`crate::export`] formatting, so the bytes are deterministic.
pub fn json_snapshot(registry: &MetricsRegistry) -> String {
    let mut out = String::from("{\n  \"metrics\": [\n");
    for (i, (name, labels, value)) in registry.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, name);
        out.push_str(", \"labels\": ");
        push_json_labels(&mut out, labels);
        out.push_str(", \"kind\": \"");
        out.push_str(kind_name(value));
        out.push_str("\", ");
        match value {
            MetricValue::Counter(c) => {
                out.push_str("\"value\": ");
                push_uint(&mut out, *c);
            }
            MetricValue::Gauge(g) => {
                out.push_str("\"value\": ");
                push_json_num(&mut out, *g);
            }
            MetricValue::Hist(h) => {
                let [p50, p90, p99] = h
                    .percentiles()
                    .map_or([f64::NAN; 3], |p| [p.p50, p.p90, p.p99]);
                out.push_str("\"count\": ");
                push_uint(&mut out, h.count());
                for (key, v) in [
                    (", \"mean\": ", h.mean().unwrap_or(f64::NAN)),
                    (", \"p50\": ", p50),
                    (", \"p90\": ", p90),
                    (", \"p99\": ", p99),
                ] {
                    out.push_str(key);
                    push_json_num(&mut out, v);
                }
                out.push_str(", \"overflow\": ");
                push_uint(&mut out, h.bucket_counts().last().copied().unwrap_or(0));
                out.push_str(", \"buckets\": [");
                for (j, (e, c)) in h.edges().iter().zip(h.bucket_counts()).enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"le\": ");
                    push_json_num(&mut out, *e);
                    out.push_str(", \"count\": ");
                    push_uint(&mut out, *c);
                    out.push('}');
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
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, &s.name);
        out.push_str(", \"labels\": ");
        push_json_labels(&mut out, &s.labels);
        out.push_str(", \"cadence_ms\": ");
        push_json_num(&mut out, s.cadence_ms);
        out.push_str(", \"t_ms\": ");
        push_json_column(&mut out, s.points.iter().map(|p| p.t_ms));
        out.push_str(", \"value\": ");
        push_json_column(&mut out, s.points.iter().map(|p| p.value));
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SamplePoint;
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
        let queue = r.series_id(
            "adavp_queue_depth",
            "outstanding detection requests",
            &LabelSet::empty(),
            500.0,
        );
        for (t_ms, value, closing) in [
            (0.0, 2.0, false),
            (500.0, 4.0, false),
            (1000.0, 4.0, false),
            (1200.0, 4.0, true),
        ] {
            r.push_point(queue, SamplePoint { t_ms, value }, closing);
        }
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
        // The snapshot keeps the WHOLE series, not just the last point: its
        // change points and closing sample as columns, with the cadence
        // that expands them; the repeat at 1000 ms adds no point.
        assert!(snap.contains(
            "{\"name\": \"adavp_queue_depth\", \"labels\": {}, \"cadence_ms\": 500, \
             \"t_ms\": [0,500,1200], \"value\": [2,4,4]}"
        ));
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
