//! Renderers for the metrics registry: Prometheus text exposition and a
//! JSON snapshot.
//!
//! Both renderers are pure functions of the registry. Because the registry
//! iterates in `(name, labels)` order and every value inside it is a pure
//! function of the serve configuration, the rendered bytes are identical
//! across `--jobs` counts and across runs — the same contract the sweep
//! CSV/JSON renderers already carry (DESIGN.md §13). String escaping
//! reuses the shared helpers in [`crate::export`].

use super::{LabelSet, MetricValue, MetricsRegistry};
use crate::export::{json_escape, json_num};
use crate::telemetry::Histogram;

/// Escapes a label value for Prometheus text exposition (backslash,
/// double-quote, and newline, per the exposition format spec).
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a number the way Prometheus expects: shortest round-trip form.
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders `{k="v",...}` (empty string for the empty label set), with an
/// optional extra pair appended after the sorted labels (used for `le`).
fn prom_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .pairs()
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn kind_name(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Hist(_) => "histogram",
    }
}

fn push_hist_exposition(out: &mut String, name: &str, labels: &LabelSet, h: &Histogram) {
    let mut cumulative = 0u64;
    for (edge, count) in h.edges().iter().zip(h.bucket_counts()) {
        cumulative += count;
        let le = prom_num(*edge);
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            prom_labels(labels, Some(("le", &le)))
        ));
    }
    cumulative += h.bucket_counts().last().copied().unwrap_or(0);
    out.push_str(&format!(
        "{name}_bucket{} {cumulative}\n",
        prom_labels(labels, Some(("le", "+Inf")))
    ));
    let sum = h.mean().map(|m| m * h.count() as f64).unwrap_or(0.0);
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        prom_labels(labels, None),
        prom_num(sum)
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        prom_labels(labels, None),
        h.count()
    ));
}

/// Renders the registry in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` block per metric name, then one sample line per
/// label set (histograms expand to cumulative `_bucket` lines plus `_sum`
/// and `_count`). Sampled time-series are summarized as their final value
/// — Prometheus scrapes are point-in-time; the full series lives in the
/// JSON snapshot.
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut current: Option<String> = None;
    for (name, labels, value) in registry.iter() {
        if current.as_deref() != Some(name) {
            current = Some(name.to_string());
            let help = registry.help(name).unwrap_or("");
            out.push_str(&format!("# HELP {name} {help}\n"));
            out.push_str(&format!("# TYPE {name} {}\n", kind_name(value)));
        }
        match value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("{name}{} {c}\n", prom_labels(labels, None)));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    prom_labels(labels, None),
                    prom_num(*g)
                ));
            }
            MetricValue::Hist(h) => push_hist_exposition(&mut out, name, labels, h),
        }
    }
    let mut current: Option<&str> = None;
    for s in registry.series() {
        if let Some(last) = s.points.last() {
            if current != Some(s.name.as_str()) {
                current = Some(s.name.as_str());
                let help = registry.help(&s.name).unwrap_or("");
                out.push_str(&format!("# HELP {} {help}\n", s.name));
                out.push_str(&format!("# TYPE {} gauge\n", s.name));
            }
            out.push_str(&format!(
                "{}{} {}\n",
                s.name,
                prom_labels(&s.labels, None),
                prom_num(last.value)
            ));
        }
    }
    out
}

fn json_labels(labels: &LabelSet) -> String {
    let parts: Vec<String> = labels
        .pairs()
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Renders the registry as a JSON snapshot: every metric with its kind and
/// value (histograms as bucket counts plus exact summary statistics) and
/// every sampled time-series with its full point list. Hand-rolled like
/// the other exporters, reusing [`crate::export`] escaping, so the bytes
/// are deterministic.
pub fn json_snapshot(registry: &MetricsRegistry) -> String {
    let mut metrics = Vec::new();
    for (name, labels, value) in registry.iter() {
        let head = format!(
            "    {{\"name\": \"{}\", \"labels\": {}, \"kind\": \"{}\"",
            json_escape(name),
            json_labels(labels),
            kind_name(value)
        );
        let body = match value {
            MetricValue::Counter(c) => format!("\"value\": {c}"),
            MetricValue::Gauge(g) => format!("\"value\": {}", json_num(*g)),
            MetricValue::Hist(h) => {
                let buckets: Vec<String> = h
                    .edges()
                    .iter()
                    .zip(h.bucket_counts())
                    .map(|(e, c)| format!("{{\"le\": {}, \"count\": {c}}}", json_num(*e)))
                    .collect();
                let overflow = h.bucket_counts().last().copied().unwrap_or(0);
                let p = h.percentiles();
                format!(
                    "\"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                     \"overflow\": {overflow}, \"buckets\": [{}]",
                    h.count(),
                    json_num(h.mean().unwrap_or(f64::NAN)),
                    json_num(p.map(|p| p.p50).unwrap_or(f64::NAN)),
                    json_num(p.map(|p| p.p90).unwrap_or(f64::NAN)),
                    json_num(p.map(|p| p.p99).unwrap_or(f64::NAN)),
                    buckets.join(", ")
                )
            }
        };
        metrics.push(format!("{head}, {body}}}"));
    }
    let mut series = Vec::new();
    for s in registry.series() {
        let points: Vec<String> = s
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"t_ms\": {}, \"value\": {}}}",
                    json_num(p.t_ms),
                    json_num(p.value)
                )
            })
            .collect();
        series.push(format!(
            "    {{\"name\": \"{}\", \"labels\": {}, \"points\": [{}]}}",
            json_escape(&s.name),
            json_labels(&s.labels),
            points.join(", ")
        ));
    }
    format!(
        "{{\n  \"metrics\": [\n{}\n  ],\n  \"series\": [\n{}\n  ]\n}}\n",
        metrics.join(",\n"),
        series.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
            LabelSet::empty(),
            0.0,
            2.0,
        );
        r.sample(
            "adavp_queue_depth",
            "outstanding detection requests",
            LabelSet::empty(),
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
