//! Time-bucketed utilization / burn-rate report for `adavp metrics`.
//!
//! Renders a fleet's [`MetricsRegistry`] as aligned text tables: sampled
//! utilization series aggregated into fixed virtual-time buckets, then the
//! per-class SLO error-budget accounting. Pure string assembly — callers
//! decide where the bytes go.

use super::{names, LabelSet, MetricValue, MetricsRegistry, SamplePoint};

/// Preferred display order for SLO classes; anything else sorts after.
const CLASS_ORDER: [&str; 3] = ["gold", "silver", "bronze"];

fn fmt(v: f64) -> String {
    format!("{v:.4}")
}

/// Mean of a series' samples with `start <= t < end`, added in sampling
/// order; `None` if no sample falls in the bucket.
fn bucket_mean(samples: &[SamplePoint], start: f64, end: f64) -> Option<f64> {
    let vals: Vec<f64> = samples
        .iter()
        .filter(|p| p.t_ms >= start && p.t_ms < end)
        .map(|p| p.value)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

fn cell(v: Option<f64>) -> String {
    v.map(fmt).unwrap_or_else(|| "-".to_string())
}

/// Distinct `class` label values present on a counter, in
/// [`CLASS_ORDER`]-first order.
fn classes(registry: &MetricsRegistry, name: &str) -> Vec<String> {
    let mut found: Vec<String> = registry
        .iter()
        .filter(|(n, _, _)| *n == name)
        .filter_map(|(_, l, _)| l.get("class").map(str::to_string))
        .filter(|c| c != "all")
        .collect();
    found.sort();
    found.dedup();
    found.sort_by_key(|c| {
        CLASS_ORDER
            .iter()
            .position(|k| k == c)
            .unwrap_or(CLASS_ORDER.len())
    });
    found
}

/// Renders the time-bucketed utilization table plus the SLO error-budget
/// table. `bucket_ms` is the virtual-time bucket width; each series is
/// expanded to every sample it stands for ([`super::TimeSeries::samples`])
/// and the samples are averaged within each bucket.
///
/// # Panics
///
/// Panics unless `bucket_ms` is positive and finite.
pub fn utilization_report(registry: &MetricsRegistry, bucket_ms: f64) -> String {
    assert!(
        bucket_ms.is_finite() && bucket_ms > 0.0,
        "bucket width {bucket_ms} must be positive"
    );
    let mut out = String::new();

    // A series' closing sample is its last point, so the points reach the
    // horizon without expanding every series.
    let horizon = registry
        .series()
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.t_ms))
        .fold(0.0_f64, f64::max);
    let buckets = ((horizon / bucket_ms).floor() as usize) + 1;

    // The table's columns, each series expanded once.
    let columns = [
        names::QUEUE_DEPTH,
        names::OUTSTANDING_BATCHES,
        names::GPU_BUSY_FRACTION,
        names::BATCH_OCCUPANCY,
        names::SHED_SAMPLED,
        names::DEGRADED_SAMPLED,
    ]
    .map(|name| {
        registry
            .find_series(name, &[])
            .map_or_else(Vec::new, |s| s.samples().collect::<Vec<_>>())
    });

    out.push_str(&format!(
        "utilization by {:.0} ms bucket (virtual time; sampled means)\n",
        bucket_ms
    ));
    out.push_str(&format!(
        "{:>12} {:>11} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
        "t_ms", "queue", "outstanding", "busy", "occupancy", "shed", "degraded"
    ));
    for b in 0..buckets {
        let (start, end) = (b as f64 * bucket_ms, (b + 1) as f64 * bucket_ms);
        let cells = columns.each_ref().map(|c| bucket_mean(c, start, end));
        if cells.iter().all(Option::is_none) {
            continue;
        }
        out.push_str(&format!(
            "{:>12} {:>11} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            format!("{start:.0}"),
            cell(cells[0]),
            cell(cells[1]),
            cell(cells[2]),
            cell(cells[3]),
            cell(cells[4]),
            cell(cells[5]),
        ));
    }

    out.push_str("\nslo error budgets (burn = miss-rate / budget)\n");
    out.push_str(&format!(
        "{:>8} {:>8} {:>8} {:>8} {:>9} {:>10} {:>7}\n",
        "class", "cycles", "misses", "budget", "burn", "remaining", "alerts"
    ));
    for class in classes(registry, names::CYCLES_TOTAL) {
        let labels = LabelSet::new(&[("class", &class)]);
        let cycles = registry.counter(names::CYCLES_TOTAL, &labels);
        let misses = registry.counter(names::DEADLINE_MISS_TOTAL, &labels);
        let budget = registry.gauge(names::SLO_ERROR_BUDGET, &labels);
        let burn = registry.gauge(names::SLO_BURN_RATE, &labels);
        let remaining = registry.gauge(names::SLO_BUDGET_REMAINING, &labels);
        let alerts: u64 = registry
            .iter()
            .filter(|(n, l, _)| *n == names::BURN_ALERTS_TOTAL && l.get("class") == Some(&class))
            .map(|(_, _, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum();
        out.push_str(&format!(
            "{:>8} {:>8} {:>8} {:>8} {:>9} {:>10} {:>7}\n",
            class,
            cycles,
            misses,
            cell(budget),
            cell(burn),
            cell(remaining),
            alerts
        ));
    }

    // Per-class cycle latency, when the histograms are present.
    let mut latency_rows = Vec::new();
    for class in classes(registry, names::CYCLE_LATENCY_MS) {
        let labels = LabelSet::new(&[("class", &class)]);
        if let Some(MetricValue::Hist(h)) = registry.get(names::CYCLE_LATENCY_MS, &labels) {
            if let Some(p) = h.percentiles() {
                latency_rows.push(format!(
                    "{:>8} {:>8} {:>10} {:>10} {:>10}\n",
                    class,
                    h.count(),
                    fmt(p.p50),
                    fmt(p.p90),
                    fmt(p.p99)
                ));
            }
        }
    }
    if !latency_rows.is_empty() {
        out.push_str("\ncycle latency by class (ms)\n");
        out.push_str(&format!(
            "{:>8} {:>8} {:>10} {:>10} {:>10}\n",
            "class", "count", "p50", "p90", "p99"
        ));
        for row in latency_rows {
            out.push_str(&row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Histogram;

    fn fleet_like_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let queue = r.series_id(names::QUEUE_DEPTH, "", &LabelSet::empty(), 500.0);
        for (t, q) in [(0.0, 1.0), (500.0, 3.0), (1000.0, 5.0), (1500.0, 2.0)] {
            r.push_point(queue, SamplePoint { t_ms: t, value: q }, t == 1500.0);
        }
        // The busy fraction holds 0.5 over three ticks: one point stands for
        // them, and the report expands it back.
        let busy = r.series_id(names::GPU_BUSY_FRACTION, "", &LabelSet::empty(), 500.0);
        for (t, u) in [
            (0.0, 0.25),
            (500.0, 0.5),
            (1000.0, 0.5),
            (1500.0, 0.5),
            (2000.0, 0.8),
        ] {
            r.push_point(busy, SamplePoint { t_ms: t, value: u }, t == 2000.0);
        }
        for class in ["gold", "bronze"] {
            let labels = LabelSet::new(&[("class", class)]);
            r.inc(names::CYCLES_TOTAL, "", labels.clone(), 20);
            r.inc(names::DEADLINE_MISS_TOTAL, "", labels.clone(), 2);
            r.set_gauge(names::SLO_ERROR_BUDGET, "", labels.clone(), 0.05);
            r.set_gauge(names::SLO_BURN_RATE, "", labels.clone(), 2.0);
            r.set_gauge(names::SLO_BUDGET_REMAINING, "", labels.clone(), -1.0);
            let mut h = Histogram::latency_ms();
            for v in [100.0, 300.0, 900.0] {
                h.record(v);
            }
            r.observe_hist(names::CYCLE_LATENCY_MS, "", labels, &h);
        }
        r.inc(
            names::BURN_ALERTS_TOTAL,
            "",
            LabelSet::new(&[("class", "gold"), ("threshold", "1")]),
            1,
        );
        r
    }

    #[test]
    fn report_buckets_and_budget_rows() {
        let r = fleet_like_registry();
        let busy = r.find_series(names::GPU_BUSY_FRACTION, &[]).expect("busy");
        assert_eq!(busy.points.len(), 3, "repeated samples add no point");
        let report = utilization_report(&r, 1000.0);
        // Two samples land in bucket [0, 1000): mean queue (1+3)/2 = 2.
        assert!(report.contains("2.0000"), "bucketed queue mean missing");
        // Bucket [1000, 2000) averages the busy fraction's two expanded
        // samples (0.5, 0.5), not its one point; [0, 1000) is (0.25+0.5)/2.
        let row = |t: &str| {
            report
                .lines()
                .find(|l| l.split_whitespace().next() == Some(t))
                .unwrap_or_else(|| panic!("no {t} row in:\n{report}"))
                .split_whitespace()
                .collect::<Vec<_>>()
        };
        assert_eq!(row("0")[3], "0.3750");
        assert_eq!(row("1000")[3], "0.5000");
        assert_eq!(row("2000")[3], "0.8000");
        // Classes render in priority order, gold before bronze.
        let gold = report.find(" gold").expect("gold row");
        let bronze = report.find("bronze").expect("bronze row");
        assert!(gold < bronze, "gold must render before bronze");
        // Budget math columns are present.
        assert!(report.contains("0.0500"));
        assert!(report.contains("-1.0000"));
        // Latency percentiles rendered per class.
        assert!(report.contains("cycle latency by class"));
        assert!(report.contains("300.0000"));
    }

    #[test]
    fn report_is_deterministic() {
        let r = fleet_like_registry();
        assert_eq!(utilization_report(&r, 500.0), utilization_report(&r, 500.0));
    }

    #[test]
    fn empty_registry_reports_headers_only() {
        let report = utilization_report(&MetricsRegistry::new(), 500.0);
        assert!(report.contains("slo error budgets"));
        assert!(!report.contains("gold"));
    }
}
