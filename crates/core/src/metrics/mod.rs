//! Deterministic, sim-time metrics: a typed registry of counters, gauges,
//! and mergeable histograms, sampled time-series, and SLO error budgets.
//!
//! The fleet layer (DESIGN.md §15) only reported end-of-run aggregates;
//! saturation, brownouts, and admission decisions were invisible while
//! they happened. This module is the signal surface that fixes that — and
//! the one a contention-aware adapter (ROADMAP item 3) will read.
//!
//! # Determinism contract
//!
//! Metrics obey the same byte-reproducibility rules as the sweep renderers
//! (DESIGN.md §13, §17):
//!
//! * Every metric lives under a **static label set** — label keys are
//!   fixed at the call site (`stream`, `class`, `gpu`, `scheme`, …), label
//!   values come from configuration, never from host state.
//! * The registry stores metrics in a [`std::collections::BTreeMap`], so
//!   iteration (and therefore the Prometheus exposition and JSON snapshot
//!   in [`expo`]) is ordered by `(name, labels)` regardless of insertion
//!   order.
//! * Timestamps are **virtual sim time**; time-series are sampled on a
//!   fixed cadence inside the single-threaded fleet event loop, so the
//!   sampled points are a pure function of the serve configuration and
//!   byte-identical across `--jobs` counts. A series stores only the
//!   samples that change its value, plus the closing sample, and
//!   [`TimeSeries::samples`] expands it back to every sample bit for bit.
//! * Histograms are the sample-preserving [`Histogram`] — per-stream
//!   histograms merge into fleet/class rollups via [`Histogram::merge`]
//!   with exact, order-independent percentiles.
//!
//! No I/O happens anywhere in this module: renderers return `String`s and
//! callers (the CLI, CI scripts) decide where bytes go.

pub mod expo;
pub mod names;
pub mod report;
pub mod slo;

pub use expo::{json_snapshot, prometheus_text};
pub use slo::{burn_rate, BudgetCrossing, SloTracker, BURN_ALERT_THRESHOLDS};

use crate::telemetry::Histogram;
use std::collections::BTreeMap;

/// Metrics switch carried by pipeline and serve configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Master switch. Off (the default) records nothing and keeps every
    /// report bit-identical to pre-metrics behavior.
    pub enabled: bool,
    /// Sim-time sampling cadence for fleet time-series (ms). Gauges are
    /// sampled at `t = k × cadence_ms` inside the fleet event loop.
    pub cadence_ms: f64,
    /// Record per-stream counter/gauge series in addition to the class
    /// rollups. Off by default: per-stream labels multiply cardinality by
    /// the fleet size (see DESIGN.md §17 label-cardinality rules).
    pub per_stream: bool,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            cadence_ms: 500.0,
            per_stream: false,
        }
    }
}

impl MetricsConfig {
    /// Recording enabled at the default cadence, class rollups only.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// An ordered, de-duplicated set of label key/value pairs.
///
/// Construction sorts by key, which fixes the rendered order (`a="x",b="y"`)
/// independently of call-site argument order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LabelSet(Vec<(String, String)>);

impl LabelSet {
    /// The empty label set.
    pub fn empty() -> Self {
        Self(Vec::new())
    }

    /// Builds a label set from key/value pairs.
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys — a metric cannot carry the same label
    /// twice.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| (k.to_string(), val.to_string()))
            .collect();
        v.sort();
        for w in v.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate label key {:?}", w[0].0);
        }
        Self(v)
    }

    /// Returns this set extended with additional pairs (used to stamp
    /// sweep-cell identity onto a cell's registry).
    ///
    /// # Panics
    ///
    /// Panics if an added key already exists.
    pub fn with(&self, pairs: &[(&str, &str)]) -> Self {
        let mut v = self.0.clone();
        for (k, val) in pairs {
            v.push((k.to_string(), val.to_string()));
        }
        v.sort();
        for w in v.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate label key {:?}", w[0].0);
        }
        Self(v)
    }

    /// The pairs, sorted by key.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// The value of one label key, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone event count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A sample-preserving distribution ([`Histogram`]).
    Hist(Histogram),
}

/// One sampled time-series point: virtual time and value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Virtual sample time (ms).
    pub t_ms: f64,
    /// Sampled value.
    pub value: f64,
}

/// A gauge sampled on the fleet cadence, stored as a step function: a
/// sample whose value has the same bits as the point before it adds no
/// point, so the series keeps each run's first sample, every change, and
/// the run's closing sample. [`TimeSeries::samples`] gives back every
/// sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Metric name.
    pub name: String,
    /// Static labels.
    pub labels: LabelSet,
    /// Sampling cadence (ms): after a sample at `t` the next one is at
    /// `t + cadence_ms`, until the run's closing sample.
    pub cadence_ms: f64,
    /// Change points in sampling order: strictly increasing `t_ms` within
    /// one run, the last of which is the run's closing sample
    /// ([`MetricsRegistry::merge`] appends another run's points).
    pub points: Vec<SamplePoint>,
}

impl TimeSeries {
    /// Every sample the series stands for, in sampling order: each point,
    /// then the cadence ticks that held its value, `t += cadence_ms` while
    /// `t` is below the next point's time. These are the additions the
    /// fleet sampler makes, so the expanded times and values equal the
    /// sampled ones bit for bit. A run's closing sample expands to itself,
    /// since the next point (if any) starts another run at an earlier time.
    pub fn samples(&self) -> impl Iterator<Item = SamplePoint> + '_ {
        let cadence = self.cadence_ms;
        self.points.iter().enumerate().flat_map(move |(i, &p)| {
            let until = self.points.get(i + 1).map_or(p.t_ms, |next| next.t_ms);
            // A tick that does not move time ends the expansion, so no
            // cadence makes it endless.
            let ticks = std::iter::successors(Some(p.t_ms), move |&t| {
                let next = t + cadence;
                (next > t).then_some(next)
            });
            std::iter::once(p).chain(
                ticks
                    .skip(1)
                    .take_while(move |&t| t < until)
                    .map(move |t_ms| SamplePoint { t_ms, ..p }),
            )
        })
    }
}

/// The index of one sampled time-series in a [`MetricsRegistry`], from
/// [`MetricsRegistry::series_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeriesId(usize);

/// A typed, label-addressed metrics registry.
///
/// Metrics are keyed by `(name, labels)` in a `BTreeMap`, so every view of
/// the registry — exposition, snapshot, reports — iterates in one fixed
/// order. Kind mismatches (a counter re-registered as a gauge) panic:
/// metric names are a static vocabulary, not dynamic data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<(String, LabelSet), MetricValue>,
    help: BTreeMap<String, String>,
    series: Vec<TimeSeries>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.series.is_empty()
    }

    /// Number of registered `(name, labels)` metrics (series not counted).
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Records the help text of a name's first registration; allocates
    /// only then.
    fn register_help(&mut self, name: &str, help: &str) {
        if !self.help.contains_key(name) {
            self.help.insert(name.to_string(), help.to_string());
        }
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, help: &str, labels: LabelSet, delta: u64) {
        self.register_help(name, help);
        match self
            .metrics
            .entry((name.to_string(), labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            other => panic!("{name} already registered as {other:?}, not a counter"),
        }
    }

    /// Sets a gauge (last write wins).
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: LabelSet, value: f64) {
        self.register_help(name, help);
        match self
            .metrics
            .entry((name.to_string(), labels))
            .or_insert(MetricValue::Gauge(value))
        {
            MetricValue::Gauge(g) => *g = value,
            other => panic!("{name} already registered as {other:?}, not a gauge"),
        }
    }

    /// Merges a histogram into the registered one (creating an empty twin
    /// with the same edges first), then sorts the registered samples in
    /// place. Uses [`Histogram::merge`], so rollups keep exact percentiles
    /// regardless of merge order; the sort changes no statistic, and lets
    /// every renderer read the histogram without sorting it again.
    pub fn observe_hist(&mut self, name: &str, help: &str, labels: LabelSet, h: &Histogram) {
        self.register_help(name, help);
        match self
            .metrics
            .entry((name.to_string(), labels))
            .or_insert_with(|| MetricValue::Hist(Histogram::with_edges(h.edges())))
        {
            MetricValue::Hist(existing) => {
                existing.merge(h);
                existing.sort_samples();
            }
            other => panic!("{name} already registered as {other:?}, not a histogram"),
        }
    }

    /// The index of a gauge time-series sampled every `cadence_ms`,
    /// creating it (with no points) on first use. Series order is creation
    /// order, which is deterministic inside the single-threaded fleet loop.
    /// A created series is exported even with no points, so a sampler
    /// resolves each series at its first sample and then appends with
    /// [`MetricsRegistry::push_point`].
    pub(crate) fn series_id(
        &mut self,
        name: &str,
        help: &str,
        labels: &LabelSet,
        cadence_ms: f64,
    ) -> SeriesId {
        self.register_help(name, help);
        let found = self
            .series
            .iter()
            .position(|s| s.name == name && s.labels == *labels);
        SeriesId(found.unwrap_or_else(|| {
            self.series.push(TimeSeries {
                name: name.to_string(),
                labels: labels.clone(),
                cadence_ms,
                points: Vec::new(),
            });
            self.series.len() - 1
        }))
    }

    /// Records one sample of the series `id` names: a cadence tick adds a
    /// point only when its value bits differ from the last point's, and the
    /// run's `closing` sample always adds one, so the series ends at the
    /// run's last sample. Samples must come at `t += cadence_ms` from the
    /// run's first, then the closing one, for [`TimeSeries::samples`] to
    /// give them back. Allocates nothing beyond the point. `id` must come
    /// from this registry's [`MetricsRegistry::series_id`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this registry.
    pub(crate) fn push_point(&mut self, id: SeriesId, point: SamplePoint, closing: bool) {
        let points = &mut self.series[id.0].points;
        let repeat = points
            .last()
            .is_some_and(|last| last.value.to_bits() == point.value.to_bits());
        if closing || !repeat {
            points.push(point);
        }
    }

    /// The series `id` names.
    #[cfg(test)]
    pub(crate) fn series_of(&self, id: SeriesId) -> &TimeSeries {
        &self.series[id.0]
    }

    /// Looks up one metric value.
    pub fn get(&self, name: &str, labels: &LabelSet) -> Option<&MetricValue> {
        self.metrics.get(&(name.to_string(), labels.clone()))
    }

    /// A counter's value (0 when absent). Panics if registered as another
    /// kind.
    pub fn counter(&self, name: &str, labels: &LabelSet) -> u64 {
        match self.get(name, labels) {
            None => 0,
            Some(MetricValue::Counter(c)) => *c,
            Some(other) => panic!("{name} is {other:?}, not a counter"),
        }
    }

    /// A gauge's value, if present. Panics if registered as another kind.
    pub fn gauge(&self, name: &str, labels: &LabelSet) -> Option<f64> {
        match self.get(name, labels) {
            None => None,
            Some(MetricValue::Gauge(g)) => Some(*g),
            Some(other) => panic!("{name} is {other:?}, not a gauge"),
        }
    }

    /// Help text registered for a metric name.
    pub fn help(&self, name: &str) -> Option<&str> {
        self.help.get(name).map(String::as_str)
    }

    /// Iterates metrics in `(name, labels)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LabelSet, &MetricValue)> {
        self.metrics
            .iter()
            .map(|((name, labels), v)| (name.as_str(), labels, v))
    }

    /// The sampled time-series, in first-sample order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Finds one time-series by name and an exact label subset match on
    /// the given pairs (every given pair must be present in the series'
    /// labels).
    pub fn find_series(&self, name: &str, pairs: &[(&str, &str)]) -> Option<&TimeSeries> {
        self.series
            .iter()
            .find(|s| s.name == name && pairs.iter().all(|(k, v)| s.labels.get(k) == Some(*v)))
    }

    /// Folds another registry in, keyed by `(name, labels)`. A key only
    /// `other` has is copied (a new series goes after this registry's). On
    /// a key both have, each kind has one rule:
    ///
    /// * counters add;
    /// * gauges take `other`'s value;
    /// * histograms merge ([`Histogram::merge`]);
    /// * series concatenate their points, this registry's first, so one
    ///   key stays one series (and one exposition line); both must sample
    ///   on one cadence, which [`TimeSeries::samples`] expands them with.
    ///
    /// Sweeps merge cells stamped with their cell identity via
    /// [`MetricsRegistry::relabeled`], so their keys never overlap.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch, or on a series key whose two sides
    /// sample on different cadences.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, help) in &other.help {
            self.register_help(name, help);
        }
        for ((name, labels), value) in &other.metrics {
            match value {
                MetricValue::Counter(c) => self.inc(name, "", labels.clone(), *c),
                MetricValue::Gauge(g) => self.set_gauge(name, "", labels.clone(), *g),
                MetricValue::Hist(h) => self.observe_hist(name, "", labels.clone(), h),
            }
        }
        for s in &other.series {
            match self
                .series
                .iter_mut()
                .find(|t| t.name == s.name && t.labels == s.labels)
            {
                Some(t) => {
                    assert_eq!(
                        t.cadence_ms.to_bits(),
                        s.cadence_ms.to_bits(),
                        "{} merged across cadences {} and {} ms",
                        s.name,
                        t.cadence_ms,
                        s.cadence_ms
                    );
                    t.points.extend_from_slice(&s.points);
                }
                None => self.series.push(s.clone()),
            }
        }
    }

    /// A copy of this registry with extra labels stamped onto every metric
    /// and series — how a sweep cell's registry gets its
    /// `(profile, scheme, streams, batched)` identity before the fleet
    /// registries merge into one sweep-wide registry.
    pub fn relabeled(&self, pairs: &[(&str, &str)]) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        out.help = self.help.clone();
        for ((name, labels), value) in &self.metrics {
            out.metrics
                .insert((name.clone(), labels.with(pairs)), value.clone());
        }
        out.series = self
            .series
            .iter()
            .map(|s| TimeSeries {
                name: s.name.clone(),
                labels: s.labels.with(pairs),
                cadence_ms: s.cadence_ms,
                points: s.points.clone(),
            })
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(pairs: &[(&str, &str)]) -> LabelSet {
        LabelSet::new(pairs)
    }

    #[test]
    fn labels_sort_and_reject_duplicates() {
        let a = l(&[("b", "2"), ("a", "1")]);
        let b = l(&[("a", "1"), ("b", "2")]);
        assert_eq!(a, b, "label order at the call site must not matter");
        assert_eq!(a.pairs()[0].0, "a");
        assert_eq!(a.get("b"), Some("2"));
        assert_eq!(a.get("z"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn duplicate_label_keys_panic() {
        let _ = l(&[("a", "1"), ("a", "2")]);
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.inc(
            "cycles_total",
            "completed cycles",
            l(&[("class", "gold")]),
            3,
        );
        r.inc(
            "cycles_total",
            "completed cycles",
            l(&[("class", "gold")]),
            2,
        );
        r.inc(
            "cycles_total",
            "completed cycles",
            l(&[("class", "bronze")]),
            1,
        );
        assert_eq!(r.counter("cycles_total", &l(&[("class", "gold")])), 5);
        assert_eq!(r.counter("cycles_total", &l(&[("class", "bronze")])), 1);
        assert_eq!(r.counter("cycles_total", &l(&[("class", "silver")])), 0);
        assert_eq!(r.help("cycles_total"), Some("completed cycles"));
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("util", "pool utilization", LabelSet::empty(), 0.25);
        r.set_gauge("util", "pool utilization", LabelSet::empty(), 0.75);
        assert_eq!(r.gauge("util", &LabelSet::empty()), Some(0.75));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.inc("x", "", LabelSet::empty(), 1);
        r.set_gauge("x", "", LabelSet::empty(), 1.0);
    }

    #[test]
    fn histograms_roll_up_via_merge() {
        let mut a = Histogram::latency_ms();
        let mut b = Histogram::latency_ms();
        for v in [10.0, 200.0, 900.0] {
            a.record(v);
        }
        for v in [55.0, 400.0] {
            b.record(v);
        }
        let mut r = MetricsRegistry::new();
        r.observe_hist("cycle_ms", "", l(&[("class", "gold")]), &a);
        r.observe_hist("cycle_ms", "", l(&[("class", "gold")]), &b);
        let Some(MetricValue::Hist(h)) = r.get("cycle_ms", &l(&[("class", "gold")])) else {
            panic!("histogram missing");
        };
        let mut concat = a.clone();
        concat.merge(&b);
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentiles(), concat.percentiles());
    }

    /// Every statistic a renderer reads, as bits.
    fn hist_stats(h: &Histogram) -> (u64, Vec<u64>, Option<u64>, Option<[u64; 4]>) {
        (
            h.count(),
            h.bucket_counts().to_vec(),
            h.mean().map(f64::to_bits),
            h.percentiles()
                .map(|p| [p.p50, p.p90, p.p99, p.max].map(f64::to_bits)),
        )
    }

    fn shuffle(rng: &mut adavp_rng::Rng, v: &mut [f64]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
    }

    fn hist_of(samples: &[f64]) -> Histogram {
        let mut h = Histogram::latency_ms();
        for &v in samples {
            h.record(v);
        }
        h
    }

    /// The registry sorts each histogram once, in place; the stored order
    /// is not observable. Shuffled record orders, shard merges in any
    /// order, and a registry histogram before and after its sort all give
    /// bit-identical statistics and exported bytes. Ties include both
    /// signed zeros, which only a `total_cmp` order keeps apart.
    #[test]
    fn one_sort_changes_no_statistic() {
        adavp_rng::check(48, 25, |rng| {
            let n = rng.gen_range(1..400usize);
            let pool = [-0.0, 0.0, 40.0, 650.0];
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen::<bool>() {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(-50.0..5000.0)
                    }
                })
                .collect();
            let reference = hist_stats(&hist_of(&samples));

            let mut shuffled = samples.clone();
            shuffle(rng, &mut shuffled);
            assert_eq!(hist_stats(&hist_of(&shuffled)), reference);

            let shards: Vec<Histogram> = shuffled.chunks(n.div_ceil(3)).map(hist_of).collect();
            let mut order: Vec<usize> = (0..shards.len()).collect();
            order.reverse();
            let mut merged = Histogram::latency_ms();
            for &i in &order {
                merged.merge(&shards[i]);
            }
            assert_eq!(hist_stats(&merged), reference);

            // A registry holding the unsorted histogram renders the same
            // bytes as after its in-place sort, and as `observe_hist`.
            let labels = LabelSet::new(&[("class", "gold")]);
            let key = ("cycle_ms".to_string(), labels.clone());
            let mut r = MetricsRegistry::new();
            r.metrics
                .insert(key.clone(), MetricValue::Hist(hist_of(&shuffled)));
            let unsorted = (prometheus_text(&r), json_snapshot(&r));
            let Some(MetricValue::Hist(h)) = r.metrics.get_mut(&key) else {
                panic!("histogram missing");
            };
            h.sort_samples();
            assert_eq!(hist_stats(h), reference);
            assert_eq!((prometheus_text(&r), json_snapshot(&r)), unsorted);
            let mut observed = MetricsRegistry::new();
            for shard in &shards {
                observed.observe_hist("cycle_ms", "", labels.clone(), shard);
            }
            assert_eq!(
                (prometheus_text(&observed), json_snapshot(&observed)),
                unsorted
            );
        });
    }

    /// A second `observe_hist` into a sorted registry histogram appends
    /// unsorted samples; every percentile stays exact.
    #[test]
    fn appending_after_the_sort_keeps_exact_percentiles() {
        let (a, b) = ([900.0, 10.0, 200.0, 10.0], [55.0, -0.0, 4000.0, 0.0, 400.0]);
        let mut r = MetricsRegistry::new();
        r.observe_hist("cycle_ms", "", LabelSet::empty(), &hist_of(&a));
        r.observe_hist("cycle_ms", "", LabelSet::empty(), &hist_of(&b));
        let Some(MetricValue::Hist(h)) = r.get("cycle_ms", &LabelSet::empty()) else {
            panic!("histogram missing");
        };
        let mut all = a.to_vec();
        all.extend(b);
        all.sort_unstable_by(f64::total_cmp);
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * all.len() as f64).ceil() as usize;
            assert_eq!(
                h.percentile(p).map(f64::to_bits),
                Some(all[rank.max(1) - 1].to_bits()),
                "p{p}"
            );
        }
        assert_eq!(hist_stats(h), hist_stats(&hist_of(&all)));
    }

    #[test]
    fn iteration_order_is_insertion_independent() {
        let mut fwd = MetricsRegistry::new();
        let mut rev = MetricsRegistry::new();
        let entries = [
            ("z_gauge", l(&[("gpu", "0")])),
            ("a_counter", l(&[("class", "gold")])),
            ("a_counter", l(&[("class", "bronze")])),
        ];
        for (name, labels) in &entries {
            if name.ends_with("gauge") {
                fwd.set_gauge(name, "", labels.clone(), 1.0);
            } else {
                fwd.inc(name, "", labels.clone(), 1);
            }
        }
        for (name, labels) in entries.iter().rev() {
            if name.ends_with("gauge") {
                rev.set_gauge(name, "", labels.clone(), 1.0);
            } else {
                rev.inc(name, "", labels.clone(), 1);
            }
        }
        let order = |r: &MetricsRegistry| {
            r.iter()
                .map(|(n, l, _)| (n.to_string(), l.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(order(&fwd), order(&rev));
        assert_eq!(order(&fwd)[0].0, "a_counter");
        // Within one name, label sets order deterministically too.
        assert_eq!(order(&fwd)[0].1.get("class"), Some("bronze"));
    }

    fn at(t_ms: f64, value: f64) -> SamplePoint {
        SamplePoint { t_ms, value }
    }

    #[test]
    fn series_accumulate_points_in_order() {
        let mut r = MetricsRegistry::new();
        let labels = LabelSet::empty();
        let id = r.series_id("queue_depth", "outstanding requests", &labels, 500.0);
        for k in 0..3 {
            r.push_point(id, at(k as f64 * 500.0, k as f64), false);
        }
        assert_eq!(
            r.series_id("queue_depth", "", &labels, 500.0),
            id,
            "a second lookup finds the same series"
        );
        let s = r.find_series("queue_depth", &[]).expect("series exists");
        assert_eq!(s.cadence_ms, 500.0);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.points[2].t_ms, 1000.0);
        assert_eq!(s.points[2].value, 2.0);
        assert_eq!(s.samples().collect::<Vec<_>>(), s.points);
        assert!(r.find_series("queue_depth", &[("gpu", "0")]).is_none());
    }

    /// A sample whose value has the last point's bits adds no point, the
    /// closing sample always does, and the expansion gives back every
    /// sample, including `-0.0` apart from `0.0`, NaN, and a cadence
    /// whose sums round (0.1 ms steps).
    #[test]
    fn repeated_samples_add_no_points_and_expand_back() {
        let values = [
            0.25,
            0.25,
            0.25,
            3.0,
            3.0,
            0.0,
            -0.0,
            -0.0,
            f64::NAN,
            f64::NAN,
            0.1 + 0.2,
            0.3,
            0.3,
            0.3,
        ];
        for cadence in [500.0, 0.1, 1.0] {
            let mut r = MetricsRegistry::new();
            let id = r.series_id("busy", "", &LabelSet::empty(), cadence);
            let mut taken = Vec::new();
            let mut t = 0.0;
            for &v in &values {
                taken.push(at(t, v));
                r.push_point(id, at(t, v), false);
                t += cadence;
            }
            // The closing sample falls between ticks and repeats the value.
            let closing = at(t - cadence / 2.0, 0.3);
            taken.push(closing);
            r.push_point(id, closing, true);

            let s = &r.series()[0];
            let kept: Vec<f64> = s.points.iter().map(|p| p.value).collect();
            let want = [0.25, 3.0, 0.0, -0.0, f64::NAN, 0.1 + 0.2, 0.3, 0.3];
            assert_eq!(kept.len(), want.len(), "cadence {cadence}: {kept:?}");
            for (k, w) in kept.iter().zip(want) {
                assert_eq!(k.to_bits(), w.to_bits(), "cadence {cadence}: {kept:?}");
            }
            let bits = |p: SamplePoint| (p.t_ms.to_bits(), p.value.to_bits());
            assert_eq!(
                s.samples().map(bits).collect::<Vec<_>>(),
                taken.into_iter().map(bits).collect::<Vec<_>>(),
                "cadence {cadence}"
            );
        }
    }

    /// A cadence that cannot move time still expands to the points alone.
    #[test]
    fn a_cadence_that_moves_no_time_ends_the_expansion() {
        for cadence in [0.0, -1.0, f64::NAN] {
            let series = TimeSeries {
                name: "x".to_string(),
                labels: LabelSet::empty(),
                cadence_ms: cadence,
                points: vec![at(0.0, 1.0), at(10.0, 2.0)],
            };
            assert_eq!(series.samples().count(), 2, "cadence {cadence}");
        }
    }

    #[test]
    fn merge_and_relabel_compose() {
        let mut cell = MetricsRegistry::new();
        cell.inc("shed_total", "sheds", LabelSet::empty(), 4);
        cell.set_gauge("util", "", LabelSet::empty(), 0.5);
        let id = cell.series_id("queue_depth", "", &LabelSet::empty(), 500.0);
        cell.push_point(id, at(0.0, 1.0), true);
        let stamped = cell.relabeled(&[("streams", "8"), ("batched", "true")]);
        let labels = l(&[("batched", "true"), ("streams", "8")]);
        assert_eq!(stamped.counter("shed_total", &labels), 4);

        let mut sweep = MetricsRegistry::new();
        sweep.merge(&stamped);
        sweep.merge(&cell.relabeled(&[("streams", "8"), ("batched", "false")]));
        assert_eq!(sweep.len(), 4, "two cells x two metrics");
        assert_eq!(sweep.series().len(), 2);
        assert_eq!(sweep.counter("shed_total", &labels), 4);
        // Merging the same labels twice adds counters.
        sweep.merge(&stamped);
        assert_eq!(sweep.counter("shed_total", &labels), 8);
        assert_eq!(sweep.series().len(), 2, "one series per key");
    }

    /// One key's points expand with one cadence, so runs sampled on two
    /// cadences cannot merge into one series.
    #[test]
    #[should_panic(expected = "merged across cadences")]
    fn merging_one_key_across_cadences_panics() {
        let mut runs = [250.0, 500.0].map(|cadence| {
            let mut r = MetricsRegistry::new();
            let id = r.series_id("queue_depth", "", &LabelSet::empty(), cadence);
            r.push_point(id, at(0.0, 1.0), true);
            r
        });
        let [a, b] = &mut runs;
        a.merge(b);
    }

    /// Merging one registry twice keeps one series per `(name, labels)`
    /// key, with the points of both merges in merge order; each run's
    /// closing point ends its expansion, so the merged series expands to
    /// both runs' samples. The exposition prints one sample line per key.
    #[test]
    fn merging_twice_keeps_one_series_per_key() {
        let mut cell = MetricsRegistry::new();
        let q = cell.series_id("queue_depth", "queued", &LabelSet::empty(), 500.0);
        let burn = cell.series_id("burn", "burn rate", &l(&[("class", "gold")]), 500.0);
        for k in 0..3 {
            let closing = k == 2;
            cell.push_point(q, at(k as f64 * 500.0, 1.0 + k as f64), closing);
            cell.push_point(burn, at(k as f64 * 500.0, 0.5), closing);
        }
        let mut merged = MetricsRegistry::new();
        merged.merge(&cell);
        merged.merge(&cell);
        assert_eq!(merged.series().len(), 2);
        for (name, once) in [("queue_depth", 3), ("burn", 2)] {
            let cell_series = cell.find_series(name, &[]).expect("cell series");
            let points = &merged.find_series(name, &[]).expect("merged series").points;
            assert_eq!(cell_series.points.len(), once, "{name}");
            assert_eq!(points.len(), 2 * once, "{name}");
            assert_eq!(
                (&points[..once], &points[once..]),
                (&cell_series.points[..], &cell_series.points[..])
            );
            let samples: Vec<SamplePoint> = cell_series.samples().collect();
            assert_eq!(samples.len(), 3, "{name}");
            let twice: Vec<SamplePoint> = samples.iter().chain(&samples).copied().collect();
            let expanded: Vec<SamplePoint> = merged
                .find_series(name, &[])
                .expect("merged")
                .samples()
                .collect();
            assert_eq!(expanded, twice, "{name}");
        }
        let prom = prometheus_text(&merged);
        let mut samples: Vec<&str> = prom.lines().filter(|l| !l.starts_with('#')).collect();
        let lines = samples.len();
        samples.sort_unstable();
        samples.dedup();
        assert_eq!(samples.len(), lines, "duplicate sample line in:\n{prom}");
        assert_eq!(lines, 2);
        assert!(prom.contains("queue_depth 3\n"), "{prom}");
    }
}
