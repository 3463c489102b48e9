//! The fleet driver: admission control + the discrete-event serving loop.
//!
//! One [`adavp_sim::EventQueue`] interleaves every admitted stream's
//! poll/step pipeline with the batch scheduler's window deadlines and
//! batch completions. Three event kinds exist:
//!
//! * `Wake(stream)` — poll one stream at its requested time.
//! * `Window(batch)` — a batch-formation window deadline; a no-op when
//!   the batch already closed on size.
//! * `BatchDone(batch)` — a GPU batch completed; verdicts are delivered
//!   to its members in submission order and each member is stepped.
//!
//! FIFO tie-breaking in the queue plus index-ordered initial wakes make
//! the whole interleaving a pure function of the [`ServeConfig`], which is
//! what lets the sweep layer fan fleets out across jobs byte-identically.
//!
//! **Admission control**: streams are sorted by `(SLO class, index)` and
//! admitted while their estimated steady-state GPU demand — the batch-
//! amortized detector cost over an estimated cycle period — fits inside
//! `pool size ×` [`TARGET_UTILIZATION`]. Everyone else is rejected up front
//! and reported, keeping the tail latency of admitted streams bounded
//! instead of letting every stream degrade together.

use super::batch::{BatchScheduler, DispatchedBatch};
use super::stream::{
    DetectionVerdict, NextWake, SloClass, StreamPipeline, StreamSpec, StreamStats,
};
use super::ServeConfig;
use crate::latency::{amortized_member_ms, batch_ms, overlay_ms, FEATURE_EXTRACTION_MS};
use crate::metrics::{
    burn_rate, names, BudgetCrossing, LabelSet, MetricsRegistry, SamplePoint, SeriesId,
};
use crate::telemetry::{
    Attr, EventKind, Histogram, Recorder, TelemetryConfig, TelemetryLog, Track,
};
use adavp_sim::{EventQueue, FaultPlan, SimTime};
use std::collections::VecDeque;

/// Fraction of the GPU pool the admitted set may demand in steady state
/// (headroom absorbs jitter, retries, and contention).
pub const TARGET_UTILIZATION: f64 = 0.85;

/// Per-SLO-class slice of a fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class.
    pub class: SloClass,
    /// Streams of this class that requested service.
    pub requested: usize,
    /// Streams of this class admitted.
    pub admitted: usize,
    /// Completed cycles across the class's admitted streams.
    pub cycles: u64,
    /// Cycles that missed the class deadline.
    pub violations: u64,
    /// End-to-end cycle latency across the class's admitted streams.
    pub cycle_ms: Histogram,
}

impl ClassReport {
    fn new(class: SloClass) -> Self {
        Self {
            class,
            requested: 0,
            admitted: 0,
            cycles: 0,
            violations: 0,
            cycle_ms: Histogram::latency_ms(),
        }
    }

    /// Violations as a fraction of completed cycles (0 when none ran).
    pub fn violation_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.violations as f64 / self.cycles as f64
        }
    }

    /// The class's error-budget [`burn_rate`].
    pub fn burn_rate(&self) -> f64 {
        burn_rate(self.violations, self.cycles, self.class.error_budget())
    }
}

/// The observability bundle of one fleet run (present when
/// [`crate::metrics::MetricsConfig::enabled`] is set on the config).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Counters, gauges, histograms, and sampled time-series. Render with
    /// [`crate::metrics::prometheus_text`] / [`crate::metrics::json_snapshot`].
    pub registry: MetricsRegistry,
    /// Burn-rate threshold-crossing events
    /// ([`EventKind::SloBurn`]) in `(at_ms, stream index)` order.
    pub telemetry: TelemetryLog,
}

/// Everything one fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Streams that requested service.
    pub requested: usize,
    /// Streams admitted by admission control.
    pub admitted: usize,
    /// Completed detection cycles (successful + degraded).
    pub cycles: u64,
    /// Cycles that published a fresh detection.
    pub detections: u64,
    /// Cycles that degraded to held boxes.
    pub degraded: u64,
    /// Detection attempts retried after outright failures.
    pub retries: u64,
    /// Submissions shed by backpressure (stream-side count).
    pub shed: u64,
    /// Camera frames covered across admitted streams.
    pub frames: u64,
    /// Model-setting switches across admitted streams.
    pub switches: u64,
    /// GPU batches dispatched.
    pub batches: u64,
    /// Mean members per batch.
    pub mean_batch_size: f64,
    /// Batches that closed by filling (vs window deadline).
    pub closed_on_size: u64,
    /// Virtual time the last admitted stream finished.
    pub horizon_ms: f64,
    /// Fresh detections per second of virtual time.
    pub throughput_dps: f64,
    /// Mean GPU-pool utilization over the horizon (includes contention).
    pub gpu_utilization: f64,
    /// Total GPU-busy ms across the pool (includes contention bursts).
    pub gpu_busy_ms: f64,
    /// Aggregate end-to-end cycle latency across admitted streams.
    pub cycle_ms: Histogram,
    /// Per-class slices, in [`SloClass::ALL`] order.
    pub classes: Vec<ClassReport>,
    /// Per-stream stats, in fleet index order (rejected streams included
    /// with `admitted == false`).
    pub streams: Vec<StreamStats>,
    /// Metrics registry + burn-alert telemetry; `None` unless the config
    /// enabled metrics.
    pub metrics: Option<FleetMetrics>,
}

impl FleetReport {
    /// The slice of one SLO class.
    pub fn class(&self, class: SloClass) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == class)
    }
}

/// Which streams admission control lets in, as a mask over
/// `cfg.streams`. Streams are considered in `(class, index)` order; the
/// first candidate is always admitted so a fleet never does nothing.
pub fn admitted_mask(cfg: &ServeConfig) -> Vec<bool> {
    let n = cfg.streams.len();
    let base = cfg.policy.initial_setting().base_latency_ms();
    let max_batch = cfg.batch.max_batch.max(1);
    // Steady-state GPU cost of one detection, amortized over a full batch.
    let amortized = amortized_member_ms(base, max_batch);
    // Estimated cycle period: CPU prep + formation window + the full
    // batch's critical path + overlay. Using the *batched* duration here
    // matters — it is what actually paces a stream's cycles, so skipping
    // it would under-admit by a factor of the batch depth.
    let batch_duration = batch_ms(std::iter::repeat_n(base, max_batch));
    let cycle_est =
        FEATURE_EXTRACTION_MS + cfg.batch.window_ms.max(0.0) + batch_duration + overlay_ms(4);
    let demand = if cycle_est > 0.0 {
        amortized / cycle_est
    } else {
        1.0
    };
    let capacity = cfg.batch.gpus.max(1) as f64 * TARGET_UTILIZATION;

    // Every stream demands the same, so admission takes a prefix of the
    // `(class, index)` order: everything before the first key that no
    // longer fits.
    let mut order: Vec<(SloClass, usize)> = cfg.streams.iter().map(|s| s.class).zip(0..).collect();
    order.sort_unstable();
    let mut used = 0.0;
    let mut admitted = 0;
    while admitted < n && (admitted == 0 || used + demand <= capacity + 1e-9) {
        used += demand;
        admitted += 1;
    }
    let cutoff = order.get(admitted).copied();
    cfg.streams
        .iter()
        .zip(0..)
        .map(|(s, i)| cutoff.is_none_or(|c| (s.class, i) < c))
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    Wake(usize),
    Window(u64),
    BatchDone(u64),
}

/// The label set of each class's burn series, in class-label order
/// (`bronze`, `gold`, `silver`): the order the series are created in.
/// Built once per run, so a sampling tick allocates no labels.
fn burn_series_labels() -> [(SloClass, LabelSet); 3] {
    let mut classes = SloClass::ALL;
    classes.sort_by_key(|c| c.label());
    classes.map(|c| (c, LabelSet::new(&[("class", c.label())])))
}

/// Name and help text of the fleet-wide sampled gauges, in the order
/// [`take_sample`] samples (and so creates) them.
const GAUGE_SERIES: [(&str, &str); 6] = [
    (
        names::QUEUE_DEPTH,
        "detection requests queued or in flight on the batch scheduler",
    ),
    (
        names::OUTSTANDING_BATCHES,
        "batches dispatched to a GPU and not yet completed",
    ),
    (
        names::GPU_BUSY_FRACTION,
        "mean GPU-pool busy fraction over [0, t]",
    ),
    (
        names::BATCH_OCCUPANCY,
        "mean members per dispatched batch so far",
    ),
    (
        names::SHED_SAMPLED,
        "cumulative submissions shed by backpressure",
    ),
    (names::DEGRADED_SAMPLED, "cumulative degraded cycles"),
];

/// The fleet's sampled series in the registry, each resolved on its first
/// sample (so creation order is first-sample order and no series is left
/// without points) and addressed by index after that.
struct SampledSeries {
    /// The run's sampling cadence (ms), which every series records.
    cadence_ms: f64,
    gauges: Option<[SeriesId; 6]>,
    /// One burn series per class, in `burn_series_labels` order.
    burn: [Option<SeriesId>; 3],
    /// Every sample taken, in order, which unit tests compare with each
    /// series' expansion at the end of the run.
    #[cfg(test)]
    taken: Vec<(SeriesId, SamplePoint)>,
}

impl SampledSeries {
    fn new(cadence_ms: f64) -> Self {
        Self {
            cadence_ms,
            gauges: None,
            burn: [None; 3],
            #[cfg(test)]
            taken: Vec::new(),
        }
    }

    /// Records one sample of series `id` ([`MetricsRegistry::push_point`]).
    fn push(&mut self, reg: &mut MetricsRegistry, id: SeriesId, point: SamplePoint, closing: bool) {
        #[cfg(test)]
        self.taken.push((id, point));
        reg.push_point(id, point, closing);
    }

    /// Asserts that each series expands to every sample taken of it, bit
    /// for bit.
    #[cfg(test)]
    fn assert_lossless(&self, reg: &MetricsRegistry) {
        let bits = |p: SamplePoint| (p.t_ms.to_bits(), p.value.to_bits());
        let ids = self
            .gauges
            .into_iter()
            .flatten()
            .chain(self.burn.into_iter().flatten());
        for id in ids {
            let series = reg.series_of(id);
            let taken: Vec<_> = self
                .taken
                .iter()
                .filter(|(of, _)| *of == id)
                .map(|&(_, p)| bits(p))
                .collect();
            let expanded: Vec<_> = series.samples().map(bits).collect();
            assert_eq!(
                expanded, taken,
                "{} {:?} does not expand to its samples",
                series.name, series.labels
            );
        }
    }
}

/// The stream counters the sampler reads: one stream's, or their running
/// total over a class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    shed: u64,
    degraded: u64,
    misses: u64,
    cycles: u64,
}

impl Tally {
    fn of(s: &StreamStats) -> Self {
        Self {
            shed: s.shed,
            degraded: s.degraded,
            misses: s.slo.misses(),
            cycles: s.slo.cycles(),
        }
    }

    /// Adds `after - before`: what one stream counted in between (its
    /// counters only grow).
    fn add_since(&mut self, before: Tally, after: Tally) {
        self.shed += after.shed - before.shed;
        self.degraded += after.degraded - before.degraded;
        self.misses += after.misses - before.misses;
        self.cycles += after.cycles - before.cycles;
    }
}

/// One [`Tally`] per class in `burn_series_labels` order, kept current by
/// [`step_stream`]; `None` for a class with no admitted stream, which gets
/// no burn series.
type ClassTallies = [Option<Tally>; 3];

/// The tally slot of `class` (`burn_labels` names each class once).
fn class_slot<'a>(
    tallies: &'a mut ClassTallies,
    burn_labels: &[(SloClass, LabelSet); 3],
    class: SloClass,
) -> Option<&'a mut Option<Tally>> {
    tallies
        .iter_mut()
        .zip(burn_labels)
        .find_map(|(t, (c, _))| (*c == class).then_some(t))
}

/// The class tallies summed from every admitted stream's counters. The run
/// starts from this scan and then keeps the tallies by difference, so a
/// sample reads O(classes) numbers; unit tests repeat the scan at every
/// tick and compare.
fn scan_tallies(
    burn_labels: &[(SloClass, LabelSet); 3],
    streams: &[Option<StreamPipeline>],
) -> ClassTallies {
    let mut tallies = ClassTallies::default();
    for s in streams.iter().flatten() {
        if let Some(slot) = class_slot(&mut tallies, burn_labels, s.spec().class) {
            let (t, own) = (slot.get_or_insert_default(), Tally::of(&s.stats));
            t.shed += own.shed;
            t.degraded += own.degraded;
            t.misses += own.misses;
            t.cycles += own.cycles;
        }
    }
    tallies
}

/// Steps one stream at `now` and adds what the step counted to its class
/// tally.
fn step_stream(
    stream: &mut StreamPipeline,
    now: SimTime,
    sched: &mut BatchScheduler,
    tallies: &mut ClassTallies,
    burn_labels: &[(SloClass, LabelSet); 3],
) -> NextWake {
    let before = Tally::of(&stream.stats);
    let wake = stream.step(now, &mut |at, req| sched.submit(at, req));
    if let Some(Some(t)) = class_slot(tallies, burn_labels, stream.spec().class) {
        t.add_since(before, Tally::of(&stream.stats));
    }
    wake
}

/// Dispatched batches awaiting completion, in a ring indexed by batch id.
/// The scheduler dispatches ids in order from 0, so an arrival appends and
/// a completion empties its slot; spent slots at the front are dropped.
/// Completion is O(1), and once the ring has grown to the widest span of
/// ids in flight it allocates nothing.
#[derive(Default)]
struct InFlight {
    /// Batch id of `slots[0]`.
    first: u64,
    slots: VecDeque<Option<DispatchedBatch>>,
    len: usize,
}

impl InFlight {
    fn insert(&mut self, batch: DispatchedBatch) {
        debug_assert_eq!(
            batch.id,
            self.first + self.slots.len() as u64,
            "batches are dispatched in id order"
        );
        self.slots.push_back(Some(batch));
        self.len += 1;
    }

    fn take(&mut self, id: u64) -> Option<DispatchedBatch> {
        let at = usize::try_from(id.checked_sub(self.first)?).ok()?;
        let batch = self.slots.get_mut(at)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
        Some(batch)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Samples the fleet's live gauges at virtual time `t` into time-series;
/// `closing` marks the run's last sample.
/// Called from inside the single-threaded event loop, so the sampled state
/// is a pure function of the config and the samples are byte-identical
/// across `--jobs` counts. A tick costs O(classes + series): it reads the
/// running class tallies, not the streams, and once every series exists
/// it allocates only the points of values that changed.
#[allow(clippy::too_many_arguments)]
fn take_sample(
    reg: &mut MetricsRegistry,
    series: &mut SampledSeries,
    t: SimTime,
    closing: bool,
    tallies: &ClassTallies,
    sched: &BatchScheduler,
    outstanding_batches: usize,
    burn_labels: &[(SloClass, LabelSet); 3],
) {
    let t_ms = t.as_ms();
    let (shed, degraded) = tallies
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(s, d), tally| {
            (s + tally.shed, d + tally.degraded)
        });
    let values = [
        sched.outstanding() as f64,
        outstanding_batches as f64,
        sched.pool_utilization(t),
        sched.stats.mean_batch_size(),
        shed as f64,
        degraded as f64,
    ];
    let gauges = *series.gauges.get_or_insert_with(|| {
        GAUGE_SERIES
            .map(|(name, help)| reg.series_id(name, help, &LabelSet::empty(), series.cadence_ms))
    });
    for (id, value) in gauges.into_iter().zip(values) {
        series.push(reg, id, SamplePoint { t_ms, value }, closing);
    }
    // A copy of the burn ids, so `series.push` can borrow `series` below.
    let mut burn = series.burn;
    for (((class, labels), tally), id) in burn_labels.iter().zip(tallies).zip(&mut burn) {
        if let Some(tally) = tally {
            let id = *id.get_or_insert_with(|| {
                reg.series_id(
                    names::BURN_SAMPLED,
                    "error-budget burn rate at the sample time",
                    labels,
                    series.cadence_ms,
                )
            });
            let value = burn_rate(tally.misses, tally.cycles, class.error_budget());
            series.push(reg, id, SamplePoint { t_ms, value }, closing);
        }
    }
    series.burn = burn;
}

/// Runs one fleet to completion. See the module docs for the event loop.
// adavp-lint: allow(panic-surface, item=run_fleet) — event-queue bookkeeping invariants (a wake, batch, or stat always has its stream); fault sweeps in scheme_conformance exercise every arm
pub fn run_fleet(cfg: &ServeConfig) -> FleetReport {
    let plan = FaultPlan::new(cfg.faults.clone());
    let mut sched = BatchScheduler::new(cfg.batch.clone(), &plan);
    let mask = admitted_mask(cfg);

    let mut streams: Vec<Option<StreamPipeline>> = cfg
        .streams
        .iter()
        .zip(&mask)
        .enumerate()
        .map(|(i, (spec, &admitted))| {
            admitted.then(|| {
                StreamPipeline::new(
                    i,
                    spec.clone(),
                    cfg.scheme,
                    cfg.policy.clone(),
                    plan.for_stream(&spec.name),
                )
            })
        })
        .collect();

    let mut queue: EventQueue<FleetEvent> = EventQueue::new();
    let mut in_flight = InFlight::default();
    for (i, s) in streams.iter().enumerate() {
        if s.is_some() {
            queue.push(SimTime::ZERO, FleetEvent::Wake(i));
        }
    }

    let mcfg = cfg.metrics;
    let cadence_ms = mcfg.cadence_ms.max(1.0);
    let mut registry = MetricsRegistry::new();
    let burn_labels = burn_series_labels();
    let mut tallies = scan_tallies(&burn_labels, &streams);
    let mut sampled = SampledSeries::new(cadence_ms);
    let mut next_sample = SimTime::ZERO;
    let mut last_now = SimTime::ZERO;

    while let Some((now, event)) = queue.pop() {
        if mcfg.enabled {
            // Sample strictly-earlier cadence ticks before handling this
            // event: a sample at t reflects the state after every event
            // before t and none at or after it.
            while next_sample < now {
                #[cfg(test)]
                assert_eq!(
                    tallies,
                    scan_tallies(&burn_labels, &streams),
                    "running class tallies drifted from the streams at {next_sample:?}"
                );
                take_sample(
                    &mut registry,
                    &mut sampled,
                    next_sample,
                    false,
                    &tallies,
                    &sched,
                    in_flight.len(),
                    &burn_labels,
                );
                next_sample = SimTime::from_ms(next_sample.as_ms() + cadence_ms);
            }
            last_now = now;
        }
        match event {
            FleetEvent::Wake(i) => {
                let stream = streams[i].as_mut().expect("woke a rejected stream");
                let wake = step_stream(stream, now, &mut sched, &mut tallies, &burn_labels);
                if let NextWake::At(t) = wake {
                    queue.push(t, FleetEvent::Wake(i));
                }
            }
            FleetEvent::Window(batch) => sched.window_closed(batch, now),
            FleetEvent::BatchDone(batch) => {
                let done = in_flight.take(batch).expect("unknown batch completed");
                sched.complete(done.members.len());
                for member in &done.members {
                    let stream = streams[member.stream]
                        .as_mut()
                        .expect("batch member from a rejected stream");
                    stream.deliver(DetectionVerdict {
                        end: done.end,
                        failed: member.failed,
                        timed_out: member.timed_out,
                    });
                    let wake =
                        step_stream(stream, done.end, &mut sched, &mut tallies, &burn_labels);
                    if let NextWake::At(t) = wake {
                        queue.push(t, FleetEvent::Wake(member.stream));
                    }
                }
                sched.recycle(done.members);
            }
        }
        for open in sched.drain_window_opens() {
            queue.push(open.deadline, FleetEvent::Window(open.batch));
        }
        for dispatched in sched.drain_dispatched() {
            queue.push(dispatched.end, FleetEvent::BatchDone(dispatched.id));
            in_flight.insert(dispatched);
        }
    }
    debug_assert!(in_flight.len() == 0, "batches left in flight at drain");
    if mcfg.enabled && last_now > SimTime::ZERO {
        // One closing sample at the final event time, kept whatever its
        // value, so every series ends at that time. That time can be one
        // publish interval before `report.horizon_ms`: a stream's last
        // cycle finishes at `now + publish_ms` (`finish_cycle`), where no
        // event is queued.
        take_sample(
            &mut registry,
            &mut sampled,
            last_now,
            true,
            &tallies,
            &sched,
            in_flight.len(),
            &burn_labels,
        );
    }
    #[cfg(test)]
    sampled.assert_lossless(&registry);

    // One pass over the per-stream stats builds the totals and the class
    // slices (index order everywhere).
    let mut report = FleetReport {
        requested: cfg.streams.len(),
        admitted: 0,
        cycles: 0,
        detections: 0,
        degraded: 0,
        retries: 0,
        shed: 0,
        frames: 0,
        switches: 0,
        batches: sched.stats.batches,
        mean_batch_size: sched.stats.mean_batch_size(),
        closed_on_size: sched.stats.closed_on_size,
        horizon_ms: 0.0,
        throughput_dps: 0.0,
        gpu_utilization: 0.0,
        gpu_busy_ms: sched.total_gpu_busy_ms(),
        cycle_ms: Histogram::latency_ms(),
        classes: SloClass::ALL.map(ClassReport::new).to_vec(),
        streams: Vec::with_capacity(cfg.streams.len()),
        metrics: None,
    };
    // Each class histogram is sized to its streams' samples up front and
    // sorted once they are in; the fleet-wide histogram is a linear merge
    // of the sorted class runs, so it never needs a sort of its own.
    for class in &mut report.classes {
        class.cycle_ms.reserve(
            streams
                .iter()
                .flatten()
                .filter(|p| p.spec().class == class.class)
                .map(|p| p.stats.cycle_ms.count() as usize)
                .sum(),
        );
    }
    let mut horizon = SimTime::ZERO;
    for (spec, stream) in cfg.streams.iter().zip(streams) {
        let s = stream.map_or_else(|| StreamStats::rejected(spec.class), |p| p.stats);
        if let Some(class) = report.classes.iter_mut().find(|c| c.class == spec.class) {
            class.requested += 1;
            if s.admitted {
                class.admitted += 1;
                class.cycles += s.cycles;
                class.violations += s.slo.misses();
                class.cycle_ms.merge(&s.cycle_ms);
            }
        }
        if s.admitted {
            report.admitted += 1;
            report.cycles += s.cycles;
            report.detections += s.detections;
            report.degraded += s.degraded;
            report.retries += s.retries;
            report.shed += s.shed;
            report.frames += s.frames;
            report.switches += s.switches;
            horizon = horizon.max(s.finished_at);
        }
        report.streams.push(s);
    }
    for class in &mut report.classes {
        class.cycle_ms.sort_samples();
    }
    let class_runs: Vec<&Histogram> = report.classes.iter().map(|c| &c.cycle_ms).collect();
    report.cycle_ms = Histogram::merge_sorted(&class_runs);
    report.horizon_ms = horizon.as_ms();
    if report.horizon_ms > 0.0 {
        report.throughput_dps = report.detections as f64 / (report.horizon_ms / 1000.0);
    }
    report.gpu_utilization = sched.pool_utilization(horizon);
    if mcfg.enabled {
        report.metrics = Some(assemble_metrics(cfg, registry, &report, &sched));
    }
    report
}

/// Folds the finished report — plus the scheduler's pool figures, which
/// the report does not carry — into the sampled registry as end-of-run
/// counters, gauges and histograms, and turns burn-rate crossings into
/// [`EventKind::SloBurn`] telemetry events.
fn assemble_metrics(
    cfg: &ServeConfig,
    mut registry: MetricsRegistry,
    report: &FleetReport,
    sched: &BatchScheduler,
) -> FleetMetrics {
    const LATENCY_HELP: &str = "end-to-end detection-cycle latency (ms)";

    // Per-class SLO accounting, budget math and latency rollups, then the
    // fleet-wide rollup as class="all".
    for cr in &report.classes {
        let labels = LabelSet::new(&[("class", cr.class.label())]);
        registry.inc(names::CYCLES_TOTAL, CYCLES_HELP, labels.clone(), cr.cycles);
        registry.inc(
            names::DEADLINE_MISS_TOTAL,
            MISS_HELP,
            labels.clone(),
            cr.violations,
        );
        let burn = cr.burn_rate();
        for (name, help, value) in [
            (
                names::SLO_ERROR_BUDGET,
                "allowed deadline-miss fraction for the class",
                cr.class.error_budget(),
            ),
            (names::SLO_BURN_RATE, BURN_HELP, burn),
            (
                names::SLO_BUDGET_REMAINING,
                "fraction of error budget unspent: 1 - burn",
                1.0 - burn,
            ),
        ] {
            registry.set_gauge(name, help, labels.clone(), value);
        }
        if !cr.cycle_ms.is_empty() {
            registry.observe_hist(names::CYCLE_LATENCY_MS, LATENCY_HELP, labels, &cr.cycle_ms);
        }
    }
    if !report.cycle_ms.is_empty() {
        registry.observe_hist(
            names::CYCLE_LATENCY_MS,
            LATENCY_HELP,
            LabelSet::new(&[("class", "all")]),
            &report.cycle_ms,
        );
    }

    // Fleet-wide counters and pool gauges.
    for (name, help, value) in [
        (
            names::STREAMS_REQUESTED,
            "streams that requested service",
            report.requested as u64,
        ),
        (
            names::STREAMS_ADMITTED,
            "streams admitted by admission control",
            report.admitted as u64,
        ),
        (
            names::DETECTIONS_TOTAL,
            "cycles that published a fresh detection",
            report.detections,
        ),
        (
            names::DEGRADED_TOTAL,
            "cycles degraded to held boxes",
            report.degraded,
        ),
        (
            names::RETRIES_TOTAL,
            "detection attempts retried after failures",
            report.retries,
        ),
        (
            names::SHED_TOTAL,
            "submissions shed by backpressure",
            report.shed,
        ),
        (
            names::SWITCHES_TOTAL,
            "model-setting step-downs and switches",
            report.switches,
        ),
        (
            names::FRAMES_TOTAL,
            "camera frames covered across admitted streams",
            report.frames,
        ),
        (
            names::BATCHES_TOTAL,
            "GPU batches dispatched",
            report.batches,
        ),
        (
            names::BATCH_MEMBERS_TOTAL,
            "members across all dispatched batches",
            sched.stats.members,
        ),
        (
            names::CLOSED_ON_SIZE_TOTAL,
            "batches closed by filling before the window deadline",
            report.closed_on_size,
        ),
    ] {
        registry.inc(name, help, LabelSet::empty(), value);
    }
    for (name, help, value) in [
        (
            names::MEAN_BATCH_SIZE,
            "mean members per dispatched batch",
            report.mean_batch_size,
        ),
        (
            names::GPU_POOL_UTILIZATION,
            "mean GPU-pool busy fraction over the horizon",
            report.gpu_utilization,
        ),
        (
            names::HORIZON_MS,
            "virtual completion time of the fleet run (ms)",
            report.horizon_ms,
        ),
    ] {
        registry.set_gauge(name, help, LabelSet::empty(), value);
    }
    for (i, busy) in sched.per_gpu_busy_ms().into_iter().enumerate() {
        registry.set_gauge(
            names::GPU_BUSY_MS,
            "total busy time on one GPU (ms)",
            LabelSet::new(&[("gpu", &i.to_string())]),
            busy,
        );
    }

    // Burn-alert crossings: counters per (class, threshold), each counted
    // first and registered once, and one telemetry event per crossing in
    // (at_ms, stream index) order.
    let mut crossings: Vec<(usize, &StreamSpec, &BudgetCrossing)> = cfg
        .streams
        .iter()
        .zip(&report.streams)
        .enumerate()
        .flat_map(|(i, (spec, s))| s.crossings.iter().map(move |c| (i, spec, c)))
        .collect();
    crossings.sort_by(|a, b| a.2.at_ms.total_cmp(&b.2.at_ms).then(a.0.cmp(&b.0)));
    let mut alerts: Vec<(SloClass, f64, u64)> = Vec::new();
    for (_, spec, c) in &crossings {
        match alerts
            .iter_mut()
            .find(|(class, threshold, _)| *class == spec.class && *threshold == c.threshold)
        {
            Some((.., n)) => *n += 1,
            None => alerts.push((spec.class, c.threshold, 1)),
        }
    }
    for (class, threshold, n) in alerts {
        registry.inc(
            names::BURN_ALERTS_TOTAL,
            "burn-rate alert threshold crossings",
            LabelSet::new(&[
                ("class", class.label()),
                ("threshold", &format!("{threshold}")),
            ]),
            n,
        );
    }
    let mut rec = Recorder::new(TelemetryConfig::enabled());
    for (_, spec, c) in crossings {
        rec.event(
            Track::Cpu,
            EventKind::SloBurn,
            "burn-alert".to_string(),
            c.at_ms,
            vec![
                Attr::str("stream", &spec.name),
                Attr::str("class", spec.class.label()),
                Attr::f64("threshold", c.threshold),
                Attr::f64("burn", c.burn),
                Attr::u64("cycle", c.cycle),
            ],
        );
    }

    // Per-stream breakdowns are opt-in: they multiply label cardinality by
    // the fleet size (DESIGN.md §17).
    if cfg.metrics.per_stream {
        for (spec, s) in cfg.streams.iter().zip(&report.streams) {
            if !s.admitted {
                continue;
            }
            let labels = LabelSet::new(&[("stream", &spec.name), ("class", spec.class.label())]);
            registry.inc(names::CYCLES_TOTAL, CYCLES_HELP, labels.clone(), s.cycles);
            registry.inc(
                names::DEADLINE_MISS_TOTAL,
                MISS_HELP,
                labels.clone(),
                s.slo.misses(),
            );
            registry.set_gauge(names::SLO_BURN_RATE, BURN_HELP, labels, s.slo.burn_rate());
        }
    }

    FleetMetrics {
        registry,
        telemetry: rec.finish(),
    }
}

const CYCLES_HELP: &str = "completed detection cycles";
const MISS_HELP: &str = "cycles that missed the class deadline";
const BURN_HELP: &str = "error-budget burn rate: miss-rate / budget";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::BatchConfig;
    use adavp_sim::FaultProfile;

    fn cfg(n: usize, cycles: usize) -> ServeConfig {
        ServeConfig {
            streams: ServeConfig::synthetic_streams(n, cycles, 7),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn small_fleet_all_admitted_and_completes() {
        let c = cfg(4, 6);
        let r = run_fleet(&c);
        assert_eq!(r.requested, 4);
        assert_eq!(r.admitted, 4);
        assert_eq!(r.cycles, 24, "every stream ran every cycle");
        assert_eq!(r.detections + r.degraded, r.cycles);
        assert_eq!(r.degraded, 0, "quiet profile never degrades");
        assert!(r.horizon_ms > 0.0);
        assert!(r.throughput_dps > 0.0);
        assert_eq!(r.cycle_ms.count(), 24);
        assert!(r.batches >= 1);
        assert!(r.gpu_utilization > 0.0);
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let c = cfg(12, 5);
        let a = run_fleet(&c);
        let b = run_fleet(&c);
        assert_eq!(a, b, "identical config must reproduce bit-identically");
    }

    #[test]
    fn admission_rejects_overload_and_prefers_gold() {
        let mut c = cfg(300, 3);
        c.batch.gpus = 2;
        let mask = admitted_mask(&c);
        let admitted = mask.iter().filter(|&&a| a).count();
        assert!(admitted >= 1);
        assert!(
            admitted < 300,
            "2 GPUs cannot admit 300 streams ({admitted})"
        );
        let r = run_fleet(&c);
        assert_eq!(r.admitted, admitted);
        // Gold admitted preferentially over Bronze.
        let gold = &r.classes[0];
        let bronze = &r.classes[2];
        assert_eq!(gold.class, SloClass::Gold);
        assert!(gold.admitted >= bronze.admitted);
        assert!(gold.admitted > 0, "gold always gets its share first");
        // Rejected streams ran nothing.
        for s in r.streams.iter().filter(|s| !s.admitted) {
            assert_eq!(s.cycles, 0);
            assert!(s.cycle_ms.is_empty());
        }
        // Per-class accounting covers every requested stream.
        let total: usize = r.classes.iter().map(|c| c.requested).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn backpressure_sheds_under_tiny_queue() {
        let mut c = cfg(24, 3);
        c.batch = BatchConfig {
            max_batch: 2,
            window_ms: 10.0,
            queue_capacity: 1,
            gpus: 1,
        };
        let r = run_fleet(&c);
        assert!(r.admitted > 1, "admitted {}", r.admitted);
        assert!(r.shed > 0, "admitted streams through 1 slot must shed");
        // Shedding steps settings down — switches happened.
        assert!(r.switches > 0);
        // And the fleet still completed every admitted stream's cycles.
        assert_eq!(r.cycles, r.admitted as u64 * 3);
        // A roomier queue sheds nothing.
        c.batch.queue_capacity = 64;
        assert_eq!(run_fleet(&c).shed, 0);
    }

    #[test]
    fn batching_beats_unbatched_throughput() {
        let mut batched = cfg(48, 6);
        batched.batch.gpus = 2;
        let mut unbatched = batched.clone();
        unbatched.batch = batched.batch.unbatched();
        let rb = run_fleet(&batched);
        let ru = run_fleet(&unbatched);
        assert!(
            rb.throughput_dps >= 1.5 * ru.throughput_dps,
            "batched {} vs unbatched {}",
            rb.throughput_dps,
            ru.throughput_dps
        );
        assert!(rb.mean_batch_size > 1.5, "batches actually formed");
        assert!((ru.mean_batch_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_registry_matches_report_and_never_perturbs() {
        use crate::metrics::MetricsConfig;
        let mut c = cfg(6, 4);
        c.metrics = MetricsConfig::enabled();
        let r = run_fleet(&c);
        let m = r.metrics.as_ref().expect("metrics enabled");
        let reg = &m.registry;
        let none = LabelSet::empty();
        assert_eq!(reg.counter(names::DETECTIONS_TOTAL, &none), r.detections);
        assert_eq!(reg.counter(names::BATCHES_TOTAL, &none), r.batches);
        assert_eq!(reg.counter(names::SHED_TOTAL, &none), r.shed);
        assert_eq!(reg.counter(names::SWITCHES_TOTAL, &none), r.switches);
        assert_eq!(
            reg.counter(names::STREAMS_ADMITTED, &none),
            r.admitted as u64
        );
        assert_eq!(reg.gauge(names::HORIZON_MS, &none), Some(r.horizon_ms));
        for cr in &r.classes {
            let l = LabelSet::new(&[("class", cr.class.label())]);
            assert_eq!(reg.counter(names::CYCLES_TOTAL, &l), cr.cycles);
            assert_eq!(reg.counter(names::DEADLINE_MISS_TOTAL, &l), cr.violations);
            // Closed-form budget math: burn = violation-rate / budget.
            let burn = reg.gauge(names::SLO_BURN_RATE, &l).expect("burn gauge");
            assert_eq!(burn, cr.violation_rate() / cr.class.error_budget());
            assert_eq!(reg.gauge(names::SLO_BUDGET_REMAINING, &l), Some(1.0 - burn));
        }
        // Sampled series exist and are time-ordered.
        let q = reg
            .find_series(names::QUEUE_DEPTH, &[])
            .expect("queue series");
        assert!(!q.points.is_empty());
        for w in q.points.windows(2) {
            assert!(w[0].t_ms < w[1].t_ms, "sample times must increase");
        }
        // One gauge per GPU in the pool.
        for g in 0..c.batch.gpus {
            let l = LabelSet::new(&[("gpu", &g.to_string())]);
            assert!(reg.gauge(names::GPU_BUSY_MS, &l).is_some(), "gpu {g}");
        }
        // Observing must not perturb: the metrics-off twin produces the
        // exact same report minus the metrics field.
        let mut off = c.clone();
        off.metrics = MetricsConfig::default();
        let r_off = run_fleet(&off);
        assert!(r_off.metrics.is_none());
        let mut r_stripped = r.clone();
        r_stripped.metrics = None;
        assert_eq!(r_stripped, r_off, "metrics recording changed the run");
    }

    #[test]
    fn overload_emits_burn_alerts_as_telemetry_events() {
        use crate::metrics::MetricsConfig;
        use crate::telemetry::EventKind;
        let mut c = cfg(20, 4);
        c.metrics = MetricsConfig::enabled();
        c.faults = FaultProfile::brownout(3);
        c.batch.gpus = 1;
        let r = run_fleet(&c);
        let total_misses: u64 = r.classes.iter().map(|cr| cr.violations).sum();
        assert!(total_misses > 0, "a brownout on 1 GPU must miss deadlines");
        let m = r.metrics.as_ref().expect("metrics enabled");
        let crossings: usize = r.streams.iter().map(|s| s.crossings.len()).sum();
        assert!(crossings > 0, "misses must cross burn thresholds");
        let events: Vec<_> = m
            .telemetry
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SloBurn)
            .collect();
        assert_eq!(events.len(), crossings, "one event per crossing");
        for w in events.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms, "events must be time-ordered");
        }
        // Alert counters agree with the crossing count.
        let alerts: u64 = m
            .registry
            .iter()
            .filter(|(n, _, _)| *n == names::BURN_ALERTS_TOTAL)
            .map(|(_, _, v)| match v {
                crate::metrics::MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum();
        assert_eq!(alerts, crossings as u64);
    }

    /// `run_fleet` compares its running class tallies with a full scan of
    /// the streams at every sample tick when built for unit tests, and at
    /// the end of the run each series' expansion with every sample it
    /// took (`SampledSeries::assert_lossless`). These
    /// fleets reach every counter the tallies keep: quiet ones, and
    /// brownouts on a small queue that retry, shed and degrade, in each
    /// scheme.
    #[test]
    fn running_tallies_equal_a_full_scan_at_every_tick() {
        use crate::metrics::MetricsConfig;
        use crate::serve::ServeScheme;
        for scheme in ServeScheme::ALL {
            for brownout in [false, true] {
                let mut c = cfg(24, 8);
                c.scheme = scheme;
                c.metrics = MetricsConfig {
                    cadence_ms: 100.0,
                    ..MetricsConfig::enabled()
                };
                if brownout {
                    c.faults = FaultProfile::brownout(9);
                    c.batch = BatchConfig {
                        max_batch: 3,
                        window_ms: 40.0,
                        queue_capacity: 4,
                        gpus: 2,
                    };
                }
                let r = run_fleet(&c);
                let label = format!("{} brownout={brownout}", scheme.label());
                if brownout {
                    assert!(r.retries > 0, "{label}: no retries");
                    assert!(r.shed > 0, "{label}: nothing shed");
                    assert!(r.degraded > 0, "{label}: nothing degraded");
                }
                let reg = &r.metrics.as_ref().expect("metrics enabled").registry;
                let shed = reg
                    .find_series(names::SHED_SAMPLED, &[])
                    .expect("shed series");
                assert!(shed.samples().count() > 10, "{label}: too few ticks");
                let last = shed.points.last().expect("points").value;
                assert_eq!(last, r.shed as f64, "{label}: closing sample");
            }
        }
    }

    #[test]
    fn brownout_degrades_but_does_not_stall() {
        let mut c = cfg(16, 4);
        c.faults = FaultProfile::brownout(5);
        let r = run_fleet(&c);
        assert_eq!(r.cycles as usize, (r.admitted) * 4);
        assert!(r.degraded + r.retries > 0, "brownout must bite: {r:?}",);
        // Quiet twin differs.
        let mut quiet = cfg(16, 4);
        quiet.batch = c.batch.clone();
        let rq = run_fleet(&quiet);
        assert_eq!(rq.degraded, 0);
        assert!(r.cycle_ms.percentile(99.0) >= rq.cycle_ms.percentile(99.0));
    }
}
