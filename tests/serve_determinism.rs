//! Fleet-serving determinism and behavior pins (DESIGN.md §15).
//!
//! The load-bearing guarantee: a serve sweep is a pure function of its
//! configuration, so running it on 1 worker or 4 must produce byte-identical
//! CSV/JSON. Alongside that, sharp pins on the three serving mechanisms —
//! batch formation (close on size vs window deadline), admission rejection,
//! and backpressure step-down — through the public API, and the batching
//! acceptance bar on the default sweep (batched >= 1.5x unbatched
//! throughput from 64 streams, batched p99 within the bronze deadline).

use adavp::core::metrics::report::utilization_report;
use adavp::core::metrics::{json_snapshot, prometheus_text, MetricsConfig, SloTracker};
use adavp::core::serve::stream::{DetectionRequest, SloClass};
use adavp::core::serve::{
    run_fleet, run_sweep, sweep_csv, sweep_json, BatchConfig, BatchScheduler, ServeConfig,
    ServeScheme, SweepCell, SweepConfig,
};
use adavp::sim::{FaultPlan, FaultProfile, SimTime};
use adavp::vision::exec::Executor;
use adavp_rng::{fnv1a, FNV1A_OFFSET};

fn request(stream: usize, member_ms: f64) -> DetectionRequest {
    DetectionRequest {
        stream,
        cycle: 0,
        member_ms,
        failed: false,
        timed_out: false,
    }
}

#[test]
fn serve_sweep_bytes_identical_across_jobs() {
    let cfg = SweepConfig {
        stream_counts: vec![1, 8, 24],
        cycles: 8,
        ..SweepConfig::default()
    };
    let (rows_1, _) = run_sweep(&cfg, &Executor::new(1));
    let (rows_4, _) = run_sweep(&cfg, &Executor::new(4));
    assert_eq!(rows_1, rows_4, "sweep rows differ between --jobs 1 and 4");
    assert_eq!(
        sweep_csv(&rows_1).into_bytes(),
        sweep_csv(&rows_4).into_bytes(),
        "sweep CSV bytes differ between --jobs 1 and 4"
    );
    assert_eq!(
        sweep_json(&rows_1).into_bytes(),
        sweep_json(&rows_4).into_bytes(),
        "sweep JSON bytes differ between --jobs 1 and 4"
    );
    // And the sweep is reproducible run-to-run, not just across executors.
    let (again, _) = run_sweep(&cfg, &Executor::new(4));
    assert_eq!(rows_4, again);
}

/// The default sweep's fault-free `(streams, batched, unbatched)` cells.
fn default_fault_free_cells() -> Vec<(usize, SweepCell, SweepCell)> {
    let cfg = SweepConfig::default();
    let (rows, _) = run_sweep(&cfg, &Executor::new(2));
    let cell = |n: usize, batched: bool| {
        rows.iter()
            .find(|r| r.profile == "none" && r.streams == n && r.batched == batched)
            .expect("grid cell missing")
            .clone()
    };
    let grid = cfg.stream_counts.iter();
    grid.map(|&n| (n, cell(n, true), cell(n, false))).collect()
}

/// Batching pays off under load: on the default sweep's fault-free profile,
/// batched dispatch completes at least 1.5x the detections per second of
/// singleton dispatch at every stream count from 64 up (the grid has three).
#[test]
fn batched_throughput_is_at_least_1_5x_unbatched_from_64_streams() {
    let cells = default_fault_free_cells();
    assert_eq!(cells.iter().filter(|(n, _, _)| *n >= 64).count(), 3);
    for (n, batched, unbatched) in cells.into_iter().filter(|(n, _, _)| *n >= 64) {
        let (b, u) = (
            batched.report.throughput_dps,
            unbatched.report.throughput_dps,
        );
        assert!(
            b >= 1.5 * u,
            "{n} streams: batched {b:.3} vs unbatched {u:.3} det/s"
        );
    }
}

/// Admission control keeps the tail sane instead of letting every stream
/// queue: on the default sweep's fault-free profile, batched p99 cycle
/// latency stays within the loosest SLO deadline (bronze) at every stream
/// count.
#[test]
fn batched_p99_stays_within_the_bronze_deadline() {
    let bound = SloClass::Bronze.deadline_ms();
    for (n, batched, _) in default_fault_free_cells() {
        let p99 = batched.latency_ms(99.0);
        assert!(
            p99 <= bound,
            "{n} streams: batched p99 {p99:.1} ms > {bound} ms"
        );
    }
}

/// The scheme axis rides the same byte-identity contract: a sweep over all
/// three serving schemes renders identical CSV/JSON for 1 worker and 4,
/// every scheme appears in the grid, and the schemes genuinely differ
/// (otherwise the axis pins nothing).
#[test]
fn scheme_axis_is_deterministic_and_distinct() {
    let cfg = SweepConfig {
        stream_counts: vec![4, 12],
        cycles: 6,
        schemes: vec![ServeScheme::Mpdt, ServeScheme::Cascade, ServeScheme::Ctd],
        ..SweepConfig::default()
    };
    let (rows_1, _) = run_sweep(&cfg, &Executor::new(1));
    let (rows_4, _) = run_sweep(&cfg, &Executor::new(4));
    assert_eq!(rows_1, rows_4, "scheme sweep rows differ across jobs");
    assert_eq!(
        sweep_csv(&rows_1).into_bytes(),
        sweep_csv(&rows_4).into_bytes(),
        "scheme sweep CSV bytes differ across jobs"
    );
    assert_eq!(
        sweep_json(&rows_1).into_bytes(),
        sweep_json(&rows_4).into_bytes(),
        "scheme sweep JSON bytes differ across jobs"
    );
    for scheme in ServeScheme::ALL {
        assert!(
            rows_1.iter().any(|r| r.scheme == scheme),
            "scheme {} missing from the grid",
            scheme.label()
        );
    }
    // Schemes must change the outcome, not just the label: on the
    // fault-free profile the cascade's gated refinement and CTD's longer
    // cycles shift throughput relative to MPDT.
    let dps = |scheme: ServeScheme| -> Vec<f64> {
        rows_1
            .iter()
            .filter(|r| r.profile == "none" && r.scheme == scheme)
            .map(|r| r.report.throughput_dps)
            .collect()
    };
    let mpdt = dps(ServeScheme::Mpdt);
    assert_ne!(mpdt, dps(ServeScheme::Cascade), "cascade behaves like mpdt");
    assert_ne!(mpdt, dps(ServeScheme::Ctd), "ctd behaves like mpdt");
}

#[test]
fn batch_closes_on_size_before_the_window_deadline() {
    let cfg = BatchConfig {
        max_batch: 3,
        window_ms: 1000.0,
        ..BatchConfig::default()
    };
    let mut sched = BatchScheduler::new(cfg, &FaultPlan::none());
    let t = SimTime::from_ms(10.0);
    for i in 0..3 {
        assert!(sched.submit(t, request(i, 100.0)));
    }
    let opens = sched.drain_window_opens().collect::<Vec<_>>();
    assert_eq!(opens.len(), 1, "first member arms the window");
    assert_eq!(opens[0].deadline, SimTime::from_ms(1010.0));
    let dispatched = sched.drain_dispatched().collect::<Vec<_>>();
    assert_eq!(dispatched.len(), 1, "filling to max_batch dispatches");
    assert_eq!(dispatched[0].members.len(), 3);
    assert_eq!(sched.stats.closed_on_size, 1);
    // The stale window deadline firing later must be a no-op.
    let before = sched.stats.batches;
    sched.window_closed(opens[0].batch, SimTime::from_ms(1010.0));
    assert_eq!(sched.stats.batches, before);
    assert!(sched.drain_dispatched().collect::<Vec<_>>().is_empty());
}

#[test]
fn batch_closes_on_window_deadline_when_underfull() {
    let cfg = BatchConfig {
        max_batch: 8,
        window_ms: 50.0,
        ..BatchConfig::default()
    };
    let mut sched = BatchScheduler::new(cfg, &FaultPlan::none());
    assert!(sched.submit(SimTime::from_ms(5.0), request(0, 100.0)));
    assert!(sched.submit(SimTime::from_ms(20.0), request(1, 100.0)));
    let opens = sched.drain_window_opens().collect::<Vec<_>>();
    assert_eq!(opens.len(), 1, "only the first member arms a window");
    assert_eq!(opens[0].deadline, SimTime::from_ms(55.0));
    assert!(
        sched.drain_dispatched().collect::<Vec<_>>().is_empty(),
        "underfull batch must wait for its deadline"
    );
    sched.window_closed(opens[0].batch, opens[0].deadline);
    let dispatched = sched.drain_dispatched().collect::<Vec<_>>();
    assert_eq!(dispatched.len(), 1, "deadline flushes the partial batch");
    assert_eq!(dispatched[0].members.len(), 2);
    assert_eq!(sched.stats.closed_on_size, 0);
}

#[test]
fn admission_rejects_overload_and_keeps_gold() {
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(240, 4, 11),
        batch: BatchConfig {
            gpus: 2,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    assert!(report.admitted >= 1);
    assert!(
        report.admitted < report.requested,
        "240 streams cannot all fit on 2 GPUs (admitted {})",
        report.admitted
    );
    // Admission walks classes in priority order: Gold fills first.
    let gold = &report.classes[0];
    assert_eq!(gold.class, SloClass::Gold);
    assert!(gold.admitted > 0);
    assert!(gold.admitted >= report.classes[2].admitted);
    // Rejected streams did no work and recorded no samples.
    let rejected: Vec<_> = report.streams.iter().filter(|s| !s.admitted).collect();
    assert_eq!(rejected.len(), report.requested - report.admitted);
    assert!(rejected.iter().all(|s| s.cycles == 0 && s.frames == 0));
    // Admitted streams all finished their configured cycles.
    assert_eq!(report.cycles, report.admitted as u64 * 4);
}

#[test]
fn backpressure_sheds_and_steps_settings_down() {
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(20, 3, 5),
        // A one-slot queue saturates even under the admitted load.
        batch: BatchConfig {
            max_batch: 2,
            window_ms: 10.0,
            queue_capacity: 1,
            gpus: 1,
        },
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    assert!(report.shed > 0, "saturated queue must refuse submissions");
    assert!(
        report.switches > 0,
        "each refusal steps the stream's setting down"
    );
    // Shedding delays but never drops cycles: every admitted stream still
    // finishes.
    assert!(report.admitted > 1, "admitted {}", report.admitted);
    assert_eq!(report.cycles, report.admitted as u64 * 3);
    // The twin with ample queue capacity sheds nothing.
    let mut roomy = cfg.clone();
    roomy.batch.queue_capacity = 10_000;
    let report_roomy = run_fleet(&roomy);
    assert_eq!(report_roomy.shed, 0);
}

/// The metrics snapshot rides the same byte-identity contract as the sweep
/// renderers: Prometheus exposition and JSON snapshot bytes must be
/// identical across `--jobs 1` and `--jobs 4`, and the per-class SLO
/// error-budget burn rates must be present in both renderings.
#[test]
fn metrics_exposition_bytes_identical_across_jobs() {
    let cfg = SweepConfig {
        stream_counts: vec![2, 12],
        cycles: 6,
        metrics: MetricsConfig::enabled(),
        ..SweepConfig::default()
    };
    let (rows_1, reg_1) = run_sweep(&cfg, &Executor::new(1));
    let (rows_4, reg_4) = run_sweep(&cfg, &Executor::new(4));
    assert_eq!(rows_1, rows_4, "metrics sweep rows differ across jobs");
    assert_eq!(reg_1, reg_4, "merged registries differ across jobs");
    let prom_1 = prometheus_text(&reg_1);
    let prom_4 = prometheus_text(&reg_4);
    assert_eq!(
        prom_1.clone().into_bytes(),
        prom_4.into_bytes(),
        "Prometheus exposition bytes differ between --jobs 1 and 4"
    );
    let json_1 = json_snapshot(&reg_1);
    let json_4 = json_snapshot(&reg_4);
    assert_eq!(
        json_1.clone().into_bytes(),
        json_4.into_bytes(),
        "metrics JSON snapshot bytes differ between --jobs 1 and 4"
    );
    // The SLO error-budget burn rates are in both renderings, per class.
    for class in ["gold", "silver", "bronze"] {
        assert!(
            prom_1.lines().any(|l| l.starts_with("adavp_slo_burn_rate{")
                && l.contains(&format!("class=\"{class}\""))),
            "burn-rate gauge for {class} missing from exposition"
        );
        assert!(
            json_1.contains(&format!("\"class\": \"{class}\"")),
            "class {class} missing from JSON snapshot"
        );
    }
    assert!(json_1.contains("\"adavp_slo_burn_rate\""));
}

/// Conformance pin for the error-budget math: driving a tracker with a
/// synthetic deadline-miss schedule must reproduce the closed-form burn
/// rate `(misses / cycles) / budget` exactly, and the fleet's reported
/// per-class burn metric must equal the same closed form computed from its
/// own violation counts.
#[test]
fn error_budget_burn_matches_closed_form() {
    // Unit level: 7 misses in 40 cycles against a 5% budget.
    let mut tracker = SloTracker::new(0.05);
    for i in 0..40 {
        tracker.record(i % 6 == 0); // misses at 0,6,12,18,24,30,36 = 7
    }
    assert_eq!(tracker.cycles(), 40);
    assert_eq!(tracker.misses(), 7);
    assert_eq!(tracker.burn_rate(), (7.0 / 40.0) / 0.05);

    // Fleet level: the exported gauge equals the closed form derived from
    // the same report's violation counts.
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(18, 5, 23),
        // Scarce pool so some deadlines actually miss.
        batch: BatchConfig {
            gpus: 1,
            ..BatchConfig::default()
        },
        metrics: MetricsConfig::enabled(),
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    let metrics = report.metrics.as_ref().expect("metrics enabled");
    let prom = prometheus_text(&metrics.registry);
    for cr in &report.classes {
        if cr.cycles == 0 {
            continue;
        }
        let expected = (cr.violations as f64 / cr.cycles as f64) / cr.class.error_budget();
        let line = prom
            .lines()
            .find(|l| {
                l.starts_with("adavp_slo_burn_rate{")
                    && l.contains(&format!("class=\"{}\"", cr.class.label()))
            })
            .unwrap_or_else(|| panic!("no burn-rate line for {}", cr.class.label()));
        let value: f64 = line
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("numeric gauge value");
        assert!(
            (value - expected).abs() < 1e-12,
            "{}: exported burn {value} != closed form {expected}",
            cr.class.label()
        );
    }
}

#[test]
fn fleet_brownout_drill_stays_deterministic() {
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(24, 4, 9),
        faults: FaultProfile::brownout(3),
        ..ServeConfig::default()
    };
    let a = run_fleet(&cfg);
    let b = run_fleet(&cfg);
    assert_eq!(
        a, b,
        "faulted fleets must still be pure functions of config"
    );
    assert!(
        a.degraded + a.retries > 0,
        "brownout must actually degrade or retry something"
    );
}

/// Every serve-layer output is pinned to the byte, so a refactor of the
/// fleet driver, its aggregation or its renderers cannot move one silently:
///
/// * the smoke sweep (the `SweepConfig::smoke()` grid: 1, 8 and 24 streams,
///   6 cycles, 2 GPUs) over mpdt, cascade and ctd on both fault profiles
///   with metrics on, run through `adavp serve` as CI runs it: the CSV and
///   JSON renderings, stdout (the text table), and the merged registry's
///   Prometheus exposition and JSON snapshot;
/// * a brownout fleet recorded with the `adavp metrics` settings (250 ms
///   cadence, per-stream series): its exposition, JSON snapshot,
///   utilization report and burn-alert event count.
#[test]
fn serve_outputs_match_their_golden_digests() {
    let dir = std::env::temp_dir().join(format!("adavp-serve-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let args = "serve --streams 1,8,24 --cycles 6 --gpus 2 --schemes mpdt,cascade,ctd \
                --csv sweep.csv --json sweep.json \
                --metrics-prom sweep.prom --metrics-json metrics.json";
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_adavp"))
        .current_dir(&dir)
        .args(args.split_whitespace())
        .output()
        .expect("run adavp serve");
    assert!(out.status.success(), "adavp serve failed: {out:?}");
    let file = |name: &str| {
        fnv1a(
            FNV1A_OFFSET,
            &std::fs::read(dir.join(name)).expect("read sweep output"),
        )
    };
    let sweep = [
        ("csv", file("sweep.csv")),
        ("json", file("sweep.json")),
        ("stdout", fnv1a(FNV1A_OFFSET, &out.stdout)),
        ("prom", file("sweep.prom")),
        ("metrics-json", file("metrics.json")),
    ];
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");

    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(12, 8, 7),
        batch: BatchConfig {
            gpus: 1,
            ..BatchConfig::default()
        },
        faults: FaultProfile::brownout(0xb0b0),
        seed: 7,
        metrics: MetricsConfig {
            enabled: true,
            cadence_ms: 250.0,
            per_stream: true,
        },
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    let m = report.metrics.as_ref().expect("metrics enabled");
    let fleet = [
        (
            "prom",
            fnv1a(FNV1A_OFFSET, prometheus_text(&m.registry).as_bytes()),
        ),
        (
            "json",
            fnv1a(FNV1A_OFFSET, json_snapshot(&m.registry).as_bytes()),
        ),
        (
            "utilization",
            fnv1a(
                FNV1A_OFFSET,
                utilization_report(&m.registry, 1000.0).as_bytes(),
            ),
        ),
        ("burn-alerts", m.telemetry.events.len() as u64),
    ];

    let golden_sweep: [(&str, u64); 5] = [
        ("csv", 0x1d0d4083ffe3fd3f),
        ("json", 0x5a0ba7e5f2229f0e),
        ("stdout", 0x3e54739515454c00),
        ("prom", 0xabb20acef363bd82),
        ("metrics-json", 0x8371e18ee6e1679e),
    ];
    let golden_fleet: [(&str, u64); 4] = [
        ("prom", 0xa9992f9e11a74da4),
        ("json", 0x743e2d1c8a7f212e),
        ("utilization", 0xb797a1dd93e46a43),
        ("burn-alerts", 7),
    ];
    assert_eq!(
        sweep, golden_sweep,
        "sweep digests changed; got {sweep:#x?}"
    );
    assert_eq!(
        fleet, golden_fleet,
        "fleet digests changed; got {fleet:#x?}"
    );
}

/// A long brownout fleet sampled on the default 500 ms cadence, pinned to
/// the byte: 300 cycles per stream on 2 GPUs, where admission takes every
/// gold stream, 7 of 10 silver and no bronze. That pins the cadence
/// samples over a long run (the GPU busy fraction among them), the
/// per-class burn series in class-label order, and a class with no
/// admitted stream getting no series at all.
#[test]
fn long_brownout_fleet_matches_its_golden_digests() {
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(30, 300, 11),
        batch: BatchConfig {
            gpus: 2,
            ..BatchConfig::default()
        },
        faults: FaultProfile::brownout(0x5eed),
        seed: 11,
        metrics: MetricsConfig::enabled(),
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    let admitted: Vec<usize> = report.classes.iter().map(|c| c.admitted).collect();
    assert_eq!(admitted, [10, 7, 0], "gold, silver, bronze admitted");
    let m = report.metrics.as_ref().expect("metrics enabled");
    let burn: Vec<&str> = m
        .registry
        .series()
        .iter()
        .filter(|s| s.name == "adavp_slo_burn_rate_sampled")
        .filter_map(|s| s.labels.get("class"))
        .collect();
    assert_eq!(burn, ["gold", "silver"], "burn series in class-label order");
    let got = [
        (
            "prom",
            fnv1a(FNV1A_OFFSET, prometheus_text(&m.registry).as_bytes()),
        ),
        (
            "json",
            fnv1a(FNV1A_OFFSET, json_snapshot(&m.registry).as_bytes()),
        ),
        (
            "utilization",
            fnv1a(
                FNV1A_OFFSET,
                utilization_report(&m.registry, 1000.0).as_bytes(),
            ),
        ),
    ];
    let golden: [(&str, u64); 3] = [
        ("prom", 0x4c83b5ded0e9281c),
        ("json", 0xe361e24933042b24),
        ("utilization", 0x7711dccccadc827a),
    ];
    assert_eq!(got, golden, "long fleet digests changed; got {got:#x?}");
}

/// A stream configured for zero cycles runs none, the same empty-input
/// rule the clip pipelines follow: a fleet and a sweep of such streams
/// report no cycles, no batches and a zero horizon.
#[test]
fn zero_cycle_streams_run_nothing() {
    let cfg = ServeConfig {
        streams: ServeConfig::synthetic_streams(3, 0, 7),
        ..ServeConfig::default()
    };
    let report = run_fleet(&cfg);
    assert_eq!(report.admitted, 3);
    assert_eq!((report.cycles, report.frames, report.batches), (0, 0, 0));
    assert_eq!(report.horizon_ms, 0.0);
    let sweep = SweepConfig {
        cycles: 0,
        ..SweepConfig::smoke()
    };
    let (rows, _) = run_sweep(&sweep, &Executor::new(2));
    for r in &rows {
        assert_eq!((r.report.cycles, r.report.batches), (0, 0), "{r:?}");
        assert_eq!(r.report.horizon_ms, 0.0);
    }
}
