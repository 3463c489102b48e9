//! Fleet sweeps: batched vs unbatched serving across stream counts and
//! fault profiles, parallelized over [`adavp_vision::exec::Executor`].
//!
//! Each sweep cell — `(fault profile, stream count, batched?)` — is an
//! independent [`super::fleet::run_fleet`] run, so cells fan out across
//! worker threads and scatter back in index order. Every cell's fleet is a
//! pure function of the [`SweepConfig`], which makes the CSV/JSON renderers
//! byte-identical across `--jobs` counts (pinned by
//! `tests/serve_determinism.rs` and the CI serve smoke).
//!
//! No file I/O happens here: renderers return `String`s and callers
//! (the CLI, `serve_bench`) decide where bytes go.

use super::fleet::{run_fleet, FleetReport};
use super::stream::ServeScheme;
use super::{BatchConfig, ServeConfig};
use crate::metrics::{MetricsConfig, MetricsRegistry};
use adavp_sim::FaultProfile;
use adavp_vision::exec::Executor;

/// Configuration of one serve sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fleet sizes to sweep (the ISSUE grid by default).
    pub stream_counts: Vec<usize>,
    /// Detection cycles per admitted stream.
    pub cycles: usize,
    /// GPUs in the shared pool.
    pub gpus: usize,
    /// Batch-size cap for the batched cells.
    pub max_batch: usize,
    /// Batch-formation window for the batched cells.
    pub window_ms: f64,
    /// Master seed for synthetic stream content.
    pub seed: u64,
    /// Named fault profiles to sweep; each profile gets its own row block.
    pub profiles: Vec<(String, FaultProfile)>,
    /// Detection schemes to sweep (one row block per scheme within each
    /// profile). Defaults to MPDT only, preserving the historical grid.
    pub schemes: Vec<ServeScheme>,
    /// Metrics recording applied to every cell (off by default;
    /// [`run_sweep_with_metrics`] forces it on).
    pub metrics: MetricsConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            stream_counts: vec![1, 8, 64, 256, 1024],
            cycles: 30,
            gpus: 4,
            max_batch: 8,
            window_ms: 250.0,
            seed: 7,
            profiles: vec![
                ("none".to_string(), FaultProfile::none()),
                ("brownout".to_string(), FaultProfile::brownout(0xb0b0)),
            ],
            schemes: vec![ServeScheme::Mpdt],
            metrics: MetricsConfig::default(),
        }
    }
}

impl SweepConfig {
    /// A small grid for smoke tests and CI.
    pub fn smoke() -> Self {
        Self {
            stream_counts: vec![1, 8, 24],
            cycles: 6,
            gpus: 2,
            ..Self::default()
        }
    }

    /// The fleet configuration for one cell.
    pub fn cell(
        &self,
        profile: &FaultProfile,
        scheme: ServeScheme,
        streams: usize,
        batched: bool,
    ) -> ServeConfig {
        let batch = BatchConfig {
            gpus: self.gpus,
            max_batch: self.max_batch,
            window_ms: self.window_ms,
            ..BatchConfig::default()
        };
        ServeConfig {
            streams: ServeConfig::synthetic_streams(streams, self.cycles, self.seed),
            scheme,
            batch: if batched { batch } else { batch.unbatched() },
            faults: profile.clone(),
            seed: self.seed,
            metrics: self.metrics,
            ..ServeConfig::default()
        }
    }

    /// The cell grid in row order: `profiles × schemes × stream_counts ×
    /// {batched, unbatched}`.
    fn cells(&self) -> Vec<(String, FaultProfile, ServeScheme, usize, bool)> {
        let mut cells = Vec::new();
        let schemes: &[ServeScheme] = if self.schemes.is_empty() {
            &[ServeScheme::Mpdt]
        } else {
            &self.schemes
        };
        for (name, profile) in &self.profiles {
            for &scheme in schemes {
                for &n in &self.stream_counts {
                    for batched in [true, false] {
                        cells.push((name.clone(), profile.clone(), scheme, n, batched));
                    }
                }
            }
        }
        cells
    }
}

/// One sweep cell's flattened result row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Fault-profile name.
    pub profile: String,
    /// Detection-scheme label ([`ServeScheme::label`]).
    pub scheme: String,
    /// Streams that requested service.
    pub streams: usize,
    /// Whether the scheduler batched (false = singleton dispatch).
    pub batched: bool,
    /// Streams admitted.
    pub admitted: usize,
    /// Completed cycles.
    pub cycles: u64,
    /// Fresh detections published.
    pub detections: u64,
    /// Fresh detections per second of virtual time.
    pub throughput_dps: f64,
    /// Cycles degraded to held boxes.
    pub degraded: u64,
    /// Retried detection attempts.
    pub retries: u64,
    /// Submissions shed by backpressure.
    pub shed: u64,
    /// Model-setting step-downs and switches (backpressure shedding and
    /// degraded cycles both step settings down; see
    /// [`super::stream::StreamStats::switches`]).
    pub switches: u64,
    /// GPU batches dispatched.
    pub batches: u64,
    /// Mean members per batch.
    pub mean_batch_size: f64,
    /// Batches closed by filling rather than by window deadline.
    pub closed_on_size: u64,
    /// Mean pool utilization over the horizon.
    pub gpu_utilization: f64,
    /// Aggregate cycle-latency p50 (ms; 0 when no cycles ran).
    pub p50_ms: f64,
    /// Aggregate cycle-latency p90 (ms).
    pub p90_ms: f64,
    /// Aggregate cycle-latency p99 (ms).
    pub p99_ms: f64,
    /// Gold-class SLO violation rate.
    pub gold_violation_rate: f64,
    /// Silver-class SLO violation rate.
    pub silver_violation_rate: f64,
    /// Bronze-class SLO violation rate.
    pub bronze_violation_rate: f64,
    /// Virtual time the fleet drained (ms).
    pub horizon_ms: f64,
}

impl SweepRow {
    fn from_report(
        profile: &str,
        scheme: ServeScheme,
        streams: usize,
        batched: bool,
        r: &FleetReport,
    ) -> Self {
        let p = r.cycle_ms.percentiles();
        Self {
            profile: profile.to_string(),
            scheme: scheme.label().to_string(),
            streams,
            batched,
            admitted: r.admitted,
            cycles: r.cycles,
            detections: r.detections,
            throughput_dps: r.throughput_dps,
            degraded: r.degraded,
            retries: r.retries,
            shed: r.shed,
            switches: r.switches,
            batches: r.batches,
            mean_batch_size: r.mean_batch_size,
            closed_on_size: r.closed_on_size,
            gpu_utilization: r.gpu_utilization,
            p50_ms: p.map_or(0.0, |p| p.p50),
            p90_ms: p.map_or(0.0, |p| p.p90),
            p99_ms: p.map_or(0.0, |p| p.p99),
            gold_violation_rate: r.classes[0].violation_rate(),
            silver_violation_rate: r.classes[1].violation_rate(),
            bronze_violation_rate: r.classes[2].violation_rate(),
            horizon_ms: r.horizon_ms,
        }
    }
}

/// Runs every sweep cell, fanned out over `exec` and scattered back in
/// cell-index order. Cell order is `profiles × schemes × stream_counts ×
/// {batched, unbatched}` — row order (and therefore rendered bytes) is
/// independent of the executor's job count.
pub fn run_sweep(cfg: &SweepConfig, exec: &Executor) -> Vec<SweepRow> {
    let cells = cfg.cells();
    exec.map(&cells, |_, (name, profile, scheme, n, batched)| {
        let report = run_fleet(&cfg.cell(profile, *scheme, *n, *batched));
        SweepRow::from_report(name, *scheme, *n, *batched, &report)
    })
}

/// Like [`run_sweep`], but with metrics recording forced on: returns the
/// rows plus one sweep-wide [`MetricsRegistry`]. Each cell's registry is
/// stamped with its `(profile, scheme, streams, batched)` identity and the
/// stamped registries merge in cell-index order, so the merged registry —
/// and any rendering of it — is byte-identical across `--jobs` counts.
pub fn run_sweep_with_metrics(
    cfg: &SweepConfig,
    exec: &Executor,
) -> (Vec<SweepRow>, MetricsRegistry) {
    let cells = cfg.cells();
    let results: Vec<(SweepRow, MetricsRegistry)> =
        exec.map(&cells, |_, (name, profile, scheme, n, batched)| {
            let mut cell = cfg.cell(profile, *scheme, *n, *batched);
            cell.metrics.enabled = true;
            let report = run_fleet(&cell);
            let row = SweepRow::from_report(name, *scheme, *n, *batched, &report);
            let registry = report
                .metrics
                .map(|m| m.registry)
                .unwrap_or_default()
                .relabeled(&[
                    ("profile", name),
                    ("scheme", scheme.label()),
                    ("streams", &n.to_string()),
                    ("batched", if *batched { "true" } else { "false" }),
                ]);
            (row, registry)
        });
    let mut merged = MetricsRegistry::new();
    let mut rows = Vec::with_capacity(results.len());
    for (row, registry) in results {
        merged.merge(&registry);
        rows.push(row);
    }
    (rows, merged)
}

fn fmt(v: f64) -> String {
    // Fixed precision keeps renderer output stable and diff-friendly;
    // all inputs are finite by construction.
    format!("{v:.4}")
}

/// Renders sweep rows as CSV (header + one line per cell).
pub fn sweep_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "profile,scheme,streams,batched,admitted,cycles,detections,throughput_dps,\
         degraded,retries,shed,switches,batches,mean_batch_size,closed_on_size,\
         gpu_utilization,p50_ms,p90_ms,p99_ms,gold_violation_rate,\
         silver_violation_rate,bronze_violation_rate,horizon_ms\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.profile,
            r.scheme,
            r.streams,
            r.batched,
            r.admitted,
            r.cycles,
            r.detections,
            fmt(r.throughput_dps),
            r.degraded,
            r.retries,
            r.shed,
            r.switches,
            r.batches,
            fmt(r.mean_batch_size),
            r.closed_on_size,
            fmt(r.gpu_utilization),
            fmt(r.p50_ms),
            fmt(r.p90_ms),
            fmt(r.p99_ms),
            fmt(r.gold_violation_rate),
            fmt(r.silver_violation_rate),
            fmt(r.bronze_violation_rate),
            fmt(r.horizon_ms),
        ));
    }
    out
}

/// Renders sweep rows as a JSON array (hand-rolled: stable key order,
/// fixed float precision, no serializer dependency).
pub fn sweep_json(rows: &[SweepRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"profile\": \"{}\", \"scheme\": \"{}\", \"streams\": {}, \
             \"batched\": {}, \
             \"admitted\": {}, \"cycles\": {}, \"detections\": {}, \
             \"throughput_dps\": {}, \"degraded\": {}, \"retries\": {}, \
             \"shed\": {}, \"switches\": {}, \"batches\": {}, \"mean_batch_size\": {}, \
             \"closed_on_size\": {}, \"gpu_utilization\": {}, \
             \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
             \"gold_violation_rate\": {}, \"silver_violation_rate\": {}, \
             \"bronze_violation_rate\": {}, \"horizon_ms\": {}}}{}\n",
            r.profile,
            r.scheme,
            r.streams,
            r.batched,
            r.admitted,
            r.cycles,
            r.detections,
            fmt(r.throughput_dps),
            r.degraded,
            r.retries,
            r.shed,
            r.switches,
            r.batches,
            fmt(r.mean_batch_size),
            r.closed_on_size,
            fmt(r.gpu_utilization),
            fmt(r.p50_ms),
            fmt(r.p90_ms),
            fmt(r.p99_ms),
            fmt(r.gold_violation_rate),
            fmt(r.silver_violation_rate),
            fmt(r.bronze_violation_rate),
            fmt(r.horizon_ms),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders sweep rows as an aligned text table for terminal display.
pub fn sweep_text(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<8} {:>7} {:>9} {:>8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}\n",
        "profile",
        "scheme",
        "streams",
        "batched",
        "admitted",
        "det/s",
        "batchsize",
        "p50ms",
        "p90ms",
        "p99ms",
        "shed",
        "switch",
        "gold%",
        "slvr%",
        "brnz%",
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<8} {:>7} {:>9} {:>8} {:>8.2} {:>10.2} {:>8.1} {:>8.1} {:>8.1} {:>8} {:>8} {:>7.2} {:>7.2} {:>7.2}\n",
            r.profile,
            r.scheme,
            r.streams,
            r.batched,
            r.admitted,
            r.throughput_dps,
            r.mean_batch_size,
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            r.shed,
            r.switches,
            100.0 * r.gold_violation_rate,
            100.0 * r.silver_violation_rate,
            100.0 * r.bronze_violation_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_cover_the_grid_in_order() {
        let cfg = SweepConfig {
            stream_counts: vec![1, 4],
            cycles: 2,
            profiles: vec![("none".to_string(), FaultProfile::none())],
            ..SweepConfig::smoke()
        };
        let rows = run_sweep(&cfg, &Executor::sequential());
        assert_eq!(rows.len(), 4, "1 profile x 2 counts x 2 modes");
        assert_eq!(
            rows.iter()
                .map(|r| (r.streams, r.batched))
                .collect::<Vec<_>>(),
            vec![(1, true), (1, false), (4, true), (4, false)]
        );
        for r in &rows {
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn sweep_output_is_identical_across_jobs() {
        let cfg = SweepConfig {
            stream_counts: vec![1, 6],
            cycles: 3,
            ..SweepConfig::smoke()
        };
        let seq = run_sweep(&cfg, &Executor::sequential());
        let par = run_sweep(&cfg, &Executor::new(4));
        assert_eq!(seq, par);
        assert_eq!(sweep_csv(&seq), sweep_csv(&par));
        assert_eq!(sweep_json(&seq), sweep_json(&par));
    }

    #[test]
    fn renderers_are_well_formed() {
        let cfg = SweepConfig {
            stream_counts: vec![2],
            cycles: 2,
            profiles: vec![("none".to_string(), FaultProfile::none())],
            ..SweepConfig::smoke()
        };
        let rows = run_sweep(&cfg, &Executor::sequential());
        let csv = sweep_csv(&rows);
        assert!(
            csv.lines()
                .next()
                .unwrap()
                .contains(",shed,switches,batches,"),
            "backpressure columns missing from the CSV header"
        );
        let header_cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols);
        }
        let json = sweep_json(&rows);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("\"profile\"").count(), rows.len());
        assert_eq!(json.matches("\"switches\"").count(), rows.len());
        let text = sweep_text(&rows);
        assert_eq!(text.lines().count(), rows.len() + 1);
    }

    #[test]
    fn metrics_sweep_merges_cells_identically_across_jobs() {
        let cfg = SweepConfig {
            stream_counts: vec![1, 4],
            cycles: 2,
            profiles: vec![("none".to_string(), FaultProfile::none())],
            ..SweepConfig::smoke()
        };
        let (rows_s, reg_s) = run_sweep_with_metrics(&cfg, &Executor::sequential());
        let (rows_p, reg_p) = run_sweep_with_metrics(&cfg, &Executor::new(4));
        assert_eq!(rows_s, rows_p, "metrics sweep rows differ across jobs");
        assert_eq!(reg_s, reg_p, "merged registries differ across jobs");
        // Observing must not perturb: rows match the metrics-less sweep.
        assert_eq!(rows_s, run_sweep(&cfg, &Executor::sequential()));
        // Every metric carries its cell identity labels.
        assert!(!reg_s.is_empty());
        assert!(reg_s.iter().all(|(_, l, _)| l.get("profile").is_some()
            && l.get("scheme").is_some()
            && l.get("streams").is_some()
            && l.get("batched").is_some()));
        assert!(reg_s
            .iter()
            .any(|(_, l, _)| l.get("streams") == Some("4") && l.get("batched") == Some("true")));
    }
}
