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

use super::fleet::{run_fleet, ClassReport, FleetReport};
use super::stream::{ServeScheme, SloClass};
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
    /// Metrics recording applied to every cell (off by default; when on,
    /// [`run_sweep`] also returns the merged, cell-labelled registry).
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

/// One sweep cell: its identity in the grid plus the fleet report it
/// produced. The report's metrics move into the registry [`run_sweep`]
/// returns, so `report.metrics` is always `None` here.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Fault-profile name.
    pub profile: String,
    /// Detection scheme.
    pub scheme: ServeScheme,
    /// Streams that requested service.
    pub streams: usize,
    /// Whether the scheduler batched (false = singleton dispatch).
    pub batched: bool,
    /// The cell's fleet run.
    pub report: FleetReport,
}

impl SweepCell {
    /// Aggregate cycle-latency percentile `p` (ms; 0 when no cycles ran).
    pub fn latency_ms(&self, p: f64) -> f64 {
        self.report.cycle_ms.percentile(p).unwrap_or(0.0)
    }

    /// One class's SLO violation rate (0 when the class ran no cycles).
    pub fn violation_rate(&self, class: SloClass) -> f64 {
        self.report
            .class(class)
            .map_or(0.0, ClassReport::violation_rate)
    }
}

/// Runs every sweep cell, fanned out over `exec` and scattered back in
/// cell-index order. Cell order is `profiles × schemes × stream_counts ×
/// {batched, unbatched}` — row order (and therefore rendered bytes) is
/// independent of the executor's job count.
///
/// Also returns one sweep-wide [`MetricsRegistry`], empty unless
/// `cfg.metrics.enabled`: each cell's registry is stamped with its
/// `(profile, scheme, streams, batched)` identity and the stamped
/// registries merge in cell-index order, so the merged registry — and any
/// rendering of it — is byte-identical across `--jobs` counts.
pub fn run_sweep(cfg: &SweepConfig, exec: &Executor) -> (Vec<SweepCell>, MetricsRegistry) {
    let cells = cfg.cells();
    let results = exec.map(&cells, |_, (name, profile, scheme, n, batched)| {
        let mut report = run_fleet(&cfg.cell(profile, *scheme, *n, *batched));
        let registry = report.metrics.take().map(|m| {
            m.registry.relabeled(&[
                ("profile", name),
                ("scheme", scheme.label()),
                ("streams", &n.to_string()),
                ("batched", if *batched { "true" } else { "false" }),
            ])
        });
        let cell = SweepCell {
            profile: name.clone(),
            scheme: *scheme,
            streams: *n,
            batched: *batched,
            report,
        };
        (cell, registry)
    });
    let mut merged = MetricsRegistry::new();
    let mut rows = Vec::with_capacity(results.len());
    for (cell, registry) in results {
        if let Some(registry) = registry {
            merged.merge(&registry);
        }
        rows.push(cell);
    }
    (rows, merged)
}

/// Fixed precision keeps renderer output stable and diff-friendly; all
/// inputs are finite by construction.
fn fixed(v: f64) -> String {
    format!("{v:.4}")
}

/// The CSV and JSON columns, each stated once: name, whether JSON quotes
/// the value, and the rendered value.
type Column = (&'static str, bool, fn(&SweepCell) -> String);

const COLUMNS: [Column; 23] = [
    ("profile", true, |c| c.profile.clone()),
    ("scheme", true, |c| c.scheme.label().to_string()),
    ("streams", false, |c| c.streams.to_string()),
    ("batched", false, |c| c.batched.to_string()),
    ("admitted", false, |c| c.report.admitted.to_string()),
    ("cycles", false, |c| c.report.cycles.to_string()),
    ("detections", false, |c| c.report.detections.to_string()),
    ("throughput_dps", false, |c| fixed(c.report.throughput_dps)),
    ("degraded", false, |c| c.report.degraded.to_string()),
    ("retries", false, |c| c.report.retries.to_string()),
    ("shed", false, |c| c.report.shed.to_string()),
    ("switches", false, |c| c.report.switches.to_string()),
    ("batches", false, |c| c.report.batches.to_string()),
    ("mean_batch_size", false, |c| {
        fixed(c.report.mean_batch_size)
    }),
    ("closed_on_size", false, |c| {
        c.report.closed_on_size.to_string()
    }),
    ("gpu_utilization", false, |c| {
        fixed(c.report.gpu_utilization)
    }),
    ("p50_ms", false, |c| fixed(c.latency_ms(50.0))),
    ("p90_ms", false, |c| fixed(c.latency_ms(90.0))),
    ("p99_ms", false, |c| fixed(c.latency_ms(99.0))),
    ("gold_violation_rate", false, |c| {
        fixed(c.violation_rate(SloClass::Gold))
    }),
    ("silver_violation_rate", false, |c| {
        fixed(c.violation_rate(SloClass::Silver))
    }),
    ("bronze_violation_rate", false, |c| {
        fixed(c.violation_rate(SloClass::Bronze))
    }),
    ("horizon_ms", false, |c| fixed(c.report.horizon_ms)),
];

/// Renders sweep cells as CSV (header + one line per cell).
pub fn sweep_csv(rows: &[SweepCell]) -> String {
    let header: Vec<&str> = COLUMNS.iter().map(|(name, ..)| *name).collect();
    let mut out = header.join(",") + "\n";
    for r in rows {
        let fields: Vec<String> = COLUMNS.iter().map(|(_, _, value)| value(r)).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Renders sweep cells as a JSON array (hand-rolled: stable key order,
/// fixed float precision, no serializer dependency).
pub fn sweep_json(rows: &[SweepCell]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> = COLUMNS
                .iter()
                .map(|(name, quoted, value)| {
                    let q = if *quoted { "\"" } else { "" };
                    format!("\"{name}\": {q}{}{q}", value(r))
                })
                .collect();
            format!("  {{{}}}", fields.join(", "))
        })
        .collect();
    let mut out = String::from("[\n");
    if !objects.is_empty() {
        out.push_str(&objects.join(",\n"));
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// The text table's columns: header, width, left-aligned, rendered value.
type TextColumn = (&'static str, usize, bool, fn(&SweepCell) -> String);

const TEXT_COLUMNS: [TextColumn; 15] = [
    ("profile", 10, true, |c| c.profile.clone()),
    ("scheme", 8, true, |c| c.scheme.label().to_string()),
    ("streams", 7, false, |c| c.streams.to_string()),
    ("batched", 9, false, |c| c.batched.to_string()),
    ("admitted", 8, false, |c| c.report.admitted.to_string()),
    ("det/s", 8, false, |c| {
        format!("{:.2}", c.report.throughput_dps)
    }),
    ("batchsize", 10, false, |c| {
        format!("{:.2}", c.report.mean_batch_size)
    }),
    ("p50ms", 8, false, |c| format!("{:.1}", c.latency_ms(50.0))),
    ("p90ms", 8, false, |c| format!("{:.1}", c.latency_ms(90.0))),
    ("p99ms", 8, false, |c| format!("{:.1}", c.latency_ms(99.0))),
    ("shed", 8, false, |c| c.report.shed.to_string()),
    ("switch", 8, false, |c| c.report.switches.to_string()),
    ("gold%", 7, false, |c| percent(c, SloClass::Gold)),
    ("slvr%", 7, false, |c| percent(c, SloClass::Silver)),
    ("brnz%", 7, false, |c| percent(c, SloClass::Bronze)),
];

fn percent(c: &SweepCell, class: SloClass) -> String {
    format!("{:.2}", 100.0 * c.violation_rate(class))
}

/// Renders sweep cells as an aligned text table for terminal display.
pub fn sweep_text(rows: &[SweepCell]) -> String {
    let line = |field: &dyn Fn(&TextColumn) -> String| {
        let fields: Vec<String> = TEXT_COLUMNS
            .iter()
            .map(|col| match (field(col), col.1, col.2) {
                (v, w, true) => format!("{v:<w$}"),
                (v, w, false) => format!("{v:>w$}"),
            })
            .collect();
        fields.join(" ") + "\n"
    };
    let mut out = line(&|col| col.0.to_string());
    for r in rows {
        out.push_str(&line(&|col| (col.3)(r)));
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
        let (rows, registry) = run_sweep(&cfg, &Executor::sequential());
        assert!(registry.is_empty(), "metrics are off by default");
        assert_eq!(rows.len(), 4, "1 profile x 2 counts x 2 modes");
        assert_eq!(
            rows.iter()
                .map(|r| (r.streams, r.batched))
                .collect::<Vec<_>>(),
            vec![(1, true), (1, false), (4, true), (4, false)]
        );
        for r in &rows {
            assert!(r.report.cycles > 0);
        }
    }

    #[test]
    fn sweep_output_is_identical_across_jobs() {
        let cfg = SweepConfig {
            stream_counts: vec![1, 6],
            cycles: 3,
            ..SweepConfig::smoke()
        };
        let (seq, _) = run_sweep(&cfg, &Executor::sequential());
        let (par, _) = run_sweep(&cfg, &Executor::new(4));
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
        let (rows, _) = run_sweep(&cfg, &Executor::sequential());
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
        let mut cfg = SweepConfig {
            stream_counts: vec![1, 4],
            cycles: 2,
            profiles: vec![("none".to_string(), FaultProfile::none())],
            ..SweepConfig::smoke()
        };
        let (rows_off, _) = run_sweep(&cfg, &Executor::sequential());
        cfg.metrics = MetricsConfig::enabled();
        let (rows_s, reg_s) = run_sweep(&cfg, &Executor::sequential());
        let (rows_p, reg_p) = run_sweep(&cfg, &Executor::new(4));
        assert_eq!(rows_s, rows_p, "metrics sweep rows differ across jobs");
        assert_eq!(reg_s, reg_p, "merged registries differ across jobs");
        // Observing must not perturb: rows match the metrics-less sweep.
        assert_eq!(rows_s, rows_off);
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
