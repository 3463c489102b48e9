//! The static metric-name vocabulary.
//!
//! Metric names are part of the determinism contract: producers (the fleet
//! loop, the pipelines) and consumers (the report renderer, tests, CI
//! greps) must agree on them byte-for-byte, so they live here as constants
//! rather than ad-hoc string literals. Label keys are equally static:
//! `class`, `stream`, `gpu`, `scheme`, `profile`, `streams`, `batched`,
//! `threshold`, `setting`, `pipeline` — values always come from
//! configuration, never from host state (DESIGN.md §17).

/// Sampled gauge: detection requests queued or in flight on the scheduler.
pub const QUEUE_DEPTH: &str = "adavp_queue_depth";
/// Sampled gauge: batches dispatched to a GPU and not yet completed.
pub const OUTSTANDING_BATCHES: &str = "adavp_outstanding_batches";
/// Sampled gauge: mean busy fraction of the GPU pool up to the sample time.
pub const GPU_BUSY_FRACTION: &str = "adavp_gpu_busy_fraction";
/// Sampled gauge: mean members per dispatched batch so far.
pub const BATCH_OCCUPANCY: &str = "adavp_batch_occupancy";
/// Sampled gauge: cumulative shed submissions at the sample time.
pub const SHED_SAMPLED: &str = "adavp_shed_cumulative";
/// Sampled gauge: cumulative degraded cycles at the sample time.
pub const DEGRADED_SAMPLED: &str = "adavp_degraded_cumulative";
/// Sampled gauge (per class): error-budget burn rate at the sample time.
pub const BURN_SAMPLED: &str = "adavp_slo_burn_rate_sampled";

/// Counter (per class): completed detection cycles.
pub const CYCLES_TOTAL: &str = "adavp_cycles_total";
/// Counter (per class): cycles that missed the class deadline.
pub const DEADLINE_MISS_TOTAL: &str = "adavp_deadline_miss_total";
/// Counter (per class + threshold): burn-rate alert threshold crossings.
pub const BURN_ALERTS_TOTAL: &str = "adavp_slo_burn_alerts_total";
/// Counter: frames delivered to admitted streams.
pub const FRAMES_TOTAL: &str = "adavp_frames_total";
/// Counter: full-detector detections completed.
pub const DETECTIONS_TOTAL: &str = "adavp_detections_total";
/// Counter: cycles finished on a degraded (stepped-down) setting.
pub const DEGRADED_TOTAL: &str = "adavp_degraded_total";
/// Counter: detector retries after faults or timeouts.
pub const RETRIES_TOTAL: &str = "adavp_retries_total";
/// Counter: submissions refused by a saturated queue (backpressure).
pub const SHED_TOTAL: &str = "adavp_shed_total";
/// Counter: setting step-downs (adaptation switches).
pub const SWITCHES_TOTAL: &str = "adavp_switches_total";
/// Counter: batches dispatched to GPUs.
pub const BATCHES_TOTAL: &str = "adavp_batches_total";
/// Counter: members across all dispatched batches.
pub const BATCH_MEMBERS_TOTAL: &str = "adavp_batch_members_total";
/// Counter: batches closed by reaching `max_batch` before the window.
pub const CLOSED_ON_SIZE_TOTAL: &str = "adavp_batches_closed_on_size_total";
/// Counter: streams that requested admission.
pub const STREAMS_REQUESTED: &str = "adavp_streams_requested_total";
/// Counter: streams admitted by admission control.
pub const STREAMS_ADMITTED: &str = "adavp_streams_admitted_total";

/// Gauge (per class): final error-budget burn rate.
pub const SLO_BURN_RATE: &str = "adavp_slo_burn_rate";
/// Gauge (per class): final fraction of error budget remaining.
pub const SLO_BUDGET_REMAINING: &str = "adavp_slo_budget_remaining";
/// Gauge (per class): the class error budget (allowed miss fraction).
pub const SLO_ERROR_BUDGET: &str = "adavp_slo_error_budget";
/// Gauge (per gpu): total busy milliseconds on one GPU.
pub const GPU_BUSY_MS: &str = "adavp_gpu_busy_ms";
/// Gauge: mean busy fraction of the GPU pool over the whole run.
pub const GPU_POOL_UTILIZATION: &str = "adavp_gpu_pool_utilization";
/// Gauge: virtual completion time of the fleet run (ms).
pub const HORIZON_MS: &str = "adavp_horizon_ms";
/// Gauge: mean members per dispatched batch over the whole run.
pub const MEAN_BATCH_SIZE: &str = "adavp_mean_batch_size";

/// Histogram (per class, plus `class="all"` rollup): detection-cycle
/// latency in ms.
pub const CYCLE_LATENCY_MS: &str = "adavp_cycle_latency_ms";

/// Counter (per pipeline): detection cycles completed by a pipeline run.
pub const PIPELINE_CYCLES_TOTAL: &str = "adavp_pipeline_cycles_total";
/// Counter (per pipeline): setting switches during a pipeline run.
pub const PIPELINE_SWITCHES_TOTAL: &str = "adavp_pipeline_switches_total";
/// Counter (per pipeline): injected faults observed by a pipeline run.
pub const PIPELINE_FAULTS_TOTAL: &str = "adavp_pipeline_faults_total";
/// Counter (per pipeline): degraded cycles during a pipeline run.
pub const PIPELINE_DEGRADED_TOTAL: &str = "adavp_pipeline_degraded_total";
/// Counter (per pipeline): diverged cycles during a pipeline run.
pub const PIPELINE_DIVERGED_TOTAL: &str = "adavp_pipeline_diverged_total";
/// Histogram (per pipeline): per-cycle latency in ms.
pub const PIPELINE_CYCLE_MS: &str = "adavp_pipeline_cycle_ms";
/// Gauge (per pipeline): GPU busy time over the run (ms).
pub const PIPELINE_GPU_BUSY_MS: &str = "adavp_pipeline_gpu_busy_ms";
/// Gauge (per pipeline): CPU busy time over the run (ms).
pub const PIPELINE_CPU_BUSY_MS: &str = "adavp_pipeline_cpu_busy_ms";
/// Gauge (per pipeline): modeled energy for the run (mJ).
pub const PIPELINE_ENERGY_MJ: &str = "adavp_pipeline_energy_mj";
