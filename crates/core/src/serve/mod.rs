//! Fleet serving: many camera streams multiplexed over a shared GPU pool.
//!
//! The paper runs one pipeline per device; this layer is the "millions of
//! users" axis (ROADMAP item 1): a deterministic discrete-event fleet
//! simulator that interleaves hundreds-to-thousands of concurrent streams
//! over a small pool of shared GPUs. It is built from three pieces:
//!
//! * [`stream::StreamPipeline`] — the MPDT cycle loop refactored from
//!   run-to-completion into a **poll/step architecture**: every call to
//!   [`stream::StreamPipeline::step`] advances one stream's state machine
//!   at a given virtual time and returns a [`stream::NextWake`] telling the
//!   driver when (or on what) to poll it next. No stream ever blocks; a
//!   single event loop interleaves all of them.
//! * [`batch::BatchScheduler`] — the shared-GPU detection scheduler.
//!   Requests accumulate into a batch that closes on **size** (the
//!   configurable `max_batch`) or on a **formation-window deadline**
//!   (`window_ms` after the first member), then dispatch to the
//!   least-loaded [`adavp_sim::Resource`] in the pool under the sub-linear
//!   [`crate::latency::batch_ms`] model. A bounded outstanding-request
//!   queue provides **backpressure**: refused submissions make streams
//!   step their model setting down via the pipelines' degradation rule
//!   ([`crate::pipeline::step_down`]) instead of queueing unboundedly.
//! * [`fleet::run_fleet`] — an [`adavp_sim::EventQueue`]-based driver
//!   with **admission control**: streams are sorted by SLO class and
//!   admitted while their estimated amortized GPU demand fits the pool's
//!   [`fleet::TARGET_UTILIZATION`]; the rest are rejected up front so the tail
//!   latency of admitted streams stays bounded.
//!
//! Every decision in the layer — synthetic content velocity, object
//! counts, detector latency jitter, fault injection via
//! [`adavp_sim::FaultPlan::for_stream`] name-salting — is a pure splitmix64
//! hash of `(seed, tag, indices)`, so a fleet run is a deterministic
//! function of its configuration. [`sweep::run_sweep`] fans independent
//! sweep cells out over [`adavp_vision::exec::Executor`] and scatters
//! results back in index order, making sweep CSV/JSON output byte-identical
//! across `--jobs` counts (pinned by `tests/serve_determinism.rs`).
//!
//! # Example: serve 16 streams over 2 GPUs
//!
//! ```
//! use adavp_core::serve::{fleet, ServeConfig};
//!
//! let mut cfg = ServeConfig::default();
//! cfg.streams = ServeConfig::synthetic_streams(16, 10, 7);
//! cfg.batch.gpus = 2;
//! let report = fleet::run_fleet(&cfg);
//! assert!(report.admitted >= 1);
//! assert!(report.cycles > 0);
//! ```

pub mod batch;
pub mod fleet;
pub mod stream;
pub mod sweep;

pub use batch::{BatchConfig, BatchScheduler};
pub use fleet::{run_fleet, ClassReport, FleetMetrics, FleetReport};
pub use stream::{NextWake, ServeScheme, SloClass, StreamPipeline, StreamSpec, StreamStats};
pub use sweep::{run_sweep, sweep_csv, sweep_json, sweep_text, SweepCell, SweepConfig};

use crate::metrics::MetricsConfig;
use crate::pipeline::SettingPolicy;
use adavp_rng::mix;
use adavp_sim::FaultProfile;

/// Domain-separation tags for the serve layer's deterministic streams.
/// Disjoint from the `adavp_sim::fault` tags by construction (different
/// hashing entry points), but kept visually distinct anyway.
pub(crate) const TAG_VELOCITY: u64 = 0x5e01;
pub(crate) const TAG_OBJECTS: u64 = 0x5e02;
pub(crate) const TAG_JITTER: u64 = 0x5e03;
pub(crate) const TAG_STREAM_SEED: u64 = 0x5e04;
pub(crate) const TAG_PROPOSAL: u64 = 0x5e05;

/// Full configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The streams requesting admission, in arrival order.
    pub streams: Vec<StreamSpec>,
    /// Detection scheme every stream runs (the sweep's scheme axis).
    pub scheme: ServeScheme,
    /// Model-setting policy cloned into every stream (AdaVP's adaptive
    /// policy by default, driven by each stream's synthetic velocity).
    pub policy: SettingPolicy,
    /// Batching scheduler configuration, including the GPU pool size.
    pub batch: BatchConfig,
    /// Fleet-wide fault profile; each stream gets a decorrelated plan via
    /// [`adavp_sim::FaultPlan::for_stream`] on its name, and each GPU gets
    /// its own contention injector the same way.
    pub faults: FaultProfile,
    /// Seed for the synthetic content streams (velocity, object counts,
    /// latency jitter); independent of the fault seed.
    pub seed: u64,
    /// Metrics recording (off by default; enabling must not perturb any
    /// serving decision, only observe them).
    pub metrics: MetricsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            streams: Vec::new(),
            scheme: ServeScheme::Mpdt,
            policy: SettingPolicy::Adaptive(crate::adaptation::AdaptationModel::default_model()),
            batch: BatchConfig::default(),
            faults: FaultProfile::none(),
            seed: 0xada5e,
            metrics: MetricsConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Generates `n` synthetic camera streams named `cam-0000…`, classes
    /// assigned round-robin (Gold, Silver, Bronze), each running `cycles`
    /// detection cycles at 30 fps with a per-stream content seed derived
    /// from `seed`.
    pub fn synthetic_streams(n: usize, cycles: usize, seed: u64) -> Vec<StreamSpec> {
        (0..n)
            .zip(SloClass::ALL.into_iter().cycle())
            .map(|(i, class)| StreamSpec {
                name: format!("cam-{i:04}"),
                class,
                frame_interval_ms: 1000.0 / 30.0,
                cycles,
                seed: mix(seed, TAG_STREAM_SEED, i as u64, 0),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_streams_are_deterministic_and_classed() {
        let a = ServeConfig::synthetic_streams(9, 5, 42);
        let b = ServeConfig::synthetic_streams(9, 5, 42);
        assert_eq!(a.len(), 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.class, y.class);
        }
        // Round-robin classes: every class represented.
        for class in SloClass::ALL {
            assert!(a.iter().any(|s| s.class == class));
        }
        // Different master seeds decorrelate stream seeds.
        let c = ServeConfig::synthetic_streams(9, 5, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
    }
}
