//! Dataset sweeps shared by the experiments: one [`Scheme`] over a clip set.
//!
//! Runs under the context's own configuration go through the memo,
//! [`ExperimentContext::run`](crate::ExperimentContext::run);
//! [`run_scheme`] serves runs under any other clip set or configuration.

use adavp_core::eval::{evaluate_on_clip, EvalConfig, VideoEvaluation};
use adavp_core::pipeline::{PipelineConfig, Scheme};
use adavp_core::telemetry::{distributions, TraceDistributions};
use adavp_detector::DetectorConfig;
use adavp_metrics::video::dataset_accuracy;
use adavp_sim::energy::EnergyBreakdown;
use adavp_video::clip::VideoClip;
use adavp_vision::exec::Executor;

/// Aggregated result of one scheme over a dataset.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme label.
    pub label: String,
    /// Per-video accuracy (fraction of frames with F1 ≥ α).
    pub per_video_accuracy: Vec<f64>,
    /// Dataset accuracy (mean of per-video).
    pub accuracy: f64,
    /// Total energy over the dataset.
    pub energy: EnergyBreakdown,
    /// Mean processing-time / video-duration ratio.
    pub latency_multiplier: f64,
    /// Per-video evaluations (traces + frame scores), for detail figures.
    pub evaluations: Vec<VideoEvaluation>,
}

impl SchemeResult {
    /// Latency/velocity/pacing distributions aggregated over every clip the
    /// scheme was evaluated on — the input to exact p50/p90/p99 reporting.
    /// Histogram merging is order-independent, so the result is identical
    /// for every `--jobs` setting.
    pub fn distributions(&self) -> TraceDistributions {
        distributions(self.evaluations.iter().map(|e| &e.trace))
    }
}

/// Runs one scheme over every clip and aggregates.
///
/// Each clip is evaluated on its own freshly-built pipeline (pipelines
/// carry no cross-clip state, and the simulated detector is keyed purely on
/// `(seed, frame, setting, object)`), so clips fan out across `exec` and
/// the per-clip evaluations come back in clip order. Aggregation then runs
/// over that ordered list, making the result — including the
/// floating-point accumulation order of energy and latency sums —
/// identical to the sequential loop for every jobs setting.
pub fn run_scheme(
    scheme: &Scheme,
    clips: &[VideoClip],
    detector: &DetectorConfig,
    pipeline: &PipelineConfig,
    eval: &EvalConfig,
    exec: &Executor,
) -> SchemeResult {
    let evaluations: Vec<VideoEvaluation> = exec.map(clips, |_, clip| {
        let mut p = scheme.build(detector.clone(), pipeline.clone());
        evaluate_on_clip(p.as_mut(), clip, eval)
    });
    let mut per_video = Vec::with_capacity(clips.len());
    let mut energy = EnergyBreakdown::default();
    let mut mult_sum = 0.0;
    for (clip, ev) in clips.iter().zip(&evaluations) {
        per_video.push(ev.accuracy);
        energy = EnergyBreakdown {
            gpu_wh: energy.gpu_wh + ev.trace.energy.gpu_wh,
            cpu_wh: energy.cpu_wh + ev.trace.energy.cpu_wh,
            soc_wh: energy.soc_wh + ev.trace.energy.soc_wh,
            ddr_wh: energy.ddr_wh + ev.trace.energy.ddr_wh,
        };
        mult_sum += ev.trace.latency_multiplier(clip);
    }
    SchemeResult {
        label: scheme.label(),
        accuracy: dataset_accuracy(&per_video),
        per_video_accuracy: per_video,
        energy,
        latency_multiplier: mult_sum / clips.len().max(1) as f64,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_core::adaptation::AdaptationModel;
    use adavp_detector::ModelSetting;
    use adavp_video::scenario::Scenario;

    fn clips() -> Vec<VideoClip> {
        let mut spec = Scenario::Highway.spec();
        spec.width = 200;
        spec.height = 120;
        spec.size_range = (18.0, 30.0);
        vec![VideoClip::generate("a", &spec, 1, 45)]
    }

    #[test]
    fn all_schemes_build_and_run() {
        let clips = clips();
        for scheme in [
            Scheme::AdaVp(AdaptationModel::default_model()),
            Scheme::Mpdt(ModelSetting::Yolo320),
            Scheme::Marlin(ModelSetting::Yolo512),
            Scheme::WithoutTracking(ModelSetting::Yolo608),
            Scheme::Continuous(ModelSetting::Tiny320),
            Scheme::Cascade(ModelSetting::Yolo512),
            Scheme::Ctd(ModelSetting::Yolo512),
        ] {
            let r = run_scheme(
                &scheme,
                &clips,
                &DetectorConfig::default(),
                &PipelineConfig::default(),
                &EvalConfig::default(),
                &Executor::sequential(),
            );
            assert_eq!(r.per_video_accuracy.len(), 1);
            assert!(
                (0.0..=1.0).contains(&r.accuracy),
                "{}: {}",
                r.label,
                r.accuracy
            );
            assert!(r.energy.total_wh() > 0.0);
        }
    }

    #[test]
    fn parallel_run_scheme_is_bit_identical() {
        let mut spec = Scenario::Intersection.spec();
        spec.width = 200;
        spec.height = 120;
        spec.size_range = (18.0, 30.0);
        let clips: Vec<VideoClip> = (0..5)
            .map(|i| VideoClip::generate(&format!("c{i}"), &spec, 10 + i, 45))
            .collect();
        let det = DetectorConfig::default();
        let pipe = PipelineConfig::default();
        let eval = EvalConfig::default();
        let scheme = Scheme::Mpdt(ModelSetting::Yolo512);
        let seq = run_scheme(&scheme, &clips, &det, &pipe, &eval, &Executor::sequential());
        for jobs in [2, 5, 8] {
            let par = run_scheme(&scheme, &clips, &det, &pipe, &eval, &Executor::new(jobs));
            assert_eq!(par.per_video_accuracy, seq.per_video_accuracy);
            assert_eq!(par.accuracy, seq.accuracy, "jobs={jobs}");
            assert_eq!(par.energy, seq.energy, "jobs={jobs}");
            assert_eq!(par.latency_multiplier, seq.latency_multiplier);
        }
    }

    #[test]
    fn scheme_distributions_cover_all_cycles() {
        let clips = clips();
        let r = run_scheme(
            &Scheme::Mpdt(ModelSetting::Yolo512),
            &clips,
            &DetectorConfig::default(),
            &PipelineConfig::default(),
            &EvalConfig::default(),
            &Executor::sequential(),
        );
        let d = r.distributions();
        let cycles: usize = r.evaluations.iter().map(|e| e.trace.cycles.len()).sum();
        assert_eq!(d.cycle_ms.count(), cycles as u64);
        let p = d.cycle_ms.percentiles().expect("cycles recorded");
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99);
    }
}
