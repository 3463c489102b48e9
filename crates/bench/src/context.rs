//! Shared experiment context: datasets, evaluation config, the trained
//! adaptation model, and every scheme's run over the test set (each
//! computed once, reused by every figure, table and ablation).
//!
//! The context also owns the harness [`Executor`]: every fan-out point of
//! the offline pipeline (clip rendering, threshold training, per-clip
//! scheme evaluation) draws its concurrency from `ctx.exec`, and every one
//! of them is bit-identical across jobs settings, so `--jobs` changes
//! wall-clock only, never results. Phase wall-clock (render / train / eval)
//! is accumulated in [`PhaseTimings`] for the `experiments` binary to
//! report.

use crate::runner::{run_scheme, SchemeResult};
use adavp_core::adaptation::{train_adaptation_model_with, AdaptationModel, TrainerConfig};
use adavp_core::eval::EvalConfig;
use adavp_core::pipeline::{PipelineConfig, Scheme};
use adavp_detector::DetectorConfig;
use adavp_video::clip::VideoClip;
use adavp_video::dataset::{render_all, testing_set, training_set, DatasetScale};
use adavp_vision::exec::Executor;
use std::sync::Arc;
use std::time::Instant;

/// Cumulative wall-clock spent in each phase of an experiment run, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Clip rasterization (test + training sets).
    pub render_s: f64,
    /// Adaptation-threshold training (the 4-settings × training-videos MPDT
    /// sweep).
    pub train_s: f64,
    /// Scheme evaluation (everything the experiments charge on top of the
    /// two phases above).
    pub eval_s: f64,
}

/// Everything an experiment needs. Construct once per run; clips, the
/// trained model and scheme runs are computed lazily and cached.
///
/// The scoring, detector and pipeline configurations are fixed at
/// construction (paper defaults), so a memoized run can never go stale.
pub struct ExperimentContext {
    /// Dataset scale (frames per video).
    pub scale: DatasetScale,
    /// Work-queue executor every fan-out point of this context draws from.
    pub exec: Executor,
    eval: EvalConfig,
    detector: DetectorConfig,
    pipeline: PipelineConfig,
    test_clips: Option<Vec<VideoClip>>,
    train_clips: Option<Vec<VideoClip>>,
    model: Option<AdaptationModel>,
    runs: Vec<(Scheme, Arc<SchemeResult>)>,
    timings: PhaseTimings,
}

impl ExperimentContext {
    /// Creates a context at the given dataset scale with paper-default
    /// evaluation settings and a sequential executor.
    pub fn new(scale: DatasetScale) -> Self {
        Self::with_executor(scale, Executor::sequential())
    }

    /// Creates a context whose fan-out points run up to `jobs` work items
    /// concurrently. Results are identical to [`ExperimentContext::new`]
    /// for every `jobs` value.
    pub fn with_jobs(scale: DatasetScale, jobs: usize) -> Self {
        Self::with_executor(scale, Executor::new(jobs))
    }

    /// Creates a context with an explicit executor.
    pub fn with_executor(scale: DatasetScale, exec: Executor) -> Self {
        Self {
            scale,
            eval: EvalConfig::default(),
            detector: DetectorConfig::default(),
            pipeline: PipelineConfig::default(),
            exec,
            test_clips: None,
            train_clips: None,
            model: None,
            runs: Vec::new(),
            timings: PhaseTimings::default(),
        }
    }

    /// Scoring configuration (paper defaults).
    pub fn eval(&self) -> EvalConfig {
        self.eval
    }

    /// Detector error-model configuration shared by all schemes.
    pub fn detector(&self) -> &DetectorConfig {
        &self.detector
    }

    /// Pipeline configuration shared by all schemes.
    pub fn pipeline(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// The 13-video testing set (rendered on first use, one clip per
    /// executor job).
    pub fn test_clips(&mut self) -> &[VideoClip] {
        if self.test_clips.is_none() {
            let t0 = Instant::now();
            self.test_clips = Some(render_all(&testing_set(self.scale), &self.exec));
            self.timings.render_s += t0.elapsed().as_secs_f64();
        }
        self.test_clips.as_deref().expect("just generated")
    }

    /// The 32-video training set (rendered on first use, one clip per
    /// executor job).
    pub fn train_clips(&mut self) -> &[VideoClip] {
        if self.train_clips.is_none() {
            let t0 = Instant::now();
            self.train_clips = Some(render_all(&training_set(self.scale), &self.exec));
            self.timings.render_s += t0.elapsed().as_secs_f64();
        }
        self.train_clips.as_deref().expect("just generated")
    }

    /// The adaptation model trained on the training set (trained on first
    /// use; this is the expensive step — 4 MPDT runs per training video,
    /// fanned across the executor).
    ///
    /// Returns a reference; the model is four `f64` triples, so callers
    /// that need ownership (e.g. `Scheme::AdaVp`) clone it explicitly.
    pub fn adaptation_model(&mut self) -> &AdaptationModel {
        if self.model.is_none() {
            let cfg = TrainerConfig {
                eval: self.eval,
                detector: self.detector.clone(),
                pipeline: self.pipeline.clone(),
            };
            // Borrow dance: render training clips first.
            self.train_clips();
            let clips = self.train_clips.as_deref().expect("just generated");
            let t0 = Instant::now();
            self.model = Some(train_adaptation_model_with(clips, &cfg, &self.exec));
            self.timings.train_s += t0.elapsed().as_secs_f64();
            // The training corpus is large at full scale; free it once the
            // model exists (regenerated on demand if needed again).
            self.train_clips = None;
        }
        self.model.as_ref().expect("just trained")
    }

    /// `scheme` evaluated over the test set under this context's
    /// configuration. Each scheme value runs at most once per context (AdaVP
    /// under another model is another value); later calls return the same
    /// shared result.
    pub fn run(&mut self, scheme: &Scheme) -> Arc<SchemeResult> {
        if let Some((_, r)) = self.runs.iter().find(|(s, _)| s == scheme) {
            return Arc::clone(r);
        }
        let pipeline = self.pipeline.clone();
        let r = Arc::new(self.run_with(scheme, &pipeline));
        self.runs.push((scheme.clone(), Arc::clone(&r)));
        r
    }

    /// `scheme` evaluated over the test set under another pipeline
    /// configuration (config ablations, fault scenarios). Not memoized.
    pub fn run_with(&mut self, scheme: &Scheme, pipeline: &PipelineConfig) -> SchemeResult {
        self.test_clips();
        let clips = self.test_clips.as_deref().unwrap_or_default();
        run_scheme(
            scheme,
            clips,
            &self.detector,
            pipeline,
            &self.eval,
            &self.exec,
        )
    }

    /// Keeps only the first `n` test videos — used by timing benches to
    /// bound per-iteration cost. Renders the full testing set first (if not
    /// already cached), then truncates it; a no-op when `n` is at least the
    /// current clip count. Memoized runs are dropped.
    pub fn limit_test_clips(&mut self, n: usize) {
        self.test_clips();
        if let Some(clips) = &mut self.test_clips {
            clips.truncate(n);
        }
        self.runs.clear();
    }

    /// Overrides the adaptation model (e.g. to skip training in smoke runs).
    pub fn set_adaptation_model(&mut self, model: AdaptationModel) {
        self.model = Some(model);
    }

    /// Cumulative per-phase wall-clock so far.
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Adds `secs` of scheme-evaluation wall-clock to the phase report
    /// (called by the binaries, which know where experiment boundaries
    /// are).
    pub fn note_eval_secs(&mut self, secs: f64) {
        self.timings.eval_s += secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clips_cached() {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        let a = ctx.test_clips().len();
        let b = ctx.test_clips().len();
        assert_eq!(a, 13);
        assert_eq!(a, b);
        assert_eq!(ctx.train_clips().len(), 32);
        assert!(ctx.timings().render_s > 0.0, "render phase must be timed");
    }

    #[test]
    fn model_override_respected() {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        let m = AdaptationModel::uniform([1.0, 2.0, 3.0]);
        ctx.set_adaptation_model(m.clone());
        assert_eq!(*ctx.adaptation_model(), m);
    }

    #[test]
    fn limit_test_clips_renders_then_truncates() {
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        ctx.limit_test_clips(3);
        assert_eq!(ctx.test_clips().len(), 3, "unrendered set is cut to n");
        // Limiting above the current count is a no-op (it never re-renders
        // or pads back up).
        ctx.limit_test_clips(10);
        assert_eq!(ctx.test_clips().len(), 3);
        ctx.limit_test_clips(1);
        assert_eq!(ctx.test_clips().len(), 1);
    }

    #[test]
    fn runs_are_memoized_per_scheme_value() {
        use adavp_detector::ModelSetting;
        let mut ctx = ExperimentContext::new(DatasetScale::Smoke);
        ctx.limit_test_clips(1);
        let mpdt = Scheme::Mpdt(ModelSetting::Yolo512);
        let a = ctx.run(&mpdt);
        assert!(Arc::ptr_eq(&a, &ctx.run(&mpdt)), "second run is the memo");
        assert_eq!(a.per_video_accuracy.len(), 1);

        // AdaVP under a second model is a separate run.
        let default = ctx.run(&Scheme::AdaVp(AdaptationModel::default_model()));
        let other = ctx.run(&Scheme::AdaVp(AdaptationModel::uniform([0.5, 1.0, 2.0])));
        assert!(!Arc::ptr_eq(&default, &other));
        let again = ctx.run(&Scheme::AdaVp(AdaptationModel::default_model()));
        assert!(Arc::ptr_eq(&default, &again));

        // Limiting the test set clears the memo.
        ctx.limit_test_clips(1);
        let b = ctx.run(&mpdt);
        assert!(!Arc::ptr_eq(&a, &b), "limit_test_clips must clear the memo");
        assert_eq!(a.per_video_accuracy, b.per_video_accuracy);
    }

    #[test]
    fn parallel_context_renders_identical_clips() {
        let mut seq = ExperimentContext::new(DatasetScale::Smoke);
        let mut par = ExperimentContext::with_jobs(DatasetScale::Smoke, 4);
        seq.limit_test_clips(4);
        par.limit_test_clips(4);
        for (a, b) in seq.test_clips().iter().zip(par.test_clips()) {
            assert_eq!(a.name(), b.name());
            for (fa, fb) in a.iter().zip(b.iter()) {
                assert_eq!(fa.image, fb.image, "{}", a.name());
            }
        }
    }
}
