//! Conformance suite for the fault-injection layer: pins each pipeline's
//! graceful-degradation policy for the four fault kinds (detector timeout,
//! detector failure, dropped frames, tracker divergence) plus the
//! determinism contract that makes fault experiments reproducible.
//!
//! Every test runs whole pipelines over small synthetic clips; none uses
//! wall-clock time or randomness beyond the seeded simulators, so the suite
//! is stable under any scheduling.

use adavp::core::export::trace_to_json;
use adavp::core::pipeline::{
    CascadeConfig, CascadePipeline, CtdConfig, CtdPipeline, DetectorFault, FrameSource,
    MarlinConfig, MarlinPipeline, MpdtPipeline, PipelineConfig, ProcessingTrace, Scheme,
    SettingPolicy, VideoProcessor, DETECTOR_TIMEOUT_MS, MAX_DETECTOR_RETRIES,
};
use adavp::detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::sim::fault::{FaultPlan, FaultProfile};
use adavp::video::clip::VideoClip;
use adavp::video::scenario::Scenario;

fn clip(frames: u32) -> VideoClip {
    let mut spec = Scenario::Highway.spec();
    spec.width = 240;
    spec.height = 140;
    spec.size_range = (18.0, 32.0);
    VideoClip::generate("conformance", &spec, 11, frames)
}

fn det() -> SimulatedDetector {
    SimulatedDetector::new(DetectorConfig::default())
}

fn cfg(profile: FaultProfile) -> PipelineConfig {
    PipelineConfig {
        faults: FaultPlan::new(profile),
        ..PipelineConfig::default()
    }
}

fn spike_profile(prob: f64, mult: f64) -> FaultProfile {
    FaultProfile {
        seed: 5,
        latency_spike_prob: prob,
        latency_spike_mult: (mult, mult),
        ..FaultProfile::none()
    }
}

fn assert_covered(trace: &ProcessingTrace, frames: usize) {
    assert_eq!(trace.outputs.len(), frames);
    for (i, o) in trace.outputs.iter().enumerate() {
        assert_eq!(o.frame_index as usize, i, "outputs must be index-aligned");
    }
    let f = trace.source_fractions();
    assert!((f.sum() - 1.0).abs() < 1e-9, "fractions must partition");
}

// ---- Detector timeout ----------------------------------------------------

/// A permanent 8x latency spike pushes every setting over the default
/// 2000 ms budget: every cycle must time out, burn exactly the budget on
/// the GPU, publish inherited (non-Detected) results, and step the setting
/// down one notch for the following cycle.
#[test]
fn mpdt_timeout_holds_gpu_for_budget_only_and_steps_down() {
    let c = clip(80);
    let mut p = MpdtPipeline::new(
        det(),
        SettingPolicy::Fixed(ModelSetting::Yolo512),
        cfg(spike_profile(1.0, 8.0)),
    );
    let trace = p.process(&c);
    assert_covered(&trace, 80);
    assert!(!trace.cycles.is_empty());
    for cy in &trace.cycles {
        assert!(
            matches!(cy.fault, Some(DetectorFault::Timeout { multiplier }) if multiplier == 8.0),
            "cycle {} fault {:?}",
            cy.index,
            cy.fault
        );
    }
    assert_eq!(trace.degraded_cycle_count(), trace.cycles.len());
    // Each timed-out attempt occupies the GPU for the budget, no more.
    let budget = DETECTOR_TIMEOUT_MS;
    assert!(
        (trace.gpu_busy_ms - budget * trace.cycles.len() as f64).abs() < 1e-6,
        "gpu busy {} vs {} cycles x {budget} ms budget",
        trace.gpu_busy_ms,
        trace.cycles.len()
    );
    // No detection ever completed.
    assert!(trace
        .outputs
        .iter()
        .all(|o| o.source != FrameSource::Detected));
    // Step-down: every cycle after the first was scheduled one notch
    // lighter than the configured 512 (the Fixed policy re-asserts 512,
    // the degradation composes .lighter() on top).
    for cy in &trace.cycles[1..] {
        assert_eq!(cy.setting, ModelSetting::Yolo416, "cycle {}", cy.index);
    }
}

/// With intermittent spikes the step-down must be transient: a cycle
/// following a degraded one runs one notch lighter, a cycle following a
/// clean one is back at the configured setting.
#[test]
fn mpdt_step_down_is_transient() {
    let c = clip(120);
    let mut p = MpdtPipeline::new(
        det(),
        SettingPolicy::Fixed(ModelSetting::Yolo512),
        cfg(spike_profile(0.5, 5.0)),
    );
    let trace = p.process(&c);
    assert_covered(&trace, 120);
    let degraded = |f: &Option<DetectorFault>| {
        matches!(
            f,
            Some(DetectorFault::Timeout { .. }) | Some(DetectorFault::Failed { .. })
        )
    };
    let mut saw_step_down = false;
    let mut saw_recovery = false;
    for w in trace.cycles.windows(2) {
        let expected = if degraded(&w[0].fault) {
            saw_step_down = true;
            ModelSetting::Yolo416
        } else {
            saw_recovery = true;
            ModelSetting::Yolo512
        };
        assert_eq!(
            w[1].setting, expected,
            "cycle {} after fault {:?}",
            w[1].index, w[0].fault
        );
    }
    assert!(saw_step_down, "profile must degrade some cycle");
    assert!(saw_recovery, "profile must leave some cycle clean");
}

// ---- Detector failure / bounded retry ------------------------------------

/// A detector that fails every attempt exhausts the retry bound on every
/// cycle; the pipeline publishes inherited results and still terminates
/// (failed attempts consume virtual time, so progress is guaranteed).
#[test]
fn exhausted_retries_degrade_like_timeouts() {
    let profile = FaultProfile {
        seed: 3,
        detector_failure_prob: 1.0,
        ..FaultProfile::none()
    };
    let c = clip(60);
    let s = ModelSetting::Yolo512;
    for scheme in [
        Scheme::Mpdt(s),
        Scheme::Marlin(s),
        Scheme::WithoutTracking(s),
    ] {
        let label = scheme.label();
        let trace = scheme
            .build(DetectorConfig::default(), cfg(profile.clone()))
            .process(&c);
        assert_covered(&trace, 60);
        let max_attempts = MAX_DETECTOR_RETRIES + 1;
        for cy in &trace.cycles {
            assert!(
                matches!(cy.fault, Some(DetectorFault::Failed { attempts }) if attempts == max_attempts),
                "{label}: cycle {} fault {:?}",
                cy.index,
                cy.fault
            );
        }
        assert!(
            trace
                .outputs
                .iter()
                .all(|o| o.source != FrameSource::Detected),
            "{label}: no detection can succeed"
        );
    }
}

/// Intermittent failures are absorbed by retries: retried cycles still
/// produce Detected frames, and recorded attempt counts respect the bound.
#[test]
fn intermittent_failures_are_retried_within_bound() {
    let profile = FaultProfile {
        seed: 8,
        detector_failure_prob: 0.4,
        ..FaultProfile::none()
    };
    let c = clip(90);
    let mut p = MpdtPipeline::new(
        det(),
        SettingPolicy::Fixed(ModelSetting::Yolo512),
        cfg(profile),
    );
    let trace = p.process(&c);
    assert_covered(&trace, 90);
    let max_attempts = MAX_DETECTOR_RETRIES + 1;
    let mut retried = 0;
    for cy in &trace.cycles {
        match cy.fault {
            Some(DetectorFault::Retried { attempts }) => {
                assert!((2..=max_attempts).contains(&attempts));
                retried += 1;
            }
            Some(DetectorFault::Failed { attempts }) => assert_eq!(attempts, max_attempts),
            Some(DetectorFault::Timeout { .. }) | Some(DetectorFault::Spike { .. }) => {
                panic!("no spikes configured")
            }
            None => {}
        }
    }
    assert!(retried > 0, "0.4 failure rate must exercise the retry path");
    assert!(trace
        .outputs
        .iter()
        .any(|o| o.source == FrameSource::Detected));
}

// ---- Dropped frames ------------------------------------------------------

/// Dropped frames inherit the previous display verbatim and are flagged:
/// every Dropped output repeats its predecessor's boxes, and only frames
/// the plan actually dropped carry the flag.
#[test]
fn dropped_frames_inherit_with_flag() {
    let profile = FaultProfile {
        seed: 21,
        frame_drop_prob: 0.35,
        ..FaultProfile::none()
    };
    let c = clip(90);
    let plan = FaultPlan::new(profile.clone()).for_stream(c.name());
    for scheme in [
        Scheme::Mpdt(ModelSetting::Yolo512),
        Scheme::WithoutTracking(ModelSetting::Yolo512),
        Scheme::Continuous(ModelSetting::Yolo320),
    ] {
        let label = scheme.label();
        let trace = scheme
            .build(DetectorConfig::default(), cfg(profile.clone()))
            .process(&c);
        assert_covered(&trace, 90);
        let mut dropped = 0;
        for (i, o) in trace.outputs.iter().enumerate() {
            if o.source == FrameSource::Dropped {
                dropped += 1;
                assert!(i > 0, "{label}: frame 0 is never dropped");
                assert!(
                    plan.frame_dropped(i),
                    "{label}: frame {i} flagged but not dropped by the plan"
                );
                assert_eq!(
                    o.boxes,
                    trace.outputs[i - 1].boxes,
                    "{label}: dropped frame {i} must repeat its predecessor"
                );
            }
        }
        assert!(dropped > 0, "{label}: 0.35 drop rate must drop something");
    }
}

/// The detector never waits on a dropped frame: it re-targets the nearest
/// delivered one. The only sanctioned exception is the late-delivery
/// fallback, which fires when every remaining frame was dropped — so a
/// dropped detection target implies a fully-dropped tail.
#[test]
fn detection_targets_are_delivered_frames() {
    let profile = FaultProfile {
        seed: 33,
        frame_drop_prob: 0.3,
        ..FaultProfile::none()
    };
    let c = clip(90);
    let plan = FaultPlan::new(profile.clone()).for_stream(c.name());
    let mut p = MpdtPipeline::new(
        det(),
        SettingPolicy::Fixed(ModelSetting::Yolo512),
        cfg(profile),
    );
    let trace = p.process(&c);
    for cy in &trace.cycles {
        let f = cy.detected_frame as usize;
        if plan.frame_dropped(f) {
            assert!(
                (f..c.len()).all(|i| plan.frame_dropped(i)),
                "cycle {} detected dropped frame {} outside the fallback case",
                cy.index,
                cy.detected_frame
            );
        }
    }
}

/// A flaky detector cannot break the cascade's coverage: refinements fail
/// with exhausted retries, but every refining cycle falls back to
/// proposal-only output (the reliable tiny pass) with its degraded flag
/// set, and the next refinement steps one setting lighter.
#[test]
fn cascade_flaky_detector_falls_back_to_proposals() {
    let profile = FaultProfile {
        seed: 3,
        detector_failure_prob: 1.0,
        ..FaultProfile::none()
    };
    let c = clip(90);
    let mut p = CascadePipeline::new(
        det(),
        ModelSetting::Yolo512,
        cfg(profile),
        CascadeConfig::default(),
    );
    let trace = p.process(&c);
    assert_covered(&trace, 90);
    let max_attempts = MAX_DETECTOR_RETRIES + 1;
    let refined: Vec<_> = trace
        .cycles
        .iter()
        .filter(|cy| cy.setting != ModelSetting::Tiny320)
        .collect();
    assert!(!refined.is_empty(), "the gate must open somewhere");
    for cy in &refined {
        assert!(
            matches!(cy.fault, Some(DetectorFault::Failed { attempts }) if attempts == max_attempts),
            "cycle {}: refinement fault {:?}",
            cy.index,
            cy.fault
        );
    }
    assert_eq!(trace.degraded_cycle_count(), refined.len());
    // Proposal-only fallback: the degraded cycles still publish output
    // (and it comes from the tiny pass, whose confidences sit below the
    // default gate, so later refinements re-fire instead of trusting it).
    assert!(trace
        .outputs
        .iter()
        .any(|o| o.source == FrameSource::Detected && !o.boxes.is_empty()));
    // Step-down: a refinement directly after a degraded refinement runs one
    // notch lighter than the configured 512.
    assert!(
        refined.iter().any(|cy| cy.setting == ModelSetting::Yolo416),
        "persistent failures must step the refinement setting down"
    );
}

/// CTD re-detects immediately when its tracker diverges: injected
/// divergence shortens cycles relative to the same run without faults, even
/// though the confidence signal alone would never trigger.
#[test]
fn ctd_divergence_forces_immediate_redetection() {
    let profile = FaultProfile {
        seed: 29,
        tracker_divergence_prob: 1.0,
        ..FaultProfile::none()
    };
    // A confidence threshold of zero can never fire (the decayed value
    // stays non-negative), so divergence alone decides when to re-detect.
    let ctd = CtdConfig {
        threshold: 0.0,
        max_cycle_frames: 60,
        ..CtdConfig::default()
    };
    let c = clip(150);
    let run = |profile: FaultProfile| {
        CtdPipeline::new(det(), ModelSetting::Yolo320, cfg(profile), ctd.clone()).process(&c)
    };
    let diverged = run(profile);
    let quiet = run(FaultProfile::none());
    assert_covered(&diverged, 150);
    assert!(
        diverged.diverged_cycle_count() > 0,
        "forced divergence must be recorded"
    );
    assert_eq!(quiet.diverged_cycle_count(), 0);
    assert!(
        diverged.cycles.len() > quiet.cycles.len(),
        "divergence re-detection must shorten cycles: {} vs {}",
        diverged.cycles.len(),
        quiet.cycles.len()
    );
}

// ---- Tracker divergence --------------------------------------------------

/// A diverging tracker truncates MPDT's tracking phase: with forced
/// divergence the pipeline records diverged cycles and tracks strictly
/// fewer frames than the clean run.
#[test]
fn mpdt_divergence_truncates_tracking() {
    let profile = FaultProfile {
        seed: 13,
        tracker_divergence_prob: 1.0,
        ..FaultProfile::none()
    };
    let c = clip(120);
    let run = |config: PipelineConfig| {
        MpdtPipeline::new(det(), SettingPolicy::Fixed(ModelSetting::Yolo512), config).process(&c)
    };
    let clean = run(PipelineConfig::default());
    let faulted = run(cfg(profile));
    assert_covered(&faulted, 120);
    assert!(
        faulted.diverged_cycle_count() > 0,
        "forced divergence must be recorded"
    );
    let tracked = |t: &ProcessingTrace| t.cycles.iter().map(|cy| cy.tracked as u64).sum::<u64>();
    assert!(
        tracked(&faulted) < tracked(&clean),
        "divergence must cut tracking: {} vs clean {}",
        tracked(&faulted),
        tracked(&clean)
    );
}

/// MARLIN re-detects early when its tracker diverges: injected divergence
/// makes detection cycles come more often than in the same run without
/// faults.
#[test]
fn marlin_divergence_forces_early_redetection() {
    let profile = FaultProfile {
        seed: 29,
        tracker_divergence_prob: 1.0,
        ..FaultProfile::none()
    };
    // Long tracking windows so divergence, not the velocity trigger,
    // decides when to re-detect.
    let marlin = MarlinConfig {
        trigger_velocity: 1e9,
        max_cycle_frames: 60,
    };
    let c = clip(150);
    let run = |profile: FaultProfile| {
        MarlinPipeline::new(det(), ModelSetting::Yolo320, cfg(profile), marlin.clone()).process(&c)
    };
    let diverged = run(profile);
    let quiet = run(FaultProfile::none());
    assert_covered(&diverged, 150);
    assert!(
        diverged.diverged_cycle_count() > 0,
        "forced divergence must be recorded"
    );
    assert_eq!(quiet.diverged_cycle_count(), 0);
    assert!(
        diverged.cycles.len() > quiet.cycles.len(),
        "early re-detection must shorten cycles: {} vs {}",
        diverged.cycles.len(),
        quiet.cycles.len()
    );
}

// ---- Determinism & composition -------------------------------------------

/// The whole fault layer is replayable: identical configuration produces
/// identical traces — down to the serialized bytes — under the all-faults
/// stress profile, for every pipeline.
#[test]
fn stress_runs_are_byte_reproducible() {
    let c = clip(90);
    let s = ModelSetting::Yolo512;
    let mk = |scheme: &Scheme| -> (String, ProcessingTrace) {
        let config = cfg(FaultProfile::stress(77));
        let mut p = scheme.build(DetectorConfig::default(), config);
        let trace = p.process(&c);
        (trace_to_json(&trace, None), trace)
    };
    for scheme in [
        Scheme::Mpdt(s),
        Scheme::Marlin(s),
        Scheme::WithoutTracking(s),
        Scheme::Continuous(ModelSetting::Yolo320),
        Scheme::Cascade(s),
        Scheme::Ctd(s),
    ] {
        let label = scheme.label();
        let (json_a, trace_a) = mk(&scheme);
        let (json_b, trace_b) = mk(&scheme);
        assert_eq!(trace_a, trace_b, "{label}: traces must be identical");
        assert_eq!(json_a, json_b, "{label}: serialized bytes must match");
        assert_covered(&trace_a, 90);
        assert!(
            trace_a.fault_count() > 0,
            "{label}: stress must inject faults"
        );
    }
}

/// The quiet plan is bit-identical to the pre-fault behavior: a default
/// config and an explicit no-fault config produce equal traces.
#[test]
fn quiet_plan_is_the_happy_path() {
    let c = clip(90);
    let run = |config: PipelineConfig| {
        MpdtPipeline::new(det(), SettingPolicy::Fixed(ModelSetting::Yolo512), config).process(&c)
    };
    let default = run(PipelineConfig::default());
    let explicit = run(cfg(FaultProfile::none()));
    assert_eq!(default, explicit);
    assert_eq!(default.fault_count(), 0);
    assert_eq!(default.degraded_cycle_count(), 0);
    assert_eq!(default.diverged_cycle_count(), 0);
    assert_eq!(default.source_fractions().dropped, 0.0);
}
