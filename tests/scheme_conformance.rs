//! Conformance suite for the two confidence-driven detection schemes
//! (DESIGN.md §16): the cascaded proposal/refinement pipeline and the
//! confidence-triggered detection (CTD) pipeline.
//!
//! The pins here are the scheme *semantics*, through the public API only:
//! the cascade's gate opens iff a proposal demands the full detector, CTD
//! re-detects on the exact step its decayed confidence crosses the
//! threshold, and both schemes are pure functions of their configuration
//! down to the serialized trace bytes. The golden pins at the end cover
//! every clip scheme, and every scheme's empty- and one-frame-clip rule.

use adavp::core::adaptation::AdaptationModel;
use adavp::core::export::trace_to_json;
use adavp::core::metrics::{json_snapshot, MetricsConfig};
use adavp::core::pipeline::{
    CascadeConfig, CascadePipeline, CtdConfig, CtdPipeline, DetectorFault, FrameSource,
    PipelineConfig, ProcessingTrace, Scheme, VideoProcessor,
};
use adavp::core::telemetry::chrome::chrome_trace_json;
use adavp::core::telemetry::TelemetryConfig;
use adavp::detector::{DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::sim::fault::{FaultPlan, FaultProfile};
use adavp::video::clip::VideoClip;
use adavp::video::scenario::Scenario;
use adavp_rng::{fnv1a, FNV1A_OFFSET};

fn clip(scenario: Scenario, seed: u64, frames: u32) -> VideoClip {
    let mut spec = scenario.spec();
    spec.width = 240;
    spec.height = 140;
    spec.size_range = (20.0, 36.0);
    VideoClip::generate("scheme-conformance", &spec, seed, frames)
}

fn det() -> SimulatedDetector {
    SimulatedDetector::new(DetectorConfig::default())
}

fn cascade(cfg: CascadeConfig) -> CascadePipeline<SimulatedDetector> {
    CascadePipeline::new(det(), ModelSetting::Yolo512, PipelineConfig::default(), cfg)
}

fn assert_covered(trace: &ProcessingTrace, frames: usize) {
    assert_eq!(trace.outputs.len(), frames);
    for (i, o) in trace.outputs.iter().enumerate() {
        assert_eq!(o.frame_index as usize, i, "outputs must be index-aligned");
        assert_eq!(
            o.boxes.len(),
            o.confidences.len(),
            "confidences must align with boxes"
        );
    }
}

// ---- Cascade gating --------------------------------------------------------

/// With the gate threshold above 1.0 every proposal is under-confident, so
/// the iff becomes externally observable: a cycle refines (records the full
/// setting) exactly when the proposal pass found anything at all — a
/// Tiny320 cycle means the proposal list, and therefore the published
/// output, was empty.
#[test]
fn cascade_always_under_confident_refines_iff_proposals_exist() {
    let c = clip(Scenario::Highway, 41, 90);
    let cfg = CascadeConfig {
        confidence_threshold: 1.1,
        ..CascadeConfig::default()
    };
    let trace = cascade(cfg).process(&c);
    assert_covered(&trace, 90);
    assert!(
        trace
            .cycles
            .iter()
            .any(|cy| cy.setting == ModelSetting::Yolo512),
        "highway proposals must open the gate somewhere"
    );
    for cy in &trace.cycles {
        let out = &trace.outputs[cy.detected_frame as usize];
        match cy.setting {
            // Gate closed ⇔ nothing proposed ⇔ nothing published.
            ModelSetting::Tiny320 => assert!(
                out.boxes.is_empty(),
                "cycle {}: tiny cycle with published boxes under a >1.0 gate",
                cy.index
            ),
            ModelSetting::Yolo512 => {}
            other => panic!("cycle {}: unexpected setting {other}", cy.index),
        }
        if !out.boxes.is_empty() {
            assert_eq!(
                cy.setting,
                ModelSetting::Yolo512,
                "cycle {}: published boxes demand a refinement under a >1.0 gate",
                cy.index
            );
        }
    }
}

/// With the confidence gate disabled (threshold 0.0) and the novelty bar at
/// IoU >= 0.0 — which any box pair satisfies — only an *empty* published
/// set can make a proposal novel. So refinements beyond the bootstrap cycle
/// happen exactly when the previous cycle published nothing.
#[test]
fn cascade_confident_proposals_keep_the_gate_closed() {
    let c = clip(Scenario::Highway, 41, 90);
    let cfg = CascadeConfig {
        confidence_threshold: 0.0,
        novel_iou: 0.0,
        ..CascadeConfig::default()
    };
    let trace = cascade(cfg).process(&c);
    assert_covered(&trace, 90);
    for w in trace.cycles.windows(2) {
        let prev_out = &trace.outputs[w[0].detected_frame as usize];
        if w[1].setting == ModelSetting::Yolo512 {
            assert!(
                prev_out.boxes.is_empty(),
                "cycle {}: refined although cycle {} published {} boxes",
                w[1].index,
                w[0].index,
                prev_out.boxes.len()
            );
        } else if prev_out.boxes.is_empty() {
            // Gate stayed closed with nothing published: the proposal pass
            // itself must have been empty, so nothing is published now.
            assert!(
                trace.outputs[w[1].detected_frame as usize].boxes.is_empty(),
                "cycle {}: unrefined novel proposals",
                w[1].index
            );
        }
    }
}

/// Gate-closed cycles cost one tiny pass; refinements never cost more than
/// a tiny pass plus a full-frame detection. Region restriction can only
/// shrink the second term.
#[test]
fn cascade_cycle_costs_are_bounded_by_their_passes() {
    let c = clip(Scenario::Highway, 41, 120);
    let trace = cascade(CascadeConfig::default()).process(&c);
    let tiny = ModelSetting::Tiny320.base_latency_ms();
    let full = ModelSetting::Yolo512.base_latency_ms();
    for cy in &trace.cycles {
        let ms = cy.end_ms - cy.start_ms;
        match cy.setting {
            ModelSetting::Tiny320 => assert!(
                ms < 0.5 * full,
                "cycle {}: gate-closed cycle took {ms:.1} ms",
                cy.index
            ),
            _ => assert!(
                ms < 1.5 * (tiny + full),
                "cycle {}: refinement took {ms:.1} ms, more than both passes",
                cy.index
            ),
        }
    }
}

// ---- CTD trigger timing ----------------------------------------------------

/// With both decay penalties zeroed the trigger time is closed-form: a
/// cycle calibrated to mean confidence c₀ tracks exactly the smallest
/// k ≥ 1 with c₀·dᵏ < θ steps before re-detecting (the tracking loop
/// always takes one step before consulting the trigger). Every non-final
/// cycle of a static scene must hit that k on the nose.
#[test]
fn ctd_triggers_on_the_exact_predicted_step() {
    let ctd_cfg = CtdConfig {
        base_decay: 0.9,
        velocity_penalty: 0.0,
        loss_penalty: 0.0,
        threshold: 0.2,
        max_cycle_frames: 10_000,
    };
    let c = clip(Scenario::MeetingRoom, 11, 160);
    let mut p = CtdPipeline::new(
        det(),
        ModelSetting::Yolo512,
        PipelineConfig::default(),
        ctd_cfg,
    );
    let trace = p.process(&c);
    assert_covered(&trace, 160);
    assert!(trace.cycles.len() >= 2, "need at least one full cycle");
    for cy in &trace.cycles[..trace.cycles.len() - 1] {
        let out = &trace.outputs[cy.detected_frame as usize];
        assert_eq!(out.source, FrameSource::Detected);
        let c0 = if out.confidences.is_empty() {
            1.0
        } else {
            out.confidences.iter().map(|&x| x as f64).sum::<f64>() / out.confidences.len() as f64
        };
        let mut k = 0u32;
        let mut v = c0;
        while v >= 0.2 {
            v *= 0.9;
            k += 1;
            assert!(k < 1000, "closed form never crossed the threshold");
        }
        assert_eq!(
            cy.tracked,
            k.max(1),
            "cycle {}: calibrated at {c0:.4}, predicted {k} tracking steps",
            cy.index
        );
    }
}

/// While the confidence sits above the threshold the detector must stay
/// idle: a confident calibration buys a strictly positive tracking phase,
/// so consecutive detections are never back-to-back.
#[test]
fn ctd_never_redetects_while_confident() {
    let c = clip(Scenario::MeetingRoom, 11, 160);
    let mut p = CtdPipeline::new(
        det(),
        ModelSetting::Yolo512,
        PipelineConfig::default(),
        CtdConfig::default(),
    );
    let trace = p.process(&c);
    assert_covered(&trace, 160);
    for cy in &trace.cycles[..trace.cycles.len().saturating_sub(1)] {
        assert!(
            cy.tracked >= 1,
            "cycle {}: re-detected without a single tracking step",
            cy.index
        );
    }
    // The calibrated confidence of a 512 detection on a static scene sits
    // well above the default threshold, so cycles must be long: strictly
    // fewer detections than a quarter of the frames.
    assert!(
        trace.cycles.len() * 4 < 160,
        "{} cycles over 160 frames is not confidence-triggered behavior",
        trace.cycles.len()
    );
}

// ---- Byte reproducibility --------------------------------------------------

/// Both schemes are pure functions of (clip, config): fresh pipeline
/// instances over the same inputs serialize to identical bytes.
#[test]
fn both_schemes_are_byte_reproducible() {
    let c = clip(Scenario::Highway, 41, 90);
    let run_cascade = || {
        let trace = cascade(CascadeConfig::default()).process(&c);
        (trace_to_json(&trace, None), trace)
    };
    let run_ctd = || {
        let mut p = CtdPipeline::new(
            det(),
            ModelSetting::Yolo512,
            PipelineConfig::default(),
            CtdConfig::default(),
        );
        let trace = p.process(&c);
        (trace_to_json(&trace, None), trace)
    };
    let (ja, ta) = run_cascade();
    let (jb, tb) = run_cascade();
    assert_eq!(ta, tb, "cascade traces must be identical");
    assert_eq!(ja, jb, "cascade bytes must be identical");
    let (ja, ta) = run_ctd();
    let (jb, tb) = run_ctd();
    assert_eq!(ta, tb, "CTD traces must be identical");
    assert_eq!(ja, jb, "CTD bytes must be identical");
}

// ---- Golden pins -----------------------------------------------------------

/// Digests of the three serialized outputs of one run: the trace JSON, the
/// Chrome trace of its telemetry, and its metrics snapshot.
fn golden_digests(trace: &ProcessingTrace) -> [u64; 3] {
    [
        fnv1a(FNV1A_OFFSET, trace_to_json(trace, None).as_bytes()),
        fnv1a(
            FNV1A_OFFSET,
            chrome_trace_json(&[(trace.pipeline.as_str(), &trace.telemetry)]).as_bytes(),
        ),
        fnv1a(FNV1A_OFFSET, json_snapshot(&trace.metrics).as_bytes()),
    ]
}

/// Schemes with an optical-flow tracker; only these can diverge.
const TRACKING_SCHEMES: [&str; 4] = ["MARLIN", "CTD", "MPDT", "AdaVP"];

/// Every clip scheme, in golden-table order, at the setting its golden
/// digests pin. AdaVP runs aggressive thresholds so that it switches
/// settings.
fn schemes() -> [(&'static str, Scheme); 7] {
    let s = ModelSetting::Yolo512;
    [
        ("MARLIN", Scheme::Marlin(s)),
        ("CTD", Scheme::Ctd(s)),
        ("MPDT", Scheme::Mpdt(s)),
        (
            "AdaVP",
            Scheme::AdaVp(AdaptationModel::uniform([0.5, 1.0, 2.0])),
        ),
        ("WithoutTracking", Scheme::WithoutTracking(s)),
        ("Continuous", Scheme::Continuous(ModelSetting::Yolo320)),
        ("Cascade", Scheme::Cascade(s)),
    ]
}

/// The two fault plans every scheme is pinned under.
fn plans() -> [(&'static str, FaultPlan); 2] {
    [
        ("quiet", FaultPlan::none()),
        ("stress", FaultPlan::new(FaultProfile::stress(31))),
    ]
}

/// Every clip scheme (MARLIN-512, CTD-512, MPDT-512, AdaVP,
/// WithoutTracking-512, Continuous-320 and Cascade-512) is pinned to the
/// byte on a highway and a meeting-room clip, quiet and under the stress
/// fault profile, with telemetry and metrics recording on. A refactor of
/// any clip loop must leave every digest unchanged.
#[test]
fn sequential_schemes_match_their_golden_digests() {
    let golden: [(&str, [u64; 3]); 28] = [
        (
            "MARLIN/highway/quiet",
            [0x67d781aab8150eb6, 0x2a8f651e0e1f910d, 0xbfc4b1db62c58f65],
        ),
        (
            "MARLIN/highway/stress",
            [0xf3747496745aca5c, 0xf97d6c61017170b7, 0xf1f077f1048a820d],
        ),
        (
            "MARLIN/meeting/quiet",
            [0xbaf20e30ea4c470d, 0x3569a2b32ceea54d, 0xb71d292bff77afe3],
        ),
        (
            "MARLIN/meeting/stress",
            [0x4aacc8ada567e07c, 0x2fc0ff612bb5760a, 0x7c174c0036140932],
        ),
        (
            "CTD/highway/quiet",
            [0x2e78a840e55d345a, 0xb6bfeec599387480, 0xc10dba5ad58161cf],
        ),
        (
            "CTD/highway/stress",
            [0x36ff0c16d03ece79, 0x2c7438f5f7e64c45, 0x2ff52b7be73536c1],
        ),
        (
            "CTD/meeting/quiet",
            [0x5e3e9342f184aa44, 0x381ba92c125ba683, 0x5901961b818eb1fa],
        ),
        (
            "CTD/meeting/stress",
            [0x7cc39b1fd56a7321, 0x50d2a1d2cf7f0a5a, 0xcba1d016265dfe1c],
        ),
        (
            "MPDT/highway/quiet",
            [0xdb9f8e158fafe700, 0x2b4329c0de741437, 0x8dfe0780c265bcb7],
        ),
        (
            "MPDT/highway/stress",
            [0x6932ffe9e71c59d1, 0x5afad7a3ee43be79, 0xeaf5c54949a4474b],
        ),
        (
            "MPDT/meeting/quiet",
            [0xdb206f243e5cff6b, 0x748cf97ff530b902, 0x5054e0e2fa507fdb],
        ),
        (
            "MPDT/meeting/stress",
            [0x7798610ff522c5e9, 0x66a535268602b1f8, 0x6f271247ce69378a],
        ),
        (
            "AdaVP/highway/quiet",
            [0x13eeaa1bd05cae80, 0xbd38ddaa9b58ef63, 0x93ed1c43a9fcf093],
        ),
        (
            "AdaVP/highway/stress",
            [0xc01a40d6c6375ade, 0x9e16e659932e4b89, 0x5ce836c7f613cb5a],
        ),
        (
            "AdaVP/meeting/quiet",
            [0x5d6798cd066c4d37, 0xfafc2cb47d76cf52, 0xb7d5b227356a3c76],
        ),
        (
            "AdaVP/meeting/stress",
            [0x33b747380f0b7858, 0xc10d9534c026bded, 0xc7f2cfa499d12090],
        ),
        (
            "WithoutTracking/highway/quiet",
            [0x5f00d3fe04708b38, 0x73e8c6c447942bf7, 0x4e5c827938bbc267],
        ),
        (
            "WithoutTracking/highway/stress",
            [0x764b871aedceca80, 0x1bad04a5dcd59187, 0x79ef61f6273dbdc3],
        ),
        (
            "WithoutTracking/meeting/quiet",
            [0x2c2c2e84f890fc7d, 0xae74715c722f0043, 0x365c37c6eb16250c],
        ),
        (
            "WithoutTracking/meeting/stress",
            [0xff0949c744c3886b, 0x9bd01376d08f9361, 0xbef29325a4a539bb],
        ),
        (
            "Continuous/highway/quiet",
            [0xa745ccab0e4fa031, 0xcece5d3e7e54505f, 0x92af60935e584a1a],
        ),
        (
            "Continuous/highway/stress",
            [0x6b968bf8905906dd, 0x3dfb2f2624e26a12, 0x27b506227f5f6d9a],
        ),
        (
            "Continuous/meeting/quiet",
            [0x36a2d98140987747, 0xd0e117d22b0293a2, 0xab05742e45b2759f],
        ),
        (
            "Continuous/meeting/stress",
            [0x04399157f93f3cef, 0x4e578d10a4e8241a, 0x39a63506b91d0bf4],
        ),
        (
            "Cascade/highway/quiet",
            [0xcdce7544626a6a85, 0x6ad7bdd8521c9aef, 0x7dd059b838ff4c87],
        ),
        (
            "Cascade/highway/stress",
            [0x4394033299490333, 0x4610ef9971ba1eda, 0xa1f8b63d4dac66a5],
        ),
        (
            "Cascade/meeting/quiet",
            [0x23306b11b11afa6d, 0x4fb45279ff74b8ee, 0x9dee2837dbf5569b],
        ),
        (
            "Cascade/meeting/stress",
            [0xb8e5d9c4d112031a, 0xeaa853e76fbf7a7e, 0xa933a24ed6fb37f9],
        ),
    ];
    let clips = [
        ("highway", clip(Scenario::Highway, 23, 120)),
        ("meeting", clip(Scenario::MeetingRoom, 23, 120)),
    ];
    let mut got = Vec::new();
    for (name, scheme) in schemes() {
        let mut stressed = Vec::new();
        for (clip_name, c) in &clips {
            for (plan_name, plan) in plans() {
                let config = PipelineConfig {
                    faults: plan,
                    telemetry: TelemetryConfig::enabled(),
                    metrics: MetricsConfig::enabled(),
                    ..PipelineConfig::default()
                };
                let trace = scheme.build(DetectorConfig::default(), config).process(c);
                assert_covered(&trace, c.len());
                got.push((
                    format!("{name}/{clip_name}/{plan_name}"),
                    golden_digests(&trace),
                ));
                if plan_name == "stress" {
                    stressed.push(trace);
                }
            }
        }
        // The stress runs must exercise every fault kind the loop handles.
        let cycles = || stressed.iter().flat_map(|t| &t.cycles);
        assert!(
            cycles().any(|cy| matches!(
                cy.fault,
                Some(DetectorFault::Spike { .. } | DetectorFault::Timeout { .. })
            )),
            "{name}: no latency spike"
        );
        assert!(
            cycles().any(|cy| matches!(
                cy.fault,
                Some(DetectorFault::Retried { .. } | DetectorFault::Failed { .. })
            )),
            "{name}: no detector failure"
        );
        if TRACKING_SCHEMES.contains(&name) {
            assert!(cycles().any(|cy| cy.diverged), "{name}: no divergence");
        }
        assert!(
            stressed
                .iter()
                .flat_map(|t| &t.outputs)
                .any(|o| o.source == FrameSource::Dropped),
            "{name}: no dropped frame"
        );
    }
    let want: Vec<(String, [u64; 3])> = golden.iter().map(|(k, d)| (k.to_string(), *d)).collect();
    assert_eq!(got, want, "digests changed; got {got:#x?}");
}

/// Every scheme owns the same empty-clip rule: under either fault plan a
/// 0-frame clip yields no outputs, no cycles and no energy, and a 1-frame
/// clip yields exactly one output and one detection cycle.
#[test]
fn every_scheme_handles_empty_and_one_frame_clips() {
    for (name, scheme) in schemes() {
        for (plan_name, plan) in plans() {
            let config = PipelineConfig {
                faults: plan,
                ..PipelineConfig::default()
            };
            let empty = scheme
                .build(DetectorConfig::default(), config.clone())
                .process(&clip(Scenario::Highway, 13, 0));
            assert!(empty.outputs.is_empty(), "{name}/{plan_name}: outputs");
            assert!(empty.cycles.is_empty(), "{name}/{plan_name}: cycles");
            assert_eq!(empty.energy.total_wh(), 0.0, "{name}/{plan_name}: energy");
            let one = scheme
                .build(DetectorConfig::default(), config)
                .process(&clip(Scenario::Highway, 14, 1));
            assert_covered(&one, 1);
            assert_eq!(one.cycles.len(), 1, "{name}/{plan_name}: cycles");
        }
    }
}
