//! Property-based tests on the core data structures and on
//! whole-pipeline invariants under randomized scenario parameters.

use adavp::core::latency::{region_scaled_ms, REGION_LATENCY_FLOOR};
use adavp::core::pipeline::{
    ConfidenceDecay, CtdConfig, MpdtPipeline, PipelineConfig, Scheme, SettingPolicy, VideoProcessor,
};
use adavp::core::tracker::FrameSelector;
use adavp::detector::{Detector, DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::metrics::f1::{evaluate_frame, LabeledBox};
use adavp::metrics::matching::{match_boxes, Matcher};
use adavp::sim::fault::{FaultPlan, FaultProfile};
use adavp::video::clip::VideoClip;
use adavp::video::object::ObjectClass;
use adavp::video::scenario::{CameraMotion, Scenario};
use adavp::vision::geometry::{BoundingBox, Point2, Vec2};
use adavp_rng::{check, Rng};
use std::ops::Range;

fn arb_box(rng: &mut Rng) -> BoundingBox {
    let l = rng.gen_range(0.0f32..300.0);
    let t = rng.gen_range(0.0f32..300.0);
    let w = rng.gen_range(1.0f32..120.0);
    let h = rng.gen_range(1.0f32..120.0);
    BoundingBox::new(l, t, w, h)
}

fn arb_labeled(rng: &mut Rng) -> (ObjectClass, BoundingBox) {
    let class = ObjectClass::ALL[rng.gen_range(0..ObjectClass::ALL.len())];
    (class, arb_box(rng))
}

/// A vector of `len` (drawn from the range) items.
fn arb_vec<T>(rng: &mut Rng, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

fn arb_fault_profile(rng: &mut Rng) -> FaultProfile {
    let seed = rng.gen_range(0u64..10_000);
    let spike_p = rng.gen_range(0.0f64..0.6);
    let mult_lo = rng.gen_range(1.0f64..3.0);
    let mult_extra = rng.gen_range(0.0f64..4.0);
    let fail_p = rng.gen_range(0.0f64..0.5);
    let drop_p = rng.gen_range(0.0f64..0.4);
    let div_p = rng.gen_range(0.0f64..0.6);
    let (period, busy) = if rng.gen::<bool>() {
        (
            rng.gen_range(100.0f64..800.0),
            rng.gen_range(20.0f64..200.0),
        )
    } else {
        (0.0, 0.0)
    };
    FaultProfile {
        seed,
        latency_spike_prob: spike_p,
        latency_spike_mult: (mult_lo, mult_lo + mult_extra),
        detector_failure_prob: fail_p,
        frame_drop_prob: drop_p,
        tracker_divergence_prob: div_p,
        contention_period_ms: period,
        contention_busy_ms: busy,
    }
}

// ---- Geometry -----------------------------------------------------

#[test]
fn iou_is_symmetric_and_bounded() {
    check(64, 1, |rng| {
        let a = arb_box(rng);
        let b = arb_box(rng);
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        assert!((ab - ba).abs() < 1e-5);
        assert!((0.0..=1.0 + 1e-6).contains(&ab));
    });
}

#[test]
fn iou_with_self_is_one() {
    check(64, 1, |rng| {
        let a = arb_box(rng);
        // f32 coordinate arithmetic: (left + width) - left can deviate from
        // width by ~1e-4 relative at coordinates around 300.
        assert!((a.iou(&a) - 1.0).abs() < 1e-3);
    });
}

#[test]
fn translation_preserves_area_and_iou_decreases() {
    check(64, 1, |rng| {
        let a = arb_box(rng);
        let dx = rng.gen_range(-50.0f32..50.0);
        let dy = rng.gen_range(-50.0f32..50.0);
        let t = a.translated(Vec2::new(dx, dy));
        assert!((t.area() - a.area()).abs() < 1e-3);
        // Moving a box away from itself can never increase IoU above 1.
        assert!(a.iou(&t) <= 1.0 + 1e-4);
        // Zero translation keeps IoU at 1 (up to f32 precision).
        let z = a.translated(Vec2::ZERO);
        assert!((a.iou(&z) - 1.0).abs() < 1e-3);
    });
}

#[test]
fn intersection_is_contained() {
    check(64, 1, |rng| {
        let a = arb_box(rng);
        let b = arb_box(rng);
        if let Some(i) = a.intersection(&b) {
            assert!(i.area() <= a.area() + 1e-3);
            assert!(i.area() <= b.area() + 1e-3);
            assert!(i.left >= a.left - 1e-4 && i.left >= b.left - 1e-4);
        }
    });
}

#[test]
fn clipping_never_grows() {
    check(64, 1, |rng| {
        let a = arb_box(rng);
        let w = rng.gen_range(10.0f32..400.0);
        let h = rng.gen_range(10.0f32..400.0);
        if let Some(c) = a.clipped(w, h) {
            assert!(c.area() <= a.area() + 1e-3);
            assert!(c.left >= 0.0 && c.top >= 0.0);
            assert!(c.right() <= w + 1e-4 && c.bottom() <= h + 1e-4);
        }
    });
}

#[test]
fn point_distance_triangle_inequality() {
    check(64, 1, |rng| {
        let ax = rng.gen_range(-100.0f32..100.0);
        let ay = rng.gen_range(-100.0f32..100.0);
        let bx = rng.gen_range(-100.0f32..100.0);
        let by = rng.gen_range(-100.0f32..100.0);
        let cx = rng.gen_range(-100.0f32..100.0);
        let cy = rng.gen_range(-100.0f32..100.0);
        let a = Point2::new(ax, ay);
        let b = Point2::new(bx, by);
        let c = Point2::new(cx, cy);
        assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-3);
    });
}

// ---- Matching & scoring -------------------------------------------

#[test]
fn matching_partitions_inputs() {
    check(64, 1, |rng| {
        let preds = arb_vec(rng, 0..8, arb_labeled);
        let gts = arb_vec(rng, 0..8, arb_labeled);
        for matcher in [Matcher::Greedy, Matcher::Hungarian] {
            let out = match_boxes(&preds, &gts, 0.3, matcher);
            assert_eq!(
                out.matches.len() + out.unmatched_predictions.len(),
                preds.len()
            );
            assert_eq!(
                out.matches.len() + out.unmatched_ground_truth.len(),
                gts.len()
            );
            // No index appears twice.
            let mut ps: Vec<usize> = out.matches.iter().map(|m| m.0).collect();
            ps.sort_unstable();
            ps.dedup();
            assert_eq!(ps.len(), out.matches.len());
            for (pi, gi, iou) in &out.matches {
                assert!(*iou >= 0.3);
                assert_eq!(preds[*pi].0, gts[*gi].0);
            }
        }
    });
}

#[test]
fn hungarian_total_iou_at_least_greedy() {
    check(64, 1, |rng| {
        let preds = arb_vec(rng, 0..7, |rng| (ObjectClass::Car, arb_box(rng)));
        let gts = arb_vec(rng, 0..7, |rng| (ObjectClass::Car, arb_box(rng)));
        // The Hungarian assignment maximizes total IoU over the one-to-one
        // matchings of eligible pairs, so at a (near-)zero threshold its
        // total dominates any greedy matching's total.
        let g = match_boxes(&preds, &gts, 0.1, Matcher::Greedy);
        let h = match_boxes(&preds, &gts, 1e-6, Matcher::Hungarian);
        let sum = |o: &adavp::metrics::matching::MatchOutcome| -> f32 {
            o.matches.iter().map(|m| m.2).sum()
        };
        assert!(sum(&h) >= sum(&g) - 1e-4);
    });
}

#[test]
fn f1_bounded_and_perfect_on_echo() {
    check(64, 1, |rng| {
        let gts = arb_vec(rng, 0..8, arb_labeled);
        let labeled: Vec<LabeledBox> = gts.iter().map(|(c, b)| LabeledBox::new(*c, *b)).collect();
        let s = evaluate_frame(&labeled, &labeled, 0.5, Matcher::Hungarian);
        assert_eq!(s.f1, 1.0);
        let empty = evaluate_frame(&[], &labeled, 0.5, Matcher::Hungarian);
        assert!(empty.f1 <= 1.0 && empty.f1 >= 0.0);
    });
}

// ---- Frame selector --------------------------------------------------

// ---- Region-restricted latency ------------------------------------

#[test]
fn region_latency_never_exceeds_full_frame() {
    check(64, 1, |rng| {
        let full = rng.gen_range(0.0f64..5000.0);
        let frac = rng.gen_range(-1.0f64..2.0);
        let r = region_scaled_ms(full, frac);
        assert!(r >= 0.0);
        assert!(r <= full + 1e-9, "region {r} > full {full}");
        // The floor: even a vanishing region pays the fixed backbone cost.
        assert!(r >= REGION_LATENCY_FLOOR * full - 1e-9);
        // Monotone in the fraction.
        let bigger = region_scaled_ms(full, frac.max(0.0) + 0.1);
        assert!(bigger + 1e-9 >= r);
    });
}

// ---- CTD confidence decay -----------------------------------------

#[test]
fn ctd_decay_is_monotone_for_any_step_sequence() {
    check(64, 1, |rng| {
        let calib = arb_vec(rng, 0..6, |rng| rng.gen_range(0.0f32..1.0));
        let steps = arb_vec(rng, 1..60, |rng| {
            let velocity = rng.gen::<bool>().then(|| rng.gen_range(-5.0f64..50.0));
            (
                velocity,
                rng.gen_range(0usize..200),
                rng.gen_range(0usize..200),
            )
        });
        let cfg = CtdConfig::default();
        let mut d = ConfidenceDecay::new();
        d.reset(&calib);
        let mut prev = d.value();
        assert!((0.0..=1.0).contains(&prev));
        for (velocity, tracked, lost) in steps {
            let v = d.step(&cfg, velocity, tracked, lost);
            assert!(v <= prev + 1e-12, "decay increased: {v} > {prev}");
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    });
}

#[test]
fn selector_plan_valid_for_any_fraction() {
    check(64, 1, |rng| {
        let p = rng.gen_range(0.01f64..1.5);
        let f = rng.gen_range(1usize..200);
        let s = FrameSelector::new(p);
        let plan = s.plan(f);
        assert!(!plan.is_empty());
        assert!(*plan.last().unwrap() == f - 1);
        for w in plan.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(plan.len() <= f);
    });
}

// Pipeline-level properties are expensive; fewer cases.
#[test]
fn pipeline_covers_all_frames_for_random_scenarios() {
    check(6, 1, |rng| {
        let scenario_idx = rng.gen_range(0usize..14);
        let seed = rng.gen_range(0u64..1000);
        let frames = rng.gen_range(40u32..90);
        let setting_idx = rng.gen_range(0usize..4);
        let mut spec = Scenario::ALL[scenario_idx].spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (18.0, 32.0);
        let clip = VideoClip::generate("prop", &spec, seed, frames);
        let mut p = MpdtPipeline::new(
            SimulatedDetector::new(DetectorConfig::default().with_seed(seed)),
            SettingPolicy::Fixed(ModelSetting::ADAPTIVE[setting_idx]),
            PipelineConfig::default(),
        );
        let trace = p.process(&clip);
        assert_eq!(trace.outputs.len(), frames as usize);
        // Frame outputs are index-aligned and cycles are time-ordered.
        for (i, o) in trace.outputs.iter().enumerate() {
            assert_eq!(o.frame_index as usize, i);
        }
        for w in trace.cycles.windows(2) {
            assert!(w[0].end_ms <= w[1].end_ms + 1e-9);
            assert!(w[0].detected_frame < w[1].detected_frame);
        }
        // Detection never outpaces the camera: cycle end >= frame arrival.
        for cy in &trace.cycles {
            let arrival = cy.detected_frame as f64 * clip.frame_interval_ms();
            assert!(cy.end_ms >= arrival);
        }
    });
}

// ---- Fault injection ---------------------------------------------

#[test]
fn pipelines_degrade_gracefully_under_any_fault_plan() {
    check(6, 1, |rng| {
        let profile = arb_fault_profile(rng);
        let pipeline_idx = rng.gen_range(0usize..5);
        let seed = rng.gen_range(0u64..500);
        let frames = rng.gen_range(40u32..80);
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (18.0, 32.0);
        let clip = VideoClip::generate("prop-fault", &spec, seed, frames);
        let plan = FaultPlan::new(profile);
        // The plan's own queries are always finite and bounded.
        for c in 0..64u64 {
            let m = plan.latency_multiplier(c);
            assert!(m.is_finite() && m >= 1.0);
            if let Some(f) = plan.tracker_divergence(c) {
                assert!((0.05..=0.95).contains(&f));
            }
        }
        let cfg = PipelineConfig {
            faults: plan,
            ..PipelineConfig::default()
        };
        let s = ModelSetting::Yolo512;
        let scheme = match pipeline_idx {
            0 => Scheme::Mpdt(s),
            1 => Scheme::Marlin(s),
            2 => Scheme::Cascade(s),
            3 => Scheme::Ctd(s),
            _ => Scheme::WithoutTracking(s),
        };
        let mut p = scheme.build(DetectorConfig::default().with_seed(seed), cfg);
        let trace = p.process(&clip);
        // Exactly one output per input frame, index-aligned, whatever the
        // fault plan did.
        assert_eq!(trace.outputs.len(), frames as usize);
        for (i, o) in trace.outputs.iter().enumerate() {
            assert_eq!(o.frame_index as usize, i);
            assert!(o.display_ms.is_finite());
            // Per-box confidences stay aligned and bounded whatever the
            // fault plan did to the detections that produced them.
            assert_eq!(o.confidences.len(), o.boxes.len());
            for &c in &o.confidences {
                assert!((0.0..=1.0).contains(&c), "confidence {c}");
            }
        }
        // Source fractions partition the frames.
        let f = trace.source_fractions();
        assert!((f.sum() - 1.0).abs() < 1e-9, "fractions sum {}", f.sum());
        // The realtime factor survives injection (timeouts are bounded, so
        // processing time stays finite).
        assert!(trace.latency_multiplier(&clip).is_finite());
        // Fault accounting is consistent.
        assert!(trace.degraded_cycle_count() <= trace.fault_count());
        assert!(trace.fault_count() <= trace.cycles.len());
    });
}

#[test]
fn detector_recall_monotone_in_visibility() {
    check(6, 1, |rng| {
        let seed = rng.gen_range(0u64..100);
        // The same scene detected at 608 finds at least as many objects as
        // tiny-320, averaged over frames.
        let mut spec = Scenario::CityStreet.spec();
        spec.width = 240;
        spec.height = 140;
        spec.camera = CameraMotion::Static;
        let clip = VideoClip::generate("prop-det", &spec, seed, 12);
        let mut det = SimulatedDetector::new(DetectorConfig::default().with_seed(seed));
        let count = |det: &mut SimulatedDetector, s: ModelSetting| -> usize {
            clip.iter().map(|f| det.detect(f, s).detections.len()).sum()
        };
        let tiny = count(&mut det, ModelSetting::Tiny320);
        let big = count(&mut det, ModelSetting::Yolo608);
        assert!(big + 2 >= tiny, "tiny {tiny} vs 608 {big}");
    });
}
