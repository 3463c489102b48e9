//! The four observations of the paper's §III, verified against this
//! reproduction end-to-end. These are the empirical premises the whole
//! AdaVP design rests on; if any of them stopped holding in the simulation,
//! the evaluation figures would be meaningless.

use adavp::core::latency::{overlay_ms, track_ms};
use adavp::core::tracker::{ObjectTracker, TrackerConfig};
use adavp::detector::{Detector, DetectorConfig, ModelSetting, SimulatedDetector};
use adavp::metrics::f1::{evaluate_frame, LabeledBox};
use adavp::metrics::matching::Matcher;
use adavp::video::clip::VideoClip;
use adavp::video::scenario::Scenario;

fn clip(scenario: Scenario, seed: u64, frames: u32, fast: bool) -> VideoClip {
    let mut spec = scenario.spec();
    spec.width = 320;
    spec.height = 180;
    spec.size_range = (22.0, 40.0);
    if fast {
        spec.speed_range = (220.0, 420.0);
        spec.spawn_rate_hz = 3.0;
        spec.max_objects = 12;
        spec.activity_depth = 0.0;
    }
    VideoClip::generate("obs", &spec, seed, frames)
}

/// Observation 1: even the lightest full-YOLO setting cannot keep up with a
/// 30 FPS camera — detection latency exceeds the 33 ms frame interval.
#[test]
fn observation_1_detection_slower_than_camera() {
    let c = clip(Scenario::Highway, 1, 3, false);
    let mut det = SimulatedDetector::new(DetectorConfig::default());
    for setting in ModelSetting::ADAPTIVE {
        let r = det.detect(c.frame(0), setting);
        assert!(
            r.latency_ms > 33.4,
            "{setting} at {} ms would keep up with the camera",
            r.latency_ms
        );
    }
}

/// Observation 2: larger frame size → higher accuracy and longer latency.
#[test]
fn observation_2_accuracy_latency_tradeoff() {
    let c = clip(Scenario::Highway, 2, 40, false);
    let oracle =
        adavp::core::eval::ground_truth_boxes(&c, adavp::core::eval::GroundTruthMode::default());
    let mut det = SimulatedDetector::new(DetectorConfig::default());
    let mut prev: Option<(f64, f64)> = None; // (latency, f1)
    for setting in ModelSetting::ADAPTIVE {
        let mut lat = 0.0;
        let mut f1 = 0.0;
        for frame in &c {
            let r = det.detect(frame, setting);
            lat += r.latency_ms;
            let boxes: Vec<LabeledBox> = r
                .detections
                .iter()
                .map(|d| LabeledBox::new(d.class, d.bbox))
                .collect();
            f1 += evaluate_frame(
                &boxes,
                &oracle[frame.index as usize],
                0.5,
                Matcher::Hungarian,
            )
            .f1;
        }
        lat /= c.len() as f64;
        f1 /= c.len() as f64;
        if let Some((plat, pf1)) = prev {
            assert!(lat > plat, "{setting}: latency must grow with input size");
            assert!(
                f1 > pf1 - 0.02,
                "{setting}: accuracy must not regress with input size ({pf1:.3} -> {f1:.3})"
            );
        }
        prev = Some((lat, f1));
    }
}

/// Observation 3: tracking accuracy decays faster when content changes
/// faster.
#[test]
fn observation_3_decay_depends_on_content_rate() {
    let decay_after = |fast: bool, seed: u64, frames: usize| -> f64 {
        let c = clip(Scenario::Highway, seed, frames as u32 + 1, fast);
        let oracle = adavp::core::eval::ground_truth_boxes(
            &c,
            adavp::core::eval::GroundTruthMode::default(),
        );
        let mut det = SimulatedDetector::new(DetectorConfig::default());
        let d0 = det.detect(c.frame(0), ModelSetting::Yolo608);
        let mut tracker = ObjectTracker::new(TrackerConfig::default());
        let pairs: Vec<_> = d0.detections.iter().map(|d| (d.class, d.bbox)).collect();
        tracker.reset(&c.frame(0).image, &pairs);
        let mut last = 0.0;
        #[allow(clippy::needless_range_loop)]
        for i in 1..=frames {
            tracker.step(&c.frame(i).image, 1);
            let boxes: Vec<LabeledBox> = tracker
                .current_boxes()
                .into_iter()
                .map(|(cl, b)| LabeledBox::new(cl, b))
                .collect();
            last = evaluate_frame(&boxes, &oracle[i], 0.5, Matcher::Hungarian).f1;
        }
        last
    };
    // Average a few seeds to keep the assertion robust.
    let mut fast_sum = 0.0;
    let mut slow_sum = 0.0;
    for seed in 0..3 {
        fast_sum += decay_after(true, 100 + seed, 20);
        slow_sum += decay_after(false, 200 + seed, 20);
    }
    assert!(
        fast_sum < slow_sum,
        "after 20 frames, fast content ({fast_sum:.2}) must decay below slow ({slow_sum:.2})"
    );
}

/// Observation 4: tracking + overlay of one frame exceeds the frame
/// interval, so frames must be skipped.
#[test]
fn observation_4_tracking_cannot_keep_up() {
    for objects in 1..=10 {
        assert!(track_ms(objects) + overlay_ms(objects) > 1000.0 / 30.0);
    }
}
