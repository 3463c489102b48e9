//! Property-based tests for the simulated detector's calibration laws.

use adavp_detector::{Detector, DetectorConfig, ModelSetting, SimulatedDetector};
use adavp_rng::check;
use adavp_video::clip::VideoClip;
use adavp_video::scenario::Scenario;

fn clip(seed: u64, frames: u32) -> VideoClip {
    let mut spec = Scenario::CityStreet.spec();
    spec.width = 240;
    spec.height = 140;
    spec.size_range = (20.0, 36.0);
    VideoClip::generate("det-prop", &spec, seed, frames)
}

#[test]
fn detection_is_pure_per_frame() {
    check(10, 1, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let frame = rng.gen_range(0usize..8);
        let c = clip(seed, 8);
        let mut a = SimulatedDetector::new(DetectorConfig::default().with_seed(seed));
        let mut b = SimulatedDetector::new(DetectorConfig::default().with_seed(seed));
        // Warm `a` with unrelated calls first: results must not depend on
        // call history.
        let _ = a.detect(c.frame((frame + 1) % 8), ModelSetting::Yolo320);
        let _ = a.detect(c.frame((frame + 3) % 8), ModelSetting::Yolo608);
        let ra = a.detect(c.frame(frame), ModelSetting::Yolo512);
        let rb = b.detect(c.frame(frame), ModelSetting::Yolo512);
        assert_eq!(ra, rb);
    });
}

#[test]
fn latency_positive_and_ordered() {
    check(10, 1, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let c = clip(seed, 1);
        let mut det = SimulatedDetector::new(DetectorConfig::default().with_seed(seed));
        let mut prev = 0.0;
        for s in [
            ModelSetting::Tiny320,
            ModelSetting::Yolo320,
            ModelSetting::Yolo416,
            ModelSetting::Yolo512,
            ModelSetting::Yolo608,
            ModelSetting::Yolo704,
        ] {
            let r = det.detect(c.frame(0), s);
            assert!(r.latency_ms > 0.0);
            // Latency jitter is clamped to ±30%, so ordering across settings
            // (whose base latencies differ by ≥ 26%) can only invert between
            // adjacent pairs in extreme draws; give it 35% headroom.
            assert!(
                r.latency_ms > prev * 0.65,
                "{s}: {} after {prev}",
                r.latency_ms
            );
            prev = r.latency_ms;
        }
    });
}

#[test]
fn oracle_704_recall_dominates_tiny() {
    check(10, 1, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let c = clip(seed, 10);
        let mut det = SimulatedDetector::new(DetectorConfig::default().with_seed(seed));
        let total = |det: &mut SimulatedDetector, s: ModelSetting| -> usize {
            c.iter().map(|f| det.detect(f, s).detections.len()).sum()
        };
        let oracle = total(&mut det, ModelSetting::Yolo704);
        let tiny = total(&mut det, ModelSetting::Tiny320);
        assert!(oracle + 3 >= tiny, "oracle {oracle} vs tiny {tiny}");
    });
}
