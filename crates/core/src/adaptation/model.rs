//! The threshold-based setting selector.

use adavp_detector::ModelSetting;

/// The adaptation model: per-current-setting velocity thresholds
/// `(v1 <= v2 <= v3)` (§IV-D3).
///
/// Given the velocity `v` measured during the current detection cycle:
///
/// * `v <= v1`      → use 608x608 next (slow content: long latency is cheap),
/// * `v1 < v <= v2` → 512x512,
/// * `v2 < v <= v3` → 416x416,
/// * `v > v3`       → 320x320 (fast content: calibrate often).
///
/// The paper learns a separate threshold triple for each *current* setting,
/// because velocity measured under different settings differs slightly (the
/// feature points are extracted inside boxes detected at that setting).
///
/// # Example
///
/// ```
/// use adavp_core::adaptation::AdaptationModel;
/// use adavp_detector::ModelSetting;
/// let m = AdaptationModel::uniform([1.0, 2.5, 5.0]);
/// assert_eq!(m.decide(ModelSetting::Yolo512, 0.4), ModelSetting::Yolo608);
/// assert_eq!(m.decide(ModelSetting::Yolo512, 9.0), ModelSetting::Yolo320);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationModel {
    /// `thresholds[i]` = `[v1, v2, v3]` when the current setting is
    /// `ModelSetting::ADAPTIVE[i]`.
    thresholds: [[f64; 3]; 4],
}

impl AdaptationModel {
    /// Builds a model from per-setting thresholds.
    ///
    /// # Panics
    ///
    /// Panics if any triple is not non-decreasing or contains NaN.
    pub fn from_thresholds(thresholds: [[f64; 3]; 4]) -> Self {
        for t in &thresholds {
            assert!(
                t[0] <= t[1] && t[1] <= t[2],
                "thresholds must be non-decreasing: {t:?}"
            );
            assert!(t.iter().all(|v| !v.is_nan()), "NaN threshold");
        }
        Self { thresholds }
    }

    /// Builds a model using the same triple for every current setting.
    pub fn uniform(t: [f64; 3]) -> Self {
        Self::from_thresholds([t, t, t, t])
    }

    /// A reasonable untrained default (px/frame at 640x360), close to what
    /// training on the synthetic corpus produces. Prefer
    /// [`train_adaptation_model_with`](crate::adaptation::train_adaptation_model_with)
    /// for experiments.
    pub fn default_model() -> Self {
        Self::uniform([1.1, 2.6, 5.5])
    }

    /// The threshold triple used when `current` is active.
    ///
    /// Non-adaptive settings (tiny, 704) fall back to the 512 row.
    pub fn thresholds_for(&self, current: ModelSetting) -> [f64; 3] {
        let idx = current.adaptive_index().unwrap_or(2);
        self.thresholds[idx]
    }

    /// Chooses the next setting from the measured velocity (px/frame).
    pub fn decide(&self, current: ModelSetting, velocity: f64) -> ModelSetting {
        let [v1, v2, v3] = self.thresholds_for(current);
        if velocity <= v1 {
            ModelSetting::Yolo608
        } else if velocity <= v2 {
            ModelSetting::Yolo512
        } else if velocity <= v3 {
            ModelSetting::Yolo416
        } else {
            ModelSetting::Yolo320
        }
    }
}

impl Default for AdaptationModel {
    fn default() -> Self {
        Self::default_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_maps_velocity_bands() {
        let m = AdaptationModel::uniform([1.0, 2.0, 3.0]);
        let c = ModelSetting::Yolo416;
        assert_eq!(m.decide(c, 0.0), ModelSetting::Yolo608);
        assert_eq!(m.decide(c, 1.0), ModelSetting::Yolo608); // inclusive
        assert_eq!(m.decide(c, 1.5), ModelSetting::Yolo512);
        assert_eq!(m.decide(c, 2.5), ModelSetting::Yolo416);
        assert_eq!(m.decide(c, 3.1), ModelSetting::Yolo320);
    }

    #[test]
    fn per_setting_thresholds_used() {
        let mut t = [[1.0, 2.0, 3.0]; 4];
        t[0] = [10.0, 20.0, 30.0]; // current = Yolo320 row
        let m = AdaptationModel::from_thresholds(t);
        assert_eq!(m.decide(ModelSetting::Yolo320, 5.0), ModelSetting::Yolo608);
        assert_eq!(m.decide(ModelSetting::Yolo416, 5.0), ModelSetting::Yolo320);
    }

    #[test]
    fn non_adaptive_setting_falls_back() {
        let m = AdaptationModel::uniform([1.0, 2.0, 3.0]);
        // Must not panic, and must return an adaptive setting.
        let next = m.decide(ModelSetting::Yolo704, 2.5);
        assert!(next.adaptive_index().is_some());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_thresholds_rejected() {
        AdaptationModel::uniform([3.0, 2.0, 1.0]);
    }

    #[test]
    fn default_is_valid() {
        let m = AdaptationModel::default();
        let _ = m.decide(ModelSetting::Yolo512, 1.0);
    }
}
