//! Video-content change-rate measurement (Eq. 3 of the paper).
//!
//! The change rate is the mean per-frame motion of the tracked features —
//! an intermediate result of Lucas-Kanade tracking, so it costs essentially
//! nothing extra (the paper measures 8.49e-2 ms). This module aggregates
//! the per-step velocities the tracker reports over a detection cycle into
//! the single number the adaptation module consumes.

/// Aggregates per-step velocity samples over one detection cycle.
///
/// # Example
///
/// ```
/// use adavp_core::velocity::VelocityEstimator;
/// let mut v = VelocityEstimator::new();
/// v.record(2.0);
/// v.record(4.0);
/// assert_eq!(v.cycle_velocity(), Some(3.0));
/// v.start_cycle();
/// assert_eq!(v.cycle_velocity(), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VelocityEstimator {
    sum: f64,
    count: u32,
    last_cycle: Option<f64>,
}

impl VelocityEstimator {
    /// Creates an estimator with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-step mean feature velocity (px/frame).
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or NaN.
    pub fn record(&mut self, v: f64) {
        assert!(v >= 0.0, "velocity must be non-negative, got {v}");
        self.sum += v;
        self.count += 1;
    }

    /// Mean velocity of the current cycle, or `None` if no sample was
    /// recorded (e.g. all features lost immediately).
    pub fn cycle_velocity(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Closes the current cycle and starts a new one, remembering the
    /// closed cycle's velocity as the fallback for sample-less cycles.
    pub fn start_cycle(&mut self) {
        if let Some(v) = self.cycle_velocity() {
            self.last_cycle = Some(v);
        }
        self.sum = 0.0;
        self.count = 0;
    }

    /// The velocity to hand the adaptation module: this cycle's mean, or
    /// the previous cycle's when this one produced no samples, or `None` if
    /// no velocity has ever been measured.
    pub fn effective_velocity(&self) -> Option<f64> {
        self.cycle_velocity().or(self.last_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        let mut v = VelocityEstimator::new();
        assert_eq!(v.cycle_velocity(), None);
        v.record(1.0);
        v.record(2.0);
        v.record(6.0);
        assert_eq!(v.cycle_velocity(), Some(3.0));
    }

    #[test]
    fn cycle_rollover_keeps_fallback() {
        let mut v = VelocityEstimator::new();
        v.record(5.0);
        v.start_cycle();
        assert_eq!(v.cycle_velocity(), None);
        assert_eq!(v.effective_velocity(), Some(5.0));
        v.record(1.0);
        assert_eq!(v.effective_velocity(), Some(1.0));
    }

    #[test]
    fn empty_cycles_preserve_older_fallback() {
        let mut v = VelocityEstimator::new();
        v.record(4.0);
        v.start_cycle();
        v.start_cycle(); // empty cycle must not erase the fallback
        assert_eq!(v.effective_velocity(), Some(4.0));
    }

    #[test]
    fn never_measured() {
        let mut v = VelocityEstimator::new();
        v.start_cycle();
        assert_eq!(v.effective_velocity(), None);
    }

    #[test]
    #[should_panic(expected = "velocity must be non-negative")]
    fn negative_velocity_panics() {
        VelocityEstimator::new().record(-1.0);
    }
}
