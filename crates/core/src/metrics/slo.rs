//! SLO error budgets and burn rates.
//!
//! Each stream's SLO class grants an **error budget**: the fraction of
//! detection cycles allowed to miss the class deadline
//! (`SloClass::deadline_ms`). The **burn rate** normalizes the observed
//! miss fraction by that budget:
//!
//! ```text
//! burn = (misses / cycles) / budget
//! ```
//!
//! `burn == 1.0` means the stream is consuming its budget exactly as fast
//! as allowed; `burn == 2.0` means twice as fast. Both quantities are
//! rationals over integer counts divided by a constant budget, so tests
//! can pin them in closed form. A tracker reports the first crossing of
//! each alert threshold in [`BURN_ALERT_THRESHOLDS`] exactly once — alerts
//! are edge-triggered, not level-triggered, so a long overload produces
//! two crossing events, not thousands.

/// Burn-rate levels that emit one alert event each, on first crossing.
///
/// `1.0` — the stream is on pace to exhaust its budget exactly;
/// `2.0` — burning twice as fast as the budget allows (page-worthy in the
/// classic multi-window burn-rate alerting scheme).
pub const BURN_ALERT_THRESHOLDS: [f64; 2] = [1.0, 2.0];

/// A burn-rate threshold crossing, recorded at the cycle that crossed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetCrossing {
    /// The threshold from [`BURN_ALERT_THRESHOLDS`] that was crossed.
    pub threshold: f64,
    /// Burn rate at the moment of crossing.
    pub burn: f64,
    /// Virtual time (ms) of the cycle completion that crossed.
    pub at_ms: f64,
    /// Zero-based cycle index that crossed.
    pub cycle: u64,
}

/// `(misses / cycles) / budget`; `0.0` before any cycle completes. Every
/// burn rate the fleet reports — per stream, per class, sampled — is this.
pub fn burn_rate(misses: u64, cycles: u64, budget: f64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    (misses as f64 / cycles as f64) / budget
}

/// Tracks one stream's deadline misses against its class error budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    budget: f64,
    cycles: u64,
    misses: u64,
    crossed: [bool; BURN_ALERT_THRESHOLDS.len()],
}

impl SloTracker {
    /// A tracker for a class whose error budget (allowed miss fraction)
    /// is `budget`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < budget <= 1.0`.
    pub fn new(budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget <= 1.0,
            "error budget {budget} out of (0, 1]"
        );
        Self {
            budget,
            cycles: 0,
            misses: 0,
            crossed: [false; BURN_ALERT_THRESHOLDS.len()],
        }
    }

    /// Records one completed cycle and whether it missed its deadline.
    /// Returns the highest alert threshold newly crossed by this cycle,
    /// if any (each threshold fires at most once per tracker).
    pub fn record(&mut self, missed: bool) -> Option<f64> {
        self.cycles += 1;
        if missed {
            self.misses += 1;
        }
        let burn = self.burn_rate();
        let mut fired = None;
        for (i, &threshold) in BURN_ALERT_THRESHOLDS.iter().enumerate() {
            if !self.crossed[i] && burn >= threshold {
                self.crossed[i] = true;
                fired = Some(threshold);
            }
        }
        fired
    }

    /// Completed cycles observed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Deadline misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The error budget (allowed miss fraction) this tracker enforces.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The stream's [`burn_rate`] so far.
    pub fn burn_rate(&self) -> f64 {
        burn_rate(self.misses, self.cycles, self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_is_closed_form() {
        // 3 misses in 20 cycles against a 5% budget:
        // burn = (3/20)/0.05 = 3.0 exactly.
        let mut t = SloTracker::new(0.05);
        for i in 0..20 {
            t.record(i < 3);
        }
        assert_eq!(t.cycles(), 20);
        assert_eq!(t.misses(), 3);
        assert_eq!(t.burn_rate(), (3.0 / 20.0) / 0.05);
        assert!((t.burn_rate() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_burns_nothing() {
        let t = SloTracker::new(0.01);
        assert_eq!(t.burn_rate(), 0.0);
    }

    #[test]
    fn thresholds_fire_once_and_report_the_highest() {
        // Budget 0.5: first cycle missing burns at (1/1)/0.5 = 2.0, which
        // crosses both 1.0 and 2.0 at once — record reports the highest.
        let mut t = SloTracker::new(0.5);
        assert_eq!(t.record(true), Some(2.0));
        // Still over both thresholds, but both already fired.
        assert_eq!(t.record(true), None);
        // Burn can fall back below; re-crossing does NOT re-fire.
        for _ in 0..10 {
            assert_eq!(t.record(false), None);
        }
        assert!(t.burn_rate() < 1.0);
        assert_eq!(t.record(true), None);
    }

    #[test]
    fn thresholds_fire_in_sequence_under_gradual_burn() {
        // Budget 0.20 (Bronze): 10 clean cycles, then every cycle misses.
        // Burn climbs smoothly, crossing 1.0 at the 3rd miss
        // ((3/13)/0.2 ≈ 1.15) and 2.0 at the 7th ((7/17)/0.2 ≈ 2.06).
        let mut t = SloTracker::new(0.20);
        let mut fired = Vec::new();
        for i in 0..20u64 {
            if let Some(th) = t.record(i >= 10) {
                fired.push((i, th));
            }
        }
        assert_eq!(fired, vec![(12, 1.0), (16, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn zero_budget_rejected() {
        let _ = SloTracker::new(0.0);
    }
}
