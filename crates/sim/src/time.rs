//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in milliseconds since simulation start.
///
/// Wraps an `f64` with total ordering (`total_cmp`) so it can key event
/// queues. Construct with [`SimTime::from_ms`] or [`SimTime::ZERO`].
///
/// # Example
///
/// ```
/// use adavp_sim::time::SimTime;
/// let t = SimTime::from_ms(100.0) + SimTime::from_ms(50.0);
/// assert_eq!(t.as_ms(), 150.0);
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is NaN.
    pub fn from_ms(ms: f64) -> Self {
        assert!(!ms.is_nan(), "SimTime cannot be NaN");
        SimTime(ms)
    }

    /// Creates a time from seconds.
    pub fn from_secs(s: f64) -> Self {
        Self::from_ms(s * 1000.0)
    }

    /// Milliseconds since the epoch.
    pub fn as_ms(&self) -> f64 {
        self.0
    }

    /// Hours since the epoch (energy integration uses watt-hours).
    pub fn as_hours(&self) -> f64 {
        self.0 / 3_600_000.0
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        let t = SimTime::from_secs(2.0);
        assert_eq!(t.as_ms(), 2000.0);
        assert!((SimTime::from_ms(3_600_000.0).as_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ms(10.0);
        let b = SimTime::from_ms(20.0);
        assert!(a < b);
        assert_eq!(a + a, b);
        assert_eq!(b - a, a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut c = a;
        c += a;
        assert_eq!(c, b);
    }

    #[test]
    #[should_panic(expected = "SimTime cannot be NaN")]
    fn nan_rejected() {
        SimTime::from_ms(f64::NAN);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(12.5).to_string(), "12.500ms");
    }
}
