//! Serially-reusable compute resources.
//!
//! The TX2 model has two resources the pipelines contend for: the GPU
//! (detection) and the CPU (feature extraction, tracking, overlay drawing).
//! A [`Resource`] admits one task at a time and records every busy interval
//! for utilization and energy accounting, keeping their total as it goes so
//! a utilization read costs O(1) however long the run.

use crate::time::SimTime;

/// One busy interval on a resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Interval start.
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
}

impl BusyInterval {
    /// Interval duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// A serially-reusable resource (GPU, CPU core pool, …).
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    busy_until: SimTime,
    intervals: Vec<BusyInterval>,
    /// Sum of the intervals' durations, added in push order.
    busy_total: SimTime,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            busy_until: SimTime::ZERO,
            intervals: Vec::new(),
            busy_total: SimTime::ZERO,
        }
    }

    /// Resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Earliest time a new task could start.
    pub fn available_at(&self) -> SimTime {
        self.busy_until
    }

    /// Schedules a task that wants to start at `earliest` and run for
    /// `duration`. The task is queued behind any current occupancy.
    ///
    /// Returns the `(start, end)` actually assigned.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn schedule(&mut self, earliest: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        assert!(duration >= SimTime::ZERO, "negative task duration");
        let start = earliest.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        if duration > SimTime::ZERO {
            let interval = BusyInterval { start, end };
            self.busy_total += interval.duration();
            self.intervals.push(interval);
        }
        (start, end)
    }

    /// Injects an externally-imposed busy interval — a co-running
    /// workload's contention burst rather than pipeline work. Follows the
    /// same serialization rule as [`Resource::schedule`]: the interval is
    /// pushed back behind any current occupancy, so the recorded interval
    /// list stays chronological and non-overlapping even when injected
    /// bursts overlap pipeline tasks (or each other).
    ///
    /// Returns the `(start, end)` actually occupied.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn occupy(&mut self, from: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        self.schedule(from, duration)
    }

    /// All busy intervals recorded so far (chronological).
    pub fn intervals(&self) -> &[BusyInterval] {
        &self.intervals
    }

    /// Total busy time: the durations of [`Resource::intervals`] summed in
    /// order, kept as a running total.
    pub fn total_busy(&self) -> SimTime {
        self.busy_total
    }

    /// Busy fraction over `[0, horizon]`; 0 when the horizon is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon <= SimTime::ZERO {
            return 0.0;
        }
        (self.total_busy().as_ms() / horizon.as_ms()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn schedules_back_to_back() {
        let mut r = Resource::new("gpu");
        let (s1, e1) = r.schedule(ms(0.0), ms(100.0));
        assert_eq!((s1, e1), (ms(0.0), ms(100.0)));
        // Wants to start at 50 but the resource is busy until 100.
        let (s2, e2) = r.schedule(ms(50.0), ms(30.0));
        assert_eq!((s2, e2), (ms(100.0), ms(130.0)));
        assert_eq!(r.available_at(), ms(130.0));
    }

    #[test]
    fn idle_gaps_are_respected() {
        let mut r = Resource::new("cpu");
        r.schedule(ms(0.0), ms(10.0));
        let (s, e) = r.schedule(ms(100.0), ms(10.0));
        assert_eq!((s, e), (ms(100.0), ms(110.0)));
    }

    #[test]
    fn intervals_never_overlap() {
        let mut r = Resource::new("gpu");
        for i in 0..20 {
            r.schedule(ms(i as f64 * 3.0), ms(7.0));
        }
        let ivs = r.intervals();
        for pair in ivs.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn utilization_and_total() {
        let mut r = Resource::new("gpu");
        r.schedule(ms(0.0), ms(25.0));
        r.schedule(ms(50.0), ms(25.0));
        assert_eq!(r.total_busy(), ms(50.0));
        assert!((r.utilization(ms(100.0)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn zero_duration_tasks_leave_no_interval() {
        let mut r = Resource::new("cpu");
        let (s, e) = r.schedule(ms(5.0), ms(0.0));
        assert_eq!(s, e);
        assert!(r.intervals().is_empty());
    }

    #[test]
    #[should_panic(expected = "negative task duration")]
    fn negative_duration_panics() {
        Resource::new("gpu").schedule(ms(0.0), ms(-1.0));
    }

    #[test]
    fn overlapping_occupy_requests_serialize() {
        let mut r = Resource::new("gpu");
        // Three bursts that nominally overlap: [0,100), [50,150), [80,120).
        let (s1, e1) = r.occupy(ms(0.0), ms(100.0));
        let (s2, e2) = r.occupy(ms(50.0), ms(100.0));
        let (s3, e3) = r.occupy(ms(80.0), ms(40.0));
        assert_eq!((s1, e1), (ms(0.0), ms(100.0)));
        assert_eq!((s2, e2), (ms(100.0), ms(200.0)));
        assert_eq!((s3, e3), (ms(200.0), ms(240.0)));
        for pair in r.intervals().windows(2) {
            assert!(pair[0].end <= pair[1].start, "intervals must not overlap");
        }
        assert_eq!(r.total_busy(), ms(240.0));
    }

    #[test]
    fn occupy_interleaves_with_scheduled_work() {
        let mut r = Resource::new("gpu");
        // A contention burst lands first; real work queues behind it.
        r.occupy(ms(10.0), ms(40.0));
        let (s, e) = r.schedule(ms(20.0), ms(30.0));
        assert_eq!((s, e), (ms(50.0), ms(80.0)));
        // A later burst queues behind the real work in turn.
        let (bs, be) = r.occupy(ms(60.0), ms(10.0));
        assert_eq!((bs, be), (ms(80.0), ms(90.0)));
    }

    #[test]
    fn occupy_entirely_in_the_past_runs_at_busy_until() {
        let mut r = Resource::new("gpu");
        r.schedule(ms(0.0), ms(100.0));
        // A burst requested for t=0 after the resource is already booked
        // lands at the end of the booking, never rewriting history.
        let (s, e) = r.occupy(ms(0.0), ms(5.0));
        assert_eq!((s, e), (ms(100.0), ms(105.0)));
        for pair in r.intervals().windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn zero_duration_occupy_leaves_no_interval() {
        let mut r = Resource::new("cpu");
        r.occupy(ms(7.0), ms(0.0));
        assert!(r.intervals().is_empty());
        assert_eq!(r.available_at(), ms(7.0));
    }
}
