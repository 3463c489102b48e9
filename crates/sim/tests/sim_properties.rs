//! Property-based tests for the platform substrate.

use adavp_rng::check;
use adavp_sim::energy::{Activity, EnergyMeter};
use adavp_sim::event::EventQueue;
use adavp_sim::resource::Resource;
use adavp_sim::time::SimTime;

#[test]
fn event_queue_pops_sorted() {
    check(64, 1, |rng| {
        let n = rng.gen_range(0..50);
        let times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e6)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ms(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    });
}

#[test]
fn resource_intervals_disjoint_and_ordered() {
    check(64, 1, |rng| {
        let n = rng.gen_range(0..40);
        let reqs: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1e4), rng.gen_range(0.0..500.0)))
            .collect();
        let mut r = Resource::new("x");
        for (earliest, dur) in &reqs {
            let (s, e) = r.schedule(SimTime::from_ms(*earliest), SimTime::from_ms(*dur));
            assert!(s >= SimTime::from_ms(*earliest));
            assert!(e == s + SimTime::from_ms(*dur));
        }
        for w in r.intervals().windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        // Total busy equals the sum of requested durations.
        let total: f64 = reqs.iter().map(|(_, d)| d).sum();
        assert!((r.total_busy().as_ms() - total).abs() < 1e-6);
    });
}

/// The running busy total is the fold over the recorded intervals, bit for
/// bit, under any mix of scheduled and injected work: overlapping requests
/// that queue behind current occupancy, requests in idle gaps, and
/// zero-length tasks that record no interval.
#[test]
fn total_busy_is_the_fold_over_intervals() {
    check(64, 2, |rng| {
        let n = rng.gen_range(0..80);
        let mut r = Resource::new("gpu");
        for _ in 0..n {
            // Mostly overlapping the current booking, sometimes past it.
            let earliest = r.available_at().as_ms() + rng.gen_range(-300.0..100.0);
            let duration = if rng.gen::<f32>() < 0.2 {
                0.0
            } else {
                rng.gen_range(0.0..250.0)
            };
            let (earliest, duration) = (
                SimTime::from_ms(earliest.max(0.0)),
                SimTime::from_ms(duration),
            );
            if rng.gen::<bool>() {
                r.schedule(earliest, duration);
            } else {
                r.occupy(earliest, duration);
            }
            let fold = r
                .intervals()
                .iter()
                .fold(SimTime::ZERO, |acc, iv| acc + iv.duration());
            assert_eq!(r.total_busy().as_ms().to_bits(), fold.as_ms().to_bits());
        }
    });
}

#[test]
fn energy_is_additive() {
    check(64, 1, |rng| {
        let n = rng.gen_range(1..20);
        let durations: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e5)).collect();
        // Recording n activities one by one equals recording their total.
        let mut one_by_one = EnergyMeter::new();
        for &d in &durations {
            one_by_one.record(Activity::Tracking, SimTime::from_ms(d));
        }
        let mut at_once = EnergyMeter::new();
        at_once.record(Activity::Tracking, SimTime::from_ms(durations.iter().sum()));
        let a = one_by_one.breakdown();
        let b = at_once.breakdown();
        assert!((a.total_wh() - b.total_wh()).abs() < 1e-9);
        assert!((a.cpu_wh - b.cpu_wh).abs() < 1e-9);
    });
}

#[test]
fn sim_time_ordering_consistent_with_ms() {
    check(64, 1, |rng| {
        let a: f64 = rng.gen_range(-1e9..1e9);
        let b: f64 = rng.gen_range(-1e9..1e9);
        let ta = SimTime::from_ms(a);
        let tb = SimTime::from_ms(b);
        assert_eq!(ta < tb, a < b);
        assert_eq!(ta.max(tb).as_ms(), a.max(b));
        assert_eq!(ta.min(tb).as_ms(), a.min(b));
    });
}
