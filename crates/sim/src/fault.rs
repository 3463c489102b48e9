//! Deterministic fault injection for the pipeline simulators.
//!
//! The paper's premise is that detection latency is unpredictable and the
//! pipeline must stay real-time anyway; ApproxDet adds that *contention*
//! (co-running workloads) is the norm on mobile SoCs. This module models
//! that hostile environment as data: a declarative [`FaultProfile`]
//! compiles into a [`FaultPlan`] whose queries are **pure functions of
//! `(seed, fault kind, cycle/frame index)`** — the same splitmix64 keying
//! the simulated detector uses — so every fault decision is independent of
//! call order and thread count. Two runs with the same profile produce
//! byte-identical fault sequences at any `--jobs` setting.
//!
//! Fault taxonomy (one query per kind):
//!
//! * **Latency spikes** — a detection invocation takes `mult ×` its modeled
//!   latency ([`FaultPlan::latency_multiplier`]).
//! * **Detector failures** — an invocation burns GPU time and returns
//!   nothing ([`FaultPlan::detector_fails`]); pipelines retry with backoff.
//! * **Dropped frames** — the camera never delivers a frame
//!   ([`FaultPlan::frame_dropped`]; frame 0 is never dropped so pipelines
//!   can bootstrap).
//! * **Tracker divergence** — tracking degenerates partway through a cycle
//!   ([`FaultPlan::tracker_divergence`]).
//! * **GPU contention** — periodic busy bursts from a co-running workload,
//!   injected as [`Resource`] busy intervals through an [`EventQueue`]
//!   ([`ContentionInjector`]).
//!
//! # Example
//!
//! ```
//! use adavp_sim::fault::{FaultPlan, FaultProfile};
//!
//! let plan = FaultPlan::new(FaultProfile::flaky_detector(7));
//! // Pure queries: same answer no matter when or from which thread.
//! let a = plan.detector_fails(3, 0);
//! let b = plan.detector_fails(3, 0);
//! assert_eq!(a, b);
//! assert!(plan.latency_multiplier(3).is_finite());
//! assert!(!plan.frame_dropped(0), "frame 0 is never dropped");
//! ```

use crate::event::EventQueue;
use crate::resource::Resource;
use crate::time::SimTime;
use adavp_rng::{mix, splitmix, unit};

/// Domain-separation tags so each fault kind draws from an independent
/// deterministic stream.
const TAG_SPIKE: u64 = 0x51;
const TAG_SPIKE_MAG: u64 = 0x52;
const TAG_FAIL: u64 = 0x53;
const TAG_DROP: u64 = 0x54;
const TAG_DIVERGE: u64 = 0x55;
const TAG_DIVERGE_MAG: u64 = 0x56;
const TAG_CONTENTION: u64 = 0x57;

/// Hard ceiling on injected latency multipliers: keeps every degraded
/// latency finite and the simulation horizon bounded.
pub const MAX_LATENCY_MULT: f64 = 64.0;

/// Clamps a probability into `[0, 1]`, mapping NaN to 0.
fn prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Declarative description of a fault environment.
///
/// All probabilities are per-decision (per detection cycle, per frame, per
/// retry attempt). A default profile injects nothing; [`FaultPlan`] built
/// from it is exactly the happy path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed for every fault stream; independent of the detector seed.
    pub seed: u64,
    /// Probability that a detection cycle's latency is multiplied.
    pub latency_spike_prob: f64,
    /// `(min, max)` multiplier drawn for a spiking cycle.
    pub latency_spike_mult: (f64, f64),
    /// Probability that one detection attempt fails outright.
    pub detector_failure_prob: f64,
    /// Probability that a camera frame is never delivered (frame 0 exempt).
    pub frame_drop_prob: f64,
    /// Probability that tracking diverges during a cycle.
    pub tracker_divergence_prob: f64,
    /// Period of co-running GPU contention bursts; `0` disables contention.
    pub contention_period_ms: f64,
    /// Nominal busy time per contention burst.
    pub contention_busy_ms: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultProfile {
    /// The empty profile: no faults, ever.
    pub fn none() -> Self {
        Self {
            seed: 0,
            latency_spike_prob: 0.0,
            latency_spike_mult: (1.0, 1.0),
            detector_failure_prob: 0.0,
            frame_drop_prob: 0.0,
            tracker_divergence_prob: 0.0,
            contention_period_ms: 0.0,
            contention_busy_ms: 0.0,
        }
    }

    /// Occasional 2–6× detection-latency spikes (thermal throttling,
    /// scheduler jitter).
    pub fn latency_spikes(seed: u64) -> Self {
        Self {
            seed,
            latency_spike_prob: 0.3,
            latency_spike_mult: (2.0, 6.0),
            ..Self::none()
        }
    }

    /// Detection attempts that fail outright and must be retried.
    pub fn flaky_detector(seed: u64) -> Self {
        Self {
            seed,
            detector_failure_prob: 0.25,
            ..Self::none()
        }
    }

    /// A camera link that loses frames.
    pub fn lossy_camera(seed: u64) -> Self {
        Self {
            seed,
            frame_drop_prob: 0.15,
            ..Self::none()
        }
    }

    /// A tracker that degenerates mid-cycle (fast motion, occlusion).
    pub fn diverging_tracker(seed: u64) -> Self {
        Self {
            seed,
            tracker_divergence_prob: 0.35,
            ..Self::none()
        }
    }

    /// Periodic GPU contention from a co-running workload (ApproxDet's
    /// scenario): ~120 ms bursts every ~400 ms.
    pub fn contended_soc(seed: u64) -> Self {
        Self {
            seed,
            contention_period_ms: 400.0,
            contention_busy_ms: 120.0,
            ..Self::none()
        }
    }

    /// Fleet brownout drill: a contended GPU plus a flaky detector — the
    /// regime a serving pool sees when a co-tenant workload lands on the
    /// accelerator at high stream counts. Contention bursts are longer and
    /// denser than [`FaultProfile::contended_soc`] and a fifth of detection
    /// attempts fail outright, so batches both queue behind bursts and
    /// shrink from member retries at once.
    pub fn brownout(seed: u64) -> Self {
        Self {
            seed,
            detector_failure_prob: 0.2,
            latency_spike_prob: 0.1,
            latency_spike_mult: (2.0, 4.0),
            contention_period_ms: 500.0,
            contention_busy_ms: 150.0,
            ..Self::none()
        }
    }

    /// Everything at once, at moderate rates.
    pub fn stress(seed: u64) -> Self {
        Self {
            seed,
            latency_spike_prob: 0.2,
            latency_spike_mult: (2.0, 5.0),
            detector_failure_prob: 0.15,
            frame_drop_prob: 0.08,
            tracker_divergence_prob: 0.15,
            contention_period_ms: 600.0,
            contention_busy_ms: 90.0,
        }
    }

    /// Whether this profile can never inject a fault.
    pub fn is_quiet(&self) -> bool {
        prob(self.latency_spike_prob) == 0.0
            && prob(self.detector_failure_prob) == 0.0
            && prob(self.frame_drop_prob) == 0.0
            && prob(self.tracker_divergence_prob) == 0.0
            && !(self.contention_period_ms > 0.0 && self.contention_busy_ms > 0.0)
    }
}

/// A compiled fault schedule with order-independent deterministic queries.
///
/// Every query hashes `(profile seed, kind tag, indices)` with splitmix64
/// and thresholds the result — no internal RNG state, so answers do not
/// depend on how many times or in what order other queries were made. This
/// is the property that makes fault sweeps byte-identical across `--jobs`
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    profile: FaultProfile,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing — the happy path.
    pub fn none() -> Self {
        Self {
            profile: FaultProfile::none(),
        }
    }

    /// Compiles a profile into a plan.
    pub fn new(profile: FaultProfile) -> Self {
        Self { profile }
    }

    /// The profile this plan was built from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether this plan can never inject a fault. Pipelines use this as a
    /// fast path that keeps the default configuration bit-identical to the
    /// pre-fault-layer behavior.
    pub fn is_none(&self) -> bool {
        self.profile.is_quiet()
    }

    fn draw(&self, tag: u64, a: u64, b: u64) -> f64 {
        unit(mix(self.profile.seed, tag, a, b))
    }

    /// Latency multiplier for detection cycle `cycle`.
    ///
    /// Always finite and in `[1.0, MAX_LATENCY_MULT]`; `1.0` when the cycle
    /// does not spike. All attempts within a cycle share the multiplier
    /// (the spike models platform state, not per-call noise).
    pub fn latency_multiplier(&self, cycle: u64) -> f64 {
        if self.draw(TAG_SPIKE, cycle, 0) >= prob(self.profile.latency_spike_prob) {
            return 1.0;
        }
        let (lo, hi) = self.profile.latency_spike_mult;
        let lo = if lo.is_finite() { lo.max(1.0) } else { 1.0 };
        let hi = if hi.is_finite() { hi.max(lo) } else { lo };
        let u = self.draw(TAG_SPIKE_MAG, cycle, 0);
        (lo + (hi - lo) * u).clamp(1.0, MAX_LATENCY_MULT)
    }

    /// Whether attempt `attempt` of detection cycle `cycle` fails outright.
    pub fn detector_fails(&self, cycle: u64, attempt: u32) -> bool {
        self.draw(TAG_FAIL, cycle, attempt as u64) < prob(self.profile.detector_failure_prob)
    }

    /// Whether the camera drops frame `frame`. Frame 0 is never dropped so
    /// every pipeline can bootstrap its first detection.
    pub fn frame_dropped(&self, frame: usize) -> bool {
        frame != 0 && self.draw(TAG_DROP, frame as u64, 0) < prob(self.profile.frame_drop_prob)
    }

    /// Whether (and where) tracking diverges during cycle `cycle`.
    ///
    /// `Some(f)` means the tracker degenerates after fraction `f ∈
    /// [0.05, 0.95]` of the cycle's planned tracking steps; the pipeline
    /// maps the fraction onto its own plan length.
    pub fn tracker_divergence(&self, cycle: u64) -> Option<f64> {
        if self.draw(TAG_DIVERGE, cycle, 0) < prob(self.profile.tracker_divergence_prob) {
            Some(0.05 + 0.9 * self.draw(TAG_DIVERGE_MAG, cycle, 0))
        } else {
            None
        }
    }

    /// Derives the plan a specific stream (video clip) should use: the
    /// stream name is folded into the seed, so parallel clips under one
    /// profile do not fault on identical cycle/frame indices. The quiet
    /// plan stays quiet (and `==` to itself), preserving the happy-path
    /// fast paths.
    pub fn for_stream(&self, name: &str) -> FaultPlan {
        if self.is_none() {
            return self.clone();
        }
        let mut seed = splitmix(self.profile.seed ^ 0x9e3779b97f4a7c15);
        for b in name.bytes() {
            seed = splitmix(seed ^ b as u64);
        }
        FaultPlan::new(FaultProfile {
            seed,
            ..self.profile.clone()
        })
    }

    /// Builds the contention-burst injector for this plan. Inert (never
    /// injects) when the profile has no contention.
    pub fn contention(&self) -> ContentionInjector {
        ContentionInjector {
            plan: self.clone(),
            queue: EventQueue::new(),
            next_slot: 0,
        }
    }
}

/// Streams periodic contention bursts into a [`Resource`].
///
/// Bursts are generated lazily, one period slot at a time, and buffered
/// through an [`EventQueue`] so injection order is by burst start time with
/// FIFO tie-breaking. Injecting *incrementally* (only bursts due by the
/// pipeline's current scheduling horizon) matters: [`Resource::schedule`]
/// queues work behind the latest occupancy, so pre-injecting the whole
/// timeline up front would push all real work behind the final burst.
#[derive(Debug, Clone)]
pub struct ContentionInjector {
    plan: FaultPlan,
    queue: EventQueue<SimTime>,
    next_slot: u64,
}

impl ContentionInjector {
    /// Whether this injector can ever emit a burst.
    pub fn is_inert(&self) -> bool {
        let p = self.plan.profile();
        !(p.contention_period_ms > 0.0 && p.contention_busy_ms > 0.0)
    }

    /// Occupies `resource` with every contention burst whose start time is
    /// `<= horizon`, in start-time order. Call before scheduling real work
    /// that may begin up to `horizon`.
    pub fn inject_until(&mut self, horizon: SimTime, resource: &mut Resource) {
        if self.is_inert() {
            return;
        }
        let p = self.plan.profile().clone();
        // Generate slots whose nominal start is within the horizon.
        loop {
            let base = self.next_slot as f64 * p.contention_period_ms;
            // Deterministic phase jitter within the first quarter period.
            let jitter = self.plan.draw(TAG_CONTENTION, self.next_slot, 0) * 0.25;
            let start = base + jitter * p.contention_period_ms;
            if SimTime::from_ms(start) > horizon {
                break;
            }
            // Burst length varies 60%–140% of nominal.
            let scale = 0.6 + 0.8 * self.plan.draw(TAG_CONTENTION, self.next_slot, 1);
            let busy = (p.contention_busy_ms * scale).max(0.0);
            self.queue
                .push(SimTime::from_ms(start), SimTime::from_ms(busy));
            self.next_slot += 1;
        }
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (start, busy) = self.queue.pop().expect("peeked entry");
            resource.occupy(start, busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_quiet() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for c in 0..50 {
            assert_eq!(plan.latency_multiplier(c), 1.0);
            assert!(!plan.detector_fails(c, 0));
            assert!(!plan.frame_dropped(c as usize));
            assert_eq!(plan.tracker_divergence(c), None);
        }
        assert!(plan.contention().is_inert());
    }

    #[test]
    fn queries_are_pure_and_order_independent() {
        let plan = FaultPlan::new(FaultProfile::stress(42));
        // Query in one order...
        let forward: Vec<_> = (0..30)
            .map(|c| {
                (
                    plan.latency_multiplier(c),
                    plan.detector_fails(c, 1),
                    plan.frame_dropped(c as usize),
                    plan.tracker_divergence(c),
                )
            })
            .collect();
        // ...then in reverse on a clone: identical answers.
        let plan2 = plan.clone();
        let mut backward: Vec<_> = (0..30)
            .rev()
            .map(|c| {
                (
                    plan2.latency_multiplier(c),
                    plan2.detector_fails(c, 1),
                    plan2.frame_dropped(c as usize),
                    plan2.tracker_divergence(c),
                )
            })
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn multipliers_are_finite_and_clamped() {
        let mut p = FaultProfile::latency_spikes(9);
        p.latency_spike_prob = 1.0;
        p.latency_spike_mult = (3.0, f64::INFINITY);
        let plan = FaultPlan::new(p);
        for c in 0..100 {
            let m = plan.latency_multiplier(c);
            assert!(m.is_finite());
            assert!((1.0..=MAX_LATENCY_MULT).contains(&m), "mult {m}");
        }
        // NaN probabilities are treated as zero.
        let mut q = FaultProfile::none();
        q.latency_spike_prob = f64::NAN;
        q.detector_failure_prob = f64::NAN;
        let plan = FaultPlan::new(q);
        assert!(plan.is_none());
        assert_eq!(plan.latency_multiplier(5), 1.0);
    }

    #[test]
    fn frame_zero_is_never_dropped() {
        let mut p = FaultProfile::lossy_camera(3);
        p.frame_drop_prob = 1.0;
        let plan = FaultPlan::new(p);
        assert!(!plan.frame_dropped(0));
        assert!(plan.frame_dropped(1));
        assert!(plan.frame_dropped(2));
    }

    #[test]
    fn divergence_fraction_in_range() {
        let mut p = FaultProfile::diverging_tracker(11);
        p.tracker_divergence_prob = 1.0;
        let plan = FaultPlan::new(p);
        for c in 0..100 {
            let f = plan.tracker_divergence(c).expect("prob 1.0");
            assert!((0.05..=0.95).contains(&f), "fraction {f}");
        }
    }

    #[test]
    fn brownout_contends_and_flakes() {
        let p = FaultProfile::brownout(13);
        assert!(!p.is_quiet());
        assert!(p.detector_failure_prob > 0.0);
        assert!(p.contention_period_ms > 0.0 && p.contention_busy_ms > 0.0);
        // No camera/tracker faults: brownout models the shared GPU, not the
        // per-stream capture path.
        assert_eq!(p.frame_drop_prob, 0.0);
        assert_eq!(p.tracker_divergence_prob, 0.0);
        let plan = FaultPlan::new(p);
        assert!(!plan.contention().is_inert());
        let fails = (0..200).filter(|&c| plan.detector_fails(c, 0)).count();
        assert!((20..=60).contains(&fails), "failure rate off: {fails}/200");
    }

    #[test]
    fn seeds_decorrelate_streams() {
        let a = FaultPlan::new(FaultProfile::stress(1));
        let b = FaultPlan::new(FaultProfile::stress(2));
        let differs = (0..64).any(|c| {
            a.detector_fails(c, 0) != b.detector_fails(c, 0)
                || a.frame_dropped(c as usize) != b.frame_dropped(c as usize)
        });
        assert!(differs, "different seeds must give different streams");
    }

    #[test]
    fn for_stream_salts_by_name_and_keeps_quiet_plans_quiet() {
        let base = FaultPlan::new(FaultProfile::stress(9));
        let a = base.for_stream("highway-00");
        let b = base.for_stream("city-07");
        assert_eq!(a, base.for_stream("highway-00"), "salting is pure");
        let differs = (0..64).any(|c| {
            a.detector_fails(c, 0) != b.detector_fails(c, 0)
                || a.frame_dropped(c as usize) != b.frame_dropped(c as usize)
        });
        assert!(differs, "streams must decorrelate by name");
        // Same probabilities, different draws.
        assert_eq!(
            a.profile().latency_spike_prob,
            base.profile().latency_spike_prob
        );
        let quiet = FaultPlan::none().for_stream("anything");
        assert!(quiet.is_none());
        assert_eq!(quiet, FaultPlan::none());
    }

    #[test]
    fn contention_injects_incrementally_and_deterministically() {
        let plan = FaultPlan::new(FaultProfile::contended_soc(5));
        let mut inj = plan.contention();
        assert!(!inj.is_inert());
        let mut gpu = Resource::new("gpu");
        inj.inject_until(SimTime::from_ms(1000.0), &mut gpu);
        let after_1s = gpu.intervals().len();
        assert!(after_1s >= 2, "expected bursts within 1 s, got {after_1s}");
        // Re-injecting to the same horizon adds nothing.
        inj.inject_until(SimTime::from_ms(1000.0), &mut gpu);
        assert_eq!(gpu.intervals().len(), after_1s);
        // Extending the horizon adds more bursts, still non-overlapping.
        inj.inject_until(SimTime::from_ms(3000.0), &mut gpu);
        assert!(gpu.intervals().len() > after_1s);
        for pair in gpu.intervals().windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        // A second injector over a fresh resource reproduces the schedule.
        let mut inj2 = plan.contention();
        let mut gpu2 = Resource::new("gpu");
        inj2.inject_until(SimTime::from_ms(1000.0), &mut gpu2);
        inj2.inject_until(SimTime::from_ms(3000.0), &mut gpu2);
        assert_eq!(gpu.intervals(), gpu2.intervals());
    }

    #[test]
    fn inert_contention_touches_nothing() {
        let mut inj = FaultPlan::none().contention();
        let mut gpu = Resource::new("gpu");
        inj.inject_until(SimTime::from_ms(10_000.0), &mut gpu);
        assert!(gpu.intervals().is_empty());
    }
}
