//! Batching detection scheduler over a shared GPU pool.
//!
//! Detection requests from all streams funnel into one open batch. The
//! batch closes — and dispatches to the least-loaded GPU — when either it
//! reaches [`BatchConfig::max_batch`] members (**close on size**) or
//! [`BatchConfig::window_ms`] elapses after its first member arrived
//! (**close on deadline**). Batch GPU time comes from the sub-linear
//! [`batch_ms`] model; every member's result lands at batch completion,
//! so batching trades per-request latency for aggregate throughput —
//! exactly the tradeoff the serve sweep quantifies.
//!
//! Backpressure: at most [`BatchConfig::queue_capacity`] requests may be
//! outstanding (submitted, not yet completed). Beyond that, submissions
//! are refused and the submitting stream sheds load by stepping its model
//! setting down (see [`super::stream`]) — the queue never grows unboundedly.
//!
//! The scheduler is driven, not driving: it never owns a clock. Window
//! deadlines and batch completions are returned to the fleet driver as
//! pending actions ([`BatchScheduler::drain_window_opens`],
//! [`BatchScheduler::drain_dispatched`]) which the driver turns into
//! events on its queue.

use super::stream::DetectionRequest;
use crate::latency::batch_ms;
use adavp_sim::{ContentionInjector, FaultPlan, Resource, SimTime};

/// Batching scheduler configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum members per batch; the batch dispatches immediately when it
    /// fills. `1` disables batching (every request is its own dispatch).
    pub max_batch: usize,
    /// Batch-formation window: a batch dispatches at latest this long
    /// after its first member arrived, full or not.
    pub window_ms: f64,
    /// Maximum outstanding (submitted, not completed) requests before
    /// backpressure refuses new submissions.
    pub queue_capacity: usize,
    /// Number of GPUs in the shared pool.
    pub gpus: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            window_ms: 250.0,
            queue_capacity: 64,
            gpus: 4,
        }
    }
}

impl BatchConfig {
    /// An unbatched baseline of the same pool: singleton dispatches, no
    /// formation window, a correspondingly smaller outstanding bound.
    pub fn unbatched(&self) -> Self {
        Self {
            max_batch: 1,
            window_ms: 0.0,
            queue_capacity: (self.queue_capacity / self.max_batch.max(1)).max(self.gpus * 2),
            ..self.clone()
        }
    }
}

/// A dispatched batch: where it ran, when it completes, and its members
/// (in submission order) awaiting verdicts.
#[derive(Debug, Clone)]
pub struct DispatchedBatch {
    /// Batch id (monotone per scheduler).
    pub id: u64,
    /// GPU pool index the batch ran on.
    pub gpu: usize,
    /// Actual GPU start (queued behind prior occupancy and contention).
    pub start: SimTime,
    /// Completion time: every member's verdict lands here.
    pub end: SimTime,
    /// Members, in submission order.
    pub members: Vec<DetectionRequest>,
}

/// A batch-formation window the driver must arm a deadline event for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOpen {
    /// Id of the batch the window belongs to.
    pub batch: u64,
    /// When the window closes if the batch has not filled by then.
    pub deadline: SimTime,
}

/// Aggregate scheduler counters for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Batches dispatched.
    pub batches: u64,
    /// Members across all dispatched batches.
    pub members: u64,
    /// Submissions refused by backpressure.
    pub rejected: u64,
    /// Batches closed by reaching `max_batch` (the rest closed on their
    /// window deadline).
    pub closed_on_size: u64,
}

impl BatchStats {
    /// Mean members per dispatched batch (0 when none dispatched).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.members as f64 / self.batches as f64
        }
    }
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    cfg: BatchConfig,
    gpus: Vec<Resource>,
    injectors: Vec<ContentionInjector>,
    open: Vec<DetectionRequest>,
    /// Member Vecs of completed batches, handed back by
    /// [`BatchScheduler::recycle`]; each becomes a later batch's `open`.
    spare: Vec<Vec<DetectionRequest>>,
    open_id: u64,
    next_id: u64,
    outstanding: usize,
    window_opens: Vec<WindowOpen>,
    dispatched: Vec<DispatchedBatch>,
    /// Aggregate counters.
    pub stats: BatchStats,
}

impl BatchScheduler {
    /// Builds the scheduler. `faults` is the *fleet* plan: each GPU derives
    /// a decorrelated contention injector from it by name-salting, so a
    /// brownout profile hits the pool's GPUs at different phases.
    pub fn new(cfg: BatchConfig, faults: &FaultPlan) -> Self {
        let gpus: Vec<Resource> = (0..cfg.gpus.max(1))
            .map(|i| Resource::new(&format!("gpu-{i}")))
            .collect();
        let injectors = (0..gpus.len())
            .map(|i| faults.for_stream(&format!("gpu-{i}")).contention())
            .collect();
        Self {
            cfg,
            gpus,
            injectors,
            open: Vec::new(),
            spare: Vec::new(),
            open_id: 0,
            next_id: 1,
            outstanding: 0,
            window_opens: Vec::new(),
            dispatched: Vec::new(),
            stats: BatchStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Requests currently submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Submits a detection request at `now`. Returns `false` when the
    /// outstanding bound refuses it (backpressure) — the stream sheds.
    pub fn submit(&mut self, now: SimTime, request: DetectionRequest) -> bool {
        if self.outstanding >= self.cfg.queue_capacity {
            self.stats.rejected += 1;
            return false;
        }
        self.outstanding += 1;
        if self.open.is_empty() {
            self.window_opens.push(WindowOpen {
                batch: self.open_id,
                deadline: SimTime::from_ms(now.as_ms() + self.cfg.window_ms.max(0.0)),
            });
        }
        self.open.push(request);
        if self.open.len() >= self.cfg.max_batch.max(1) {
            self.stats.closed_on_size += 1;
            self.dispatch(now);
        }
        true
    }

    /// Window-deadline event for batch `batch` fired at `now`. A no-op when
    /// that batch already closed on size (the id moved on).
    pub fn window_closed(&mut self, batch: u64, now: SimTime) {
        if batch == self.open_id && !self.open.is_empty() {
            self.dispatch(now);
        }
    }

    /// Marks a dispatched batch's members complete, releasing queue slots.
    ///
    /// Invariant: `outstanding` counts exactly the members of dispatched,
    /// uncompleted batches, and the fleet driver calls `complete` once per
    /// `BatchDone` event — so the subtraction cannot underflow. The
    /// saturating form keeps that true even under `overflow-checks = true`
    /// with a buggy caller, while the debug_assert still catches the bug
    /// in tests.
    pub fn complete(&mut self, members: usize) {
        debug_assert!(self.outstanding >= members, "completing unknown members");
        self.outstanding = self.outstanding.saturating_sub(members);
    }

    /// Hands a completed batch's member Vec back once the driver is done
    /// with it; a later dispatch reuses it as the next open batch, so a
    /// steady-state batch allocates nothing.
    pub fn recycle(&mut self, mut members: Vec<DetectionRequest>) {
        members.clear();
        self.spare.push(members);
    }

    /// Window deadlines the driver must arm events for, drained in place
    /// (the buffer keeps its capacity).
    pub fn drain_window_opens(&mut self) -> std::vec::Drain<'_, WindowOpen> {
        self.window_opens.drain(..)
    }

    /// Batches dispatched since the last drain, drained in place; the
    /// driver arms completion events at each batch's `end`.
    pub fn drain_dispatched(&mut self) -> std::vec::Drain<'_, DispatchedBatch> {
        self.dispatched.drain(..)
    }

    // adavp-lint: allow(panic-surface, item=dispatch) — GpuPool::new asserts a non-empty pool, so min_by over the GPUs always yields one
    fn dispatch(&mut self, now: SimTime) {
        let next_open = self.spare.pop().unwrap_or_default();
        let members = std::mem::replace(&mut self.open, next_open);
        let id = self.open_id;
        self.open_id = self.next_id;
        self.next_id += 1;

        // Least-loaded GPU, ties to the lowest index — deterministic.
        let gpu = (0..self.gpus.len())
            .min_by(|&a, &b| {
                self.gpus[a]
                    .available_at()
                    .cmp(&self.gpus[b].available_at())
                    .then(a.cmp(&b))
            })
            .expect("pool has at least one GPU");
        // Contention bursts due by the scheduling horizon land first, so
        // the batch queues behind co-tenant work exactly like mpdt's
        // detections do.
        let horizon = now.max(self.gpus[gpu].available_at());
        self.injectors[gpu].inject_until(horizon, &mut self.gpus[gpu]);

        let duration = batch_ms(members.iter().map(|m| m.member_ms));
        let (start, end) = self.gpus[gpu].schedule(now, SimTime::from_ms(duration));

        self.stats.batches += 1;
        self.stats.members += members.len() as u64;
        self.dispatched.push(DispatchedBatch {
            id,
            gpu,
            start,
            end,
            members,
        });
    }

    /// Total GPU-busy time across the pool, in ms (includes contention).
    pub fn total_gpu_busy_ms(&self) -> f64 {
        self.gpus.iter().map(|g| g.total_busy().as_ms()).sum()
    }

    /// Busy time of each GPU in the pool, in ms, in GPU-index order
    /// (feeds the per-GPU metrics gauges).
    pub fn per_gpu_busy_ms(&self) -> Vec<f64> {
        self.gpus.iter().map(|g| g.total_busy().as_ms()).collect()
    }

    /// Mean pool utilization over `[0, horizon]`.
    pub fn pool_utilization(&self, horizon: SimTime) -> f64 {
        if self.gpus.is_empty() {
            return 0.0;
        }
        self.gpus
            .iter()
            .map(|g| g.utilization(horizon))
            .sum::<f64>()
            / self.gpus.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_sim::FaultProfile;

    fn req(stream: usize, ms: f64) -> DetectionRequest {
        DetectionRequest {
            stream,
            cycle: 0,
            member_ms: ms,
            failed: false,
            timed_out: false,
        }
    }

    fn ms(v: f64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn batch_closes_on_size() {
        let cfg = BatchConfig {
            max_batch: 3,
            window_ms: 1000.0,
            ..Default::default()
        };
        let mut s = BatchScheduler::new(cfg, &FaultPlan::none());
        assert!(s.submit(ms(0.0), req(0, 100.0)));
        assert!(s.submit(ms(5.0), req(1, 100.0)));
        assert!(
            s.drain_dispatched().collect::<Vec<_>>().is_empty(),
            "not full yet"
        );
        assert!(s.submit(ms(10.0), req(2, 100.0)));
        let batches = s.drain_dispatched().collect::<Vec<_>>();
        assert_eq!(batches.len(), 1, "third member closed the batch");
        let b = &batches[0];
        assert_eq!(b.members.len(), 3);
        assert_eq!(b.start, ms(10.0), "dispatched at the closing submit");
        assert_eq!(s.stats.closed_on_size, 1);
        // The armed window deadline is now stale: firing it is a no-op.
        let opens = s.drain_window_opens().collect::<Vec<_>>();
        assert_eq!(opens.len(), 1);
        assert_eq!(opens[0].deadline, ms(1000.0));
        s.window_closed(opens[0].batch, opens[0].deadline);
        assert!(
            s.drain_dispatched().collect::<Vec<_>>().is_empty(),
            "stale window must no-op"
        );
    }

    #[test]
    fn batch_closes_on_window_deadline() {
        let cfg = BatchConfig {
            max_batch: 8,
            window_ms: 50.0,
            ..Default::default()
        };
        let mut s = BatchScheduler::new(cfg, &FaultPlan::none());
        assert!(s.submit(ms(10.0), req(0, 200.0)));
        assert!(s.submit(ms(30.0), req(1, 100.0)));
        let opens = s.drain_window_opens().collect::<Vec<_>>();
        assert_eq!(opens.len(), 1, "window armed by the first member only");
        assert_eq!(opens[0].deadline, ms(60.0));
        s.window_closed(opens[0].batch, opens[0].deadline);
        let batches = s.drain_dispatched().collect::<Vec<_>>();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].members.len(), 2, "partial batch dispatched");
        assert_eq!(batches[0].start, ms(60.0), "dispatched at the deadline");
        assert_eq!(s.stats.closed_on_size, 0);
    }

    #[test]
    fn sublinear_batch_beats_singletons_on_the_same_pool() {
        let mk = |max_batch: usize, window: f64| BatchConfig {
            max_batch,
            window_ms: window,
            gpus: 1,
            ..Default::default()
        };
        // Eight equal requests, all at t=0.
        let mut batched = BatchScheduler::new(mk(8, 100.0), &FaultPlan::none());
        let mut singles = BatchScheduler::new(mk(1, 0.0), &FaultPlan::none());
        for i in 0..8 {
            assert!(batched.submit(ms(0.0), req(i, 390.0)));
            assert!(singles.submit(ms(0.0), req(i, 390.0)));
        }
        let b_end = batched.drain_dispatched().collect::<Vec<_>>()[0].end;
        let s_end = singles
            .drain_dispatched()
            .collect::<Vec<_>>()
            .last()
            .map(|b| b.end)
            .expect("8 singleton batches");
        assert!(
            b_end.as_ms() * 1.5 < s_end.as_ms(),
            "batched {b_end:?} vs serial {s_end:?}"
        );
    }

    #[test]
    fn backpressure_bounds_outstanding() {
        let cfg = BatchConfig {
            max_batch: 2,
            queue_capacity: 4,
            ..Default::default()
        };
        let mut s = BatchScheduler::new(cfg, &FaultPlan::none());
        for i in 0..4 {
            assert!(s.submit(ms(0.0), req(i, 100.0)), "slot {i} fits");
        }
        assert_eq!(s.outstanding(), 4);
        assert!(!s.submit(ms(0.0), req(9, 100.0)), "bound refuses");
        assert_eq!(s.stats.rejected, 1);
        // Completion releases slots.
        let done: usize = s
            .drain_dispatched()
            .collect::<Vec<_>>()
            .iter()
            .map(|b| b.members.len())
            .sum();
        s.complete(done);
        assert_eq!(s.outstanding(), 4 - done);
        assert!(s.submit(ms(1.0), req(9, 100.0)), "slot freed");
    }

    #[test]
    fn least_loaded_gpu_wins_ties_by_index() {
        let cfg = BatchConfig {
            max_batch: 1,
            window_ms: 0.0,
            gpus: 2,
            ..Default::default()
        };
        let mut s = BatchScheduler::new(cfg, &FaultPlan::none());
        assert!(s.submit(ms(0.0), req(0, 100.0)));
        assert!(s.submit(ms(0.0), req(1, 100.0)));
        assert!(s.submit(ms(0.0), req(2, 100.0)));
        let batches = s.drain_dispatched().collect::<Vec<_>>();
        assert_eq!(batches[0].gpu, 0, "idle tie → lowest index");
        assert_eq!(batches[1].gpu, 1, "second goes to the other GPU");
        assert_eq!(batches[2].gpu, 0, "third back to the earliest-free");
        assert!(batches[2].start > batches[0].start);
    }

    #[test]
    fn contention_decorrelates_across_gpus() {
        let plan = FaultPlan::new(FaultProfile::brownout(11));
        let cfg = BatchConfig {
            max_batch: 1,
            window_ms: 0.0,
            gpus: 2,
            ..Default::default()
        };
        let mut s = BatchScheduler::new(cfg.clone(), &plan);
        // Dispatch alternating work far enough out to pull in bursts.
        for i in 0..20 {
            assert!(s.submit(ms(i as f64 * 300.0), req(i, 200.0)));
            let done: usize = s
                .drain_dispatched()
                .collect::<Vec<_>>()
                .iter()
                .map(|b| b.members.len())
                .sum();
            s.complete(done);
        }
        // Both GPUs saw contention, and not the identical schedule: the
        // busy totals include decorrelated burst time.
        let busy0 = s.gpus[0].total_busy().as_ms();
        let busy1 = s.gpus[1].total_busy().as_ms();
        assert!(busy0 > 0.0 && busy1 > 0.0);
        assert_ne!(busy0, busy1, "per-GPU injectors must decorrelate");
        // And a quiet plan injects nothing at all.
        let mut quiet = BatchScheduler::new(cfg, &FaultPlan::none());
        assert!(quiet.submit(ms(0.0), req(0, 100.0)));
        let b = quiet.drain_dispatched().collect::<Vec<_>>().remove(0);
        assert_eq!(b.start, ms(0.0));
    }

    /// Batches on four GPUs under contention complete out of dispatch
    /// order and hand their member Vecs back. Each handed-back Vec becomes
    /// exactly one later batch's members, and fresh Vecs are only made
    /// while the number of batches alive at once grows.
    #[test]
    fn completed_member_vecs_are_reused_once_each() {
        let cfg = BatchConfig {
            max_batch: 3,
            window_ms: 1000.0,
            queue_capacity: 64,
            gpus: 4,
        };
        let mut s = BatchScheduler::new(cfg, &FaultPlan::new(FaultProfile::brownout(11)));
        let mut in_flight: Vec<DispatchedBatch> = Vec::new();
        // Buffers handed back and not yet taken, in hand-back order.
        let mut waiting: Vec<*const DetectionRequest> = Vec::new();
        let (mut handed_back, mut reused, mut fresh, mut most_in_flight) = (0, 0, 0, 0);
        let (mut out_of_order, mut newest_done) = (false, None);
        for step in 0..600usize {
            let now = ms(step as f64 * 50.0);
            in_flight.sort_by(|a, b| a.end.cmp(&b.end).then(a.id.cmp(&b.id)));
            while in_flight.first().is_some_and(|b| b.end <= now) {
                let done = in_flight.remove(0);
                out_of_order |= newest_done.is_some_and(|id| done.id < id);
                newest_done = newest_done.max(Some(done.id));
                s.complete(done.members.len());
                waiting.push(done.members.as_ptr());
                handed_back += 1;
                s.recycle(done.members);
            }
            let member_ms = 40.0 + (step % 7) as f64 * 40.0;
            assert!(s.submit(now, req(step % 16, member_ms)));
            for batch in s.drain_dispatched() {
                let buffer = batch.members.as_ptr();
                assert!(
                    in_flight.iter().all(|b| b.members.as_ptr() != buffer),
                    "batch {} shares a buffer with one in flight",
                    batch.id
                );
                match waiting.iter().position(|&w| w == buffer) {
                    Some(i) => {
                        waiting.remove(i);
                        reused += 1;
                    }
                    None => fresh += 1,
                }
                in_flight.push(batch);
                most_in_flight = most_in_flight.max(in_flight.len());
            }
        }
        assert!(out_of_order, "batches must complete out of dispatch order");
        assert!(handed_back > 100, "{handed_back} batches completed");
        // Every handed-back Vec was taken once, except any still waiting.
        assert_eq!(reused + waiting.len(), handed_back);
        // Fresh Vecs only while the batches alive at once grew: at most one
        // per batch in flight plus the open one.
        assert!(fresh <= most_in_flight + 1, "{fresh} fresh member Vecs");
        assert!(reused > 10 * fresh, "{reused} reused, {fresh} fresh");
    }

    #[test]
    fn unbatched_variant_is_singleton() {
        let cfg = BatchConfig::default().unbatched();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.window_ms, 0.0);
        assert!(cfg.queue_capacity >= cfg.gpus);
    }
}
