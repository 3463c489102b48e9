//! Deterministic, jobs-bounded work-queue executor for the offline harness.
//!
//! It runs a list of independent work items over a bounded worker pool:
//! clip renders, training runs and per-clip scheme evaluations in the
//! harness, and the cells of the serve sweep. It is the workspace's only
//! level of parallelism: every vision kernel runs on its caller's thread,
//! so the thread count is the `jobs` this executor was built with. It is
//! built on `std::thread::scope` — the build environment is offline, so no
//! rayon — and keeps three guarantees:
//!
//! 1. **Bit-identical results.** Items are claimed from a shared atomic
//!    counter (a contended queue), but every result is placed back into its
//!    item's slot, so the returned `Vec` is always in index order — exactly
//!    what the sequential loop produces, regardless of `jobs` or
//!    scheduling. Callers must pass closures that are pure functions of the
//!    item (true for everything seeded in this workspace).
//! 2. **Counter transparency.** Worker threads start with fresh
//!    thread-local [`crate::perf`] counters which are merged into the
//!    calling thread after the join, so a snapshot taken around a map
//!    counts the same work at any `jobs` (the `experiments` binary's
//!    buffer-reuse line reads one after the whole run).
//! 3. **Graceful degradation.** With `jobs <= 1` (or one item) the map runs
//!    inline on the calling thread with no spawn cost.
//!
//! # Example
//!
//! ```
//! use adavp_vision::exec::Executor;
//! let seq = Executor::sequential();
//! let par = Executor::new(4);
//! let items: Vec<u32> = (0..100).collect();
//! let a = seq.map(&items, |_, &v| v * v);
//! let b = par.map(&items, |_, &v| v * v);
//! assert_eq!(a, b); // index order, bit-identical
//! ```

use crate::perf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's core count (`std::thread::available_parallelism`, 1 when
/// unknown): the default `jobs` of [`Executor::available`].
fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A bounded pool of worker threads mapping closures over index ranges,
/// with results collected in index order.
///
/// `Executor` is a plain value (`Copy`): it carries only the worker budget,
/// and threads are scoped to each [`map`](Executor::map) call, so it can be
/// stored in configs and passed across crate boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor running up to `jobs` work items concurrently
    /// (`jobs = 0` is treated as 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The single-threaded executor (runs every map inline).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// An executor sized to the host: one job per core
    /// (`std::thread::available_parallelism`, 1 when unknown).
    pub fn available() -> Self {
        Self::new(max_threads())
    }

    /// The concurrency bound this executor was built with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f(index)` for every index in `0..len`, returning results in
    /// index order. Work items are claimed dynamically from a shared queue,
    /// so uneven item costs still load-balance across the pool.
    pub fn map_range<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.jobs.min(len);
        if workers <= 1 {
            return (0..len).map(f).collect();
        }

        let next = AtomicUsize::new(0);
        // Each thread drains the queue into a local (index, result) list;
        // results are scattered back into index-ordered slots after joining,
        // so claim order never leaks into the output.
        let drain = |_worker: usize| -> Vec<(usize, R)> {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    return local;
                }
                local.push((i, f(i)));
            }
        };

        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(len, || None);
        let mut worker_counters: Vec<perf::KernelCounters> = Vec::new();
        std::thread::scope(|scope| {
            let drain = &drain;
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let out = drain(w);
                        (out, perf::snapshot())
                    })
                })
                .collect();
            for (i, r) in drain(0) {
                slots[i] = Some(r);
            }
            for h in handles {
                let (out, counters) = h.join().expect("executor worker panicked");
                for (i, r) in out {
                    slots[i] = Some(r);
                }
                worker_counters.push(counters);
            }
        });
        for c in &worker_counters {
            perf::merge(c);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index produced a result"))
            .collect()
    }

    /// Applies `f(index, item)` to every item of `items`, returning results
    /// in item order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_range(items.len(), |i| f(i, &items[i]))
    }
}

impl Default for Executor {
    /// Defaults to sequential: parallelism is always an explicit opt-in.
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn zero_jobs_is_clamped() {
        assert_eq!(Executor::new(0).jobs(), 1);
    }

    #[test]
    fn map_handles_empty_and_single() {
        let ex = Executor::new(4);
        assert_eq!(ex.map(&[] as &[u8], |_, &v| v), Vec::<u8>::new());
        assert_eq!(ex.map(&[9u8], |i, &v| (i, v)), vec![(0, 9)]);
    }

    #[test]
    fn preserves_index_order_under_contended_queue() {
        // Many tiny items with deliberately uneven costs: workers race on
        // the claim counter and finish out of order, yet the output must be
        // exactly the sequential result.
        let items: Vec<u64> = (0..997).collect();
        let seq: Vec<(usize, u64)> = items.iter().enumerate().map(|(i, &v)| (i, v * 3)).collect();
        for jobs in [2, 3, 8, 32] {
            let par = Executor::new(jobs).map(&items, |i, &v| {
                // Skew work so late indices finish first on some workers.
                let spins = (v % 7) * 400;
                let mut acc = 0u64;
                for k in 0..spins {
                    acc = acc.wrapping_add(k);
                }
                std::hint::black_box(acc);
                (i, v * 3)
            });
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn all_items_claimed_exactly_once() {
        let n = 500;
        let claims: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let _ = Executor::new(8).map_range(n, |i| {
            claims[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} claim count");
        }
    }

    #[test]
    fn worker_perf_counters_merge_into_caller() {
        perf::reset();
        let _ = Executor::new(4).map_range(40, |_| {
            perf::record(|c| c.lk_iterations += 1);
        });
        assert_eq!(perf::snapshot().lk_iterations, 40);
    }

    #[test]
    fn sequential_executor_runs_inline() {
        let tid = std::thread::current().id();
        let seen = Executor::sequential().map_range(5, |_| std::thread::current().id());
        assert!(seen.iter().all(|&t| t == tid));
    }
}
