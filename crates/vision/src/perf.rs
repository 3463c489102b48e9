//! Lightweight per-kernel performance counters.
//!
//! Every hot kernel in this crate (pyramid construction, Gaussian blur,
//! downsampling, Scharr gradients, corner scans, Lucas-Kanade) bumps a
//! thread-local counter and accumulates its wall-clock time here. The
//! counters give higher layers (the tracker's `StepStats`, the bench
//! harness) a per-kernel cost breakdown without any external profiler, and
//! let tests assert structural properties such as "exactly one pyramid
//! build per new frame".
//!
//! Counters are **thread-local** so concurrent trackers (or concurrent
//! tests) never observe each other's work. Every kernel runs on its
//! caller's thread; the [`crate::exec::Executor`] merges its worker
//! threads' counters back into the calling thread, so from the caller's
//! perspective the numbers behave as if the map had run sequentially.
//!
//! Two counters show whether the per-frame path allocates: every kernel
//! buffer (pyramid level, gradient plane, row ring) is sized through one
//! helper, which counts a fresh allocation in `buffers_allocated` and a
//! buffer that a [`crate::pyramid::Pyramid::rebuild`] kept in
//! `buffers_reused`.
//!
//! # Example
//!
//! ```
//! use adavp_vision::{perf, image::GrayImage, pyramid::Pyramid};
//! let before = perf::snapshot();
//! let _pyr = Pyramid::build(&GrayImage::new(64, 64), 3);
//! let work = perf::snapshot().since(&before);
//! assert_eq!(work.pyramid_builds, 1);
//! assert_eq!(work.gaussian_blurs, 2); // one blur per derived level
//! ```

use std::cell::Cell;
use std::time::Instant;

/// Cumulative per-kernel work counters for the current thread.
///
/// Obtain with [`snapshot`]; subtract two snapshots with
/// [`KernelCounters::since`] to get the work done in between.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Full pyramid constructions ([`crate::pyramid::Pyramid::build`]).
    pub pyramid_builds: u64,
    /// Gaussian blur passes (one per derived pyramid level).
    pub gaussian_blurs: u64,
    /// 2x2 box downsample passes.
    pub downsamples: u64,
    /// Scharr gradient fields computed whole (only the whole-frame oracle
    /// in `reference` does; production computes tiles).
    pub gradient_fields: u64,
    /// Scharr gradient tiles computed on demand
    /// ([`crate::gradient::TiledGradients`]).
    pub gradient_tiles: u64,
    /// Shi-Tomasi corner-response scans.
    pub corner_scans: u64,
    /// Calls into pyramidal Lucas-Kanade (one per tracked frame pair).
    pub lk_calls: u64,
    /// Points given to Lucas-Kanade.
    pub lk_points: u64,
    /// Newton iterations executed inside Lucas-Kanade.
    pub lk_iterations: u64,
    /// Kernel buffers (pyramid levels, gradient planes, row rings) freshly
    /// allocated from the heap.
    pub buffers_allocated: u64,
    /// Kernel buffers a [`crate::pyramid::Pyramid::rebuild`] kept and
    /// refilled in place.
    pub buffers_reused: u64,
    /// Image rows processed by the `u16` fixed-point blur and box
    /// downsample kernels.
    pub fixed_point_rows: u64,
    /// Nanoseconds spent building pyramids (blur + downsample included).
    pub pyramid_ns: u64,
    /// Nanoseconds spent computing gradient fields and tiles.
    pub gradient_ns: u64,
    /// Nanoseconds spent in Lucas-Kanade tracking.
    pub flow_ns: u64,
    /// Nanoseconds spent in corner detection.
    pub corner_ns: u64,
}

macro_rules! for_each_field {
    ($macro_body:ident, $a:expr, $b:expr) => {{
        $macro_body!(pyramid_builds, $a, $b);
        $macro_body!(gaussian_blurs, $a, $b);
        $macro_body!(downsamples, $a, $b);
        $macro_body!(gradient_fields, $a, $b);
        $macro_body!(gradient_tiles, $a, $b);
        $macro_body!(corner_scans, $a, $b);
        $macro_body!(lk_calls, $a, $b);
        $macro_body!(lk_points, $a, $b);
        $macro_body!(lk_iterations, $a, $b);
        $macro_body!(buffers_allocated, $a, $b);
        $macro_body!(buffers_reused, $a, $b);
        $macro_body!(fixed_point_rows, $a, $b);
        $macro_body!(pyramid_ns, $a, $b);
        $macro_body!(gradient_ns, $a, $b);
        $macro_body!(flow_ns, $a, $b);
        $macro_body!(corner_ns, $a, $b);
    }};
}

impl KernelCounters {
    /// The work done since an `earlier` snapshot (field-wise saturating
    /// subtraction, so a [`reset`] between the snapshots yields zeros
    /// rather than wrap-around garbage).
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        let mut out = KernelCounters::default();
        macro_rules! sub {
            ($f:ident, $o:expr, $p:expr) => {
                $o.$f = self.$f.saturating_sub($p.$f);
            };
        }
        for_each_field!(sub, out, earlier);
        out
    }

    /// Adds `other` into `self` field-wise (used when merging worker-thread
    /// counters back into the spawning thread).
    ///
    /// **Overflow invariant:** all counter arithmetic saturates —
    /// [`since`](Self::since) saturates down and `merge` saturates up — so
    /// a counter can pin at a bound but never wraps. Downstream consumers
    /// (telemetry span attributes, parity tests) may therefore treat every
    /// field as monotone under merge without overflow checks of their own.
    pub fn merge(&mut self, other: &KernelCounters) {
        macro_rules! add {
            ($f:ident, $s:expr, $o:expr) => {
                $s.$f = $s.$f.saturating_add($o.$f);
            };
        }
        for_each_field!(add, self, other);
    }

    /// The deterministic subset of the counters: work counts only, with
    /// every wall-clock `*_ns` field stripped. See [`KernelCounts`].
    pub fn counts(&self) -> KernelCounts {
        KernelCounts {
            pyramid_builds: self.pyramid_builds,
            gaussian_blurs: self.gaussian_blurs,
            downsamples: self.downsamples,
            gradient_fields: self.gradient_fields,
            gradient_tiles: self.gradient_tiles,
            corner_scans: self.corner_scans,
            lk_calls: self.lk_calls,
            lk_points: self.lk_points,
            lk_iterations: self.lk_iterations,
            buffers_allocated: self.buffers_allocated,
            buffers_reused: self.buffers_reused,
            fixed_point_rows: self.fixed_point_rows,
        }
    }
}

/// The deterministic, count-only view of [`KernelCounters`].
///
/// The full struct mixes structural work counts (deterministic for a given
/// input, identical across runs and thread counts) with wall-clock `*_ns`
/// timings (inherently noisy). Parity tests and the telemetry layer must
/// assert on — and record — *only* the former; this sub-struct makes the
/// split explicit. Obtain via [`KernelCounters::counts`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounts {
    /// Full pyramid constructions.
    pub pyramid_builds: u64,
    /// Gaussian blur passes.
    pub gaussian_blurs: u64,
    /// 2x2 box downsample passes.
    pub downsamples: u64,
    /// Scharr gradient fields computed whole.
    pub gradient_fields: u64,
    /// Scharr gradient tiles computed on demand.
    pub gradient_tiles: u64,
    /// Corner-response scans.
    pub corner_scans: u64,
    /// Calls into pyramidal Lucas-Kanade.
    pub lk_calls: u64,
    /// Points given to Lucas-Kanade.
    pub lk_points: u64,
    /// Newton iterations executed inside Lucas-Kanade.
    pub lk_iterations: u64,
    /// Kernel buffers freshly allocated from the heap.
    pub buffers_allocated: u64,
    /// Kernel buffers kept and refilled in place.
    pub buffers_reused: u64,
    /// Image rows processed by the fixed-point blur and downsample kernels.
    /// Structural: for a given input this is identical across runs and
    /// thread counts.
    pub fixed_point_rows: u64,
}

impl KernelCounts {
    /// Share of kernel buffers reused rather than allocated:
    /// `buffers_reused / (buffers_allocated + buffers_reused)`.
    /// `None` when no buffer was requested at all.
    pub fn scratch_hit_rate(&self) -> Option<f64> {
        let total = self.buffers_allocated + self.buffers_reused;
        if total == 0 {
            None
        } else {
            Some(self.buffers_reused as f64 / total as f64)
        }
    }
}

thread_local! {
    static COUNTERS: Cell<KernelCounters> = const { Cell::new(KernelCounters::default_const()) };
}

impl KernelCounters {
    const fn default_const() -> Self {
        KernelCounters {
            pyramid_builds: 0,
            gaussian_blurs: 0,
            downsamples: 0,
            gradient_fields: 0,
            gradient_tiles: 0,
            corner_scans: 0,
            lk_calls: 0,
            lk_points: 0,
            lk_iterations: 0,
            buffers_allocated: 0,
            buffers_reused: 0,
            fixed_point_rows: 0,
            pyramid_ns: 0,
            gradient_ns: 0,
            flow_ns: 0,
            corner_ns: 0,
        }
    }
}

/// Current thread's cumulative counters.
pub fn snapshot() -> KernelCounters {
    COUNTERS.with(|c| c.get())
}

/// Resets the current thread's counters to zero.
pub fn reset() {
    COUNTERS.with(|c| c.set(KernelCounters::default()));
}

/// Merges a worker thread's counters into the current thread.
///
/// Called by [`crate::exec::Executor`] after joining its workers; public
/// so another thread pool can preserve the "counters behave as if
/// sequential" invariant too.
pub fn merge(delta: &KernelCounters) {
    record(|c| c.merge(delta));
}

/// Applies a mutation to the current thread's counters.
pub(crate) fn record(f: impl FnOnce(&mut KernelCounters)) {
    COUNTERS.with(|cell| {
        let mut c = cell.get();
        f(&mut c);
        cell.set(c);
    });
}

/// A `len`-value buffer of `T::default()`, counted in
/// [`KernelCounters::buffers_allocated`]. Zero-filled memory comes from the
/// allocator already zeroed, so pages a kernel never writes are never
/// touched.
pub(crate) fn alloc<T: Clone + Default>(len: usize) -> Vec<T> {
    record(|c| c.buffers_allocated += 1);
    vec![T::default(); len]
}

/// Sizes a kernel buffer to `len` values that its kernel overwrites before
/// reading. A buffer with the room is kept, truncated or extended in place
/// and never re-zeroed, and counted in [`KernelCounters::buffers_reused`];
/// one without is replaced by [`alloc`].
pub(crate) fn fit<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() < len.max(1) {
        *buf = alloc(len);
        return;
    }
    record(|c| c.buffers_reused += 1);
    buf.resize(len, T::default());
}

/// RAII timer: adds the elapsed nanoseconds to one counter field on drop.
pub(crate) struct ScopedTimer {
    start: Instant,
    field: fn(&mut KernelCounters) -> &mut u64,
}

impl ScopedTimer {
    pub(crate) fn new(field: fn(&mut KernelCounters) -> &mut u64) -> Self {
        Self {
            // adavp-lint: allow(wallclock) — perf counters time real kernel work; counts() strips every *_ns field before any deterministic export
            start: Instant::now(),
            field,
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        let field = self.field;
        record(|c| *field(c) += ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_keeps_a_buffer_with_room_and_never_rezeroes_it() {
        reset();
        let mut buf: Vec<u16> = Vec::new();
        fit(&mut buf, 8);
        assert_eq!((buf.len(), snapshot().buffers_allocated), (8, 1));
        buf.fill(7);
        fit(&mut buf, 4);
        fit(&mut buf, 6);
        assert_eq!(&buf[..4], &[7; 4], "a kept buffer is truncated, not memset");
        assert_eq!(buf.len(), 6);
        let s = snapshot();
        assert_eq!((s.buffers_allocated, s.buffers_reused), (1, 2));
        // Too little room: a fresh zeroed buffer replaces it.
        fit(&mut buf, 64);
        assert_eq!(buf, vec![0; 64]);
        assert_eq!(snapshot().buffers_allocated, 2);
    }

    #[test]
    fn snapshot_diff_and_reset() {
        reset();
        let a = snapshot();
        record(|c| {
            c.lk_points += 5;
            c.flow_ns += 100;
        });
        let d = snapshot().since(&a);
        assert_eq!(d.lk_points, 5);
        assert_eq!(d.flow_ns, 100);
        assert_eq!(d.pyramid_builds, 0);
        reset();
        assert_eq!(snapshot(), KernelCounters::default());
    }

    #[test]
    fn since_saturates_after_reset() {
        record(|c| c.lk_calls += 3);
        let a = snapshot();
        reset();
        let d = snapshot().since(&a);
        assert_eq!(d.lk_calls, 0, "saturating diff must not wrap");
    }

    #[test]
    fn merge_adds_fieldwise() {
        reset();
        let a = KernelCounters {
            pyramid_builds: 2,
            buffers_reused: 7,
            ..KernelCounters::default()
        };
        merge(&a);
        merge(&a);
        let s = snapshot();
        assert_eq!(s.pyramid_builds, 4);
        assert_eq!(s.buffers_reused, 14);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = KernelCounters {
            lk_points: u64::MAX - 1,
            ..KernelCounters::default()
        };
        let b = KernelCounters {
            lk_points: 5,
            ..KernelCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.lk_points, u64::MAX, "merge must saturate, not wrap");
    }

    #[test]
    fn counts_strips_wall_clock_fields() {
        let c = KernelCounters {
            lk_calls: 3,
            buffers_allocated: 1,
            buffers_reused: 3,
            flow_ns: 123_456, // wall-clock noise must not survive
            ..KernelCounters::default()
        };
        let k = c.counts();
        assert_eq!(k.lk_calls, 3);
        assert_eq!(k.scratch_hit_rate(), Some(0.75));
        assert_eq!(KernelCounts::default().scratch_hit_rate(), None);
        // Two counters differing only in ns fields have equal counts.
        let mut d = c;
        d.flow_ns = 999;
        d.corner_ns = 1;
        assert_eq!(c.counts(), d.counts());
    }

    #[test]
    fn timer_accumulates_time() {
        reset();
        {
            let _t = ScopedTimer::new(|c| &mut c.corner_ns);
            std::hint::black_box(0u64);
        }
        assert!(snapshot().corner_ns > 0);
    }

    #[test]
    fn counters_are_thread_local() {
        reset();
        record(|c| c.lk_calls += 1);
        let other = std::thread::spawn(|| snapshot().lk_calls).join().unwrap();
        assert_eq!(other, 0, "fresh thread must start from zero");
        assert_eq!(snapshot().lk_calls, 1);
    }
}
