//! Deterministic data-parallel fan-out for the vision kernels.
//!
//! Built on `std::thread::scope` rather than an external thread pool: the
//! build environment for this repo is fully offline, so the crate cannot
//! take a `rayon` dependency. The helper below provides the same
//! "parallel map over an index range" shape with three guarantees:
//!
//! 1. **Bit-identical results.** Work items are pure functions of their
//!    index; results are collected in index order, so output is exactly
//!    what the sequential loop produces (verified by the LK parity tests).
//! 2. **Counter transparency.** Worker threads start with fresh
//!    thread-local [`crate::perf`] counters; after the join, each worker's
//!    counters are merged into the calling thread, so observability behaves
//!    as if the work ran sequentially.
//! 3. **Graceful degradation.** With one band (or one available core by
//!    default) the fan-out short-circuits to a plain loop on the calling
//!    thread — no spawn cost, no behavioural difference.
//!
//! Swapping in rayon later is a one-function change: replace the body of
//! [`map_bands`] with `par_iter` over the band ranges.

use crate::perf;
use std::sync::OnceLock;

/// Number of worker threads the automatic parallel paths target
/// (`std::thread::available_parallelism`, 1 when unknown).
///
/// Read once per process and cached: on Linux the query reads cgroup
/// files (tens of microseconds), and it would otherwise run once per
/// corner scan and once per large Lucas-Kanade call.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of bands a row-scan of `rows` rows should fan out over: the
/// available core count when the `parallel` feature is on and the scan is
/// large enough to amortize spawning, otherwise 1 (inline).
pub(crate) fn scan_bands(rows: usize) -> usize {
    #[cfg(feature = "parallel")]
    {
        if rows >= 32 {
            return max_threads();
        }
    }
    let _ = rows;
    1
}

/// Splits `0..len` into at most `bands` contiguous ranges of near-equal
/// size (empty ranges are never produced). Public so other crates (e.g. the
/// rasterizer's row-band fan-out) can reuse the same banding scheme.
pub fn band_ranges(len: usize, bands: usize) -> Vec<(usize, usize)> {
    let bands = bands.clamp(1, len.max(1));
    let base = len / bands;
    let extra = len % bands;
    let mut out = Vec::with_capacity(bands);
    let mut start = 0usize;
    for b in 0..bands {
        let size = base + usize::from(b < extra);
        if size == 0 {
            break;
        }
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Applies `f` to each band of `0..len` (at most `bands` bands) and returns
/// the per-band results in band order.
///
/// `f` receives the half-open index range `(start, end)` of its band. With
/// a single band the call runs inline on the current thread.
pub(crate) fn map_bands<R, F>(len: usize, bands: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let ranges = band_ranges(len, bands);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(|(s, e)| f(s, e)).collect();
    }
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(ranges.len(), || None);
    let mut worker_counters: Vec<perf::KernelCounters> = Vec::new();
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(ranges.len() - 1);
        // Bands 1.. on worker threads, band 0 on the calling thread.
        for &(s, e) in &ranges[1..] {
            handles.push(scope.spawn(move || {
                let r = f(s, e);
                (r, perf::snapshot())
            }));
        }
        let (s0, e0) = ranges[0];
        results[0] = Some(f(s0, e0));
        for (i, h) in handles.into_iter().enumerate() {
            let (r, counters) = h.join().expect("vision worker thread panicked");
            results[i + 1] = Some(r);
            worker_counters.push(counters);
        }
    });
    for c in &worker_counters {
        perf::merge(c);
    }
    results
        .into_iter()
        .map(|r| r.expect("every band produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parallel map over a slice via [`map_bands`], mirroring how the flow
    /// and corner kernels consume it.
    fn map_items<T: Sync, R: Send>(
        items: &[T],
        bands: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let per_band = map_bands(items.len(), bands, |s, e| {
            items[s..e]
                .iter()
                .enumerate()
                .map(|(off, it)| f(s + off, it))
                .collect::<Vec<R>>()
        });
        per_band.into_iter().flatten().collect()
    }

    #[test]
    fn band_ranges_cover_without_overlap() {
        for len in [0usize, 1, 2, 5, 16, 97] {
            for bands in [1usize, 2, 3, 7, 200] {
                let r = band_ranges(len, bands);
                let mut cursor = 0;
                for &(s, e) in &r {
                    assert_eq!(s, cursor, "len={len} bands={bands}");
                    assert!(e > s, "empty band for len={len} bands={bands}");
                    cursor = e;
                }
                assert_eq!(cursor, len, "len={len} bands={bands}");
                assert!(r.len() <= bands.max(1));
            }
        }
    }

    #[test]
    fn map_items_matches_sequential() {
        let items: Vec<u64> = (0..103).collect();
        let seq: Vec<u64> = items.iter().map(|&v| v * v + 1).collect();
        for bands in [1, 2, 3, 8] {
            let par = map_items(&items, bands, |_, &v| v * v + 1);
            assert_eq!(par, seq, "bands={bands}");
        }
    }

    #[test]
    fn worker_counters_merge_into_caller() {
        perf::reset();
        let items = [1u32; 12];
        let _ = map_items(&items, 4, |_, _| {
            perf::record(|c| c.lk_iterations += 1);
        });
        assert_eq!(
            perf::snapshot().lk_iterations,
            12,
            "all worker increments must merge back"
        );
    }

    #[test]
    fn single_band_runs_inline() {
        let items = [7u8, 8, 9];
        let out = map_items(&items, 1, |i, &v| (i, v));
        assert_eq!(out, vec![(0, 7), (1, 8), (2, 9)]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
