//! Fixed-bucket histograms with exact percentiles.
//!
//! The telemetry layer replaces the means-only view of [`crate::analysis`]
//! with distributions. Two determinism rules shape the implementation:
//!
//! 1. **Bucket counts are integers** bucketed against a fixed edge table,
//!    so accumulation order can never perturb them.
//! 2. **Percentiles are exact** (nearest-rank over the retained samples,
//!    ordered by [`f64::total_cmp`]) rather than interpolated from buckets
//!    — `p50` of a recorded distribution is a value that was actually
//!    recorded, and merging histograms in any order yields bit-identical
//!    percentiles.
//!
//! Aggregate statistics ([`Histogram::mean`]) likewise sum in sorted order,
//! never insertion order, so a histogram assembled from parallel shards is
//! bit-identical to its sequential twin.
//!
//! Because every statistic reads the samples in `total_cmp` order, the
//! stored order is not observable. An owner that reads a histogram more
//! than once (the metrics registry) sorts it in place once; every later
//! statistic then borrows the samples instead of cloning and sorting them.
//! Sorted histograms also combine by a linear merge
//! (`Histogram::merge_sorted`) whose result is sorted already.

use std::borrow::Cow;

/// Exact p50/p90/p99 and maximum of a recorded distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest recorded sample (the 100th percentile).
    pub max: f64,
}

/// Bucket edges for detection-cycle / frame latencies in milliseconds.
///
/// Spans the Table II regime (tracker steps: a few ms) through detection
/// latencies (60-850 ms) up to the degradation budget (2000 ms) and beyond.
pub const LATENCY_MS_EDGES: [f64; 18] = [
    5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0, 650.0, 850.0,
    1000.0, 1500.0, 2000.0, 4000.0,
];

/// Bucket edges for content-change velocity in px/frame (Eq. 3 regime:
/// the trained thresholds all fall between ~0.3 and ~4 px/frame).
pub const VELOCITY_EDGES: [f64; 12] = [
    0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0,
];

/// A fixed-bucket histogram that also retains every sample for exact
/// percentiles. See the module docs for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates a histogram over the given ascending bucket upper edges.
    /// Values above the last edge land in an implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, non-finite, or not strictly ascending.
    pub fn with_edges(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        for w in edges.windows(2) {
            assert!(w[0] < w[1], "edges must be strictly ascending");
        }
        assert!(edges.iter().all(|e| e.is_finite()), "edges must be finite");
        Self {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            samples: Vec::new(),
        }
    }

    /// A histogram with the standard latency buckets ([`LATENCY_MS_EDGES`]).
    pub fn latency_ms() -> Self {
        Self::with_edges(&LATENCY_MS_EDGES)
    }

    /// A histogram with the standard velocity buckets ([`VELOCITY_EDGES`]).
    pub fn velocity() -> Self {
        Self::with_edges(&VELOCITY_EDGES)
    }

    /// Records one sample. Non-finite values are ignored (they carry no
    /// ordering and would poison the percentile ranks).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let bucket = self.edges.partition_point(|&e| e < v);
        self.counts[bucket] += 1;
        self.samples.push(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Bucket upper edges this histogram was built with.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts; the final entry is the overflow bucket (values
    /// above the last edge).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reserves room for `additional` more samples, so recording a known
    /// number of them grows the buffer once.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Sorts the retained samples in place by [`f64::total_cmp`]. No
    /// statistic changes; later ones borrow the samples instead of
    /// cloning and sorting them.
    ///
    /// The sort is unstable, which allocates nothing, and still gives the
    /// bytes a stable sort would: two values equal under `total_cmp` have
    /// the same bits, so no order among them can be told apart.
    pub(crate) fn sort_samples(&mut self) {
        sort_total(&mut self.samples);
    }

    /// The samples in `total_cmp` order: borrowed when they are already
    /// sorted (an O(n) check), else a sorted copy.
    fn sorted(&self) -> Cow<'_, [f64]> {
        if self.samples.is_sorted_by(|a, b| a.total_cmp(b).is_le()) {
            Cow::Borrowed(&self.samples)
        } else {
            let mut s = self.samples.clone();
            sort_total(&mut s);
            Cow::Owned(s)
        }
    }

    /// Exact nearest-rank percentile: the smallest recorded value such that
    /// at least `p`% of samples are ≤ it. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < p <= 100.0`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        if self.samples.is_empty() {
            return None;
        }
        Some(nearest_rank(&self.sorted(), p))
    }

    /// Exact p50/p90/p99 and the maximum, or `None` when empty: the
    /// [`Histogram::percentile`] values from one sorted view.
    pub fn percentiles(&self) -> Option<Percentiles> {
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        Some(Percentiles {
            p50: nearest_rank(&sorted, 50.0),
            p90: nearest_rank(&sorted, 90.0),
            p99: nearest_rank(&sorted, 99.0),
            max: nearest_rank(&sorted, 100.0),
        })
    }

    /// Mean over the recorded samples, summed in sorted order so the result
    /// does not depend on insertion order.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        Some(sorted.iter().sum::<f64>() / sorted.len() as f64)
    }

    /// Folds another histogram into this one. Percentiles of the merged
    /// histogram are independent of merge order.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms use different bucket edges.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_counts(other);
        self.samples.extend_from_slice(&other.samples);
    }

    /// The histogram of every part's samples, built by a linear merge of
    /// the parts' sorted runs, so its samples come out sorted. Each part
    /// must already be sorted ([`Histogram::sort_samples`]). Bucket counts
    /// add as in [`Histogram::merge`].
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the parts use different bucket edges.
    pub(crate) fn merge_sorted(parts: &[&Histogram]) -> Histogram {
        let mut out = Histogram::with_edges(&parts[0].edges);
        out.reserve(parts.iter().map(|h| h.samples.len()).sum());
        let mut heads = vec![0usize; parts.len()];
        for h in parts {
            debug_assert!(h.samples.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
            out.merge_counts(h);
        }
        // Take the least head of the runs until every run is spent; ties
        // go to the earliest part (equal values have equal bits).
        loop {
            let mut least: Option<(usize, f64)> = None;
            for (i, (h, &at)) in parts.iter().zip(&heads).enumerate() {
                if let Some(&v) = h.samples.get(at) {
                    if least.is_none_or(|(_, m)| v.total_cmp(&m).is_lt()) {
                        least = Some((i, v));
                    }
                }
            }
            let Some((i, v)) = least else { break };
            out.samples.push(v);
            heads[i] += 1;
        }
        out
    }

    /// Adds another histogram's bucket counts to this one's.
    fn merge_counts(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "cannot merge mismatched buckets");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            // Saturate rather than wrap: u64 counts only hit the ceiling
            // after ~10^19 observations, and a pinned count is a visibly
            // wrong statistic while a wrapped one silently corrupts
            // percentiles (and aborts under overflow-checks = true).
            *c = c.saturating_add(*o);
        }
    }
}

/// Sorts samples by [`f64::total_cmp`] with the unstable sort (see
/// [`Histogram::sort_samples`] for why that gives the stable bytes).
fn sort_total(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// The nearest-rank `p`th percentile of a non-empty, ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_saturates_instead_of_wrapping_counts() {
        // Regression for the overflow-checks = true test profile: merging
        // histograms whose bucket counts sum past u64::MAX must pin at the
        // ceiling, not wrap (or abort the whole export).
        let mut a = Histogram::with_edges(&[10.0]);
        let mut b = Histogram::with_edges(&[10.0]);
        a.record(1.0);
        b.record(2.0);
        a.counts[0] = u64::MAX - 1;
        b.counts[0] = 5;
        a.merge(&b);
        assert_eq!(a.counts[0], u64::MAX);
    }

    #[test]
    fn exact_percentiles_on_known_distribution() {
        // 1..=100: nearest-rank percentiles are exactly the pth value.
        let mut h = Histogram::with_edges(&[10.0, 50.0, 90.0]);
        // Insert in a scrambled order to prove order independence.
        for i in (1..=100u32).rev() {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(90.0), Some(90.0));
        assert_eq!(h.percentile(99.0), Some(99.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        assert_eq!(h.percentile(1.0), Some(1.0));
        let p = h.percentiles().unwrap();
        assert_eq!((p.p50, p.p90, p.p99), (50.0, 90.0, 99.0));
    }

    /// The one-sort `percentiles` is the three single percentiles, bit for
    /// bit, on seeded inputs from one sample up. Half the samples are ties
    /// from a small pool with both signed zeros, which `total_cmp` orders
    /// and a `partial_cmp` sort would leave in insertion order; the other
    /// half spread around zero so the median lands among the zeros.
    #[test]
    fn percentiles_equal_single_percentile_calls() {
        adavp_rng::check(64, 3, |rng| {
            let n = if rng.gen::<bool>() {
                1
            } else {
                rng.gen_range(1..300usize)
            };
            let pool: [f64; 3] = [-0.0, 0.0, 40.0];
            let mut h = Histogram::latency_ms();
            for _ in 0..n {
                if rng.gen::<bool>() {
                    h.record(pool[rng.gen_range(0..pool.len())]);
                } else {
                    h.record(rng.gen_range(-5000.0..5000.0));
                }
            }
            let p = h.percentiles().expect("non-empty");
            let single = |q: f64| h.percentile(q).expect("non-empty").to_bits();
            assert_eq!(p.p50.to_bits(), single(50.0));
            assert_eq!(p.p90.to_bits(), single(90.0));
            assert_eq!(p.p99.to_bits(), single(99.0));
        });
    }

    /// `0.0` then `-0.0` is ascending under `<=` but not under `total_cmp`:
    /// the sorted view must not borrow it as already sorted.
    #[test]
    fn signed_zeros_rank_in_total_order() {
        let mut h = Histogram::latency_ms();
        h.record(0.0);
        h.record(-0.0);
        let p = h.percentiles().expect("non-empty");
        assert_eq!(p.p50.to_bits(), (-0.0f64).to_bits());
        assert_eq!(p.max.to_bits(), 0.0f64.to_bits());
        h.sort_samples();
        assert_eq!(h.percentiles(), Some(p));
        assert_eq!(h.percentile(50.0).map(f64::to_bits), Some(p.p50.to_bits()));
    }

    #[test]
    fn percentile_is_a_recorded_value() {
        let mut h = Histogram::latency_ms();
        for v in [3.0, 7.0, 400.0] {
            h.record(v);
        }
        // Nearest-rank, never interpolated: p50 of 3 samples is the 2nd.
        assert_eq!(h.percentile(50.0), Some(7.0));
        assert_eq!(h.percentile(99.0), Some(400.0));
        assert_eq!(h.percentiles().map(|p| p.max), Some(400.0));
    }

    #[test]
    fn bucket_counts_with_overflow() {
        let mut h = Histogram::with_edges(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 99.0] {
            h.record(v);
        }
        // Edges are inclusive upper bounds; 99 overflows.
        assert_eq!(h.bucket_counts(), &[2, 2, 1]);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = Histogram::velocity();
        let mut b = Histogram::velocity();
        let mut all = Histogram::velocity();
        for (i, v) in [0.3, 1.2, 0.9, 5.0, 2.2, 0.1].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            all.record(*v);
        }
        let mut merged = b.clone();
        merged.merge(&a);
        assert_eq!(merged.count(), all.count());
        assert_eq!(merged.bucket_counts(), all.bucket_counts());
        assert_eq!(merged.percentiles(), all.percentiles());
        assert_eq!(merged.mean(), all.mean());
    }

    /// The rollup contract the metrics registry leans on: merging shards in
    /// ANY order yields exactly the percentiles of the concatenated sample
    /// set, for every percentile, not just p50/p90/p99.
    #[test]
    fn merged_percentiles_equal_concatenated_samples() {
        // Three shards with deliberately skewed, overlapping values.
        let shards: [&[f64]; 3] = [
            &[12.0, 960.0, 47.0, 47.0, 3.0],
            &[210.0, 5.0, 1800.0, 88.0],
            &[33.0, 33.0, 420.0, 7.5, 640.0, 2.0],
        ];
        let mut hists = Vec::new();
        let mut concat = Histogram::latency_ms();
        for shard in shards {
            let mut h = Histogram::latency_ms();
            for &v in shard {
                h.record(v);
                concat.record(v);
            }
            hists.push(h);
        }
        // Every merge order must agree with the concatenation.
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        for order in orders {
            let mut merged = Histogram::latency_ms();
            for i in order {
                merged.merge(&hists[i]);
            }
            assert_eq!(merged.count(), concat.count());
            assert_eq!(merged.bucket_counts(), concat.bucket_counts());
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    merged.percentile(p),
                    concat.percentile(p),
                    "p{p} diverged for merge order {order:?}"
                );
            }
            assert_eq!(merged.mean(), concat.mean());
        }
    }

    /// A linear merge of sorted parts equals concatenating them and then
    /// sorting, bit for bit, and comes out sorted: ties include both signed
    /// zeros, and some parts are empty.
    #[test]
    fn merge_sorted_equals_merge_then_sort() {
        adavp_rng::check(48, 26, |rng| {
            let pool = [-0.0, 0.0, 40.0, 650.0];
            let parts: Vec<Histogram> = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    let mut h = Histogram::latency_ms();
                    for _ in 0..rng.gen_range(0..200usize) {
                        h.record(if rng.gen::<bool>() {
                            pool[rng.gen_range(0..pool.len())]
                        } else {
                            rng.gen_range(-50.0..5000.0)
                        });
                    }
                    h.sort_samples();
                    h
                })
                .collect();
            let mut concat = Histogram::latency_ms();
            for h in &parts {
                concat.merge(h);
            }
            concat.sort_samples();
            let refs: Vec<&Histogram> = parts.iter().collect();
            let merged = Histogram::merge_sorted(&refs);
            let bits = |h: &Histogram| h.samples.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&merged), bits(&concat));
            assert_eq!(merged.bucket_counts(), concat.bucket_counts());
        });
    }

    /// Merging an empty histogram is an identity; merging INTO an empty
    /// histogram reproduces the source exactly.
    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::latency_ms();
        for v in [10.0, 500.0, 75.0] {
            h.record(v);
        }
        let snapshot = h.clone();
        h.merge(&Histogram::latency_ms());
        assert_eq!(h, snapshot);
        let mut empty = Histogram::latency_ms();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn empty_and_nonfinite() {
        let mut h = Histogram::latency_ms();
        assert!(h.is_empty());
        assert_eq!(h.percentiles(), None);
        assert_eq!(h.mean(), None);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty(), "non-finite samples are ignored");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_rejected() {
        let _ = Histogram::with_edges(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot merge mismatched buckets")]
    fn mismatched_merge_rejected() {
        let mut a = Histogram::latency_ms();
        a.merge(&Histogram::velocity());
    }
}
