//! Summary statistics for the evaluation figures: means, percentiles,
//! empirical CDFs and histograms.

/// Mean of a sample; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any sample is NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = pos - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// One point of an empirical CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Sample value.
    pub value: f64,
    /// Cumulative probability `P(X <= value)`.
    pub probability: f64,
}

/// Empirical CDF of a sample (sorted, one point per sample).
pub fn empirical_cdf(xs: &[f64]) -> Vec<CdfPoint> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in cdf input"));
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, value)| CdfPoint {
            value,
            probability: (i + 1) as f64 / n as f64,
        })
        .collect()
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    out_of_range: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            out_of_range: 0,
        }
    }

    /// Records one sample. Values outside `[lo, hi)` are counted separately.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo || x >= self.hi {
            self.out_of_range += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that fell outside `[lo, hi)`.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Fraction of in-range samples in each bin.
    pub fn normalized(&self) -> Vec<f64> {
        let in_range = self.total - self.out_of_range;
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / in_range as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn cdf_monotone_and_ends_at_one() {
        let xs = [3.0, 1.0, 2.0, 2.0];
        let cdf = empirical_cdf(&xs);
        assert_eq!(cdf.len(), 4);
        for pair in cdf.windows(2) {
            assert!(pair[0].value <= pair[1].value);
            assert!(pair[0].probability <= pair[1].probability);
        }
        assert!((cdf.last().unwrap().probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -1.0, 10.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.out_of_range(), 2);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        let n = h.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_normalizes_to_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.normalized(), vec![0.0, 0.0, 0.0]);
    }
}
