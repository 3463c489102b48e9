//! Summary statistics for the evaluation figures: means and empirical CDFs.

/// Mean of a sample; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages_and_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
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
}
