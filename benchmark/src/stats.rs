//! Summaries and bound comparisons over a handful of samples.

use crate::contract::Better;

/// Median, extremes and count of a sample set. With the 5–15 iterations a
/// run makes, no tail percentile has ten samples beyond it, so none is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarise `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    Some(Summary { n, median, min: v[0], max: v[n - 1] })
}

/// Median of `samples` (0 when empty — callers report failures separately).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The share of `base` by which `new` is worse, given the metric's
/// direction: positive = worse, negative = better.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Whether `new` is no worse than `base` by more than `bound`.
pub fn within_bound(better: Better, bound: f64, base: f64, new: f64) -> bool {
    worsening(better, base, new) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(summarize(&[]), None);
        let s = summarize(&[5.0, 9.0, 1.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 5.0, 9.0));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        // A time that grows 10 % is 10 % worse; a rate that grows is better.
        assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison_accepts_gains_and_small_losses_only() {
        assert!(within_bound(Better::Lower, 0.10, 1.0, 1.09));
        assert!(!within_bound(Better::Lower, 0.10, 1.0, 1.11));
        assert!(within_bound(Better::Lower, 0.10, 1.0, 0.2));
        assert!(within_bound(Better::Higher, 0.15, 100.0, 86.0));
        assert!(!within_bound(Better::Higher, 0.15, 100.0, 84.0));
        assert!(within_bound(Better::Higher, 0.15, 100.0, 500.0));
    }
}
