//! Exact order statistics over raw samples.
//!
//! Percentiles follow the nearest-rank rule on the sorted samples, computed
//! in integer per-mille so that, for example, p99 of 2000 samples is exactly
//! the 1980th. No histogram buckets are involved anywhere.

/// Median, in per-mille.
pub const P50: u32 = 500;
/// 99th percentile, in per-mille.
pub const P99: u32 = 990;

/// The nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `per_mille / 1000` of all samples at or below it. `None`
/// for an empty slice.
pub fn percentile(sorted: &[f64], per_mille: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (per_mille as usize * n).div_ceil(1000).max(1);
    Some(sorted[rank.min(n) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank percentile:
/// the count that makes a tail percentile trustworthy (at least ten).
pub fn beyond(n: usize, per_mille: u32) -> usize {
    n - (per_mille as usize * n).div_ceil(1000).max(1).min(n)
}

/// Sorts samples ascending; infinities (failed operations) sort last.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median and p99 of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Tail {
    /// Summarizes `samples`; an empty set reads as zeros with count 0.
    pub fn of(samples: Vec<f64>) -> Tail {
        let all = sorted(samples);
        Tail {
            count: all.len(),
            p50: percentile(&all, P50).unwrap_or(0.0),
            p99: percentile(&all, P99).unwrap_or(0.0),
        }
    }
}

/// The median of a small set of measurements (the mean of the middle two for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn nearest_rank_on_known_inputs() {
        let s = one_to(100);
        assert_eq!(percentile(&s, P50), Some(50.0));
        assert_eq!(percentile(&s, P99), Some(99.0));
        assert_eq!(percentile(&s, 1000), Some(100.0));
        let s = one_to(2000);
        assert_eq!(percentile(&s, P99), Some(1980.0));
        assert_eq!(beyond(2000, P99), 20);
        let s = one_to(7);
        assert_eq!(percentile(&s, P50), Some(4.0));
        assert_eq!(percentile(&s, P99), Some(7.0));
        assert_eq!(beyond(7, P99), 0);
        assert_eq!(percentile(&[3.5], P50), Some(3.5));
        assert_eq!(percentile(&[], P50), None);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut shuffled = one_to(1000);
        shuffled.reverse();
        shuffled.swap(3, 700);
        let tail = Tail::of(shuffled);
        assert_eq!(tail.count, 1000);
        assert_eq!(tail.p50, 500.0);
        assert_eq!(tail.p99, 990.0);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        // 98 successes and 2 failures: p99 lands on a failure.
        let mut samples = one_to(98);
        samples.extend([f64::INFINITY, f64::INFINITY]);
        let tail = Tail::of(samples);
        assert_eq!(tail.p50, 50.0);
        assert!(tail.p99.is_infinite());
    }

    #[test]
    fn a_stall_in_a_few_percent_of_the_window_sets_the_p99() {
        // 2 % of the samples, all in one stretch of the window, stalled.
        let mut samples = one_to(3000);
        samples[1000..1060].fill(1e6);
        let tail = Tail::of(samples);
        assert_eq!(tail.count, 3000);
        assert_eq!(tail.p99, 1e6);
        assert_eq!(
            Tail::of(Vec::new()),
            Tail {
                count: 0,
                p50: 0.0,
                p99: 0.0
            }
        );
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
