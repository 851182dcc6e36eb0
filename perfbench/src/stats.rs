//! Order statistics and the metric record every result carries.

use std::time::Duration;

/// One reported number: its value, unit and how many samples it
/// summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `q · n` samples are at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(q, sorted.len()) - 1]
}

/// The 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// `true` when at least ten samples lie beyond the `q` percentile, the
/// least support a reported tail percentile needs.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n >= rank(q, n) + 10
}

/// Samples per window of [`windowed_percentile`]: enough for 10 to lie
/// beyond a window's p90.
pub const WINDOW_SAMPLES: usize = 100;

/// The `q` percentile of each of `windows` consecutive slices of
/// `in_order` (samples in the order they were taken), then the median
/// of those. A spell in which the shared host is slow moves the
/// percentile of the windows it covers, but not the median of them, as
/// long as it lasts less than half the run; a program that is slower
/// throughout moves every window.
pub fn windowed_percentile(in_order: &[f64], q: f64, windows: usize) -> f64 {
    let n = in_order.len();
    let windows = windows.clamp(1, n.max(1));
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let mut slice = in_order[w * n / windows..(w + 1) * n / windows].to_vec();
            slice.sort_by(f64::total_cmp);
            percentile(&slice, q)
        })
        .collect();
    median(&per_window)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_support_needs_ten_beyond() {
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
    }

    #[test]
    fn windowed_percentiles_outvote_a_slow_spell() {
        // Ten windows of 1..=100; the last three are slow throughout.
        let mut v: Vec<f64> = Vec::new();
        for w in 0..10 {
            let slow = if w >= 7 { 50.0 } else { 0.0 };
            v.extend((1..=100).map(|x| f64::from(x) + slow));
        }
        assert_eq!(windowed_percentile(&v, 0.9, 10), 90.0);
        assert_eq!(
            windowed_percentile(&v, 0.9, 1),
            percentile(&sorted(&v), 0.9)
        );
        assert_eq!(windowed_percentile(&[3.0], 0.9, 10), 3.0);
    }

    fn sorted(v: &[f64]) -> Vec<f64> {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
