//! Order statistics for samples: median, quartiles, tail percentiles.

use crate::json::Value;

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// definition the builder contract's spread check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The `p`-th percentile (nearest rank) of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// p99 only where at least ten samples lie beyond it (≥ 1 000 samples);
/// otherwise the highest percentile the sample supports, named in the
/// returned label so a reader never mistakes a p90 for a p99.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    let n = values.len();
    if n >= 1000 {
        (percentile(values, 99.0), "p99")
    } else if n >= 100 {
        (percentile(values, 90.0), "p90")
    } else {
        (percentile(values, 75.0), "p75")
    }
}

/// Samples per window of [`windowed_tail`]: the fewest for which ten lie
/// beyond the 99th percentile.
pub const TAIL_WINDOW: usize = 1000;

/// The tail latency of `values` (in the order they were measured) as the
/// median of the p99s of consecutive [`TAIL_WINDOW`]-sample windows, with
/// the number of windows. One stall on a shared box lands in one window
/// and moves one p99, not the metric; a slower system moves every window.
/// With fewer samples than one window this is [`tail`] of them all.
pub fn windowed_tail(values: &[f64]) -> (f64, String) {
    let windows: Vec<f64> = values.chunks_exact(TAIL_WINDOW).map(|w| percentile(w, 99.0)).collect();
    if windows.is_empty() {
        let (v, which) = tail(values);
        return (v, format!("{which} of n={}", values.len()));
    }
    (median(&windows), format!("median of {} windows' p99, n={}", windows.len(), values.len()))
}

/// Median + quartiles + count of one timed unit's repetitions.
#[derive(Clone, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { median: median(values), q1, q3, n: values.len() }
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("n", Value::Num(self.n as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn tail_names_the_percentile_the_sample_supports() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&few).1, "p75");
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many), (1979.0, "p99"));
    }
}
