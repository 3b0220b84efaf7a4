//! Order statistics over measured samples.

/// Sorts a copy of `values` ascending (NaN-free input assumed; `total_cmp`
/// keeps the order total either way).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_unstable_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 for an
/// empty sample, which callers report as "not exercised".
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Spread of one metric across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the values.
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`. Quartiles use the same "exclusive" method as
    /// Python's `statistics.quantiles(values, n=4)`, so a spread computed
    /// here matches one computed from the printed per-run values.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let n = s.len();
        let (q1, q3) = match n {
            0 => (0.0, 0.0),
            1 => (s[0], s[0]),
            _ => (exclusive_quartile(&s, 1), exclusive_quartile(&s, 3)),
        };
        Summary {
            median: median(&s),
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
            q1,
            q3,
            n,
        }
    }
}

/// Quartile `i` (1 or 3) of ascending `s` (`s.len() >= 2`) by linear
/// interpolation between order statistics at position `i·(n+1)/4`.
fn exclusive_quartile(s: &[f64], i: usize) -> f64 {
    let n = s.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.max, s.n), (1.0, 2.0, 3.0, 1.0, 3.0, 3));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
