//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default *exclusive* method) exactly, so the spreads this benchmark
//! prints are the spreads Python recomputes from its JSON output.

/// A timing summary: median, quartiles, the tail value and the sample
/// count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median (equal to the second quartile).
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it; the
    /// median when there are too few samples for that to lie above it.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(samples);
        Summary {
            n: samples.len(),
            q1,
            median,
            q3,
            tail: tail(samples),
        }
    }

    /// The interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles `[q1, q2, q3]` by Python's exclusive method. One sample
/// gives that sample three times, as Python does.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let data = sorted(samples);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    // Python's integer arithmetic, including a negative `delta` when
    // the clamp moves `j` (two or three samples).
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// The value with exactly ten samples above it, when that lies above
/// the median (more than 20 samples); otherwise the median.
pub fn tail(samples: &[f64]) -> f64 {
    let data = sorted(samples);
    if data.len() > 20 {
        data[data.len() - 11]
    } else {
        median(&data)
    }
}

/// Geometric mean of positive `values` (0 when empty or any value is
/// not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(
            close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]);
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_is_the_middle_or_the_mean_of_the_middle_pair() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    }

    #[test]
    fn relative_iqr_is_the_quartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!(s.n, 10);
        assert!(close(s.relative_iqr(), (8.25 - 2.75) / 5.5));
        assert_eq!(Summary::of(&[0.0, 0.0]).relative_iqr(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(
            close(tail(&few), median(&few)),
            "n <= 20 falls back to the median"
        );
        let many: Vec<f64> = (1..=31).rev().map(f64::from).collect();
        let t = tail(&many);
        assert!(close(t, 21.0));
        assert_eq!(many.iter().filter(|&&v| v > t).count(), 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!(close(geomean(&[2.0, 8.0]), 4.0));
        assert!(close(geomean(&[1.5]), 1.5));
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
