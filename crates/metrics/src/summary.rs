//! Exact quantile summaries over collected samples.

/// A five-number-plus summary of a sample set: min, p5, q1, median, q3,
/// p95, max and mean — exactly the statistics the paper's box-plot
/// figures report ("medians, quartiles, 5th and 95th percentiles").
/// The default is all zeros, what a report prints for no samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// 5th percentile.
    pub p5: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Compute a summary. Returns `None` for an empty sample set.
    ///
    /// Quantiles use linear interpolation between closest ranks (type 7,
    /// the numpy/R default).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        Some(Summary {
            count: v.len(),
            min: v[0],
            p5: quantile_sorted(&v, 0.05),
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.50),
            q3: quantile_sorted(&v, 0.75),
            p95: quantile_sorted(&v, 0.95),
            max: v[v.len() - 1],
            mean,
            stddev: var.sqrt(),
        })
    }
}

/// Quantile of an ascending-sorted slice with linear interpolation.
///
/// `q` is clamped to `[0, 1]`. Panics on an empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_gives_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.min, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn known_quartiles() {
        // 1..=100: median 50.5, q1 25.75, q3 75.25 (type-7 interpolation).
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.q1 - 25.75).abs() < 1e-9);
        assert!((s.q3 - 75.25).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_ok() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile_sorted(&v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.5);
    }

    #[test]
    fn quantile_clamps() {
        let v = [1.0, 2.0];
        assert_eq!(quantile_sorted(&v, -1.0), 1.0);
        assert_eq!(quantile_sorted(&v, 2.0), 2.0);
    }

    #[test]
    fn stddev_known() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.stddev - 2.0).abs() < 1e-9);
    }

    #[test]
    fn iqr() {
        let v: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.q3 - s.q1, 2.0);
    }
}
