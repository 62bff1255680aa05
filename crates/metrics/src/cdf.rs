//! Empirical cumulative distribution functions.

/// An empirical CDF over a finite sample set.
///
/// Used for the paper's Figure 7 (inter-arrival CDFs), Figure 8
/// (per-second rate difference CDF) and Figure 15c (per-client load CDF).
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (copied and sorted). Returns `None` if empty.
    pub fn of(samples: &[f64]) -> Option<Cdf> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        Some(Cdf { sorted })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty sets).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples ≤ `x`.
    fn fraction_at(&self, x: f64) -> f64 {
        // partition_point: count of samples <= x.
        let cnt = self.sorted.partition_point(|&v| v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest sample value with CDF ≥ `p`.
    pub fn value_at(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return self.sorted[0];
        }
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).min(self.sorted.len()) - 1;
        self.sorted[idx]
    }

    /// All steps of the CDF: `(sample, cumulative fraction)` per sample.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }

    /// Maximum absolute difference between two CDFs evaluated on the
    /// union of their sample points (the Kolmogorov–Smirnov statistic).
    /// Used by validation tests to compare replayed vs original
    /// distributions.
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        let mut max = 0.0f64;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            let d = (self.fraction_at(x) - other.fraction_at(x)).abs();
            if d > max {
                max = d;
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rejected() {
        assert!(Cdf::of(&[]).is_none());
    }

    #[test]
    fn fraction_at_steps() {
        let c = Cdf::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(c.fraction_at(0.5), 0.0);
        assert_eq!(c.fraction_at(1.0), 0.25);
        assert_eq!(c.fraction_at(2.5), 0.5);
        assert_eq!(c.fraction_at(4.0), 1.0);
        assert_eq!(c.fraction_at(100.0), 1.0);
    }

    #[test]
    fn value_at_inverse() {
        let c = Cdf::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(c.value_at(0.25), 10.0);
        assert_eq!(c.value_at(0.5), 20.0);
        assert_eq!(c.value_at(1.0), 40.0);
        assert_eq!(c.value_at(0.0), 10.0);
    }

    #[test]
    fn ties_handled() {
        let c = Cdf::of(&[1.0, 1.0, 1.0, 2.0]).unwrap();
        assert_eq!(c.fraction_at(1.0), 0.75);
        assert_eq!(c.fraction_at(1.5), 0.75);
    }

    #[test]
    fn steps_monotone() {
        let c = Cdf::of(&[3.0, 1.0, 2.0]).unwrap();
        let steps: Vec<_> = c.steps().collect();
        assert_eq!(steps, vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn ks_identical_zero() {
        let a = Cdf::of(&[1.0, 2.0, 3.0]).unwrap();
        let b = Cdf::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_disjoint_one() {
        let a = Cdf::of(&[1.0, 2.0]).unwrap();
        let b = Cdf::of(&[10.0, 20.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    #[test]
    fn ks_symmetric() {
        let a = Cdf::of(&[1.0, 5.0, 9.0]).unwrap();
        let b = Cdf::of(&[2.0, 5.0, 8.0, 11.0]).unwrap();
        assert!((a.ks_distance(&b) - b.ks_distance(&a)).abs() < 1e-12);
    }
}
