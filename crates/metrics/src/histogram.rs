//! Logarithmically-binned histogram for latency-style heavy-tailed data.

/// A base-10 log-binned histogram with `bins_per_decade` subdivisions,
/// covering values across many orders of magnitude (query inter-arrivals
/// span 1 µs to seconds in the paper's traces).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    bins_per_decade: usize,
    min_exp: i32,
    /// counts[i] covers [10^(min_exp + i/bpd), 10^(min_exp + (i+1)/bpd))
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Histogram from `10^min_exp` to `10^max_exp` with the given
    /// per-decade resolution.
    pub fn new(min_exp: i32, max_exp: i32, bins_per_decade: usize) -> Self {
        assert!(max_exp > min_exp);
        assert!(bins_per_decade > 0);
        let n = ((max_exp - min_exp) as usize) * bins_per_decade;
        LogHistogram {
            bins_per_decade,
            min_exp,
            counts: vec![0; n],
            underflow: 0,
            total: 0,
        }
    }

    /// Record a value. Non-positive values and values below range count
    /// as underflow; values above range land in the last bin.
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        if v <= 0.0 {
            self.underflow += 1;
            return;
        }
        let pos = (v.log10() - self.min_exp as f64) * self.bins_per_decade as f64;
        if pos < 0.0 {
            self.underflow += 1;
        } else {
            let idx = (pos as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Values below range (or ≤ 0).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Iterate `(bin_lower_bound, count)` for non-empty bins.
    #[cfg(test)]
    fn nonzero_bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                None
            } else {
                let exp = self.min_exp as f64 + i as f64 / self.bins_per_decade as f64;
                Some((10f64.powf(exp), c))
            }
        })
    }

    /// Approximate quantile from bin boundaries (returns the lower bound
    /// of the bin containing the quantile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target && self.underflow > 0 {
            return Some(0.0);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let exp = self.min_exp as f64 + i as f64 / self.bins_per_decade as f64;
                return Some(10f64.powf(exp));
            }
        }
        Some(10f64.powi(self.min_exp + (self.counts.len() / self.bins_per_decade) as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_magnitude() {
        let mut h = LogHistogram::new(-6, 1, 1);
        h.record(1e-5);
        h.record(2e-5);
        h.record(1e-3);
        h.record(0.5);
        let bins: Vec<_> = h.nonzero_bins().collect();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].1, 2); // two values in 1e-5 decade
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn underflow_counted() {
        let mut h = LogHistogram::new(-3, 0, 1);
        h.record(0.0);
        h.record(-1.0);
        h.record(1e-9);
        assert_eq!(h.underflow(), 3);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn overflow_clamps_to_last_bin() {
        let mut h = LogHistogram::new(-1, 0, 1);
        h.record(1e6);
        assert_eq!(h.nonzero_bins().count(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn quantile_roughly_right() {
        let mut h = LogHistogram::new(-6, 2, 10);
        for _ in 0..50 {
            h.record(0.001);
        }
        for _ in 0..50 {
            h.record(0.1);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((0.0005..=0.002).contains(&med), "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((0.05..=0.2).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn quantile_empty_none() {
        let h = LogHistogram::new(-3, 0, 1);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn finer_resolution_separates() {
        let mut h = LogHistogram::new(0, 1, 10);
        h.record(1.0);
        h.record(2.0);
        h.record(9.0);
        assert_eq!(h.nonzero_bins().count(), 3);
    }
}
