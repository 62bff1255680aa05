//! Sampled time series of resource gauges (memory, connection counts,
//! CPU) — the "value vs time" traces of the paper's Figures 13 and 14.

/// A time series of `(time_seconds, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample; time must be non-decreasing (panics otherwise —
    /// gauges are sampled by a single monotonic clock).
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(t >= last, "time series must be monotonic: {t} < {last}");
        }
        self.samples.push((t, v));
    }

    /// All samples.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of values with `t >= from` — the "steady state" statistic
    /// (the paper waits ~5 minutes for steady state, then reports).
    pub fn steady_state_mean(&self, from: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(t, _)| t >= from)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Max value over the whole series.
    pub fn max_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Time at which the series first reaches `frac` (0..1) of its final
    /// value and stays within `tolerance` of it — how long until steady
    /// state.
    #[cfg(test)]
    fn settle_time(&self, tolerance: f64) -> Option<f64> {
        let last = self.samples.last()?.1;
        let band = (last.abs() * tolerance).max(f64::EPSILON);
        // Find the earliest sample after which all values stay in band.
        let mut settle = None;
        for &(t, v) in &self.samples {
            if (v - last).abs() <= band {
                settle.get_or_insert(t);
            } else {
                settle = None;
            }
        }
        settle
    }

    /// Downsample to about `n` evenly spaced samples (for plotting).
    #[cfg(test)]
    fn downsample(&self, n: usize) -> Vec<(f64, f64)> {
        if self.samples.len() <= n || n == 0 {
            return self.samples.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.samples[(i as f64 * step) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        // Rises 0..100 over 10 s then flat at 100.
        let mut ts = TimeSeries::new();
        for i in 0..=20 {
            let t = i as f64;
            ts.push(t, (t * 10.0).min(100.0));
        }
        ts
    }

    #[test]
    fn push_and_read() {
        let ts = ramp();
        assert_eq!(ts.len(), 21);
        assert_eq!(ts.samples().last(), Some(&(20.0, 100.0)));
        assert_eq!(ts.max_value(), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_monotonic_rejected() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
    }

    #[test]
    fn steady_state_mean_after_ramp() {
        let ts = ramp();
        assert_eq!(ts.steady_state_mean(10.0), Some(100.0));
        assert!(ts.steady_state_mean(0.0).unwrap() < 100.0);
        assert_eq!(ts.steady_state_mean(100.0), None);
    }

    #[test]
    fn settle_time_found() {
        let ts = ramp();
        let t = ts.settle_time(0.01).unwrap();
        assert!((t - 10.0).abs() < 1e-9, "settled at {t}");
    }

    #[test]
    fn settle_time_flat_series_is_start() {
        let mut ts = TimeSeries::new();
        for i in 0..5 {
            ts.push(i as f64, 7.0);
        }
        assert_eq!(ts.settle_time(0.05), Some(0.0));
    }

    #[test]
    fn downsample_keeps_bounds() {
        let ts = ramp();
        let d = ts.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], ts.samples()[0]);
    }

    #[test]
    fn downsample_noop_when_small() {
        let ts = ramp();
        assert_eq!(ts.downsample(100).len(), ts.len());
    }
}
