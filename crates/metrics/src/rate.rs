//! Per-window event-rate series from event timestamps.

/// Counts events into fixed-width windows (default 1 s), producing the
/// per-second query-rate series the paper compares in Figure 8.
#[derive(Debug, Clone)]
pub struct RateSeries {
    window: f64,
    origin: Option<f64>,
    counts: Vec<u64>,
}

impl RateSeries {
    /// New series with `window`-second buckets.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        RateSeries {
            window,
            origin: None,
            counts: Vec::new(),
        }
    }

    /// Per-second buckets.
    pub fn per_second() -> Self {
        RateSeries::new(1.0)
    }

    /// Record an event at absolute time `t` (seconds). The first event
    /// fixes the origin; events before the origin are clamped into the
    /// first bucket.
    pub fn record(&mut self, t: f64) {
        let origin = *self.origin.get_or_insert(t);
        let idx = (((t - origin) / self.window).floor().max(0.0)) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// The raw per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of buckets spanned.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Per-bucket relative difference `(self - other) / other`, for the
    /// buckets both series cover and where `other` is non-zero. This is
    /// the quantity on Figure 8's x-axis.
    pub fn relative_difference(&self, other: &RateSeries) -> Vec<f64> {
        self.counts
            .iter()
            .zip(other.counts.iter())
            .filter(|(_, &o)| o > 0)
            .map(|(&s, &o)| (s as f64 - o as f64) / o as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_bucketed() {
        let mut r = RateSeries::per_second();
        r.record(100.0);
        r.record(100.5);
        r.record(101.2);
        r.record(103.9);
        assert_eq!(r.counts(), &[2, 1, 0, 1]);
        assert_eq!(r.total(), 4);
        assert_eq!(r.buckets(), 4);
    }

    #[test]
    fn origin_is_first_event() {
        let mut r = RateSeries::per_second();
        r.record(5.5);
        r.record(5.9);
        assert_eq!(r.counts(), &[2]);
    }

    #[test]
    fn event_before_origin_clamped() {
        let mut r = RateSeries::per_second();
        r.record(10.0);
        r.record(9.0); // out of order, clamps to bucket 0
        assert_eq!(r.counts(), &[2]);
    }

    #[test]
    fn sub_second_windows() {
        let mut r = RateSeries::new(0.1);
        r.record(0.0);
        r.record(0.05);
        r.record(0.15);
        assert_eq!(r.counts(), &[2, 1]);
    }

    #[test]
    fn relative_difference() {
        let mut a = RateSeries::per_second();
        let mut b = RateSeries::per_second();
        for t in [0.0, 0.1, 0.2, 1.0, 1.1] {
            a.record(t);
        }
        for t in [0.0, 0.1, 0.2, 0.3, 1.0] {
            b.record(t);
        }
        // a: [3,2], b: [4,1]  → diffs: (3-4)/4 = -0.25, (2-1)/1 = 1.0
        let d = a.relative_difference(&b);
        assert_eq!(d, vec![-0.25, 1.0]);
    }

    #[test]
    fn relative_difference_skips_zero_buckets() {
        let mut a = RateSeries::per_second();
        let mut b = RateSeries::per_second();
        a.record(0.0);
        a.record(2.5);
        b.record(0.0);
        b.record(2.5);
        // b bucket 1 is zero → skipped.
        assert_eq!(a.relative_difference(&b).len(), 2);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        RateSeries::new(0.0);
    }
}
