//! A Zipf-distributed sampler over ranks `0..n`, used to give clients
//! the heavy-tailed per-client query load real root traffic shows
//! (paper Figure 15c: ~1 % of clients send ~75 % of queries, ~81 % send
//! fewer than 10).

use ldp_rng::SplitMix64;

/// Zipf sampler with exponent `s` over `n` ranks, via precomputed
/// cumulative weights and binary search (exact, O(log n) per sample).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `n` ranks with exponent `s` (s > 0; larger =
    /// more skew).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        // Normalize.
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (n > 0 enforced).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u: f64 = rng.gen();
        self.cumulative.partition_point(|&c| c < u)
    }

    /// The probability mass of the top `k` ranks.
    #[cfg(test)]
    fn top_k_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cumulative[k.min(self.cumulative.len()) - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_zero_most_popular() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(10, 1.2);
        let mut rng = SplitMix64::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn top_mass_monotone_in_s() {
        let flat = Zipf::new(10_000, 0.5);
        let skew = Zipf::new(10_000, 1.3);
        assert!(skew.top_k_mass(100) > flat.top_k_mass(100));
    }

    #[test]
    fn top_k_mass_bounds() {
        let z = Zipf::new(100, 1.0);
        assert_eq!(z.top_k_mass(0), 0.0);
        assert!((z.top_k_mass(100) - 1.0).abs() < 1e-12);
        assert!((z.top_k_mass(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SplitMix64::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
