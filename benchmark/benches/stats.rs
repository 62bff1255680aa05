//! The timing rule's arithmetic and the transcript hash.

/// Summary of the wall times of one series of repetitions.
#[derive(Debug, Clone)]
pub struct Series {
    sorted: Vec<f64>,
}

impl Series {
    pub fn new(samples: &[f64]) -> Series {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Series { sorted }
    }

    /// The floor: the fastest sample. Noise only ever adds time, so the
    /// fastest sample is the one nearest the undisturbed cost.
    pub fn floor(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Fastest and slowest of the 3 fastest samples.
    pub fn floor_range(&self) -> (f64, f64) {
        let k = self.sorted.len().min(3);
        (self.sorted[0], self.sorted[k - 1])
    }

    pub fn median(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    /// Interquartile distance as a share of the median (diagnostic only).
    pub fn spread(&self) -> f64 {
        (quantile(&self.sorted, 0.75) - quantile(&self.sorted, 0.25)) / self.median()
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The floor taken slice by slice: for each slice of a repetition, the
/// fastest of that slice's wall times across repetitions; then the sum.
/// Every repetition does the same work in slice k, so the sum estimates
/// one undisturbed repetition even when no single repetition was.
pub fn piecewise_floor(reps: &[Vec<f64>]) -> f64 {
    let slices = reps.first().map_or(0, Vec::len);
    (0..slices)
        .map(|k| Series::new(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()).floor())
        .sum()
}

/// A ratio of two floors is resolved only when the two sides' fastest-3
/// ranges do not overlap.
pub fn resolved(a: &Series, b: &Series) -> bool {
    let (a_lo, a_hi) = a.floor_range();
    let (b_lo, b_hi) = b.floor_range();
    a_hi < b_lo || b_hi < a_lo
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}
