//! The workspace's one source of randomness: a seeded SplitMix64
//! generator, plus ([`check`]) a small property-check harness built on
//! it; and ([`table`]) the workspace's one hash table, [`KeyTable`],
//! whose fixed hash is finished with [`mix`].
//!
//! SplitMix64 (Steele, Lea & Flood) has 64 bits of state, full period,
//! and is completely determined by its seed, which is the property
//! everything here relies on: workload generators, trace mutation and
//! the property checks flow through [`SplitMix64`], so two runs with
//! equal seeds make identical decisions (lint rule D3: no ambient
//! entropy anywhere). A decision inside a simulation is not drawn from
//! a stream but hashed with [`mix`] from what it decides (rule D6: a
//! stream's position depends on every earlier draw): a retry chain's
//! `n`-th delay takes [`nth`]`(seed, n)`, and the resolver's jitter is
//! a hash of the attempt; both step the one [`backoff_step`].
//!
//! The draw functions are frozen: every committed transcript, figure
//! and checkpoint depends on their exact bits.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

pub mod check;
pub mod table;

pub use table::{ByAddr, ByHash, KeyHash, KeyTable, Probe};

/// SplitMix64's increment, the golden ratio in 64 bits.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: the word after `x` in a stream,
/// finalized. A stream's `n`-th draw is `mix(state + n·GAMMA)`; on its
/// own it is the workspace's one 64-bit hash, the core of every
/// stateless draw (a packet's fate is a `mix` of what identifies it).
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `n`-th draw (0-based) of the stream that starts at `state`:
/// `mix(state + n·GAMMA)`, with no stream to carry.
#[inline]
pub fn nth(state: u64, n: u64) -> u64 {
    mix(state.wrapping_add(n.wrapping_mul(GAMMA)))
}

/// One step of capped decorrelated-jitter backoff (AWS architecture
/// blog): a delay uniform in `[base, max(3·prev, base + 1))` by `draw`,
/// clamped to `cap`, which spreads concurrent retriers apart. The
/// workspace's one copy of the step: `ldp-guard`'s retry chains fold it
/// from `prev = base` with `cap` raised to `base`, and the resolver's
/// failover backoff steps it from its current timeout with `cap` as
/// given, so a cap below `base` caps the delay below `base` too.
#[inline]
pub fn backoff_step(base: u64, cap: u64, prev: u64, draw: u64) -> u64 {
    let hi = prev.saturating_mul(3).max(base.saturating_add(1));
    u64::from_range(base, hi, draw).min(cap)
}

/// A seeded SplitMix64 generator.
#[allow(
    clippy::disallowed_types,
    reason = "D6: the stream type itself; its users sanction each stream at theirs"
)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

#[allow(
    clippy::disallowed_types,
    reason = "D6: the stream type itself; its users sanction each stream at theirs"
)]
impl SplitMix64 {
    /// A generator for `seed`. The seed is whitened first, so small
    /// consecutive seeds start far apart in the state space.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 {
            state: seed ^ 0xA076_1D64_78BD_642F,
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = nth(self.state, 0);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// A uniform value of `T` from one draw: the top bits for the
    /// integers, `[0, 1)` with 53 bits for `f64`.
    pub fn gen<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }

    /// A uniform draw in `[start, end)` — one draw reduced modulo the
    /// span (the bias is negligible for the spans used here). An empty
    /// range yields `start`.
    pub fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        let r = self.next_u64();
        T::from_range(range.start, range.end, r)
    }
}

/// Types [`SplitMix64::gen`] can produce.
pub trait Standard: Sized {
    /// Map 64 uniform bits to a uniform value.
    fn from_u64(x: u64) -> Self;
}

impl Standard for f64 {
    fn from_u64(x: u64) -> Self {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for u64 {
    fn from_u64(x: u64) -> Self {
        x
    }
}
impl Standard for u32 {
    fn from_u64(x: u64) -> Self {
        (x >> 32) as u32
    }
}
impl Standard for u16 {
    fn from_u64(x: u64) -> Self {
        (x >> 48) as u16
    }
}
impl Standard for u8 {
    fn from_u64(x: u64) -> Self {
        (x >> 56) as u8
    }
}
impl Standard for bool {
    fn from_u64(x: u64) -> Self {
        x & 1 == 1
    }
}

/// Integer types [`SplitMix64::gen_range`] can draw.
pub trait SampleUniform: Copy {
    /// `lo + r % (hi - lo)`.
    fn from_range(lo: Self, hi: Self, r: u64) -> Self;
}

macro_rules! impl_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn from_range(lo: Self, hi: Self, r: u64) -> Self {
                let span = (hi - lo) as u64;
                lo + (r % span.max(1)) as $t
            }
        }
    )*};
}
impl_uniform!(usize, u64, u32, u16, u8, i64, i32);

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "D6: the tests of the stream type itself"
)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_diverge() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        let mut c = SplitMix64::seed_from_u64(43);
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0);
        let mut a = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The streams are frozen: these are the first draws every
    /// committed transcript and checkpoint was produced from.
    #[test]
    fn streams_are_pinned() {
        let mut raw = SplitMix64 { state: 0 };
        assert_eq!(raw.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(raw.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut seeded = SplitMix64::seed_from_u64(0xA076_1D64_78BD_642F);
        assert_eq!(
            seeded.next_u64(),
            0xE220_A839_7B1D_CDAF,
            "seed whitening is an xor"
        );
    }

    #[test]
    fn nth_is_the_streams_nth_draw() {
        for state in [0, 99, u64::MAX - 3, 0x5eed] {
            let mut stream = SplitMix64 { state };
            for n in 0..100 {
                assert_eq!(nth(state, n), stream.next_u64(), "state {state}, draw {n}");
            }
        }
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SplitMix64::seed_from_u64(7);
        for _ in 0..1000 {
            assert!((200..1600u64).contains(&r.gen_range(200..1600u64)));
            assert!((-5..5i32).contains(&r.gen_range(-5..5i32)));
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.gen_range(5..5usize), 5, "empty range collapses to start");
    }
}
