//! Seeded property checks with shrinking, in one page.
//!
//! A property is a closure over a [`Gen`]: it draws its inputs and
//! asserts with the ordinary `assert!` family. [`check`] runs it over
//! `cases` seeds; every primitive draw is recorded as one `u64` choice,
//! so a failing case *is* its choice sequence. Shrinking works on that
//! sequence alone — truncate it, cut runs out of it, zero, halve and
//! decrement entries — and replays the property on each candidate
//! (draws past the end of a replayed sequence yield 0, the smallest
//! value of every generator).
//! No per-type shrinkers exist: smaller choices mean shorter vectors
//! and smaller numbers because every generator below is monotone in its
//! draws. The harness prints the seed and the minimal sequence, then
//! replays it unguarded so the test fails with the property's own
//! message; check a shrunk case in as a regression with [`rerun`].

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[allow(
    clippy::disallowed_types,
    reason = "D6: a property's inputs are one seeded stream, replayed whole from its seed or choice sequence"
)]
use crate::SplitMix64;

/// Upper bound on property replays spent shrinking one failure.
const SHRINK_REPLAYS: usize = 4000;

/// The source of a property's inputs: a seeded stream, or a replayed
/// choice sequence.
#[allow(
    clippy::disallowed_types,
    reason = "D6: a property's inputs are one seeded stream, replayed whole from its seed or choice sequence"
)]
pub struct Gen {
    rng: SplitMix64,
    replayed: Option<Vec<u64>>,
    taken: Vec<u64>,
}

impl Gen {
    #[allow(
        clippy::disallowed_types,
        reason = "D6: a property's inputs are one seeded stream, replayed whole from its seed or choice sequence"
    )]
    fn new(rng_seed: u64, replayed: Option<&[u64]>) -> Gen {
        Gen {
            rng: SplitMix64::seed_from_u64(rng_seed),
            replayed: replayed.map(<[u64]>::to_vec),
            taken: Vec::new(),
        }
    }

    /// The primitive draw: uniform in `[0, bound)`, or over all of
    /// `u64` when `bound` is 0. Everything else is built from it.
    pub fn below(&mut self, bound: u64) -> u64 {
        let raw = match &self.replayed {
            Some(choices) => choices.get(self.taken.len()).copied().unwrap_or(0),
            None => self.rng.next_u64(),
        };
        let v = if bound == 0 { raw } else { raw % bound };
        self.taken.push(v);
        v
    }

    /// An integer of `bits` bits; one draw in eight is an edge value
    /// (0, 1, max) so boundary cases turn up within a few hundred cases.
    fn int(&mut self, bits: u32) -> u64 {
        let max = u64::MAX >> (64 - bits);
        match self.below(8) {
            0 => [0, 1, max][self.below(3) as usize],
            _ => self.below(max.wrapping_add(1)),
        }
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.int(64)
    }
    /// Any `u32`.
    pub fn u32(&mut self) -> u32 {
        self.int(32) as u32
    }
    /// Any `u16`.
    pub fn u16(&mut self) -> u16 {
        self.int(16) as u16
    }
    /// Any `u8`.
    pub fn u8(&mut self) -> u8 {
        self.below(256) as u8
    }
    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, r: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = r.into_inner();
        lo + self.below((hi - lo).wrapping_add(1))
    }

    /// Uniform in `lo..=hi`, for lengths and indices.
    pub fn size(&mut self, r: RangeInclusive<usize>) -> usize {
        let (lo, hi) = r.into_inner();
        self.range(lo as u64..=hi as u64) as usize
    }

    /// Uniform in `[lo, hi)` with 53 bits of resolution.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.below(1 << 53) as f64 / (1u64 << 53) as f64)
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// `Some(f(..))` or `None`, evenly.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| f(self))
    }

    /// A vector whose length is uniform in `len`. Each element past the
    /// minimum is preceded by its own "one more?" draw rather than the
    /// length being drawn up front, so cutting an element's run of
    /// draws out of a choice sequence leaves a shorter, well-formed
    /// vector — which is what lets the shrinker drop elements.
    pub fn vec<T>(
        &mut self,
        len: RangeInclusive<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let (lo, hi) = len.into_inner();
        let mut out = Vec::new();
        // P(one more | i so far) = (hi - i) / (hi - i + 1) makes the
        // length uniform over lo..=hi.
        while out.len() < lo || (out.len() < hi && self.below((hi - out.len() + 1) as u64) != 0) {
            out.push(f(self));
        }
        out
    }

    /// Arbitrary bytes, length drawn from `len`.
    pub fn bytes(&mut self, len: RangeInclusive<usize>) -> Vec<u8> {
        self.vec(len, Gen::u8)
    }

    /// `N` arbitrary bytes.
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.u8())
    }

    /// A string of characters from the union of `classes` (a regex
    /// character class spelled out), length drawn from `len`.
    pub fn string(
        &mut self,
        classes: &[RangeInclusive<char>],
        len: RangeInclusive<usize>,
    ) -> String {
        let bounds = |c: &RangeInclusive<char>| {
            let (first, last) = c.clone().into_inner();
            (first as u32, last as u32 - first as u32 + 1)
        };
        let total: u32 = classes.iter().map(|c| bounds(c).1).sum();
        self.vec(len, |g| {
            let mut k = g.below(total as u64) as u32;
            for (first, width) in classes.iter().map(bounds) {
                if k < width {
                    // Classes never span the surrogate gap.
                    return char::from_u32(first + k).unwrap_or('?');
                }
                k -= width;
            }
            '?'
        })
        .into_iter()
        .collect()
    }

    /// `bytes` with a few positions overwritten and the tail cut: a
    /// hostile input that still gets past a parser's magic number and
    /// framing, which purely random bytes never do.
    pub fn corrupt(&mut self, mut bytes: Vec<u8>) -> Vec<u8> {
        for _ in 0..self.size(1..=4) {
            if let Some(b) = bytes.len().checked_sub(1).map(|last| self.size(0..=last)) {
                bytes[b] = self.u8();
            }
        }
        bytes.truncate(self.size(0..=bytes.len()));
        bytes
    }

    /// `text` with one line cut short and continued with printable
    /// junk: reaches the per-line parsers of a line-based format.
    pub fn corrupt_line(&mut self, text: &str) -> String {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        if let Some(last) = lines.len().checked_sub(1) {
            let line = &mut lines[self.size(0..=last)];
            let cut = self.size(0..=line.len());
            *line = format!(
                "{}{}",
                line.get(..cut).unwrap_or(""),
                self.printable(0..=40)
            );
        }
        lines.join("\n")
    }

    /// Printable text of any script (regex `\PC`): ASCII, Latin, CJK,
    /// emoji — what a text parser must survive.
    pub fn printable(&mut self, len: RangeInclusive<usize>) -> String {
        self.string(
            &[
                ' '..='~',
                '\u{a0}'..='\u{24f}',
                '\u{4e00}'..='\u{4e3f}',
                '\u{1f600}'..='\u{1f64f}',
            ],
            len,
        )
    }
}

/// Run `prop` on a replayed sequence; `Some(choices actually drawn)`
/// if it panicked.
fn fails(choices: &[u64], prop: &impl Fn(&mut Gen)) -> Option<Vec<u64>> {
    let mut g = Gen::new(0, Some(choices));
    catch_unwind(AssertUnwindSafe(|| prop(&mut g)))
        .is_err()
        .then_some(g.taken)
}

/// Shorter, then lexicographically smaller: a well-founded order, so
/// shrinking terminates.
fn simpler(a: &[u64], b: &[u64]) -> bool {
    (a.len(), a) < (b.len(), b)
}

fn shrink(mut best: Vec<u64>, prop: &impl Fn(&mut Gen)) -> Vec<u64> {
    let replays = std::cell::Cell::new(0);
    // Keep `cand` if the property still fails on it and what it drew is
    // simpler; once the replay budget is spent nothing is tried.
    let attempt = |cand: Vec<u64>, best: &mut Vec<u64>| {
        if replays.replace(replays.get() + 1) >= SHRINK_REPLAYS {
            return false;
        }
        match fails(&cand, prop) {
            Some(taken) if simpler(&taken, best) => {
                *best = taken;
                true
            }
            _ => false,
        }
    };
    loop {
        let before = best.clone();
        for keep in [0, best.len() / 2] {
            attempt(best[..keep].to_vec(), &mut best);
        }
        // A vector element is a run of adjacent draws: cut runs out.
        for run in [8, 4, 2, 1] {
            let mut i = 0;
            while i + run <= best.len() {
                let mut cand = best.clone();
                cand.drain(i..i + run);
                if !attempt(cand, &mut best) {
                    i += 1;
                }
            }
        }
        let mut i = 0;
        while i < best.len() {
            let v = best[i];
            for smaller in [0, v / 2, v.saturating_sub(1)] {
                let mut cand = best.clone();
                cand[i] = smaller;
                if smaller < v && attempt(cand, &mut best) {
                    break;
                }
            }
            i += 1;
        }
        if best == before {
            return best;
        }
    }
}

/// Check `prop` on `cases` generated inputs (seeds `0..cases`, so a run
/// is reproducible). On failure: shrink, report, and fail the test.
pub fn check(cases: u64, prop: impl Fn(&mut Gen)) {
    for seed in 0..cases {
        let mut g = Gen::new(seed, None);
        if catch_unwind(AssertUnwindSafe(|| prop(&mut g))).is_err() {
            let minimal = shrink(g.taken, &prop);
            eprintln!("property failed at seed {seed}; minimal choice sequence: {minimal:?}");
            eprintln!("regression case: ldp_rng::check::rerun(&{minimal:?}, ..)");
            rerun(&minimal, &prop);
            panic!("seed {seed} failed but its minimal sequence passes on replay: the property is not deterministic");
        }
    }
}

/// Run `prop` once on a recorded choice sequence (a checked-in
/// regression case).
pub fn rerun(choices: &[u64], prop: impl Fn(&mut Gen)) {
    prop(&mut Gen::new(0, Some(choices)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_every_case() {
        let runs = std::cell::Cell::new(0);
        check(100, |g| {
            runs.set(runs.get() + 1);
            let v = g.vec(0..=8, |g| g.range(3..=9));
            assert!(v.len() <= 8 && v.iter().all(|x| (3..=9).contains(x)));
            let s = g.string(&['a'..='c', '0'..='1'], 2..=4);
            assert!((2..=4).contains(&s.len()) && s.chars().all(|c| "abc01".contains(c)));
            assert!((1.5..2.5).contains(&g.f64(1.5, 2.5)));
        });
        assert_eq!(runs.get(), 100);
    }

    #[test]
    fn shrinks_to_the_minimal_counterexample() {
        // "No vector holds an element ≥ 100": minimal failure is the
        // one-element vector [100].
        let prop = |g: &mut Gen| {
            let v = g.vec(0..=20, |g| g.range(0..=1000));
            assert!(v.iter().all(|&x| x < 100), "{v:?}");
        };
        let failing = (0..).find_map(|seed| {
            let mut g = Gen::new(seed, None);
            catch_unwind(AssertUnwindSafe(|| prop(&mut g)))
                .is_err()
                .then_some(g.taken)
        });
        let minimal = shrink(failing.unwrap(), &prop);
        assert_eq!(minimal, vec![1, 100, 0], "one more, the element, no more");
        assert!(
            fails(&minimal, &prop).is_some(),
            "replay reproduces the failure"
        );
    }

    #[test]
    fn same_seed_same_inputs_and_edges_appear() {
        let draw = |seed| {
            let mut g = Gen::new(seed, None);
            (g.u64(), g.bytes(0..=16), g.u16())
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut g = Gen::new(1, None);
        let xs: Vec<u32> = (0..400).map(|_| g.u32()).collect();
        assert!(xs.contains(&0) || xs.contains(&1));
        assert!(xs.contains(&u32::MAX));
    }
}
