//! Deterministic randomness for the simulator.
//!
//! Every stochastic choice in a simulation run (message loss, latency jitter,
//! workload generation) is drawn from a [`DetRng`] seeded from the run
//! configuration, so a `(network, fault plan, seed)` triple always replays
//! the exact same execution. Substreams can be forked with [`DetRng::fork`]
//! so that adding draws in one component does not perturb the sequence seen
//! by another.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded, forkable random-number generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    seed: u64,
}

impl DetRng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator (or its fork ancestry) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent substream identified by `label`. Forking with
    /// the same label from the same parent always yields the same stream.
    pub fn fork(&self, label: u64) -> DetRng {
        // SplitMix64-style mixing keeps forks statistically independent.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(label.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::new(z)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform integer in `[0, bound)`. `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        self.inner.gen_range(0..bound)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range() requires lo < hi");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick() requires a non-empty slice");
        let i = self.below(items.len() as u64) as usize;
        &items[i]
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Exponentially distributed sample with the given mean (for Poisson
    /// arrival processes in the workload generators).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential() requires a positive mean");
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(1234);
        let mut b = DetRng::new(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let root = DetRng::new(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn chance_handles_extremes() {
        let mut r = DetRng::new(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1_000 {
            assert!(r.below(7) < 7);
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_has_roughly_the_requested_mean() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    #[should_panic]
    fn below_zero_bound_panics() {
        DetRng::new(0).below(0);
    }
}
