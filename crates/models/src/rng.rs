//! Deterministic, seed-splittable random number generation for workload
//! synthesis.
//!
//! Every generator in this crate derives its stream from `(seed, indices)`
//! via SplitMix64 so that pattern sources are pure functions of their
//! sub-tile coordinates — the property the sampling simulator relies on.

/// SplitMix64 step: maps a state to a well-mixed 64-bit value.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mixes a seed with up to three coordinates into one stream key:
/// `splitmix64` of the XOR of `seed` and one term per coordinate. Each
/// term depends on its coordinate only, so a generator that walks a grid
/// can derive a row's, a column's or a constant's term once and XOR the
/// terms per value, in any grouping.
#[inline]
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix64(seed ^ a_term(a) ^ b_term(b) ^ c_term(c))
}

/// `mix`'s first-coordinate (row) term.
#[inline]
pub(crate) fn a_term(a: u64) -> u64 {
    splitmix64(a ^ 0xA076_1D64_78BD_642F)
}

/// `mix`'s second-coordinate (column) term.
#[inline]
pub(crate) fn b_term(b: u64) -> u64 {
    splitmix64(b ^ 0xE703_7ED1_A0B4_28DB).rotate_left(21)
}

/// `mix`'s third-coordinate (stream constant) term.
#[inline]
pub(crate) fn c_term(c: u64) -> u64 {
    splitmix64(c ^ 0x8EBC_6AF0_9C88_C6E3).rotate_left(42)
}

/// A small counter-based RNG seeded from a stream key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRng {
    key: u64,
    counter: u64,
}

impl StreamRng {
    /// Creates the stream.
    pub fn new(key: u64) -> Self {
        Self { key, counter: 0 }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(self.key.wrapping_add(self.counter.wrapping_mul(0x9E3779B97F4A7C15)))
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Approximately standard-normal sample (Irwin–Hall sum of 12
    /// uniforms; exact mean 0, variance 1, support ±6σ — ample for
    /// weight synthesis).
    ///
    /// Twelve SplitMix64 steps, each with two 64-bit multiplies. At the
    /// default x86-64 target LLVM may vectorize a loop that draws one
    /// sample per element and emulate those multiplies with SSE2
    /// `pmuludq`, which is slower than scalar `imul`; `QuantGaussianSource`
    /// keeps its per-value draw out of line so it stays scalar.
    pub fn next_gaussian(&mut self) -> f32 {
        let mut s = 0.0f32;
        for _ in 0..12 {
            s += self.next_f32();
        }
        s - 6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = StreamRng::new(mix(7, 1, 2, 3));
        let mut b = StreamRng::new(mix(7, 1, 2, 3));
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_coordinates_differ() {
        assert_ne!(mix(7, 1, 2, 3), mix(7, 1, 2, 4));
        assert_ne!(mix(7, 1, 2, 3), mix(8, 1, 2, 3));
        assert_ne!(mix(7, 2, 1, 3), mix(7, 1, 2, 3));
    }

    #[test]
    fn uniform_range() {
        let mut r = StreamRng::new(42);
        for _ in 0..1000 {
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = StreamRng::new(99);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
