//! Synthetic tensor and pattern generators (the substitutions of
//! DESIGN.md §3).
//!
//! Two pattern distributions drive the performance experiments:
//!
//! * [`UniformBitSource`] — uniform random 0/1 bits, the distribution of
//!   the paper's design-space exploration (Fig. 9's "1024×1024 random 0-1
//!   matrix") and the "Rand" series of Fig. 13;
//! * [`QuantGaussianSource`] — Gaussian weights quantized then bit-sliced,
//!   the stand-in for "real data" traces (Fig. 13's "Real" series): the
//!   high bit planes carry 2's-complement sign correlation, yielding
//!   slightly fewer unique TransRows than uniform bits — exactly the
//!   effect §5.9 reports.
//!
//! Plus the LLM-like FP32 matrix generators the Table 3 accuracy study
//! uses (Gaussian body, 40× outlier feature channels on activations,
//! rare mild element outliers on weights — the SmoothQuant-documented
//! structure).

use crate::rng::{a_term, b_term, c_term, mix, splitmix64, StreamRng};
use ta_core::PatternSource;
use ta_quant::{MatF32, MatI32};

/// Uniform random bit patterns, deterministic per sub-tile coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformBitSource {
    width: u32,
    rows_per_subtile: usize,
    seed: u64,
}

impl UniformBitSource {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=16` or `rows_per_subtile` is 0.
    pub fn new(width: u32, rows_per_subtile: usize, seed: u64) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        assert!(rows_per_subtile > 0, "rows_per_subtile must be non-zero");
        Self { width, rows_per_subtile, seed }
    }
}

impl PatternSource for UniformBitSource {
    fn width(&self) -> u32 {
        self.width
    }

    fn subtile_patterns(&mut self, n_tile: usize, k_chunk: usize) -> Vec<u16> {
        let mut rng = StreamRng::new(mix(self.seed, n_tile as u64, k_chunk as u64, 0));
        let mask = ((1u32 << self.width) - 1) as u16;
        (0..self.rows_per_subtile).map(|_| (rng.next_u64() as u16) & mask).collect()
    }

    fn rows_per_subtile(&self) -> usize {
        self.rows_per_subtile
    }

    fn fork(&self) -> Option<Box<dyn PatternSource + Send + '_>> {
        Some(Box::new(*self))
    }
}

/// Gaussian-quantized weight patterns: per sub-tile, an `n × width` block
/// of `weight_bits`-bit 2's-complement values drawn from a Gaussian
/// calibrated so the block absmax sits at the quantization ceiling, then
/// bit-sliced row-major (`row·S + level`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantGaussianSource {
    width: u32,
    weight_bits: u32,
    n_rows: usize,
    seed: u64,
    /// Quantized-domain standard deviation (absmax calibration over a
    /// group-128 context puts σ_q near `qmax/3.2`).
    sigma_q: f32,
}

impl QuantGaussianSource {
    /// Creates the source for `n_rows` weight rows per sub-tile.
    ///
    /// # Panics
    ///
    /// Panics if widths are out of range or `n_rows` is zero.
    pub fn new(width: u32, weight_bits: u32, n_rows: usize, seed: u64) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        assert!((2..=16).contains(&weight_bits), "weight_bits in 2..=16");
        assert!(n_rows > 0, "n_rows must be non-zero");
        let qmax = ((1i32 << (weight_bits - 1)) - 1) as f32;
        Self { width, weight_bits, n_rows, seed, sigma_q: qmax / 3.2 }
    }

    /// The quantized weight value drawn from the stream `key`.
    ///
    /// Kept out of line so the per-value Gaussian runs as scalar code.
    /// Inlined, LLVM vectorizes the row's column loop over it and, lacking
    /// a 64-bit vector multiply at the default x86-64 target, emulates
    /// each SplitMix64 multiply with SSE2 `pmuludq` sequences, which run
    /// slower than the scalar `imul`s (about 5.9 against 4.4 µs per
    /// 32-row T=8 sub-tile on a 2-vCPU Xeon).
    #[inline(never)]
    fn value(&self, key: u64) -> i32 {
        let qmax = (1i32 << (self.weight_bits - 1)) - 1;
        let v = (StreamRng::new(key).next_gaussian() * self.sigma_q).round() as i32;
        v.clamp(-qmax, qmax)
    }
}

impl PatternSource for QuantGaussianSource {
    fn width(&self) -> u32 {
        self.width
    }

    fn subtile_patterns(&mut self, n_tile: usize, k_chunk: usize) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.rows_per_subtile());
        self.subtile_patterns_into(n_tile, k_chunk, &mut out);
        out
    }

    fn subtile_patterns_into(&mut self, n_tile: usize, k_chunk: usize, out: &mut Vec<u16>) {
        let s = self.weight_bits as usize;
        let t = self.width as usize;
        out.clear();
        out.resize(self.n_rows * s, 0);
        // The value at global row `n_tile·n_rows + r`, column
        // `k_chunk·T + c` is drawn from `mix(seed, row, col, 0x51C9)`. Its
        // constant and column terms are derived once per sub-tile and its
        // row term once per row, so a value costs one key `splitmix64`
        // plus the Gaussian's twelve.
        let base = self.seed ^ c_term(0x51C9);
        let mut col_terms = [0u64; 16];
        for (c, term) in col_terms[..t].iter_mut().enumerate() {
            *term = b_term((k_chunk * t + c) as u64);
        }
        let mut vals = [0i32; 16];
        for (r, row) in out.chunks_exact_mut(s).enumerate() {
            let row_key = base ^ a_term((n_tile * self.n_rows + r) as u64);
            for (v, &col) in vals[..t].iter_mut().zip(&col_terms[..t]) {
                *v = self.value(splitmix64(row_key ^ col));
            }
            // One branch-free bit-transpose slicing pass per weight row.
            ta_bitslice::kernels::slice_patterns(&vals[..t], self.weight_bits, row);
        }
    }

    fn rows_per_subtile(&self) -> usize {
        self.n_rows * self.weight_bits as usize
    }

    fn fork(&self) -> Option<Box<dyn PatternSource + Send + '_>> {
        Some(Box::new(*self))
    }
}

/// LLM-like weight matrix: Gaussian body with ~0.1% mild (6σ) element
/// outliers — the structure PTQ papers report for Transformer weights
/// (smooth bodies, rare spikes; OliVe's outlier-victim pairs target
/// exactly these).
pub fn llm_weight_matrix(n: usize, k: usize, seed: u64) -> MatF32 {
    let mut m = MatF32::from_fn(n, k, |r, c| {
        StreamRng::new(mix(seed, r as u64, c as u64, 1)).next_gaussian()
    });
    // Rare mild element outliers.
    let total = n * k;
    let mut idx = 17usize;
    while idx < total {
        let (r, c) = (idx / k, idx % k);
        let sign = if m.get(r, c) < 0.0 { -1.0 } else { 1.0 };
        m.set(r, c, sign * 6.0);
        idx += 997;
    }
    m
}

/// LLM-like activation matrix: Gaussian body with 40× outlier feature
/// rows (the SmoothQuant-documented structure, also §5.9 of the paper).
pub fn llm_activation_matrix(k: usize, mcols: usize, seed: u64) -> MatF32 {
    let mut m = MatF32::from_fn(k, mcols, |r, c| {
        StreamRng::new(mix(seed, r as u64, c as u64, 2)).next_gaussian()
    });
    for &f in &outlier_features(k) {
        for c in 0..mcols {
            let v = m.get(f, c) * 40.0;
            m.set(f, c, v);
        }
    }
    m
}

/// The outlier feature indices for a `k`-feature tensor (~1.5% of
/// features, deterministic).
fn outlier_features(k: usize) -> Vec<usize> {
    let count = (k / 64).max(1);
    (0..count).map(|i| (i * 64 + 3).min(k - 1)).collect()
}

/// Quantized integer LLM-like weights for functional runs.
pub fn llm_weight_matrix_int(n: usize, k: usize, bits: u32, seed: u64) -> MatI32 {
    let qmax = (1i32 << (bits - 1)) - 1;
    let sigma = qmax as f32 / 3.2;
    MatI32::from_fn(n, k, |r, c| {
        let g = StreamRng::new(mix(seed, r as u64, c as u64, 3)).next_gaussian();
        ((g * sigma).round() as i32).clamp(-qmax, qmax)
    })
}

/// Quantized integer LLM-like activations for functional runs: the
/// Gaussian body of [`llm_activation_matrix`] with its 40× outlier
/// feature rows saturating the integer grid — the input side of the
/// functional-execution bench workload.
pub fn llm_activation_matrix_int(k: usize, mcols: usize, bits: u32, seed: u64) -> MatI32 {
    let qmax = (1i32 << (bits - 1)) - 1;
    let sigma = qmax as f32 / 3.2;
    let outliers = outlier_features(k);
    MatI32::from_fn(k, mcols, |r, c| {
        let g = StreamRng::new(mix(seed, r as u64, c as u64, 4)).next_gaussian();
        let scale = if outliers.contains(&r) { sigma * 40.0 } else { sigma };
        ((g * scale).round() as i32).clamp(-qmax, qmax)
    })
}

/// A deterministic integer matrix with entries spanning the signed
/// `bits` range — counter-mode splitmix64 keyed on `(seed, r, c)`, so a
/// `(seed, shape)` pair maps to byte-identical operands on every replay.
/// Backs `ta-serve`'s load-generated requests.
pub fn seeded_span_matrix(rows: usize, cols: usize, bits: u32, seed: u64) -> MatI32 {
    let span = 1u64 << bits;
    let half = (1i64 << (bits - 1)) as i32;
    MatI32::from_fn(rows, cols, |r, c| {
        let x = splitmix64(seed ^ (((r as u64) << 32) | c as u64));
        (x % span) as i32 - half
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uniform_source_deterministic_and_distinct() {
        let mut a = UniformBitSource::new(8, 64, 7);
        let mut b = UniformBitSource::new(8, 64, 7);
        assert_eq!(a.subtile_patterns(3, 5), b.subtile_patterns(3, 5));
        assert_ne!(a.subtile_patterns(3, 5), a.subtile_patterns(3, 6));
        assert_eq!(a.rows_per_subtile(), 64);
    }

    #[test]
    fn uniform_source_respects_width() {
        let mut s = UniformBitSource::new(5, 200, 11);
        for p in s.subtile_patterns(0, 0) {
            assert!(p < 32);
        }
    }

    #[test]
    fn uniform_bit_density_near_half() {
        let mut s = UniformBitSource::new(8, 4096, 13);
        let ones: u64 = s.subtile_patterns(0, 0).iter().map(|p| p.count_ones() as u64).sum();
        let density = ones as f64 / (4096.0 * 8.0);
        assert!((density - 0.5).abs() < 0.02, "{density}");
    }

    #[test]
    fn quant_source_shape_and_determinism() {
        let mut s = QuantGaussianSource::new(8, 8, 32, 21);
        let p = s.subtile_patterns(1, 2);
        assert_eq!(p.len(), 256);
        assert_eq!(p, s.subtile_patterns(1, 2));
        let mut dirty = vec![0xFFFFu16; 3];
        s.subtile_patterns_into(1, 2, &mut dirty);
        assert_eq!(dirty, p);
    }

    impl QuantGaussianSource {
        /// One value as the source drew it before its terms were hoisted:
        /// `mix` over the global row and column, per value — the
        /// reference `subtile_patterns_into` must match bit for bit.
        fn oracle_value(&self, n_tile: usize, k_chunk: usize, r: usize, c: usize) -> i32 {
            let key = mix(
                self.seed,
                (n_tile * self.n_rows + r) as u64,
                (k_chunk * self.width as usize + c) as u64,
                0x51C9,
            );
            let mut rng = StreamRng::new(key);
            let qmax = (1i32 << (self.weight_bits - 1)) - 1;
            let v = (rng.next_gaussian() * self.sigma_q).round() as i32;
            v.clamp(-qmax, qmax)
        }
    }

    #[test]
    fn quant_source_matches_per_value_mix_oracle() {
        let tiles = [(0, 0), (5, 3), (1_000_000, 7), (11, 100_000), (1_000_000, 100_000)];
        let mut got = Vec::new();
        for width in 1..=16u32 {
            for weight_bits in 2..=16u32 {
                let levels = weight_bits as usize;
                for n_rows in [1usize, 3, 32, 37] {
                    for seed in [1u64, 0x9E37_79B9_7F4A_7C15] {
                        let mut src = QuantGaussianSource::new(width, weight_bits, n_rows, seed);
                        for (n_tile, k_chunk) in tiles {
                            src.subtile_patterns_into(n_tile, k_chunk, &mut got);
                            // Scalar slicing: bit `c` of pattern `r·S + l` is
                            // bit `l` of value `(r, c)`.
                            let mut want = vec![0u16; n_rows * levels];
                            for r in 0..n_rows {
                                for c in 0..width as usize {
                                    let v = src.oracle_value(n_tile, k_chunk, r, c);
                                    for l in 0..levels {
                                        want[r * levels + l] |= (((v >> l) & 1) as u16) << c;
                                    }
                                }
                            }
                            assert_eq!(
                                got, want,
                                "T={width} S={weight_bits} n={n_rows} seed={seed:#x} \
                                 tile=({n_tile}, {k_chunk})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn synthetic_sources_fork_identically() {
        let mut uni = UniformBitSource::new(8, 32, 5);
        let mut quant = QuantGaussianSource::new(8, 8, 8, 5);
        let expected: Vec<(Vec<u16>, Vec<u16>)> = (0..6)
            .map(|i| (uni.subtile_patterns(i / 3, i % 3), quant.subtile_patterns(i / 3, i % 3)))
            .collect();
        let mut uni_fork = uni.fork().expect("uniform source must fork");
        let mut quant_fork = quant.fork().expect("quant source must fork");
        for (i, (want_uni, want_quant)) in expected.iter().enumerate() {
            assert_eq!(&uni_fork.subtile_patterns(i / 3, i % 3), want_uni);
            assert_eq!(&quant_fork.subtile_patterns(i / 3, i % 3), want_quant);
        }
    }

    #[test]
    fn real_like_has_fewer_unique_patterns_than_uniform() {
        // §5.9: real data shows *fewer* unique TransRows than uniform
        // random (162 expected for uniform 256-of-256).
        let mut uni = UniformBitSource::new(8, 256, 3);
        let mut real = QuantGaussianSource::new(8, 8, 32, 3);
        let mut uni_unique = 0usize;
        let mut real_unique = 0usize;
        for tile in 0..20 {
            uni_unique +=
                uni.subtile_patterns(tile, 0).iter().copied().collect::<HashSet<u16>>().len();
            real_unique +=
                real.subtile_patterns(tile, 0).iter().copied().collect::<HashSet<u16>>().len();
        }
        assert!(real_unique < uni_unique, "real {real_unique} should be < uniform {uni_unique}");
    }

    #[test]
    fn activation_outliers_present() {
        let a = llm_activation_matrix(256, 16, 5);
        let body: f32 = (0..16).map(|c| a.get(0, c).abs()).sum::<f32>() / 16.0;
        let outlier: f32 = (0..16).map(|c| a.get(3, c).abs()).sum::<f32>() / 16.0;
        assert!(outlier > 10.0 * body, "outlier {outlier} vs body {body}");
    }

    #[test]
    fn weight_matrix_int_fits_bits() {
        let w = llm_weight_matrix_int(16, 32, 4, 9);
        assert!(w.fits_signed_bits(4));
        let w8 = llm_weight_matrix_int(16, 32, 8, 9);
        assert!(w8.fits_signed_bits(8));
        // Distribution actually uses the range.
        let (lo, hi) = w8.min_max();
        assert!(lo < -40 && hi > 40, "{lo}..{hi}");
    }

    #[test]
    fn activation_matrix_int_fits_bits_and_keeps_outlier_rows() {
        let a = llm_activation_matrix_int(256, 16, 8, 5);
        assert!(a.fits_signed_bits(8));
        // Feature 3 is an outlier row: it saturates far more often than
        // the Gaussian body.
        let row_mean = |r: usize| (0..16).map(|c| a.get(r, c).abs()).sum::<i32>() as f64 / 16.0;
        assert!(row_mean(3) > 3.0 * row_mean(0), "{} vs {}", row_mean(3), row_mean(0));
        // Deterministic per seed.
        assert_eq!(a, llm_activation_matrix_int(256, 16, 8, 5));
        assert_ne!(a, llm_activation_matrix_int(256, 16, 8, 6));
    }

    #[test]
    fn weight_matrix_has_rare_element_outliers() {
        let w = llm_weight_matrix(32, 128, 1);
        let spikes = w.as_slice().iter().filter(|v| v.abs() >= 5.5).count();
        let total = w.len();
        let frac = spikes as f64 / total as f64;
        assert!((0.0003..0.01).contains(&frac), "element-outlier fraction {frac} should be ~0.1%");
    }
}
