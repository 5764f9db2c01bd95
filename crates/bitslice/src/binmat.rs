//! Packed binary matrices.
//!
//! The bit-sliced weight tensor is a 0/1 matrix of shape `(S·N × K)`
//! (Fig. 2). [`BinaryMatrix`] stores it packed 64 rows-bits per word with
//! fast per-row chunk extraction — the operation that produces TransRows.

use crate::kernels;
use std::fmt;

/// A dense 0/1 matrix, bit-packed row-major (`u64` words per row).
///
/// # Examples
///
/// ```
/// use ta_bitslice::BinaryMatrix;
///
/// let mut m = BinaryMatrix::zeros(2, 10);
/// m.set(1, 9, true);
/// assert!(m.get(1, 9));
/// assert_eq!(m.popcount(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BinaryMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self { rows, cols, words_per_row, words: vec![0; rows * words_per_row] }
    }

    /// Builds a matrix by evaluating a predicate per element. Words are
    /// assembled directly ([`Self::set_row_from_fn`]) rather than via
    /// per-element [`Self::set`] read-modify-writes.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            m.set_row_from_fn(r, |c| f(r, c));
        }
        m
    }

    /// Overwrites row `r` from a per-column predicate, assembling each
    /// packed `u64` word in a register before one store — the word-level
    /// row builder behind [`Self::from_fn`] and the bit-slicer.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn set_row_from_fn(&mut self, r: usize, mut f: impl FnMut(usize) -> bool) {
        assert!(r < self.rows, "row {r} out of bounds");
        let words = &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
        for (wi, word) in words.iter_mut().enumerate() {
            let c0 = wi * 64;
            let lanes = (self.cols - c0).min(64);
            let mut w = 0u64;
            for b in 0..lanes {
                w |= u64::from(f(c0 + b)) << b;
            }
            *word = w;
        }
    }

    /// The packed `u64` words of row `r`: bit `c` of the row is bit
    /// `c % 64` of word `c / 64`. Bits at positions `>= cols` in the last
    /// word are always zero (the tail-zero invariant the word kernels in
    /// [`crate::kernels`] rely on).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Mutable packed words of row `r` — the raw store the write kernels
    /// ([`crate::kernels::insert_bits`], [`crate::kernels::slice_rows`])
    /// assemble rows through.
    ///
    /// **Caller obligation:** bits at positions `>= cols` in the last
    /// word must be left zero. The read kernels and popcounts rely on
    /// that tail-zero invariant instead of re-masking per call.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn words_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Stacks blocks vertically (in order) into one matrix — the stitch
    /// step of sharded bit-slicing. The packed row-major layout makes
    /// this a straight word concatenation.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or the column counts disagree.
    pub fn vstack(blocks: &[BinaryMatrix]) -> Self {
        let first = blocks.first().expect("vstack needs at least one block");
        let cols = first.cols;
        let words_per_row = first.words_per_row;
        let mut rows = 0usize;
        let mut words = Vec::with_capacity(blocks.iter().map(|b| b.words.len()).sum());
        for b in blocks {
            assert_eq!(b.cols, cols, "vstack blocks must have equal column counts");
            rows += b.rows;
            words.extend_from_slice(&b.words);
        }
        Self { rows, cols, words_per_row, words }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        let w = self.words[r * self.words_per_row + c / 64];
        (w >> (c % 64)) & 1 == 1
    }

    /// Sets the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        let w = &mut self.words[r * self.words_per_row + c / 64];
        if v {
            *w |= 1u64 << (c % 64);
        } else {
            *w &= !(1u64 << (c % 64));
        }
    }

    /// Total number of set bits.
    pub fn popcount(&self) -> u64 {
        // One pass over the whole packed store: tail bits are zero by
        // invariant, so no per-row masking is needed.
        kernels::popcount_words(&self.words)
    }

    /// Fraction of set bits (the *bit density* that bit-sparsity
    /// accelerators exploit; ≈0.5 for uniform random data, Fig. 13's
    /// reference line).
    pub fn bit_density(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.popcount() as f64 / total
        }
    }

    /// Writes `width` bits of `pattern` into row `r` starting at `c0`
    /// (bits past the edge are dropped).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `width > 16` or `width == 0`.
    pub fn insert_pattern(&mut self, r: usize, c0: usize, width: u32, pattern: u16) {
        let cols = self.cols;
        kernels::insert_bits(self.words_mut(r), cols, c0, width, pattern);
    }
}

impl fmt::Debug for BinaryMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BinaryMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(16) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(64) {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f, "{}", if self.cols > 64 { "…" } else { "" })?;
        }
        if self.rows > 16 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_across_word_boundary() {
        let mut m = BinaryMatrix::zeros(2, 130);
        for c in [0usize, 63, 64, 65, 127, 128, 129] {
            m.set(1, c, true);
            assert!(m.get(1, c), "col {c}");
            assert!(!m.get(0, c), "row isolation at col {c}");
        }
        assert_eq!(m.popcount(), 7);
        m.set(1, 64, false);
        assert!(!m.get(1, 64));
        assert_eq!(m.popcount(), 6);
    }

    #[test]
    fn from_fn_checkerboard() {
        let m = BinaryMatrix::from_fn(4, 4, |r, c| (r + c) % 2 == 0);
        assert_eq!(m.popcount(), 8);
        assert!((m.bit_density() - 0.5).abs() < 1e-12);
    }

    /// Scalar reference builder: the per-element `set` loop the word-level
    /// [`BinaryMatrix::from_fn`] replaced.
    fn from_fn_scalar(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> BinaryMatrix {
        let mut m = BinaryMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn word_level_from_fn_matches_scalar() {
        // Shapes straddling word boundaries, including exact multiples.
        for (rows, cols) in [(1usize, 1usize), (3, 63), (2, 64), (4, 65), (5, 130), (1, 200)] {
            for seed in 0u64..4 {
                let f = |r: usize, c: usize| {
                    (r as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((c as u64).wrapping_mul(0xBF58476D1CE4E5B9))
                        .wrapping_add(seed)
                        .count_ones()
                        % 2
                        == 0
                };
                let word = BinaryMatrix::from_fn(rows, cols, f);
                let scalar = from_fn_scalar(rows, cols, f);
                assert_eq!(word, scalar, "{rows}x{cols} seed {seed}");
            }
        }
    }

    #[test]
    fn set_row_from_fn_leaves_tail_bits_zero() {
        // cols = 70: the second word has 58 unused bits that must stay
        // zero even when the predicate is all-true (the read kernels rely
        // on that invariant).
        let mut m = BinaryMatrix::zeros(2, 70);
        m.set_row_from_fn(1, |_| true);
        assert_eq!(m.words(1), [u64::MAX, (1 << 6) - 1]);
        assert_eq!(m.popcount(), 70);
    }

    #[test]
    fn insert_extract_roundtrip() {
        let mut m = BinaryMatrix::zeros(3, 40);
        for (i, p) in [0b1010u16, 0b1111, 0b0001].iter().enumerate() {
            m.insert_pattern(i, 8, 4, *p);
            assert_eq!(kernels::extract_bits(m.words(i), 8, 4), *p);
        }
        // Other columns untouched.
        assert_eq!(kernels::extract_bits(m.words(0), 0, 8), 0);
    }

    #[test]
    fn empty_matrix_density() {
        assert_eq!(BinaryMatrix::zeros(0, 0).bit_density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_oob_panics() {
        let m = BinaryMatrix::zeros(1, 1);
        let _ = m.get(0, 1);
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn extract_width_zero_panics() {
        let m = BinaryMatrix::zeros(1, 8);
        let _ = kernels::extract_bits(m.words(0), 0, 0);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", BinaryMatrix::zeros(1, 1)).is_empty());
    }
}
