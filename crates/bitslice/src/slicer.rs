//! Bit-slicing of signed integer matrices (Fig. 2).
//!
//! An `S`-bit 2's-complement matrix of shape `(N × K)` is decomposed into
//! `S` binary planes and rearranged into a single `(S·N × K)` binary
//! matrix. Binary row `n·S + s` holds bit level `s` (0 = LSB) of weight
//! row `n`; the MSB plane (`s = S−1`) carries weight `−2^(S−1)`, all other
//! planes `+2^s` — so the reconstruction
//! `w = −b_{S−1}·2^(S−1) + Σ b_s·2^s` is exact for every representable
//! value, which is what makes the whole transitive pipeline lossless.

use crate::binmat::BinaryMatrix;
use crate::kernels::slice_rows;
use ta_quant::MatI32;

/// A bit-sliced integer matrix: the packed `(S·N × K)` binary matrix plus
/// the metadata needed to reconstruct and to schedule (bit level ↔ shift
/// and sign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlicedMatrix {
    bits: u32,
    n: usize,
    k: usize,
    planes: BinaryMatrix,
}

impl BitSlicedMatrix {
    /// Slices a signed matrix into `bits` binary planes.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or any element does not fit in
    /// `bits` signed bits (callers quantize first; an out-of-range value is
    /// a logic error upstream).
    ///
    /// # Examples
    ///
    /// ```
    /// use ta_bitslice::BitSlicedMatrix;
    /// use ta_quant::MatI32;
    ///
    /// let w = MatI32::from_rows(&[&[6, -5, -2, 4]]);
    /// let sliced = BitSlicedMatrix::slice(&w, 4);
    /// assert_eq!(sliced.reconstruct(), w);
    /// ```
    pub fn slice(m: &MatI32, bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16, got {bits}");
        assert!(
            m.fits_signed_bits(bits),
            "matrix does not fit in {bits} signed bits; quantize first"
        );
        let (n, k) = (m.rows(), m.cols());
        Self { bits, n, k, planes: slice_rows(m, bits, 0, n) }
    }

    /// [`Self::slice`] sharded across `threads` scoped worker threads:
    /// each worker slices a contiguous range of source rows, and the
    /// per-shard plane blocks are stitched back in row order, so the
    /// result is **identical** to the serial slice. `threads <= 1` (or a
    /// matrix too small to shard) runs serially.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::slice`].
    pub fn slice_parallel(m: &MatI32, bits: u32, threads: usize) -> Self {
        let (n, k) = (m.rows(), m.cols());
        if threads <= 1 || n < 2 * threads {
            return Self::slice(m, bits);
        }
        assert!((2..=16).contains(&bits), "bits must be in 2..=16, got {bits}");
        assert!(
            m.fits_signed_bits(bits),
            "matrix does not fit in {bits} signed bits; quantize first"
        );
        // Near-equal contiguous row shards, one per worker.
        let shards = threads.min(n);
        let base = n / shards;
        let extra = n % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for i in 0..shards {
            let len = base + usize::from(i < extra);
            ranges.push((start, start + len));
            start += len;
        }
        let blocks = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|(r0, r1)| scope.spawn(move || slice_rows(m, bits, r0, r1)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bit-slicing worker panicked"))
                .collect::<Vec<_>>()
        });
        Self { bits, n, k, planes: BinaryMatrix::vstack(&blocks) }
    }

    /// Bit width `S`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Source matrix column count `K` (the reduction dimension).
    pub fn cols(&self) -> usize {
        self.k
    }

    /// Total binary rows, `S·N`.
    pub fn binary_rows(&self) -> usize {
        self.n * self.bits as usize
    }

    /// The packed `(S·N × K)` binary matrix.
    pub fn planes(&self) -> &BinaryMatrix {
        &self.planes
    }

    /// Decodes a binary row index into `(source_row, bit_level)`.
    #[inline]
    pub fn decode_row(&self, binary_row: usize) -> (usize, u32) {
        (binary_row / self.bits as usize, (binary_row % self.bits as usize) as u32)
    }

    /// Signed weight of bit level `s`: `−2^(S−1)` for the MSB plane,
    /// `+2^s` otherwise.
    #[inline]
    pub fn level_weight(&self, s: u32) -> i64 {
        debug_assert!(s < self.bits);
        if s == self.bits - 1 {
            -(1i64 << s)
        } else {
            1i64 << s
        }
    }

    /// Reconstructs the original signed matrix (exact inverse of
    /// [`Self::slice`]).
    pub fn reconstruct(&self) -> MatI32 {
        let mut out = MatI32::zeros(self.n, self.k);
        for br in 0..self.binary_rows() {
            let (r, s) = self.decode_row(br);
            let w = self.level_weight(s);
            for c in 0..self.k {
                if self.planes.get(br, c) {
                    let v = out.get(r, c) as i64 + w;
                    out.set(r, c, v as i32);
                }
            }
        }
        out
    }

    /// Bit density of the sliced matrix (fraction of 1-bits) — the paper's
    /// *bit sparsity* baseline metric.
    pub fn bit_density(&self) -> f64 {
        self.planes.bit_density()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out row formula
    fn paper_fig1_example() {
        // Fig. 1/3 use the 4-bit binary rows 1011, 1111, 0011, 0010 with
        // input [6, -5, -2, 4]. As *unsigned single-plane* rows those come
        // from slicing the 1-plane values directly; here we check the
        // 2's-complement slicing of real Int4 values instead.
        let w = MatI32::from_rows(&[&[1, 0, -3, 5], &[-5, 3, 7, 3]]);
        let s = BitSlicedMatrix::slice(&w, 4);
        assert_eq!(s.reconstruct(), w);
        // -3 = 1101₂ in 4-bit 2's complement: bits 0,2,3 set.
        let col = 2; // value -3 in row 0
        assert!(s.planes().get(0 * 4 + 0, col));
        assert!(!s.planes().get(0 * 4 + 1, col));
        assert!(s.planes().get(0 * 4 + 2, col));
        assert!(s.planes().get(0 * 4 + 3, col));
    }

    #[test]
    fn roundtrip_all_4bit_values() {
        let vals: Vec<i32> = (-8..=7).collect();
        let w = MatI32::from_vec(1, vals.len(), vals.clone());
        let s = BitSlicedMatrix::slice(&w, 4);
        assert_eq!(s.reconstruct().as_slice(), vals.as_slice());
    }

    #[test]
    fn roundtrip_8bit_extremes() {
        let w = MatI32::from_rows(&[&[-128, 127, 0, -1, 1, 64, -64, 100]]);
        let s = BitSlicedMatrix::slice(&w, 8);
        assert_eq!(s.reconstruct(), w);
        assert_eq!(s.binary_rows(), 8);
    }

    #[test]
    fn level_weights_twos_complement() {
        let w = MatI32::zeros(1, 1);
        let s = BitSlicedMatrix::slice(&w, 8);
        assert_eq!(s.level_weight(0), 1);
        assert_eq!(s.level_weight(6), 64);
        assert_eq!(s.level_weight(7), -128);
    }

    #[test]
    fn decode_row_layout() {
        let w = MatI32::zeros(3, 2);
        let s = BitSlicedMatrix::slice(&w, 4);
        assert_eq!(s.decode_row(0), (0, 0));
        assert_eq!(s.decode_row(3), (0, 3));
        assert_eq!(s.decode_row(4), (1, 0));
        assert_eq!(s.decode_row(11), (2, 3));
        assert_eq!(s.level_weight(s.decode_row(3).1), -8);
        assert_eq!(s.level_weight(s.decode_row(4).1), 1);
    }

    #[test]
    fn minus_one_is_all_ones() {
        let w = MatI32::from_rows(&[&[-1]]);
        let s = BitSlicedMatrix::slice(&w, 6);
        for lvl in 0..6 {
            assert!(s.planes().get(lvl, 0), "level {lvl}");
        }
        assert_eq!(s.reconstruct().get(0, 0), -1);
    }

    #[test]
    fn bit_density_of_known_matrix() {
        // Value 0b0101 = 5 has 2 of 4 bits set.
        let w = MatI32::from_rows(&[&[5, 5]]);
        let s = BitSlicedMatrix::slice(&w, 4);
        assert!((s.bit_density() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_of_range_rejected() {
        let w = MatI32::from_rows(&[&[8]]); // needs 5 bits
        let _ = BitSlicedMatrix::slice(&w, 4);
    }

    #[test]
    fn parallel_slice_identical_to_serial() {
        // 37 rows (prime): no shard count splits them evenly. 150 columns
        // span three words and end in a partial 8-value group; 13 and 16
        // bits take the high-byte transpose.
        for (bits, cols) in [(8u32, 23usize), (4, 150), (13, 150), (16, 150)] {
            let span = 1i64 << bits;
            let w = MatI32::from_fn(37, cols, |r, c| {
                ((r * cols + c) as i64 * 2654435761 % span - span / 2) as i32
            });
            let serial = BitSlicedMatrix::slice(&w, bits);
            for threads in [0usize, 1, 2, 3, 8, 64] {
                let parallel = BitSlicedMatrix::slice_parallel(&w, bits, threads);
                assert_eq!(parallel, serial, "bits {bits} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_slice_tiny_matrix_falls_back() {
        let w = MatI32::from_rows(&[&[3, -1], &[0, 7]]);
        assert_eq!(BitSlicedMatrix::slice_parallel(&w, 4, 8), BitSlicedMatrix::slice(&w, 4));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn parallel_out_of_range_rejected() {
        let w = MatI32::from_fn(64, 4, |_, _| 8); // needs 5 bits
        let _ = BitSlicedMatrix::slice_parallel(&w, 4, 4);
    }
}
