//! # ta-bitslice — bit-slicing engine for the Transitive Array
//!
//! Implements the bit-level substrate of the paper (Fig. 2, Fig. 3):
//!
//! * [`BinaryMatrix`] — packed 0/1 matrices;
//! * [`BitSlicedMatrix`] — `S`-bit 2's-complement matrices decomposed into
//!   an `(S·N × K)` binary matrix, with exact reconstruction;
//! * [`TransRow`] — the `T`-bit row patterns transitive sparsity operates
//!   on, plus sub-tile extraction;
//! * [`RowMajor`] / [`RowsMut`] / [`TileView`] — flat, contiguous
//!   row-major buffers and views, the zero-copy substrate of the
//!   functional execution engine;
//! * [`kernels`] — the word-parallel kernel facade every bit-sliced hot
//!   loop routes through (extraction, slicing, slab row-adds, im2col);
//! * Hamming-order / prefix / suffix utilities the Scoreboard traversals
//!   use ([`hamming_order`], [`prefixes`], [`suffixes`]), and the
//!   PopCount sorter's network depth ([`bitonic_depth`]);
//! * im2col convolution lowering for the ResNet-18 experiment
//!   ([`im2col`], [`conv_im2col`]).
//!
//! ## Quick example
//!
//! ```
//! use ta_bitslice::{extract_subtile_transrows, BitSlicedMatrix};
//! use ta_quant::MatI32;
//!
//! let w = MatI32::from_rows(&[&[6, -5, -2, 4]]);
//! let sliced = BitSlicedMatrix::slice(&w, 4);
//! assert_eq!(sliced.reconstruct(), w);       // losslessness
//! let trs = extract_subtile_transrows(&sliced, 0, 1, 0, 4);
//! assert_eq!(trs.len(), 4);                  // 4 bit levels of 1 row
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod binmat;
mod im2col;
pub mod kernels;
mod popcount;
mod rowmajor;
mod slicer;
mod transrow;

pub use binmat::BinaryMatrix;
pub use im2col::{conv_direct, conv_im2col, flatten_weights, im2col, ConvShape};
pub use popcount::{binomial, bitonic_depth, hamming_order, level, prefixes, suffixes};
pub use rowmajor::{RowMajor, RowsMut, TileView};
pub use slicer::BitSlicedMatrix;
pub use transrow::{extract_subtile_transrows, extract_transrows, TransRow};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ta_quant::MatI32;

    fn int_matrix(bits: u32, max_dim: usize) -> impl Strategy<Value = MatI32> {
        let hi = (1i32 << (bits - 1)) - 1;
        let lo = -(1i32 << (bits - 1));
        (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
            proptest::collection::vec(lo..=hi, r * c).prop_map(move |v| MatI32::from_vec(r, c, v))
        })
    }

    proptest! {
        /// Bit-slicing roundtrips exactly for arbitrary bit widths.
        #[test]
        fn slice_reconstruct_roundtrip(
            bits in 2u32..=12,
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0i64..1000
        ) {
            let hi = (1i64 << (bits - 1)) - 1;
            let lo = -(1i64 << (bits - 1));
            let m = MatI32::from_fn(rows, cols, |r, c| {
                let x = (r as i64 * 2654435761 + c as i64 * 40503 + seed * 97) % (hi - lo + 1);
                (x + lo + (hi - lo + 1)) as i32 % (hi - lo + 1) as i32 + lo as i32
            });
            prop_assume!(m.fits_signed_bits(bits));
            let s = BitSlicedMatrix::slice(&m, bits);
            prop_assert_eq!(s.reconstruct(), m);
        }

        /// Reconstruction is exact for arbitrary 8-bit matrices drawn by
        /// proptest directly.
        #[test]
        fn slice_reconstruct_roundtrip_8bit(m in int_matrix(8, 10)) {
            let s = BitSlicedMatrix::slice(&m, 8);
            prop_assert_eq!(s.reconstruct(), m);
        }

        /// The sum of signed level weights of the set bits equals the value.
        #[test]
        fn row_weights_sum_to_value(v in -128i32..=127) {
            let m = MatI32::from_rows(&[&[v]]);
            let s = BitSlicedMatrix::slice(&m, 8);
            let mut acc: i64 = 0;
            for br in 0..8 {
                if s.planes().get(br, 0) {
                    acc += s.level_weight(s.decode_row(br).1);
                }
            }
            prop_assert_eq!(acc, v as i64);
        }

        /// Extracted TransRow patterns reproduce the binary matrix content.
        #[test]
        fn transrow_extraction_consistent(m in int_matrix(4, 6), width in 1u32..=8) {
            let s = BitSlicedMatrix::slice(&m, 4);
            let trs = extract_transrows(s.planes(), 0, s.binary_rows(), 0, width);
            for tr in &trs {
                for j in 0..width {
                    let c = j as usize;
                    let expected = c < s.cols()
                        && s.planes().get(tr.row_index() as usize, c);
                    prop_assert_eq!(tr.pattern() & (1 << j) != 0, expected);
                }
            }
        }

        /// im2col convolution equals direct convolution on random shapes.
        #[test]
        fn im2col_matches_direct(
            in_c in 1usize..3, out_c in 1usize..3,
            kh in 1usize..4, kw in 1usize..4,
            stride in 1usize..3, pad in 0usize..2,
            seed in 0i32..100
        ) {
            let in_h = kh + 3;
            let in_w = kw + 2;
            let shape = ConvShape { in_c, out_c, kh, kw, stride, pad, in_h, in_w };
            let w = MatI32::from_fn(out_c, in_c * kh * kw,
                |r, c| ((r as i32 * 7 + c as i32 * 3 + seed) % 11) - 5);
            let x = MatI32::from_fn(in_c, in_h * in_w,
                |r, c| ((r as i32 * 5 + c as i32 * 13 + seed) % 11) - 5);
            prop_assert_eq!(conv_im2col(&shape, &w, &x), conv_direct(&shape, &w, &x));
        }
    }
}
