//! TransRows — the fundamental unit of transitive sparsity (§2.2).
//!
//! A TransRow is the `T`-bit slice of one binary weight row over one
//! `T`-wide chunk of the reduction dimension. Its *pattern* (an unsigned
//! integer < 2^T) is the node identity in the Hasse graph; its *row index*
//! remembers where the result must be accumulated (Fig. 3 "Store output by
//! Row Index").

use crate::binmat::BinaryMatrix;
use crate::kernels;
use crate::slicer::BitSlicedMatrix;

/// One TransRow: a `T`-bit pattern plus the tile-local binary row it came
/// from.
///
/// # Examples
///
/// ```
/// use ta_bitslice::TransRow;
///
/// let tr = TransRow::new(0b1011, 0);
/// assert_eq!(tr.popcount(), 3);
/// assert_eq!(tr.row_index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransRow {
    pattern: u16,
    row_index: u32,
}

impl TransRow {
    /// Creates a TransRow.
    pub fn new(pattern: u16, row_index: u32) -> Self {
        Self { pattern, row_index }
    }

    /// The `T`-bit pattern (Hasse node identity).
    #[inline]
    pub fn pattern(&self) -> u16 {
        self.pattern
    }

    /// Tile-local binary row index ("RI" in Fig. 3).
    #[inline]
    pub fn row_index(&self) -> u32 {
        self.row_index
    }

    /// Hamming weight of the pattern (the node's Hasse level).
    #[inline]
    pub fn popcount(&self) -> u32 {
        self.pattern.count_ones()
    }
}

/// Extracts the TransRows of one sub-tile: binary rows `[row0, row0+rows)`
/// of `planes`, columns `[k0, k0+width)`. Rows/columns past the matrix
/// edge read as zero (tile padding).
///
/// Row indices in the result are tile-local (0-based from `row0`).
///
/// # Panics
///
/// Panics if `width` is outside `1..=16`.
///
/// # Examples
///
/// ```
/// use ta_bitslice::{extract_transrows, BinaryMatrix};
///
/// let m = BinaryMatrix::from_fn(2, 4, |r, c| (r + c) % 2 == 0);
/// let trs = extract_transrows(&m, 0, 2, 0, 4);
/// assert_eq!(trs.len(), 2);
/// assert_eq!(trs[0].pattern(), 0b0101);
/// assert_eq!(trs[1].pattern(), 0b1010);
/// ```
pub fn extract_transrows(
    planes: &BinaryMatrix,
    row0: usize,
    rows: usize,
    k0: usize,
    width: u32,
) -> Vec<TransRow> {
    assert!((1..=16).contains(&width), "TransRow width must be in 1..=16");
    let mut out = Vec::with_capacity(rows);
    let present = rows.min(planes.rows().saturating_sub(row0));
    for r in 0..present {
        out.push(TransRow::new(kernels::extract_bits(planes.words(row0 + r), k0, width), r as u32));
    }
    for r in present..rows {
        out.push(TransRow::new(0, r as u32));
    }
    out
}

/// Convenience wrapper over [`extract_transrows`] for a [`BitSlicedMatrix`]
/// sub-tile covering weight rows `[n0, n0+n)` (i.e. binary rows
/// `[n0·S, (n0+n)·S)`).
pub fn extract_subtile_transrows(
    sliced: &BitSlicedMatrix,
    n0: usize,
    n: usize,
    k0: usize,
    width: u32,
) -> Vec<TransRow> {
    let s = sliced.bits() as usize;
    extract_transrows(sliced.planes(), n0 * s, n * s, k0, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_quant::MatI32;

    #[test]
    fn extract_with_row_padding() {
        let m = BinaryMatrix::from_fn(2, 4, |_, _| true);
        let trs = extract_transrows(&m, 1, 3, 0, 4);
        assert_eq!(trs[0].pattern(), 0b1111);
        assert_eq!(trs[1].pattern(), 0); // padded row
        assert_eq!(trs[2].pattern(), 0);
        assert_eq!(trs[1].row_index(), 1);
    }

    #[test]
    fn extract_with_column_padding() {
        let m = BinaryMatrix::from_fn(1, 6, |_, _| true);
        let trs = extract_transrows(&m, 0, 1, 4, 4);
        // Columns 4,5 exist; 6,7 pad to zero → pattern 0011.
        assert_eq!(trs[0].pattern(), 0b0011);
    }

    #[test]
    fn subtile_extraction_covers_all_bit_levels() {
        let w = MatI32::from_rows(&[&[5, -3], &[1, 7], &[-8, 2]]);
        let s = BitSlicedMatrix::slice(&w, 4);
        // Weight rows 1..3 → binary rows 4..12.
        let trs = extract_subtile_transrows(&s, 1, 2, 0, 2);
        assert_eq!(trs.len(), 8);
        // Row 1 value 1 = 0001₂: bit level 0 plane has value bit for col 0.
        assert_eq!(trs[0].pattern() & 0b01, 1);
        // Row indices are tile-local and dense.
        for (i, tr) in trs.iter().enumerate() {
            assert_eq!(tr.row_index(), i as u32);
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=16")]
    fn bad_width_rejected() {
        let m = BinaryMatrix::zeros(1, 4);
        let _ = extract_transrows(&m, 0, 1, 0, 17);
    }
}
