//! The `kernel_micro_*` workloads: deterministic inputs and reference
//! totals for the four word-parallel primitive families the
//! `ta_bitslice::kernels` facade owns — popcount/XOR-popcount sweeps,
//! sub-tile TransRow pattern extraction, bit-plane slicing, and im2col
//! lowering — plus the synthetic pattern source that feeds every
//! simulated sub-tile. Every matrix has a non-word-multiple column count,
//! keeping the kernels' masked-tail paths exercised.

use crate::Scale;
use ta_bitslice::{kernels, BinaryMatrix, BitSlicedMatrix, ConvShape};
use ta_core::PatternSource;
use ta_models::QuantGaussianSource;
use ta_quant::MatI32;

/// Sub-tile extraction window width.
pub const EXTRACT_WIDTH: usize = 8;

/// The micro-workloads' base dimension (scales off the tile knob).
pub fn micro_dim(scale: Scale) -> usize {
    16 * scale.tiles.max(2)
}

/// The bit-plane matrix the popcount and extraction micros sweep:
/// `4n × (8n + 37)` so the final word of every row is a masked tail.
pub fn plane_matrix(scale: Scale) -> BinaryMatrix {
    let n = micro_dim(scale);
    BinaryMatrix::from_fn(4 * n, 8 * n + 37, |r, c| {
        (r.wrapping_mul(31) ^ c.wrapping_mul(7)) % 5 == 0
    })
}

/// The slicing micro's int8 weight matrix: `4n × (8n + 37)`, so every
/// row ends in a partial 8-value group inside a partial word.
pub fn slice_matrix(scale: Scale) -> MatI32 {
    let n = micro_dim(scale);
    MatI32::from_fn(4 * n, 8 * n + 37, |r, c| ((r * 131 + c * 17) % 255) as i32 - 127)
}

/// Bit-plane slicing: slices `m` into its 8 planes and returns their set
/// bits (a deterministic kernel output).
pub fn slice_set_bits(m: &MatI32) -> u64 {
    BitSlicedMatrix::slice(m, 8).planes().popcount()
}

/// Pattern source sweep: the `(n/4)²` sub-tiles of a
/// [`QuantGaussianSource`] at the paper's design point (T = 8, int8
/// weights, 32 weight rows per sub-tile) into the caller's reused buffer;
/// returns the set bits of every pattern, which pin the values.
pub fn source_set_bits(scale: Scale, patterns: &mut Vec<u16>) -> u64 {
    let tiles = micro_dim(scale) / 4;
    let mut src = QuantGaussianSource::new(8, 8, 32, 0x5EED);
    let mut total = 0u64;
    for n_tile in 0..tiles {
        for k_chunk in 0..tiles {
            src.subtile_patterns_into(n_tile, k_chunk, patterns);
            total += patterns.iter().map(|p| u64::from(p.count_ones())).sum::<u64>();
        }
    }
    total
}

/// The im2col micro's layer: a ResNet-style 3×3 stride-1 pad-1 conv
/// whose feature-map width is not a multiple of anything convenient,
/// plus its deterministic input feature map.
pub fn conv_case(scale: Scale) -> (ConvShape, MatI32) {
    let n = micro_dim(scale);
    let shape = ConvShape {
        in_c: 8,
        out_c: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
        in_h: n / 4,
        in_w: n / 4 + 3,
    };
    let input = MatI32::from_fn(shape.in_c, shape.in_h * shape.in_w, |r, c| {
        ((r * 131 + c * 17) % 19) as i32 - 9
    });
    (shape, input)
}

/// Popcount sweep: per-row counts plus adjacent-row XOR distances (the
/// diff-bit metric the Scoreboard orders rows by). The total is a
/// deterministic kernel output — drift is correctness drift.
pub fn popcount_total(planes: &BinaryMatrix) -> u64 {
    let rows = planes.rows();
    let mut total = 0u64;
    for r in 0..rows {
        total += kernels::popcount_words(planes.words(r));
    }
    for r in 1..rows {
        total += kernels::xor_popcount_words(planes.words(r - 1), planes.words(r));
    }
    total
}

/// TransRow extraction sweep: every width-[`EXTRACT_WIDTH`] sub-tile of
/// the plane matrix through `extract_subtile_patterns_into` over the
/// caller's reused buffer, including the ragged final column window;
/// returns the total set bits across all extracted patterns.
pub fn extract_total(planes: &BinaryMatrix, patterns: &mut Vec<u16>) -> u64 {
    let (rows, cols) = (planes.rows(), planes.cols());
    let width = EXTRACT_WIDTH;
    let mut total = 0u64;
    for row0 in (0..rows).step_by(width) {
        for k0 in (0..cols).step_by(width) {
            kernels::extract_subtile_patterns_into(
                planes,
                row0,
                width,
                k0,
                width.min(cols - k0) as u32,
                patterns,
            );
            total += patterns.iter().map(|p| p.count_ones() as u64).sum::<u64>();
        }
    }
    total
}

/// im2col lowering: returns the nonzero count of the lowered patch
/// matrix (a deterministic kernel output).
pub fn im2col_nonzeros(shape: &ConvShape, input: &MatI32) -> u64 {
    let patches = kernels::im2col_lower(shape, input);
    patches.as_slice().iter().filter(|&&v| v != 0).count() as u64
}
