//! Word-parallel kernels — the single home of every bit-sliced hot loop.
//!
//! Every execution path that used to walk bits one at a time (pattern
//! extraction, plane slicing, slab row-adds, im2col lowering, popcount
//! traversal) now funnels through this facade. The kernels operate on
//! `u64` row words (via [`BinaryMatrix::words`]) or on integer [`Lane`]
//! rows, with masked-tail handling for widths that are not word
//! multiples.
//!
//! ## Lane widths
//!
//! The exact engine's pattern-result slab is `i32`: a slot sums at most
//! `T ≤ 16` inputs of at most 16 bits, so `|v| ≤ 2^19`. Every Horner
//! intermediate and partial output sum of [`recombine_planes`] is a
//! partial dot product, bounded by `K·2^(S−1)·2^(a−1)`; the engine
//! accumulates in `i32` when that bound fits `i32` and in `i64` past it,
//! where its overflow check on the output stays exact.
//!
//! ## Bit-plane slicing
//!
//! [`slice_rows`] (whole matrices) and [`slice_patterns`] (one synthetic
//! pattern row) share one branch-free kernel: the low bytes of 8 values
//! pack into a `u64`, an 8×8 bit transpose (three delta-swaps) turns
//! byte `l` into bit level `l` of all 8 values, and each byte ORs into
//! its plane; values wider than 8 bits transpose their high bytes too.
//! Cost is proportional to values × ⌈S/8⌉, whatever the values are.
//!
//! ## Tail-masking contract
//!
//! [`BinaryMatrix`] guarantees that bits at column positions `>= cols` in
//! the last word of every row are zero (no setter writes them). The read
//! kernels ([`extract_bits`], [`popcount_words`]) *rely* on that
//! invariant instead of re-masking per call; the write kernels
//! ([`insert_bits`], [`slice_rows`]) *preserve* it. Callers of
//! [`BinaryMatrix::words_mut`] inherit the same obligation.
//!
//! ## Scalar equivalence
//!
//! Each kernel has a scalar oracle in this module's tests proving
//! bit-exact equivalence over random widths, non-word-multiple tails,
//! and dirty reused buffers — the same `_into ≡ oracle` discipline the
//! rest of the workspace uses.

use crate::binmat::BinaryMatrix;
use crate::im2col::ConvShape;
use crate::rowmajor::TileView;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Neg, Shl};
use ta_quant::MatI32;

// ---------------------------------------------------------------------------
// u64 word kernels (packed binary rows)
// ---------------------------------------------------------------------------

/// Total set bits across `words`, four words per iteration.
#[inline]
pub fn popcount_words(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(4);
    let mut acc = 0u64;
    for c in &mut chunks {
        acc += u64::from(
            c[0].count_ones() + c[1].count_ones() + c[2].count_ones() + c[3].count_ones(),
        );
    }
    for &w in chunks.remainder() {
        acc += u64::from(w.count_ones());
    }
    acc
}

/// Set bits of `a XOR b` (the Hamming distance between two packed rows),
/// four words per iteration — the word form of the dispatcher's
/// TranSparsity XOR (§4.3).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_popcount_words(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "xor_popcount_words: length mismatch");
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut acc = 0u64;
    for (x, y) in (&mut ac).zip(&mut bc) {
        acc += u64::from(
            (x[0] ^ y[0]).count_ones()
                + (x[1] ^ y[1]).count_ones()
                + (x[2] ^ y[2]).count_ones()
                + (x[3] ^ y[3]).count_ones(),
        );
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        acc += u64::from((x ^ y).count_ones());
    }
    acc
}

/// Extracts `width ≤ 16` bits starting at bit offset `c0` from a packed
/// row (as produced by [`BinaryMatrix::words`]) — the TransRow extraction
/// primitive. At most two words cover any ≤16-bit window; offsets past
/// the row's words read as zero, and bits past the matrix edge inside
/// the last word are zero by the tail invariant, so no column clipping
/// is needed.
///
/// # Panics
///
/// Panics if `width` is outside `1..=16`.
#[inline]
pub fn extract_bits(row: &[u64], c0: usize, width: u32) -> u16 {
    assert!((1..=16).contains(&width), "pattern width must be in 1..=16");
    let (wi, off) = (c0 / 64, c0 % 64);
    if wi >= row.len() {
        return 0;
    }
    let mut bits = row[wi] >> off;
    if off as u32 + width > 64 && wi + 1 < row.len() {
        bits |= row[wi + 1] << (64 - off);
    }
    (bits & ((1u32 << width) - 1) as u64) as u16
}

/// Writes `width ≤ 16` bits of `pattern` into a packed row at bit offset
/// `c0`, via masked read-modify-writes on the (at most two) covering
/// words. `cols` is the row's logical width: bits past it are dropped,
/// preserving the tail-zero invariant.
///
/// # Panics
///
/// Panics if `width` is outside `1..=16`.
#[inline]
pub fn insert_bits(row: &mut [u64], cols: usize, c0: usize, width: u32, pattern: u16) {
    assert!((1..=16).contains(&width), "pattern width must be in 1..=16");
    if c0 >= cols {
        return;
    }
    let keep = (width as usize).min(cols - c0);
    let mask = (1u64 << keep) - 1;
    let val = u64::from(pattern) & mask;
    let (wi, off) = (c0 / 64, c0 % 64);
    row[wi] = (row[wi] & !(mask << off)) | (val << off);
    if off + keep > 64 {
        // The window straddles into word wi+1, which exists because
        // c0 + keep <= cols <= row.len() * 64.
        let lo = 64 - off;
        row[wi + 1] = (row[wi + 1] & !(mask >> lo)) | (val >> lo);
    }
}

/// Fills `out` (cleared first) with the `rows` sub-tile patterns of
/// binary rows `[row0, row0+rows)` of `planes` over bit window
/// `[k0, k0+width)` — the allocation-free pattern-source primitive.
/// Rows and columns past the matrix edge read as zero (tile padding).
///
/// # Panics
///
/// Panics if `width` is outside `1..=16`.
pub fn extract_subtile_patterns_into(
    planes: &BinaryMatrix,
    row0: usize,
    rows: usize,
    k0: usize,
    width: u32,
    out: &mut Vec<u16>,
) {
    assert!((1..=16).contains(&width), "TransRow width must be in 1..=16");
    out.clear();
    out.reserve(rows);
    let present = rows.min(planes.rows().saturating_sub(row0));
    for r in 0..present {
        out.push(extract_bits(planes.words(row0 + r), k0, width));
    }
    out.resize(rows, 0);
}

/// Transposes an 8×8 bit matrix held row-per-byte: bit `c` of byte `r`
/// moves to bit `r` of byte `c`. Three delta-swaps exchange the
/// off-diagonal 1×1, then 2×2, then 4×4 blocks; no branches, no tables.
#[inline]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Bit planes of up to 8 values, one byte per plane: byte `l` holds bit
/// level `l` of the values, value `i` at bit `i`. Levels `8..16` (the
/// high bytes' transpose) are computed only when `wide`, and read as
/// zero otherwise.
#[inline]
fn byte_planes(values: &[i32], wide: bool) -> [u8; 16] {
    debug_assert!(values.len() <= 8, "one transpose holds 8 values");
    let pack = |shift: u32| {
        let x = values.iter().enumerate();
        transpose8x8(x.fold(0, |x, (i, &v)| x | u64::from((v >> shift) as u8) << (8 * i)))
    };
    let hi = if wide { pack(8) } else { 0 };
    (u128::from(hi) << 64 | u128::from(pack(0))).to_le_bytes()
}

/// Slices source rows `[r0, r1)` of `m` into their `bits` binary planes
/// (2's-complement; binary row `(r - r0)·bits + s` is bit level `s` of
/// source row `r`) — the per-shard slicing kernel behind
/// [`crate::BitSlicedMatrix::slice`] and its parallel twin.
///
/// One branch-free 8×8 bit transpose per 8 values and 8 levels (see the
/// module's bit-plane slicing notes). The tail chunk's missing columns
/// pack as zero bytes, preserving the tail-zero invariant.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=16` or `r1 > m.rows()`.
pub fn slice_rows(m: &MatI32, bits: u32, r0: usize, r1: usize) -> BinaryMatrix {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16, got {bits}");
    assert!(r1 <= m.rows(), "row range {r0}..{r1} out of bounds");
    let k = m.cols();
    let s = bits as usize;
    let mut planes = BinaryMatrix::zeros((r1 - r0) * s, k);
    for r in r0..r1 {
        for (wi, chunk) in m.row(r).chunks(64).enumerate() {
            let mut acc = [0u64; 16];
            for (g, group) in chunk.chunks(8).enumerate() {
                for (a, b) in acc[..s].iter_mut().zip(byte_planes(group, s > 8)) {
                    *a |= u64::from(b) << (8 * g);
                }
            }
            for (lvl, &word) in acc[..s].iter().enumerate() {
                planes.words_mut((r - r0) * s + lvl)[wi] = word;
            }
        }
    }
    planes
}

/// Bit-slices one row of `values.len() ≤ 16` quantized values into
/// `levels` patterns: bit `c` of `out[s]` is bit level `s` of
/// `values[c]` — the on-the-fly counterpart of [`slice_rows`] for
/// synthetic pattern sources, on the same branch-free 8×8 bit transpose:
/// two transposes (values `0..8` and `8..16`) per 8 levels, whatever the
/// values are.
///
/// # Panics
///
/// Panics if `values.len() > 16`, `levels` is outside `1..=16`, or
/// `out.len() != levels`.
pub fn slice_patterns(values: &[i32], levels: u32, out: &mut [u16]) {
    assert!(values.len() <= 16, "at most 16 values per pattern row");
    assert!((1..=16).contains(&levels), "levels must be in 1..=16");
    assert_eq!(out.len(), levels as usize, "out must hold one pattern per level");
    let wide = levels > 8;
    let (lo, hi) = values.split_at(values.len().min(8));
    let bytes = byte_planes(lo, wide).into_iter().zip(byte_planes(hi, wide));
    for (o, (b0, b1)) in out.iter_mut().zip(bytes) {
        *o = u16::from_le_bytes([b0, b1]);
    }
}

// ---------------------------------------------------------------------------
// Lane row kernels (result-slab derive and recombination)
// ---------------------------------------------------------------------------

/// An integer lane of the slab and accumulator rows: `i32` or `i64`.
///
/// The engine instantiates the slab at `i32` and the accumulator at
/// `i32` or `i64` (see the module's lane-width notes); the arithmetic is
/// exact only while every value fits the lane.
pub trait Lane:
    Copy
    + Default
    + Debug
    + Send
    + Sync
    + From<i32>
    + Add<Output = Self>
    + AddAssign
    + Neg<Output = Self>
    + Shl<u32, Output = Self>
{
}

impl Lane for i32 {}
impl Lane for i64 {}

/// `dst[i] += src[i]`, four elements per iteration.
#[inline]
fn add_row<T: Lane>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "add_row: length mismatch");
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] += sc[0];
        dc[1] += sc[1];
        dc[2] += sc[2];
        dc[3] += sc[3];
    }
    for (a, &x) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a += x;
    }
}

/// `dst[i] += a[i] + b[i]` in one fused pass — halves the slab traffic of
/// two separate [`add_row`] calls for multi-bit diff masks.
#[inline]
fn add_two_rows<T: Lane>(dst: &mut [T], a: &[T], b: &[T]) {
    assert_eq!(dst.len(), a.len(), "add_two_rows: length mismatch");
    assert_eq!(dst.len(), b.len(), "add_two_rows: length mismatch");
    let mut d = dst.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((dc, xc), yc) in (&mut d).zip(&mut ac).zip(&mut bc) {
        dc[0] += xc[0] + yc[0];
        dc[1] += xc[1] + yc[1];
        dc[2] += xc[2] + yc[2];
        dc[3] += xc[3] + yc[3];
    }
    for ((v, &x), &y) in d.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *v += x + y;
    }
}

/// Adds every input row selected by the set bits of `bits` onto `dst` —
/// the multi-word diff-bit row-add of the PPE slab model. Rows are
/// consumed two at a time through [`add_two_rows`]; exact integer
/// addition makes the pairing order-invariant.
fn add_selected_rows<T: Lane>(dst: &mut [T], inputs: TileView<'_, T>, mut bits: u16) {
    while bits != 0 {
        let j = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if bits != 0 {
            let j2 = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            add_two_rows(dst, inputs.row(j), inputs.row(j2));
        } else {
            add_row(dst, inputs.row(j));
        }
    }
}

/// `slab[node] = slab[prefix] + Σ inputs[j]` over the set bits `j` of
/// `bits`, where slot `p` is `slab[p·m..(p+1)·m]` — the PPE's
/// prefix-derive op. The first one or two selected rows are fused
/// into the prefix copy, so a single-bit diff (every in-forest op) is one
/// read-read-write pass; further rows are added two at a time. The
/// destination's previous contents are never read, so a dirty reused
/// slot needs no clearing.
///
/// # Panics
///
/// Panics if `prefix == node`, either slot lies outside `slab`, a
/// selected row index is `>= inputs.rows()`, or a selected row's length
/// is not `m`.
pub fn derive_slot<T: Lane>(
    slab: &mut [T],
    m: usize,
    prefix: usize,
    node: usize,
    inputs: TileView<'_, T>,
    mut bits: u16,
) {
    assert_ne!(prefix, node, "derive_slot: a slot cannot derive from itself");
    let (dst, base) = if prefix < node {
        let (lo, hi) = slab.split_at_mut(node * m);
        (&mut hi[..m], &lo[prefix * m..(prefix + 1) * m])
    } else {
        let (lo, hi) = slab.split_at_mut(prefix * m);
        (&mut lo[node * m..(node + 1) * m], &hi[..m])
    };
    if bits == 0 {
        dst.copy_from_slice(base);
        return;
    }
    let a = inputs.row(bits.trailing_zeros() as usize);
    bits &= bits - 1;
    assert_eq!(a.len(), m, "derive_slot: input row length mismatch");
    if bits == 0 {
        for ((d, &p), &x) in dst.iter_mut().zip(base).zip(a) {
            *d = p + x;
        }
        return;
    }
    let b = inputs.row(bits.trailing_zeros() as usize);
    bits &= bits - 1;
    for (((d, &p), &x), &y) in dst.iter_mut().zip(base).zip(a).zip(b) {
        *d = p + x + y;
    }
    add_selected_rows(dst, inputs, bits);
}

/// Columns per register-resident Horner block of [`recombine_planes`]
/// (128 bytes of `i32` sums). On an `exec_prefill`-shaped recombine
/// (x86-64, default target) 32 columns ran faster than 8 at both
/// accumulator widths.
const RECOMBINE_LANES: usize = 32;

/// `dst[i] += −slab[planes[S−1]][i]·2^(S−1) + Σ_{s<S−1} slab[planes[s]][i]·2^s`
/// for `S = planes.len()`, where slot `p` is `slab[p·m..(p+1)·m]` and
/// `m = dst.len()` — the APE's shift-accumulate of one weight row's
/// 2's-complement bit planes (plane `S−1` is the sign plane).
///
/// Multiply-free Horner form: start from the negated sign plane, then
/// double and add each lower plane down to plane 0, and add the result
/// onto `dst` once. Columns go in fixed-size blocks whose running sums
/// stay in registers while every plane streams through them; the
/// sub-block tail runs the same recurrence per element. A zero plane is
/// passed as a slot that holds zeros (slot 0 of the pattern-result slab).
///
/// The slab is `i32`; the Horner sums and `dst` run at the accumulator
/// lane `A`, which must hold every partial dot product the planes form
/// (the caller's bound, see the module's lane-width notes).
///
/// # Panics
///
/// Panics if `planes` is empty or a slot lies outside `slab`.
pub fn recombine_planes<A: Lane>(dst: &mut [A], slab: &[i32], planes: &[u16]) {
    let (&sign, lower) = planes.split_last().expect("recombine_planes: no planes");
    let m = dst.len();
    let slot = |p: u16| &slab[p as usize * m..][..m];
    let mut blocks = dst.chunks_exact_mut(RECOMBINE_LANES);
    let mut c0 = 0;
    for out in &mut blocks {
        let col = |p: u16| -> &[i32; RECOMBINE_LANES] {
            slot(p)[c0..c0 + RECOMBINE_LANES].try_into().expect("block is RECOMBINE_LANES long")
        };
        let mut h = col(sign).map(|x| -A::from(x));
        for &p in lower.iter().rev() {
            for (a, &x) in h.iter_mut().zip(col(p)) {
                *a = (*a << 1) + A::from(x);
            }
        }
        for (d, &a) in out.iter_mut().zip(&h) {
            *d += a;
        }
        c0 += RECOMBINE_LANES;
    }
    for (c, d) in (c0..).zip(blocks.into_remainder()) {
        let h = lower
            .iter()
            .rev()
            .fold(-A::from(slot(sign)[c]), |a, &p| (a << 1) + A::from(slot(p)[c]));
        *d += h;
    }
}

// ---------------------------------------------------------------------------
// im2col lowering
// ---------------------------------------------------------------------------

/// Lowers an input feature map to the im2col patch matrix at run
/// granularity: for each `(channel, ky, kx)` patch row, whole in-bounds
/// output runs are copied with `copy_from_slice` (stride 1) or a strided
/// gather, and out-of-bounds taps are skipped wholesale (the output is
/// pre-zeroed) — no per-element bounds checks. Semantics are identical
/// to the per-element `im2col` definition (see the oracle test).
///
/// # Panics
///
/// Panics if `input` has the wrong shape for `shape`.
pub fn im2col_lower(shape: &ConvShape, input: &MatI32) -> MatI32 {
    assert_eq!(input.rows(), shape.in_c, "input channel count mismatch");
    assert_eq!(input.cols(), shape.in_h * shape.in_w, "input spatial size mismatch");
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut out = MatI32::zeros(shape.in_c * shape.kh * shape.kw, oh * ow);
    for c in 0..shape.in_c {
        let src_row = input.row(c);
        for ky in 0..shape.kh {
            for kx in 0..shape.kw {
                let krow = (c * shape.kh + ky) * shape.kw + kx;
                // In-bounds output-column run for this kx:
                // 0 <= ox·stride + kx − pad < in_w.
                if shape.in_w + shape.pad <= kx {
                    continue;
                }
                let ox_lo =
                    if shape.pad > kx { (shape.pad - kx).div_ceil(shape.stride) } else { 0 };
                let ox_hi = ((shape.in_w + shape.pad - kx - 1) / shape.stride + 1).min(ow);
                if ox_lo >= ox_hi {
                    continue;
                }
                let dst_row = out.row_mut(krow);
                for oy in 0..oh {
                    let iy = (oy * shape.stride + ky) as isize - shape.pad as isize;
                    if iy < 0 || iy as usize >= shape.in_h {
                        continue;
                    }
                    let src_base = iy as usize * shape.in_w + ox_lo * shape.stride + kx - shape.pad;
                    let dst = &mut dst_row[oy * ow + ox_lo..oy * ow + ox_hi];
                    if shape.stride == 1 {
                        dst.copy_from_slice(&src_row[src_base..src_base + dst.len()]);
                    } else {
                        for (i, d) in dst.iter_mut().enumerate() {
                            *d = src_row[src_base + i * shape.stride];
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random bit predicate.
    fn bit_at(r: usize, c: usize, seed: u64) -> bool {
        (r as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((c as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(seed)
            .count_ones()
            .is_multiple_of(2)
    }

    #[test]
    fn popcount_words_matches_scalar() {
        for len in [0usize, 1, 3, 4, 5, 8, 13] {
            let words: Vec<u64> =
                (0..len).map(|i| (i as u64).wrapping_mul(0x2545F4914F6CDD1D)).collect();
            let scalar: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount_words(&words), scalar, "len {len}");
        }
    }

    #[test]
    fn xor_popcount_words_matches_scalar() {
        for len in [0usize, 1, 4, 7, 9] {
            let a: Vec<u64> = (0..len).map(|i| (i as u64).wrapping_mul(40503)).collect();
            let b: Vec<u64> =
                (0..len).map(|i| (i as u64).wrapping_mul(2654435761).rotate_left(7)).collect();
            let scalar: u64 =
                a.iter().zip(&b).map(|(&x, &y)| u64::from((x ^ y).count_ones())).sum();
            assert_eq!(xor_popcount_words(&a, &b), scalar, "len {len}");
        }
    }

    /// Largest slab magnitude the exact engine produces: 16 inputs of
    /// 16-bit activations summed into one pattern result (2^19).
    const SLAB_MAX: i64 = 16 << 15;

    /// `m` values covering the 4-element unroll and the 32-column Horner
    /// block edges of the kernels and their tails.
    const MS: [usize; 17] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 257];

    /// Deterministic values with the extremes `±bound` on every fourth
    /// element each way.
    fn extreme_values(len: usize, bound: i64, salt: u64) -> Vec<i64> {
        (0..len)
            .map(|i| {
                let h = (i as u64 ^ salt.wrapping_mul(0x9E3779B97F4A7C15))
                    .wrapping_mul(0xBF58476D1CE4E5B9)
                    .rotate_left(29);
                match h % 4 {
                    0 => bound,
                    1 => -bound,
                    _ => (h >> 8) as i64 % (2 * bound + 1) - bound,
                }
            })
            .collect()
    }

    /// `values` at lane `T`; every value must fit it.
    fn at<T: Lane + TryFrom<i64>>(values: &[i64]) -> Vec<T> {
        values.iter().map(|&v| T::try_from(v).ok().expect("value fits the lane")).collect()
    }

    /// `values` widened back to `i64` for comparison with a scalar oracle.
    fn wide<T: Lane + Into<i64>>(values: &[T]) -> Vec<i64> {
        values.iter().map(|&v| v.into()).collect()
    }

    /// [`derive_slot`] at lane `T` against a scalar `i64` loop: inputs at
    /// ±2^15 (every row's column 0 at −2^15 and column 1 at 2^15 − 1, so
    /// a full mask from the zero slot lands on ±2^19), a dirty slab of
    /// slots at ±2^19 reused across every case.
    fn check_derive_slot<T: Lane + TryFrom<i64> + Into<i64>>() {
        const SLOTS: usize = 20;
        let masks = [0u16, 1 << 5, (1 << 3) | (1 << 11), 0b111, u16::MAX];
        // Prefix below the node, above it, and the zero slot (outliers).
        let pairs = [(2usize, 7usize), (17, 4), (0, 19)];
        for m in MS {
            let mut staged = extreme_values(16 * m, 1 << 15, m as u64);
            for j in 0..16 {
                for (c, v) in [-(1 << 15), (1 << 15) - 1].into_iter().enumerate().take(m) {
                    staged[j * m + c] = v;
                }
            }
            let staged_t = at::<T>(&staged);
            let inputs = TileView::new(&staged_t, 16, m, m);
            let mut slab = extreme_values(SLOTS * m, SLAB_MAX, 7);
            slab[..m].fill(0);
            let mut slab_t = at::<T>(&slab);
            for bits in masks {
                for (prefix, node) in pairs {
                    derive_slot(&mut slab_t, m, prefix, node, inputs, bits);
                    for i in 0..m {
                        let mut v = slab[prefix * m + i];
                        for j in 0..16 {
                            if bits & (1 << j) != 0 {
                                v += staged[j * m + i];
                            }
                        }
                        slab[node * m + i] = v;
                    }
                    let ctx = format!("m {m} bits {bits:#x} prefix {prefix} node {node}");
                    assert_eq!(wide(&slab_t), slab, "{ctx}");
                    if bits == u16::MAX && prefix == 0 && m >= 2 {
                        assert_eq!(slab[node * m..][..2], [-SLAB_MAX, SLAB_MAX - 16], "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn derive_slot_matches_scalar() {
        check_derive_slot::<i32>();
        check_derive_slot::<i64>();
    }

    #[test]
    #[should_panic(expected = "cannot derive from itself")]
    fn derive_slot_rejects_self_prefix() {
        let staged = [1i32];
        derive_slot(&mut [0; 4], 1, 2, 2, TileView::new(&staged, 1, 1, 1), 1);
    }

    /// The scalar oracle of [`recombine_planes`]: `dst + Σ_s ±2^s·slot`
    /// in `i64`, with the last plane negated.
    fn recombine_oracle(dst: &[i64], slab: &[i64], planes: &[u16]) -> Vec<i64> {
        let m = dst.len();
        let mut want = dst.to_vec();
        for (s, &p) in planes.iter().enumerate() {
            let w = if s + 1 == planes.len() { -(1i64 << s) } else { 1i64 << s };
            for (d, &x) in want.iter_mut().zip(&slab[p as usize * m..][..m]) {
                *d += w * x;
            }
        }
        want
    }

    /// [`recombine_planes`] at accumulator `A` against the scalar oracle,
    /// for slots at ±2^19 and plane counts up to `max_s_bits`, onto a
    /// dirty destination of magnitude `dst_bound`, twice over the same
    /// destination. The caller picks the bounds so that two passes fit
    /// `A`.
    fn check_recombine<A: Lane + TryFrom<i64> + Into<i64>>(max_s_bits: usize, dst_bound: i64) {
        for s_bits in 2..=max_s_bits {
            for m in MS {
                // Slot 0 is the zero slot; slots 1..=s_bits hold extreme
                // plane results, and the sign plane's is always set.
                let mut slab = extreme_values((s_bits + 1) * m, SLAB_MAX, s_bits as u64);
                slab[..m].fill(0);
                // Every third plane below the sign plane is a zero plane.
                let planes: Vec<u16> = (0..s_bits)
                    .map(|s| if s + 1 < s_bits && s % 3 == 1 { 0 } else { s as u16 + 1 })
                    .collect();
                let dst0 = extreme_values(m, dst_bound, 99);
                let want = recombine_oracle(&dst0, &slab, &planes);
                let want2 = recombine_oracle(&want, &slab, &planes);
                let slab = at::<i32>(&slab);
                let mut got = at::<A>(&dst0);
                recombine_planes(&mut got, &slab, &planes);
                assert_eq!(wide(&got), want, "s_bits {s_bits} m {m}");
                // Reused destination: a second pass accumulates again.
                recombine_planes(&mut got, &slab, &planes);
                assert_eq!(wide(&got), want2, "s_bits {s_bits} m {m} (reused)");
            }
        }
    }

    #[test]
    fn recombine_planes_matches_scalar() {
        // i64: every plane count, slot and destination far past i32.
        check_recombine::<i64>(16, SLAB_MAX << 16);
        // i32: (2^10 − 1)·2^19 < 2^29 per pass, so two passes onto a
        // ±2^29 destination stay inside i32.
        check_recombine::<i32>(10, 1 << 29);
    }

    /// Plane-consistent slabs whose dot products reach the `i32` bound:
    /// 16 inputs of 12-bit activations against 16-bit weights give
    /// `|Σ w·x| ≤ 2^30`, and the destination holds the rest of `±i32::MAX`.
    /// Both accumulators must land on the exact sums, `±i32::MAX`
    /// included.
    #[test]
    fn recombine_planes_reaches_the_i32_bound() {
        const T: usize = 16;
        const S: usize = 16;
        let (w_min, w_max) = (-(1i64 << (S - 1)), (1i64 << (S - 1)) - 1);
        let (x_min, x_max) = (-(1i64 << 11), (1i64 << 11) - 1);
        let head = i64::from(i32::MAX) - (1 << 30);
        for m in MS {
            // Weight rows: all-min (h = −v·2^15 hits 2^30 against all-min
            // inputs), all-max, and random with extremes.
            let rows = [vec![w_min; T], vec![w_max; T], extreme_values(T, w_max, m as u64)];
            // Column c: all-min inputs, all-max inputs, then extremes.
            let x: Vec<i64> = (0..T * m)
                .map(|i| match i % m {
                    0 => x_min,
                    1 => x_max,
                    _ => extreme_values(1, x_max, i as u64)[0],
                })
                .collect();
            for w in &rows {
                // Slot s + 1 holds plane s's sum Σ_j bit_s(w_j)·x_j; slot 0
                // is the zero slot, which the planes never need here.
                let mut slab = vec![0i64; (S + 1) * m];
                for s in 0..S {
                    for (j, &wj) in w.iter().enumerate() {
                        if (wj >> s) & 1 == 1 {
                            for c in 0..m {
                                slab[(s + 1) * m + c] += x[j * m + c];
                            }
                        }
                    }
                }
                let planes: Vec<u16> = (1..=S as u16).collect();
                let dot: Vec<i64> =
                    (0..m).map(|c| (0..T).map(|j| w[j] * x[j * m + c]).sum()).collect();
                let dst0: Vec<i64> =
                    dot.iter().map(|&d| if d >= 0 { head } else { -head }).collect();
                let want: Vec<i64> = dst0.iter().zip(&dot).map(|(a, b)| a + b).collect();
                assert_eq!(recombine_oracle(&dst0, &slab, &planes), want, "oracle m {m}");
                if m >= 1 && w[0] == w_min {
                    assert_eq!(want[0], i64::from(i32::MAX), "all-min reaches i32::MAX");
                }
                let slab = at::<i32>(&slab);
                let mut got32 = at::<i32>(&dst0);
                recombine_planes(&mut got32, &slab, &planes);
                assert_eq!(wide(&got32), want, "i32 m {m}");
                let mut got64 = dst0.clone();
                recombine_planes(&mut got64, &slab, &planes);
                assert_eq!(got64, want, "i64 m {m}");
            }
        }
    }

    /// Per-bit slicing oracle: plane row `(r - r0)·bits + lvl` holds bit
    /// `lvl` of source row `r`.
    fn slice_oracle(m: &MatI32, bits: u32, r0: usize, r1: usize) -> BinaryMatrix {
        let s = bits as usize;
        BinaryMatrix::from_fn((r1 - r0) * s, m.cols(), |br, c| {
            let (r, lvl) = (r0 + br / s, br % s);
            m.get(r, c) as u32 & (1 << lvl) != 0
        })
    }

    /// Per-bit pattern oracle: bit `c` of level `lvl` is bit `lvl` of
    /// `values[c]`.
    fn patterns_oracle(values: &[i32], levels: u32) -> Vec<u16> {
        (0..levels)
            .map(|lvl| {
                let set = values.iter().enumerate().filter(|&(_, &v)| v as u32 & (1 << lvl) != 0);
                set.fold(0, |p, (c, _)| p | 1 << c)
            })
            .collect()
    }

    #[test]
    fn slicing_kernels_match_oracle_at_extremes() {
        for bits in 2u32..=16 {
            let (min, max) = (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1);
            let extremes = [min, -1, 0, 1, max];
            // Every extreme at every position of a full and a partial
            // 8-value group, in rows long enough to straddle a word.
            let m = MatI32::from_fn(extremes.len(), 77, |r, c| extremes[(r + c) % 5]);
            assert_eq!(slice_rows(&m, bits, 0, 5), slice_oracle(&m, bits, 0, 5), "bits {bits}");
            for (t, shift) in [1usize, 5, 8, 13, 16].into_iter().zip(0..) {
                let values: Vec<i32> = (0..t).map(|c| extremes[(c + shift) % 5]).collect();
                let mut out = vec![0xFFFFu16; bits as usize];
                slice_patterns(&values, bits, &mut out);
                assert_eq!(out, patterns_oracle(&values, bits), "bits {bits} t {t}");
            }
        }
    }

    proptest! {
        /// extract_bits over packed rows equals the per-bit get loop, for
        /// widths 1..=16 and non-word-multiple column tails.
        #[test]
        fn extract_bits_matches_scalar(
            cols in 1usize..200,
            c0 in 0usize..220,
            width in 1u32..=16,
            seed in 0u64..16,
        ) {
            let m = BinaryMatrix::from_fn(2, cols, |r, c| bit_at(r, c, seed));
            for r in 0..2 {
                let mut expect = 0u16;
                for j in 0..width as usize {
                    if c0 + j < cols && m.get(r, c0 + j) {
                        expect |= 1 << j;
                    }
                }
                prop_assert_eq!(extract_bits(m.words(r), c0, width), expect);
            }
        }

        /// insert_bits equals the per-bit set loop and preserves both the
        /// untouched columns and the tail-zero invariant.
        #[test]
        fn insert_bits_matches_scalar(
            cols in 1usize..200,
            c0 in 0usize..220,
            width in 1u32..=16,
            pattern in 0u16..=u16::MAX,
            seed in 0u64..16,
        ) {
            // Dirty starting contents: both copies start identical.
            let mut word = BinaryMatrix::from_fn(1, cols, |r, c| bit_at(r, c, seed));
            let mut scalar = word.clone();
            insert_bits(word.words_mut(0), cols, c0, width, pattern);
            for j in 0..width as usize {
                if c0 + j < cols {
                    scalar.set(0, c0 + j, pattern & (1 << j) != 0);
                }
            }
            prop_assert_eq!(&word, &scalar);
            // Tail invariant: bits past `cols` in the last word stay zero.
            let tail = cols % 64;
            if tail != 0 {
                let last = *word.words(0).last().unwrap();
                prop_assert_eq!(last >> tail, 0, "tail bits must stay zero");
            }
        }

        /// The facade sub-tile extraction equals the scalar oracle,
        /// including row/column padding, with a dirty reused buffer.
        #[test]
        fn extract_subtile_patterns_into_matches_scalar(
            rows in 1usize..12,
            cols in 1usize..80,
            row0 in 0usize..14,
            take in 1usize..10,
            k0 in 0usize..90,
            width in 1u32..=16,
            seed in 0u64..16,
        ) {
            let m = BinaryMatrix::from_fn(rows, cols, |r, c| bit_at(r, c, seed));
            let mut out = vec![0xFFFFu16; 3]; // dirty, wrong-sized buffer
            extract_subtile_patterns_into(&m, row0, take, k0, width, &mut out);
            prop_assert_eq!(out.len(), take);
            for (r, &got) in out.iter().enumerate() {
                let mut expect = 0u16;
                for j in 0..width as usize {
                    let (rr, cc) = (row0 + r, k0 + j);
                    if rr < rows && cc < cols && m.get(rr, cc) {
                        expect |= 1 << j;
                    }
                }
                prop_assert_eq!(got, expect, "row {}", r);
            }
        }

        /// slice_rows equals the per-bit scalar slicer for every bit width
        /// (the high-byte transpose included), shard ranges starting past
        /// row 0, and column counts spanning several words that end in a
        /// partial 8-value group.
        #[test]
        fn slice_rows_matches_scalar(
            bits in 2u32..=16,
            rows in 1usize..6,
            cols in 1usize..=150,
            r0 in 0usize..4,
            seed in 0u64..16,
        ) {
            let hi = (1i64 << (bits - 1)) - 1;
            let lo = -(1i64 << (bits - 1));
            let m = MatI32::from_fn(r0 + rows, cols, |r, c| {
                let span = (hi - lo + 1) as u64;
                let x = (r as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add((c as u64).wrapping_mul(40503))
                    .wrapping_add(seed) % span;
                (x as i64 + lo) as i32
            });
            let r1 = r0 + rows;
            prop_assert_eq!(slice_rows(&m, bits, r0, r1), slice_oracle(&m, bits, r0, r1));
        }

        /// slice_patterns equals the per-bit loop, over a dirty output.
        #[test]
        fn slice_patterns_matches_scalar(
            t in 1usize..=16,
            levels in 1u32..=16,
            seed in 0u64..64,
        ) {
            let hi = 1i64 << (levels - 1);
            let values: Vec<i32> = (0..t)
                .map(|c| {
                    let x = (c as u64).wrapping_mul(0x9E3779B9).wrapping_add(seed * 7919);
                    ((x % (2 * hi) as u64) as i64 - hi) as i32
                })
                .collect();
            let mut out = vec![0xFFFFu16; levels as usize]; // dirty
            slice_patterns(&values, levels, &mut out);
            prop_assert_eq!(out, patterns_oracle(&values, levels));
        }

        /// The i64 row kernels equal their scalar loops for lengths around
        /// the unroll factor, onto dirty destinations.
        #[test]
        fn row_adds_match_scalar(
            m in 0usize..20,
            seed in 0u64..32,
        ) {
            let gen = |salt: u64| -> Vec<i64> {
                (0..m)
                    .map(|i| {
                        ((i as u64).wrapping_mul(0x2545F4914F6CDD1D)
                            .wrapping_add(seed * 31 + salt) % 2001) as i64 - 1000
                    })
                    .collect()
            };
            let (dst0, a, b) = (gen(1), gen(2), gen(3));

            let mut got = dst0.clone();
            add_row(&mut got, &a);
            let want: Vec<i64> = dst0.iter().zip(&a).map(|(&d, &x)| d + x).collect();
            prop_assert_eq!(&got, &want);

            let mut got = dst0.clone();
            add_two_rows(&mut got, &a, &b);
            let want: Vec<i64> =
                dst0.iter().zip(&a).zip(&b).map(|((&d, &x), &y)| d + x + y).collect();
            prop_assert_eq!(&got, &want);
        }

        /// add_selected_rows equals the per-bit add loop for every mask,
        /// odd and even popcounts alike.
        #[test]
        fn add_selected_rows_matches_scalar(
            t in 1usize..=16,
            m in 1usize..10,
            mask in 0u32..=u32::MAX,
            seed in 0u64..16,
        ) {
            let bits = (mask & ((1u32 << t) - 1)) as u16;
            let staged: Vec<i64> = (0..t * m)
                .map(|i| {
                    ((i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed) % 401) as i64 - 200
                })
                .collect();
            let view = TileView::new(&staged, t, m, m);
            let dst0: Vec<i64> = (0..m).map(|i| i as i64 * 13 - 7).collect(); // dirty
            let mut got = dst0.clone();
            add_selected_rows(&mut got, view, bits);
            let mut want = dst0;
            for j in 0..t {
                if bits & (1 << j) != 0 {
                    for (a, &x) in want.iter_mut().zip(view.row(j)) {
                        *a += x;
                    }
                }
            }
            prop_assert_eq!(got, want);
        }

        /// im2col_lower equals the per-element scalar lowering on random
        /// shapes (padding, stride, kernel size).
        #[test]
        fn im2col_lower_matches_scalar(
            in_c in 1usize..3,
            kh in 1usize..4,
            kw in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..3,
            extra_h in 0usize..4,
            extra_w in 0usize..4,
            seed in 0i32..100,
        ) {
            let in_h = kh + extra_h;
            let in_w = kw + extra_w;
            let shape = ConvShape { in_c, out_c: 1, kh, kw, stride, pad, in_h, in_w };
            let x = MatI32::from_fn(in_c, in_h * in_w, |r, c| {
                ((r as i32 * 5 + c as i32 * 13 + seed) % 11) - 5
            });
            let (oh, ow) = (shape.out_h(), shape.out_w());
            let mut want = MatI32::zeros(in_c * kh * kw, oh * ow);
            for c in 0..in_c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let krow = (c * kh + ky) * kw + kx;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy >= 0
                                    && ix >= 0
                                    && (iy as usize) < in_h
                                    && (ix as usize) < in_w
                                {
                                    let v = x.get(c, iy as usize * in_w + ix as usize);
                                    want.set(krow, oy * ow + ox, v);
                                }
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(im2col_lower(&shape, &x), want);
        }
    }
}
