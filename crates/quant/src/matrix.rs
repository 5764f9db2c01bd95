//! Dense row-major matrices used throughout the reproduction.
//!
//! Two concrete element types cover every need of the paper's pipeline:
//! [`MatF32`] for pre-quantization tensors and reference GEMM, and
//! [`MatI32`] for quantized integer tensors (the bit-slicing engine in
//! `ta-bitslice` consumes `MatI32`).
//!
//! The types are deliberately small and passive (public `rows`/`cols`
//! accessors, slice access) — the heavy machinery lives in the crates above.

use std::fmt;

/// Row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use ta_quant::MatF32;
///
/// let m = MatF32::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct MatF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Row-major `i32` matrix (quantized tensors, integer GEMM outputs).
///
/// # Examples
///
/// ```
/// use ta_quant::MatI32;
///
/// let m = MatI32::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert!(m.as_slice().iter().all(|&v| v == 0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MatI32 {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

macro_rules! impl_matrix {
    ($name:ident, $elem:ty, $zero:expr) => {
        impl $name {
            /// Creates a matrix filled with zeros.
            ///
            /// # Panics
            ///
            /// Panics if `rows * cols` overflows `usize`.
            pub fn zeros(rows: usize, cols: usize) -> Self {
                let len = rows.checked_mul(cols).expect("matrix dimensions overflow usize");
                Self { rows, cols, data: vec![$zero; len] }
            }

            /// Creates a matrix from a flat row-major vector.
            ///
            /// # Panics
            ///
            /// Panics if `data.len() != rows * cols`.
            pub fn from_vec(rows: usize, cols: usize, data: Vec<$elem>) -> Self {
                assert_eq!(
                    data.len(),
                    rows * cols,
                    "data length {} does not match {}x{}",
                    data.len(),
                    rows,
                    cols
                );
                Self { rows, cols, data }
            }

            /// Creates a matrix from row slices.
            ///
            /// # Panics
            ///
            /// Panics if rows have inconsistent lengths.
            pub fn from_rows(rows: &[&[$elem]]) -> Self {
                let r = rows.len();
                let c = rows.first().map_or(0, |row| row.len());
                let mut data = Vec::with_capacity(r * c);
                for row in rows {
                    assert_eq!(row.len(), c, "ragged rows in from_rows");
                    data.extend_from_slice(row);
                }
                Self { rows: r, cols: c, data }
            }

            /// Builds a matrix by evaluating `f(row, col)` for every element.
            pub fn from_fn(
                rows: usize,
                cols: usize,
                mut f: impl FnMut(usize, usize) -> $elem,
            ) -> Self {
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        data.push(f(r, c));
                    }
                }
                Self { rows, cols, data }
            }

            /// Number of rows.
            pub fn rows(&self) -> usize {
                self.rows
            }

            /// Number of columns.
            pub fn cols(&self) -> usize {
                self.cols
            }

            /// Total number of elements.
            pub fn len(&self) -> usize {
                self.data.len()
            }

            /// Returns `true` if the matrix has no elements.
            pub fn is_empty(&self) -> bool {
                self.data.is_empty()
            }

            /// Element at `(r, c)`.
            ///
            /// # Panics
            ///
            /// Panics if out of bounds.
            #[inline]
            pub fn get(&self, r: usize, c: usize) -> $elem {
                assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
                self.data[r * self.cols + c]
            }

            /// Sets the element at `(r, c)`.
            ///
            /// # Panics
            ///
            /// Panics if out of bounds.
            #[inline]
            pub fn set(&mut self, r: usize, c: usize, v: $elem) {
                assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
                self.data[r * self.cols + c] = v;
            }

            /// Borrow of row `r` as a slice.
            ///
            /// # Panics
            ///
            /// Panics if `r >= rows`.
            #[inline]
            pub fn row(&self, r: usize) -> &[$elem] {
                assert!(r < self.rows, "row {r} out of bounds");
                &self.data[r * self.cols..(r + 1) * self.cols]
            }

            /// Mutable borrow of row `r`.
            ///
            /// # Panics
            ///
            /// Panics if `r >= rows`.
            #[inline]
            pub fn row_mut(&mut self, r: usize) -> &mut [$elem] {
                assert!(r < self.rows, "row {r} out of bounds");
                &mut self.data[r * self.cols..(r + 1) * self.cols]
            }

            /// Flat row-major view of the data.
            pub fn as_slice(&self) -> &[$elem] {
                &self.data
            }

            /// Flat mutable row-major view of the data.
            pub fn as_mut_slice(&mut self) -> &mut [$elem] {
                &mut self.data
            }

            /// Consumes the matrix and returns its flat row-major data.
            pub fn into_vec(self) -> Vec<$elem> {
                self.data
            }

            /// Transposed copy of the matrix.
            pub fn transposed(&self) -> Self {
                let mut out = Self::zeros(self.cols, self.rows);
                for r in 0..self.rows {
                    for c in 0..self.cols {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
                out
            }

            /// Copies the sub-matrix starting at `(r0, c0)` of shape
            /// `(rows, cols)`, zero-padding past the source boundary.
            ///
            /// Tiling engines use this to extract edge tiles without
            /// special-casing remainders.
            pub fn tile_padded(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
                let mut out = Self::zeros(rows, cols);
                for r in 0..rows {
                    let sr = r0 + r;
                    if sr >= self.rows {
                        break;
                    }
                    for c in 0..cols {
                        let sc = c0 + c;
                        if sc >= self.cols {
                            break;
                        }
                        out.data[r * cols + c] = self.data[sr * self.cols + sc];
                    }
                }
                out
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                writeln!(f, "{} {}x{} [", stringify!($name), self.rows, self.cols)?;
                let max_rows = 8.min(self.rows);
                for r in 0..max_rows {
                    let max_cols = 12.min(self.cols);
                    write!(f, "  ")?;
                    for c in 0..max_cols {
                        write!(f, "{:?} ", self.get(r, c))?;
                    }
                    if self.cols > max_cols {
                        write!(f, "…")?;
                    }
                    writeln!(f)?;
                }
                if self.rows > max_rows {
                    writeln!(f, "  …")?;
                }
                write!(f, "]")
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::zeros(0, 0)
            }
        }
    };
}

impl_matrix!(MatF32, f32, 0.0f32);
impl_matrix!(MatI32, i32, 0i32);

impl MatI32 {
    /// Converts to `f32` elementwise.
    pub fn to_f32(&self) -> MatF32 {
        MatF32::from_vec(self.rows, self.cols, self.data.iter().map(|&v| v as f32).collect())
    }

    /// Minimum and maximum element; `(0, 0)` for an empty matrix.
    pub fn min_max(&self) -> (i32, i32) {
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if self.data.is_empty() {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// Returns `true` if every element fits in a signed `bits`-bit integer
    /// (2's complement range `[-2^(bits-1), 2^(bits-1) - 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    pub fn fits_signed_bits(&self, bits: u32) -> bool {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        // One branch-free min/max fold (it vectorizes), then one range test
        // of its two ends; every `i32` fits 32 bits.
        let (lo, hi) = self.min_max();
        let half = 1i64 << (bits - 1);
        i64::from(lo) >= -half && i64::from(hi) < half
    }
}

impl MatF32 {
    /// Maximum absolute value of the matrix (0 for an empty matrix).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// Reference dense GEMM over `f32`: `C (n×m) = A (n×k) · B (k×m)`.
///
/// Accumulates in `f64` so it can serve as the "exact" reference for the
/// quantization-error experiments.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use ta_quant::{gemm_f32, MatF32};
///
/// let a = MatF32::from_rows(&[&[1.0, 2.0]]);
/// let b = MatF32::from_rows(&[&[3.0], &[4.0]]);
/// let c = gemm_f32(&a, &b);
/// assert_eq!(c.get(0, 0), 11.0);
/// ```
pub fn gemm_f32(a: &MatF32, b: &MatF32) -> MatF32 {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = MatF32::zeros(n, m);
    for i in 0..n {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        let mut acc = vec![0.0f64; m];
        for (p, &av) in arow.iter().enumerate().take(k) {
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            for (j, &bv) in brow.iter().enumerate() {
                acc[j] += av as f64 * bv as f64;
            }
        }
        for (o, v) in orow.iter_mut().zip(acc) {
            *o = v as f32;
        }
    }
    out
}

/// Reference dense integer GEMM: `C (n×m) = A (n×k) · B (k×m)` with `i64`
/// accumulation, truncated to `i32` on output.
///
/// This is the functional golden model the Transitive Array must match
/// **bit-exactly** (the paper's "lossless" claim, §2.1).
///
/// # Panics
///
/// Panics if the inner dimensions disagree or if any accumulated value
/// overflows `i32` (the bit-sliced pipeline guarantees it never does for
/// the precisions the paper uses; the panic is a test oracle, not a
/// recoverable condition).
pub fn gemm_i32(a: &MatI32, b: &MatI32) -> MatI32 {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = MatI32::zeros(n, m);
    for i in 0..n {
        let arow = a.row(i);
        let mut acc = vec![0i64; m];
        for (p, &av) in arow.iter().enumerate().take(k) {
            if av == 0 {
                continue;
            }
            let brow = b.row(p);
            for (j, &bv) in brow.iter().enumerate() {
                acc[j] += av as i64 * bv as i64;
            }
        }
        let orow = out.row_mut(i);
        for (o, v) in orow.iter_mut().zip(acc) {
            *o = i32::try_from(v).expect("integer GEMM overflowed i32 accumulation");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = MatF32::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(MatF32::zeros(0, 5).is_empty());
    }

    #[test]
    fn from_rows_and_get_set() {
        let mut m = MatI32::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.get(0, 2), 3);
        assert_eq!(m.get(1, 0), 4);
        m.set(1, 1, 42);
        assert_eq!(m.row(1), &[4, 42, 6]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = MatI32::from_rows(&[&[1, 2], &[3]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = MatI32::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn from_fn_matches_formula() {
        let m = MatI32::from_fn(3, 3, |r, c| (r * 3 + c) as i32);
        assert_eq!(m.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn transpose_involution() {
        let m = MatI32::from_fn(3, 5, |r, c| (r * 31 + c * 7) as i32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn tile_padded_interior_and_edge() {
        let m = MatI32::from_fn(4, 4, |r, c| (r * 4 + c) as i32);
        let t = m.tile_padded(1, 1, 2, 2);
        assert_eq!(t.as_slice(), &[5, 6, 9, 10]);
        // Edge tile pads with zeros.
        let e = m.tile_padded(3, 3, 2, 2);
        assert_eq!(e.as_slice(), &[15, 0, 0, 0]);
        // Fully out of range gives all zeros.
        let z = m.tile_padded(10, 10, 2, 2);
        assert_eq!(z.as_slice(), &[0, 0, 0, 0]);
    }

    #[test]
    fn min_max_and_fits() {
        let m = MatI32::from_rows(&[&[-8, 7], &[0, 3]]);
        assert_eq!(m.min_max(), (-8, 7));
        assert!(m.fits_signed_bits(4));
        assert!(!m.fits_signed_bits(3));
        assert!(m.fits_signed_bits(32));
    }

    /// [`MatI32::fits_signed_bits`] as it stood before the min/max fold:
    /// every value widened to `i64` and range-tested on its own.
    fn fits_signed_bits_oracle(m: &MatI32, bits: u32) -> bool {
        if bits == 32 {
            return true;
        }
        let hi = (1i64 << (bits - 1)) - 1;
        let lo = -(1i64 << (bits - 1));
        m.as_slice().iter().all(|&v| (v as i64) >= lo && (v as i64) <= hi)
    }

    #[test]
    fn fits_signed_bits_matches_oracle_at_every_edge() {
        let empty = MatI32::zeros(0, 0);
        for bits in 1..=32u32 {
            assert!(empty.fits_signed_bits(bits), "empty, bits={bits}");
            assert!(fits_signed_bits_oracle(&empty, bits));
            let half = 1i64 << (bits - 1);
            let edges = [-half - 1, -half, -half + 1, half - 2, half - 1, half];
            let values = edges.into_iter().filter_map(|v| i32::try_from(v).ok()).chain([
                i32::MIN,
                i32::MAX,
                0,
            ]);
            for v in values {
                // The value alone, then planted first, mid-row and last in a
                // ragged matrix whose other entries fit every width.
                let one = MatI32::from_rows(&[&[v]]);
                assert_eq!(one.fits_signed_bits(bits), fits_signed_bits_oracle(&one, bits));
                for at in [0, 50, 110] {
                    let mut m = MatI32::from_fn(3, 37, |r, c| ((r + c) % 2) as i32 - 1);
                    m.set(at / 37, at % 37, v);
                    let (got, want) = (m.fits_signed_bits(bits), fits_signed_bits_oracle(&m, bits));
                    assert_eq!(got, want, "bits={bits} value={v} at={at}");
                }
            }
        }
    }

    #[test]
    fn gemm_f32_small() {
        let a = MatF32::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = MatF32::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = gemm_f32(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_i32_small() {
        let a = MatI32::from_rows(&[&[1, -2], &[3, 4]]);
        let b = MatI32::from_rows(&[&[5, 6], &[-7, 8]]);
        let c = gemm_i32(&a, &b);
        assert_eq!(c.as_slice(), &[19, -10, -13, 50]);
    }

    #[test]
    fn gemm_identity() {
        let n = 6;
        let a = MatI32::from_fn(n, n, |r, c| if r == c { 1 } else { 0 });
        let b = MatI32::from_fn(n, n, |r, c| (r * 13 + c * 5) as i32 - 20);
        assert_eq!(gemm_i32(&a, &b), b);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn gemm_dim_mismatch_panics() {
        let a = MatI32::zeros(2, 3);
        let b = MatI32::zeros(2, 3);
        let _ = gemm_i32(&a, &b);
    }

    #[test]
    fn abs_max() {
        let m = MatF32::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(m.abs_max(), 4.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = MatI32::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }
}
