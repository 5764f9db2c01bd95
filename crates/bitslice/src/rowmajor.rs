//! Flat row-major buffers — the zero-copy substrate of the execution
//! engine.
//!
//! The functional GEMM path used to stage inputs and accumulators as
//! nested `Vec<Vec<i64>>`, paying one heap allocation per row and a
//! pointer chase per access. These types replace that with single
//! contiguous allocations:
//!
//! * [`RowMajor`] — an owned `rows × cols` buffer with slice accessors;
//! * [`RowsMut`] — a mutable view over a contiguous row range (the shard
//!   of the output accumulator one worker owns);
//! * [`TileView`] — a borrowed, possibly strided view of input rows (the
//!   `T` staged input rows one sub-tile evaluation reads).

/// An owned, contiguous row-major `rows × cols` buffer.
///
/// # Examples
///
/// ```
/// use ta_bitslice::RowMajor;
///
/// let mut m = RowMajor::<i64>::zeros(2, 3);
/// m.row_mut(1)[2] = 7;
/// assert_eq!(m.row(1), &[0, 0, 7]);
/// assert_eq!(m.as_slice().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMajor<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> RowMajor<T> {
    /// Creates a buffer of `rows × cols` default-valued elements.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::default(); rows * cols] }
    }
}

impl<T> RowMajor<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the row length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole buffer as one flat slice (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole buffer as one flat mutable slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Unwraps the flat row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrows rows `[r0, r0 + rows)` as a [`TileView`].
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn view_rows(&self, r0: usize, rows: usize) -> TileView<'_, T> {
        assert!(r0 + rows <= self.rows, "row range {r0}..{} out of bounds", r0 + rows);
        TileView::new(
            &self.data[r0 * self.cols..(r0 + rows) * self.cols],
            rows,
            self.cols,
            self.cols,
        )
    }
}

/// A mutable view over a contiguous block of rows — how the output
/// accumulator is sharded across workers without any per-row `Vec`.
///
/// # Examples
///
/// ```
/// use ta_bitslice::RowsMut;
///
/// let mut data = vec![0i64; 6];
/// let mut v = RowsMut::new(&mut data, 3);
/// v.row_mut(1)[0] = 5;
/// assert_eq!(data, [0, 0, 0, 5, 0, 0]);
/// ```
#[derive(Debug)]
pub struct RowsMut<'a, T> {
    data: &'a mut [T],
    cols: usize,
}

impl<'a, T> RowsMut<'a, T> {
    /// Wraps a flat slice as rows of `cols` elements.
    ///
    /// # Panics
    ///
    /// Panics if the slice length is not a multiple of `cols` (a
    /// zero-`cols` view over an empty slice is allowed — degenerate
    /// GEMMs with `m = 0` produce it).
    pub fn new(data: &'a mut [T], cols: usize) -> Self {
        assert!(
            (cols == 0 && data.is_empty()) || (cols > 0 && data.len().is_multiple_of(cols)),
            "slice length {} is not a whole number of {cols}-wide rows",
            data.len()
        );
        Self { data, cols }
    }

    /// Number of rows in the view.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// A borrowed view of `rows` input rows of length `cols`, laid out at a
/// fixed `stride` inside one contiguous buffer — what a sub-tile
/// evaluation reads instead of nested row vectors. `T` is the lane type
/// (the engine stages `i32` inputs).
///
/// # Examples
///
/// ```
/// use ta_bitslice::TileView;
///
/// // Two length-2 rows strided 3 apart inside one buffer.
/// let buf = [1i32, 2, 99, 4, 5, 99];
/// let v = TileView::new(&buf, 2, 2, 3);
/// assert_eq!(v.row(0), &[1, 2]);
/// assert_eq!(v.row(1), &[4, 5]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a, T> TileView<'a, T> {
    /// Wraps `data`: row `r` is `data[r·stride .. r·stride + cols]`.
    ///
    /// # Panics
    ///
    /// Panics if `stride < cols` or the last row exceeds `data`.
    pub fn new(data: &'a [T], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride >= cols, "stride {stride} must cover the row length {cols}");
        if rows > 0 {
            let need = (rows - 1) * stride + cols;
            assert!(
                data.len() >= need,
                "buffer of {} too short for view needing {need}",
                data.len()
            );
        }
        Self { data, rows, cols, stride }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.stride..r * self.stride + self.cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowmajor_rows_are_disjoint_and_contiguous() {
        let mut m = RowMajor::<i64>::zeros(3, 4);
        for r in 0..3 {
            for (c, v) in m.row_mut(r).iter_mut().enumerate() {
                *v = (r * 4 + c) as i64;
            }
        }
        assert_eq!(m.as_slice(), (0..12).map(|v| v as i64).collect::<Vec<_>>().as_slice());
        assert_eq!(m.row(2), &[8, 9, 10, 11]);
        assert_eq!((m.rows(), m.cols()), (3, 4));
    }

    #[test]
    fn view_rows_window() {
        let mut m = RowMajor::<i64>::zeros(4, 2);
        m.as_mut_slice().copy_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let v = m.view_rows(1, 2);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.row(0), &[2, 3]);
        assert_eq!(v.row(1), &[4, 5]);
    }

    #[test]
    fn strided_tile_view() {
        let buf: Vec<i64> = (0..12).collect();
        let v = TileView::new(&buf, 3, 2, 4);
        assert_eq!(v.row(0), &[0, 1]);
        assert_eq!(v.row(2), &[8, 9]);
        assert_eq!(v.cols(), 2);
    }

    #[test]
    fn rows_mut_partitions() {
        let mut data = vec![0i64; 8];
        let (a, b) = data.split_at_mut(4);
        let mut va = RowsMut::new(a, 2);
        let mut vb = RowsMut::new(b, 2);
        va.row_mut(1)[1] = 3;
        vb.row_mut(0)[0] = 9;
        assert_eq!(va.rows(), 2);
        assert_eq!(data, [0, 0, 0, 3, 9, 0, 0, 0]);
    }

    #[test]
    fn zero_width_rows_mut_is_empty() {
        let mut data: Vec<i64> = Vec::new();
        let v = RowsMut::new(&mut data, 0);
        assert_eq!(v.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rowmajor_row_oob_panics() {
        let m = RowMajor::<i64>::zeros(1, 1);
        let _ = m.row(1);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tile_view_rejects_short_buffer() {
        let buf = [0i64; 3];
        let _ = TileView::new(&buf, 2, 2, 3);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn rows_mut_rejects_ragged_slice() {
        let mut data = vec![0i64; 5];
        let _ = RowsMut::new(&mut data, 2);
    }
}
