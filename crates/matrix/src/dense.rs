//! Column-major dense matrix.
//!
//! This is the *reference* storage format of the workspace ("Full" in
//! Figure 2 of the paper).  The communication-exotic formats (blocked,
//! Morton-recursive, packed, ...) live in `cholcomm-layout`; everything is
//! validated against this type.

use crate::error::MatrixError;
use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Column-major dense matrix over a [`Scalar`] type.
///
/// Element `(i, j)` (row `i`, column `j`, both 0-based) lives at linear
/// index `i + j * rows`, i.e. columns are contiguous — the layout assumed
/// by the paper's "column-major" algorithm analyses.
#[derive(Clone, PartialEq)]
pub struct Matrix<S> {
    data: Vec<S>,
    rows: usize,
    cols: usize,
}

impl<S: Scalar> Matrix<S> {
    /// Validate that an `rows x cols` matrix of `S` is addressable,
    /// returning its element count.  Rejects shapes whose element count
    /// overflows `usize` or whose byte size overflows `isize` (the
    /// allocator's hard limit) with a typed [`MatrixError::TooLarge`]
    /// instead of the capacity panic `vec![]` would raise — admission
    /// layers shed these, they must not crash a worker.
    pub fn checked_len(rows: usize, cols: usize) -> Result<usize, MatrixError> {
        let too_large = MatrixError::TooLarge { rows, cols };
        let len = rows.checked_mul(cols).ok_or_else(|| too_large.clone())?;
        let bytes = len.checked_mul(std::mem::size_of::<S>()).ok_or(too_large.clone())?;
        if isize::try_from(bytes).is_err() {
            return Err(too_large);
        }
        Ok(len)
    }

    /// An `rows x cols` matrix of zeros, or [`MatrixError::TooLarge`]
    /// when the shape is not addressable.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, MatrixError> {
        let len = Self::checked_len(rows, cols)?;
        Ok(Matrix {
            data: vec![S::zero(); len],
            rows,
            cols,
        })
    }

    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        match Self::try_zeros(rows, cols) {
            Ok(m) => m,
            Err(e) => panic!("Matrix::zeros: {e}"),
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let len = match Self::checked_len(rows, cols) {
            Ok(len) => len,
            Err(e) => panic!("Matrix::from_fn: {e}"),
        };
        let mut data = Vec::with_capacity(len);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Build from a row-major slice of length `rows * cols` (convenient for
    /// literal test matrices).
    pub fn from_rows(rows: usize, cols: usize, entries: &[S]) -> Self {
        assert_eq!(entries.len(), rows * cols, "entry count mismatch");
        Self::from_fn(rows, cols, |i, j| entries[i * cols + j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutably borrow the underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Give up the column-major storage.
    #[inline]
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Linear (column-major) index of `(i, j)`.
    #[inline]
    pub fn lin(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        i + j * self.rows
    }

    /// Column `j` as a contiguous slice (columns are contiguous in
    /// column-major storage).  The hot-path alternative to per-element
    /// `Index`, which pays a bounds check on every access.
    #[inline]
    pub fn col(&self, j: usize) -> &[S] {
        let r = self.rows;
        &self.data[j * r..(j + 1) * r]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Split the storage at column `j`: the first slice holds columns
    /// `0..j`, the second columns `j..cols`, both contiguous column-major.
    /// Lets a kernel hold column `j` mutably while reading the already
    /// finished columns to its left (the shape of every left-looking
    /// update in the paper).
    #[inline]
    pub fn split_cols_mut(&mut self, j: usize) -> (&mut [S], &mut [S]) {
        let r = self.rows;
        self.data.split_at_mut(j * r)
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copy of the `h x w` submatrix whose top-left corner is `(i0, j0)`.
    pub fn submatrix(&self, i0: usize, j0: usize, h: usize, w: usize) -> Self {
        self.submatrix_into(i0, j0, h, w, Vec::new())
    }

    /// [`submatrix`](Self::submatrix) in the storage of `buf`, whose
    /// contents are discarded: with `h * w` elements of capacity already
    /// reserved nothing is allocated, and the reserved pages are first
    /// touched here — by the thread that is about to work on the copy.
    pub fn submatrix_into(&self, i0: usize, j0: usize, h: usize, w: usize, buf: Vec<S>) -> Self {
        assert!(i0 + h <= self.rows && j0 + w <= self.cols, "submatrix out of range");
        let mut data = buf;
        data.clear();
        data.reserve_exact(h * w);
        for j in j0..j0 + w {
            data.extend_from_slice(&self.col(j)[i0..i0 + h]);
        }
        Matrix { data, rows: h, cols: w }
    }

    /// Overwrite the `h x w` region at `(i0, j0)` with `block`.
    pub fn set_submatrix(&mut self, i0: usize, j0: usize, block: &Matrix<S>) {
        assert!(
            i0 + block.rows <= self.rows && j0 + block.cols <= self.cols,
            "set_submatrix out of range"
        );
        if !block.data.is_empty() {
            let ld = self.rows;
            block.copy_to_cols(&mut self.data[i0 + j0 * ld..], ld);
        }
    }

    /// Copy this matrix into a window of a column-major matrix with
    /// leading dimension `ld`: column `j` goes to
    /// `window[j * ld..j * ld + rows]`, nothing else is written.  The
    /// window starts at the element the top-left corner lands on, so any
    /// contiguous run of the target's columns — one block column, handed
    /// to one task — can be written without the whole matrix in hand.
    pub fn copy_to_cols(&self, window: &mut [S], ld: usize) {
        if self.data.is_empty() {
            return;
        }
        assert!(
            self.rows <= ld && (self.cols - 1) * ld + self.rows <= window.len(),
            "copy_to_cols out of range"
        );
        for (dst, src) in window.chunks_mut(ld).zip(self.data.chunks_exact(self.rows)) {
            dst[..self.rows].copy_from_slice(src);
        }
    }

    /// Zero the strictly upper triangle in place.
    pub fn zero_strict_upper(&mut self) {
        for j in 0..self.cols {
            let above = j.min(self.rows);
            self.col_mut(j)[..above].fill(S::zero());
        }
    }

    /// Zero the strictly upper triangle, producing the lower-triangular
    /// matrix that Cholesky routines leave in place ("only half of the
    /// matrix is referenced or overwritten").
    pub fn lower_triangle(&self) -> Result<Self, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut lower = self.clone();
        lower.zero_strict_upper();
        Ok(lower)
    }

    /// Symmetrize the lower triangle into the upper: `A[i,j] = A[j,i]` for
    /// `i < j`.  Used by generators that fill only one half.
    pub fn mirror_lower(&mut self) {
        assert!(self.is_square());
        for j in 0..self.cols {
            for i in 0..j {
                self[(i, j)] = self[(j, i)];
            }
        }
    }

    /// `true` if the matrix equals its transpose exactly.
    pub fn is_symmetric(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..j {
                if self[(i, j)] != self[(j, i)] {
                    return false;
                }
            }
        }
        true
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(S) -> S) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        &self.data[i + j * self.rows]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        &mut self.data[i + j * self.rows]
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let id = Matrix::<f64>::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn oversized_shapes_are_typed_errors_not_panics() {
        // Element count itself overflows usize.
        assert_eq!(
            Matrix::<f64>::try_zeros(usize::MAX, 2).unwrap_err(),
            MatrixError::TooLarge { rows: usize::MAX, cols: 2 }
        );
        // Element count fits but the byte size cannot: usize::MAX / 16
        // squared elements of 8 bytes each.
        let side = 1usize << (usize::BITS / 2 - 1);
        assert_eq!(
            Matrix::<f64>::try_zeros(side, side).unwrap_err(),
            MatrixError::TooLarge { rows: side, cols: side }
        );
        assert_eq!(Matrix::<f64>::checked_len(3, 4), Ok(12));
        assert_eq!(Matrix::<f64>::checked_len(0, usize::MAX), Ok(0));
    }

    #[test]
    fn column_major_linearization() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        // Column 0 then column 1, each column contiguous.
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m.lin(2, 1), 5);
    }

    #[test]
    fn from_rows_matches_index() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::<f64>::from_fn(4, 3, |i, j| (i + 7 * j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn submatrix_and_set_submatrix() {
        let mut m = Matrix::<f64>::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let b = m.submatrix(1, 2, 2, 2);
        assert_eq!(b[(0, 0)], 12.0);
        assert_eq!(b[(1, 1)], 23.0);
        let patch = Matrix::<f64>::from_fn(2, 2, |_, _| -1.0);
        m.set_submatrix(2, 0, &patch);
        assert_eq!(m[(2, 0)], -1.0);
        assert_eq!(m[(3, 1)], -1.0);
        assert_eq!(m[(1, 0)], 10.0);
    }

    #[test]
    fn lower_triangle_zeroes_upper() {
        let m = Matrix::<f64>::from_fn(3, 3, |_, _| 5.0);
        let l = m.lower_triangle().unwrap();
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(l[(0, 2)], 0.0);
        assert_eq!(l[(1, 2)], 0.0);
        assert_eq!(l[(2, 0)], 5.0);
    }

    #[test]
    fn lower_triangle_requires_square() {
        let m = Matrix::<f64>::zeros(2, 3);
        assert_eq!(
            m.lower_triangle().unwrap_err(),
            MatrixError::NotSquare { rows: 2, cols: 3 }
        );
    }

    #[test]
    fn mirror_and_symmetry() {
        let mut m = Matrix::<f64>::from_fn(3, 3, |i, j| if i >= j { (i + j) as f64 } else { 99.0 });
        assert!(!m.is_symmetric());
        m.mirror_lower();
        assert!(m.is_symmetric());
        assert_eq!(m[(0, 2)], 2.0);
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut m = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m[(1, 1)], 4.0);
    }
}
