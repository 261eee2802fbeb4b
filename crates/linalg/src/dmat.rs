//! Dynamically-sized dense matrices and vectors.
//!
//! Joint-space quantities (the mass matrix, the dynamics-gradient matrices)
//! have dimension `N` = number of robot links, so they are heap-allocated.
//! Storage is row-major.

use core::fmt;
use core::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dynamically-sized dense column vector.
pub type DVec = Vec<f64>;

/// A dynamically-sized dense matrix, row-major.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::DMat;
/// let m = DMat::identity(3);
/// assert_eq!(m[(1, 1)], 1.0);
/// assert_eq!(m[(0, 1)], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates a `rows × cols` matrix of zeros.
    #[inline]
    pub fn zeros(rows: usize, cols: usize) -> DMat {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    #[inline]
    pub fn identity(n: usize) -> DMat {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    #[inline]
    pub fn from_rows(rows: &[&[f64]]) -> DMat {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = DMat::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "inconsistent row length in DMat::from_rows");
            for (j, v) in row.iter().enumerate() {
                m[(i, j)] = *v;
            }
        }
        m
    }

    /// Builds a matrix from a function of the index pair.
    #[inline]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> DMat {
        let mut m = DMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Matrix transpose.
    #[inline]
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[inline]
    pub fn mul_vec(&self, v: &[f64]) -> DVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[inline]
    pub fn mul_mat(&self, other: &DMat) -> DMat {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul_mat");
        let mut out = DMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Returns a copy scaled by `s`.
    #[inline]
    pub fn scaled(&self, s: f64) -> DMat {
        let mut m = self.clone();
        for v in &mut m.data {
            *v *= s;
        }
        m
    }

    /// Maximum absolute entry of `self - other`; `None` when the shapes
    /// differ.
    #[inline]
    pub fn max_abs_diff(&self, other: &DMat) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Maximum absolute entry.
    #[inline]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// `true` if the matrix is symmetric within `eps`.
    #[inline]
    pub fn is_symmetric(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > eps {
                    return false;
                }
            }
        }
        true
    }

    /// Count of entries with magnitude above `eps`.
    #[inline]
    pub fn nnz(&self, eps: f64) -> usize {
        self.data.iter().filter(|v| v.abs() > eps).count()
    }

    /// Fraction of entries that are (numerically) zero, in `[0, 1]`.
    #[inline]
    pub fn sparsity(&self, eps: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz(eps) as f64 / self.data.len() as f64
    }

    /// Copies the rectangular block starting at `(r0, c0)` of shape
    /// `(block_rows, block_cols)`, zero-padding past the matrix edge.
    #[inline]
    pub fn block_padded(&self, r0: usize, c0: usize, block_rows: usize, block_cols: usize) -> DMat {
        DMat::from_fn(block_rows, block_cols, |i, j| {
            let (r, c) = (r0 + i, c0 + j);
            if r < self.rows && c < self.cols {
                self[(r, c)]
            } else {
                0.0
            }
        })
    }

    /// Adds `block` into `self` at offset `(r0, c0)`, ignoring entries that
    /// fall past the matrix edge (the inverse of [`DMat::block_padded`]).
    #[inline]
    pub fn add_block(&mut self, r0: usize, c0: usize, block: &DMat) {
        for i in 0..block.rows {
            for j in 0..block.cols {
                let (r, c) = (r0 + i, c0 + j);
                if r < self.rows && c < self.cols {
                    self[(r, c)] += block[(i, j)];
                }
            }
        }
    }

    /// Row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &DMat {
    type Output = DMat;
    #[inline]
    fn add(self, o: &DMat) -> DMat {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols), "shape mismatch");
        let mut m = self.clone();
        for (a, b) in m.data.iter_mut().zip(o.data.iter()) {
            *a += b;
        }
        m
    }
}

impl Sub for &DMat {
    type Output = DMat;
    #[inline]
    fn sub(self, o: &DMat) -> DMat {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols), "shape mismatch");
        let mut m = self.clone();
        for (a, b) in m.data.iter_mut().zip(o.data.iter()) {
            *a -= b;
        }
        m
    }
}

impl Mul for &DMat {
    type Output = DMat;
    #[inline]
    fn mul(self, o: &DMat) -> DMat {
        self.mul_mat(o)
    }
}

impl fmt::Display for DMat {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_mat(max: usize) -> impl Strategy<Value = DMat> {
        (1..=max, 1..=max).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-10.0..10.0f64, r * c).prop_map(move |data| DMat {
                rows: r,
                cols: c,
                data,
            })
        })
    }

    #[test]
    fn identity_times_vector() {
        let m = DMat::identity(4);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.mul_vec(&v), v);
    }

    #[test]
    fn from_rows_and_index() {
        let m = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = DMat::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn block_padded_pads_with_zeros() {
        let m = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m.block_padded(1, 1, 2, 2);
        assert_eq!(b[(0, 0)], 4.0);
        assert_eq!(b[(0, 1)], 0.0);
        assert_eq!(b[(1, 0)], 0.0);
        assert_eq!(b[(1, 1)], 0.0);
    }

    #[test]
    fn add_block_is_inverse_of_block_padded_inside() {
        let m = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let b = m.block_padded(1, 1, 2, 2);
        let mut acc = DMat::zeros(3, 3);
        acc.add_block(1, 1, &b);
        assert_eq!(acc[(1, 1)], 5.0);
        assert_eq!(acc[(2, 2)], 9.0);
        assert_eq!(acc[(0, 0)], 0.0);
    }

    #[test]
    fn sparsity_of_diagonal() {
        let m = DMat::identity(4);
        assert_eq!(m.nnz(1e-12), 4);
        assert!((m.sparsity(1e-12) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn symmetric_detection() {
        let m = DMat::from_rows(&[&[2.0, 1.0], &[1.0, 5.0]]);
        assert!(m.is_symmetric(1e-12));
        let n = DMat::from_rows(&[&[2.0, 1.0], &[0.0, 5.0]]);
        assert!(!n.is_symmetric(1e-12));
        assert!(!DMat::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn display_renders_rows() {
        let s = format!("{}", DMat::identity(2));
        assert_eq!(s.lines().count(), 2);
    }

    proptest! {
        #[test]
        fn transpose_involution(m in arb_mat(6)) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_associativity(
            (a, b, c) in (1usize..5, 1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(m, n, p, q)| {
                (
                    proptest::collection::vec(-10.0..10.0f64, m * n),
                    proptest::collection::vec(-10.0..10.0f64, n * p),
                    proptest::collection::vec(-10.0..10.0f64, p * q),
                ).prop_map(move |(da, db, dc)| (
                    DMat::from_fn(m, n, |i, j| da[i * n + j]),
                    DMat::from_fn(n, p, |i, j| db[i * p + j]),
                    DMat::from_fn(p, q, |i, j| dc[i * q + j]),
                ))
            })
        ) {
            let lhs = a.mul_mat(&b).mul_mat(&c);
            let rhs = a.mul_mat(&b.mul_mat(&c));
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-6);
        }

        #[test]
        fn matmul_transpose_identity(
            (a, b) in (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(m, n, p)| {
                (
                    proptest::collection::vec(-10.0..10.0f64, m * n),
                    proptest::collection::vec(-10.0..10.0f64, n * p),
                ).prop_map(move |(da, db)| (
                    DMat::from_fn(m, n, |i, j| da[i * n + j]),
                    DMat::from_fn(n, p, |i, j| db[i * p + j]),
                ))
            })
        ) {
            let lhs = a.mul_mat(&b).transpose();
            let rhs = b.transpose().mul_mat(&a.transpose());
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-8);
        }

        #[test]
        fn identity_is_neutral(m in arb_mat(6)) {
            let i_left = DMat::identity(m.rows());
            let i_right = DMat::identity(m.cols());
            prop_assert!(i_left.mul_mat(&m).max_abs_diff(&m).unwrap() < 1e-12);
            prop_assert!(m.mul_mat(&i_right).max_abs_diff(&m).unwrap() < 1e-12);
        }
    }
}
