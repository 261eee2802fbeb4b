//! Small dense linear algebra for the RoboShape reproduction.
//!
//! Robot dynamics operates on two scales of data:
//!
//! * fixed-size 3- and 6-dimensional vectors and matrices (spatial algebra
//!   per link) — [`Vec3`], [`Mat3`], [`Vec6`], [`Mat6`];
//! * `N×N` joint-space matrices that grow with robot size (the mass matrix
//!   and the gradient matrices) — [`DMat`], [`DVec`].
//!
//! The crate is dependency-free and deliberately
//! small: only the operations the dynamics algorithms and the accelerator
//! model actually need are provided.
//!
//! # Examples
//!
//! ```
//! use roboshape_linalg::{DMat, Cholesky};
//!
//! // Solve A x = b for a symmetric positive-definite A.
//! let a = DMat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = Cholesky::new(&a).expect("A is SPD");
//! let x = chol.solve_vec(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
// Indexed loops over small fixed-size matrices read clearer than iterator
// chains in these numeric kernels.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod dmat;
mod fixed;
pub mod simd;

pub use cholesky::{Cholesky, CholeskyError};
pub use dmat::{DMat, DVec};
pub use fixed::{Mat3, Mat6, Vec3, Vec6};
pub use simd::f64x4;

/// Tolerance used by the crate's approximate-equality helpers.
pub const DEFAULT_EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` differ by at most `eps` in absolute terms
/// or by `eps` relative to the larger magnitude.
///
/// # Examples
///
/// ```
/// assert!(roboshape_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!roboshape_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= eps {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= eps * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(1e9, 1e9 + 0.5, 1e-9));
        assert!(!approx_eq(1.0, 2.0, 1e-9));
        assert!(!approx_eq(-1.0, 1.0, 1e-9));
    }
}
