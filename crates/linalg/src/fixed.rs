//! Fixed-size 3- and 6-dimensional vectors and matrices.
//!
//! These types back the spatial-algebra layer: a rigid-body quantity is a
//! 6-vector (angular part stacked on linear part) and transforms between
//! link frames are 6×6 Plücker matrices built out of 3×3 blocks.

use core::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-dimensional column vector.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// let v = Vec3::new(1.0, 2.0, 3.0);
/// assert_eq!(v.dot(Vec3::new(1.0, 0.0, 0.0)), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from its three components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Unit vector along x.
    pub const fn unit_x() -> Self {
        Vec3::new(1.0, 0.0, 0.0)
    }

    /// Unit vector along y.
    pub const fn unit_y() -> Self {
        Vec3::new(0.0, 1.0, 0.0)
    }

    /// Unit vector along z.
    pub const fn unit_z() -> Self {
        Vec3::new(0.0, 0.0, 1.0)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product `self × other`.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the vector is (numerically) zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 1e-12, "cannot normalize a zero vector");
        self * (1.0 / n)
    }

    /// The skew-symmetric cross-product matrix `[v]×` with `[v]× w = v × w`.
    #[inline]
    pub fn skew(self) -> Mat3 {
        Mat3::from_rows([
            [0.0, -self.z, self.y],
            [self.z, 0.0, -self.x],
            [-self.y, self.x, 0.0],
        ])
    }

    /// Components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

/// A 3×3 matrix in row-major order.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::unit_x();
/// assert!((v.y - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    rows: [[f64; 3]; 3],
}

impl Default for Mat3 {
    #[inline]
    fn default() -> Self {
        Mat3::zero()
    }
}

impl Mat3 {
    /// The zero matrix.
    #[inline]
    pub fn zero() -> Mat3 {
        Mat3 {
            rows: [[0.0; 3]; 3],
        }
    }

    /// The identity matrix.
    #[inline]
    pub fn identity() -> Mat3 {
        let mut m = Mat3::zero();
        for i in 0..3 {
            m.rows[i][i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row-major data.
    #[inline]
    pub fn from_rows(rows: [[f64; 3]; 3]) -> Mat3 {
        Mat3 { rows }
    }

    /// A diagonal matrix with the given diagonal entries.
    #[inline]
    pub fn diagonal(d: Vec3) -> Mat3 {
        Mat3::from_rows([[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]])
    }

    /// Rotation by `angle` radians about the x axis.
    #[inline]
    pub fn rotation_x(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    }

    /// Rotation by `angle` radians about the y axis.
    #[inline]
    pub fn rotation_y(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    }

    /// Rotation by `angle` radians about the z axis.
    #[inline]
    pub fn rotation_z(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Rotation by `angle` radians about an arbitrary unit `axis`
    /// (Rodrigues' formula).
    ///
    /// # Panics
    ///
    /// Panics if `axis` is numerically zero.
    #[inline]
    pub fn rotation_axis(axis: Vec3, angle: f64) -> Mat3 {
        let u = axis.normalized();
        let (s, c) = angle.sin_cos();
        let k = u.skew();
        Mat3::identity() + k * s + (k * k) * (1.0 - c)
    }

    /// Intrinsic roll-pitch-yaw rotation used by URDF `rpy` attributes:
    /// `R = Rz(yaw) · Ry(pitch) · Rx(roll)`.
    #[inline]
    pub fn from_rpy(roll: f64, pitch: f64, yaw: f64) -> Mat3 {
        Mat3::rotation_z(yaw) * Mat3::rotation_y(pitch) * Mat3::rotation_x(roll)
    }

    /// Extracts intrinsic roll-pitch-yaw angles such that
    /// `Mat3::from_rpy(r, p, y)` reconstructs this rotation matrix.
    ///
    /// Near the pitch singularity (`|pitch| = π/2`) the roll is set to zero
    /// and the yaw absorbs the remaining rotation.
    #[inline]
    pub fn to_rpy(&self) -> [f64; 3] {
        let r20 = self.rows[2][0];
        if r20.abs() < 1.0 - 1e-10 {
            let pitch = (-r20).asin();
            let roll = self.rows[2][1].atan2(self.rows[2][2]);
            let yaw = self.rows[1][0].atan2(self.rows[0][0]);
            [roll, pitch, yaw]
        } else {
            // Gimbal lock: pitch = ±π/2; choose roll = 0.
            let pitch = if r20 < 0.0 {
                std::f64::consts::FRAC_PI_2
            } else {
                -std::f64::consts::FRAC_PI_2
            };
            let yaw = (-self.rows[0][1]).atan2(self.rows[1][1]);
            [0.0, pitch, yaw]
        }
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(&self) -> Mat3 {
        let mut t = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                t.rows[j][i] = self.rows[i][j];
            }
        }
        t
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.rows[r][c]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.rows[r][c] = v;
    }

    /// Frobenius norm of `self - other`; used in tests.
    #[inline]
    pub fn distance(&self, other: &Mat3) -> f64 {
        let mut acc = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                let d = self.rows[i][j] - other.rows[i][j];
                acc += d * d;
            }
        }
        acc.sqrt()
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    #[inline]
    fn add(self, o: Mat3) -> Mat3 {
        let mut m = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                m.rows[i][j] = self.rows[i][j] + o.rows[i][j];
            }
        }
        m
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    #[inline]
    fn sub(self, o: Mat3) -> Mat3 {
        let mut m = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                m.rows[i][j] = self.rows[i][j] - o.rows[i][j];
            }
        }
        m
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, s: f64) -> Mat3 {
        let mut m = self;
        for i in 0..3 {
            for j in 0..3 {
                m.rows[i][j] *= s;
            }
        }
        m
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.rows[0][0] * v.x + self.rows[0][1] * v.y + self.rows[0][2] * v.z,
            self.rows[1][0] * v.x + self.rows[1][1] * v.y + self.rows[1][2] * v.z,
            self.rows[2][0] * v.x + self.rows[2][1] * v.y + self.rows[2][2] * v.z,
        )
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, o: Mat3) -> Mat3 {
        let mut m = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += self.rows[i][k] * o.rows[k][j];
                }
                m.rows[i][j] = acc;
            }
        }
        m
    }
}

/// A 6-dimensional column vector (spatial quantity: angular on top,
/// linear below).
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec6;
/// let v = Vec6::from_array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// assert_eq!(v[0], 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec6 {
    data: [f64; 6],
}

impl Vec6 {
    /// The zero vector.
    pub const ZERO: Vec6 = Vec6 { data: [0.0; 6] };

    /// Creates a vector from its six components.
    pub const fn from_array(data: [f64; 6]) -> Self {
        Vec6 { data }
    }

    /// Builds from an angular (top) and linear (bottom) 3-vector.
    #[inline]
    pub fn from_parts(angular: Vec3, linear: Vec3) -> Self {
        Vec6::from_array([
            angular.x, angular.y, angular.z, linear.x, linear.y, linear.z,
        ])
    }

    /// The angular (top) part.
    #[inline]
    pub fn angular(self) -> Vec3 {
        Vec3::new(self.data[0], self.data[1], self.data[2])
    }

    /// The linear (bottom) part.
    #[inline]
    pub fn linear(self) -> Vec3 {
        Vec3::new(self.data[3], self.data[4], self.data[5])
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec6) -> f64 {
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Components as an array.
    #[inline]
    pub fn to_array(self) -> [f64; 6] {
        self.data
    }
}

impl From<[f64; 6]> for Vec6 {
    #[inline]
    fn from(a: [f64; 6]) -> Self {
        Vec6::from_array(a)
    }
}

impl Index<usize> for Vec6 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vec6 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for Vec6 {
    type Output = Vec6;
    #[inline]
    fn add(self, o: Vec6) -> Vec6 {
        let mut d = [0.0; 6];
        for i in 0..6 {
            d[i] = self.data[i] + o.data[i];
        }
        Vec6::from_array(d)
    }
}

impl AddAssign for Vec6 {
    #[inline]
    fn add_assign(&mut self, o: Vec6) {
        for i in 0..6 {
            self.data[i] += o.data[i];
        }
    }
}

impl Sub for Vec6 {
    type Output = Vec6;
    #[inline]
    fn sub(self, o: Vec6) -> Vec6 {
        let mut d = [0.0; 6];
        for i in 0..6 {
            d[i] = self.data[i] - o.data[i];
        }
        Vec6::from_array(d)
    }
}

impl SubAssign for Vec6 {
    #[inline]
    fn sub_assign(&mut self, o: Vec6) {
        for i in 0..6 {
            self.data[i] -= o.data[i];
        }
    }
}

impl Neg for Vec6 {
    type Output = Vec6;
    #[inline]
    fn neg(self) -> Vec6 {
        let mut d = self.data;
        for v in &mut d {
            *v = -*v;
        }
        Vec6::from_array(d)
    }
}

impl Mul<f64> for Vec6 {
    type Output = Vec6;
    #[inline]
    fn mul(self, s: f64) -> Vec6 {
        let mut d = self.data;
        for v in &mut d {
            *v *= s;
        }
        Vec6::from_array(d)
    }
}

/// A 6×6 matrix in row-major order (spatial transforms and inertias).
///
/// # Examples
///
/// ```
/// use roboshape_linalg::{Mat6, Vec6};
/// let m = Mat6::identity();
/// let v = Vec6::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(m * v, v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat6 {
    rows: [[f64; 6]; 6],
}

impl Default for Mat6 {
    #[inline]
    fn default() -> Self {
        Mat6::zero()
    }
}

impl Mat6 {
    /// The zero matrix.
    #[inline]
    pub fn zero() -> Mat6 {
        Mat6 {
            rows: [[0.0; 6]; 6],
        }
    }

    /// The identity matrix.
    #[inline]
    pub fn identity() -> Mat6 {
        let mut m = Mat6::zero();
        for i in 0..6 {
            m.rows[i][i] = 1.0;
        }
        m
    }

    /// Builds from the four 3×3 blocks:
    ///
    /// ```text
    /// [ tl  tr ]
    /// [ bl  br ]
    /// ```
    #[inline]
    pub fn from_blocks(tl: Mat3, tr: Mat3, bl: Mat3, br: Mat3) -> Mat6 {
        let mut m = Mat6::zero();
        for i in 0..3 {
            for j in 0..3 {
                m.rows[i][j] = tl.get(i, j);
                m.rows[i][j + 3] = tr.get(i, j);
                m.rows[i + 3][j] = bl.get(i, j);
                m.rows[i + 3][j + 3] = br.get(i, j);
            }
        }
        m
    }

    /// The top-left 3×3 block.
    #[inline]
    pub fn block_tl(&self) -> Mat3 {
        self.block(0, 0)
    }

    /// The top-right 3×3 block.
    #[inline]
    pub fn block_tr(&self) -> Mat3 {
        self.block(0, 3)
    }

    /// The bottom-left 3×3 block.
    #[inline]
    pub fn block_bl(&self) -> Mat3 {
        self.block(3, 0)
    }

    /// The bottom-right 3×3 block.
    #[inline]
    pub fn block_br(&self) -> Mat3 {
        self.block(3, 3)
    }

    #[inline]
    fn block(&self, r0: usize, c0: usize) -> Mat3 {
        let mut b = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                b.set(i, j, self.rows[r0 + i][c0 + j]);
            }
        }
        b
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.rows[r][c]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.rows[r][c] = v;
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(&self) -> Mat6 {
        let mut t = Mat6::zero();
        for i in 0..6 {
            for j in 0..6 {
                t.rows[j][i] = self.rows[i][j];
            }
        }
        t
    }

    /// Frobenius norm of `self - other`; used in tests.
    #[inline]
    pub fn distance(&self, other: &Mat6) -> f64 {
        let mut acc = 0.0;
        for i in 0..6 {
            for j in 0..6 {
                let d = self.rows[i][j] - other.rows[i][j];
                acc += d * d;
            }
        }
        acc.sqrt()
    }

    /// Count of entries with magnitude above `eps` (used by the robomorphic
    /// sparsity analyses of 6×6 joint/inertia matrices).
    #[inline]
    pub fn nnz(&self, eps: f64) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .filter(|v| v.abs() > eps)
            .count()
    }
}

impl Add for Mat6 {
    type Output = Mat6;
    #[inline]
    fn add(self, o: Mat6) -> Mat6 {
        let mut m = Mat6::zero();
        for i in 0..6 {
            for j in 0..6 {
                m.rows[i][j] = self.rows[i][j] + o.rows[i][j];
            }
        }
        m
    }
}

impl AddAssign for Mat6 {
    #[inline]
    fn add_assign(&mut self, o: Mat6) {
        for i in 0..6 {
            for j in 0..6 {
                self.rows[i][j] += o.rows[i][j];
            }
        }
    }
}

impl Sub for Mat6 {
    type Output = Mat6;
    #[inline]
    fn sub(self, o: Mat6) -> Mat6 {
        let mut m = Mat6::zero();
        for i in 0..6 {
            for j in 0..6 {
                m.rows[i][j] = self.rows[i][j] - o.rows[i][j];
            }
        }
        m
    }
}

impl Mul<f64> for Mat6 {
    type Output = Mat6;
    #[inline]
    fn mul(self, s: f64) -> Mat6 {
        let mut m = self;
        for i in 0..6 {
            for j in 0..6 {
                m.rows[i][j] *= s;
            }
        }
        m
    }
}

impl Mul<Vec6> for Mat6 {
    type Output = Vec6;
    #[inline]
    fn mul(self, v: Vec6) -> Vec6 {
        let mut out = [0.0; 6];
        for i in 0..6 {
            let mut acc = 0.0;
            for j in 0..6 {
                acc += self.rows[i][j] * v[j];
            }
            out[i] = acc;
        }
        Vec6::from_array(out)
    }
}

impl Mul for Mat6 {
    type Output = Mat6;
    #[inline]
    fn mul(self, o: Mat6) -> Mat6 {
        let mut m = Mat6::zero();
        for i in 0..6 {
            for j in 0..6 {
                let mut acc = 0.0;
                for k in 0..6 {
                    acc += self.rows[i][k] * o.rows[k][j];
                }
                m.rows[i][j] = acc;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_mat3() -> impl Strategy<Value = Mat3> {
        proptest::array::uniform3(proptest::array::uniform3(-10.0..10.0f64))
            .prop_map(Mat3::from_rows)
    }

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn cross_product_right_handed() {
        let c = Vec3::unit_x().cross(Vec3::unit_y());
        assert!((c - Vec3::unit_z()).norm() < 1e-15);
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
        let v = r * Vec3::unit_x();
        assert!((v - Vec3::unit_y()).norm() < 1e-12);
    }

    #[test]
    fn rotation_axis_matches_canonical_axes() {
        for angle in [0.3, -1.2, 2.7] {
            assert!(
                Mat3::rotation_axis(Vec3::unit_x(), angle).distance(&Mat3::rotation_x(angle))
                    < 1e-12
            );
            assert!(
                Mat3::rotation_axis(Vec3::unit_y(), angle).distance(&Mat3::rotation_y(angle))
                    < 1e-12
            );
            assert!(
                Mat3::rotation_axis(Vec3::unit_z(), angle).distance(&Mat3::rotation_z(angle))
                    < 1e-12
            );
        }
    }

    #[test]
    fn rpy_identity_at_zero() {
        assert!(Mat3::from_rpy(0.0, 0.0, 0.0).distance(&Mat3::identity()) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        Vec3::ZERO.normalized();
    }

    #[test]
    fn mat6_blocks_roundtrip() {
        let tl = Mat3::rotation_x(0.3);
        let tr = Mat3::diagonal(Vec3::new(1.0, 2.0, 3.0));
        let bl = Mat3::rotation_y(0.7);
        let br = Mat3::rotation_z(-0.2);
        let m = Mat6::from_blocks(tl, tr, bl, br);
        assert!(m.block_tl().distance(&tl) < 1e-15);
        assert!(m.block_tr().distance(&tr) < 1e-15);
        assert!(m.block_bl().distance(&bl) < 1e-15);
        assert!(m.block_br().distance(&br) < 1e-15);
    }

    #[test]
    fn mat6_identity_multiplication() {
        let v = Vec6::from_array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
        assert_eq!(Mat6::identity() * v, v);
        let m = Mat6::from_blocks(
            Mat3::rotation_x(1.0),
            Mat3::zero(),
            Mat3::rotation_y(2.0),
            Mat3::identity(),
        );
        assert!((m * Mat6::identity()).distance(&m) < 1e-15);
    }

    #[test]
    fn mat6_nnz_counts() {
        let mut m = Mat6::zero();
        assert_eq!(m.nnz(1e-12), 0);
        m.set(0, 0, 3.0);
        m.set(5, 5, -1.0);
        m.set(2, 4, 1e-15);
        assert_eq!(m.nnz(1e-12), 2);
    }

    proptest! {
        #[test]
        fn cross_is_antisymmetric(a in arb_vec3(), b in arb_vec3()) {
            let lhs = a.cross(b);
            let rhs = -(b.cross(a));
            prop_assert!((lhs - rhs).norm() < 1e-9);
        }

        #[test]
        fn cross_is_orthogonal(a in arb_vec3(), b in arb_vec3()) {
            let c = a.cross(b);
            prop_assert!(c.dot(a).abs() < 1e-7 * (1.0 + a.norm() * b.norm() * a.norm()));
            prop_assert!(c.dot(b).abs() < 1e-7 * (1.0 + a.norm() * b.norm() * b.norm()));
        }

        #[test]
        fn skew_matrix_applies_cross(a in arb_vec3(), b in arb_vec3()) {
            let via_matrix = a.skew() * b;
            prop_assert!((via_matrix - a.cross(b)).norm() < 1e-9);
        }

        #[test]
        fn mat3_transpose_involution(m in arb_mat3()) {
            prop_assert!(m.transpose().transpose().distance(&m) < 1e-12);
        }

        #[test]
        fn mat3_product_transpose(a in arb_mat3(), b in arb_mat3()) {
            let lhs = (a * b).transpose();
            let rhs = b.transpose() * a.transpose();
            prop_assert!(lhs.distance(&rhs) < 1e-9);
        }

        #[test]
        fn rpy_roundtrip(r in -1.5..1.5f64, p in -1.5..1.5f64, y in -3.1..3.1f64) {
            let m = Mat3::from_rpy(r, p, y);
            let [r2, p2, y2] = m.to_rpy();
            let m2 = Mat3::from_rpy(r2, p2, y2);
            prop_assert!(m.distance(&m2) < 1e-9);
        }

        #[test]
        fn rotations_are_orthonormal(axis in arb_vec3(), angle in -6.3..6.3f64) {
            prop_assume!(axis.norm() > 1e-6);
            let r = Mat3::rotation_axis(axis, angle);
            let should_be_identity = r * r.transpose();
            prop_assert!(should_be_identity.distance(&Mat3::identity()) < 1e-9);
        }
    }
}
