//! Spatial motion and force vectors and their cross products.

use core::ops::{Add, AddAssign, Mul, Neg, Sub};
use roboshape_linalg::{Vec3, Vec6};

/// A spatial *motion* vector (velocity, acceleration, or motion subspace
/// column): angular part `ω` on top, linear part `v` below.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// use roboshape_spatial::MotionVec;
/// let v = MotionVec::from_parts(Vec3::unit_z(), Vec3::ZERO);
/// assert_eq!(v.angular(), Vec3::unit_z());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionVec(pub Vec6);

/// A spatial *force* vector (force/torque or momentum): moment `n` on top,
/// linear force `f` below.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// use roboshape_spatial::ForceVec;
/// let f = ForceVec::from_parts(Vec3::ZERO, Vec3::new(0.0, 0.0, -9.81));
/// assert_eq!(f.linear().z, -9.81);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ForceVec(pub Vec6);

macro_rules! spatial_vec_impl {
    ($t:ident) => {
        impl $t {
            /// The zero vector.
            pub const ZERO: $t = $t(Vec6::ZERO);

            /// Builds from angular (top) and linear (bottom) parts.
            #[inline]
            pub fn from_parts(angular: Vec3, linear: Vec3) -> $t {
                $t(Vec6::from_parts(angular, linear))
            }

            /// Builds from a raw 6-vector.
            #[inline]
            pub fn from_vec6(v: Vec6) -> $t {
                $t(v)
            }

            /// The angular (top) 3-vector.
            #[inline]
            pub fn angular(self) -> Vec3 {
                self.0.angular()
            }

            /// The linear (bottom) 3-vector.
            #[inline]
            pub fn linear(self) -> Vec3 {
                self.0.linear()
            }

            /// The underlying 6-vector.
            #[inline]
            pub fn as_vec6(self) -> Vec6 {
                self.0
            }

            /// Euclidean norm.
            #[inline]
            pub fn norm(self) -> f64 {
                self.0.norm()
            }
        }

        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, o: $t) -> $t {
                $t(self.0 + o.0)
            }
        }

        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, o: $t) {
                self.0 += o.0;
            }
        }

        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, o: $t) -> $t {
                $t(self.0 - o.0)
            }
        }

        impl Neg for $t {
            type Output = $t;
            #[inline]
            fn neg(self) -> $t {
                $t(-self.0)
            }
        }

        impl Mul<f64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, s: f64) -> $t {
                $t(self.0 * s)
            }
        }
    };
}

spatial_vec_impl!(MotionVec);
spatial_vec_impl!(ForceVec);

impl MotionVec {
    /// The scalar pairing `vᵀ f` (instantaneous power when `v` is a velocity
    /// and `f` a force). This pairing is invariant under frame changes.
    #[inline]
    pub fn dot_force(self, f: ForceVec) -> f64 {
        self.0.dot(f.0)
    }
}

/// Spatial motion cross product `v × m` (`crm(v)·m` in Featherstone's
/// notation): the rate of change of a motion vector `m` observed from a
/// frame moving with velocity `v`.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// use roboshape_spatial::{cross_motion, MotionVec};
/// let v = MotionVec::from_parts(Vec3::unit_z(), Vec3::ZERO);
/// let m = MotionVec::from_parts(Vec3::unit_x(), Vec3::ZERO);
/// let out = cross_motion(v, m);
/// assert!((out.angular() - Vec3::unit_y()).norm() < 1e-12);
/// ```
pub fn cross_motion(v: MotionVec, m: MotionVec) -> MotionVec {
    let w = v.angular();
    let vl = v.linear();
    MotionVec::from_parts(
        w.cross(m.angular()),
        vl.cross(m.angular()) + w.cross(m.linear()),
    )
}

/// Spatial force cross product `v ×* f` (`crf(v)·f = −crm(v)ᵀ·f`): the rate
/// of change of a force vector `f` observed from a frame moving with
/// velocity `v`.
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// use roboshape_spatial::{cross_force, ForceVec, MotionVec};
/// let v = MotionVec::from_parts(Vec3::unit_z(), Vec3::ZERO);
/// let f = ForceVec::from_parts(Vec3::ZERO, Vec3::unit_x());
/// let out = cross_force(v, f);
/// assert!((out.linear() - Vec3::unit_y()).norm() < 1e-12);
/// ```
pub fn cross_force(v: MotionVec, f: ForceVec) -> ForceVec {
    let w = v.angular();
    let vl = v.linear();
    ForceVec::from_parts(
        w.cross(f.angular()) + vl.cross(f.linear()),
        w.cross(f.linear()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_v3() -> impl Strategy<Value = Vec3> {
        (-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_motion() -> impl Strategy<Value = MotionVec> {
        (arb_v3(), arb_v3()).prop_map(|(a, l)| MotionVec::from_parts(a, l))
    }

    fn arb_force() -> impl Strategy<Value = ForceVec> {
        (arb_v3(), arb_v3()).prop_map(|(a, l)| ForceVec::from_parts(a, l))
    }

    #[test]
    fn parts_roundtrip() {
        let m = MotionVec::from_parts(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.angular(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.linear(), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.as_vec6().to_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = MotionVec::from_parts(Vec3::unit_x(), Vec3::unit_y());
        let b = MotionVec::from_parts(Vec3::unit_y(), Vec3::unit_x());
        assert_eq!((a + b).angular(), Vec3::new(1.0, 1.0, 0.0));
        assert_eq!((a - b).linear(), Vec3::new(-1.0, 1.0, 0.0));
        assert_eq!((a * 2.0).angular(), Vec3::new(2.0, 0.0, 0.0));
        assert_eq!((-a).angular(), Vec3::new(-1.0, 0.0, 0.0));
    }

    #[test]
    fn cross_motion_on_self_is_zero() {
        let v = MotionVec::from_parts(Vec3::new(1.0, -2.0, 0.5), Vec3::new(0.3, 0.1, -4.0));
        assert!(cross_motion(v, v).norm() < 1e-12);
    }

    proptest! {
        #[test]
        fn cross_motion_antisymmetric(a in arb_motion(), b in arb_motion()) {
            let lhs = cross_motion(a, b);
            let rhs = -cross_motion(b, a);
            prop_assert!((lhs - rhs).norm() < 1e-9);
        }

        /// crf(v) = −crm(v)ᵀ, expressed as an inner-product identity:
        /// (v × m)ᵀ f = −mᵀ (v ×* f).
        #[test]
        fn crf_is_negative_transpose_of_crm(v in arb_motion(), m in arb_motion(), f in arb_force()) {
            let lhs = cross_motion(v, m).dot_force(f);
            let rhs = -m.dot_force(cross_force(v, f));
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }

        /// Jacobi-like identity: v × (u × m) − u × (v × m) = (v × u) × m.
        #[test]
        fn crm_bracket_identity(v in arb_motion(), u in arb_motion(), m in arb_motion()) {
            let lhs = cross_motion(v, cross_motion(u, m)) - cross_motion(u, cross_motion(v, m));
            let rhs = cross_motion(cross_motion(v, u), m);
            prop_assert!((lhs - rhs).norm() < 1e-7);
        }
    }
}
