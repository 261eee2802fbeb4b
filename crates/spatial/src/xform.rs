//! Plücker coordinate transforms between link frames.

use crate::{ForceVec, MotionVec};
use roboshape_linalg::{Mat3, Mat6, Vec3};

/// A Plücker transform `ᴮXᴬ` carrying motion vectors from frame `A` to
/// frame `B`.
///
/// Stored compactly as the rotation `E` (taking `A` coordinates to `B`
/// coordinates) and the position `r` of `B`'s origin expressed in `A`
/// coordinates, so that as a 6×6 matrix
///
/// ```text
/// X = [  E        0 ]
///     [ −E·r̂      E ]
/// ```
///
/// Force vectors transform with the inverse transpose; equivalently
/// `f_A = Xᵀ f_B`, which is what [`Xform::apply_force_transpose`] computes
/// (that is exactly the operation the RNEA backward pass needs).
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// use roboshape_spatial::{MotionVec, Xform};
///
/// // Frame B is 1 m along x from A, no rotation.
/// let x = Xform::from_translation(Vec3::unit_x());
/// // A pure rotation about z at A's origin is seen at B with a linear part
/// // (+y: the body-fixed point at B's origin moves in +y).
/// let v = x.apply_motion(MotionVec::from_parts(Vec3::unit_z(), Vec3::ZERO));
/// assert!((v.linear().y - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Xform {
    rot: Mat3,
    trans: Vec3,
}

impl Default for Xform {
    #[inline]
    fn default() -> Self {
        Xform::identity()
    }
}

impl Xform {
    /// The identity transform.
    #[inline]
    pub fn identity() -> Xform {
        Xform {
            rot: Mat3::identity(),
            trans: Vec3::ZERO,
        }
    }

    /// Builds from a rotation `E` (A → B coordinates) and the position `r`
    /// of B's origin in A coordinates.
    #[inline]
    pub fn new(rot: Mat3, trans: Vec3) -> Xform {
        Xform { rot, trans }
    }

    /// A pure translation: B's origin at `r` in A coordinates.
    #[inline]
    pub fn from_translation(trans: Vec3) -> Xform {
        Xform {
            rot: Mat3::identity(),
            trans,
        }
    }

    /// A pure rotation of the coordinate frame by `angle` about `axis`
    /// (B's basis is A's basis rotated by `angle`; coordinates transform
    /// with the transpose).
    #[inline]
    pub fn from_rotation(axis: Vec3, angle: f64) -> Xform {
        Xform {
            rot: Mat3::rotation_axis(axis, angle).transpose(),
            trans: Vec3::ZERO,
        }
    }

    /// URDF-style origin: frame B translated by `xyz` and rotated by
    /// (roll, pitch, yaw) relative to A.
    #[inline]
    pub fn from_origin(xyz: Vec3, rpy: [f64; 3]) -> Xform {
        Xform {
            rot: Mat3::from_rpy(rpy[0], rpy[1], rpy[2]).transpose(),
            trans: xyz,
        }
    }

    /// The rotation block `E` (A → B coordinates).
    #[inline]
    pub fn rotation(&self) -> Mat3 {
        self.rot
    }

    /// The position of B's origin in A coordinates.
    #[inline]
    pub fn translation(&self) -> Vec3 {
        self.trans
    }

    /// The full 6×6 Plücker matrix (motion-vector convention).
    #[inline]
    pub fn to_mat6(&self) -> Mat6 {
        let bl = (self.rot * self.trans.skew()) * -1.0;
        Mat6::from_blocks(self.rot, Mat3::zero(), bl, self.rot)
    }

    /// Transforms a motion vector from A to B coordinates.
    #[inline]
    pub fn apply_motion(&self, v: MotionVec) -> MotionVec {
        let w = v.angular();
        let l = v.linear();
        MotionVec::from_parts(self.rot * w, self.rot * (l - self.trans.cross(w)))
    }

    /// Transforms a force vector *back* from B to A coordinates
    /// (`f_A = Xᵀ f_B`); this is the operation used when accumulating child
    /// link forces onto the parent in the RNEA backward pass.
    #[inline]
    pub fn apply_force_transpose(&self, f: ForceVec) -> ForceVec {
        let rt = self.rot.transpose();
        let n = rt * f.angular();
        let l = rt * f.linear();
        ForceVec::from_parts(n + self.trans.cross(l), l)
    }

    /// Transforms a force vector from A to B coordinates
    /// (`f_B = X⁻ᵀ f_A`, i.e. the dual transform).
    #[inline]
    pub fn apply_force(&self, f: ForceVec) -> ForceVec {
        let n = f.angular();
        let l = f.linear();
        ForceVec::from_parts(self.rot * (n - self.trans.cross(l)), self.rot * l)
    }

    /// Maps a *point* given in A coordinates to B coordinates:
    /// `p_B = E·(p_A − r)` (points transform affinely, unlike motion
    /// vectors).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rot * (p - self.trans)
    }

    /// Maps a point given in B coordinates back to A coordinates.
    #[inline]
    pub fn transform_point_back(&self, p: Vec3) -> Vec3 {
        self.rot.transpose() * p + self.trans
    }

    /// Composition: `self ∘ other`, the transform that applies `other`
    /// first. If `other = ᴮXᴬ` and `self = ᶜXᴮ`, the result is `ᶜXᴬ`.
    #[inline]
    pub fn compose(&self, other: &Xform) -> Xform {
        Xform {
            rot: self.rot * other.rot,
            trans: other.trans + other.rot.transpose() * self.trans,
        }
    }

    /// The inverse transform `ᴬXᴮ`.
    #[inline]
    pub fn inverse(&self) -> Xform {
        Xform {
            rot: self.rot.transpose(),
            trans: -(self.rot * self.trans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_v3() -> impl Strategy<Value = Vec3> {
        (-3.0..3.0f64, -3.0..3.0f64, -3.0..3.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_xform() -> impl Strategy<Value = Xform> {
        let pi = std::f64::consts::PI;
        (arb_v3(), arb_v3(), -pi..pi).prop_filter_map("nonzero axis", |(axis, t, angle)| {
            if axis.norm() < 1e-3 {
                None
            } else {
                Some(Xform::from_rotation(axis, angle).compose(&Xform::from_translation(t)))
            }
        })
    }

    fn arb_motion() -> impl Strategy<Value = MotionVec> {
        (arb_v3(), arb_v3()).prop_map(|(a, l)| MotionVec::from_parts(a, l))
    }

    fn arb_force() -> impl Strategy<Value = ForceVec> {
        (arb_v3(), arb_v3()).prop_map(|(a, l)| ForceVec::from_parts(a, l))
    }

    #[test]
    fn identity_is_neutral() {
        let v = MotionVec::from_parts(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(Xform::identity().apply_motion(v), v);
    }

    #[test]
    fn translation_shifts_linear_velocity() {
        // A body spinning +z about A's origin: its body-fixed point at
        // (1,0,0) — B's origin — moves with velocity ω × r = +y, which is
        // exactly the linear part of the motion vector expressed at B.
        let x = Xform::from_translation(Vec3::unit_x());
        let v = x.apply_motion(MotionVec::from_parts(Vec3::unit_z(), Vec3::ZERO));
        assert!((v.linear() - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-12);
        assert!((v.angular() - Vec3::unit_z()).norm() < 1e-12);
    }

    #[test]
    fn from_origin_matches_rotation_and_translation() {
        let a = Xform::from_origin(Vec3::new(0.1, 0.2, 0.3), [0.0, 0.0, 1.2]);
        let b = Xform::from_rotation(Vec3::unit_z(), 1.2)
            .compose(&Xform::from_translation(Vec3::new(0.1, 0.2, 0.3)));
        assert!(a.to_mat6().distance(&b.to_mat6()) < 1e-12);
    }

    proptest! {
        #[test]
        fn point_transforms_roundtrip(x in arb_xform(), p in arb_v3()) {
            let roundtrip = x.transform_point_back(x.transform_point(p));
            prop_assert!((roundtrip - p).norm() < 1e-9);
            // B's origin maps to the zero point in B coordinates.
            prop_assert!(x.transform_point(x.translation()).norm() < 1e-9);
        }

        #[test]
        fn apply_motion_matches_mat6(x in arb_xform(), v in arb_motion()) {
            let direct = x.apply_motion(v);
            let via_matrix = MotionVec::from_vec6(x.to_mat6() * v.as_vec6());
            prop_assert!((direct - via_matrix).norm() < 1e-9);
        }

        #[test]
        fn apply_force_transpose_matches_mat6(x in arb_xform(), f in arb_force()) {
            let direct = x.apply_force_transpose(f);
            let via_matrix = ForceVec::from_vec6(x.to_mat6().transpose() * f.as_vec6());
            prop_assert!((direct - via_matrix).norm() < 1e-9);
        }

        #[test]
        fn compose_matches_matrix_product(a in arb_xform(), b in arb_xform()) {
            let composed = a.compose(&b).to_mat6();
            let product = a.to_mat6() * b.to_mat6();
            prop_assert!(composed.distance(&product) < 1e-8);
        }

        #[test]
        fn inverse_cancels(x in arb_xform(), v in arb_motion()) {
            let roundtrip = x.inverse().apply_motion(x.apply_motion(v));
            prop_assert!((roundtrip - v).norm() < 1e-9);
        }

        /// Power vᵀf is invariant: (X v)ᵀ (X⁻ᵀ f) = vᵀ f.
        #[test]
        fn power_invariance(x in arb_xform(), v in arb_motion(), f in arb_force()) {
            let lhs = x.apply_motion(v).dot_force(x.apply_force(f));
            let rhs = v.dot_force(f);
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }

        /// apply_force is the inverse of apply_force_transpose.
        #[test]
        fn force_transforms_are_inverse(x in arb_xform(), f in arb_force()) {
            let roundtrip = x.apply_force(x.apply_force_transpose(f));
            prop_assert!((roundtrip - f).norm() < 1e-9);
        }
    }
}
