//! Spatial (6×6) rigid-body inertia.

use crate::{ForceVec, MotionVec};
use roboshape_linalg::{Mat3, Mat6, Vec3};

/// The spatial inertia of a rigid link, expressed at the link frame origin.
///
/// Stored compactly as `(m, h, I)` where `m` is the mass, `h = m·c` the
/// first moment of mass (`c` = centre of mass in link coordinates) and `I`
/// the 3×3 rotational inertia about the link frame origin. As a 6×6 matrix:
///
/// ```text
/// I = [ I    ĥ  ]
///     [ ĥᵀ   m·1 ]
/// ```
///
/// # Examples
///
/// ```
/// use roboshape_linalg::{Mat3, Vec3};
/// use roboshape_spatial::{MotionVec, SpatialInertia};
///
/// // A 2 kg point mass 0.5 m along x.
/// let inertia = SpatialInertia::from_mass_com_inertia(
///     2.0,
///     Vec3::new(0.5, 0.0, 0.0),
///     Mat3::zero(),
/// );
/// // Pure linear acceleration along x costs m·a of force.
/// let f = inertia.apply(MotionVec::from_parts(Vec3::ZERO, Vec3::unit_x()));
/// assert!((f.linear().x - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialInertia {
    mass: f64,
    h: Vec3,
    i_origin: Mat3,
}

impl SpatialInertia {
    /// The zero inertia (massless link).
    #[inline]
    pub fn zero() -> SpatialInertia {
        SpatialInertia {
            mass: 0.0,
            h: Vec3::ZERO,
            i_origin: Mat3::zero(),
        }
    }

    /// Builds from mass, centre-of-mass position `c` (link coordinates) and
    /// the rotational inertia about the *centre of mass*. The stored
    /// rotational inertia is shifted to the frame origin with the parallel
    /// axis theorem: `I_o = I_c + m·ĉ·ĉᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is negative.
    #[inline]
    pub fn from_mass_com_inertia(mass: f64, com: Vec3, inertia_com: Mat3) -> SpatialInertia {
        assert!(mass >= 0.0, "mass must be non-negative");
        let c_skew = com.skew();
        let shift = (c_skew * c_skew.transpose()) * mass;
        SpatialInertia {
            mass,
            h: com * mass,
            i_origin: inertia_com + shift,
        }
    }

    /// A solid-sphere-like link used in tests and synthetic robots:
    /// mass `m` at `com`, isotropic rotational inertia `i` about the CoM.
    #[inline]
    pub fn point_like(mass: f64, com: Vec3, i: f64) -> SpatialInertia {
        SpatialInertia::from_mass_com_inertia(mass, com, Mat3::diagonal(Vec3::new(i, i, i)))
    }

    /// Link mass.
    #[inline]
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// First moment of mass `h = m·c`.
    #[inline]
    pub fn first_moment(&self) -> Vec3 {
        self.h
    }

    /// Centre of mass, when the link has mass.
    #[inline]
    pub fn com(&self) -> Option<Vec3> {
        if self.mass > 0.0 {
            Some(self.h * (1.0 / self.mass))
        } else {
            None
        }
    }

    /// Rotational inertia about the link frame origin.
    #[inline]
    pub fn rotational(&self) -> Mat3 {
        self.i_origin
    }

    /// Rotational inertia about the centre of mass (inverse of the parallel
    /// axis shift applied at construction): `I_c = I_o − m·ĉ·ĉᵀ`. Returns
    /// the origin inertia unchanged for massless links.
    #[inline]
    pub fn rotational_about_com(&self) -> Mat3 {
        match self.com() {
            Some(c) => {
                let cs = c.skew();
                self.i_origin - (cs * cs.transpose()) * self.mass
            }
            None => self.i_origin,
        }
    }

    /// The full 6×6 spatial inertia matrix.
    #[inline]
    pub fn to_mat6(&self) -> Mat6 {
        let h_skew = self.h.skew();
        Mat6::from_blocks(
            self.i_origin,
            h_skew,
            h_skew.transpose(),
            Mat3::identity() * self.mass,
        )
    }

    /// Applies the inertia to a motion vector: `f = I·v` (momentum from
    /// velocity, or the `I·a` term of the Newton–Euler equation).
    #[inline]
    pub fn apply(&self, v: MotionVec) -> ForceVec {
        let w = v.angular();
        let l = v.linear();
        ForceVec::from_parts(
            self.i_origin * w + self.h.cross(l),
            l * self.mass - self.h.cross(w),
        )
    }

    /// Sum of two inertias expressed in the same frame (composite bodies —
    /// the CRBA accumulation step).
    #[inline]
    pub fn add(&self, other: &SpatialInertia) -> SpatialInertia {
        SpatialInertia {
            mass: self.mass + other.mass,
            h: self.h + other.h,
            i_origin: self.i_origin + other.i_origin,
        }
    }

    /// Transforms the inertia from frame A into frame B given `x = ᴮXᴬ`:
    /// `I_B = X⁻ᵀ I_A X⁻¹` (used when accumulating composite inertias up
    /// the tree in the CRBA).
    #[inline]
    pub fn transform(&self, x: &crate::Xform) -> SpatialInertia {
        // Work with explicit blocks: E (rotation A→B), r (B origin in A).
        let e = x.rotation();
        let r = x.translation();
        // New mass is invariant; the CoM position maps as c_B = E (c_A − r).
        let mass = self.mass;
        let h_b = e * (self.h - r * mass);
        // Rotational inertia about the new origin, derived from the block
        // expansion of X⁻ᵀ I X⁻¹ (verified against that congruence in the
        // tests): shift within A coordinates, then rotate:
        //   I_shifted = I_A + m·r̂·r̂ᵀ + ĥ·r̂ + r̂·ĥ
        let r_skew = r.skew();
        let h_skew = self.h.skew();
        let shifted = self.i_origin
            + (r_skew * r_skew.transpose()) * mass
            + (h_skew * r_skew)
            + (r_skew * h_skew);
        let i_b = e * shifted * e.transpose();
        SpatialInertia {
            mass,
            h: h_b,
            i_origin: i_b,
        }
    }

    /// Kinetic energy `½ vᵀ I v` of a body moving with velocity `v`.
    #[inline]
    pub fn kinetic_energy(&self, v: MotionVec) -> f64 {
        0.5 * v.dot_force(self.apply(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xform;
    use proptest::prelude::*;

    fn arb_v3(r: f64) -> impl Strategy<Value = Vec3> {
        (-r..r, -r..r, -r..r).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_inertia() -> impl Strategy<Value = SpatialInertia> {
        (0.1..10.0f64, arb_v3(1.0), 0.01..2.0f64)
            .prop_map(|(m, c, i)| SpatialInertia::point_like(m, c, i))
    }

    fn arb_xform() -> impl Strategy<Value = Xform> {
        (arb_v3(1.0), arb_v3(2.0), -3.0..3.0f64).prop_filter_map("axis", |(axis, t, a)| {
            if axis.norm() < 1e-3 {
                None
            } else {
                Some(Xform::from_rotation(axis, a).compose(&Xform::from_translation(t)))
            }
        })
    }

    fn arb_motion() -> impl Strategy<Value = MotionVec> {
        (arb_v3(3.0), arb_v3(3.0)).prop_map(|(a, l)| MotionVec::from_parts(a, l))
    }

    #[test]
    fn point_mass_momentum() {
        let inertia = SpatialInertia::from_mass_com_inertia(3.0, Vec3::ZERO, Mat3::zero());
        let f = inertia.apply(MotionVec::from_parts(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)));
        assert!((f.linear() - Vec3::new(6.0, 0.0, 0.0)).norm() < 1e-12);
        assert!(f.angular().norm() < 1e-12);
    }

    #[test]
    fn com_roundtrip() {
        let c = Vec3::new(0.1, -0.2, 0.3);
        let inertia = SpatialInertia::point_like(2.5, c, 0.2);
        assert!((inertia.com().unwrap() - c).norm() < 1e-12);
        assert!(SpatialInertia::zero().com().is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mass_panics() {
        SpatialInertia::from_mass_com_inertia(-1.0, Vec3::ZERO, Mat3::zero());
    }

    #[test]
    fn parallel_axis_offset_increases_inertia() {
        let at_origin = SpatialInertia::point_like(1.0, Vec3::ZERO, 0.0);
        let offset = SpatialInertia::point_like(1.0, Vec3::unit_x(), 0.0);
        // Rotation about z: off-origin point mass resists more.
        let spin = MotionVec::from_parts(Vec3::unit_z(), Vec3::ZERO);
        assert!(offset.kinetic_energy(spin) > at_origin.kinetic_energy(spin) + 0.4);
    }

    proptest! {
        #[test]
        fn apply_matches_mat6(inertia in arb_inertia(), v in arb_motion()) {
            let direct = inertia.apply(v);
            let via_matrix = ForceVec::from_vec6(inertia.to_mat6() * v.as_vec6());
            prop_assert!((direct - via_matrix).norm() < 1e-9);
        }

        #[test]
        fn inertia_matrix_is_symmetric(inertia in arb_inertia()) {
            let m = inertia.to_mat6();
            prop_assert!(m.distance(&m.transpose()) < 1e-9);
        }

        #[test]
        fn kinetic_energy_nonnegative(inertia in arb_inertia(), v in arb_motion()) {
            prop_assert!(inertia.kinetic_energy(v) >= -1e-9);
        }

        /// I_B = X⁻ᵀ I_A X⁻¹ as a matrix congruence.
        #[test]
        fn transform_matches_congruence(inertia in arb_inertia(), x in arb_xform()) {
            let direct = inertia.transform(&x).to_mat6();
            let xinv = x.inverse().to_mat6();
            let via_matrix = xinv.transpose() * inertia.to_mat6() * xinv;
            prop_assert!(direct.distance(&via_matrix) < 1e-7);
        }

        /// Kinetic energy is frame-invariant.
        #[test]
        fn energy_invariance(inertia in arb_inertia(), x in arb_xform(), v in arb_motion()) {
            let e_a = inertia.kinetic_energy(v);
            let e_b = inertia.transform(&x).kinetic_energy(x.apply_motion(v));
            prop_assert!((e_a - e_b).abs() < 1e-6 * (1.0 + e_a.abs()));
        }

        #[test]
        fn add_is_linear_in_apply(a in arb_inertia(), b in arb_inertia(), v in arb_motion()) {
            let lhs = a.add(&b).apply(v);
            let rhs = a.apply(v) + b.apply(v);
            prop_assert!((lhs - rhs).norm() < 1e-9);
        }
    }
}
