//! Joint models: motion subspaces and configuration-dependent transforms.

use crate::{MotionVec, Xform};
use roboshape_linalg::Vec3;

/// The kind of a robot joint.
///
/// The paper's robots use single-degree-of-freedom revolute joints, but the
/// robomorphic processing elements (and the URDF format) also cover
/// prismatic joints; fixed joints appear in URDF files and are fused away
/// during parsing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JointKind {
    /// Rotation about `axis` (unit vector in the joint frame).
    Revolute {
        /// Rotation axis, unit length.
        axis: Vec3,
    },
    /// Translation along `axis` (unit vector in the joint frame).
    Prismatic {
        /// Translation axis, unit length.
        axis: Vec3,
    },
    /// Rigid attachment (no degree of freedom).
    Fixed,
}

/// A single robot joint: its kind plus the fixed tree transform from the
/// parent link frame to the joint frame.
///
/// The total parent→child transform at configuration `q` is
/// `X(q) = XJ(q) ∘ Xtree` ([`Joint::child_xform`]).
///
/// # Examples
///
/// ```
/// use roboshape_linalg::Vec3;
/// use roboshape_spatial::{Joint, Xform};
///
/// let joint = Joint::revolute(Vec3::unit_z())
///     .with_tree_xform(Xform::from_translation(Vec3::new(0.0, 0.0, 0.3)));
/// let x = joint.child_xform(0.7);
/// assert!((x.translation().z - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Joint {
    kind: JointKind,
    tree_xform: Xform,
}

impl Joint {
    /// A revolute joint about `axis` with identity tree transform.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is numerically zero.
    pub fn revolute(axis: Vec3) -> Joint {
        Joint {
            kind: JointKind::Revolute {
                axis: axis.normalized(),
            },
            tree_xform: Xform::identity(),
        }
    }

    /// A prismatic joint along `axis` with identity tree transform.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is numerically zero.
    pub fn prismatic(axis: Vec3) -> Joint {
        Joint {
            kind: JointKind::Prismatic {
                axis: axis.normalized(),
            },
            tree_xform: Xform::identity(),
        }
    }

    /// A fixed joint with identity tree transform.
    pub fn fixed() -> Joint {
        Joint {
            kind: JointKind::Fixed,
            tree_xform: Xform::identity(),
        }
    }

    /// Returns the joint with the given fixed parent-frame → joint-frame
    /// transform.
    pub fn with_tree_xform(mut self, x: Xform) -> Joint {
        self.tree_xform = x;
        self
    }

    /// The joint kind.
    pub fn kind(&self) -> JointKind {
        self.kind
    }

    /// The fixed tree transform (parent link frame → joint frame).
    pub fn tree_xform(&self) -> Xform {
        self.tree_xform
    }

    /// Number of degrees of freedom (1 for revolute/prismatic, 0 for fixed).
    pub fn dof(&self) -> usize {
        match self.kind {
            JointKind::Fixed => 0,
            _ => 1,
        }
    }

    /// The motion subspace column `S` (in the child/joint frame): joint
    /// velocity `q̇` contributes `S·q̇` to the child link velocity.
    pub fn motion_subspace(&self) -> MotionVec {
        match self.kind {
            JointKind::Revolute { axis } => MotionVec::from_parts(axis, Vec3::ZERO),
            JointKind::Prismatic { axis } => MotionVec::from_parts(Vec3::ZERO, axis),
            JointKind::Fixed => MotionVec::ZERO,
        }
    }

    /// The configuration-dependent joint transform `XJ(q)` (joint frame at
    /// zero → joint frame at `q`).
    pub fn joint_xform(&self, q: f64) -> Xform {
        match self.kind {
            JointKind::Revolute { axis } => Xform::from_rotation(axis, q),
            JointKind::Prismatic { axis } => Xform::from_translation(axis * q),
            JointKind::Fixed => Xform::identity(),
        }
    }

    /// The full parent-link → child-link transform at configuration `q`:
    /// `X(q) = XJ(q) ∘ Xtree`.
    pub fn child_xform(&self, q: f64) -> Xform {
        self.joint_xform(q).compose(&self.tree_xform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross_motion;
    use proptest::prelude::*;

    #[test]
    fn dof_per_kind() {
        assert_eq!(Joint::revolute(Vec3::unit_z()).dof(), 1);
        assert_eq!(Joint::prismatic(Vec3::unit_x()).dof(), 1);
        assert_eq!(Joint::fixed().dof(), 0);
    }

    #[test]
    fn motion_subspace_revolute_is_angular() {
        let s = Joint::revolute(Vec3::unit_y()).motion_subspace();
        assert_eq!(s.angular(), Vec3::unit_y());
        assert_eq!(s.linear(), Vec3::ZERO);
    }

    #[test]
    fn motion_subspace_prismatic_is_linear() {
        let s = Joint::prismatic(Vec3::unit_y()).motion_subspace();
        assert_eq!(s.angular(), Vec3::ZERO);
        assert_eq!(s.linear(), Vec3::unit_y());
    }

    #[test]
    fn axis_is_normalized() {
        let j = Joint::revolute(Vec3::new(0.0, 0.0, 5.0));
        assert_eq!(j.motion_subspace().angular(), Vec3::unit_z());
    }

    #[test]
    fn joint_xform_at_zero_is_identity() {
        for j in [
            Joint::revolute(Vec3::unit_x()),
            Joint::prismatic(Vec3::unit_z()),
            Joint::fixed(),
        ] {
            let x = j.joint_xform(0.0);
            assert!(x.to_mat6().distance(&Xform::identity().to_mat6()) < 1e-12);
        }
    }

    #[test]
    fn child_xform_composes_tree() {
        let tree = Xform::from_translation(Vec3::new(1.0, 0.0, 0.0));
        let j = Joint::revolute(Vec3::unit_z()).with_tree_xform(tree);
        let x = j.child_xform(0.0);
        assert!((x.translation() - Vec3::unit_x()).norm() < 1e-12);
    }

    proptest! {
        /// The derivative identity the analytical gradients rely on
        /// (paper Alg. 3): d/dq [X(q)·u] = −S × (X(q)·u).
        #[test]
        fn xform_derivative_is_motion_cross(
            axis_pick in 0usize..6,
            q in -3.0..3.0f64,
            u_raw in proptest::array::uniform6(-3.0..3.0f64),
        ) {
            let axes = [Vec3::unit_x(), Vec3::unit_y(), Vec3::unit_z()];
            let joint = if axis_pick < 3 {
                Joint::revolute(axes[axis_pick])
            } else {
                Joint::prismatic(axes[axis_pick - 3])
            };
            let joint = joint.with_tree_xform(Xform::from_origin(
                Vec3::new(0.1, -0.2, 0.3),
                [0.2, -0.1, 0.4],
            ));
            let u = MotionVec::from_vec6(u_raw.into());
            let s = joint.motion_subspace();
            let h = 1e-6;
            let plus = joint.child_xform(q + h).apply_motion(u);
            let minus = joint.child_xform(q - h).apply_motion(u);
            let fd = (plus - minus) * (0.5 / h);
            let analytic = -cross_motion(s, joint.child_xform(q).apply_motion(u));
            prop_assert!((fd - analytic).norm() < 1e-5 * (1.0 + analytic.norm()));
        }
    }
}
