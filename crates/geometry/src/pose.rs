//! Vehicle poses and rigid transforms (the paper's Equations 1–3).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{normalize_angle, Mat3, Vec3};

/// A vehicle attitude: yaw `α`, pitch `β`, roll `γ`, in radians.
///
/// This is what the paper reads from the IMU: "it represents a rotation
/// whose yaw, pitch, and roll angles are α, β and γ" (§II-D). The
/// corresponding rotation matrix is Equation 1, `R = Rz(α)·Ry(β)·Rx(γ)`.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Attitude;
///
/// let att = Attitude::from_yaw(std::f64::consts::FRAC_PI_2);
/// assert!(att.rotation_matrix().is_rotation(1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Attitude {
    /// Yaw `α` about the z-axis, radians.
    pub yaw: f64,
    /// Pitch `β` about the y-axis, radians.
    pub pitch: f64,
    /// Roll `γ` about the x-axis, radians.
    pub roll: f64,
}

impl Attitude {
    /// Creates an attitude from yaw, pitch and roll (radians).
    pub const fn new(yaw: f64, pitch: f64, roll: f64) -> Self {
        Attitude { yaw, pitch, roll }
    }

    /// A level attitude (zero yaw, pitch and roll).
    pub const fn level() -> Self {
        Attitude::new(0.0, 0.0, 0.0)
    }

    /// A level attitude with the given yaw — the common case for ground
    /// vehicles on flat roads.
    pub const fn from_yaw(yaw: f64) -> Self {
        Attitude::new(yaw, 0.0, 0.0)
    }

    /// The paper's Equation 1: the rotation matrix `Rz(α)·Ry(β)·Rx(γ)`.
    pub fn rotation_matrix(&self) -> Mat3 {
        Mat3::from_yaw_pitch_roll(self.yaw, self.pitch, self.roll)
    }

    /// Component-wise difference `self - other`, each angle normalized to
    /// `(-π, π]`. The paper computes its alignment "using the IMU value
    /// difference between the transmitter and the receiver".
    pub fn difference(&self, other: &Attitude) -> Attitude {
        Attitude::new(
            normalize_angle(self.yaw - other.yaw),
            normalize_angle(self.pitch - other.pitch),
            normalize_angle(self.roll - other.roll),
        )
    }
}

impl fmt::Display for Attitude {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "yaw {:.3} pitch {:.3} roll {:.3}",
            self.yaw, self.pitch, self.roll
        )
    }
}

/// A full vehicle pose: position in the shared world frame plus attitude.
///
/// The position is what the paper derives from the GPS fix ("its GPS
/// reading, which determines the center point position of every frame of
/// point clouds"), the attitude from the IMU.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// Sensor-origin position in the world frame, metres.
    pub position: Vec3,
    /// Vehicle attitude.
    pub attitude: Attitude,
}

impl Pose {
    /// Creates a pose from a position and attitude.
    pub const fn new(position: Vec3, attitude: Attitude) -> Self {
        Pose { position, attitude }
    }

    /// A pose at the world origin with level attitude.
    pub const fn origin() -> Self {
        Pose::new(Vec3::ZERO, Attitude::level())
    }

    /// Transforms a point from this pose's local (sensor) frame into the
    /// world frame: `p_world = R · p_local + position` (Equation 3 with
    /// the world as the target frame).
    pub fn local_to_world(&self, local: Vec3) -> Vec3 {
        self.attitude.rotation_matrix() * local + self.position
    }

    /// Transforms a world-frame point into this pose's local frame
    /// (the inverse of [`Pose::local_to_world`]).
    pub fn world_to_local(&self, world: Vec3) -> Vec3 {
        self.attitude.rotation_matrix().transpose() * (world - self.position)
    }

    /// Planar distance (metres) between two poses — the `Δd` annotated on
    /// the paper's Figures 3 and 6.
    pub fn delta_d(&self, other: &Pose) -> f64 {
        self.position.distance_xy(other.position)
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pos {} | {}", self.position, self.attitude)
    }
}

/// A rigid transform `p' = R·p + t` — the paper's Equation 3.
///
/// [`RigidTransform::between`] builds the transform that maps points from a
/// transmitting vehicle's sensor frame into a receiving vehicle's sensor
/// frame, which is the core alignment step of cooperative perception.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
///
/// let tx = Pose::new(Vec3::new(5.0, 0.0, 0.0), Attitude::level());
/// let rx = Pose::origin();
/// let t = RigidTransform::between(&tx, &rx);
/// // The transmitter's origin lands 5 m ahead of the receiver.
/// assert!((t.apply(Vec3::ZERO) - Vec3::new(5.0, 0.0, 0.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RigidTransform {
    rotation: Mat3,
    translation: Vec3,
}

impl RigidTransform {
    /// The identity transform.
    pub const IDENTITY: RigidTransform = RigidTransform {
        rotation: Mat3::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Creates a transform from a rotation and a translation.
    ///
    /// The rotation is not validated here; use
    /// [`RigidTransform::try_new`] when the matrix comes from untrusted
    /// input (e.g. a decoded exchange packet).
    pub const fn new(rotation: Mat3, translation: Vec3) -> Self {
        RigidTransform {
            rotation,
            translation,
        }
    }

    /// Creates a transform, validating that `rotation` is a proper rotation
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns `None` when `rotation` is not orthonormal with determinant
    /// +1 (within [`crate::EPSILON`]·10³ — decoded matrices carry f32
    /// quantization error).
    pub fn try_new(rotation: Mat3, translation: Vec3) -> Option<Self> {
        if rotation.is_rotation(crate::EPSILON * 1e3) {
            Some(RigidTransform::new(rotation, translation))
        } else {
            None
        }
    }

    /// The rotation component.
    pub fn rotation(&self) -> Mat3 {
        self.rotation
    }

    /// The translation component.
    pub fn translation(&self) -> Vec3 {
        self.translation
    }

    /// Builds the transform that maps local points of `from` into the local
    /// frame of `to`, assuming both poses are expressed in a shared world
    /// frame.
    ///
    /// This composes the paper's Equations 1–3: rotate by the transmitter's
    /// IMU attitude, translate by the GPS offset `Δd`, then undo the
    /// receiver's attitude.
    pub fn between(from: &Pose, to: &Pose) -> RigidTransform {
        let r_from = from.attitude.rotation_matrix();
        let r_to_inv = to.attitude.rotation_matrix().transpose();
        let rotation = r_to_inv * r_from;
        let translation = r_to_inv * (from.position - to.position);
        RigidTransform::new(rotation, translation)
    }

    /// Builds the transform from a pose's local frame to the world frame.
    pub fn from_pose(pose: &Pose) -> RigidTransform {
        RigidTransform::new(pose.attitude.rotation_matrix(), pose.position)
    }

    /// Applies the transform to a point: `R·p + t`.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// The inverse transform.
    pub fn inverse(&self) -> RigidTransform {
        let r_inv = self.rotation.transpose();
        RigidTransform::new(r_inv, -(r_inv * self.translation))
    }

    /// Composes two transforms: the result applies `inner` first, then
    /// `self`.
    pub fn compose(&self, inner: &RigidTransform) -> RigidTransform {
        RigidTransform::new(
            self.rotation * inner.rotation,
            self.rotation * inner.translation + self.translation,
        )
    }
}

impl Default for RigidTransform {
    fn default() -> Self {
        RigidTransform::IDENTITY
    }
}

impl fmt::Display for RigidTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R={:?} t={}", self.rotation, self.translation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn assert_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn pose_local_world_round_trip() {
        let pose = Pose::new(Vec3::new(3.0, -2.0, 0.5), Attitude::new(1.2, 0.1, -0.05));
        let p = Vec3::new(10.0, 4.0, -1.0);
        assert_close(pose.world_to_local(pose.local_to_world(p)), p);
        assert_close(pose.local_to_world(pose.world_to_local(p)), p);
    }

    #[test]
    fn between_identity_for_same_pose() {
        let pose = Pose::new(Vec3::new(1.0, 2.0, 3.0), Attitude::new(0.4, 0.1, 0.2));
        let t = RigidTransform::between(&pose, &pose);
        let p = Vec3::new(5.0, 6.0, 7.0);
        assert_close(t.apply(p), p);
    }

    #[test]
    fn between_matches_via_world() {
        let tx = Pose::new(Vec3::new(12.0, -3.0, 0.0), Attitude::new(0.8, 0.02, -0.01));
        let rx = Pose::new(Vec3::new(-4.0, 9.0, 0.2), Attitude::new(-1.3, 0.0, 0.04));
        let t = RigidTransform::between(&tx, &rx);
        let p = Vec3::new(7.0, 1.0, 0.5);
        let expected = rx.world_to_local(tx.local_to_world(p));
        assert_close(t.apply(p), expected);
    }

    #[test]
    fn transform_inverse_round_trip() {
        let t = RigidTransform::new(
            Mat3::from_yaw_pitch_roll(0.5, -0.2, 0.9),
            Vec3::new(1.0, -2.0, 3.0),
        );
        let p = Vec3::new(-4.0, 5.0, 6.0);
        assert_close(t.inverse().apply(t.apply(p)), p);
        assert_close(t.apply(t.inverse().apply(p)), p);
    }

    #[test]
    fn compose_applies_inner_first() {
        let rot = RigidTransform::new(Mat3::rotation_z(FRAC_PI_2), Vec3::ZERO);
        let shift = RigidTransform::new(Mat3::IDENTITY, Vec3::new(1.0, 0.0, 0.0));
        // Shift then rotate: (1,0,0) -> (2,0,0) -> (0,2,0)
        let both = rot.compose(&shift);
        assert_close(both.apply(Vec3::X), Vec3::new(0.0, 2.0, 0.0));
        // Rotate then shift: (1,0,0) -> (0,1,0) -> (1,1,0)
        let other = shift.compose(&rot);
        assert_close(other.apply(Vec3::X), Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn try_new_rejects_non_rotation() {
        let bad = Mat3::from_rows([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(RigidTransform::try_new(bad, Vec3::ZERO).is_none());
        assert!(RigidTransform::try_new(Mat3::IDENTITY, Vec3::ZERO).is_some());
    }

    #[test]
    fn attitude_difference_normalizes() {
        let a = Attitude::from_yaw(3.0);
        let b = Attitude::from_yaw(-3.0);
        let d = a.difference(&b);
        // 6 radians wraps to 6 - 2π ≈ -0.283.
        assert!((d.yaw - (6.0 - 2.0 * std::f64::consts::PI)).abs() < 1e-12);
    }

    #[test]
    fn delta_d_is_planar() {
        let a = Pose::new(Vec3::new(0.0, 0.0, 10.0), Attitude::level());
        let b = Pose::new(Vec3::new(3.0, 4.0, -10.0), Attitude::level());
        assert!((a.delta_d(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_pose_matches_local_to_world() {
        let pose = Pose::new(Vec3::new(2.0, 3.0, 1.0), Attitude::new(0.3, -0.1, 0.2));
        let t = RigidTransform::from_pose(&pose);
        let p = Vec3::new(1.0, 1.0, 1.0);
        assert_close(t.apply(p), pose.local_to_world(p));
    }
}
