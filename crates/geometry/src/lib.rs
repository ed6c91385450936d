//! Geometry primitives for the Cooper cooperative-perception system.
//!
//! This crate implements the mathematical substrate that the Cooper paper
//! (Chen et al., ICDCS 2019) relies on for aligning point clouds collected
//! by different vehicles:
//!
//! * [`Vec3`] / [`Mat3`] — plain 3-D linear algebra.
//! * [`Mat3::rotation_z`], [`Mat3::rotation_y`], [`Mat3::rotation_x`] and
//!   [`Attitude::rotation_matrix`] — the paper's Equation 1,
//!   `R = Rz(α)·Ry(β)·Rx(γ)`.
//! * [`RigidTransform`] — the paper's Equation 3, `p' = R·p + Δd`.
//! * [`Obb3`] — oriented 3-D bounding boxes with bird's-eye-view and full
//!   3-D IoU, used to match detections against ground truth.
//! * [`GpsFix`] and [`enu_offset`] — GPS fixes and their conversion to the
//!   local east-north-up frame that vehicles fuse in.
//! * [`AngleBins`] and [`atan2_approx`] — equal-width angle bins, binned
//!   without `atan2` away from the bin edges.
//!
//! # Examples
//!
//! Align a point observed by a transmitting vehicle into a receiver's frame:
//!
//! ```
//! use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
//!
//! let transmitter = Pose::new(Vec3::new(10.0, 5.0, 0.0), Attitude::from_yaw(0.5));
//! let receiver = Pose::new(Vec3::ZERO, Attitude::level());
//! let align = RigidTransform::between(&transmitter, &receiver);
//!
//! // A point 2 m in front of the transmitter, expressed in its local frame.
//! let local = Vec3::new(2.0, 0.0, 0.0);
//! let in_receiver_frame = align.apply(local);
//! assert!((in_receiver_frame - Vec3::new(10.0 + 2.0 * 0.5f64.cos(),
//!                                        5.0 + 2.0 * 0.5f64.sin(),
//!                                        0.0)).norm() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod angle_bins;
mod angles;
mod boxes;
mod gps;
mod mat3;
mod pose;
mod vec3;

pub use angle_bins::{atan2_approx, AngleBins, ApproxBin, ATAN2_APPROX_ERROR};
pub use angles::{normalize_angle, Degrees, Radians};
pub use boxes::{Aabb3, Obb3};
pub use gps::{enu_offset, GpsFix, EARTH_RADIUS_M};
pub use mat3::Mat3;
pub use pose::{Attitude, Pose, RigidTransform};
pub use vec3::Vec3;

/// Numerical tolerance used by approximate comparisons throughout the
/// workspace (orthonormality checks, round-trip assertions, IoU clipping).
pub const EPSILON: f64 = 1e-9;
