//! A single LiDAR return.

use std::fmt;

use cooper_geometry::{RigidTransform, Vec3};
use serde::{Deserialize, Serialize};

/// One LiDAR return: a cartesian position plus the surface reflectance.
///
/// This matches the paper's data choice exactly: "by only extracting
/// positional coordinates and reflection value, point clouds can be
/// compressed into 200 KB per scan" (§II-C). Reflectance is kept as `f32`
/// in `[0, 1]`; the wire codec quantizes it to one byte.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::Point;
///
/// let p = Point::new(Vec3::new(12.0, -3.0, 0.4), 0.35);
/// assert!((p.range() - p.position.norm()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Cartesian position in the sensor frame, metres.
    pub position: Vec3,
    /// Reflectance (intensity) in `[0, 1]`.
    pub reflectance: f32,
}

impl Point {
    /// Creates a point. Reflectance is clamped into `[0, 1]`.
    pub fn new(position: Vec3, reflectance: f32) -> Self {
        Point {
            position,
            reflectance: reflectance.clamp(0.0, 1.0),
        }
    }

    /// Euclidean distance from the sensor origin.
    #[inline]
    pub fn range(&self) -> f64 {
        self.position.norm()
    }

    /// Horizontal distance from the sensor origin.
    #[inline]
    pub fn range_xy(&self) -> f64 {
        self.position.range_xy()
    }

    /// Bitwise equality (`to_bits` on every float field).
    ///
    /// Stricter than `PartialEq`: `-0.0` and `0.0` differ, and a NaN
    /// matches a NaN of the same bits. Tests use it to check that two
    /// code paths produce the same points bit for bit.
    #[inline]
    pub fn bits_eq(&self, other: &Point) -> bool {
        self.position.x.to_bits() == other.position.x.to_bits()
            && self.position.y.to_bits() == other.position.y.to_bits()
            && self.position.z.to_bits() == other.position.z.to_bits()
            && self.reflectance.to_bits() == other.reflectance.to_bits()
    }

    /// Returns this point with its position mapped through `t`,
    /// preserving reflectance — one application of the paper's Equation 3.
    #[inline]
    pub fn transformed(&self, t: &RigidTransform) -> Point {
        Point {
            position: t.apply(self.position),
            reflectance: self.reflectance,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} r={:.2}", self.position, self.reflectance)
    }
}

impl From<(Vec3, f32)> for Point {
    fn from((position, reflectance): (Vec3, f32)) -> Self {
        Point::new(position, reflectance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::Mat3;

    #[test]
    fn reflectance_is_clamped() {
        assert_eq!(Point::new(Vec3::ZERO, 2.0).reflectance, 1.0);
        assert_eq!(Point::new(Vec3::ZERO, -0.5).reflectance, 0.0);
        assert_eq!(Point::new(Vec3::ZERO, 0.25).reflectance, 0.25);
    }

    #[test]
    fn ranges() {
        let p = Point::new(Vec3::new(3.0, 4.0, 12.0), 0.1);
        assert_eq!(p.range(), 13.0);
        assert_eq!(p.range_xy(), 5.0);
    }

    #[test]
    fn transform_preserves_reflectance() {
        let p = Point::new(Vec3::X, 0.42);
        let t = RigidTransform::new(
            Mat3::rotation_z(std::f64::consts::FRAC_PI_2),
            Vec3::new(0.0, 0.0, 1.0),
        );
        let q = p.transformed(&t);
        assert_eq!(q.reflectance, 0.42);
        assert!((q.position - Vec3::new(0.0, 1.0, 1.0)).norm() < 1e-12);
    }

    #[test]
    fn bits_eq_tells_apart_what_partial_eq_does_not() {
        let p = Point::new(Vec3::new(7.0, 0.0, -1.5), 0.6);
        assert!(p.bits_eq(&Point::new(Vec3::new(7.0, 0.0, -1.5), 0.6)));
        // `-0.0 == 0.0`, so only the bits tell these apart.
        let mut negative_zero = p;
        negative_zero.position.y = -0.0;
        assert_eq!(negative_zero, p);
        assert!(!negative_zero.bits_eq(&p));
        // One ulp of reflectance, and one of each coordinate.
        let mut dimmer = p;
        dimmer.reflectance = f32::from_bits(p.reflectance.to_bits() - 1);
        assert!(!dimmer.bits_eq(&p));
        for axis in 0..3 {
            let mut moved = p;
            let c = match axis {
                0 => &mut moved.position.x,
                1 => &mut moved.position.y,
                _ => &mut moved.position.z,
            };
            *c = f64::from_bits(c.to_bits() ^ 1);
            assert!(!moved.bits_eq(&p), "axis {axis}");
        }
        // A NaN is unequal to itself but bitwise equal.
        let nan = Point {
            position: Vec3::new(f64::NAN, 0.0, 0.0),
            reflectance: 0.5,
        };
        assert_ne!(nan, nan);
        assert!(nan.bits_eq(&nan));
    }

    #[test]
    fn conversion_from_tuple() {
        let p: Point = (Vec3::Y, 0.5f32).into();
        assert_eq!(p.position, Vec3::Y);
        assert_eq!(p.reflectance, 0.5);
    }
}
