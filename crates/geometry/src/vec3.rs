//! Three-dimensional vectors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A 3-D vector with `f64` components.
///
/// Used throughout the workspace for point positions, translations and
/// directions. The LiDAR convention follows the paper (and KITTI): `x`
/// forward, `y` left, `z` up, in metres.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
///
/// let forward = Vec3::new(1.0, 0.0, 0.0);
/// let left = Vec3::new(0.0, 1.0, 0.0);
/// assert_eq!(forward.cross(left), Vec3::new(0.0, 0.0, 1.0));
/// assert_eq!(forward.dot(left), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// Forward component (metres).
    pub x: f64,
    /// Left component (metres).
    pub y: f64,
    /// Up component (metres).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along `x` (vehicle forward).
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along `y` (vehicle left).
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along `z` (up).
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product (right-handed).
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

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (bird's-eye-view) distance, ignoring `z`.
    #[inline]
    pub fn distance_xy(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns the unit vector pointing the same way, or `None` for a
    /// (near-)zero vector.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < crate::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Horizontal range from the origin (distance in the `xy` plane).
    #[inline]
    pub fn range_xy(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Azimuth angle in the `xy` plane, radians in `(-π, π]`, measured from
    /// `+x` towards `+y`.
    #[inline]
    pub fn azimuth(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Elevation angle above the `xy` plane, radians in `[-π/2, π/2]`.
    #[inline]
    pub fn elevation(self) -> f64 {
        self.z.atan2(self.range_xy())
    }

    /// `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Returns this vector as a `[x, y, z]` array.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if `index >= 3`.
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of bounds: {index}"),
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn assign_ops() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::X;
        v -= Vec3::Y;
        v *= 3.0;
        v /= 2.0;
        assert_eq!(v, Vec3::new(3.0, 0.0, 1.5));
    }

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
        // Anti-commutative.
        assert_eq!(Vec3::Y.cross(Vec3::X), -Vec3::Z);
    }

    #[test]
    fn norms_and_distances() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.distance(Vec3::ZERO), 5.0);
        assert_eq!(Vec3::new(3.0, 4.0, 7.0).distance_xy(Vec3::ZERO), 5.0);
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Vec3::ZERO.normalized().is_none());
        let n = Vec3::new(0.0, 0.0, 2.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert_eq!(n, Vec3::Z);
    }

    #[test]
    fn spherical_angles() {
        let v = Vec3::new(1.0, 1.0, 0.0);
        assert!((v.azimuth() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        let up45 = Vec3::new(1.0, 0.0, 1.0);
        assert!((up45.elevation() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(3.0, 2.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, 0.0));
    }

    #[test]
    fn indexing_and_conversion() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
        let arr: [f64; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn sum_of_vectors() {
        let total: Vec3 = [Vec3::X, Vec3::Y, Vec3::Z].into_iter().sum();
        assert_eq!(total, Vec3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
    }
}
