//! The point-cloud container and the paper's Equation 2 merge.

use std::fmt;

use cooper_geometry::{Aabb3, Obb3, RigidTransform, Vec3};
use serde::{Deserialize, Serialize};

use crate::Point;

/// An owned collection of LiDAR returns.
///
/// Supports the two operations at the heart of Cooper:
///
/// * [`PointCloud::transformed`] / [`PointCloud::transform`] — apply the
///   alignment transform of Equation 3 to every point;
/// * [`PointCloud::merged`] / [`PointCloud::merge`] — the set union of
///   Equation 2, producing the cooperative cloud.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{Point, PointCloud};
///
/// let cloud: PointCloud = (0..10)
///     .map(|i| Point::new(Vec3::new(i as f64, 0.0, 0.0), 0.5))
///     .collect();
/// assert_eq!(cloud.len(), 10);
/// let near = cloud.filtered(|p| p.range() < 5.0);
/// assert_eq!(near.len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PointCloud {
    points: Vec<Point>,
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// Creates an empty cloud with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        PointCloud {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector of points.
    pub fn from_points(points: Vec<Point>) -> Self {
        PointCloud { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point.
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// Borrows the points as a slice.
    pub fn as_slice(&self) -> &[Point] {
        &self.points
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Applies a rigid transform to every point in place (Equation 3).
    pub fn transform(&mut self, t: &RigidTransform) {
        for p in &mut self.points {
            *p = p.transformed(t);
        }
    }

    /// Returns a transformed copy (Equation 3).
    pub fn transformed(&self, t: &RigidTransform) -> PointCloud {
        PointCloud {
            points: self.points.iter().map(|p| p.transformed(t)).collect(),
        }
    }

    /// Appends all points of `other` (the paper's Equation 2 set union,
    /// assuming `other` has already been aligned into this cloud's frame).
    pub fn merge(&mut self, other: &PointCloud) {
        self.points.extend_from_slice(&other.points);
    }

    /// Appends all points of `other` transformed by `t`: the fusion
    /// fast path, equivalent to `merge(&other.transformed(t))` without
    /// materialising the intermediate transformed copy.
    pub fn merge_transformed(&mut self, other: &PointCloud, t: &RigidTransform) {
        self.points.reserve(other.points.len());
        self.points
            .extend(other.points.iter().map(|p| p.transformed(t)));
    }

    /// Returns the union of this cloud and `other` as a new cloud.
    pub fn merged(&self, other: &PointCloud) -> PointCloud {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Returns the subset of points satisfying `keep`.
    pub fn filtered<F: FnMut(&Point) -> bool>(&self, mut keep: F) -> PointCloud {
        PointCloud {
            points: self.points.iter().copied().filter(|p| keep(p)).collect(),
        }
    }

    /// Retains only points satisfying `keep`, in place.
    pub fn retain<F: FnMut(&Point) -> bool>(&mut self, keep: F) {
        self.points.retain(keep);
    }

    /// The tight axis-aligned bounds of the cloud, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb3> {
        Aabb3::from_points(self.points.iter().map(|p| p.position))
    }

    /// Counts points inside an oriented box — the "point evidence" that
    /// detection confidence grows with.
    pub fn count_in_box(&self, obb: &Obb3) -> usize {
        self.points
            .iter()
            .filter(|p| obb.contains(p.position))
            .count()
    }

    /// Returns every `step`-th point — cheap uniform downsampling used to
    /// emulate lower-beam-count sensors and to bound wire payloads.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn downsampled(&self, step: usize) -> PointCloud {
        assert!(step > 0, "downsample step must be positive");
        PointCloud {
            points: self.points.iter().copied().step_by(step).collect(),
        }
    }

    /// The centroid of the cloud, or `None` when empty.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.points.is_empty() {
            return None;
        }
        let sum: Vec3 = self.points.iter().map(|p| p.position).sum();
        Some(sum / self.points.len() as f64)
    }
}

impl fmt::Display for PointCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point cloud ({} points)", self.len())
    }
}

impl FromIterator<Point> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<Point> for PointCloud {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

impl IntoIterator for PointCloud {
    type Item = Point;
    type IntoIter = std::vec::IntoIter<Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl From<Vec<Point>> for PointCloud {
    fn from(points: Vec<Point>) -> Self {
        PointCloud::from_points(points)
    }
}

impl AsRef<[Point]> for PointCloud {
    fn as_ref(&self) -> &[Point] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::{Attitude, Mat3, Pose};

    fn line_cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| Point::new(Vec3::new(i as f64, 0.0, 0.0), 0.5))
            .collect()
    }

    #[test]
    fn push_len_iter() {
        let mut c = PointCloud::new();
        assert!(c.is_empty());
        c.push(Point::new(Vec3::X, 0.1));
        c.push(Point::new(Vec3::Y, 0.2));
        assert_eq!(c.len(), 2);
        let xs: Vec<f64> = c.iter().map(|p| p.position.x).collect();
        assert_eq!(xs, vec![1.0, 0.0]);
    }

    #[test]
    fn merge_is_union() {
        let a = line_cloud(3);
        let b = line_cloud(2);
        let m = a.merged(&b);
        assert_eq!(m.len(), 5);
        // Merge does not deduplicate: raw fusion keeps all returns.
        let mut c = a.clone();
        c.merge(&b);
        assert_eq!(c, m);
    }

    #[test]
    fn transform_round_trip() {
        let cloud = line_cloud(10);
        let pose = Pose::new(Vec3::new(5.0, -1.0, 0.3), Attitude::new(0.4, 0.05, -0.02));
        let t = RigidTransform::from_pose(&pose);
        let back = cloud.transformed(&t).transformed(&t.inverse());
        for (p, q) in cloud.iter().zip(back.iter()) {
            assert!((p.position - q.position).norm() < 1e-9);
        }
    }

    #[test]
    fn merge_transformed_matches_transform_then_merge() {
        let local = line_cloud(4);
        let remote = line_cloud(7);
        let t = RigidTransform::new(Mat3::rotation_z(0.3), Vec3::new(1.0, 2.0, 3.0));
        let mut expected = local.clone();
        expected.merge(&remote.transformed(&t));
        let mut fused = local;
        fused.merge_transformed(&remote, &t);
        assert_eq!(fused, expected);
    }

    #[test]
    fn transform_in_place_matches_copy() {
        let cloud = line_cloud(5);
        let t = RigidTransform::new(Mat3::rotation_z(0.3), Vec3::new(1.0, 2.0, 3.0));
        let copy = cloud.transformed(&t);
        let mut inplace = cloud;
        inplace.transform(&t);
        assert_eq!(copy, inplace);
    }

    #[test]
    fn filtered_and_retain() {
        let c = line_cloud(10);
        let near = c.filtered(|p| p.position.x < 3.0);
        assert_eq!(near.len(), 3);
        let mut c2 = c;
        c2.retain(|p| p.position.x >= 3.0);
        assert_eq!(c2.len(), 7);
    }

    #[test]
    fn bounds_and_centroid() {
        assert!(PointCloud::new().bounds().is_none());
        assert!(PointCloud::new().centroid().is_none());
        let c = line_cloud(5); // x: 0..4
        let b = c.bounds().unwrap();
        assert_eq!(b.min(), Vec3::ZERO);
        assert_eq!(b.max(), Vec3::new(4.0, 0.0, 0.0));
        assert_eq!(c.centroid().unwrap(), Vec3::new(2.0, 0.0, 0.0));
    }

    #[test]
    fn count_in_box() {
        let c = line_cloud(10);
        let obb = Obb3::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 1.0), 0.0);
        // Covers x in [0.5, 3.5] -> points 1, 2, 3.
        assert_eq!(c.count_in_box(&obb), 3);
    }

    #[test]
    fn downsample() {
        let c = line_cloud(10);
        assert_eq!(c.downsampled(1).len(), 10);
        assert_eq!(c.downsampled(2).len(), 5);
        assert_eq!(c.downsampled(3).len(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn downsample_zero_panics() {
        let _ = line_cloud(3).downsampled(0);
    }

    #[test]
    fn collection_traits() {
        let mut c: PointCloud = vec![Point::new(Vec3::X, 0.5)].into();
        c.extend([Point::new(Vec3::Y, 0.6)]);
        assert_eq!(c.len(), 2);
        let total: usize = (&c).into_iter().count();
        assert_eq!(total, 2);
    }

    #[test]
    fn display_shows_count() {
        assert_eq!(format!("{}", line_cloud(3)), "point cloud (3 points)");
    }
}
