//! Sparse voxelization of point clouds.
//!
//! SPOD's first learned stage is a voxel feature extractor "well
//! demonstrated by VoxelNet" (§III-C). The grouping step here mirrors
//! VoxelNet's: partition the detection range into equally spaced voxels,
//! group points by voxel, and keep only non-empty voxels — the sparsity
//! that the sparse convolutional middle layers then exploit.

use std::fmt;

use cooper_geometry::{Aabb3, Vec3};
use serde::{Deserialize, Serialize};

use crate::{Point, PointCloud};

/// Integer coordinates of a voxel within a [`VoxelGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VoxelCoord {
    /// Voxel index along x.
    pub x: i32,
    /// Voxel index along y.
    pub y: i32,
    /// Voxel index along z.
    pub z: i32,
}

impl VoxelCoord {
    /// Creates a voxel coordinate.
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        VoxelCoord { x, y, z }
    }

    /// The 6 face-adjacent neighbour coordinates.
    pub fn face_neighbors(&self) -> [VoxelCoord; 6] {
        [
            VoxelCoord::new(self.x + 1, self.y, self.z),
            VoxelCoord::new(self.x - 1, self.y, self.z),
            VoxelCoord::new(self.x, self.y + 1, self.z),
            VoxelCoord::new(self.x, self.y - 1, self.z),
            VoxelCoord::new(self.x, self.y, self.z + 1),
            VoxelCoord::new(self.x, self.y, self.z - 1),
        ]
    }
}

impl fmt::Display for VoxelCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Configuration of a voxel grid: spatial extent and voxel size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoxelGridConfig {
    /// Spatial extent; points outside are dropped during voxelization.
    pub extent: Aabb3,
    /// Edge lengths of one voxel, metres (strictly positive).
    pub voxel_size: Vec3,
    /// Maximum number of raw points retained per voxel for feature
    /// encoding (VoxelNet's `T`); additional points still contribute to
    /// the aggregate statistics. `0` means keep none (aggregates only).
    pub max_points_per_voxel: usize,
}

impl VoxelGridConfig {
    /// A VoxelNet-style default: 70.4 m forward, ±40 m lateral, 4 m tall,
    /// 0.2 × 0.2 × 0.4 m voxels, up to 35 points kept per voxel.
    pub fn voxelnet_car() -> Self {
        VoxelGridConfig {
            extent: Aabb3::new(Vec3::new(0.0, -40.0, -3.0), Vec3::new(70.4, 40.0, 1.0)),
            voxel_size: Vec3::new(0.2, 0.2, 0.4),
            max_points_per_voxel: 35,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when any voxel dimension is non-positive or the
    /// extent is degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if self.voxel_size.x <= 0.0 || self.voxel_size.y <= 0.0 || self.voxel_size.z <= 0.0 {
            return Err(format!(
                "voxel size must be positive, got {}",
                self.voxel_size
            ));
        }
        let size = self.extent.size();
        if size.x <= 0.0 || size.y <= 0.0 || size.z <= 0.0 {
            return Err("voxel grid extent is degenerate".to_string());
        }
        Ok(())
    }

    /// Number of voxels along each axis.
    pub fn dimensions(&self) -> (usize, usize, usize) {
        let size = self.extent.size();
        (
            (size.x / self.voxel_size.x).ceil() as usize,
            (size.y / self.voxel_size.y).ceil() as usize,
            (size.z / self.voxel_size.z).ceil() as usize,
        )
    }

    /// Maps a position to its voxel coordinate, or `None` when outside the
    /// extent.
    pub fn coord_of(&self, position: Vec3) -> Option<VoxelCoord> {
        if !self.extent.contains(position) {
            return None;
        }
        let rel = position - self.extent.min();
        let (nx, ny, nz) = self.dimensions();
        let cx = ((rel.x / self.voxel_size.x) as i32).min(nx as i32 - 1);
        let cy = ((rel.y / self.voxel_size.y) as i32).min(ny as i32 - 1);
        let cz = ((rel.z / self.voxel_size.z) as i32).min(nz as i32 - 1);
        Some(VoxelCoord::new(cx, cy, cz))
    }

    /// The center position of a voxel.
    pub fn center_of(&self, coord: VoxelCoord) -> Vec3 {
        self.extent.min()
            + Vec3::new(
                (coord.x as f64 + 0.5) * self.voxel_size.x,
                (coord.y as f64 + 0.5) * self.voxel_size.y,
                (coord.z as f64 + 0.5) * self.voxel_size.z,
            )
    }
}

/// One occupied voxel: retained sample points plus aggregate statistics.
///
/// The aggregates (`count`, sums, minima/maxima) cover *every* point
/// that fell in the voxel and are insertion-order independent; only the
/// capped `samples` list depends on order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Voxel {
    /// Up to `max_points_per_voxel` raw points (in sensor-frame metres).
    pub samples: Vec<Point>,
    /// Total number of points that fell in this voxel (may exceed
    /// `samples.len()`).
    pub count: usize,
    /// Sum of point positions (for centroid computation).
    pub position_sum: Vec3,
    /// Sum of reflectance values.
    pub reflectance_sum: f64,
    /// Component-wise minimum over all points.
    pub min_position: Vec3,
    /// Component-wise maximum over all points.
    pub max_position: Vec3,
    /// Minimum horizontal sensor range over all points.
    pub min_range_xy: f64,
    /// Maximum horizontal sensor range over all points.
    pub max_range_xy: f64,
}

impl Default for Voxel {
    fn default() -> Self {
        Voxel {
            samples: Vec::new(),
            count: 0,
            position_sum: Vec3::ZERO,
            reflectance_sum: 0.0,
            min_position: Vec3::splat(f64::INFINITY),
            max_position: Vec3::splat(f64::NEG_INFINITY),
            min_range_xy: f64::INFINITY,
            max_range_xy: f64::NEG_INFINITY,
        }
    }
}

impl Voxel {
    /// Mean position of all points in the voxel.
    ///
    /// # Panics
    ///
    /// Panics if the voxel is empty (`count == 0`); occupied grids never
    /// store empty voxels.
    pub fn centroid(&self) -> Vec3 {
        assert!(self.count > 0, "empty voxel has no centroid");
        self.position_sum / self.count as f64
    }

    /// Mean reflectance of all points in the voxel.
    ///
    /// # Panics
    ///
    /// Panics if the voxel is empty.
    pub fn mean_reflectance(&self) -> f64 {
        assert!(self.count > 0, "empty voxel has no reflectance");
        self.reflectance_sum / self.count as f64
    }

    /// Accumulates one point into the voxel's samples and statistics.
    fn accumulate(&mut self, point: &Point, cap: usize) {
        if self.samples.len() < cap {
            self.samples.push(*point);
        }
        self.count += 1;
        self.position_sum += point.position;
        self.reflectance_sum += f64::from(point.reflectance);
        self.min_position = self.min_position.min(point.position);
        self.max_position = self.max_position.max(point.position);
        let range_xy = point.range_xy();
        self.min_range_xy = self.min_range_xy.min(range_xy);
        self.max_range_xy = self.max_range_xy.max(range_xy);
    }

    /// Merges another voxel's contents into this one. Samples from
    /// `other` are appended (up to `cap`); the aggregate statistics
    /// combine exactly.
    fn absorb(&mut self, other: Voxel, cap: usize) {
        for point in other.samples {
            if self.samples.len() >= cap {
                break;
            }
            self.samples.push(point);
        }
        self.count += other.count;
        self.position_sum += other.position_sum;
        self.reflectance_sum += other.reflectance_sum;
        self.min_position = self.min_position.min(other.min_position);
        self.max_position = self.max_position.max(other.max_position);
        self.min_range_xy = self.min_range_xy.min(other.min_range_xy);
        self.max_range_xy = self.max_range_xy.max(other.max_range_xy);
    }
}

/// Accumulates a run of points into sorted SoA voxel arrays.
///
/// `keys` is reusable scratch for the `(coordinate, point index)` sort
/// buffer. The stable sort groups points by voxel while preserving cloud
/// order within each voxel, so each voxel's accumulator sees exactly the
/// point sequence a per-point map insertion would have fed it — float
/// sums and the capped sample list come out identical, but without any
/// per-point tree-node traffic.
fn accumulate_sorted(
    points: &[Point],
    config: &VoxelGridConfig,
    keys: &mut Vec<(VoxelCoord, u32)>,
) -> (Vec<VoxelCoord>, Vec<Voxel>) {
    keys.clear();
    keys.reserve(points.len());
    for (i, point) in points.iter().enumerate() {
        if let Some(coord) = config.coord_of(point.position) {
            keys.push((coord, i as u32));
        }
    }
    keys.sort_by_key(|&(coord, _)| coord);

    let mut coords = Vec::new();
    let mut voxels: Vec<Voxel> = Vec::new();
    for &(coord, index) in keys.iter() {
        if coords.last() != Some(&coord) {
            coords.push(coord);
            voxels.push(Voxel::default());
        }
        let voxel = voxels.last_mut().expect("pushed above");
        voxel.accumulate(&points[index as usize], config.max_points_per_voxel);
    }
    (coords, voxels)
}

/// Merges two sorted SoA voxel runs, absorbing `other` into `base` where
/// coordinates collide. Both inputs are consumed; the result stays
/// sorted. Absorption order (base first, then other) matches the old
/// chunk-order map merge, so float accumulators are bit-identical.
fn merge_sorted(
    base: (Vec<VoxelCoord>, Vec<Voxel>),
    other: (Vec<VoxelCoord>, Vec<Voxel>),
    cap: usize,
) -> (Vec<VoxelCoord>, Vec<Voxel>) {
    let (a_coords, a_voxels) = base;
    let (b_coords, b_voxels) = other;
    if b_coords.is_empty() {
        return (a_coords, a_voxels);
    }
    if a_coords.is_empty() {
        return (b_coords, b_voxels);
    }
    let mut coords = Vec::with_capacity(a_coords.len() + b_coords.len());
    let mut voxels = Vec::with_capacity(a_voxels.len() + b_voxels.len());
    let mut a = a_coords.into_iter().zip(a_voxels).peekable();
    let mut b = b_coords.into_iter().zip(b_voxels).peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some((ca, _)), Some((cb, _))) => {
                if ca < cb {
                    let (c, v) = a.next().expect("peeked");
                    coords.push(c);
                    voxels.push(v);
                } else if cb < ca {
                    let (c, v) = b.next().expect("peeked");
                    coords.push(c);
                    voxels.push(v);
                } else {
                    let (c, mut v) = a.next().expect("peeked");
                    let (_, vb) = b.next().expect("peeked");
                    v.absorb(vb, cap);
                    coords.push(c);
                    voxels.push(v);
                }
            }
            (Some(_), None) => {
                let (c, v) = a.next().expect("peeked");
                coords.push(c);
                voxels.push(v);
            }
            (None, Some(_)) => {
                let (c, v) = b.next().expect("peeked");
                coords.push(c);
                voxels.push(v);
            }
            (None, None) => break,
        }
    }
    (coords, voxels)
}

/// A sparse voxel grid: only occupied voxels are stored.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{Point, PointCloud, VoxelGrid, VoxelGridConfig};
///
/// let cloud: PointCloud = (0..100)
///     .map(|i| Point::new(Vec3::new(10.0 + (i % 10) as f64 * 0.01, 0.0, 0.0), 0.5))
///     .collect();
/// let grid = VoxelGrid::from_cloud(&cloud, VoxelGridConfig::voxelnet_car());
/// assert_eq!(grid.occupied_count(), 1); // all points in one 0.2 m voxel
/// assert_eq!(grid.total_points(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoxelGrid {
    config: VoxelGridConfig,
    /// Occupied voxel coordinates in ascending order.
    coords: Vec<VoxelCoord>,
    /// Voxel payloads, parallel to `coords` (SoA layout: the hot
    /// downstream passes walk flat arrays instead of tree nodes).
    voxels: Vec<Voxel>,
}

impl VoxelGrid {
    /// Voxelizes a cloud sequentially. Points outside the configured
    /// extent are silently dropped (they are out of detection range).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`VoxelGridConfig::validate`].
    pub fn from_cloud(cloud: &PointCloud, config: VoxelGridConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid voxel grid config: {msg}");
        }
        let mut keys = Vec::new();
        let (coords, voxels) = accumulate_sorted(cloud.as_slice(), &config, &mut keys);
        VoxelGrid {
            config,
            coords,
            voxels,
        }
    }

    /// Voxelizes a cloud in fixed-size chunks mapped over `executor`,
    /// then merges the partial grids in chunk order.
    ///
    /// The chunk boundaries depend only on `chunk_size` — never on the
    /// executor's thread count — and partials merge in chunk order, so
    /// the result (including every floating-point accumulator) is
    /// **bit-identical at any thread count**. It may differ from
    /// [`VoxelGrid::from_cloud`] in the last bits of the float sums,
    /// because chunking changes how the sums are grouped; callers that
    /// need thread-invariant output should use one path consistently.
    ///
    /// # Examples
    ///
    /// ```
    /// use cooper_exec::Executor;
    /// use cooper_geometry::Vec3;
    /// use cooper_pointcloud::{Point, PointCloud, VoxelGrid, VoxelGridConfig};
    ///
    /// let config = VoxelGridConfig::voxelnet_car();
    /// let cloud: PointCloud = (0..100)
    ///     .map(|i| Point::new(Vec3::new(10.0 + (i % 10) as f64, 0.0, 0.0), 0.5))
    ///     .collect();
    /// // Four 32-point chunks, merged in chunk order at any width.
    /// let serial = VoxelGrid::from_cloud_chunked(&cloud, config, 32, &Executor::new(Some(1)));
    /// let parallel = VoxelGrid::from_cloud_chunked(&cloud, config, 32, &Executor::new(Some(4)));
    /// assert_eq!(serial, parallel);
    /// assert_eq!(serial.occupied_count(), 10);
    /// assert_eq!(serial.total_points(), 100);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`VoxelGridConfig::validate`] or
    /// `chunk_size` is zero.
    pub fn from_cloud_chunked(
        cloud: &PointCloud,
        config: VoxelGridConfig,
        chunk_size: usize,
        executor: &cooper_exec::Executor,
    ) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid voxel grid config: {msg}");
        }
        assert!(chunk_size > 0, "chunk size must be positive");
        let partials =
            executor.map_chunks_in(cloud.as_slice(), chunk_size, Vec::new, |_, points, keys| {
                accumulate_sorted(points, &config, keys)
            });
        let mut merged = (Vec::new(), Vec::new());
        for partial in partials {
            merged = merge_sorted(merged, partial, config.max_points_per_voxel);
        }
        let (coords, voxels) = merged;
        VoxelGrid {
            config,
            coords,
            voxels,
        }
    }

    /// The grid configuration.
    pub fn config(&self) -> &VoxelGridConfig {
        &self.config
    }

    /// Number of occupied voxels.
    pub fn occupied_count(&self) -> usize {
        self.voxels.len()
    }

    /// Total number of in-extent points that were voxelized.
    pub fn total_points(&self) -> usize {
        self.voxels.iter().map(|v| v.count).sum()
    }

    /// Looks up one voxel by binary search over the sorted coordinates.
    pub fn get(&self, coord: VoxelCoord) -> Option<&Voxel> {
        self.coords
            .binary_search(&coord)
            .ok()
            .map(|i| &self.voxels[i])
    }

    /// Iterates over `(coordinate, voxel)` pairs in ascending coordinate
    /// order. The fixed order keeps downstream feature encoding and
    /// float accumulations deterministic run to run.
    pub fn iter(&self) -> impl Iterator<Item = (&VoxelCoord, &Voxel)> {
        self.coords.iter().zip(self.voxels.iter())
    }

    /// The occupied voxel coordinates in ascending order. Parallel
    /// downstream stages index this slice directly (SoA access) instead
    /// of walking an iterator.
    pub fn coords(&self) -> &[VoxelCoord] {
        &self.coords
    }

    /// The voxel payloads, parallel to [`VoxelGrid::coords`].
    pub fn voxels(&self) -> &[Voxel] {
        &self.voxels
    }

    /// Occupancy ratio: occupied voxels over total voxels in the extent.
    /// LiDAR grids are typically far below 1 % occupied, which is the
    /// motivation for sparse convolutions (§III-C).
    pub fn occupancy(&self) -> f64 {
        let (nx, ny, nz) = self.config.dimensions();
        let total = (nx * ny * nz) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.voxels.len() as f64 / total
        }
    }
}

impl fmt::Display for VoxelGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (nx, ny, nz) = self.config.dimensions();
        write!(
            f,
            "voxel grid {}x{}x{} ({} occupied, {:.4}% occupancy)",
            nx,
            ny,
            nz,
            self.occupied_count(),
            self.occupancy() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> VoxelGridConfig {
        VoxelGridConfig {
            extent: Aabb3::new(Vec3::new(0.0, -10.0, -2.0), Vec3::new(20.0, 10.0, 2.0)),
            voxel_size: Vec3::new(1.0, 1.0, 1.0),
            max_points_per_voxel: 5,
        }
    }

    #[test]
    fn dimensions_and_validation() {
        let c = config();
        assert_eq!(c.dimensions(), (20, 20, 4));
        assert!(c.validate().is_ok());
        let mut bad = c;
        bad.voxel_size.x = 0.0;
        assert!(bad.validate().is_err());
        let degenerate = VoxelGridConfig {
            extent: Aabb3::new(Vec3::ZERO, Vec3::ZERO),
            ..c
        };
        assert!(degenerate.validate().is_err());
    }

    #[test]
    fn coord_mapping() {
        let c = config();
        assert_eq!(
            c.coord_of(Vec3::new(0.5, -9.5, -1.5)),
            Some(VoxelCoord::new(0, 0, 0))
        );
        assert_eq!(
            c.coord_of(Vec3::new(19.5, 9.5, 1.5)),
            Some(VoxelCoord::new(19, 19, 3))
        );
        // Boundary max maps to the last voxel, not one past it.
        assert_eq!(
            c.coord_of(Vec3::new(20.0, 10.0, 2.0)),
            Some(VoxelCoord::new(19, 19, 3))
        );
        assert_eq!(c.coord_of(Vec3::new(-0.1, 0.0, 0.0)), None);
        assert_eq!(c.coord_of(Vec3::new(25.0, 0.0, 0.0)), None);
    }

    #[test]
    fn center_round_trip() {
        let c = config();
        let coord = VoxelCoord::new(3, 7, 2);
        let center = c.center_of(coord);
        assert_eq!(c.coord_of(center), Some(coord));
    }

    #[test]
    fn voxelization_conserves_points() {
        let cloud: PointCloud = (0..1000)
            .map(|i| {
                let x = (i % 20) as f64 + 0.5;
                let y = ((i / 20) % 20) as f64 - 9.5;
                let z = ((i / 400) % 4) as f64 - 1.5;
                Point::new(Vec3::new(x, y, z), 0.5)
            })
            .collect();
        let grid = VoxelGrid::from_cloud(&cloud, config());
        assert_eq!(grid.total_points(), 1000);
    }

    #[test]
    fn out_of_extent_points_dropped() {
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(Vec3::new(5.0, 0.0, 0.0), 0.5));
        cloud.push(Point::new(Vec3::new(100.0, 0.0, 0.0), 0.5));
        let grid = VoxelGrid::from_cloud(&cloud, config());
        assert_eq!(grid.total_points(), 1);
        assert_eq!(grid.occupied_count(), 1);
    }

    #[test]
    fn sample_cap_respected_but_count_exact() {
        let cloud: PointCloud = (0..50)
            .map(|_| Point::new(Vec3::new(5.2, 0.3, 0.1), 0.4))
            .collect();
        let grid = VoxelGrid::from_cloud(&cloud, config());
        assert_eq!(grid.occupied_count(), 1);
        let (_, voxel) = grid.iter().next().unwrap();
        assert_eq!(voxel.samples.len(), 5);
        assert_eq!(voxel.count, 50);
        assert!((voxel.mean_reflectance() - 0.4).abs() < 1e-6);
        assert!((voxel.centroid() - Vec3::new(5.2, 0.3, 0.1)).norm() < 1e-9);
    }

    #[test]
    fn occupancy_fraction() {
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(Vec3::new(0.5, -9.5, -1.5), 0.5));
        let grid = VoxelGrid::from_cloud(&cloud, config());
        let expect = 1.0 / (20.0 * 20.0 * 4.0);
        assert!((grid.occupancy() - expect).abs() < 1e-12);
    }

    #[test]
    fn face_neighbors() {
        let c = VoxelCoord::new(0, 0, 0);
        let n = c.face_neighbors();
        assert_eq!(n.len(), 6);
        assert!(n.contains(&VoxelCoord::new(1, 0, 0)));
        assert!(n.contains(&VoxelCoord::new(0, 0, -1)));
    }

    #[test]
    #[should_panic(expected = "invalid voxel grid config")]
    fn invalid_config_panics() {
        let mut bad = config();
        bad.voxel_size.y = -1.0;
        let _ = VoxelGrid::from_cloud(&PointCloud::new(), bad);
    }

    #[test]
    #[should_panic(expected = "empty voxel")]
    fn empty_voxel_centroid_panics() {
        let v = Voxel::default();
        let _ = v.centroid();
    }

    #[test]
    fn chunked_matches_sequential_on_single_chunk() {
        let cloud: PointCloud = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 + 0.5;
                let y = ((i / 20) % 10) as f64 - 5.5;
                Point::new(Vec3::new(x, y, 0.25), 0.1 + (i % 7) as f32 * 0.1)
            })
            .collect();
        let executor = cooper_exec::Executor::sequential();
        let whole = VoxelGrid::from_cloud(&cloud, config());
        let chunked = VoxelGrid::from_cloud_chunked(&cloud, config(), cloud.len(), &executor);
        assert_eq!(whole, chunked);
    }

    #[test]
    fn chunked_is_thread_count_invariant() {
        let cloud: PointCloud = (0..3000)
            .map(|i| {
                let x = ((i * 7) % 200) as f64 * 0.1 + 0.05;
                let y = ((i * 13) % 200) as f64 * 0.1 - 10.0;
                let z = ((i * 3) % 40) as f64 * 0.1 - 2.0;
                Point::new(Vec3::new(x, y, z), (i % 11) as f32 * 0.09)
            })
            .collect();
        let serial = VoxelGrid::from_cloud_chunked(
            &cloud,
            config(),
            128,
            &cooper_exec::Executor::new(Some(1)),
        );
        let parallel = VoxelGrid::from_cloud_chunked(
            &cloud,
            config(),
            128,
            &cooper_exec::Executor::new(Some(4)),
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial.total_points(), cloud.len());
    }

    #[test]
    fn chunked_respects_sample_cap_in_cloud_order() {
        let cloud: PointCloud = (0..50)
            .map(|i| Point::new(Vec3::new(5.2, 0.3, 0.1), i as f32 * 0.01))
            .collect();
        let grid = VoxelGrid::from_cloud_chunked(
            &cloud,
            config(),
            10,
            &cooper_exec::Executor::new(Some(3)),
        );
        let (_, voxel) = grid.iter().next().unwrap();
        assert_eq!(voxel.count, 50);
        assert_eq!(voxel.samples.len(), 5);
        // The retained samples are the first five points in cloud order,
        // regardless of which worker voxelized which chunk.
        for (i, sample) in voxel.samples.iter().enumerate() {
            assert!((sample.reflectance - i as f32 * 0.01).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn chunked_rejects_zero_chunk() {
        let _ = VoxelGrid::from_cloud_chunked(
            &PointCloud::new(),
            config(),
            0,
            &cooper_exec::Executor::sequential(),
        );
    }

    #[test]
    fn voxelnet_default_is_valid() {
        assert!(VoxelGridConfig::voxelnet_car().validate().is_ok());
    }

    #[test]
    fn display_mentions_occupancy() {
        let grid = VoxelGrid::from_cloud(&PointCloud::new(), config());
        assert!(format!("{grid}").contains("occupancy"));
    }
}
