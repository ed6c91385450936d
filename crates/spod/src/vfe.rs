//! Voxel feature encoding (VFE) — SPOD's first learned stage.
//!
//! "In voxel feature extractor components, our framework takes
//! represented point clouds as input, feeding extract\[ed\] voxel-wise
//! features to \[a\] voxel feature encoding layer, this is well
//! demonstrated by VoxelNet" (§III-C). Each occupied voxel is summarized
//! by a hand-specified statistics vector (the analogue of VoxelNet's
//! per-point augmented inputs) and embedded through a linear + ReLU
//! layer into the channel space consumed by the sparse convolutional
//! middle layers.

use cooper_exec::Executor;
use cooper_pointcloud::{Voxel, VoxelGrid};
use serde::{Deserialize, Serialize};

use crate::nn::{relu_in_place, Linear};
use crate::tensor::SparseTensor3;

/// Number of raw statistics computed per voxel before embedding.
pub const RAW_FEATURES: usize = 9;

/// Voxels per parallel chunk in [`VoxelFeatureEncoder::encode_with`].
/// Fixed boundaries keep the output layout independent of thread count.
const VFE_CHUNK_VOXELS: usize = 2048;

/// The voxel feature encoder: raw voxel statistics → embedded channels.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{Point, PointCloud, VoxelGrid, VoxelGridConfig};
/// use cooper_spod::vfe::VoxelFeatureEncoder;
///
/// let cloud: PointCloud = (0..30)
///     .map(|i| Point::new(Vec3::new(10.0 + 0.01 * i as f64, 0.0, 0.0), 0.5))
///     .collect();
/// let grid = VoxelGrid::from_cloud(&cloud, VoxelGridConfig::voxelnet_car());
/// let encoder = VoxelFeatureEncoder::seeded(8, 1);
/// let tensor = encoder.encode(&grid);
/// assert_eq!(tensor.active_sites(), grid.occupied_count());
/// assert_eq!(tensor.channels(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoxelFeatureEncoder {
    embed: Linear,
}

impl VoxelFeatureEncoder {
    /// Creates an encoder with `channels` output channels and
    /// deterministic seeded weights.
    pub fn seeded(channels: usize, seed: u64) -> Self {
        VoxelFeatureEncoder {
            embed: Linear::seeded(RAW_FEATURES, channels, seed),
        }
    }

    /// Output channel count.
    pub fn channels(&self) -> usize {
        self.embed.out_dim()
    }

    /// The embedding layer (weight-file persistence).
    pub fn layer(&self) -> &Linear {
        &self.embed
    }

    /// Reconstructs an encoder from a loaded layer.
    ///
    /// # Panics
    ///
    /// Panics when the layer's input dimension is not [`RAW_FEATURES`].
    pub fn from_layer(embed: Linear) -> Self {
        assert_eq!(embed.in_dim(), RAW_FEATURES, "VFE input dimension mismatch");
        VoxelFeatureEncoder { embed }
    }

    /// Computes the raw statistics vector for one voxel.
    ///
    /// Components: normalized point count; centroid offset within the
    /// voxel (3, each in `[-1, 1]`); mean reflectance; absolute centroid
    /// height; vertical sample spread; horizontal sample spread;
    /// normalized sensor range.
    pub fn raw_features(
        grid: &VoxelGrid,
        coord: cooper_pointcloud::VoxelCoord,
        voxel: &Voxel,
    ) -> [f32; RAW_FEATURES] {
        let config = grid.config();
        let centroid = voxel.centroid();
        let center = config.center_of(coord);
        let half = config.voxel_size * 0.5;
        let offset = centroid - center;

        // Exact extrema over all points (insertion-order independent).
        let v_spread = (voxel.max_position.z - voxel.min_position.z).max(0.0);
        let h_spread = (voxel.max_range_xy - voxel.min_range_xy).max(0.0);

        [
            (voxel.count.min(35) as f32) / 35.0,
            (offset.x / half.x).clamp(-1.0, 1.0) as f32,
            (offset.y / half.y).clamp(-1.0, 1.0) as f32,
            (offset.z / half.z).clamp(-1.0, 1.0) as f32,
            voxel.mean_reflectance() as f32,
            (centroid.z / 3.0).clamp(-2.0, 2.0) as f32,
            (v_spread / config.voxel_size.z).clamp(0.0, 1.0) as f32,
            (h_spread / config.voxel_size.x.max(config.voxel_size.y)).clamp(0.0, 1.0) as f32,
            (centroid.range_xy() / 60.0).clamp(0.0, 2.0) as f32,
        ]
    }

    /// Encodes every occupied voxel of `grid` into a sparse feature
    /// tensor.
    pub fn encode(&self, grid: &VoxelGrid) -> SparseTensor3 {
        self.encode_with(grid, &Executor::sequential())
    }

    /// [`VoxelFeatureEncoder::encode`] chunk-parallel over `executor`.
    /// Voxels are independent, so fixed chunk boundaries make the result
    /// bit-identical to the sequential path at any thread count.
    pub fn encode_with(&self, grid: &VoxelGrid, executor: &Executor) -> SparseTensor3 {
        let channels = self.channels();
        let coords = grid.coords();
        let voxels = grid.voxels();
        let parts = executor.map_chunks_in(
            coords,
            VFE_CHUNK_VOXELS,
            || Vec::with_capacity(channels),
            |ci, chunk, buf| {
                let base = ci * VFE_CHUNK_VOXELS;
                let mut out_chunk = Vec::with_capacity(chunk.len() * channels);
                for (s, coord) in chunk.iter().enumerate() {
                    let raw = Self::raw_features(grid, *coord, &voxels[base + s]);
                    self.embed.forward_into(&raw, buf);
                    relu_in_place(buf);
                    out_chunk.extend_from_slice(buf);
                }
                out_chunk
            },
        );
        let mut features = Vec::with_capacity(coords.len() * channels);
        for part in parts {
            features.extend_from_slice(&part);
        }
        SparseTensor3::from_sorted_parts(channels, coords.to_vec(), features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::Vec3;
    use cooper_pointcloud::{Point, PointCloud, VoxelGridConfig};

    fn grid_of(points: Vec<Point>) -> VoxelGrid {
        VoxelGrid::from_cloud(
            &PointCloud::from_points(points),
            VoxelGridConfig::voxelnet_car(),
        )
    }

    #[test]
    fn encode_covers_all_voxels() {
        let grid = grid_of(
            (0..100)
                .map(|i| Point::new(Vec3::new(5.0 + (i % 10) as f64, -2.0, 0.0), 0.4))
                .collect(),
        );
        let enc = VoxelFeatureEncoder::seeded(8, 3);
        let t = enc.encode(&grid);
        assert_eq!(t.active_sites(), grid.occupied_count());
        // ReLU output is non-negative.
        for (_, f) in t.iter() {
            assert!(f.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn raw_features_are_bounded() {
        let grid = grid_of(
            (0..50)
                .map(|i| Point::new(Vec3::new(30.0 + 0.005 * i as f64, 10.0, -1.0), 0.9))
                .collect(),
        );
        for (coord, voxel) in grid.iter() {
            let raw = VoxelFeatureEncoder::raw_features(&grid, *coord, voxel);
            for (i, v) in raw.iter().enumerate() {
                assert!(v.is_finite(), "feature {i} not finite");
                assert!(v.abs() <= 2.0, "feature {i} out of range: {v}");
            }
        }
    }

    #[test]
    fn dense_voxel_has_higher_count_feature() {
        let sparse_grid = grid_of(vec![Point::new(Vec3::new(10.0, 0.0, 0.0), 0.5)]);
        let dense_grid = grid_of(
            (0..35)
                .map(|_| Point::new(Vec3::new(10.0, 0.0, 0.0), 0.5))
                .collect(),
        );
        let (c1, v1) = sparse_grid.iter().next().unwrap();
        let (c2, v2) = dense_grid.iter().next().unwrap();
        let f1 = VoxelFeatureEncoder::raw_features(&sparse_grid, *c1, v1);
        let f2 = VoxelFeatureEncoder::raw_features(&dense_grid, *c2, v2);
        assert!(f2[0] > f1[0]);
        assert_eq!(f2[0], 1.0);
    }

    #[test]
    fn encoder_is_deterministic() {
        let grid = grid_of(vec![Point::new(Vec3::new(10.0, 0.0, 0.0), 0.5)]);
        let a = VoxelFeatureEncoder::seeded(4, 9).encode(&grid);
        let b = VoxelFeatureEncoder::seeded(4, 9).encode(&grid);
        assert_eq!(a, b);
    }

    #[test]
    fn encode_with_matches_sequential_at_any_thread_count() {
        let grid = grid_of(
            (0..400)
                .map(|i| {
                    Point::new(
                        Vec3::new(
                            5.0 + (i % 40) as f64 * 0.7,
                            -15.0 + (i / 40) as f64 * 2.3,
                            -1.0 + (i % 5) as f64 * 0.4,
                        ),
                        0.1 + (i % 9) as f32 * 0.1,
                    )
                })
                .collect(),
        );
        let enc = VoxelFeatureEncoder::seeded(8, 3);
        let sequential = enc.encode(&grid);
        for threads in [2, 4] {
            let parallel = enc.encode_with(&grid, &Executor::new(Some(threads)));
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn encoded_rows_depend_only_on_their_own_voxel() {
        // Voxels encode independently, which is what lets `encode_with`
        // split the grid into chunks: encoding two spatially disjoint
        // halves on their own gives exactly the rows of the whole.
        let points: Vec<Point> = (0..300)
            .map(|i| {
                Point::new(
                    Vec3::new(
                        2.0 + (i % 30) as f64 * 1.1,
                        -12.0 + (i / 30) as f64 * 2.7,
                        -1.5 + (i % 4) as f64 * 0.6,
                    ),
                    0.05 + (i % 8) as f32 * 0.11,
                )
            })
            .collect();
        let enc = VoxelFeatureEncoder::seeded(8, 5);
        let whole = enc.encode(&grid_of(points.clone()));
        let (near, far): (Vec<Point>, Vec<Point>) =
            points.into_iter().partition(|p| p.position.x < 18.0);
        let mut rows = 0;
        for half in [near, far] {
            let part = enc.encode(&grid_of(half));
            assert!(!part.is_empty());
            for (coord, row) in part.iter() {
                let expected = whole.get(*coord).expect("voxel missing from the whole");
                assert_eq!(row, expected, "voxel {coord} diverged");
                rows += 1;
            }
        }
        assert_eq!(rows, whole.active_sites());
    }

    #[test]
    fn empty_grid_gives_empty_tensor() {
        let grid = grid_of(vec![]);
        let t = VoxelFeatureEncoder::seeded(8, 0).encode(&grid);
        assert!(t.is_empty());
    }
}
