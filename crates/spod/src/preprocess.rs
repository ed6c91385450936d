//! Spherical-projection densification — SPOD's preprocessing stage.
//!
//! "Specifically in the preprocessing, to obtain a more compact
//! representation, point clouds are projected onto a sphere … to
//! generate a dense representation" (§III-C, following SqueezeSeg). For
//! sparse (16-beam) input the projection plus gap interpolation adds
//! synthetic returns between real ones on the same surface, raising the
//! voxel occupancy the detector sees.

use cooper_pointcloud::{Point, PointCloud, RangeImage, RangeImageConfig};
use serde::{Deserialize, Serialize};

/// Preprocessing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// The spherical grid used for projection.
    pub range_image: RangeImageConfig,
    /// Number of densification passes (0 disables preprocessing).
    pub densify_passes: usize,
}

impl PreprocessConfig {
    /// Disabled preprocessing (dense 64-beam input does not need it).
    pub fn disabled() -> Self {
        PreprocessConfig {
            range_image: RangeImageConfig::vlp16(),
            densify_passes: 0,
        }
    }

    /// The default for sparse 16-beam input: a VLP-16-shaped grid with
    /// two interpolation passes.
    ///
    /// The densification ablation (`cargo run -p cooper-bench --bin
    /// ablations`) shows the interpolated returns barely move detection
    /// at 0.5 m voxel resolution — the voxel aggregates already absorb
    /// small gaps — so the default keeps the paper's architecture
    /// without relying on it. A taller grid (2× rows) enables vertical
    /// between-beam interpolation for experiments that want it.
    pub fn sparse_default() -> Self {
        PreprocessConfig {
            range_image: RangeImageConfig::vlp16(),
            densify_passes: 2,
        }
    }
}

/// Applies spherical densification: the original points are kept verbatim
/// and the interpolated returns are appended.
///
/// With `densify_passes == 0` this is a plain clone.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{Point, PointCloud};
/// use cooper_spod::preprocess::{densify, PreprocessConfig};
///
/// let mut cloud = PointCloud::new();
/// cloud.push(Point::new(Vec3::new(10.0, 0.0, 0.0), 0.5));
/// let out = densify(&cloud, &PreprocessConfig::sparse_default());
/// assert!(out.len() >= cloud.len());
/// ```
pub fn densify(cloud: &PointCloud, config: &PreprocessConfig) -> PointCloud {
    densify_above(cloud, config, None)
}

/// [`densify`] followed by `retain(|p| p.position.z >= min_z)`, in one
/// pass: only points at or above `min_z` (all points when `None`) are
/// copied, originals first and interpolated returns after, each in the
/// order [`densify`] emits them.
pub fn densify_above(
    cloud: &PointCloud,
    config: &PreprocessConfig,
    min_z: Option<f64>,
) -> PointCloud {
    let keep = |p: &Point| min_z.is_none_or(|z| p.position.z >= z);
    let mut out = PointCloud::with_capacity(cloud.len());
    out.extend(cloud.iter().filter(|p| keep(p)).copied());
    if config.densify_passes == 0 {
        return out;
    }
    let mut image = RangeImage::project(cloud, config.range_image);
    let originally_occupied = image.occupancy();
    for _ in 0..config.densify_passes {
        let filled = image.densify_pass() + image.densify_vertical_pass();
        if filled == 0 {
            break;
        }
    }
    image.for_each_point(|cell, point| {
        if !originally_occupied[cell] && keep(&point) {
            out.push(point);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::Vec3;
    use cooper_pointcloud::Point;

    #[test]
    fn disabled_preprocessing_is_identity() {
        let cloud: PointCloud = (0..10)
            .map(|i| Point::new(Vec3::new(5.0 + i as f64, 0.0, 0.0), 0.5))
            .collect();
        let out = densify(&cloud, &PreprocessConfig::disabled());
        assert_eq!(out, cloud);
    }

    #[test]
    fn densify_keeps_originals_and_adds_fills() {
        // Points along a wall with azimuth gaps: densification bridges them.
        let cfg = PreprocessConfig::sparse_default();
        let mut cloud = PointCloud::new();
        for i in 0..40 {
            // Every second azimuth column around the front.
            let az =
                (i as f64 - 20.0) * 2.0 * (std::f64::consts::TAU / cfg.range_image.cols as f64);
            cloud.push(Point::new(
                Vec3::new(10.0 * az.cos(), 10.0 * az.sin(), 0.0),
                0.5,
            ));
        }
        let out = densify(&cloud, &cfg);
        assert!(out.len() > cloud.len(), "nothing filled: {}", out.len());
        // Originals are preserved verbatim at the front of the cloud.
        for (a, b) in cloud.iter().zip(out.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn densify_above_equals_densify_then_retain() {
        let cfg = PreprocessConfig::sparse_default();
        let cloud: PointCloud = (0..300)
            .map(|i| {
                let az = i as f64 * 0.021;
                let z = -2.0 + (i % 7) as f64 * 0.5;
                Point::new(Vec3::new(12.0 * az.cos(), 12.0 * az.sin(), z), 0.5)
            })
            .collect();
        for min_z in [None, Some(-1.5), Some(0.2)] {
            let mut expected = densify(&cloud, &cfg);
            if let Some(z) = min_z {
                expected.retain(|p| p.position.z >= z);
            }
            assert_eq!(densify_above(&cloud, &cfg, min_z), expected);
        }
    }

    #[test]
    fn empty_cloud_stays_empty() {
        let out = densify(&PointCloud::new(), &PreprocessConfig::sparse_default());
        assert!(out.is_empty());
    }
}
