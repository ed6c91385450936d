//! Binary persistence for trained detectors.
//!
//! Training is deterministic but takes seconds; a deployed system loads
//! weights instead. The format is a hand-rolled versioned binary layout
//! (the workspace deliberately carries no serialization-format crate):
//! every numeric field in a fixed order, validated on load.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cooper_geometry::{Aabb3, Vec3};
use cooper_lidar_sim::ObjectClass;
use cooper_pointcloud::{RangeImageConfig, VoxelGridConfig};

use crate::anchors::AnchorConfig;
use crate::detector::{SpodConfig, SpodDetector};
use crate::head::DetectionHead;
use crate::nn::Linear;
use crate::preprocess::PreprocessConfig;
use crate::sparse_conv::SparseConv3;
use crate::vfe::VoxelFeatureEncoder;

const MAGIC: &[u8; 4] = b"SPOD";
/// Version 2 dropped version 1's per-voxel sample cap (a `u32` after the
/// voxel size), which nothing read.
const VERSION: u8 = 2;

/// Errors loading a persisted detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended early.
    Truncated,
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u8),
    /// A structural invariant failed (dimension mismatch, unknown
    /// class tag, non-finite weight).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "weight file truncated"),
            PersistError::BadMagic => write!(f, "not a SPOD weight file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported weight version {v}"),
            PersistError::Corrupt(what) => write!(f, "corrupt weight file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize) -> Result<(), PersistError> {
        if self.buf.remaining() < n {
            Err(PersistError::Truncated)
        } else {
            Ok(())
        }
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }
    fn f32(&mut self) -> Result<f32, PersistError> {
        self.need(4)?;
        let v = self.buf.get_f32();
        if v.is_finite() {
            Ok(v)
        } else {
            Err(PersistError::Corrupt("non-finite f32"))
        }
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        self.need(8)?;
        let v = self.buf.get_f64();
        if v.is_finite() {
            Ok(v)
        } else {
            Err(PersistError::Corrupt("non-finite f64"))
        }
    }
    fn vec3(&mut self) -> Result<Vec3, PersistError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }
    fn f32_vec(&mut self, len: usize) -> Result<Vec<f32>, PersistError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }
}

fn put_vec3(buf: &mut BytesMut, v: Vec3) {
    buf.put_f64(v.x);
    buf.put_f64(v.y);
    buf.put_f64(v.z);
}

fn put_linear(buf: &mut BytesMut, l: &Linear) {
    buf.put_u32(l.in_dim() as u32);
    buf.put_u32(l.out_dim() as u32);
    for &w in l.weights() {
        buf.put_f32(w);
    }
    for &b in l.biases() {
        buf.put_f32(b);
    }
}

fn read_linear(r: &mut Reader<'_>) -> Result<Linear, PersistError> {
    let in_dim = r.u32()? as usize;
    let out_dim = r.u32()? as usize;
    if in_dim == 0 || out_dim == 0 || in_dim * out_dim > 1 << 24 {
        return Err(PersistError::Corrupt("implausible linear dimensions"));
    }
    let w = r.f32_vec(in_dim * out_dim)?;
    let b = r.f32_vec(out_dim)?;
    Ok(Linear::from_parameters(in_dim, out_dim, w, b))
}

fn class_tag(class: ObjectClass) -> u8 {
    match class {
        ObjectClass::Car => 0,
        ObjectClass::Pedestrian => 1,
        ObjectClass::Cyclist => 2,
        ObjectClass::Background => 3,
    }
}

fn class_from_tag(tag: u8) -> Result<ObjectClass, PersistError> {
    Ok(match tag {
        0 => ObjectClass::Car,
        1 => ObjectClass::Pedestrian,
        2 => ObjectClass::Cyclist,
        3 => ObjectClass::Background,
        _ => return Err(PersistError::Corrupt("unknown class tag")),
    })
}

/// Serializes a detector (configuration + all weights).
pub fn detector_to_bytes(detector: &SpodDetector) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);

    let c = detector.config();
    put_vec3(&mut buf, c.voxel_grid.extent.min());
    put_vec3(&mut buf, c.voxel_grid.extent.max());
    put_vec3(&mut buf, c.voxel_grid.voxel_size);
    buf.put_u32(c.channels as u32);
    buf.put_u32(c.preprocess.range_image.rows as u32);
    buf.put_u32(c.preprocess.range_image.cols as u32);
    buf.put_f64(c.preprocess.range_image.elevation_min);
    buf.put_f64(c.preprocess.range_image.elevation_max);
    buf.put_f64(c.preprocess.range_image.azimuth_min);
    buf.put_f64(c.preprocess.range_image.azimuth_max);
    buf.put_u32(c.preprocess.densify_passes as u32);
    buf.put_f32(c.score_threshold);
    buf.put_f64(c.nms_iou);
    buf.put_f64(c.nms_distance_factor);
    buf.put_u32(c.window_radius as u32);
    buf.put_f64(c.mount_height);
    match c.ground_removal_margin {
        Some(m) => {
            buf.put_u8(1);
            buf.put_f64(m);
        }
        None => {
            buf.put_u8(0);
            buf.put_f64(0.0);
        }
    }
    buf.put_u64(c.seed);

    put_linear(&mut buf, detector.vfe_layer());
    for conv in [detector.conv1_layer(), detector.conv2_layer()] {
        buf.put_u32(conv.in_channels() as u32);
        buf.put_u32(conv.out_channels() as u32);
        for tap in conv.kernel_taps() {
            for &w in tap {
                buf.put_f32(w);
            }
        }
        for &b in conv.bias_values() {
            buf.put_f32(b);
        }
    }

    buf.put_u8(detector.heads().len() as u8);
    for head in detector.heads() {
        let hc = head.config();
        buf.put_u8(class_tag(hc.class));
        put_vec3(&mut buf, hc.size);
        buf.put_f64(hc.center_z);
        buf.put_f64(hc.positive_iou);
        buf.put_f64(hc.negative_iou);
        for l in head.objectness_layers() {
            put_linear(&mut buf, l);
        }
        for l in head.regression_layers() {
            put_linear(&mut buf, l);
        }
    }
    buf.freeze()
}

/// Loads a detector previously written by [`detector_to_bytes`].
///
/// # Errors
///
/// Returns a [`PersistError`] for truncated, mismatched or corrupt
/// input.
pub fn detector_from_bytes(bytes: &[u8]) -> Result<SpodDetector, PersistError> {
    let mut r = Reader { buf: bytes };
    r.need(5)?;
    let mut magic = [0u8; 4];
    r.buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.buf.get_u8();
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }

    let extent_min = r.vec3()?;
    let extent_max = r.vec3()?;
    let voxel_size = r.vec3()?;
    let channels = r.u32()? as usize;
    if channels == 0 || channels > 1024 {
        return Err(PersistError::Corrupt("implausible channel configuration"));
    }
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    if rows > 1 << 16 || cols > 1 << 16 {
        return Err(PersistError::Corrupt("implausible range-image dimensions"));
    }
    let elevation_min = r.f64()?;
    let elevation_max = r.f64()?;
    let azimuth_min = r.f64()?;
    let azimuth_max = r.f64()?;
    let densify_passes = r.u32()? as usize;
    let score_threshold = r.f32()?;
    let nms_iou = r.f64()?;
    let nms_distance_factor = r.f64()?;
    if !(0.0..=1.0).contains(&nms_iou) || nms_distance_factor < 0.0 {
        return Err(PersistError::Corrupt("implausible NMS parameters"));
    }
    let window_radius = r.u32()? as i32;
    if !(0..=64).contains(&window_radius) {
        return Err(PersistError::Corrupt("implausible window radius"));
    }
    let mount_height = r.f64()?;
    let has_ground = r.u8()? != 0;
    let ground_margin = r.f64()?;
    let seed = r.u64()?;

    let config = SpodConfig {
        voxel_grid: VoxelGridConfig {
            extent: Aabb3::new(extent_min, extent_max),
            voxel_size,
        },
        channels,
        preprocess: PreprocessConfig {
            range_image: RangeImageConfig {
                rows,
                cols,
                elevation_min,
                elevation_max,
                azimuth_min,
                azimuth_max,
            },
            densify_passes,
        },
        score_threshold,
        nms_iou,
        nms_distance_factor,
        window_radius,
        mount_height,
        ground_removal_margin: has_ground.then_some(ground_margin),
        seed,
    };
    if config.voxel_grid.validate().is_err() || config.preprocess.range_image.validate().is_err() {
        return Err(PersistError::Corrupt("invalid configuration"));
    }

    let vfe_embed = read_linear(&mut r)?;
    if vfe_embed.in_dim() != crate::vfe::RAW_FEATURES || vfe_embed.out_dim() != channels {
        return Err(PersistError::Corrupt("VFE dimension mismatch"));
    }
    let vfe = VoxelFeatureEncoder::from_layer(vfe_embed);

    let mut convs = Vec::with_capacity(2);
    for _ in 0..2 {
        let in_channels = r.u32()? as usize;
        let out_channels = r.u32()? as usize;
        if in_channels != channels || out_channels != channels {
            return Err(PersistError::Corrupt("conv dimension mismatch"));
        }
        let mut kernel = Vec::with_capacity(27);
        for _ in 0..27 {
            kernel.push(r.f32_vec(in_channels * out_channels)?);
        }
        let bias = r.f32_vec(out_channels)?;
        convs.push(SparseConv3::from_parameters(
            in_channels,
            out_channels,
            kernel,
            bias,
        ));
    }
    let conv2 = convs.pop().expect("two convs read");
    let conv1 = convs.pop().expect("two convs read");

    let head_count = r.u8()? as usize;
    if head_count == 0 || head_count > 8 {
        return Err(PersistError::Corrupt("implausible head count"));
    }
    let feature_dim = (channels + crate::bev::Z_STRUCTURE_CHANNELS)
        * ((2 * window_radius + 1) * (2 * window_radius + 1)) as usize;
    let mut heads = Vec::with_capacity(head_count);
    for _ in 0..head_count {
        let class = class_from_tag(r.u8()?)?;
        let size = r.vec3()?;
        let center_z = r.f64()?;
        let positive_iou = r.f64()?;
        let negative_iou = r.f64()?;
        let anchor = AnchorConfig {
            class,
            size,
            center_z,
            positive_iou,
            negative_iou,
        };
        let mut objectness = Vec::with_capacity(AnchorConfig::YAWS.len());
        for _ in 0..AnchorConfig::YAWS.len() {
            let l = read_linear(&mut r)?;
            if l.in_dim() != feature_dim || l.out_dim() != 1 {
                return Err(PersistError::Corrupt("objectness dimension mismatch"));
            }
            objectness.push(l);
        }
        let mut regression = Vec::with_capacity(AnchorConfig::YAWS.len());
        for _ in 0..AnchorConfig::YAWS.len() {
            let l = read_linear(&mut r)?;
            if l.in_dim() != feature_dim || l.out_dim() != crate::anchors::REGRESSION_DIMS {
                return Err(PersistError::Corrupt("regression dimension mismatch"));
            }
            regression.push(l);
        }
        heads.push(DetectionHead::from_parts(anchor, objectness, regression));
    }

    Ok(SpodDetector::from_parts(config, vfe, conv1, conv2, heads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainingConfig};

    fn trained() -> SpodDetector {
        train(
            SpodConfig::default(),
            &TrainingConfig {
                scenes: 3,
                epochs: 1,
                ..TrainingConfig::fast()
            },
        )
    }

    #[test]
    fn round_trip_preserves_detector_exactly() {
        let detector = trained();
        let bytes = detector_to_bytes(&detector);
        let loaded = detector_from_bytes(&bytes).expect("loads");
        assert_eq!(detector, loaded);
    }

    #[test]
    fn loaded_detector_detects_identically() {
        use cooper_lidar_sim::dataset::{generate_scene, SceneConfig};
        use cooper_lidar_sim::BeamModel;
        let detector = trained();
        let loaded = detector_from_bytes(&detector_to_bytes(&detector)).expect("loads");
        let scene = generate_scene(1234, &SceneConfig::default(), &BeamModel::vlp16());
        let a = detector.detect(&scene.cloud);
        let b = loaded.detect(&scene.cloud);
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = detector_to_bytes(&trained());
        for cut in [0usize, 4, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = detector_from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, PersistError::Truncated | PersistError::BadMagic),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let bytes = detector_to_bytes(&trained()).to_vec();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            detector_from_bytes(&bad).unwrap_err(),
            PersistError::BadMagic
        );
        let mut wrong = bytes;
        wrong[4] = 99;
        assert_eq!(
            detector_from_bytes(&wrong).unwrap_err(),
            PersistError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn nan_weight_rejected() {
        let detector = trained();
        let mut bytes = detector_to_bytes(&detector).to_vec();
        // Stomp somewhere deep in the weight region with NaN bits.
        let off = bytes.len() - 100;
        bytes[off..off + 4].copy_from_slice(&f32::NAN.to_be_bytes());
        let err = detector_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_) | PersistError::Truncated),
            "unexpected {err}"
        );
    }

    #[test]
    fn out_of_range_nms_parameters_are_rejected() {
        let bytes = |nms_iou: f64, nms_distance_factor: f64| {
            detector_to_bytes(&SpodDetector::new(SpodConfig {
                nms_iou,
                nms_distance_factor,
                ..SpodConfig::default()
            }))
        };
        for (iou, factor) in [(2.0, 0.5), (-0.1, 0.5), (0.2, -1.0), (1.5, -0.5)] {
            assert_eq!(
                detector_from_bytes(&bytes(iou, factor)).unwrap_err(),
                PersistError::Corrupt("implausible NMS parameters"),
                "iou {iou}, factor {factor}"
            );
        }
        // The closed ends still load, and detection runs NMS with them.
        let empty = cooper_pointcloud::PointCloud::new();
        for (iou, factor) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)] {
            let loaded = detector_from_bytes(&bytes(iou, factor)).expect("loads");
            assert!(loaded.detect(&empty).is_empty());
        }
    }

    #[test]
    fn grid_too_fine_to_index_is_rejected() {
        // 1e-300 m voxels saturate the per-axis count; such a file used to
        // load and then bin every point into voxel x = -2.
        let defaults = SpodConfig::default();
        let fine = SpodDetector::new(SpodConfig {
            voxel_grid: VoxelGridConfig {
                voxel_size: Vec3::splat(1e-300),
                ..defaults.voxel_grid
            },
            ..defaults
        });
        assert_eq!(
            detector_from_bytes(&detector_to_bytes(&fine)).unwrap_err(),
            PersistError::Corrupt("invalid configuration")
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            PersistError::Truncated,
            PersistError::BadMagic,
            PersistError::UnsupportedVersion(3),
            PersistError::Corrupt("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
