//! Point-cloud data structures for the Cooper cooperative-perception
//! system.
//!
//! The Cooper paper (Chen et al., ICDCS 2019) exchanges *raw* LiDAR point
//! clouds between connected vehicles. This crate provides everything those
//! clouds need on both ends of the wire:
//!
//! * [`Point`] / [`PointCloud`] — the cloud container, with rigid-transform
//!   application and the paper's Equation 2 merge (set union of receiver
//!   and transformed transmitter points).
//! * [`VoxelGrid`] — sparse voxelization, the input representation of the
//!   SPOD detector's voxel feature extractor.
//! * [`RangeImage`] — the spherical ("project onto a sphere") dense
//!   representation SPOD uses as preprocessing, following SqueezeSeg.
//! * [`roi`] — region-of-interest extraction (sector, distance band,
//!   corridor, background subtraction) used to fit frames into DSRC
//!   bandwidth (§IV-G).
//! * [`codec`] — the compact wire format ("point clouds can be compressed
//!   into 200 KB per scan by only extracting positional coordinates and
//!   reflection value", §II-C).
//!
//! # Examples
//!
//! Merge a transmitted cloud into a receiver's frame (Equations 1–3):
//!
//! ```
//! use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
//! use cooper_pointcloud::{Point, PointCloud};
//!
//! let receiver = Pose::origin();
//! let transmitter = Pose::new(Vec3::new(20.0, 0.0, 0.0), Attitude::from_yaw(0.3));
//!
//! let mut local = PointCloud::new();
//! local.push(Point::new(Vec3::new(5.0, 1.0, 0.2), 0.5));
//!
//! let mut remote = PointCloud::new();
//! remote.push(Point::new(Vec3::new(3.0, -1.0, 0.1), 0.7));
//!
//! let align = RigidTransform::between(&transmitter, &receiver);
//! let fused = local.merged(&remote.transformed(&align));
//! assert_eq!(fused.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cloud;
pub mod codec;
pub mod io;
mod point;
mod range_image;
pub mod roi;
mod voxel;

pub use cloud::PointCloud;
pub use codec::{
    append_crc, crc32, decode_cloud, decode_features, encode_cloud, encode_cloud_v2,
    encode_features, encoded_feature_size, frame_info, truncate_frame, verify_frame_crc,
    CodecError, DeltaDecoder, DeltaEncoder, FeatureFrame, FrameInfo, FrameKind, CRC_TRAILER_BYTES,
    WIRE_BYTES_PER_POINT,
};
pub use point::Point;
pub use range_image::{RangeImage, RangeImageConfig};
pub use voxel::{Voxel, VoxelCoord, VoxelGrid, VoxelGridConfig, MAX_GRID_VOXELS};
