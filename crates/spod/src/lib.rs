//! SPOD — Sparse Point-cloud Object Detection.
//!
//! A from-scratch Rust implementation of the detector proposed by the
//! Cooper paper (§III): "the proposed detector … consists of three
//! components":
//!
//! 1. **Preprocessing** — sparse clouds are "projected onto a sphere …
//!    to generate a dense representation" ([`preprocess`], built on
//!    [`cooper_pointcloud::RangeImage`]).
//! 2. **Voxel feature extractor** — voxel-wise features fed through a
//!    voxel feature encoding layer, "well demonstrated by VoxelNet"
//!    ([`vfe`]).
//! 3. **Sparse convolutional middle layers** ([`sparse_conv`], a
//!    rulebook-style submanifold sparse 3-D convolution engine: "output
//!    points are not computed if there is no related input points"),
//!    followed by an SSD-style **region proposal network** over the
//!    bird's-eye-view feature map ([`head`], [`anchors`], [`non_max_suppression`]).
//!
//! # Substitution note (documented in `DESIGN.md`)
//!
//! The paper trains the whole network end-to-end on KITTI with GPU SGD.
//! Rust has no mature deep-learning stack, so this implementation keeps
//! the full architecture but fits parameters at a smaller scale: the VFE
//! and sparse-conv layers use deterministic seeded random-feature
//! weights, and the RPN heads (objectness + box regression, the decision
//! surface) are trained in-repo with pure-Rust SGD on labelled synthetic
//! scenes ([`train`]). Detection confidence remains a learned, monotone
//! function of point evidence — the property all of the paper's results
//! build on.
//!
//! # Examples
//!
//! ```no_run
//! use cooper_lidar_sim::{dataset::SceneConfig, BeamModel};
//! use cooper_spod::{train::TrainingConfig, SpodDetector};
//!
//! let detector = SpodDetector::train_default(&TrainingConfig::fast());
//! let scene = cooper_lidar_sim::dataset::generate_scene(
//!     999,
//!     &SceneConfig::default(),
//!     &BeamModel::vlp16(),
//! );
//! let detections = detector.detect(&scene.cloud);
//! for d in &detections {
//!     println!("{} at {} score {:.2}", d.class, d.obb.center, d.score);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchors;
pub mod bev;
mod detector;
pub mod eval;
pub mod fusion;
pub mod head;
mod nms;
pub mod nn;
pub mod persist;
pub mod preprocess;
pub mod sparse_conv;
mod tensor;
pub mod train;
pub mod vfe;

pub use detector::{
    DetectOptions, DetectScratch, Detection, FeaturizeCache, SpodConfig, SpodDetector,
};
pub use fusion::{filter_bev_roi, fuse_bev, transform_bev, FeatureFusionMode};
pub use nms::{non_max_suppression, non_max_suppression_with_distance};
pub use tensor::SparseTensor3;
