//! Cooper — raw-data-level cooperative perception for connected
//! autonomous vehicles.
//!
//! This crate is the heart of the reproduction of *Cooper: Cooperative
//! Perception for Connected Autonomous Vehicles based on 3D Point
//! Clouds* (Chen, Tang, Yang, Fu — ICDCS 2019). Connected vehicles
//! exchange **raw LiDAR point clouds** together with their GPS and IMU
//! readings; a receiver aligns each received cloud into its own sensor
//! frame (the paper's Equations 1–3), merges it with its own scan
//! (Equation 2) and runs the SPOD detector on the fused cloud. Compared
//! to single-vehicle perception this extends the sensing area, raises
//! detection scores, and discovers objects *neither* vehicle could
//! detect alone — the failure case object-level fusion can never fix.
//!
//! Pipeline overview:
//!
//! ```text
//! transmitter                         receiver
//! ───────────                         ────────
//! scan ──► ROI filter ──► packet ──►  decode ──► align (Eq.1–3) ─┐
//!                      (GPS+IMU)                                 ▼
//!                                     own scan ────────────► merge (Eq.2)
//!                                                                │
//!                                                                ▼
//!                                                        SPOD detection
//! ```
//!
//! # Examples
//!
//! ```no_run
//! use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx};
//! use cooper_geometry::GpsFix;
//! use cooper_lidar_sim::{scenario, GpsImuModel, LidarScanner};
//! use cooper_spod::train::TrainingConfig;
//! use cooper_spod::SpodDetector;
//!
//! let detector = SpodDetector::train_default(&TrainingConfig::fast());
//! let pipeline = CooperPipeline::new(detector);
//! let scene = scenario::tj_scenario_1();
//! let scanner = LidarScanner::new(scene.kind.beam_model());
//! let origin = GpsFix::new(33.2075, -97.1526, 190.0);
//! let model = GpsImuModel::ideal();
//! let mut rng = rand::thread_rng();
//!
//! // Receiver's own view.
//! let local_scan = scanner.scan(&scene.world, &scene.observers[0], 1);
//! let local_pose = model.measure(&scene.observers[0], &origin, &mut rng);
//!
//! // Transmitter's packet.
//! let remote_scan = scanner.scan(&scene.world, &scene.observers[1], 2);
//! let remote_pose = model.measure(&scene.observers[1], &origin, &mut rng);
//! let packet = ExchangePacket::build(1, 0, &remote_scan, remote_pose)?;
//!
//! let outcome = pipeline.perceive(
//!     &local_scan,
//!     &local_pose,
//!     vec![packet.decode()],
//!     &origin,
//!     PerceiveCtx::default(),
//! );
//! println!(
//!     "{} objects detected, {} packets dropped",
//!     outcome.detections.len(),
//!     outcome.drops.len()
//! );
//! # Ok::<(), cooper_core::CooperError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alignment;
pub mod channel;
pub mod consistency;
mod error;
pub mod fleet;
pub mod governor;
mod packet;
mod pipeline;
pub mod report;
pub mod stats;
pub mod temporal;
pub mod tracking;
pub mod trust;
pub mod viz;

pub use alignment::{
    alignment_transform, guard_alignment, AlignmentGuardConfig, GuardDecision, GuardReference,
    GuardReport, GPS_ANCHOR, GUARD_CLEAN_RESIDUAL_M, GUARD_GROUND_Z_M, GUARD_MAX_CORRECTION_M,
    GUARD_MAX_SAMPLE_POINTS, GUARD_MIN_OCCUPANCY_RECOVERY, GUARD_MIN_OVERLAP_POINTS,
};
pub use channel::{ChannelModel, Delivery, PerfectChannel, TransferCtx};
pub use consistency::{
    check_consistency, ConsistencyConfig, ConsistencyVerdict, FreeSpaceIndex, SenderHistory,
};
pub use error::CooperError;
pub use governor::{
    GovernorConfig, GovernorPolicy, GovernorVerdict, TransferCandidate, TransferOffer,
};
pub use packet::{DecodedPacket, ExchangePacket, Payload};
pub use pipeline::{
    AlignmentRecord, CooperPipeline, FusionOutcome, PacketDrop, PerceiveCtx, PerceptionCache,
};
pub use stats::{CooperDifficulty, DistanceBand, ScoreImprovement};
pub use trust::{TrustConfig, TrustLedger, TrustLevel, TrustState, TrustVehicleStats};

pub use cooper_spod::Detection;
