//! Multi-vehicle fleet simulation.
//!
//! The paper frames Cooper as "an entry to a broader platform for CAV"
//! where "vehicles on adjacent districts or crowded zones can keep
//! connection for a longer duration, thereby enhancing cooperative
//! sensing" (§II-A). This module provides the time-stepped multi-vehicle
//! loop behind that vision: every step, each vehicle scans, offers its
//! frame to every cooperator within radio range, fuses what it received
//! and runs detection — while the simulation tracks per-pair connection
//! durations and exchanged bytes.
//!
//! There is one exchange path. Per directed transfer a
//! [`GovernorPolicy`] picks what to send from the sender's candidate
//! menu (ROI × frame kind, optionally feature frames). A plain
//! [`FleetSimulation::run`] is the governed run under
//! [`SendFirstPolicy`] with delta encoding and features off: the full
//! frame, as wire-format v1, to everyone in range.
//!
//! # Execution model
//!
//! Each step runs as four phases with barriers between them, over one
//! state per vehicle that persists across steps (sender codec and
//! replay capture, receiver decoders, detection memo, tracker):
//!
//! 1. **Scan/prepare (parallel)** — per vehicle: LiDAR scan, pose
//!    measurement, blind sectors, sender codec state and replay
//!    capture, probe encode and the candidate menu priced by point
//!    count. Independent across vehicles, mapped over a
//!    [`cooper_exec::Executor`].
//! 2. **Exchange (serial)** — connection tracking, air-time pricing,
//!    the policy's choice and per-transfer delivery decisions through
//!    the [`ChannelModel`], into one inbox per receiver. Serial by
//!    design: a shared medium's answer for one transfer depends on
//!    every transfer before it, so delivery must observe one global
//!    order (step, then receiver id, then sender order). This phase
//!    only moves bytes: it files each whole packet, or its salvaged
//!    prefix, and decodes no payload.
//! 3. **Fuse/detect (parallel)** — per vehicle: decode the delivered
//!    packets once, in sender order (delta streams through the
//!    receiver's per-sender decoders), screen and fuse them and run
//!    SPOD, again mapped over the executor.
//! 4. **Merge (serial)** — in fleet order: sender histories, trackers,
//!    alignment, track and trust statistics, and the trust layer's
//!    end-of-step update.
//!
//! Determinism contract: every field of the reports is
//! **bit-identical at any [`FleetConfig::threads`] setting**.
//! Randomness is drawn from per-(vehicle, step) derived RNG streams
//! rather than one sequential generator, so no vehicle's draw depends
//! on who computed before it. Wall-clock time per phase is not part of
//! a report: the `fleet.scan`, `fleet.exchange` and `fleet.perceive`
//! telemetry spans measure it.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use cooper_exec::Executor;
use cooper_geometry::{Pose, RigidTransform, Vec3};
use cooper_lidar_sim::{
    BeamModel, FaultInjector, FaultPlan, GpsImuModel, LidarScanner, PoseEstimate, ScanFaults, World,
};
use cooper_pointcloud::roi::{blind_sectors, extract_roi, BlindSector, RoiCategory, StaticMap};
use cooper_pointcloud::{
    DeltaDecoder, DeltaEncoder, FeatureFrame, FrameKind, PointCloud, CRC_TRAILER_BYTES,
};
use cooper_spod::bev::BevMap;
use cooper_spod::{filter_bev_roi, DetectOptions, DetectScratch};
use cooper_telemetry::names as telemetry_names;
use cooper_telemetry::trace::stage as trace_stage;
use cooper_telemetry::TraceId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::channel::{ChannelModel, Delivery, PerfectChannel, TransferCtx};
use crate::consistency::{check_consistency, ConsistencyConfig, FreeSpaceIndex, SenderHistory};
use crate::governor::{
    GovernorConfig, GovernorPolicy, GovernorVerdict, SendFirstPolicy, TransferCandidate,
    BLIND_BINS, GROUND_Z_BELOW_M, MIN_SECTOR_WIDTH_RAD, OCCLUDER_RANGE_M,
};
use crate::tracking::{Tracker, TrackerStepSummary};
use crate::trust::{TrustConfig, TrustLedger, TrustTransition, TrustVehicleStats};
use crate::{
    alignment_transform, CooperError, CooperPipeline, DecodedPacket, Detection, ExchangePacket,
    GuardDecision, Payload, PerceiveCtx, PerceptionCache, TransferOffer, GPS_ANCHOR,
};

/// One vehicle in the fleet: an id, a pose trajectory (one pose per
/// step) and its LiDAR unit.
#[derive(Debug, Clone)]
pub struct FleetVehicle {
    /// Vehicle identifier, unique in the fleet.
    pub id: u32,
    /// Pose per simulation step; the vehicle holds its last pose when
    /// the trajectory is shorter than the run.
    pub trajectory: Vec<Pose>,
    /// The vehicle's LiDAR.
    pub beams: BeamModel,
}

impl FleetVehicle {
    /// The pose at `step` (clamped to the trajectory end).
    ///
    /// # Panics
    ///
    /// Panics when the trajectory is empty.
    pub fn pose_at(&self, step: usize) -> Pose {
        assert!(
            !self.trajectory.is_empty(),
            "vehicle {} has no trajectory",
            self.id
        );
        self.trajectory[step.min(self.trajectory.len() - 1)]
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// GPS/IMU model producing the exchanged pose estimates.
    pub sensor_model: GpsImuModel,
    /// Base seed for scan noise and measurement streams.
    pub seed: u64,
    /// Worker threads for the parallel phases. `None` uses the process
    /// default ([`cooper_exec::default_threads`]); the reports are
    /// bit-identical for every setting.
    pub threads: Option<usize>,
    /// Pose faults injected into the exchanged (and receive-side) pose
    /// estimates — GPS drift and bias, IMU yaw bias, frozen poses,
    /// stale scan stamps. `None` (or an empty plan) runs fault-free.
    /// Faults are drawn from per-(vehicle, step) streams, so faulted
    /// runs keep the bit-identical-at-any-thread-count contract.
    /// Adversarial kinds (`ghost:`, `replay`, `corrupt:`) tamper with
    /// the vehicle's *broadcast* content instead of its measurements.
    pub fault_plan: Option<FaultPlan>,
    /// Content-integrity and sender-trust layer. `None` (the default)
    /// runs exactly as before. When set, senders CRC-frame their
    /// payloads and receivers verify them on arrival, every received
    /// cloud passes the [`crate::consistency`] guard before fusion, and
    /// a per-(receiver, sender) [`TrustLedger`] quarantines peers whose
    /// packets keep failing — their transfers are skipped outright (the
    /// governor never prices their candidates) until probation
    /// re-admits them.
    pub trust: Option<TrustGuardConfig>,
}

/// Configuration of the integrity-and-trust layer
/// ([`FleetConfig::trust`]): the trust state machine plus the
/// content-consistency guard it draws violations from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrustGuardConfig {
    /// Trust state-machine thresholds.
    pub trust: TrustConfig,
    /// Consistency-guard tuning.
    pub consistency: ConsistencyConfig,
}

impl TrustGuardConfig {
    /// Checks both halves of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.trust.validate()?;
        self.consistency.validate()
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sensor_model: GpsImuModel::realistic(),
            seed: 0,
            threads: None,
            fault_plan: None,
            trust: None,
        }
    }
}

/// Vehicles exchange only when within this planar distance, metres.
const COMMS_RANGE_M: f64 = 150.0;

/// Wall-clock duration of one step, seconds: Cooper's 1 Hz exchange
/// (§IV-G). Dynamic entities (non-zero
/// [`cooper_lidar_sim::Entity::velocity`]) advance by this much between
/// steps, and trackers predict over it.
const STEP_DURATION_S: f64 = 1.0;

/// Salts separating the independent RNG streams derived per
/// (vehicle, step): the transmit-side pose measurement and the
/// receive-side pose measurement.
const TX_MEASURE_STREAM: u64 = 0x7A5E_11DA_7E00_0001;
const RX_MEASURE_STREAM: u64 = 0x7A5E_11DA_7E00_0002;
/// Stream salt for at-source payload bit flips
/// ([`cooper_lidar_sim::FaultKind::PayloadCorruption`]).
const TX_CORRUPT_STREAM: u64 = 0x7A5E_11DA_7E00_0003;

/// Converts a guard residual in metres to the millimetre fixed-point
/// representation carried by
/// [`TransportDropReason::AlignmentRejected`]; non-finite or
/// out-of-range residuals saturate to `u32::MAX`.
fn residual_to_mm(residual_m: f64) -> u32 {
    let mm = (residual_m * 1000.0).round();
    if mm.is_finite() && (0.0..u32::MAX as f64).contains(&mm) {
        mm as u32
    } else {
        u32::MAX
    }
}

/// Derives the seed of one (vehicle, step, salt) RNG stream from the
/// fleet seed — a SplitMix64 finalizer over the combined identity.
/// Every stream is independent of execution order, which is what makes
/// the parallel phases bit-identical to the serial ones.
fn stream_seed(seed: u64, vehicle_id: u32, step: usize, salt: u64) -> u64 {
    let mut z = seed
        ^ salt
        ^ u64::from(vehicle_id).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (step as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-vehicle outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VehicleStepReport {
    /// The vehicle.
    pub vehicle_id: u32,
    /// Cars detected from the vehicle's own scan alone.
    pub single_detections: usize,
    /// Cars detected after fusing all received packets.
    pub cooperative_detections: usize,
    /// Packets delivered to this vehicle this step (salvaged partial
    /// deliveries included).
    pub packets_received: usize,
    /// Received packets that failed to decode and were excluded from
    /// fusion.
    pub packets_dropped: usize,
    /// Of the packets received, how many arrived as salvaged partial
    /// deliveries (deadline expired mid-transfer; only the contiguous
    /// prefix was fused).
    pub packets_partial: usize,
    /// Exchange bytes received this step.
    pub bytes_received: usize,
    /// Confirmed tracks held by this vehicle's tracker after the step's
    /// update. Zero when the pipeline has no tracker
    /// ([`CooperPipeline::with_tracker`]).
    pub confirmed_tracks: usize,
    /// Of the confirmed tracks, how many are coasting — held alive
    /// through a momentary miss instead of being re-detected this step.
    /// Zero when the pipeline has no tracker.
    pub coasting_tracks: usize,
    /// Packets this vehicle excluded for integrity or content reasons
    /// this step — CRC failures, alignment rejections, consistency
    /// violations — each charged to its sender as a trust violation.
    /// Zero when the trust layer is off ([`FleetConfig::trust`]).
    pub trust_violations: u32,
    /// Senders this vehicle currently holds in quarantine (after this
    /// step's trust update). Zero when the trust layer is off.
    pub quarantined_peers: u32,
}

/// Why an in-range transfer the channel was asked about did not arrive
/// whole — the fleet-level record of graceful degradation under a lossy
/// transport.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportDropReason {
    /// The delivery deadline expired before any usable prefix arrived;
    /// the receiver fell back to ego-only perception for this sender.
    DeadlineExceeded,
    /// The deadline expired mid-transfer: the contiguous prefix was
    /// salvaged and fused, the tail was lost. Use
    /// [`TransportDropReason::fraction`] for the delivered ratio.
    PartialDelivery {
        /// Contiguous leading wire bytes that arrived.
        delivered_bytes: usize,
        /// Total wire bytes of the packet.
        total_bytes: usize,
    },
    /// A partial delivery arrived but its prefix could not be decoded
    /// into a usable packet (not even the headers survived).
    SalvageFailed {
        /// Stable error label ([`crate::CooperError::kind`]).
        kind: String,
    },
    /// The bandwidth governor skipped the transfer: no candidate
    /// encoding — not even the narrowest ROI as a delta frame — fit the
    /// channel's remaining air-time budget. Nothing was put on the wire.
    BudgetExceeded,
    /// The packet arrived but the receiver's alignment guard could not
    /// verify (or ICP-repair) the claimed transform; the cloud was
    /// excluded from fusion and the receiver degraded to ego-only
    /// perception for this sender.
    AlignmentRejected {
        /// Post-refinement matched residual, millimetres
        /// (`u32::MAX` when no verifiable overlap existed at all).
        residual_mm: u32,
    },
    /// The link layer delivered the payload damaged — bit flips or a
    /// mid-frame truncation past ARQ's clean prefix; nothing of it was
    /// usable and the receiver fell back to ego-only perception for
    /// this sender.
    Corrupted,
    /// The packet arrived whole but its CRC-32 integrity trailer failed
    /// verification at the receiver; the content was discarded before
    /// decode and the failure charged to the sender as a trust
    /// violation.
    IntegrityFailed,
    /// The receiver has the sender quarantined
    /// ([`crate::TrustLedger`]): the transfer was skipped before
    /// anything was priced or put on the air.
    Quarantined,
    /// The consistency guard ([`crate::consistency`]) flagged the
    /// packet's content as physically impossible — ghost points in
    /// ego-observed free space, a teleporting centroid, or a replayed
    /// stamp — and excluded it from fusion.
    ConsistencyRejected {
        /// Remote points found in ego-observed free space (zero for
        /// teleport and replay verdicts).
        ghost_points: u32,
    },
}

impl TransportDropReason {
    /// Fraction of the packet that arrived, in `[0, 1]` (zero for
    /// everything but partial deliveries).
    pub fn fraction(&self) -> f64 {
        match self {
            TransportDropReason::PartialDelivery {
                delivered_bytes,
                total_bytes,
            } => {
                if *total_bytes == 0 {
                    0.0
                } else {
                    *delivered_bytes as f64 / *total_bytes as f64
                }
            }
            _ => 0.0,
        }
    }

    /// The one table behind [`reject`]: trace stage and counter per
    /// reason. Alignment rejections are counted by the pipeline's guard.
    fn telemetry(&self) -> (&'static str, Option<&'static str>) {
        use telemetry_names as n;
        match self {
            TransportDropReason::DeadlineExceeded => {
                (trace_stage::DEADLINE_EXCEEDED, Some(n::FLEET_DEADLINE_MISS))
            }
            TransportDropReason::PartialDelivery { .. } => {
                (trace_stage::SALVAGED, Some(n::FLEET_PARTIAL_SALVAGED))
            }
            TransportDropReason::SalvageFailed { .. } => {
                (trace_stage::SALVAGE_FAILED, Some(n::FLEET_SALVAGE_FAILED))
            }
            TransportDropReason::BudgetExceeded => {
                (trace_stage::GOVERN_SKIP, Some(n::FLEET_BUDGET_SKIP))
            }
            TransportDropReason::AlignmentRejected { .. } => (trace_stage::ALIGN_REJECTED, None),
            TransportDropReason::Corrupted => (
                trace_stage::V2X_CORRUPTED,
                Some(n::V2X_INTEGRITY_CORRUPTED_FRAMES),
            ),
            TransportDropReason::IntegrityFailed => (
                trace_stage::INTEGRITY_FAILED,
                Some(n::V2X_INTEGRITY_CRC_FAIL),
            ),
            TransportDropReason::Quarantined => {
                (trace_stage::QUARANTINED, Some(n::TRUST_BLOCKED_TRANSFERS))
            }
            TransportDropReason::ConsistencyRejected { .. } => (
                trace_stage::CONSISTENCY_REJECTED,
                Some(n::GUARD_CONSISTENCY_REJECTS),
            ),
        }
    }
}

/// Records one degraded transfer: bumps its reason's counter, marks its
/// trace stage (with the residual or ghost-point detail where the
/// reason carries one) and appends the report entry.
fn reject(
    drops: &mut Vec<TransportDrop>,
    step: usize,
    from: u32,
    to: u32,
    reason: TransportDropReason,
) {
    let (stage, counter) = reason.telemetry();
    if let Some(counter) = counter {
        cooper_telemetry::counter_add(counter, 1);
    }
    let trace = TraceId::new(step, from, to);
    let terminal = !matches!(reason, TransportDropReason::PartialDelivery { .. });
    let detail = match reason {
        TransportDropReason::AlignmentRejected { residual_mm } => Some(residual_mm),
        TransportDropReason::ConsistencyRejected { ghost_points } => Some(ghost_points),
        _ => None,
    };
    match detail {
        Some(detail) => cooper_telemetry::trace_mark_with(trace, stage, terminal, detail.into()),
        None => cooper_telemetry::trace_mark(trace, stage, terminal),
    }
    drops.push(TransportDrop { from, to, reason });
}

/// One degraded transfer of a step: who was sending to whom, and what
/// became of it. Ordered the same way delivery decisions are made
/// (receiver id order, then sender order), so the list is part of the
/// deterministic report surface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportDrop {
    /// Transmitting vehicle's id.
    pub from: u32,
    /// Receiving vehicle's id.
    pub to: u32,
    /// What happened to the transfer.
    pub reason: TransportDropReason,
}

/// A broadcast that never happened: the vehicle's scan failed to encode
/// into an exchange packet this step. The vehicle still perceives on
/// its own scan; its cooperators simply receive nothing from it — the
/// simulation-level analogue of a [`crate::PacketDrop`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodeDrop {
    /// The vehicle whose broadcast failed.
    pub vehicle_id: u32,
    /// Stable error label ([`crate::CooperError::kind`]).
    pub kind: String,
}

/// The outcome of one simulation step. Every field is covered by the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStepReport {
    /// Step index.
    pub step: usize,
    /// One entry per vehicle, in fleet order.
    pub per_vehicle: Vec<VehicleStepReport>,
    /// Broadcasts that failed to encode this step, in fleet order.
    pub encode_drops: Vec<EncodeDrop>,
    /// Transfers that missed their deadline or arrived partially this
    /// step (in delivery-decision order), followed by clouds the
    /// receivers' alignment guards rejected (in fleet order, then
    /// packet order).
    pub transport_drops: Vec<TransportDrop>,
}

impl FleetStepReport {
    /// The report's fields as one tuple of borrows, in declaration
    /// order. Two runs of the same simulation (at any thread count)
    /// produce equal values here, as they produce equal reports; its
    /// `Debug` form is a stable text to digest.
    pub fn deterministic_view(
        &self,
    ) -> (usize, &[VehicleStepReport], &[EncodeDrop], &[TransportDrop]) {
        (
            self.step,
            &self.per_vehicle,
            &self.encode_drops,
            &self.transport_drops,
        )
    }
}

/// Aggregate statistics of a completed run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Steps during which each (low id, high id) pair was in radio
    /// range — the paper's "connection duration". Ordered map, so
    /// iteration (and serialization) is deterministic.
    pub connection_steps: BTreeMap<(u32, u32), usize>,
    /// Total exchange bytes moved over the whole run.
    pub total_bytes: u64,
    /// Per sending vehicle, wire bytes the governor policy avoided
    /// putting on the air relative to sending the v1 full frame — ROI
    /// narrowing, delta encoding and budget skips all count. Only
    /// non-zero savings are recorded, so it is empty for a full-frame
    /// broadcast ([`FleetSimulation::run`]). Ordered map, so iteration
    /// is deterministic.
    pub bytes_saved: BTreeMap<u32, u64>,
    /// Per receiving vehicle, what its alignment guard concluded over
    /// the whole run. Empty when the pipeline has no guard (or nothing
    /// was received). Ordered map, so iteration is deterministic.
    pub alignment: BTreeMap<u32, AlignmentVehicleStats>,
    /// Per vehicle, what its tracker did over the whole run. Empty when
    /// the pipeline has no tracker
    /// ([`CooperPipeline::with_tracker`]). Ordered map, so iteration is
    /// deterministic.
    pub tracks: BTreeMap<u32, TrackVehicleStats>,
    /// Per receiving vehicle, its trust-layer activity over the whole
    /// run — violations charged, quarantines imposed, transfers
    /// blocked, senders reinstated. Empty when the trust layer is off
    /// ([`FleetConfig::trust`]). Ordered map, so iteration is
    /// deterministic.
    pub trust: BTreeMap<u32, TrustVehicleStats>,
}

impl FleetStats {
    /// The longest-lived connection, if any pair ever connected. Ties
    /// go to the lowest-id pair, so the answer is deterministic.
    pub fn longest_connection(&self) -> Option<((u32, u32), usize)> {
        self.connection_steps
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&pair, &steps)| (pair, steps))
    }
}

/// One receiver's aggregate alignment-guard outcomes over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AlignmentVehicleStats {
    /// Received clouds the guard scored.
    pub evaluated: u64,
    /// Clouds accepted only after ICP refinement.
    pub refined: u64,
    /// Clouds rejected (unverifiable or unrepairable) and excluded
    /// from fusion.
    pub rejected: u64,
    /// Sum of finite pre-refinement residuals, metres — divide by
    /// [`AlignmentVehicleStats::residual_before_count`] for the mean.
    pub residual_before_m_sum: f64,
    /// Sum of finite post-refinement residuals, metres — divide by
    /// [`AlignmentVehicleStats::residual_after_count`] for the mean.
    pub residual_after_m_sum: f64,
    /// Finite pre-refinement residuals, the terms of
    /// [`AlignmentVehicleStats::residual_before_m_sum`]. An unverifiable
    /// cloud has an infinite residual and counts only in `evaluated`.
    pub residual_before_count: u64,
    /// Finite post-refinement residuals, the terms of
    /// [`AlignmentVehicleStats::residual_after_m_sum`].
    pub residual_after_count: u64,
}

impl AlignmentVehicleStats {
    /// Folds one pipeline verdict into the aggregate.
    fn absorb(&mut self, record: &crate::AlignmentRecord) {
        self.evaluated += 1;
        match record.decision {
            GuardDecision::AcceptedRefined => self.refined += 1,
            GuardDecision::Rejected | GuardDecision::InsufficientOverlap => self.rejected += 1,
            GuardDecision::AcceptedClean => {}
        }
        if record.residual_before_m.is_finite() {
            self.residual_before_m_sum += record.residual_before_m;
            self.residual_before_count += 1;
        }
        if record.residual_after_m.is_finite() {
            self.residual_after_m_sum += record.residual_after_m;
            self.residual_after_count += 1;
        }
    }

    /// Adds another aggregate (a later step's) into this one.
    fn add(&mut self, other: &AlignmentVehicleStats) {
        self.evaluated += other.evaluated;
        self.refined += other.refined;
        self.rejected += other.rejected;
        self.residual_before_m_sum += other.residual_before_m_sum;
        self.residual_after_m_sum += other.residual_after_m_sum;
        self.residual_before_count += other.residual_before_count;
        self.residual_after_count += other.residual_after_count;
    }

    /// Mean finite residual before and after refinement, metres; zero
    /// when no residual was finite.
    pub fn mean_residuals_m(&self) -> (f64, f64) {
        (
            self.residual_before_m_sum / self.residual_before_count.max(1) as f64,
            self.residual_after_m_sum / self.residual_after_count.max(1) as f64,
        )
    }
}

/// One vehicle's aggregate tracker activity over a run — what happened
/// to its cooperative detections once the temporal layer smoothed them
/// across steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackVehicleStats {
    /// Cooperative detections fed into the tracker.
    pub detections_in: u64,
    /// Detections associated with an existing track.
    pub matched: u64,
    /// New tentative tracks spawned from unmatched detections.
    pub spawned: u64,
    /// Tracks promoted to confirmed.
    pub promoted: u64,
    /// Confirmed tracks that coasted through a missed step.
    pub coasted: u64,
    /// Tracks dropped after exhausting their miss budget.
    pub dropped: u64,
}

impl TrackVehicleStats {
    /// Folds one step's tracker summary into the aggregate.
    fn absorb(&mut self, detections_in: usize, summary: &TrackerStepSummary) {
        self.detections_in += detections_in as u64;
        self.matched += summary.matched as u64;
        self.spawned += summary.spawned as u64;
        self.promoted += summary.promoted as u64;
        self.coasted += summary.coasted as u64;
        self.dropped += summary.dropped as u64;
    }
}

/// A time-stepped multi-vehicle cooperative-perception simulation.
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    world: World,
    vehicles: Vec<FleetVehicle>,
    config: FleetConfig,
}

/// One vehicle's state, carried from step to step.
struct VehicleState {
    /// The sender half, locked only by the vehicle's own phase-1 task.
    sender: Mutex<SenderState>,
    /// Per sender id, the stateful wire-format decoder that
    /// reconstructs that sender's delta stream. Locked only by the
    /// vehicle's own cooperative phase-3 task, which advances it in
    /// sender order.
    decoders: Mutex<BTreeMap<u32, DeltaDecoder>>,
    /// The detection memo when the pipeline enables incremental
    /// perception. Only the vehicle's own phase-3 tasks touch it, so the
    /// parallel fan-out stays deterministic.
    cache: Option<PerceptionCache>,
    /// The tracker when the pipeline enables track-level fusion;
    /// advanced in the serial merge, in fleet order.
    tracker: Option<Tracker>,
}

/// Scans a voxel must appear in before a sender's static map classifies
/// it as background (delta encoding only).
const STATIC_THRESHOLD: u32 = 3;

impl VehicleState {
    fn new(pipeline: &CooperPipeline, governor: &GovernorConfig) -> Self {
        let codec = governor.delta_encode.then(|| {
            (
                StaticMap::new(governor.grid, STATIC_THRESHOLD),
                DeltaEncoder::new(governor.grid, governor.keyframe_every),
            )
        });
        VehicleState {
            sender: Mutex::new(SenderState {
                codec,
                replay: None,
            }),
            decoders: Mutex::default(),
            cache: pipeline.incremental().then(PerceptionCache::new),
            tracker: pipeline.make_tracker(),
        }
    }
}

/// A scan-replay fault's capture: the onset step, and the honest scan,
/// estimate and stamp of that step.
type ReplayCapture = (usize, PointCloud, PoseEstimate, u32);

/// A sender's state across steps.
struct SenderState {
    /// Delta-encoding state: the static background map and the
    /// keyframe/delta reference. `None` with delta encoding off.
    codec: Option<(StaticMap, DeltaEncoder)>,
    /// The broadcast a scan-replay fault froze at its onset; every
    /// later step of the fault retransmits it with the same stamp.
    replay: Option<ReplayCapture>,
}

/// What phase 1 produces per vehicle: the raw scan, the true pose, its
/// blind sectors (its demand as a receiver) and its offer as a sender.
struct Broadcast {
    scan: PointCloud,
    pose: Pose,
    blind: Vec<BlindSector>,
    /// The scan as the vehicle *transmits* it, when adversarial fault
    /// kinds made it diverge from [`Broadcast::scan`]: a replayed
    /// capture, ghost clusters appended, or both. `None` = honest.
    tx_scan: Option<PointCloud>,
    /// `None` when the probe encode failed (broken pose estimate): the
    /// vehicle sends nothing this step.
    frame: Option<SenderFrame>,
    /// The honest scan's BEV feature map, kept for the vehicle's own
    /// phase-3 perception when the feature tier is on. `None` with the
    /// tier off.
    ego_bev: Option<BevMap>,
}

/// What phase 2 delivered to one receiver this step.
#[derive(Default)]
struct Inbox {
    /// Delivered packets in sender order, as they arrived: whole, or
    /// the salvaged prefix of a partial delivery. Still encoded.
    packets: Vec<ExchangePacket>,
    /// Exchange bytes received, CRC-failed frames included.
    bytes: usize,
    /// Packets that arrived as salvaged partial deliveries.
    partial: usize,
}

/// The consistency guard's motion history per (receiver, sender) pair.
type Histories = BTreeMap<(u32, u32), SenderHistory>;

/// A fresh motion history for one (receiver, sender) pair.
type HistoryUpdate = ((u32, u32), SenderHistory);

/// Trust-layer state, advanced serially in the merge: the
/// per-(receiver, sender) ledger and the consistency guard's histories
/// (read in parallel phase 3). Both stay empty with the layer off.
#[derive(Default)]
struct TrustLayerState {
    ledger: TrustLedger,
    histories: Histories,
}

/// One unit of phase-3 work, indexed by vehicle position: the vehicle's
/// ego-only detection, or its cooperative fuse-and-detect. Splitting the
/// two roughly doubles the parallelism available to the fuse/detect
/// phase (2n independent detector runs instead of n paired ones), which
/// is where nearly all of a step's wall-clock time goes.
#[derive(Debug, Clone, Copy)]
enum PerceiveTask {
    Single(usize),
    Cooperative(usize),
}

/// What one [`PerceiveTask`] produced.
enum PerceiveTaskOutput {
    Single(usize),
    /// Boxed: the cooperative payload is far larger than `Single`'s.
    Cooperative(Box<CooperativeOutput>),
}

/// One vehicle's phase-3 result, merged serially in phase 4.
struct CooperativeOutput {
    /// Detection counts filled in; the tracker and trust columns are
    /// stamped by the merge.
    report: VehicleStepReport,
    /// The cooperative detections themselves — the merge feeds them to
    /// the vehicle's tracker (when the pipeline has one) in fleet
    /// order, keeping track state deterministic.
    detections: Vec<Detection>,
    align_drops: Vec<TransportDrop>,
    align_stats: AlignmentVehicleStats,
    /// Packets the consistency guard excluded from fusion (trust
    /// layer on only).
    consistency_drops: Vec<TransportDrop>,
    /// Fresh per-sender motion histories, applied to the shared map
    /// by the merge.
    history_updates: Vec<HistoryUpdate>,
}

/// One sender's offer for a step, prepared in parallel phase 1: its
/// content, the candidate menu priced by point count, and the packets
/// phase 2 builds on first use.
struct SenderFrame {
    vehicle_id: u32,
    /// Stamp attached to outgoing packets.
    stamp: u32,
    /// Estimate attached to outgoing packets (the replayed capture's
    /// under [`cooper_lidar_sim::FaultKind::ScanReplay`]).
    estimate: PoseEstimate,
    /// CRC-frame every packet (trust layer on).
    integrity: bool,
    /// At-source payload bit-flip rate applied to outgoing packets;
    /// zero when no corruption fault is active.
    corrupt_rate: f64,
    /// Seed of the at-source bit-flip stream.
    corrupt_seed: u64,
    keyframe_due: bool,
    /// Delta-encoding content: the background-subtracted scan and its
    /// novel points against the last keyframe, both sent as v2. `None`
    /// sends the transmitted scan as v1 keyframes.
    delta: Option<(PointCloud, PointCloud)>,
    /// Wire size of the v1 full-frame packet — the baseline
    /// `bytes_saved` is measured against.
    baseline_bytes: usize,
    /// ROI-filtered quantized BEV feature frames per [`roi_index`] when
    /// the feature tier is on ([`GovernorConfig::features`]).
    feature_frames: [Option<FeatureFrame>; 3],
    /// The menu; `airtime_s` is priced serially in phase 2.
    candidates: Vec<TransferCandidate>,
    /// Packets built on first use per `[roi_index][kind_index]`.
    packets: [[OnceLock<ExchangePacket>; 3]; 3],
}

impl SenderFrame {
    /// The point content of `kind`, before ROI filtering.
    fn content<'a>(&'a self, tx_scan: &'a PointCloud, kind: FrameKind) -> &'a PointCloud {
        match (&self.delta, kind) {
            (Some((_, novel)), FrameKind::Delta) => novel,
            (Some((foreground, _)), _) => foreground,
            (None, _) => tx_scan,
        }
    }

    /// Prices the menu by point count: every ROI at each offered point
    /// kind, then the feature frames. Feature candidates ride at the
    /// end, so a policy indexing the raw ladder (such as
    /// [`SendFirstPolicy`]) is unaffected unless it asks for them.
    fn price(&mut self, tx_scan: &PointCloud, crc_bytes: usize) {
        let kinds: &[FrameKind] = match (&self.delta, self.keyframe_due) {
            (None, _) => &[FrameKind::Keyframe],
            (Some(_), true) => &[FrameKind::Keyframe, FrameKind::Delta],
            (Some(_), false) => &[FrameKind::Delta],
        };
        let mut candidates = Vec::new();
        for &kind in kinds {
            let content = self.content(tx_scan, kind);
            for roi in RoiCategory::ALL {
                let points = content.iter().filter(|p| roi.contains(p)).count();
                candidates.push(TransferCandidate {
                    roi,
                    kind,
                    wire_bytes: ExchangePacket::wire_size_for(points) + crc_bytes,
                    airtime_s: None,
                });
            }
        }
        for (roi, ff) in RoiCategory::ALL.into_iter().zip(&self.feature_frames) {
            if let Some(ff) = ff {
                candidates.push(TransferCandidate {
                    roi,
                    kind: FrameKind::Features,
                    wire_bytes: ExchangePacket::wire_size_for_features(ff.len(), ff.channels())
                        + crc_bytes,
                    airtime_s: None,
                });
            }
        }
        self.candidates = candidates;
    }

    /// Encodes one candidate, then applies the CRC trailer and any
    /// at-source corruption, in that order — flips land *after* the
    /// checksum, so a corrupting sender's frames fail the receiver's
    /// integrity check instead of carrying a fresh valid CRC over
    /// garbage.
    fn build(
        &self,
        tx_scan: &PointCloud,
        roi: RoiCategory,
        kind: FrameKind,
    ) -> Result<ExchangePacket, CooperError> {
        let (id, stamp, estimate) = (self.vehicle_id, self.stamp, self.estimate);
        let packet = if kind == FrameKind::Features {
            let ff = self.feature_frames[roi_index(roi)]
                .as_ref()
                .expect("feature candidates are offered only for prepared frames");
            ExchangePacket::build_features(id, stamp, ff, estimate)?
        } else {
            let content = self.content(tx_scan, kind);
            let roi_cloud;
            let cloud = if roi == RoiCategory::FullFrame {
                content
            } else {
                roi_cloud = extract_roi(content, roi);
                &roi_cloud
            };
            // Without delta content a frame carries no v2 flag, so it
            // goes on the wire as v1 and receivers fuse it as it is.
            if self.delta.is_some() {
                ExchangePacket::build_v2(id, stamp, cloud, estimate, kind, true)?
            } else {
                ExchangePacket::build(id, stamp, cloud, estimate)?
            }
        };
        let packet = if self.integrity {
            packet.with_integrity()?
        } else {
            packet
        };
        Ok(if self.corrupt_rate > 0.0 {
            packet.with_flipped_payload_bytes(self.corrupt_rate, self.corrupt_seed)
        } else {
            packet
        })
    }

    /// The packet for a chosen candidate, built on first use and shared
    /// by every receiver sent the same candidate.
    fn packet(&self, tx_scan: &PointCloud, chosen: &TransferCandidate) -> ExchangePacket {
        self.packets[roi_index(chosen.roi)][kind_index(chosen.kind)]
            .get_or_init(|| {
                self.build(tx_scan, chosen.roi, chosen.kind)
                    .expect("every candidate of a probed frame encodes")
            })
            .clone()
    }
}

fn roi_index(roi: RoiCategory) -> usize {
    match roi {
        RoiCategory::FullFrame => 0,
        RoiCategory::FrontFov120 => 1,
        RoiCategory::ForwardOneWay => 2,
    }
}

fn kind_index(kind: FrameKind) -> usize {
    match kind {
        FrameKind::Keyframe => 0,
        FrameKind::Delta => 1,
        FrameKind::Features => 2,
    }
}

/// What the phases of one step read and never write. The phase
/// functions are its methods; each takes the state it writes as an
/// argument.
struct StepCtx<'a> {
    vehicles: &'a [FleetVehicle],
    config: &'a FleetConfig,
    pipeline: &'a CooperPipeline,
    governor: &'a GovernorConfig,
    injector: Option<&'a FaultInjector>,
    executor: Executor,
    world: &'a World,
    step: usize,
}

impl FleetSimulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics when `vehicles` is empty, any trajectory is empty, or ids
    /// collide.
    pub fn new(world: World, vehicles: Vec<FleetVehicle>, config: FleetConfig) -> Self {
        assert!(!vehicles.is_empty(), "fleet must have at least one vehicle");
        for v in &vehicles {
            assert!(
                !v.trajectory.is_empty(),
                "vehicle {} has no trajectory",
                v.id
            );
        }
        let mut ids: Vec<u32> = vehicles.iter().map(|v| v.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), vehicles.len(), "duplicate vehicle ids");
        FleetSimulation {
            world,
            vehicles,
            config,
        }
    }

    /// The fleet.
    pub fn vehicles(&self) -> &[FleetVehicle] {
        &self.vehicles
    }

    /// Runs `steps` simulation steps, returning per-step reports and
    /// aggregate statistics. Every exchange is delivered (a
    /// [`PerfectChannel`]); use [`FleetSimulation::run_with_channel`]
    /// to model a lossy or contended medium.
    pub fn run(
        &self,
        pipeline: &CooperPipeline,
        steps: usize,
    ) -> (Vec<FleetStepReport>, FleetStats) {
        self.run_with_channel(pipeline, steps, &mut PerfectChannel)
    }

    /// Like [`FleetSimulation::run`], with delivery decided by a
    /// [`ChannelModel`]: for each directed in-range transfer the model
    /// receives a [`TransferCtx`] and returns whether the packet
    /// arrives. `cooper-v2x` implements the trait for its shared
    /// medium; closures with the signature
    /// `FnMut(usize, u32, u32, usize) -> bool` also work.
    ///
    /// Delivery is consulted serially in deterministic order — by
    /// step, then receiver id order, then sender order — so stateful
    /// channels see the same sequence at any thread count.
    ///
    /// Every vehicle sends its full frame, as wire-format v1, to every
    /// cooperator in range: this is [`FleetSimulation::run_governed`]
    /// under [`SendFirstPolicy`] with delta encoding and the feature
    /// tier off.
    pub fn run_with_channel(
        &self,
        pipeline: &CooperPipeline,
        steps: usize,
        channel: &mut dyn ChannelModel,
    ) -> (Vec<FleetStepReport>, FleetStats) {
        let full_frame = GovernorConfig {
            delta_encode: false,
            features: false,
            ..GovernorConfig::default()
        };
        self.run_governed(pipeline, steps, channel, &mut SendFirstPolicy, &full_frame)
    }

    /// Like [`FleetSimulation::run_with_channel`], with a
    /// [`GovernorPolicy`] choosing what each directed transfer carries:
    /// the policy is offered the sender's menu of encodings — ROI
    /// category × frame kind, priced in wire bytes and air time —
    /// together with the receiver's blind sectors and the channel's
    /// remaining air-time headroom. It picks one (or skips, recorded as
    /// a [`TransportDropReason::BudgetExceeded`]).
    ///
    /// With [`GovernorConfig::delta_encode`] enabled, senders maintain a
    /// [`StaticMap`] and keyframe/delta reference across steps and
    /// encode wire-format **v2** frames (background subtracted, delta
    /// against the last keyframe on a [`GovernorConfig::keyframe_every`]
    /// cadence); receivers reconstruct the stream with per-sender
    /// [`DeltaDecoder`] state before fusion. Bytes avoided relative to
    /// sending the v1 full frame accumulate per sender in
    /// [`FleetStats::bytes_saved`].
    ///
    /// The determinism contract holds: the policy is consulted serially
    /// in delivery order, so reports stay bit-identical at any thread
    /// count (given a deterministic policy).
    ///
    /// # Panics
    ///
    /// Panics when `governor` fails [`GovernorConfig::validate`].
    pub fn run_governed(
        &self,
        pipeline: &CooperPipeline,
        steps: usize,
        channel: &mut dyn ChannelModel,
        policy: &mut dyn GovernorPolicy,
        governor: &GovernorConfig,
    ) -> (Vec<FleetStepReport>, FleetStats) {
        if let Err(message) = governor.validate() {
            panic!("invalid governor config: {message}");
        }
        let _run_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_RUN);
        let injector = self
            .config
            .fault_plan
            .as_ref()
            .filter(|plan| !plan.is_empty())
            .map(|plan| {
                FaultInjector::new(
                    plan.clone(),
                    self.config.sensor_model,
                    GPS_ANCHOR,
                    self.config.seed,
                )
            });
        if let Some(tg) = &self.config.trust {
            if let Err(message) = tg.validate() {
                panic!("invalid trust config: {message}");
            }
        }
        let executor = Executor::new(self.config.threads);
        let mut states: Vec<VehicleState> = self
            .vehicles
            .iter()
            .map(|_| VehicleState::new(pipeline, governor))
            .collect();
        let mut trust = TrustLayerState::default();
        let mut stats = FleetStats::default();
        let mut reports = Vec::with_capacity(steps);
        let mut world = self.world.clone();
        for step in 0..steps {
            let _step_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_STEP);
            let ctx = StepCtx {
                vehicles: &self.vehicles,
                config: &self.config,
                pipeline,
                governor,
                injector: injector.as_ref(),
                executor,
                world: &world,
                step,
            };
            let (mut broadcasts, encode_drops) = ctx.scan(&states);
            let (inboxes, mut transport_drops) =
                ctx.exchange(channel, policy, &trust.ledger, &mut broadcasts, &mut stats);
            let outputs = ctx.perceive(&broadcasts, &inboxes, &states, &trust.histories);
            let per_vehicle = ctx.merge(
                outputs,
                &inboxes,
                &mut states,
                &mut trust,
                &mut transport_drops,
                &mut stats,
            );
            ctx.record(&per_vehicle);
            reports.push(FleetStepReport {
                step,
                per_vehicle,
                encode_drops,
                transport_drops,
            });
            world = world.advanced(STEP_DURATION_S);
        }
        (reports, stats)
    }
}

impl StepCtx<'_> {
    /// Phase 1 (parallel): every vehicle scans, measures its pose and
    /// prepares its offer as a sender. Returns the broadcasts in fleet
    /// order and the ones that failed to encode.
    fn scan(&self, states: &[VehicleState]) -> (Vec<Broadcast>, Vec<EncodeDrop>) {
        let prepared: Vec<(Broadcast, Option<EncodeDrop>)> = {
            let _scan_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_SCAN);
            self.executor
                .map_in(self.vehicles, DetectScratch::new, |idx, v, scratch| {
                    let mut sender = states[idx]
                        .sender
                        .lock()
                        .expect("a sender lock is poisoned only by a panicked phase-1 task");
                    self.prepare(idx, v, &mut sender, scratch)
                })
        };
        let (broadcasts, drops): (Vec<_>, Vec<_>) = prepared.into_iter().unzip();
        (broadcasts, drops.into_iter().flatten().collect())
    }

    /// One vehicle's phase-1 work: scan, pose measurement, blind
    /// sectors, feature frames, codec state and the probe encode that
    /// prices the candidate menu. Everything sent flows from the
    /// *transmitted* scan, so an adversarial sender's codec state and
    /// features track what it puts on the air, not what it saw.
    fn prepare(
        &self,
        idx: usize,
        v: &FleetVehicle,
        sender: &mut SenderState,
        scratch: &mut DetectScratch,
    ) -> (Broadcast, Option<EncodeDrop>) {
        let (step, governor) = (self.step, self.governor);
        let pose = v.pose_at(step);
        let scanner = LidarScanner::new(v.beams.clone());
        let scan = {
            let _span = cooper_telemetry::span!(telemetry_names::SPAN_LIDAR_SCAN);
            let seed = self.config.seed ^ ((step as u64) << 24) ^ idx as u64;
            scanner.scan(self.world, &pose, seed)
        };
        let (estimate, stamp) = self.measure(v, &pose, TX_MEASURE_STREAM);
        let faults = self
            .injector
            .map(|inj| inj.scan_faults(v.id, step))
            .unwrap_or_default();
        let (tx_scan, tx_estimate, tx_stamp) =
            self.tamper(v, &faults, &scan, (estimate, stamp), &mut sender.replay);
        // Receive-side demand: the vehicle's blind sectors.
        let blind = blind_sectors(
            &scan,
            BLIND_BINS,
            OCCLUDER_RANGE_M,
            MIN_SECTOR_WIDTH_RAD,
            GROUND_Z_BELOW_M,
        );
        let tx = tx_scan.as_ref().unwrap_or(&scan);
        let (feature_frames, ego_bev) = if governor.features {
            // Sequential internals: the per-vehicle fan-out of phase 1
            // already saturates the workers, exactly like phase 3.
            let options = DetectOptions::default().with_executor(Executor::sequential());
            let detector = self.pipeline.detector();
            let tx_bev = detector.featurize_with(tx, &options, scratch);
            let grid = &detector.config().voxel_grid;
            let frames = RoiCategory::ALL
                .map(|roi| Some(filter_bev_roi(&tx_bev, grid, roi).to_feature_frame()));
            // Phase 3 perceives the honest scan: an honest sender's map
            // serves both, a tampering sender featurizes its honest
            // scan once more.
            let ego_bev = match &tx_scan {
                None => tx_bev,
                Some(_) => detector.featurize_with(&scan, &options, scratch),
            };
            (frames, Some(ego_bev))
        } else {
            Default::default()
        };
        // With the trust layer on, every candidate carries a CRC-32
        // trailer; price it so the wire-size assertion in phase 2 holds.
        let crc_bytes = self.config.trust.map_or(0, |_| CRC_TRAILER_BYTES);
        let mut frame = SenderFrame {
            vehicle_id: v.id,
            stamp: tx_stamp,
            estimate: tx_estimate,
            integrity: self.config.trust.is_some(),
            corrupt_rate: faults.corrupt_rate,
            corrupt_seed: stream_seed(self.config.seed, v.id, step, TX_CORRUPT_STREAM),
            keyframe_due: true,
            delta: None,
            baseline_bytes: ExchangePacket::wire_size_for(tx.len()) + crc_bytes,
            feature_frames,
            candidates: Vec::new(),
            packets: Default::default(),
        };
        if let Some((map, enc)) = sender.codec.as_mut() {
            map.observe(tx);
            let foreground = map.subtract_background(tx);
            frame.keyframe_due = enc.keyframe_due();
            let novel = enc.novel_points(&foreground);
            if frame.keyframe_due {
                enc.note_keyframe(&foreground);
            } else {
                enc.note_delta();
            }
            frame.delta = Some((foreground, novel));
        }
        // The probe build catches a broken pose estimate (or
        // out-of-range coordinates) once per sender per step; every
        // candidate is a subset of this content, so if the probe
        // encodes, they all do.
        let (frame, encode_drop) =
            match frame.build(tx, RoiCategory::FullFrame, FrameKind::Keyframe) {
                Ok(probe) => {
                    frame.price(tx, crc_bytes);
                    if frame.keyframe_due {
                        frame.packets[0][0] = OnceLock::from(probe);
                    }
                    (Some(frame), None)
                }
                Err(error) => {
                    let kind = error.kind();
                    if cooper_telemetry::is_enabled() {
                        let counter =
                            format!("{}{kind}", telemetry_names::FLEET_ENCODE_DROP_PREFIX);
                        cooper_telemetry::counter_add(&counter, 1);
                    }
                    let drop = EncodeDrop {
                        vehicle_id: v.id,
                        kind: kind.to_string(),
                    };
                    (None, Some(drop))
                }
            };
        let broadcast = Broadcast {
            scan,
            pose,
            blind,
            tx_scan,
            frame,
            ego_bev,
        };
        (broadcast, encode_drop)
    }

    /// A vehicle's pose estimate and frame stamp at this step, measured
    /// from the per-(vehicle, step) stream `salt` and passed through the
    /// fault plan. The transmit and receive sides use separate streams.
    fn measure(&self, v: &FleetVehicle, pose: &Pose, salt: u64) -> (PoseEstimate, u32) {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, v.id, self.step, salt));
        let clean = cfg.sensor_model.measure(pose, &GPS_ANCHOR, &mut rng);
        match self.injector {
            Some(inj) => {
                let faulted = inj.measure(v.id, self.step, &|s| v.pose_at(s), clean);
                (faulted.estimate, faulted.stamp_step as u32)
            }
            None => (clean, self.step as u32),
        }
    }

    /// Adversarial sender faults: what the vehicle *transmits* — scan
    /// (`None` = the honest one), estimate and stamp — may diverge from
    /// what it senses: a replayed capture, ghost clusters, or both. A
    /// scan-replay fault captures the honest broadcast at its onset
    /// step, which still transmits live; later steps retransmit it.
    fn tamper(
        &self,
        v: &FleetVehicle,
        faults: &ScanFaults,
        scan: &PointCloud,
        (estimate, stamp): (PoseEstimate, u32),
        replay: &mut Option<ReplayCapture>,
    ) -> (Option<PointCloud>, PoseEstimate, u32) {
        let mut tx = (None, estimate, stamp);
        match (faults.replay_from, replay.as_ref()) {
            (Some(onset), Some((captured, replayed, at_estimate, at_stamp)))
                if *captured == onset =>
            {
                tx = (Some(replayed.clone()), *at_estimate, *at_stamp);
            }
            (Some(onset), _) => *replay = Some((onset, scan.clone(), estimate, stamp)),
            (None, _) => *replay = None,
        }
        if faults.ghost_clusters > 0 {
            if let Some(inj) = self.injector {
                let mut cloud = tx.0.take().unwrap_or_else(|| scan.clone());
                for point in inj.ghost_cloud(v.id, self.step).iter() {
                    cloud.push(*point);
                }
                tx.0 = Some(cloud);
            }
        }
        tx
    }

    /// Phase 2 (serial): connection tracking, air-time pricing, and the
    /// [`GovernorPolicy`]'s choice per directed transfer, in one global
    /// order the channel can rely on (receivers, then senders, in fleet
    /// order). Returns one inbox per receiver and the step's transport
    /// drops. The spent offers are freed before the perceive phase's
    /// memory peak.
    fn exchange(
        &self,
        channel: &mut dyn ChannelModel,
        policy: &mut dyn GovernorPolicy,
        ledger: &TrustLedger,
        broadcasts: &mut [Broadcast],
        stats: &mut FleetStats,
    ) -> (Vec<Inbox>, Vec<TransportDrop>) {
        let _exchange_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_EXCHANGE);
        let step = self.step;
        channel.on_step_begin(step);
        for i in 0..broadcasts.len() {
            for j in (i + 1)..broadcasts.len() {
                if broadcasts[i].pose.delta_d(&broadcasts[j].pose) <= COMMS_RANGE_M {
                    let (a, b) = (self.vehicles[i].id, self.vehicles[j].id);
                    let key = (a.min(b), a.max(b));
                    *stats.connection_steps.entry(key).or_insert(0) += 1;
                }
            }
        }
        // Air time is the one price phase 1 cannot set: it needs the
        // channel.
        for frame in broadcasts.iter_mut().filter_map(|b| b.frame.as_mut()) {
            for candidate in &mut frame.candidates {
                candidate.airtime_s = channel.airtime_for(candidate.wire_bytes);
            }
        }
        let mut inboxes = Vec::with_capacity(broadcasts.len());
        let mut drops = Vec::new();
        for (i, receiver) in broadcasts.iter().enumerate() {
            let to = self.vehicles[i].id;
            let mut inbox = Inbox::default();
            for (j, sender) in broadcasts.iter().enumerate() {
                let Some(frame) = &sender.frame else {
                    continue;
                };
                if i == j || receiver.pose.delta_d(&sender.pose) > COMMS_RANGE_M {
                    continue;
                }
                let from = self.vehicles[j].id;
                if ledger.blocks(to, from) {
                    // Quarantined senders are skipped before anything is
                    // priced: the policy never sees the offer.
                    stats.trust.entry(to).or_default().blocked_transfers += 1;
                    reject(&mut drops, step, from, to, TransportDropReason::Quarantined);
                    continue;
                }
                let offer = TransferOffer {
                    step,
                    from,
                    to,
                    keyframe_due: frame.keyframe_due,
                    receiver_blind_sectors: &receiver.blind,
                    candidates: &frame.candidates,
                    headroom_s: channel.airtime_headroom_s(),
                };
                let chosen = match policy.decide(&offer) {
                    GovernorVerdict::Send(candidate) => candidate,
                    GovernorVerdict::Skip => {
                        *stats.bytes_saved.entry(from).or_insert(0) += frame.baseline_bytes as u64;
                        let reason = TransportDropReason::BudgetExceeded;
                        reject(&mut drops, step, from, to, reason);
                        continue;
                    }
                };
                let tx_scan = sender.tx_scan.as_ref().unwrap_or(&sender.scan);
                let packet = frame.packet(tx_scan, &chosen);
                debug_assert_eq!(packet.wire_size(), chosen.wire_bytes);
                let saved = frame.baseline_bytes.saturating_sub(chosen.wire_bytes) as u64;
                if saved > 0 {
                    *stats.bytes_saved.entry(from).or_insert(0) += saved;
                }
                if cooper_telemetry::is_enabled() {
                    cooper_telemetry::record_value(
                        telemetry_names::PACKET_WIRE_BYTES,
                        chosen.wire_bytes as u64,
                    );
                    let per_mille = (chosen.wire_bytes as u64).saturating_mul(1000)
                        / (frame.baseline_bytes.max(1) as u64);
                    if chosen.kind == FrameKind::Features {
                        cooper_telemetry::counter_add(telemetry_names::FLEET_FEATURE_SENDS, 1);
                        cooper_telemetry::record_value(
                            telemetry_names::CODEC_V3_BYTES_RATIO,
                            per_mille,
                        );
                    } else if frame.delta.is_some() {
                        cooper_telemetry::record_value(
                            telemetry_names::CODEC_V2_BYTES_RATIO,
                            per_mille,
                        );
                    }
                }
                let ctx = TransferCtx {
                    step,
                    from,
                    to,
                    wire_bytes: chosen.wire_bytes,
                };
                self.deliver(channel, &ctx, packet, &mut inbox, &mut drops);
            }
            stats.total_bytes += inbox.bytes as u64;
            inboxes.push(inbox);
        }
        for b in broadcasts.iter_mut() {
            b.frame = None;
        }
        (inboxes, drops)
    }

    /// Puts one chosen packet through the channel and files what arrived
    /// in the receiver's inbox: the whole packet, or the salvaged prefix
    /// of a partial delivery. Anything else ends the transfer with its
    /// trace stage or drop.
    fn deliver(
        &self,
        channel: &mut dyn ChannelModel,
        ctx: &TransferCtx,
        packet: ExchangePacket,
        inbox: &mut Inbox,
        drops: &mut Vec<TransportDrop>,
    ) {
        let (step, from, to) = (ctx.step, ctx.from, ctx.to);
        let trace = TraceId::new(step, from, to);
        cooper_telemetry::trace_mark_with(
            trace,
            trace_stage::GOVERN_SEND,
            false,
            ctx.wire_bytes as u64,
        );
        // A verdict either ends the transfer here or yields what arrived:
        // the packet, the wire bytes it took, and the record of a
        // salvaged partial delivery.
        let arrived = match channel.deliver_verdict(ctx) {
            Delivery::Delivered => {
                if self.config.trust.is_some() && packet.verify_integrity().is_err() {
                    // The frame arrived whole but its CRC-32 trailer does
                    // not match — at-source corruption the link layer
                    // cannot see. Bytes were still burned on the air.
                    inbox.bytes += ctx.wire_bytes;
                    reject(drops, step, from, to, TransportDropReason::IntegrityFailed);
                    return;
                }
                cooper_telemetry::trace_mark_with(
                    trace,
                    trace_stage::DELIVERED,
                    false,
                    ctx.wire_bytes as u64,
                );
                Ok((packet, ctx.wire_bytes, None))
            }
            Delivery::Dropped => {
                cooper_telemetry::trace_mark(trace, trace_stage::CHANNEL_DROPPED, true);
                return;
            }
            Delivery::Corrupted => {
                reject(drops, step, from, to, TransportDropReason::Corrupted);
                return;
            }
            Delivery::DeadlineExceeded => {
                let reason = TransportDropReason::DeadlineExceeded;
                reject(drops, step, from, to, reason);
                return;
            }
            Delivery::Partial {
                delivered_bytes,
                total_bytes,
            } => {
                // Salvage: keep whatever whole points (or feature cells)
                // the delivered prefix contains and fuse those; the
                // receiver degrades instead of losing the sender's scan
                // entirely.
                cooper_telemetry::trace_mark_with(
                    trace,
                    trace_stage::PARTIAL,
                    false,
                    delivered_bytes as u64,
                );
                let wire = packet.to_bytes();
                let cut = delivered_bytes.min(wire.len());
                let partial = TransportDropReason::PartialDelivery {
                    delivered_bytes,
                    total_bytes,
                };
                ExchangePacket::from_partial_bytes(&wire[..cut])
                    .map(|(prefix, _fraction)| (prefix, delivered_bytes, Some(partial)))
            }
        };
        match arrived {
            Ok((packet, bytes, partial)) => {
                inbox.bytes += bytes;
                inbox.packets.push(packet);
                if let Some(reason) = partial {
                    inbox.partial += 1;
                    reject(drops, step, from, to, reason);
                }
            }
            Err(error) => {
                let reason = TransportDropReason::SalvageFailed {
                    kind: error.kind().to_string(),
                };
                reject(drops, step, from, to, reason);
            }
        }
    }

    /// Phase 3 (parallel): 2n independent tasks — each vehicle's
    /// ego-only detection and its cooperative perceive — claimed by
    /// workers that each carry a reusable [`DetectScratch`]. Both tasks
    /// get the phase-1 BEV of the honest scan when the feature tier kept
    /// one. Returns one output per vehicle, both detection counts set.
    fn perceive(
        &self,
        broadcasts: &[Broadcast],
        inboxes: &[Inbox],
        states: &[VehicleState],
        histories: &Histories,
    ) -> Vec<CooperativeOutput> {
        let tasks: Vec<PerceiveTask> = (0..broadcasts.len())
            .flat_map(|i| [PerceiveTask::Single(i), PerceiveTask::Cooperative(i)])
            .collect();
        let outputs = {
            let _perceive_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_PERCEIVE);
            self.executor
                .map_in(&tasks, DetectScratch::new, |_, task, scratch| match *task {
                    PerceiveTask::Single(i) => {
                        let ctx = PerceiveCtx {
                            scratch: Some(scratch),
                            cache: states[i].cache.as_ref(),
                            ego_bev: broadcasts[i].ego_bev.as_ref(),
                        };
                        let single = self.pipeline.perceive_single(&broadcasts[i].scan, ctx);
                        PerceiveTaskOutput::Single(single.len())
                    }
                    PerceiveTask::Cooperative(i) => {
                        PerceiveTaskOutput::Cooperative(Box::new(self.cooperate(
                            i,
                            &broadcasts[i],
                            &inboxes[i],
                            &states[i],
                            histories,
                            scratch,
                        )))
                    }
                })
        };
        // Results keep input order: Single(i), then Cooperative(i).
        let mut outputs = outputs.into_iter();
        (0..broadcasts.len())
            .map(|_| match (outputs.next(), outputs.next()) {
                (
                    Some(PerceiveTaskOutput::Single(single)),
                    Some(PerceiveTaskOutput::Cooperative(coop)),
                ) => {
                    let mut coop = *coop;
                    coop.report.single_detections = single;
                    coop
                }
                _ => unreachable!("phase 3 returns Single(i), Cooperative(i) per vehicle"),
            })
            .collect()
    }

    /// One vehicle's cooperative task: decode the inbox, screen it
    /// (trust layer on), fuse what passed with the ego scan, detect, and
    /// end every delivered packet's trace chain.
    fn cooperate(
        &self,
        i: usize,
        me: &Broadcast,
        inbox: &Inbox,
        state: &VehicleState,
        histories: &Histories,
        scratch: &mut DetectScratch,
    ) -> CooperativeOutput {
        let (step, id) = (self.step, self.vehicles[i].id);
        let (estimate, _) = self.measure(&self.vehicles[i], &me.pose, RX_MEASURE_STREAM);
        let (kept, consistency_drops, history_updates) = {
            let mut decoders = state
                .decoders
                .lock()
                .expect("a decoder lock is poisoned only by a panicked phase-3 task");
            let decoded = inbox.packets.iter().map(|pkt| decode(&mut decoders, pkt));
            match &self.config.trust {
                Some(tg) => self.screen(id, me, &estimate, decoded, histories, tg),
                None => (decoded.map(|(pkt, _)| pkt).collect(), vec![], vec![]),
            }
        };
        let senders: Vec<u32> = kept.iter().map(|packet| packet.vehicle_id).collect();
        let outcome = self.pipeline.perceive(
            &me.scan,
            &estimate,
            kept,
            &GPS_ANCHOR,
            PerceiveCtx {
                scratch: Some(scratch),
                cache: state.cache.as_ref(),
                ego_bev: me.ego_bev.as_ref(),
            },
        );
        let mut align_stats = AlignmentVehicleStats::default();
        for record in &outcome.alignment {
            align_stats.absorb(record);
        }
        // Terminal trace marks: every delivered packet's causal chain
        // ends here — fused into detection input, rejected by the
        // alignment guard (also a report entry), or dropped by a decode
        // failure.
        let mut align_drops: Vec<TransportDrop> = Vec::new();
        for (k, &from) in senders.iter().enumerate() {
            let trace = TraceId::new(step, from, id);
            let drop = outcome.drops.iter().find(|d| d.index == k);
            match drop.map(|d| &d.error) {
                Some(CooperError::AlignmentRejected { residual_m }) => reject(
                    &mut align_drops,
                    step,
                    from,
                    id,
                    TransportDropReason::AlignmentRejected {
                        residual_mm: residual_to_mm(*residual_m),
                    },
                ),
                Some(_) => cooper_telemetry::trace_mark(trace, trace_stage::DECODE_FAILED, true),
                None => cooper_telemetry::trace_mark(trace, trace_stage::FUSED, true),
            }
        }
        let report = VehicleStepReport {
            vehicle_id: id,
            single_detections: 0,
            cooperative_detections: outcome.detections.len(),
            packets_received: inbox.packets.len(),
            packets_dropped: outcome.drops.len() + consistency_drops.len(),
            packets_partial: inbox.partial,
            bytes_received: inbox.bytes,
            confirmed_tracks: 0,
            coasting_tracks: 0,
            trust_violations: 0,
            quarantined_peers: 0,
        };
        CooperativeOutput {
            report,
            detections: outcome.detections,
            align_drops,
            align_stats,
            consistency_drops,
            history_updates,
        }
    }

    /// The consistency screen (trust layer on): checks every decoded
    /// point cloud against the ego scan's observed free space and the
    /// sender's motion history before it reaches fusion. It takes the
    /// inbox's entries as they are decoded and frees a rejected cloud
    /// before the next packet is decoded. Returns the entries kept, the
    /// rejections and the fresh histories, which the merge applies.
    fn screen(
        &self,
        id: u32,
        me: &Broadcast,
        estimate: &PoseEstimate,
        entries: impl Iterator<Item = (DecodedPacket, bool)>,
        histories: &Histories,
        tg: &TrustGuardConfig,
    ) -> (Vec<DecodedPacket>, Vec<TransportDrop>, Vec<HistoryUpdate>) {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_GUARD_CONSISTENCY);
        // Both indexes are built on first use, so an inbox with no point
        // cloud to check pays for neither. A delta frame's reconstruction
        // mixes keyframe-step points with current ones; a moving sender
        // smears those through space the ego genuinely observed as free.
        // Skip the free-space sweep for them (an empty index yields zero
        // ghost evidence) while keeping the replay and teleport checks.
        let mut ego_index: Option<FreeSpaceIndex> = None;
        let mut empty_index: Option<FreeSpaceIndex> = None;
        let mut kept = Vec::new();
        let mut drops = Vec::new();
        let mut history_updates = Vec::new();
        for (packet, delta) in entries {
            let Ok(Payload::Points(cloud)) = &packet.payload else {
                // Feature frames and undecodable payloads flow through;
                // the fusion pipeline owns those verdicts.
                kept.push(packet);
                continue;
            };
            let sweep_index = if delta {
                empty_index.get_or_insert_with(|| FreeSpaceIndex::build(&PointCloud::new()))
            } else {
                ego_index.get_or_insert_with(|| FreeSpaceIndex::build(&me.scan))
            };
            cooper_telemetry::counter_add(telemetry_names::GUARD_CONSISTENCY_CHECKS, 1);
            let align = alignment_transform(&packet.pose, estimate, &GPS_ANCHOR);
            let in_ego = cloud.transformed(&align);
            let mut centroid = Vec3::new(0.0, 0.0, 0.0);
            for p in cloud.iter() {
                centroid += p.position;
            }
            centroid /= cloud.len().max(1) as f64;
            let world_centroid =
                RigidTransform::from_pose(&packet.pose.to_pose(&GPS_ANCHOR)).apply(centroid);
            let key = (id, packet.vehicle_id);
            let (verdict, next) = check_consistency(
                sweep_index,
                &in_ego,
                world_centroid,
                packet.sequence,
                histories.get(&key),
                STEP_DURATION_S,
                &tg.consistency,
            );
            history_updates.push((key, next));
            if verdict.is_consistent() {
                kept.push(packet);
                continue;
            }
            let ghost_points = verdict.ghost_points();
            cooper_telemetry::counter_add(
                telemetry_names::GUARD_CONSISTENCY_GHOST_POINTS,
                ghost_points as u64,
            );
            let reason = TransportDropReason::ConsistencyRejected {
                ghost_points: ghost_points as u32,
            };
            reject(&mut drops, self.step, packet.vehicle_id, id, reason);
        }
        (kept, drops, history_updates)
    }

    /// Phase 4 (serial, fleet order, so temporal state advances in one
    /// global order): history updates, trackers, alignment and track
    /// statistics, the guards' drops, then the trust layer's end-of-step
    /// update. Returns one report per vehicle.
    fn merge(
        &self,
        outputs: Vec<CooperativeOutput>,
        inboxes: &[Inbox],
        states: &mut [VehicleState],
        trust: &mut TrustLayerState,
        transport_drops: &mut Vec<TransportDrop>,
        stats: &mut FleetStats,
    ) -> Vec<VehicleStepReport> {
        let mut per_vehicle = Vec::with_capacity(outputs.len());
        for ((v, state), output) in self.vehicles.iter().zip(states).zip(outputs) {
            let (mut report, detections) = (output.report, output.detections);
            trust.histories.extend(output.history_updates);
            if let Some(tracker) = state.tracker.as_mut() {
                let summary = {
                    let _span = cooper_telemetry::span!(telemetry_names::SPAN_TRACK_UPDATE);
                    tracker.update(&detections, STEP_DURATION_S)
                };
                let (_tentative, confirmed, coasting) = tracker.state_counts();
                report.confirmed_tracks = confirmed;
                report.coasting_tracks = coasting;
                let tracks = stats.tracks.entry(v.id).or_default();
                tracks.absorb(detections.len(), &summary);
                use telemetry_names as n;
                cooper_telemetry::counter_add(n::TRACK_DETECTIONS_IN, detections.len() as u64);
                cooper_telemetry::counter_add(n::TRACK_SPAWNED, summary.spawned as u64);
                cooper_telemetry::counter_add(n::TRACK_PROMOTED, summary.promoted as u64);
                cooper_telemetry::counter_add(n::TRACK_COASTED, summary.coasted as u64);
                cooper_telemetry::counter_add(n::TRACK_DROPPED, summary.dropped as u64);
            }
            let align = output.align_stats;
            if align.evaluated > 0 {
                stats.alignment.entry(v.id).or_default().add(&align);
            }
            transport_drops.extend(output.align_drops);
            transport_drops.extend(output.consistency_drops);
            per_vehicle.push(report);
        }
        let Some(tg) = &self.config.trust else {
            return per_vehicle;
        };
        // End-of-step trust update: charge this step's violations to
        // their senders, advance every pair's state machine, and stamp
        // the per-vehicle trust columns.
        let mut violations: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for drop in transport_drops.iter() {
            if matches!(
                drop.reason,
                TransportDropReason::IntegrityFailed
                    | TransportDropReason::AlignmentRejected { .. }
                    | TransportDropReason::ConsistencyRejected { .. }
            ) {
                *violations.entry((drop.to, drop.from)).or_insert(0) += 1;
            }
        }
        let mut checked: Vec<(u32, u32)> = Vec::new();
        for (v, inbox) in self.vehicles.iter().zip(inboxes) {
            checked.extend(inbox.packets.iter().map(|pkt| (v.id, pkt.vehicle_id())));
        }
        checked.extend(violations.keys().copied());
        let transitions = trust.ledger.end_step(&violations, &checked, &tg.trust);
        if cooper_telemetry::is_enabled() {
            let charged: u64 = violations.values().map(|&v| u64::from(v)).sum();
            if charged > 0 {
                cooper_telemetry::counter_add(telemetry_names::TRUST_VIOLATIONS, charged);
            }
        }
        for ((receiver, _sender), transition) in &transitions {
            let entry = stats.trust.entry(*receiver).or_default();
            match transition {
                TrustTransition::Quarantined => {
                    entry.quarantines += 1;
                    cooper_telemetry::counter_add(telemetry_names::TRUST_QUARANTINES, 1);
                }
                TrustTransition::Reinstated => {
                    entry.reinstated += 1;
                    cooper_telemetry::counter_add(telemetry_names::TRUST_REINSTATED, 1);
                }
                TrustTransition::Paroled | TrustTransition::None => {}
            }
        }
        for (v, report) in self.vehicles.iter().zip(&mut per_vehicle) {
            report.trust_violations = violations
                .range((v.id, u32::MIN)..=(v.id, u32::MAX))
                .map(|(_, &n)| n)
                .sum();
            report.quarantined_peers = trust.ledger.quarantined_count(v.id) as u32;
            stats.trust.entry(v.id).or_default().violations += u64::from(report.trust_violations);
        }
        per_vehicle
    }

    /// Step-level telemetry: the worker count and the bytes each vehicle
    /// received.
    fn record(&self, per_vehicle: &[VehicleStepReport]) {
        if !cooper_telemetry::is_enabled() {
            return;
        }
        let threads = self.executor.threads() as f64;
        cooper_telemetry::gauge_set(telemetry_names::FLEET_THREADS, threads);
        for v in per_vehicle {
            let bytes = v.bytes_received as u64;
            cooper_telemetry::counter_add(telemetry_names::FLEET_BYTES_RECEIVED, bytes);
        }
    }
}

/// Decodes one delivered packet: the one payload decode it gets, in
/// its receiver's cooperative task and in sender order. v2 payloads run
/// through the receiver's [`DeltaDecoder`] for the sender (caching
/// keyframes, merging deltas), everything else through
/// [`ExchangePacket::decode`]. The flag marks a delta frame's
/// reconstruction, which spans capture instants.
fn decode(
    decoders: &mut BTreeMap<u32, DeltaDecoder>,
    packet: &ExchangePacket,
) -> (DecodedPacket, bool) {
    match packet.frame_info() {
        Ok(info) if info.version == 2 => {
            let _span = cooper_telemetry::span!(telemetry_names::SPAN_PACKET_PAYLOAD_DECODE);
            let decoder = decoders.entry(packet.vehicle_id()).or_default();
            let cloud = decoder.decode_next(packet.payload());
            let payload = cloud.map(Payload::Points).map_err(CooperError::from);
            (packet.decoded(payload), info.kind == FrameKind::Delta)
        }
        _ => (packet.decode(), false),
    }
}

/// Builds a straight constant-speed trajectory: `steps` poses advancing
/// `speed_m_per_step` along the heading of `start`.
pub fn straight_trajectory(start: Pose, speed_m_per_step: f64, steps: usize) -> Vec<Pose> {
    let dir = cooper_geometry::Vec3::new(start.attitude.yaw.cos(), start.attitude.yaw.sin(), 0.0);
    (0..steps)
        .map(|s| {
            Pose::new(
                start.position + dir * (speed_m_per_step * s as f64),
                start.attitude,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::{Attitude, Vec3};
    use cooper_lidar_sim::scenario;
    use cooper_spod::{SpodConfig, SpodDetector};

    fn pipeline() -> CooperPipeline {
        CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
    }

    fn small_fleet() -> FleetSimulation {
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: straight_trajectory(scene.observers[0], 1.0, 4),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
            FleetVehicle {
                id: 2,
                trajectory: straight_trajectory(scene.observers[1], 1.0, 4),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
        ];
        FleetSimulation::new(scene.world, vehicles, FleetConfig::default())
    }

    #[test]
    fn run_produces_reports_per_step_and_vehicle() {
        let sim = small_fleet();
        let (reports, stats) = sim.run(&pipeline(), 3);
        assert_eq!(reports.len(), 3);
        for (step, report) in reports.iter().enumerate() {
            assert_eq!(report.step, step);
            assert_eq!(report.per_vehicle.len(), 2);
            assert!(report.encode_drops.is_empty());
            for v in &report.per_vehicle {
                assert_eq!(v.packets_received, 1, "both vehicles are in range");
                assert_eq!(v.packets_dropped, 0);
                assert!(v.bytes_received > 0);
            }
        }
        assert_eq!(stats.connection_steps.get(&(1, 2)), Some(&3));
        assert!(stats.total_bytes > 0);
        assert_eq!(stats.longest_connection().unwrap().0, (1, 2));
    }

    #[test]
    fn out_of_range_vehicles_do_not_exchange() {
        let scene = scenario::tj_scenario_1();
        let far_pose = Pose::new(Vec3::new(500.0, 500.0, 1.9), Attitude::level());
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: vec![scene.observers[0]],
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
            FleetVehicle {
                id: 2,
                trajectory: vec![far_pose],
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
        ];
        let sim = FleetSimulation::new(scene.world, vehicles, FleetConfig::default());
        let (reports, stats) = sim.run(&pipeline(), 1);
        for v in &reports[0].per_vehicle {
            assert_eq!(v.packets_received, 0);
            assert_eq!(v.bytes_received, 0);
        }
        assert!(stats.connection_steps.is_empty());
    }

    #[test]
    fn vehicles_exchange_within_150_metres() {
        let scene = scenario::tj_scenario_1();
        let start = scene.observers[0];
        let at = |dx: f64| Pose::new(start.position + Vec3::new(dx, 0.0, 0.0), start.attitude);
        // 1–2 are 140 m apart, 2–3 160 m and 1–3 300 m.
        let vehicles = [0.0, 140.0, 300.0]
            .into_iter()
            .enumerate()
            .map(|(i, dx)| FleetVehicle {
                id: i as u32 + 1,
                trajectory: vec![at(dx)],
                beams: BeamModel::vlp16().with_azimuth_steps(100),
            })
            .collect();
        let config = FleetConfig {
            sensor_model: GpsImuModel::ideal(),
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world, vehicles, config);
        let (reports, stats) = sim.run(&pipeline(), 1);
        let received: Vec<usize> = reports[0]
            .per_vehicle
            .iter()
            .map(|v| v.packets_received)
            .collect();
        assert_eq!(received, [1, 1, 0]);
        assert_eq!(stats.connection_steps.keys().collect::<Vec<_>>(), [&(1, 2)]);
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let scene = scenario::tj_scenario_1();
        let build = |threads: Option<usize>| {
            let vehicles = vec![
                FleetVehicle {
                    id: 1,
                    trajectory: straight_trajectory(scene.observers[0], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 2,
                    trajectory: straight_trajectory(scene.observers[1], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 7,
                    trajectory: straight_trajectory(scene.observers[0], -1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
            ];
            FleetSimulation::new(
                scene.world.clone(),
                vehicles,
                FleetConfig {
                    seed: 99,
                    threads,
                    ..FleetConfig::default()
                },
            )
        };
        let p = pipeline();
        let (serial, serial_stats) = build(Some(1)).run(&p, 2);
        let (parallel, parallel_stats) = build(Some(4)).run(&p, 2);
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn encode_failure_is_reported_not_fatal() {
        // A non-finite attitude in the trajectory poisons the pose
        // estimate, so the broadcast packet is rejected at build time.
        // The vehicle must keep perceiving and the step must not panic.
        let scene = scenario::tj_scenario_1();
        let broken_pose = Pose::new(
            scene.observers[1].position,
            Attitude::new(f64::NAN, 0.0, 0.0),
        );
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: vec![scene.observers[0]],
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
            FleetVehicle {
                id: 2,
                trajectory: vec![broken_pose],
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
        ];
        let sim = FleetSimulation::new(scene.world.clone(), vehicles, FleetConfig::default());
        let (reports, _) = sim.run(&pipeline(), 1);
        assert_eq!(reports[0].encode_drops.len(), 1);
        assert_eq!(reports[0].encode_drops[0].vehicle_id, 2);
        assert_eq!(reports[0].encode_drops[0].kind, "invalid_pose");
        // Vehicle 1 hears nothing from the broken vehicle but still runs.
        let v1 = &reports[0].per_vehicle[0];
        assert_eq!(v1.vehicle_id, 1);
        assert_eq!(v1.packets_received, 0);
        // Vehicle 2 still receives vehicle 1's packet and perceives.
        let v2 = &reports[0].per_vehicle[1];
        assert_eq!(v2.packets_received, 1);
    }

    #[test]
    fn channel_model_sees_transfers_in_deterministic_order() {
        struct Recorder(Vec<TransferCtx>);
        impl ChannelModel for Recorder {
            fn deliver(&mut self, tx: &TransferCtx) -> bool {
                self.0.push(*tx);
                true
            }
        }
        let sim = small_fleet();
        let mut recorder = Recorder(Vec::new());
        let _ = sim.run_with_channel(&pipeline(), 2, &mut recorder);
        let order: Vec<(usize, u32, u32)> =
            recorder.0.iter().map(|t| (t.step, t.from, t.to)).collect();
        assert_eq!(order, vec![(0, 2, 1), (0, 1, 2), (1, 2, 1), (1, 1, 2)]);
        assert!(recorder.0.iter().all(|t| t.wire_bytes > 0));
    }

    #[test]
    fn degraded_verdicts_surface_in_reports_and_keep_perceiving() {
        // A channel that cuts vehicle 2's broadcasts to a 40% prefix
        // and times out vehicle 1's entirely: vehicle 1 salvages a
        // partial cloud, vehicle 2 falls back to ego-only perception,
        // and both degradations appear in the step report.
        struct Degrader;
        impl ChannelModel for Degrader {
            fn deliver(&mut self, tx: &TransferCtx) -> bool {
                matches!(self.deliver_verdict(tx), Delivery::Delivered)
            }
            fn deliver_verdict(&mut self, tx: &TransferCtx) -> Delivery {
                if tx.from == 2 {
                    Delivery::Partial {
                        delivered_bytes: tx.wire_bytes * 2 / 5,
                        total_bytes: tx.wire_bytes,
                    }
                } else {
                    Delivery::DeadlineExceeded
                }
            }
        }
        let sim = small_fleet();
        let (reports, _) = sim.run_with_channel(&pipeline(), 1, &mut Degrader);
        let r = &reports[0];
        // Vehicle 1 got a salvaged partial packet from vehicle 2.
        let v1 = &r.per_vehicle[0];
        assert_eq!(v1.packets_received, 1);
        assert_eq!(v1.packets_partial, 1);
        assert!(v1.bytes_received > 0);
        // Vehicle 2 heard nothing but still perceived on its own scan.
        let v2 = &r.per_vehicle[1];
        assert_eq!(v2.packets_received, 0);
        assert_eq!(v2.packets_partial, 0);
        assert!(v2.single_detections == v2.cooperative_detections);
        // Both degradations are on the record, in delivery order.
        assert_eq!(r.transport_drops.len(), 2);
        assert!(matches!(
            &r.transport_drops[0],
            TransportDrop {
                from: 2,
                to: 1,
                reason: TransportDropReason::PartialDelivery { .. }
            }
        ));
        let frac = r.transport_drops[0].reason.fraction();
        assert!((0.0..1.0).contains(&frac) && frac > 0.3);
        assert!(matches!(
            &r.transport_drops[1],
            TransportDrop {
                from: 1,
                to: 2,
                reason: TransportDropReason::DeadlineExceeded
            }
        ));
    }

    #[test]
    fn unsalvageable_partial_is_reported_not_fused() {
        // A prefix shorter than the packet header cannot be salvaged:
        // the transfer must surface as SalvageFailed and nothing
        // reaches the inbox.
        struct Shredder;
        impl ChannelModel for Shredder {
            fn deliver(&mut self, tx: &TransferCtx) -> bool {
                matches!(self.deliver_verdict(tx), Delivery::Delivered)
            }
            fn deliver_verdict(&mut self, tx: &TransferCtx) -> Delivery {
                Delivery::Partial {
                    delivered_bytes: 10,
                    total_bytes: tx.wire_bytes,
                }
            }
        }
        let sim = small_fleet();
        let (reports, _) = sim.run_with_channel(&pipeline(), 1, &mut Shredder);
        let r = &reports[0];
        for v in &r.per_vehicle {
            assert_eq!(v.packets_received, 0);
            assert_eq!(v.packets_partial, 0);
        }
        assert_eq!(r.transport_drops.len(), 2);
        for d in &r.transport_drops {
            assert!(matches!(
                d.reason,
                TransportDropReason::SalvageFailed { .. }
            ));
        }
    }

    #[test]
    fn governed_static_fleet_saves_bytes_and_still_delivers() {
        use crate::governor::SendFirstPolicy;
        // Parked vehicles: after `STATIC_THRESHOLD` scans the static
        // map absorbs the scene and delta frames shrink to the noise
        // floor, so the governed run moves far fewer bytes.
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: vec![scene.observers[0]],
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
            FleetVehicle {
                id: 2,
                trajectory: vec![scene.observers[1]],
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
        ];
        let sim = FleetSimulation::new(scene.world, vehicles, FleetConfig::default());
        let p = pipeline();
        let (_, base_stats) = sim.run(&p, 4);
        let mut policy = SendFirstPolicy;
        let (reports, stats) = sim.run_governed(
            &p,
            4,
            &mut PerfectChannel,
            &mut policy,
            &GovernorConfig::default(),
        );
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.encode_drops.is_empty());
            for v in &r.per_vehicle {
                assert_eq!(v.packets_received, 1, "every transfer still arrives");
                assert_eq!(v.packets_dropped, 0, "reconstructed packets decode");
            }
        }
        assert!(
            stats.total_bytes < base_stats.total_bytes,
            "governed {} >= full-frame {}",
            stats.total_bytes,
            base_stats.total_bytes
        );
        let saved: u64 = stats.bytes_saved.values().sum();
        assert!(saved > 0, "delta frames must save wire bytes");
        assert_eq!(stats.bytes_saved.len(), 2, "both senders accounted");

        // A full-frame broadcast saves nothing, so it records nothing;
        // narrowing to the forward wedge (no delta) saves per sender.
        struct ForwardWedge;
        impl GovernorPolicy for ForwardWedge {
            fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict {
                let wedge = offer.candidate(RoiCategory::ForwardOneWay, FrameKind::Keyframe);
                wedge.map_or(GovernorVerdict::Skip, GovernorVerdict::Send)
            }
        }
        let keyframes_only = GovernorConfig {
            delta_encode: false,
            ..GovernorConfig::default()
        };
        let (_, wedge_stats) = sim.run_governed(
            &p,
            1,
            &mut PerfectChannel,
            &mut ForwardWedge,
            &keyframes_only,
        );
        assert!(base_stats.bytes_saved.is_empty());
        assert_eq!(
            wedge_stats.bytes_saved.len(),
            2,
            "ROI narrowing saves bytes"
        );
    }

    #[test]
    fn governed_reports_identical_across_thread_counts() {
        use crate::governor::SendFirstPolicy;
        let scene = scenario::tj_scenario_1();
        let build = |threads: Option<usize>| {
            let vehicles = vec![
                FleetVehicle {
                    id: 1,
                    trajectory: straight_trajectory(scene.observers[0], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 2,
                    trajectory: straight_trajectory(scene.observers[1], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 7,
                    trajectory: straight_trajectory(scene.observers[0], -1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
            ];
            FleetSimulation::new(
                scene.world.clone(),
                vehicles,
                FleetConfig {
                    seed: 99,
                    threads,
                    ..FleetConfig::default()
                },
            )
        };
        let p = pipeline();
        let cfg = GovernorConfig::default();
        let mut policy = SendFirstPolicy;
        let (serial, serial_stats) =
            build(Some(1)).run_governed(&p, 2, &mut PerfectChannel, &mut policy, &cfg);
        let (parallel, parallel_stats) =
            build(Some(4)).run_governed(&p, 2, &mut PerfectChannel, &mut policy, &cfg);
        assert_eq!(serial_stats, parallel_stats);
        assert!(!serial_stats.bytes_saved.is_empty());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn budget_skips_surface_as_transport_drops() {
        struct AlwaysSkip;
        impl GovernorPolicy for AlwaysSkip {
            fn decide(&mut self, _offer: &TransferOffer<'_>) -> GovernorVerdict {
                GovernorVerdict::Skip
            }
        }
        let sim = small_fleet();
        let (reports, stats) = sim.run_governed(
            &pipeline(),
            1,
            &mut PerfectChannel,
            &mut AlwaysSkip,
            &GovernorConfig::default(),
        );
        let r = &reports[0];
        assert_eq!(r.transport_drops.len(), 2);
        for d in &r.transport_drops {
            assert_eq!(d.reason, TransportDropReason::BudgetExceeded);
            assert_eq!(d.reason.fraction(), 0.0);
        }
        for v in &r.per_vehicle {
            assert_eq!(v.packets_received, 0);
            assert_eq!(v.bytes_received, 0);
            assert!(
                v.cooperative_detections >= v.single_detections
                    || v.cooperative_detections == v.single_detections,
                "skipped transfers leave ego perception intact"
            );
        }
        assert_eq!(stats.total_bytes, 0);
        // A skip saves the whole baseline packet per directed transfer.
        let saved: u64 = stats.bytes_saved.values().sum();
        assert!(saved > 0);
    }

    #[test]
    fn governed_encode_failure_is_reported_once_per_step() {
        use crate::governor::SendFirstPolicy;
        let scene = scenario::tj_scenario_1();
        let broken_pose = Pose::new(
            scene.observers[1].position,
            Attitude::new(f64::NAN, 0.0, 0.0),
        );
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: vec![scene.observers[0]],
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
            FleetVehicle {
                id: 2,
                trajectory: vec![broken_pose],
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
        ];
        let sim = FleetSimulation::new(scene.world.clone(), vehicles, FleetConfig::default());
        let mut policy = SendFirstPolicy;
        let (reports, _) = sim.run_governed(
            &pipeline(),
            1,
            &mut PerfectChannel,
            &mut policy,
            &GovernorConfig::default(),
        );
        assert_eq!(reports[0].encode_drops.len(), 1);
        assert_eq!(reports[0].encode_drops[0].vehicle_id, 2);
        assert_eq!(reports[0].encode_drops[0].kind, "invalid_pose");
        // Vehicle 2 still receives vehicle 1's governed packet.
        assert_eq!(reports[0].per_vehicle[1].packets_received, 1);
        assert_eq!(reports[0].per_vehicle[0].packets_received, 0);
    }

    #[test]
    #[should_panic(expected = "invalid governor config")]
    fn governed_run_rejects_invalid_config() {
        use crate::governor::SendFirstPolicy;
        let sim = small_fleet();
        let bad = GovernorConfig {
            keyframe_every: 0,
            ..GovernorConfig::default()
        };
        let mut policy = SendFirstPolicy;
        let _ = sim.run_governed(&pipeline(), 1, &mut PerfectChannel, &mut policy, &bad);
    }

    #[test]
    fn guarded_fleet_rejects_faulted_sender_and_falls_back() {
        use crate::AlignmentGuardConfig;
        // Vehicle 2 broadcasts with a 40 m GPS bias: the guard on each
        // receiver must reject what that pose misaligns, surface the
        // rejection as a transport drop, and leave ego perception
        // intact. Vehicle 2's own receive-side estimate carries the
        // same bias, so it rejects vehicle 1's (honest) packet too.
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: vec![scene.observers[0]],
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
            FleetVehicle {
                id: 2,
                trajectory: vec![scene.observers[1]],
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
        ];
        let config = FleetConfig {
            sensor_model: GpsImuModel::ideal(),
            fault_plan: Some(FaultPlan::parse("2:bias:40:0").unwrap()),
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world, vehicles, config);
        let p = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
        let (reports, stats) = sim.run(&p, 1);
        let r = &reports[0];
        for v in &r.per_vehicle {
            assert_eq!(v.packets_received, 1);
            assert_eq!(v.packets_dropped, 1, "guard rejects the misaligned cloud");
            assert_eq!(
                v.single_detections, v.cooperative_detections,
                "rejection degrades to ego-only perception"
            );
        }
        let rejected: Vec<_> = r
            .transport_drops
            .iter()
            .filter(|d| matches!(d.reason, TransportDropReason::AlignmentRejected { .. }))
            .collect();
        assert_eq!(rejected.len(), 2);
        assert_eq!((rejected[0].from, rejected[0].to), (2, 1));
        assert_eq!((rejected[1].from, rejected[1].to), (1, 2));
        for vehicle_id in [1u32, 2] {
            let a = stats.alignment.get(&vehicle_id).expect("guard ran");
            assert_eq!(a.evaluated, 1);
            assert_eq!(a.rejected, 1);
        }
    }

    #[test]
    fn clean_guarded_fleet_accepts_everything() {
        use crate::AlignmentGuardConfig;
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: vec![scene.observers[0]],
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
            FleetVehicle {
                id: 2,
                trajectory: vec![scene.observers[1]],
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
        ];
        let config = FleetConfig {
            sensor_model: GpsImuModel::ideal(),
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world, vehicles, config);
        let p = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
        let (reports, stats) = sim.run(&p, 1);
        for v in &reports[0].per_vehicle {
            assert_eq!(v.packets_received, 1);
            assert_eq!(v.packets_dropped, 0, "clean alignment must pass the guard");
        }
        for vehicle_id in [1u32, 2] {
            let a = stats.alignment.get(&vehicle_id).expect("guard ran");
            assert_eq!(a.evaluated, 1);
            assert_eq!(a.rejected, 0);
        }
    }

    #[test]
    fn faulted_guarded_reports_identical_across_thread_counts() {
        use crate::AlignmentGuardConfig;
        let scene = scenario::tj_scenario_1();
        let plan = FaultPlan::parse("1:drift:0.5@0,2:freeze@1,7:yaw:0.1@0..2").unwrap();
        let build = |threads: Option<usize>| {
            let vehicles = vec![
                FleetVehicle {
                    id: 1,
                    trajectory: straight_trajectory(scene.observers[0], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 2,
                    trajectory: straight_trajectory(scene.observers[1], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 7,
                    trajectory: straight_trajectory(scene.observers[0], -1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
            ];
            FleetSimulation::new(
                scene.world.clone(),
                vehicles,
                FleetConfig {
                    seed: 99,
                    threads,
                    fault_plan: Some(plan.clone()),
                    ..FleetConfig::default()
                },
            )
        };
        let p = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
        let (serial, serial_stats) = build(Some(1)).run(&p, 3);
        let (parallel, parallel_stats) = build(Some(4)).run(&p, 3);
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stale_fault_restamps_broadcast_packets() {
        // A stale-scan fault re-stamps the packet with the historic
        // step; the packet must still decode and fuse.
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: straight_trajectory(scene.observers[0], 1.0, 4),
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
            FleetVehicle {
                id: 2,
                trajectory: straight_trajectory(scene.observers[1], 1.0, 4),
                beams: BeamModel::vlp16().with_azimuth_steps(200),
            },
        ];
        let config = FleetConfig {
            sensor_model: GpsImuModel::ideal(),
            fault_plan: Some(FaultPlan::parse("2:stale:2@3").unwrap()),
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world, vehicles, config);
        // The stamp rides in the exchange packet; reuse the probe build
        // in phase 1 by inspecting what arrives through a run.
        let (reports, _) = sim.run(&pipeline(), 4);
        // Steps 0..3 are clean; at step 3 the stale fault re-stamps
        // vehicle 2's broadcast as step 1 — the packet still decodes
        // and fuses, so nothing is dropped.
        for r in &reports {
            assert!(r.encode_drops.is_empty());
            for v in &r.per_vehicle {
                assert_eq!(v.packets_received, 1);
                assert_eq!(v.packets_dropped, 0);
            }
        }
    }

    #[test]
    fn incremental_fleet_matches_from_scratch() {
        // Same fleet, same seed: routing phase 3 through the per-vehicle
        // perception caches must leave the deterministic report surface
        // bit-identical to the stateless path.
        let sim = small_fleet();
        let (base, base_stats) = sim.run(&pipeline(), 3);
        let (inc, inc_stats) = sim.run(&pipeline().with_incremental(), 3);
        assert_eq!(base_stats, inc_stats);
        assert_eq!(base, inc);
    }

    #[test]
    fn tracker_enabled_run_fills_track_stats() {
        use crate::tracking::TrackerConfig;
        let sim = small_fleet();
        let p = pipeline().with_tracker(TrackerConfig::default());
        let (reports, stats) = sim.run(&p, 3);
        // Every vehicle's tracker ran every step, so both appear in the
        // aggregate even if the untrained detector produced nothing.
        assert_eq!(stats.tracks.len(), 2);
        for (vehicle, t) in &stats.tracks {
            assert!(
                t.detections_in
                    == reports
                        .iter()
                        .flat_map(|r| &r.per_vehicle)
                        .filter(|v| v.vehicle_id == *vehicle)
                        .map(|v| v.cooperative_detections as u64)
                        .sum::<u64>(),
                "tracker input must equal the cooperative detections"
            );
            assert!(t.matched + t.spawned <= t.detections_in + t.spawned);
        }
        for r in &reports {
            for v in &r.per_vehicle {
                assert!(v.coasting_tracks <= v.confirmed_tracks);
            }
        }
        // Without a tracker the aggregate (and the report fields) stay
        // empty.
        let (plain_reports, plain_stats) = sim.run(&pipeline(), 1);
        assert!(plain_stats.tracks.is_empty());
        for v in &plain_reports[0].per_vehicle {
            assert_eq!(v.confirmed_tracks, 0);
            assert_eq!(v.coasting_tracks, 0);
        }
    }

    #[test]
    fn tracked_incremental_reports_identical_across_thread_counts() {
        use crate::tracking::TrackerConfig;
        let scene = scenario::tj_scenario_1();
        let build = |threads: Option<usize>| {
            let vehicles = vec![
                FleetVehicle {
                    id: 1,
                    trajectory: straight_trajectory(scene.observers[0], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
                FleetVehicle {
                    id: 2,
                    trajectory: straight_trajectory(scene.observers[1], 1.0, 3),
                    beams: BeamModel::vlp16().with_azimuth_steps(200),
                },
            ];
            FleetSimulation::new(
                scene.world.clone(),
                vehicles,
                FleetConfig {
                    seed: 7,
                    threads,
                    ..FleetConfig::default()
                },
            )
        };
        let p = pipeline()
            .with_tracker(TrackerConfig::default())
            .with_incremental();
        let (serial, serial_stats) = build(Some(1)).run(&p, 2);
        let (parallel, parallel_stats) = build(Some(4)).run(&p, 2);
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn drop_table_pins_each_reason_to_its_stage_and_counter() {
        use cooper_telemetry::names as n;
        use cooper_telemetry::trace::stage;
        use TransportDropReason as R;
        let table = [
            (
                R::DeadlineExceeded,
                stage::DEADLINE_EXCEEDED,
                Some(n::FLEET_DEADLINE_MISS),
            ),
            (
                R::PartialDelivery {
                    delivered_bytes: 1,
                    total_bytes: 2,
                },
                stage::SALVAGED,
                Some(n::FLEET_PARTIAL_SALVAGED),
            ),
            (
                R::SalvageFailed {
                    kind: "truncated".into(),
                },
                stage::SALVAGE_FAILED,
                Some(n::FLEET_SALVAGE_FAILED),
            ),
            (
                R::BudgetExceeded,
                stage::GOVERN_SKIP,
                Some(n::FLEET_BUDGET_SKIP),
            ),
            (
                R::AlignmentRejected { residual_mm: 1 },
                stage::ALIGN_REJECTED,
                None,
            ),
            (
                R::Corrupted,
                stage::V2X_CORRUPTED,
                Some(n::V2X_INTEGRITY_CORRUPTED_FRAMES),
            ),
            (
                R::IntegrityFailed,
                stage::INTEGRITY_FAILED,
                Some(n::V2X_INTEGRITY_CRC_FAIL),
            ),
            (
                R::Quarantined,
                stage::QUARANTINED,
                Some(n::TRUST_BLOCKED_TRANSFERS),
            ),
            (
                R::ConsistencyRejected { ghost_points: 1 },
                stage::CONSISTENCY_REJECTED,
                Some(n::GUARD_CONSISTENCY_REJECTS),
            ),
        ];
        for (reason, stage, counter) in table {
            assert_eq!(reason.telemetry(), (stage, counter), "{reason:?}");
        }
    }

    #[test]
    fn residual_mm_saturates() {
        assert_eq!(residual_to_mm(0.4517), 452);
        assert_eq!(residual_to_mm(f64::INFINITY), u32::MAX);
        assert_eq!(residual_to_mm(f64::NAN), u32::MAX);
        assert_eq!(residual_to_mm(-1.0), u32::MAX);
        assert_eq!(residual_to_mm(1.0e9), u32::MAX);
    }

    #[test]
    fn trajectory_clamps_at_end() {
        let v = FleetVehicle {
            id: 1,
            trajectory: straight_trajectory(Pose::origin(), 2.0, 3),
            beams: BeamModel::vlp16(),
        };
        assert_eq!(v.pose_at(2), v.pose_at(99));
        assert!((v.pose_at(1).position.x - 2.0).abs() < 1e-12);
    }

    #[test]
    fn straight_trajectory_follows_heading() {
        let start = Pose::new(Vec3::ZERO, Attitude::from_yaw(std::f64::consts::FRAC_PI_2));
        let t = straight_trajectory(start, 3.0, 3);
        assert!((t[2].position.y - 6.0).abs() < 1e-12);
        assert!(t[2].position.x.abs() < 1e-12);
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seeds = vec![
            stream_seed(0, 1, 0, TX_MEASURE_STREAM),
            stream_seed(0, 1, 0, RX_MEASURE_STREAM),
            stream_seed(0, 2, 0, TX_MEASURE_STREAM),
            stream_seed(0, 1, 1, TX_MEASURE_STREAM),
            stream_seed(1, 1, 0, TX_MEASURE_STREAM),
        ];
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5, "stream seeds must not collide");
    }

    #[test]
    #[should_panic(expected = "duplicate vehicle ids")]
    fn duplicate_ids_rejected() {
        let scene = scenario::tj_scenario_1();
        let v = FleetVehicle {
            id: 1,
            trajectory: vec![scene.observers[0]],
            beams: BeamModel::vlp16(),
        };
        let _ = FleetSimulation::new(scene.world, vec![v.clone(), v], FleetConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn empty_fleet_rejected() {
        let _ = FleetSimulation::new(World::new(), vec![], FleetConfig::default());
    }

    /// Two stationary vehicles, trust layer on, with an optional fault
    /// plan and an aggressive trust config so transitions happen within
    /// a handful of steps.
    fn trust_fleet(plan: Option<&str>, steps: usize, threads: Option<usize>) -> FleetSimulation {
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: straight_trajectory(scene.observers[0], 0.0, steps),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
            FleetVehicle {
                id: 2,
                trajectory: straight_trajectory(scene.observers[1], 0.0, steps),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
        ];
        let config = FleetConfig {
            seed: 11,
            threads,
            sensor_model: GpsImuModel::ideal(),
            fault_plan: plan.map(|p| FaultPlan::parse(p).unwrap()),
            trust: Some(TrustGuardConfig {
                trust: TrustConfig {
                    suspect_after: 1,
                    quarantine_after: 2,
                    quarantine_steps: 2,
                    probation_clean_steps: 2,
                },
                ..TrustGuardConfig::default()
            }),
        };
        FleetSimulation::new(scene.world, vehicles, config)
    }

    #[test]
    fn trust_clean_fleet_passes_everything() {
        let sim = trust_fleet(None, 3, None);
        let (reports, stats) = sim.run(&pipeline(), 3);
        for r in &reports {
            for v in &r.per_vehicle {
                assert_eq!(v.packets_received, 1, "CRC-framed packets still flow");
                assert_eq!(v.packets_dropped, 0, "no false positives on honest senders");
                assert_eq!(v.trust_violations, 0);
                assert_eq!(v.quarantined_peers, 0);
            }
        }
        for t in stats.trust.values() {
            assert_eq!(t.violations, 0);
            assert_eq!(t.quarantines, 0);
        }
    }

    #[test]
    fn corrupting_sender_is_quarantined_then_reinstated() {
        // Vehicle 2 flips its own payload bytes at the source for steps
        // 0..3. CRC checks fail on receiver 1 → quarantine after 2
        // violations; the fault then clears, quarantine elapses, and a
        // clean probation earns the sender back.
        let sim = trust_fleet(Some("2:corrupt:0.4@0..3"), 12, None);
        let (reports, stats) = sim.run(&pipeline(), 12);
        let drops_of = |reason_match: fn(&TransportDropReason) -> bool| -> Vec<usize> {
            reports
                .iter()
                .filter(|r| r.transport_drops.iter().any(|d| reason_match(&d.reason)))
                .map(|r| r.step)
                .collect()
        };
        let integrity = drops_of(|r| matches!(r, TransportDropReason::IntegrityFailed));
        let quarantined = drops_of(|r| matches!(r, TransportDropReason::Quarantined));
        assert!(
            !integrity.is_empty(),
            "at-source corruption must fail the receiver's CRC check"
        );
        assert!(
            !quarantined.is_empty(),
            "repeated violations must quarantine the sender"
        );
        assert!(
            integrity[0] < quarantined[0],
            "violations precede quarantine"
        );
        let t = stats.trust.get(&1).expect("receiver 1 charged violations");
        assert!(t.violations >= 2);
        assert_eq!(t.quarantines, 1);
        assert!(t.blocked_transfers >= 1);
        assert_eq!(t.reinstated, 1, "clean probation re-admits the sender");
        // After re-admission the exchange works again.
        let last = reports.last().unwrap();
        let v1 = &last.per_vehicle[0];
        assert_eq!(v1.packets_received, 1);
        assert_eq!(v1.quarantined_peers, 0);
    }

    #[test]
    fn ghost_injecting_sender_is_rejected_not_fused() {
        // Vehicle 2 fabricates three car-sized clusters per transmitted
        // scan. The consistency guard on receiver 1 must reject those
        // packets (ghost points in ego-observed free space) and fall
        // back to ego-only perception — never below it.
        let sim = trust_fleet(Some("2:ghost:3@0..4"), 4, None);
        let (reports, _stats) = sim.run(&pipeline(), 4);
        let mut rejected = 0usize;
        for r in &reports {
            for d in &r.transport_drops {
                if let TransportDropReason::ConsistencyRejected { ghost_points } = d.reason {
                    assert_eq!((d.from, d.to), (2, 1));
                    assert!(ghost_points >= 15, "verdict carries the ghost evidence");
                    rejected += 1;
                }
            }
            let v1 = &r.per_vehicle[0];
            assert!(
                v1.cooperative_detections >= v1.single_detections,
                "fused recall must never fall below ego-only"
            );
        }
        assert!(rejected >= 1, "ghost injection must be caught");
    }

    #[test]
    fn replaying_sender_is_rejected_after_onset() {
        // Vehicle 2 freezes its broadcast at step 1 and replays it from
        // step 2 on: the stamp stops advancing and the consistency
        // guard's replay check fires on every later packet.
        let sim = trust_fleet(Some("2:replay@1"), 4, None);
        let (reports, _stats) = sim.run(&pipeline(), 4);
        let mut replay_steps = Vec::new();
        for r in &reports {
            for d in &r.transport_drops {
                if matches!(
                    d.reason,
                    TransportDropReason::ConsistencyRejected { ghost_points: 0 }
                ) && (d.from, d.to) == (2, 1)
                {
                    replay_steps.push(r.step);
                }
            }
        }
        assert!(
            replay_steps.contains(&2),
            "first replayed retransmission is flagged, got {replay_steps:?}"
        );
    }

    #[test]
    fn trust_guarded_adversarial_reports_identical_across_thread_counts() {
        let plan = "2:ghost:2@0..3,2:corrupt:0.3@3..5";
        let run = |threads: Option<usize>| trust_fleet(Some(plan), 6, threads).run(&pipeline(), 6);
        let (serial, serial_stats) = run(Some(1));
        let (two, two_stats) = run(Some(2));
        let (parallel, parallel_stats) = run(Some(4));
        assert_eq!(serial_stats, two_stats);
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial, two);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn governed_trust_fleet_prices_crc_and_survives() {
        // Trust layer + governed exchange: candidates are priced with
        // the CRC trailer (the wire-size assertion inside the exchange
        // would fire otherwise) and v2 reconstruction tolerates the
        // trailer bytes.
        let scene = scenario::tj_scenario_1();
        let vehicles = vec![
            FleetVehicle {
                id: 1,
                trajectory: straight_trajectory(scene.observers[0], 1.0, 3),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
            FleetVehicle {
                id: 2,
                trajectory: straight_trajectory(scene.observers[1], 1.0, 3),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            },
        ];
        let config = FleetConfig {
            seed: 5,
            sensor_model: GpsImuModel::ideal(),
            trust: Some(TrustGuardConfig::default()),
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world.clone(), vehicles, config);
        let governor = GovernorConfig {
            delta_encode: true,
            ..GovernorConfig::default()
        };
        let mut policy = crate::governor::SendFirstPolicy;
        let (reports, _stats) =
            sim.run_governed(&pipeline(), 3, &mut PerfectChannel, &mut policy, &governor);
        for r in &reports {
            for v in &r.per_vehicle {
                assert_eq!(v.packets_received, 1);
                assert_eq!(v.packets_dropped, 0);
            }
        }
    }
}
