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
//! Each step runs as three phases with barriers between them:
//!
//! 1. **Scan/prepare (parallel)** — per vehicle: LiDAR scan, pose
//!    measurement, blind sectors, sender codec state, probe encode and
//!    the candidate menu priced by point count. Independent across
//!    vehicles, mapped over a [`cooper_exec::Executor`].
//! 2. **Exchange (serial)** — connection tracking, air-time pricing,
//!    the policy's choice and per-transfer delivery decisions through
//!    the [`ChannelModel`]. Serial by design: a shared medium's answer
//!    for one transfer depends on every transfer before it, so delivery
//!    must observe one global order (step, then receiver id, then
//!    sender order).
//! 3. **Fuse/detect (parallel)** — per vehicle: fuse the delivered
//!    packets and run SPOD, again mapped over the executor.
//!
//! Determinism contract: the reports (everything except wall-clock
//! [`StepTimings`]) are **bit-identical at any
//! [`FleetConfig::threads`] setting**. Randomness is drawn from
//! per-(vehicle, step) derived RNG streams rather than one sequential
//! generator, so no vehicle's draw depends on who computed before it.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use cooper_exec::Executor;
use cooper_geometry::{GpsFix, Pose, RigidTransform, Vec3};
use cooper_lidar_sim::{
    BeamModel, FaultInjector, FaultPlan, GpsImuModel, LidarScanner, PoseEstimate, World,
};
use cooper_pointcloud::roi::{blind_sectors, extract_roi, BlindSector, RoiCategory, StaticMap};
use cooper_pointcloud::{
    DeltaDecoder, DeltaEncoder, FeatureFrame, FrameKind, PointCloud, CRC_TRAILER_BYTES,
};
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
};
use crate::tracking::{Tracker, TrackerStepSummary};
use crate::trust::{TrustConfig, TrustLedger, TrustTransition, TrustVehicleStats};
use crate::{
    alignment_transform, CooperError, CooperPipeline, Detection, ExchangePacket, GuardDecision,
    PerceptionCache, TransferOffer,
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
    /// Vehicles exchange only when within this planar distance.
    pub comms_range_m: f64,
    /// GPS/IMU model producing the exchanged pose estimates.
    pub sensor_model: GpsImuModel,
    /// GPS anchor of the shared frame.
    pub origin: GpsFix,
    /// Base seed for scan noise and measurement streams.
    pub seed: u64,
    /// Wall-clock duration of one step, seconds; dynamic entities
    /// (non-zero [`cooper_lidar_sim::Entity::velocity`]) advance by this
    /// much between steps.
    pub step_duration_s: f64,
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
            comms_range_m: 150.0,
            sensor_model: GpsImuModel::realistic(),
            origin: GpsFix::new(33.2075, -97.1526, 190.0),
            seed: 0,
            step_duration_s: 1.0,
            threads: None,
            fault_plan: None,
            trust: None,
        }
    }
}

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
        if cooper_telemetry::is_enabled() {
            cooper_telemetry::counter_add(counter, 1);
        }
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

/// Wall-clock cost of one step's phases, microseconds. Filled on every
/// run, telemetry enabled or not — the measurement is two `Instant`
/// reads per phase. Timings are the one part of a report that is *not*
/// covered by the determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepTimings {
    /// Scanning and broadcast-packet building across the fleet.
    pub scan_us: u64,
    /// Connection tracking and packet delivery.
    pub exchange_us: u64,
    /// Single and cooperative perception across the fleet.
    pub perceive_us: u64,
}

impl StepTimings {
    /// Total measured time of the step's phases.
    pub fn total_us(&self) -> u64 {
        self.scan_us + self.exchange_us + self.perceive_us
    }
}

/// The outcome of one simulation step.
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
    /// Where this step's wall-clock time went.
    pub timings: StepTimings,
}

impl FleetStepReport {
    /// The deterministic portion of the report — everything except the
    /// wall-clock timings. Two runs of the same simulation (at any
    /// thread count) produce equal values here; use this in divergence
    /// checks instead of comparing whole reports.
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
    /// [`AlignmentVehicleStats::evaluated`] for the mean.
    pub residual_before_m_sum: f64,
    /// Sum of finite post-refinement residuals, metres.
    pub residual_after_m_sum: f64,
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
        }
        if record.residual_after_m.is_finite() {
            self.residual_after_m_sum += record.residual_after_m;
        }
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

/// What phase 1 produces per vehicle: the raw scan, the true pose, the
/// measured pose estimate, the vehicle's blind sectors (its demand as a
/// receiver) and its offer as a sender.
struct Broadcast {
    scan: PointCloud,
    pose: Pose,
    estimate: PoseEstimate,
    /// Frame stamp of the honest capture — the current step, unless a
    /// stale-scan fault re-stamped it.
    stamp: u32,
    blind: Vec<BlindSector>,
    /// The scan as the vehicle *transmits* it, when adversarial fault
    /// kinds made it diverge from [`Broadcast::scan`]: a replayed
    /// capture, ghost clusters appended, or both. `None` = honest.
    tx_scan: Option<PointCloud>,
    /// `None` when the probe encode failed (broken pose estimate): the
    /// vehicle sends nothing this step.
    frame: Option<SenderFrame>,
}

impl Broadcast {
    /// The scan the vehicle broadcasts — tampered when an adversarial
    /// fault is active, the honest sensor scan otherwise.
    fn tx_scan(&self) -> &PointCloud {
        self.tx_scan.as_ref().unwrap_or(&self.scan)
    }
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

/// What one [`PerceiveTask`] produced. The cooperative variant's report
/// carries a placeholder `single_detections`; the serial merge loop
/// fills it from the matching [`PerceiveTaskOutput::Single`] result.
enum PerceiveTaskOutput {
    Single(usize),
    /// Boxed: the cooperative payload is far larger than `Single`'s.
    Cooperative(Box<CooperativeOutput>),
}

/// The payload of [`PerceiveTaskOutput::Cooperative`].
struct CooperativeOutput {
    report: VehicleStepReport,
    /// The cooperative detections themselves — the serial merge
    /// loop feeds them to the vehicle's tracker (when the pipeline
    /// has one) in fleet order, keeping track state deterministic.
    detections: Vec<Detection>,
    align_drops: Vec<TransportDrop>,
    align_stats: AlignmentVehicleStats,
    /// Packets the consistency guard excluded from fusion (trust
    /// layer on only).
    consistency_drops: Vec<TransportDrop>,
    /// Fresh per-sender motion histories, applied to the shared map
    /// by the serial merge loop.
    history_updates: Vec<((u32, u32), SenderHistory)>,
}

/// Per-vehicle transmit-side codec state of a delta-encoding run: the
/// static background map and the keyframe/delta reference, both
/// persistent across steps.
struct TxCodecState {
    map: StaticMap,
    enc: DeltaEncoder,
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

/// The mutable state phase 2 writes.
struct ExchangeOutputs<'a> {
    inboxes: &'a mut [Vec<ExchangePacket>],
    /// Parallel to `inboxes`: `true` when the entry was reconstructed
    /// from a delta stream and therefore mixes points captured at the
    /// keyframe step with the current one. The consistency guard skips
    /// its free-space sweep for such composites — a moving sender's
    /// smeared keyframe points sit in genuinely free space.
    composite: &'a mut [Vec<bool>],
    bytes_received: &'a mut [usize],
    partial_counts: &'a mut [usize],
    transport_drops: &'a mut Vec<TransportDrop>,
    stats: &'a mut FleetStats,
    /// Per receiver index, one stateful wire-format decoder per sender
    /// id — reconstructs delta streams back into full clouds.
    rx_decoders: &'a mut [BTreeMap<u32, DeltaDecoder>],
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
    /// arrives. `cooper-v2x` implements the trait for its shared-medium
    /// and scheduler types; closures with the signature
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
                    self.config.origin,
                    self.config.seed,
                )
            });
        if let Some(tg) = &self.config.trust {
            if let Err(message) = tg.validate() {
                panic!("invalid trust config: {message}");
            }
        }
        let trust_guard = self.config.trust;
        // With the trust layer on, every candidate carries a CRC-32
        // trailer; price it so the wire-size assertion in phase 2 holds.
        let crc_bytes = if trust_guard.is_some() {
            CRC_TRAILER_BYTES
        } else {
            0
        };
        let executor = Executor::new(self.config.threads);
        let mut reports = Vec::with_capacity(steps);
        let mut stats = FleetStats::default();
        let mut world = self.world.clone();
        // Trust-layer state, all owned here and advanced serially: the
        // per-(receiver, sender) ledger, the consistency guard's
        // per-pair histories (read in parallel phase 3, written in the
        // serial merge), and per-vehicle replayed-broadcast captures
        // (read in parallel phase 1, written serially after it).
        let mut trust_ledger = TrustLedger::new();
        let mut histories: BTreeMap<(u32, u32), SenderHistory> = BTreeMap::new();
        let mut replay_cache: Vec<Option<(usize, PointCloud, PoseEstimate, u32)>> =
            self.vehicles.iter().map(|_| None).collect();
        // Per-vehicle temporal state, persistent across steps: a
        // tracker when the pipeline enables track-level fusion, and a
        // perception cache when it enables incremental perception (the
        // list is empty otherwise, so `caches.get(i)` is `None`). Both
        // are indexed like `vehicles`; each cache is touched only by
        // its own vehicle's phase-3 tasks, so the parallel fan-out
        // stays deterministic.
        let mut trackers: Vec<Option<Tracker>> = self
            .vehicles
            .iter()
            .map(|_| pipeline.make_tracker())
            .collect();
        let caches: Vec<PerceptionCache> = if pipeline.incremental() {
            self.vehicles
                .iter()
                .map(|_| PerceptionCache::new())
                .collect()
        } else {
            Vec::new()
        };
        // Delta-encoding codec state: one lock per sender, taken only by
        // its own phase-1 task; the receivers' decoders advance serially
        // in phase 2.
        let tx_codecs: Vec<Mutex<TxCodecState>> = if governor.delta_encode {
            self.vehicles
                .iter()
                .map(|_| {
                    Mutex::new(TxCodecState {
                        map: StaticMap::new(governor.grid, governor.static_threshold),
                        enc: DeltaEncoder::new(governor.grid, governor.keyframe_every),
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut rx_decoders: Vec<BTreeMap<u32, DeltaDecoder>> =
            self.vehicles.iter().map(|_| BTreeMap::new()).collect();

        for step in 0..steps {
            let _step_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_STEP);
            let mut timings = StepTimings::default();

            // Phase 1 (parallel): every vehicle scans, measures its
            // pose and prepares its offer as a sender.
            let scan_start = std::time::Instant::now();
            let phase1: Vec<(Broadcast, Option<EncodeDrop>)> = {
                let _scan_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_SCAN);
                executor.map_in(&self.vehicles, DetectScratch::new, |idx, v, scratch| {
                    let pose = v.pose_at(step);
                    let scanner = LidarScanner::new(v.beams.clone());
                    let scan = scanner.scan(
                        &world,
                        &pose,
                        self.config.seed ^ ((step as u64) << 24) ^ idx as u64,
                    );
                    let mut rng = StdRng::seed_from_u64(stream_seed(
                        self.config.seed,
                        v.id,
                        step,
                        TX_MEASURE_STREAM,
                    ));
                    let clean =
                        self.config
                            .sensor_model
                            .measure(&pose, &self.config.origin, &mut rng);
                    let (estimate, stamp) = match &injector {
                        Some(inj) => {
                            let faulted = inj.measure(v.id, step, &|s| v.pose_at(s), clean);
                            (faulted.estimate, faulted.stamp_step as u32)
                        }
                        None => (clean, step as u32),
                    };
                    // Adversarial sender faults: what this vehicle
                    // *transmits* may diverge from what it senses — a
                    // replayed capture, ghost clusters, or an at-source
                    // corruption rate. The honest `scan`/`estimate`
                    // still drive its own perception in phase 3.
                    let scan_faults = injector
                        .as_ref()
                        .map(|inj| inj.scan_faults(v.id, step))
                        .unwrap_or_default();
                    let mut tx_scan: Option<PointCloud> = None;
                    let mut tx_estimate = estimate;
                    let mut tx_stamp = stamp;
                    if let Some(onset) = scan_faults.replay_from {
                        // The capture happens serially after phase 1, so
                        // the onset step itself still transmits live.
                        if let Some((cached_onset, cached_scan, cached_estimate, cached_stamp)) =
                            replay_cache[idx].as_ref()
                        {
                            if *cached_onset == onset {
                                tx_scan = Some(cached_scan.clone());
                                tx_estimate = *cached_estimate;
                                tx_stamp = *cached_stamp;
                            }
                        }
                    }
                    if scan_faults.ghost_clusters > 0 {
                        if let Some(inj) = &injector {
                            let mut cloud = tx_scan.take().unwrap_or_else(|| scan.clone());
                            for point in inj.ghost_cloud(v.id, step).iter() {
                                cloud.push(*point);
                            }
                            tx_scan = Some(cloud);
                        }
                    }
                    // Receive-side demand: the vehicle's blind sectors.
                    let blind = blind_sectors(
                        &scan,
                        governor.blind_bins,
                        governor.occluder_range_m,
                        governor.min_sector_width_rad,
                        governor.ground_z_below_m,
                    );
                    // Send side. All content flows from the *transmitted*
                    // scan — an adversarial sender's codec state and
                    // features track what it puts on the air, not what
                    // it saw.
                    let tx = tx_scan.as_ref().unwrap_or(&scan);
                    let feature_frames = if governor.features {
                        // Sequential internals: the per-vehicle fan-out
                        // of phase 1 already saturates the workers,
                        // exactly like phase 3.
                        let bev = pipeline.detector().featurize_with(
                            tx,
                            &DetectOptions::default().with_executor(Executor::sequential()),
                            scratch,
                        );
                        let grid = &pipeline.detector().config().voxel_grid;
                        RoiCategory::ALL
                            .map(|roi| Some(filter_bev_roi(&bev, grid, roi).to_feature_frame()))
                    } else {
                        Default::default()
                    };
                    let mut frame = SenderFrame {
                        vehicle_id: v.id,
                        stamp: tx_stamp,
                        estimate: tx_estimate,
                        integrity: trust_guard.is_some(),
                        corrupt_rate: scan_faults.corrupt_rate,
                        corrupt_seed: stream_seed(self.config.seed, v.id, step, TX_CORRUPT_STREAM),
                        keyframe_due: true,
                        delta: None,
                        baseline_bytes: ExchangePacket::wire_size_for(tx.len()) + crc_bytes,
                        feature_frames,
                        candidates: Vec::new(),
                        packets: Default::default(),
                    };
                    if let Some(codec) = tx_codecs.get(idx) {
                        let mut state = codec
                            .lock()
                            .expect("a codec lock is poisoned only by a panicked phase-1 task");
                        state.map.observe(tx);
                        let foreground = state.map.subtract_background(tx);
                        frame.keyframe_due = state.enc.keyframe_due();
                        let novel = state.enc.novel_points(&foreground);
                        if frame.keyframe_due {
                            state.enc.note_keyframe(&foreground);
                        } else {
                            state.enc.note_delta();
                        }
                        frame.delta = Some((foreground, novel));
                    }
                    // The probe build catches a broken pose estimate (or
                    // out-of-range coordinates) once per sender per step;
                    // every candidate is a subset of this content, so if
                    // the probe encodes, they all do.
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
                                if cooper_telemetry::is_enabled() {
                                    cooper_telemetry::counter_add(
                                        &format!(
                                            "{}{}",
                                            telemetry_names::FLEET_ENCODE_DROP_PREFIX,
                                            error.kind()
                                        ),
                                        1,
                                    );
                                }
                                let drop = EncodeDrop {
                                    vehicle_id: v.id,
                                    kind: error.kind().to_string(),
                                };
                                (None, Some(drop))
                            }
                        };
                    (
                        Broadcast {
                            scan,
                            pose,
                            estimate,
                            stamp,
                            blind,
                            tx_scan,
                            frame,
                        },
                        encode_drop,
                    )
                })
            };
            let mut broadcasts = Vec::with_capacity(phase1.len());
            let mut encode_drops = Vec::new();
            for (broadcast, drop) in phase1 {
                broadcasts.push(broadcast);
                encode_drops.extend(drop);
            }
            // Serial replay-capture update: a scan-replay fault captures
            // the sender's broadcast at its onset step and freezes it;
            // phase 1 above reads the capture immutably, so every later
            // step retransmits the same frame with the same stamp.
            if let Some(inj) = &injector {
                for (idx, b) in broadcasts.iter().enumerate() {
                    match inj.scan_faults(self.vehicles[idx].id, step).replay_from {
                        Some(onset) => {
                            let captured = replay_cache[idx].as_ref().map(|(o, ..)| *o);
                            if captured != Some(onset) {
                                replay_cache[idx] =
                                    Some((onset, b.scan.clone(), b.estimate, b.stamp));
                            }
                        }
                        None => replay_cache[idx] = None,
                    }
                }
            }
            timings.scan_us = scan_start.elapsed().as_micros() as u64;

            // Phase 2 (serial): connection tracking and delivery
            // decisions, in one global order the channel can rely on.
            let exchange_start = std::time::Instant::now();
            let mut inboxes: Vec<Vec<ExchangePacket>> = Vec::new();
            inboxes.resize_with(self.vehicles.len(), Vec::new);
            let mut inbox_composite: Vec<Vec<bool>> = vec![Vec::new(); self.vehicles.len()];
            let mut bytes_received = vec![0usize; self.vehicles.len()];
            let mut partial_counts = vec![0usize; self.vehicles.len()];
            let mut transport_drops: Vec<TransportDrop> = Vec::new();
            {
                let _exchange_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_EXCHANGE);
                channel.on_step_begin(step);
                for i in 0..self.vehicles.len() {
                    for j in (i + 1)..self.vehicles.len() {
                        let d = broadcasts[i].pose.delta_d(&broadcasts[j].pose);
                        if d <= self.config.comms_range_m {
                            let key = (
                                self.vehicles[i].id.min(self.vehicles[j].id),
                                self.vehicles[i].id.max(self.vehicles[j].id),
                            );
                            *stats.connection_steps.entry(key).or_insert(0) += 1;
                        }
                    }
                }
                let ledger = trust_guard.is_some().then_some(&trust_ledger);
                self.exchange(
                    step,
                    channel,
                    policy,
                    ledger,
                    &mut broadcasts,
                    ExchangeOutputs {
                        inboxes: &mut inboxes,
                        composite: &mut inbox_composite,
                        bytes_received: &mut bytes_received,
                        partial_counts: &mut partial_counts,
                        transport_drops: &mut transport_drops,
                        stats: &mut stats,
                        rx_decoders: &mut rx_decoders,
                    },
                );
                // The offers are spent: free the senders' content before
                // the perceive phase's memory peak.
                for b in &mut broadcasts {
                    b.frame = None;
                }
            }
            timings.exchange_us = exchange_start.elapsed().as_micros() as u64;

            // Phase 3 (parallel): every vehicle fuses its inbox and
            // detects, fanned out as 2n independent tasks — each
            // vehicle's ego-only detection and its cooperative perceive
            // are separate work items, dynamically claimed by workers
            // that each carry a reusable [`DetectScratch`] arena. The
            // detector runs its internals sequentially here: with 2n
            // tasks the fan-out already saturates the workers, and
            // nested spawning would oversubscribe them. Cooperative
            // tasks also return their alignment-guard fallout (rejection
            // drops and verdict aggregates), merged serially below in
            // fleet order to keep the report surface deterministic.
            let perceive_start = std::time::Instant::now();
            let inner = Executor::sequential();
            let tasks: Vec<PerceiveTask> = (0..broadcasts.len())
                .flat_map(|i| [PerceiveTask::Single(i), PerceiveTask::Cooperative(i)])
                .collect();
            let phase3: Vec<PerceiveTaskOutput> = {
                let _perceive_span = cooper_telemetry::span!(telemetry_names::SPAN_FLEET_PERCEIVE);
                executor.map_in(&tasks, DetectScratch::new, |_, task, scratch| match *task {
                    PerceiveTask::Single(i) => PerceiveTaskOutput::Single(
                        pipeline
                            .perceive_single_with(
                                &broadcasts[i].scan,
                                &inner,
                                scratch,
                                caches.get(i),
                            )
                            .len(),
                    ),
                    PerceiveTask::Cooperative(i) => {
                        let me = &broadcasts[i];
                        let id = self.vehicles[i].id;
                        let mut rng = StdRng::seed_from_u64(stream_seed(
                            self.config.seed,
                            id,
                            step,
                            RX_MEASURE_STREAM,
                        ));
                        let clean = self.config.sensor_model.measure(
                            &me.pose,
                            &self.config.origin,
                            &mut rng,
                        );
                        let my_estimate = match &injector {
                            Some(inj) => {
                                inj.measure(id, step, &|s| self.vehicles[i].pose_at(s), clean)
                                    .estimate
                            }
                            None => clean,
                        };
                        // Consistency guard (trust layer on): screen
                        // every delivered cloud against the ego scan's
                        // observed free space and the sender's motion
                        // history before it reaches fusion. Histories
                        // are read from the snapshot taken before the
                        // parallel fan-out; updates apply serially.
                        let mut consistency_drops: Vec<TransportDrop> = Vec::new();
                        let mut history_updates: Vec<((u32, u32), SenderHistory)> = Vec::new();
                        let filtered: Option<Vec<ExchangePacket>> = trust_guard.map(|tg| {
                            let ego_index = FreeSpaceIndex::build(&me.scan, &tg.consistency);
                            // Composite (delta-reconstructed) clouds mix
                            // keyframe-step points with current ones; a
                            // moving sender smears those through space
                            // the ego genuinely observed as free. Skip
                            // the free-space sweep for them (an empty
                            // index yields zero ghost evidence) while
                            // keeping the replay and teleport checks.
                            let empty_index =
                                FreeSpaceIndex::build(&PointCloud::new(), &tg.consistency);
                            let mut kept = Vec::with_capacity(inboxes[i].len());
                            for (k, pkt) in inboxes[i].iter().enumerate() {
                                let Ok(cloud) = pkt.cloud() else {
                                    // Feature frames and undecodable
                                    // payloads flow through; the fusion
                                    // pipeline owns those verdicts.
                                    kept.push(pkt.clone());
                                    continue;
                                };
                                let sweep_index =
                                    if inbox_composite[i].get(k).copied().unwrap_or(false) {
                                        &empty_index
                                    } else {
                                        &ego_index
                                    };
                                if cooper_telemetry::is_enabled() {
                                    cooper_telemetry::counter_add(
                                        telemetry_names::GUARD_CONSISTENCY_CHECKS,
                                        1,
                                    );
                                }
                                let align = alignment_transform(
                                    pkt.pose(),
                                    &my_estimate,
                                    &self.config.origin,
                                );
                                let in_ego = cloud.transformed(&align);
                                let mut centroid = Vec3::new(0.0, 0.0, 0.0);
                                for p in cloud.iter() {
                                    centroid += p.position;
                                }
                                centroid /= cloud.len().max(1) as f64;
                                let world_centroid = RigidTransform::from_pose(
                                    &pkt.pose().to_pose(&self.config.origin),
                                )
                                .apply(centroid);
                                let key = (id, pkt.vehicle_id());
                                let (verdict, next) = check_consistency(
                                    sweep_index,
                                    &in_ego,
                                    world_centroid,
                                    pkt.sequence(),
                                    histories.get(&key),
                                    self.config.step_duration_s,
                                    &tg.consistency,
                                );
                                history_updates.push((key, next));
                                if verdict.is_consistent() {
                                    kept.push(pkt.clone());
                                    continue;
                                }
                                let ghost_points = verdict.ghost_points();
                                if cooper_telemetry::is_enabled() {
                                    cooper_telemetry::counter_add(
                                        telemetry_names::GUARD_CONSISTENCY_GHOST_POINTS,
                                        ghost_points as u64,
                                    );
                                }
                                reject(
                                    &mut consistency_drops,
                                    step,
                                    pkt.vehicle_id(),
                                    id,
                                    TransportDropReason::ConsistencyRejected {
                                        ghost_points: ghost_points as u32,
                                    },
                                );
                            }
                            kept
                        });
                        let fusion_inbox: &[ExchangePacket] =
                            filtered.as_deref().unwrap_or(&inboxes[i]);
                        let outcome = pipeline.perceive_with(
                            &me.scan,
                            &my_estimate,
                            fusion_inbox,
                            &self.config.origin,
                            &inner,
                            scratch,
                            caches.get(i),
                        );
                        let mut align_stats = AlignmentVehicleStats::default();
                        for record in &outcome.alignment {
                            align_stats.absorb(record);
                        }
                        // Terminal trace marks: every delivered packet's
                        // causal chain ends here — fused into detection
                        // input, rejected by the alignment guard (also a
                        // report entry), or dropped by a decode failure.
                        let mut align_drops: Vec<TransportDrop> = Vec::new();
                        for (k, pkt) in fusion_inbox.iter().enumerate() {
                            let from = pkt.vehicle_id();
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
                                Some(_) => cooper_telemetry::trace_mark(
                                    trace,
                                    trace_stage::DECODE_FAILED,
                                    true,
                                ),
                                None => {
                                    cooper_telemetry::trace_mark(trace, trace_stage::FUSED, true)
                                }
                            }
                        }
                        let report = VehicleStepReport {
                            vehicle_id: id,
                            single_detections: 0,
                            cooperative_detections: outcome.detections.len(),
                            packets_received: inboxes[i].len(),
                            packets_dropped: outcome.drops.len() + consistency_drops.len(),
                            packets_partial: partial_counts[i],
                            bytes_received: bytes_received[i],
                            confirmed_tracks: 0,
                            coasting_tracks: 0,
                            trust_violations: 0,
                            quarantined_peers: 0,
                        };
                        PerceiveTaskOutput::Cooperative(Box::new(CooperativeOutput {
                            report,
                            detections: outcome.detections,
                            align_drops,
                            align_stats,
                            consistency_drops,
                            history_updates,
                        }))
                    }
                })
            };
            // Serial merge in fleet order: results arrive in input order
            // (Single(i) at 2i, Cooperative(i) at 2i+1), so zip the
            // pairs back into one report per vehicle. Tracker updates
            // happen here rather than inside the parallel tasks so the
            // temporal state advances in one global order.
            let mut per_vehicle = Vec::with_capacity(broadcasts.len());
            let mut outputs = phase3.into_iter();
            for (i, tracker_slot) in trackers.iter_mut().enumerate() {
                let (Some(single_out), Some(coop_out)) = (outputs.next(), outputs.next()) else {
                    unreachable!("phase 3 returns two outputs per vehicle");
                };
                let PerceiveTaskOutput::Single(single) = single_out else {
                    unreachable!("phase-3 results keep input order");
                };
                let PerceiveTaskOutput::Cooperative(coop) = coop_out else {
                    unreachable!("phase-3 results keep input order");
                };
                let CooperativeOutput {
                    mut report,
                    detections,
                    align_drops,
                    align_stats,
                    consistency_drops,
                    history_updates,
                } = *coop;
                report.single_detections = single;
                for (key, history) in history_updates {
                    histories.insert(key, history);
                }
                if let Some(tracker) = tracker_slot.as_mut() {
                    let summary = tracker.update(&detections, self.config.step_duration_s);
                    let (_tentative, confirmed, coasting) = tracker.state_counts();
                    report.confirmed_tracks = confirmed;
                    report.coasting_tracks = coasting;
                    stats
                        .tracks
                        .entry(self.vehicles[i].id)
                        .or_default()
                        .absorb(detections.len(), &summary);
                    if cooper_telemetry::is_enabled() {
                        cooper_telemetry::counter_add(
                            telemetry_names::TRACK_DETECTIONS_IN,
                            detections.len() as u64,
                        );
                        cooper_telemetry::counter_add(
                            telemetry_names::TRACK_SPAWNED,
                            summary.spawned as u64,
                        );
                        cooper_telemetry::counter_add(
                            telemetry_names::TRACK_PROMOTED,
                            summary.promoted as u64,
                        );
                        cooper_telemetry::counter_add(
                            telemetry_names::TRACK_COASTED,
                            summary.coasted as u64,
                        );
                        cooper_telemetry::counter_add(
                            telemetry_names::TRACK_DROPPED,
                            summary.dropped as u64,
                        );
                    }
                }
                if align_stats.evaluated > 0 {
                    let entry = stats.alignment.entry(self.vehicles[i].id).or_default();
                    entry.evaluated += align_stats.evaluated;
                    entry.refined += align_stats.refined;
                    entry.rejected += align_stats.rejected;
                    entry.residual_before_m_sum += align_stats.residual_before_m_sum;
                    entry.residual_after_m_sum += align_stats.residual_after_m_sum;
                }
                transport_drops.extend(align_drops);
                transport_drops.extend(consistency_drops);
                per_vehicle.push(report);
            }
            // End-of-step trust update (trust layer on): charge this
            // step's violations to their senders, advance every pair's
            // state machine, and stamp the per-vehicle trust columns.
            if let Some(tg) = &trust_guard {
                let mut violations: BTreeMap<(u32, u32), u32> = BTreeMap::new();
                for drop in &transport_drops {
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
                for (idx, inbox) in inboxes.iter().enumerate() {
                    let to = self.vehicles[idx].id;
                    for pkt in inbox {
                        checked.push((to, pkt.vehicle_id()));
                    }
                }
                checked.extend(violations.keys().copied());
                let transitions = trust_ledger.end_step(&violations, &checked, &tg.trust);
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
                            if cooper_telemetry::is_enabled() {
                                cooper_telemetry::counter_add(
                                    telemetry_names::TRUST_QUARANTINES,
                                    1,
                                );
                            }
                        }
                        TrustTransition::Reinstated => {
                            entry.reinstated += 1;
                            if cooper_telemetry::is_enabled() {
                                cooper_telemetry::counter_add(telemetry_names::TRUST_REINSTATED, 1);
                            }
                        }
                        TrustTransition::Paroled | TrustTransition::None => {}
                    }
                }
                for (idx, report) in per_vehicle.iter_mut().enumerate() {
                    let id = self.vehicles[idx].id;
                    report.trust_violations = violations
                        .range((id, u32::MIN)..=(id, u32::MAX))
                        .map(|(_, &v)| v)
                        .sum();
                    report.quarantined_peers = trust_ledger.quarantined_count(id) as u32;
                    stats.trust.entry(id).or_default().violations +=
                        u64::from(report.trust_violations);
                }
            }
            timings.perceive_us = perceive_start.elapsed().as_micros() as u64;

            if cooper_telemetry::is_enabled() {
                cooper_telemetry::record_value(
                    telemetry_names::FLEET_PHASE_SCAN_US,
                    timings.scan_us,
                );
                cooper_telemetry::record_value(
                    telemetry_names::FLEET_PHASE_EXCHANGE_US,
                    timings.exchange_us,
                );
                cooper_telemetry::record_value(
                    telemetry_names::FLEET_PHASE_PERCEIVE_US,
                    timings.perceive_us,
                );
                cooper_telemetry::gauge_set(
                    telemetry_names::FLEET_THREADS,
                    executor.threads() as f64,
                );
                for v in &per_vehicle {
                    cooper_telemetry::counter_add(
                        telemetry_names::FLEET_BYTES_RECEIVED,
                        v.bytes_received as u64,
                    );
                    cooper_telemetry::emit(
                        cooper_telemetry::TelemetryEvent::new(
                            telemetry_names::EVENT_FLEET_VEHICLE_STEP,
                        )
                        .with("step", step)
                        .with("vehicle", v.vehicle_id)
                        .with("single_detections", v.single_detections)
                        .with("cooperative_detections", v.cooperative_detections)
                        .with("packets_received", v.packets_received)
                        .with("packets_dropped", v.packets_dropped)
                        .with("bytes_received", v.bytes_received)
                        .with("confirmed_tracks", v.confirmed_tracks)
                        .with("coasting_tracks", v.coasting_tracks),
                    );
                }
            }
            reports.push(FleetStepReport {
                step,
                per_vehicle,
                encode_drops,
                transport_drops,
                timings,
            });
            world = world.advanced(self.config.step_duration_s);
        }
        (reports, stats)
    }

    /// Phase-2 delivery, serial in (receiver, sender) order: prices each
    /// sender's candidates in air time, asks the [`GovernorPolicy`] what
    /// each directed transfer carries, consults the channel, and
    /// reconstructs received v2 streams through per-sender decoder state
    /// before fusion.
    fn exchange(
        &self,
        step: usize,
        channel: &mut dyn ChannelModel,
        policy: &mut dyn GovernorPolicy,
        trust_ledger: Option<&TrustLedger>,
        broadcasts: &mut [Broadcast],
        out: ExchangeOutputs<'_>,
    ) {
        // Air time is the one price phase 1 cannot set: it needs the
        // channel.
        for frame in broadcasts.iter_mut().filter_map(|b| b.frame.as_mut()) {
            for candidate in &mut frame.candidates {
                candidate.airtime_s = channel.airtime_for(candidate.wire_bytes);
            }
        }
        let broadcasts = &*broadcasts;
        for (i, receiver) in broadcasts.iter().enumerate() {
            let to = self.vehicles[i].id;
            for (j, sender) in broadcasts.iter().enumerate() {
                let Some(frame) = &sender.frame else {
                    continue;
                };
                if i == j || receiver.pose.delta_d(&sender.pose) > self.config.comms_range_m {
                    continue;
                }
                let from = self.vehicles[j].id;
                if trust_ledger.is_some_and(|ledger| ledger.blocks(to, from)) {
                    // Quarantined senders are skipped before anything is
                    // priced: the policy never sees the offer.
                    out.stats.trust.entry(to).or_default().blocked_transfers += 1;
                    let reason = TransportDropReason::Quarantined;
                    reject(out.transport_drops, step, from, to, reason);
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
                        *out.stats.bytes_saved.entry(from).or_insert(0) +=
                            frame.baseline_bytes as u64;
                        let reason = TransportDropReason::BudgetExceeded;
                        reject(out.transport_drops, step, from, to, reason);
                        continue;
                    }
                };
                let packet = frame.packet(sender.tx_scan(), &chosen);
                debug_assert_eq!(packet.wire_size(), chosen.wire_bytes);
                let saved = frame.baseline_bytes.saturating_sub(chosen.wire_bytes) as u64;
                if saved > 0 {
                    *out.stats.bytes_saved.entry(from).or_insert(0) += saved;
                }
                if cooper_telemetry::is_enabled() {
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
                let trace = TraceId::new(step, from, to);
                cooper_telemetry::trace_mark_with(
                    trace,
                    trace_stage::GOVERN_SEND,
                    false,
                    chosen.wire_bytes as u64,
                );
                // A verdict either ends the transfer here or yields what
                // arrived: the reconstructed packet, the wire bytes it
                // took, and the record of a salvaged partial delivery.
                let arrived = match channel.deliver_verdict(&ctx) {
                    Delivery::Delivered => {
                        if trust_ledger.is_some() && packet.verify_integrity().is_err() {
                            // The frame arrived whole but its CRC-32
                            // trailer does not match — at-source
                            // corruption the link layer cannot see.
                            // Bytes were still burned on the air.
                            out.bytes_received[i] += chosen.wire_bytes;
                            let reason = TransportDropReason::IntegrityFailed;
                            reject(out.transport_drops, step, from, to, reason);
                            continue;
                        }
                        cooper_telemetry::trace_mark_with(
                            trace,
                            trace_stage::DELIVERED,
                            false,
                            ctx.wire_bytes as u64,
                        );
                        Self::rx_reconstruct(&mut out.rx_decoders[i], from, &packet)
                            .map(|rx| (rx, chosen.wire_bytes, None))
                    }
                    Delivery::Dropped => {
                        cooper_telemetry::trace_mark(trace, trace_stage::CHANNEL_DROPPED, true);
                        continue;
                    }
                    Delivery::Corrupted => {
                        let reason = TransportDropReason::Corrupted;
                        reject(out.transport_drops, step, from, to, reason);
                        continue;
                    }
                    Delivery::DeadlineExceeded => {
                        let reason = TransportDropReason::DeadlineExceeded;
                        reject(out.transport_drops, step, from, to, reason);
                        continue;
                    }
                    Delivery::Partial {
                        delivered_bytes,
                        total_bytes,
                    } => {
                        // Salvage: decode whatever whole points the
                        // delivered prefix contains and fuse those; the
                        // receiver degrades instead of losing the
                        // sender's scan entirely.
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
                            .and_then(|(prefix, _fraction)| {
                                Self::rx_reconstruct(&mut out.rx_decoders[i], from, &prefix)
                            })
                            .map(|rx| (rx, delivered_bytes, Some(partial)))
                    }
                };
                match arrived {
                    Ok(((packet, composite), bytes, partial)) => {
                        out.bytes_received[i] += bytes;
                        out.inboxes[i].push(packet);
                        out.composite[i].push(composite);
                        if let Some(reason) = partial {
                            out.partial_counts[i] += 1;
                            reject(out.transport_drops, step, from, to, reason);
                        }
                    }
                    Err(error) => {
                        let reason = TransportDropReason::SalvageFailed {
                            kind: error.kind().to_string(),
                        };
                        reject(out.transport_drops, step, from, to, reason);
                    }
                }
            }
            out.stats.total_bytes += out.bytes_received[i] as u64;
        }
    }

    /// Receiver-side reconstruction of a delivered packet: v1 payloads
    /// and v3 feature frames pass through untouched (feature frames are
    /// self-contained; the pipeline fuses them at the BEV level); v2
    /// payloads run through the receiver's per-sender [`DeltaDecoder`]
    /// (caching keyframes, merging deltas) and are re-wrapped as
    /// self-contained packets for the fusion pipeline.
    fn rx_reconstruct(
        decoders: &mut BTreeMap<u32, DeltaDecoder>,
        sender: u32,
        packet: &ExchangePacket,
    ) -> Result<(ExchangePacket, bool), CooperError> {
        let info = packet.frame_info()?;
        if info.version != 2 {
            return Ok((packet.clone(), false));
        }
        // A delta frame merges the receiver's cached keyframe with this
        // step's novel points: the result spans capture instants.
        let composite = info.kind == FrameKind::Delta;
        let decoder = decoders.entry(sender).or_default();
        let cloud = decoder.decode_next(packet.payload())?;
        Ok((packet.with_cloud(&cloud)?, composite))
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
        for report in &reports {
            assert!(
                report.timings.scan_us > 0,
                "scanning two vehicles takes measurable time"
            );
            assert_eq!(
                report.timings.total_us(),
                report.timings.scan_us + report.timings.exchange_us + report.timings.perceive_us
            );
        }
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
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
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
        // Parked vehicles: after `static_threshold` scans the static
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
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
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
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
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
        for (a, b) in base.iter().zip(&inc) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
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
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
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
            ..FleetConfig::default()
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
        for (a, b) in serial.iter().zip(&two) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
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
