//! The cooperative-perception pipeline: fuse, then detect.

use std::sync::Mutex;

use cooper_exec::Executor;
use cooper_geometry::GpsFix;
use cooper_lidar_sim::{ObjectClass, PoseEstimate};
use cooper_pointcloud::{FeatureFrame, PointCloud};
use cooper_spod::bev::{BevMap, Z_STRUCTURE_CHANNELS};
use cooper_spod::{
    fuse_bev, transform_bev, DetectOptions, DetectScratch, Detection, FeatureFusionMode,
    FeaturizeCache, SpodDetector,
};
use cooper_telemetry::names as telemetry_names;

use crate::tracking::{Tracker, TrackerConfig};
use crate::{
    alignment_transform, AlignmentGuardConfig, CooperError, DecodedPacket, GuardDecision,
    GuardReference, Payload,
};

/// Per-receiver detection memos for incremental perception, passed to
/// [`CooperPipeline::perceive_single`] and [`CooperPipeline::perceive`]
/// as [`PerceiveCtx::cache`].
///
/// A receiver runs two detection streams per step — its own scan and
/// the cooperative fused cloud — whose inputs evolve independently, so
/// each stream gets its own [`FeaturizeCache`]. The fields are wrapped
/// in mutexes so a fleet can hold one `PerceptionCache` per vehicle in
/// a shared slice while its single/cooperative perceive tasks run on
/// different workers; each stream's cache is only ever locked by that
/// stream's task, so lock order cannot affect results.
#[derive(Debug, Default)]
pub struct PerceptionCache {
    single: Mutex<FeaturizeCache>,
    cooperative: Mutex<FeaturizeCache>,
}

impl PerceptionCache {
    /// An empty cache; first perceives through it run from scratch.
    pub fn new() -> Self {
        PerceptionCache::default()
    }
}

/// The context of one [`CooperPipeline::perceive_single`] or
/// [`CooperPipeline::perceive`] call. `PerceiveCtx::default()` is the
/// one-shot call: a throwaway scratch arena, no memo and no
/// precomputed BEV.
///
/// Build a context per call. Its memo and BEV belong to one receiver's
/// one input, so only the scratch arena it borrows outlives the call.
#[derive(Debug, Default)]
pub struct PerceiveCtx<'a> {
    /// A caller-owned scratch arena, reused across calls so its buffers
    /// stay allocated; `None` allocates one for this call.
    pub scratch: Option<&'a mut DetectScratch>,
    /// The receiver's detection memos: a cloud bitwise-equal to the
    /// previous input of the same stream returns the stored detections
    /// ([`SpodDetector::detect_incremental`]).
    pub cache: Option<&'a PerceptionCache>,
    /// The receiver's own scan already featurized: the
    /// [`SpodDetector::featurize_with`] map of exactly the call's
    /// `cloud` / `local_cloud`. It saves running the detector trunk on
    /// that scan again.
    pub ego_bev: Option<&'a BevMap>,
}

/// Everything one call to [`CooperPipeline::perceive`] produced: the
/// fused cloud, the detections on it, and an explicit account of every
/// packet that could not be fused. Fusion never aborts; a caller that
/// wants strict semantics checks [`FusionOutcome::drops`].
#[derive(Debug, Clone)]
pub struct FusionOutcome {
    /// The fused cloud in the receiver's sensor frame.
    pub fused_cloud: PointCloud,
    /// Detections on the fused cloud.
    pub detections: Vec<Detection>,
    /// Number of remote packets successfully fused.
    pub packets_fused: usize,
    /// One entry per packet that failed to decode, identifying the
    /// sender and the error. Empty on a clean fuse.
    pub drops: Vec<PacketDrop>,
    /// One entry per packet the alignment guard evaluated, in input
    /// order. Empty when the pipeline runs without a guard.
    pub alignment: Vec<AlignmentRecord>,
}

/// Why one received packet was excluded from fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketDrop {
    /// Position of the packet in `perceive`'s input.
    pub index: usize,
    /// Transmitting vehicle's identifier from the packet header.
    pub vehicle_id: u32,
    /// The decode error that caused the drop.
    pub error: CooperError,
}

/// What the alignment guard concluded about one received packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentRecord {
    /// Position of the packet in `perceive`'s input.
    pub index: usize,
    /// Transmitting vehicle's identifier from the packet header.
    pub vehicle_id: u32,
    /// The guard's verdict for this packet.
    pub decision: GuardDecision,
    /// Matched residual under the GPS/IMU transform, metres.
    pub residual_before_m: f64,
    /// Matched residual under the transform actually used, metres.
    pub residual_after_m: f64,
}

/// One decoded remote payload with what fusion reads from its packet
/// header: its position in the caller's inbox, the sender's id and the
/// sender's pose.
type Remote<T> = (usize, u32, PoseEstimate, T);

/// Aligns and merges every remote cloud into a copy of `local_cloud`.
/// Each cloud comes with its position in the caller's inbox, which the
/// drops and alignment records carry, and is freed once merged.
///
/// With a `guard`, every cloud is validated (and possibly ICP-refined)
/// before merging; guard-rejected clouds surface as
/// [`CooperError::AlignmentRejected`] drops, and every verdict is
/// recorded as an [`AlignmentRecord`]. The guard's [`GuardReference`]
/// on `local_cloud` is built once, on the first cloud, and serves every
/// cloud after it.
fn fuse_packets(
    local_cloud: &PointCloud,
    local_pose: &PoseEstimate,
    remotes: Vec<Remote<PointCloud>>,
    origin: &GpsFix,
    guard: Option<&AlignmentGuardConfig>,
    drops: &mut Vec<PacketDrop>,
) -> (PointCloud, usize, Vec<AlignmentRecord>) {
    let _span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_FUSE);
    let mut merged_points = 0u64;
    let mut alignment = Vec::new();
    // Pass 1: guard every cloud (when configured), keeping the accepted
    // ones with their alignment transforms.
    let mut accepted = Vec::with_capacity(remotes.len());
    let mut reference: Option<GuardReference> = None;
    for (index, vehicle_id, pose, remote_cloud) in remotes {
        let mut transform = alignment_transform(&pose, local_pose, origin);
        if let Some(cfg) = guard {
            let reference = reference.get_or_insert_with(|| {
                let _span = cooper_telemetry::span!(telemetry_names::SPAN_ALIGN_INDEX);
                GuardReference::new(local_cloud, cfg)
            });
            let report = {
                let _span = cooper_telemetry::span!(telemetry_names::SPAN_ALIGN_GUARD);
                reference.guard(&remote_cloud, &transform)
            };
            record_guard_telemetry(&report);
            alignment.push(AlignmentRecord {
                index,
                vehicle_id,
                decision: report.decision,
                residual_before_m: report.residual_before_m,
                residual_after_m: report.residual_after_m,
            });
            if !report.decision.is_accepted() {
                drops.push(PacketDrop {
                    index,
                    vehicle_id,
                    error: CooperError::AlignmentRejected {
                        residual_m: report.residual_after_m,
                    },
                });
                continue;
            }
            transform = report.transform;
        }
        merged_points += remote_cloud.len() as u64;
        accepted.push((remote_cloud, transform));
    }
    // Pass 2: one exact-capacity allocation for the union — knowing
    // every accepted cloud's size up front avoids the grow-and-copy
    // churn of merging into an incrementally reallocated buffer.
    let fused_count = accepted.len();
    let total: usize = local_cloud.len() + accepted.iter().map(|(c, _)| c.len()).sum::<usize>();
    let mut fused = PointCloud::with_capacity(total);
    fused.merge(local_cloud);
    for (remote_cloud, transform) in accepted {
        fused.merge_transformed(&remote_cloud, &transform);
    }
    cooper_telemetry::counter_add(telemetry_names::PIPELINE_PACKETS_FUSED, fused_count as u64);
    cooper_telemetry::counter_add(telemetry_names::PIPELINE_POINTS_MERGED, merged_points);
    (fused, fused_count, alignment)
}

/// Records a packet whose payload failed to decode as a [`PacketDrop`],
/// counted under `pipeline.drop.<kind>`.
fn decode_failed(drops: &mut Vec<PacketDrop>, index: usize, vehicle_id: u32, error: CooperError) {
    if cooper_telemetry::is_enabled() {
        cooper_telemetry::counter_add(
            &format!("{}{}", telemetry_names::PIPELINE_DROP_PREFIX, error.kind()),
            1,
        );
    }
    drops.push(PacketDrop {
        index,
        vehicle_id,
        error,
    });
}

/// Emits the guard's per-packet telemetry: `align.residual` (the
/// post-decision residual in millimetres, finite values only) and the
/// `align.refined` / `align.rejected` / `align.evaluated` counters.
fn record_guard_telemetry(report: &crate::GuardReport) {
    if !cooper_telemetry::is_enabled() {
        return;
    }
    cooper_telemetry::counter_add(telemetry_names::ALIGN_EVALUATED, 1);
    if report.residual_after_m.is_finite() {
        cooper_telemetry::record_value(
            telemetry_names::ALIGN_RESIDUAL,
            (report.residual_after_m * 1000.0).round() as u64,
        );
    }
    match report.decision {
        GuardDecision::AcceptedRefined => {
            cooper_telemetry::counter_add(telemetry_names::ALIGN_REFINED, 1)
        }
        GuardDecision::Rejected | GuardDecision::InsufficientOverlap => {
            cooper_telemetry::counter_add(telemetry_names::ALIGN_REJECTED, 1)
        }
        GuardDecision::AcceptedClean => {}
    }
}

/// The Cooper perception pipeline: a trained SPOD detector plus the
/// align-and-merge machinery of Equations 1–3.
///
/// One pipeline instance serves both single-shot and cooperative
/// perception, because the paper's key design point is that the *same*
/// detector runs on both kinds of input.
#[derive(Debug, Clone)]
pub struct CooperPipeline {
    detector: SpodDetector,
    score_threshold: f32,
    guard: Option<AlignmentGuardConfig>,
    fusion_mode: FeatureFusionMode,
    tracker: Option<TrackerConfig>,
    incremental: bool,
}

impl CooperPipeline {
    /// Creates a pipeline around a trained detector, using the
    /// detector's configured score threshold.
    pub fn new(detector: SpodDetector) -> Self {
        let score_threshold = detector.config().score_threshold;
        CooperPipeline {
            detector,
            score_threshold,
            guard: None,
            fusion_mode: FeatureFusionMode::Max,
            tracker: None,
            incremental: false,
        }
    }

    /// Enables track-level temporal fusion: fleet runs keep one
    /// [`Tracker`] per vehicle and feed it the cooperative detections
    /// every step, smoothing positions and carrying confidence across
    /// detection gaps.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`TrackerConfig::validate`].
    pub fn with_tracker(mut self, config: TrackerConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid tracker config: {msg}");
        }
        self.tracker = Some(config);
        self
    }

    /// A fresh tracker built from the configured parameters, or `None`
    /// when tracking is not enabled.
    pub fn make_tracker(&self) -> Option<Tracker> {
        self.tracker.map(Tracker::new)
    }

    /// Enables incremental perception: fleet runs keep one
    /// [`PerceptionCache`] per vehicle and route detection through
    /// [`SpodDetector::detect_incremental`], so a stream whose input
    /// cloud repeats bit for bit (a static scene seen by a noiseless
    /// sensor) reuses the last step's detections instead of running SPOD
    /// again. Any other input is detected from scratch. Results are
    /// bit-identical to the from-scratch path.
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// `true` when incremental perception is enabled.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// Overrides the detection score threshold.
    pub fn with_score_threshold(mut self, threshold: f32) -> Self {
        self.score_threshold = threshold;
        self
    }

    /// Selects how received BEV feature frames (wire-format v3) are
    /// fused with the receiver's own features: elementwise max
    /// (F-Cooper's operator, the default) or adaptive per-cell
    /// confidence weighting. Point-cloud packets are unaffected.
    pub fn with_fusion_mode(mut self, mode: FeatureFusionMode) -> Self {
        self.fusion_mode = mode;
        self
    }

    /// The active feature-fusion operator.
    pub fn fusion_mode(&self) -> FeatureFusionMode {
        self.fusion_mode
    }

    /// Enables the alignment guard: every received cloud is validated
    /// (and, when recoverable, ICP-refined) before fusion; unverifiable
    /// clouds are excluded and reported as
    /// [`CooperError::AlignmentRejected`] drops.
    pub fn with_alignment_guard(mut self, cfg: AlignmentGuardConfig) -> Self {
        self.guard = Some(cfg);
        self
    }

    /// The underlying detector.
    pub fn detector(&self) -> &SpodDetector {
        &self.detector
    }

    /// Single-shot perception: detect cars on one vehicle's own scan —
    /// the paper's baseline.
    ///
    /// Given [`PerceiveCtx::ego_bev`], only the detector's back half runs,
    /// on that map; otherwise [`PerceiveCtx::cache`] routes detection
    /// through its single-shot memo. Every route returns the same bits.
    pub fn perceive_single(&self, cloud: &PointCloud, ctx: PerceiveCtx<'_>) -> Vec<Detection> {
        let mut own = DetectScratch::new();
        self.detect_cars(
            cloud,
            ctx.ego_bev,
            ctx.scratch.unwrap_or(&mut own),
            ctx.cache.map(|c| &c.single),
        )
    }

    /// Car-only options at the pipeline's score threshold. The detector
    /// internals run sequentially: the fleet already fans perception out
    /// across receivers, and nested spawning would oversubscribe its
    /// workers.
    fn car_options(&self) -> DetectOptions {
        DetectOptions::default()
            .with_class(ObjectClass::Car)
            .with_threshold(self.score_threshold)
            .with_executor(Executor::sequential())
    }

    /// Detects cars in `cloud` under the `pipeline.perceive_single` span:
    /// on `bev` when the caller holds `cloud`'s map, else through the memo
    /// in `stream` when one is given.
    fn detect_cars(
        &self,
        cloud: &PointCloud,
        bev: Option<&BevMap>,
        scratch: &mut DetectScratch,
        stream: Option<&Mutex<FeaturizeCache>>,
    ) -> Vec<Detection> {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_PERCEIVE_SINGLE);
        let options = self.car_options();
        match (bev, stream) {
            (Some(bev), _) => self.detector.detect_bev(bev, &options),
            (None, Some(stream)) => self.detector.detect_incremental(
                cloud,
                &options,
                scratch,
                &mut stream.lock().expect("perception cache poisoned"),
            ),
            (None, None) => self.detector.detect_with(cloud, &options, scratch),
        }
    }

    /// Full cooperative perception: align and merge every decoded
    /// packet into the receiver's frame (Equations 1–3 + Equation 2), run
    /// SPOD on the result, and report packets whose payload did not
    /// decode as [`PacketDrop`]s instead of aborting.
    ///
    /// The packets arrive decoded ([`ExchangePacket::decode`], or a
    /// receiver's delta stream) and are consumed: each payload is freed
    /// once it is fused, before detection runs. Inboxes may mix payload
    /// levels. Point clouds fuse at the raw level; feature frames are
    /// re-binned into the receiver's BEV grid under the GPS/IMU
    /// transform, and fused with the receiver's own features by the
    /// configured [`FeatureFusionMode`] before the RPN head (F-Cooper).
    /// The alignment guard only applies to point clouds — a feature
    /// frame carries no raw points to verify with ICP, so its GPS/IMU
    /// transform is trusted as-is. [`FusionOutcome::fused_cloud`] holds
    /// the point-level union only; feature frames contribute no points.
    ///
    /// An inbox without feature frames is detected on the fused cloud
    /// like [`perceive_single`](Self::perceive_single), through the
    /// cooperative memo of [`PerceiveCtx::cache`] when one is given.
    /// [`PerceiveCtx::ego_bev`] stands in for featurizing the fused cloud
    /// only while no point cloud merged, because the fused cloud is
    /// then a copy of `local_cloud`. Every route returns the same bits.
    ///
    /// [`ExchangePacket::decode`]: crate::ExchangePacket::decode
    pub fn perceive(
        &self,
        local_cloud: &PointCloud,
        local_pose: &PoseEstimate,
        packets: Vec<DecodedPacket>,
        origin: &GpsFix,
        ctx: PerceiveCtx<'_>,
    ) -> FusionOutcome {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_PERCEIVE);
        let mut drops = Vec::new();
        let (mut point_remotes, mut feature_remotes) = (Vec::new(), Vec::new());
        for (index, packet) in packets.into_iter().enumerate() {
            let (id, pose) = (packet.vehicle_id, packet.pose);
            match packet.payload {
                Ok(Payload::Points(cloud)) => point_remotes.push((index, id, pose, cloud)),
                Ok(Payload::Features(frame)) => feature_remotes.push((index, id, pose, frame)),
                Err(error) => decode_failed(&mut drops, index, id, error),
            }
        }
        let (fused_cloud, points_fused, alignment) = fuse_packets(
            local_cloud,
            local_pose,
            point_remotes,
            origin,
            self.guard.as_ref(),
            &mut drops,
        );
        let ego_bev = ctx.ego_bev.filter(|_| points_fused == 0);
        let mut own = DetectScratch::new();
        let scratch = ctx.scratch.unwrap_or(&mut own);
        let (detections, packets_fused) = if feature_remotes.is_empty() {
            let stream = ctx.cache.map(|c| &c.cooperative);
            let detections = self.detect_cars(&fused_cloud, ego_bev, scratch, stream);
            (detections, points_fused)
        } else {
            let remote_maps = self.feature_maps(feature_remotes, local_pose, origin, &mut drops);
            let options = self.car_options();
            let featurized;
            let local_bev = match ego_bev {
                Some(bev) => bev,
                None => {
                    featurized = self
                        .detector
                        .featurize_with(&fused_cloud, &options, scratch);
                    &featurized
                }
            };
            let fused_bev = {
                let _fuse_span =
                    cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_FUSE_FEATURES);
                let mut maps: Vec<&BevMap> = Vec::with_capacity(1 + remote_maps.len());
                maps.push(local_bev);
                maps.extend(remote_maps.iter());
                fuse_bev(&maps, self.fusion_mode)
            };
            let detections = self.detector.detect_bev(&fused_bev, &options);
            (detections, points_fused + remote_maps.len())
        };
        drops.sort_by_key(|d| d.index);
        cooper_telemetry::counter_add(
            telemetry_names::PIPELINE_PACKETS_DROPPED,
            drops.len() as u64,
        );
        FusionOutcome {
            fused_cloud,
            detections,
            packets_fused,
            drops,
            alignment,
        }
    }

    /// Aligns every feature frame into the receiver's BEV grid, recording
    /// channel-mismatched frames as drops.
    fn feature_maps(
        &self,
        remotes: Vec<Remote<FeatureFrame>>,
        local_pose: &PoseEstimate,
        origin: &GpsFix,
        drops: &mut Vec<PacketDrop>,
    ) -> Vec<BevMap> {
        let expected_channels = self.detector.config().channels + Z_STRUCTURE_CHANNELS;
        let grid = &self.detector.config().voxel_grid;
        let mut remote_maps = Vec::with_capacity(remotes.len());
        for (index, vehicle_id, pose, frame) in remotes {
            if frame.channels() != expected_channels {
                let error = CooperError::FeatureMismatch {
                    expected: expected_channels,
                    actual: frame.channels(),
                };
                decode_failed(drops, index, vehicle_id, error);
                continue;
            }
            let transform = alignment_transform(&pose, local_pose, origin);
            remote_maps.push(transform_bev(
                &BevMap::from_feature_frame(&frame),
                &transform,
                grid,
            ));
        }
        cooper_telemetry::counter_add(
            telemetry_names::PIPELINE_FEATURES_FUSED,
            remote_maps.len() as u64,
        );
        cooper_telemetry::counter_add(
            telemetry_names::PIPELINE_PACKETS_FUSED,
            remote_maps.len() as u64,
        );
        remote_maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExchangePacket;
    use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
    use cooper_lidar_sim::{scenario, LidarScanner};
    use cooper_spod::{SpodConfig, SpodDetector};

    fn origin() -> GpsFix {
        GpsFix::new(33.2075, -97.1526, 190.0)
    }

    fn untrained_pipeline() -> CooperPipeline {
        CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
    }

    #[test]
    fn fuse_aligns_remote_points() {
        let pipeline = untrained_pipeline();
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let rx_pose = scene.observers[0];
        let tx_pose = scene.observers[1];
        let local = scanner.scan(&scene.world, &rx_pose, 1);
        let remote = scanner.scan(&scene.world, &tx_pose, 2);

        let rx_est = PoseEstimate::from_pose(&rx_pose, &origin());
        let tx_est = PoseEstimate::from_pose(&tx_pose, &origin());
        let packet = ExchangePacket::build(2, 0, &remote, tx_est).unwrap();
        let outcome = pipeline.perceive(
            &local,
            &rx_est,
            vec![packet.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert!(outcome.drops.is_empty());
        let fused = outcome.fused_cloud;
        assert_eq!(fused.len(), local.len() + remote.len());

        // The remote points, aligned into the receiver frame, must land
        // on the same world surfaces: check a sample against the direct
        // ground-truth transform.
        let direct = RigidTransform::between(&tx_pose, &rx_pose);
        let sample = remote.as_slice()[remote.len() / 2];
        let expected = direct.apply(sample.position);
        let fused_sample = fused.as_slice()[local.len() + remote.len() / 2];
        assert!(
            (fused_sample.position - expected).norm() < 0.02,
            "alignment error {}",
            (fused_sample.position - expected).norm()
        );
    }

    /// Builds a packet whose payload is corrupted so decoding fails
    /// while the header still parses.
    fn corrupt_payload(good: &ExchangePacket) -> ExchangePacket {
        let mut bytes = good.to_bytes().to_vec();
        let header = bytes.len() - good.payload_len();
        bytes[header] = b'Z';
        ExchangePacket::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn perceive_counts_packets() {
        let pipeline = untrained_pipeline();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let est = PoseEstimate::from_pose(&pose, &origin());
        let cloud = PointCloud::new();
        let p1 = ExchangePacket::build(1, 0, &cloud, est).unwrap();
        let p2 = ExchangePacket::build(2, 0, &cloud, est).unwrap();
        let outcome = pipeline.perceive(
            &cloud,
            &est,
            vec![p1.decode(), p2.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(outcome.packets_fused, 2);
        assert!(outcome.detections.is_empty());
        assert!(outcome.drops.is_empty());
    }

    #[test]
    fn perceive_skips_corrupt_packets_and_reports_drops() {
        let pipeline = untrained_pipeline();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let est = PoseEstimate::from_pose(&pose, &origin());
        let mut cloud = PointCloud::new();
        cloud.push(cooper_pointcloud::Point::new(
            Vec3::new(5.0, 0.0, -1.0),
            0.5,
        ));
        let good = ExchangePacket::build(1, 0, &cloud, est).unwrap();
        let bad = corrupt_payload(&good);
        let outcome = pipeline.perceive(
            &cloud,
            &est,
            vec![good.decode(), bad.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(outcome.packets_fused, 1);
        assert_eq!(outcome.drops.len(), 1);
        assert_eq!(outcome.drops[0].index, 1);
        assert_eq!(outcome.drops[0].vehicle_id, 1);
        assert_eq!(outcome.drops[0].error.kind(), "codec");
        assert_eq!(outcome.fused_cloud.len(), 2);
    }

    #[test]
    fn guarded_perceive_rejects_bad_pose_and_accepts_clean() {
        let pipeline = untrained_pipeline().with_alignment_guard(AlignmentGuardConfig::default());
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let rx_pose = scene.observers[0];
        let tx_pose = scene.observers[1];
        let local = scanner.scan(&scene.world, &rx_pose, 1);
        let remote = scanner.scan(&scene.world, &tx_pose, 2);
        let rx_est = PoseEstimate::from_pose(&rx_pose, &origin());
        let tx_est = PoseEstimate::from_pose(&tx_pose, &origin());

        // Clean pose: fused, recorded as accepted.
        let good = ExchangePacket::build(2, 0, &remote, tx_est).unwrap();
        let outcome = pipeline.perceive(
            &local,
            &rx_est,
            vec![good.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(outcome.packets_fused, 1);
        assert_eq!(outcome.alignment.len(), 1);
        assert!(outcome.alignment[0].decision.is_accepted());

        // Grossly wrong pose: excluded, reported as AlignmentRejected,
        // detections equal the ego-only result.
        let mut bad_est = tx_est;
        bad_est.gps = bad_est.gps.offset_by(Vec3::new(40.0, -25.0, 0.0));
        let bad = ExchangePacket::build(2, 1, &remote, bad_est).unwrap();
        let outcome = pipeline.perceive(
            &local,
            &rx_est,
            vec![bad.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(outcome.packets_fused, 0);
        assert_eq!(outcome.fused_cloud.len(), local.len());
        assert_eq!(outcome.drops.len(), 1);
        assert_eq!(outcome.drops[0].error.kind(), "alignment_rejected");
        assert!(!outcome.alignment[0].decision.is_accepted());
        let ego = pipeline.perceive_single(&local, PerceiveCtx::default());
        assert_eq!(outcome.detections.len(), ego.len());
    }

    #[test]
    fn unguarded_perceive_records_no_alignment() {
        let pipeline = untrained_pipeline();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let est = PoseEstimate::from_pose(&pose, &origin());
        let cloud = PointCloud::new();
        let p1 = ExchangePacket::build(1, 0, &cloud, est).unwrap();
        let outcome = pipeline.perceive(
            &cloud,
            &est,
            vec![p1.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert!(outcome.alignment.is_empty());
    }

    #[test]
    fn perceive_fuses_feature_packets_at_the_bev_level() {
        let pipeline = untrained_pipeline();
        assert_eq!(pipeline.fusion_mode(), cooper_spod::FeatureFusionMode::Max);
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let rx_pose = scene.observers[0];
        let tx_pose = scene.observers[1];
        let local = scanner.scan(&scene.world, &rx_pose, 1);
        let remote = scanner.scan(&scene.world, &tx_pose, 2);
        let rx_est = PoseEstimate::from_pose(&rx_pose, &origin());
        let tx_est = PoseEstimate::from_pose(&tx_pose, &origin());
        // The sender runs the SPOD front half and ships features.
        let frame = pipeline.detector().featurize(&remote).to_feature_frame();
        assert!(!frame.is_empty());
        let packet = ExchangePacket::build_features(2, 0, &frame, tx_est).unwrap();
        assert_eq!(
            packet.frame_info().unwrap().kind,
            cooper_pointcloud::FrameKind::Features
        );
        let outcome = pipeline.perceive(
            &local,
            &rx_est,
            vec![packet.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(outcome.packets_fused, 1);
        assert!(outcome.drops.is_empty());
        // Feature packets contribute no raw points.
        assert_eq!(outcome.fused_cloud.len(), local.len());
        // The guard never sees feature frames.
        assert!(outcome.alignment.is_empty());
    }

    #[test]
    fn perceive_reports_feature_channel_mismatch_with_input_index() {
        let pipeline = untrained_pipeline();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let est = PoseEstimate::from_pose(&pose, &origin());
        let mut cloud = PointCloud::new();
        cloud.push(cooper_pointcloud::Point::new(
            Vec3::new(5.0, 0.0, -1.0),
            0.5,
        ));
        let good = ExchangePacket::build(1, 0, &cloud, est).unwrap();
        let frame = cooper_pointcloud::FeatureFrame::new(2, vec![(0, 0)], vec![0.5, 0.25]);
        let bad = ExchangePacket::build_features(3, 0, &frame, est).unwrap();
        let outcome = pipeline.perceive(
            &cloud,
            &est,
            vec![good.decode(), bad.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(outcome.packets_fused, 1);
        assert_eq!(outcome.drops.len(), 1);
        assert_eq!(outcome.drops[0].index, 1);
        assert_eq!(outcome.drops[0].vehicle_id, 3);
        assert_eq!(outcome.drops[0].error.kind(), "feature_mismatch");
    }

    #[test]
    fn cached_perceive_matches_perceive_over_steps() {
        let pipeline = untrained_pipeline().with_score_threshold(0.4);
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let rx_pose = scene.observers[0];
        let rx_est = PoseEstimate::from_pose(&rx_pose, &origin());
        let local = scanner.scan(&scene.world, &rx_pose, 1);
        let cache = PerceptionCache::new();
        let mut scratch = DetectScratch::new();
        // Three steps: the sender's scan changes, repeats, then changes
        // again — every step must match the uncached path bit for bit.
        for seed in [2u64, 2, 5] {
            let tx_pose = scene.observers[1];
            let remote = scanner.scan(&scene.world, &tx_pose, seed);
            let tx_est = PoseEstimate::from_pose(&tx_pose, &origin());
            let packet = ExchangePacket::build(2, 0, &remote, tx_est).unwrap();
            let cached = pipeline.perceive(
                &local,
                &rx_est,
                vec![packet.decode()],
                &origin(),
                PerceiveCtx {
                    scratch: Some(&mut scratch),
                    cache: Some(&cache),
                    ego_bev: None,
                },
            );
            let plain = pipeline.perceive(
                &local,
                &rx_est,
                vec![packet.decode()],
                &origin(),
                PerceiveCtx::default(),
            );
            assert_eq!(cached.detections, plain.detections);
            assert_eq!(cached.fused_cloud, plain.fused_cloud);
            assert_eq!(cached.packets_fused, plain.packets_fused);
        }
        // The single-shot stream, cold and then repeated.
        for _ in 0..2 {
            let ctx = PerceiveCtx {
                scratch: Some(&mut scratch),
                cache: Some(&cache),
                ego_bev: None,
            };
            let single_cached = pipeline.perceive_single(&local, ctx);
            assert_eq!(
                single_cached,
                pipeline.perceive_single(&local, PerceiveCtx::default())
            );
        }
    }

    #[test]
    fn cached_perceive_falls_back_on_feature_packets() {
        let pipeline = untrained_pipeline();
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let rx_est = PoseEstimate::from_pose(&scene.observers[0], &origin());
        let tx_est = PoseEstimate::from_pose(&scene.observers[1], &origin());
        let local = scanner.scan(&scene.world, &scene.observers[0], 1);
        let remote = scanner.scan(&scene.world, &scene.observers[1], 2);
        let frame = pipeline.detector().featurize(&remote).to_feature_frame();
        let packet = ExchangePacket::build_features(2, 0, &frame, tx_est).unwrap();
        let cache = PerceptionCache::new();
        let cached = pipeline.perceive(
            &local,
            &rx_est,
            vec![packet.decode()],
            &origin(),
            PerceiveCtx {
                cache: Some(&cache),
                ..PerceiveCtx::default()
            },
        );
        let plain = pipeline.perceive(
            &local,
            &rx_est,
            vec![packet.decode()],
            &origin(),
            PerceiveCtx::default(),
        );
        assert_eq!(cached.detections, plain.detections);
        assert_eq!(cached.packets_fused, plain.packets_fused);
        // The BEV path leaves the cooperative memo untouched.
        assert!(!cache.cooperative.lock().unwrap().is_warm());
    }

    #[test]
    fn cached_perceive_routes_each_stream_to_its_own_memo() {
        let pipeline = untrained_pipeline();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let est = PoseEstimate::from_pose(&pose, &origin());
        let mut cloud = PointCloud::new();
        cloud.push(cooper_pointcloud::Point::new(
            Vec3::new(5.0, 0.0, -1.0),
            0.5,
        ));
        let packet = ExchangePacket::build(1, 0, &cloud, est).unwrap();
        let cache = PerceptionCache::new();
        let warm = |stream: &Mutex<FeaturizeCache>| stream.lock().unwrap().is_warm();
        let cached = || PerceiveCtx {
            cache: Some(&cache),
            ..PerceiveCtx::default()
        };
        let _ = pipeline.perceive_single(&cloud, cached());
        assert!(warm(&cache.single) && !warm(&cache.cooperative));
        let _ = pipeline.perceive(&cloud, &est, vec![packet.decode()], &origin(), cached());
        assert!(warm(&cache.cooperative));
    }

    /// `perceive` with the receiver's own BEV supplied must equal the
    /// plain call on every [`FusionOutcome`] field. `Debug` prints each
    /// float in its shortest round-trip form, so equal text means equal
    /// bits.
    fn perceive_reusing_ego_bev(
        pipeline: &CooperPipeline,
        local: &PointCloud,
        rx_est: &PoseEstimate,
        inbox: &[ExchangePacket],
    ) -> FusionOutcome {
        let bev = pipeline.detector().featurize(local);
        let ctx = PerceiveCtx {
            ego_bev: Some(&bev),
            ..PerceiveCtx::default()
        };
        let decoded = || inbox.iter().map(ExchangePacket::decode).collect();
        let reused = pipeline.perceive(local, rx_est, decoded(), &origin(), ctx);
        let plain = pipeline.perceive(local, rx_est, decoded(), &origin(), PerceiveCtx::default());
        assert_eq!(format!("{reused:?}"), format!("{plain:?}"));
        reused
    }

    #[test]
    fn ego_bev_perceive_matches_plain_perceive_on_every_inbox() {
        let pipeline = untrained_pipeline().with_score_threshold(0.4);
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let local = scanner.scan(&scene.world, &scene.observers[0], 1);
        let remote = scanner.scan(&scene.world, &scene.observers[1], 2);
        let rx_est = PoseEstimate::from_pose(&scene.observers[0], &origin());
        let tx_est = PoseEstimate::from_pose(&scene.observers[1], &origin());
        let points = ExchangePacket::build(2, 0, &remote, tx_est).unwrap();
        let corrupt = corrupt_payload(&points);
        let frame = pipeline.detector().featurize(&remote).to_feature_frame();
        let features = ExchangePacket::build_features(3, 0, &frame, tx_est).unwrap();
        let ego_only = pipeline.perceive_single(&local, PerceiveCtx::default());
        assert!(!ego_only.is_empty(), "the scene must yield detections");

        // Nothing merges: the fused cloud is the ego scan, whose BEV
        // the supplied one is.
        for inbox in [
            vec![],
            vec![features.clone()],
            vec![corrupt.clone()],
            vec![corrupt, features.clone()],
        ] {
            let outcome = perceive_reusing_ego_bev(&pipeline, &local, &rx_est, &inbox);
            assert_eq!(outcome.fused_cloud, local);
            assert_eq!(outcome.drops.len() + outcome.packets_fused, inbox.len());
        }
        // A point packet merges: the ego BEV no longer describes the
        // fused cloud, and the merge changes what is detected.
        for inbox in [vec![points.clone()], vec![points, features]] {
            let outcome = perceive_reusing_ego_bev(&pipeline, &local, &rx_est, &inbox);
            assert_eq!(outcome.fused_cloud.len(), local.len() + remote.len());
            assert_ne!(outcome.detections, ego_only);
        }
    }

    #[test]
    fn ego_bev_single_matches_plain_single() {
        let pipeline = untrained_pipeline().with_score_threshold(0.4);
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let local = scanner.scan(&scene.world, &scene.observers[0], 1);
        let bev = pipeline.detector().featurize(&local);
        let cache = PerceptionCache::new();
        let reused = pipeline.perceive_single(
            &local,
            PerceiveCtx {
                cache: Some(&cache),
                ego_bev: Some(&bev),
                ..PerceiveCtx::default()
            },
        );
        let plain = pipeline.perceive_single(&local, PerceiveCtx::default());
        assert!(!plain.is_empty());
        assert_eq!(format!("{reused:?}"), format!("{plain:?}"));
        // The BEV route skips the memo.
        assert!(!cache.single.lock().unwrap().is_warm());
    }

    #[test]
    fn tracker_builder_round_trip() {
        let pipeline = untrained_pipeline();
        assert!(pipeline.make_tracker().is_none());
        assert!(!pipeline.incremental());
        let pipeline = pipeline
            .with_tracker(crate::tracking::TrackerConfig::default())
            .with_incremental();
        assert!(pipeline.make_tracker().unwrap().tracks().is_empty());
        assert!(pipeline.incremental());
    }

    #[test]
    #[should_panic(expected = "invalid tracker config")]
    fn with_tracker_rejects_bad_config() {
        let bad = crate::tracking::TrackerConfig {
            gate_distance: -1.0,
            ..Default::default()
        };
        let _ = untrained_pipeline().with_tracker(bad);
    }

    #[test]
    fn fusion_mode_builder_selects_adaptive() {
        let pipeline =
            untrained_pipeline().with_fusion_mode(cooper_spod::FeatureFusionMode::Adaptive);
        assert_eq!(
            pipeline.fusion_mode(),
            cooper_spod::FeatureFusionMode::Adaptive
        );
    }

    #[test]
    fn threshold_override() {
        let pipeline = untrained_pipeline().with_score_threshold(0.9);
        assert_eq!(pipeline.score_threshold, 0.9);
        // Untrained heads score 0.5 — nothing clears 0.9.
        let mut cloud = PointCloud::new();
        cloud.push(cooper_pointcloud::Point::new(
            Vec3::new(5.0, 0.0, -1.0),
            0.5,
        ));
        assert!(pipeline
            .perceive_single(&cloud, PerceiveCtx::default())
            .is_empty());
    }
}
