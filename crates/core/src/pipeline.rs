//! The cooperative-perception pipeline: fuse, then detect.

use std::sync::Mutex;

use cooper_exec::Executor;
use cooper_geometry::{GpsFix, Pose};
use cooper_lidar_sim::{ObjectClass, PoseEstimate};
use cooper_pointcloud::{FrameKind, PointCloud};
use cooper_spod::bev::{BevMap, Z_STRUCTURE_CHANNELS};
use cooper_spod::{
    fuse_bev, transform_bev, DetectOptions, DetectScratch, Detection, FeatureFusionMode,
    FeaturizeCache, SpodDetector,
};
use cooper_telemetry::names as telemetry_names;

use crate::temporal::TemporalAggregator;
use crate::tracking::{Tracker, TrackerConfig};
use crate::{
    alignment_transform, guard_alignment, AlignmentGuardConfig, CooperError, ExchangePacket,
    GuardDecision,
};

/// Per-receiver detection memos for incremental perception, passed as
/// the `cache` argument of [`CooperPipeline::perceive_single_with`] and
/// [`CooperPipeline::perceive_with`].
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

/// The outcome of one cooperative perception step.
#[derive(Debug, Clone)]
pub struct CooperativeResult {
    /// The fused cloud in the receiver's sensor frame.
    pub fused_cloud: PointCloud,
    /// Detections on the fused cloud.
    pub detections: Vec<Detection>,
    /// Number of remote packets successfully fused — derived from the
    /// merges that actually happened, not from the input length.
    pub packets_fused: usize,
}

/// Everything one call to [`CooperPipeline::perceive`] produced: the
/// fused cloud, the detections on it, and an explicit account of every
/// packet that could not be fused.
///
/// This replaces the old strict/lossy pair of entry points. A caller
/// that wants strict semantics checks [`FusionOutcome::drops`] (or uses
/// [`FusionOutcome::into_strict`]); a robust receiver just uses the
/// result — fusion never aborts.
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

impl FusionOutcome {
    /// Converts to the old strict contract: `Err` with the first drop's
    /// error when any packet failed, `Ok` with the fused result
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns the first packet decoding error encountered.
    pub fn into_strict(self) -> Result<CooperativeResult, CooperError> {
        match self.drops.into_iter().next() {
            Some(drop) => Err(drop.error),
            None => Ok(CooperativeResult {
                fused_cloud: self.fused_cloud,
                detections: self.detections,
                packets_fused: self.packets_fused,
            }),
        }
    }
}

/// Why one received packet was excluded from fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketDrop {
    /// Position of the packet in the input slice.
    pub index: usize,
    /// Transmitting vehicle's identifier from the packet header.
    pub vehicle_id: u32,
    /// The decode error that caused the drop.
    pub error: CooperError,
}

/// What the alignment guard concluded about one received packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentRecord {
    /// Position of the packet in the input slice.
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

/// Aligns and merges every decodable packet into a copy of
/// `local_cloud`, collecting a [`PacketDrop`] per failure. All fusion
/// entry points share this helper so their semantics and telemetry
/// cannot drift apart.
///
/// With a `guard`, every decoded cloud is validated (and possibly
/// ICP-refined) before merging; guard-rejected clouds surface as
/// [`CooperError::AlignmentRejected`] drops, and every verdict is
/// recorded as an [`AlignmentRecord`].
fn fuse_packets(
    local_cloud: &PointCloud,
    local_pose: &PoseEstimate,
    packets: &[ExchangePacket],
    origin: &GpsFix,
    guard: Option<&AlignmentGuardConfig>,
) -> (PointCloud, usize, Vec<PacketDrop>, Vec<AlignmentRecord>) {
    let _span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_FUSE);
    let mut fused_count = 0usize;
    let mut merged_points = 0u64;
    let mut drops = Vec::new();
    let mut alignment = Vec::new();
    // Pass 1: decode and (optionally) guard every packet, keeping the
    // accepted clouds with their alignment transforms.
    let mut accepted = Vec::with_capacity(packets.len());
    for (index, packet) in packets.iter().enumerate() {
        match packet.cloud() {
            Ok(remote_cloud) => {
                let mut transform = alignment_transform(packet.pose(), local_pose, origin);
                if let Some(cfg) = guard {
                    let report = guard_alignment(local_cloud, &remote_cloud, &transform, cfg);
                    record_guard_telemetry(&report);
                    alignment.push(AlignmentRecord {
                        index,
                        vehicle_id: packet.vehicle_id(),
                        decision: report.decision,
                        residual_before_m: report.residual_before_m,
                        residual_after_m: report.residual_after_m,
                    });
                    if !report.decision.is_accepted() {
                        drops.push(PacketDrop {
                            index,
                            vehicle_id: packet.vehicle_id(),
                            error: CooperError::AlignmentRejected {
                                residual_m: report.residual_after_m,
                            },
                        });
                        continue;
                    }
                    transform = report.transform;
                }
                merged_points += remote_cloud.len() as u64;
                fused_count += 1;
                accepted.push((remote_cloud, transform));
            }
            Err(error) => {
                if cooper_telemetry::is_enabled() {
                    cooper_telemetry::counter_add(
                        &format!("{}{}", telemetry_names::PIPELINE_DROP_PREFIX, error.kind()),
                        1,
                    );
                }
                drops.push(PacketDrop {
                    index,
                    vehicle_id: packet.vehicle_id(),
                    error,
                });
            }
        }
    }
    // Pass 2: one exact-capacity allocation for the union — knowing
    // every accepted cloud's size up front avoids the grow-and-copy
    // churn of merging into an incrementally reallocated buffer.
    let total: usize = local_cloud.len() + accepted.iter().map(|(c, _)| c.len()).sum::<usize>();
    let mut fused = PointCloud::with_capacity(total);
    fused.merge(local_cloud);
    for (remote_cloud, transform) in &accepted {
        fused.merge_transformed(remote_cloud, transform);
    }
    cooper_telemetry::counter_add(telemetry_names::PIPELINE_PACKETS_FUSED, fused_count as u64);
    cooper_telemetry::counter_add(
        telemetry_names::PIPELINE_PACKETS_DROPPED,
        drops.len() as u64,
    );
    cooper_telemetry::counter_add(telemetry_names::PIPELINE_POINTS_MERGED, merged_points);
    (fused, fused_count, drops, alignment)
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

    /// The tracker configuration, when track-level fusion is enabled.
    pub fn tracker_config(&self) -> Option<&TrackerConfig> {
        self.tracker.as_ref()
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

    /// The active alignment-guard configuration, if any.
    pub fn alignment_guard(&self) -> Option<&AlignmentGuardConfig> {
        self.guard.as_ref()
    }

    /// The underlying detector.
    pub fn detector(&self) -> &SpodDetector {
        &self.detector
    }

    /// Single-shot perception: detect cars on one vehicle's own scan —
    /// the paper's baseline.
    pub fn perceive_single(&self, cloud: &PointCloud) -> Vec<Detection> {
        self.perceive_single_with(
            cloud,
            &Executor::sequential(),
            &mut DetectScratch::new(),
            None,
        )
    }

    /// [`perceive_single`](Self::perceive_single) with an explicit
    /// executor and a caller-owned scratch arena, for callers (the fleet
    /// stepper, benches) that run many perceive calls and want to
    /// parallelize the detector internals while reusing its buffers.
    ///
    /// With a `cache`, detection goes through its single-shot stream
    /// ([`SpodDetector::detect_incremental`]): a scan bitwise-equal to
    /// the previous one returns the stored detections. Bit-identical to
    /// the uncached call on any input.
    pub fn perceive_single_with(
        &self,
        cloud: &PointCloud,
        executor: &Executor,
        scratch: &mut DetectScratch,
        cache: Option<&PerceptionCache>,
    ) -> Vec<Detection> {
        self.detect_cars(cloud, executor, scratch, cache.map(|c| &c.single))
    }

    /// Car-only options at the pipeline's score threshold.
    fn car_options(&self, executor: &Executor) -> DetectOptions {
        DetectOptions::default()
            .with_class(ObjectClass::Car)
            .with_threshold(self.score_threshold)
            .with_executor(*executor)
    }

    /// Detects cars in `cloud` under the `pipeline.perceive_single` span,
    /// through the memo in `stream` when one is given.
    fn detect_cars(
        &self,
        cloud: &PointCloud,
        executor: &Executor,
        scratch: &mut DetectScratch,
        stream: Option<&Mutex<FeaturizeCache>>,
    ) -> Vec<Detection> {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_PERCEIVE_SINGLE);
        let options = self.car_options(executor);
        match stream {
            Some(stream) => self.detector.detect_incremental(
                cloud,
                &options,
                scratch,
                &mut stream.lock().expect("perception cache poisoned"),
            ),
            None => self.detector.detect_with(cloud, &options, scratch),
        }
    }

    /// Temporal self-fusion perception — the paper's Figure-2 procedure
    /// as an online step: fuse the retained past frames into the
    /// current scan's frame ([`TemporalAggregator::fused_in`]), detect
    /// on the densified union, then record the current frame for future
    /// steps.
    pub fn perceive_temporal(
        &self,
        aggregator: &mut TemporalAggregator,
        pose: &Pose,
        scan: &PointCloud,
    ) -> Vec<Detection> {
        let fused = aggregator.fused_in(pose, scan);
        let detections = self.perceive_single(&fused);
        aggregator.push(*pose, scan.clone());
        detections
    }

    /// Single-shot perception over all target classes.
    pub fn perceive_single_all_classes(&self, cloud: &PointCloud) -> Vec<Detection> {
        let options = DetectOptions::default().with_threshold(self.score_threshold);
        self.detector
            .detect_with(cloud, &options, &mut DetectScratch::new())
    }

    /// Fuses remote packets into the receiver's frame (Equations 1–3 +
    /// Equation 2) without running detection.
    ///
    /// # Errors
    ///
    /// Returns the first packet decoding error encountered. Alignment
    /// itself cannot fail once a packet decodes: the pose is validated
    /// at decode time.
    pub fn fuse(
        &self,
        local_cloud: &PointCloud,
        local_pose: &PoseEstimate,
        packets: &[ExchangePacket],
        origin: &GpsFix,
    ) -> Result<PointCloud, CooperError> {
        let (fused, _, drops, _) = fuse_packets(
            local_cloud,
            local_pose,
            packets,
            origin,
            self.guard.as_ref(),
        );
        match drops.into_iter().next() {
            Some(drop) => Err(drop.error),
            None => Ok(fused),
        }
    }

    /// Full cooperative perception — the single entry point: align and
    /// merge every decodable packet into the receiver's frame
    /// (Equations 1–3 + Equation 2), run SPOD on the fused cloud, and
    /// report undecodable packets as [`PacketDrop`]s instead of
    /// aborting.
    pub fn perceive(
        &self,
        local_cloud: &PointCloud,
        local_pose: &PoseEstimate,
        packets: &[ExchangePacket],
        origin: &GpsFix,
    ) -> FusionOutcome {
        self.perceive_with(
            local_cloud,
            local_pose,
            packets,
            origin,
            &Executor::sequential(),
            &mut DetectScratch::new(),
            None,
        )
    }

    /// [`perceive`](Self::perceive) with an explicit executor and a
    /// caller-owned scratch arena; the executor parallelizes the SPOD
    /// internals on the fused cloud, and the scratch's rulebook arena is
    /// reused across calls.
    ///
    /// Inboxes may mix payload levels. Point-cloud packets (v1/v2) fuse
    /// at the raw level as before; feature-frame packets (v3) are
    /// decoded, re-binned into the receiver's BEV grid under the GPS/IMU
    /// transform, and fused with the receiver's own features by the
    /// configured [`FeatureFusionMode`] before the RPN head (F-Cooper).
    /// The alignment guard only applies to point packets — a feature
    /// frame carries no raw points to verify with ICP, so its GPS/IMU
    /// transform is trusted as-is. [`FusionOutcome::fused_cloud`] holds
    /// the point-level union only; feature packets contribute no points.
    ///
    /// With a `cache`, an inbox of point packets only is detected through
    /// the cache's cooperative stream
    /// ([`SpodDetector::detect_incremental`]): a fused cloud
    /// bitwise-equal to the previous step's returns the stored
    /// detections. An inbox holding any feature frame takes the BEV path
    /// above and leaves the cache unused, because feature fusion happens
    /// past the point cloud the memo keys on. Bit-identical to the
    /// uncached call on any inbox.
    #[allow(clippy::too_many_arguments)]
    pub fn perceive_with(
        &self,
        local_cloud: &PointCloud,
        local_pose: &PoseEstimate,
        packets: &[ExchangePacket],
        origin: &GpsFix,
        executor: &Executor,
        scratch: &mut DetectScratch,
        cache: Option<&PerceptionCache>,
    ) -> FusionOutcome {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_PERCEIVE);
        // Partition the inbox: v3 payloads fuse at the feature level,
        // everything else (including undecodable headers, which the
        // point path reports as drops) at the point level.
        let mut point_packets = Vec::with_capacity(packets.len());
        let mut point_indices = Vec::with_capacity(packets.len());
        let mut feature_packets = Vec::new();
        for (index, packet) in packets.iter().enumerate() {
            let is_features = packet
                .frame_info()
                .is_ok_and(|info| info.kind == FrameKind::Features);
            if is_features {
                feature_packets.push((index, packet));
            } else {
                point_indices.push(index);
                point_packets.push(packet.clone());
            }
        }
        if feature_packets.is_empty() {
            let (fused_cloud, fused_count, drops, alignment) = fuse_packets(
                local_cloud,
                local_pose,
                packets,
                origin,
                self.guard.as_ref(),
            );
            let detections = self.detect_cars(
                &fused_cloud,
                executor,
                scratch,
                cache.map(|c| &c.cooperative),
            );
            return FusionOutcome {
                fused_cloud,
                detections,
                packets_fused: fused_count,
                drops,
                alignment,
            };
        }
        let (fused_cloud, mut fused_count, mut drops, mut alignment) = fuse_packets(
            local_cloud,
            local_pose,
            &point_packets,
            origin,
            self.guard.as_ref(),
        );
        // fuse_packets saw the point subset; restore input positions.
        for drop in &mut drops {
            drop.index = point_indices[drop.index];
        }
        for record in &mut alignment {
            record.index = point_indices[record.index];
        }
        let remote_maps = self.decode_feature_maps(
            &feature_packets,
            local_pose,
            origin,
            &mut fused_count,
            &mut drops,
        );
        drops.sort_by_key(|d| d.index);
        let options = self.car_options(executor);
        let local_bev = self
            .detector
            .featurize_with(&fused_cloud, &options, scratch);
        let fused_bev = {
            let _fuse_span = cooper_telemetry::span!(telemetry_names::SPAN_PIPELINE_FUSE_FEATURES);
            let mut maps: Vec<&BevMap> = Vec::with_capacity(1 + remote_maps.len());
            maps.push(&local_bev);
            maps.extend(remote_maps.iter());
            fuse_bev(&maps, self.fusion_mode)
        };
        let detections = self.detector.detect_bev(&fused_bev, &options);
        FusionOutcome {
            fused_cloud,
            detections,
            packets_fused: fused_count,
            drops,
            alignment,
        }
    }

    /// Decodes and aligns every v3 packet into the receiver's BEV grid,
    /// recording undecodable or channel-mismatched frames as drops.
    fn decode_feature_maps(
        &self,
        feature_packets: &[(usize, &ExchangePacket)],
        local_pose: &PoseEstimate,
        origin: &GpsFix,
        fused_count: &mut usize,
        drops: &mut Vec<PacketDrop>,
    ) -> Vec<BevMap> {
        let expected_channels = self.detector.config().channels + Z_STRUCTURE_CHANNELS;
        let grid = &self.detector.config().voxel_grid;
        let mut remote_maps = Vec::with_capacity(feature_packets.len());
        let mut dropped = 0u64;
        for &(index, packet) in feature_packets {
            let outcome = packet.feature_frame().and_then(|frame| {
                if frame.channels() == expected_channels {
                    Ok(frame)
                } else {
                    Err(CooperError::FeatureMismatch {
                        expected: expected_channels,
                        actual: frame.channels(),
                    })
                }
            });
            match outcome {
                Ok(frame) => {
                    let transform = alignment_transform(packet.pose(), local_pose, origin);
                    remote_maps.push(transform_bev(
                        &BevMap::from_feature_frame(&frame),
                        &transform,
                        grid,
                    ));
                    *fused_count += 1;
                }
                Err(error) => {
                    if cooper_telemetry::is_enabled() {
                        cooper_telemetry::counter_add(
                            &format!("{}{}", telemetry_names::PIPELINE_DROP_PREFIX, error.kind()),
                            1,
                        );
                    }
                    dropped += 1;
                    drops.push(PacketDrop {
                        index,
                        vehicle_id: packet.vehicle_id(),
                        error,
                    });
                }
            }
        }
        cooper_telemetry::counter_add(
            telemetry_names::PIPELINE_FEATURES_FUSED,
            remote_maps.len() as u64,
        );
        cooper_telemetry::counter_add(
            telemetry_names::PIPELINE_PACKETS_FUSED,
            remote_maps.len() as u64,
        );
        cooper_telemetry::counter_add(telemetry_names::PIPELINE_PACKETS_DROPPED, dropped);
        remote_maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let fused = pipeline
            .fuse(&local, &rx_est, &[packet], &origin())
            .unwrap();
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
        let outcome = pipeline.perceive(&cloud, &est, &[p1, p2], &origin());
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
        let outcome = pipeline.perceive(&cloud, &est, &[good, bad], &origin());
        assert_eq!(outcome.packets_fused, 1);
        assert_eq!(outcome.drops.len(), 1);
        assert_eq!(outcome.drops[0].index, 1);
        assert_eq!(outcome.drops[0].vehicle_id, 1);
        assert_eq!(outcome.drops[0].error.kind(), "codec");
        assert_eq!(outcome.fused_cloud.len(), 2);
    }

    #[test]
    fn into_strict_surfaces_first_drop_error() {
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
        let err = pipeline
            .perceive(&cloud, &est, &[good.clone(), bad.clone()], &origin())
            .into_strict()
            .unwrap_err();
        assert_eq!(err.kind(), "codec");
        assert!(pipeline.fuse(&cloud, &est, &[bad], &origin()).is_err());
        // A clean outcome converts to Ok.
        let ok = pipeline
            .perceive(&cloud, &est, &[good], &origin())
            .into_strict()
            .unwrap();
        assert_eq!(ok.packets_fused, 1);
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
        let outcome = pipeline.perceive(&local, &rx_est, &[good], &origin());
        assert_eq!(outcome.packets_fused, 1);
        assert_eq!(outcome.alignment.len(), 1);
        assert!(outcome.alignment[0].decision.is_accepted());

        // Grossly wrong pose: excluded, reported as AlignmentRejected,
        // detections equal the ego-only result.
        let mut bad_est = tx_est;
        bad_est.gps = bad_est.gps.offset_by(Vec3::new(40.0, -25.0, 0.0));
        let bad = ExchangePacket::build(2, 1, &remote, bad_est).unwrap();
        let outcome = pipeline.perceive(&local, &rx_est, &[bad], &origin());
        assert_eq!(outcome.packets_fused, 0);
        assert_eq!(outcome.fused_cloud.len(), local.len());
        assert_eq!(outcome.drops.len(), 1);
        assert_eq!(outcome.drops[0].error.kind(), "alignment_rejected");
        assert!(!outcome.alignment[0].decision.is_accepted());
        let ego = pipeline.perceive_single(&local);
        assert_eq!(outcome.detections.len(), ego.len());
    }

    #[test]
    fn unguarded_perceive_records_no_alignment() {
        let pipeline = untrained_pipeline();
        assert!(pipeline.alignment_guard().is_none());
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let est = PoseEstimate::from_pose(&pose, &origin());
        let cloud = PointCloud::new();
        let p1 = ExchangePacket::build(1, 0, &cloud, est).unwrap();
        let outcome = pipeline.perceive(&cloud, &est, &[p1], &origin());
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
        assert_eq!(packet.frame_info().unwrap().kind, FrameKind::Features);
        let outcome = pipeline.perceive(&local, &rx_est, &[packet], &origin());
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
        let outcome = pipeline.perceive(&cloud, &est, &[good, bad], &origin());
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
        let executor = Executor::sequential();
        let mut scratch = DetectScratch::new();
        // Three steps: the sender's scan changes, repeats, then changes
        // again — every step must match the uncached path bit for bit.
        for seed in [2u64, 2, 5] {
            let tx_pose = scene.observers[1];
            let remote = scanner.scan(&scene.world, &tx_pose, seed);
            let tx_est = PoseEstimate::from_pose(&tx_pose, &origin());
            let packet = ExchangePacket::build(2, 0, &remote, tx_est).unwrap();
            let cached = pipeline.perceive_with(
                &local,
                &rx_est,
                std::slice::from_ref(&packet),
                &origin(),
                &executor,
                &mut scratch,
                Some(&cache),
            );
            let plain = pipeline.perceive(&local, &rx_est, &[packet], &origin());
            assert_eq!(cached.detections, plain.detections);
            assert_eq!(cached.fused_cloud, plain.fused_cloud);
            assert_eq!(cached.packets_fused, plain.packets_fused);
        }
        // The single-shot stream, cold and then repeated.
        for _ in 0..2 {
            let single_cached =
                pipeline.perceive_single_with(&local, &executor, &mut scratch, Some(&cache));
            assert_eq!(single_cached, pipeline.perceive_single(&local));
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
        let cached = pipeline.perceive_with(
            &local,
            &rx_est,
            std::slice::from_ref(&packet),
            &origin(),
            &Executor::sequential(),
            &mut DetectScratch::new(),
            Some(&cache),
        );
        let plain = pipeline.perceive(&local, &rx_est, &[packet], &origin());
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
        let executor = Executor::sequential();
        let mut scratch = DetectScratch::new();
        let _ = pipeline.perceive_single_with(&cloud, &executor, &mut scratch, Some(&cache));
        assert!(warm(&cache.single) && !warm(&cache.cooperative));
        let _ = pipeline.perceive_with(
            &cloud,
            &est,
            &[packet],
            &origin(),
            &executor,
            &mut scratch,
            Some(&cache),
        );
        assert!(warm(&cache.cooperative));
    }

    #[test]
    fn tracker_builder_round_trip() {
        let pipeline = untrained_pipeline();
        assert!(pipeline.tracker_config().is_none());
        assert!(pipeline.make_tracker().is_none());
        assert!(!pipeline.incremental());
        let pipeline = pipeline
            .with_tracker(crate::tracking::TrackerConfig::default())
            .with_incremental();
        assert!(pipeline.tracker_config().is_some());
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
    fn perceive_temporal_fuses_then_records() {
        let pipeline = untrained_pipeline().with_score_threshold(0.4);
        let scene = scenario::t_junction();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let mut agg = TemporalAggregator::new(3);
        let past_pose = scene.observers[1];
        let past_scan = scanner.scan(&scene.world, &past_pose, 7);
        agg.push(past_pose, past_scan);
        let pose = scene.observers[0];
        let scan = scanner.scan(&scene.world, &pose, 8);
        // Reference: detect on the fused cloud directly.
        let expected = pipeline.perceive_single(&agg.fused_in(&pose, &scan));
        let got = pipeline.perceive_temporal(&mut agg, &pose, &scan);
        assert_eq!(got, expected);
        // The current frame was recorded for the next step.
        assert_eq!(agg.len(), 2);
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
        assert!(pipeline.perceive_single(&cloud).is_empty());
    }
}
