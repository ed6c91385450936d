//! Canonical names for every metric and span the workspace emits.
//!
//! Instrumentation call sites reference these consts instead of string
//! literals, so a typo'd name is a compile error at the call site and
//! the [`is_registered_metric`] / [`is_registered_span`] checks let
//! tests fail on any emitted name that is not declared here.
//!
//! Two metric families carry a dynamic suffix (the drop-reason kind):
//! `pipeline.drop.<kind>` and `fleet.encode_drop.<kind>`. Those are
//! declared by prefix in [`DYNAMIC_COUNTER_PREFIXES`].

// --- counters -----------------------------------------------------------

/// Packets merged into the fused cloud, per `fuse_packets` call.
pub const PIPELINE_PACKETS_FUSED: &str = "pipeline.packets_fused";
/// Packets rejected during fusion (decode or alignment failure).
pub const PIPELINE_PACKETS_DROPPED: &str = "pipeline.packets_dropped";
/// Remote points merged into the fused cloud.
pub const PIPELINE_POINTS_MERGED: &str = "pipeline.points_merged";
/// Alignment-guard evaluations.
pub const ALIGN_EVALUATED: &str = "align.evaluated";
/// Packets the guard accepted after ICP refinement.
pub const ALIGN_REFINED: &str = "align.refined";
/// Packets the guard rejected outright.
pub const ALIGN_REJECTED: &str = "align.rejected";
/// Payload bytes that reached receivers' inboxes.
pub const FLEET_BYTES_RECEIVED: &str = "fleet.bytes_received";
/// Transfers that exceeded the delivery deadline.
pub const FLEET_DEADLINE_MISS: &str = "fleet.deadline_miss";
/// Partial deliveries whose prefix decoded into a usable packet.
pub const FLEET_PARTIAL_SALVAGED: &str = "fleet.partial_salvaged";
/// Partial deliveries whose prefix could not be decoded.
pub const FLEET_SALVAGE_FAILED: &str = "fleet.salvage_failed";
/// Transfers the bandwidth governor skipped over budget.
pub const FLEET_BUDGET_SKIP: &str = "fleet.budget_skip";
/// Governed transfers sent as quantized BEV feature frames (v3).
pub const FLEET_FEATURE_SENDS: &str = "fleet.feature_sends";
/// Remote feature frames fused at the BEV level (F-Cooper path).
pub const PIPELINE_FEATURES_FUSED: &str = "pipeline.features_fused";
/// Governor decisions that sent a feature frame instead of points.
pub const V2X_GOVERNOR_FEATURE_FRAMES: &str = "v2x.governor.feature_frames";
/// Governor decisions that narrowed the payload to the ROI.
pub const V2X_GOVERNOR_ROI_NARROWED: &str = "v2x.governor.roi_narrowed";
/// Governor decisions that sent a background delta frame.
pub const V2X_GOVERNOR_DELTA_FRAMES: &str = "v2x.governor.delta_frames";
/// Governor decisions that skipped a transfer over budget.
pub const V2X_GOVERNOR_BUDGET_SKIPS: &str = "v2x.governor.budget_skips";
/// ARQ frames retransmitted beyond the first attempt.
pub const V2X_ARQ_RETRANSMITS: &str = "v2x.arq.retransmits";
/// ARQ transfers cut off by the delivery deadline.
pub const V2X_ARQ_DEADLINE_MISS: &str = "v2x.arq.deadline_miss";
/// Sends rejected because the airtime window was saturated.
pub const V2X_WINDOW_SATURATED: &str = "v2x.window_saturated";
/// Link-layer frames put on the air.
pub const V2X_FRAMES: &str = "v2x.frames";
/// Link-layer frames lost in the channel.
pub const V2X_FRAMES_LOST: &str = "v2x.frames_lost";
/// Bytes put on the air (payload plus per-frame overhead).
pub const V2X_TX_BYTES: &str = "v2x.tx_bytes";
/// Occupied voxels after voxelization.
pub const SPOD_VOXELS_OCCUPIED: &str = "spod.voxels_occupied";
/// Voxelization chunk partials reused across steps. No longer emitted:
/// detection reuses nothing across steps. Kept registered so benchmark
/// records that read it stay valid; it reads 0.
pub const SPOD_INCREMENTAL_CHUNKS_REUSED: &str = "spod.incremental.chunks_reused";
/// Cached VFE rows copied instead of re-encoded. No longer emitted:
/// detection reuses nothing across steps. Kept registered so benchmark
/// records that read it stay valid; it reads 0.
pub const SPOD_INCREMENTAL_VOXELS_REUSED: &str = "spod.incremental.voxels_reused";
/// Detections fed into per-vehicle trackers.
pub const TRACK_DETECTIONS_IN: &str = "track.detections_in";
/// New tentative tracks spawned.
pub const TRACK_SPAWNED: &str = "track.spawned";
/// Tracks promoted (or restored) to Confirmed.
pub const TRACK_PROMOTED: &str = "track.promoted";
/// Confirmed tracks that fell back to Coasting on a miss.
pub const TRACK_COASTED: &str = "track.coasted";
/// Tracks dropped after exceeding the miss budget.
pub const TRACK_DROPPED: &str = "track.dropped";
/// Link-layer frames delivered with damaged content (bit flips or
/// mid-frame truncation the FCS caught).
pub const V2X_INTEGRITY_CORRUPTED_FRAMES: &str = "v2x.integrity.corrupted_frames";
/// Received packets whose CRC-32 trailer failed verification.
pub const V2X_INTEGRITY_CRC_FAIL: &str = "v2x.integrity.crc_fail";
/// Trust violations recorded against senders (CRC failures, alignment
/// rejections, consistency violations).
pub const TRUST_VIOLATIONS: &str = "trust.violations";
/// Sender links escalated to Quarantined.
pub const TRUST_QUARANTINES: &str = "trust.quarantines";
/// Sender links re-admitted to Trusted after clean probation.
pub const TRUST_REINSTATED: &str = "trust.reinstated";
/// Transfers skipped because the sender link was quarantined.
pub const TRUST_BLOCKED_TRANSFERS: &str = "trust.blocked_transfers";
/// Consistency-guard evaluations of remote packets.
pub const GUARD_CONSISTENCY_CHECKS: &str = "guard.consistency.checks";
/// Remote packets the consistency guard rejected.
pub const GUARD_CONSISTENCY_REJECTS: &str = "guard.consistency.rejects";
/// Remote points flagged as ghosts in ego-observed free space.
pub const GUARD_CONSISTENCY_GHOST_POINTS: &str = "guard.consistency.ghost_points";

/// Prefix of the per-kind fusion drop counters: `pipeline.drop.<kind>`.
pub const PIPELINE_DROP_PREFIX: &str = "pipeline.drop.";
/// Prefix of the per-kind encode drop counters:
/// `fleet.encode_drop.<kind>`.
pub const FLEET_ENCODE_DROP_PREFIX: &str = "fleet.encode_drop.";

// --- gauges -------------------------------------------------------------

/// Worker threads the fleet executor ran with.
pub const FLEET_THREADS: &str = "fleet.threads";

// --- value histograms ---------------------------------------------------

/// v2 codec wire size as a per-mille ratio of the v1 size.
pub const CODEC_V2_BYTES_RATIO: &str = "codec.v2.bytes_ratio";
/// v3 feature-frame wire size as a per-mille ratio of the v1 raw size.
pub const CODEC_V3_BYTES_RATIO: &str = "codec.v3.bytes_ratio";
/// Alignment-guard residual, millimetres.
pub const ALIGN_RESIDUAL: &str = "align.residual";
/// Wire size of each packet the fleet puts on the air, bytes.
pub const PACKET_WIRE_BYTES: &str = "packet.wire_bytes";
/// Delivered fraction of partial transfers, per mille.
pub const V2X_PARTIAL_FRACTION: &str = "v2x.partial.fraction";

// --- spans --------------------------------------------------------------

/// Whole fleet run.
pub const SPAN_FLEET_RUN: &str = "fleet.run";
/// One simulation step.
pub const SPAN_FLEET_STEP: &str = "fleet.step";
/// Step phase 1: scan and encode.
pub const SPAN_FLEET_SCAN: &str = "fleet.scan";
/// One simulated LiDAR revolution (ray casting and range noise), inside
/// step phase 1.
pub const SPAN_LIDAR_SCAN: &str = "lidar.scan";
/// Step phase 2: packet exchange.
pub const SPAN_FLEET_EXCHANGE: &str = "fleet.exchange";
/// Step phase 3: fuse and detect.
pub const SPAN_FLEET_PERCEIVE: &str = "fleet.perceive";
/// Cooperative perception over one inbox.
pub const SPAN_PIPELINE_PERCEIVE: &str = "pipeline.perceive";
/// Detection over one (fused) cloud.
pub const SPAN_PIPELINE_PERCEIVE_SINGLE: &str = "pipeline.perceive_single";
/// Packet fusion into the local cloud.
pub const SPAN_PIPELINE_FUSE: &str = "pipeline.fuse";
/// BEV-feature fusion of remote feature frames (F-Cooper path).
pub const SPAN_PIPELINE_FUSE_FEATURES: &str = "pipeline.fuse_features";
/// Alignment guard over one decoded point packet, inside packet fusion.
pub const SPAN_ALIGN_GUARD: &str = "align.guard";
/// Build of the receiver's alignment-guard reference, inside packet
/// fusion: at most once per cooperative perceive.
pub const SPAN_ALIGN_INDEX: &str = "align.index";
/// Consistency screen of one receiver's inbox (trust layer).
pub const SPAN_GUARD_CONSISTENCY: &str = "guard.consistency";
/// One receiver's tracker update, in the fleet's serial merge.
pub const SPAN_TRACK_UPDATE: &str = "track.update";
/// Packet encode to wire bytes.
pub const SPAN_PACKET_ENCODE: &str = "packet.encode";
/// Packet decode from wire bytes.
pub const SPAN_PACKET_DECODE: &str = "packet.decode";
/// Prefix-salvage decode of a truncated packet.
pub const SPAN_PACKET_DECODE_PARTIAL: &str = "packet.decode_partial";
/// Payload decode (point cloud or feature frame) of one received packet.
pub const SPAN_PACKET_PAYLOAD_DECODE: &str = "packet.payload_decode";
/// SPOD feature extraction (preprocess through BEV).
pub const SPAN_SPOD_FEATURIZE: &str = "spod.featurize";
/// Densify and ground removal.
pub const SPAN_SPOD_PREPROCESS: &str = "spod.preprocess";
/// Point cloud to voxel grid.
pub const SPAN_SPOD_VOXELIZE: &str = "spod.voxelize";
/// Middle feature layers (VFE through BEV collapse).
pub const SPAN_SPOD_MIDDLE: &str = "spod.middle";
/// Voxel feature encoding.
pub const SPAN_SPOD_VFE: &str = "spod.vfe";
/// First sparse convolution block.
pub const SPAN_SPOD_CONV1: &str = "spod.conv1";
/// Second sparse convolution block.
pub const SPAN_SPOD_CONV2: &str = "spod.conv2";
/// Submanifold conv neighbour-table construction (shared by both conv
/// layers).
pub const SPAN_SPOD_RULEBOOK: &str = "spod.rulebook";
/// BEV collapse of the deep feature volume.
pub const SPAN_SPOD_BEV: &str = "spod.bev";
/// Region proposal head.
pub const SPAN_SPOD_RPN: &str = "spod.rpn";
/// Non-maximum suppression.
pub const SPAN_SPOD_NMS: &str = "spod.nms";
/// One send attempt through the shared medium.
pub const SPAN_V2X_TRY_SEND: &str = "v2x.try_send";
/// Channel round-trip simulation.
pub const SPAN_V2X_SIMULATE: &str = "v2x.simulate";

/// Every exact (non-dynamic) counter, gauge and value-histogram name
/// the workspace records.
pub const ALL_METRICS: &[&str] = &[
    PIPELINE_PACKETS_FUSED,
    PIPELINE_PACKETS_DROPPED,
    PIPELINE_POINTS_MERGED,
    ALIGN_EVALUATED,
    ALIGN_REFINED,
    ALIGN_REJECTED,
    FLEET_BYTES_RECEIVED,
    FLEET_DEADLINE_MISS,
    FLEET_PARTIAL_SALVAGED,
    FLEET_SALVAGE_FAILED,
    FLEET_BUDGET_SKIP,
    FLEET_FEATURE_SENDS,
    PIPELINE_FEATURES_FUSED,
    V2X_GOVERNOR_FEATURE_FRAMES,
    V2X_GOVERNOR_ROI_NARROWED,
    V2X_GOVERNOR_DELTA_FRAMES,
    V2X_GOVERNOR_BUDGET_SKIPS,
    V2X_ARQ_RETRANSMITS,
    V2X_ARQ_DEADLINE_MISS,
    V2X_WINDOW_SATURATED,
    V2X_FRAMES,
    V2X_FRAMES_LOST,
    V2X_TX_BYTES,
    SPOD_VOXELS_OCCUPIED,
    SPOD_INCREMENTAL_CHUNKS_REUSED,
    SPOD_INCREMENTAL_VOXELS_REUSED,
    TRACK_DETECTIONS_IN,
    TRACK_SPAWNED,
    TRACK_PROMOTED,
    TRACK_COASTED,
    TRACK_DROPPED,
    V2X_INTEGRITY_CORRUPTED_FRAMES,
    V2X_INTEGRITY_CRC_FAIL,
    TRUST_VIOLATIONS,
    TRUST_QUARANTINES,
    TRUST_REINSTATED,
    TRUST_BLOCKED_TRANSFERS,
    GUARD_CONSISTENCY_CHECKS,
    GUARD_CONSISTENCY_REJECTS,
    GUARD_CONSISTENCY_GHOST_POINTS,
    FLEET_THREADS,
    CODEC_V2_BYTES_RATIO,
    CODEC_V3_BYTES_RATIO,
    ALIGN_RESIDUAL,
    PACKET_WIRE_BYTES,
    V2X_PARTIAL_FRACTION,
];

/// Counter families whose full name carries a dynamic `<kind>` suffix.
pub const DYNAMIC_COUNTER_PREFIXES: &[&str] = &[PIPELINE_DROP_PREFIX, FLEET_ENCODE_DROP_PREFIX];

/// Every span name the workspace opens. Span *paths* in snapshots are
/// `/`-joined sequences of these.
pub const ALL_SPANS: &[&str] = &[
    SPAN_FLEET_RUN,
    SPAN_FLEET_STEP,
    SPAN_FLEET_SCAN,
    SPAN_LIDAR_SCAN,
    SPAN_FLEET_EXCHANGE,
    SPAN_FLEET_PERCEIVE,
    SPAN_PIPELINE_PERCEIVE,
    SPAN_PIPELINE_PERCEIVE_SINGLE,
    SPAN_PIPELINE_FUSE,
    SPAN_PIPELINE_FUSE_FEATURES,
    SPAN_ALIGN_GUARD,
    SPAN_ALIGN_INDEX,
    SPAN_GUARD_CONSISTENCY,
    SPAN_TRACK_UPDATE,
    SPAN_PACKET_ENCODE,
    SPAN_PACKET_DECODE,
    SPAN_PACKET_DECODE_PARTIAL,
    SPAN_PACKET_PAYLOAD_DECODE,
    SPAN_SPOD_FEATURIZE,
    SPAN_SPOD_PREPROCESS,
    SPAN_SPOD_VOXELIZE,
    SPAN_SPOD_MIDDLE,
    SPAN_SPOD_VFE,
    SPAN_SPOD_CONV1,
    SPAN_SPOD_CONV2,
    SPAN_SPOD_RULEBOOK,
    SPAN_SPOD_BEV,
    SPAN_SPOD_RPN,
    SPAN_SPOD_NMS,
    SPAN_V2X_TRY_SEND,
    SPAN_V2X_SIMULATE,
];

/// The SPOD sub-phase spans the profiler decomposes `perceive_us` into.
/// `featurize` and `middle` are grouping spans whose *self* time (loop
/// overhead around the VFE and sparse-conv stages) still belongs to the
/// SPOD decomposition, so they count toward coverage alongside the leaf
/// stages they contain.
pub const SPOD_SUBPHASES: &[&str] = &[
    SPAN_SPOD_PREPROCESS,
    SPAN_SPOD_VOXELIZE,
    SPAN_SPOD_FEATURIZE,
    SPAN_SPOD_VFE,
    SPAN_SPOD_MIDDLE,
    SPAN_SPOD_CONV1,
    SPAN_SPOD_CONV2,
    SPAN_SPOD_RULEBOOK,
    SPAN_SPOD_BEV,
    SPAN_SPOD_RPN,
    SPAN_SPOD_NMS,
];

/// `true` when `name` is a declared metric: either an exact entry of
/// [`ALL_METRICS`] or a dynamic family prefix followed by a non-empty
/// kind.
pub fn is_registered_metric(name: &str) -> bool {
    if ALL_METRICS.contains(&name) {
        return true;
    }
    DYNAMIC_COUNTER_PREFIXES
        .iter()
        .any(|prefix| name.len() > prefix.len() && name.starts_with(prefix))
}

/// `true` when every `/`-separated segment of a span path is a declared
/// span name.
pub fn is_registered_span(path: &str) -> bool {
    !path.is_empty() && path.split('/').all(|segment| ALL_SPANS.contains(&segment))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metric_names_are_registered() {
        assert!(is_registered_metric(PIPELINE_PACKETS_FUSED));
        assert!(is_registered_metric(V2X_ARQ_RETRANSMITS));
        assert!(is_registered_metric(CODEC_V2_BYTES_RATIO));
        assert!(!is_registered_metric("pipeline.packets_fussed"));
        assert!(!is_registered_metric(""));
    }

    #[test]
    fn dynamic_families_require_a_kind_suffix() {
        assert!(is_registered_metric("pipeline.drop.truncated"));
        assert!(is_registered_metric("fleet.encode_drop.codec"));
        assert!(!is_registered_metric("pipeline.drop."));
        assert!(!is_registered_metric("fleet.encode_drop."));
        assert!(!is_registered_metric("fleet.drop.truncated"));
    }

    #[test]
    fn span_paths_validate_per_segment() {
        assert!(is_registered_span(SPAN_SPOD_RPN));
        assert!(is_registered_span(
            "pipeline.perceive/pipeline.perceive_single/spod.featurize/spod.middle/spod.vfe"
        ));
        assert!(!is_registered_span("pipeline.perceive/spod.typo"));
        assert!(!is_registered_span(""));
    }

    #[test]
    fn registry_has_no_duplicates() {
        for (i, a) in ALL_METRICS.iter().enumerate() {
            assert!(!ALL_METRICS[i + 1..].contains(a), "duplicate metric {a}");
        }
        for (i, a) in ALL_SPANS.iter().enumerate() {
            assert!(!ALL_SPANS[i + 1..].contains(a), "duplicate span {a}");
        }
    }
}
