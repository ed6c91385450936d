//! Tier-1 integration test: the instrumented pipeline emits the
//! expected span tree and counters through the global telemetry
//! registry.
//!
//! All assertions live in ONE test function: the registry is a process
//! global, and Rust runs tests in the same binary concurrently —
//! a single test owns the enable → run → snapshot → reset sequence.

use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_geometry::{Attitude, GpsFix, Pose, Vec3};
use cooper_lidar_sim::PoseEstimate;
use cooper_pointcloud::{Point, PointCloud};
use cooper_spod::{SpodConfig, SpodDetector};

fn origin() -> GpsFix {
    GpsFix::new(33.2075, -97.1526, 190.0)
}

fn car_blob(offset: f64) -> PointCloud {
    (0..200)
        .map(|i| {
            let fx = (i % 20) as f64 * 0.2;
            let fy = ((i / 20) % 5) as f64 * 0.35;
            Point::new(Vec3::new(8.0 + offset + fx, -0.9 + fy, -1.5), 0.45)
        })
        .collect()
}

#[test]
fn perceive_emits_expected_span_tree() {
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
    let est = PoseEstimate::from_pose(&pose, &origin());
    let local = car_blob(0.0);
    let remote = car_blob(4.0);
    let packet = ExchangePacket::build(2, 0, &remote, est).expect("encodes");
    let wire = packet.to_bytes();

    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let received = ExchangePacket::from_bytes(&wire).expect("decodes");
    let result = pipeline.perceive(
        &local,
        &est,
        vec![received.decode()],
        &origin(),
        PerceiveCtx::default(),
    );
    cooper_telemetry::disable();
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::reset();

    assert_eq!(result.packets_fused, 1);

    // The span tree: the packet and payload decodes at the root (both
    // happened before the pipeline call), then the cooperative span
    // with fusion and detection nested beneath it, and the SPOD stages
    // beneath those.
    for path in [
        "packet.decode",
        "packet.payload_decode",
        "pipeline.perceive",
        "pipeline.perceive/pipeline.fuse",
        "pipeline.perceive/pipeline.perceive_single",
        "pipeline.perceive/pipeline.perceive_single/spod.featurize",
        "pipeline.perceive/pipeline.perceive_single/spod.featurize/spod.preprocess",
        "pipeline.perceive/pipeline.perceive_single/spod.featurize/spod.voxelize",
        "pipeline.perceive/pipeline.perceive_single/spod.featurize/spod.middle",
        "pipeline.perceive/pipeline.perceive_single/spod.rpn",
        "pipeline.perceive/pipeline.perceive_single/spod.nms",
    ] {
        let span = snapshot
            .span(path)
            .unwrap_or_else(|| panic!("missing span {path}:\n{}", snapshot.render_table()));
        assert_eq!(span.count, 1, "span {path} ran once");
    }

    // Encoding happened before telemetry was enabled — it must NOT
    // appear; nothing from the fleet layer ran either.
    assert!(snapshot.span("packet.encode").is_none());
    assert!(!snapshot.spans.iter().any(|s| s.name.starts_with("fleet.")));

    // A child's total time is bounded by its parent's.
    let coop = snapshot.span("pipeline.perceive").unwrap();
    let fuse = snapshot.span("pipeline.perceive/pipeline.fuse").unwrap();
    let detect = snapshot
        .span("pipeline.perceive/pipeline.perceive_single")
        .unwrap();
    assert!(fuse.total_us + detect.total_us <= coop.total_us + 1_000);

    // Counters recorded by the fusion helper.
    assert_eq!(snapshot.counter("pipeline.packets_fused"), Some(1));
    assert_eq!(snapshot.counter("pipeline.packets_dropped"), Some(0));
    assert_eq!(
        snapshot.counter("pipeline.points_merged"),
        Some(remote.len() as u64)
    );
}
