//! Invariant tests on the fusion machinery, independent of detector
//! quality.

use cooper_core::{alignment_transform, CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_geometry::{Attitude, GpsFix, Pose, RigidTransform, Vec3};
use cooper_lidar_sim::{scenario, LidarScanner, PoseEstimate};
use cooper_pointcloud::{Point, PointCloud};
use cooper_spod::{SpodConfig, SpodDetector};

fn origin() -> GpsFix {
    GpsFix::new(33.2075, -97.1526, 190.0)
}

fn untrained() -> CooperPipeline {
    CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
}

#[test]
fn fusion_point_count_is_additive() {
    let pipeline = untrained();
    let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
    let est = PoseEstimate::from_pose(&pose, &origin());
    let local: PointCloud = (0..100)
        .map(|i| Point::new(Vec3::new(5.0 + 0.01 * i as f64, 0.0, -1.0), 0.5))
        .collect();
    let remote: PointCloud = (0..50)
        .map(|i| Point::new(Vec3::new(8.0, 0.01 * i as f64, -1.0), 0.5))
        .collect();
    let packets: Vec<ExchangePacket> = (0..3)
        .map(|i| ExchangePacket::build(i, 0, &remote, est).expect("encodes"))
        .collect();
    let decoded = packets.iter().map(ExchangePacket::decode).collect();
    let outcome = pipeline.perceive(&local, &est, decoded, &origin(), PerceiveCtx::default());
    assert!(outcome.drops.is_empty());
    assert_eq!(outcome.packets_fused, 3);
    assert_eq!(outcome.fused_cloud.len(), 100 + 3 * 50);
}

#[test]
fn alignment_is_inverse_consistent() {
    // Aligning A->B then B->A returns points to their origin (up to GPS
    // quantization of the equirectangular approximation).
    let pose_a = Pose::new(Vec3::new(10.0, -4.0, 1.9), Attitude::from_yaw(0.6));
    let pose_b = Pose::new(Vec3::new(-7.0, 12.0, 1.73), Attitude::from_yaw(-1.1));
    let est_a = PoseEstimate::from_pose(&pose_a, &origin());
    let est_b = PoseEstimate::from_pose(&pose_b, &origin());
    let ab = alignment_transform(&est_a, &est_b, &origin());
    let ba = alignment_transform(&est_b, &est_a, &origin());
    for p in [Vec3::new(3.0, 1.0, -1.5), Vec3::new(-20.0, 8.0, 0.0)] {
        let round = ba.apply(ab.apply(p));
        assert!(
            (round - p).norm() < 1e-3,
            "round-trip error {}",
            (round - p).norm()
        );
    }
}

#[test]
fn aligned_points_land_on_world_surfaces() {
    // Scan the same wall from two poses; after alignment, each remote
    // point must be close to some local point of the same surface.
    let scene = scenario::stop_sign();
    let scanner = LidarScanner::new(scene.kind.beam_model().noiseless().with_azimuth_steps(720));
    let pose_a = scene.observers[0];
    let pose_b = scene.observers[1];
    let scan_b = scanner.scan(&scene.world, &pose_b, 0);
    let align = RigidTransform::between(&pose_b, &pose_a);
    let aligned_b = scan_b.transformed(&align);

    // Every aligned remote point must sit on *some* world surface: test
    // via the world's entities or the ground plane.
    let mut on_surface = 0;
    let mut total = 0;
    let world_from_a = RigidTransform::from_pose(&pose_a);
    for p in aligned_b.iter().step_by(37) {
        total += 1;
        let world_point = world_from_a.apply(p.position);
        let on_ground = world_point.z.abs() < 0.15;
        let on_entity = scene
            .world
            .entities()
            .iter()
            .any(|e| e.shape.bounding_aabb().inflated(0.15).contains(world_point));
        if on_ground || on_entity {
            on_surface += 1;
        }
    }
    let frac = on_surface as f64 / total as f64;
    assert!(frac > 0.97, "only {frac:.3} of aligned points on surfaces");
}

#[test]
fn fusion_is_order_insensitive_for_detection_input() {
    // Merging A then B vs B then A yields permuted clouds; voxel-based
    // detection must be identical.
    let pipeline = untrained();
    let scene = scenario::tj_scenario_1();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let scan_a = scanner.scan(&scene.world, &scene.observers[0], 1);
    let scan_b = scanner
        .scan(&scene.world, &scene.observers[1], 2)
        .transformed(&RigidTransform::between(
            &scene.observers[1],
            &scene.observers[0],
        ));
    let ab = scan_a.merged(&scan_b);
    let ba = scan_b.merged(&scan_a);
    let bev_ab = pipeline.detector().featurize(&ab);
    let bev_ba = pipeline.detector().featurize(&ba);
    assert_eq!(bev_ab.active_cells(), bev_ba.active_cells());
    // Feature vectors agree cell-by-cell (max-pool and sums are
    // permutation-invariant up to float association; voxel stats use
    // sums of the same values in different order — equal within 1e-4).
    for (cell, f) in bev_ab.iter() {
        let g = bev_ba.get(cell.0, cell.1).expect("same active set");
        for (a, b) in f.iter().zip(g) {
            assert!((a - b).abs() < 1e-3, "cell {cell:?} differs: {a} vs {b}");
        }
    }
}

#[test]
fn exchange_packet_wire_size_accounts_header() {
    let est = PoseEstimate::from_pose(&Pose::origin(), &origin());
    let empty = ExchangePacket::build(0, 0, &PointCloud::new(), est).expect("encodes");
    // Header + empty cloud codec frame.
    assert_eq!(empty.to_bytes().len(), empty.wire_size());
    assert!(empty.wire_size() > 60);
    assert!(empty.wire_size() < 100);
}

#[test]
fn pipeline_accepts_many_transmitters() {
    let pipeline = untrained();
    let scene = scenario::tj_scenario_2();
    let scanner = LidarScanner::new(scene.kind.beam_model().with_azimuth_steps(300));
    let est_rx = PoseEstimate::from_pose(&scene.observers[0], &origin());
    let local = scanner.scan(&scene.world, &scene.observers[0], 0);
    let mut packets = Vec::new();
    let mut expected = local.len();
    for (i, pose) in scene.observers.iter().enumerate().skip(1) {
        let scan = scanner.scan(&scene.world, pose, i as u64);
        expected += scan.len();
        let est = PoseEstimate::from_pose(pose, &origin());
        packets.push(ExchangePacket::build(i as u32, 0, &scan, est).expect("encodes"));
    }
    let decoded = packets.iter().map(ExchangePacket::decode).collect();
    let result = pipeline.perceive(&local, &est_rx, decoded, &origin(), PerceiveCtx::default());
    assert_eq!(result.packets_fused, packets.len());
    assert_eq!(result.fused_cloud.len(), expected);
}
