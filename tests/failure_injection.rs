//! Failure-injection tests: lossy channels, truncated frames, missing
//! fragments, extreme pose errors.

use cooper_core::{AlignmentGuardConfig, CooperError, CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_geometry::{Attitude, GpsFix, Pose, Vec3};
use cooper_lidar_sim::{scenario, GpsImuModel, LidarScanner, PoseEstimate, SkewMode};
use cooper_pointcloud::{Point, PointCloud};
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_v2x::{fragment, reassemble, DsrcChannel, DsrcConfig, ReassemblyError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn origin() -> GpsFix {
    GpsFix::new(33.2075, -97.1526, 190.0)
}

fn sample_packet() -> ExchangePacket {
    let cloud: PointCloud = (0..5_000)
        .map(|i| {
            Point::new(
                Vec3::new(10.0 + (i % 50) as f64 * 0.1, (i / 50) as f64 * 0.1, -1.0),
                0.5,
            )
        })
        .collect();
    let est = PoseEstimate::from_pose(
        &Pose::new(Vec3::new(10.0, 5.0, 1.9), Attitude::from_yaw(0.4)),
        &origin(),
    );
    ExchangePacket::build(1, 0, &cloud, est).expect("encodes")
}

#[test]
fn lost_fragment_is_detected_and_reported() {
    let packet = sample_packet();
    let wire = packet.to_bytes();
    let mut fragments = fragment(1, &wire, 1460);
    let dropped_index = fragments.len() / 2;
    fragments.remove(dropped_index);
    match reassemble(&fragments) {
        Err(ReassemblyError::MissingFragments { missing }) => {
            assert_eq!(missing, vec![dropped_index as u32]);
        }
        other => panic!("expected missing-fragment error, got {other:?}"),
    }
}

#[test]
fn reordered_and_duplicated_fragments_still_reassemble() {
    let packet = sample_packet();
    let wire = packet.to_bytes();
    let mut fragments = fragment(1, &wire, 1460);
    fragments.reverse();
    fragments.push(fragments[0].clone());
    let bytes = reassemble(&fragments).expect("reassembles");
    let parsed = ExchangePacket::from_bytes(&bytes).expect("parses");
    assert_eq!(parsed.cloud().expect("decodes").len(), 5_000);
}

#[test]
fn truncated_wire_frame_rejected_not_panicking() {
    let packet = sample_packet();
    let wire = packet.to_bytes();
    for cut in [0, 1, 10, 40, wire.len() / 2, wire.len() - 1] {
        let err = ExchangePacket::from_bytes(&wire[..cut]).expect_err("must fail");
        assert!(
            matches!(err, CooperError::Truncated { .. } | CooperError::BadMagic),
            "cut {cut}: unexpected {err}"
        );
    }
}

#[test]
fn bit_flips_in_header_are_caught() {
    let packet = sample_packet();
    let wire = packet.to_bytes().to_vec();
    // Magic corruption.
    let mut bad = wire.clone();
    bad[1] ^= 0xFF;
    assert!(ExchangePacket::from_bytes(&bad).is_err());
    // Version corruption.
    let mut bad = wire.clone();
    bad[4] = 77;
    assert!(matches!(
        ExchangePacket::from_bytes(&bad),
        Err(CooperError::UnsupportedVersion(77))
    ));
}

#[test]
fn lossy_receiver_drops_bad_packets_and_continues() {
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let good = sample_packet();
    // Corrupt the payload magic of a second packet.
    let mut bytes = good.to_bytes().to_vec();
    let header = bytes.len() - good.payload_len();
    bytes[header] ^= 0xFF;
    let bad = ExchangePacket::from_bytes(&bytes).expect("header still parses");

    let local: PointCloud = (0..100)
        .map(|i| Point::new(Vec3::new(5.0, 0.01 * i as f64, -1.0), 0.5))
        .collect();
    let est = PoseEstimate::from_pose(
        &Pose::new(Vec3::new(0.0, 0.0, 1.9), Attitude::level()),
        &origin(),
    );
    let outcome = pipeline.perceive(
        &local,
        &est,
        vec![good.decode(), bad.decode()],
        &origin(),
        PerceiveCtx::default(),
    );
    assert_eq!(outcome.drops.len(), 1);
    assert_eq!(outcome.drops[0].index, 1);
    assert_eq!(outcome.drops[0].error.kind(), "codec");
    assert_eq!(outcome.packets_fused, 1);
    assert_eq!(outcome.fused_cloud.len(), 100 + good.cloud().unwrap().len());
}

#[test]
fn heavy_channel_loss_reflected_in_reports() {
    let channel = DsrcChannel::new(DsrcConfig {
        loss_probability: 0.3,
        ..DsrcConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(3);
    let report = channel.transmit_sized(sample_packet().wire_size(), &mut rng);
    assert!(report.frames > 10);
    assert!(report.frames_delivered < report.frames);
    assert!(!report.complete);
}

#[test]
fn double_drift_skew_degrades_but_does_not_crash() {
    // The paper's abnormal case: 2× the max GPS drift. Fusion must
    // still run and produce *some* detections; scores may drop.
    let detector = SpodDetector::train_default(&cooper_spod::train::TrainingConfig::fast());
    let pipeline = CooperPipeline::new(detector);
    let scene = scenario::tj_scenario_1();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let (rx, tx) = scene.pairs[0];
    let local = scanner.scan(&scene.world, &scene.observers[rx], 1);
    let remote = scanner.scan(&scene.world, &scene.observers[tx], 2);
    let model = GpsImuModel::ideal();
    let mut rng = StdRng::seed_from_u64(0);
    let est_rx = model.measure(&scene.observers[rx], &origin(), &mut rng);
    let est_tx = model.measure_skewed(
        &scene.observers[tx],
        &origin(),
        SkewMode::DoubleDrift,
        &mut rng,
    );
    let packet = ExchangePacket::build(1, 0, &remote, est_tx).expect("encodes");
    let result = pipeline.perceive(
        &local,
        &est_rx,
        vec![packet.decode()],
        &origin(),
        PerceiveCtx::default(),
    );
    assert_eq!(result.fused_cloud.len(), local.len() + remote.len());
    // 20 cm misalignment is well under a car length: detection survives.
    assert!(!result.detections.is_empty());
}

#[test]
fn grossly_wrong_pose_still_fails_safe() {
    // A pose 500 m off (e.g. GPS cold-start garbage) must not panic —
    // the remote points simply land outside the detector extent.
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let cloud: PointCloud = (0..100)
        .map(|i| Point::new(Vec3::new(10.0, 0.01 * i as f64, -1.0), 0.5))
        .collect();
    let est_rx = PoseEstimate::from_pose(
        &Pose::new(Vec3::new(0.0, 0.0, 1.9), Attitude::level()),
        &origin(),
    );
    let wrong_pose = Pose::new(Vec3::new(500.0, -300.0, 1.9), Attitude::level());
    let est_tx = PoseEstimate::from_pose(&wrong_pose, &origin());
    let packet = ExchangePacket::build(1, 0, &cloud, est_tx).expect("encodes");
    let result = pipeline.perceive(
        &cloud,
        &est_rx,
        vec![packet.decode()],
        &origin(),
        PerceiveCtx::default(),
    );
    assert_eq!(result.fused_cloud.len(), 200);
}

#[test]
fn guard_rejects_extreme_pose_error_and_falls_back_to_ego_only() {
    // A transmitter pose 40 m off is far beyond what ICP can repair:
    // the alignment guard must reject the packet (never panic) and the
    // receiver must fall back to exactly its ego-only perception.
    let detector = SpodDetector::train_default(&cooper_spod::train::TrainingConfig::fast());
    let guarded =
        CooperPipeline::new(detector).with_alignment_guard(AlignmentGuardConfig::default());
    let scene = scenario::tj_scenario_1();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let (rx, tx) = scene.pairs[0];
    let local = scanner.scan(&scene.world, &scene.observers[rx], 1);
    let remote = scanner.scan(&scene.world, &scene.observers[tx], 2);
    let est_rx = PoseEstimate::from_pose(&scene.observers[rx], &origin());
    let mut est_tx = PoseEstimate::from_pose(&scene.observers[tx], &origin());
    est_tx.gps = est_tx.gps.offset_by(Vec3::new(40.0, 0.0, 0.0));
    let packet = ExchangePacket::build(1, 0, &remote, est_tx).expect("encodes");

    let coop = guarded.perceive(
        &local,
        &est_rx,
        vec![packet.decode()],
        &origin(),
        PerceiveCtx::default(),
    );
    assert_eq!(coop.packets_fused, 0);
    assert_eq!(coop.drops.len(), 1);
    assert!(
        matches!(
            coop.drops[0].error,
            CooperError::AlignmentRejected { residual_m } if residual_m.is_finite()
        ),
        "expected alignment rejection, got {:?}",
        coop.drops[0].error
    );

    let ego = guarded.perceive(
        &local,
        &est_rx,
        Vec::new(),
        &origin(),
        PerceiveCtx::default(),
    );
    assert_eq!(coop.fused_cloud.len(), local.len());
    assert_eq!(coop.detections, ego.detections);
}

#[test]
fn nan_pose_rejected_before_it_can_poison_fusion() {
    let cloud = PointCloud::new();
    let mut est = PoseEstimate::from_pose(&Pose::origin(), &origin());
    est.attitude.pitch = f64::INFINITY;
    assert!(matches!(
        ExchangePacket::build(1, 0, &cloud, est),
        Err(CooperError::InvalidPose)
    ));
}

#[test]
fn quarantine_round_trip_recovers_transient_corruption() {
    use cooper_core::fleet::{
        straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle, TransportDropReason,
        TrustGuardConfig,
    };
    use cooper_core::TrustConfig;
    use cooper_lidar_sim::{BeamModel, FaultPlan};
    use cooper_v2x::SharedMedium;

    // Vehicle 2 flips its own payload bytes at the source for steps
    // 0..3, then the fault clears. Over a real fragmented DSRC
    // transport the receiver's CRC check must fail while the fault is
    // live, the trust ledger must quarantine the sender, and once the
    // quarantine elapses a clean probation must re-admit it — the full
    // Trusted → Suspect → Quarantined → Probation → Trusted loop.
    let scene = scenario::tj_scenario_1();
    let steps = 12usize;
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
    let sim = FleetSimulation::new(
        scene.world,
        vehicles,
        FleetConfig {
            seed: 11,
            sensor_model: GpsImuModel::ideal(),
            fault_plan: Some(FaultPlan::parse("2:corrupt:0.4@0..3").unwrap()),
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
        },
    );
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
        .with_alignment_guard(AlignmentGuardConfig::default());
    let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig::default())).with_seed(9);
    let (reports, stats) = sim.run_with_channel(&pipeline, steps, &mut medium);

    let steps_with = |f: fn(&TransportDropReason) -> bool| -> Vec<usize> {
        reports
            .iter()
            .filter(|r| r.transport_drops.iter().any(|d| f(&d.reason)))
            .map(|r| r.step)
            .collect()
    };
    let integrity = steps_with(|r| matches!(r, TransportDropReason::IntegrityFailed));
    let quarantined = steps_with(|r| matches!(r, TransportDropReason::Quarantined));
    assert!(
        !integrity.is_empty(),
        "at-source corruption must fail the receiver's CRC check"
    );
    assert!(
        !quarantined.is_empty(),
        "repeated integrity violations must quarantine the sender"
    );
    assert!(
        integrity[0] < quarantined[0],
        "violations precede the quarantine they earn"
    );
    let t = stats.trust.get(&1).expect("receiver 1 charged violations");
    assert!(t.violations >= 2);
    assert!(t.quarantines >= 1);
    assert!(t.blocked_transfers >= 1);
    assert!(t.reinstated >= 1, "clean probation re-admits the sender");
    // After re-admission the exchange is fully restored: the last step
    // shows vehicle 1 fusing vehicle 2's packet with no quarantine.
    let last = reports.last().unwrap();
    let v1 = &last.per_vehicle[0];
    assert_eq!(v1.packets_received, 1, "re-admitted sender fuses again");
    assert_eq!(v1.quarantined_peers, 0);
}

#[test]
fn ghost_injection_never_drops_fused_below_ego() {
    use cooper_core::fleet::{
        straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle, TransportDropReason,
        TrustGuardConfig,
    };
    use cooper_lidar_sim::{BeamModel, FaultPlan};

    // Vehicle 2 appends fabricated car clusters to every broadcast. The
    // consistency guard must convict on ego-observed free space, and —
    // the regression this test pins — rejecting the poisoned packets
    // must degrade the receiver to ego-only perception, never below it.
    let detector = SpodDetector::train_default(&cooper_spod::train::TrainingConfig::fast());
    let pipeline =
        CooperPipeline::new(detector).with_alignment_guard(AlignmentGuardConfig::default());
    let scene = scenario::tj_scenario_1();
    let steps = 5usize;
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
    let sim = FleetSimulation::new(
        scene.world,
        vehicles,
        FleetConfig {
            seed: 11,
            sensor_model: GpsImuModel::ideal(),
            fault_plan: Some(FaultPlan::parse("2:ghost:4@0").unwrap()),
            trust: Some(TrustGuardConfig::default()),
            ..FleetConfig::default()
        },
    );
    let (reports, _stats) = sim.run(&pipeline, steps);
    let mut rejected = 0usize;
    for r in &reports {
        for d in &r.transport_drops {
            if let TransportDropReason::ConsistencyRejected { ghost_points } = d.reason {
                assert_eq!((d.from, d.to), (2, 1), "only the ghost sender is convicted");
                assert!(ghost_points > 0, "verdict carries the ghost evidence");
                rejected += 1;
            }
        }
        for v in &r.per_vehicle {
            assert!(
                v.cooperative_detections >= v.single_detections,
                "step {} vehicle {}: fused {} fell below ego {}",
                r.step,
                v.vehicle_id,
                v.cooperative_detections,
                v.single_detections
            );
        }
    }
    assert!(rejected >= 1, "ghost injection must be caught");
}

#[test]
fn lossy_fleet_degrades_gracefully() {
    use cooper_core::fleet::{straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle};
    use cooper_lidar_sim::BeamModel;

    let scene = scenario::tj_scenario_1();
    let vehicles: Vec<FleetVehicle> = scene
        .observers
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, 1.0, 2),
            beams: BeamModel::vlp16().with_azimuth_steps(300),
        })
        .collect();
    let sim = FleetSimulation::new(scene.world, vehicles, FleetConfig::default());
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));

    // Ideal channel: every vehicle hears the other two.
    let (ideal, _) = sim.run(&pipeline, 2);
    assert!(ideal[0].per_vehicle.iter().all(|v| v.packets_received == 2));

    // A channel that drops every frame from vehicle 2: its packets never
    // arrive, everyone else's still do — the receiver keeps working.
    // (Closures implement ChannelModel through the blanket impl.)
    let mut drop_vehicle_2 = |_: usize, from: u32, _: u32, _: usize| from != 2;
    let (lossy, stats) = sim.run_with_channel(&pipeline, 2, &mut drop_vehicle_2);
    for report in &lossy {
        for v in &report.per_vehicle {
            if v.vehicle_id == 2 {
                continue;
            }
            assert_eq!(v.packets_received, 1, "only vehicle 2's frames are lost");
        }
    }
    assert!(stats.total_bytes > 0);

    // A fully partitioned channel: no packets, single-shot perception
    // still runs for everyone.
    let mut blackout = |_: usize, _: u32, _: u32, _: usize| false;
    let (dark, dark_stats) = sim.run_with_channel(&pipeline, 1, &mut blackout);
    assert!(dark[0].per_vehicle.iter().all(|v| v.packets_received == 0));
    assert_eq!(dark_stats.total_bytes, 0);
}
