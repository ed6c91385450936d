//! The executor determinism contract, end to end: a fleet simulation
//! produces bit-identical reports at every thread count — under the
//! perfect channel and under a stateful [`SharedMedium`]. This is the
//! same property the CI determinism job checks across processes via
//! `cooper simulate --threads {1,4}`.

use std::collections::BTreeMap;

use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetStats, FleetStepReport, FleetVehicle,
    TransportDropReason,
};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{
    AlignmentGuardConfig, ChannelModel, CooperPipeline, GovernorConfig, GovernorPolicy,
    GovernorVerdict, PerfectChannel, TransferOffer,
};
use cooper_exec::Executor;
use cooper_lidar_sim::{scenario, BeamModel, FaultPlan, LidarScanner};
use cooper_pointcloud::roi::RoiCategory;
use cooper_pointcloud::FrameKind;
use cooper_spod::{DetectOptions, DetectScratch, FeatureFusionMode, SpodConfig, SpodDetector};
use cooper_telemetry::names;
use cooper_v2x::{
    ArqConfig, BandwidthGovernor, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, SharedMedium,
};

fn pipeline() -> CooperPipeline {
    CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
}

fn fleet_with_beams(threads: Option<usize>, azimuth_steps: usize) -> FleetSimulation {
    let scene = scenario::tj_scenario_1();
    let vehicles: Vec<FleetVehicle> = scene
        .observers
        .iter()
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, 1.0, 3),
            beams: BeamModel::vlp16().with_azimuth_steps(azimuth_steps),
        })
        .collect();
    FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed: 2024,
            threads,
            ..FleetConfig::default()
        },
    )
}

fn fleet(threads: Option<usize>) -> FleetSimulation {
    fleet_with_beams(threads, 300)
}

/// Every report field and the aggregate statistics must match.
fn assert_reports_identical(
    (a_reports, a_stats): &(Vec<FleetStepReport>, FleetStats),
    (b_reports, b_stats): &(Vec<FleetStepReport>, FleetStats),
) {
    assert_eq!(a_stats, b_stats);
    assert_eq!(a_reports, b_reports);
}

#[test]
fn perfect_channel_run_is_thread_count_invariant() {
    let p = pipeline();
    let serial = fleet(Some(1)).run(&p, 2);
    let parallel = fleet(Some(4)).run(&p, 2);
    assert_reports_identical(&serial, &parallel);
    // The run actually exchanged data.
    assert!(serial.1.total_bytes > 0);
    assert!(serial.0[0]
        .per_vehicle
        .iter()
        .any(|v| v.packets_received > 0));
}

#[test]
fn featurize_and_fleet_are_identical_at_1_2_4_threads() {
    // The SoA hot path (chunked voxelization, VFE, rulebook sparse
    // conv, BEV collapse) must produce bit-identical feature maps at
    // every executor width: chunk boundaries are fixed constants and
    // every float accumulation order is pinned.
    let scene = scenario::tj_scenario_1();
    let scanner = LidarScanner::new(BeamModel::vlp16().with_azimuth_steps(600));
    let cloud = scanner.scan(&scene.world, &scene.observers[0], 5);
    let detector = SpodDetector::new(SpodConfig::default());
    let featurize = |threads: usize| {
        detector.featurize_with(
            &cloud,
            &DetectOptions::default().with_executor(Executor::new(Some(threads))),
            &mut DetectScratch::new(),
        )
    };
    let baseline = featurize(1);
    assert!(
        baseline.active_cells() > 0,
        "scene must produce occupied BEV cells"
    );
    for threads in [2usize, 4] {
        assert_eq!(
            baseline,
            featurize(threads),
            "featurize diverged at {threads} threads"
        );
    }
    // And end to end: full fleet reports bit-identical at 1/2/4 worker
    // threads, now that phase 3 fans out per receiver with per-worker
    // detector scratch.
    let p = pipeline();
    let serial = fleet(Some(1)).run(&p, 2);
    for threads in [2usize, 4] {
        let parallel = fleet(Some(threads)).run(&p, 2);
        assert_reports_identical(&serial, &parallel);
    }
}

#[test]
fn feature_fused_governed_run_is_thread_count_invariant() {
    // The feature-exchange tier adds per-vehicle featurization to the
    // parallel scan phase and BEV-level fusion to the parallel perceive
    // phase; neither may introduce thread-count dependence. Reports of
    // a governed feature-preferring run must stay bit-identical at
    // 1/2/4 worker threads.
    let p = pipeline();
    let governor = GovernorConfig {
        features: true,
        ..GovernorConfig::default()
    };
    let run = |threads: Option<usize>| {
        let mut channel = PerfectChannel;
        let mut policy = BandwidthGovernor::default().with_features();
        fleet(threads).run_governed(&p, 2, &mut channel, &mut policy, &governor)
    };
    cooper_telemetry::enable();
    let serial = run(Some(1));
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::disable();
    for threads in [2usize, 4] {
        assert_reports_identical(&serial, &run(Some(threads)));
    }
    // The run really exchanged feature frames, not points.
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, value)| name == names::FLEET_FEATURE_SENDS && *value > 0),
        "feature tier never engaged"
    );
    assert!(serial.1.total_bytes > 0);
}

#[test]
fn feature_tier_perceives_the_honest_scan_of_tampering_senders() {
    // Vehicle 2 appends ghost clusters from step 1 and vehicle 1 replays
    // its step-1 capture from step 2, so both transmit clouds that differ
    // from what they sensed. Ego-only detection reads the honest scan
    // alone: with the feature tier on, phase 3 detects on the phase-1
    // BEV of that scan, and must count what the tier-off run counts.
    let p = pipeline();
    let plan = FaultPlan::parse("2:ghost:3@1,1:replay@1").expect("valid plan");
    let run = |features: bool, threads: Option<usize>| {
        let scene = scenario::tj_scenario_1();
        let vehicles: Vec<FleetVehicle> = scene
            .observers
            .iter()
            .enumerate()
            .map(|(i, pose)| FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(*pose, 1.0, 3),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            })
            .collect();
        let governor = GovernorConfig {
            features,
            ..GovernorConfig::default()
        };
        let mut policy = BandwidthGovernor::default().with_features();
        FleetSimulation::new(
            scene.world.clone(),
            vehicles,
            FleetConfig {
                seed: 2024,
                threads,
                fault_plan: Some(plan.clone()),
                ..FleetConfig::default()
            },
        )
        .run_governed(&p, 3, &mut PerfectChannel, &mut policy, &governor)
    };
    let tier_on = run(true, Some(1));
    let tier_off = run(false, Some(1));
    for (on, off) in tier_on.0.iter().zip(&tier_off.0) {
        for (a, b) in on.per_vehicle.iter().zip(&off.per_vehicle) {
            assert_eq!(
                a.single_detections, b.single_detections,
                "step {} v{}: ego-only detection moved with the feature tier",
                on.step, a.vehicle_id
            );
        }
    }
    assert_reports_identical(&tier_on, &run(true, Some(2)));
}

#[test]
fn guarded_fault_run_is_thread_count_invariant() {
    // Pose faults draw from per-(vehicle, step) seeded streams and the
    // alignment guard runs inside the parallel fuse phase; neither may
    // introduce thread-count dependence.
    let p = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
    let plan = FaultPlan::parse("1:drift:0.5@0,2:freeze@1,3:yaw:0.1@0..2").expect("valid plan");
    let run = |threads: Option<usize>| {
        let scene = scenario::tj_scenario_1();
        let vehicles: Vec<FleetVehicle> = scene
            .observers
            .iter()
            .enumerate()
            .map(|(i, pose)| FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(*pose, 1.0, 3),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            })
            .collect();
        FleetSimulation::new(
            scene.world.clone(),
            vehicles,
            FleetConfig {
                seed: 2024,
                threads,
                fault_plan: Some(plan.clone()),
                ..FleetConfig::default()
            },
        )
        .run(&p, 3)
    };
    let serial = run(Some(1));
    let parallel = run(Some(4));
    assert_reports_identical(&serial, &parallel);
    // The guard actually ran: every receiver evaluated incoming clouds.
    assert!(serial.1.alignment.values().any(|s| s.evaluated > 0));
}

#[test]
fn trust_guarded_adversarial_run_is_identical_at_1_2_4_threads() {
    // The integrity-and-trust layer adds CRC verification, consistency
    // checks and a per-(receiver, sender) trust ledger to the exchange,
    // while the fault plan injects ghost clusters and at-source
    // corruption from per-(vehicle, step) seeded streams and the
    // channel corrupts frames from its own seeded process. None of it
    // may introduce thread-count dependence.
    use cooper_core::fleet::TrustGuardConfig;
    let p = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
    let plan = FaultPlan::parse("2:ghost:3@0,1:corrupt:0.3@0..2").expect("valid plan");
    let run = |threads: Option<usize>| {
        let scene = scenario::tj_scenario_1();
        let vehicles: Vec<FleetVehicle> = scene
            .observers
            .iter()
            .enumerate()
            .map(|(i, pose)| FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(*pose, 0.5, 3),
                beams: BeamModel::vlp16().with_azimuth_steps(300),
            })
            .collect();
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
            corruption_probability: 0.01,
            ..DsrcConfig::default()
        }))
        .with_seed(5);
        FleetSimulation::new(
            scene.world.clone(),
            vehicles,
            FleetConfig {
                seed: 2024,
                threads,
                fault_plan: Some(plan.clone()),
                trust: Some(TrustGuardConfig::default()),
                ..FleetConfig::default()
            },
        )
        .run_with_channel(&p, 3, &mut medium)
    };
    let serial = run(Some(1));
    for threads in [2usize, 4] {
        assert_reports_identical(&serial, &run(Some(threads)));
    }
    // The trust layer actually engaged: violations were charged.
    assert!(serial.1.trust.values().any(|t| t.violations > 0));
}

#[test]
fn shared_medium_drives_the_fleet_and_stays_deterministic() {
    // A 3 Mbit/s medium cannot carry a full mesh of raw frames in one
    // second: delivery decisions depend on shared air-time state, the
    // case that forces the serial exchange phase. The outcome must
    // still be identical at any thread count.
    let p = pipeline();
    // Dense scans: a full mesh of 4 vehicles exchanging ~full frames
    // overruns a 3 Mbit/s one-second window.
    let run = |threads: Option<usize>| {
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            data_rate: cooper_v2x::DataRate::Mbps3,
            ..DsrcConfig::default()
        }))
        .with_seed(11);
        fleet_with_beams(threads, 1500).run_with_channel(&p, 2, &mut medium)
    };
    let serial = run(Some(1));
    let parallel = run(Some(4));
    assert_reports_identical(&serial, &parallel);
    // Saturation bites: somebody received fewer packets than the full
    // mesh would deliver.
    let full_mesh = fleet(Some(1)).vehicles().len() - 1;
    assert!(serial
        .0
        .iter()
        .any(|r| r.per_vehicle.iter().any(|v| v.packets_received < full_mesh)));
}

#[test]
fn bursty_arq_medium_stays_thread_count_invariant() {
    // The hardest determinism case: Gilbert–Elliott burst loss plus
    // fragment ARQ, where every transfer draws a variable number of
    // random samples (burst-state walks, retransmission rounds) and the
    // medium accumulates per-step air time. All randomness comes from
    // per-(step, sender, receiver) seeded streams, so the outcome must
    // not depend on worker thread count.
    let p = pipeline();
    let run = |threads: Option<usize>| {
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
            ..DsrcConfig::default()
        }))
        .with_seed(77)
        .with_arq(ArqConfig::default());
        fleet_with_beams(threads, 900).run_with_channel(&p, 2, &mut medium)
    };
    let serial = run(Some(1));
    let parallel = run(Some(4));
    assert_reports_identical(&serial, &parallel);
    // The lossy run still moved data: at least one packet was fused.
    assert!(serial.1.total_bytes > 0);
}

#[test]
fn roi_capped_iid_arq_run_is_thread_count_invariant() {
    // The in-process counterpart of the `simulate_roi` golden: a
    // governor capped at the 120° front FoV over independent frame loss
    // with one ARQ retry. Transfers the deadline cuts short arrive as
    // salvaged prefixes, and none of it may depend on thread count.
    let p = pipeline();
    let run = |threads: Option<usize>| {
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            loss_probability: 0.2,
            ..DsrcConfig::default()
        }))
        .with_seed(2024)
        .with_arq(ArqConfig { max_retries: 1 });
        let mut policy = BandwidthGovernor::new(RoiCategory::FrontFov120);
        fleet_with_beams(threads, 1800).run_governed(
            &p,
            3,
            &mut medium,
            &mut policy,
            &GovernorConfig::default(),
        )
    };
    let serial = run(Some(1));
    for threads in [2usize, 4] {
        assert_reports_identical(&serial, &run(Some(threads)));
    }
    // The cap narrowed what was sent, and the lossy channel forced
    // salvage.
    assert!(!serial.1.bytes_saved.is_empty());
    assert!(serial
        .0
        .iter()
        .any(|r| r.per_vehicle.iter().any(|v| v.packets_partial > 0)));
}

/// Delegates to a bandwidth governor and records the frame kind of every
/// transfer it sends, keyed by (step, sender, receiver).
struct KindLog {
    governor: BandwidthGovernor,
    sent: BTreeMap<(usize, u32, u32), FrameKind>,
}

impl GovernorPolicy for KindLog {
    fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict {
        let verdict = self.governor.decide(offer);
        if let GovernorVerdict::Send(candidate) = verdict {
            self.sent
                .insert((offer.step, offer.from, offer.to), candidate.kind);
        }
        verdict
    }
}

#[test]
fn feature_frames_over_bursty_arq_are_thread_count_invariant() {
    // The in-process counterpart of the `simulate_features_lossy` golden:
    // a governed, feature-preferring run with delta encoding, adaptive
    // fusion and the tracker over a Gilbert–Elliott medium with ARQ and
    // corruption, on the scenario's own beams and the CLI's seed. A
    // feature frame the deadline cuts short arrives as a salvaged prefix
    // of whole cells, and none of it may depend on thread count.
    let p = pipeline()
        .with_fusion_mode(FeatureFusionMode::Adaptive)
        .with_tracker(TrackerConfig::default());
    let governor = GovernorConfig {
        delta_encode: true,
        keyframe_every: 2,
        features: true,
        ..GovernorConfig::default()
    };
    let run = |threads: Option<usize>| {
        let scene = scenario::tj_scenario_1();
        let vehicles: Vec<FleetVehicle> = scene
            .observers
            .iter()
            .enumerate()
            .map(|(i, pose)| FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(*pose, 1.0, 3),
                beams: scene.kind.beam_model(),
            })
            .collect();
        let config = FleetConfig {
            seed: 1,
            threads,
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world.clone(), vehicles, config);
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
            corruption_probability: 0.01,
            ..DsrcConfig::default()
        }))
        .with_seed(1)
        .with_arq(ArqConfig { max_retries: 2 });
        let mut policy = KindLog {
            governor: BandwidthGovernor::new(RoiCategory::FullFrame).with_features(),
            sent: BTreeMap::new(),
        };
        let outcome = sim.run_governed(&p, 3, &mut medium, &mut policy, &governor);
        (outcome, policy.sent)
    };
    let (serial, sent) = run(Some(1));
    for threads in [2usize, 4] {
        let (parallel, parallel_sent) = run(Some(threads));
        assert_reports_identical(&serial, &parallel);
        assert_eq!(sent, parallel_sent);
    }
    let salvaged_features = serial
        .0
        .iter()
        .flat_map(|r| r.transport_drops.iter().map(move |d| (r.step, d)))
        .filter(|(step, d)| {
            matches!(d.reason, TransportDropReason::PartialDelivery { .. })
                && sent.get(&(*step, d.from, d.to)) == Some(&FrameKind::Features)
        })
        .count();
    assert!(
        salvaged_features > 0,
        "no feature frame arrived as a partial"
    );
}

#[test]
fn delta_streams_over_bursty_arq_are_thread_count_invariant() {
    // The in-process counterpart of the `simulate_crossed` golden: delta
    // frames without the feature tier, over a Gilbert–Elliott medium with
    // ARQ, to guarded, tracked receivers behind the trust layer. Each
    // receiver advances its per-sender delta decoders inside its own
    // parallel perceive task, so keyframes, deltas and salvaged v2
    // prefixes must reconstruct the same clouds at any thread count.
    use cooper_core::fleet::TrustGuardConfig;
    let p = pipeline()
        .with_alignment_guard(AlignmentGuardConfig::default())
        .with_tracker(TrackerConfig::default());
    let plan = FaultPlan::parse("1:replay@1,2:ghost:3@1,3:drift:0.5@0").expect("valid plan");
    let governor = GovernorConfig {
        delta_encode: true,
        keyframe_every: 2,
        ..GovernorConfig::default()
    };
    let run = |threads: Option<usize>| {
        let scene = scenario::tj_scenario_1();
        let vehicles: Vec<FleetVehicle> = scene
            .observers
            .iter()
            .enumerate()
            .map(|(i, pose)| FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(*pose, 1.0, 4),
                beams: scene.kind.beam_model(),
            })
            .collect();
        let config = FleetConfig {
            seed: 1,
            threads,
            fault_plan: Some(plan.clone()),
            trust: Some(TrustGuardConfig::default()),
            ..FleetConfig::default()
        };
        let sim = FleetSimulation::new(scene.world.clone(), vehicles, config);
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
            ..DsrcConfig::default()
        }))
        .with_seed(1)
        .with_arq(ArqConfig { max_retries: 2 });
        let mut policy = KindLog {
            governor: BandwidthGovernor::new(RoiCategory::FullFrame),
            sent: BTreeMap::new(),
        };
        let outcome = sim.run_governed(&p, 4, &mut medium, &mut policy, &governor);
        (outcome, policy.sent)
    };
    let (serial, sent) = run(Some(1));
    for threads in [2usize, 4] {
        let (parallel, parallel_sent) = run(Some(threads));
        assert_reports_identical(&serial, &parallel);
        assert_eq!(sent, parallel_sent);
    }
    assert!(
        sent.values().any(|&kind| kind == FrameKind::Delta),
        "no delta frame was sent"
    );
    // With delta encoding on, every point frame goes out as v2.
    let salvaged_v2 = serial
        .0
        .iter()
        .flat_map(|r| r.transport_drops.iter().map(move |d| (r.step, d)))
        .filter(|(step, d)| {
            matches!(d.reason, TransportDropReason::PartialDelivery { .. })
                && matches!(
                    sent.get(&(*step, d.from, d.to)),
                    Some(FrameKind::Keyframe | FrameKind::Delta)
                )
        })
        .count();
    assert!(salvaged_v2 > 0, "no v2 prefix was salvaged");
}

#[test]
fn closure_channels_see_the_documented_transfer_order() {
    let p = pipeline();
    let mut seen: Vec<(usize, u32, u32)> = Vec::new();
    let mut recorder = |step: usize, from: u32, to: u32, _bytes: usize| {
        seen.push((step, from, to));
        true
    };
    // The blanket impl makes the closure a ChannelModel.
    fn takes_model(m: &mut dyn ChannelModel) -> &mut dyn ChannelModel {
        m
    }
    let _ = fleet(Some(3)).run_with_channel(&p, 1, takes_model(&mut recorder));
    // Serial order: receiver id ascending, then sender in fleet order.
    let expected: Vec<(usize, u32, u32)> = (1..=4u32)
        .flat_map(|to| {
            (1..=4u32)
                .filter(move |&from| from != to)
                .map(move |from| (0, from, to))
        })
        .collect();
    assert_eq!(seen, expected);
}
