//! Cross-thread-count determinism of the temporal fleet paths.
//!
//! The fleet's contract is that every deterministic report field is
//! bit-identical at any `FleetConfig::threads` setting. This suite
//! stresses the contract where it is easiest to break: with per-vehicle
//! *state* threaded across steps — the tracker's track table and the
//! receivers' delta decoders — and with the governed v2 delta exchange
//! feeding that state reconstructed clouds instead of raw scans.

use cooper_core::fleet::{straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle};
use cooper_core::governor::SendFirstPolicy;
use cooper_core::tracking::TrackerConfig;
use cooper_core::{CooperPipeline, GovernorConfig, PerfectChannel};
use cooper_lidar_sim::{scenario, BeamModel};
use cooper_spod::{SpodConfig, SpodDetector};

fn build(threads: Option<usize>) -> FleetSimulation {
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
        FleetVehicle {
            id: 7,
            trajectory: straight_trajectory(scene.observers[0], -1.0, 4),
            beams: BeamModel::vlp16().with_azimuth_steps(200),
        },
    ];
    FleetSimulation::new(
        scene.world,
        vehicles,
        FleetConfig {
            seed: 42,
            threads,
            ..FleetConfig::default()
        },
    )
}

fn temporal_pipeline() -> CooperPipeline {
    CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
        .with_tracker(TrackerConfig::default())
}

#[test]
fn tracked_fleet_is_thread_count_invariant() {
    let p = temporal_pipeline();
    let (r1, s1) = build(Some(1)).run(&p, 3);
    let (r2, s2) = build(Some(2)).run(&p, 3);
    let (r4, s4) = build(Some(4)).run(&p, 3);
    assert_eq!(s1, s2);
    assert_eq!(s1, s4);
    assert_eq!(r1, r2);
    assert_eq!(r1, r4);
}

#[test]
fn governed_delta_tracked_fleet_is_thread_count_invariant() {
    // The hardest composition: v2 delta streams reconstructed per
    // sender and smoothed by per-vehicle trackers, all under the
    // governed exchange. Reports must still be bit-identical at 1, 2
    // and 4 threads.
    let p = temporal_pipeline();
    let cfg = GovernorConfig::default();
    let run = |threads| {
        let mut policy = SendFirstPolicy;
        build(Some(threads)).run_governed(&p, 3, &mut PerfectChannel, &mut policy, &cfg)
    };
    let (r1, s1) = run(1);
    let (r2, s2) = run(2);
    let (r4, s4) = run(4);
    assert_eq!(s1, s2);
    assert_eq!(s1, s4);
    assert!(!s1.tracks.is_empty(), "trackers ran for every vehicle");
    assert_eq!(r1, r2);
    assert_eq!(r1, r4);
}

#[test]
fn with_incremental_changes_no_governed_report() {
    // `with_incremental()` is inert: the governed, tracked run reports
    // the same bits with and without it.
    let base = temporal_pipeline();
    let inert = temporal_pipeline().with_incremental();
    let cfg = GovernorConfig::default();
    let run = |p: &CooperPipeline| {
        let mut policy = SendFirstPolicy;
        build(Some(2)).run_governed(p, 3, &mut PerfectChannel, &mut policy, &cfg)
    };
    let (rb, sb) = run(&base);
    let (ri, si) = run(&inert);
    assert_eq!(sb, si);
    assert_eq!(rb, ri);
}
