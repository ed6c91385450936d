//! The alignment guard, the consistency screen and the tracker each run
//! under a span of their own, so a profile can rank them.
//!
//! Telemetry is a process-global registry, so this test has a binary of
//! its own.

use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle, TrustGuardConfig,
};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{AlignmentGuardConfig, CooperPipeline};
use cooper_lidar_sim::{scenario, BeamModel};
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_telemetry::names;

#[test]
fn guard_screen_and_tracker_run_under_their_spans() {
    let scene = scenario::tj_scenario_1();
    let vehicles: Vec<FleetVehicle> = scene
        .observers
        .iter()
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, 1.0, 2),
            beams: BeamModel::vlp16().with_azimuth_steps(300),
        })
        .collect();
    let vehicle_steps = (vehicles.len() * 2) as u64;
    let sim = FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed: 2024,
            threads: Some(2),
            trust: Some(TrustGuardConfig::default()),
            ..FleetConfig::default()
        },
    );
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
        .with_alignment_guard(AlignmentGuardConfig::default())
        .with_tracker(TrackerConfig::default());

    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let (reports, _) = sim.run(&pipeline, 2);
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::disable();
    cooper_telemetry::reset();

    assert_eq!(reports.len(), 2);
    let count = |name: &str| -> u64 {
        snapshot
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    };
    // One guard run per evaluated packet.
    let evaluated = snapshot.counter(names::ALIGN_EVALUATED).unwrap_or(0);
    assert!(evaluated > 0, "the guard evaluated received clouds");
    assert_eq!(count(names::SPAN_ALIGN_GUARD), evaluated);
    // One screen and one tracker update per receiver per step.
    assert_eq!(count(names::SPAN_GUARD_CONSISTENCY), vehicle_steps);
    assert_eq!(count(names::SPAN_TRACK_UPDATE), vehicle_steps);
}
