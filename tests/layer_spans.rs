//! The fleet's phases, the alignment guard and its receiver index, the
//! consistency screen and the tracker each run under a span of their
//! own, so a profile can rank them; the phase spans are the only phase
//! timers.
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
    const STEPS: usize = 2;
    let scene = scenario::tj_scenario_1();
    let vehicles: Vec<FleetVehicle> = scene
        .observers
        .iter()
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, 1.0, STEPS),
            beams: BeamModel::vlp16().with_azimuth_steps(300),
        })
        .collect();
    let vehicle_steps = (vehicles.len() * STEPS) as u64;
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
    let (reports, _) = sim.run(&pipeline, STEPS);
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::disable();
    cooper_telemetry::reset();

    assert_eq!(reports.len(), STEPS);
    let count = |name: &str| -> u64 {
        snapshot
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    };
    // One guard run per evaluated packet, against a receiver reference
    // built at most once per receiver-step and shared by its packets.
    let evaluated = snapshot.counter(names::ALIGN_EVALUATED).unwrap_or(0);
    assert!(evaluated > 0, "the guard evaluated received clouds");
    assert_eq!(count(names::SPAN_ALIGN_GUARD), evaluated);
    let indexed = count(names::SPAN_ALIGN_INDEX);
    assert!(
        (1..=vehicle_steps).contains(&indexed),
        "{indexed} reference builds over {vehicle_steps} receiver-steps"
    );
    assert!(
        indexed < evaluated,
        "{indexed} reference builds for {evaluated} guarded packets"
    );
    // One screen and one tracker update per receiver per step.
    assert_eq!(count(names::SPAN_GUARD_CONSISTENCY), vehicle_steps);
    assert_eq!(count(names::SPAN_TRACK_UPDATE), vehicle_steps);

    // One span per step for the step and each of its phases; nothing
    // else times the phases.
    for span in [
        names::SPAN_FLEET_STEP,
        names::SPAN_FLEET_SCAN,
        names::SPAN_FLEET_EXCHANGE,
        names::SPAN_FLEET_PERCEIVE,
    ] {
        assert_eq!(count(span), STEPS as u64, "{span}");
    }
    let fleet_values: Vec<&str> = snapshot
        .values
        .iter()
        .map(|v| v.name.as_str())
        .filter(|name| name.starts_with("fleet."))
        .collect();
    assert!(
        fleet_values.is_empty(),
        "fleet value histograms: {fleet_values:?}"
    );
}
