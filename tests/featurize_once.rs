//! With the feature tier on, each honest vehicle's scan runs through the
//! SPOD trunk once per step: phase 1 featurizes it for the feature
//! frames, and phase 3's ego-only and cooperative perception reuse that
//! map.
//!
//! Telemetry is a process-global registry, so this test has a binary of
//! its own: no other test can open a `spod.featurize` span while it
//! counts.

use cooper_core::fleet::{straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle};
use cooper_core::{CooperPipeline, GovernorConfig, PerfectChannel};
use cooper_lidar_sim::{scenario, BeamModel};
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_telemetry::names;
use cooper_v2x::BandwidthGovernor;

#[test]
fn features_fleet_featurizes_each_honest_scan_once_per_step() {
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
    assert_eq!(vehicles.len(), 4);
    let sim = FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed: 2024,
            threads: Some(2),
            ..FleetConfig::default()
        },
    );
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let governor = GovernorConfig {
        features: true,
        ..GovernorConfig::default()
    };
    let mut policy = BandwidthGovernor::default().with_features();

    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let (reports, _) = sim.run_governed(&pipeline, 2, &mut PerfectChannel, &mut policy, &governor);
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::disable();
    cooper_telemetry::reset();

    assert_eq!(reports.len(), 2);
    assert!(
        snapshot
            .counter(names::PIPELINE_FEATURES_FUSED)
            .unwrap_or(0)
            > 0,
        "the receivers fused feature frames"
    );
    let featurized: u64 = snapshot
        .spans
        .iter()
        .filter(|s| s.name == names::SPAN_SPOD_FEATURIZE)
        .map(|s| s.count)
        .sum();
    assert_eq!(featurized, 4 * 2, "one featurize per vehicle-step");
}
