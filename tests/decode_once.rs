//! Each delivered packet's payload is decoded exactly once, in its
//! receiver's phase-3 task: the trust screen checks the decoded clouds
//! and fusion consumes them, so neither decodes again. Counted as
//! `packet.payload_decode` spans against the packets the reports say
//! were received.
//!
//! Telemetry is a process-global registry, so these tests have a binary
//! of their own and take turns on it: no other fleet can open a
//! `packet.payload_decode` span while one counts.

use std::sync::Mutex;

use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetStepReport, FleetVehicle,
    TransportDropReason, TrustGuardConfig,
};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{AlignmentGuardConfig, CooperPipeline, GovernorConfig};
use cooper_lidar_sim::{scenario, BeamModel, FaultPlan};
use cooper_pointcloud::roi::RoiCategory;
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_telemetry::names;
use cooper_v2x::{
    ArqConfig, BandwidthGovernor, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, SharedMedium,
};

/// A fleet on tj1's four observers, each vehicle driving straight at
/// `speed` metres per step.
fn fleet(beams: BeamModel, speed: f64, steps: usize, config: FleetConfig) -> FleetSimulation {
    let scene = scenario::tj_scenario_1();
    let vehicles = scene
        .observers
        .iter()
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, speed, steps),
            beams: beams.clone(),
        })
        .collect();
    FleetSimulation::new(scene.world.clone(), vehicles, config)
}

/// A Gilbert–Elliott medium at 10 % burst loss with fragment ARQ.
fn bursty_medium(corruption: f64, seed: u64, arq: ArqConfig) -> SharedMedium {
    SharedMedium::new(DsrcChannel::new(DsrcConfig {
        loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
        corruption_probability: corruption,
        ..DsrcConfig::default()
    }))
    .with_seed(seed)
    .with_arq(arq)
}

/// Held while a test owns the telemetry registry.
static REGISTRY: Mutex<()> = Mutex::new(());

/// Runs `drive` with telemetry on and returns its reports with the
/// number of `packet.payload_decode` spans it opened.
fn count_decodes(drive: impl FnOnce() -> Vec<FleetStepReport>) -> (Vec<FleetStepReport>, u64) {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let reports = drive();
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::disable();
    cooper_telemetry::reset();
    let decodes = snapshot
        .spans
        .iter()
        .filter(|s| s.name == names::SPAN_PACKET_PAYLOAD_DECODE)
        .map(|s| s.count)
        .sum();
    (reports, decodes)
}

fn received(reports: &[FleetStepReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.per_vehicle)
        .map(|v| v.packets_received as u64)
        .sum()
}

fn count_drops(reports: &[FleetStepReport], pick: fn(&TransportDropReason) -> bool) -> usize {
    reports
        .iter()
        .flat_map(|r| &r.transport_drops)
        .filter(|d| pick(&d.reason))
        .count()
}

#[test]
fn trust_guarded_chaos_fleet_decodes_each_delivered_packet_once() {
    // The `lossy_chaos` shape on four vehicles: burst loss, corruption
    // and ARQ, a ghost-injecting and a drifting sender, both guards.
    let plan = FaultPlan::parse("2:ghost:5@1,3:drift:0.5@0").expect("valid plan");
    let sim = fleet(
        BeamModel::vlp16().with_azimuth_steps(300),
        0.5,
        3,
        FleetConfig {
            seed: 41,
            threads: Some(2),
            fault_plan: Some(plan),
            trust: Some(TrustGuardConfig::default()),
            ..FleetConfig::default()
        },
    );
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
        .with_alignment_guard(AlignmentGuardConfig::default());
    let mut medium = bursty_medium(0.01, 41, ArqConfig::default());
    let (reports, decodes) = count_decodes(|| sim.run_with_channel(&pipeline, 3, &mut medium).0);

    let delivered = received(&reports);
    assert!(delivered > 0, "nothing was delivered");
    assert!(
        count_drops(&reports, |r| matches!(
            r,
            TransportDropReason::ConsistencyRejected { .. }
        )) > 0,
        "the trust screen rejected nothing"
    );
    assert_eq!(decodes, delivered, "payload decodes per delivered packet");
}

#[test]
fn crossed_delta_fleet_decodes_each_delivered_packet_once() {
    // The `crossed` golden's setup: delta frames over a bursty ARQ
    // channel to tracked, guarded receivers, with a replaying, a ghost
    // and a drifting sender, so v2 keyframes, deltas and salvaged v2
    // prefixes all reach the receivers' decoders.
    let scene = scenario::tj_scenario_1();
    let plan = FaultPlan::parse("1:replay@1,2:ghost:3@1,3:drift:0.5@0").expect("valid plan");
    let sim = fleet(
        scene.kind.beam_model(),
        1.0,
        4,
        FleetConfig {
            seed: 1,
            threads: Some(2),
            fault_plan: Some(plan),
            trust: Some(TrustGuardConfig::default()),
            ..FleetConfig::default()
        },
    );
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
        .with_alignment_guard(AlignmentGuardConfig::default())
        .with_tracker(TrackerConfig::default());
    let governor = GovernorConfig {
        delta_encode: true,
        keyframe_every: 2,
        ..GovernorConfig::default()
    };
    let mut medium = bursty_medium(0.0, 1, ArqConfig { max_retries: 2 });
    let mut policy = BandwidthGovernor::new(RoiCategory::FullFrame);
    let (reports, decodes) = count_decodes(|| {
        sim.run_governed(&pipeline, 4, &mut medium, &mut policy, &governor)
            .0
    });

    let delivered = received(&reports);
    assert!(delivered > 0, "nothing was delivered");
    assert!(
        count_drops(&reports, |r| matches!(
            r,
            TransportDropReason::PartialDelivery { .. }
        )) > 0,
        "no prefix was salvaged"
    );
    assert_eq!(decodes, delivered, "payload decodes per delivered packet");
}
