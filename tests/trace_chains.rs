//! End-to-end trace-context propagation: every packet transfer the
//! fleet attempts — across ARQ retries, partial salvage, alignment
//! rejection, channel corruption, consistency conviction and
//! quarantine — must leave a causal chain in the trace buffer that is
//! joinable by [`TraceId`] and ends in exactly the terminal stage its
//! reported outcome claims. One test function owns the global registry
//! for the whole file (this file is its own test binary), running the
//! four channel regimes sequentially with a reset in between.

#[path = "support/trace_join.rs"]
mod trace_join;

use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle, TransportDropReason,
    TrustGuardConfig,
};
use cooper_core::{AlignmentGuardConfig, CooperPipeline, PerfectChannel};
use cooper_lidar_sim::{scenario, BeamModel, FaultPlan};
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_telemetry::trace::stage;
use cooper_telemetry::{ChromeTrace, TraceId};
use cooper_v2x::{ArqConfig, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, SharedMedium};
use trace_join::assert_drops_join;

fn pipeline() -> CooperPipeline {
    CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
}

fn fleet(azimuth_steps: usize, fault_plan: Option<FaultPlan>) -> FleetSimulation {
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
            threads: Some(2),
            fault_plan,
            ..FleetConfig::default()
        },
    )
}

/// The stage names of one transfer's chain, in recording order.
fn stages(trace: &ChromeTrace, id: TraceId) -> Vec<&str> {
    trace
        .events_for(id)
        .into_iter()
        .map(|e| e.name.as_str())
        .collect()
}

fn traced<R>(run: impl FnOnce() -> R) -> (R, ChromeTrace) {
    cooper_telemetry::reset();
    cooper_telemetry::enable();
    cooper_telemetry::set_tracing(true);
    let out = run();
    let trace = cooper_telemetry::take_trace();
    cooper_telemetry::set_tracing(false);
    cooper_telemetry::disable();
    cooper_telemetry::reset();
    (out, trace)
}

#[test]
fn every_transfer_outcome_joins_to_a_terminal_trace_chain() {
    let p = pipeline();

    // Regime 1 — bursty loss with fragment ARQ: retries and whole-frame
    // losses. The trace must show v2x transmit activity, at least one
    // ARQ retry mark, and a terminal for every transfer.
    let ((reports, _), trace) = traced(|| {
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.1)),
            ..DsrcConfig::default()
        }))
        .with_seed(77)
        .with_arq(ArqConfig::default());
        fleet(900, None).run_with_channel(&p, 2, &mut medium)
    });
    assert_drops_join(&reports, &trace);
    assert!(
        trace.events.iter().any(|e| e.name == stage::V2X_TRANSMIT),
        "ARQ medium recorded no transmit marks"
    );
    assert!(
        trace.events.iter().any(|e| e.name == stage::V2X_ARQ_RETRY),
        "lossy ARQ run recorded no retry marks"
    );
    assert!(
        trace.events.iter().any(|e| e.name == stage::FUSED),
        "no transfer fused"
    );

    // Regime 2 — a 3 Mbit/s medium with ARQ and a tight 5 Hz delivery
    // deadline: transfers are cut mid-flight, producing partial
    // deliveries whose salvage chains must continue into fusion.
    let ((reports, _), trace) = traced(|| {
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            data_rate: cooper_v2x::DataRate::Mbps3,
            ..DsrcConfig::default()
        }))
        .with_seed(11)
        .with_arq(ArqConfig::default())
        .with_rate_hz(5.0);
        fleet(1500, None).run_with_channel(&p, 2, &mut medium)
    });
    assert_drops_join(&reports, &trace);
    let partials = reports
        .iter()
        .flat_map(|r| &r.transport_drops)
        .filter(|d| matches!(d.reason, TransportDropReason::PartialDelivery { .. }))
        .count();
    assert!(
        partials > 0,
        "saturated medium produced no partial deliveries"
    );
    assert!(
        trace.events.iter().any(|e| e.name == stage::SALVAGED),
        "no partial delivery was salvaged"
    );

    // Regime 3 — perfect channel, heavy pose drift, alignment guard:
    // rejected packets must terminate with the rejection residual on
    // the mark.
    let guarded = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
    let plan = FaultPlan::parse("2:drift:8.0@0..3").expect("valid plan");
    let ((reports, _), trace) = traced(|| {
        let mut channel = PerfectChannel;
        fleet(300, Some(plan)).run_with_channel(&guarded, 3, &mut channel)
    });
    assert_drops_join(&reports, &trace);
    let rejected = reports
        .iter()
        .flat_map(|r| &r.transport_drops)
        .filter(|d| matches!(d.reason, TransportDropReason::AlignmentRejected { .. }))
        .count();
    assert!(rejected > 0, "drifting sender was never rejected");
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == stage::ALIGN_REJECTED && e.terminal),
        "no terminal align_rejected mark"
    );
    // A plain run is a governed run under the send-first policy: on the
    // perfect channel every chain is the policy's admission, delivery,
    // then phase 3's verdict.
    let mut fused = 0usize;
    for id in trace.trace_ids() {
        let chain = stages(&trace, id);
        assert_eq!(
            chain[..chain.len().min(2)],
            [stage::GOVERN_SEND, stage::DELIVERED],
            "{id}: {chain:?}"
        );
        assert_eq!(chain.len(), 3, "{id}: {chain:?}");
        assert!(
            [stage::FUSED, stage::ALIGN_REJECTED].contains(&chain[2]),
            "{id}: {chain:?}"
        );
        fused += usize::from(chain[2] == stage::FUSED);
    }
    assert!(fused > 0, "no perfect-channel transfer fused");

    // Regime 4 — adversarial: a corrupting channel plus a ghost-cluster
    // sender under the trust guard. Corrupted frames, consistency
    // rejections and quarantine skips are all reported drops, and each
    // must still close its trace chain with the matching terminal.
    let guarded = pipeline().with_alignment_guard(AlignmentGuardConfig::default());
    let plan = FaultPlan::parse("2:ghost:3@0").expect("valid plan");
    let ((reports, stats), trace) = traced(|| {
        let mut medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
            corruption_probability: 0.01,
            ..DsrcConfig::default()
        }))
        .with_seed(5);
        let scene = scenario::tj_scenario_1();
        // Four vehicles on the two observer anchors (shifted ring by
        // ring): receivers need vantage over the space the ghost
        // clusters claim, or the consistency guard has no free-space
        // evidence to convict on.
        let vehicles: Vec<FleetVehicle> = (0..4usize)
            .map(|i| {
                let base = scene.observers[i % scene.observers.len()];
                let ring = (i / scene.observers.len()) as f64;
                let start = cooper_geometry::Pose::new(
                    base.position + cooper_geometry::Vec3::new(3.0 * ring, 3.0 * ring, 0.0),
                    base.attitude,
                );
                FleetVehicle {
                    id: i as u32 + 1,
                    trajectory: straight_trajectory(start, 0.5, 6),
                    beams: BeamModel::vlp16().with_azimuth_steps(400),
                }
            })
            .collect();
        FleetSimulation::new(
            scene.world.clone(),
            vehicles,
            FleetConfig {
                seed: 2024,
                threads: Some(2),
                fault_plan: Some(plan),
                trust: Some(TrustGuardConfig::default()),
                ..FleetConfig::default()
            },
        )
        .run_with_channel(&guarded, 6, &mut medium)
    });
    assert_drops_join(&reports, &trace);
    let reason_count = |f: fn(&TransportDropReason) -> bool| {
        reports
            .iter()
            .flat_map(|r| &r.transport_drops)
            .filter(|d| f(&d.reason))
            .count()
    };
    assert!(
        reason_count(|r| matches!(r, TransportDropReason::Corrupted)) > 0,
        "corrupting channel produced no corrupted drops"
    );
    assert!(
        reason_count(|r| matches!(r, TransportDropReason::ConsistencyRejected { .. })) > 0,
        "ghost sender was never consistency-rejected"
    );
    assert!(
        reason_count(|r| matches!(r, TransportDropReason::Quarantined)) > 0,
        "ghost sender was never quarantined"
    );
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == stage::QUARANTINED && e.terminal),
        "no terminal quarantined mark"
    );
    assert!(
        stats.trust.values().any(|t| t.quarantines > 0),
        "trust stats recorded no quarantine transitions"
    );
}
