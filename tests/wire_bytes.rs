//! `packet.wire_bytes` holds one observation per packet the fleet puts
//! on the air: on a lossy run with salvaged partial deliveries, its
//! count equals the transfers the channel was asked about and its sum
//! their wire bytes.
//!
//! Telemetry is a process-global registry, so this test has a binary of
//! its own.

use cooper_core::fleet::{straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle};
use cooper_core::{ChannelModel, CooperPipeline, Delivery, TransferCtx};
use cooper_lidar_sim::{scenario, BeamModel};
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_telemetry::names;
use cooper_v2x::{ArqConfig, DsrcChannel, DsrcConfig, SharedMedium};

/// Forwards every question to `inner` and tallies the transfers it
/// was asked about.
struct Counting<C> {
    inner: C,
    transfers: u64,
    bytes: u64,
    partial: u64,
}

impl<C: ChannelModel> ChannelModel for Counting<C> {
    fn deliver(&mut self, tx: &TransferCtx) -> bool {
        matches!(self.deliver_verdict(tx), Delivery::Delivered)
    }

    fn deliver_verdict(&mut self, tx: &TransferCtx) -> Delivery {
        self.transfers += 1;
        self.bytes += tx.wire_bytes as u64;
        let verdict = self.inner.deliver_verdict(tx);
        if matches!(verdict, Delivery::Partial { .. }) {
            self.partial += 1;
        }
        verdict
    }

    fn on_step_begin(&mut self, step: usize) {
        self.inner.on_step_begin(step);
    }

    fn airtime_for(&self, payload_bytes: usize) -> Option<f64> {
        self.inner.airtime_for(payload_bytes)
    }

    fn airtime_headroom_s(&self) -> Option<f64> {
        self.inner.airtime_headroom_s()
    }
}

#[test]
fn wire_bytes_counts_every_transfer_on_the_air() {
    const STEPS: usize = 3;
    let scene = scenario::tj_scenario_1();
    let vehicles: Vec<FleetVehicle> = scene
        .observers
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, 1.0, STEPS),
            beams: BeamModel::vlp16().with_azimuth_steps(300),
        })
        .collect();
    let sim = FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed: 11,
            threads: Some(2),
            ..FleetConfig::default()
        },
    );
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let medium = SharedMedium::new(DsrcChannel::new(DsrcConfig {
        loss_probability: 0.2,
        ..DsrcConfig::default()
    }))
    .with_seed(11)
    .with_arq(ArqConfig { max_retries: 1 });
    let mut channel = Counting {
        inner: medium,
        transfers: 0,
        bytes: 0,
        partial: 0,
    };

    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let (reports, _) = sim.run_with_channel(&pipeline, STEPS, &mut channel);
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::disable();
    cooper_telemetry::reset();

    assert_eq!(reports.len(), STEPS);
    assert_eq!(channel.transfers, (3 * 2 * STEPS) as u64);
    assert!(
        channel.partial > 0 && channel.partial < channel.transfers,
        "{} partial deliveries of {} transfers",
        channel.partial,
        channel.transfers
    );
    let wire = snapshot
        .value(names::PACKET_WIRE_BYTES)
        .expect("packet.wire_bytes recorded");
    assert_eq!(wire.count, channel.transfers);
    assert_eq!(wire.sum, channel.bytes);
}
