//! Quickstart: train SPOD, exchange one frame between two simulated
//! vehicles, and compare single-shot against cooperative perception.
//!
//! Run with `cargo run -p cooper-core --example quickstart --release`.

use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_geometry::GpsFix;
use cooper_lidar_sim::{scenario, GpsImuModel, LidarScanner};
use cooper_spod::train::TrainingConfig;
use cooper_spod::SpodDetector;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 0. Turn on telemetry: every pipeline stage below records spans
    //    and counters into the global registry, printed at the end.
    cooper_telemetry::enable();

    // 1. Train the SPOD detector on synthetic labelled scenes. The
    //    `fast` config takes a couple of seconds; the experiment harness
    //    uses `standard`.
    println!("training SPOD detector…");
    let detector = SpodDetector::train_default(&TrainingConfig::fast());
    let pipeline = CooperPipeline::new(detector);
    cooper_telemetry::reset(); // drop spans recorded during training

    // 2. Pick a scenario: a parking lot scanned by two 16-beam vehicles.
    let scene = scenario::tj_scenario_1();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let (receiver_idx, transmitter_idx) = scene.pairs[0];

    // 3. Each vehicle scans and measures its own pose.
    let origin = GpsFix::new(33.2075, -97.1526, 190.0);
    let sensors = GpsImuModel::realistic();
    let mut rng = StdRng::seed_from_u64(7);
    let local_scan = scanner.scan(&scene.world, &scene.observers[receiver_idx], 1);
    let local_pose = sensors.measure(&scene.observers[receiver_idx], &origin, &mut rng);
    let remote_scan = scanner.scan(&scene.world, &scene.observers[transmitter_idx], 2);
    let remote_pose = sensors.measure(&scene.observers[transmitter_idx], &origin, &mut rng);

    // 4. Single-shot baseline.
    let single = pipeline.perceive_single(&local_scan, PerceiveCtx::default());
    println!("single shot: {} cars detected", single.len());

    // 5. The transmitter builds an exchange packet (cloud + GPS + IMU)…
    let packet = ExchangePacket::build(transmitter_idx as u32, 0, &remote_scan, remote_pose)?;
    println!(
        "exchange packet: {} points, {} bytes on the wire",
        remote_scan.len(),
        packet.wire_size()
    );

    // 6. …and the receiver fuses and re-detects.
    let result = pipeline.perceive(
        &local_scan,
        &local_pose,
        vec![packet.decode()],
        &origin,
        PerceiveCtx::default(),
    );
    println!(
        "cooperative: {} cars detected on {} fused points",
        result.detections.len(),
        result.fused_cloud.len()
    );
    for d in &result.detections {
        println!("  {d}");
    }

    // 7. Where did the time go? The telemetry snapshot breaks the run
    //    down per stage (see the Observability section of README.md).
    println!("\n{}", cooper_telemetry::snapshot().render_table());
    Ok(())
}
