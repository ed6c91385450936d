//! Demand-driven ROI exchange over a simulated DSRC channel.
//!
//! Shows the full networking path of §IV-G: extract a region of
//! interest from the transmitter's scan, subtract known static
//! background, wrap it in an exchange packet, fragment it to MTU size,
//! push it through a lossy DSRC channel, reassemble, and fuse — and,
//! when a burst eats the tail of the transfer, salvage the delivered
//! prefix with `salvage_prefix` + `ExchangePacket::from_partial_bytes`
//! instead of discarding the whole scan. Last, the receiver's blind
//! sectors choose the ROI it asks for, as in the governed fleet.
//!
//! Run with `cargo run -p cooper-v2x --example roi_exchange --release`.

use cooper_core::governor::{BLIND_BINS, GROUND_Z_BELOW_M, MIN_SECTOR_WIDTH_RAD, OCCLUDER_RANGE_M};
use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_geometry::GpsFix;
use cooper_lidar_sim::{scenario, LidarScanner, PoseEstimate};
use cooper_pointcloud::roi::{blind_sectors, extract_roi, RoiCategory, StaticMap};
use cooper_pointcloud::VoxelGridConfig;
use cooper_spod::train::TrainingConfig;
use cooper_spod::SpodDetector;
use cooper_v2x::{demand_roi, fragment, reassemble, salvage_prefix, DsrcChannel, DsrcConfig, MTU};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training SPOD detector…");
    let pipeline = CooperPipeline::new(SpodDetector::train_default(&TrainingConfig::fast()));

    let scene = scenario::tj_scenario_2();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let (rx, tx) = scene.pairs[0];
    let origin = GpsFix::new(33.2075, -97.1526, 190.0);

    // The transmitter has been parked here a while: it already mapped
    // the static background over several scans.
    let mut static_map = StaticMap::new(VoxelGridConfig::voxelnet_car(), 3);
    for seed in 0..4 {
        static_map.observe(&scanner.scan(&scene.world, &scene.observers[tx], 100 + seed));
    }

    let local_scan = scanner.scan(&scene.world, &scene.observers[rx], 1);
    let remote_scan = scanner.scan(&scene.world, &scene.observers[tx], 2);
    println!("raw transmitter scan: {} points", remote_scan.len());

    // ROI extraction + background subtraction shrink the payload.
    let roi = extract_roi(&remote_scan, RoiCategory::FrontFov120);
    println!("after 120° ROI: {} points", roi.len());
    let dynamic = static_map.subtract_background(&roi);
    println!("after background subtraction: {} points", dynamic.len());

    // Build, serialize and fragment the packet.
    let est_tx = PoseEstimate::from_pose(&scene.observers[tx], &origin);
    let est_rx = PoseEstimate::from_pose(&scene.observers[rx], &origin);
    let packet = ExchangePacket::build(tx as u32, 0, &dynamic, est_tx)?;
    let wire = packet.to_bytes();
    let channel = DsrcChannel::new(DsrcConfig::default());
    let fragments = fragment(1, &wire, MTU);
    println!(
        "packet: {} bytes -> {} DSRC fragments, {:.1} ms air time",
        wire.len(),
        fragments.len(),
        channel.airtime_for(wire.len()) * 1e3
    );

    // Receive side: reassemble, decode, fuse, detect. The receiver's
    // own view stays fixed while its inbox varies below.
    let perceive = |packet: &ExchangePacket| {
        let inbox = vec![packet.decode()];
        pipeline.perceive(&local_scan, &est_rx, inbox, &origin, PerceiveCtx::default())
    };
    let received = reassemble(&fragments)?;
    let packet = ExchangePacket::from_bytes(&received)?;
    let result = perceive(&packet);
    let single = pipeline.perceive_single(&local_scan, PerceiveCtx::default());
    println!(
        "detections: {} single-shot -> {} cooperative",
        single.len(),
        result.detections.len()
    );

    // Lossy variant: a burst eats the last 40% of the frames and the
    // delivery deadline expires before ARQ can fill the gap. The
    // contiguous prefix still decodes to a usable partial cloud.
    // (Fragment at a tight 100-byte MTU so the burst has frames to eat.)
    let fragments = fragment(2, &wire, 100);
    let survivors = &fragments[..fragments.len() - fragments.len() * 2 / 5];
    let salvaged = salvage_prefix(survivors)?;
    let (partial, delivered_fraction) = ExchangePacket::from_partial_bytes(&salvaged.bytes)?;
    let degraded = perceive(&partial);
    println!(
        "burst loss: {}/{} fragments delivered, {:.0}% of points salvaged, {} detections",
        salvaged.fragments_used,
        fragments.len(),
        delivered_fraction * 100.0,
        degraded.detections.len()
    );

    // Demand-driven variant (§IV-G): the receiver's blind sectors pick
    // the ROI, exactly as the bandwidth governor's demand path does in
    // the governed fleet, and the sender ships only that region.
    let blind = blind_sectors(
        &local_scan,
        BLIND_BINS,
        OCCLUDER_RANGE_M,
        MIN_SECTOR_WIDTH_RAD,
        GROUND_Z_BELOW_M,
    );
    let demanded = demand_roi(&blind);
    let packet = ExchangePacket::build(tx as u32, 1, &extract_roi(&remote_scan, demanded), est_tx)?;
    let demand_bytes = packet.wire_size();
    let result = perceive(&packet);
    println!(
        "demand-driven exchange: {} blind sectors -> {demanded}, {demand_bytes} bytes, {} detections",
        blind.len(),
        result.detections.len()
    );
    Ok(())
}
