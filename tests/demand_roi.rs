//! The demand-driven ROI path end to end (§IV-G ships ROI data
//! "whenever failure detection happened on this area"): the receiver's
//! blind sectors pick the region, the sender extracts it from its own
//! scan, and fusing that region restores what the receiver cannot see
//! for a fraction of a full frame's bytes.

use cooper_core::governor::{BLIND_BINS, GROUND_Z_BELOW_M, MIN_SECTOR_WIDTH_RAD, OCCLUDER_RANGE_M};
use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_geometry::GpsFix;
use cooper_lidar_sim::{scenario, LidarScanner, PoseEstimate};
use cooper_pointcloud::roi::{blind_sectors, extract_roi, RoiCategory};
use cooper_spod::train::TrainingConfig;
use cooper_spod::SpodDetector;
use cooper_v2x::{demand_roi, BandwidthGovernor};

#[test]
fn demand_driven_roi_recovers_occluded_objects_cheaply() {
    let scene = scenario::tj_scenario_2();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let origin = GpsFix::new(33.2075, -97.1526, 190.0);
    let (rx, tx) = scene.pairs[0];
    let local = scanner.scan(&scene.world, &scene.observers[rx], 1);
    let remote = scanner.scan(&scene.world, &scene.observers[tx], 2);
    let est_rx = PoseEstimate::from_pose(&scene.observers[rx], &origin);
    let est_tx = PoseEstimate::from_pose(&scene.observers[tx], &origin);

    // The receiver finds the wedges nearby obstacles block with the
    // governed fleet's parameters, and an uncapped governor starts
    // from exactly the region they demand.
    let blind = blind_sectors(
        &local,
        BLIND_BINS,
        OCCLUDER_RANGE_M,
        MIN_SECTOR_WIDTH_RAD,
        GROUND_Z_BELOW_M,
    );
    assert!(!blind.is_empty(), "the receiver must have blind sectors");
    let roi = demand_roi(&blind);
    assert_ne!(roi, RoiCategory::FullFrame, "{blind:?}");
    assert_eq!(BandwidthGovernor::default().base_roi(&blind), roi);

    // The transmitter ships only that region of its scan.
    let packet =
        ExchangePacket::build(tx as u32, 0, &extract_roi(&remote, roi), est_tx).expect("encodes");
    let full_bytes = ExchangePacket::wire_size_for(remote.len());
    assert!(
        (packet.wire_size() as f64) < 0.8 * full_bytes as f64,
        "{roi} ({} B) should undercut a full frame ({full_bytes} B)",
        packet.wire_size()
    );

    // Fusing only the demanded region still beats the single shot.
    let pipeline = CooperPipeline::new(SpodDetector::train_default(&TrainingConfig::fast()));
    let single = pipeline.perceive_single(&local, PerceiveCtx::default());
    let result = pipeline.perceive(
        &local,
        &est_rx,
        vec![packet.decode()],
        &origin,
        PerceiveCtx::default(),
    );
    assert!(
        result.detections.len() >= single.len(),
        "demand-driven fusion lost detections: {} vs {}",
        result.detections.len(),
        single.len()
    );
}
