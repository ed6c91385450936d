//! Figure 2 walkthrough: merging two 64-beam "KITTI" single shots.
//!
//! The paper's Figure 2 merges two HDL-64 frames taken two seconds apart
//! (emulating two cooperating vehicles) and shows that (1) the merged
//! cloud yields more detected cars than either single shot and (2) the
//! detection score of an already-detected car increases.
//!
//! Run with `cargo run -p cooper-core --example kitti_merge --release`.

use cooper_core::report::{evaluate_pair, EvaluationConfig};
use cooper_core::{CooperPipeline, PerceiveCtx};
use cooper_lidar_sim::scenario::t_junction;
use cooper_spod::train::TrainingConfig;
use cooper_spod::SpodDetector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training SPOD detector…");
    let detector = SpodDetector::train_default(&TrainingConfig::standard());
    let pipeline = CooperPipeline::new(detector);

    let scene = t_junction();
    println!(
        "scenario: {} ({} ground-truth cars)\n",
        scene.name,
        scene.ground_truth_cars().len()
    );

    let eval = evaluate_pair(&pipeline, &scene, 0, &EvaluationConfig::default());
    println!("{}", eval.render_matrix());

    // A terminal rendition of the figure's merged-cloud panel.
    {
        use cooper_core::viz::{render_bev, BevViewConfig};
        use cooper_core::ExchangePacket;
        use cooper_geometry::{GpsFix, RigidTransform};
        use cooper_lidar_sim::{LidarScanner, PoseEstimate};

        let scanner = LidarScanner::new(scene.kind.beam_model());
        let (ia, ib) = scene.pairs[0];
        let origin = GpsFix::new(33.2075, -97.1526, 190.0);
        let scan_a = scanner.scan(&scene.world, &scene.observers[ia], 1);
        let scan_b = scanner.scan(&scene.world, &scene.observers[ib], 2);
        let est_a = PoseEstimate::from_pose(&scene.observers[ia], &origin);
        let est_b = PoseEstimate::from_pose(&scene.observers[ib], &origin);
        let packet = ExchangePacket::build(1, 0, &scan_b, est_b)?;
        let result = pipeline.perceive(
            &scan_a,
            &est_a,
            vec![packet.decode()],
            &origin,
            PerceiveCtx::default(),
        );
        let world_to_a = RigidTransform::from_pose(&scene.observers[ia]).inverse();
        let gt: Vec<_> = scene
            .ground_truth_cars()
            .iter()
            .map(|g| g.transformed(&world_to_a))
            .collect();
        println!(
            "{}",
            render_bev(
                &result.fused_cloud.downsampled(37),
                &result.detections,
                &gt,
                &BevViewConfig {
                    extent_m: 60.0,
                    columns: 110
                },
            )
        );
    }

    println!(
        "single shot t1 detects {} cars, single shot t2 detects {} cars,",
        eval.detected_a(),
        eval.detected_b()
    );
    println!("the merged cloud detects {} cars.", eval.detected_coop());

    // The paper's second observation: scores increase after merging.
    let mut raised = 0;
    for row in &eval.rows {
        let best_single = match (row.score_a, row.score_b) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        if let (Some(best_single), Some(coop)) = (best_single, row.score_coop) {
            if coop > best_single {
                raised += 1;
                println!(
                    "car {}: score {:.2} -> {:.2} (+{:.0} %)",
                    row.gt_index,
                    best_single,
                    coop,
                    (f64::from(coop) - f64::from(best_single)) / f64::from(best_single) * 100.0
                );
            }
        }
    }
    println!("{raised} cars gained detection score through cooperation.");
    Ok(())
}
