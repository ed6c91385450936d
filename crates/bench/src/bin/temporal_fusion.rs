//! Extension experiment: temporal self-fusion.
//!
//! The paper produces Figure 2 by merging two frames of the *same*
//! vehicle taken two seconds apart — "we emulate the cooperative sensing
//! process between two vehicles" (§IV-B). Run forward, the same
//! machinery is a free upgrade for a single vehicle: aggregate the last
//! k ego-motion-compensated frames and detect on the union. This binary
//! runs that procedure online — fuse the retained frames into the
//! current scan's frame, detect on the union, then record the current
//! frame — over a drive through each scenario, sweeping the window
//! size, and appends the recall curve to the bench regression ledger.

use cooper_bench::{ledger, output_dir, render_table, standard_pipeline};
use cooper_core::report::match_by_center_distance;
use cooper_core::temporal::TemporalAggregator;
use cooper_core::PerceiveCtx;
use cooper_geometry::{Obb3, RigidTransform, Vec3};
use cooper_lidar_sim::scenario::all_scenarios;
use cooper_lidar_sim::LidarScanner;

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();

    println!("=== Extension: temporal self-fusion (Figure 2 run forward) ===\n");
    let mut rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for window in [1usize, 2, 3, 4] {
        let mut detected = 0usize;
        let mut total = 0usize;
        for scene in all_scenarios() {
            let scanner = LidarScanner::new(scene.kind.beam_model());
            // Drive forward from observer 0 at 5 m/s, one frame per
            // second, perceiving each frame against the aggregator's
            // ego-motion-compensated history. The last frame's
            // detections (a window of `window` fused frames) are
            // scored against ground truth.
            let base = scene.observers[0];
            let heading = Vec3::new(base.attitude.yaw.cos(), base.attitude.yaw.sin(), 0.0);
            let mut aggregator = TemporalAggregator::new(window.max(1));
            let mut final_pose = base;
            let mut dets = Vec::new();
            for step in 0..window {
                let mut pose = base;
                pose.position += heading * (5.0 * step as f64);
                let scan = scanner.scan(&scene.world, &pose, 900 + step as u64);
                let fused = aggregator.fused_in(&pose, &scan);
                dets = pipeline.perceive_single(&fused, PerceiveCtx::default());
                aggregator.push(pose, scan);
                final_pose = pose;
            }
            let world_to_local = RigidTransform::from_pose(&final_pose).inverse();
            let gt: Vec<Obb3> = scene
                .ground_truth_cars()
                .iter()
                .map(|g| g.transformed(&world_to_local))
                .collect();
            detected += match_by_center_distance(&dets, &gt, 2.5)
                .iter()
                .filter(|s| s.is_some())
                .count();
            total += gt.len();
        }
        let recall = detected as f64 / total as f64;
        metrics.push((format!("recall_{window}_frames"), recall));
        rows.push(vec![
            window.to_string(),
            detected.to_string(),
            total.to_string(),
            format!("{:.0}", recall * 100.0),
        ]);
    }
    let headers = ["frames_fused", "detected", "gt_cars", "recall_%"];
    println!("{}", render_table(&headers, &rows));
    println!("Shape check: each added ego-motion-compensated frame raises recall —");
    println!("the same mechanism as V2V fusion, with the vehicle's own history as");
    println!("the cooperator (viewpoint diversity comes from motion).");

    let metric_refs: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let record = ledger::BenchRecord::new("temporal_fusion", &metric_refs);
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    if let Err(e) = ledger::append(&dir.join(ledger::HISTORY_FILE), &record) {
        eprintln!("warning: cannot append to bench ledger: {e}");
    }
}
