//! Ablation studies for the design choices called out in `DESIGN.md`.
//!
//! 1. **Fusion level** — Cooper's raw-data fusion vs an object-level
//!    fusion baseline (the paper's §I-B argument: object-level fusion
//!    can never discover objects neither vehicle detected).
//! 2. **ROI category vs recall** — how much detection the bandwidth
//!    savings of each ROI category give up.
//! 3. **Spherical densification on/off** — SPOD's preprocessing stage
//!    on sparse 16-beam input.
//! 4. **Exchange rate sweep** — channel utilization from 0.5 to 8 Hz
//!    (the paper settles on 1 Hz).

use cooper_bench::{output_dir, render_csv, render_table, standard_pipeline, write_artifact};
use cooper_core::report::{match_by_center_distance, MATCH_DISTANCE_M};
use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_geometry::{Obb3, RigidTransform};
use cooper_lidar_sim::scenario::{tj_scenarios, Scenario};
use cooper_lidar_sim::{LidarScanner, PoseEstimate};
use cooper_pointcloud::roi::{extract_roi, RoiCategory};
use cooper_pointcloud::PointCloud;
use cooper_spod::{non_max_suppression, Detection};
use cooper_v2x::{DsrcChannel, DsrcConfig, ExchangeScheduler, SharedMedium};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Case {
    scenario: Scenario,
    scan_a: PointCloud,
    scan_b: PointCloud,
    est_a: PoseEstimate,
    est_b: PoseEstimate,
    gt_in_a: Vec<Obb3>,
    gt_in_b: Vec<Obb3>,
    b_to_a: RigidTransform,
}

fn build_cases() -> Vec<Case> {
    tj_scenarios()
        .into_iter()
        .map(|scenario| {
            let scanner = LidarScanner::new(scenario.kind.beam_model());
            let (ia, ib) = scenario.pairs[0];
            let pose_a = scenario.observers[ia];
            let pose_b = scenario.observers[ib];
            let scan_a = scanner.scan(&scenario.world, &pose_a, 21);
            let scan_b = scanner.scan(&scenario.world, &pose_b, 22);
            let est_a = PoseEstimate::from_pose(&pose_a, &GPS_ANCHOR);
            let est_b = PoseEstimate::from_pose(&pose_b, &GPS_ANCHOR);
            let world_to_a = RigidTransform::from_pose(&pose_a).inverse();
            let world_to_b = RigidTransform::from_pose(&pose_b).inverse();
            let gt_in_a = scenario
                .ground_truth_cars()
                .iter()
                .map(|g| g.transformed(&world_to_a))
                .collect();
            let gt_in_b = scenario
                .ground_truth_cars()
                .iter()
                .map(|g| g.transformed(&world_to_b))
                .collect();
            let b_to_a = RigidTransform::between(&pose_b, &pose_a);
            Case {
                scenario,
                scan_a,
                scan_b,
                est_a,
                est_b,
                gt_in_a,
                gt_in_b,
                b_to_a,
            }
        })
        .collect()
}

fn detected(scores: &[Option<f32>]) -> usize {
    scores.iter().filter(|s| s.is_some()).count()
}

/// Ablation 1: raw-data fusion vs object-level fusion.
fn fusion_level(pipeline: &CooperPipeline, cases: &[Case]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for case in cases {
        let dets_a = pipeline.perceive_single(&case.scan_a, PerceiveCtx::default());
        let dets_b = pipeline.perceive_single(&case.scan_b, PerceiveCtx::default());

        // Object-level fusion: union the two detection *result* sets
        // (B's boxes aligned into A's frame), deduplicated by NMS.
        let mut object_level: Vec<Detection> = dets_a.clone();
        object_level.extend(dets_b.iter().map(|d| Detection {
            obb: d.obb.transformed(&case.b_to_a),
            ..*d
        }));
        let object_level = non_max_suppression(object_level, 0.2);

        // Raw-data fusion: Cooper.
        let packet = ExchangePacket::build(1, 0, &case.scan_b, case.est_b).expect("encodes");
        let coop = pipeline.perceive(
            &case.scan_a,
            &case.est_a,
            vec![packet.decode()],
            &GPS_ANCHOR,
            PerceiveCtx::default(),
        );

        let m = MATCH_DISTANCE_M;
        rows.push(vec![
            case.scenario.name.clone(),
            detected(&match_by_center_distance(&dets_a, &case.gt_in_a, m)).to_string(),
            detected(&match_by_center_distance(&dets_b, &case.gt_in_b, m)).to_string(),
            detected(&match_by_center_distance(&object_level, &case.gt_in_a, m)).to_string(),
            detected(&match_by_center_distance(
                &coop.detections,
                &case.gt_in_a,
                m,
            ))
            .to_string(),
            case.gt_in_a.len().to_string(),
        ]);
    }
    rows
}

/// Ablation 2: ROI category vs cooperative recall and payload size.
fn roi_vs_recall(pipeline: &CooperPipeline, cases: &[Case]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for category in RoiCategory::ALL {
        let mut total_detected = 0usize;
        let mut total_gt = 0usize;
        let mut total_bytes = 0usize;
        for case in cases {
            let roi_scan = extract_roi(&case.scan_b, category);
            let packet = ExchangePacket::build(1, 0, &roi_scan, case.est_b).expect("encodes");
            total_bytes += packet.wire_size();
            let coop = pipeline.perceive(
                &case.scan_a,
                &case.est_a,
                vec![packet.decode()],
                &GPS_ANCHOR,
                PerceiveCtx::default(),
            );
            let scores =
                match_by_center_distance(&coop.detections, &case.gt_in_a, MATCH_DISTANCE_M);
            total_detected += detected(&scores);
            total_gt += case.gt_in_a.len();
        }
        rows.push(vec![
            category.to_string(),
            format!("{:.0}", total_bytes as f64 / cases.len() as f64 / 1024.0),
            total_detected.to_string(),
            total_gt.to_string(),
        ]);
    }
    rows
}

/// Ablation 3: spherical densification on/off, at full and reduced
/// azimuth resolution. Interpolation can only help when the raw scan
/// actually has gaps, so the reduced-resolution rows are where the
/// design choice shows.
fn densify_ablation() -> Vec<Vec<String>> {
    use cooper_lidar_sim::scenario::tj_scenarios;
    use cooper_lidar_sim::{BeamModel, LidarScanner};
    use cooper_spod::preprocess::PreprocessConfig;
    use cooper_spod::train::{train, TrainingConfig};
    use cooper_spod::SpodConfig;

    let mut rows = Vec::new();
    for azimuth_steps in [1800usize, 600] {
        for (label, preprocess) in [
            ("densify on (2 passes)", PreprocessConfig::sparse_default()),
            ("densify off", PreprocessConfig::disabled()),
        ] {
            let spod_config = SpodConfig {
                preprocess,
                ..SpodConfig::default()
            };
            let training = TrainingConfig {
                beam_models: vec![BeamModel::vlp16().with_azimuth_steps(azimuth_steps)],
                ..TrainingConfig::standard()
            };
            let pipeline = CooperPipeline::new(train(spod_config, &training));
            let mut total_detected = 0usize;
            let mut total_gt = 0usize;
            for scenario in tj_scenarios() {
                let scanner =
                    LidarScanner::new(scenario.kind.beam_model().with_azimuth_steps(azimuth_steps));
                let (ia, _) = scenario.pairs[0];
                let pose_a = scenario.observers[ia];
                let scan_a = scanner.scan(&scenario.world, &pose_a, 21);
                let world_to_a = RigidTransform::from_pose(&pose_a).inverse();
                let gt_in_a: Vec<Obb3> = scenario
                    .ground_truth_cars()
                    .iter()
                    .map(|g| g.transformed(&world_to_a))
                    .collect();
                let dets = pipeline.perceive_single(&scan_a, PerceiveCtx::default());
                let scores = match_by_center_distance(&dets, &gt_in_a, MATCH_DISTANCE_M);
                total_detected += detected(&scores);
                total_gt += gt_in_a.len();
            }
            rows.push(vec![
                format!("{azimuth_steps} steps, {label}"),
                total_detected.to_string(),
                total_gt.to_string(),
            ]);
        }
    }
    rows
}

/// Ablation 4: exchange-rate sweep vs channel utilization.
fn rate_sweep(cases: &[Case]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let per_second: Vec<(PointCloud, PointCloud)> = cases
        .iter()
        .map(|c| (c.scan_a.clone(), c.scan_b.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(77);
    for rate in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let medium = SharedMedium::new(DsrcChannel::new(DsrcConfig::default()));
        let trace = ExchangeScheduler::new(rate, RoiCategory::FullFrame).simulate(
            &per_second,
            &medium,
            &mut rng,
        );
        rows.push(vec![
            format!("{rate}"),
            format!("{:.2}", trace.peak_mbit()),
            format!("{:.0}", trace.peak_utilization * 100.0),
            trace.transfers_dropped.to_string(),
        ]);
    }
    rows
}

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();
    eprintln!("scanning T&J scenarios…");
    let cases = build_cases();
    let out = output_dir();

    println!("=== Ablation 1: fusion level (paper §I-B) ===\n");
    let headers1 = [
        "scenario",
        "single_A",
        "single_B",
        "object_level",
        "raw_cooper",
        "gt_cars",
    ];
    let rows1 = fusion_level(&pipeline, &cases);
    println!("{}", render_table(&headers1, &rows1));
    println!("Object-level fusion can only union what the singles found;");
    println!("raw fusion also detects cars neither vehicle saw alone.\n");
    write_artifact(
        out.as_deref(),
        "ablation_fusion_level.csv",
        &render_csv(&headers1, &rows1),
    );

    println!("=== Ablation 2: ROI category vs cooperative recall ===\n");
    let headers2 = ["category", "avg_payload_KiB", "detected", "gt_cars"];
    let rows2 = roi_vs_recall(&pipeline, &cases);
    println!("{}", render_table(&headers2, &rows2));
    write_artifact(
        out.as_deref(),
        "ablation_roi_recall.csv",
        &render_csv(&headers2, &rows2),
    );

    println!("=== Ablation 3: spherical densification (SPOD preprocessing) ===\n");
    let headers3 = ["preprocessing", "detected", "gt_cars"];
    let rows3 = densify_ablation();
    println!("{}", render_table(&headers3, &rows3));
    write_artifact(
        out.as_deref(),
        "ablation_densify.csv",
        &render_csv(&headers3, &rows3),
    );

    println!("=== Ablation 4: exchange rate sweep (paper picks 1 Hz) ===\n");
    let headers4 = ["rate_hz", "peak_mbit_s", "channel_use_%", "dropped"];
    let rows4 = rate_sweep(&cases);
    println!("{}", render_table(&headers4, &rows4));
    write_artifact(
        out.as_deref(),
        "ablation_rate_sweep.csv",
        &render_csv(&headers4, &rows4),
    );
}
