//! The scenario experiment runner: reproduces the per-car score
//! matrices (Figures 3 and 6) and the count/accuracy summaries
//! (Figures 4 and 7).

use cooper_geometry::{Obb3, RigidTransform};
use cooper_lidar_sim::scenario::Scenario;
use cooper_lidar_sim::{GpsImuModel, LidarScanner};
use cooper_spod::Detection;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::stats::{DistanceBand, ScoreImprovement};
use crate::{CooperPipeline, ExchangePacket, PerceiveCtx, GPS_ANCHOR};

/// A detection within this planar distance of a ground-truth car
/// center counts as detecting that car, metres.
pub const MATCH_DISTANCE_M: f64 = 2.5;

/// Scan and pose-noise seed of every experiment run.
const EVALUATION_SEED: u64 = 1;

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// GPS/IMU model used to produce the exchanged pose estimates.
    pub sensor_model: GpsImuModel,
    /// Optional azimuth-resolution override for faster scans in benches.
    pub azimuth_steps: Option<usize>,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            sensor_model: GpsImuModel::ideal(),
            azimuth_steps: None,
        }
    }
}

/// One row of a Figure-3/Figure-6 score matrix: a ground-truth car and
/// its detection scores in the two single shots and the cooperative
/// cloud.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CarRow {
    /// Index of the car in the scenario's ground truth.
    pub gt_index: usize,
    /// Distance band relative to the closer observer (the figure's cell
    /// shading).
    pub band: DistanceBand,
    /// `true` when the car is within detection range of observer A.
    pub in_range_a: bool,
    /// `true` when the car is within detection range of observer B.
    pub in_range_b: bool,
    /// Detection score in observer A's single shot (`None` = missed,
    /// the figure's `X`).
    pub score_a: Option<f32>,
    /// Detection score in observer B's single shot.
    pub score_b: Option<f32>,
    /// Detection score on the fused cooperative cloud.
    pub score_coop: Option<f32>,
}

/// The evaluation of one cooperative pair within a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairEvaluation {
    /// Scenario name.
    pub scenario_name: String,
    /// The observer index pair evaluated.
    pub pair: (usize, usize),
    /// Planar distance between the observers (the figures' `Δd`).
    pub delta_d: f64,
    /// One row per ground-truth car.
    pub rows: Vec<CarRow>,
}

impl PairEvaluation {
    /// Cars detected in observer A's single shot.
    pub fn detected_a(&self) -> usize {
        self.rows.iter().filter(|r| r.score_a.is_some()).count()
    }

    /// Cars detected in observer B's single shot.
    pub fn detected_b(&self) -> usize {
        self.rows.iter().filter(|r| r.score_b.is_some()).count()
    }

    /// Cars detected on the cooperative cloud.
    pub fn detected_coop(&self) -> usize {
        self.rows.iter().filter(|r| r.score_coop.is_some()).count()
    }

    /// Detection accuracy (%) of observer A's single shot: detected cars
    /// over in-range cars (Figures 4 and 7, lower panels).
    pub fn accuracy_a(&self) -> f64 {
        percentage(
            self.detected_a(),
            self.rows.iter().filter(|r| r.in_range_a).count(),
        )
    }

    /// Detection accuracy (%) of observer B's single shot.
    pub fn accuracy_b(&self) -> f64 {
        percentage(
            self.detected_b(),
            self.rows.iter().filter(|r| r.in_range_b).count(),
        )
    }

    /// Detection accuracy (%) of cooperative perception: detected cars
    /// over cars in range of *either* observer (the extended sensing
    /// area).
    pub fn accuracy_coop(&self) -> f64 {
        percentage(
            self.detected_coop(),
            self.rows
                .iter()
                .filter(|r| r.in_range_a || r.in_range_b)
                .count(),
        )
    }

    /// Score improvements for Figure 8, one entry per cooperatively
    /// detected car.
    pub fn improvements(&self) -> Vec<ScoreImprovement> {
        self.rows
            .iter()
            .filter_map(|r| ScoreImprovement::compute(r.score_a, r.score_b, r.score_coop))
            .collect()
    }

    /// Renders the Figure-3/6 style matrix as text: one row per car,
    /// columns `A`, `B`, `A+B`; `X` marks a missed in-range car, blank
    /// an out-of-range one; the band column shows near/medium/far.
    pub fn render_matrix(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} pair {:?} (Δd = {:.1} m)",
            self.scenario_name, self.pair, self.delta_d
        );
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>6} {:>6} {:>6}",
            "car", "band", "A", "B", "A+B"
        );
        for row in &self.rows {
            let cell = |score: Option<f32>, in_range: bool| match score {
                Some(s) => format!("{s:.2}"),
                None if in_range => "X".to_string(),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{:>4} {:>8} {:>6} {:>6} {:>6}",
                row.gt_index,
                row.band.to_string(),
                cell(row.score_a, row.in_range_a),
                cell(row.score_b, row.in_range_b),
                cell(row.score_coop, row.in_range_a || row.in_range_b),
            );
        }
        out
    }
}

fn percentage(hits: usize, total: usize) -> f64 {
    if total == 0 {
        100.0
    } else {
        hits as f64 / total as f64 * 100.0
    }
}

/// Greedy best-score matching of car detections to ground-truth boxes
/// by planar center distance. Returns per-ground-truth best score.
pub fn match_by_center_distance(
    detections: &[Detection],
    ground_truth: &[Obb3],
    max_distance: f64,
) -> Vec<Option<f32>> {
    let mut order: Vec<usize> = (0..detections.len()).collect();
    order.sort_by(|&a, &b| detections[b].score.total_cmp(&detections[a].score));
    let mut scores: Vec<Option<f32>> = vec![None; ground_truth.len()];
    for det_idx in order {
        let det = &detections[det_idx];
        let mut best: Option<(f64, usize)> = None;
        for (gt_idx, gt) in ground_truth.iter().enumerate() {
            if scores[gt_idx].is_some() {
                continue;
            }
            let dist = gt.center_distance_bev(&det.obb);
            if dist <= max_distance && best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, gt_idx));
            }
        }
        if let Some((_, gt_idx)) = best {
            scores[gt_idx] = Some(det.score);
        }
    }
    scores
}

/// Runs one cooperative pair of a scenario through the full pipeline:
/// scan both observers, detect each single shot, exchange + align +
/// fuse, detect cooperatively, and match everything against ground
/// truth.
///
/// # Panics
///
/// Panics when `pair_index` is out of range for the scenario.
pub fn evaluate_pair(
    pipeline: &CooperPipeline,
    scenario: &Scenario,
    pair_index: usize,
    config: &EvaluationConfig,
) -> PairEvaluation {
    let pair = scenario.pairs[pair_index];
    let (ia, ib) = pair;
    let pose_a = scenario.observers[ia];
    let pose_b = scenario.observers[ib];

    let mut beams = scenario.kind.beam_model();
    if let Some(steps) = config.azimuth_steps {
        beams = beams.with_azimuth_steps(steps);
    }
    let scanner = LidarScanner::new(beams);
    let scan_seed = EVALUATION_SEED ^ ((pair_index as u64) << 32);
    let scan_a = scanner.scan(&scenario.world, &pose_a, scan_seed);
    let scan_b = scanner.scan(&scenario.world, &pose_b, scan_seed.wrapping_add(1));

    let mut rng = StdRng::seed_from_u64(EVALUATION_SEED ^ 0xE57);
    let est_a = config.sensor_model.measure(&pose_a, &GPS_ANCHOR, &mut rng);
    let est_b = config.sensor_model.measure(&pose_b, &GPS_ANCHOR, &mut rng);

    let dets_a = pipeline.perceive_single(&scan_a, PerceiveCtx::default());
    let dets_b = pipeline.perceive_single(&scan_b, PerceiveCtx::default());

    let packet = ExchangePacket::build(ib as u32, 0, &scan_b, est_b)
        .expect("sensor-frame scan always encodes");
    let coop = pipeline.perceive(
        &scan_a,
        &est_a,
        vec![packet.decode()],
        &GPS_ANCHOR,
        PerceiveCtx::default(),
    );

    let ground_truth = scenario.ground_truth_cars();
    let world_to_a = RigidTransform::from_pose(&pose_a).inverse();
    let world_to_b = RigidTransform::from_pose(&pose_b).inverse();
    let gt_in_a: Vec<Obb3> = ground_truth
        .iter()
        .map(|g| g.transformed(&world_to_a))
        .collect();
    let gt_in_b: Vec<Obb3> = ground_truth
        .iter()
        .map(|g| g.transformed(&world_to_b))
        .collect();

    let scores_a = match_by_center_distance(&dets_a, &gt_in_a, MATCH_DISTANCE_M);
    let scores_b = match_by_center_distance(&dets_b, &gt_in_b, MATCH_DISTANCE_M);
    let scores_coop = match_by_center_distance(&coop.detections, &gt_in_a, MATCH_DISTANCE_M);

    let detection_radius = detection_range(pipeline);
    let rows = ground_truth
        .iter()
        .enumerate()
        .map(|(gt_index, gt)| {
            let dist_a = gt.center.distance_xy(pose_a.position);
            let dist_b = gt.center.distance_xy(pose_b.position);
            CarRow {
                gt_index,
                band: DistanceBand::of(dist_a.min(dist_b)),
                in_range_a: dist_a <= detection_radius,
                in_range_b: dist_b <= detection_radius,
                score_a: scores_a[gt_index],
                score_b: scores_b[gt_index],
                score_coop: scores_coop[gt_index],
            }
        })
        .collect();

    PairEvaluation {
        scenario_name: scenario.name.clone(),
        pair,
        delta_d: scenario.delta_d(pair),
        rows,
    }
}

/// Evaluates every cooperative pair of a scenario.
pub fn evaluate_scenario(
    pipeline: &CooperPipeline,
    scenario: &Scenario,
    config: &EvaluationConfig,
) -> Vec<PairEvaluation> {
    (0..scenario.pairs.len())
        .map(|i| evaluate_pair(pipeline, scenario, i, config))
        .collect()
}

/// The effective planar detection radius of the pipeline's detector
/// (the voxel extent's half-width).
fn detection_range(pipeline: &CooperPipeline) -> f64 {
    let extent = pipeline.detector().config().voxel_grid.extent;
    let size = extent.size();
    (size.x.min(size.y)) * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::Vec3;
    use cooper_lidar_sim::scenario;
    use cooper_lidar_sim::ObjectClass;
    use cooper_spod::{SpodConfig, SpodDetector};

    fn det(x: f64, y: f64, score: f32) -> Detection {
        Detection {
            class: ObjectClass::Car,
            obb: Obb3::new(Vec3::new(x, y, -1.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
            score,
        }
    }

    fn car(x: f64, y: f64) -> Obb3 {
        Obb3::new(Vec3::new(x, y, -1.0), Vec3::new(4.5, 1.8, 1.5), 0.0)
    }

    #[test]
    fn center_distance_matching_greedy() {
        let gts = vec![car(10.0, 0.0), car(20.0, 0.0)];
        let dets = vec![
            det(10.5, 0.0, 0.9),
            det(19.0, 0.5, 0.7),
            det(50.0, 0.0, 0.95),
        ];
        let scores = match_by_center_distance(&dets, &gts, 2.5);
        assert_eq!(scores, vec![Some(0.9), Some(0.7)]);
    }

    #[test]
    fn each_gt_claimed_once() {
        let gts = vec![car(10.0, 0.0)];
        let dets = vec![det(10.0, 0.0, 0.9), det(10.5, 0.0, 0.8)];
        let scores = match_by_center_distance(&dets, &gts, 2.5);
        assert_eq!(scores, vec![Some(0.9)]);
    }

    #[test]
    fn no_match_beyond_distance() {
        let gts = vec![car(10.0, 0.0)];
        let dets = vec![det(14.0, 0.0, 0.9)];
        assert_eq!(match_by_center_distance(&dets, &gts, 2.5), vec![None]);
    }

    #[test]
    fn pair_evaluation_structure() {
        // An untrained pipeline: everything missed, but the structure —
        // rows, bands, ranges — must be correct.
        let pipeline =
            CooperPipeline::new(SpodDetector::new(SpodConfig::default())).with_score_threshold(0.6);
        let scene = scenario::tj_scenario_1();
        let eval = evaluate_pair(
            &pipeline,
            &scene,
            0,
            &EvaluationConfig {
                azimuth_steps: Some(180),
                ..EvaluationConfig::default()
            },
        );
        assert_eq!(eval.rows.len(), scene.ground_truth_cars().len());
        assert!((eval.delta_d - scene.delta_d(scene.pairs[0])).abs() < 1e-12);
        assert_eq!(eval.detected_a(), 0);
        assert_eq!(eval.detected_coop(), 0);
        // Accuracy of nothing-detected with in-range cars is 0.
        assert_eq!(eval.accuracy_a(), 0.0);
        let text = eval.render_matrix();
        assert!(text.contains("Δd"));
        assert!(text.contains('X'));
    }

    #[test]
    fn percentage_empty_is_hundred() {
        assert_eq!(percentage(0, 0), 100.0);
        assert_eq!(percentage(1, 2), 50.0);
    }

    #[test]
    fn improvements_from_rows() {
        let eval = PairEvaluation {
            scenario_name: "test".into(),
            pair: (0, 1),
            delta_d: 10.0,
            rows: vec![
                CarRow {
                    gt_index: 0,
                    band: DistanceBand::Near,
                    in_range_a: true,
                    in_range_b: true,
                    score_a: Some(0.7),
                    score_b: Some(0.6),
                    score_coop: Some(0.8),
                },
                CarRow {
                    gt_index: 1,
                    band: DistanceBand::Far,
                    in_range_a: true,
                    in_range_b: false,
                    score_a: None,
                    score_b: None,
                    score_coop: Some(0.6),
                },
                CarRow {
                    gt_index: 2,
                    band: DistanceBand::Medium,
                    in_range_a: true,
                    in_range_b: true,
                    score_a: None,
                    score_b: None,
                    score_coop: None,
                },
            ],
        };
        let imps = eval.improvements();
        assert_eq!(imps.len(), 2);
        assert_eq!(imps[0].difficulty, crate::CooperDifficulty::Easy);
        assert_eq!(imps[1].difficulty, crate::CooperDifficulty::Hard);
        assert_eq!(eval.detected_coop(), 2);
    }
}
