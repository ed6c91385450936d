//! In-repo SGD training of the SPOD detection heads.
//!
//! The paper trains SPOD end-to-end on KITTI; this reproduction fits the
//! RPN heads (objectness + box regression) on labelled synthetic scenes
//! from [`cooper_lidar_sim::dataset`]. See the crate-level substitution
//! note.

use cooper_lidar_sim::dataset::{generate_cooperative_scene, generate_scene, SceneConfig};
use cooper_lidar_sim::{BeamModel, ObjectClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::anchors::{assign_label, AnchorConfig, AnchorLabel};
use crate::detector::{SpodConfig, SpodDetector};

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of generated training scenes.
    pub scenes: usize,
    /// Passes over the scene set.
    pub epochs: usize,
    /// Initial SGD learning rate (halved each epoch).
    pub learning_rate: f32,
    /// Approximate negatives trained per positive (hard balancing).
    pub negative_ratio: f64,
    /// Seed for scene generation and negative sampling.
    pub seed: u64,
    /// Scene composition.
    pub scene_config: SceneConfig,
    /// Beam models cycled across scenes — mixing densities is what makes
    /// SPOD work "not only on high density data, but also … much sparser
    /// point clouds".
    pub beam_models: Vec<BeamModel>,
    /// Every n-th scene is a fused two-vehicle cloud (0 disables), so
    /// the heads also see the density distribution of cooperative input.
    pub cooperative_every: usize,
}

impl TrainingConfig {
    /// A quick configuration for tests and examples (~seconds).
    pub fn fast() -> Self {
        TrainingConfig {
            scenes: 12,
            epochs: 2,
            learning_rate: 0.08,
            negative_ratio: 3.0,
            seed: 42,
            scene_config: SceneConfig::default(),
            beam_models: vec![
                BeamModel::vlp16(),
                BeamModel::hdl64().with_azimuth_steps(900),
            ],
            cooperative_every: 3,
        }
    }

    /// The standard configuration used by the experiment harness.
    pub fn standard() -> Self {
        TrainingConfig {
            scenes: 120,
            epochs: 4,
            negative_ratio: 6.0,
            cooperative_every: 4,
            ..TrainingConfig::fast()
        }
    }

    /// Validates hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns a message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenes == 0 {
            return Err("need at least one training scene".into());
        }
        if self.epochs == 0 {
            return Err("need at least one epoch".into());
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err("learning rate must be positive".into());
        }
        if self.beam_models.is_empty() {
            return Err("need at least one beam model".into());
        }
        self.scene_config.validate()
    }
}

/// Summary statistics of one training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingStats {
    /// Positive anchor updates applied.
    pub positives: u64,
    /// Negative anchor updates applied.
    pub negatives: u64,
    /// Ground-truth boxes that had no active anchor at all (fully
    /// occluded objects — undetectable from this viewpoint).
    pub unreachable_ground_truth: u64,
}

/// Trains a detector from scratch.
///
/// # Panics
///
/// Panics when `training` fails [`TrainingConfig::validate`].
pub fn train(config: SpodConfig, training: &TrainingConfig) -> SpodDetector {
    train_with_stats(config, training).0
}

/// Trains and also returns the run statistics.
///
/// # Panics
///
/// Panics when `training` fails [`TrainingConfig::validate`].
pub fn train_with_stats(
    config: SpodConfig,
    training: &TrainingConfig,
) -> (SpodDetector, TrainingStats) {
    if let Err(msg) = training.validate() {
        panic!("invalid training config: {msg}");
    }
    let mut detector = SpodDetector::new(config);
    let mut stats = TrainingStats::default();
    let mut rng = StdRng::seed_from_u64(training.seed);

    // Pre-extract features once per scene (the trunk is fixed).
    struct PreparedScene {
        features: Vec<((i32, i32), Vec<f32>)>,
        labels: Vec<(ObjectClass, cooper_geometry::Obb3)>,
    }
    let prepared: Vec<PreparedScene> = (0..training.scenes)
        .map(|i| {
            let beams = &training.beam_models[i % training.beam_models.len()];
            let seed = training.seed + i as u64;
            let cooperative = training.cooperative_every > 0
                && i % training.cooperative_every == training.cooperative_every - 1;
            let scene = if cooperative {
                generate_cooperative_scene(seed, &training.scene_config, beams)
            } else {
                generate_scene(seed, &training.scene_config, beams)
            };
            let bev = detector.featurize(&scene.cloud);
            let mut features: Vec<((i32, i32), Vec<f32>)> = bev
                .iter()
                .map(|(&cell, _)| {
                    (
                        cell,
                        bev.window_features(cell.0, cell.1, detector.config().window_radius),
                    )
                })
                .collect();
            // HashMap order is nondeterministic; fix it so identical
            // seeds always produce identical SGD update order.
            features.sort_by_key(|(cell, _)| *cell);
            let labels = scene.labels.iter().map(|l| (l.class, l.obb)).collect();
            PreparedScene { features, labels }
        })
        .collect();

    let grid = detector.config().voxel_grid;
    let n_yaws = AnchorConfig::YAWS.len();
    let mut learning_rate = training.learning_rate;

    for epoch in 0..training.epochs {
        for scene in &prepared {
            for head_idx in 0..detector.heads().len() {
                let head_config = *detector.heads()[head_idx].config();
                let class_gt: Vec<cooper_geometry::Obb3> = scene
                    .labels
                    .iter()
                    .filter(|(c, _)| *c == head_config.class)
                    .map(|(_, b)| *b)
                    .collect();

                // Pass 1: label every (cell, yaw) anchor.
                let mut labelled: Vec<(usize, usize, AnchorLabel)> = Vec::new();
                let mut positives = 0usize;
                let mut best_per_gt: Vec<(f64, Option<usize>)> = vec![(0.0, None); class_gt.len()];
                for (f_idx, (cell, _)) in scene.features.iter().enumerate() {
                    for yaw_idx in 0..n_yaws {
                        let anchor = head_config.anchor_at(&grid, *cell, yaw_idx);
                        let label = assign_label(&anchor, &class_gt, &head_config);
                        if matches!(label, AnchorLabel::Positive { .. }) {
                            positives += 1;
                        }
                        let entry_idx = labelled.len();
                        for (gt_idx, gt) in class_gt.iter().enumerate() {
                            if anchor.center_distance_bev(gt) > 6.0 {
                                continue;
                            }
                            let iou = anchor.iou_bev(gt);
                            if iou > best_per_gt[gt_idx].0 {
                                best_per_gt[gt_idx] = (iou, Some(entry_idx));
                            }
                        }
                        labelled.push((f_idx, yaw_idx, label));
                    }
                }
                // Force-match: every ground truth with any overlapping
                // anchor gets its best anchor as a positive, even below
                // the IoU threshold (SECOND's lowest-anchor rule). A
                // ground truth with no overlap at all is unreachable —
                // fully occluded from this viewpoint.
                for (gt_idx, &(iou, entry)) in best_per_gt.iter().enumerate() {
                    match entry {
                        Some(entry_idx) if iou > 0.12 => {
                            if !matches!(labelled[entry_idx].2, AnchorLabel::Positive { .. }) {
                                labelled[entry_idx].2 = AnchorLabel::Positive { gt_index: gt_idx };
                                positives += 1;
                            }
                        }
                        _ => stats.unreachable_ground_truth += 1,
                    }
                }

                // Pass 2: decide which negatives to train. Epoch 0 uses
                // balanced random sampling; later epochs use online hard
                // example mining (train the negatives the current head
                // scores highest — exactly the future false positives).
                let negative_budget =
                    ((positives.max(4) as f64) * training.negative_ratio).round() as usize;
                let negative_entries: Vec<usize> = labelled
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, l))| matches!(l, AnchorLabel::Negative))
                    .map(|(i, _)| i)
                    .collect();
                let selected_negatives: Vec<usize> = if epoch == 0 {
                    let keep_probability = if negative_entries.is_empty() {
                        0.0
                    } else {
                        (negative_budget as f64 / negative_entries.len() as f64).min(1.0)
                    };
                    negative_entries
                        .into_iter()
                        .filter(|_| rng.gen::<f64>() < keep_probability)
                        .collect()
                } else {
                    let mut scored: Vec<(f32, usize)> = negative_entries
                        .into_iter()
                        .map(|i| {
                            let (f_idx, yaw_idx, _) = labelled[i];
                            let logit = detector.heads()[head_idx]
                                .objectness_logit(&scene.features[f_idx].1, yaw_idx);
                            (logit, i)
                        })
                        .collect();
                    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                    scored
                        .into_iter()
                        .take(negative_budget)
                        .map(|(_, i)| i)
                        .collect()
                };
                for &i in &selected_negatives {
                    let (f_idx, yaw_idx, _) = labelled[i];
                    detector.heads_mut()[head_idx].train_negative(
                        &scene.features[f_idx].1,
                        yaw_idx,
                        learning_rate,
                    );
                    stats.negatives += 1;
                }
                for (f_idx, yaw_idx, label) in labelled {
                    let features = &scene.features[f_idx].1;
                    if let AnchorLabel::Positive { gt_index } = label {
                        let cell = scene.features[f_idx].0;
                        let anchor = head_config.anchor_at(&grid, cell, yaw_idx);
                        // Positives are scarce relative to negatives;
                        // apply each update twice (≈2× positive loss
                        // weight, as SECOND's focal weighting does).
                        for _ in 0..2 {
                            detector.heads_mut()[head_idx].train_positive(
                                features,
                                yaw_idx,
                                &anchor,
                                &class_gt[gt_index],
                                learning_rate,
                            );
                        }
                        stats.positives += 1;
                    }
                }
            }
        }
        learning_rate *= 0.5;
    }
    (detector, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectOptions, DetectScratch};

    #[test]
    fn fast_training_learns_to_detect() {
        let (detector, stats) = train_with_stats(SpodConfig::default(), &TrainingConfig::fast());
        assert!(stats.positives > 0, "no positive anchors seen");
        assert!(stats.negatives > 0, "no negative anchors seen");

        // Evaluate on a held-out scene.
        let scene = generate_scene(9_999, &SceneConfig::default(), &BeamModel::vlp16());
        let detections = detector.detect_with(
            &scene.cloud,
            &DetectOptions::default()
                .with_class(ObjectClass::Car)
                .with_threshold(0.5),
            &mut DetectScratch::new(),
        );
        // At least one visible car must be detected with IoU > 0.3.
        let visible_cars: Vec<_> = scene
            .labels
            .iter()
            .filter(|l| l.class == ObjectClass::Car && scene.cloud.count_in_box(&l.obb) >= 20)
            .collect();
        if !visible_cars.is_empty() {
            let hit = visible_cars
                .iter()
                .any(|gt| detections.iter().any(|d| d.obb.iou_bev(&gt.obb) > 0.3));
            assert!(
                hit,
                "no visible car detected ({} dets, {} visible cars)",
                detections.len(),
                visible_cars.len()
            );
        }
        // And empty space must not be full of detections.
        let empty = cooper_pointcloud::PointCloud::new();
        assert!(detector.detect(&empty).is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = TrainingConfig {
            scenes: 4,
            epochs: 1,
            ..TrainingConfig::fast()
        };
        let a = train(SpodConfig::default(), &cfg);
        let b = train(SpodConfig::default(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid training config")]
    fn zero_scenes_panics() {
        let cfg = TrainingConfig {
            scenes: 0,
            ..TrainingConfig::fast()
        };
        let _ = train(SpodConfig::default(), &cfg);
    }

    #[test]
    fn validate_messages() {
        let mut cfg = TrainingConfig::fast();
        cfg.epochs = 0;
        assert!(cfg.validate().unwrap_err().contains("epoch"));
        let mut cfg2 = TrainingConfig::fast();
        cfg2.learning_rate = 0.0;
        assert!(cfg2.validate().unwrap_err().contains("learning rate"));
        let mut cfg3 = TrainingConfig::fast();
        cfg3.beam_models.clear();
        assert!(cfg3.validate().unwrap_err().contains("beam"));
    }
}
