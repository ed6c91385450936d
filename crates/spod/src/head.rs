//! The SSD-style detection head: per-anchor objectness and box
//! regression.

use cooper_geometry::Obb3;
use serde::{Deserialize, Serialize};

use crate::anchors::{encode_box, AnchorConfig, REGRESSION_DIMS};
use crate::nn::{bce_with_logit_grad, sigmoid, smooth_l1_grad, Linear};

/// The trainable head for one object class.
///
/// For each anchor yaw (0°/90°) the head holds an objectness unit (a
/// logistic classifier over the BEV window features) and a 7-way linear
/// regressor producing the VoxelNet box residual. These are the layers
/// trained in-repo by SGD; see the crate-level substitution note.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionHead {
    config: AnchorConfig,
    objectness: Vec<Linear>,
    regression: Vec<Linear>,
}

impl DetectionHead {
    /// Creates a head with zero-initialized weights (every anchor starts
    /// at score 0.5 and zero residual).
    pub fn new(feature_dim: usize, config: AnchorConfig) -> Self {
        DetectionHead {
            config,
            objectness: (0..AnchorConfig::YAWS.len())
                .map(|_| Linear::zeros(feature_dim, 1))
                .collect(),
            regression: (0..AnchorConfig::YAWS.len())
                .map(|_| Linear::zeros(feature_dim, REGRESSION_DIMS))
                .collect(),
        }
    }

    /// The anchor configuration this head detects.
    pub fn config(&self) -> &AnchorConfig {
        &self.config
    }

    /// Input feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.objectness[0].in_dim()
    }

    /// The per-yaw objectness layers (weight-file persistence).
    pub fn objectness_layers(&self) -> &[Linear] {
        &self.objectness
    }

    /// The per-yaw regression layers (weight-file persistence).
    pub fn regression_layers(&self) -> &[Linear] {
        &self.regression
    }

    /// Reconstructs a head from loaded layers.
    ///
    /// # Panics
    ///
    /// Panics when the layer counts do not match the anchor yaw count.
    pub fn from_parts(
        config: AnchorConfig,
        objectness: Vec<Linear>,
        regression: Vec<Linear>,
    ) -> Self {
        assert_eq!(
            objectness.len(),
            AnchorConfig::YAWS.len(),
            "objectness layer count"
        );
        assert_eq!(
            regression.len(),
            AnchorConfig::YAWS.len(),
            "regression layer count"
        );
        DetectionHead {
            config,
            objectness,
            regression,
        }
    }

    /// Objectness logit for the anchor at yaw index `yaw_idx`.
    ///
    /// # Panics
    ///
    /// Panics when `yaw_idx` is out of range or `features` has the wrong
    /// length.
    pub fn objectness_logit(&self, features: &[f32], yaw_idx: usize) -> f32 {
        // Scalar path: the RPN scores every anchor of every BEV cell, so
        // the allocation-free dot product matters; bits match
        // `forward(features)[0]` exactly.
        self.objectness[yaw_idx].forward_scalar(features)
    }

    /// Detection score (sigmoid of the logit) in `[0, 1]`.
    pub fn score(&self, features: &[f32], yaw_idx: usize) -> f32 {
        sigmoid(self.objectness_logit(features, yaw_idx))
    }

    /// Predicted box residual.
    pub fn residual(&self, features: &[f32], yaw_idx: usize) -> Vec<f32> {
        self.regression[yaw_idx].forward(features)
    }

    /// [`DetectionHead::residual`] into a reusable buffer (bitwise the
    /// same values, no allocation once `out` has grown).
    pub(crate) fn residual_into(&self, features: &[f32], yaw_idx: usize, out: &mut Vec<f32>) {
        self.regression[yaw_idx].forward_into(features, out);
    }

    /// One SGD step for a *negative* anchor (objectness only).
    pub fn train_negative(&mut self, features: &[f32], yaw_idx: usize, learning_rate: f32) {
        let logit = self.objectness_logit(features, yaw_idx);
        let grad = bce_with_logit_grad(logit, 0.0);
        self.objectness[yaw_idx].sgd_step(0, features, grad, learning_rate);
    }

    /// One SGD step for a *positive* anchor: objectness toward 1 plus
    /// smooth-L1 regression toward the encoded ground-truth residual.
    pub fn train_positive(
        &mut self,
        features: &[f32],
        yaw_idx: usize,
        anchor: &Obb3,
        ground_truth: &Obb3,
        learning_rate: f32,
    ) {
        let logit = self.objectness_logit(features, yaw_idx);
        let grad = bce_with_logit_grad(logit, 1.0);
        self.objectness[yaw_idx].sgd_step(0, features, grad, learning_rate);

        let target = encode_box(anchor, ground_truth);
        let predicted = self.residual(features, yaw_idx);
        for (dim, (&t, &p)) in target.iter().zip(predicted.iter()).enumerate() {
            let g = smooth_l1_grad(p - t);
            self.regression[yaw_idx].sgd_step(dim, features, g, learning_rate);
        }
    }

    /// Total parameter norm — training-health telemetry.
    pub fn parameter_norm(&self) -> f32 {
        self.objectness
            .iter()
            .chain(self.regression.iter())
            .map(Linear::parameter_norm)
            .map(|n| n * n)
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::decode_box;
    use cooper_geometry::Vec3;
    use cooper_lidar_sim::ObjectClass;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn head() -> DetectionHead {
        DetectionHead::new(8, AnchorConfig::for_class(ObjectClass::Car, 1.8))
    }

    #[test]
    fn fresh_head_scores_half() {
        let h = head();
        assert_eq!(h.score(&[0.5; 8], 0), 0.5);
        assert_eq!(h.score(&[0.5; 8], 1), 0.5);
        assert_eq!(h.residual(&[0.5; 8], 0), vec![0.0; REGRESSION_DIMS]);
        let mut buf = vec![1.0; 2];
        h.residual_into(&[0.5; 8], 1, &mut buf);
        assert_eq!(buf, h.residual(&[0.5; 8], 1));
        assert_eq!(h.feature_dim(), 8);
    }

    #[test]
    fn training_separates_positive_from_negative() {
        let mut h = head();
        let mut rng = StdRng::seed_from_u64(0);
        // Positive anchors have high feature[0], negatives low.
        for _ in 0..2000 {
            let mut f = [0.0f32; 8];
            for v in f.iter_mut() {
                *v = rng.gen_range(0.0..0.2);
            }
            if rng.gen_bool(0.5) {
                f[0] += 0.8;
                let anchor = Obb3::new(Vec3::ZERO, Vec3::new(4.5, 1.8, 1.5), 0.0);
                h.train_positive(&f, 0, &anchor, &anchor, 0.1);
            } else {
                h.train_negative(&f, 0, 0.1);
            }
        }
        let mut pos = [0.05f32; 8];
        pos[0] = 0.9;
        let neg = [0.05f32; 8];
        assert!(h.score(&pos, 0) > 0.85, "pos score {}", h.score(&pos, 0));
        assert!(h.score(&neg, 0) < 0.15, "neg score {}", h.score(&neg, 0));
        assert!(h.parameter_norm() > 0.0);
    }

    #[test]
    fn regression_learns_constant_offset() {
        let mut h = head();
        let anchor = Obb3::new(Vec3::new(10.0, 0.0, -1.0), Vec3::new(4.5, 1.8, 1.5), 0.0);
        let gt = Obb3::new(Vec3::new(11.0, 0.5, -1.0), Vec3::new(4.5, 1.8, 1.5), 0.1);
        let f = [1.0f32; 8];
        for _ in 0..3000 {
            h.train_positive(&f, 0, &anchor, &gt, 0.02);
        }
        let decoded = decode_box(&anchor, &h.residual(&f, 0));
        assert!(
            (decoded.center - gt.center).norm() < 0.1,
            "decoded center {}",
            decoded.center
        );
        assert!((decoded.yaw - gt.yaw).abs() < 0.05);
    }

    #[test]
    fn yaw_heads_are_independent() {
        let mut h = head();
        let f = [1.0f32; 8];
        for _ in 0..200 {
            h.train_negative(&f, 0, 0.1);
        }
        assert!(h.score(&f, 0) < 0.2);
        assert_eq!(h.score(&f, 1), 0.5, "yaw 1 must be untouched");
    }
}
