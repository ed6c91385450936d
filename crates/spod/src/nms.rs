//! Non-maximum suppression over scored oriented boxes.

use cooper_geometry::Obb3;

use crate::detector::Detection;

/// Greedy score-sorted non-maximum suppression using BEV IoU.
///
/// Detections are processed best-first; any detection whose BEV IoU with
/// an already-kept detection of the *same class* exceeds `iou_threshold`
/// is suppressed.
///
/// # Panics
///
/// Panics when `iou_threshold` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{Obb3, Vec3};
/// use cooper_lidar_sim::ObjectClass;
/// use cooper_spod::{non_max_suppression, Detection};
///
/// let make = |x: f64, score: f32| Detection {
///     class: ObjectClass::Car,
///     obb: Obb3::new(Vec3::new(x, 0.0, 0.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
///     score,
/// };
/// let kept = non_max_suppression(vec![make(0.0, 0.9), make(0.2, 0.7), make(20.0, 0.8)], 0.3);
/// assert_eq!(kept.len(), 2); // the 0.7 overlaps the 0.9 and is dropped
/// ```
pub fn non_max_suppression(detections: Vec<Detection>, iou_threshold: f64) -> Vec<Detection> {
    non_max_suppression_with_distance(detections, iou_threshold, 0.0)
}

/// Like [`non_max_suppression`], additionally suppressing same-class
/// detections whose BEV centers are within `min_center_distance ×
/// min(box lengths)` of a kept detection.
///
/// Regression scatter can place two boxes on the same object with low
/// mutual IoU; pure IoU suppression keeps both. Distance suppression
/// (scaled by object length so pedestrians are not over-merged) removes
/// such duplicates. `min_center_distance = 0` disables the extra rule.
///
/// # Panics
///
/// Panics when `iou_threshold` is not in `[0, 1]` or
/// `min_center_distance` is negative.
pub fn non_max_suppression_with_distance(
    mut detections: Vec<Detection>,
    iou_threshold: f64,
    min_center_distance: f64,
) -> Vec<Detection> {
    assert!(
        (0.0..=1.0).contains(&iou_threshold),
        "IoU threshold must be in [0, 1]"
    );
    assert!(
        min_center_distance >= 0.0,
        "distance factor must be non-negative"
    );
    detections.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut kept: Vec<Detection> = Vec::new();
    let mut kept_reach: Vec<f64> = Vec::new();
    'candidates: for det in detections {
        let reach = bev_reach(&det.obb);
        for (survivor, &survivor_reach) in kept.iter().zip(&kept_reach) {
            if survivor.class != det.class {
                continue;
            }
            // Either rule suppresses, so the cheap distance rule goes
            // first and the polygon clip runs only when it does not fire.
            let scale = survivor.obb.size.x.min(det.obb.size.x);
            if min_center_distance > 0.0
                && survivor.obb.center_distance_bev(&det.obb) < min_center_distance * scale
            {
                continue 'candidates;
            }
            // IoU is 0 when the footprints are apart, and 0 never
            // exceeds a threshold in [0, 1]: skip the polygon clip.
            if !bev_apart(&survivor.obb, &det.obb, survivor_reach + reach)
                && survivor.obb.iou_bev(&det.obb) > iou_threshold
            {
                continue 'candidates;
            }
        }
        kept.push(det);
        kept_reach.push(reach);
    }
    kept
}

/// Gap (metres) by which two footprints' circumscribed circles must miss
/// each other before [`bev_apart`] calls them apart. It dwarfs the
/// rounding of corner coordinates and the polygon clip's `1e-12`
/// inside-test tolerance, so a clip of two apart boxes is empty.
const APART_MARGIN_M: f64 = 1e-6;

/// Edges shorter than this (metres) widen the clip's inside-test band
/// (`1e-12 / edge length`) towards [`APART_MARGIN_M`].
const MIN_REACH_EDGE_M: f64 = 1e-3;

/// Centres farther than this from the origin (metres, per axis) round
/// their corners by amounts approaching [`APART_MARGIN_M`].
const MAX_REACH_CENTER_M: f64 = 1e6;

/// Radius of the circle circumscribing `obb`'s BEV footprint plus half
/// of [`APART_MARGIN_M`]. Infinite — the box always takes the polygon
/// clip — when an edge is shorter than [`MIN_REACH_EDGE_M`] or the
/// centre lies beyond [`MAX_REACH_CENTER_M`].
fn bev_reach(obb: &Obb3) -> f64 {
    let thin = obb.size.x.min(obb.size.y) < MIN_REACH_EDGE_M;
    let far = obb.center.x.abs().max(obb.center.y.abs()) > MAX_REACH_CENTER_M;
    if thin || far {
        f64::INFINITY
    } else {
        0.5 * obb.size.x.hypot(obb.size.y) + 0.5 * APART_MARGIN_M
    }
}

/// `true` when the BEV centres are farther apart than `reach` (the sum of
/// both [`bev_reach`] radii): the footprints are then disjoint with a
/// clear gap and their BEV IoU is exactly 0. A NaN anywhere compares
/// false.
fn bev_apart(a: &Obb3, b: &Obb3, reach: f64) -> bool {
    let dx = a.center.x - b.center.x;
    let dy = a.center.y - b.center.y;
    dx * dx + dy * dy > reach * reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::{Obb3, Vec3};
    use cooper_lidar_sim::ObjectClass;

    fn det(class: ObjectClass, x: f64, y: f64, score: f32) -> Detection {
        Detection {
            class,
            obb: Obb3::new(Vec3::new(x, y, 0.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
            score,
        }
    }

    #[test]
    fn keeps_best_of_overlapping_cluster() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.6),
                det(ObjectClass::Car, 0.3, 0.0, 0.9),
                det(ObjectClass::Car, -0.2, 0.1, 0.7),
            ],
            0.3,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn distant_detections_survive() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.9),
                det(ObjectClass::Car, 10.0, 0.0, 0.8),
                det(ObjectClass::Car, 0.0, 10.0, 0.7),
            ],
            0.3,
        );
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn different_classes_do_not_suppress() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.9),
                det(ObjectClass::Cyclist, 0.0, 0.0, 0.5),
            ],
            0.3,
        );
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn output_sorted_by_score() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.5),
                det(ObjectClass::Car, 10.0, 0.0, 0.9),
                det(ObjectClass::Car, 20.0, 0.0, 0.7),
            ],
            0.3,
        );
        let scores: Vec<f32> = kept.iter().map(|d| d.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(non_max_suppression(vec![], 0.5).is_empty());
    }

    #[test]
    fn kept_set_is_conflict_free() {
        let mut dets = Vec::new();
        for i in 0..20 {
            dets.push(det(
                ObjectClass::Car,
                (i % 5) as f64 * 1.0,
                0.0,
                0.5 + (i as f32) * 0.01,
            ));
        }
        let kept = non_max_suppression(dets, 0.25);
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                assert!(kept[i].obb.iou_bev(&kept[j].obb) <= 0.25);
            }
        }
    }

    #[test]
    #[should_panic(expected = "IoU threshold")]
    fn bad_threshold_panics() {
        let _ = non_max_suppression(vec![], 1.5);
    }
}
