//! Property-based tests for the SPOD detector components.

use cooper_geometry::{Obb3, Vec3};
use cooper_lidar_sim::ObjectClass;
use cooper_pointcloud::VoxelCoord;
use cooper_spod::anchors::{decode_box, encode_box};
use cooper_spod::eval::{average_precision, match_detections, precision_recall_curve};
use cooper_spod::nn::{bce_with_logit, sigmoid, smooth_l1};
use cooper_spod::sparse_conv::{dense_reference_conv, SparseConv3};
use cooper_spod::{
    non_max_suppression, non_max_suppression_with_distance, Detection, SparseTensor3,
};
use proptest::prelude::*;

fn obb() -> impl Strategy<Value = Obb3> {
    (
        -30.0..30.0f64,
        -30.0..30.0f64,
        -2.0..0.0f64,
        1.0..6.0f64,
        0.5..3.0f64,
        0.5..3.0f64,
        -3.0..3.0f64,
    )
        .prop_map(|(x, y, z, l, w, h, yaw)| Obb3::new(Vec3::new(x, y, z), Vec3::new(l, w, h), yaw))
}

fn detection() -> impl Strategy<Value = Detection> {
    (obb(), 0.0..1.0f32).prop_map(|(obb, score)| Detection {
        class: ObjectClass::Car,
        obb,
        score,
    })
}

fn detection_bits(d: &Detection) -> (ObjectClass, [u64; 7], u32) {
    let o = &d.obb;
    let bits = [
        o.center.x, o.center.y, o.center.z, o.size.x, o.size.y, o.size.z, o.yaw,
    ]
    .map(f64::to_bits);
    (d.class, bits, d.score.to_bits())
}

fn all_bits(dets: &[Detection]) -> Vec<(ObjectClass, [u64; 7], u32)> {
    dets.iter().map(detection_bits).collect()
}

fn sparse_tensor(channels: usize) -> impl Strategy<Value = SparseTensor3> {
    prop::collection::vec(
        (
            (-5..5i32, -5..5i32, -3..3i32),
            prop::collection::vec(-2.0..2.0f32, channels),
        ),
        0..20,
    )
    .prop_map(move |sites| {
        let mut t = SparseTensor3::new(channels);
        for ((x, y, z), f) in sites {
            t.set(VoxelCoord::new(x, y, z), f);
        }
        t
    })
}

proptest! {
    #[test]
    fn box_encode_decode_round_trip(anchor in obb(), gt in obb()) {
        let residual = encode_box(&anchor, &gt);
        let back = decode_box(&anchor, &residual);
        prop_assert!((back.center - gt.center).norm() < 1e-3,
            "center {} vs {}", back.center, gt.center);
        prop_assert!((back.size - gt.size).norm() < 1e-3);
        // Yaw matches modulo π (heading ambiguity).
        let dyaw = (back.yaw - gt.yaw).rem_euclid(std::f64::consts::PI);
        prop_assert!(dyaw < 1e-6 || (std::f64::consts::PI - dyaw) < 1e-6, "dyaw {dyaw}");
    }

    #[test]
    fn nms_output_is_conflict_free_subset(dets in prop::collection::vec(detection(), 0..30),
                                          thr in 0.05..0.9f64) {
        let input_len = dets.len();
        let kept = non_max_suppression(dets, thr);
        prop_assert!(kept.len() <= input_len);
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                prop_assert!(kept[i].obb.iou_bev(&kept[j].obb) <= thr + 1e-9);
            }
        }
        // Sorted by score descending.
        for w in kept.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn sigmoid_is_monotone_and_bounded(a in -50.0..50.0f32, b in -50.0..50.0f32) {
        let (sa, sb) = (sigmoid(a), sigmoid(b));
        prop_assert!((0.0..=1.0).contains(&sa));
        if a < b {
            prop_assert!(sa <= sb);
        }
    }

    #[test]
    fn bce_is_non_negative(logit in -30.0..30.0f32, target in prop::bool::ANY) {
        let t = if target { 1.0 } else { 0.0 };
        prop_assert!(bce_with_logit(logit, t) >= -1e-6);
    }

    #[test]
    fn smooth_l1_is_even_and_non_negative(e in -10.0..10.0f32) {
        prop_assert!(smooth_l1(e) >= 0.0);
        prop_assert!((smooth_l1(e) - smooth_l1(-e)).abs() < 1e-6);
    }

    #[test]
    fn sparse_conv_matches_dense_reference(t in sparse_tensor(3)) {
        let layer = SparseConv3::seeded(3, 4, 123);
        let sparse = layer.forward(&t);
        let dense = dense_reference_conv(&layer, &t);
        prop_assert_eq!(sparse.active_sites(), dense.active_sites());
        for (coord, f) in sparse.iter() {
            let g = dense.get(*coord).unwrap();
            for (a, b) in f.iter().zip(g) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matching_partitions_detections_and_ground_truth(
        dets in prop::collection::vec(detection(), 0..15),
        gts in prop::collection::vec(obb(), 0..10),
        iou in 0.1..0.9f64,
    ) {
        let m = match_detections(&dets, &gts, iou);
        prop_assert_eq!(m.true_positives.len() + m.false_positives.len(), dets.len());
        prop_assert_eq!(m.true_positives.len() + m.false_negatives.len(), gts.len());
        prop_assert!((0.0..=1.0).contains(&m.precision()));
        prop_assert!((0.0..=1.0).contains(&m.recall()));
        // No ground truth claimed twice.
        let mut seen = std::collections::HashSet::new();
        for (_, gt_idx) in &m.true_positives {
            prop_assert!(seen.insert(*gt_idx));
        }
    }

    #[test]
    fn average_precision_bounded(
        dets in prop::collection::vec(detection(), 0..15),
        gts in prop::collection::vec(obb(), 1..8),
    ) {
        let frames = vec![(dets, gts)];
        let ap = average_precision(&precision_recall_curve(&frames, 0.3));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ap), "AP {ap}");
    }
}

proptest! {
    #[test]
    fn persisted_weights_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        // Arbitrary bytes must produce an error, never a panic or an
        // unbounded allocation.
        let _ = cooper_spod::persist::detector_from_bytes(&bytes);
    }

    #[test]
    fn weight_decoder_rejects_truncations_of_valid_files(cut_fraction in 0.0..1.0f64) {
        use std::sync::OnceLock;
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        let bytes = BYTES.get_or_init(|| {
            let detector = cooper_spod::train::train(
                cooper_spod::SpodConfig::default(),
                &cooper_spod::train::TrainingConfig {
                    scenes: 2,
                    epochs: 1,
                    ..cooper_spod::train::TrainingConfig::fast()
                },
            );
            detector.to_bytes().to_vec()
        });
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(cooper_spod::persist::detector_from_bytes(&bytes[..cut]).is_err());
    }
}

// Search-free kernels against test-only references that keep the
// search-based algorithms they replaced. Every comparison is bitwise.

mod search_free {
    use super::*;
    use cooper_exec::Executor;
    use cooper_pointcloud::{Point, PointCloud, RangeImage};
    use cooper_spod::anchors::{AnchorConfig, REGRESSION_DIMS};
    use cooper_spod::bev::{BevMap, WindowWalker};
    use cooper_spod::head::DetectionHead;
    use cooper_spod::nn::Linear;
    use cooper_spod::preprocess::{densify, densify_above, PreprocessConfig};
    use cooper_spod::sparse_conv::ConvRulebook;
    use cooper_spod::{DetectOptions, SpodConfig, SpodDetector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// A sorted, deduplicated active set. 1,800–3,000 draws from a
    /// 16×16×10 block leave ~1,300–1,800 sites: more than the 1,024-site
    /// conv chunk, so every set spans a chunk seam.
    fn coord_set() -> impl Strategy<Value = Vec<VoxelCoord>> {
        prop::collection::vec((-8..8i32, -8..8i32, -5..5i32), 1800..3000).prop_map(|raw| {
            let mut coords: Vec<VoxelCoord> = raw
                .into_iter()
                .map(|(x, y, z)| VoxelCoord::new(x, y, z))
                .collect();
            coords.sort();
            coords.dedup();
            coords
        })
    }

    /// The rulebook as one binary search per (site, kernel offset).
    fn binary_search_rulebook(coords: &[VoxelCoord]) -> Vec<i32> {
        let mut table = Vec::with_capacity(coords.len() * 27);
        for c in coords {
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let n = VoxelCoord::new(c.x + dx, c.y + dy, c.z + dz);
                        table.push(coords.binary_search(&n).map_or(-1, |i| i as i32));
                    }
                }
            }
        }
        table
    }

    /// A value that is often exactly `+0.0` or `-0.0`.
    fn zeroish(rng: &mut StdRng, scale: f32) -> f32 {
        match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-scale..scale),
        }
    }

    /// A unit with random weights; some rows all `+0.0` or all `-0.0`,
    /// some biases exactly zero.
    fn random_linear(rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Linear {
        let mut w = Vec::with_capacity(in_dim * out_dim);
        for _ in 0..out_dim {
            let kind = rng.gen_range(0..5u32);
            for _ in 0..in_dim {
                w.push(match kind {
                    0 => 0.0,
                    1 => -0.0,
                    _ => zeroish(rng, 0.05),
                });
            }
        }
        let b = (0..out_dim).map(|_| zeroish(rng, 0.5)).collect();
        Linear::from_parameters(in_dim, out_dim, w, b)
    }

    fn random_detector(seed: u64) -> SpodDetector {
        let config = SpodConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let side = (2 * config.window_radius + 1) as usize;
        let dim = (config.channels + cooper_spod::bev::Z_STRUCTURE_CHANNELS) * side * side;
        let heads = ObjectClass::TARGETS
            .iter()
            .map(|&class| {
                let yaws = AnchorConfig::YAWS.len();
                DetectionHead::from_parts(
                    AnchorConfig::for_class(class, config.mount_height),
                    (0..yaws).map(|_| random_linear(&mut rng, dim, 1)).collect(),
                    (0..yaws)
                        .map(|_| random_linear(&mut rng, dim, REGRESSION_DIMS))
                        .collect(),
                )
            })
            .collect();
        with_heads(config, heads)
    }

    /// The default trunk for `config` under `heads`.
    fn with_heads(config: SpodConfig, heads: Vec<DetectionHead>) -> SpodDetector {
        let base = SpodDetector::new(config);
        SpodDetector::from_parts(
            config,
            cooper_spod::vfe::VoxelFeatureEncoder::seeded(config.channels, config.seed),
            base.conv1_layer().clone(),
            base.conv2_layer().clone(),
            heads,
        )
    }

    /// `det` with one head weight, drawn from `pick`, set to `value`.
    fn with_weight(det: &SpodDetector, pick: u64, value: f32) -> SpodDetector {
        let mut rng = StdRng::seed_from_u64(pick);
        let mut heads = det.heads().to_vec();
        let h = rng.gen_range(0..heads.len());
        let yaw = rng.gen_range(0..AnchorConfig::YAWS.len());
        let mut objectness = heads[h].objectness_layers().to_vec();
        let mut regression = heads[h].regression_layers().to_vec();
        let layer = if rng.gen_bool(0.5) {
            &mut objectness[yaw]
        } else {
            &mut regression[yaw]
        };
        let mut weights = layer.weights().to_vec();
        let i = rng.gen_range(0..weights.len());
        weights[i] = value;
        *layer = Linear::from_parameters(
            layer.in_dim(),
            layer.out_dim(),
            weights,
            layer.biases().to_vec(),
        );
        heads[h] = DetectionHead::from_parts(*heads[h].config(), objectness, regression);
        with_heads(*det.config(), heads)
    }

    /// A sparse map over a 40×40 patch: clustered cells, some isolated;
    /// some cells all `+0.0`, all `-0.0` or all negative. Up to ~630
    /// active cells, so larger maps span more than one 512-cell RPN
    /// chunk.
    fn random_bev(seed: u64, channels: usize) -> BevMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..800usize);
        let mut cells = Vec::with_capacity(n);
        let mut features = Vec::with_capacity(n * channels);
        for _ in 0..n {
            cells.push((rng.gen_range(-20..20i32), rng.gen_range(-20..20i32)));
            let kind = rng.gen_range(0..6u32);
            for _ in 0..channels {
                features.push(match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -rng.gen_range(0.0..1.0f32),
                    _ => zeroish(&mut rng, 1.0),
                });
            }
        }
        BevMap::from_parts(channels, cells, features)
    }

    /// A window as it was read before the walker: one probe per block.
    fn probed_window(bev: &BevMap, x: i32, y: i32, radius: i32) -> Vec<f32> {
        let mut out = Vec::new();
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                match bev.get(x + dx, y + dy) {
                    Some(features) => out.extend_from_slice(features),
                    None => out.extend(std::iter::repeat_n(0.0, bev.channels())),
                }
            }
        }
        out
    }

    /// `detect_bev` as it was: a dense window per cell, every head's
    /// full dot products, then NMS.
    fn dense_detect_bev(det: &SpodDetector, bev: &BevMap, threshold: f32) -> Vec<Detection> {
        let config = det.config();
        let mut out = Vec::new();
        for &(x, y) in bev.cell_slice() {
            let window = probed_window(bev, x, y, config.window_radius);
            for head in det.heads() {
                for yaw in 0..AnchorConfig::YAWS.len() {
                    let score = head.score(&window, yaw);
                    if score < threshold {
                        continue;
                    }
                    let anchor = head.config().anchor_at(&config.voxel_grid, (x, y), yaw);
                    out.push(Detection {
                        class: head.config().class,
                        obb: decode_box(&anchor, &head.residual(&window, yaw)),
                        score,
                    });
                }
            }
        }
        plain_nms_with_distance(out, config.nms_iou, config.nms_distance_factor)
    }

    /// NMS as it was: an IoU polygon clip for every same-class pair.
    fn plain_nms_with_distance(
        mut detections: Vec<Detection>,
        iou_threshold: f64,
        min_center_distance: f64,
    ) -> Vec<Detection> {
        detections.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut kept: Vec<Detection> = Vec::new();
        'candidates: for det in detections {
            for survivor in &kept {
                if survivor.class != det.class {
                    continue;
                }
                if survivor.obb.iou_bev(&det.obb) > iou_threshold {
                    continue 'candidates;
                }
                let scale = survivor.obb.size.x.min(det.obb.size.x);
                if min_center_distance > 0.0
                    && survivor.obb.center_distance_bev(&det.obb) < min_center_distance * scale
                {
                    continue 'candidates;
                }
            }
            kept.push(det);
        }
        kept
    }

    /// Boxes that overlap, touch or just miss: centres on a coarse
    /// lattice, sizes from slivers to trucks, two classes.
    fn nms_detection() -> impl Strategy<Value = Detection> {
        (
            (0..8i32, 0..8i32),
            (0.0..0.3f64, 0.0..0.3f64),
            (0..4u32, 0.0..6.0f64, 0.0..3.0f64),
            -3.2..3.2f64,
            0.0..1.0f32,
            any::<bool>(),
        )
            .prop_map(|((gx, gy), (jx, jy), (size_kind, l, w), yaw, score, car)| {
                let (l, w) = match size_kind {
                    0 => (l * 1e-4, w),
                    1 => (4.5, 1.8),
                    _ => (l, w),
                };
                Detection {
                    class: if car {
                        ObjectClass::Car
                    } else {
                        ObjectClass::Cyclist
                    },
                    obb: Obb3::new(
                        Vec3::new(gx as f64 * 2.5 + jx, gy as f64 * 2.5 + jy, -1.0),
                        Vec3::new(l, w, 1.5),
                        yaw,
                    ),
                    score,
                }
            })
    }

    /// `densify` as it was: a `HashSet` occupancy snapshot and one
    /// `direction_of` per appended cell.
    fn hashset_densify(cloud: &PointCloud, config: &PreprocessConfig) -> PointCloud {
        if config.densify_passes == 0 {
            return cloud.clone();
        }
        let mut image = RangeImage::project(cloud, config.range_image);
        let (rows, cols) = (config.range_image.rows, config.range_image.cols);
        let mut originally_occupied = HashSet::new();
        for row in 0..rows {
            for col in 0..cols {
                if image.range_at(row, col).is_some() {
                    originally_occupied.insert((row, col));
                }
            }
        }
        for _ in 0..config.densify_passes {
            if image.densify_pass() + image.densify_vertical_pass() == 0 {
                break;
            }
        }
        let mut out = cloud.clone();
        for row in 0..rows {
            for col in 0..cols {
                if !originally_occupied.contains(&(row, col)) {
                    if let Some(point) = image.point_at(row, col) {
                        out.push(point);
                    }
                }
            }
        }
        out
    }

    fn clouds_bits_eq(a: &PointCloud, b: &PointCloud) -> bool {
        a.len() == b.len() && a.iter().zip(b.iter()).all(|(p, q)| p.bits_eq(q))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn cursor_rulebook_equals_binary_search_rulebook(coords in coord_set()) {
            prop_assert!(coords.len() > 1024, "only {} sites", coords.len());
            let reference = binary_search_rulebook(&coords);
            for threads in [1, 2] {
                let rulebook = ConvRulebook::build(&coords, &Executor::new(Some(threads)));
                prop_assert_eq!(rulebook.site_count(), coords.len());
                prop_assert!(rulebook.neighbor_table() == reference.as_slice(),
                    "rulebook diverged at {threads} threads");
            }
        }

        #[test]
        fn window_walker_equals_probed_windows(
            seed in any::<u64>(),
            radius in 0..6i32,
            jumps in prop::collection::vec((-22..22i32, -22..22i32), 0..8),
        ) {
            let bev = random_bev(seed, 3);
            // Active cells in ascending order (the RPN's walk), then
            // arbitrary centres: backwards, repeated, inactive.
            let centres = bev.cell_slice().iter().copied().chain(jumps);
            let mut walker = WindowWalker::new(radius);
            let mut window = Vec::new();
            for (x, y) in centres {
                walker.visit(&bev, x, y);
                walker.fill_window(&bev, &mut window);
                let reference = probed_window(&bev, x, y, radius);
                prop_assert!(
                    window.iter().map(|v| v.to_bits()).eq(reference.iter().map(|v| v.to_bits())),
                    "window at ({x},{y}) r{radius}"
                );
            }
        }

        #[test]
        fn sparse_rpn_equals_dense_window_scoring(
            seed in any::<u64>(),
            threshold_kind in 0..4u32,
            random_threshold in 0.2..0.8f32,
        ) {
            let det = random_detector(seed);
            let bev = random_bev(seed ^ 0x5eed, det.config().channels
                + cooper_spod::bev::Z_STRUCTURE_CHANNELS);
            let threshold = match threshold_kind {
                0 => 0.5,
                1 => 0.0,
                _ => random_threshold,
            };
            let reference = all_bits(&dense_detect_bev(&det, &bev, threshold));
            for threads in [1, 2] {
                let options = DetectOptions::default()
                    .with_threshold(threshold)
                    .with_executor(Executor::new(Some(threads)));
                let got = all_bits(&det.detect_bev(&bev, &options));
                prop_assert!(got == reference,
                    "{} vs {} detections at {threads} threads", got.len(), reference.len());
            }
        }

        #[test]
        fn non_finite_weight_heads_equal_dense_window_scoring(
            seed in any::<u64>(),
            value_kind in 0..3usize,
            threshold_kind in 0..4u32,
            random_threshold in 0.2..0.8f32,
        ) {
            // One non-finite weight sends every window down the dense
            // path (`w · 0` is NaN, not `±0`).
            let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][value_kind];
            let det = with_weight(&random_detector(seed), seed ^ 0xbad, value);
            let bev = random_bev(seed ^ 0x5eed, det.config().channels
                + cooper_spod::bev::Z_STRUCTURE_CHANNELS);
            let threshold = match threshold_kind {
                0 => 0.5,
                1 => 0.0,
                _ => random_threshold,
            };
            let reference = all_bits(&dense_detect_bev(&det, &bev, threshold));
            for threads in [1, 2] {
                let options = DetectOptions::default()
                    .with_threshold(threshold)
                    .with_executor(Executor::new(Some(threads)));
                let got = all_bits(&det.detect_bev(&bev, &options));
                prop_assert!(got == reference,
                    "{} vs {} detections at {threads} threads", got.len(), reference.len());
            }
        }

        #[test]
        fn nms_circle_prereject_keeps_the_same_set(
            dets in prop::collection::vec(nms_detection(), 0..40),
            threshold_kind in 0..4u32,
            random_threshold in 0.0..1.0f64,
            factor_kind in 0..3u32,
            random_factor in 0.0..2.0f64,
        ) {
            let threshold = match threshold_kind {
                0 => 0.0,
                1 => 1.0,
                _ => random_threshold,
            };
            // 0 turns the centre-distance rule off; 0.5 is the default.
            let factor = match factor_kind {
                0 => 0.0,
                1 => SpodConfig::default().nms_distance_factor,
                _ => random_factor,
            };
            let reference = all_bits(&plain_nms_with_distance(dets.clone(), threshold, factor));
            let got = all_bits(&non_max_suppression_with_distance(dets, threshold, factor));
            prop_assert!(got == reference, "{} vs {} kept", got.len(), reference.len());
        }

        #[test]
        fn bitmap_densify_equals_hashset_densify(
            points in prop::collection::vec(
                (-3.2..3.2f64, -0.3..0.3f64, 2.0..40.0f64, 0.0..1.0f32), 0..400),
            passes in 0..3usize,
            cutoff in -2.0..1.0f64,
        ) {
            let cloud: PointCloud = points
                .into_iter()
                .map(|(az, el, r, refl)| {
                    let dir = Vec3::new(el.cos() * az.cos(), el.cos() * az.sin(), el.sin());
                    Point::new(dir * r, refl)
                })
                .collect();
            let config = PreprocessConfig {
                densify_passes: passes,
                ..PreprocessConfig::sparse_default()
            };
            let mut reference = hashset_densify(&cloud, &config);
            prop_assert!(clouds_bits_eq(&densify(&cloud, &config), &reference));
            reference.retain(|p| p.position.z >= cutoff);
            prop_assert!(clouds_bits_eq(&densify_above(&cloud, &config, Some(cutoff)), &reference));
        }
    }
}

// Detection through a scratch arena reused across calls against a fresh
// arena, on the clouds a receiver reconstructs from a v2 delta stream.

mod scratch_reuse {
    use super::*;
    use cooper_exec::Executor;
    use cooper_pointcloud::{
        encode_cloud_v2, DeltaDecoder, DeltaEncoder, FrameKind, Point, PointCloud, VoxelGridConfig,
    };
    use cooper_spod::{DetectOptions, DetectScratch, SpodConfig, SpodDetector};

    /// Points inside the detector's voxel extent, around sensor height.
    fn cloud(max: usize) -> impl Strategy<Value = PointCloud> {
        prop::collection::vec(
            (2.0..40.0f64, -15.0..15.0f64, -2.5..0.5f64, 0.0..1.0f32),
            0..max,
        )
        .prop_map(|points| {
            points
                .into_iter()
                .map(|(x, y, z, r)| Point::new(Vec3::new(x, y, z), r))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn a_reused_scratch_detects_as_a_fresh_one_on_a_delta_stream(
            base in cloud(150),
            steps in prop::collection::vec((0..3u32, any::<u64>(), 1..4usize), 1..6),
            keyframe_every in 1u32..4,
        ) {
            // A drifting scene: each step moves one point by half a
            // metre, appends a point or drops the last one, then sends
            // the scene one to three times, as a static scene would be.
            // Every reconstruction goes through one scratch per executor
            // width, kept across the stream, and must equal detection
            // with a fresh scratch bit for bit.
            let det = SpodDetector::new(SpodConfig::default());
            let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), keyframe_every);
            let mut dec = DeltaDecoder::new();
            let mut scratches = [DetectScratch::new(), DetectScratch::new()];
            let mut scene = base.as_slice().to_vec();
            for (step, &(edit, pick, sends)) in steps.iter().enumerate() {
                match edit {
                    0 if !scene.is_empty() => {
                        let i = (pick % scene.len() as u64) as usize;
                        scene[i].position.x += 0.5;
                    }
                    1 => scene.push(Point::new(Vec3::new(5.0 + (pick % 30) as f64, 0.0, -1.0), 0.5)),
                    _ => {
                        scene.pop();
                    }
                }
                let cloud: PointCloud = scene.iter().copied().collect();
                for send in 0..sends {
                    let (kind, sent) = if enc.keyframe_due() {
                        enc.note_keyframe(&cloud);
                        (FrameKind::Keyframe, cloud.clone())
                    } else {
                        let novel = enc.novel_points(&cloud);
                        enc.note_delta();
                        (FrameKind::Delta, novel)
                    };
                    let bytes = encode_cloud_v2(&sent, kind, false).unwrap();
                    let received = dec.decode_next(&bytes).unwrap();
                    for (threads, scratch) in [1, 2].into_iter().zip(scratches.iter_mut()) {
                        let options = DetectOptions::default()
                            .with_threshold(0.4)
                            .with_executor(Executor::new(Some(threads)));
                        let want = det.detect_with(&received, &options, &mut DetectScratch::new());
                        let got = det.detect_with(&received, &options, scratch);
                        prop_assert!(all_bits(&got) == all_bits(&want),
                            "step {step} send {send}: {} vs {} detections at {threads} threads",
                            got.len(), want.len());
                    }
                }
            }
        }
    }
}
