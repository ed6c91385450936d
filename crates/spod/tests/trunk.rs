//! SPOD's feature trunk against a straight-line reference.
//!
//! `featurize_with` projects with an approximate-angle fast path, densifies
//! without copying rows, voxelizes by sorted packed keys and sums the
//! sparse convolution eight outputs at a time. The reference here does
//! each step the plain way: `cell_of` for every point, snapshot-and-`%`
//! densification, a `BTreeMap` voxelizer and one `Iterator::sum` per
//! output. The two must agree bit for bit, up to NaN payloads.

use std::collections::BTreeMap;

use cooper_exec::Executor;
use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
use cooper_lidar_sim::dataset::{generate_scene, SceneConfig};
use cooper_lidar_sim::BeamModel;
use cooper_pointcloud::{Point, PointCloud, Voxel, VoxelCoord, VoxelGrid};
use cooper_spod::bev::BevMap;
use cooper_spod::nn::relu_in_place;
use cooper_spod::sparse_conv::{ConvRulebook, SparseConv3};
use cooper_spod::vfe::VoxelFeatureEncoder;
use cooper_spod::{DetectOptions, DetectScratch, SparseTensor3, SpodConfig, SpodDetector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points per voxelization chunk in `featurize_with`.
const VOXELIZE_CHUNK_POINTS: usize = 16_384;

#[derive(Clone, Copy, Default)]
struct Cell {
    range: f32,
    reflectance: f32,
}

/// `densify_above` with `cell_of` per point and whole-row snapshots.
fn reference_preprocess(cloud: &PointCloud, config: &SpodConfig) -> PointCloud {
    let cutoff = config
        .ground_removal_margin
        .map(|margin| -config.mount_height + margin);
    let keep = |p: &Point| cutoff.is_none_or(|z| p.position.z >= z);
    let mut out: PointCloud = cloud.iter().filter(|p| keep(p)).copied().collect();
    let passes = config.preprocess.densify_passes;
    if passes == 0 {
        return out;
    }
    let c = config.preprocess.range_image;
    let (rows, cols) = (c.rows, c.cols);
    let mut cells = vec![Cell::default(); rows * cols];
    for point in cloud.iter() {
        let range = point.range();
        if range.is_nan() || range < 1e-6 {
            continue;
        }
        let Some((row, col)) = c.cell_of(point.position) else {
            continue;
        };
        let cell = &mut cells[row * cols + col];
        if cell.range == 0.0 || f64::from(cell.range) > range {
            cell.range = range as f32;
            cell.reflectance = point.reflectance;
        }
    }
    let originally_occupied: Vec<bool> = cells.iter().map(|c| c.range > 0.0).collect();
    for _ in 0..passes {
        let mut filled = 0;
        for row in 0..rows {
            let base = row * cols;
            let snapshot: Vec<Cell> = cells[base..base + cols].to_vec();
            for col in 0..cols {
                if snapshot[col].range > 0.0 {
                    continue;
                }
                let left = snapshot[(col + cols - 1) % cols];
                let right = snapshot[(col + 1) % cols];
                if left.range > 0.0 && right.range > 0.0 && (left.range - right.range).abs() < 0.5 {
                    cells[base + col] = Cell {
                        range: (left.range + right.range) * 0.5,
                        reflectance: (left.reflectance + right.reflectance) * 0.5,
                    };
                    filled += 1;
                }
            }
        }
        if rows >= 3 {
            let snapshot = cells.clone();
            for row in 1..rows - 1 {
                for col in 0..cols {
                    if snapshot[row * cols + col].range > 0.0 {
                        continue;
                    }
                    let below = snapshot[(row - 1) * cols + col];
                    let above = snapshot[(row + 1) * cols + col];
                    if below.range > 0.0
                        && above.range > 0.0
                        && (below.range - above.range).abs() < 1.0
                    {
                        cells[row * cols + col] = Cell {
                            range: (below.range + above.range) * 0.5,
                            reflectance: (below.reflectance + above.reflectance) * 0.5,
                        };
                        filled += 1;
                    }
                }
            }
        }
        if filled == 0 {
            break;
        }
    }
    let angle =
        |min: f64, max: f64, i: usize, n: usize| min + (i as f64 + 0.5) / n as f64 * (max - min);
    for row in 0..rows {
        let el = angle(c.elevation_min, c.elevation_max, row, rows);
        for col in 0..cols {
            let cell = cells[row * cols + col];
            if cell.range > 0.0 && !originally_occupied[row * cols + col] {
                let az = angle(c.azimuth_min, c.azimuth_max, col, cols);
                let dir = Vec3::new(el.cos() * az.cos(), el.cos() * az.sin(), el.sin());
                let point = Point::new(dir * f64::from(cell.range), cell.reflectance);
                if keep(&point) {
                    out.push(point);
                }
            }
        }
    }
    out
}

fn accumulate(v: &mut Voxel, p: &Point) {
    v.count += 1;
    v.position_sum += p.position;
    v.reflectance_sum += f64::from(p.reflectance);
    v.min_position = v.min_position.min(p.position);
    v.max_position = v.max_position.max(p.position);
    let range_xy = p.range_xy();
    v.min_range_xy = v.min_range_xy.min(range_xy);
    v.max_range_xy = v.max_range_xy.max(range_xy);
}

fn absorb(v: &mut Voxel, o: &Voxel) {
    v.count += o.count;
    v.position_sum += o.position_sum;
    v.reflectance_sum += o.reflectance_sum;
    v.min_position = v.min_position.min(o.min_position);
    v.max_position = v.max_position.max(o.max_position);
    v.min_range_xy = v.min_range_xy.min(o.min_range_xy);
    v.max_range_xy = v.max_range_xy.max(o.max_range_xy);
}

/// One map per fixed-size chunk, merged in chunk order.
fn reference_voxelize(cloud: &PointCloud, config: &SpodConfig) -> BTreeMap<VoxelCoord, Voxel> {
    let grid = config.voxel_grid;
    let mut merged: BTreeMap<VoxelCoord, Voxel> = BTreeMap::new();
    for chunk in cloud.as_slice().chunks(VOXELIZE_CHUNK_POINTS) {
        let mut partial: BTreeMap<VoxelCoord, Voxel> = BTreeMap::new();
        for p in chunk {
            if let Some(coord) = grid.coord_of(p.position) {
                accumulate(partial.entry(coord).or_default(), p);
            }
        }
        for (coord, voxel) in partial {
            match merged.get_mut(&coord) {
                Some(base) => absorb(base, &voxel),
                None => {
                    merged.insert(coord, voxel);
                }
            }
        }
    }
    merged
}

/// The 27 kernel offsets, `dz` outer, then `dy`, then `dx`.
fn kernel_offsets() -> impl Iterator<Item = (i32, i32, i32)> {
    (-1..=1).flat_map(|dz| (-1..=1).flat_map(move |dy| (-1..=1).map(move |dx| (dx, dy, dz))))
}

/// The submanifold convolution with one `Iterator::sum` per output and a
/// map lookup per neighbour.
fn reference_conv(
    layer: &SparseConv3,
    input: &BTreeMap<VoxelCoord, Vec<f32>>,
) -> BTreeMap<VoxelCoord, Vec<f32>> {
    let in_c = layer.in_channels();
    input
        .keys()
        .map(|&c| {
            let mut acc = layer.bias_values().to_vec();
            for (k, (dx, dy, dz)) in kernel_offsets().enumerate() {
                let Some(features) = input.get(&VoxelCoord::new(c.x + dx, c.y + dy, c.z + dz))
                else {
                    continue;
                };
                let w = &layer.kernel_taps()[k];
                for (o, a) in acc.iter_mut().enumerate() {
                    let row = &w[o * in_c..(o + 1) * in_c];
                    *a += row
                        .iter()
                        .zip(features)
                        .map(|(wi, xi)| wi * xi)
                        .sum::<f32>();
                }
            }
            relu_in_place(&mut acc);
            (c, acc)
        })
        .collect()
}

fn reference_trunk(detector: &SpodDetector, cloud: &PointCloud) -> BevMap {
    let config = detector.config();
    let dense = reference_preprocess(cloud, config);
    let voxels = reference_voxelize(&dense, config);
    // `raw_features` reads only the grid's configuration.
    let grid = VoxelGrid::from_cloud(&PointCloud::new(), config.voxel_grid);
    let mut embedded = BTreeMap::new();
    for (&coord, voxel) in &voxels {
        let raw = VoxelFeatureEncoder::raw_features(&grid, coord, voxel);
        let mut features = Vec::new();
        detector.vfe_layer().forward_into(&raw, &mut features);
        relu_in_place(&mut features);
        embedded.insert(coord, features);
    }
    let mid = reference_conv(detector.conv1_layer(), &embedded);
    let deep = reference_conv(detector.conv2_layer(), &mid);
    let mut tensor = SparseTensor3::new(detector.conv2_layer().out_channels());
    for (coord, features) in deep {
        tensor.set(coord, features);
    }
    BevMap::collapse(&tensor)
}

/// `v`'s bits, with every NaN mapped to one NaN.
///
/// When both operands of an add or a multiply are NaN, Rust leaves open
/// which payload the result carries, and the compiler may swap the
/// operands of either. So two loops that add the same terms in the same
/// order agree on every bit of every non-NaN result, signed zeros and
/// infinities included, and agree that a result is NaN, but not
/// necessarily on its payload.
fn canonical_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn bev_bits(bev: &BevMap) -> Vec<((i32, i32), Vec<u32>)> {
    bev.cell_slice()
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            (
                cell,
                bev.feature_at(i)
                    .iter()
                    .map(|&v| canonical_bits(v))
                    .collect(),
            )
        })
        .collect()
}

fn assert_trunk_matches(detector: &SpodDetector, cloud: &PointCloud) {
    let reference = bev_bits(&reference_trunk(detector, cloud));
    for threads in [1, 2] {
        let options = DetectOptions::default().with_executor(Executor::new(Some(threads)));
        let bev = detector.featurize_with(cloud, &options, &mut DetectScratch::new());
        let got = bev_bits(&bev);
        assert_eq!(
            got.len(),
            reference.len(),
            "active cells at {threads} threads"
        );
        assert!(
            got == reference,
            "BEV features diverged at {threads} threads"
        );
    }
}

/// Points that sit where the fast paths must defer: on the range image's
/// bin edges and ±15° beams, within a hair of them at several radii, at
/// signed zeros and subnormals, and with NaN or infinite coordinates.
fn edge_points(config: &SpodConfig) -> Vec<Point> {
    let c = config.preprocess.range_image;
    let direction =
        |el: f64, az: f64| Vec3::new(el.cos() * az.cos(), el.cos() * az.sin(), el.sin());
    let mut points = Vec::new();
    let mut push = |position: Vec3| points.push(Point::new(position, 0.25));
    for k in (0..=c.cols).step_by(7) {
        let az = c.azimuth_min + k as f64 / c.cols as f64 * (c.azimuth_max - c.azimuth_min);
        for (i, d) in [0.0, 1e-15, -1e-15, 1e-12, -1e-9].into_iter().enumerate() {
            let el = -0.05 + 0.01 * i as f64;
            push(direction(el, az + d) * (3.0 + (k % 40) as f64));
        }
    }
    for k in 0..=c.rows {
        let el = c.elevation_min + k as f64 / c.rows as f64 * (c.elevation_max - c.elevation_min);
        for (i, d) in [0.0, 1e-15, -1e-15, 1e-11, -1e-9].into_iter().enumerate() {
            for r in [1e-3, 6.0, 25.0, 1e5] {
                push(direction(el + d, 0.3 * i as f64 - 0.6) * r);
            }
        }
    }
    for el in [15.0f64.to_radians(), (-15.0f64).to_radians()] {
        for i in 0..60 {
            push(direction(el, -3.1 + 0.1 * i as f64) * 9.0);
        }
    }
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -5e-324,
        5e-324,
        1.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -f64::MAX,
    ];
    for &x in &specials {
        for &y in &specials {
            for z in [0.0, -1.0, f64::NAN, 5e-324] {
                push(Vec3::new(x, y, z));
                push(Vec3::new(10.0 + x, y, z));
            }
        }
    }
    points
}

/// A VLP-16 scene, and that scene fused with a second vehicle's scan
/// moved 12 m ahead, as a receiver's fused cloud.
fn scenes() -> Vec<PointCloud> {
    let beams = BeamModel::vlp16();
    let ego = generate_scene(41, &SceneConfig::default(), &beams).cloud;
    let remote = generate_scene(42, &SceneConfig::default(), &beams).cloud;
    let shift = RigidTransform::between(
        &Pose::new(Vec3::new(12.0, 1.5, 0.0), Attitude::level()),
        &Pose::new(Vec3::ZERO, Attitude::level()),
    );
    let fused = ego.merged(&remote.transformed(&shift));
    vec![ego, fused]
}

#[test]
fn featurize_equals_reference_trunk_on_simulated_scans() {
    let detector = SpodDetector::new(SpodConfig::default());
    for cloud in scenes() {
        assert!(cloud.len() > VOXELIZE_CHUNK_POINTS / 8);
        assert_trunk_matches(&detector, &cloud);
    }
}

#[test]
fn featurize_equals_reference_trunk_on_edge_points() {
    let detector = SpodDetector::new(SpodConfig::default());
    let mut cloud = scenes().swap_remove(1);
    cloud.extend(edge_points(detector.config()));
    assert!(
        cloud.len() > VOXELIZE_CHUNK_POINTS,
        "one chunk seam at least"
    );
    assert_trunk_matches(&detector, &cloud);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn featurize_equals_reference_trunk_on_random_clouds(
        points in prop::collection::vec(
            (-3.2..3.2f64, -0.4..0.4f64, 1.0..70.0f64, 0.0..1.0f32, 0..6u32), 0..1500),
        seed in any::<u64>(),
    ) {
        // Returns on a sphere, every fifth one snapped to a range-image
        // column edge, plus the edge-forcing set.
        let config = SpodConfig { seed, ..SpodConfig::default() };
        let detector = SpodDetector::new(config);
        let c = config.preprocess.range_image;
        let col_width = (c.azimuth_max - c.azimuth_min) / c.cols as f64;
        let mut cloud: PointCloud = points
            .into_iter()
            .map(|(az, el, r, refl, snap)| {
                let az = if snap == 0 { (az / col_width).round() * col_width } else { az };
                let dir = Vec3::new(el.cos() * az.cos(), el.cos() * az.sin(), el.sin());
                Point::new(dir * r, refl)
            })
            .collect();
        cloud.extend(edge_points(&config));
        assert_trunk_matches(&detector, &cloud);
    }
}

// The lane-summed convolution against the per-output scalar loop it
// replaced, at channel counts on both sides of the eight-lane width and
// with non-finite weights and features.

/// `SparseConv3::forward_with` as it was: one `Iterator::sum` per (tap,
/// output) pair over the rulebook.
fn scalar_forward(layer: &SparseConv3, input: &SparseTensor3, rulebook: &ConvRulebook) -> Vec<f32> {
    let (in_c, out_c) = (layer.in_channels(), layer.out_channels());
    let feats = input.feature_slice();
    let mut out = vec![0.0f32; input.active_sites() * out_c];
    for site in 0..input.active_sites() {
        let acc = &mut out[site * out_c..(site + 1) * out_c];
        acc.copy_from_slice(layer.bias_values());
        let taps = &rulebook.neighbor_table()[site * 27..site * 27 + 27];
        for (k, &j) in taps.iter().enumerate() {
            if j < 0 {
                continue;
            }
            let j = j as usize;
            let features = &feats[j * in_c..(j + 1) * in_c];
            let w = &layer.kernel_taps()[k];
            for (o, a) in acc.iter_mut().enumerate() {
                let row = &w[o * in_c..(o + 1) * in_c];
                *a += row
                    .iter()
                    .zip(features)
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f32>();
            }
        }
        relu_in_place(acc);
    }
    out
}

/// Mostly ordinary values, with signed zeros, infinities and NaNs of
/// distinct payloads and both signs.
fn value(rng: &mut StdRng) -> f32 {
    let payload = rng.gen_range(0..0x40_0000u32);
    match rng.gen_range(0..18u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::from_bits(0x7fc0_0000 | payload),
        5 => f32::from_bits(0xffc0_0000 | payload),
        _ => rng.gen_range(-2.0..2.0f32),
    }
}

/// Channel counts on both sides of the eight-lane width.
const CHANNELS: [usize; 6] = [1, 7, 8, 9, 16, 17];

/// A layer and an input of up to 60 sites, drawn from `seed`.
fn conv_case(in_c: usize, out_c: usize, seed: u64) -> (SparseConv3, SparseTensor3) {
    let mut rng = StdRng::seed_from_u64(seed);
    let taps = (0..27)
        .map(|_| (0..in_c * out_c).map(|_| value(&mut rng)).collect())
        .collect();
    let bias = (0..out_c).map(|_| value(&mut rng)).collect();
    let layer = SparseConv3::from_parameters(in_c, out_c, taps, bias);
    let mut input = SparseTensor3::new(in_c);
    for _ in 0..rng.gen_range(1..60) {
        let coord = VoxelCoord::new(
            rng.gen_range(-3..3),
            rng.gen_range(-3..3),
            rng.gen_range(-2..2),
        );
        input.set(coord, (0..in_c).map(|_| value(&mut rng)).collect());
    }
    (layer, input)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lane_conv_equals_scalar_loop_bit_for_bit(
        in_pick in 0..CHANNELS.len(),
        out_pick in 0..CHANNELS.len(),
        seed in any::<u64>(),
    ) {
        let (layer, input) = conv_case(CHANNELS[in_pick], CHANNELS[out_pick], seed);
        let rulebook = ConvRulebook::build(input.coord_slice(), &Executor::sequential());
        let want: Vec<u32> = scalar_forward(&layer, &input, &rulebook)
            .iter()
            .map(|&v| canonical_bits(v))
            .collect();
        for threads in [1, 2] {
            let executor = Executor::new(Some(threads));
            let got: Vec<u32> = layer
                .forward_with(&input, &rulebook, &executor)
                .feature_slice()
                .iter()
                .map(|&v| canonical_bits(v))
                .collect();
            prop_assert!(got == want, "{} -> {} channels at {threads} threads",
                layer.in_channels(), layer.out_channels());
        }
    }
}
