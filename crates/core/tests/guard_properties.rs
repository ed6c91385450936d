//! Property tests for the alignment guard: the indexed guard
//! ([`GuardReference`], built once per receiver cloud) must return the
//! same report, bit for bit, as the straightforward guard it replaced —
//! a per-call `BTreeMap` cell grid scanned in key order and a
//! `BTreeSet` of voxels — kept below as [`legacy`].
//!
//! The inputs are real scans with pose errors, lattices that force
//! exact nearest-neighbour distance ties, and degenerate clouds.

use std::sync::OnceLock;

use cooper_core::{
    guard_alignment, AlignmentGuardConfig, GuardDecision, GuardReference, GuardReport,
};
use cooper_geometry::{Mat3, RigidTransform, Vec3};
use cooper_lidar_sim::{scenario, LidarScanner};
use cooper_pointcloud::{Point, PointCloud};
use proptest::prelude::*;

/// The guard as it was before the receiver reference existed, copied
/// verbatim except that the coarse-cell offset uses `wrapping_add`, the
/// release-build behaviour of its `+`, so infinite coordinates (whose
/// keys saturate) cannot trip the debug overflow check, and that the
/// settings which are no longer fields read the library's `GUARD_*`
/// constants.
mod legacy {
    use std::collections::{BTreeMap, BTreeSet};

    use cooper_core::{
        AlignmentGuardConfig, GuardDecision, GuardReport, GUARD_CLEAN_RESIDUAL_M, GUARD_GROUND_Z_M,
        GUARD_MAX_CORRECTION_M, GUARD_MAX_SAMPLE_POINTS, GUARD_MIN_OCCUPANCY_RECOVERY,
        GUARD_MIN_OVERLAP_POINTS,
    };
    use cooper_geometry::{Mat3, RigidTransform, Vec3};
    use cooper_pointcloud::PointCloud;

    fn sample_positions(cloud: &PointCloud, max: usize) -> Vec<Vec3> {
        if cloud.is_empty() || max == 0 {
            return Vec::new();
        }
        let step = cloud.len().div_ceil(max);
        cloud.iter().step_by(step).map(|p| p.position).collect()
    }

    struct CellGrid {
        cell: f64,
        cells: BTreeMap<(i64, i64), Vec<Vec3>>,
    }

    impl CellGrid {
        fn build(points: &[Vec3], cell: f64) -> CellGrid {
            let mut cells: BTreeMap<(i64, i64), Vec<Vec3>> = BTreeMap::new();
            for &p in points {
                cells.entry(Self::key_xy(p, cell)).or_default().push(p);
            }
            CellGrid { cell, cells }
        }

        fn key_xy(p: Vec3, cell: f64) -> (i64, i64) {
            ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
        }

        fn key_xyz(p: Vec3, cell: f64) -> (i64, i64, i64) {
            (
                (p.x / cell).floor() as i64,
                (p.y / cell).floor() as i64,
                (p.z / cell).floor() as i64,
            )
        }

        fn dist_xy(a: Vec3, b: Vec3) -> f64 {
            let (dx, dy) = (a.x - b.x, a.y - b.y);
            (dx * dx + dy * dy).sqrt()
        }

        fn nearest(&self, p: Vec3, radius: f64) -> Option<(Vec3, f64)> {
            let (cx, cy) = Self::key_xy(p, self.cell);
            let reach = (radius / self.cell).ceil() as i64;
            let mut best: Option<(Vec3, f64)> = None;
            for dx in -reach..=reach {
                for dy in -reach..=reach {
                    let key = (cx.wrapping_add(dx), cy.wrapping_add(dy));
                    let Some(bucket) = self.cells.get(&key) else {
                        continue;
                    };
                    for &q in bucket {
                        let d = Self::dist_xy(q, p);
                        if d <= radius && best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((q, d));
                        }
                    }
                }
            }
            best
        }
    }

    fn matched_residual(grid: &CellGrid, remote: &[Vec3], radius: f64) -> (f64, usize) {
        let mut dists: Vec<f64> = remote
            .iter()
            .filter_map(|&p| grid.nearest(p, radius).map(|(_, d)| d))
            .collect();
        if dists.is_empty() {
            return (f64::INFINITY, 0);
        }
        dists.sort_by(f64::total_cmp);
        (dists[dists.len() / 2], dists.len())
    }

    fn procrustes_step(pairs: &[(Vec3, Vec3)]) -> RigidTransform {
        let n = pairs.len() as f64;
        let a_bar = pairs.iter().map(|&(a, _)| a).fold(Vec3::ZERO, |s, v| s + v) / n;
        let b_bar = pairs.iter().map(|&(_, b)| b).fold(Vec3::ZERO, |s, v| s + v) / n;
        let mut sin_sum = 0.0;
        let mut cos_sum = 0.0;
        for &(a, b) in pairs {
            let (ax, ay) = (a.x - a_bar.x, a.y - a_bar.y);
            let (bx, by) = (b.x - b_bar.x, b.y - b_bar.y);
            sin_sum += ax * by - ay * bx;
            cos_sum += ax * bx + ay * by;
        }
        let theta = sin_sum.atan2(cos_sum);
        let rotation = Mat3::rotation_z(theta);
        let mut translation = b_bar - rotation * a_bar;
        translation.z = 0.0;
        RigidTransform::new(rotation, translation)
    }

    pub fn guard_alignment(
        local: &PointCloud,
        remote: &PointCloud,
        base: &RigidTransform,
        cfg: &AlignmentGuardConfig,
    ) -> GuardReport {
        let fail_safe = |residual: f64| GuardReport {
            decision: GuardDecision::InsufficientOverlap,
            residual_before_m: residual,
            residual_after_m: residual,
            occupancy_agreement: 0.0,
            ground_dz_m: 0.0,
            transform: *base,
        };

        let local_samples: Vec<Vec3> = local.iter().map(|p| p.position).collect();
        let remote_samples: Vec<Vec3> = sample_positions(remote, GUARD_MAX_SAMPLE_POINTS)
            .iter()
            .map(|&p| base.apply(p))
            .collect();
        if local_samples.is_empty() || remote_samples.is_empty() {
            return fail_safe(f64::INFINITY);
        }

        let is_ground = |p: &Vec3| p.z < GUARD_GROUND_Z_M;
        let local_solid: Vec<Vec3> = local_samples
            .iter()
            .copied()
            .filter(|p| !is_ground(p))
            .collect();
        let remote_solid: Vec<Vec3> = remote_samples
            .iter()
            .copied()
            .filter(|p| !is_ground(p))
            .collect();
        if local_solid.len() < GUARD_MIN_OVERLAP_POINTS
            || remote_solid.len() < GUARD_MIN_OVERLAP_POINTS
        {
            return fail_safe(f64::INFINITY);
        }

        let grid = CellGrid::build(&local_solid, cfg.max_correspondence_m);
        let (residual_before, matched_before) =
            matched_residual(&grid, &remote_solid, cfg.max_correspondence_m);

        let occupancy_before = occupancy_agreement(
            &local_samples,
            &remote_samples,
            cfg.voxel_size_m,
            cfg.max_correspondence_m,
        );
        let ground_dz_before = ground_dz(&local_samples, &remote_samples);

        if matched_before < GUARD_MIN_OVERLAP_POINTS {
            let mut report = fail_safe(residual_before);
            report.occupancy_agreement = occupancy_before;
            report.ground_dz_m = ground_dz_before;
            return report;
        }

        if residual_before <= GUARD_CLEAN_RESIDUAL_M && ground_dz_before <= cfg.accept_residual_m {
            return GuardReport {
                decision: GuardDecision::AcceptedClean,
                residual_before_m: residual_before,
                residual_after_m: residual_before,
                occupancy_agreement: occupancy_before,
                ground_dz_m: ground_dz_before,
                transform: *base,
            };
        }

        let mut refined = *base;
        let mut moved = remote_solid.clone();
        let mut radius = cfg.max_correspondence_m;
        for _ in 0..cfg.max_icp_iters {
            let mut dists: Vec<f64> = Vec::new();
            let all_pairs: Vec<(Vec3, Vec3, f64)> = moved
                .iter()
                .filter_map(|&p| grid.nearest(p, radius).map(|(q, d)| (p, q, d)))
                .collect();
            for &(_, _, d) in &all_pairs {
                dists.push(d);
            }
            dists.sort_by(f64::total_cmp);
            let Some(&median) = dists.get(dists.len() / 2) else {
                break;
            };
            let keep = (2.0 * median).max(0.5 * radius);
            let pairs: Vec<(Vec3, Vec3)> = all_pairs
                .into_iter()
                .filter(|&(_, _, d)| d <= keep)
                .map(|(a, b, _)| (a, b))
                .collect();
            if pairs.len() < GUARD_MIN_OVERLAP_POINTS {
                break;
            }
            let delta = procrustes_step(&pairs);
            refined = delta.compose(&refined);
            for p in &mut moved {
                *p = delta.apply(*p);
            }
            let step_norm = delta.apply(Vec3::ZERO).norm();
            radius = (radius * 0.7).max(cfg.accept_residual_m * 2.0);
            if step_norm < 1e-3 {
                break;
            }
        }

        let (residual_after, matched_after) =
            matched_residual(&grid, &moved, cfg.max_correspondence_m);
        let remote_refined: Vec<Vec3> = sample_positions(remote, GUARD_MAX_SAMPLE_POINTS)
            .iter()
            .map(|&p| refined.apply(p))
            .collect();
        let ground_dz_after = ground_dz(&local_samples, &remote_refined);
        let occupancy_after = occupancy_agreement(
            &local_samples,
            &remote_refined,
            cfg.voxel_size_m,
            cfg.max_correspondence_m,
        );

        let correction_m = (refined.apply(Vec3::ZERO) - base.apply(Vec3::ZERO)).norm();
        if matched_after >= GUARD_MIN_OVERLAP_POINTS
            && residual_after <= cfg.accept_residual_m
            && ground_dz_after <= cfg.accept_residual_m
            && occupancy_after >= occupancy_before * GUARD_MIN_OCCUPANCY_RECOVERY
            && correction_m <= GUARD_MAX_CORRECTION_M
        {
            GuardReport {
                decision: GuardDecision::AcceptedRefined,
                residual_before_m: residual_before,
                residual_after_m: residual_after,
                occupancy_agreement: occupancy_after,
                ground_dz_m: ground_dz_after,
                transform: refined,
            }
        } else {
            GuardReport {
                decision: GuardDecision::Rejected,
                residual_before_m: residual_before,
                residual_after_m: residual_after,
                occupancy_agreement: occupancy_after,
                ground_dz_m: ground_dz_after,
                transform: *base,
            }
        }
    }

    fn occupancy_agreement(local: &[Vec3], remote: &[Vec3], voxel: f64, margin: f64) -> f64 {
        let Some(bounds) = cooper_geometry::Aabb3::from_points(local.iter().copied()) else {
            return 0.0;
        };
        let lo = bounds.min() - Vec3::new(margin, margin, margin);
        let hi = bounds.max() + Vec3::new(margin, margin, margin);
        let in_bounds = |p: &Vec3| {
            p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y && p.z >= lo.z && p.z <= hi.z
        };
        let voxels = |pts: &[Vec3]| -> BTreeSet<(i64, i64, i64)> {
            pts.iter()
                .filter(|p| in_bounds(p))
                .map(|&p| CellGrid::key_xyz(p, voxel))
                .collect()
        };
        let local_vox = voxels(local);
        let remote_vox = voxels(remote);
        if remote_vox.is_empty() {
            return 0.0;
        }
        let hits = remote_vox.iter().filter(|v| local_vox.contains(v)).count();
        hits as f64 / remote_vox.len() as f64
    }

    fn ground_dz(local: &[Vec3], remote: &[Vec3]) -> f64 {
        let mean_ground = |pts: &[Vec3]| {
            let heights: Vec<f64> = pts
                .iter()
                .filter(|p| p.z < GUARD_GROUND_Z_M)
                .map(|p| p.z)
                .collect();
            if heights.is_empty() {
                None
            } else {
                Some(heights.iter().sum::<f64>() / heights.len() as f64)
            }
        };
        match (mean_ground(local), mean_ground(remote)) {
            (Some(a), Some(b)) => (a - b).abs(),
            _ => 0.0,
        }
    }
}

/// Every float of a report as raw bits, the transform included, so
/// `-0.0` and NaN payloads count as differences.
fn report_bits(r: &GuardReport) -> (GuardDecision, Vec<u64>) {
    let t = r.transform;
    let rotation = t.rotation();
    let mut bits = vec![
        r.residual_before_m.to_bits(),
        r.residual_after_m.to_bits(),
        r.occupancy_agreement.to_bits(),
        r.ground_dz_m.to_bits(),
    ];
    for v in [
        rotation.row(0),
        rotation.row(1),
        rotation.row(2),
        t.translation(),
    ] {
        bits.extend([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]);
    }
    (r.decision, bits)
}

/// Guards every remote against `local` through one shared reference,
/// and each through [`guard_alignment`], and checks both against the
/// legacy guard bit for bit. Returns the decisions.
fn check_all(
    local: &PointCloud,
    remotes: &[(PointCloud, RigidTransform)],
    cfg: &AlignmentGuardConfig,
) -> Result<Vec<GuardDecision>, String> {
    let reference = GuardReference::new(local, cfg);
    let mut decisions = Vec::with_capacity(remotes.len());
    for (i, (remote, base)) in remotes.iter().enumerate() {
        let want = legacy::guard_alignment(local, remote, base, cfg);
        let shared = reference.guard(remote, base);
        let one_shot = guard_alignment(local, remote, base, cfg);
        if report_bits(&shared) != report_bits(&want) {
            return Err(format!(
                "remote {i}: shared reference\n  got  {shared:?}\n  want {want:?}"
            ));
        }
        if report_bits(&one_shot) != report_bits(&want) {
            return Err(format!(
                "remote {i}: guard_alignment\n  got  {one_shot:?}\n  want {want:?}"
            ));
        }
        decisions.push(want.decision);
    }
    Ok(decisions)
}

fn cloud(points: impl IntoIterator<Item = Vec3>) -> PointCloud {
    PointCloud::from_points(points.into_iter().map(|p| Point::new(p, 0.5)).collect())
}

/// A planar pose error: a yaw of `yaw` radians then a shift.
fn pose_error(dx: f64, dy: f64, yaw: f64) -> RigidTransform {
    RigidTransform::new(Mat3::rotation_z(yaw), Vec3::new(dx, dy, 0.0))
}

/// One scan per tj1 observer, with each observer's true pose.
fn tj1_scans() -> &'static [(PointCloud, cooper_geometry::Pose)] {
    static SCANS: OnceLock<Vec<(PointCloud, cooper_geometry::Pose)>> = OnceLock::new();
    SCANS.get_or_init(|| {
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model());
        scene
            .observers
            .iter()
            .enumerate()
            .map(|(i, pose)| (scanner.scan(&scene.world, pose, 100 + i as u64), *pose))
            .collect()
    })
}

#[test]
fn scans_of_every_observer_pair_match_the_legacy_guard() {
    let scans = tj1_scans();
    assert!(scans.len() >= 2, "tj1 has cooperating observers");
    let cfg = AlignmentGuardConfig::default();
    let mut rng = proptest::test_rng("guard_properties::scan_pairs");
    let mut draw = |half_width: f64| (2.0 * rng.unit_f64() - 1.0) * half_width;
    let (mut clean, mut refined, mut rejected, mut insufficient) = (0, 0, 0, 0);
    for (rx, (local, rx_pose)) in scans.iter().enumerate() {
        let mut remotes = Vec::new();
        for (tx, (remote, tx_pose)) in scans.iter().enumerate() {
            if tx == rx {
                continue;
            }
            let truth = RigidTransform::between(tx_pose, rx_pose);
            for _ in 0..6 {
                let error = pose_error(draw(3.0), draw(3.0), draw(0.05));
                remotes.push((remote.clone(), error.compose(&truth)));
            }
        }
        let decisions = check_all(local, &remotes, &cfg).unwrap_or_else(|e| panic!("rx {rx}: {e}"));
        for d in decisions {
            match d {
                GuardDecision::AcceptedClean => clean += 1,
                GuardDecision::AcceptedRefined => refined += 1,
                GuardDecision::Rejected => rejected += 1,
                GuardDecision::InsufficientOverlap => insufficient += 1,
            }
        }
    }
    // Refinement and rejection both happen, so ICP ran on these inputs.
    println!("clean {clean}, refined {refined}, rejected {rejected}, insufficient {insufficient}");
    assert!(
        refined > 0 && rejected > 0,
        "clean {clean}, refined {refined}, rejected {rejected}, insufficient {insufficient}"
    );
}

/// A square lattice of `n × n` points at dyadic `pitch` and `shift`,
/// on two dyadic heights, with every `stack`-th point doubled at the
/// same xy so equal distances also tie inside one cell.
fn lattice(n: usize, pitch: f64, shift: (f64, f64), stack: usize) -> Vec<Vec3> {
    let mut points = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let (x, y) = (i as f64 * pitch + shift.0, j as f64 * pitch + shift.1);
            let z = if (i + j).is_multiple_of(2) { 0.5 } else { 0.25 };
            points.push(Vec3::new(x, y, z));
            if (i * n + j).is_multiple_of(stack) {
                points.push(Vec3::new(x, y, 1.0));
            }
        }
    }
    points
}

/// The midpoints of a lattice's cells: each is equidistant from four
/// lattice points.
fn midpoints(n: usize, pitch: f64, shift: (f64, f64)) -> Vec<Vec3> {
    let mut points = Vec::new();
    for i in 0..n - 1 {
        for j in 0..n - 1 {
            let x = (i as f64 + 0.5) * pitch + shift.0;
            let y = (j as f64 + 0.5) * pitch + shift.1;
            points.push(Vec3::new(x, y, 0.5));
        }
    }
    points
}

/// Dyadic eighths in `[-lo, hi]` metres: exact in binary, so sums stay
/// exact and distances tie exactly.
fn eighths(lo: i32, hi: i32) -> impl Strategy<Value = f64> {
    (lo * 8..=hi * 8).prop_map(|k| f64::from(k) / 8.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Remote points on cell midpoints (and on lattice points) against a
    /// lattice: every match is a tie between up to four points, some of
    /// them stacked, so ICP's pairs depend on the tie rule alone.
    fn lattice_ties_match_the_legacy_guard(
        pitch_quarters in 1u32..=6,
        n in 7usize..=14,
        shift in (eighths(-4, 4), eighths(-4, 4)),
        offset in (eighths(-2, 2), eighths(-2, 2)),
        stack in 2usize..=7,
        with_ground in prop::bool::ANY,
        config in 0usize..3,
    ) {
        let pitch = f64::from(pitch_quarters) * 0.25;
        let mut local = lattice(n, pitch, shift, stack);
        let mut remote = midpoints(n, pitch, shift);
        remote.extend(lattice(n, pitch, shift, n * n + 1).into_iter().step_by(3));
        if with_ground {
            local.extend((0..40).map(|i| Vec3::new(f64::from(i) * 0.5, 1.0, -1.75)));
            remote.extend((0..40).map(|i| Vec3::new(f64::from(i) * 0.5, -1.0, -1.5)));
        }
        // Dyadic shifts keep the claimed transform exact.
        let bases = [
            RigidTransform::IDENTITY,
            pose_error(offset.0, offset.1, 0.0),
            pose_error(-offset.1, offset.0, 0.0),
        ];
        let remotes: Vec<_> = bases.iter().map(|b| (cloud(remote.iter().copied()), *b)).collect();
        check_all(&cloud(local), &remotes, &configs()[config])?;
    }
}

/// The default guard and two others: a tighter radius with finer
/// voxels, and an acceptance gate so loose that the annealed ICP radius
/// (at least twice the gate) outgrows the coarse cell, widening the
/// coarse window to two cells.
fn configs() -> [AlignmentGuardConfig; 3] {
    let default = AlignmentGuardConfig::default();
    [
        default,
        AlignmentGuardConfig {
            max_correspondence_m: 1.5,
            voxel_size_m: 0.5,
            ..default
        },
        AlignmentGuardConfig {
            max_correspondence_m: 2.0,
            accept_residual_m: 1.6,
            max_icp_iters: 4,
            ..default
        },
    ]
}

#[test]
fn degenerate_clouds_match_the_legacy_guard() {
    let cfg = AlignmentGuardConfig::default();
    let solid = lattice(8, 1.0, (0.0, 0.0), 3);
    let ground: Vec<Vec3> = (0..60)
        .map(|i| Vec3::new(f64::from(i) * 0.3, 0.0, -1.8))
        .collect();
    let few: Vec<Vec3> = solid.iter().copied().take(10).collect();
    let shift = pose_error(0.4, -0.3, 0.01);
    let cases: Vec<(&str, Vec<Vec3>, Vec<Vec3>)> = vec![
        ("both empty", vec![], vec![]),
        ("local empty", vec![], solid.clone()),
        ("remote empty", solid.clone(), vec![]),
        ("local all ground", ground.clone(), solid.clone()),
        ("remote all ground", solid.clone(), ground.clone()),
        ("local below overlap", few.clone(), solid.clone()),
        ("remote below overlap", solid.clone(), few.clone()),
    ];
    for (name, local, remote) in cases {
        for base in [RigidTransform::IDENTITY, shift] {
            check_all(
                &cloud(local.clone()),
                &[(cloud(remote.clone()), base)],
                &cfg,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn non_finite_coordinates_match_the_legacy_guard() {
    let cfg = AlignmentGuardConfig::default();
    let base_lattice = lattice(9, 0.75, (0.125, -0.25), 4);
    let odd = [
        Vec3::new(f64::NAN, 1.0, 0.5),
        Vec3::new(1.0, f64::NAN, 0.5),
        Vec3::new(2.0, 2.0, f64::NAN),
        Vec3::new(f64::INFINITY, 1.0, 0.5),
        Vec3::new(1.0, f64::NEG_INFINITY, 0.5),
        Vec3::new(3.0, 1.5, f64::INFINITY),
        Vec3::new(1.5, 3.0, f64::NEG_INFINITY),
        Vec3::new(f64::NAN, f64::NAN, f64::NAN),
    ];
    let with_odd = |every: usize| -> Vec<Vec3> {
        let mut points = Vec::new();
        for (i, p) in base_lattice.iter().enumerate() {
            points.push(*p);
            if i.is_multiple_of(every) {
                points.push(odd[(i / every) % odd.len()]);
            }
        }
        points
    };
    let remote = midpoints(9, 0.75, (0.125, -0.25));
    let remotes = [
        (cloud(remote.iter().copied()), RigidTransform::IDENTITY),
        (cloud(with_odd(5)), pose_error(0.5, 0.25, 0.0)),
        (cloud(with_odd(3)), pose_error(-0.75, 0.5, 0.02)),
        (cloud(odd), RigidTransform::IDENTITY),
    ];
    for local in [with_odd(4), with_odd(2), base_lattice.clone()] {
        check_all(&cloud(local), &remotes, &cfg).unwrap();
    }
}

#[test]
fn clouds_spanning_kilometres_match_the_legacy_guard() {
    let cfg = AlignmentGuardConfig::default();
    let near = lattice(10, 0.5, (0.0, 0.0), 5);
    let mut wide = near.clone();
    // Sparse structure out to 5 km, and a few exact stacks far away.
    for i in 0..40 {
        let a = f64::from(i) * 0.157;
        let r = 100.0 * f64::from(i + 1);
        wide.push(Vec3::new(r * a.cos(), r * a.sin(), 0.5));
    }
    wide.extend([
        Vec3::new(5000.0, -5000.0, 0.5),
        Vec3::new(5000.0, -5000.0, 1.5),
        Vec3::new(-4999.5, 4999.5, 0.5),
    ]);
    // One point at 10^13 m: the voxel box no longer packs into 64 bits.
    let mut extreme = near.clone();
    extreme.push(Vec3::new(1e13, -1e13, 1e12));
    let remote: Vec<Vec3> = midpoints(10, 0.5, (0.0, 0.0))
        .into_iter()
        .chain(wide.iter().copied().skip(near.len()))
        .collect();
    let remotes = [
        (cloud(remote.iter().copied()), pose_error(0.25, 0.5, 0.0)),
        (cloud(remote.iter().copied()), pose_error(-1.0, 0.75, 0.03)),
        (cloud(wide.iter().copied()), RigidTransform::IDENTITY),
    ];
    for local in [wide.clone(), extreme] {
        check_all(&cloud(local), &remotes, &cfg).unwrap();
    }
}
