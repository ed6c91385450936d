//! Property-based tests for the LiDAR simulator.

use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
use cooper_lidar_sim::{BeamModel, Entity, EntityId, GpsImuModel, LidarScanner, World};
use proptest::prelude::*;

fn small_beams() -> BeamModel {
    BeamModel::vlp16().noiseless().with_azimuth_steps(90)
}

fn car_layout() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((8.0..45.0f64, -3.0..3.0f64, -3.0..3.0f64), 1..6).prop_map(|mut cars| {
        // Spread cars radially so they never overlap the sensor or each
        // other: car i sits at radius r_i on its own bearing.
        for (i, car) in cars.iter_mut().enumerate() {
            car.1 = i as f64 * 1.1 - 2.5; // distinct bearings (radians)
        }
        cars
    })
}

fn world_with(cars: &[(f64, f64, f64)]) -> World {
    let mut world = World::new();
    for (i, &(r, bearing, yaw)) in cars.iter().enumerate() {
        let pos = Vec3::new(r * bearing.cos(), r * bearing.sin(), 0.0);
        world.add(Entity::car(EntityId(i as u32 + 1), pos, yaw));
    }
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_return_lies_on_a_surface(cars in car_layout(), yaw in -3.0..3.0f64) {
        let world = world_with(&cars);
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::from_yaw(yaw));
        let scan = LidarScanner::new(small_beams()).scan(&world, &pose, 0);
        let to_world = RigidTransform::from_pose(&pose);
        for p in scan.iter() {
            let w = to_world.apply(p.position);
            let on_ground = w.z.abs() < 0.05;
            let on_car = world
                .entities()
                .iter()
                .any(|e| e.shape.bounding_aabb().inflated(0.05).contains(w));
            prop_assert!(on_ground || on_car, "stray return at {w}");
        }
    }

    #[test]
    fn ranges_never_exceed_max(cars in car_layout()) {
        let world = world_with(&cars);
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let beams = small_beams();
        let scan = LidarScanner::new(beams.clone()).scan(&world, &pose, 1);
        for p in scan.iter() {
            prop_assert!(p.range() <= beams.max_range() + 1e-6);
        }
    }

    #[test]
    fn scans_are_reproducible(cars in car_layout(), seed in 0u64..1000) {
        let world = world_with(&cars);
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let scanner = LidarScanner::new(BeamModel::vlp16().with_azimuth_steps(90));
        prop_assert_eq!(
            scanner.scan(&world, &pose, seed),
            scanner.scan(&world, &pose, seed)
        );
    }

    #[test]
    fn gps_measurement_error_is_bounded(x in -100.0..100.0f64, y in -100.0..100.0f64,
                                        yaw in -3.0..3.0f64, seed in 0u64..100) {
        use cooper_geometry::GpsFix;
        use rand::SeedableRng;
        let origin = GpsFix::new(33.2075, -97.1526, 190.0);
        let model = GpsImuModel::realistic();
        let pose = Pose::new(Vec3::new(x, y, 1.8), Attitude::from_yaw(yaw));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let est = model.measure(&pose, &origin, &mut rng);
        let err = est.to_pose(&origin).position.distance_xy(pose.position);
        // σ = 3.3 cm ⇒ anything past 30 cm (≈6σ per axis) is a bug.
        prop_assert!(err < 0.3, "GPS error {err}");
    }

    #[test]
    fn pose_estimate_round_trips_under_arbitrary_origins(
        x in -200.0..200.0f64, y in -200.0..200.0f64, z in 0.5..3.0f64,
        yaw in -3.0..3.0f64, pitch in -0.1..0.1f64, roll in -0.1..0.1f64,
        lat in -60.0..60.0f64, lon in -179.0..179.0f64, alt in -100.0..500.0f64,
    ) {
        use cooper_geometry::GpsFix;
        use cooper_lidar_sim::PoseEstimate;
        let origin = GpsFix::new(lat, lon, alt);
        let pose = Pose::new(Vec3::new(x, y, z), Attitude::new(yaw, pitch, roll));
        let back = PoseEstimate::from_pose(&pose, &origin).to_pose(&origin);
        // from_pose/to_pose invert each other through the
        // equirectangular GPS mapping: position error stays sub-mm at
        // V2V ranges for any plausible origin, attitude is copied
        // verbatim.
        prop_assert!(
            (back.position - pose.position).norm() < 1e-3,
            "round-trip drift {} at origin ({lat}, {lon})",
            (back.position - pose.position).norm()
        );
        prop_assert!((back.attitude.yaw - pose.attitude.yaw).abs() < 1e-12);
        prop_assert!((back.attitude.pitch - pose.attitude.pitch).abs() < 1e-12);
        prop_assert!((back.attitude.roll - pose.attitude.roll).abs() < 1e-12);
    }

    #[test]
    fn more_beams_never_fewer_points(cars in car_layout()) {
        let world = world_with(&cars);
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.8), Attitude::level());
        let sparse = LidarScanner::new(BeamModel::vlp16().noiseless().with_azimuth_steps(90))
            .scan(&world, &pose, 0);
        let dense = LidarScanner::new(BeamModel::hdl64().noiseless().with_azimuth_steps(90))
            .scan(&world, &pose, 0);
        // 64 beams over a narrower vertical FoV still see everything the
        // 16-beam unit sees of the scene below the horizon, plus more.
        prop_assert!(dense.len() >= sparse.len() / 2, "dense {} sparse {}", dense.len(), sparse.len());
    }
}

// The ray caster and the scanner against test-only copies of the
// brute-force code they replaced: every box's frame recomputed per ray,
// no reject, and each azimuth's `sin_cos` recomputed per beam. Every
// comparison is bitwise.

mod brute_force {
    use super::*;
    use cooper_geometry::Obb3;
    use cooper_lidar_sim::{scenario, GaussianNoise, ObjectClass};
    use cooper_pointcloud::{Point, PointCloud};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI};

    /// `World::new`'s ground reflectance.
    const GROUND_REFLECTANCE: f32 = 0.15;

    /// A hit as bits: distance, position, reflectance, entity.
    type HitBits = (u64, [u64; 3], u32, Option<EntityId>);

    fn bits(distance: f64, position: Vec3, reflectance: f32, entity: Option<EntityId>) -> HitBits {
        (
            distance.to_bits(),
            position.to_array().map(f64::to_bits),
            reflectance.to_bits(),
            entity,
        )
    }

    fn ray_obb_intersection(origin: Vec3, direction: Vec3, obb: &Obb3) -> Option<f64> {
        let (s, c) = obb.yaw.sin_cos();
        let rel = origin - obb.center;
        let local_origin = Vec3::new(c * rel.x + s * rel.y, -s * rel.x + c * rel.y, rel.z);
        let d = direction;
        let local_dir = Vec3::new(c * d.x + s * d.y, -s * d.x + c * d.y, d.z);
        let half = obb.size * 0.5;

        let mut t_min = 0.0f64;
        let mut t_max = f64::INFINITY;
        for axis in 0..3 {
            let o = local_origin[axis];
            let v = local_dir[axis];
            let h = half[axis];
            if v.abs() < 1e-12 {
                if o.abs() > h {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / v;
            let mut t0 = (-h - o) * inv;
            let mut t1 = (h - o) * inv;
            if t0 > t1 {
                std::mem::swap(&mut t0, &mut t1);
            }
            t_min = t_min.max(t0);
            t_max = t_max.min(t1);
            if t_min > t_max {
                return None;
            }
        }
        Some(if t_min > 1e-9 { t_min } else { t_max })
    }

    fn ray_ground_intersection(origin: Vec3, direction: Vec3) -> Option<f64> {
        if direction.z.abs() < 1e-12 {
            return None;
        }
        let t = (0.0 - origin.z) / direction.z;
        (t > 1e-9).then_some(t)
    }

    fn cast_ray(world: &World, origin: Vec3, direction: Vec3, max_range: f64) -> Option<HitBits> {
        let mut best: Option<(f64, Vec3, f32, Option<EntityId>)> = None;
        let mut consider = |distance: f64, reflectance: f32, entity: Option<EntityId>| {
            if distance <= max_range && best.is_none_or(|b| distance < b.0) {
                best = Some((distance, origin + direction * distance, reflectance, entity));
            }
        };
        for e in world.entities() {
            if let Some(t) = ray_obb_intersection(origin, direction, &e.shape) {
                consider(t, e.reflectance, Some(e.id));
            }
        }
        if let Some(t) = ray_ground_intersection(origin, direction) {
            consider(t, GROUND_REFLECTANCE, None);
        }
        best.map(|(t, p, r, e)| bits(t, p, r, e))
    }

    fn scan(beams: &BeamModel, world: &World, pose: &Pose, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = GaussianNoise::new(beams.range_noise_sigma());
        let dropout = beams.dropout_probability();
        let rotation = pose.attitude.rotation_matrix();
        let steps = beams.azimuth_steps();
        let mut cloud = PointCloud::with_capacity(beams.rays_per_scan() / 4);
        for &elevation in beams.vertical_angles() {
            let (sin_el, cos_el) = elevation.sin_cos();
            for step in 0..steps {
                let azimuth = -std::f64::consts::PI
                    + (step as f64 + 0.5) / steps as f64 * std::f64::consts::TAU;
                let (sin_az, cos_az) = azimuth.sin_cos();
                let local_dir = Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el);
                let world_dir = rotation * local_dir;
                let Some(hit) = cast_ray(world, pose.position, world_dir, beams.max_range()) else {
                    continue;
                };
                if dropout > 0.0 && rng.gen::<f64>() < dropout {
                    continue;
                }
                let noisy_range = (f64::from_bits(hit.0) + noise.sample(&mut rng)).max(0.0);
                let reflectance_noise = (noise.sample(&mut rng) * 2.0) as f32;
                cloud.push(Point::new(
                    local_dir * noisy_range,
                    f32::from_bits(hit.2) + reflectance_noise,
                ));
            }
        }
        cloud
    }

    fn cast(world: &World, origin: Vec3, direction: Vec3, max_range: f64) -> Option<HitBits> {
        world
            .cast_ray(origin, direction, max_range)
            .map(|h| bits(h.distance, h.position, h.reflectance, h.entity))
    }

    fn cloud_bits(cloud: &PointCloud) -> Vec<([u64; 3], u32)> {
        cloud
            .iter()
            .map(|p| {
                (
                    p.position.to_array().map(f64::to_bits),
                    p.reflectance.to_bits(),
                )
            })
            .collect()
    }

    fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
        options[rng.gen_range(0..options.len())]
    }

    fn log_uniform(rng: &mut StdRng, lo_exp: f64, hi_exp: f64) -> f64 {
        10f64.powf(rng.gen_range(lo_exp..hi_exp))
    }

    fn unit_vector(rng: &mut StdRng) -> Vec3 {
        let z: f64 = rng.gen_range(-1.0..1.0);
        let phi: f64 = rng.gen_range(-PI..PI);
        let r = (1.0 - z * z).sqrt();
        Vec3::new(r * phi.cos(), r * phi.sin(), z)
    }

    /// Rotates a box-frame vector into the world frame.
    fn to_world(obb: &Obb3, v: Vec3) -> Vec3 {
        let (s, c) = obb.yaw.sin_cos();
        Vec3::new(c * v.x - s * v.y, s * v.x + c * v.y, v.z)
    }

    /// A world mixing the shapes the reject must not misjudge: ordinary,
    /// rotated, wall-thin, zero-size and 10⁴ m boxes. Heights and centre
    /// heights are dyadic, so `centre.z ± half.z` is exact.
    fn random_world(rng: &mut StdRng) -> World {
        let mut world = World::new();
        for i in 0..rng.gen_range(1..10u32) {
            let center = Vec3::new(
                rng.gen_range(-40.0..40.0),
                rng.gen_range(-40.0..40.0),
                pick(rng, &[0.0, 0.25, 0.75, 1.5]),
            );
            let height = pick(rng, &[0.5, 1.0, 1.5, 3.0]);
            let size = match rng.gen_range(0..6u32) {
                0 => Vec3::new(rng.gen_range(0.5..6.0), rng.gen_range(0.5..3.0), height),
                1 => Vec3::new(
                    rng.gen_range(2.0..30.0),
                    log_uniform(rng, -9.0, -3.0),
                    height,
                ),
                2 => Vec3::ZERO,
                3 => Vec3::new(0.0, rng.gen_range(0.5..3.0), height),
                4 => Vec3::new(1e4, rng.gen_range(0.1..1e4), height),
                _ => Vec3::new(rng.gen_range(0.3..1.0), rng.gen_range(0.3..1.0), height),
            };
            let yaw = match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => FRAC_PI_2 * rng.gen_range(-1..=2) as f64,
                _ => rng.gen_range(-PI..PI),
            };
            let shape = Obb3::new(center, size, yaw);
            let reflectance = rng.gen_range(0.0..1.0f32);
            world.add(Entity::new(
                EntityId(i),
                ObjectClass::Background,
                shape,
                reflectance,
            ));
        }
        world
    }

    /// A ray tangent to a box's bounding region at a vertical edge,
    /// running in the plane of its top or bottom face with a local `z`
    /// component just under the slab test's `1e-12` parallel cut-off,
    /// so it drifts up to `1e-12·t` off the face while the slab test
    /// still accepts it. The xy line clips the edge by `inset`. Small
    /// `scale`s stretch the parameter per metre travelled.
    fn drifting_tangent(rng: &mut StdRng, obb: &Obb3) -> (Vec3, Vec3) {
        let half = obb.size * 0.5;
        let (sx, sy) = (pick(rng, &[-1.0, 1.0]), pick(rng, &[-1.0, 1.0]));
        let sz: f64 = pick(rng, &[-1.0, 1.0]);
        let corner = Vec3::new(sx * half.x, sy * half.y, 0.0);
        let outward = corner.normalized().unwrap_or(Vec3::X);
        let inset = log_uniform(rng, -12.0, -5.0);
        let through = obb.center + to_world(obb, corner - outward * inset);
        let side: f64 = pick(rng, &[-1.0, 1.0]);
        let tangent = to_world(obb, Vec3::new(-outward.y, outward.x, 0.0) * side);
        let scale = log_uniform(rng, -6.0, 1.0);
        let drift = sz * rng.gen_range(0.5..0.999) * 1e-12;
        let direction = Vec3::new(tangent.x * scale, tangent.y * scale, drift);
        let travel = log_uniform(rng, 0.0, 4.0);
        let start = through - tangent * travel;
        let origin = Vec3::new(start.x, start.y, obb.center.z + sz * half.z);
        (origin, direction)
    }

    /// One random ray against `world`: an origin (near the sensor
    /// height, inside a box, far away or on a face plane) and a
    /// direction (random, at a corner, along a face, with components
    /// near `1e-12`, drifting past an edge), often not unit length.
    fn random_ray(rng: &mut StdRng, world: &World) -> (Vec3, Vec3) {
        let entities = world.entities();
        let obb = entities[rng.gen_range(0..entities.len())].shape;
        let half = obb.size * 0.5;
        let mut origin = match rng.gen_range(0..4u32) {
            0 => Vec3::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), 1.8),
            1 => {
                let local = Vec3::new(
                    rng.gen_range(-1.0..1.0) * half.x,
                    rng.gen_range(-1.0..1.0) * half.y,
                    rng.gen_range(-1.0..1.0) * half.z,
                );
                obb.center + to_world(&obb, local)
            }
            2 => unit_vector(rng) * log_uniform(rng, 2.0, 8.5),
            _ => Vec3::new(
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-1.0..5.0),
            ),
        };
        let mut direction = match rng.gen_range(0..6u32) {
            0 => unit_vector(rng),
            1 => {
                let corner = Vec3::new(
                    pick(rng, &[-half.x, half.x]),
                    pick(rng, &[-half.y, half.y]),
                    pick(rng, &[-half.z, half.z]),
                );
                (obb.center + to_world(&obb, corner) - origin)
                    .normalized()
                    .unwrap_or(Vec3::Z)
            }
            2 => {
                // In the plane of the top or bottom face.
                let sz: f64 = pick(rng, &[-1.0, 1.0]);
                origin.z = obb.center.z + sz * half.z;
                let phi: f64 = rng.gen_range(-PI..PI);
                Vec3::new(phi.cos(), phi.sin(), 0.0)
            }
            3 => {
                // In the plane of a side face.
                let local = Vec3::new(
                    pick(rng, &[-half.x, half.x]),
                    rng.gen_range(-2.0..2.0) * half.y,
                    rng.gen_range(-1.0..1.0) * half.z,
                );
                origin = obb.center + to_world(&obb, local) - to_world(&obb, Vec3::Y) * 20.0;
                to_world(&obb, Vec3::new(0.0, 1.0, rng.gen_range(-0.2..0.2)))
            }
            4 => {
                let mut d = unit_vector(rng).to_array();
                for _ in 0..rng.gen_range(1..3u32) {
                    d[rng.gen_range(0..3usize)] =
                        pick(rng, &[-1.0, 1.0]) * log_uniform(rng, -13.0, -11.0);
                }
                Vec3::new(d[0], d[1], d[2])
            }
            _ => {
                let (o, d) = drifting_tangent(rng, &obb);
                origin = o;
                d
            }
        };
        if rng.gen_range(0..3u32) == 0 {
            direction *= log_uniform(rng, -3.0, 3.0);
        }
        (origin, direction)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cast_ray_matches_brute_force_bitwise(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let world = random_world(&mut rng);
            for _ in 0..256 {
                let (origin, direction) = random_ray(&mut rng, &world);
                let max_range = pick(&mut rng, &[10.0, 120.0, 1e4, 1e9]);
                let (got, want) = (
                    cast(&world, origin, direction, max_range),
                    cast_ray(&world, origin, direction, max_range),
                );
                prop_assert!(
                    got == want,
                    "origin {origin:?} direction {direction:?} max_range {max_range}: \
                     {got:?} != {want:?}"
                );
            }
        }
    }

    #[test]
    fn cast_ray_matches_brute_force_on_degenerate_rays() {
        let mut world = World::new();
        world.add(Entity::car(EntityId(1), Vec3::new(10.0, 0.0, 0.0), 0.0));
        world.add(Entity::car(EntityId(2), Vec3::new(-10.0, 3.0, 0.0), 0.7));
        let origins = [
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(10.0, 0.0, 0.8),
            Vec3::new(1e300, 0.0, 1.0),
        ];
        let directions = [
            Vec3::ZERO,
            Vec3::X,
            -Vec3::X,
            Vec3::new(1e-170, 0.0, 0.0),
            Vec3::new(1e200, 0.0, -1.0),
            Vec3::new(-1e200, 0.0, 0.0),
            Vec3::new(f64::INFINITY, 0.0, 0.0),
            Vec3::new(f64::NEG_INFINITY, 1.0, -1.0),
            Vec3::new(f64::NAN, 0.0, 0.0),
        ];
        for origin in origins {
            for direction in directions {
                for max_range in [100.0, f64::INFINITY] {
                    assert_eq!(
                        cast(&world, origin, direction, max_range),
                        cast_ray(&world, origin, direction, max_range),
                        "origin {origin} direction {direction} max_range {max_range}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_matches_brute_force_scanner_bitwise() {
        let mut scenes = scenario::all_scenarios();
        scenes.extend(scenario::extended_scenarios());
        let models = [BeamModel::vlp16(), BeamModel::hdl32(), BeamModel::hdl64()];
        for scene in &scenes {
            for (m, model) in models.iter().enumerate() {
                let beams = model.clone().with_azimuth_steps(360 + 50 * m);
                let scanner = LidarScanner::new(beams.clone());
                for (a, (pitch, roll)) in [(0.0, 0.0), (0.06, 0.0), (0.0, -0.05)]
                    .into_iter()
                    .enumerate()
                {
                    let observer = scene.observers[(m + a) % scene.observers.len()];
                    let pose = Pose::new(
                        observer.position,
                        Attitude::new(observer.attitude.yaw, pitch, roll),
                    );
                    for seed in [3, 1_000_003] {
                        assert_eq!(
                            cloud_bits(&scanner.scan(&scene.world, &pose, seed)),
                            cloud_bits(&scan(&beams, &scene.world, &pose, seed)),
                            "{} {} pitch {pitch} roll {roll} seed {seed}",
                            scene.name,
                            beams.name()
                        );
                    }
                }
            }
        }
    }
}
