//! The ray-cast LiDAR scanner.

use cooper_geometry::{Pose, Vec3};
use cooper_pointcloud::{Point, PointCloud};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{BeamModel, GaussianNoise, World};

/// A simulated spinning LiDAR.
///
/// One revolution fires `beams × azimuth_steps` rays from the sensor
/// pose, keeps the first surface each ray strikes (entities occlude each
/// other and the ground naturally), perturbs ranges with Gaussian noise
/// and drops a configurable fraction of returns. The output cloud is in
/// the *sensor frame*, exactly like a real unit — alignment into other
/// frames is the fusion pipeline's job.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{Attitude, Pose, Vec3};
/// use cooper_lidar_sim::{BeamModel, Entity, EntityId, LidarScanner, World};
///
/// let mut world = World::new();
/// world.add(Entity::car(EntityId(1), Vec3::new(10.0, 0.0, 0.0), 0.0));
/// let scanner = LidarScanner::new(BeamModel::vlp16().noiseless());
/// let pose = Pose::new(Vec3::new(0.0, 0.0, 1.9), Attitude::level());
/// let scan = scanner.scan(&world, &pose, 0);
/// assert!(!scan.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LidarScanner {
    beam_model: BeamModel,
}

impl LidarScanner {
    /// Creates a scanner with the given beam model.
    pub fn new(beam_model: BeamModel) -> Self {
        LidarScanner { beam_model }
    }

    /// The beam model in use.
    pub fn beam_model(&self) -> &BeamModel {
        &self.beam_model
    }

    /// Performs one full revolution from `pose`, returning the cloud in
    /// the sensor frame. `seed` makes noise reproducible: the same seed,
    /// world and pose always produce the identical scan.
    pub fn scan(&self, world: &World, pose: &Pose, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = GaussianNoise::new(self.beam_model.range_noise_sigma());
        let dropout = self.beam_model.dropout_probability();
        let rotation = pose.attitude.rotation_matrix();
        let steps = self.beam_model.azimuth_steps();
        let max_range = self.beam_model.max_range();
        let mut cloud = PointCloud::with_capacity(self.beam_model.rays_per_scan() / 4);
        let caster = world.caster(pose.position);
        let azimuths: Vec<(f64, f64)> = (0..steps)
            .map(|step| {
                let azimuth = -std::f64::consts::PI
                    + (step as f64 + 0.5) / steps as f64 * std::f64::consts::TAU;
                azimuth.sin_cos()
            })
            .collect();

        for &elevation in self.beam_model.vertical_angles() {
            let (sin_el, cos_el) = elevation.sin_cos();
            for &(sin_az, cos_az) in &azimuths {
                let local_dir = Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el);
                let world_dir = rotation * local_dir;
                let Some(hit) = caster.cast(world_dir, max_range) else {
                    continue;
                };
                if dropout > 0.0 && rng.gen::<f64>() < dropout {
                    continue;
                }
                let noisy_range = (hit.distance + noise.sample(&mut rng)).max(0.0);
                let reflectance_noise = (noise.sample(&mut rng) * 2.0) as f32;
                cloud.push(Point::new(
                    local_dir * noisy_range,
                    hit.reflectance + reflectance_noise,
                ));
            }
        }
        cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Entity, EntityId, ObjectClass};
    use cooper_geometry::Attitude;

    fn simple_world() -> World {
        let mut w = World::new();
        w.add(Entity::car(EntityId(1), Vec3::new(10.0, 0.0, 0.0), 0.0));
        w
    }

    fn sensor_pose() -> Pose {
        Pose::new(Vec3::new(0.0, 0.0, 1.9), Attitude::level())
    }

    #[test]
    fn scan_is_deterministic_for_seed() {
        let w = simple_world();
        let s = LidarScanner::new(BeamModel::vlp16());
        let a = s.scan(&w, &sensor_pose(), 5);
        let b = s.scan(&w, &sensor_pose(), 5);
        assert_eq!(a, b);
        let c = s.scan(&w, &sensor_pose(), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn car_receives_points() {
        let w = simple_world();
        let s = LidarScanner::new(BeamModel::vlp16().noiseless());
        let scan = s.scan(&w, &sensor_pose(), 0);
        let car_box = w.entity(EntityId(1)).unwrap().shape;
        // Scan is in the sensor frame; move boxes there for counting.
        let pose = sensor_pose();
        let on_car = scan
            .iter()
            .filter(|p| car_box.contains(pose.local_to_world(p.position)))
            .count();
        assert!(on_car > 10, "only {on_car} points on the car");
    }

    #[test]
    fn beam_density_scales_with_beam_count() {
        let w = simple_world();
        let dense = LidarScanner::new(BeamModel::hdl64().noiseless());
        let sparse = LidarScanner::new(BeamModel::vlp16().noiseless().with_azimuth_steps(1800));
        let d = dense.scan(&w, &sensor_pose(), 0).len();
        let s = sparse.scan(&w, &sensor_pose(), 0).len();
        // Same azimuth resolution, 4× the beams: KITTI-vs-T&J density gap.
        assert!(d > 2 * s, "dense {d} vs sparse {s}");
    }

    #[test]
    fn occluded_car_gets_no_points() {
        let mut w = simple_world();
        w.add(Entity::wall(
            EntityId(2),
            Vec3::new(5.0, -6.0, 0.0),
            Vec3::new(5.0, 6.0, 0.0),
            4.0,
            0.3,
        ));
        let s = LidarScanner::new(BeamModel::vlp16().noiseless());
        let scan = s.scan(&w, &sensor_pose(), 0);
        let pose = sensor_pose();
        let car_box = w.entity(EntityId(1)).unwrap().shape;
        let on_car = scan
            .iter()
            .filter(|p| car_box.contains(pose.local_to_world(p.position)))
            .count();
        assert_eq!(on_car, 0, "occluded car must receive no returns");
    }

    #[test]
    fn closer_objects_get_more_points() {
        let mut near_world = World::new();
        near_world.add(Entity::car(EntityId(1), Vec3::new(8.0, 0.0, 0.0), 0.0));
        let mut far_world = World::new();
        far_world.add(Entity::car(EntityId(1), Vec3::new(40.0, 0.0, 0.0), 0.0));
        let s = LidarScanner::new(BeamModel::vlp16().noiseless());
        let pose = sensor_pose();
        let near_box = near_world.entity(EntityId(1)).unwrap().shape;
        let far_box = far_world.entity(EntityId(1)).unwrap().shape;
        let near = s
            .scan(&near_world, &pose, 0)
            .iter()
            .filter(|p| near_box.contains(pose.local_to_world(p.position)))
            .count();
        let far = s
            .scan(&far_world, &pose, 0)
            .iter()
            .filter(|p| far_box.contains(pose.local_to_world(p.position)))
            .count();
        assert!(near > 4 * far, "near {near} vs far {far}");
    }

    #[test]
    fn dropout_reduces_returns() {
        let w = simple_world();
        let clean = LidarScanner::new(BeamModel::vlp16().noiseless());
        let lossy = LidarScanner::new(BeamModel::new(
            "lossy",
            BeamModel::vlp16().vertical_angles().to_vec(),
            BeamModel::vlp16().azimuth_steps(),
            100.0,
            0.0,
            0.5,
        ));
        let full = clean.scan(&w, &sensor_pose(), 0).len();
        let half = lossy.scan(&w, &sensor_pose(), 0).len();
        let ratio = half as f64 / full as f64;
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pedestrian_visible_at_close_range() {
        let mut w = World::new();
        w.add(Entity::standing(
            EntityId(1),
            ObjectClass::Pedestrian,
            Vec3::new(6.0, 0.0, 0.0),
            0.0,
        ));
        let s = LidarScanner::new(BeamModel::vlp16().noiseless());
        let pose = sensor_pose();
        let ped = w.entity(EntityId(1)).unwrap().shape;
        let hits = s
            .scan(&w, &pose, 0)
            .iter()
            .filter(|p| ped.contains(pose.local_to_world(p.position)))
            .count();
        assert!(hits >= 3, "pedestrian got {hits} returns");
    }
}
