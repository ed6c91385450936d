//! Labelled random scenes for training and evaluating the SPOD detector.
//!
//! The paper trains SPOD on labelled LiDAR data (KITTI). Without that
//! data, the detector in this reproduction is trained on procedurally
//! generated labelled scenes: random arrangements of cars, pedestrians,
//! cyclists and occluders, scanned by the simulated LiDAR. Labels are
//! expressed in the sensor frame, exactly like KITTI annotations.

use cooper_geometry::{Attitude, Obb3, Pose, RigidTransform, Vec3};
use cooper_pointcloud::PointCloud;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{BeamModel, Entity, EntityId, LidarScanner, ObjectClass, World};

/// One ground-truth label: a class plus its sensor-frame box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Label {
    /// The object class.
    pub class: ObjectClass,
    /// The box in the sensor frame.
    pub obb: Obb3,
}

/// A labelled scene: the world, the sensor pose that scanned it, the
/// resulting cloud, and the sensor-frame labels.
#[derive(Debug, Clone)]
pub struct LabelledScene {
    /// The generated world.
    pub world: World,
    /// Sensor pose used for the scan.
    pub sensor_pose: Pose,
    /// The scan in the sensor frame.
    pub cloud: PointCloud,
    /// Sensor-frame ground truth for all target-class entities.
    pub labels: Vec<Label>,
}

/// Controls random scene generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Cars per scene, inclusive range.
    pub cars: (usize, usize),
    /// Pedestrians per scene, inclusive range.
    pub pedestrians: (usize, usize),
    /// Cyclists per scene, inclusive range.
    pub cyclists: (usize, usize),
    /// Occluding walls per scene, inclusive range.
    pub walls: (usize, usize),
    /// Maximum placement radius around the sensor, metres.
    pub radius: f64,
    /// Sensor mount height, metres.
    pub mount_height: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            cars: (3, 8),
            pedestrians: (0, 3),
            cyclists: (0, 2),
            walls: (1, 3),
            radius: 45.0,
            mount_height: 1.8,
        }
    }
}

impl SceneConfig {
    /// Validates range ordering and geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, (lo, hi)) in [
            ("cars", self.cars),
            ("pedestrians", self.pedestrians),
            ("cyclists", self.cyclists),
            ("walls", self.walls),
        ] {
            if lo > hi {
                return Err(format!("{name} range is inverted: {lo} > {hi}"));
            }
        }
        if self.radius <= 5.0 {
            return Err("radius must exceed 5 m".into());
        }
        if self.mount_height <= 0.0 {
            return Err("mount height must be positive".into());
        }
        Ok(())
    }
}

fn sample_count<R: Rng + ?Sized>(rng: &mut R, range: (usize, usize)) -> usize {
    if range.0 == range.1 {
        range.0
    } else {
        rng.gen_range(range.0..=range.1)
    }
}

/// Generates one labelled scene.
///
/// Entities are placed with a minimum mutual clearance and never on top
/// of the sensor; placement retries are bounded, so extremely crowded
/// configs may produce fewer entities than requested.
///
/// # Panics
///
/// Panics if `config` fails [`SceneConfig::validate`].
pub fn generate_scene(seed: u64, config: &SceneConfig, beam_model: &BeamModel) -> LabelledScene {
    if let Err(msg) = config.validate() {
        panic!("invalid scene config: {msg}");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new();
    let mut id = 0u32;
    let mut next_id = || {
        id += 1;
        EntityId(id)
    };
    let mut occupied: Vec<Vec3> = vec![Vec3::ZERO]; // sensor keep-out

    let place = |rng: &mut StdRng, occupied: &mut Vec<Vec3>, clearance: f64| -> Option<Vec3> {
        for _ in 0..64 {
            let r = rng.gen_range(6.0..config.radius);
            let theta = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            let candidate = Vec3::new(r * theta.cos(), r * theta.sin(), 0.0);
            if occupied
                .iter()
                .all(|p| p.distance_xy(candidate) >= clearance)
            {
                occupied.push(candidate);
                return Some(candidate);
            }
        }
        None
    };

    let class_counts = [
        (ObjectClass::Car, sample_count(&mut rng, config.cars)),
        (
            ObjectClass::Pedestrian,
            sample_count(&mut rng, config.pedestrians),
        ),
        (
            ObjectClass::Cyclist,
            sample_count(&mut rng, config.cyclists),
        ),
    ];
    for (class, count) in class_counts {
        for _ in 0..count {
            let clearance = class.canonical_size().x + 2.0;
            if let Some(pos) = place(&mut rng, &mut occupied, clearance) {
                let yaw = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
                world.add(Entity::standing(next_id(), class, pos, yaw));
            }
        }
    }
    for _ in 0..sample_count(&mut rng, config.walls) {
        if let Some(pos) = place(&mut rng, &mut occupied, 10.0) {
            let yaw = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            let half = rng.gen_range(3.0..8.0);
            let dir = Vec3::new(yaw.cos(), yaw.sin(), 0.0);
            world.add(Entity::wall(
                next_id(),
                pos - dir * half,
                pos + dir * half,
                rng.gen_range(2.0..5.0),
                rng.gen_range(0.3..1.0),
            ));
        }
    }

    let sensor_pose = Pose::new(
        Vec3::new(0.0, 0.0, config.mount_height),
        Attitude::from_yaw(rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)),
    );
    let scanner = LidarScanner::new(beam_model.clone());
    let cloud = scanner.scan(&world, &sensor_pose, seed ^ 0x9e37_79b9_u64);

    let world_to_sensor = RigidTransform::from_pose(&sensor_pose).inverse();
    let labels = world
        .entities()
        .iter()
        .filter(|e| e.class.is_target())
        .map(|e| Label {
            class: e.class,
            obb: e.shape.transformed(&world_to_sensor),
        })
        .collect();

    LabelledScene {
        world,
        sensor_pose,
        cloud,
        labels,
    }
}

/// Generates one labelled *cooperative* scene: the same world scanned
/// from the default sensor pose plus a second vehicle's pose, with the
/// second scan aligned (ground-truth poses, Equations 1–3) and merged
/// into the first sensor's frame.
///
/// SPOD must handle the density distribution of fused clouds — "not only
/// … high density data, but also … low resolution LiDAR data from nearby
/// vehicles" — so a share of training scenes should be cooperative.
///
/// # Panics
///
/// Panics if `config` fails [`SceneConfig::validate`].
pub fn generate_cooperative_scene(
    seed: u64,
    config: &SceneConfig,
    beam_model: &BeamModel,
) -> LabelledScene {
    let mut scene = generate_scene(seed, config, beam_model);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_eed2);
    let r = rng.gen_range(8.0..25.0);
    let theta = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
    let second_pose = Pose::new(
        Vec3::new(r * theta.cos(), r * theta.sin(), config.mount_height),
        Attitude::from_yaw(rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)),
    );
    let scanner = LidarScanner::new(beam_model.clone());
    let second_scan = scanner.scan(&scene.world, &second_pose, seed ^ 0xface);
    let align = RigidTransform::between(&second_pose, &scene.sensor_pose);
    scene.cloud.merge(&second_scan.transformed(&align));
    scene
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_generation_is_deterministic() {
        let cfg = SceneConfig::default();
        let beams = BeamModel::vlp16();
        let a = generate_scene(7, &cfg, &beams);
        let b = generate_scene(7, &cfg, &beams);
        assert_eq!(a.cloud, b.cloud);
        assert_eq!(a.labels.len(), b.labels.len());
        let c = generate_scene(8, &cfg, &beams);
        assert_ne!(a.cloud, c.cloud);
    }

    #[test]
    fn labels_are_in_sensor_frame() {
        let cfg = SceneConfig::default();
        let scene = generate_scene(3, &cfg, &BeamModel::vlp16().noiseless());
        // Points that fall inside a label box, measured in the sensor
        // frame, must exist for at least one visible label.
        let visible = scene
            .labels
            .iter()
            .filter(|l| scene.cloud.count_in_box(&l.obb) > 0)
            .count();
        assert!(visible >= 1, "no label received any points");
    }

    #[test]
    fn car_count_within_config() {
        let cfg = SceneConfig {
            cars: (4, 4),
            pedestrians: (0, 0),
            cyclists: (0, 0),
            walls: (0, 0),
            ..SceneConfig::default()
        };
        let scene = generate_scene(5, &cfg, &BeamModel::vlp16());
        assert!(scene.labels.len() <= 4);
        assert!(scene.labels.len() >= 2, "placement failed too often");
        assert!(scene.labels.iter().all(|l| l.class == ObjectClass::Car));
    }

    #[test]
    fn entities_respect_sensor_keep_out() {
        let cfg = SceneConfig::default();
        for seed in 0..5 {
            let scene = generate_scene(seed, &cfg, &BeamModel::vlp16());
            for e in scene.world.entities() {
                assert!(
                    e.shape.center.distance_xy(Vec3::ZERO) >= 4.0,
                    "entity too close to sensor: {}",
                    e.shape.center
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid scene config")]
    fn invalid_config_panics() {
        let cfg = SceneConfig {
            cars: (5, 2),
            ..SceneConfig::default()
        };
        let _ = generate_scene(0, &cfg, &BeamModel::vlp16());
    }

    #[test]
    fn config_validation_messages() {
        let cfg = SceneConfig {
            radius: 1.0,
            ..SceneConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("radius"));
        let cfg2 = SceneConfig {
            mount_height: 0.0,
            ..SceneConfig::default()
        };
        assert!(cfg2.validate().unwrap_err().contains("mount"));
    }
}
