//! The simulated world: entities over a ground plane.

use std::fmt;

use cooper_geometry::{Obb3, Vec3};
use serde::{Deserialize, Serialize};

use crate::ray::{ray_ground_intersection, BoxFrame, RayDir};
use crate::{Entity, EntityId, ObjectClass};

/// A hit returned by [`World::cast_ray`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayHit {
    /// Distance along the ray, metres.
    pub distance: f64,
    /// World-frame hit position.
    pub position: Vec3,
    /// Reflectance of the struck surface.
    pub reflectance: f32,
    /// The entity struck, or `None` for the ground plane.
    pub entity: Option<EntityId>,
}

/// A static scene: a set of [`Entity`] boxes above an infinite ground
/// plane at `z = 0`.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_lidar_sim::{Entity, EntityId, World};
///
/// let mut world = World::new();
/// world.add(Entity::car(EntityId(1), Vec3::new(10.0, 0.0, 0.0), 0.0));
/// assert_eq!(world.entities().len(), 1);
/// assert_eq!(world.ground_truth_boxes(cooper_lidar_sim::ObjectClass::Car).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct World {
    entities: Vec<Entity>,
    ground_reflectance: f32,
}

impl World {
    /// Creates an empty world with default ground reflectance.
    pub fn new() -> Self {
        World {
            entities: Vec::new(),
            ground_reflectance: 0.15,
        }
    }

    /// Adds an entity.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the id duplicates an existing entity.
    pub fn add(&mut self, entity: Entity) {
        debug_assert!(
            self.entities.iter().all(|e| e.id != entity.id),
            "duplicate entity id {}",
            entity.id
        );
        self.entities.push(entity);
    }

    /// All entities.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Looks an entity up by id.
    pub fn entity(&self, id: EntityId) -> Option<&Entity> {
        self.entities.iter().find(|e| e.id == id)
    }

    /// Removes an entity, returning it if present.
    pub fn remove(&mut self, id: EntityId) -> Option<Entity> {
        let idx = self.entities.iter().position(|e| e.id == id)?;
        Some(self.entities.remove(idx))
    }

    /// The world-frame boxes of all entities of `class` — the ground
    /// truth the evaluation compares detections against.
    pub fn ground_truth_boxes(&self, class: ObjectClass) -> Vec<Obb3> {
        self.entities
            .iter()
            .filter(|e| e.class == class)
            .map(|e| e.shape)
            .collect()
    }

    /// Returns the world advanced by `dt` seconds: every entity moves by
    /// its velocity; static geometry (zero velocity) is unchanged. Used
    /// to model scene evolution between a frame's capture and its use
    /// (exchange staleness) and across fleet simulation steps.
    pub fn advanced(&self, dt: f64) -> World {
        World {
            entities: self.entities.iter().map(|e| e.advanced(dt)).collect(),
            ground_reflectance: self.ground_reflectance,
        }
    }

    /// Casts a ray and returns the nearest surface within `max_range`.
    ///
    /// The ground plane participates, so scans include road returns —
    /// important because ground points dominate real LiDAR data and any
    /// detector must cope with them.
    pub fn cast_ray(&self, origin: Vec3, direction: Vec3, max_range: f64) -> Option<RayHit> {
        self.caster(origin).cast(direction, max_range)
    }

    /// A caster for rays from `origin`: every entity's box frame is
    /// computed once, for all the rays cast from it.
    pub(crate) fn caster(&self, origin: Vec3) -> RayCaster<'_> {
        RayCaster {
            origin,
            frames: self
                .entities
                .iter()
                .map(|e| BoxFrame::new(origin, &e.shape))
                .collect(),
            world: self,
        }
    }
}

/// Casts rays from one origin into a [`World`]; the one casting path
/// behind [`World::cast_ray`] and the scanner.
pub(crate) struct RayCaster<'w> {
    origin: Vec3,
    /// One frame per entity, in entity order.
    frames: Vec<BoxFrame>,
    world: &'w World,
}

impl RayCaster<'_> {
    /// The nearest surface along `direction` within `max_range`.
    /// Entities are tested in order and the ground plane last; a later
    /// surface wins only when strictly nearer.
    pub(crate) fn cast(&self, direction: Vec3, max_range: f64) -> Option<RayHit> {
        let dir = RayDir::new(direction);
        let mut best: Option<RayHit> = None;
        let mut consider = |distance: f64, reflectance: f32, entity: Option<EntityId>| {
            if distance <= max_range && best.is_none_or(|b| distance < b.distance) {
                best = Some(RayHit {
                    distance,
                    position: self.origin + direction * distance,
                    reflectance,
                    entity,
                });
            }
        };
        for (frame, e) in self.frames.iter().zip(&self.world.entities) {
            if let Some(t) = frame.intersect(&dir) {
                consider(t, e.reflectance, Some(e.id));
            }
        }
        if let Some(t) = ray_ground_intersection(self.origin, direction, 0.0) {
            consider(t, self.world.ground_reflectance, None);
        }
        best
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "world ({} entities)", self.entities.len())
    }
}

impl Extend<Entity> for World {
    fn extend<I: IntoIterator<Item = Entity>>(&mut self, iter: I) {
        for e in iter {
            self.add(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_with_car() -> World {
        let mut w = World::new();
        w.add(Entity::car(EntityId(1), Vec3::new(10.0, 0.0, 0.0), 0.0));
        w
    }

    #[test]
    fn ray_hits_nearest_entity() {
        let mut w = world_with_car();
        w.add(Entity::car(EntityId(2), Vec3::new(20.0, 0.0, 0.0), 0.0));
        let hit = w
            .cast_ray(Vec3::new(0.0, 0.0, 1.0), Vec3::X, 100.0)
            .unwrap();
        assert_eq!(hit.entity, Some(EntityId(1)));
        // Front face of car 1 is at x = 10 - 2.25 = 7.75.
        assert!((hit.distance - 7.75).abs() < 1e-9);
    }

    #[test]
    fn occlusion_blocks_far_entity() {
        let mut w = World::new();
        w.add(Entity::wall(
            EntityId(1),
            Vec3::new(5.0, -5.0, 0.0),
            Vec3::new(5.0, 5.0, 0.0),
            3.0,
            0.3,
        ));
        w.add(Entity::car(EntityId(2), Vec3::new(15.0, 0.0, 0.0), 0.0));
        let hit = w
            .cast_ray(Vec3::new(0.0, 0.0, 1.0), Vec3::X, 100.0)
            .unwrap();
        assert_eq!(hit.entity, Some(EntityId(1)), "wall must occlude the car");
    }

    #[test]
    fn ground_return() {
        let w = World::new();
        let dir = Vec3::new(1.0, 0.0, -0.1).normalized().unwrap();
        let hit = w.cast_ray(Vec3::new(0.0, 0.0, 2.0), dir, 100.0).unwrap();
        assert_eq!(hit.entity, None);
        assert!(hit.position.z.abs() < 1e-9);
        assert!((hit.position.x - 20.0).abs() < 1e-6);
    }

    #[test]
    fn max_range_enforced() {
        let w = world_with_car();
        assert!(w.cast_ray(Vec3::new(0.0, 0.0, 1.0), Vec3::X, 5.0).is_none());
    }

    #[test]
    fn entity_lookup_and_removal() {
        let mut w = world_with_car();
        assert!(w.entity(EntityId(1)).is_some());
        assert!(w.entity(EntityId(9)).is_none());
        let removed = w.remove(EntityId(1)).unwrap();
        assert_eq!(removed.id, EntityId(1));
        assert!(w.remove(EntityId(1)).is_none());
        assert!(w.entities().is_empty());
    }

    #[test]
    fn ground_truth_by_class() {
        let mut w = world_with_car();
        w.add(Entity::standing(
            EntityId(2),
            ObjectClass::Pedestrian,
            Vec3::new(5.0, 5.0, 0.0),
            0.0,
        ));
        w.add(Entity::wall(
            EntityId(3),
            Vec3::new(0.0, 10.0, 0.0),
            Vec3::new(10.0, 10.0, 0.0),
            3.0,
            0.3,
        ));
        assert_eq!(w.ground_truth_boxes(ObjectClass::Car).len(), 1);
        assert_eq!(w.ground_truth_boxes(ObjectClass::Pedestrian).len(), 1);
        assert_eq!(w.ground_truth_boxes(ObjectClass::Background).len(), 1);
    }

    #[test]
    fn extend_adds_entities() {
        let mut w = World::new();
        w.extend([
            Entity::car(EntityId(1), Vec3::ZERO, 0.0),
            Entity::car(EntityId(2), Vec3::new(10.0, 0.0, 0.0), 0.0),
        ]);
        assert_eq!(w.entities().len(), 2);
    }

    #[test]
    fn advanced_moves_only_dynamic_entities() {
        let mut w = World::new();
        w.add(
            Entity::car(EntityId(1), Vec3::new(10.0, 0.0, 0.0), 0.0)
                .with_velocity(Vec3::new(5.0, 0.0, 0.0)),
        );
        w.add(Entity::car(EntityId(2), Vec3::new(20.0, 5.0, 0.0), 0.0));
        let later = w.advanced(2.0);
        assert!((later.entity(EntityId(1)).unwrap().shape.center.x - 20.0).abs() < 1e-12);
        assert_eq!(
            later.entity(EntityId(2)).unwrap().shape.center,
            w.entity(EntityId(2)).unwrap().shape.center
        );
        // Zero advance is identity.
        assert_eq!(w.advanced(0.0), w);
    }

    #[test]
    fn upward_ray_misses_everything() {
        let w = world_with_car();
        assert!(w
            .cast_ray(Vec3::new(0.0, 0.0, 1.0), Vec3::Z, 100.0)
            .is_none());
    }
}
