//! Ray intersection primitives used by the scanner.
//!
//! A box is seen from one origin at a time: [`BoxFrame`] holds the slab
//! test's origin-only values, computed once per origin, so a scan pays
//! them once per box instead of once per ray. A conservative
//! bounding-sphere reject runs in front of the slab test and skips a
//! box only when the slab test provably returns `None` (DESIGN.md §2,
//! "Ray caster").

use cooper_geometry::{Obb3, Vec3};

/// Absolute part of the bounding-sphere margin, metres.
const SPHERE_MARGIN_ABS: f64 = 1e-6;
/// Relative part of the bounding-sphere margin: per metre of
/// `|c − o| + |half|`, per unit of `max(1, 1/|d|)`.
const SPHERE_MARGIN_REL: f64 = 1e-9;

/// A ray direction (any length) with the two values the bounding-sphere
/// reject derives from it, computed once per ray.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RayDir {
    v: Vec3,
    /// `d / |d|`.
    unit: Vec3,
    /// `max(1, 1/|d|)`: how many units of ray parameter one metre of
    /// travel takes, at least 1. The slab test's parallel shortcut drifts
    /// per unit of parameter, so the margin scales with it. Infinite, which
    /// turns the reject off, when `d·d` overflows or is NaN.
    stretch: f64,
}

impl RayDir {
    pub(crate) fn new(v: Vec3) -> Self {
        let dd = v.dot(v);
        let inv_len = 1.0 / dd.sqrt();
        RayDir {
            v,
            unit: v * inv_len,
            stretch: if dd.is_finite() {
                inv_len.max(1.0)
            } else {
                f64::INFINITY
            },
        }
    }
}

/// An oriented box seen from one ray origin.
///
/// The yaw's `(sin, cos)`, the origin in the box frame and the half
/// extents are computed once, with the expressions the per-ray slab test
/// evaluates, so [`BoxFrame::intersect`] runs the same float operations
/// on the same values for every direction. The rest is the data of the
/// bounding-sphere reject.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoxFrame {
    sin: f64,
    cos: f64,
    local_origin: Vec3,
    half: Vec3,
    /// `c − o`: the box centre relative to the origin.
    to_center: Vec3,
    /// `|c − o|²`.
    dist_sq: f64,
    /// `|half| + SPHERE_MARGIN_ABS`.
    radius: f64,
    /// `SPHERE_MARGIN_REL · (|c − o| + |half|)`.
    slack: f64,
}

impl BoxFrame {
    pub(crate) fn new(origin: Vec3, obb: &Obb3) -> Self {
        let (s, c) = obb.yaw.sin_cos();
        let rel = origin - obb.center;
        let local_origin = Vec3::new(c * rel.x + s * rel.y, -s * rel.x + c * rel.y, rel.z);
        let half = obb.size * 0.5;
        let to_center = obb.center - origin;
        let dist_sq = to_center.dot(to_center);
        let half_diagonal = half.norm();
        BoxFrame {
            sin: s,
            cos: c,
            local_origin,
            half,
            to_center,
            dist_sq,
            radius: half_diagonal + SPHERE_MARGIN_ABS,
            slack: SPHERE_MARGIN_REL * (dist_sq.sqrt() + half_diagonal),
        }
    }

    /// Distance along the ray to the first intersection with the box, or
    /// `None` when the ray misses (or starts past the box).
    pub(crate) fn intersect(&self, dir: &RayDir) -> Option<f64> {
        if self.out_of_reach(dir) {
            return None;
        }
        self.slab(dir.v)
    }

    /// `true` only when the ray provably cannot reach the box's inflated
    /// bounding sphere of radius `R' = |half| + 1e-6 + 1e-9·(|c − o| +
    /// |half|)·max(1, 1/|d|)`: the origin lies outside it, and the box is
    /// behind (`(c − o)·d < 0`) or the line passes farther than `R'` from
    /// the centre. Every comparison is false on NaN and an infinite `R'`
    /// rejects nothing, so NaN or infinite input falls through to the
    /// slab test.
    fn out_of_reach(&self, dir: &RayDir) -> bool {
        let r = self.radius + self.slack * dir.stretch;
        let r_sq = r * r;
        self.dist_sq > r_sq && {
            let tca = self.to_center.dot(dir.unit);
            tca < 0.0 || {
                // The centre's offset from the line, without the
                // `|c − o|² − tca²` cancellation.
                let w = self.to_center - dir.unit * tca;
                w.dot(w) > r_sq
            }
        }
    }

    /// Slab method in the box's local frame (the box only rotates about
    /// `z`).
    fn slab(&self, d: Vec3) -> Option<f64> {
        let (s, c) = (self.sin, self.cos);
        let local_dir = Vec3::new(c * d.x + s * d.y, -s * d.x + c * d.y, d.z);

        let mut t_min = 0.0f64;
        let mut t_max = f64::INFINITY;
        for axis in 0..3 {
            let o = self.local_origin[axis];
            let v = local_dir[axis];
            let h = self.half[axis];
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
        // The sensor may sit inside a box's bounding volume (e.g. scanning
        // from the roof of the ego car); report the exit face then.
        Some(if t_min > 1e-9 { t_min } else { t_max })
    }
}

/// Distance along the ray to the ground plane `z = ground_z`, or `None`
/// when the ray points away from it.
pub(crate) fn ray_ground_intersection(origin: Vec3, direction: Vec3, ground_z: f64) -> Option<f64> {
    if direction.z.abs() < 1e-12 {
        return None;
    }
    let t = (ground_z - origin.z) / direction.z;
    (t > 1e-9).then_some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intersect(origin: Vec3, direction: Vec3, obb: &Obb3) -> Option<f64> {
        BoxFrame::new(origin, obb).intersect(&RayDir::new(direction))
    }

    #[test]
    fn ray_hits_axis_aligned_box() {
        let origin = Vec3::new(-10.0, 0.0, 0.0);
        let obb = Obb3::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0), 0.0);
        let t = intersect(origin, Vec3::X, &obb).unwrap();
        assert!((t - 9.0).abs() < 1e-12);
        assert!((origin + Vec3::X * t - Vec3::new(-1.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn ray_misses_offset_box() {
        let obb = Obb3::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0), 0.0);
        assert!(intersect(Vec3::new(-10.0, 5.0, 0.0), Vec3::X, &obb).is_none());
    }

    #[test]
    fn ray_hits_rotated_box() {
        // A 45°-rotated 10×1 box only reaches |x| ≈ 3.9, so a ray along
        // +y at x = 4.5 misses it but hits the unrotated variant
        // (which spans |x| ≤ 5).
        let rot = Obb3::new(
            Vec3::ZERO,
            Vec3::new(10.0, 1.0, 2.0),
            std::f64::consts::FRAC_PI_4,
        );
        let unrot = Obb3::new(Vec3::ZERO, Vec3::new(10.0, 1.0, 2.0), 0.0);
        let origin = Vec3::new(4.5, -10.0, 0.0);
        assert!(intersect(origin, Vec3::Y, &unrot).is_some());
        assert!(intersect(origin, Vec3::Y, &rot).is_none());
        // A ray at x = 2 does strike the rotated box, on its surface.
        let origin2 = Vec3::new(2.0, -10.0, 0.0);
        let t = intersect(origin2, Vec3::Y, &rot).unwrap();
        let hit = origin2 + Vec3::Y * t;
        assert!(rot.contains(hit), "hit {hit} not on box");
    }

    #[test]
    fn ray_behind_box_misses() {
        let obb = Obb3::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0), 0.0);
        assert!(intersect(Vec3::new(10.0, 0.0, 0.0), Vec3::X, &obb).is_none());
    }

    #[test]
    fn ray_from_inside_reports_exit() {
        let obb = Obb3::new(Vec3::ZERO, Vec3::new(4.0, 4.0, 4.0), 0.0);
        let t = intersect(Vec3::ZERO, Vec3::X, &obb).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
        // From inside, pointing away from the centre: the box lies
        // "behind", but an origin inside the sphere keeps the reject off.
        let t = intersect(Vec3::new(1.5, 0.0, 0.0), Vec3::X, &obb).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_ray_outside_slab_misses() {
        let obb = Obb3::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0), 0.0);
        assert!(intersect(Vec3::new(-10.0, 0.0, 5.0), Vec3::X, &obb).is_none());
    }

    #[test]
    fn reject_skips_only_boxes_the_slab_misses() {
        let obb = Obb3::new(Vec3::new(20.0, 0.0, 0.0), Vec3::new(4.0, 2.0, 2.0), 0.3);
        let origin = Vec3::new(0.0, 0.0, 0.5);
        let frame = BoxFrame::new(origin, &obb);
        for (direction, rejected) in [
            (Vec3::X, false),
            (-Vec3::X, true),
            (Vec3::Y, true),
            (Vec3::new(1.0, 0.5, 0.0), true),
            (Vec3::X * 1e-3, false),
            (Vec3::X * 1e3, false),
        ] {
            let dir = RayDir::new(direction);
            assert_eq!(frame.out_of_reach(&dir), rejected, "{direction}");
            if rejected {
                assert_eq!(frame.slab(direction), None, "{direction}");
            }
        }
    }

    #[test]
    fn non_finite_input_falls_through_to_the_slab() {
        let obb = Obb3::new(Vec3::new(10.0, 0.0, 0.0), Vec3::new(2.0, 2.0, 2.0), 0.0);
        let origin = Vec3::ZERO;
        let frame = BoxFrame::new(origin, &obb);
        for direction in [
            Vec3::ZERO,
            Vec3::new(f64::NEG_INFINITY, 0.0, 0.0),
            Vec3::new(f64::INFINITY, 1.0, 0.0),
            Vec3::new(-1e200, 0.0, 0.0),
            Vec3::new(f64::NAN, 0.0, 0.0),
            Vec3::new(1e-170, 0.0, 0.0),
        ] {
            assert!(!frame.out_of_reach(&RayDir::new(direction)), "{direction}");
        }
        let far = BoxFrame::new(Vec3::new(1e300, 0.0, 0.0), &obb);
        assert!(!far.out_of_reach(&RayDir::new(Vec3::X)));
    }

    #[test]
    fn ground_intersection() {
        let origin = Vec3::new(0.0, 0.0, 2.0);
        let down = Vec3::new(1.0, 0.0, -1.0).normalized().unwrap();
        let t = ray_ground_intersection(origin, down, 0.0).unwrap();
        let hit = origin + down * t;
        assert!(hit.z.abs() < 1e-9);
        assert!((hit.x - 2.0).abs() < 1e-9);
        // Upward ray never lands.
        let up = Vec3::new(1.0, 0.0, 0.5).normalized().unwrap();
        assert!(ray_ground_intersection(origin, up, 0.0).is_none());
        // Horizontal ray never lands.
        assert!(ray_ground_intersection(origin, Vec3::X, 0.0).is_none());
    }
}
