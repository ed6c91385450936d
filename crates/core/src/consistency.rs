//! Content-consistency guard for received clouds.
//!
//! The alignment guard ([`crate::guard_alignment`]) checks *where* a
//! received cloud claims to be; this module checks *what it claims to
//! contain*. A malicious (or broken) cooperator can pass every
//! transport- and alignment-level check while still poisoning fusion:
//! injecting car-sized ghost clusters into otherwise-honest scans,
//! replaying a stale scan under a fresh pose, or teleporting its
//! content across steps. Each attack leaves a physical fingerprint the
//! receiver can test against its own sensing:
//!
//! - **Ghosts occupy observed free space.** If the receiver's own beams
//!   passed *through* the location of a remote cluster and returned
//!   from something farther away, that space is known-empty — a real
//!   car there would have intercepted the beams. The test is
//!   height-aware: a beam clearing an occluder flies high over the
//!   space behind it, so genuinely occluded objects (the case
//!   cooperative perception exists for) generate no free-space
//!   evidence and are never flagged.
//! - **Real senders move continuously.** The remote cloud's centroid in
//!   the shared world frame cannot jump farther between consecutive
//!   packets than the fleet's speed envelope allows.
//! - **Real stamps advance.** A replayed scan re-broadcasts its capture
//!   stamp; honest stamps — even stale ones — are strictly monotonic.
//!
//! The guard is pure and deterministic: verdicts depend only on the two
//! clouds, the stamp and the per-sender [`SenderHistory`] snapshot, so
//! fleet runs keep the bit-identical-at-any-thread-count contract.

use cooper_geometry::{AngleBins, Vec3};
use cooper_pointcloud::PointCloud;

/// Azimuth bins the receiver's scan is indexed into for the free-space
/// test.
const AZIMUTH_BINS: usize = 360;

/// A remote point only counts as ghost evidence when an ego beam reached
/// at least this much farther through its location, metres.
const FREE_SPACE_MARGIN_M: f64 = 3.0;

/// Remote points within this planar range of an ego return (same bin
/// neighborhood) are corroborated, never ghost evidence.
const MATCH_TOLERANCE_M: f64 = 2.0;

/// Vertical half-window for deciding an ego beam passed *through* a
/// remote point's location, metres.
const HEIGHT_TOLERANCE_M: f64 = 0.6;

/// Remote points nearer than this are ignored — the receiver cannot
/// observe its own footprint, so the zone carries no evidence.
const MIN_RANGE_M: f64 = 4.0;

/// Points at or below this sensor-frame height are treated as ground
/// returns and excluded from both evidence and candidacy.
const GROUND_Z_M: f64 = -1.4;

/// Fastest plausible sender motion for the teleport bound, m/s.
const MAX_SPEED_M_PER_S: f64 = 40.0;

/// Slack added to the teleport bound, metres — absorbs scene churn at
/// the edges of the remote's sensing range.
const TELEPORT_SLACK_M: f64 = 8.0;

/// The consistency guard's setting: how much ghost evidence convicts a
/// packet. The test geometry is fixed by this module's constants.
///
/// Calibrated on the synthetic scenario library: honest packets under
/// rated GPS noise pass, while a single injected ghost cluster
/// ([`cooper_lidar_sim::FaultKind::GhostClusters`]) trips
/// [`ConsistencyVerdict::GhostSuspected`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyConfig {
    /// Flag the packet once this many remote points sit in observed
    /// free space.
    pub min_ghost_points: usize,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        ConsistencyConfig {
            min_ghost_points: 15,
        }
    }
}

impl ConsistencyConfig {
    /// Checks the configuration for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_ghost_points == 0 {
            return Err("min ghost points must be at least 1".into());
        }
        Ok(())
    }
}

/// What a receiver remembers about one sender between steps — the
/// state the teleport and replay checks compare against. Owned by the
/// fleet loop in a per-(receiver, sender) map; read in the parallel
/// perceive phase, written back in the serial merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderHistory {
    /// Frame stamp of the sender's last accepted-for-checking packet.
    pub last_stamp: u32,
    /// Centroid of that packet's cloud in the shared world frame.
    pub last_centroid: Vec3,
}

/// The guard's verdict on one received cloud. Anything but
/// [`ConsistencyVerdict::Consistent`] excludes the packet from fusion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConsistencyVerdict {
    /// Nothing physically impossible found.
    Consistent,
    /// Remote points occupy space the receiver's own beams observed as
    /// empty.
    GhostSuspected {
        /// Remote points flagged as free-space violations.
        ghost_points: usize,
    },
    /// The content centroid jumped farther than the speed envelope
    /// allows since the sender's previous packet.
    Teleport {
        /// Observed centroid jump, metres.
        jump_m: f64,
        /// What the speed envelope allowed, metres.
        bound_m: f64,
    },
    /// The packet's stamp does not advance past the sender's previous
    /// one — a replayed or duplicated scan.
    ReplayedStamp {
        /// The offending stamp.
        stamp: u32,
    },
}

impl ConsistencyVerdict {
    /// `true` when the packet may enter fusion.
    pub fn is_consistent(&self) -> bool {
        matches!(self, ConsistencyVerdict::Consistent)
    }

    /// Ghost points flagged, zero for non-ghost verdicts — the detail
    /// value carried by drop reports and trace marks.
    pub fn ghost_points(&self) -> usize {
        match self {
            ConsistencyVerdict::GhostSuspected { ghost_points } => *ghost_points,
            _ => 0,
        }
    }
}

/// The receiver's scan indexed for free-space queries: per azimuth bin,
/// the planar range and height of every (non-ground) return. Build once
/// per step per receiver, query once per received packet.
#[derive(Debug, Clone)]
pub struct FreeSpaceIndex {
    bins: Vec<Vec<(f64, f64)>>,
}

impl FreeSpaceIndex {
    /// Indexes `ego_cloud` (receiver sensor frame) into the guard's
    /// azimuth bins. Ground-level returns still count as beam-path
    /// evidence — a beam that hit the ground at 20 m flew through every
    /// car-height location on the way — but the ground cut applies at
    /// query time, for candidacy.
    pub fn build(ego_cloud: &PointCloud) -> Self {
        let azimuth = AngleBins::full_circle(AZIMUTH_BINS);
        let mut bins = vec![Vec::new(); AZIMUTH_BINS];
        for p in ego_cloud.iter() {
            let r = planar_range(p.position);
            if r < MIN_RANGE_M {
                continue;
            }
            bins[bin_of(p.position, &azimuth)].push((r, p.position.z));
        }
        FreeSpaceIndex { bins }
    }

    /// Counts remote points (receiver sensor frame) that sit in space
    /// the ego's beams observed as empty: some beam in the same azimuth
    /// neighborhood passed through the point's range *and height* and
    /// returned from beyond the margin, while no ego return corroborates
    /// the point.
    pub fn ghost_points(&self, remote_in_ego: &PointCloud) -> usize {
        let n = self.bins.len();
        let azimuth = AngleBins::full_circle(n);
        let mut flagged = 0usize;
        for p in remote_in_ego.iter() {
            let r = planar_range(p.position);
            if r < MIN_RANGE_M || p.position.z <= GROUND_Z_M {
                continue;
            }
            let b = bin_of(p.position, &azimuth);
            let mut evidence = false;
            let mut corroborated = false;
            for nb in [(b + n - 1) % n, b, (b + 1) % n] {
                for &(er, ez) in &self.bins[nb] {
                    // Only above-ground ego returns corroborate an
                    // object claim — a ground ring at the same range
                    // says nothing about a car floating above it.
                    if ez > GROUND_Z_M
                        && (er - r).abs() <= MATCH_TOLERANCE_M
                        && (ez - p.position.z).abs() <= 2.0 * MATCH_TOLERANCE_M
                    {
                        corroborated = true;
                        break;
                    }
                    // The beam to (er, ez) crossed range r at height
                    // ez * r / er (rays leave the sensor origin).
                    if er > r + FREE_SPACE_MARGIN_M
                        && (ez * r / er - p.position.z).abs() <= HEIGHT_TOLERANCE_M
                    {
                        evidence = true;
                    }
                }
                if corroborated {
                    break;
                }
            }
            if evidence && !corroborated {
                flagged += 1;
            }
        }
        flagged
    }
}

/// Runs the full consistency check on one received cloud.
///
/// `remote_in_ego` is the sender's cloud already transformed into the
/// receiver's sensor frame (the claimed [`crate::alignment_transform`]);
/// `remote_world_centroid` is the same cloud's centroid in the shared
/// world frame. `history` is the receiver's memory of this sender;
/// `step_duration_s` scales the teleport bound by elapsed stamps.
///
/// Checks run cheapest-first — stamp replay, teleport, then the
/// free-space sweep — and the first violation wins.
pub fn check_consistency(
    ego_index: &FreeSpaceIndex,
    remote_in_ego: &PointCloud,
    remote_world_centroid: Vec3,
    stamp: u32,
    history: Option<&SenderHistory>,
    step_duration_s: f64,
    cfg: &ConsistencyConfig,
) -> (ConsistencyVerdict, SenderHistory) {
    let next = SenderHistory {
        last_stamp: stamp,
        last_centroid: remote_world_centroid,
    };
    if let Some(prev) = history {
        if stamp <= prev.last_stamp {
            // Keep the old history: the replayed packet teaches us
            // nothing new about the sender's real motion.
            return (ConsistencyVerdict::ReplayedStamp { stamp }, *prev);
        }
        let elapsed = u64::from(stamp - prev.last_stamp) as f64;
        let bound = MAX_SPEED_M_PER_S * step_duration_s * elapsed + TELEPORT_SLACK_M;
        let jump = (remote_world_centroid - prev.last_centroid).norm();
        if jump > bound {
            return (
                ConsistencyVerdict::Teleport {
                    jump_m: jump,
                    bound_m: bound,
                },
                next,
            );
        }
    }
    let ghost_points = ego_index.ghost_points(remote_in_ego);
    if ghost_points >= cfg.min_ghost_points {
        return (ConsistencyVerdict::GhostSuspected { ghost_points }, next);
    }
    (ConsistencyVerdict::Consistent, next)
}

fn planar_range(p: Vec3) -> f64 {
    (p.x * p.x + p.y * p.y).sqrt()
}

/// The azimuth bin of `p` among `bins`' equal bins over `[−π, π]`.
fn bin_of(p: Vec3, bins: &AngleBins) -> usize {
    // `atan2` never leaves [−π, π], so every direction has a bin (NaN
    // bins to 0).
    bins.bin_of(p.y, p.x).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_pointcloud::Point;

    fn cfg() -> ConsistencyConfig {
        ConsistencyConfig::default()
    }

    /// A ring of "ground" returns: beams at several downward elevations
    /// hitting the plane 1.8 m below the sensor, every 1° of azimuth.
    fn ground_scan() -> PointCloud {
        let mut cloud = PointCloud::new();
        for deg in 0..360 {
            let az = f64::from(deg).to_radians();
            for range in [8.0, 12.0, 18.0, 26.0, 40.0] {
                let z = -1.8;
                cloud.push(Point::new(
                    Vec3::new(range * az.cos(), range * az.sin(), z),
                    0.15,
                ));
            }
        }
        cloud
    }

    /// A car-sized cluster of points centred at `(x, y)`, mid-height.
    fn car_cluster(x: f64, y: f64, points: usize) -> PointCloud {
        (0..points)
            .map(|i| {
                let fx = (i % 10) as f64 / 10.0 - 0.5;
                let fy = (i / 10) as f64 / 10.0 - 0.5;
                Point::new(Vec3::new(x + fx * 4.2, y + fy * 1.8, -1.0), 0.5)
            })
            .collect()
    }

    fn merged(a: &PointCloud, b: &PointCloud) -> PointCloud {
        let mut out = a.clone();
        for p in b.iter() {
            out.push(*p);
        }
        out
    }

    #[test]
    fn azimuth_bins_match_the_atan2_expression() {
        use std::f64::consts::{PI, TAU};
        let atan2_bin = |p: Vec3, n: usize| {
            let unit = (p.y.atan2(p.x) + PI) / TAU;
            ((unit * n as f64) as usize).min(n - 1)
        };
        for n in [8, 72, 360, 721] {
            let bins = AngleBins::full_circle(n);
            for k in 0..=n {
                let edge = -PI + k as f64 * TAU / n as f64;
                for d in [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9] {
                    for r in [1e-3, 1.0, 45.0, 1e5] {
                        let p = Vec3::new(r * (edge + d).cos(), r * (edge + d).sin(), 0.0);
                        assert_eq!(bin_of(p, &bins), atan2_bin(p, n), "{p:?}, {n} bins");
                    }
                }
            }
            let specials = [
                0.0,
                -0.0,
                5e-324,
                -1.0,
                f64::INFINITY,
                -f64::INFINITY,
                f64::NAN,
            ];
            for &x in &specials {
                for &y in &specials {
                    let p = Vec3::new(x, y, 0.0);
                    assert_eq!(bin_of(p, &bins), atan2_bin(p, n), "{p:?}, {n} bins");
                }
            }
        }
    }

    #[test]
    fn ghost_in_observed_free_space_is_flagged() {
        let index = FreeSpaceIndex::build(&ground_scan());
        // A fabricated car at 12 m where the ego's beams reach 18-40 m.
        let ghost = car_cluster(12.0, 0.0, 60);
        let (verdict, _) = check_consistency(&index, &ghost, Vec3::ZERO, 1, None, 1.0, &cfg());
        assert!(
            matches!(verdict, ConsistencyVerdict::GhostSuspected { ghost_points } if ghost_points >= 15),
            "{verdict:?}"
        );
    }

    #[test]
    fn near_and_ground_points_are_never_ghost_evidence() {
        // The ego's beams reach 18–40 m in every direction, so a car at
        // 12 m is a ghost; the same car inside the 4 m blind zone around
        // the sensor, or flattened to the 1.4 m ground cut, is not.
        let index = FreeSpaceIndex::build(&ground_scan());
        assert!(index.ghost_points(&car_cluster(12.0, 0.0, 60)) >= 15);
        let near = car_cluster(2.0, 0.0, 60);
        assert_eq!(index.ghost_points(&near), 0);
        let flat: PointCloud = car_cluster(12.0, 0.0, 60)
            .iter()
            .map(|p| Point::new(Vec3::new(p.position.x, p.position.y, -1.4), 0.5))
            .collect();
        assert_eq!(index.ghost_points(&flat), 0);
    }

    #[test]
    fn corroborated_object_is_consistent() {
        // Ego sees the same car the remote reports: corroborated.
        let car = car_cluster(12.0, 0.0, 60);
        let ego = merged(&ground_scan(), &car);
        let index = FreeSpaceIndex::build(&ego);
        let (verdict, _) = check_consistency(&index, &car, Vec3::ZERO, 1, None, 1.0, &cfg());
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    #[test]
    fn occluded_object_is_not_flagged() {
        // The ego's beams stop at a wall at 6 m in the +x direction
        // (and fly high above whatever is behind it): a remote car at
        // 12 m behind the wall generates no free-space evidence.
        let mut ego = PointCloud::new();
        for deg in -20i32..=20 {
            let az = f64::from(deg).to_radians();
            for zi in 0..8 {
                let z = -1.6 + 0.4 * f64::from(zi);
                ego.push(Point::new(
                    Vec3::new(6.0 * az.cos(), 6.0 * az.sin(), z),
                    0.3,
                ));
            }
        }
        let index = FreeSpaceIndex::build(&ego);
        let hidden = car_cluster(12.0, 0.0, 60);
        let (verdict, _) = check_consistency(&index, &hidden, Vec3::ZERO, 1, None, 1.0, &cfg());
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    #[test]
    fn replayed_stamp_is_flagged_and_history_is_kept() {
        let index = FreeSpaceIndex::build(&ground_scan());
        let empty = PointCloud::new();
        let prev = SenderHistory {
            last_stamp: 7,
            last_centroid: Vec3::new(100.0, 0.0, 0.0),
        };
        for stamp in [7, 3] {
            let (verdict, history) = check_consistency(
                &index,
                &empty,
                Vec3::new(101.0, 0.0, 0.0),
                stamp,
                Some(&prev),
                1.0,
                &cfg(),
            );
            assert_eq!(verdict, ConsistencyVerdict::ReplayedStamp { stamp });
            assert_eq!(history, prev, "replay must not advance history");
        }
    }

    #[test]
    fn teleport_beyond_speed_envelope_is_flagged() {
        let index = FreeSpaceIndex::build(&ground_scan());
        let empty = PointCloud::new();
        let prev = SenderHistory {
            last_stamp: 4,
            last_centroid: Vec3::ZERO,
        };
        // One elapsed step at 40 m/s + 8 m slack = 48 m bound.
        let (verdict, _) = check_consistency(
            &index,
            &empty,
            Vec3::new(100.0, 0.0, 0.0),
            5,
            Some(&prev),
            1.0,
            &cfg(),
        );
        assert!(
            matches!(verdict, ConsistencyVerdict::Teleport { .. }),
            "{verdict:?}"
        );
        // The same jump over ten elapsed steps is plausible.
        let (verdict, _) = check_consistency(
            &index,
            &empty,
            Vec3::new(100.0, 0.0, 0.0),
            14,
            Some(&prev),
            1.0,
            &cfg(),
        );
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    #[test]
    fn honest_first_contact_is_consistent() {
        let index = FreeSpaceIndex::build(&ground_scan());
        let (verdict, history) = check_consistency(
            &index,
            &PointCloud::new(),
            Vec3::new(5.0, 0.0, 0.0),
            9,
            None,
            1.0,
            &cfg(),
        );
        assert!(verdict.is_consistent());
        assert_eq!(history.last_stamp, 9);
    }

    #[test]
    fn config_validation_catches_nonsense() {
        assert!(cfg().validate().is_ok());
        let bad = ConsistencyConfig {
            min_ghost_points: 0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn verdict_detail_helpers() {
        assert!(ConsistencyVerdict::Consistent.is_consistent());
        assert_eq!(
            ConsistencyVerdict::GhostSuspected { ghost_points: 33 }.ghost_points(),
            33
        );
        assert_eq!(
            ConsistencyVerdict::ReplayedStamp { stamp: 1 }.ghost_points(),
            0
        );
    }
}
