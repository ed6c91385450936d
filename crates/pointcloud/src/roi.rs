//! Region-of-interest (ROI) extraction.
//!
//! §IV-G of the paper: "We adopt a strategy to extract data based on the
//! region of interest (ROI), e.g., traffic lights, blocked areas, nearby
//! vehicles and free-space in driving path, to further reduce data size to
//! hundreds KB per frame. Background data like buildings, trees are
//! subtract\[ed\] because these information can be constructed by each
//! vehicle after several times mapping measurement."
//!
//! Figure 11 defines three ROI categories used in the bandwidth
//! evaluation; [`RoiCategory`] reproduces them and [`extract_roi`] applies
//! them. [`StaticMap`] implements the background-subtraction side: voxels
//! seen consistently across many past scans are classified static and
//! removed from exchanged frames.

use cooper_geometry::{normalize_angle, AngleBins, Vec3};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use crate::{Point, PointCloud, VoxelCoord, VoxelGridConfig};

/// The three exchange scenarios of the paper's Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoiCategory {
    /// Category 1: opposite-direction lanes with no physical buffer — the
    /// entire frame is exchanged ("we transfer the entirety of the frame
    /// of LiDAR data and this is the most costly of all scenarios").
    FullFrame,
    /// Category 2: junctions — each vehicle sends its forward 120° field
    /// of view ("the ROI is typically the field of view from the driver's
    /// perspective, making only a 120 degree field of view our minimal
    /// requirement"). The exchange is bidirectional.
    FrontFov120,
    /// Category 3: car-following — the trailing car receives the leading
    /// car's forward view; the transaction is one-way and cheapest.
    ForwardOneWay,
}

impl RoiCategory {
    /// All categories, in Figure 11 order.
    pub const ALL: [RoiCategory; 3] = [
        RoiCategory::FullFrame,
        RoiCategory::FrontFov120,
        RoiCategory::ForwardOneWay,
    ];

    /// Number of directed transfers per cooperative pair per frame
    /// (categories 1 and 2 are bidirectional, category 3 is one-way).
    pub fn transfers_per_pair(self) -> usize {
        match self {
            RoiCategory::FullFrame | RoiCategory::FrontFov120 => 2,
            RoiCategory::ForwardOneWay => 1,
        }
    }

    /// `true` when `point` (sensor frame) lies inside this category's
    /// region — the per-point test [`extract_roi`] applies, so a
    /// category's point count is known without building its cloud.
    pub fn contains(self, point: &Point) -> bool {
        match self {
            RoiCategory::FullFrame => true,
            RoiCategory::FrontFov120 => in_sector(point, 0.0, 120f64.to_radians()),
            RoiCategory::ForwardOneWay => {
                in_sector(point, 0.0, 60f64.to_radians()) && point.range_xy() <= 50.0
            }
        }
    }
}

impl std::fmt::Display for RoiCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RoiCategory::FullFrame => "ROI 1 (full frame)",
            RoiCategory::FrontFov120 => "ROI 2 (120° front FoV)",
            RoiCategory::ForwardOneWay => "ROI 3 (forward one-way)",
        };
        f.write_str(name)
    }
}

/// Keeps points within an azimuth sector of `fov` radians centered on
/// `center_azimuth`.
pub fn sector(cloud: &PointCloud, center_azimuth: f64, fov: f64) -> PointCloud {
    cloud.filtered(|p| in_sector(p, center_azimuth, fov))
}

fn in_sector(p: &Point, center_azimuth: f64, fov: f64) -> bool {
    normalize_angle(p.position.azimuth() - center_azimuth).abs() <= fov * 0.5
}

/// Applies a Figure-11 ROI category to a frame about to be transmitted.
///
/// * `FullFrame` passes everything through;
/// * `FrontFov120` keeps the forward 120° sector;
/// * `ForwardOneWay` keeps a forward 60° sector limited to 50 m — the
///   leading car's relevant forward view for a follower.
pub fn extract_roi(cloud: &PointCloud, category: RoiCategory) -> PointCloud {
    match category {
        RoiCategory::FullFrame => cloud.clone(),
        _ => cloud.filtered(|p| category.contains(p)),
    }
}

/// An azimuth sector `[start, end]` (radians, `start <= end` after
/// unwrapping) that is blocked from the observer's view — the "blocked
/// areas" the paper lists as a primary ROI ("there is a blocked area
/// region behind obstacles on the road that could not be sensed by one
/// car but … can be sensed and provided by other nearby cars", §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlindSector {
    /// Sector start azimuth, radians.
    pub start: f64,
    /// Sector end azimuth, radians (≥ start; may exceed π when the
    /// sector wraps).
    pub end: f64,
    /// Range of the occluder creating the shadow, metres.
    pub occluder_range: f64,
}

impl BlindSector {
    /// Angular width of the sector, radians.
    pub fn width(&self) -> f64 {
        self.end - self.start
    }

    /// Center azimuth, normalized to `(-π, π]`.
    pub fn center(&self) -> f64 {
        normalize_angle((self.start + self.end) * 0.5)
    }

    /// `true` when `azimuth` (radians) falls inside the sector.
    pub fn contains(&self, azimuth: f64) -> bool {
        // Compare in the unwrapped frame of the sector.
        let rel = normalize_angle(azimuth - self.center());
        rel.abs() <= self.width() * 0.5
    }
}

/// Finds azimuth sectors blocked by nearby obstacles: contiguous runs of
/// azimuth bins whose nearest (above-ground) return is closer than
/// `occluder_range`, at least `min_width` radians wide.
///
/// These are the regions a vehicle would demand from cooperators
/// ("ROI data will be extracted whenever failure detection happened on
/// this area", §IV-G).
///
/// # Panics
///
/// Panics when `bins` is zero or `occluder_range`/`min_width` are not
/// positive.
pub fn blind_sectors(
    cloud: &PointCloud,
    bins: usize,
    occluder_range: f64,
    min_width: f64,
    ground_z_below: f64,
) -> Vec<BlindSector> {
    assert!(bins > 0, "bins must be positive");
    assert!(occluder_range > 0.0, "occluder range must be positive");
    assert!(min_width > 0.0, "minimum width must be positive");
    let two_pi = std::f64::consts::TAU;
    let azimuth = AngleBins::full_circle(bins);
    let mut nearest = vec![f64::INFINITY; bins];
    for p in cloud.iter() {
        if p.position.z < ground_z_below {
            continue; // ground returns do not occlude
        }
        // `atan2` never leaves [−π, π], so every direction has a bin.
        let idx = azimuth.bin_of(p.position.y, p.position.x).unwrap_or(0);
        let r = p.range_xy();
        if r < nearest[idx] {
            nearest[idx] = r;
        }
    }
    // Walk bins collecting blocked runs, treating the bin circle as
    // circular: a run covering the last and first bins is one sector
    // crossing the ±π seam, not two (each possibly under `min_width`
    // and silently dropped — the seam bug this function used to have).
    let blocked: Vec<bool> = nearest.iter().map(|&r| r < occluder_range).collect();
    let bin_width = two_pi / bins as f64;
    if blocked.iter().all(|&b| b) {
        // Fully surrounded: one sector covering the whole circle.
        let min_range = nearest.iter().cloned().fold(f64::INFINITY, f64::min);
        return vec![BlindSector {
            start: -std::f64::consts::PI,
            end: std::f64::consts::PI,
            occluder_range: min_range,
        }];
    }
    // Start the scan at the first clear bin so every blocked run —
    // including one wrapping the seam — is seen contiguously.
    let first_clear = blocked.iter().position(|&b| !b).expect("not all blocked");
    let mut sectors = Vec::new();
    let mut k = 0;
    while k < bins {
        let idx = (first_clear + k) % bins;
        if !blocked[idx] {
            k += 1;
            continue;
        }
        let run_start = first_clear + k;
        let mut min_range = f64::INFINITY;
        while k < bins && blocked[(first_clear + k) % bins] {
            min_range = min_range.min(nearest[(first_clear + k) % bins]);
            k += 1;
        }
        let run_end = first_clear + k;
        // Express the run in (-π, π] start coordinates; `end` exceeds π
        // exactly when the run wraps the seam (the BlindSector contract).
        let start = -std::f64::consts::PI + (run_start % bins) as f64 * bin_width;
        let end = start + (run_end - run_start) as f64 * bin_width;
        if end - start >= min_width {
            sectors.push(BlindSector {
                start,
                end,
                occluder_range: min_range,
            });
        }
    }
    sectors.sort_by(|a, b| a.start.total_cmp(&b.start));
    sectors
}

/// A persistent map of voxels observed to be static across many scans.
///
/// Implements the paper's background subtraction: "Background data like
/// buildings, trees are subtract\[ed\] because these information can be
/// constructed by each vehicle after several times mapping measurement."
/// Voxels observed in at least `static_threshold` distinct scans are
/// considered immobile background and removed from ROI frames.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{Point, PointCloud, VoxelGridConfig};
/// use cooper_pointcloud::roi::StaticMap;
///
/// let mut map = StaticMap::new(VoxelGridConfig::voxelnet_car(), 3);
/// let wall: PointCloud = (0..10)
///     .map(|i| Point::new(Vec3::new(30.0, i as f64, 0.0), 0.5))
///     .collect();
/// for _ in 0..3 {
///     map.observe(&wall);
/// }
/// let filtered = map.subtract_background(&wall);
/// assert!(filtered.is_empty()); // the wall is now known background
/// ```
#[derive(Debug, Clone)]
pub struct StaticMap {
    config: VoxelGridConfig,
    /// Number of scans in which each voxel was observed.
    observations: HashMap<VoxelCoord, u32>,
    static_threshold: u32,
    scans_observed: u64,
}

impl StaticMap {
    /// Creates an empty static map.
    ///
    /// # Panics
    ///
    /// Panics if `static_threshold` is zero or `config` is invalid.
    pub fn new(config: VoxelGridConfig, static_threshold: u32) -> Self {
        assert!(static_threshold > 0, "static threshold must be positive");
        if let Err(msg) = config.validate() {
            panic!("invalid static map config: {msg}");
        }
        StaticMap {
            config,
            observations: HashMap::new(),
            static_threshold,
            scans_observed: 0,
        }
    }

    /// Folds one scan into the map ("several times mapping measurement").
    ///
    /// Deterministic under the thread-count-invariance contract: the
    /// per-voxel counts depend only on the set of voxels each scan
    /// touches, never on point order or on hash-map iteration order, so
    /// observing the same scans always yields the same classification
    /// regardless of how the fleet loop parallelizes around it.
    pub fn observe(&mut self, cloud: &PointCloud) {
        self.scans_observed += 1;
        let mut seen: HashSet<VoxelCoord> = HashSet::new();
        for p in cloud.iter() {
            if let Some(coord) = self.config.coord_of(p.position) {
                seen.insert(coord);
            }
        }
        for coord in seen {
            *self.observations.entry(coord).or_insert(0) += 1;
        }
    }

    /// Number of scans folded in so far.
    pub fn scans_observed(&self) -> u64 {
        self.scans_observed
    }

    /// `true` when the voxel containing `position` is classified static.
    pub fn is_static(&self, position: Vec3) -> bool {
        self.config
            .coord_of(position)
            .and_then(|c| self.observations.get(&c))
            .is_some_and(|&n| n >= self.static_threshold)
    }

    /// Number of voxels currently classified static.
    pub fn static_voxel_count(&self) -> usize {
        self.observations
            .values()
            .filter(|&&n| n >= self.static_threshold)
            .count()
    }

    /// Removes known-background points from a frame, keeping dynamic
    /// content (vehicles, pedestrians) for transmission.
    pub fn subtract_background(&self, cloud: &PointCloud) -> PointCloud {
        cloud.filtered(|p| !self.is_static(p.position))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn radial_cloud() -> PointCloud {
        // 36 points in a circle of radius 10 at 10° spacing.
        (0..36)
            .map(|i| {
                let az = (i as f64) * 10f64.to_radians() - std::f64::consts::PI;
                Point::new(Vec3::new(10.0 * az.cos(), 10.0 * az.sin(), 0.0), 0.5)
            })
            .collect()
    }

    #[test]
    fn sector_selects_expected_fraction() {
        let c = radial_cloud();
        let front = sector(&c, 0.0, 120f64.to_radians());
        // 120°/360° of 36 points = 12, ±1 for boundary inclusion.
        assert!((11..=13).contains(&front.len()), "{}", front.len());
        for p in front.iter() {
            assert!(p.position.azimuth().abs() <= 60.1f64.to_radians());
        }
    }

    #[test]
    fn sector_wraps_around_pi() {
        let c = radial_cloud();
        let rear = sector(&c, std::f64::consts::PI, 60f64.to_radians());
        assert!(!rear.is_empty());
        for p in rear.iter() {
            let az = p.position.azimuth().abs();
            assert!(az >= (150.0f64 - 0.1).to_radians());
        }
    }

    #[test]
    fn forward_one_way_keeps_fifty_metres() {
        let mut c = PointCloud::new();
        for r in [1.0, 20.0, 50.0, 50.5] {
            c.push(Point::new(Vec3::new(r, 0.0, 0.0), 0.5));
        }
        c.push(Point::new(Vec3::new(10.0, 10.0, 0.0), 0.5)); // 45°: outside 60° FoV
        let fwd = extract_roi(&c, RoiCategory::ForwardOneWay);
        assert_eq!(fwd.len(), 3); // the bound is inclusive
        assert!(fwd
            .iter()
            .all(|p| p.position.x <= 50.0 && p.position.y == 0.0));
    }

    #[test]
    fn roi_categories_are_ordered_by_volume() {
        let c = radial_cloud();
        let full = extract_roi(&c, RoiCategory::FullFrame);
        let fov = extract_roi(&c, RoiCategory::FrontFov120);
        let fwd = extract_roi(&c, RoiCategory::ForwardOneWay);
        assert_eq!(full.len(), c.len());
        assert!(fov.len() < full.len());
        assert!(fwd.len() <= fov.len());
        for roi in RoiCategory::ALL {
            let counted = c.iter().filter(|p| roi.contains(p)).count();
            assert_eq!(counted, extract_roi(&c, roi).len(), "{roi}");
        }
    }

    #[test]
    fn transfers_per_pair() {
        assert_eq!(RoiCategory::FullFrame.transfers_per_pair(), 2);
        assert_eq!(RoiCategory::FrontFov120.transfers_per_pair(), 2);
        assert_eq!(RoiCategory::ForwardOneWay.transfers_per_pair(), 1);
    }

    /// Points forming a near "wall" covering `[from, to]` (radians,
    /// unwrapped — may cross ±π) at `range`, over a far background ring.
    fn occluded_scene(from: f64, to: f64, range: f64) -> PointCloud {
        let mut c = PointCloud::new();
        let step = 0.5f64.to_radians();
        let mut az = from;
        while az <= to {
            c.push(Point::new(
                Vec3::new(range * az.cos(), range * az.sin(), 0.0),
                0.5,
            ));
            az += step;
        }
        for i in 0..720 {
            let bg = (i as f64) * step - std::f64::consts::PI;
            c.push(Point::new(
                Vec3::new(60.0 * bg.cos(), 60.0 * bg.sin(), 0.0),
                0.5,
            ));
        }
        c
    }

    #[test]
    fn blind_sector_found_ahead() {
        let c = occluded_scene(-0.3, 0.3, 5.0);
        let sectors = blind_sectors(&c, 360, 15.0, 10f64.to_radians(), -1.0);
        assert_eq!(sectors.len(), 1);
        assert!(sectors[0].center().abs() < 0.05, "{}", sectors[0].center());
        assert!(sectors[0].contains(0.0));
        assert!(!sectors[0].contains(std::f64::consts::PI));
    }

    #[test]
    fn blind_sector_merged_across_seam() {
        // A 40°-wide occluder straight behind: ~20° of blocked bins on
        // each side of ±π. With a 30° minimum width, the unmerged halves
        // would each be dropped; the merged seam-crossing sector must
        // survive and contain the rear direction.
        let c = occluded_scene(
            std::f64::consts::PI - 20f64.to_radians(),
            std::f64::consts::PI + 20f64.to_radians(),
            5.0,
        );
        let sectors = blind_sectors(&c, 360, 15.0, 30f64.to_radians(), -1.0);
        assert_eq!(sectors.len(), 1, "seam halves must merge: {sectors:?}");
        let s = &sectors[0];
        assert!(
            s.end > std::f64::consts::PI,
            "wrapped sector end: {}",
            s.end
        );
        assert!(s.width() >= 30f64.to_radians());
        assert!(s.center().abs() > std::f64::consts::PI - 0.1, "rear center");
        assert!(s.contains(std::f64::consts::PI));
        assert!(s.contains(-std::f64::consts::PI + 0.05));
        assert!(!s.contains(0.0));
    }

    #[test]
    fn fully_surrounded_yields_single_circle_sector() {
        let c = occluded_scene(-std::f64::consts::PI, std::f64::consts::PI, 5.0);
        let sectors = blind_sectors(&c, 360, 15.0, 10f64.to_radians(), -1.0);
        assert_eq!(sectors.len(), 1);
        let s = &sectors[0];
        assert!((s.width() - std::f64::consts::TAU).abs() < 1e-9);
        for az in [-3.0, -1.5, 0.0, 1.5, 3.0] {
            assert!(s.contains(az), "full-circle sector must contain {az}");
        }
    }

    #[test]
    fn blind_sectors_sorted_and_disjoint() {
        // Two separate occluders: ahead and to the left.
        let mut c = occluded_scene(-0.3, 0.3, 5.0);
        let left = occluded_scene(1.2, 1.8, 6.0);
        for p in left.iter() {
            c.push(*p);
        }
        let sectors = blind_sectors(&c, 360, 15.0, 10f64.to_radians(), -1.0);
        assert_eq!(sectors.len(), 2);
        assert!(sectors[0].start < sectors[1].start);
        assert!(sectors[0].end <= sectors[1].start + 1e-9);
    }

    #[test]
    fn static_map_learns_background() {
        let mut map = StaticMap::new(VoxelGridConfig::voxelnet_car(), 3);
        let wall: PointCloud = (0..20)
            .map(|i| Point::new(Vec3::new(30.0, i as f64 - 10.0, 0.0), 0.5))
            .collect();
        // Before enough observations nothing is static.
        map.observe(&wall);
        assert_eq!(map.static_voxel_count(), 0);
        assert_eq!(map.subtract_background(&wall).len(), wall.len());
        map.observe(&wall);
        map.observe(&wall);
        assert!(map.static_voxel_count() > 0);
        assert!(map.subtract_background(&wall).is_empty());
        assert_eq!(map.scans_observed(), 3);
    }

    #[test]
    fn static_map_keeps_dynamic_objects() {
        let mut map = StaticMap::new(VoxelGridConfig::voxelnet_car(), 2);
        let wall: PointCloud = (0..20)
            .map(|i| Point::new(Vec3::new(30.0, i as f64 - 10.0, 0.0), 0.5))
            .collect();
        map.observe(&wall);
        map.observe(&wall);
        // A car appears somewhere new.
        let mut frame = wall.clone();
        frame.push(Point::new(Vec3::new(15.0, 2.0, 0.0), 0.8));
        let dynamic = map.subtract_background(&frame);
        assert_eq!(dynamic.len(), 1);
        assert_eq!(dynamic.as_slice()[0].position.x, 15.0);
    }

    #[test]
    fn static_map_observation_counted_once_per_scan() {
        let mut map = StaticMap::new(VoxelGridConfig::voxelnet_car(), 2);
        // Many points in the same voxel within one scan count as one
        // observation, so a crowded single frame cannot create "static".
        let dense: PointCloud = (0..100)
            .map(|_| Point::new(Vec3::new(30.0, 0.0, 0.0), 0.5))
            .collect();
        map.observe(&dense);
        assert_eq!(map.static_voxel_count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = StaticMap::new(VoxelGridConfig::voxelnet_car(), 0);
    }

    #[test]
    fn category_display() {
        for cat in RoiCategory::ALL {
            assert!(format!("{cat}").starts_with("ROI"));
        }
    }
}
