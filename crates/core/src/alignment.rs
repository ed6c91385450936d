//! Alignment of received clouds into the receiver's frame — the paper's
//! Equations 1–3 assembled end-to-end — plus the alignment guard that
//! validates (and, when possible, repairs) a GPS/IMU-derived transform
//! before fusion.

use cooper_geometry::{GpsFix, Mat3, RigidTransform, Vec3};
use cooper_lidar_sim::PoseEstimate;
use cooper_pointcloud::PointCloud;

/// The GPS anchor of the shared local east-north-up frame that every
/// fleet run, experiment and CLI command aligns in: a fix on the UNT
/// campus in Denton, Texas. Equations 1–3 only use differences of
/// fixes, so the anchor only has to be shared.
pub const GPS_ANCHOR: GpsFix = GpsFix {
    latitude: 33.2075,
    longitude: -97.1526,
    altitude: 190.0,
};

/// Builds the rigid transform that maps points from the transmitter's
/// sensor frame into the receiver's sensor frame.
///
/// This is the paper's data-reconstruction step: the rotation comes from
/// "the IMU value difference between the transmitter and the receiver"
/// (Equation 1 applied to both attitudes) and the translation `Δd` from
/// the difference of the two GPS readings (Equation 3), both evaluated
/// in the local east-north-up frame anchored at `origin`.
///
/// # Examples
///
/// ```
/// use cooper_core::alignment_transform;
/// use cooper_geometry::{Attitude, GpsFix, Vec3};
/// use cooper_lidar_sim::PoseEstimate;
///
/// let origin = GpsFix::new(33.2075, -97.1526, 190.0);
/// let tx = PoseEstimate { gps: origin.offset_by(Vec3::new(10.0, 0.0, 0.0)), attitude: Attitude::level() };
/// let rx = PoseEstimate { gps: origin, attitude: Attitude::level() };
/// let t = alignment_transform(&tx, &rx, &origin);
/// // The transmitter's origin lands 10 m east of the receiver.
/// assert!((t.apply(Vec3::ZERO) - Vec3::new(10.0, 0.0, 0.0)).norm() < 1e-4);
/// ```
pub fn alignment_transform(
    transmitter: &PoseEstimate,
    receiver: &PoseEstimate,
    origin: &GpsFix,
) -> RigidTransform {
    let tx_pose = transmitter.to_pose(origin);
    let rx_pose = receiver.to_pose(origin);
    RigidTransform::between(&tx_pose, &rx_pose)
}

/// Upper bound on points the guard samples from a remote cloud; keeps
/// its per-packet cost independent of scan density.
pub const GUARD_MAX_SAMPLE_POINTS: usize = 600;

/// Residual under which the GPS/IMU transform is accepted as-is,
/// skipping ICP entirely — the fast path for healthy fleets, metres.
pub const GUARD_CLEAN_RESIDUAL_M: f64 = 0.20;

/// Minimum matched (non-ground) correspondences for an overlap to be
/// verifiable at all.
pub const GUARD_MIN_OVERLAP_POINTS: usize = 25;

/// A refined transform must retain at least this fraction of the
/// pre-refinement occupancy agreement. A genuine correction raises
/// agreement; an aliased fit that snapped remote structure onto the
/// wrong local structure lowers it even when the point residual looks
/// plausible.
pub const GUARD_MIN_OCCUPANCY_RECOVERY: f64 = 1.0;

/// Largest translation correction ICP may apply, metres. GPS drift
/// worth repairing is metre-scale; a fit that wants to teleport the
/// cloud further than this has almost certainly aliased onto the wrong
/// structure (repetitive scenes score a plausible residual there), so
/// the guard rejects instead.
pub const GUARD_MAX_CORRECTION_M: f64 = 2.5;

/// Sensor-frame height below which a point counts as ground, metres.
/// Ground points are excluded from ICP correspondences (on flat terrain
/// ground matches ground anywhere, constraining nothing in the plane)
/// but drive the ground-plane z residual.
pub const GUARD_GROUND_Z_M: f64 = -1.2;

/// Tuning knobs of the alignment guard; the `GUARD_*` constants fix the
/// rest.
///
/// The defaults are calibrated on the synthetic scenario library: clean
/// GPS/IMU alignments (≤ 10 cm positional error, the paper's cited
/// envelope) score well under [`GUARD_CLEAN_RESIDUAL_M`], while drifts
/// past the Figure-10 bound are either pulled back by ICP or rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentGuardConfig {
    /// Voxel edge used for the occupancy-agreement score, metres.
    pub voxel_size_m: f64,
    /// Maximum ICP refinement iterations (`--icp-iters`).
    pub max_icp_iters: usize,
    /// Correspondence search radius, metres. Also bounds how much error
    /// ICP can recover: offsets beyond it have no inliers to pull on.
    pub max_correspondence_m: f64,
    /// Post-refinement residual gate, metres: refined alignments worse
    /// than this are rejected and the receiver falls back to ego-only.
    pub accept_residual_m: f64,
}

impl Default for AlignmentGuardConfig {
    fn default() -> Self {
        AlignmentGuardConfig {
            voxel_size_m: 0.8,
            max_icp_iters: 10,
            max_correspondence_m: 3.0,
            accept_residual_m: 0.45,
        }
    }
}

impl AlignmentGuardConfig {
    /// Overrides the ICP iteration bound (the CLI's `--icp-iters`).
    pub fn with_max_icp_iters(mut self, iters: usize) -> Self {
        self.max_icp_iters = iters;
        self
    }
}

/// What the guard decided about one received cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardDecision {
    /// The GPS/IMU transform already scored under the clean threshold;
    /// fused as-is without refinement.
    AcceptedClean,
    /// ICP pulled the alignment under the acceptance gate; fused with
    /// the refined transform.
    AcceptedRefined,
    /// Refinement could not bring the residual under the gate; the
    /// cloud is excluded and the receiver degrades to ego-only.
    Rejected,
    /// The claimed transform leaves too little sender/receiver overlap
    /// to verify anything — fail safe, exclude the cloud.
    InsufficientOverlap,
}

impl GuardDecision {
    /// `true` when the cloud should be fused.
    pub fn is_accepted(self) -> bool {
        matches!(
            self,
            GuardDecision::AcceptedClean | GuardDecision::AcceptedRefined
        )
    }

    /// Stable snake_case label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            GuardDecision::AcceptedClean => "accepted_clean",
            GuardDecision::AcceptedRefined => "accepted_refined",
            GuardDecision::Rejected => "rejected",
            GuardDecision::InsufficientOverlap => "insufficient_overlap",
        }
    }
}

impl std::fmt::Display for GuardDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the guard measured about one received cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardReport {
    /// The verdict.
    pub decision: GuardDecision,
    /// Median matched-correspondence residual under the GPS/IMU
    /// transform, metres. Infinite when nothing matched.
    pub residual_before_m: f64,
    /// Median matched residual under the transform ICP reached (the
    /// input when ICP did not run), metres. Infinite when nothing
    /// matched.
    pub residual_after_m: f64,
    /// Fraction of the remote cloud's occupied voxels (inside the
    /// receiver's bounds) that land on voxels the receiver also
    /// occupies — the overlap-region agreement score.
    pub occupancy_agreement: f64,
    /// Absolute ground-plane height disagreement in the overlap
    /// region, metres. Zero when either side has no ground points.
    pub ground_dz_m: f64,
    /// The transform to fuse with — refined iff `decision` is
    /// [`GuardDecision::AcceptedRefined`], otherwise the input.
    pub transform: RigidTransform,
}

/// Samples at most `max` positions from a cloud, uniformly by index.
fn sample_positions(cloud: &PointCloud, max: usize) -> Vec<Vec3> {
    if cloud.is_empty() || max == 0 {
        return Vec::new();
    }
    let step = cloud.len().div_ceil(max);
    cloud.iter().step_by(step).map(|p| p.position).collect()
}

/// `v.floor() as i64` — saturating, NaN to zero — without the `floor`
/// library call baseline x86-64 makes: truncate, then step down below a
/// negative fraction. A truncated value converts back to `f64` exactly.
fn floor_i64(v: f64) -> i64 {
    let t = v as i64;
    if (t as f64) > v {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// The planar cell of `p` in a grid of `cell`-metre squares.
fn key_xy(p: Vec3, cell: f64) -> (i64, i64) {
    (floor_i64(p.x / cell), floor_i64(p.y / cell))
}

/// The voxel of `p` in a grid of `cell`-metre cubes.
fn key_xyz(p: Vec3, cell: f64) -> (i64, i64, i64) {
    (
        floor_i64(p.x / cell),
        floor_i64(p.y / cell),
        floor_i64(p.z / cell),
    )
}

/// The planar distance between two points.
fn dist_xy(a: Vec3, b: Vec3) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    (dx * dx + dy * dy).sqrt()
}

/// Index cells per correspondence radius: a 3 m radius searches 0.75 m
/// cells, unless the cloud is too sparse for cells that small.
const CELLS_PER_RADIUS: f64 = 4.0;

/// A planar nearest-neighbour index over the receiver's non-ground
/// points. Matching happens in the xy (bird's-eye) plane: the pose
/// faults the guard detects — GPS drift, yaw bias — are planar, and a
/// 3D metric would be dominated by the beam-ring sampling mismatch
/// between two vantage points rather than by alignment error.
///
/// The points sit in a dense row-major grid of square cells, stored as
/// one point array plus per-cell offsets. The grid has at most about
/// `4n + 64` cells for `n` points: a sparse cloud spread over a wide
/// area gets wider cells, not more of them. Queries scan the grid ring
/// by ring around the query's cell. Which point wins is fixed by the
/// tie rule of [`PlanarIndex::nearest`], so results never depend on the
/// grid, on construction order or on thread order.
#[derive(Debug)]
struct PlanarIndex {
    /// Edge of the coarse cells the tie rule is stated in, metres: the
    /// correspondence radius.
    coarse: f64,
    /// Edge of a grid cell, metres.
    cell: f64,
    /// The smallest indexed x and y: the grid's low corner.
    x0: f64,
    y0: f64,
    /// Cells along x and along y.
    nx: usize,
    ny: usize,
    /// `points[starts[c]..starts[c + 1]]` lie in cell `c = j * nx + i`.
    starts: Vec<usize>,
    points: Vec<Vec3>,
    /// Each point's position in the non-ground cloud it was built from.
    order: Vec<usize>,
}

impl PlanarIndex {
    fn build(solid: &[Vec3], coarse: f64) -> PlanarIndex {
        // A point with a non-finite x or y lies at a NaN or infinite
        // planar distance from every query, so it can never match.
        let finite: Vec<(usize, Vec3)> = solid
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, p)| p.x.is_finite() && p.y.is_finite())
            .collect();
        if finite.is_empty() {
            return PlanarIndex {
                coarse,
                cell: 1.0,
                x0: 0.0,
                y0: 0.0,
                nx: 0,
                ny: 0,
                starts: vec![0],
                points: Vec::new(),
                order: Vec::new(),
            };
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(_, p) in &finite {
            (x0, x1) = (x0.min(p.x), x1.max(p.x));
            (y0, y1) = (y0.min(p.y), y1.max(p.y));
        }
        // At most `side` cells along either axis. Dividing before
        // subtracting keeps the span finite for any finite coordinates.
        let side = ((4 * finite.len() + 64) as f64).sqrt();
        let fine = coarse / CELLS_PER_RADIUS;
        let fine = if fine > 0.0 && fine.is_finite() {
            fine
        } else {
            1.0
        };
        let cell = fine.max(x1 / side - x0 / side).max(y1 / side - y0 / side);
        let axis = |lo: f64, hi: f64| Self::cells_from(hi, lo, cell).floor().min(side) as usize + 1;
        let (nx, ny) = (axis(x0, x1), axis(y0, y1));
        let cell_of = |p: Vec3| {
            let i = floor_i64(Self::cells_from(p.x, x0, cell)).clamp(0, nx as i64 - 1);
            let j = floor_i64(Self::cells_from(p.y, y0, cell)).clamp(0, ny as i64 - 1);
            j as usize * nx + i as usize
        };
        // Counting sort by cell, keeping cloud order inside each cell.
        let cells: Vec<usize> = finite.iter().map(|&(_, p)| cell_of(p)).collect();
        let mut starts = vec![0usize; nx * ny + 1];
        for &c in &cells {
            starts[c + 1] += 1;
        }
        for c in 0..nx * ny {
            starts[c + 1] += starts[c];
        }
        let mut next = starts.clone();
        let mut points = vec![Vec3::ZERO; finite.len()];
        let mut order = vec![0; finite.len()];
        for (&c, &(i, p)) in cells.iter().zip(&finite) {
            points[next[c]] = p;
            order[next[c]] = i;
            next[c] += 1;
        }
        PlanarIndex {
            coarse,
            cell,
            x0,
            y0,
            nx,
            ny,
            starts,
            points,
            order,
        }
    }

    /// `(v - lo) / cell`, the position of `v` along a grid axis in cells.
    /// Halving both terms first keeps the difference finite for any two
    /// finite coordinates; the result is monotone in `v`.
    fn cells_from(v: f64, lo: f64, cell: f64) -> f64 {
        (v / 2.0 - lo / 2.0) / (cell / 2.0)
    }

    /// The key a point is ranked by among equally near points: its
    /// coarse cell, then its position in the non-ground cloud.
    fn rank(&self, slot: usize) -> ((i64, i64), usize) {
        (key_xy(self.points[slot], self.coarse), self.order[slot])
    }

    /// The indexed point nearest to `p` in the xy plane within `radius`,
    /// with its distance.
    ///
    /// A point is admissible when its distance is at most `radius` and
    /// its coarse cell (edge [`PlanarIndex::coarse`]) lies within
    /// `ceil(radius / coarse)` cells of the query's on both axes. Of the
    /// admissible points, the one with the least (distance, coarse cell,
    /// position in the non-ground cloud) wins: the point a scan of the
    /// coarse cells in key order, each in cloud order, keeping the first
    /// strict minimum, would return. ICP pairs depend on which point wins
    /// a tie, so the grid's own layout must not decide it.
    ///
    /// Ring `k` holds the cells `k` cells from the query's cell, and
    /// every point in it lies at least `(k - 1) · cell` away, so the scan
    /// stops once that exceeds the best distance found, plus a rounding
    /// slack.
    fn nearest(&self, p: Vec3, radius: f64) -> Option<(Vec3, f64)> {
        // Nothing lies within a NaN or negative radius, and a non-finite
        // query lies at a NaN or infinite distance from every point.
        let unmatchable = radius.is_nan() || radius < 0.0 || !p.x.is_finite() || !p.y.is_finite();
        if self.points.is_empty() || unmatchable {
            return None;
        }
        let slack = 1e-6 * (1.0 + self.cell);
        // A point within `radius` lies at most `reach` rings out.
        let reach = floor_i64((radius + slack) / self.cell) as f64 + 1.0;
        let tx = floor_i64(Self::cells_from(p.x, self.x0, self.cell)) as f64;
        let ty = floor_i64(Self::cells_from(p.y, self.y0, self.cell)) as f64;
        let beyond = |t: f64, n: usize| t + reach < 0.0 || t - reach > (n - 1) as f64;
        if beyond(tx, self.nx) || beyond(ty, self.ny) {
            return None;
        }
        // Pulling a far query in toward the grid can only understate
        // ring distances, which keeps the stop rule safe.
        let pull = reach.min((self.nx + self.ny) as f64) + 1.0;
        let cx = tx.clamp(-pull, self.nx as f64 + pull) as i64;
        let cy = ty.clamp(-pull, self.ny as f64 + pull) as i64;
        let (nx, ny) = (self.nx as i64, self.ny as i64);

        let (kx, ky) = key_xy(p, self.coarse);
        let window = i128::from((radius / self.coarse).ceil() as i64);
        let in_window = |q: Vec3| {
            let (qx, qy) = key_xy(q, self.coarse);
            (i128::from(qx) - i128::from(kx)).abs() <= window
                && (i128::from(qy) - i128::from(ky)).abs() <= window
        };
        let mut best: Option<(usize, f64)> = None;
        let scan = |best: &mut Option<(usize, f64)>, row: i64, from: i64, to: i64| {
            let row = row as usize * self.nx;
            let slots = self.starts[row + from as usize]..self.starts[row + to as usize + 1];
            for slot in slots {
                let q = self.points[slot];
                let d = dist_xy(q, p);
                if d <= radius
                    && best
                        .is_none_or(|(b, bd)| d < bd || (d == bd && self.rank(slot) < self.rank(b)))
                    && in_window(q)
                {
                    *best = Some((slot, d));
                }
            }
        };
        for k in 0i64.. {
            let bound = best.map_or(radius, |(_, d)| d);
            if (k - 1) as f64 * self.cell > bound + slack {
                break;
            }
            let (x_lo, x_hi) = ((cx - k).max(0), (cx + k).min(nx - 1));
            for j in (cy - k).max(0)..=(cy + k).min(ny - 1) {
                if j == cy - k || j == cy + k {
                    if x_lo <= x_hi {
                        scan(&mut best, j, x_lo, x_hi);
                    }
                } else {
                    if cx - k >= 0 && cx - k < nx {
                        scan(&mut best, j, cx - k, cx - k);
                    }
                    if cx + k >= 0 && cx + k < nx {
                        scan(&mut best, j, cx + k, cx + k);
                    }
                }
            }
            if cx - k <= 0 && cx + k >= nx - 1 && cy - k <= 0 && cy + k >= ny - 1 {
                break;
            }
        }
        best.map(|(slot, d)| (self.points[slot], d))
    }
}

/// Median matched-correspondence residual of `remote` (already in the
/// receiver frame) against the receiver index: the guard's core metric.
/// The median, not the mean — remote points on surfaces the receiver
/// cannot see match whatever structure happens to sit within the
/// search radius, and those junk pairs would otherwise swamp the
/// alignment signal.
fn matched_residual(index: &PlanarIndex, remote: &[Vec3], radius: f64) -> (f64, usize) {
    let mut dists: Vec<f64> = remote
        .iter()
        .filter_map(|&p| index.nearest(p, radius).map(|(_, d)| d))
        .collect();
    if dists.is_empty() {
        return (f64::INFINITY, 0);
    }
    dists.sort_by(f64::total_cmp);
    (dists[dists.len() / 2], dists.len())
}

/// One planar-Procrustes ICP update: the rigid (yaw + translation)
/// motion that best maps the matched remote points onto their nearest
/// receiver points. Planar because the faults being corrected — GPS
/// drift and yaw bias — live in the ground plane; the z offset still
/// rides along through the centroid difference.
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
    // Matching is planar; the z component of the centroid difference is
    // beam-ring sampling noise, not signal. Keep the correction planar.
    translation.z = 0.0;
    RigidTransform::new(rotation, translation)
}

/// The receiver's occupied voxels for the occupancy-agreement score:
/// its bounding box grown by a margin, and the sorted, deduplicated keys
/// of the voxels its points occupy inside that box.
#[derive(Debug)]
struct VoxelSet {
    voxel: f64,
    /// The grown box's corners; `None` for an empty cloud.
    bounds: Option<(Vec3, Vec3)>,
    keys: VoxelKeys,
}

/// Sorted, deduplicated voxel keys.
#[derive(Debug)]
enum VoxelKeys {
    /// Keys packed into one integer each.
    Packed(Packing, Vec<u64>),
    /// Key triples, for a box of too many voxels to pack.
    Wide(Vec<(i64, i64, i64)>),
}

/// Packs the voxel keys of a box into one integer, in mixed radix from
/// the box's low-corner voxel.
#[derive(Debug, Clone, Copy)]
struct Packing {
    base: (i64, i64, i64),
    /// Voxels along y and along z.
    wy: u64,
    wz: u64,
}

impl Packing {
    /// The packing of the voxels from `a` to `b` (any two opposite
    /// corners), or `None` when there are more than `u64::MAX`.
    fn between(a: (i64, i64, i64), b: (i64, i64, i64)) -> Option<Packing> {
        let width = |a: i64, b: i64| (i128::from(a) - i128::from(b)).unsigned_abs() + 1;
        let (wx, wy, wz) = (width(a.0, b.0), width(a.1, b.1), width(a.2, b.2));
        let total = wx.checked_mul(wy)?.checked_mul(wz)?;
        (total <= u128::from(u64::MAX)).then(|| Packing {
            base: (a.0.min(b.0), a.1.min(b.1), a.2.min(b.2)),
            wy: wy as u64,
            wz: wz as u64,
        })
    }

    fn pack(&self, k: (i64, i64, i64)) -> u64 {
        let offset = |k: i64, base: i64| (i128::from(k) - i128::from(base)) as u64;
        (offset(k.0, self.base.0) * self.wy + offset(k.1, self.base.1)) * self.wz
            + offset(k.2, self.base.2)
    }
}

impl VoxelSet {
    fn build(local: &[Vec3], voxel: f64, margin: f64) -> VoxelSet {
        let bounds = cooper_geometry::Aabb3::from_points(local.iter().copied()).map(|b| {
            let m = Vec3::new(margin, margin, margin);
            (b.min() - m, b.max() + m)
        });
        let keys = match bounds {
            None => VoxelKeys::Wide(Vec::new()),
            // Keys grow with coordinates, so every key inside the box
            // lies between its corners' keys.
            Some((lo, hi)) => match Packing::between(key_xyz(lo, voxel), key_xyz(hi, voxel)) {
                Some(packing) => VoxelKeys::Packed(
                    packing,
                    sorted_unique(keys_in(local, (lo, hi), voxel).map(|k| packing.pack(k))),
                ),
                None => VoxelKeys::Wide(sorted_unique(keys_in(local, (lo, hi), voxel))),
            },
        };
        VoxelSet {
            voxel,
            bounds,
            keys,
        }
    }

    /// Fraction of the voxels `remote` occupies inside the box that the
    /// receiver also occupies.
    fn agreement(&self, remote: &[Vec3]) -> f64 {
        let Some(bounds) = self.bounds else {
            return 0.0;
        };
        let keys = keys_in(remote, bounds, self.voxel);
        match &self.keys {
            VoxelKeys::Packed(packing, local) => hit_fraction(local, keys.map(|k| packing.pack(k))),
            VoxelKeys::Wide(local) => hit_fraction(local, keys),
        }
    }
}

/// The voxel keys of the points of `pts` inside the box `lo..=hi`.
fn keys_in(
    pts: &[Vec3],
    (lo, hi): (Vec3, Vec3),
    voxel: f64,
) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
    let in_bounds = move |p: &&Vec3| {
        p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y && p.z >= lo.z && p.z <= hi.z
    };
    pts.iter()
        .filter(in_bounds)
        .map(move |&p| key_xyz(p, voxel))
}

/// `keys` sorted and deduplicated. Neighbouring scan points often share
/// a voxel, so dropping adjacent repeats first shrinks the sort.
fn sorted_unique<K: Ord>(keys: impl Iterator<Item = K>) -> Vec<K> {
    let mut keys: Vec<K> = keys.collect();
    keys.dedup();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The fraction of the distinct `remote` keys found in `local` (sorted
/// and deduplicated); zero when `remote` is empty.
fn hit_fraction<K: Ord>(local: &[K], remote: impl Iterator<Item = K>) -> f64 {
    let remote = sorted_unique(remote);
    if remote.is_empty() {
        return 0.0;
    }
    let hits = remote
        .iter()
        .filter(|k| local.binary_search(k).is_ok())
        .count();
    hits as f64 / remote.len() as f64
}

/// Mean height of the points of `pts` below [`GUARD_GROUND_Z_M`], or
/// `None` when there are none.
fn mean_ground(pts: &[Vec3]) -> Option<f64> {
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
}

/// The receiver's side of the alignment guard: everything the guard
/// reads from the local cloud, built once and shared by every received
/// cloud guarded against it.
///
/// It holds the local cloud's non-ground points in a planar
/// nearest-neighbour index, its occupied voxels inside its bounding box
/// grown by the correspondence radius, and its mean ground height. The
/// cooperative pipeline builds one per perceive, on the first decoded
/// point packet. The reference keeps the [`AlignmentGuardConfig`] it was
/// built with, so it cannot be paired with another.
#[derive(Debug)]
pub struct GuardReference {
    cfg: AlignmentGuardConfig,
    /// Points in the local cloud.
    len: usize,
    /// Non-ground points in the local cloud, non-finite ones included.
    solid: usize,
    index: PlanarIndex,
    voxels: VoxelSet,
    ground_mean: Option<f64>,
}

impl GuardReference {
    /// Indexes `local`, the receiver's own cloud, for guarding clouds
    /// under `cfg`.
    ///
    /// The receiver's cloud stays at full density (minus ground for the
    /// index) so the nearest-neighbour floor measures alignment error,
    /// not sampling sparsity. Only the remote side is downsampled.
    pub fn new(local: &PointCloud, cfg: &AlignmentGuardConfig) -> GuardReference {
        let positions: Vec<Vec3> = local.iter().map(|p| p.position).collect();
        let is_ground = |p: &Vec3| p.z < GUARD_GROUND_Z_M;
        let solid: Vec<Vec3> = positions
            .iter()
            .copied()
            .filter(|p| !is_ground(p))
            .collect();
        GuardReference {
            cfg: *cfg,
            len: positions.len(),
            solid: solid.len(),
            index: PlanarIndex::build(&solid, cfg.max_correspondence_m),
            voxels: VoxelSet::build(&positions, cfg.voxel_size_m, cfg.max_correspondence_m),
            ground_mean: mean_ground(&positions),
        }
    }

    /// Absolute difference of mean ground heights in the shared region,
    /// or zero when either side contributes no ground points.
    fn ground_dz(&self, remote: &[Vec3]) -> f64 {
        match (self.ground_mean, mean_ground(remote)) {
            (Some(a), Some(b)) => (a - b).abs(),
            _ => 0.0,
        }
    }

    /// Validates — and when recoverable, repairs — `base`, the claimed
    /// transform of `remote` into the receiver's frame. See
    /// [`guard_alignment`] for the procedure; this is the same guard
    /// with the receiver's side built once.
    pub fn guard(&self, remote: &PointCloud, base: &RigidTransform) -> GuardReport {
        let cfg = &self.cfg;
        let fail_safe = |residual: f64| GuardReport {
            decision: GuardDecision::InsufficientOverlap,
            residual_before_m: residual,
            residual_after_m: residual,
            occupancy_agreement: 0.0,
            ground_dz_m: 0.0,
            transform: *base,
        };

        let sampled = sample_positions(remote, GUARD_MAX_SAMPLE_POINTS);
        let remote_samples: Vec<Vec3> = sampled.iter().map(|&p| base.apply(p)).collect();
        if self.len == 0 || remote_samples.is_empty() {
            return fail_safe(f64::INFINITY);
        }
        let is_ground = |p: &Vec3| p.z < GUARD_GROUND_Z_M;
        let remote_solid: Vec<Vec3> = remote_samples
            .iter()
            .copied()
            .filter(|p| !is_ground(p))
            .collect();
        if self.solid < GUARD_MIN_OVERLAP_POINTS || remote_solid.len() < GUARD_MIN_OVERLAP_POINTS {
            return fail_safe(f64::INFINITY);
        }

        let (residual_before, matched_before) =
            matched_residual(&self.index, &remote_solid, cfg.max_correspondence_m);
        let occupancy_before = self.voxels.agreement(&remote_samples);
        let ground_dz_before = self.ground_dz(&remote_samples);

        if matched_before < GUARD_MIN_OVERLAP_POINTS {
            // The claimed geometry puts the clouds apart: nothing to verify
            // against, nothing for ICP to pull on. Fail safe.
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

        // Bounded planar ICP with an annealing correspondence radius: wide
        // first pulls gross offsets in, narrow last stops far outliers from
        // dragging the fit.
        let mut refined = *base;
        let mut moved = remote_solid;
        let mut radius = cfg.max_correspondence_m;
        for _ in 0..cfg.max_icp_iters {
            // Adaptive trim: drop pairs matched much farther than the
            // median — the non-overlap junk that would drag the fit — while
            // keeping the far-but-informative pairs (structure perpendicular
            // to the error direction) that a fixed best-k trim would lose.
            let all_pairs: Vec<(Vec3, Vec3, f64)> = moved
                .iter()
                .filter_map(|&p| self.index.nearest(p, radius).map(|(q, d)| (p, q, d)))
                .collect();
            let mut dists: Vec<f64> = all_pairs.iter().map(|&(_, _, d)| d).collect();
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
            matched_residual(&self.index, &moved, cfg.max_correspondence_m);
        let remote_refined: Vec<Vec3> = sampled.iter().map(|&p| refined.apply(p)).collect();
        let ground_dz_after = self.ground_dz(&remote_refined);
        let occupancy_after = self.voxels.agreement(&remote_refined);

        let correction_m = (refined.apply(Vec3::ZERO) - base.apply(Vec3::ZERO)).norm();
        let decision = if matched_after >= GUARD_MIN_OVERLAP_POINTS
            && residual_after <= cfg.accept_residual_m
            && ground_dz_after <= cfg.accept_residual_m
            && occupancy_after >= occupancy_before * GUARD_MIN_OCCUPANCY_RECOVERY
            && correction_m <= GUARD_MAX_CORRECTION_M
        {
            GuardDecision::AcceptedRefined
        } else {
            GuardDecision::Rejected
        };
        GuardReport {
            decision,
            residual_before_m: residual_before,
            residual_after_m: residual_after,
            occupancy_agreement: occupancy_after,
            ground_dz_m: ground_dz_after,
            transform: if decision.is_accepted() {
                refined
            } else {
                *base
            },
        }
    }
}

/// Validates — and when recoverable, repairs — the claimed transform of
/// a received cloud before fusion.
///
/// The guard scores the sender/receiver overlap region: it samples the
/// remote cloud by index, matches transformed remote points to their
/// nearest non-ground receiver points, and measures the median matched
/// residual plus voxel-occupancy agreement and the ground-plane height
/// gap. Clean transforms (residual ≤ [`GUARD_CLEAN_RESIDUAL_M`]) pass
/// untouched; anything
/// worse gets up to [`AlignmentGuardConfig::max_icp_iters`] rounds of
/// planar point-to-point ICP with an annealing correspondence radius,
/// and is accepted only if the post-refinement residual clears
/// [`AlignmentGuardConfig::accept_residual_m`]. A cloud whose claimed
/// transform leaves no verifiable overlap fails safe:
/// [`GuardDecision::InsufficientOverlap`], excluded from fusion.
///
/// This builds a [`GuardReference`] for one cloud; a receiver guarding
/// several clouds builds the reference once and calls
/// [`GuardReference::guard`] for each.
///
/// Deterministic by construction — uniform index sampling, a
/// nearest-neighbour search whose ties are broken by a fixed rank,
/// sorted voxel keys — so guarded fleet runs stay bit-identical at any
/// thread count.
pub fn guard_alignment(
    local: &PointCloud,
    remote: &PointCloud,
    base: &RigidTransform,
    cfg: &AlignmentGuardConfig,
) -> GuardReport {
    GuardReference::new(local, cfg).guard(remote, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::{Attitude, Pose};
    use cooper_lidar_sim::{scenario, LidarScanner};

    fn origin() -> GpsFix {
        GpsFix::new(33.2075, -97.1526, 190.0)
    }

    fn estimate(pose: &Pose) -> PoseEstimate {
        PoseEstimate::from_pose(pose, &origin())
    }

    #[test]
    fn identity_for_identical_poses() {
        let pose = Pose::new(Vec3::new(5.0, -3.0, 1.8), Attitude::from_yaw(0.7));
        let t = alignment_transform(&estimate(&pose), &estimate(&pose), &origin());
        let p = Vec3::new(12.0, 4.0, 0.5);
        assert!((t.apply(p) - p).norm() < 1e-4);
    }

    #[test]
    fn matches_direct_pose_transform() {
        let tx = Pose::new(Vec3::new(20.0, 10.0, 1.9), Attitude::new(0.8, 0.01, -0.02));
        let rx = Pose::new(Vec3::new(-5.0, 3.0, 1.73), Attitude::new(-0.4, 0.0, 0.03));
        let via_gps = alignment_transform(&estimate(&tx), &estimate(&rx), &origin());
        let direct = RigidTransform::between(&tx, &rx);
        let p = Vec3::new(7.0, -2.0, 0.4);
        assert!(
            (via_gps.apply(p) - direct.apply(p)).norm() < 1e-3,
            "GPS path {} vs direct {}",
            via_gps.apply(p),
            direct.apply(p)
        );
    }

    #[test]
    fn pure_rotation_case() {
        let tx = Pose::new(Vec3::ZERO, Attitude::from_yaw(std::f64::consts::FRAC_PI_2));
        let rx = Pose::new(Vec3::ZERO, Attitude::level());
        let t = alignment_transform(&estimate(&tx), &estimate(&rx), &origin());
        // A point ahead of the rotated transmitter appears to the
        // receiver's left.
        let p = t.apply(Vec3::new(5.0, 0.0, 0.0));
        assert!((p - Vec3::new(0.0, 5.0, 0.0)).norm() < 1e-4, "{p}");
    }

    /// Two scans of the same scene plus the ground-truth transform and
    /// a skewed variant with `offset` error injected.
    fn guarded_pair(offset: Vec3) -> (PointCloud, PointCloud, RigidTransform, RigidTransform) {
        let scene = scenario::tj_scenario_1();
        let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
        let rx_pose = scene.observers[0];
        let tx_pose = scene.observers[1];
        let local = scanner.scan(&scene.world, &rx_pose, 1);
        let remote = scanner.scan(&scene.world, &tx_pose, 2);
        let truth = RigidTransform::between(&tx_pose, &rx_pose);
        let mut skewed_est = estimate(&tx_pose);
        skewed_est.gps = skewed_est.gps.offset_by(offset);
        let skewed = alignment_transform(&skewed_est, &estimate(&rx_pose), &origin());
        (local, remote, truth, skewed)
    }

    #[test]
    fn clean_alignment_is_accepted_without_icp() {
        let (local, remote, truth, _) = guarded_pair(Vec3::ZERO);
        let report = guard_alignment(&local, &remote, &truth, &AlignmentGuardConfig::default());
        assert_eq!(report.decision, GuardDecision::AcceptedClean, "{report:?}");
        assert!(report.residual_before_m <= 0.20, "{report:?}");
        assert!(report.occupancy_agreement > 0.1, "{report:?}");
    }

    #[test]
    fn icp_recovers_double_drift_offsets() {
        // 2 m planar error — 2× an extended 1 m drift bound, far past
        // the paper's 0.1 m envelope.
        let d = 2.0 / 2f64.sqrt();
        let (local, remote, truth, skewed) = guarded_pair(Vec3::new(d, d, 0.0));
        let cfg = AlignmentGuardConfig::default();
        let report = guard_alignment(&local, &remote, &skewed, &cfg);
        assert_eq!(
            report.decision,
            GuardDecision::AcceptedRefined,
            "{report:?}"
        );
        assert!(
            report.residual_after_m < report.residual_before_m,
            "{report:?}"
        );
        // The refined transform should land near the ground truth.
        let probe = Vec3::new(5.0, 2.0, 0.0);
        let err = (report.transform.apply(probe) - truth.apply(probe)).norm();
        assert!(err < 0.5, "refined-vs-truth error {err}");
    }

    #[test]
    fn unrecoverable_error_is_rejected_or_unverifiable() {
        // 30 m of error: far beyond the correspondence radius, nothing
        // for ICP to pull on.
        let (local, remote, _, skewed) = guarded_pair(Vec3::new(30.0, -20.0, 0.0));
        let report = guard_alignment(&local, &remote, &skewed, &AlignmentGuardConfig::default());
        assert!(
            !report.decision.is_accepted(),
            "gross error must not be fused: {report:?}"
        );
    }

    #[test]
    fn empty_clouds_fail_safe() {
        let empty = PointCloud::new();
        let report = guard_alignment(
            &empty,
            &empty,
            &RigidTransform::IDENTITY,
            &AlignmentGuardConfig::default(),
        );
        assert_eq!(report.decision, GuardDecision::InsufficientOverlap);
    }

    #[test]
    fn guard_is_deterministic() {
        let d = 1.0;
        let (local, remote, _, skewed) = guarded_pair(Vec3::new(d, -d, 0.0));
        let cfg = AlignmentGuardConfig::default();
        let a = guard_alignment(&local, &remote, &skewed, &cfg);
        let b = guard_alignment(&local, &remote, &skewed, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn floor_i64_matches_the_saturating_cast() {
        for v in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            2.999_999_999_999_999_6,
            -2.999_999_999_999_999_6,
            9_007_199_254_740_993.0,
            -9_007_199_254_740_993.0,
            9.223_372_036_854_775e18,
            -9.223_372_036_854_775e18,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(floor_i64(v), v.floor() as i64, "{v}");
        }
    }

    #[test]
    fn index_cells_are_bounded_by_point_count() {
        // Twelve points spread over 2000 km: cells widen instead of
        // multiplying, and exact matches are still found.
        let points: Vec<Vec3> = (0..12)
            .map(|i| {
                let a = f64::from(i) * 0.5;
                Vec3::new(1e6 * a.cos(), 1e6 * a.sin(), 0.0)
            })
            .collect();
        let index = PlanarIndex::build(&points, 3.0);
        let n = points.len() as f64;
        let side = (4.0 * n + 64.0).sqrt();
        assert!(((index.nx * index.ny) as f64) <= (side + 1.0) * (side + 1.0));
        for &p in &points {
            assert_eq!(index.nearest(p, 3.0), Some((p, 0.0)));
        }
        assert_eq!(index.nearest(Vec3::new(5.0, 5.0, 0.0), 3.0), None);
    }

    #[test]
    fn decision_labels_are_stable() {
        for d in [
            GuardDecision::AcceptedClean,
            GuardDecision::AcceptedRefined,
            GuardDecision::Rejected,
            GuardDecision::InsufficientOverlap,
        ] {
            assert!(!d.label().is_empty());
            assert_eq!(format!("{d}"), d.label());
        }
        assert!(GuardDecision::AcceptedRefined.is_accepted());
        assert!(!GuardDecision::Rejected.is_accepted());
    }
}
