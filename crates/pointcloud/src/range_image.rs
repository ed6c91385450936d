//! Spherical (range-image) projection of point clouds.
//!
//! SPOD's preprocessing stage: "point clouds are projected onto a sphere
//! … to generate a dense representation" (§III-C, following SqueezeSeg).
//! A range image indexes returns by (elevation row, azimuth column); the
//! dense grid makes hole-filling (densification) cheap, which is what lets
//! SPOD operate on sparse 16-beam data.

use std::fmt;

use cooper_geometry::{atan2_approx, AngleBins, ApproxBin, Vec3};
use serde::{Deserialize, Serialize};

use crate::{Point, PointCloud};

/// Configuration of a spherical projection grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeImageConfig {
    /// Number of elevation rows (typically the beam count).
    pub rows: usize,
    /// Number of azimuth columns.
    pub cols: usize,
    /// Minimum elevation angle, radians (bottom row).
    pub elevation_min: f64,
    /// Maximum elevation angle, radians (top row).
    pub elevation_max: f64,
    /// Minimum azimuth angle, radians (left column).
    pub azimuth_min: f64,
    /// Maximum azimuth angle, radians (right column).
    pub azimuth_max: f64,
}

impl RangeImageConfig {
    /// A VLP-16-shaped grid: 16 rows over ±15° elevation, 360° azimuth at
    /// 0.4° resolution.
    pub fn vlp16() -> Self {
        RangeImageConfig {
            rows: 16,
            cols: 900,
            elevation_min: (-15.0f64).to_radians(),
            elevation_max: 15.0f64.to_radians(),
            azimuth_min: -std::f64::consts::PI,
            azimuth_max: std::f64::consts::PI,
        }
    }

    /// An HDL-64-shaped grid: 64 rows from −24.8° to +2°, 360° azimuth.
    pub fn hdl64() -> Self {
        RangeImageConfig {
            rows: 64,
            cols: 2048,
            elevation_min: (-24.8f64).to_radians(),
            elevation_max: 2.0f64.to_radians(),
            azimuth_min: -std::f64::consts::PI,
            azimuth_max: std::f64::consts::PI,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when dimensions are zero, an angle is not
    /// finite, or an angle range is empty or spans an infinite width.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows == 0 || self.cols == 0 {
            return Err("range image must have non-zero dimensions".into());
        }
        let angles = [
            self.elevation_min,
            self.elevation_max,
            self.azimuth_min,
            self.azimuth_max,
        ];
        if !angles.iter().all(|a| a.is_finite()) {
            return Err("range image angles must be finite".into());
        }
        if !(self.elevation_max - self.elevation_min).is_finite()
            || !(self.azimuth_max - self.azimuth_min).is_finite()
        {
            return Err("range image angle span overflows".into());
        }
        if self.elevation_max <= self.elevation_min {
            return Err("elevation range is empty".into());
        }
        if self.azimuth_max <= self.azimuth_min {
            return Err("azimuth range is empty".into());
        }
        Ok(())
    }

    /// Maps a direction to `(row, col)`, or `None` when outside the grid:
    /// the [`AngleBins::bin`] of its libm elevation and azimuth. This is
    /// the exact definition; [`RangeImage::project`] reaches the same
    /// cells with fewer `atan2` calls.
    pub fn cell_of(&self, position: Vec3) -> Option<(usize, usize)> {
        let col = self.azimuth_bins().bin(position.azimuth())?;
        let row = self.elevation_bins().bin(position.elevation())?;
        Some((row, col))
    }

    /// The column bins: `cols` over `[azimuth_min, azimuth_max]`.
    fn azimuth_bins(&self) -> AngleBins {
        AngleBins::new(self.azimuth_min, self.azimuth_max, self.cols)
    }

    /// The row bins: `rows` over `[elevation_min, elevation_max]`.
    fn elevation_bins(&self) -> AngleBins {
        AngleBins::new(self.elevation_min, self.elevation_max, self.rows)
    }

    /// The direction unit-vector at the center of a cell.
    pub fn direction_of(&self, row: usize, col: usize) -> Vec3 {
        let el = self.elevation_min
            + (row as f64 + 0.5) / self.rows as f64 * (self.elevation_max - self.elevation_min);
        let az = self.azimuth_min
            + (col as f64 + 0.5) / self.cols as f64 * (self.azimuth_max - self.azimuth_min);
        Vec3::new(el.cos() * az.cos(), el.cos() * az.sin(), el.sin())
    }
}

/// [`RangeImageConfig::cell_of`], with `atan2` only where an approximate
/// angle lands near an edge; `az_bins` and `el_bins` are the config's.
#[inline]
fn fast_cell_of(
    config: &RangeImageConfig,
    az_bins: &AngleBins,
    el_bins: &AngleBins,
    p: Vec3,
) -> Option<(usize, usize)> {
    let col = az_bins.classify(atan2_approx(p.y, p.x));
    let row = el_bins.classify(atan2_approx(p.z, p.range_xy()));
    match (row, col) {
        (ApproxBin::Inside(row), ApproxBin::Inside(col)) => Some((row, col)),
        (ApproxBin::Outside, _) | (_, ApproxBin::Outside) => None,
        _ => config.cell_of(p),
    }
}

/// `(cos, sin)` of the centre angle of each of `n` cells spanning `[min,
/// max]` — the angle expression of [`RangeImageConfig::direction_of`], so
/// the tables rebuild its directions bit for bit.
fn cell_trig(min: f64, max: f64, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let angle = min + (i as f64 + 0.5) / n as f64 * (max - min);
            (angle.cos(), angle.sin())
        })
        .collect()
}

/// One cell of a range image: the closest return projected into it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
struct Cell {
    /// Range in metres; `0.0` means empty.
    range: f32,
    /// Reflectance of the stored return.
    reflectance: f32,
}

/// A dense spherical projection of a point cloud.
///
/// Cells keep the *closest* return mapped into them, matching how a real
/// scanner reports the first surface per beam direction.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{Point, PointCloud, RangeImage, RangeImageConfig};
///
/// let mut cloud = PointCloud::new();
/// cloud.push(Point::new(Vec3::new(10.0, 0.0, 0.0), 0.8));
/// let img = RangeImage::project(&cloud, RangeImageConfig::vlp16());
/// assert_eq!(img.occupied_cells(), 1);
/// let back = img.to_cloud();
/// assert_eq!(back.len(), 1);
/// assert!((back.as_slice()[0].position.norm() - 10.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeImage {
    config: RangeImageConfig,
    cells: Vec<Cell>,
}

impl RangeImage {
    /// Projects a cloud onto the spherical grid, into the cells
    /// [`RangeImageConfig::cell_of`] gives.
    ///
    /// Each point's angles come from [`atan2_approx`]; a point whose
    /// approximate angle [`AngleBins::classify`] cannot bin for certain
    /// (near an edge, or NaN) goes through `cell_of`. On a VLP-16 scan
    /// that is mostly the −15° beam, which lies on the grid's bottom
    /// edge up to rounding.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`RangeImageConfig::validate`].
    pub fn project(cloud: &PointCloud, config: RangeImageConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid range image config: {msg}");
        }
        let (az_bins, el_bins) = (config.azimuth_bins(), config.elevation_bins());
        let mut cells = vec![Cell::default(); config.rows * config.cols];
        for point in cloud.iter() {
            let range = point.range();
            // A NaN range would claim its cell for good: no later return
            // compares nearer than NaN.
            if range.is_nan() || range < 1e-6 {
                continue;
            }
            let Some((row, col)) = fast_cell_of(&config, &az_bins, &el_bins, point.position) else {
                continue;
            };
            let cell = &mut cells[row * config.cols + col];
            if cell.range == 0.0 || f64::from(cell.range) > range {
                cell.range = range as f32;
                cell.reflectance = point.reflectance;
            }
        }
        RangeImage { config, cells }
    }

    /// The projection configuration.
    pub fn config(&self) -> &RangeImageConfig {
        &self.config
    }

    /// The range stored at `(row, col)`, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics when `row`/`col` are out of bounds.
    pub fn range_at(&self, row: usize, col: usize) -> Option<f64> {
        assert!(
            row < self.config.rows && col < self.config.cols,
            "cell out of bounds"
        );
        let cell = self.cells[row * self.config.cols + col];
        (cell.range > 0.0).then_some(f64::from(cell.range))
    }

    /// The back-projected point stored at `(row, col)`, or `None` when
    /// the cell is empty.
    ///
    /// # Panics
    ///
    /// Panics when `row`/`col` are out of bounds.
    pub fn point_at(&self, row: usize, col: usize) -> Option<Point> {
        assert!(
            row < self.config.rows && col < self.config.cols,
            "cell out of bounds"
        );
        let cell = self.cells[row * self.config.cols + col];
        (cell.range > 0.0).then(|| {
            let dir = self.config.direction_of(row, col);
            Point::new(dir * f64::from(cell.range), cell.reflectance)
        })
    }

    /// One flag per cell in row-major order (`row * cols + col`): `true`
    /// where the cell holds a return.
    pub fn occupancy(&self) -> Vec<bool> {
        self.cells.iter().map(|c| c.range > 0.0).collect()
    }

    /// Calls `f(row * cols + col, point)` for every non-empty cell in
    /// row-major order, with the point [`RangeImage::point_at`] returns.
    /// Cell directions come from per-row and per-column trig tables
    /// instead of four trig calls per cell.
    pub fn for_each_point(&self, mut f: impl FnMut(usize, Point)) {
        let c = &self.config;
        let row_trig = cell_trig(c.elevation_min, c.elevation_max, c.rows);
        let col_trig = cell_trig(c.azimuth_min, c.azimuth_max, c.cols);
        let cols = c.cols;
        for (row, &(cos_el, sin_el)) in row_trig.iter().enumerate() {
            let base = row * cols;
            for (col, &(cos_az, sin_az)) in col_trig.iter().enumerate() {
                let cell = self.cells[base + col];
                if cell.range > 0.0 {
                    let dir = Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el);
                    f(
                        base + col,
                        Point::new(dir * f64::from(cell.range), cell.reflectance),
                    );
                }
            }
        }
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.range > 0.0).count()
    }

    /// Fraction of cells holding a return.
    pub fn fill_ratio(&self) -> f64 {
        self.occupied_cells() as f64 / self.cells.len() as f64
    }

    /// Fills empty cells whose horizontal neighbours are both occupied
    /// with the mean of those neighbours — one pass of the densification
    /// SPOD applies to make sparse (16-beam) input usable by the detector.
    ///
    /// Returns the number of cells filled.
    ///
    /// A cell is filled only between two occupied cells, and occupied
    /// cells never change, so no decision reads a cell the pass has
    /// filled: the pass works in place and decides as it would on a copy
    /// of the image. The row wraps around (column 0's left neighbour is
    /// the last column); the walk carries the left cell and the row's
    /// first cell instead of wrapping an index.
    pub fn densify_pass(&mut self) -> usize {
        let mut filled = 0;
        for row in self.cells.chunks_exact_mut(self.config.cols) {
            let first = row[0];
            let mut left = row[row.len() - 1];
            for col in 0..row.len() {
                let here = row[col];
                let right = row.get(col + 1).copied().unwrap_or(first);
                // A NaN range fails `> 0.0`, so such a cell counts as empty.
                let occupied = here.range > 0.0;
                if !occupied && left.range > 0.0 && right.range > 0.0 {
                    // Only interpolate across small gaps on the same
                    // surface; a large range discontinuity is a real edge.
                    if (left.range - right.range).abs() < 0.5 {
                        row[col] = Cell {
                            range: (left.range + right.range) * 0.5,
                            reflectance: (left.reflectance + right.reflectance) * 0.5,
                        };
                        filled += 1;
                    }
                }
                left = here;
            }
        }
        filled
    }

    /// Fills empty cells whose vertical neighbours (same column,
    /// adjacent rows) are both occupied at similar range — bridging the
    /// between-beam gaps that make 16-beam data hard to voxelize. With
    /// coarse beam tables the rows of one surface land several voxels
    /// apart; this pass restores the column continuity a denser unit
    /// would have measured.
    ///
    /// Returns the number of cells filled.
    ///
    /// As in [`RangeImage::densify_pass`], a cell is filled only between
    /// two occupied cells, which never change, so the pass works in place
    /// and decides as it would on a copy of the image.
    pub fn densify_vertical_pass(&mut self) -> usize {
        let cols = self.config.cols;
        let rows = self.config.rows;
        if rows < 3 {
            return 0;
        }
        let mut filled = 0;
        for row in 1..rows - 1 {
            let (lower, upper) = self.cells.split_at_mut(row * cols);
            let below_row = &lower[(row - 1) * cols..];
            let (current, above_row) = upper.split_at_mut(cols);
            for ((cell, below), above) in current.iter_mut().zip(below_row).zip(&*above_row) {
                // A NaN range fails `> 0.0`, so such a cell counts as empty.
                let occupied = cell.range > 0.0;
                if !occupied
                    && below.range > 0.0
                    && above.range > 0.0
                    && (below.range - above.range).abs() < 1.0
                {
                    *cell = Cell {
                        range: (below.range + above.range) * 0.5,
                        reflectance: (below.reflectance + above.reflectance) * 0.5,
                    };
                    filled += 1;
                }
            }
        }
        filled
    }

    /// Back-projects the image to a point cloud (cell-center directions
    /// scaled by stored ranges).
    pub fn to_cloud(&self) -> PointCloud {
        let mut cloud = PointCloud::with_capacity(self.occupied_cells());
        self.for_each_point(|_, point| cloud.push(point));
        cloud
    }
}

impl fmt::Display for RangeImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "range image {}x{} ({:.1}% filled)",
            self.config.rows,
            self.config.cols,
            self.fill_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RangeImageConfig {
        RangeImageConfig {
            rows: 4,
            cols: 16,
            elevation_min: (-0.3f64),
            elevation_max: 0.3,
            azimuth_min: -std::f64::consts::PI,
            azimuth_max: std::f64::consts::PI,
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = small_config();
        assert!(c.validate().is_ok());
        c.rows = 0;
        assert!(c.validate().is_err());
        let mut c2 = small_config();
        c2.elevation_max = c2.elevation_min;
        assert!(c2.validate().is_err());
        let mut c3 = small_config();
        c3.azimuth_max = c3.azimuth_min - 1.0;
        assert!(c3.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_finite_angles() {
        let mut nan_elevation = small_config();
        nan_elevation.elevation_min = f64::NAN;
        assert!(nan_elevation.validate().is_err());
        let mut infinite_azimuth = small_config();
        infinite_azimuth.azimuth_max = f64::INFINITY;
        assert!(infinite_azimuth.validate().is_err());
        let mut overflowing_span = small_config();
        overflowing_span.azimuth_min = -f64::MAX;
        overflowing_span.azimuth_max = f64::MAX;
        assert!(overflowing_span.validate().is_err());
    }

    /// The grids the fast path is checked on: both presets, a coarse one
    /// and one whose bin edges fall at no round angle.
    fn edge_configs() -> [RangeImageConfig; 4] {
        [
            RangeImageConfig::vlp16(),
            RangeImageConfig::hdl64(),
            small_config(),
            RangeImageConfig {
                rows: 7,
                cols: 333,
                elevation_min: -0.4,
                elevation_max: 0.25,
                azimuth_min: -1.2,
                azimuth_max: 2.3,
            },
        ]
    }

    fn assert_fast_cell_is_cell_of(c: &RangeImageConfig, p: Vec3) {
        let (az, el) = (c.azimuth_bins(), c.elevation_bins());
        assert_eq!(fast_cell_of(c, &az, &el, p), c.cell_of(p), "{p:?} on {c:?}");
    }

    #[test]
    fn fast_cell_matches_cell_of_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
            f64::MAX,
            -f64::MAX,
        ];
        for c in edge_configs() {
            for &x in &specials {
                for &y in &specials {
                    for &z in &specials {
                        assert_fast_cell_is_cell_of(&c, Vec3::new(x, y, z));
                    }
                }
            }
        }
        // A NaN elevation is row 0 to `cell_of`, never "outside".
        let c = RangeImageConfig::vlp16();
        assert_eq!(c.cell_of(Vec3::new(0.0, 1.0, f64::NAN)), Some((0, 675)));
        assert_fast_cell_is_cell_of(&c, Vec3::new(0.0, 1.0, f64::NAN));
    }

    #[test]
    fn fast_cell_matches_cell_of_beside_every_edge() {
        let offsets = [
            0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9,
        ];
        for c in edge_configs() {
            let az_edge = |k: usize| {
                c.azimuth_min + k as f64 / c.cols as f64 * (c.azimuth_max - c.azimuth_min)
            };
            let el_edge = |k: usize| {
                c.elevation_min + k as f64 / c.rows as f64 * (c.elevation_max - c.elevation_min)
            };
            let mid_el = 0.5 * (c.elevation_min + c.elevation_max);
            let mid_az = 0.5 * (c.azimuth_min + c.azimuth_max);
            for r in [1e-3, 1.0, 37.0, 1e5] {
                let point = |el: f64, az: f64| {
                    Vec3::new(el.cos() * az.cos(), el.cos() * az.sin(), el.sin()) * r
                };
                for d in offsets {
                    for k in 0..=c.cols {
                        assert_fast_cell_is_cell_of(&c, point(mid_el + 0.01, az_edge(k) + d));
                    }
                    for k in 0..=c.rows {
                        assert_fast_cell_is_cell_of(&c, point(el_edge(k) + d, mid_az + 0.01));
                        for j in (0..=c.cols).step_by(c.cols / 8 + 1) {
                            assert_fast_cell_is_cell_of(&c, point(el_edge(k) + d, az_edge(j) + d));
                        }
                    }
                }
            }
        }
    }

    /// Both densification passes as they were: decisions read a copy of
    /// the row (horizontal, wrapping with `%`) or of the whole image
    /// (vertical) taken before the pass.
    fn snapshot_densify(img: &mut RangeImage) -> (usize, usize) {
        let (rows, cols) = (img.config.rows, img.config.cols);
        let mut horizontal = 0;
        for row in 0..rows {
            let base = row * cols;
            let snapshot: Vec<Cell> = img.cells[base..base + cols].to_vec();
            for col in 0..cols {
                if snapshot[col].range > 0.0 {
                    continue;
                }
                let left = snapshot[(col + cols - 1) % cols];
                let right = snapshot[(col + 1) % cols];
                if left.range > 0.0 && right.range > 0.0 && (left.range - right.range).abs() < 0.5 {
                    img.cells[base + col] = Cell {
                        range: (left.range + right.range) * 0.5,
                        reflectance: (left.reflectance + right.reflectance) * 0.5,
                    };
                    horizontal += 1;
                }
            }
        }
        let mut vertical = 0;
        let snapshot = img.cells.clone();
        for row in 1..rows.saturating_sub(1) {
            for col in 0..cols {
                if snapshot[row * cols + col].range > 0.0 {
                    continue;
                }
                let below = snapshot[(row - 1) * cols + col];
                let above = snapshot[(row + 1) * cols + col];
                if below.range > 0.0 && above.range > 0.0 && (below.range - above.range).abs() < 1.0
                {
                    img.cells[row * cols + col] = Cell {
                        range: (below.range + above.range) * 0.5,
                        reflectance: (below.reflectance + above.reflectance) * 0.5,
                    };
                    vertical += 1;
                }
            }
        }
        (horizontal, vertical)
    }

    #[test]
    fn in_place_densify_equals_snapshot_densify() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let shapes = [(1, 1), (1, 5), (2, 3), (3, 1), (5, 7), (16, 90)];
        for case in 0..400 {
            let (rows, cols) = shapes[case % shapes.len()];
            let config = RangeImageConfig {
                rows,
                cols,
                ..small_config()
            };
            // Dense, nearly flat ranges so that most gaps are bridged;
            // some NaN, infinite and negative ranges.
            let cells = (0..rows * cols)
                .map(|_| {
                    let range = match rng.gen_range(0..20u32) {
                        0..=8 => 0.0,
                        9 => f32::NAN,
                        10 => f32::INFINITY,
                        11 => -1.0,
                        _ => 10.0 + rng.gen_range(-0.6..0.6f32),
                    };
                    Cell {
                        range,
                        reflectance: rng.gen_range(0.0..1.0),
                    }
                })
                .collect();
            let mut fast = RangeImage { config, cells };
            let mut reference = fast.clone();
            for _ in 0..2 {
                let counts = (fast.densify_pass(), fast.densify_vertical_pass());
                assert_eq!(counts, snapshot_densify(&mut reference), "case {case}");
                let bits = |img: &RangeImage| -> Vec<(u32, u32)> {
                    img.cells
                        .iter()
                        .map(|c| (c.range.to_bits(), c.reflectance.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&fast), bits(&reference), "case {case}");
            }
        }
    }

    #[test]
    fn projection_keeps_closest_return() {
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(Vec3::new(20.0, 0.0, 0.0), 0.1));
        cloud.push(Point::new(Vec3::new(10.0, 0.0, 0.0), 0.9));
        let img = RangeImage::project(&cloud, small_config());
        assert_eq!(img.occupied_cells(), 1);
        let back = img.to_cloud();
        assert!((back.as_slice()[0].position.norm() - 10.0).abs() < 1e-5);
        assert_eq!(back.as_slice()[0].reflectance, 0.9);
    }

    #[test]
    fn points_outside_fov_skipped() {
        let mut cloud = PointCloud::new();
        // Straight up: elevation π/2, far above max.
        cloud.push(Point::new(Vec3::new(0.0, 0.0, 10.0), 0.5));
        let img = RangeImage::project(&cloud, small_config());
        assert_eq!(img.occupied_cells(), 0);
    }

    #[test]
    fn origin_points_skipped() {
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(Vec3::ZERO, 0.5));
        let img = RangeImage::project(&cloud, small_config());
        assert_eq!(img.occupied_cells(), 0);
    }

    #[test]
    fn cell_round_trip_direction() {
        let c = small_config();
        for row in 0..c.rows {
            for col in 0..c.cols {
                let dir = c.direction_of(row, col);
                assert_eq!(c.cell_of(dir * 10.0), Some((row, col)));
            }
        }
    }

    #[test]
    fn densify_fills_single_gaps() {
        let c = small_config();
        let mut cloud = PointCloud::new();
        // Occupy two cells in the same row separated by one column.
        let d0 = c.direction_of(1, 4) * 10.0;
        let d2 = c.direction_of(1, 6) * 10.0;
        cloud.push(Point::new(d0, 0.5));
        cloud.push(Point::new(d2, 0.5));
        let mut img = RangeImage::project(&cloud, c);
        assert_eq!(img.occupied_cells(), 2);
        let filled = img.densify_pass();
        assert_eq!(filled, 1);
        assert!(img.range_at(1, 5).is_some());
        assert!((img.range_at(1, 5).unwrap() - 10.0).abs() < 1e-4);
    }

    #[test]
    fn densify_respects_depth_discontinuity() {
        let c = small_config();
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(c.direction_of(1, 4) * 5.0, 0.5));
        cloud.push(Point::new(c.direction_of(1, 6) * 50.0, 0.5));
        let mut img = RangeImage::project(&cloud, c);
        assert_eq!(img.densify_pass(), 0);
    }

    #[test]
    fn densify_vertical_fills_between_beam_rows() {
        let c = small_config();
        let mut cloud = PointCloud::new();
        // Same column, rows 0 and 2 at equal range: row 1 gets filled.
        cloud.push(Point::new(c.direction_of(0, 5) * 12.0, 0.4));
        cloud.push(Point::new(c.direction_of(2, 5) * 12.0, 0.6));
        let mut img = RangeImage::project(&cloud, c);
        assert_eq!(img.densify_vertical_pass(), 1);
        let p = img.point_at(1, 5).expect("filled");
        assert!((p.position.norm() - 12.0).abs() < 1e-4);
        assert!((p.reflectance - 0.5).abs() < 1e-6);
        // A large range discontinuity is a real edge: not filled.
        let mut cloud2 = PointCloud::new();
        cloud2.push(Point::new(c.direction_of(0, 5) * 5.0, 0.4));
        cloud2.push(Point::new(c.direction_of(2, 5) * 50.0, 0.6));
        let mut img2 = RangeImage::project(&cloud2, c);
        assert_eq!(img2.densify_vertical_pass(), 0);
    }

    #[test]
    fn for_each_point_matches_point_at_bitwise() {
        for c in [small_config(), RangeImageConfig::vlp16()] {
            let cloud: PointCloud = (0..c.cols)
                .step_by(3)
                .map(|col| {
                    let row = col % c.rows;
                    Point::new(c.direction_of(row, col) * (5.0 + col as f64 * 0.01), 0.3)
                })
                .collect();
            let img = RangeImage::project(&cloud, c);
            let occupancy = img.occupancy();
            let mut seen = 0;
            img.for_each_point(|index, point| {
                let (row, col) = (index / c.cols, index % c.cols);
                assert!(occupancy[index]);
                assert!(point.bits_eq(&img.point_at(row, col).unwrap()));
                seen += 1;
            });
            assert_eq!(seen, img.occupied_cells());
            assert_eq!(occupancy.iter().filter(|&&o| o).count(), seen);
        }
    }

    #[test]
    fn fill_ratio() {
        let c = small_config();
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(c.direction_of(0, 0) * 5.0, 0.5));
        let img = RangeImage::project(&cloud, c);
        assert!((img.fill_ratio() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn nan_point_does_not_claim_its_cell() {
        // (0, 1, NaN) bins to column 675 (+y) and, by its NaN elevation,
        // to row 0: the cell of the return that follows it.
        let c = RangeImageConfig::vlp16();
        let behind = c.direction_of(0, 675) * 10.0;
        assert_eq!(c.cell_of(Vec3::new(0.0, 1.0, f64::NAN)), Some((0, 675)));
        assert_eq!(c.cell_of(behind), Some((0, 675)));
        let mut cloud = PointCloud::new();
        cloud.push(Point::new(Vec3::new(0.0, 1.0, f64::NAN), 0.5));
        cloud.push(Point::new(behind, 0.5));
        let img = RangeImage::project(&cloud, c);
        assert_eq!(img.occupied_cells(), 1);
        let range = img.range_at(0, 675).expect("the return keeps its cell");
        assert!((range - 10.0).abs() < 1e-5, "range {range}");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_at_out_of_bounds_panics() {
        let img = RangeImage::project(&PointCloud::new(), small_config());
        let _ = img.range_at(10, 0);
    }

    #[test]
    fn presets_are_valid() {
        assert!(RangeImageConfig::vlp16().validate().is_ok());
        assert!(RangeImageConfig::hdl64().validate().is_ok());
        assert_eq!(RangeImageConfig::vlp16().rows, 16);
        assert_eq!(RangeImageConfig::hdl64().rows, 64);
    }
}
