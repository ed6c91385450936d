//! Bird's-eye-view collapse of the sparse 3-D feature tensor.
//!
//! SECOND-style detectors collapse the z axis after the sparse middle
//! layers and run the 2-D region proposal network on the resulting BEV
//! feature map. The collapse here max-pools features over z per `(x, y)`
//! column and stays sparse: only columns with at least one active voxel
//! exist.

use cooper_pointcloud::FeatureFrame;
use serde::{Deserialize, Serialize};

use crate::tensor::SparseTensor3;

/// Number of vertical-structure channels appended to every collapsed
/// column (occupied-level count, column height span, column base level).
///
/// Max pooling alone cannot distinguish a ground-only column (one
/// occupied z level) from an object column (several stacked levels);
/// these channels restore that signal, which is what separates road
/// surface from vehicles in the RPN.
pub const Z_STRUCTURE_CHANNELS: usize = 3;

/// A sparse BEV feature map: one feature vector per active `(x, y)`
/// column. Each vector is the per-channel max over z of the input tensor
/// followed by [`Z_STRUCTURE_CHANNELS`] vertical-structure statistics.
///
/// Storage is structure-of-arrays: a sorted `(x, y)` cell array plus a
/// flat feature buffer. Window extraction range-scans one contiguous
/// cell run per window column instead of probing a map per cell.
///
/// # Examples
///
/// ```
/// use cooper_pointcloud::VoxelCoord;
/// use cooper_spod::bev::BevMap;
/// use cooper_spod::SparseTensor3;
///
/// let mut t = SparseTensor3::new(2);
/// t.set(VoxelCoord::new(3, 4, 0), vec![1.0, 0.0]);
/// t.set(VoxelCoord::new(3, 4, 1), vec![0.5, 2.0]);
/// let bev = BevMap::collapse(&t);
/// assert_eq!(bev.active_cells(), 1);
/// assert_eq!(bev.channels(), 2 + cooper_spod::bev::Z_STRUCTURE_CHANNELS);
/// assert_eq!(&bev.get(3, 4).unwrap()[..2], &[1.0, 2.0][..]); // per-channel max
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BevMap {
    channels: usize,
    /// Active cells in ascending `(x, y)` order.
    cells: Vec<(i32, i32)>,
    /// Flat feature storage, `channels` values per cell.
    features: Vec<f32>,
}

/// Normalizer for z-structure statistics: a column taller than this many
/// voxels saturates.
const Z_NORM: f32 = 8.0;

impl BevMap {
    /// Collapses a sparse 3-D tensor over z: per-channel max pooling plus
    /// the vertical-structure channels.
    ///
    /// The tensor's sites are sorted by `(x, y, z)`, so every `(x, y)`
    /// column is one contiguous run — the collapse is a single linear
    /// pass, and z ascends within each run (the run's first site is the
    /// column base, the last its top).
    pub fn collapse(tensor: &SparseTensor3) -> Self {
        let in_channels = tensor.channels();
        let channels = in_channels + Z_STRUCTURE_CHANNELS;
        let sites = tensor.coord_slice();
        let mut cells: Vec<(i32, i32)> = Vec::new();
        let mut features: Vec<f32> = Vec::new();
        let mut run = 0;
        while run < sites.len() {
            let cell = (sites[run].x, sites[run].y);
            let mut end = run + 1;
            while end < sites.len() && (sites[end].x, sites[end].y) == cell {
                end += 1;
            }
            let base = features.len();
            features.extend(std::iter::repeat_n(f32::NEG_INFINITY, in_channels));
            for site in run..end {
                for (c, f) in features[base..].iter_mut().zip(tensor.feature_at(site)) {
                    *c = c.max(*f);
                }
            }
            for v in features[base..].iter_mut() {
                if !v.is_finite() {
                    *v = 0.0;
                }
            }
            let levels = (end - run) as u32;
            let z_min = sites[run].z;
            let z_max = sites[end - 1].z;
            features.push((levels as f32 / Z_NORM).min(1.0));
            features.push(((z_max - z_min + 1) as f32 / Z_NORM).min(1.0));
            features.push((z_min as f32 / Z_NORM).clamp(-1.0, 1.0));
            cells.push(cell);
            run = end;
        }
        BevMap {
            channels,
            cells,
            features,
        }
    }

    /// Builds a map directly from its parts, sorting cells and
    /// max-merging duplicates — the constructor for maps that did not
    /// come out of [`BevMap::collapse`]: wire-decoded feature frames and
    /// re-binned (transformed) maps, whose cells may arrive in any order
    /// and may collide.
    ///
    /// Duplicate cells merge by per-channel max, matching the collapse
    /// semantics (and the F-Cooper fusion rule), so the result is
    /// independent of input order.
    ///
    /// # Panics
    ///
    /// Panics when `features.len() != cells.len() * channels`.
    pub fn from_parts(channels: usize, cells: Vec<(i32, i32)>, features: Vec<f32>) -> Self {
        assert_eq!(
            features.len(),
            cells.len() * channels,
            "feature storage must hold `channels` values per cell"
        );
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_unstable_by_key(|&i| cells[i]);
        let mut out_cells: Vec<(i32, i32)> = Vec::with_capacity(cells.len());
        let mut out_features: Vec<f32> = Vec::with_capacity(features.len());
        for &i in &order {
            let row = &features[i * channels..(i + 1) * channels];
            if out_cells.last() == Some(&cells[i]) {
                let base = out_features.len() - channels;
                for (acc, &v) in out_features[base..].iter_mut().zip(row) {
                    *acc = acc.max(v);
                }
            } else {
                out_cells.push(cells[i]);
                out_features.extend_from_slice(row);
            }
        }
        BevMap {
            channels,
            cells: out_cells,
            features: out_features,
        }
    }

    /// Converts the map into the codec's wire-interchange form for v3
    /// feature frames (a straight copy — the layouts match by design).
    pub fn to_feature_frame(&self) -> FeatureFrame {
        FeatureFrame::new(self.channels, self.cells.clone(), self.features.clone())
    }

    /// Rebuilds a map from a wire-decoded feature frame. Wire frames
    /// are sorted by construction, but salvaged or foreign frames get
    /// the same defensive sort-and-merge as [`BevMap::from_parts`].
    pub fn from_feature_frame(frame: &FeatureFrame) -> Self {
        BevMap::from_parts(
            frame.channels(),
            frame.cells().to_vec(),
            frame.features().to_vec(),
        )
    }

    /// Features per cell.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of active columns.
    pub fn active_cells(&self) -> usize {
        self.cells.len()
    }

    /// The feature vector of column `(x, y)`, or `None` when inactive.
    pub fn get(&self, x: i32, y: i32) -> Option<&[f32]> {
        self.cells
            .binary_search(&(x, y))
            .ok()
            .map(|i| &self.features[i * self.channels..(i + 1) * self.channels])
    }

    /// Iterates over active `((x, y), features)` pairs in ascending
    /// `(x, y)` order, so consumers that accumulate or tie-break over
    /// cells behave identically run to run.
    pub fn iter(&self) -> impl Iterator<Item = (&(i32, i32), &[f32])> {
        self.cells
            .iter()
            .zip(self.features.chunks_exact(self.channels))
    }

    /// The active cells as a slice (ascending `(x, y)` order) — the SoA
    /// access path for stages that chunk cells across workers.
    pub fn cell_slice(&self) -> &[(i32, i32)] {
        &self.cells
    }

    /// The feature slice of the cell at `index` (cells are in ascending
    /// order).
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.active_cells()`.
    pub fn feature_at(&self, index: usize) -> &[f32] {
        &self.features[index * self.channels..(index + 1) * self.channels]
    }

    /// Concatenated features of the `(2·radius+1)²` window centered at
    /// `(x, y)`, zero-filled at inactive cells. Length is
    /// `(2·radius+1)² * channels`.
    ///
    /// This window is what the RPN head consumes per anchor position —
    /// the receptive field of the SSD head. It must be wide enough to
    /// cover the largest anchor (a car is ~9 cells long at 0.5 m
    /// resolution), otherwise box regression cannot see where the object
    /// ends.
    pub fn window_features(&self, x: i32, y: i32, radius: i32) -> Vec<f32> {
        let mut out = Vec::new();
        self.window_features_into(x, y, radius, &mut out);
        out
    }

    /// [`BevMap::window_features`] writing into a reusable buffer. The
    /// buffer is cleared and refilled; layout matches `window_features`
    /// exactly (dy outer, dx inner). Scanning many windows in ascending
    /// cell order is cheaper through one [`WindowWalker`].
    pub fn window_features_into(&self, x: i32, y: i32, radius: i32, out: &mut Vec<f32>) {
        let mut walker = WindowWalker::new(radius);
        walker.visit(self, x, y);
        walker.fill_window(self, out);
    }
}

/// Finds the active cells of successive RPN windows over one
/// [`BevMap`] without searching.
///
/// Cells sort by `(x, y)`, so each window column `x + dx` is one
/// contiguous cell run starting at the first cell not below `(x + dx,
/// y − radius)`. That key only grows as the window centre moves up in
/// `(x, y)` order, so the walker keeps one cursor per window column and
/// only advances it. A centre below the previous one (or the first
/// centre) seeds the cursors by binary search instead. Each run marks
/// its blocks in a bitset of `side²` bits, which yields the blocks in
/// layout order.
///
/// # Examples
///
/// ```
/// use cooper_pointcloud::VoxelCoord;
/// use cooper_spod::bev::{BevMap, WindowWalker};
/// use cooper_spod::SparseTensor3;
///
/// let mut t = SparseTensor3::new(1);
/// t.set(VoxelCoord::new(0, 0, 0), vec![1.0]);
/// t.set(VoxelCoord::new(1, 0, 0), vec![2.0]);
/// let bev = BevMap::collapse(&t);
/// let mut walker = WindowWalker::new(1);
/// walker.visit(&bev, 0, 0);
/// // (block, cell index): the centre block is 4, its right neighbour 5.
/// assert_eq!(walker.blocks(), &[(4, 0), (5, 1)][..]);
/// ```
#[derive(Debug, Clone)]
pub struct WindowWalker {
    radius: i32,
    /// The last visited centre; `None` until the first visit.
    centre: Option<(i32, i32)>,
    /// Per window column: first cell index not below `(x + dx, y − r)`.
    starts: Vec<usize>,
    /// One bit per block of the current window, set when the block's
    /// cell is active.
    occupied: Vec<u64>,
    /// Per block: the active cell's index, valid where `occupied` is set.
    slots: Vec<usize>,
    /// `(block, cell index)` of each active cell in the current window,
    /// in window layout order (block = `dy_idx · side + dx_idx`).
    blocks: Vec<(usize, usize)>,
}

impl WindowWalker {
    /// A walker for windows of side `2·radius + 1`.
    pub fn new(radius: i32) -> Self {
        let side = (2 * radius + 1) as usize;
        WindowWalker {
            radius,
            centre: None,
            starts: vec![0; side],
            occupied: vec![0; (side * side).div_ceil(64)],
            slots: vec![0; side * side],
            blocks: Vec::with_capacity(side * side),
        }
    }

    fn side(&self) -> usize {
        self.starts.len()
    }

    /// Moves to the window centred at `(x, y)` and collects its active
    /// cells, read back through [`WindowWalker::blocks`].
    pub fn visit(&mut self, bev: &BevMap, x: i32, y: i32) {
        let radius = self.radius;
        let side = self.side();
        let cells = &bev.cells;
        let reseed = self.centre.is_none_or(|last| (x, y) < last);
        self.centre = Some((x, y));
        self.occupied.fill(0);
        for (dx_idx, dx) in (-radius..=radius).enumerate() {
            let key = (x + dx, y - radius);
            let mut start = if reseed {
                cells.partition_point(|&c| c < key)
            } else {
                self.starts[dx_idx]
            };
            while start < cells.len() && cells[start] < key {
                start += 1;
            }
            self.starts[dx_idx] = start;
            let mut i = start;
            while i < cells.len() && cells[i].0 == key.0 && cells[i].1 <= y + radius {
                let block = (cells[i].1 - key.1) as usize * side + dx_idx;
                self.occupied[block / 64] |= 1 << (block % 64);
                self.slots[block] = i;
                i += 1;
            }
        }
        // Emit the marked blocks in ascending order: layout order.
        self.blocks.clear();
        for (word_idx, &word) in self.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let block = word_idx * 64 + bits.trailing_zeros() as usize;
                self.blocks.push((block, self.slots[block]));
                bits &= bits - 1;
            }
        }
    }

    /// The current window's active cells as `(block, cell index)` pairs
    /// in layout order (dy outer, dx inner); blocks absent from the list
    /// are all-zero in the dense window.
    pub fn blocks(&self) -> &[(usize, usize)] {
        &self.blocks
    }

    /// Writes the current window's dense features into `out` — what
    /// [`BevMap::window_features`] returns for the visited centre.
    pub fn fill_window(&self, bev: &BevMap, out: &mut Vec<f32>) {
        let channels = bev.channels;
        let side = self.side();
        out.clear();
        out.resize(side * side * channels, 0.0);
        for &(block, cell) in &self.blocks {
            out[block * channels..(block + 1) * channels].copy_from_slice(bev.feature_at(cell));
        }
    }
}

impl std::fmt::Display for BevMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BEV map ({} cells × {} channels)",
            self.cells.len(),
            self.channels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_pointcloud::VoxelCoord;

    #[test]
    fn collapse_max_pools_over_z() {
        let mut t = SparseTensor3::new(3);
        t.set(VoxelCoord::new(0, 0, 0), vec![1.0, 5.0, 0.0]);
        t.set(VoxelCoord::new(0, 0, 3), vec![2.0, 1.0, 0.5]);
        t.set(VoxelCoord::new(1, 0, 0), vec![9.0, 9.0, 9.0]);
        let bev = BevMap::collapse(&t);
        assert_eq!(bev.active_cells(), 2);
        assert_eq!(&bev.get(0, 0).unwrap()[..3], &[2.0, 5.0, 0.5][..]);
        assert_eq!(&bev.get(1, 0).unwrap()[..3], &[9.0, 9.0, 9.0][..]);
        assert_eq!(bev.get(5, 5), None);
    }

    #[test]
    fn z_structure_channels_distinguish_columns() {
        let mut t = SparseTensor3::new(1);
        // Ground-only column: one occupied level.
        t.set(VoxelCoord::new(0, 0, 0), vec![1.0]);
        // Object column: three stacked levels.
        t.set(VoxelCoord::new(1, 0, 0), vec![1.0]);
        t.set(VoxelCoord::new(1, 0, 1), vec![1.0]);
        t.set(VoxelCoord::new(1, 0, 2), vec![1.0]);
        let bev = BevMap::collapse(&t);
        let ground = bev.get(0, 0).unwrap();
        let object = bev.get(1, 0).unwrap();
        // Level count channel (index 1 = channels() - 3).
        assert!(object[1] > ground[1]);
        // Height span channel.
        assert!(object[2] > ground[2]);
        // Base level matches.
        assert_eq!(object[3], ground[3]);
    }

    #[test]
    fn window_features_layout() {
        let mut t = SparseTensor3::new(1);
        t.set(VoxelCoord::new(0, 0, 0), vec![1.0]);
        t.set(VoxelCoord::new(1, 0, 0), vec![2.0]);
        let bev = BevMap::collapse(&t);
        let c = bev.channels();
        let w = bev.window_features(0, 0, 1);
        assert_eq!(w.len(), 9 * c);
        // Row-major (dy outer, dx inner): center block starts at 4·c,
        // right-neighbour block at 5·c.
        assert_eq!(w[4 * c], 1.0);
        assert_eq!(w[5 * c], 2.0);
        // A wider radius widens the vector accordingly.
        assert_eq!(bev.window_features(0, 0, 3).len(), 49 * c);
    }

    #[test]
    fn window_into_reuses_buffer_and_matches() {
        let mut t = SparseTensor3::new(2);
        t.set(VoxelCoord::new(0, -1, 0), vec![1.0, -1.0]);
        t.set(VoxelCoord::new(2, 3, 1), vec![0.5, 0.25]);
        t.set(VoxelCoord::new(-1, 2, 0), vec![4.0, 2.0]);
        let bev = BevMap::collapse(&t);
        let mut buf = vec![9.0; 3]; // stale contents must be discarded
        for (x, y) in [(0, 0), (2, 3), (-1, 2), (10, 10)] {
            for radius in [1, 2, 3] {
                bev.window_features_into(x, y, radius, &mut buf);
                assert_eq!(
                    buf,
                    bev.window_features(x, y, radius),
                    "at ({x},{y}) r{radius}"
                );
            }
        }
    }

    #[test]
    fn window_on_inactive_cell_is_zero_padded() {
        let bev = BevMap::collapse(&SparseTensor3::new(2));
        let w = bev.window_features(10, 10, 1);
        assert_eq!(w.len(), 9 * (2 + Z_STRUCTURE_CHANNELS));
        assert!(w.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn display_counts() {
        let bev = BevMap::collapse(&SparseTensor3::new(4));
        assert!(format!("{bev}").contains("0 cells"));
    }
}
