//! Sparse 3-D feature tensors.

use std::fmt;

use cooper_pointcloud::VoxelCoord;

/// A sparse rank-3 feature tensor: a feature vector per active voxel
/// coordinate.
///
/// This is the representation flowing through SPOD's middle layers. Only
/// active (occupied) sites are stored; LiDAR grids are typically < 1 %
/// occupied, which is exactly the sparsity the sparse convolution engine
/// exploits.
///
/// Storage is structure-of-arrays: a sorted coordinate array plus one
/// flat `f32` buffer with `channels` values per site. The sorted order
/// keeps every downstream float accumulation deterministic, and the flat
/// layout lets the convolution and BEV stages stream features without
/// per-site pointer chasing.
///
/// # Examples
///
/// ```
/// use cooper_pointcloud::VoxelCoord;
/// use cooper_spod::SparseTensor3;
///
/// let mut t = SparseTensor3::new(4);
/// t.set(VoxelCoord::new(1, 2, 3), vec![1.0, 0.0, 0.0, 0.5]);
/// assert_eq!(t.active_sites(), 1);
/// assert_eq!(t.get(VoxelCoord::new(1, 2, 3)).unwrap()[3], 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor3 {
    channels: usize,
    /// Active coordinates in ascending order.
    coords: Vec<VoxelCoord>,
    /// Flat feature storage, `channels` values per coordinate.
    features: Vec<f32>,
}

impl SparseTensor3 {
    /// Creates an empty tensor with `channels` features per site.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        SparseTensor3 {
            channels,
            coords: Vec::new(),
            features: Vec::new(),
        }
    }

    /// Builds a tensor directly from its SoA parts: `coords` must be
    /// strictly ascending and `features` must hold `channels` values per
    /// coordinate. This is the bulk constructor the parallel VFE and
    /// convolution stages use — no per-site insertion cost.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero, the buffer length does not match,
    /// or the coordinates are not strictly ascending.
    pub fn from_sorted_parts(channels: usize, coords: Vec<VoxelCoord>, features: Vec<f32>) -> Self {
        assert!(channels > 0, "channel count must be positive");
        assert_eq!(
            features.len(),
            coords.len() * channels,
            "feature buffer length mismatch"
        );
        assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "coordinates must be strictly ascending"
        );
        SparseTensor3 {
            channels,
            coords,
            features,
        }
    }

    /// Features per site.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of active sites.
    pub fn active_sites(&self) -> usize {
        self.coords.len()
    }

    /// `true` when no site is active.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Sets the feature vector at a site, inserting it in sorted
    /// position or overwriting an existing one. This is the convenience
    /// path for tests and small constructions; bulk builders should use
    /// [`SparseTensor3::from_sorted_parts`].
    ///
    /// # Panics
    ///
    /// Panics when `features.len() != self.channels()`.
    pub fn set(&mut self, coord: VoxelCoord, features: Vec<f32>) {
        assert_eq!(
            features.len(),
            self.channels,
            "feature length mismatch at {coord}"
        );
        match self.coords.binary_search(&coord) {
            Ok(i) => {
                self.features[i * self.channels..(i + 1) * self.channels]
                    .copy_from_slice(&features);
            }
            Err(i) => {
                self.coords.insert(i, coord);
                // Splice the new site's features into the flat buffer.
                let at = i * self.channels;
                self.features.splice(at..at, features);
            }
        }
    }

    /// The feature vector at a site, or `None` when inactive.
    pub fn get(&self, coord: VoxelCoord) -> Option<&[f32]> {
        self.coords
            .binary_search(&coord)
            .ok()
            .map(|i| &self.features[i * self.channels..(i + 1) * self.channels])
    }

    /// The feature slice of the site at `index` (sites are in ascending
    /// coordinate order).
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.active_sites()`.
    pub fn feature_at(&self, index: usize) -> &[f32] {
        &self.features[index * self.channels..(index + 1) * self.channels]
    }

    /// Iterates over `(coordinate, features)` in ascending coordinate
    /// order. The fixed order keeps every downstream float accumulation
    /// deterministic run to run.
    pub fn iter(&self) -> impl Iterator<Item = (&VoxelCoord, &[f32])> {
        self.coords
            .iter()
            .zip(self.features.chunks_exact(self.channels))
    }

    /// The active coordinates, in ascending order.
    pub fn coords(&self) -> impl Iterator<Item = &VoxelCoord> {
        self.coords.iter()
    }

    /// The active coordinates as a slice (ascending order) — the SoA
    /// access path for stages that index sites in parallel.
    pub fn coord_slice(&self) -> &[VoxelCoord] {
        &self.coords
    }

    /// The flat feature buffer (`channels` values per coordinate, in
    /// coordinate order).
    pub fn feature_slice(&self) -> &[f32] {
        &self.features
    }
}

impl fmt::Display for SparseTensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sparse tensor ({} sites × {} channels)",
            self.coords.len(),
            self.channels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_iter() {
        let mut t = SparseTensor3::new(2);
        assert!(t.is_empty());
        t.set(VoxelCoord::new(5, 5, 5), vec![3.0, 4.0]);
        t.set(VoxelCoord::new(0, 0, 0), vec![1.0, -2.0]);
        assert_eq!(t.active_sites(), 2);
        assert_eq!(t.get(VoxelCoord::new(0, 0, 0)), Some(&[1.0, -2.0][..]));
        assert_eq!(t.get(VoxelCoord::new(9, 9, 9)), None);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.coords().count(), 2);
        // Out-of-order insertion still yields ascending iteration.
        let order: Vec<_> = t.coords().copied().collect();
        assert_eq!(
            order,
            vec![VoxelCoord::new(0, 0, 0), VoxelCoord::new(5, 5, 5)]
        );
        assert_eq!(t.feature_at(0), &[1.0, -2.0][..]);
        assert_eq!(t.feature_slice(), &[1.0, -2.0, 3.0, 4.0][..]);
    }

    #[test]
    fn set_overwrites() {
        let mut t = SparseTensor3::new(1);
        t.set(VoxelCoord::new(0, 0, 0), vec![1.0]);
        t.set(VoxelCoord::new(0, 0, 0), vec![2.0]);
        assert_eq!(t.active_sites(), 1);
        assert_eq!(t.get(VoxelCoord::new(0, 0, 0)), Some(&[2.0][..]));
    }

    #[test]
    fn from_sorted_parts_round_trip() {
        let coords = vec![VoxelCoord::new(0, 0, 0), VoxelCoord::new(0, 0, 2)];
        let t = SparseTensor3::from_sorted_parts(2, coords, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.active_sites(), 2);
        assert_eq!(t.get(VoxelCoord::new(0, 0, 2)), Some(&[3.0, 4.0][..]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_unsorted_parts_panics() {
        let coords = vec![VoxelCoord::new(1, 0, 0), VoxelCoord::new(0, 0, 0)];
        let _ = SparseTensor3::from_sorted_parts(1, coords, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn wrong_feature_length_panics() {
        let mut t = SparseTensor3::new(3);
        t.set(VoxelCoord::new(0, 0, 0), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_channels_panics() {
        let _ = SparseTensor3::new(0);
    }

    #[test]
    fn display_counts() {
        let t = SparseTensor3::new(4);
        assert!(format!("{t}").contains("0 sites"));
    }
}
