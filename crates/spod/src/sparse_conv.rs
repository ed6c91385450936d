//! Submanifold sparse 3-D convolution — SPOD's middle layers.
//!
//! "Then a sparse convolutional middle layer is applied. Sparse CNN
//! offers computational benefits in LiDAR-based detection because the
//! grouping step for point clouds will generate a large number of sparse
//! voxels. In this approach, output points are not computed if there is
//! no related input points" (§III-C).
//!
//! The implementation follows the rulebook formulation used by
//! SECOND/SparseConvNet: for every *active* output site (submanifold
//! convolution keeps the active set identical to the input's) gather the
//! active neighbours within the kernel window and accumulate
//! `W[offset] · features`. Empty neighbourhood positions contribute
//! nothing, so cost scales with the number of active sites — not the
//! grid volume.

use cooper_exec::Executor;
use cooper_pointcloud::VoxelCoord;
use serde::{Deserialize, Serialize};

use crate::nn::relu_in_place;
use crate::tensor::SparseTensor3;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sites per parallel chunk when building rulebooks and running the
/// convolution. Fixed (never derived from the thread count) so chunk
/// boundaries — and thus float accumulation grouping — are identical at
/// any parallelism.
const CONV_CHUNK_SITES: usize = 1024;

/// Outputs summed side by side: one lane each, eight to a row, so the
/// compiler can keep a row's sums in vector registers. Lanes never mix,
/// so each output's sum is the same scalar chain it would be alone.
const LANES: usize = 8;
type Lanes = [f32; LANES];

/// A layer's weights regrouped for [`SparseConv3::forward_with`]: output
/// lane rows of eight, `[lane row][tap][input]`, so a row's weights for
/// one tap are one contiguous slice. Padding lanes hold zero weights and
/// bias and are never read back.
struct LaneKernel {
    /// `rows × 27 × in_channels`.
    weights: Vec<Lanes>,
    /// One per lane row.
    bias: Vec<Lanes>,
}

impl LaneKernel {
    fn new(layer: &SparseConv3) -> Self {
        let (in_c, out_c) = (layer.in_channels, layer.out_channels);
        let rows = out_c.div_ceil(LANES);
        let mut weights = vec![[0.0; LANES]; rows * 27 * in_c];
        for (k, tap) in layer.kernel.iter().enumerate() {
            for (o, row) in tap.chunks_exact(in_c).enumerate() {
                for (i, &w) in row.iter().enumerate() {
                    weights[(o / LANES * 27 + k) * in_c + i][o % LANES] = w;
                }
            }
        }
        let mut bias = vec![[0.0; LANES]; rows];
        for (o, &b) in layer.bias.iter().enumerate() {
            bias[o / LANES][o % LANES] = b;
        }
        LaneKernel { weights, bias }
    }
}

/// A 3×3×3 submanifold sparse convolution layer with ReLU.
///
/// # Examples
///
/// ```
/// use cooper_pointcloud::VoxelCoord;
/// use cooper_spod::sparse_conv::SparseConv3;
/// use cooper_spod::SparseTensor3;
///
/// let layer = SparseConv3::seeded(2, 4, 11);
/// let mut input = SparseTensor3::new(2);
/// input.set(VoxelCoord::new(0, 0, 0), vec![1.0, 0.5]);
/// let out = layer.forward(&input);
/// assert_eq!(out.active_sites(), 1); // submanifold: same active set
/// assert_eq!(out.channels(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseConv3 {
    in_channels: usize,
    out_channels: usize,
    /// Kernel weights indexed `[offset][out][in]` where `offset` encodes
    /// the 27 positions of the 3×3×3 window.
    kernel: Vec<Vec<f32>>,
    bias: Vec<f32>,
}

/// The 27 kernel offsets in a fixed order.
fn kernel_offsets() -> impl Iterator<Item = (i32, i32, i32)> {
    (-1..=1).flat_map(|dz| (-1..=1).flat_map(move |dy| (-1..=1).map(move |dx| (dx, dy, dz))))
}

/// A neighbour-index table ("rulebook") for submanifold convolution over
/// a fixed active set: for every site, the flat index of each of its 27
/// kernel neighbours in the sorted coordinate array, or `-1` when that
/// neighbour is inactive.
///
/// Submanifold convolutions never change the active set, so one rulebook
/// built from the VFE output serves *every* conv layer in the stack —
/// the detector builds it once per featurize and reuses it as a scratch
/// arena across frames (the backing `Vec` keeps its capacity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvRulebook {
    site_count: usize,
    /// `site_count × 27` neighbour indices in [`kernel_offsets`] order.
    neighbors: Vec<i32>,
}

impl ConvRulebook {
    /// An empty rulebook (zero sites) — the reusable-arena starting
    /// state.
    pub fn new() -> Self {
        ConvRulebook::default()
    }

    /// Number of sites the table covers.
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// The `site_count × 27` neighbour indices, site-major, taps in
    /// kernel-offset order (`dz` outer, then `dy`, then `dx`, each
    /// `-1..=1`); `-1` marks an inactive neighbour.
    pub fn neighbor_table(&self) -> &[i32] {
        &self.neighbors
    }

    /// Builds a rulebook for a sorted active set.
    pub fn build(coords: &[VoxelCoord], executor: &Executor) -> Self {
        let mut rulebook = ConvRulebook::new();
        rulebook.rebuild(coords, executor);
        rulebook
    }

    /// Rebuilds the table in place for a (sorted) active set, reusing
    /// the backing allocation, chunk-parallel across `executor`.
    ///
    /// Translating a coordinate preserves `(x, y, z)` order, so as a
    /// chunk walks its sites in order, every neighbour target moves
    /// forward through `coords`. Each chunk keeps one cursor per `(dx,
    /// dy)` neighbour column, seeded by one binary search at the chunk's
    /// first site and then only advanced; the column's three `dz`
    /// targets are consecutive in sort order, so they are matched at the
    /// cursor. The table holds the same indices a binary search per
    /// target would find.
    pub fn rebuild(&mut self, coords: &[VoxelCoord], executor: &Executor) {
        let parts = executor.map_chunks(coords, CONV_CHUNK_SITES, |_, chunk| {
            let mut table = Vec::with_capacity(chunk.len() * 27);
            // Neighbour column `(dy + 1) * 3 + (dx + 1)` of `c`, at `c.z + dz`.
            let target = |c: &VoxelCoord, column: usize, dz: i32| {
                let (dx, dy) = (column as i32 % 3 - 1, column as i32 / 3 - 1);
                VoxelCoord::new(c.x + dx, c.y + dy, c.z + dz)
            };
            let mut cursors = [0usize; 9];
            if let Some(first) = chunk.first() {
                for (column, cursor) in cursors.iter_mut().enumerate() {
                    let lowest = target(first, column, -1);
                    *cursor = coords.partition_point(|c| *c < lowest);
                }
            }
            for coord in chunk {
                let mut taps = [-1i32; 27];
                for (column, cursor) in cursors.iter_mut().enumerate() {
                    let lowest = target(coord, column, -1);
                    let mut i = *cursor;
                    while i < coords.len() && coords[i] < lowest {
                        i += 1;
                    }
                    *cursor = i;
                    // The column's targets at dz = -1, 0, 1 are adjacent
                    // in sort order: a match moves past one site, a miss
                    // leaves `i` at the first site beyond the target.
                    for (dz_idx, dz) in (-1..=1).enumerate() {
                        if i < coords.len() && coords[i] == target(coord, column, dz) {
                            taps[dz_idx * 9 + column] = i as i32;
                            i += 1;
                        }
                    }
                }
                table.extend_from_slice(&taps);
            }
            table
        });
        self.neighbors.clear();
        self.neighbors.reserve(coords.len() * 27);
        for part in parts {
            self.neighbors.extend_from_slice(&part);
        }
        self.site_count = coords.len();
    }
}

impl SparseConv3 {
    /// Creates a layer with deterministic seeded weights scaled for a
    /// 27-tap kernel.
    ///
    /// # Panics
    ///
    /// Panics if either channel count is zero.
    pub fn seeded(in_channels: usize, out_channels: usize, seed: u64) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * 27) as f64;
        let bound = (3.0 / fan_in).sqrt() as f32;
        let kernel = (0..27)
            .map(|_| {
                (0..in_channels * out_channels)
                    .map(|_| rng.gen_range(-bound..bound))
                    .collect()
            })
            .collect();
        SparseConv3 {
            in_channels,
            out_channels,
            kernel,
            bias: vec![0.0; out_channels],
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The 27 kernel taps, each `out_channels × in_channels` row-major.
    pub fn kernel_taps(&self) -> &[Vec<f32>] {
        &self.kernel
    }

    /// The bias vector.
    pub fn bias_values(&self) -> &[f32] {
        &self.bias
    }

    /// Reconstructs a layer from raw parameters (weight-file loading).
    ///
    /// # Panics
    ///
    /// Panics when the parameter shapes do not match the dimensions.
    pub fn from_parameters(
        in_channels: usize,
        out_channels: usize,
        kernel: Vec<Vec<f32>>,
        bias: Vec<f32>,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be positive"
        );
        assert_eq!(kernel.len(), 27, "kernel must have 27 taps");
        assert!(
            kernel.iter().all(|t| t.len() == in_channels * out_channels),
            "kernel tap size mismatch"
        );
        assert_eq!(bias.len(), out_channels, "bias length mismatch");
        SparseConv3 {
            in_channels,
            out_channels,
            kernel,
            bias,
        }
    }

    /// Applies the convolution followed by ReLU.
    ///
    /// Submanifold semantics: the output active set equals the input
    /// active set, which prevents the "dilation" of the sparse pattern
    /// that ordinary convolutions cause (the key trick from SECOND's
    /// middle layers).
    ///
    /// # Panics
    ///
    /// Panics when `input.channels() != self.in_channels()`.
    pub fn forward(&self, input: &SparseTensor3) -> SparseTensor3 {
        let executor = Executor::sequential();
        let rulebook = ConvRulebook::build(input.coord_slice(), &executor);
        self.forward_with(input, &rulebook, &executor)
    }

    /// Applies the convolution using a prebuilt [`ConvRulebook`] over
    /// `executor`, chunk-parallel across sites. Because the active set
    /// is fixed, per-site accumulation (bias, then the 27 taps in fixed
    /// offset order) is independent of chunking — the output is
    /// bit-identical at any thread count and to the sequential
    /// [`SparseConv3::forward`].
    ///
    /// Each output's chain is `bias`, then, for each active tap in
    /// kernel-offset order, `acc + (-0.0 + w₀·x₀ + w₁·x₁ + …)` over the
    /// inputs in order: the chain of a per-output `Iterator::sum`, so
    /// every result that is not NaN has the same bits. (Which payload
    /// an add of two NaNs keeps, the language leaves open.) Outputs run
    /// eight at a time in lanes.
    ///
    /// # Panics
    ///
    /// Panics when the input channel count or the rulebook's site count
    /// does not match the input.
    pub fn forward_with(
        &self,
        input: &SparseTensor3,
        rulebook: &ConvRulebook,
        executor: &Executor,
    ) -> SparseTensor3 {
        assert_eq!(input.channels(), self.in_channels, "channel mismatch");
        assert_eq!(
            rulebook.site_count(),
            input.active_sites(),
            "rulebook site count mismatch"
        );
        let in_c = self.in_channels;
        let out_c = self.out_channels;
        let feats = input.feature_slice();
        let kernel = LaneKernel::new(self);
        let parts = executor.map_chunks(input.coord_slice(), CONV_CHUNK_SITES, |ci, chunk| {
            let base = ci * CONV_CHUNK_SITES;
            let mut out_chunk = Vec::with_capacity(chunk.len() * out_c);
            for site in base..base + chunk.len() {
                let taps = &rulebook.neighbors[site * 27..site * 27 + 27];
                let start = out_chunk.len();
                let row_weights = kernel.weights.chunks_exact(27 * in_c);
                for (row, (&bias, row_weights)) in kernel.bias.iter().zip(row_weights).enumerate() {
                    let mut acc = bias;
                    for (k, &j) in taps.iter().enumerate() {
                        if j < 0 {
                            continue;
                        }
                        let features = &feats[j as usize * in_c..][..in_c];
                        let weights = &row_weights[k * in_c..][..in_c];
                        let mut sums: Lanes = [-0.0; LANES];
                        for (&x, w) in features.iter().zip(weights) {
                            for (sum, &w) in sums.iter_mut().zip(w) {
                                *sum += w * x;
                            }
                        }
                        for (a, sum) in acc.iter_mut().zip(sums) {
                            *a += sum;
                        }
                    }
                    let live = (out_c - row * LANES).min(LANES);
                    out_chunk.extend_from_slice(&acc[..live]);
                }
                relu_in_place(&mut out_chunk[start..]);
            }
            out_chunk
        });
        let mut features = Vec::with_capacity(input.active_sites() * out_c);
        for part in parts {
            features.extend_from_slice(&part);
        }
        SparseTensor3::from_sorted_parts(out_c, input.coord_slice().to_vec(), features)
    }
}

/// A dense reference implementation used to validate the sparse engine:
/// materializes the full grid over the active bounding box and convolves
/// naively. Only for tests/benches — cost scales with volume.
pub fn dense_reference_conv(layer: &SparseConv3, input: &SparseTensor3) -> SparseTensor3 {
    let mut out = SparseTensor3::new(layer.out_channels());
    for (coord, _) in input.iter() {
        let mut acc = layer.bias.clone();
        for (k, (dx, dy, dz)) in kernel_offsets().enumerate() {
            let neighbor = VoxelCoord::new(coord.x + dx, coord.y + dy, coord.z + dz);
            let zeros = vec![0.0; layer.in_channels()];
            let features = input.get(neighbor).unwrap_or(&zeros);
            let w = &layer.kernel[k];
            for (o, a) in acc.iter_mut().enumerate() {
                let row = &w[o * layer.in_channels..(o + 1) * layer.in_channels];
                *a += row
                    .iter()
                    .zip(features)
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f32>();
            }
        }
        relu_in_place(&mut acc);
        out.set(*coord, acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_with(coords: &[(i32, i32, i32)], channels: usize) -> SparseTensor3 {
        let mut t = SparseTensor3::new(channels);
        for (i, &(x, y, z)) in coords.iter().enumerate() {
            let f: Vec<f32> = (0..channels).map(|c| (i + c + 1) as f32 * 0.1).collect();
            t.set(VoxelCoord::new(x, y, z), f);
        }
        t
    }

    #[test]
    fn submanifold_preserves_active_set() {
        let input = tensor_with(&[(0, 0, 0), (5, 5, 5), (1, 0, 0)], 3);
        let layer = SparseConv3::seeded(3, 6, 1);
        let out = layer.forward(&input);
        assert_eq!(out.active_sites(), input.active_sites());
        for (coord, _) in input.iter() {
            assert!(out.get(*coord).is_some(), "lost site {coord}");
        }
    }

    #[test]
    fn isolated_site_sees_only_center_tap() {
        let input = tensor_with(&[(10, 10, 10)], 2);
        let layer = SparseConv3::seeded(2, 2, 5);
        let out = layer.forward(&input);
        // Equivalent dense computation agrees.
        let dense = dense_reference_conv(&layer, &input);
        assert_eq!(out, dense);
    }

    #[test]
    fn matches_dense_reference_on_cluster() {
        let coords: Vec<(i32, i32, i32)> = (0..3)
            .flat_map(|x| (0..3).flat_map(move |y| (0..2).map(move |z| (x, y, z))))
            .collect();
        let input = tensor_with(&coords, 4);
        let layer = SparseConv3::seeded(4, 5, 9);
        let sparse_out = layer.forward(&input);
        let dense_out = dense_reference_conv(&layer, &input);
        assert_eq!(sparse_out.active_sites(), dense_out.active_sites());
        for (coord, f) in sparse_out.iter() {
            let g = dense_out.get(*coord).unwrap();
            for (a, b) in f.iter().zip(g) {
                assert!((a - b).abs() < 1e-5, "mismatch at {coord}");
            }
        }
    }

    #[test]
    fn neighbors_influence_output() {
        let lone = tensor_with(&[(0, 0, 0)], 2);
        let paired = tensor_with(&[(0, 0, 0), (1, 0, 0)], 2);
        let layer = SparseConv3::seeded(2, 3, 2);
        let a = layer.forward(&lone);
        let b = layer.forward(&paired);
        let fa = a.get(VoxelCoord::new(0, 0, 0)).unwrap();
        let fb = b.get(VoxelCoord::new(0, 0, 0)).unwrap();
        assert_ne!(fa, fb, "neighbour had no effect");
    }

    #[test]
    fn outputs_are_non_negative_after_relu() {
        let input = tensor_with(&[(0, 0, 0), (0, 1, 0), (1, 1, 1)], 3);
        let layer = SparseConv3::seeded(3, 8, 4);
        let out = layer.forward(&input);
        for (_, f) in out.iter() {
            assert!(f.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let input = tensor_with(&[(0, 0, 0), (2, 1, 0)], 2);
        let a = SparseConv3::seeded(2, 4, 77).forward(&input);
        let b = SparseConv3::seeded(2, 4, 77).forward(&input);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let input = tensor_with(&[(0, 0, 0)], 2);
        let layer = SparseConv3::seeded(3, 4, 0);
        let _ = layer.forward(&input);
    }

    #[test]
    fn empty_input_empty_output() {
        let layer = SparseConv3::seeded(2, 2, 0);
        let out = layer.forward(&SparseTensor3::new(2));
        assert!(out.is_empty());
    }

    #[test]
    fn rulebook_forward_matches_sequential_at_any_thread_count() {
        let coords: Vec<(i32, i32, i32)> = (0..4)
            .flat_map(|x| (0..4).flat_map(move |y| (0..3).map(move |z| (x, y, z))))
            .collect();
        let input = tensor_with(&coords, 3);
        let layer = SparseConv3::seeded(3, 5, 21);
        let sequential = layer.forward(&input);
        for threads in [1, 2, 4] {
            let executor = Executor::new(Some(threads));
            let rulebook = ConvRulebook::build(input.coord_slice(), &executor);
            let parallel = layer.forward_with(&input, &rulebook, &executor);
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn rulebook_is_reusable_across_layers() {
        let input = tensor_with(&[(0, 0, 0), (1, 0, 0), (0, 1, 0)], 2);
        let executor = Executor::sequential();
        let mut rulebook = ConvRulebook::new();
        assert_eq!(rulebook.site_count(), 0);
        rulebook.rebuild(input.coord_slice(), &executor);
        let a = SparseConv3::seeded(2, 4, 1);
        let b = SparseConv3::seeded(4, 4, 2);
        // Same active set through the stack: one rulebook serves both.
        let mid = a.forward_with(&input, &rulebook, &executor);
        let out = b.forward_with(&mid, &rulebook, &executor);
        assert_eq!(out, b.forward(&a.forward(&input)));
    }

    #[test]
    #[should_panic(expected = "rulebook site count mismatch")]
    fn stale_rulebook_rejected() {
        let input = tensor_with(&[(0, 0, 0), (1, 0, 0)], 2);
        let layer = SparseConv3::seeded(2, 2, 3);
        let rulebook = ConvRulebook::new();
        let _ = layer.forward_with(&input, &rulebook, &Executor::sequential());
    }
}
