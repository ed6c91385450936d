//! The assembled SPOD detector pipeline.

use cooper_exec::Executor;
use cooper_geometry::{Aabb3, Obb3, Vec3};
use cooper_lidar_sim::ObjectClass;
use cooper_pointcloud::{PointCloud, VoxelGrid, VoxelGridConfig};
use cooper_telemetry::names as telemetry_names;
use serde::{Deserialize, Serialize};

use crate::anchors::AnchorConfig;
use crate::bev::{BevMap, WindowWalker};
use crate::head::DetectionHead;
use crate::nn::sigmoid;
use crate::preprocess::{densify_above, PreprocessConfig};
use crate::sparse_conv::{ConvRulebook, SparseConv3};
use crate::train::{train, TrainingConfig};
use crate::vfe::VoxelFeatureEncoder;

/// One detected object: class, sensor-frame box and confidence score.
///
/// The score is the sigmoid objectness of the winning anchor — the
/// "detecting score" reported in the paper's Figures 3 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Detected class.
    pub class: ObjectClass,
    /// The decoded oriented box in the input cloud's frame.
    pub obb: Obb3,
    /// Confidence in `[0, 1]`.
    pub score: f32,
}

impl std::fmt::Display for Detection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} @ {} (score {:.2})",
            self.class, self.obb.center, self.score
        )
    }
}

/// Static configuration of the SPOD pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpodConfig {
    /// Voxelization extent and resolution. 360° coverage: cooperative
    /// clouds contain returns all around the receiver.
    pub voxel_grid: VoxelGridConfig,
    /// Feature channels flowing through the middle layers.
    pub channels: usize,
    /// Preprocessing (spherical densification) applied to input clouds.
    pub preprocess: PreprocessConfig,
    /// Detections below this score are discarded.
    pub score_threshold: f32,
    /// BEV IoU threshold for non-maximum suppression.
    pub nms_iou: f64,
    /// Distance-NMS factor: same-class detections closer than this
    /// fraction of the smaller box length are duplicates (0 disables).
    pub nms_distance_factor: f64,
    /// RPN receptive-field radius in BEV cells (window side is
    /// `2·radius + 1`). Must cover the longest anchor.
    pub window_radius: i32,
    /// Sensor mount height (anchors sit on the ground this far below
    /// the sensor origin).
    pub mount_height: f64,
    /// When set, returns within this margin (metres) of the ground plane
    /// are excluded from voxelization — standard LiDAR ground
    /// segmentation. Road returns dominate raw scans and carry no object
    /// evidence; removing them restores the foreground/background
    /// balance the RPN heads train against. `None` disables (ablation).
    pub ground_removal_margin: Option<f64>,
    /// Seed for the deterministic feature-extractor weights.
    pub seed: u64,
}

impl Default for SpodConfig {
    fn default() -> Self {
        SpodConfig {
            voxel_grid: VoxelGridConfig {
                extent: Aabb3::new(Vec3::new(-80.0, -80.0, -3.0), Vec3::new(80.0, 80.0, 3.0)),
                voxel_size: Vec3::new(0.5, 0.5, 0.5),
            },
            channels: 8,
            preprocess: PreprocessConfig::sparse_default(),
            score_threshold: 0.5,
            nms_iou: 0.2,
            nms_distance_factor: 0.5,
            window_radius: 3,
            mount_height: 1.8,
            ground_removal_margin: Some(0.3),
            seed: 0xC00_9E6,
        }
    }
}

/// Points per voxelization chunk. Fixed (never derived from thread
/// count) so chunk boundaries — and with them the grouping of float
/// accumulations — are identical however many workers voxelize. Sized
/// so a typical densified scan splits into enough chunks to occupy a
/// small work pool without drowning in merge overhead.
const VOXELIZE_CHUNK_POINTS: usize = 16_384;

/// BEV cells per parallel RPN chunk. Fixed boundaries keep the
/// detection emission order — and thus the NMS input and its outcome —
/// identical at any thread count.
const RPN_CHUNK_CELLS: usize = 512;

/// Options for [`SpodDetector::detect_with`], the single detection
/// entry point ([`SpodDetector::detect`] is its default-options
/// shorthand).
///
/// # Examples
///
/// ```
/// use cooper_exec::Executor;
/// use cooper_lidar_sim::ObjectClass;
/// use cooper_spod::DetectOptions;
///
/// let options = DetectOptions::default()
///     .with_threshold(0.4)
///     .with_class(ObjectClass::Car)
///     .with_executor(Executor::sequential());
/// ```
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// Score threshold; `None` uses [`SpodConfig::score_threshold`].
    pub threshold: Option<f32>,
    /// Restrict detection to one class; `None` runs every head.
    pub class: Option<ObjectClass>,
    /// Executor driving the chunk-parallel stages (voxelize, VFE,
    /// rulebook, sparse conv, RPN). Output is bit-identical at any
    /// thread budget; callers already parallel at a coarser grain (the
    /// fleet fans out per receiver) should pass
    /// [`Executor::sequential`] to avoid nested thread spawn.
    pub executor: Executor,
}

impl Default for DetectOptions {
    fn default() -> Self {
        DetectOptions {
            threshold: None,
            class: None,
            executor: Executor::new(None),
        }
    }
}

impl DetectOptions {
    /// Sets an explicit score threshold (PR-curve sweeps).
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Restricts detection to one class (cheaper when only cars matter,
    /// as in the Cooper evaluation).
    pub fn with_class(mut self, class: ObjectClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Sets the executor for the chunk-parallel stages.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }
}

/// Reusable scratch arenas for [`SpodDetector::detect_with`].
///
/// The hot path's largest recurring allocation is the submanifold
/// convolution rulebook (27 neighbour indices per active site, shared
/// by both conv layers). Keeping one `DetectScratch` per vehicle (or
/// per worker) across steps lets those buffers keep their capacity
/// instead of being reallocated every frame.
///
/// Contents are buffers, never carried state: every call fully
/// overwrites what it later reads, so reusing a scratch cannot change
/// any result bit.
#[derive(Debug, Default)]
pub struct DetectScratch {
    /// Conv neighbour table, rebuilt per featurize, reused by conv1 and
    /// conv2 (submanifold convolutions keep the active set fixed).
    rulebook: ConvRulebook,
}

impl DetectScratch {
    /// An empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        DetectScratch::default()
    }
}

/// The SPOD 3-D object detector (Figure 1 of the paper): preprocessing →
/// voxel feature extractor → sparse convolutional middle layers → BEV
/// collapse → SSD-style RPN heads → NMS.
///
/// One instance handles any input density — "not only … high density
/// data, but also … much sparser point clouds" — which is what lets the
/// same network run on single-shot and fused cooperative clouds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpodDetector {
    config: SpodConfig,
    vfe: VoxelFeatureEncoder,
    conv1: SparseConv3,
    conv2: SparseConv3,
    heads: Vec<DetectionHead>,
}

impl SpodDetector {
    /// Creates a detector with deterministic feature-extractor weights
    /// and untrained (zero) heads. Use [`SpodDetector::train_default`] or
    /// [`crate::train::train`] to fit the heads.
    pub fn new(config: SpodConfig) -> Self {
        let vfe = VoxelFeatureEncoder::seeded(config.channels, config.seed);
        let conv1 = SparseConv3::seeded(config.channels, config.channels, config.seed ^ 1);
        let conv2 = SparseConv3::seeded(config.channels, config.channels, config.seed ^ 2);
        let side = (2 * config.window_radius + 1) as usize;
        let feature_dim = (config.channels + crate::bev::Z_STRUCTURE_CHANNELS) * side * side;
        let heads = ObjectClass::TARGETS
            .iter()
            .map(|&class| {
                DetectionHead::new(
                    feature_dim,
                    AnchorConfig::for_class(class, config.mount_height),
                )
            })
            .collect();
        SpodDetector {
            config,
            vfe,
            conv1,
            conv2,
            heads,
        }
    }

    /// Trains a detector with the default pipeline configuration.
    pub fn train_default(training: &TrainingConfig) -> Self {
        train(SpodConfig::default(), training)
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SpodConfig {
        &self.config
    }

    /// Mutable access to the per-class heads, for the trainer.
    pub(crate) fn heads_mut(&mut self) -> &mut [DetectionHead] {
        &mut self.heads
    }

    /// The per-class heads.
    pub fn heads(&self) -> &[DetectionHead] {
        &self.heads
    }

    /// The VFE embedding layer (weight-file persistence).
    pub fn vfe_layer(&self) -> &crate::nn::Linear {
        self.vfe.layer()
    }

    /// The first sparse convolution (weight-file persistence).
    pub fn conv1_layer(&self) -> &SparseConv3 {
        &self.conv1
    }

    /// The second sparse convolution (weight-file persistence).
    pub fn conv2_layer(&self) -> &SparseConv3 {
        &self.conv2
    }

    /// Reconstructs a detector from loaded parts (weight-file loading).
    pub fn from_parts(
        config: SpodConfig,
        vfe: VoxelFeatureEncoder,
        conv1: SparseConv3,
        conv2: SparseConv3,
        heads: Vec<DetectionHead>,
    ) -> Self {
        SpodDetector {
            config,
            vfe,
            conv1,
            conv2,
            heads,
        }
    }

    /// Serializes the trained detector to a versioned binary weight
    /// blob. See [`crate::persist`].
    pub fn to_bytes(&self) -> bytes::Bytes {
        crate::persist::detector_to_bytes(self)
    }

    /// Loads a detector written by [`SpodDetector::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::persist::PersistError`] for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::persist::PersistError> {
        crate::persist::detector_from_bytes(bytes)
    }

    /// Runs the feature-extraction trunk: preprocessing, voxelization,
    /// VFE, two sparse convolutions and the BEV collapse.
    ///
    /// Exposed so the trainer and ablation benches can reuse the exact
    /// inference path (C-INTERMEDIATE). Thin shim over
    /// [`SpodDetector::featurize_with`] with default options and a
    /// throwaway scratch.
    pub fn featurize(&self, cloud: &PointCloud) -> BevMap {
        self.featurize_with(cloud, &DetectOptions::default(), &mut DetectScratch::new())
    }

    /// The feature-extraction trunk with explicit options and scratch:
    /// every stage past preprocessing is chunk-parallel over
    /// `options.executor`, and the conv rulebook arena lives in
    /// `scratch` (built once here, reused by both conv layers and kept
    /// allocated across calls).
    ///
    /// Chunk boundaries are fixed and partial results merge in chunk
    /// order, so the returned map is **bit-identical at any thread
    /// count** — and bit-identical to the sequential path.
    pub fn featurize_with(
        &self,
        cloud: &PointCloud,
        options: &DetectOptions,
        scratch: &mut DetectScratch,
    ) -> BevMap {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_FEATURIZE);
        let executor = &options.executor;
        let dense = {
            let _stage = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_PREPROCESS);
            let cutoff = self
                .config
                .ground_removal_margin
                .map(|margin| -self.config.mount_height + margin);
            densify_above(cloud, &self.config.preprocess, cutoff)
        };
        let grid = {
            let _stage = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_VOXELIZE);
            // Chunked even when the executor is sequential: fixed chunk
            // boundaries make the float accumulators (and hence every
            // downstream feature) bit-identical at any thread count.
            let grid = VoxelGrid::from_cloud_chunked(
                &dense,
                self.config.voxel_grid,
                VOXELIZE_CHUNK_POINTS,
                executor,
            );
            cooper_telemetry::counter_add(
                telemetry_names::SPOD_VOXELS_OCCUPIED,
                grid.occupied_count() as u64,
            );
            grid
        };
        let _stage = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_MIDDLE);
        let embedded = {
            let _layer = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_VFE);
            self.vfe.encode_with(&grid, executor)
        };
        {
            let _layer = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_RULEBOOK);
            // Submanifold convolutions never change the active set, so
            // one neighbour table serves both conv layers.
            scratch.rulebook.rebuild(embedded.coord_slice(), executor);
        }
        let mid = {
            let _layer = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_CONV1);
            self.conv1
                .forward_with(&embedded, &scratch.rulebook, executor)
        };
        let deep = {
            let _layer = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_CONV2);
            self.conv2.forward_with(&mid, &scratch.rulebook, executor)
        };
        let _layer = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_BEV);
        BevMap::collapse(&deep)
    }

    /// Detects objects in a sensor-frame cloud.
    ///
    /// Works identically on single-shot and fused cooperative clouds —
    /// the input is just points. Thin shim over
    /// [`SpodDetector::detect_with`] with default options.
    pub fn detect(&self, cloud: &PointCloud) -> Vec<Detection> {
        self.detect_with(cloud, &DetectOptions::default(), &mut DetectScratch::new())
    }

    /// The single detection entry point: featurize, score every BEV
    /// cell's anchors with the RPN heads, decode boxes above the
    /// threshold, suppress duplicates.
    ///
    /// The RPN fans BEV cells out in fixed-size chunks over
    /// `options.executor`, each worker reusing one window buffer; chunk
    /// results concatenate in chunk order, so the NMS input — and with
    /// it every returned detection bit — is identical at any thread
    /// count.
    pub fn detect_with(
        &self,
        cloud: &PointCloud,
        options: &DetectOptions,
        scratch: &mut DetectScratch,
    ) -> Vec<Detection> {
        let bev = self.featurize_with(cloud, options, scratch);
        self.detect_bev(&bev, options)
    }

    /// The detector back half: scores a **pre-built BEV feature map**
    /// with the RPN heads and suppresses duplicates — the entry point
    /// for feature-level cooperative perception, where the map being
    /// scored is the fusion of several vehicles' featurized views
    /// ([`crate::fusion::fuse_bev`]) rather than the output of this
    /// detector's own trunk. [`SpodDetector::detect_with`] is exactly
    /// [`SpodDetector::featurize_with`] followed by this.
    ///
    /// Deterministic like the rest of the pipeline: fixed RPN chunk
    /// boundaries make the output bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics when the map's channel count does not match what the
    /// heads were trained against
    /// (`config.channels + Z_STRUCTURE_CHANNELS`).
    pub fn detect_bev(&self, bev: &BevMap, options: &DetectOptions) -> Vec<Detection> {
        assert_eq!(
            bev.channels(),
            self.config.channels + crate::bev::Z_STRUCTURE_CHANNELS,
            "BEV map channels must match the trained heads"
        );
        let threshold = options.threshold.unwrap_or(self.config.score_threshold);
        let heads: Vec<&DetectionHead> = match options.class {
            Some(class) => self
                .heads
                .iter()
                .filter(|h| h.config().class == class)
                .collect(),
            None => self.heads.iter().collect(),
        };
        let detections = {
            let _stage = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_RPN);
            let radius = self.config.window_radius;
            let rpn = RpnHeads::new(&heads, window_len(radius, bev.channels()));
            let parts = options.executor.map_chunks_in(
                bev.cell_slice(),
                RPN_CHUNK_CELLS,
                || RpnScratch::new(radius),
                |_, cells, scratch| {
                    let mut local = Vec::new();
                    for &(x, y) in cells {
                        scratch.visit(bev, x, y);
                        rpn.logits(bev, scratch);
                        for (k, &(head, yaw_idx)) in rpn.anchors.iter().enumerate() {
                            let score = sigmoid(scratch.logits[k]);
                            if score < threshold {
                                continue;
                            }
                            let anchor =
                                head.config()
                                    .anchor_at(&self.config.voxel_grid, (x, y), yaw_idx);
                            rpn.residual(k, bev, scratch);
                            local.push(Detection {
                                class: head.config().class,
                                obb: crate::anchors::decode_box(&anchor, &scratch.residual),
                                score,
                            });
                        }
                    }
                    local
                },
            );
            let mut detections = Vec::new();
            for part in parts {
                detections.extend(part);
            }
            detections
        };
        let _stage = cooper_telemetry::span!(telemetry_names::SPAN_SPOD_NMS);
        crate::nms::non_max_suppression_with_distance(
            detections,
            self.config.nms_iou,
            self.config.nms_distance_factor,
        )
    }
}

/// Length of an RPN window's feature vector: `(2·radius + 1)²` blocks of
/// `channels` values.
fn window_len(radius: i32, channels: usize) -> usize {
    let side = (2 * radius + 1) as usize;
    side * side * channels
}

/// Per-worker buffers of the RPN walk.
struct RpnScratch {
    walker: WindowWalker,
    /// One objectness logit per scored anchor (head × yaw).
    logits: Vec<f32>,
    /// The dense window of the current cell, valid when `window_built`.
    window: Vec<f32>,
    window_built: bool,
    residual: Vec<f32>,
}

impl RpnScratch {
    fn new(radius: i32) -> Self {
        RpnScratch {
            walker: WindowWalker::new(radius),
            logits: Vec::new(),
            window: Vec::new(),
            window_built: false,
            residual: Vec::new(),
        }
    }

    /// Moves to the window centred at `(x, y)`.
    fn visit(&mut self, bev: &BevMap, x: i32, y: i32) {
        self.walker.visit(bev, x, y);
        self.window_built = false;
    }

    /// Builds `window` for the cell the walker last visited, once per
    /// cell.
    fn ensure_window(&mut self, bev: &BevMap) {
        if !self.window_built {
            self.walker.fill_window(bev, &mut self.window);
            self.window_built = true;
        }
    }
}

/// Units summed side by side: one lane each, eight to a row, so the
/// compiler can keep a row's sums in vector registers. Lanes never mix,
/// so each unit's sum is the same scalar chain it would be alone.
const LANES: usize = 8;
type Lanes = [f32; LANES];

/// Linear units over one RPN window, eight to a lane row. Each row's
/// weights run in window index order, so a row's walk over the active
/// blocks reads one contiguous slice per block. Padding lanes have zero
/// weights and are never read back.
struct UnitBank {
    units: usize,
    window_len: usize,
    /// `[lane row][window index]`.
    weights: Vec<Lanes>,
}

impl UnitBank {
    /// The units of `layers`, in layer order then output order.
    fn new(layers: &[&crate::nn::Linear], window_len: usize) -> Self {
        let units: usize = layers.iter().map(|l| l.out_dim()).sum();
        let mut weights = vec![[0.0; LANES]; units.div_ceil(LANES) * window_len];
        let mut unit = 0;
        for layer in layers {
            for o in 0..layer.out_dim() {
                let row = &layer.weights()[o * window_len..(o + 1) * window_len];
                let lanes = &mut weights[unit / LANES * window_len..][..window_len];
                for (lanes, &w) in lanes.iter_mut().zip(row) {
                    lanes[unit % LANES] = w;
                }
                unit += 1;
            }
        }
        UnitBank {
            units,
            window_len,
            weights,
        }
    }

    /// Writes each unit's `Σ w[i] · x[i]` over the visited window's
    /// active cells to `out`, terms in window index order (block, then
    /// channel), starting from `-0.0` like `Iterator::sum`. Each lane row
    /// sums into a local array, which stays in registers.
    fn sum_active(&self, bev: &BevMap, walker: &WindowWalker, out: &mut Vec<f32>) {
        out.clear();
        let channels = bev.channels();
        for weights in self.weights.chunks_exact(self.window_len) {
            let mut sums: Lanes = [-0.0; LANES];
            for &(block, cell) in walker.blocks() {
                let weights = &weights[block * channels..(block + 1) * channels];
                for (&x, w) in bev.feature_at(cell).iter().zip(weights) {
                    for (sum, &w) in sums.iter_mut().zip(w) {
                        *sum += w * x;
                    }
                }
            }
            out.extend_from_slice(&sums);
        }
        out.truncate(self.units);
    }
}

/// Turns unit sums into outputs: `b + sum`, bias first as
/// [`crate::nn::Linear`] adds it.
fn add_biases(sums: &mut [f32], biases: &[f32]) {
    for (sum, &b) in sums.iter_mut().zip(biases) {
        let active = *sum;
        *sum = b + active;
    }
}

/// The RPN units of every scored anchor (head × yaw, heads outer),
/// evaluated over a window's *active* cells only.
///
/// A dense unit ([`crate::nn::Linear`]) sums `w[i]·x[i]` in index order
/// over the whole window, whose inactive blocks are `+0.0`. For finite
/// `w` those terms are `±0`, and adding `±0` to a non-zero partial sum
/// leaves it unchanged; only a zero partial sum can change, and then
/// only its sign. Summing just the active blocks, in index order, so
/// gives the dense sum exactly, or a zero of the other sign:
/// - objectness: `b + (±0)` feeds a `sigmoid` that returns 0.5 for both
///   zeros, so the score is unchanged;
/// - regression: the residual is used as is. A sum that starts at
///   `-0.0` stays `-0.0` only while every term is `-0.0`, so a `+0.0`
///   active sum means the dense sum, which has the same terms and more,
///   is `+0.0` too. Only a `-0.0` sum is redone densely.
struct RpnHeads<'a> {
    /// `(head, yaw index)` per anchor, in the order anchors are emitted.
    anchors: Vec<(&'a DetectionHead, usize)>,
    /// One objectness unit per anchor.
    objectness: UnitBank,
    biases: Vec<f32>,
    /// Per anchor, its regression units.
    regression: Vec<UnitBank>,
    /// `false` when a weight is not finite (`w · 0` is then NaN, not
    /// `±0`) or a unit does not take a window of `window_len`: every
    /// window is then scored densely, exactly as the heads score it.
    sparse: bool,
}

impl<'a> RpnHeads<'a> {
    fn new(heads: &[&'a DetectionHead], window_len: usize) -> Self {
        let anchors: Vec<(&DetectionHead, usize)> = heads
            .iter()
            .flat_map(|&head| (0..AnchorConfig::YAWS.len()).map(move |yaw| (head, yaw)))
            .collect();
        let objectness: Vec<&crate::nn::Linear> = anchors
            .iter()
            .map(|&(head, yaw)| &head.objectness_layers()[yaw])
            .collect();
        let regression: Vec<&crate::nn::Linear> = anchors
            .iter()
            .map(|&(head, yaw)| &head.regression_layers()[yaw])
            .collect();
        let sparse = objectness
            .iter()
            .chain(&regression)
            .all(|l| l.in_dim() == window_len && l.weights().iter().all(|w| w.is_finite()));
        let bank = |layers: &[&crate::nn::Linear]| {
            UnitBank::new(if sparse { layers } else { &[] }, window_len)
        };
        RpnHeads {
            anchors,
            objectness: bank(&objectness),
            biases: objectness.iter().map(|l| l.biases()[0]).collect(),
            regression: regression.iter().map(|&l| bank(&[l])).collect(),
            sparse,
        }
    }

    /// Fills `scratch.logits` for the window `scratch.walker` last
    /// visited.
    fn logits(&self, bev: &BevMap, scratch: &mut RpnScratch) {
        scratch.logits.clear();
        if self.anchors.is_empty() {
            // A class filter no head serves: nothing to score.
        } else if self.sparse {
            self.objectness
                .sum_active(bev, &scratch.walker, &mut scratch.logits);
            add_biases(&mut scratch.logits, &self.biases);
        } else {
            scratch.ensure_window(bev);
            let window = &scratch.window;
            scratch.logits.extend(
                self.anchors
                    .iter()
                    .map(|&(head, yaw)| head.objectness_logit(window, yaw)),
            );
        }
    }

    /// Writes anchor `k`'s box residual into `scratch.residual`.
    fn residual(&self, k: usize, bev: &BevMap, scratch: &mut RpnScratch) {
        let (head, yaw) = self.anchors[k];
        if self.sparse {
            let residual = &mut scratch.residual;
            self.regression[k].sum_active(bev, &scratch.walker, residual);
            // A `-0.0` sum is the one value the dense sum may not share
            // (it could be `+0.0`); every other sum is exact.
            if !residual.iter().any(|&s| s == 0.0 && s.is_sign_negative()) {
                add_biases(residual, head.regression_layers()[yaw].biases());
                return;
            }
        }
        scratch.ensure_window(bev);
        head.residual_into(&scratch.window, yaw, &mut scratch.residual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_pointcloud::Point;

    fn toy_cloud() -> PointCloud {
        // A car-sized blob of points 10 m ahead, 1.8 m below the sensor.
        let mut cloud = PointCloud::new();
        for i in 0..200 {
            let fx = (i % 20) as f64 * 0.2;
            let fy = ((i / 20) % 5) as f64 * 0.35;
            let fz = (i / 100) as f64 * 0.6;
            cloud.push(Point::new(Vec3::new(8.0 + fx, -0.9 + fy, -1.7 + fz), 0.45));
        }
        cloud
    }

    #[test]
    fn sparse_residual_keeps_the_dense_sign_of_zero() {
        // +0.0 weights times negative features make every active term
        // -0.0, while the window's inactive blocks add +0.0: the dense
        // sum is +0.0 where the active-only sum is -0.0.
        let (channels, radius) = (2, 1);
        let len = window_len(radius, channels);
        let layers = |bias: f32, out: usize| -> Vec<crate::nn::Linear> {
            (0..AnchorConfig::YAWS.len())
                .map(|_| {
                    crate::nn::Linear::from_parameters(
                        len,
                        out,
                        vec![0.0; len * out],
                        vec![bias; out],
                    )
                })
                .collect()
        };
        let head = DetectionHead::from_parts(
            AnchorConfig::for_class(ObjectClass::Car, 1.7),
            layers(0.0, 1),
            layers(-0.0, crate::anchors::REGRESSION_DIMS),
        );
        let bev = BevMap::from_parts(channels, vec![(0, 0)], vec![-1.0, -2.0]);
        let dense = bev.window_features(0, 0, radius);
        let rpn = RpnHeads::new(&[&head], len);
        let mut scratch = RpnScratch::new(radius);
        scratch.visit(&bev, 0, 0);
        for (k, &(_, yaw)) in rpn.anchors.iter().enumerate() {
            rpn.residual(k, &bev, &mut scratch);
            let expected = head.residual(&dense, yaw);
            assert!(expected.iter().all(|&v| v == 0.0 && v.is_sign_positive()));
            assert_eq!(
                scratch
                    .residual
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn untrained_detector_runs_end_to_end() {
        let det = SpodDetector::new(SpodConfig::default());
        // Zero heads score exactly 0.5 everywhere; with the default 0.5
        // threshold everything passes but NMS bounds the output.
        let detections = det.detect_with(
            &toy_cloud(),
            &DetectOptions::default().with_threshold(0.6),
            &mut DetectScratch::new(),
        );
        assert!(detections.is_empty(), "untrained head must not clear 0.6");
    }

    #[test]
    fn featurize_produces_active_cells() {
        let det = SpodDetector::new(SpodConfig::default());
        let bev = det.featurize(&toy_cloud());
        assert!(bev.active_cells() > 0);
        assert_eq!(
            bev.channels(),
            det.config().channels + crate::bev::Z_STRUCTURE_CHANNELS
        );
    }

    #[test]
    fn empty_cloud_yields_no_detections() {
        let det = SpodDetector::new(SpodConfig::default());
        assert!(det.detect(&PointCloud::new()).is_empty());
    }

    #[test]
    fn detector_is_deterministic() {
        let a = SpodDetector::new(SpodConfig::default());
        let b = SpodDetector::new(SpodConfig::default());
        assert_eq!(a, b);
        let cloud = toy_cloud();
        let fa = a.featurize(&cloud);
        let fb = b.featurize(&cloud);
        assert_eq!(fa, fb);
    }

    #[test]
    fn detect_class_filters() {
        let det = SpodDetector::new(SpodConfig::default());
        let mut scratch = DetectScratch::new();
        let cars = DetectOptions::default()
            .with_class(ObjectClass::Car)
            .with_threshold(0.4);
        let dets = det.detect_with(&toy_cloud(), &cars, &mut scratch);
        assert!(dets.iter().all(|d| d.class == ObjectClass::Car));
        // A class no head serves scores nothing.
        let background = DetectOptions::default()
            .with_class(ObjectClass::Background)
            .with_threshold(0.0);
        assert!(det
            .detect_with(&toy_cloud(), &background, &mut scratch)
            .is_empty());
    }

    #[test]
    fn detect_with_matches_default_executor_and_fresh_scratch() {
        // Each options value gives the same detections on a sequential
        // executor with a reused scratch as on the default executor with
        // a fresh one.
        let det = SpodDetector::new(SpodConfig::default());
        let cloud = toy_cloud();
        let mut scratch = DetectScratch::new();
        for options in [
            DetectOptions::default()
                .with_class(ObjectClass::Car)
                .with_threshold(0.4),
            DetectOptions::default().with_threshold(0.4),
        ] {
            let sequential = det.detect_with(
                &cloud,
                &options.clone().with_executor(Executor::sequential()),
                &mut scratch,
            );
            assert_eq!(
                sequential,
                det.detect_with(&cloud, &options, &mut DetectScratch::new())
            );
        }
    }

    #[test]
    fn detect_with_is_thread_count_invariant_and_scratch_reusable() {
        let det = SpodDetector::new(SpodConfig::default());
        let cloud = toy_cloud();
        let mut scratch = DetectScratch::new();
        let baseline = det.detect_with(
            &cloud,
            &DetectOptions::default()
                .with_threshold(0.4)
                .with_executor(Executor::new(Some(1))),
            &mut scratch,
        );
        let baseline_bev = det.featurize_with(
            &cloud,
            &DetectOptions::default().with_executor(Executor::new(Some(1))),
            &mut scratch,
        );
        for threads in [2, 4] {
            let options = DetectOptions::default()
                .with_threshold(0.4)
                .with_executor(Executor::new(Some(threads)));
            // Same scratch reused across thread counts: results may not
            // depend on what a previous call left in the arenas.
            let dets = det.detect_with(&cloud, &options, &mut scratch);
            assert_eq!(baseline, dets, "detections diverged at {threads} threads");
            let bev = det.featurize_with(&cloud, &options, &mut scratch);
            assert_eq!(baseline_bev, bev, "features diverged at {threads} threads");
        }
    }

    #[test]
    fn detect_bev_matches_detect_with() {
        // detect_with must be exactly featurize + detect_bev, so a
        // pre-fused map routed through detect_bev scores identically.
        let det = SpodDetector::new(SpodConfig::default());
        let cloud = toy_cloud();
        let mut scratch = DetectScratch::new();
        let options = DetectOptions::default()
            .with_threshold(0.4)
            .with_executor(Executor::sequential());
        let bev = det.featurize_with(&cloud, &options, &mut scratch);
        assert_eq!(
            det.detect_bev(&bev, &options),
            det.detect_with(&cloud, &options, &mut scratch)
        );
    }

    #[test]
    #[should_panic(expected = "channels must match")]
    fn detect_bev_rejects_channel_mismatch() {
        let det = SpodDetector::new(SpodConfig::default());
        let wrong = BevMap::from_parts(2, vec![(0, 0)], vec![1.0, 2.0]);
        let _ = det.detect_bev(&wrong, &DetectOptions::default());
    }

    #[test]
    fn featurized_map_survives_the_wire() {
        // The feature tier's sender path: featurize → feature frame →
        // v3 encode → decode → map. Quantization is the only loss.
        let det = SpodDetector::new(SpodConfig::default());
        let bev = det.featurize(&toy_cloud());
        let frame = bev.to_feature_frame();
        let bytes = cooper_pointcloud::encode_features(&frame).unwrap();
        let decoded =
            BevMap::from_feature_frame(&cooper_pointcloud::decode_features(&bytes).unwrap());
        assert_eq!(decoded.active_cells(), bev.active_cells());
        assert_eq!(decoded.channels(), bev.channels());
        let bound = frame.quantization_scale() / 254.0 + 1e-6;
        for (i, (cell, row)) in bev.iter().enumerate() {
            assert_eq!(cell, &decoded.cell_slice()[i]);
            for (a, b) in row.iter().zip(decoded.feature_at(i)) {
                assert!((a - b).abs() <= bound);
            }
        }
    }

    #[test]
    fn an_unset_threshold_detects_as_the_configured_one() {
        let det = SpodDetector::new(SpodConfig::default());
        let cloud = toy_cloud();
        let unset = DetectOptions::default().with_executor(Executor::sequential());
        assert!(unset.threshold.is_none());
        let detect =
            |options: &DetectOptions| det.detect_with(&cloud, options, &mut DetectScratch::new());
        // Untrained heads score every anchor at exactly 0.5, the
        // configured threshold: naming it detects the same, and the next
        // float up detects nothing.
        let configured = det.config().score_threshold;
        let got = detect(&unset);
        assert!(!got.is_empty());
        assert_eq!(got, detect(&unset.clone().with_threshold(configured)));
        let next_up = unset.with_threshold(f32::from_bits(configured.to_bits() + 1));
        assert!(detect(&next_up).is_empty());
    }

    #[test]
    fn display_detection() {
        let d = Detection {
            class: ObjectClass::Car,
            obb: Obb3::new(Vec3::ZERO, Vec3::new(4.5, 1.8, 1.5), 0.0),
            score: 0.87,
        };
        assert!(format!("{d}").contains("0.87"));
    }
}
