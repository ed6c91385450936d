//! The four pinned fleet workloads, and one drive of each.
//!
//! A workload is fixed except for its seed: the fleet, the channel, the
//! governor, the faults and the pipeline options are constants here.
//! Every drive starts a fresh simulation at step 0 and runs the same
//! number of steps, so every drive of a workload does the same work and
//! vehicles never leave the scene.

use std::time::{Duration, Instant};

use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetStats, FleetStepReport, FleetVehicle,
    TransportDropReason, TrustGuardConfig,
};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{
    AlignmentGuardConfig, ChannelModel, CooperPipeline, GovernorConfig, PerfectChannel, TrustConfig,
};
use cooper_geometry::{Pose, Vec3};
use cooper_lidar_sim::scenario::tj_scenario_1;
use cooper_lidar_sim::{BeamModel, FaultPlan, GpsImuModel};
use cooper_pointcloud::roi::RoiCategory;
use cooper_spod::SpodDetector;
use cooper_v2x::{
    ArqConfig, BandwidthGovernor, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, SharedMedium,
};

use crate::timed::{Tally, TimedChannel, TimedPolicy};

/// Vehicles in every workload's fleet.
pub const VEHICLES: usize = 8;

/// The benchmarked workloads. See the package README for why each one
/// was chosen and which layers it loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ungoverned v1 full-frame exchange over a perfect channel: every
    /// receiver fuses seven full clouds, SPOD dominates the step.
    RawBroadcast,
    /// Governed exchange with delta encoding and the BEV feature tier
    /// over a shared DSRC medium with ARQ.
    GovernedFeatures,
    /// The composed chaos campaign: burst loss, corruption, GPS drift, a
    /// ghost-injecting sender, the alignment guard and the trust layer.
    LossyChaos,
    /// A parked fleet with incremental perception and the tracker on.
    ParkedIncremental,
}

impl Workload {
    /// All workloads, in the order a full run executes them.
    pub const ALL: [Workload; 4] = [
        Workload::RawBroadcast,
        Workload::GovernedFeatures,
        Workload::LossyChaos,
        Workload::ParkedIncremental,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RawBroadcast => "raw_broadcast",
            Workload::GovernedFeatures => "governed_features",
            Workload::LossyChaos => "lossy_chaos",
            Workload::ParkedIncremental => "parked_incremental",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses unless `--seed` replaces it.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::RawBroadcast | Workload::ParkedIncremental => 7,
            Workload::GovernedFeatures => 17,
            Workload::LossyChaos => 41,
        }
    }

    fn speed_m_per_step(self) -> f64 {
        match self {
            Workload::RawBroadcast | Workload::GovernedFeatures => 1.0,
            Workload::LossyChaos => 0.5,
            Workload::ParkedIncremental => 0.0,
        }
    }

    fn azimuth_steps(self) -> usize {
        match self {
            Workload::LossyChaos => 400,
            _ => 500,
        }
    }

    /// `true` when the workload runs over the perfect channel, where no
    /// transfer may fail.
    pub fn lossless(self) -> bool {
        matches!(self, Workload::RawBroadcast | Workload::ParkedIncremental)
    }

    /// Builds everything a drive needs from the cached detector weights.
    /// This is the work `setup_s` times.
    ///
    /// # Panics
    ///
    /// Panics when `weights` do not decode into a detector.
    pub fn rig(self, weights: &[u8], seed: u64, steps: usize, threads: usize) -> Rig {
        let detector = SpodDetector::from_bytes(weights).expect("cached weights decode");
        let mut pipeline = CooperPipeline::new(detector);
        match self {
            Workload::LossyChaos => {
                pipeline = pipeline.with_alignment_guard(AlignmentGuardConfig::default());
            }
            Workload::ParkedIncremental => {
                pipeline = pipeline
                    .with_incremental()
                    .with_tracker(TrackerConfig::default());
            }
            Workload::RawBroadcast | Workload::GovernedFeatures => {}
        }

        let scene = tj_scenario_1();
        // Ring placement on the scenario's observer poses, as in
        // `cooper profile`: vehicles beyond the observer set reuse the
        // poses shifted 3 m per ring, so every scan shares structure
        // with its neighbours (the alignment guard needs that overlap).
        let vehicles = (0..VEHICLES)
            .map(|i| {
                let base = scene.observers[i % scene.observers.len()];
                let ring = (i / scene.observers.len()) as f64;
                let start = Pose::new(
                    base.position + Vec3::new(3.0 * ring, 3.0 * ring, 0.0),
                    base.attitude,
                );
                FleetVehicle {
                    id: i as u32 + 1,
                    trajectory: straight_trajectory(start, self.speed_m_per_step(), steps),
                    beams: BeamModel::vlp16().with_azimuth_steps(self.azimuth_steps()),
                }
            })
            .collect();
        let mut config = FleetConfig {
            seed,
            threads: Some(threads),
            ..FleetConfig::default()
        };
        if self == Workload::LossyChaos {
            config.fault_plan = Some(chaos_plan());
            config.trust = Some(chaos_trust());
        }
        let sim = FleetSimulation::new(scene.world, vehicles, config);

        let medium = match self {
            Workload::RawBroadcast | Workload::ParkedIncremental => Medium::Perfect,
            Workload::GovernedFeatures => Medium::Shared(
                SharedMedium::new(DsrcChannel::new(DsrcConfig::default()))
                    .with_seed(seed)
                    .with_arq(ArqConfig::default()),
            ),
            Workload::LossyChaos => Medium::Shared(
                SharedMedium::new(DsrcChannel::new(DsrcConfig {
                    loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.10)),
                    corruption_probability: 0.01,
                    ..DsrcConfig::default()
                }))
                .with_seed(seed)
                .with_arq(ArqConfig::default()),
            ),
        };
        let governor = (self == Workload::GovernedFeatures).then(|| {
            (
                BandwidthGovernor::new(RoiCategory::FullFrame).with_features(),
                GovernorConfig {
                    delta_encode: true,
                    features: true,
                    keyframe_every: 5,
                    ..GovernorConfig::default()
                },
            )
        });
        Rig {
            sim,
            pipeline,
            medium,
            governor,
            steps,
        }
    }
}

/// The `chaos_sweep` campaign's faults: vehicle 2 appends 5 ghost car
/// clusters to every broadcast from step 1 on, and vehicle 3's GPS
/// random-walks at twice the realistic model's rated drift ceiling.
fn chaos_plan() -> FaultPlan {
    let drift = 2.0 * GpsImuModel::realistic().max_drift_m();
    FaultPlan::parse(&format!("2:ghost:5@1,3:drift:{drift:.3}")).expect("chaos fault plan parses")
}

/// The `chaos_sweep` trust calibration: a ghost cluster carries 60
/// points while sampling noise puts up to ~40 honest points into space
/// the ego saw as free, and two strikes quarantine for the rest of a
/// drive.
fn chaos_trust() -> TrustGuardConfig {
    let mut guard = TrustGuardConfig::default();
    guard.consistency.min_ghost_points = 50;
    guard.trust = TrustConfig {
        suspect_after: 1,
        quarantine_after: 2,
        quarantine_steps: 12,
        probation_clean_steps: 3,
    };
    guard
}

enum Medium {
    Perfect,
    Shared(SharedMedium),
}

/// A fleet, pipeline, channel and governor, built and ready for one
/// drive (channels and governors carry state, so each drive gets a
/// fresh rig).
pub struct Rig {
    sim: FleetSimulation,
    pipeline: CooperPipeline,
    medium: Medium,
    governor: Option<(BandwidthGovernor, GovernorConfig)>,
    steps: usize,
}

/// Everything one drive produced.
pub struct Drive {
    /// Wall time of the `run*` call alone.
    pub wall: Duration,
    /// When each step's exchange phase began.
    pub step_starts: Vec<Instant>,
    /// The fleet's per-step reports.
    pub reports: Vec<FleetStepReport>,
    /// The fleet's run statistics.
    pub stats: FleetStats,
    /// The channel decorator's tally.
    pub channel: Tally,
    /// The governor decorator's tally (zero when ungoverned).
    pub governor: Tally,
}

impl Rig {
    /// Runs the drive through the public fleet entry points, timing it
    /// from outside.
    pub fn drive(self) -> Drive {
        match self.medium {
            Medium::Perfect => drive_over(
                &self.sim,
                &self.pipeline,
                self.steps,
                self.governor,
                PerfectChannel,
            ),
            Medium::Shared(medium) => {
                drive_over(&self.sim, &self.pipeline, self.steps, self.governor, medium)
            }
        }
    }
}

fn drive_over<C: ChannelModel>(
    sim: &FleetSimulation,
    pipeline: &CooperPipeline,
    steps: usize,
    governor: Option<(BandwidthGovernor, GovernorConfig)>,
    channel: C,
) -> Drive {
    let mut channel = TimedChannel::new(channel);
    let start = Instant::now();
    let (reports, stats, governor) = match governor {
        Some((policy, config)) => {
            let mut policy = TimedPolicy::new(policy);
            let (reports, stats) =
                sim.run_governed(pipeline, steps, &mut channel, &mut policy, &config);
            (reports, stats, policy.tally())
        }
        None => {
            let (reports, stats) = sim.run_with_channel(pipeline, steps, &mut channel);
            (reports, stats, Tally::default())
        }
    };
    let wall = start.elapsed();
    Drive {
        wall,
        step_starts: channel.step_starts().to_vec(),
        reports,
        stats,
        channel: channel.tally(),
        governor,
    }
}

/// Seeds one run cycles its drives through: the run's own seed, then
/// seeds derived from it. Detection counts, memory and per-step work all
/// move with the seed (pose noise changes what fuses), so a run averages
/// over several instead of resting on one.
pub const SEEDS_PER_RUN: usize = 4;

/// The `k`-th seed of a run with seed `seed` (`k = 0` is `seed` itself).
pub fn drive_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    // SplitMix64 finalizer.
    let mut z = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The deterministic outcome of a drive: what must be identical across
/// drives and thread counts, and the quality numbers derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-64 of each step's `deterministic_view()`.
    pub step_digests: Vec<u64>,
    /// FNV-64 of the run statistics.
    pub stats_digest: u64,
    /// Σ cooperative detections over vehicles and steps.
    pub fused_det: usize,
    /// Σ ego-only detections over vehicles and steps.
    pub ego_det: usize,
    /// Exchange bytes moved.
    pub wire_bytes: u64,
    /// Directed transfers attempted: both directions of every in-range
    /// pair, every step.
    pub transfers: u64,
    /// Directed transfers that reached no fusion: transport drops other
    /// than salvaged partial deliveries, counted once per transfer.
    pub transfers_failed: u64,
}

impl Outcome {
    /// Derives the outcome of `drive`.
    pub fn of(drive: &Drive) -> Outcome {
        let mut failed = std::collections::BTreeSet::new();
        for report in &drive.reports {
            for drop in &report.transport_drops {
                if !matches!(drop.reason, TransportDropReason::PartialDelivery { .. }) {
                    failed.insert((report.step, drop.from, drop.to));
                }
            }
        }
        Outcome {
            step_digests: drive
                .reports
                .iter()
                .map(|r| fnv64(format!("{:?}", r.deterministic_view()).as_bytes()))
                .collect(),
            stats_digest: fnv64(format!("{:?}", drive.stats).as_bytes()),
            fused_det: drive
                .reports
                .iter()
                .flat_map(|r| &r.per_vehicle)
                .map(|v| v.cooperative_detections)
                .sum(),
            ego_det: drive
                .reports
                .iter()
                .flat_map(|r| &r.per_vehicle)
                .map(|v| v.single_detections)
                .sum(),
            wire_bytes: drive.stats.total_bytes,
            transfers: 2 * drive.stats.connection_steps.values().sum::<usize>() as u64,
            transfers_failed: failed.len() as u64,
        }
    }

    /// One digest over the whole drive.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * (self.step_digests.len() + 1));
        for d in self.step_digests.iter().chain([&self.stats_digest]) {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        fnv64(&bytes)
    }

    /// Where `other` first departs from `self`: a step index, `stats`,
    /// or `None` when the two agree.
    pub fn first_difference(&self, other: &Outcome) -> Option<String> {
        let steps = self.step_digests.len().max(other.step_digests.len());
        (0..steps)
            .find(|&s| self.step_digests.get(s) != other.step_digests.get(s))
            .map(|s| format!("step {s}"))
            .or_else(|| (self != other).then(|| "run statistics".to_string()))
    }
}

/// Gaps between successive step starts, milliseconds, dropping the
/// first gap of the drive (step 0 fills the caches and trackers every
/// later step reuses).
pub fn step_gaps_ms(step_starts: &[Instant]) -> Vec<f64> {
    step_starts
        .windows(2)
        .skip(1)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn chaos_settings_target_the_right_vehicles() {
        let plan = chaos_plan();
        assert!(plan.faults().iter().any(|f| f.vehicle_id == 2));
        assert!(plan.faults().iter().any(|f| f.vehicle_id == 3));
        assert!(chaos_trust().validate().is_ok());
    }

    #[test]
    fn step_gaps_drop_the_first() {
        let t0 = Instant::now();
        let starts: Vec<Instant> = [0, 5, 12, 20]
            .iter()
            .map(|&ms| t0 + Duration::from_millis(ms))
            .collect();
        let gaps = step_gaps_ms(&starts);
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0] - 7.0).abs() < 1e-9 && (gaps[1] - 8.0).abs() < 1e-9);
        assert!(step_gaps_ms(&starts[..1]).is_empty());
    }

    #[test]
    fn drive_seeds_keep_the_run_seed_first_and_differ() {
        assert_eq!(drive_seed(41, 0), 41);
        let seeds: Vec<u64> = (0..SEEDS_PER_RUN).map(|k| drive_seed(41, k)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(!seeds[i + 1..].contains(a), "{seeds:?}");
        }
        assert_ne!(drive_seed(41, 1), drive_seed(42, 1));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
