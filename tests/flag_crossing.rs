//! Fleet invariants across random combinations of run options: the
//! transport channel (with loss, ARQ and corruption), delta encoding,
//! feature exchange and its fusion mode, the ROI cap, the alignment
//! guard, a fault plan, the trust guard and the tracker, crossed with a
//! random seed. The CI goldens pin eleven named combinations; these
//! properties cover the ones between them.
//!
//! Telemetry and tracing are process-global, so this file is a binary of
//! its own and its two properties take turns on the registry: a fleet
//! of one property must not leave trace marks in the other's buffer.

#[path = "support/trace_join.rs"]
mod trace_join;

use std::sync::{Mutex, MutexGuard};

use cooper_core::channel::{ChannelModel, PerfectChannel};
use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetStats, FleetStepReport, FleetVehicle,
    TrustGuardConfig,
};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{AlignmentGuardConfig, CooperPipeline, GovernorConfig};
use cooper_lidar_sim::{scenario, BeamModel, FaultPlan};
use cooper_pointcloud::roi::RoiCategory;
use cooper_spod::{FeatureFusionMode, SpodConfig, SpodDetector};
use cooper_v2x::{
    ArqConfig, BandwidthGovernor, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, SharedMedium,
};
use proptest::prelude::*;
use trace_join::assert_drops_join;

const VEHICLES: usize = 3;
const STEPS: usize = 3;
const AZIMUTH_STEPS: usize = 300;

/// The transport model of one case.
#[derive(Debug, Clone, Copy)]
enum Channel {
    Perfect,
    /// A shared DSRC medium with independent (`burst == false`) or
    /// Gilbert–Elliott burst loss at the long-run rate `loss`.
    Lossy {
        burst: bool,
        loss: f64,
        arq_retries: usize,
        corruption: f64,
    },
}

/// One random combination of run options.
#[derive(Debug, Clone)]
struct Flags {
    seed: u64,
    channel: Channel,
    /// The keyframe cadence when delta encoding is on.
    delta: Option<u32>,
    /// The fusion mode when the feature tier is on.
    features: Option<FeatureFusionMode>,
    roi: Option<RoiCategory>,
    align_guard: bool,
    /// A `FaultPlan` spec.
    faults: Option<String>,
    trust_guard: bool,
    tracker: bool,
}

/// Fault entries a case draws from, one bit each: GPS drift, ghost
/// clusters, a scan replay and a frozen pose.
const FAULTS: [&str; 4] = ["drift:0.5@0", "ghost:3@1", "replay@1", "freeze@1"];

/// A random subset of the run options: the channel kind is `bits % 3`,
/// and each other option is on when its own bit of `bits` is set.
fn flags() -> impl Strategy<Value = Flags> {
    (
        any::<u32>(),
        any::<u64>(),
        0.0..0.3f64,
        1..4usize,
        0.0..0.03f64,
        1..4u32,
    )
        .prop_map(
            |(bits, seed, loss, arq_retries, corruption, keyframe_every)| {
                let bit = |i: u32| (bits >> i) & 1 == 1;
                let channel = match bits % 3 {
                    0 => Channel::Perfect,
                    kind => Channel::Lossy {
                        burst: kind == 2,
                        loss,
                        arq_retries: if bit(2) { arq_retries } else { 0 },
                        corruption: if bit(3) { corruption } else { 0.0 },
                    },
                };
                let fusion = if bit(6) {
                    FeatureFusionMode::Adaptive
                } else {
                    FeatureFusionMode::Max
                };
                let roi = [RoiCategory::FrontFov120, RoiCategory::ForwardOneWay]
                    [((bits >> 8) & 1) as usize];
                let faults: Vec<String> = FAULTS
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| bit(10 + k as u32))
                    .map(|(k, fault)| {
                        let vehicle = 1 + (bits >> (16 + 2 * k)) % VEHICLES as u32;
                        format!("{vehicle}:{fault}")
                    })
                    .collect();
                Flags {
                    seed,
                    channel,
                    delta: bit(4).then_some(keyframe_every),
                    features: bit(5).then_some(fusion),
                    roi: bit(7).then_some(roi),
                    align_guard: bit(9),
                    faults: (!faults.is_empty()).then(|| faults.join(",")),
                    trust_guard: bit(14),
                    tracker: bit(15),
                }
            },
        )
}

/// Runs `flags` on tj1's first three observers at `threads` workers, as
/// `cooper simulate` would: any governor option takes the governed
/// exchange, otherwise the plain one.
fn drive(flags: &Flags, threads: usize) -> (Vec<FleetStepReport>, FleetStats) {
    let scene = scenario::tj_scenario_1();
    let vehicles = scene.observers[..VEHICLES]
        .iter()
        .enumerate()
        .map(|(i, pose)| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(*pose, 1.0, STEPS),
            beams: BeamModel::vlp16().with_azimuth_steps(AZIMUTH_STEPS),
        })
        .collect();
    let fault_plan = flags
        .faults
        .as_deref()
        .map(|spec| FaultPlan::parse(spec).expect("generated fault plans parse"));
    let sim = FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed: flags.seed,
            threads: Some(threads),
            fault_plan,
            trust: flags.trust_guard.then(TrustGuardConfig::default),
            ..FleetConfig::default()
        },
    );
    let mut pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()))
        .with_fusion_mode(flags.features.unwrap_or(FeatureFusionMode::Max));
    if flags.align_guard {
        pipeline = pipeline.with_alignment_guard(AlignmentGuardConfig::default());
    }
    if flags.tracker {
        pipeline = pipeline.with_tracker(TrackerConfig::default());
    }
    let mut channel: Box<dyn ChannelModel> = match flags.channel {
        Channel::Perfect => Box::new(PerfectChannel),
        Channel::Lossy {
            burst,
            loss,
            arq_retries,
            corruption,
        } => {
            let (loss_probability, loss_model) = if burst {
                let ge = GilbertElliott::from_loss_rate(loss);
                (0.0, LossModel::GilbertElliott(ge))
            } else {
                (loss, LossModel::Independent)
            };
            let config = DsrcConfig {
                loss_probability,
                loss_model,
                corruption_probability: corruption,
                ..DsrcConfig::default()
            };
            let mut medium = SharedMedium::new(DsrcChannel::new(config)).with_seed(flags.seed);
            if arq_retries > 0 {
                medium = medium.with_arq(ArqConfig {
                    max_retries: arq_retries,
                });
            }
            Box::new(medium)
        }
    };
    if flags.roi.is_none() && flags.delta.is_none() && flags.features.is_none() {
        return sim.run_with_channel(&pipeline, STEPS, channel.as_mut());
    }
    let mut policy = BandwidthGovernor::new(flags.roi.unwrap_or(RoiCategory::FullFrame));
    if flags.features.is_some() {
        policy = policy.with_features();
    }
    let defaults = GovernorConfig::default();
    let governor = GovernorConfig {
        delta_encode: flags.delta.is_some(),
        keyframe_every: flags.delta.unwrap_or(defaults.keyframe_every),
        features: flags.features.is_some(),
        ..defaults
    };
    sim.run_governed(&pipeline, STEPS, channel.as_mut(), &mut policy, &governor)
}

/// Held while a case owns the telemetry registry.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reports_are_identical_at_one_and_two_threads(flags in flags()) {
        let _registry = registry();
        // Shown only when the property fails: the last line names the
        // failing case.
        println!("{flags:?}");
        let (one, one_stats) = drive(&flags, 1);
        let (two, two_stats) = drive(&flags, 2);
        prop_assert_eq!(one_stats, two_stats);
        prop_assert!(one == two, "reports differ at 1 and 2 threads");
    }

    #[test]
    fn every_transfer_ends_once_and_every_drop_joins_its_stage(flags in flags()) {
        let _registry = registry();
        println!("{flags:?}");
        cooper_telemetry::reset();
        cooper_telemetry::enable();
        cooper_telemetry::set_tracing(true);
        let (reports, _) = drive(&flags, 2);
        let trace = cooper_telemetry::take_trace();
        cooper_telemetry::set_tracing(false);
        cooper_telemetry::disable();
        cooper_telemetry::reset();
        assert_drops_join(&reports, &trace);
    }
}
