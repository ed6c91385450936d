//! Implementation of the `cooper` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin shell around [`run`]; all
//! parsing and dispatch lives here so it is unit-testable. Commands:
//!
//! ```text
//! cooper train     --out weights.bin [--scenes N] [--epochs N] [--seed N]
//! cooper scan      --scenario NAME --observer N --out scan.ply [--beams vlp16|hdl32|hdl64]
//! cooper detect    --input cloud.ply|cloud.xyz [--weights weights.bin] [--threshold T] [--bev]
//! cooper evaluate  --scenario NAME [--pair N] [--weights weights.bin]
//! cooper simulate  --scenario NAME [--seconds N] [--seed N] [--threads N] [--weights weights.bin]
//! cooper profile   --scenario NAME [--vehicles N] [--steps N] [--trace-out trace.json]
//! cooper convert   --input a.xyz --out b.ply
//! cooper scenarios
//! ```
//!
//! Every command accepts `--telemetry`, which enables the global
//! [`cooper_telemetry`] registry for the run and prints the snapshot
//! table (spans, counters, gauges, value histograms) afterwards, and
//! `--help`. A flag its command does not read, or that its run would
//! ignore, is a usage error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use cooper_core::channel::{ChannelModel, PerfectChannel};
use cooper_core::fleet::TransportDropReason;
use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetVehicle, TrustGuardConfig,
};
use cooper_core::report::{evaluate_pair, EvaluationConfig};
use cooper_core::tracking::TrackerConfig;
use cooper_core::viz::{render_bev, BevViewConfig};
use cooper_core::{
    AlignmentGuardConfig, CooperPipeline, ExchangePacket, GovernorConfig, PerceiveCtx, GPS_ANCHOR,
};
use cooper_geometry::{Pose, Vec3};
use cooper_lidar_sim::scenario::{self, Scenario};
use cooper_lidar_sim::{BeamModel, FaultPlan, LidarScanner, PoseEstimate};
use cooper_pointcloud::io::{read_pcd, read_ply, read_xyz, write_pcd, write_ply, write_xyz};
use cooper_pointcloud::roi::RoiCategory;
use cooper_pointcloud::PointCloud;
use cooper_spod::train::{train, TrainingConfig};
use cooper_spod::{DetectOptions, DetectScratch, FeatureFusionMode, SpodConfig, SpodDetector};
use cooper_v2x::{
    ArqConfig, BandwidthGovernor, DsrcChannel, DsrcConfig, ExchangeScheduler, GilbertElliott,
    LossModel, SharedMedium,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A CLI failure: the message shown to the user (exit code 1 or 2).
#[derive(Debug, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// `true` for usage errors (exit 2), `false` for runtime failures
    /// (exit 1).
    pub usage: bool,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: true,
        }
    }
    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: false,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parsed `--flag value` options plus positional arguments.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional).
    pub command: String,
    /// `--flag value` pairs; bare flags map to `"true"`.
    pub options: HashMap<String, String>,
}

/// Bare flags every command accepts.
const GLOBAL_FLAGS: &[&str] = &["--help", "--telemetry"];

/// Per command, the flags it reads besides [`GLOBAL_FLAGS`]: those that
/// take a value, then the bare ones. Any other flag is a usage error,
/// so a misspelt flag can neither be ignored nor take the next flag as
/// its value.
const COMMAND_FLAGS: &[(&str, &[&str], &[&str])] = &[
    ("help", &[], &[]),
    ("scenarios", &[], &[]),
    ("train", &["--out", "--scenes", "--epochs", "--seed"], &[]),
    (
        "scan",
        &["--scenario", "--observer", "--out", "--beams", "--seed"],
        &[],
    ),
    (
        "detect",
        &["--input", "--weights", "--threshold"],
        &["--bev"],
    ),
    ("evaluate", &["--scenario", "--pair", "--weights"], &[]),
    (
        "simulate",
        &[
            "--scenario",
            "--seconds",
            "--seed",
            "--threads",
            "--weights",
            "--channel",
            "--loss",
            "--arq-retries",
            "--roi",
            "--keyframe-every",
            "--fusion",
            "--fault-plan",
            "--icp-iters",
            "--corruption",
        ],
        &[
            "--delta-encode",
            "--features",
            "--align-guard",
            "--trust-guard",
            "--tracker",
        ],
    ),
    (
        "profile",
        &[
            "--scenario",
            "--scene",
            "--vehicles",
            "--steps",
            "--threads",
            "--seed",
            "--trace-out",
        ],
        &[],
    ),
    ("convert", &["--input", "--out"], &[]),
];

/// Parses raw arguments (without the program name).
///
/// An unknown command parses with no options; [`run`] rejects it.
///
/// # Errors
///
/// Returns a usage error for a missing command, a positional argument,
/// a flag the command does not read, or a flag without a value.
pub fn parse_args(args: &[String]) -> Result<ParsedArgs, CliError> {
    let mut parsed = ParsedArgs::default();
    let mut it = args.iter();
    match it.next() {
        Some(cmd) if !cmd.starts_with("--") => parsed.command = cmd.clone(),
        Some(flag) if flag == "--help" => {
            parsed.command = "help".into();
            return Ok(parsed);
        }
        _ => return Err(CliError::usage(usage())),
    }
    let Some(&(_, valued, bare)) = COMMAND_FLAGS
        .iter()
        .find(|(command, _, _)| *command == parsed.command)
    else {
        return Ok(parsed);
    };
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            return Err(CliError::usage(format!(
                "unexpected positional argument {arg:?}"
            )));
        }
        let value = if GLOBAL_FLAGS.contains(&arg.as_str()) || bare.contains(&arg.as_str()) {
            "true".to_string()
        } else if valued.contains(&arg.as_str()) {
            match it.next() {
                Some(value) if !value.starts_with("--") => value.clone(),
                _ => return Err(CliError::usage(format!("flag {arg} requires a value"))),
            }
        } else {
            return Err(CliError::usage(format!(
                "unknown flag {arg} for `cooper {}`",
                parsed.command
            )));
        };
        parsed.options.insert(arg.clone(), value);
    }
    Ok(parsed)
}

/// The usage text.
pub fn usage() -> String {
    "cooper — cooperative perception for connected autonomous vehicles

USAGE:
  cooper train     --out weights.bin [--scenes N] [--epochs N] [--seed N]
  cooper scan      --scenario NAME --observer N --out scan.ply [--beams vlp16|hdl32|hdl64] [--seed N]
  cooper detect    --input cloud.ply|cloud.xyz [--weights weights.bin] [--threshold T] [--bev]
  cooper evaluate  --scenario NAME [--pair N] [--weights weights.bin]
  cooper simulate  --scenario NAME [--seconds N] [--seed N] [--threads N] [--weights weights.bin]
                   [--channel perfect|iid|gilbert-elliott] [--loss P] [--arq-retries N]
                   [--roi full|front120|forward] [--delta-encode] [--keyframe-every N]
                   [--features] [--fusion max|adaptive]
                   [--fault-plan SPEC] [--align-guard] [--icp-iters N]
                   [--corruption P] [--trust-guard]
                   [--tracker]
  cooper profile   --scenario NAME [--vehicles N] [--steps N] [--threads N] [--seed N]
                   [--trace-out trace.json]
  cooper convert   --input a.xyz|a.ply|a.pcd --out b.xyz|b.ply|b.pcd
  cooper scenarios

Any command accepts --telemetry to print a span/metric snapshot table
after the run, and --help; any flag a command does not read, or that
its run would ignore, is a usage error. `simulate --threads N` sets
the worker-pool size for the parallel fleet phases; its stdout is
bit-identical at every N.
`simulate --channel` picks the fleet's transport model: perfect
(default, every in-range packet arrives), iid (independent per-frame
loss with probability --loss) or gilbert-elliott (two-state burst loss
with long-run rate --loss). --arq-retries N (with a lossy channel)
retransmits lost fragments up to N rounds within each step's delivery
deadline; what misses the deadline is salvaged as a partial cloud.
--roi and/or --delta-encode run the fleet through the bandwidth
governor: per transfer it picks an ROI (capped at --roi) from the
receiver's blind sectors and degrades gracefully under the channel's
air-time budget. --delta-encode switches broadcasts to wire-format v2
(static background subtracted, delta frames against the last keyframe,
a keyframe every --keyframe-every steps, default 5). --features adds
the feature-exchange tier to the governed candidate menu: senders offer
quantized BEV feature maps (wire-format v3) next to the raw frames and
a feature-preferring governor ships those instead of points; receivers
fuse them ahead of the detection head, elementwise max by default or
confidence-weighted with --fusion adaptive.
--tracker smooths each vehicle's cooperative detections across steps
with a track-level temporal filter (nearest-neighbour association,
confirm-after-2-hits, coast-through-misses): per-vehicle confirmed and
coasting track counts join the step lines and a per-vehicle tracker
summary is printed after the run.
--fault-plan injects faults into the fleet's broadcasts; the spec is
comma-separated VEHICLE:KIND[:PARAMS][@FROM[..UNTIL]] entries with pose
kinds drift:SIGMA, bias:EAST:NORTH, yaw:RAD, freeze and stale:AGE, plus
adversarial sender kinds ghost:N (N fabricated car-sized clusters in
every transmitted scan), replay (retransmit the scan captured at fault
onset, stamp and all) and corrupt:RATE (flip roughly RATE of outgoing
payload bytes at the source) — e.g. \"2:drift:0.5@3..8,3:ghost:2@4\".
--align-guard turns on the receiver-side alignment guard: every
received cloud is scored on sender/receiver overlap, ICP-refined when
recoverable (at most --icp-iters iterations, default 10) and rejected
to ego-only fallback when not. --corruption P (with a lossy channel)
damages delivered frames in flight with probability P — bit flips or
mid-frame truncation the link layer reports as corrupted. --trust-guard
turns on the content-integrity and sender-trust layer: broadcasts carry
CRC-32 trailers verified at the receiver, every delivered cloud is
screened against the ego scan's observed free space and the sender's
motion history (ghost clusters, teleports, replayed stamps), and
senders that keep failing are quarantined per receiver — their
transfers are skipped until the quarantine elapses and a clean
probation earns them back. Step lines gain per-vehicle violation and
quarantine columns, and a per-vehicle trust summary follows the run.
Both guards screen point-cloud packets only: --features frames pass the
alignment guard and the consistency screen unchecked.
`profile` runs a fleet (default 4 vehicles, 2 steps) with the tracing
profiler on: it prints a ranked self-time table over the SPOD sub-phases
(preprocess, voxelize, vfe, conv1, conv2, bev, rpn, nms) and the
coverage of pipeline.perceive they explain, and with --trace-out PATH
writes a Chrome trace-event JSON (open in chrome://tracing or Perfetto;
one lane per worker thread) of every span and per-transfer trace mark.
`--scene` is accepted as an alias of --scenario.

Scenario names: kitti1 kitti2 kitti3 kitti4 tj1 tj2 tj3 tj4"
        .to_string()
}

fn scenario_by_name(name: &str) -> Result<Scenario, CliError> {
    Ok(match name {
        "kitti1" => scenario::t_junction(),
        "kitti2" => scenario::stop_sign(),
        "kitti3" => scenario::left_turn(),
        "kitti4" => scenario::curve(),
        "tj1" => scenario::tj_scenario_1(),
        "tj2" => scenario::tj_scenario_2(),
        "tj3" => scenario::tj_scenario_3(),
        "tj4" => scenario::tj_scenario_4(),
        other => {
            return Err(CliError::usage(format!(
                "unknown scenario {other:?} (run `cooper scenarios`)"
            )))
        }
    })
}

fn beams_by_name(name: &str) -> Result<BeamModel, CliError> {
    Ok(match name {
        "vlp16" => BeamModel::vlp16(),
        "hdl32" => BeamModel::hdl32(),
        "hdl64" => BeamModel::hdl64(),
        other => return Err(CliError::usage(format!("unknown beam model {other:?}"))),
    })
}

fn read_cloud(path: &str) -> Result<PointCloud, CliError> {
    let file =
        File::open(path).map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    let reader = BufReader::new(file);
    let result = if path.ends_with(".ply") {
        read_ply(reader)
    } else if path.ends_with(".pcd") {
        read_pcd(reader)
    } else {
        read_xyz(reader)
    };
    result.map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))
}

fn write_cloud(cloud: &PointCloud, path: &str) -> Result<(), CliError> {
    let file =
        File::create(path).map_err(|e| CliError::runtime(format!("cannot create {path}: {e}")))?;
    let writer = BufWriter::new(file);
    let result = if path.ends_with(".ply") {
        write_ply(cloud, writer)
    } else if path.ends_with(".pcd") {
        write_pcd(cloud, writer)
    } else {
        write_xyz(cloud, writer)
    };
    result.map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))
}

fn load_or_train_detector(options: &HashMap<String, String>) -> Result<SpodDetector, CliError> {
    match options.get("--weights") {
        Some(path) if Path::new(path).exists() => {
            let bytes = std::fs::read(path)
                .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
            SpodDetector::from_bytes(&bytes)
                .map_err(|e| CliError::runtime(format!("cannot load {path}: {e}")))
        }
        Some(path) => Err(CliError::runtime(format!(
            "weight file {path} does not exist"
        ))),
        None => {
            eprintln!("no --weights given; training a detector (fast config)…");
            Ok(SpodDetector::train_default(&TrainingConfig::fast()))
        }
    }
}

fn get_parse<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    match options.get(flag) {
        Some(raw) => raw
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value for {flag}: {raw:?}"))),
        None => Ok(default),
    }
}

fn require<'a>(options: &'a HashMap<String, String>, flag: &str) -> Result<&'a str, CliError> {
    options
        .get(flag)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("{flag} is required")))
}

/// Everything `cooper profile` measured, returned as data so callers
/// (and the profile smoke test) can assert on it without capturing
/// stdout.
#[derive(Debug)]
pub struct ProfileReport {
    /// Vehicles in the profiled fleet.
    pub vehicles: usize,
    /// Simulation steps profiled.
    pub steps: usize,
    /// Percentage of perceive-phase CPU time attributed to named stages
    /// inside the pipeline entry points (the SPOD sub-phases, fusion)
    /// rather than to the entry points' own self time. Payload decode
    /// runs before `pipeline.perceive` opens, so it counts on neither
    /// side.
    pub coverage_pct: f64,
    /// Ranked self-time table (stage, count, self_ms, total_ms, share).
    pub table: String,
    /// Chrome trace-event JSON for the whole run (spans as duration
    /// slices on per-thread lanes, per-transfer marks as instants).
    pub trace_json: String,
    /// Number of distinct thread lanes in the trace.
    pub lane_count: usize,
}

/// Runs the perceive-phase profiler: a fleet simulation over `scene_name`
/// with telemetry and tracing enabled, returning the ranked self-time
/// table, the SPOD sub-phase coverage of `pipeline.perceive`, and the
/// Chrome trace.
///
/// Owns the global telemetry registry for the duration of the call
/// (resets it before and after), so callers must not run it concurrently
/// with other registry users.
///
/// # Errors
///
/// Returns a usage error for a zero `vehicle_count`/`steps` or an
/// unknown scenario.
pub fn run_profile(
    scene_name: &str,
    vehicle_count: usize,
    steps: usize,
    threads: Option<usize>,
    seed: u64,
) -> Result<ProfileReport, CliError> {
    if vehicle_count == 0 {
        return Err(CliError::usage("--vehicles must be at least 1"));
    }
    if steps == 0 {
        return Err(CliError::usage("--steps must be at least 1"));
    }
    let scene = scenario_by_name(scene_name)?;
    // Fleets larger than the scenario's observer set reuse the observer
    // poses shifted sideways ring by ring, so every vehicle still scans
    // meaningful geometry.
    let vehicles: Vec<FleetVehicle> = (0..vehicle_count)
        .map(|i| {
            let base = scene.observers[i % scene.observers.len()];
            let ring = (i / scene.observers.len()) as f64;
            let start = Pose::new(
                base.position + Vec3::new(3.0 * ring, 3.0 * ring, 0.0),
                base.attitude,
            );
            FleetVehicle {
                id: i as u32 + 1,
                trajectory: straight_trajectory(start, 1.0, steps),
                beams: scene.kind.beam_model(),
            }
        })
        .collect();
    // Untrained detector: the profiler measures where time goes, not
    // detection accuracy, and training would dwarf the traced run.
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let sim = FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed,
            threads,
            ..FleetConfig::default()
        },
    );
    cooper_telemetry::reset();
    cooper_telemetry::enable();
    cooper_telemetry::set_tracing(true);
    let mut channel = PerfectChannel;
    let (_reports, _stats) = sim.run_with_channel(&pipeline, steps, &mut channel);
    let snapshot = cooper_telemetry::snapshot();
    let trace = cooper_telemetry::take_trace();
    cooper_telemetry::set_tracing(false);
    cooper_telemetry::disable();
    cooper_telemetry::reset();

    // Time the entry points spend outside every named stage (their own
    // glue code) is the part the table cannot attribute.
    let entry_self: u64 = snapshot
        .self_times_by_name()
        .iter()
        .filter(|e| {
            e.name == cooper_telemetry::names::SPAN_PIPELINE_PERCEIVE
                || e.name == cooper_telemetry::names::SPAN_PIPELINE_PERCEIVE_SINGLE
        })
        .map(|e| e.self_us)
        .sum();
    // Perceive-phase CPU total: every entry into the pipeline during
    // phase 3 — cooperative `pipeline.perceive` plus the standalone
    // ego-baseline `pipeline.perceive_single` roots (the ones not
    // already nested inside a `pipeline.perceive`). Summing totals over
    // entry points counts each worker thread's time once, so the ratio
    // is meaningful at any thread count.
    let perceive_total: u64 = snapshot
        .spans
        .iter()
        .filter(|s| {
            s.name == cooper_telemetry::names::SPAN_PIPELINE_PERCEIVE
                || (s.name == cooper_telemetry::names::SPAN_PIPELINE_PERCEIVE_SINGLE
                    && !s
                        .path
                        .split('/')
                        .any(|seg| seg == cooper_telemetry::names::SPAN_PIPELINE_PERCEIVE))
        })
        .map(|s| s.total_us)
        .sum();
    let coverage_pct = if perceive_total == 0 {
        0.0
    } else {
        perceive_total.saturating_sub(entry_self) as f64 / perceive_total as f64 * 100.0
    };
    Ok(ProfileReport {
        vehicles: vehicle_count,
        steps,
        coverage_pct,
        table: snapshot.render_self_time_table(),
        trace_json: trace.to_chrome_json(),
        lane_count: trace.lane_count,
    })
}

/// Executes a parsed command, printing results to stdout.
///
/// With `--telemetry`, the global [`cooper_telemetry`] registry is
/// enabled for the duration of the command and a snapshot table is
/// printed after a successful run.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn run(parsed: &ParsedArgs) -> Result<(), CliError> {
    let telemetry = parsed.options.contains_key("--telemetry");
    if telemetry {
        cooper_telemetry::reset();
        cooper_telemetry::enable();
    }
    let result = dispatch(parsed);
    if telemetry {
        cooper_telemetry::disable();
        if result.is_ok() {
            println!("{}", cooper_telemetry::snapshot().render_table());
        }
        cooper_telemetry::reset();
    }
    result
}

fn dispatch(parsed: &ParsedArgs) -> Result<(), CliError> {
    if parsed.command == "help" || parsed.options.contains_key("--help") {
        println!("{}", usage());
        return Ok(());
    }
    match parsed.command.as_str() {
        "scenarios" => {
            println!("name     description");
            for (name, scene) in [
                ("kitti1", scenario::t_junction()),
                ("kitti2", scenario::stop_sign()),
                ("kitti3", scenario::left_turn()),
                ("kitti4", scenario::curve()),
                ("tj1", scenario::tj_scenario_1()),
                ("tj2", scenario::tj_scenario_2()),
                ("tj3", scenario::tj_scenario_3()),
                ("tj4", scenario::tj_scenario_4()),
            ] {
                println!(
                    "{name:8} {} — {} observers, {} pairs, {} cars",
                    scene.name,
                    scene.observers.len(),
                    scene.pairs.len(),
                    scene.ground_truth_cars().len()
                );
            }
            Ok(())
        }
        "train" => {
            let out = require(&parsed.options, "--out")?;
            let training = TrainingConfig {
                scenes: get_parse(&parsed.options, "--scenes", 120usize)?,
                epochs: get_parse(&parsed.options, "--epochs", 4usize)?,
                seed: get_parse(&parsed.options, "--seed", 42u64)?,
                ..TrainingConfig::standard()
            };
            training
                .validate()
                .map_err(|msg| CliError::usage(format!("invalid training config: {msg}")))?;
            eprintln!(
                "training on {} scenes × {} epochs…",
                training.scenes, training.epochs
            );
            let detector = train(SpodConfig::default(), &training);
            let bytes = detector.to_bytes();
            std::fs::write(out, &bytes)
                .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
            println!("wrote {} ({} bytes)", out, bytes.len());
            Ok(())
        }
        "scan" => {
            let scene = scenario_by_name(require(&parsed.options, "--scenario")?)?;
            let out = require(&parsed.options, "--out")?;
            let observer: usize = get_parse(&parsed.options, "--observer", 0)?;
            let seed: u64 = get_parse(&parsed.options, "--seed", 1)?;
            let beams = match parsed.options.get("--beams") {
                Some(name) => beams_by_name(name)?,
                None => scene.kind.beam_model(),
            };
            let pose = *scene.observers.get(observer).ok_or_else(|| {
                CliError::usage(format!(
                    "observer {observer} out of range (scenario has {})",
                    scene.observers.len()
                ))
            })?;
            let scan = LidarScanner::new(beams).scan(&scene.world, &pose, seed);
            write_cloud(&scan, out)?;
            println!("wrote {} points to {}", scan.len(), out);
            Ok(())
        }
        "detect" => {
            let threshold: f32 = get_parse(&parsed.options, "--threshold", 0.5)?;
            if !(0.0..=1.0).contains(&threshold) {
                return Err(CliError::usage("--threshold must be in [0, 1]"));
            }
            let cloud = read_cloud(require(&parsed.options, "--input")?)?;
            let detector = load_or_train_detector(&parsed.options)?;
            let options = DetectOptions::default().with_threshold(threshold);
            let detections = detector.detect_with(&cloud, &options, &mut DetectScratch::new());
            println!("{} detections on {} points:", detections.len(), cloud.len());
            for d in &detections {
                println!("  {d}");
            }
            if parsed.options.contains_key("--bev") {
                println!(
                    "{}",
                    render_bev(
                        &cloud.downsampled(1 + cloud.len() / 4000),
                        &detections,
                        &[],
                        &BevViewConfig::default()
                    )
                );
            }
            Ok(())
        }
        "evaluate" => {
            let scene = scenario_by_name(require(&parsed.options, "--scenario")?)?;
            let pair: usize = get_parse(&parsed.options, "--pair", 0)?;
            if pair >= scene.pairs.len() {
                return Err(CliError::usage(format!(
                    "pair {pair} out of range (scenario has {})",
                    scene.pairs.len()
                )));
            }
            let detector = load_or_train_detector(&parsed.options)?;
            let pipeline = CooperPipeline::new(detector);
            let eval = evaluate_pair(&pipeline, &scene, pair, &EvaluationConfig::default());
            println!("{}", eval.render_matrix());
            println!(
                "single A: {} cars ({:.0} %), single B: {} cars ({:.0} %), Cooper: {} cars ({:.0} %)",
                eval.detected_a(),
                eval.accuracy_a(),
                eval.detected_b(),
                eval.accuracy_b(),
                eval.detected_coop(),
                eval.accuracy_coop()
            );
            Ok(())
        }
        "simulate" => {
            let scene = scenario_by_name(require(&parsed.options, "--scenario")?)?;
            let seconds: usize = get_parse(&parsed.options, "--seconds", 3)?;
            if seconds == 0 {
                return Err(CliError::usage("--seconds must be at least 1"));
            }
            let seed: u64 = get_parse(&parsed.options, "--seed", 1)?;
            let threads = parsed
                .options
                .get("--threads")
                .map(|raw| {
                    raw.parse::<usize>().map_err(|_| {
                        CliError::usage(format!("invalid value for --threads: {raw:?}"))
                    })
                })
                .transpose()?;
            if let Some(n) = threads {
                if n == 0 {
                    return Err(CliError::usage("--threads must be at least 1"));
                }
                cooper_exec::set_default_threads(Some(n));
            }
            // Validate the transport flags up front, before any work.
            let channel_kind = parsed
                .options
                .get("--channel")
                .map(String::as_str)
                .unwrap_or("perfect");
            let loss: f64 = get_parse(&parsed.options, "--loss", 0.1)?;
            let arq_retries: usize = get_parse(&parsed.options, "--arq-retries", 0)?;
            let fleet_loss_model = match channel_kind {
                "perfect" => None,
                "iid" => {
                    if !(0.0..1.0).contains(&loss) {
                        return Err(CliError::usage("--loss must be in [0, 1) for iid"));
                    }
                    Some(LossModel::Independent)
                }
                "gilbert-elliott" => {
                    if !(0.0..0.7).contains(&loss) {
                        return Err(CliError::usage(
                            "--loss must be in [0, 0.7) for gilbert-elliott",
                        ));
                    }
                    Some(LossModel::GilbertElliott(GilbertElliott::from_loss_rate(
                        loss,
                    )))
                }
                other => {
                    return Err(CliError::usage(format!(
                        "unknown --channel {other:?} (perfect, iid or gilbert-elliott)"
                    )))
                }
            };
            for flag in ["--loss", "--arq-retries", "--corruption"] {
                if fleet_loss_model.is_none() && parsed.options.contains_key(flag) {
                    return Err(CliError::usage(format!(
                        "{flag} requires a lossy --channel (iid or gilbert-elliott)"
                    )));
                }
            }
            // Governor flags: any one turns the governed exchange
            // path on.
            let delta_encode = parsed.options.contains_key("--delta-encode");
            let features = parsed.options.contains_key("--features");
            let keyframe_every: u32 = get_parse(&parsed.options, "--keyframe-every", 5)?;
            if parsed.options.contains_key("--keyframe-every") && !delta_encode {
                return Err(CliError::usage("--keyframe-every requires --delta-encode"));
            }
            if keyframe_every == 0 {
                return Err(CliError::usage("--keyframe-every must be at least 1"));
            }
            if parsed.options.contains_key("--fusion") && !features {
                return Err(CliError::usage("--fusion requires --features"));
            }
            let fusion_mode: FeatureFusionMode = match parsed.options.get("--fusion") {
                None => FeatureFusionMode::Max,
                Some(name) => name.parse().map_err(CliError::usage)?,
            };
            let roi_cap = match parsed.options.get("--roi").map(String::as_str) {
                None => None,
                Some("full") => Some(RoiCategory::FullFrame),
                Some("front120") => Some(RoiCategory::FrontFov120),
                Some("forward") => Some(RoiCategory::ForwardOneWay),
                Some(other) => {
                    return Err(CliError::usage(format!(
                        "unknown --roi {other:?} (full, front120 or forward)"
                    )))
                }
            };
            let governed = roi_cap.is_some() || delta_encode || features;
            // Robustness flags: pose-fault injection and the
            // receiver-side alignment guard.
            let fault_plan = parsed
                .options
                .get("--fault-plan")
                .map(|spec| {
                    FaultPlan::parse(spec)
                        .map_err(|e| CliError::usage(format!("invalid --fault-plan: {e}")))
                })
                .transpose()?;
            let align_guard = parsed.options.contains_key("--align-guard");
            if parsed.options.contains_key("--icp-iters") && !align_guard {
                return Err(CliError::usage("--icp-iters requires --align-guard"));
            }
            // Integrity flags: in-flight frame corruption and the
            // receiver-side trust layer (CRC trailers, consistency
            // guard, per-sender quarantine).
            let corruption: f64 = get_parse(&parsed.options, "--corruption", 0.0)?;
            if !(0.0..1.0).contains(&corruption) {
                return Err(CliError::usage("--corruption must be in [0, 1)"));
            }
            let trust_guard = parsed.options.contains_key("--trust-guard");
            let tracker = parsed.options.contains_key("--tracker");
            let icp_iters: usize = get_parse(
                &parsed.options,
                "--icp-iters",
                AlignmentGuardConfig::default().max_icp_iters,
            )?;
            let (rx, tx) = *scene
                .pairs
                .first()
                .ok_or_else(|| CliError::runtime("scenario has no cooperating pair"))?;
            let scanner = LidarScanner::new(scene.kind.beam_model());
            let scan_rx = scanner.scan(&scene.world, &scene.observers[rx], seed);
            let scan_tx = scanner.scan(&scene.world, &scene.observers[tx], seed + 1);

            // DSRC feasibility: exchange the pair's frames at the
            // paper's 1 Hz over a shared medium.
            let mut rng = StdRng::seed_from_u64(seed);
            let per_second: Vec<(PointCloud, PointCloud)> = (0..seconds)
                .map(|_| (scan_rx.clone(), scan_tx.clone()))
                .collect();
            let medium = SharedMedium::new(DsrcChannel::new(DsrcConfig::default()));
            let trace = ExchangeScheduler::paper_default(RoiCategory::FullFrame).simulate(
                &per_second,
                &medium,
                &mut rng,
            );

            // Cooperative perception on the same pair. The detector is
            // untrained unless --weights is given: `simulate` probes
            // latency and channel feasibility, not accuracy.
            let detector = match parsed.options.get("--weights") {
                Some(_) => load_or_train_detector(&parsed.options)?,
                None => SpodDetector::new(SpodConfig::default()),
            };
            let mut pipeline = CooperPipeline::new(detector).with_fusion_mode(fusion_mode);
            if align_guard {
                pipeline = pipeline.with_alignment_guard(
                    AlignmentGuardConfig::default().with_max_icp_iters(icp_iters),
                );
            }
            if tracker {
                pipeline = pipeline.with_tracker(TrackerConfig::default());
            }
            let est_rx = PoseEstimate::from_pose(&scene.observers[rx], &GPS_ANCHOR);
            let est_tx = PoseEstimate::from_pose(&scene.observers[tx], &GPS_ANCHOR);
            let packet = ExchangePacket::build(tx as u32, 0, &scan_tx, est_tx)
                .map_err(|e| CliError::runtime(format!("cannot build packet: {e}")))?;
            let result = pipeline.perceive(
                &scan_rx,
                &est_rx,
                vec![packet.decode()],
                &GPS_ANCHOR,
                PerceiveCtx::default(),
            );
            println!(
                "{}: {} s exchange, peak {:.2} Mbit/s, {} transfers dropped, feasible: {}",
                scene.name,
                per_second.len(),
                trace.peak_mbit(),
                trace.transfers_dropped,
                trace.feasible()
            );
            println!(
                "cooperative perception: {} packets fused, {} fused points, {} detections",
                result.packets_fused,
                result.fused_cloud.len(),
                result.detections.len()
            );

            // Full fleet loop over every observer. Everything printed
            // here is part of the determinism contract — bit-identical
            // at any --threads value. Wall-clock time per phase is in
            // the `fleet.*` spans that --telemetry prints.
            let vehicles: Vec<FleetVehicle> = scene
                .observers
                .iter()
                .enumerate()
                .map(|(i, pose)| FleetVehicle {
                    id: i as u32 + 1,
                    trajectory: straight_trajectory(*pose, 1.0, seconds),
                    beams: scene.kind.beam_model(),
                })
                .collect();
            let sim = FleetSimulation::new(
                scene.world.clone(),
                vehicles,
                FleetConfig {
                    seed,
                    threads,
                    fault_plan,
                    trust: trust_guard.then(TrustGuardConfig::default),
                    ..FleetConfig::default()
                },
            );
            let mut channel: Box<dyn ChannelModel> = match fleet_loss_model {
                None => Box::new(PerfectChannel),
                Some(loss_model) => {
                    let config = DsrcConfig {
                        loss_probability: if channel_kind == "iid" { loss } else { 0.0 },
                        loss_model,
                        corruption_probability: corruption,
                        ..DsrcConfig::default()
                    };
                    let mut medium = SharedMedium::new(DsrcChannel::new(config)).with_seed(seed);
                    if arq_retries > 0 {
                        medium = medium.with_arq(ArqConfig {
                            max_retries: arq_retries,
                        });
                    }
                    Box::new(medium)
                }
            };
            let (reports, stats) = if governed {
                let mut policy = BandwidthGovernor::new(roi_cap.unwrap_or(RoiCategory::FullFrame));
                if features {
                    policy = policy.with_features();
                }
                let governor = GovernorConfig {
                    delta_encode,
                    keyframe_every,
                    features,
                    ..GovernorConfig::default()
                };
                sim.run_governed(&pipeline, seconds, channel.as_mut(), &mut policy, &governor)
            } else {
                sim.run_with_channel(&pipeline, seconds, channel.as_mut())
            };
            println!(
                "fleet: {} vehicles × {} steps ({} channel)",
                scene.observers.len(),
                reports.len(),
                channel_kind
            );
            for report in &reports {
                for v in &report.per_vehicle {
                    let track_suffix = if tracker {
                        format!(
                            " tracks {} ({} coasting)",
                            v.confirmed_tracks, v.coasting_tracks
                        )
                    } else {
                        String::new()
                    };
                    let trust_suffix = if trust_guard {
                        format!(
                            " violations {} quarantined {}",
                            v.trust_violations, v.quarantined_peers
                        )
                    } else {
                        String::new()
                    };
                    println!(
                        "  step {} v{}: single {} coop {} rx {} partial {} drops {} bytes {}{}{}",
                        report.step,
                        v.vehicle_id,
                        v.single_detections,
                        v.cooperative_detections,
                        v.packets_received,
                        v.packets_partial,
                        v.packets_dropped,
                        v.bytes_received,
                        track_suffix,
                        trust_suffix
                    );
                }
                for drop in &report.encode_drops {
                    println!(
                        "  step {} v{}: encode drop ({})",
                        report.step, drop.vehicle_id, drop.kind
                    );
                }
                for drop in &report.transport_drops {
                    match &drop.reason {
                        TransportDropReason::DeadlineExceeded => println!(
                            "  step {} v{}->v{}: deadline exceeded",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::PartialDelivery {
                            delivered_bytes,
                            total_bytes,
                        } => println!(
                            "  step {} v{}->v{}: partial delivery {}/{} bytes",
                            report.step, drop.from, drop.to, delivered_bytes, total_bytes
                        ),
                        TransportDropReason::SalvageFailed { kind } => println!(
                            "  step {} v{}->v{}: salvage failed ({kind})",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::BudgetExceeded => println!(
                            "  step {} v{}->v{}: skipped, air-time budget exceeded",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::AlignmentRejected { residual_mm } => println!(
                            "  step {} v{}->v{}: alignment rejected (residual {residual_mm} mm)",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::Corrupted => println!(
                            "  step {} v{}->v{}: corrupted in flight",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::IntegrityFailed => println!(
                            "  step {} v{}->v{}: integrity check failed (CRC mismatch)",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::Quarantined => println!(
                            "  step {} v{}->v{}: sender quarantined",
                            report.step, drop.from, drop.to
                        ),
                        TransportDropReason::ConsistencyRejected { ghost_points } => println!(
                            "  step {} v{}->v{}: consistency rejected ({ghost_points} ghost points)",
                            report.step, drop.from, drop.to
                        ),
                    }
                }
            }
            println!("fleet bytes exchanged: {}", stats.total_bytes);
            if governed {
                let saved: u64 = stats.bytes_saved.values().sum();
                println!("governor bytes saved: {saved}");
                for (id, bytes) in &stats.bytes_saved {
                    println!("  v{id}: {bytes} bytes saved");
                }
            }
            if tracker {
                for (id, t) in &stats.tracks {
                    println!(
                        "  v{id} tracker: {} detections in, {} matched, {} spawned, \
                         {} promoted, {} coasted, {} dropped",
                        t.detections_in, t.matched, t.spawned, t.promoted, t.coasted, t.dropped
                    );
                }
            }
            if align_guard {
                for (id, a) in &stats.alignment {
                    let (mean_before, mean_after) = a.mean_residuals_m();
                    println!(
                        "  v{id} alignment guard: {} evaluated, {} refined, {} rejected, \
                         mean residual {:.3} -> {:.3} m",
                        a.evaluated, a.refined, a.rejected, mean_before, mean_after
                    );
                }
            }
            if trust_guard {
                for (id, t) in &stats.trust {
                    println!(
                        "  v{id} trust: {} violations charged, {} quarantines, \
                         {} transfers blocked, {} reinstated",
                        t.violations, t.quarantines, t.blocked_transfers, t.reinstated
                    );
                }
            }
            if let Some(((a, b), steps)) = stats.longest_connection() {
                println!("longest connection: v{a}-v{b} for {steps} steps");
            }
            Ok(())
        }
        "profile" => {
            let scene_name = parsed
                .options
                .get("--scenario")
                .or_else(|| parsed.options.get("--scene"))
                .map(String::as_str)
                .ok_or_else(|| CliError::usage("--scenario (or --scene) is required"))?;
            let vehicle_count: usize = get_parse(&parsed.options, "--vehicles", 4)?;
            let steps: usize = get_parse(&parsed.options, "--steps", 2)?;
            let seed: u64 = get_parse(&parsed.options, "--seed", 1)?;
            let threads = parsed
                .options
                .get("--threads")
                .map(|raw| {
                    raw.parse::<usize>().map_err(|_| {
                        CliError::usage(format!("invalid value for --threads: {raw:?}"))
                    })
                })
                .transpose()?;
            if threads == Some(0) {
                return Err(CliError::usage("--threads must be at least 1"));
            }
            let report = run_profile(scene_name, vehicle_count, steps, threads, seed)?;
            println!(
                "profile: {} vehicles × {} steps on {}",
                report.vehicles, report.steps, scene_name
            );
            print!("{}", report.table);
            println!(
                "perceive coverage: {:.1}% of pipeline.perceive time in named stages",
                report.coverage_pct
            );
            if let Some(path) = parsed.options.get("--trace-out") {
                std::fs::write(path, &report.trace_json)
                    .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
                println!(
                    "wrote Chrome trace ({} thread lanes) to {path}",
                    report.lane_count
                );
            }
            Ok(())
        }
        "convert" => {
            let cloud = read_cloud(require(&parsed.options, "--input")?)?;
            let out = require(&parsed.options, "--out")?;
            write_cloud(&cloud, out)?;
            println!("wrote {} points to {}", cloud.len(), out);
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse_args(&args(&["scan", "--scenario", "tj1", "--out", "x.ply"])).unwrap();
        assert_eq!(p.command, "scan");
        assert_eq!(p.options["--scenario"], "tj1");
        assert_eq!(p.options["--out"], "x.ply");
    }

    #[test]
    fn bare_flags_need_no_value() {
        let p = parse_args(&args(&["detect", "--input", "a.xyz", "--bev"])).unwrap();
        assert_eq!(p.options["--bev"], "true");
    }

    #[test]
    fn missing_value_is_usage_error() {
        let e = parse_args(&args(&["scan", "--scenario"])).unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--scenario"));
    }

    #[test]
    fn empty_and_help() {
        assert!(parse_args(&[]).unwrap_err().usage);
        let p = parse_args(&args(&["--help"])).unwrap();
        assert_eq!(p.command, "help");
        run(&p).unwrap();
        // --help prints the usage for any command, whatever it requires.
        run(&parse_args(&args(&["train", "--help"])).unwrap()).unwrap();
    }

    #[test]
    fn flags_a_command_does_not_read_are_usage_errors() {
        // A misspelt bare flag used to take the next flag as its value.
        let e = parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--seconds",
            "1",
            "--align-gaurd",
            "--tracker",
        ]))
        .unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--align-gaurd"), "{}", e.message);
        assert!(e.message.contains("simulate"), "{}", e.message);
        // Another command's flags are not this command's.
        let e =
            parse_args(&args(&["simulate", "--scenario", "tj1", "--vehicles", "3"])).unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--vehicles"), "{}", e.message);
        let e = parse_args(&args(&["simulate", "--scene", "tj1"])).unwrap_err();
        assert!(e.message.contains("--scene"), "{}", e.message);
        // A value flag does not take the next flag as its value.
        let e = parse_args(&args(&["simulate", "--weights", "--tracker"])).unwrap_err();
        assert!(e.message.contains("--weights"), "{}", e.message);
        // A removed flag is an unknown one.
        let e = parse_args(&args(&["simulate", "--scenario", "tj1", "--incremental"])).unwrap_err();
        assert!(e.message.contains("--incremental"), "{}", e.message);
        // --telemetry and --help are valid for every command, and
        // --scene is profile's alias for --scenario.
        for (command, _, _) in COMMAND_FLAGS {
            let p = parse_args(&args(&[command, "--telemetry", "--help"])).unwrap();
            assert_eq!(p.options["--telemetry"], "true");
            assert_eq!(p.options["--help"], "true");
        }
        let p = parse_args(&args(&["profile", "--scene", "kitti1"])).unwrap();
        assert_eq!(p.options["--scene"], "kitti1");
    }

    #[test]
    fn ci_command_lines_parse() {
        // The determinism job's RUNS lines (one per golden), the train
        // step whose weights the trained runs read, and the profile smoke
        // command, read from the workflow itself.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let ci = std::fs::read_to_string(format!("{root}/.github/workflows/ci.yml")).unwrap();
        let runs: Vec<&str> = ci
            .lines()
            .map(str::trim)
            .skip_while(|line| !line.ends_with("<<'RUNS'"))
            .skip(1)
            .take_while(|line| *line != "RUNS")
            .collect();
        let goldens = std::fs::read_dir(format!("{root}/tests/golden"))
            .unwrap()
            .count();
        assert_eq!(runs.len(), goldens, "one RUNS line per golden");
        for line in &runs {
            let (name, flags) = line.split_once(' ').unwrap();
            assert!(
                Path::new(&format!("{root}/tests/golden/simulate_{name}.txt")).exists(),
                "no golden for {name}"
            );
            let argv: Vec<String> = ["simulate", "--scenario", "tj1"]
                .into_iter()
                .chain(flags.split_whitespace())
                .chain(["--threads", "4"])
                .map(String::from)
                .collect();
            parse_args(&argv).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let train: Vec<String> = ci
            .lines()
            .find(|line| line.contains("cooper train"))
            .unwrap()
            .split_whitespace()
            .skip_while(|word| !word.ends_with("/cooper"))
            .skip(1)
            .map(String::from)
            .collect();
        assert_eq!(train.first().map(String::as_str), Some("train"));
        let trained = parse_args(&train).unwrap();
        // Both trained runs, one fusing features and one fusing raw
        // clouds, read the weights the train step writes.
        let reads_them = format!("--weights {}", trained.options["--out"]);
        let readers: Vec<(&str, bool)> = runs
            .iter()
            .filter(|line| line.contains("--weights"))
            .map(|line| (line.split_once(' ').unwrap().0, line.contains(&reads_them)))
            .collect();
        assert_eq!(readers, [("trained", true), ("trained_raw", true)]);
        let profile: Vec<String> = ci
            .lines()
            .skip_while(|line| !line.contains("cooper profile"))
            .take(2)
            .flat_map(|line| line.trim_end_matches('\\').split_whitespace())
            .skip(1)
            .map(String::from)
            .collect();
        assert_eq!(profile.first().map(String::as_str), Some("profile"));
        parse_args(&profile).unwrap();
    }

    #[test]
    fn train_rejects_an_invalid_config_and_writes_nothing() {
        let out = std::env::temp_dir().join("cooper-cli-train-zero-scenes.bin");
        let _ = std::fs::remove_file(&out);
        let e = run(&parse_args(&args(&[
            "train",
            "--out",
            out.to_str().unwrap(),
            "--scenes",
            "0",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("training scene"), "{}", e.message);
        assert!(!out.exists());
    }

    #[test]
    fn align_guard_is_a_bare_flag() {
        let p = parse_args(&args(&["simulate", "--scenario", "tj1", "--align-guard"])).unwrap();
        assert_eq!(p.options["--align-guard"], "true");
    }

    #[test]
    fn bad_fault_plan_is_usage_error() {
        let p = parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--fault-plan",
            "bogus",
        ]))
        .unwrap();
        let e = run(&p).unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--fault-plan"));
    }

    #[test]
    fn icp_iters_requires_align_guard() {
        let p = parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--icp-iters",
            "5",
        ]))
        .unwrap();
        let e = run(&p).unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--align-guard"));
    }

    /// Runs `simulate --scenario tj1` with `flags` and returns its
    /// usage error.
    fn simulate_usage_error(flags: &[&str]) -> CliError {
        let argv: Vec<&str> = ["simulate", "--scenario", "tj1"]
            .iter()
            .chain(flags)
            .copied()
            .collect();
        let e = run(&parse_args(&args(&argv)).unwrap()).unwrap_err();
        assert!(e.usage, "{flags:?}: {}", e.message);
        e
    }

    #[test]
    fn loss_and_arq_retries_require_a_lossy_channel() {
        // The perfect channel loses nothing, so it would ignore both.
        for (flag, value) in [("--loss", "0.1"), ("--arq-retries", "2")] {
            for channel in [&[][..], &["--channel", "perfect"]] {
                let flags: Vec<&str> = channel.iter().copied().chain([flag, value]).collect();
                let e = simulate_usage_error(&flags);
                assert!(e.message.contains(flag), "{}", e.message);
                assert!(e.message.contains("--channel"), "{}", e.message);
            }
        }
    }

    #[test]
    fn corruption_requires_a_lossy_channel() {
        let e = simulate_usage_error(&["--corruption", "0.01"]);
        assert!(e.message.contains("--corruption"), "{}", e.message);
        assert!(e.message.contains("--channel"), "{}", e.message);
    }

    #[test]
    fn keyframe_every_requires_delta_encode() {
        // Features alone run the governed exchange, but send no deltas.
        let e = simulate_usage_error(&["--features", "--keyframe-every", "2"]);
        assert!(e.message.contains("--delta-encode"), "{}", e.message);
    }

    #[test]
    fn simulate_rejects_zero_seconds() {
        let e = simulate_usage_error(&["--seconds", "0"]);
        assert!(e.message.contains("--seconds"), "{}", e.message);
    }

    #[test]
    fn detect_threshold_must_be_a_probability() {
        // Checked before the input is read: the missing file would
        // otherwise be a runtime error.
        for threshold in ["NaN", "-1", "1.5", "inf"] {
            let e = run(&parse_args(&args(&[
                "detect",
                "--input",
                "/definitely/not/here.xyz",
                "--threshold",
                threshold,
            ]))
            .unwrap())
            .unwrap_err();
            assert!(e.usage, "{threshold}: {}", e.message);
            assert!(e.message.contains("--threshold"), "{}", e.message);
        }
    }

    #[test]
    fn unexpected_positional_rejected() {
        let e = parse_args(&args(&["scan", "oops"])).unwrap_err();
        assert!(e.usage);
    }

    #[test]
    fn unknown_command_and_scenario() {
        let e = run(&parse_args(&args(&["frobnicate"])).unwrap()).unwrap_err();
        assert!(e.usage);
        let e2 = run(&parse_args(&args(&["scan", "--scenario", "nope", "--out", "x"])).unwrap())
            .unwrap_err();
        assert!(e2.message.contains("unknown scenario"));
    }

    #[test]
    fn scenarios_listing_runs() {
        run(&parse_args(&args(&["scenarios"])).unwrap()).unwrap();
    }

    #[test]
    fn scan_convert_round_trip() {
        let dir = std::env::temp_dir().join("cooper-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ply = dir.join("scan.ply");
        let xyz = dir.join("scan.xyz");
        run(&parse_args(&args(&[
            "scan",
            "--scenario",
            "tj1",
            "--observer",
            "0",
            "--out",
            ply.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        run(&parse_args(&args(&[
            "convert",
            "--input",
            ply.to_str().unwrap(),
            "--out",
            xyz.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let a = read_cloud(ply.to_str().unwrap()).unwrap();
        let b = read_cloud(xyz.to_str().unwrap()).unwrap();
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn scan_rejects_bad_observer() {
        let e = run(&parse_args(&args(&[
            "scan",
            "--scenario",
            "tj1",
            "--observer",
            "99",
            "--out",
            "/tmp/x.ply",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn detect_requires_existing_weights_when_given() {
        let e =
            run(&parse_args(&args(&["detect", "--input", "/definitely/not/here.xyz"])).unwrap())
                .unwrap_err();
        assert!(!e.usage);
    }

    #[test]
    fn profile_rejects_bad_arguments() {
        // Argument validation only — these paths never touch the
        // global registry, which `simulate_covers_core_spod_and_v2x_spans`
        // owns within this test binary.
        let e = run(&parse_args(&args(&["profile"])).unwrap()).unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--scenario"));
        let e = run(&parse_args(&args(&["profile", "--scene", "nope"])).unwrap()).unwrap_err();
        assert!(e.message.contains("unknown scenario"));
        let e =
            run(&parse_args(&args(&["profile", "--scenario", "tj1", "--vehicles", "0"])).unwrap())
                .unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--vehicles"));
        let e = run(&parse_args(&args(&["profile", "--scenario", "tj1", "--steps", "0"])).unwrap())
            .unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--steps"));
        let e =
            run(&parse_args(&args(&["profile", "--scenario", "tj1", "--threads", "0"])).unwrap())
                .unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--threads"));
    }

    #[test]
    fn simulate_covers_core_spod_and_v2x_spans() {
        // One sequential test owns the global registry: first the
        // --telemetry flag path (enables, prints, resets), then a
        // manual enable so the snapshot can be inspected.
        let p = parse_args(&args(&["simulate", "--scenario", "tj1", "--telemetry"])).unwrap();
        run(&p).unwrap();

        cooper_telemetry::reset();
        cooper_telemetry::enable();
        let p2 = parse_args(&args(&["simulate", "--scenario", "tj1"])).unwrap();
        run(&p2).unwrap();
        cooper_telemetry::disable();
        let snap = cooper_telemetry::snapshot();
        cooper_telemetry::reset();
        for prefix in ["pipeline.", "spod.", "v2x.", "packet."] {
            assert!(
                snap.spans.iter().any(|s| s.name.starts_with(prefix)),
                "no {prefix}* span in snapshot:\n{}",
                snap.render_table()
            );
        }
    }

    #[test]
    fn simulate_rejects_bad_thread_counts() {
        let zero =
            run(&parse_args(&args(&["simulate", "--scenario", "tj1", "--threads", "0"])).unwrap())
                .unwrap_err();
        assert!(zero.usage);
        assert!(zero.message.contains("--threads"));
        let junk = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--threads",
            "many",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(junk.usage);
        assert!(junk.message.contains("--threads"));
    }

    #[test]
    fn simulate_rejects_bad_channel_flags() {
        let unknown = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--channel",
            "carrier-pigeon",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(unknown.usage);
        assert!(unknown.message.contains("--channel"));
        let bad_loss = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--channel",
            "gilbert-elliott",
            "--loss",
            "0.9",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(bad_loss.usage);
        assert!(bad_loss.message.contains("--loss"));
    }

    #[test]
    fn simulate_runs_lossy_channels_with_arq() {
        for channel in ["iid", "gilbert-elliott"] {
            run(&parse_args(&args(&[
                "simulate",
                "--scenario",
                "tj1",
                "--seconds",
                "1",
                "--channel",
                channel,
                "--loss",
                "0.1",
                "--arq-retries",
                "3",
            ]))
            .unwrap())
            .unwrap();
        }
    }

    #[test]
    fn simulate_runs_governed_exchange() {
        // Perfect channel, ROI cap + delta encoding.
        run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--seconds",
            "2",
            "--roi",
            "forward",
            "--delta-encode",
            "--keyframe-every",
            "2",
        ]))
        .unwrap())
        .unwrap();
        // Governed path over a lossy shared medium.
        run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--seconds",
            "1",
            "--roi",
            "front120",
            "--channel",
            "iid",
            "--loss",
            "0.1",
        ]))
        .unwrap())
        .unwrap();
    }

    #[test]
    fn simulate_runs_temporal_flags() {
        // The tracker over the governed delta exchange must run end to
        // end, and alone.
        run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--seconds",
            "2",
            "--delta-encode",
            "--tracker",
        ]))
        .unwrap())
        .unwrap();
        run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--seconds",
            "1",
            "--tracker",
        ]))
        .unwrap())
        .unwrap();
    }

    #[test]
    fn simulate_runs_feature_exchange() {
        // Feature tier alone turns the governed path on; adaptive
        // fusion exercises the non-default receiver-side combine.
        run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--seconds",
            "2",
            "--features",
            "--fusion",
            "adaptive",
        ]))
        .unwrap())
        .unwrap();
    }

    #[test]
    fn simulate_rejects_bad_fusion_flags() {
        let orphan = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--fusion",
            "adaptive",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(orphan.usage);
        assert!(orphan.message.contains("--features"));
        let unknown = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--features",
            "--fusion",
            "median",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(unknown.usage);
        assert!(unknown.message.contains("fusion mode"));
    }

    #[test]
    fn simulate_rejects_bad_governor_flags() {
        let bad_roi = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--roi",
            "sideways",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(bad_roi.usage);
        assert!(bad_roi.message.contains("--roi"));
        let zero_cadence = run(&parse_args(&args(&[
            "simulate",
            "--scenario",
            "tj1",
            "--delta-encode",
            "--keyframe-every",
            "0",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(zero_cadence.usage);
        assert!(zero_cadence.message.contains("--keyframe-every"));
    }

    #[test]
    fn invalid_numeric_flag() {
        let e =
            run(&parse_args(&args(&["evaluate", "--scenario", "tj1", "--pair", "abc"])).unwrap())
                .unwrap_err();
        assert!(e.usage);
        assert!(e.message.contains("--pair"));
    }
}
