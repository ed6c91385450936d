//! Temporal perception benchmark: the incremental detection memo
//! against from-scratch detection.
//!
//! The incremental SPOD path (`SpodDetector::detect_incremental`) keeps
//! a [`FeaturizeCache`] alive across steps: the last input cloud, its
//! scoring options and its detections. A step whose cloud repeats bit
//! for bit is answered from that memo; any other step is detected from
//! scratch. This binary drives the from-scratch and incremental paths
//! over three change-profiles of the same drive and reports amortized
//! perceive time per step:
//!
//! - **low change** — the scene is static and every step's scan is
//!   bitwise identical: the memo answers every step after the first.
//! - **append change** — each step appends a small cluster of new
//!   returns to the previous scan: no step repeats, so every step runs
//!   from scratch (speedup about 1×).
//! - **high change** — every step is a fresh scan of an advancing
//!   world: likewise from-scratch cost plus one bitwise compare.
//!
//! Every incremental detection list is verified bit-identical to the
//! from-scratch one — the speedup is only admissible because the
//! results are exactly equal. Measurements land in
//! `BENCH_temporal.json`; `--check` appends the normalized result to
//! the bench regression ledger, where `bit_identical` gates at zero
//! slack and `low_change_speedup` has an absolute ≥2x floor.

use std::time::Instant;

use cooper_bench::{ledger, output_dir, render_table, write_artifact};
use cooper_lidar_sim::scenario::tj_scenario_1;
use cooper_lidar_sim::LidarScanner;
use cooper_pointcloud::{Point, PointCloud};
use cooper_spod::{
    DetectOptions, DetectScratch, Detection, FeaturizeCache, SpodConfig, SpodDetector,
};

/// Steps per change-profile. Amortization needs more than one step: the
/// incremental path pays full price on step 0 and earns it back later.
const STEPS: usize = 6;

/// One change-profile: a name and the per-step clouds.
struct Arm {
    name: &'static str,
    clouds: Vec<PointCloud>,
}

/// Builds the three change-profiles from one scenario drive.
fn arms(azimuth_steps: usize) -> Vec<Arm> {
    let scene = tj_scenario_1();
    let scanner = LidarScanner::new(scene.kind.beam_model().with_azimuth_steps(azimuth_steps));
    let base = scanner.scan(&scene.world, &scene.observers[0], 11);

    // Low change: a parked vehicle in a static world — every step's
    // scan is the same frame, bit for bit.
    let low = Arm {
        name: "low",
        clouds: vec![base.clone(); STEPS],
    };

    // Append change: each step adds a small cluster of new returns
    // to the previous frame.
    let mut appended = Vec::with_capacity(STEPS);
    let mut cloud = base.clone();
    for step in 0..STEPS {
        appended.push(cloud.clone());
        let mut points: Vec<Point> = cloud.as_slice().to_vec();
        for k in 0..256 {
            let t = (step * 256 + k) as f64;
            points.push(Point::new(
                cooper_geometry::Vec3::new(
                    8.0 + (t * 0.37).sin() * 3.0,
                    -4.0 + (t * 0.61).cos() * 3.0,
                    0.4,
                ),
                0.5,
            ));
        }
        cloud = points.into_iter().collect();
    }
    let append = Arm {
        name: "append",
        clouds: appended,
    };

    // High change: the world advances and the scan seed changes, so
    // every return moves.
    let mut world = scene.world.clone();
    let mut high_clouds = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        high_clouds.push(scanner.scan(&world, &scene.observers[0], 100 + step as u64));
        world = world.advanced(1.0);
    }
    let high = Arm {
        name: "high",
        clouds: high_clouds,
    };

    vec![low, append, high]
}

/// Per-arm result: amortized per-step cost on both paths, and whether
/// every step's detections matched exactly.
struct ArmResult {
    name: &'static str,
    scratch_us: u64,
    incremental_us: u64,
    bit_identical: bool,
}

impl ArmResult {
    fn speedup(&self) -> f64 {
        self.scratch_us.max(1) as f64 / self.incremental_us.max(1) as f64
    }
}

fn run_arm(detector: &SpodDetector, arm: &Arm) -> ArmResult {
    let options = DetectOptions::default();
    // From-scratch reference, timed amortized over the sequence.
    let mut scratch = DetectScratch::new();
    let started = Instant::now();
    let reference: Vec<Vec<Detection>> = arm
        .clouds
        .iter()
        .map(|cloud| detector.detect_with(cloud, &options, &mut scratch))
        .collect();
    let scratch_us = (started.elapsed().as_micros() as u64) / STEPS as u64;

    // Incremental path: one warm cache across the whole sequence.
    let mut cache = FeaturizeCache::new();
    let started = Instant::now();
    let incremental: Vec<Vec<Detection>> = arm
        .clouds
        .iter()
        .map(|cloud| detector.detect_incremental(cloud, &options, &mut scratch, &mut cache))
        .collect();
    let incremental_us = (started.elapsed().as_micros() as u64) / STEPS as u64;

    ArmResult {
        name: arm.name,
        scratch_us,
        incremental_us,
        bit_identical: reference == incremental,
    }
}

fn run_all(azimuth_steps: usize) -> Vec<ArmResult> {
    let detector = SpodDetector::new(SpodConfig::default());
    arms(azimuth_steps)
        .iter()
        .map(|arm| run_arm(&detector, arm))
        .collect()
}

fn result_by_name<'a>(results: &'a [ArmResult], name: &str) -> &'a ArmResult {
    results
        .iter()
        .find(|r| r.name == name)
        .expect("all arms present")
}

/// `--check`: the CI smoke mode. Runs a reduced sweep, verifies that
/// every arm's incremental detections are bit-identical to from-scratch
/// (exit non-zero otherwise) and appends the normalized result to the
/// bench regression ledger, where the low-change speedup must clear an
/// absolute ≥2x floor.
fn run_check() {
    let results = run_all(300);
    let bit_identical = results.iter().all(|r| r.bit_identical);
    let low = result_by_name(&results, "low");
    let high = result_by_name(&results, "high");
    println!(
        "check: {STEPS} steps/arm, bit-identical: {bit_identical}, \
         low-change speedup {:.2}x, high-change speedup {:.2}x",
        low.speedup(),
        high.speedup()
    );
    if !bit_identical {
        eprintln!("temporal_sweep check FAILED: incremental detections diverged");
        std::process::exit(1);
    }
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    let record = ledger::BenchRecord::new(
        "temporal_sweep",
        &[
            ("bit_identical", 1.0),
            ("low_change_speedup", low.speedup()),
            (
                "append_change_speedup",
                result_by_name(&results, "append").speedup(),
            ),
            ("high_change_speedup", high.speedup()),
            ("scratch_low_us", low.scratch_us as f64),
            ("incremental_low_us", low.incremental_us as f64),
            ("scratch_high_us", high.scratch_us as f64),
            ("incremental_high_us", high.incremental_us as f64),
        ],
    );
    if let Err(e) = ledger::append(&dir.join(ledger::HISTORY_FILE), &record) {
        eprintln!("warning: cannot append to bench ledger: {e}");
    }
    println!("temporal_sweep check passed");
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        run_check();
        return;
    }
    println!("=== Temporal perception: incremental detection memo ===\n");
    let results = run_all(500);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.1}", r.scratch_us as f64 / 1e3),
                format!("{:.1}", r.incremental_us as f64 / 1e3),
                format!("{:.2}", r.speedup()),
                r.bit_identical.to_string(),
            ]
        })
        .collect();
    let headers = [
        "change",
        "scratch_ms",
        "incremental_ms",
        "speedup",
        "bit_identical",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Amortized per-step perceive cost over {STEPS} steps. The incremental");
    println!("path returns the memoized detections for a bitwise-identical frame and");
    println!("detects any other frame from scratch; it is only admissible because its");
    println!("output is exactly the from-scratch one.");

    let arms_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"change\": \"{}\", \"steps\": {STEPS}, \"scratch_us\": {}, \"incremental_us\": {}, \"speedup\": {:.3}, \"bit_identical\": {}}}",
                r.name, r.scratch_us, r.incremental_us, r.speedup(), r.bit_identical
            )
        })
        .collect();
    let json = format!("{{\n  \"arms\": [\n{}\n  ]\n}}\n", arms_json.join(",\n"));
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    write_artifact(Some(&dir), "BENCH_temporal.json", &json);
}
