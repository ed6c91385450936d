//! Parallel fleet executor benchmark: step latency vs worker threads.
//!
//! Runs the same 2/4/8-vehicle fleet simulation at 1/2/4/8 worker
//! threads, reports per-phase and total step latency, verifies the
//! determinism contract (reports bit-identical across thread counts)
//! and emits the measurements as `BENCH_parallel.json`. These runs have
//! telemetry on: the phase columns are the `fleet.scan`,
//! `fleet.exchange` and `fleet.perceive` span totals. `--check` runs
//! untraced.
//!
//! The speedup numbers are honest wall-clock measurements on whatever
//! machine runs the benchmark — `hardware_threads` is recorded next to
//! them, and every run with more worker threads than hardware threads
//! is marked `oversubscribed`: its speedup measures contention, not
//! scaling. On a single-core host every thread count necessarily costs
//! about the same; the determinism columns are the part of the contract
//! that holds everywhere.

use std::time::Instant;

use cooper_bench::{ledger, output_dir, render_table, write_artifact};
use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetStepReport, FleetVehicle,
};
use cooper_core::CooperPipeline;
use cooper_geometry::{Attitude, Pose, Vec3};
use cooper_lidar_sim::scenario::tj_scenario_1;
use cooper_lidar_sim::BeamModel;
use cooper_spod::{SpodConfig, SpodDetector};
use cooper_telemetry::{names, TelemetrySnapshot};

const STEPS: usize = 2;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fleet(vehicle_count: usize, threads: usize) -> FleetSimulation {
    let scene = tj_scenario_1();
    // A row of vehicles 18 m apart along the parking row, all within
    // comms range of their neighbours.
    let vehicles: Vec<FleetVehicle> = (0..vehicle_count)
        .map(|i| FleetVehicle {
            id: i as u32 + 1,
            trajectory: straight_trajectory(
                Pose::new(
                    Vec3::new(-30.0 + 18.0 * i as f64, -8.0, 1.9),
                    Attitude::level(),
                ),
                1.0,
                STEPS,
            ),
            beams: BeamModel::vlp16().with_azimuth_steps(500),
        })
        .collect();
    FleetSimulation::new(
        scene.world.clone(),
        vehicles,
        FleetConfig {
            seed: 7,
            threads: Some(threads),
            ..FleetConfig::default()
        },
    )
}

struct Run {
    threads: usize,
    total_us: u64,
    scan_us: u64,
    exchange_us: u64,
    perceive_us: u64,
}

/// Σ total time of every span path ending in `name`, microseconds.
fn span_total_us(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    snapshot
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.total_us)
        .sum()
}

fn deterministic_view(reports: &[FleetStepReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| format!("{:?}", r.deterministic_view()))
        .collect()
}

/// `--check`: run the 8-vehicle fleet at 1 and 4 worker threads,
/// verify the determinism contract (reports bit-identical across
/// thread counts) and append the normalized result to the bench
/// regression ledger — the CI smoke mode. Exits non-zero on violation.
///
/// The record carries `hardware_threads` next to the measured speedup:
/// [`ledger::floor_for`] holds `speedup_4_threads` to an absolute
/// ≥2.5x floor, but only on hosts with at least 4 hardware threads —
/// a narrower runner physically cannot express the speedup, so its
/// honest ~1.0x measurement is recorded without gating.
fn run_check() {
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut views = Vec::new();
    let mut timings = Vec::new();
    for threads in [1usize, 4] {
        let sim = fleet(8, threads);
        let started = Instant::now();
        let (reports, _) = sim.run(&pipeline, STEPS);
        timings.push((threads, started.elapsed().as_micros() as u64));
        views.push(deterministic_view(&reports));
    }
    let deterministic = views[0] == views[1];
    let speedup = timings[0].1.max(1) as f64 / timings[1].1.max(1) as f64;
    println!(
        "check: 8 vehicles x {STEPS} steps on {hardware_threads} hardware thread(s), \
         deterministic across 1/4 threads: {deterministic}, 4-thread speedup {speedup:.2}x"
    );
    if !deterministic {
        eprintln!("parallel_fleet check FAILED: reports differ across thread counts");
        std::process::exit(1);
    }
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    let record = ledger::BenchRecord::new(
        "parallel_fleet",
        &[
            ("deterministic", 1.0),
            ("speedup_4_threads", speedup),
            ("hardware_threads", hardware_threads as f64),
            ("total_1t_us", timings[0].1 as f64),
            ("total_4t_us", timings[1].1 as f64),
        ],
    );
    if let Err(e) = ledger::append(&dir.join(ledger::HISTORY_FILE), &record) {
        eprintln!("warning: cannot append to bench ledger: {e}");
    }
    println!("parallel_fleet check passed");
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        run_check();
        return;
    }
    let pipeline = CooperPipeline::new(SpodDetector::new(SpodConfig::default()));
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("=== Parallel fleet executor: step latency vs threads ===\n");
    let mut rows = Vec::new();
    let mut fleets_json = Vec::new();
    for vehicle_count in [2usize, 4, 8] {
        let mut runs: Vec<Run> = Vec::new();
        let mut baseline_view: Option<Vec<String>> = None;
        let mut deterministic = true;
        for threads in THREAD_COUNTS {
            let sim = fleet(vehicle_count, threads);
            cooper_telemetry::reset();
            cooper_telemetry::enable();
            let started = Instant::now();
            let (reports, _) = sim.run(&pipeline, STEPS);
            let total_us = started.elapsed().as_micros() as u64;
            let snapshot = cooper_telemetry::snapshot();
            cooper_telemetry::disable();
            let view = deterministic_view(&reports);
            match &baseline_view {
                None => baseline_view = Some(view),
                Some(base) => deterministic &= *base == view,
            }
            runs.push(Run {
                threads,
                total_us,
                scan_us: span_total_us(&snapshot, names::SPAN_FLEET_SCAN),
                exchange_us: span_total_us(&snapshot, names::SPAN_FLEET_EXCHANGE),
                perceive_us: span_total_us(&snapshot, names::SPAN_FLEET_PERCEIVE),
            });
        }
        let t1 = runs[0].total_us.max(1);
        for run in &runs {
            rows.push(vec![
                vehicle_count.to_string(),
                run.threads.to_string(),
                (run.threads > hardware_threads).to_string(),
                format!("{:.1}", run.total_us as f64 / 1e3),
                format!("{:.1}", run.scan_us as f64 / 1e3),
                format!("{:.1}", run.exchange_us as f64 / 1e3),
                format!("{:.1}", run.perceive_us as f64 / 1e3),
                format!("{:.2}", t1 as f64 / run.total_us.max(1) as f64),
                deterministic.to_string(),
            ]);
        }
        let runs_json: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"threads\": {}, \"oversubscribed\": {}, \"total_us\": {}, \"scan_us\": {}, \"exchange_us\": {}, \"perceive_us\": {}}}",
                    r.threads,
                    r.threads > hardware_threads,
                    r.total_us,
                    r.scan_us,
                    r.exchange_us,
                    r.perceive_us
                )
            })
            .collect();
        let speedup_4t = t1 as f64
            / runs
                .iter()
                .find(|r| r.threads == 4)
                .map(|r| r.total_us.max(1))
                .unwrap_or(t1) as f64;
        fleets_json.push(format!(
            "    {{\"vehicles\": {vehicle_count}, \"steps\": {STEPS}, \"deterministic\": {deterministic}, \"speedup_4_threads\": {speedup_4t:.3}, \"runs\": [{}]}}",
            runs_json.join(", ")
        ));
    }

    let headers = [
        "vehicles",
        "threads",
        "oversubscribed",
        "total_ms",
        "scan_ms",
        "exchange_ms",
        "perceive_ms",
        "speedup",
        "deterministic",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Determinism holds by construction (fixed chunk boundaries, ordered");
    println!("merges, per-(vehicle, step) RNG streams); speedup tracks the host's");
    println!("core count — this run saw {hardware_threads} hardware thread(s); rows with");
    println!("more threads than that are oversubscribed and measure contention.");

    let json = format!(
        "{{\n  \"hardware_threads\": {hardware_threads},\n  \"fleets\": [\n{}\n  ]\n}}\n",
        fleets_json.join(",\n")
    );
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    write_artifact(Some(&dir), "BENCH_parallel.json", &json);
}
