//! Runs every experiment binary in sequence and collects their stdout
//! into one report — the convenient way to regenerate everything in
//! `EXPERIMENTS.md`.
//!
//! Also replays a representative cooperative-perception + exchange
//! workload in-process with the `cooper-telemetry` registry enabled and
//! writes the per-stage span distributions to `telemetry_summary.csv`
//! (stage, count, p50_us, p95_us, p99_us) — the machine-readable
//! latency baseline future performance PRs diff against.
//!
//! `cargo run -p cooper-bench --release --bin run_all -- --out results`

use std::process::Command;

use cooper_bench::{output_dir, standard_pipeline, write_artifact};
use cooper_core::{ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_lidar_sim::scenario::tj_scenario_1;
use cooper_lidar_sim::{GpsImuModel, LidarScanner};
use cooper_pointcloud::roi::RoiCategory;
use cooper_v2x::{DsrcChannel, DsrcConfig, ExchangeScheduler, SharedMedium};

/// Replays the telemetry baseline workload: a handful of single-shot
/// and cooperative perception rounds plus an ROI exchange over DSRC,
/// so the snapshot covers spans from cooper-core, cooper-spod and
/// cooper-v2x. Child experiment processes cannot contribute to this
/// registry, hence the in-process replay.
fn telemetry_baseline() -> cooper_telemetry::TelemetrySnapshot {
    let pipeline = standard_pipeline();
    let scenario = tj_scenario_1();
    let scanner = LidarScanner::new(scenario.kind.beam_model());
    let (ia, ib) = scenario.pairs[0];
    let scan_a = scanner.scan(&scenario.world, &scenario.observers[ia], 1);
    let scan_b = scanner.scan(&scenario.world, &scenario.observers[ib], 2);
    let mut rng = rand::thread_rng();
    let est_a = GpsImuModel::ideal().measure(&scenario.observers[ia], &GPS_ANCHOR, &mut rng);
    let est_b = GpsImuModel::ideal().measure(&scenario.observers[ib], &GPS_ANCHOR, &mut rng);

    // Warm up outside the measured window.
    let _ = pipeline.perceive_single(&scan_a, PerceiveCtx::default());

    cooper_telemetry::reset();
    cooper_telemetry::enable();
    for _ in 0..5 {
        let _ = pipeline.perceive_single(&scan_a, PerceiveCtx::default());
        let packet = ExchangePacket::build(1, 0, &scan_b, est_b).expect("encodes");
        let _ = pipeline.perceive(
            &scan_a,
            &est_a,
            vec![packet.decode()],
            &GPS_ANCHOR,
            PerceiveCtx::default(),
        );
    }
    let medium = SharedMedium::new(DsrcChannel::new(DsrcConfig::default()));
    let per_second = vec![(scan_a, scan_b); 3];
    let _ = ExchangeScheduler::paper_default(RoiCategory::FullFrame).simulate(
        &per_second,
        &medium,
        &mut rng,
    );
    cooper_telemetry::disable();
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::reset();
    snapshot
}

const EXPERIMENTS: &[&str] = &[
    "fig3_kitti_matrix",
    "fig4_kitti_summary",
    "fig6_tj_matrix",
    "fig7_tj_summary",
    "fig8_improvement_cdf",
    "fig9_latency",
    "fig10_gps_drift",
    "fig11_roi_volume",
    "table1_detector_ap",
    "ablations",
    "heterogeneous_fusion",
    "contention_study",
    "multiclass_cooperation",
    "temporal_fusion",
    "staleness_study",
    "tracking_study",
];

fn main() {
    let out = output_dir();
    let exe_dir = std::env::current_exe()
        .expect("current executable path")
        .parent()
        .expect("executable directory")
        .to_path_buf();

    let mut report = String::from("# Cooper experiment report\n");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        eprintln!("── running {name} …");
        let mut cmd = Command::new(exe_dir.join(name));
        if let Some(dir) = &out {
            cmd.arg("--out").arg(dir);
        }
        match cmd.output() {
            Ok(output) if output.status.success() => {
                report.push_str(&format!("\n\n## {name}\n\n```text\n"));
                report.push_str(&String::from_utf8_lossy(&output.stdout));
                report.push_str("```\n");
            }
            Ok(output) => {
                eprintln!("{name} failed: {}", output.status);
                eprintln!("{}", String::from_utf8_lossy(&output.stderr));
                failures.push(*name);
            }
            Err(e) => {
                eprintln!(
                    "cannot launch {name}: {e} (build all binaries first: \
                     cargo build -p cooper-bench --release --bins)"
                );
                failures.push(*name);
            }
        }
    }
    eprintln!("── collecting telemetry baseline …");
    let snapshot = telemetry_baseline();
    report.push_str("\n\n## telemetry baseline\n\n```text\n");
    report.push_str(&snapshot.render_table());
    report.push_str("```\n");

    print!("{report}");
    write_artifact(out.as_deref(), "telemetry_summary.csv", &snapshot.to_csv());
    write_artifact(out.as_deref(), "full_report.md", &report);
    if failures.is_empty() {
        eprintln!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
