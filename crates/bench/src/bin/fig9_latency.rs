//! Figure 9 — time needed to detect objects on single-shot vs
//! cooperative data, for KITTI-style (64-beam) and T&J-style (16-beam)
//! input.
//!
//! The paper reports ~35–50 ms on a GTX 1080 Ti with fusion costing
//! ~5 ms extra; the reproduction runs the same pipeline on CPU, so the
//! absolute numbers differ — the *shape* to check is that cooperative
//! detection costs only a small constant over single-shot detection
//! (the network is identical; only the input grows).
//!
//! The timing comes from the `cooper-telemetry` span registry: the
//! pipeline is instrumented end-to-end, so this binary just enables
//! telemetry, replays each case `reps` times and reads the per-stage
//! span distributions (p50/p95/p99/max) out of the snapshot — no
//! hand-rolled `Instant::now()` pairs.

use cooper_bench::{output_dir, render_csv, render_table, standard_pipeline, write_artifact};
use cooper_core::{ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_lidar_sim::scenario::{t_junction, tj_scenario_1, Scenario};
use cooper_lidar_sim::{GpsImuModel, LidarScanner};
use cooper_telemetry::TelemetrySnapshot;

/// Replays `reps` single-shot and cooperative perception rounds with
/// telemetry enabled and returns the resulting span snapshot.
fn run_case(
    pipeline: &cooper_core::CooperPipeline,
    scenario: &Scenario,
    reps: usize,
) -> TelemetrySnapshot {
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
    for _ in 0..reps {
        let _ = pipeline.perceive_single(&scan_a, PerceiveCtx::default());
    }
    for _ in 0..reps {
        let packet = ExchangePacket::build(1, 0, &scan_b, est_b).expect("encodes");
        let _ = pipeline.perceive(
            &scan_a,
            &est_a,
            vec![packet.decode()],
            &GPS_ANCHOR,
            PerceiveCtx::default(),
        );
    }
    cooper_telemetry::disable();
    let snapshot = cooper_telemetry::snapshot();
    cooper_telemetry::reset();
    snapshot
}

fn mean_ms(snapshot: &TelemetrySnapshot, path: &str) -> f64 {
    snapshot.span(path).map_or(f64::NAN, |s| s.mean_us / 1e3)
}

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();
    let reps = 5;

    println!("=== Figure 9: detection time, single shot vs Cooper ===\n");
    let mut summary_rows = Vec::new();
    let mut stage_rows = Vec::new();
    for (label, scenario) in [("KITTI", t_junction()), ("T&J", tj_scenario_1())] {
        let snapshot = run_case(&pipeline, &scenario, reps);
        let single_ms = mean_ms(&snapshot, "pipeline.perceive_single");
        let coop_ms = mean_ms(&snapshot, "pipeline.perceive");
        let overhead = coop_ms - single_ms;
        summary_rows.push(vec![
            label.to_string(),
            format!("{single_ms:.1}"),
            format!("{coop_ms:.1}"),
            format!("{overhead:.1}"),
            format!("{:.0}", overhead / single_ms * 100.0),
        ]);
        for span in &snapshot.spans {
            stage_rows.push(vec![
                label.to_string(),
                span.path.clone(),
                span.count.to_string(),
                span.p50_us.to_string(),
                span.p95_us.to_string(),
                span.p99_us.to_string(),
                span.max_us.to_string(),
            ]);
        }
    }
    let summary_headers = [
        "dataset",
        "single_ms",
        "cooper_ms",
        "overhead_ms",
        "overhead_%",
    ];
    println!("{}", render_table(&summary_headers, &summary_rows));
    println!("Shape check (paper): Cooper adds a small constant (~5 ms on GPU)");
    println!("over the single-shot baseline on both datasets.\n");

    let stage_headers = [
        "dataset", "stage", "count", "p50_us", "p95_us", "p99_us", "max_us",
    ];
    println!("=== Per-stage span distributions ===\n");
    println!("{}", render_table(&stage_headers, &stage_rows));

    write_artifact(
        output_dir().as_deref(),
        "fig9_latency.csv",
        &render_csv(&summary_headers, &summary_rows),
    );
    write_artifact(
        output_dir().as_deref(),
        "fig9_stages.csv",
        &render_csv(&stage_headers, &stage_rows),
    );
}
