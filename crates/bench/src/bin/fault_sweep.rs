//! Fault sweep: fused detection recall vs GPS drift magnitude, with
//! the alignment guard off and on — the robustness extension of the
//! paper's Figure 10.
//!
//! Figure 10 shows what uncorrected GPS skew does to individual
//! detection scores; this benchmark measures the aggregate cost and
//! what the receiver-side alignment guard buys back. For each drift
//! magnitude the transmitter's pose estimate is biased before
//! alignment, and pooled car recall over the T&J scenarios is compared
//! across four arms: ego-only perception, fused with the true pose
//! (clean), fused with the biased pose unguarded (guard off) and fused
//! with the biased pose through the guard's ICP refinement / rejection
//! gate (guard on). Emits `BENCH_fault.json`; `--check` runs the CI
//! acceptance subset.

use cooper_bench::{ledger, output_dir, render_table, standard_pipeline, write_artifact};
use cooper_core::report::match_by_center_distance;
use cooper_core::{
    AlignmentGuardConfig, CooperPipeline, ExchangePacket, GuardDecision, PerceiveCtx, GPS_ANCHOR,
};
use cooper_geometry::{Obb3, RigidTransform, Vec3};
use cooper_lidar_sim::scenario::tj_scenarios;
use cooper_lidar_sim::{LidarScanner, PoseEstimate};

/// The realistic sensor model's drift ceiling (metres); the acceptance
/// criterion is evaluated at twice this.
const MAX_DRIFT_M: f64 = 1.0;
/// Drift magnitudes swept (metres of planar GPS bias).
const DRIFTS_M: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0 * MAX_DRIFT_M, 3.0];
/// Match threshold for recall, metres. Tighter than the evaluation
/// default (2.5 m) on purpose: misalignment degrades *localization*,
/// and a loose threshold lets a ghosted, offset fusion still "match"
/// ground truth it localized metres off.
const MATCH_DISTANCE_M: f64 = 1.0;

/// One cooperating pair's precomputed inputs.
struct PairContext {
    scan_a: cooper_pointcloud::PointCloud,
    est_a: PoseEstimate,
    scan_b: cooper_pointcloud::PointCloud,
    est_b: PoseEstimate,
    gt_in_a: Vec<Obb3>,
}

/// Pooled recall of one arm plus the guard's verdict tally.
#[derive(Default)]
struct ArmOutcome {
    matched: usize,
    total: usize,
    refined: u64,
    rejected: u64,
}

impl ArmOutcome {
    fn recall(&self) -> f64 {
        self.matched as f64 / self.total.max(1) as f64
    }
}

/// One row of the sweep.
struct SweepPoint {
    drift_m: f64,
    ego: f64,
    clean: f64,
    guard_off: f64,
    guard_on: f64,
    refined: u64,
    rejected: u64,
}

fn contexts() -> Vec<PairContext> {
    tj_scenarios()
        .into_iter()
        .map(|scenario| {
            let scanner = LidarScanner::new(scenario.kind.beam_model());
            let (ia, ib) = scenario.pairs[0];
            let pose_a = scenario.observers[ia];
            let pose_b = scenario.observers[ib];
            let world_to_a = RigidTransform::from_pose(&pose_a).inverse();
            PairContext {
                scan_a: scanner.scan(&scenario.world, &pose_a, 11),
                est_a: PoseEstimate::from_pose(&pose_a, &GPS_ANCHOR),
                scan_b: scanner.scan(&scenario.world, &pose_b, 12),
                est_b: PoseEstimate::from_pose(&pose_b, &GPS_ANCHOR),
                gt_in_a: scenario
                    .ground_truth_cars()
                    .iter()
                    .map(|g| g.transformed(&world_to_a))
                    .collect(),
            }
        })
        .collect()
}

/// Pooled ego-only recall (no exchange at all).
fn ego_arm(pipeline: &CooperPipeline, pairs: &[PairContext]) -> f64 {
    let mut out = ArmOutcome::default();
    for pair in pairs {
        let detections = pipeline.perceive_single(&pair.scan_a, PerceiveCtx::default());
        let scores = match_by_center_distance(&detections, &pair.gt_in_a, MATCH_DISTANCE_M);
        out.total += scores.len();
        out.matched += scores.iter().flatten().count();
    }
    out.recall()
}

/// Pooled fused recall with the transmitter's GPS biased `drift_m`
/// metres; `pipeline` decides whether the guard is in the loop.
fn fused_arm(pipeline: &CooperPipeline, pairs: &[PairContext], drift_m: f64) -> ArmOutcome {
    let mut out = ArmOutcome::default();
    for pair in pairs {
        let mut est_b = pair.est_b;
        est_b.gps = est_b.gps.offset_by(Vec3::new(
            drift_m * std::f64::consts::FRAC_1_SQRT_2,
            drift_m * std::f64::consts::FRAC_1_SQRT_2,
            0.0,
        ));
        let packet = ExchangePacket::build(1, 0, &pair.scan_b, est_b).expect("encodes");
        let result = pipeline.perceive(
            &pair.scan_a,
            &pair.est_a,
            vec![packet.decode()],
            &GPS_ANCHOR,
            PerceiveCtx::default(),
        );
        let scores = match_by_center_distance(&result.detections, &pair.gt_in_a, MATCH_DISTANCE_M);
        out.total += scores.len();
        out.matched += scores.iter().flatten().count();
        for record in &result.alignment {
            match record.decision {
                GuardDecision::AcceptedRefined => out.refined += 1,
                GuardDecision::Rejected | GuardDecision::InsufficientOverlap => out.rejected += 1,
                GuardDecision::AcceptedClean => {}
            }
        }
    }
    out
}

fn run_sweep(
    plain: &CooperPipeline,
    guarded: &CooperPipeline,
    pairs: &[PairContext],
) -> Vec<SweepPoint> {
    let ego = ego_arm(plain, pairs);
    let clean = fused_arm(plain, pairs, 0.0).recall();
    DRIFTS_M
        .iter()
        .map(|&drift_m| {
            let off = fused_arm(plain, pairs, drift_m);
            let on = fused_arm(guarded, pairs, drift_m);
            SweepPoint {
                drift_m,
                ego,
                clean,
                guard_off: off.recall(),
                guard_on: on.recall(),
                refined: on.refined,
                rejected: on.rejected,
            }
        })
        .collect()
}

fn guarded_pipeline(plain: &CooperPipeline) -> CooperPipeline {
    plain
        .clone()
        .with_alignment_guard(AlignmentGuardConfig::default())
}

/// The acceptance criterion at one sweep point: the guard must recover
/// at least half of the recall gap the drift opened (trivially true
/// when there is no gap) and never do worse than ego-only perception.
fn point_passes(p: &SweepPoint) -> bool {
    let target = p.guard_off + 0.5 * (p.clean - p.guard_off).max(0.0);
    p.guard_on + 1e-9 >= target && p.guard_on + 1e-9 >= p.ego
}

/// `--check`: evaluate only the 2x-max-drift point and verify the
/// acceptance criteria — the CI smoke mode. Exits non-zero on
/// violation, writes no artifact.
fn run_check() {
    let plain = standard_pipeline();
    let guarded = guarded_pipeline(&plain);
    let pairs = contexts();
    let drift = 2.0 * MAX_DRIFT_M;
    let ego = ego_arm(&plain, &pairs);
    let clean = fused_arm(&plain, &pairs, 0.0).recall();
    let off = fused_arm(&plain, &pairs, drift);
    let on = fused_arm(&guarded, &pairs, drift);
    let point = SweepPoint {
        drift_m: drift,
        ego,
        clean,
        guard_off: off.recall(),
        guard_on: on.recall(),
        refined: on.refined,
        rejected: on.rejected,
    };
    println!(
        "check at {drift:.1} m drift: ego {:.3}, clean {:.3}, guard off {:.3}, guard on {:.3} ({} refined, {} rejected)",
        point.ego, point.clean, point.guard_off, point.guard_on, point.refined, point.rejected
    );
    if !point_passes(&point) {
        eprintln!("fault_sweep check FAILED: guard must recover >= 50% of the drift gap and never fall below ego-only recall");
        std::process::exit(1);
    }
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    let record = ledger::BenchRecord::new(
        "fault_sweep",
        &[
            ("drift_m", point.drift_m),
            ("ego_recall", point.ego),
            ("clean_recall", point.clean),
            ("guard_off_recall", point.guard_off),
            ("guard_on_recall", point.guard_on),
        ],
    );
    if let Err(e) = ledger::append(&dir.join(ledger::HISTORY_FILE), &record) {
        eprintln!("warning: cannot append to bench ledger: {e}");
    }
    println!("fault_sweep check passed");
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        run_check();
        return;
    }
    println!("=== Fault sweep: fused recall vs GPS drift, guard off/on ===\n");
    eprintln!("training SPOD detector…");
    let plain = standard_pipeline();
    let guarded = guarded_pipeline(&plain);
    let pairs = contexts();
    let points = run_sweep(&plain, &guarded, &pairs);

    let headers = [
        "drift_m",
        "ego",
        "clean_fused",
        "guard_off",
        "guard_on",
        "refined",
        "rejected",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.drift_m),
                format!("{:.3}", p.ego),
                format!("{:.3}", p.clean),
                format!("{:.3}", p.guard_off),
                format!("{:.3}", p.guard_on),
                p.refined.to_string(),
                p.rejected.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    let headline = points
        .iter()
        .find(|p| p.drift_m == 2.0 * MAX_DRIFT_M)
        .expect("sweep covers the acceptance point");
    println!(
        "At {:.1} m drift (2x max): guard off {:.3} -> guard on {:.3} (clean {:.3}, ego {:.3}); criterion {}.",
        headline.drift_m,
        headline.guard_off,
        headline.guard_on,
        headline.clean,
        headline.ego,
        if point_passes(headline) { "met" } else { "NOT met" },
    );

    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"drift_m\": {:.2}, \"ego_recall\": {:.4}, \"clean_recall\": {:.4}, \"guard_off_recall\": {:.4}, \"guard_on_recall\": {:.4}, \"refined\": {}, \"rejected\": {}}}",
                p.drift_m, p.ego, p.clean, p.guard_off, p.guard_on, p.refined, p.rejected
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"max_drift_m\": {MAX_DRIFT_M},\n  \"acceptance_drift_m\": {},\n  \"sweep\": [\n{}\n  ],\n  \"acceptance\": {{\"guard_off_recall\": {:.4}, \"guard_on_recall\": {:.4}, \"clean_recall\": {:.4}, \"ego_recall\": {:.4}, \"passes\": {}}}\n}}\n",
        2.0 * MAX_DRIFT_M,
        sweep_json.join(",\n"),
        headline.guard_off,
        headline.guard_on,
        headline.clean,
        headline.ego,
        point_passes(headline),
    );
    let dir = output_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    write_artifact(Some(&dir), "BENCH_fault.json", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion, enforced where CI sees it: at
    /// twice the sensor model's maximum drift the guard must recover at
    /// least half of the recall gap between the unguarded faulted run
    /// and the clean-alignment run, and never fall below the ego-only
    /// baseline.
    #[test]
    fn guard_recovers_half_the_drift_gap_at_double_max_drift() {
        let plain = standard_pipeline();
        let guarded = guarded_pipeline(&plain);
        let pairs = contexts();
        let drift = 2.0 * MAX_DRIFT_M;
        let ego = ego_arm(&plain, &pairs);
        let clean = fused_arm(&plain, &pairs, 0.0).recall();
        let off = fused_arm(&plain, &pairs, drift);
        let on = fused_arm(&guarded, &pairs, drift);
        let point = SweepPoint {
            drift_m: drift,
            ego,
            clean,
            guard_off: off.recall(),
            guard_on: on.recall(),
            refined: on.refined,
            rejected: on.rejected,
        };
        assert!(
            point_passes(&point),
            "guard on {:.3} must reach >= {:.3} (guard off {:.3}, clean {:.3}) and >= ego {:.3}",
            point.guard_on,
            point.guard_off + 0.5 * (point.clean - point.guard_off).max(0.0),
            point.guard_off,
            point.clean,
            point.ego,
        );
        assert!(
            on.refined + on.rejected > 0,
            "a 2 m bias must trip the guard into refining or rejecting"
        );
    }

    /// With no drift the guard must be invisible: clean alignments pass
    /// (no rejections) and recall matches the unguarded clean arm.
    #[test]
    fn guard_is_transparent_at_zero_drift() {
        let plain = standard_pipeline();
        let guarded = guarded_pipeline(&plain);
        let pairs = contexts();
        let off = fused_arm(&plain, &pairs, 0.0);
        let on = fused_arm(&guarded, &pairs, 0.0);
        assert_eq!(on.rejected, 0, "clean alignment must never be rejected");
        assert!(
            on.recall() + 1e-9 >= off.recall(),
            "guard on {:.3} vs guard off {:.3} at zero drift",
            on.recall(),
            off.recall()
        );
    }
}
