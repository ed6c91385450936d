//! Figure 10 — cooperative perception under GPS reading drift.
//!
//! Reproduces the paper's skew protocol: the transmitter's GPS fix is
//! skewed (both axes to max drift / one axis / double drift) before
//! alignment, and the per-car detection scores on the fused cloud are
//! compared against the unskewed baseline. Each skew mode runs twice —
//! straight through fusion (guard off, the paper's setting) and through
//! the receiver-side alignment guard (guard on), which ICP-refines
//! recoverable skews and rejects unverifiable ones to ego-only
//! fallback.

use cooper_bench::{output_dir, render_csv, render_table, standard_pipeline, write_artifact};
use cooper_core::report::{match_by_center_distance, MATCH_DISTANCE_M};
use cooper_core::{AlignmentGuardConfig, CooperPipeline, ExchangePacket, PerceiveCtx, GPS_ANCHOR};
use cooper_geometry::{Obb3, RigidTransform};
use cooper_lidar_sim::scenario::tj_scenarios;
use cooper_lidar_sim::{GpsImuModel, LidarScanner, SkewMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();
    let guarded = pipeline
        .clone()
        .with_alignment_guard(AlignmentGuardConfig::default());
    let model = GpsImuModel::realistic();

    // Pool per-car scores over the T&J scenarios (the paper's Figure 10
    // plots ~18 detected car IDs). Each skew mode contributes a
    // guard-off and a guard-on score column.
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut car_id = 0usize;
    let mut failures_off = 0usize;
    let mut failures_on = 0usize;
    let mut improved = 0usize;
    let mut total = 0usize;
    let mut refined = 0usize;
    let mut rejected = 0usize;

    for scenario in tj_scenarios() {
        let scanner = LidarScanner::new(scenario.kind.beam_model());
        let (ia, ib) = scenario.pairs[0];
        let pose_a = scenario.observers[ia];
        let pose_b = scenario.observers[ib];
        let scan_a = scanner.scan(&scenario.world, &pose_a, 11);
        let scan_b = scanner.scan(&scenario.world, &pose_b, 12);
        let mut rng = StdRng::seed_from_u64(99);
        let est_a = model.measure(&pose_a, &GPS_ANCHOR, &mut rng);

        let world_to_a = RigidTransform::from_pose(&pose_a).inverse();
        let gt_in_a: Vec<Obb3> = scenario
            .ground_truth_cars()
            .iter()
            .map(|g| g.transformed(&world_to_a))
            .collect();

        // Receiver A's view is fixed; runs vary the pipeline and the
        // sender's packet.
        let perceive = |p: &CooperPipeline, packet: &ExchangePacket| {
            let inbox = vec![packet.decode()];
            p.perceive(&scan_a, &est_a, inbox, &GPS_ANCHOR, PerceiveCtx::default())
        };

        // Baseline: realistic (unskewed) measurement, guard off.
        let est_b = model.measure(&pose_b, &GPS_ANCHOR, &mut rng);
        let packet = ExchangePacket::build(1, 0, &scan_b, est_b).expect("encodes");
        let base = perceive(&pipeline, &packet);
        let base_scores = match_by_center_distance(&base.detections, &gt_in_a, MATCH_DISTANCE_M);

        // The three skew modes, each guard off and guard on.
        let mut off_scores = Vec::new();
        let mut on_scores = Vec::new();
        for mode in SkewMode::ALL {
            let est_skew = model.measure_skewed(&pose_b, &GPS_ANCHOR, mode, &mut rng);
            let packet = ExchangePacket::build(1, 0, &scan_b, est_skew).expect("encodes");
            let off = perceive(&pipeline, &packet);
            off_scores.push(match_by_center_distance(
                &off.detections,
                &gt_in_a,
                MATCH_DISTANCE_M,
            ));
            let on = perceive(&guarded, &packet);
            on_scores.push(match_by_center_distance(
                &on.detections,
                &gt_in_a,
                MATCH_DISTANCE_M,
            ));
            for record in &on.alignment {
                if record.decision == cooper_core::GuardDecision::AcceptedRefined {
                    refined += 1;
                } else if !record.decision.is_accepted() {
                    rejected += 1;
                }
            }
        }

        for (gt_idx, base_score) in base_scores.iter().enumerate() {
            let any_score = base_score.is_some()
                || off_scores.iter().any(|s| s[gt_idx].is_some())
                || on_scores.iter().any(|s| s[gt_idx].is_some());
            if !any_score {
                continue; // never detected — not a Figure-10 car ID
            }
            car_id += 1;
            let fmt = |s: Option<f32>| s.map_or("X".to_string(), |v| format!("{v:.2}"));
            let mut row = vec![car_id.to_string(), fmt(*base_score)];
            let mut csv_row = vec![
                car_id.to_string(),
                base_score.map_or(f32::NAN, |v| v).to_string(),
            ];
            for mode_idx in 0..SkewMode::ALL.len() {
                row.push(fmt(off_scores[mode_idx][gt_idx]));
                row.push(fmt(on_scores[mode_idx][gt_idx]));
                csv_row.push(
                    off_scores[mode_idx][gt_idx]
                        .map_or(f32::NAN, |v| v)
                        .to_string(),
                );
                csv_row.push(
                    on_scores[mode_idx][gt_idx]
                        .map_or(f32::NAN, |v| v)
                        .to_string(),
                );
            }
            rows.push(row);
            csv_rows.push(csv_row);
            for (off, on) in off_scores.iter().zip(&on_scores) {
                total += 1;
                match (base_score, off[gt_idx]) {
                    (Some(b), Some(v)) if v > *b => improved += 1,
                    (Some(_), None) => failures_off += 1,
                    _ => {}
                }
                if base_score.is_some() && on[gt_idx].is_none() {
                    failures_on += 1;
                }
            }
        }
    }

    let headers = [
        "car_id",
        "baseline",
        "both_axes_off",
        "both_axes_on",
        "one_axis_off",
        "one_axis_on",
        "double_off",
        "double_on",
    ];
    println!("=== Figure 10: detection scores under GPS drift, guard off/on ===\n");
    println!("{}", render_table(&headers, &rows));
    println!(
        "{improved}/{total} skewed readings improved the unguarded score; \
         {failures_off} detections failed unguarded vs {failures_on} with the guard."
    );
    println!("alignment guard: {refined} skewed clouds ICP-refined, {rejected} rejected.");
    println!("Shape check (paper): skewed scores cluster near the baseline, a few");
    println!("improve (masking inherent drift), and a small number fail. The paper's");
    println!("drift envelope (~10-30 cm skews) sits under the guard's clean-residual");
    println!("threshold, so the guard passes these through untouched — guard-on");
    println!("columns match guard-off. Larger drifts, where the guard refines and");
    println!("rejects, are swept by the fault_sweep benchmark.");
    write_artifact(
        output_dir().as_deref(),
        "fig10_gps_drift.csv",
        &render_csv(&headers, &csv_rows),
    );
}
