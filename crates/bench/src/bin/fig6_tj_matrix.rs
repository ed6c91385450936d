//! Figure 6 — vehicle detection results in the four T&J scenarios.
//!
//! Prints one score matrix per cooperative case: per ground-truth car,
//! the detection score in each single shot and in the cooperative
//! cloud, with the paper's near/medium/far distance bands, plus the Δd
//! of each pairing.

use cooper_bench::{
    evaluate_scenarios_parallel, output_dir, render_csv, standard_pipeline, write_artifact,
};
use cooper_core::report::EvaluationConfig;
use cooper_lidar_sim::scenario::tj_scenarios;

fn main() {
    eprintln!("training SPOD detector…");
    let pipeline = standard_pipeline();
    let scenarios = tj_scenarios();
    let config = EvaluationConfig::default();
    eprintln!("evaluating {} T&J scenarios…", scenarios.len());
    let evaluations = evaluate_scenarios_parallel(&pipeline, &scenarios, &config);

    let out = output_dir();
    let mut csv_rows = Vec::new();
    println!("=== Figure 6: T&J scenario score matrices ===\n");
    for evals in &evaluations {
        for eval in evals {
            println!("{}", eval.render_matrix());
            println!(
                "detected: single A = {}, single B = {}, Cooper = {}\n",
                eval.detected_a(),
                eval.detected_b(),
                eval.detected_coop()
            );
            for row in &eval.rows {
                csv_rows.push(vec![
                    eval.scenario_name.clone(),
                    format!("{:.1}", eval.delta_d),
                    row.gt_index.to_string(),
                    row.band.to_string(),
                    row.score_a.map_or("X".into(), |s| format!("{s:.2}")),
                    row.score_b.map_or("X".into(), |s| format!("{s:.2}")),
                    row.score_coop.map_or("X".into(), |s| format!("{s:.2}")),
                ]);
            }
        }
    }
    write_artifact(
        out.as_deref(),
        "fig6_tj_matrix.csv",
        &render_csv(
            &[
                "scenario",
                "delta_d",
                "car",
                "band",
                "score_a",
                "score_b",
                "score_coop",
            ],
            &csv_rows,
        ),
    );

    // The paper's headline property: the cooperative column dominates.
    let mut regressions = 0;
    for evals in &evaluations {
        for eval in evals {
            if eval.detected_coop() < eval.detected_a().max(eval.detected_b()) {
                regressions += 1;
            }
        }
    }
    println!(
        "cooperative detections >= best single shot in {}/{} cases",
        evaluations.iter().flatten().count() - regressions,
        evaluations.iter().flatten().count()
    );
}
