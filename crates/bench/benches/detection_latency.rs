//! Criterion version of Figure 9: SPOD detection latency on single-shot
//! vs cooperative (fused) clouds, for KITTI-style (64-beam) and
//! T&J-style (16-beam) input.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cooper_core::report::EvaluationConfig;
use cooper_core::{CooperPipeline, ExchangePacket, PerceiveCtx};
use cooper_lidar_sim::scenario::{t_junction, tj_scenario_1, Scenario};
use cooper_lidar_sim::{LidarScanner, PoseEstimate};
use cooper_pointcloud::PointCloud;
use cooper_spod::train::TrainingConfig;
use cooper_spod::SpodDetector;

struct Prepared {
    label: &'static str,
    scan_a: PointCloud,
    fused: PointCloud,
}

fn prepare(scenario: &Scenario, label: &'static str, pipeline: &CooperPipeline) -> Prepared {
    let scanner = LidarScanner::new(scenario.kind.beam_model());
    let (ia, ib) = scenario.pairs[0];
    let config = EvaluationConfig::default();
    let scan_a = scanner.scan(&scenario.world, &scenario.observers[ia], 1);
    let scan_b = scanner.scan(&scenario.world, &scenario.observers[ib], 2);
    let est_a = PoseEstimate::from_pose(&scenario.observers[ia], &config.origin);
    let est_b = PoseEstimate::from_pose(&scenario.observers[ib], &config.origin);
    let packet = ExchangePacket::build(1, 0, &scan_b, est_b).expect("encodes");
    let fused = pipeline
        .fuse(&scan_a, &est_a, &[packet], &config.origin)
        .expect("decodes");
    Prepared {
        label,
        scan_a,
        fused,
    }
}

fn bench_detection(c: &mut Criterion) {
    let pipeline = CooperPipeline::new(SpodDetector::train_default(&TrainingConfig::standard()));
    let cases = [
        prepare(&t_junction(), "kitti", &pipeline),
        prepare(&tj_scenario_1(), "tj", &pipeline),
    ];
    let mut group = c.benchmark_group("fig9_detection_latency");
    group.sample_size(10);
    for case in &cases {
        group.bench_function(format!("{}_single_shot", case.label), |b| {
            b.iter_batched(
                || case.scan_a.clone(),
                |scan| black_box(pipeline.perceive_single(&scan, PerceiveCtx::default())),
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("{}_cooper", case.label), |b| {
            b.iter_batched(
                || case.fused.clone(),
                |fused| black_box(pipeline.perceive_single(&fused, PerceiveCtx::default())),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detection);
criterion_main!(benches);
