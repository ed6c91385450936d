//! The pipeline's per-receiver detection memos, observed through
//! telemetry.
//!
//! Telemetry is a process-global registry, so this test has a binary of
//! its own: no other test can move `spod.incremental.hits` while it
//! counts.

use cooper_core::{CooperPipeline, ExchangePacket, PerceptionCache};
use cooper_exec::Executor;
use cooper_geometry::GpsFix;
use cooper_lidar_sim::{scenario, LidarScanner, PoseEstimate};
use cooper_spod::{DetectScratch, SpodConfig, SpodDetector};
use cooper_telemetry::names;

fn hits() -> u64 {
    cooper_telemetry::snapshot()
        .counter(names::SPOD_INCREMENTAL_HITS)
        .unwrap_or(0)
}

#[test]
fn each_perceive_stream_serves_its_own_repeats() {
    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let pipeline =
        CooperPipeline::new(SpodDetector::new(SpodConfig::default())).with_score_threshold(0.4);
    let scene = scenario::tj_scenario_1();
    let scanner = LidarScanner::new(scene.kind.beam_model().noiseless());
    let origin = GpsFix::new(33.2075, -97.1526, 190.0);
    let rx_est = PoseEstimate::from_pose(&scene.observers[0], &origin);
    let tx_est = PoseEstimate::from_pose(&scene.observers[1], &origin);
    let local = scanner.scan(&scene.world, &scene.observers[0], 1);
    // Same pose, but a sensor with noise: a scan that differs in bits.
    let other_local =
        LidarScanner::new(scene.kind.beam_model()).scan(&scene.world, &scene.observers[0], 3);
    let remote = scanner.scan(&scene.world, &scene.observers[1], 2);
    let points = ExchangePacket::build(2, 0, &remote, tx_est).unwrap();
    let frame = pipeline.detector().featurize(&remote).to_feature_frame();
    let features = ExchangePacket::build_features(2, 0, &frame, tx_est).unwrap();

    // `Some(inbox)` perceives cooperatively, `None` on the own scan.
    let calls: [(&str, Option<&ExchangePacket>, &_, bool, u64); 9] = [
        ("single cold", None, &local, true, 0),
        ("cooperative cold", Some(&points), &local, true, 0),
        // The cooperative call did not evict the single-shot memo.
        ("single repeat", None, &local, true, 1),
        ("cooperative repeat", Some(&points), &local, true, 1),
        // A feature inbox takes the BEV path and leaves the memo alone.
        ("feature inbox", Some(&features), &local, true, 0),
        ("cooperative after features", Some(&points), &local, true, 1),
        ("single uncached", None, &local, false, 0),
        ("single new scan", None, &other_local, true, 0),
        ("cooperative new scan", Some(&points), &other_local, true, 0),
    ];
    let cache = PerceptionCache::new();
    let executor = Executor::sequential();
    let mut scratch = DetectScratch::new();
    for (what, inbox, scan, cached, expected_hits) in calls {
        let cache = cached.then_some(&cache);
        let before = hits();
        let (got, want) = match inbox {
            None => (
                pipeline.perceive_single_with(scan, &executor, &mut scratch, cache),
                pipeline.perceive_single(scan),
            ),
            Some(packet) => (
                pipeline
                    .perceive_with(
                        scan,
                        &rx_est,
                        std::slice::from_ref(packet),
                        &origin,
                        &executor,
                        &mut scratch,
                        cache,
                    )
                    .detections,
                pipeline
                    .perceive(scan, &rx_est, std::slice::from_ref(packet), &origin)
                    .detections,
            ),
        };
        assert_eq!(hits() - before, expected_hits, "{what}: memo hit count");
        assert!(!want.is_empty(), "{what}: the scene must yield detections");
        assert_eq!(got, want, "{what}: differs from the uncached call");
    }
    cooper_telemetry::disable();
}
