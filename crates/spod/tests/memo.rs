//! The incremental detection memo, observed through telemetry.
//!
//! Telemetry is a process-global registry, so this test has a binary of
//! its own: no other test can move `spod.incremental.hits` while it
//! counts.

use cooper_exec::Executor;
use cooper_geometry::Vec3;
use cooper_lidar_sim::ObjectClass;
use cooper_pointcloud::{Point, PointCloud};
use cooper_spod::{DetectOptions, DetectScratch, FeaturizeCache, SpodConfig, SpodDetector};
use cooper_telemetry::names;

fn hits() -> u64 {
    cooper_telemetry::snapshot()
        .counter(names::SPOD_INCREMENTAL_HITS)
        .unwrap_or(0)
}

/// A car-sized blob of points 10 m ahead, 1.8 m below the sensor.
fn blob() -> PointCloud {
    (0..200)
        .map(|i| {
            let fx = (i % 20) as f64 * 0.2;
            let fy = ((i / 20) % 5) as f64 * 0.35;
            let fz = (i / 100) as f64 * 0.6;
            Point::new(Vec3::new(8.0 + fx, -0.9 + fy, -1.7 + fz), 0.45)
        })
        .collect()
}

#[test]
fn memo_serves_only_a_bitwise_repeat_under_equal_options() {
    cooper_telemetry::reset();
    cooper_telemetry::enable();
    let det = SpodDetector::new(SpodConfig::default());
    let base = DetectOptions::default()
        .with_threshold(0.4)
        .with_executor(Executor::sequential());
    let threshold = base.clone().with_threshold(0.45);
    let class = base.clone().with_class(ObjectClass::Car);
    let cloud = blob();
    // The same cloud with the lowest mantissa bit of one coordinate
    // flipped.
    let mut points = cloud.as_slice().to_vec();
    points[17].position.x = f64::from_bits(points[17].position.x.to_bits() ^ 1);
    let flipped: PointCloud = points.into_iter().collect();

    // Each miss differs from the memo's entry in exactly one of input,
    // threshold or class.
    let calls = [
        ("cold", &cloud, &base, false),
        ("bitwise repeat", &cloud, &base, true),
        ("one bit flipped", &flipped, &base, false),
        ("back to the cloud", &cloud, &base, false),
        ("threshold changed", &cloud, &threshold, false),
        ("back to the threshold", &cloud, &base, false),
        ("class changed", &cloud, &class, false),
        ("class repeat", &cloud, &class, true),
    ];
    let mut scratch = DetectScratch::new();
    let mut cache = FeaturizeCache::new();
    for (what, input, options, hit) in calls {
        let before = hits();
        let got = det.detect_incremental(input, options, &mut scratch, &mut cache);
        assert_eq!(hits() - before, u64::from(hit), "{what}: memo hit count");
        let want = det.detect_with(input, options, &mut DetectScratch::new());
        assert!(!want.is_empty(), "{what}: the blob must yield detections");
        assert_eq!(got, want, "{what}: differs from detect_with");
    }
    cooper_telemetry::disable();
}
