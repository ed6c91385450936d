//! Property-based tests for the Cooper core: packet codec and
//! alignment.

use cooper_core::{alignment_transform, ExchangePacket};
use cooper_geometry::{Attitude, GpsFix, Pose, RigidTransform, Vec3};
use cooper_lidar_sim::PoseEstimate;
use cooper_pointcloud::{Point, PointCloud};
use proptest::prelude::*;

fn origin() -> GpsFix {
    GpsFix::new(33.2075, -97.1526, 190.0)
}

fn cloud(max: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(
        (-90.0..90.0f64, -90.0..90.0f64, -4.0..4.0f64, 0.0..1.0f32),
        0..max,
    )
    .prop_map(|pts| {
        pts.into_iter()
            .map(|(x, y, z, r)| Point::new(Vec3::new(x, y, z), r))
            .collect()
    })
}

fn pose() -> impl Strategy<Value = Pose> {
    (
        -200.0..200.0f64,
        -200.0..200.0f64,
        0.5..3.0f64,
        -3.0..3.0f64,
        -0.1..0.1f64,
        -0.1..0.1f64,
    )
        .prop_map(|(x, y, z, yaw, pitch, roll)| {
            Pose::new(Vec3::new(x, y, z), Attitude::new(yaw, pitch, roll))
        })
}

proptest! {
    #[test]
    fn packet_round_trip(c in cloud(200), p in pose(), id in 0u32..1000, seq in 0u32..1000) {
        let est = PoseEstimate::from_pose(&p, &origin());
        let packet = ExchangePacket::build(id, seq, &c, est).unwrap();
        let parsed = ExchangePacket::from_bytes(&packet.to_bytes()).unwrap();
        prop_assert_eq!(parsed.vehicle_id(), id);
        prop_assert_eq!(parsed.sequence(), seq);
        let decoded = parsed.cloud().unwrap();
        prop_assert_eq!(decoded.len(), c.len());
        for (a, b) in c.iter().zip(decoded.iter()) {
            prop_assert!((a.position - b.position).norm() <= 0.009);
        }
        // The pose survives byte-exactly (f64 fields are copied, not
        // quantized).
        prop_assert!((parsed.pose().gps.latitude - est.gps.latitude).abs() < 1e-12);
        prop_assert!((parsed.pose().attitude.yaw - est.attitude.yaw).abs() < 1e-12);
    }

    #[test]
    fn alignment_matches_ground_truth_transform(tx in pose(), rx in pose(), px in -50.0..50.0f64, py in -50.0..50.0f64) {
        let est_tx = PoseEstimate::from_pose(&tx, &origin());
        let est_rx = PoseEstimate::from_pose(&rx, &origin());
        let via_gps = alignment_transform(&est_tx, &est_rx, &origin());
        let direct = RigidTransform::between(&tx, &rx);
        let p = Vec3::new(px, py, -1.0);
        // The equirectangular GPS approximation introduces sub-mm error
        // at V2V ranges.
        prop_assert!((via_gps.apply(p) - direct.apply(p)).norm() < 5e-3);
    }

    #[test]
    fn alignment_transforms_compose_to_identity(a in pose(), b in pose(), px in -50.0..50.0f64, py in -50.0..50.0f64) {
        let est_a = PoseEstimate::from_pose(&a, &origin());
        let est_b = PoseEstimate::from_pose(&b, &origin());
        let forward = alignment_transform(&est_a, &est_b, &origin());
        let back = alignment_transform(&est_b, &est_a, &origin());
        let p = Vec3::new(px, py, -1.0);
        // Aligning a→b then b→a must return every point to where it
        // started (up to the equirectangular approximation error).
        prop_assert!(
            (back.apply(forward.apply(p)) - p).norm() < 1e-6,
            "composition moved {p} by {}",
            (back.apply(forward.apply(p)) - p).norm()
        );
    }

    #[test]
    fn truncation_never_panics(c in cloud(50), p in pose(), cut_fraction in 0.0..1.0f64) {
        let est = PoseEstimate::from_pose(&p, &origin());
        let packet = ExchangePacket::build(0, 0, &c, est).unwrap();
        let bytes = packet.to_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        // Must return an error or a valid packet, never panic.
        let _ = ExchangePacket::from_bytes(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
    }
}

proptest! {
    #[test]
    fn packet_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = ExchangePacket::from_bytes(&bytes);
    }

    #[test]
    fn partial_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = ExchangePacket::from_partial_bytes(&bytes);
    }

    #[test]
    fn partial_salvage_of_truncated_packets_is_bounded(
        c in cloud(80),
        p in pose(),
        integrity in any::<bool>(),
        cut_fraction in 0.0..1.0f64,
        flip_at in 0usize..4096,
        flip_mask in 0u8..=255,
    ) {
        // Structure-aware salvage fuzz: a real packet (optionally
        // CRC-framed), truncated anywhere and with one byte mutated.
        // The salvage path must never panic, and on success the
        // recovered packet must be self-consistent: decodable, no
        // larger than the original, and with a sane salvage fraction.
        let est = PoseEstimate::from_pose(&p, &origin());
        let mut packet = ExchangePacket::build(7, 3, &c, est).unwrap();
        if integrity {
            packet = packet.with_integrity().unwrap();
        }
        let bytes = packet.to_bytes();
        let cut = (((bytes.len() as f64) * cut_fraction) as usize).min(bytes.len());
        let mut partial = bytes[..cut].to_vec();
        if flip_mask != 0 {
            let flip_index = flip_at.min(partial.len().saturating_sub(1));
            if let Some(b) = partial.get_mut(flip_index) {
                *b ^= flip_mask;
            }
        }
        if let Ok((salvaged, fraction)) = ExchangePacket::from_partial_bytes(&partial) {
            prop_assert!((0.0..=1.0).contains(&fraction));
            let recovered = salvaged.cloud().unwrap();
            prop_assert!(recovered.len() <= c.len());
            // The re-encoded salvage must itself round-trip.
            let again = ExchangePacket::from_bytes(&salvaged.to_bytes()).unwrap();
            prop_assert_eq!(again.cloud().unwrap().len(), recovered.len());
        }
    }
}
