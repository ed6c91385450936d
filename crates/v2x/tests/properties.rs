//! Property-based tests for the V2X substrate.

use cooper_core::ExchangePacket;
use cooper_geometry::{Attitude, GpsFix, Vec3};
use cooper_lidar_sim::PoseEstimate;
use cooper_pointcloud::roi::{extract_roi, BlindSector, RoiCategory};
use cooper_pointcloud::{Point, PointCloud};
use cooper_v2x::{
    demand_roi, fragment, reassemble, salvage_prefix, BandwidthGovernor, CsmaMedium, DataRate,
    DsrcChannel, DsrcConfig, ExchangeScheduler, ReassemblyError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn category() -> impl Strategy<Value = RoiCategory> {
    (0..RoiCategory::ALL.len()).prop_map(|i| RoiCategory::ALL[i])
}

/// Narrow blind sectors (0.05–0.5 rad wide) centred anywhere on the
/// circle.
fn blind_sectors(max: usize) -> impl Strategy<Value = Vec<BlindSector>> {
    prop::collection::vec(
        (
            -std::f64::consts::PI..std::f64::consts::PI,
            0.05..0.5f64,
            2.0..40.0f64,
        ),
        0..max,
    )
    .prop_map(|sectors| {
        sectors
            .into_iter()
            .map(|(center, width, occluder_range)| BlindSector {
                start: center - width * 0.5,
                end: center + width * 0.5,
                occluder_range,
            })
            .collect()
    })
}

/// Position of `roi` in [`RoiCategory::ALL`]: 0 is the widest.
fn narrowness(roi: RoiCategory) -> usize {
    RoiCategory::ALL.iter().position(|&c| c == roi).unwrap()
}

proptest! {
    #[test]
    fn fragmentation_round_trips(data in prop::collection::vec(any::<u8>(), 0..5000),
                                 mtu in 1usize..2000,
                                 message_id in any::<u32>()) {
        let fragments = fragment(message_id, &data, mtu);
        // Every fragment respects the MTU and carries consistent metadata.
        for f in &fragments {
            prop_assert!(f.payload.len() <= mtu);
            prop_assert_eq!(f.message_id, message_id);
            prop_assert_eq!(f.total as usize, fragments.len());
        }
        let back = reassemble(&fragments).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn shuffled_fragments_round_trip(data in prop::collection::vec(any::<u8>(), 1..3000),
                                     mtu in 16usize..512,
                                     seed in any::<u64>()) {
        let mut fragments = fragment(7, &data, mtu);
        // Deterministic shuffle.
        let mut rng_state = seed | 1;
        for i in (1..fragments.len()).rev() {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (rng_state >> 33) as usize % (i + 1);
            fragments.swap(i, j);
        }
        prop_assert_eq!(reassemble(&fragments).unwrap(), data);
    }

    #[test]
    fn duplicated_fragments_round_trip(data in prop::collection::vec(any::<u8>(), 1..3000),
                                       mtu in 16usize..512,
                                       seed in any::<u64>()) {
        let fragments = fragment(9, &data, mtu);
        // Duplicate a deterministic subset, as a retransmitting channel
        // would on a delayed-then-recovered frame.
        let mut noisy = fragments.clone();
        let mut rng_state = seed | 1;
        for f in &fragments {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if rng_state >> 63 == 1 {
                noisy.push(f.clone());
            }
        }
        prop_assert_eq!(reassemble(&noisy).unwrap(), data);
        let salvaged = salvage_prefix(&noisy).unwrap();
        prop_assert!(salvaged.is_complete());
        prop_assert_eq!(salvaged.bytes, data);
    }

    #[test]
    fn dropped_fragments_salvage_the_exact_prefix(data in prop::collection::vec(any::<u8>(), 1..3000),
                                                  mtu in 16usize..512,
                                                  seed in any::<u64>()) {
        let fragments = fragment(11, &data, mtu);
        // Drop a deterministic subset; shuffle survivors for good measure.
        let mut rng_state = seed | 1;
        let mut survivors: Vec<_> = fragments
            .iter()
            .filter(|_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                rng_state >> 63 == 0
            })
            .cloned()
            .collect();
        for i in (1..survivors.len()).rev() {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (rng_state >> 33) as usize % (i + 1);
            survivors.swap(i, j);
        }
        let delivered: std::collections::HashSet<u32> =
            survivors.iter().map(|f| f.index).collect();
        let expected_prefix = (0..fragments.len() as u32)
            .take_while(|i| delivered.contains(i))
            .count();
        if survivors.is_empty() {
            prop_assert_eq!(salvage_prefix(&survivors), Err(ReassemblyError::Empty));
        } else {
            let salvaged = salvage_prefix(&survivors).unwrap();
            prop_assert_eq!(salvaged.fragments_used as usize, expected_prefix);
            // The salvaged bytes are exactly the original payload prefix.
            let prefix_len: usize = fragments[..expected_prefix]
                .iter()
                .map(|f| f.payload.len())
                .sum();
            prop_assert_eq!(&salvaged.bytes[..], &data[..prefix_len]);
            // Full reassembly only succeeds when nothing was dropped.
            prop_assert_eq!(
                reassemble(&survivors).is_ok(),
                delivered.len() == fragments.len()
            );
        }
    }

    #[test]
    fn airtime_is_monotone_in_payload(a in 0usize..500_000, b in 0usize..500_000) {
        let ch = DsrcChannel::new(DsrcConfig::default());
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(ch.airtime_for(small) <= ch.airtime_for(large) + 1e-12);
        prop_assert!(ch.airtime_for(large) > 0.0);
    }

    #[test]
    fn faster_rates_never_slower(payload in 1usize..500_000) {
        let mut previous = f64::INFINITY;
        for rate in DataRate::ALL {
            let ch = DsrcChannel::new(DsrcConfig { data_rate: rate, ..DsrcConfig::default() });
            let t = ch.airtime_for(payload);
            prop_assert!(t <= previous + 1e-12, "{rate} slower than the previous rate");
            previous = t;
        }
    }

    #[test]
    fn transmission_reports_are_consistent(payload in 0usize..200_000,
                                           loss in 0.0..0.9f64,
                                           seed in any::<u64>()) {
        let ch = DsrcChannel::new(DsrcConfig { loss_probability: loss, ..DsrcConfig::default() });
        let mut rng = StdRng::seed_from_u64(seed);
        let report = ch.transmit_sized(payload, &mut rng);
        prop_assert!(report.frames_delivered <= report.frames);
        prop_assert_eq!(report.complete, report.frames_delivered == report.frames);
        prop_assert!(report.bytes_on_air >= payload);
        prop_assert!(report.frames >= 1);
    }

    #[test]
    fn csma_rounds_conserve_frames(n in 1usize..12, payload in 100usize..20_000, seed in any::<u64>()) {
        let medium = CsmaMedium::new(DsrcChannel::new(DsrcConfig::default()));
        let mut rng = StdRng::seed_from_u64(seed);
        let report = medium.simulate_round(&vec![payload; n], &mut rng);
        prop_assert_eq!(report.delivered + report.dropped, n);
        prop_assert!(report.round_time_s >= 0.0);
        prop_assert!((0.0..=1.0).contains(&report.delivery_ratio()));
        // A single station always delivers collision-free.
        if n == 1 {
            prop_assert_eq!(report.collisions, 0);
            prop_assert_eq!(report.delivered, 1);
        }
    }

    #[test]
    fn frame_wire_size_prices_the_built_packet(c in cloud(300), roi in category()) {
        // The Figure-12 trace prices a frame by point count; building
        // and encoding the ROI's packet must come to the same bytes.
        let pose = PoseEstimate {
            gps: GpsFix::new(0.0, 0.0, 0.0),
            attitude: Attitude::level(),
        };
        let packet = ExchangePacket::build(0, 0, &extract_roi(&c, roi), pose).unwrap();
        prop_assert_eq!(
            ExchangeScheduler::paper_default(roi).frame_wire_size(&c),
            packet.wire_size()
        );
    }

    #[test]
    fn demanded_roi_covers_every_blind_sector(sectors in blind_sectors(6)) {
        // Whatever the receiver cannot see, the region it asks for
        // holds: a return at each blind sector's centre lies inside.
        let roi = demand_roi(&sectors);
        for s in &sectors {
            let (sin, cos) = s.center().sin_cos();
            let probe = Point::new(Vec3::new(20.0 * cos, 20.0 * sin, 0.0), 0.5);
            prop_assert!(roi.contains(&probe), "{roi} misses the sector at {:.3} rad", s.center());
        }
        // A receiver with no blind sector asks for the narrowest wedge.
        prop_assert_eq!(sectors.is_empty(), roi == RoiCategory::ForwardOneWay);
    }

    #[test]
    fn base_roi_is_the_narrower_of_demand_and_cap(sectors in blind_sectors(6), cap in category()) {
        // The governor never starts wider than the receiver demands,
        // nor wider than its cap.
        let base = BandwidthGovernor::new(cap).base_roi(&sectors);
        prop_assert_eq!(
            narrowness(base),
            narrowness(demand_roi(&sectors)).max(narrowness(cap))
        );
    }
}
