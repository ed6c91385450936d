//! Property-based tests for point-cloud containers and the wire codec.

use cooper_geometry::{Attitude, Pose, RigidTransform, Vec3};
use cooper_pointcloud::codec::encoded_size;
use cooper_pointcloud::{
    decode_cloud, encode_cloud, Point, PointCloud, RangeImage, RangeImageConfig, VoxelGrid,
    VoxelGridConfig,
};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (-80.0..80.0f64, -80.0..80.0f64, -5.0..5.0f64, 0.0..1.0f32)
        .prop_map(|(x, y, z, r)| Point::new(Vec3::new(x, y, z), r))
}

fn cloud(max: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(point(), 0..max).prop_map(PointCloud::from_points)
}

/// `true` when a salvaged frame decodes in full, by the decoder its
/// header names.
fn decodes_whole(frame: &[u8]) -> bool {
    match cooper_pointcloud::frame_info(frame) {
        Ok(info) if info.kind == cooper_pointcloud::FrameKind::Features => {
            cooper_pointcloud::decode_features(frame).is_ok()
        }
        Ok(_) => decode_cloud(frame).is_ok(),
        Err(_) => false,
    }
}

fn pose() -> impl Strategy<Value = Pose> {
    (
        -50.0..50.0f64,
        -50.0..50.0f64,
        -1.0..1.0f64,
        -3.0..3.0f64,
        -0.2..0.2f64,
        -0.2..0.2f64,
    )
        .prop_map(|(x, y, z, yaw, pitch, roll)| {
            Pose::new(Vec3::new(x, y, z), Attitude::new(yaw, pitch, roll))
        })
}

proptest! {
    #[test]
    fn codec_round_trip_is_lossless_to_quantization(c in cloud(300)) {
        let bytes = encode_cloud(&c).unwrap();
        prop_assert_eq!(bytes.len(), encoded_size(c.len()));
        let decoded = decode_cloud(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), c.len());
        for (a, b) in c.iter().zip(decoded.iter()) {
            prop_assert!((a.position - b.position).norm() <= 0.009);
            prop_assert!((a.reflectance - b.reflectance).abs() <= 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn codec_double_round_trip_is_exact(c in cloud(200)) {
        // Quantization is idempotent: decode(encode(decode(encode(c))))
        // equals decode(encode(c)) exactly.
        let once = decode_cloud(&encode_cloud(&c).unwrap()).unwrap();
        let twice = decode_cloud(&encode_cloud(&once).unwrap()).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn merge_preserves_point_counts(a in cloud(200), b in cloud(200)) {
        let m = a.merged(&b);
        prop_assert_eq!(m.len(), a.len() + b.len());
        // Order: a's points first, then b's.
        for (i, p) in a.iter().enumerate() {
            prop_assert_eq!(m.as_slice()[i], *p);
        }
    }

    #[test]
    fn transform_round_trip(c in cloud(100), p1 in pose(), p2 in pose()) {
        let t = RigidTransform::between(&p1, &p2);
        let back = c.transformed(&t).transformed(&t.inverse());
        for (a, b) in c.iter().zip(back.iter()) {
            prop_assert!((a.position - b.position).norm() < 1e-7);
        }
    }

    #[test]
    fn voxelization_never_creates_points(c in cloud(400)) {
        let grid = VoxelGrid::from_cloud(&c, VoxelGridConfig::voxelnet_car());
        prop_assert!(grid.total_points() <= c.len());
        // Every voxel holds at least one point, and its points' extremes
        // lie within the extent.
        for (_, v) in grid.iter() {
            prop_assert!(v.count >= 1);
            prop_assert!(grid.config().extent.contains(v.min_position));
            prop_assert!(grid.config().extent.contains(v.max_position));
        }
    }

    #[test]
    fn soa_voxelization_matches_btreemap_reference(c in cloud(500)) {
        // The SoA grid (sorted coordinate + payload arrays) replaced a
        // per-point BTreeMap accumulation. The key sort keeps cloud
        // order within each voxel, so the result — including every
        // floating-point aggregate — must equal the old map's output bit
        // for bit.
        use std::collections::BTreeMap;
        use cooper_pointcloud::{Voxel, VoxelCoord};
        let config = VoxelGridConfig::voxelnet_car();
        let mut reference: BTreeMap<VoxelCoord, Voxel> = BTreeMap::new();
        for p in c.iter() {
            if let Some(coord) = config.coord_of(p.position) {
                let v = reference.entry(coord).or_default();
                v.count += 1;
                v.position_sum += p.position;
                v.reflectance_sum += f64::from(p.reflectance);
                v.min_position = v.min_position.min(p.position);
                v.max_position = v.max_position.max(p.position);
                let range_xy = p.range_xy();
                v.min_range_xy = v.min_range_xy.min(range_xy);
                v.max_range_xy = v.max_range_xy.max(range_xy);
            }
        }
        let grid = VoxelGrid::from_cloud(&c, config);
        prop_assert_eq!(grid.occupied_count(), reference.len());
        for ((coord, voxel), (ref_coord, ref_voxel)) in grid.iter().zip(reference.iter()) {
            prop_assert_eq!(coord, ref_coord);
            prop_assert_eq!(voxel, ref_voxel);
        }
        // The chunk-parallel path agrees on the discrete surface (its
        // float sums may differ in the last bits because chunking
        // regroups them) and is invariant to executor width.
        let chunked1 =
            VoxelGrid::from_cloud_chunked(&c, config, 64, &cooper_exec::Executor::new(Some(1)));
        let chunked4 =
            VoxelGrid::from_cloud_chunked(&c, config, 64, &cooper_exec::Executor::new(Some(4)));
        prop_assert_eq!(&chunked1, &chunked4);
        prop_assert_eq!(chunked1.coords(), grid.coords());
        prop_assert_eq!(chunked1.total_points(), grid.total_points());
    }

    #[test]
    fn voxel_centroid_inside_voxel(c in cloud(400)) {
        let grid = VoxelGrid::from_cloud(&c, VoxelGridConfig::voxelnet_car());
        for (coord, v) in grid.iter() {
            let centroid = v.centroid();
            // The centroid of a voxel's points maps back to that voxel.
            prop_assert_eq!(grid.config().coord_of(centroid), Some(*coord));
        }
    }

    #[test]
    fn range_image_back_projection_preserves_range(c in cloud(200)) {
        let img = RangeImage::project(&c, RangeImageConfig::vlp16());
        let back = img.to_cloud();
        prop_assert!(back.len() <= c.len());
        // Every back-projected range must equal some original in-FoV
        // range (the closest in its cell) to within quantization of the
        // cell direction.
        for p in back.iter() {
            let r = p.range();
            let close = c.iter().any(|q| (q.range() - r).abs() < 1e-3);
            prop_assert!(close, "range {r} not among originals");
        }
    }

    #[test]
    fn densify_only_adds_cells(c in cloud(300)) {
        let mut img = RangeImage::project(&c, RangeImageConfig::vlp16());
        let before = img.occupied_cells();
        let filled = img.densify_pass();
        prop_assert_eq!(img.occupied_cells(), before + filled);
    }

    #[test]
    fn roi_categories_monotone(c in cloud(300)) {
        use cooper_pointcloud::roi::{extract_roi, RoiCategory};
        let full = extract_roi(&c, RoiCategory::FullFrame);
        let fov = extract_roi(&c, RoiCategory::FrontFov120);
        let fwd = extract_roi(&c, RoiCategory::ForwardOneWay);
        prop_assert_eq!(full.len(), c.len());
        prop_assert!(fov.len() <= full.len());
        prop_assert!(fwd.len() <= fov.len());
    }

    #[test]
    fn blind_sector_contains_matches_membership(
        // Sectors in the blind_sectors convention: start in (-π, π],
        // width up to the full circle, so `end` may cross the seam and
        // exceed π by nearly 2π.
        start in -std::f64::consts::PI..std::f64::consts::PI,
        width in 0.01..std::f64::consts::TAU,
        sample in -std::f64::consts::PI..std::f64::consts::PI,
    ) {
        use cooper_geometry::normalize_angle;
        use cooper_pointcloud::roi::BlindSector;
        let s = BlindSector { start, end: start + width, occluder_range: 5.0 };
        prop_assert!((s.width() - width).abs() < 1e-12);
        // Membership computed directly in the unwrapped sector frame.
        let unwrapped = {
            let rel = normalize_angle(sample - start);
            let rel = if rel < 0.0 { rel + std::f64::consts::TAU } else { rel };
            rel <= width
        };
        // Tolerate only boundary disagreement (floating-point edges).
        let rel_center = normalize_angle(sample - s.center()).abs();
        let boundary = (rel_center - width * 0.5).abs() < 1e-9
            || (normalize_angle(sample - start)).abs() < 1e-9;
        if !boundary {
            prop_assert_eq!(s.contains(sample), unwrapped);
        }
        // The center is always inside, however the sector wraps.
        prop_assert!(s.contains(s.center()));
        // And the center stays normalized.
        prop_assert!(s.center() > -std::f64::consts::PI - 1e-12);
        prop_assert!(s.center() <= std::f64::consts::PI + 1e-12);
    }

    #[test]
    fn blind_sectors_cover_their_occluders(
        center in -std::f64::consts::PI..std::f64::consts::PI,
        half_width in 0.1..1.2f64,
    ) {
        use cooper_pointcloud::roi::blind_sectors;
        // A near arc occluder centered anywhere — including across the
        // seam — over a far background ring.
        let mut c = PointCloud::new();
        let step = 0.5f64.to_radians();
        let mut az = center - half_width;
        while az <= center + half_width {
            c.push(Point::new(Vec3::new(5.0 * az.cos(), 5.0 * az.sin(), 0.0), 0.5));
            az += step;
        }
        for i in 0..720 {
            let bg = (i as f64) * step - std::f64::consts::PI;
            c.push(Point::new(Vec3::new(60.0 * bg.cos(), 60.0 * bg.sin(), 0.0), 0.5));
        }
        let sectors = blind_sectors(&c, 360, 15.0, 0.05, -1.0);
        // Exactly one merged sector, containing the occluder's center —
        // wherever that center lies relative to ±π.
        prop_assert_eq!(sectors.len(), 1);
        prop_assert!(sectors[0].contains(center));
        prop_assert!((sectors[0].width() - 2.0 * half_width).abs() < 0.1);
    }

    #[test]
    fn bounds_contain_all_points(c in cloud(200)) {
        if let Some(b) = c.bounds() {
            for p in c.iter() {
                prop_assert!(b.contains(p.position));
            }
        } else {
            prop_assert!(c.is_empty());
        }
    }
}

proptest! {
    #[test]
    fn boundary_coordinates_round_trip(
        // Sample tightly around the ±327.675/−327.685 rounding edges so
        // the quantized-value validation is exercised on both sides.
        x in -327.69..327.69f64,
        r in -2.0..3.0f32,
    ) {
        let c: PointCloud =
            std::iter::once(Point::new(Vec3::new(x, -x, x / 2.0), r)).collect();
        let q = (x * 100.0).round();
        let in_range = (f64::from(i16::MIN)..=f64::from(i16::MAX)).contains(&q);
        match encode_cloud(&c) {
            Ok(bytes) => {
                prop_assert!(in_range, "out-of-range {x} encoded");
                let back = decode_cloud(&bytes).unwrap();
                let p = back.as_slice()[0];
                prop_assert!((p.position.x - x).abs() <= 0.005 + 1e-9);
                // Reflectance decodes clamped into [0, 1].
                prop_assert!((0.0..=1.0).contains(&p.reflectance));
                prop_assert!((p.reflectance - r.clamp(0.0, 1.0)).abs() <= 1.0 / 255.0 + 1e-6);
            }
            Err(cooper_pointcloud::CodecError::CoordinateOutOfRange { .. }) => {
                prop_assert!(!in_range, "encodable boundary value {x} rejected");
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn v2_delta_stream_round_trips(
        c in cloud(200),
        keyframe_every in 1u32..6,
        frames in 1usize..8,
    ) {
        use cooper_pointcloud::{encode_cloud_v2, DeltaDecoder, DeltaEncoder, FrameKind};
        let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), keyframe_every);
        let mut dec = DeltaDecoder::new();
        for i in 0..frames {
            prop_assert_eq!(enc.keyframe_due(), (i as u32).is_multiple_of(keyframe_every));
            let (kind, sent) = if enc.keyframe_due() {
                enc.note_keyframe(&c);
                (FrameKind::Keyframe, c.clone())
            } else {
                let novel = enc.novel_points(&c);
                enc.note_delta();
                (FrameKind::Delta, novel)
            };
            prop_assert!(sent.len() <= c.len());
            // A static scene reconstructs to at least the keyframe's view.
            let got = dec.decode_next(&encode_cloud_v2(&sent, kind, false).unwrap()).unwrap();
            prop_assert!(got.len() >= sent.len());
            prop_assert!(got.len() <= 2 * c.len());
        }
    }

    #[test]
    fn cloud_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = decode_cloud(&bytes);
        let _ = cooper_pointcloud::truncate_frame(&bytes);
    }

    #[test]
    fn feature_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = cooper_pointcloud::decode_features(&bytes);
        let _ = cooper_pointcloud::verify_frame_crc(&bytes);
    }

    #[test]
    fn hostile_headers_never_over_allocate(
        // A syntactically valid header whose declared count is hostile:
        // up to u32::MAX points over an (almost) empty payload. The
        // decoders must bound-check the declared count against the
        // bytes that actually arrived *before* reserving storage — a
        // 14-byte frame claiming 4 billion points must cost an error,
        // not a 28 GB allocation.
        version_index in 0usize..3,
        flags in any::<u8>(),
        count in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let version = [1u8, 2, 3][version_index];
        let mut frame = Vec::new();
        frame.extend_from_slice(b"CPPC");
        frame.push(version);
        frame.push(flags);
        frame.extend_from_slice(&count.to_be_bytes());
        frame.extend_from_slice(&tail);
        // Whole-frame decoders reject a payload shorter than declared.
        if count as usize > tail.len() {
            prop_assert!(decode_cloud(&frame).is_err());
            prop_assert!(cooper_pointcloud::decode_features(&frame).is_err());
        }
        // Prefix salvage never keeps more than the bytes on hand,
        // whatever the header claims.
        if let Ok((cut, declared)) = cooper_pointcloud::truncate_frame(&frame) {
            prop_assert_eq!(declared, count as usize);
            prop_assert!(cut.len() <= frame.len());
        }
    }

    #[test]
    fn truncated_and_mutated_frames_never_panic(
        c in cloud(60),
        with_crc in any::<bool>(),
        cut in 0usize..600,
        flip_at in 0usize..600,
        flip_mask in 1u8..=255,
    ) {
        // Structure-aware fuzz: a well-formed frame, truncated at an
        // arbitrary byte and with one byte XOR-mutated. Every decoder
        // must return Ok or Err — never panic — and prefix salvage must
        // stay within the byte budget it was handed.
        let encoded = encode_cloud(&c).unwrap();
        let framed: Vec<u8> = if with_crc {
            cooper_pointcloud::append_crc(&encoded).unwrap().to_vec()
        } else {
            encoded.to_vec()
        };
        let mut bytes = framed[..cut.min(framed.len())].to_vec();
        let flip_index = flip_at.min(bytes.len().saturating_sub(1));
        if let Some(b) = bytes.get_mut(flip_index) {
            *b ^= flip_mask;
        }
        let _ = decode_cloud(&bytes);
        let _ = cooper_pointcloud::decode_features(&bytes);
        let _ = cooper_pointcloud::verify_frame_crc(&bytes);
        if let Ok((cut, _)) = cooper_pointcloud::truncate_frame(&bytes) {
            prop_assert!(cut.len() <= bytes.len());
            prop_assert!(decodes_whole(&cut));
        }
    }

    #[test]
    fn truncated_feature_frames_never_panic(
        channels in 1usize..6,
        raw_cells in prop::collection::vec((-50i32..50, -50i32..50), 0..30),
        with_crc in any::<bool>(),
        cut in 0usize..400,
        flip_at in 0usize..400,
        flip_mask in 1u8..=255,
    ) {
        use cooper_pointcloud::FeatureFrame;
        let mut cells: Vec<(i32, i32)> = raw_cells;
        cells.sort_unstable();
        cells.dedup();
        let features = vec![0.25f32; cells.len() * channels];
        let frame = FeatureFrame::new(channels, cells, features);
        let encoded = cooper_pointcloud::encode_features(&frame).unwrap();
        let framed: Vec<u8> = if with_crc {
            cooper_pointcloud::append_crc(&encoded).unwrap().to_vec()
        } else {
            encoded.to_vec()
        };
        let mut bytes = framed[..cut.min(framed.len())].to_vec();
        let flip_index = flip_at.min(bytes.len().saturating_sub(1));
        if let Some(b) = bytes.get_mut(flip_index) {
            *b ^= flip_mask;
        }
        let _ = cooper_pointcloud::decode_features(&bytes);
        let _ = cooper_pointcloud::verify_frame_crc(&bytes);
        if let Ok((cut, declared)) = cooper_pointcloud::truncate_frame(&bytes) {
            prop_assert!(cooper_pointcloud::frame_info(&cut).unwrap().point_count <= declared);
            prop_assert!(decodes_whole(&cut));
        }
    }

    #[test]
    fn interchange_readers_never_panic(text in "[ -~\n]{0,2048}") {
        use std::io::BufReader;
        let _ = cooper_pointcloud::io::read_xyz(BufReader::new(text.as_bytes()));
        let _ = cooper_pointcloud::io::read_ply(BufReader::new(text.as_bytes()));
        let _ = cooper_pointcloud::io::read_pcd(BufReader::new(text.as_bytes()));
    }
}
