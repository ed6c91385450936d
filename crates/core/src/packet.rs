//! The Cooper exchange package.
//!
//! §II-D: "additional information is encapsulated into the exchange
//! package. Said package should be constituted from LiDAR sensor
//! installation information and its GPS reading … Vehicle's IMU reading
//! is also required because it records the offset information of the
//! vehicle during driving." The packet therefore carries the compact
//! point-cloud payload plus the transmitting vehicle's [`PoseEstimate`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cooper_geometry::{Attitude, GpsFix};
use cooper_lidar_sim::PoseEstimate;
use cooper_pointcloud::{
    decode_cloud, decode_features, encode_cloud, encode_cloud_v2, encode_features,
    encoded_feature_size, truncate_frame, FeatureFrame, FrameInfo, FrameKind, PointCloud,
};
use cooper_telemetry::names as telemetry_names;

use crate::CooperError;

const MAGIC: &[u8; 4] = b"COOP";
const VERSION: u8 = 1;
/// Fixed header: magic (4) + version (1) + vehicle id (4) + sequence (4)
/// + gps lat/lon/alt (24) + yaw/pitch/roll (24) + payload length (4).
const HEADER_BYTES: usize = 4 + 1 + 4 + 4 + 24 + 24 + 4;

/// One cooperative-perception message: a (possibly ROI-filtered) point
/// cloud in the transmitter's sensor frame plus the pose estimate needed
/// to align it.
///
/// # Examples
///
/// ```
/// use cooper_core::ExchangePacket;
/// use cooper_geometry::{Attitude, GpsFix, Vec3};
/// use cooper_lidar_sim::PoseEstimate;
/// use cooper_pointcloud::{Point, PointCloud};
///
/// # fn main() -> Result<(), cooper_core::CooperError> {
/// let mut cloud = PointCloud::new();
/// cloud.push(Point::new(Vec3::new(10.0, 0.0, -1.5), 0.4));
/// let pose = PoseEstimate {
///     gps: GpsFix::new(33.2075, -97.1526, 190.0),
///     attitude: Attitude::from_yaw(0.3),
/// };
/// let packet = ExchangePacket::build(7, 1, &cloud, pose)?;
/// let bytes = packet.to_bytes();
/// let decoded = ExchangePacket::from_bytes(&bytes)?;
/// assert_eq!(decoded.vehicle_id(), 7);
/// assert_eq!(decoded.cloud()?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangePacket {
    vehicle_id: u32,
    sequence: u32,
    pose: PoseEstimate,
    payload: Bytes,
}

impl ExchangePacket {
    /// Builds a packet by encoding `cloud` into the compact wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] when the cloud has out-of-range
    /// coordinates and [`CooperError::InvalidPose`] when the pose is not
    /// finite.
    pub fn build(
        vehicle_id: u32,
        sequence: u32,
        cloud: &PointCloud,
        pose: PoseEstimate,
    ) -> Result<Self, CooperError> {
        if !pose_is_finite(&pose) {
            return Err(CooperError::InvalidPose);
        }
        Ok(ExchangePacket {
            vehicle_id,
            sequence,
            pose,
            payload: encode_cloud(cloud)?,
        })
    }

    /// Builds a packet carrying a wire-format **v2** payload: the flags
    /// byte records whether the cloud is a delta frame and whether its
    /// static background was subtracted. Everything else — header,
    /// fragmentation, salvage — is identical to [`ExchangePacket::build`].
    ///
    /// # Errors
    ///
    /// Same as [`ExchangePacket::build`].
    pub fn build_v2(
        vehicle_id: u32,
        sequence: u32,
        cloud: &PointCloud,
        pose: PoseEstimate,
        kind: FrameKind,
        background_subtracted: bool,
    ) -> Result<Self, CooperError> {
        if !pose_is_finite(&pose) {
            return Err(CooperError::InvalidPose);
        }
        Ok(ExchangePacket {
            vehicle_id,
            sequence,
            pose,
            payload: encode_cloud_v2(cloud, kind, background_subtracted)?,
        })
    }

    /// Builds a packet carrying a wire-format **v3** quantized BEV
    /// feature payload (F-Cooper's feature-level fusion tier) instead of
    /// points. The exchange header — identity, pose, fragmentation,
    /// salvage — is identical to [`ExchangePacket::build`]; only the
    /// payload codec differs.
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] when a feature cell's coordinates
    /// overflow the wire range and [`CooperError::InvalidPose`] when the
    /// pose is not finite.
    pub fn build_features(
        vehicle_id: u32,
        sequence: u32,
        frame: &FeatureFrame,
        pose: PoseEstimate,
    ) -> Result<Self, CooperError> {
        if !pose_is_finite(&pose) {
            return Err(CooperError::InvalidPose);
        }
        Ok(ExchangePacket {
            vehicle_id,
            sequence,
            pose,
            payload: encode_features(frame)?,
        })
    }

    /// Parses the payload's wire-format header — version, frame kind,
    /// background flag and declared point count.
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] for a corrupt payload.
    pub fn frame_info(&self) -> Result<FrameInfo, CooperError> {
        Ok(cooper_pointcloud::frame_info(&self.payload)?)
    }

    /// The transmitting vehicle's identifier.
    pub fn vehicle_id(&self) -> u32 {
        self.vehicle_id
    }

    /// The frame sequence number.
    pub fn sequence(&self) -> u32 {
        self.sequence
    }

    /// The transmitter's measured pose.
    pub fn pose(&self) -> &PoseEstimate {
        &self.pose
    }

    /// Decodes the embedded point cloud (transmitter's sensor frame).
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] for a corrupt payload.
    pub fn cloud(&self) -> Result<PointCloud, CooperError> {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PACKET_PAYLOAD_DECODE);
        Ok(decode_cloud(&self.payload)?)
    }

    /// Decodes the embedded quantized BEV feature frame (transmitter's
    /// sensor frame) — the v3 counterpart of
    /// [`cloud`](ExchangePacket::cloud).
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] for a corrupt payload or when the
    /// payload carries points (v1/v2) instead of features.
    pub fn feature_frame(&self) -> Result<FeatureFrame, CooperError> {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PACKET_PAYLOAD_DECODE);
        Ok(decode_features(&self.payload)?)
    }

    /// Size of the encoded cloud payload, bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total size on the wire, bytes — what the DSRC feasibility study
    /// (Figure 12) accounts.
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }

    /// Wire size of a packet carrying `point_count` points, without
    /// building one — the pricing function of the bandwidth governor
    /// (both wire versions share the fixed per-point stride).
    pub fn wire_size_for(point_count: usize) -> usize {
        HEADER_BYTES + cooper_pointcloud::codec::encoded_size(point_count)
    }

    /// Wire size of a packet carrying a v3 feature payload with `cells`
    /// active BEV cells of `channels` channels each, without building
    /// one — prices the feature tier in the governor's candidate menu.
    pub fn wire_size_for_features(cells: usize, channels: usize) -> usize {
        HEADER_BYTES + encoded_feature_size(cells, channels)
    }

    /// The raw encoded-cloud payload — what a stateful wire-format
    /// decoder (`cooper_pointcloud::DeltaDecoder`) consumes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Decodes the payload by its frame kind: a v3 frame through
    /// [`feature_frame`](Self::feature_frame), anything else through
    /// [`cloud`](Self::cloud). A v2 delta frame decodes to the points it
    /// carries; the fleet's receivers follow each sender's stream
    /// through a [`cooper_pointcloud::DeltaDecoder`] instead.
    pub fn decode(&self) -> DecodedPacket {
        let payload = match self.frame_info() {
            Ok(info) if info.kind == FrameKind::Features => {
                self.feature_frame().map(Payload::Features)
            }
            _ => self.cloud().map(Payload::Points),
        };
        self.decoded(payload)
    }

    /// This packet's header fields with a payload decoded elsewhere.
    pub(crate) fn decoded(&self, payload: Result<Payload, CooperError>) -> DecodedPacket {
        DecodedPacket {
            vehicle_id: self.vehicle_id,
            sequence: self.sequence,
            pose: self.pose,
            payload,
        }
    }

    /// A copy of this packet whose payload carries the CRC-32 integrity
    /// trailer ([`cooper_pointcloud::append_crc`]). Identity and pose
    /// are kept; receivers without the check still decode the payload —
    /// legacy decoders ignore trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] when the payload header is
    /// malformed.
    pub fn with_integrity(&self) -> Result<Self, CooperError> {
        Ok(ExchangePacket {
            vehicle_id: self.vehicle_id,
            sequence: self.sequence,
            pose: self.pose,
            payload: cooper_pointcloud::append_crc(&self.payload)?,
        })
    }

    /// Verifies the payload's CRC-32 trailer without decoding it.
    /// Returns `Ok(true)` when a trailer is present and matches,
    /// `Ok(false)` when the payload was never CRC-framed.
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Codec`] when the trailer mismatches the
    /// content or the payload header is malformed.
    pub fn verify_integrity(&self) -> Result<bool, CooperError> {
        Ok(cooper_pointcloud::verify_frame_crc(&self.payload)?)
    }

    /// A copy of this packet with roughly `rate` of its payload bytes
    /// bit-flipped, drawn from a deterministic stream seeded by `seed`
    /// — the at-source tampering a malicious sender applies before
    /// broadcast ([`cooper_lidar_sim::FaultKind::PayloadCorruption`]).
    /// The payload *header* is left intact so the damage is content
    /// corruption, not framing garbage; a CRC trailer, if present, is
    /// deliberately **not** recomputed.
    pub fn with_flipped_payload_bytes(&self, rate: f64, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut payload = self.payload.to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        // Skip the payload's own header so frame_info still parses.
        let start = cooper_pointcloud::codec::WIRE_HEADER_BYTES.min(payload.len());
        for byte in &mut payload[start..] {
            if rng.gen::<f64>() < rate {
                *byte ^= 1u8 << rng.gen_range(0..8);
            }
        }
        ExchangePacket {
            vehicle_id: self.vehicle_id,
            sequence: self.sequence,
            pose: self.pose,
            payload: Bytes::from(payload),
        }
    }

    /// Serializes the packet for transmission.
    pub fn to_bytes(&self) -> Bytes {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PACKET_ENCODE);
        let mut buf = BytesMut::with_capacity(self.wire_size());
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u32(self.vehicle_id);
        buf.put_u32(self.sequence);
        buf.put_f64(self.pose.gps.latitude);
        buf.put_f64(self.pose.gps.longitude);
        buf.put_f64(self.pose.gps.altitude);
        buf.put_f64(self.pose.attitude.yaw);
        buf.put_f64(self.pose.attitude.pitch);
        buf.put_f64(self.pose.attitude.roll);
        buf.put_u32(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Deserializes a packet received from the network.
    ///
    /// # Errors
    ///
    /// Returns [`CooperError::Truncated`], [`CooperError::BadMagic`],
    /// [`CooperError::UnsupportedVersion`] or [`CooperError::InvalidPose`]
    /// for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CooperError> {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PACKET_DECODE);
        let header = Header::parse(bytes)?;
        let payload = &bytes[HEADER_BYTES..];
        if payload.len() < header.payload_len {
            return Err(CooperError::Truncated {
                expected: HEADER_BYTES + header.payload_len,
                actual: bytes.len(),
            });
        }
        Ok(ExchangePacket {
            vehicle_id: header.vehicle_id,
            sequence: header.sequence,
            pose: header.finite_pose()?,
            payload: Bytes::copy_from_slice(&payload[..header.payload_len]),
        })
    }

    /// Deserializes the leading portion of a packet whose tail never
    /// arrived — the salvage path for partial deliveries.
    ///
    /// The full header must be present; the payload may be truncated
    /// anywhere. The payload is cut to the whole points or feature cells
    /// it contains ([`cooper_pointcloud::truncate_frame`]), keeping its
    /// version, frame kind and, for feature frames, the sender's
    /// quantization scale. Returns the salvaged packet plus the fraction
    /// of payload points (or cells) recovered (`0.0..=1.0`).
    ///
    /// # Errors
    ///
    /// Returns the same header errors as
    /// [`ExchangePacket::from_bytes`], plus [`CooperError::Truncated`]
    /// when not even the payload's own header survived.
    pub fn from_partial_bytes(bytes: &[u8]) -> Result<(Self, f64), CooperError> {
        let _span = cooper_telemetry::span!(telemetry_names::SPAN_PACKET_DECODE_PARTIAL);
        let header = Header::parse(bytes)?;
        let pose = header.finite_pose()?;
        let available = header.payload_len.min(bytes.len() - HEADER_BYTES);
        let (payload, declared) = truncate_frame(&bytes[HEADER_BYTES..HEADER_BYTES + available])?;
        let kept = cooper_pointcloud::frame_info(&payload)?.point_count;
        let fraction = if declared == 0 {
            1.0
        } else {
            kept as f64 / declared as f64
        };
        let packet = ExchangePacket {
            vehicle_id: header.vehicle_id,
            sequence: header.sequence,
            pose,
            payload,
        };
        Ok((packet, fraction))
    }
}

/// A received packet after its one payload decode: the header fields a
/// receiver aligns and attributes with, and the payload or the error
/// decoding it raised. [`CooperPipeline::perceive`](crate::CooperPipeline::perceive)
/// fuses these.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPacket {
    /// The transmitting vehicle's identifier.
    pub vehicle_id: u32,
    /// The frame sequence number.
    pub sequence: u32,
    /// The transmitter's measured pose.
    pub pose: PoseEstimate,
    /// The decoded payload, or why it did not decode.
    pub payload: Result<Payload, CooperError>,
}

/// A decoded exchange payload, in the transmitter's sensor frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A v1/v2 point cloud, fused at the raw level.
    Points(PointCloud),
    /// A v3 quantized BEV feature frame, fused at the feature level.
    Features(FeatureFrame),
}

/// The fixed header at the front of every exchange packet, as read
/// before its payload is checked.
struct Header {
    vehicle_id: u32,
    sequence: u32,
    /// The GPS fix is clamped to valid latitudes and longitudes; the
    /// pose is not yet checked for finite fields.
    pose: PoseEstimate,
    payload_len: usize,
}

impl Header {
    /// Reads the header: its length, magic and version, then the fields.
    ///
    /// # Errors
    ///
    /// [`CooperError::Truncated`] when `bytes` is shorter than a header,
    /// [`CooperError::BadMagic`] or [`CooperError::UnsupportedVersion`].
    fn parse(bytes: &[u8]) -> Result<Self, CooperError> {
        if bytes.len() < HEADER_BYTES {
            return Err(CooperError::Truncated {
                expected: HEADER_BYTES,
                actual: bytes.len(),
            });
        }
        let mut header = &bytes[..HEADER_BYTES];
        let mut magic = [0u8; 4];
        header.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CooperError::BadMagic);
        }
        let version = header.get_u8();
        if version != VERSION {
            return Err(CooperError::UnsupportedVersion(version));
        }
        let vehicle_id = header.get_u32();
        let sequence = header.get_u32();
        let latitude = header.get_f64();
        let longitude = header.get_f64();
        let altitude = header.get_f64();
        let yaw = header.get_f64();
        let pitch = header.get_f64();
        let roll = header.get_f64();
        let payload_len = header.get_u32() as usize;
        Ok(Header {
            vehicle_id,
            sequence,
            pose: PoseEstimate {
                gps: GpsFix::new(
                    latitude.clamp(-90.0, 90.0),
                    longitude.clamp(-180.0, 180.0),
                    altitude,
                ),
                attitude: Attitude::new(yaw, pitch, roll),
            },
            payload_len,
        })
    }

    /// The pose, or [`CooperError::InvalidPose`] when a field is not
    /// finite.
    fn finite_pose(&self) -> Result<PoseEstimate, CooperError> {
        if pose_is_finite(&self.pose) {
            Ok(self.pose)
        } else {
            Err(CooperError::InvalidPose)
        }
    }
}

fn pose_is_finite(pose: &PoseEstimate) -> bool {
    pose.gps.latitude.is_finite()
        && pose.gps.longitude.is_finite()
        && pose.gps.altitude.is_finite()
        && pose.attitude.yaw.is_finite()
        && pose.attitude.pitch.is_finite()
        && pose.attitude.roll.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::Vec3;
    use cooper_pointcloud::Point;

    fn sample_pose() -> PoseEstimate {
        PoseEstimate {
            gps: GpsFix::new(33.2075, -97.1526, 190.0),
            attitude: Attitude::new(0.3, 0.01, -0.02),
        }
    }

    fn sample_cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| Point::new(Vec3::new(i as f64 * 0.1, -1.0, 0.5), 0.5))
            .collect()
    }

    #[test]
    fn round_trip() {
        let packet = ExchangePacket::build(42, 7, &sample_cloud(100), sample_pose()).unwrap();
        let bytes = packet.to_bytes();
        assert_eq!(bytes.len(), packet.wire_size());
        let back = ExchangePacket::from_bytes(&bytes).unwrap();
        assert_eq!(back.vehicle_id(), 42);
        assert_eq!(back.sequence(), 7);
        assert_eq!(back.pose(), packet.pose());
        assert_eq!(back.cloud().unwrap().len(), 100);
    }

    #[test]
    fn truncated_packet_rejected() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(10), sample_pose()).unwrap();
        let bytes = packet.to_bytes();
        for cut in [3, HEADER_BYTES - 1, bytes.len() - 1] {
            let err = ExchangePacket::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CooperError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(1), sample_pose()).unwrap();
        let mut bytes = packet.to_bytes().to_vec();
        bytes[0] = b'X';
        assert_eq!(
            ExchangePacket::from_bytes(&bytes).unwrap_err(),
            CooperError::BadMagic
        );
        let mut bytes2 = packet.to_bytes().to_vec();
        bytes2[4] = 200;
        assert_eq!(
            ExchangePacket::from_bytes(&bytes2).unwrap_err(),
            CooperError::UnsupportedVersion(200)
        );
    }

    #[test]
    fn both_decoders_reject_bad_headers_alike() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(3), sample_pose()).unwrap();
        let good = packet.to_bytes().to_vec();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut bad_version = good.clone();
        bad_version[4] = 200;
        let mut nan_yaw = good.clone();
        // The yaw field sits at offset 13 + 24 = 37.
        nan_yaw[37..45].copy_from_slice(&f64::NAN.to_be_bytes());
        for (bytes, want) in [
            (&bad_magic, CooperError::BadMagic),
            (&bad_version, CooperError::UnsupportedVersion(200)),
            (&nan_yaw, CooperError::InvalidPose),
        ] {
            assert_eq!(ExchangePacket::from_bytes(bytes).unwrap_err(), want);
            assert_eq!(ExchangePacket::from_partial_bytes(bytes).unwrap_err(), want);
        }
        // A whole packet is checked for a truncated payload before its
        // pose; a partial one has no whole payload to check.
        let cut = &nan_yaw[..nan_yaw.len() - 1];
        assert!(matches!(
            ExchangePacket::from_bytes(cut).unwrap_err(),
            CooperError::Truncated { .. }
        ));
        assert_eq!(
            ExchangePacket::from_partial_bytes(cut).unwrap_err(),
            CooperError::InvalidPose
        );
    }

    #[test]
    fn non_finite_pose_rejected_at_build() {
        let mut pose = sample_pose();
        pose.attitude.yaw = f64::NAN;
        assert_eq!(
            ExchangePacket::build(1, 1, &sample_cloud(1), pose).unwrap_err(),
            CooperError::InvalidPose
        );
    }

    #[test]
    fn non_finite_pose_rejected_at_decode() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(1), sample_pose()).unwrap();
        let mut bytes = packet.to_bytes().to_vec();
        // Overwrite the yaw field (offset 13 + 24 = 37) with NaN bits.
        bytes[37..45].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(
            ExchangePacket::from_bytes(&bytes).unwrap_err(),
            CooperError::InvalidPose
        );
    }

    #[test]
    fn corrupted_payload_surfaces_codec_error() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(5), sample_pose()).unwrap();
        let mut bytes = packet.to_bytes().to_vec();
        // Corrupt the payload's CPPC magic.
        bytes[HEADER_BYTES] = b'Z';
        let decoded = ExchangePacket::from_bytes(&bytes).unwrap();
        assert!(matches!(decoded.cloud(), Err(CooperError::Codec(_))));
    }

    #[test]
    fn partial_bytes_salvage_whole_points() {
        let packet = ExchangePacket::build(9, 3, &sample_cloud(100), sample_pose()).unwrap();
        let bytes = packet.to_bytes();
        // Keep the header, the payload header and 40 whole points plus
        // a ragged half-point.
        let cut = HEADER_BYTES + 10 + 40 * 7 + 3;
        let (salvaged, fraction) = ExchangePacket::from_partial_bytes(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.vehicle_id(), 9);
        assert_eq!(salvaged.sequence(), 3);
        assert_eq!(salvaged.pose(), packet.pose());
        assert_eq!(salvaged.cloud().unwrap().len(), 40);
        assert!((fraction - 0.4).abs() < 1e-12);
        // The salvaged packet is self-consistent on the wire.
        let rt = ExchangePacket::from_bytes(&salvaged.to_bytes()).unwrap();
        assert_eq!(rt.cloud().unwrap().len(), 40);
    }

    #[test]
    fn partial_bytes_of_complete_packet_are_lossless() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(50), sample_pose()).unwrap();
        let (salvaged, fraction) = ExchangePacket::from_partial_bytes(&packet.to_bytes()).unwrap();
        assert_eq!(salvaged, packet);
        assert_eq!(fraction, 1.0);
    }

    #[test]
    fn partial_bytes_require_the_header() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(10), sample_pose()).unwrap();
        let bytes = packet.to_bytes();
        // Packet header alone (no payload header): truncated.
        assert!(matches!(
            ExchangePacket::from_partial_bytes(&bytes[..HEADER_BYTES + 4]).unwrap_err(),
            CooperError::Truncated { .. } | CooperError::Codec(_)
        ));
        assert!(matches!(
            ExchangePacket::from_partial_bytes(&bytes[..HEADER_BYTES - 1]).unwrap_err(),
            CooperError::Truncated { .. }
        ));
    }

    #[test]
    fn v2_payload_round_trips_and_keeps_flags() {
        let packet = ExchangePacket::build_v2(
            4,
            2,
            &sample_cloud(60),
            sample_pose(),
            FrameKind::Delta,
            true,
        )
        .unwrap();
        let back = ExchangePacket::from_bytes(&packet.to_bytes()).unwrap();
        assert_eq!(back, packet);
        let info = back.frame_info().unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.kind, FrameKind::Delta);
        assert!(info.background_subtracted);
        assert_eq!(back.cloud().unwrap().len(), 60);
    }

    #[test]
    fn v2_partial_salvage_preserves_frame_kind() {
        let packet = ExchangePacket::build_v2(
            9,
            3,
            &sample_cloud(100),
            sample_pose(),
            FrameKind::Delta,
            true,
        )
        .unwrap();
        let bytes = packet.to_bytes();
        let cut = HEADER_BYTES + 10 + 40 * 7 + 3;
        let (salvaged, fraction) = ExchangePacket::from_partial_bytes(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.cloud().unwrap().len(), 40);
        assert!((fraction - 0.4).abs() < 1e-12);
        // The truncated delta stays a delta on re-encode.
        let info = salvaged.frame_info().unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.kind, FrameKind::Delta);
        assert!(info.background_subtracted);
    }

    #[test]
    fn v1_frame_info_reported() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(5), sample_pose()).unwrap();
        let info = packet.frame_info().unwrap();
        assert_eq!(info.version, 1);
        assert_eq!(info.kind, FrameKind::Keyframe);
    }

    fn sample_features(cells: usize, channels: usize) -> FeatureFrame {
        let coords: Vec<(i32, i32)> = (0..cells as i32).map(|i| (i, i * 2)).collect();
        let values: Vec<f32> = (0..cells * channels)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        FeatureFrame::new(channels, coords, values)
    }

    #[test]
    fn feature_packet_round_trips() {
        let frame = sample_features(40, 11);
        let packet = ExchangePacket::build_features(7, 5, &frame, sample_pose()).unwrap();
        assert_eq!(
            packet.wire_size(),
            ExchangePacket::wire_size_for_features(40, 11)
        );
        let back = ExchangePacket::from_bytes(&packet.to_bytes()).unwrap();
        assert_eq!(back, packet);
        let info = back.frame_info().unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.kind, FrameKind::Features);
        let decoded = back.feature_frame().unwrap();
        assert_eq!(decoded.cells(), frame.cells());
        let bound = f64::from(frame.quantization_scale()) / 254.0 + 1e-6;
        for (a, b) in decoded.features().iter().zip(frame.features()) {
            assert!((f64::from(*a) - f64::from(*b)).abs() <= bound);
        }
    }

    #[test]
    fn decode_picks_the_decoder_by_frame_kind() {
        let delta = ExchangePacket::build_v2(
            4,
            2,
            &sample_cloud(30),
            sample_pose(),
            FrameKind::Delta,
            true,
        )
        .unwrap();
        let decoded = delta.decode();
        assert_eq!(decoded.vehicle_id, 4);
        assert_eq!(decoded.sequence, 2);
        assert_eq!(&decoded.pose, delta.pose());
        assert_eq!(decoded.payload, delta.cloud().map(Payload::Points));
        let features =
            ExchangePacket::build_features(5, 1, &sample_features(6, 3), sample_pose()).unwrap();
        let frame = features.feature_frame().map(Payload::Features);
        assert_eq!(features.decode().payload, frame);
        // A payload whose header does not parse is an error, not a panic.
        let mut bytes = delta.to_bytes().to_vec();
        bytes[HEADER_BYTES] = b'Z';
        let corrupt = ExchangePacket::from_bytes(&bytes).unwrap();
        assert!(matches!(
            corrupt.decode().payload,
            Err(CooperError::Codec(_))
        ));
    }

    #[test]
    fn feature_packet_rejects_point_decoder_and_vice_versa() {
        let feature_packet =
            ExchangePacket::build_features(1, 1, &sample_features(4, 3), sample_pose()).unwrap();
        assert!(matches!(feature_packet.cloud(), Err(CooperError::Codec(_))));
        let point_packet = ExchangePacket::build(1, 1, &sample_cloud(4), sample_pose()).unwrap();
        assert!(matches!(
            point_packet.feature_frame(),
            Err(CooperError::Codec(_))
        ));
    }

    #[test]
    fn v3_partial_salvage_recovers_whole_cells() {
        let frame = sample_features(50, 8);
        let packet = ExchangePacket::build_features(9, 3, &frame, sample_pose()).unwrap();
        let bytes = packet.to_bytes();
        // Exchange header + feature header (15) + 20 whole cells of
        // stride 4 + 8, plus a ragged half-cell.
        let cut = HEADER_BYTES + 15 + 20 * 12 + 5;
        let (salvaged, fraction) = ExchangePacket::from_partial_bytes(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.vehicle_id(), 9);
        assert!((fraction - 0.4).abs() < 1e-12);
        let recovered = salvaged.feature_frame().unwrap();
        assert_eq!(recovered.len(), 20);
        assert_eq!(recovered.cells(), &frame.cells()[..20]);
        // The salvaged packet stays a feature frame on the wire.
        let info = salvaged.frame_info().unwrap();
        assert_eq!(info.kind, FrameKind::Features);
    }

    /// Salvage cuts the payload; for points that is exactly what
    /// decoding the kept points and re-encoding them under the original
    /// version and flags would send.
    #[test]
    fn point_salvage_equals_re_encoding_the_kept_points() {
        let cloud = sample_cloud(60);
        let pose = sample_pose();
        let plain = ExchangePacket::build(2, 7, &cloud, pose).unwrap();
        let delta = ExchangePacket::build_v2(2, 7, &cloud, pose, FrameKind::Delta, true).unwrap();
        for packet in [
            plain.with_integrity().unwrap(),
            delta.with_integrity().unwrap(),
            plain,
            delta,
        ] {
            let bytes = packet.to_bytes();
            let info = packet.frame_info().unwrap();
            for cut in HEADER_BYTES + 10..=bytes.len() {
                let (salvaged, fraction) =
                    ExchangePacket::from_partial_bytes(&bytes[..cut]).unwrap();
                let points = salvaged.cloud().unwrap();
                let rebuilt = if info.version >= 2 {
                    ExchangePacket::build_v2(
                        2,
                        7,
                        &points,
                        pose,
                        info.kind,
                        info.background_subtracted,
                    )
                } else {
                    ExchangePacket::build(2, 7, &points, pose)
                };
                assert_eq!(salvaged, rebuilt.unwrap(), "cut {cut}");
                assert_eq!(fraction, points.len() as f64 / 60.0);
            }
        }
    }

    /// A salvaged feature prefix keeps the sender's quantization scale,
    /// so each kept value decodes exactly as it would from the whole
    /// frame, even when the prefix holds none of the frame's largest
    /// values.
    #[test]
    fn v3_salvage_keeps_the_sender_scale() {
        let cells: Vec<(i32, i32)> = (0..40).map(|i| (i, 0)).collect();
        let values: Vec<f32> = (0..160)
            .map(|i| (i as f32 * 0.37).sin() * (1.0 + i as f32 / 20.0))
            .collect();
        let frame = FeatureFrame::new(4, cells, values);
        let packet = ExchangePacket::build_features(9, 3, &frame, sample_pose()).unwrap();
        let bytes = packet.to_bytes();
        let (salvaged, fraction) =
            ExchangePacket::from_partial_bytes(&bytes[..bytes.len() / 2]).unwrap();
        let whole = packet.feature_frame().unwrap();
        let prefix = salvaged.feature_frame().unwrap();
        assert!(fraction > 0.0 && fraction < 1.0);
        assert_eq!(prefix.cells(), &whole.cells()[..prefix.len()]);
        assert_eq!(prefix.features(), &whole.features()[..prefix.len() * 4]);
        assert_eq!(salvaged.payload()[11..15], packet.payload()[11..15]);
    }

    #[test]
    fn integrity_trailer_round_trips_and_detects_tampering() {
        let packet = ExchangePacket::build(3, 8, &sample_cloud(30), sample_pose()).unwrap();
        assert!(!packet.verify_integrity().unwrap(), "no trailer yet");
        let framed = packet.with_integrity().unwrap();
        assert!(framed.verify_integrity().unwrap());
        assert_eq!(framed.cloud().unwrap().len(), 30);
        // Survives the wire round trip.
        let rt = ExchangePacket::from_bytes(&framed.to_bytes()).unwrap();
        assert!(rt.verify_integrity().unwrap());
        // At-source tampering breaks the trailer — and the decoder
        // refuses the payload outright.
        let tampered = framed.with_flipped_payload_bytes(0.2, 99);
        assert!(matches!(
            tampered.verify_integrity(),
            Err(CooperError::Codec(_))
        ));
        assert!(matches!(tampered.cloud(), Err(CooperError::Codec(_))));
    }

    #[test]
    fn flipped_payload_is_deterministic_and_undetected_without_crc() {
        let packet = ExchangePacket::build(1, 1, &sample_cloud(50), sample_pose()).unwrap();
        let a = packet.with_flipped_payload_bytes(0.1, 7);
        let b = packet.with_flipped_payload_bytes(0.1, 7);
        assert_eq!(a, b);
        assert_ne!(a.payload(), packet.payload());
        let c = packet.with_flipped_payload_bytes(0.1, 8);
        assert_ne!(a.payload(), c.payload(), "seed varies the damage");
        // Without a trailer the damage sails through verification —
        // the motivating gap for the integrity layer.
        assert!(!a.verify_integrity().unwrap());
    }

    #[test]
    fn wire_size_tracks_roi_payload() {
        let full = ExchangePacket::build(1, 1, &sample_cloud(1000), sample_pose()).unwrap();
        let roi = ExchangePacket::build(1, 1, &sample_cloud(100), sample_pose()).unwrap();
        assert!(roi.wire_size() < full.wire_size());
        assert_eq!(full.wire_size() - roi.wire_size(), 900 * 7);
    }
}
